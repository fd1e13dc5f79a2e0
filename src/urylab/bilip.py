"""Compliant bilipschitz extension inside a ball.

The central routine adds one point to the domain (or range) of a map that is
simultaneously K-bilipschitz and N-bigood, by solving, in order, a chain of
one-dimensional feasibility intervals for the new point's distances to the
existing range, then realizing the new image through a Katetov prescription.
For admissible (K, N) the intervals are never empty; emptiness is raised as
an error, not clamped, because it can only mean a violated precondition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .amalgam import Chooser, Policy, _katetov_fill, chooser, realize_point
from .core import (Ball, FiniteMetricSpace, GoodnessReport, PartialMap,
                   Rational, goodness_check, lip_details, map_in_ball, rat)
from .errors import (DegenerateInputError, InfeasibleError, PreconditionError,
                     as_text)


@dataclass(frozen=True)
class KNParams:
    """A stretch bound K and goodness divisor N, with admissibility status.

    Admissible means K > 1 and N >= K^2/(K-1); this is the radical-free form
    of requiring K to lie in the closed interval
    [(N - sqrt(N^2-4N))/2, (N + sqrt(N^2-4N))/2] with N >= 4, and it is the
    only form evaluated here (no square roots).  Admissibility implies
    1/N + 1/K <= 1.
    """

    K: Fraction
    N: Fraction
    admissible: bool


def kn_admissible(K: Rational, N: Rational) -> KNParams:
    """Classify a (K, N) pair.  Total: any rationals are accepted."""
    K, N = rat(K), rat(N)
    return KNParams(K, N, K > 1 and N * (K - 1) >= K * K)


@dataclass(frozen=True)
class ComplianceCertificate:
    ok: bool
    lip_ok: bool
    lip_value: Fraction
    lip_witness: Optional[tuple[int, int]]
    goodness: GoodnessReport

    def __bool__(self) -> bool:
        return self.ok


def is_compliant(f: PartialMap, ball: Ball, kn: KNParams,
                 space: FiniteMetricSpace) -> ComplianceCertificate:
    """Exact certificate that f is K-bilipschitz and N-bigood in the ball.

    ``goodness_check`` runs first: it rejects a point on or beyond the
    boundary before any distance is compared.
    """
    if not kn.admissible:
        raise PreconditionError(f"(K, N) = ({kn.K}, {kn.N}) not admissible")
    goodness = goodness_check(f, ball, kn.N, space)
    lip_value, lip_witness = lip_details(f, space)
    lip_ok = lip_value <= kn.K
    return ComplianceCertificate(lip_ok and goodness.ok, lip_ok, lip_value,
                                 lip_witness, goodness)


Bound = tuple[str, Fraction, Fraction]  # (family, lower, upper)


@dataclass(frozen=True, slots=True)
class SolveRecord:
    """Feasibility verdict for one unknown distance e_m.

    ``lo``/``hi`` are the tightest lower/upper bounds, ``lo_family`` and
    ``hi_family`` the constraint families that set them, and ``chosen``
    lies inside.  The individual bounds are not stored: ``lowers`` and
    ``uppers`` re-derive them, in the solver's order, from the latest
    workspace of the solve's run and its chosen e_1..e_{m-1}.
    """

    m: int
    lo: Fraction
    hi: Fraction
    lo_family: str
    hi_family: str
    chosen: Fraction
    _held: tuple = field(compare=False, repr=False)

    def bounds(self) -> list[Bound]:
        """Every bound on e_m as (family, lower, upper), IE1 first.

        ``_held`` is the solve's context less K*d_j, which is rebuilt from
        d_j here, and with a holder of its run's latest workspace in place
        of the solve's own.  A run only appends points, so each of its
        workspaces is the leading block of the latest one, which reads the
        same d(y_m, y_j).
        """
        latest, K, N, r, ys, dv, sv, cap_d, e = self._held
        return _bounds((latest[0], K, N, r, ys, dv, sv, [K * d for d in dv],
                        cap_d, e), self.m - 1)

    @property
    def lowers(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((fam, lo) for fam, lo, _ in self.bounds())

    @property
    def uppers(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((fam, hi) for fam, _, hi in self.bounds())


@dataclass(frozen=True, slots=True)
class TraceLine:
    """One solved distance of a trace: the record a trace file line holds.

    ``str`` writes the line and ``PATTERN`` reads it: ``step <m>
    side=<d|r> interval=[<lo>,<hi>] e=<e> s=<s> point=<label>``, fields in
    that order, with ``[-]p[/q]`` rationals.
    """

    m: int
    side: str          # 'd' | 'r'
    lo: Fraction
    hi: Fraction
    e: Fraction
    s: Fraction
    point: str

    PATTERN = re.compile(
        r"step (\d+) side=([dr]) interval=\[({0}),({0})\] e=({0}) s=({0})"
        r" point=(\S+)".format(r"-?\d+(?:/\d+)?"), re.ASCII)

    def __str__(self) -> str:
        return (f"step {self.m} side={self.side} "
                f"interval=[{self.lo},{self.hi}] e={self.e} s={self.s} "
                f"point={self.point}")


@dataclass(frozen=True)
class ExtensionStep:
    """One point added to the domain or range of the map."""

    side: str                      # 'domain' | 'range'
    target: int
    target_label: str
    noop: bool
    solves: tuple[SolveRecord, ...] = ()
    s: Optional[Fraction] = None
    realized: Optional[int] = None
    realized_label: Optional[str] = None

    @property
    def tag(self) -> str:
        """The side as a trace writes it: 'd' or 'r'."""
        return "d" if self.side == "domain" else "r"

    def lines(self) -> tuple[TraceLine, ...]:
        """The step's trace lines, one per solved distance (none for a noop)."""
        return tuple(TraceLine(rec.m, self.tag, rec.lo, rec.hi, rec.chosen,
                               self.s, self.realized_label)
                     for rec in self.solves)


@dataclass
class ExtensionTrace:
    """Audit record of a whole extension run."""

    steps: list[ExtensionStep] = field(default_factory=list)


def _bounds(ctx: tuple, m: int) -> list[Bound]:
    """Every bound on e_{m+1} as (family, lower, upper), IE1 first.

    ``ctx`` is the tuple of values :func:`_solve_new_distances` fixes once
    per solve; its list ``e`` of chosen distances is read only at e[:m].
    IE2 is ``amalgam.amalgamate``'s one-point interval written out one bound
    per l, because ``SolveRecord.lowers``/``uppers`` re-derive every bound
    with its family.
    """
    space, K, N, r, ys, dv, sv, Kd, cap_d, e = ctx
    row = space.dist[ys[m]]               # d(y_m, .)
    bounds = []
    for j in range(m + 1, len(ys)):
        emj = row[ys[j]]
        bounds.append(("IE1", emj - Kd[j], emj + Kd[j]))
    for l in range(m):
        eml = row[ys[l]]
        bounds.append(("IE2", abs(eml - e[l]), eml + e[l]))
    bounds.append(("IE3", dv[m] / K, Kd[m]))
    bounds.append(("IE4", sv[m] - cap_d, sv[m] + cap_d))
    if m == 0:
        # s_1 = d_1 and e_1 occurs on both sides; solved for e_1:
        bounds.append(("IE5", (N * dv[0] - r) / (N - 1),
                       (N * dv[0] + r) / (N + 1)))
    else:
        cap_e = (r - e[0]) / N            # (r - e_1)/N
        bounds.append(("IE5", sv[m] - cap_e, sv[m] + cap_e))
    return bounds


def _solve_new_distances(space: FiniteMetricSpace, ball: Ball, kn: KNParams,
                         pairs: Sequence[tuple[int, int]], x: int,
                         choose: Chooser, latest: list[FiniteMetricSpace],
                         ) -> tuple[list[Fraction], Fraction, list[SolveRecord]]:
    """Solve for the new point's distances e_1..e_n to the existing range.

    ``pairs`` must list the center pair first.  Constraint families:

      IE1 (j > m)   triangle against the temporary distance K*d_j
      IE2 (l < m)   triangle against the already chosen e_l
      IE3           the bilipschitz window [d_m/K, K*d_m]
      IE4           goodness seen from the domain side, |e_m - s_m| <= (r-d_1)/N
      IE5           goodness seen from the range side, |e_m - s_m| <= (r-e_1)/N
                    (for m = 1 rewritten so e_1 appears only in the middle)

    Two further caps on e_1, IE6_i = N(s_i - d_i/K) + r and
    IE7_i = N(K*d_i - s_i) + r for i > 1, are implied by IE1 and not listed.
    Let g_i = d(x_i, y_i).  The input map is certified bigood, so
    N*g_i <= r - d(c, y_i), and the m = 1 IE1 upper bound is
    IE1_i = d(c, y_i) + K*d_i.  Since d_i - g_i <= s_i <= d_i + g_i,

      IE7_i - IE1_i >= d_i(N(K-1) - K) > 0
      IE6_i - IE1_i >= d_i(N(K-1) - K^2)/K >= 0     (admissibility)

    IE1 comes first and a family wins only when strictly tighter, so neither
    cap could set an end of the interval.

    Returns the chosen vector, the distance s for the new pair, and per-m
    records of each interval's verdict.  ``choose(lo, hi)`` picks each e_m;
    a choice outside [lo, hi] raises.  Each record re-derives its bounds
    from the returned vector, which must not be mutated, and from
    ``latest[0]``, which must stay ``space`` or a workspace grown from it.
    """
    K, N, r = kn.K, kn.N, ball.radius
    n = len(pairs)
    xs = [p for p, _ in pairs]
    ys = [q for _, q in pairs]
    dv = [space.d(x, xi) for xi in xs]    # d_m = d(x, x_m)
    sv = [space.d(x, yi) for yi in ys]    # s_m = d(x, y_m)
    Kd = [K * d for d in dv]              # K*d_m
    cap_d = (r - dv[0]) / N               # (r - d_1)/N, fixed for the run
    e: list[Fraction] = []
    ctx = (space, K, N, r, ys, dv, sv, Kd, cap_d, e)
    held = (latest, K, N, r, ys, dv, sv, cap_d, e)
    records: list[SolveRecord] = []
    for m in range(n):
        bounds = _bounds(ctx, m)
        # max/min return the first extremal bound: a later family wins
        # only when strictly tighter.
        lo_family, lo, _ = max(bounds, key=itemgetter(1))
        hi_family, _, hi = min(bounds, key=itemgetter(2))
        if lo > hi:
            with as_text():
                raise InfeasibleError(
                    f"empty interval for e_{m + 1}: {lo_family} gives {lo} "
                    f"> {hi} from {hi_family}")
        chosen = choose(lo, hi)
        if not lo <= chosen <= hi:
            with as_text():
                raise InfeasibleError(
                    f"chosen e_{m + 1} = {chosen} outside [{lo}, {hi}]")
        records.append(SolveRecord(m + 1, lo, hi, lo_family, hi_family,
                                   chosen, held))
        e.append(chosen)
    cap_e = (r - e[0]) / N                # (r - e_1)/N
    s = min(min(e[i] + sv[i] for i in range(n)), cap_d, cap_e)
    return e, s, records


def _certify_seed(f: PartialMap, ball: Ball, kn: KNParams,
                  space: FiniteMetricSpace) -> None:
    """Full O(n^2) certificate of the map an extension run starts from.

    Checks that f fixes the ball center and that f is (K, N)-compliant for
    an admissible (K, N); a failure names its witness.  Every later step of
    the run proves only its new row.
    """
    if ball.center not in f.domain or f.image_of(ball.center) != ball.center:
        raise PreconditionError("map must fix the ball center")
    cert = is_compliant(f, ball, kn, space)
    good, name = cert.goodness, space.labels
    with as_text():
        if not cert.lip_ok:
            a, b = cert.lip_witness
            why = (f"stretch bound fails at ({name[a]!r}, {name[b]!r}): "
                   f"ratio {cert.lip_value} > K = {kn.K}")
        elif good.forward_slack < 0:
            why = (f"goodness bound fails at domain point "
                   f"{name[good.forward_witness]!r}: "
                   f"slack {good.forward_slack}")
        elif not good.ok:
            why = (f"goodness bound fails at range point "
                   f"{name[good.backward_witness]!r}: "
                   f"slack {good.backward_slack}")
        else:
            return
    raise PreconditionError(f"map is not (K, N)-compliant on input: {why}")


def extend_one_point(f: PartialMap, ball: Ball, kn: KNParams, x: int,
                     side: str, space: FiniteMetricSpace,
                     policy: Policy = "midpoint",
                     ) -> tuple[PartialMap, FiniteMetricSpace, ExtensionStep]:
    """Add x to the map's domain (or range), preserving compliance.

    The center must be a fixed point of the map and x must lie strictly
    inside the ball.  If x is already on the requested side the call is a
    no-op.  The new partner point is realized through a Katetov prescription
    carrying the solved distances, so the workspace grows by one point.
    The input map is certified in full (O(n^2)) before anything is solved.
    An unknown policy raises on entry, even for a no-op.
    """
    choose = chooser(policy)
    if side not in ("domain", "range"):
        raise PreconditionError(f"side must be 'domain' or 'range', got {side!r}")
    _certify_seed(f, ball, kn, space)
    return _extend_step(f, ball, kn, x, side, space, choose, [space])


def _certify_new_row(space: FiniteMetricSpace, ball: Ball, kn: KNParams,
                     pairs: Sequence[tuple[int, int]], x: int,
                     e: Sequence[Fraction], s: Fraction) -> None:
    """Exact O(n) proof that the new pair (x, y) keeps the map compliant.

    y is the point to be realized at distance e_m from y_m and s from x.
    Checked: the stretch of every new pair, the Katetov inequalities between
    x and each y_m, goodness of the new pair, and y inside the ball.  The
    Katetov inequalities between two range points are the IE2 bounds, which
    the solver's interval test has already enforced exactly.  Together with
    the certificate of the input map this certifies the extended map.

    The per-pair tests are decided on integers: with K = Kn/Kd, s = sn/sd,
    e_m = en/ed, d(x, x_m) = dn/dd and d(x, y_m) = mn/md, scaling by the
    positive denominators turns them into cross-multiplied comparisons.
    Entries are read at their exact value, whatever their type.
    """
    K, N, r = kn.K, kn.N, ball.radius
    (Kn, Kd), (sn, sd) = K.as_integer_ratio(), s.as_integer_ratio()
    labels, row = space.labels, space.dist[x]
    d1 = row[ball.center]
    for (xm, ym), em in zip(pairs, e):
        dm, sm = row[xm], row[ym]
        (dn, dd), (mn, md) = dm.as_integer_ratio(), sm.as_integer_ratio()
        en, ed = em.as_integer_ratio()
        if dn == 0:
            raise DegenerateInputError(
                f"domain points {labels[xm]!r}, {labels[x]!r} at distance 0")
        if en == 0:
            raise DegenerateInputError(
                f"image points {labels[ym]!r}, "
                f"{space.fresh_label()!r} at distance 0")
        if en * dd * Kd > Kn * dn * ed or dn * ed * Kd > Kn * en * dd:
            with as_text():
                raise PreconditionError(
                    f"new pair breaks the stretch bound against "
                    f"{labels[xm]!r}: d = {dm}, e = {em}, K = {K}")
        # When x already lies in the range this forces e_m = s at y_m = x.
        u, v, scaled = sn * ed, en * sd, mn * sd * ed
        if abs(u - v) * md > scaled or scaled > (u + v) * md:
            with as_text():
                raise PreconditionError(
                    f"not a one-point prescription on ({labels[ym]!r}, "
                    f"{labels[x]!r}): e = {em}, s = {s}, d = {sm}")
    if N * s > r - d1 or N * s > r - e[0]:
        with as_text():
            raise PreconditionError(
                f"new pair at distance {s} is not {N}-good")
    if not e[0] < r:
        with as_text():
            raise PreconditionError(
                f"new point at distance {e[0]} from the center leaves the "
                f"ball")


def _extend_step(f: PartialMap, ball: Ball, kn: KNParams, x: int, side: str,
                 space: FiniteMetricSpace, choose: Chooser,
                 latest: list[FiniteMetricSpace],
                 ) -> tuple[PartialMap, FiniteMetricSpace, ExtensionStep]:
    """``extend_one_point`` for a map already certified compliant.

    The caller vouches for f by :func:`_certify_seed`.  Only the new row is
    proved, by :func:`_certify_new_row`, so the output is certified too and
    a run of steps needs a single full certificate, of its first map.  The
    step's records read ``latest[0]``, a holder the caller may point at
    any workspace later grown from ``space``.
    """
    if not ball.strictly_inside(space, x):
        raise PreconditionError(
            f"new point {space.labels[x]!r} not strictly inside the ball")
    work = f if side == "domain" else f.inverse()
    if x in work.domain:
        return f, space, ExtensionStep(side, x, space.labels[x], True)

    center = ball.center
    pairs = [(center, center)] + [p for p in work.pairs() if p[0] != center]
    e, s, records = _solve_new_distances(space, ball, kn, pairs, x, choose,
                                         latest)
    _certify_new_row(space, ball, kn, pairs, x, e, s)
    values: dict[int, Fraction] = {yi: ei for (_, yi), ei in zip(pairs, e)}
    values[x] = s
    # The certified row is positive everywhere, so the point is new.
    grown = space.with_point(space.fresh_label(), _katetov_fill(space, values))
    y = grown.n - 1

    new_work = work.extended(x, y)
    new_map = new_work if side == "domain" else new_work.inverse()
    step = ExtensionStep(side, x, space.labels[x], False, tuple(records), s,
                         y, grown.labels[y])
    return new_map, grown, step


def _back_and_forth(f: PartialMap, ball: Ball, kn: KNParams,
                    targets: Sequence[int], space: FiniteMetricSpace,
                    choose: Chooser,
                    ) -> Iterator[tuple[PartialMap, FiniteMetricSpace,
                                        ExtensionStep]]:
    """Certify f once, then yield (map, space, step) per target and side.

    Every step's records share one holder, advanced to each new workspace,
    so a held trace pins the run's latest workspace only.
    """
    _certify_seed(f, ball, kn, space)
    latest = [space]
    for x in targets:
        for side in ("domain", "range"):
            f, space, step = _extend_step(f, ball, kn, x, side, space, choose,
                                          latest)
            latest[0] = space
            yield f, space, step


def extend_dense(f: PartialMap, ball: Ball, kn: KNParams,
                 targets: Sequence[int], space: FiniteMetricSpace,
                 policy: Policy = "midpoint",
                 ) -> tuple[PartialMap, FiniteMetricSpace, ExtensionTrace]:
    """Back-and-forth driver: put every target in both domain and range.

    Each target enters the domain first, then the range; every intermediate
    map stays (K, N)-compliant.  For targets forming a fine net this is the
    desk-scale form of extending over a totally bounded set.  The seed map
    is certified in full once, before any step; every step proves only its
    new row.  An unknown policy raises on entry, even with no targets.
    """
    choose = chooser(policy)
    trace = ExtensionTrace()
    for f, space, step in _back_and_forth(f, ball, kn, targets, space,
                                          choose):
        trace.steps.append(step)
    return f, space, trace


def verify_trace_lines(space: FiniteMetricSpace, fmap: PartialMap, ball: Ball,
                       kn: KNParams, targets: Sequence[int],
                       lines: Sequence[TraceLine]) -> tuple[bool, str]:
    """Replay a trace against its inputs, re-deriving every interval.

    The run is :func:`extend_dense`'s, with the recorded e-values as the
    choices, so any policy-consistent trace is accepted; every interval,
    chosen value, pair distance, and realized label must match the
    recomputation exactly, line by line in order.
    """
    choices = iter(lines)

    def recorded(lo: Fraction, hi: Fraction) -> Fraction:
        for ln in choices:                # the next recorded line, if any
            return ln.e
        raise PreconditionError(f"trace truncated at line {len(lines) + 1}")

    pending, done = iter(lines), 0
    try:
        for _, _, step in _back_and_forth(fmap, ball, kn, targets, space,
                                          recorded):
            for got, ln in zip(step.lines(), pending):
                done += 1
                if got != ln:
                    with as_text():
                        return False, (f"line {done}: recomputed "
                                       f"{got} != recorded {ln}")
    except (InfeasibleError, PreconditionError) as exc:
        return False, str(exc)
    if done != len(lines):
        return False, f"{len(lines) - done} unexplained trailing lines"
    return True, f"verified {done} steps"


@dataclass(frozen=True)
class GlueReport:
    """Outcome of checking f together with the identity outside the ball.

    ``glued`` is that union map and ``witness`` its worst pair, if the
    stretch exceeds K.
    """

    ok: bool
    witness: Optional[tuple[int, int]]
    pairs_checked: int
    glued: PartialMap

    def __bool__(self) -> bool:
        return self.ok


def glue_identity_check(f: PartialMap, ball: Ball, kn: KNParams,
                        space: FiniteMetricSpace) -> GlueReport:
    """Is (f union identity-outside-the-ball) K-bilipschitz over the workspace?

    The glued map is f plus the identity on every workspace point on or
    beyond the boundary; its stretch is checked exactly on every pair.
    """
    if 1 + Fraction(1) / kn.N > kn.K:
        raise PreconditionError("gluing needs 1 + 1/N <= K")
    map_in_ball(f, ball, space)
    outside = tuple(w for w in range(space.n)
                    if not ball.strictly_inside(space, w))
    glued = PartialMap(f.domain + outside, f.images + outside)
    lip_value, lip_witness = lip_details(glued, space)
    ok = lip_value <= kn.K
    return GlueReport(ok, None if ok else lip_witness,
                      len(glued) * (len(glued) - 1) // 2, glued)


@dataclass(frozen=True)
class MoveResult:
    """A small bilipschitz move of one point inside a safety ball."""

    map: PartialMap
    space: FiniteMetricSpace
    trace: ExtensionTrace
    y: Optional[int]
    ball: Optional[Ball]
    s: Fraction
    identity: bool
    d_u_y: Optional[Fraction]
    d_v_y: Optional[Fraction]


def move_point_in_ball(space: FiniteMetricSpace, x: int, r: Rational,
                       u: int, v: int, targets: Sequence[int] = ()
                       ) -> MoveResult:
    """Build a 2-bilipschitz map sending u to v, supported in B(x, r).

    Both u and v must lie strictly inside B(x, r/15).  An auxiliary point y
    is realized at distance 3s from x (s = r/15), collinearly beyond x from
    everything else; the seed map {(y,y), (u,v)} is compliant for (2, 4) in
    B(y, 12s) and is then extended over the optional targets with the
    midpoint policy.  The returned map carries identity pairs on every
    realized point outside B(y, 12s).
    """
    r = rat(r)
    if r <= 0:
        raise PreconditionError("ball radius must be positive")
    kn = kn_admissible(2, 4)
    s = r / 15
    for point in (u, v):
        if space.d(point, x) >= s:
            raise PreconditionError(
                f"point {space.labels[point]!r} not strictly inside B(x, r/15)")
    if u == v:
        fmap = PartialMap((u,), (u,))
        return MoveResult(fmap, space, ExtensionTrace(), None, None, s, True,
                          None, None)

    space, y = realize_point(space, {x: 3 * s})
    ball = Ball(y, 12 * s)
    duy, dvy = space.d(u, y), space.d(v, y)
    seed = PartialMap((y, u), (y, v))
    fmap, space, trace = extend_dense(seed, ball, kn, targets, space)
    report = glue_identity_check(fmap, ball, kn, space)
    assert report.ok
    return MoveResult(report.glued, space, trace, y, ball, s, False, duy, dvy)


def segment_transport_bound(length: Rational, r: Rational) -> tuple[int, int]:
    """Chain length and stretch bound for walking a segment in r/16 hops.

    Returns (n, Khat) with n = floor(16 * length / r) + 1 and Khat = 2**n:
    composing n many 2-bilipschitz one-step moves costs a factor 2**n.
    """
    length, r = rat(length), rat(r)
    if r <= 0:
        raise PreconditionError("tube radius must be positive")
    if length < 0:
        raise PreconditionError("segment length must be nonnegative")
    n = (16 * length / r).__floor__() + 1
    return n, 2 ** n


def affine_constants(r0: Rational, s: Rational, K: Rational
                     ) -> tuple[Fraction, Fraction, Fraction]:
    """Radii (a, b) and goodness divisor N for the two-pair move construction.

    a = min(r0/4, s/(K+1)), b = (K-1)a / ((2K-1)(K+1)), and
    N = (a - b)/(2b) collapses to exactly K^2/(K-1).
    """
    r0, s, K = rat(r0), rat(s), rat(K)
    if r0 <= 0 or s <= 0 or K <= 1:
        raise PreconditionError("need r0, s > 0 and K > 1")
    a = min(r0 / 4, s / (K + 1))
    b = (K - 1) * a / ((2 * K - 1) * (K + 1))
    N = (a - b) / (2 * b)
    assert N == K * K / (K - 1)
    return a, b, N
