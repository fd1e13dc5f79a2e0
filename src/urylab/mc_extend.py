"""One-point and net-refined extension of (beta, alpha)-bicontinuous maps.

A bijection f between finite pieces of two spaces is (beta, alpha)-
bicontinuous when alpha_inv(d(x, x')) <= d(f(x), f(x')) <= beta(d(x, x'))
for every pair.  New images are produced by the shortest-path prescription

    d(q, y) = min over z of ( d(f(z), y) + beta(d(z, p)) )

which works exactly when alpha_inv(s) + beta(t) >= alpha_inv(s + t) on the
relevant range; a small three-point instance shows the condition is not just
convenient but necessary.

The input map is certified once, pair by pair.  Realizing the new image
leaves every old distance unchanged, so the extended map is then proved on
its new pairs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .amalgam import realize_point
from .core import (FiniteMetricSpace, PartialMap, Rational, max_gap, min_sum,
                   rat, split)
from .errors import PreconditionError, as_text
from .moduli import MCSemigroup, PLFunction, require_modulus, star_condition


def _pair_violations(dd: Fraction, ee: Fraction, top: Fraction,
                     ainv: PLFunction) -> Iterator[str]:
    """Each bound of alpha_inv(dd) <= ee <= top = beta(dd) that ee breaks.

    The beta bound comes first.  This is the one test of a pair, for the
    full scan and for the new pairs alike.
    """
    if ee > top:
        with as_text():
            yield f"image distance {ee} > beta({dd}) = {top}"
    low = ainv.value(dd)
    if ee < low:
        with as_text():
            yield f"image distance {ee} < alpha_inv({dd}) = {low}"


def _not_bicontinuous(dom_space: FiniteMetricSpace, a: int, b: int,
                      msg: str) -> PreconditionError:
    return PreconditionError(
        f"map is not (beta, alpha)-bicontinuous on pair "
        f"({dom_space.labels[a]!r}, {dom_space.labels[b]!r}): {msg}")


def bicontinuity_violations(f: PartialMap, dom_space: FiniteMetricSpace,
                            rng_space: FiniteMetricSpace, alpha: PLFunction,
                            beta: PLFunction) -> list[tuple[int, int, str]]:
    """All pairs breaking alpha_inv(d) <= d(f., f.) <= beta(d), exactly."""
    ainv = alpha.inverse()
    out = []
    for (a, fa), (b, fb) in combinations(f.pairs(), 2):
        dd = dom_space.d(a, b)
        out += [(a, b, msg) for msg in _pair_violations(
            dd, rng_space.d(fa, fb), beta.value(dd), ainv)]
    return out


def require_bicontinuous(f: PartialMap, dom_space: FiniteMetricSpace,
                         rng_space: FiniteMetricSpace, alpha: PLFunction,
                         beta: PLFunction) -> None:
    bad = bicontinuity_violations(f, dom_space, rng_space, alpha, beta)
    if bad:
        raise _not_bicontinuous(dom_space, *bad[0])


def _caps(f: PartialMap, dom_space: FiniteMetricSpace, beta: PLFunction,
          p: int) -> list[Fraction]:
    """beta(d(z, p)) for each z of f, in domain order: the upper bound on
    d(f(z), q), read by both the prescription and the new-pair check."""
    return [beta.value(dom_space.d(z, p)) for z in f.domain]


def _require_new_pairs(f: PartialMap, dom_space: FiniteMetricSpace,
                       rng_space: FiniteMetricSpace, alpha: PLFunction,
                       caps: Sequence[Fraction], p: int, q: int) -> None:
    """Raise as require_bicontinuous would on f extended by p -> q.

    f must be certified bicontinuous already, on distances that rng_space
    keeps, and caps must be _caps(f, dom_space, beta, p).  Only the new
    pairs (z, p) can then fail, and the full scan of the extended map meets
    them in the domain order of z, after every old pair, so the first
    failing one gives the full scan's text.
    """
    ainv = alpha.inverse()
    for (z, fz), top in zip(f.pairs(), caps):
        for msg in _pair_violations(dom_space.d(z, p), rng_space.d(fz, q),
                                    top, ainv):
            raise _not_bicontinuous(dom_space, z, p, msg)


def _certify_input(f: PartialMap, dom_space: FiniteMetricSpace,
                   rng_space: FiniteMetricSpace, alpha: PLFunction,
                   beta: PLFunction, p: int, box: Fraction) -> None:
    """Raise unless a new image for p can be prescribed from f.

    Checked in this order: both moduli valid, p outside dom(f), f nonempty
    and bicontinuous, and alpha_inv(s) + beta(t) >= alpha_inv(s + t) on
    [0, box]^2.
    """
    require_modulus(alpha, "alpha")
    require_modulus(beta, "beta")
    if p in f.domain:
        raise PreconditionError("new point already in the domain")
    if not f.domain:
        raise PreconditionError("cannot extend an empty map")
    require_bicontinuous(f, dom_space, rng_space, alpha, beta)
    hit = star_condition(alpha, beta, box)
    if hit is not None:
        s, t, lhs, rhs = hit[:4]
        with as_text():
            raise PreconditionError(
                f"moduli fail alpha_inv(s)+beta(t) >= alpha_inv(s+t) at "
                f"(s, t) = ({s}, {t}): {lhs} < {rhs}; with such moduli a "
                f"new image is obstructed by the triangle inequality "
                f"between the upper bound through one point and the lower "
                f"bound through another")


def _prescribe(f: PartialMap, rng_space: FiniteMetricSpace,
               caps: Sequence[Fraction]) -> dict[int, Fraction]:
    """d(q, y) = min over z of d(f(z), y) + beta(d(z, p)), for y in f's images.

    caps[i] is beta(d(z, p)) for the i-th domain point z of f (see
    :func:`_caps`).  Prescribed on the images only; realize_point completes
    the rest by the same shortest-path rule, which by the triangle
    inequality gives the minimum over z at every other range point too.
    """
    reach = split(rng_space.dist, dict(zip(f.images, caps)))
    return dict(zip(f.images, min_sum(reach, f.images)))


@dataclass(frozen=True)
class McExtension:
    map: PartialMap
    rng_space: FiniteMetricSpace
    q: int


def extend_one_point_mc(f: PartialMap, dom_space: FiniteMetricSpace,
                        rng_space: FiniteMetricSpace, alpha: PLFunction,
                        beta: PLFunction, p: int,
                        bound: Rational = 0) -> McExtension:
    """Realize an image q for the new domain point p via the shortest-path rule.

    Preconditions are checked exactly by :func:`_certify_input`, on a box
    covering the domain diameter (or the given larger ``bound``); that
    certifies every pair of the input map once.  Realizing q changes no old
    distance, so only the new pairs (z, p) are then proved.
    """
    _certify_input(f, dom_space, rng_space, alpha, beta, p,
                   max(rat(bound), dom_space.diameter()))

    caps = _caps(f, dom_space, beta, p)
    grown, q = realize_point(rng_space, _prescribe(f, rng_space, caps))
    new_map = f.extended(p, q)
    _require_new_pairs(f, dom_space, grown, alpha, caps, p, q)
    return McExtension(new_map, grown, q)


@dataclass(frozen=True)
class ObstructionCertificate:
    """Exact witness that no image point can exist for an incompatible pair.

    Any q would need d(q, y0) <= beta(t) and d(q, y1) >= alpha_inv(s + t)
    while d(y0, y1) = alpha_inv(s); the triangle inequality then forces
    alpha_inv(s + t) <= beta(t) + alpha_inv(s), which ``lhs > rhs`` refutes.
    """

    s: Fraction
    t: Fraction
    lhs: Fraction            # alpha_inv(s + t), floor on d(q, y1)
    rhs: Fraction            # beta(t) + alpha_inv(s)
    upper_bound: Fraction    # beta(t), cap on d(q, y0)
    range_gap: Fraction      # alpha_inv(s) = d(y0, y1)

    @property
    def ok(self) -> bool:
        return self.lhs > self.rhs


@dataclass(frozen=True)
class CounterexampleBundle:
    dom_space: FiniteMetricSpace
    rng_space: FiniteMetricSpace
    certificate: ObstructionCertificate


def necessity_counterexample(alpha: PLFunction, beta: PLFunction,
                             s: Rational, t: Rational) -> CounterexampleBundle:
    """Build the three-point instance showing the star condition is necessary.

    Domain {x0, x1, p} with d(x0, x1) = s, d(p, x0) = t, d(p, x1) = s + t;
    range {y0, y1} at distance alpha_inv(s); f(x_i) = y_i.  Requires
    alpha_inv <= beta near zero (otherwise no bicontinuous map exists at any
    scale) and a genuine failure alpha_inv(s) + beta(t) < alpha_inv(s + t)
    at the given point.
    """
    require_modulus(alpha, "alpha")
    require_modulus(beta, "beta")
    s, t = rat(s), rat(t)
    if s <= 0 or t <= 0:
        raise PreconditionError("need s, t > 0")
    ainv = alpha.inverse()
    if ainv.first_slope > beta.first_slope:
        raise PreconditionError(
            "alpha_inv exceeds beta near 0; no bicontinuous map exists at "
            "any scale for this pair")
    gap, cap = ainv.value(s), beta.value(t)
    cert = ObstructionCertificate(s=s, t=t, lhs=ainv.value(s + t),
                                  rhs=cap + gap, upper_bound=cap,
                                  range_gap=gap)
    if not cert.ok:
        raise PreconditionError(
            f"the star condition actually holds at ({s}, {t})")

    dom = FiniteMetricSpace.from_rows(
        ("x0", "x1", "p"),
        ((0, s, t), (s, 0, s + t), (t, s + t, 0)))
    rng = FiniteMetricSpace.from_rows(("y0", "y1"), ((0, gap), (gap, 0)))
    return CounterexampleBundle(dom, rng, cert)


@dataclass(frozen=True)
class NetLevel:
    n: int
    net: tuple[int, ...]
    q: int
    gap: Optional[Fraction]          # d(q_{n-1}, q_n); None at level 0
    gap_bound: Optional[Fraction]    # 2^(-(n-1)+1)


@dataclass(frozen=True)
class NetRefinement:
    levels: tuple[NetLevel, ...]
    rng_space: FiniteMetricSpace
    q: int


def extend_totally_bounded(f: PartialMap, dom_space: FiniteMetricSpace,
                           rng_space: FiniteMetricSpace, alpha: PLFunction,
                           beta: PLFunction, p: int,
                           nets: Sequence[Sequence[int]],
                           eps: Sequence[Rational]) -> NetRefinement:
    """Image of a new point through successively finer nets of the domain.

    nets[n] must be an eps[n]-net of dom(f) (strictly: every domain point
    within < eps[n] of the net) with beta(eps[n]) <= 2^-n, and the nets must
    form a chain.  Level n realizes q_n for f restricted to nets[n]; q_{n+1}
    is attached to q_n by minimal amalgamation, with the exact gap bound
    d(q_n, q_{n+1}) < 2^(-n+1).  The input is certified once by
    :func:`_certify_input` on a box covering the domain diameter, and each
    level's map is then proved bicontinuous on its new pairs (z, p), z in
    that level's net, so the final level's map is bicontinuous on the
    deepest net, exactly.
    """
    _certify_input(f, dom_space, rng_space, alpha, beta, p,
                   dom_space.diameter())
    if not nets or len(nets) != len(eps):
        raise PreconditionError("need one epsilon per net")

    image = dict(f.pairs())
    nets = [tuple(net) for net in nets]
    eps = [rat(ep) for ep in eps]
    for n, (net, ep) in enumerate(zip(nets, eps)):
        if not net:
            raise PreconditionError(f"net {n} is empty")
        if len(set(net)) != len(net):
            raise PreconditionError(f"net {n} lists a point twice")
        if any(z not in f.domain for z in net):
            raise PreconditionError(f"net {n} is not a subset of the domain")
        if n > 0 and not set(nets[n - 1]) <= set(net):
            raise PreconditionError(f"net {n} does not refine net {n - 1}")
        if beta.value(ep) > Fraction(1, 2 ** n):
            with as_text():
                raise PreconditionError(
                    f"beta(eps_{n}) = {beta.value(ep)} > 2^-{n}")
        for x in f.domain:
            if all(dom_space.d(x, z) >= ep for z in net):
                with as_text():
                    raise PreconditionError(
                        f"net {n} leaves {dom_space.labels[x]!r} uncovered "
                        f"at scale {ep}")

    levels: list[NetLevel] = []
    q_prev: Optional[int] = None
    for n, net in enumerate(nets):
        net_map = PartialMap(net, tuple(image[z] for z in net))
        caps = _caps(net_map, dom_space, beta, p)
        values = _prescribe(net_map, rng_space, caps)
        gap = gap_bound = None
        if q_prev is not None:
            [gap] = max_gap(split(rng_space.dist, values), (q_prev,))
            gap_bound = Fraction(2) ** (2 - n)
            assert gap < gap_bound
            values[q_prev] = gap
        rng_space, q = realize_point(rng_space, values)
        # level map bicontinuous on net union {p}:
        _require_new_pairs(net_map, dom_space, rng_space, alpha, caps, p, q)
        levels.append(NetLevel(n, net, q, gap, gap_bound))
        q_prev = q
    return NetRefinement(tuple(levels), rng_space, q_prev)


# The most points a separation witness may have.  At depth 256 and one
# generator, `urylab witness` builds its 513 points in about 0.5 s and 40 MB
# (Python 3.11.7).
_WITNESS_POINTS = 513


@dataclass(frozen=True)
class ScaleCheck:
    generator: int
    t: Fraction
    gamma_value: Fraction
    generator_value: Fraction

    @property
    def ok(self) -> bool:
        return self.gamma_value > self.generator_value


@dataclass(frozen=True)
class WitnessCertificate:
    scale_checks: tuple[ScaleCheck, ...]
    bicontinuity_ok: bool
    pairs_checked: int

    @property
    def ok(self) -> bool:
        return self.bicontinuity_ok and all(c.ok for c in self.scale_checks)


@dataclass(frozen=True)
class SeparationWitness:
    map: PartialMap
    space: FiniteMetricSpace
    certificate: WitnessCertificate


def separation_witness(gamma: PLFunction, delta: MCSemigroup,
                       depth: int) -> SeparationWitness:
    """A finite map (2*gamma)-bicontinuous but beating every generator near 0.

    The space is the star metric d(a, b) = r_a + r_b on x (r = 0) and, for
    each chosen small scale t in descending order, x_j (r = t) and y_j
    (r = gamma(t)), labeled x, q1, q2, ...: every point hangs off x alone.
    Both certificates are exact and read the space: d(y_j, x) >
    delta_i(d(x_j, x)) at each chosen scale, while the map x_j -> y_j,
    x -> x stays (2*gamma)-bicontinuous on every pair.  Requires gamma to
    exceed each generator on arbitrarily small arguments, which for PL data
    is a first-slope comparison.  A witness of more than 513 points is
    refused before its space is built.
    """
    require_modulus(gamma, "gamma")
    bad = delta.validate()
    if bad:
        raise PreconditionError(f"invalid generating set: {bad[0]}")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    for i, gen in enumerate(delta.generators):
        if gamma.first_slope <= gen.first_slope:
            with as_text():
                raise PreconditionError(
                    f"gamma is dominated near 0 by generator {i} "
                    f"(slope {gamma.first_slope} <= {gen.first_slope})")

    def first_knot(fn: PLFunction) -> Optional[Fraction]:
        return fn.breakpoints[1][0] if len(fn.breakpoints) > 1 else None

    # scale -> generators certified at that scale
    chosen: dict[Fraction, list[int]] = {}
    # a lower bound, refused before any scale is drawn: each generator
    # alone chooses depth distinct scales
    points = 1 + 2 * depth
    if points <= _WITNESS_POINTS:
        for i, gen in enumerate(delta.generators):
            knots = [k for k in (first_knot(gamma), first_knot(gen))
                     if k is not None]
            top = min(knots) if knots else Fraction(1)
            for j in range(1, depth + 1):
                chosen.setdefault(top / 2 ** j, []).append(i)
        points = 1 + 2 * len(chosen)
    if points > _WITNESS_POINTS:
        raise PreconditionError(f"a witness of depth {depth} needs more "
                                f"than {_WITNESS_POINTS} points")

    scales = sorted(chosen, reverse=True)
    radii = [Fraction(0)] + [r for t in scales for r in (t, gamma.value(t))]
    n = len(radii)
    # each distance is built once, and both of its entries hold it
    rows = [[ra + rb for rb in radii[:a]] + [0] for a, ra in enumerate(radii)]
    for a, row in enumerate(rows):
        row += [rows[b][a] for b in range(a + 1, n)]
    space = FiniteMetricSpace.from_rows(
        ("x",) + tuple(f"q{k}" for k in range(1, n)), rows)
    fmap = PartialMap((0,) + tuple(range(1, n, 2)), tuple(range(0, n, 2)))
    checks = [ScaleCheck(i, space.d(xj, 0), space.d(yj, 0),
                         delta.generators[i].value(space.d(xj, 0)))
              for xj, yj, t in zip(fmap.domain[1:], fmap.images[1:], scales)
              for i in chosen[t]]
    two_gamma = gamma.scale(2)
    violations = bicontinuity_violations(fmap, space, space, two_gamma,
                                         two_gamma)
    cert = WitnessCertificate(tuple(checks), not violations,
                              len(fmap) * (len(fmap) - 1) // 2)
    assert cert.ok or depth == 0
    return SeparationWitness(fmap, space, cert)
