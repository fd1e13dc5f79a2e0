"""Seeded instance generators and deterministic fuzz campaigns.

Everything here is driven by a `random.Random` with an explicit seed, so a
campaign's report is byte-identical across runs.  Distances come out with
small denominators to keep exact arithmetic quick.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .amalgam import (POLICIES, _katetov_fill, amalgamate,
                      checked_prescription, realize_point)
from .bilip import (Ball, KNParams, extend_one_point, is_compliant,
                    kn_admissible)
from .core import (FiniteMetricSpace, PartialMap, min_sum, rat, split,
                   validate_space)
from .errors import PreconditionError, as_text
from .groupmetric import AutoMap, dist_L, dist_S
from .mc_extend import extend_one_point_mc
from .moduli import PLFunction, compatible, is_modulus


def _grid_ends(lo: tuple[int, int], hi: tuple[int, int],
               den: int) -> tuple[int, int]:
    """(ceil(lo*den), floor(hi*den)): the numerators over den in [lo, hi].

    lo and hi are integer pairs (n, d) with d > 0, as ``as_integer_ratio``
    gives them.  Rounded by integer floor division; the range is empty when
    b < a.
    """
    (ln, ld), (hn, hd) = lo, hi
    return -(-ln * den // ld), hn * den // hd


def rand_fraction(rng: random.Random, lo, hi, den: int = 16) -> Fraction:
    """Uniform-ish rational in [lo, hi] with denominator dividing den.

    Returns lo itself when no multiple of 1/den lies in [lo, hi].
    """
    lo, hi = rat(lo), rat(hi)
    a, b = _grid_ends(lo.as_integer_ratio(), hi.as_integer_ratio(), den)
    if b < a:
        return lo
    return Fraction(rng.randrange(a, b + 1), den)


def line_space(positions: Sequence, labels: Optional[Sequence[str]] = None
               ) -> FiniteMetricSpace:
    """Points on a line; distances are absolute coordinate differences."""
    pos = [rat(p) for p in positions]
    labels = tuple(labels) if labels else tuple(f"p{i}" for i in range(len(pos)))
    rows = [[abs(a - b) for b in pos] for a in pos]
    return FiniteMetricSpace.from_rows(labels, rows)


def random_space(rng: random.Random, n: int,
                 den: int = 8) -> FiniteMetricSpace:
    """Shortest-path closure of a random complete weighted graph.

    Each weight is ``rand_fraction(rng, 4/den, 4, den)``, drawn as its int
    numerator in [4, 4*den] over den.  The closure runs on those ints, and
    at the end one Fraction is built per distinct value, shared by every
    entry that holds it.  A den < 1 raises PreconditionError before any
    draw.
    """
    if den < 1:
        raise PreconditionError(f"den must be at least 1, got {den}")
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(4, 4 * den)
    for k in range(n):
        for i in range(n):
            di, dk = d[i], d[k]
            dik = di[k]
            d[i] = [x if x <= (c := dik + y) else c for x, y in zip(di, dk)]
    over = {v: Fraction(v, den) for v in set().union(*d)}
    return FiniteMetricSpace.from_rows(
        tuple(f"p{i}" for i in range(n)), [[over[v] for v in row] for row in d])


_SIXTEENTH = Fraction(1, 16)
_FIFTEEN_SIXTEENTHS = Fraction(15, 16)


def random_point_in_ball(rng: random.Random, space: FiniteMetricSpace,
                         ball: Ball) -> tuple[FiniteMetricSpace, int]:
    """Realize a fresh point strictly inside the ball.

    Tries a two-anchor Katetov prescription a few times, then falls back to
    a collinear point hung off the center, which always lands inside.  Both
    radii are drawn as ``rand_fraction`` draws them, on integer grid ends:
    rho_a = an/16 with an in [1, floor(16r)] (1/16 when that is empty), and,
    with d(a, b) = dn/dd, rho_b = k/16 with k in
    [ceil(|an*dd - 16*dn| / dd), floor((an*dd + 16*dn) / dd)], or the low
    end |rho_a - d(a, b)| itself when that is empty.  A try is decided by
    the new point's distance to the center alone, so only the accepted try
    fills a row.
    """
    center, r = ball.center, ball.radius
    a_lo, a_hi = _grid_ends((1, 16), r.as_integer_ratio(), 16)
    for _ in range(3):
        if space.n < 2:
            break
        a, b = rng.sample(range(space.n), 2)
        if a_lo <= a_hi:
            an = rng.randrange(a_lo, a_hi + 1)
            rho_a = Fraction(an, 16)
        else:
            an, rho_a = 1, _SIXTEENTH
        # rho_b's interval ends as integer pairs over 16*dd
        dn, dd = space.d(a, b).as_integer_ratio()
        ln, hn, q = abs(an * dd - 16 * dn), an * dd + 16 * dn, 16 * dd
        b_lo, b_hi = _grid_ends((ln, q), (hn, q), 16)
        if b_lo <= b_hi:
            bn, bd = rng.randrange(b_lo, b_hi + 1), 16
        else:
            bn, bd = ln, q
        if bn <= 0:
            continue
        rho_b = Fraction(bn, bd)
        # rho_b lies in [|rho_a - d(a, b)|, rho_a + d(a, b)], so on a metric
        # space the check passes and the filled row is positive; a non-metric
        # space may fail the check, or fill an entry that with_point refuses.
        vals = checked_prescription(space, {a: rho_a, b: rho_b})
        to_center = (vals[center] if center in vals else
                     min_sum(split(space.dist, vals), (center,))[0])
        if to_center < r:
            full = _katetov_fill(space, vals)
            return space.with_point(space.fresh_label(), full), space.n
    rho = rand_fraction(rng, r / 32, r * _FIFTEEN_SIXTEENTHS)
    return realize_point(space, {center: rho})


def random_kn(rng: random.Random) -> KNParams:
    """Admissible (K, N) with K in (1, 3] and N at least K^2/(K-1)."""
    K = 1 + rand_fraction(rng, Fraction(1, 8), 2, 8)
    N = K * K / (K - 1) + rand_fraction(rng, 0, 3, 4)
    kn = kn_admissible(K, N)
    assert kn.admissible
    return kn


def random_compliant_instance(rng: random.Random, grow: int = 3,
                              policy: Optional[str] = None
                              ) -> tuple[FiniteMetricSpace, PartialMap, Ball, KNParams]:
    """A compliant map fixing the ball center, grown by random extensions.

    Starting from the identity on the center, up to ``grow`` random points
    enter the domain or range, so the result is compliant by construction
    and exercises varied interval geometry.
    """
    kn = random_kn(rng)
    r = rand_fraction(rng, 4, 12, 4)
    space = FiniteMetricSpace.from_rows(("x1",), ((0,),))
    ball = Ball(0, r)
    f = PartialMap((0,), (0,))
    for _ in range(grow):
        space, x = random_point_in_ball(rng, space, ball)
        side = rng.choice(("domain", "range"))
        pol = policy or rng.choice(POLICIES)
        f, space, _ = extend_one_point(f, ball, kn, x, side, space, pol)
    return space, f, ball, kn


def random_outside_points(rng: random.Random, space: FiniteMetricSpace,
                          ball: Ball, count: int) -> FiniteMetricSpace:
    """Realize ``count`` points on or beyond the ball boundary."""
    center, r = ball.center, ball.radius
    for _ in range(count):
        rho = r + rand_fraction(rng, 0, r, 8)
        anchor = rng.randrange(space.n)
        dac = space.d(anchor, center)
        space, _ = realize_point(space, {anchor: rho + dac, center: rho})
    return space


def random_permutation_map(rng: random.Random,
                           space: FiniteMetricSpace) -> AutoMap:
    images = list(range(space.n))
    rng.shuffle(images)
    return AutoMap(space, tuple(images))


# an int numerator over den as a Fraction, built once per grid value
_over = functools.lru_cache(maxsize=None)(Fraction)


def random_modulus(rng: random.Random, pieces: int = 3) -> PLFunction:
    """Random concave increasing PL bijection of [0, oo) starting at (0, 0).

    Slopes are k/8 with k in [1, 32] and widths k/8 with k in [1, 16], drawn
    as ``rand_fraction`` draws them; breakpoints accumulate as ints over 8
    and 64, and ``_over`` turns each into a Fraction shared by every draw;
    the grid holds few values, so a draw mostly builds none.  A pieces < 1
    raises PreconditionError before any draw.
    """
    if pieces < 1:
        raise PreconditionError(f"pieces must be at least 1, got {pieces}")
    k = rng.randrange(1, pieces + 1)
    slopes = sorted((rng.randrange(1, 33) for _ in range(k + 1)),
                    reverse=True)
    pts = [(_over(0), _over(0))]
    t = v = 0
    for s in slopes[:-1]:
        width = rng.randrange(1, 17)
        t += width
        v += s * width
        pts.append((_over(t, 8), _over(v, 64)))
    m = PLFunction(tuple(pts), _over(slopes[-1], 8))
    assert is_modulus(m)
    return m


def random_compatible_pair(rng: random.Random
                           ) -> tuple[PLFunction, PLFunction]:
    """A modulus pair (alpha, beta) that is compatible by construction.

    Concavity makes f(t)/t shrink toward the tail slope, so the whole
    two-sided condition reduces to tail_slope(alpha) * tail_slope(beta) >= 1;
    beta is rescaled until that product clears 1.
    """
    alpha = random_modulus(rng)
    beta = random_modulus(rng)
    need = 1 / alpha.final_slope
    if beta.final_slope < need:
        beta = beta.scale(need / beta.final_slope)
    report = compatible(alpha, beta)
    assert report.ok
    return alpha, beta


def random_bicontinuous_instance(rng: random.Random, n: int = 4
                                 ) -> tuple:
    """(alpha, beta, f, dom_space, rng_space) bicontinuous by construction.

    The range is the domain rescaled by a factor chosen inside the window
    every pair allows, so bicontinuity holds with slack.
    """
    alpha, beta = random_compatible_pair(rng)
    dom = random_space(rng, n)
    ainv = alpha.inverse()
    lam_lo = Fraction(0)
    lam_hi = None
    for i in range(n):
        for j in range(i + 1, n):
            dd = dom.d(i, j)
            lam_lo = max(lam_lo, ainv.value(dd) / dd)
            cap = beta.value(dd) / dd
            lam_hi = cap if lam_hi is None else min(lam_hi, cap)
    if lam_hi is None:
        lam = Fraction(1)
    elif lam_lo > lam_hi:
        raise PreconditionError("no uniform scale fits the moduli window")
    else:
        lam = lam_lo + (lam_hi - lam_lo) * Fraction(rng.randint(0, 4), 4)
    rows = [[lam * dom.d(i, j) for j in range(n)] for i in range(n)]
    rng_space = FiniteMetricSpace.from_rows(
        tuple(f"y{i}" for i in range(n)), rows)
    f = PartialMap(tuple(range(n)), tuple(range(n)))
    return alpha, beta, f, dom, rng_space


# --- deterministic campaigns (used by the CLI fuzz subcommand) -------------

def _amalgam_cases(rng: random.Random) -> Iterator[tuple[str, bool]]:
    while True:
        space = random_space(rng, rng.randint(3, 6))
        ball = Ball(0, space.diameter() + 1)
        space, _ = random_point_in_ball(rng, space, ball)
        other = random_space(rng, rng.randint(2, 4))
        other = FiniteMetricSpace(
            (space.labels[0],) + tuple(f"m{j}" for j in range(1, other.n)),
            other.dist)
        policy = rng.choice(("minimal", "midpoint", "maximal"))
        merged = amalgamate(space, other, policy=policy)
        yield f"merged={merged.n}", validate_space(merged).ok


def _bilip_cases(rng: random.Random) -> Iterator[tuple[str, bool]]:
    while True:
        space, f, ball, kn = random_compliant_instance(rng, grow=3)
        cert = is_compliant(f, ball, kn, space)
        with as_text():
            text = f"pairs={len(f)} lip={cert.lip_value}"
        yield text, cert.ok


def _mc_cases(rng: random.Random) -> Iterator[tuple[str, bool]]:
    while True:
        alpha, beta, f, dom, rng_space = random_bicontinuous_instance(rng)
        ball = Ball(0, dom.diameter() + 1)
        dom, p = random_point_in_ball(rng, dom, ball)
        ext = extend_one_point_mc(f, dom, rng_space, alpha, beta, p)
        yield f"q={ext.rng_space.labels[ext.q]}", True


def _group_cases(rng: random.Random) -> Iterator[tuple[str, bool]]:
    space = random_space(rng, 8)
    while True:
        f, g, h = (random_permutation_map(rng, space) for _ in range(3))
        lhs = dist_S(f, h)
        triangle = lhs <= dist_S(f, g) + dist_S(g, h)
        invariant = dist_L(h.compose(f), h.compose(g)) == dist_L(f, g)
        with as_text():
            text = f"dS={lhs}"
        yield text, triangle and invariant


# suite -> its cases: (text, ok) per case from the seeded rng, without end
CAMPAIGNS = {
    "amalgam": _amalgam_cases,
    "bilip": _bilip_cases,
    "mc": _mc_cases,
    "group": _group_cases,
}


def campaign(suite: str, seed: int, count: int) -> tuple[list[str], bool]:
    """A header, one ``i=<k> ... ok=<bool>`` line per case, and the verdict.

    Cases are drawn until ``count`` or the first failing case, not past it.
    """
    with as_text():
        lines = [f"suite={suite} seed={seed} count={count}"]
    cases = CAMPAIGNS[suite](random.Random(seed))
    for i, (text, ok) in zip(range(count), cases):
        lines.append(f"i={i} {text} ok={str(ok).lower()}")
        if not ok:
            return lines, False
    return lines, True
