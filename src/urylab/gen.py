"""Seeded instance generators and deterministic fuzz campaigns.

Everything here is driven by a `random.Random` with an explicit seed, so a
campaign's report is byte-identical across runs.  Distances come out with
small denominators to keep exact arithmetic quick.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from .amalgam import katetov_extend, realize_point
from .bilip import (Ball, KNParams, extend_one_point, is_compliant,
                    kn_admissible)
from .core import FiniteMetricSpace, PartialMap, rat
from .errors import PreconditionError
from .groupmetric import AutoMap, dist_L, dist_S
from .moduli import PLFunction, compatible, is_modulus, linear

POLICIES = ("midpoint", "minimal", "maximal")


def rand_fraction(rng: random.Random, lo, hi, den: int = 16) -> Fraction:
    """Uniform-ish rational in [lo, hi] with denominator dividing den.

    Returns lo itself when no multiple of 1/den lies in [lo, hi].
    """
    lo, hi = rat(lo), rat(hi)
    a = -(-lo.numerator * den // lo.denominator)
    b = hi.numerator * den // hi.denominator
    if b < a:
        return lo
    return Fraction(rng.randint(a, b), den)


def line_space(positions: Sequence, labels: Optional[Sequence[str]] = None
               ) -> FiniteMetricSpace:
    """Points on a line; distances are absolute coordinate differences."""
    pos = [rat(p) for p in positions]
    labels = tuple(labels) if labels else tuple(f"p{i}" for i in range(len(pos)))
    rows = [[abs(a - b) for b in pos] for a in pos]
    return FiniteMetricSpace.from_rows(labels, rows)


def random_space(rng: random.Random, n: int, scale=4,
                 den: int = 8) -> FiniteMetricSpace:
    """Shortest-path closure of a random complete weighted graph.

    The closure runs on ints over q, the lcm of the weights' denominators.
    """
    scale = rat(scale)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rand_fraction(rng, scale / den, scale, den)
            d[i][j] = d[j][i] = w
    q = math.lcm(*(v.denominator for row in d for v in row))
    d = [[v.numerator * (q // v.denominator) for v in row] for row in d]
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            d[i] = list(map(min, d[i], [dik + x for x in d[k]]))
    return FiniteMetricSpace.from_rows(
        tuple(f"p{i}" for i in range(n)),
        [[Fraction(v, q) for v in row] for row in d])


def random_point_in_ball(rng: random.Random, space: FiniteMetricSpace,
                         ball: Ball) -> tuple[FiniteMetricSpace, int]:
    """Realize a fresh point strictly inside the ball.

    Tries a two-anchor Katetov prescription a few times, then falls back to
    a collinear point hung off the center, which always lands inside.
    """
    center, r = ball.center, ball.radius
    for _ in range(3):
        if space.n < 2:
            break
        a, b = rng.sample(range(space.n), 2)
        rho_a = rand_fraction(rng, Fraction(1, 16), r)
        dab = space.d(a, b)
        lo, hi = abs(rho_a - dab), rho_a + dab
        rho_b = rand_fraction(rng, lo, hi)
        if rho_b <= 0:
            continue
        # rho_b lies in [lo, hi], so the prescription is valid; both values
        # are positive, so the filled row is too.
        full = katetov_extend(space, {a: rho_a, b: rho_b})
        if full[center] < r:
            return space.with_point(space.fresh_label(), full), space.n
    rho = rand_fraction(rng, r / 32, r * Fraction(15, 16))
    if rho <= 0 or rho >= r:
        rho = r / 2
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


def random_permutation_map(rng: random.Random, space: FiniteMetricSpace,
                           basepoint: int = 0) -> AutoMap:
    images = list(range(space.n))
    rng.shuffle(images)
    return AutoMap(space, tuple(images), basepoint)


def random_modulus(rng: random.Random, pieces: int = 3, den: int = 8,
                   slope_hi: int = 4) -> PLFunction:
    """Random concave increasing PL bijection of [0, oo) starting at (0, 0).

    Slopes and widths are drawn as numerators over ``den``, as
    ``rand_fraction`` draws them; breakpoints accumulate as ints over den
    and den**2.
    """
    k = rng.randint(1, pieces)
    top = slope_hi * den
    slopes = sorted((rng.randint(1, top) if top >= 1 else 1
                     for _ in range(k + 1)), reverse=True)
    pts = [(Fraction(0), Fraction(0))]
    t = v = 0
    for s in slopes[:-1]:
        width = rng.randint(1, 2 * den)
        t += width
        v += s * width
        pts.append((Fraction(t, den), Fraction(v, den * den)))
    m = PLFunction(tuple(pts), Fraction(slopes[-1], den))
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

def campaign_amalgam(seed: int, count: int) -> list[str]:
    from .amalgam import amalgamate
    from .core import validate_space
    out = [f"suite=amalgam seed={seed} count={count}"]
    rng = random.Random(seed)
    for i in range(count):
        space = random_space(rng, rng.randint(3, 6))
        ball = Ball(0, space.diameter() + 1)
        space, _ = random_point_in_ball(rng, space, ball)
        other = random_space(rng, rng.randint(2, 4))
        other = FiniteMetricSpace(
            (space.labels[0],) + tuple(f"m{j}" for j in range(1, other.n)),
            other.dist)
        merged = amalgamate(space, other,
                            policy=rng.choice(("minimal", "midpoint",
                                               "maximal")))
        ok = validate_space(merged).ok
        out.append(f"i={i} merged={merged.n} ok={str(ok).lower()}")
        if not ok:
            break
    return out


def campaign_bilip(seed: int, count: int) -> list[str]:
    out = [f"suite=bilip seed={seed} count={count}"]
    rng = random.Random(seed)
    for i in range(count):
        space, f, ball, kn = random_compliant_instance(rng, grow=3)
        cert = is_compliant(f, ball, kn, space)
        out.append(f"i={i} pairs={len(f)} lip={cert.lip_value} "
                   f"ok={str(cert.ok).lower()}")
        if not cert.ok:
            break
    return out


def campaign_mc(seed: int, count: int) -> list[str]:
    from .mc_extend import extend_one_point_mc
    out = [f"suite=mc seed={seed} count={count}"]
    rng = random.Random(seed)
    for i in range(count):
        alpha, beta, f, dom, rng_space = random_bicontinuous_instance(rng)
        ball = Ball(0, dom.diameter() + 1)
        dom, p = random_point_in_ball(rng, dom, ball)
        ext = extend_one_point_mc(f, dom, rng_space, alpha, beta, p)
        out.append(f"i={i} q={ext.q_label} ok=true")
    return out


def campaign_group(seed: int, count: int) -> list[str]:
    out = [f"suite=group seed={seed} count={count}"]
    rng = random.Random(seed)
    space = random_space(rng, 8)
    for i in range(count):
        f = random_permutation_map(rng, space)
        g = random_permutation_map(rng, space)
        h = random_permutation_map(rng, space)
        lhs = dist_S(f, h)
        rhs = dist_S(f, g) + dist_S(g, h)
        li = dist_L(h.compose(f), h.compose(g)) == dist_L(f, g)
        ok = lhs <= rhs and li
        out.append(f"i={i} dS={lhs} ok={str(ok).lower()}")
        if not ok:
            break
    return out


CAMPAIGNS = {
    "amalgam": campaign_amalgam,
    "bilip": campaign_bilip,
    "mc": campaign_mc,
    "group": campaign_group,
}
