"""Independent oracles shared by the test modules.

Everything here restates the checked properties from scratch (no reuse of
the solver's interval code), so library and oracle stay two separate routes
to the same answers.
"""

import math
import random
from fractions import Fraction
from fractions import Fraction as F
from typing import Optional, Sequence

from urylab.amalgam import katetov_extend, realize_point
from urylab.bilip import KNParams
from urylab.core import (Ball, FiniteMetricSpace, PartialMap, ValidationReport,
                         Violation, rat)
from urylab.errors import (DegenerateInputError, PreconditionError,
                           StructuralError, as_text)
from urylab.gen import rand_fraction
from urylab.mc_extend import (ScaleCheck, SeparationWitness,
                              WitnessCertificate, bicontinuity_violations)
from urylab.moduli import MCSemigroup, PLFunction, is_modulus, require_modulus


def feasible_e(space, ball, K, N, pairs, x, prior_e, m, candidate):
    """Direct check of every inequality on e_m, stated raw.

    ``pairs`` is the center-first pair list, ``prior_e`` the already fixed
    e_1..e_{m-1} (m is 0-based here).
    """
    r = ball.radius
    xs = [p for p, _ in pairs]
    ys = [q for _, q in pairs]
    d = [space.d(x, xi) for xi in xs]
    s = [space.d(x, yi) for yi in ys]
    n = len(pairs)
    c = candidate
    for j in range(m + 1, n):
        emj = space.d(ys[m], ys[j])
        if not (emj - K * d[j] <= c <= emj + K * d[j]):
            return False
    for l in range(m):
        eml = space.d(ys[m], ys[l])
        if not (abs(eml - prior_e[l]) <= c <= eml + prior_e[l]):
            return False
    if not (d[m] / K <= c <= K * d[m]):
        return False
    if abs(c - s[m]) > (r - d[0]) / N:
        return False
    if m == 0:
        # goodness of the new pair seen from the image side, e_1 on both sides
        if c - d[0] > (r - c) / N or d[0] - c > (r - c) / N:
            return False
        for i in range(1, n):
            if c > N * (s[i] - d[i] / K) + r:
                return False
            if c > N * (K * d[i] - s[i]) + r:
                return False
    else:
        if abs(c - s[m]) > (r - prior_e[0]) / N:
            return False
    return True


GRID = F(1, 1024)


def grid_endpoints(space, ball, K, N, pairs, x, prior_e, m, lo_hint, hi_hint):
    """Smallest and largest feasible grid values near the claimed interval.

    The feasible set is an intersection of intervals, hence an interval, so
    bisection over the 1/1024 grid inside a window certainly containing it
    finds the exact grid endpoints.  The window is [0, K*d_m], which always
    contains the feasible set because of the bilipschitz bounds.
    """
    d_m = space.d(x, pairs[m][0])
    win_lo = 0
    win_hi = (K * d_m / GRID).__ceil__()

    def ok(idx):
        return feasible_e(space, ball, K, N, pairs, x, prior_e, m, idx * GRID)

    pivot = ((lo_hint + hi_hint) / 2 / GRID).__floor__()
    pivot = min(max(pivot, win_lo), win_hi)
    if not (ok(pivot) or ok(pivot + 1)):
        return None
    if not ok(pivot):
        pivot += 1
    a, b = win_lo, pivot
    while a < b:  # leftmost feasible
        mid = (a + b) // 2
        if ok(mid):
            b = mid
        else:
            a = mid + 1
    left = a
    a, b = pivot, win_hi
    while a < b:  # rightmost feasible
        mid = (a + b + 1) // 2
        if ok(mid):
            a = mid
        else:
            b = mid - 1
    right = a
    return left * GRID, right * GRID


def assert_pairwise_bounds(step):
    """Every recorded lower bound <= every recorded upper bound, per m,
    every chosen value inside its interval, and each end of the interval
    the first tightest bound of its list, with that bound's family."""
    for rec in step.solves:
        assert rec.lo <= rec.chosen <= rec.hi
        lowers, uppers = rec.lowers, rec.uppers  # re-derived: read once
        top = max(lo for _, lo in lowers)
        bottom = min(hi for _, hi in uppers)
        assert top <= bottom
        assert (rec.lo_family, rec.lo) == next(b for b in lowers
                                               if b[1] == top)
        assert (rec.hi_family, rec.hi) == next(b for b in uppers
                                               if b[1] == bottom)


def assert_condition_g(trace, seed, ball, kn, space):
    """Condition (G) of every step of a trace, read off the final matrix.

    Walks the trace from the seed map.  A step adds its target x and the
    realized partner y; every pair (x_m, y_m) of the map before the step,
    taken on the step's side, must satisfy
    |d(y, y_m) - d(x, y_m)| <= min(r - d(x, c), r - d(y, c)) / N.
    Returns the map the walk ends with.
    """
    r, c = ball.radius, ball.center
    current = seed
    for step in trace.steps:
        if step.noop:
            continue
        x, y = step.target, step.realized
        work = current if step.side == "domain" else current.inverse()
        cap = min(r - space.d(x, c), r - space.d(y, c)) / kn.N
        for _, ym in work.pairs():
            assert abs(space.d(y, ym) - space.d(x, ym)) <= cap, (
                f"condition (G) fails for {space.labels[x]!r} -> "
                f"{space.labels[y]!r} against {space.labels[ym]!r}")
        new_work = work.extended(x, y)
        current = new_work if step.side == "domain" else new_work.inverse()
    return current


def glue_reference(f, ball, K, space):
    """Is f together with the identity outside the ball K-bilipschitz?

    The mixed-pair scan, stated raw: every pair of domain points, then each
    domain point against each workspace point on or beyond the boundary.
    """
    pairs = list(zip(f.domain, f.images))
    outside = [w for w in range(space.n)
               if space.d(ball.center, w) >= ball.radius]
    checks = [(space.d(a, b), space.d(fa, fb))
              for i, (a, fa) in enumerate(pairs) for b, fb in pairs[i + 1:]]
    checks += [(space.d(u, w), space.d(fu, w))
               for u, fu in pairs for w in outside]
    return all(e <= K * d and d <= K * e for d, e in checks)


def center_first_pairs(f, center):
    return [(center, center)] + [p for p in f.pairs() if p[0] != center]


def rand_fraction_reference(rng, lo, hi, den=16):
    """rand_fraction with its bounds rounded on Fractions, not on ints."""
    lo, hi = F(lo), F(hi)
    a = (lo * den).__ceil__()
    b = (hi * den).__floor__()
    if b < a:
        return lo
    return F(rng.randint(a, b), den)


def random_space_rows(rng, n, den=8):
    """random_space's rows by the Fraction triple loop: the same draws,
    closed pair by pair in Fractions."""
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rand_fraction_reference(rng, F(4, den), 4, den)
            d[i][j] = d[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[j][i] = d[i][k] + d[k][j]
    return d


def random_modulus_reference(rng, pieces=3):
    """random_modulus drawn through rand_fraction and summed in Fractions."""
    k = rng.randint(1, pieces)
    slopes = sorted((rand_fraction_reference(rng, F(1, 8), 4, 8)
                     for _ in range(k + 1)), reverse=True)
    pts = [(F(0), F(0))]
    t = v = F(0)
    for s in slopes[:-1]:
        width = rand_fraction_reference(rng, F(1, 8), 2, 8)
        t += width
        v += s * width
        pts.append((t, v))
    m = PLFunction(tuple(pts), slopes[-1])
    assert is_modulus(m)
    return m


def knots_increase_reference(breakpoints):
    """Do the breakpoint abscissas strictly increase, compared as Fractions?"""
    ts = [t for t, _ in breakpoints]
    return all(a < b for a, b in zip(ts, ts[1:]))


def modulus_report_reference(f):
    """modulus_validate's report from Fraction slopes: each piece's
    (v1 - v0) / (t1 - t0), the tail slope last, compared as Fractions."""
    out = []
    t0, v0 = f.breakpoints[0]
    if (t0, v0) != (0, 0):
        out.append(f"first breakpoint is ({t0}, {v0}), not (0, 0)")
    vs = [v for _, v in f.breakpoints]
    if any(b <= a for a, b in zip(vs, vs[1:])):
        out.append("values are not strictly increasing")
    slopes = [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1)
              in zip(f.breakpoints, f.breakpoints[1:])] + [f.final_slope]
    for k, s in enumerate(slopes):
        if s <= 0:
            out.append(f"nonpositive slope {s} on piece {k}")
    for k, (a, b) in enumerate(zip(slopes, slopes[1:])):
        if b > a:
            out.append(f"concavity violated between pieces {k} and {k + 1}: "
                       f"slope rises {a} -> {b}")
    return tuple(out)


def validate_space_reference(space):
    """validate_space as the scan over every ordered triple."""
    n = len(space.labels)
    if len(space.dist) != n or any(len(r) != n for r in space.dist):
        raise StructuralError("distance matrix does not match label count")
    out: list[Violation] = []
    d = space.dist
    for i in range(n):
        if d[i][i] != 0:
            out.append(Violation("diagonal", (i,), f"d({i},{i}) = {d[i][i]} != 0"))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] < 0:
                out.append(Violation("negative", (i, j), f"d = {d[i][j]} < 0"))
            if d[i][j] != d[j][i]:
                out.append(Violation("symmetry", (i, j),
                                     f"{d[i][j]} != {d[j][i]}"))
            if d[i][j] == 0:
                out.append(Violation("identity", (i, j),
                                     "distinct points at distance 0"))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == j or j == k or i == k:
                    continue
                if d[i][k] > d[i][j] + d[j][k]:
                    out.append(Violation(
                        "triangle", (i, j, k),
                        f"{d[i][k]} > {d[i][j]} + {d[j][k]}"))
    return ValidationReport(tuple(out))


def pl_value_reference(points, slope, t):
    """PL evaluation by the two-point formula on the bracketing knots."""
    if t >= points[-1][0] or len(points) == 1:
        return points[-1][1] + slope * (t - points[-1][0])
    k = max([0] + [i for i, (u, _) in enumerate(points[:-1]) if u <= t])
    (t0, v0), (t1, v1) = points[k], points[k + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def lines_reference(f):
    """PLFunction._lines by Fraction arithmetic: each segment's knot and its
    line (A, B, C) with f(t) = (A*tn + B*td) / (C*td), from the normalized
    slope p/q and intercept v0 - slope*t0 = r/s as A = p*s, B = r*q and
    C = q*s.  Each slope is (v1 - v0) / (t1 - t0) on the breakpoints, and
    final_slope on the tail."""
    pts = f.breakpoints
    slopes = [(v1 - v0) / (t1 - t0)
              for (t0, v0), (t1, v1) in zip(pts, pts[1:])] + [f.final_slope]
    out = []
    for (t0, v0), slope in zip(pts, slopes):
        p, q = slope.as_integer_ratio()
        r, s = (v0 - slope * t0).as_integer_ratio()
        out.append((*t0.as_integer_ratio(), p * s, r * q, q * s))
    return tuple(out)


def box_grid_reference(alpha, beta, bound):
    """Abscissas (s, t) of the cell vertices on [0, bound]^2 where
    alpha^-1(s) + beta(t) - alpha^-1(s + t) is affine per cell: the knots
    of alpha^-1 (the ordinates of alpha's breakpoints) in s, those of beta
    in t, their differences along s + t = knot, and the box edges."""
    ka = {v for _, v in alpha.breakpoints}
    kb = {u for u, _ in beta.breakpoints}
    edge = {F(0), bound}
    s_coords = ka | edge | {a - b for a in ka for b in kb | edge}
    t_coords = kb | edge | {a - c for a in ka for c in ka | edge}
    return ([s for s in sorted(s_coords) if 0 <= s <= bound],
            [t for t in sorted(t_coords) if 0 <= t <= bound])


def star_on_box_reference(alpha, beta, bound, direction):
    """The per-vertex scan of the compatibility grid, each value evaluated
    afresh by the two-point formula: the same vertices, order and strict
    "worse" test as moduli._star_on_box, without its segment walk."""
    inv_points = [(v, t) for t, v in alpha.breakpoints]

    def ainv(x):
        return pl_value_reference(inv_points, 1 / alpha.final_slope, x)

    s_coords, t_coords = box_grid_reference(alpha, beta, bound)
    worst = None
    for s in s_coords:
        a_s = ainv(s)
        for t in t_coords:
            lhs = a_s + pl_value_reference(beta.breakpoints, beta.final_slope, t)
            rhs = ainv(s + t)
            if lhs < rhs and (worst is None or lhs - rhs < worst[2] - worst[3]):
                worst = (s, t, lhs, rhs, direction)
    return worst


def katetov_fill_reference(space, vals):
    """The shortest-path fill by Fraction sums: g(w) = min_a g(a) + d(a, w)."""
    return tuple(vals[w] if w in vals
                 else min(g + space.d(a, w) for a, g in vals.items())
                 for w in range(space.n))


def interval_ends_reference(pairs):
    """One-point interval ends over (g(z), d(z, w)) pairs, in Fractions:
    max |g(z) - d(z, w)| <= x <= min g(z) + d(z, w)."""
    return (max(abs(g - d) for g, d in pairs),
            min(g + d for g, d in pairs))


def prescribe_reference(f, rng_space, caps):
    """The mc prescription d(q, y) = min_z d(f(z), y) + caps[z] in Fractions."""
    reach = list(zip(f.images, caps))
    return {y: min(rng_space.d(fz, y) + b for fz, b in reach)
            for y in f.images}


def katetov_violations_reference(space, values):
    """The pair inequalities of a one-point prescription, decided on
    Fraction differences and sums, with their texts."""
    out = []
    keys = sorted(values)
    for idx, a in enumerate(keys):
        if values[a] < 0:
            out.append((a, a, f"negative value {values[a]}"))
        for b in keys[idx + 1:]:
            ga, gb, dab = values[a], values[b], space.d(a, b)
            if abs(ga - gb) > dab:
                out.append((a, b, f"|{ga} - {gb}| > d = {dab}"))
            if dab > ga + gb:
                out.append((a, b, f"d = {dab} > {ga} + {gb}"))
    return out


def new_pair_compliant(f, x, y, ball, K, N, space):
    """Does f stay compliant when x -> y is added, given that f is?

    Compliance is a conjunction of per-pair conditions (stretch at most K
    both ways, no zero distance) and per-point ones (strictly inside the
    ball, N-good both ways), all read off the same space.  So f plus
    x -> y is compliant exactly when f is and the new pair passes, stated
    raw here: against every earlier pair, and on its own points.
    """
    r, c = ball.radius, ball.center
    dx, dy, dxy = space.d(x, c), space.d(y, c), space.d(x, y)
    if not (dx < r and dy < r):
        return False
    if dxy > (r - dx) / N or dxy > (r - dy) / N:
        return False
    for a, fa in f.pairs():
        dd, ee = space.d(x, a), space.d(y, fa)
        if dd == 0 or ee == 0 or ee > K * dd or dd > K * ee:
            return False
    return True


# gen.random_point_in_ball before it decided a try at the center: every try
# fills its whole row, then reads the center's entry.  Kept as it was.
def random_point_in_ball_reference(rng: random.Random, space: FiniteMetricSpace,
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


# gen.rand_fraction and gen.random_space before the closure moved onto the
# draw grid: the weights are drawn as Fractions, then scaled to ints over q,
# the lcm of their denominators.  Kept as they were, but for the names and
# random_space_reference's scale, fixed at 4 as random_space fixes it.
def rand_fraction_floor_reference(rng: random.Random, lo, hi,
                                  den: int = 16) -> Fraction:
    """Uniform-ish rational in [lo, hi] with denominator dividing den.

    Returns lo itself when no multiple of 1/den lies in [lo, hi].
    """
    lo, hi = rat(lo), rat(hi)
    a = -(-lo.numerator * den // lo.denominator)
    b = hi.numerator * den // hi.denominator
    if b < a:
        return lo
    return Fraction(rng.randint(a, b), den)


def random_space_reference(rng: random.Random, n: int,
                           den: int = 8) -> FiniteMetricSpace:
    """Shortest-path closure of a random complete weighted graph.

    The closure runs on ints over q, the lcm of the weights' denominators.
    """
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rand_fraction_floor_reference(rng, Fraction(4, den), 4, den)
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


# bilip._certify_new_row before it decided each pair on integers: every
# test compares Fractions.  Kept as it was, but for the name.
def certify_new_row_reference(space: FiniteMetricSpace, ball: Ball,
                              kn: KNParams,
                              pairs: Sequence[tuple[int, int]], x: int,
                              e: Sequence[Fraction], s: Fraction) -> None:
    """Exact O(n) proof that the new pair (x, y) keeps the map compliant.

    y is the point to be realized at distance e_m from y_m and s from x.
    Checked: the stretch of every new pair, the Katetov inequalities between
    x and each y_m, goodness of the new pair, and y inside the ball.  The
    Katetov inequalities between two range points are the IE2 bounds, which
    the solver's interval test has already enforced exactly.  Together with
    the certificate of the input map this certifies the extended map.
    """
    K, N, r = kn.K, kn.N, ball.radius
    labels = space.labels
    d1 = space.d(x, ball.center)
    for (xm, ym), em in zip(pairs, e):
        dm, sm = space.d(x, xm), space.d(x, ym)
        if dm == 0:
            raise DegenerateInputError(
                f"domain points {labels[xm]!r}, {labels[x]!r} at distance 0")
        if em == 0:
            raise DegenerateInputError(
                f"image points {labels[ym]!r}, "
                f"{space.fresh_label()!r} at distance 0")
        if em > K * dm or dm > K * em:
            with as_text():
                raise PreconditionError(
                    f"new pair breaks the stretch bound against "
                    f"{labels[xm]!r}: d = {dm}, e = {em}, K = {K}")
        # When x already lies in the range this forces e_m = s at y_m = x.
        if abs(s - em) > sm or sm > s + em:
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


# mc_extend.separation_witness before it wrote its star space in closed
# form: each point is realized from x, one realize_point call at a time.
# Kept as it was, but for the name.
def separation_witness_reference(gamma: PLFunction, delta: MCSemigroup,
                                 depth: int) -> SeparationWitness:
    """A finite map (2*gamma)-bicontinuous but beating every generator near 0.

    Starting from a one-point space {x}, realizes points x_j -> x at chosen
    small scales t and partner points y_j with d(y_j, x) = gamma(t), all
    spaced additively through x, so both certificates are exact:
    d(y_j, x) > delta_i(d(x_j, x)) at each chosen scale, while the map
    x_j -> y_j, x -> x stays (2*gamma)-bicontinuous on every pair.  Requires
    gamma to exceed each generator on arbitrarily small arguments, which for
    PL data is a first-slope comparison.
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
    space = FiniteMetricSpace.from_rows(("x",), ((0,),))
    base = 0

    def first_knot(fn: PLFunction) -> Optional[Fraction]:
        return fn.breakpoints[1][0] if len(fn.breakpoints) > 1 else None

    # scale -> generators certified at that scale
    chosen: dict[Fraction, list[int]] = {}
    for i, gen in enumerate(delta.generators):
        knots = [k for k in (first_knot(gamma), first_knot(gen))
                 if k is not None]
        top = min(knots) if knots else Fraction(1)
        for j in range(1, depth + 1):
            chosen.setdefault(top / 2 ** j, []).append(i)

    checks: list[ScaleCheck] = []
    dom_idx, img_idx = [base], [base]
    for t in sorted(chosen, reverse=True):
        space, xj = realize_point(space, {base: t})
        space, yj = realize_point(space, {base: gamma.value(t)})
        dom_idx.append(xj)
        img_idx.append(yj)
        for i in chosen[t]:
            checks.append(ScaleCheck(i, t, gamma.value(t),
                                     delta.generators[i].value(t)))

    fmap = PartialMap(tuple(dom_idx), tuple(img_idx))
    two_gamma = gamma.scale(2)
    violations = bicontinuity_violations(fmap, space, space, two_gamma,
                                         two_gamma)
    cert = WitnessCertificate(tuple(checks), not violations,
                              len(fmap) * (len(fmap) - 1) // 2)
    assert cert.ok or depth == 0
    return SeparationWitness(fmap, space, cert)
