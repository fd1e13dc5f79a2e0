"""Independent oracles shared by the test modules.

Everything here restates the checked properties from scratch (no reuse of
the solver's interval code), so library and oracle stay two separate routes
to the same answers.
"""

from fractions import Fraction as F


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
    and every chosen value inside its interval."""
    for rec in step.solves:
        assert rec.lo <= rec.chosen <= rec.hi
        for _, lo in rec.lowers:
            for _, hi in rec.uppers:
                assert lo <= hi


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


def center_first_pairs(f, center):
    return [(center, center)] + [p for p in f.pairs() if p[0] != center]
