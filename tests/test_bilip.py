"""Admissibility, the one-point compliant extension solver, and the
explicit constructions built on it."""

import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from urylab import (Ball, DegenerateInputError, ExtensionTrace,
                    FiniteMetricSpace, InfeasibleError, PartialMap,
                    PreconditionError,
                    affine_constants, bilip, extend_dense, extend_one_point,
                    glue_identity_check, goodness_check, io, is_compliant,
                    kn_admissible, move_point_in_ball, realize_point,
                    segment_transport_bound, validate_space)
from urylab.amalgam import POLICIES, chooser
from urylab.cli import verify_trace_lines
from urylab.core import GoodnessReport
from urylab.gen import (random_compliant_instance, random_outside_points,
                        random_point_in_ball)
from oracle_utils import (assert_condition_g, assert_pairwise_bounds,
                          center_first_pairs, certify_new_row_reference,
                          feasible_e, glue_reference, new_pair_compliant)


def radical_interval_oracle(K, N):
    """Squaring-based restatement: K lies in the closed radical interval iff
    N >= 4 and (2K - N)^2 <= N^2 - 4N, all over the rationals."""
    return K > 1 and N >= 4 and (2 * K - N) ** 2 <= N * N - 4 * N


def test_kn_boundary_examples():
    assert kn_admissible(2, 4).admissible
    assert not kn_admissible(F(3, 2), 4).admissible  # K^2/(K-1) = 9/2 > 4
    assert not kn_admissible(1, 100).admissible


@settings(deadline=None)
@given(K=st.fractions(-4, 40, max_denominator=64),
       N=st.fractions(-4, 160, max_denominator=64))
@example(K=F(2), N=F(4))
@example(K=F(3, 2), N=F(9, 2))
@example(K=F(11, 10), N=F(121, 10))
def test_admissible_implies_reciprocal_sum_at_most_one(K, N):
    if kn_admissible(K, N).admissible:
        assert K > 0 and N > 0
        assert F(1) / N + F(1) / K <= 1


def test_kn_matches_radical_interval_oracle():
    rng = random.Random(31)
    for _ in range(300):
        K = F(rng.randint(1, 80), rng.randint(1, 20))
        N = F(rng.randint(1, 200), rng.randint(1, 10))
        assert kn_admissible(K, N).admissible == radical_interval_oracle(K, N)


def worked_setup():
    space = FiniteMetricSpace.from_rows(("x1", "x"), ((0, 1), (1, 0)))
    return space, Ball(0, F(10)), kn_admissible(2, 4), PartialMap((0,), (0,))


def test_worked_instance_interval_and_values():
    space, ball, kn, f = worked_setup()
    g, grown, step = extend_one_point(f, ball, kn, 1, "domain", space)
    rec = step.solves[0]
    assert (rec.lo, rec.hi) == (F(1, 2), F(2))
    assert rec.lo_family == "IE3" and rec.hi_family == "IE3"
    assert ("IE4", F(-5, 4)) in rec.lowers and ("IE4", F(13, 4)) in rec.uppers
    assert ("IE5", F(-2)) in rec.lowers and ("IE5", F(14, 5)) in rec.uppers
    assert rec.chosen == F(5, 4)
    assert step.s == F(35, 16)
    assert grown.d(2, 0) == F(5, 4) and grown.d(2, 1) == F(35, 16)
    cert = is_compliant(g, ball, kn, grown)
    assert cert.ok
    good = goodness_check(g, ball, 4, grown)
    assert good.forward_slack == F(1, 16) and good.backward_slack == 0


def test_center_only_map_compliant_for_every_admissible_pair():
    space = FiniteMetricSpace.from_rows(("x1",), ((0,),))
    f = PartialMap((0,), (0,))
    for K, N in ((2, 4), (F(3, 2), 5), (3, F(9, 2)), (10, F(100, 9))):
        kn = kn_admissible(K, N)
        assert kn.admissible
        assert is_compliant(f, Ball(0, 7), kn, space).ok


def test_worked_instance_against_direct_feasibility_oracle():
    space, ball, kn, f = worked_setup()
    _, _, step = extend_one_point(f, ball, kn, 1, "domain", space)
    pairs = center_first_pairs(f, 0)
    rec = step.solves[0]
    eps = F(1, 4096)
    assert feasible_e(space, ball, kn.K, kn.N, pairs, 1, [], 0, rec.lo)
    assert feasible_e(space, ball, kn.K, kn.N, pairs, 1, [], 0, rec.hi)
    assert not feasible_e(space, ball, kn.K, kn.N, pairs, 1, [], 0, rec.lo - eps)
    assert not feasible_e(space, ball, kn.K, kn.N, pairs, 1, [], 0, rec.hi + eps)


@pytest.mark.parametrize("d, end, tie", [
    (F(10, 3), "lo", ("IE3", "IE4")),     # d/K = d - (r-d)/N = 5/3
    (F(5, 3), "hi", ("IE3", "IE5")),      # K*d = (N*d + r)/(N+1) = 10/3
])
def test_tied_families_report_the_first(d, end, tie):
    space = FiniteMetricSpace.from_rows(("x1", "x"), ((0, d), (d, 0)))
    _, ball, kn, f = worked_setup()
    _, _, step = extend_one_point(f, ball, kn, 1, "domain", space)
    assert_pairwise_bounds(step)
    rec = step.solves[0]
    bounds = dict(rec.lowers if end == "lo" else rec.uppers)
    assert bounds[tie[0]] == bounds[tie[1]] == getattr(rec, end)
    assert getattr(rec, f"{end}_family") == tie[0]


def tight_tree_setup(K, N, hang, t):
    """Seed map {c -> c, x1 -> y1} on the path c - x1 - y1 in B(c, 10) with
    d(c, x1) = 5 and goodness tight at the pair, N*g = r - d(c, y1) for
    g = d(x1, y1); the new point x hangs off ``hang`` by an edge of length t.
    Points: c = 0, x1 = 1, y1 = 2, x = 3."""
    r = F(10)
    g = (r - 5) / (N + 1)
    pos = (F(0), F(5), 5 + g)
    x = [t + abs(pos[hang] - p) for p in pos]
    rows = [[abs(p - q) for q in pos] + [x[i]] for i, p in enumerate(pos)]
    space = FiniteMetricSpace.from_rows(("c", "x1", "y1", "x"),
                                        rows + [x + [0]])
    assert validate_space(space).ok
    kn, f = kn_admissible(K, N), PartialMap((0, 1), (0, 2))
    ball = Ball(0, r)
    assert is_compliant(f, ball, kn, space).ok
    assert goodness_check(f, ball, N, space).backward_slack == 0
    return space, ball, kn, f


def raw_e1_caps(space, ball, kn):
    """(IE1, IE6, IE7) upper bounds on e_1 at the pair (x1, y1), stated raw."""
    K, N, r = kn.K, kn.N, ball.radius
    d, s = space.d(3, 1), space.d(3, 2)
    return (space.d(0, 2) + K * d, N * (s - d / K) + r,
            N * (K * d - s) + r)


def assert_e_intervals_exact(space, ball, kn, f, step):
    """Each [lo, hi] is exactly the raw feasible set, IE6/IE7 included."""
    pairs, prior, eps = center_first_pairs(f, 0), [], F(1, 4096)
    for m, rec in enumerate(step.solves):
        def ok(c):
            return feasible_e(space, ball, kn.K, kn.N, pairs, 3, prior, m, c)
        assert ok(rec.lo) and ok(rec.hi)
        assert not ok(rec.lo - eps) and not ok(rec.hi + eps)
        prior.append(rec.chosen)


@pytest.mark.parametrize("K, N", [(2, 4), (3, F(9, 2))])
def test_ie6_ties_ie1_at_the_admissibility_boundary(K, N):
    # N = K^2/(K-1), tight goodness and s_1 = d_1 - g: the IE6 cap on e_1
    # equals the IE1 bound, so the solver needs no IE6 family
    assert N * (K - 1) == K * K
    space, ball, kn, f = tight_tree_setup(K, N, hang=2, t=F(1, 2))
    assert space.d(3, 2) == space.d(3, 1) - space.d(1, 2)
    _, _, step = extend_one_point(f, ball, kn, 3, "domain", space)
    ie1, ie6, ie7 = raw_e1_caps(space, ball, kn)
    assert ie6 == ie1 < ie7
    assert step.solves[0].hi <= min(ie6, ie7)
    assert_e_intervals_exact(space, ball, kn, f, step)


def test_ie7_margin_over_ie1_on_a_tight_tree():
    # s_1 = d_1 + g with d_1 = 1/100: IE7 - IE1 = d_1(N(K-1) - K) = 1/50
    space, ball, kn, f = tight_tree_setup(2, 4, hang=1, t=F(1, 100))
    assert space.d(3, 2) == space.d(3, 1) + space.d(1, 2)
    _, _, step = extend_one_point(f, ball, kn, 3, "domain", space)
    ie1, ie6, ie7 = raw_e1_caps(space, ball, kn)
    assert ie7 - ie1 == F(1, 50) and ie6 > ie1
    assert step.solves[0].hi <= min(ie6, ie7)
    assert_e_intervals_exact(space, ball, kn, f, step)


def test_extend_noop_when_already_in_domain():
    space, ball, kn, f = worked_setup()
    g, grown, step = extend_one_point(f, ball, kn, 0, "domain", space)
    assert step.noop and g == f and grown is space


def noncompliant_setup():
    # stretch factor 3 between the pair with K = 2
    space = FiniteMetricSpace.from_rows(
        ("x1", "a", "fa"), ((0, 1, 3), (1, 0, 2), (3, 2, 0)))
    bad = PartialMap((0, 1), (0, 2))
    ball, kn = Ball(0, 100), kn_admissible(2, 8)
    assert not is_compliant(bad, ball, kn, space).ok
    space2, x = random_point_in_ball(random.Random(0), space, ball)
    return space2, bad, ball, kn, x


def not_bigood_setup():
    # 2-bilipschitz but too displaced for N-goodness near the boundary
    space = FiniteMetricSpace.from_rows(
        ("x1", "a", "fa"), ((0, 2, 2), (2, 0, 3), (2, 3, 0)))
    f = PartialMap((0, 1), (0, 2))
    ball = Ball(0, F(5, 2))
    kn = kn_admissible(2, 4)
    cert = is_compliant(f, ball, kn, space)
    assert cert.lip_ok and not cert.goodness.ok
    space2, x = random_point_in_ball(random.Random(1), space, ball)
    return space2, f, ball, kn, x


def test_extend_rejects_noncompliant_input():
    space, bad, ball, kn, x = noncompliant_setup()
    with pytest.raises(PreconditionError):
        extend_one_point(bad, ball, kn, x, "domain", space)


def test_extend_rejects_not_bigood_input():
    space, f, ball, kn, x = not_bigood_setup()
    with pytest.raises(PreconditionError):
        extend_one_point(f, ball, kn, x, "domain", space)


@pytest.mark.parametrize("setup", [noncompliant_setup, not_bigood_setup])
def test_dense_and_replay_certify_the_seed_map(setup):
    space, f, ball, kn, x = setup()
    with pytest.raises(PreconditionError) as single:
        extend_one_point(f, ball, kn, x, "domain", space)
    with pytest.raises(PreconditionError) as dense:
        extend_dense(f, ball, kn, [x], space)
    assert type(dense.value) is type(single.value)
    assert str(dense.value) == str(single.value)
    # one line per existing pair, so the replay reaches the first step
    lines = [io.TraceLine(m, "d", F(1), F(1), F(1), F(1), "q1")
             for m in (1, 2)]
    assert verify_trace_lines(space, f, ball, kn, [x], lines) == (
        False, str(single.value))


def test_seed_certificate_names_the_stretch_witness():
    space, bad, ball, kn, x = noncompliant_setup()
    with pytest.raises(PreconditionError) as exc:
        extend_dense(bad, ball, kn, [x], space)
    assert str(exc.value) == ("map is not (K, N)-compliant on input: stretch "
                              "bound fails at ('x1', 'a'): ratio 3 > K = 2")


def test_seed_certificate_names_the_domain_goodness_witness():
    space, f, ball, kn, x = not_bigood_setup()
    with pytest.raises(PreconditionError) as exc:
        extend_dense(f, ball, kn, [x], space)
    # d(a, fa) = 3 against (5/2 - 2)/4 = 1/8
    assert str(exc.value) == ("map is not (K, N)-compliant on input: "
                              "goodness bound fails at domain point 'a': "
                              "slack -23/8")


def test_seed_certificate_names_the_range_goodness_witness():
    # a sits at 1 from the center and fa at 2, 1 apart: with r = 11/2 and
    # N = 4, a passes (9/8 >= 1) but fa does not (7/8 < 1)
    space = FiniteMetricSpace.from_rows(
        ("x1", "a", "fa"), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    f = PartialMap((0, 1), (0, 2))
    ball, kn = Ball(0, F(11, 2)), kn_admissible(2, 4)
    message = ("map is not (K, N)-compliant on input: goodness bound fails "
               "at range point 'fa': slack -1/8")
    with pytest.raises(PreconditionError) as exc:
        extend_dense(f, ball, kn, [], space)
    assert str(exc.value) == message
    assert verify_trace_lines(space, f, ball, kn, [], []) == (False, message)


@pytest.mark.parametrize("setup", [noncompliant_setup, not_bigood_setup])
def test_dense_certifies_the_seed_map_without_targets(setup):
    space, f, ball, kn, _ = setup()
    with pytest.raises(PreconditionError):
        extend_dense(f, ball, kn, [], space)


# Solver outputs for the worked instance (d_1 = d(x, x1) = 1, r = 10,
# K = 2, N = 4), each breaking one postcondition of the step.
@pytest.mark.parametrize("e, s, error", [
    ([F(3)], F(2), PreconditionError),          # e_1 > K*d_1 (IE3)
    ([F(5, 4)], F(1, 8), PreconditionError),    # |s - e_1| > d(x, x1)
    ([F(5, 4)], F(9, 4), PreconditionError),    # N*s > r - e_1
    ([F(0)], F(1), DegenerateInputError),
], ids=["stretch", "katetov-x-row", "goodness", "zero-e"])
def test_step_postcondition_rejects_broken_solve(e, s, error, monkeypatch):
    realized = []
    monkeypatch.setattr(bilip, "_solve_new_distances",
                        lambda *args, **kw: (list(e), s, []))
    monkeypatch.setattr(FiniteMetricSpace, "with_point",
                        lambda *args, **kw: realized.append(args))
    space, ball, kn, f = worked_setup()
    with pytest.raises(error):
        extend_one_point(f, ball, kn, 1, "domain", space)
    assert not realized


def test_an_empty_interval_names_both_families(monkeypatch):
    # IE3 raises the lower end to 2 and IE5 caps the upper end at 1
    realized = []
    monkeypatch.setattr(bilip, "_bounds", lambda ctx, m: [
        ("IE1", F(0), F(3)), ("IE3", F(2), F(3)), ("IE5", F(0), F(1))])
    monkeypatch.setattr(FiniteMetricSpace, "with_point",
                        lambda *args, **kw: realized.append(args))
    space, ball, kn, f = worked_setup()
    with pytest.raises(InfeasibleError) as exc:
        extend_one_point(f, ball, kn, 1, "domain", space)
    assert str(exc.value) == "empty interval for e_1: IE3 gives 2 > 1 from IE5"
    assert not realized


TINY = F(1, 10 ** 6)


# Solver outputs at the boundary of each postcondition of the step, on the
# worked instance (d_1 = d(x, x1) = 1, K = 2, N = 4) with r = 10 or, to make
# the budget (r - d_1)/N bind, r = 5.  Each boundary is accepted and the
# next output, TINY past it, is refused with its exact text.
@pytest.mark.parametrize("r, e, s, message", [
    # e_1 = K*d_1, then TINY above
    (10, F(2), F(3, 2), None),
    (10, 2 + TINY, F(3, 2), "new pair breaks the stretch bound against "
                            "'x1': d = 1, e = 2000001/1000000, K = 2"),
    # d_1 = K*e_1, then e_1 TINY below
    (10, F(1, 2), F(1), None),
    (10, F(1, 2) - TINY, F(1), "new pair breaks the stretch bound against "
                               "'x1': d = 1, e = 499999/1000000, K = 2"),
    # |s - e_1| = d(x, x1), then s TINY above
    (10, F(1), F(2), None),
    (10, F(1), 2 + TINY, "not a one-point prescription on ('x1', 'x'): "
                         "e = 1, s = 2000001/1000000, d = 1"),
    # d(x, x1) = s + e_1, then s TINY below
    (10, F(3, 4), F(1, 4), None),
    (10, F(3, 4), F(1, 4) - TINY, "not a one-point prescription on "
                                  "('x1', 'x'): e = 3/4, "
                                  "s = 249999/1000000, d = 1"),
    # N*s = r - d_1, then s TINY above
    (5, F(3, 4), F(1), None),
    (5, F(3, 4), 1 + TINY,
     "new pair at distance 1000001/1000000 is not 4-good"),
    # N*s = r - e_1 (the worked step itself), then s TINY above
    (10, F(5, 4), F(35, 16), None),
    (10, F(5, 4), F(35, 16) + TINY,
     "new pair at distance 2187501/1000000 is not 4-good"),
], ids=["stretch-K", "stretch-above", "shrink-K", "shrink-below",
        "katetov-gap", "katetov-gap-above", "katetov-sum", "katetov-sum-below",
        "goodness-x", "goodness-x-above", "goodness-y", "goodness-y-above"])
def test_step_postcondition_at_each_boundary(r, e, s, message, monkeypatch):
    monkeypatch.setattr(bilip, "_solve_new_distances",
                        lambda *args, **kw: ([e], s, []))
    space, _, kn, f = worked_setup()
    ball = Ball(0, r)
    if message is None:
        g, grown, _ = extend_one_point(f, ball, kn, 1, "domain", space)
        assert g == PartialMap((0, 1), (0, 2))
        assert (grown.d(2, 0), grown.d(2, 1)) == (e, s)
        assert is_compliant(g, ball, kn, grown).ok
        return
    realized = []
    monkeypatch.setattr(FiniteMetricSpace, "with_point",
                        lambda *args, **kw: realized.append(args))
    with pytest.raises(PreconditionError) as exc:
        extend_one_point(f, ball, kn, 1, "domain", space)
    assert str(exc.value) == message and not realized


# --- the new row's certificate against its Fraction reference -------------

def _big_scale(rng):
    """A factor just above 1 over a 100-300-digit denominator."""
    digits = rng.randint(100, 300)
    q = rng.randrange(10 ** (digits - 1), 10 ** digits)
    return F(q + rng.randrange(1, q), q)


def _scaled(space, lam):
    return FiniteMetricSpace(space.labels, tuple(
        tuple(v * lam for v in row) for row in space.dist))


def _big_steps(rng, count):
    """Seeded solved steps (space, ball, kn, pairs, x, e, s) on compliant
    instances scaled by a factor over a 100-300-digit denominator."""
    for _ in range(count):
        space, f, ball, kn = random_compliant_instance(
            rng, grow=rng.randint(1, 3))
        lam = _big_scale(rng)
        space, ball = _scaled(space, lam), Ball(ball.center, ball.radius * lam)
        space, x = random_point_in_ball(rng, space, ball)
        work = f if rng.random() < 0.5 else f.inverse()
        pairs = center_first_pairs(work, ball.center)
        e, s, _ = bilip._solve_new_distances(
            space, ball, kn, pairs, x, chooser(rng.choice(POLICIES)), [space])
        yield space, ball, kn, pairs, x, e, s


def _certify_outcome(check, *args):
    try:
        return check(*args)
    except (DegenerateInputError, PreconditionError) as err:
        return type(err), str(err)


def _broken_rows(rng, space, ball, kn, pairs, x, e, s):
    """(expected type, message start, arguments) for each raise path, made
    by breaking one solved step at a random pair m."""
    m = rng.randrange(len(pairs))
    xm, ym = pairs[m]
    d1, dm = space.d(x, ball.center), space.d(x, xm)
    dist = [list(row) for row in space.dist]
    dist[x][xm] = dist[xm][x] = F(0)
    zero_d = FiniteMetricSpace(space.labels, tuple(map(tuple, dist)))
    wrong_e = e[:m] + [F(0)] + e[m + 1:]
    yield DegenerateInputError, "domain points", (
        zero_d, ball, kn, pairs, x, e, s)
    yield DegenerateInputError, "image points", (
        space, ball, kn, pairs, x, wrong_e, s)
    wrong_e[m] = kn.K * dm + TINY if rng.random() < 0.5 else dm / kn.K - TINY
    yield PreconditionError, "new pair breaks the stretch bound", (
        space, ball, kn, pairs, x, wrong_e, s)
    wrong_s = e[0] + d1 + TINY
    yield PreconditionError, "not a one-point prescription", (
        space, ball, kn, pairs, x, e, wrong_s)
    small = Ball(ball.center, max(d1, e[0]) + kn.N * s - TINY)
    yield PreconditionError, f"new pair at distance {s} is not", (
        space, small, kn, pairs, x, e, s)


def test_new_row_certificate_matches_the_fraction_reference():
    rng = random.Random(2121)
    steps = list(_big_steps(rng, 12))
    assert max(len(pairs) for _, _, _, pairs, *_ in steps) >= 3
    for step in steps:
        assert max(len(str(v.denominator)) for v in step[5]) >= 100
        assert bilip._certify_new_row(*step) is None
        assert certify_new_row_reference(*step) is None
        for error, start, args in _broken_rows(rng, *step):
            got = _certify_outcome(bilip._certify_new_row, *args)
            assert got == _certify_outcome(certify_new_row_reference, *args)
            assert got[0] is error and got[1].startswith(start), got


# Ties of the new row's tests on the worked instance scaled by a factor over
# a 100-300-digit denominator: each is accepted, and moved by 10**-6 past
# the tie it is refused with the reference's exact text.
@pytest.mark.parametrize("r, e, s, move", [
    (10, F(2), F(3, 2), (TINY, 0)),         # e_1 = K*d_1
    (10, F(1, 2), F(1), (-TINY, 0)),        # d_1 = K*e_1
    (10, F(1), F(2), (0, TINY)),            # |s - e_1| = d(x, x1)
    (10, F(3, 4), F(1, 4), (0, -TINY)),     # d(x, x1) = s + e_1
    (5, F(3, 4), F(1), (0, TINY)),          # N*s = r - d_1
    (10, F(5, 4), F(35, 16), (0, TINY)),    # N*s = r - e_1
], ids=["stretch-K", "shrink-K", "katetov-gap", "katetov-sum", "goodness-x",
        "goodness-y"])
@pytest.mark.parametrize("seed", [1, 2])
def test_new_row_certificate_ties_on_big_denominators(r, e, s, move, seed):
    lam = _big_scale(random.Random(seed))
    space, _, kn, _ = worked_setup()
    args = (_scaled(space, lam), Ball(0, r * lam), kn, [(0, 0)], 1)
    e, s = e * lam, s * lam
    assert bilip._certify_new_row(*args, [e], s) is None
    assert certify_new_row_reference(*args, [e], s) is None
    moved = ([e + move[0]], s + move[1])
    got = _certify_outcome(bilip._certify_new_row, *args, *moved)
    assert got == _certify_outcome(certify_new_row_reference, *args, *moved)
    assert got[0] is PreconditionError


def test_new_row_certificate_ball_edge_matches_the_reference():
    # s = 0 and e_1 = r = d(x, x1): every pair test and goodness hold, and
    # only the ball test refuses
    lam = _big_scale(random.Random(3))
    space, _, kn, _ = worked_setup()
    args = (_scaled(space, lam), Ball(0, lam), kn, [(0, 0)], 1, [lam], F(0))
    got = _certify_outcome(bilip._certify_new_row, *args)
    assert got == _certify_outcome(certify_new_row_reference, *args)
    assert got == (PreconditionError, f"new point at distance {lam} from "
                                      f"the center leaves the ball")


def _goodness_edge(gap, forward):
    """c, a and b with a 1 and b 3/4 from the center c and d(a, b) = gap.
    In the ball of radius 5 with N = 4, a may move by (5 - 1)/4 = 1 and b
    by 17/16, so gap = 1 uses a's budget exactly: forward when the map
    sends a to b, backward when it sends b to a."""
    space = FiniteMetricSpace.from_rows(
        ("c", "a", "b"), ((0, 1, F(3, 4)), (1, 0, gap), (F(3, 4), gap, 0)))
    return space, PartialMap((0, 1), (0, 2)) if forward \
        else PartialMap((0, 2), (0, 1))


def _stretch_edge(position):
    """c at 0, a at 1 and b at ``position`` on a line; the map fixes c and
    sends a to b, so its stretch is max(position, 1/position)."""
    space = FiniteMetricSpace.from_rows(
        ("c", "a", "b"), ((0, 1, position), (1, 0, abs(position - 1)),
                          (position, abs(position - 1), 0)))
    return space, PartialMap((0, 1), (0, 2))


@pytest.mark.parametrize("space, f, ball, report, message", [
    (*_goodness_edge(F(1), True), Ball(0, 5),
     GoodnessReport(True, F(0), F(1, 16), 1, 2), None),
    (*_goodness_edge(1 + TINY, True), Ball(0, 5),
     GoodnessReport(False, -TINY, F(1, 16) - TINY, 1, 2),
     "goodness bound fails at domain point 'a': slack -1/1000000"),
    (*_goodness_edge(F(1), False), Ball(0, 5),
     GoodnessReport(True, F(1, 16), F(0), 2, 1), None),
    (*_goodness_edge(1 + TINY, False), Ball(0, 5),
     GoodnessReport(False, F(1, 16) - TINY, -TINY, 2, 1),
     "goodness bound fails at range point 'a': slack -1/1000000"),
    (*_stretch_edge(F(2)), Ball(0, 100), F(2), None),
    (*_stretch_edge(2 + TINY), Ball(0, 100), 2 + TINY,
     "stretch bound fails at ('c', 'a'): ratio 2000001/1000000 > K = 2"),
    (*_stretch_edge(F(1, 2)), Ball(0, 100), F(2), None),
    (*_stretch_edge(F(1, 2) - TINY), Ball(0, 100), 1 / (F(1, 2) - TINY),
     "stretch bound fails at ('c', 'a'): ratio 1000000/499999 > K = 2"),
], ids=["forward-0", "forward-below", "backward-0", "backward-below",
        "stretch-K", "stretch-above", "shrink-K", "shrink-below"])
def test_seed_certificate_at_each_boundary(space, f, ball, report, message):
    # ``report`` is the goodness report, or the stretch for a stretch edge
    kn = kn_admissible(2, 4)
    cert = is_compliant(f, ball, kn, space)
    if isinstance(report, GoodnessReport):
        assert goodness_check(f, ball, kn.N, space) == report == cert.goodness
    else:
        assert (cert.lip_value, cert.lip_witness) == (report, (0, 1))
        assert cert.lip_ok is (message is None)
    assert cert.ok is (message is None)
    if message is None:
        assert extend_dense(f, ball, kn, [], space)[0] == f
        assert verify_trace_lines(space, f, ball, kn, [], []) \
            == (True, "verified 0 steps")
        return
    message = f"map is not (K, N)-compliant on input: {message}"
    with pytest.raises(PreconditionError) as exc:
        extend_dense(f, ball, kn, [], space)
    assert str(exc.value) == message
    assert verify_trace_lines(space, f, ball, kn, [], []) == (False, message)


def test_chained_public_steps_match_extend_dense():
    rng = random.Random(4242)
    for _ in range(10):
        space, f, ball, kn = random_compliant_instance(rng, grow=2)
        targets = []
        for _ in range(3):
            space, x = random_point_in_ball(rng, space, ball)
            targets.append(x)
        policy = rng.choice(("midpoint", "minimal", "maximal"))
        dense_f, dense_space, dense = extend_dense(f, ball, kn, targets,
                                                   space, policy)
        chained = ExtensionTrace()
        for x in targets:
            for side in ("domain", "range"):
                f, space, step = extend_one_point(f, ball, kn, x, side, space,
                                                  policy)
                chained.steps.append(step)
        assert io.format_trace(chained) == io.format_trace(dense)
        assert (f, space) == (dense_f, dense_space)


def test_extend_unknown_policy_rejected():
    space, ball, kn, f = worked_setup()
    with pytest.raises(PreconditionError, match="unknown policy 'nearest'"):
        extend_one_point(f, ball, kn, 1, "domain", space, "nearest")


@pytest.mark.parametrize("policy", ["midpoint", "minimal", "maximal"])
def test_extend_a_target_at_the_ball_edge(policy):
    # the target sits at r(1 - 10^-6), so its image must land in the last
    # millionth of the ball: a ball test tighter than e_1 < r rejects it
    r = F(10)
    edge = r * (1 - F(1, 10**6))
    space = FiniteMetricSpace.from_rows(("c", "x"), ((0, edge), (edge, 0)))
    ball, kn, f = Ball(0, r), kn_admissible(2, 4), PartialMap((0,), (0,))
    g, grown, _ = extend_dense(f, ball, kn, [1], space, policy)
    assert 1 in g.domain and 1 in g.images
    assert is_compliant(g, ball, kn, grown).ok


def test_extend_requires_fixed_center():
    space = FiniteMetricSpace.from_rows(("x1", "x"), ((0, 1), (1, 0)))
    with pytest.raises(PreconditionError):
        extend_one_point(PartialMap((), ()), Ball(0, 10), kn_admissible(2, 4),
                         1, "domain", space)


def test_extend_one_point_outside_ball_rejected():
    space, _, kn, f = worked_setup()
    with pytest.raises(PreconditionError):
        extend_one_point(f, Ball(0, 1), kn, 1, "domain", space)


def test_extend_dense_empty_targets():
    space, ball, kn, f = worked_setup()
    g, grown, trace = extend_dense(f, ball, kn, [], space)
    assert g == f and grown == space and not trace.steps


def test_extend_dense_preserves_compliance_and_condition_g():
    rng = random.Random(2718)
    for _ in range(10):
        space, f, ball, kn = random_compliant_instance(rng, grow=2)
        targets = []
        for _ in range(4):
            space, x = random_point_in_ball(rng, space, ball)
            targets.append(x)
        seed = f
        f, space, trace = extend_dense(f, ball, kn, targets, space,
                                       policy=rng.choice(
                                           ("midpoint", "minimal", "maximal")))
        for step in trace.steps:
            if step.noop:
                continue
            assert_pairwise_bounds(step)
        assert assert_condition_g(trace, seed, ball, kn, space) == f
        for x in targets:
            assert x in f.domain and x in f.images
        assert is_compliant(f, ball, kn, space).ok
        assert validate_space(space).ok


def _instance_with_targets(rng, grow, count):
    space, f, ball, kn = random_compliant_instance(rng, grow=grow)
    targets = []
    for _ in range(count):
        space, x = random_point_in_ball(rng, space, ball)
        targets.append(x)
    return space, f, ball, kn, targets


def _rederived(step):
    return [(rec.lowers, rec.uppers) for rec in step.solves]


@pytest.mark.parametrize("policy", POLICIES)
def test_records_rederive_the_same_bounds_as_the_run_grows(policy):
    # every record of a run reads the run's latest workspace; its bounds
    # must equal those read as the step ends, and a lone step's, which
    # reads the step's own workspace
    rng = random.Random(33)
    for _ in range(3):
        space, f, ball, kn, targets = _instance_with_targets(rng, 1, 6)
        steps, at_step = [], []
        prev_f, prev_space = f, space
        for f, space, step in bilip._back_and_forth(
                f, ball, kn, targets, space, chooser(policy)):
            steps.append(step)
            at_step.append(_rederived(step))
            _, _, lone = extend_one_point(prev_f, ball, kn, step.target,
                                          step.side, prev_space, policy)
            assert _rederived(lone) == at_step[-1]
            prev_f, prev_space = f, space
        assert sum(len(step.solves) for step in steps) >= 40
        assert [_rederived(step) for step in steps] == at_step


def test_a_held_trace_pins_no_workspace_but_the_last():
    # a run's records share its latest workspace; a record that kept the
    # workspace it was solved in would hold about 40 matrices here
    rng = random.Random(5)
    space, f, ball, kn, targets = _instance_with_targets(rng, 1, 20)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = extend_dense(f, ball, kn, targets, space)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        final_map, final_space, trace = result
        del result, trace
        gc.collect()
        final = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert final_space.n == 63 and len(final_map) == 42
    assert held <= 3.5 * final, (held, final)


def _compliant_or_refused(f, ball, kn, space):
    """is_compliant's verdict, a refused map (a point on or past the
    boundary, two points at distance 0) read as not compliant."""
    try:
        return is_compliant(f, ball, kn, space).ok
    except (PreconditionError, DegenerateInputError):
        return False


def _with_copy(space, k):
    """space plus a point 'dup' at distance 0 from point k."""
    rows = [row + (row[k],) for row in space.dist]
    rows.append(space.dist[k] + (F(0),))
    return FiniteMetricSpace(space.labels + ("dup",), tuple(rows))


def test_the_per_step_oracle_agrees_with_is_compliant_on_every_prefix():
    # criterion 03 checks each step's new pair alone; on every prefix of
    # seeded runs and of maps broken by hand, folding that check from the
    # empty map must give is_compliant's verdict
    rng = random.Random(4242)
    verdicts = Counter()
    for _ in range(6):
        space, f, ball, kn = random_compliant_instance(rng, grow=1)
        targets = []
        for _ in range(8):
            space, x = random_point_in_ball(rng, space, ball)
            targets.append(x)
        final, space, _ = extend_dense(f, ball, kn, targets, space)
        space = _with_copy(random_outside_points(rng, space, ball, 1),
                           final.domain[-1])
        pairs = list(final.pairs())
        i, j = sorted(rng.sample(range(1, len(pairs)), 2))
        swapped = list(pairs)
        swapped[i] = (pairs[i][0], pairs[j][1])
        swapped[j] = (pairs[j][0], pairs[i][1])
        outside = list(pairs)
        outside[i] = (pairs[i][0], space.n - 2)
        maps = {"run": pairs, "two images swapped": swapped,
                "an image outside the ball": outside,
                "a domain point doubled": pairs + [(space.n - 1,
                                                    space.n - 1)]}
        for radius in (ball.radius, ball.radius * 3 / 4):
            region = Ball(ball.center, radius)
            for name, broken in maps.items():
                ok, current = True, PartialMap((), ())
                for x, y in broken:
                    ok = ok and new_pair_compliant(current, x, y, region,
                                                   kn.K, kn.N, space)
                    current = current.extended(x, y)
                    assert ok == _compliant_or_refused(current, region, kn,
                                                       space), name
                verdicts[name, ok] += 1
    # every broken kind is refused somewhere, and the runs pass whole
    assert verdicts["run", True] >= 6, verdicts
    for name in maps:
        assert verdicts[name, False] >= 1, verdicts


def test_extend_dense_back_and_forth_order():
    space, ball, kn, f = worked_setup()
    _, _, trace = extend_dense(f, ball, kn, [1], space)
    assert [s.side for s in trace.steps] == ["domain", "range"]


def test_extend_dense_over_epsilon_net():
    # targets forming a 1/2-net of a chain inside the ball
    from urylab.gen import line_space
    space = line_space([0, 1, F(9, 8), F(5, 4), F(11, 8)],
                       ["x1", "c0", "c1", "c2", "c3"])
    ball, kn, f = Ball(0, F(10)), kn_admissible(2, 4), PartialMap((0,), (0,))
    chain = [1, 2, 3, 4]
    net = chain[::2]
    for x in chain:
        assert any(space.d(x, z) <= F(1, 2) for z in net)
    seed = f
    f, space, trace = extend_dense(f, ball, kn, net, space)
    assert assert_condition_g(trace, seed, ball, kn, space) == f
    assert is_compliant(f, ball, kn, space).ok
    for x in net:
        assert x in f.domain and x in f.images


def test_boundary_policies_stay_feasible_over_long_runs():
    # minimal/maximal park every choice on an interval endpoint, so the
    # downstream constraints are as tight as they can get; feasibility and
    # compliance must survive regardless
    for seed, policy in ((1201, "minimal"), (1202, "maximal")):
        rng = random.Random(seed)
        for _ in range(15):
            space, f, ball, kn = random_compliant_instance(
                rng, grow=1, policy=policy)
            targets = []
            for _ in range(6):
                space, x = random_point_in_ball(rng, space, ball)
                targets.append(x)
            seed = f
            f, space, trace = extend_dense(f, ball, kn, targets, space,
                                           policy=policy)
            assert assert_condition_g(trace, seed, ball, kn, space) == f
            assert is_compliant(f, ball, kn, space).ok


def test_glue_identity_map_true():
    space = FiniteMetricSpace.from_rows(
        ("x1", "a", "w"), ((0, 1, 8), (1, 0, 8), (8, 8, 0)))
    f = PartialMap((0, 1), (0, 1))
    ball = Ball(0, 4)
    report = glue_identity_check(f, ball, kn_admissible(2, 4), space)
    assert report.ok
    assert not ball.strictly_inside(space, 2)


def test_glue_vacuous_without_outside_points():
    space, ball, kn, f = worked_setup()
    report = glue_identity_check(f, ball, kn, space)
    assert report.ok
    assert all(ball.strictly_inside(space, w) for w in range(space.n))


def test_glue_worked_instance_with_outside_points():
    space, ball, kn, f = worked_setup()
    f, space, _ = extend_one_point(f, ball, kn, 1, "domain", space)
    space = random_outside_points(random.Random(6), space, ball, 5)
    report = glue_identity_check(f, ball, kn, space)
    assert report.ok
    assert not all(ball.strictly_inside(space, w) for w in range(space.n))


def test_glue_shrunk_ball_fails_with_mixed_witness():
    # same map, but certified against a radius small enough that a point
    # just beyond it sits too close to the displaced pair
    space, ball, kn, f = worked_setup()
    f, space, _ = extend_one_point(f, ball, kn, 1, "domain", space)
    space, w = realize_point(space, {1: F(33, 16)})
    assert space.d(0, w) == F(49, 16)
    small = Ball(0, F(49, 16))
    report = glue_identity_check(f, small, kn, space)
    assert not report.ok
    assert report.witness == (1, w)
    # exact failing ratio: d(f(x), w) = 68/16 > 2 * 33/16 = K * d(x, w)
    assert space.d(f.image_of(1), w) == F(68, 16)
    assert space.d(1, w) == F(33, 16)


def test_glue_check_agrees_with_the_mixed_pair_scan():
    # criterion-04 instances, each glued once in its own ball and once in a
    # ball shrunk to just past the map, with a point realized on the shrunk
    # boundary straight beyond the domain point most displaced for its
    # depth, so both verdicts occur
    rng = random.Random(4040)
    verdicts = []
    for _ in range(100):
        space, f, ball, kn = random_compliant_instance(
            rng, grow=rng.randint(1, 3))
        space = random_outside_points(rng, space, ball, 5)
        c = ball.center
        reach = max(space.d(c, z) for z in f.domain + f.images)
        u = max(f.domain, key=lambda z: space.d(z, f.image_of(z))
                - (kn.K - 1) * (reach - space.d(z, c)))
        rho = reach + (ball.radius - reach) * F(rng.randint(1, 8), 64)
        small = Ball(c, rho)
        space, _ = realize_point(space, {u: rho - space.d(u, c), c: rho})
        for b in (ball, small):
            want = glue_reference(f, b, kn.K, space)
            assert glue_identity_check(f, b, kn, space).ok == want
            verdicts.append(want)
    assert verdicts.count(False) >= 50 and verdicts.count(True) >= 100, (
        verdicts.count(False), verdicts.count(True))


def move_setup():
    space = FiniteMetricSpace.from_rows(("x",), ((0,),))
    space, u = realize_point(space, {0: F(1, 2)})
    space, v = realize_point(space, {0: F(1, 2), u: F(3, 4)})
    return space, u, v


def test_move_point_worked_constants():
    space, u, v = move_setup()
    res = move_point_in_ball(space, 0, 15, u, v)
    assert res.s == 1
    assert res.d_u_y == F(7, 2) and res.d_v_y == F(7, 2)
    assert 2 < res.d_u_y < 4 and 2 < res.d_v_y < 4
    duv = res.space.d(u, v)
    assert duv / (12 - res.d_u_y) < F(1, 4)
    assert res.map.image_of(u) == v
    # identity on every realized point outside the support ball
    for w in range(res.space.n):
        if not res.ball.strictly_inside(res.space, w):
            assert res.map.image_of(w) == w
    from urylab.core import lip_constant
    assert lip_constant(res.map, res.space) <= 2


def test_move_point_identity_branch():
    space, u, _ = move_setup()
    res = move_point_in_ball(space, 0, 15, u, u)
    assert res.identity
    assert res.map.image_of(u) == u


def test_move_point_certifies_its_seed_map_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return is_compliant(*args)

    monkeypatch.setattr(bilip, "is_compliant", counted)
    space, u, v = move_setup()
    space, w = random_point_in_ball(random.Random(3), space, Ball(0, F(1)))
    res = move_point_in_ball(space, 0, 15, u, v, targets=[w])
    assert len(res.trace.steps) == 2
    assert len(calls) == 1


def test_move_point_boundary_rejected():
    space = FiniteMetricSpace.from_rows(("x",), ((0,),))
    space, u = realize_point(space, {0: F(1)})
    with pytest.raises(PreconditionError):
        move_point_in_ball(space, 0, 15, u, u)  # d(u, x) = 1 = r/15 exactly


def test_segment_transport_examples():
    assert segment_transport_bound(1, 1) == (17, 2 ** 17)
    assert segment_transport_bound(0, 1) == (1, 2)
    assert segment_transport_bound(F(1, 32), 1) == (1, 2)
    with pytest.raises(PreconditionError):
        segment_transport_bound(1, 0)


def test_segment_transport_monotone():
    prev = 0
    for num in range(0, 40):
        n, _ = segment_transport_bound(F(num, 8), 2)
        assert n >= prev
        prev = n


def test_affine_constants_worked():
    a, b, N = affine_constants(4, 3, 2)
    assert (a, b, N) == (1, F(1, 9), 4)


def test_affine_constants_k2_always_n4():
    rng = random.Random(77)
    for _ in range(20):
        r0 = F(rng.randint(1, 40), rng.randint(1, 8))
        s = F(rng.randint(1, 40), rng.randint(1, 8))
        assert affine_constants(r0, s, 2)[2] == 4


def test_affine_constants_min_branch():
    a, _, _ = affine_constants(4, 1000, 2)
    assert a == 1  # r0/4 branch when s is huge
