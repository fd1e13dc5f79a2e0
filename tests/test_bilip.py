"""Admissibility, the one-point compliant extension solver, and the
explicit constructions built on it."""

import random
from fractions import Fraction as F

import pytest

from urylab import (Ball, DegenerateInputError, ExtensionTrace,
                    FiniteMetricSpace, PartialMap, PreconditionError,
                    affine_constants, bilip, extend_dense, extend_one_point,
                    glue_identity_check, goodness_check, io, is_compliant,
                    kn_admissible, move_point_in_ball, realize_point,
                    segment_transport_bound, validate_space)
from urylab.cli import verify_trace_lines
from urylab.gen import (random_compliant_instance, random_outside_points,
                        random_point_in_ball)
from oracle_utils import (assert_condition_g, assert_pairwise_bounds,
                          center_first_pairs, feasible_e)


def radical_interval_oracle(K, N):
    """Squaring-based restatement: K lies in the closed radical interval iff
    N >= 4 and (2K - N)^2 <= N^2 - 4N, all over the rationals."""
    return K > 1 and N >= 4 and (2 * K - N) ** 2 <= N * N - 4 * N


def test_kn_boundary_examples():
    kn = kn_admissible(2, 4)
    assert kn.admissible and kn.reciprocal_sum_ok
    assert not kn_admissible(F(3, 2), 4).admissible  # K^2/(K-1) = 9/2 > 4
    assert not kn_admissible(1, 100).admissible


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
    report = glue_identity_check(f, Ball(0, 4), kn_admissible(2, 4), space)
    assert report.ok and not report.vacuous


def test_glue_vacuous_without_outside_points():
    space, ball, kn, f = worked_setup()
    report = glue_identity_check(f, ball, kn, space)
    assert report.ok and report.vacuous


def test_glue_worked_instance_with_outside_points():
    space, ball, kn, f = worked_setup()
    f, space, _ = extend_one_point(f, ball, kn, 1, "domain", space)
    space = random_outside_points(random.Random(6), space, ball, 5)
    report = glue_identity_check(f, ball, kn, space)
    assert report.ok and not report.vacuous


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
