"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here: almost everything is exact (Fraction equality or
strict rational inequalities); the single approximate comparison is the
grid oracle's stated 1/1024 resolution.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from urylab import (Ball, FiniteMetricSpace, MCSemigroup, PLFunction,
                    PartialMap, affine_constants, dist_L, dist_S,
                    dist_hat, extend_dense, extend_one_point,
                    extend_one_point_mc, extend_totally_bounded,
                    glue_identity_check, is_compliant, kn_admissible,
                    linear, move_point_in_ball,
                    necessity_counterexample, realize_point,
                    segment_transport_bound, separation_witness,
                    validate_space)
from urylab.gen import (line_space, random_bicontinuous_instance,
                        random_compliant_instance, random_outside_points,
                        random_point_in_ball, random_space)
from urylab.mc_extend import bicontinuity_violations
from oracle_utils import (GRID, assert_condition_g, assert_pairwise_bounds,
                          center_first_pairs, grid_endpoints)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {title}")


def test_criterion_01_feasibility_suite():
    with criterion(1, "one-point feasibility: 500 seeded instances, "
                      "pairwise bounds exact, grid oracle at 1/1024"):
        start = time.monotonic()
        rng = random.Random(101)
        for _ in range(500):
            space, f, ball, kn = random_compliant_instance(
                rng, grow=rng.randint(0, 5))
            assert len(f) <= 6
            space, x = random_point_in_ball(rng, space, ball)
            _, _, step = extend_one_point(f, ball, kn, x, "domain", space)
            assert_pairwise_bounds(step)
            pairs = center_first_pairs(f, ball.center)
            prior = []
            for m, rec in enumerate(step.solves):
                assert rec.lo <= rec.hi
                ends = grid_endpoints(space, ball, kn.K, kn.N, pairs, x,
                                      prior, m, rec.lo, rec.hi)
                assert ends is not None
                oracle_lo, oracle_hi = ends
                assert abs(oracle_lo - rec.lo) <= GRID
                assert abs(oracle_hi - rec.hi) <= GRID
                prior.append(rec.chosen)
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_02_worked_instance_regression():
    with criterion(2, "worked instance: interval [1/2,2], e=5/4, s=35/16"):
        start = time.monotonic()
        space = FiniteMetricSpace.from_rows(("x1", "x"), ((0, 1), (1, 0)))
        ball, kn = Ball(0, F(10)), kn_admissible(2, 4)
        f = PartialMap((0,), (0,))
        _, _, step = extend_one_point(f, ball, kn, 1, "domain", space)
        rec = step.solves[0]
        assert (rec.lo, rec.hi) == (F(1, 2), F(2))
        assert rec.chosen == F(5, 4)
        assert step.s == F(35, 16)
        assert time.monotonic() - start < 1


def test_criterion_03_compliance_preservation():
    with criterion(3, "extend_dense: 20 targets x 100 instances, every "
                      "intermediate compliant, condition (G) exact"):
        rng = random.Random(103)
        for _ in range(100):
            space, f, ball, kn = random_compliant_instance(
                rng, grow=rng.randint(0, 1))
            targets = []
            for _ in range(20):
                space, x = random_point_in_ball(rng, space, ball)
                targets.append(x)
            final, space, trace = extend_dense(f, ball, kn, targets, space)
            assert_condition_g(trace, f, ball, kn, space)
            current = f
            for step in trace.steps:
                if step.noop:
                    continue
                if step.side == "domain":
                    current = current.extended(step.target, step.realized)
                else:
                    current = current.extended(step.realized, step.target)
                assert is_compliant(current, ball, kn, space).ok
            assert current == final


def test_criterion_04_gluing():
    with criterion(4, "glued identity is K-bilipschitz on 100 instances "
                      "with 5 outside points"):
        rng = random.Random(104)
        for _ in range(100):
            space, f, ball, kn = random_compliant_instance(
                rng, grow=rng.randint(1, 3))
            assert 1 + F(1) / kn.N <= kn.K
            space = random_outside_points(rng, space, ball, 5)
            report = glue_identity_check(f, ball, kn, space)
            assert report.ok and not report.vacuous


def test_criterion_05_admissibility_boundary():
    with criterion(5, "admissibility boundary exact at N = K^2/(K-1)"):
        assert kn_admissible(2, 4).admissible
        rng = random.Random(105)
        for _ in range(100):
            K = 1 + F(rng.randint(1, 9 * 64), 64)   # K in (1, 10]
            n_star = K * K / (K - 1)
            assert kn_admissible(K, n_star).admissible
            assert not kn_admissible(K, n_star - F(1, 1000)).admissible


def test_criterion_06_mc_extension_suite():
    with criterion(6, "one-point modulus extension: 200 compatible "
                      "instances exact; obstruction certificate 3 > 2"):
        rng = random.Random(106)
        for _ in range(200):
            alpha, beta, f, dom, rng_space = random_bicontinuous_instance(
                rng, n=rng.randint(2, 5))
            ball = Ball(0, dom.diameter() + 1)
            dom, p = random_point_in_ball(rng, dom, ball)
            ext = extend_one_point_mc(f, dom, rng_space, alpha, beta, p)
            assert not bicontinuity_violations(ext.map, dom, ext.rng_space,
                                               alpha, beta)
        kinked = PLFunction.from_points([(0, 0), (1, 1)], F(1, 2))
        cert = necessity_counterexample(kinked, linear(1), 1, 1).certificate
        assert cert.lhs == 3 and cert.rhs == 2 and cert.ok


def test_criterion_07_net_refinement_gap_bound():
    with criterion(7, "net-refined image gaps d(q_n, q_n+1) < 2^(1-n) "
                      "exact through n = 8"):
        pos = [F(1, 2 ** k) for k in range(16)]
        X = line_space(pos + [F(0)], [f"x{k}" for k in range(16)] + ["p"])
        Y = line_space(pos, [f"y{k}" for k in range(16)])
        f = PartialMap(tuple(range(16)), tuple(range(16)))
        nets = [tuple(range(min(16, n + 3))) for n in range(4)]
        nets += [tuple(range(16))] * 5            # levels up to n = 8
        eps = [F(1, 2 ** (n + 1)) for n in range(9)]
        res = extend_totally_bounded(f, X, Y, linear(2), linear(2), 16,
                                     nets, eps)
        assert len(res.levels) == 9
        for lv in res.levels[1:]:
            assert lv.gap < F(2) ** (2 - lv.n)
        for x in range(16):
            d = X.d(16, x)
            assert d / 2 <= res.rng_space.d(res.q, x) <= 2 * d


def test_criterion_08_move_constants():
    with criterion(8, "one-point move: d(u,y), d(v,y) in (2s,4s), ratio "
                      "< 1/4 on 50 instances; chain bounds (17, 2^17)/(1, 2)"):
        rng = random.Random(108)
        for i in range(50):
            space = FiniteMetricSpace.from_rows(("x",), ((0,),))
            r = F(rng.randint(15, 60))
            s = r / 15
            bound = s * F(15, 16)
            space, u = realize_point(space,
                                     {0: F(rng.randint(1, 14), 16) * s})
            rho_v = F(rng.randint(1, 14), 16) * s
            dxu = space.d(0, u)
            lo, hi = abs(rho_v - dxu), min(rho_v + dxu, bound)
            duv = lo + (hi - lo) * F(rng.randint(0, 8), 8)
            if duv == 0:
                duv = hi
            space, v = realize_point(space, {0: rho_v, u: duv})
            targets = []
            if i % 3 == 0:
                space, w = random_point_in_ball(rng, space, Ball(0, s))
                targets.append(w)
            res = move_point_in_ball(space, 0, r, u, v, targets=targets)
            if res.identity:
                continue
            assert 2 * res.s < res.d_u_y < 4 * res.s
            assert 2 * res.s < res.d_v_y < 4 * res.s
            duv_final = res.space.d(u, v)
            assert duv_final / (12 * res.s - res.d_u_y) < F(1, 4)
            assert duv_final / (12 * res.s - res.d_v_y) < F(1, 4)
            assert res.map.image_of(u) == v
            from urylab.core import lip_constant
            assert lip_constant(res.map, res.space) <= 2
        assert segment_transport_bound(7, 7) == (17, 2 ** 17)
        assert segment_transport_bound(0, 7) == (1, 2)


def test_criterion_09_affine_identity():
    with criterion(9, "(a-b)/(2b) = K^2/(K-1) exact for 100 random K > 1"):
        rng = random.Random(109)
        for _ in range(100):
            K = 1 + F(rng.randint(1, 400), rng.randint(1, 40))
            r0 = F(rng.randint(1, 80), rng.randint(1, 8))
            s = F(rng.randint(1, 80), rng.randint(1, 8))
            a, b, N = affine_constants(r0, s, K)
            assert (a - b) / (2 * b) == K * K / (K - 1)


def test_criterion_10_group_metric_axioms():
    with criterion(10, "group metric axioms on 200 triples of a 12-point "
                       "workspace; left invariance exact"):
        rng = random.Random(110)
        space = random_space(rng, 12)
        from urylab.gen import random_permutation_map
        for _ in range(200):
            f = random_permutation_map(rng, space)
            g = random_permutation_map(rng, space)
            h = random_permutation_map(rng, space)
            assert dist_hat(f, f).is_zero()
            assert dist_hat(f, g).is_zero() == (f.images == g.images)
            assert dist_S(f, g) == dist_S(g, f)
            assert dist_L(f, g) == dist_L(g, f)
            assert dist_S(f, h) <= dist_S(f, g) + dist_S(g, h)
            assert dist_L(f, h) <= dist_L(f, g) * dist_L(g, h)
            assert dist_L(h.compose(f), h.compose(g)) == dist_L(f, g)


def test_criterion_11_separation_witness():
    with criterion(11, "separation witness exceeds every generator i <= 10 "
                       "and is (2*gamma)-bicontinuous, exact"):
        gamma = PLFunction.from_points(
            [(F(0), F(0))] + [(F(1, 4 ** k), F(1, 2 ** k))
                              for k in range(4, -1, -1)],
            F(1, 2))
        delta = MCSemigroup(tuple(linear(i) for i in range(1, 11)))
        witness = separation_witness(gamma, delta, 3)
        cert = witness.certificate
        assert cert.bicontinuity_ok
        assert {c.generator for c in cert.scale_checks} == set(range(10))
        for c in cert.scale_checks:
            assert c.gamma_value == gamma.value(c.t)
            assert c.gamma_value > c.generator_value
        assert validate_space(witness.space).ok
