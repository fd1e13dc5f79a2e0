"""Extension of maps controlled by modulus pairs, the necessity instance,
net-refined images, and the separation witness."""

import random
from fractions import Fraction as F

import pytest

from urylab import (FiniteMetricSpace, MCSemigroup, PLFunction, PartialMap,
                    PreconditionError, extend_one_point_mc,
                    extend_totally_bounded, katetov_extend, linear,
                    necessity_counterexample, separation_witness,
                    validate_space)
from urylab.gen import line_space, random_bicontinuous_instance, \
    random_point_in_ball
from urylab.core import Ball
from urylab.mc_extend import bicontinuity_violations

KINKED = PLFunction.from_points([(0, 0), (1, 1)], F(1, 2))


def test_single_point_domain_extension():
    X = FiniteMetricSpace.from_rows(("x0", "p"), ((0, 1), (1, 0)))
    Y = FiniteMetricSpace.from_rows(("y0",), ((0,),))
    f = PartialMap((0,), (0,))
    ext = extend_one_point_mc(f, X, Y, linear(2), linear(2), 1)
    assert ext.rng_space.d(ext.q, 0) == 2


def test_isometry_case_reduces_to_shortest_path_point():
    rng = random.Random(7)
    from urylab.gen import random_space
    X = random_space(rng, 4)
    ball = Ball(0, X.diameter() + 1)
    X, p = random_point_in_ball(rng, X, ball)
    Y = FiniteMetricSpace(tuple(f"y{i}" for i in range(4)),
                          tuple(tuple(row[:4]) for row in X.dist[:4]))
    f = PartialMap((0, 1, 2, 3), (0, 1, 2, 3))
    ident = linear(1)
    ext = extend_one_point_mc(f, X, Y, ident, ident, p)
    g = katetov_extend(Y, {y: X.d(y, p) for y in range(4)})
    assert tuple(ext.rng_space.dist[ext.q][:4]) == g
    # equality bounds force an isometry on checked pairs
    for z in range(4):
        assert ext.rng_space.d(ext.q, z) == X.d(p, z)


def test_incompatible_pair_rejected():
    X = FiniteMetricSpace.from_rows(
        ("x0", "x1", "p"), ((0, 1, 1), (1, 0, 2), (1, 2, 0)))
    Y = FiniteMetricSpace.from_rows(("y0", "y1"), ((0, 1), (1, 0)))
    f = PartialMap((0, 1), (0, 1))
    with pytest.raises(PreconditionError):
        extend_one_point_mc(f, X, Y, KINKED, linear(1), 2)


def test_extension_rejects_non_bicontinuous_map():
    X = FiniteMetricSpace.from_rows(("x0", "x1", "p"),
                                    ((0, 1, 1), (1, 0, 2), (1, 2, 0)))
    Y = FiniteMetricSpace.from_rows(("y0", "y1"), ((0, 5), (5, 0)))
    f = PartialMap((0, 1), (0, 1))
    with pytest.raises(PreconditionError):
        extend_one_point_mc(f, X, Y, linear(2), linear(2), 2)


def test_random_instances_extend_and_verify():
    rng = random.Random(1207)
    for _ in range(20):
        alpha, beta, f, dom, rng_space = random_bicontinuous_instance(rng)
        ball = Ball(0, dom.diameter() + 1)
        dom, p = random_point_in_ball(rng, dom, ball)
        ext = extend_one_point_mc(f, dom, rng_space, alpha, beta, p)
        assert not bicontinuity_violations(ext.map, dom, ext.rng_space,
                                           alpha, beta)
        assert validate_space(ext.rng_space).ok


def test_new_image_row_is_the_whole_range_minimum():
    # f restricted to part of its domain leaves range points off the image;
    # the new row must still be min over z of d(f(z), y) + beta(d(z, p)).
    rng = random.Random(4410)
    off_image = 0
    for _ in range(20):
        alpha, beta, f, dom, rng_space = random_bicontinuous_instance(rng)
        keep = sorted(rng.sample(range(len(f)), rng.randint(1, len(f) - 1)))
        f = PartialMap(tuple(f.domain[i] for i in keep),
                       tuple(f.images[i] for i in keep))
        ball = Ball(0, dom.diameter() + 1)
        dom, p = random_point_in_ball(rng, dom, ball)
        ext = extend_one_point_mc(f, dom, rng_space, alpha, beta, p)
        whole = [min(rng_space.d(fz, y) + beta.value(dom.d(z, p))
                     for z, fz in f.pairs())
                 for y in range(rng_space.n)]
        assert [ext.rng_space.d(ext.q, y)
                for y in range(rng_space.n)] == whole
        off_image += rng_space.n - len(f)
    assert off_image > 0


def test_necessity_certificate_at_one_one():
    bundle = necessity_counterexample(KINKED, linear(1), 1, 1)
    cert = bundle.certificate
    assert (cert.lhs, cert.rhs) == (3, 2) and cert.ok
    assert validate_space(bundle.dom_space).ok
    assert validate_space(bundle.rng_space).ok
    # independent re-verification: any q obeying both bounds breaks the
    # triangle through y0
    assert cert.lhs > cert.upper_bound + cert.range_gap


def test_necessity_scaled_instance():
    cert = necessity_counterexample(KINKED, linear(1), 2, 2).certificate
    assert (cert.lhs, cert.rhs) == (7, 5) and cert.ok


def test_necessity_requires_a_failure():
    with pytest.raises(PreconditionError):
        necessity_counterexample(linear(1), linear(1), 1, 1)


def convergent_sequence_setup(n_points=16, n_levels=9, distinct_nets=4):
    pos = [F(1, 2 ** k) for k in range(n_points)]
    X = line_space(pos + [F(0)],
                   [f"x{k}" for k in range(n_points)] + ["p"])
    Y = line_space(pos, [f"y{k}" for k in range(n_points)])
    f = PartialMap(tuple(range(n_points)), tuple(range(n_points)))
    nets = [tuple(range(min(n_points, n + 3))) for n in range(distinct_nets)]
    nets += [tuple(range(n_points))] * (n_levels - distinct_nets)
    eps = [F(1, 2 ** (n + 1)) for n in range(n_levels)]
    return X, Y, f, nets, eps


def test_net_refinement_gap_bounds():
    X, Y, f, nets, eps = convergent_sequence_setup()
    res = extend_totally_bounded(f, X, Y, linear(2), linear(2), 16, nets, eps)
    assert len(res.levels) == 9
    for lv in res.levels[1:]:
        assert lv.gap < lv.gap_bound
    # final bounds on the deepest net
    q = res.q
    for x in range(16):
        d = X.d(16, x)
        got = res.rng_space.d(q, x)
        assert d / 2 <= got <= 2 * d


def test_net_refinement_stabilizes_on_full_net():
    X, Y, f, nets, eps = convergent_sequence_setup(n_points=5, n_levels=3,
                                                   distinct_nets=1)
    nets = [tuple(range(5))] * 3
    res = extend_totally_bounded(f, X, Y, linear(2), linear(2), 5, nets, eps)
    assert res.levels[1].gap == 0 and res.levels[2].gap == 0
    assert res.levels[0].q == res.levels[1].q == res.levels[2].q
    # with the full domain as first net, q_0 is the one-shot extension point
    one_shot = extend_one_point_mc(f, X, Y, linear(2), linear(2), 5)
    for y in range(5):
        assert res.rng_space.d(res.q, y) == one_shot.rng_space.d(one_shot.q, y)


def test_net_refinement_with_stretched_range():
    # non-isometric f: the range is the domain scaled by 3/2, still within
    # the (2x, 2x) window
    pos = [F(1, 2 ** k) for k in range(12)]
    X = line_space(pos + [F(0)], [f"x{k}" for k in range(12)] + ["p"])
    Y = line_space([F(3, 2) * p for p in pos],
                   [f"y{k}" for k in range(12)])
    f = PartialMap(tuple(range(12)), tuple(range(12)))
    nets = [tuple(range(min(12, n + 3))) for n in range(4)]
    nets += [tuple(range(12))] * 2
    eps = [F(1, 2 ** (n + 1)) for n in range(6)]
    res = extend_totally_bounded(f, X, Y, linear(2), linear(2), 12, nets, eps)
    for lv in res.levels[1:]:
        assert lv.gap < lv.gap_bound
    for x in range(12):
        d = X.d(12, x)
        assert d / 2 <= res.rng_space.d(res.q, x) <= 2 * d


def test_net_refinement_single_level():
    X, Y, f, nets, eps = convergent_sequence_setup(n_levels=1)
    res = extend_totally_bounded(f, X, Y, linear(2), linear(2), 16,
                                 nets[:1], eps[:1])
    assert len(res.levels) == 1 and res.levels[0].gap is None


def test_net_refinement_uncovered_point_rejected():
    X, Y, f, nets, eps = convergent_sequence_setup()
    bad_nets = [nets[0]] + [nets[0]] * 8   # never refines below eps_8
    with pytest.raises(PreconditionError) as err:
        extend_totally_bounded(f, X, Y, linear(2), linear(2), 16,
                               bad_nets, eps)
    assert "uncovered" in str(err.value)


def test_net_refinement_eps_bound_checked():
    X, Y, f, nets, eps = convergent_sequence_setup()
    eps[3] = F(1)   # beta(1) = 2 > 2^-3
    with pytest.raises(PreconditionError):
        extend_totally_bounded(f, X, Y, linear(2), linear(2), 16, nets, eps)


GAMMA = PLFunction.from_points(
    [(F(0), F(0))] + [(F(1, 4 ** k), F(1, 2 ** k)) for k in range(4, -1, -1)],
    F(1, 2))


def test_gamma_interpolation_values():
    for k in range(5):
        assert GAMMA.value(F(1, 4 ** k)) == F(1, 2 ** k)
    assert GAMMA.value(F(1, 16)) == F(1, 4) > F(3, 16)  # beats 3x at 1/16


def test_separation_witness_certificate():
    delta = MCSemigroup(tuple(linear(i) for i in range(1, 11)))
    w = separation_witness(GAMMA, delta, 2)
    cert = w.certificate
    assert cert.ok and cert.bicontinuity_ok
    assert {c.generator for c in cert.scale_checks} == set(range(10))
    for c in cert.scale_checks:
        assert c.gamma_value > c.generator_value
    assert validate_space(w.space).ok
    assert w.map.image_of(0) == 0


def test_separation_witness_depth_zero():
    delta = MCSemigroup((linear(2),))
    w = separation_witness(GAMMA, delta, 0)
    assert w.certificate.ok and not w.certificate.scale_checks
    assert len(w.map) == 1


def test_separation_witness_dominated_rejected():
    delta = MCSemigroup((linear(2), GAMMA))
    with pytest.raises(PreconditionError):
        separation_witness(GAMMA, delta, 2)
