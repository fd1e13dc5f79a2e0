"""Extension of maps controlled by modulus pairs, the necessity instance,
net-refined images, and the separation witness."""

import random
import sys
from fractions import Fraction as F

import pytest

from urylab import (FiniteMetricSpace, MCSemigroup, PLFunction, PartialMap,
                    PreconditionError, extend_one_point_mc,
                    extend_totally_bounded, katetov_extend, linear,
                    necessity_counterexample, separation_witness,
                    validate_space)
from urylab import mc_extend
from urylab.amalgam import realize_point
from urylab.core import Ball
from urylab.errors import UnreportableError
from urylab.gen import line_space, random_bicontinuous_instance, \
    random_modulus, random_point_in_ball
from urylab.mc_extend import bicontinuity_violations, require_bicontinuous

from oracle_utils import separation_witness_reference

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


@pytest.mark.parametrize("alpha, beta, f, text", [
    (KINKED, linear(1), PartialMap((0, 1), (0, 1)), "moduli fail"),
    (linear(1), linear(1), PartialMap((), ()), "empty map"),
    (linear(1), linear(1), PartialMap((0, 2), (0, 1)),
     "new point already in the domain"),
])
def test_both_extensions_reject_an_input_with_one_text(alpha, beta, f, text):
    X = FiniteMetricSpace.from_rows(
        ("x0", "x1", "p"), ((0, 1, 1), (1, 0, 2), (1, 2, 0)))
    Y = FiniteMetricSpace.from_rows(("y0", "y1"), ((0, 1), (1, 0)))
    with pytest.raises(PreconditionError) as one:
        extend_one_point_mc(f, X, Y, alpha, beta, 2)
    with pytest.raises(PreconditionError) as nets:
        extend_totally_bounded(f, X, Y, alpha, beta, 2, [f.domain],
                               [F(1, 2)])
    assert text in str(one.value)
    assert str(nets.value) == str(one.value)


def test_extension_rejects_non_bicontinuous_map():
    X = FiniteMetricSpace.from_rows(("x0", "x1", "p"),
                                    ((0, 1, 1), (1, 0, 2), (1, 2, 0)))
    Y = FiniteMetricSpace.from_rows(("y0", "y1"), ((0, 5), (5, 0)))
    f = PartialMap((0, 1), (0, 1))
    with pytest.raises(PreconditionError):
        extend_one_point_mc(f, X, Y, linear(2), linear(2), 2)


# alpha_inv(2) = 1 and beta(2) = 3 bound an image distance at domain distance 2
STEEP = PLFunction.from_points([(0, 0), (1, 2)], 1)
EDGES = pytest.mark.parametrize("e, msg", [
    (F(3), None),
    (F(3001, 1000), "image distance 3001/1000 > beta(2) = 3"),
    (F(1), None),
    (F(999, 1000), "image distance 999/1000 < alpha_inv(2) = 1"),
], ids=["beta_exact", "beta_over", "alpha_inv_exact", "alpha_inv_under"])


@EDGES
def test_bicontinuity_bounds_are_inclusive(e, msg):
    X = FiniteMetricSpace.from_rows(("x0", "x1"), ((0, 2), (2, 0)))
    Y = FiniteMetricSpace.from_rows(("y0", "y1"), ((0, e), (e, 0)))
    f = PartialMap((0, 1), (0, 1))
    got = bicontinuity_violations(f, X, Y, linear(2), STEEP)
    assert got == ([] if msg is None else [(0, 1, msg)])


# both extensions, the second with the whole domain as its one net
BOTH_EXTENSIONS = pytest.mark.parametrize("extend", [
    extend_one_point_mc,
    lambda f, X, Y, alpha, beta, p: extend_totally_bounded(
        f, X, Y, alpha, beta, p, [f.domain], [F(1, 4)]),
], ids=["one_point", "nets"])


@BOTH_EXTENSIONS
@EDGES
def test_new_pair_bounds_are_inclusive(monkeypatch, extend, e, msg):
    X = FiniteMetricSpace.from_rows(("x0", "p"), ((0, 2), (2, 0)))
    Y = FiniteMetricSpace.from_rows(("y0",), ((0,),))
    f = PartialMap((0,), (0,))
    monkeypatch.setattr(mc_extend, "_prescribe", lambda *a: {0: e})
    if msg is None:
        out = extend(f, X, Y, linear(2), STEEP, 1)
        assert out.rng_space.d(out.q, 0) == e
        return
    with pytest.raises(PreconditionError) as exc:
        extend(f, X, Y, linear(2), STEEP, 1)
    assert str(exc.value) == (
        f"map is not (beta, alpha)-bicontinuous on pair ('x0', 'p'): {msg}")


@BOTH_EXTENSIONS
def test_new_pair_check_raises_the_full_scan_text(monkeypatch, extend):
    # f doubles distances on a line; a q at -9 on the range line is within
    # the bounds against x0 but breaks beta against x1 and x2
    X = line_space([0, 1, 3, 6], ["x0", "x1", "x2", "p"])
    Y = line_space([0, 2, 6], ["y0", "y1", "y2"])
    f = PartialMap((0, 1, 2), (0, 1, 2))
    alpha = beta = linear(2)
    values = {0: F(9), 1: F(11), 2: F(15)}
    grown, q = realize_point(Y, values)
    with pytest.raises(PreconditionError) as full:
        require_bicontinuous(f.extended(3, q), X, grown, alpha, beta)
    monkeypatch.setattr(mc_extend, "_prescribe", lambda *a: dict(values))
    with pytest.raises(PreconditionError) as new:
        extend(f, X, Y, alpha, beta, 3)
    assert str(new.value) == str(full.value)
    assert "('x1', 'p'): image distance 11 > beta(5) = 10" in str(new.value)


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


@pytest.mark.parametrize("alpha, s, t, text", [
    (KINKED, 0, 1, "need s, t > 0"),
    (KINKED, 1, 0, "need s, t > 0"),
    (KINKED, F(-1, 2), 1, "need s, t > 0"),
    (KINKED, 1, -1, "need s, t > 0"),
    # alpha_inv has slope 2 near 0, beta = identity only 1
    (linear(F(1, 2)), 1, 1, "alpha_inv exceeds beta near 0; no bicontinuous "
                            "map exists at any scale for this pair"),
])
def test_necessity_rejects_its_preconditions(alpha, s, t, text):
    with pytest.raises(PreconditionError) as exc:
        necessity_counterexample(alpha, linear(1), s, t)
    assert str(exc.value) == text


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


# Each edit of the default setup breaks one check of the nets; level 0 is
# nets[0] = (0, 1, 2) and level 1 is nets[1] = (0, 1, 2, 3).
@pytest.mark.parametrize("edit, text", [
    (lambda nets, eps: (nets, eps[:-1]), "need one epsilon per net"),
    (lambda nets, eps: ([], []), "need one epsilon per net"),
    (lambda nets, eps: ([()] + nets[1:], eps), "net 0 is empty"),
    (lambda nets, eps: ([(0, 1, 1, 2)] + nets[1:], eps),
     "net 0 lists a point twice"),
    (lambda nets, eps: ([(0, 1, 2, 16)] + nets[1:], eps),
     "net 0 is not a subset of the domain"),
    (lambda nets, eps: (nets[:1] + [(1, 2, 3)] + nets[2:], eps),
     "net 1 does not refine net 0"),
], ids=["eps-count", "no-nets", "empty", "repeated", "outside", "refine"])
def test_net_refinement_rejects_a_bad_net(edit, text):
    X, Y, f, nets, eps = convergent_sequence_setup()
    nets, eps = edit(nets, eps)
    with pytest.raises(PreconditionError) as exc:
        extend_totally_bounded(f, X, Y, linear(2), linear(2), 16, nets, eps)
    assert str(exc.value) == text


@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="int() digit limit is disabled")
def test_net_refinement_texts_past_the_digit_limit_are_unreportable():
    # beta(eps_0) = 2 * 10^(limit + 1) > 1, then every point but the net's
    # uncovered at scale 10^-(limit + 1)
    X, Y, f, nets, _ = convergent_sequence_setup()
    huge = 10 ** (sys.get_int_max_str_digits() + 1)
    for ep in (F(huge), F(1, huge)):
        with pytest.raises(UnreportableError, match="^Exceeds the limit"):
            extend_totally_bounded(f, X, Y, linear(2), linear(2), 16,
                                   nets[:1], [ep])


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
    # each check reads its scale t = d(x_j, x) and gamma(t) = d(y_j, x)
    # off the space, over the map's pairs in order
    read = [(w.space.d(xj, 0), w.space.d(yj, 0))
            for xj, yj in w.map.pairs()[1:]]
    assert [(c.t, c.gamma_value) for c in cert.scale_checks] == [
        pair for pair in read for _ in range(10)]
    for t, g in read:
        assert g == GAMMA.value(t)


def test_separation_witness_depth_zero():
    delta = MCSemigroup((linear(2),))
    w = separation_witness(GAMMA, delta, 0)
    assert w.certificate.ok and not w.certificate.scale_checks
    assert len(w.map) == 1


@pytest.mark.parametrize("delta, depth, text", [
    (MCSemigroup((linear(1),)), 2,
     "invalid generating set: no generator dominates the doubling map"),
    (MCSemigroup((linear(2),)), -1, "depth must be nonnegative"),
], ids=["generators", "depth"])
def test_separation_witness_rejects_its_preconditions(delta, depth, text):
    with pytest.raises(PreconditionError) as exc:
        separation_witness(GAMMA, delta, depth)
    assert str(exc.value) == text


@pytest.mark.parametrize("gens, depth, points", [
    ((linear(2),), 256, 513),
    ((linear(2),), 257, None),
    ((linear(2),), 10 ** 30, None),
    # two generators at tops 1 and 1/3 choose disjoint scales
    ((linear(2), PLFunction.from_points([(F(0), F(0)), (F(1, 3), F(1))],
                                        F(1))), 128, 513),
    ((linear(2), PLFunction.from_points([(F(0), F(0)), (F(1, 3), F(1))],
                                        F(1))), 129, None),
], ids=["one-at-cap", "one-past-cap", "one-huge", "two-at-cap",
        "two-past-cap"])
def test_separation_witness_point_cap(gens, depth, points):
    gamma = PLFunction.from_points([(F(0), F(0))], F(4))
    if points is None:
        with pytest.raises(PreconditionError) as exc:
            separation_witness(gamma, MCSemigroup(gens), depth)
        assert str(exc.value) == (f"a witness of depth {depth} needs more "
                                  f"than 513 points")
        return
    w = separation_witness(gamma, MCSemigroup(gens), depth)
    assert w.space.n == points and w.certificate.ok


def test_separation_witness_dominated_rejected():
    delta = MCSemigroup((linear(2), GAMMA))
    with pytest.raises(PreconditionError):
        separation_witness(GAMMA, delta, 2)


def _witness_or_refusal(build, gamma, delta, depth):
    try:
        return build(gamma, delta, depth)
    except PreconditionError as exc:
        return str(exc)


def test_separation_witness_equals_the_realize_point_chain():
    rng = random.Random(31)
    witnesses = 0
    for _ in range(300):
        gamma = random_modulus(rng)
        delta = MCSemigroup(tuple(random_modulus(rng)
                                  for _ in range(rng.randint(1, 3))))
        depth = rng.randint(0, 12)
        got = _witness_or_refusal(separation_witness, gamma, delta, depth)
        want = _witness_or_refusal(separation_witness_reference, gamma,
                                   delta, depth)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
            continue
        witnesses += 1
        assert got.space.labels == want.space.labels
        assert got.space.dist == want.space.dist
        assert all(type(v) is F for row in got.space.dist for v in row)
        assert got.map == want.map
        assert got.certificate == want.certificate
    assert witnesses >= 40


def test_separation_witness_realizes_no_point(monkeypatch):
    def refuse(*args):
        raise AssertionError("realize_point called")
    monkeypatch.setattr(mc_extend, "realize_point", refuse)
    delta = MCSemigroup(tuple(linear(i) for i in range(1, 11)))
    w = separation_witness(GAMMA, delta, 3)
    assert w.certificate.ok
    space = w.space
    assert space.labels == ("x",) + tuple(f"q{k}" for k in range(1, space.n))
    # the star metric: every point hangs off x
    for a in range(1, space.n):
        for b in range(1, space.n):
            if a != b:
                assert space.d(a, b) == space.d(a, 0) + space.d(0, b)
