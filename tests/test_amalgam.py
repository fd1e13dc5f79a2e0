"""Amalgamation intervals, space merging, and Katetov realization.

The one-point interval is read off ``amalgamate``: with a single unknown
pair its minimal and maximal results are the interval's two ends.
"""

import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from urylab import (FiniteMetricSpace, PartialMap, PreconditionError,
                    amalgam, amalgamate, bilip, extend_dense, extend_one_point,
                    katetov_extend, kn_admissible, realize_point,
                    validate_space)
from urylab.amalgam import (POLICIES, _katetov_fill, katetov_violations,
                            max_gap, min_sum)
from urylab.core import Ball, split
from urylab.gen import random_point_in_ball, random_space
from urylab.mc_extend import _prescribe
from oracle_utils import (certify_new_row_reference, interval_ends_reference,
                          katetov_fill_reference, katetov_violations_reference,
                          prescribe_reference)


def _pair(label_a, label_b, d):
    return FiniteMetricSpace.from_rows((label_a, label_b), ((0, d), (d, 0)))


def _restrict(space, idx, labels):
    """The subspace on the points ``idx``, relabeled by ``labels``."""
    return FiniteMetricSpace.from_rows(
        labels, [[space.d(i, j) for j in idx] for i in idx])


def _ends(x0, x1):
    """d(p0, p1) under the minimal and maximal policies: with one unknown
    pair these are the ends of its interval (0 when p1 merges into p0)."""
    out = []
    for policy in ("minimal", "maximal"):
        merged = amalgamate(x0, x1, policy=policy)
        p1 = merged.labels.index("p1") if "p1" in merged.labels else None
        out.append(0 if p1 is None else merged.d(merged.index("p0"), p1))
    return tuple(out)


def test_interval_single_shared_point():
    assert _ends(_pair("p0", "z", 3), _pair("z", "p1", 1)) == (2, 4)


def test_interval_two_shared_points():
    # d(p0, .) = (1, 5) and d(., p1) = (2, 2) over z0, z1 at distance 4
    x0 = FiniteMetricSpace.from_rows(
        ("p0", "z0", "z1"), ((0, 1, 5), (1, 0, 4), (5, 4, 0)))
    x1 = FiniteMetricSpace.from_rows(
        ("z0", "z1", "p1"), ((0, 4, 2), (4, 0, 2), (2, 2, 0)))
    assert _ends(x0, x1) == (3, 3)


def test_interval_identification_case():
    assert _ends(_pair("p0", "z", 1), _pair("z", "p1", 1)) == (0, 2)


def test_interval_lo_le_hi_on_random_consistent_data():
    rng = random.Random(11)
    for _ in range(50):
        space = random_space(rng, 5)
        x0 = _restrict(space, (0, 1, 2, 3), ("z0", "z1", "z2", "p0"))
        x1 = _restrict(space, (0, 1, 2, 4), ("z0", "z1", "z2", "p1"))
        lo, hi = _ends(x0, x1)
        assert 0 <= lo <= space.d(3, 4) <= hi


def test_interval_empty_z_rejected():
    with pytest.raises(PreconditionError, match="^spaces share no points$"):
        amalgamate(_pair("a", "b", 1), _pair("c", "d", 1))


def test_interval_non_metric_distances_name_the_ends():
    # d(p0, .) = (1, 10) and d(., p1) = (1, 1) over z0, z1 at distance 2
    x0 = FiniteMetricSpace.from_rows(
        ("p0", "z0", "z1"), ((0, 1, 10), (1, 0, 2), (10, 2, 0)))
    x1 = FiniteMetricSpace.from_rows(
        ("z0", "z1", "p1"), ((0, 2, 1), (2, 0, 1), (1, 1, 0)))
    for policy in ("minimal", "midpoint", "maximal"):
        with pytest.raises(PreconditionError) as err:
            amalgamate(x0, x1, policy=policy)
        assert str(err.value) == (
            "no distance from new point 'p1' to 'p0': lower bound 9 via "
            "'z1' exceeds upper bound 2 via 'z0'; an input is not metric")


def test_amalgamate_subset_is_noop():
    x0 = random_space(random.Random(0), 4)
    sub = FiniteMetricSpace.from_rows(
        x0.labels[:2], tuple(tuple(row[:2]) for row in x0.dist[:2]))
    assert amalgamate(x0, sub) == x0


def test_amalgamate_midpoint_worked_instance():
    x0 = _pair("p0", "z", 3)
    x1 = _pair("z", "p1", 1)
    merged = amalgamate(x0, x1, policy="midpoint")
    assert merged.d(merged.index("p0"), merged.index("p1")) == 3
    assert validate_space(merged).ok


def test_amalgamate_minimal_identifies():
    x0 = _pair("p0", "z", 1)
    x1 = _pair("z", "p1", 1)
    merged = amalgamate(x0, x1, policy="minimal")
    # |X0| + |X1| - |Z| - 1: p1 merged into p0
    assert merged.n == 2 + 2 - 1 - 1


def test_amalgamate_unknown_policy_rejected():
    # on entry, even where nothing would be chosen
    x0 = random_space(random.Random(0), 4)
    sub = _restrict(x0, (0, 1), x0.labels[:2])
    center = FiniteMetricSpace.from_rows(("c", "x"), ((0, 1), (1, 0)))
    ball, kn, f = Ball(0, 10), kn_admissible(2, 4), PartialMap((0,), (0,))
    calls = [
        lambda: amalgamate(_pair("p0", "z", 3), _pair("z", "p1", 1),
                           policy="nearest"),
        lambda: amalgamate(x0, sub, policy="nearest"),
        lambda: extend_dense(f, ball, kn, [], center, policy="nearest"),
        lambda: extend_one_point(f, ball, kn, 0, "domain", center,
                                 policy="nearest"),
    ]
    for call in calls:
        with pytest.raises(PreconditionError) as err:
            call()
        assert str(err.value) == "unknown policy 'nearest'"


def test_amalgamate_disagreement_on_z_rejected():
    x0 = _pair("a", "z", 3)
    x1 = FiniteMetricSpace.from_rows(("a", "z"), ((0, 2), (2, 0)))
    with pytest.raises(PreconditionError):
        amalgamate(x0, x1)


def test_amalgamate_non_metric_input_names_the_empty_interval():
    x0 = FiniteMetricSpace.from_rows(
        ("a", "b", "c"), ((0, 1, 3), (1, 0, 1), (3, 1, 0)))
    x1 = FiniteMetricSpace.from_rows(
        ("a", "b", "m"), ((0, 1, 10), (1, 0, 1), (10, 1, 0)))
    for policy in ("minimal", "midpoint", "maximal"):
        with pytest.raises(PreconditionError) as err:
            amalgamate(x0, x1, policy=policy)
        assert str(err.value) == (
            "no distance from new point 'm' to 'c': lower bound 7 via 'a' "
            "exceeds upper bound 2 via 'b'; an input is not metric")


def test_amalgamate_restriction_and_idempotence():
    rng = random.Random(5)
    for policy in ("minimal", "midpoint", "maximal"):
        for _ in range(10):
            x0 = random_space(rng, rng.randint(3, 5))
            x1 = random_space(rng, rng.randint(2, 4))
            # rename to force a single shared point with consistent metric
            x1 = FiniteMetricSpace(
                (x0.labels[0],) + tuple(f"n{i}" for i in range(1, x1.n)),
                x1.dist)
            merged = amalgamate(x0, x1, policy=policy)
            assert validate_space(merged).ok
            for la in x0.labels:
                for lb in x0.labels:
                    assert merged.d(merged.index(la), merged.index(lb)) \
                        == x0.d(x0.index(la), x0.index(lb))
            for la in x1.labels:
                for lb in x1.labels:
                    assert merged.d(merged.index(la), merged.index(lb)) \
                        == x1.d(x1.index(la), x1.index(lb))
            again = amalgamate(merged, x1, policy="minimal")
            assert again == merged


def test_katetov_extend_shortest_path():
    w = _pair("a", "b", 2)
    assert katetov_extend(w, {0: 1}) == (F(1), F(3))


def test_katetov_extend_full_support_is_identity():
    w = _pair("a", "b", 2)
    assert katetov_extend(w, {0: 1, 1: 3}) == (F(1), F(3))


def test_katetov_extend_doubling_identity():
    rng = random.Random(8)
    for _ in range(20):
        space = random_space(rng, 5)
        w0 = 4
        vals = {a: space.d(a, w0) for a in range(3)}
        g = katetov_extend(space, vals)
        assert g[w0] == min(2 * space.d(a, w0) for a in range(3))
        assert not katetov_violations(space, dict(enumerate(g)))


def test_katetov_violation_reported():
    w = _pair("a", "b", 2)
    with pytest.raises(PreconditionError):
        katetov_extend(w, {0: 1, 1: 10})


def test_realize_zero_returns_existing_point():
    w = _pair("a", "b", 2)
    space, idx = realize_point(w, {0: 0})
    assert space is w and idx == 0


def test_realize_two_zeros_rejected():
    w = _pair("a", "b", 2)
    with pytest.raises(PreconditionError):
        realize_point(w, {0: 0, 1: 0})


def test_realize_worked_extension():
    w = _pair("a", "b", 2)
    grown, q = realize_point(w, {0: 1})
    assert grown.labels == ("a", "b", "q1")
    assert grown.d(q, 0) == 1 and grown.d(q, 1) == 3
    assert validate_space(grown).ok


def test_realize_chain_construction():
    space = FiniteMetricSpace.from_rows(("p0",), ((0,),))
    step = F(3, 2)
    for k in range(1, 6):
        space, _ = realize_point(space, {space.n - 1: step})
        assert validate_space(space).ok
    assert space.d(0, space.n - 1) == 5 * step


@st.composite
def prescriptions(draw):
    """A random space and a one-point prescription on part of it.

    A prescription read off a hidden extra point is valid on any support;
    freely drawn values are often invalid.  Each draw picks one of the two.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(1, 7))
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    if draw(st.booleans()):
        full = random_space(rng, n + 1)
        space = FiniteMetricSpace(full.labels[:n],
                                  tuple(row[:n] for row in full.dist[:n]))
        return space, {a: full.d(a, n) for a in support}
    space = random_space(rng, n)
    return space, {a: F(draw(st.integers(0, 40)), 8) for a in support}


@settings(max_examples=300, deadline=None)
@given(prescriptions())
def test_realize_point_fills_any_valid_prescription(case):
    space, values = case
    if katetov_violations(space, values):
        with pytest.raises(PreconditionError):
            realize_point(space, values)
        return
    grown, q = realize_point(space, values)
    assert validate_space(grown).ok
    assert all(grown.d(q, a) == v for a, v in values.items())
    assert tuple(row[:space.n] for row in grown.dist[:space.n]) == space.dist


def test_realize_after_extend_fuzz():
    rng = random.Random(13)
    for _ in range(30):
        space = random_space(rng, rng.randint(2, 6))
        ball = Ball(0, space.diameter() + 2)
        space, _ = random_point_in_ball(rng, space, ball)
        assert validate_space(space).ok


def realize_then_test(rng, space, ball):
    """Reference two-anchor draw: realize each candidate, then test it."""
    from urylab.gen import rand_fraction
    center, r = ball.center, ball.radius
    for _ in range(3):
        if space.n < 2:
            break
        a, b = rng.sample(range(space.n), 2)
        rho_a = rand_fraction(rng, F(1, 16), r, 16)
        dab = space.d(a, b)
        lo, hi = abs(rho_a - dab), rho_a + dab
        rho_b = rand_fraction(rng, lo, hi, 16)
        if rho_b <= 0 or rho_b < lo or rho_b > hi:
            continue
        try:
            grown, x = realize_point(space, {a: rho_a, b: rho_b})
        except PreconditionError:
            continue
        if grown.d(center, x) < r:
            return grown, x
    rho = rand_fraction(rng, r / 32, r * F(15, 16), 16)
    if rho <= 0 or rho >= r:
        rho = r / 2
    return realize_point(space, {center: rho})


def test_random_point_in_ball_appends_only_the_accepted_row(monkeypatch):
    appends, fills = [], []
    with_point = FiniteMetricSpace.with_point
    fill = amalgam._katetov_fill
    # every urylab module that binds the fill by name
    fill_sites = [m for name, m in sys.modules.items()
                  if name.startswith("urylab")
                  and vars(m).get("_katetov_fill") is fill]

    def counting(self, label, row):
        appends.append(label)
        return with_point(self, label, row)

    def counting_fill(space, vals):
        fills.append(vals)
        return fill(space, vals)

    for seed in range(20):
        rng, twin = random.Random(seed), random.Random(seed)
        space = random_space(rng, rng.randint(2, 7))
        twin.setstate(rng.getstate())
        # a small ball, so that some two-anchor candidates land outside
        ball = Ball(0, space.diameter() / 3)
        want = realize_then_test(twin, space, ball)
        with monkeypatch.context() as mp:
            mp.setattr(FiniteMetricSpace, "with_point", counting)
            for site in fill_sites:
                mp.setattr(site, "_katetov_fill", counting_fill)
            appends.clear()
            fills.clear()
            got = random_point_in_ball(rng, space, ball)
        assert got == want
        assert rng.getstate() == twin.getstate()
        assert len(appends) == 1
        assert len(fills) == 1


# --- the min-of-sums kernel against the Fraction reference ---------------

KERNEL_KINDS = ("big", "int", "ties", "one")


def _big(rng):
    """A rational in [1, 2] over a denominator of 100-300 digits."""
    digits = rng.randint(100, 300)
    q = rng.randrange(10 ** (digits - 1), 10 ** digits)
    return F(q + rng.randrange(q + 1), q)


def _kernel_case(rng, kind):
    """A space and a one-point prescription of the given kind.

    Every off-diagonal entry lies in [1, 2] (or [k, 2k] for ints), so any
    such matrix is metric.  "big" draws entries and values over 100-300-digit
    denominators, some values scaled out of range so that each violation
    text occurs; "int" builds the space directly with int entries and int
    values; "ties" makes every support point give the same sum g(a) + d(a, w)
    = 3 at each other point, from unreduced pairs over different
    denominators; "one" has a single support point.
    """
    n = rng.randint(2, 7)
    labels = tuple(f"p{i}" for i in range(n))
    support = sorted(rng.sample(range(n), 1 if kind == "one"
                                else rng.randint(1, n)))
    if kind == "int":
        k = rng.randint(1, 5)
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = rng.randint(k, 2 * k)
        space = FiniteMetricSpace(labels, tuple(map(tuple, d)))
        return space, {a: rng.randint(-1, 4 * k) for a in support}
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = (_big(rng) if kind == "big"
                                 else F(rng.randint(8, 16), 8))
    if kind == "ties":
        values = {}
        for a in support:
            den = rng.randint(2, 50)
            values[a] = F(rng.randint(den, 2 * den), den)
            for w in range(n):
                if w not in support:
                    d[a][w] = d[w][a] = 3 - values[a]
    else:
        scale = (1, 1, 1, F(1, 4), 3, -1) if kind == "big" else (1,)
        values = {a: _big(rng) * rng.choice(scale) for a in support}
    return FiniteMetricSpace(labels, tuple(map(tuple, d))), values


def _kernel_matches_the_reference(rng, kind):
    """Every rule routed through the kernel, against its Fraction
    reference on one drawn case; returns the violation texts' first
    characters."""
    space, values = _kernel_case(rng, kind)
    got = katetov_violations(space, values)
    assert got == katetov_violations_reference(space, values)
    assert _katetov_fill(space, values) == katetov_fill_reference(space,
                                                                  values)
    images = tuple(values)
    caps = [values[y] for y in images]
    f = PartialMap(images, images)
    assert _prescribe(f, space, caps) == prescribe_reference(f, space, caps)
    off = [w for w in range(space.n) if w not in values]
    anchors = split(space.dist, values)
    lows = max_gap(anchors, off)
    highs = min_sum(anchors, iter(off))
    assert len(lows) == len(highs) == len(off)
    for w, ends in zip(off, zip(lows, highs)):
        pairs = [(g, space.d(a, w)) for a, g in values.items()]
        assert ends == interval_ends_reference(pairs)
        assert all(type(end) is F for end in ends)
    solved = _amalgamate_matches_the_reference(rng, space)
    return ({text[0] for _, _, text in got} or {"none"}) | (
        {"solved"} if solved else set())


def _solved_targets(x0, x1, merged):
    """The unknown cross distances amalgamate(x0, x1) solves, in order, read
    off its result ``merged``.  Each is (w, anchors): w is the index of the
    placed point it is to, and anchors lists (d(z, w), g(z)) over the points
    z the extra point has a value at when it is solved, in placement order.

    Each extra point of x1, in label order, is unknown at every placed point
    but those it has a known distance to.  An appended one is solved at
    each of them before its own index.  One identified with a placed point
    (it is missing from ``merged``) is solved up to the first such point w
    with d(z, w) equal to its known distance at every known z, a zero lower
    bound.  Its values are then its distances to w, the point it ends at:
    g(z) = d(z, w) at every anchor z of that zero lower bound.  The anchors
    are its known distances, then each value solved so far.
    """
    placed = {lab: x0.index(lab) for lab in x0.labels if lab in x1.labels}
    out = []
    for lab in sorted(set(x1.labels) - set(placed)):
        p = x1.index(lab)
        known = {widx: x1.d(p, x1.index(other))
                 for other, widx in placed.items()}
        appended = lab in merged.labels
        targets = []
        for w in range(merged.index(lab) if appended else merged.n):
            if w in known:
                continue
            targets.append(w)
            if not appended and all(merged.d(z, w) == g
                                    for z, g in known.items()):
                placed[lab] = w
                break
        else:
            placed[lab] = merged.index(lab)
        zs = list(known)
        for w in targets:
            out.append((w, [(merged.d(z, w), merged.d(z, placed[lab]))
                            for z in zs]))
            zs.append(w)
    return out


def _amalgamate_matches_the_reference(rng, space):
    """amalgamate of two overlapping restrictions of ``space``, with every
    interval end it computes checked against the reference."""
    n = space.n
    cut0, cut1 = sorted(rng.sample(range(1, n + 1), 2)) if n > 1 else (1, 1)
    shared = list(range(cut0))
    idx0, idx1 = shared + list(range(cut1, n)), list(range(cut1))

    def restrict(idx):
        return FiniteMetricSpace(
            tuple(space.labels[i] for i in idx),
            tuple(tuple(space.d(i, j) for j in idx) for i in idx))

    calls = []

    def checked(kernel, end):
        def run(anchors, targets):
            targets = list(targets)
            got = kernel(anchors, targets)
            # each anchor read back as (its row, g as a Fraction)
            read = [(row, F(n, d)) for row, (n, d) in anchors]
            for w, value in zip(targets, got, strict=True):
                pairs = [(g, row[w]) for row, g in read]
                assert value == interval_ends_reference(pairs)[end]
            calls.append((end, targets, read))
            return got
        return run

    x0, x1 = restrict(idx0), restrict(idx1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amalgam, "max_gap", checked(max_gap, 0))
        mp.setattr(amalgam, "min_sum", checked(min_sum, 1))
        merged = amalgamate(x0, x1, policy=rng.choice(POLICIES))
    # one (lo, hi) pair of checked calls, over the same anchors and one
    # target, for every unknown cross distance amalgamate solves; the
    # anchors are the known distances, then the values solved so far
    solved = _solved_targets(x0, x1, merged)
    lows, highs = calls[0::2], calls[1::2]
    assert [end for end, _, _ in calls] == [0, 1] * len(solved)
    assert [call[1:] for call in lows] == [call[1:] for call in highs]
    assert [targets for _, targets, _ in lows] == [[w] for w, _ in solved]
    assert [[(row[w], g) for row, g in read] for _, [w], read in lows] == [
        anchors for _, anchors in solved]
    return len(solved)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KERNEL_KINDS))
def test_the_kernel_rules_match_the_fraction_reference(seed, kind):
    _kernel_matches_the_reference(random.Random(seed), kind)


def test_the_kernel_reference_reaches_every_kind():
    rng = random.Random(71)
    texts = Counter()
    for _ in range(50):
        for kind in KERNEL_KINDS:
            texts.update(_kernel_matches_the_reference(rng, kind))
    # each violation text by its first character ('negative value ...',
    # '|g(a) - g(b)| > d ...', 'd = ... > ...'), and no violation at all
    for text in ("n", "|", "d", "none"):
        assert texts[text] >= 20, texts
    # and amalgamate solved at least one unknown cross distance
    assert texts["solved"] >= 20, texts


def test_the_kernel_raises_on_an_empty_input_as_min_and_max_do():
    for kernel, builtin in ((min_sum, min), (max_gap, max)):
        with pytest.raises(ValueError) as want:
            builtin([])
        # no anchors: each target raises; no targets: nothing to fold
        for targets in ([0], iter((0,))):
            with pytest.raises(ValueError) as got:
                kernel(split(((0,),), {}), targets)
            assert str(got.value) == str(want.value)
        assert kernel(split(((0,),), {}), []) == []


def test_the_kernel_takes_a_float_or_decimal_at_its_exact_value():
    # rat() rejects both, but the kernel reads any as_integer_ratio()
    for inexact in (0.1, Decimal("0.1")):
        exact = F(inexact)
        # anchors 0 and 1 with g = inexact and 1/2, at distances 1/3 and
        # 1/2 from the target 0
        anchors = split(((F(1, 3),), (F(1, 2),)), {0: inexact, 1: F(1, 2)})
        ends = min_sum(anchors, [0]) + max_gap(anchors, [0])
        assert ends == [exact + F(1, 3), F(1, 3) - exact]
        assert all(type(end) is F for end in ends)
    space = FiniteMetricSpace(("a", "b", "c"),
                              ((0, 0.1, 1), (0.1, 0, 1), (1, 1, 0)))
    assert _katetov_fill(space, {0: F(1, 2)}) == (F(1, 2), F(0.1) + F(1, 2),
                                                  F(3, 2))


@pytest.mark.parametrize("kind", [float, Decimal, F])
def test_amalgamate_names_its_witnesses_at_each_entry_exact_value(kind):
    # x0 is not metric: d(a, b) = 5 > d(a, c) + d(c, b).  At b the new point
    # m has lower end |1 - 5| = 4 via a and upper end 1.3 + 0.1 via c.
    def space(third, to_a, to_c):
        z, ac, x, y = (kind(v) for v in ("0", "0.1", to_a, to_c))
        return FiniteMetricSpace(("a", "c", third),
                                 ((z, ac, x), (ac, z, y), (x, y, z)))

    x0, x1 = space("b", "5", "0.1"), space("m", "1", "1.3")
    hi = F(kind("1.3")) + F(kind("0.1"))
    for policy in POLICIES:
        with pytest.raises(PreconditionError) as err:
            amalgamate(x0, x1, policy=policy)
        assert str(err.value) == (
            f"no distance from new point 'm' to 'b': lower bound 4 via 'a' "
            f"exceeds upper bound {hi} via 'c'; an input is not metric")
    if kind is F:
        assert str(err.value) == (
            "no distance from new point 'm' to 'b': lower bound 4 via 'a' "
            "exceeds upper bound 7/5 via 'c'; an input is not metric")


def test_the_new_row_certificate_takes_a_float_at_its_exact_value():
    # d(c, x) = 0.1 as a float.  K * d was a float product, 3 * 0.1 rounded
    # up past 3 * F(0.1); the pair test now reads the float exactly.
    space = FiniteMetricSpace(("c", "x"), ((0, 0.1), (0.1, 0)))
    args = (space, Ball(0, 10), kn_admissible(3, F(9, 2)), [(0, 0)], 1)
    tie = 3 * F(0.1)
    assert bilip._certify_new_row(*args, [tie], tie) is None
    past = tie + F(1, 10 ** 18)
    assert past < 3 * 0.1
    assert certify_new_row_reference(*args, [past], past) is None
    with pytest.raises(PreconditionError) as exc:
        bilip._certify_new_row(*args, [past], past)
    assert str(exc.value) == (
        f"new pair breaks the stretch bound against 'c': d = 0.1, "
        f"e = {past}, K = 3")


# --- each integer comparison at its boundary -------------------------------

U, V, T = F(1, 3), F(2, 7), F(5, 11)
EPS = F(1, 10 ** 6)


def _tight_pair(past=0):
    """z1, z2 and w collinear in x0, z1, z2 and p in x1, with the new
    point's interval to the other pinched to lo = hi = V + T; ``past``
    moves p away from z1 only, so that lo = V + T + past via z1 and
    hi = V + T via z2.  Merging x0 into x1 or x1 into x0, lo's winning
    difference g(z1) - d(z1, .) is positive or negative."""
    x0 = FiniteMetricSpace.from_rows(
        ("z1", "z2", "w"), ((0, U + V, U), (U + V, 0, V), (U, V, 0)))
    far = U + V + T + past
    x1 = FiniteMetricSpace.from_rows(
        ("z1", "z2", "p"), ((0, U + V, far), (U + V, 0, T), (far, T, 0)))
    return x0, x1


@pytest.mark.parametrize("order", [1, -1])
def test_amalgamate_takes_a_pinched_interval_under_every_policy(order):
    for policy in POLICIES:
        merged = amalgamate(*_tight_pair()[::order], policy=policy)
        assert merged.d(merged.index("w"), merged.index("p")) == V + T
        assert validate_space(merged).ok


@pytest.mark.parametrize("order", [1, -1])
def test_amalgamate_refuses_an_interval_just_empty(order):
    new, old = ("p", "w")[::order]
    for policy in POLICIES:
        with pytest.raises(PreconditionError) as err:
            amalgamate(*_tight_pair(EPS)[::order], policy=policy)
        assert str(err.value) == (
            f"no distance from new point {new!r} to {old!r}: lower bound "
            f"{V + T + EPS} via 'z1' exceeds upper bound {V + T} via 'z2'; "
            f"an input is not metric")


@pytest.mark.parametrize("ga, gb", [(U, U + V), (U + V, U)])
def test_katetov_violations_at_the_difference_boundary(ga, gb):
    # |g(a) - g(b)| = d exactly, either way round, then 10^-6 past it
    space = _pair("a", "b", V)
    assert katetov_violations(space, {0: ga, 1: gb}) == []
    ga, gb = (ga, gb + EPS) if gb > ga else (ga + EPS, gb)
    assert katetov_violations(space, {0: ga, 1: gb}) == [
        (0, 1, f"|{ga} - {gb}| > d = {V}")]


@pytest.mark.parametrize("ga, gb", [(F(1, 9), V - F(1, 9)),
                                    (V - F(1, 9), F(1, 9))])
def test_katetov_violations_at_the_sum_boundary(ga, gb):
    # d = g(a) + g(b) exactly, then d 10^-6 past the sum
    space = _pair("a", "b", V)
    assert katetov_violations(space, {0: ga, 1: gb}) == []
    gb -= EPS
    assert katetov_violations(space, {0: ga, 1: gb}) == [
        (0, 1, f"d = {V} > {ga} + {gb}")]
