"""Seeded generators against their Fraction-arithmetic references."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracle_utils
from urylab import gen
from oracle_utils import (rand_fraction_reference, random_modulus_reference,
                          random_point_in_ball_reference, random_space_reference,
                          random_space_rows)
from urylab import FiniteMetricSpace, amalgam, validate_space
from urylab.core import Ball
from urylab.errors import PreconditionError, UnreportableError
from urylab.gen import (CAMPAIGNS, campaign, rand_fraction, random_modulus,
                        random_point_in_ball, random_space)


@pytest.mark.parametrize("den", [1, 3, 8, 16])
def test_random_space_matches_the_fraction_closure(den):
    for seed in range(3):
        for n in range(13):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            space = random_space(rng, n, den=den)
            rows = random_space_rows(ref_rng, n, den=den)
            assert space == FiniteMetricSpace.from_rows(space.labels, rows)
            assert ([[str(v) for v in row] for row in space.dist]
                    == [[str(v) for v in row] for row in rows])
            assert rng.getstate() == ref_rng.getstate()
            assert validate_space(space).ok


@pytest.mark.parametrize("kw, text", [
    ({"den": 0}, "den must be at least 1, got 0"),
    ({"den": -8}, "den must be at least 1, got -8"),
], ids=["den-zero", "den-negative"])
def test_random_space_refuses_a_bad_den_before_any_draw(kw, text):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(PreconditionError) as exc:
        random_space(rng, 3, **kw)
    assert str(exc.value) == text
    assert rng.getstate() == state


def _assert_same_space(seed, n, den):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    space = random_space(rng, n, den=den)
    ref = random_space_reference(ref_rng, n, den=den)
    assert space.labels == ref.labels
    assert space.dist == ref.dist
    assert ([[str(v) for v in row] for row in space.dist]
            == [[str(v) for v in row] for row in ref.dist])
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("den", [1, 2, 3, 8, 16, 1000])
def test_random_space_matches_the_lcm_closure(den):
    for n in (*range(8), 13, 21, 34, 45):
        _assert_same_space(n, n, den)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 45),
       den=st.sampled_from([1, 2, 3, 8, 16, 1000]))
def test_random_space_matches_the_lcm_closure_property(seed, n, den):
    _assert_same_space(seed, n, den)


def bound_cases(rng):
    """(lo, hi, den) with lo <= hi: random, negative, zero, exact multiples
    of 1/den and ranges holding no multiple of 1/den."""
    dens = (1, 2, 3, 7, 8, 16)
    for _ in range(400):
        a = F(rng.randint(-60, 60), rng.randint(1, 12))
        b = F(rng.randint(-60, 60), rng.randint(1, 12))
        yield min(a, b), max(a, b), rng.choice(dens)
    for den in dens:
        for k in (-5, -1, 0, 1, 4):
            yield F(k, den), F(k, den), den
            yield F(k, den), F(k + 3, den), den
            yield k, k + 1, den
        yield F(1, 3 * den), F(2, 3 * den), den
        yield F(-2, 3 * den), F(-1, 3 * den), den
        yield 0, 0, den


def test_rand_fraction_matches_the_fraction_bounds():
    cases = list(bound_cases(random.Random(11)))
    assert any((lo * den).__ceil__() > (hi * den).__floor__()
               for lo, hi, den in cases)
    for k, (lo, hi, den) in enumerate(cases):
        rng, ref_rng = random.Random(k), random.Random(k)
        value = rand_fraction(rng, lo, hi, den)
        assert value == rand_fraction_reference(ref_rng, lo, hi, den)
        assert type(value) is F
        assert rng.getstate() == ref_rng.getstate()
        assert lo <= value <= hi


@pytest.mark.parametrize("pieces", [1, 3, 8, 16])
def test_random_modulus_matches_the_fraction_draws(pieces):
    for seed in range(20):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        m = random_modulus(rng, pieces)
        assert m == random_modulus_reference(ref_rng, pieces)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("kw, text", [
    ({"pieces": 0}, "pieces must be at least 1, got 0"),
    ({"pieces": -2}, "pieces must be at least 1, got -2"),
], ids=["pieces-zero", "pieces-negative"])
def test_random_modulus_refuses_a_bad_argument_before_any_draw(kw, text):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(PreconditionError) as exc:
        random_modulus(rng, **{"pieces": 3, **kw})
    assert str(exc.value) == text
    assert rng.getstate() == state


def test_random_modulus_draws_the_same_with_a_cold_memo():
    for seed in range(12):
        gen._over.cache_clear()
        cold = random_modulus(random.Random(seed), 16)
        warm = random_modulus(random.Random(seed), 16)
        assert cold == warm
        assert cold == random_modulus_reference(random.Random(seed), 16)
        for m in (cold, warm):
            assert all(type(x) is F for pt in m.breakpoints for x in pt)
            assert type(m.final_slope) is F
        # the warm draw reuses the cold draw's Fractions
        assert all(a is b for p, q in zip(cold.breakpoints, warm.breakpoints)
                   for a, b in zip(p, q))


# --- random_point_in_ball against the fill-then-test reference -------------

DRAW_KINDS = ("metric", "big", "negative", "triangle", "tiny")
EPS = F(1, 10 ** 6)


def _draw_case(rng, kind, n):
    """A space of n points (at least 3 for "triangle") and a ball in it.

    "metric" is a random space; "big" scales it by a factor over a
    100-300-digit denominator.  "tiny" scales by 1/64, so that the radius
    can fall below 1/16; half the time every distance of its space is 4,
    1/16 once scaled, so a rho_a of 1/16 equals d(a, b) and rho_b can be 0.
    "negative" sets one pair to a negative distance; "triangle" sets
    d(i, k) past d(i, j) + d(j, k).  The center is
    any point, and the radius runs from an eighth of the center's farthest
    distance to twice it, so that many tries land outside.
    """
    den = rng.choice((1, 8)) if kind == "tiny" else 8
    space = random_space(rng, max(n, 3) if kind == "triangle" else n,
                         den=den)
    d = [list(row) for row in space.dist]
    if kind == "big":
        digits = rng.randint(100, 300)
        q = rng.randrange(10 ** (digits - 1), 10 ** digits)
        scale = F(q + rng.randrange(1, q), q)
        d = [[v * scale for v in row] for row in d]
    elif kind == "tiny":
        d = [[v / 64 for v in row] for row in d]
    elif kind == "negative":
        i, j = rng.sample(range(space.n), 2)
        d[i][j] = d[j][i] = -rand_fraction(rng, F(1, 8), 2, 8)
    elif kind == "triangle":
        i, j, k = rng.sample(range(space.n), 3)
        d[i][k] = d[k][i] = d[i][j] + d[j][k] + rand_fraction(rng, 0, 1, 8)
    center = rng.randrange(space.n)
    far = max(abs(v) for v in d[center])
    ball = Ball(center, far * F(rng.randint(1, 16), 8))
    return FiniteMetricSpace(space.labels, tuple(map(tuple, d))), ball


def _outcome(draw, rng, space, ball):
    try:
        return draw(rng, space, ball)
    except Exception as err:
        return type(err), str(err)


def _first_anchors(state, n):
    """The two anchors a draw from rng state ``state`` tries first."""
    probe = random.Random()
    probe.setstate(state)
    return probe.sample(range(n), 2)


def _same_draw(rng, space, ball):
    """random_point_in_ball from rng's state, which must give the reference's
    point, or raise its exception with its text, and leave the reference's
    rng state.  Returns the outcome and how many prescriptions the draw
    checked: one per two-anchor try, and one for the fallback."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    checks = []
    violations = amalgam.katetov_violations

    def counting(space, values):
        checks.append(values)
        return violations(space, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amalgam, "katetov_violations", counting)
        got = _outcome(random_point_in_ball, rng, space, ball)
    assert got == _outcome(random_point_in_ball_reference, twin, space, ball)
    assert rng.getstate() == twin.getstate()
    return got, len(checks)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30),
       kind=st.sampled_from(DRAW_KINDS))
def test_random_point_in_ball_matches_the_reference(seed, n, kind):
    rng = random.Random(seed)
    _same_draw(rng, *_draw_case(rng, kind, n))


def test_the_draw_reference_reaches_every_branch(monkeypatch):
    rng = random.Random(29)
    seen = Counter()
    radii = []

    def recording(rng, lo, hi, den=16):
        value = rand_fraction(rng, lo, hi, den)
        radii.append((lo, hi, value))
        return value

    monkeypatch.setattr(oracle_utils, "rand_fraction", recording)
    for k in range(400):
        kind = DRAW_KINDS[k % len(DRAW_KINDS)]
        # a broken pair is an anchor more often in a small space
        n = rng.randint(2, 30 if kind in ("metric", "big") else 8)
        space, ball = _draw_case(rng, kind, n)
        first = _first_anchors(rng.getstate(), space.n)
        radii.clear()
        got, checks = _same_draw(rng, space, ball)
        if isinstance(got[0], FiniteMetricSpace):
            assert got[0].n == space.n + 1
            seen["rejected" if checks > 1 else "accepted"] += 1
            seen["center anchor"] += ball.center in first
        else:
            assert kind in ("negative", "triangle")
            seen[got[0].__name__] += 1
        # the reference's radii: rho_a then rho_b for each try, and the
        # fallback's one radius last
        tries = radii[:len(radii) - len(radii) % 2]
        for _, (lo, hi, rho_b) in zip(tries[0::2], tries[1::2]):
            seen["rho_a grid empty"] += 16 * ball.radius < 1
            seen["rho_b grid empty"] += (math.ceil(16 * lo)
                                         > math.floor(16 * hi))
            seen["rho_b zero"] += rho_b == 0
    # a non-metric space raises from the prescription check or from the
    # appended row
    for what in ("rejected", "accepted", "center anchor",
                 "PreconditionError", "StructuralError", "rho_a grid empty",
                 "rho_b grid empty", "rho_b zero"):
        assert seen[what] >= 10, seen


def _first_try(space, ball, state, monkeypatch):
    """The reference's first two-anchor prescription from ``state`` and the
    center's entry in its filled row."""
    rows = []

    def recording(space, values):
        full = katetov_extend(space, values)
        rows.append((values, full[ball.center]))
        return full

    katetov_extend = oracle_utils.katetov_extend
    with monkeypatch.context() as mp:
        mp.setattr(oracle_utils, "katetov_extend", recording)
        rng = random.Random()
        rng.setstate(state)
        _outcome(random_point_in_ball_reference, rng, space, ball)
    return rows[0]


@pytest.mark.parametrize("anchor", [True, False])
def test_a_try_at_exactly_the_radius_is_rejected(monkeypatch, anchor):
    # v is the center's entry of a seeded first try, read through the
    # reference; radius v rejects that try and v + 10^-6 accepts it
    found = 0
    for seed in range(60):
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(3, 6))
        center = rng.randrange(space.n)
        state = rng.getstate()
        if (center in _first_anchors(state, space.n)) != anchor:
            continue
        values, v = _first_try(space, Ball(center, space.diameter() * 2),
                               state, monkeypatch)
        balls = Ball(center, v), Ball(center, v + EPS)
        if any(_first_try(space, b, state, monkeypatch) != (values, v)
               for b in balls):
            continue  # the radius moved the first draw
        checks = []
        for ball in balls:
            rng.setstate(state)
            (grown, x), count = _same_draw(rng, space, ball)
            checks.append(count)
        # radius v went on to a later try or the fallback; v + 10^-6
        # realized the first try
        assert checks[0] > 1 and checks[1] == 1
        assert grown.d(center, x) == v
        assert all(grown.d(x, a) == g for a, g in values.items())
        found += 1
    assert found >= 3


@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="int() digit limit is disabled")
@pytest.mark.parametrize("suite", sorted(CAMPAIGNS))
def test_a_campaign_seed_past_the_digit_limit_is_unreportable(suite):
    seed = 10 ** (sys.get_int_max_str_digits() + 1)
    with pytest.raises(UnreportableError, match="^Exceeds the limit"):
        campaign(suite, seed, 0)
