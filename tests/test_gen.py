"""Seeded generators against their Fraction-arithmetic references."""

import random
import sys
from fractions import Fraction as F

import pytest

from oracle_utils import (rand_fraction_reference, random_modulus_reference,
                          random_space_rows)
from urylab import FiniteMetricSpace, validate_space
from urylab.errors import UnreportableError
from urylab.gen import (CAMPAIGNS, rand_fraction, random_modulus,
                        random_space)


@pytest.mark.parametrize("scale", [4, 1, F(1, 3), F(7, 2)])
@pytest.mark.parametrize("den", [1, 3, 8, 16])
def test_random_space_matches_the_fraction_closure(scale, den):
    for seed in range(3):
        for n in range(13):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            space = random_space(rng, n, scale=scale, den=den)
            rows = random_space_rows(ref_rng, n, scale=scale, den=den)
            assert space == FiniteMetricSpace.from_rows(space.labels, rows)
            assert ([[str(v) for v in row] for row in space.dist]
                    == [[str(v) for v in row] for row in rows])
            assert rng.getstate() == ref_rng.getstate()
            assert validate_space(space).ok
    if den == 1 and scale == F(1, 3):  # every draw takes the return-lo branch
        assert space.d(0, 1) == F(1, 3)


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


@pytest.mark.parametrize("slope_hi", [0, 1, 4])
@pytest.mark.parametrize("den", [1, 3, 8])
@pytest.mark.parametrize("pieces", [1, 3, 8, 16])
def test_random_modulus_matches_the_fraction_draws(pieces, den, slope_hi):
    for seed in range(20):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        m = random_modulus(rng, pieces, den, slope_hi)
        assert m == random_modulus_reference(ref_rng, pieces, den, slope_hi)
        assert rng.getstate() == ref_rng.getstate()
    if slope_hi == 0:  # every slope takes rand_fraction's return-lo branch
        assert m.final_slope == F(1, den)


@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="int() digit limit is disabled")
@pytest.mark.parametrize("suite", sorted(CAMPAIGNS))
def test_a_campaign_seed_past_the_digit_limit_is_unreportable(suite):
    seed = 10 ** (sys.get_int_max_str_digits() + 1)
    with pytest.raises(UnreportableError, match="^Exceeds the limit"):
        CAMPAIGNS[suite](seed, 0)
