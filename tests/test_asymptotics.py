"""Growth ratios, the finite-set polynomial law, and the density probes."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import BAD_GRIDS, GRID_RULE
from partgrowth.asymptotics import (C0, arithmetic_progression_probe,
                                    density_growth_probe,
                                    finite_set_leading_ratio, growth_ratio,
                                    growth_ratio_series)
from partgrowth.counting import partition_table, pentagonal_table
from partgrowth.partsets import (AllParts, FiniteParts, PrimeParts,
                                 ResidueParts)
from partgrowth.reports import trend_direction


# -- the growth constant ----------------------------------------------------

def test_constant_against_high_precision_oracle():
    mpmath.mp.dps = 40
    oracle = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)
    assert abs(C0 - float(oracle)) <= 1e-15


def test_constant_algebraic_identities():
    assert C0 ** 2 == pytest.approx(2 * math.pi ** 2 / 3, rel=1e-14)
    assert (C0 / 2) ** 2 == pytest.approx(math.pi ** 2 / 6, rel=1e-14)


# -- ratio series -----------------------------------------------------------

def test_growth_ratio_basics():
    assert growth_ratio(1, 1) == 0.0
    assert growth_ratio(0, 5) is None
    with pytest.raises(ValueError):
        growth_ratio(1, 0)
    with pytest.raises(ValueError):
        growth_ratio(-1, 5)


def test_growth_ratio_at_100():
    # log(190569292) / (C0 * 10), frozen from the big-int evaluation
    table = pentagonal_table(100)
    assert growth_ratio(table[100], 100) == pytest.approx(
        0.7432664983286154, abs=1e-13)


def test_growth_ratio_handles_huge_counts():
    table = pentagonal_table(5000)
    r = growth_ratio(table[5000], 5000)
    # cross-check float log of a 70+ digit integer against mpmath
    mpmath.mp.dps = 40
    oracle = float(mpmath.log(table[5000]) / (mpmath.pi * mpmath.sqrt(
        mpmath.mpf(2) / 3) * mpmath.sqrt(5000)))
    assert r == pytest.approx(oracle, rel=1e-13)


def test_series_marks_empty_counts_absent():
    # {2} has exactly one partition of each even n, none of any odd n:
    # defined entries are log(1) = 0, odd entries are absent.
    table = partition_table(FiniteParts((2,)), 6)
    series = growth_ratio_series(table, [2, 5, 6])
    assert series.ratios[0] == 0.0
    assert series.ratios[1] is None
    assert series.ratios[2] == 0.0


def test_series_grid_validation():
    table = pentagonal_table(10)
    with pytest.raises(ValueError):
        growth_ratio_series(table, [5, 11])
    with pytest.raises(ValueError):
        growth_ratio_series(table, [0, 5])
    # int() would read the truncated points 5 and 6 without a word
    for grid in ([5.5, 6.9], [5, 6.0], [Fraction(11, 2)]):
        with pytest.raises(ValueError, match="ints"):
            growth_ratio_series(table, grid)


def test_unrestricted_ratios_below_one_and_rising():
    table = pentagonal_table(2000)
    series = growth_ratio_series(table, [10, 100, 1000, 2000])
    assert all(0 <= r < 1 for r in series.ratios)
    assert trend_direction(series.ratios) == 1


def test_series_of_a_spec_reads_the_same_counts_as_its_table():
    # all parts on a sparse grid take the series, the others a table
    grid = (300, 1000, 2000)
    for spec in (AllParts(), ResidueParts(2, (1,)), PrimeParts(),
                 FiniteParts((1, 2, 3))):
        table = partition_table(spec, grid[-1])
        assert growth_ratio_series(spec, grid) == growth_ratio_series(table, grid)
    for grid in BAD_GRIDS:
        with pytest.raises(ValueError, match=GRID_RULE):
            growth_ratio_series(AllParts(), grid)


def test_restricted_ratio_below_unrestricted():
    full = pentagonal_table(2000)
    odd = partition_table(ResidueParts(2, (1,)), 2000)
    for n in (1000, 2000):
        assert growth_ratio(odd[n], n) < growth_ratio(full[n], n)


# -- finite-set polynomial law ----------------------------------------------

def test_leading_ratio_examples():
    table = partition_table(FiniteParts((1, 2)), 1000)
    ratio = finite_set_leading_ratio(table, 1000)
    assert ratio.exact == Fraction(1002, 1000)
    assert ratio.value == pytest.approx(1.002)

    single = partition_table(FiniteParts((1,)), 10)
    assert finite_set_leading_ratio(single, 7).exact == 1

    table123 = partition_table(FiniteParts((1, 2, 3)), 2000)
    ratio = finite_set_leading_ratio(table123, 2000)
    assert ratio.exact == Fraction(501501, 500000)
    assert 0.99 <= ratio.value <= 1.01


def test_leading_ratio_error_decay():
    for parts in ((1, 2), (1, 2, 3)):
        table = partition_table(FiniteParts(parts), 2000)
        for n in (250, 500, 1000):
            near = abs(finite_set_leading_ratio(table, 2 * n).exact - 1)
            far = abs(finite_set_leading_ratio(table, n).exact - 1)
            assert near < far, (parts, n)


def test_leading_ratio_preconditions():
    with pytest.raises(ValueError, match="common divisor 2"):
        finite_set_leading_ratio(partition_table(FiniteParts((2, 4)), 50), 10)
    with pytest.raises(ValueError, match="finite part set"):
        finite_set_leading_ratio(pentagonal_table(50), 10)
    table = partition_table(FiniteParts((1, 2)), 50)
    with pytest.raises(ValueError):
        finite_set_leading_ratio(table, 51)


# -- density probes ---------------------------------------------------------

def test_probe_rejects_common_divisor():
    with pytest.raises(ValueError, match="normalize"):
        density_growth_probe(FiniteParts((2, 4)), [10, 20],
                             lower_density=0, upper_density=0)


def test_probe_band_pass_and_fail():
    spec = ResidueParts(2, (1,))
    passing = density_growth_probe(
        spec, [200, 500, 1000], lower_density=Fraction(1, 2),
        upper_density=Fraction(1, 2), band=(0.5, 0.8))
    assert passing.passed
    assert passing.direction == 1
    assert passing.meta["sqrt_lower_target"] == pytest.approx(math.sqrt(0.5))

    failing = density_growth_probe(
        spec, [200, 500, 1000], lower_density=Fraction(1, 2),
        upper_density=Fraction(1, 2), band=(0.99, 1.0))
    assert not failing.passed
    assert failing.meta["band_origin"] == "user"


def test_probe_default_band_from_densities():
    spec = AllParts()
    report = density_growth_probe(spec, [500, 1000, 2000],
                                  lower_density=1, upper_density=1)
    assert report.target_low == pytest.approx(0.9)
    assert report.target_high == 1.0          # capped: counts stay below e^(C0 sqrt n)
    assert report.passed                      # r(2000) ~ 0.917
    assert report.meta["band_origin"] == "density-default"


def test_probe_zero_density_decay_mode():
    spec = PrimeParts()
    report = density_growth_probe(spec, [2000, 3000, 4000],
                                  lower_density=0, upper_density=0)
    assert report.target_low is None
    assert report.direction == -1
    assert report.passed
    assert report.meta["band_origin"] == "decay-qualitative"

    banded = density_growth_probe(spec, [2000, 3000, 4000],
                                  lower_density=0, upper_density=0,
                                  band=(0.4, 0.5))
    assert banded.passed and banded.meta["band_origin"] == "user"


def test_probe_input_validation():
    with pytest.raises(ValueError):
        density_growth_probe(AllParts(), [], lower_density=1, upper_density=1)
    with pytest.raises(ValueError):
        density_growth_probe(AllParts(), [10, 10], lower_density=1, upper_density=1)
    with pytest.raises(ValueError):
        density_growth_probe(AllParts(), [10], lower_density=1, upper_density=2)
    # int() would probe the truncated points 20 and 30 without a word
    for grid in ([20.5, 30.9], [10, 20.0], [Fraction(21, 2)]):
        with pytest.raises(ValueError, match="ints"):
            density_growth_probe(AllParts(), grid, lower_density=1,
                                 upper_density=1)
    for grid in BAD_GRIDS:
        with pytest.raises(ValueError, match=GRID_RULE):
            density_growth_probe(AllParts(), grid, lower_density=1,
                                 upper_density=1)
    # compared exactly: float() of these would overflow
    huge = Fraction(10) ** 400
    with pytest.raises(ValueError, match="lower <= upper"):
        density_growth_probe(AllParts(), [10], lower_density=huge,
                             upper_density=huge)
    with pytest.raises(ValueError, match="lower <= upper"):
        density_growth_probe(AllParts(), [10], lower_density=0,
                             upper_density=huge)


def test_probe_rejects_inverted_band():
    with pytest.raises(ValueError, match="lo <= hi"):
        density_growth_probe(ResidueParts(2, (1,)), [10, 20],
                             lower_density=Fraction(1, 2),
                             upper_density=Fraction(1, 2), band=(0.8, 0.5))


@settings(max_examples=60, deadline=None)
@given(densities=st.lists(st.floats(0, 1), min_size=2, max_size=2),
       rel_tol=st.floats(0, 10))
@example(densities=[0.0, 1.0], rel_tol=2.0)     # low end is -0.0
def test_probe_default_band_formula(densities, rel_tol):
    alpha, beta = sorted(densities)
    assume(beta > 0)
    report = density_growth_probe(AllParts(), [1, 2], lower_density=alpha,
                                  upper_density=beta, rel_tol=rel_tol)
    low = (1.0 - rel_tol) * math.sqrt(alpha)
    high = min(1.0, (1.0 + rel_tol) * math.sqrt(beta))
    # repr tells -0.0 from 0.0, which == does not
    assert repr(report.target_low) == repr(low)
    assert repr(report.target_high) == repr(high)


def test_arithpro_probe_hypothesis_witness():
    with pytest.raises(ValueError, match="gcd = 2"):
        arithmetic_progression_probe(2, (2,), [10, 100])


def test_arithpro_probe_target_and_pass():
    report = arithmetic_progression_probe(2, (1,), [200, 500, 1000],
                                          band=(0.5, 0.8))
    assert report.name == "arithmetic-progression"
    assert report.passed
    assert report.meta["probe_target"] == pytest.approx(math.sqrt(0.5))
    assert report.meta["modulus"] == 2
