"""Part-set specs: enumeration, counting, gcd bookkeeping, density data."""

import math
from fractions import Fraction

import pytest

from partgrowth import partsets
from partgrowth.partsets import (AllParts, CofiniteTail, FiniteParts,
                                 PartFileError, PrimeParts, ResidueParts,
                                 UnsupportedNormalizationError,
                                 counting_function, density_profile,
                                 enumerate_parts, gcd_of_set, load_part_file,
                                 normalize_by_gcd, prime_count, primes_upto)

FAMILY = [
    AllParts(),
    FiniteParts((1, 2)),
    FiniteParts((2, 3)),
    FiniteParts((1, 2, 3)),
    ResidueParts(2, (1,)),
    ResidueParts(4, (1, 3)),
    CofiniteTail(3),
    PrimeParts(),
]


def _trial_division_primes(bound):
    """Independent prime oracle: no sieve, just trial division."""
    found = []
    for n in range(2, bound + 1):
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            found.append(n)
    return found


# -- enumeration ------------------------------------------------------------

def test_enumerate_odds():
    assert enumerate_parts(ResidueParts(2, (1,)), 10) == [1, 3, 5, 7, 9]


def test_enumerate_finite_truncates():
    assert enumerate_parts(FiniteParts((2, 3)), 10) == [2, 3]
    assert enumerate_parts(FiniteParts((2, 30)), 10) == [2]


def test_enumerate_primes_against_trial_division():
    assert enumerate_parts(PrimeParts(), 12) == [2, 3, 5, 7, 11]
    assert enumerate_parts(PrimeParts(), 500) == _trial_division_primes(500)


def test_enumerate_cofinite_and_all():
    assert enumerate_parts(CofiniteTail(5), 8) == [5, 6, 7, 8]
    assert enumerate_parts(CofiniteTail(9), 8) == []
    assert enumerate_parts(AllParts(), 4) == [1, 2, 3, 4]


def test_enumerate_residue_multiclass_sorted():
    got = enumerate_parts(ResidueParts(4, (1, 3)), 12)
    assert got == [1, 3, 5, 7, 9, 11]
    # residue == modulus stands for the 0 class
    assert enumerate_parts(ResidueParts(3, (3,)), 10) == [3, 6, 9]


def test_enumerate_bound_validation():
    with pytest.raises(ValueError):
        enumerate_parts(AllParts(), 0)


# -- counting function ------------------------------------------------------

def test_counting_examples():
    assert counting_function(ResidueParts(2, (1,)), 10) == 5
    assert counting_function(AllParts(), 0) == 0
    assert counting_function(CofiniteTail(5), 12) == 8
    assert counting_function(CofiniteTail(5), 4) == 0
    assert counting_function(PrimeParts(), 100) == 25


def test_counting_matches_enumeration_everywhere():
    for spec in FAMILY:
        for x in range(0, 200):
            count = counting_function(spec, x)
            assert 0 <= count <= x
            if x >= 1:
                assert count == len(enumerate_parts(spec, x))


def test_counting_nondecreasing():
    for spec in FAMILY:
        previous = 0
        for x in range(0, 300):
            count = counting_function(spec, x)
            assert count >= previous
            previous = count


def test_residue_density_exact_at_multiples():
    spec = ResidueParts(4, (1, 3))
    for x in (4, 40, 400, 4000):
        assert Fraction(counting_function(spec, x), x) == Fraction(2, 4)


def test_counting_negative_rejected():
    with pytest.raises(ValueError):
        counting_function(AllParts(), -1)


# -- spec validation --------------------------------------------------------

def test_finite_validation():
    with pytest.raises(ValueError):
        FiniteParts(())
    with pytest.raises(ValueError, match="strictly increasing"):
        FiniteParts((3, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        FiniteParts((2, 2))
    with pytest.raises(ValueError):
        FiniteParts((0, 1))


def test_residue_validation():
    with pytest.raises(ValueError, match="residue 5 exceeds modulus 4"):
        ResidueParts(4, (5,))
    with pytest.raises(ValueError):
        ResidueParts(0, (1,))
    with pytest.raises(ValueError):
        ResidueParts(4, ())


def test_cofinite_validation():
    with pytest.raises(ValueError):
        CofiniteTail(0)


def test_str_forms():
    assert str(AllParts()) == "all"
    assert str(FiniteParts((1, 2, 3))) == "finite:1,2,3"
    assert str(FiniteParts((1, 2, 3), source="parts.txt")) == "file:parts.txt"
    assert str(ResidueParts(4, (1, 3))) == "mod:4:1,3"
    assert str(CofiniteTail(5)) == "cofinite:5"
    assert str(PrimeParts()) == "primes"


# -- gcd bookkeeping --------------------------------------------------------

def test_gcd_examples():
    assert gcd_of_set(FiniteParts((4, 6)), 10) == (2, True)
    assert gcd_of_set(ResidueParts(2, (1,)), 10) == (1, True)
    assert gcd_of_set(FiniteParts((6, 10, 15)), 20) == (1, True)
    assert gcd_of_set(AllParts(), 2) == (1, True)
    assert gcd_of_set(PrimeParts(), 3) == (1, True)
    assert gcd_of_set(CofiniteTail(7), 8) == (1, True)


def test_gcd_unstable_prefix():
    # only 4 is visible below 5, but the full set has gcd 2
    spec = FiniteParts((4, 6, 8), source="inline")
    value, stable = gcd_of_set(spec, 5)
    assert value == 4 and not stable
    value, stable = gcd_of_set(spec, 6)
    assert value == 2 and stable


def test_gcd_empty_prefix_rejected():
    with pytest.raises(ValueError, match="gcd undefined"):
        gcd_of_set(FiniteParts((8, 12)), 5)


def test_normalize_examples():
    assert normalize_by_gcd(FiniteParts((4, 6)), 2) == FiniteParts((2, 3))
    # a file's set divides into a plain listed set
    assert normalize_by_gcd(FiniteParts((4, 6), source="parts.txt"),
                            2) == FiniteParts((2, 3))
    assert normalize_by_gcd(FiniteParts((3, 5)), 1) == FiniteParts((3, 5))
    assert normalize_by_gcd(ResidueParts(4, (2,)), 2) == ResidueParts(2, (1,))


def test_normalize_errors():
    with pytest.raises(ValueError, match="does not divide"):
        normalize_by_gcd(FiniteParts((4, 6)), 4)
    with pytest.raises(UnsupportedNormalizationError):
        normalize_by_gcd(AllParts(), 2)
    with pytest.raises(UnsupportedNormalizationError):
        normalize_by_gcd(PrimeParts(), 2)
    with pytest.raises(ValueError):
        normalize_by_gcd(FiniteParts((2, 4)), 0)


def test_normalize_round_trip_enumeration():
    cases = [
        (FiniteParts((4, 6, 10)), 2),
        (ResidueParts(6, (2, 4)), 2),
        (FiniteParts((3, 9, 21), source="inline"), 3),
    ]
    for spec, d in cases:
        scaled = normalize_by_gcd(spec, d)
        original = enumerate_parts(spec, 60)
        recovered = [d * a for a in enumerate_parts(scaled, 60 // d)]
        assert recovered == original


# -- file-backed sets -------------------------------------------------------

def test_load_part_file(tmp_path):
    path = tmp_path / "parts.txt"
    path.write_text("3\n5\n\n7\n")
    spec = load_part_file(path)
    assert spec == FiniteParts((3, 5, 7), source=str(path))
    assert enumerate_parts(spec, 6) == [3, 5]


def test_load_part_file_sorts_input(tmp_path):
    path = tmp_path / "parts.txt"
    path.write_text("7\n3\n5\n")
    assert load_part_file(path).parts == (3, 5, 7)


def test_load_part_file_duplicate_names_line(tmp_path):
    path = tmp_path / "parts.txt"
    path.write_text("3\n5\n3\n")
    with pytest.raises(PartFileError, match=r":3: duplicate part 3"):
        load_part_file(path)


def test_load_part_file_bad_token_names_line(tmp_path):
    path = tmp_path / "parts.txt"
    path.write_text("3\nseven\n")
    with pytest.raises(PartFileError, match=r":2: not a decimal integer: 'seven'"):
        load_part_file(path)


def test_load_part_file_nonpositive(tmp_path):
    path = tmp_path / "parts.txt"
    path.write_text("3\n0\n")
    with pytest.raises(PartFileError, match=r":2: part must be >= 1"):
        load_part_file(path)


def test_load_part_file_empty(tmp_path):
    path = tmp_path / "parts.txt"
    path.write_text("\n\n")
    with pytest.raises(PartFileError, match="no parts"):
        load_part_file(path)


def test_load_part_file_missing(tmp_path):
    with pytest.raises(PartFileError, match="cannot read"):
        load_part_file(tmp_path / "nope.txt")


# -- density profiles -------------------------------------------------------

def test_density_profile_examples():
    profile = density_profile(ResidueParts(2, (1,)), [10, 100, 1000])
    assert profile.ratios == (Fraction(1, 2),) * 3

    profile = density_profile(FiniteParts((1, 2, 3)), [10, 100])
    assert profile.ratios == (Fraction(3, 10), Fraction(3, 100))

    profile = density_profile(PrimeParts(), [100])
    assert profile.ratios == (Fraction(25, 100),)


def test_density_profile_tail_summaries():
    profile = density_profile(PrimeParts(), [10, 100, 1000, 10000])
    for lo, hi, ratio in zip(profile.tail_min, profile.tail_max, profile.ratios):
        assert lo <= ratio <= hi
        assert 0 <= ratio <= 1
    # tail extremes are the min/max over the remaining suffix
    assert profile.tail_min[0] == min(profile.ratios)
    assert profile.tail_max[-1] == profile.ratios[-1]
    # primes thin out: suffix maxima shrink along this grid
    assert profile.tail_max[0] >= profile.tail_max[-1]


def test_density_profile_grid_validation():
    with pytest.raises(ValueError):
        density_profile(AllParts(), [])
    with pytest.raises(ValueError):
        density_profile(AllParts(), [10, 10])
    with pytest.raises(ValueError):
        density_profile(AllParts(), [0, 5])


# -- prime cache ------------------------------------------------------------

def test_primes_upto_matches_trial_division():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(300) == _trial_division_primes(300)


def test_prime_count_values():
    assert prime_count(1) == 0
    assert prime_count(2) == 1
    assert prime_count(100) == 25
    assert prime_count(1000) == 168


def test_prime_cache_grows_then_serves_small_queries():
    big = primes_upto(2000)
    assert primes_upto(30) == [p for p in big if p <= 30]


def _sieve_counts(grid):
    """pi(x) at each grid point from a plain sieve written here."""
    end = grid[-1]
    flags = [True] * (end + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(end) + 1):
        if flags[p]:
            for q in range(p * p, end + 1, p):
                flags[q] = False
    counts, running = {}, 0
    for n in range(end + 1):
        running += flags[n]
        counts[n] = running
    return [counts[x] for x in grid]


@pytest.mark.parametrize("grid", [
    [10, 100, 300],
    [1000, 2000, 4000, 8000, 16000, 32000, 64000, 100_000],
])
def test_density_profile_sieves_once_to_the_grid_end(monkeypatch, grid):
    monkeypatch.setattr(partsets, "_prime_cache", [])
    monkeypatch.setattr(partsets, "_prime_limit", 0)
    profile = density_profile(PrimeParts(), grid)
    # a rising grid would double the sieve limit past its end (131072 here)
    assert partsets._prime_limit == max(grid[-1], 1024)
    assert profile.ratios == tuple(
        Fraction(c, x) for c, x in zip(_sieve_counts(grid), grid))
