"""Part-set specs: enumeration, counting, gcd bookkeeping, density data."""

import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_GRIDS, GRID_RULE
from partgrowth import partsets
from partgrowth.cli import parse_grid
from partgrowth.partsets import (AllParts, CofiniteTail, FiniteParts,
                                 PartFileError, PrimeParts, ResidueParts,
                                 UnsupportedNormalizationError, block_counts,
                                 counting_function, density_profile,
                                 enumerate_parts, gcd_of_set, iter_parts,
                                 load_part_file, normalize_by_gcd,
                                 prime_count, primes_upto)

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


SPECS = st.one_of(
    st.sampled_from(FAMILY),
    st.integers(1, 40).map(CofiniteTail),
    st.lists(st.integers(1, 600), min_size=1, max_size=8, unique=True).map(
        lambda ps: FiniteParts(tuple(sorted(ps)))),
    st.integers(1, 12).flatmap(lambda m: st.lists(
        st.integers(1, m), min_size=1, max_size=m, unique=True).map(
        lambda rs: ResidueParts(m, tuple(sorted(rs))))),
)


@settings(max_examples=150, deadline=None)
@given(spec=SPECS, bound=st.integers(1, 600), start=st.integers(1, 650))
def test_iter_parts_from_start_is_the_filtered_enumeration(spec, bound, start):
    got = list(iter_parts(spec, bound, start))
    want = [a for a in enumerate_parts(spec, bound) if a >= start]
    assert sorted(got) == want
    if isinstance(spec, PrimeParts):
        assert got == sorted(got)


def test_iter_parts_start_validation():
    with pytest.raises(ValueError, match="start"):
        iter_parts(AllParts(), 10, 0)


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
    for parts in BAD_GRIDS:
        with pytest.raises(ValueError, match=GRID_RULE):
            FiniteParts(parts)


def test_residue_validation():
    with pytest.raises(ValueError, match="residue 5 exceeds modulus 4"):
        ResidueParts(4, (5,))
    with pytest.raises(ValueError):
        ResidueParts(0, (1,))
    with pytest.raises(ValueError):
        ResidueParts(4, ())
    for residues in BAD_GRIDS:
        with pytest.raises(ValueError, match=GRID_RULE):
            ResidueParts(4, residues)


def test_cofinite_validation():
    with pytest.raises(ValueError):
        CofiniteTail(0)


@pytest.mark.parametrize("make", [
    lambda: FiniteParts((1.5, 2.7)),
    lambda: FiniteParts((1, 2.0)),
    lambda: FiniteParts((1, Fraction(2))),
    lambda: FiniteParts(("3",)),
    lambda: ResidueParts(4.9, (1, 3)),
    lambda: ResidueParts(4.0, (1,)),
    lambda: ResidueParts(4, (1.2, 3.8)),
    lambda: ResidueParts(4, (1, 3.0)),
    lambda: CofiniteTail(2.5),
    lambda: CofiniteTail(3.0),
    lambda: CofiniteTail("3"),
])
def test_spec_fields_must_be_ints(make):
    # a float used to truncate silently: FiniteParts((1.5, 2.7)) printed
    # finite:1,2 and ResidueParts(4.9, (1.2, 3.8)) mod:4.9:1,3
    with pytest.raises(ValueError, match="expected an int"):
        make()


def test_internal_spec_builders_pass_ints(tmp_path):
    from partgrowth.asymptotics import arithmetic_progression_probe
    from partgrowth.counting import table_from_parts
    assert table_from_parts(range(4, 0, -1), 10).spec == FiniteParts(
        (1, 2, 3, 4))
    path = tmp_path / "parts.txt"
    path.write_text("6\n2\n\n4\n")
    spec = load_part_file(path)
    assert spec.parts == (2, 4, 6)
    assert normalize_by_gcd(spec, 2) == FiniteParts((1, 2, 3))
    assert normalize_by_gcd(ResidueParts(6, [2, 4]), 2) == ResidueParts(
        3, (1, 2))
    report = arithmetic_progression_probe(4, [1, 3], [200, 400])
    assert report.meta["set"] == "mod:4:1,3"
    with pytest.raises(ValueError, match="expected an int, got 4.0"):
        arithmetic_progression_probe(4.0, [1, 3], [200, 400])


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
    # int() would probe the truncated points 20 and 30 without a word
    for grid in ([20.5, 30.9], [10, 20.0], [Fraction(21, 2)]):
        with pytest.raises(ValueError, match="ints"):
            density_profile(AllParts(), grid)
    for grid in BAD_GRIDS:
        with pytest.raises(ValueError, match=GRID_RULE):
            density_profile(AllParts(), grid)


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


def test_prime_flags_agree_with_trial_division_across_doublings(monkeypatch):
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    oracle = _trial_division_primes(16384)
    limits = []
    # each bound past the limit doubles it: 1024, 2048, 4096, 8192, 16384
    for bound in (1000, 1024, 1025, 2047, 2049, 4100, 8191, 8193, 9000):
        assert primes_upto(bound) == [p for p in oracle if p <= bound]
        limits.append(len(partsets._prime_sieve[0]) - 1)
        for x in range(bound - 40, bound + 1):
            assert prime_count(x) == bisect_right(oracle, x), x
    assert limits == [1024, 1024, 2048, 2048, 4096, 8192, 8192, 16384, 16384]
    # every x, across the block boundaries of the count table
    assert ([prime_count(x) for x in range(16385)]
            == [bisect_right(oracle, x) for x in range(16385)])
    assert prime_count(1) == prime_count(0) == prime_count(-5) == 0


def _block_values(n):
    """Every v = n // k, and every v <= isqrt(n)."""
    r = math.isqrt(n)
    return sorted({n // k for k in range(1, r + 1)} | set(range(1, r + 1)))


def _lucy_at(small, large, n, v):
    return small[v] if v < len(small) else large[n // v]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10 ** 6))
def test_lucy_equals_the_sieve_at_every_block_value(n):
    partsets._ensure_sieved(10 ** 6)                # flags cover every n
    small, large = partsets._lucy(n)
    r = math.isqrt(n)
    assert len(small) == len(large) == r + 1
    assert large[0] == 0
    assert all(_lucy_at(small, large, n, v) == prime_count(v)
               for v in _block_values(n))
    assert block_counts(PrimeParts(), n) == (small, large)   # flags route


def test_lucy_equals_a_plain_sieve_and_leaves_the_flags_alone(monkeypatch):
    n = 123_457
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    small, large = block_counts(PrimeParts(), n)
    assert partsets._prime_sieve == (bytearray(), [0])
    values = _block_values(n)
    assert [_lucy_at(small, large, n, v) for v in values] == _sieve_counts(
        values)
    assert prime_count(n) == large[1] == 11_602
    assert partsets._prime_sieve == (bytearray(), [0])


def test_lucy_equals_sympy_primepi():
    sympy = pytest.importorskip("sympy")
    for n in (10 ** 7, 10 ** 8):
        assert partsets._lucy(n)[1][1] == sympy.primepi(n)


@pytest.mark.parametrize("spec", FAMILY[:-1] + [CofiniteTail(50)], ids=str)
def test_block_counts_of_the_closed_forms_count_the_members(spec):
    for n in (1, 2, 3, 10, 99, 100, 1000, 12_345):
        members = enumerate_parts(spec, n)
        small, large = block_counts(spec, n)
        r = math.isqrt(n)
        assert small == [bisect_right(members, v) for v in range(r + 1)]
        assert large == [0] + [bisect_right(members, n // k)
                               for k in range(1, r + 1)]


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
    # a dense grid weighs less as one sieve than as one Lucy per point
    costs = partsets._prime_costs(grid)
    assert min(costs, key=costs.get) == "sieve"
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    profile = density_profile(PrimeParts(), grid)
    # a rising grid would double the sieve limit past its end (131072 here)
    assert len(partsets._prime_sieve[0]) == max(grid[-1], 1024) + 1
    assert profile.ratios == tuple(
        Fraction(c, x) for c, x in zip(_sieve_counts(grid), grid))


def test_density_profile_of_a_sparse_prime_grid_leaves_the_flags_empty(
        monkeypatch):
    grid = parse_grid("geo:1000:1000000:4")
    costs = partsets._prime_costs(grid)
    assert min(costs, key=costs.get) == "lucy"
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    profile = density_profile(PrimeParts(), grid)
    assert partsets._prime_sieve == (bytearray(), [0])
    assert profile.ratios == tuple(
        Fraction(c, x) for c, x in zip(_sieve_counts(grid), grid))


def test_prime_route_is_estimate_only(monkeypatch):
    for name in ("_lucy", "_ensure_sieved", "counting_function",
                 "prime_count"):
        monkeypatch.setattr(partsets, name, None)   # any call would fail
    costs = partsets._prime_costs
    # the boundary benchmark's grid: 555175 Lucy steps at 120 ns against
    # 10**7 sieve steps at 8 ns, Lucy
    assert costs(parse_grid("geo:1000:10000000:2")) == {
        "sieve": 80_000_000_000, "lucy": 66_621_000_000}
    # about 33000 points below 10**5: one sieve
    assert costs(parse_grid("geo:1:100000:1.0001")) == {
        "sieve": 800_000_000, "lucy": 8_191_019_400_000}
    assert costs((10 ** 8,)) == {"sieve": 800_000_000_000,
                                 "lucy": 120_000_000_000}
    assert costs((10 ** 4,)) == {"sieve": 80_000_000, "lucy": 120_000_000}


def test_density_of_the_primes_at_1e8_sieves_nothing_past_2_20(monkeypatch):
    ensure = partsets._ensure_sieved

    def guarded(bound):
        assert bound <= 1 << 20, f"sieve to {bound}"
        ensure(bound)
    monkeypatch.setattr(partsets, "_ensure_sieved", guarded)
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    profile = density_profile(PrimeParts(), [10 ** 8])
    assert profile.ratios == (Fraction(5_761_455, 10 ** 8),)


def test_density_profile_of_the_primes_holds_only_the_flags(monkeypatch):
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    tracemalloc.start()
    try:
        profile = density_profile(PrimeParts(), [10 ** 6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.ratios == (Fraction(78498, 10 ** 6),)
    # Lucy's three lists of 1001 ints; a sieve would hold a flag byte per
    # integer, and a list of the 78498 primes adds 3 MB
    assert peak < 1_500_000
