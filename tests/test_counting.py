"""Exact tables, the pentagonal recurrence, and the structural checks."""

import math
import random
import tracemalloc
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partgrowth import counting, genfun, partsets
from partgrowth.cli import parse_grid
from partgrowth._costs import STEP_PS
from partgrowth.counting import (_TAIL_TARGET, BRUTEFORCE_LIMIT,
                                 PartitionTable, _euler_quotient, _euler_step,
                                 _grid_costs, _hrr_count, _hrr_sum,
                                 _pentagonal_offsets, _split_counts,
                                 _split_steps, _table_costs, _tail_bound,
                                 _term_count,
                                 check_cofinite_monotonicity,
                                 check_shift_monotonicity, check_window_max,
                                 count_partitions_bruteforce, grid_counts,
                                 partition_table, pentagonal_table,
                                 scaled_count, table_from_parts,
                                 window_max_location)
from partgrowth.partsets import (AllParts, CofiniteTail, FiniteParts,
                                 PrimeParts, ResidueParts, counting_function,
                                 enumerate_parts, iter_parts)

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


# -- dynamic program --------------------------------------------------------

def test_dp_examples():
    assert partition_table(FiniteParts((1, 2, 3)), 6)[6] == 7
    table = partition_table(FiniteParts((2, 3)), 7)
    assert table[1] == 0 and table[6] == 2 and table[7] == 1
    assert partition_table(AllParts(), 4).values == (1, 1, 2, 3, 5)


def test_dp_base_cases():
    assert partition_table(AllParts(), 0).values == (1,)
    # no member of the set reaches the limit: row of zeros after 1
    assert partition_table(FiniteParts((9, 11)), 5).values == (1, 0, 0, 0, 0, 0)
    assert partition_table(CofiniteTail(7), 6).values == (1,) + (0,) * 6


def test_dp_zero_below_least_part():
    table = partition_table(CofiniteTail(4), 30)
    assert all(table[n] == 0 for n in range(1, 4))
    assert table[4] == 1


def test_dp_rejects_negative_limit():
    with pytest.raises(ValueError):
        partition_table(AllParts(), -1)


def test_dp_matches_bruteforce_small():
    for spec in FAMILY:
        parts = enumerate_parts(spec, 25)
        table = partition_table(spec, 25)
        for n in range(26):
            assert table[n] == count_partitions_bruteforce(parts, n), (spec, n)


def test_dp_permutation_invariance():
    rng = random.Random(11)
    parts = enumerate_parts(PrimeParts(), 50)
    reference = table_from_parts(parts, 120)
    for _ in range(5):
        shuffled = parts[:]
        rng.shuffle(shuffled)
        assert table_from_parts(shuffled, 120).values == reference.values


class _Recorded:
    """An iterable of parts that counts the passes taken over it."""

    def __init__(self, parts):
        self.parts, self.passes = parts, 0

    def __iter__(self):
        self.passes += 1
        return iter(self.parts)


def test_dp_reads_its_parts_once():
    # a one-shot stream makes the default spec and the table both
    odd = ResidueParts(2, (1,))
    table = table_from_parts(iter_parts(odd, 9), 9)
    assert table.spec == FiniteParts((1, 3, 5, 7, 9))
    assert table.values == partition_table(odd, 9).values
    parts = _Recorded(range(1, 10, 2))
    assert table_from_parts(parts, 9) == table and parts.passes == 1
    # a duplicate part or a part < 1 is refused from that one pass, so
    # before the DP, which would take a second
    for bad, rule in (([3, 1, 3], "strictly increasing"),
                      ([2, 0], "must be >= 1")):
        parts = _Recorded(bad)
        with pytest.raises(ValueError, match=rule):
            table_from_parts(parts, 9)
        assert parts.passes == 1, bad
    with pytest.raises(ValueError, match="must be >= 1"):
        table_from_parts([2, 0], 9, spec=FiniteParts((2,)))


def test_restricted_counts_bounded_by_unrestricted():
    full = pentagonal_table(300)
    for spec in FAMILY:
        table = partition_table(spec, 300)
        assert all(0 <= table[n] <= full[n] for n in range(301))


def test_residue_class_monotonicity():
    """Within each congruence class mod the least part, counts never drop."""
    for spec in FAMILY:
        table = partition_table(spec, 300)
        least = enumerate_parts(spec, 300)[0]
        for r in range(least):
            column = table.values[r::least]
            assert all(b >= a for a, b in zip(column, column[1:])), (spec, r)


# -- brute force ------------------------------------------------------------

def test_bruteforce_examples():
    assert count_partitions_bruteforce([1], 10) == 1
    assert count_partitions_bruteforce([2], 5) == 0
    assert count_partitions_bruteforce([1, 2], 4) == 3
    assert count_partitions_bruteforce([2, 3], 7) == 1
    assert count_partitions_bruteforce([5], 0) == 1


def test_bruteforce_guard():
    with pytest.raises(ValueError, match="capped"):
        count_partitions_bruteforce([1], BRUTEFORCE_LIMIT + 1)
    with pytest.raises(ValueError):
        count_partitions_bruteforce([1], -1)


# -- pentagonal recurrence --------------------------------------------------

def test_pentagonal_examples():
    assert pentagonal_table(0).values == (1,)
    assert pentagonal_table(5)[5] == 7
    assert pentagonal_table(100)[100] == 190569292


def test_pentagonal_matches_dp():
    # partition_table(AllParts()) is the recurrence itself; the coin DP
    # over the parts 1..N is the independent route
    dp = table_from_parts(range(1, 301), 300)
    assert pentagonal_table(300).values == dp.values
    assert partition_table(AllParts(), 300).values == dp.values


# -- Euler quotient against the coin DP and brute force --------------------

def _residue_sets():
    """Random residue sets, plus the non-multiples of d mod m (m = d * j),
    whose numerator starts from E(x^d)."""
    def non_multiples(d, j, drop):
        m = d * j
        kept = [r for r in range(1, m + 1) if r % d and r not in drop]
        return ResidueParts(m, tuple(kept or [1]))

    random_sets = st.integers(1, 12).flatmap(
        lambda m: st.sets(st.integers(1, m), min_size=1)
        .map(lambda rs: ResidueParts(m, tuple(sorted(rs)))))
    return st.one_of(random_sets, st.builds(
        non_multiples, st.integers(2, 5), st.integers(1, 4),
        st.sets(st.integers(1, 20), max_size=2)))


SWEEP_SPECS = st.one_of(
    st.just(AllParts()),
    _residue_sets(),
    st.integers(1, 60).map(CofiniteTail),
    st.sets(st.integers(1, 50), min_size=1, max_size=8)
    .map(lambda ps: FiniteParts(tuple(sorted(ps)))),
)


def _numerator_by_definition(spec, limit):
    """prod (1 - x^a) over the a <= limit outside the set, one factor at a time."""
    members = set(enumerate_parts(spec, limit)) if limit else set()
    numerator = [1] + [0] * limit
    for a in range(1, limit + 1):
        if a not in members:
            numerator = [u - (numerator[n - a] if n >= a else 0)
                         for n, u in enumerate(numerator)]
    return numerator


@given(spec=SWEEP_SPECS, limit=st.integers(0, 400), data=st.data())
def test_partition_table_routes_agree(spec, limit, data):
    parts = enumerate_parts(spec, limit) if limit else []
    table = partition_table(spec, limit)
    dp = table_from_parts(parts, limit, spec=spec)
    assert table.values == dp.values
    # the quotient on every set, whichever route partition_table chose
    quotient = _euler_quotient(_numerator_by_definition(spec, limit), limit)
    assert tuple(quotient) == dp.values
    n = data.draw(st.integers(0, min(limit, BRUTEFORCE_LIMIT)))
    assert table[n] == count_partitions_bruteforce(parts, n)


@pytest.mark.parametrize("spec, quotient", [
    (AllParts(), True),
    (ResidueParts(2, (1,)), True),
    (ResidueParts(4, (1, 3)), True),
    (ResidueParts(6, (1, 2, 4, 5)), True),
    (CofiniteTail(3), True),
    (PrimeParts(), False),
    (FiniteParts((1, 2, 3)), False),
    (CofiniteTail(1500), False),
])
def test_route_choices_at_2000(spec, quotient):
    assert (_pick("table", spec, 2000) == "quotient") == quotient


@pytest.mark.parametrize("spec, step", [
    (ResidueParts(2, (1,)), 2),
    (ResidueParts(4, (1, 3)), 2),
    (ResidueParts(6, (1, 2, 4, 5)), 3),
    (ResidueParts(4, (2,)), 4),
    (ResidueParts(6, (5, 6)), 0),
    (ResidueParts(1, (1,)), 0),
    (AllParts(), 0),
    (CofiniteTail(3), 0),
    # steps past the limit 100 are not looked for: 202 and 2**89 - 1
    (ResidueParts(202, (2, 101)), 0),
    (ResidueParts(2 ** 89 - 1, (3, 5)), 0),
    (ResidueParts(3 * 10 ** 20, (1, 2)), 3),
])
def test_euler_step(spec, step):
    assert _euler_step(spec, 100) == step


@pytest.mark.parametrize("spec, quotient", [
    (ResidueParts(10 ** 20, (1,)), False),
    (ResidueParts(6 * 10 ** 30, (1, 7, 6 * 10 ** 30)), False),
    (ResidueParts(2 ** 89 - 1, (3, 5)), False),
    (ResidueParts(2 * 10 ** 20, tuple(range(1, 60, 2))), True),
])
def test_huge_modulus_table_matches_the_coin_dp(spec, quotient):
    # trial division of m to sqrt(m) would not finish; the step scan
    # stops at the limit
    limit = 60
    assert (_pick("table", spec, limit) == "quotient") == quotient
    dp = table_from_parts(enumerate_parts(spec, limit), limit)
    assert partition_table(spec, limit).values == dp.values


def test_odd_parts_quotient_matches_dp_at_3000():
    spec = ResidueParts(2, (1,))
    assert _pick("table", spec, 3000) == "quotient"
    dp = table_from_parts(enumerate_parts(spec, 3000), 3000)
    assert partition_table(spec, 3000).values == dp.values


def test_large_n_against_rademacher(pentagonal_50k):
    """Exact p(n) from the Hardy-Ramanujan-Rademacher series, far beyond
    the reach of the coin DP and brute force."""
    pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import partition

    def p(n):
        return int(partition(n))

    for n in (10_000, 20_000, 50_000):
        assert pentagonal_50k[n] == p(n), n
    # numerator (1 - x)(1 - x^2) = 1 - x - x^2 + x^3
    tail = partition_table(CofiniteTail(3), 20_000)
    for n in (3, 777, 5_000, 19_999, 20_000):
        assert tail[n] == p(n) - p(n - 1) - p(n - 2) + p(n - 3), n


# -- point counts: the Hardy-Ramanujan-Rademacher series -------------------

#: The grid of the benchmark's ratio operation.
BENCH_GRID = (1000, 2500, 6250, 15625, 39062, 50000)


def _series_start():
    """n0, the least n >= 2 with C >= N(n): every x = C/k of the series
    is then >= 1, as its rounding bound needs."""
    return next(n for n in count(2)
                if math.pi / 6 * math.sqrt(24 * n - 1) >= _term_count(n))


def test_point_counts_match_the_table(monkeypatch, pentagonal_50k):
    # below 2 the tail bound does not hold, below n0 the rounding bound
    n0 = _series_start()
    assert all(_hrr_count(n) is None for n in range(n0))
    # every n from n0 to 1000, then 200 seeded points up to 50000
    points = [*range(n0, 1001), *random.Random(22).sample(range(1001, 50_001), 200)]
    for n in points:
        assert _hrr_count(n) == pentagonal_50k[n], n
    # grid_counts reads every point below n0 off one table
    built = []

    def counted(spec, limit):
        built.append(limit)
        return partition_table(spec, limit)

    monkeypatch.setattr(counting, "partition_table", counted)
    for grid in ((1,) + BENCH_GRID, (2, 57, 110, 111, 210) + BENCH_GRID):
        built.clear()
        assert _pick("grid", AllParts(), grid) == "series"
        assert grid_counts(AllParts(), grid) == tuple(
            pentagonal_50k[n] for n in grid)
        assert built == [max(n for n in grid if n < n0)], grid


def test_no_series_term_calls_libm(monkeypatch, pentagonal_50k):
    def refuse(x):
        raise AssertionError("a series term called libm")

    # math.sinh stays: _tail_bound takes it to size the series
    monkeypatch.setattr(math, "cos", refuse)
    monkeypatch.setattr(math, "cosh", refuse)
    for n in (111, 1000, 50_000):
        assert _hrr_count(n) == pentagonal_50k[n], n


def test_point_counts_against_sympy():
    pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import partition

    for n in (10**5, 10**6):
        assert _hrr_count(n) == int(partition(n)), n


def _series_prefix(n, terms):
    """The first terms terms of the series for p(n), in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    pi = mpmath.pi
    x0 = pi / 6 * mpmath.sqrt(24 * n - 1)
    total = mpmath.mpf(0)
    for k in range(1, terms + 1):
        s = mpmath.fsum((-1) ** l * mpmath.cos(pi * (6 * l + 1) / (6 * k))
                        for l in range(2 * k)
                        if (l * (3 * l + 1) // 2 + n) % k == 0)
        x = x0 / k
        total += 4 * s * (mpmath.cosh(x) - mpmath.sinh(x) / x) / (24 * n - 1)
    return total


@pytest.mark.parametrize("n", [2, 3, 47, 100, 111, 112, 147, 200, 1000,
                               4321, 50_000])
def test_series_sum_lies_within_its_bounds(n, pentagonal_50k):
    mpmath = pytest.importorskip("mpmath")
    terms, total, rounding = _hrr_sum(n)
    # the least number of terms whose tail bound meets the target
    assert _tail_bound(n, terms) <= _TAIL_TARGET < _tail_bound(n, terms - 1)
    # below n0 some x = C/k < 1, where no rounding bound is claimed
    assert rounding < 1e-6 if n >= _series_start() else rounding == math.inf
    with mpmath.workdps(len(str(pentagonal_50k[n])) + 30):
        prefix = _series_prefix(n, terms)
        assert abs(mpmath.mpf(str(total)) - prefix) <= rounding
        assert abs(prefix - pentagonal_50k[n]) <= _tail_bound(n, terms)


def test_grid_route_choice_is_estimate_only(monkeypatch):
    def refuse(*args):
        raise AssertionError("the chooser started counting")

    for name in ("_hrr_sum", "partition_table", "_euler_quotient",
                 "table_from_parts", "_split_counts"):
        monkeypatch.setattr(counting, name, refuse)
    # 144000 quotient steps at 60 ns against 381818 series steps at 360 ns
    assert _grid_costs(AllParts(), parse_grid("geo:1:2000:1.01")) == {
        "coin": 120_060_000_000, "quotient": 8_640_000_000,
        "split": 92_334_590_000, "series": 137_454_480_000}
    # the figures in STEP_PS' docstring: 18200000 and 40889 steps
    assert _grid_costs(AllParts(), BENCH_GRID) == {
        "coin": 75_001_500_000_000, "quotient": 1_092_000_000_000,
        "split": 47_931_892_340_000, "series": 14_720_040_000}
    assert parse_grid("geo:1000:50000:2.5") == BENCH_GRID
    for spec in FAMILY[1:]:
        assert set(_grid_costs(spec, BENCH_GRID)) == {
            "coin", "quotient", "split"}, spec


def test_a_grid_is_priced_once(monkeypatch):
    priced, counted = [], []

    def table_costs(*args):
        priced.append(args[:2])
        return _table_costs(*args)

    def count(spec, x):
        counted.append(x)
        return counting_function(spec, x)

    monkeypatch.setattr(counting, "_table_costs", table_costs)
    monkeypatch.setattr(counting, "counting_function", count)
    # the table, the split and the series each take one of these
    for spec in FAMILY:
        for grid in ((1, 7, 40, 333), (1000, 2500, 6000)):
            priced.clear()
            counted.clear()
            grid_counts(spec, grid)
            # one price, and no A(x) counted twice: A(grid[-1]) is shared
            assert len(priced) == 1, (spec, grid)
            assert len(counted) == len(set(counted)), (spec, grid)


def test_forced_fallback_reads_the_table(monkeypatch, pentagonal_50k):
    # too few guard digits: every decimal term's rounding bound is huge
    grid = (300, 600, 1200)
    assert _pick("grid", AllParts(), grid) == "series"
    monkeypatch.setattr(counting, "_GUARD_DIGITS", -12)
    assert [_hrr_count(n) for n in grid] == [None] * 3
    built = []

    def counted(spec, limit):
        built.append(limit)
        return partition_table(spec, limit)

    monkeypatch.setattr(counting, "partition_table", counted)
    assert grid_counts(AllParts(), grid) == tuple(pentagonal_50k[n] for n in grid)
    assert built == [1200]


def test_forced_split_matches_the_table(monkeypatch):
    def split_first(spec, grid):
        return {**priced(spec, grid), "split": 0}

    def counted(spec, grid):
        taken.append(grid)
        return _split_counts(spec, grid)

    priced, taken = _grid_costs, []
    monkeypatch.setattr(counting, "_grid_costs", split_first)
    monkeypatch.setattr(counting, "_split_counts", counted)
    grid = (1, 7, 40, 333)
    for spec in FAMILY:
        table = partition_table(spec, grid[-1])
        assert grid_counts(spec, grid) == tuple(table[n] for n in grid), spec
    assert taken == [grid] * len(FAMILY)


def test_grid_counts_match_the_table_for_every_set():
    grid = (1, 7, 40, 333)
    for spec in FAMILY:
        table = partition_table(spec, grid[-1])
        assert grid_counts(spec, grid) == tuple(table[n] for n in grid), spec


# -- every chooser's pick ---------------------------------------------------

#: (chooser, set, limit or grid, the route it picks) on every benchmark
#: operation's input, every golden input and the edge cases above.  The
#: choosers are partition_table ("table": coin or quotient), grid_counts
#: ("grid": table, split or series, where table is one table to grid[-1]
#: by the route partition_table would take), density_profile for the
#: primes ("primes": sieve or lucy) and tauberian_probe's cut ("cut": the
#: M it keeps).
PICKS = [
    # the benchmark's operations
    ("table", ResidueParts(2, (1,)), 20_000, "quotient"),
    ("grid", ResidueParts(2, (1,)), (2000, 10_000, 20_000), "table"),
    ("table", PrimeParts(), 20_000, "coin"),
    ("grid", PrimeParts(), (2000, 10_000, 20_000), "split"),
    ("table", CofiniteTail(3), 5000, "quotient"),
    ("table", ResidueParts(4, (1, 3)), 2000, "quotient"),
    ("table", CofiniteTail(3), 2000, "quotient"),
    ("grid", FiniteParts((1, 2, 3)), "geo:100:2000:2", "table"),
    ("table", FiniteParts((1, 2, 3)), 2000, "coin"),
    ("grid", FiniteParts((3, 5)), (1, 7), "table"),
    ("table", FiniteParts((3, 5)), 7, "coin"),
    ("grid", FiniteParts((2, 3)), (1, 2), "table"),
    ("table", FiniteParts((2, 3)), 2, "coin"),
    ("grid", AllParts(), "geo:1000:50000:2.5", "series"),
    ("primes", PrimeParts(), "geo:1000:10000000:2", "lucy"),
    ("cut", None, (10_000, 50_000, 100_000), 0),
    ("cut", None, "geo:1:2000:1.0001", 2000),
    # the golden inputs
    ("table", AllParts(), 30, "quotient"),
    ("table", CofiniteTail(3), 30, "quotient"),
    ("table", ResidueParts(4, (1, 3)), 20, "coin"),
    ("primes", PrimeParts(), (1, 10, 100), "sieve"),
    ("grid", AllParts(), (1, 10, 50, 120), "table"),
    ("table", AllParts(), 120, "quotient"),
    ("grid", CofiniteTail(3), (1, 10, 50, 120), "table"),
    ("table", CofiniteTail(3), 120, "quotient"),
    ("grid", FiniteParts((1, 2, 3)), (10, 50, 100), "table"),
    ("table", FiniteParts((1, 2, 3)), 100, "coin"),
    ("table", AllParts(), 60, "quotient"),
    ("table", CofiniteTail(3), 60, "quotient"),
    ("table", FiniteParts((2, 3)), 40, "coin"),
    ("grid", ResidueParts(2, (1,)), (50, 100, 200), "table"),
    ("table", ResidueParts(2, (1,)), 200, "quotient"),
    ("grid", CofiniteTail(3), (50, 100, 200), "table"),
    ("table", CofiniteTail(3), 200, "quotient"),
    ("grid", PrimeParts(), (50, 100, 200, 400), "split"),
    ("table", PrimeParts(), 400, "coin"),
    ("grid", ResidueParts(3, (1, 2)), (50, 100, 200), "table"),
    ("table", ResidueParts(3, (1, 2)), 200, "quotient"),
    ("cut", None, (50, 100, 200), 100),
    ("cut", None, (50, 100), 100),
    ("cut", None, "geo:1:300:1.0001", 300),
    # edge cases
    ("table", AllParts(), 0, "coin"),
    ("table", AllParts(), 1, "coin"),
    ("table", AllParts(), 2, "coin"),
    ("table", PrimeParts(), 2000, "coin"),
    ("table", PrimeParts(), 3, "coin"),
    ("table", ResidueParts(6, (1, 2, 4, 5)), 2000, "quotient"),
    ("table", CofiniteTail(1500), 2000, "coin"),
    ("table", ResidueParts(2, (1,)), 3000, "quotient"),
    ("table", ResidueParts(5, (1, 4)), 10 ** 6, "coin"),
    ("table", ResidueParts(10 ** 20, (1,)), 60, "coin"),
    ("table", ResidueParts(6 * 10 ** 30, (1, 7, 6 * 10 ** 30)), 60, "coin"),
    ("table", ResidueParts(2 ** 89 - 1, (3, 5)), 60, "coin"),
    ("table", ResidueParts(2 * 10 ** 20, tuple(range(1, 60, 2))), 60,
     "quotient"),
    ("grid", AllParts(), (1,), "series"),
    ("grid", AllParts(), (2,), "table"),
    ("grid", AllParts(), (209,), "table"),
    ("grid", AllParts(), (210,), "series"),
    ("grid", AllParts(), "geo:1:2000:1.01", "table"),
    ("grid", AllParts(), (300, 600, 1200), "series"),
    ("grid", AllParts(), (10 ** 6,), "series"),
    ("grid", AllParts(), (10 ** 5, 10 ** 6), "series"),
    ("grid", AllParts(), (1, 7, 40, 333), "table"),
    ("grid", PrimeParts(), BENCH_GRID, "split"),
    ("primes", PrimeParts(), (10, 100, 300), "sieve"),
    ("primes", PrimeParts(), (1000, 2000, 4000, 8000, 16_000, 32_000,
                              64_000, 100_000), "sieve"),
    ("primes", PrimeParts(), "geo:1000:1000000:4", "lucy"),
    ("primes", PrimeParts(), "geo:1:100000:1.0001", "sieve"),
    ("primes", PrimeParts(), (10 ** 8,), "lucy"),
    ("primes", PrimeParts(), (10 ** 6,), "lucy"),
    ("primes", PrimeParts(), (10 ** 4,), "sieve"),
    ("cut", None, tuple(range(1, 2001)) + (100_000,), 2000),
    ("cut", None, (1,), 1),
    ("cut", None, (119,), 119),
    ("cut", None, (120,), 0),
    # the split: dense residue sets without an E(x^d) factor and long-gap
    # tails take it too; all parts never do
    ("grid", ResidueParts(5, (1, 4)), (2000, 10_000, 20_000), "split"),
    ("grid", ResidueParts(7, (2, 3, 6)), (1000, 5000, 10_000), "split"),
    ("grid", CofiniteTail(1500), (2000,), "split"),
    ("grid", AllParts(), (2000, 10_000, 20_000), "series"),
]


def _pick(chooser, spec, arg):
    """The route the chooser takes on (spec, arg), from its prices alone;
    a grid's coin or quotient pick reads "table"."""
    costs = {"table": lambda: _table_costs(spec, arg),
             "grid": lambda: _grid_costs(spec, arg),
             "primes": lambda: partsets._prime_costs(arg),
             "cut": lambda: genfun._cut_costs(arg)}[chooser]()
    route = min(costs, key=costs.get)
    if chooser == "grid" and route in ("coin", "quotient"):
        return "table"
    return route


@pytest.mark.parametrize("chooser, spec, arg, route", PICKS)
def test_every_chooser_keeps_its_pick(chooser, spec, arg, route):
    if isinstance(arg, str):
        arg = parse_grid(arg)
    assert _pick(chooser, spec, arg) == route


def _walked_coin_steps(spec, top, limit):
    """The coin DP's steps to limit over the parts <= top, walked."""
    return sum(limit - a + 1 for a in iter_parts(spec, top)) if top else 0


def _walked_route(spec, limit):
    """partition_table's route as it was once priced, by walking every
    part <= limit: the reference for the closed forms."""
    if limit < 1:
        return "coin"
    member = bytearray(limit + 1)
    for a in iter_parts(spec, limit):
        member[a] = 1
    coin_cost = _walked_coin_steps(spec, limit, limit)
    d = _euler_step(spec, limit)
    excluded = [a for a in range(1, limit + 1)
                if not member[a] and (d == 0 or a % d)]
    plus, minus = _pentagonal_offsets(limit)
    if limit * (len(plus) + len(minus) + len(excluded)) >= coin_cost:
        return "coin"
    return "quotient"


@pytest.mark.parametrize("spec, limit, route", [
    (ResidueParts(5, (1, 4)), 10 ** 9, "coin"),
    (AllParts(), 10 ** 9, "quotient"),
    (ResidueParts(2, (1,)), 10 ** 9, "quotient"),
    (CofiniteTail(1500), 10 ** 9, "quotient"),
    (PrimeParts(), 10 ** 6, "coin"),
])
def test_table_price_is_estimate_only(monkeypatch, spec, limit, route):
    def refuse(*args):
        raise AssertionError("the price started building")

    for module, name in [
            (counting, "iter_parts"), (counting, "enumerate_parts"),
            (counting, "_euler_quotient"), (counting, "table_from_parts"),
            (partsets, "iter_parts"), (partsets, "enumerate_parts"),
            (partsets, "_ensure_sieved")]:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    tracemalloc.start()
    try:
        costs = _table_costs(spec, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min(costs, key=costs.get) == route
    # a byte per integer to 10**9 would be 1 GB; the primes hold Lucy's
    # lists of isqrt(10**6) ints
    assert peak < 256_000


@given(spec=st.one_of(SWEEP_SPECS, st.just(PrimeParts())),
       limit=st.integers(0, 2000))
@example(spec=PrimeParts(), limit=5)
@example(spec=PrimeParts(), limit=7)
@example(spec=CofiniteTail(3000), limit=2000)
def test_table_pick_matches_the_walk_of_the_parts(spec, limit):
    assert _pick("table", spec, limit) == _walked_route(spec, limit)
    # the prices themselves: exact for every set but the primes, whose
    # closed form is limit * A(limit) or N * A(M)
    exact = not isinstance(spec, PrimeParts)
    coin = _table_costs(spec, limit)["coin"]
    walked = STEP_PS["table"] * _walked_coin_steps(spec, limit, limit)
    assert coin == walked if exact else coin >= walked
    if limit < 1:
        return
    steps = _split_steps(spec, (limit,), counting_function(spec, limit))
    walked = _walked_coin_steps(spec, limit // 3, limit)
    assert steps["table"] == walked if exact else steps["table"] >= walked
    big = sorted(iter_parts(spec, limit, limit // 3 + 1))
    pairs = sum(a + b <= limit for i, a in enumerate(big) for b in big[i:])
    assert steps["pair"] >= len(big) + pairs


#: Sets for the split: the primes, finite sets, non-symmetric and
#: symmetric residue sets and tails with a long gap.
SPLIT_SPECS = st.one_of(
    st.just(PrimeParts()),
    st.sets(st.integers(1, 700), min_size=1, max_size=12)
    .map(lambda ps: FiniteParts(tuple(sorted(ps)))),
    _residue_sets(),
    st.integers(2, 12).flatmap(lambda m: st.integers(1, m // 2).map(
        lambda r: ResidueParts(m, tuple(sorted({r, m - r}))))),
    st.integers(1, 700).map(CofiniteTail),
)
GRIDS = (st.lists(st.integers(1, 600), min_size=1, max_size=5, unique=True)
         .map(lambda g: tuple(sorted(g))))


@settings(max_examples=60, deadline=None)
@given(spec=SPLIT_SPECS, grid=GRIDS,
       tiny=st.lists(st.integers(1, BRUTEFORCE_LIMIT), min_size=1,
                     max_size=3, unique=True).map(lambda g: tuple(sorted(g))))
# grid[-1] = 2 (mod 3), where 3 (M + 1) = grid[-1] + 1: 599 and 38
@example(spec=PrimeParts(), grid=(599,), tiny=(38,))
@example(spec=ResidueParts(5, (1, 4)), grid=(2, 150, 200, 598), tiny=(2, 35))
# no part in (M, grid[-1]]: every count comes from the coin DP
@example(spec=FiniteParts((1, 2, 3)), grid=(10, 50, 300), tiny=(40,))
@example(spec=CofiniteTail(450), grid=(100, 460, 600), tiny=(1, 40))
@example(spec=FiniteParts((5, 700)), grid=(600,), tiny=(5,))
def test_split_matches_the_coin_dp_and_brute_force(spec, grid, tiny):
    top = max(grid[-1], tiny[-1])
    parts = enumerate_parts(spec, top)
    dp = table_from_parts(parts, grid[-1], spec=spec)
    assert _split_counts(spec, grid) == tuple(dp[n] for n in grid)
    assert _split_counts(spec, tiny) == tuple(
        count_partitions_bruteforce(parts, n) for n in tiny)


@pytest.mark.parametrize("spec, grid", [
    (PrimeParts(), (2000, 10 ** 6)),
    (ResidueParts(5, (1, 4)), (10 ** 9,)),
    (FiniteParts((1, 2, 3)), (10 ** 9,)),
])
def test_split_price_is_estimate_only(monkeypatch, spec, grid):
    def refuse(*args):
        raise AssertionError("the price started building")

    for module, name in [
            (counting, "iter_parts"), (counting, "enumerate_parts"),
            (counting, "table_from_parts"), (counting, "_split_counts"),
            (counting, "_euler_quotient"),
            (partsets, "iter_parts"), (partsets, "enumerate_parts"),
            (partsets, "_ensure_sieved")]:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    tracemalloc.start()
    try:
        costs = _grid_costs(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(costs) == {"coin", "quotient", "split"}
    # Lucy's lists of isqrt(10**6) ints for the primes
    assert peak < 256_000


# -- gcd-scaled counts ------------------------------------------------------

def test_scaled_count_examples():
    table = partition_table(FiniteParts((2, 3)), 10)
    assert scaled_count(table, 2, 5) == 0
    assert scaled_count(table, 2, 12) == 2
    assert scaled_count(table, 1, 7) == table[7]


def test_scaled_count_range_and_args():
    table = partition_table(FiniteParts((2, 3)), 10)
    with pytest.raises(IndexError):
        scaled_count(table, 2, 22)
    with pytest.raises(ValueError):
        scaled_count(table, 0, 4)
    with pytest.raises(ValueError):
        scaled_count(table, 2, -2)


# -- shift monotonicity -----------------------------------------------------

def test_shift_monotonicity_holds():
    assert check_shift_monotonicity(partition_table(AllParts(), 50), 1).ok
    assert check_shift_monotonicity(partition_table(FiniteParts((2, 3)), 50), 2).ok
    report = check_shift_monotonicity(partition_table(AllParts(), 1), 1)
    assert report.ok and report.checked == 1


def test_shift_monotonicity_precondition():
    table = partition_table(FiniteParts((2, 3)), 50)
    with pytest.raises(ValueError, match="no partition"):
        check_shift_monotonicity(table, 1)
    with pytest.raises(ValueError):
        check_shift_monotonicity(table, 51)


def test_shift_monotonicity_reports_witness():
    # hand-built decreasing run: not a real partition table, but the checker
    # must point at the first offending index
    fake = PartitionTable(spec=AllParts(), limit=2, values=(1, 1, 0))
    report = check_shift_monotonicity(fake, 1)
    assert not report.ok
    assert report.first_violation == (1, 1, 0)


# -- window max -------------------------------------------------------------

def test_window_max_examples():
    assert window_max_location(partition_table(AllParts(), 20), 1, 10) == 10
    table23 = partition_table(FiniteParts((2, 3)), 20)
    assert window_max_location(table23, 2, 9) == 9
    table5 = partition_table(CofiniteTail(5), 20)
    assert window_max_location(table5, 5, 7) == 7


def test_window_max_tie_breaks_largest():
    table = partition_table(FiniteParts((2, 3)), 20)
    # counts at 0..5 are 1,0,1,1,1,1: five tied maxima, the largest u wins
    assert window_max_location(table, 2, 5) == 5


def test_window_max_exhaustive_small():
    for spec in FAMILY:
        table = partition_table(spec, 60)
        least = enumerate_parts(spec, 60)[0]
        for x in range(61):
            report = check_window_max(table, least, x)
            assert report.ok, (spec, x, report)


def _window_max_by_prefix(table, least, x):
    """The per-prefix definition, one window_max_location call per y."""
    for y in range(x + 1):
        u = window_max_location(table, least, y)
        if not y - least < u <= y:
            return False, y + 1, (y, u)
    return True, x + 1, None


def test_window_max_reports_first_failing_prefix():
    # not a partition table: the maximum at 1 is too far back from y = 2
    fake = PartitionTable(spec=AllParts(), limit=3, values=(1, 5, 1, 1))
    report = check_window_max(fake, 1, 3)
    assert (report.ok, report.checked, report.first_violation) == (
        False, 3, (2, 1))
    assert report.note == "least_part=1"


@given(values=st.lists(st.integers(0, 6), min_size=1, max_size=14),
       least=st.integers(1, 4), data=st.data())
def test_window_max_one_pass_matches_prefix_definition(values, least, data):
    table = PartitionTable(spec=AllParts(), limit=len(values) - 1,
                           values=tuple(values))
    x = data.draw(st.integers(0, table.limit))
    report = check_window_max(table, least, x)
    assert (report.ok, report.checked, report.first_violation) == \
        _window_max_by_prefix(table, least, x)


def test_window_max_validation():
    table = partition_table(AllParts(), 10)
    with pytest.raises(ValueError):
        window_max_location(table, 1, 11)
    with pytest.raises(ValueError):
        window_max_location(table, 0, 5)
    with pytest.raises(ValueError):
        check_window_max(table, 1, 11)


# -- cofinite tails ---------------------------------------------------------

def test_cofinite_monotonicity_holds():
    assert check_cofinite_monotonicity(
        partition_table(CofiniteTail(1), 50)).ok
    assert check_cofinite_monotonicity(
        partition_table(CofiniteTail(3), 60)).ok


def test_cofinite_monotonicity_guard():
    with pytest.raises(ValueError, match="too small"):
        check_cofinite_monotonicity(partition_table(CofiniteTail(2), 8))


# -- table container --------------------------------------------------------

def test_table_indexing():
    table = partition_table(AllParts(), 5)
    assert len(table) == 6
    with pytest.raises(IndexError):
        table[6]
    with pytest.raises(IndexError):
        table[-1]
