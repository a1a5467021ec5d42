"""Log-series coefficients, Mobius inversion, and the analytic probes."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BAD_GRIDS, BAD_X_GRIDS, GRID_RULE, X_GRID_RULE
from partgrowth import genfun, partsets
from partgrowth.cli import main, parse_grid
from partgrowth.genfun import (CoefficientSeries, abelian_density_target,
                               abelian_probe, log_gf, log_gf_coefficients,
                               log_gf_grid, mobius_invert_sums, mobius_sieve,
                               sums_via_counting, tauberian_probe,
                               _enclosed_mean, _harmonic_run, _lcm_upto,
                               _neg_log, _small_part_end, _tail_cutoff)
from partgrowth.partsets import (AllParts, CofiniteTail, FiniteParts,
                                 PrimeParts, ResidueParts, counting_function,
                                 enumerate_parts, iter_parts)

ROUND_TRIP_FAMILY = [
    AllParts(),
    ResidueParts(2, (1,)),
    ResidueParts(4, (1, 3)),
    FiniteParts((1, 2, 3)),
    PrimeParts(),
]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# -- Mobius sieve -----------------------------------------------------------

def test_mobius_small_values():
    mu = mobius_sieve(30)
    assert mu[1:5] == (1, -1, -1, 0)
    assert mu[30] == -1
    assert mu[12] == 0


def test_mobius_divisor_sum_identity():
    mu = mobius_sieve(300)
    for n in range(1, 301):
        total = sum(mu[d] for d in _divisors(n))
        assert total == (1 if n == 1 else 0), n


def test_mobius_bounds():
    assert mobius_sieve(10)[0] == 0
    with pytest.raises(ValueError):
        mobius_sieve(-1)


# -- coefficients -----------------------------------------------------------

def test_coefficients_single_part_one():
    series = log_gf_coefficients(FiniteParts((1,)), 3)
    assert series.coeffs[1:] == (Fraction(1), Fraction(1, 2), Fraction(1, 3))
    assert series.sums[3] == Fraction(11, 6)


def test_coefficients_single_part_two():
    series = log_gf_coefficients(FiniteParts((2,)), 4)
    assert series.coeffs[1:] == (0, Fraction(1), 0, Fraction(1, 2))


def test_coefficients_odd_parts():
    series = log_gf_coefficients(ResidueParts(2, (1,)), 4)
    assert series.coeffs[1:] == (Fraction(1), Fraction(1, 2),
                                 Fraction(4, 3), Fraction(1, 4))


def test_coefficients_invariants():
    for spec in ROUND_TRIP_FAMILY:
        series = log_gf_coefficients(spec, 100)
        assert series.coeffs[0] == 0
        assert series.sums[0] == 0
        members = set(enumerate_parts(spec, 100))
        for n in range(1, 101):
            assert series.coeffs[n] >= 0
            assert series.sums[n] == series.sums[n - 1] + series.coeffs[n]
            if n in members:
                assert series.coeffs[n] >= 1
    with pytest.raises(ValueError):
        log_gf_coefficients(AllParts(), 0)


# -- the divisor-sum identity -----------------------------------------------

def test_sums_via_counting_examples():
    assert sums_via_counting(FiniteParts((1,)), 3) == Fraction(11, 6)
    assert sums_via_counting(FiniteParts((2,)), 4) == Fraction(3, 2)
    assert sums_via_counting(ResidueParts(2, (1,)), 1) == 1
    assert sums_via_counting(AllParts(), 0) == 0


def test_sums_identity_matches_prefix_sums():
    for spec in ROUND_TRIP_FAMILY:
        series = log_gf_coefficients(spec, 300)
        for n in range(1, 301):
            assert series.sums[n] == sums_via_counting(spec, n), (spec, n)


def _residue_spec(modulus):
    residues = st.lists(st.integers(1, modulus), min_size=1, max_size=modulus,
                        unique=True)
    return residues.map(lambda rs: ResidueParts(modulus, tuple(sorted(rs))))


PART_SETS = st.one_of(
    st.just(AllParts()),
    st.just(PrimeParts()),
    st.integers(1, 80).map(CofiniteTail),
    st.lists(st.integers(1, 3500), min_size=1, max_size=8, unique=True).map(
        lambda ps: FiniteParts(tuple(sorted(ps)))),
    st.integers(1, 12).flatmap(_residue_spec),
)


@settings(max_examples=30, deadline=None)
@given(spec=PART_SETS, limit=st.integers(1, 400))
def test_sigma_and_views_match_a_fraction_reference(spec, limit):
    series = log_gf_coefficients(spec, limit)
    parts = enumerate_parts(spec, limit)
    assert series.sigma == (0,) + tuple(
        sum(a for a in parts if l % a == 0) for l in range(1, limit + 1))
    coeffs = [Fraction(0)] * (limit + 1)
    for a in parts:
        for k in range(1, limit // a + 1):
            coeffs[a * k] += Fraction(1, k)
    sums = [Fraction(0)]
    for c in coeffs[1:]:
        sums.append(sums[-1] + c)
    assert series.coeffs == tuple(coeffs)
    assert series.sums == tuple(sums)


def _divisor_sum_by_terms(spec, n):
    """S(n) as the plain sum of A(n // k) / k over every k."""
    return sum((Fraction(counting_function(spec, n // k), k)
                for k in range(1, n + 1)), Fraction(0))


@settings(max_examples=40, deadline=None)
@given(spec=PART_SETS, n=st.integers(0, 3000))
@example(spec=AllParts(), n=3000)
@example(spec=PrimeParts(), n=2049)
@example(spec=ResidueParts(2, (1,)), n=2500)
def test_blocked_divisor_sum_matches_term_by_term(spec, n):
    # n > 2 * 1024 puts the k > n / 2 block through more than one chunk
    assert sums_via_counting(spec, n) == _divisor_sum_by_terms(spec, n)


@settings(max_examples=15, deadline=None)
@given(spec=PART_SETS, n=st.integers(1, 3000))
@example(spec=CofiniteTail(3), n=3000)
def test_blocked_divisor_sum_matches_coefficient_route(spec, n):
    assert sums_via_counting(spec, n) == log_gf_coefficients(spec, n).sums[n]


def test_harmonic_run_sums_every_block_exactly():
    D = _lcm_upto(3000)
    for a, b in ((1, 1), (2, 8), (7, 300), (1001, 3000), (1, 3000)):
        assert _harmonic_run(D, a, b) == sum(D // k for k in range(a, b + 1))


def test_harmonic_run_rejects_a_remainder():
    with pytest.raises(ArithmeticError):
        _harmonic_run(_lcm_upto(4), 3, 5)      # 12/5 is not an integer
    with pytest.raises(ArithmeticError):
        # the primes in (250, 500] do not divide lcm(1..250)
        _harmonic_run(_lcm_upto(250), 251, 500)
    with pytest.raises(ArithmeticError):
        # a run of several chunks with the prime 2999 left out of D
        _harmonic_run(_lcm_upto(3000) // 2999, 1, 3000)


# -- Mobius inversion -------------------------------------------------------

def test_inversion_examples():
    series = log_gf_coefficients(FiniteParts((1,)), 5)
    assert mobius_invert_sums(series, 5) == 1          # A(5) for the set {1}
    series = log_gf_coefficients(AllParts(), 5)
    assert mobius_invert_sums(series, 5) == 5
    series = log_gf_coefficients(FiniteParts((2,)), 4)
    assert mobius_invert_sums(series, 4) == 1
    assert mobius_invert_sums(series, 1) == series.sums[1]


def test_inversion_round_trip():
    for spec in ROUND_TRIP_FAMILY:
        series = log_gf_coefficients(spec, 300)
        for n in range(1, 301):
            recovered = mobius_invert_sums(series, n)
            assert recovered == counting_function(spec, n), (spec, n)
            assert recovered.denominator == 1


def test_inversion_range():
    series = log_gf_coefficients(AllParts(), 10)
    with pytest.raises(ValueError):
        mobius_invert_sums(series, 11)
    with pytest.raises(ValueError):
        mobius_invert_sums(series, 0)


def _with_sigma_bumped(series, l, by=1):
    """series with sigma(l) larger by `by`: a sigma that comes from no set."""
    sigma = list(series.sigma)
    sigma[l] += by
    return CoefficientSeries(series.spec, series.limit, tuple(sigma))


def test_inversion_returns_int_and_checks_divisibility():
    series = log_gf_coefficients(FiniteParts((1,)), 4)
    assert isinstance(series, CoefficientSeries)
    assert type(mobius_invert_sums(series, 4)) is int
    # sigma(2) = 2 gives b_2 = 1 for 1/2: A(2) = S(2) - S(1)/2 = 3/2 is
    # no count
    broken = _with_sigma_bumped(series, 2)
    assert mobius_invert_sums(broken, 1) == 1
    with pytest.raises(ArithmeticError):
        mobius_invert_sums(broken, 2)


def _inversion_by_definition(series, n):
    """A(n) as the plain sum of mu(k)/k * S(n // k) over every k."""
    mu = mobius_sieve(n)
    return sum((Fraction(mu[k], k) * series.sums[n // k]
                for k in range(1, n + 1)), Fraction(0))


@settings(max_examples=12, deadline=None)
@given(spec=PART_SETS, limit=st.integers(1, 400))
def test_split_inversion_matches_definition_and_counting(spec, limit):
    series = log_gf_coefficients(spec, limit)
    for n in range(1, limit + 1):
        recovered = mobius_invert_sums(series, n)
        assert recovered == _inversion_by_definition(series, n), (spec, n)
        assert recovered == counting_function(spec, n), (spec, n)


@pytest.mark.parametrize("spec", ROUND_TRIP_FAMILY, ids=str)
def test_split_inversion_at_the_square_root_boundaries(spec):
    # the sieve splits nothing at isqrt(n); these n, where a split at
    # r = isqrt(n) would move (r^2 - 1, r^2, r^2 + 2r), stay as plain
    # round-trip points
    series = log_gf_coefficients(spec, 44 * 44 + 2 * 44)
    for r in (1, 2, 3, 7, 31, 44):
        for n in (r * r - 1, r * r, r * r + 2 * r):
            if n >= 1:
                assert mobius_invert_sums(series, n) == counting_function(
                    spec, n), (spec, n)


def test_split_inversion_checks_the_total_past_the_square_root():
    # sigma(10) = 2 gives f(10) = (mu * sigma)(10) = 1, not a multiple of
    # 10: the sieve's first broken term is a = 10, so n < 10 still invert
    # and every n >= 10, 12 included, raises
    broken = _with_sigma_bumped(log_gf_coefficients(FiniteParts((1,)), 30),
                                10)
    for n in range(1, 10):
        assert mobius_invert_sums(broken, n) == 1
    with pytest.raises(ArithmeticError, match="n=12 is not an integer"):
        mobius_invert_sums(broken, 12)


def test_inversion_returns_the_rational_sum_of_whole_terms():
    # sigma(3) = 4 gives f(3) = 3 = 3 * 1: a whole term from no set, so
    # the inversion counts 3 as a part, exactly as the plain sum does,
    # until f(6) = sigma(6) - f(1) - f(3) = -3 breaks at n = 6
    broken = _with_sigma_bumped(log_gf_coefficients(FiniteParts((1,)), 12),
                                3, by=3)
    for n, count in ((1, 1), (2, 1), (3, 2), (4, 2), (5, 2)):
        assert mobius_invert_sums(broken, n) == count
        assert _inversion_by_definition(broken, n) == count
    assert _inversion_by_definition(broken, 6) == Fraction(3, 2)
    with pytest.raises(ArithmeticError, match="n=6 is not an integer"):
        mobius_invert_sums(broken, 6)


@settings(max_examples=12, deadline=None)
@given(spec=PART_SETS)
def test_inversion_needs_no_lcm_and_no_mu(spec):
    series = log_gf_coefficients(spec, 400)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(genfun, "_lcm_upto", None)     # any call would fail
        mp.setattr(genfun, "mobius_sieve", None)
        for n in range(1, 401):
            assert mobius_invert_sums(series, n) == counting_function(
                spec, n), (spec, n)


def test_invert_reaches_20000_without_lcm_or_mu(monkeypatch, capsys):
    monkeypatch.setattr(genfun, "_lcm_upto", None)  # any call would fail
    monkeypatch.setattr(genfun, "mobius_sieve", None)
    assert main(["invert", "--set", "all", "--limit", "20000"]) == 0
    assert '"note": "exact match at all n <= 20000"' in capsys.readouterr().out


# -- float evaluation -------------------------------------------------------

def test_log_gf_exact_finite_cases():
    assert log_gf(FiniteParts((1,)), 0.5, tail_tol=0) == pytest.approx(
        math.log(2), rel=1e-15)
    assert log_gf(FiniteParts((1, 2)), 0.5, tail_tol=0) == pytest.approx(
        math.log(2) + math.log(4 / 3), rel=1e-15)


def test_log_gf_domain_errors():
    with pytest.raises(ValueError):
        log_gf(AllParts(), 0.0)
    with pytest.raises(ValueError):
        log_gf(AllParts(), 1.0)
    with pytest.raises(ValueError):
        log_gf(AllParts(), 1.5)
    with pytest.raises(ValueError, match="tail_tol"):
        log_gf(AllParts(), 0.5, tail_tol=0)
    with pytest.raises(ValueError, match="tail_tol"):
        log_gf(FiniteParts((1,)), 0.5, tail_tol=-1)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tail_tol"):
            log_gf(AllParts(), 0.5, tail_tol=tol)


def test_log_gf_against_double_sum_oracle():
    """Lambert-style double series: log F(x) = sum_k x^k / (k (1 - x^k))."""
    mpmath.mp.dps = 40
    x = mpmath.mpf("0.9")
    oracle = mpmath.nsum(lambda k: x ** k / (k * (1 - x ** k)), [1, mpmath.inf])
    value = log_gf(AllParts(), 0.9, tail_tol=1e-9)
    assert float(oracle) - 1e-9 - 1e-12 <= value <= float(oracle) + 1e-12


def test_log_gf_accumulation_matches_mpmath_term_sum():
    x = 1 - 2.0 ** -8
    cutoff = _tail_cutoff(x, 1e-9)
    parts = enumerate_parts(ResidueParts(2, (1,)), cutoff)
    mpmath.mp.dps = 40
    mx = mpmath.mpf(x)
    oracle = mpmath.fsum(-mpmath.log(1 - mx ** a) for a in parts)
    value = log_gf(ResidueParts(2, (1,)), x, tail_tol=1e-9)
    assert value == pytest.approx(float(oracle), rel=1e-13)


def test_log_gf_monotone_in_x():
    values = [log_gf(ResidueParts(2, (1,)), x) for x in (0.3, 0.5, 0.7, 0.9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_log_gf_truncation_is_one_sided_and_bounded():
    x = 1 - 2.0 ** -10
    rough = log_gf(AllParts(), x, tail_tol=1e-4)
    fine = log_gf(AllParts(), x, tail_tol=1e-12)
    assert rough <= fine + 1e-9        # truncation only ever underestimates
    assert fine - rough <= 1e-4 + 1e-9


INFINITE_SETS = [AllParts(), ResidueParts(2, (1,)), ResidueParts(4, (1, 3)),
                 ResidueParts(5, (2, 5)), CofiniteTail(2), PrimeParts()]


def _scalar_log_gf(parts, x):
    """fsum of -log(1 - x^a), one Python call per listed part: each term
    takes its own branch at w = a*t <= log 2, with t = -log x."""
    t = -math.log1p(x - 1.0) if x - 1.0 > -1.0 else -math.log(x)

    def term(w):
        if w > math.log(2.0):
            return -math.log1p(-math.exp(-w))
        return -math.log(-math.expm1(-w))
    return math.fsum(term(a * t) for a in parts)


@pytest.mark.parametrize("spec", INFINITE_SETS, ids=str)
@pytest.mark.parametrize("x, tail_tol", [
    *(pytest.param(x, 1e-9, id=str(x))
      for x in (0.5, 1 - 2.0 ** -10, 1 - 2.0 ** -14)),
    # at 0.9 the tail cutoff passes a * t = 746, where log_gf stops and
    # every term the reference adds past it is -0.0
    *(pytest.param(x, 5e-324, id=f"{x}-5e-324") for x in (0.5, 0.9))])
def test_streamed_log_gf_equals_fsum_over_listed_parts(spec, x, tail_tol):
    # fsum is correctly rounded, so the order of the streamed parts
    # (class by class for residue sets) cannot change a single bit
    parts = enumerate_parts(spec, _tail_cutoff(x, tail_tol))
    assert log_gf(spec, x, tail_tol=tail_tol) == _scalar_log_gf(parts, x)


def _straddle(a, ulps):
    """x a few ulps from exp(-log 2 / a), where a * t crosses log 2."""
    x = math.exp(-math.log(2.0) / a)
    for _ in range(abs(ulps)):
        x = math.nextafter(x, 1.0 if ulps > 0 else 0.0)
    return x


XS = st.one_of(
    st.floats(0.001, 12.0).map(lambda e: 1.0 - 2.0 ** -e),
    st.tuples(st.integers(1, 4000), st.integers(-3, 3)).map(
        lambda pair: _straddle(*pair)),
    st.floats(5e-324, 2.0 ** -50),
)


@settings(max_examples=80, deadline=None)
@given(spec=PART_SETS, x=XS, tail_tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
@example(spec=AllParts(), x=2.0 ** -54, tail_tol=1e-9)
@example(spec=FiniteParts((1, 2)), x=1e-17, tail_tol=1e-9)
@example(spec=ResidueParts(3, (1, 2)), x=_straddle(2, 0), tail_tol=1e-9)
def test_log_gf_bits_match_the_scalar_reference(spec, x, tail_tol):
    if isinstance(spec, FiniteParts):
        parts = spec.parts
    else:
        cutoff = _tail_cutoff(x, tail_tol)
        parts = enumerate_parts(spec, cutoff) if cutoff else []
    got = log_gf(spec, x, tail_tol=tail_tol)
    assert got.hex() == _scalar_log_gf(parts, x).hex()


# at 0.9999882796226145, int(log 2 / t) is 59139 but 59140 * t <= log 2
@pytest.mark.parametrize("x", [0.5, 0.75, 0.9999882796226145,
                               1 - 2.0 ** -30, 1e-300])
def test_small_part_end_is_the_branch_boundary(x):
    t = _neg_log(x)
    k = _small_part_end(t)
    assert k * t <= math.log(2.0) < (k + 1) * t


def test_log_gf_does_not_list_the_parts():
    x = 1 - 2.0 ** -12                 # about 153000 parts below the cutoff
    tracemalloc.start()
    try:
        log_gf(AllParts(), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_log_gf_on_the_primes_holds_only_the_sieve_flags(monkeypatch):
    x = 1 - 2.0 ** -12                 # sieves to the cutoff, 153000
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    tracemalloc.start()
    try:
        log_gf(PrimeParts(), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one flag byte per integer; a list of its 14000 primes alone is more
    assert peak < 400_000


def test_log_gf_drops_a_part_too_large_for_a_float():
    # exp(-a * t) is 0.0 far below a = 10**400, whose a * t would overflow
    huge = FiniteParts((1, 10 ** 400))
    for x in (0.5, 1 - 2.0 ** -30, 5e-324):
        for tail_tol in (0, 1e-9):
            assert log_gf(huge, x, tail_tol=tail_tol).hex() == log_gf(
                FiniteParts((1,)), x, tail_tol=tail_tol).hex()


def test_log_gf_with_no_part_below_the_cutoff():
    # x / (1-x)^2 <= tail_tol already bounds the whole sum
    assert _tail_cutoff(1e-12, 1e-9) == 0
    assert log_gf(AllParts(), 1e-12) == 0.0


def test_tail_cutoff_bound_holds():
    for x in (0.5, 0.9, 1 - 2.0 ** -12):
        for tol in (1e-6, 1e-9):
            c = _tail_cutoff(x, tol)
            assert x ** (c + 1) / (1 - x) ** 2 <= tol
            if c > 0:
                assert x ** c / (1 - x) ** 2 > tol


# -- probes -----------------------------------------------------------------

def test_log_gf_grid_sieves_once_to_the_last_cutoff(monkeypatch):
    xs = tuple(1.0 - 2.0 ** -k for k in range(8, 13))
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    ensure = partsets._ensure_sieved
    limits = []

    def recorded(bound):
        ensure(bound)
        limits.append(len(partsets._prime_sieve[0]) - 1)
    monkeypatch.setattr(partsets, "_ensure_sieved", recorded)
    values = log_gf_grid(PrimeParts(), xs)
    x = xs[-1]
    cutoff = min(_tail_cutoff(x, 1e-9), math.ceil(746 / _neg_log(x)))
    # one sieve, to the largest x's cutoff; in grid order, every x would
    # grow it again
    assert set(limits) == {cutoff}
    assert values == tuple(log_gf(PrimeParts(), x) for x in xs)


def test_abelian_target_helper():
    assert abelian_density_target(1) == pytest.approx(math.pi ** 2 / 6)
    assert abelian_density_target(Fraction(1, 2)) == pytest.approx(
        math.pi ** 2 / 12)
    assert abelian_density_target(0) == 0.0
    for density in (-1, Fraction(-1, 100), Fraction(101, 100), 2):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            abelian_density_target(density)


def test_abelian_probe_odd_parts():
    report = abelian_probe(ResidueParts(2, (1,)), Fraction(1, 2),
                           [1 - 2.0 ** -14], rel_tol=0.02)
    assert report.passed
    assert report.meta["last_point_deviation"] < 0.02
    assert report.meta["target"] == pytest.approx(math.pi ** 2 / 12)


def test_abelian_probe_all_parts_tight():
    report = abelian_probe(AllParts(), 1, [1 - 2.0 ** -14], rel_tol=0.01)
    assert report.passed
    assert report.values[0] == pytest.approx(math.pi ** 2 / 6, rel=0.001)


def test_abelian_probe_zero_target_band():
    report = abelian_probe(FiniteParts((1,)), 0, [0.999], tail_tol=0)
    assert report.values[0] == pytest.approx(0.001 * math.log(1000), rel=1e-9)
    assert report.target_low == 0.0 and report.target_high == 0.02
    assert report.passed


def test_abelian_probe_grid_validation():
    with pytest.raises(ValueError):
        abelian_probe(AllParts(), 1, [])
    with pytest.raises(ValueError):
        abelian_probe(AllParts(), 1, [0.9, 0.5])
    with pytest.raises(ValueError):
        abelian_probe(AllParts(), 1, [0.5, 1.5])
    for grid in BAD_X_GRIDS:
        with pytest.raises(ValueError, match=X_GRID_RULE):
            abelian_probe(AllParts(), 1, grid)


def test_abelian_probe_rejects_inverted_band():
    with pytest.raises(ValueError, match="lo <= hi"):
        abelian_probe(AllParts(), 1, [0.5, 0.9], band=(2.0, 1.0))


def test_tauberian_probe_odd_parts():
    report = tauberian_probe(ResidueParts(2, (1,)),
                             abelian_density_target(Fraction(1, 2)),
                             [10 ** 4], rel_tol=0.01)
    assert report.passed
    assert report.values[0] == pytest.approx(math.pi ** 2 / 12, rel=0.001)


def test_tauberian_probe_all_parts():
    report = tauberian_probe(AllParts(), abelian_density_target(1),
                             [10 ** 4], rel_tol=0.01)
    assert report.passed


def test_tauberian_probe_zero_target():
    report = tauberian_probe(FiniteParts((1,)), 0, [10 ** 4])
    # S(n) is the harmonic number H_n here, so the mean decays like log n / n
    harmonic = math.fsum(1 / k for k in range(1, 10 ** 4 + 1))
    assert report.values[0] == pytest.approx(harmonic / 10 ** 4, rel=1e-10)
    assert report.passed


def test_tauberian_probe_validation():
    with pytest.raises(ValueError):
        tauberian_probe(AllParts(), -1, [100])
    with pytest.raises(ValueError):
        tauberian_probe(AllParts(), 1, [100, 50])
    with pytest.raises(ValueError, match="ints"):
        tauberian_probe(AllParts(), 1.0, [2.5, 3.9])
    for grid in BAD_GRIDS:
        with pytest.raises(ValueError, match=GRID_RULE):
            tauberian_probe(AllParts(), 1, grid)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            tauberian_probe(AllParts(), bad, [100])


def _runs_and_points(runs, points):
    return tuple(sorted(set().union(*runs, points)))


# dense runs of consecutive n, read off the walk, mixed with a few sparse
# large points, each taken by the enclosure
GRIDS = st.builds(
    _runs_and_points,
    st.lists(st.tuples(st.integers(1, 400), st.integers(1, 300)).map(
        lambda run: range(run[0], run[0] + run[1])), max_size=3),
    st.lists(st.integers(1, 20000), max_size=4),
).filter(bool)


@settings(max_examples=25, deadline=None)
@given(spec=PART_SETS, grid=GRIDS)
@example(spec=ResidueParts(2, (1,)), grid=tuple(range(1, 301)) + (5000,))
@example(spec=PrimeParts(), grid=(3000, 5000, 6000))
def test_tauberian_grid_matches_pointwise_divisor_sums(spec, grid):
    report = tauberian_probe(spec, 1.0, grid)
    assert report.values == tuple(
        float(sums_via_counting(spec, n) / n) for n in grid)


def _exact_mean(spec, n):
    return float(sums_via_counting(spec, n) / n)


@settings(max_examples=40, deadline=None)
@given(spec=PART_SETS, n=st.integers(1, 20000))
@example(spec=AllParts(), n=20000)
@example(spec=PrimeParts(), n=1)
@example(spec=CofiniteTail(80), n=79)
@example(spec=ResidueParts(12, (12,)), n=11)
def test_enclosed_mean_is_the_rounded_exact_mean(spec, n):
    assert _enclosed_mean(spec, n).hex() == _exact_mean(spec, n).hex()


def test_enclosure_with_few_guard_bits_falls_back_to_the_same_bits(
        monkeypatch):
    # cofinite:80 has A(v) = 0 on every block past isqrt(n) < 80, so only
    # the k <= isqrt(n) terms carry its floors
    specs = (AllParts(), PrimeParts(), ResidueParts(2, (1,)),
             CofiniteTail(3), CofiniteTail(80), FiniteParts((3, 5, 700)))
    ns = range(1024, 2048, 37)          # bits(n) = 11 for every n here
    expected = [_exact_mean(spec, n).hex() for spec in specs for n in ns]
    calls = []

    def counted(spec, n):
        calls.append(n)
        return sums_via_counting(spec, n)
    monkeypatch.setattr(genfun, "sums_via_counting", counted)
    # P = 64 + 22 + guard: 4 bits, then 58 bits (a width near one ulp of
    # the 53-bit float), then the default
    for guard, fallbacks in ((-82, "all"), (-28, "some"), (40, "none")):
        monkeypatch.setattr(genfun, "_GUARD_BITS", guard)
        calls.clear()
        assert [_enclosed_mean(spec, n).hex()
                for spec in specs for n in ns] == expected, guard
        if fallbacks == "all":
            assert len(calls) == len(expected)
        elif fallbacks == "some":
            assert 0 < len(calls) < len(expected)
        else:
            assert not calls


def test_enclosure_of_a_zero_sum_is_zero_without_fallback(monkeypatch):
    monkeypatch.setattr(genfun, "sums_via_counting", None)
    for spec in (PrimeParts(), FiniteParts((3, 5))):
        assert _enclosed_mean(spec, 1).hex() == (0.0).hex()
    assert _enclosed_mean(FiniteParts((3, 5)), 2).hex() == (0.0).hex()
    assert _enclosed_mean(FiniteParts((3, 5)), 3) == 1 / 3
    assert tauberian_probe(PrimeParts(), 1.0, (1, 500)).values == (
        0.0, _exact_mean(PrimeParts(), 500))


def _mean_by_harmonic_numbers(spec, n):
    """S(n)/n as sum over parts a <= n of H(n // a), grouped by n // a and
    summed at 200 bits with mpmath, then rounded once."""
    counts = Counter(map(n.__floordiv__, iter_parts(spec, n)))
    with mpmath.workprec(200):
        total = mpmath.fsum(count * mpmath.harmonic(v)
                            for v, count in counts.items())
        return float(total / n)


@pytest.mark.parametrize("spec", [ResidueParts(2, (1,)), PrimeParts(),
                                  AllParts()], ids=str)
def test_tauberian_probe_reaches_a_million(spec, monkeypatch):
    n = 10 ** 6
    monkeypatch.setattr(genfun, "sums_via_counting", None)  # no fallback
    report = tauberian_probe(spec, 1.0, [n])
    assert report.values[0].hex() == _mean_by_harmonic_numbers(spec, n).hex()


def test_hyperbola_sums_of_the_primes_read_lucy_and_the_flags_alike(
        monkeypatch):
    n = 2049
    _lcm_upto(n), _lcm_upto(math.isqrt(n))   # cached: no sieve for D or L
    partsets._ensure_sieved(n)
    inside = sums_via_counting(PrimeParts(), n), _enclosed_mean(
        PrimeParts(), n).hex()
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    outside = sums_via_counting(PrimeParts(), n), _enclosed_mean(
        PrimeParts(), n).hex()
    assert partsets._prime_sieve == (bytearray(), [0])    # Lucy's route
    assert outside == inside
    assert inside[0] == _divisor_sum_by_terms(PrimeParts(), n)
    assert inside[1] == _mean_by_harmonic_numbers(PrimeParts(), n).hex()


def test_lucy_runs_at_most_once_per_hyperbola_sum(monkeypatch):
    lucy, calls = partsets._lucy, []
    monkeypatch.setattr(partsets, "_lucy",
                        lambda n: calls.append(n) or lucy(n))
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    _enclosed_mean(PrimeParts(), 100_003)
    assert calls == [100_003]
    calls.clear()
    _lcm_upto(3001), _lcm_upto(54)
    monkeypatch.setattr(partsets, "_prime_sieve", (bytearray(), [0]))
    sums_via_counting(PrimeParts(), 3001)
    assert calls == [3001]


def test_grid_cut_is_estimate_only(monkeypatch):
    for name in ("_lcm_upto", "log_gf_coefficients", "sums_via_counting",
                 "_enclosed_mean"):
        monkeypatch.setattr(genfun, name, None)     # any call would fail

    def cut(grid):
        costs = genfun._cut_costs(grid)
        return min(costs, key=costs.get)

    assert cut(parse_grid("geo:1:2000:1.0001")) == 2000
    assert cut((10000, 50000, 100000)) == 0
    assert cut(tuple(range(1, 2001)) + (100000,)) == 2000
    assert cut((1,)) == 1
    # a lone point: 1.5 ns * n**2 for the walk against 180 ns * n
    assert genfun._cut_costs((120,)) == {0: 21_600_000, 120: 21_600_000}
