"""Log-series coefficients, Mobius inversion, and the analytic probes."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partgrowth.genfun import (CoefficientSeries, abelian_density_target,
                               abelian_probe, log_gf, log_gf_coefficients,
                               mobius_invert_sums, mobius_sieve,
                               sums_via_counting, tauberian_probe,
                               _harmonic_run, _lcm_upto,
                               _neg_log_one_minus_exp, _tail_cutoff)
from partgrowth.partsets import (AllParts, CofiniteTail, FiniteParts,
                                 PrimeParts, ResidueParts, counting_function,
                                 enumerate_parts)

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


def _with_sigma_bumped(series, l):
    """series with sigma(l) one larger: a sigma that comes from no set."""
    sigma = list(series.sigma)
    sigma[l] += 1
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
    # r = isqrt(n) moves at r^2; r^2 - 1 and r^2 + 2r are the last n of
    # the previous and of the current r
    series = log_gf_coefficients(spec, 44 * 44 + 2 * 44)
    for r in (1, 2, 3, 7, 31, 44):
        for n in (r * r - 1, r * r, r * r + 2 * r):
            if n >= 1:
                assert mobius_invert_sums(series, n) == counting_function(
                    spec, n), (spec, n)


def test_split_inversion_checks_the_total_past_the_square_root():
    # sigma(10) = 2 gives b_10 = 1/5 for 1/10: S(v) changes only for
    # v >= 10 > r = 3, so n = 12 reaches it through D*S(12) with k = 1 alone
    broken = _with_sigma_bumped(log_gf_coefficients(FiniteParts((1,)), 30),
                                10)
    for n in range(1, 10):
        assert mobius_invert_sums(broken, n) == 1
    with pytest.raises(ArithmeticError, match="n=12 is not an integer"):
        mobius_invert_sums(broken, 12)


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


@pytest.mark.parametrize("spec", INFINITE_SETS, ids=str)
@pytest.mark.parametrize("x", [0.5, 1 - 2.0 ** -10, 1 - 2.0 ** -14])
def test_streamed_log_gf_equals_fsum_over_listed_parts(spec, x):
    # fsum is correctly rounded, so the order of the streamed parts
    # (class by class for residue sets) cannot change a single bit
    t = -math.log1p(x - 1.0)
    parts = enumerate_parts(spec, _tail_cutoff(x, 1e-9))
    listed = math.fsum(_neg_log_one_minus_exp(a * t) for a in parts)
    assert log_gf(spec, x, tail_tol=1e-9) == listed


def test_log_gf_does_not_list_the_parts():
    x = 1 - 2.0 ** -12                 # about 153000 parts below the cutoff
    tracemalloc.start()
    try:
        log_gf(AllParts(), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
