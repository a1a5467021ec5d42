"""Release gate: every shipped claim, checked at full scale.

Each test records one line — "[criterion NN] PASS ..." or FAIL — and then
asserts; the conftest hook replays the lines after the run, so a plain
pytest run doubles as a checklist.  Tests build their own tables; nothing
here depends on test order or shared fixtures.
"""

import math
import time
from fractions import Fraction

from partgrowth.asymptotics import (density_growth_probe,
                                    finite_set_leading_ratio, growth_ratio,
                                    growth_ratio_series)
from partgrowth.counting import (check_cofinite_monotonicity,
                                 check_shift_monotonicity,
                                 count_partitions_bruteforce, partition_table,
                                 pentagonal_table, scaled_count,
                                 table_from_parts, window_max_location)
from partgrowth.genfun import (log_gf, log_gf_coefficients,
                               mobius_invert_sums, sums_via_counting)
from partgrowth.partsets import (AllParts, CofiniteTail, FiniteParts,
                                 PrimeParts, ResidueParts, counting_function,
                                 enumerate_parts, gcd_of_set,
                                 normalize_by_gcd)

EIGHT_SPECS = (
    AllParts(),
    FiniteParts((1, 2)),
    FiniteParts((2, 3)),
    FiniteParts((1, 2, 3)),
    ResidueParts(2, (1,)),
    ResidueParts(4, (1, 3)),
    CofiniteTail(3),
    PrimeParts(),
)

ROUND_TRIP_SPECS = (
    AllParts(),
    ResidueParts(2, (1,)),
    ResidueParts(4, (1, 3)),
    FiniteParts((1, 2, 3)),
    PrimeParts(),
)


REPORT_LINES = []


def _report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_dp_matches_bruteforce():
    start = time.perf_counter()
    checked = 0
    bad = None
    for spec in EIGHT_SPECS:
        table = partition_table(spec, 30)
        parts = tuple(enumerate_parts(spec, 30))
        for n in range(31):
            checked += 1
            if table[n] != count_partitions_bruteforce(parts, n):
                bad = (spec, n)
                break
        if bad:
            break
    elapsed = time.perf_counter() - start
    ok = bad is None and elapsed < 10.0
    _report(1, ok, f"dp == brute force, {checked} values across 8 sets, "
                   f"{elapsed:.2f}s" + (f"; first mismatch {bad}" if bad else ""))


def test_criterion_02_pentagonal_cross_check():
    start = time.perf_counter()
    dp = table_from_parts(range(1, 5001), 5000)
    pent = pentagonal_table(5000)
    agree = dp.values == pent.values
    anchor = pent[100] == 190569292
    elapsed = time.perf_counter() - start
    ok = agree and anchor and elapsed < 60.0
    _report(2, ok, f"two independent methods agree to n=5000, "
                   f"p(100)={pent[100]}, {elapsed:.2f}s")


def test_criterion_03_lemma_suite():
    start = time.perf_counter()
    problems = []
    for spec in EIGHT_SPECS:
        table = partition_table(spec, 2000)
        least = enumerate_parts(spec, 64)[0]

        shifts = [s for s in range(1, 21) if table[s] >= 1]
        assert shifts, f"no usable shift for {spec}"
        for shift in shifts:
            rep = check_shift_monotonicity(table, shift)
            if not rep.ok:
                problems.append((spec, "shift", rep.first_violation))

        # Independent running max over a growing prefix; ties go to the
        # larger index, matching the documented tie-break.
        best_u = 0
        for x in range(2001):
            if table[x] >= table[best_u]:
                best_u = x
            u = window_max_location(table, least, x)
            if u != best_u or not (x - least < u <= x):
                problems.append((spec, "window", x))
                break

    for tail_start in (1, 2, 3, 5):
        rep = check_cofinite_monotonicity(
            partition_table(CofiniteTail(tail_start), 200))
        if not rep.ok:
            problems.append((CofiniteTail(tail_start), "cofinite",
                             rep.first_violation))

    elapsed = time.perf_counter() - start
    ok = not problems
    _report(3, ok, f"shift/window/cofinite lemmas, 8 sets to n=2000, "
                   f"{elapsed:.2f}s" + (f"; {problems[:3]}" if problems else ""))


def test_criterion_04_finite_set_polynomial_law():
    start = time.perf_counter()
    details = []
    ok = True
    for spec in (FiniteParts((1, 2)), FiniteParts((1, 2, 3))):
        table = partition_table(spec, 2000)
        rho_500 = finite_set_leading_ratio(table, 500).value
        rho_2000 = finite_set_leading_ratio(table, 2000).value
        in_band = 0.95 <= rho_2000 <= 1.05
        shrinking = abs(rho_2000 - 1) < abs(rho_500 - 1)
        ok = ok and in_band and shrinking
        details.append(f"{spec}: rho(2000)={rho_2000:.6f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(4, ok, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_05_unrestricted_growth_law():
    start = time.perf_counter()
    table = pentagonal_table(50_000)
    series = growth_ratio_series(table, (1_000, 10_000, 50_000))
    r1, r2, r3 = series.ratios
    increasing = r1 < r2 < r3
    banded = 0.90 < r2 < 1.00 and 0.95 < r3 < 1.00
    elapsed = time.perf_counter() - start
    ok = increasing and banded and elapsed < 180.0
    _report(5, ok, f"r(1e3)={r1:.4f} < r(1e4)={r2:.4f} < r(5e4)={r3:.4f}, "
                   f"{elapsed:.2f}s")


def test_criterion_06_odd_parts_density_half():
    start = time.perf_counter()
    spec = ResidueParts(2, (1,))
    table = partition_table(spec, 20_000)
    series = growth_ratio_series(table, (2_000, 10_000, 20_000))
    r1, r2, r3 = series.ratios
    target = math.sqrt(0.5)
    within = abs(r3 - target) <= 0.10 * target
    increasing = r1 < r2 < r3
    elapsed = time.perf_counter() - start
    ok = within and increasing and elapsed < 300.0
    _report(6, ok, f"r(2e4)={r3:.4f} vs sqrt(1/2)={target:.4f} "
                   f"({abs(r3 - target) / target:.1%} off), rising, "
                   f"{elapsed:.2f}s")


def test_criterion_07_prime_parts_density_zero():
    start = time.perf_counter()
    table = partition_table(PrimeParts(), 20_000)
    series = growth_ratio_series(table, (2_000, 10_000, 20_000))
    r1, r2, r3 = series.ratios
    positive = r1 > 0 and r2 > 0 and r3 > 0
    decreasing = r1 > r2 > r3
    elapsed = time.perf_counter() - start
    ok = positive and decreasing and elapsed < 300.0
    _report(7, ok, f"r positive and falling: {r1:.4f} > {r2:.4f} > {r3:.4f}, "
                   f"{elapsed:.2f}s")


def test_criterion_08_mobius_round_trip():
    start = time.perf_counter()
    bad = None
    for spec in ROUND_TRIP_SPECS:
        series = log_gf_coefficients(spec, 2000)
        for n in range(1, 2001):
            if mobius_invert_sums(series, n) != counting_function(spec, n):
                bad = (spec, "invert", n)
                break
            if series.sums[n] != sums_via_counting(spec, n):
                bad = (spec, "prefix identity", n)
                break
        if bad:
            break
    elapsed = time.perf_counter() - start
    ok = bad is None and elapsed < 60.0
    _report(8, ok, f"inversion and prefix identity exact to n=2000, "
                   f"5 sets, {elapsed:.2f}s" + (f"; {bad}" if bad else ""))


def test_criterion_09_boundary_and_average_probes():
    start = time.perf_counter()
    spec = ResidueParts(2, (1,))
    target = math.pi ** 2 / 12

    x = 1 - 2.0 ** -14
    boundary = (1 - x) * log_gf(spec, x)
    boundary_ok = abs(boundary - target) <= 0.02 * target

    average = sums_via_counting(spec, 100_000) / 100_000
    average_ok = abs(float(average) - target) <= 0.01 * target

    elapsed = time.perf_counter() - start
    ok = boundary_ok and average_ok and elapsed < 60.0
    _report(9, ok, f"(1-x)log f = {boundary:.6f}, mean coeff = "
                   f"{float(average):.6f}, target {target:.6f}, "
                   f"{elapsed:.2f}s")


def test_criterion_10_gcd_normalization():
    start = time.perf_counter()
    spec = FiniteParts((4, 6))
    g = gcd_of_set(spec, 100)
    reduced = normalize_by_gcd(spec, g.value)
    table = partition_table(reduced, 12)
    bad = None
    for n in range(25):
        direct = count_partitions_bruteforce((4, 6), n)
        if scaled_count(table, g.value, n) != direct:
            bad = n
            break
    elapsed = time.perf_counter() - start
    ok = g.value == 2 and bad is None
    _report(10, ok, f"scaled table == direct count for n <= 24 "
                    f"(gcd {g.value}), {elapsed:.2f}s")
