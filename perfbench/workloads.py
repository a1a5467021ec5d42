"""The benchmark's workloads: the CLI invocations each runs, and their checks.

Every operation is one partgrowth subcommand.  Its check parses the
output strictly (JSON without NaN or Infinity, CSV with its header),
compares the exit status with the verdict the expected values imply, and
compares every value with the independent routes in oracles.py.  The
inputs are fixed; the seed picks only the sample points of the exact
checks that cannot cover a whole table.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath

import oracles as orc

EPS = 2.0 ** -52
RATIO_REL = 1e-10      # growth ratios: float recurrence, error near n * eps
SERIES_REL = 1e-12     # S(n)/n against the mpmath harmonic-number sum
LOG_F_ULPS = 16        # rounding allowance of log F, in units of eps
LOG_COUNT_ABS = 1e-9   # log of a table entry against the float recurrence
EXACT_SAMPLES = 12


class Mismatch(Exception):
    """An output disagrees with the expected value."""


def expect(condition, what):
    if not condition:
        raise Mismatch(what)


def close(got, want, rel, what):
    ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
          and abs(got - want) <= rel * abs(want))
    expect(ok, f"{what}: got {got!r}, expected {want!r} (rel tol {rel:g})")


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def parse_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows and rows[0] == header, f"CSV header {rows[:1]} != {header}")
    return rows[1:]


def frac_text(q):
    return f"{q.numerator}/{q.denominator}"


def trend(values):
    """+1 strictly increasing, -1 strictly decreasing, 0 otherwise."""
    if len(values) < 2:
        return 0
    if all(b > a for a, b in zip(values, values[1:])):
        return 1
    if all(b < a for a, b in zip(values, values[1:])):
        return -1
    return 0


class Context:
    """Seeded sample points, drawn apart for each check."""

    def __init__(self, seed):
        self.seed = seed

    def sample(self, key, lo, hi, k=EXACT_SAMPLES):
        rng = random.Random(f"{self.seed}/{key}")
        return sorted(rng.sample(range(lo, hi + 1), k))


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable
    fault: Optional[str] = None  # a known fault that makes this op fail

    def verify(self, text, status, ctx):
        """None when the output is right, else what is wrong."""
        try:
            self.check(text, status, ctx)
        except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"[:500]
        return None


def op(command, check, fault=None):
    return Op(tuple(command.split()), check, fault)


# ---------------------------------------------------------------------------
# Probe reports
# ---------------------------------------------------------------------------

def check_probe(obj, status, *, name, xs, want, band, passed, meta, rel):
    """Common fields of a ProbeReport against expected values."""
    expect(obj["probe"] == name, f"probe {obj['probe']!r}")
    expect(obj["xs"] == list(xs), "xs")
    expect(len(obj["values"]) == len(want), "number of values")
    for x, got, w in zip(xs, obj["values"], want):
        if w is None:
            expect(got is None, f"value at {x}: got {got!r}, expected null")
        else:
            close(got, w, rel, f"value at {x}")
    for got, w in zip(obj["band"], band):
        if w is None:
            expect(got is None, f"band {obj['band']}")
        else:
            close(got, w, 1e-15, "band edge")
    tail = [v for v in want[-max(1, len(want) // 3):] if v is not None]
    for key, reduce in (("tail_min", min), ("tail_max", max)):
        if tail:
            close(obj[key], reduce(tail), rel, key)
        else:
            expect(obj[key] is None, f"{key}: got {obj[key]!r} for an empty tail")
    expect(obj["direction"] == trend([v for v in want if v is not None]),
           f"direction {obj['direction']}")
    expect(obj["passed"] is passed, f"passed {obj['passed']}, expected {passed}")
    expect(status == (0 if passed else 1), f"exit status {status}")
    for key, w in meta.items():
        if isinstance(w, float):
            close(obj[key], w, 1e-12, key)
        else:
            expect(obj[key] == w, f"{key}: got {obj[key]!r}, expected {w!r}")


def in_band(values, lo, hi):
    tail = values[-max(1, len(values) // 3):]
    return all(v is not None and lo <= v <= hi for v in tail)


def growth_ratios(spec, grid):
    logs = orc.log_counts(spec, grid[-1])
    return [None if math.isinf(logs[n]) else orc.growth_ratio(float(logs[n]), n)
            for n in grid]


def density_probe_check(spec, grid, lower, upper, rel_tol=0.10, name="density-growth",
                        extra=None):
    """direct-probe / arithpro-probe with the default band."""
    def check(text, status, ctx):
        obj = parse_json(text)
        want = growth_ratios(spec, grid)
        if upper > 0:
            band = ((1 - rel_tol) * math.sqrt(lower),
                    min(1.0, (1 + rel_tol) * math.sqrt(upper)))
            passed = in_band(want, *band)
            origin = "density-default"
        else:
            band = (None, None)
            tail = want[-max(1, len(want) // 3):]
            passed = (all(v is not None and v > 0 for v in tail)
                      and trend([v for v in want if v is not None]) == -1)
            origin = "decay-qualitative"
        meta = {"set": spec, "lower_density": float(lower),
                "upper_density": float(upper), "band_origin": origin,
                **(extra or {})}
        check_probe(obj, status, name=name, xs=grid, want=want, band=band,
                    passed=passed, meta=meta, rel=RATIO_REL)
    return check


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def check_ratio_all(text, status, ctx):
    grid = orc.geo_grid(1000, 50000, 2.5)
    rows = parse_csv(text, ["n", "ratio"])
    expect([int(r[0]) for r in rows] == grid, "ratio grid")
    for n, (_, got) in zip(grid, rows):
        close(float(got), orc.growth_ratio(math.log(orc.p_all(n)), n), 1e-12,
              f"ratio at {n}")
    expect(status == 0, f"exit status {status}")


def check_pentagonal(text, status, ctx):
    limit = 20000
    obj = parse_json(text)
    expect(obj["set"] == "all" and obj["limit"] == limit, "set / limit")
    counts = [int(c) for c in obj["counts"]]
    expect(len(counts) == limit + 1, "number of counts")
    logs = orc.log_counts("all", limit)
    for n, c in enumerate(counts):
        expect(c > 0 and abs(math.log(c) - logs[n]) <= LOG_COUNT_ABS,
               f"p({n}) = {c} disagrees with the sigma recurrence")
    for n in ctx.sample("pentagonal", 0, limit):
        expect(counts[n] == orc.p_all(n), f"p({n}) != Hardy-Ramanujan-Rademacher")
    expect(status == 0, f"exit status {status}")


def check_cofinite_table(text, status, ctx):
    limit = 5000
    obj = parse_json(text)
    expect(obj["set"] == "cofinite:3" and obj["limit"] == limit, "set / limit")
    counts = [int(c) for c in obj["counts"]]
    expect(counts == list(orc.exact_counts("cofinite:3", limit)),
           "counts differ from the exact sigma recurrence")
    p = orc.p_all
    for n in ctx.sample("cofinite", 0, limit):
        expect(counts[n] == p(n) - p(n - 1) - p(n - 2) + p(n - 3),
               f"count at {n} != p(n)-p(n-1)-p(n-2)+p(n-3)")
    expect(status == 0, f"exit status {status}")


def lemma_checks(spec, limit, max_shift=20):
    """The checks check-lemmas must report, from the exact oracle table."""
    p = orc.exact_counts(spec, limit)
    checks = []
    for s in range(1, min(max_shift, limit) + 1):
        if p[s] >= 1:
            ok = all(p[n + s] >= p[n] for n in range(limit - s + 1))
            checks.append({"name": f"shift-monotonic(shift={s})", "ok": ok,
                           "checked": limit - s + 1, "first_violation": None,
                           "note": f"shift={s}"})
    least = int(orc.members(spec, limit)[0])
    best, ok = 0, True
    for x in range(limit + 1):
        if p[x] >= p[best]:
            best = x
        ok = ok and x - least < best <= x
    checks.append({"name": "window-max", "ok": ok, "checked": limit + 1,
                   "first_violation": None, "note": f"least_part={least}"})
    tag, _, start = spec.partition(":")
    if tag == "cofinite" and limit >= 3 * int(start) + 3:
        s = int(start)
        ok = all(p[n + 1] >= p[n] and (n < 3 * s + 2 or p[n + 1] > p[n])
                 for n in range(1, limit))
        checks.append({"name": f"cofinite-strict(start={s})", "ok": ok,
                       "checked": limit - 1, "first_violation": None,
                       "note": f"start={s}, strict from n>={3 * s + 2}"})
    return checks


def check_lemmas(spec, limit):
    def check(text, status, ctx):
        obj = parse_json(text)
        want = lemma_checks(spec, limit)
        expect(all(c["ok"] for c in want), f"the oracle table breaks a lemma for {spec}")
        expect(obj["set"] == spec and obj["limit"] == limit, "set / limit")
        for got, w in zip(obj["checks"], want):
            expect(got == w, f"check {got} != {w}")
        expect(len(obj["checks"]) == len(want), "number of checks")
        expect(obj["all_ok"] is True and status == 0, f"all_ok / exit {status}")
    return check


def check_finite_asym(text, status, ctx):
    grid = orc.geo_grid(100, 2000, 2)
    rows = parse_csv(text, ["n", "ratio", "ratio_float"])
    expect([int(r[0]) for r in rows] == grid, "grid")
    for n, (_, ratio, ratio_float) in zip(grid, rows):
        exact = Fraction(orc.p_123(n) * 2 * 6, n * n)
        expect(ratio == frac_text(exact), f"ratio at {n}: {ratio}")
        expect(float(ratio_float) == float(exact), f"ratio_float at {n}")
    expect(status == 0, f"exit status {status}")


TABLES = [
    op("arithpro-probe --set mod:2:1 --grid 2000,10000,20000",
       density_probe_check("mod:2:1", [2000, 10000, 20000], 0.5, 0.5,
                           name="arithmetic-progression",
                           extra={"probe_target": math.sqrt(0.5), "modulus": 2,
                                  "residues": [1]})),
    op("direct-probe --set primes --grid 2000,10000,20000 --alpha 0 --beta 0",
       density_probe_check("primes", [2000, 10000, 20000], 0, 0)),
    op("ratio --set all --grid geo:1000:50000:2.5", check_ratio_all),
    op("pentagonal --limit 20000 --format json", check_pentagonal),
    op("table --set cofinite:3 --limit 5000 --format json", check_cofinite_table),
    op("check-lemmas --set mod:4:1,3 --limit 2000", check_lemmas("mod:4:1,3", 2000)),
    op("check-lemmas --set cofinite:3 --limit 2000", check_lemmas("cofinite:3", 2000)),
    op("finite-asym --set finite:1,2,3 --grid geo:100:2000:2", check_finite_asym),
    op("direct-probe --set finite:3,5 --grid 1,7 --alpha 0 --beta 0",
       density_probe_check("finite:3,5", [1, 7], 0, 0),
       fault='emits "tail_min": NaN, which is not valid JSON'),
    op("direct-probe --set finite:2,3 --grid 1,2 --alpha 0 --beta 0",
       density_probe_check("finite:2,3", [1, 2], 0, 0),
       fault='exits 2 with "common divisor 2" although gcd(2, 3) = 1'),
]


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def check_invert(spec, limit):
    def check(text, status, ctx):
        obj = parse_json(text)
        # Mobius inversion of the prefix sums is an identity: it must match
        expect(obj == {"set": spec, "limit": limit, "ok": True,
                       "note": f"exact match at all n <= {limit}"}, f"report {obj}")
        expect(status == 0, f"exit status {status}")
    return check


def check_tauberian(spec, grid, density, rel_tol=0.01):
    def check(text, status, ctx):
        obj = parse_json(text)
        target = math.pi ** 2 / 6 * density
        want = [float(orc.prefix_sum(spec, n) / n) for n in grid]
        band = (target * (1 - rel_tol), target * (1 + rel_tol))
        check_probe(obj, status, name="tauberian", xs=grid, want=want, band=band,
                    passed=in_band(want, *band),
                    meta={"set": spec, "target": target}, rel=SERIES_REL)
    return check


def check_sb_all(text, status, ctx):
    limit = 2000
    obj = parse_json(text)
    expect(obj["set"] == "all" and obj["limit"] == limit, "set / limit")
    coeffs = orc.series_coeffs("all", limit)
    expect(obj["coeffs"] == [frac_text(b) for b in coeffs], "coefficients")
    sums, acc = [], Fraction(0)
    for b in coeffs:
        acc += b
        sums.append(frac_text(acc))
    expect(obj["prefix_sums"] == sums, "prefix sums")
    expect(status == 0, f"exit status {status}")


SERIES = [
    op("invert --set mod:2:1 --limit 2000", check_invert("mod:2:1", 2000)),
    op("invert --set primes --limit 2000", check_invert("primes", 2000)),
    op("tauberian-probe --set mod:2:1 --grid 10000,50000,100000 --density 1/2",
       check_tauberian("mod:2:1", [10000, 50000, 100000], 0.5)),
    op("tauberian-probe --set mod:2:1 --grid geo:1:2000:1.0001 --density 1/2",
       check_tauberian("mod:2:1", orc.geo_grid(1, 2000, 1.0001), 0.5)),
    op("sb --set all --limit 2000 --format json", check_sb_all),
]


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------

TAIL_TOL = 1e-9


def check_log_f(spec, x, got, what):
    """got is log F(x) from the package: truncation only lowers it."""
    want = orc.log_f(spec, x)
    slack = LOG_F_ULPS * EPS * abs(want)
    excess = mpmath.mpf(got) - want
    expect(-TAIL_TOL - slack <= excess <= slack,
           f"{what}: log F {got!r} vs {mpmath.nstr(want, 20)}")
    return float(want)


def check_abelian(spec, density, rel_tol=0.02):
    xs = orc.pow2_grid(8, 16)

    def check(text, status, ctx):
        obj = parse_json(text)
        target = math.pi ** 2 / 6 * density
        want = []
        for x, v in zip(xs, obj["values"]):
            scale = 1.0 - x
            want.append(scale * check_log_f(spec, x, v / scale, f"value at {x}"))
        band = (target * (1 - rel_tol), target * (1 + rel_tol))
        meta = {"set": spec, "density": float(density), "target": target,
                "tail_tol": TAIL_TOL, "band_origin": "target-default"}
        check_probe(obj, status, name="abelian", xs=xs, want=want, band=band,
                    passed=in_band(want, *band), meta=meta, rel=1e-13)
        close(obj["last_point_deviation"], abs(want[-1] - target) / target, 1e-8,
              "last_point_deviation")
    return check


def check_log_f_primes(text, status, ctx):
    xs = orc.pow2_grid(8, 16)
    obj = parse_json(text)
    expect(obj["set"] == "primes" and obj["xs"] == xs, "set / xs")
    expect(obj["tail_tol"] == TAIL_TOL, "tail_tol")
    expect(len(obj["log_f"]) == len(obj["scaled"]) == len(xs), "lengths")
    for x, v, scaled in zip(xs, obj["log_f"], obj["scaled"]):
        check_log_f("primes", x, v, f"log_f at {x}")
        expect(scaled == (1.0 - x) * v, f"scaled at {x}")
    expect(status == 0, f"exit status {status}")


def check_density_primes(text, status, ctx):
    grid = orc.geo_grid(1000, 10_000_000, 2)
    rows = parse_csv(text, ["x", "ratio", "ratio_float", "tail_min", "tail_max"])
    expect([int(r[0]) for r in rows] == grid, "grid")
    ratios = [Fraction(c, x) for c, x in zip(orc.prime_counts_at(grid), grid)]
    for i, (x, row) in enumerate(zip(grid, rows)):
        want = [frac_text(ratios[i]), float(ratios[i]),
                frac_text(min(ratios[i:])), frac_text(max(ratios[i:]))]
        got = [row[1], float(row[2]), row[3], row[4]]
        expect(got == want, f"row at {x}: {got} != {want}")
    expect(status == 0, f"exit status {status}")


BOUNDARY = [
    op("genfun --set all --xs pow2:8:16 --density 1", check_abelian("all", 1)),
    op("genfun --set mod:2:1 --xs pow2:8:16 --density 1/2", check_abelian("mod:2:1", 0.5)),
    op("genfun --set cofinite:2 --xs pow2:8:16 --density 1", check_abelian("cofinite:2", 1)),
    op("genfun --set primes --xs pow2:8:16", check_log_f_primes),
    op("density --set primes --grid geo:1000:10000000:2", check_density_primes),
]

WORKLOADS = {"tables": TABLES, "series": SERIES, "boundary": BOUNDARY}
