"""Reference values for the benchmark, computed apart from partgrowth.

Nothing in this module imports partgrowth.  Every expected value comes
from a route other than the one the package takes:

* partition counts from the sigma recurrence
  n * p_A(n) = sum_k sigma_A(k) * p_A(n - k),  sigma_A(k) = sum_{a | k, a in A} a,
  in float (numpy, rescaled so nothing overflows) or in exact integers,
  and p(n) for all parts from the Hardy-Ramanujan-Rademacher series
  (sympy);
* log-series coefficients b_l = sigma_A(l) / l, grouped by l where the
  package groups by part;
* prefix sums S(n) = sum_{a in A, a <= n} H(n // a) with harmonic numbers
  H(m) = psi(m + 1) + gamma from mpmath;
* log F(x) near 1 from the Dedekind-eta transformation (mpmath), and for
  the primes from a direct sum over this module's own sieve;
* prime counts from this module's own sieve.

self_test() checks each of these against exhaustive enumeration of
partitions at small n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

import mpmath
import numpy as np
from sympy.functions.combinatorial.numbers import partition as _hrr_partition

C0 = math.pi * math.sqrt(2.0 / 3.0)
mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# Part sets, from the same spec strings the CLI takes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def prime_flags(n):
    """Boolean array f with f[k] true iff k is prime, 0 <= k <= n."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return flags


def member_mask(spec, n):
    """Boolean array m with m[k] true iff k is in the set, 0 <= k <= n."""
    tag, _, payload = spec.partition(":")
    mask = np.zeros(n + 1, dtype=bool)
    if tag == "all":
        mask[1:] = True
    elif tag == "primes":
        mask[:] = prime_flags(n)
    elif tag == "cofinite":
        mask[int(payload):] = True
    elif tag == "finite":
        parts = [int(a) for a in payload.split(",")]
        mask[[a for a in parts if a <= n]] = True
    elif tag == "mod":
        modulus, residues = payload.split(":")
        m = int(modulus)
        for r in residues.split(","):
            mask[int(r)::m] = True
    else:
        raise ValueError(f"unknown set spec {spec!r}")
    return mask


def members(spec, n):
    return np.flatnonzero(member_mask(spec, n))


@lru_cache(maxsize=16)
def sigma(spec, n):
    """sigma_A(k) for 0 <= k <= n as int64 (sigma_A(0) = 0)."""
    sig = np.zeros(n + 1, dtype=np.int64)
    for a in members(spec, n).tolist():
        sig[a::a] += a
    return sig


# ---------------------------------------------------------------------------
# Partition counts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def log_counts(spec, n_max):
    """log p_A(n) for 0 <= n <= n_max in float, -inf where p_A(n) = 0.

    Runs the sigma recurrence on q(n) = p_A(n) * exp(-s n) with
    s = C0 / sqrt(n_max), which keeps every q(n) within float range for
    n_max up to about 70000.  All terms are nonnegative, so the relative
    error of q(n) stays near n * machine epsilon.
    """
    if C0 * math.sqrt(n_max) > 650:
        raise ValueError(f"n_max {n_max} too large for the rescaled recurrence")
    s = C0 / math.sqrt(n_max)
    ramp = s * np.arange(n_max + 1)
    w = sigma(spec, n_max).astype(float) * np.exp(-ramp)
    q = np.zeros(n_max + 1)
    q[0] = 1.0
    for n in range(1, n_max + 1):
        q[n] = np.dot(w[1:n + 1], q[n - 1::-1]) / n
    with np.errstate(divide="ignore"):
        return np.log(q) + ramp


@lru_cache(maxsize=8)
def exact_counts(spec, n_max):
    """p_A(0..n_max) as exact integers from the sigma recurrence."""
    sig = [int(v) for v in sigma(spec, n_max)]
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = sum(map(mul, sig[1:n + 1], p[n - 1::-1]))
        q, r = divmod(total, n)
        if r:
            raise ArithmeticError(f"sigma recurrence not integral at n={n}")
        p[n] = q
    return tuple(p)


def p_all(n):
    """Unrestricted p(n), exact, from the Hardy-Ramanujan-Rademacher series."""
    return int(_hrr_partition(n)) if n >= 0 else 0


def p_123(n):
    """Partitions of n into parts 1, 2, 3: the nearest integer to (n+3)^2/12."""
    return ((n + 3) ** 2 + 6) // 12


def growth_ratio(log_count, n):
    return log_count / (C0 * math.sqrt(n))


# ---------------------------------------------------------------------------
# Series side
# ---------------------------------------------------------------------------

def series_coeffs(spec, limit):
    """b_1..b_limit as exact Fractions: b_l = sigma_A(l) / l."""
    sig = sigma(spec, limit)
    return [Fraction(int(sig[l]), l) for l in range(1, limit + 1)]


@lru_cache(maxsize=None)
def _harmonic(m):
    return mpmath.psi(0, m + 1) + mpmath.euler


def prefix_sum(spec, n):
    """S(n) = sum over members a <= n of H(n // a), as an mpmath number."""
    a = members(spec, n)
    quotients, counts = np.unique(n // a, return_counts=True)
    return mpmath.fsum(int(c) * _harmonic(int(m))
                       for m, c in zip(quotients.tolist(), counts.tolist()))


# ---------------------------------------------------------------------------
# log F(x) near 1
# ---------------------------------------------------------------------------

def _log_p_all(t):
    """log prod_{n>=1} 1/(1 - e^(-n t)), exactly, via the eta transformation."""
    t = mpmath.mpf(t)
    pi = mpmath.pi
    dual = -mpmath.log(mpmath.qp(mpmath.exp(-4 * pi * pi / t)))
    return pi * pi / (6 * t) + mpmath.log(t / (2 * pi)) / 2 - t / 24 + dual


def _log_f_primes(t):
    """Direct sum of -log(1 - e^(-p t)) over primes p.

    Each term is rounded once to float64 and the terms are summed exactly
    (math.fsum), so the sum is good to a few units in the last place.
    Primes past 80 / t are dropped; their total is below
    e^-80 / (1 - e^-t)^2, far under one unit in the last place here.
    """
    t = float(t)
    cutoff = int(80.0 / t) + 1
    w = np.flatnonzero(prime_flags(cutoff)) * t
    big = w > math.log(2.0)
    terms = np.empty_like(w)
    terms[big] = -np.log1p(-np.exp(-w[big]))
    terms[~big] = -np.log(-np.expm1(-w[~big]))
    return mpmath.mpf(math.fsum(terms.tolist()))


def log_f(spec, x):
    """log F(x) = sum_{a in A} -log(1 - x^a) for the sets the benchmark uses."""
    t = -mpmath.log(mpmath.mpf(x))
    if spec == "all":
        return _log_p_all(t)
    if spec == "mod:2:1":
        return _log_p_all(t) - _log_p_all(2 * t)
    if spec == "cofinite:2":
        return _log_p_all(t) + mpmath.log(-mpmath.expm1(-t))
    if spec == "primes":
        return _log_f_primes(t)
    raise ValueError(f"no log F oracle for {spec!r}")


# ---------------------------------------------------------------------------
# Grids, as the CLI documents them
# ---------------------------------------------------------------------------

def geo_grid(start, stop, factor):
    """The points of 'geo:start:stop:factor'."""
    values = [start]
    v = start
    while v < stop:
        v = max(v + 1, round(v * factor))
        values.append(min(v, stop))
    return values


def pow2_grid(k1, k2):
    return [1.0 - 2.0 ** -k for k in range(k1, k2 + 1)]


def prime_counts_at(points):
    flags = prime_flags(max(points))
    return [int(np.count_nonzero(flags[:x + 1])) for x in points]


# ---------------------------------------------------------------------------
# Self test against exhaustive enumeration
# ---------------------------------------------------------------------------

def _partitions(n, largest=None):
    """Every partition of n as a nonincreasing tuple."""
    if n == 0:
        yield ()
        return
    largest = n if largest is None else min(largest, n)
    for first in range(largest, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def self_test(n_max=22):
    """Compare every oracle with brute force at small n; return the mismatches."""
    specs = ("all", "mod:2:1", "mod:4:1,3", "primes", "cofinite:2",
             "cofinite:3", "finite:1,2,3", "finite:2,3", "finite:3,5")
    every = [list(_partitions(n)) for n in range(n_max + 1)]
    problems = []
    brute = {}
    x = 0.1
    for spec in specs:
        mask = member_mask(spec, n_max)
        counts = [sum(all(mask[a] for a in lam) for lam in every[n])
                  for n in range(n_max + 1)]
        brute[spec] = counts
        if list(exact_counts(spec, n_max)) != counts:
            problems.append(f"exact sigma recurrence, {spec}")
        logs = log_counts(spec, n_max)
        for n, c in enumerate(counts):
            if (c == 0) != np.isneginf(logs[n]) or (
                    c and abs(logs[n] - math.log(c)) > 1e-12 * max(1.0, math.log(c))):
                problems.append(f"float sigma recurrence, {spec}, n={n}")
                break
        if spec in ("all", "mod:2:1", "cofinite:2", "primes"):
            # x = 0.1: the terms past n_max weigh below 1e-19 of the total
            series = math.log(math.fsum(c * x ** n for n, c in enumerate(counts)))
            if abs(float(log_f(spec, x)) - series) > 1e-15:
                problems.append(f"log F, {spec}")
        by_part = [Fraction(0)] * (n_max + 1)
        for a in np.flatnonzero(mask).tolist():
            for k in range(1, n_max // a + 1):
                by_part[a * k] += Fraction(1, k)
        if series_coeffs(spec, n_max) != by_part[1:]:
            problems.append(f"series coefficients, {spec}")
        want = Fraction(0)
        for n in range(1, n_max + 1):
            want += by_part[n]
            if abs(prefix_sum(spec, n) - mpmath.mpf(want.numerator) / want.denominator) > 1e-30:
                problems.append(f"prefix sum, {spec}, n={n}")
                break
    if [p_all(n) for n in range(n_max + 1)] != brute["all"]:
        problems.append("Hardy-Ramanujan-Rademacher p(n)")
    if [p_123(n) for n in range(n_max + 1)] != brute["finite:1,2,3"]:
        problems.append("closed form for parts 1, 2, 3")
    small_primes = [k for k in range(n_max + 1)
                    if k > 1 and all(k % d for d in range(2, k))]
    if np.flatnonzero(prime_flags(n_max)).tolist() != small_primes:
        problems.append("prime sieve")
    return problems
