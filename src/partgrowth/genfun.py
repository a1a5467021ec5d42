"""Logarithm of the partition product and its coefficient arithmetic.

The product F(x) = prod_{a in A} 1/(1 - x^a) generates the partition
counts of a part set A.  Its logarithm expands as a power series whose
coefficient at x^l collects 1/k for every way l = a*k with a in A:

    log F(x) = sum_l b_l x^l,   b_l = sum_{a in A, k >= 1, a k = l} 1/k.

Two exact identities tie the prefix sums S(n) = b_1 + ... + b_n to the
counting function A(x) of the set:

    S(n) = sum_{k=1}^{n} (1/k) * A(n // k)              (divisor sum)
    A(n) = sum_{k=1}^{n} (mu(k)/k) * S(n // k)          (Mobius inversion)

Everything on this side is exact.  Since b_l = sigma_A(l) / l with
sigma_A(l) the sum of the members of A that divide l, the series stores
the ints sigma_A(l) alone; its Fraction coefficients and prefix sums
are views of them, and so are its integer forms cleared over
D = lcm(1..limit) and L = lcm(1..isqrt(limit)), which are ints because
D and L divide every index they meet.  Both identities split their sum
at r = isqrt(n) by Dirichlet's hyperbola method: each k <= r is one
term, and the k > r fall into blocks of constant v = n // k <= r.  So
each inversion product pairs a D-sized int with a small one, and the
divisor sum's k <= r terms are small ints.  The inversion raises if its
total leaves a remainder modulo D*L, and the divisor sum if a run of
D/k does.

log_gf evaluates log F(x) in floating point for 0 < x < 1 with a proven
truncation bound, streaming the parts of an infinite set instead of
listing them, and the two probes compare (1-x) log F(x) and S(n)/n
against their common limit pi^2 * density / 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, islice

from .partsets import (FiniteParts, PartSetSpec, counting_function,
                       iter_parts, primes_upto)
from .reports import ProbeReport, default_band, judge_tail

PI2_OVER_6 = math.pi * math.pi / 6.0


def abelian_density_target(density) -> float:
    """Limit of (1-x) log F(x) and of S(n)/n for a set of natural density d."""
    if not 0 <= density <= 1:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    return PI2_OVER_6 * float(density)


def mobius_sieve(limit) -> tuple[int, ...]:
    """mu(0..limit) as a tuple, mu(0) = 0: flip sign per prime factor,
    zero square multiples."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    mu = [1] * (limit + 1)
    mu[0] = 0
    for p in primes_upto(limit):
        for m in range(p, limit + 1, p):
            mu[m] = -mu[m]
        pp = p * p
        for m in range(pp, limit + 1, pp):
            mu[m] = 0
    return tuple(mu)


@lru_cache(maxsize=256)
def _lcm_upto(n) -> int:
    """lcm(1, 2, ..., n) as a product of maximal prime powers."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors = []
    for p in primes_upto(n):
        q = p
        while q * p <= n:
            q *= p
        factors.append(q)
    return math.prod(factors)


# ---------------------------------------------------------------------------
# Coefficient series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSeries:
    """b_1..b_limit of log F for one part set, held as the ints sigma_A(l).

    sigma[l] is the sum of the members of A that divide l (sigma[0] = 0),
    and b_l = sigma[l] / l.  coeffs (b_0..b_limit, b_0 = 0) and sums
    (the prefix totals S(0..limit)) are exact Fraction views of it.
    """

    spec: PartSetSpec
    limit: int
    sigma: tuple[int, ...]

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) + tuple(
            map(Fraction, self.sigma[1:], range(1, self.limit + 1)))

    @cached_property
    def sums(self) -> tuple[Fraction, ...]:
        # streamed, not read from _cleared, so that the prefix sums alone
        # never build the inversion's D-sized tuples
        D = _lcm_upto(max(self.limit, 1))
        return tuple(Fraction(x, D) for x in _cleared_prefix(D, self.sigma))

    @cached_property
    def _cleared(self):
        """(D, L, D*S(v), prefix sums of mu(k) * D/k, mu(k) * L/k for
        k <= R, L*S(v) for v <= R) with D = lcm(1..limit), L = lcm(1..R)
        and R = isqrt(limit), from one sieve of mu.

        D divides every l <= limit and L every l <= R, so each value is an
        int built from sigma without a Fraction.
        """
        D = _lcm_upto(max(self.limit, 1))
        R = math.isqrt(self.limit)
        L = _lcm_upto(max(R, 1))
        mu = mobius_sieve(self.limit)
        mu_l = (0,) + tuple(mu[k] * (L // k) for k in range(1, R + 1))
        return (D, L, tuple(_cleared_prefix(D, self.sigma)),
                tuple(_cleared_prefix(D, mu)), mu_l,
                tuple(islice(_cleared_prefix(L, self.sigma), R + 1)))


def _cleared_prefix(m, values):
    """m * (values[1]/1 + ... + values[v]/v) for v = 0, 1, 2, ..., lazily.

    Each term is m // l * values[l], exact while m is a multiple of l.
    """
    return accumulate((m // l * x for l, x in enumerate(values[1:], 1)),
                      initial=0)


def log_gf_coefficients(spec, limit) -> CoefficientSeries:
    """Exact b_1..b_limit through sigma_A: each member a adds a at a, 2a, ..."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    sigma = [0] * (limit + 1)
    for a in iter_parts(spec, limit):
        for l in range(a, limit + 1, a):
            sigma[l] += a
    return CoefficientSeries(spec=spec, limit=limit, sigma=tuple(sigma))


#: Terms per leaf of the binary-splitting tree.
_LEAF = 32
#: Terms per long division of a run; keeps the denominator near the size of D.
_CHUNK = 1024


def _harmonic_fraction(a, b):
    """(P, Q) with P/Q = 1/a + ... + 1/b and Q = a * (a+1) * ... * b.

    Binary splitting: two halves combine as (P1*Q2 + P2*Q1) / (Q1*Q2), so
    the multiplications stay balanced.  A leaf takes Q as one product and
    P as the exact quotients Q // k.
    """
    if b - a < _LEAF:
        ks = range(a, b + 1)
        q = math.prod(ks)
        return sum(map(q.__floordiv__, ks)), q
    m = (a + b) // 2
    p1, q1 = _harmonic_fraction(a, m)
    p2, q2 = _harmonic_fraction(m + 1, b)
    return p1 * q2 + p2 * q1, q1 * q2


def _harmonic_run(D, a, b) -> int:
    """D/a + D/(a+1) + ... + D/b, exactly, for a run of consecutive k.

    The run is cut into chunks of _CHUNK terms, and each chunk costs one
    divmod(D * P, Q) with P/Q from _harmonic_fraction, in place of one
    division of D per term.  Raises ArithmeticError if a chunk leaves a
    remainder; when D is a multiple of every k, none can.
    """
    total = 0
    for lo in range(a, b + 1, _CHUNK):
        hi = min(b, lo + _CHUNK - 1)
        p, q = _harmonic_fraction(lo, hi)
        run, rem = divmod(D * p, q)
        if rem:
            raise ArithmeticError(
                f"sum of D/k over [{lo}, {hi}] is not an integer")
        total += run
    return total


def sums_via_counting(spec, n) -> Fraction:
    """S(n) evaluated through the divisor-sum identity, exactly.

    Split at r = isqrt(n), with D = lcm(1..n) and L = lcm(1..r):

        D*S(n) = (D/L) * sum_{k <= r} A(n // k) * (L/k)
               + sum over blocks [k1, k2] of k > r with v = n // k <= r
                     of A(v) * (D/k1 + ... + D/k2).

    The k <= r terms are small ints, multiplied by D/L once.  Each block
    past r costs one counting_function call, and its run of D/k is
    summed exactly by _harmonic_run, which checks its own remainder;
    blocks with A(v) = 0 are skipped.  The big-int work is about
    bits(D) * sum(log k) digit products in a few long divisions, where
    term-by-term evaluation made n divisions of D and n multiply-adds.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return Fraction(0)
    D = _lcm_upto(n)
    r = math.isqrt(n)
    L = _lcm_upto(r)
    head = sum(counting_function(spec, n // k) * (L // k)
               for k in range(1, r + 1))
    total = head * (D // L)
    k = r + 1
    while k <= n:
        v = n // k
        k2 = n // v
        count = counting_function(spec, v)
        if count:
            total += count * _harmonic_run(D, k, k2)
        k = k2 + 1
    return Fraction(total, D)


def mobius_invert_sums(series, n) -> int:
    """Recover A(n) from the prefix sums of `series` by Mobius inversion.

    Exact: equals counting_function(series.spec, n) whenever n is within
    the series limit.  Dirichlet's hyperbola method splits the sum at
    r = isqrt(n), so each product has one D-sized factor and one small:

        D*L*A(n) = sum_{k <= r} D*S(n // k) * (mu(k) * L/k)
                 + sum over blocks [k1, k2] of k > r with v = n // k <= r
                       of L*S(v) * (D*M(k2) - D*M(k1 - 1)),

    where M(k) = sum_{j <= k} mu(j)/j and every factor comes from
    series._cleared.  Every factor is an int, so one exactness check
    guards it: the total must divide by D*L.  A remainder raises
    ArithmeticError, which no true log-series allows; it catches a sigma
    that comes from no part set.
    """
    if not 1 <= n <= series.limit:
        raise ValueError(f"n={n} outside series range [1, {series.limit}]")
    D, L, scaled, weighted, mu_l, l_sums = series._cleared
    r = math.isqrt(n)
    total = 0
    for k in range(1, r + 1):
        if mu_l[k]:
            total += scaled[n // k] * mu_l[k]
    k = r + 1
    while k <= n:
        v = n // k
        k2 = n // v
        total += l_sums[v] * (weighted[k2] - weighted[k - 1])
        k = k2 + 1
    count, rem = divmod(total, D * L)
    if rem:
        raise ArithmeticError(f"inversion at n={n} is not an integer")
    return count


# ---------------------------------------------------------------------------
# Float evaluation of log F on (0, 1)
# ---------------------------------------------------------------------------

_LOG2 = math.log(2.0)


def _neg_log_one_minus_exp(w) -> float:
    """-log(1 - e^(-w)) for w > 0, accurate in both regimes."""
    if w > _LOG2:
        return -math.log1p(-math.exp(-w))
    return -math.log(-math.expm1(-w))


def _tail_cutoff(x, tail_tol) -> int:
    """Smallest C with x^(C+1) / (1-x)^2 <= tail_tol.

    Each dropped term -log(1 - x^a) is at most x^a / (1-x), and the
    geometric tail past C sums to x^(C+1) / (1-x), giving the bound.
    Comparisons run in log space so nothing underflows.
    """
    t = -math.log1p(x - 1.0)          # -log x, accurate near x = 1
    log_rhs = math.log(tail_tol) + 2.0 * math.log1p(-x)
    c = max(0, math.ceil(-log_rhs / t) - 1)
    while -(c + 1) * t > log_rhs:     # float-guard: enlarge until bound holds
        c += 1
    while c > 0 and -c * t <= log_rhs:
        c -= 1
    return c


def log_gf(spec, x, *, tail_tol=1e-9) -> float:
    """log F(x) = sum_{a in A} -log(1 - x^a) for 0 < x < 1.

    Finite sets are summed in full (tail_tol may be 0).  Infinite sets
    are truncated at _tail_cutoff(x, tail_tol), so the result is within
    tail_tol of the true value before rounding, and their parts are
    streamed from iter_parts, never listed; terms are evaluated with
    expm1/log1p branches and accumulated with math.fsum, keeping the
    rounding error near one ulp.
    """
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    t = -math.log1p(x - 1.0)
    if isinstance(spec, FiniteParts):
        if tail_tol < 0:
            raise ValueError(f"tail_tol must be >= 0, got {tail_tol}")
        parts = spec.parts
    else:
        if tail_tol <= 0:
            raise ValueError(
                f"tail_tol must be > 0 for an infinite set, got {tail_tol}")
        cutoff = _tail_cutoff(x, tail_tol)
        parts = iter_parts(spec, cutoff) if cutoff else ()
    return math.fsum(_neg_log_one_minus_exp(a * t) for a in parts)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def abelian_probe(spec, density, x_grid, *, rel_tol=0.02, tail_tol=1e-9,
                  band=None) -> ProbeReport:
    """Sample (1-x) log F(x) on an x-grid rising toward 1.

    For a set of natural density d the quantity tends to pi^2 d / 6; the
    probe passes when the tail samples (last third of the grid) land in
    the band, by default the target widened by rel_tol either way.  A
    zero target (density 0, e.g. any finite set) turns rel_tol into an
    absolute ceiling: band [0, rel_tol].
    """
    xs = tuple(float(x) for x in x_grid)
    if not xs or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError(f"x grid must be strictly increasing: {xs}")
    if not all(0.0 < x < 1.0 for x in xs):
        raise ValueError(f"x grid must lie in (0, 1): {xs}")
    target = abelian_density_target(density)
    lo, hi = ((float(band[0]), float(band[1])) if band is not None
              else default_band(target, rel_tol))
    values = tuple((1.0 - x) * log_gf(spec, x, tail_tol=tail_tol) for x in xs)
    last_dev = (abs(values[-1] - target) / target if target > 0.0
                else abs(values[-1]))
    return judge_tail("abelian", xs, values, lo, hi, meta={
        "set": str(spec), "density": float(density), "target": target,
        "last_point_deviation": last_dev, "tail_tol": tail_tol,
        "band_origin": "user" if band is not None else "target-default"})


def tauberian_probe(spec, target_rate, n_grid, *, rel_tol=0.01) -> ProbeReport:
    """Sample S(n)/n on an n-grid against a claimed linear growth rate.

    S(n) is computed exactly through the divisor-sum identity and the
    ratio compared to target_rate (for density-d sets: pi^2 d / 6) with
    relative slack rel_tol on the tail samples.  target_rate 0 (finite
    sets: S(n) grows only logarithmically) reads rel_tol as an absolute
    ceiling instead, band [0, rel_tol].
    """
    grid = tuple(int(n) for n in n_grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise ValueError(f"n grid must be strictly increasing and >= 1: {grid}")
    target = float(target_rate)
    if target < 0:
        raise ValueError(f"target rate must be >= 0, got {target_rate}")
    lo, hi = default_band(target, rel_tol)
    values = tuple(float(sums_via_counting(spec, n) / n) for n in grid)
    return judge_tail("tauberian", grid, values, lo, hi,
                      meta={"set": str(spec), "target": target})
