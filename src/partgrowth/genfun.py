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
are views of them, and so are the counts A(n) that the inversion reads.
Summed over the pairs k * l <= n, the inversion is Dirichlet's
convolution sum_{a <= n} (mu * sigma_A)(a) / a, and (mu * sigma_A)(a) is
a * 1_A(a), so one subtractive sieve undoes sigma_A, with no lcm.  Only
the divisor sum still splits at r = isqrt(n) by Dirichlet's hyperbola
method: each k <= r is one term over L = lcm(1..r), and _blocks groups
the k > r by their constant v = n // k <= r, whose runs of D/k, with
D = lcm(1..n), are summed exactly.  The divisor sum raises if a run of
D/k leaves a remainder, and the inversion if a term (mu * sigma_A)(a) / a
is not an int.

log_gf evaluates log F(x) in floating point for 0 < x < 1 with a proven
truncation bound, streaming the parts of every set to one cutoff and
never listing them, and the two probes compare (1-x) log F(x) and S(n)/n
against their common limit pi^2 * density / 6.  tauberian_probe needs
only the float S(n)/n.  It reads its grid points up to a cut M off one
exact prefix walk of D*S(n) with D = lcm(1..M), and takes each point
past M from a fixed-point enclosure T <= 2**P * S(n) <= T + E of the
same divisor sum (_enclosed_mean): when both ends round to one float,
that float is S(n)/n correctly rounded, and otherwise the exact divisor
sum decides.  _cut_costs prices every cut by _costs.STEP_PS before
anything is walked; the floats are the same whichever cut it takes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat, takewhile
from operator import floordiv, mul, neg, sub

from ._costs import STEP_PS
from ._record import _Record
from .partsets import (FiniteParts, _validate_increasing, block_counts,
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

class CoefficientSeries(_Record):
    """b_1..b_limit of log F for one part set, held as the ints sigma_A(l).

    sigma[l] is the sum of the members of A that divide l (sigma[0] = 0),
    and b_l = sigma[l] / l.  coeffs (b_0..b_limit, b_0 = 0) and sums
    (the prefix totals S(0..limit)) are exact Fraction views of it, and
    _counts the counting function A(n) that mobius_invert_sums reads.
    """

    __match_args__ = ("spec", "limit", "sigma")
    __slots__ = __match_args__ + ("__dict__",)  # holds the cached views

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) + tuple(
            map(Fraction, self.sigma[1:], range(1, self.limit + 1)))

    @cached_property
    def sums(self) -> tuple[Fraction, ...]:
        D = _lcm_upto(max(self.limit, 1))
        return tuple(Fraction(x, D) for x in _cleared_prefix(D, self.sigma))

    @cached_property
    def _counts(self) -> tuple[int, ...]:
        """A(0..m-1), where m is the first a with f(a) % a != 0 (limit + 1
        when there is none) and f = mu * sigma.

        A subtractive sieve undoes sigma(l) = sum_{a | l} f(a): taking a in
        ascending order, f[a] is final once every smaller divisor has been
        subtracted, and is then subtracted from 2a, 3a, ...  That is
        O(limit * log limit) small-int steps, with no lcm and no mu.  For a
        true series f(a) = a * 1_A(a), so A(n) = sum_{a <= n} f(a) / a.
        """
        f = list(self.sigma)
        for a in range(1, self.limit // 2 + 1):
            if f[a]:
                f[2 * a::a] = map(sub, f[2 * a::a], repeat(f[a]))
        whole = takewhile(lambda a: f[a] % a == 0, range(1, self.limit + 1))
        return tuple(accumulate((f[a] // a for a in whole), initial=0))


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


def _blocks(n, k=1):
    """(v, k1, k2) for the runs k1..k2 that split [k, n] where n // k' = v
    is constant, each as long as it can be; past isqrt(n), v <= isqrt(n)."""
    while k <= n:
        v = n // k
        k2 = n // v
        yield v, k, k2
        k = k2 + 1


def sums_via_counting(spec, n) -> Fraction:
    """S(n) evaluated through the divisor-sum identity, exactly.

    Split at r = isqrt(n), with D = lcm(1..n) and L = lcm(1..r):

        D*S(n) = (D/L) * sum_{k <= r} A(n // k) * (L/k)
               + sum over blocks [k1, k2] of k > r with v = n // k <= r
                     of A(v) * (D/k1 + ... + D/k2).

    The k <= r terms are small ints, multiplied by D/L once.  Every
    A(n // k) comes from one block_counts call, and each block's run of
    D/k is summed exactly by _harmonic_run, which checks its own
    remainder; blocks with A(v) = 0 are skipped.  The big-int work is about
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
    small, large = block_counts(spec, n)
    head = sum(large[k] * (L // k) for k in range(1, r + 1))
    total = head * (D // L)
    for v, k1, k2 in _blocks(n, r + 1):
        count = small[v]
        if count:
            total += count * _harmonic_run(D, k1, k2)
    return Fraction(total, D)


def mobius_invert_sums(series, n) -> int:
    """Recover A(n) from the prefix sums of `series` by Mobius inversion.

    Exact: equals counting_function(series.spec, n) whenever n is within
    the series limit.  The sum A(n) = sum_k mu(k)/k * S(n // k), taken in
    the other order over the pairs k * l <= n, is Dirichlet's convolution:

        sum_k (mu(k)/k) * S(n // k) = sum_{a <= n} (mu * sigma)(a) / a,

    and (mu * sigma)(a) = a * 1_A(a).  So A(n) is a lookup in
    series._counts, which undoes sigma by one sieve.  Each term f(a) / a
    must be an int; from the first a where it is not, every n >= a
    raises ArithmeticError, which no true log-series allows: it catches a
    sigma that comes from no part set.  This check of every term is at
    least as strict as one of the total, and what it returns is the
    rational sum itself.
    """
    if not 1 <= n <= series.limit:
        raise ValueError(f"n={n} outside series range [1, {series.limit}]")
    counts = series._counts
    if n >= len(counts):
        raise ArithmeticError(f"inversion at n={n} is not an integer")
    return counts[n]


# ---------------------------------------------------------------------------
# Float evaluation of log F on (0, 1)
# ---------------------------------------------------------------------------

_LOG2 = math.log(2.0)


def _neg_log(x) -> float:
    """t = -log x for 0 < x < 1, accurate near x = 1.

    -log1p(x - 1) wherever x - 1 does not round to -1, -log(x) for the
    x <= 2**-54 where it does (log1p(-1) is a domain error).
    """
    d = x - 1.0
    return -math.log1p(d) if d > -1.0 else -math.log(x)


def _tail_cutoff(x, tail_tol) -> int:
    """Smallest C with x^(C+1) / (1-x)^2 <= tail_tol.

    Each dropped term -log(1 - x^a) is at most x^a / (1-x), and the
    geometric tail past C sums to x^(C+1) / (1-x), giving the bound.
    Comparisons run in log space so nothing underflows.
    """
    t = _neg_log(x)
    log_rhs = math.log(tail_tol) + 2.0 * math.log1p(-x)
    c = max(0, math.ceil(-log_rhs / t) - 1)
    while -(c + 1) * t > log_rhs:     # float-guard: enlarge until bound holds
        c += 1
    while c > 0 and -c * t <= log_rhs:
        c -= 1
    return c


def _small_part_end(t) -> int:
    """k, the last a >= 0 with a * t <= log 2, by the float comparison
    that picks each term's branch in log_gf."""
    k = int(_LOG2 / t)
    while k * t > _LOG2:
        k -= 1
    while (k + 1) * t <= _LOG2:
        k += 1
    return k


def log_gf(spec, x, *, tail_tol=1e-9) -> float:
    """log F(x) = sum_{a in A} -log(1 - x^a) for 0 < x < 1.

    The parts stream from iter_parts up to a cutoff, never listed: a
    finite set's largest part (tail_tol may be 0), or for an infinite set
    _tail_cutoff(x, tail_tol), so the result is within tail_tol of the
    true value before rounding.  With w = a * t, t = -log x, a term is
    -log(-expm1(-w)) for the parts a <= k = _small_part_end(t)
    (w <= log 2) and -log1p(-exp(-w)) past k, so each stays accurate.
    exp(-w) is 0.0 for w >= 746, so every term past a = ceil(746 / t) is
    -0.0: capping the cutoff there changes no bit, and no part too large
    for a float meets a * t.  Both runs are chained C-level maps into one
    math.fsum, with no Python call per term: a * (-t) is -(a * t) bit
    for bit, and fsum is correctly rounded, so neither the order of the
    parts nor summing the negated terms can change a bit.  0.0 - sum
    keeps an empty sum at +0.0.
    """
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    finite = isinstance(spec, FiniteParts)
    if not (0 < tail_tol < math.inf or tail_tol == 0 and finite):
        raise ValueError(f"tail_tol must be finite and > 0, or 0 for a "
                         f"finite set, got {tail_tol}")
    t = _neg_log(x)
    k = _small_part_end(t)
    cutoff = min(spec.parts[-1] if finite else _tail_cutoff(x, tail_tol),
                 math.ceil(746 / t))
    # the big parts first: a sieve for the primes then runs once, to the
    # cutoff, and the small parts read the same flags
    big = iter_parts(spec, cutoff, k + 1) if cutoff else ()
    small = iter_parts(spec, min(k, cutoff)) if k and cutoff else ()
    return 0.0 - math.fsum(chain(
        map(math.log, map(neg, map(math.expm1, map(mul, small, repeat(-t))))),
        map(math.log1p, map(neg, map(math.exp, map(mul, big, repeat(-t)))))))


def log_gf_grid(spec, xs, *, tail_tol=1e-9) -> tuple[float, ...]:
    """log_gf at every x of an ascending x-grid, in grid order.

    The largest x goes first: its cutoff is the largest, so the prime
    sieve runs once, to that cutoff, instead of growing by doubling at
    each x and holding the old flags beside the new.
    """
    backward = [log_gf(spec, x, tail_tol=tail_tol) for x in reversed(xs)]
    return tuple(reversed(backward))


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def _validate_x_grid(xs):
    """The one rule for x-grids: a nonempty, strictly increasing sequence
    of floats in (0, 1).  NaN lies in no interval, so it is refused."""
    if not xs:
        raise ValueError("x grid must be nonempty")
    for x in xs:
        if not 0.0 < x < 1.0:
            raise ValueError(f"x grid must lie in (0, 1), got {x}")
    for a, b in zip(xs, xs[1:]):
        if b <= a:
            raise ValueError(
                f"x grid must be strictly increasing, got {a} before {b}")


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
    _validate_x_grid(xs)
    target = abelian_density_target(density)
    lo, hi = ((float(band[0]), float(band[1])) if band is not None
              else default_band(target, rel_tol))
    values = tuple((1.0 - x) * v for x, v in
                   zip(xs, log_gf_grid(spec, xs, tail_tol=tail_tol)))
    last_dev = (abs(values[-1] - target) / target if target > 0.0
                else abs(values[-1]))
    return judge_tail("abelian", xs, values, lo, hi, meta={
        "set": str(spec), "density": float(density), "target": target,
        "last_point_deviation": last_dev, "tail_tol": tail_tol,
        "band_origin": "user" if band is not None else "target-default"})


#: Bits of the enclosure's fixed point past 64 + 2 * bits(n).
_GUARD_BITS = 40


def _enclosed_mean(spec, n) -> float:
    """float(S(n) / n) from a fixed-point enclosure of S(n).

    With one = 2**P, P = 64 + 2 * bits(n) + _GUARD_BITS, the divisor sum
    of sums_via_counting is taken in fixed point over the blocks of _blocks:

        T = sum over blocks [k1, k2] of constant v = n // k
                of A(v) * (one // k1 + ... + one // k2),

    and E is the sum of A(.) over every floor taken.  Each floor one // k
    lies in (one/k - 1, one/k], so T <= one * S(n) <= T + E.  Rounding to
    nearest is monotone and int / int rounds correctly, so when
    T / (one*n) and (T + E) / (one*n) round to the same float, S(n)/n
    rounds to it too: it is float(sums_via_counting(spec, n) / n) bit for
    bit.  Otherwise that exact route decides.  (This is Ziv's rounding
    test: Ziv, ACM TOMS 17, 1991.)

    S(n) = 0 makes every count 0, so T = E = 0 and the float is 0.0
    exactly (blocks with A(v) = 0 are skipped only to save time).
    S(n) > 0 means A(n) >= 1, so S(n) >= 1 while E <= n * A(n) <
    4**bits(n): the enclosure is narrower than 2**-(64 + _GUARD_BITS) *
    S(n), and only a value that close to a rounding boundary falls back.
    The work is about n floors of a P-bit int by a small one, in C-level
    sums, and one block_counts call for every A(v).  A block with v > r =
    isqrt(n) starts at k1 <= r, so its A(v) is large[k1].
    """
    one = 1 << (64 + 2 * n.bit_length() + _GUARD_BITS)
    total = error = 0
    small, large = block_counts(spec, n)
    r = len(small) - 1
    for v, k1, k2 in _blocks(n):
        count = small[v] if v <= r else large[k1]
        if count:
            total += count * sum(map(floordiv, repeat(one, k2 - k1 + 1),
                                     range(k1, k2 + 1)))
            error += count * (k2 - k1 + 1)
    mean = total / (one * n)
    if mean == (total + error) / (one * n):
        return mean
    return float(sums_via_counting(spec, n) / n)


def _cut_costs(grid) -> dict:
    """Picoseconds of tauberian_probe at each cut M in {0} | grid (0 first,
    then the larger M): M * M steps of the prefix walk to M, as
    bits(lcm(1..M)) ~ M log2(e) by the prime number theorem, and n steps
    of _enclosed_mean for each point n > M.  A lone n >= 120 takes the
    enclosure."""
    walk, point = STEP_PS["walk"], STEP_PS["enclosure"]
    costs, tail = {0: point * sum(grid)}, 0
    for m in reversed(grid):
        costs[m] = walk * m * m + point * tail
        tail += m
    return costs


def tauberian_probe(spec, target_rate, n_grid, *, rel_tol=0.01) -> ProbeReport:
    """Sample S(n)/n on an n-grid against a claimed linear growth rate.

    The points up to the cut M that _cut_costs prices lowest are read
    off one exact walk of D*S(n) = sum_{l <= n} (D/l) * sigma_A(l),
    n = 1..M, with D = lcm(1..M), keeping only the float x / (D*n) at
    each point; the points past M each take _enclosed_mean, O(n)
    small-int work.  A dense grid costs one O(M * bits(D)) walk instead
    of |grid| enclosures, and a sparse grid of large n skips the walk.
    The walk divides the exact rational once with correct rounding, and
    the enclosure returns a float only when both its ends round to it,
    falling back to sums_via_counting when they do not; so every value
    is float(S(n) / n) bit for bit, whichever route took it.

    The ratio is compared to target_rate (for density-d sets:
    pi^2 d / 6) with relative slack rel_tol on the tail samples.
    target_rate 0 (finite sets: S(n) grows only logarithmically) reads
    rel_tol as an absolute ceiling instead, band [0, rel_tol].
    """
    grid = tuple(n_grid)
    _validate_increasing(grid, "n grid")
    target = float(target_rate)
    if not (math.isfinite(target) and target >= 0):
        raise ValueError(
            f"target rate must be finite and >= 0, got {target_rate}")
    lo, hi = default_band(target, rel_tol)
    costs = _cut_costs(grid)
    cut = min(costs, key=costs.get)
    values = []
    if cut:
        D = _lcm_upto(cut)
        walk = _cleared_prefix(D, log_gf_coefficients(spec, cut).sigma)
        dense = {n for n in grid if n <= cut}
        values = [x / (D * n) for n, x in enumerate(walk) if n in dense]
    values += [_enclosed_mean(spec, n) for n in grid[len(values):]]
    return judge_tail("tauberian", grid, tuple(values), lo, hi,
                      meta={"set": str(spec), "target": target})
