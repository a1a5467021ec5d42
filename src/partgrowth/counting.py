"""Exact partition counting and structural checks on the count sequence.

partition_table is the one table builder: it picks the route for
p_A(0..limit) from the part set, between two routes.

  * The Euler quotient (_euler_quotient).  By Euler's pentagonal theorem,
    E(x) = prod_{k>=1} (1 - x^k) = sum_{k in Z} (-1)^k x^(k(3k-1)/2),
    so F_A(x) = N_A(x) / E(x) with the numerator
    N_A(x) = prod_{a not in A, a <= limit} (1 - x^a).  Dividing by E(x) is
    the pentagonal recurrence with N_A as its right-hand side,
    O(limit^1.5) big-int additions.  Every excluded part costs one O(limit)
    pass to build N_A; a residue set that leaves out every multiple of
    some d | m, d <= limit, starts from the sparse E(x^d) instead and pays
    a pass only for the other excluded parts.
  * The coin DP (table_from_parts), O(limit * |A cap [1, limit]|).

_table_costs prices both by _costs.STEP_PS before either is built; the
cheaper wins, the coin DP on a tie.  So all parts, the odd parts and
other dense residue sets, and cofinite tails with a short gap take the
quotient; the primes, sparse finite and file sets, and long-gap tails
such as cofinite:1500 at limit 2000 take the coin DP.  Parts larger than
the table limit can never occur in a partition of n <= limit, so
truncating the part set at the limit is lossless and the table is exact
(Python integers keep it exact at any size).  pentagonal_table is the
quotient with numerator 1; table_from_parts on the parts 1..limit is the
coin-DP reference it is checked against, and count_partitions_bruteforce
a third route by direct enumeration for tiny n.

grid_counts serves the callers that read p_A only at the points of a
grid (the growth ratios, the probes, the polynomial law).  _grid_costs
prices every route to the grid's end N = grid[-1] in one flat dict, and
_route_counts builds the cheapest by name (partition_table builds its
pick there too):

  * "coin" or "quotient": one table to N, priced by _table_costs.
  * "split" (_split_counts), for any set.  With M = N // 3, 3(M + 1) > N,
    so a partition of n <= N has at most two parts above M and
    p_A(n) = sum_j T_M[n - j] q(j): T_M is the coin DP over the parts
    <= M, built to N once for every point, and q(j) counts the multisets
    of at most two parts of A in (M, N] that sum to j, by small-int pair
    steps.  Each point then costs one dot product over the nonzero q(j),
    j <= n.  Skipping the parts above M saves 4/9 of the coin DP's
    additions for a set of density d (40 % for the primes at N = 20000),
    and its d^2 N^2 / 36 pair steps are about d/8 of those saved.  So the
    primes, residue sets without an E(x^d) factor and long-gap tails
    take it; all parts, the quotient sets and finite sets with no part
    above M price it out.
  * "series": the Hardy-Ramanujan-Rademacher series (_hrr_count), for all
    parts only.  p(n) = sum_{k>=1} 4/(24n-1) * S_k(n) * U(C/k) with
    C = (pi/6) sqrt(24n - 1), U(x) = cosh x - sinh(x)/x and Selberg's
    S_k(n) = sum (-1)^l cos(pi (6l+1) / (6k)) over the l in [0, 2k) with
    l(3l+1)/2 = -n (mod k).  Rademacher's tail bound fixes the number
    N(n) of terms, and every term is summed in decimal with a bound on its
    rounding error, which needs C >= N(n) (n >= 111).  The nearest integer
    is taken only when the sum lies within 1/2 minus those bounds of it
    (Ziv's test); a smaller point, or one that fails, is read off a table.

Dense grids and small grids of all parts take the table.

The check_* functions verify inequalities the count sequence must satisfy
(translation monotonicity, eventual strict growth for cofinite sets).
window_max_location finds where on [0, x] the count is maximized, which
for a set with least part a1 always happens within a1 of the right edge;
check_window_max checks every prefix [0, y] on the same running maximizer.
"""

from __future__ import annotations

import decimal
import math
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from ._costs import STEP_PS
from ._record import _Record
from .partsets import (AllParts, CofiniteTail, FiniteParts, PrimeParts,
                       ResidueParts, _validate_increasing, counting_function,
                       enumerate_parts, iter_parts)

# Direct enumeration is exponential; keep it to oracle-sized inputs.
BRUTEFORCE_LIMIT = 40


class PartitionTable(_Record):
    """Counts p_A(0), ..., p_A(limit) for one part set, exact integers:
    values is the tuple of them."""

    __slots__ = __match_args__ = ("spec", "limit", "values")

    def __getitem__(self, n) -> int:
        if not 0 <= n <= self.limit:
            raise IndexError(f"n={n} outside table range [0, {self.limit}]")
        return self.values[n]

    def __len__(self):
        return self.limit + 1


def table_from_parts(parts, limit, spec=None) -> PartitionTable:
    """DP table from an explicit part list (order of parts is irrelevant);
    without a spec, one pass over the parts makes a FiniteParts first."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if spec is None:
        parts = tuple(sorted(parts))
        spec = FiniteParts(parts)
    values = [0] * (limit + 1)
    values[0] = 1
    for a in parts:
        if a < 1:
            raise ValueError(f"parts must be >= 1, got {a}")
        if a > limit:
            continue
        for n in range(a, limit + 1):
            values[n] += values[n - a]
    return PartitionTable(spec=spec, limit=limit, values=tuple(values))


def partition_table(spec, limit) -> PartitionTable:
    """Exact p_A(n) for 0 <= n <= limit, by the route _table_costs prices
    lower: the coin DP, or the Euler quotient over _numerator."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    costs = _table_costs(spec, limit)
    return PartitionTable(spec=spec, limit=limit, values=_route_counts(
        min(costs, key=costs.get), spec, range(limit + 1)))


def _route_counts(route, spec, grid) -> tuple[int, ...]:
    """p_A at every point of grid, a strictly increasing sequence of ints
    >= 0, by the route named by _table_costs or _grid_costs: one table to
    grid[-1] ("coin" or "quotient"), _split_counts ("split") or one
    series sum per point ("series"), whose unsettled points are read off
    one table to the largest of them."""
    top = grid[-1]
    if route == "series":
        counts = [_hrr_count(n) for n in grid]
        missed = [n for n, c in zip(grid, counts) if c is None]
        if missed:
            table = partition_table(spec, missed[-1])
            counts = [table[n] if c is None else c
                      for n, c in zip(grid, counts)]
        return tuple(counts)
    if route == "split":
        return _split_counts(spec, grid)
    if route == "coin":
        parts = enumerate_parts(spec, top) if top >= 1 else []
        values = table_from_parts(parts, top, spec=spec).values
    else:
        values = _euler_quotient(_numerator(spec, top), top)
    return tuple(map(values.__getitem__, grid))


def _euler_step(spec, limit) -> int:
    """Least d in [2, limit] with d | m and no residue among d, 2d, ..., m,
    for a residue set; 0 when there is none.  Such a set leaves out every
    multiple of d, so E(x^d) is a factor of its numerator.  A step past
    the limit would put no term of E(x^d) at or below it, so the scan
    stops there, however large m is.
    """
    if not isinstance(spec, ResidueParts):
        return 0
    m = spec.modulus
    # the residues lie in [1, m], so d, 2d, ..., m are its multiples there
    return next((d for d in range(2, min(m, limit) + 1)
                 if m % d == 0 and all(r % d for r in spec.residues)), 0)


def _table_costs(spec, limit, parts=None) -> dict:
    """Picoseconds of the coin DP and the quotient to p_A(0..limit), from
    parts = A(limit) (counted here unless the caller has it): the coin DP
    takes _coin_steps(spec, limit, limit, parts), the quotient limit *
    (pentagonal offsets <= limit + passes), passes = limit - A(limit) -
    limit // d for the step d of _euler_step.  For the primes, as 2 is
    the only even prime, A(limit) <= passes + 1 <= passes + offsets."""
    if parts is None:
        parts = counting_function(spec, limit)
    d = _euler_step(spec, limit)
    passes = limit - parts - (limit // d if d else 0)
    s = math.isqrt(24 * limit + 1)   # k(3k -+ 1)/2 <= limit for k <= (s +- 1)/6
    quotient = limit * ((s + 1) // 6 + (s - 1) // 6 + passes)
    return {"coin": STEP_PS["table"] * _coin_steps(spec, limit, limit, parts),
            "quotient": STEP_PS["table"] * quotient}


def _coin_steps(spec, top, limit, parts) -> int:
    """Steps of the coin DP to limit over the parts a <= top <= limit, of
    which there are parts: limit - a + 1 each, summed in closed form per
    run of parts (one for all parts or a tail, one per residue class) or
    over a finite set's slice.  The primes need no sum: they take at most
    limit * parts."""
    if isinstance(spec, FiniteParts):
        return (limit + 1) * parts - sum(spec.parts[:parts])
    if isinstance(spec, PrimeParts):
        return limit * parts
    # all parts are the tail from 1
    runs = ([range(r, top + 1, spec.modulus) for r in spec.residues]
            if isinstance(spec, ResidueParts) else
            [range(getattr(spec, "start", 1), top + 1)])
    return sum(len(run) * (2 * limit + 2 - run[0] - run[-1]) // 2
               for run in runs if run)


def _numerator(spec, limit) -> list[int]:
    """N_A(0..limit): E(x^d) for the step d of _euler_step (1 when there
    is none), then one pass of (1 - x^a) for every other excluded a."""
    member = bytearray(limit + 1)
    for a in iter_parts(spec, limit):
        member[a] = 1
    d = _euler_step(spec, limit)
    numerator = [1] + [0] * limit
    if d:
        # E(x^d): -1 where the recurrence adds, +1 where it subtracts
        plus, minus = _pentagonal_offsets(limit // d)
        for offsets, sign in ((plus, -1), (minus, 1)):
            for g in offsets:
                numerator[d * g] = sign
    for a in range(1, limit + 1):
        if not member[a] and (d == 0 or a % d):
            numerator[a:] = [u - v for u, v in zip(numerator[a:], numerator)]
    return numerator


def _pentagonal_offsets(limit) -> tuple[list[int], list[int]]:
    """Generalized pentagonal numbers k(3k-1)/2, k(3k+1)/2 <= limit, split
    by the sign (-1)^(k+1) they carry in the recurrence; both ascending.
    """
    plus, minus = [], []
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        offsets = plus if k % 2 else minus
        offsets.extend(g for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
                       if g <= limit)
        k += 1
    return plus, minus


def _euler_quotient(numerator, limit) -> list[int]:
    """F = numerator / E(x) to order limit, overwriting numerator with F.

    F[n] = N[n] + sum_{k>=1} (-1)^(k+1) (F[n - k(3k-1)/2] + F[n - k(3k+1)/2]),
    over the offsets <= n.  Between two consecutive offsets the set of
    live offsets is fixed, so each stretch of n sums one fixed prefix of
    each sign list.
    """
    values = numerator
    plus, minus = _pentagonal_offsets(limit)
    bounds = sorted(plus + minus) + [limit + 1]
    for lo, hi in zip(bounds, bounds[1:]):
        live_plus = plus[:bisect_right(plus, lo)]
        live_minus = minus[:bisect_right(minus, lo)]
        for n in range(lo, hi):
            values[n] += (sum([values[n - g] for g in live_plus])
                          - sum([values[n - g] for g in live_minus]))
    return values


def count_partitions_bruteforce(parts, n) -> int:
    """Number of multisets from `parts` summing to n, by direct recursion.

    Enumerates largest-first with a nonincreasing-choice bound.  Guarded
    to n <= BRUTEFORCE_LIMIT; this is the oracle the DP is checked against.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > BRUTEFORCE_LIMIT:
        raise ValueError(
            f"bruteforce counter is capped at n <= {BRUTEFORCE_LIMIT}, got {n}")
    usable = sorted({int(a) for a in parts if 1 <= a <= n}, reverse=True)

    def count(remaining, max_index):
        if remaining == 0:
            return 1
        total = 0
        for i in range(max_index, len(usable)):
            a = usable[i]
            if a <= remaining:
                total += count(remaining - a, i)
        return total

    return count(n, 0)


def pentagonal_table(limit) -> PartitionTable:
    """Unrestricted partition counts: the Euler quotient 1 / E(x).

    p(n) = sum_{k>=1} (-1)^(k+1) [ p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ],
    the sum running while the offsets stay nonnegative, O(limit^1.5).
    Completely independent of the coin DP, so the two tables cross-check
    each other.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    values = _euler_quotient([1] + [0] * limit, limit)
    return PartitionTable(spec=AllParts(), limit=limit, values=tuple(values))


# ---------------------------------------------------------------------------
# Counts on a grid: one table, or one series sum per point
# ---------------------------------------------------------------------------

def grid_counts(spec, grid) -> tuple[int, ...]:
    """Exact p_A(n) at every point of grid, a strictly increasing
    sequence of ints >= 1, by the route _grid_costs prices lowest."""
    grid = tuple(grid)
    _validate_increasing(grid, "grid")
    costs = _grid_costs(spec, grid)
    return _route_counts(min(costs, key=costs.get), spec, grid)


def _grid_costs(spec, grid) -> dict:
    """Picoseconds of every route to p_A on grid: one table to grid[-1]
    (_table_costs), the split (_split_steps) and, for all parts, one
    series sum per point: its N(n) = _term_count(n) Selberg sums scan
    about N(n)^2 indices.  A lone n >= 210 takes the series."""
    top = grid[-1]
    parts = counting_function(spec, top)
    costs = _table_costs(spec, top, parts)
    costs["split"] = sum(STEP_PS[step] * count for step, count
                         in _split_steps(spec, grid, parts).items())
    if isinstance(spec, AllParts):
        costs["series"] = STEP_PS["series"] * sum(
            _term_count(n) ** 2 for n in grid if n >= 2)
    return costs


def _split_steps(spec, grid, parts) -> dict:
    """Steps of _split_counts on grid, by kind, from A at M = grid[-1] // 3,
    at 2 grid[-1] // 3 and at grid[-1] (parts): the coin DP over the parts
    <= M to grid[-1] (_coin_steps); one pair step per part above M and
    per pair of them, both in (M, 2 grid[-1] // 3] as b <= grid[-1] - a
    < grid[-1] - M, so at most K (K + 1) / 2 pairs for the K parts there;
    and at each point n one dot step per nonzero q(j), j in {0} + (M, n].
    """
    top = grid[-1]
    cut = top // 3
    small = counting_function(spec, cut)
    k = counting_function(spec, 2 * top // 3) - small
    return {"table": _coin_steps(spec, cut, top, small),
            "pair": parts - small + k * (k + 1) // 2,
            "dot": sum(1 + max(0, n - cut) for n in grid)}


def _split_counts(spec, grid) -> tuple[int, ...]:
    """p_A at every point of grid as sum_j T[n - j] q(j), M = grid[-1] // 3
    (see the module docstring): T is the coin DP over the parts <= M to
    grid[-1], q(j) the number of multisets of at most two parts of A in
    (M, grid[-1]] that sum to j."""
    top = grid[-1]
    cut = top // 3
    # only the values are read: they count the partitions into parts <= cut
    small = table_from_parts(enumerate_parts(spec, cut) if cut else [], top,
                             spec=spec).values
    big = sorted(iter_parts(spec, top, cut + 1))
    ways = [0] * (top + 1)
    ways[0] = 1
    for a in big:
        ways[a] += 1
    for i, a in enumerate(big):
        end = bisect_right(big, top - a)
        if end <= i:
            break
        for b in big[i:end]:
            ways[a + b] += 1
    sums = [j for j, w in enumerate(ways) if w]
    return tuple(sum([small[n - j] * ways[j]
                      for j in sums[:bisect_right(sums, n)]])
                 for n in grid)


#: Rademacher's bound on the tail of the series after N terms, n >= 2
#: (Proc. LMS 43, 1937; as stated by Johansson, LMS J. Comput. Math. 15,
#: 2012): A / sqrt(N) + B * sqrt(N / (n - 1)) * sinh(pi/N * sqrt(2n/3)).
_TAIL_A = 44 * math.pi ** 2 / (225 * math.sqrt(3))
_TAIL_B = math.pi * math.sqrt(2) / 75
#: The series stops at the least N whose tail bound is at most this.
_TAIL_TARGET = 0.25
#: Every float bound is scaled by this: it lies a few dozen float
#: operations from the value it bounds, far less than 2**-20 of it.
_SAFETY = 1 + 2.0 ** -20
#: Decimal digits a term carries below its own magnitude and its error
#: count E (see _hrr_sum).
_GUARD_DIGITS = 15


def _tail_bound(n, terms) -> float:
    """Rademacher's bound on |p(n) - the sum of the first terms terms|,
    for n >= 2; inf when sinh overflows a float."""
    y = math.pi / terms * math.sqrt(2 * n / 3)
    if y > 700:
        return math.inf
    return _SAFETY * (_TAIL_A / math.sqrt(terms)
                      + _TAIL_B * math.sqrt(terms / (n - 1)) * math.sinh(y))


def _term_count(n) -> int:
    """The least N with _tail_bound(n, N) <= _TAIL_TARGET, for n >= 2.
    Both parts of the bound fall as N grows."""
    hi = 1
    while _tail_bound(n, hi) > _TAIL_TARGET:
        hi *= 2
    return bisect_left(range(hi + 1), True, lo=1,
                       key=lambda N: _tail_bound(n, N) <= _TAIL_TARGET)


def _hrr_count(n) -> Optional[int]:
    """p(n) from the Hardy-Ramanujan-Rademacher series, or None when the
    sum does not settle it: n < 2 or C < N(n), where the tail or the
    rounding bound does not hold (see _hrr_sum), or Ziv's test fails."""
    if n < 2:
        return None
    terms, total, rounding = _hrr_sum(n)
    total = Fraction(total)
    near = round(total)
    if abs(float(total - near)) + _tail_bound(n, terms) + rounding < 0.5:
        return near
    return None


def _hrr_sum(n):
    """(N, total, rounding) for n >= 2: the sum of the first
    N = _term_count(n) terms of the series for p(n), as an exact
    Decimal, and a bound on its distance from their exact sum, inf when
    the bound does not hold.

    Term k is f * S * U with f = 4/(24n - 1), S = S_k(n) over m indices
    and U = U(x), x = C/k.  As |S| <= m and 0 <= U <= cosh x, its
    magnitude is at most b = f * m * cosh x.  Every operation is a
    correctly rounded decimal one, within a relative unit eps = 1/2 ulp.
    Then pi lies within 2 eps, x within 6 eps, e^x, 1/e^x and cosh x
    within (6x + 3) eps, and, for x >= 1, sinh(x)/x within 27 eps of
    cosh x; so U lies within (6.1x + 32) eps of cosh x.  Every x is at
    least C/N, so the sum is refused when C < N, which is n < 111.  Each
    cosine is a Taylor series of J terms at an argument reduced to
    [0, pi/4], within (2J + 12) eps; m of them make S within
    m(2J + 12 + m) eps.  So the term lies within b * eps * E of its
    value, E = 7x + 2J + m + 50, while E * eps <= 0.01 keeps the error
    first order.  Each term takes enough digits for b * eps * E to be
    near 10**-_GUARD_DIGITS, and the terms add exactly.
    """
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            Emin=decimal.MIN_EMIN)
    terms = _term_count(n)
    f = 4 / (24 * n - 1)
    c = math.pi / 6 * math.sqrt(24 * n - 1)
    total = decimal.Decimal(0)
    if c < terms:
        return terms, total, math.inf
    rounding, pi, pi_digits = 0.0, None, 0
    # S_k(n) sums over the l in [0, 2k) with l(3l + 1)/2 + n = 0 (mod k)
    shifted = [l * (3 * l + 1) // 2 + n for l in range(2 * terms)]
    for k in range(1, terms + 1):
        indices = [l for l in range(2 * k) if not shifted[l] % k]
        m, x = len(indices), c / k
        if not m:
            continue
        log_b = math.log10(f * m) + x / math.log(10)   # cosh x <= e^x
        count = 7 * x + m + 50
        prec = max(2, int(log_b) + 2 + _GUARD_DIGITS + int(math.log10(count)))
        if prec >= pi_digits:
            pi_digits = prec + 5
            pi = _pi_decimal(pi_digits, exact)
        ctx = decimal.Context(prec=prec, Emax=decimal.MAX_EMAX,
                              Emin=decimal.MIN_EMIN)
        term, taylor = _decimal_term(n, k, indices, pi, ctx)
        total = exact.add(total, term)
        count += 2 * taylor
        eps = 0.5 * 10.0 ** (1 - prec)
        if count * eps > 0.01:
            return terms, total, math.inf
        rounding += 0.5 * count * 10.0 ** (log_b + 1 - prec)
    return terms, total, _SAFETY * rounding


def _pi_decimal(digits, exact):
    """pi as a Decimal within 10**-digits, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in integers scaled by
    10**(digits + 10): each series term is floored twice, so each
    atan is within 2 units per term, far below 10**10 units."""
    scale = 10 ** (digits + 10)

    def atan_inv(x):
        term = total = scale // x
        j, sign = 1, -1
        while term:
            term //= x * x
            total += sign * (term // (2 * j + 1))
            j, sign = j + 1, -sign
        return total

    return exact.create_decimal(16 * atan_inv(5) - 4 * atan_inv(239)).scaleb(
        -(digits + 10), context=exact)


def _decimal_term(n, k, indices, pi, ctx):
    """(term k of the series for p(n), the most Taylor terms a cosine
    took), every operation rounded in the decimal context ctx."""
    pi = ctx.plus(pi)
    x = ctx.divide(ctx.multiply(pi, ctx.sqrt(24 * n - 1)), 6 * k)
    e = ctx.exp(x)
    inv = ctx.divide(1, e)
    u = ctx.subtract(ctx.divide(ctx.add(e, inv), 2),
                     ctx.divide(ctx.subtract(e, inv), ctx.multiply(2, x)))
    s, taylor = ctx.create_decimal(0), 0
    for l in indices:
        cos, steps = _cos_pi(6 * l + 1, 6 * k, pi, ctx)
        s = ctx.add(s, cos if l % 2 == 0 else cos.copy_negate())
        taylor = max(taylor, steps)
    return ctx.divide(ctx.multiply(ctx.multiply(4, s), u), 24 * n - 1), taylor


def _cos_pi(a, d, pi, ctx):
    """(cos(pi q), the Taylor terms taken) for q = a/d, ints a and d >= 1:
    q is reduced exactly to [0, 1/4] in ints, then one Taylor series of
    cos or sin runs until its terms fall below 10**-(prec + 1)."""
    a %= 2 * d
    a = min(a, 2 * d - a)               # cos(pi q) = cos(pi (2 - q))
    negate = 2 * a > d
    if negate:
        a = d - a                       # cos(pi q) = -cos(pi (1 - q))
    odd = 4 * a > d
    if odd:
        a, d = d - 2 * a, 2 * d         # cos(pi q) = sin(pi (1/2 - q))
    y = ctx.divide(ctx.multiply(pi, a), d)
    minus_y2 = ctx.multiply(y, y).copy_negate()
    term = y if odd else ctx.create_decimal(1)
    total, j, steps = term, int(odd), 0
    tiny = ctx.create_decimal(1).scaleb(-ctx.prec - 1, context=ctx)
    while term.copy_abs() > tiny:
        term = ctx.divide(ctx.multiply(term, minus_y2), (j + 1) * (j + 2))
        total = ctx.add(total, term)
        j, steps = j + 2, steps + 1
    return (total.copy_negate() if negate else total), steps


def scaled_count(table, d, n) -> int:
    """Count for a set with gcd d, read off the normalized table.

    `table` must be the table of the divided-through set; the original set
    only partitions multiples of d, so the count is table[n // d] when
    d | n and 0 otherwise.
    """
    if d < 1:
        raise ValueError(f"divisor must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n % d:
        return 0
    return table[n // d]


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

class CheckReport(_Record):
    """Result of one exhaustive inequality check over a finite range."""

    __slots__ = __match_args__ = ("ok", "checked", "first_violation", "note")

    def __init__(self, ok: bool, checked: int,
                 first_violation: Optional[tuple] = None, note: str = ""):
        super().__init__(ok, checked, first_violation, note)

    def __bool__(self):
        return self.ok


def check_shift_monotonicity(table, shift) -> CheckReport:
    """Verify p_A(n + shift) >= p_A(n) for all representable n.

    Sound whenever the shift itself is partitionable (p_A(shift) >= 1):
    appending a partition of the shift to any partition of n injects
    partitions of n into partitions of n + shift.
    """
    if not 0 <= shift <= table.limit:
        raise ValueError(f"shift {shift} outside table range [0, {table.limit}]")
    if table[shift] < 1:
        raise ValueError(
            f"shift {shift} has no partition in this set; inequality unsupported")
    checked = 0
    for n in range(0, table.limit - shift + 1):
        checked += 1
        if table[n + shift] < table[n]:
            return CheckReport(False, checked, (n, table[n], table[n + shift]),
                               note=f"shift={shift}")
    return CheckReport(True, checked, note=f"shift={shift}")


def _check_window_args(table, least_part, x):
    if not 0 <= x <= table.limit:
        raise ValueError(f"x={x} outside table range [0, {table.limit}]")
    if least_part < 1:
        raise ValueError(f"least part must be >= 1, got {least_part}")


def _running_maximizers(table, x):
    """For y = 0, 1, ..., x, lazily, the largest u <= y with p_A(u)
    maximal over [0, y]: ties go to the larger index."""
    values = table.values
    return accumulate(range(x + 1),
                      lambda u, y: y if values[y] >= values[u] else u)


def window_max_location(table, least_part, x) -> int:
    """The largest u in [0, x] with p_A(u) maximal; always lands in
    (x - least_part, x] because adding one copy of the least part maps
    partitions of u to partitions of u + least_part.
    """
    _check_window_args(table, least_part, x)
    return deque(_running_maximizers(table, x), maxlen=1).pop()


def check_window_max(table, least_part, x) -> CheckReport:
    """Verify, for every y in [0, x], that the maximizer over [0, y] lies
    within least_part of y.

    One O(x) pass: the running maximizer (ties go to the larger index) is
    window_max_location(table, least_part, y) for each y in turn.  The
    violation is (y, maximizer) at the first failing prefix.
    """
    _check_window_args(table, least_part, x)
    note = f"least_part={least_part}"
    for y, best_u in enumerate(_running_maximizers(table, x)):
        if best_u <= y - least_part:
            return CheckReport(False, y + 1, (y, best_u), note=note)
    return CheckReport(True, x + 1, note=note)


def check_cofinite_monotonicity(table) -> CheckReport:
    """For the table of a tail set {n >= start}: counts are nondecreasing
    from n=1 on, and strictly increasing once n >= 3*start + 2.

    The strict phase needs headroom beyond its threshold, hence the guard
    table.limit >= 3*start + 3.
    """
    if not isinstance(table.spec, CofiniteTail):
        raise ValueError(f"need the table of a cofinite tail, got {table.spec}")
    start, limit = table.spec.start, table.limit
    if limit < 3 * start + 3:
        raise ValueError(
            f"limit {limit} too small; need >= {3 * start + 3} "
            f"to exercise the strict phase")
    checked = 0
    strict_from = 3 * start + 2
    for n in range(1, limit):
        checked += 1
        if table[n + 1] < table[n]:
            return CheckReport(False, checked, (n, table[n], table[n + 1]),
                               note="nondecreasing phase failed")
        if n >= strict_from and table[n + 1] <= table[n]:
            return CheckReport(False, checked, (n, table[n], table[n + 1]),
                               note="strict phase failed")
    return CheckReport(True, checked,
                       note=f"start={start}, strict from n>={strict_from}")
