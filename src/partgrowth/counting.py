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

The route with the smaller estimated cost wins, the coin DP on a tie
(see partition_table): all parts, the odd parts and other dense residue
sets, and cofinite tails with a short gap take the quotient; the primes,
sparse finite and file sets, and long-gap tails such as cofinite:1500 at
limit 2000 take the coin DP.  Parts larger than the table
limit can never occur in a partition of n <= limit, so truncating the
part set at the limit is lossless and the table is exact (Python integers
keep it exact at any size).  pentagonal_table is the quotient with
numerator 1; table_from_parts on the parts 1..limit is the coin-DP
reference it is checked against, and count_partitions_bruteforce a third
route by direct enumeration for tiny n.

The check_* functions verify inequalities the count sequence must satisfy
(translation monotonicity, eventual strict growth for cofinite sets).
window_max_location finds where on [0, x] the count is maximized, which
for a set with least part a1 always happens within a1 of the right edge;
check_window_max checks every prefix [0, y] on the same running maximizer.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .partsets import (AllParts, CofiniteTail, FiniteParts, PartSetSpec,
                       ResidueParts, enumerate_parts, iter_parts)

# Direct enumeration is exponential; keep it to oracle-sized inputs.
BRUTEFORCE_LIMIT = 40


@dataclass(frozen=True)
class PartitionTable:
    """Counts p_A(0), ..., p_A(limit) for one part set, exact integers."""

    spec: PartSetSpec
    limit: int
    values: tuple[int, ...]

    def __getitem__(self, n) -> int:
        if not 0 <= n <= self.limit:
            raise IndexError(f"n={n} outside table range [0, {self.limit}]")
        return self.values[n]

    def __len__(self):
        return self.limit + 1


def table_from_parts(parts, limit, spec=None) -> PartitionTable:
    """DP table from an explicit part list (order of parts is irrelevant)."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    values = [0] * (limit + 1)
    values[0] = 1
    for a in parts:
        if a < 1:
            raise ValueError(f"parts must be >= 1, got {a}")
        if a > limit:
            continue
        for n in range(a, limit + 1):
            values[n] += values[n - a]
    if spec is None:
        spec = FiniteParts(tuple(sorted(parts)))
    return PartitionTable(spec=spec, limit=limit, values=tuple(values))


def partition_table(spec, limit) -> PartitionTable:
    """Exact p_A(n) for 0 <= n <= limit.

    Takes the Euler quotient N_A(x) / E(x) when its estimated cost,
    limit * (pentagonal offsets <= limit + passes to build N_A), is below
    the coin DP's, sum over parts a <= limit of (limit - a + 1); otherwise
    the coin DP.  See _route for the numerator.
    """
    numerator = _route(spec, limit)
    if numerator is None:
        parts = enumerate_parts(spec, limit) if limit >= 1 else []
        return table_from_parts(parts, limit, spec=spec)
    return PartitionTable(spec=spec, limit=limit,
                          values=tuple(_euler_quotient(numerator, limit)))


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


def _route(spec, limit) -> Optional[list[int]]:
    """The numerator N_A(0..limit) for the Euler quotient, or None when
    the coin DP is estimated to cost no more.

    N_A starts as E(x^d) for the step d of _euler_step (1 when there is
    none) and takes one pass of (1 - x^a) for every other excluded a.
    """
    if limit < 1:
        return None
    member = bytearray(limit + 1)
    coin_cost = 0
    for a in iter_parts(spec, limit):
        member[a] = 1
        coin_cost += limit - a + 1
    d = _euler_step(spec, limit)
    excluded = [a for a in range(1, limit + 1)
                if not member[a] and (d == 0 or a % d)]
    plus, minus = _pentagonal_offsets(limit)
    if limit * (len(plus) + len(minus) + len(excluded)) >= coin_cost:
        return None
    numerator = [0] * (limit + 1)
    numerator[0] = 1
    if d:
        # E(x^d): -1 where the recurrence adds, +1 where it subtracts
        for offsets, sign in ((plus, -1), (minus, 1)):
            for g in offsets[:bisect_right(offsets, limit // d)]:
                numerator[d * g] = sign
    for a in excluded:
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

@dataclass(frozen=True)
class CheckReport:
    """Result of one exhaustive inequality check over a finite range."""

    ok: bool
    checked: int
    first_violation: Optional[tuple] = None
    note: str = ""

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
