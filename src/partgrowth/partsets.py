"""Symbolic part sets: membership, counting functions, and density data.

A part set is a set of positive integers given symbolically instead of by
a materialized list: all positive integers, an explicit finite list
(written out or loaded from a file), a union of residue classes mod m, a
cofinite tail {n : n >= start}, or the primes.  Everything downstream
(partition tables, coefficient series, probes) consumes these
descriptions through three primitives:

  * enumerate_parts(spec, bound)  -- the members in [1, bound], ascending
    (iter_parts(spec, bound, start) gives the members in [start, bound]
    lazily, in no overall order)
  * counting_function(spec, x)    -- how many members lie in [1, x]
    (block_counts(spec, n) gives it at every v = n // k in one call)
  * gcd_of_set / normalize_by_gcd -- common-divisor bookkeeping, since a
    set with gcd d > 1 only partitions multiples of d and is handled by
    dividing everything through by d

Part lists, residues, spec fields and every integer grid obey one rule,
_validate_increasing: nonempty, strictly increasing ints >= 1.  Density
diagnostics keep A(x)/x on such a grid as exact rationals, with suffix
min/max summaries; no limit is ever computed.

All spec types are immutable; operations are pure functions.  The one
cache is the prime sieve: a bytearray of prime flags plus the prime
count of each fixed block of flags, grown by doubling and swapped in as
one pair, so it is safe to share.  Nothing lists the primes unless
asked to: inside the flags, prime_count adds the block counts to at
most one block of flags counted in C, and iter_parts streams the primes
off the flags.  Past them, prime_count and block_counts run Lucy's
sieve, O(x^(3/4)) time and O(sqrt(x)) memory, and leave the cache as it
is; so the same count can take a table read inside the cache and x^(3/4)
steps past it.  density_profile prices both by _costs.STEP_PS first.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import floordiv, sub
from typing import NamedTuple, Union

from ._costs import STEP_PS
from ._record import _Record


class PartFileError(ValueError):
    """A part-set file could not be parsed; the message names the line."""


class UnsupportedNormalizationError(ValueError):
    """normalize_by_gcd was asked for a variant/divisor pair it cannot express."""


# ---------------------------------------------------------------------------
# Spec variants
# ---------------------------------------------------------------------------

class AllParts(_Record):
    """Every positive integer."""

    __slots__ = ()

    def __str__(self):
        return "all"


class FiniteParts(_Record):
    """An explicit finite list, strictly increasing, all parts >= 1.

    A list read from a file keeps the path as source and prints as file:SOURCE.
    """

    __slots__ = __match_args__ = ("parts", "source")

    def __init__(self, parts: tuple[int, ...], source: str = ""):
        parts = tuple(parts)
        _validate_increasing(parts, "finite parts")
        super().__init__(parts, source)

    def __str__(self):
        if self.source:
            return f"file:{self.source}"
        return "finite:" + ",".join(str(a) for a in self.parts)


class ResidueParts(_Record):
    """All positive integers congruent to one of `residues` mod `modulus`.

    Residues live in [1, modulus]; the residue equal to the modulus stands
    for the 0 class (m, 2m, 3m, ...), keeping every member >= 1.
    """

    __slots__ = __match_args__ = ("modulus", "residues")

    def __init__(self, modulus: int, residues: tuple[int, ...]):
        residues = tuple(residues)
        _validate_increasing((modulus,), "modulus")
        _validate_increasing(residues, "residues")
        for r in residues:
            if r > modulus:
                raise ValueError(f"residue {r} exceeds modulus {modulus}")
        super().__init__(modulus, residues)

    def __str__(self):
        rs = ",".join(str(r) for r in self.residues)
        return f"mod:{self.modulus}:{rs}"


class CofiniteTail(_Record):
    """All integers >= start (a cofinite set when start > 1)."""

    __slots__ = __match_args__ = ("start",)

    def __init__(self, start: int):
        _validate_increasing((start,), "cofinite start")
        super().__init__(start)

    def __str__(self):
        return f"cofinite:{self.start}"


class PrimeParts(_Record):
    """The prime numbers."""

    __slots__ = ()

    def __str__(self):
        return "primes"


PartSetSpec = Union[AllParts, FiniteParts, ResidueParts, CofiniteTail, PrimeParts]


def _validate_increasing(values, what):
    """The one rule for part lists, residues, spec fields and n-grids:
    a nonempty, strictly increasing sequence of ints >= 1.  A float,
    Fraction or str is refused, where int() would truncate it silently."""
    if not values:
        raise ValueError(f"{what} must be nonempty")
    for v in values:
        if not isinstance(v, int):
            raise ValueError(f"{what} takes ints: expected an int, got {v!r}")
    if values[0] < 1:
        raise ValueError(f"{what} must be >= 1, got {values[0]}")
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise ValueError(f"{what} must be strictly increasing, got {a} before {b}")


def load_part_file(path) -> FiniteParts:
    """Parse a part-set file: one decimal integer per line, blank lines ignored.

    Duplicates and non-positive entries are rejected with the offending
    line number in the message.
    """
    seen = {}
    try:
        with open(path, "r", encoding="ascii") as fp:
            lines = fp.readlines()
    except OSError as exc:
        raise PartFileError(f"{path}: cannot read part file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            value = int(text, 10)
        except ValueError:
            raise PartFileError(
                f"{path}:{lineno}: not a decimal integer: {text!r}") from None
        if value < 1:
            raise PartFileError(f"{path}:{lineno}: part must be >= 1, got {value}")
        if value in seen:
            raise PartFileError(
                f"{path}:{lineno}: duplicate part {value} (first at line {seen[value]})")
        seen[value] = lineno
    if not seen:
        raise PartFileError(f"{path}: no parts found")
    return FiniteParts(tuple(sorted(seen)), source=str(path))


# ---------------------------------------------------------------------------
# Prime sieve with a grow-only cache
# ---------------------------------------------------------------------------

#: Flags per block of the prime-count table: prime_count reads fewer.
_BLOCK = 1 << 12

#: (flags, blocks): flags[n] == 1 exactly when n is prime, for n < len(flags),
#: and blocks[j] is the number of primes below j * _BLOCK.
_prime_sieve = (bytearray(), [0])


def _ensure_sieved(bound):
    """Sieve to at least bound; a growing bound doubles the limit, so a
    rising run of queries re-sieves O(log) times.

    The evens start zeroed and each odd prime p strikes its odd multiples
    from p*p on with stride 2p.
    """
    global _prime_sieve
    if bound < len(_prime_sieve[0]):
        return
    limit = max(bound, 2 * len(_prime_sieve[0]) - 2, 1 << 10)
    flags = bytearray(b"\0\1") * (limit // 2 + 1)
    del flags[limit + 1:]
    flags[1], flags[2] = 0, 1
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p::2 * p] = bytes(len(range(p * p, limit + 1, 2 * p)))
    blocks = list(accumulate(
        (flags.count(1, end - _BLOCK, end)
         for end in range(_BLOCK, limit + _BLOCK + 1, _BLOCK)), initial=0))
    # swap in one assignment so concurrent readers always see a full table
    _prime_sieve = flags, blocks


def primes_upto(bound) -> list[int]:
    """All primes <= bound, ascending."""
    if bound < 2:
        return []
    return list(iter_parts(PrimeParts(), bound))


def prime_count(x) -> int:
    """Number of primes <= x.  Inside the cached sieve: whole blocks from
    the table, then at most _BLOCK flags counted in C.  Past it: the top
    value of _lucy(x), O(x^(3/4)) time and O(sqrt(x)) memory, leaving the
    cache as it is."""
    if x < 2:
        return 0
    flags, blocks = _prime_sieve
    if x >= len(flags):
        return _lucy(x)[1][1]
    j = x // _BLOCK
    return blocks[j] + flags.count(1, j * _BLOCK, x + 1)


def _lucy(n):
    """pi(v) at every v = n // k, as block_counts lays them out, by Lucy's
    sieve (the Legendre core of Lagarias, Miller & Odlyzko, Math. Comp. 44,
    1985).  No flag is read or written.

    S(v) starts as the count of m in [2, v].  Each prime p <= r = isqrt(n)
    strikes the m whose least prime factor is p: S(v) -= S(v // p) -
    S(p - 1) for every v >= p * p in the set.  p is prime exactly when the
    smaller primes left S(p) > S(p - 1).  Each update is one C-level map
    over a slice, whose right side is built from the old values before
    the slice is written; the total is O(n^(3/4) / log n) steps.
    """
    r = math.isqrt(n)
    small = [0] + list(range(r))
    quot = [0] + [n // k for k in range(1, r + 1)]
    large = [0] + [v - 1 for v in quot[1:]]
    for p in range(2, r + 1):
        sp = small[p - 1]
        if small[p] == sp:
            continue
        top = min(r, n // (p * p))      # large[k] for k <= top: v >= p * p
        mid = min(top, r // p)          # k * p <= r: S(v // p) is large[k p]
        large[1:mid + 1] = map(sub, large[1:mid + 1],
                               map(sub, large[p:mid * p + 1:p], repeat(sp)))
        lows = map(small.__getitem__,
                   map(floordiv, quot[mid + 1:top + 1], repeat(p)))
        large[mid + 1:top + 1] = map(sub, large[mid + 1:top + 1],
                                     map(sub, lows, repeat(sp)))
        # S(v // p) - S(p - 1) for v = p*p..r: each of S(p..r // p) p times
        runs = map(repeat, map(sub, small[p:r // p + 1], repeat(sp)), repeat(p))
        small[p * p:] = map(sub, small[p * p:], chain.from_iterable(runs))
    return small, large


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def iter_parts(spec, bound, start=1):
    """Members of the set in [start, bound], without listing them where
    possible.

    All parts, cofinite tails and each residue class come as lazy ranges;
    a residue set yields its classes one after another, so the members
    are ascending within a class but not overall.  Finite sets give a
    slice of their parts, primes a stream off the sieve's flags.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    if isinstance(spec, AllParts):
        return range(start, bound + 1)
    if isinstance(spec, FiniteParts):
        parts = spec.parts
        return parts[bisect_left(parts, start):bisect_right(parts, bound)]
    if isinstance(spec, ResidueParts):
        m = spec.modulus
        # start + (r - start) % m is the first member of class r >= start
        return chain.from_iterable(
            range(start + (r - start) % m, bound + 1, m)
            for r in spec.residues)
    if isinstance(spec, CofiniteTail):
        return range(max(start, spec.start), bound + 1)
    if isinstance(spec, PrimeParts):
        # ascending; only the odd flags are read, which halves the scan
        _ensure_sieved(bound)
        odd = start | 1
        odds = compress(range(odd, bound + 1, 2),
                        memoryview(_prime_sieve[0])[odd:bound + 1:2])
        return chain((2,), odds) if start <= 2 <= bound else odds
    raise TypeError(f"not a part-set spec: {spec!r}")


def enumerate_parts(spec, bound) -> list[int]:
    """Members of the set in [1, bound], strictly increasing."""
    return sorted(iter_parts(spec, bound))


def counting_function(spec, x) -> int:
    """Number of members in [1, x]; 0 when x == 0."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0
    if isinstance(spec, AllParts):
        return x
    if isinstance(spec, FiniteParts):
        return bisect_right(spec.parts, x)
    if isinstance(spec, ResidueParts):
        m = spec.modulus
        return sum((x - r) // m + 1 for r in spec.residues if r <= x)
    if isinstance(spec, CofiniteTail):
        return max(0, x - spec.start + 1)
    if isinstance(spec, PrimeParts):
        return prime_count(x)
    raise TypeError(f"not a part-set spec: {spec!r}")


def block_counts(spec, n):
    """A(v) at every v = n // k, 1 <= k <= n, in Lucy's layout.

    Returns (small, large) with r = isqrt(n): small[v] = A(v) for
    0 <= v <= r, and large[k] = A(n // k) for 1 <= k <= r (large[0] = 0).
    Each v = n // k is in one of the two: either v <= r, or k' = n // v
    <= r and v = n // k'.  The primes past the cached sieve take one run
    of _lucy(n) for all 2 * r values, and touch no flag; every other set,
    and the primes inside the cache, take counting_function at each value.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(spec, PrimeParts) and n >= len(_prime_sieve[0]):
        return _lucy(n)
    r = math.isqrt(n)
    return ([counting_function(spec, v) for v in range(r + 1)],
            [0] + [counting_function(spec, n // k) for k in range(1, r + 1)])


class GcdResult(NamedTuple):
    value: int
    stable: bool


def analytic_gcd(spec):
    """gcd of the full (possibly infinite) set, from its symbolic form."""
    if isinstance(spec, (AllParts, PrimeParts)):
        return 1
    if isinstance(spec, CofiniteTail):
        # start and start+1 are both members, so the gcd is always 1
        return 1
    if isinstance(spec, ResidueParts):
        return math.gcd(*spec.residues, spec.modulus)
    return math.gcd(*spec.parts)


def gcd_of_set(spec, probe_bound) -> GcdResult:
    """gcd of the members in [1, probe_bound], plus a stabilization flag.

    The flag is True when the prefix gcd provably equals the gcd of the
    whole set: either the prefix gcd is already 1 (1 is absorbing), or it
    matches the gcd computed from the symbolic description.
    """
    members = enumerate_parts(spec, probe_bound)
    if not members:
        raise ValueError(
            f"no members of {spec} in [1, {probe_bound}]; gcd undefined")
    g = 0
    for a in members:
        g = math.gcd(g, a)
        if g == 1:
            break
    return GcdResult(g, g == analytic_gcd(spec))


def normalize_by_gcd(spec, d) -> PartSetSpec:
    """Description of the set {a // d : a in A}; d must divide every member.

    d == 1 returns the input unchanged.  Finite sets divide element-wise
    (a file's set loses its source); residue classes divide to
    ResidueParts(m/d, r/d).  Other
    variants cannot express the scaled set for d > 1 and are rejected.
    """
    if d < 1:
        raise ValueError(f"divisor must be >= 1, got {d}")
    if d == 1:
        return spec
    if isinstance(spec, FiniteParts):
        for a in spec.parts:
            if a % d:
                raise ValueError(f"{d} does not divide part {a}")
        return FiniteParts(tuple(a // d for a in spec.parts))
    if isinstance(spec, ResidueParts):
        if spec.modulus % d:
            raise ValueError(f"{d} does not divide modulus {spec.modulus}")
        for r in spec.residues:
            if r % d:
                raise ValueError(f"{d} does not divide residue {r}")
        return ResidueParts(spec.modulus // d,
                            tuple(r // d for r in spec.residues))
    raise UnsupportedNormalizationError(
        f"cannot divide {spec} through by {d}")


# ---------------------------------------------------------------------------
# Density profile
# ---------------------------------------------------------------------------

class DensityProfile(_Record):
    """Exact counting ratios A(x)/x on a grid, with suffix min/max summaries.

    tail_min[i] / tail_max[i] are the min and max of ratios[i:], i.e. the
    extremes over the remaining tail of the grid; at finite scale these
    stand in for the lower and upper density of the set.
    """

    __slots__ = __match_args__ = ("spec", "grid", "ratios", "tail_min",
                                  "tail_max")


def _prime_costs(grid) -> dict:
    """Picoseconds of pi on grid: a sieve to grid[-1], or x^(3/4) per x."""
    return {"sieve": STEP_PS["sieve"] * grid[-1],
            "lucy": STEP_PS["lucy"] * sum(math.isqrt(x * math.isqrt(x))
                                          for x in grid)}


def density_profile(spec, grid) -> DensityProfile:
    """Sample A(x)/x exactly on a strictly increasing grid of integers.

    The primes take the cheaper route of _prime_costs: one sieve to the
    grid's end, or prime_count's Lucy at each point past the cache.
    """
    grid = tuple(grid)
    _validate_increasing(grid, "density grid")
    if isinstance(spec, PrimeParts):
        costs = _prime_costs(grid)
        if min(costs, key=costs.get) == "sieve":
            _ensure_sieved(grid[-1])
    # largest point first, so the suffix extremes are running ones
    backward = [Fraction(counting_function(spec, x), x) for x in reversed(grid)]
    tail_min, tail_max = (tuple(accumulate(backward, pick))[::-1]
                          for pick in (min, max))
    return DensityProfile(spec, grid, tuple(reversed(backward)), tail_min,
                          tail_max)
