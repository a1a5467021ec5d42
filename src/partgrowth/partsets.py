"""Symbolic part sets: membership, counting functions, and density data.

A part set is a set of positive integers given symbolically instead of by
a materialized list: all positive integers, an explicit finite list
(written out or loaded from a file), a union of residue classes mod m, a
cofinite tail {n : n >= start}, or the primes.  Everything downstream
(partition tables, coefficient series, probes) consumes these
descriptions through three primitives:

  * enumerate_parts(spec, bound)  -- the members in [1, bound], ascending
    (iter_parts gives the same members lazily, in no overall order)
  * counting_function(spec, x)    -- how many members lie in [1, x]
  * gcd_of_set / normalize_by_gcd -- common-divisor bookkeeping, since a
    set with gcd d > 1 only partitions multiples of d and is handled by
    dividing everything through by d

Density diagnostics sample the counting function on a user grid and keep
the ratios as exact rationals; no limits are ever computed, only finite
prefix data with suffix min/max summaries.

All spec types are immutable; operations are pure functions (the prime
sieve cache grows monotonically behind the scenes and is safe to share).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import NamedTuple, Union


class PartFileError(ValueError):
    """A part-set file could not be parsed; the message names the line."""


class UnsupportedNormalizationError(ValueError):
    """normalize_by_gcd was asked for a variant/divisor pair it cannot express."""


# ---------------------------------------------------------------------------
# Spec variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllParts:
    """Every positive integer."""

    def __str__(self):
        return "all"


@dataclass(frozen=True)
class FiniteParts:
    """An explicit finite list, strictly increasing, all parts >= 1.

    A list read from a file keeps the path as source and prints as file:SOURCE.
    """

    parts: tuple[int, ...]
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(a) for a in self.parts))
        _validate_increasing(self.parts, "finite part list")

    def __str__(self):
        if self.source:
            return f"file:{self.source}"
        return "finite:" + ",".join(str(a) for a in self.parts)


@dataclass(frozen=True)
class ResidueParts:
    """All positive integers congruent to one of `residues` mod `modulus`.

    Residues live in [1, modulus]; the residue equal to the modulus stands
    for the 0 class (m, 2m, 3m, ...), keeping every member >= 1.
    """

    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "residues", tuple(int(r) for r in self.residues))
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        _validate_increasing(self.residues, "residue list")
        for r in self.residues:
            if r > self.modulus:
                raise ValueError(f"residue {r} exceeds modulus {self.modulus}")

    def __str__(self):
        rs = ",".join(str(r) for r in self.residues)
        return f"mod:{self.modulus}:{rs}"


@dataclass(frozen=True)
class CofiniteTail:
    """All integers >= start (a cofinite set when start > 1)."""

    start: int

    def __post_init__(self):
        if self.start < 1:
            raise ValueError(f"cofinite start must be >= 1, got {self.start}")

    def __str__(self):
        return f"cofinite:{self.start}"


@dataclass(frozen=True)
class PrimeParts:
    """The prime numbers."""

    def __str__(self):
        return "primes"


PartSetSpec = Union[AllParts, FiniteParts, ResidueParts, CofiniteTail, PrimeParts]


def _validate_increasing(values, what):
    if not values:
        raise ValueError(f"{what} must be nonempty")
    if values[0] < 1:
        raise ValueError(f"{what} entries must be >= 1, got {values[0]}")
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

_prime_cache: list[int] = []
_prime_limit = 0


def _ensure_sieved(bound):
    """Sieve to at least bound; a growing bound doubles the limit, so a
    rising run of queries re-sieves O(log) times.
    """
    global _prime_cache, _prime_limit
    if bound <= _prime_limit:
        return
    limit = max(bound, 2 * _prime_limit, 1 << 10)
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            step = len(range(p * p, limit + 1, p))
            flags[p * p::p] = bytes(step)
    # swap in one assignment so concurrent readers always see a full table
    _prime_cache = list(compress(range(limit + 1), flags))
    _prime_limit = limit


def primes_upto(bound) -> list[int]:
    """All primes <= bound, ascending."""
    if bound < 2:
        return []
    _ensure_sieved(bound)
    return _prime_cache[:bisect_right(_prime_cache, bound)]


def prime_count(x) -> int:
    """Number of primes <= x."""
    if x < 2:
        return 0
    _ensure_sieved(x)
    return bisect_right(_prime_cache, x)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def iter_parts(spec, bound):
    """Members of the set in [1, bound], without listing them where possible.

    All parts, cofinite tails and each residue class come as lazy ranges;
    a residue set yields its classes one after another, so the members
    are ascending within a class but not overall.  Finite sets give a
    slice of their parts, primes the sieve's list.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if isinstance(spec, AllParts):
        return range(1, bound + 1)
    if isinstance(spec, FiniteParts):
        return spec.parts[:bisect_right(spec.parts, bound)]
    if isinstance(spec, ResidueParts):
        m = spec.modulus
        return chain.from_iterable(
            range(r, bound + 1, m) for r in spec.residues)
    if isinstance(spec, CofiniteTail):
        return range(spec.start, bound + 1)
    if isinstance(spec, PrimeParts):
        return primes_upto(bound)
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

@dataclass(frozen=True)
class DensityProfile:
    """Exact counting ratios A(x)/x on a grid, with suffix min/max summaries.

    tail_min[i] / tail_max[i] are the min and max of ratios[i:], i.e. the
    extremes over the remaining tail of the grid; at finite scale these
    stand in for the lower and upper density of the set.
    """

    spec: PartSetSpec
    grid: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    tail_min: tuple[Fraction, ...]
    tail_max: tuple[Fraction, ...]


def density_profile(spec, grid) -> DensityProfile:
    """Sample A(x)/x exactly on a strictly increasing grid of integers."""
    grid = tuple(int(x) for x in grid)
    _validate_increasing(grid, "density grid")
    # largest point first: the prime sieve then runs once, to the grid's
    # end, instead of doubling past it
    ratios = tuple(reversed([Fraction(counting_function(spec, x), x)
                             for x in reversed(grid)]))
    tail_min = []
    tail_max = []
    lo = hi = None
    for q in reversed(ratios):
        lo = q if lo is None else min(lo, q)
        hi = q if hi is None else max(hi, q)
        tail_min.append(lo)
        tail_max.append(hi)
    tail_min.reverse()
    tail_max.reverse()
    return DensityProfile(spec, grid, ratios, tuple(tail_min), tuple(tail_max))
