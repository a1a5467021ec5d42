"""Growth-rate diagnostics for restricted partition counts.

The unrestricted counts obey log p(n) ~ C0 * sqrt(n) with
C0 = pi * sqrt(2/3).  For a part set of lower density alpha and upper
density beta (gcd 1), the normalized ratio

    r(n) = log p_A(n) / (C0 * sqrt(n))

eventually sits between sqrt(alpha) and sqrt(beta); for density-zero sets
it decays to 0; for residue classes r_1..r_l mod m with
gcd(r_1, ..., r_l, m) = 1 it tends to sqrt(l/m).  The probes here sample
r(n) on a finite grid and judge the tail against a band; they are
experiments at finite scale, not limit proofs, and their reports say so.

Finite part sets instead grow polynomially: with k parts of product P and
gcd 1, p_A(n) * (k-1)! * P / n^(k-1) -> 1, and finite_set_leading_ratio
evaluates that ratio exactly as a rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional

from .counting import partition_table
from .partsets import FiniteParts, PartSetSpec, ResidueParts, analytic_gcd
from .reports import ProbeReport, default_band, judge_tail

#: pi * sqrt(2/3), the growth constant of the unrestricted counts.
C0 = math.pi * math.sqrt(2.0 / 3.0)


# ---------------------------------------------------------------------------
# Ratio series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthSeries:
    """r(n) sampled on a grid; None where the count is 0 (log undefined)."""

    spec: PartSetSpec
    grid: tuple[int, ...]
    ratios: tuple[Optional[float], ...]


def growth_ratio(count, n) -> Optional[float]:
    """log(count) / (C0 * sqrt(n)); None when count == 0.

    math.log accepts arbitrary-size Python integers directly (it extracts
    the exponent and mantissa without converting the whole number to
    float), so counts with thousands of digits are fine.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return None
    return math.log(count) / (C0 * math.sqrt(n))


def growth_ratio_series(table, grid) -> GrowthSeries:
    """Sample growth_ratio at the grid points, reading counts from `table`."""
    grid = tuple(int(n) for n in grid)
    for n in grid:
        if not 1 <= n <= table.limit:
            raise ValueError(f"grid point {n} outside table range [1, {table.limit}]")
    ratios = tuple(growth_ratio(table[n], n) for n in grid)
    return GrowthSeries(table.spec, grid, ratios)


# ---------------------------------------------------------------------------
# Finite sets: polynomial leading coefficient
# ---------------------------------------------------------------------------

class LeadingRatio(NamedTuple):
    exact: Fraction
    value: float


def finite_set_leading_ratio(table, n) -> LeadingRatio:
    """p_A(n) * (k-1)! * (product of parts) / n^(k-1), exactly.

    Defined for finite part sets with gcd 1 (k = number of parts); the
    ratio tends to 1 as n grows.  Sets with a common divisor d > 1 must be
    divided through by d first.
    """
    spec = table.spec
    if not isinstance(spec, FiniteParts):
        raise ValueError(f"leading ratio needs a finite part set, got {spec}")
    parts = spec.parts
    g = math.gcd(*parts)
    if g != 1:
        raise ValueError(
            f"part set has common divisor {g}; normalize by the gcd first")
    if not 1 <= n <= table.limit:
        raise ValueError(f"n={n} outside table range [1, {table.limit}]")
    k = len(parts)
    product = math.prod(parts)
    exact = Fraction(table[n] * math.factorial(k - 1) * product, n ** (k - 1))
    return LeadingRatio(exact, float(exact))


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def density_growth_probe(spec, grid, *, lower_density, upper_density,
                         band=None, rel_tol=0.10) -> ProbeReport:
    """Judge the tail of r(n) against the density-derived band.

    Quantitative mode (upper density > 0): the default band is
    [(1 - rel_tol) * sqrt(alpha), min(1, (1 + rel_tol) * sqrt(beta))] and
    the probe passes when every tail sample (last third of the grid) lies
    inside it.  The cap at 1 is sound: every count is at most the
    unrestricted count, which stays below exp(C0 * sqrt(n)).

    Zero-density mode (upper density == 0): r(n) should decay, so with no
    explicit band the probe instead demands positive tail samples and a
    strictly decreasing trend across the whole grid.

    Sets with a common divisor d > 1 are rejected: divide through by d
    and probe the normalized set.  d is the gcd of the whole set, read
    from its symbolic form; the parts up to the grid's end may share a
    larger divisor (finite:2,3 on the grid 1,2 sees only the part 2).
    """
    grid = tuple(int(n) for n in grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise ValueError(f"grid must be strictly increasing and >= 1: {grid}")
    # compared exactly first: float() of a huge rational overflows
    if not 0 <= lower_density <= upper_density <= 1:
        raise ValueError(
            f"need 0 <= lower <= upper <= 1, got {lower_density}, {upper_density}")
    alpha = float(lower_density)
    beta = float(upper_density)
    g = analytic_gcd(spec)
    if g != 1:
        raise ValueError(
            f"set has common divisor {g}; normalize by the gcd and "
            f"probe the divided-through set")
    values = growth_ratio_series(partition_table(spec, grid[-1]), grid).ratios

    if band is not None:
        lo, hi = float(band[0]), float(band[1])
        band_origin = "user"
    elif beta > 0.0:
        low, high = default_band(1.0, rel_tol)
        lo = low * math.sqrt(alpha)
        hi = min(1.0, high * math.sqrt(beta))
        band_origin = "density-default"
    else:
        # decay regime: judge_tail demands positive, strictly falling samples
        lo = hi = None
        band_origin = "decay-qualitative"
    return judge_tail("density-growth", grid, values, lo, hi, meta={
        "set": str(spec),
        "lower_density": alpha,
        "upper_density": beta,
        "sqrt_lower_target": math.sqrt(alpha),
        "sqrt_upper_target": math.sqrt(beta),
        "band_origin": band_origin,
        "band_note": "band widths are finite-scale calibration choices; "
                     "the limit statements fix no tolerance",
    })


def arithmetic_progression_probe(modulus, residues, grid, *, band=None,
                                 rel_tol=0.10) -> ProbeReport:
    """Probe r(n) -> sqrt(l/m) for l residue classes mod m.

    Requires gcd(r_1, ..., r_l, m) = 1; otherwise the set has a common
    divisor and the target does not apply, so the offending gcd is
    reported as a witness.
    """
    spec = ResidueParts(modulus, tuple(residues))
    g = math.gcd(*spec.residues, spec.modulus)
    if g != 1:
        raise ValueError(
            f"need gcd(residues..., modulus) = 1; witness: gcd = {g} "
            f"for {spec}")
    density = Fraction(len(spec.residues), spec.modulus)
    report = density_growth_probe(
        spec, grid, lower_density=density, upper_density=density,
        band=band, rel_tol=rel_tol)
    return replace(report, name="arithmetic-progression", meta={
        **report.meta,
        "probe_target": math.sqrt(density),
        "modulus": modulus,
        "residues": list(spec.residues),
    })
