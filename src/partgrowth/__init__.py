"""Exact restricted-partition counting with growth and density diagnostics.

The package is organized around symbolic part sets (partsets), exact
big-integer partition tables and their structural checks (counting),
normalized growth-ratio statistics and finite-scale probes (asymptotics),
the log-series coefficient machinery with Mobius inversion and numeric
evaluation near 1 (genfun), and a CLI exposing all of it (cli).
"""

from .asymptotics import (C0, GrowthSeries, LeadingRatio,
                          arithmetic_progression_probe, density_growth_probe,
                          finite_set_leading_ratio, growth_ratio,
                          growth_ratio_series)
from .counting import (BRUTEFORCE_LIMIT, CheckReport, PartitionTable,
                       check_cofinite_monotonicity, check_shift_monotonicity,
                       check_window_max, count_partitions_bruteforce,
                       partition_table, pentagonal_table, scaled_count,
                       table_from_parts, window_max_location)
from .genfun import (CoefficientSeries, abelian_density_target, abelian_probe,
                     log_gf, log_gf_coefficients, log_gf_grid,
                     mobius_invert_sums, mobius_sieve, sums_via_counting,
                     tauberian_probe)
from .partsets import (AllParts, CofiniteTail, DensityProfile, FiniteParts,
                       GcdResult, PartFileError, PartSetSpec, PrimeParts,
                       ResidueParts, UnsupportedNormalizationError,
                       block_counts, counting_function, density_profile,
                       enumerate_parts, gcd_of_set, load_part_file,
                       normalize_by_gcd, prime_count, primes_upto)
from .reports import ProbeReport, frac_str, trend_direction

__version__ = "1.0.0"

__all__ = [
    "AllParts", "BRUTEFORCE_LIMIT", "C0", "CheckReport", "CoefficientSeries",
    "CofiniteTail", "DensityProfile", "FiniteParts", "GcdResult",
    "GrowthSeries", "LeadingRatio", "PartFileError", "PartSetSpec",
    "PartitionTable", "PrimeParts", "ProbeReport",
    "ResidueParts", "UnsupportedNormalizationError", "abelian_density_target",
    "abelian_probe", "arithmetic_progression_probe",
    "block_counts", "check_cofinite_monotonicity", "check_shift_monotonicity",
    "check_window_max", "count_partitions_bruteforce", "counting_function",
    "density_growth_probe", "density_profile", "enumerate_parts", "frac_str",
    "finite_set_leading_ratio", "gcd_of_set", "growth_ratio",
    "growth_ratio_series", "load_part_file",
    "log_gf", "log_gf_coefficients", "log_gf_grid", "mobius_invert_sums",
    "mobius_sieve",
    "normalize_by_gcd", "partition_table", "pentagonal_table", "prime_count",
    "primes_upto", "scaled_count", "sums_via_counting", "table_from_parts",
    "tauberian_probe", "trend_direction", "window_max_location",
]
