"""Report containers shared by the probe and check commands.

A probe evaluates a scale-dependent quantity on a finite grid and compares
the tail against a target band.  Nothing here proves a limit: the verdict
is "the finite-scale data sits inside / outside the band", and every
report says so in its metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def frac_str(q) -> str:
    """Render a rational as 'numerator/denominator' (exact, JSON-safe)."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def trend_direction(values) -> int:
    """+1 if strictly increasing, -1 if strictly decreasing, else 0."""
    ups = all(b > a for a, b in zip(values, values[1:]))
    downs = all(b < a for a, b in zip(values, values[1:]))
    if ups and not downs:
        return 1
    if downs and not ups:
        return -1
    return 0


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one finite-scale probe.

    xs/values hold the sampled grid; target_low/target_high the admissible
    band; tail_min/tail_max the extremes over the defined samples of the
    tail portion actually judged (None when it has none); direction the
    strict trend over the whole grid (+1/-1/0).
    """

    name: str
    xs: tuple
    values: tuple
    target_low: float | None
    target_high: float | None
    passed: bool
    tail_min: float | None
    tail_max: float | None
    direction: int
    meta: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed


def default_band(target, rel_tol):
    """target widened by rel_tol either way; at target 0, rel_tol becomes
    an absolute ceiling, band [0, rel_tol].  A negative rel_tol would
    invert the band and is refused."""
    if rel_tol < 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    if target > 0.0:
        return target * (1.0 - rel_tol), target * (1.0 + rel_tol)
    return 0.0, rel_tol


def judge_tail(name, xs, values, lo, hi, meta) -> ProbeReport:
    """Judge the tail (last third of the grid, at least one sample).

    Band mode (lo is not None): every tail sample is defined and lies in
    [lo, hi]; a band with hi < lo is refused.  Decay mode (lo is None):
    every tail sample is defined and positive, and the defined samples
    strictly decrease across the grid.  Undefined samples are None and
    never count toward tail_min/tail_max.
    """
    if lo is not None and not lo <= hi:
        raise ValueError(f"band must have lo <= hi, got {lo}, {hi}")
    tail = values[-max(1, len(values) // 3):]
    direction = trend_direction([v for v in values if v is not None])
    if lo is not None:
        passed = all(v is not None and lo <= v <= hi for v in tail)
    else:
        passed = (all(v is not None and v > 0.0 for v in tail)
                  and direction == -1)
    defined = [v for v in tail if v is not None]
    return ProbeReport(
        name=name, xs=xs, values=values, target_low=lo, target_high=hi,
        passed=passed, tail_min=min(defined, default=None),
        tail_max=max(defined, default=None), direction=direction, meta=meta)
