"""Span recorder for the traced benchmark run.

A traced operation runs in its own interpreter (traced_child.py).  There
the Recorder wraps the public functions of each partgrowth module named
in LAYERS, rebinding each wrapper in every partgrowth module that holds
the function, since the consuming modules import these functions by
name.  Spans stay in memory as (id, parent, name, start, end) and are
written out when the operation ends.  The runner (run.py) turns the
spans of all operations into per-layer metrics with layer_metrics().

Self time is a span's duration minus the time its child spans cover.
Time spent in a function that is not wrapped counts toward the self time
of the nearest wrapped caller, so the self times of one operation's spans
add up to the operation's traced time.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter

# span name -> per-layer time metric its self time is credited to
LAYERS = {
    "partsets.enumerate_parts": "partsets.enumerate_parts_s",
    "partsets.primes_upto": "partsets.primes_upto_s",
    "partsets.prime_count": "partsets.primes_upto_s",
    "counting.partition_table": "counting.table_s",
    "counting.table_from_parts": "counting.table_s",
    "counting.pentagonal_table": "counting.table_s",
    "counting.check_shift_monotonicity": "counting.checks_s",
    "counting.check_window_max": "counting.checks_s",
    "counting.check_cofinite_monotonicity": "counting.checks_s",
    "counting.window_max_location": "counting.checks_s",
    "asymptotics.growth_ratio_series": "asymptotics.growth_ratio_series_s",
    "asymptotics.density_growth_probe": "asymptotics.probe_self_s",
    "asymptotics.arithmetic_progression_probe": "asymptotics.probe_self_s",
    "genfun.log_gf_coefficients": "genfun.log_gf_coefficients_s",
    "genfun.sums_via_counting": "genfun.sums_via_counting_s",
    "genfun.mobius_invert_sums": "genfun.mobius_invert_sums_s",
    "genfun.log_gf": "genfun.log_gf_s",
    "genfun.abelian_probe": "genfun.probe_self_s",
    "genfun.tauberian_probe": "genfun.probe_self_s",
    "cli.CommandRequest.from_argv": "cli.parse_s",
    "cli.main": "cli.self_s",
    "cli.import": "cli.import_s",
}
SERIALISE_METHODS = ("to_json_obj", "to_csv_rows")
SERIALISE_METRIC = "reports.serialise_s"
FIRST_INVERSION_METRIC = "genfun.mobius_invert_first_s"

# function -> (call counter, counter of items in the returned sequence)
COUNTS = {
    "partsets.enumerate_parts": (None, "partsets.parts_listed"),
    "partsets.counting_function": ("partsets.counting_function_calls", None),
    "counting.table_from_parts": (None, "counting.table_entries"),
    "counting.pentagonal_table": (None, "counting.table_entries"),
    "counting.window_max_location": ("counting.window_max_calls", None),
    "genfun.sums_via_counting": ("genfun.sums_via_counting_calls", None),
}
# hot leaves: counted, not spanned, so millions of calls stay cheap
COUNT_ONLY = {"partsets.counting_function"}

TIME_METRICS = sorted(set(LAYERS.values()) | {SERIALISE_METRIC,
                                              FIRST_INVERSION_METRIC})
COUNT_METRICS = sorted({c for pair in COUNTS.values() for c in pair if c})


class Recorder:
    """Collects the spans and counts of one traced operation."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = [None]
        self._next_id = 0
        self._ticks = {}

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name, fn):
        calls, items = COUNTS.get(name, (None, None))
        counts = self.counts
        if name in COUNT_ONLY:
            tick = self._ticks.setdefault(calls, itertools.count()).__next__

            def counted(*args):
                tick()
                return fn(*args)
            return counted

        def spanned(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if calls:
                counts[calls] += 1
            if items:
                counts[items] += len(result)
            return result
        return spanned

    def install(self):
        """Wrap the traced functions of the imported partgrowth modules."""
        modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
                   if name.startswith("partgrowth.") and mod is not None}
        for span_name in set(LAYERS) | set(COUNTS):
            module_name, _, attr = span_name.partition(".")
            original = getattr(modules.get(module_name), attr, None)
            if not callable(original):
                continue  # spans the child opens itself, and methods
            wrapper = self.wrap(span_name, original)
            for mod in list(modules.values()) + [sys.modules["partgrowth"]]:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
        for module_name, mod in modules.items():
            for cls in vars(mod).values():
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                for method in SERIALISE_METHODS:
                    if method in vars(cls):
                        name = f"{module_name}.{cls.__name__}.{method}"
                        setattr(cls, method, self.wrap(name, vars(cls)[method]))
        request = modules["cli"].CommandRequest
        request.from_argv = classmethod(self.wrap(
            "cli.CommandRequest.from_argv", vars(request)["from_argv"].__func__))

    def to_json_obj(self):
        counts = dict(self.counts)
        for name, ticks in self._ticks.items():
            counts[name] = next(ticks)
        return {"spans": self.spans, "counts": counts}


def metric_of(name):
    if name.rpartition(".")[2] in SERIALISE_METHODS:
        return SERIALISE_METRIC
    return LAYERS[name]


def self_times(spans):
    """Self time of each span, keyed by span id; checks that spans nest."""
    by_id = {sid: (parent, start, end) for sid, parent, _, start, end in spans}
    covered = Counter()
    for sid, parent, _, start, end in spans:
        if parent is not None:
            _, p_start, p_end = by_id[parent]
            if start < p_start or end > p_end:
                raise ValueError(f"span {sid} lies outside its parent {parent}")
            covered[parent] += end - start
    return {sid: end - start - covered[sid] for sid, _, _, start, end in spans}


def layer_metrics(traces):
    """Sum per-layer metrics over the traces of a round of operations.

    Each trace is a Recorder.to_json_obj() dict.  Returns the metric dict
    and the total self time of each trace.
    """
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    totals.update(dict.fromkeys(COUNT_METRICS, 0))
    op_self = []
    for trace in traces:
        spans = trace["spans"]
        own = self_times(spans)
        first_inversion = None
        for sid, _, name, start, _ in spans:
            totals[metric_of(name)] += own[sid]
            if name == "genfun.mobius_invert_sums" and (
                    first_inversion is None or start < first_inversion[0]):
                first_inversion = (start, own[sid])
        if first_inversion:
            totals[FIRST_INVERSION_METRIC] += first_inversion[1]
        for name, value in trace["counts"].items():
            totals[name] += value
        op_self.append(sum(own.values()))
    return totals, op_self
