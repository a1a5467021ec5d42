"""Command-line surface: tables, density data, probes, and lemma checks.

Every subcommand emits one report as CSV or JSON (``--format``) to stdout
or ``--out PATH``.  Exit status: 0 on success and on probe PASS, 1 on
probe/check FAIL, 2 on usage or domain errors.  All configuration is by
flags; no environment variables are read.

The output format lives here and nowhere else.  The result types of the
other modules are plain data and do not serialise themselves: each
handler builds its JSON object once and passes it to _emit together
with its CSV columns, a mapping from header to a sequence of cells.
Every column is a list taken from that object (or an index range), so
each value is formatted once and the two formats carry the same values.

Part sets are written in a small spec language::

    all  |  finite:1,2,3  |  mod:4:1,3  |  cofinite:5  |  primes  |  file:PATH

Integer grids are ``list:n1,n2,...`` (or a bare comma list) or geometric
``geo:start:stop:factor``; x-grids for the series evaluation are
``list:x1,x2,...`` of floats in (0,1) or ``pow2:K1[:K2]`` meaning
x = 1 - 2^-k for k = K1..K2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from .asymptotics import (arithmetic_progression_probe, density_growth_probe,
                          finite_set_leading_ratio, growth_ratio_series)
from .counting import (check_cofinite_monotonicity, check_shift_monotonicity,
                       check_window_max, partition_table, pentagonal_table)
from .genfun import (abelian_density_target, abelian_probe,
                     log_gf, log_gf_coefficients, mobius_invert_sums,
                     tauberian_probe)
from .partsets import (AllParts, CofiniteTail, FiniteParts, PrimeParts,
                       ResidueParts, counting_function, density_profile,
                       enumerate_parts, load_part_file)
from .reports import frac_str


# ---------------------------------------------------------------------------
# Spec / grid / band parsing
# ---------------------------------------------------------------------------

def _int_token(token, what):
    try:
        return int(token, 10)
    except ValueError:
        raise ValueError(f"{what}: not a decimal integer: {token!r}") from None


def _float_token(token, what):
    """A finite float; NaN and infinities are usage errors like any typo."""
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"{what}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{what}: not a finite number: {token!r}")
    return value


def parse_set_spec(text):
    """Parse the part-set mini-language into a spec object."""
    if not text:
        raise ValueError("empty set spec")
    tag, _, payload = text.partition(":")
    if tag == "all":
        if payload:
            raise ValueError(f"unexpected payload after 'all': {payload!r}")
        return AllParts()
    if tag == "primes":
        if payload:
            raise ValueError(f"unexpected payload after 'primes': {payload!r}")
        return PrimeParts()
    if tag == "finite":
        if not payload:
            raise ValueError("finite spec needs a part list: finite:a1,a2,...")
        parts = tuple(_int_token(t, "finite part") for t in payload.split(","))
        return FiniteParts(parts)
    if tag == "mod":
        mod_text, sep, residue_text = payload.partition(":")
        if not sep or not residue_text:
            raise ValueError("mod spec needs modulus and residues: mod:M:r1,r2,...")
        modulus = _int_token(mod_text, "modulus")
        residues = tuple(_int_token(t, "residue") for t in residue_text.split(","))
        return ResidueParts(modulus, residues)
    if tag == "cofinite":
        if not payload:
            raise ValueError("cofinite spec needs a start: cofinite:N")
        return CofiniteTail(_int_token(payload, "cofinite start"))
    if tag == "file":
        if not payload:
            raise ValueError("file spec needs a path: file:PATH")
        return load_part_file(payload)
    raise ValueError(
        f"unknown set spec tag {tag!r} (expected all|finite|mod|cofinite|primes|file)")


def parse_grid(text):
    """Integer grid: 'geo:start:stop:factor', 'list:n1,n2,...', or bare list."""
    if text.startswith("geo:"):
        fields = text[4:].split(":")
        if len(fields) != 3:
            raise ValueError(f"geometric grid needs geo:start:stop:factor, got {text!r}")
        start = _int_token(fields[0], "grid start")
        stop = _int_token(fields[1], "grid stop")
        factor = _float_token(fields[2], "grid factor")
        if start < 1 or stop < start:
            raise ValueError(f"need 1 <= start <= stop, got {start}, {stop}")
        if factor <= 1.0:
            raise ValueError(f"grid factor must exceed 1, got {factor}")
        values = [start]
        v = start
        while v < stop:
            v = max(v + 1, round(v * factor))
            values.append(min(v, stop))
        return tuple(values)
    if text.startswith("list:"):
        text = text[5:]
    if not text:
        raise ValueError("empty grid")
    values = tuple(_int_token(t, "grid point") for t in text.split(","))
    if values[0] < 1 or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"grid must be strictly increasing and >= 1: {text!r}")
    return values


def parse_x_grid(text):
    """x grid in (0,1): 'pow2:K1[:K2]' for 1 - 2^-k, or a float list."""
    if text.startswith("pow2:"):
        fields = text[5:].split(":")
        if len(fields) not in (1, 2):
            raise ValueError(f"pow2 grid is pow2:K1[:K2], got {text!r}")
        k1 = _int_token(fields[0], "pow2 exponent")
        k2 = _int_token(fields[-1], "pow2 exponent")
        if not 1 <= k1 <= k2 <= 53:
            # past k = 53, 1 - 2^-k rounds to 1.0
            raise ValueError(f"need 1 <= K1 <= K2 <= 53, got {k1}, {k2}")
        return tuple(1.0 - 2.0 ** -k for k in range(k1, k2 + 1))
    if text.startswith("list:"):
        text = text[5:]
    if not text:
        raise ValueError("empty x grid")
    values = tuple(_float_token(t, "x grid point") for t in text.split(","))
    if any(not 0.0 < x < 1.0 for x in values):
        raise ValueError(f"x grid values must lie in (0, 1): {text!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"x grid must be strictly increasing: {text!r}")
    return values


def parse_band(text):
    fields = text.split(",")
    if len(fields) != 2:
        raise ValueError(f"band is lo,hi, got {text!r}")
    lo, hi = (_float_token(t, "band") for t in fields)
    if hi < lo:
        raise ValueError(f"band must have lo <= hi, got {text!r}")
    return lo, hi


def _parse_fraction(text, what):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what}: not a rational: {text!r}") from None


def _parse_int_opt(text, what, minimum):
    value = _int_token(text, what)
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return value


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommandRequest:
    """A parsed invocation: the subcommand and a dict of the flags given.

    It is a class of its own so that parsing is one named step:
    perfbench/spans.py wraps from_argv to time it as cli.parse_s.
    """

    command: str
    options: dict[str, str]

    @classmethod
    def from_argv(cls, argv):
        ns = build_parser().parse_args(argv)
        return cls(command=ns.command, options={
            key.replace("_", "-"): value for key, value in vars(ns).items()
            if key != "command" and value is not None})


def _emit(opts, obj, columns):
    """Write obj as JSON, or as CSV: the keys of columns as the header row,
    then one row per position of its equal-length cell sequences."""
    fmt = opts["format"]
    if fmt == "json":
        # allow_nan=False: a NaN or infinity in a report is a bug, not JSON
        text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    path = opts.get("out")
    if path:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _table_exit(opts, table):
    # counts as decimal strings: they overflow doubles long before
    # limit=5000 and JSON numbers cannot be trusted past 2**53
    obj = {
        "set": str(table.spec),
        "limit": table.limit,
        "counts": [str(v) for v in table.values],
    }
    _emit(opts, obj, {"n": range(table.limit + 1), "count": obj["counts"]})
    return 0


def _cmd_table(opts):
    spec = parse_set_spec(opts["set"])
    limit = _parse_int_opt(opts["limit"], "limit", 0)
    return _table_exit(opts, partition_table(spec, limit))


def _cmd_pentagonal(opts):
    limit = _parse_int_opt(opts["limit"], "limit", 0)
    return _table_exit(opts, pentagonal_table(limit))


def _cmd_density(opts):
    spec = parse_set_spec(opts["set"])
    profile = density_profile(spec, parse_grid(opts["grid"]))
    obj = {
        "set": str(spec),
        "grid": list(profile.grid),
        "ratios": [frac_str(q) for q in profile.ratios],
        "ratio_floats": [float(q) for q in profile.ratios],
        "tail_min": [frac_str(q) for q in profile.tail_min],
        "tail_max": [frac_str(q) for q in profile.tail_max],
    }
    _emit(opts, obj, {"x": obj["grid"], "ratio": obj["ratios"],
                      "ratio_float": obj["ratio_floats"],
                      "tail_min": obj["tail_min"], "tail_max": obj["tail_max"]})
    return 0


def _cmd_ratio(opts):
    spec = parse_set_spec(opts["set"])
    grid = parse_grid(opts["grid"])
    series = growth_ratio_series(partition_table(spec, grid[-1]), grid)
    # an undefined ratio is null in JSON and an empty CSV cell
    obj = {"set": str(spec), "grid": list(grid), "ratios": list(series.ratios)}
    _emit(opts, obj, {"n": obj["grid"], "ratio": obj["ratios"]})
    return 0


def _cmd_finite_asym(opts):
    spec = parse_set_spec(opts["set"])
    grid = parse_grid(opts["grid"])
    table = partition_table(spec, grid[-1])
    ratios = [finite_set_leading_ratio(table, n) for n in grid]
    obj = {
        "set": str(spec),
        "grid": list(grid),
        "ratios": [frac_str(r.exact) for r in ratios],
        "ratio_floats": [r.value for r in ratios],
    }
    _emit(opts, obj, {"n": obj["grid"], "ratio": obj["ratios"],
                      "ratio_float": obj["ratio_floats"]})
    return 0


def _probe_exit(opts, report):
    obj = {
        "probe": report.name,
        "xs": list(report.xs),
        "values": list(report.values),
        "band": [report.target_low, report.target_high],
        "tail_min": report.tail_min,
        "tail_max": report.tail_max,
        "direction": report.direction,
        "passed": report.passed,
        "note": "finite-scale sample; band judgement is not a limit claim",
        **report.meta,
    }
    _emit(opts, obj, {"x": obj["xs"], "value": obj["values"]})
    return 0 if report.passed else 1


def _cmd_direct_probe(opts):
    spec = parse_set_spec(opts["set"])
    grid = parse_grid(opts["grid"])
    band = parse_band(opts["band"]) if "band" in opts else None
    report = density_growth_probe(
        spec, grid,
        lower_density=_parse_fraction(opts["alpha"], "alpha"),
        upper_density=_parse_fraction(opts["beta"], "beta"),
        band=band,
        rel_tol=_float_token(opts["rel-tol"], "rel-tol"))
    return _probe_exit(opts, report)


def _cmd_arithpro_probe(opts):
    spec = parse_set_spec(opts["set"])
    if not isinstance(spec, ResidueParts):
        raise ValueError(f"arithpro-probe needs a mod:M:r1,... set, got {spec}")
    grid = parse_grid(opts["grid"])
    band = parse_band(opts["band"]) if "band" in opts else None
    report = arithmetic_progression_probe(
        spec.modulus, spec.residues, grid, band=band,
        rel_tol=_float_token(opts["rel-tol"], "rel-tol"))
    return _probe_exit(opts, report)


def _cmd_sb(opts):
    spec = parse_set_spec(opts["set"])
    limit = _parse_int_opt(opts["limit"], "limit", 1)
    series = log_gf_coefficients(spec, limit)
    obj = {
        "set": str(spec),
        "limit": limit,
        "coeffs": [frac_str(c) for c in series.coeffs[1:]],
        "prefix_sums": [frac_str(s) for s in series.sums[1:]],
    }
    del series      # free the Fraction views before the strings are joined
    _emit(opts, obj, {"l": range(1, limit + 1), "coeff": obj["coeffs"],
                      "prefix_sum": obj["prefix_sums"]})
    return 0


def _cmd_invert(opts):
    spec = parse_set_spec(opts["set"])
    limit = _parse_int_opt(opts["limit"], "limit", 1)
    series = log_gf_coefficients(spec, limit)
    mismatch = None
    for n in range(1, limit + 1):
        recovered = mobius_invert_sums(series, n)
        expected = counting_function(spec, n)
        if recovered != expected:
            mismatch = (n, recovered, expected)
            break
    if mismatch is None:
        note = f"exact match at all n <= {limit}"
    else:
        note = (f"mismatch at n = {mismatch[0]}: recovered {mismatch[1]}, "
                f"expected {mismatch[2]}")
    obj = {
        "set": str(spec),
        "limit": limit,
        "ok": mismatch is None,
        "note": note,
    }
    _emit(opts, obj, {key: [value] for key, value in obj.items()})
    return 0 if mismatch is None else 1


def _cmd_genfun(opts):
    spec = parse_set_spec(opts["set"])
    xs = parse_x_grid(opts["xs"])
    tail_tol = _float_token(opts["tail-tol"], "tail-tol")
    if "density" in opts:
        band = parse_band(opts["band"]) if "band" in opts else None
        report = abelian_probe(
            spec, _parse_fraction(opts["density"], "density"), xs,
            rel_tol=_float_token(opts["rel-tol"], "rel-tol"),
            tail_tol=tail_tol, band=band)
        return _probe_exit(opts, report)
    if "band" in opts:
        raise ValueError("--band only applies to probe mode (--density)")
    values = [log_gf(spec, x, tail_tol=tail_tol) for x in xs]
    obj = {
        "set": str(spec),
        "xs": list(xs),
        "log_f": values,
        "scaled": [(1.0 - x) * v for x, v in zip(xs, values)],
        "tail_tol": tail_tol,
    }
    _emit(opts, obj, {"x": obj["xs"], "log_f": obj["log_f"],
                      "scaled": obj["scaled"]})
    return 0


def _cmd_tauberian_probe(opts):
    spec = parse_set_spec(opts["set"])
    grid = parse_grid(opts["grid"])
    has_density = "density" in opts
    has_target = "target" in opts
    if has_density == has_target:
        raise ValueError("provide exactly one of --density and --target")
    if has_density:
        target = abelian_density_target(_parse_fraction(opts["density"], "density"))
    else:
        target = _float_token(opts["target"], "target")
    report = tauberian_probe(
        spec, target, grid,
        rel_tol=_float_token(opts["rel-tol"], "rel-tol"))
    return _probe_exit(opts, report)


def _cmd_check_lemmas(opts):
    spec = parse_set_spec(opts["set"])
    limit = _parse_int_opt(opts["limit"], "limit", 1)
    max_shift = _parse_int_opt(opts["max-shift"], "max-shift", 1)
    table = partition_table(spec, limit)
    members = enumerate_parts(spec, limit)
    if not members:
        raise ValueError(f"no member of {spec} within limit {limit}")
    checks = []
    for shift in range(1, min(max_shift, limit) + 1):
        if table[shift] >= 1:
            checks.append((f"shift-monotonic(shift={shift})",
                           check_shift_monotonicity(table, shift)))
    checks.append(("window-max", check_window_max(table, members[0], limit)))
    if isinstance(spec, CofiniteTail) and limit >= 3 * spec.start + 3:
        checks.append((f"cofinite-strict(start={spec.start})",
                       check_cofinite_monotonicity(table)))
    rows = [dict(name=name, **asdict(rep)) for name, rep in checks]
    obj = {
        "set": str(spec),
        "limit": limit,
        "checks": rows,
        "all_ok": all(row["ok"] for row in rows),
    }
    _emit(opts, obj, {header: [row[key] for row in rows] for header, key in
                      (("check", "name"), ("ok", "ok"), ("checked", "checked"),
                       ("note", "note"))})
    return 0 if obj["all_ok"] else 1


_HANDLERS = {
    "table": _cmd_table,
    "pentagonal": _cmd_pentagonal,
    "density": _cmd_density,
    "ratio": _cmd_ratio,
    "finite-asym": _cmd_finite_asym,
    "direct-probe": _cmd_direct_probe,
    "arithpro-probe": _cmd_arithpro_probe,
    "sb": _cmd_sb,
    "invert": _cmd_invert,
    "genfun": _cmd_genfun,
    "tauberian-probe": _cmd_tauberian_probe,
    "check-lemmas": _cmd_check_lemmas,
}


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_common(sp, *, fmt_default):
    sp.add_argument("--format", choices=("csv", "json"), default=fmt_default,
                    help=f"output format (default {fmt_default})")
    sp.add_argument("--out", help="write the report to PATH instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="partgrowth",
        description="Exact restricted-partition tables, density data, and "
                    "finite-scale growth probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", help="exact partition counts p(0..N)")
    sp.add_argument("--set", required=True, help="part-set spec")
    sp.add_argument("--limit", required=True, help="table limit N")
    _add_common(sp, fmt_default="csv")

    sp = sub.add_parser("pentagonal",
                        help="unrestricted counts via the pentagonal recurrence")
    sp.add_argument("--limit", required=True, help="table limit N")
    _add_common(sp, fmt_default="csv")

    sp = sub.add_parser("density", help="exact counting ratios A(x)/x on a grid")
    sp.add_argument("--set", required=True, help="part-set spec")
    sp.add_argument("--grid", required=True, help="integer grid")
    _add_common(sp, fmt_default="csv")

    sp = sub.add_parser("ratio", help="normalized growth ratios on a grid")
    sp.add_argument("--set", required=True, help="part-set spec")
    sp.add_argument("--grid", required=True, help="integer grid")
    _add_common(sp, fmt_default="csv")

    sp = sub.add_parser("finite-asym",
                        help="polynomial-law ratio for a finite part set")
    sp.add_argument("--set", required=True, help="finite part-set spec")
    sp.add_argument("--grid", required=True, help="integer grid")
    _add_common(sp, fmt_default="csv")

    sp = sub.add_parser("direct-probe",
                        help="growth-ratio band probe from density targets")
    sp.add_argument("--set", required=True, help="part-set spec")
    sp.add_argument("--grid", required=True, help="integer grid")
    sp.add_argument("--alpha", required=True, help="lower density (rational)")
    sp.add_argument("--beta", required=True, help="upper density (rational)")
    sp.add_argument("--band", help="override band lo,hi")
    sp.add_argument("--rel-tol", default="0.10", help="band half-width (default 0.10)")
    _add_common(sp, fmt_default="json")

    sp = sub.add_parser("arithpro-probe",
                        help="growth probe for residue classes (target sqrt(l/m))")
    sp.add_argument("--set", required=True, help="mod:M:r1,... spec")
    sp.add_argument("--grid", required=True, help="integer grid")
    sp.add_argument("--band", help="override band lo,hi")
    sp.add_argument("--rel-tol", default="0.10", help="band half-width (default 0.10)")
    _add_common(sp, fmt_default="json")

    sp = sub.add_parser("sb", help="log-series coefficients and prefix sums")
    sp.add_argument("--set", required=True, help="part-set spec")
    sp.add_argument("--limit", required=True, help="series limit N")
    _add_common(sp, fmt_default="csv")

    sp = sub.add_parser("invert",
                        help="inversion round-trip check against the counting function")
    sp.add_argument("--set", required=True, help="part-set spec")
    sp.add_argument("--limit", required=True, help="check all n <= N")
    _add_common(sp, fmt_default="json")

    sp = sub.add_parser("genfun",
                        help="evaluate log of the partition product on an x grid; "
                             "with --density, run the scaled-limit probe")
    sp.add_argument("--set", required=True, help="part-set spec")
    sp.add_argument("--xs", required=True, help="x grid (pow2:K1[:K2] or floats)")
    sp.add_argument("--tail-tol", default="1e-9",
                    help="truncation tolerance (default 1e-9)")
    sp.add_argument("--density", help="natural density: probe (1-x)log F vs pi^2 d/6")
    sp.add_argument("--band", help="override band lo,hi (probe mode)")
    sp.add_argument("--rel-tol", default="0.02", help="band half-width (default 0.02)")
    _add_common(sp, fmt_default="json")

    sp = sub.add_parser("tauberian-probe",
                        help="probe the mean of the log-series coefficients")
    sp.add_argument("--set", required=True, help="part-set spec")
    sp.add_argument("--grid", required=True, help="integer grid")
    sp.add_argument("--density", help="natural density (target pi^2 d/6)")
    sp.add_argument("--target", help="explicit target rate")
    sp.add_argument("--rel-tol", default="0.01", help="band half-width (default 0.01)")
    _add_common(sp, fmt_default="json")

    sp = sub.add_parser("check-lemmas",
                        help="exhaustive monotonicity and window-max checks")
    sp.add_argument("--set", required=True, help="part-set spec")
    sp.add_argument("--limit", default="500", help="table limit (default 500)")
    sp.add_argument("--max-shift", default="20",
                    help="largest shift to verify (default 20)")
    _add_common(sp, fmt_default="json")

    return parser


def run(request) -> int:
    """Execute a parsed request; returns the process exit code."""
    handler = _HANDLERS.get(request.command)
    if handler is None:
        raise ValueError(f"unknown subcommand {request.command!r}")
    return handler(request.options)


def main(argv=None) -> int:
    try:
        request = CommandRequest.from_argv(
            sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code or 0)
    try:
        return run(request)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
