"""Command-line surface: tables, density data, probes, and lemma checks.

Every subcommand emits one report as CSV or JSON (``--format``) to stdout
or ``--out PATH``.  Exit status: 0 on success and on probe PASS, 1 on
probe/check FAIL, 2 on usage or domain errors.  Every usage or domain
error, argparse's own included, leaves as one ``error:`` line on stderr
with nothing on stdout; only ``--help`` prints usage (to stdout, exit 0).
All configuration is by flags; no environment variables are read.

Each flag is declared once, in _FLAGS, and each subcommand once, in
_COMMANDS; build_parser and _HANDLERS are read off them.  Parsing is one
step: CommandRequest.from_argv runs argparse and then turns each flag's
text into its value once, through _FLAGS.  The handlers only compute;
the rules that tie flags together stay in them.

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
import contextlib
import csv
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from ._record import _Record
from .asymptotics import (_leading_ratio, _validate_leading_ratio_set,
                          arithmetic_progression_probe, density_growth_probe,
                          growth_ratio_series)
from .counting import (check_cofinite_monotonicity, check_shift_monotonicity,
                       check_window_max, grid_counts, partition_table,
                       pentagonal_table)
from .genfun import (_validate_x_grid, abelian_density_target,
                     abelian_probe, log_gf_coefficients, log_gf_grid,
                     mobius_invert_sums, tauberian_probe)
from .partsets import (AllParts, CofiniteTail, FiniteParts, PrimeParts,
                       ResidueParts, _validate_increasing, counting_function,
                       density_profile, enumerate_parts, load_part_file)
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


def parse_set_spec(text, what="set"):
    """Parse the part-set mini-language into a spec object."""
    if not text:
        raise ValueError(f"empty {what} spec")
    tag, _, payload = text.partition(":")
    if tag in ("all", "primes"):
        if payload:
            raise ValueError(f"unexpected payload after {tag!r}: {payload!r}")
        return AllParts() if tag == "all" else PrimeParts()
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
        f"unknown {what} spec tag {tag!r} (expected all|finite|mod|cofinite|primes|file)")


def parse_grid(text, what="grid"):
    """Integer grid: 'geo:start:stop:factor', 'list:n1,n2,...', or bare list."""
    if text.startswith("geo:"):
        fields = text[4:].split(":")
        if len(fields) != 3:
            raise ValueError(f"geometric grid needs geo:start:stop:factor, got {text!r}")
        start = _int_token(fields[0], f"{what} start")
        stop = _int_token(fields[1], f"{what} stop")
        factor = _float_token(fields[2], f"{what} factor")
        if start < 1 or stop < start:
            raise ValueError(f"need 1 <= start <= stop, got {start}, {stop}")
        if factor <= 1.0:
            raise ValueError(f"{what} factor must exceed 1, got {factor}")
        values = [start]
        v = start
        while v < stop:
            try:
                v = max(v + 1, round(v * factor))
            except OverflowError:       # v * factor is inf, or v too big
                raise ValueError(f"{what} factor {factor:g} overflows a float "
                                 f"at point {len(values) + 1}") from None
            values.append(min(v, stop))
        return tuple(values)
    text = text.removeprefix("list:")
    if not text:
        raise ValueError(f"empty {what}")
    values = tuple(_int_token(t, f"{what} point") for t in text.split(","))
    _validate_increasing(values, what)
    return values


def parse_x_grid(text, what="xs"):
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
    text = text.removeprefix("list:")
    values = tuple(_float_token(t, what)
                   for t in text.split(",")) if text else ()
    _validate_x_grid(values)
    return values


def parse_band(text, what="band"):
    fields = text.split(",")
    if len(fields) != 2:
        raise ValueError(f"{what} is lo,hi, got {text!r}")
    lo, hi = (_float_token(t, what) for t in fields)
    if hi < lo:
        raise ValueError(f"{what} must have lo <= hi, got {text!r}")
    return lo, hi


#: Longest rational flag and largest decimal exponent accepted: Fraction()
#: bounds neither, and 1e3000000 alone takes seconds to build.
_RATIONAL_CHARS = 100
_RATIONAL_EXPONENT = 1000
_EXPONENT = re.compile(r"e([-+]?\d+)\s*$", re.IGNORECASE)


class _FlagRational(Fraction):
    """A rational flag value that prints as the text it was given, so a
    range error shows the flag, not a value of a thousand digits."""

    __slots__ = ("_text",)

    def __new__(cls, text):
        self = super().__new__(cls, text)
        self._text = text
        return self

    def __str__(self):
        return self._text


def _parse_fraction(text, what):
    if len(text) > _RATIONAL_CHARS:
        raise ValueError(
            f"{what}: rational longer than {_RATIONAL_CHARS} characters")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > _RATIONAL_EXPONENT:
        raise ValueError(
            f"{what}: exponent beyond +-{_RATIONAL_EXPONENT}: {text!r}")
    try:
        return _FlagRational(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what}: not a rational: {text!r}") from None


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

class CommandRequest(_Record):
    """A parsed invocation: the subcommand and a dict from each flag given
    (defaults count as given) to its value, converted through _FLAGS: a
    spec, a grid tuple, an int, a float or a _FlagRational.

    It is a class of its own so that parsing is one named step:
    perfbench/spans.py wraps from_argv to time it as cli.parse_s.
    """

    __slots__ = __match_args__ = ("command", "options")

    @classmethod
    def from_argv(cls, argv):
        ns = build_parser().parse_args(argv)
        flags = {key.replace("_", "-"): text for key, text in vars(ns).items()
                 if key != "command" and text is not None}
        return cls(command=ns.command, options={
            flag: _FLAGS[flag][0](text, flag) if flag in _FLAGS else text
            for flag, text in flags.items()})


def _emit(opts, obj, columns):
    """Write obj as JSON, or as CSV: the keys of columns as the header row,
    then one row per position of its equal-length cell sequences.

    The report streams to stdout or the --out file as it is encoded, so
    no string of the whole document is ever held.  A reader that closes
    stdout early ends the report quietly, with the handler's exit code.
    allow_nan=False stays as a bug trap: a NaN or infinity in a report is
    a bug, not JSON, and would stop the report half-written.  No
    reachable input puts one there; the exit-contract fuzz of the CLI's
    tests checks that.
    """
    path = opts.get("out")
    with (open(path, "w", encoding="utf-8") if path
          else contextlib.nullcontext(sys.stdout)) as fp:
        try:
            if opts["format"] == "json":
                json.dump(obj, fp, indent=2, allow_nan=False)
                fp.write("\n")
            else:
                writer = csv.writer(fp, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(zip(*columns.values()))
        except BrokenPipeError:
            if path:
                raise
            # stdout's reader has stopped (partgrowth ... | head): the rest
            # of the report has nowhere to go, and its final flush must
            # not fail either
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
    return _table_exit(opts, partition_table(opts["set"], opts["limit"]))


def _cmd_pentagonal(opts):
    return _table_exit(opts, pentagonal_table(opts["limit"]))


def _cmd_density(opts):
    spec = opts["set"]
    profile = density_profile(spec, opts["grid"])
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
    spec, grid = opts["set"], opts["grid"]
    series = growth_ratio_series(spec, grid)
    # an undefined ratio is null in JSON and an empty CSV cell
    obj = {"set": str(spec), "grid": list(grid), "ratios": list(series.ratios)}
    _emit(opts, obj, {"n": obj["grid"], "ratio": obj["ratios"]})
    return 0


def _cmd_finite_asym(opts):
    spec, grid = opts["set"], opts["grid"]
    _validate_leading_ratio_set(spec)      # before any count is taken
    ratios = [_leading_ratio(spec, count, n)
              for n, count in zip(grid, grid_counts(spec, grid))]
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
    report = density_growth_probe(
        opts["set"], opts["grid"], lower_density=opts["alpha"],
        upper_density=opts["beta"], band=opts.get("band"),
        rel_tol=opts["rel-tol"])
    return _probe_exit(opts, report)


def _cmd_arithpro_probe(opts):
    spec = opts["set"]
    if not isinstance(spec, ResidueParts):
        raise ValueError(f"arithpro-probe needs a mod:M:r1,... set, got {spec}")
    report = arithmetic_progression_probe(
        spec.modulus, spec.residues, opts["grid"], band=opts.get("band"),
        rel_tol=opts["rel-tol"])
    return _probe_exit(opts, report)


def _cmd_sb(opts):
    spec, limit = opts["set"], opts["limit"]
    series = log_gf_coefficients(spec, limit)
    obj = {
        "set": str(spec),
        "limit": limit,
        "coeffs": [frac_str(c) for c in series.coeffs[1:]],
        "prefix_sums": [frac_str(s) for s in series.sums[1:]],
    }
    del series      # free the Fraction views before the report is written
    _emit(opts, obj, {"l": range(1, limit + 1), "coeff": obj["coeffs"],
                      "prefix_sum": obj["prefix_sums"]})
    return 0


def _cmd_invert(opts):
    spec, limit = opts["set"], opts["limit"]
    series = log_gf_coefficients(spec, limit)
    for n in range(1, limit + 1):
        recovered = mobius_invert_sums(series, n)
        expected = counting_function(spec, n)
        if recovered != expected:
            ok, note = False, (f"mismatch at n = {n}: recovered {recovered}, "
                               f"expected {expected}")
            break
    else:
        ok, note = True, f"exact match at all n <= {limit}"
    obj = {"set": str(spec), "limit": limit, "ok": ok, "note": note}
    _emit(opts, obj, {key: [value] for key, value in obj.items()})
    return 0 if ok else 1


def _cmd_genfun(opts):
    spec, xs, tail_tol = opts["set"], opts["xs"], opts["tail-tol"]
    if "density" in opts:
        report = abelian_probe(spec, opts["density"], xs,
                               rel_tol=opts["rel-tol"], tail_tol=tail_tol,
                               band=opts.get("band"))
        return _probe_exit(opts, report)
    if "band" in opts:
        raise ValueError("--band only applies to probe mode (--density)")
    values = list(log_gf_grid(spec, xs, tail_tol=tail_tol))
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
    if ("density" in opts) == ("target" in opts):
        raise ValueError("provide exactly one of --density and --target")
    if "density" in opts:
        target = abelian_density_target(opts["density"])
    else:
        target = opts["target"]
    report = tauberian_probe(opts["set"], target, opts["grid"],
                             rel_tol=opts["rel-tol"])
    return _probe_exit(opts, report)


def _cmd_check_lemmas(opts):
    spec, limit, max_shift = opts["set"], opts["limit"], opts["max-shift"]
    for flag, value in (("limit", limit), ("max-shift", max_shift)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
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
    rows = [dict(name=name, ok=rep.ok, checked=rep.checked,
                 first_violation=rep.first_violation, note=rep.note)
            for name, rep in checks]
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


# ---------------------------------------------------------------------------
# Declarations and parser assembly
# ---------------------------------------------------------------------------

#: Each flag but --format and --out (which stay text), declared once: its
#: converter, called with the flag's name for its errors, and its help.
_FLAGS = {
    "set": (parse_set_spec, "part-set spec"),
    "limit": (_int_token, "table limit N"),
    "grid": (parse_grid, "integer grid"),
    "xs": (parse_x_grid, "x grid (pow2:K1[:K2] or floats)"),
    "alpha": (_parse_fraction, "lower density (rational)"),
    "beta": (_parse_fraction, "upper density (rational)"),
    "density": (_parse_fraction, "natural density (target pi^2 d/6)"),
    "target": (_float_token, "explicit target rate"),
    "band": (parse_band, "override band lo,hi"),
    "rel-tol": (_float_token, "band half-width"),
    "tail-tol": (_float_token, "truncation tolerance"),
    "max-shift": (_int_token, "largest shift to verify"),
}


class _Command(NamedTuple):
    handler: object
    help: str
    format: str             # the default --format
    required: tuple         # flags, listed first by --help
    optional: dict = {}     # flag -> default text, or None for no default
    helps: dict = {}        # flag -> its help here, in place of _FLAGS's


#: Every subcommand, declared once, in --help order.
_COMMANDS = {
    "table": _Command(_cmd_table, "exact partition counts p(0..N)", "csv",
                      ("set", "limit")),
    "pentagonal": _Command(
        _cmd_pentagonal, "unrestricted counts via the pentagonal recurrence",
        "csv", ("limit",)),
    "density": _Command(_cmd_density, "exact counting ratios A(x)/x on a grid",
                        "csv", ("set", "grid")),
    "ratio": _Command(_cmd_ratio, "normalized growth ratios on a grid", "csv",
                      ("set", "grid")),
    "finite-asym": _Command(
        _cmd_finite_asym, "polynomial-law ratio for a finite part set", "csv",
        ("set", "grid"), helps={"set": "finite part-set spec"}),
    "direct-probe": _Command(
        _cmd_direct_probe, "growth-ratio band probe from density targets",
        "json", ("set", "grid", "alpha", "beta"),
        {"band": None, "rel-tol": "0.10"}),
    "arithpro-probe": _Command(
        _cmd_arithpro_probe,
        "growth probe for residue classes (target sqrt(l/m))", "json",
        ("set", "grid"), {"band": None, "rel-tol": "0.10"},
        helps={"set": "mod:M:r1,... spec"}),
    "sb": _Command(_cmd_sb, "log-series coefficients and prefix sums", "csv",
                   ("set", "limit"), helps={"limit": "series limit N"}),
    "invert": _Command(
        _cmd_invert,
        "inversion round-trip check against the counting function", "json",
        ("set", "limit"), helps={"limit": "check all n <= N"}),
    "genfun": _Command(
        _cmd_genfun, "evaluate log of the partition product on an x grid; "
        "with --density, run the scaled-limit probe", "json", ("set", "xs"),
        {"tail-tol": "1e-9", "density": None, "band": None, "rel-tol": "0.02"},
        helps={"density": "natural density: probe (1-x)log F vs pi^2 d/6",
               "band": "override band lo,hi (probe mode)"}),
    "tauberian-probe": _Command(
        _cmd_tauberian_probe, "probe the mean of the log-series coefficients",
        "json", ("set", "grid"),
        {"density": None, "target": None, "rel-tol": "0.01"}),
    "check-lemmas": _Command(
        _cmd_check_lemmas, "exhaustive monotonicity and window-max checks",
        "json", ("set",), {"limit": "500", "max-shift": "20"},
        helps={"limit": "table limit"}),
}
_HANDLERS = {name: command.handler for name, command in _COMMANDS.items()}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors (a missing or unknown flag, a
    bad --format, an unknown subcommand) raise ValueError, so they leave
    through main's one error line like every other refusal."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="partgrowth",
        description="Exact restricted-partition tables, density data, and "
                    "finite-scale growth probes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag in (*command.required, *command.optional):
            default = command.optional.get(flag)
            text = command.helps.get(flag, _FLAGS[flag][1])
            if default is not None:
                text += f" (default {default})"
            sp.add_argument("--" + flag, required=flag in command.required,
                            default=default, help=text)
        sp.add_argument("--format", choices=("csv", "json"),
                        default=command.format,
                        help=f"output format (default {command.format})")
        sp.add_argument("--out",
                        help="write the report to PATH instead of stdout")
    return parser


def run(request) -> int:
    """Execute a parsed request; returns the process exit code.

    The flags were parsed under Python's cap on int-to-str digits (absent
    before 3.10.7); the handler runs without it, so exact results of any
    size print, such as sb's prefix sums."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        return _HANDLERS[request.command](request.options)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def main(argv=None) -> int:
    try:
        return run(CommandRequest.from_argv(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:  # --help: usage went to stdout
        return int(exc.code or 0)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
