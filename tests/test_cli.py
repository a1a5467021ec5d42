"""Command-line surface: parsing, dispatch, exit codes, serialization."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_GRIDS, BAD_X_GRIDS, X_GRID_RULE
from partgrowth import cli, counting
from partgrowth.asymptotics import growth_ratio
from partgrowth.cli import (_HANDLERS, CommandRequest, build_parser, main,
                            parse_band, parse_grid, parse_set_spec,
                            parse_x_grid)
from partgrowth.genfun import log_gf_coefficients
from partgrowth.partsets import (AllParts, CofiniteTail, FiniteParts,
                                 PrimeParts, ResidueParts)
from partgrowth.reports import frac_str


def _run(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


# -- spec parsing -----------------------------------------------------------

def test_parse_set_spec_variants(tmp_path):
    assert parse_set_spec("all") == AllParts()
    assert parse_set_spec("primes") == PrimeParts()
    assert parse_set_spec("finite:2,3") == FiniteParts((2, 3))
    assert parse_set_spec("mod:4:1,3") == ResidueParts(4, (1, 3))
    assert parse_set_spec("cofinite:5") == CofiniteTail(5)
    path = tmp_path / "parts.txt"
    path.write_text("3\n7\n")
    assert parse_set_spec(f"file:{path}").parts == (3, 7)


def test_parse_set_spec_diagnostics():
    with pytest.raises(ValueError, match="residue 5 exceeds modulus 4"):
        parse_set_spec("mod:4:5")
    with pytest.raises(ValueError, match="unknown set spec tag 'evens'"):
        parse_set_spec("evens")
    with pytest.raises(ValueError, match="not a decimal integer: 'x'"):
        parse_set_spec("finite:1,x")
    with pytest.raises(ValueError, match="modulus and residues"):
        parse_set_spec("mod:4")
    with pytest.raises(ValueError, match="needs a part list"):
        parse_set_spec("finite:")
    with pytest.raises(ValueError, match="needs a start"):
        parse_set_spec("cofinite:")
    with pytest.raises(ValueError, match="unexpected payload"):
        parse_set_spec("all:1")
    with pytest.raises(ValueError, match="empty set spec"):
        parse_set_spec("")


# -- grid parsing -----------------------------------------------------------

def test_parse_grid_forms():
    assert parse_grid("1") == (1,)
    assert parse_grid("10,20,30") == (10, 20, 30)
    assert parse_grid("list:5,9") == (5, 9)
    assert parse_grid("geo:100:1000:10") == (100, 1000)
    assert parse_grid("geo:10:100:2.5") == (10, 25, 62, 100)


def test_parse_grid_geo_always_hits_stop():
    grid = parse_grid("geo:7:2000:3")
    assert grid[0] == 7 and grid[-1] == 2000
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_parse_grid_errors():
    with pytest.raises(ValueError):
        parse_grid("")
    with pytest.raises(ValueError):
        parse_grid("5,5")
    with pytest.raises(ValueError):
        parse_grid("0,5")
    # "" and "1.0" fail as text, before the grid rule sees a point
    for grid in BAD_GRIDS:
        with pytest.raises(ValueError):
            parse_grid(",".join(map(str, grid)))
    with pytest.raises(ValueError):
        parse_grid("geo:10:5:2")
    with pytest.raises(ValueError):
        parse_grid("geo:10:50:1")
    with pytest.raises(ValueError):
        parse_grid("geo:10:50")
    for factor in ("inf", "nan", "-inf"):
        with pytest.raises(ValueError, match="grid factor: not a finite"):
            parse_grid(f"geo:1:10:{factor}")


def test_parse_x_grid_forms():
    assert parse_x_grid("pow2:3") == (1 - 2.0 ** -3,)
    assert parse_x_grid("pow2:2:4") == (0.75, 0.875, 0.9375)
    assert parse_x_grid("0.5,0.9") == (0.5, 0.9)
    assert parse_x_grid("list:0.25") == (0.25,)


def test_parse_x_grid_errors():
    with pytest.raises(ValueError):
        parse_x_grid("pow2:4:2")
    with pytest.raises(ValueError):
        parse_x_grid("0.9,0.5")
    with pytest.raises(ValueError):
        parse_x_grid("0.5,1.5")
    with pytest.raises(ValueError):
        parse_x_grid("")
    with pytest.raises(ValueError, match="not a finite"):
        parse_x_grid("0.5,nan")
    for grid in BAD_X_GRIDS:
        with pytest.raises(ValueError, match=X_GRID_RULE):
            parse_x_grid(",".join(map(repr, grid)))
    # past k = 53, 1 - 2^-k rounds to 1.0: refused before any x is built
    for text in ("pow2:54", "pow2:1:54"):
        with pytest.raises(ValueError, match="K2 <= 53"):
            parse_x_grid(text)
    assert parse_x_grid("pow2:53") == (1.0 - 2.0 ** -53,)


def test_parse_band():
    assert parse_band("0.5,0.8") == (0.5, 0.8)
    with pytest.raises(ValueError):
        parse_band("0.5")
    with pytest.raises(ValueError):
        parse_band("0.8,0.5")
    for text in ("nan,nan", "-inf,inf", "0,inf"):
        with pytest.raises(ValueError, match="band: not a finite"):
            parse_band(text)


# -- requests ---------------------------------------------------------------

def test_request_options_are_the_given_flags():
    # each subcommand given only its required flags: each flag is
    # converted once, defaults included; flags without a value or default
    # are absent, and --format stays text
    every = {"set": AllParts()}
    direct_probe = ["direct-probe", "--set", "mod:2:1", "--grid", "100,200",
                    "--alpha", "1/2", "--beta", "1/2"]
    cases = [
        (["table", "--set", "all", "--limit", "5"],
         {**every, "limit": 5, "format": "csv"}),
        (["pentagonal", "--limit", "5"], {"limit": 5, "format": "csv"}),
        (["density", "--set", "all", "--grid", "10,20"],
         {**every, "grid": (10, 20), "format": "csv"}),
        (["ratio", "--set", "all", "--grid", "10,20"],
         {**every, "grid": (10, 20), "format": "csv"}),
        (["finite-asym", "--set", "finite:1,2", "--grid", "10"],
         {"set": FiniteParts((1, 2)), "grid": (10,), "format": "csv"}),
        (direct_probe,
         {"set": ResidueParts(2, (1,)), "grid": (100, 200),
          "alpha": Fraction(1, 2), "beta": Fraction(1, 2), "rel-tol": 0.1,
          "format": "json"}),
        (["arithpro-probe", "--set", "mod:2:1", "--grid", "10,20"],
         {"set": ResidueParts(2, (1,)), "grid": (10, 20), "rel-tol": 0.1,
          "format": "json"}),
        (["sb", "--set", "all", "--limit", "5"],
         {**every, "limit": 5, "format": "csv"}),
        (["invert", "--set", "all", "--limit", "5"],
         {**every, "limit": 5, "format": "json"}),
        (["genfun", "--set", "all", "--xs", "pow2:1:2"],
         {**every, "xs": (0.5, 0.75), "tail-tol": 1e-9, "rel-tol": 0.02,
          "format": "json"}),
        (["tauberian-probe", "--set", "all", "--grid", "10"],
         {**every, "grid": (10,), "rel-tol": 0.01, "format": "json"}),
        (["check-lemmas", "--set", "all"],
         {**every, "limit": 500, "max-shift": 20, "format": "json"}),
    ]
    assert [argv[0] for argv, _ in cases] == list(_HANDLERS)
    for argv, options in cases:
        request = CommandRequest.from_argv(argv)
        assert request.command == argv[0]
        assert request.options == options, argv
    # a rational prints as it was typed
    alpha = CommandRequest.from_argv(direct_probe).options["alpha"]
    assert str(alpha) == "1/2"


def test_every_subcommand_has_a_handler(capsys):
    parser = build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert set(commands) == set(_HANDLERS)
    for name in commands:
        assert main([name, "--help"]) == 0, name
        out, err = capsys.readouterr()
        assert out.startswith("usage: partgrowth " + name) and err == ""


# -- subcommands ------------------------------------------------------------

def test_table_csv_last_row(capsys):
    code, out, _ = _run("table", "--set", "finite:1,2,3", "--limit", "6",
                        "--format", "csv", capsys=capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["n", "count"]
    assert rows[-1] == ["6", "7"]


def test_table_json_uses_decimal_strings(capsys):
    code, out, _ = _run("table", "--set", "all", "--limit", "400",
                        "--format", "json", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    # p(400) is far beyond 2^53; it must arrive as a string, undamaged
    assert obj["counts"][400] == "6727090051741041926"
    assert obj["counts"][12] == "77"
    assert all(isinstance(c, str) for c in obj["counts"])


def test_table_format_independence(capsys):
    code, csv_out, _ = _run("table", "--set", "mod:2:1", "--limit", "50",
                            "--format", "csv", capsys=capsys)
    assert code == 0
    code, json_out, _ = _run("table", "--set", "mod:2:1", "--limit", "50",
                             "--format", "json", capsys=capsys)
    assert code == 0
    csv_counts = [row[1] for row in _csv_rows(csv_out)[1:]]
    assert csv_counts == json.loads(json_out)["counts"]


def test_pentagonal_subcommand(capsys):
    code, out, _ = _run("pentagonal", "--limit", "100", capsys=capsys)
    assert code == 0
    assert _csv_rows(out)[-1] == ["100", "190569292"]


def test_density_subcommand(capsys):
    code, out, _ = _run("density", "--set", "primes", "--grid", "100",
                        "--format", "json", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["ratios"] == ["1/4"]
    code, out, _ = _run("density", "--set", "mod:2:1", "--grid", "10,20",
                        "--format", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["ratios"] == ["1/2", "1/2"]
    code, out, _ = _run("density", "--set", "mod:2:1", "--grid", "10,20",
                        capsys=capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["x", "ratio", "ratio_float", "tail_min", "tail_max"]
    assert rows[1][1] == "1/2"


def test_ratio_trivial_row(capsys):
    code, out, _ = _run("ratio", "--set", "all", "--grid", "1,10",
                        capsys=capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["n", "ratio"]
    assert rows[1] == ["1", "0.0"]
    code, out, _ = _run("ratio", "--set", "all", "--grid", "1,10",
                        "--format", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["grid"] == [1, 10]


def test_ratio_undefined_entries_blank(capsys):
    code, out, _ = _run("ratio", "--set", "finite:2", "--grid", "2,5",
                        capsys=capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert rows[2] == ["5", ""]


def test_finite_asym_subcommand(capsys):
    code, out, _ = _run("finite-asym", "--set", "finite:1,2", "--grid",
                        "1000", capsys=capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert rows[1][0] == "1000"
    assert rows[1][1] == "501/500"


def test_finite_asym_refuses_before_building_the_table(capsys,
                                                       monkeypatch):
    def unreachable(*args):
        raise AssertionError("a count was taken")

    monkeypatch.setattr(cli, "grid_counts", unreachable)
    for spec, message in (
            ("primes", "leading ratio needs a finite part set, got primes"),
            ("finite:2,4",
             "part set has common divisor 2; normalize by the gcd first")):
        code, out, err = _run("finite-asym", "--set", spec, "--grid",
                              "20000", capsys=capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_direct_probe_pass_and_fail_exit_codes(capsys):
    argv = ["direct-probe", "--set", "mod:2:1", "--grid", "200,500,1000",
            "--alpha", "1/2", "--beta", "1/2"]
    code, out, _ = _run(*argv, "--band", "0.5,0.8", capsys=capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out, _ = _run(*argv, "--band", "0.99,1.0", capsys=capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_direct_probe_gcd_guard(capsys):
    code, _, err = _run("direct-probe", "--set", "finite:2,4", "--grid",
                        "10,20", "--alpha", "0", "--beta", "0", capsys=capsys)
    assert code == 2
    assert "normalize" in err


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_direct_probe_without_defined_samples_is_valid_json(capsys):
    # no partition of 1 or 7 into 3s and 5s: every ratio is undefined
    code, out, _ = _run("direct-probe", "--set", "finite:3,5", "--grid",
                        "1,7", "--alpha", "0", "--beta", "0", capsys=capsys)
    assert code == 1
    obj = _strict_json(out)
    assert obj["values"] == [None, None]
    assert obj["tail_min"] is None and obj["tail_max"] is None


def test_direct_probe_gcd_is_of_the_whole_set(capsys):
    # the parts up to 2 are {2}, but gcd(2, 3) = 1: a report, not a refusal
    code, out, _ = _run("direct-probe", "--set", "finite:2,3", "--grid",
                        "1,2", "--alpha", "0", "--beta", "0", capsys=capsys)
    assert code == 1
    assert _strict_json(out)["values"] == [None, 0.0]


def test_arithpro_probe_requires_residue_set(capsys):
    code, _, err = _run("arithpro-probe", "--set", "primes", "--grid", "10,20",
                        capsys=capsys)
    assert code == 2
    assert "mod:" in err


def test_arithpro_probe_hypothesis_witness(capsys):
    code, _, err = _run("arithpro-probe", "--set", "mod:2:2", "--grid",
                        "10,20", capsys=capsys)
    assert code == 2
    assert "gcd = 2" in err


def test_arithpro_probe_pass(capsys):
    code, out, _ = _run("arithpro-probe", "--set", "mod:2:1", "--grid",
                        "200,500,1000", "--band", "0.5,0.8", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["probe_target"] == pytest.approx(math.sqrt(0.5))


def test_probe_format_independence(capsys):
    argv = ["arithpro-probe", "--set", "mod:2:1", "--grid", "200,500",
            "--band", "0,1"]
    code, json_out, _ = _run(*argv, capsys=capsys)
    assert code == 0
    code, csv_out, _ = _run(*argv, "--format", "csv", capsys=capsys)
    assert code == 0
    obj = json.loads(json_out)
    assert obj["passed"] is True
    assert obj["band"] == [0.0, 1.0]
    rows = _csv_rows(csv_out)
    assert rows[0] == ["x", "value"]
    assert [int(r[0]) for r in rows[1:]] == obj["xs"] == [200, 500]
    assert [float(r[1]) for r in rows[1:]] == obj["values"]


def test_sb_subcommand(capsys):
    code, out, _ = _run("sb", "--set", "finite:1", "--limit", "3",
                        capsys=capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["l", "coeff", "prefix_sum"]
    assert rows[3] == ["3", "1/3", "11/6"]
    code, out, _ = _run("sb", "--set", "finite:1", "--limit", "3",
                        "--format", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["prefix_sums"] == ["1/1", "3/2", "11/6"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Pythons before 3.10.7 cap no int-to-str digits")
def test_sb_prints_past_the_int_digit_cap(capsys):
    # the denominator of S(1600) has about 690 digits, past a cap of 640;
    # the cap still guards the parsing of the flags and is restored after
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, _, err = _run("sb", "--set", "all", "--limit", "1" * 700,
                            capsys=capsys)
        assert code == 2 and "limit: not a decimal integer" in err
        code, out, err = _run("sb", "--set", "all", "--limit", "1600",
                              capsys=capsys)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(cap)
    assert code == 0, err
    last = _csv_rows(out)[-1]
    assert last[0] == "1600"
    assert last[2] == frac_str(log_gf_coefficients(AllParts(), 1600).sums[-1])


def test_invert_reports_exact_match(capsys):
    code, out, _ = _run("invert", "--set", "mod:2:1", "--limit", "100",
                        capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["note"] == "exact match at all n <= 100"


def test_invert_format_independence(capsys):
    code, json_out, _ = _run("invert", "--set", "finite:1,2,3", "--limit",
                             "40", capsys=capsys)
    assert code == 0
    code, csv_out, _ = _run("invert", "--set", "finite:1,2,3", "--limit",
                            "40", "--format", "csv", capsys=capsys)
    assert code == 0
    obj = json.loads(json_out)
    rows = _csv_rows(csv_out)
    assert rows[1] == [obj["set"], str(obj["limit"]), str(obj["ok"]),
                       obj["note"]]


def test_genfun_eval_mode(capsys):
    code, out, _ = _run("genfun", "--set", "finite:1", "--xs", "0.5",
                        "--tail-tol", "0", "--format", "json", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["log_f"][0] == pytest.approx(math.log(2), rel=1e-14)
    assert obj["scaled"][0] == pytest.approx(0.5 * math.log(2), rel=1e-14)


def test_genfun_probe_mode(capsys):
    code, out, _ = _run("genfun", "--set", "mod:2:1", "--xs", "pow2:14",
                        "--density", "1/2", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["target"] == pytest.approx(math.pi ** 2 / 12)


@pytest.mark.parametrize("spec,xs", [("all", "1e-300"),
                                     ("finite:1,2", "1e-17"),
                                     ("primes", "5e-324,2e-16,0.5")])
def test_genfun_takes_x_where_x_minus_one_rounds_to_minus_one(capsys, spec,
                                                              xs):
    code, out, _ = _run("genfun", "--set", spec, "--xs", xs, "--format",
                        "json", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert all(math.isfinite(v) and v >= 0 for v in obj["log_f"])
    if spec.startswith("finite"):
        # -log(1 - x) - log(1 - x^2) = x + O(x^2)
        assert obj["log_f"][0] == pytest.approx(1e-17, rel=1e-13)


def test_genfun_huge_finite_part_adds_nothing(capsys):
    # its term is -0.0 at any x: the report is finite:1's but for the set
    reports = []
    for spec in ("finite:1", "finite:1,1" + "0" * 400):
        code, out, _ = _run("genfun", "--set", spec, "--xs", "list:0.5,0.9",
                            capsys=capsys)
        assert code == 0 and json.loads(out)["set"] == spec
        reports.append(out.replace(spec, "SET"))
    assert reports[0] == reports[1]


def test_genfun_band_needs_density(capsys):
    code, _, err = _run("genfun", "--set", "all", "--xs", "0.5", "--band",
                        "0,1", capsys=capsys)
    assert code == 2
    assert "--density" in err


def test_tauberian_subcommand(capsys):
    code, out, _ = _run("tauberian-probe", "--set", "mod:2:1", "--grid",
                        "10000", "--density", "1/2", capsys=capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_tauberian_needs_one_target(capsys):
    code, _, err = _run("tauberian-probe", "--set", "all", "--grid", "100",
                        capsys=capsys)
    assert code == 2
    assert "exactly one" in err
    code, _, err = _run("tauberian-probe", "--set", "all", "--grid", "100",
                        "--density", "1", "--target", "1.6", capsys=capsys)
    assert code == 2


def test_check_lemmas_pass(capsys):
    code, out, _ = _run("check-lemmas", "--set", "cofinite:2", "--limit",
                        "100", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["all_ok"] is True
    names = [c["name"] for c in obj["checks"]]
    assert "window-max" in names
    assert any(name.startswith("cofinite-strict") for name in names)


def test_check_lemmas_skips_unpartitionable_shifts(capsys):
    code, out, _ = _run("check-lemmas", "--set", "finite:2,3", "--limit",
                        "60", "--max-shift", "4", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    names = [c["name"] for c in obj["checks"]]
    assert "shift-monotonic(shift=1)" not in names   # p(1) = 0 for {2,3}
    assert "shift-monotonic(shift=2)" in names


def test_file_spec_through_cli(tmp_path, capsys):
    path = tmp_path / "parts.txt"
    path.write_text("1\n2\n3\n")
    code, out, _ = _run("table", "--set", f"file:{path}", "--limit", "6",
                        capsys=capsys)
    assert code == 0
    assert _csv_rows(out)[-1] == ["6", "7"]


def test_file_spec_json_names_the_file(tmp_path, capsys):
    path = tmp_path / "parts.txt"
    path.write_text("3\n1\n2\n")
    code, out, _ = _run("table", "--set", f"file:{path}", "--limit", "12",
                        "--format", "json", capsys=capsys)
    assert code == 0
    from_file = json.loads(out)
    assert from_file["set"] == f"file:{path}"
    code, out, _ = _run("table", "--set", "finite:1,2,3", "--limit", "12",
                        "--format", "json", capsys=capsys)
    assert code == 0
    assert from_file["counts"] == json.loads(out)["counts"]


def test_file_spec_error_names_line(tmp_path, capsys):
    path = tmp_path / "parts.txt"
    path.write_text("1\nbogus\n")
    code, _, err = _run("table", "--set", f"file:{path}", "--limit", "6",
                        capsys=capsys)
    assert code == 2
    assert ":2:" in err and "bogus" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = _run("table", "--set", "all", "--limit", "4", "--out",
                        str(target), capsys=capsys)
    assert code == 0
    assert out == ""
    assert _csv_rows(target.read_text())[-1] == ["4", "5"]


def test_out_file_holds_the_stdout_report(tmp_path, capsys):
    for argv in (["pentagonal", "--limit", "300", "--format", "json"],
                 ["ratio", "--set", "all", "--grid", "geo:10:3000:3"],
                 ["direct-probe", "--set", "mod:2:1", "--grid", "50,100",
                  "--alpha", "1/2", "--beta", "1/2", "--format", "csv"]):
        target = tmp_path / "report"
        code, out, _ = _run(*argv, capsys=capsys)
        assert _run(*argv, "--out", str(target), capsys=capsys) == (code, "", "")
        assert target.read_text(encoding="utf-8") == out, argv


def test_point_route_answers_past_the_table_budget(monkeypatch, capsys):
    pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import partition

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(counting, "partition_table", refuse)
    monkeypatch.setattr(counting, "_euler_quotient", refuse)
    want = {n: growth_ratio(int(partition(n)), n) for n in (10**5, 10**6)}
    code, out, err = _run("ratio", "--set", "all", "--grid", "1000000",
                          "--format", "json", capsys=capsys)
    assert (code, err) == (0, "")
    assert _strict_json(out)["ratios"] == [want[10**6]]
    code, out, err = _run("direct-probe", "--set", "all", "--grid",
                          "100000,1000000", "--alpha", "1", "--beta", "1",
                          capsys=capsys)
    assert (code, err) == (0, "")
    assert _strict_json(out)["values"] == [want[10**5], want[10**6]]


# -- the exit contract, fuzzed ----------------------------------------------

#: Per flag of cli._FLAGS: a strategy for valid texts at small sizes
#: (limits <= 60, pow2 <= 12), and texts it refuses (None leaves it out).
_FLAG_TEXTS = {
    "set": (st.sampled_from([
        "all", "primes", "finite:1,2", "finite:2,3", "finite:3,5",
        "finite:1,2,3", "mod:2:1", "mod:4:1,3", "mod:3:1,2", "cofinite:3"]),
        [None, "evens", "finite:", "mod:4:5", "mod:4:2", "cofinite:0",
         "finite:2,4"]),
    "limit": (st.integers(1, 60).map(str), [None, "-1", "0", "x", ""]),
    "grid": (st.lists(st.integers(1, 60), min_size=1, max_size=4,
                      unique=True).map(lambda v: ",".join(map(str, sorted(v))))
             | st.sampled_from(["geo:1:60:1.5", "geo:2:50:2"]),
             [None, "", "0", "3,1", "2,2", "geo:1:10:inf", "geo:10:20:1e308",
              "geo:5:1:2", "1.5"]),
    "xs": (st.integers(1, 12).flatmap(lambda k: st.integers(k, 12).map(
        lambda j: f"pow2:{k}:{j}")) | st.just("0.5,0.9"),
        [None, "0.9,0.5", "1.5", "pow2:0", "nan", ""]),
    "alpha": (st.sampled_from(["0", "1/3", "1/2", "1"]),
              [None, "2", "-1", "x", "1e5000"]),
    "beta": (st.sampled_from(["0", "1/2", "1"]), [None, "3/2", "1/0"]),
    "density": (st.sampled_from(["0", "1/2", "1"]), [None, "2", "-1", "x"]),
    "target": (st.sampled_from(["0", "0.82", "1.64"]), [None, "nan", "-1"]),
    "band": (st.sampled_from(["0.1,0.9", "0.5,1.7"]),
             [None, "0.9,0.1", "nan,1", "x"]),
    "rel-tol": (st.sampled_from(["0.1", "0.02", "0"]), [None, "-1", "inf"]),
    "tail-tol": (st.sampled_from(["1e-9", "1e-6"]), [None, "0", "-1"]),
    "max-shift": (st.integers(1, 30).map(str), [None, "0", "-1"]),
}


@st.composite
def _argvs(draw):
    """A subcommand with its required flags, a subset of its optional
    flags and maybe --format, all valid texts but for at most one
    refused or left out; with the format its report is written in."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    command = cli._COMMANDS[name]
    flags = [*command.required,
             *(f for f in command.optional if draw(st.booleans()))]
    texts = {flag: draw(_FLAG_TEXTS[flag][0]) for flag in flags}
    spoiled = draw(st.sampled_from([None] * len(flags) + flags))
    if spoiled:
        texts[spoiled] = draw(st.sampled_from(_FLAG_TEXTS[spoiled][1]))
    argv = [name]
    for flag, text in texts.items():
        if text is not None:
            argv += ["--" + flag, text]
    fmt = draw(st.sampled_from([None, "csv", "json"]))
    if fmt:
        argv += ["--format", fmt]
    return argv, fmt or command.format


def test_fuzz_strategies_cover_every_flag():
    assert set(_FLAG_TEXTS) == set(cli._FLAGS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn=_argvs())
def test_exit_contract_fuzz(drawn):
    argv, fmt = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.count("\n") == 1, argv
        assert err.startswith("error: "), argv
        return
    assert code in (0, 1) and err == "", argv
    if fmt == "json":
        _strict_json(out)
    else:
        rows = _csv_rows(out)
        assert rows and all(re.fullmatch(r"[a-z_]+", h) for h in rows[0]), argv
        assert all(len(row) == len(rows[0]) for row in rows), argv


def test_usage_errors_exit_2(capsys):
    assert main(["table"]) == 2                      # missing required flags
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    code, _, err = _run("table", "--set", "mod:4:5", "--limit", "5",
                        capsys=capsys)
    assert code == 2
    assert "residue 5 exceeds modulus 4" in err
    # every refusal, argparse's included: one line on stderr, nothing on
    # stdout
    for argv, message in [
        (["table", "--limit", "5"], "required: --set"),
        (["table", "--set", "all", "--limit", "5", "--bogus", "1"],
         "unrecognized arguments: --bogus 1"),
        (["table", "--set", "all", "--limit", "5", "--format", "xml"],
         "invalid choice: 'xml'"),
        (["no-such-command"], "invalid choice: 'no-such-command'"),
        (["table", "--set", "all", "--limit", "-1"], "limit must be >= 0, got -1"),
        (["check-lemmas", "--set", "all", "--limit", "0"],
         "limit must be >= 1, got 0"),
        (["check-lemmas", "--set", "all", "--max-shift", "0"],
         "max-shift must be >= 1, got 0"),
        (["direct-probe", "--set", "all", "--grid", "10", "--alpha", "1/0",
          "--beta", "1"], "alpha: not a rational: '1/0'"),
        (["genfun", "--set", "all", "--xs", "0.5", "--density", "x"],
         "density: not a rational: 'x'"),
        (["direct-probe", "--set", "all", "--grid", "10", "--alpha", "1",
          "--beta", "1", "--rel-tol", "x"], "rel-tol: not a number: 'x'"),
        (["table", "--set", "primes:3", "--limit", "5"],
         "unexpected payload after 'primes'"),
        (["table", "--set", "file:", "--limit", "5"], "file spec needs a path"),
        (["genfun", "--set", "all", "--xs", "pow2:1:2:3"],
         "pow2 grid is pow2:K1[:K2]"),
        (["check-lemmas", "--set", "cofinite:600", "--limit", "500"],
         "no member of cofinite:600 within limit 500"),
        # out-of-range numbers
        (["density", "--set", "all", "--grid", "geo:1:10:inf"], "not a finite"),
        (["ratio", "--set", "all", "--grid", "geo:10:20:1e308"],
         "grid factor 1e+308 overflows a float at point 2"),
        (["genfun", "--set", "all", "--xs", "0.5", "--tail-tol", "inf"],
         "not a finite"),
        (["genfun", "--set", "all", "--xs", "0.5", "--density", "1", "--band",
          "nan,nan", "--format", "csv"], "not a finite"),
        (["genfun", "--set", "all", "--xs", "0.5", "--density", "1", "--band",
          "nan,nan"], "not a finite"),
        (["direct-probe", "--set", "all", "--grid", "10", "--alpha", "1",
          "--beta", "1", "--rel-tol", "nan"], "not a finite"),
        (["tauberian-probe", "--set", "all", "--grid", "10", "--target", "inf"],
         "not a finite"),
        (["genfun", "--set", "all", "--xs", "pow2:54"], "K2 <= 53"),
        (["genfun", "--set", "all", "--xs", "0.5", "--density", "-1"], "[0, 1]"),
        (["genfun", "--set", "all", "--xs", "0.5", "--density", "2"], "[0, 1]"),
        (["tauberian-probe", "--set", "all", "--grid", "10", "--density", "2"],
         "[0, 1]"),
        # a negative tolerance would invert the band
        (["direct-probe", "--set", "all", "--grid", "10,20", "--alpha", "1",
          "--beta", "1", "--rel-tol", "-5"], "rel_tol must be >= 0"),
        (["tauberian-probe", "--set", "all", "--grid", "10", "--target", "1",
          "--rel-tol", "-3"], "rel_tol must be >= 0"),
        (["genfun", "--set", "all", "--xs", "0.5", "--density", "1",
          "--rel-tol", "-3"], "rel_tol must be >= 0"),
        (["arithpro-probe", "--set", "mod:2:1", "--grid", "10,20",
          "--rel-tol", "-1"], "rel_tol must be >= 0"),
        # float() of these densities would overflow
        (["direct-probe", "--set", "all", "--grid", "10,20", "--alpha",
          "1e400", "--beta", "1e400"], "lower <= upper"),
        (["direct-probe", "--set", "all", "--grid", "10,20", "--alpha", "0",
          "--beta", "1e400"], "lower <= upper"),
        # rationals are bounded before Fraction() builds them, and a range
        # error prints the flag's text
        (["genfun", "--set", "all", "--xs", "0.5", "--density", "1e5000"],
         "exponent beyond"),
        (["tauberian-probe", "--set", "all", "--grid", "10", "--density",
          "1e5000"], "exponent beyond"),
        (["direct-probe", "--set", "all", "--grid", "10,20", "--alpha", "0",
          "--beta", "1e3000000"], "exponent beyond"),
        (["genfun", "--set", "all", "--xs", "0.5", "--density", "1" * 101],
         "longer than 100"),
        (["genfun", "--set", "all", "--xs", "0.5", "--density", "1e999"],
         "[0, 1], got 1e999"),
        (["direct-probe", "--set", "all", "--grid", "10,20", "--alpha",
          "1/2", "--beta", "1e-999"], "got 1/2, 1e-999"),
        # a band end past the float range, and a ratio too large for one
        *(([*argv, "--format", fmt], message) for argv, message in (
            (["tauberian-probe", "--set", "all", "--grid", "10", "--density",
              "1", "--rel-tol", "1.2e308"], "past the float range"),
            (["genfun", "--set", "all", "--xs", "list:0.5", "--density", "1",
              "--rel-tol", "1.2e308"], "past the float range"),
            (["finite-asym", "--set", "finite:1,1" + "0" * 400, "--grid",
              "1"], "too large for a float"),
        ) for fmt in ("json", "csv")),
    ]:
        code, out, err = _run(*argv, capsys=capsys)
        assert code == 2, argv
        assert out == "" and err.count("\n") == 1, argv
        assert err.startswith("error: ") and message in err, argv


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_a_reader_that_stops_early_ends_the_report_quietly():
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    for argv in (["pentagonal", "--limit", "3000", "--format", "json"],
                 ["pentagonal", "--limit", "3000", "--format", "csv"]):
        child = subprocess.Popen(
            [sys.executable, "-m", "partgrowth.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert child.stdout.read(100)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=60), err) == (0, b""), argv


def test_module_entry_point_as_a_process():
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "partgrowth.cli", *args],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    assert run("--help").returncode == 0
    done = run("table", "--set", "finite:1,2,3", "--limit", "6")
    assert done.returncode == 0
    assert _csv_rows(done.stdout)[-1] == ["6", "7"]
    done = run("table", "--set", "evens", "--limit", "6")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
