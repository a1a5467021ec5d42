"""Command-line surface: parsing, dispatch, exit codes, serialization."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from partgrowth.cli import (CommandRequest, main, parse_band, parse_grid,
                            parse_set_spec, parse_x_grid)
from partgrowth.partsets import (AllParts, CofiniteTail, FiniteParts,
                                 PrimeParts, ResidueParts)


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
    request = CommandRequest.from_argv(
        ["direct-probe", "--set", "mod:2:1", "--grid", "100,200",
         "--alpha", "1/2", "--beta", "1/2"])
    assert request.command == "direct-probe"
    # defaults count as given; flags without a value or default are absent
    assert request.options == {
        "set": "mod:2:1", "grid": "100,200", "alpha": "1/2", "beta": "1/2",
        "rel-tol": "0.10", "format": "json"}


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


def test_usage_errors_exit_2(capsys):
    assert main(["table"]) == 2                      # missing required flags
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    code, _, err = _run("table", "--set", "mod:4:5", "--limit", "5",
                        capsys=capsys)
    assert code == 2
    assert "residue 5 exceeds modulus 4" in err
    # out-of-range numbers: one line on stderr, nothing on stdout
    for argv, message in [
        (["density", "--set", "all", "--grid", "geo:1:10:inf"], "not a finite"),
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
    ]:
        code, out, err = _run(*argv, capsys=capsys)
        assert code == 2, argv
        assert out == "" and err.count("\n") == 1, argv
        assert err.startswith("error: ") and message in err, argv


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


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
