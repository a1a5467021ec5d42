"""Golden CLI outputs: stdout and exit code, byte for byte.

Every subcommand runs on small inputs in CSV and JSON, plus the probe
modes (user band, density-default band, decay, zero target).  The files
under tests/golden/ pin the behaviour so refactors cannot change a byte.

Regenerate (only when a change to the output is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from partgrowth.cli import _HANDLERS, main

GOLDEN = pathlib.Path(__file__).with_name("golden")

_CASES = [
    ("table-all", ["table", "--set", "all", "--limit", "30"]),
    ("table-cofinite3", ["table", "--set", "cofinite:3", "--limit", "30"]),
    ("table-mod", ["table", "--set", "mod:4:1,3", "--limit", "20"]),
    ("pentagonal", ["pentagonal", "--limit", "30"]),
    ("density", ["density", "--set", "primes", "--grid", "1,10,100"]),
    ("ratio-all", ["ratio", "--set", "all", "--grid", "1,10,50,120"]),
    ("ratio-cofinite3", ["ratio", "--set", "cofinite:3", "--grid",
                         "1,10,50,120"]),
    ("finite-asym", ["finite-asym", "--set", "finite:1,2,3", "--grid",
                     "10,50,100"]),
    ("sb", ["sb", "--set", "mod:2:1", "--limit", "12"]),
    ("sb-all", ["sb", "--set", "all", "--limit", "40"]),
    ("sb-cofinite3", ["sb", "--set", "cofinite:3", "--limit", "40"]),
    ("invert", ["invert", "--set", "primes", "--limit", "30"]),
    ("genfun", ["genfun", "--set", "mod:2:1", "--xs", "pow2:2:5"]),
    ("check-lemmas-all", ["check-lemmas", "--set", "all", "--limit", "60"]),
    ("check-lemmas-cofinite3", ["check-lemmas", "--set", "cofinite:3",
                                "--limit", "60", "--max-shift", "5"]),
    ("check-lemmas-finite", ["check-lemmas", "--set", "finite:2,3",
                             "--limit", "40", "--max-shift", "4"]),
    ("direct-probe-band", ["direct-probe", "--set", "mod:2:1", "--grid",
                           "50,100,200", "--alpha", "1/2", "--beta", "1/2",
                           "--band", "0.5,0.8"]),
    ("direct-probe-density", ["direct-probe", "--set", "cofinite:3", "--grid",
                              "50,100,200", "--alpha", "1", "--beta", "1"]),
    ("direct-probe-decay", ["direct-probe", "--set", "primes", "--grid",
                            "50,100,200,400", "--alpha", "0", "--beta", "0"]),
    ("direct-probe-gcd", ["direct-probe", "--set", "finite:2,4", "--grid",
                          "10,20", "--alpha", "0", "--beta", "0"]),
    ("arithpro-probe", ["arithpro-probe", "--set", "mod:3:1,2", "--grid",
                        "50,100,200"]),
    ("genfun-probe", ["genfun", "--set", "mod:2:1", "--xs", "pow2:3:7",
                      "--density", "1/2"]),
    ("genfun-probe-band", ["genfun", "--set", "all", "--xs", "pow2:3:6",
                           "--density", "1", "--band", "1.5,1.7"]),
    ("genfun-probe-zero", ["genfun", "--set", "finite:1,2", "--xs",
                           "pow2:3:6", "--density", "0"]),
    ("tauberian-probe", ["tauberian-probe", "--set", "mod:2:1", "--grid",
                         "50,100,200", "--density", "1/2"]),
    ("tauberian-probe-zero", ["tauberian-probe", "--set", "finite:1,2",
                              "--grid", "50,100", "--target", "0",
                              "--rel-tol", "0.2"]),
    ("tauberian-probe-dense", ["tauberian-probe", "--set", "mod:2:1",
                               "--grid", "geo:1:300:1.0001", "--density",
                               "1/2"]),
]

CASES = [(f"{name}.{fmt}", argv + ["--format", fmt])
         for name, argv in _CASES for fmt in ("csv", "json")]

EXIT_CODES = GOLDEN / "exit_codes.json"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_every_subcommand_has_golden_cases():
    assert {argv[0] for _, argv in _CASES} == set(_HANDLERS)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv):
    code, out = _run(argv)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    codes = {}
    for name, argv in CASES:
        codes[name], out = _run(argv)
        (GOLDEN / name).write_bytes(out.encode("utf-8"))
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n")
