"""The package's public surface: every exported name exists, once, and
the frozen records keep their value semantics."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import partgrowth
from partgrowth import (AllParts, CheckReport, CoefficientSeries,
                        CofiniteTail, DensityProfile, FiniteParts,
                        GrowthSeries, PartitionTable, PrimeParts, ProbeReport,
                        ResidueParts)
from partgrowth.cli import CommandRequest

ONE = Fraction(1)


def test_every_public_name_resolves_once():
    names = partgrowth.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(partgrowth, name)]
    assert missing == []


# one small value of each frozen record type, its repr, and whether it
# hashes (a record holding a dict does not)
RECORDS = [
    (lambda: AllParts(), "AllParts()", True),
    (lambda: PrimeParts(), "PrimeParts()", True),
    (lambda: FiniteParts((1, 2)), "FiniteParts(parts=(1, 2), source='')",
     True),
    (lambda: ResidueParts(4, (1, 3)),
     "ResidueParts(modulus=4, residues=(1, 3))", True),
    (lambda: CofiniteTail(3), "CofiniteTail(start=3)", True),
    (lambda: DensityProfile(AllParts(), (1,), (ONE,), (ONE,), (ONE,)),
     "DensityProfile(spec=AllParts(), grid=(1,), ratios=(Fraction(1, 1),),"
     " tail_min=(Fraction(1, 1),), tail_max=(Fraction(1, 1),))", True),
    (lambda: PartitionTable(AllParts(), 1, (1, 1)),
     "PartitionTable(spec=AllParts(), limit=1, values=(1, 1))", True),
    (lambda: CheckReport(True, 3),
     "CheckReport(ok=True, checked=3, first_violation=None, note='')", True),
    (lambda: CoefficientSeries(AllParts(), 2, (0, 1, 3)),
     "CoefficientSeries(spec=AllParts(), limit=2, sigma=(0, 1, 3))", True),
    (lambda: GrowthSeries(AllParts(), (1,), (None,)),
     "GrowthSeries(spec=AllParts(), grid=(1,), ratios=(None,))", True),
    (lambda: ProbeReport("p", (1,), (0.5,), 0.0, 1.0, True, 0.5, 0.5, 0),
     "ProbeReport(name='p', xs=(1,), values=(0.5,), target_low=0.0, "
     "target_high=1.0, passed=True, tail_min=0.5, tail_max=0.5, "
     "direction=0, meta={})", False),
    (lambda: CommandRequest("table", {"limit": 3}),
     "CommandRequest(command='table', options={'limit': 3})", False),
]


@pytest.mark.parametrize("make, text, hashable", RECORDS,
                         ids=[text.partition("(")[0] for _, text, _ in RECORDS])
def test_record_contract(make, text, hashable):
    record = make()
    assert record == make() and record is not make()
    # equal to its own type's value only: AllParts() != PrimeParts()
    assert [other() == record for other, _, _ in RECORDS].count(True) == 1
    assert repr(record) == text
    if hashable:
        assert hash(record) == hash(make())
    else:
        with pytest.raises(TypeError):
            hash(record)
    for name in record.__match_args__ + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == make()
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                   copy.deepcopy(record)):
        assert type(copied) is type(record) and copied == record


def test_record_constructor_takes_each_field_once():
    table = PartitionTable(AllParts(), values=(1, 1), limit=1)
    assert table == PartitionTable(AllParts(), 1, (1, 1))
    for args, kwargs in [((AllParts(), 1), {}),
                         ((AllParts(), 1, (1, 1), 2), {}),
                         ((AllParts(), 1, (1, 1)), {"limit": 1}),
                         ((AllParts(), 1), {"values": (1, 1), "other": 0})]:
        with pytest.raises(TypeError, match="takes exactly the fields"):
            PartitionTable(*args, **kwargs)


def test_coefficient_series_keeps_its_cached_views():
    series = CoefficientSeries(AllParts(), 2, (0, 1, 3))
    assert series.sums is series.sums
    assert series.sums == (0, 1, Fraction(5, 2))
    assert series == CoefficientSeries(AllParts(), 2, (0, 1, 3))


def test_probe_reports_never_share_a_meta_dict():
    first, second = (ProbeReport("p", (), (), None, None, True, None, None, 0)
                     for _ in range(2))
    first.meta["key"] = 1
    assert second.meta == {}


def test_cli_start_loads_neither_dataclasses_nor_inspect():
    # both cost start-up time in every CLI process; and the runtime is
    # stdlib-only, so every other top-level module it loads is stdlib
    src = pathlib.Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; before = set(sys.modules); "
         "import partgrowth.cli; loaded = set(sys.modules) - before; "
         "print(sorted({'dataclasses', 'inspect'} & loaded)); "
         "print(sorted({m.partition('.')[0] for m in loaded} "
         "- set(sys.stdlib_module_names) - {'partgrowth'}))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (done.returncode, done.stdout) == (0, "[]\n[]\n"), done.stderr
