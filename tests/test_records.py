"""The plain value records are named tuples with the fields of the dataclasses
they replaced: the same names in the same order, the same defaults, repr and
hash, and no assignment.  Importing ``relfix.cli`` builds none of them as a
dataclass and loads neither ``datetime`` nor ``typing``."""

import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

import relfix
from relfix.bmetric import BMetricSpace, Point
from relfix.contraction import UniquenessCheck
from relfix.problemfile import (MapBlock, Piece, PotentialBlock, ProblemBundle, ProblemFile,
                                RelationBlock, SolverBlock, SpaceBlock, ZetaBlock)
from relfix.relation import Path

# each record's fields and defaults as its dataclass declared them
OLD_FIELDS = {
    Point: ("id value", {}),
    Path: ("nodes", {}),
    UniquenessCheck: ("path_exists path", {}),
    Piece: ("lo hi lo_closed hi_closed image", {}),
    SpaceBlock: ("points metric rows s", {"metric": "squared-difference", "rows": (), "s": 1.0}),
    RelationBlock: ("pairs transitive_closure symmetric_closure",
                    {"transitive_closure": False, "symmetric_closure": False}),
    MapBlock: ("entries pieces", {"entries": (), "pieces": ()}),
    PotentialBlock: ("entries linear_coeff", {"entries": (), "linear_coeff": None}),
    ZetaBlock: ("family lam mu", {"family": "linear", "lam": None, "mu": None}),
    SolverBlock: ("start", {"start": None}),
    ProblemFile: ("space relation map potential zeta solver", {"solver": SolverBlock()}),
    ProblemBundle: ("problem solver", {}),
}
RECORDS = list(OLD_FIELDS)


def required_only(cls):
    """An instance from distinct values for the fields without a default."""
    names, defaults = OLD_FIELDS[cls]
    return cls(*range(len(names.split()) - len(defaults)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_and_defaults_are_the_dataclass_ones(cls):
    names, defaults = OLD_FIELDS[cls]
    assert cls._fields == tuple(names.split())
    assert cls._field_defaults == defaults
    record = required_only(cls)
    assert {k: getattr(record, k) for k in defaults} == defaults
    assert not dataclasses.is_dataclass(cls)


def test_defaults_fill_the_trailing_fields():
    assert SpaceBlock((1.0,)) == SpaceBlock(points=(1.0,), metric="squared-difference",
                                            rows=(), s=1.0)
    assert ProblemFile(*"abcde").solver == SolverBlock() == SolverBlock(start=None)
    assert ZetaBlock(lam=0.5) == ("linear", 0.5, None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_hash_and_assignment(cls):
    record = required_only(cls)
    items = ", ".join(f"{k}={getattr(record, k)!r}" for k in cls._fields)
    assert repr(record) == f"{cls.__name__}({items})"
    assert hash(record) == hash(tuple(record))
    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record._replace(**{cls._fields[0]: "x"})[0] == "x"


def test_point_and_space_hash_as_before():
    assert repr(Point(0, 1.0)) == "Point(id=0, value=1.0)"
    assert hash(Point(0, 1.0)) == hash((0, 1.0))
    space = BMetricSpace.from_values([0.0, 1.0, 3.0], s=2.0)
    # a frozen dataclass hashes the tuple of its fields
    assert hash(space) == hash((space.points, space.metric, space.table, space.s))


def test_methods_properties_and_docstring_stay():
    assert Path((0, 2, 1)).length == 2
    assert Path((0, 2)).value_nodes(BMetricSpace.from_values([5.0, 6.0, 7.0])) == [5.0, 7.0]
    piece = Piece(1.0, 2.0, True, False, 1.0)
    assert [piece.contains(v) for v in (0.5, 1.0, 1.5, 2.0)] == [False, True, True, False]
    assert ProblemBundle.__doc__ == (
        "A fully assembled problem plus solver options, ready for the modules.")


IMPORT_CHECK = """
import json, sys
import relfix.cli
loaded = sorted({"datetime", "typing"} & set(sys.modules))
import dataclasses
from relfix import bmetric, contraction, problemfile, relation
records = [bmetric.Point, relation.Path, contraction.UniquenessCheck, problemfile.Piece,
           problemfile.SpaceBlock, problemfile.RelationBlock, problemfile.MapBlock,
           problemfile.PotentialBlock, problemfile.ZetaBlock, problemfile.SolverBlock,
           problemfile.ProblemFile, problemfile.ProblemBundle]
print(json.dumps({"loaded": loaded,
                  "dataclasses": [r.__name__ for r in records if dataclasses.is_dataclass(r)]}))
"""


def test_cli_import_loads_no_datetime_typing_or_record_dataclass():
    # -S: no site hook may have loaded typing before relfix does; -B: no bytecode is written
    env = {"PYTHONPATH": str(pathlib.Path(relfix.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-B", "-c", IMPORT_CHECK], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [], "dataclasses": []}
