"""relfix's 26 record classes keep the behaviour of the dataclasses they replaced.

The plain value records are named tuples with the same field names in the
same order, the same defaults, repr and hash, and no assignment.  The result
and model classes are built by ``relfix.records.record``; each is checked
against a reference dataclass made from its old declaration.  The 27th old
dataclass, ``BinaryRelation``, is a hand-written class holding bit rows: it
keeps the construction, repr, equality and frozenness of its dataclass, but
has no ``_fields`` or ``_replace``, and hashes its rows.  Importing
``relfix.cli`` builds none of them as a dataclass and loads none of
``datetime``, ``typing``, ``dataclasses``, ``inspect``, ``ast``, ``dis``,
``tokenize``, ``hashlib`` and ``_hashlib``."""

import dataclasses
import json
import math
import pathlib
import subprocess
import sys

import pytest

import relfix
from relfix.bmetric import AxiomReport, BMetricSpace, Point
from relfix.contraction import (ContractionProblem, ContractionVerdict, HypothesisReport,
                                Potential, SelfMap, UniquenessCheck)
from relfix.problemfile import (MapBlock, Piece, PotentialBlock, ProblemBundle, ProblemFile,
                                RelationBlock, SolverBlock, SpaceBlock, ZetaBlock)
from relfix.records import IN_MEMORY, record
from relfix.relation import BinaryRelation, Path, RelationDiagnostics, RelationReport
from relfix.report import _plain
from relfix.simulation import SimulationFunction, ZetaAxiomReport
from relfix.solver import FixedPointCertificate, IterationTrace, RatioDiagnostics

# each record's fields and defaults as its dataclass declared them
OLD_FIELDS = {
    Point: ("id value", {}),
    Path: ("nodes", {}),
    UniquenessCheck: ("path_exists path", {}),
    Piece: ("lo hi lo_closed hi_closed image", {}),
    SpaceBlock: ("points metric rows s", {"metric": "squared-difference", "rows": (), "s": 1.0}),
    # the one declared change: tokens and their floats in place of float pairs
    RelationBlock: ("sources targets values transitive_closure symmetric_closure",
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


# each record class as its dataclass declared it: frozen, then one "name" per
# required field and ("name", default) per defaulted one.  LIST and DICT stand
# for field(default_factory=list/dict), MEMORY for a required
# field(metadata={"report": False}), which stays out of the report body.
LIST, DICT, MEMORY = list, dict, "in memory"
OLD_DECLARATIONS = {
    AxiomReport: (False, ["identity_ok", "symmetry_ok", "triangle_ok", "min_feasible_s", "s",
                          "tol", ("identity_witness_count", 0), ("identity_witnesses", LIST),
                          ("symmetry_witness_count", 0), ("symmetry_witnesses", LIST),
                          ("triangle_witness_count", 0), ("triangle_witnesses", LIST)]),
    ZetaAxiomReport: (False, ["zeta2_ok", ("zeta2_witnesses", LIST)]),
    RelationDiagnostics: (False, ["reflexive", "irreflexive", "symmetric", "antisymmetric",
                                  ("witness_counts", DICT), ("witnesses", DICT)]),
    RelationReport: (False, ["transitive", "complete", "f_closed", "counterexample_counts",
                             "counterexamples", "diagnostics"]),
    ContractionVerdict: (False, ["ok", "s", "tol", "active_count", "failing_count",
                                 "failing_rows", ("lambda_threshold", MEMORY),
                                 ("zeta_min", MEMORY), ("active_spans", MEMORY)]),
    HypothesisReport: (False, ["mfr", ("mfr_points", MEMORY), "mfr_nonempty", "f_closed",
                               "transitive", "contraction", "all_hypotheses_ok"]),
    IterationTrace: (False, ["orbit", "orbit_ids", "steps", "phi_values", "residual",
                             "terminated_by"]),
    RatioDiagnostics: (False, ["ratios", "per_index_bound_ok", "per_index_witnesses",
                               "telescoping_ok", "ratio_sum", "phi_budget", "rho", "n0",
                               "geometric_decay_ok"]),
    FixedPointCertificate: (False, ["fixed_points", "solver_result", "unique",
                                    ("contradiction_count", 0), ("contradictions", LIST),
                                    ("unconnected_count", 0), ("unconnected_pairs", LIST)]),
    BMetricSpace: (True, ["points", ("metric", "squared-difference"), ("table", None),
                          ("s", 1.0)]),
    BinaryRelation: (True, ["pairs"]),
    SelfMap: (True, ["mapping"]),
    Potential: (True, ["values"]),
    ContractionProblem: (False, ["space", "relation", "map", "potential", "zeta"]),
    SimulationFunction: (True, ["family", ("lam", None), ("mu", None)]),
}
CLASSES = list(OLD_DECLARATIONS)
FROZEN = [cls for cls in CLASSES if OLD_DECLARATIONS[cls][0]]
# the classes built by record; BinaryRelation is written by hand
RECORD_CLASSES = [cls for cls in CLASSES if cls is not BinaryRelation]

# valid values for the required fields of the six validated core types
POINTS = (Point(0, 0.0), Point(1, 2.0))
CORE = {
    BMetricSpace: {"points": POINTS},
    BinaryRelation: {"pairs": frozenset({(0, 1), (1, 1)})},
    SelfMap: {"mapping": {0: 1, 1: 1}},
    Potential: {"values": {0: 1.0, 1: 0.0}},
    SimulationFunction: {"family": "linear", "lam": 0.5},
}
CORE[ContractionProblem] = {
    "space": BMetricSpace(POINTS), "relation": BinaryRelation(frozenset({(0, 1), (1, 1)})),
    "map": SelfMap({0: 1, 1: 1}), "potential": Potential({0: 1.0, 1: 0.0}),
    "zeta": SimulationFunction("linear", 0.5)}


def declared(cls):
    """(names, required names, {name: default}, in-memory names) of the old declaration."""
    spec = OLD_DECLARATIONS[cls][1]
    names = [f if isinstance(f, str) else f[0] for f in spec]
    defaults = {f[0]: f[1] for f in spec if not isinstance(f, str) and f[1] is not MEMORY}
    memory = [f[0] for f in spec if not isinstance(f, str) and f[1] is MEMORY]
    return names, [n for n in names if n not in defaults], defaults, memory


def reference(cls):
    """The old declaration as a dataclass, without its validation."""
    names, _, defaults, _ = declared(cls)
    spec = []
    for n in names:
        if n not in defaults:
            spec.append((n, object))
        elif defaults[n] in (LIST, DICT):
            spec.append((n, object, dataclasses.field(default_factory=defaults[n])))
        else:
            spec.append((n, object, dataclasses.field(default=defaults[n])))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=OLD_DECLARATIONS[cls][0])


def sample(cls) -> dict:
    """Keyword values for the required fields: valid ones for a core type,
    distinct strings for a report record."""
    _, required, _, _ = declared(cls)
    return CORE.get(cls) or {n: f"v{i}" for i, n in enumerate(required)}


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_record_fields_and_defaults_are_the_dataclass_ones(cls):
    names, _, defaults, memory = declared(cls)
    assert cls._fields == tuple(names)
    assert cls._report_fields == tuple(n for n in names if n not in memory)
    assert not dataclasses.is_dataclass(cls)
    kw = sample(cls)
    a, b = cls(**kw), cls(**kw)
    for name, default in defaults.items():
        if name in kw:
            continue
        if default in (LIST, DICT):
            # a fresh container per instance
            assert getattr(a, name) == default() and getattr(a, name) is not getattr(b, name)
        else:
            assert getattr(a, name) == default
    # instance state is the fields in order, as vars() of the dataclass read it;
    # a core type's caches follow them
    assert list(vars(a))[:len(names)] == names
    if cls not in CORE:
        assert vars(a) == vars(reference(cls)(**kw))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_construction_by_position_and_keyword(cls):
    names, required, _, _ = declared(cls)
    kw = sample(cls)
    values = [kw[n] for n in names if n in kw]  # the sample names a prefix of the fields
    assert cls(*values) == cls(**kw)
    with pytest.raises(TypeError):
        cls(*values[:len(required) - 1])
    with pytest.raises(TypeError):
        cls(**kw, unknown_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, *range(len(names)))  # more positions than fields


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_repr_is_the_dataclass_repr(cls):
    names, kw = declared(cls)[0], sample(cls)
    assert repr(cls(**kw)) == repr(reference(cls)(**kw))
    assert repr(cls(**kw)).startswith(f"{cls.__qualname__}({names[0]}=")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_equality_holds_within_one_class(cls):
    names, kw = declared(cls)[0], sample(cls)
    record = cls(**kw)
    fields = tuple(getattr(record, n) for n in names)
    assert record == cls(**kw) and not record != cls(**kw)
    assert record != reference(cls)(**kw) and record != fields
    assert record.__eq__(fields) is NotImplemented
    if cls not in CORE:
        first, nan = names[0], math.nan
        assert cls(**{**kw, first: nan}) == cls(**{**kw, first: nan})  # one NaN object
        assert cls(**{**kw, first: nan}) != cls(**{**kw, first: float("nan")})
        for name in names:  # every field takes part
            assert cls(**kw) != cls(**{**kw, name: "other"})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_hash_and_assignment(cls):
    names = declared(cls)[0]
    record = cls(**sample(cls))
    fields = tuple(getattr(record, n) for n in names)
    if cls in FROZEN:
        try:
            # a dataclass hashes its field tuple; a relation hashes its bit rows
            expected = hash(record._rows) if cls is BinaryRelation else hash(fields)
        except TypeError:  # a dict field: the tuple is unhashable, and so is the record
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, n) for n in names) == fields
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, names[0], "changed")
        assert getattr(record, names[0]) == "changed"


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_record_replace_builds_a_new_instance(cls):
    record = cls(**sample(cls))
    assert record._replace() == record and record._replace() is not record
    if cls not in CORE:  # a core type's new value must pass its validation
        name, other = cls._fields[-1], getattr(record, cls._fields[0])
        changed = record._replace(**{name: other})
        assert getattr(changed, name) is other
        assert all(getattr(changed, n) == getattr(record, n) for n in cls._fields[:-1])
    with pytest.raises(TypeError):
        record._replace(unknown_field=1)


def test_validation_runs_on_construction_and_on_replace():
    with pytest.raises(ValueError, match="lambda in"):
        SimulationFunction("linear", lam=2.0)
    zeta = SimulationFunction("scaled", 0.5, 2.0)
    with pytest.raises(ValueError, match="0 < lambda < mu"):
        zeta._replace(mu=0.25)
    space = BMetricSpace(POINTS, s=2.0)
    with pytest.raises(ValueError, match="s >= 1"):
        space._replace(s=0.5)
    wider = space._replace(s=3.0)
    assert wider.s == 3.0 and wider._d == space._d and wider._d is not space._d
    with pytest.raises(ValueError, match="integers"):
        BinaryRelation(frozenset({(0.5, 1)}))
    problem = ContractionProblem(**CORE[ContractionProblem])
    with pytest.raises(ValueError, match="outside the space"):
        problem._replace(map=SelfMap({0: 1, 1: 2}))
    with pytest.raises(ValueError, match="codomain"):
        Potential({0: -1.0})
    # SelfMap's validation normalises its keys
    assert SelfMap({0.0: 1.0})._replace(mapping={1.0: 0.0}).mapping == {1: 0}


def test_a_required_field_after_a_default_is_refused():
    # as @dataclass refuses it; an IN_MEMORY field is a required one
    for late in ("", " = IN_MEMORY"):
        with pytest.raises(TypeError, match="'b' without a default"):
            exec(f"@record\nclass A:\n    a: int = 1\n    b: int{late}\n",
                 {"record": record, "IN_MEMORY": IN_MEMORY})


def test_plain_encodes_the_report_fields_only():
    verdict = ContractionVerdict(*range(9))
    assert _plain(verdict) == dict(zip(ContractionVerdict._fields[:6], range(6)))
    for obj in (ContractionVerdict, POINTS[0], object()):
        with pytest.raises(TypeError):
            _plain(obj)


IMPORT_CHECK = """
import json, sys
import relfix.cli
loaded = sorted({"datetime", "typing", "dataclasses", "inspect", "ast", "dis", "tokenize",
                 "hashlib", "_hashlib"} & set(sys.modules))
import dataclasses
from relfix import bmetric, contraction, problemfile, relation, simulation, solver
records = [bmetric.Point, relation.Path, contraction.UniquenessCheck, problemfile.Piece,
           problemfile.SpaceBlock, problemfile.RelationBlock, problemfile.MapBlock,
           problemfile.PotentialBlock, problemfile.ZetaBlock, problemfile.SolverBlock,
           problemfile.ProblemFile, problemfile.ProblemBundle,
           bmetric.AxiomReport, simulation.ZetaAxiomReport, relation.RelationDiagnostics,
           relation.RelationReport, contraction.ContractionVerdict, contraction.HypothesisReport,
           solver.IterationTrace, solver.RatioDiagnostics, solver.FixedPointCertificate,
           bmetric.BMetricSpace, relation.BinaryRelation, contraction.SelfMap,
           contraction.Potential, contraction.ContractionProblem, simulation.SimulationFunction]
assert len(set(records)) == 27
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
