import pathlib

import pytest

from relfix.bmetric import BMetricSpace
from relfix.relation import BinaryRelation
from relfix.contraction import ContractionProblem, Potential, SelfMap
from relfix.simulation import SimulationFunction

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# the four-point worked instance: squared-difference distance with s = 2,
# twelve-pair relation, step-down map, potential 3*sigma
EX_VALUES = (1.0, 2.0, 3.0, 4.0)
EX_PAIRS = [
    (1, 1), (1, 2), (1, 3), (1, 4),
    (2, 1), (2, 2), (2, 3), (2, 4),
    (3, 1), (3, 2), (3, 3), (3, 4),
]
EX_MAP = {1: 1, 2: 1, 3: 2, 4: 3}  # value -> value


def example_space(metric="squared-difference", s=2.0) -> BMetricSpace:
    return BMetricSpace.from_values(EX_VALUES, metric=metric, s=s)


def value_relation(space, value_pairs) -> BinaryRelation:
    """The relation of these (source value, target value) pairs, by definition:
    each endpoint's ``point_by_value`` id, collected into a set of id pairs."""
    return BinaryRelation({(space.point_by_value(a).id, space.point_by_value(b).id)
                           for a, b in value_pairs})


def float_pairs(block) -> tuple:
    """A parsed ``RelationBlock``'s pairs as (source, target) floats, in file order."""
    values = block.values
    return tuple((values[a], values[b]) for a, b in zip(block.sources, block.targets))


def example_relation(space) -> BinaryRelation:
    return value_relation(space, EX_PAIRS)


def example_map(space) -> SelfMap:
    return SelfMap({space.point_by_value(a).id: space.point_by_value(b).id
                    for a, b in EX_MAP.items()})


def example_potential(space) -> Potential:
    return Potential({p.id: 3.0 * p.value for p in space.points})


def example_problem(lam=0.9, metric="squared-difference", s=2.0) -> ContractionProblem:
    space = example_space(metric=metric, s=s)
    return ContractionProblem(
        space=space,
        relation=example_relation(space),
        map=example_map(space),
        potential=example_potential(space),
        zeta=SimulationFunction(family="linear", lam=lam),
    )


@pytest.fixture
def problem():
    return example_problem()


@pytest.fixture
def space():
    return example_space()
