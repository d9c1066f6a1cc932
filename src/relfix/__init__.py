"""relfix: verify and solve relational fixed-point problems in b-metric spaces."""

__version__ = "0.1.0"

from .bmetric import BMetricSpace, Point, distance, verify_bmetric_axioms
from .relation import (
    BinaryRelation,
    Path,
    check_bd_self_closed,
    find_path,
    is_complete,
    is_f_closed,
    is_transitive,
    related,
    relation_diagnostics,
    symmetric_closure,
    transitive_closure,
)
from .simulation import (
    SimulationFunction,
    check_zeta_axioms,
    evaluate,
)
from .contraction import (
    ContractionProblem,
    Potential,
    SelfMap,
    compute_mfr,
    linear_lambda_threshold,
    verify_all_hypotheses,
    verify_contraction,
    verify_uniqueness_condition,
)
from .solver import (
    certify,
    enumerate_fixed_points,
    picard_iterate,
    ratio_diagnostics,
)
from .problemfile import build_problem, parse_problem
