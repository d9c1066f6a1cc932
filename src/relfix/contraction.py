"""Contraction-condition verification and the full hypothesis report.

The core inequality, checked per related pair (sigma, rho) with
d(sigma, F sigma) > 0, is

    zeta( s * d(F sigma, F rho), (phi(sigma) - phi(F sigma)) * d(sigma, rho) ) >= 0.

The second argument is read as the product of the potential drop and the
pair distance, the only reading consistent with its use in the existence
proof's telescoping step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bmetric import BMetricSpace, FORMULA_METRICS, _pid, distance
from .relation import (
    BinaryRelation,
    check_bd_self_closed,
    is_f_closed,
    is_transitive,
    find_path,
    Path,
)
from .simulation import SimulationFunction, evaluate


@dataclass(frozen=True)
class SelfMap:
    """Total self-map on the space's points, as an id -> id table."""

    mapping: dict
    r_continuous: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mapping", {int(k): int(v) for k, v in self.mapping.items()})

    def __call__(self, p) -> int:
        return self.mapping[_pid(p)]

    def validate(self, space: BMetricSpace):
        n = len(space)
        for i in range(n):
            if i not in self.mapping:
                raise ValueError(f"map not total: no image for point id {i}")
        for i, j in self.mapping.items():
            if not 0 <= j < n:
                raise ValueError(f"map image {j} of point id {i} is outside the space")


@dataclass(frozen=True)
class Potential:
    """Nonnegative point-wise potential driving the descent argument."""

    values: dict

    def __post_init__(self):
        vals = {int(k): float(v) for k, v in self.values.items()}
        for i, v in vals.items():
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"potential codomain [0, ∞) violated at point id {i}: {v}")
        object.__setattr__(self, "values", vals)

    def __call__(self, p) -> float:
        return self.values[_pid(p)]

    def validate(self, space: BMetricSpace):
        for i in range(len(space)):
            if i not in self.values:
                raise ValueError(f"potential not total: no value for point id {i}")


@dataclass
class ContractionProblem:
    space: BMetricSpace
    relation: BinaryRelation
    map: SelfMap
    potential: Potential
    zeta: SimulationFunction

    def __post_init__(self):
        self.map.validate(self.space)
        self.potential.validate(self.space)
        n = len(self.space)
        for a, b in self.relation.pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"relation pair ({a}, {b}) outside the space")

    def default_tol(self) -> float:
        return 1e-9 if self.space.metric in FORMULA_METRICS else 0.0


def compute_mfr(space: BMetricSpace, relation: BinaryRelation, fmap: SelfMap) -> list:
    """Admissible starting points: those related to their own image."""
    return [p for p in space.points if (p.id, fmap(p)) in relation.pairs]


@dataclass
class LedgerRow:
    sigma: float
    rho: float
    sigma_id: int
    rho_id: int
    d_sigma_fsigma: float
    active: bool
    d_pair: float | None = None          # d(sigma, rho)
    d_image_pair: float | None = None    # d(F sigma, F rho)
    t: float | None = None               # s * d(F sigma, F rho)
    s_arg: float | None = None           # (phi(sigma) - phi(F sigma)) * d(sigma, rho)
    zeta_value: float | None = None
    ok: bool = True
    definition_sensitive: bool = False
    bcp_ratio: float | None = None       # d(F sigma, F rho) / d(sigma, rho)
    b_simulation_bound: float | None = None  # d(sigma, rho) - s * d(F sigma, F rho)


@dataclass
class ContractionVerdict:
    ok: bool
    rows: list
    tol: float

    @property
    def active_rows(self):
        return [r for r in self.rows if r.active]

    @property
    def failing_rows(self):
        return [r for r in self.rows if not r.ok]


def verify_contraction(problem: ContractionProblem, tol: float | None = None) -> ContractionVerdict:
    """Evaluate the contraction inequality on every related pair.

    Pairs with d(sigma, F sigma) = 0 are vacuous (the premise fails) and
    recorded as such.  Active pairs need zeta value >= -tol.  A pair with a
    zero second argument but positive first argument is flagged
    definition-sensitive: the printed condition makes it fail for any
    simulation function, so the flag distinguishes that from a substantive
    violation.
    """
    if tol is None:
        tol = problem.default_tol()
    space, R, F, phi, zeta = (
        problem.space,
        problem.relation,
        problem.map,
        problem.potential,
        problem.zeta,
    )
    rows = []
    ok = True
    for a, b in R.sorted_pairs():
        pa, pb = space.point(a), space.point(b)
        d_self = distance(space, pa, F(pa))
        row = LedgerRow(
            sigma=pa.value, rho=pb.value, sigma_id=a, rho_id=b,
            d_sigma_fsigma=d_self, active=d_self > 0,
        )
        if row.active:
            row.d_pair = distance(space, pa, pb)
            row.d_image_pair = distance(space, F(pa), F(pb))
            row.t = space.s * row.d_image_pair
            row.s_arg = (phi(pa) - phi(F(pa))) * row.d_pair
            row.b_simulation_bound = row.d_pair - space.s * row.d_image_pair
            if row.d_pair > 0:
                row.bcp_ratio = row.d_image_pair / row.d_pair
            row.definition_sensitive = row.s_arg == 0 and row.t > 0
            if row.t >= 0 and row.s_arg >= 0:
                row.zeta_value = evaluate(zeta, row.t, row.s_arg)
                row.ok = row.zeta_value >= -tol
            else:
                # negative potential drop: second argument leaves zeta's domain
                row.zeta_value = None
                row.ok = False
            ok = ok and row.ok
        rows.append(row)
    return ContractionVerdict(ok=ok, rows=rows, tol=tol)


def linear_lambda_threshold(verdict: ContractionVerdict) -> float:
    """Bound on lambda from the linear family's row constraints lambda * s_arg >= t.

    The max of t / s_arg over the verdict's active rows with s_arg > 0, or
    +inf when an active row has s_arg = 0 < t, or s_arg < 0 (outside zeta's
    domain), which no lambda passes.  A finite result >= 1 means the linear
    family is infeasible.  The rows' t and s_arg do not depend on zeta or
    the tolerance, so any verdict of the problem serves.
    """
    lo = 0.0
    for row in verdict.active_rows:
        if row.s_arg > 0:
            lo = max(lo, row.t / row.s_arg)
        elif row.t > 0 or row.s_arg < 0:
            return math.inf
    return lo


CONDITION_III = ("bd-self-closed-verified", "r-continuous-declared", "neither")


@dataclass
class HypothesisReport:
    mfr: list                      # admissible start point values, sorted
    mfr_nonempty: bool
    f_closed: bool
    f_closed_witnesses: list
    transitive: bool
    transitive_witnesses: list
    condition_iii: str
    condition_iii_note: str
    contraction: ContractionVerdict
    all_hypotheses_ok: bool


def verify_all_hypotheses(problem: ContractionProblem, tol: float | None = None) -> HypothesisReport:
    """Aggregate every hypothesis of the existence theorem into one report."""
    space, R, F = problem.space, problem.relation, problem.map
    mfr = compute_mfr(space, R, F)
    fcl, fcl_w = is_f_closed(R, F.mapping)
    trans, trans_w = is_transitive(R)

    bd = check_bd_self_closed(space, R)
    if bd.applicable and bd.holds:
        cond_iii, note = "bd-self-closed-verified", bd.justification
    elif F.r_continuous:
        cond_iii, note = (
            "r-continuous-declared",
            "user-declared flag, not verified by the toolkit",
        )
    else:
        cond_iii, note = "neither", bd.justification
    contraction = verify_contraction(problem, tol)

    all_ok = bool(mfr) and fcl and trans and cond_iii != "neither" and contraction.ok
    return HypothesisReport(
        mfr=[p.value for p in mfr],
        mfr_nonempty=bool(mfr),
        f_closed=fcl,
        f_closed_witnesses=fcl_w,
        transitive=trans,
        transitive_witnesses=trans_w,
        condition_iii=cond_iii,
        condition_iii_note=note,
        contraction=contraction,
        all_hypotheses_ok=all_ok,
    )


@dataclass
class UniquenessCheck:
    path_exists: bool
    path: Path | None


def verify_uniqueness_condition(problem: ContractionProblem, a, b) -> UniquenessCheck:
    """Path-existence hypothesis of the uniqueness theorem, between a and b."""
    path = find_path(problem.relation, a, b)
    return UniquenessCheck(path is not None, path)
