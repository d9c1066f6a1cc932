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
from collections import namedtuple

from .bmetric import BMetricSpace, FORMULA_METRICS, Witnesses, _int_id, _pid
from .records import IN_MEMORY, record
from .relation import (
    BinaryRelation,
    RelationReport,
    _bits,
    is_f_closed,
    is_transitive,
    find_path,
)
from .simulation import SimulationFunction


@record(frozen=True)
class SelfMap:
    """Total self-map on the space's points, as an id -> id table."""

    mapping: dict

    def __post_init__(self):
        object.__setattr__(self, "mapping",
                           {_int_id(k): _int_id(v) for k, v in self.mapping.items()})

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


@record(frozen=True)
class Potential:
    """Nonnegative point-wise potential driving the descent argument."""

    values: dict

    def __post_init__(self):
        vals = {_int_id(k): float(v) for k, v in self.values.items()}
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


@record
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
        # ids are nonnegative, so the index spans the space unless an id reaches n
        if len(self.relation._rows) > n:
            a, b = next(p for p in self.relation.sorted_pairs() if max(p) >= n)
            raise ValueError(f"relation pair ({a}, {b}) outside the space")

    def default_tol(self) -> float:
        return 1e-9 if self.space.metric in FORMULA_METRICS else 0.0


def compute_mfr(space: BMetricSpace, relation: BinaryRelation, fmap: SelfMap) -> list:
    """Admissible starting points, in id order: those related to their own image."""
    rows = relation._rows
    return [p for p in space.points if p.id < len(rows) and rows[p.id] >> fmap(p) & 1]


@record
class ContractionVerdict:
    """The ledger's verdict over the related pairs, indexed by row: the pairs in
    sorted_pairs() order.  Row i has t = s * d_image_pair and s_arg = (phi(sigma)
    - phi(F sigma)) * d_pair; it is active when d_sigma_fsigma > 0.  Its zeta
    value is None on vacuous rows and where t or s_arg < 0 leaves zeta's domain.

    The report body carries the scalars and ``failing_rows``: the first
    WITNESS_CAP failing row indices under "row", and each of those rows' seven
    quantities under their own names.  In memory only: ``lambda_threshold``
    (see ``linear_lambda_threshold``), ``zeta_min``, the smallest zeta value
    computed (+inf when none is), and ``active_spans``, one (start, stop) range
    of row indices per active source with related pairs.  No field grows with |R|.
    """

    ok: bool
    s: float
    tol: float
    active_count: int
    failing_count: int
    failing_rows: dict
    lambda_threshold: float = IN_MEMORY
    zeta_min: float = IN_MEMORY
    active_spans: list = IN_MEMORY

    @property
    def active_rows(self) -> list:
        return [i for start, stop in self.active_spans for i in range(start, stop)]


def verify_contraction(problem: ContractionProblem, tol: float | None = None) -> ContractionVerdict:
    """Evaluate the contraction inequality on every related pair, in one pass.

    Pairs with d(sigma, F sigma) = 0 are vacuous (the premise fails) and pass.
    An active pair passes when t, s_arg >= 0 and its zeta value is >= -tol, so
    a zero s_arg with a positive t fails, as zeta2 requires (zeta(t, 0) < -t).
    A vacuous source's row only advances the row index by its pair count.
    """
    if tol is None:
        tol = problem.default_tol()
    d, s, zeta = problem.space._d, problem.space.s, problem.zeta
    values = [p.value for p in problem.space.points]
    fmap, phi = problem.map.mapping, problem.potential.values
    # simulation.evaluate's expression, inline; the guard is its domain check
    lam, mu, floor = zeta.lam, zeta.t_coeff, -tol
    lo, zeta_min, spans, failing = 0.0, math.inf, [], Witnesses()
    start = 0
    # the rows' bits, walked in id order, are the pairs in sorted_pairs() order
    for a, mask in enumerate(problem.relation._rows):
        fa, row = fmap[a], d[a]
        d_self = row[fa]
        if not (mask and d_self > 0):
            start += mask.bit_count()
            continue
        image, drop = d[fa], phi[a] - phi[fa]
        bs = _bits(mask)
        for i, b in enumerate(bs, start):
            t, sa = s * image[fmap[b]], drop * row[b]
            # linear_lambda_threshold's row constraint lambda * s_arg >= t
            if sa > 0:
                q = t / sa
                if q > lo:
                    lo = q
            elif t > 0 or sa < 0:
                lo = math.inf
            if t >= 0 and sa >= 0:
                z = lam * sa - mu * t
                if z < zeta_min:
                    zeta_min = z
                if z >= floor:
                    continue
            else:
                z = None
            # i, b, sa and z change on every row: as defaults, not closure
            # cells, they stay fast locals of the loop
            failing.add(1, lambda i=i, b=b, sa=sa, z=z: [
                (i, values[a], values[b], d_self, row[b], image[fmap[b]], sa, z)])
        spans.append((start, start + len(bs)))
        start += len(bs)
    keys = ("row", "sigma", "rho", "d_sigma_fsigma", "d_pair", "d_image_pair", "s_arg",
            "zeta_value")
    failing_rows = dict(zip(keys, map(list, zip(*failing.kept)))) or {k: [] for k in keys}
    return ContractionVerdict(
        ok=not failing.count, s=s, tol=tol, active_count=sum(b - a for a, b in spans),
        failing_count=failing.count, failing_rows=failing_rows, lambda_threshold=lo,
        zeta_min=zeta_min, active_spans=spans,
    )


def linear_lambda_threshold(verdict: ContractionVerdict) -> float:
    """Bound on lambda from the linear family's row constraints lambda * s_arg >= t.

    The max of t / s_arg over the verdict's active rows with s_arg > 0, or
    +inf when an active row has s_arg = 0 < t, or s_arg < 0 (outside zeta's
    domain), which no lambda passes.  A finite result >= 1 means the linear
    family is infeasible.  The rows' t and s_arg do not depend on zeta or
    the tolerance, so any verdict of the problem serves.
    """
    return verdict.lambda_threshold


@record
class HypothesisReport:
    """The existence theorem's hypotheses.  F-closedness and transitivity are
    verdicts only: their witnesses are the relation report's counterexamples.
    Condition (iii) holds on every finite space; the relation report's
    ``bd_justification`` says why."""

    mfr: list                      # admissible start point values, in point-id order
    mfr_points: list = IN_MEMORY  # compute_mfr's points, read for the start
    mfr_nonempty: bool
    f_closed: bool
    transitive: bool
    contraction: ContractionVerdict
    all_hypotheses_ok: bool


def verify_all_hypotheses(problem: ContractionProblem, tol: float | None = None,
                          relation: RelationReport | None = None) -> HypothesisReport:
    """Aggregate every hypothesis of the existence theorem into one report.

    ``relation``, when given, is ``build_relation_report`` of this problem's
    space, relation and map: its F-closedness and transitivity verdicts are
    read from it, so R is not scanned again.  Without it both are scanned.
    """
    space, R, F = problem.space, problem.relation, problem.map
    mfr = compute_mfr(space, R, F)
    if relation is None:
        fcl, trans = is_f_closed(R, F.mapping)[0], is_transitive(R)[0]
    else:
        fcl, trans = relation.f_closed, relation.transitive

    contraction = verify_contraction(problem, tol)

    all_ok = bool(mfr) and fcl and trans and contraction.ok
    return HypothesisReport(
        mfr=[p.value for p in mfr],
        mfr_points=mfr,
        mfr_nonempty=bool(mfr),
        f_closed=fcl,
        transitive=trans,
        contraction=contraction,
        all_hypotheses_ok=all_ok,
    )


class UniquenessCheck(namedtuple("UniquenessCheck", "path_exists path")):
    """Whether R joins the two points (``path_exists``), and the ``Path`` or None."""

    __slots__ = ()


def verify_uniqueness_condition(problem: ContractionProblem, a, b) -> UniquenessCheck:
    """Path-existence hypothesis of the uniqueness theorem, between a and b."""
    path = find_path(problem.relation, a, b)
    return UniquenessCheck(path is not None, path)
