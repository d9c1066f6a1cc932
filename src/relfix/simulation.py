"""Simulation-function catalog and sampled verification of its defining axioms.

The axioms are universally quantified over the reals, so the two sampled
checks are evidence relative to a recorded sample spec, not proof; only the
origin condition is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_GRID = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)
_SEQ_INDICES = tuple(range(1, 200)) + tuple(range(200, 10001, 200))
FAMILIES = ("linear", "scaled")


@dataclass(frozen=True)
class SimulationFunction:
    """A two-argument function zeta(t, s) from one of two families.

    linear:       zeta(t, s) = lam*s - t          with 0 < lam < 1
    scaled:       zeta(t, s) = lam*s - mu*t       with 0 < lam < mu
    """

    family: str
    lam: float | None = None
    mu: float | None = None

    def __post_init__(self):
        if self.family == "linear":
            if self.lam is None or not 0.0 < self.lam < 1.0:
                raise ValueError("linear family requires lambda in (0, 1)")
        elif self.family == "scaled":
            if self.lam is None or self.mu is None or not 0.0 < self.lam < self.mu:
                raise ValueError("scaled family requires 0 < lambda < mu")
        else:
            raise ValueError(f"unknown family {self.family!r}")


def evaluate(zeta: SimulationFunction, t: float, s_arg: float) -> float:
    if t < 0 or s_arg < 0:
        raise ValueError("arguments must be nonnegative")
    if zeta.family == "linear":
        return zeta.lam * s_arg - t
    return zeta.lam * s_arg - zeta.mu * t


@dataclass
class ZetaAxiomReport:
    zeta1_ok: bool
    zeta2_ok: bool
    zeta3_ok: bool
    zeta2_witnesses: list = field(default_factory=list)
    zeta3_witnesses: list = field(default_factory=list)
    sample_spec: dict = field(default_factory=dict)
    note: str = "sampled verdicts are evidence relative to sample_spec, not proof"

    @property
    def all_ok(self) -> bool:
        return self.zeta1_ok and self.zeta2_ok and self.zeta3_ok


def check_zeta_axioms(zeta: SimulationFunction, grid=DEFAULT_GRID) -> ZetaAxiomReport:
    """Check the origin condition exactly and the two quantified axioms on samples.

    The strict-bound axiom is tested at every grid pair with both entries
    positive.  The limsup axiom is tested on constant sequences t_n = s_n = c
    for each positive grid c and on the convergent pair t_n = L(1 + 1/n),
    s_n = L(1 - 1/(2n)) for each positive grid limit L; the limsup is
    estimated as the max over the sampled tail.
    """
    grid = tuple(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    positive = [c for c in grid if c > 0]

    report = ZetaAxiomReport(True, True, True)
    report.sample_spec = {
        "grid": list(grid),
        "sequence_limits": positive,
        "sequence_indices": f"n in 1..{_SEQ_INDICES[-1]} (thinned tail)",
    }

    report.zeta1_ok = evaluate(zeta, 0.0, 0.0) == 0.0

    for t in positive:
        for s_arg in positive:
            v = evaluate(zeta, t, s_arg)
            if not v < s_arg - t:
                report.zeta2_ok = False
                report.zeta2_witnesses.append((t, s_arg, v))

    tail_from = len(_SEQ_INDICES) // 2
    for limit in positive:
        for name, tseq, sseq in (
            ("constant", lambda n, c=limit: c, lambda n, c=limit: c),
            ("convergent", lambda n, c=limit: c * (1 + 1 / n), lambda n, c=limit: c * (1 - 1 / (2 * n))),
        ):
            values = [evaluate(zeta, tseq(n), sseq(n)) for n in _SEQ_INDICES]
            limsup_est = max(values[tail_from:])
            if not limsup_est < 0:
                report.zeta3_ok = False
                report.zeta3_witnesses.append(
                    {"family": name, "limit": limit, "limsup_estimate": limsup_est}
                )
    return report


@dataclass
class BSimulationCheck:
    bound: float
    sign: str  # "negative" | "zero" | "positive"
    zeta_value: float | None


def check_b_simulation_inequality(
    zeta: SimulationFunction | None, t: float, s_arg: float, s_coeff: float
) -> BSimulationCheck:
    """Evaluate the bound s_arg - s_coeff*t constraining any b-simulation function.

    A b-simulation function must satisfy zeta(s_coeff*t, s_arg) < s_arg -
    s_coeff*t, so a negative bound rules out any nonnegative zeta value at
    that argument pair.  At s_coeff = 1 this reduces to the plain
    strict-bound axiom.
    """
    if t < 0 or s_arg < 0:
        raise ValueError("arguments must be nonnegative")
    if s_coeff < 1:
        raise ValueError("s_coeff >= 1 required")
    bound = s_arg - s_coeff * t
    sign = "zero" if bound == 0 else ("negative" if bound < 0 else "positive")
    zv = None
    if zeta is not None:
        zv = evaluate(zeta, s_coeff * t, s_arg)
    return BSimulationCheck(bound=bound, sign=sign, zeta_value=zv)
