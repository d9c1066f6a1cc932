"""Simulation-function catalog and the exact verdicts on its defining axioms.

Both families are affine, zeta(t, s) = lam*s - mu*t with mu = 1 for linear,
so each axiom of Khojasteh, Shukla and Radenović (Filomat 29, 2015) has a
closed-form verdict:

    zeta1  zeta(0, 0) = 0                                always holds
    zeta2  zeta(t, s) < s - t for all t, s > 0           iff lam <= 1 <= mu
    zeta3  limsup zeta(t_n, s_n) < 0 when t_n, s_n -> L > 0
           (the limit is (lam - mu) L)                   iff lam < mu, always
"""

from __future__ import annotations

import math

from .records import fresh, record

FAMILIES = ("linear", "scaled")


@record(frozen=True)
class SimulationFunction:
    """A two-argument function zeta(t, s) from one of two families.

    linear:       zeta(t, s) = lam*s - t          with 0 < lam < 1, no mu
    scaled:       zeta(t, s) = lam*s - mu*t       with 0 < lam < mu < inf
    """

    family: str
    lam: float | None = None
    mu: float | None = None

    def __post_init__(self):
        if self.family == "linear":
            if self.lam is None or not 0.0 < self.lam < 1.0:
                raise ValueError("linear family requires lambda in (0, 1)")
            if self.mu is not None:
                raise ValueError("linear family takes no mu")
        elif self.family == "scaled":
            if self.lam is None or self.mu is None or not 0.0 < self.lam < self.mu < math.inf:
                raise ValueError("scaled family requires 0 < lambda < mu < inf")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def t_coeff(self) -> float:
        """The coefficient mu of t in lam*s - mu*t: 1 for the linear family."""
        return 1.0 if self.mu is None else self.mu


def evaluate(zeta: SimulationFunction, t: float, s_arg: float) -> float:
    if t < 0 or s_arg < 0:
        raise ValueError("arguments must be nonnegative")
    return zeta.lam * s_arg - zeta.t_coeff * t


@record
class ZetaAxiomReport:
    zeta1_ok: bool
    zeta2_ok: bool
    zeta3_ok: bool
    zeta2_witnesses: list = fresh(list)

    @property
    def all_ok(self) -> bool:
        return self.zeta1_ok and self.zeta2_ok and self.zeta3_ok


def _zeta2_witness(lam: float, mu: float) -> tuple[float, float]:
    """Powers of two (t, s) with (lam - 1) s >= (mu - 1) t, given lam > 1 or mu < 1.

    With lam > 1 the ratio s/t must reach (mu - 1)/(lam - 1), with mu < 1 the
    ratio t/s must reach (1 - lam)/(1 - mu); both bounds exceed 1 because
    lam < mu.  The bound is compared in integers from the floats' exact
    ratios.  For lam > 1, t = 2**-e with e the binary exponent of mu keeps
    mu*t below 1, and then lam*s stays below 4*lam/(lam - 1) <= 2**55, so
    zeta(t, s) is finite; for mu < 1, s = 1 and t <= 2**55.
    """
    p, q = lam.as_integer_ratio()
    u, v = mu.as_integer_ratio()
    if lam > 1.0:
        num, den = (u - v) * q, (p - q) * v
    else:
        num, den = (q - p) * v, (v - u) * q
    k = num.bit_length() - den.bit_length() + 1  # 2**k > num/den
    e = max(math.frexp(mu)[1], 0)
    small, large = math.ldexp(1.0, -e), math.ldexp(1.0, k - e)
    return (small, large) if lam > 1.0 else (large, small)


def check_zeta_axioms(zeta: SimulationFunction) -> ZetaAxiomReport:
    """Decide the three axioms exactly; a failing zeta2 carries one witness.

    The witness is (t, s, zeta(t, s)) with finite positive t and s at which
    zeta(t, s) >= s - t holds over the reals.
    """
    lam, mu = zeta.lam, zeta.t_coeff
    report = ZetaAxiomReport(zeta1_ok=True, zeta2_ok=lam <= 1.0 <= mu, zeta3_ok=True)
    if not report.zeta2_ok:
        t, s_arg = _zeta2_witness(lam, mu)
        report.zeta2_witnesses.append((t, s_arg, evaluate(zeta, t, s_arg)))
    return report
