import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from relfix.simulation import FAMILIES, SimulationFunction, check_zeta_axioms, evaluate


def linear(lam):
    return SimulationFunction(family="linear", lam=lam)


def test_linear_evaluate():
    assert evaluate(linear(0.9), 2.0, 3.0) == pytest.approx(0.7)
    assert evaluate(linear(0.5), 2.0, 3.0) == pytest.approx(-0.5)
    assert evaluate(linear(0.3), 0.0, 0.0) == 0.0


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        evaluate(linear(0.5), -1.0, 0.0)


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.5])
def test_linear_lambda_boundary_rejected(lam):
    with pytest.raises(ValueError):
        linear(lam)


def test_scaled_family():
    z = SimulationFunction(family="scaled", lam=0.5, mu=1.0)
    assert evaluate(z, 2.0, 3.0) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        SimulationFunction(family="scaled", lam=1.0, mu=0.5)


def test_linear_axioms_all_pass():
    rep = check_zeta_axioms(linear(0.9))
    assert rep.zeta2_ok
    assert rep.zeta2_witnesses == []


def test_scaled_mu_below_one_violates_zeta2():
    # lam*s - mu*t >= s - t once t >= (1 - lam) / (1 - mu) * s = 1.8 s
    zeta = SimulationFunction(family="scaled", lam=0.1, mu=0.5)
    rep = check_zeta_axioms(zeta)
    assert not rep.zeta2_ok
    assert rep.zeta2_witnesses == [(2.0, 1.0, evaluate(zeta, 2.0, 1.0))]


HUGE = Fraction(2) ** 2200  # beyond the ratio of any two positive floats


def zeta2_fails_exactly(lam, mu) -> bool:
    """Oracle: lam*s - mu*t < s - t breaks for some t, s > 0 iff it breaks at s >> t or t >> s."""
    lam, mu = Fraction(lam), Fraction(mu)
    return any(lam * s - mu * t >= s - t for t, s in ((1, HUGE), (HUGE, 1)))


def assert_exact_verdict(zeta, mu):
    rep = check_zeta_axioms(zeta)
    assert rep.zeta2_ok is not zeta2_fails_exactly(zeta.lam, mu)
    if rep.zeta2_ok:
        assert rep.zeta2_witnesses == []
        return
    [(t, s_arg, value)] = rep.zeta2_witnesses
    assert 0 < t < math.inf and 0 < s_arg < math.inf
    assert value == evaluate(zeta, t, s_arg)
    lam, mu, t, s_arg = map(Fraction, (zeta.lam, mu, t, s_arg))
    assert lam * s_arg - mu * t >= s_arg - t


positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(positive_floats, positive_floats)
@example(0.001, 0.999)
@example(1.001, 10.0)
@example(1 + 2.0 ** -52, 1e308)
@example(0.5, 0.5 + 2.0 ** -53)
@example(1.0, 2.0)
def test_scaled_zeta2_verdict_is_exact(a, b):
    lam, mu = sorted((a, b))
    assume(lam < mu)
    assert_exact_verdict(SimulationFunction(family="scaled", lam=lam, mu=mu), mu)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_linear_zeta_passes_every_axiom(lam):
    assert_exact_verdict(linear(lam), 1.0)


ZETA_PARAMETERS = st.one_of(
    st.tuples(st.just("linear"), st.floats(0.0, 1.0), st.none()),
    st.tuples(st.just("scaled"), st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.tuples(st.sampled_from(FAMILIES), st.none() | st.floats(), st.none() | st.floats()),
)


@given(ZETA_PARAMETERS)
@example(("linear", 2.0 ** -1074, None))
@example(("scaled", 1.0, 1.0 + 2.0 ** -52))
def test_every_admitted_zeta_meets_zeta1_and_zeta3(params):
    """zeta1 and zeta3 hold by construction, so no report states them: every
    zeta the constructor admits has zeta(0, 0) = 0 and lam < mu, which makes
    the zeta3 limit (lam - mu) L negative."""
    family, lam, mu = params
    try:
        zeta = SimulationFunction(family=family, lam=lam, mu=mu)
    except ValueError:
        return
    assert evaluate(zeta, 0.0, 0.0) == 0
    assert zeta.lam < zeta.t_coeff


@given(st.floats(allow_nan=False), st.floats(min_value=1.0))
@example(0.5, 1.0)
def test_a_zeta_without_a_zeta3_margin_is_refused(both, lam):
    with pytest.raises(ValueError):
        SimulationFunction(family="scaled", lam=both, mu=both)
    with pytest.raises(ValueError):
        linear(lam)


def test_scaled_rejects_infinite_mu():
    # zeta(0, 0) = 0 - inf*0 would be NaN
    with pytest.raises(ValueError):
        SimulationFunction(family="scaled", lam=0.5, mu=math.inf)


def test_linear_rejects_mu():
    with pytest.raises(ValueError, match="no mu"):
        SimulationFunction(family="linear", lam=0.5, mu=3.0)


@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=1e-6, max_value=100.0),
       st.floats(min_value=1e-6, max_value=100.0))
def test_linear_strict_bound_never_violated(lam, t, s_arg):
    # algebraic: lam*s - t < s - t whenever s > 0
    assert evaluate(linear(lam), t, s_arg) < s_arg - t


@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.01, max_value=50.0))
def test_linear_constant_sequence_limsup(lam, c):
    # on t_n = s_n = c the value is constantly (lam - 1) * c < 0
    assert evaluate(linear(lam), c, c) == pytest.approx((lam - 1) * c)
    assert evaluate(linear(lam), c, c) < 0
