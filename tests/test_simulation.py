import pytest
from hypothesis import given, strategies as st

from relfix.simulation import (
    SimulationFunction,
    check_b_simulation_inequality,
    check_zeta_axioms,
    evaluate,
)


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
    assert rep.all_ok
    assert rep.sample_spec["grid"]
    assert "not proof" in rep.note


def test_scaled_mu_below_one_violates_zeta2():
    # lam*s - mu*t < s - t fails once t >= (1 - lam) / (1 - mu) * s
    rep = check_zeta_axioms(SimulationFunction(family="scaled", lam=0.1, mu=0.5), grid=(1.0, 2.0))
    assert rep.zeta1_ok and rep.zeta3_ok
    assert not rep.zeta2_ok
    assert [w[:2] for w in rep.zeta2_witnesses] == [(2.0, 1.0)]


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


def test_b_simulation_bound_remark_values():
    # at the pair (2,4): d(F2,F4) = 4, d(2,4) = 4, s = 2 -> 4 - 8 = -4
    res = check_b_simulation_inequality(linear(0.9), t=4.0, s_arg=4.0, s_coeff=2.0)
    assert res.bound == -4.0
    assert res.sign == "negative"
    res0 = check_b_simulation_inequality(None, t=0.0, s_arg=0.0, s_coeff=2.0)
    assert res0.bound == 0.0 and res0.sign == "zero"
    assert check_b_simulation_inequality(None, 1.0, 4.0, 2.0).bound == 2.0


@given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
def test_b_simulation_bound_reduces_at_s1(t, s_arg):
    assert check_b_simulation_inequality(None, t, s_arg, 1.0).bound == s_arg - t


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        check_zeta_axioms(linear(0.5), grid=())
