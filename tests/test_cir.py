"""Closed-form square-root-diffusion bond against a Riccati ODE oracle.

The oracle integrates the affine ODE system for phi(tau) = log A and
B(tau) numerically with a high-order adaptive solver:

    B'   = 1 - alpha B - (sigma^2 / 2) B^2,   B(0) = 0
    phi' = -alpha beta B,                     phi(0) = 0

so the closed form is checked against an independent route, not itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import INTENSITY_SETS, RATE_FIXTURE, intensity_leg_params, rate_leg_params
from ssrd.cir import CirParams, cir_bond, cir_bond_dT


def _riccati_oracle(params: CirParams, tau: float) -> tuple[float, float]:
    def rhs(_, y):
        b = y[1]
        return [-params.alpha * params.beta * b,
                1.0 - params.alpha * b - 0.5 * params.sigma**2 * b * b]

    sol = solve_ivp(rhs, (0.0, tau), [0.0, 0.0], rtol=1e-12, atol=1e-14,
                    dense_output=True, method="DOP853")
    phi, b = sol.y[:, -1]
    return float(phi), float(b)


PARAM_CASES = [rate_leg_params()] + [intensity_leg_params(n) for n in INTENSITY_SETS]


@pytest.mark.parametrize("params", PARAM_CASES, ids=["rate", *INTENSITY_SETS])
@pytest.mark.parametrize("tau", [0.25, 1.0, 5.0, 30.0])
def test_bond_matches_riccati_ode(params, tau):
    phi, b = _riccati_oracle(params, tau)
    # state 0 isolates log A; a second state then pins B
    at_zero = cir_bond(replace(params, x0=0.0), 0.0, tau)
    assert np.log(at_zero) == pytest.approx(phi, abs=5e-11)
    slope = -np.log(cir_bond(replace(params, x0=1.0), 0.0, tau) / at_zero)
    assert slope == pytest.approx(b, rel=1e-10)
    assert cir_bond(params, 0.0, tau) == pytest.approx(np.exp(phi - b * params.x0), rel=1e-10)


def test_bond_at_zero_maturity_is_one():
    for params in PARAM_CASES:
        assert cir_bond(params, 0.0, 0.0) == 1.0
        assert cir_bond(params, 2.0, 2.0) == 1.0


def test_bond_zero_vol_collapses_to_deterministic_drift():
    # With sigma = 0 the factor is deterministic and the bond is
    # exp(-int_0^T x(s) ds) with x(s) the mean-reverting ODE path.
    f = RATE_FIXTURE
    params = CirParams(f["alpha1"], f["beta1"], 0.0, f["r0"])
    for tau in (0.5, 2.0, 7.0):
        mean_integral = f["beta1"] * tau + (f["r0"] - f["beta1"]) * (
            -np.expm1(-f["alpha1"] * tau)
        ) / f["alpha1"]
        assert cir_bond(params, 0.0, tau) == pytest.approx(np.exp(-mean_integral), rel=1e-13)


def test_bond_dT_matches_central_difference():
    params = rate_leg_params()
    eps = 1e-6
    for tau in (0.1, 1.0, 4.0):
        fd = (cir_bond(params, 0.0, tau + eps) - cir_bond(params, 0.0, tau - eps)) / (2 * eps)
        assert cir_bond_dT(params, 0.0, tau) == pytest.approx(fd, rel=1e-8)


def test_bond_dT_at_zero_maturity_is_minus_state():
    params = intensity_leg_params("mid2")
    assert cir_bond_dT(params, 0.0, 0.0) == pytest.approx(-params.x0, rel=1e-12)
    assert cir_bond_dT(replace(params, x0=0.07), 0.0, 0.0) == pytest.approx(-0.07, rel=1e-12)


def test_bond_accepts_maturity_arrays_and_explicit_state():
    params = intensity_leg_params("fast")
    taus = np.array([0.5, 1.0, 2.0])
    vec = cir_bond(params, 0.0, taus)
    assert vec.shape == (3,)
    for tau, v in zip(taus, vec):
        assert v == cir_bond(params, 0.0, float(tau))
    # exponential-affine in the state: P(2x) P(0) = P(x)^2
    shifted = cir_bond(replace(params, x0=2 * params.x0), 0.0, 1.0)
    base = cir_bond(replace(params, x0=0.0), 0.0, 1.0)
    assert shifted * base == pytest.approx(cir_bond(params, 0.0, 1.0) ** 2, rel=1e-14)


def test_bond_rejects_maturity_before_evaluation_time():
    params = rate_leg_params()
    with pytest.raises(ValueError):
        cir_bond(params, 1.0, 0.5)
    with pytest.raises(ValueError):
        cir_bond_dT(params, 1.0, np.array([2.0, 0.5]))


def test_params_validation():
    with pytest.raises(ValueError):
        CirParams(0.0, 0.03, 0.05, 0.02)
    with pytest.raises(ValueError):
        CirParams(0.2, 0.03, -0.01, 0.02)
    with pytest.raises(ValueError):
        CirParams(0.2, 0.03, 0.05, -0.02)
    with pytest.raises(ValueError):
        CirParams(0.2, np.inf, 0.05, 0.02)


def test_fixture_intensity_sets_satisfy_feller():
    for name in INTENSITY_SETS:
        leg = intensity_leg_params(name)
        assert 2.0 * leg.alpha * leg.beta > leg.sigma**2, name


@given(
    alpha=st.floats(0.01, 2.0),
    beta=st.floats(0.0, 1.0),
    sigma=st.floats(0.0, 0.8),
    x0=st.floats(0.0, 0.5),
    tau=st.floats(0.0, 15.0),
)
@settings(max_examples=150, deadline=None)
def test_bond_stays_in_unit_interval(alpha, beta, sigma, x0, tau):
    params = CirParams(alpha, beta, sigma, x0)
    v = cir_bond(params, 0.0, tau)
    assert 0.0 < v <= 1.0


@given(sigma=st.floats(1e-8, 5e-3))
@settings(max_examples=60, deadline=None)
def test_bond_is_continuous_through_small_vol_branch(sigma):
    # The log-A evaluation switches to a series for small sigma^2 u; the
    # seam must be smooth against the ODE oracle.
    params = CirParams(0.2, 0.03, sigma, 0.02)
    phi, b = _riccati_oracle(params, 3.0)
    assert cir_bond(params, 0.0, 3.0) == pytest.approx(np.exp(phi - b * 0.02), rel=1e-9)
