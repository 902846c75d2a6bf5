"""Joint-transform expansion against independent oracles.

Oracle routes used here, none of which share code with the implementation:

* zero correlation  -- v factorizes exactly into the two closed-form
  one-leg transforms, so order-2 output is checked against that product;
* zero volatility   -- everything collapses to deterministic mean-path
  integrals with closed forms written out inline;
* proxy moments    -- adaptive quadrature and brute-force trapezoid rules
  on dense grids;
* sigma^2 Taylor    -- coefficient correctness shown by the error decaying
  like sigma^6 against the exact one-leg transform, and the coefficients'
  closed forms evaluated in 150-digit decimal arithmetic.
"""

from __future__ import annotations

import math
import time
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from conftest import INTENSITY_SETS, SET_NAMES, intensity_leg_params, make_model
from ssrd.cir import CirParams, cir_bond, cir_bond_dT
from ssrd.expansion import (
    ANCHOR_FLOOR,
    ModelParams,
    _SERIES_SWITCH,
    _covariances,
    _expand,
    _psi_theta,
    _scaled_coefficients,
    expansion_terms,
    h_expansion,
    proxy_bond_expansion,
    survival_approx,
    v_expansion,
)
from ssrd.timeint import _RunningGrid, psi, theta

MATURITIES = np.array([0.5, 1.0, 2.0, 3.0, 5.0])


# --------------------------------------------------------------------------
# Parameter container
# --------------------------------------------------------------------------


def test_params_validation():
    base = dict(alpha1=0.2, beta1=0.03, sigma1=0.05, r0=0.02,
                alpha2=0.04, beta2=0.18, sigma2=0.07, lambda0=0.011, rho=0.05)
    ModelParams(**base)  # sanity: the base set is valid
    for key, bad in [("alpha1", 0.0), ("alpha2", -0.1), ("beta2", -1e-9),
                     ("sigma1", -0.01), ("sigma2", -0.01), ("lambda0", 0.0),
                     ("rho", 1.5), ("r0", math.nan)]:
        with pytest.raises(ValueError):
            ModelParams(**{**base, key: bad})
    with pytest.raises(ValueError):
        ModelParams(**base, sigma1_hat=-0.1)
    # negative short rates are representable; only the intensity is sign-constrained
    ModelParams(**{**base, "r0": -0.005, "rho": 0.0})


def test_active_rate_volatility_substitution():
    loud = make_model("mid2", sigma1=0.4, sigma1_hat=0.05)
    quiet = make_model("mid2", sigma1=0.05)
    assert loud.sigma1_active == 0.05
    assert loud.rho_hat == quiet.rho_hat
    # every expansion moment must see the active volatility only
    np.testing.assert_array_equal(
        v_expansion(loud, MATURITIES), v_expansion(quiet, MATURITIES)
    )
    np.testing.assert_array_equal(
        h_expansion(loud, MATURITIES), h_expansion(quiet, MATURITIES)
    )


# --------------------------------------------------------------------------
# Structural identities of the expansion
# --------------------------------------------------------------------------


def test_zero_maturity_identities(set_name):
    model = make_model(set_name)
    terms = expansion_terms(model, 0.0, order=2)
    assert terms.v()[0] == 1.0
    assert terms.h()[0] == model.lambda0
    # all corrections integrate over an empty interval
    assert np.all(terms.v_terms[1:] == 0.0)
    assert np.all(terms.h_terms[1:] == 0.0)


def test_first_order_transform_term_vanishes(set_name):
    # The payoff-1 correction is linear in the centered proxy state, so its
    # first-order contribution is identically zero at every maturity.
    terms = expansion_terms(make_model(set_name), MATURITIES, order=2)
    assert np.all(terms.v_terms[1] == 0.0)
    assert np.any(terms.h_terms[1] != 0.0)


def test_orders_are_nested_partial_sums(set_name):
    model = make_model(set_name)
    full = expansion_terms(model, MATURITIES, order=2)
    for order in (0, 1, 2):
        np.testing.assert_array_equal(full.v(order), full.v_terms[: order + 1].sum(axis=0))
        part = expansion_terms(model, MATURITIES, order=order)
        np.testing.assert_array_equal(part.v_terms, full.v_terms[: order + 1])
        np.testing.assert_array_equal(part.h_terms, full.h_terms[: order + 1])
        np.testing.assert_array_equal(v_expansion(model, MATURITIES, order=order), full.v(order))
        np.testing.assert_array_equal(h_expansion(model, MATURITIES, order=order), full.h(order))


def test_expansion_input_validation():
    model = make_model("mid1")
    with pytest.raises(ValueError):
        expansion_terms(model, 1.0, order=3)
    with pytest.raises(ValueError):
        expansion_terms(model, 1.0, quad_nodes=1)
    with pytest.raises(ValueError):
        expansion_terms(model, [1.0, -0.5])
    terms = expansion_terms(model, [[1.0, 2.0], [3.0, 4.0]], order=2)
    assert terms.v_terms.shape == (3, 2, 2)


def test_scalar_maturity_returns_float():
    model = make_model("fast")
    assert isinstance(v_expansion(model, 1.0), float)
    assert isinstance(h_expansion(model, 1.0), float)
    vec = v_expansion(model, [1.0])
    assert vec.shape == (1,)


# --------------------------------------------------------------------------
# Zero-volatility and zero-correlation oracles
# --------------------------------------------------------------------------


def _mean_integral(alpha, beta, x0, T):
    """int_0^T of the mean-reverting ODE path, closed form."""
    return beta * T + (x0 - beta) * (-np.expm1(-alpha * T)) / alpha


def test_deterministic_limit_is_exact(set_name):
    model = make_model(set_name, sigma1=0.0, sigma2=0.0)
    expected_v = np.exp(
        -_mean_integral(model.alpha1, model.beta1, model.r0, MATURITIES)
        - _mean_integral(model.alpha2, model.beta2, model.lambda0, MATURITIES)
    )
    terms = expansion_terms(model, MATURITIES, order=2)
    np.testing.assert_allclose(terms.v(), expected_v, rtol=1e-12)
    assert np.all(terms.v_terms[1:] == 0.0) and np.all(terms.h_terms[1:] == 0.0)
    lam_bar = model.lambda0 * np.exp(-model.alpha2 * MATURITIES) + model.beta2 * (
        -np.expm1(-model.alpha2 * MATURITIES)
    )
    np.testing.assert_allclose(terms.h(), expected_v * lam_bar, rtol=1e-12)


def test_uncorrelated_transform_factorizes(set_name):
    # At alpha2 = 12 the intensity covariances relax over alpha2 T up to 360,
    # far past where a factor e^{alpha2 T} would overflow.
    for overrides, T in (({}, MATURITIES), ({"alpha2": 12.0}, np.array([1.0, 10.0, 30.0]))):
        model = make_model(set_name, rho=0.0, **overrides)
        p = cir_bond(model.rate_leg(), 0.0, T)
        q = cir_bond(model.intensity_leg(), 0.0, T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v2 = v_expansion(model, T, order=2)
            h2 = h_expansion(model, T, order=2)
        np.testing.assert_allclose(v2, p * q, rtol=1e-3)
        # h is the plain terminal-intensity transform E[e^{-int (r+lam)} lam_T]
        oracle = p * (-cir_bond_dT(model.intensity_leg(), 0.0, T))
        np.testing.assert_allclose(h2, oracle, rtol=1e-3)


@pytest.mark.parametrize("nodes", [8, 32])
@pytest.mark.parametrize("overrides", [{}, {"alpha2": 8.0}, {"alpha2": 1e-9}, {"sigma1_hat": 0.031}],
                         ids=["set", "alpha2=8", "alpha2=1e-9", "sigma1_hat"])
def test_uncorrelated_variance_term_equals_the_one_leg_closed_forms(set_name, overrides, nodes):
    # At rho = 0 the order-2 term is v0 times half the variance of
    # int (r + lam), which splits into the legs' sigma^2 coefficients: the
    # running integrals of c11 and c22 (D1, D2, then v2) must reproduce
    # proxy_bond_expansion's closed forms, whatever the grid's cuts.
    model = make_model(set_name, rho=0.0, **overrides)
    terms = expansion_terms(model, MATURITIES, order=2, quad_nodes=nodes)
    lin_rate = proxy_bond_expansion(model.alpha1, model.beta1, model.r0, MATURITIES)[1]
    lin_int = proxy_bond_expansion(model.alpha2, model.beta2, model.lambda0, MATURITIES)[1]
    half_var = model.sigma1_active ** 2 * lin_rate + model.sigma2 ** 2 * lin_int
    v0, h0 = terms.v_terms[0], terms.h_terms[0]
    np.testing.assert_allclose(terms.v_terms[2], v0 * half_var, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(terms.h_terms[2], h0 / v0 * (v0 * half_var), rtol=1e-14, atol=0.0)


def test_second_order_tightens_the_uncorrelated_fit(set_name):
    model = make_model(set_name, rho=0.0)
    T = np.array([1.0, 3.0, 5.0])
    exact = cir_bond(model.rate_leg(), 0.0, T) * cir_bond(model.intensity_leg(), 0.0, T)
    err1 = np.abs(v_expansion(model, T, order=1) - exact)
    err2 = np.abs(v_expansion(model, T, order=2) - exact)
    assert np.all(err2 <= err1)


def test_correlation_monotonicity():
    # Positive rho raises Var(int r + lam), and by convexity of exp the
    # transform v with it; the terminal-intensity payoff carries the
    # discount/terminal covariance with a minus sign, so h moves the other way.
    T = 3.0
    for name in SET_NAMES:
        vs = [v_expansion(make_model(name, rho=r), T, order=2) for r in (-0.5, 0.0, 0.5)]
        hs = [h_expansion(make_model(name, rho=r), T, order=2) for r in (-0.5, 0.0, 0.5)]
        assert vs[0] < vs[1] < vs[2], name
        assert hs[0] > hs[1] > hs[2], name


def test_quadrature_node_doubling_is_converged(set_name):
    model = make_model(set_name)
    v32 = v_expansion(model, MATURITIES, order=2, quad_nodes=32)
    v64 = v_expansion(model, MATURITIES, order=2, quad_nodes=64)
    h32 = h_expansion(model, MATURITIES, order=2, quad_nodes=32)
    h64 = h_expansion(model, MATURITIES, order=2, quad_nodes=64)
    assert np.max(np.abs(v64 - v32) / np.abs(v64)) < 1e-9
    assert np.max(np.abs(h64 - h32) / np.abs(h64)) < 1e-9


def test_fast_mean_reversion_keeps_the_variance_term(set_name):
    # With a2 T = 50 the discount loadings ahead of s span e^{-50}; the
    # order-2 term must stay positive and settled under node refinement.
    model = make_model(set_name, alpha2=5.0, rho=0.5)
    v2 = [expansion_terms(model, 10.0, order=2, quad_nodes=n).v_terms[2, 0] for n in (16, 64)]
    assert v2[0] > 0.0
    assert v2[0] == pytest.approx(v2[1], rel=1e-12)


@pytest.mark.parametrize(("nodes", "rtol"), [(32, 1e-14), (8, 1e-10)])
@pytest.mark.parametrize("overrides", [{}, {"alpha2": 8.0}], ids=["mid2", "alpha2=8"])
@pytest.mark.parametrize("rho", [0.5, -0.9])
def test_terms_at_the_grid_nodes_match_a_grid_laid_over_them(rho, overrides, nodes, rtol):
    # The grid over six years of semiannual dates gives h and v at its own
    # nodes through its running-integration matrix; expansion_terms at
    # those nodes lays a further grid over every gap between them.  With
    # alpha1 + alpha2 > 1/0.5 each period is cut into 5 gaps.
    model = make_model("mid2", rho=rho, **overrides)
    grid, v, h = _expand(model, 0.5 * np.arange(1, 13), 2, nodes)
    ref = expansion_terms(model, grid.nodes, order=2, quad_nodes=nodes)
    at_nodes = slice(0, grid.nodes.size)
    np.testing.assert_allclose((v[0] + v[1])[at_nodes], ref.v().ravel(), rtol=rtol, atol=0.0)
    np.testing.assert_allclose((h[0] + h[1] + h[2])[at_nodes], ref.h().ravel(), rtol=rtol,
                               atol=0.0)


@pytest.mark.parametrize("alpha2", [1e-9, 2e-5, 8.0], ids=["all-series", "both-sides", "cut-gaps"])
def test_order_zero_terms_equal_the_closed_forms(alpha2):
    # The engine evaluates psi once per leg and reads theta off it; order 0
    # must equal the deterministic transform written with timeint's own
    # psi and theta, to the bit.  At alpha2 = 2e-5 the early nodes sit below
    # theta's 1e-5 series switch in alpha2 t and the late ones above it; at
    # alpha2 = 8 every semiannual period is cut into several gaps.
    model = make_model("mid2", alpha2=alpha2, rho=0.5)
    T = 0.5 * np.arange(1, 13)
    grid, (v,), (h,) = _expand(model, T, 0, 8)
    t = grid.times
    assert np.array_equal(t, np.concatenate((grid.nodes.ravel(), T)))
    a1, a2 = model.alpha1, model.alpha2
    v0 = np.exp(-model.r0 * psi(-a1, 0.0, t) - a1 * model.beta1 * theta(-a1, a1, 0.0, t)
                - model.lambda0 * psi(-a2, 0.0, t) - a2 * model.beta2 * theta(-a2, a2, 0.0, t))
    mean_lam = model.lambda0 * np.exp(-a2 * t) + a2 * model.beta2 * psi(-a2, 0.0, t)
    if alpha2 == 2e-5:
        assert np.any(a2 * t < 1e-5) and np.any(a2 * t > 1e-5)
    assert np.array_equal(v, v0)
    assert np.array_equal(h, v0 * mean_lam)


@pytest.mark.parametrize("alpha", [1e-9, 2e-5, 0.2, 30.0])
def test_survival_order_zero_equals_the_closed_form(alpha):
    # p0 reads theta off its own psi; at alpha = 2e-5 the maturities sit on
    # both sides of theta's series switch.
    leg = CirParams(alpha, 0.05, 0.1, 0.01)
    T = np.array([0.0, 0.1, 0.4, 1.0, 5.0, 30.0])
    oracle = np.exp(-leg.x0 * psi(-alpha, 0.0, T) - alpha * leg.beta * theta(-alpha, alpha, 0.0, T))
    assert np.array_equal(survival_approx(leg, T, order=0), oracle)
    assert np.array_equal(proxy_bond_expansion(alpha, leg.beta, leg.x0, T)[0], oracle)


def test_theta_series_matches_a_decimal_oracle():
    # Below |a t| = 1e-5, theta(-a, a, 0, t) = (t - psi(-a, 0, t)) / a
    # cancels and the engine switches to a series.  Against the closed form
    # in 60-digit decimal arithmetic (each float converts exactly) it must
    # hold to 1e-15 relative; a first-order series is off by up to ~1e-11.
    rng = np.random.default_rng(0)
    at = 10.0 ** rng.uniform(-12.0, -5.0, 2000)
    t = 10.0 ** rng.uniform(-3.0, 1.5, 2000)
    a = at / t
    assert np.all(a * t < 1e-5)
    _, th = _psi_theta(a, t)
    with localcontext() as ctx:
        ctx.prec = 60
        for ai, ti, got in zip(a.tolist(), t.tolist(), th.tolist()):
            A, T = Decimal(ai), Decimal(ti)
            exact = (T - (1 - (-A * T).exp()) / A) / A
            assert abs(Decimal(got) - exact) <= Decimal("1e-15") * exact, (ai, ti)


# --------------------------------------------------------------------------
# One-leg sigma^2 Taylor expansion
# --------------------------------------------------------------------------


def test_proxy_bond_coefficients_match_exact_transform_scaling():
    # If (p0, lin, quad) are the true Taylor coefficients in sigma^2, the
    # residual against the exact transform must shrink like sigma^6.
    alpha, beta, x0, T = 0.2, 0.03, 0.02, 5.0
    p0, lin, quad = proxy_bond_expansion(alpha, beta, x0, T)
    sigmas = np.array([0.05, 0.1, 0.2])
    errs = []
    for s in sigmas:
        exact = cir_bond(CirParams(alpha, beta, s, x0), 0.0, T)
        approx = p0 * (1.0 + s**2 * lin + s**4 * quad)
        errs.append(abs(exact - approx))
    # halving sigma divides the error by ~64; allow a generous band
    assert errs[2] / errs[1] == pytest.approx(64.0, rel=0.6)
    assert errs[1] / errs[0] == pytest.approx(64.0, rel=0.6)
    # the sigma^6 coefficient itself is order one for this leg
    assert all(e / s**6 < 2.5 for e, s in zip(errs, sigmas))


@pytest.mark.parametrize("alpha", [0.2, 2.5, 30.0])
def test_proxy_bond_linear_coefficient_matches_adaptive_quadrature(alpha):
    # lin = -x0 B1(T) - alpha beta int_0^T B1 with B1 from its definition.
    beta, x0, T = 0.03, 0.02, 30.0

    def b1(w):
        def integrand(u):
            return np.exp(-alpha * (w - u)) * (-np.expm1(-alpha * u) / alpha) ** 2
        return -0.5 * quad(integrand, 0.0, w, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    oracle = -x0 * b1(T) - alpha * beta * quad(b1, 0.0, T, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    assert proxy_bond_expansion(alpha, beta, x0, T)[1] == pytest.approx(oracle, rel=1e-11)


def _scaled_oracle(x: Decimal):
    # g1, G1, g2, G2 of B1(tau) = tau^3 g1(X), int B1 = tau^4 G1(X),
    # B2(tau) = tau^5 g2(X), int B2 = tau^6 G2(X) at X = alpha tau; the
    # numerators cancel like X^3 to X^6, so at X = 1e-8 the last loses 48
    # of the context's digits
    e = (-x).exp()
    return (
        (2 * x * e - 1 + e * e) / (2 * x**3),
        (5 - 2 * x - 4 * (x + 1) * e - e * e) / (4 * x**4),
        (2 - 2 * x * x * e - 2 * x * e - 4 * x * e * e + e - 2 * e * e - e**3) / (4 * x**5),
        (6 * x - 22 + 6 * (x + 1) * e * e + 3 * (2 * x * x + 6 * x + 5) * e + e**3)
        / (12 * x**6),
    )


def test_proxy_bond_coefficients_match_a_decimal_oracle():
    # alpha from 1e-6 to 300 and tau from 0.01 to 30, plus legs on both
    # sides of the series switch.  quad = l2 + l1^2/2 can cancel on its own,
    # so its error is bounded against the size of its parts.
    rng = np.random.default_rng(0)
    n = 300
    alpha = 10.0 ** rng.uniform(-6.0, math.log10(300.0), n)
    tau = 10.0 ** rng.uniform(-2.0, math.log10(30.0), n)
    near = 10.0 ** rng.uniform(-2.0, math.log10(30.0), 60)
    alpha = np.concatenate((alpha, _SERIES_SWITCH * (1.0 + rng.uniform(-0.05, 0.05, 60)) / near))
    tau = np.concatenate((tau, near))
    beta = rng.uniform(0.0, 0.2, alpha.size)
    x0 = rng.uniform(0.0, 0.2, alpha.size)
    x = alpha * tau
    assert np.any(x < _SERIES_SWITCH) and np.any(x >= _SERIES_SWITCH)
    scaled = _scaled_coefficients(x)
    with localcontext() as ctx:
        ctx.prec = 150
        for i, (a, t, b, y) in enumerate(zip(alpha.tolist(), tau.tolist(),
                                             beta.tolist(), x0.tolist())):
            for got, exact in zip(scaled[:, i].tolist(), _scaled_oracle(Decimal(x[i]))):
                assert abs(Decimal(got) - exact) <= Decimal("2e-14") * abs(exact), (a, t)
            A, T, ab, Y = Decimal(a), Decimal(t), Decimal(a) * Decimal(b), Decimal(y)
            g1, int_g1, g2, int_g2 = _scaled_oracle(A * T)
            l1 = -Y * T**3 * g1 - ab * T**4 * int_g1
            l2 = -Y * T**5 * g2 - ab * T**6 * int_g2
            _, lin, quad_ = proxy_bond_expansion(a, b, y, t)
            assert abs(Decimal(lin) - l1) <= Decimal("2e-14") * abs(l1), (a, t)
            bound = Decimal("1e-13") * (abs(l2) + l1 * l1 / 2)
            assert abs(Decimal(quad_) - (l2 + l1 * l1 / 2)) <= bound, (a, t)


def test_one_leg_cost_does_not_grow_with_mean_reversion():
    # alpha T = 9000: the same few array operations as at alpha = 1, where a
    # grid cut to the kernel's decay scale took 9,000 gaps and 131 MB
    fast = CirParams(300.0, 0.05, 0.1, 0.01)
    slow = CirParams(1.0, 0.05, 0.1, 0.01)
    assert survival_approx(fast, 30.0, order=2) == pytest.approx(
        cir_bond(fast, 0.0, 30.0), rel=1e-12)

    def cost(leg):
        tracemalloc.start()
        survival_approx(leg, 30.0, order=2)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        best = math.inf
        for _ in range(20):
            start = time.perf_counter()
            survival_approx(leg, 30.0, order=2)
            best = min(best, time.perf_counter() - start)
        return peak, best

    (peak_slow, best_slow), (peak_fast, best_fast) = cost(slow), cost(fast)
    assert peak_fast <= peak_slow
    assert best_fast <= 2.0 * best_slow + 1e-3
    # the speed a runaway rate fit reaches, which a grid met with GiB arrays
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        coefficients = proxy_bond_expansion(1.1e8, 0.03, 0.02, 6.0)
        best = min(best, time.perf_counter() - start)
    assert np.all(np.isfinite(coefficients))
    assert best <= 0.01


def test_survival_at_fast_mean_reversion_matches_exact_bond():
    # alpha T = 900: the one-leg coefficients must not form e^{alpha u}.
    leg = CirParams(30.0, 0.05, 0.1, 0.01)
    T = np.array([1.0, 30.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        approx = survival_approx(leg, T, order=2)
    np.testing.assert_allclose(approx, cir_bond(leg, 0.0, T), rtol=1e-12)


def test_proxy_bond_zero_vol_base_is_deterministic_bond():
    alpha, beta, x0 = 0.04117, 0.18416, 0.01103
    T = np.array([1.0, 4.0])
    p0, lin, quad = proxy_bond_expansion(alpha, beta, x0, T)
    np.testing.assert_allclose(p0, np.exp(-_mean_integral(alpha, beta, x0, T)), rtol=1e-12)
    assert np.all(lin > 0.0)  # convexity raises the transform above its mean-path value


def test_survival_orders_bracket_exact_transform(set_name):
    leg = intensity_leg_params(set_name)
    T = np.array([0.5, 2.0, 4.0, 6.0])
    exact = cir_bond(leg, 0.0, T)
    err = [np.max(np.abs(survival_approx(leg, T, order=k) - exact) / exact) for k in (0, 1, 2)]
    assert err[1] < err[0] and err[2] < err[1]
    assert err[1] < 5e-3


def test_survival_prefix_is_bitwise_identical(set_name):
    # The grid sorts the maturities, so a prefix sees exactly the gaps and
    # nodes it would see on its own.
    leg = intensity_leg_params(set_name)
    T = 0.25 * np.arange(1, 25)
    full = survival_approx(leg, T, order=2)
    for k in (1, 5, 24):
        assert np.array_equal(full[:k], survival_approx(leg, T[:k], order=2))


def test_survival_zero_vol_is_exact():
    leg = CirParams(0.04, 0.18, 0.0, 0.011)
    T = np.array([1.0, 6.0])
    for order in (0, 1, 2):
        np.testing.assert_allclose(survival_approx(leg, T, order=order),
                                   cir_bond(leg, 0.0, T), rtol=1e-12)
    with pytest.raises(ValueError):
        survival_approx(leg, T, order=3)


# --------------------------------------------------------------------------
# Proxy moments vs brute-force quadrature
# --------------------------------------------------------------------------


def _grid(model, points, nodes=32):
    return _RunningGrid(points, nodes, model.alpha1 + model.alpha2)


def _moments(model, points, nodes=32):
    """A grid over [0, points], both legs' mean paths at its nodes (row 0 the
    rate, row 1 the intensity) and the engine's order-2 c11, c22 and c12 there."""
    T = np.atleast_1d(np.asarray(points, dtype=float))
    grid = _grid(model, T, nodes)
    alpha = np.array([[model.alpha1], [model.alpha2]])
    w = _psi_theta(alpha, grid.times)[0]
    decay = np.exp(-alpha * grid.times)
    x0 = np.array([[model.r0], [model.lambda0]])
    mean = x0 * decay + alpha * np.array([[model.beta1], [model.beta2]]) * w
    means = mean[:, :grid.nodes.size].reshape((2,) + grid.nodes.shape)
    return grid, means, _covariances(model, grid, w, decay, 2)


def test_kernel_empty_interval_is_zero():
    model = make_model("mid2")
    assert _moments(model, 0.0)[2][2].size == 0  # no gap, no node
    grid, (rbar, lbar), _ = _moments(model, [0.0, 1.0])
    g = np.sqrt(rbar * lbar)
    assert grid.at_points(g)[0] == 0.0
    assert grid.decayed(g, model.alpha1 + model.alpha2)[1][0] == 0.0


def test_kernel_mean_path_weight_matches_adaptive_quadrature():
    # int_0^3 e^{-(a1+a2)(3-u)} rbar(u) sqrt(lbar(u)) du, the mean paths
    # written out as the mean-reverting ODE solutions
    model = make_model("fast")
    rate = model.alpha1 + model.alpha2

    def rbar(u):
        return model.beta1 + (model.r0 - model.beta1) * np.exp(-model.alpha1 * u)

    def lbar(u):
        return model.beta2 + (model.lambda0 - model.beta2) * np.exp(-model.alpha2 * u)

    oracle, _ = quad(lambda u: np.exp(-rate * (3.0 - u)) * rbar(u) * np.sqrt(lbar(u)), 0.0, 3.0,
                     epsabs=1e-15, epsrel=1e-13)
    grid, (rbar, lbar), _ = _moments(model, 3.0)
    got = grid.decayed(rbar * lbar ** 0.5, rate)[1]
    assert got == pytest.approx(oracle, rel=1e-10)


def test_kernel_cross_covariance_family_matches_dense_trapezoid():
    # Outer integral of e^{-a2 (1-u)} c12(u) on [0, 1], the cross term of D2,
    # with the inner c12 built independently by cumulative trapezoid on 1e5
    # panels: c12' = -(a1+a2) c12 + rho_hat sqrt(rbar lbar), c12(0) = 0, is
    # solved by its integrating factor e^{(a1+a2) u}.
    model = make_model("mid2")
    n = 100_001
    u = np.linspace(0.0, 1.0, n)
    rbar = model.beta1 + (model.r0 - model.beta1) * np.exp(-model.alpha1 * u)
    lbar = model.beta2 + (model.lambda0 - model.beta2) * np.exp(-model.alpha2 * u)
    growth = np.exp((model.alpha1 + model.alpha2) * u)
    root = np.sqrt(rbar * lbar)
    c12 = model.rho_hat * cumulative_trapezoid(growth * root, u, initial=0.0) / growth
    oracle = np.trapezoid(np.exp(-model.alpha2 * (1.0 - u)) * c12, u)
    grid, _, (_, _, c12) = _moments(model, 1.0)
    got = grid.decayed(c12, model.alpha2)[1]
    assert got == pytest.approx(oracle, rel=1e-8)


def test_kernel_cross_family_vanishes_without_correlation():
    model = make_model("mid2", rho=0.0)
    # nothing to carry: c12 is not built, and the kernels integrate c11 and c22
    _, _, (c11, c22, c12) = _moments(model, np.linspace(0.0, 2.0, 9))
    assert c12 is None and c11 is not None and c22 is not None


# --------------------------------------------------------------------------
# Proxy covariance matrix properties
# --------------------------------------------------------------------------


def test_proxy_covariance_psd_at_correlation_bounds():
    # At rho = +-1 the 2x2 proxy covariance must stay positive semidefinite:
    # c12^2 <= c11 c22 pointwise (Cauchy-Schwarz along the mean path).
    for rho in (-1.0, 1.0):
        model = make_model("mid2", rho=rho)
        _, _, (c11, c22, c12) = _moments(model, np.linspace(0.05, 5.0, 40), nodes=64)
        assert np.all(c11 > 0) and np.all(c22 > 0)
        assert np.all(c12**2 <= c11 * c22 * (1.0 + 1e-10))


def test_proxy_variances_match_small_time_growth():
    # Leading order c11(s) ~ sigma^2 x0 s for small s, at the last node of a
    # grid over [0, 1e-4].
    model = make_model("mid1")
    grid, _, (c11, c22, _) = _moments(model, 1e-4)
    s = grid.nodes[-1, -1]
    assert c11[-1, -1] == pytest.approx(model.sigma1**2 * model.r0 * s, rel=1e-3)
    assert c22[-1, -1] == pytest.approx(model.sigma2**2 * model.lambda0 * s, rel=1e-3)


# --------------------------------------------------------------------------
# Anchor floor
# --------------------------------------------------------------------------


def test_tiny_anchor_warns_only_under_correlation():
    tiny = make_model("mid2", r0=ANCHOR_FLOOR / 10)
    with pytest.warns(RuntimeWarning, match="state anchor below"):
        v_expansion(tiny, 1.0, order=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v_expansion(make_model("mid2", r0=ANCHOR_FLOOR / 10, rho=0.0), 1.0, order=2)


def test_negative_short_rate_prices_when_uncorrelated():
    # With rho = 0 no fractional powers of the rate path are taken, so a
    # negative observed short rate is fine.
    model = make_model("mid1", r0=-0.003, rho=0.0)
    v = v_expansion(model, MATURITIES, order=2)
    assert np.all(np.isfinite(v)) and np.all(v > 0)
    q = cir_bond(model.intensity_leg(), 0.0, MATURITIES)
    # discounting at slightly negative rates exceeds the pure survival factor
    assert np.all(v > q * np.exp(-0.01 * MATURITIES))
