"""End-to-end acceptance gates.

Each test is one pass/fail line: a pinned tolerance plus a wall-clock
budget, exercised on the four intensity parameter sets and the fixture
rate leg from conftest.  Run with ``pytest tests/test_acceptance.py -v``
to see one line per gate.  Gate 6 needs an externally supplied market
environment (``SSRD_MARKET_ENV_DIR``) and is skipped otherwise; gates
1-5 and 7 are self-contained.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    INTENSITY_SETS,
    MARKET_STRIP_MIDS,
    MARKET_STRIP_TENORS,
    SET_NAMES,
    make_model,
    rate_leg_params,
)
from ssrd.calibrate import (
    BootstrapAnomalyWarning,
    assemble_model,
    bootstrap_survival,
    match_volatility,
    run_pipeline,
)
from ssrd.cir import cir_bond, cir_bond_dT
from ssrd.expansion import expansion_terms, h_expansion, survival_approx, v_expansion
from ssrd.market import (
    CdsQuoteSet,
    DiscountCurve,
    PricingConfig,
    load_cds_quotes,
    load_discount_curve,
    load_pricing_config,
)
from ssrd.mc import McConfig, mc_estimate
from ssrd.pricing import build_schedule, spread_ladder

RATE = rate_leg_params()


def test_acceptance_1_uncorrelated_closed_form_equivalence():
    """Order-2 transform matches the exact product closed form at rho = 0.

    For every intensity set paired with the fixture rate leg, the order-2
    v-approximation must sit within 1e-3 relative of P(0,T) * Q(0,T), and
    the order-2 h-approximation within 1e-3 relative of the matching
    exact terminal-intensity transform, across T = 0.5, 1.0, ..., 5.0.
    Budget: 5 s.
    """
    start = time.perf_counter()
    maturities = np.arange(0.5, 5.01, 0.5)
    for name in SET_NAMES:
        model = make_model(name, rho=0.0)
        p = cir_bond(model.rate_leg(), 0.0, maturities)
        q = cir_bond(model.intensity_leg(), 0.0, maturities)
        v2 = v_expansion(model, maturities, order=2)
        np.testing.assert_allclose(v2, p * q, rtol=1e-3, err_msg=f"v, set {name}")
        h_exact = p * (-cir_bond_dT(model.intensity_leg(), 0.0, maturities))
        h2 = h_expansion(model, maturities, order=2)
        np.testing.assert_allclose(h2, h_exact, rtol=1e-3, err_msg=f"h, set {name}")
    assert time.perf_counter() - start < 5.0


def test_acceptance_2_error_decay_order_in_maturity():
    """Approximation error shrinks at least like T^1.5 / T^2 at rho = 0.

    Log-log slope of |order-N v error| against T over T in {1/16, ...,
    1} must be >= 1.3 at order 1 and >= 1.8 at order 2 for every
    intensity set.  Budget: 5 s.
    """
    start = time.perf_counter()
    maturities = np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])
    floors = {1: 1.3, 2: 1.8}
    for name in SET_NAMES:
        model = make_model(name, rho=0.0)
        exact = cir_bond(model.rate_leg(), 0.0, maturities) * cir_bond(
            model.intensity_leg(), 0.0, maturities
        )
        for order, floor in floors.items():
            err = np.abs(v_expansion(model, maturities, order=order) - exact)
            assert np.all(err > 0.0), f"error underflow, set {name} order {order}"
            slope = np.polyfit(np.log(maturities), np.log(err), 1)[0]
            assert slope >= floor, f"set {name} order {order}: slope {slope:.3f} < {floor}"
    assert time.perf_counter() - start < 5.0


def test_acceptance_3_monte_carlo_agreement_correlated():
    """Order-2 v and h agree with simulation at rho = +/-0.5.

    2e5 paths of full-truncation Euler at step 1/100, horizon 3.0, for
    every intensity set: both targets must land within 3 standard errors.
    The plain (non-antithetic) estimator is used because the antithetic
    pairing shrinks the standard error below the scheme's own O(dt)
    discretization bias on the least-volatile intensity leg, at which
    point the gate would measure the simulator rather than the
    approximation.  Budget: 60 s.
    """
    start = time.perf_counter()
    config = McConfig(n_paths=200_000, step=0.01, seed=20260819, antithetic=False)
    horizon = 3.0
    for name in SET_NAMES:
        for rho in (-0.5, 0.5):
            model = make_model(name, rho=rho)
            est = mc_estimate(model, horizon, config=config)
            (v_mc, v_se), (h_mc, h_se) = est["v"], est["h"]
            terms = expansion_terms(model, horizon, order=2)
            v2 = float(terms.v()[0])
            h2 = float(terms.h()[0])
            assert abs(v2 - v_mc) <= 3.0 * v_se, f"v, set {name} rho {rho}"
            assert abs(h2 - h_mc) <= 3.0 * h_se, f"h, set {name} rho {rho}"
    assert time.perf_counter() - start < 60.0


def test_acceptance_4_survival_approximation_accuracy():
    """First-order survival approximation tracks the exact transform.

    On every intensity set, the order-1 survival curve must stay within
    5e-3 relative of the exact square-root-diffusion closed form for all
    maturities up to 6 years.  Budget: 1 s.
    """
    start = time.perf_counter()
    maturities = np.arange(0.25, 6.01, 0.25)
    for name in SET_NAMES:
        leg = make_model(name).intensity_leg()
        approx = survival_approx(leg, maturities, order=1)
        exact = cir_bond(leg, 0.0, maturities)
        np.testing.assert_allclose(approx, exact, rtol=5e-3, err_msg=f"set {name}")
    assert time.perf_counter() - start < 1.0


def test_acceptance_5_calibration_round_trip():
    """Full three-step refit reprices self-generated quotes within 0.5 bp.

    Quotes at eleven tenors (1.0 to 6.0 by 0.5) are synthesized by the
    order-2 pricer from a known parameter vector; the pipeline then
    refits the discount curve, re-matches the volatility, and refits the
    credit leg from a start with every parameter multiplied by 1.5.  The
    repriced spreads must land within 0.5 bp of the synthetic mids at
    every tenor.  Budget: 60 s.
    """
    start = time.perf_counter()
    config = PricingConfig(roll="anniversary", recovery=0.4, order=2)
    tenors = tuple(1.0 + 0.5 * k for k in range(11))

    vol_true = match_volatility(RATE, RATE.x0, max(tenors))
    p = INTENSITY_SETS["mid2"]
    xi_true = np.array([p["alpha2"], p["beta2"], p["sigma2"], p["lambda0"], p["rho"]])
    model_true = assemble_model(RATE, vol_true.sigma1_hat, xi_true, correlated=True)
    union = build_schedule(None, max(tenors), config)
    ends = [len(build_schedule(None, t, config).times) for t in tenors]
    mids = spread_ladder(model_true, union, ends, config) * 1e4
    quotes = CdsQuoteSet(
        tenors=tenors,
        bid_bps=tuple(m - 0.5 for m in mids),
        ask_bps=tuple(m + 0.5 for m in mids),
        mid_bps=tuple(mids),
    )
    pillars = (0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0)
    curve = DiscountCurve(
        tenors=pillars,
        dfs=tuple(float(cir_bond(RATE, 0.0, t)) for t in pillars),
        short_rate=RATE.x0,
    )

    result = run_pipeline(curve, quotes, config, credit_initial=xi_true * 1.5)

    assert result.rates.converged and result.credit.converged
    for (tenor, spread), mid in zip(result.repriced, mids):
        assert abs(spread * 1e4 - mid) <= 0.5, f"tenor {tenor}: off by {abs(spread * 1e4 - mid):.3f} bp"
    assert time.perf_counter() - start < 60.0


def test_acceptance_6_supplied_market_environment():
    """Calibration on an externally supplied market snapshot.

    When ``SSRD_MARKET_ENV_DIR`` points at a directory holding
    ``curve.csv``, ``quotes.csv`` and ``config.txt``, the pipeline runs
    on those inputs and the repriced model column must match the market
    mids within 3.5% relative (twice the largest published relative
    error for this kind of fit).  Without the environment the gate is
    skipped: gates 1-5 and 7 then constitute acceptance.
    """
    env_dir = os.environ.get("SSRD_MARKET_ENV_DIR")
    if not env_dir:
        pytest.skip(
            "SSRD_MARKET_ENV_DIR not set; self-contained gates 1-5 and 7 "
            "constitute acceptance"
        )
    base = Path(env_dir)
    curve = load_discount_curve(base / "curve.csv")
    quotes = load_cds_quotes(base / "quotes.csv")
    config = load_pricing_config(base / "config.txt")

    result = run_pipeline(curve, quotes, config)

    assert result.credit.converged
    for (tenor, spread), mid in zip(result.repriced, quotes.mid_bps):
        rel = abs(spread * 1e4 - mid) / mid
        assert rel <= 2 * 0.0175, f"tenor {tenor}: relative gap {rel:.4f}"


def test_acceptance_7_bootstrap_sanity_on_market_strip():
    """Model-free bootstrap of the reference quote strip behaves.

    Standard mode with recovery 0.4 must produce a strictly decreasing
    survival sequence inside (0, 1]; the as-printed recursion must flag
    its rising steps instead of silently accepting them.  Budget: 0.1 s.
    """
    start = time.perf_counter()
    quotes = CdsQuoteSet(
        tenors=MARKET_STRIP_TENORS,
        bid_bps=MARKET_STRIP_MIDS,
        ask_bps=MARKET_STRIP_MIDS,
        mid_bps=MARKET_STRIP_MIDS,
    )

    survival = bootstrap_survival(quotes, recovery=0.4, mode="standard")
    assert np.all(survival > 0.0) and np.all(survival <= 1.0)
    assert np.all(np.diff(survival) < 0.0)

    with pytest.warns(BootstrapAnomalyWarning):
        bootstrap_survival(quotes, recovery=0.4, mode="literal-paper")
    assert time.perf_counter() - start < 0.1
