"""Three-step calibration, quote weights, and the survival bootstrap."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssrd.calibrate
import ssrd.simplex
import ssrd.timeint
from conftest import MARKET_STRIP_MIDS, MARKET_STRIP_TENORS, RATE_FIXTURE, make_model
from ssrd.calibrate import (
    BootstrapAnomalyWarning,
    CalibrationError,
    _feller_penalty,
    _lock_step,
    _positive_pillars,
    _rate_residuals,
    _rate_starts,
    assemble_model,
    bootstrap_survival,
    calibrate_cds,
    calibrate_rates,
    compute_weights,
    match_volatility,
    run_pipeline,
)
from ssrd.cir import CirParams, cir_bond, feller_margin
from ssrd.market import CdsQuoteSet, DiscountCurve, PricingConfig, build_schedule
from ssrd.pricing import spread_ladder

CFG = PricingConfig(roll="anniversary")
RATE = CirParams(RATE_FIXTURE["alpha1"], RATE_FIXTURE["beta1"],
                 RATE_FIXTURE["sigma1"], RATE_FIXTURE["r0"])


def _quotes(tenors, mids, half_width=0.5):
    return CdsQuoteSet(
        tenors=tuple(float(t) for t in tenors),
        bid_bps=tuple(float(m) - half_width for m in mids),
        ask_bps=tuple(float(m) + half_width for m in mids),
        mid_bps=tuple(float(m) for m in mids),
    )


def _synthetic_quotes(model, tenors, config=CFG, half_width=0.5):
    """Mid quotes generated by the pricer itself at the config order."""
    sched = build_schedule(None, max(tenors), config)
    ends = [len(build_schedule(None, t, config).times) for t in tenors]
    mids = spread_ladder(model, sched, ends, config) * 1e4
    return _quotes(tenors, mids, half_width)


def _exact_curve(pillars=(0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0)):
    dfs = tuple(float(cir_bond(RATE, 0.0, t)) for t in pillars)
    return DiscountCurve(tenors=pillars, dfs=dfs, short_rate=RATE.x0)


# --------------------------------------------------------------------------
# Quote weights
# --------------------------------------------------------------------------


def test_uniform_weights_split_evenly():
    q = _quotes((1.0, 2.0), (50.0, 60.0))
    assert compute_weights("uniform", q) == (0.5, 0.5)


def test_bidask_weights_are_inverse_width():
    q = CdsQuoteSet(tenors=(1.0, 2.0), bid_bps=(49.5, 59.0), ask_bps=(50.5, 61.0),
                    mid_bps=(50.0, 60.0))  # widths 1 and 2 bps
    assert compute_weights("bidask", q) == pytest.approx((2 / 3, 1 / 3), abs=1e-15)


def test_invtenor_weights_favor_the_short_end():
    q = _quotes((1.0, 2.0), (50.0, 60.0))
    assert compute_weights("invtenor", q) == pytest.approx((2 / 3, 1 / 3), abs=1e-15)


def test_bidask_weights_need_a_positive_width():
    q = CdsQuoteSet(tenors=(1.0,), bid_bps=(50.0,), ask_bps=(50.0,), mid_bps=(50.0,))
    with pytest.raises(CalibrationError, match="bid != ask"):
        compute_weights("bidask", q)


def test_unknown_weight_scheme_is_rejected():
    q = _quotes((1.0,), (50.0,))
    with pytest.raises(CalibrationError, match="unknown weight scheme"):
        compute_weights("equal", q)


@given(
    tenors=st.lists(st.floats(0.25, 30.0), min_size=1, max_size=12, unique=True),
    scheme=st.sampled_from(["uniform", "invtenor"]),
)
@settings(max_examples=100, deadline=None)
def test_weights_normalize_and_stay_positive(tenors, scheme):
    tenors = tuple(sorted(tenors))
    q = _quotes(tenors, tuple(50.0 for _ in tenors))
    w = compute_weights(scheme, q)
    assert math.isfinite(sum(w)) and abs(sum(w) - 1.0) <= 1e-12
    assert all(x > 0 for x in w)
    if scheme == "invtenor":
        # heavier weight on shorter tenors, exactly proportional to 1/T
        ratios = [x * t for x, t in zip(w, tenors)]
        assert max(ratios) - min(ratios) < 1e-12


# --------------------------------------------------------------------------
# Step 1: rate factor
# --------------------------------------------------------------------------


def test_rate_fit_reprices_an_exactly_attainable_curve():
    curve = _exact_curve()
    res = calibrate_rates(curve)
    assert res.converged
    fitted = CirParams(*res.x, curve.short_rate)
    model_dfs = cir_bond(fitted, 0.0, np.array(curve.tenors))
    assert np.max(np.abs(model_dfs - np.array(curve.dfs))) < 1e-8
    # reported objective is the bare sum of squares at the returned point
    assert res.objective == pytest.approx(float(np.sum((model_dfs - np.array(curve.dfs)) ** 2)),
                                          abs=1e-10)
    assert len(res.residuals) == len(curve.tenors)
    assert res.elapsed > 0.0


def test_rate_fit_requires_observed_short_rate():
    curve = DiscountCurve(tenors=(1.0, 2.0, 3.0), dfs=(0.98, 0.96, 0.94))
    with pytest.raises(CalibrationError, match="observed short rate"):
        calibrate_rates(curve)


def test_rate_fit_needs_three_positive_pillars():
    curve = DiscountCurve(tenors=(0.0, 1.0, 2.0), dfs=(1.0, 0.98, 0.96), short_rate=0.02)
    with pytest.raises(CalibrationError, match="insufficient points.*got 2"):
        calibrate_rates(curve)


def test_rate_fit_warns_on_flat_unit_curve(monkeypatch):
    monkeypatch.setattr(ssrd.calibrate, "_LM_MAX_ITER", 50)
    curve = DiscountCurve(tenors=(1.0, 2.0, 3.0), dfs=(1.0, 1.0, 1.0), short_rate=0.0)
    with pytest.warns(RuntimeWarning, match="flat at 1.0"):
        calibrate_rates(curve)


def test_rate_fit_reports_the_work_of_every_start(monkeypatch):
    # n_eval sums all starts: every bond row priced inside the fit, the one
    # that fills the returned residuals aside.  The starts run in lock-step,
    # so one bond call prices a row for each point of a stage.
    rows = 0
    bond = ssrd.calibrate._bond

    def counting_bond(alpha, *args):
        nonlocal rows
        rows += len(alpha)
        return bond(alpha, *args)

    monkeypatch.setattr(ssrd.calibrate, "_bond", counting_bond)
    res = calibrate_rates(_exact_curve())
    assert res.n_eval == rows - 1
    assert res.iterations > 0


RATE_PILLARS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0)


@pytest.mark.parametrize("seed", range(20))
def test_rate_fit_reaches_rounding_level_on_jittered_legs(seed):
    # Exactly attainable curves around the fixture (log-normal jitter 0.1 on
    # every leg parameter, r0 included): every fit must converge to a
    # rounding-level sum of squares without a floating-point warning.
    rng = np.random.default_rng(seed)
    alpha, beta, sigma, r0 = np.array([RATE.alpha, RATE.beta, RATE.sigma, RATE.x0]) * np.exp(
        0.1 * rng.standard_normal(4))
    leg = CirParams(alpha, beta, sigma, r0)
    dfs = tuple(float(cir_bond(leg, 0.0, t)) for t in RATE_PILLARS)
    curve = DiscountCurve(tenors=RATE_PILLARS, dfs=dfs, short_rate=r0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = calibrate_rates(curve)
    assert res.converged
    assert res.objective <= 1e-20


# A leg that violates Feller (sigma^2 > 2 alpha beta): the penalized optimum
# of its exact curve sits on the boundary.
FELLER_LEG = CirParams(0.10362705, 0.0128997, 0.05546447, 0.02035826)


def test_rate_fit_converges_on_the_feller_boundary():
    # The leg behind this curve violates Feller (sigma^2 > 2 alpha beta), so
    # the penalized optimum sits on the boundary.  Modelling the one-sided
    # penalty only by its slope at the current point left every start
    # crawling along the boundary until the budget ran out (55,492
    # evaluations, converged=False); the simplex reached SSR 2.261e-10.
    leg = FELLER_LEG
    dfs = tuple(float(cir_bond(leg, 0.0, t)) for t in RATE_PILLARS)
    res = calibrate_rates(DiscountCurve(tenors=RATE_PILLARS, dfs=dfs, short_rate=leg.x0))
    assert res.converged
    assert res.n_eval <= 5_000
    assert res.objective <= 2.27e-10
    alpha, beta, sigma = res.x
    assert abs(sigma * sigma - 2.0 * alpha * beta) <= 1e-6


@pytest.mark.parametrize("curve", ["exact", "feller"])
def test_rate_fit_starts_in_lock_step_are_the_starts_fitted_alone(curve):
    # The lock-step prices every start's points of a stage in one bond call;
    # each start must still end exactly where it ends when fitted alone.
    if curve == "exact":
        curve = _exact_curve()
    else:
        dfs = tuple(float(cir_bond(FELLER_LEG, 0.0, t)) for t in RATE_PILLARS)
        curve = DiscountCurve(tenors=RATE_PILLARS, dfs=dfs, short_rate=FELLER_LEG.x0)
    tenors, dfs = _positive_pillars(curve)
    residuals = _rate_residuals(tenors, dfs, curve.short_rate)
    starts = _rate_starts(tenors, dfs)
    together = _lock_step(residuals, starts)
    assert len(together) == len(starts) == 5
    for start, res in zip(starts, together):
        (alone,) = _lock_step(residuals, [start])
        assert res.x.tobytes() == alone.x.tobytes()
        assert (res.objective, res.iterations, res.n_eval, res.converged) == (
            alone.objective, alone.iterations, alone.n_eval, alone.converged)


def test_rate_screen_refuses_what_cannot_be_priced_and_prices_the_rest():
    # One bond call for the points the screen passes; None for a point whose
    # map back overflows, whose alpha1 is above the bound, or whose alpha1
    # underflows to 0.  The row it prices is the one-leg bond's, bit for bit.
    tenors, dfs = _positive_pillars(_exact_curve())
    residuals = _rate_residuals(tenors, dfs, RATE.x0)
    valid = np.log([RATE.alpha, RATE.beta, RATE.sigma])
    points = [np.array([800.0, 0.0, 0.0]), np.array([math.log(60.0), -3.0, -3.0]),
              np.array([-800.0, -3.0, -3.0]), valid]
    assert math.exp(points[2][0]) == 0.0
    rows = residuals(points)
    assert rows[:3] == [None, None, None]
    alpha, beta, sigma = (math.exp(v) for v in valid)
    bond = cir_bond(CirParams(alpha, beta, sigma, RATE.x0), 0.0, tenors) - dfs
    assert rows[3][:-1].tobytes() == bond.tobytes()
    assert rows[3][-1] == -1e3 * feller_margin(alpha, beta, sigma)


def test_lm_jacobian_steps_back_at_the_edge_of_the_finite_region():
    # Residuals up to z = 1 and none just above it: from z0 = 1 the forward
    # difference point lies past the edge, so the Jacobian differences
    # backward and the fit stays on the side that has them.
    def edge(z):
        return np.array([z[0] - 2.0, -1.0]) if z[0] <= 1.0 else None

    def fit(residual):
        (res,) = _lock_step(lambda zs: [residual(z) for z in zs], [np.array([1.0])])
        return res

    res = fit(edge)
    assert res.x[0] <= 1.0 and res.objective == pytest.approx(1.0, rel=1e-6)

    # Residuals at z = 1 alone: no difference can be formed, and the start
    # fails with the ValueError that calibrate_rates records as a failed start.
    def point(z):
        return np.array([0.5, -1.0]) if z[0] == 1.0 else None

    res = fit(point)
    assert isinstance(res, ValueError)
    assert "either side" in str(res)


# --------------------------------------------------------------------------
# Step 2: matched volatility
# --------------------------------------------------------------------------


def test_matched_vol_recovers_moderate_volatility_via_quadratic_root():
    mv = match_volatility(RATE, RATE.x0, 6.0)
    assert mv.branch == "quadratic-root"
    assert mv.residual < 1e-10
    # the sigma^4-accurate polynomial inverts to nearly the true volatility
    assert mv.sigma1_hat == pytest.approx(RATE.sigma, rel=1e-3)


def test_matched_vol_zero_vol_leg_matches_exactly():
    rate = CirParams(0.2, 0.03, 0.0, 0.02)
    mv = match_volatility(rate, rate.x0, 5.0)
    assert mv.sigma1_hat == 0.0
    assert mv.residual < 1e-14


def test_matched_vol_falls_back_to_minimizer_when_no_root_reaches_target():
    # Long horizon + slow mean reversion turns the quadratic's discriminant
    # negative (the sigma^4 coefficient goes negative), so no root exists
    # and the bounded minimizer must supply the answer.
    rate = CirParams(0.02, 0.01, 0.1, 0.005)
    mv = match_volatility(rate, rate.x0, 20.0)
    assert mv.branch == "minimizer-fallback"
    assert 0.0 <= mv.sigma1_hat <= 5.0 * rate.sigma
    assert mv.residual > 0.0  # honest: the polynomial cannot hit the target


def test_matched_vol_at_fast_mean_reversion_takes_the_root():
    # alpha1 T = 900: the expansion bond stays finite and inverts to the
    # true volatility, whose sigma^6 remainder is negligible this fast.
    rate = CirParams(30.0, 0.05, 0.1, 0.01)
    mv = match_volatility(rate, rate.x0, 30.0)
    assert mv.branch == "quadratic-root"
    assert mv.residual < 1e-10
    assert mv.sigma1_hat == pytest.approx(rate.sigma, rel=1e-6)


def test_matched_vol_rejects_nonpositive_horizon():
    with pytest.raises(CalibrationError, match="horizon"):
        match_volatility(RATE, RATE.x0, 0.0)
    with pytest.raises(CalibrationError, match="horizon"):
        match_volatility(RATE, RATE.x0, float("nan"))


# --------------------------------------------------------------------------
# Step 3: credit factor
# --------------------------------------------------------------------------


def test_credit_fit_round_trip_uncorrelated():
    true_credit = np.array([0.04117, 0.18416, 0.07196, 0.01103])
    model = assemble_model(RATE, 0.05, np.append(true_credit, 0.0), correlated=False)
    quotes = _synthetic_quotes(model, (1.0, 2.0, 3.0, 4.0, 5.0))
    res = calibrate_cds(quotes, RATE, 0.05, CFG, weights="uniform", correlated=False)
    assert res.converged
    assert max(abs(r) for r in res.residuals) * 1e4 < 0.1  # bps
    assert len(res.x) == 4


def test_credit_fit_reported_objective_is_bare_weighted_ssr():
    true_credit = np.array([0.04117, 0.18416, 0.07196, 0.01103])
    model = assemble_model(RATE, 0.05, np.append(true_credit, 0.0), correlated=False)
    quotes = _synthetic_quotes(model, (1.0, 2.0, 3.0, 4.0, 5.0))
    res = calibrate_cds(quotes, RATE, 0.05, CFG, weights="invtenor", correlated=False)
    # recompute from scratch at the reported point and the config order
    refit_model = assemble_model(RATE, 0.05, np.append(res.x, 0.0), correlated=False)
    sched = build_schedule(None, 5.0, CFG)
    spreads = spread_ladder(refit_model, sched, [2, 4, 6, 8, 10], CFG)
    w = compute_weights("invtenor", quotes)
    ssr = float(np.sum(np.array(w) * (spreads - np.array(quotes.mid_bps) / 1e4) ** 2))
    assert res.objective == pytest.approx(ssr, abs=1e-10)


def test_credit_fit_excludes_feller_penalty_from_reported_objective(monkeypatch):
    # One iteration from a grossly Feller-violating start leaves the answer
    # in penalty territory; the reported objective must still be the bare
    # weighted residual sum, orders of magnitude below the penalty.
    model = make_model("mid2", rho=0.0)
    quotes = _synthetic_quotes(model, (1.0, 2.0, 3.0))
    bad_start = np.array([0.01, 0.001, 0.8, 0.01])
    assert _feller_penalty(*bad_start[:3]) > 1e5
    monkeypatch.setattr(ssrd.simplex, "_MAX_ITER", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = calibrate_cds(quotes, RATE, 0.05, CFG, weights="uniform",
                            correlated=False, initial=bad_start)
    assert not res.converged
    assert res.objective < 1.0  # decimal spread units; the penalty would be ~1e5


def test_credit_fit_warns_when_under_determined(monkeypatch):
    monkeypatch.setattr(ssrd.simplex, "_MAX_ITER", 5)
    model = make_model("mid1")
    quotes = _synthetic_quotes(model, (1.0, 2.0, 3.0))
    with pytest.warns(RuntimeWarning, match="under-determined"):
        calibrate_cds(quotes, RATE, 0.05, CFG, weights="uniform",
                      correlated=True)


def test_credit_fit_is_deterministic(monkeypatch):
    monkeypatch.setattr(ssrd.simplex, "_MAX_ITER", 60)
    model = make_model("mid2", rho=0.0)
    quotes = _synthetic_quotes(model, (1.0, 2.0, 3.0, 4.0, 5.0))
    kw = dict(weights="uniform", correlated=False)
    a = calibrate_cds(quotes, RATE, 0.05, CFG, **kw)
    b = calibrate_cds(quotes, RATE, 0.05, CFG, **kw)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert a.n_eval == b.n_eval


def test_credit_fit_requires_aligned_coupon_grids():
    model = make_model("mid1", rho=0.0)
    quotes = _synthetic_quotes(model, (1.25, 2.0))
    with pytest.raises(CalibrationError, match="coupon grid"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            calibrate_cds(quotes, RATE, 0.05, CFG, weights="uniform", correlated=False)


def test_credit_fit_refuses_a_start_the_pricing_grid_refuses():
    quotes = _synthetic_quotes(make_model("mid2", rho=0.0), (1.0, 2.0, 3.0, 4.0, 5.0))
    runaway = CirParams(1e8, RATE.beta, RATE.sigma, RATE.x0)
    with pytest.raises(CalibrationError,
                       match=r"alpha1 \+ alpha2 \(decay rate 1e\+08 over \[0, 5\]"):
        calibrate_cds(quotes, runaway, 0.05, CFG, weights="uniform", correlated=False)


def test_credit_fit_counts_a_refused_trial_point_as_infinite(monkeypatch):
    # With at most 10 gaps on the 10 semiannual periods, every point with
    # alpha1 + alpha2 > 2 is refused.  The start sits at 1.99, so the first
    # simplex step in alpha2 (5 % in log alpha2) lands past the edge.
    refused = 0

    def counting_ladder(*args):
        nonlocal refused
        try:
            return spread_ladder(*args)
        except ssrd.timeint._GridLimitError:
            refused += 1
            raise

    quotes = _synthetic_quotes(make_model("mid2", rho=0.0), (1.0, 2.0, 3.0, 4.0, 5.0))
    start = np.array([1.79, 0.18416, 0.07196, 0.01103])
    monkeypatch.setattr(ssrd.timeint, "_MAX_GAPS", 10)
    monkeypatch.setattr(ssrd.simplex, "_MAX_ITER", 200)
    monkeypatch.setattr(ssrd.calibrate, "spread_ladder", counting_ladder)
    res = calibrate_cds(quotes, RATE, 0.05, CFG, weights="uniform", correlated=False,
                        initial=start)
    assert refused > 0
    assert math.isfinite(res.objective) and RATE.alpha + res.x[0] <= 2.0


def test_assemble_model_pins_rho_when_uncorrelated():
    credit = np.array([0.04, 0.18, 0.07, 0.011, 0.3])
    free = assemble_model(RATE, 0.048, credit, correlated=True)
    pinned = assemble_model(RATE, 0.048, credit, correlated=False)
    assert free.rho == 0.3 and pinned.rho == 0.0
    assert free.sigma1_hat == 0.048
    assert free.rate_leg() == RATE


def test_feller_penalty_values():
    assert _feller_penalty(0.2, 0.03, 0.05) == 0.0  # condition satisfied
    margin = 0.3**2 - 2 * 0.1 * 0.01
    assert _feller_penalty(0.1, 0.01, 0.3) == pytest.approx(1e6 * margin**2, rel=1e-12)


# --------------------------------------------------------------------------
# Survival bootstrap
# --------------------------------------------------------------------------


def test_bootstrap_single_period_closed_form():
    # lgd = 0.6, premium = 0.01 -> Q = 0.6/0.61, computed independently here
    q = bootstrap_survival(_quotes((1.0,), (100.0,)), recovery=0.4)
    assert q[0] == pytest.approx(0.6 / 0.61, rel=1e-15)


def test_bootstrap_two_periods_chain_by_hand():
    quotes = _quotes((1.0, 2.0), (100.0, 120.0))
    q = bootstrap_survival(quotes, recovery=0.4)
    q1 = 0.6 / 0.61
    q2 = 0.6 * q1 / (0.6 + 0.012)
    assert q[0] == pytest.approx(q1, rel=1e-15)
    assert q[1] == pytest.approx(q2, rel=1e-15)


def test_bootstrap_market_strip_is_monotone_in_unit_interval():
    quotes = _quotes(MARKET_STRIP_TENORS, MARKET_STRIP_MIDS)
    q = bootstrap_survival(quotes, recovery=0.4, mode="standard")
    assert np.all(q > 0.0) and np.all(q <= 1.0)
    assert np.all(np.diff(q) < 0.0)


def test_bootstrap_literal_mode_flags_rising_curve():
    quotes = _quotes((1.0, 1.5), (100.0, 110.0))
    with pytest.warns(BootstrapAnomalyWarning) as record:
        q = bootstrap_survival(quotes, recovery=0.4, mode="literal-paper")
    assert len(record) == 2  # every rising step is flagged, not just the first
    assert "raises survival at tenor 1.0" in str(record[0].message)
    assert "raises survival at tenor 1.5" in str(record[1].message)
    assert q[0] == pytest.approx(0.6 / 0.59, rel=1e-15)
    assert q[0] > 1.0  # the as-printed recursion really does leave (0, 1]


def test_bootstrap_rejects_unsolvable_period():
    with pytest.raises(CalibrationError, match="unsolvable period at tenor 1.0"):
        bootstrap_survival(_quotes((1.0,), (7000.0,)), recovery=0.4)


def test_bootstrap_validates_recovery_and_mode():
    quotes = _quotes((1.0,), (100.0,))
    with pytest.raises(CalibrationError, match="recovery must be < 1"):
        bootstrap_survival(quotes, recovery=1.0)
    with pytest.raises(CalibrationError, match="recovery must be < 1"):
        bootstrap_survival(quotes, recovery=-0.2)
    with pytest.raises(CalibrationError, match="unknown bootstrap mode"):
        bootstrap_survival(quotes, recovery=0.4, mode="exact")


@given(
    mids=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=10),
    recovery=st.floats(0.0, 0.95),
)
@settings(max_examples=150, deadline=None)
def test_bootstrap_standard_mode_always_monotone(mids, recovery):
    tenors = tuple(0.5 * (k + 1) for k in range(len(mids)))
    q = bootstrap_survival(_quotes(tenors, tuple(mids)), recovery=recovery)
    assert np.all(q > 0.0) and np.all(q <= 1.0)
    assert np.all(np.diff(np.concatenate(([1.0], q))) < 0.0)


# --------------------------------------------------------------------------
# Full pipeline
# --------------------------------------------------------------------------


def test_pipeline_round_trip_on_synthetic_market():
    model = make_model("mid2", rho=0.0, sigma1_hat=None)
    tenors = (1.0, 2.0, 3.0, 4.0, 5.0)
    quotes = _synthetic_quotes(model, tenors)
    curve = _exact_curve()
    result = run_pipeline(curve, quotes, CFG, weights="uniform", correlated=False)
    assert result.vol.branch == "quadratic-root"
    assert result.model.sigma1_hat == result.vol.sigma1_hat
    assert result.model.rho == 0.0
    repriced = dict(result.repriced)
    for t, mid in zip(tenors, quotes.mid_bps):
        assert abs(repriced[t] * 1e4 - mid) < 0.5  # bps
    # the repriced tuple is exactly the ladder at the fitted model
    assert [t for t, _ in result.repriced] == list(tenors)
