"""CDS leg valuation against quadrature and factorisation oracles."""

from __future__ import annotations

import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import MARKET_STRIP_TENORS, SET_NAMES, make_model
from ssrd.market import PricingConfig, build_schedule
from ssrd.pricing import price_cds, spread_curve, spread_ladder, uncorrelated_spread
from ssrd.timeint import _MAX_GAPS, _grid_cache

CFG = PricingConfig(roll="anniversary")


def _schedule(tenor, config=CFG):
    return build_schedule(None, tenor, config)


# Each fixture set, plus mid2 with alpha1 + alpha2 > 1/0.5: the running grid
# then cuts every semiannual coupon period into 5 gaps.
MODEL_CASES = [pytest.param(name, {}, id=name) for name in SET_NAMES] + [
    pytest.param("mid2", {"alpha2": 8.0}, id="mid2-alpha2=8")]


# --------------------------------------------------------------------------
# Deterministic oracle: zero vols, flat hazard
# --------------------------------------------------------------------------


def test_legs_match_adaptive_quadrature_in_deterministic_limit():
    # sigma1 = sigma2 = 0 and lambda0 = beta2 makes the intensity flat at
    # lam and the short rate a known ODE path, so both legs reduce to
    # one-dimensional integrals evaluated here with scipy to 1e-12.
    lam = 0.015
    model = make_model("mid1", sigma1=0.0, sigma2=0.0, rho=0.0,
                       beta2=lam, lambda0=lam, alpha2=0.5)
    sched = _schedule(2.0)
    a1, b1, r0 = model.alpha1, model.beta1, model.r0

    def int_r(s):
        return b1 * s + (r0 - b1) * (-np.expm1(-a1 * s)) / a1

    def density(s):
        return np.exp(-int_r(s) - lam * s) * lam

    prot_oracle = sum(
        quad(density, lo, hi, epsabs=1e-14)[0]
        for lo, hi in zip((0.0,) + sched.times[:-1], sched.times)
    )
    acc_oracle = sum(
        quad(lambda s, lo=lo: density(s) * (s - lo), lo, hi, epsabs=1e-14)[0]
        for lo, hi in zip((0.0,) + sched.times[:-1], sched.times)
    )
    coup_oracle = sum(
        dt * np.exp(-int_r(t) - lam * t) for dt, t in zip(sched.accruals, sched.times)
    )
    res = price_cds(model, sched, CFG)
    assert res.protection == pytest.approx((1 - CFG.recovery) * prot_oracle, rel=1e-11)
    assert res.annuity == pytest.approx(acc_oracle + coup_oracle, rel=1e-11)
    assert res.spread == pytest.approx(res.protection / res.annuity, rel=1e-15)


# --------------------------------------------------------------------------
# Zero-correlation factorisation oracle
# --------------------------------------------------------------------------


@pytest.mark.parametrize("tenor", [1.0, 3.0, 6.0])
@pytest.mark.parametrize(("set_name", "overrides"), MODEL_CASES)
def test_expansion_spread_matches_exact_factorisation(set_name, overrides, tenor):
    model = make_model(set_name, rho=0.0, **overrides)
    sched = _schedule(tenor)
    exact = uncorrelated_spread(model, sched, CFG)
    got = price_cds(model, sched, CFG).spread
    assert abs(got - exact) * 1e4 < 0.5  # basis points


def test_uncorrelated_reference_requires_zero_rho():
    model = make_model("mid2")
    with pytest.raises(ValueError, match="zero correlation"):
        uncorrelated_spread(model, _schedule(1.0), CFG)


def test_uncorrelated_reference_uses_matched_rate_vol():
    sched = _schedule(3.0)
    hat = make_model("mid1", rho=0.0, sigma1=0.3, sigma1_hat=0.05)
    plain = make_model("mid1", rho=0.0, sigma1=0.05)
    assert uncorrelated_spread(hat, sched, CFG) == uncorrelated_spread(plain, sched, CFG)


# --------------------------------------------------------------------------
# Structure: ladder identity, curve ordering, refinement
# --------------------------------------------------------------------------


@pytest.mark.parametrize(("set_name", "overrides"), MODEL_CASES)
def test_ladder_is_bitwise_identical_to_standalone_pricing(set_name, overrides):
    model = make_model(set_name, **overrides)
    long = _schedule(5.0)
    ends = [2, 5, 10]
    ladder = spread_ladder(model, long, ends, CFG)
    for k, spread in zip(ends, ladder):
        single = price_cds(model, _schedule(long.times[k - 1]), CFG).spread
        assert spread == single  # exact float equality, not approx


@pytest.mark.parametrize("alpha2", [60.0, 200.0, 1e3])
def test_order_one_ladder_is_finite_at_fast_intensity_reversion(alpha2):
    # The 11-quote six-year strip with alpha2 T up to 6,000: every kernel
    # decays from gap to gap, so nothing overflows on the way.
    config = PricingConfig(roll="anniversary", order=1, quad_nodes=8)
    model = make_model("mid2", rho=0.5, alpha2=alpha2)
    union = _schedule(max(MARKET_STRIP_TENORS), config)
    ends = [len(_schedule(t, config).times) for t in MARKET_STRIP_TENORS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ladder = spread_ladder(model, union, ends, config)
    assert np.all(np.isfinite(ladder)) and np.all(ladder > 0.0)


def test_ladder_refuses_a_runaway_rate_reversion_at_once():
    # alpha1 = 1e8 on the six-year strip would need 6e8 grid gaps (tens of
    # GiB); the grid refuses before allocating them
    config = PricingConfig(roll="anniversary", order=1, quad_nodes=8)
    model = make_model("mid2", rho=0.5, alpha1=1e8)
    union = _schedule(max(MARKET_STRIP_TENORS), config)
    ends = [len(_schedule(t, config).times) for t in MARKET_STRIP_TENORS]
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"decay rate 1e\+08 over \[0, 6\] needs 6e\+08"):
            spread_ladder(model, union, ends, config)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.01


@pytest.mark.parametrize("order", [1, 2])
def test_ladder_on_a_cached_grid_equals_one_on_a_fresh_grid(order):
    # Two models whose alpha1 + alpha2 cut the strip alike share one grid;
    # each prices bit for bit as on a grid built for it alone.
    config = PricingConfig(roll="anniversary", order=order, quad_nodes=8)
    union = _schedule(max(MARKET_STRIP_TENORS), config)
    ends = [len(_schedule(t, config).times) for t in MARKET_STRIP_TENORS]
    models = make_model("mid2", rho=0.5), make_model("fast", rho=-0.3)
    fresh = []
    for model in models:
        _grid_cache.clear()
        fresh.append(spread_ladder(model, union, ends, config))
    _grid_cache.clear()
    spread_ladder(models[0], union, ends, config)
    (grid,) = _grid_cache.values()
    for model, alone in zip(models[::-1], fresh[::-1]):
        np.testing.assert_array_equal(spread_ladder(model, union, ends, config), alone)
    assert list(_grid_cache.values()) == [grid]


def test_order_two_ladder_near_the_gap_limit_keeps_its_memory_bounded():
    # alpha1 + alpha2 = 2729.2 cuts each semiannual period of the six-year
    # strip into 1,365 gaps, 16,380 in all.  At 32 nodes, _within's
    # (gaps, n, n) product alone took 128 MiB and the ladder peaked at 219
    # MiB; summed a block of gaps at a time, the ladder peaks near 120 MiB.
    config = PricingConfig(roll="anniversary", order=2, quad_nodes=32)
    model = make_model("mid2", rho=0.5, alpha2=2729.0)
    union = _schedule(max(MARKET_STRIP_TENORS), config)
    ends = [len(_schedule(t, config).times) for t in MARKET_STRIP_TENORS]
    _grid_cache.clear()
    tracemalloc.start()
    try:
        ladder = spread_ladder(model, union, ends, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (grid,) = _grid_cache.values()
    assert grid.nodes.shape == (16_380, 32) and 16_380 <= _MAX_GAPS
    assert np.all(np.isfinite(ladder)) and np.all(ladder > 0.0)
    assert peak < 160 * 2**20


def test_ladder_rejects_out_of_range_prefixes():
    model = make_model("mid1")
    sched = _schedule(2.0)
    with pytest.raises(ValueError):
        spread_ladder(model, sched, [0], CFG)
    with pytest.raises(ValueError):
        spread_ladder(model, sched, [5], CFG)
    assert spread_ladder(model, sched, [], CFG).shape == (0,)


def test_spread_curve_preserves_input_order_and_prefix_path():
    model = make_model("mid2")
    tenors = [3.0, 1.0, 2.0]
    curve = spread_curve(model, tenors, CFG)
    assert [t for t, _ in curve] == tenors
    for tenor, spread in curve:
        assert spread == price_cds(model, _schedule(tenor), CFG).spread
    assert spread_curve(model, [], CFG) == []


def test_spread_curve_handles_non_nested_tenors():
    # 1.25y has a stub period, so it is not a prefix of the 2y grid; the
    # per-tenor fallback must price it all the same.
    model = make_model("mid1")
    curve = spread_curve(model, [1.25, 2.0], CFG)
    assert curve[0][1] == price_cds(model, _schedule(1.25), CFG).spread
    assert curve[1][1] == price_cds(model, _schedule(2.0), CFG).spread


def test_panel_refinement_is_converged():
    model = make_model("mid2")
    sched = _schedule(5.0)
    s32 = price_cds(model, sched, CFG).spread
    s64 = price_cds(model, sched, replace(CFG, quad_nodes=64)).spread
    assert abs(s64 - s32) * 1e4 < 1e-4  # basis points


def test_order_progression_contracts():
    # Order 1 -> 2 must move the spread by (much) less than order 0 -> 1.
    model = make_model("mid2")
    sched = _schedule(5.0)
    s = [price_cds(model, sched, replace(CFG, order=k)).spread for k in (0, 1, 2)]
    assert abs(s[2] - s[1]) <= abs(s[1] - s[0])


# --------------------------------------------------------------------------
# Economic sanity
# --------------------------------------------------------------------------


def test_spread_increases_with_initial_intensity():
    sched = _schedule(3.0)
    lo = price_cds(make_model("mid1", lambda0=0.004), sched, CFG).spread
    hi = price_cds(make_model("mid1", lambda0=0.008), sched, CFG).spread
    assert hi > lo


def test_spread_is_exactly_linear_in_loss_given_default():
    # protection carries (1 - recovery) as an outer factor and nothing else
    # depends on it, so spread(recovery) = (1 - recovery) * spread(0) up to
    # the reassociation of two roundings (a couple of ulps); the annuity
    # never sees the recovery at all and must match bit for bit.  In the
    # full-recovery limit the spread is therefore exactly zero.
    model = make_model("fast")
    sched = _schedule(4.0)
    base = price_cds(model, sched, replace(CFG, recovery=0.0))
    for rec in (0.25, 0.4, 0.9, 0.999999):
        res = price_cds(model, sched, replace(CFG, recovery=rec))
        scaled = (1.0 - rec) * base.spread
        assert abs(res.spread - scaled) <= 2 * np.spacing(scaled)
        assert res.annuity == base.annuity


def test_feller_violation_warns_once_per_leg():
    bad = make_model("mid1", sigma2=0.5)  # 2 a2 b2 << sigma2^2
    with pytest.warns(RuntimeWarning, match="intensity factor violates"):
        price_cds(bad, _schedule(1.0), CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        price_cds(make_model("mid1"), _schedule(1.0), CFG)  # healthy set stays silent


def test_negative_short_rate_prices_like_the_ladder():
    # The Feller margin needs no state, so r0 < 0 (which v_expansion takes)
    # does not trip the rate leg's non-negative state check.
    model = make_model("mid1", r0=-0.003, rho=0.0)
    tenors = [1.0, 3.0, 5.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = spread_curve(model, tenors, CFG)
    for tenor, spread in curve:
        sched = _schedule(tenor)
        assert np.isfinite(spread) and spread > 0.0
        assert spread == spread_ladder(model, sched, [len(sched.times)], CFG)[0]
    with pytest.warns(RuntimeWarning, match="rate factor violates"):
        spread_curve(make_model("mid1", r0=-0.003, rho=0.0, sigma1=0.5), tenors, CFG)


def test_ladder_skips_feller_warning_for_optimizer_path():
    bad = make_model("mid1", sigma2=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spread_ladder(bad, _schedule(2.0), [4], CFG)


def test_ladder_skips_anchor_warning_for_optimizer_path():
    # A trial point of the credit fit can drive lambda0 below the anchor
    # floor; the ladder it prices through stays silent, the public curve
    # still warns.
    tiny = make_model("mid2", lambda0=1e-12, rho=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spread_ladder(tiny, _schedule(2.0), [2, 4], CFG)
    with pytest.warns(RuntimeWarning, match="state anchor below"):
        spread_curve(tiny, [1.0, 2.0], CFG)
