"""Monte Carlo sampler: exactness limits, statistical gates, determinism.

The statistical checks use the closed-form one-factor transforms as truth
and allow 3.5 standard errors (a ~5e-4 false-failure rate per check, made
deterministic anyway by the fixed seed).
"""

from __future__ import annotations

import numpy as np
import pytest

import ssrd.mc as mc_mod
from conftest import make_model
from ssrd.cir import cir_bond
from ssrd.mc import McConfig, mc_estimate

FAST = McConfig(n_paths=40_000, step=0.02, seed=7)


def test_config_validation():
    with pytest.raises(ValueError, match="path count"):
        McConfig(n_paths=0)
    with pytest.raises(ValueError, match="step"):
        McConfig(step=0.0)
    with pytest.raises(ValueError, match="step"):
        McConfig(step=float("inf"))
    with pytest.raises(ValueError, match="seed must be non-negative"):
        McConfig(seed=-1)


def test_estimate_input_validation():
    model = make_model("mid1")
    with pytest.raises(ValueError, match="horizon"):
        mc_estimate(model, 0.0)
    with pytest.raises(ValueError, match="tenor list is empty"):
        mc_estimate(model, 1.0, at=())
    for bad in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            mc_estimate(model, 1.0, at=(0.5, bad))
    with pytest.raises(ValueError, match="beyond the horizon"):
        mc_estimate(model, 1.0, at=(0.5, 1.5))


def test_zero_volatility_is_exact_with_zero_error():
    model = make_model("mid2", sigma1=0.0, sigma2=0.0)
    T = 3.0
    a1, b1, r0 = model.alpha1, model.beta1, model.r0
    a2, b2, l0 = model.alpha2, model.beta2, model.lambda0
    int_r = b1 * T + (r0 - b1) * (-np.expm1(-a1 * T)) / a1
    int_l = b2 * T + (l0 - b2) * (-np.expm1(-a2 * T)) / a2
    lam_T = b2 + (l0 - b2) * np.exp(-a2 * T)

    est = mc_estimate(model, T)
    (v, v_se), (q, q_se), (h, h_se) = est["v"], est["q"], est["h"]
    assert (v_se, q_se, h_se) == (0.0, 0.0, 0.0)
    assert v == pytest.approx(np.exp(-(int_r + int_l)), rel=1e-14)
    assert q == pytest.approx(np.exp(-int_l), rel=1e-14)
    assert h == pytest.approx(np.exp(-(int_r + int_l)) * lam_T, rel=1e-14)


def test_uncorrelated_estimates_match_closed_forms(set_name):
    model = make_model(set_name, rho=0.0)
    T = 2.0
    p = cir_bond(model.rate_leg(), 0.0, T)
    q_exact = cir_bond(model.intensity_leg(), 0.0, T)

    est = mc_estimate(model, T, config=FAST)
    v_hat, v_se = est["v"]
    assert v_se > 0.0
    assert abs(v_hat - p * q_exact) < 3.5 * v_se + 2e-4  # + O(dt) bias allowance

    q_hat, q_se = est["q"]
    assert abs(q_hat - q_exact) < 3.5 * q_se + 2e-4


def test_same_seed_is_bit_identical_different_seed_is_not():
    model = make_model("mid2")
    a = mc_estimate(model, 1.5, config=McConfig(n_paths=20_000, step=0.05, seed=11))["v"]
    b = mc_estimate(model, 1.5, config=McConfig(n_paths=20_000, step=0.05, seed=11))["v"]
    c = mc_estimate(model, 1.5, config=McConfig(n_paths=20_000, step=0.05, seed=12))["v"]
    assert a == b  # tuple equality: estimate and standard error
    assert a != c


def test_antithetic_pairs_cut_the_standard_error():
    model = make_model("mid2")
    base = dict(n_paths=40_000, step=0.05, seed=3)
    _, se_plain = mc_estimate(model, 2.0, config=McConfig(antithetic=False, **base))["v"]
    _, se_anti = mc_estimate(model, 2.0, config=McConfig(antithetic=True, **base))["v"]
    assert se_anti < se_plain  # near-linear payoff: pairing cancels most noise


def test_step_halving_moves_estimate_toward_truth():
    # Euler bias shrinks with the step; with a tight seed-matched budget the
    # fine grid must land at least as close to the exact uncorrelated value.
    model = make_model("fast", rho=0.0)
    T = 2.0
    exact = cir_bond(model.rate_leg(), 0.0, T) * cir_bond(model.intensity_leg(), 0.0, T)
    coarse, se_c = mc_estimate(model, T, config=McConfig(n_paths=60_000, step=0.25, seed=5))["v"]
    fine, se_f = mc_estimate(model, T, config=McConfig(n_paths=60_000, step=0.02, seed=5))["v"]
    assert abs(fine - exact) <= abs(coarse - exact) + 2.0 * (se_c + se_f)


def test_single_path_reports_infinite_error():
    model = make_model("mid1")
    est, se = mc_estimate(model, 0.5, config=McConfig(n_paths=1, step=0.1, seed=2))["v"]
    assert np.isfinite(est)
    assert se == float("inf")


def test_path_count_spanning_multiple_blocks_reduces_deterministically():
    # 40k paths = 2 blocks q 16384 + remainder; the reduction order is fixed,
    # so a rerun is bit-identical even across the block boundary.
    model = make_model("slow")
    cfg = McConfig(n_paths=40_000, step=0.1, seed=9)
    assert mc_estimate(model, 1.0, config=cfg)["h"] == mc_estimate(model, 1.0, config=cfg)["h"]


def test_correlation_shifts_v_in_the_expected_direction():
    # With the same seed, raising rho raises the sampled v (positive
    # covariance between the discount legs raises the convexity premium).
    T = 3.0
    cfg = McConfig(n_paths=60_000, step=0.05, seed=13)
    lo, _ = mc_estimate(make_model("mid2", rho=-0.5), T, config=cfg)["v"]
    hi, _ = mc_estimate(make_model("mid2", rho=0.5), T, config=cfg)["v"]
    assert hi > lo


def _count_sweeps(monkeypatch):
    sweeps = []
    real = mc_mod._simulate_block

    def spy(params, dt, stops, *args):
        sweeps.append((dt, sorted(stops)))
        return real(params, dt, stops, *args)

    monkeypatch.setattr(mc_mod, "_simulate_block", spy)
    return sweeps


def _one_call_per_tenor(model, at, config):
    return [mc_estimate(model, t, config=config) for t in at]


@pytest.mark.parametrize("antithetic", [True, False])
def test_tenor_list_equals_one_call_per_tenor(set_name, antithetic, monkeypatch):
    # step 0.25 puts every tenor on one grid: one sweep reads all four
    model = make_model(set_name)
    cfg = McConfig(n_paths=2_000, step=0.25, seed=4, antithetic=antithetic)
    at = (0.5, 1.0, 1.5, 2.0)
    expected = _one_call_per_tenor(model, at, cfg)
    sweeps = _count_sweeps(monkeypatch)
    assert mc_estimate(model, 2.0, config=cfg, at=at) == expected
    assert sweeps == [(0.25, [2, 4, 6, 8])]


def test_tenor_list_across_blocks_equals_one_call_per_tenor(monkeypatch):
    # 40k antithetic paths = 20k pairs = two blocks, each swept once
    model = make_model("fast", rho=0.5)
    cfg = McConfig(n_paths=40_000, step=0.25, seed=9)
    at = (1.0, 0.5)
    expected = _one_call_per_tenor(model, at, cfg)
    sweeps = _count_sweeps(monkeypatch)
    assert mc_estimate(model, 1.0, config=cfg, at=at) == expected
    assert sweeps == [(0.25, [2, 4])] * 2


def test_unsorted_repeated_tenors_keep_their_order():
    model = make_model("mid2", rho=-0.3)
    cfg = McConfig(n_paths=1_000, step=0.25, seed=2)
    at = [2.0, 0.5, 2.0, 1.0, 0.5]
    out = mc_estimate(model, 3.0, config=cfg, at=at)
    assert out == _one_call_per_tenor(model, at, cfg)
    assert out[0] == out[2] and out[1] == out[4] and out[0] != out[1]


def test_tenor_off_the_grid_gets_its_own_sweep(monkeypatch):
    # 0.25 / ceil(0.25 / 0.1) = 1/12, not 0.1: those paths differ from the
    # shared sweep's, so that tenor is simulated apart with the same seed
    model = make_model("slow", rho=0.4)
    cfg = McConfig(n_paths=1_000, step=0.1, seed=6)
    at = np.array([1.0, 0.25, 0.5])
    expected = _one_call_per_tenor(model, at, cfg)
    sweeps = _count_sweeps(monkeypatch)
    assert mc_estimate(model, 1.0, config=cfg, at=at) == expected
    assert sweeps == [(0.1, [5, 10]), (0.25 / 3, [3])]


def test_zero_volatility_tenor_list_is_exact_per_tenor():
    model = make_model("mid2", sigma1=0.0, sigma2=0.0)
    at = (3.0, 1.0)
    out = mc_estimate(model, 3.0, at=at)
    assert out == [mc_estimate(model, t) for t in at]
    assert all(se == 0.0 for est in out for _, se in est.values())
