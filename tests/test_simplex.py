"""Derivative-free simplex minimizer and its bound transforms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssrd.simplex
from ssrd.simplex import CalibrationResult, Transform, nelder_mead

POSITIVE2 = Transform(("positive", "positive"))


def test_quadratic_bowl_converges_to_center():
    # (1.5, -2.0, 0.25) from the origin, shifted by 3 into positive coordinates
    center = np.array([4.5, 1.0, 3.25])
    res = nelder_mead(lambda x: float(np.sum((x - center) ** 2)), [3.0, 3.0, 3.0],
                      Transform(("positive",) * 3))
    assert res.converged
    assert np.max(np.abs(res.x - center)) < 1e-6
    assert res.objective < 1e-12
    assert res.n_eval > res.iterations  # every iteration costs at least one eval


def test_rosenbrock_valley(monkeypatch):
    # The classic valley and start, shifted by 2 into positive coordinates.
    monkeypatch.setattr(ssrd.simplex, "_MAX_ITER", 2000)

    def rosen(x):
        x = x - 2.0
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    res = nelder_mead(rosen, [0.8, 3.0], POSITIVE2)
    assert res.converged
    assert np.max(np.abs(res.x - 3.0)) < 1e-4


def test_positive_transform_keeps_iterates_feasible():
    # minimum at x = 0.03 approached through strictly positive trial points
    seen = []

    def objective(x):
        seen.append(float(x[0]))
        return (x[0] - 0.03) ** 2

    res = nelder_mead(objective, [1.0], Transform(("positive",)))
    assert res.converged
    assert res.x[0] == pytest.approx(0.03, rel=1e-5)
    assert min(seen) > 0.0


def test_correlation_transform_respects_bounds():
    # Start away from zero: a zero coordinate gets the fixed 0.00025 bump,
    # which deliberately mirrors the classic simplex-start convention and
    # is too small to escape quickly when the target is far away.
    def objective(x):
        assert abs(x[1]) <= 1.0
        return (x[0] - 2.0) ** 2 + (x[1] - 0.7) ** 2

    res = nelder_mead(objective, [1.0, -0.3], Transform(("positive", "correlation")))
    assert res.converged
    assert res.x[1] == pytest.approx(0.7, abs=1e-6)


def test_correlation_start_at_bound_is_clipped_not_infinite():
    # atanh(+-1) is infinite; the transform clips to the open interval so a
    # bound start stays finite.  The plateau of tanh there is genuinely flat,
    # so the optimizer is entitled to stop early -- the contract is a finite,
    # in-range answer and no overflow, not escape from the saturated region.
    res = nelder_mead(lambda x: (x[0] - 0.5) ** 2, [1.0], Transform(("correlation",)))
    assert np.isfinite(res.x[0])
    assert -1.0 <= res.x[0] <= 1.0
    tf = Transform(("correlation",))
    assert np.isfinite(tf.unconstrain(np.array([1.0]))[0])
    assert np.isfinite(tf.unconstrain(np.array([-1.0]))[0])


def test_nonfinite_start_raises():
    with pytest.raises(ValueError, match="not finite at the initial point"):
        nelder_mead(lambda x: float("nan"), [1.0], Transform(("positive",)))
    with pytest.raises(ValueError, match="not finite at the initial point"):
        nelder_mead(lambda x: float("inf"), [0.0, 0.0], Transform(("correlation",) * 2))


def test_a_point_whose_transform_overflows_scores_inf():
    # From x0 = 1e300 the start simplex's bump, z = 1.05 log(1e300) = 725, is
    # past exp's range: that vertex scores inf, as a point the objective
    # refuses does, and the search contracts back to the minimum at 1e299.
    seen = []

    def objective(x):
        seen.append(x[0])
        return (math.log10(x[0]) - 299.0) ** 2

    res = nelder_mead(objective, [1e300], Transform(("positive",)))
    assert res.converged
    assert res.x[0] == pytest.approx(1e299, rel=1e-4)
    assert all(map(math.isfinite, seen))
    assert res.n_eval > len(seen)  # the overflowing points count as evaluations


def test_budget_exhaustion_returns_best_point_unconverged(monkeypatch):
    monkeypatch.setattr(ssrd.simplex, "_MAX_ITER", 3)
    res = nelder_mead(lambda x: float(np.sum(x * x)), [5.0, 5.0], POSITIVE2)
    assert not res.converged
    assert res.iterations == 3
    assert res.objective <= 50.0  # no worse than the start


def test_transform_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension"):
        nelder_mead(lambda x: 0.0, [1.0, 2.0], Transform(("positive",)))


def test_transform_rejects_unknown_kind_and_nonpositive_input():
    with pytest.raises(ValueError, match="unknown transform kind"):
        Transform(("positive", "bounded"))
    tf = Transform(("positive", "correlation"))
    with pytest.raises(ValueError, match="must be positive"):
        tf.unconstrain(np.array([-1.0, 2.0]))


@given(
    x=st.floats(1e-6, 1e3),
    r=st.floats(-0.999, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_transform_round_trip(x, r):
    tf = Transform(("positive", "correlation"))
    vec = np.array([x, r])
    back = tf.constrain(tf.unconstrain(vec))
    assert back[0] == pytest.approx(x, rel=1e-12)
    assert back[1] == pytest.approx(r, abs=1e-12)


def test_minimization_is_deterministic():
    def objective(x):
        return float((x[0] - 0.2) ** 4 + np.cos(x[1]) + x[1] ** 2 / 10.0)

    a = nelder_mead(objective, [3.0, 2.0], POSITIVE2)
    b = nelder_mead(objective, [3.0, 2.0], POSITIVE2)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert a.iterations == b.iterations and a.n_eval == b.n_eval


def test_result_reports_evaluation_accounting():
    calls = 0

    def objective(x):
        nonlocal calls
        calls += 1
        return float(np.sum(x * x))

    res = nelder_mead(objective, [1.0, 1.0], POSITIVE2)
    assert res.n_eval == calls
    assert isinstance(res, CalibrationResult)
    assert res.residuals == ()


def test_fspread_tolerance_alone_can_stop():
    # A flat objective has zero f-spread immediately; the diameter is large.
    res = nelder_mead(lambda x: 1.0, [4.0, 3.0], POSITIVE2)
    assert res.converged
    assert res.iterations == 0
