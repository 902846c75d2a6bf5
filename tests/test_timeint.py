"""Exponential integral primitives against adaptive quadrature oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import ssrd.timeint
from ssrd.timeint import (
    _MAX_GAPS,
    _GridLimitError,
    _RunningGrid,
    _cuts,
    _grid_cache,
    _running_grid,
    exp_integral,
    exp_integral_da,
    exp_integral_da2,
    gauss_legendre,
    panel_nodes,
    psi,
    theta,
)

# Exponents straddling the series/direct switch points, including exact zero.
EXPONENTS = [-2.0, -0.3, -1e-3, -1e-8, 0.0, 1e-13, 1e-6, 0.05, 1.7]
SPANS = [1e-6, 0.25, 1.0, 6.0]


@pytest.mark.parametrize("a", EXPONENTS)
@pytest.mark.parametrize("d", SPANS)
def test_exp_integral_matches_quadrature(a, d):
    oracle, err = quad(lambda w: np.exp(a * w), 0.0, d, epsabs=1e-14, epsrel=1e-13)
    got = exp_integral(a, d)
    assert got == pytest.approx(oracle, rel=1e-11, abs=max(1e-15, 10 * err))


@pytest.mark.parametrize("a", EXPONENTS)
@pytest.mark.parametrize("d", SPANS)
def test_exp_integral_da_matches_quadrature(a, d):
    oracle, err = quad(lambda w: w * np.exp(a * w), 0.0, d, epsabs=1e-14, epsrel=1e-13)
    got = exp_integral_da(a, d)
    assert got == pytest.approx(oracle, rel=1e-10, abs=max(1e-15, 10 * err))


@pytest.mark.parametrize("a", EXPONENTS)
@pytest.mark.parametrize("d", SPANS)
def test_exp_integral_da2_matches_quadrature(a, d):
    oracle, err = quad(lambda w: w * w * np.exp(a * w), 0.0, d, epsabs=1e-14, epsrel=1e-13)
    got = exp_integral_da2(a, d)
    assert got == pytest.approx(oracle, rel=1e-9, abs=max(1e-15, 10 * err))


@pytest.mark.parametrize("alpha", EXPONENTS)
def test_psi_matches_quadrature(alpha):
    t1, t2 = 0.7, 4.3
    oracle, _ = quad(lambda s: np.exp(alpha * s), t1, t2, epsabs=1e-14, epsrel=1e-13)
    assert psi(alpha, t1, t2) == pytest.approx(oracle, rel=1e-11)


def test_psi_zero_exponent_is_interval_length():
    assert psi(0.0, 1.25, 3.75) == pytest.approx(2.5, abs=1e-15)
    assert psi(1e-14, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_psi_empty_interval_is_zero():
    assert psi(0.3, 2.0, 2.0) == 0.0


@given(
    alpha=st.floats(-3.0, 3.0),
    t1=st.floats(0.0, 5.0),
    mid=st.floats(0.0, 5.0),
    t2=st.floats(0.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_psi_additive_over_adjacent_intervals(alpha, t1, mid, t2):
    lo, mi, hi = sorted((t1, mid, t2))
    whole = psi(alpha, lo, hi)
    split = psi(alpha, lo, mi) + psi(alpha, mi, hi)
    assert split == pytest.approx(whole, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("alpha", [-0.8, -1e-9, 0.0, 1e-7, 0.4])
@pytest.mark.parametrize("beta", [-0.5, -1e-9, 0.0, 1e-7, 0.9])
def test_theta_matches_nested_quadrature(alpha, beta):
    t, t2 = 0.5, 3.5
    oracle, _ = quad(
        lambda s: np.exp(alpha * s) * psi(beta, t, s), t, t2, epsabs=1e-14, epsrel=1e-13
    )
    assert theta(alpha, beta, t, t2) == pytest.approx(oracle, rel=1e-10, abs=1e-14)


def test_theta_empty_interval_is_zero():
    assert theta(0.2, -0.1, 1.5, 1.5) == 0.0


def test_gauss_legendre_is_exact_on_polynomials():
    # An n-point rule integrates degree <= 2n-1 exactly.
    n = 6
    nodes, weights = gauss_legendre(-1.3, 2.1, n)
    for deg in range(2 * n):
        got = float(np.sum(weights * nodes**deg))
        exact = (2.1 ** (deg + 1) - (-1.3) ** (deg + 1)) / (deg + 1)
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_gauss_legendre_broadcasts_limits():
    a = np.array([0.0, 1.0])
    b = np.array([1.0, 3.0])
    nodes, weights = gauss_legendre(a, b, 4)
    assert nodes.shape == (2, 4)
    assert np.sum(weights, axis=1) == pytest.approx(b - a)
    assert np.all(nodes[0] < 1.0) and np.all(nodes[1] > 1.0)


def test_panel_nodes_covers_each_panel():
    breaks = np.array([0.0, 0.5, 1.0, 2.5])
    nodes, weights = panel_nodes(breaks, 5)
    assert nodes.shape == weights.shape == (3, 5)
    for k in range(3):
        assert np.all(nodes[k] > breaks[k]) and np.all(nodes[k] < breaks[k + 1])
        assert np.sum(weights[k]) == pytest.approx(breaks[k + 1] - breaks[k], rel=1e-14)


def test_panel_nodes_integrates_smooth_function():
    breaks = np.linspace(0.0, 4.0, 9)
    nodes, weights = panel_nodes(breaks, 16)
    got = float(np.sum(weights * np.exp(-0.7 * nodes) * np.sin(nodes)))
    oracle, _ = quad(lambda s: np.exp(-0.7 * s) * np.sin(s), 0.0, 4.0, epsabs=1e-14)
    assert got == pytest.approx(oracle, abs=1e-12)


def test_panel_nodes_rejects_bad_grids():
    with pytest.raises(ValueError):
        panel_nodes(np.array([1.0]), 4)
    with pytest.raises(ValueError):
        panel_nodes(np.array([0.0, 1.0, 1.0]), 4)
    with pytest.raises(ValueError):
        panel_nodes(np.array([0.0, 2.0, 1.0]), 4)


@pytest.mark.parametrize("a", [-0.7, 0.0, 0.3])
@pytest.mark.parametrize(
    "points",
    [[2.0, 0.5, 3.5, 1.0], [1.0, 1.0, 0.0, 2.5, 0.0], [[1.0, 2.0], [0.5, 4.0]], 0.0, 7.0],
    ids=["unsorted", "repeated-and-zero", "2-D", "zero", "one-point"],
)
def test_running_grid_integrates_exponentials(a, points):
    grid = _RunningGrid(points, 24, abs(a))
    f = np.exp(a * grid.nodes)
    at_points = grid.at_points(f)
    assert at_points.shape == np.shape(points)
    np.testing.assert_allclose(at_points, psi(a, 0.0, np.asarray(points, float)),
                               rtol=1e-14, atol=0.0)
    at_nodes = grid.at_nodes(f)
    assert at_nodes.shape == grid.nodes.shape
    np.testing.assert_allclose(at_nodes, psi(a, 0.0, grid.nodes), rtol=1e-14, atol=0.0)
    # leading axes integrate independently
    both = grid.at_points(np.stack((f, 2.0 * f)))
    np.testing.assert_array_equal(both[0], at_points)


def test_running_grid_cuts_gaps_longer_than_the_growth_scale():
    grid = _RunningGrid([0.5, 6.0], 8, 1.0)
    assert grid.nodes.shape == (7, 8)  # [0, 0.5] whole, [0.5, 6] in 6 pieces
    np.testing.assert_array_equal(grid.lower, [0.0] + [0.5] * 6)  # before the cut
    np.testing.assert_allclose(grid.widths, [0.5] + [5.5 / 6] * 6, rtol=1e-15)
    assert np.all(np.diff(grid.nodes.ravel()) > 0)
    np.testing.assert_allclose(grid.at_points(np.exp(grid.nodes)), np.expm1([0.5, 6.0]),
                               rtol=1e-14)


def test_running_grid_refuses_more_gaps_than_its_limit():
    assert _RunningGrid([1.0], 8, float(_MAX_GAPS)).nodes.shape == (_MAX_GAPS, 8)
    for rate, count in ((_MAX_GAPS + 0.5, "16385"), (1e300, "1e+300"), (np.nan, "nan")):
        with pytest.raises(_GridLimitError) as exc:
            _RunningGrid([1.0], 8, rate)
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == (f"decay rate {rate:.6g} over [0, 1] needs {count} grid "
                                  f"gaps, more than the {_MAX_GAPS} allowed")


def test_running_grid_is_built_once_per_points_nodes_and_cuts():
    points = np.array([0.5, 1.0, 1.5, 6.0])  # gaps 0.5, 0.5, 0.5 and 4.5
    _grid_cache.clear()
    grid = _running_grid(points, 8, 0.3)  # cuts 1, 1, 1, 2
    assert _running_grid(points.copy(), 8, 0.4) is grid  # the same cuts
    assert _running_grid(points, 8, 0.5) is not grid  # 4.5 in 3 pieces
    assert _running_grid(points, 16, 0.3) is not grid
    assert len(_grid_cache) == 1
    # a cached grid is the grid a fresh build gives, array by array
    cached, fresh = _running_grid(points, 8, 0.3), _RunningGrid(points, 8, 0.3)
    assert vars(cached).keys() == vars(fresh).keys()
    for name, value in vars(fresh).items():
        np.testing.assert_array_equal(getattr(cached, name), value, err_msg=name)
        if isinstance(value, np.ndarray):
            assert not getattr(cached, name).flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        cached.nodes[0, 0] = 0.0


def _whole(gap: float, k: int) -> float:
    """The largest rate whose product with ``gap`` rounds to at most the
    whole number k: exactly k where some rate's product does."""
    rate = k / gap
    while rate * gap > k:
        rate = np.nextafter(rate, -np.inf)
    while np.nextafter(rate, np.inf) * gap <= k:
        rate = np.nextafter(rate, np.inf)
    return float(rate)


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_running_grid_cache_cuts_exactly_at_whole_cut_counts(k):
    # A cached grid is handed out for a rate strictly inside the interval
    # that cuts every gap alike; where rate * gap is a whole number, or one
    # ulp either side of it, the cuts must still be _cuts' own, whichever
    # side of the edge the cached grid was built on.
    points = np.array([0.5, 1.0, 1.7, 6.0])
    gaps = _RunningGrid(points, 8, 1.0).gaps  # 0.5, 0.5, 0.7 and 4.3, as rounded
    for gap in np.unique(gaps).tolist():
        whole = _whole(gap, k)
        assert whole * gap <= k < np.nextafter(whole, np.inf) * gap
        for rate in (np.nextafter(whole, -np.inf), whole, np.nextafter(whole, np.inf)):
            for warm in (rate * (1.0 - 1e-9), rate * (1.0 + 1e-9)):
                _grid_cache.clear()
                _running_grid(points, 8, warm)
                grid = _running_grid(points, 8, rate)
                np.testing.assert_array_equal(grid.pieces, _cuts(gaps, grid.span, rate))
                np.testing.assert_array_equal(grid.nodes, _RunningGrid(points, 8, rate).nodes)


def test_running_grid_cache_refuses_a_nan_rate():
    points = np.array([0.5, 1.0, 1.5, 6.0])
    _grid_cache.clear()
    grid = _running_grid(points, 8, 0.3)
    with pytest.raises(_GridLimitError, match="decay rate nan"):
        _running_grid(points, 8, np.nan)
    assert list(_grid_cache.values()) == [grid]


def test_running_grid_refuses_before_any_lookup(monkeypatch):
    points = np.array([0.5, 1.0, 1.5, 6.0])
    _grid_cache.clear()
    with pytest.raises(_GridLimitError):
        _running_grid(points, 8, 1e6)
    assert not _grid_cache  # nothing cached for a refused grid
    grid = _running_grid(points, 8, 0.3)  # 5 gaps
    with pytest.raises(_GridLimitError):
        _running_grid(points, 8, 1e6)
    assert list(_grid_cache.values()) == [grid]
    # the limit is checked even where a grid of these cuts is cached
    monkeypatch.setattr(ssrd.timeint, "_MAX_GAPS", 4)
    with pytest.raises(_GridLimitError, match="needs 5 grid gaps, more than the 4 allowed"):
        _running_grid(points, 8, 0.3)


@pytest.mark.parametrize("a", [0.0, 0.7, 30.0])
@pytest.mark.parametrize("c", [-0.5, 0.3])
def test_running_grid_decayed_kernel_matches_closed_form(a, c):
    # int_0^u e^{-a (u-v)} e^{c v} dv = e^{c u} psi(-(a+c), 0, u); at a = 30
    # a u reaches 900, where a global e^{a u} weight would overflow.
    points = np.array([2.0, 30.0, 0.5, 30.0, 0.0])
    grid = _RunningGrid(points, 24, a)
    at_nodes, at_points = grid.decayed(np.exp(c * grid.nodes), a)
    assert np.all(np.isfinite(at_nodes))
    u = grid.nodes
    np.testing.assert_allclose(at_nodes, np.exp(c * u) * psi(-(a + c), 0.0, u),
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(at_points, np.exp(c * points) * psi(-(a + c), 0.0, points),
                               rtol=1e-14, atol=0.0)
