"""Small-noise expansion of the joint discounting transform for a pair of
correlated square-root diffusions (short rate r, default intensity lam).

The two pricing transforms

    v(T) = E[ exp(-int_0^T (r_u + lam_u) du) ]
    h(T) = E[ exp(-int_0^T (r_u + lam_u) du) lam_T ]

are expanded around the mean path (rbar, lbar) of (r, lam) from the
time-zero state.  Order zero freezes everything on the mean path and gives
the deterministic-limit transform v0 (exponential-affine in the state).  The
corrections collapse to scalar integrals of the proxy covariances c11, c12,
c22 of (r, lam).  Each covariance and each correction is a running integral
against a decaying kernel e^{-a (u-s)}, so no factor grows with time:

    c12(u) = rho_hat int_0^u e^{-(a1+a2)(u-s)} sqrt(rbar lbar)(s) ds
    D1(u)  = int_0^u e^{-a1 (u-s)} [c11 + c12](s) ds    = Cov(int_0^u (r+lam), r_u)
    D2(u)  = int_0^u e^{-a2 (u-s)} [c12 + c22](s) ds    = Cov(int_0^u (r+lam), lam_u)

    v1 = 0                       (the first-order operator is odd in the
                                  centered state, and the payoff 1 leaves
                                  nothing for it to hit)
    h1 = -D2(T) * v0             (covariance of the accumulated discount
                                  with the terminal intensity)
    v2 = int_0^T (D1 + D2) ds * v0
                                 (half the variance of the accumulated
                                  discount)
    h2 = lbar(T) * v2

with c11 and c22 the closed-form variances of each leg.  Every integral
here starts at time 0 and is a running integral, up to each maturity or grid
node, on one Gauss-Legendre grid over [0, sorted maturities]; no quadrature
is nested in another, and v2 is a running integral of running integrals.
The grid comes from ``timeint._running_grid``, so calls on the same
maturities whose decay rate cuts them alike share it.

The one-leg survival expansion (``proxy_bond_expansion``) needs no grid: its
sigma^2 and sigma^4 coefficients are closed forms in alpha * tau, with
Taylor series where those cancel.

v0, the mean paths and the variances are all built from each leg's closed
forms psi(-a, 0, t), e^{-a t} and theta(-a, a, 0, t).  These are evaluated
once per call, for both legs on the grid nodes and the maturities together,
and theta is read off psi.  v0 and the mean intensity are read at every node
and maturity; c11, c22 and the mean paths under c12 only at the nodes, where
the running integrals take them.

These match the exact transforms through O(sigma^2) and O(rho sigma^2)
inclusive: the zero-correlation limit reproduces the per-leg bond convexity
exactly, and the c12 terms reproduce the integrated rate/intensity covariance.
The proxy matches the exact mean and per-leg variance of (r, lam); only the
cross-covariance freezes sqrt(r lam) at the mean path, which is where the
anchor floor below comes in for near-zero rate states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cir import CirParams
from .timeint import _RunningGrid, _running_grid, psi

__all__ = [
    "ModelParams",
    "ExpansionTerms",
    "expansion_terms",
    "v_expansion",
    "h_expansion",
    "survival_approx",
    "proxy_bond_expansion",
    "ANCHOR_FLOOR",
]

# Anchor floor for fractional powers of the mean path.  Linear moment terms
# keep the raw anchor; only sqrt-type powers (which all carry a factor of
# the effective correlation) are floored, so a zero-correlation model is
# never distorted.
ANCHOR_FLOOR = 1e-10

# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Joint short-rate / default-intensity square-root model.

        dr   = alpha1 (beta1 - r) dt + sigma1 sqrt(r) dW1
        dlam = alpha2 (beta2 - lam) dt + sigma2 sqrt(lam) dW2,  d<W1,W2> = rho dt

    ``sigma1_hat``, when set, replaces ``sigma1`` in every expansion moment
    (it is the risk-neutral rate volatility implied from the discount curve;
    the order-zero transform is volatility-free either way).
    """

    alpha1: float
    beta1: float
    sigma1: float
    r0: float
    alpha2: float
    beta2: float
    sigma2: float
    lambda0: float
    rho: float
    sigma1_hat: float | None = None

    def __post_init__(self):
        vals = [self.alpha1, self.beta1, self.sigma1, self.r0, self.alpha2,
                self.beta2, self.sigma2, self.lambda0, self.rho]
        if self.sigma1_hat is not None:
            vals.append(self.sigma1_hat)
        if not all(math.isfinite(float(v)) for v in vals):
            raise ValueError("model parameters must be finite")
        if self.alpha1 <= 0.0 or self.alpha2 <= 0.0:
            raise ValueError("mean-reversion speeds must be positive")
        if self.beta1 < 0.0 or self.beta2 < 0.0:
            raise ValueError("mean-reversion levels must be non-negative")
        if self.sigma1 < 0.0 or self.sigma2 < 0.0:
            raise ValueError("volatilities must be non-negative")
        if self.sigma1_hat is not None and self.sigma1_hat < 0.0:
            raise ValueError("sigma1_hat must be non-negative")
        if self.lambda0 <= 0.0:
            raise ValueError("initial intensity must be positive")
        if abs(self.rho) > 1.0:
            raise ValueError("correlation must lie in [-1, 1]")

    @property
    def sigma1_active(self) -> float:
        return self.sigma1 if self.sigma1_hat is None else self.sigma1_hat

    @property
    def rho_hat(self) -> float:
        """Effective cross-diffusion coefficient rho * sigma1_active * sigma2."""
        return self.rho * self.sigma1_active * self.sigma2

    def rate_leg(self) -> CirParams:
        return CirParams(self.alpha1, self.beta1, self.sigma1, self.r0)

    def intensity_leg(self) -> CirParams:
        return CirParams(self.alpha2, self.beta2, self.sigma2, self.lambda0)


# --------------------------------------------------------------------------
# Proxy moments
# --------------------------------------------------------------------------

def _psi_theta(a, t):
    """psi(-a, 0, t) and theta(-a, a, 0, t) of square-root legs with speeds a
    (a scalar, or a column with one row per leg), psi evaluated once.

    theta is (t - psi) / a, which is what ``timeint.theta`` computes on its
    direct branch: E(0, t) = t and E(-a, t) = psi there.  That difference
    cancels as a t -> 0: against 60-digit ``decimal`` it is off by up to
    about 4e-11 relative for |a t| in [1e-5, 1e-4], 4e-12 in [1e-4, 1e-3],
    and tenfold less per decade above.  Below |a t| = 1e-5 the series
    t^2 (1/2 - a t/6 + (a t)^2/24) takes over; its first omitted term is
    (a t)^3/60 relative, and it holds 1e-15.
    """
    w = psi(-a, 0.0, t)
    at = a * t
    small = np.abs(at) < 1e-5
    if not small.any():  # the series only when some point needs it
        return w, (t - w) / a
    series = t * t * (0.5 - at * (1.0 / 6.0 - at / 24.0))
    return w, np.where(small, series, (t - w) / a)


def _covariances(params: ModelParams, grid: _RunningGrid, w, decay, order: int):
    """The proxy (co)variances c11, c22 and c12 of (r, lam) at the grid's nodes.

    ``w`` and ``decay`` are both legs' psi(-a, 0, t) and e^{-a t} over
    ``grid.times`` (row 0 the rate, row 1 the intensity); only their node
    columns are read.  c11 and c22 are the exact per-leg variances from the
    time-zero state, every factor decaying in t.  c12 freezes sqrt(rbar lbar)
    along the mean paths started from the floored state:
    rho_hat * int_0^u e^{-(a1+a2)(u-v)} sqrt(rbar lbar)(v) dv.  What no term
    of ``order`` reads is None: c11 below order 2, c12 without correlation.
    """
    p, shape = params, (2,) + grid.nodes.shape
    w = w[:, :grid.nodes.size].reshape(shape)
    decay = decay[:, :grid.nodes.size].reshape(shape)
    # c12 first, so that c11 and c22 are not yet held during its decayed pass
    c11 = c12 = None
    if p.rho_hat != 0.0:
        rbar = max(p.r0, ANCHOR_FLOOR) * decay[0] + p.alpha1 * p.beta1 * w[0]
        lbar = max(p.lambda0, ANCHOR_FLOOR) * decay[1] + p.alpha2 * p.beta2 * w[1]
        c12 = p.rho_hat * grid.decayed(np.sqrt(rbar * lbar), p.alpha1 + p.alpha2)[0]
    if order >= 2:
        s1 = p.sigma1_active
        c11 = s1 * s1 * w[0] * (p.r0 * decay[0] + 0.5 * p.alpha1 * p.beta1 * w[0])
    s2 = p.sigma2
    c22 = s2 * s2 * w[1] * (p.lambda0 * decay[1] + 0.5 * p.alpha2 * p.beta2 * w[1])
    return c11, c22, c12


def _warn_anchor(params: ModelParams, order: int) -> None:
    # Raised by the public entry points only, like the Feller warning:
    # spread_ladder serves the calibration's trial points and stays silent.
    if order >= 1 and params.rho_hat != 0.0 and min(params.r0, params.lambda0) < ANCHOR_FLOOR:
        warnings.warn(
            "state anchor below %.0e with non-zero correlation; fractional "
            "powers of the mean path are floored" % ANCHOR_FLOOR,
            RuntimeWarning,
            stacklevel=3,
        )


# --------------------------------------------------------------------------
# Expansion of v and h
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionTerms:
    """Per-order contributions to v and h on a maturity grid.

    ``v_terms[n]`` / ``h_terms[n]`` hold the order-n term; partial sums give
    the order-N approximations.
    """

    v_terms: np.ndarray
    h_terms: np.ndarray

    @property
    def order(self) -> int:
        return self.v_terms.shape[0] - 1

    def v(self, order: int | None = None) -> np.ndarray:
        n = self.order if order is None else order
        return self.v_terms[: n + 1].sum(axis=0)

    def h(self, order: int | None = None) -> np.ndarray:
        n = self.order if order is None else order
        return self.h_terms[: n + 1].sum(axis=0)


def _expand(params: ModelParams, T: np.ndarray, order: int, n_nodes: int):
    """The expansion on one running grid over [0, sorted T].

    Returns the grid and the terms over ``grid.times`` (every node,
    flattened, then every point of T) as two lists of rows, one row per
    order: v's orders 0 and 2, since its order-1 term is zero, and h's
    orders 0 up to ``order``.  Summed from the left, the rows give the
    order-``order`` approximations.

    Each leg's closed forms psi(-a, 0, t), theta(-a, a, 0, t) and e^{-a t}
    are evaluated once over ``grid.times``, one array op each for both legs.
    v0 and the mean intensity read every column; the variances c11 and c22
    and the floored mean paths under c12 read the node columns only, c12
    is built only under correlation and c11 only at order 2
    (``_covariances``).  The kernels D1 and D2 of the module docstring are
    carried from gap to gap by ``_RunningGrid.decayed``; i_h1 = -D2 and
    i_v2 = int_0^T (D1 + D2), half the variance of the accumulated discount
    under the proxy, each covariance increment weighted by its remaining
    exposure window.  No term of these running integrals is negative for
    covariances >= 0, so nothing cancels.
    """
    p = params
    # Gaps are cut to at most 1/(a1+a2), the fastest decay among the kernels;
    # every trial point that cuts them alike shares one grid.
    grid = _running_grid(T, n_nodes, p.alpha1 + p.alpha2)
    alpha = np.array([[p.alpha1], [p.alpha2]])
    w, th = _psi_theta(alpha, grid.times)
    decay = np.exp(-alpha * grid.times)
    v0 = np.exp(-p.r0 * w[0] - p.alpha1 * p.beta1 * th[0]
                - p.lambda0 * w[1] - p.alpha2 * p.beta2 * th[1])
    mean_lam = p.lambda0 * decay[1] + p.alpha2 * p.beta2 * w[1]
    v, h = [v0], [v0 * mean_lam]
    if order >= 1:
        # The payoff-1 transform has no first-order term: the correction
        # operator is linear in the centered state, whose proxy mean is zero
        # at the anchor.  The terminal-intensity payoff leaves the
        # discount/terminal covariance behind.
        c11, c22, c12 = _covariances(p, grid, w, decay, order)
        d2, d2_at_T = grid.decayed(c22 if c12 is None else c12 + c22, p.alpha2)
        h.append(-np.concatenate((d2.ravel(), d2_at_T.ravel())) * v0)
    del w, th, decay  # read no further; a long grid's peak is lower without them
    if order >= 2:
        d = grid.decayed(c11 if c12 is None else c11 + c12, p.alpha1)[0] + d2
        v2 = np.concatenate((grid.at_nodes(d).ravel(), grid.at_points(d).ravel())) * v0
        v.append(v2)
        h.append(mean_lam * v2)
    return grid, v, h


def _maturities(maturities) -> np.ndarray:
    T = np.atleast_1d(np.asarray(maturities, dtype=float))
    if not np.all(np.isfinite(T) & (T >= -1e-12)):
        raise ValueError("maturities must be finite and non-negative")
    return np.maximum(T, 0.0)


def expansion_terms(params: ModelParams, maturities, *, order: int = 2,
                    quad_nodes: int = 32) -> ExpansionTerms:
    """Order-by-order expansion of v and h from the time-zero model state.

    Maturities may be any array shape; terms come back as (order+1,) + shape.
    ``quad_nodes`` Gauss-Legendre nodes cover each gap between sorted
    maturities.
    """
    if order not in (0, 1, 2):
        raise ValueError("expansion order must be 0, 1 or 2")
    if quad_nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    _warn_anchor(params, order)
    T = _maturities(maturities)
    grid, v, h = _expand(params, T, order, quad_nodes)
    if order >= 1:
        v.insert(1, np.zeros_like(v[0]))
    shape = (order + 1,) + T.shape
    at_T = slice(grid.nodes.size, None)
    return ExpansionTerms(np.stack(v)[:, at_T].reshape(shape), np.stack(h)[:, at_T].reshape(shape))


def v_expansion(params: ModelParams, maturities, *, order: int = 2,
                quad_nodes: int = 32):
    """Order-N approximation of E[exp(-int (r+lam))] at the given maturities."""
    res = expansion_terms(params, maturities, order=order, quad_nodes=quad_nodes)
    out = res.v()
    return float(out[0]) if np.isscalar(maturities) or np.ndim(maturities) == 0 else out


def h_expansion(params: ModelParams, maturities, *, order: int = 2,
                quad_nodes: int = 32):
    """Order-N approximation of E[exp(-int (r+lam)) lam_T]."""
    res = expansion_terms(params, maturities, order=order, quad_nodes=quad_nodes)
    out = res.h()
    return float(out[0]) if np.isscalar(maturities) or np.ndim(maturities) == 0 else out


# --------------------------------------------------------------------------
# One-leg closed forms
# --------------------------------------------------------------------------

# B1(tau) = tau^3 g1(X), int_0^tau B1 = tau^4 G1(X), B2(tau) = tau^5 g2(X) and
# int_0^tau B2 = tau^6 G2(X), with X = alpha tau and e = e^{-X}:
#
#     g1 = (2 X e - 1 + e^2) / (2 X^3)
#     G1 = (5 - 2 X - 4 (X + 1) e - e^2) / (4 X^4)
#     g2 = (2 - 2 X^2 e - 2 X e - 4 X e^2 + e - 2 e^2 - e^3) / (4 X^5)
#     G2 = (6 X - 22 + 6 (X + 1) e^2 + 3 (2 X^2 + 6 X + 5) e + e^3) / (12 X^6)
#
# Each entry is (d, p, numerator) for numerator / (d X^p), the numerator a
# sum of terms c X^k e^{-m X} given as (c, k, m).
_NUMERATORS = (
    (2, 3, ((2, 1, 1), (-1, 0, 0), (1, 0, 2))),
    (4, 4, ((5, 0, 0), (-2, 1, 0), (-4, 1, 1), (-4, 0, 1), (-1, 0, 2))),
    (4, 5, ((2, 0, 0), (-2, 2, 1), (-2, 1, 1), (-4, 1, 2), (1, 0, 1), (-2, 0, 2),
            (-1, 0, 3))),
    (12, 6, ((6, 1, 0), (-22, 0, 0), (6, 1, 2), (6, 0, 2), (6, 2, 1), (18, 1, 1),
             (15, 0, 1), (1, 0, 3))),
)


def _taylor_table(terms: int) -> np.ndarray:
    """Taylor coefficients in X of the four scaled functions, one column
    each, every one an exact rational rounded once.

    The coefficient of X^n in c X^k e^{-m X} is c (-m)^{n-k} / (n-k)!; the
    numerator's coefficients below X^p are zero, which is the cancellation
    the series avoids.  Row j is the numerator's X^{j+p} coefficient, summed
    over the common denominator (j+p)!.
    """
    table = np.empty((terms, len(_NUMERATORS)))
    for col, (den, p, numerator) in enumerate(_NUMERATORS):
        for n in range(p, p + terms):
            exact = sum(c * (-m) ** (n - k) * (math.factorial(n) // math.factorial(n - k))
                        for c, k, m in numerator)
            table[n - p, col] = exact / (den * math.factorial(n))
    return table


# Below |X| = 1.75 the numerators cancel and the Taylor series take over; 32
# terms hold each function to about 1e-14 relative up to the switch.
_SERIES_SWITCH = 1.75
_SERIES = _taylor_table(32)[:, :, None]
_SERIES_POWERS = np.arange(_SERIES.shape[0])[:, None]
# Every numerator term as a row (function, c, k, m); each term's c sits in
# its function's column of a (terms, 4) weight and 0 in the others.
_FLAT = np.array([(col, c, k, m) for col, (_, _, numerator) in enumerate(_NUMERATORS)
                  for c, k, m in numerator], dtype=float)
_WEIGHTS = np.where(_FLAT[:, :1] == np.arange(len(_NUMERATORS)), _FLAT[:, 1:2], 0.0)[:, :, None]
_DEN, _DEN_POWER = np.array([(den, p) for den, p, _ in _NUMERATORS], dtype=float).T[:, :, None]


def _scaled_coefficients(x: np.ndarray) -> np.ndarray:
    """g1, G1, g2 and G2 at X = x (a 1-d array), shape (4,) + x.shape.

    Each point takes one branch.  Each branch is an elementwise product
    summed over a leading term axis, not a matmul, so no value depends on
    how many others are asked.
    """
    out = np.empty((len(_NUMERATORS),) + x.shape)
    small = np.abs(x) < _SERIES_SWITCH
    if small.any():
        xs = x[small]
        out[:, small] = (_SERIES * (xs ** _SERIES_POWERS)[:, None]).sum(axis=0)
    if not small.all():
        xc = x[~small]
        k, m = _FLAT[:, 2:3], _FLAT[:, 3:4]
        numer = (_WEIGHTS * (xc ** k * np.exp(-m * xc))[:, None]).sum(axis=0)
        out[:, ~small] = numer / (_DEN * xc ** _DEN_POWER)
    return out


def proxy_bond_expansion(alpha: float, beta: float, state: float, maturities):
    """Volatility-squared Taylor coefficients of a one-leg transform.

    Returns (p0, lin, quad) such that

        E[exp(-int_0^T X_u du)] ~= p0 * (1 + lin * sigma^2 + quad * sigma^4)

    for the square-root leg dX = alpha (beta - X) dt + sigma sqrt(X) dW with
    X_0 = state.  The coefficients come from perturbing the bond ODE system
    in sigma^2: with B0(w) = psi(-alpha, 0, w),

        B1(w) = -1/2 int_0^w e^{-alpha (w-u)} B0(u)^2 du
        B2(w) = -    int_0^w e^{-alpha (w-u)} B0(u) B1(u) du
        Ln    = -state * Bn(tau) - alpha beta int_0^tau Bn(w) dw

    and lin = L1, quad = L2 + L1^2/2 (the exponential re-expanded as a plain
    series).  This is the exact Taylor expansion of the closed-form bond in
    sigma^2 around zero, so it agrees with the transform expansion above
    through O(sigma^2) and sharpens the sigma^4 term.

    B1, B2 and their integrals are sums of polynomial-times-exponential
    terms in X = alpha tau, taken in closed form (``_NUMERATORS``); each
    maturity costs the same few array operations, whatever alpha and tau.
    Their numerators cancel as X -> 0, so below |X| = 1.75 each scaled
    function is its Taylor series instead.  p0 reads psi and theta off
    ``_psi_theta``, as the transform expansion's order zero does.
    """
    tau = _maturities(maturities)
    y = float(state)
    alpha = float(alpha)
    beta = float(beta)
    g1, int_g1, g2, int_g2 = _scaled_coefficients(alpha * tau.ravel()).reshape((4,) + tau.shape)
    t3 = tau ** 3
    w, th = _psi_theta(alpha, tau)
    p0 = np.exp(-y * w - alpha * beta * th)
    l1 = -y * t3 * g1 - alpha * beta * t3 * tau * int_g1
    l2 = -y * t3 * tau * tau * g2 - alpha * beta * t3 * t3 * int_g2
    lin = l1
    quad = l2 + 0.5 * l1 * l1
    if np.ndim(maturities) == 0:
        return float(p0[0]), float(lin[0]), float(quad[0])
    return p0, lin, quad


def survival_approx(leg: CirParams, maturities, *, order: int = 1):
    """Low-order survival probability E[exp(-int lam)] for one leg.

    ``leg.x0`` is the intensity level at time zero.  ``order`` counts powers
    of sigma^2: 0 gives the deterministic-limit survival, 1 adds the exact
    O(sigma^2) convexity correction and is the form used for acceptance
    checks, 2 adds the O(sigma^4) term used when inverting for a matched
    volatility.
    """
    if order not in (0, 1, 2):
        raise ValueError("survival order must be 0, 1 or 2")
    p0, lin, quad = proxy_bond_expansion(leg.alpha, leg.beta, leg.x0, maturities)
    s2 = leg.sigma * leg.sigma
    corr = 0.0 if order < 1 else s2 * lin
    if order >= 2:
        corr = corr + s2 * s2 * quad
    out = p0 * (1.0 + corr)
    return float(out) if np.ndim(maturities) == 0 else out
