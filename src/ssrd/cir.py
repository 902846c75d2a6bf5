"""Closed-form bond/survival analytics for the square-root diffusion.

For dX = alpha (beta - X) dt + sigma sqrt(X) dW the Laplace transform of the
integrated factor is exponentially affine,

    E[exp(-int_t^T X_s ds) | X_t = x] = A(t, T) * exp(-B(t, T) x),

with h = sqrt(alpha^2 + 2 sigma^2) and, writing u = 1 - e^{-h (T-t)},

    B = 2 u / (2 h e^{-h (T-t)} + (alpha + h) u).

A is evaluated in log space through a form that stays exact as sigma -> 0
(it then collapses to the deterministic-drift discount factor):

    log A = 2 alpha beta * ( -(T-t)/(alpha+h) - log1p(-q u)/sigma^2 ),
    q     = sigma^2 / (h (h + alpha)).

The same formulas price a zero-coupon bond off the rate factor or a survival
probability off the intensity factor; the state x is always ``params.x0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CirParams", "cir_bond", "cir_bond_dT"]


@dataclass(frozen=True)
class CirParams:
    """Square-root diffusion parameters (mean reversion, level, vol, state)."""

    alpha: float
    beta: float
    sigma: float
    x0: float

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.sigma >= 0.0):
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not (self.x0 >= 0.0):
            raise ValueError(f"x0 must be non-negative, got {self.x0}")
        if not all(map(math.isfinite, (self.alpha, self.beta, self.sigma, self.x0))):
            raise ValueError("parameters must be finite")


def feller_margin(alpha: float, beta: float, sigma: float) -> float:
    """2 alpha beta - sigma^2: negative when the zero boundary is attainable.

    Plain floats, no state, so a leg whose state is out of range is judged too.
    """
    return 2.0 * alpha * beta - sigma * sigma


def _affine_coefficients(alpha, beta, sigma, tau):
    # one formula for floats and for columns: every operation is elementwise,
    # so each leg of a column gets the bits it gets alone
    sig2 = sigma * sigma
    h = np.sqrt(alpha * alpha + 2.0 * sig2)
    u = -np.expm1(-h * tau)
    denom = 2.0 * h * np.exp(-h * tau) + (alpha + h) * u
    b = 2.0 * u / denom

    q = sig2 / (h * (h + alpha))
    qu = q * u
    # log1p(-qu)/sigma^2 with the exact sigma -> 0 limit -u/(h(h+alpha)),
    # each branch evaluated only when some maturity takes it.
    small = np.abs(qu) < 1e-4
    if not small.any():
        corr = np.log1p(-qu) / sig2
    else:
        corr = -(u / (h * (h + alpha))) * (1.0 + qu * (0.5 + qu / 3.0))
        if not small.all():
            direct = np.log1p(-np.where(small, 0.0, qu)) / np.where(small, 1.0, sig2)
            corr = np.where(small, corr, direct)
    log_a = 2.0 * alpha * beta * (-tau / (alpha + h) - corr)
    return log_a, b, h, u, denom


def _bond(alpha, beta, sigma, x0, tau):
    """A e^{-B x0} over ``tau``: floats, or columns of legs against maturities."""
    log_a, b, _, _, _ = _affine_coefficients(alpha, beta, sigma, tau)
    return np.exp(log_a - b * x0)


def cir_bond(params: CirParams, t: float, T):
    """E[exp(-int_t^T X ds) | X_t = params.x0].

    ``T`` may be a scalar or array of maturities >= t.
    """
    T = np.asarray(T, dtype=float)
    if (T < t).any():
        raise ValueError("maturity before evaluation time")
    out = _bond(params.alpha, params.beta, params.sigma, params.x0, T - t)
    return float(out) if out.ndim == 0 else out


def cir_bond_dT(params: CirParams, t: float, T):
    """Analytic maturity derivative of cir_bond.

    d/dT [A e^{-B x}] = -bond * (alpha beta B + B' x)   with x = params.x0 and
    B' = 4 h^2 e^{-h tau} / (2 h e^{-h tau} + (alpha+h) u)^2.

    At T = t this equals -x (the instantaneous forward of the factor).
    """
    T = np.asarray(T, dtype=float)
    if (T < t).any():
        raise ValueError("maturity before evaluation time")
    x = params.x0
    tau = T - t
    log_a, b, h, u, denom = _affine_coefficients(params.alpha, params.beta, params.sigma, tau)
    b_dT = 4.0 * h * h * np.exp(-h * tau) / (denom * denom)
    out = -np.exp(log_a - b * x) * (params.alpha * params.beta * b + b_dT * x)
    return float(out) if out.ndim == 0 else out
