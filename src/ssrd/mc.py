"""Monte Carlo reference values for the two-factor model.

Both square-root factors are simulated with the full-truncation Euler
scheme: the stored state may dip below zero, but the drift, the diffusion
coefficient, and every consumer of the path (integrals, terminal values)
see only its positive part, so all simulated quantities stay nonnegative.
Factor increments are correlated through Z2 = rho Z1 + sqrt(1-rho^2) W.
Time integrals use the trapezoid rule on the simulation grid.

Targets, all three read off one set of simulated paths:
    v   E[exp(-int_0^T (r+lambda))]           (defaultable bond kernel)
    h   E[exp(-int_0^T (r+lambda)) lambda_T]  (default-leg density)
    q   E[exp(-int_0^T lambda)]               (survival probability)

Paths are split into fixed-size blocks with seeds derived from one
``SeedSequence``, and block results reduce in block order, so estimates
are bit-identical for a given seed no matter how the work is scheduled.
When both volatilities are zero the paths are deterministic and the
estimates are returned from the closed-form mean paths directly: exact
values, zero standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expansion import ModelParams

__all__ = ["McConfig", "mc_estimate"]

_BLOCK = 16384


@dataclass(frozen=True)
class McConfig:
    """Simulation controls; the defaults favor test-suite runtime."""

    n_paths: int = 200_000
    step: float = 0.01
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"path count must be >= 1, got {self.n_paths}")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive, got {self.step}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _deterministic_estimate(params: ModelParams, T: float) -> dict[str, tuple[float, float]]:
    """Zero-volatility limit: exact mean-path integrals, no sampling."""

    def mean_integral(alpha: float, beta: float, x0: float) -> float:
        # int_0^T (beta + (x0-beta) e^{-alpha s}) ds
        return beta * T + (x0 - beta) * (-math.expm1(-alpha * T)) / alpha

    int_r = mean_integral(params.alpha1, params.beta1, params.r0)
    int_l = mean_integral(params.alpha2, params.beta2, params.lambda0)
    v = math.exp(-(int_r + int_l))
    lam_T = params.beta2 + (params.lambda0 - params.beta2) * math.exp(-params.alpha2 * T)
    return {"v": (v, 0.0), "h": (v * lam_T, 0.0), "q": (math.exp(-int_l), 0.0)}


def _simulate_block(
    params: ModelParams, T: float, n_steps: int, m: int, rng, antithetic: bool
) -> np.ndarray:
    """Per-path (or per-pair-mean) payoffs of v, h and q for one block, shape (3, m)."""
    dt = T / n_steps
    sq_dt = math.sqrt(dt)
    rho_c = math.sqrt(1.0 - params.rho * params.rho)
    n_var = 2 if antithetic else 1

    # variant 0 uses the draws as-is, variant 1 negates them
    r = np.full((n_var, m), params.r0)
    lam = np.full((n_var, m), params.lambda0)
    int_rl = np.zeros((n_var, m))
    int_l = np.zeros((n_var, m))

    rp = np.maximum(r, 0.0)
    lp = np.maximum(lam, 0.0)
    for _ in range(n_steps):
        z1 = rng.standard_normal(m)
        w = rng.standard_normal(m)
        z2 = params.rho * z1 + rho_c * w
        if antithetic:
            z1 = np.stack((z1, -z1))
            z2 = np.stack((z2, -z2))
        r = r + params.alpha1 * (params.beta1 - rp) * dt + params.sigma1 * np.sqrt(rp) * sq_dt * z1
        lam = (
            lam + params.alpha2 * (params.beta2 - lp) * dt + params.sigma2 * np.sqrt(lp) * sq_dt * z2
        )
        rp_next = np.maximum(r, 0.0)
        lp_next = np.maximum(lam, 0.0)
        int_rl += 0.5 * dt * ((rp + lp) + (rp_next + lp_next))
        int_l += 0.5 * dt * (lp + lp_next)
        rp, lp = rp_next, lp_next

    disc = np.exp(-int_rl)
    return np.stack((disc, disc * lp, np.exp(-int_l))).mean(axis=1)


def mc_estimate(
    params: ModelParams, T: float, *, config: McConfig = McConfig()
) -> dict[str, tuple[float, float]]:
    """Estimate every target with its standard error from one path set.

    Returns ``{"v": (mean, std_error), "h": ..., "q": ...}``.  The standard
    error comes from the sample variance of per-path payoffs (per-pair means
    under antithetic sampling, which never inflates it).  Identical
    ``config.seed`` gives bit-identical results.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"horizon must be positive, got {T}")
    if params.sigma1 == 0.0 and params.sigma2 == 0.0:
        return _deterministic_estimate(params, T)

    n_units = config.n_paths
    if config.antithetic:
        n_units = (n_units + 1) // 2  # pairs
    n_steps = max(1, math.ceil(T / config.step))
    n_blocks = (n_units + _BLOCK - 1) // _BLOCK
    children = np.random.SeedSequence(config.seed).spawn(n_blocks)

    count = 0
    acc = [0.0, 0.0, 0.0]
    acc_sq = [0.0, 0.0, 0.0]
    for b in range(n_blocks):
        m = min(_BLOCK, n_units - b * _BLOCK)
        rng = np.random.default_rng(children[b])
        samples = _simulate_block(params, T, n_steps, m, rng, config.antithetic)
        count += m
        for k, sample in enumerate(samples):
            acc[k] += float(np.sum(sample))
            acc_sq[k] += float(np.sum(sample * sample))

    out = {}
    for k, target in enumerate(("v", "h", "q")):
        mean = acc[k] / count
        var = max(acc_sq[k] - count * mean * mean, 0.0) / (count - 1) if count > 1 else math.inf
        out[target] = (mean, math.sqrt(var / count))
    return out
