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

One path set serves every target and every tenor on a shared grid.  The
Euler grid of tenor t has ``max(1, ceil(t / step))`` steps of width
``t / n_steps``; tenors whose width is the same float share one sweep to
the longest of them, and each shorter one takes its payoffs when the sweep
passes its step count.  Those are the very paths, draws and sums a sweep to
that tenor alone would make, so the estimate is bit-identical to a call
for it alone.  A tenor on a grid of its own (a different width) gets a
sweep of its own from the same seed.

When both volatilities are zero the paths are deterministic and the
estimates are returned from the closed-form mean paths directly: exact
values, zero standard errors.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass

import numpy as np

from .expansion import ModelParams

__all__ = ["McConfig", "mc_estimate"]

_BLOCK = 16384

Estimate = dict[str, tuple[float, float]]


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


def _deterministic_estimate(params: ModelParams, T: float) -> Estimate:
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
    params: ModelParams, dt: float, stops: Collection[int], m: int, rng, antithetic: bool
) -> dict[int, np.ndarray]:
    """Per-path (or per-pair-mean) payoffs of v, h and q for one block.

    Steps the paths ``max(stops)`` times at width ``dt`` and returns, for
    each step count in ``stops``, the payoffs at that step, shape (3, m).
    """
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
    payoffs = {}
    for step in range(1, max(stops) + 1):
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
        if step in stops:
            disc = np.exp(-int_rl)
            payoffs[step] = np.stack((disc, disc * lp, np.exp(-int_l))).mean(axis=1)
    return payoffs


def _grid(t: float, step: float) -> tuple[float, int]:
    """Euler step width and step count of the simulation grid for tenor ``t``."""
    n_steps = max(1, math.ceil(t / step))
    return t / n_steps, n_steps


def _horizons(T: float, at) -> list[float]:
    """The tenors to estimate at: ``[T]``, or ``at`` checked against (0, T]."""
    if at is None:
        return [T]
    tenors = [float(t) for t in at]
    if not tenors:
        raise ValueError("tenor list is empty")
    for t in tenors:
        if not (t > 0.0 and math.isfinite(t)):
            raise ValueError(f"tenors must be positive and finite, got {t}")
        if t > T:
            raise ValueError(f"tenor {t} lies beyond the horizon {T}")
    return tenors


def _reduce(acc: list[float], acc_sq: list[float], count: int) -> Estimate:
    """Means and standard errors from the payoff sums of ``count`` samples."""
    out = {}
    for k, target in enumerate(("v", "h", "q")):
        mean = acc[k] / count
        var = max(acc_sq[k] - count * mean * mean, 0.0) / (count - 1) if count > 1 else math.inf
        out[target] = (mean, math.sqrt(var / count))
    return out


def _sampled_estimates(
    params: ModelParams, tenors: list[float], config: McConfig
) -> list[Estimate]:
    """One estimate per tenor, with one sweep per distinct Euler grid width."""
    # step width -> step count -> payoff sums and sums of squares; grouped
    # by the exact float, since only an identical width replays the paths
    grid = [_grid(t, config.step) for t in tenors]
    sweeps: dict[float, dict[int, tuple[list[float], list[float]]]] = {}
    for dt, n_steps in grid:
        sweeps.setdefault(dt, {})[n_steps] = ([0.0] * 3, [0.0] * 3)

    n_units = config.n_paths
    if config.antithetic:
        n_units = (n_units + 1) // 2  # pairs
    n_blocks = (n_units + _BLOCK - 1) // _BLOCK
    children = np.random.SeedSequence(config.seed).spawn(n_blocks)

    for b in range(n_blocks):
        m = min(_BLOCK, n_units - b * _BLOCK)
        for dt, sums in sweeps.items():
            rng = np.random.default_rng(children[b])
            payoffs = _simulate_block(params, dt, sums.keys(), m, rng, config.antithetic)
            for n_steps, samples in payoffs.items():
                acc, acc_sq = sums[n_steps]
                for k, sample in enumerate(samples):
                    acc[k] += float(np.sum(sample))
                    acc_sq[k] += float(np.sum(sample * sample))

    return [_reduce(*sweeps[dt][n_steps], n_units) for dt, n_steps in grid]


def mc_estimate(
    params: ModelParams,
    T: float,
    *,
    config: McConfig = McConfig(),
    at: Sequence[float] | None = None,
) -> Estimate | list[Estimate]:
    """Estimate every target with its standard error from one path set.

    Returns ``{"v": (mean, std_error), "h": ..., "q": ...}`` at horizon
    ``T``.  With ``at``, a sequence of tenors in (0, T], returns one such
    dict per entry, in order; each equals ``mc_estimate(params, t,
    config=config)`` bit for bit.  Tenors on a shared Euler grid are read
    off one sweep to the longest of them; a tenor on a grid of its own is
    swept separately with the same seed.

    The standard error comes from the sample variance of per-path payoffs
    (per-pair means under antithetic sampling, which never inflates it);
    with a single path or pair it is infinite.  Identical ``config.seed``
    gives bit-identical results.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"horizon must be positive, got {T}")
    tenors = _horizons(T, at)
    if params.sigma1 == 0.0 and params.sigma2 == 0.0:
        out = [_deterministic_estimate(params, t) for t in tenors]
    else:
        out = _sampled_estimates(params, tenors, config)
    return out if at is not None else out[0]
