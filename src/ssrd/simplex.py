"""Nelder-Mead simplex minimization with smooth bound transforms.

The credit fit (calibration step 3) is a small weighted least-squares
problem whose expansion-priced objective has a flat valley: a
derivative-free simplex crosses it in a few hundred evaluations, where
damped Gauss-Newton steps creep along it.  The smooth rate fit (step 1)
runs on Levenberg-Marquardt in :mod:`ssrd.calibrate` instead.  Rolling our
own keeps the iteration bit-for-bit reproducible: fixed coefficients and
stopping tolerances, no randomized restarts, no adaptive tweaks.

Bounds are handled by reparametrization rather than clipping, so the
simplex always works in an unconstrained space.  Every model parameter is
one of two kinds:

    positive     x = exp(z)        (mean-reversion speeds, levels, vols)
    correlation  x = tanh(z)       (rho in [-1, 1])

The objective is evaluated in the constrained coordinates; results are
reported there too.  The iteration budget is fixed at 4,000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CalibrationResult", "Transform", "nelder_mead"]

_KINDS = ("positive", "correlation")

# iteration budget; exhausting it returns the best vertex unconverged
_MAX_ITER = 4000

# reflection / expansion / contraction / shrink
_RHO, _CHI, _GAMMA, _SIGMA = 1.0, 2.0, 0.5, 0.5

# stopping tolerances: simplex diameter in unconstrained coordinates, and
# objective spread across vertices
_DIAMETER_TOL, _FSPREAD_TOL = 1e-8, 1e-12

_ATANH_CLIP = 1.0 - 1e-12


@dataclass(frozen=True)
class Transform:
    """Componentwise map between unconstrained and constrained coordinates."""

    kinds: tuple[str, ...]

    def __post_init__(self):
        for k in self.kinds:
            if k not in _KINDS:
                raise ValueError(f"unknown transform kind {k!r}")

    def constrain(self, z: np.ndarray) -> np.ndarray:
        x = np.array(z, dtype=float)
        for i, k in enumerate(self.kinds):
            x[i] = math.exp(z[i]) if k == "positive" else math.tanh(z[i])
        return x

    def unconstrain(self, x: np.ndarray) -> np.ndarray:
        z = np.array(x, dtype=float)
        for i, k in enumerate(self.kinds):
            if k == "positive":
                if x[i] <= 0.0:
                    raise ValueError(f"component {i} must be positive, got {x[i]}")
                z[i] = math.log(x[i])
            else:
                z[i] = math.atanh(min(max(x[i], -_ATANH_CLIP), _ATANH_CLIP))
        return z


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one minimization, in constrained coordinates.

    ``residuals`` (one entry per market quote) and ``elapsed`` (seconds)
    are filled by the calibration wrappers; the bare solvers leave them
    empty and zero.  ``objective`` is the function value at ``x`` --
    re-evaluating there must reproduce it to 1e-10, which the tests
    enforce.
    """

    x: np.ndarray
    objective: float
    iterations: int
    n_eval: int
    converged: bool
    residuals: tuple[float, ...] = field(default=())
    elapsed: float = 0.0


def _initial_simplex(z0: np.ndarray) -> np.ndarray:
    """Axis-aligned start: 5% bump per coordinate, absolute for zeros."""
    n = z0.size
    sim = np.tile(z0, (n + 1, 1))
    for i in range(n):
        if sim[i + 1, i] != 0.0:
            sim[i + 1, i] *= 1.05
        else:
            sim[i + 1, i] = 0.00025
    return sim


def nelder_mead(objective, x0, transform: Transform) -> CalibrationResult:
    """Minimize ``objective`` from ``x0`` with the (1, 2, 0.5, 0.5) simplex.

    Works in the unconstrained coordinates of ``transform``.  Convergence
    is declared when the simplex diameter (max-norm distance of any vertex
    from the best one, in unconstrained coordinates) falls below 1e-8 or
    the objective spread across vertices falls below 1e-12.  Exhausting the
    4,000-iteration budget returns the best vertex with ``converged=False``
    instead of raising; a point whose transform overflows scores inf, and a
    non-finite objective at the start is an error.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    if len(transform.kinds) != n:
        raise ValueError("transform dimension does not match the start point")
    z0 = transform.unconstrain(x0)

    n_eval = 0

    def f(z: np.ndarray) -> float:
        nonlocal n_eval
        n_eval += 1
        try:
            x = transform.constrain(z)
        except OverflowError:
            return math.inf
        return float(objective(x))

    sim = _initial_simplex(z0)
    fvals = np.array([f(z) for z in sim])
    if not math.isfinite(fvals[0]):
        raise ValueError("objective is not finite at the initial point")

    iterations = 0
    converged = False
    while iterations < _MAX_ITER:
        order = np.argsort(fvals, kind="stable")
        sim, fvals = sim[order], fvals[order]

        diameter = 0.0 if n == 0 else float(np.max(np.abs(sim[1:] - sim[0])))
        fspread = float(fvals[-1] - fvals[0])
        if diameter < _DIAMETER_TOL or fspread < _FSPREAD_TOL:
            converged = True
            break
        iterations += 1

        centroid = np.mean(sim[:-1], axis=0)
        xr = centroid + _RHO * (centroid - sim[-1])
        fr = f(xr)

        if fr < fvals[0]:
            xe = centroid + _RHO * _CHI * (centroid - sim[-1])
            fe = f(xe)
            sim[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            sim[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + _GAMMA * _RHO * (centroid - sim[-1])
                fc = f(xc)
                accepted = fc <= fr
            else:
                xc = centroid - _GAMMA * (centroid - sim[-1])
                fc = f(xc)
                accepted = fc < fvals[-1]
            if accepted:
                sim[-1], fvals[-1] = xc, fc
            else:
                sim[1:] = sim[0] + _SIGMA * (sim[1:] - sim[0])
                fvals[1:] = [f(z) for z in sim[1:]]

    best = int(np.argmin(fvals))
    return CalibrationResult(
        x=transform.constrain(sim[best]),
        objective=float(fvals[best]),
        iterations=iterations,
        n_eval=n_eval,
        converged=converged,
    )
