"""Stable exponential time integrals and Gauss-Legendre helpers.

Every affine building block in this package reduces to integrals of
``exp(a*s)`` against polynomially-growing factors over short horizons.
The closed forms all share the primitive

    E(a, d)  = int_0^d exp(a*w) dw = expm1(a*d)/a

and its first two derivatives in ``a``.  Near ``a = 0`` the naive
expressions cancel catastrophically, so each function switches to a short
Taylor series.  The switches do not hold ``theta`` to 1e-12: against
60-digit ``decimal``, theta(-a, a, 0, t) is off by up to about 4e-11
relative on its direct branch just above |a t| = 1e-5 (about 4e-12 in
[1e-4, 1e-3], falling tenfold per decade), and by up to 8e-12 on its
first-order series just below.  ``exp_integral`` evaluates its series only
when some exponent needs it.

The running grid (``_RunningGrid``) carries the expansion's running
integrals.  It depends on the model only through how many pieces each gap
is cut into, so this module owns its lifetime: ``_running_grid`` keeps the
last grid it built, read-only, and hands it out again for the same points,
node count and cut counts.  Every trial point of a calibration on one
coupon strip then shares one grid.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "exp_integral",
    "exp_integral_da",
    "exp_integral_da2",
    "psi",
    "theta",
    "gauss_legendre",
    "panel_nodes",
]


def _as_float_arrays(*xs):
    # Not broadcast: every caller's arithmetic broadcasts its inputs anyway.
    return [np.asarray(x, dtype=float) for x in xs]


def _maybe_scalar(out, *inputs):
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


def _exp_integral(a, d):
    # E(a, d) for float a and d, unwrapped; the series only when some
    # exponent needs it
    small = np.abs(a) < 1e-12
    if not small.any():
        return np.expm1(a * d) / a
    a_safe = np.where(small, 1.0, a)
    ad = a * d
    direct = np.expm1(a_safe * d) / a_safe
    series = d * (1.0 + ad * (0.5 + ad / 6.0))
    return np.where(small, series, direct)


def exp_integral(a, d):
    """E(a, d) = int_0^d e^{a w} dw, stable for all a including a = 0."""
    a, d = _as_float_arrays(a, d)
    return _maybe_scalar(_exp_integral(a, d), a, d)


def exp_integral_da(a, d):
    """dE/da = (a d e^{a d} - expm1(a d)) / a^2 with a small-|a d| series."""
    a, d = _as_float_arrays(a, d)
    ad = a * d
    small = np.abs(ad) < 1e-4
    a_safe = np.where(small, 1.0, a)
    direct = (ad * np.exp(ad) - np.expm1(ad)) / (a_safe * a_safe)
    series = d * d * (0.5 + ad * (1.0 / 3.0 + ad * (0.125 + ad * (1.0 / 30.0 + ad / 144.0))))
    out = np.where(small, series, direct)
    return _maybe_scalar(out, a, d)


def exp_integral_da2(a, d):
    """d^2 E/da^2, switching to a series for |a d| < 1e-2."""
    a, d = _as_float_arrays(a, d)
    ad = a * d
    small = np.abs(ad) < 1e-2
    a_safe = np.where(small, 1.0, a)
    ead = np.exp(ad)
    direct = (ad * ad * ead - 2.0 * ad * ead + 2.0 * np.expm1(ad)) / (a_safe**3)
    series = d**3 * (
        1.0 / 3.0 + ad * (0.25 + ad * (0.1 + ad * (1.0 / 36.0 + ad / 168.0)))
    )
    out = np.where(small, series, direct)
    return _maybe_scalar(out, a, d)


def psi(alpha, t1, t2):
    """psi(alpha, t1, t2) = int_{t1}^{t2} e^{alpha s} ds.

    Equals (e^{alpha t2} - e^{alpha t1})/alpha, with the alpha -> 0 limit
    t2 - t1 taken when |alpha| < 1e-12.
    """
    if isinstance(t1, float) and t1 == 0.0 and isinstance(t2, np.ndarray):
        # e^{alpha * 0} = 1 and t2 - 0 = t2 exactly, for any finite alpha
        return _exp_integral(alpha, t2.astype(float, copy=False))
    alpha, t1, t2 = _as_float_arrays(alpha, t1, t2)
    out = np.exp(alpha * t1) * _exp_integral(alpha, t2 - t1)
    return _maybe_scalar(out, alpha, t1, t2)


def _g_factor(alpha, beta, d):
    """G(alpha, beta, d) = int_0^d e^{alpha w} E(beta, w) dw."""
    alpha, beta, d = _as_float_arrays(alpha, beta, d)
    small = np.abs(beta * d) < 1e-5
    beta_safe = np.where(small, 1.0, beta)
    direct = (exp_integral(alpha + beta_safe, d) - exp_integral(alpha, d)) / beta_safe
    series = exp_integral_da(alpha, d) + 0.5 * beta * exp_integral_da2(alpha, d)
    return np.where(small, series, direct)


def theta(alpha, beta, t, t2):
    """theta(alpha, beta, t, t2) = int_t^{t2} e^{alpha s} psi(beta, t, s) ds.

    The inner psi is anchored at the lower limit t.  Closed form
    [psi(alpha+beta, t, t2) - e^{beta t} psi(alpha, t, t2)]/beta, evaluated
    through the shifted primitive G so that the nested beta -> 0 and
    alpha -> 0 limits are exact:

        theta = e^{(alpha+beta) t} * G(alpha, beta, t2 - t).
    """
    alpha, beta, t, t2 = _as_float_arrays(alpha, beta, t, t2)
    out = np.exp((alpha + beta) * t) * _g_factor(alpha, beta, t2 - t)
    return _maybe_scalar(out, alpha, beta, t, t2)


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b].

    ``a`` and ``b`` may be arrays (broadcast against each other); the node
    axis is appended last, so scalars give shape (n,) and shape-(m,) limits
    give shape (m, n).
    """
    x, w = _leggauss(n)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    # offsets from a, so nodes near a keep their relative accuracy
    nodes = a[..., None] + half[..., None] * (x + 1.0)
    weights = half[..., None] * w
    return nodes, weights


@lru_cache(maxsize=32)
def _running_matrix(n: int) -> np.ndarray:
    """S[j, l] = int_{-1}^{x_j} ell_l for the Lagrange basis on the n Legendre
    nodes x: S @ f(x) integrates f's interpolant up to each node (spectral
    integration, Greengard 1991, SIAM J. Numer. Anal. 28(4)).  Each ell_l is
    evaluated in barycentric form on an n-node rule over [-1, x_j].
    """
    x, w = _leggauss(n)
    diff = x[:, None] - x
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / diff.prod(axis=1)
    rows = []
    for xj in x:
        half = 0.5 * (xj + 1.0)
        sub = (x + 1.0) * half - 1.0
        terms = bary / (sub[:, None] - x)
        rows.append((w * half) @ (terms / terms.sum(axis=1, keepdims=True)))
    return np.array(rows)


class _GridLimitError(ValueError):
    """A running grid would need more gaps than ``_MAX_GAPS``."""


# Gaps of one running grid.  An order-2 ladder at 32 nodes on a grid this
# size allocates at most about 120 MiB, nearly all of it arrays of one or two
# values per node; alpha2 = 1e3 on a six-year semiannual strip needs 6,012.
_MAX_GAPS = 16_384

# Elements of one block of ``_within``'s (gaps, n, n) product: 2 MiB.
_WITHIN_BLOCK = 2 ** 18


def _cuts(gaps: np.ndarray, span: float, rate: float) -> np.ndarray:
    """How many equal pieces each gap of [0, span] is cut into; refuses more
    than ``_MAX_GAPS`` in all."""
    pieces = np.ceil(rate * gaps).clip(1)
    if not pieces.sum() <= _MAX_GAPS:  # also refuses a NaN count
        raise _GridLimitError(
            f"decay rate {rate:.6g} over [0, {span:g}] needs "
            f"{pieces.sum():.6g} grid gaps, more than the {_MAX_GAPS} allowed"
        )
    return pieces.astype(int)


def _same_cuts(gaps: np.ndarray, pieces: np.ndarray) -> tuple[float, float]:
    """An open interval of rates that cut every gap into ``pieces``.

    A gap cut into k > 1 pieces keeps k for rates in ((k-1)/gap, k/gap],
    one cut into 1 for rates up to 1/gap.  The intersection is narrowed by
    1e-12 relative at each end, far more than the rounding of rate * gap
    and of the quotients, so any rate strictly inside it gets these cuts
    from ``_cuts``; at or past its ends the cuts must be counted.
    """
    lo = ((pieces - 1) / gaps).max(initial=0.0)
    hi = (pieces / gaps).min(initial=math.inf)
    return lo * (1.0 + 1e-12) if lo > 0.0 else -math.inf, hi * (1.0 - 1e-12)


class _RunningGrid:
    """Gauss-Legendre nodes (shape (gaps, n)) on every gap of [0, sorted points].

    Integrands, given at the nodes with any leading axes, are integrated from
    0 up to every point or up to every node; a value never depends on larger
    points.  Gaps longer than 1/rate, ``rate`` being the fastest decay among
    the integrands' kernels e^{-a (u-v)}, are cut into ceil(rate * gap) equal
    pieces, so within any gap a kernel, and the local weight of ``decayed``,
    never varies by more than a factor e.  ``lower`` holds each gap's lower
    end before the cut: the largest of 0 and the points below the gap.  A
    grid of more than ``_MAX_GAPS`` gaps is refused before anything is
    allocated.

    Besides the nodes and weights, a grid keeps every array that depends on
    nothing but the points, n and the cuts: ``times`` (the nodes, flattened,
    then the points), ``offsets`` (each node minus its gap's ``lower``), the
    half widths, and the uncut ``gaps`` with their ``pieces``; ``rates`` is
    an open interval of decay rates that give these cuts (``_same_cuts``).
    All of its arrays are read-only, so one grid serves any number of calls:
    it lives as long as ``_running_grid`` keeps handing it out, one grid per
    (points, n, cut counts).
    """

    def __init__(self, points, n: int, rate: float):
        breaks = np.unique(np.append(0.0, points))
        gaps = self.gaps = np.diff(breaks)
        self.span = float(breaks[-1])
        pieces = self.pieces = _cuts(gaps, self.span, rate)
        gap = np.repeat(np.arange(gaps.size), pieces)
        step = np.arange(gap.size) - np.searchsorted(gap, gap)
        self.lower = breaks[gap]
        breaks = np.append(self.lower + gaps[gap] * step / pieces[gap], breaks[-1])
        self.widths = np.diff(breaks)
        self.index = np.searchsorted(breaks, points)
        self.nodes, self.weights = gauss_legendre(breaks[:-1], breaks[1:], n)
        self.matrix = _running_matrix(n)
        self.times = np.concatenate((self.nodes.ravel(), np.ravel(points)))
        self.offsets = self.nodes - self.lower[:, None]
        self.half = 0.5 * self.widths[:, None]
        self.shifted = _leggauss(n)[0] + 1.0  # the nodes on [0, 2]
        self.rates = _same_cuts(gaps, pieces)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):  # a scalar point's index is a scalar
                value.flags.writeable = False

    def _before(self, f):
        # value at every break: 0, then the per-gap totals summed in order
        out = np.zeros(f.shape[:-2] + (self.widths.size + 1,))
        (self.weights * f).sum(axis=-1).cumsum(axis=-1, out=out[..., 1:])
        return out

    def at_points(self, f):
        """int_0^T f for every point T, in the points' shape."""
        return self._before(f)[..., self.index]

    def _within(self, f):
        # int from each gap's lower end to each of its nodes; elementwise
        # product and sum, not matmul, so a row's value cannot depend on how
        # many rows there are, and summed a block of gaps at a time, so the
        # (gaps, n, n) product never exceeds _WITHIN_BLOCK elements
        per_gap = math.prod(f.shape[:-2]) * f.shape[-1] * self.matrix.shape[0]
        rows = max(1, min(f.shape[-2], _WITHIN_BLOCK // max(per_gap, 1)))
        inside = np.empty(f.shape)
        for lo in range(0, f.shape[-2], rows):
            block = f[..., lo:lo + rows, None, :] * self.matrix
            block.sum(axis=-1, out=inside[..., lo:lo + rows, :])
        return self.half * inside

    def at_nodes(self, f):
        """int_0^u f for every node u; result shape f.shape."""
        return self._before(f)[..., :-1, None] + self._within(f)

    def decayed(self, f, a: float):
        """int_0^u e^{-a (u-v)} f(v) dv for a >= 0 and f of shape (gaps, n).

        Returns the values at every node and at every point.  The value is
        carried from gap to gap, B(hi) = e^{-a h} (B(lo) + int_lo^hi e^{a (v-lo)} f),
        with the weight e^{a (v-lo)} local to each gap, so nothing grows with u.
        """
        # offsets from each gap's lower end, not nodes - lo, whose rounding
        # at large u would be magnified by a
        local = np.exp(a * self.half * self.shifted)
        g = local * f
        carried = [0.0]
        for e, total in zip(np.exp(-a * self.widths).tolist(),
                            (self.weights * g).sum(axis=-1).tolist()):
            carried.append(e * (carried[-1] + total))
        at_breaks = np.array(carried)
        return (at_breaks[:-1, None] + self._within(g)) / local, at_breaks[self.index]


# The grid ``_running_grid`` built last, under its points' bytes and shape
# and n.  One entry, so it holds at most one grid, nearly all of it four
# arrays of one double per node: 16.4 MiB at the gap limit with 32 nodes,
# 4 KiB for a six-year semiannual strip at 8.
_grid_cache: dict = {}


def _running_grid(points: np.ndarray, n: int, rate: float) -> _RunningGrid:
    """The ``_RunningGrid`` of float array ``points``, n nodes and decay rate
    ``rate``, built once per (points, n, cut counts).

    A grid depends on the rate only through its cut counts, so every rate
    that cuts the gaps alike gets the same grid.  A rate strictly inside the
    cached grid's ``rates`` gets it without counting; at or past their ends
    (a NaN rate included) the grid is built afresh, which counts the cuts.  A
    grid of more than ``_MAX_GAPS`` gaps is refused before it is built.
    """
    key = (points.tobytes(), points.shape, n)
    grid = _grid_cache.get(key)
    if grid is None or not (grid.rates[0] < rate < grid.rates[1]
                            and grid.widths.size <= _MAX_GAPS):
        grid = _RunningGrid(points, n, rate)
        _grid_cache.clear()
        _grid_cache[key] = grid
    return grid


def panel_nodes(breaks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule applied per panel of a strictly increasing grid.

    Returns nodes and weights of shape (len(breaks)-1, n); summing
    ``f(nodes) * weights`` over both axes integrates f over
    [breaks[0], breaks[-1]] with panel boundaries at every grid point.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.ndim != 1 or breaks.size < 2:
        raise ValueError("panel grid needs at least two points")
    if np.any(np.diff(breaks) <= 0):
        raise ValueError("panel grid must be strictly increasing")
    return gauss_legendre(breaks[:-1], breaks[1:], n)
