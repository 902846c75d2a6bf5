"""Three-step market calibration.

Step 1 fits the rate factor (alpha1, beta1, sigma1) to discount-factor
pillars by unweighted least squares on the exact square-root bond formula;
the short rate r0 is observed, not fitted.  Step 2 replaces sigma1 with a
matched volatility sigma1_hat chosen so the expansion's own zero-coupon
price agrees with the exact one at the longest CDS tenor -- the expansion
then prices credit with sigma1_hat while the rate fit keeps sigma1.
Step 3 fits the intensity-factor parameters (alpha2, beta2, sigma2,
lambda0) and optionally the correlation rho to CDS quotes by weighted
least squares, pricing with the first-order expansion inside the loop and
re-pricing at second order for the reported fit.

Step 1 is a smooth least-squares problem (one residual per pillar, three
parameters) and runs on a private Levenberg-Marquardt solver; step 3 runs
on the simplex from :mod:`ssrd.simplex`.  Both are deterministic, and each
has a fixed budget of 4,000 iterations.  The rate fit refuses a
mean-reversion speed alpha1 above 50; a fit that ends on that bound is
reported unconverged.  The credit fit's bound is the pricing grid, which
refuses a trial point whose decay rate alpha1 + alpha2 it cannot cover.
Rates are fitted in log coordinates, and credit in the exp/tanh ones of
:class:`~ssrd.simplex.Transform`, so positivity and the correlation bound
hold; the Feller condition is kept by a soft penalty 10^6 * max(0,
sigma^2 - 2 alpha beta)^2 added to the objective (never to the reported
fit quality, which is always the bare weighted sum of squared quote
residuals).

Spread residuals are kept in decimal units throughout.  Quote weights
are chosen by scheme name (``uniform``, ``bidask``, ``invtenor``) and
normalized to sum to one, so objective values are comparable across
schemes.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cir import CirParams, _bond, cir_bond, feller_margin
from .expansion import ModelParams, proxy_bond_expansion
from .market import CdsQuoteSet, DiscountCurve, PricingConfig
from .pricing import _strip, spread_ladder
from .simplex import CalibrationResult, Transform, nelder_mead
from .timeint import _GridLimitError

__all__ = [
    "BootstrapAnomalyWarning",
    "CalibrationError",
    "MatchedVolatility",
    "PipelineResult",
    "assemble_model",
    "bootstrap_survival",
    "calibrate_cds",
    "calibrate_rates",
    "compute_weights",
    "match_volatility",
    "run_pipeline",
]

WEIGHT_SCHEMES = ("uniform", "bidask", "invtenor")

BOOTSTRAP_MODES = ("standard", "literal-paper")


class CalibrationError(ValueError):
    """A calibration step cannot run on the supplied inputs."""


class BootstrapAnomalyWarning(UserWarning):
    """The as-printed bootstrap recursion produced a rising survival curve."""


def _feller_penalty(alpha: float, beta: float, sigma: float) -> float:
    """Soft barrier keeping fits away from an attainable zero boundary."""
    return 1e6 * max(0.0, -feller_margin(alpha, beta, sigma)) ** 2


# --------------------------------------------------------------------------
# Quote weights


def compute_weights(scheme: str, quotes: CdsQuoteSet) -> tuple[float, ...]:
    """Quote weights summing to one: uniform, liquidity (inverse bid-ask
    width), or 1/tenor."""
    if scheme not in WEIGHT_SCHEMES:
        raise CalibrationError(f"unknown weight scheme {scheme!r}; choose from {WEIGHT_SCHEMES}")
    if scheme == "uniform":
        raw = [1.0] * len(quotes.tenors)
    elif scheme == "bidask":
        widths = [ask - bid for bid, ask in zip(quotes.bid_bps, quotes.ask_bps)]
        if any(w == 0.0 for w in widths):
            raise CalibrationError("bid-ask weights need bid != ask on every quote")
        raw = [1.0 / w for w in widths]
    else:
        raw = [1.0 / t for t in quotes.tenors]
    total = sum(raw)
    return tuple(w / total for w in raw)


# --------------------------------------------------------------------------
# Step 1: rate factor from discount factors


def _positive_pillars(curve: DiscountCurve) -> tuple[np.ndarray, np.ndarray]:
    tenors, dfs = curve.as_arrays()
    keep = tenors > 0.0
    return tenors[keep], dfs[keep]


def _rate_starts(tenors: np.ndarray, dfs: np.ndarray) -> list[np.ndarray]:
    """Starting points log(alpha1, beta1, sigma1) anchored at the long-end zero rate."""
    level = max(-math.log(dfs[-1]) / tenors[-1], 1e-4)
    grid = [
        (0.20, level, 0.05),
        (0.05, level, 0.02),
        (1.00, level, 0.10),
        (0.50, 2.0 * level, 0.05),
        (0.10, 0.5 * level, 0.01),
    ]
    return [np.array([math.log(v) for v in g]) for g in grid]


# Levenberg-Marquardt settings: initial damping relative to max diag(J'J),
# forward-difference step relative to |z|, the MINPACK-style stopping
# tolerance shared by the step and the relative-reduction tests, and the
# iteration budget.
_LM_TAU = 1e-3
_LM_FD_STEP = 1.49e-8
_LM_TOL = 1e-10
_LM_MAX_ITER = 4000

# Largest mean-reversion speed the rate fit tries.  A curve no square-root
# bond curve takes (a hump) otherwise drives alpha1 to 1e8 and beyond; fits
# to attainable curves stay below 1.
_ALPHA_MAX = 50.0


def _one_sided(r: np.ndarray) -> np.ndarray:
    """Residuals as they enter the sum of squares: the last one only when positive."""
    counted = r.copy()
    counted[-1] = max(0.0, r[-1])
    return counted


def _sum_sq(r: np.ndarray) -> float:
    counted = _one_sided(r)
    return float(counted @ counted)


def _levenberg_marquardt(z0: np.ndarray):
    """Minimize a sum of squares of residuals from ``z0`` by damped Gauss-Newton.

    A generator: it yields lists of points z and is sent back each point's
    residuals, or None where they cannot be had (see ``_lock_step``); it
    returns a ``CalibrationResult`` at a point z.  The last residual is a
    one-sided penalty: only its positive part enters the sum.  Each iteration solves
    (J'J + mu I) d = -J'r with a forward-difference Jacobian; mu
    follows Nielsen's update (Madsen, Nielsen & Tingleff 2004).
    Levenberg's mu I is used rather than Marquardt's diag(J'J), whose
    scaling lets a weakly identified volatility collapse to zero.  The
    penalty row joins the system where it is active or where the step
    without it would activate it, so the model of max(0, c) is max(0, c +
    J d) -- its one-sided slope alone makes the search crawl along the
    penalty's edge.  A trial point without residuals is rejected like any
    step that fails to reduce the sum; a difference point without them is
    replaced by a backward one, and an error is raised if that has none
    either.

    Convergence is declared on a zero gradient, on a step no larger than
    1e-10 relative to z, or when the actual and the predicted relative
    reductions are both at most 1e-10 (More 1978).  Exhausting the
    4,000-iteration budget returns the current point with
    ``converged=False``; no residuals at ``z0`` is an error.
    """
    n_eval = 0

    def jacobian(z: np.ndarray, r: np.ndarray):
        # every forward point in one request, then the backward ones needed
        nonlocal n_eval
        steps = [_LM_FD_STEP * max(abs(zj), 1.0) for zj in z.tolist()]
        points = []
        for j, h in enumerate(steps):
            zj = z.copy()
            zj[j] += h
            points.append(zj)
        rows = yield points
        n_eval += len(points)
        back = [j for j, rj in enumerate(rows) if rj is None]
        if back:  # past the edge of the finite region: step back
            points = []
            for j in back:
                steps[j] = -steps[j]
                zj = z.copy()
                zj[j] = z[j] + steps[j]
                points.append(zj)
            got = yield points
            n_eval += len(points)
            for j, rj in zip(back, got):
                if rj is None:
                    raise ValueError("residuals are not finite on either side of a "
                                     "difference step")
                rows[j] = rj
        jac = np.empty((r.size, z.size))
        for j, (h, rj) in enumerate(zip(steps, rows)):
            jac[:, j] = (rj - r) / h
        return jac

    def damped_step(jac: np.ndarray, r: np.ndarray, mu: float, active: bool) -> np.ndarray:
        if not active:
            jac, r = jac[:-1], r[:-1]
        normal = jac.T @ jac
        normal.flat[::normal.shape[0] + 1] += mu  # J'J + mu I
        return np.linalg.solve(normal, -(jac.T @ r))

    z = np.array(z0, dtype=float)
    (r,) = yield [z]
    n_eval += 1
    if r is None:
        raise ValueError("residuals are not finite at the initial point")
    ssr = _sum_sq(r)
    jac = yield from jacobian(z, r)
    rows = jac if r[-1] > 0.0 else jac[:-1]
    mu = _LM_TAU * float((rows * rows).sum(axis=0).max())
    nu = 2.0

    iterations = 0
    converged = not (jac.T @ _one_sided(r)).any()
    while not converged and iterations < _LM_MAX_ITER:
        iterations += 1
        step = damped_step(jac, r, mu, r[-1] > 0.0)
        if r[-1] <= 0.0 < r[-1] + jac[-1] @ step:
            step = damped_step(jac, r, mu, True)
        if np.linalg.norm(step) <= _LM_TOL * (np.linalg.norm(z) + _LM_TOL):
            converged = True
            break
        (r_new,) = yield [z + step]
        n_eval += 1
        if r_new is None:
            mu *= nu
            nu *= 2.0
            continue
        ssr_new = _sum_sq(r_new)
        predicted = ssr - _sum_sq(r + jac @ step)
        converged = abs(ssr - ssr_new) <= _LM_TOL * ssr and predicted <= _LM_TOL * ssr
        # At a rounding-level optimum the predicted reduction can round to <= 0.
        if ssr_new < ssr and predicted > 0.0:
            gain = (ssr - ssr_new) / predicted
            z, r, ssr = z + step, r_new, ssr_new
            jac = yield from jacobian(z, r)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            converged = converged or not (jac.T @ _one_sided(r)).any()
        else:
            mu *= nu
            nu *= 2.0

    return CalibrationResult(
        x=z,
        objective=ssr,
        iterations=iterations,
        n_eval=n_eval,
        converged=converged,
    )


def _lock_step(residuals, starts) -> list:
    """``_levenberg_marquardt`` from every start at once.

    In each round every running start asks for the residuals of its next
    points, and one ``residuals`` call takes all of them: a list of points,
    answered by one finite row each, or None for a point whose residuals
    cannot be had.  Each start sees the same answers, in the same order, as
    it would alone.  Returns each start's ``CalibrationResult``, or the
    ``ValueError`` that ended it.
    """
    fits = {i: _levenberg_marquardt(z0) for i, z0 in enumerate(starts)}
    outcomes: list = [None] * len(fits)
    replies = dict.fromkeys(fits)  # None starts a generator
    while fits:
        asks = {}
        for i, fit in list(fits.items()):
            try:
                asks[i] = fit.send(replies[i])
                continue
            except StopIteration as done:
                outcomes[i] = done.value
            except ValueError as exc:
                outcomes[i] = exc
            del fits[i]
        answers = iter(residuals([z for zs in asks.values() for z in zs]))
        replies = {i: [next(answers) for _ in zs] for i, zs in asks.items()}
    return outcomes


def _rate_residuals(tenors: np.ndarray, dfs: np.ndarray, r0: float):
    """The rate fit's residuals of a list of points z = log(alpha1, beta1,
    sigma1): ``cir_bond - dfs`` and the penalty 1e3 (sigma^2 - 2 alpha beta),
    one row per point, from one bond call for the points that pass a screen.
    A point maps back by ``math.exp`` per component, as ``Transform`` does,
    and gets None when that overflows, when alpha1 is not in (0, 50] (it
    can underflow to 0), or when its row is not finite."""

    def residuals(points: list[np.ndarray]) -> list[np.ndarray | None]:
        rows: list[np.ndarray | None] = [None] * len(points)
        keep, legs = [], []
        for k, z in enumerate(points):
            try:
                leg = tuple(map(math.exp, z.tolist()))
            except OverflowError:
                continue
            if 0.0 < leg[0] <= _ALPHA_MAX:
                keep.append(k)
                legs.append(leg)
        if legs:
            alpha, beta, sigma = np.array(legs).T.reshape(3, -1, 1)
            out = np.empty((len(legs), tenors.size + 1))
            out[:, :-1] = _bond(alpha, beta, sigma, r0, tenors) - dfs
            out[:, -1:] = -1e3 * feller_margin(alpha, beta, sigma)
            for k, row, finite in zip(keep, out, np.isfinite(out).all(axis=1).tolist()):
                if finite:
                    rows[k] = row
        return rows

    return residuals


def calibrate_rates(curve: DiscountCurve) -> CalibrationResult:
    """Fit (alpha1, beta1, sigma1) to discount pillars, r0 held at the observed value.

    Levenberg-Marquardt from five deterministic starting points, anchored
    at the long-end zero rate, on the unweighted discount-factor residuals;
    the Feller penalty enters as one more, one-sided residual 1e3 *
    (sigma^2 - 2 alpha beta), counted only when positive, so the sum of
    squares is the penalized objective.  Each start works in log
    coordinates and the best one is mapped back once.  The starts run in
    lock-step (``_lock_step``): one bond call prices the points every start
    asks for next, and each start ends exactly where it ends alone.  The
    best start is returned, with ``n_eval`` and ``iterations`` summed over
    all starts.  Fit quality -- not parameter identification -- is the
    contract; long-tenor curves carry little independent information about
    alpha1 vs sigma1.

    The residuals refuse alpha1 above 50, so the solver rejects such a
    trial point like any other that fails to reduce the sum.  A fit whose
    alpha1 ends within 1e-6 relative of that bound comes back with
    ``converged=False`` and one ``RuntimeWarning`` naming alpha1 and the
    bound: the curve asks for a faster mean reversion than the fit allows.
    """
    if curve.short_rate is None:
        raise CalibrationError("curve must carry the observed short rate r0")
    tenors, dfs = _positive_pillars(curve)
    if tenors.size < 3:
        raise CalibrationError(f"insufficient points: rate fit needs >= 3, got {tenors.size}")
    if np.max(np.abs(dfs - 1.0)) < 1e-12:
        warnings.warn(
            "discount curve is flat at 1.0; the rate fit is degenerate and "
            "parameters are reported at the search boundary",
            RuntimeWarning,
            stacklevel=2,
        )
    residuals = _rate_residuals(tenors, dfs, curve.short_rate)

    t_start = time.perf_counter()
    best: CalibrationResult | None = None
    failures: list[str] = []
    n_eval = iterations = 0
    for res in _lock_step(residuals, _rate_starts(tenors, dfs)):
        if isinstance(res, ValueError):
            failures.append(str(res))
            continue
        n_eval += res.n_eval
        iterations += res.iterations
        if best is None or res.objective < best.objective:
            best = res
    if best is None:
        raise CalibrationError("all starts failed: " + "; ".join(failures))
    errors = residuals([best.x])[0][:-1]
    best = replace(best, x=np.array([math.exp(v) for v in best.x.tolist()]))
    if best.x[0] >= _ALPHA_MAX * (1.0 - 1e-6):
        warnings.warn(
            f"rate fit ended on the mean-reversion bound: alpha1 = {best.x[0]:.10g}, "
            f"bound {_ALPHA_MAX:g}",
            RuntimeWarning,
            stacklevel=2,
        )
        best = replace(best, converged=False)

    return replace(
        best,
        objective=float(np.sum(errors**2)),
        residuals=tuple(float(e) for e in errors),
        iterations=iterations,
        n_eval=n_eval,
        elapsed=time.perf_counter() - t_start,
    )


# --------------------------------------------------------------------------
# Step 2: matched volatility


@dataclass(frozen=True)
class MatchedVolatility:
    """Replacement rate volatility for the expansion pricer.

    ``branch`` records how the match was obtained: ``quadratic-root`` when
    the second-order bond polynomial has a usable nonnegative root in
    sigma1_hat^2 (then ``residual`` is at rounding level), or
    ``minimizer-fallback`` when it does not and the mismatch was minimized
    over sigma1_hat in [0, 5 sigma1] instead.
    """

    sigma1_hat: float
    branch: str
    residual: float


def match_volatility(rate: CirParams, r0: float, t_max: float) -> MatchedVolatility:
    """Pick sigma1_hat so the expansion's own bond price at t_max is exact.

    The expansion bond is polynomial in sigma1_hat^2 through second order,
    P ~ p0 + a s + b s^2 with s = sigma1_hat^2, so matching the exact bond
    price is a quadratic root problem.  The smaller nonnegative real root
    is taken when it exists and actually closes the gap; otherwise the
    absolute mismatch is minimized over sigma1_hat in [0, 5 sigma1], which
    always produces a value.  With no root in reach the mismatch keeps one
    sign, so its smallest size sits at an end of the range or at the
    polynomial's vertex.
    """
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise CalibrationError(f"matching horizon must be positive and finite, got {t_max}")
    leg = CirParams(rate.alpha, rate.beta, rate.sigma, r0)
    target = float(cir_bond(leg, 0.0, t_max))
    p0_arr, lin, quad = proxy_bond_expansion(rate.alpha, rate.beta, r0, t_max)
    p0 = float(p0_arr)
    a = p0 * float(lin)
    b = p0 * float(quad)
    c = p0 - target

    def expanded(s: float) -> float:
        return p0 + a * s + b * s * s

    roots: list[float] = []
    if b != 0.0:
        disc = a * a - 4.0 * b * c
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots = [(-a - sq) / (2.0 * b), (-a + sq) / (2.0 * b)]
    elif a != 0.0:
        roots = [-c / a]
    candidates = sorted(s for s in roots if s > -1e-13)
    if candidates:
        s_star = max(candidates[0], 0.0)
        residual = abs(target - expanded(s_star))
        if residual < 1e-10:
            return MatchedVolatility(
                sigma1_hat=math.sqrt(s_star), branch="quadratic-root", residual=residual
            )

    s_hi = 25.0 * rate.sigma * rate.sigma
    trial = [0.0, s_hi]
    if b != 0.0:
        trial.append(min(max(-a / (2.0 * b), 0.0), s_hi))
    s_best = min(trial, key=lambda s: abs(target - expanded(s)))
    return MatchedVolatility(
        sigma1_hat=math.sqrt(s_best), branch="minimizer-fallback",
        residual=abs(target - expanded(s_best)),
    )


# --------------------------------------------------------------------------
# Step 3: intensity factor and correlation from CDS quotes


def assemble_model(
    rate: CirParams, sigma1_hat: float | None, credit: np.ndarray, correlated: bool
) -> ModelParams:
    """Combine the three calibration outputs into pricing parameters."""
    rho = float(credit[4]) if correlated else 0.0
    return ModelParams(
        alpha1=rate.alpha,
        beta1=rate.beta,
        sigma1=rate.sigma,
        r0=rate.x0,
        alpha2=float(credit[0]),
        beta2=float(credit[1]),
        sigma2=float(credit[2]),
        lambda0=float(credit[3]),
        rho=rho,
        sigma1_hat=sigma1_hat,
    )


def _quote_schedules(quotes: CdsQuoteSet, config: PricingConfig):
    """Union coupon grid and per-quote prefix lengths for the ladder pricer."""
    valuation = config.valuation if config.valuation is not None else quotes.valuation
    strip = _strip(valuation, quotes.tenors, config)
    if strip is None:
        raise CalibrationError(
            "quote schedules do not share a coupon grid; align tenors to the roll cycle"
        )
    return strip


def calibrate_cds(
    quotes: CdsQuoteSet,
    rate: CirParams,
    sigma1_hat: float,
    config: PricingConfig,
    *,
    weights: str = "bidask",
    correlated: bool = True,
    initial: np.ndarray | None = None,
) -> CalibrationResult:
    """Fit (alpha2, beta2, sigma2, lambda0[, rho]) to mid quotes.

    The search prices with the first-order expansion (one ladder evaluation
    per objective call); the returned objective and residuals are re-priced
    at the order in ``config`` (second by default), so the reported fit is
    what a final repricing would see.  ``weights`` names the scheme of
    :func:`compute_weights`.  ``correlated=False`` pins rho = 0 and fits
    four parameters.  A trial point whose pricing grid would be too large
    counts as an infinite objective; such a start point, or one whose
    objective is not finite, is a :class:`CalibrationError`.
    """
    weight_arr = np.array(compute_weights(weights, quotes))
    n_free = 5 if correlated else 4
    if len(quotes.tenors) < n_free:
        warnings.warn(
            f"quotes < parameters ({len(quotes.tenors)} < {n_free}); "
            "the fit is under-determined",
            RuntimeWarning,
            stacklevel=2,
        )

    union, ends = _quote_schedules(quotes, config)
    targets = np.array(quotes.mid_bps, dtype=float) / 1e4
    lgd = 1.0 - config.recovery
    loop_config = replace(config, order=1)

    def spreads_at(credit: np.ndarray, cfg: PricingConfig) -> np.ndarray:
        model = assemble_model(rate, sigma1_hat, credit, correlated)
        return spread_ladder(model, union, ends, cfg)

    def loss(p: np.ndarray) -> float:
        resid = spreads_at(p, loop_config) - targets
        return float((weight_arr * resid**2).sum()) + _feller_penalty(p[0], p[1], p[2])

    def objective(p: np.ndarray) -> float:
        try:
            return loss(p)
        except _GridLimitError:  # a trial point the pricing grid refuses
            return math.inf

    if initial is None:
        h_short = float(targets[0]) / lgd
        h_long = float(targets[-1]) / lgd
        initial = np.array([0.5, h_long, math.sqrt(h_long), h_short, 0.0])
    initial = np.asarray(initial, dtype=float)
    kinds = ("positive", "positive", "positive", "positive", "correlation")
    if not correlated:
        initial = initial[:4]
        kinds = kinds[:4]

    try:
        with np.errstate(all="ignore"):  # judged below, not warned about
            start = loss(initial)
    except _GridLimitError as exc:
        raise CalibrationError(
            f"credit fit cannot start: the pricing grid refuses its decay rate "
            f"alpha1 + alpha2 ({exc})"
        ) from None
    if not math.isfinite(start):
        raise CalibrationError(
            f"credit fit cannot start: its objective at the start point is {start}"
        )

    t_start = time.perf_counter()
    res = nelder_mead(objective, initial, Transform(kinds))

    residuals = spreads_at(res.x, config) - targets
    return replace(
        res,
        objective=float(np.sum(weight_arr * residuals**2)),
        residuals=tuple(float(r) for r in residuals),
        elapsed=time.perf_counter() - t_start,
    )


# --------------------------------------------------------------------------
# Market-implied survival bootstrap


def bootstrap_survival(
    quotes: CdsQuoteSet, recovery: float, mode: str = "standard"
) -> np.ndarray:
    """Survival probabilities implied quote-by-quote, no model attached.

    The per-period balance between premium and protection gives a one-step
    recursion from Q_{j-1} to Q_j.  ``standard`` mode puts the protection
    payment on the survival decrement, so positive spreads force the curve
    downward; ``literal-paper`` mode keeps the sign the source equation
    prints (protection on Q_j - Q_{j-1}), which makes the curve rise for
    positive spreads -- each such step is flagged with
    :class:`BootstrapAnomalyWarning` rather than silently accepted.  Both
    modes ignore discounting, as the source recursion does.
    """
    if mode not in BOOTSTRAP_MODES:
        raise CalibrationError(f"unknown bootstrap mode {mode!r}; choose from {BOOTSTRAP_MODES}")
    if not (0.0 <= recovery < 1.0):
        raise CalibrationError(f"recovery must be < 1 and >= 0, got {recovery}")
    lgd = 1.0 - recovery
    out = np.empty(len(quotes.tenors))
    q_prev = 1.0
    t_prev = 0.0
    for j, (tenor, mid) in enumerate(zip(quotes.tenors, quotes.mid_bps)):
        premium = (mid / 1e4) * (tenor - t_prev)
        if premium >= lgd:
            raise CalibrationError(
                f"unsolvable period at tenor {tenor}: spread x accrual {premium:.6f} "
                f">= loss given default {lgd:.6f}"
            )
        if mode == "standard":
            q = lgd * q_prev / (lgd + premium)
        else:
            q = lgd * q_prev / (lgd - premium)
            if q > q_prev + 1e-15:
                warnings.warn(
                    f"as-printed recursion raises survival at tenor {tenor} "
                    f"({q_prev:.6f} -> {q:.6f})",
                    BootstrapAnomalyWarning,
                    stacklevel=2,
                )
        out[j] = q
        q_prev, t_prev = q, tenor
    return out


# --------------------------------------------------------------------------
# Full pipeline


@dataclass(frozen=True)
class PipelineResult:
    """Everything the three steps produce, plus a final repriced curve.

    ``timings`` holds the seconds each stage took, in order: ``rates``,
    ``vol``, ``credit`` and ``reprice``.
    """

    rates: CalibrationResult
    vol: MatchedVolatility
    credit: CalibrationResult
    model: ModelParams
    repriced: tuple[tuple[float, float], ...]
    timings: tuple[tuple[str, float], ...]


def run_pipeline(
    curve: DiscountCurve,
    quotes: CdsQuoteSet,
    config: PricingConfig,
    *,
    weights: str = "bidask",
    correlated: bool = True,
    credit_initial: np.ndarray | None = None,
) -> PipelineResult:
    """Run all three calibration steps and reprice the quote tenors."""
    rates = calibrate_rates(curve)
    rate = CirParams(float(rates.x[0]), float(rates.x[1]), float(rates.x[2]), curve.short_rate)
    t_vol = time.perf_counter()
    vol = match_volatility(rate, rate.x0, float(max(quotes.tenors)))
    vol_elapsed = time.perf_counter() - t_vol
    credit = calibrate_cds(
        quotes,
        rate,
        vol.sigma1_hat,
        config,
        weights=weights,
        correlated=correlated,
        initial=credit_initial,
    )
    model = assemble_model(rate, vol.sigma1_hat, credit.x, correlated)
    t_reprice = time.perf_counter()
    union, ends = _quote_schedules(quotes, config)
    spreads = spread_ladder(model, union, ends, config)
    repriced = tuple((float(T), float(s)) for T, s in zip(quotes.tenors, spreads))
    timings = (("rates", rates.elapsed), ("vol", vol_elapsed), ("credit", credit.elapsed),
               ("reprice", time.perf_counter() - t_reprice))
    return PipelineResult(rates=rates, vol=vol, credit=credit, model=model, repriced=repriced,
                          timings=timings)
