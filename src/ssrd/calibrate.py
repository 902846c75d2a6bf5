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

All minimizations run on the deterministic simplex from
:mod:`ssrd.simplex`; positivity and the correlation bound are enforced by
the exp/tanh transforms, and the Feller condition by a soft penalty
10^6 * max(0, sigma^2 - 2 alpha beta)^2 added to the objective (never to
the reported fit quality, which is always the bare weighted sum of
squared quote residuals).

Spread residuals are kept in decimal units throughout; weights are
normalized to sum to one, so objective values are comparable across
weighting schemes.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cir import CirParams, cir_bond
from .expansion import ModelParams, proxy_bond_expansion
from .market import CdsQuoteSet, DiscountCurve, PricingConfig, build_schedule
from .pricing import spread_ladder
from .simplex import CalibrationResult, Transform, nelder_mead

__all__ = [
    "BootstrapAnomalyWarning",
    "CalibrationError",
    "MatchedVolatility",
    "PipelineResult",
    "WeightVector",
    "assemble_model",
    "bootstrap_survival",
    "calibrate_cds",
    "calibrate_rates",
    "compute_weights",
    "feller_penalty",
    "match_volatility",
    "run_pipeline",
]

WEIGHT_SCHEMES = ("uniform", "bidask", "invtenor")

BOOTSTRAP_MODES = ("standard", "literal-paper")


class CalibrationError(ValueError):
    """A calibration step cannot run on the supplied inputs."""


class BootstrapAnomalyWarning(UserWarning):
    """The as-printed bootstrap recursion produced a rising survival curve."""


def feller_penalty(alpha: float, beta: float, sigma: float) -> float:
    """Soft barrier keeping fits away from an attainable zero boundary."""
    return 1e6 * max(0.0, sigma * sigma - 2.0 * alpha * beta) ** 2


# --------------------------------------------------------------------------
# Quote weights


@dataclass(frozen=True)
class WeightVector:
    """Normalized nonnegative weights, one per quote."""

    weights: tuple[float, ...]
    scheme: str = "uniform"

    def __post_init__(self):
        if not self.weights:
            raise CalibrationError("weight vector is empty")
        if any(w < 0.0 or not math.isfinite(w) for w in self.weights):
            raise CalibrationError("weights must be finite and nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise CalibrationError("weights must sum to 1")


def compute_weights(scheme: str, quotes: CdsQuoteSet) -> WeightVector:
    """Quote weights: uniform, liquidity (inverse bid-ask width), or 1/tenor."""
    if scheme not in WEIGHT_SCHEMES:
        raise CalibrationError(f"unknown weight scheme {scheme!r}; choose from {WEIGHT_SCHEMES}")
    if scheme == "uniform":
        raw = [1.0] * len(quotes.tenors)
    elif scheme == "bidask":
        widths = [a - b for a, b in zip(quotes.bid_bps, quotes.ask_bps)]
        if any(w == 0.0 for w in widths):
            raise CalibrationError("bid-ask weights need bid != ask on every quote")
        raw = [1.0 / abs(w) for w in widths]
    else:
        raw = [1.0 / t for t in quotes.tenors]
    total = sum(raw)
    return WeightVector(weights=tuple(w / total for w in raw), scheme=scheme)


# --------------------------------------------------------------------------
# Step 1: rate factor from discount factors


def _positive_pillars(curve: DiscountCurve) -> tuple[np.ndarray, np.ndarray]:
    tenors, dfs = curve.as_arrays()
    keep = tenors > 0.0
    return tenors[keep], dfs[keep]


def _rate_starts(tenors: np.ndarray, dfs: np.ndarray, n_starts: int) -> list[np.ndarray]:
    """Log-space grid of starting points anchored at the long-end zero rate."""
    level = max(-math.log(dfs[-1]) / tenors[-1], 1e-4)
    grid = [
        (0.20, level, 0.05),
        (0.05, level, 0.02),
        (1.00, level, 0.10),
        (0.50, 2.0 * level, 0.05),
        (0.10, 0.5 * level, 0.01),
        (2.00, level, 0.20),
        (0.02, level, 0.005),
    ]
    return [np.array(g) for g in grid[:n_starts]]


def calibrate_rates(
    curve: DiscountCurve,
    initial: np.ndarray | None = None,
    *,
    n_starts: int = 5,
    max_iter: int = 4000,
) -> CalibrationResult:
    """Fit (alpha1, beta1, sigma1) to discount pillars, r0 held at the observed value.

    Multi-start simplex (best of ``n_starts`` deterministic starting points,
    plus ``initial`` when given) on the unweighted sum of squared
    discount-factor errors.  The objective spread tolerance is disabled
    here: discount errors are tiny in absolute terms and would otherwise
    stop the search long before the simplex collapses.  Fit quality -- not
    parameter identification -- is the contract; long-tenor curves carry
    little independent information about alpha1 vs sigma1.
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
    r0 = curve.short_rate

    def objective(p: np.ndarray) -> float:
        alpha, beta, sigma = p
        model = cir_bond(CirParams(alpha, beta, sigma, r0), 0.0, tenors)
        return float(np.sum((model - dfs) ** 2)) + feller_penalty(alpha, beta, sigma)

    t_start = time.perf_counter()
    starts = _rate_starts(tenors, dfs, n_starts)
    if initial is not None:
        starts.insert(0, np.asarray(initial, dtype=float))
    best: CalibrationResult | None = None
    failures: list[str] = []
    for s in starts:
        try:
            res = nelder_mead(
                objective,
                s,
                Transform(("positive", "positive", "positive")),
                fspread_tol=0.0,
                max_iter=max_iter,
            )
        except ValueError as exc:
            failures.append(str(exc))
            continue
        if best is None or res.objective < best.objective:
            best = res
    if best is None:
        raise CalibrationError("all starts failed: " + "; ".join(failures))

    alpha, beta, sigma = best.x
    residuals = cir_bond(CirParams(alpha, beta, sigma, r0), 0.0, tenors) - dfs
    return replace(
        best,
        objective=float(np.sum(residuals**2)),
        residuals=tuple(float(r) for r in residuals),
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
    schedules = [build_schedule(valuation, float(T), config) for T in quotes.tenors]
    union = max(schedules, key=lambda s: len(s.times))
    if not all(s.is_prefix_of(union) for s in schedules):
        raise CalibrationError(
            "quote schedules do not share a coupon grid; align tenors to the roll cycle"
        )
    return union, [len(s.times) for s in schedules]


def calibrate_cds(
    quotes: CdsQuoteSet,
    rate: CirParams,
    sigma1_hat: float,
    config: PricingConfig,
    *,
    weights: str | WeightVector = "bidask",
    correlated: bool = True,
    initial: np.ndarray | None = None,
    max_iter: int = 4000,
) -> CalibrationResult:
    """Fit (alpha2, beta2, sigma2, lambda0[, rho]) to mid quotes.

    The search prices with the first-order expansion (one ladder evaluation
    per objective call); the returned objective and residuals are re-priced
    at the order in ``config`` (second by default), so the reported fit is
    what a final repricing would see.  ``correlated=False`` pins rho = 0
    and fits four parameters.
    """
    w = compute_weights(weights, quotes) if isinstance(weights, str) else weights
    if len(w.weights) != len(quotes.tenors):
        raise CalibrationError("one weight per quote required")
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
    weight_arr = np.array(w.weights)
    lgd = 1.0 - config.recovery
    loop_config = config.with_overrides(order=1)

    def spreads_at(credit: np.ndarray, cfg: PricingConfig) -> np.ndarray:
        model = assemble_model(rate, sigma1_hat, credit, correlated)
        return spread_ladder(model, union, ends, cfg)

    def objective(p: np.ndarray) -> float:
        credit = np.append(p, 0.0) if not correlated else p
        resid = spreads_at(credit, loop_config) - targets
        return float(np.sum(weight_arr * resid**2)) + feller_penalty(p[0], p[1], p[2])

    if initial is None:
        h_short = float(targets[0]) / lgd
        h_long = float(targets[-1]) / lgd
        initial = np.array([0.5, h_long, math.sqrt(h_long), h_short, 0.0])
    initial = np.asarray(initial, dtype=float)
    kinds = ("positive", "positive", "positive", "positive", "correlation")
    if not correlated:
        initial = initial[:4]
        kinds = kinds[:4]

    t_start = time.perf_counter()
    res = nelder_mead(objective, initial, Transform(kinds), max_iter=max_iter)

    credit = np.append(res.x, 0.0) if not correlated else res.x
    residuals = spreads_at(credit, config) - targets
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
    """Everything the three steps produce, plus a final repriced curve."""

    rates: CalibrationResult
    vol: MatchedVolatility
    credit: CalibrationResult
    model: ModelParams
    repriced: tuple[tuple[float, float], ...]


def run_pipeline(
    curve: DiscountCurve,
    quotes: CdsQuoteSet,
    config: PricingConfig,
    *,
    weights: str | WeightVector = "bidask",
    correlated: bool = True,
    rate_initial: np.ndarray | None = None,
    credit_initial: np.ndarray | None = None,
) -> PipelineResult:
    """Run all three calibration steps and reprice the quote tenors."""
    rates = calibrate_rates(curve, rate_initial)
    rate = CirParams(float(rates.x[0]), float(rates.x[1]), float(rates.x[2]), curve.short_rate)
    vol = match_volatility(rate, rate.x0, float(max(quotes.tenors)))
    credit = calibrate_cds(
        quotes,
        rate,
        vol.sigma1_hat,
        config,
        weights=weights,
        correlated=correlated,
        initial=credit_initial,
    )
    xi = np.append(credit.x, 0.0) if not correlated else credit.x
    model = assemble_model(rate, vol.sigma1_hat, xi, correlated)
    union, ends = _quote_schedules(quotes, config)
    spreads = spread_ladder(model, union, ends, config)
    repriced = tuple((float(T), float(s)) for T, s in zip(quotes.tenors, spreads))
    return PipelineResult(rates=rates, vol=vol, credit=credit, model=model, repriced=repriced)
