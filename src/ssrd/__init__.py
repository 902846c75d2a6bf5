"""Correlated two-factor square-root credit model: asymptotic CDS pricing,
market calibration, and Monte Carlo cross-checks."""

from .calibrate import (
    BootstrapAnomalyWarning,
    CalibrationError,
    MatchedVolatility,
    PipelineResult,
    bootstrap_survival,
    calibrate_cds,
    calibrate_rates,
    compute_weights,
    match_volatility,
    run_pipeline,
)
from .cir import CirParams, cir_bond, cir_bond_dT
from .expansion import ExpansionTerms, ModelParams, expansion_terms, survival_approx
from .market import (
    CdsQuoteSet,
    DiscountCurve,
    MarketDataError,
    PricingConfig,
    Schedule,
    build_schedule,
    load_cds_quotes,
    load_discount_curve,
    load_pricing_config,
)
from .mc import McConfig, mc_estimate
from .pricing import spread_curve, uncorrelated_spread
from .simplex import CalibrationResult

__version__ = "0.1.0"

__all__ = [
    "BootstrapAnomalyWarning",
    "CalibrationError",
    "CalibrationResult",
    "CdsQuoteSet",
    "CirParams",
    "DiscountCurve",
    "ExpansionTerms",
    "MarketDataError",
    "MatchedVolatility",
    "McConfig",
    "ModelParams",
    "PipelineResult",
    "PricingConfig",
    "Schedule",
    "bootstrap_survival",
    "build_schedule",
    "calibrate_cds",
    "calibrate_rates",
    "cir_bond",
    "cir_bond_dT",
    "compute_weights",
    "expansion_terms",
    "load_cds_quotes",
    "load_discount_curve",
    "load_pricing_config",
    "match_volatility",
    "mc_estimate",
    "run_pipeline",
    "spread_curve",
    "survival_approx",
    "uncorrelated_spread",
    "__version__",
]
