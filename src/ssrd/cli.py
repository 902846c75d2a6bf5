"""Batch command line: calibration steps, pricing, survival, MC checks.

Every subcommand reads CSV/key=value inputs, runs the corresponding
library operations, prints an aligned report table to stdout, and -- when
``--out DIR`` is given -- writes the same report as ``<command>.txt``,
``.csv``, and ``.json`` alongside each other.  Exit status: 0 on success,
2 on any input problem (missing or unreadable file, an ``--out`` that
is not a directory, schema violation, bad flag combination, a model too
fast-reverting for the pricing grid), 3 when a
calibration ran but did not converge.  Any other exception is an
internal fault and propagates.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import fields as dc_fields, replace

import numpy as np

from .calibrate import (
    BOOTSTRAP_MODES,
    CalibrationError,
    WEIGHT_SCHEMES,
    bootstrap_survival,
    calibrate_rates,
    match_volatility,
    run_pipeline,
)
from .cir import CirParams, cir_bond
from .expansion import ModelParams, expansion_terms, survival_approx
from .market import (
    MarketDataError,
    PricingConfig,
    _read_key_values,
    load_cds_quotes,
    load_discount_curve,
    load_pricing_config,
)
from .mc import McConfig, mc_estimate
from .pricing import spread_curve
from .report import CalibrationReport, fmt_bps, fmt_param, fmt_prob, relative_error_pct
from .timeint import _GridLimitError

__all__ = ["main"]

_PARAM_KEYS = (
    "alpha1", "beta1", "sigma1", "r0",
    "alpha2", "beta2", "sigma2", "lambda0", "rho",
)


# Euler steps mc-check simulates on its longest tenor at most
_MAX_MC_STEPS = 1_000_000

# Paths mc-check simulates at most, 500 times the default: the simulation
# seeds every block of paths before its first step, 3,052 blocks here
_MAX_MC_PATHS = 100_000_000

# Paths times Euler steps mc-check simulates at most, 100 times the default
# run (200,000 paths over 500 steps to 5y); the two bounds above let 10^14 through
_MAX_MC_PATH_STEPS = 10 ** 10


class _InputError(Exception):
    """Anything that should end the process with exit status 2."""


def _require(value, flag: str):
    if value is None:
        raise _InputError(f"{flag} is required for this command")
    return value


def _load_params(path: str) -> ModelParams:
    """Model parameters from a flat key=value file (sigma1_hat optional)."""
    kw: dict[str, float] = {}
    for key, val in _read_key_values(path, "params", _PARAM_KEYS + ("sigma1_hat",)).items():
        try:
            kw[key] = float(val)
        except ValueError:
            raise _InputError(f"params {path}: bad value for {key}") from None
    missing = [k for k in _PARAM_KEYS if k not in kw]
    if missing:
        raise _InputError(f"params {path}: missing keys {', '.join(missing)}")
    try:
        return ModelParams(**kw)
    except ValueError as exc:
        raise _InputError(f"params {path}: {exc}") from None


def _parse_tenors(text: str) -> tuple[float, ...]:
    try:
        tenors = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise _InputError(f"bad tenor list {text!r}") from None
    if not tenors:
        raise _InputError("tenor list is empty")
    for t in tenors:
        if not (t > 0.0 and math.isfinite(t)):
            raise _InputError(f"tenors must be positive and finite, got {t:g}")
    return tenors


def _effective_config(args) -> PricingConfig:
    config = load_pricing_config(args.config) if args.config else PricingConfig()
    if getattr(args, "order", None) is not None:
        config = replace(config, order=args.order)
    return config


def _config_echo(config: PricingConfig, **extra) -> tuple[tuple[str, str], ...]:
    pairs = [(f.name, str(getattr(config, f.name))) for f in dc_fields(config)]
    pairs.extend((k, str(v)) for k, v in extra.items())
    return tuple(pairs)


def _timing(seconds: float) -> str:
    return f"{seconds:.3f}"


def _recorded(run):
    """``run()`` with every warning it raises recorded instead of printed: its
    result and the warnings' messages, each once, for the report's notes.  A
    ``run()`` that raises leaves no report, so its messages go to stderr as
    notes before the exception goes on."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run()
    except Exception:
        for note in dict.fromkeys(str(w.message) for w in caught):
            print(f"note: {note}", file=sys.stderr)
        raise
    return result, tuple(dict.fromkeys(str(w.message) for w in caught))


def _emit(report: CalibrationReport, out_dir: str | None) -> None:
    text = report.text()
    sys.stdout.write(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, report.command)
        for ext, payload in ((".txt", text), (".csv", report.csv()), (".json", report.json())):
            with open(base + ext, "w", encoding="utf-8") as fh:
                fh.write(payload)


def _param_block(params, keys=_PARAM_KEYS) -> tuple[tuple[str, str], ...]:
    """The named parameters of ``params``, formatted for a report."""
    return tuple((k, fmt_param(getattr(params, k))) for k in keys)


def _rate_block(rate: CirParams) -> tuple[tuple[str, str], ...]:
    """The fitted rate factor as every calibration report names it."""
    values = (rate.alpha, rate.beta, rate.sigma, rate.x0)
    return tuple((k, fmt_param(v)) for k, v in zip(_PARAM_KEYS[:4], values))


# --------------------------------------------------------------------------
# Subcommands: each returns its report and exit status; ``main`` emits it.


def _cmd_rates(args) -> tuple[CalibrationReport, int]:
    """calibrate-rates reprices the curve pillars, match-vol matches sigma1."""
    curve = load_discount_curve(_require(args.curve, "--curve"))
    matching = args.command == "match-vol"
    if matching:  # the horizon is checked before the fit runs
        if args.tmax is not None:
            t_max = args.tmax
        elif args.quotes:
            t_max = max(load_cds_quotes(args.quotes).tenors)
        else:
            raise _InputError("need --tmax or --quotes to set the matching horizon")
        if not (t_max > 0.0 and math.isfinite(t_max)):
            raise _InputError(f"matching horizon must be positive and finite, got {t_max}")
    res, notes = _recorded(lambda: calibrate_rates(curve))
    fit = CirParams(float(res.x[0]), float(res.x[1]), float(res.x[2]), curve.short_rate)
    headers, rows = (), []
    if matching:
        mv = match_volatility(fit, fit.x0, t_max)
        block = (
            ("sigma1_hat", fmt_param(mv.sigma1_hat)),
            ("branch", mv.branch),
            ("residual", f"{mv.residual:.3e}"),
            ("t_max", f"{t_max:g}"),
        )
    else:
        headers = ("tenor", "market_df", "model_df", "rel_error_pct")
        for T, df in zip(curve.tenors, curve.dfs):
            if T > 0.0:
                model = float(cir_bond(fit, 0.0, T))
                rows.append((f"{T:g}", f"{df:.8f}", f"{model:.8f}", relative_error_pct(model, df)))
        block = (
            ("objective", f"{res.objective:.6e}"),
            ("iterations", str(res.iterations)),
            ("converged", str(res.converged).lower()),
        )
    report = CalibrationReport(
        command=args.command,
        headers=headers,
        rows=tuple(rows),
        params=_rate_block(fit) + block,
        timings=(("rates", _timing(res.elapsed)),),
        config_echo=(("curve", args.curve),),
        notes=notes,
    )
    return report, 0 if res.converged else 3


def _cmd_pipeline(args) -> tuple[CalibrationReport, int]:
    """calibrate-cds; full-pipeline adds market and model survival columns."""
    curve = load_discount_curve(_require(args.curve, "--curve"))
    quotes = load_cds_quotes(_require(args.quotes, "--quotes"))
    config = _effective_config(args)
    correlated = args.correlated != "no"
    result, notes = _recorded(lambda: run_pipeline(
        curve, quotes, config, weights=args.weights, correlated=correlated
    ))
    model_spreads = [s for _, s in result.repriced]
    headers = ("tenor", "market_bps", "model_bps", "rel_error_pct")
    rows = tuple(
        (f"{T:g}", f"{mkt:.3f}", fmt_bps(mod), relative_error_pct(1e4 * mod, mkt))
        for T, mkt, mod in zip(quotes.tenors, quotes.mid_bps, model_spreads)
    )
    m = result.model
    if args.command == "full-pipeline":
        q_market = bootstrap_survival(quotes, config.recovery, mode="standard")
        q_model = survival_approx(m.intensity_leg(), np.asarray(quotes.tenors), order=config.order)
        headers += ("survival_market", "survival_model")
        rows = tuple(
            row + (fmt_prob(qm), fmt_prob(qe))
            for row, qm, qe in zip(rows, q_market, np.atleast_1d(q_model))
        )
    worst = max(
        abs(1e4 * mod - mkt) for mod, mkt in zip(model_spreads, quotes.mid_bps)
    )
    converged = result.rates.converged and result.credit.converged
    report = CalibrationReport(
        command=args.command,
        headers=headers,
        rows=rows,
        params=_rate_block(m.rate_leg()) + (
            ("sigma1_hat", fmt_param(m.sigma1_hat)),
            ("vol_branch", result.vol.branch),
        ) + _param_block(m, _PARAM_KEYS[4:]) + (
            ("objective", f"{result.credit.objective:.6e}"),
            ("iterations", str(result.credit.iterations)),
            ("converged", str(converged).lower()),
            ("max_abs_error_bps", f"{worst:.3f}"),
        ),
        timings=tuple((stage, _timing(seconds)) for stage, seconds in result.timings),
        config_echo=_config_echo(
            config, weights=args.weights, correlated=correlated,
            curve=args.curve, quotes=args.quotes,
        ),
        notes=notes,
    )
    return report, 0 if converged else 3


def _cmd_price(args) -> tuple[CalibrationReport, int]:
    params = _load_params(_require(args.params, "--params"))
    tenors = _parse_tenors(_require(args.tenors, "--tenors"))
    config = _effective_config(args)
    curve = spread_curve(params, tenors, config)
    rows = tuple((f"{T:g}", fmt_bps(s)) for T, s in curve)
    report = CalibrationReport(
        command="price",
        headers=("tenor", "spread_bps"),
        rows=rows,
        params=_param_block(params),
        config_echo=_config_echo(config, params=args.params),
    )
    return report, 0


def _cmd_survival(args) -> tuple[CalibrationReport, int]:
    params = _load_params(_require(args.params, "--params"))
    tenors = _parse_tenors(_require(args.tenors, "--tenors"))
    config = _effective_config(args)
    q = np.atleast_1d(survival_approx(params.intensity_leg(), np.asarray(tenors),
                                      order=config.order))
    rows = tuple((f"{T:g}", fmt_prob(v)) for T, v in zip(tenors, q))
    report = CalibrationReport(
        command="survival",
        headers=("tenor", "survival"),
        rows=rows,
        params=_param_block(params, _PARAM_KEYS[4:8]) + (("order", str(config.order)),),
        config_echo=_config_echo(config, params=args.params),
    )
    return report, 0


def _cmd_bootstrap(args) -> tuple[CalibrationReport, int]:
    quotes = load_cds_quotes(_require(args.quotes, "--quotes"))
    config = _effective_config(args)
    q, notes = _recorded(lambda: bootstrap_survival(quotes, config.recovery, mode=args.mode))
    rows = tuple(
        (f"{T:g}", f"{mid:.3f}", fmt_prob(v))
        for T, mid, v in zip(quotes.tenors, quotes.mid_bps, q)
    )
    report = CalibrationReport(
        command="bootstrap",
        headers=("tenor", "mid_bps", "survival"),
        rows=rows,
        params=(("mode", args.mode), ("recovery", fmt_param(config.recovery))),
        config_echo=_config_echo(config, quotes=args.quotes),
        notes=notes,
    )
    return report, 0


def _cmd_mc_check(args) -> tuple[CalibrationReport, int]:
    params = _load_params(_require(args.params, "--params"))
    tenors = _parse_tenors(_require(args.tenors, "--tenors"))
    config = _effective_config(args)
    try:
        mc_config = McConfig(
            n_paths=args.paths, step=args.step, seed=args.seed, antithetic=True
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    if args.paths < 3:
        # one antithetic pair has no sample variance: every |z| would read 0
        raise _InputError(f"--paths must be at least 3 (two antithetic pairs), got {args.paths}")
    if args.paths > _MAX_MC_PATHS:
        raise _InputError(f"--paths must be at most {_MAX_MC_PATHS}, got {args.paths}")
    steps = max(tenors) / args.step
    if not steps <= _MAX_MC_STEPS:
        raise _InputError(f"--step {args.step:g} over tenor {max(tenors):g} needs "
                          f"{steps:.6g} Euler steps, more than the {_MAX_MC_STEPS} allowed")
    if not args.paths * steps <= _MAX_MC_PATH_STEPS:
        raise _InputError(f"--paths {args.paths} over {steps:.6g} Euler steps needs "
                          f"{args.paths * steps:.6g} path-steps, more than the "
                          f"{_MAX_MC_PATH_STEPS:.0e} allowed")
    # one expansion call and one simulation call cover every tenor
    terms = expansion_terms(params, tenors, order=config.order, quad_nodes=config.quad_nodes)
    model_q = survival_approx(params.intensity_leg(), np.asarray(tenors), order=config.order)
    sampled = mc_estimate(params, max(tenors), config=mc_config, at=tenors)
    rows = []
    notes = []
    for T, estimates, *models in zip(tenors, sampled, terms.v(), terms.h(), model_q):
        for target, model in zip(("v", "h", "q"), map(float, models)):
            est, se = estimates[target]
            z = (model - est) / se if se > 0.0 else 0.0
            rows.append(
                (f"{T:g}", target, f"{est:.8f}", f"{se:.2e}", f"{model:.8f}", f"{z:+.2f}")
            )
            if abs(z) > 3.0:
                notes.append(f"target {target} at tenor {T:g}: |z| = {abs(z):.2f} exceeds 3")
    report = CalibrationReport(
        command="mc-check",
        headers=("tenor", "target", "mc_estimate", "std_error", "model", "z"),
        rows=tuple(rows),
        params=_param_block(params),
        config_echo=_config_echo(
            config, params=args.params, paths=args.paths, step=args.step,
            seed=args.seed, antithetic=True,
        ),
        notes=tuple(notes),
    )
    return report, 0


# --------------------------------------------------------------------------
# Argument wiring


# Every flag any subcommand takes; each subcommand gets only the ones its
# handler reads, so anything else is an argparse error (exit 2).
_FLAGS = {
    "curve": dict(help="discount curve CSV (# mode=rate|df, # r0=...)"),
    "quotes": dict(help="CDS quote CSV (tenor, bid, ask[, mid] in bps)"),
    "config": dict(help="pricing config, flat key=value"),
    "params": dict(help="model parameter file, key=value"),
    "tenors": dict(help="comma-separated tenor list in years"),
    "order": dict(type=int, choices=(0, 1, 2), help="expansion order override"),
    "weights": dict(choices=WEIGHT_SCHEMES, default="bidask",
                    help="quote weighting scheme (default bidask)"),
    "correlated": dict(choices=("yes", "no"), default="yes",
                       help="fit rho (yes) or pin it to zero (no)"),
    "tmax": dict(type=float, help="matching horizon (defaults to longest quote)"),
    "mode": dict(choices=BOOTSTRAP_MODES, default="standard",
                 help="recursion form (default standard)"),
    "paths": dict(type=int, default=200_000, help="simulated paths"),
    "step": dict(type=float, default=0.01, help="Euler step in years"),
    "seed": dict(type=int, default=0, help="Monte Carlo seed"),
    "out": dict(help="directory for .txt/.csv/.json report files"),
}

_CALIBRATION_FLAGS = "curve quotes config order weights correlated out"
_MODEL_FLAGS = "params tenors config order out"

_COMMANDS = (
    ("calibrate-rates", _cmd_rates, "curve out",
     "fit the rate factor to discount pillars"),
    ("match-vol", _cmd_rates, "curve quotes tmax out",
     "matched rate volatility at the longest tenor"),
    ("calibrate-cds", _cmd_pipeline, _CALIBRATION_FLAGS,
     "three-step calibration to CDS quotes"),
    ("price", _cmd_price, _MODEL_FLAGS, "price a spread curve from explicit parameters"),
    ("survival", _cmd_survival, _MODEL_FLAGS,
     "model survival probabilities from explicit parameters"),
    ("bootstrap", _cmd_bootstrap, "quotes config mode out",
     "market-implied survival from quotes alone"),
    ("mc-check", _cmd_mc_check, "params tenors config order paths step seed out",
     "Monte Carlo cross-check of expansion values"),
    ("full-pipeline", _cmd_pipeline, _CALIBRATION_FLAGS,
     "calibrate, reprice at the config order, and compare survival curves"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssrd",
        description="Two-factor square-root credit model: calibration, CDS pricing, "
        "survival curves, and Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, flags, help_text in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        for flag in flags.split():
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
        _emit(report, args.out)
        return code
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    except (_InputError, MarketDataError, CalibrationError, _GridLimitError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
