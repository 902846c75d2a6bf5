#!/usr/bin/env python3
"""Round-trip study: synthesize quotes from known parameters, refit, compare.

Builds a discount curve and a CDS quote strip from a chosen parameter
vector, perturbs the credit-leg start, runs the three-step calibration
pipeline, and prints the repricing table.  With ``--out`` the synthetic
market files (curve.csv / quotes.csv / config.txt) are also written in
the format the ``ssrd`` CLI reads, so the same study can be repeated via
``python3 -m ssrd full-pipeline``.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from ssrd.calibrate import assemble_model, match_volatility, run_pipeline
from ssrd.cir import CirParams, cir_bond
from ssrd.market import CdsQuoteSet, DiscountCurve, PricingConfig
from ssrd.pricing import spread_curve
from ssrd.report import fmt_bps, fmt_param, relative_error_pct

RATE = CirParams(alpha=0.2, beta=0.03, sigma=0.05, x0=0.02)

# named intensity-leg starting points (alpha2, beta2, sigma2, lambda0, rho)
CREDIT_SETS = {
    "slow": (0.00561, 0.92493, 0.02352, 0.01011, -0.02910),
    "mid1": (0.03966, 0.16350, 0.01600, 0.00436, 0.04662),
    "fast": (0.22724, 0.05817, 0.06869, 0.00537, -0.05432),
    "mid2": (0.04117, 0.18416, 0.07196, 0.01103, 0.05469),
}

CURVE_PILLARS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0)


def synthesize(credit, tenors, config, half_width):
    """Quotes priced from the assembled truth model, plus the exact curve."""
    vol = match_volatility(RATE, RATE.x0, max(tenors))
    model = assemble_model(RATE, vol.sigma1_hat, np.asarray(credit), correlated=True)
    mids = [s * 1e4 for _, s in spread_curve(model, tenors, config)]
    quotes = CdsQuoteSet(
        tenors=tuple(tenors),
        bid_bps=tuple(m - half_width for m in mids),
        ask_bps=tuple(m + half_width for m in mids),
        mid_bps=tuple(mids),
    )
    curve = DiscountCurve(
        tenors=CURVE_PILLARS,
        dfs=tuple(float(cir_bond(RATE, 0.0, t)) for t in CURVE_PILLARS),
        short_rate=RATE.x0,
    )
    return model, curve, quotes


def write_environment(out_dir, curve, quotes, config):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["# mode=df", f"# r0={curve.short_rate!r}"]
    lines += [f"{t!r},{df!r}" for t, df in zip(curve.tenors, curve.dfs)]
    (out / "curve.csv").write_text("\n".join(lines) + "\n")
    qlines = [f"# currency={quotes.currency}"]
    qlines += [
        f"{t!r},{b!r},{a!r}"
        for t, b, a in zip(quotes.tenors, quotes.bid_bps, quotes.ask_bps)
    ]
    (out / "quotes.csv").write_text("\n".join(qlines) + "\n")
    (out / "config.txt").write_text(
        f"recovery={config.recovery}\nroll={config.roll}\norder={config.order}\n"
        f"quad_nodes={config.quad_nodes}\n"
    )
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", default="mid2", choices=sorted(CREDIT_SETS),
                    help="truth credit-leg parameters (default mid2)")
    ap.add_argument("--perturb", type=float, default=1.5,
                    help="factor applied to every credit parameter at the start")
    ap.add_argument("--tenor-max", type=float, default=6.0)
    ap.add_argument("--tenor-step", type=float, default=0.5)
    ap.add_argument("--half-width", type=float, default=0.5,
                    help="half bid/ask width in bp around the synthetic mid")
    ap.add_argument("--order", type=int, default=2, choices=(0, 1, 2))
    ap.add_argument("--weights", default="bidask",
                    choices=("bidask", "invtenor", "uniform"))
    ap.add_argument("--out", default=None,
                    help="directory for the synthetic curve/quotes/config files")
    args = ap.parse_args(argv)

    config = PricingConfig(roll="anniversary", recovery=0.4, order=args.order)
    n = int(round((args.tenor_max - 1.0) / args.tenor_step)) + 1
    tenors = [1.0 + args.tenor_step * k for k in range(n)]
    truth = np.asarray(CREDIT_SETS[args.set])

    model, curve, quotes = synthesize(truth, tenors, config, args.half_width)
    if args.out:
        where = write_environment(args.out, curve, quotes, config)
        print(f"synthetic market written to {where}")

    t0 = time.perf_counter()
    result = run_pipeline(
        curve, quotes, config, weights=args.weights, credit_initial=truth * args.perturb
    )
    elapsed = time.perf_counter() - t0

    print(f"\nset {args.set}, start = truth x {args.perturb:g}, "
          f"weights {args.weights}, order {args.order}")
    print(f"rate fit      {[fmt_param(v) for v in result.rates.x]}"
          f"  (truth [{fmt_param(RATE.alpha)}, {fmt_param(RATE.beta)}, {fmt_param(RATE.sigma)}])")
    print(f"sigma1_hat    {fmt_param(result.vol.sigma1_hat)}  ({result.vol.branch})")
    print(f"credit fit    {[fmt_param(v) for v in result.credit.x]}")
    print(f"credit truth  {[fmt_param(v) for v in truth]}")
    print(f"converged     rates={result.rates.converged} credit={result.credit.converged}"
          f"  objective {result.credit.objective:.3e}  wall {elapsed:.1f}s\n")

    print(f"{'tenor':>6}  {'market':>9}  {'refit':>9}  {'rel_err_%':>9}")
    worst = 0.0
    for (tenor, spread), mid in zip(result.repriced, quotes.mid_bps):
        bps = spread * 1e4
        worst = max(worst, abs(bps - mid))
        print(f"{tenor:>6g}  {fmt_bps(mid / 1e4):>9}  {fmt_bps(spread):>9}  "
              f"{relative_error_pct(bps, mid):>9}")
    print(f"\nmax |refit - market| = {worst:.4f} bp")
    return 0 if worst <= args.half_width else 1


if __name__ == "__main__":
    raise SystemExit(main())
