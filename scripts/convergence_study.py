#!/usr/bin/env python3
"""Error-decay study for the transform approximation.

At zero correlation the joint transform factorizes into two closed-form
bond prices, giving an exact reference.  This script tabulates the
absolute error of each approximation order over a maturity grid and
fits the log-log slope (expected to steepen by about one half per
order).  With ``--rho`` nonzero there is no closed form; the reference
switches to a full-truncation Euler Monte Carlo estimate and the table
reports gaps in standard-error units instead.
"""

import argparse

import numpy as np

from run_synthetic_pipeline import CREDIT_SETS, RATE
from ssrd.cir import cir_bond
from ssrd.expansion import ModelParams, expansion_terms
from ssrd.mc import McConfig, mc_estimate


def exact_study(model, maturities, orders):
    exact = cir_bond(model.rate_leg(), 0.0, maturities) * cir_bond(
        model.intensity_leg(), 0.0, maturities
    )
    header = f"{'T':>8}" + "".join(f"{f'|err| ord {n}':>14}" for n in orders)
    print(header)
    terms = expansion_terms(model, maturities, order=max(orders))
    errs = {n: np.abs(terms.v(n) - exact) for n in orders}
    for i, T in enumerate(maturities):
        print(f"{T:>8.4f}" + "".join(f"{errs[n][i]:>14.3e}" for n in orders))
    print()
    for n in orders:
        if np.any(errs[n] == 0.0):
            print(f"order {n}: slope undefined (exact match on grid)")
            continue
        slope = np.polyfit(np.log(maturities), np.log(errs[n]), 1)[0]
        print(f"order {n}: log-log slope {slope:.3f}")


def mc_study(model, maturities, orders, paths, step, seed):
    cfg = McConfig(n_paths=paths, step=step, seed=seed, antithetic=False)
    print(f"{'T':>8}{'target':>8}{'mc':>14}{'se':>12}"
          + "".join(f"{f'gap/se ord {n}':>15}" for n in orders))
    terms = expansion_terms(model, maturities, order=max(orders))
    sampled = mc_estimate(model, float(maturities.max()), config=cfg, at=maturities)
    for i, (T, estimates) in enumerate(zip(maturities, sampled)):
        for target, approx in (("v", terms.v), ("h", terms.h)):
            est, se = estimates[target]
            row = f"{T:>8.4f}{target:>8}{est:>14.8f}{se:>12.2e}"
            for n in orders:
                row += f"{(float(approx(n)[i]) - est) / se:>15.2f}"
            print(row)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", default="mid2", choices=sorted(CREDIT_SETS))
    ap.add_argument("--rho", type=float, default=0.0)
    ap.add_argument("--orders", type=int, nargs="+", default=[0, 1, 2],
                    choices=(0, 1, 2))
    ap.add_argument("--tmin", type=float, default=1 / 16)
    ap.add_argument("--tmax", type=float, default=4.0)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--paths", type=int, default=200_000,
                    help="Monte Carlo paths when --rho is nonzero")
    ap.add_argument("--step", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=20260819)
    args = ap.parse_args(argv)

    alpha2, beta2, sigma2, lambda0, _ = CREDIT_SETS[args.set]
    model = ModelParams(RATE.alpha, RATE.beta, RATE.sigma, RATE.x0,
                        alpha2, beta2, sigma2, lambda0, args.rho)
    maturities = np.geomspace(args.tmin, args.tmax, args.points)
    print(f"set {args.set}, rho {args.rho:g}, orders {args.orders}\n")
    if args.rho == 0.0:
        exact_study(model, maturities, args.orders)
    else:
        mc_study(model, maturities, args.orders, args.paths, args.step, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
