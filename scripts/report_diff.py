#!/usr/bin/env python3
"""How far every ``ssrd`` report moved between two checkouts.

    python3 scripts/report_diff.py PARENT CHANGE [--perfbench SEEDS]

PARENT and CHANGE are the roots of two checkouts of this repository.  The
PARENT checkout writes one fixed input set: the synthetic market of
``scripts/run_synthetic_pipeline.py --out``, a params file per fixture
credit set at rho in {-0.5, 0, 0.5}, a fixed ``mc-check`` seed, and two
more curves for ``calibrate-rates``: a hump no square-root curve has, whose
fit ends on the alpha1 bound, and the exact curve of a leg that violates
Feller, whose fit ends on the Feller boundary.  Each checkout then runs
all eight subcommands on it, in one subprocess with that checkout's
``src/`` on ``PYTHONPATH``.  For every report this prints whether its
bytes are identical once the timing block is dropped, and the largest
absolute and relative numeric move with its cell.

``--perfbench SEEDS`` (``0`` or ``0-9``) also runs perfbench's ``price``
scenarios and ``calibrate`` markets of those seeds through the public API:
``spread_curve`` and ``survival_approx`` for each scenario, ``run_pipeline``
for each market.  The inputs come from the PARENT checkout's perfbench
generators, imported, not edited.  For each seed it prints the largest move
of any spread, survival value, fitted parameter and repriced spread, the
credit fits' total ``n_eval``, the rate fits' total ``n_eval`` and
``iterations``, and the markets that miss 0.5 bp or do not converge, on
both sides.

Exit status: 0 when nothing moved, 1 when anything did.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve()

RHOS = (-0.5, 0.0, 0.5)
PRICE_TENORS = "1,2,3,5,7,10"
MC_TENORS = "1,3,5"
MC_SEED = 7
REFIT_BP = 0.5
HUMP = 0.02  # the fixture curve times exp(-HUMP t^2 e^{-t/2})
FELLER_LEG = (0.10362705, 0.0128997, 0.05546447, 0.02035826)  # sigma^2 > 2 alpha beta


# --------------------------------------------------------------------------
# Children: each runs in one checkout, with its src/ on the import path.


def _write_inputs(work: Path, seeds: list[int]) -> None:
    """The fixed input set, written with the running checkout's code."""
    import run_synthetic_pipeline as synthetic
    from ssrd.cir import CirParams, cir_bond

    market = work / "market"
    with contextlib.redirect_stdout(io.StringIO()):
        synthetic.main(["--out", str(market)])
    rate = synthetic.RATE
    feller = CirParams(*FELLER_LEG)
    curves = {
        "hump": (rate.x0, lambda t: float(cir_bond(rate, 0.0, t))
                 * math.exp(-HUMP * t * t * math.exp(-t / 2))),
        "feller": (feller.x0, lambda t: float(cir_bond(feller, 0.0, t))),
    }
    for name, (r0, df) in curves.items():
        lines = ["# mode=df", f"# r0={r0!r}"]
        lines += [f"{t!r},{df(t)!r}" for t in synthetic.CURVE_PILLARS]
        (work / f"{name}.csv").write_text("\n".join(lines) + "\n")
    names = []
    for name, credit in synthetic.CREDIT_SETS.items():
        for rho in RHOS:
            values = (rate.alpha, rate.beta, rate.sigma, rate.x0) + tuple(credit[:4]) + (rho,)
            keys = ("alpha1", "beta1", "sigma1", "r0", "alpha2", "beta2", "sigma2", "lambda0",
                    "rho")
            label = f"{name}_rho{rho:+g}"
            (work / f"{label}.txt").write_text("".join(f"{k}={v!r}\n" for k, v in zip(keys, values)))
            names.append(label)
    manifest = {"params": names, "paths": 2000, "perfbench": {}}
    if seeds:
        import workloads

        for seed in seeds:
            base = work / f"perfbench{seed}"
            manifest["perfbench"][str(seed)] = {
                "calibrate": workloads.Calibrate.generate(seed, base / "calibrate", False),
                "price": workloads.Price.generate(seed, base / "price", False),
            }
        manifest["quote_tenors"] = list(workloads.QUOTE_TENORS)
        manifest["survival_maturities"] = list(workloads.SURVIVAL_MATURITIES)
    (work / "manifest.json").write_text(json.dumps(manifest))


def _commands(work: Path, manifest: dict) -> list[tuple[str, list[str]]]:
    m = work / "market"
    curve, quotes, config = str(m / "curve.csv"), str(m / "quotes.csv"), str(m / "config.txt")
    runs = [
        ("calibrate-rates", ["calibrate-rates", "--curve", curve]),
        ("calibrate-rates-hump", ["calibrate-rates", "--curve", str(work / "hump.csv")]),
        ("calibrate-rates-feller", ["calibrate-rates", "--curve", str(work / "feller.csv")]),
        ("match-vol", ["match-vol", "--curve", curve, "--quotes", quotes]),
        ("calibrate-cds", ["calibrate-cds", "--curve", curve, "--quotes", quotes,
                           "--config", config]),
        ("full-pipeline", ["full-pipeline", "--curve", curve, "--quotes", quotes,
                           "--config", config]),
        ("bootstrap", ["bootstrap", "--quotes", quotes, "--config", config]),
    ]
    for label in manifest["params"]:
        model = ["--params", str(work / f"{label}.txt"), "--config", config]
        runs += [
            (f"price/{label}", ["price", *model, "--tenors", PRICE_TENORS]),
            (f"survival/{label}", ["survival", *model, "--tenors", PRICE_TENORS]),
            (f"mc-check/{label}", ["mc-check", *model, "--tenors", MC_TENORS,
                                   "--paths", str(manifest["paths"]), "--seed", str(MC_SEED)]),
        ]
    return runs


def _run_reports(work: Path, out: Path) -> None:
    """Every subcommand on the input set; its reports under ``out``."""
    import warnings

    from ssrd.cli import main

    manifest = json.loads((work / "manifest.json").read_text())
    codes = {}
    for name, argv in _commands(work, manifest):
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            codes[name] = main(argv + ["--out", str(out / name)])
    (out / "codes.json").write_text(json.dumps(codes, indent=1))


def _pipeline_record(d: Path) -> dict:
    import ssrd

    curve = ssrd.load_discount_curve(d / "curve.csv")
    quotes = ssrd.load_cds_quotes(d / "quotes.csv")
    config = ssrd.load_pricing_config(d / "config.txt")
    try:
        res = ssrd.run_pipeline(curve, quotes, config)
    except ValueError as exc:  # a calibration or grid refusal
        return {"error": str(exc), "rates_n_eval": 0, "rates_iterations": 0, "credit_n_eval": 0,
                "failed": True}
    spreads = [s for _, s in res.repriced]
    # as perfbench's check reads the report: both sides rounded to 3 decimals
    err = max(abs(float(f"{1e4 * s:.3f}") - float(f"{m:.3f}"))
              for s, m in zip(spreads, quotes.mid_bps))
    return {
        "rates": [float(v) for v in res.rates.x], "rates_n_eval": res.rates.n_eval,
        "rates_iterations": res.rates.iterations,
        "sigma1_hat": res.vol.sigma1_hat,
        "credit": [float(v) for v in res.credit.x], "credit_n_eval": res.credit.n_eval,
        "credit_iterations": res.credit.iterations, "objective": res.credit.objective,
        "repriced": spreads,
        "failed": not (res.rates.converged and res.credit.converged and err <= REFIT_BP),
    }


def _run_perfbench(work: Path, out: Path) -> None:
    """perfbench's price scenarios and calibrate markets through the public API."""
    import warnings

    import numpy as np

    import ssrd

    manifest = json.loads((work / "manifest.json").read_text())
    maturities = np.array(manifest["survival_maturities"])
    result = {}
    for seed, inputs in manifest["perfbench"].items():
        price = inputs["price"]
        config = ssrd.load_pricing_config(price["config"])
        lines = Path(price["scenarios"]).read_text().splitlines()
        keys = lines[0].split(",")
        scenarios = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for line in lines[1:]:
                p = ssrd.ModelParams(**dict(zip(keys, map(float, line.split(",")))))
                spreads = ssrd.spread_curve(p, manifest["quote_tenors"], config)
                q = ssrd.survival_approx(p.intensity_leg(), maturities, order=1)
                scenarios.append({"spreads": [s for _, s in spreads],
                                  "survival": [float(v) for v in q]})
            markets = [_pipeline_record(Path(m["dir"])) for m in inputs["calibrate"]["markets"]]
        result[seed] = {"price": scenarios, "calibrate": markets}
    (out / "perfbench.json").write_text(json.dumps(result))


# --------------------------------------------------------------------------
# Comparison, in the calling process.


def _masked(path: Path) -> tuple[str, object]:
    """A report's text without its timing block, and its parsed JSON if any."""
    text = path.read_text()
    if path.suffix == ".json":
        obj = json.loads(text)
        obj.pop("timings", None)
        return json.dumps(obj, indent=2), obj
    if path.suffix == ".txt":
        lines, skip = [], False
        for line in text.splitlines():
            if line == "timings (seconds):":
                skip = True
            elif skip and not line.startswith("  "):
                skip = False
            if not skip:
                lines.append(line)
        text = "\n".join(lines)
    return text, None


def _cells(obj, where: str = ""):
    """Every leaf of a parsed report, with its dotted location."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _cells(v, f"{where}.{k}" if where else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _cells(v, f"{where}[{i}]")
    else:
        yield where, obj


def _number(value):
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


class _Moves:
    """The largest absolute and relative move over pairs of numbers."""

    def __init__(self):
        self.abs = self.rel = (0.0, None)
        self.text: list[str] = []

    def add(self, where: str, a, b) -> None:
        if a == b:
            return
        x, y = _number(a), _number(b)
        if x is None or y is None:
            self.text.append(where)
            return
        move = abs(y - x)
        rel = move / abs(x) if x != 0.0 else math.inf
        if move > self.abs[0]:
            self.abs = (move, where)
        if rel > self.rel[0]:
            self.rel = (rel, where)

    def add_cells(self, prefix: str, a, b) -> None:
        """Every leaf of two parsed values, matched by location."""
        ca, cb = dict(_cells(a, prefix)), dict(_cells(b, prefix))
        for where in sorted(ca.keys() | cb.keys()):
            self.add(where, ca.get(where), cb.get(where))

    def line(self) -> str:
        parts = []
        if self.abs[1] is not None:
            parts.append(f"max abs move {self.abs[0]:.3g} at {self.abs[1]}, "
                         f"max rel move {self.rel[0]:.3g} at {self.rel[1]}")
        if self.text:
            parts.append(f"{len(self.text)} non-numeric cell(s) changed, first {self.text[0]}")
        return "; ".join(parts) or "no numeric move"


def _compare_reports(parent: Path, change: Path, names: list[str]) -> bool:
    codes = [json.loads((side / "codes.json").read_text()) for side in (parent, change)]
    identical = True
    width = max(map(len, names))
    for name in names:
        notes = []
        if codes[0][name] != codes[1][name]:
            notes.append(f"exit {codes[0][name]} -> {codes[1][name]}")
        files = sorted({p.name for side in (parent, change) for p in (side / name).glob("*")})
        moves = _Moves()
        for fname in files:
            a, b = parent / name / fname, change / name / fname
            if not (a.exists() and b.exists()):
                notes.append(f"{fname} only on one side")
                continue
            (ta, oa), (tb, ob) = _masked(a), _masked(b)
            if ta != tb:
                notes.append(f"{fname} differs")
            if oa is not None:
                moves.add_cells("", oa, ob)
        if notes:
            identical = False
            print(f"{name:<{width}}  MOVED: {', '.join(notes)}; {moves.line()}")
        else:
            what = ", ".join(files) or f"no report, exit {codes[0][name]}"
            print(f"{name:<{width}}  identical ({what})")
    return identical


def _compare_perfbench(parent: Path, change: Path) -> bool:
    sides = [json.loads((side / "perfbench.json").read_text()) for side in (parent, change)]
    identical = True
    for seed in sides[0]:
        a, b = sides[0][seed], sides[1][seed]
        for workload in ("price", "calibrate"):
            moves = _Moves()
            moved = 0
            for i, (x, y) in enumerate(zip(a[workload], b[workload])):
                moved += x != y
                moves.add_cells(f"{workload}[{i}]", x, y)
            line = f"seed {seed} {workload}: {len(a[workload])} items, {moved} moved"
            if workload == "calibrate":
                totals = []
                for key, label in (("credit_n_eval", "credit n_eval"),
                                   ("rates_n_eval", "rate n_eval"),
                                   ("rates_iterations", "rate iterations"), ("failed", "failed")):
                    total = [sum(m[key] for m in side[workload]) for side in (a, b)]
                    totals.append(f"{label} {total[0]} -> {total[1]}")
                line += "; " + ", ".join(totals)
            if moved:
                identical = False
                line += f"; {moves.line()}"
            print(line)
    return identical


def _child(checkout: Path, mode: str, work: Path, out: Path, seeds: str) -> None:
    """Run one child mode in ``checkout``: its src/, scripts/ and perfbench/ importable."""
    env = dict(os.environ)
    paths = [checkout / "src", checkout / "scripts", checkout / "perfbench"]
    env["PYTHONPATH"] = os.pathsep.join(map(str, paths))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = ["--child", mode, str(work), str(out), seeds]
    subprocess.run([sys.executable, str(HERE), *argv], env=env, check=True)


def _child_main(mode: str, work: str, out: str, seeds: str) -> int:
    if mode == "inputs":
        _write_inputs(Path(work), _seeds(seeds))
    elif mode == "reports":
        _run_reports(Path(work), Path(out))
    else:
        _run_perfbench(Path(work), Path(out))
    return 0


def _seeds(text: str | None) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--child"]:  # inside one checkout
        return _child_main(*argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--perfbench", metavar="SEEDS",
                    help="also compare perfbench's price and calibrate inputs of these seeds")
    args = ap.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        work = Path(tmp) / "inputs"
        work.mkdir()
        seeds = args.perfbench or ""
        _child(parent, "inputs", work, work, seeds)
        manifest = json.loads((work / "manifest.json").read_text())
        outs = []
        for k, checkout in enumerate((parent, change)):
            out = Path(tmp) / f"side{k}"
            out.mkdir()
            _child(checkout, "reports", work, out, seeds)
            if seeds:
                _child(checkout, "perfbench", work, out, seeds)
            outs.append(out)
        names = [name for name, _ in _commands(work, manifest)]
        print(f"reports: {parent} -> {change}")
        identical = _compare_reports(*outs, names)
        if args.perfbench:
            print(f"perfbench inputs, seeds {args.perfbench}, through the public API:")
            identical = _compare_perfbench(*outs) and identical
    print("no report moved" if identical else "some reports moved")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
