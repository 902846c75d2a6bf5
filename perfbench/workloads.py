"""The three benchmark workloads: seeded input generators, ops and checks.

Each workload is a class with five parts:

``generate(seed, work, tiny)``
    Runs in the benchmark's parent process, before any timing.  Writes the
    seeded inputs under ``work`` in the CLI file formats and returns a
    JSON-able manifest.  The program under test only ever sees these files.
``__init__(manifest)``
    The child's set-up: loads every input through the package loaders.
``n_ops(seconds)``
    How many ops an untraced run times: ``seconds / op_seconds``, rounded.
    It is fixed by the arguments, not by the clock, so that a seed always
    runs and checks the same ops.
``op(i, out_dir)``
    One timed operation.  Returns whatever the check needs.
``check(i, output, out_dir)``
    Run after the timed phase.  Returns ``None`` for a correct op, or
    ``(BAD, reason)`` for an output that cannot be right for any input (a
    crash, an input/internal-error exit, a missing or malformed report, a
    non-finite or non-positive price), or ``(MISS, reason)`` for a
    well-formed output that misses its accuracy bound.  Both count as
    failed ops; only BAD makes the run incorrect.

Only public ``ssrd`` entry points are called.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import ssrd
import ssrd.cli  # the CLI workloads' entry point; loaded during set-up

# Fixture parameters, as in tests/conftest.py and scripts/run_synthetic_pipeline.py.
RATE = {"alpha1": 0.2, "beta1": 0.03, "sigma1": 0.05, "r0": 0.02}
CREDIT_SETS = {
    "slow": (0.00561, 0.92493, 0.02352, 0.01011, -0.02910),
    "mid1": (0.03966, 0.16350, 0.01600, 0.00436, 0.04662),
    "fast": (0.22724, 0.05817, 0.06869, 0.00537, -0.05432),
    "mid2": (0.04117, 0.18416, 0.07196, 0.01103, 0.05469),
}
PARAM_KEYS = ("alpha1", "beta1", "sigma1", "r0", "alpha2", "beta2", "sigma2", "lambda0", "rho")
CURVE_PILLARS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0)
QUOTE_TENORS = tuple(1.0 + 0.5 * k for k in range(11))  # 1y..6y semiannual
SURVIVAL_MATURITIES = tuple(0.25 * k for k in range(1, 25))  # 0.25y..6y
JITTER = 0.1  # log-normal scale of the per-parameter jitter

# Correctness bounds, fixed here.  Over the 2,560 price scenarios of seeds
# 0-4 the largest relative errors at commit 436a898 were 1.22e-3 (rho = 0
# spreads against the exact factorised spread) and 2.9e-4 (survival against
# the exact bond formula); the bounds leave about 2.5x headroom.
SPREAD_RTOL = 3e-3
SURVIVAL_RTOL = 1e-3
REFIT_BP = 0.5
Z_MAX = 3.0


BAD, MISS = "bad", "miss"


def _jitter(rng, values):
    return np.asarray(values, dtype=float) * np.exp(JITTER * rng.standard_normal(len(values)))


def _write_config(path: Path, **kw) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in kw.items()))


def _write_params(path: Path, params: dict) -> None:
    path.write_text("".join(f"{k}={params[k]!r}\n" for k in PARAM_KEYS))


def _read_params(path) -> dict:
    """The CLI's flat key=value parameter file."""
    kw = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, val = line.partition("=")
            kw[key.strip()] = float(val)
    return kw


def _read_report(out_dir: Path, command: str) -> dict:
    try:
        return json.loads((out_dir / f"{command}.json").read_text())
    except (OSError, ValueError):
        return {}


class Workload:
    # Nominal seconds per warm op at commit 436a898 on a 2-vCPU Xeon; it sets
    # the op count of a run, so keep it fixed when the package gets faster.
    op_seconds: float

    @classmethod
    def n_ops(cls, seconds: float) -> int:
        return max(1, round(seconds / cls.op_seconds))


# --------------------------------------------------------------------------


class Calibrate(Workload):
    """ssrd full-pipeline on seeded synthetic markets; one op is one market."""

    why = ("the paper's headline three-step calibration: simplex, credit objective, "
           "correlated order-1 ladders and the c12 cross term")
    n_markets = 28
    op_seconds = 30 / 28  # a 30 s run calibrates each of the 28 markets once
    trace_ops = 2  # one mid2 and one fast market

    @staticmethod
    def generate(seed: int, work: Path, tiny: bool) -> dict:
        # 8 nodes per panel instead of the default 32.  A market's cost
        # varies by 20-30% with its Nelder-Mead evaluation count, so a run
        # whose time barely depends on the seed needs a few dozen markets:
        # at 32 nodes a market takes 9-16 s, at 16 about 1.9 s, at 8 about
        # 1.1 s.  The refit errors, and the markets that miss 0.5 bp, are
        # the same at 8 and 16 nodes (seeds 2 and 4 at commit 436a898).
        config = ssrd.PricingConfig(roll="anniversary", recovery=0.4, order=2, quad_nodes=8)
        rate = ssrd.CirParams(RATE["alpha1"], RATE["beta1"], RATE["sigma1"], RATE["r0"])
        vol = ssrd.match_volatility(rate, rate.x0, max(QUOTE_TENORS))
        union = ssrd.build_schedule(None, max(QUOTE_TENORS), config)
        ends = [len(ssrd.build_schedule(None, t, config).times) for t in QUOTE_TENORS]
        curve_lines = ["# mode=df", f"# r0={rate.x0!r}"] + [
            f"{t!r},{float(ssrd.cir_bond(rate, 0.0, t))!r}" for t in CURVE_PILLARS
        ]
        rng = np.random.default_rng(seed)
        markets = []
        for k in range(Calibrate.n_markets):
            name = ("mid2", "fast")[k % 2]
            truth = _jitter(rng, CREDIT_SETS[name])
            model = ssrd.calibrate.assemble_model(rate, vol.sigma1_hat, truth, correlated=True)
            mids = [1e4 * float(s) for s in ssrd.pricing.spread_ladder(model, union, ends, config)]
            d = work / f"market{k:02d}"
            d.mkdir(parents=True)
            (d / "curve.csv").write_text("\n".join(curve_lines) + "\n")
            (d / "quotes.csv").write_text("# currency=USD\n" + "".join(
                f"{t!r},{m - 0.5!r},{m + 0.5!r}\n" for t, m in zip(QUOTE_TENORS, mids)))
            _write_config(d / "config.txt", recovery=config.recovery, roll=config.roll,
                          order=config.order, quad_nodes=config.quad_nodes)
            markets.append({"dir": str(d), "set": name, "truth": truth.tolist()})
        return {"markets": markets}

    def __init__(self, manifest: dict):
        self.dirs = [Path(m["dir"]) for m in manifest["markets"]]
        for d in self.dirs:
            ssrd.load_discount_curve(d / "curve.csv")
            ssrd.load_cds_quotes(d / "quotes.csv")
            ssrd.load_pricing_config(d / "config.txt")

    def op(self, i: int, out_dir: Path):
        d = self.dirs[i % len(self.dirs)]
        return ssrd.cli.main(["full-pipeline", "--curve", str(d / "curve.csv"),
                              "--quotes", str(d / "quotes.csv"),
                              "--config", str(d / "config.txt"), "--out", str(out_dir)])

    def refit_error_bp(self, out_dir: Path) -> float | None:
        """Max |refit - mid| in bp from the op's JSON report; None if it is unusable."""
        rows = _read_report(out_dir, "full-pipeline").get("rows") or []
        try:
            errs = [abs(float(r["model_bps"]) - float(r["market_bps"])) for r in rows]
        except (KeyError, TypeError, ValueError):
            return None
        if len(errs) != len(QUOTE_TENORS) or not all(map(math.isfinite, errs)):
            return None
        return max(errs)

    def check(self, i: int, rc, out_dir: Path):
        if rc not in (0, 3):
            return BAD, f"exit code {rc}"
        err = self.refit_error_bp(out_dir)
        if err is None:
            return BAD, "missing or malformed full-pipeline report"
        if rc == 3:
            return MISS, "calibration did not converge (exit 3)"
        if not err <= REFIT_BP:
            return MISS, f"refit error {err:.3f} bp > {REFIT_BP} bp"
        return None


class Price(Workload):
    """Spread and survival curves under seeded parameter scenarios."""

    why = ("pricing alone: order-2 spread ladders and order-1 survival curves, no "
           "optimizer or simulation; a quarter of scenarios have rho = 0 and skip c12")
    n_scenarios = 512
    op_seconds = 0.085
    trace_ops = 32

    @staticmethod
    def generate(seed: int, work: Path, tiny: bool) -> dict:
        rng = np.random.default_rng(seed)
        names = tuple(CREDIT_SETS)
        rows = []
        for k in range(Price.n_scenarios):
            credit = _jitter(rng, CREDIT_SETS[names[rng.integers(len(names))]][:4])
            rate = _jitter(rng, [RATE[key] for key in ("alpha1", "beta1", "sigma1", "r0")])
            rho = 0.0 if k % 4 == 0 else float(rng.uniform(-0.9, 0.9))
            rows.append([*rate.tolist(), *credit.tolist(), rho])
        work.mkdir(parents=True, exist_ok=True)
        (work / "scenarios.csv").write_text(
            ",".join(PARAM_KEYS) + "\n" + "".join(",".join(repr(v) for v in r) + "\n" for r in rows))
        _write_config(work / "config.txt", recovery=0.4, roll="anniversary", order=2,
                      quad_nodes=8 if tiny else 32)
        return {"scenarios": str(work / "scenarios.csv"), "config": str(work / "config.txt")}

    def __init__(self, manifest: dict):
        self.config = ssrd.load_pricing_config(manifest["config"])
        lines = Path(manifest["scenarios"]).read_text().splitlines()
        keys = lines[0].split(",")
        self.params = [ssrd.ModelParams(**dict(zip(keys, map(float, ln.split(","))))) for ln in lines[1:]]
        self.maturities = np.array(SURVIVAL_MATURITIES)

    def op(self, i: int, out_dir: Path):
        p = self.params[i % len(self.params)]
        spreads = ssrd.spread_curve(p, QUOTE_TENORS, self.config)
        q = ssrd.survival_approx(p.intensity_leg(), self.maturities, order=1)
        return [s for _, s in spreads], q

    def check(self, i: int, output, out_dir: Path):
        spreads, q = output
        q = np.asarray(q, dtype=float)
        if len(spreads) != len(QUOTE_TENORS) or not all(math.isfinite(s) and s > 0 for s in spreads):
            return BAD, "spreads not finite and positive"
        if q.shape != self.maturities.shape or not np.all((q > 0) & (q <= 1)):
            return BAD, "survival probabilities outside (0, 1]"
        p = self.params[i % len(self.params)]
        if p.rho == 0.0:
            for T, s in zip(QUOTE_TENORS, spreads):
                exact = ssrd.uncorrelated_spread(p, ssrd.build_schedule(None, T, self.config),
                                                 self.config)
                if not abs(s - exact) <= SPREAD_RTOL * exact:
                    return MISS, f"rho = 0 spread at {T:g}y off the exact one by {s / exact - 1:+.2e}"
        exact_q = ssrd.cir_bond(p.intensity_leg(), 0.0, self.maturities)
        worst = float(np.max(np.abs(q - exact_q) / exact_q))
        if not worst <= SURVIVAL_RTOL:
            return MISS, f"survival off the exact one by {worst:.2e}"
        return None


class McCheck(Workload):
    """ssrd mc-check on a seeded correlated parameter file; one op is one invocation."""

    why = ("the Monte Carlo oracle: about 95% of it is path simulation; ladders, "
           "simplex and calibrate are bypassed")
    tenors = "1,3,5"
    op_seconds = 0.55
    trace_ops = 1

    @staticmethod
    def generate(seed: int, work: Path, tiny: bool) -> dict:
        rng = np.random.default_rng(seed)
        # Not mid1: its intensity volatility is so low that the antithetic
        # standard error falls below the Euler scheme's own O(dt) bias (see
        # acceptance gate 3), and |z| would then measure the simulator.
        names = ("slow", "fast", "mid2")
        credit = _jitter(rng, CREDIT_SETS[names[rng.integers(len(names))]][:4])
        rho = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.6))
        params = dict(RATE)
        params.update(zip(("alpha2", "beta2", "sigma2", "lambda0"), credit.tolist()))
        params["rho"] = rho
        work.mkdir(parents=True, exist_ok=True)
        _write_params(work / "params.txt", params)
        _write_config(work / "config.txt", order=2, quad_nodes=32)
        # 4096 paths keep the standard error above the Euler scheme's bias on
        # every set: at 8192 the fast set's 5y survival already sits near
        # z = +3.  What is left is the check's own false-alarm rate: nine
        # |z| <= 3 tests fail together about 2.5% of the time (2 of seeds
        # 0-79 at commit 436a898).
        return {"params": str(work / "params.txt"), "config": str(work / "config.txt"),
                "paths": 1024 if tiny else 4096, "mc_seed": seed}

    def __init__(self, manifest: dict):
        self.params_path = manifest["params"]
        self.config_path = manifest["config"]
        ssrd.load_pricing_config(self.config_path)
        ssrd.ModelParams(**_read_params(self.params_path))
        self.argv = ["mc-check", "--params", self.params_path, "--config", self.config_path,
                     "--tenors", self.tenors, "--paths", str(manifest["paths"]),
                     "--seed", str(manifest["mc_seed"])]

    def op(self, i: int, out_dir: Path):
        return ssrd.cli.main(self.argv + ["--out", str(out_dir)])

    def check(self, i: int, rc, out_dir: Path):
        if rc != 0:
            return BAD, f"exit code {rc}"
        rows = _read_report(out_dir, "mc-check").get("rows") or []
        try:
            z = [float(r["z"]) for r in rows]
        except (KeyError, TypeError, ValueError):
            z = []
        if len(z) != 3 * len(self.tenors.split(",")) or not all(map(math.isfinite, z)):
            return BAD, "missing or malformed mc-check report"
        worst = max(map(abs, z))
        if not worst <= Z_MAX:
            return MISS, f"|z| = {worst:.2f} > {Z_MAX}"
        return None


WORKLOADS = {"calibrate": Calibrate, "price": Price, "mc_check": McCheck}
