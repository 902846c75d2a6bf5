"""Command-line interface: exit codes, report files, library agreement."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ssrd.cli
from conftest import RATE_FIXTURE, make_model
from ssrd.calibrate import bootstrap_survival
from ssrd.cir import CirParams, cir_bond
from ssrd.cli import main
from ssrd.expansion import ModelParams, h_expansion, survival_approx
from ssrd.market import CdsQuoteSet, PricingConfig, build_schedule
from ssrd.pricing import spread_curve, spread_ladder
from ssrd.report import fmt_bps
from ssrd.simplex import CalibrationResult

RATE = CirParams(RATE_FIXTURE["alpha1"], RATE_FIXTURE["beta1"],
                 RATE_FIXTURE["sigma1"], RATE_FIXTURE["r0"])
TENORS = (1.0, 2.0, 3.0, 4.0, 5.0)


@pytest.fixture(scope="module")
def market_dir(tmp_path_factory):
    """Curve/quotes/config/params files for an exactly attainable market."""
    d = tmp_path_factory.mktemp("market")

    pillars = (0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0)
    lines = ["# mode=df", f"# r0={RATE.x0!r}", "tenor_years,value"]
    lines += [f"{t},{cir_bond(RATE, 0.0, t)!r}" for t in pillars]
    (d / "curve.csv").write_text("\n".join(lines) + "\n")

    cfg = PricingConfig(roll="anniversary")
    model = make_model("mid2", rho=0.0)
    sched = build_schedule(None, max(TENORS), cfg)
    ends = [len(build_schedule(None, t, cfg).times) for t in TENORS]
    mids = spread_ladder(model, sched, ends, cfg) * 1e4
    qlines = ["# currency=EUR"] + [
        f"{t},{m - 0.5:.6f},{m + 0.5:.6f}" for t, m in zip(TENORS, mids)
    ]
    (d / "quotes.csv").write_text("\n".join(qlines) + "\n")

    (d / "config.txt").write_text(
        "recovery=0.4\nroll=anniversary\nquad_nodes=32\norder=2\n"
    )
    (d / "params.txt").write_text(
        "\n".join(
            f"{k}={v}"
            for k, v in [
                ("alpha1", RATE.alpha), ("beta1", RATE.beta), ("sigma1", RATE.sigma),
                ("r0", RATE.x0), ("alpha2", model.alpha2), ("beta2", model.beta2),
                ("sigma2", model.sigma2), ("lambda0", model.lambda0), ("rho", 0.05469),
            ]
        )
        + "\n"
    )
    (d / "bad_config.txt").write_text("recovery=1.0\n")
    return d


def run_cli(*argv):
    return main(list(argv))


# --------------------------------------------------------------------------
# Pricing and survival commands against the library
# --------------------------------------------------------------------------


def test_price_matches_library_and_writes_reports(market_dir, tmp_path, capsys):
    out = tmp_path / "reports"
    code = run_cli("price", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"),
                   "--tenors", "1.0,2.5,5.0", "--out", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("== price ==")

    params = make_model("mid2", rho=0.05469)
    cfg = PricingConfig(roll="anniversary")
    expected = {f"{t:g}": f"{1e4 * s:.3f}" for t, s in spread_curve(params, (1.0, 2.5, 5.0), cfg)}

    csv_lines = (out / "price.csv").read_text().splitlines()
    assert csv_lines[0] == "tenor,spread_bps"
    got = dict(line.split(",") for line in csv_lines[1:])
    assert got == expected

    obj = json.loads((out / "price.json").read_text())
    assert {r["tenor"]: r["spread_bps"] for r in obj["rows"]} == expected
    assert obj["config"]["roll"] == "anniversary"
    assert (out / "price.txt").read_text() == stdout


def test_survival_matches_library(market_dir, capsys):
    code = run_cli("survival", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"), "--tenors", "1.0,3.0,6.0")
    assert code == 0
    stdout = capsys.readouterr().out
    leg = make_model("mid2").intensity_leg()
    expected = survival_approx(leg, np.array([1.0, 3.0, 6.0]), order=2)
    for t, q in zip(("1", "3", "6"), expected):
        assert re.search(rf"^\s*{t}\s+{q:.7f}$", stdout, re.M), (t, stdout)


def test_order_flag_overrides_config(market_dir, capsys):
    args = ("price", "--params", str(market_dir / "params.txt"),
            "--config", str(market_dir / "config.txt"), "--tenors", "3.0")
    run_cli(*args)
    base = capsys.readouterr().out
    run_cli(*args, "--order", "0")
    low = capsys.readouterr().out
    assert re.search(r"^\s*order\s+= 0$", low, re.M)
    assert re.search(r"^\s*order\s+= 2$", base, re.M)
    spread = lambda text: re.search(r"^\s*3\s+(\d+\.\d+)$", text, re.M).group(1)  # noqa: E731
    assert spread(base) != spread(low)

    params = make_model("mid2", rho=0.05469)
    cfg = PricingConfig(roll="anniversary", order=0)
    expected = f"{1e4 * spread_curve(params, (3.0,), cfg)[0][1]:.3f}"
    assert spread(low) == expected


def test_default_fixed_roll_without_valuation_is_an_input_error(market_dir, capsys):
    # No --config means the fixed-roll default, which cannot build schedules
    # without a valuation date; the CLI reports that as an input problem.
    code = run_cli("price", "--params", str(market_dir / "params.txt"), "--tenors", "2.0")
    assert code == 2
    assert "fixed-roll schedules need a valuation date" in capsys.readouterr().err


def test_stdout_is_byte_stable_for_pure_commands(market_dir, capsys):
    args = ("price", "--params", str(market_dir / "params.txt"),
            "--config", str(market_dir / "config.txt"), "--tenors", "1.0,2.0,3.0")
    run_cli(*args)
    first = capsys.readouterr().out
    run_cli(*args)
    assert capsys.readouterr().out == first


# --------------------------------------------------------------------------
# Bootstrap command
# --------------------------------------------------------------------------


def test_bootstrap_standard_matches_library(market_dir, capsys):
    code = run_cli("bootstrap", "--quotes", str(market_dir / "quotes.csv"),
                   "--config", str(market_dir / "config.txt"))
    assert code == 0
    stdout = capsys.readouterr().out
    from ssrd.market import load_cds_quotes

    quotes = load_cds_quotes(market_dir / "quotes.csv")
    expected = bootstrap_survival(quotes, 0.4, mode="standard")
    for t, q in zip(quotes.tenors, expected):
        assert f"{q:.7f}" in stdout, t
    assert "note:" not in stdout


def test_bootstrap_literal_mode_surfaces_anomalies_as_notes(market_dir, capsys):
    code = run_cli("bootstrap", "--quotes", str(market_dir / "quotes.csv"),
                   "--config", str(market_dir / "config.txt"), "--mode", "literal-paper")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "note: as-printed recursion raises survival at tenor 1" in stdout


def test_bootstrap_full_recovery_is_an_input_error(market_dir, capsys):
    code = run_cli("bootstrap", "--quotes", str(market_dir / "quotes.csv"),
                   "--config", str(market_dir / "bad_config.txt"))
    assert code == 2
    assert "recovery must be < 1" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Calibration commands
# --------------------------------------------------------------------------


def test_calibrate_rates_reprices_the_curve(market_dir, tmp_path, capsys):
    out = tmp_path / "r"
    code = run_cli("calibrate-rates", "--curve", str(market_dir / "curve.csv"),
                   "--out", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    assert "converged  = true" in stdout
    obj = json.loads((out / "calibrate-rates.json").read_text())
    assert float(obj["params"]["objective"]) < 1e-12
    for row in obj["rows"]:
        assert float(row["rel_error_pct"]) < 1e-3  # percent


def test_match_vol_reports_quadratic_branch(market_dir, capsys):
    code = run_cli("match-vol", "--curve", str(market_dir / "curve.csv"), "--tmax", "5.0")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "branch     = quadratic-root" in stdout
    m = re.search(r"sigma1_hat = ([0-9.e-]+)", stdout)
    assert m and abs(float(m.group(1)) - RATE.sigma) < 0.005


def test_match_vol_needs_a_horizon(market_dir, capsys):
    code = run_cli("match-vol", "--curve", str(market_dir / "curve.csv"))
    assert code == 2
    assert "need --tmax or --quotes" in capsys.readouterr().err


@pytest.mark.parametrize("tmax", ["0", "-1", "inf", "nan"])
def test_match_vol_checks_the_horizon_before_the_fit(market_dir, capsys, monkeypatch, tmax):
    def no_fit(curve):
        raise AssertionError("the rate fit ran")

    monkeypatch.setattr(ssrd.cli, "calibrate_rates", no_fit)
    code = run_cli("match-vol", "--curve", str(market_dir / "curve.csv"), "--tmax", tmax)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: matching horizon must be positive and finite, got {float(tmax)}\n"
    )


def test_calibrate_cds_end_to_end(market_dir, tmp_path, capsys):
    out = tmp_path / "c"
    code = run_cli("calibrate-cds", "--curve", str(market_dir / "curve.csv"),
                   "--quotes", str(market_dir / "quotes.csv"),
                   "--config", str(market_dir / "config.txt"),
                   "--weights", "uniform", "--correlated", "no", "--out", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    assert "== calibrate-cds ==" in stdout
    obj = json.loads((out / "calibrate-cds.json").read_text())
    assert float(obj["params"]["max_abs_error_bps"]) < 1.0
    assert obj["params"]["rho"] == "0"
    assert obj["config"]["weights"] == "uniform"
    assert obj["config"]["correlated"] == "False"
    assert list(obj["timings"]) == ["rates", "vol", "credit", "reprice"]
    header = ("tenor", "market_bps", "model_bps", "rel_error_pct")
    assert (out / "calibrate-cds.csv").read_text().splitlines()[0] == ",".join(header)


def test_mc_check_agrees_with_library_formats(market_dir, capsys):
    code = run_cli("mc-check", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"),
                   "--tenors", "1.0", "--paths", "4000", "--step", "0.05", "--seed", "3")
    assert code == 0
    stdout = capsys.readouterr().out
    for target in ("v", "h", "q"):
        assert re.search(rf"^\s*1\s+{target}\s+0\.\d{{8}}\s+\S+\s+0\.\d{{8}}\s+[+-]\d+\.\d{{2}}$",
                         stdout, re.M), (target, stdout)
    assert re.search(r"^\s*paths\s+= 4000$", stdout, re.M)


def test_mc_check_h_column_is_the_expansion_h(market_dir, capsys):
    # h is E[exp(-int (r+lam)) lam_T] in the library and in the report alike:
    # the model column is h_expansion as it is, not rescaled.
    text = (market_dir / "params.txt").read_text()
    params = ModelParams(**{k: float(v) for k, v in (ln.split("=") for ln in text.split())})
    code = run_cli("mc-check", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"),
                   "--tenors", "1,3", "--paths", "400", "--step", "0.05")
    assert code == 0
    stdout = capsys.readouterr().out
    for T in (1.0, 3.0):
        model = re.escape(f"{h_expansion(params, T, order=2, quad_nodes=32):.8f}")
        assert re.search(rf"^\s*{T:g}\s+h\s+\S+\s+\S+\s+{model}\s+[+-]\d+\.\d{{2}}$",
                         stdout, re.M), (T, stdout)


def test_mc_check_simulates_once_for_all_tenors(market_dir, monkeypatch, capsys):
    # One path set serves v, h and q at every tenor.  The benchmark's
    # path-step counter (perfbench/tracer.py, loaded read-only) reads the
    # horizon at index 1 and finds ``config`` by keyword; passed
    # positionally at index 2 it would silently count the default.
    import ssrd.cli as cli_mod

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    calls = []
    real = cli_mod.mc_estimate

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(cli_mod, "mc_estimate", spy)
    code = run_cli("mc-check", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"),
                   "--tenors", "1,3", "--paths", "400", "--step", "0.05")
    assert code == 0
    assert len(calls) == 1
    args, kwargs, out = calls[0]
    assert args[1:] == (3.0,) and set(kwargs) == {"config", "at"}
    assert tuple(kwargs["at"]) == (1.0, 3.0) and len(out) == 2
    assert tracer._path_steps(args, kwargs, out) == (400 * math.ceil(3 / 0.05),)


@pytest.mark.parametrize("paths", ["1", "2"])
def test_mc_check_rejects_fewer_than_two_antithetic_pairs(market_dir, capsys, paths):
    # one pair has no sample variance, so every |z| would pass on no evidence
    code = run_cli("mc-check", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"),
                   "--tenors", "1", "--paths", paths, "--step", "0.05")
    assert code == 2
    err = capsys.readouterr().err
    assert "--paths must be at least 3" in err and err.count("\n") == 1


@pytest.mark.parametrize("paths", ["100000001", str(10**12)])
def test_mc_check_refuses_more_paths_than_it_can_seed(market_dir, capsys, monkeypatch, paths):
    # 10^12 paths would spawn 3.05e7 block seeds before the first step
    def no_simulation(*args, **kwargs):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(ssrd.cli, "mc_estimate", no_simulation)
    code = run_cli("mc-check", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"),
                   "--tenors", "1", "--paths", paths, "--step", "0.05")
    assert code == 2
    assert capsys.readouterr().err == f"error: --paths must be at most 100000000, got {paths}\n"


@pytest.mark.parametrize(("step", "count"), [("1e-12", "1e+12"), ("1e-300", "1e+300"),
                                             ("5e-324", "inf"), ("4.99e-07", "2.00401e+06")])
def test_mc_check_refuses_an_euler_grid_it_cannot_finish(market_dir, capsys, monkeypatch,
                                                         step, count):
    def no_simulation(*args, **kwargs):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(ssrd.cli, "mc_estimate", no_simulation)
    code = run_cli("mc-check", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"),
                   "--tenors", "0.5,1", "--paths", "3", "--step", step)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --step {float(step):g} over tenor 1 needs {count} Euler steps, "
        f"more than the 1000000 allowed\n"
    )


@pytest.mark.parametrize(("paths", "step", "count"), [
    ("100000000", "1e-06", "1e+14"),  # each bound alone lets this through
    ("10000001", "0.001", "1e+10"),  # one path past the bound
])
def test_mc_check_refuses_more_path_steps_than_it_can_finish(market_dir, capsys, monkeypatch,
                                                             paths, step, count):
    def no_simulation(*args, **kwargs):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(ssrd.cli, "mc_estimate", no_simulation)
    code = run_cli("mc-check", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"),
                   "--tenors", "0.5,1", "--paths", paths, "--step", step)
    assert code == 2
    steps = f"{1.0 / float(step):.6g}"
    assert capsys.readouterr().err == (
        f"error: --paths {paths} over {steps} Euler steps needs {count} path-steps, "
        f"more than the 1e+10 allowed\n"
    )


def test_mc_check_runs_a_grid_of_a_million_steps(market_dir, monkeypatch):
    # 1 / 1e-6 rounds to 999999.9999999999 steps: at the limit, not past it
    steps = []

    def spy(params, T, *, config, at):
        steps.append(math.ceil(T / config.step))
        return [{"v": (1.0, 0.1), "h": (1.0, 0.1), "q": (1.0, 0.1)} for _ in at]

    monkeypatch.setattr(ssrd.cli, "mc_estimate", spy)
    code = run_cli("mc-check", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"),
                   "--tenors", "1", "--paths", "3", "--step", "1e-6")
    assert code == 0 and steps == [1_000_000]


def test_nonconverged_calibration_exits_three(market_dir, capsys, monkeypatch):
    import ssrd.cli as cli_mod

    def fake_calibrate(curve, **kw):
        return CalibrationResult(
            x=np.array([0.2, 0.03, 0.05]), objective=1.0, iterations=99,
            n_eval=100, converged=False,
        )

    monkeypatch.setattr(cli_mod, "calibrate_rates", fake_calibrate)
    code = run_cli("calibrate-rates", "--curve", str(market_dir / "curve.csv"))
    assert code == 3
    assert "converged  = false" in capsys.readouterr().out


# --------------------------------------------------------------------------
# One report path: what a command prints is what it writes
# --------------------------------------------------------------------------

COMMANDS = ("calibrate-rates", "match-vol", "calibrate-cds", "price",
            "survival", "bootstrap", "mc-check", "full-pipeline")


@pytest.fixture(scope="module")
def reports(market_dir, tmp_path_factory):
    """Every subcommand run once with --out: its exit code, stdout and report directory."""
    curve, quotes, config, params = (
        str(market_dir / f) for f in ("curve.csv", "quotes.csv", "config.txt", "params.txt")
    )
    calibration = ["--curve", curve, "--quotes", quotes, "--config", config]
    argv = {
        "calibrate-rates": ["--curve", curve],
        "match-vol": ["--curve", curve, "--quotes", quotes],
        "calibrate-cds": calibration,
        "price": ["--params", params, "--config", config, "--tenors", "1,2.5,5"],
        "survival": ["--params", params, "--config", config, "--tenors", "1,3"],
        "bootstrap": ["--quotes", quotes, "--config", config],
        "mc-check": ["--params", params, "--config", config, "--tenors", "1,3",
                     "--paths", "400", "--step", "0.05"],
        "full-pipeline": calibration,
    }
    runs = {}
    for command in COMMANDS:
        out = tmp_path_factory.mktemp(command)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run_cli(command, *argv[command], "--out", str(out))
        runs[command] = code, stdout.getvalue(), out
    return runs


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_prints_the_report_it_writes(reports, command):
    code, stdout, out = reports[command]
    assert code == 0
    assert stdout.startswith(f"== {command} ==")
    assert (out / f"{command}.txt").read_text() == stdout
    assert (out / f"{command}.csv").is_file()
    assert json.loads((out / f"{command}.json").read_text())["command"] == command


def test_full_pipeline_is_calibrate_cds_plus_survival(reports):
    cds, full = (reports[c][2] / c for c in ("calibrate-cds", "full-pipeline"))
    cds_rows = [ln.split(",") for ln in cds.with_suffix(".csv").read_text().splitlines()]
    full_rows = [ln.split(",") for ln in full.with_suffix(".csv").read_text().splitlines()]
    assert [row[:4] for row in full_rows] == cds_rows
    assert full_rows[0][4:] == ["survival_market", "survival_model"]
    params = [list(json.loads(p.with_suffix(".json").read_text())["params"].items())
              for p in (cds, full)]
    assert params[0] == params[1]


# --------------------------------------------------------------------------
# Input-error paths (exit 2)
# --------------------------------------------------------------------------


def test_missing_file_names_the_path(market_dir, tmp_path, capsys):
    # A file that is absent, a directory where a file is read, or a file
    # where --out wants a directory: one error line naming it, exit 2.
    (tmp_path / "taken").write_text("")
    params, taken, here = str(market_dir / "params.txt"), str(tmp_path / "taken"), str(tmp_path)
    cases = [
        (("calibrate-rates", "--curve", here), here),
        (("bootstrap", "--quotes", here), here),
        (("price", "--params", params, "--tenors", "1", "--config", here), here),
        (("price", "--params", here, "--tenors", "1"), here),
        (("survival", "--params", params, "--tenors", "1", "--out", taken), taken),
        (("calibrate-rates", "--curve", "/nonexistent/curve.csv"),
         "error: no such file: /nonexistent/curve.csv"),
    ]
    for argv, culprit in cases:
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert culprit in err


def test_repeated_key_in_a_key_value_file_exits_two(market_dir, tmp_path, capsys):
    # A second value for a key is an input error, not a silent override.
    config = tmp_path / "config.txt"
    config.write_text("roll=anniversary\norder=1\norder=2\n")
    code = run_cli("price", "--params", str(market_dir / "params.txt"),
                   "--config", str(config), "--tenors", "1")
    assert code == 2
    assert capsys.readouterr().err == f"error: config {config}:3: repeated key 'order'\n"

    params = tmp_path / "params.txt"
    params.write_text((market_dir / "params.txt").read_text() + "rho=0.5\n")
    code = run_cli("price", "--params", str(params),
                   "--config", str(market_dir / "config.txt"), "--tenors", "1")
    assert code == 2
    assert capsys.readouterr().err == f"error: params {params}:10: repeated key 'rho'\n"

    quotes = tmp_path / "quotes.csv"
    quotes.write_text("# currency=USD\n# Currency=EUR\n" + (market_dir / "quotes.csv").read_text())
    assert run_cli("bootstrap", "--quotes", str(quotes)) == 2
    assert capsys.readouterr().err == f"error: quotes {quotes}:2: repeated key 'currency'\n"


def test_rate_curve_whose_discount_factor_overflows_exits_two(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text("# mode=rate\n# r0=0.01\n1,0.02\n10,-100\n")
    assert run_cli("calibrate-rates", "--curve", str(curve)) == 2
    assert capsys.readouterr().err == (
        f"error: curve {curve}: rate -100.0 at 10.0y overflows its discount factor\n"
    )


def test_dated_schedule_past_the_last_date_exits_two(market_dir, tmp_path, capsys):
    config = tmp_path / "config.txt"
    for roll in ("fixed", "anniversary"):
        config.write_text(f"roll={roll}\nvaluation=2024-01-01\n")
        code = run_cli("price", "--params", str(market_dir / "params.txt"),
                       "--config", str(config), "--tenors", "8000")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a 8000y schedule from 2024-01-01 runs past 9999-12-31\n"
        )


def test_undated_schedule_longer_than_any_dated_one_exits_two(market_dir, tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text("roll=anniversary\n")
    code = run_cli("price", "--params", str(market_dir / "params.txt"),
                   "--config", str(config), "--tenors", "1e6")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: an undated schedule runs at most 9999 years, got 1e+06\n"
    )


def test_model_the_pricing_grid_refuses_exits_two(market_dir, tmp_path, capsys):
    params = tmp_path / "params.txt"
    params.write_text((market_dir / "params.txt").read_text()
                      .replace(f"alpha1={RATE.alpha}", "alpha1=1e8"))
    for command in ("price", "mc-check"):
        code = run_cli(command, "--params", str(params), "--tenors", "1,5",
                       "--config", str(market_dir / "config.txt"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: decay rate 1e+08 over [0, 5] needs 5e+08 grid gaps, "
            "more than the 16384 allowed\n"
        )


def _bent_curve(path, a):
    """The fixture curve times exp(-a t^2 e^{-t/2}): a hump for a > 0, a dip for a < 0."""
    pillars = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0)
    lines = ["# mode=df", f"# r0={RATE.x0!r}"] + [
        f"{t!r},{float(cir_bond(RATE, 0.0, t)) * math.exp(-a * t * t * math.exp(-t / 2))!r}"
        for t in pillars
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def _run_capped(*argv):
    """``python -m ssrd`` in a child under a 4 GB address-space cap and a 10 s timeout,
    so that a regression fails here instead of taking the host's memory."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4_000_000_000, 4_000_000_000))

    src = str(Path(ssrd.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "ssrd", *argv], capture_output=True,
                          text=True, env=env, timeout=10, preexec_fn=cap)


# The rate fit's warning, recorded as a report note; none reaches stderr.
_BOUND_NOTE = (r"^note: rate fit ended on the mean-reversion bound: "
               r"alpha1 = 49\.99\d+, bound 50$")


def test_full_pipeline_on_a_humped_curve_ends_with_a_message(market_dir, tmp_path):
    # No CIR curve has this hump.  Unbounded, the rate fit answered it with
    # alpha1 near 3.5e8, and a credit ladder at that speed would need 1.8e9
    # grid gaps (13 GiB for its gap index alone).  The fit now stops on the
    # bound alpha1 = 50 and says so: no convergence, exit 3.
    curve = _bent_curve(tmp_path / "humped.csv", 0.01)
    proc = _run_capped("full-pipeline", "--curve", str(curve),
                       "--quotes", str(market_dir / "quotes.csv"),
                       "--config", str(market_dir / "config.txt"))
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert re.search(_BOUND_NOTE, proc.stdout, re.M)
    assert re.search(r"^\s*alpha1\s+= 50$", proc.stdout, re.M)
    assert re.search(r"^\s*converged\s+= false$", proc.stdout, re.M)


def test_calibrate_rates_on_a_humped_curve_exits_three(tmp_path):
    curve = _bent_curve(tmp_path / "humped.csv", 0.01)
    proc = _run_capped("calibrate-rates", "--curve", str(curve))
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert re.search(_BOUND_NOTE, proc.stdout, re.M)
    assert re.search(r"^\s*converged\s+= false$", proc.stdout, re.M)


def test_credit_fit_warnings_are_report_notes(market_dir, tmp_path, capsys):
    # Four quotes for five parameters: the under-determined warning is a note
    # of the report, in the text and the JSON, and nothing reaches stderr.
    quotes = tmp_path / "quotes.csv"
    lines = (market_dir / "quotes.csv").read_text().splitlines()
    quotes.write_text("\n".join(lines[:5]) + "\n")  # the header comment and 4 quotes
    out = tmp_path / "out"
    run_cli("calibrate-cds", "--curve", str(market_dir / "curve.csv"), "--quotes", str(quotes),
            "--config", str(market_dir / "config.txt"), "--out", str(out))
    captured = capsys.readouterr()
    note = "quotes < parameters (4 < 5); the fit is under-determined"
    assert captured.err == ""
    assert f"note: {note}\n" in captured.out
    assert json.loads((out / "calibrate-cds.json").read_text())["notes"] == [note]


def test_warnings_of_a_fit_that_cannot_start_reach_stderr(market_dir, tmp_path, capsys):
    # The humped curve ends the rate fit on alpha1 = 50 and four quotes leave
    # the credit fit under-determined; the start point's grid, alpha1 + alpha2
    # = 50.5 over 400 years, is refused.  No report is left to carry the two
    # warnings, so they reach stderr as notes ahead of the error, each once.
    curve = _bent_curve(tmp_path / "humped.csv", 0.01)
    quotes = tmp_path / "quotes.csv"
    quotes.write_text("1,99,101\n2,109,111\n5,119,121\n400,129,131\n")
    code = run_cli("calibrate-cds", "--curve", str(curve), "--quotes", str(quotes),
                   "--config", str(market_dir / "config.txt"))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 3
    assert re.match(_BOUND_NOTE, lines[0])
    assert lines[1] == "note: quotes < parameters (4 < 5); the fit is under-determined"
    assert lines[2].startswith("error: credit fit cannot start: the pricing grid refuses")


@pytest.mark.parametrize("quote", ["1e200,2e200", "1e300,2e300"])
def test_credit_fit_whose_start_cannot_be_priced_exits_two(market_dir, tmp_path, capsys, quote):
    # Quotes this large put the credit start where its objective is nan; at
    # 1e300 the start simplex's bump also overflows exp.  Either is refused
    # before the search, with one line and no traceback.
    quotes = tmp_path / "quotes.csv"
    quotes.write_text("".join(f"{t},{quote}\n" for t in TENORS))
    code = run_cli("calibrate-cds", "--curve", str(market_dir / "curve.csv"),
                   "--quotes", str(quotes), "--config", str(market_dir / "config.txt"))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: credit fit cannot start: its objective at the start "
                            "point is nan\n")


def test_full_pipeline_on_a_dipped_curve_converges(market_dir, tmp_path):
    # The mirror image of the hump is fitted with alpha1 near 5.7e-7, far
    # below the bound.
    curve = _bent_curve(tmp_path / "dipped.csv", -0.01)
    proc = _run_capped("full-pipeline", "--curve", str(curve),
                       "--quotes", str(market_dir / "quotes.csv"),
                       "--config", str(market_dir / "config.txt"))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert re.search(r"^\s*alpha1\s+= 5\.\d+e-07$", proc.stdout, re.M)


def test_fixed_roll_from_the_first_date_prices(market_dir, tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text("roll=fixed\nvaluation=0001-01-01\n")
    code = run_cli("price", "--params", str(market_dir / "params.txt"),
                   "--config", str(config), "--tenors", "1")
    assert code == 0
    assert capsys.readouterr().err == ""


def test_frequency_that_does_not_divide_a_year_exits_two(market_dir, tmp_path, capsys):
    config = tmp_path / "config.txt"
    for roll in ("fixed", "anniversary"):
        config.write_text(f"roll={roll}\nfrequency_months=5\nvaluation=2024-03-01\n")
        code = run_cli("price", "--params", str(market_dir / "params.txt"),
                       "--config", str(config), "--tenors", "1")
        assert code == 2
        assert "frequency_months must divide a year" in capsys.readouterr().err


@pytest.mark.parametrize("tenor", ["nan", "inf"])
def test_non_finite_quote_tenor_exits_two(market_dir, tmp_path, capsys, tenor):
    quotes = tmp_path / "quotes.csv"
    quotes.write_text(f"1,20,21\n{tenor},30,31\n")
    for argv in (("bootstrap", "--quotes", str(quotes)),
                 ("calibrate-cds", "--curve", str(market_dir / "curve.csv"),
                  "--quotes", str(quotes), "--config", str(market_dir / "config.txt"))):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: non-finite tenor {tenor}\n"


def test_missing_required_flag(capsys):
    code = run_cli("price", "--tenors", "1.0")
    assert code == 2
    assert "--params is required" in capsys.readouterr().err


def test_bad_tenor_list(market_dir, capsys):
    code = run_cli("price", "--params", str(market_dir / "params.txt"),
                   "--tenors", "1.0,abc")
    assert code == 2
    assert "bad tenor list" in capsys.readouterr().err


def test_params_file_schema_errors(market_dir, tmp_path, capsys):
    p = tmp_path / "p.txt"
    p.write_text("alpha1=0.2\nzeta=0.4\n")
    code = run_cli("price", "--params", str(p), "--tenors", "1.0")
    assert code == 2
    assert "unknown key 'zeta'" in capsys.readouterr().err

    p2 = tmp_path / "p2.txt"
    p2.write_text("alpha1=0.2\nbeta1=0.03\n")
    code = run_cli("price", "--params", str(p2), "--tenors", "1.0")
    assert code == 2
    assert "missing keys" in capsys.readouterr().err


def test_negative_short_rate_is_rejected_once(market_dir, tmp_path, capsys):
    p = tmp_path / "curve.csv"
    p.write_text((market_dir / "curve.csv").read_text().replace(f"# r0={RATE.x0!r}", "# r0=-0.01"))
    code = run_cli("calibrate-rates", "--curve", str(p))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: short rate r0 must be finite and non-negative, got -0.01"]


def test_values_the_commands_cannot_take_exit_two(market_dir, tmp_path, capsys):
    code = run_cli("mc-check", "--params", str(market_dir / "params.txt"),
                   "--config", str(market_dir / "config.txt"), "--tenors", "1.0,0")
    assert code == 2
    assert "tenors must be positive" in capsys.readouterr().err


def test_price_takes_a_negative_short_rate_like_the_library(market_dir, tmp_path, capsys):
    p = tmp_path / "p.txt"
    p.write_text((market_dir / "params.txt").read_text().replace(f"r0={RATE.x0}", "r0=-0.003"))
    out = tmp_path / "reports"
    with pytest.warns(RuntimeWarning, match="state anchor below"):
        code = run_cli("price", "--params", str(p), "--config", str(market_dir / "config.txt"),
                       "--tenors", "1,3", "--out", str(out))
    assert code == 0

    params = make_model("mid2", rho=0.05469, r0=-0.003)
    with pytest.warns(RuntimeWarning, match="state anchor below"):
        curve = spread_curve(params, (1.0, 3.0), PricingConfig(roll="anniversary"))
    got = [line.split(",")[1] for line in (out / "price.csv").read_text().splitlines()[1:]]
    assert got == [fmt_bps(s) for _, s in curve]


def test_bad_simulation_controls_exit_two(market_dir, capsys):
    for flag, value, fragment in (("--seed", "-1", "seed must be non-negative"),
                                  ("--paths", "0", "path count must be >= 1")):
        code = run_cli("mc-check", "--params", str(market_dir / "params.txt"),
                       "--config", str(market_dir / "config.txt"), "--tenors", "1.0",
                       flag, value)
        assert code == 2
        assert fragment in capsys.readouterr().err


def test_flags_a_command_does_not_read_exit_two(market_dir, capsys):
    for argv in (("calibrate-rates", "--curve", str(market_dir / "curve.csv"), "--seed", "3"),
                 ("survival", "--params", str(market_dir / "params.txt"), "--tenors", "1",
                  "--weights", "uniform")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_internal_value_error_is_not_reported_as_bad_input(market_dir, monkeypatch):
    import ssrd.cli as cli_mod

    def broken(*a, **kw):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli_mod, "spread_curve", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run_cli("price", "--params", str(market_dir / "params.txt"),
                "--config", str(market_dir / "config.txt"), "--tenors", "1.0")


def test_invalid_parameter_values_exit_two(market_dir, tmp_path, capsys):
    p = tmp_path / "p.txt"
    p.write_text((market_dir / "params.txt").read_text().replace("rho=0.05469", "rho=1.5"))
    code = run_cli("price", "--params", str(p), "--tenors", "1.0")
    assert code == 2
    assert "correlation must lie in [-1, 1]" in capsys.readouterr().err


def test_readme_synopsis_lists_the_flags_each_command_takes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = {}
    for line in synopsis.splitlines():
        code = line.split("#", 1)[0]  # the comments mention flags too
        if code.split()[:1] == ["ssrd"]:
            command = code.split()[1]
            listed[command] = set()
        listed[command].update(re.findall(r"--([a-z]+)", code))
    assert listed == {name: set(flags.split()) for name, _, flags, _ in ssrd.cli._COMMANDS}


def test_module_entry_point_runs():
    # the child imports the same ssrd as this process, installed or not
    src = str(Path(ssrd.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "ssrd", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    for cmd in ("calibrate-rates", "match-vol", "calibrate-cds", "price",
                "survival", "bootstrap", "mc-check", "full-pipeline"):
        assert cmd in proc.stdout
