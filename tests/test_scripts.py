"""Smoke tests for the scripts under ``scripts/``.

Each ``main(argv)`` is called in-process with ``scripts/`` on the import
path; ``report_diff`` runs its checkouts' commands in child processes.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from ssrd.cli import main as cli_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(monkeypatch, name):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module(name)


@pytest.mark.parametrize("argv", [
    ["--set", "fast"],
    ["--set", "fast", "--rho", "0.5", "--paths", "2000", "--points", "3"],
])
def test_convergence_study_runs(monkeypatch, capsys, argv):
    assert _script(monkeypatch, "convergence_study").main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("set fast, rho ")
    assert "nan" not in out


def test_synthetic_market_refits_through_the_cli(monkeypatch, capsys, tmp_path):
    market = tmp_path / "market"
    assert _script(monkeypatch, "run_synthetic_pipeline").main(["--out", str(market)]) == 0
    capsys.readouterr()
    report = tmp_path / "report"
    rc = cli_main(["full-pipeline", "--curve", str(market / "curve.csv"),
                   "--quotes", str(market / "quotes.csv"),
                   "--config", str(market / "config.txt"), "--out", str(report)])
    assert rc == 0
    params = json.loads((report / "full-pipeline.json").read_text())["params"]
    assert float(params["max_abs_error_bps"]) <= 0.5


def test_report_diff_of_a_checkout_against_itself_moves_nothing(monkeypatch, capsys):
    root = SCRIPTS.parent
    assert _script(monkeypatch, "report_diff").main([str(root), str(root)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "no report moved"
    reports = out[1:-1]
    # 8 subcommands, calibrate-rates on two more curves; price, survival and
    # mc-check on 12 params files
    assert len(reports) == 43
    assert all(" identical (" in line and ".json" in line for line in reports)


def test_report_diff_perfbench_summary_counts_both_fits(monkeypatch, capsys, tmp_path):
    # The calibrate line states the credit fits' n_eval and the rate fits'
    # n_eval and iterations on both sides, so a bit-identity claim can
    # quote them.
    def market(rates_n_eval, rates_iterations, failed=False):
        return {"credit": [0.1], "credit_n_eval": 300, "rates_n_eval": rates_n_eval,
                "rates_iterations": rates_iterations, "failed": failed}

    sides = []
    for k, markets in enumerate(([market(879, 221), market(800, 200, True)],
                                 [market(879, 221), market(801, 200, True)])):
        side = tmp_path / f"side{k}"
        side.mkdir()
        (side / "perfbench.json").write_text(json.dumps({"0": {"price": [], "calibrate": markets}}))
        sides.append(side)
    assert not _script(monkeypatch, "report_diff")._compare_perfbench(*sides)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("seed 0 calibrate: 2 items, 1 moved; credit n_eval 600 -> 600, "
                               "rate n_eval 1679 -> 1680, rate iterations 421 -> 421, "
                               "failed 1 -> 1; ")
