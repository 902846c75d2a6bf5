"""Smoke tests for the study scripts under ``scripts/``.

Both scripts drive the expansion engine end to end; each ``main(argv)`` is
called in-process with ``scripts/`` on the import path.
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
