"""Rendering of calibration and pricing runs as text, CSV, and JSON.

One :class:`CalibrationReport` carries everything a command produced:
a per-tenor table, the fitted parameter block, per-step timings, and an
echo of every effective configuration value (defaults included, so a
report is self-describing).  All cell values are formatted once, at
construction, with fixed precisions -- spreads in bps with 3 decimals,
relative errors as percentages with 5 decimals -- which makes the three
renderings trivially consistent and byte-stable for fixed inputs.
Timings are the one run-dependent field; consumers comparing reports
byte-for-byte should mask the timing block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "CalibrationReport",
    "fmt_bps",
    "fmt_param",
    "fmt_prob",
    "relative_error_pct",
]


def fmt_bps(x: float) -> str:
    return f"{1e4 * x:.3f}"


def fmt_prob(x: float) -> str:
    return f"{x:.7f}"


def fmt_param(x: float) -> str:
    return f"{x:.6g}"


def relative_error_pct(model: float, market: float) -> str:
    """|model - market| / market as a percentage, 5 decimals."""
    return f"{100.0 * abs(model - market) / abs(market):.5f}"


@dataclass(frozen=True)
class CalibrationReport:
    """A finished run: one table plus labelled scalar blocks."""

    command: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    params: tuple[tuple[str, str], ...] = field(default=())
    timings: tuple[tuple[str, str], ...] = field(default=())
    config_echo: tuple[tuple[str, str], ...] = field(default=())
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        for r in self.rows:
            if len(r) != len(self.headers):
                raise ValueError("row width does not match headers")

    def text(self) -> str:
        """Aligned table followed by the scalar blocks."""
        out = [f"== {self.command} =="]
        if self.rows:
            widths = [
                max(len(h), max(len(r[i]) for r in self.rows))
                for i, h in enumerate(self.headers)
            ]
            def line(cells):
                return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
            out.append(line(self.headers))
            out.append("  ".join("-" * w for w in widths))
            out.extend(line(r) for r in self.rows)
        for title, pairs in (
            ("fitted parameters", self.params),
            ("timings (seconds)", self.timings),
            ("config", self.config_echo),
        ):
            if pairs:
                out.append("")
                out.append(f"{title}:")
                key_w = max(len(k) for k, _ in pairs)
                out.extend(f"  {k.ljust(key_w)} = {v}" for k, v in pairs)
        if self.notes:
            out.append("")
            out.extend(f"note: {n}" for n in self.notes)
        return "\n".join(out) + "\n"

    def csv(self) -> str:
        """The per-tenor table alone, machine-readable."""
        lines = [",".join(self.headers)]
        lines.extend(",".join(r) for r in self.rows)
        return "\n".join(lines) + "\n"

    def json(self) -> str:
        obj = {
            "command": self.command,
            "rows": [dict(zip(self.headers, r)) for r in self.rows],
            "params": dict(self.params),
            "timings": dict(self.timings),
            "config": dict(self.config_echo),
            "notes": list(self.notes),
        }
        return json.dumps(obj, indent=2) + "\n"
