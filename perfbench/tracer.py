"""Spans and counters around the public functions of every ssrd module.

The tracer wraps each function in ``TRACED`` and rebinds the wrapper
everywhere an ``ssrd.*`` module holds a reference to the original:
``calibrate``, ``pricing`` and ``cli`` import by name, so patching the
defining module alone would miss their calls.  Nothing inside the package
changes.

``uninstall`` puts the originals back.  Spans are kept in memory as
``[name, start, end, parent, op]`` and written out by ``dump``.  Counts
come from arguments and return values only.  The process runs one thread
and nothing queues, so no span ever waits: wait time is zero by
construction and is not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(a, kw, index, key):
    return a[index] if len(a) > index else kw[key]


def _path_steps(a, kw, out):
    import ssrd.mc

    T = _arg(a, kw, 1, "T")
    config = a[3] if len(a) > 3 else kw.get("config", ssrd.mc.McConfig())
    return (config.n_paths * max(1, math.ceil(T / config.step)),)


_ELEMS = ("elems",)
_QUOTES = ("quotes",)
_BYTES = ("bytes",)
_bytes = lambda a, kw, out: (len(out.encode()),)  # noqa: E731

# (module, attribute, counted stats, counter returning one value per stat):
# every public function the layers name.
TRACED = (
    ("timeint", "psi", _ELEMS, lambda a, kw, out: (np.size(out),)),
    ("timeint", "theta", _ELEMS, lambda a, kw, out: (np.size(out),)),
    ("timeint", "gauss_legendre", _ELEMS, lambda a, kw, out: (out[0].size,)),
    ("timeint", "panel_nodes", _ELEMS, lambda a, kw, out: (out[0].size,)),
    ("cir", "cir_bond", (), None),
    ("cir", "cir_bond_dT", (), None),
    ("expansion", "expansion_terms", ("points",),
     lambda a, kw, out: (np.size(_arg(a, kw, 1, "maturities")),)),
    ("expansion", "survival_approx", (), None),
    ("expansion", "proxy_bond_expansion", (), None),
    ("expansion", "v_expansion", (), None),
    ("expansion", "h_expansion", (), None),
    ("pricing", "spread_ladder", _QUOTES,
     lambda a, kw, out: (len(_arg(a, kw, 2, "prefix_lengths")),)),
    ("pricing", "spread_curve", _QUOTES, lambda a, kw, out: (len(_arg(a, kw, 1, "tenors")),)),
    ("pricing", "price_cds", _QUOTES, lambda a, kw, out: (1,)),
    ("market", "load_discount_curve", (), None),
    ("market", "load_cds_quotes", (), None),
    ("market", "load_pricing_config", (), None),
    ("market", "build_schedule", (), None),
    ("simplex", "nelder_mead", ("n_eval", "iterations", "converged"),
     lambda a, kw, out: (out.n_eval, out.iterations, int(out.converged))),
    ("calibrate", "calibrate_rates", (), None),
    ("calibrate", "match_volatility", (), None),
    ("calibrate", "calibrate_cds", ("n_eval",), lambda a, kw, out: (out.n_eval,)),
    ("calibrate", "bootstrap_survival", (), None),
    ("calibrate", "run_pipeline", (), None),
    ("mc", "mc_estimate", ("path_steps",), _path_steps),
    ("report", "CalibrationReport.text", _BYTES, _bytes),
    ("report", "CalibrationReport.csv", _BYTES, _bytes),
    ("report", "CalibrationReport.json", _BYTES, _bytes),
    ("cli", "main", (), None),
)

ROOT = "bench.op"


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.op = None
        self.patched: list[tuple] = []  # (owner, attribute, original)

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, op_id):
        """The root span of one op; spans opened inside it carry ``op_id``."""
        self.op = op_id
        idx = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(idx)
            self.op = None

    def wrap(self, name: str, fn, stats, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **kw):
            idx = tracer._enter(name)
            try:
                out = fn(*a, **kw)
            finally:
                tracer._exit(idx)
            if counter is not None:
                for stat, value in zip(stats, counter(a, kw, out)):
                    tracer.counts[f"{name}.{stat}"] += value
            return out

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED and rebind it in all ssrd modules."""
        replace = {}
        for mod, attr, stats, counter in TRACED:
            module = importlib.import_module(f"ssrd.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(f"{mod}.{attr}", getattr(cls, meth), stats, counter))
                continue
            fn = getattr(module, attr)
            replace[id(fn)] = (fn, self.wrap(f"{mod}.{attr}", fn, stats, counter))
        for name, module in list(sys.modules.items()):
            if name != "ssrd" and not name.startswith("ssrd."):
                continue
            for key, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, hit[1])

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the part of it that child spans cover."""
        self_t = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return self_t

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, op), st in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "self_s": st}) + "\n")
