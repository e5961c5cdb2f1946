"""Span tracing around the public functions of each ``curlgauge`` module (layer).

The tracer wraps each function wherever callers look it up: the module
attribute, every ``from ... import`` binding in other ``curlgauge`` modules,
and the class attribute for ``ConditionalOracle.log_dist``. Each call made
while the tracer is active records a span (name, start, end, parent span,
job number) in memory; the spans are written out once, when the run ends.

A span's self time is its duration minus the time covered by its child
spans. Calls and self times are aggregated per function as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# layer (module) -> traced public functions
LAYERS = {
    "core": ("log_dist", "stable_uniform", "derived_seed", "context_class_index", "save_model", "model_from_dict"),
    "pseudojoint": (
        "curl_local",
        "pseudo_joint_log_prob",
        "pseudo_joint_table",
        "order_swap_kl",
        "order_consistency_check",
        "ecirc_abs",
        "curl_scan_report",
    ),
    "ordererror": ("order_cross_entropy", "rank_orders", "local_estimation_error"),
    "dependence": ("total_correlation", "dependence_report"),
    "decoding": ("run_scheduler", "commutator", "conflict_score", "stress_test"),
    "synth": ("generate_joint", "train_tabular", "penalty_batch"),
    "reports": ("load_config", "resolve_model", "resolve_contexts", "build_report", "write_report_json", "emit_plot_data"),
}
JOB_SPAN = "cli.main"


def _log_dist_key(args):
    oracle, position, assigned = args[:3]
    return id(oracle), position, tuple(sorted(assigned.items()))


def _curl_local_key(args):
    oracle, context, i, j, a, b = args[:6]
    return id(oracle), context.assigned_key(), i, j, a, b


# functions whose distinct argument keys are counted, as a share of their calls
DISTINCT_KEYS = {"core.log_dist": _log_dist_key, "pseudojoint.curl_local": _curl_local_key}


class Tracer:
    """Wraps the layer functions and records a span for each call made during a job."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_job = array("L")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._child = [0.0]
        self._keys: dict[str, set] = {name: set() for name in DISTINCT_KEYS}
        self.distinct = {name: 0 for name in DISTINCT_KEYS}
        self.active = False
        self.job = 0
        self._restore: list[tuple[object, str, object]] = []
        self._job_id = self._name_id(JOB_SPAN)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _open(self, nid: int, start: float) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_job.append(self.job)
        self.span_start.append(start)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _close(self, idx: int, nid: int, end: float) -> None:
        self.span_end[idx] = end
        self._stack.pop()
        covered = self._child.pop()
        duration = end - self.span_start[idx]
        self.self_s[nid] += duration - covered
        self.calls[nid] += 1
        self._child[-1] += duration

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        key = DISTINCT_KEYS.get(name)
        keys = self._keys.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key is not None:
                keys.add(key(args))
            idx = self._open(nid, perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, nid, perf())

        return traced

    def install(self) -> None:
        """Replace every lookup site of the traced functions with a wrapper."""
        modules = [m for n, m in sys.modules.items() if n == "curlgauge" or n.startswith("curlgauge.")]
        for layer, functions in LAYERS.items():
            module = importlib.import_module(f"curlgauge.{layer}")
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                if fn_name == "log_dist":
                    owner = module.ConditionalOracle
                    wrapped = self._wrap(name, owner.log_dist)
                    self._restore.append((owner, fn_name, owner.log_dist))
                    owner.log_dist = wrapped
                    continue
                original = getattr(module, fn_name)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._restore.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def run_job(self, call):
        """Run one job as a ``cli.main`` span; returns what the call returns."""
        self.job += 1
        self.active = True
        start = time.perf_counter()
        idx = self._open(self._job_id, start)
        try:
            return call()
        finally:
            self._close(idx, self._job_id, time.perf_counter())
            self.active = False
            for name, keys in self._keys.items():
                self.distinct[name] += len(keys)
                keys.clear()

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """(value, unit) of calls and self seconds per round for every traced function."""
        out = {}
        for nid, name in enumerate(self.names):
            if name != JOB_SPAN:
                out[f"{name}.calls"] = (self.calls[nid] / rounds, "count")
            out[f"{name}.self_s"] = (self.self_s[nid] / rounds, "s")
        for name, distinct in self.distinct.items():
            calls = self.calls[self.names.index(name)]
            out[f"{name}.distinct_share"] = (distinct / calls if calls else 0.0, "ratio")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            **{
                key: np.frombuffer(values, dtype=np.dtype(values.typecode))
                for key, values in (
                    ("name", self.span_name),
                    ("parent", self.span_parent),
                    ("job", self.span_job),
                    ("start", self.span_start),
                    ("end", self.span_end),
                )
            },
        )
