"""Spans around calls into each dpp_lab module, for the traced benchmark run.

The package's callers look their collaborators up as module globals at call
time (``cli.run_batch``, ``montecarlo.simulate_chunk``, ...).  The traced run
therefore swaps a timing wrapper onto the attribute of the *calling* module,
which records a span without touching anything under ``src/``.  Untraced
runs install nothing.

A span is ``[name, start, end, parent, work]``: perf_counter seconds, the
index of the enclosing span on the same thread (or None), and a work count
(draws, path-slots, grid points, bytes) taken from the call's arguments.
Spans stay in memory until the run ends.

This module imports neither numpy nor dpp_lab at import time, so that the
worker's set-up timer covers those imports.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("controller.run_path_s", "s", "lower"),
    ("controller.slots_per_s", "1/s", "higher"),
    ("core.write_trace_csv_s", "s", "lower"),
    ("core.write_trace_csv_mb_per_s", "MB/s", "higher"),
    ("core.read_trace_csv_s", "s", "lower"),
    ("core.read_trace_csv_mb_per_s", "MB/s", "higher"),
    ("core.trace_bytes", "bytes", "lower"),
    ("events.rng_s", "s", "lower"),
    ("events.draws", "count", "lower"),
    ("montecarlo.chunk_kf_s", "s", "lower"),
    ("montecarlo.chunk_kf_path_slots_per_s", "1/s", "higher"),
    ("montecarlo.chunk_nokf_s", "s", "lower"),
    ("montecarlo.chunk_nokf_path_slots_per_s", "1/s", "higher"),
    ("montecarlo.chunks", "count", "lower"),
    ("montecarlo.chunk_overlap", "ratio", "higher"),
    ("montecarlo.run_batch_self_s", "s", "lower"),
    ("oracle.stationary_s", "s", "lower"),
    ("simplex.solve_lp_s", "s", "lower"),
    ("simplex.solve_lp_calls", "count", "lower"),
    ("analysis.constants_s", "s", "lower"),
    ("oracle.simplex_grid_s", "s", "lower"),
    ("oracle.grid_eval_s", "s", "lower"),
    ("oracle.grid_points", "count", "lower"),
    ("configfile.load_config_s", "s", "lower"),
    ("schema.validate_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("tracing_overhead_s", "s", "lower"),
)


class Tracer:
    """Records spans for calls made through the attributes it patches."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, work=None):
        """Run ``fn(*args, **kwargs)`` inside a span.  A call made inside a
        span of the same name (recursion) is not recorded again.
        ``work(args, kwargs)`` runs after the call and gives the span's count."""
        kwargs = kwargs or {}
        stack = self._stack()
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, 0]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
        if work is not None:
            rec[4] = work(args, kwargs)
        return result

    def patch(self, owner, attr: str, name, work=None) -> None:
        """Swap a span-recording wrapper onto ``owner.attr``.  ``name`` is a
        span name or a function of the bound arguments that returns one."""
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if isinstance(name, str):
                span = name
            else:
                span = name(sig.bind(*args, **kwargs).arguments)
            count = None
            if work is not None:
                def count(a, k):
                    bound = sig.bind(*a, **k)
                    bound.apply_defaults()
                    return work(bound.arguments)
            return self.call(span, fn, args, kwargs, count)

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, f)
            f.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children may overlap when they ran on worker threads)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def install(tracer: Tracer) -> None:
    """Patch the call sites the benchmark's workloads go through."""
    from dpp_lab import cli, configfile, controller, core, montecarlo, oracle, schema

    def chunk_name(a):
        return "montecarlo.chunk_kf" if a.get("key_feature") else "montecarlo.chunk_nokf"

    def file_bytes(key):
        return lambda a: os.path.getsize(a[key])

    def grid_points(a):
        return oracle.grid_points_budget(a["spec"], a["resolution"])

    table = [
        (configfile, "load_config", "configfile.load_config", None),
        (cli, "main", "cli.main", None),
        (cli, "load_config", "configfile.load_config", None),
        (cli, "run_path", "controller.run_path", lambda a: a["T"]),
        (cli, "write_trace_csv", "core.write_trace_csv", file_bytes("path")),
        (cli, "run_batch", "montecarlo.run_batch", None),
        (cli, "solve_stationary_optimum", "oracle.stationary", None),
        (core, "read_trace_csv", "core.read_trace_csv", file_bytes("path")),
        (controller, "sample_block", "events.rng", lambda a: a["T"]),
        (montecarlo, "uniform_across", "events.rng", lambda a: a["seeds"].shape[0]),
        (montecarlo, "simulate_paths", "montecarlo.simulate_paths", None),
        (montecarlo, "simulate_chunk", chunk_name,
         lambda a: a["seeds"].shape[0] * a["T"]),
        (montecarlo, "constants_for_horizon", "analysis.constants", None),
        (montecarlo, "compute_constants", "analysis.constants", None),
        (montecarlo, "solve_stationary_optimum", "oracle.stationary", None),
        (oracle, "solve_stationary_optimum", "oracle.stationary", None),
        (oracle, "solve_max_slackness", "oracle.stationary", None),
        (oracle, "solve_lp", "simplex.solve_lp", None),
        (oracle, "simplex_grid", "oracle.simplex_grid", None),
        (oracle, "grid_stationary_optimum", "oracle.grid", grid_points),
        (oracle, "grid_max_slackness", "oracle.grid", grid_points),
        (schema, "validate", "schema.validate", None),
    ]
    for owner, attr, name, work in table:
        tracer.patch(owner, attr, name, work)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but tracing_overhead_s)."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    count: dict[str, int] = {}
    for s, own_s in zip(spans, own):
        name = s[0]
        total[name] = total.get(name, 0.0) + (s[2] - s[1])
        self_s[name] = self_s.get(name, 0.0) + own_s
        work[name] = work.get(name, 0) + s[4]
        count[name] = count.get(name, 0) + 1

    def t(name):
        return total.get(name, 0.0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0.0 else 0.0

    chunk_s = t("montecarlo.chunk_kf") + t("montecarlo.chunk_nokf")
    return {
        "controller.run_path_s": t("controller.run_path"),
        "controller.slots_per_s": rate(work.get("controller.run_path", 0),
                                       t("controller.run_path")),
        "core.write_trace_csv_s": t("core.write_trace_csv"),
        "core.write_trace_csv_mb_per_s": rate(work.get("core.write_trace_csv", 0) / 1e6,
                                              t("core.write_trace_csv")),
        "core.read_trace_csv_s": t("core.read_trace_csv"),
        "core.read_trace_csv_mb_per_s": rate(work.get("core.read_trace_csv", 0) / 1e6,
                                             t("core.read_trace_csv")),
        "core.trace_bytes": work.get("core.write_trace_csv", 0),
        "events.rng_s": t("events.rng"),
        "events.draws": work.get("events.rng", 0),
        "montecarlo.chunk_kf_s": t("montecarlo.chunk_kf"),
        "montecarlo.chunk_kf_path_slots_per_s": rate(work.get("montecarlo.chunk_kf", 0),
                                                     t("montecarlo.chunk_kf")),
        "montecarlo.chunk_nokf_s": t("montecarlo.chunk_nokf"),
        "montecarlo.chunk_nokf_path_slots_per_s": rate(work.get("montecarlo.chunk_nokf", 0),
                                                       t("montecarlo.chunk_nokf")),
        "montecarlo.chunks": (count.get("montecarlo.chunk_kf", 0)
                              + count.get("montecarlo.chunk_nokf", 0)),
        "montecarlo.chunk_overlap": rate(chunk_s, t("montecarlo.simulate_paths")),
        "montecarlo.run_batch_self_s": self_s.get("montecarlo.run_batch", 0.0),
        "oracle.stationary_s": t("oracle.stationary"),
        "simplex.solve_lp_s": t("simplex.solve_lp"),
        "simplex.solve_lp_calls": count.get("simplex.solve_lp", 0),
        "analysis.constants_s": t("analysis.constants"),
        "oracle.simplex_grid_s": t("oracle.simplex_grid"),
        "oracle.grid_eval_s": self_s.get("oracle.grid", 0.0),
        "oracle.grid_points": work.get("oracle.grid", 0),
        "configfile.load_config_s": t("configfile.load_config"),
        "schema.validate_s": t("schema.validate"),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
