"""Tests of the benchmark itself: each correctness gate has a negative control
that makes it fail, the tracer's span arithmetic, and BENCHMARK.json agreeing
with the code.  Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dpp_lab import controller, core, oracle  # noqa: E402
from dpp_lab.configfile import parse_config_text  # noqa: E402
from dpp_lab.events import builtin_spec  # noqa: E402


class TinyServer(workloads.VerifyServer):
    paths = 64
    T = 50


class TinySingle(workloads.VerifySingle):
    paths = 512  # enough validation paths for the Theorem2/3 Wilson bounds
    T = 50


class TinyTrace(workloads.Trace):
    T = 2000


class TinyGrid(workloads.OracleGrid):
    instances = (((2,), 1), ((2, 2), 2))
    resolution = 40


def _run_workload(wl, tmp_path, chaos=None, tracer=None):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    wl.make_inputs(5, str(inputs))
    if tracer is not None:
        tracing.install(tracer)
    try:
        state = wl.setup(str(inputs))
        outcome = wl.run(state, str(out), chaos)
    finally:
        if tracer is not None:
            tracer.restore()
    return wl.gate(state, str(out), outcome, True)


def _failed(checks):
    return [c for c in checks if not c[1]]


@pytest.mark.parametrize("wl", [TinyServer, TinySingle, TinyTrace, TinyGrid])
def test_gates_pass_on_correct_runs(wl, tmp_path):
    checks = _run_workload(wl, tmp_path)
    assert checks and not _failed(checks)


def test_chaos_fails_the_verify_gate(tmp_path):
    failed = _failed(_run_workload(TinyServer, tmp_path, chaos="worst-action"))
    assert "exit code 0" in [c[0] for c in failed]


def test_chaos_counts_as_failed_ops_end_to_end():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "verify-server", "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--chaos", "worst-action"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_one_changed_byte_fails_the_round_trip_gate(tmp_path):
    spec = builtin_spec("server-scheduling-3x2", 100.0)
    path = str(tmp_path / "trace.csv")
    core.write_trace_csv(controller.run_path(spec, 3, 300), path)
    assert workloads.roundtrip_gate(spec, 3, 300, path)[0]

    with open(path, "rb") as f:
        data = bytearray(f.read())
    row_start = data.index(b"\n150,") + 1
    z0_at = row_start + len(b",".join(bytes(data[row_start:]).split(b",")[:3])) + 1
    data[z0_at] = ord("3") if data[z0_at] != ord("3") else ord("4")
    with open(path, "wb") as f:
        f.write(data)
    ok, detail = workloads.roundtrip_gate(spec, 3, 300, path)
    assert not ok and "z0" in detail


def test_perturbed_lp_value_fails_the_oracle_gate():
    import numpy as np
    rng = np.random.default_rng(9)
    spec = parse_config_text(workloads.instance_config(rng, (3, 2), 2)).build_spec()
    z_opt = oracle.solve_stationary_optimum(spec).z_opt
    xi = oracle.solve_max_slackness(spec)
    grid_opt = oracle.grid_stationary_optimum(spec, resolution=200)
    grid_xi = oracle.grid_max_slackness(spec, resolution=200)
    assert not _failed(workloads.oracle_gate("ok", z_opt, grid_opt, xi, grid_xi))
    for dz, dxi in ((0.02, 0.0), (-0.02, 0.0), (0.0, -0.02), (0.0, 0.02)):
        checks = workloads.oracle_gate("bad", z_opt + dz, grid_opt, xi + dxi, grid_xi)
        assert len(_failed(checks)) == 1


def test_self_time_subtracts_the_union_of_children():
    spans = [["p", 0.0, 10.0, None, 0],
             ["a", 1.0, 3.0, 0, 0],
             ["b", 2.0, 5.0, 0, 0],      # overlaps a
             ["c", 8.0, 12.0, 0, 0],     # runs past the parent's end
             ["d", 2.5, 2.75, 2, 0]]
    assert tracing.self_times(spans) == [4.0, 2.0, 2.75, 4.0, 0.25]


def test_tracer_nests_skips_recursion_and_restores():
    mod = types.SimpleNamespace()

    def inner(n):
        return n if n == 0 else mod.inner(n - 1)

    def outer(x, scale=2):
        return mod.inner(3) + x * scale

    mod.inner, mod.outer = inner, outer
    tracer = tracing.Tracer()
    tracer.patch(mod, "inner", "inner", work=lambda a: a["n"])
    tracer.patch(mod, "outer", lambda a: f"outer{a['x']}", work=lambda a: a["scale"])
    assert mod.outer(5) == 10
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("outer5", None, 2),
                                                         ("inner", 0, 3)]


def test_traced_run_reports_every_layer(tmp_path):
    layers = {}
    for wl in (TinyTrace, TinySingle, TinyGrid):
        tracer = tracing.Tracer()
        checks = _run_workload(wl, tmp_path / wl.__name__, tracer=tracer)
        assert not _failed(checks)
        for k, v in tracing.layer_metrics(tracer.spans).items():
            layers[k] = max(layers.get(k, 0.0), v)
    assert set(layers) == {name for name, _, _ in tracing.PER_LAYER[:-1]}
    assert [k for k, v in layers.items() if v <= 0.0] == []


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(tracing.PER_LAYER)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-server",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
