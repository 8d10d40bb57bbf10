"""The benchmark under perfbench/ patches and calls dpp_lab by name; these
tests keep that call surface in place, since the benchmark's own tests are
not part of this suite."""

import ast
import importlib
import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_installs_and_restores(tmp_path):
    # the span wrappers bind each call's arguments by name (seeds, T,
    # key_feature, path, ...), so run a small simulate and verify through them
    tracing = _load("tracing")
    from dpp_lab import cli, montecarlo
    original = montecarlo.simulate_chunk
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = single-queue-serve-idle\nV = 10.0\nT = 50\nseed = 3\n"
                   f"output = {tmp_path / 'out'}\nbatch.num_paths = 40\n"
                   "batch.checks = KeyFeature, QueueTail\n")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert montecarlo.simulate_chunk is not original
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert cli.main(["verify", "--config", str(cfg)]) == 0
    finally:
        tracer.restore()
    assert montecarlo.simulate_chunk is original
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["controller.run_path_s"] > 0 and layers["montecarlo.chunks"] == 1
    assert layers["montecarlo.chunk_kf_path_slots_per_s"] > 0


def test_tracing_sees_one_batch_per_theorem(tmp_path):
    # the tracer patches montecarlo.uniform_across by name; each theorem's
    # calibration and validation paths run as one chunk
    tracing = _load("tracing")
    from dpp_lab import cli
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = single-queue-serve-idle\nV = 10.0\nseed = 3\n"
                   f"output = {tmp_path / 'out'}\nbatch.num_paths = 12\nbatch.T = 20\n"
                   "batch.epsilon = 0.5\nbatch.checks = QueueTail, Theorem2, Theorem3\n")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert cli.main(["verify", "--config", str(cfg)]) in (0, 3)
    finally:
        tracer.restore()
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["events.rng_s"] > 0 and layers["montecarlo.chunks"] == 3


def test_workload_calls_exist():
    with open(os.path.join(PERFBENCH, "workloads.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "dpp_lab"
               for alias in node.names}
    calls = {(modules[node.value.id], node.attr)
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert {("cli", "main"), ("core", "verify_trace_dynamics"),
            ("controller", "run_path")} <= calls
    missing = [f"{m}.{a}" for m, a in sorted(calls)
               if not hasattr(importlib.import_module(f"dpp_lab.{m}"), a)]
    assert missing == []
