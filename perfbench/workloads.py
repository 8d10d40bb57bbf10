"""The benchmark's four workloads: inputs, timed calls and correctness gates.

Each workload is a class with these steps:

- ``make_inputs(seed, inputs_dir)`` writes the config files, all derived
  from the seed (the parent process calls it once per run);
- ``setup(inputs_dir)`` loads the configs and builds the specs, which is the
  set-up a user's process pays before the first timed call;
- ``run(state, out_dir, chaos)`` makes the timed calls;
- ``gate(state, out_dir, outcome, full)`` returns the correctness checks as
  ``(name, ok, detail)`` triples.  ``full`` adds the checks too slow to repeat
  on every iteration of a run;
- ``work(state)`` counts the work items of one iteration, from the inputs.

dpp_lab and numpy are imported inside the functions so that the worker's
set-up timer covers their import.
"""

from __future__ import annotations

import json
import math
import os

GRID_TOL = 0.01               # criterion-8 tolerances
GRID_FEAS_TOL = 1e-9


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _check(checks: list, name: str, fn) -> None:
    """Append ``(name, ok, detail)``; an exception counts as a failure."""
    try:
        ok, detail = fn()
    except Exception as e:  # a gate must report, never crash the run
        ok, detail = False, f"{type(e).__name__}: {e}"
    checks.append((name, bool(ok), detail))


def _setup_run_cfg(inputs_dir: str) -> dict:
    from dpp_lab import configfile
    path = os.path.join(inputs_dir, "run.cfg")
    cfg = configfile.load_config(path)
    return {"config": path, "cfg": cfg, "spec": cfg.build_spec()}


def _schema_ok(doc_path: str, schema_name: str):
    from dpp_lab import schema
    with open(doc_path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    schema.validate(doc, schema.load_schema(schema_name))
    return doc


# ---------------------------------------------------------------------------
# trace-1e6: dpp-lab simulate, then read the trace back
# ---------------------------------------------------------------------------

class Trace:
    artifacts = ("trace.csv", "summary.json")
    T = 1_000_000  # the criterion-1 run
    V = 100.0

    @classmethod
    def make_inputs(cls, seed: int, inputs_dir: str) -> None:
        _write(os.path.join(inputs_dir, "run.cfg"),
               f"problem = server-scheduling-3x2\nV = {cls.V!r}\nT = {cls.T}\n"
               f"seed = {seed}\noutput = out\n")

    setup = staticmethod(_setup_run_cfg)

    @staticmethod
    def run(state: dict, out_dir: str, chaos: str | None = None) -> dict:
        from dpp_lab import cli, core
        code = cli.main(["simulate", "--config", state["config"], "--out", out_dir])
        trace = core.read_trace_csv(os.path.join(out_dir, "trace.csv"))
        return {"code": code, "trace": trace}

    @staticmethod
    def work(state: dict) -> int:
        return state["cfg"].T

    @staticmethod
    def gate(state: dict, out_dir: str, outcome: dict, full: bool) -> list:
        from dpp_lab import core
        cfg, spec, trace = state["cfg"], state["spec"], outcome["trace"]
        checks: list = []
        _check(checks, "exit code 0", lambda: (outcome["code"] == 0, outcome["code"]))

        def summary():
            doc = _schema_ok(os.path.join(out_dir, "summary.json"), "simulate_summary")
            return doc["T"] == cfg.T and doc["seed"] == cfg.seed, "schema valid"
        _check(checks, "summary.json schema", summary)

        def dynamics():
            problems = core.verify_trace_dynamics(trace, spec.B)
            return not problems, problems[:3]
        _check(checks, "trace dynamics", dynamics)
        if full:
            _check(checks, "trace round trip",
                   lambda: roundtrip_gate(spec, cfg.seed, cfg.T,
                                          os.path.join(out_dir, "trace.csv")))
        return checks


def roundtrip_gate(spec, seed: int, T: int, csv_path: str):
    """The CSV read back equals the run_path arrays bit for bit."""
    from dpp_lab import controller, core
    want = controller.run_path(spec, seed, T)
    got = core.read_trace_csv(csv_path)
    bad = [name for name in ("event_ids", "action_indices", "z0", "z", "q", "drift")
           if getattr(got, name).dtype != getattr(want, name).dtype
           or getattr(got, name).tobytes() != getattr(want, name).tobytes()]
    return not bad, f"columns differing: {bad}" if bad else "bit-identical"


# ---------------------------------------------------------------------------
# verify-server / verify-single: dpp-lab verify
# ---------------------------------------------------------------------------

class _Verify:
    artifacts = ("batch.json",)
    problem = ""
    paths = 0
    T = 0
    checks_line = ""

    @classmethod
    def make_inputs(cls, seed: int, inputs_dir: str) -> None:
        _write(os.path.join(inputs_dir, "run.cfg"),
               f"problem = {cls.problem}\nV = 10.0\nseed = {seed}\noutput = out\n"
               f"batch.num_paths = {cls.paths}\nbatch.T = {cls.T}\n{cls.checks_line}")

    setup = staticmethod(_setup_run_cfg)

    @staticmethod
    def run(state: dict, out_dir: str, chaos: str | None = None) -> dict:
        from dpp_lab import cli
        argv = ["verify", "--config", state["config"], "--out", out_dir]
        if chaos is not None:
            argv += ["--chaos", chaos]
        return {"code": cli.main(argv)}

    @staticmethod
    def work(state: dict) -> int:
        """Path-slots simulated, including the Theorem2/3 calibration and
        validation batches (num_paths paths in all, at their horizons)."""
        from dpp_lab import analysis, cli, oracle
        cfg, spec = state["cfg"], state["spec"]
        checks = cfg.checks if cfg.checks is not None else cli._default_checks(spec)
        total = cfg.num_paths * cfg.batch_T
        if "Theorem2" in checks:
            total += cfg.num_paths * analysis.convergence_time_multi(cfg.epsilon, cfg.delta)
        if "Theorem3" in checks:
            xi = oracle.solve_stationary_optimum(spec).xi_star / 2.0
            probe = analysis.constants_for_horizon(spec.with_v(1.0 / cfg.epsilon), xi,
                                                   cfg.batch_T, cfg.delta)
            total += cfg.num_paths * analysis.convergence_time_single(
                cfg.epsilon, cfg.delta, probe)
        return total

    @staticmethod
    def gate(state: dict, out_dir: str, outcome: dict, full: bool) -> list:
        return verify_gate(state["cfg"], out_dir, outcome["code"])


def verify_gate(cfg, out_dir: str, code: int) -> list:
    checks: list = []
    _check(checks, "exit code 0", lambda: (code == 0, code))
    path = os.path.join(out_dir, "batch.json")

    def valid():
        doc = _schema_ok(path, "batch_summary")
        return (doc["num_paths"] == cfg.num_paths and doc["T"] == cfg.batch_T,
                "schema valid")
    _check(checks, "batch.json schema", valid)

    def all_pass():
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        failed = [k for k, v in doc["checks"].items() if not v["pass"]]
        return doc["all_pass"] is True, f"failed checks: {failed}"
    _check(checks, "all_pass", all_pass)
    return checks


class VerifyServer(_Verify):
    problem = "server-scheduling-3x2"
    paths = 8192  # two 4096-path chunks
    T = 500
    checks_line = "batch.checks = KeyFeature, QueueTail, XTail\n"


class VerifySingle(_Verify):
    problem = "single-queue-serve-idle"
    paths = 4096  # one chunk per simulate_paths call
    T = 500
    checks_line = ""  # default checks: all seven


# ---------------------------------------------------------------------------
# oracle-grid: simplex LP against exhaustive grid search
# ---------------------------------------------------------------------------

def instance_config(rng, shape: tuple[int, ...], L: int) -> str:
    """An inline problem drawn like the criterion-8 generator: action 0 of
    every event points every constraint downward, so the instance is
    strictly feasible."""
    import numpy as np
    weights = rng.integers(1, 20, size=len(shape)).astype(np.float64)
    probs = weights / math.fsum(weights.tolist())
    probs[-1] = 1.0 - math.fsum(probs[:-1].tolist())
    lines = [f"problem.L = {L}", "problem.z_max = 1.0",
             f"problem.B = {math.sqrt(float(L))!r}", "problem.V = 1.0"]
    for eid, (n_actions, p) in enumerate(zip(shape, probs)):
        lines.append(f"problem.events.{eid}.probability = {float(p)!r}")
        for k in range(n_actions):
            z0 = float(np.round(rng.uniform(0.0, 1.0), 3))
            lo = -0.2 if k == 0 else 1.0
            z = [float(np.round(v, 3)) for v in rng.uniform(-1.0, lo, size=L)]
            lines.append(f"problem.events.{eid}.actions.{k} = "
                         + ", ".join(repr(v) for v in [z0] + z))
    return "\n".join(lines) + "\n"


def oracle_gate(name: str, z_opt, grid_opt, xi, grid_xi) -> list:
    """Criterion-8 agreement of the LP and the grid oracle on one instance."""
    checks: list = []
    _check(checks, f"{name} grid optimum", lambda: (
        grid_opt is not None and z_opt is not None
        and grid_opt >= z_opt - GRID_FEAS_TOL and abs(grid_opt - z_opt) <= GRID_TOL,
        f"lp {z_opt!r} grid {grid_opt!r}"))
    _check(checks, f"{name} grid slackness", lambda: (
        grid_xi <= xi + GRID_FEAS_TOL and abs(grid_xi - xi) <= GRID_TOL,
        f"lp {xi!r} grid {grid_xi!r}"))
    return checks


class OracleGrid:
    artifacts = ("oracle.json",)
    # (event shape, L): fixed, so that the work is the same for every seed
    instances = (((4,), 1), ((3, 2), 2), ((2, 2, 2), 1))
    resolution = 200

    @classmethod
    def make_inputs(cls, seed: int, inputs_dir: str) -> None:
        import numpy as np
        rng = np.random.default_rng(seed)
        for shape, L in cls.instances:
            tag = "x".join(map(str, shape))
            _write(os.path.join(inputs_dir, f"grid-{tag}-L{L}.cfg"),
                   instance_config(rng, shape, L))

    @staticmethod
    def setup(inputs_dir: str) -> dict:
        from dpp_lab import configfile
        names = sorted(n for n in os.listdir(inputs_dir) if n.endswith(".cfg"))
        specs = [configfile.load_config(os.path.join(inputs_dir, n)).build_spec()
                 for n in names]
        return {"names": names, "specs": specs}

    @classmethod
    def run(cls, state: dict, out_dir: str, chaos: str | None = None) -> dict:
        from dpp_lab import oracle
        rows = []
        for spec in state["specs"]:
            sol = oracle.solve_stationary_optimum(spec)
            xi = oracle.solve_max_slackness(spec)
            grid_opt = oracle.grid_stationary_optimum(spec, resolution=cls.resolution)
            grid_xi = oracle.grid_max_slackness(spec, resolution=cls.resolution)
            rows.append((sol, xi, grid_opt, grid_xi))
        return {"rows": rows}

    @classmethod
    def work(cls, state: dict) -> int:
        """Joint grid points evaluated: both grid oracles walk the full grid."""
        from dpp_lab import oracle
        return sum(2 * oracle.grid_points_budget(s, cls.resolution) for s in state["specs"])

    @staticmethod
    def gate(state: dict, out_dir: str, outcome: dict, full: bool) -> list:
        from dpp_lab import schema
        checks: list = []
        report = {}
        sol_schema = schema.load_schema("stationary_solution")
        for name, (sol, xi, grid_opt, grid_xi) in zip(state["names"], outcome["rows"]):
            doc = sol.to_json_dict()
            _check(checks, f"{name} solution schema",
                   lambda: (schema.validate(doc, sol_schema) is None, "schema valid"))
            checks += oracle_gate(name, sol.z_opt, grid_opt, xi, grid_xi)
            report[name] = {"solution": doc, "xi_star": xi,
                            "grid_optimum": grid_opt, "grid_max_slackness": grid_xi}
        with open(os.path.join(out_dir, "oracle.json"), "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        return checks


WORKLOADS = {
    "trace-1e6": Trace,
    "verify-server": VerifyServer,
    "verify-single": VerifySingle,
    "oracle-grid": OracleGrid,
}
