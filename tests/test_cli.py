import json
import os
import re
import subprocess
import sys

import pytest

from helpers import derive_seed, unchecked_spec

import dpp_lab
from dpp_lab.cli import _write_json, main
from dpp_lab.configfile import RunConfig
from dpp_lab.controller import run_path
from dpp_lab.core import ProblemSpec, write_trace_csv
from dpp_lab.events import builtin_spec
from dpp_lab.schema import load_schema, validate

SIM_CFG = """
problem = server-scheduling-3x2
V = 10.0
T = 800
seed = 42
output = {out}
batch.num_paths = 60
batch.T = 300
batch.epsilon = 0.1
batch.delta = 0.05
batch.checks = KeyFeature, QueueTail, XTail
"""

SQ_CFG = """
problem = single-queue-serve-idle
V = 10.0
T = 600
seed = 7
output = {out}
batch.num_paths = 60
batch.T = 300
batch.checks = GTail, Telescoping, QueueTail
"""


def _write(tmp_path, body, name="run.cfg", out="out"):
    p = tmp_path / name
    p.write_text(body.format(out=tmp_path / out))
    return str(p)


def test_simulate_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", cfg]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    validate(summary, load_schema("simulate_summary"))
    assert summary["z_opt"] == pytest.approx(1.1, abs=1e-9)
    assert summary["T"] == 800
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 801
    assert lines[0].startswith("t,event_id,action_index,z0,")


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("trace.csv", "summary.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_bounds_report(tmp_path):
    cfg = _write(tmp_path, SIM_CFG)
    assert main(["bounds", "--config", cfg, "--epsilon", "0.1",
                 "--delta", "0.05"]) == 0
    payload = json.loads((tmp_path / "out" / "bounds.json").read_text())
    validate(payload, load_schema("bounds"))
    assert payload["t_multi"] == 5020
    assert payload["t_single"] is None  # three constraints here
    assert payload["constants"]["V"] == 10.0
    assert payload["xi_star"] == pytest.approx(2.0 / 15.0, abs=1e-9)


def test_bounds_single_constraint_horizon(tmp_path):
    cfg = _write(tmp_path, SQ_CFG)
    assert main(["bounds", "--config", cfg, "--epsilon", "0.1",
                 "--delta", "0.05"]) == 0
    payload = json.loads((tmp_path / "out" / "bounds.json").read_text())
    assert payload["t_single"] == 898
    # out-of-range epsilon downgrades to not-applicable with a reason
    assert main(["bounds", "--config", cfg, "--epsilon", "40.0",
                 "--delta", "0.05", "--out", str(tmp_path / "o2")]) == 0
    payload = json.loads((tmp_path / "o2" / "bounds.json").read_text())
    assert payload["t_single"] is None
    assert "epsilon" in payload["t_single_reason"]


def test_verify_pass_and_exit_codes(tmp_path):
    cfg = _write(tmp_path, SQ_CFG)
    assert main(["verify", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "batch.json").read_text())
    validate(payload, load_schema("batch_summary"))
    assert payload["all_pass"] is True
    assert payload["invariant_violations"] == 0


def test_verify_default_suite_benchmark(tmp_path):
    # no batch.checks line: the full default suite for a multi-constraint
    # problem (KeyFeature, QueueTail, XTail, Theorem2) must come out clean
    body = ("problem = server-scheduling-3x2\nV = 10.0\nT = 2000\nseed = 5\n"
            "output = {out}\nbatch.num_paths = 1000\nbatch.T = 1000\n"
            "batch.epsilon = 0.1\nbatch.delta = 0.05\n")
    cfg = _write(tmp_path, body)
    assert main(["verify", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "batch.json").read_text())
    assert set(payload["checks"]) == {"KeyFeature", "QueueTail", "XTail", "Theorem2"}
    assert payload["all_pass"] is True


def test_verify_chaos_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, SIM_CFG)
    code = main(["verify", "--config", cfg, "--chaos", "skip-minimization"])
    assert code == 2
    err = capsys.readouterr().err
    assert "replay" in err and "seed=" in err
    # the violating value prints as a plain float under numpy 2
    assert "np.float64" not in err
    assert re.search(r"at slot \d+: value -?\d+\.\d+(e-?\d+)?\n", err)


def test_theorem_violation_replays_at_its_horizon(tmp_path, capsys, monkeypatch):
    # B understated by 0.1%: the 5-slot main batch stays clean, and Theorem2
    # (epsilon = 1: V = 1, horizon 51) fails on validation path 1 at slot 32
    build = RunConfig.build_spec
    monkeypatch.setattr(RunConfig, "build_spec",
                        lambda self: unchecked_spec(build(self), B=3 ** 0.5 * 0.999))
    monkeypatch.setattr(ProblemSpec, "with_v", lambda self, V: unchecked_spec(self, V=V))
    cfg = _write(tmp_path, "problem = server-scheduling-3x2\nV = 10.0\nseed = 7\n"
                           "output = {out}\nbatch.num_paths = 3\nbatch.T = 5\n"
                           "batch.epsilon = 1.0\nbatch.checks = Theorem2\n")
    assert main(["verify", "--config", cfg]) == 2
    seed = derive_seed(7, (2 << 32) + 1)
    assert capsys.readouterr().err.endswith(f"replay: seed={seed} slot=32 T=51 V=1.0\n")


def test_verify_underpowered_statistics_exit_3(tmp_path):
    # three paths cannot certify a 0.9 pass fraction at Wilson confidence;
    # the statistical verdict honestly fails without any invariant breaking
    body = SQ_CFG.replace("batch.checks = GTail, Telescoping, QueueTail",
                          "batch.checks = Theorem2").replace(
        "batch.num_paths = 60", "batch.num_paths = 3")
    cfg = _write(tmp_path, body)
    assert main(["verify", "--config", cfg]) == 3


def test_verify_dump_traces(tmp_path):
    body = SQ_CFG.replace("batch.num_paths = 60", "batch.num_paths = 4")
    cfg = _write(tmp_path, body)
    assert main(["verify", "--config", cfg, "--dump-traces"]) == 0
    dumped = sorted((tmp_path / "out" / "traces").glob("path_*.csv"))
    assert len(dumped) == 4
    # path i of the batch takes seed derive_seed(seed, i)
    spec = builtin_spec("single-queue-serve-idle", 10.0)
    want = tmp_path / "want.csv"
    write_trace_csv(run_path(spec, derive_seed(7, 3), 300), str(want))
    assert dumped[3].name == "path_000003.csv"
    assert dumped[3].read_bytes() == want.read_bytes()
    # a batch that aborts on a violation (exit 2) still dumps every path
    chaos = "worst-action"
    out = tmp_path / "chaos"
    cfg = _write(tmp_path, body.replace("GTail, Telescoping, QueueTail", "KeyFeature"), "kf.cfg")
    assert main(["verify", "--config", cfg, "--dump-traces", "--chaos", chaos,
                 "--out", str(out)]) == 2
    dumped = sorted((out / "traces").glob("path_*.csv"))
    assert [p.name for p in dumped] == [f"path_{i:06d}.csv" for i in range(4)]
    for i, path in enumerate(dumped):
        write_trace_csv(run_path(spec, derive_seed(7, i), 300, chaos=chaos), str(want))
        assert path.read_bytes() == want.read_bytes()
    assert not (out / "batch.json").exists()


def test_sweep_rows_and_monotone_checkpoints(tmp_path):
    cfg = _write(tmp_path, SIM_CFG + "sweep.V_list = 1, 10\nsweep.checkpoints = 6\n")
    assert main(["sweep", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "V,T,time_avg_objective,time_avg_queue_sum"
    data = [r.split(",") for r in rows[1:]]
    per_v = {}
    for v, t, obj, qs in data:
        per_v.setdefault(v, []).append(int(t))
    assert set(per_v) == {"1.0", "10.0"}
    for ts in per_v.values():
        assert ts == sorted(ts) and len(ts) == len(set(ts))


def test_sweep_single_point(tmp_path):
    body = SIM_CFG.replace("T = 800", "T = 1") + "sweep.V_list = 5\nsweep.checkpoints = 1\n"
    cfg = _write(tmp_path, body)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sp")]) == 0
    rows = (tmp_path / "sp" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2


INLINE_CFG = ("problem.L = 1\nproblem.z_max = 1.0\nproblem.B = 1.0\n"
              "problem.V = 5.0\n"
              "problem.events.0.probability = 0.5\n"
              "problem.events.0.actions.0 = 0.0, 1.0\n"
              "problem.events.0.actions.1 = 1.0, 0.0\n"
              "problem.events.1.probability = 0.5\n"
              "problem.events.1.actions.0 = 0.0, 0.0\n"
              "problem.events.1.actions.1 = 1.0, -1.0\n"
              "T = 400\nseed = 3\noutput = {out}\n")


def test_simulate_inline_problem(tmp_path):
    cfg = _write(tmp_path, INLINE_CFG)
    assert main(["simulate", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["z_opt"] == pytest.approx(0.5, abs=1e-9)
    assert summary["V"] == 5.0


@pytest.mark.parametrize("old, new, missing", [
    ("problem.events.1.", "problem.events.7.", "problem.events.1"),
    ("problem.events.1.actions.1", "problem.events.1.actions.2", "problem.events.1.actions.1"),
])
def test_simulate_rejects_an_index_gap(tmp_path, capsys, old, new, missing):
    # traces name events and actions by position, so a gap would rename them
    cfg = _write(tmp_path, INLINE_CFG.replace(old, new))
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == (f"config error: {missing} is missing; "
                                       "indices run from 0 without gaps\n")
    assert not (tmp_path / "out").exists()


def test_config_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem = server-scheduling-3x2\nV = 10\nwhatever = 3\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err
    missing = tmp_path / "none.cfg"
    assert main(["simulate", "--config", str(missing)]) == 1
    zero_t = tmp_path / "zt.cfg"
    zero_t.write_text("problem = server-scheduling-3x2\nV = 10\nT = 0\n")
    assert main(["simulate", "--config", str(zero_t)]) == 1
    cfg = _write(tmp_path, SIM_CFG)
    capsys.readouterr()
    # a flag is parsed and checked by the rule of the config key it overrides
    bad_paths = _write(tmp_path, SIM_CFG.replace("num_paths = 60", "num_paths = 0"), "np.cfg")
    assert main(["verify", "--config", bad_paths]) == 1
    assert capsys.readouterr().err == "config error: line 7: batch.num_paths must be at least 1\n"
    for argv, message in [
        (["verify", "--config", cfg, "--paths", "0"], "--paths must be at least 1"),
        (["verify", "--config", cfg, "--paths", "abc"], "--paths needs an integer, got 'abc'"),
        (["bounds", "--config", cfg, "--epsilon", "x"],
         "--epsilon needs a finite number, got 'x'"),
        (["verify", "--config", cfg, "--seed", "-1"], "--seed must fit in 64 unsigned bits"),
        (["verify", "--config", cfg, "--delta", "2"], "--delta must lie in (0, 1)"),
        (["bounds", "--config", cfg, "--delta", "2"], "--delta must lie in (0, 1)"),
        (["verify", "--config", cfg, "--chaos", "bogus"], "argument --chaos: invalid choice"),
        (["simulate", "--seed", "3"], "the following arguments are required: --config"),
        ([], "the following arguments are required: command"),
    ]:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
    assert not (tmp_path / "out").exists()


# one constraint whose every action raises the queue: no policy meets it
INFEASIBLE_CFG = ("problem.L = 1\nproblem.z_max = 1.0\nproblem.B = 1.0\nproblem.V = 5.0\n"
                  "problem.events.0.probability = 1.0\n"
                  "problem.events.0.actions.0 = 0.0, 0.5\n"
                  "problem.events.0.actions.1 = 1.0, 0.25\n"
                  "T = 50\noutput = {out}\nbatch.num_paths = 4\nbatch.T = 20\n")


@pytest.mark.parametrize("command", ["simulate", "bounds", "verify"])
def test_infeasible_instance_exits_1(tmp_path, capsys, command):
    cfg = _write(tmp_path, INFEASIBLE_CFG)
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == ("error: instance is infeasible; no stationary "
                                       "policy meets the constraints\n")
    assert not (tmp_path / "out").exists()


def test_bounds_without_slack_prints_the_certificate(tmp_path, capsys):
    # feasible, but only at zero slack: the bound constants are undefined
    cfg = _write(tmp_path, INFEASIBLE_CFG.replace("actions.0 = 0.0, 0.5", "actions.0 = 0.0, 0.0"))
    assert main(["bounds", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: maximal slackness 0.0 is not positive\nstationary optimum certificate: "
        '{"lp_status": "Optimal", "policy": [[1.0, 0.0]], "xi_star": 0.0, "z_opt": 0.0}\n')
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_constants_past_float_range_exit_1(tmp_path, capsys, command):
    cfg = _write(tmp_path, SIM_CFG.replace("V = 10.0", "V = 1000"))
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: moment ceiling") and "float64 range" in err


@pytest.mark.parametrize("value", ["1e-200", "1e-160"])
def test_horizon_past_float_range_exits_1(tmp_path, capsys, value):
    cfg = _write(tmp_path, SQ_CFG)
    assert main(["bounds", "--config", cfg, "--epsilon", value]) == 1
    assert capsys.readouterr().err == (
        f"error: convergence horizon at epsilon={float(value)!r} is not finite\n")


def test_underflowing_horizon_is_one_slot(tmp_path):
    cfg = _write(tmp_path, SQ_CFG)
    assert main(["bounds", "--config", cfg, "--epsilon", "1e300"]) == 0
    assert json.loads((tmp_path / "out" / "bounds.json").read_text())["t_multi"] == 1


@pytest.mark.parametrize("body,check,value", [(SIM_CFG, "Theorem2", "1e300"),
                                              (SQ_CFG, "Theorem3", "1.5")],
                         ids=["Theorem2", "Theorem3"])
def test_theorem_check_rejects_epsilon_above_one(tmp_path, capsys, body, check, value):
    # V = 1/epsilon < 1 is outside the regime the theorems speak of
    body = re.sub(r"batch\.checks = .*", f"batch.checks = {check}", body)
    cfg = _write(tmp_path, body)
    assert main(["verify", "--config", cfg, "--epsilon", value]) == 1
    assert capsys.readouterr().err == (
        f"error: check {check} needs epsilon in (0, 1]; got {float(value)!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_non_finite_epsilon_exits_1(tmp_path, capsys, command, value):
    cfg = _write(tmp_path, SQ_CFG)
    assert main([command, "--config", cfg, "--epsilon", value]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_queue_tail_level_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, SQ_CFG + "batch.queue_tail_levels = 5.0, nan\n")
    assert main(["verify", "--config", cfg]) == 1
    assert "line 10" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_json_artifacts_refuse_non_finite_numbers(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError):
        _write_json(str(path), {"epsilon": float("nan")})
    assert not path.exists()


def test_cli_runs_as_module(tmp_path):
    cfg = _write(tmp_path, SIM_CFG.replace("T = 800", "T = 50"))
    # the child imports the same dpp_lab, installed or not
    src = os.path.dirname(os.path.dirname(dpp_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "dpp_lab.cli", "simulate",
                           "--config", cfg, "--out", str(tmp_path / "m")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "m" / "summary.json").exists()
