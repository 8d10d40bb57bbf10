import json
import subprocess
import sys

import pytest

from dpp_lab.cli import main
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


def test_simulate_inline_problem(tmp_path):
    body = ("problem.L = 1\nproblem.z_max = 1.0\nproblem.B = 1.0\n"
            "problem.V = 5.0\n"
            "problem.events.0.probability = 0.5\n"
            "problem.events.0.actions.0 = 0.0, 1.0\n"
            "problem.events.0.actions.1 = 1.0, 0.0\n"
            "problem.events.1.probability = 0.5\n"
            "problem.events.1.actions.0 = 0.0, 0.0\n"
            "problem.events.1.actions.1 = 1.0, -1.0\n"
            "T = 400\nseed = 3\noutput = {out}\n")
    cfg = _write(tmp_path, body)
    assert main(["simulate", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["z_opt"] == pytest.approx(0.5, abs=1e-9)
    assert summary["V"] == 5.0


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
    assert main(["verify", "--config", cfg, "--paths", "0"]) == 1


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_bad_thread_count_exits_1(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("DPP_LAB_THREADS", threads)
    cfg = _write(tmp_path, SQ_CFG)
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "DPP_LAB_THREADS" in err and repr(threads) in err


def test_cli_runs_as_module(tmp_path):
    cfg = _write(tmp_path, SIM_CFG.replace("T = 800", "T = 50"))
    proc = subprocess.run([sys.executable, "-m", "dpp_lab.cli", "simulate",
                           "--config", cfg, "--out", str(tmp_path / "m")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "m" / "summary.json").exists()
