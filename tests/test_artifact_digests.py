"""Golden artifacts: every CLI command on both builtins, at small sizes, must
write byte-identical files and exit with the same code as when these digests
were recorded.  A refactor that changes any artifact byte, verdict or exit
code fails here.  The digests pin whatever the commands wrote, failing
verdicts included; they are not chosen to pass."""

import hashlib

import pytest

from dpp_lab.cli import main

CFG = """
problem = {problem}
V = 10.0
T = 400
seed = 5
batch.num_paths = 60
batch.T = 200
batch.epsilon = 0.3
sweep.V_list = 1, 10, 100
sweep.checkpoints = 6
"""

# (problem, command): (exit code, {artifact: sha256})
DIGESTS = {
    ("server-scheduling-3x2", "simulate"): (0, {
        "trace.csv": "4add3eab09d5fdd8a7a3f61a1dfbb8c7314b7db5b58fdb4135b24a540b60f14a",
        "summary.json": "d78a56d0fa522f8a84f70906862f8fbf604f063302f27483370100c111ba38b7",
    }),
    ("server-scheduling-3x2", "bounds"): (0, {
        "bounds.json": "1bf62cf931c1b0ae9ad188023e6783800b4098a2d405d314ca505fd7c7fd07f6",
    }),
    ("server-scheduling-3x2", "verify"): (3, {
        "batch.json": "7c6e16432adb164f4532cedfe75f40165f55464154218305cfd8ff522e4a12f8",
    }),
    ("server-scheduling-3x2", "sweep"): (0, {
        "sweep.csv": "0bd6067e2c9c6876f85d02264bf2400424dd19edbb2d1976ff8f93987244340b",
    }),
    ("single-queue-serve-idle", "simulate"): (0, {
        "trace.csv": "2dc35449c7d900b20be1bc80c9f5c1121e1ca63ca322ec481e70119e21ce4c13",
        "summary.json": "88b720a247372c48612477927c6ccf7083311dc0c0ca04738b846c8842d57553",
    }),
    ("single-queue-serve-idle", "bounds"): (0, {
        "bounds.json": "d67726d2a89f1d60c7af8fd8788d72c03cb87384c4a1d84ff7b5b3bb29c0c566",
    }),
    ("single-queue-serve-idle", "verify"): (3, {
        "batch.json": "7e49ff78f81ff3146b8c7e473de892b029eac8b90c032572155b2d36985eb4b1",
    }),
    ("single-queue-serve-idle", "sweep"): (0, {
        "sweep.csv": "fc5b40fe61813ee5a54ece2d5a246be3344bcc7b49b39cecc75bbd54fab0f304",
    }),
}

CHAOS_STDERR = (
    "INVARIANT VIOLATION: exact conditional expectation violated on path 13 "
    "(seed 7685782629408184905) at slot 15: value 0.5\n"
    "replay: seed=7685782629408184905 slot=15 T=200\n"
)


def _config(tmp_path, problem: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(CFG.format(problem=problem))
    return str(path)


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("problem, command", sorted(DIGESTS))
def test_artifact_digests(tmp_path, problem, command):
    code, files = DIGESTS[problem, command]
    out = tmp_path / "out"
    assert main([command, "--config", _config(tmp_path, problem), "--out", str(out)]) == code
    assert {name: _sha(out / name) for name in files} == files


def test_chaos_verify_report(tmp_path, capsys):
    cfg = _config(tmp_path, "single-queue-serve-idle")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--chaos", "skip-minimization"]) == 2
    assert capsys.readouterr().err == CHAOS_STDERR
