"""The dpp-lab benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-server --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each iteration is a fresh process (``perfbench/worker.py``) with
``DPP_LAB_THREADS`` unset.  Iterations repeat for ``--seconds`` seconds
(at least MIN_ITERS of them) and the run reports medians.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics, including the tracing
overhead.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

``attempted`` and ``failed`` count correctness checks.  A JSON record with
the environment stamp and every sample goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# (name, unit, better) of every end-to-end metric; bounds live in BENCHMARK.json
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("work_items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + tracing.PER_LAYER}
MIN_ITERS = 3         # untraced iterations per --trace 0 run
MIN_PAIRS = 2         # untraced/traced pairs per --trace 1 run
SETUP_SAMPLES = 5     # fresh processes timed for setup_s
RUN_LIMIT_S = 150.0   # start no iteration that would end a run past this
KILL_AFTER_S = 170.0  # a worker still running this long after the start is killed


def stamp(seed: int) -> dict:
    import numpy
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() if proc.returncode == 0 else None
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": h.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        # workers always run with DPP_LAB_THREADS unset; this records the caller's
        "dpp_lab_threads_set": "DPP_LAB_THREADS" in os.environ,
    }


def run_child(args: list[str], work_dir: str, timeout: float) -> tuple[dict | None, str]:
    """Run one worker; return its result (None on failure) and a reason."""
    result_path = os.path.join(work_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ)
    env.pop("DPP_LAB_THREADS", None)
    env["PYTHONPATH"] = SRC
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--result", result_path] + args,
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    with open(result_path, "r", encoding="utf-8") as f:
        return json.load(f), ""


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 chaos: str | None = None) -> dict:
    wl = workloads.WORKLOADS[name]
    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    work_dir = os.path.join(ROOT, ".bench_work", f"{name}-seed{seed}-{os.getpid()}")
    inputs, out = os.path.join(work_dir, "inputs"), os.path.join(work_dir, "out")
    os.makedirs(inputs, exist_ok=True)
    spans_path = os.path.join(out_root, f"{name}-seed{seed}.spans.json")
    checks: list = []
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    first_artifacts = None
    start = time.perf_counter()

    def time_left() -> float:
        return max(1.0, start + KILL_AFTER_S - time.perf_counter())

    try:
        wl.make_inputs(seed, inputs)
        i = 0
        while True:
            traced_now = trace and i % 2 == 1
            args = ["--workload", name, "--inputs", inputs, "--out", out]
            if traced_now:
                args += ["--trace", "--spans", spans_path]
            if i == 0:
                args.append("--full-gate")
            if chaos is not None:
                args += ["--chaos", chaos]
            shutil.rmtree(out, ignore_errors=True)
            res, why = run_child(args, work_dir, time_left())
            i += 1
            if res is None:
                checks.append((f"iteration {i} worker", False, why))
                break
            checks += [tuple(c) for c in res["checks"]]
            if first_artifacts is None:
                first_artifacts = res["artifacts"]
            else:
                checks.append((f"iteration {i} artifacts identical to iteration 1",
                               res["artifacts"] == first_artifacts, res["artifacts"]))
            (traced if traced_now else plain).append(res)
            if not traced_now:
                setups.append(res["setup_s"])
            now = time.perf_counter()
            per_iter = (now - start) / i
            enough = (min(len(plain), len(traced)) >= MIN_PAIRS if trace
                      else len(plain) >= MIN_ITERS)
            if now + per_iter - start > RUN_LIMIT_S and plain and (traced or not trace):
                break
            if enough and now + per_iter - start > seconds:
                break
        while not trace and plain and len(setups) < SETUP_SAMPLES:
            res, why = run_child(["--workload", name, "--inputs", inputs, "--out", out,
                                  "--setup-only"], work_dir, time_left())
            if res is None:
                checks.append(("setup-only worker", False, why))
                break
            setups.append(res["setup_s"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics: dict[str, float] = {}
    if plain and not trace:
        wall = statistics.median(r["wall_s"] for r in plain)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "work_items_per_s": plain[0]["work"] / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    elif plain and traced:
        for metric in traced[0]["layers"]:
            metrics[metric] = statistics.median(r["layers"][metric] for r in traced)
        metrics["tracing_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                         - statistics.median(r["wall_s"] for r in plain))
    failed = sum(1 for c in checks if not c[1])
    record = {
        "workload": name,
        "trace": trace,
        "chaos": chaos,
        "stamp": stamp(seed),
        "iterations": {"untraced": plain, "traced": traced},
        "setup_samples": setups,
        "metrics": metrics,
        "attempted": len(checks),
        "failed": failed,
        "failed_checks": [c for c in checks if not c[1]],
        "run_s": time.perf_counter() - start,
    }
    with open(os.path.join(out_root, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return record


def print_record(record: dict) -> None:
    its = record["iterations"]
    print(f"{record['workload']}: {len(its['untraced'])} untraced and "
          f"{len(its['traced'])} traced iterations in {record['run_s']:.1f} s, "
          f"{record['attempted']} checks, {record['failed']} failed")
    for name, value in record["metrics"].items():
        print(f"  {name:<42} {value:>16.6g} {UNITS[name]}")
    for name, _, detail in record["failed_checks"]:
        print(f"  FAILED {name}: {detail}")


def main(argv=None) -> int:
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--chaos", default=None, metavar="MODE",
                   help="pass a fault-injection mode to dpp-lab verify (negative control)")
    args = p.parse_args(argv)
    if not 0 <= args.seed < (1 << 64):
        p.error("--seed must fit in 64 unsigned bits")
    if not os.path.isfile(os.path.join(SRC, "dpp_lab", "__init__.py")):
        print(f"error: no dpp_lab sources under {SRC}; run from a dpp-lab checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.chaos)
        print_record(record)
        records.append(record)
    if not all(r["metrics"] for r in records):
        print("error: no iteration completed; nothing to report", file=sys.stderr)
        return 1
    print("stamp " + json.dumps(records[0]["stamp"], sort_keys=True))
    prefix = len(records) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": UNITS[k]}
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
