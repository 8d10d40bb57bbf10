"""One iteration of one workload, in a fresh process.

Started by ``run.py``; writes its measurements as JSON to ``--result``::

    python3 perfbench/worker.py --workload verify-server --inputs DIR \
        --out DIR --result FILE [--trace] [--full-gate] [--setup-only]

``setup_s`` runs from before ``import dpp_lab`` to the end of config load and
spec build.  ``wall_s`` covers the workload's calls only.  The correctness
gates run after the timed region, with any tracing wrappers removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import tracing
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--full-gate", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--chaos", default=None)
    args = p.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import dpp_lab
    if os.path.dirname(os.path.abspath(dpp_lab.__file__)) != os.path.join(SRC, "dpp_lab"):
        print(f"error: imported dpp_lab from {dpp_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    state = wl.setup(args.inputs)
    setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        os.makedirs(args.out, exist_ok=True)
        t1 = time.perf_counter()
        if tracer is None:
            outcome = wl.run(state, args.out, args.chaos)
        else:
            outcome = tracer.call("workload", wl.run, (state, args.out, args.chaos))
        wall_s = time.perf_counter() - t1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.restore()
        checks = wl.gate(state, args.out, outcome, args.full_gate)
        result.update({
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "work": wl.work(state),
            "checks": checks,
            "artifacts": {name: sha256_file(os.path.join(args.out, name))
                          for name in wl.artifacts
                          if os.path.exists(os.path.join(args.out, name))},
        })
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer.spans)
            if args.spans:
                tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
