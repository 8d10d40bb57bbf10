"""Command-line surface: simulate, bounds, verify, sweep.

Every command is deterministic given its config file and flags, and writes
machine-readable artifacts (CSV traces, JSON reports) under the output
directory.  Exit codes: 0 success, 1 config or usage error (a bad flag goes
through the same config-key rule as the line it overrides; an infeasible
instance and an output path that cannot be written exit 1 too), 2
deterministic invariant violation, 3 statistical check failure.

The --chaos flag deliberately breaks the decision rule and exists only so the
verification harness can prove it detects a broken controller; never use it
for real runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, schema
from .configfile import ConfigError, RunConfig, load_config, set_key
from .controller import CHAOS_MODES, run_path
from .core import ProblemSpec, write_trace_csv
from .montecarlo import (_SINGLE_ONLY, ALL_CHECKS, BatchConfig,
                         InvariantViolation, run_batch)
from .oracle import SlacknessError, solve_stationary_optimum

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_STATISTICAL = 3


def _write_json(path: str, payload: dict, schema_name: str | None = None) -> None:
    if schema_name is not None:
        schema.validate(payload, schema.load_schema(schema_name))
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def _default_checks(spec: ProblemSpec) -> tuple[str, ...]:
    return tuple(c for c in ALL_CHECKS if spec.L == 1 or c not in _SINGLE_ONLY)


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    spec = cfg.build_spec()
    sol = solve_stationary_optimum(spec)
    trace = run_path(spec, cfg.seed, cfg.T)
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.csv")
    write_trace_csv(trace, trace_path)
    avg_obj = float(np.sum(trace.z0) / cfg.T)
    summary = {
        "time_avg_objective": avg_obj,
        "time_avg_constraints": [float(np.sum(trace.z[:, l]) / cfg.T) for l in range(spec.L)],
        "final_queue_norm": float(np.linalg.norm(trace.q[-1])),
        "z_opt": sol.z_opt,
        "gap": avg_obj - sol.z_opt,
        "T": cfg.T,
        "seed": cfg.seed,
        "spec_digest": spec.digest,
        "V": spec.V,
    }
    summary_path = os.path.join(out_dir, "summary.json")
    _write_json(summary_path, summary, "simulate_summary")
    print(f"wrote {trace_path} and {summary_path}")
    print(f"time_avg_objective={avg_obj!r} z_opt={sol.z_opt!r} gap={summary['gap']!r}")
    return EXIT_OK


def cmd_bounds(cfg: RunConfig, out_dir: str) -> int:
    spec = cfg.build_spec()
    epsilon, delta = cfg.epsilon, cfg.delta
    sol = solve_stationary_optimum(spec)
    try:
        constants = analysis.constants_for_horizon(spec, sol.xi, cfg.T, delta)
    except SlacknessError as e:
        raise SlacknessError(f"{e}\nstationary optimum certificate: "
                             + json.dumps(sol.to_json_dict(), sort_keys=True)) from None
    t_multi = analysis.convergence_time_multi(epsilon, delta)
    t_single: int | None
    reason: str | None
    if spec.L != 1:
        t_single, reason = None, "single-constraint horizon needs L = 1"
    else:
        try:
            t_single = analysis.convergence_time_single(epsilon, delta, constants)
            reason = None
        except ValueError as e:
            t_single, reason = None, str(e)
    payload = {
        "constants": constants.to_json_dict(),
        "z_opt": sol.z_opt,
        "xi_star": sol.xi_star,
        "xi_convention": "xi = xi_star / 2 (strict-margin convention)",
        "epsilon": epsilon,
        "delta": delta,
        "T": cfg.T,
        "t_multi": t_multi,
        "t_single": t_single,
        "t_single_reason": reason,
        "queue_tail_vacuity_crossover": analysis.queue_tail_vacuity_crossover(constants),
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "bounds.json")
    _write_json(path, payload, "bounds")
    print(f"wrote {path}")
    for key in ("C0", "r", "rho", "D", "c1", "c2", "C", "C2"):
        print(f"  {key} = {payload['constants'][key]!r}")
    print(f"  T_multi({epsilon}, {delta}) = {t_multi}")
    print(f"  T_single({epsilon}, {delta}) = {t_single if t_single is not None else reason}")
    print(f"  queue tail bound vacuous below c1 = "
          f"{payload['queue_tail_vacuity_crossover']!r}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out_dir: str, dump_traces: bool,
               chaos: str | None) -> int:
    spec = cfg.build_spec()
    checks = cfg.checks if cfg.checks is not None else _default_checks(spec)
    batch = BatchConfig(
        spec=spec,
        num_paths=cfg.num_paths,
        T=cfg.batch_T if cfg.batch_T is not None else cfg.T,
        master_seed=cfg.seed,
        epsilon=cfg.epsilon,
        delta=cfg.delta,
        checks=checks,
        chaos=chaos,
        queue_tail_levels=cfg.queue_tail_levels,
    )
    try:
        summary = run_batch(batch)
    except InvariantViolation as e:
        print(f"INVARIANT VIOLATION: {e}", file=sys.stderr)
        # a theorem check runs at its own horizon and V; name V when it differs
        v_note = "" if e.V == spec.V else f" V={e.V!r}"
        print(f"replay: seed={e.path_seed} slot={e.slot} T={e.T}{v_note}", file=sys.stderr)
        code = EXIT_INVARIANT
    else:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "batch.json")
        _write_json(path, summary.to_json_dict(), "batch_summary")
        print(f"wrote {path}")
        print(f"{'check':<14} {'bound':>12} {'empirical':>12} {'wilson_hi':>12} verdict")
        for name, res in summary.checks.items():
            verdict = "pass" if res.passed else "FAIL"
            print(f"{name:<14} {res.theoretical_bound:>12.6g} "
                  f"{res.empirical_frequency:>12.6g} {res.wilson_upper:>12.6g} {verdict}")
        code = EXIT_OK if summary.all_passed else EXIT_STATISTICAL
    if dump_traces:
        # the main batch's paths, also when the batch aborted: a failing run
        # is the one most worth inspecting
        tdir = os.path.join(out_dir, "traces")
        try:
            os.makedirs(tdir, exist_ok=True)
            for i, seed in enumerate(batch.seeds.tolist()):
                tr = run_path(spec, seed, batch.T, chaos=chaos)
                write_trace_csv(tr, os.path.join(tdir, f"path_{i:06d}.csv"))
        except OSError as e:
            if code != EXIT_INVARIANT:
                raise
            print(f"error: {e}", file=sys.stderr)  # the violation's exit code stands
            return code
        print(f"dumped {batch.num_paths} per-path traces under {tdir}")
    return code


def cmd_sweep(cfg: RunConfig, out_dir: str) -> int:
    T = cfg.T
    n_checks = min(cfg.sweep_checkpoints, T)
    grid = np.unique(np.round(np.logspace(0, math.log10(T), n_checks)).astype(np.int64))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("V,T,time_avg_objective,time_avg_queue_sum\n")
        base = cfg.build_spec()
        for V in cfg.sweep_v:
            spec = base.with_v(float(V))
            trace = run_path(spec, cfg.seed, T)
            cum_obj = np.cumsum(trace.z0).tolist()
            cum_qsum = np.cumsum(np.sum(trace.q_before, axis=1)).tolist()
            for t in grid.tolist():
                f.write(f"{V!r},{t},{cum_obj[t - 1] / t!r},{cum_qsum[t - 1] / t!r}\n")
    print(f"wrote {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`ConfigError`, so that they exit 1."""

    def error(self, message):
        raise ConfigError(message)


# flag: the config key that parses, checks and stores it
_FLAG_KEYS = {"seed": "seed", "paths": "batch.num_paths",
              "epsilon": "batch.epsilon", "delta": "batch.delta"}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dpp-lab", description="drift-plus-penalty simulation and verification")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *flags):
        sp.add_argument("--config", required=True, help="run configuration file")
        sp.add_argument("--out", default=None, help="override output directory")
        for flag in ("seed",) + flags:
            sp.add_argument(f"--{flag}", help=f"override {_FLAG_KEYS[flag]}")
        return sp

    common(sub.add_parser("simulate", help="run one path, write trace CSV and summary JSON"))
    common(sub.add_parser("bounds", help="closed-form constants and convergence horizons"),
           "epsilon", "delta")
    sp = common(sub.add_parser("verify", help="Monte Carlo verification batch"),
                "paths", "epsilon", "delta")
    sp.add_argument("--dump-traces", action="store_true")
    sp.add_argument("--chaos", default=None, choices=CHAOS_MODES, metavar="MODE",
                    help="test-only controller fault injection "
                         f"({', '.join(CHAOS_MODES)})")
    common(sub.add_parser("sweep", help="time-average curves across trade-off weights"))
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        for flag, key in _FLAG_KEYS.items():
            raw = getattr(args, flag, None)
            if raw is not None:
                set_key(cfg, key, raw, f"--{flag}")
        out_dir = args.out if args.out is not None else cfg.output
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "bounds":
            return cmd_bounds(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, args.dump_traces, args.chaos)
        return cmd_sweep(cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, SlacknessError, analysis.ConsistencyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
