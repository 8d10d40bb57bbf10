"""Drift-plus-penalty stochastic optimization: simulator, exact oracles,
closed-form tail and convergence bounds, and a seeded Monte Carlo
verification harness."""

from .analysis import (BoundConstants, ConsistencyError, azuma_bound,
                       calibrated_deviation_level, compute_constants, constants_for_horizon,
                       convergence_time_multi, convergence_time_single,
                       default_truncation_level, g_tail_bound, queue_tail_bound,
                       queue_tail_vacuity_crossover, xtail_bound)
from .controller import pick_actions, run_path
from .core import (LAWS, ActionVector, EventOutcome, PathTrace, ProblemSpec,
                   queue_update, read_trace_csv, write_trace_csv)
from .events import (build_server_scheduling_spec, build_single_queue_spec,
                     builtin_spec, sample_block)
from .montecarlo import (BatchConfig, BatchSummary, CheckResult,
                         InvariantViolation, run_batch, wilson_interval)
from .oracle import (SlacknessError, StationarySolution, grid_max_slackness,
                     grid_stationary_optimum, solve_max_slackness,
                     solve_stationary_optimum)

__version__ = "0.1.0"
