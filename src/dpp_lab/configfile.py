"""Plain-text key/value run configuration.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Dots in keys build a tree (``batch.num_paths``).  Unknown
keys are rejected with the offending line number; silent misconfiguration
would invalidate verification claims.

Inline problem instances spell out every event and action::

    problem.L = 1
    problem.z_max = 1.0
    problem.B = 1.0
    problem.V = 10.0
    problem.events.0.probability = 0.5
    problem.events.0.actions.0 = 0.0, 1.0    # z0, z_1..z_L
    problem.events.0.actions.1 = 1.0, 0.0

Event and action indices run from 0 without gaps: the spec and its traces
name each event and action by its position.  A missing key or a row of the
wrong length is reported here; every other rule on the instance (nonempty
events and action sets, say) is ``ProblemSpec``'s: "inline problem rejected".

Builtin instances are named instead: ``problem = server-scheduling-3x2``
with a top-level ``V``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .core import ActionVector, EventOutcome, ProblemSpec
from .events import builtin_spec
from .montecarlo import ALL_CHECKS


class ConfigError(Exception):
    """Bad run configuration; message carries the line number when known."""


# an index has no leading zeros, so that each entry has one spelling
_EVENT_KEY = re.compile(r"^problem\.events\.(0|[1-9]\d*)\.(probability|actions\.(0|[1-9]\d*))$")


@dataclass
class RunConfig:
    """Parsed configuration; see module docstring for the key reference."""

    problem_name: str | None = None
    inline: dict = field(default_factory=dict)
    V: float | None = None
    T: int = 10_000
    seed: int = 0
    output: str = "out"
    num_paths: int = 1000
    batch_T: int | None = None
    epsilon: float = 0.1
    delta: float = 0.05
    checks: tuple[str, ...] | None = None
    queue_tail_levels: tuple[float, ...] | None = None
    sweep_v: tuple[float, ...] = (1.0, 10.0, 100.0)
    sweep_checkpoints: int = 24

    def build_spec(self) -> ProblemSpec:
        if self.problem_name is not None:
            if self.V is None:
                raise ConfigError("builtin problems need a top-level V")
            try:
                return builtin_spec(self.problem_name, V=self.V)
            except ValueError as e:
                raise ConfigError(str(e)) from None
        if not self.inline:
            raise ConfigError("no problem given; set `problem` or the problem.* tree")
        return self._build_inline()

    def _build_inline(self) -> ProblemSpec:
        d = self.inline
        try:
            L, z_max, B = d["L"], d["z_max"], d["B"]
        except KeyError as e:
            raise ConfigError(f"inline problem is missing problem.{e.args[0]}") from None
        V = self.V if self.V is not None else d.get("V")
        if V is None:
            raise ConfigError("inline problem needs problem.V or a top-level V")
        events = []
        for eid, node in enumerate(_in_order(d.get("events", {}), "problem.events")):
            if "probability" not in node:
                raise ConfigError(f"problem.events.{eid} has no probability")
            actions = []
            for k, row in enumerate(_in_order(node.get("actions", {}),
                                              f"problem.events.{eid}.actions")):
                if len(row) != L + 1:
                    raise ConfigError(
                        f"problem.events.{eid}.actions.{k} needs {L + 1} values, got {len(row)}")
                actions.append(ActionVector(row[0], tuple(row[1:])))
            events.append(EventOutcome(node["probability"], tuple(actions)))
        try:
            return ProblemSpec(events=tuple(events), L=L, z_max=z_max, B=B, V=V)
        except ValueError as e:
            raise ConfigError(f"inline problem rejected: {e}") from None


def _in_order(tree: dict, key: str) -> list:
    """The entries of an index-keyed tree in index order.  The indices must
    run 0..n-1, since the spec and its traces name each entry by position."""
    for i in range(len(tree)):
        if i not in tree:
            raise ConfigError(f"{key}.{i} is missing; indices run from 0 without gaps")
    return [tree[i] for i in range(len(tree))]


# Each parser takes the label that its error messages open with: ``line N:
# key`` for a config line, ``--flag`` for a command-line flag.

def _as_text(label: str, raw: str) -> str:
    return raw


def _as_int(label: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{label} needs an integer, got {raw!r}") from None


def _as_float(label: str, raw: str, what: str = "a finite number") -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{label} needs {what}, got {raw!r}")
    return value


def _as_float_list(label: str, raw: str) -> tuple[float, ...]:
    return tuple(_as_float(label, tok, "comma-separated finite numbers")
                 for tok in raw.split(","))


def _as_checks(label: str, raw: str) -> tuple[str, ...]:
    names = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    for name in names:
        if name not in ALL_CHECKS:
            line = label.split(": ")[0]  # this key has no flag, only config lines
            raise ConfigError(f"{line}: unknown check {name!r}; choices: {ALL_CHECKS}")
    return names


_POSITIVE = (lambda x: x > 0, "must be positive")
_ALL_POSITIVE = (lambda x: min(x) > 0, "must be positive")
_AT_LEAST_1 = (lambda x: x >= 1, "must be at least 1")

# key: (RunConfig field, or None for the field of the inline problem named
# after "problem.", parser, (predicate, requirement) or None)
_KEYS = {
    "problem": ("problem_name", _as_text, None),
    "V": ("V", _as_float, _POSITIVE),
    "T": ("T", _as_int, _AT_LEAST_1),
    "seed": ("seed", _as_int, (lambda x: 0 <= x < (1 << 64), "must fit in 64 unsigned bits")),
    "output": ("output", _as_text, None),
    "problem.L": (None, _as_int, None),
    "problem.z_max": (None, _as_float, None),
    "problem.B": (None, _as_float, None),
    "problem.V": (None, _as_float, None),
    "batch.num_paths": ("num_paths", _as_int, _AT_LEAST_1),
    "batch.T": ("batch_T", _as_int, _AT_LEAST_1),
    "batch.epsilon": ("epsilon", _as_float, _POSITIVE),
    "batch.delta": ("delta", _as_float, (lambda x: 0 < x < 1, "must lie in (0, 1)")),
    "batch.checks": ("checks", _as_checks, (lambda x: len(x) > 0, "must name at least one check")),
    "batch.queue_tail_levels": ("queue_tail_levels", _as_float_list, _ALL_POSITIVE),
    "sweep.V_list": ("sweep_v", _as_float_list, _ALL_POSITIVE),
    "sweep.checkpoints": ("sweep_checkpoints", _as_int, _AT_LEAST_1),
}


def set_key(cfg: RunConfig, key: str, raw: str, label: str) -> None:
    """Parse ``raw`` as the value of the table key ``key``, check it against
    the key's requirement and store it in ``cfg``.  Errors open with
    ``label``."""
    target, parse, requirement = _KEYS[key]
    value = parse(label, raw)
    if requirement is not None and not requirement[0](value):
        raise ConfigError(f"{label} {requirement[1]}")
    if target is None:
        cfg.inline[key.removeprefix("problem.")] = value
    else:
        setattr(cfg, target, value)


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    seen: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected `key = value`, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if not raw:
            raise ConfigError(f"line {line_no}: empty value for {key}")
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate key {key} (first on line {seen[key]})")
        seen[key] = line_no
        label = f"line {line_no}: {key}"

        m = _EVENT_KEY.match(key)
        if m:
            node = cfg.inline.setdefault("events", {}).setdefault(int(m.group(1)), {})
            if m.group(3) is None:
                node["probability"] = _as_float(label, raw)
            else:
                row = _as_float_list(label, raw)
                node.setdefault("actions", {})[int(m.group(3))] = list(row)
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        set_key(cfg, key, raw, label)
    if cfg.problem_name is not None and cfg.inline:
        raise ConfigError("give either a builtin `problem` or an inline problem.* tree, not both")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_config_text(f.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
