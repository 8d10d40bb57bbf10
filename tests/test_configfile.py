import re

import pytest

from dpp_lab.cli import main
from dpp_lab.configfile import ConfigError, parse_config_text

BUILTIN = """
# benchmark run
problem = server-scheduling-3x2
V = 10.0
T = 5000
seed = 42
output = results
batch.num_paths = 500
batch.T = 1000
batch.epsilon = 0.2
batch.delta = 0.1
batch.checks = KeyFeature, QueueTail
sweep.V_list = 1, 10
sweep.checkpoints = 5
"""

INLINE = """
problem.L = 1
problem.z_max = 1.0
problem.B = 1.0
problem.V = 4.0
problem.events.0.probability = 0.5
problem.events.0.actions.0 = 0.0, 1.0
problem.events.0.actions.1 = 1.0, 0.0
problem.events.1.probability = 0.5
problem.events.1.actions.0 = 0.0, 0.0
problem.events.1.actions.1 = 1.0, -1.0
"""


def test_parse_builtin_config():
    cfg = parse_config_text(BUILTIN)
    assert cfg.problem_name == "server-scheduling-3x2"
    assert cfg.V == 10.0 and cfg.T == 5000 and cfg.seed == 42
    assert cfg.output == "results"
    assert cfg.num_paths == 500 and cfg.batch_T == 1000
    assert cfg.epsilon == 0.2 and cfg.delta == 0.1
    assert cfg.checks == ("KeyFeature", "QueueTail")
    assert cfg.sweep_v == (1.0, 10.0) and cfg.sweep_checkpoints == 5
    spec = cfg.build_spec()
    assert spec.V == 10.0 and spec.L == 3


def test_tie_break_key_is_unknown():
    # exact ties always go to the lowest index; there is no key to say so
    with pytest.raises(ConfigError, match="^line 12: unknown key 'problem.tie_break'$"):
        parse_config_text(INLINE + "problem.tie_break = LowestIndex\n")


@pytest.mark.parametrize("old, new, missing", [
    ("problem.events.1.", "problem.events.7.", "problem.events.1"),
    ("problem.events.0.actions.1", "problem.events.0.actions.2", "problem.events.0.actions.1"),
])
def test_inline_indices_run_from_zero_without_gaps(old, new, missing):
    cfg = parse_config_text(INLINE.replace(old, new))
    with pytest.raises(ConfigError) as err:
        cfg.build_spec()
    assert str(err.value) == f"{missing} is missing; indices run from 0 without gaps"


def test_parse_inline_problem():
    cfg = parse_config_text(INLINE)
    spec = cfg.build_spec()
    assert spec.L == 1 and spec.V == 4.0
    assert len(spec.events) == 2
    assert spec.events[0].actions[0].z == (1.0,)
    assert spec.events[1].actions[1].z0 == 1.0


def test_top_level_v_overrides_inline():
    cfg = parse_config_text(INLINE + "\nV = 9.0\n")
    assert cfg.build_spec().V == 9.0


def test_unknown_key_is_line_anchored():
    with pytest.raises(ConfigError) as err:
        parse_config_text("problem = server-scheduling-3x2\nV = 1\nacme = 2\n")
    assert "line 3" in str(err.value) and "acme" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("V = 1\nV = 2\n")
    assert "duplicate" in str(err.value)


def test_bad_values_rejected():
    for body, fragment in [
        ("T = 0", "T"),
        ("T = soon", "integer"),
        ("batch.num_paths = 0", "num_paths"),
        ("batch.epsilon = -1", "epsilon"),
        ("batch.delta = 1.5", "delta"),
        ("batch.checks = Hopeful", "Hopeful"),
        ("V = -2", "V"),
        ("seed = -1", "seed"),
        ("problem.events.0.actions.0 = a, b", "numbers"),
        ("broken line", "key = value"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config_text(body + "\n")
        assert fragment in str(err.value)


@pytest.mark.parametrize("line", [
    "batch.queue_tail_levels = nan",
    "batch.queue_tail_levels = 5.0, inf",
    "problem.z_max = inf",
    "V = -inf",
    "batch.epsilon = nan",
    "problem.events.0.actions.0 = 0.0, nan",
])
def test_non_finite_numbers_rejected(line):
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\n" + line + "\n")
    assert str(err.value).startswith("line 2: ") and "finite" in str(err.value)


def test_queue_tail_levels_must_be_positive():
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\nbatch.queue_tail_levels = 10, -5\n")
    assert str(err.value) == "line 2: batch.queue_tail_levels must be positive"
    cfg = parse_config_text("batch.queue_tail_levels = 10, 2.5\n")
    assert cfg.queue_tail_levels == (10.0, 2.5)


@pytest.mark.parametrize("line, message", [
    ("sweep.V_list = 0, 5", "line 2: sweep.V_list must be positive"),
    ("batch.checks = ,", "line 2: batch.checks must name at least one check"),
])
def test_lists_that_would_fail_open_rejected(line, message):
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\n" + line + "\n")
    assert str(err.value) == message


@pytest.mark.parametrize("key", ["problem.events.00.probability",
                                 "problem.events.0.actions.00"])
def test_index_with_leading_zero_rejected(key):
    # 00 and 0 would name one entry, and the later line would silently
    # overwrite the earlier
    with pytest.raises(ConfigError, match=f"^line 12: unknown key '{key}'$"):
        parse_config_text(INLINE + f"{key} = 1.0, 0.0\n")


def test_builtin_and_inline_conflict():
    with pytest.raises(ConfigError):
        parse_config_text("problem = server-scheduling-3x2\nproblem.L = 1\n")


def test_missing_problem_fails_at_build():
    cfg = parse_config_text("V = 1.0\n")
    with pytest.raises(ConfigError):
        cfg.build_spec()


def test_builtin_needs_v():
    cfg = parse_config_text("problem = server-scheduling-3x2\n")
    with pytest.raises(ConfigError):
        cfg.build_spec()


def test_inline_action_arity_checked():
    bad = INLINE.replace("problem.events.0.actions.0 = 0.0, 1.0",
                         "problem.events.0.actions.0 = 0.0")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad).build_spec()
    assert "needs 2 values" in str(err.value)


def test_unknown_builtin_name():
    cfg = parse_config_text("problem = nope\nV = 1.0\n")
    with pytest.raises(ConfigError) as err:
        cfg.build_spec()
    assert str(err.value) == ("unknown builtin problem 'nope'; "
                              "choices: ['server-scheduling-3x2', 'single-queue-serve-idle']")


@pytest.mark.parametrize("body, message", [
    (INLINE.replace("problem.L = 1\n", ""), "inline problem is missing problem.L"),
    (INLINE.replace("problem.z_max = 1.0\n", ""), "inline problem is missing problem.z_max"),
    (INLINE.replace("problem.B = 1.0\n", ""), "inline problem is missing problem.B"),
    (INLINE.replace("problem.V = 4.0\n", ""),
     "inline problem needs problem.V or a top-level V"),
    (INLINE.split("problem.events")[0],
     "inline problem rejected: event support must be nonempty"),
    (INLINE.replace("problem.events.1.probability = 0.5\n", ""),
     "problem.events.1 has no probability"),
    (re.sub(r"problem\.events\.1\.actions.*\n", "", INLINE),
     "inline problem rejected: event 1: action set must be nonempty"),
    (INLINE.replace("problem.events.1.probability = 0.5", "problem.events.1.probability = 0.4"),
     "inline problem rejected: event probabilities sum to 0.9, not 1"),
    (INLINE + "T =\n", "line 12: empty value for T"),
], ids=["no-L", "no-z_max", "no-B", "no-V", "no-events", "no-probability", "no-actions",
        "rejected-spec", "empty-value"])
def test_bad_config_exits_1_naming_the_problem(tmp_path, capsys, body, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body + f"output = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()
