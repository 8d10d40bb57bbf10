import pytest

from dpp_lab.events import build_server_scheduling_spec, build_single_queue_spec
from dpp_lab.oracle import solve_stationary_optimum

_ACCEPTANCE_TITLES = {}


def register_criterion(number: int, title: str):
    """Map an acceptance test to its one-line banner."""
    def deco(fn):
        _ACCEPTANCE_TITLES[fn.__name__] = (number, title)
        return fn
    return deco


@pytest.fixture(scope="session")
def sv_spec():
    return build_server_scheduling_spec(V=10.0)


@pytest.fixture(scope="session")
def sv_solution(sv_spec):
    return solve_stationary_optimum(sv_spec)


@pytest.fixture(scope="session")
def sq_spec():
    return build_single_queue_spec(V=10.0)


@pytest.fixture(scope="session")
def sq_solution(sq_spec):
    return solve_stationary_optimum(sq_spec)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "location", (None, None, ""))[2]
            base = name.split("[")[0]
            if base in _ACCEPTANCE_TITLES:
                number, title = _ACCEPTANCE_TITLES[base]
                verdict = "PASS" if status == "passed" else "FAIL"
                prev = lines.get(number)
                if prev is None or prev[1] == "PASS":
                    lines[number] = (title, verdict)
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            title, verdict = lines[number]
            terminalreporter.write_line(f"criterion {number:>2} {verdict}: {title}")
