import numpy as np
import pytest
from scipy.optimize import linprog

from dpp_lab.simplex import LpStatus, solve_lp


def test_basic_inequality_lp():
    # min -x1 - x2 over the unit simplex corner
    res = solve_lp([-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-1.0, abs=1e-10)


def test_equality_lp():
    res = solve_lp([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-10)
    assert res.x[0] == pytest.approx(1.0, abs=1e-10)


def test_mixed_constraints():
    # min x1 + x2 s.t. x1 + 2 x2 = 2, x1 <= 1
    res = solve_lp([1.0, 1.0], A_ub=[[1.0, 0.0]], b_ub=[1.0],
                   A_eq=[[1.0, 2.0]], b_eq=[2.0])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-10)  # x = (0, 1)


def test_no_constraints_rejected():
    with pytest.raises(ValueError, match="^no constraints$"):
        solve_lp([1.0, 2.0])


@pytest.mark.parametrize("c, A_eq, b_eq, optimum", [
    # an artificial left basic at level zero after phase 1 is pivoted out
    ([-1.0, -1.0, 1.0], [[1.0, -1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]],
     [1.0, 1.0, 1.0], -1.0),
    # an all-zero row keeps its artificial and is dropped as redundant
    ([1.0, 0.0], [[-1.0, -1.0], [0.0, 0.0], [0.0, -1.0]], [0.0, 0.0, 0.0], 0.0),
], ids=["pivot-out", "drop-row"])
def test_phase_one_cleanup_against_reference(c, A_eq, b_eq, optimum):
    res = solve_lp(c, A_eq=A_eq, b_eq=b_eq)
    ref = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * len(c), method="highs")
    assert res.status is LpStatus.OPTIMAL and ref.status == 0
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)
    assert res.objective == pytest.approx(optimum, abs=1e-9)


def test_infeasible_lp():
    res = solve_lp([1.0], A_eq=[[1.0]], b_eq=[-1.0])
    assert res.status is LpStatus.INFEASIBLE


def test_unbounded_lp():
    res = solve_lp([-1.0, 0.0], A_ub=[[0.0, 1.0]], b_ub=[1.0])
    assert res.status is LpStatus.UNBOUNDED


def test_degenerate_zero_rhs():
    # rows with b = 0 must not cycle under Bland's rule
    res = solve_lp([-1.0, 1.0], A_ub=[[1.0, -1.0], [1.0, -2.0]], b_ub=[0.0, 0.0],
                   A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-10)  # x = (.5, .5)


def test_beale_cycling_instance():
    # classic construction that cycles under naive most-negative pivoting
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [[0.25, -60.0, -1.0 / 25.0, 9.0],
         [0.5, -90.0, -1.0 / 50.0, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    b = [0.0, 0.0, 1.0]
    res = solve_lp(c, A_ub=A, b_ub=b)
    assert res.status is LpStatus.OPTIMAL
    ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * 4, method="highs")
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)


def test_random_instances_against_reference():
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(60):
        n = rng.integers(2, 6)
        m = rng.integers(1, 5)
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * n, method="highs")
        res = solve_lp(c, A_ub=A, b_ub=b)
        if ref.status == 0:
            assert res.status is LpStatus.OPTIMAL
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            agree += 1
        elif ref.status == 3:
            assert res.status is LpStatus.UNBOUNDED
    assert agree >= 20  # the sampler produces plenty of bounded instances


def test_solution_is_feasible():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = 4, 3
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        res = solve_lp(np.abs(c), A_ub=A, b_ub=b)  # nonneg cost: bounded
        assert res.status is LpStatus.OPTIMAL
        assert np.all(res.x >= -1e-10)
        assert np.all(A @ res.x <= b + 1e-8)
