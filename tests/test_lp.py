import numpy as np
import pytest
from scipy.optimize import linprog

from indivisible import lp
from indivisible.lp import find_nonnegative_solution


def scipy_feasible(a_ub, b_ub) -> bool:
    res = linprog(c=np.zeros(a_ub.shape[1]), A_ub=a_ub, b_ub=b_ub,
                  bounds=(0, None), method="highs")
    return res.status == 0


def test_known_feasible_system():
    # x0 + x1 <= 4, -x0 <= -1 (x0 >= 1)
    a = np.array([[1.0, 1.0], [-1.0, 0.0]])
    b = np.array([4.0, -1.0])
    result = find_nonnegative_solution(a, b)
    assert result.status == "feasible"
    assert np.all(result.x >= -1e-12)
    assert np.all(a @ result.x <= b + 1e-9)


def test_known_infeasible_system():
    # x >= 1 and x <= 0 cannot both hold
    a = np.array([[-1.0], [1.0]])
    b = np.array([-1.0, 0.0])
    result = find_nonnegative_solution(a, b)
    assert result.status == "infeasible"
    assert result.infeasibility >= 0.5


def test_equality_encoded_as_paired_inequalities():
    # x0 + x1 = 1 within 0, x0 - x1 = 0.2 within 0
    a = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    b = np.array([1.0, -1.0, 0.2, -0.2])
    result = find_nonnegative_solution(a, b)
    assert result.status == "feasible"
    np.testing.assert_allclose(result.x, [0.6, 0.4], atol=1e-9)


def test_pivot_cap_reports_iteration_limit(monkeypatch):
    monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
    a = np.array([[1.0, 1.0], [-1.0, 0.0]])
    b = np.array([4.0, -1.0])
    result = find_nonnegative_solution(a, b)
    assert result.status == "iteration_limit"
    assert result.pivots == 0


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        find_nonnegative_solution(np.ones((2, 2)), np.ones(3))


@pytest.mark.parametrize("seed", range(10))
def test_verdicts_agree_with_scipy(seed):
    rng = np.random.default_rng(seed)
    n_vars = int(rng.integers(2, 8))
    n_rows = int(rng.integers(2, 12))
    a = rng.normal(size=(n_rows, n_vars))
    b = rng.normal(size=n_rows)
    result = find_nonnegative_solution(a, b)
    assert result.status in ("feasible", "infeasible")
    assert (result.status == "feasible") == scipy_feasible(a, b)
    if result.status == "feasible":
        assert np.all(result.x >= -1e-12)
        assert np.max(a @ result.x - b) <= 1e-9


def test_feasible_points_satisfy_tight_systems():
    # random column-stochastic divisibility-shaped systems
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m_true = rng.uniform(0.05, 1.0, size=(n, n))
        m_true /= m_true.sum(axis=0, keepdims=True)
        gp = rng.uniform(0.05, 1.0, size=(n, n))
        gp /= gp.sum(axis=0, keepdims=True)
        gt = m_true @ gp
        eps = 1e-10
        rows_a, rows_b = [], []
        for i in range(n):
            for j in range(n):
                coeffs = np.zeros(n * n)
                coeffs[i * n:(i + 1) * n] = gp[:, j]
                rows_a.extend([coeffs, -coeffs])
                rows_b.extend([gt[i, j] + eps, -(gt[i, j] - eps)])
        for j in range(n):
            coeffs = np.zeros(n * n)
            coeffs[j::n] = 1.0
            rows_a.extend([coeffs, -coeffs])
            rows_b.extend([1.0 + eps, -(1.0 - eps)])
        result = find_nonnegative_solution(np.array(rows_a), np.array(rows_b))
        assert result.status == "feasible"
        m = result.x.reshape(n, n)
        assert np.max(np.abs(m @ gp - gt)) <= 5e-10
