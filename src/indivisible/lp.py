"""Phase-1 simplex feasibility solver on a dense tableau.

Decides whether {x >= 0 : A x <= b} is nonempty by minimizing the total mass
of artificial variables.  Bland's smallest-index rule is used for both the
entering and leaving choices, so the method cannot cycle; a pivot cap turns
pathological instances into an explicit "iteration_limit" outcome instead of
a hang.

This is a feasibility oracle, not a general LP solver: there is no phase 2
and no objective beyond the artificial mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
ZERO_TOL = 1e-11
MAX_PIVOTS = 10**6


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the phase-1 run.

    status         "feasible" | "infeasible" | "iteration_limit"
    x              a nonnegative point satisfying A x <= b, when feasible
    infeasibility  phase-1 optimum: total residual artificial mass
    pivots         pivot count actually performed
    """

    status: str
    x: np.ndarray | None
    infeasibility: float
    pivots: int


def find_nonnegative_solution(a_ub, b_ub) -> FeasibilityResult:
    """Search for x >= 0 with a_ub @ x <= b_ub, stopping at MAX_PIVOTS pivots."""
    a = np.array(a_ub, dtype=float)
    b = np.array(b_ub, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    m, n = a.shape

    # Rows with negative right-hand side are negated; their slack then enters
    # with coefficient -1 and an artificial variable is required.
    neg = b < 0.0
    a = np.where(neg[:, None], -a, a)
    b = np.where(neg, -b, b)
    art_rows = np.flatnonzero(neg)
    k = len(art_rows)

    # Tableau columns: x (n) | slacks (m) | artificials (k) | rhs.
    width = n + m + k + 1
    t = np.zeros((m + 1, width))
    t[:m, :n] = a
    t[:m, -1] = b
    slack_sign = np.where(neg, -1.0, 1.0)
    t[np.arange(m), n + np.arange(m)] = slack_sign
    basis = np.empty(m, dtype=int)
    basis[~neg] = n + np.flatnonzero(~neg)
    for idx, row in enumerate(art_rows):
        t[row, n + m + idx] = 1.0
        basis[row] = n + m + idx

    # Cost row: minimize the artificial sum.  Subtracting each artificial row
    # zeroes the basic columns and leaves reduced costs in canonical form;
    # the rhs cell then holds minus the current objective.
    t[m, n + m:n + m + k] = 1.0
    for row in art_rows:
        t[m, :] -= t[row, :]

    pivots = 0
    while True:
        reduced = t[m, :-1]
        candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if len(candidates) == 0:
            break
        enter = int(candidates[0])  # Bland: smallest index

        col = t[:m, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if len(rows) == 0:
            # Cannot happen for a bounded-below phase-1 objective unless the
            # arithmetic has broken down.
            raise RuntimeError("phase-1 objective unbounded; numerical breakdown")
        ratios = t[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[np.flatnonzero(ratios <= best + 1e-15)]
        leave = int(tied[np.argmin(basis[tied])])  # Bland on the basic index

        if pivots >= MAX_PIVOTS:
            return FeasibilityResult("iteration_limit", None, float(-t[m, -1]), pivots)
        pivot = t[leave, enter]
        t[leave, :] /= pivot
        factors = t[:, enter].copy()
        factors[leave] = 0.0
        t -= np.outer(factors, t[leave, :])
        basis[leave] = enter
        pivots += 1

    objective = float(-t[m, -1])
    if objective > ZERO_TOL:
        return FeasibilityResult("infeasible", None, objective, pivots)

    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = t[row, -1]
    np.maximum(x, 0.0, out=x)
    return FeasibilityResult("feasible", x, objective, pivots)
