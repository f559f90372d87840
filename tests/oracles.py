"""Independent oracles the tests compare the library against.

Everything here is deliberately naive: brute force, exact algebra on
closed-form cases, or a second implementation from a different library.
None of it imports the code under test beyond plain numpy arrays, except
``reference_direct_verdict`` and ``reference_transition_matrix``, earlier
versions of the code kept as they were.
"""

import json
import math

import numpy as np

GRID_RESOLUTION = 0.02


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    # normalize the QR phase ambiguity so the draw is well distributed
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def random_column_stochastic(n: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.uniform(0.1, 1.0, size=(n, n))
    return m / m.sum(axis=0, keepdims=True)


def grid_min_violation(gamma_t: np.ndarray, gamma_tp: np.ndarray,
                       resolution: float = GRID_RESOLUTION) -> float:
    """Brute-force 2x2 divisibility: scan all column-stochastic M on a grid.

    A 2x2 column-stochastic M has two free entries a = M[0,0], b = M[0,1];
    the second row is forced.  Returns the smallest max-entry violation of
    M @ gamma_tp = gamma_t over the grid.
    """
    assert gamma_t.shape == (2, 2) and gamma_tp.shape == (2, 2)
    axis = np.arange(0.0, 1.0 + resolution / 2, resolution)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    # row 0 of M @ gamma_tp, for every (a, b) at once
    r0 = (a[..., None] * gamma_tp[0, :][None, None, :]
          + b[..., None] * gamma_tp[1, :][None, None, :])
    r1 = ((1.0 - a)[..., None] * gamma_tp[0, :][None, None, :]
          + (1.0 - b)[..., None] * gamma_tp[1, :][None, None, :])
    viol = np.maximum(np.max(np.abs(r0 - gamma_t[0, :]), axis=-1),
                      np.max(np.abs(r1 - gamma_t[1, :]), axis=-1))
    return float(viol.min())


def grid_divisible(gamma_t: np.ndarray, gamma_tp: np.ndarray,
                   resolution: float = GRID_RESOLUTION) -> bool:
    """Grid verdict: a true solution lies within resolution/2 of a grid node,
    where the constraint error grows by at most the step size."""
    return grid_min_violation(gamma_t, gamma_tp, resolution) <= resolution


def exact_divisible_2x2(gamma_t: np.ndarray, gamma_tp: np.ndarray,
                        eps: float = 1e-9) -> bool | None:
    """Closed-form 2x2 divisibility.

    Row 0 of M @ gamma_tp = gamma_t is a 2x2 linear system in (a, b); row 1
    follows from the column sums.  Returns None when gamma_tp is singular
    (the grid oracle still applies there).
    """
    m = gamma_tp.T  # system m @ (a, b) = gamma_t[0, :]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-12:
        return None
    a, b = np.linalg.solve(m, gamma_t[0, :])
    return bool(-eps <= a <= 1 + eps and -eps <= b <= 1 + eps)


def divisibility_constraints(gamma_t: np.ndarray, gamma_tp: np.ndarray,
                             relaxation: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) of the relaxed divisibility LP, written out from its definition.

    Unknowns m_ik sit at flat index i*n + k.  For each (i, j) in row-major
    order, (M gamma_tp)_ij = sum_k m_ik gamma_tp[k, j] = gamma_t[i, j] becomes
    the pair  row <= rhs + relaxation,  -row <= -(rhs - relaxation);  then
    each column sum sum_i m_ij = 1 becomes a pair the same way.
    """
    n = gamma_t.shape[0]
    rows, rhs = [], []

    def pair(coeffs, value):
        rows.extend([coeffs, -coeffs])
        rhs.extend([value + relaxation, -(value - relaxation)])

    for i in range(n):
        for j in range(n):
            coeffs = np.zeros(n * n)
            for k in range(n):
                coeffs[i * n + k] = gamma_tp[k, j]
            pair(coeffs, gamma_t[i, j])
    for j in range(n):
        coeffs = np.zeros(n * n)
        for i in range(n):
            coeffs[i * n + j] = 1.0
        pair(coeffs, 1.0)
    return np.array(rows), np.array(rhs)


def direct_entry_below_margin(gamma_t: np.ndarray, gamma_tp: np.ndarray,
                              i: int, j: int, relaxation: float) -> bool:
    """Entry (i, j) of Gamma(t) Gamma(t')^-1 lies below -10 * relaxation *
    ||Gamma(t')^-1||_1, so no point of the relaxed LP is nonnegative there."""
    inv = np.linalg.inv(gamma_tp)
    margin = 10.0 * relaxation * np.abs(inv).sum(axis=0).max()
    return bool((gamma_t @ inv)[i, j] < -margin)


def reference_direct_verdict(gamma_t, gamma_tp):
    """Verdict from the unique M = Gamma(t) Gamma(t')^-1, or None for the LP.

    Every point of the relaxed LP is (Gamma(t) + E) Gamma(t')^-1 with
    |E| <= LP_RELAXATION entrywise, and the computed M is (Gamma(t) + R)
    Gamma(t')^-1 with R its residual, so the two differ by at most
    (LP_RELAXATION + max |R|) ||Gamma(t')^-1||_1 in every entry; the norm is
    the largest column sum of |Gamma(t')^-1|.  An entry of M below ten times
    max(LP_RELAXATION, max |R|) ||Gamma(t')^-1||_1 rules out every
    nonnegative point, and the LP would find the pair indivisible too.  A
    nonnegative M is the witness, once the row with the largest minimum is
    rebuilt from the others: the true M has unit column sums exactly, because
    1^T Gamma(t) = 1^T Gamma(t') = 1^T.  None is returned for a singular
    Gamma(t'), for entries too close to zero to call either way, and for a
    witness the usual gates refuse.
    """
    # The per-pair direct route as it stood before pairs were stacked, kept
    # verbatim as the reference the stacked route must match bit for bit.
    from indivisible.errors import ValidationError
    from indivisible.stochastic import (LP_RELAXATION, WITNESS_RESIDUAL_TOL,
                                        DivisibilityVerdict, TransitionMatrix)

    n = gamma_t.n
    gp, gt = gamma_tp.matrix, gamma_t.matrix
    try:
        # Solving, rather than multiplying by the inverse, keeps the residual
        # near machine epsilon even when Gamma(t') is badly conditioned.  The
        # same factorization yields Gamma(t')^-T for the margin.
        sol = np.linalg.solve(gp.T, np.hstack([gt.T, np.eye(n)]))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sol).all():
        return None
    # Columns of Gamma(t') sum to 1, so ||Gamma(t')^-1||_1 is its condition
    # number; from 1/eps on, Gamma(t') is singular to working precision and
    # M is not unique.
    inv_norm = float(np.abs(sol[:, n:]).sum(axis=1).max())
    if inv_norm * np.finfo(float).eps >= 1.0:
        return None
    m = sol[:, :n].T.copy()
    residual = float(np.max(np.abs(m @ gp - gt)))
    margin = 10.0 * max(LP_RELAXATION, residual) * inv_norm
    i, j = np.unravel_index(np.argmin(m), m.shape)
    if m[i, j] < -margin:
        return DivisibilityVerdict(
            "indivisible", certificate=(
                "Gamma(t'<-t0) is invertible and the unique M = Gamma(t<-t0) "
                f"Gamma(t'<-t0)^-1 has M[{i}, {j}] = {m[i, j]:.6e}, below "
                f"-{margin:.6e} = -10 * max({LP_RELAXATION:.0e}, residual) * "
                "||Gamma(t'<-t0)^-1||_1; no column-stochastic M exists"),
            residual=residual)
    row = int(np.argmax(m.min(axis=1)))
    m[row] = 1.0 - np.delete(m, row, axis=0).sum(axis=0)
    try:
        witness = TransitionMatrix(m, t=gamma_t.t, t0=gamma_tp.t)
    except ValidationError:
        return None
    residual = float(np.max(np.abs(witness.matrix @ gp - gt)))
    if residual > WITNESS_RESIDUAL_TOL:
        return None
    return DivisibilityVerdict("divisible", witness=witness, residual=residual)


def reference_transition_matrix(matrix) -> np.ndarray:
    """The clamped array ``TransitionMatrix(matrix)`` stores, or the
    ValidationError it raises.

    ``TransitionMatrix.__post_init__`` as it stood before its gates became
    whole-array reductions, kept verbatim: it lists the offending columns on
    every call, passing or not.
    """
    from indivisible.errors import ValidationError, square_matrix
    from indivisible.stochastic import NEGATIVE_CLAMP, SUM_TOL

    m = square_matrix(matrix, float)
    bad_neg = np.flatnonzero((m < -NEGATIVE_CLAMP).any(axis=0)).tolist()
    m = np.where(m < 0.0, np.where(m >= -NEGATIVE_CLAMP, 0.0, m), m)
    sums = m.sum(axis=0)
    bad_sum = np.flatnonzero(np.abs(sums - 1.0) > SUM_TOL).tolist()
    if bad_neg or bad_sum:
        raise ValidationError(
            "matrix is not column-stochastic; offending columns "
            f"(negative entries: {bad_neg}, bad sums: {bad_sum})",
            negative_columns=bad_neg, sum_columns=bad_sum,
            column_sums=sums.tolist())
    return m


def polygon_excess(gamma, axis: str, pair) -> tuple[list, float]:
    """Sides sqrt(gamma_ij gamma_ik) of the column pair (j, k) (axis
    "columns") or of the row pair (axis "rows"), and 2 max - sum of them:
    how far the longest side exceeds the sum of the others."""
    j, k = pair
    n = len(gamma)
    sides = []
    for i in range(n):
        if axis == "columns":
            sides.append(math.sqrt(float(gamma[i][j]) * float(gamma[i][k])))
        else:
            sides.append(math.sqrt(float(gamma[j][i]) * float(gamma[k][i])))
    longest = 0.0
    total = 0.0
    for side in sides:
        longest = max(longest, side)
        total += side
    return sides, 2.0 * longest - total


def qubit_rotation_gamma(theta: float) -> np.ndarray:
    """Squared moduli of exp(-i * theta * sigma_x): the working 2x2 family."""
    c, s = np.cos(theta) ** 2, np.sin(theta) ** 2
    return np.array([[c, s], [s, c]])


def reference_marginal(u: np.ndarray, n: int) -> np.ndarray:
    """Gamma_ij = sum_beta |U[(i, beta), (j, 0)]|^2, one column j at a time."""
    gamma = np.empty((n, n))
    for j in range(n):
        block = u[:, j * n].reshape(n, n)
        gamma[:, j] = np.sum(np.abs(block) ** 2, axis=1)
    return gamma


def reference_orthostochastic(gamma: np.ndarray) -> np.ndarray | None:
    """Real orthogonal O with O_ij^2 = Gamma_ij by exhaustive sign search.

    Columns are assigned in order; each column's sign patterns are built one
    bit at a time, with the first nonzero entry kept positive, and a column
    is kept when its dot with every earlier one is within 1e-10.  Returns
    the first O found in that order, or None.
    """
    n = gamma.shape[0]
    r = np.sqrt(gamma)
    tol = 1e-10

    def column_choices(j: int) -> list:
        free = np.flatnonzero(r[:, j] > 0.0)[1:]
        out = []
        for bits in range(1 << len(free)):
            signs = np.ones(n)
            for pos, row in enumerate(free):
                if bits >> pos & 1:
                    signs[row] = -1.0
            out.append(signs * r[:, j])
        return out

    chosen: list = []

    def assign(j: int) -> bool:
        if j == n:
            return True
        for col in column_choices(j):
            if all(abs(float(col @ prev)) <= tol for prev in chosen):
                chosen.append(col)
                if assign(j + 1):
                    return True
                chosen.pop()
        return False

    if not assign(0):
        return None
    o = np.column_stack(chosen)
    if float(np.max(np.abs(o.T @ o - np.eye(n)))) > tol:
        return None
    return o


def stepwise_samples(step: np.ndarray, x0: np.ndarray, n_steps: int,
                     stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference for a strided linear integrator: apply ``step`` once per step
    and record steps 0, stride, 2 stride, ... and always the last one.

    Returns the recorded step indices and one state per row.
    """
    s = np.asarray(x0, dtype=float)
    idx, rec = [0], [s.copy()]
    for k in range(1, n_steps + 1):
        s = step @ s
        if k % stride == 0 or k == n_steps:
            idx.append(k)
            rec.append(s.copy())
    return np.array(idx), np.array(rec)


def _reference_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return "%.17g" % value


def _reference_write(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (np.floating, float)):
        out.append(_reference_float(float(obj)))
    elif isinstance(obj, (np.integer, int)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _reference_write(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for idx, key in enumerate(sorted(obj)):
            if idx:
                out.append(",")
            out.append(json.dumps(key) + ":")
            _reference_write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, item in enumerate(obj):
            if idx:
                out.append(",")
            _reference_write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj) -> str:
    """Canonical JSON written one value at a time, each float on its own
    through ``%.17g``: the bytes bulk formatting must reproduce."""
    out: list = []
    _reference_write(obj, out)
    return "".join(out)


def reference_csv(header, rows) -> str:
    """CSV text with every float formatted on its own, row by row."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_reference_float(float(v)) for v in row))
    return "\n".join(lines) + "\n"


class ReferenceBlowup(RuntimeError):
    """reference_rk4 stopped; ``step`` is the index of the offending step."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


def reference_rk4(f, x0: float, v0: float, dt: float,
                  duration: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Textbook RK4 on x' = y, y' = f(x, y): every stage argument written out
    and every sample stored into a numpy array as it is made.

    The grid is round(duration / dt) equal steps landing on duration.
    Returns (times, xs, ys); raises ReferenceBlowup with the step index when
    the state stops being finite or the law overflows.
    """
    n = max(1, int(round(duration / dt)))
    dt = duration / n
    half = dt / 2.0
    sixth = dt / 6.0
    xs = np.empty(n + 1)
    ys = np.empty(n + 1)
    xs[0], ys[0] = x0, v0
    x, y = x0, v0
    try:
        for k in range(n):
            k1x = y
            k1y = f(x, y)
            k2x = y + half * k1y
            k2y = f(x + half * k1x, y + half * k1y)
            k3x = y + half * k2y
            k3y = f(x + half * k2x, y + half * k2y)
            k4x = y + dt * k3y
            k4y = f(x + dt * k3x, y + dt * k3y)
            sx = k1x + 2.0 * k2x
            sx = sx + 2.0 * k3x
            sx = sx + k4x
            sy = k1y + 2.0 * k2y
            sy = sy + 2.0 * k3y
            sy = sy + k4y
            x = x + sixth * sx
            y = y + sixth * sy
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ReferenceBlowup(
                    f"state became non-finite at step {k + 1}", step=k + 1)
            xs[k + 1], ys[k + 1] = x, y
    except OverflowError as exc:
        raise ReferenceBlowup(
            f"law overflowed at step {k + 1}: {exc}", step=k + 1) from None
    times = dt * np.arange(n + 1)
    return times, xs, ys


def reference_reversal_probe(f, samples: int, seed: int, box: float,
                             tol: float) -> tuple[bool, float]:
    """max |f(x, -y) - f(x, y)| over ``samples`` points, each drawn on its
    own as a size-2 uniform draw from [-box, box] and passed as numpy scalars;
    returns (max <= tol, max)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x, y = rng.uniform(-box, box, size=2)
        worst = max(worst, float(abs(f(x, -y) - f(x, y))))
    return worst <= tol, worst
