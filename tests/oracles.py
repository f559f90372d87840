"""Independent oracles the tests compare the library against.

Everything here is deliberately naive: brute force, exact algebra on
closed-form cases, or a second implementation from a different library.
None of it imports the code under test beyond plain numpy arrays.
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
