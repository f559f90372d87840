"""Between column-stochastic dynamics and unitary quantum evolution.

A unitary U induces the doubly stochastic matrix Gamma_ij = |U_ij|^2; going
the other way means finding phases phi such that

    Theta_ij = sqrt(Gamma_ij) exp(i phi_ij)

has orthonormal rows (Theta Theta^dag = 1).  Matrices admitting such phases
are unistochastic; with signs only (phi in {0, pi}) they are orthostochastic.
Neither property is automatic for N > 2, so both searches can fail.  A
definitive refusal comes, at every N, from the polygon ("bracelet")
inequalities: two columns (or two rows) of Theta are orthogonal only if the
sides sqrt(Gamma_ij Gamma_ik) close into a polygon, the unitarity triangles
of N = 3.

Any potential matrix Theta, unistochastic or not, yields Kraus operators
(K_beta = column beta of Theta, placed in column beta) satisfying the
completeness identity and reproducing Gamma, and those dilate to a genuine
unitary on an N^2-dimensional space with a distinguished ancilla input.
Density matrices close the loop: diagonal rho evolved by U has diagonal
Gamma @ diag(rho), and Hamiltonians are recovered from evolution families by
a symmetric difference quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (SquareMatrix, UnsupportedSizeError, ValidationError,
                     ValueType, completeness_deviation, freeze,
                     require_hermitian, square_matrix)
from .oscillator import HERMITICITY_TOL, HermitianMatrix
from .stochastic import SUM_TOL, Distribution, TransitionMatrix

UNITARITY_TOL = 1e-10
COLUMN_NORM_TOL = 1e-12
DOUBLY_STOCHASTIC_TOL = 1e-12
KRAUS_IDENTITY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-12

SEARCH_RESTARTS = 32
SEARCH_SEED = 42
SEARCH_MAX_ITERS = 25_000
ORTHO_MAX_SIZE = 4


@dataclass(frozen=True)
class UnitaryMatrix(SquareMatrix):
    """Unitary with time stamps: the evolution from t0 to t.

    ``deviation`` is the unitarity defect max |U^dag U - 1| measured when the
    matrix was validated.
    """

    t: float = 1.0
    t0: float = 0.0
    deviation: float = field(init=False)

    def __post_init__(self):
        m = square_matrix(self.matrix, complex)
        dev = completeness_deviation(m)
        if not dev <= UNITARITY_TOL:
            raise ValidationError(
                f"matrix is not unitary: max |U^dag U - 1| = {dev:.3e}",
                deviation=dev)
        freeze(self, matrix=m, deviation=dev)


@dataclass(frozen=True)
class PotentialMatrix(SquareMatrix):
    """Complex matrix whose columns are unit vectors (column sum rule)."""

    def __post_init__(self):
        m = square_matrix(self.matrix, complex)
        norms = np.linalg.norm(m, axis=0)
        bad = np.flatnonzero(np.abs(norms - 1.0) > COLUMN_NORM_TOL).tolist()
        if bad:
            raise ValidationError(
                f"columns {bad} do not have unit 2-norm",
                columns=bad, norms=[float(x) for x in norms])
        freeze(self, matrix=m)


@dataclass(frozen=True)
class KrausSet(ValueType):
    """Operators K_beta, each supported on column beta only, summing to identity.

    The constructor takes a sequence of N x N operators; ``operators`` holds
    them as one read-only complex (N, N, N) stack, K_beta = ``operators[beta]``.
    ``deviation`` is the completeness defect max |sum K^dag K - 1| measured
    when the set was validated.
    """

    operators: np.ndarray
    deviation: float = field(init=False)

    def __post_init__(self):
        shapes = [np.shape(k) for k in self.operators]
        if not shapes:
            raise ValidationError("empty Kraus set")
        for beta, shape in enumerate(shapes):
            if len(shape) != 2:
                raise ValidationError(f"operator {beta} has shape {shape}")
        n = shapes[0][0]
        if len(shapes) != n:
            raise ValidationError(
                f"expected {n} operators for dimension {n}, got {len(shapes)}")
        for beta, shape in enumerate(shapes):
            if shape != (n, n):
                raise ValidationError(f"operator {beta} has shape {shape}")
        ops = np.array(self.operators, dtype=complex)
        # outside[beta, j]: column j of K_beta has a nonzero entry, j != beta
        outside = (ops != 0).any(axis=1) & ~np.eye(n, dtype=bool)
        bad = np.flatnonzero(outside.any(axis=1)).tolist()
        if bad:
            raise ValidationError(
                f"operator {bad[0]} has support outside column {bad[0]}")
        dev = completeness_deviation(ops)
        if not dev <= KRAUS_IDENTITY_TOL:
            raise ValidationError(
                f"completeness fails: max |sum K^dag K - 1| = {dev:.3e}",
                deviation=dev)
        freeze(self, operators=ops, deviation=dev)

    @property
    def n(self) -> int:
        return self.operators.shape[0]


@dataclass(frozen=True)
class DensityMatrix(SquareMatrix):
    """Hermitian, positive semidefinite (to tolerance), unit trace."""

    def __post_init__(self):
        m = square_matrix(self.matrix, complex)
        require_hermitian(m, HERMITICITY_TOL)
        eigs = np.linalg.eigvalsh(m)
        if float(eigs.min()) < EIGENVALUE_FLOOR:
            raise ValidationError(
                f"negative eigenvalue {float(eigs.min()):.3e}",
                spectrum=[float(x) for x in eigs])
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {tr!r} is not 1")
        freeze(self, matrix=m)


# ---------------------------------------------------------------------------
# Unitary -> stochastic
# ---------------------------------------------------------------------------

def quantum_to_stochastic(u: UnitaryMatrix) -> TransitionMatrix:
    """Gamma_ij = |U_ij|^2, stamped like U.  Unitarity makes it doubly stochastic."""
    gamma = np.abs(u.matrix) ** 2
    try:
        return TransitionMatrix(gamma, t=u.t, t0=u.t0)
    except ValidationError:  # U's column norms passed UNITARITY_TOL, not SUM_TOL
        dev = float(np.max(np.abs(gamma.sum(axis=0) - 1.0)))
        raise ValidationError(
            f"|U|^2 has a column-sum deviation of {dev:.3e}, above SUM_TOL "
            f"{SUM_TOL:.0e}, though U passed the unitarity gate "
            f"(max |U^dag U - 1| = {u.deviation:.3e} <= {UNITARITY_TOL:.0e})",
            column_sum_deviation=dev) from None


def potential_from_transition(gamma: TransitionMatrix,
                              phases: np.ndarray) -> PotentialMatrix:
    """Theta_ij = sqrt(Gamma_ij) exp(i phases_ij).

    The column sum rule |Theta| columns = 1 is inherited from the column
    stochasticity of Gamma, whatever the phases.
    """
    ph = np.asarray(phases, dtype=float)
    if ph.shape != gamma.matrix.shape:
        raise ValidationError(
            f"phases shape {ph.shape} does not match matrix {gamma.matrix.shape}")
    return PotentialMatrix(np.sqrt(gamma.matrix) * np.exp(1j * ph))


# ---------------------------------------------------------------------------
# Unistochastic search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolygonViolation:
    """Two columns (axis "columns") or rows ("rows") that no phases make orthogonal.

    sides[i] = sqrt(Gamma_ij Gamma_ik) for the pair (j, k) along the axis;
    excess = 2 max(sides) - sum(sides), the amount by which the longest side
    exceeds the sum of the rest, so the sides cannot close into a polygon.
    """

    axis: str
    pair: tuple[int, int]
    sides: tuple[float, ...]
    excess: float

    def describe(self) -> str:
        sides = np.array(self.sides)
        longest = int(np.argmax(sides))
        rest = float(sides.sum() - sides[longest])
        across = "row" if self.axis == "columns" else "column"
        shape = "triangle" if len(sides) == 3 else "polygon"
        j, k = self.pair
        return (f"{self.axis} ({j}, {k}): side {float(sides[longest]):.6f} at "
                f"{across} {longest} exceeds the sum {rest:.6f} of the remaining "
                f"sides; no phase assignment closes the {shape}")


@dataclass(frozen=True)
class UnistochasticResult:
    """status "found" | "not_found" | "not_unistochastic".

    "not_found" is evidence, not proof: the search ran out of attempts on a
    Gamma that passes every polygon inequality.
    "not_unistochastic" is definitive and carries its certificate (and, when
    a polygon inequality fails, the violation as data).
    residual is the best Frobenius norm of Theta Theta^dag - 1 seen (None when
    the search was refused outright).
    """

    status: str
    unitary: UnitaryMatrix | None = None
    residual: float | None = None
    certificate: str | None = None
    violation: PolygonViolation | None = None


def _row_sum_deviation(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix.sum(axis=1) - 1.0)))


def polygon_certificate(gamma: np.ndarray) -> PolygonViolation | None:
    """Definitive non-unistochasticity test for every N.

    Columns j and k of a unitary with moduli sqrt(Gamma) are orthogonal only
    if the sides sqrt(Gamma_ij Gamma_ik) close into a polygon: the longest
    is at most the sum of the rest.  Rows obey the same rule, since
    U U^dag = U^dag U = 1.  Column pairs are checked before row pairs, each
    in lexicographic order, and the first pair whose excess passes 1e-12 is
    returned; at N = 3 these are the unitarity triangles.
    """
    for axis, g in (("columns", gamma), ("rows", gamma.T)):
        # sides[i, j, k] = sqrt(g_ij g_ik); excess[j, k] over the first index
        sides = np.sqrt(g[:, :, None] * g[:, None, :])
        excess = 2.0 * sides.max(axis=0) - sides.sum(axis=0)
        j, k = np.nonzero(np.triu(excess > 1e-12, 1))
        if j.size:
            j, k = int(j[0]), int(k[0])
            return PolygonViolation(axis, (j, k), tuple(sides[:, j, k].tolist()),
                                    float(excess[j, k]))
    return None


def _phase_descent(r: np.ndarray, phases: np.ndarray,
                   max_iters: int) -> tuple[np.ndarray, float]:
    """Gradient descent on ||Theta Theta^dag - 1||_F^2 over the phase matrix.

    d/dphi_ij ||...||^2 = 4 Im(conj(Theta_ij) (G Theta)_ij) with
    G = Theta Theta^dag - 1.  The trial step is the Barzilai-Borwein
    spectral length from the previous (step, gradient-change) pair when it
    is positive, else double the last accepted step; a plain fixed step
    needs ~1e5 more iterations to traverse the flat valleys near the
    minimum.  Steps halve on non-decrease.
    """
    eye = np.eye(r.shape[0])

    def evaluate(ph):
        theta = r * np.exp(1j * ph)
        g = theta @ theta.conj().T - eye
        return theta, g, float(np.sum(np.abs(g) ** 2))

    theta, g, f = evaluate(phases)
    grad = 4.0 * np.imag(np.conj(theta) * (g @ theta))
    step = 0.25
    prev_phases: np.ndarray | None = None
    prev_grad: np.ndarray | None = None
    for _ in range(max_iters):
        if f <= UNITARITY_TOL * UNITARITY_TOL:
            break
        if float(np.sum(grad * grad)) <= 1e-30:
            break
        trial = step
        if prev_grad is not None:
            dp = phases - prev_phases
            dg = grad - prev_grad
            denom = float(np.sum(dp * dg))
            if denom > 0.0:
                bb = float(np.sum(dp * dp)) / denom
                if np.isfinite(bb) and bb > 0.0:
                    trial = bb
        # Halve until a step improves, then keep halving while that keeps
        # paying off and take the best of the sweep.  Accepting the first
        # improvement instead makes the iterate hop across narrow valleys
        # (each hop barely shorter than the last) and convergence dies.
        best, s = None, trial
        while s >= 1e-16:
            cand_phases = phases - s * grad
            cand = evaluate(cand_phases)
            if cand[2] < (f if best is None else best[3]):
                best, best_s = (cand_phases, *cand), s
            elif best is not None:
                break
            s *= 0.5
        if best is None:
            break
        prev_phases, prev_grad = phases, grad
        phases, theta, g, f = best
        grad = 4.0 * np.imag(np.conj(theta) * (g @ theta))
        step = best_s * 2.0
    return phases, float(np.sqrt(f))


def unistochastic_search(gamma: TransitionMatrix,
                         max_iters: int = SEARCH_MAX_ITERS, *,
                         seed: int = SEARCH_SEED) -> UnistochasticResult:
    """Look for phases making sqrt(Gamma) with phases unitary.

    A Gamma that is not doubly stochastic, or that fails a polygon
    inequality (polygon_certificate), is refused as "not_unistochastic"
    before any search runs, so "not_found" only ever means a Gamma that
    passes every polygon inequality.  The first start is the zero phase
    matrix (so matrices that are already unistochastic "as printed", like
    permutations, come back verbatim); the other SEARCH_RESTARTS - 1 starts
    draw phases uniformly from [0, 2pi).  Moduli are fixed by construction,
    so any accepted candidate reproduces Gamma exactly.

    The search stops at the unitarity gate: ||Theta Theta^dag - 1||_F <=
    UNITARITY_TOL bounds every entry of Theta^dag Theta - 1 (same spectrum).
    """
    g = gamma.matrix
    row_dev = _row_sum_deviation(g)
    if row_dev > DOUBLY_STOCHASTIC_TOL:
        return UnistochasticResult(
            "not_unistochastic",
            certificate=(f"not doubly stochastic: max row-sum deviation "
                         f"{row_dev:.3e}; unitarity is impossible"))
    violation = polygon_certificate(g)
    if violation is not None:
        return UnistochasticResult("not_unistochastic",
                                   certificate=violation.describe(),
                                   violation=violation)

    r = np.sqrt(g)
    n = gamma.n
    rng = np.random.default_rng(seed)
    best = np.inf
    for attempt in range(SEARCH_RESTARTS):
        if attempt == 0:
            start = np.zeros((n, n))
        else:
            start = rng.uniform(0.0, 2.0 * np.pi, size=(n, n))
        phases, residual = _phase_descent(r, start, max_iters)
        best = min(best, residual)
        if residual <= UNITARITY_TOL:
            theta = r * np.exp(1j * phases)
            return UnistochasticResult(
                "found",
                unitary=UnitaryMatrix(theta, t=gamma.t, t0=gamma.t0),
                residual=residual)
    return UnistochasticResult("not_found", residual=best)


def orthostochastic_check(gamma: TransitionMatrix) -> np.ndarray | None:
    """Exhaustive sign search for real orthogonal O with O_ij^2 = Gamma_ij.

    Signs are assigned column by column with first-nonzero-positive gauge
    fixing, pruning on pairwise column orthogonality (|dot| <= 1e-10).
    Definitive for N <= 4; larger sizes raise UnsupportedSizeError rather
    than pretending to certainty.
    """
    n = gamma.n
    if n > ORTHO_MAX_SIZE:
        raise UnsupportedSizeError(
            f"sign search supports N <= {ORTHO_MAX_SIZE}, got N = {n}")
    row_dev = _row_sum_deviation(gamma.matrix)
    if row_dev > DOUBLY_STOCHASTIC_TOL:
        raise ValidationError(
            f"matrix is not doubly stochastic (row deviation {row_dev:.3e})")
    r = np.sqrt(gamma.matrix)
    tol = 1e-10

    def column_choices(j: int) -> np.ndarray:
        free = np.flatnonzero(r[:, j] > 0.0)[1:]  # gauge: first nonzero is +
        # Row b of the pattern flips the free rows whose bit is set in b.
        bits = np.arange(1 << len(free))[:, None] >> np.arange(len(free)) & 1
        signs = np.ones((len(bits), n))
        signs[:, free] = 1.0 - 2.0 * bits
        return signs * r[:, j]

    chosen: list[np.ndarray] = []

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
    dev = float(np.max(np.abs(o.T @ o - np.eye(n))))
    if dev > tol:
        return None
    return o


# ---------------------------------------------------------------------------
# Kraus and Stinespring
# ---------------------------------------------------------------------------

def kraus_from_potential(theta: PotentialMatrix) -> KrausSet:
    """K_beta holds column beta of Theta in its own column beta, zero elsewhere.

    Completeness sum K_beta^dag K_beta = 1 is exactly the column sum rule, and
    sum_beta |(K_beta)_ij|^2 recovers Gamma entrywise.
    """
    n = theta.n
    ops = np.zeros((n, n, n), dtype=complex)
    beta = np.arange(n)
    ops[beta, :, beta] = theta.matrix.T
    return KrausSet(ops)


def stinespring_dilate(kraus: KrausSet) -> UnitaryMatrix:
    """Dilate the Kraus set to a unitary on system x ancilla (dimension N^2).

    Basis layout: |i> x |beta> sits at flat row i*N + beta, and input
    |j> x |k> at flat column j*N + k.  The isometry
    V|j> = sum_beta (K_beta |j>) x |beta> = (K_j |j>) x |j> fills column j*N
    (ancilla at its reference state 0), because K_beta is supported on column
    beta only.  So U is N blocks: columns j*N .. j*N + N-1 map into rows
    j, j+N, ..., as the unitary Q_j whose first column is K_j |j>, a unit
    vector by completeness.  Every K_j |j> is read from the Kraus stack at
    once, as row j of ``operators[j, :, j]``.  Q_j comes from the QR
    factorization of [K_j |j> | 1], its first column replaced by K_j |j>
    itself (the two differ by the phase of R[0, 0]).  U is unitary to
    machine precision, deterministic, and has at most N^3 nonzero entries.
    """
    n = kraus.n
    j = np.arange(n)
    cols = kraus.operators[j, :, j]
    a = np.concatenate([cols[:, :, None],
                        np.broadcast_to(np.eye(n), (n, n, n))], axis=2)
    q = np.linalg.qr(a)[0]
    q[:, :, 0] = cols
    # u[i, beta, j, k] is row i*N + beta, column j*N + k; block j has beta = j
    u = np.zeros((n, n, n, n), dtype=complex)
    u[:, j, j, :] = q.transpose(1, 0, 2)
    return UnitaryMatrix(u.reshape(n * n, n * n))


def dilation_marginal(u: UnitaryMatrix | np.ndarray, n: int) -> np.ndarray:
    """Recover Gamma_ij = sum_beta |U[(i, beta), (j, 0)]|^2 from a dilation."""
    m = u.matrix if isinstance(u, UnitaryMatrix) else np.asarray(u)
    # Column j*n as row j of a contiguous (n, n, n) stack: the sum over beta
    # runs along the last axis, in the order a per-column sum would take.
    cols = np.ascontiguousarray(m[:, ::n].T).reshape(n, n, n)
    return np.sum(np.abs(cols) ** 2, axis=2).T


# ---------------------------------------------------------------------------
# Density matrices
# ---------------------------------------------------------------------------

def density_from_distribution(p: Distribution) -> DensityMatrix:
    """Diagonal embedding rho = diag(p)."""
    return DensityMatrix(np.diag(p.p.astype(complex)))


def evolve_density(u: UnitaryMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Conjugation rho -> U rho U^dag.

    For diagonal rho the new diagonal is Gamma @ diag(rho) with
    Gamma = |U|^2: the stochastic picture rides along for free.
    """
    if u.n != rho.n:
        raise ValidationError(f"size mismatch: unitary {u.n}, density {rho.n}")
    return DensityMatrix(u.matrix @ rho.matrix @ u.matrix.conj().T)


# ---------------------------------------------------------------------------
# Hamiltonian extraction
# ---------------------------------------------------------------------------

def hamiltonian_from_evolution(evolution: Callable[[float], UnitaryMatrix],
                               t: float, dt: float) -> tuple[HermitianMatrix, float]:
    """Recover H(t) = i U'(t) U(t)^dag by symmetric difference quotient.

    Returns the hermitian part together with the max-entry anti-hermitian
    residual of the raw quotient; the error of both is O(dt^2) for smooth
    families.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    def as_matrix(x):
        return x.matrix if isinstance(x, UnitaryMatrix) else np.asarray(x, dtype=complex)

    u_plus = as_matrix(evolution(t + dt))
    u_minus = as_matrix(evolution(t - dt))
    u_here = as_matrix(evolution(t))
    raw = 1j * ((u_plus - u_minus) / (2.0 * dt)) @ u_here.conj().T
    herm = (raw + raw.conj().T) / 2.0
    residual = float(np.max(np.abs(raw - herm)))
    return HermitianMatrix(herm), residual
