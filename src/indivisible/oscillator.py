"""Schrodinger dynamics as a classical oscillator system (Strocchi-Heslot form).

A state Psi and Hamiltonian H over C^N are split into real data

    Psi = (q + i p) / sqrt(2),      H = A + i B

with A symmetric and B antisymmetric (both real, forced by hermiticity).
Under this identification the Schrodinger equation i Psi' = H Psi is exactly
the pair of Hamilton equations

    q' = A p + B q = dH_SH/dp,      p' = -A q + B p = -dH_SH/dq

for the quadratic classical Hamiltonian

    H_SH(q, p) = 1/2 p.A p + p.B q + 1/2 q.A q = <Psi| H |Psi>.

(The cross term must pair p with the first index of B; with the opposite
pairing the antisymmetry of B flips its sign and Hamilton's equations stop
matching the componentwise Schrodinger equation.)

Time evolution is integrated symplectically: the A-part and B-part of H_SH
are each exactly solvable (mode rotations and an orthogonal flow), and a
Strang composition B/2 . A . B/2 gives a second-order scheme whose energy
error stays bounded instead of drifting.  Since H_SH is quadratic the whole
step is one precomputed linear map on (q, p), so a stride of s steps is the
single map step**s, built by repeated squaring; the integrator applies it
once per recorded sample instead of looping over steps.

The post-processing functions (sh_energy, sh_recombine, exact_evolve) take
a whole trajectory, or an array of times, as readily as a single state: the
energies come from one einsum over the sample rows, and exact evolution at
every sample time from one eigendecomposition of H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (IntegrationError, SquareMatrix, ValidationError, freeze,
                     require_finite, require_hermitian, square_matrix,
                     uniform_grid)

HERMITICITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
SH_METHODS = ("strang", "rk4")  # sh_integrate's methods


@dataclass(frozen=True)
class HermitianMatrix(SquareMatrix):
    """Complex square matrix validated against H = H-dagger."""

    def __post_init__(self):
        m = square_matrix(self.matrix, complex)
        require_hermitian(m, HERMITICITY_TOL)
        freeze(self, matrix=m)


@dataclass(frozen=True)
class StateVector:
    """Complex state; when flagged normalized, the 2-norm must be 1."""

    psi: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        v = np.array(self.psi, dtype=complex).reshape(-1)
        require_finite(v, "state")
        if self.normalized:
            nrm = float(np.linalg.norm(v))
            if abs(nrm - 1.0) > NORMALIZATION_TOL:
                raise ValidationError(
                    f"state norm {nrm!r} deviates from 1 by more than "
                    f"{NORMALIZATION_TOL:.0e}", norm=nrm)
        freeze(self, psi=v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.psi))


@dataclass(frozen=True)
class PhaseSpaceState:
    """Real phase-space point (q, p)."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float).reshape(-1)
        p = np.array(self.p, dtype=float).reshape(-1)
        if q.shape != p.shape:
            raise ValidationError(
                f"q and p must have equal length, got {q.shape} and {p.shape}")
        freeze(self, q=q, p=p)


@dataclass(frozen=True)
class SHSystem:
    """Real pair (A, B) with A exactly symmetric and B exactly antisymmetric."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(
                f"A and B must be equal square shapes, got {a.shape}, {b.shape}")
        if not np.array_equal(a, a.T):
            raise ValidationError("A must be exactly symmetric as stored")
        if not np.array_equal(b, -b.T):
            raise ValidationError("B must be exactly antisymmetric as stored")
        freeze(self, a=a, b=b)

    @property
    def n(self) -> int:
        return self.a.shape[0]


def sh_decompose(h: HermitianMatrix) -> SHSystem:
    """Split H into (A, B) = (Re H, Im H), symmetrized so the parts are exact.

    Averaging an entry with its transpose partner keeps every value within
    the hermiticity tolerance of the input while making A = A^T and
    B = -B^T hold bitwise.
    """
    re = h.matrix.real
    im = h.matrix.imag
    a = (re + re.T) / 2.0
    b = (im - im.T) / 2.0
    return SHSystem(a, b)


def sh_recombine(state: PhaseSpaceState | PhaseTrajectory
                 ) -> StateVector | np.ndarray:
    """Psi = (q + i p) / sqrt(2); no normalization is claimed for the result.

    A trajectory gives one state per row, as a (samples, N) array.
    """
    psi = (state.q + 1j * state.p) / np.sqrt(2.0)
    return psi if psi.ndim == 2 else StateVector(psi, normalized=False)


def sh_split(psi: StateVector) -> PhaseSpaceState:
    """Inverse of sh_recombine: q = sqrt(2) Re Psi, p = sqrt(2) Im Psi."""
    v = psi.psi
    return PhaseSpaceState(np.sqrt(2.0) * v.real, np.sqrt(2.0) * v.imag)


def sh_energy(system: SHSystem, state: PhaseSpaceState | PhaseTrajectory
              ) -> float | np.ndarray:
    """Classical energy 1/2 p.A p + p.B q + 1/2 q.A q.

    Equals Re <Psi|H|Psi> = <Psi|H|Psi> for Psi recombined from (q, p).  With
    x = (q, p) it is the quadratic form x.K x for K = [[A/2, 0], [B, A/2]],
    taken row by row, so a trajectory gives one energy per sample.
    """
    a, b = system.a, system.b
    k = np.block([[a / 2.0, np.zeros_like(b)], [b, a / 2.0]])
    x = np.concatenate([state.q, state.p], axis=-1)
    e = np.einsum("...i,...i->...", x @ k, x)
    return float(e) if e.ndim == 0 else e


@dataclass(frozen=True)
class PhaseTrajectory:
    """Strided phase-space samples; q and p have one row per sample."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        q = np.array(self.q, dtype=float)
        p = np.array(self.p, dtype=float)
        if not (len(t) == q.shape[0] == p.shape[0]):
            raise ValidationError("times, q, p must agree in sample count")
        freeze(self, times=t, q=q, p=p)

    def __len__(self) -> int:
        return len(self.times)

    def state(self, k: int) -> PhaseSpaceState:
        return PhaseSpaceState(self.q[k], self.p[k])


def _mode_rotation(a: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    # Exact flow of the A-only Hamiltonian: per-mode rotation by eigenvalue * dt.
    w, v = np.linalg.eigh(a)
    cos = (v * np.cos(w * dt)) @ v.T
    sin = (v * np.sin(w * dt)) @ v.T
    return cos, sin

def _orthogonal_flow(b: np.ndarray, dt: float) -> np.ndarray:
    # Exact flow exp(B dt) of the B-only Hamiltonian; B antisymmetric makes
    # iB hermitian, so the exponential comes out of a hermitian eigensolve.
    w, v = np.linalg.eigh(1j * b)
    r = (v * np.exp(-1j * w * dt)) @ v.conj().T
    return np.ascontiguousarray(r.real)


def _strang_step_matrix(system: SHSystem, dt: float) -> np.ndarray:
    """One Strang step (B half, A full, B half) as a 2N x 2N linear map."""
    n = system.n
    cos, sin = _mode_rotation(system.a, dt)
    half = _orthogonal_flow(system.b, dt / 2.0)
    step_a = np.block([[cos, sin], [-sin, cos]])
    step_b = np.zeros((2 * n, 2 * n))
    step_b[:n, :n] = half
    step_b[n:, n:] = half
    return step_b @ step_a @ step_b


def _rk4_step_matrix(system: SHSystem, dt: float) -> np.ndarray:
    """Classical RK4 on the linear field (q', p') = (Ap + Bq, Bp - Aq)."""
    n = system.n
    gen = np.block([[system.b, system.a], [-system.a, system.b]])
    eye = np.eye(2 * n)
    m = eye.copy()
    term = eye.copy()
    for k in (1, 2, 3, 4):
        term = (gen @ term) * (dt / k)
        m = m + term
    return m


def sh_integrate(system: SHSystem, state: PhaseSpaceState, dt: float,
                 duration: float, method: str = "strang",
                 sample_stride: int = 1) -> PhaseTrajectory:
    """Evolve (q, p) on the grid of ``errors.uniform_grid(dt, duration)``.

    Its round(duration / dt) steps cover [0, duration] exactly, so the step
    equals dt only when dt divides duration.  method is one of SH_METHODS:
    "strang" is the symplectic default; "rk4" is kept for comparison runs
    and has no symplecticity guarantee.
    sample_stride > 1 records every stride-th step (the first and last steps
    are always included).  The stride is taken as one matrix, step**stride,
    so each recorded sample costs one matrix-vector product; stride 1 does
    exactly the products of a step-by-step loop.  A method that blows up
    (rk4 at too large a step) raises IntegrationError naming the first
    recorded step whose sample is not finite.
    """
    n_steps, dt = uniform_grid(dt, duration)
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    if method not in SH_METHODS:
        raise ValueError(f"unknown method {method!r}")
    stride = min(sample_stride, n_steps)
    jumps, tail = divmod(n_steps, stride)
    idx = stride * np.arange(jumps + 1)
    if tail:
        idx = np.append(idx, n_steps)
    samples = np.empty((len(idx), 2 * system.n))
    samples[0] = np.concatenate([state.q, state.p])
    # Overflow is detected below, from the samples, rather than warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        step = (_strang_step_matrix if method == "strang"
                else _rk4_step_matrix)(system, dt)
        jump = np.linalg.matrix_power(step, stride)
        for k in range(1, jumps + 1):
            samples[k] = jump @ samples[k - 1]
        if tail:
            samples[-1] = np.linalg.matrix_power(step, tail) @ samples[-2]
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        step_index = int(idx[bad[0]])
        raise IntegrationError(
            f"state became non-finite by step {step_index}", step=step_index)
    n = system.n
    return PhaseTrajectory(dt * idx, samples[:, :n], samples[:, n:])


def sh_normal_modes(h: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenfrequencies (ascending) and the unitary of eigenvectors.

    In the returned basis the system decouples: transforming H by the basis
    leaves A diagonal (the frequencies) and B zero.
    """
    w, v = np.linalg.eigh(h.matrix)
    return w, v


def exact_evolve(h: HermitianMatrix, psi0: StateVector,
                 t: float | np.ndarray) -> StateVector | np.ndarray:
    """Apply exp(-i H t) through one eigendecomposition H = V diag(w) V^dag.

    For an array of times the result has one state per row,
    (exp(-i t (x) w) * (V^dag psi0)) V^T, as a (len(t), N) array.
    """
    w, v = np.linalg.eigh(h.matrix)
    phases = np.exp(-1j * np.multiply.outer(t, w))
    psi = (phases * (v.conj().T @ psi0.psi)) @ v.T
    return psi if psi.ndim == 2 else StateVector(psi, normalized=psi0.normalized)


def time_reverse_state(psi: StateVector, v: np.ndarray | None = None) -> StateVector:
    """Antiunitary reversal Psi -> V conj(Psi); V defaults to the identity."""
    out = np.conj(psi.psi)
    if v is not None:
        out = np.asarray(v, dtype=complex) @ out
    return StateVector(out, normalized=psi.normalized)
