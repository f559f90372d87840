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
error stays bounded instead of drifting.  Both sub-flows are real and come
from real symmetric eigensolves: the mode rotations cos(A dt) and
sin(A dt) from one of A, and the orthogonal flow h = exp(B dt/2) =
cos(s sqrt X) + B s sinc(s sqrt X), with s = dt/2 and X = B^T B, from one
of X.

Both sub-flows commute with the complex structure J: (q, p) -> (-p, q),
which is multiplication by i on z = q + i p: the A-flow turns q and p
through the same mode rotations, the B-flow moves both by the same
orthogonal matrix.  A real map commuting with J is the real form
[[Re S, -Im S], [Im S, Re S]] of an N x N complex S, so the step is the
unitary S = h (cos(A dt) - i sin(A dt)) h acting on z, and J enters only
in that pairing.  That is the paper's point in miniature: the real phase
space carries the Schrodinger flow only together with J, and with J it is
complex Hilbert-space evolution.  Since H_SH is quadratic, a stride of k
steps is the N x N map S**k.  A power applied at many samples is formed
once by repeated squaring; one used once (a single stride, or the last
partial one) is applied to the state square by square, without forming
it.

The post-processing functions (sh_energy, sh_recombine, exact_evolve) take
a whole trajectory, or an array of times, as readily as a single state: the
energies come from one einsum over the sample rows, and exact evolution at
every sample time from one eigendecomposition of H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (IntegrationError, SquareMatrix, ValidationError,
                     ValueType, freeze, require_finite, require_hermitian,
                     square_matrix, uniform_grid)

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
class StateVector(ValueType):
    """Complex state; when flagged normalized, the 2-norm must be 1."""

    psi: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        v = np.array(self.psi, dtype=complex).reshape(-1)
        require_finite(v, "state")
        if self.normalized:
            # A norm too large for a float is inf and fails the gate.
            with np.errstate(over="ignore"):
                nrm = float(np.linalg.norm(v))
            if not abs(nrm - 1.0) <= NORMALIZATION_TOL:
                raise ValidationError(
                    f"state norm {nrm!r} deviates from 1 by more than "
                    f"{NORMALIZATION_TOL:.0e}", norm=nrm)
        freeze(self, psi=v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.psi))


@dataclass(frozen=True)
class PhaseSpaceState(ValueType):
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
class SHSystem(ValueType):
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
    B = -B^T hold bitwise.  Halving before adding cannot overflow, and for
    normal entries it gives the bits of halving the sum.
    """
    re = h.matrix.real / 2.0
    im = h.matrix.imag / 2.0
    a = re + re.T
    b = im - im.T
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

    Equals Re <Psi|H|Psi> = <Psi|H|Psi> for Psi recombined from (q, p), that
    is 1/2 Re(conj(z) . H z) for z = q + i p, taken row by row, so a
    trajectory gives one energy per sample.
    """
    z = state.q + 1j * state.p
    e = 0.5 * np.einsum("...i,...i->...", z.conj() @ (system.a + 1j * system.b),
                        z).real
    return float(e) if e.ndim == 0 else e


@dataclass(frozen=True)
class PhaseTrajectory(ValueType):
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


def _orthogonal_flow(b: np.ndarray, s: float) -> np.ndarray:
    """exp(B s) for real antisymmetric B, from a real symmetric eigensolve.

    B^2 = -X with X = B^T B, so the even and odd terms of the series are
    cos(s sqrt X) and B s sinc(s sqrt X).  Both are smooth functions of X
    itself, so a rounding-level negative or zero eigenvalue of X (odd N
    always has one) does no harm.  X is taken of B / max|B|, which cannot
    overflow.
    """
    beta = np.abs(b).max(initial=0.0)
    if beta == 0.0:
        return np.eye(len(b))
    unit = b / beta
    x, q = np.linalg.eigh(unit.T @ unit)
    mu = beta * s * np.sqrt(np.maximum(x, 0.0))
    sinc = np.divide(np.sin(mu), mu, out=np.ones_like(mu), where=mu != 0.0)
    return (q * np.cos(mu) + b @ (q * (s * sinc))) @ q.T


def _step_matrix(system: SHSystem, dt: float, method: str) -> np.ndarray:
    """One step of ``method`` as an N x N complex map on z = q + i p.

    "strang" is B half, A full, B half, each sub-flow real: the mode
    rotations cos(A dt) and sin(A dt) from one eigensolve A = V diag(w) V^T,
    and the orthogonal flow h = exp(B dt/2) from one of B^T B.  J pairs
    them into the unitary h (cos(A dt) - i sin(A dt)) h, whose real and
    imaginary parts are (h V) diag(cos(w dt)) (h^T V)^T and the same with
    -sin(w dt).  "rk4" is classical RK4 on the linear field z' = -i H z
    with H = A + i B, the sum of (-i H dt)^k / k! for k = 0..4.
    """
    if method == "strang":
        w, v = np.linalg.eigh(system.a)
        h = _orthogonal_flow(system.b, dt / 2.0)
        hv, htv = h @ v, h.T @ v
        step = np.empty((system.n, system.n), dtype=complex)
        step.real = (hv * np.cos(w * dt)) @ htv.T
        step.imag = (hv * -np.sin(w * dt)) @ htv.T
        return step
    gen = system.b - 1j * system.a
    m = term = np.eye(system.n, dtype=complex)
    for k in (1, 2, 3, 4):
        term = (gen @ term) * (dt / k)
        m = m + term
    return m


def _power_applied(step: np.ndarray, k: int, z: np.ndarray) -> np.ndarray:
    """step**k @ z by repeated squaring, without forming step**k: z meets
    each square of step whose bit of k is set."""
    while True:
        if k & 1:
            z = step @ z
        k >>= 1
        if not k:
            return z
        step = step @ step


def sh_integrate(system: SHSystem, state: PhaseSpaceState, dt: float,
                 duration: float, method: str = "strang",
                 sample_stride: int = 1) -> PhaseTrajectory:
    """Evolve z = q + i p on the grid of ``errors.uniform_grid(dt, duration)``.

    Its round(duration / dt) steps cover [0, duration] exactly, so the step
    equals dt only when dt divides duration.  method is one of SH_METHODS:
    "strang" is the symplectic default; "rk4" is kept for comparison runs
    and has no symplecticity guarantee.
    sample_stride > 1 records every stride-th step (the first and last steps
    are always included).  With two or more strides the stride is taken as
    one N x N complex matrix, step**stride, so each recorded sample costs
    one matrix-vector product, and stride 1 does exactly the products of a
    step-by-step loop.  A single stride and the last partial one apply
    their power to the state by repeated squaring.  A method
    that blows up (rk4 at too large a step) raises IntegrationError naming
    the first recorded step whose sample is not finite.
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
    samples = np.empty((len(idx), system.n), dtype=complex)
    samples[0] = state.q + 1j * state.p
    # Overflow is detected below, from the samples, rather than warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        step = _step_matrix(system, dt, method)
        if jumps == 1:
            samples[1] = _power_applied(step, stride, samples[0])
        else:
            jump = np.linalg.matrix_power(step, stride)
            for k in range(1, jumps + 1):
                samples[k] = jump @ samples[k - 1]
        if tail:
            samples[-1] = _power_applied(step, tail, samples[-2])
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        step_index = int(idx[bad[0]])
        raise IntegrationError(
            f"state became non-finite by step {step_index}", step=step_index)
    return PhaseTrajectory(dt * idx, samples.real, samples.imag)


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
