"""Markovian embeddings of second-order laws.

A second-order update x(t+1) = F(x(t), x(t-1)) is not Markovian on its
configuration space, but carrying the previous value along as a second
coordinate makes it so:

    (x, y)  ->  (F(x, y), x)

The continuous analogue x'' = F(x, x') becomes the first-order pair
x' = y, y' = F(x, y), integrated here with fixed-step RK4.  Writing
z = x + iy turns the pair into the single complex flow

    z' = calF(z) = y + i F(x, y)

which is the embedded pair read as z, not a second dynamics: the paper's
point in miniature, as oscillator says for (q, p).  Time reversal acts as
x -> x(-t), y -> -y(-t), i.e. z(t) -> conj(z(-t)).
The pair law is invariant under that reversal exactly when F(x, -y) = F(x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DomainError, IntegrationError, ValidationError,
                     ValueType, freeze, uniform_grid)

# Reversal-invariance sampling: |F(x, y) - F(x, -y)| is probed on SAMPLES
# uniform draws from [-BOX, BOX]^2 and compared against INVARIANCE_TOL.
INVARIANCE_TOL = 1e-12
INVARIANCE_BOX = 10.0
INVARIANCE_SAMPLES = 256


@dataclass(frozen=True)
class EmbeddedState:
    """Current value paired with the previous one (or velocity, continuously)."""

    x: float
    y: float


@dataclass(frozen=True)
class SecondOrderDiscreteLaw:
    """Update rule x(t+1) = f(x(t), x(t-1)) on {base, ..., base + n - 1}.

    The default base of 1 gives the configuration space {1, ..., n}; laws
    built from modular arithmetic can set base=0.
    """

    f: Callable[[int, int], int]
    n: int
    base: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"configuration space must be nonempty, got n={self.n}")

    def contains(self, value: int) -> bool:
        return self.base <= value < self.base + self.n


def step_discrete(law: SecondOrderDiscreteLaw, state: EmbeddedState) -> EmbeddedState:
    """One Markovian step (x, y) -> (f(x, y), x).

    Raises DomainError if the law steps outside its configuration space.
    """
    nxt = law.f(int(state.x), int(state.y))
    if not law.contains(nxt):
        raise DomainError(
            f"law produced {nxt}, outside configuration space "
            f"[{law.base}, {law.base + law.n - 1}]",
            value=nxt, state=(state.x, state.y))
    return EmbeddedState(nxt, state.x)


def iterate_discrete(law: SecondOrderDiscreteLaw, state: EmbeddedState,
                     steps: int) -> list[EmbeddedState]:
    """Trajectory [state, step(state), ...] of length steps + 1."""
    out = [state]
    for _ in range(steps):
        state = step_discrete(law, state)
        out.append(state)
    return out


@dataclass(frozen=True)
class SecondOrderODE:
    """Continuous law x'' = f(x, x')."""

    f: Callable[[float, float], float]


@dataclass(frozen=True)
class ComplexFlow:
    """The complexified form z' = y + i f(x, y) of a second-order ODE."""

    ode: SecondOrderODE


@dataclass(frozen=True)
class Trajectory(ValueType):
    """Samples (t_k, x_k, y_k) on a uniform grid; arrays are read-only."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        freeze(self, **{name: np.array(getattr(self, name), dtype=float)
                        for name in ("times", "x", "y")})
        if not (len(self.times) == len(self.x) == len(self.y)):
            raise ValueError("times, x, y must have equal lengths")

    def __len__(self) -> int:
        return len(self.times)


def integrate_embedded(ode: SecondOrderODE, x0: float, v0: float,
                       dt: float, duration: float) -> Trajectory:
    """Fixed-step RK4 on the pair x' = y, y' = f(x, y).

    Runs round(duration / dt) equal steps covering [0, duration] exactly; the
    first sample is (x0, v0).  Raises IntegrationError (with the step index)
    if the state stops being finite or the law overflows.

    A scalar loop over Python floats.  Each stage argument is computed once:
    the x-slope of a stage is the y-argument of the next law call
    (k2x = y + dt/2 k1y, and so on), and k1x is y itself.
    """
    n, dt = uniform_grid(dt, duration)
    f = ode.f
    half = dt / 2.0
    sixth = dt / 6.0
    xs = [x0]
    ys = [v0]
    x, y = x0, v0
    try:
        for k in range(n):
            k1y = f(x, y)
            k2x = y + half * k1y
            k2y = f(x + half * y, k2x)
            k3x = y + half * k2y
            k3y = f(x + half * k2x, k3x)
            k4x = y + dt * k3y
            k4y = f(x + dt * k3x, k4x)
            sx = y + 2.0 * k2x
            sx = sx + 2.0 * k3x
            sx = sx + k4x
            sy = k1y + 2.0 * k2y
            sy = sy + 2.0 * k3y
            sy = sy + k4y
            x = x + sixth * sx
            y = y + sixth * sy
            if not (math.isfinite(x) and math.isfinite(y)):
                raise IntegrationError(
                    f"state became non-finite at step {k + 1}", step=k + 1)
            xs.append(x)
            ys.append(y)
    except OverflowError as exc:  # float ** past the double range
        raise IntegrationError(
            f"law overflowed at step {k + 1}: {exc}", step=k + 1) from None
    times = dt * np.arange(n + 1)
    return Trajectory(times, xs, ys)


def integrate_complex(flow: ComplexFlow, z0: complex, dt: float,
                      duration: float) -> tuple[np.ndarray, np.ndarray]:
    """The embedded pair trajectory from (Re z0, Im z0), read as z = x + iy.

    Returns (times, zs) with errors and step indices from integrate_embedded.
    The parts are assigned rather than formed as x + 1j*y, which would turn
    a -0.0 real part into +0.0.
    """
    z0 = complex(z0)
    traj = integrate_embedded(flow.ode, z0.real, z0.imag, dt, duration)
    zs = np.empty(len(traj), dtype=complex)
    zs.real = traj.x
    zs.imag = traj.y
    return traj.times, zs


def time_reverse(traj: Trajectory) -> Trajectory:
    """Reversed trajectory x(t) -> x(-t), y(t) -> -y(-t).

    Sample order is flipped and times negated, so the result is again
    ascending in time; applying the map twice returns the input exactly.
    """
    return Trajectory(-traj.times[::-1], traj.x[::-1], -traj.y[::-1])


def reverse_complex(times: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex-plane time reversal z(t) -> conj(z(-t)), reindexed to ascending times."""
    return -times[::-1], np.conj(zs[::-1])


def check_time_reversal_invariance(ode: SecondOrderODE,
                                   seed: int = 0) -> tuple[bool, float]:
    """Probe F(x, -y) = F(x, y) on INVARIANCE_SAMPLES uniform draws from
    [-INVARIANCE_BOX, INVARIANCE_BOX]^2, the stream of ``seed``.

    Returns (invariant, max violation); invariant means a violation of at most
    INVARIANCE_TOL.  A sampled check: a law can evade it on a measure-zero
    set, but for the polynomial laws used in practice the verdict is exact.

    All points come from one draw of shape (INVARIANCE_SAMPLES, 2), the same
    stream as one size-2 draw per sample, and the law is called on Python
    floats.  Raises ValidationError naming the point (x, y) where the law
    overflows or the gap |F(x, -y) - F(x, y)| is not finite.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(-INVARIANCE_BOX, INVARIANCE_BOX,
                         size=(INVARIANCE_SAMPLES, 2))
    f = ode.f
    worst = 0.0
    for x, y in points.tolist():
        try:
            gap = abs(f(x, -y) - f(x, y))
        except OverflowError:
            gap = math.inf
        # true for a new maximum and for inf or NaN (NaN fails every <=)
        if not gap <= worst:
            if not math.isfinite(gap):
                raise ValidationError(
                    f"law is not finite on the time-reversal probe at "
                    f"(x, y) = ({x!r}, {y!r})", point=(x, y))
            worst = gap
    return worst <= INVARIANCE_TOL, float(worst)
