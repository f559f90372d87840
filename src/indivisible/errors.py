"""Exception types, shared matrix checks, the shared time grid and the value
types' storage and copy rules."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Any

import numpy as np


class ValidationError(ValueError):
    """An object failed its structural invariants.

    ``details`` carries machine-readable context (offending columns, residuals,
    dimensions) so callers can emit structured reports instead of parsing the
    message string.
    """

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.details = dict(details)


class DomainError(ValidationError):
    """A map produced a value outside its declared configuration space."""


class IntegrationError(RuntimeError):
    """Integration aborted; ``step`` is the index of the offending step."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class UnsupportedSizeError(ValueError):
    """The requested dimension is outside the range an algorithm supports."""


class NotRankOneError(ValueError):
    """Density matrix has more than one significant eigenvalue.

    The full eigenvalue spectrum (ascending) is attached for diagnostics.
    """

    def __init__(self, message: str, spectrum):
        super().__init__(message)
        self.spectrum = spectrum


class InputFormatError(ValueError):
    """A JSON input file is malformed; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message


def require_finite(arr: np.ndarray, what: str) -> None:
    """ValidationError when ``arr`` holds a NaN or an infinity.

    NaN fails every comparison, so range and sum checks downstream would
    silently pass it.
    """
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0].tolist()
        raise ValidationError(f"{what} has a non-finite entry at {bad}",
                              index=bad)


def square_matrix(arr, dtype) -> np.ndarray:
    """A fresh, finite 2-D square array of ``dtype``; ValidationError otherwise."""
    m = np.array(arr, dtype=dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected square matrix, got shape {m.shape}")
    require_finite(m, "matrix")
    return m


def require_hermitian(m: np.ndarray, tol: float) -> None:
    """ValidationError unless max |M - M^dag| is at most ``tol``.

    A difference too large for a float is inf and fails the gate.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if not dev <= tol:
        raise ValidationError(
            f"matrix is not hermitian: max |H - H^dag| = {dev:.3e} "
            f"exceeds {tol:.0e}", deviation=dev)


def completeness_deviation(ops: np.ndarray) -> float:
    """max |sum_k K_k^dag K_k - 1| over a (K, N, N) stack of operators; for a
    single N x N operator, its unitarity defect.

    Entries too large to square give inf or NaN, never a warning; callers
    accept only ``dev <= tol``, which refuses both.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = ops.conj().swapaxes(-1, -2) @ ops
        if ops.ndim == 3:
            total = total.sum(axis=0)
        return float(np.max(np.abs(total - np.eye(ops.shape[-1]))))


# A time grid has fewer steps than this; past it, its float arrays would not
# fit in memory, nor their sizes in a numpy index.
MAX_GRID_STEPS = np.iinfo(np.intp).max // 8


def uniform_grid(dt: float, duration: float) -> tuple[int, float]:
    """Steps and step size for a uniform grid that lands exactly on duration.

    The step equals dt whenever dt divides duration; otherwise it is the
    nearest value that does, duration / round(duration / dt).  ValueError
    naming the argument unless 0 < dt, duration < inf (NaN fails), and
    naming dt unless duration / dt < MAX_GRID_STEPS.
    """
    for name, value in (("dt", dt), ("duration", duration)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    steps = duration / dt
    if not steps < MAX_GRID_STEPS:
        raise ValueError(f"dt is too small for duration: {steps:.3g} steps, "
                         "more than an array can hold")
    n = max(1, int(round(steps)))
    return n, duration / n


def freeze(obj, **fields) -> None:
    """Set each field of the frozen dataclass ``obj``, arrays read-only.

    An array field is stored as a view of a read-only buffer over its data,
    so neither it nor any array on its ``.base`` chain can be made writable
    again.  Callers pass fresh copies, so their own inputs stay writable; a
    C-contiguous copy is stored without copying it again.
    """
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            data = memoryview(np.ascontiguousarray(value)).toreadonly()
            value = np.frombuffer(data, value.dtype).reshape(value.shape)
        object.__setattr__(obj, name, value)


class ValueType:
    """Base of the validated value types.

    A pickle or a copy is rebuilt by the constructor from the ``init``
    fields, so it is validated again and stored under the same rule; a
    read-only mapping is handed over as a dict.
    """

    def __reduce__(self):
        args = (getattr(self, f.name) for f in fields(self) if f.init)
        return type(self), tuple(dict(a) if isinstance(a, MappingProxyType)
                                 else a for a in args)


@dataclass(frozen=True)
class SquareMatrix(ValueType):
    """Base of the value types that hold one square ``matrix``."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]
