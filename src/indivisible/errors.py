"""Exception types, shared matrix checks, the shared time grid and the value
types' storage rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """ValidationError when max |M - M^dag| exceeds ``tol``."""
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if dev > tol:
        raise ValidationError(
            f"matrix is not hermitian: max |H - H^dag| = {dev:.3e} "
            f"exceeds {tol:.0e}", deviation=dev)


def completeness_deviation(*ops: np.ndarray) -> float:
    """max |sum_k K_k^dag K_k - 1|; for a single operator, its unitarity defect."""
    total = sum(k.conj().T @ k for k in ops)
    return float(np.max(np.abs(total - np.eye(total.shape[0]))))


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

    Arrays directly in a field, or in a tuple field, lose their writeable
    flag.  Callers pass fresh copies, so their own inputs stay writable.
    """
    for name, value in fields.items():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class SquareMatrix:
    """Base of the value types that hold one square ``matrix``."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]
