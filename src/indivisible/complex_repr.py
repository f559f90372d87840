"""Complex numbers as 2x2 real matrices, plus the pseudo-quaternion algebra.

A coefficient pair (x, y) stands for the matrix

    x * ONE + y * IMAG = [[x, -y],
                          [y,  x]]

where IMAG squares to -ONE.  All arithmetic is done on the coefficient pair;
``render`` produces the matrix form so the two pictures can be compared
entrywise.  Conjugation is matrix transposition, the squared modulus is the
determinant, and rotations are matrix exponentials of IMAG * theta.

The pseudo-quaternion units extend this picture with a conjugation operator K
(represented by the symmetric flip [[0, 1], [1, 0]]) satisfying

    K @ K = ONE,   K @ IMAG = -IMAG @ K

so {+-ONE, +-IMAG, +-K, +-IMAG@K} close under multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ONE = np.array([[1.0, 0.0], [0.0, 1.0]])
IMAG = np.array([[0.0, -1.0], [1.0, 0.0]])
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])

# Taylor-series controls for exp(IMAG * theta).
EXP_TERM_CUTOFF = 1e-16
EXP_MAX_TERMS = 64


@dataclass(frozen=True)
class Mat2C:
    """A complex number x + iy held as the coefficients of ONE and IMAG."""

    x: float
    y: float

    def render(self) -> np.ndarray:
        """Return the 2x2 real matrix [[x, -y], [y, x]]."""
        return np.array([[self.x, -self.y], [self.y, self.x]])

    def to_complex(self) -> complex:
        return complex(self.x, self.y)

    @classmethod
    def from_complex(cls, z: complex) -> "Mat2C":
        return cls(z.real, z.imag)


def c2_mul(a: Mat2C, b: Mat2C) -> Mat2C:
    """Product (ac - bd, ad + bc); agrees with matrix multiplication of renders."""
    return Mat2C(a.x * b.x - a.y * b.y, a.x * b.y + a.y * b.x)


def c2_add(a: Mat2C, b: Mat2C) -> Mat2C:
    return Mat2C(a.x + b.x, a.y + b.y)


def c2_conj(a: Mat2C) -> Mat2C:
    """Conjugate (x, -y); the render of the result is the transposed render."""
    return Mat2C(a.x, -a.y)


def c2_modulus_sq(a: Mat2C) -> float:
    """Squared modulus x^2 + y^2, equal to the determinant of the render."""
    return a.x * a.x + a.y * a.y


def c2_reciprocal(a: Mat2C) -> Mat2C:
    """Multiplicative inverse conj(a) / |a|^2.

    Raises ZeroDivisionError for the zero pair, which is the only pair without
    an inverse.
    """
    m = c2_modulus_sq(a)
    if m == 0.0:
        raise ZeroDivisionError("the zero pair has no reciprocal")
    return Mat2C(a.x / m, -a.y / m)


def c2_exp_rotation(theta: float) -> Mat2C:
    """Rotation exp(IMAG * theta) as the pair (cos theta, sin theta)."""
    return Mat2C(math.cos(theta), math.sin(theta))


def taylor_exp_rotation(theta: float, max_terms: int = EXP_MAX_TERMS) -> np.ndarray:
    """Evaluate exp(IMAG * theta) by direct Taylor summation of the matrix series.

    Terms are added until the next term's magnitude falls below EXP_TERM_CUTOFF
    (scaled by the running partial sum), capped at ``max_terms``.  Exists as an
    independent route to the closed form used by :func:`c2_exp_rotation`.
    """
    acc = ONE.copy()
    term = ONE.copy()
    for k in range(1, max_terms + 1):
        term = (term @ IMAG) * (theta / k)
        acc += term
        if np.max(np.abs(term)) < EXP_TERM_CUTOFF * max(1.0, np.max(np.abs(acc))):
            break
    return acc


def entrywise_mul(a: Mat2C, b: Mat2C) -> Mat2C:
    """Entrywise (Hadamard) product of the coefficient pairs: (ac, bd).

    Deliberately NOT a complex product.  Kept as a foil: under this operation
    the pair (a, 0) with a != 0 has no inverse (the entrywise unit is (1, 1),
    and (a, 0) * (c, d) = (ac, 0) can never reach it), so the entrywise
    algebra fails the division property that c2_mul enjoys.
    """
    return Mat2C(a.x * b.x, a.y * b.y)


# ---------------------------------------------------------------------------
# Pseudo-quaternion units
# ---------------------------------------------------------------------------

_PQ_RENDER = {
    "one": ONE,
    "i": IMAG,
    "K": FLIP,
    "iK": IMAG @ FLIP,  # [[-1, 0], [0, 1]]
}

# Row label times column label.  Derived from i*i = -1, K*K = 1, K*i = -i*K;
# cross-checked against the 2x2 renders in the test suite.
_PQ_TABLE = {
    ("one", "one"): ("one", 1), ("one", "i"): ("i", 1),
    ("one", "K"): ("K", 1), ("one", "iK"): ("iK", 1),
    ("i", "one"): ("i", 1), ("i", "i"): ("one", -1),
    ("i", "K"): ("iK", 1), ("i", "iK"): ("K", -1),
    ("K", "one"): ("K", 1), ("K", "i"): ("iK", -1),
    ("K", "K"): ("one", 1), ("K", "iK"): ("i", -1),
    ("iK", "one"): ("iK", 1), ("iK", "i"): ("K", 1),
    ("iK", "K"): ("i", 1), ("iK", "iK"): ("one", 1),
}


@dataclass(frozen=True)
class PseudoQuaternionElement:
    """A signed unit from {one, i, K, iK}."""

    tag: str
    sign: int = 1

    def __post_init__(self):
        if self.tag not in _PQ_RENDER:
            raise ValueError(f"unknown pseudo-quaternion tag {self.tag!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def render(self) -> np.ndarray:
        return self.sign * _PQ_RENDER[self.tag]


def pq_mul(a: PseudoQuaternionElement,
           b: PseudoQuaternionElement) -> PseudoQuaternionElement:
    """Group product of two signed units."""
    tag, s = _PQ_TABLE[(a.tag, b.tag)]
    return PseudoQuaternionElement(tag, a.sign * b.sign * s)
