import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from indivisible.complex_repr import (
    EXP_MAX_TERMS,
    FLIP,
    IMAG,
    ONE,
    Mat2C,
    PseudoQuaternionElement,
    c2_modulus_sq,
    c2_mul,
    pq_mul,
    taylor_exp_rotation,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_basis_constants():
    assert np.array_equal(ONE, np.eye(2))
    assert np.array_equal(IMAG @ IMAG, -ONE)
    assert np.array_equal(FLIP @ FLIP, ONE)


def test_render_shape():
    z = Mat2C(3.0, -2.0)
    m = z.render()
    assert np.array_equal(m, np.array([[3.0, 2.0], [-2.0, 3.0]]))
    assert m[0, 0] == m[1, 1]
    assert m[0, 1] == -m[1, 0]


def test_complex_round_trip():
    z = Mat2C.from_complex(1.5 - 0.25j)
    assert (z.x, z.y) == (1.5, -0.25)
    assert z.to_complex() == 1.5 - 0.25j


def test_product_matches_matrix_product():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a = Mat2C(*rng.normal(size=2))
        b = Mat2C(*rng.normal(size=2))
        got = c2_mul(a, b).render()
        want = a.render() @ b.render()
        assert np.max(np.abs(got - want)) <= 1e-12


@given(ax=finite, ay=finite, bx=finite, by=finite)
def test_product_isomorphism_property(ax, ay, bx, by):
    a, b = Mat2C(ax, ay), Mat2C(bx, by)
    got = c2_mul(a, b).render()
    want = a.render() @ b.render()
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_modulus_squared_is_determinant():
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = Mat2C(*rng.normal(size=2))
        assert c2_modulus_sq(z) == pytest.approx(np.linalg.det(z.render()),
                                                 rel=1e-12, abs=1e-12)
        assert c2_modulus_sq(z) >= 0.0


def test_norm_multiplicativity():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a = Mat2C(*rng.normal(size=2))
        b = Mat2C(*rng.normal(size=2))
        lhs = c2_modulus_sq(c2_mul(a, b))
        rhs = c2_modulus_sq(a) * c2_modulus_sq(b)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def test_rotation_is_norm_one():
    for theta in np.linspace(-7.0, 7.0, 29):
        r = taylor_exp_rotation(theta)
        assert np.linalg.det(r) == pytest.approx(1.0, rel=1e-12)


def test_euler_identity():
    assert np.max(np.abs(taylor_exp_rotation(math.pi) + ONE)) <= 1e-10


def test_taylor_matches_closed_form():
    for theta in np.linspace(-10.0, 10.0, 81):
        t = taylor_exp_rotation(theta)
        assert np.max(np.abs(t - rotation(theta))) <= 1e-10


def test_taylor_term_cap_is_a_hard_stop():
    # the series for theta = 80 peaks near term 80, so 64 terms land far
    # from the rotation instead of looping forever
    t = taylor_exp_rotation(80.0, max_terms=EXP_MAX_TERMS)
    assert np.max(np.abs(t - rotation(80.0))) > 1.0
    # a term budget past the peak converges again; accuracy at theta = 20 is
    # cancellation-limited (intermediate terms reach ~4e7)
    t = taylor_exp_rotation(20.0, max_terms=200)
    assert np.max(np.abs(t - rotation(20.0))) <= 1e-6


ELEMENTS = [PseudoQuaternionElement(tag, sign)
            for tag in ("one", "i", "K", "iK") for sign in (1, -1)]


def test_pq_table_matches_rendered_matrix_products():
    for a in ELEMENTS:
        for b in ELEMENTS:
            got = pq_mul(a, b)
            assert np.array_equal(got.render(), a.render() @ b.render()), (a, b)


def test_pq_defining_relations():
    one = PseudoQuaternionElement("one", 1)
    i = PseudoQuaternionElement("i", 1)
    k = PseudoQuaternionElement("K", 1)
    ik = PseudoQuaternionElement("iK", 1)
    assert pq_mul(i, i) == PseudoQuaternionElement("one", -1)
    assert pq_mul(k, k) == one
    assert pq_mul(ik, ik) == one
    # K anticommutes with i
    assert pq_mul(k, i) == PseudoQuaternionElement("iK", -1)
    assert pq_mul(i, k) == ik
    # i * K * iK = 1
    assert pq_mul(pq_mul(i, k), ik) == one


def test_pq_associativity_exhaustive():
    for a in ELEMENTS:
        for b in ELEMENTS:
            for c in ELEMENTS:
                assert pq_mul(pq_mul(a, b), c) == pq_mul(a, pq_mul(b, c))


def test_pq_rejects_bad_elements():
    with pytest.raises(ValueError):
        PseudoQuaternionElement("j", 1)
    with pytest.raises(ValueError):
        PseudoQuaternionElement("i", 0)
