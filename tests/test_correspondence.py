import json
import warnings

import numpy as np
import pytest

from indivisible import cli
from indivisible.correspondence import (
    KRAUS_IDENTITY_TOL,
    UNITARITY_TOL,
    DensityMatrix,
    KrausSet,
    PolygonViolation,
    PotentialMatrix,
    UnitaryMatrix,
    density_from_distribution,
    dilation_marginal,
    evolve_density,
    hamiltonian_from_evolution,
    kraus_from_potential,
    orthostochastic_check,
    polygon_certificate,
    potential_from_transition,
    quantum_to_stochastic,
    stinespring_dilate,
    unistochastic_search,
)
from indivisible.errors import UnsupportedSizeError, ValidationError, freeze
from indivisible.stochastic import Distribution, TransitionMatrix
from oracles import (ReferenceKrausSet, polygon_excess, random_orthogonal,
                     random_unitary, reference_completeness_deviation,
                     reference_block_deviation, reference_dumps,
                     reference_kraus_from_potential, reference_marginal,
                     reference_orthostochastic, reference_stinespring_dilate)

FIXTURE_3 = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
FLAT_2 = np.array([[0.5, 0.5], [0.5, 0.5]])


def test_quantum_to_stochastic_identity():
    gamma = quantum_to_stochastic(UnitaryMatrix(np.eye(3, dtype=complex)))
    assert np.array_equal(gamma.matrix, np.eye(3))


def test_quantum_to_stochastic_hadamard():
    u = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))
    gamma = quantum_to_stochastic(u)
    np.testing.assert_allclose(gamma.matrix, FLAT_2, atol=1e-15)


def test_quantum_to_stochastic_is_doubly_stochastic():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        gamma = quantum_to_stochastic(UnitaryMatrix(random_unitary(n, rng)))
        np.testing.assert_allclose(gamma.matrix.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(gamma.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_quantum_to_stochastic_rejects_non_unitary():
    with pytest.raises(ValidationError):
        UnitaryMatrix(np.ones((2, 2), dtype=complex))


def test_gamma_is_blind_to_conjugation():
    rng = np.random.default_rng(1)
    u = random_unitary(4, rng)
    a = quantum_to_stochastic(UnitaryMatrix(u))
    b = quantum_to_stochastic(UnitaryMatrix(np.conj(u)))
    assert np.array_equal(a.matrix, b.matrix)


def test_potential_construction_identity():
    gamma = TransitionMatrix(np.eye(2))
    theta = potential_from_transition(gamma, np.zeros((2, 2)))
    assert np.array_equal(theta.matrix, np.eye(2, dtype=complex))


def test_potential_flat_zero_phase_is_not_unitary():
    theta = potential_from_transition(TransitionMatrix(FLAT_2),
                                      np.zeros((2, 2)))
    np.testing.assert_allclose(theta.matrix,
                               np.full((2, 2), np.sqrt(0.5)), atol=1e-15)
    prod = theta.matrix @ theta.matrix.conj().T
    assert np.max(np.abs(prod - np.eye(2))) > 0.4


def test_potential_moduli_match_gamma():
    rng = np.random.default_rng(2)
    m = rng.uniform(0.1, 1.0, size=(4, 4))
    m /= m.sum(axis=0, keepdims=True)
    gamma = TransitionMatrix(m)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(4, 4))
    theta = potential_from_transition(gamma, phases)
    np.testing.assert_allclose(np.abs(theta.matrix) ** 2, m, atol=1e-14)
    np.testing.assert_allclose(np.sum(np.abs(theta.matrix) ** 2, axis=0),
                               1.0, atol=1e-12)


def test_potential_column_norms_are_validated():
    with pytest.raises(ValidationError):
        PotentialMatrix(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValidationError, match=r"phases shape \(3, 3\)"):
        potential_from_transition(TransitionMatrix(FLAT_2), np.zeros((3, 3)))


def test_unistochastic_search_flat_2x2():
    result = unistochastic_search(TransitionMatrix(FLAT_2))
    assert result.status == "found"
    assert result.residual <= 1e-10
    u = result.unitary.matrix
    np.testing.assert_allclose(np.abs(u) ** 2, FLAT_2, atol=1e-12)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-10)


def test_unistochastic_search_returns_permutations_verbatim():
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    result = unistochastic_search(TransitionMatrix(perm))
    assert result.status == "found"
    assert np.array_equal(result.unitary.matrix, perm.astype(complex))


def test_unistochastic_round_trip_random_unitaries():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5, 6):
        gamma = quantum_to_stochastic(UnitaryMatrix(random_unitary(n, rng)))
        result = unistochastic_search(gamma)
        assert result.status == "found", (n, result.status, result.residual)
        u = result.unitary.matrix
        np.testing.assert_allclose(np.abs(u) ** 2, gamma.matrix, atol=1e-8)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-9)


def test_unistochastic_fixture_yields_triangle_certificate():
    result = unistochastic_search(TransitionMatrix(FIXTURE_3))
    assert result.status == "not_unistochastic"
    assert "triangle" in result.certificate or "sides" in result.certificate
    assert polygon_certificate(FIXTURE_3) is not None


def test_triangle_certificate_passes_flat_3x3():
    flat = np.full((3, 3), 1.0 / 3.0)
    assert polygon_certificate(flat) is None


FIXTURE_3_CERTIFICATE = (
    "columns (0, 1): side 0.500000 at row 0 exceeds the sum 0.000000 of the "
    "remaining sides; no phase assignment closes the triangle")


def permutation_mixture(n, rng):
    """Convex mixture of three random n x n permutation matrices."""
    eye = np.eye(n)
    return sum(w * eye[rng.permutation(n)] for w in rng.dirichlet(np.ones(3)))


def column_only_violation(x):
    """5 x 5 doubly stochastic Gamma whose columns 0 and 1 share row 0 alone
    (one nonzero side, x), while every row pair has at least three sides of
    comparable length, so no row polygon fails."""
    y = (1.0 - x) / 2.0
    gamma = np.empty((5, 5))
    gamma[:, 0] = [x, y, y, 0.0, 0.0]
    gamma[:, 1] = [x, 0.0, 0.0, y, y]
    gamma[:, 2:] = (1.0 - gamma[:, :2].sum(axis=1, keepdims=True)) / 3.0
    return gamma


def oracle_violations(gamma):
    """Every (axis, pair) whose oracle excess passes 1e-12, in check order."""
    n = len(gamma)
    return [(axis, (j, k)) for axis in ("columns", "rows")
            for j in range(n) for k in range(j + 1, n)
            if polygon_excess(gamma, axis, (j, k))[1] > 1e-12]


def test_fixture_3_certificate_bytes_are_pinned():
    result = unistochastic_search(TransitionMatrix(FIXTURE_3))
    assert result.certificate == FIXTURE_3_CERTIFICATE
    assert result.violation == polygon_certificate(FIXTURE_3)
    assert result.violation.describe() == FIXTURE_3_CERTIFICATE
    assert result.residual is None


def test_polygon_certificate_agrees_with_the_oracle_on_permutation_mixtures():
    """The first violated pair, columns before rows, with the oracle's sides."""
    rng = np.random.default_rng(2)
    for n in range(3, 9):
        refused = 0
        for _ in range(40):
            gamma = permutation_mixture(n, rng)
            violation = polygon_certificate(gamma)
            expected = oracle_violations(gamma)
            if violation is None:
                assert expected == []
                continue
            refused += 1
            assert isinstance(violation, PolygonViolation)
            assert (violation.axis, violation.pair) == expected[0]
            assert violation.excess > 1e-12
            sides, excess = polygon_excess(gamma, violation.axis, violation.pair)
            assert len(violation.sides) == n
            assert max(abs(a - b) for a, b in zip(violation.sides, sides)) <= 1e-15
            assert abs(violation.excess - excess) <= 1e-15
        assert refused > 0, n


@pytest.mark.parametrize("x", [0.1, 0.2, 0.3])
def test_transpose_of_a_column_violation_is_a_row_violation(x):
    gamma = column_only_violation(x)
    assert not any(axis == "rows" for axis, _ in oracle_violations(gamma))
    by_columns = polygon_certificate(gamma)
    by_rows = polygon_certificate(gamma.T)
    assert by_columns.axis == "columns" and by_rows.axis == "rows"
    assert by_rows.pair == by_columns.pair == (0, 1)
    assert by_rows.sides == by_columns.sides
    assert by_rows.excess == by_columns.excess == pytest.approx(x, abs=1e-15)
    result = unistochastic_search(TransitionMatrix(gamma.T))
    assert result.status == "not_unistochastic" and result.residual is None
    assert result.violation == by_rows
    assert result.certificate.startswith("rows (0, 1): side ")
    assert " at column 0 " in result.certificate
    assert result.certificate.endswith("closes the polygon")


def test_haar_moduli_are_never_refused():
    rng = np.random.default_rng(4)
    for n in range(2, 9):
        for _ in range(300):
            gamma = np.abs(random_unitary(n, rng)) ** 2
            assert polygon_certificate(gamma) is None, n


def test_refusals_at_n_4_and_up_skip_the_search():
    rng = np.random.default_rng(6)
    for n in range(4, 8):
        gamma = permutation_mixture(n, rng)
        result = unistochastic_search(TransitionMatrix(gamma))
        assert result.status == "not_unistochastic"
        assert result.residual is None and result.unitary is None
        assert result.violation == polygon_certificate(gamma)
        assert "polygon" in result.certificate


def test_unistochastic_rejects_non_doubly_stochastic():
    gamma = TransitionMatrix(np.array([[0.9, 0.5], [0.1, 0.5]]))
    result = unistochastic_search(gamma)
    assert result.status == "not_unistochastic"
    assert "doubly" in result.certificate
    with pytest.raises(ValidationError, match="not doubly stochastic"):
        orthostochastic_check(gamma)


def test_flat_3x3_is_unistochastic_but_not_orthostochastic():
    """The Fourier phases complete J/3; no real sign pattern can."""
    flat = TransitionMatrix(np.full((3, 3), 1.0 / 3.0))
    found = unistochastic_search(flat)
    assert found.status == "found"
    assert orthostochastic_check(flat) is None


def test_orthostochastic_flat_2x2():
    o = orthostochastic_check(TransitionMatrix(FLAT_2))
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(o, np.array([[r, r], [r, -r]]), atol=1e-12)


def test_orthostochastic_identity():
    o = orthostochastic_check(TransitionMatrix(np.eye(3)))
    assert np.array_equal(o, np.eye(3))


def test_orthostochastic_fixture_not_found():
    assert orthostochastic_check(TransitionMatrix(FIXTURE_3)) is None


def test_orthostochastic_round_trip_random_orthogonal():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        q = random_orthogonal(n, rng)
        gamma = TransitionMatrix(q ** 2)
        o = orthostochastic_check(gamma)
        assert o is not None
        np.testing.assert_allclose(o @ o.T, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(o ** 2, gamma.matrix, atol=1e-12)


def _sign_search_draws():
    """Real and complex Haar squares, permutations and the flat matrix, n <= 4."""
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4):
        yield np.full((n, n), 1.0 / n)
        for _ in range(100):
            yield random_orthogonal(n, rng) ** 2
            yield np.abs(random_unitary(n, rng)) ** 2
            yield np.eye(n)[rng.permutation(n)]


def test_orthostochastic_search_matches_the_reference():
    for gamma in _sign_search_draws():
        o = orthostochastic_check(TransitionMatrix(gamma))
        want = reference_orthostochastic(gamma)
        if want is None:
            assert o is None
        else:
            assert np.array_equal(o, want)


def test_orthostochastic_size_cap():
    rng = np.random.default_rng(5)
    q = random_orthogonal(5, rng)
    with pytest.raises(UnsupportedSizeError):
        orthostochastic_check(TransitionMatrix(q ** 2))


def test_kraus_from_identity_is_elementary():
    ks = kraus_from_potential(PotentialMatrix(np.eye(3, dtype=complex)))
    assert len(ks.operators) == 3
    for beta, k in enumerate(ks.operators):
        want = np.zeros((3, 3), dtype=complex)
        want[beta, beta] = 1.0
        assert np.array_equal(k, want)


def test_kraus_columns_and_identity():
    theta = PotentialMatrix(np.full((2, 2), np.sqrt(0.5), dtype=complex))
    ks = kraus_from_potential(theta)
    np.testing.assert_allclose(
        ks.operators[0], np.sqrt(0.5) * np.array([[1, 0], [1, 0]]), atol=0.0)
    np.testing.assert_allclose(
        ks.operators[1], np.sqrt(0.5) * np.array([[0, 1], [0, 1]]), atol=0.0)
    total = sum(k.conj().T @ k for k in ks.operators)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def test_kraus_reconstructs_gamma():
    rng = np.random.default_rng(6)
    for n in (2, 4, 6):
        m = rng.uniform(0.05, 1.0, size=(n, n))
        m /= m.sum(axis=0, keepdims=True)
        theta = potential_from_transition(
            TransitionMatrix(m), rng.uniform(0, 2 * np.pi, size=(n, n)))
        ks = kraus_from_potential(theta)
        recon = sum(np.abs(k) ** 2 for k in ks.operators)
        np.testing.assert_allclose(recon, m, atol=1e-14)


def test_kraus_set_validates_completeness():
    half = np.zeros((2, 2), dtype=complex)
    half[0, 0] = 1.0
    with pytest.raises(ValidationError):
        KrausSet([half, half])
    with pytest.raises(ValidationError, match="^empty Kraus set$"):
        KrausSet([])
    with pytest.raises(ValidationError, match="expected 2 operators for "
                       "dimension 2, got 1"):
        KrausSet([np.eye(2)])
    # An operator that is not a matrix is named with its shape.
    for ops, beta, shape in (([1.0], 0, ()), ([[1.0]], 0, (1,)),
                             ([np.eye(2), [1.0, 0.0]], 1, (2,)),
                             ([np.eye(2), np.eye(3)], 1, (3, 3))):
        with pytest.raises(ValidationError) as err:
            KrausSet(ops)
        assert str(err.value) == f"operator {beta} has shape {shape}"


def _dilate_cases():
    """(Gamma, phases or None) for n = 1..10 with and without phases, a
    permutation and Gammas with exact zero entries."""
    rng = np.random.default_rng(20)
    cases = []
    for n in range(1, 11):
        m = rng.uniform(0.05, 1.0, size=(n, n))
        gamma = m / m.sum(axis=0, keepdims=True)
        cases += [(gamma, None), (gamma, rng.uniform(0.0, 2.0 * np.pi, (n, n)))]
    perm = np.eye(5)[[3, 0, 4, 1, 2]]
    cases += [(perm, None), (perm, rng.uniform(0.0, 2.0 * np.pi, (5, 5)))]
    for n in (3, 6, 9):
        m = rng.uniform(0.05, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        m[np.arange(n), np.arange(n)] = 0.5
        gamma = m / m.sum(axis=0, keepdims=True)
        cases += [(gamma, None), (gamma, rng.uniform(0.0, 2.0 * np.pi, (n, n)))]
    return cases


DILATE_CASES = _dilate_cases()


@pytest.mark.parametrize("case", range(len(DILATE_CASES)))
def test_dilate_matches_the_tuple_form_bitwise(case, tmp_path):
    gamma, phases = DILATE_CASES[case]
    n = gamma.shape[0]
    theta = potential_from_transition(
        TransitionMatrix(gamma), np.zeros((n, n)) if phases is None else phases)
    kraus = kraus_from_potential(theta)
    ref_kraus = reference_kraus_from_potential(theta.matrix)
    assert kraus.deviation == ref_kraus.deviation
    assert kraus.operators.tobytes() == np.array(ref_kraus.operators).tobytes()
    ref_u = reference_stinespring_dilate(ref_kraus)
    u = stinespring_dilate(kraus)
    assert u.matrix.tobytes() == ref_u.tobytes()
    assert u.deviation == reference_block_deviation(ref_u, n)

    payload = {"matrix": gamma.tolist()}
    if phases is not None:
        payload["phases"] = phases.tolist()
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps(payload))
    assert cli.main(["dilate", "--input", str(inp), "--output", str(out)]) == 0
    want = {
        "n": n,
        "dilation_dim": n * n,
        "unitary": {"re": ref_u.real, "im": ref_u.imag},
        "kraus_identity_residual": ref_kraus.deviation,
        "marginal_residual": float(np.max(np.abs(reference_marginal(ref_u, n)
                                                 - gamma))),
        "unitarity_residual": reference_block_deviation(ref_u, n),
        "tolerances": {"kraus_identity": KRAUS_IDENTITY_TOL,
                       "unitarity": UNITARITY_TOL},
        "command": "dilate", "seed": 42, "schema": cli.SCHEMA_VERSION,
    }
    assert out.read_text() == reference_dumps(want) + "\n"


def _refusal(make, ops):
    with pytest.raises(ValidationError) as err:
        make(ops)
    return str(err.value), repr(err.value.details)  # repr: NaN equals itself


@pytest.mark.parametrize("n", range(1, 11))
def test_kraus_set_refuses_a_bad_operator_as_the_tuple_form(n):
    rng = np.random.default_rng(n)
    theta = random_unitary(n, rng)
    good = reference_kraus_from_potential(theta).operators
    for beta in range(n):
        faults = {"scaled": lambda k: k * 1.5,
                  "nan": lambda k: np.where(k != 0, np.nan, k)}
        if n > 1:
            outside = (beta + 1) % n
            faults["support"] = lambda k: k + 0.25 * (np.arange(n) == outside)
            faults["support_nan"] = lambda k: k + np.where(
                np.arange(n) == outside, np.nan, 0.0)
        for name, fault in faults.items():
            ops = [k.copy() for k in good]
            ops[beta] = fault(ops[beta])
            want = _refusal(ReferenceKrausSet, tuple(ops))
            assert _refusal(KrausSet, tuple(ops)) == want, (beta, name)
            assert _refusal(KrausSet, np.array(ops)) == want, (beta, name)
            if name == "support":
                assert want[0] == (f"operator {beta} has support outside "
                                   f"column {beta}")


def test_dilation_of_identity_fixes_system_sector():
    ks = kraus_from_potential(PotentialMatrix(np.eye(2, dtype=complex)))
    dil = stinespring_dilate(ks)
    assert dil.n == 4
    for j in range(2):
        col = dil.matrix[:, 2 * j]
        # V|j, a0> = sum_i Theta_ij |i, e_i>; identity keeps the system put
        assert abs(col[2 * j + j]) == pytest.approx(1.0, abs=1e-12)


def test_dilation_is_unitary_and_reproduces_gamma():
    rng = np.random.default_rng(8)
    cases = [(FLAT_2, 0.0), (FIXTURE_3, 0.0), (np.ones((1, 1)), 0.0),
             (np.eye(4)[[2, 0, 3, 1]], 0.0)]
    for n in (2, 3, 4, 10):
        m = rng.uniform(0.05, 1.0, size=(n, n))
        gamma_arr = m / m.sum(axis=0, keepdims=True)
        cases += [(gamma_arr, 0.0), (gamma_arr, 2.0 * np.pi)]
    for gamma_arr, phase_range in cases:
        n = gamma_arr.shape[0]
        phases = rng.uniform(0.0, phase_range, size=(n, n))
        theta = potential_from_transition(TransitionMatrix(gamma_arr), phases)
        kraus = kraus_from_potential(theta)
        dil = stinespring_dilate(kraus)
        assert dil.n == n * n
        assert dil.n <= n ** 3
        # column j*N is V|j> = (K_j|j>) x |j>, and U is N blocks of N x N
        for j, k in enumerate(kraus.operators):
            assert np.array_equal(dil.matrix[:, j * n],
                                  np.kron(k[:, j], np.eye(n)[j]))
        assert np.count_nonzero(dil.matrix) <= n ** 3
        np.testing.assert_allclose(dil.matrix.conj().T @ dil.matrix,
                                   np.eye(n * n), atol=1e-10)
        np.testing.assert_allclose(dilation_marginal(dil, n), gamma_arr,
                                   atol=1e-10)


def _dilate_case(gamma, phases):
    n = gamma.shape[0]
    theta = potential_from_transition(
        TransitionMatrix(gamma), np.zeros((n, n)) if phases is None else phases)
    return stinespring_dilate(kraus_from_potential(theta))


def test_dilation_blocks_are_lower_hessenberg_with_exact_zeros():
    """Each block Q_j is zero above its first superdiagonal, and what the
    dilation holds there is +0.0, in both parts."""
    for gamma, phases in DILATE_CASES:
        n = gamma.shape[0]
        blocks = _dilate_case(gamma, phases).matrix.reshape(n, n, n, n)
        above = np.triu(np.ones((n, n), dtype=bool), 2)
        for j in range(n):
            q = blocks[:, j, j, :]  # rows i*N + j, columns j*N + k
            for part in (q.real[above], q.imag[above]):
                assert np.array_equal(part, np.zeros(part.shape)), (n, j)
                assert not np.signbit(part).any(), (n, j)


def test_dilation_block_residual_is_the_dense_defect():
    """U^dag U is block diagonal with exact zeros elsewhere, so the per-block
    defect that the dilation reports is the N^2 x N^2 one up to rounding."""
    for gamma, phases in DILATE_CASES:
        n = gamma.shape[0]
        u = _dilate_case(gamma, phases)
        dense = reference_completeness_deviation(u.matrix)
        assert dense <= 1e-14, n
        assert abs(dense - u.deviation) <= 1e-15, n


def _degenerate_gammas():
    tiny = np.array([[0.5, 1.0 - 1e-300, 0.0], [0.5, 1e-300, 0.0],
                     [0.0, 0.0, 1.0]])
    subnormal = np.array([[1.0, 0.0, 0.25], [1e-320, 1.0, 0.25],
                          [1e-320, 0.0, 0.5]])
    zero_tails = np.array([[1.0, 0.5, 0.2, 0.0], [0.0, 0.5, 0.3, 0.0],
                           [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]])
    return {"n=1": np.ones((1, 1)), "identity": np.eye(4),
            "permutation": np.eye(5)[[3, 0, 4, 1, 2]],
            "zero tails": zero_tails, "1e-300": tiny,
            "subnormal": subnormal}


@pytest.mark.parametrize("name", sorted(_degenerate_gammas()))
def test_dilation_of_degenerate_gammas_is_exact_and_warning_free(name):
    gamma = _degenerate_gammas()[name]
    n = gamma.shape[0]
    rng = np.random.default_rng(21)
    for phases in (None, rng.uniform(0.0, 2.0 * np.pi, (n, n))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = _dilate_case(gamma, phases)
        assert u.deviation <= 1e-15, name
        assert reference_completeness_deviation(u.matrix) <= 1e-15, name
        assert np.max(np.abs(dilation_marginal(u, n) - gamma)) <= 1e-15, name
        ref = reference_stinespring_dilate(reference_kraus_from_potential(
            potential_from_transition(TransitionMatrix(gamma), np.zeros((n, n))
                                      if phases is None else phases).matrix))
        assert u.matrix.tobytes() == ref.tobytes(), name


def test_dilation_of_a_tail_whose_square_is_subnormal_stays_unitary():
    """A tail entry near 1e-160 squares to a subnormal, which keeps a few
    bits: tail norms taken from squares would leave column 1 of Q_0 off unit
    length by about 1e-4, past UNITARITY_TOL.  Hypot keeps the tail exact."""
    tail = 3.7e-161 + 2.9e-161j
    ops = np.zeros((2, 2, 2), dtype=complex)
    ops[0, :, 0] = [1.0, tail]
    ops[1, :, 1] = [0.0, 1.0]
    u = stinespring_dilate(KrausSet(ops))
    assert u.deviation <= 1e-15
    assert reference_completeness_deviation(u.matrix) <= 1e-15
    # row 1*N + 0, column 0*N + 1: -conj(a_0) / s_0 * a_1 / s_1
    assert abs(u.matrix[2, 1] + tail / abs(tail)) <= 1e-15


def test_dilation_refuses_a_block_that_is_not_unitary():
    """The per-block gate refuses with UnitaryMatrix's message: a Kraus
    stack let past its own gate, column 0 scaled by 1.1."""
    ops = np.zeros((2, 2, 2), dtype=complex)
    ops[0, :, 0] = [1.1, 0.0]
    ops[1, :, 1] = [0.6, 0.8]
    kraus = object.__new__(KrausSet)
    freeze(kraus, operators=ops, deviation=0.21)
    with pytest.raises(ValidationError) as err:
        stinespring_dilate(kraus)
    dev = err.value.details["deviation"]
    assert dev == pytest.approx(0.21, abs=1e-15)
    assert str(err.value) == f"matrix is not unitary: max |U^dag U - 1| = {dev:.3e}"


def test_dilation_marginal_matches_the_reference_bitwise():
    rng = np.random.default_rng(13)
    for n in range(1, 13):
        u = random_unitary(n * n, rng)
        assert np.array_equal(dilation_marginal(u, n), reference_marginal(u, n))


def test_density_from_distribution_round_trip():
    p = Distribution(np.array([0.2, 0.0, 0.8]))
    rho = density_from_distribution(p)
    assert np.array_equal(np.diag(rho.matrix).real, p.p)
    assert np.trace(rho.matrix) == pytest.approx(1.0, abs=0.0)


def test_density_wrapper_validates():
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))
    with pytest.raises(ValidationError, match=r"trace \(0\.75\+0j\) is not 1"):
        DensityMatrix(np.diag([0.5, 0.25]).astype(complex))


def test_born_rule_diagonal_consistency():
    rng = np.random.default_rng(9)
    for n in (2, 3, 6):
        u = UnitaryMatrix(random_unitary(n, rng))
        p = rng.dirichlet(np.ones(n))
        rho0 = density_from_distribution(Distribution(p))
        rho_t = evolve_density(u, rho0)
        gamma = quantum_to_stochastic(u)
        np.testing.assert_allclose(np.diag(rho_t.matrix).real,
                                   gamma.matrix @ p, atol=1e-12)


def test_permutation_unitary_permutes_the_diagonal():
    perm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    u = UnitaryMatrix(perm)
    p = np.array([0.5, 0.3, 0.2])
    rho_t = evolve_density(u, density_from_distribution(Distribution(p)))
    np.testing.assert_allclose(np.diag(rho_t.matrix).real, perm.real @ p,
                               atol=1e-15)


def test_evolve_density_checks_dimensions():
    u = UnitaryMatrix(np.eye(2, dtype=complex))
    rho = density_from_distribution(Distribution(np.array([1.0, 0.0, 0.0])))
    with pytest.raises(ValidationError):
        evolve_density(u, rho)


def test_hamiltonian_recovery_error_and_order():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (z + z.conj().T) / 2.0
    w, v = np.linalg.eigh(h)

    def evolution(s):
        return v @ (np.exp(-1j * w * s)[:, None] * v.conj().T)

    errors = []
    for dt in (2e-4, 1e-4):
        recovered, residual = hamiltonian_from_evolution(evolution, 0.9, dt)
        errors.append(float(np.max(np.abs(recovered.matrix - h))))
        assert residual <= 1e-10
    assert errors[1] <= 5e-6
    assert errors[0] / errors[1] >= 3.5


def test_hamiltonian_recovery_rejects_bad_dt():
    with pytest.raises(ValueError):
        hamiltonian_from_evolution(lambda s: np.eye(2, dtype=complex), 1.0, 0.0)
