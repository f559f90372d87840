import numpy as np
import pytest

from indivisible.errors import ValidationError
from indivisible.oscillator import (
    HermitianMatrix,
    PhaseSpaceState,
    SHSystem,
    StateVector,
    _step_matrix,
    exact_evolve,
    sh_decompose,
    sh_energy,
    sh_integrate,
    sh_normal_modes,
    sh_recombine,
    sh_split,
    time_reverse_state,
)
from oracles import (
    random_unitary,
    real_form,
    reference_rk4_step_matrix,
    reference_sh_energy,
    reference_strang_step_matrix,
    stepwise_samples,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(n, rng, unit_norm=False):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (z + z.conj().T) / 2.0
    if unit_norm:
        h = h / np.linalg.norm(h, 2)
    return HermitianMatrix(h)


def random_state(n, rng):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(psi / np.linalg.norm(psi))


def test_hermitian_wrapper_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_state_vector_checks_normalization():
    with pytest.raises(ValidationError):
        StateVector(np.array([1.0, 1.0], dtype=complex))
    StateVector(np.array([3.0, 4.0], dtype=complex), normalized=False)


def test_decompose_sigma_x():
    system = sh_decompose(HermitianMatrix(SIGMA_X))
    assert np.array_equal(system.a, SIGMA_X.real)
    assert np.array_equal(system.b, np.zeros((2, 2)))


def test_decompose_sigma_y():
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    system = sh_decompose(HermitianMatrix(sigma_y))
    assert np.array_equal(system.a, np.zeros((2, 2)))
    assert np.array_equal(system.b, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_decompose_recombines_to_h():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 8):
        h = random_hermitian(n, rng)
        system = sh_decompose(h)
        assert np.array_equal(system.a, system.a.T)
        assert np.array_equal(system.b, -system.b.T)
        assert np.max(np.abs(system.a + 1j * system.b - h.matrix)) == 0.0


def test_system_validates_symmetry():
    with pytest.raises(ValidationError):
        SHSystem(a=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        SHSystem(a=np.zeros((2, 2)), b=np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_split_recombine_round_trip():
    rng = np.random.default_rng(1)
    psi = random_state(4, rng)
    state = sh_split(psi)
    # Psi = (q + i p) / sqrt(2)
    np.testing.assert_allclose((state.q + 1j * state.p) / np.sqrt(2.0),
                               psi.psi, atol=1e-15)
    back = sh_recombine(state)
    np.testing.assert_allclose(back.psi, psi.psi, atol=1e-15)


def test_energy_equals_expectation_value():
    rng = np.random.default_rng(2)
    for n in (2, 4, 7):
        h = random_hermitian(n, rng)
        psi = random_state(n, rng)
        bracket = float(np.real(psi.psi.conj() @ h.matrix @ psi.psi))
        got = sh_energy(sh_decompose(h), sh_split(psi))
        assert got == pytest.approx(bracket, abs=1e-12)


def test_rabi_flop_on_sigma_x():
    psi0 = StateVector(np.array([1.0, 0.0], dtype=complex))
    h = HermitianMatrix(SIGMA_X)
    half = exact_evolve(h, psi0, np.pi / 2.0)
    assert abs(abs(half.psi[1]) ** 2 - 1.0) <= 1e-12
    full = exact_evolve(h, psi0, np.pi)
    np.testing.assert_allclose(full.psi, -psi0.psi, atol=1e-12)


def test_strang_tracks_exact_evolution():
    rng = np.random.default_rng(3)
    h = random_hermitian(4, rng, unit_norm=True)
    system = sh_decompose(h)
    psi0 = random_state(4, rng)
    traj = sh_integrate(system, sh_split(psi0), 1e-3, 10.0, sample_stride=500)
    worst = 0.0
    for k in range(len(traj)):
        got = sh_recombine(traj.state(k))
        want = exact_evolve(h, psi0, float(traj.times[k]))
        worst = max(worst, float(np.linalg.norm(got.psi - want.psi)))
    assert worst <= 1e-5


REAL_STEP_MATRIX = {"strang": reference_strang_step_matrix,
                    "rk4": reference_rk4_step_matrix}


@pytest.mark.parametrize("method", sorted(REAL_STEP_MATRIX))
def test_complex_step_is_the_old_real_step(method):
    """[[Re S, -Im S], [Im S, Re S]] is the 2N x 2N real step it replaced."""
    rng = np.random.default_rng(31)
    cases = [(sh_decompose(random_hermitian(n, rng)), dt)
             for n in (1, 2, 5, 16, 64) for dt in (1e-4, 1e-2, 0.5)]
    # The orthogonal flow's edge cases: B = 0, A = 0, and at n = 5 a B with
    # two equal 2 x 2 rotation blocks and a zero singular value.
    h = random_hermitian(5, rng).matrix
    o = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    blocks = np.zeros((5, 5))
    blocks[[0, 2], [1, 3]], blocks[[1, 3], [0, 2]] = 1.5, -1.5
    for edge in (h.real, 1j * h.imag, h.real + 1j * (o @ blocks @ o.T)):
        cases.append((sh_decompose(HermitianMatrix(edge)), 0.5))
    if method == "strang":  # RK4's entries grow as (||H|| dt)^4 / 24
        cases.append((sh_decompose(random_hermitian(16, rng, unit_norm=True)),
                      50.0))
    for system, dt in cases:
        step = _step_matrix(system, dt, method)
        assert step.shape == (system.n, system.n)
        np.testing.assert_allclose(
            real_form(step), REAL_STEP_MATRIX[method](system, dt),
            rtol=0.0, atol=1e-13)


def test_energy_matches_the_block_form():
    rng = np.random.default_rng(32)
    for n in (1, 2, 5, 16):
        system = sh_decompose(random_hermitian(n, rng))
        state = sh_split(random_state(n, rng))
        assert sh_energy(system, state) == pytest.approx(
            reference_sh_energy(system, state), rel=0.0, abs=1e-13)
        traj = sh_integrate(system, state, 1e-2, 1.0, sample_stride=7)
        np.testing.assert_allclose(sh_energy(system, traj),
                                   reference_sh_energy(system, traj),
                                   rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("method", sorted(REAL_STEP_MATRIX))
@pytest.mark.parametrize("n", [2, 5, 16])
@pytest.mark.parametrize("stride", [1, 3, 1000, 2047, 5000])
def test_strided_integration_matches_step_loop(method, n, stride):
    """2500 steps: stride 3 and 1000 leave a tail, 2047 is one jump with an
    11-bit exponent and a 453-step tail, 5000 outlasts the run.

    Stride 1 matches the complex step-by-step loop bit for bit; every
    stride stays within 1e-11 of the loop and of the 2N x 2N real loop it
    replaced.
    """
    rng = np.random.default_rng(100 + n)
    system = sh_decompose(random_hermitian(n, rng, unit_norm=True))
    state0 = sh_split(random_state(n, rng))
    duration, n_steps = 2.5, 2500
    traj = sh_integrate(system, state0, 1e-3, duration, method=method,
                        sample_stride=stride)
    dt = duration / n_steps
    idx, want = stepwise_samples(_step_matrix(system, dt, method),
                                 state0.q + 1j * state0.p, n_steps, stride)
    real_idx, real = stepwise_samples(REAL_STEP_MATRIX[method](system, dt),
                                      np.concatenate([state0.q, state0.p]),
                                      n_steps, stride)
    assert want.dtype == complex
    assert np.array_equal(idx, real_idx)
    assert len(traj) == len(idx)
    assert np.array_equal(traj.times, dt * idx)
    if stride == 1:
        assert np.array_equal(traj.q, want.real)
        assert np.array_equal(traj.p, want.imag)
    else:
        np.testing.assert_allclose(traj.q, want.real, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(traj.p, want.imag, rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(traj.q, real[:, :n], rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(traj.p, real[:, n:], rtol=0.0, atol=1e-11)


def test_trajectory_post_processing_matches_per_sample():
    rng = np.random.default_rng(12)
    h = random_hermitian(5, rng)
    system = sh_decompose(h)
    psi0 = random_state(5, rng)
    traj = sh_integrate(system, sh_split(psi0), 1e-2, 3.0, sample_stride=7)
    energies = sh_energy(system, traj)
    states = sh_recombine(traj)
    exact = exact_evolve(h, psi0, traj.times)
    assert energies.shape == (len(traj),)
    assert states.shape == exact.shape == (len(traj), 5)
    for k in range(len(traj)):
        assert energies[k] == pytest.approx(sh_energy(system, traj.state(k)),
                                            rel=0.0, abs=1e-13)
        np.testing.assert_array_equal(states[k], sh_recombine(traj.state(k)).psi)
        np.testing.assert_allclose(
            exact[k], exact_evolve(h, psi0, float(traj.times[k])).psi,
            rtol=0.0, atol=1e-13)


def test_rk4_matches_strang():
    rng = np.random.default_rng(4)
    h = random_hermitian(3, rng, unit_norm=True)
    system = sh_decompose(h)
    psi0 = random_state(3, rng)
    t_strang = sh_integrate(system, sh_split(psi0), 1e-3, 5.0, method="strang")
    t_rk4 = sh_integrate(system, sh_split(psi0), 1e-3, 5.0, method="rk4")
    assert np.max(np.abs(t_strang.q - t_rk4.q)) <= 1e-7
    assert np.max(np.abs(t_strang.p - t_rk4.p)) <= 1e-7


def test_unknown_method_rejected():
    system = sh_decompose(HermitianMatrix(SIGMA_X))
    state = sh_split(StateVector(np.array([1.0, 0.0], dtype=complex)))
    with pytest.raises(ValueError):
        sh_integrate(system, state, 1e-3, 1.0, method="euler")


def test_energy_drift_stays_tiny():
    rng = np.random.default_rng(5)
    h = random_hermitian(4, rng, unit_norm=True)
    system = sh_decompose(h)
    psi0 = random_state(4, rng)
    traj = sh_integrate(system, sh_split(psi0), 1e-3, 100.0, sample_stride=1000)
    energies = np.array([sh_energy(system, traj.state(k))
                         for k in range(len(traj))])
    scale = max(1.0, abs(energies[0]))
    assert np.max(np.abs(energies - energies[0])) / scale <= 1e-6


def test_strang_preserves_norm():
    rng = np.random.default_rng(6)
    h = random_hermitian(5, rng)
    system = sh_decompose(h)
    psi0 = random_state(5, rng)
    traj = sh_integrate(system, sh_split(psi0), 1e-2, 20.0, sample_stride=100)
    norms = np.sqrt(np.sum(traj.q ** 2 + traj.p ** 2, axis=1)) / np.sqrt(2.0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def test_normal_modes_diagonalize():
    rng = np.random.default_rng(7)
    h = random_hermitian(6, rng)
    w, v = sh_normal_modes(h)
    assert np.all(np.diff(w) >= 0.0)
    np.testing.assert_allclose(v.conj().T @ h.matrix @ v, np.diag(w),
                               atol=1e-12)
    # an eigenmode only picks up a phase
    psi0 = StateVector(v[:, 2])
    later = exact_evolve(h, psi0, 0.7)
    overlap = abs(v[:, 2].conj() @ later.psi)
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_evolution_is_basis_invariant():
    rng = np.random.default_rng(8)
    h = random_hermitian(4, rng, unit_norm=True)
    u = random_unitary(4, rng)
    h_rot = HermitianMatrix(u.conj().T @ h.matrix @ u)
    psi0 = random_state(4, rng)
    psi0_rot = StateVector(u.conj().T @ psi0.psi)

    def strang_final(hm, s0):
        # dt fine enough that method error sits well under the 1e-8 bound
        traj = sh_integrate(sh_decompose(hm), sh_split(s0), 1e-4, 2.0,
                            sample_stride=10 ** 9)
        return sh_recombine(traj.state(len(traj) - 1)).psi

    direct = strang_final(h, psi0)
    rotated = u @ strang_final(h_rot, psi0_rot)
    assert np.linalg.norm(direct - rotated) <= 1e-8


def test_time_reverse_state_is_conjugation():
    rng = np.random.default_rng(9)
    psi = random_state(3, rng)
    rev = time_reverse_state(psi)
    np.testing.assert_allclose(rev.psi, np.conj(psi.psi), atol=0.0)
    # optional basis change rides along
    u = random_unitary(3, rng)
    rev_u = time_reverse_state(psi, v=u)
    np.testing.assert_allclose(rev_u.psi, u @ np.conj(psi.psi), atol=1e-15)


def test_real_hamiltonian_evolution_reverses_under_conjugation():
    """For B = 0 the motion is reversible: conjugate, evolve, conjugate."""
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 4))
    h = HermitianMatrix(((a + a.T) / 2.0).astype(complex))
    psi0 = random_state(4, rng)
    forward = exact_evolve(h, psi0, 1.3)
    back = time_reverse_state(exact_evolve(h, time_reverse_state(forward), 1.3))
    np.testing.assert_allclose(back.psi, psi0.psi, atol=1e-12)


def test_phase_trajectory_state_slicing():
    system = sh_decompose(HermitianMatrix(SIGMA_X))
    state0 = sh_split(StateVector(np.array([1.0, 0.0], dtype=complex)))
    traj = sh_integrate(system, state0, 0.1, 1.0)
    s = traj.state(0)
    assert isinstance(s, PhaseSpaceState)
    np.testing.assert_allclose(s.q, state0.q, atol=0.0)
    np.testing.assert_allclose(s.p, state0.p, atol=0.0)
    assert len(traj) == 11
