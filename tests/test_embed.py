import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indivisible.cli import _law_registry
from indivisible.embed import (
    INVARIANCE_BOX,
    INVARIANCE_TOL,
    ComplexFlow,
    EmbeddedState,
    SecondOrderDiscreteLaw,
    SecondOrderODE,
    Trajectory,
    check_time_reversal_invariance,
    integrate_complex,
    integrate_embedded,
    iterate_discrete,
    reverse_complex,
    step_discrete,
    time_reverse,
)
from indivisible.errors import (MAX_GRID_STEPS, DomainError, IntegrationError,
                                ValidationError, uniform_grid)
from indivisible.oscillator import PhaseSpaceState, SHSystem, sh_integrate

from oracles import (ReferenceBlowup, complex_flow_residual, flow_residual,
                     reference_reversal_probe, reference_rk4)

HARMONIC = SecondOrderODE(lambda x, y: -x)
DAMPED = SecondOrderODE(lambda x, y: -x - 0.2 * y)
EVEN = SecondOrderODE(lambda x, y: -x + y ** 2)
CLI_LAWS = ("harmonic", "damped", "cubic", "free")


def test_fibonacci_mod_5_embedding():
    """Theembedded pair walks the second-order recurrence one step per tick."""
    law = SecondOrderDiscreteLaw(lambda x, y: (x + y) % 5, n=5, base=0)
    states = iterate_discrete(law, EmbeddedState(1, 1), 20)
    fib = [1, 1]
    for _ in range(20):
        fib.append((fib[-1] + fib[-2]) % 5)
    # x component runs one step ahead of y, which trails by exactly one tick
    for k, s in enumerate(states):
        assert s.x == fib[k + 1]
        assert s.y == fib[k]


def test_discrete_embedding_is_faithful():
    rng = np.random.default_rng(5)
    for trial in range(5):
        table = rng.integers(1, 8, size=(7, 7))
        law = SecondOrderDiscreteLaw(lambda x, y, t=table: int(t[x - 1, y - 1]),
                                     n=7)
        states = iterate_discrete(law, EmbeddedState(3, 5), 200)
        xs = [s.x for s in states]
        for k in range(2, len(xs)):
            assert xs[k] == law.f(xs[k - 1], xs[k - 2])
        # y is x delayed by one step
        assert all(states[k].y == states[k - 1].x for k in range(1, len(states)))


def test_step_rejects_exit_from_configuration_space():
    law = SecondOrderDiscreteLaw(lambda x, y: x + y, n=5, base=0)
    with pytest.raises(DomainError):
        step_discrete(law, EmbeddedState(4, 4))


def test_law_validates_bounds():
    with pytest.raises(ValueError):
        SecondOrderDiscreteLaw(lambda x, y: x, n=0)


def test_harmonic_returns_after_full_period():
    traj = integrate_embedded(HARMONIC, 1.0, 0.0, 1e-3, 2.0 * math.pi)
    assert abs(traj.x[-1] - 1.0) <= 1e-6
    assert abs(traj.y[-1]) <= 1e-6
    assert traj.times[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_grid_lands_on_duration_when_dt_does_not_divide():
    traj = integrate_embedded(HARMONIC, 1.0, 0.0, 0.3, 1.0)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert len(traj) == 4  # round(1.0 / 0.3) = 3 steps


def test_harmonic_energy_is_conserved():
    traj = integrate_embedded(HARMONIC, 1.0, 0.0, 1e-3, 50.0)
    energy = 0.5 * (traj.x ** 2 + traj.y ** 2)
    assert np.max(np.abs(energy - energy[0])) <= 1e-9


def test_damped_energy_strictly_decreases():
    traj = integrate_embedded(DAMPED, 1.0, 0.0, 1e-2, 10.0)
    energy = 0.5 * (traj.x ** 2 + traj.y ** 2)
    assert np.all(np.diff(energy) < 0.0)


def test_flow_residual_is_small_on_rk4_output():
    traj = integrate_embedded(HARMONIC, 1.0, 0.0, 1e-3, 5.0)
    assert flow_residual(traj.times, traj.x, traj.y, HARMONIC.f) <= 1e-5


def test_complex_integration_matches_real_pair_bitwise():
    for ode in (HARMONIC, DAMPED, SecondOrderODE(lambda x, y: -x ** 3)):
        flow = ComplexFlow(ode)
        traj = integrate_embedded(ode, 0.7, -0.3, 1e-2, 3.0)
        times, zs = integrate_complex(flow, 0.7 - 0.3j, 1e-2, 3.0)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(zs.real, traj.x)
        assert np.array_equal(zs.imag, traj.y)


def test_complex_flow_residual_small():
    flow = ComplexFlow(HARMONIC)
    times, zs = integrate_complex(flow, 1.0 + 0.0j, 1e-3, 5.0)
    assert complex_flow_residual(times, zs, HARMONIC.f) <= 1e-5


def test_time_reverse_is_an_involution():
    traj = integrate_embedded(HARMONIC, 0.2, 0.9, 1e-2, 2.0)
    back = time_reverse(time_reverse(traj))
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.x, traj.x)
    assert np.array_equal(back.y, traj.y)


def test_reversed_harmonic_trajectory_still_solves_the_flow():
    traj = integrate_embedded(HARMONIC, 1.0, 0.0, 1e-3, 5.0)
    rev = time_reverse(traj)
    assert flow_residual(rev.times, rev.x, rev.y, HARMONIC.f) <= 1e-5


def test_reversed_damped_trajectory_violates_the_flow():
    traj = integrate_embedded(DAMPED, 1.0, 0.0, 1e-3, 5.0)
    rev = time_reverse(traj)
    assert flow_residual(rev.times, rev.x, rev.y, DAMPED.f) > 1e-2


def test_complex_reversal_matches_pair_reversal():
    flow = ComplexFlow(HARMONIC)
    times, zs = integrate_complex(flow, 1.0 + 0.5j, 1e-2, 2.0)
    rtimes, rzs = reverse_complex(times, zs)
    traj = time_reverse(Trajectory(times, zs.real, zs.imag))
    assert np.array_equal(rtimes, traj.times)
    assert np.array_equal(rzs.real, traj.x)
    assert np.array_equal(rzs.imag, traj.y)


def test_invariance_check_tells_even_from_odd_velocity_dependence():
    invariant, violation = check_time_reversal_invariance(HARMONIC)
    assert invariant and violation <= 1e-12
    invariant, violation = check_time_reversal_invariance(DAMPED)
    assert not invariant and violation > 1e-3
    invariant, _ = check_time_reversal_invariance(EVEN)
    assert invariant


def _cli_law(name: str, k: float = 1.0, c: float = 0.1) -> SecondOrderODE:
    params = {"harmonic": {"k": k}, "damped": {"k": k, "c": c},
              "cubic": {"k": k}, "free": {}}[name]
    return SecondOrderODE(_law_registry(name, params))


def _complex_as_pair(ode: SecondOrderODE, x0: float, v0: float, dt: float,
                     duration: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """integrate_complex from z0 = x0 + i v0, split back into (t, x, y)."""
    times, zs = integrate_complex(ComplexFlow(ode), complex(x0, v0), dt,
                                  duration)
    return times, zs.real, zs.imag


def _same_bits(a, b) -> bool:
    """Equal float64 bit patterns, so the sign of every zero counts too."""
    return (np.asarray(a, dtype=float).tobytes()
            == np.asarray(b, dtype=float).tobytes())


@settings(max_examples=40, deadline=None)
@given(law=st.sampled_from(CLI_LAWS),
       x0=st.floats(-2.0, 2.0), v0=st.floats(-2.0, 2.0),
       k=st.floats(0.5, 2.0), c=st.floats(0.05, 0.5),
       dt=st.sampled_from((1e-3, 5e-4, 1e-4)), steps=st.integers(1, 2000))
# a -0.0 velocity stays -0.0 under the real pair's arithmetic
@example(law="harmonic", x0=0.0, v0=-0.0, k=1.0, c=0.1, dt=1e-3, steps=3)
def test_rk4_matches_the_reference_bitwise(law, x0, v0, k, c, dt, steps):
    ode = _cli_law(law, k, c)
    want = reference_rk4(ode.f, x0, v0, dt, dt * steps)
    traj = integrate_embedded(ode, x0, v0, dt, dt * steps)
    for got in ((traj.times, traj.x, traj.y),
                _complex_as_pair(ode, x0, v0, dt, dt * steps)):
        assert all(map(_same_bits, got, want))


@pytest.mark.parametrize("f, x0, dt, duration", [
    (lambda x, y: 1e308 * x, 3.0, 0.5, 50.0),  # runs to inf
    (lambda x, y: -x ** 3, 1e200, 1e-3, 1.0),  # float ** raises OverflowError
])
def test_rk4_blows_up_where_the_reference_does(f, x0, dt, duration):
    with pytest.raises(ReferenceBlowup) as ref:
        reference_rk4(f, x0, 0.0, dt, duration)
    for integrate in (integrate_embedded, _complex_as_pair):
        with pytest.raises(IntegrationError) as err:
            integrate(SecondOrderODE(f), x0, 0.0, dt, duration)
        assert err.value.step == ref.value.step
        assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("ode", [*(_cli_law(name) for name in CLI_LAWS),
                                 DAMPED, EVEN],
                         ids=[*CLI_LAWS, "DAMPED", "even"])
def test_reversal_probe_matches_the_reference(ode):
    for seed in range(50):
        got = check_time_reversal_invariance(ode, seed=seed)
        assert got == reference_reversal_probe(ode.f, 256, seed, INVARIANCE_BOX,
                                               INVARIANCE_TOL)
        assert type(got[1]) is float


@pytest.mark.parametrize("f", [
    lambda x, y: 1e308 * y * 10.0,  # gap |-inf - inf| = inf
    lambda x, y: 1e308 * x * 10.0,  # gap |inf - inf| = NaN, which max() skips
    lambda x, y: x ** 400,          # float ** raises OverflowError
], ids=["inf", "nan", "overflow"])
def test_reversal_probe_refuses_a_law_that_overflows_on_the_box(f):
    with pytest.raises(ValidationError) as err:
        check_time_reversal_invariance(SecondOrderODE(f))
    x, y = err.value.details["point"]
    assert f"({x!r}, {y!r})" in str(err.value)
    assert abs(x) <= INVARIANCE_BOX and abs(y) <= INVARIANCE_BOX


def test_integrator_rejects_bad_grid():
    with pytest.raises(ValueError):
        integrate_embedded(HARMONIC, 1.0, 0.0, -1e-3, 1.0)
    with pytest.raises(ValueError):
        integrate_embedded(HARMONIC, 1.0, 0.0, 1e-3, 0.0)
    with pytest.raises(ValueError, match="must have equal lengths"):
        Trajectory(np.zeros(3), np.zeros(3), np.zeros(2))


def _sh_integrate(dt, duration):
    system = SHSystem(np.eye(2), np.zeros((2, 2)))
    return sh_integrate(system, PhaseSpaceState([1.0, 0.0], [0.0, 0.0]), dt,
                        duration)


GRID_INTEGRATORS = {
    "embedded": lambda dt, duration: integrate_embedded(HARMONIC, 1.0, 0.0, dt,
                                                        duration),
    "complex": lambda dt, duration: integrate_complex(ComplexFlow(HARMONIC), 1.0,
                                                      dt, duration),
    "sh": _sh_integrate,
}


@pytest.mark.parametrize("integrator", sorted(GRID_INTEGRATORS))
@pytest.mark.parametrize("arg", ["dt", "duration"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_grid_refuses_a_step_or_span_that_is_not_positive_and_finite(
        integrator, arg, bad):
    grid = {"dt": 0.1, "duration": 1.0, arg: bad}
    with pytest.raises(ValueError, match=f"^{arg} must be positive and finite"):
        GRID_INTEGRATORS[integrator](grid["dt"], grid["duration"])


def test_grid_refuses_a_step_count_no_array_can_hold():
    with pytest.raises(ValueError, match="^dt is too small"):
        uniform_grid(1e-300, 1.0)
    # below the bound a huge count is still returned, not refused
    steps, step = uniform_grid(1.0, MAX_GRID_STEPS / 2)
    assert steps == round(MAX_GRID_STEPS / 2) and step == 1.0


@pytest.mark.parametrize("integrator", sorted(GRID_INTEGRATORS))
@pytest.mark.parametrize("dt, duration", [(1e-300, 1.0), (1e-300, 1e300)])
def test_integrators_refuse_a_step_count_no_array_can_hold(integrator, dt,
                                                           duration):
    # (1e-300, 1e300) has an infinite count: round() raised OverflowError
    with pytest.raises(ValueError, match="^dt is too small"):
        GRID_INTEGRATORS[integrator](dt, duration)


@settings(max_examples=60, deadline=None)
@given(dt=st.floats(1e-3, 1.0), ratio=st.floats(0.01, 500.0))
def test_integrators_share_one_time_grid(dt, ratio):
    duration = dt * ratio
    times = integrate_embedded(HARMONIC, 1.0, 0.0, dt, duration).times
    assert np.array_equal(
        integrate_complex(ComplexFlow(HARMONIC), 1.0, dt, duration)[0], times)
    assert np.array_equal(_sh_integrate(dt, duration).times, times)
    steps = max(1, round(duration / dt))
    assert len(times) == steps + 1 and times[-1] == steps * (duration / steps)


def test_integrator_reports_blowup():
    runaway = SecondOrderODE(lambda x, y: 1e308 * x)
    with pytest.raises(IntegrationError) as err:
        integrate_embedded(runaway, 3.0, 0.0, 0.5, 50.0)
    assert err.value.step >= 1


def test_integrators_report_an_overflowing_law_at_its_step():
    cubic = SecondOrderODE(lambda x, y: -x ** 3)  # float ** raises OverflowError
    with pytest.raises(IntegrationError) as err:
        integrate_embedded(cubic, 1e200, 0.0, 1e-3, 1.0)
    assert err.value.step == 1
    with pytest.raises(IntegrationError) as err:
        integrate_complex(ComplexFlow(cubic), complex(1e200, 0.0), 1e-3, 1.0)
    assert err.value.step == 1


def test_trajectory_arrays_are_read_only():
    traj = integrate_embedded(HARMONIC, 1.0, 0.0, 1e-2, 1.0)
    with pytest.raises(ValueError):
        traj.x[0] = 99.0
