"""Indivisible stochastic processes and their quantum counterparts.

The package walks the full path from elementary representation questions to
operational dilations:

- ``complex_repr``: complex numbers as 2x2 real matrices; pseudo-quaternions.
- ``embed``: second-order laws made Markovian by carrying the previous value.
- ``oscillator``: Schrodinger dynamics as a classical Hamiltonian system,
  integrated symplectically.
- ``stochastic``: column-stochastic transition data and divisibility testing.
- ``correspondence``: unistochasticity, Kraus sets, Stinespring dilations,
  density matrices, Hamiltonian recovery.
- ``cli``: the ``indivisible`` executable.
"""

from .complex_repr import (
    Mat2C,
    PseudoQuaternionElement,
    c2_conj,
    c2_exp_rotation,
    c2_modulus_sq,
    c2_mul,
    c2_reciprocal,
    entrywise_mul,
    pq_mul,
    taylor_exp_rotation,
)
from .correspondence import (
    DensityMatrix,
    KrausSet,
    PolygonViolation,
    PotentialMatrix,
    UnistochasticResult,
    UnitaryMatrix,
    apply_kraus,
    density_from_distribution,
    dilation_marginal,
    evolve_density,
    hamiltonian_from_evolution,
    kraus_from_potential,
    orthostochastic_check,
    polygon_certificate,
    potential_from_transition,
    quantum_to_stochastic,
    rank_one_factor,
    stinespring_dilate,
    unistochastic_search,
)
from .embed import (
    ComplexFlow,
    EmbeddedState,
    SecondOrderDiscreteLaw,
    SecondOrderODE,
    Trajectory,
    check_time_reversal_invariance,
    eval_complex_flow,
    integrate_complex,
    integrate_embedded,
    iterate_discrete,
    step_discrete,
    time_reverse,
    xy_inverse,
    xy_transform,
)
from .errors import (
    DomainError,
    InputFormatError,
    IntegrationError,
    NotRankOneError,
    UnsupportedSizeError,
    ValidationError,
)
from .oscillator import (
    HermitianMatrix,
    PhaseSpaceState,
    PhaseTrajectory,
    SHSystem,
    StateVector,
    exact_evolve,
    sh_decompose,
    sh_energy,
    sh_integrate,
    sh_normal_modes,
    sh_recombine,
    sh_split,
    time_reverse_state,
)
from .stochastic import (
    Distribution,
    DivisibilityVerdict,
    IndivisibleProcess,
    TransitionMatrix,
    divisibility_check,
    markov_compose,
    pairwise_joint,
    propagate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
