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

from types import ModuleType as _ModuleType

from .complex_repr import (
    Mat2C,
    PseudoQuaternionElement,
    c2_modulus_sq,
    c2_mul,
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
from .embed import (
    ComplexFlow,
    EmbeddedState,
    SecondOrderDiscreteLaw,
    SecondOrderODE,
    Trajectory,
    check_time_reversal_invariance,
    integrate_complex,
    integrate_embedded,
    iterate_discrete,
    step_discrete,
    time_reverse,
)
from .errors import (
    DomainError,
    InputFormatError,
    IntegrationError,
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
)

__version__ = "0.1.0"

# API names only: importing a submodule also binds its name here.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
