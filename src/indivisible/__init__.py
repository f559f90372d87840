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

Importing the package loads none of them.  Each name in ``__all__``, and
each submodule name, imports its module on first access (PEP 562), so a
process pays only for the modules it uses; ``indivisible.cli`` likewise
imports a subcommand's modules when that subcommand runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "complex_repr": ("Mat2C", "PseudoQuaternionElement", "c2_modulus_sq",
                     "c2_mul", "pq_mul", "taylor_exp_rotation"),
    "correspondence": ("DensityMatrix", "KrausSet", "PolygonViolation",
                       "PotentialMatrix", "UnistochasticResult", "UnitaryMatrix",
                       "density_from_distribution", "dilation_marginal",
                       "evolve_density", "hamiltonian_from_evolution",
                       "kraus_from_potential", "orthostochastic_check",
                       "polygon_certificate", "potential_from_transition",
                       "quantum_to_stochastic", "stinespring_dilate",
                       "unistochastic_search"),
    "embed": ("ComplexFlow", "EmbeddedState", "SecondOrderDiscreteLaw",
              "SecondOrderODE", "Trajectory", "check_time_reversal_invariance",
              "integrate_complex", "integrate_embedded", "iterate_discrete",
              "step_discrete", "time_reverse"),
    "errors": ("DomainError", "InputFormatError", "IntegrationError",
               "UnsupportedSizeError", "ValidationError"),
    "oscillator": ("HermitianMatrix", "PhaseSpaceState", "PhaseTrajectory",
                   "SHSystem", "StateVector", "exact_evolve", "sh_decompose",
                   "sh_energy", "sh_integrate", "sh_recombine", "sh_split",
                   "time_reverse_state"),
    "stochastic": ("Distribution", "DivisibilityVerdict", "IndivisibleProcess",
                   "TransitionMatrix", "divisibility_check", "markov_compose"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "lp", "serialize"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

# API names only: the submodules resolve as attributes but are not exported.
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        # Importing a submodule binds it here, so this runs once per module.
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
