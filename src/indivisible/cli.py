"""Command-line interface.

One executable, subcommand dispatch; every command reads JSON input files,
writes canonical JSON (and CSV, for trajectories) via the serialize module,
and is deterministic for a fixed --seed.  Numeric parameters are flags; an
optional --config JSON file overrides flags of the same name.

Exit codes: 0 success (including definitive negative verdicts), 1 validation,
input-format or integration failure, 2 solver gave up (iteration caps,
inconclusive search).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import correspondence as corr
from . import embed as emb
from . import oscillator as osc
from . import serialize as ser
from . import stochastic as stoch
from .errors import (MAX_GRID_STEPS, InputFormatError, IntegrationError,
                     ValidationError)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Input catalogs and helpers
# ---------------------------------------------------------------------------

def _law_params(params: dict, **defaults: float) -> list[float]:
    """The law's parameters in the order of ``defaults``, each defaulted when
    absent; InputFormatError at ``params.<key>`` for a key the law does not
    take or a value that is not a finite number."""
    for key in params:
        if key not in defaults:
            raise InputFormatError(
                f"params.{key}", "not a parameter of this law; it takes "
                + (", ".join(defaults) or "none"))
    return [ser._expect_number(params.get(key, default), f"params.{key}")
            for key, default in defaults.items()]


def _law_registry(name: str, params: dict):
    if name == "harmonic":
        k, = _law_params(params, k=1.0)
        return lambda x, y: -k * x
    if name == "damped":
        k, c = _law_params(params, k=1.0, c=0.1)
        return lambda x, y: -k * x - c * y
    if name == "cubic":
        k, = _law_params(params, k=1.0)
        return lambda x, y: -k * x ** 3
    if name == "free":
        _law_params(params)
        return lambda x, y: 0.0
    raise InputFormatError("law", f"unknown law {name!r}; "
                           "expected harmonic, damped, cubic, or free")


def _csv_path(args) -> Path:
    if args.csv is not None:
        return Path(args.csv)
    return Path(args.output).with_suffix(".csv")


def _emit(args, report: dict) -> None:
    """Write ``report`` framed with the subcommand, the seed and the schema."""
    report.update(command=args.subcommand, seed=args.seed,
                  schema=SCHEMA_VERSION)
    ser.write_json(args.output, report)


def _require_positive(flag: str, value) -> None:
    """InputFormatError naming ``flag`` unless 0 < value < inf (NaN fails)."""
    if not 0 < value < math.inf:
        raise InputFormatError(flag, f"must be positive and finite, got {value!r}")


def _require_finite(flag: str, value) -> None:
    """InputFormatError naming ``flag`` when value is NaN or infinite; an
    unset flag (None) passes."""
    if value is not None and not math.isfinite(value):
        raise InputFormatError(flag, f"must be finite, got {value!r}")


def _require_grid(args) -> None:
    """InputFormatError naming --dt or --T unless each is positive and finite,
    and naming --dt when the round(T / dt) steps of the time grid are more
    than numpy can hold in one float array."""
    _require_positive("--dt", args.dt)
    _require_positive("--T", args.duration)
    steps = args.duration / args.dt
    if not steps < MAX_GRID_STEPS:
        raise InputFormatError(
            "--dt", f"--T / --dt is {steps:.3g} steps, more than an array can hold")


def _status_line(text: str) -> None:
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_embed(args) -> int:
    _require_grid(args)
    spec = ser.load_json(args.input)
    if not isinstance(spec, dict) or "law" not in spec:
        raise InputFormatError("law", "input must be an object naming a law")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise InputFormatError("params", "expected an object")
    ode = emb.SecondOrderODE(_law_registry(spec["law"], params))
    x0 = ser._expect_number(spec.get("x0", 1.0), "x0")
    v0 = ser._expect_number(spec.get("v0", 0.0), "v0")
    traj = emb.integrate_embedded(ode, x0, v0, args.dt, args.duration)
    # A finite state can still be too large to square: only the two reported
    # energies are computed, and one past the float range is refused.
    ends = [0, len(traj) - 1]
    with np.errstate(over="ignore"):
        energy = 0.5 * (traj.x[ends] ** 2 + traj.y[ends] ** 2)
    for step, value in zip(ends, energy):
        if not math.isfinite(value):
            raise IntegrationError(
                f"embedded energy became non-finite by step {step}", step=step)
    invariant, violation = emb.check_time_reversal_invariance(ode, args.seed)
    ser.write_csv(_csv_path(args), ["t", "x", "y"],
                  np.column_stack([traj.times, traj.x, traj.y]))
    _emit(args, {
        "law": spec["law"],
        "dt": args.dt,
        "duration": args.duration,
        "samples": len(traj),
        "final": {"t": float(traj.times[-1]), "x": float(traj.x[-1]),
                  "y": float(traj.y[-1])},
        "embedded_energy": {"first": float(energy[0]), "last": float(energy[1])},
        "time_reversal": {"invariant": invariant, "max_violation": violation,
                          "tolerance": emb.INVARIANCE_TOL},
    })
    _status_line(f"embed: {len(traj)} samples written")
    return 0


def _parse_state_vector(obj, field: str, n: int) -> osc.StateVector:
    if not isinstance(obj, dict):
        raise InputFormatError(field, "expected an object with re/im lists")
    re = ser.parse_vector(obj.get("re"), f"{field}.re", n)
    im = ser.parse_vector(obj.get("im"), f"{field}.im", n)
    return osc.StateVector(re + 1j * im)


def _cmd_sh_sim(args) -> int:
    _require_grid(args)
    _require_positive("--stride", args.stride)
    payload = ser.load_json(args.input)
    h = ser.parse_hermitian(payload)
    if isinstance(payload, dict) and "psi0" in payload:
        psi0 = _parse_state_vector(payload["psi0"], "psi0", h.n)
    else:
        e1 = np.zeros(h.n, dtype=complex)
        e1[0] = 1.0
        psi0 = osc.StateVector(e1)
    system = osc.sh_decompose(h)
    state0 = osc.sh_split(psi0)
    traj = osc.sh_integrate(system, state0, args.dt, args.duration,
                            method=args.method, sample_stride=args.stride)
    # Finite samples can still be too large to square: overflow is detected
    # from the three reported figures, rather than warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        energies = osc.sh_energy(system, traj)
        drifts = np.abs(energies - energies[0])
        expected = osc.exact_evolve(h, psi0, traj.times)
        misses = np.linalg.norm(osc.sh_recombine(traj) - expected, axis=1)
    initial = float(energies[0])
    drift = float(np.max(drifts))
    deviation = float(np.max(misses))
    for name, value, per_sample in (("initial energy", initial, energies),
                                    ("energy drift", drift, drifts),
                                    ("deviation from exact evolution",
                                     deviation, misses)):
        if not math.isfinite(value):
            first = int(np.flatnonzero(~np.isfinite(per_sample))[0])
            step = round(float(traj.times[first]) / args.dt)
            raise IntegrationError(f"{name} became non-finite by step {step}",
                                   step=step)
    header = (["t"] + [f"q_{i + 1}" for i in range(h.n)]
              + [f"p_{i + 1}" for i in range(h.n)])
    ser.write_csv(_csv_path(args), header,
                  np.column_stack([traj.times, traj.q, traj.p]))
    _emit(args, {
        "n": h.n,
        "dt": args.dt,
        "duration": args.duration,
        "method": args.method,
        "stride": args.stride,
        "samples": len(traj),
        "energy": {"initial": initial,
                   "max_drift": drift},
        "max_deviation_from_exact": deviation,
        "tolerances": {"hermiticity": osc.HERMITICITY_TOL,
                       "normalization": osc.NORMALIZATION_TOL},
    })
    _status_line(f"sh-sim: {len(traj)} samples, max deviation {deviation:.3e}")
    return 0


def _source_time(process: stoch.IndivisibleProcess, args) -> float:
    """--t0, else the earliest conditioning time; exits 1 when the process
    has none."""
    if args.t0 is None and not process.conditioning:
        raise InputFormatError("conditioning", "the process has none; give --t0")
    return args.t0 if args.t0 is not None else min(process.conditioning)


def _stamps(process: stoch.IndivisibleProcess, args) -> tuple[float, list]:
    """Source time and the sorted target times stored from it; exits 1 when
    there are fewer than two to compare."""
    t0 = _source_time(process, args)
    stamps = sorted(t for (t, s) in process.transitions if s == t0)
    if len(stamps) < 2:
        raise InputFormatError(
            "transitions", f"need two transitions from t0={t0} to compare")
    return t0, stamps


def _select_pair(process: stoch.IndivisibleProcess, args):
    if (args.t is None) != (args.tp is None):
        raise InputFormatError("--t" if args.t is None else "--tp",
                               "--t and --tp must be given together")
    if args.t is not None:
        t0 = _source_time(process, args)
        return process.transition(args.t, t0), process.transition(args.tp, t0)
    t0, stamps = _stamps(process, args)
    return process.transition(stamps[-1], t0), process.transition(stamps[-2], t0)


def _verdict_payload(verdict: stoch.DivisibilityVerdict, t: float, tp: float) -> dict:
    payload = {
        "t": t,
        "tp": tp,
        "status": verdict.status,
        "residual": verdict.residual,
        "witness": None if verdict.witness is None
        else verdict.witness.matrix,
    }
    if verdict.certificate is not None:
        payload["certificate"] = verdict.certificate
    return payload


def _cmd_divisibility(args) -> int:
    _require_finite("--t", args.t)
    _require_finite("--tp", args.tp)
    _require_finite("--t0", args.t0)
    _require_positive("--jobs", args.jobs)
    process = ser.parse_process(ser.load_json(args.input))
    tolerances = {"witness_residual": stoch.WITNESS_RESIDUAL_TOL,
                  "lp_relaxation": stoch.LP_RELAXATION,
                  "column_sum": stoch.SUM_TOL}
    if args.all_pairs:
        if args.t is not None or args.tp is not None:
            raise InputFormatError("--t" if args.t is not None else "--tp",
                                   "not taken with --all-pairs")
        t0, stamps = _stamps(process, args)
        pairs = [(hi, lo) for i, hi in enumerate(stamps) for lo in stamps[:i]]
        verdicts = stoch.divisibility_verdicts(
            [(process.transition(hi, t0), process.transition(lo, t0))
             for hi, lo in pairs])
        results = [_verdict_payload(v, hi, lo)
                   for (hi, lo), v in zip(pairs, verdicts)]
        _emit(args, {"t0": t0, "pairs": results, "tolerances": tolerances})
        statuses = {r["status"] for r in results}
        _status_line(f"divisibility: {len(results)} pairs, "
                     f"statuses {sorted(statuses)}")
        return 2 if "indeterminate" in statuses else 0

    gamma_t, gamma_tp = _select_pair(process, args)
    verdict = stoch.divisibility_check(gamma_t, gamma_tp)
    _emit(args, {"t0": gamma_t.t0, "tolerances": tolerances,
                 **_verdict_payload(verdict, gamma_t.t, gamma_tp.t)})
    _status_line(f"divisibility: {verdict.status}")
    return 2 if verdict.status == "indeterminate" else 0


def _cmd_correspond(args) -> int:
    _require_finite("--t", args.t)
    _require_finite("--t0", args.t0)
    payload = ser.load_json(args.input)
    matrix = ser.parse_complex_matrix(payload, "<root>")
    u = corr.UnitaryMatrix(matrix, t=args.t if args.t is not None else 1.0,
                           t0=args.t0 if args.t0 is not None else 0.0)
    gamma = corr.quantum_to_stochastic(u)
    row_dev = float(np.max(np.abs(gamma.matrix.sum(axis=1) - 1.0)))
    col_dev = float(np.max(np.abs(gamma.matrix.sum(axis=0) - 1.0)))
    _emit(args, {
        "n": u.n,
        "t": u.t,
        "t0": u.t0,
        "gamma": gamma.matrix,
        "row_sum_deviation": row_dev,
        "column_sum_deviation": col_dev,
        "tolerances": {"unitarity": corr.UNITARITY_TOL,
                       "doubly_stochastic": corr.DOUBLY_STOCHASTIC_TOL},
    })
    _status_line(f"correspond: {u.n}x{u.n} transition matrix written")
    return 0


def _load_transition(args) -> tuple[stoch.TransitionMatrix, dict]:
    payload = ser.load_json(args.input)
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise InputFormatError("matrix", "input must be an object with a matrix")
    matrix = ser.parse_real_matrix(payload["matrix"], "matrix")
    t = ser._expect_number(payload.get("t", 1.0), "t")
    t0 = ser._expect_number(payload.get("t0", 0.0), "t0")
    return stoch.TransitionMatrix(matrix, t=t, t0=t0), payload


def _cmd_unistochastic(args) -> int:
    if args.max_iters < 0:
        raise InputFormatError(
            "--max-iters", f"must be at least 0, got {args.max_iters!r}")
    gamma, _ = _load_transition(args)
    result = corr.unistochastic_search(gamma, max_iters=args.max_iters,
                                       seed=args.seed)
    report = {
        "status": result.status,
        "residual": result.residual,
        "unitary": None if result.unitary is None
        else ser.complex_matrix_payload(result.unitary.matrix),
        "tolerances": {"objective": corr.UNITARITY_TOL,
                       "doubly_stochastic": corr.DOUBLY_STOCHASTIC_TOL},
        "max_iters": args.max_iters,
        "restarts": corr.SEARCH_RESTARTS,
    }
    if result.certificate is not None:
        report["certificate"] = result.certificate
    _emit(args, report)
    _status_line(f"unistochastic: {result.status}")
    return 2 if result.status == "not_found" else 0


def _cmd_dilate(args) -> int:
    gamma, payload = _load_transition(args)
    if "phases" in payload:
        phases = ser.parse_real_matrix(payload["phases"], "phases", gamma.n)
    else:
        phases = np.zeros((gamma.n, gamma.n))
    theta = corr.potential_from_transition(gamma, phases)
    kraus = corr.kraus_from_potential(theta)
    u = corr.stinespring_dilate(kraus)
    marginal = corr.dilation_marginal(u, gamma.n)
    marginal_dev = float(np.max(np.abs(marginal - gamma.matrix)))
    _emit(args, {
        "n": gamma.n,
        "dilation_dim": u.n,
        "unitary": ser.complex_matrix_payload(u.matrix),
        "kraus_identity_residual": kraus.deviation,
        "marginal_residual": marginal_dev,
        "unitarity_residual": u.deviation,
        "tolerances": {"kraus_identity": corr.KRAUS_IDENTITY_TOL,
                       "unitarity": corr.UNITARITY_TOL},
    })
    _status_line(f"dilate: {gamma.n} -> {u.n} unitary dilation written")
    return 0


def _cmd_extract_hamiltonian(args) -> int:
    _require_finite("--t", args.t)
    _require_positive("--dt", args.dt)
    if args.dt < sys.float_info.min:
        # Below the smallest normal float, the quotient's 1 / (2 dt) can overflow.
        raise InputFormatError("--dt", f"must be a normal float (at least "
                               f"{sys.float_info.min!r}), got {args.dt!r}")
    h = ser.parse_hermitian(ser.load_json(args.input))
    w, v = np.linalg.eigh(h.matrix)
    # The quotient is V diag(sin(w dt) / dt) V^dag: one-to-one below pi/2.
    norm = float(np.max(np.abs(w)))
    if not norm * args.dt < math.pi / 2:
        raise InputFormatError("--dt", f"||H|| dt is {norm * args.dt:.3g}, "
                               "not below pi/2, so the quotient aliases")
    if 0.0 < norm * args.dt < sys.float_info.epsilon:
        # The quotient's rounding error, about eps / dt, would exceed ||H||.
        raise InputFormatError("--dt", f"||H|| dt is {norm * args.dt:.3g}, "
                               "below float epsilon, so no digit of H survives")
    if not math.isfinite(norm * (abs(args.t) + args.dt)):
        raise InputFormatError("--t", "||H|| (|t| + dt) is not finite")
    # U(t + s) = U(t) U(s): the family seen from t is sampled at exactly
    # s = 0, +-dt, so the step is exact at every t; e^{-iwt} cancels in U(t)^dag.
    at_t = np.exp(-1j * w * args.t)

    def evolution(s: float) -> np.ndarray:
        return v @ ((at_t * np.exp(-1j * w * s))[:, None] * v.conj().T)

    recovered, anti_dev = corr.hamiltonian_from_evolution(evolution, 0.0, args.dt)
    error = float(np.max(np.abs(recovered.matrix - h.matrix)))
    _emit(args, {
        "n": h.n,
        "t": args.t,
        "dt": args.dt,
        "hamiltonian": ser.complex_matrix_payload(recovered.matrix),
        "anti_hermitian_residual": anti_dev,
        "max_error_vs_input": error,
        "tolerances": {"hermiticity": osc.HERMITICITY_TOL},
    })
    _status_line(f"extract-hamiltonian: max error {error:.3e}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, *, output: bool = True) -> None:
    sub.add_argument("--input", required=True, help="input JSON file")
    if output:
        sub.add_argument("--output", required=True, help="report JSON path")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--config", default=None,
                     help="JSON file whose entries override flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indivisible",
        description="Stochastic processes, divisibility, and unitary dilations")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("embed", help="integrate a second-order law")
    _add_common(p)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", "--duration", dest="duration", type=float, default=10.0)
    p.add_argument("--csv", default=None, help="trajectory CSV path")
    p.set_defaults(handler=_cmd_embed)

    p = subs.add_parser("sh-sim", help="symplectic Schrodinger evolution")
    _add_common(p)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--T", "--duration", dest="duration", type=float, default=10.0)
    p.add_argument("--method", choices=osc.SH_METHODS, default="strang")
    p.add_argument("--stride", type=int, default=100)
    p.add_argument("--csv", default=None, help="trajectory CSV path")
    p.set_defaults(handler=_cmd_sh_sim)

    p = subs.add_parser("divisibility", help="test divisibility of a process")
    _add_common(p)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--tp", type=float, default=None)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--all-pairs", action="store_true")
    p.add_argument("--jobs", type=int, default=1,
                   help="at least 1; checked but changes nothing: --all-pairs "
                   "decides every pair in the calling thread")
    p.set_defaults(handler=_cmd_divisibility)

    p = subs.add_parser("correspond", help="unitary to transition matrix")
    _add_common(p)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t0", type=float, default=None)
    p.set_defaults(handler=_cmd_correspond)

    p = subs.add_parser("unistochastic", help="search for a realizing unitary")
    _add_common(p)
    p.add_argument("--max-iters", type=int, default=corr.SEARCH_MAX_ITERS)
    p.set_defaults(handler=_cmd_unistochastic)

    p = subs.add_parser("dilate", help="Kraus set and Stinespring dilation")
    _add_common(p)
    p.set_defaults(handler=_cmd_dilate)

    p = subs.add_parser("extract-hamiltonian",
                        help="recover H from its own evolution family")
    _add_common(p)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.set_defaults(handler=_cmd_extract_hamiltonian)

    return parser


# Built once at import and only read after: parse_args makes a fresh
# namespace per call and _apply_config writes to that namespace alone, so
# every main() call in a process can share it.
_PARSER = build_parser()

_CONFIG_ALIASES = {"T": "duration"}


def _config_value(action: argparse.Action, value, field: str):
    """Check and convert a config entry as argparse does the flag it names."""
    if action.nargs == 0:  # store_true
        if isinstance(value, bool):
            return value
        raise InputFormatError(field, f"expected true or false, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InputFormatError(field, f"expected a string or number, got {value!r}")
    try:
        converted = (action.type or str)(str(value))
    except ValueError:
        raise InputFormatError(
            field, f"invalid {action.type.__name__} value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise InputFormatError(
            field, f"{converted!r} is not one of {list(action.choices)}")
    return converted


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    if args.config is None:
        return
    overrides = ser.load_json(args.config)
    if not isinstance(overrides, dict):
        raise InputFormatError("<config>", "config must be a JSON object")
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in subs.choices[args.subcommand]._actions}
    for key, value in overrides.items():
        attr = _CONFIG_ALIASES.get(key, key.replace("-", "_"))
        if attr not in flags or attr in ("help", "config"):
            raise InputFormatError(f"<config>.{key}", "not a known flag")
        setattr(args, attr,
                _config_value(flags[attr], value, f"<config>.{key}"))


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _apply_config(_PARSER, args)
        if args.seed < 0:  # every report carries it; the RNGs refuse it
            raise InputFormatError("--seed", f"must be at least 0, got {args.seed}")
        return args.handler(args)
    except InputFormatError as exc:
        field, message = exc.field, exc.reason
    except ValidationError as exc:
        field, message = "<validation>", str(exc)
    except IntegrationError as exc:
        field, message = "<integration>", str(exc)
    except KeyError as exc:  # str() of a KeyError is its message's repr
        field, message = "<lookup>", exc.args[0]
    except OSError as exc:  # load_json reports reads, so this is a write
        field, message = "<file>", f"cannot write: {exc}"
    sys.stderr.write(ser.canonical_dumps(
        {"schema": SCHEMA_VERSION,
         "error": {"field": field, "message": message}}) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
