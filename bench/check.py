"""Independent output checker: plain numpy, no imports from ``indivisible``.

``check_job`` judges one CLI call from its exit code, its report and CSV
bytes, and the input it was given.  A job fails when its output is wrong,
malformed or missing; a verdict that no few lines of numpy can confirm
(``indeterminate``, ``not_found``, an ``indivisible`` on an ill-conditioned
pair) leaves the job unchecked instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

WITNESS_SUM_TOL = 1e-12
WITNESS_RESIDUAL_TOL = 1e-9
LP_RELAXATION = 1e-10          # the equality slack the CLI reports it used
WELL_CONDITIONED = 1e8         # cond(Gamma(t')) below which M is trusted
UNITARY_TOL = 1e-10
MODULI_TOL = 1e-12
DILATION_TOL = 1e-10
SH_SIM_TOL = 1e-5
EMBED_TOL = 1e-7


class CheckFailure(Exception):
    pass


@dataclass
class Outcome:
    failed: str | None = None     # reason, when the job counts as failed
    verdicts: int = 0             # pair verdicts and search outcomes issued
    undecided: int = 0            # indeterminate + not_found among them
    unchecked: list = field(default_factory=list)

    @property
    def checked(self) -> bool:
        return self.failed is None and not self.unchecked


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _cplx(obj: dict) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def _max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


# ---------------------------------------------------------------------------
# Per-command checks; each records verdicts and unchecked ones in ``out``
# ---------------------------------------------------------------------------

def _judge_pair(entry: dict, mats: dict, kind: str, out: Outcome) -> None:
    t, tp = float(entry["t"]), float(entry["tp"])
    g, gp = mats[t], mats[tp]
    status = entry["status"]
    out.verdicts += 1
    if status == "divisible":
        w = np.array(entry["witness"], dtype=float)
        _require(w.shape == g.shape, f"witness shape {w.shape}")
        _require(float(w.min()) >= 0.0, f"witness entry {float(w.min()):.3e} < 0")
        sums = _max_abs(w.sum(axis=0) - 1.0)
        _require(sums <= WITNESS_SUM_TOL, f"witness column sums off by {sums:.3e}")
        res = _max_abs(w @ gp - g)
        _require(res <= WITNESS_RESIDUAL_TOL,
                 f"witness residual {res:.3e} for ({t}, {tp})")
    elif status == "indivisible":
        _require(not (kind == "chain" and t > tp),
                 f"chain pair ({t}, {tp}) called indivisible; "
                 "it is divisible by construction")
        cond = float(np.linalg.cond(gp))
        if cond >= WELL_CONDITIONED:
            out.unchecked.append(f"indivisible ({t}, {tp}), cond {cond:.1e}")
            return
        inv = np.linalg.inv(gp)
        m = g @ inv
        # Any relaxed solution differs from M by at most E inv with
        # |E| <= LP_RELAXATION entrywise.
        margin = 10.0 * LP_RELAXATION * float(np.abs(inv).sum(axis=0).max()) + 1e-9
        if float(m.min()) >= -margin:
            out.unchecked.append(f"indivisible ({t}, {tp}), min M {float(m.min()):.1e}")
    elif status == "indeterminate":
        out.undecided += 1
        out.unchecked.append(f"indeterminate ({t}, {tp})")
    else:
        raise CheckFailure(f"unknown status {status!r}")


def check_divisibility(job, code: int, report: dict, csv: bytes | None,
                       out: Outcome) -> None:
    mats = {float(tr["t"]): np.array(tr["matrix"], dtype=float)
            for tr in job.payload["transitions"]}
    kind = job.expect.get("kind", "")
    if "--all-pairs" in job.flags:
        times = sorted(mats)
        expected = {(hi, lo) for i, hi in enumerate(times) for lo in times[:i]}
        entries = report["pairs"]
        got = {(float(e["t"]), float(e["tp"])) for e in entries}
        _require(got == expected and len(entries) == len(expected),
                 "pairs reported do not match all pairs of the input")
    else:
        entries = [report]
    for entry in entries:
        _judge_pair(entry, mats, kind, out)
    want = 2 if any(e["status"] == "indeterminate" for e in entries) else 0
    _require(code == want, f"exit code {code}, expected {want}")


def _polygon_violation(gamma: np.ndarray) -> float:
    """Largest excess of one side over the rest, for any row or column pair.

    Orthogonality of two columns (rows) of a unitary with moduli sqrt(gamma)
    needs the sides sqrt(gamma_ij gamma_ik) to close into a polygon.
    """
    worst = -np.inf
    for g in (gamma, gamma.T):
        n = g.shape[1]
        for j in range(n):
            for k in range(j + 1, n):
                sides = np.sqrt(g[:, j] * g[:, k])
                worst = max(worst, float(2.0 * sides.max() - sides.sum()))
    return worst


def check_unistochastic(job, code: int, report: dict, csv, out: Outcome) -> None:
    gamma = np.array(job.payload["matrix"], dtype=float)
    status = report["status"]
    out.verdicts += 1
    if status == "found":
        u = _cplx(report["unitary"])
        dev = _max_abs(u @ u.conj().T - np.eye(u.shape[0]))
        _require(dev <= UNITARY_TOL, f"U U^dag deviates from 1 by {dev:.3e}")
        mod = _max_abs(np.abs(u) ** 2 - gamma)
        _require(mod <= MODULI_TOL, f"|U|^2 misses Gamma by {mod:.3e}")
        _require(code == 0, f"exit code {code}, expected 0")
    elif status == "not_unistochastic":
        _require(job.expect.get("kind") != "unitary",
                 "|U|^2 called not unistochastic")
        row_dev = _max_abs(gamma.sum(axis=1) - 1.0)
        if row_dev <= 1e-12 and _polygon_violation(gamma) <= 1e-12:
            out.unchecked.append("not_unistochastic without a polygon violation")
        _require(code == 0, f"exit code {code}, expected 0")
    elif status == "not_found":
        out.undecided += 1
        out.unchecked.append("not_found")
        _require(code == 2, f"exit code {code}, expected 2")
    else:
        raise CheckFailure(f"unknown status {status!r}")


def check_dilate(job, code: int, report: dict, csv, out: Outcome) -> None:
    gamma = np.array(job.payload["matrix"], dtype=float)
    n = gamma.shape[0]
    u = _cplx(report["unitary"])
    _require(u.shape == (n * n, n * n), f"dilation shape {u.shape}")
    dev = _max_abs(u.conj().T @ u - np.eye(n * n))
    _require(dev <= DILATION_TOL, f"dilation not unitary: {dev:.3e}")
    # Input column j sits at j*n with the ancilla at 0; rows are (i, beta).
    marginal = (np.abs(u[:, ::n]) ** 2).reshape(n, n, n).sum(axis=1)
    mdev = _max_abs(marginal - gamma)
    _require(mdev <= DILATION_TOL, f"dilation marginal misses Gamma by {mdev:.3e}")
    _require(code == 0, f"exit code {code}, expected 0")


def check_correspond(job, code: int, report: dict, csv, out: Outcome) -> None:
    u = _cplx(job.payload)
    dev = _max_abs(np.array(report["gamma"], dtype=float) - np.abs(u) ** 2)
    _require(dev <= MODULI_TOL, f"Gamma misses |U|^2 by {dev:.3e}")
    _require(code == 0, f"exit code {code}, expected 0")


def _flag(job, name: str, default: float) -> float:
    flags = job.flags
    return float(flags[flags.index(name) + 1]) if name in flags else default


def check_extract_hamiltonian(job, code: int, report: dict, csv, out: Outcome) -> None:
    h = _cplx(job.payload)
    dt = _flag(job, "--dt", 1e-4)
    got = _cplx(report["hamiltonian"])
    err = _max_abs(got - h)
    norm = float(np.linalg.norm(h, 2))
    # Symmetric difference quotient: dt^2/6 |H|^3 truncation plus rounding.
    bound = 2.0 * (dt * dt / 6.0 * norm ** 3 + 50.0 * h.shape[0] * 2.2e-16 / dt)
    _require(err <= bound, f"recovered H off by {err:.3e} (bound {bound:.3e})")
    _require(abs(err - float(report["max_error_vs_input"])) <= 1e-14,
             "reported error disagrees with the recomputed one")
    _require(code == 0, f"exit code {code}, expected 0")


def _csv_rows(csv: bytes | None, header: list) -> np.ndarray:
    _require(csv is not None, "CSV missing")
    lines = csv.decode().splitlines()
    _require(bool(lines) and lines[0] == ",".join(header), "CSV header mismatch")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), "ragged CSV row")
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


def check_sh_sim(job, code: int, report: dict, csv, out: Outcome) -> None:
    n = int(job.payload["n"])
    h = _cplx(job.payload)
    if "psi0" in job.payload:
        psi0 = _cplx(job.payload["psi0"])
    else:  # the CLI starts from the first basis state
        psi0 = np.eye(n, dtype=complex)[0]
    header = ["t"] + [f"q_{i + 1}" for i in range(n)] + [f"p_{i + 1}" for i in range(n)]
    rows = _csv_rows(csv, header)
    _require(len(rows) == int(report["samples"]),
             f"CSV has {len(rows)} rows, report says {report['samples']}")
    duration = _flag(job, "--T", 10.0)
    steps = max(1, int(round(duration / _flag(job, "--dt", 1e-4))))
    stride = int(_flag(job, "--stride", 100))
    want = steps // stride + 1 + (steps % stride != 0)
    _require(len(rows) == want, f"{len(rows)} samples, expected {want}")
    last = rows[-1]
    _require(abs(last[0] - duration) <= 1e-9 * max(1.0, duration),
             f"last sample at t={last[0]!r}, expected {duration!r}")
    w, v = np.linalg.eigh(h)
    psi = v @ (np.exp(-1j * w * last[0]) * (v.conj().T @ psi0))
    expect = np.concatenate([np.sqrt(2.0) * psi.real, np.sqrt(2.0) * psi.imag])
    dev = _max_abs(last[1:] - expect)
    _require(dev <= SH_SIM_TOL, f"final state off exact evolution by {dev:.3e}")
    _require(code == 0, f"exit code {code}, expected 0")


def _embed_closed_form(payload: dict, t: float) -> tuple | None:
    law = payload["law"]
    params = payload.get("params", {})
    x0, v0 = float(payload.get("x0", 1.0)), float(payload.get("v0", 0.0))
    k = float(params.get("k", 1.0))
    if law == "harmonic":
        w = np.sqrt(k)
        return (x0 * np.cos(w * t) + v0 / w * np.sin(w * t),
                -x0 * w * np.sin(w * t) + v0 * np.cos(w * t))
    if law == "damped":
        c = float(params.get("c", 0.1))
        a = c / 2.0
        wd = np.sqrt(k - a * a)             # underdamped for every drawn k, c
        b = (v0 + a * x0) / wd
        e = np.exp(-a * t)
        x = e * (x0 * np.cos(wd * t) + b * np.sin(wd * t))
        y = -a * x + e * (-x0 * wd * np.sin(wd * t) + b * wd * np.cos(wd * t))
        return x, y
    return None


def check_embed(job, code: int, report: dict, csv, out: Outcome) -> None:
    rows = _csv_rows(csv, ["t", "x", "y"])
    _require(len(rows) == int(report["samples"]),
             f"CSV has {len(rows)} rows, report says {report['samples']}")
    duration = _flag(job, "--T", 10.0)
    steps = max(1, int(round(duration / _flag(job, "--dt", 1e-3))))
    _require(len(rows) == steps + 1, f"{len(rows)} samples, expected {steps + 1}")
    t, x, y = rows[-1]
    final = report["final"]
    _require((final["t"], final["x"], final["y"]) == (t, x, y),
             "report's final state differs from the CSV's last row")
    closed = _embed_closed_form(job.payload, t)
    if closed is not None:
        dev = max(abs(x - closed[0]), abs(y - closed[1]))
        _require(dev <= EMBED_TOL, f"final state off closed form by {dev:.3e}")
    else:  # cubic: the energy y^2/2 + k x^4/4 is conserved
        k = float(job.payload.get("params", {}).get("k", 1.0))
        energy = 0.5 * rows[:, 2] ** 2 + 0.25 * k * rows[:, 1] ** 4
        drift = _max_abs(energy - energy[0])
        _require(drift <= EMBED_TOL, f"cubic energy drifts by {drift:.3e}")
    _require(code == 0, f"exit code {code}, expected 0")


CHECKS = {"divisibility": check_divisibility, "unistochastic": check_unistochastic,
          "dilate": check_dilate, "correspond": check_correspond,
          "extract-hamiltonian": check_extract_hamiltonian,
          "sh-sim": check_sh_sim, "embed": check_embed}


def check_job(job, code, report_bytes: bytes | None,
              csv_bytes: bytes | None) -> Outcome:
    """Judge one finished job; ``code`` is None when it raised."""
    out = Outcome()
    if code is None:
        out.failed = "raised"
        return out
    if code == 1:
        out.failed = "exit 1"
        return out
    try:
        _require(report_bytes is not None, "report missing")
        report = json.loads(report_bytes)
        _require(report.get("command") == job.command, "report names another command")
        CHECKS[job.command](job, code, report, csv_bytes, out)
    except (CheckFailure, KeyError, TypeError, ValueError, IndexError) as exc:
        out.failed = f"{type(exc).__name__}: {exc}"
    return out
