"""Seeded inputs and job lists for the four benchmark workloads.

A workload is a list of rounds; a round is a short, fixed sequence of job
kinds.  Sizes follow a fixed schedule over the rounds (``_cycle``), so every
run holds the same mix; matrices, states, pairs and seeds are drawn from one
``numpy`` generator seeded by the benchmark's ``--seed``.  The same seed
gives the same jobs, byte for byte: inputs are written with ``json.dumps``
(shortest round-trip float repr), so the arrays the checker keeps in memory
are exactly what the CLI parses.

Nothing is filtered or re-drawn after looking at an outcome.  Markov chains
are products of random column-stochastic steps whose columns are uniform on
the probability simplex, so they are divisible by construction and get worse
conditioned with length (cond(Gamma) about 1e10 at n = 8 after 8 steps).
On 100 such 8-state, 8-time chains the LP left 31 of 2800 pairs
``indeterminate`` and hit its pivot cap once; on 100 6-state ones it called
one pair ``indivisible``.  Those are the known defects the workload counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("divisibility", "evolution", "trajectory", "correspondence")

# Rounds in one pass over the job list, the unit the timed loop repeats and
# the traced run replays once.  Each gives at least 100 jobs, so the 90th
# percentile has ten samples beyond it, and a pass of 1-5 s, so a 24 s run
# holds five or more passes.  Where job costs depend on the drawn matrices
# (LP pivots, search restarts), a pass holds enough draws that the seed
# moves the pass's total by only a few percent.
PASS_ROUNDS = {"divisibility": 16, "evolution": 17, "trajectory": 15,
               "correspondence": 36}
# A job still running after this many seconds is stopped and counts as
# failed.  Divisibility and correspondence jobs finish within about 1 s
# unless a pair sticks at the LP's pivot cap (about 86 s) or a search
# exhausts its restarts (15-60 s); the margin covers the shared machine
# running at half speed for a while.
JOB_LIMIT_S = {"divisibility": 3.0, "evolution": 10.0, "trajectory": 10.0,
               "correspondence": 3.0}
@dataclass
class Job:
    """One ``indivisible`` CLI call plus what the checker needs to judge it."""

    command: str
    payload: object                  # input JSON document
    flags: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)
    csv: bool = False

    def argv(self, input_path: Path, output_path: Path) -> list:
        return [self.command, "--input", str(input_path),
                "--output", str(output_path), *self.flags]


# ---------------------------------------------------------------------------
# Random objects
# ---------------------------------------------------------------------------

def column_stochastic_step(n: int, rng) -> np.ndarray:
    return rng.dirichlet(np.ones(n), size=n).T


def haar_unitary(n: int, rng) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(n: int, rng, norm: float = 1.0) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (z + z.conj().T) / 2.0
    h *= norm / np.linalg.norm(h, 2)
    return (h + h.conj().T) / 2.0


def random_state(n: int, rng) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def evolution_gamma(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    u = v @ (np.exp(-1j * w * t)[:, None] * v.conj().T)
    return np.abs(u) ** 2


def _cycle(values, r: int, offset: int = 0):
    """The size schedule: round r takes the (r + offset)-th value, cyclically."""
    return values[(r + offset) % len(values)]


def _cplx(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _process(mats: list, times: list) -> dict:
    n = mats[0].shape[0]
    return {"n": n, "targets": [0.0, *times], "conditioning": [0.0],
            "transitions": [{"t": t, "t0": 0.0, "matrix": m.tolist()}
                            for t, m in zip(times, mats)],
            "initial": [1.0] + [0.0] * (n - 1)}


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------

def markov_chain(n: int, steps: int, rng) -> list:
    acc = np.eye(n)
    out = []
    for _ in range(steps):
        acc = column_stochastic_step(n, rng) @ acc
        out.append(acc.copy())
    return out


def unitary_family(n: int, steps: int, rng) -> list:
    h = random_hermitian(n, rng, norm=float(rng.uniform(1.0, 3.0)))
    dt = float(rng.uniform(0.2, 0.8))
    return [evolution_gamma(h, dt * (k + 1)) for k in range(steps)]


def _divisibility_job(kind: str, mats: list, *, pair=None, jobs: int = 1,
                      default_pair: bool = False) -> Job:
    times = [float(k + 1) for k in range(len(mats))]
    payload = _process(mats, times)
    if default_pair:
        flags = []
    elif pair is None:
        flags = ["--all-pairs", "--jobs", str(jobs)]
    else:
        hi, lo = pair
        flags = ["--t", repr(times[hi]), "--tp", repr(times[lo])]
    # The checker reads the matrices back from the payload, as the CLI does.
    return Job("divisibility", payload, flags, {"kind": kind})


def _random_pair(steps: int, rng) -> tuple:
    hi = int(rng.integers(1, steps))
    return hi, int(rng.integers(0, hi))


def divisibility_round(rng, r: int) -> list:
    """Chains (n 4/6/8, 3-8 times) and unitary families (n 4-10).

    All-pairs jobs alternate between ``--jobs 1`` and ``--jobs 2``.  Every
    eighth round (round 0 first) runs all 28 pairs of a fresh 8-state, 8-time
    chain; its latest pairs are where the pivot cap and most ``indeterminate``
    verdicts come from.  Each such chain stalls a run by the job limit with
    a chance of a few percent, so they are kept to about two a run.
    """
    times = range(3, 9)
    jobs = []
    for n in (4, 6):
        mats = markov_chain(n, _cycle(times, r, n), rng)
        jobs.append(_divisibility_job("chain", mats, jobs=1 + (n // 2 + r) % 2))
    mats = markov_chain(8, _cycle(times, r, 1), rng)
    jobs.append(_divisibility_job("chain", mats, pair=_random_pair(len(mats), rng)))
    # No --t/--tp: the CLI compares its two latest stamps.
    mats = markov_chain(_cycle((4, 6, 8), r), _cycle(times, r, 3), rng)
    jobs.append(_divisibility_job("chain", mats, default_pair=True))
    for n in (4, 6):
        mats = unitary_family(n, _cycle(range(3, 7), r, n), rng)
        jobs.append(_divisibility_job("unitary", mats, jobs=1 + (n // 2 + r + 1) % 2))
    for n in (8, 10):
        mats = unitary_family(n, 3, rng)
        jobs.append(_divisibility_job("unitary", mats, pair=_random_pair(3, rng)))
    if r % 8 == 0:
        jobs.append(_divisibility_job("chain", markov_chain(8, 8, rng),
                                      jobs=1 + (r // 8) % 2))
    return jobs


# ---------------------------------------------------------------------------
# evolution and trajectory (sh-sim, embed)
# ---------------------------------------------------------------------------

def _sh_job(n: int, rng, *, dt: float, steps: int, stride: int) -> Job:
    h = random_hermitian(n, rng, norm=float(rng.uniform(0.5, 2.0)))
    psi0 = random_state(n, rng)
    payload = {"n": n, **_cplx(h), "psi0": _cplx(psi0)}
    duration = dt * steps
    flags = ["--dt", repr(dt), "--T", repr(duration), "--stride", str(stride)]
    return Job("sh-sim", payload, flags, {}, csv=True)


# Strides spread evenly in log scale over 10^3-10^4, so job costs form a
# continuum and their percentiles do not jump between a few size classes.
STRIDES = tuple(int(round(10 ** (3 + k / 12))) for k in range(13))


def evolution_round(rng, r: int) -> list:
    """Long strided runs: the Strang step loop, two samples each."""
    jobs = []
    for k, n in enumerate((2, 4, 8, 16, 32, 64)):
        stride = _cycle(STRIDES, r, 2 * k)
        jobs.append(_sh_job(n, rng, dt=1e-4, steps=stride, stride=stride))
    return jobs


LAWS = ("harmonic", "damped", "cubic")


def _embed_job(law: str, rng, r: int) -> Job:
    params = {"k": float(rng.uniform(0.5, 2.0))}
    if law == "damped":
        params["c"] = float(rng.uniform(0.05, 0.5))
    payload = {"law": law, "params": params,
               "x0": float(rng.uniform(-1.0, 1.0)),
               "v0": float(rng.uniform(-1.0, 1.0))}
    dt = _cycle((1e-3, 5e-4, 2e-4, 1e-4), r, LAWS.index(law))
    steps = _cycle((500, 1000, 1500, 2000), r, 2 * LAWS.index(law))
    flags = ["--dt", repr(dt), "--T", repr(dt * steps)]
    return Job("embed", payload, flags, {}, csv=True)


def trajectory_round(rng, r: int) -> list:
    """Dense recording: per-sample post-processing and CSV emission."""
    jobs = []
    for k, n in enumerate((2, 4, 8, 16)):
        stride = _cycle((1, 2), r, k)
        steps = _cycle((125, 250, 375, 500), r, k)
        jobs.append(_sh_job(n, rng, dt=1e-3, steps=steps, stride=stride))
    for law in LAWS:
        jobs.append(_embed_job(law, rng, r))
    return jobs


# ---------------------------------------------------------------------------
# correspondence
# ---------------------------------------------------------------------------

def permutation_mixture(n: int, rng) -> np.ndarray:
    w = rng.dirichlet(np.ones(3))
    eye = np.eye(n)
    m = sum(wk * eye[rng.permutation(n)] for wk in w)
    return m / m.sum(axis=0, keepdims=True)


def correspondence_round(rng, r: int) -> list:
    """Phase-descent searches, dilations, |U|^2 and Hamiltonian extraction.

    Permutation mixtures (n = 3-7, every fourth round) bring the triangle
    refusals and ``not_found``; they finish within 0.7 s.  A search on a lawful |U|^2
    came back ``not_found`` after 15-60 s in 3 of 300 draws at n = 3 and 4
    (and took up to 12 s at n = 5-7), so |U|^2 searches run only every twelfth
    round, at n = 3, 4, 3 in a 36-round pass: often enough to count those
    stalls, rarely enough that one does not set a run's throughput.  A
    search's cost depends on the matrix drawn (25-230 ms for the same n), so
    searches are kept to about a tenth of a pass; six each of ``dilate``,
    ``correspond`` and ``extract-hamiltonian``, whose cost is set by n alone,
    fill the rest, and the seed's share of the run-to-run spread stays small.
    """
    jobs = []
    if r % 12 == 0:
        n = 3 + (r // 12) % 2
        jobs.append(Job("unistochastic",
                        {"matrix": (np.abs(haar_unitary(n, rng)) ** 2).tolist()},
                        ["--seed", str(int(rng.integers(0, 2**31)))],
                        {"kind": "unitary"}))
    if r % 4 == 2:
        n = _cycle(range(3, 8), r // 4)
        jobs.append(Job("unistochastic",
                        {"matrix": permutation_mixture(n, rng).tolist()},
                        ["--seed", str(int(rng.integers(0, 2**31)))],
                        {"kind": "mixture"}))
    sizes = range(2, 11)
    for k in range(6):
        n = _cycle(sizes, r, 3 * k)
        gamma = markov_chain(n, 1, rng)[0]
        payload = {"matrix": gamma.tolist()}
        if k % 2 == 1:
            payload["phases"] = rng.uniform(0.0, 2.0 * np.pi, size=(n, n)).tolist()
        jobs.append(Job("dilate", payload))
        n = _cycle(sizes, r, 3 * k + 1)
        jobs.append(Job("correspond", _cplx(haar_unitary(n, rng)),
                        ["--t", repr(float(rng.uniform(0.5, 2.0)))]))
        n = _cycle(sizes, r, 3 * k + 2)
        h = random_hermitian(n, rng, norm=float(rng.uniform(0.5, 2.0)))
        jobs.append(Job("extract-hamiltonian", {"n": n, **_cplx(h)},
                        ["--t", repr(float(rng.uniform(0.1, 2.0))),
                         "--dt", "0.0001"]))
    return jobs


ROUNDS = {"divisibility": divisibility_round, "evolution": evolution_round,
          "trajectory": trajectory_round, "correspondence": correspondence_round}


def build_rounds(workload: str, seed: int, rounds: int) -> list:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [ROUNDS[workload](rng, r) for r in range(rounds)]


def smallest_inputs() -> dict:
    """One tiny job per subcommand, for warm-up and cold-start timing."""
    rng = np.random.default_rng(0)
    h = random_hermitian(2, rng)
    gamma = column_stochastic_step(2, rng)
    return {
        "embed": Job("embed", {"law": "harmonic"}, ["--dt", "0.01", "--T", "1.0"],
                     csv=True),
        "sh-sim": Job("sh-sim", {"n": 2, **_cplx(h)},
                      ["--dt", "0.01", "--T", "1.0", "--stride", "10"], csv=True),
        "divisibility": Job("divisibility", _process(markov_chain(2, 2, rng), [1.0, 2.0]),
                            [], {"kind": "chain"}),
        "correspond": Job("correspond", _cplx(haar_unitary(2, rng))),
        "unistochastic": Job("unistochastic",
                             {"matrix": (np.abs(haar_unitary(2, rng)) ** 2).tolist()},
                             [], {"kind": "unitary"}),
        "dilate": Job("dilate", {"matrix": gamma.tolist()}),
        "extract-hamiltonian": Job("extract-hamiltonian", {"n": 2, **_cplx(h)}),
    }


def write_input(job: Job, path: Path) -> None:
    path.write_text(json.dumps(job.payload) + "\n", encoding="utf-8")
