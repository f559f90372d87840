"""End-to-end benchmark of the ``indivisible`` CLI.

    python3 bench/run.py --workload divisibility --seed 1 --seconds 24 --trace 0

Run from the repository root.  The command builds its inputs from ``--seed``,
imports ``indivisible.cli`` from ``src/`` and drives ``cli.main(argv)``
in-process as a closed loop with one caller: each job starts after the
previous one returned and was checked.  Every report and CSV is judged by
the independent numpy checker in ``check.py``.  Inputs and outputs live in a
scratch directory ``.bench_tmp-*`` in the checkout, removed on exit.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same job list once, each job once untraced and
once with the wrappers of ``spans.py`` installed, and prints the per-layer
metrics; the spans go to ``.bench_trace/<workload>-<seed>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
hold the environment block, every metric with its unit, and the digests.
"""

from __future__ import annotations

import os

# One BLAS thread: with ``--jobs 2`` the process then runs at most two
# threads of work, which is what a 2-core machine holds.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_PASSES = 5         # passes over the timed job list, at the least
SETUP_SAMPLES = 4      # fresh processes that repeat the set-up, besides this one
CAL_REF_S = 1e-3       # the calibration time that scaled times refer to
CAL_EVERY_S = 0.02     # job time between two calibration samples
CAL_WINDOW_S = 0.25    # calibration samples this close to a job scale it
CAL_SETUP_SAMPLES = 31 # calibration samples right after a set-up
WORKLOAD_COMMANDS = {
    "divisibility": ("divisibility",),
    "evolution": ("sh-sim",),
    "trajectory": ("sh-sim", "embed"),
    "correspondence": ("unistochastic", "dilate", "correspond", "extract-hamiltonian"),
}


class JobTimeout(BaseException):
    """Raised into a job that overran its time limit (not an Exception: the
    CLI must not catch it)."""


# ---------------------------------------------------------------------------
# Job time limit
# ---------------------------------------------------------------------------

class Watchdog:
    """SIGALRM-based limit on one ``cli.main`` call.

    The main thread gets ``JobTimeout`` once; worker threads of the CLI's
    thread pool that are still inside package code get it asynchronously,
    every 0.2 s until the call has unwound, so no work outlives its job.
    """

    def __init__(self, limit: float):
        self.limit = limit
        self.active = False
        self.fired = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if not self.active:
            return
        main = threading.main_thread().ident
        for tid, top in sys._current_frames().items():
            if tid != main and _in_package(top):
                _set_async_exc(tid, JobTimeout)
        if not self.fired:
            self.fired = True
            raise JobTimeout

    def __enter__(self):
        self.fired = False
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.limit, 0.2)
        return self

    def __exit__(self, *exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return False


_set_async_exc = ctypes.pythonapi.PyThreadState_SetAsyncExc
_set_async_exc.argtypes = (ctypes.c_ulong, ctypes.py_object)
_set_async_exc.restype = ctypes.c_int


def _in_package(frame) -> bool:
    while frame is not None:
        if frame.f_code.co_filename.startswith(str(SRC)):
            return True
        frame = frame.f_back
    return False


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

_cal_matrix = None


def calibrate() -> float:
    """Time one run of a fixed loop, in seconds (about 1 ms here).

    The loop mixes two kinds of work the CLI's hot paths do, small numpy
    calls and float formatting with JSON, about half each.  It is part of
    the benchmark, so no change to the program moves it; its time tracks
    the speed the shared machine runs at right now.
    """
    global _cal_matrix
    import numpy as np
    if _cal_matrix is None:
        a = np.random.default_rng(0).random((16, 16))
        _cal_matrix = a / a.sum(axis=0)
    a = _cal_matrix
    v = np.ones(16) / 16.0
    t0 = time.perf_counter()
    for _ in range(120):
        v = a @ v
        v /= v.sum()
    rows = [",".join(repr(x * 0.1) for x in (i, 2 * i, 3 * i)) for i in range(150)]
    json.loads(json.dumps({"rows": rows, "matrix": [[i * 0.5] * 20 for i in range(20)]}))
    return time.perf_counter() - t0


def speed_factor(samples: list) -> float:
    """Scale that turns a time measured next to ``samples`` into a time on
    a machine where the calibration loop takes ``CAL_REF_S``.

    The mean, not the median: the loop's time flips between two levels
    about a factor of two apart, often within a second, and a job that runs
    across many flips pays their mean.
    """
    return CAL_REF_S / statistics.fmean(samples)


def scaled_set_up_time(setup_s: float) -> float:
    return setup_s * speed_factor([calibrate() for _ in range(CAL_SETUP_SAMPLES)])


def job_times(passes: list, cal: list) -> tuple:
    """Each job's mean time over the passes, scaled and as measured.

    A job's wall time in one pass is scaled by the calibration samples
    taken within ``CAL_WINDOW_S`` of it (the nearest ones if none is).
    Jobs stopped at the limit are left out.
    """
    starts = [t for t, _ in cal]
    scaled, raw = [], []
    for rs in zip(*passes):
        done = [r for r in rs if not r.timed_out]
        if not done:
            continue
        xs = []
        for r in done:
            lo = bisect.bisect_left(starts, r.start - CAL_WINDOW_S)
            hi = bisect.bisect_right(starts, r.start + r.wall + CAL_WINDOW_S)
            if lo == hi:
                lo, hi = max(lo - 1, 0), hi + 1
            xs.append(r.wall * speed_factor([c for _, c in cal[lo:hi]]))
        scaled.append(statistics.fmean(xs))
        raw.append(statistics.fmean(r.wall for r in done))
    return scaled, raw


# ---------------------------------------------------------------------------
# Running and checking one job
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Record:
    index: int
    command: str
    start: float
    wall: float
    code: int | None
    failed: str | None
    timed_out: bool
    verdicts: int
    undecided: int
    checked: bool
    digest: str
    bytes_written: int
    csv_rows: int


def run_job(cli, check, job, index: int, work: Path, watchdog: Watchdog,
            on_start=None, on_end=None, reference: Record | None = None) -> Record:
    """Run one job, hash its outputs and judge them.

    A replay that reproduces ``reference`` (same exit code, same digest)
    takes over its verdict instead of running the checker again.
    """
    in_path = work / f"in-{index}.json"
    out_path = work / f"out-{index}.json"
    csv_path = out_path.with_suffix(".csv")
    argv = job.argv(in_path, out_path)
    sink = io.StringIO()
    code = None
    error = None
    timed_out = False
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            with watchdog:
                if on_start is not None:
                    on_start(index)
                try:
                    code = cli.main(argv)
                finally:
                    if on_end is not None:
                        on_end()
        except JobTimeout:
            timed_out = True
            error = f"over the {watchdog.limit:g} s job limit"
        except Exception as exc:  # a crash of the program under test
            error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    _join_stray_threads()

    report = out_path.read_bytes() if out_path.exists() else None
    csv = csv_path.read_bytes() if job.csv and csv_path.exists() else None
    digest = hashlib.sha256((report or b"") + b"\0" + (csv or b"")).hexdigest()
    size = len(report or b"") + len(csv or b"")
    rows = max(0, csv.count(b"\n") - 1) if csv else 0
    if (reference is not None and error is None and code == reference.code
            and digest == reference.digest):
        record = dataclasses.replace(reference, start=t0, wall=wall)
    else:
        outcome = check.check_job(job, code, report, csv)
        failed = error or outcome.failed
        record = Record(index, job.command, t0, wall, code, failed, timed_out,
                        outcome.verdicts, outcome.undecided,
                        outcome.checked and failed is None, digest, size, rows)
    for path in (out_path, csv_path):
        if path.exists():
            path.unlink()
    return record


def _join_stray_threads() -> None:
    for t in threading.enumerate():
        if t is not threading.main_thread():
            t.join(timeout=60.0)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_cli():
    """Import ``indivisible.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "indivisible" / "cli.py").is_file():
        raise SystemExit(f"bench: no src/indivisible/cli.py under {ROOT}")
    sys.path.insert(0, str(SRC))
    import indivisible
    import indivisible.cli as cli
    if Path(indivisible.__file__).resolve().parent != SRC / "indivisible":
        raise SystemExit(f"bench: imported indivisible from {indivisible.__file__}")
    return indivisible, cli


def set_up(workload: str, seed: int, work: Path):
    """Import, generate and write inputs, warm up; the clock starts before
    numpy is imported."""
    t0 = time.perf_counter()
    package, cli = import_cli()
    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(BENCH_DIR))
    import check
    import workloads

    rounds = workloads.build_rounds(workload, seed, workloads.PASS_ROUNDS[workload])
    jobs = [job for rnd in rounds for job in rnd]
    for i, job in enumerate(jobs):
        workloads.write_input(job, work / f"in-{i}.json")
    warm = workloads.smallest_inputs()
    watchdog = Watchdog(workloads.JOB_LIMIT_S[workload])
    for k, command in enumerate(WORKLOAD_COMMANDS[workload]):
        index = -1 - k
        workloads.write_input(warm[command], work / f"in-{index}.json")
        run_job(cli, check, warm[command], index, work, watchdog)
    setup_s = time.perf_counter() - t0
    return package, cli, check, workloads, jobs, watchdog, import_s, setup_s


def child_setup_time(workload: str, seed: int) -> tuple:
    """The set-up of a fresh process, timed by that process: (as measured,
    scaled)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if out.returncode != 0:
        raise SystemExit(f"bench: set-up child failed: {out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return res["setup_s"], res["scaled_setup_s"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values: list, q: int) -> float:
    """q-th percentile, exclusive method (as statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def outcome_metrics(records: list) -> dict:
    verdicts = sum(r.verdicts for r in records)
    return {
        "failed_share": sum(r.failed is not None for r in records) / len(records),
        "undecided_share": (sum(r.undecided for r in records) / verdicts
                            if verdicts else 0.0),
    }


def environment(workload: str, seed: int, jobs_per_run: int, load_start,
                limit: float) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "loadavg_start": load_start,
            "loadavg_end": list(os.getloadavg()), "workload": workload,
            "seed": seed, "jobs_per_run": jobs_per_run,
            "job_limit_s": limit}


def failure_summary(records: list, jobs: list) -> list:
    """One line per failed job: its index in the job list, argv flags, reason."""
    return [f"job {r.index} {r.command} "
            f"{' '.join(jobs[r.index].flags)}: {r.failed[:200]}"
            for r in records if r.failed is not None]


def run_digest(records: list) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r.digest.encode())
    return h.hexdigest()


def digests_differ(a: Record, b: Record) -> bool:
    """A job stopped at the limit stops at a random point, so it is skipped."""
    return not (a.timed_out or b.timed_out) and a.digest != b.digest


def timed_loop(cli, check, jobs: list, seconds: float, work: Path,
               watchdog: Watchdog, set_up_again) -> tuple:
    """Closed loop: passes over one job list until ``seconds`` of job time.

    Pass 1 runs and checks every job; each later pass replays the same jobs
    and must reproduce the first pass's digests.  There are at least
    ``MIN_PASSES``.  ``set_up_again()`` is called ``SETUP_SAMPLES`` times,
    at passes spread evenly over the job time.  Between jobs, after every
    ``CAL_EVERY_S`` of job time, the calibration loop is timed.  Returns the
    passes' records, the calibration samples (start, seconds) and the
    digest mismatches.
    """
    passes, cal = [], []
    busy = since = 0.0
    samples = 0
    while True:
        while samples < SETUP_SAMPLES and busy >= samples * seconds / (SETUP_SAMPLES - 1):
            set_up_again()
            samples += 1
        if len(passes) >= MIN_PASSES and busy >= seconds:
            break
        first = passes[0] if passes else [None] * len(jobs)
        records = []
        for i, (job, ref) in enumerate(zip(jobs, first)):
            if not cal or since >= CAL_EVERY_S:
                cal.append((time.perf_counter(), calibrate()))
                since = 0.0
            records.append(run_job(cli, check, job, i, work, watchdog, reference=ref))
            since += records[-1].wall
        passes.append(records)
        busy += sum(r.wall for r in records)
    cal.append((time.perf_counter(), calibrate()))
    mismatches = sum(digests_differ(a, b) for other in passes[1:]
                     for a, b in zip(passes[0], other))
    return passes, cal, mismatches


def cold_starts(workloads, scratch: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    out = {}
    for command, job in workloads.smallest_inputs().items():
        inp = scratch / f"cold-{command}.json"
        workloads.write_input(job, inp)
        argv = [sys.executable, "-m", "indivisible.cli",
                *job.argv(inp, scratch / f"cold-{command}-out.json")]
        t0 = time.perf_counter()
        res = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT,
                             timeout=120)
        out[command] = (time.perf_counter() - t0) * 1e3
        if res.returncode not in (0, 2):
            raise SystemExit(f"bench: cold start of {command} exited {res.returncode}")
    return out


def layer_metrics(tracer, records: list, untraced_wall: float,
                  import_s: float, cold: dict) -> tuple:
    """Per-layer metrics from the traced pass; returns (metrics, max sum error)."""
    selfs = tracer.self_times()
    by_group: dict = {}
    roots = {}
    per_job: dict = {}
    for s, t in zip(tracer.spans, selfs):
        by_group[s.group] = by_group.get(s.group, 0.0) + t
        per_job[s.job] = per_job.get(s.job, 0.0) + t
        if s.parent is None:
            roots[s.job] = s.end - s.start
    sum_error = max((abs(per_job[j] - roots[j]) for j in roots), default=0.0)

    c = tracer.counts
    g = lambda name: by_group.get(name, 0.0)
    n = lambda name: float(c.get(name, 0))
    steps = n("oscillator.steps")
    checks = n("stochastic.check.calls")
    searches = n("correspondence.search.calls")
    traced_wall = sum(r.wall for r in records)
    m = {
        "failed_share": (outcome_metrics(records)["failed_share"], "ratio"),
        "undecided_share": (outcome_metrics(records)["undecided_share"], "ratio"),
        "cli.self_s": (g("cli.main"), "s"),
        "cli.import_s": (import_s, "s"),
        **{f"cli.cold_start_ms.{k}": (v, "ms") for k, v in cold.items()},
        "serialize.parse_s": (g("serialize.parse"), "s"),
        "serialize.write_s": (g("serialize.write"), "s"),
        "serialize.bytes_written": (float(sum(r.bytes_written for r in records)), "bytes"),
        "serialize.csv_rows": (float(sum(r.csv_rows for r in records)), "count"),
        "stochastic.self_s": (g("stochastic.check"), "s"),
        "stochastic.checks": (checks, "count"),
        "stochastic.divisible": (n("stochastic.divisible"), "count"),
        "stochastic.indivisible": (n("stochastic.indivisible"), "count"),
        "stochastic.indeterminate": (n("stochastic.indeterminate"), "count"),
        "stochastic.decided_ratio": (
            (n("stochastic.divisible") + n("stochastic.indivisible")) / checks
            if checks else 0.0, "ratio"),
        "lp.self_s": (g("lp.solve"), "s"),
        "lp.calls": (n("lp.solve.calls"), "count"),
        "lp.pivots": (n("lp.pivots"), "count"),
        "lp.pivots_max": (n("lp.pivots_max"), "count"),
        "lp.cell_updates": (n("lp.cell_updates"), "count"),
        "lp.iteration_limit": (n("lp.iteration_limit"), "count"),
        "lp.interrupted": (n("lp.solve.interrupted"), "count"),
        "lp.raised": (n("lp.solve.raised"), "count"),
        "oscillator.integrate_s": (g("oscillator.integrate"), "s"),
        "oscillator.ns_per_step": (g("oscillator.integrate") / steps * 1e9
                                   if steps else 0.0, "ns"),
        "oscillator.steps": (steps, "count"),
        "oscillator.samples": (n("oscillator.samples"), "count"),
        "oscillator.post_s": (g("oscillator.post"), "s"),
        "oscillator.post_calls": (n("oscillator.post.calls"), "count"),
        "oscillator.prep_s": (g("oscillator.prep"), "s"),
        "correspondence.search_s": (g("correspondence.search"), "s"),
        "correspondence.searches": (searches, "count"),
        "correspondence.found": (n("correspondence.found"), "count"),
        "correspondence.not_found": (n("correspondence.not_found"), "count"),
        "correspondence.not_unistochastic": (n("correspondence.not_unistochastic"),
                                             "count"),
        "correspondence.found_ratio": (n("correspondence.found") / searches
                                       if searches else 0.0, "ratio"),
        "correspondence.dilate_s": (g("correspondence.dilate"), "s"),
        "correspondence.other_s": (g("correspondence.other"), "s"),
        "embed.integrate_s": (g("embed.integrate"), "s"),
        "embed.steps": (n("embed.steps"), "count"),
        "embed.reversal_s": (g("embed.reversal"), "s"),
        "trace.overhead_share": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    return m, sum_error


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("divisibility", "evolution", "trajectory", "correspondence"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only time the set-up (used for the set-up samples)")
    args = p.parse_args(argv)

    load_start = list(os.getloadavg())
    work = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        return _run(args, work, load_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, load_start) -> int:
    package, cli, check, wl, jobs, watchdog, import_s, setup_s = set_up(
        args.workload, args.seed, work)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "scaled_setup_s": scaled_set_up_time(setup_s)}))
        return 0
    if args.trace:
        return _trace_run(args, package, cli, check, wl, jobs, work,
                          watchdog, import_s, load_start)

    # Fresh processes repeat the set-up between passes, spread over the run.
    setups = [(setup_s, scaled_set_up_time(setup_s))]
    passes, cal, mismatches = timed_loop(
        cli, check, jobs, args.seconds, work, watchdog,
        set_up_again=lambda: setups.append(child_setup_time(args.workload, args.seed)))
    records = [r for p in passes for r in p]
    # The shared machine runs at speeds that drift by half for spells longer
    # than a run, so every time is scaled to the speed at which the
    # calibration loop takes CAL_REF_S (see README).  A job stopped at the
    # limit ran for the benchmark's limit, not for a time of the program's;
    # it counts in ``failed`` and is left out of the timings.
    walls, raw = job_times(passes, cal)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = outcome_metrics(records)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "job_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "job_p90_ms": (percentile(walls, 90) * 1e3, "ms"),
        "failed_share": (outcomes["failed_share"], "ratio"),
        "undecided_share": (outcomes["undecided_share"], "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    wrong = [r for r in records if r.failed and not r.timed_out]
    info = {
        "environment": environment(args.workload, args.seed, len(passes[0]),
                                   load_start, watchdog.limit),
        "passes": len(passes),
        "timed_jobs": len(walls),
        "pass_job_s": [sum(r.wall for r in p) for p in passes],
        "calibration_ms": [statistics.median(c for _, c in cal) * 1e3,
                           min(c for _, c in cal) * 1e3, max(c for _, c in cal) * 1e3],
        "unscaled": {"setup_s": statistics.median(s for s, _ in setups),
                     "jobs_per_s": len(raw) / sum(raw),
                     "job_p50_ms": statistics.median(raw) * 1e3,
                     "job_p90_ms": percentile(raw, 90) * 1e3},
        "setup_samples_s": [s for _, s in setups],
        "p90_samples_beyond": sum(w > percentile(walls, 90) for w in walls),
        "checked_jobs": sum(r.checked for r in records),
        "unchecked_jobs": sum(not r.checked for r in records),
        "failures": failure_summary(records, jobs),
        "pass_digest_mismatches": mismatches,
        "pass_digest": run_digest(passes[0]),
    }
    _print_result(metrics, info, correct=not wrong and mismatches == 0,
                  attempted=len(records),
                  failed=sum(r.failed is not None for r in records),
                  only=("setup_s", "jobs_per_s", "job_p50_ms", "job_p90_ms",
                        "peak_rss_mb"))
    return 0


def _trace_run(args, package, cli, check, wl, jobs, work, watchdog, import_s,
               load_start) -> int:
    from spans import Tracer

    # Each job runs untraced and then traced, back to back, so the overhead
    # compares the two under the same machine load.
    tracer = Tracer(JobTimeout)
    plain, traced = [], []
    for i, job in enumerate(jobs):
        plain.append(run_job(cli, check, job, i, work, watchdog))
        tracer.install(package)
        try:
            traced.append(run_job(cli, check, job, i, work, watchdog,
                                  on_start=tracer.begin_job, on_end=tracer.end_job))
        finally:
            tracer.uninstall()
    cold = cold_starts(wl, work)
    metrics, sum_error = layer_metrics(tracer, traced, sum(r.wall for r in plain),
                                       import_s, cold)
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"{args.workload}-{args.seed}.jsonl"
    tracer.write_jsonl(trace_path)

    mismatches = sum(map(digests_differ, plain, traced))
    wrong = [r for r in traced if r.failed and not r.timed_out]
    info = {
        "environment": environment(args.workload, args.seed, len(jobs), load_start,
                                   watchdog.limit),
        "checked_jobs": sum(r.checked for r in traced),
        "unchecked_jobs": sum(not r.checked for r in traced),
        "failures": failure_summary(traced, jobs),
        "traced_vs_untraced_digest_mismatches": mismatches,
        "self_time_sum_error_max_s": sum_error,
        "pass_digest": run_digest(plain),
        "spans_file": str(trace_path.relative_to(ROOT)),
    }
    _print_result(metrics, info,
                  correct=not wrong and mismatches == 0 and sum_error < 1e-6,
                  attempted=len(traced),
                  failed=sum(r.failed is not None for r in traced), only=None)
    return 0


def _print_result(metrics: dict, info: dict, *, correct: bool, attempted: int,
                  failed: int, only) -> None:
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    shown = {name: {"value": value, "unit": unit}
             for name, (value, unit) in metrics.items()
             if only is None or name in only}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": shown}))


if __name__ == "__main__":
    sys.exit(main())
