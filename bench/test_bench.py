"""Self-test of the benchmark: planted faults must fail the checker, and every
workload must run end to end at tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()[1]


def _run(cli, job, tmp_path):
    """Run one job and return (exit code, report bytes, csv bytes)."""
    workloads.write_input(job, tmp_path / "in-0.json")
    out = tmp_path / "out-0.json"
    code = cli.main(job.argv(tmp_path / "in-0.json", out))
    csv = out.with_suffix(".csv")
    return code, out.read_bytes(), csv.read_bytes() if csv.exists() else None


def _chain_job(pair=None):
    rng = np.random.default_rng(3)
    mats = workloads.markov_chain(4, 3, rng)
    return workloads._divisibility_job("chain", mats, pair=pair)


def _edit(report: bytes, change) -> bytes:
    doc = json.loads(report)
    change(doc)
    return json.dumps(doc).encode()


def test_honest_outputs_pass(cli, tmp_path):
    for job in workloads.smallest_inputs().values():
        code, report, csv = _run(cli, job, tmp_path)
        outcome = check.check_job(job, code, report, csv)
        assert outcome.failed is None, (job.command, outcome.failed)


def test_flipped_verdict_fails(cli, tmp_path):
    job = _chain_job(pair=(2, 1))
    code, report, _ = _run(cli, job, tmp_path)
    assert check.check_job(job, code, report, None).failed is None

    def flip(doc):
        doc["status"] = "indivisible"
        doc["witness"] = None
    outcome = check.check_job(job, code, _edit(report, flip), None)
    assert "divisible by construction" in outcome.failed


def test_perturbed_witness_fails(cli, tmp_path):
    job = _chain_job()
    code, report, _ = _run(cli, job, tmp_path)

    def nudge(doc):
        doc["pairs"][0]["witness"][0][0] += 1e-6
    assert check.check_job(job, code, _edit(report, nudge), None).failed


def test_non_unitary_dilation_fails(cli, tmp_path):
    job = workloads.smallest_inputs()["dilate"]
    code, report, _ = _run(cli, job, tmp_path)

    def break_unitarity(doc):
        doc["unitary"]["re"][1][1] += 1e-6
    assert "not unitary" in check.check_job(
        job, code, _edit(report, break_unitarity), None).failed


def test_truncated_csv_fails(cli, tmp_path):
    for command in ("sh-sim", "embed"):
        job = workloads.smallest_inputs()[command]
        code, report, csv = _run(cli, job, tmp_path)
        truncated = b"\n".join(csv.splitlines()[:-1]) + b"\n"
        assert check.check_job(job, code, report, truncated).failed, command


def test_wrong_exit_code_and_missing_report_fail(cli, tmp_path):
    job = _chain_job(pair=(2, 1))
    code, report, _ = _run(cli, job, tmp_path)
    assert check.check_job(job, 2, report, None).failed
    assert check.check_job(job, 1, report, None).failed == "exit 1"
    assert check.check_job(job, code, None, None).failed
    assert check.check_job(job, None, report, None).failed == "raised"


@pytest.mark.parametrize("jobs", [1, 2])
def test_job_limit_stops_a_long_job(cli, tmp_path, jobs):
    import threading
    import time

    rng = np.random.default_rng(0)
    job = workloads._divisibility_job("chain", workloads.markov_chain(8, 8, rng),
                                      jobs=jobs)
    workloads.write_input(job, tmp_path / "in-0.json")
    t0 = time.perf_counter()
    rec = run.run_job(cli, check, job, 0, tmp_path, run.Watchdog(0.05))
    assert "job limit" in rec.failed
    assert time.perf_counter() - t0 < 5.0
    assert threading.active_count() == 1


def test_job_times_follow_the_calibration_loop():
    """A pass at half speed, with the calibration loop slowed alike, gives
    the same scaled times; the unscaled times are the plain means."""
    def record(index, start, wall):
        return run.Record(index, "x", start, wall, 0, None, False, 0, 0, True,
                          "", 0, 0)
    fast = [record(0, 0.0, 0.010), record(1, 0.1, 0.020)]
    slow = [record(0, 10.0, 0.020), record(1, 10.1, 0.040)]
    cal = [(0.0, 1e-3), (0.05, 1e-3), (10.0, 2e-3), (10.05, 2e-3)]
    scaled, raw = run.job_times([fast, slow], cal)
    assert scaled == pytest.approx([0.010, 0.020])
    assert raw == pytest.approx([0.015, 0.030])


@pytest.fixture
def tiny(monkeypatch):
    """One round per workload, two passes, no full-size set-up children."""
    for name in workloads.WORKLOADS:
        monkeypatch.setitem(workloads.PASS_ROUNDS, name, 1)
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(run, "child_setup_time", lambda workload, seed: (0.5, 0.5))


def _bench(capsys, *args):
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    info = {line.split(":", 1)[0][2:]: json.loads(line.split(":", 1)[1])
            for line in lines if line.startswith("# ")}
    return json.loads(lines[-1]), info


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_at_tiny_size(workload, tiny, capsys):
    args = ["--workload", workload, "--seed", "5", "--seconds", "0.01"]
    result, info = _bench(capsys, *args, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert info["pass_digest_mismatches"] == 0
    assert info["passes"] >= 2
    assert len(info["setup_samples_s"]) == run.SETUP_SAMPLES + 1

    again, info2 = _bench(capsys, *args, "--trace", "0")
    assert info2["pass_digest"] == info["pass_digest"]

    traced, tinfo = _bench(capsys, *args, "--trace", "1")
    assert traced["correct"] is True
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert tinfo["pass_digest"] == info["pass_digest"]
    assert tinfo["traced_vs_untraced_digest_mismatches"] == 0
    assert tinfo["self_time_sum_error_max_s"] < 1e-6


def test_setup_only_prints_the_setup_time(tiny, capsys):
    assert run.main(["--workload", "evolution", "--seed", "5", "--setup-only"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["setup_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """A copy of the benchmark alone must exit non-zero and print no result."""
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "divisibility", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True,
                         cwd=tmp_path, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
