import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from indivisible import cli
from indivisible import correspondence as corr
from indivisible import lp
from indivisible import oscillator as osc
from indivisible import serialize as ser
from indivisible import stochastic as stoch
from indivisible.serialize import canonical_dumps
from oracles import divisibility_constraints


def write(path, obj):
    path.write_text(canonical_dumps(obj) + "\n")
    return str(path)


@pytest.fixture
def qubit_file(tmp_path):
    t1, t2 = math.pi / 4.0, math.pi / 2.0
    c, s = math.cos(t1) ** 2, math.sin(t1) ** 2
    return write(tmp_path / "qubit.json", {
        "n": 2,
        "targets": [0.0, t1, t2],
        "conditioning": [0.0],
        "transitions": [
            {"t": t1, "t0": 0.0, "matrix": [[c, s], [s, c]]},
            {"t": t2, "t0": 0.0, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        ],
        "initial": [1.0, 0.0],
    })


def run(args):
    return cli.main([str(a) for a in args])


def test_embed_writes_report_and_csv(tmp_path):
    inp = write(tmp_path / "law.json", {"law": "harmonic", "x0": 1.0, "v0": 0.0})
    out = tmp_path / "report.json"
    code = run(["embed", "--input", inp, "--output", out,
                "--dt", "1e-3", "--T", str(2.0 * math.pi)])
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["final"]["x"] - 1.0) <= 1e-6
    assert report["time_reversal"]["invariant"] is True
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "t,x,y"
    assert len(csv_lines) == report["samples"] + 1


def test_embed_writes_the_csv_at_the_path_given(tmp_path):
    inp = write(tmp_path / "law.json", {"law": "free"})
    out, csv = tmp_path / "report.json", tmp_path / "elsewhere" / "traj.csv"
    csv.parent.mkdir()
    assert run(["embed", "--input", inp, "--output", out, "--T", "0.01",
                "--csv", csv]) == 0
    assert not out.with_suffix(".csv").exists()
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == json.loads(out.read_text())["samples"] + 1


def test_embed_unknown_law_exits_1(tmp_path, capsys):
    inp = write(tmp_path / "law.json", {"law": "pendulum"})
    code = run(["embed", "--input", inp, "--output", tmp_path / "r.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "law"


def test_sh_sim_meets_tolerance(tmp_path):
    inp = write(tmp_path / "sx.json", {
        "n": 2, "re": [[0.0, 1.0], [1.0, 0.0]],
        "im": [[0.0, 0.0], [0.0, 0.0]]})
    out = tmp_path / "sh.json"
    code = run(["sh-sim", "--input", inp, "--output", out,
                "--dt", "1e-4", "--T", "10", "--stride", "1000"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["max_deviation_from_exact"] <= 1e-6
    header = (tmp_path / "sh.csv").read_text().splitlines()[0]
    assert header == "t,q_1,q_2,p_1,p_2"


def test_sh_sim_report_matches_per_sample_recomputation(tmp_path):
    """Dense recording: the report's energy drift and deviation from exact
    evolution equal a sample-by-sample recomputation from the CSV."""
    n = 8
    rng = np.random.default_rng(21)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (z + z.conj().T) / 2.0
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    payload = {"n": n, "re": h.real.tolist(), "im": h.imag.tolist(),
               "psi0": {"re": psi.real.tolist(), "im": psi.imag.tolist()}}
    inp = write(tmp_path / "h8.json", payload)
    out = tmp_path / "sh.json"
    code = run(["sh-sim", "--input", inp, "--output", out,
                "--dt", "0.01", "--T", "3", "--stride", "1"])
    assert code == 0
    report = json.loads(out.read_text())
    rows = np.loadtxt(tmp_path / "sh.csv", delimiter=",", skiprows=1)
    assert report["samples"] == len(rows) == 301

    hm = ser.parse_hermitian(payload)
    system = osc.sh_decompose(hm)
    psi0 = osc.StateVector(psi)
    energies, deviation = [], 0.0
    for t, q, p in zip(rows[:, 0], rows[:, 1:n + 1], rows[:, n + 1:]):
        state = osc.PhaseSpaceState(q, p)
        energies.append(osc.sh_energy(system, state))
        deviation = max(deviation, float(np.linalg.norm(
            osc.sh_recombine(state).psi - osc.exact_evolve(hm, psi0, t).psi)))
    drift = max(abs(e - energies[0]) for e in energies)
    assert report["energy"]["initial"] == pytest.approx(energies[0],
                                                        rel=0.0, abs=1e-13)
    assert report["energy"]["max_drift"] == pytest.approx(drift,
                                                          rel=0.0, abs=1e-13)
    assert report["max_deviation_from_exact"] == pytest.approx(
        deviation, rel=0.0, abs=1e-13)


def test_divisibility_qubit_defaults_to_latest_pair(tmp_path, qubit_file):
    out = tmp_path / "div.json"
    code = run(["divisibility", "--input", qubit_file, "--output", out])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "indivisible"
    assert report["t"] == pytest.approx(math.pi / 2.0)
    assert report["tp"] == pytest.approx(math.pi / 4.0)
    assert "certificate" in report


def test_divisibility_all_pairs(tmp_path, qubit_file):
    out = tmp_path / "div.json"
    code = run(["divisibility", "--input", qubit_file, "--output", out,
                "--all-pairs", "--jobs", "2"])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["pairs"]) == 1
    assert report["pairs"][0]["status"] == "indivisible"


def test_divisibility_refuses_fewer_than_one_job(tmp_path, qubit_file, capsys):
    out = tmp_path / "div.json"
    cfg = write(tmp_path / "jobs.json", {"jobs": 0})
    for extra in (["--jobs", "0"], ["--jobs", "-2"], ["--config", cfg]):
        assert run(["divisibility", "--input", qubit_file, "--output", out,
                    "--all-pairs", *extra]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["field"] == "--jobs"
        assert not out.exists()


def _process_file(path, mats):
    """A process with mats[k] stamped (k + 1 <- 0)."""
    n = len(mats[0])
    return write(path, {
        "n": n, "targets": [float(k) for k in range(len(mats) + 1)],
        "conditioning": [0.0],
        "transitions": [{"t": float(k + 1), "t0": 0.0, "matrix": np.asarray(m).tolist()}
                        for k, m in enumerate(mats)],
        "initial": [1.0] + [0.0] * (n - 1)})


def _chain(n, steps, rng):
    acc, mats = np.eye(n), []
    for _ in range(steps):
        acc = rng.dirichlet(np.ones(n), size=n).T @ acc
        mats.append(acc)
    return mats


def _all_pairs_bytes(tmp_path, inp, jobs):
    out = tmp_path / f"all-{jobs}.json"
    assert run(["divisibility", "--input", inp, "--output", out,
                "--all-pairs", "--jobs", jobs]) == 0
    return out.read_bytes()


# Exactly singular: equal power-of-two columns leave an exact zero pivot, so
# the direct route cannot use it as Gamma(t').
SINGULAR_4 = np.tile([[0.5], [0.25], [0.125], [0.125]], (1, 4))


def test_all_pairs_equals_each_single_pair_under_any_jobs(tmp_path):
    rng = np.random.default_rng(31)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    unitary = [np.abs(v @ (np.exp(-0.5j * w * (k + 1))[:, None] * v.conj().T)) ** 2
               for k in range(4)]
    g1 = rng.dirichlet(np.ones(4), size=4).T
    mixed = [g1, SINGULAR_4, rng.dirichlet(np.ones(4), size=4).T @ SINGULAR_4]
    seen = set()
    for name, mats in (("chain", _chain(5, 5, rng)), ("unitary", unitary),
                       ("singular", mixed)):
        inp = _process_file(tmp_path / f"{name}.json", mats)
        report = _all_pairs_bytes(tmp_path, inp, 1)
        assert _all_pairs_bytes(tmp_path, inp, 2) == report
        for entry in json.loads(report)["pairs"]:
            out = tmp_path / "single.json"
            assert run(["divisibility", "--input", inp, "--output", out,
                        "--t", repr(entry["t"]), "--tp", repr(entry["tp"])]) == 0
            single = json.loads(out.read_text())
            assert entry == {key: single[key] for key in entry}
            assert set(single) - set(entry) == {"t0", "tolerances", "command",
                                                "seed", "schema"}
            seen.add(entry["status"])
    assert seen == {"divisible", "indivisible"}


def test_all_pairs_settled_directly_build_no_pool(tmp_path, monkeypatch):
    import threading

    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    rng = np.random.default_rng(32)
    inp = _process_file(tmp_path / "chain.json", _chain(6, 6, rng))
    assert _all_pairs_bytes(tmp_path, inp, 2)
    # A pair the LP must decide is decided in the calling thread as well.
    g1 = rng.dirichlet(np.ones(4), size=4).T
    inp = _process_file(tmp_path / "singular.json", [SINGULAR_4, g1 @ SINGULAR_4])
    assert _all_pairs_bytes(tmp_path, inp, 2) == _all_pairs_bytes(tmp_path, inp, 1)


def test_all_pairs_settled_directly_do_not_import_the_pool(tmp_path):
    inp = _process_file(tmp_path / "chain.json",
                        _chain(4, 4, np.random.default_rng(33)))
    script = ("import sys\nfrom indivisible import cli\n"
              f"code = cli.main(['divisibility', '--input', {inp!r}, '--output', "
              f"{str(tmp_path / 'out.json')!r}, '--all-pairs'])\n"
              "print(code, 'concurrent.futures' in sys.modules)\n")
    env = dict(os.environ)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def _singular_process(tmp_path):
    """Gamma(1), an exactly singular Gamma(2) and Gamma(3) = step Gamma(2):
    of the pairs (2, 1), (3, 1) and (3, 2), only the last stands on the
    singular matrix.  Returns the file and the three matrices."""
    rng = np.random.default_rng(34)
    g1 = rng.dirichlet(np.ones(4), size=4).T
    step = rng.dirichlet(np.ones(4), size=4).T
    mats = [g1, SINGULAR_4, step @ SINGULAR_4]
    return _process_file(tmp_path / "proc.json", mats), mats


def count_lp_calls(monkeypatch) -> list:
    """Records the (a_ub, b_ub) of every LP the program solves."""
    calls = []
    solve = stoch.find_nonnegative_solution

    def counted(a_ub, b_ub):
        calls.append((a_ub, b_ub))
        return solve(a_ub, b_ub)

    monkeypatch.setattr(stoch, "find_nonnegative_solution", counted)
    return calls


def test_singular_pair_reaches_the_lp_in_the_calling_thread(tmp_path, monkeypatch):
    inp, (_, singular, g3) = _singular_process(tmp_path)
    calls = count_lp_calls(monkeypatch)
    # the constraints of the pair (3, 2)
    want = [x.tobytes() for x in
            divisibility_constraints(g3, singular, stoch.LP_RELAXATION)]
    report = _all_pairs_bytes(tmp_path, inp, 1)
    assert [[a.tobytes(), b.tobytes()] for a, b in calls] == [want]
    assert _all_pairs_bytes(tmp_path, inp, 2) == report
    assert [[a.tobytes(), b.tobytes()] for a, b in calls] == [want] * 2
    pairs = {(p["t"], p["tp"]): p for p in json.loads(report)["pairs"]}
    assert pairs[3.0, 2.0]["status"] == "divisible"  # M = step, found by the LP
    assert pairs[3.0, 2.0]["residual"] <= stoch.WITNESS_RESIDUAL_TOL


def test_all_pairs_solves_each_pair_once(tmp_path, monkeypatch):
    """One stacked solve of the three pairs meets the singular Gamma(2), one
    more solves the two others, and the pair (3, 2) goes to the LP without
    being solved again."""
    inp, _ = _singular_process(tmp_path)
    sizes = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        sizes.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    calls = count_lp_calls(monkeypatch)
    _all_pairs_bytes(tmp_path, inp, 1)
    assert sizes == [3, 2]
    assert len(calls) == 1


def test_divisibility_explicit_pair_divisible(tmp_path):
    g1 = [[0.7, 0.2], [0.3, 0.8]]
    m = np.array([[0.9, 0.4], [0.1, 0.6]])
    g2 = (m @ np.array(g1)).tolist()
    inp = write(tmp_path / "proc.json", {
        "n": 2, "targets": [0.0, 1.0, 2.0], "conditioning": [0.0],
        "transitions": [
            {"t": 1.0, "t0": 0.0, "matrix": g1},
            {"t": 2.0, "t0": 0.0, "matrix": g2},
        ],
        "initial": [1.0, 0.0]})
    out = tmp_path / "div.json"
    code = run(["divisibility", "--input", inp, "--output", out,
                "--t", "2.0", "--tp", "1.0"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "divisible"
    assert report["residual"] <= 1e-9
    witness = np.array(report["witness"])
    np.testing.assert_allclose(witness.sum(axis=0), 1.0, atol=1e-12)


def test_divisibility_indeterminate_exits_2(tmp_path, qubit_file, monkeypatch):
    def always_indeterminate(gamma_t, gamma_tp, **kwargs):
        return stoch.DivisibilityVerdict("indeterminate",
                                         certificate="forced for the test")
    monkeypatch.setattr(stoch, "divisibility_check", always_indeterminate)
    code = run(["divisibility", "--input", qubit_file,
                "--output", tmp_path / "div.json"])
    assert code == 2


def test_divisibility_broken_lp_point_exits_2(tmp_path, monkeypatch):
    """A "feasible" LP point with a zero column gives an indeterminate
    report and exit 2, not a refused witness (exit 1) or a warning."""
    inp, _ = _singular_process(tmp_path)
    point = np.full((4, 4), 0.25)
    point[:, 2] = 0.0
    broken = lp.FeasibilityResult("feasible", point.ravel(), 0.0, 3)
    monkeypatch.setattr(stoch, "find_nonnegative_solution",
                        lambda a_ub, b_ub: broken)
    out = tmp_path / "div.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["divisibility", "--input", inp, "--output", out,
                    "--t", "3.0", "--tp", "2.0"])
    assert code == 2
    report = json.loads(out.read_text())
    assert (report["status"], report["witness"], report["residual"]) == (
        "indeterminate", None, 0.0)
    assert report["certificate"] == (
        "feasible LP point has column 2 summing to 0.000e+00, which cannot be "
        "renormalized; no verdict")


def test_correspond_names_the_column_sum_gate(tmp_path, capsys):
    """A Haar U scaled by 1 + 2e-11 passes UNITARITY_TOL but not SUM_TOL."""
    q, r = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 6)).view(complex))
    u = q * (np.diag(r) / np.abs(np.diag(r))) * (1 + 2e-11)
    assert 1e-12 < corr.UnitaryMatrix(u).deviation <= corr.UNITARITY_TOL
    inp = write(tmp_path / "u.json", {"re": u.real, "im": u.imag})
    out = tmp_path / "corr.json"
    assert run(["correspond", "--input", inp, "--output", out]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["field"] == "<validation>"
    assert err["message"].startswith("|U|^2 has a column-sum deviation of 4.0")
    assert "above SUM_TOL 1e-12" in err["message"]
    assert "passed the unitarity gate" in err["message"]
    assert not out.exists()


def test_correspond_identity(tmp_path):
    inp = write(tmp_path / "u.json", {
        "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    out = tmp_path / "corr.json"
    assert run(["correspond", "--input", inp, "--output", out]) == 0
    report = json.loads(out.read_text())
    assert report["gamma"] == [[1.0, 0.0], [0.0, 1.0]]
    assert report["row_sum_deviation"] <= 1e-12


def test_unistochastic_found_and_not_found_exit_codes(tmp_path):
    flat = write(tmp_path / "flat.json", {"matrix": [[0.5, 0.5], [0.5, 0.5]]})
    out = tmp_path / "uni.json"
    assert run(["unistochastic", "--input", flat, "--output", out]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "found"
    u = np.array(report["unitary"]["re"]) + 1j * np.array(report["unitary"]["im"])
    np.testing.assert_allclose(np.abs(u) ** 2, 0.5, atol=1e-10)
    # an iteration budget of zero cannot converge: not_found is exit 2
    assert run(["unistochastic", "--input", flat, "--output", out,
                "--max-iters", "0"]) == 2
    assert json.loads(out.read_text())["status"] == "not_found"


def test_unistochastic_certificate_is_reported(tmp_path):
    fix = write(tmp_path / "fix.json", {
        "matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]})
    out = tmp_path / "uni.json"
    assert run(["unistochastic", "--input", fix, "--output", out]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "not_unistochastic"
    assert "triangle" in report["certificate"]


def test_unistochastic_refuses_a_4x4_mixture_without_searching(tmp_path):
    """0.5 I + 0.3 P + 0.2 P^2 for the 4-cycle P: columns 0 and 1 share rows
    1 and 2 only, with sides sqrt(0.15) and sqrt(0.06)."""
    p = np.roll(np.eye(4), 1, axis=0)
    gamma = 0.5 * np.eye(4) + 0.3 * p + 0.2 * p @ p
    mix = write(tmp_path / "mix.json", {"matrix": gamma.tolist()})
    out = tmp_path / "uni.json"
    assert run(["unistochastic", "--input", mix, "--output", out]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "not_unistochastic"
    assert report["residual"] is None
    assert report["unitary"] is None
    assert "polygon" in report["certificate"]
    assert report["certificate"].startswith("columns (0, 1): ")


def test_dilate_reports_residuals(tmp_path):
    fix = write(tmp_path / "fix.json", {
        "matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]})
    out = tmp_path / "dil.json"
    assert run(["dilate", "--input", fix, "--output", out]) == 0
    report = json.loads(out.read_text())
    assert report["dilation_dim"] == 9
    assert report["unitarity_residual"] <= 1e-10
    assert report["marginal_residual"] <= 1e-10
    assert report["kraus_identity_residual"] <= 1e-12


def test_dilate_report_holds_the_exact_unitary(tmp_path):
    # The 100x100 unitary of a 10-state dilation is mostly exact zeros,
    # written as literals; every entry must parse back bit for bit.
    rng = np.random.default_rng(5)
    g = rng.uniform(0.1, 1.0, size=(10, 10))
    g /= g.sum(axis=0)
    phases = rng.uniform(-math.pi, math.pi, size=(10, 10))
    fix = write(tmp_path / "fix.json", {"matrix": g, "phases": phases})
    out = tmp_path / "dil.json"
    assert run(["dilate", "--input", fix, "--output", out]) == 0
    report = json.loads(out.read_text())
    gamma = stoch.TransitionMatrix(g)
    u = corr.stinespring_dilate(corr.kraus_from_potential(
        corr.potential_from_transition(gamma, phases))).matrix
    assert report["unitary"] == {"re": u.real.tolist(), "im": u.imag.tolist()}
    assert np.count_nonzero(u.real == 0.0) >= 9000


def test_extract_hamiltonian(tmp_path):
    inp = write(tmp_path / "h.json", {
        "n": 2, "re": [[0.3, 0.1], [0.1, -0.2]],
        "im": [[0.0, -0.4], [0.4, 0.0]]})
    out = tmp_path / "ham.json"
    assert run(["extract-hamiltonian", "--input", inp, "--output", out,
                "--dt", "1e-4"]) == 0
    report = json.loads(out.read_text())
    assert report["max_error_vs_input"] <= 5e-6
    assert report["anti_hermitian_residual"] <= 1e-10


@pytest.mark.filterwarnings("error")
def test_extract_hamiltonian_below_the_aliasing_bound(tmp_path):
    """||H|| dt = 1.5 < pi/2: the quotient diag(sin(w dt) / dt) still
    determines H, so the command reports its error instead of refusing."""
    inp = tmp_path / "h.json"
    inp.write_text(DIAGONAL_HERMITIAN_TEXT % (1.5e4, -1.5e4))
    out = tmp_path / "ham.json"
    assert run(["extract-hamiltonian", "--input", inp, "--output", out,
                "--dt", "1e-4"]) == 0
    report = json.loads(out.read_text())
    assert report["max_error_vs_input"] == pytest.approx(
        1.5e4 - math.sin(1.5) / 1e-4, rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_extract_hamiltonian_of_zero_at_a_tiny_dt(tmp_path):
    """The refusal of ||H|| dt below float epsilon spares H = 0: its family
    is constant, so the quotient is exactly H at any dt."""
    inp = tmp_path / "h.json"
    inp.write_text(DIAGONAL_HERMITIAN_TEXT % (0.0, 0.0))
    out = tmp_path / "ham.json"
    assert run(["extract-hamiltonian", "--input", inp, "--output", out,
                "--dt", "1e-17"]) == 0
    assert json.loads(out.read_text())["max_error_vs_input"] == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", ["1", "1e6", "1e9", "1e10", "1e11", "1e12",
                               "1e300", "-1e11"])
def test_extract_hamiltonian_step_is_dt_at_every_t(tmp_path, t):
    """The family is sampled through U(t + s) = U(t) U(s) at exactly s = +-dt,
    so the bias is that of the quotient, 3 - sin(3 dt) / dt, at any |t|; the
    floats nearest t +- dt lie up to 1.2e-4 apart at 1e12."""
    inp = tmp_path / "h.json"
    inp.write_text(DIAGONAL_HERMITIAN_TEXT % (3.0, -3.0))
    out = tmp_path / "ham.json"
    assert run(["extract-hamiltonian", "--input", inp, "--output", out,
                f"--t={t}", "--dt", "1e-4"]) == 0
    report = json.loads(out.read_text())
    assert report["max_error_vs_input"] == pytest.approx(
        3.0 - math.sin(3e-4) / 1e-4, abs=1e-11)
    assert report["anti_hermitian_residual"] <= 1e-10


def test_extract_hamiltonian_error_does_not_grow_with_t(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2.0
    inp = write(tmp_path / "h.json", {"n": 4, "re": h.real.tolist(),
                                      "im": h.imag.tolist()})
    errors = []
    for t in ("1", "1e11"):
        out = tmp_path / f"ham-{t}.json"
        assert run(["extract-hamiltonian", "--input", inp, "--output", out,
                    "--t", t]) == 0
        errors.append(json.loads(out.read_text())["max_error_vs_input"])
    assert errors[0] > 0.0
    assert errors[1] == pytest.approx(errors[0], abs=1e-11)


def test_config_overrides_flags(tmp_path):
    inp = write(tmp_path / "law.json", {"law": "free", "x0": 0.0, "v0": 1.0})
    cfg = write(tmp_path / "cfg.json", {"T": 2.0, "dt": 0.5})
    out = tmp_path / "r.json"
    code = run(["embed", "--input", inp, "--output", out,
                "--T", "9.0", "--config", cfg])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["duration"] == 2.0
    assert report["dt"] == 0.5


@pytest.mark.parametrize("command, payload, entry", [
    ("embed", {"law": "free"}, {"steps": 7}),
    # the phase search stops at the unitarity gate; its tolerance is no flag
    ("unistochastic", {"matrix": [[0.5, 0.5], [0.5, 0.5]]}, {"tol": 1e-6}),
], ids=["embed", "unistochastic"])
def test_config_rejects_unknown_keys(tmp_path, capsys, command, payload, entry):
    inp = write(tmp_path / "in.json", payload)
    cfg = write(tmp_path / "cfg.json", entry)
    code = run([command, "--input", inp, "--output", tmp_path / "r.json",
                "--config", cfg])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "<config>." + next(iter(entry))


def test_config_seed_is_checked_like_the_flag(tmp_path, capsys):
    inp = write(tmp_path / "law.json", {"law": "free"})
    cfg = write(tmp_path / "cfg.json", {"seed": -1})
    out = tmp_path / "r.json"
    assert run(["embed", "--input", inp, "--output", out, "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "field": "--seed", "message": "must be at least 0, got -1"}
    assert not out.exists()


def test_config_values_are_converted_like_flags(tmp_path, qubit_file):
    inp = write(tmp_path / "law.json", {"law": "free", "x0": 0.0, "v0": 1.0})
    cfg = write(tmp_path / "cfg.json", {"dt": "0.01", "T": 1})
    out = tmp_path / "r.json"
    assert run(["embed", "--input", inp, "--output", out, "--config", cfg]) == 0
    report = json.loads(out.read_text())
    assert (report["dt"], report["duration"]) == (0.01, 1.0)
    cfg = write(tmp_path / "jobs.json", {"jobs": "2", "all-pairs": True})
    assert run(["divisibility", "--input", qubit_file, "--output", out,
                "--config", cfg]) == 0
    assert len(json.loads(out.read_text())["pairs"]) == 1


@pytest.mark.parametrize("command, entry", [
    ("embed", {"dt": "fast"}),
    ("embed", {"dt": True}),
    ("embed", {"output": ["r.json"]}),
    ("sh-sim", {"method": "euler"}),
    ("sh-sim", {"stride": 2.5}),
    ("divisibility", {"all-pairs": 1}),
])
def test_config_rejects_values_the_flag_would(tmp_path, capsys, qubit_file,
                                              command, entry):
    inp = qubit_file if command == "divisibility" else write(
        tmp_path / "in.json",
        {"law": "free"} if command == "embed"
        else {"n": 1, "re": [[1.0]], "im": [[0.0]]})
    cfg = write(tmp_path / "cfg.json", entry)
    code = run([command, "--input", inp, "--output", tmp_path / "r.json",
                "--config", cfg])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "<config>." + next(iter(entry))


@pytest.mark.parametrize("flag, missing", [("--t", "--tp"), ("--tp", "--t")])
def test_divisibility_needs_t_and_tp_together(tmp_path, capsys, qubit_file,
                                              flag, missing):
    code = run(["divisibility", "--input", qubit_file,
                "--output", tmp_path / "div.json", flag, str(math.pi / 2.0)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == missing
    assert not (tmp_path / "div.json").exists()


def test_divisibility_unstored_pair_names_the_lookup(tmp_path, capsys):
    inp = tmp_path / "p.json"
    inp.write_text(PROCESS_OK)
    out = tmp_path / "div.json"
    assert run(["divisibility", "--input", inp, "--output", out,
                "--t", "3", "--tp", "1"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["field"] == "<lookup>"
    assert error["message"].startswith("no transition stored for (t=3.0")
    assert not out.exists()


def test_malformed_matrix_exits_1(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"matrix": [[0.5, 0.5], [0.5, "x"]]})
    code = run(["unistochastic", "--input", bad, "--output", tmp_path / "o.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "matrix[1][1]"


# Raw JSON text: the NaN and Infinity literals that json.loads accepts.
PROCESS_TEXT = ('{"n": 2, "targets": [0.0, 1.0, 2.0], "conditioning": [0.0], '
                '"transitions": [{"t": 1.0, "t0": 0.0, "matrix": %s}, '
                '{"t": 2.0, "t0": 0.0, "matrix": [[0.0, 1.0], [1.0, 0.0]]}], '
                '"initial": %s}')
NON_FINITE_CASES = {
    "divisibility": PROCESS_TEXT % ("[[NaN, 0.5], [NaN, 0.5]]", "[1.0, 0.0]"),
    "divisibility-initial": PROCESS_TEXT % ("[[1.0, 0.0], [0.0, 1.0]]",
                                            "[-Infinity, 1.0]"),
    "dilate": '{"matrix": [[NaN, 0.5], [NaN, 0.5]]}',
    "correspond": '{"re": [[NaN, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}',
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_input_exits_1(tmp_path, capsys, case):
    inp = tmp_path / "in.json"
    inp.write_text(NON_FINITE_CASES[case])
    out = tmp_path / "report.json"
    code = run([case.split("-")[0], "--input", inp, "--output", out])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "<validation>"
    assert "non-finite" in err["error"]["message"]
    assert not out.exists()


PROCESS_OK = PROCESS_TEXT % ("[[1.0, 0.0], [0.0, 1.0]]", "[1.0, 0.0]")
NO_CONDITIONING = ('{"n": 2, "targets": [0.0], "conditioning": [], '
                   '"transitions": [], "initial": [1.0, 0.0]}')
ONE_TRANSITION = ('{"n": 2, "targets": [0.0, 1.0], "conditioning": [0.0], '
                  '"transitions": [{"t": 1.0, "t0": 0.0, '
                  '"matrix": [[1.0, 0.0], [0.0, 1.0]]}], "initial": [1.0, 0.0]}')
HERMITIAN_2 = {"n": 2, "re": [[0.3, 0.1], [0.1, -0.2]],
               "im": [[0.0, -0.4], [0.4, 0.0]]}
HERMITIAN_2_TEXT = json.dumps(HERMITIAN_2)
HUGE_HERMITIAN_TEXT = ('{"n": 2, "re": [[1e308, 0.0], [0.0, -1e308]], '
                       '"im": [[0.0, 0.0], [0.0, 0.0]]}')
DIAGONAL_HERMITIAN_TEXT = ('{"n": 2, "re": [[%r, 0.0], [0.0, %r]], '
                           '"im": [[0.0, 0.0], [0.0, 0.0]]}')
HUGE_MATRIX = "[[1e308, 1e308], [1e308, 1e308]]"
HUGE_MATRIX_TEXT = '{"matrix": %s}' % HUGE_MATRIX
# x grows from 0.5e154 to 1.5e154 at v 1e154: 0.5 (x^2 + v^2) leaves the
# float range between the first sample and the last
HUGE_FINAL_ENERGY_TEXT = '{"law": "free", "x0": 0.5e154, "v0": 1e154}'
OUT_OF_RANGE_CASES = {
    "sh-sim-stride": ("sh-sim", HERMITIAN_2_TEXT, ["--stride", "0"], "--stride"),
    "sh-sim-dt": ("sh-sim", HERMITIAN_2_TEXT, ["--dt", "0"], "--dt"),
    "sh-sim-T": ("sh-sim", HERMITIAN_2_TEXT, ["--T", "-1"], "--T"),
    "embed-dt": ("embed", '{"law": "free"}', ["--dt", "0"], "--dt"),
    "extract-hamiltonian-dt": ("extract-hamiltonian", HERMITIAN_2_TEXT,
                               ["--dt", "0"], "--dt"),
    # 1 / (2 dt) overflows in the quotient
    "extract-hamiltonian-subnormal-dt": ("extract-hamiltonian", HERMITIAN_2_TEXT,
                                         ["--dt", "1e-310"], "--dt"),
    # ||H|| dt = 6.2e-18 is below float epsilon: the quotient read H as zero
    "extract-hamiltonian-tiny-norm-dt": (
        "extract-hamiltonian", '{"n": 2, "re": [[0.3, 0.1], [0.1, -0.2]], '
        '"im": [[0.0, 0.5], [-0.5, 0.0]]}', ["--dt", "1e-17"], "--dt"),
    "huge-integer": ("sh-sim",
                     json.dumps({**HERMITIAN_2, "re": [[0.3, 0.1], [0.1, 10 ** 400]]}),
                     [], "<root>.re[1][1]"),
    # past the interpreter's limit on integer digits json.loads refuses it
    "overlong-integer": ("sh-sim", '{"n": 2, "re": [[%s, 0.1], [0.1, -0.2]], '
                         '"im": [[0.0, -0.4], [0.4, 0.0]]}' % ("9" * 5000),
                         [], "<file>"),
    # optional numbers outside the parsers: bare float() let these escape
    "embed-huge-x0": ("embed", '{"law": "free", "x0": %s}' % ("9" * 400),
                      [], "x0"),
    "embed-string-v0": ("embed", '{"law": "free", "v0": "fast"}', [], "v0"),
    "embed-list-param": ("embed", '{"law": "damped", "params": {"c": [0.1]}}',
                         [], "params.c"),
    # a key the law does not take was ignored, leaving its default in force
    "embed-unknown-param": ("embed", '{"law": "harmonic", "params": {"K": 4.0}}',
                            [], "params.K"),
    "embed-free-param": ("embed", '{"law": "free", "params": {"k": 1.0}}', [],
                         "params.k"),
    "dilate-string-t": ("dilate", '{"matrix": [[0.5, 0.5], [0.5, 0.5]], "t": "x"}',
                        [], "t"),
    "unistochastic-huge-t0": ("unistochastic",
                              '{"matrix": [[0.5, 0.5], [0.5, 0.5]], "t0": %s}'
                              % ("9" * 400), [], "t0"),
    # round(T / dt) steps: more samples than any array can hold
    "sh-sim-steps": ("sh-sim", HERMITIAN_2_TEXT, ["--dt", "1e-300", "--T", "1"],
                     "--dt"),
    "embed-steps": ("embed", '{"law": "free"}', ["--dt", "1e-300", "--T", "1"],
                    "--dt"),
    # each grid flag is checked before the step count it implies
    "embed-zero-T": ("embed", '{"law": "free"}', ["--T", "0"], "--T"),
    "embed-inf-T": ("embed", '{"law": "free"}', ["--T", "inf"], "--T"),
    "embed-nan-dt": ("embed", '{"law": "free"}', ["--dt", "nan"], "--dt"),
    "sh-sim-inf-dt": ("sh-sim", HERMITIAN_2_TEXT, ["--dt", "inf"], "--dt"),
    # the grid is checked before the stride
    "sh-sim-steps-and-stride": ("sh-sim", HERMITIAN_2_TEXT,
                                ["--dt", "1e-300", "--T", "1", "--stride", "0"],
                                "--dt"),
    # the NaN and Infinity literals of json.loads in optional numbers
    "embed-nan-x0": ("embed", '{"law": "free", "x0": NaN}', [], "x0"),
    "embed-inf-v0": ("embed", '{"law": "free", "v0": Infinity}', [], "v0"),
    "embed-nan-k": ("embed", '{"law": "damped", "params": {"k": NaN}}', [],
                    "params.k"),
    "embed-inf-c": ("embed", '{"law": "damped", "params": {"c": -Infinity}}',
                    [], "params.c"),
    "unistochastic-nan-t": ("unistochastic",
                            '{"matrix": [[0.5, 0.5], [0.5, 0.5]], "t": NaN}',
                            [], "t"),
    "dilate-inf-t0": ("dilate",
                      '{"matrix": [[0.5, 0.5], [0.5, 0.5]], "t0": Infinity}',
                      [], "t0"),
    "divisibility-nan-target": (
        "divisibility", PROCESS_OK.replace("[0.0, 1.0, 2.0]", "[0.0, NaN, 2.0]"),
        [], "<root>.targets[1]"),
    "divisibility-inf-conditioning": (
        "divisibility", PROCESS_OK.replace('"conditioning": [0.0]',
                                           '"conditioning": [Infinity]'),
        [], "<root>.conditioning[0]"),
    "divisibility-nan-t": (
        "divisibility", PROCESS_OK.replace('"t": 1.0', '"t": NaN'),
        [], "<root>.transitions[0].t"),
    "divisibility-inf-t0": (
        "divisibility", PROCESS_OK.replace('"t": 2.0, "t0": 0.0',
                                           '"t": 2.0, "t0": -Infinity'),
        [], "<root>.transitions[1].t0"),
    "sh-sim-nan-psi0": ("sh-sim", HERMITIAN_2_TEXT[:-1]
                        + ', "psi0": {"re": [NaN, 0.0], "im": [0.0, 0.0]}}',
                        ["--T", "0.01"], "<validation>"),
    # a law that overflows a float ** mid-integration
    "embed-overflow": ("embed", '{"law": "cubic", "x0": 1e200}', ["--T", "0.01"],
                       "<integration>"),
    # finite states whose embedded energy overflows
    "embed-huge-energy": ("embed", '{"law": "free", "x0": 1e200}', ["--T", "0.01"],
                          "<integration>"),
    "embed-huge-harmonic-energy": ("embed", '{"law": "harmonic", "x0": 1e160, '
                                   '"v0": 1e160}', ["--T", "0.01"], "<integration>"),
    "embed-huge-final-energy": ("embed", HUGE_FINAL_ENERGY_TEXT,
                                ["--T", "1", "--dt", "0.1"], "<integration>"),
    # a finite trajectory whose law overflows on the time-reversal probe box
    "embed-probe-overflow": ("embed", '{"law": "damped", "params": '
                             '{"k": 1e308, "c": 1e308}, "x0": 0, "v0": 0}',
                             [], "<validation>"),
    # flag values the handlers cannot honour
    "unistochastic-negative-max-iters": (
        "unistochastic", '{"matrix": [[0.5, 0.5], [0.5, 0.5]]}',
        ["--max-iters", "-3"], "--max-iters"),
    "correspond-t-nan": ("correspond",
                         '{"re": [[1.0, 0.0], [0.0, 1.0]], '
                         '"im": [[0.0, 0.0], [0.0, 0.0]]}', ["--t", "nan"], "--t"),
    "correspond-t0-inf": ("correspond",
                          '{"re": [[1.0, 0.0], [0.0, 1.0]], '
                          '"im": [[0.0, 0.0], [0.0, 0.0]]}', ["--t0", "inf"],
                          "--t0"),
    "extract-hamiltonian-t-nan": ("extract-hamiltonian", HERMITIAN_2_TEXT,
                                  ["--t", "nan"], "--t"),
    "divisibility-t0-nan": ("divisibility", PROCESS_OK,
                            ["--all-pairs", "--t0", "nan"], "--t0"),
    # one transition from t0: nothing to compare, on either path
    "divisibility-one-transition": ("divisibility", ONE_TRANSITION, [],
                                    "transitions"),
    "divisibility-all-pairs-one-transition": ("divisibility", ONE_TRANSITION,
                                              ["--all-pairs"], "transitions"),
    "divisibility-all-pairs-empty-t0": ("divisibility", PROCESS_OK,
                                        ["--all-pairs", "--t0", "1.0"],
                                        "transitions"),
    # finite entries whose norm, hermiticity defect or unitarity defect
    # overflows: refused in JSON, without a numpy warning
    "sh-sim-huge-psi0": ("sh-sim", HERMITIAN_2_TEXT[:-1]
                         + ', "psi0": {"re": [1e200, 0.0], "im": [0.0, 0.0]}}',
                         ["--T", "0.01"], "<validation>"),
    "sh-sim-huge-antisymmetric-re": (
        "sh-sim", '{"n": 2, "re": [[0.0, 1e308], [-1e308, 0.0]], '
        '"im": [[0.0, 0.0], [0.0, 0.0]]}', ["--T", "0.01"], "<validation>"),
    # a lawful H whose energy is past the float range: the state stays finite
    "sh-sim-huge-hermitian": (
        "sh-sim", HUGE_HERMITIAN_TEXT, ["--T", "0.01"], "<integration>"),
    "correspond-huge-entry": ("correspond",
                              '{"re": [[1e200, 0.0], [0.0, 1.0]], '
                              '"im": [[0.0, 0.0], [0.0, 0.0]]}', [],
                              "<validation>"),
    # column sums and a distribution total past the float range
    "unistochastic-huge-matrix": ("unistochastic", HUGE_MATRIX_TEXT, [],
                                  "<validation>"),
    "dilate-huge-matrix": ("dilate", HUGE_MATRIX_TEXT, [], "<validation>"),
    "divisibility-huge-transition": (
        "divisibility", PROCESS_TEXT % (HUGE_MATRIX, "[1.0, 0.0]"), [],
        "<validation>"),
    "divisibility-huge-initial": (
        "divisibility", PROCESS_TEXT % ("[[1.0, 0.0], [0.0, 1.0]]",
                                        "[1e308, 1e308]"), [], "<validation>"),
    # the quotient determines H only while ||H|| dt < pi/2
    "extract-hamiltonian-huge": ("extract-hamiltonian", HUGE_HERMITIAN_TEXT,
                                 [], "--dt"),
    "extract-hamiltonian-aliased": ("extract-hamiltonian",
                                    DIAGONAL_HERMITIAN_TEXT % (2e4, -2e4),
                                    [], "--dt"),
    "extract-hamiltonian-inf-eigenvalue": (
        "extract-hamiltonian", '{"n": 2, "re": %s, "im": [[0.0, 0.0], '
        '[0.0, 0.0]]}' % HUGE_MATRIX, [], "--dt"),
    "extract-hamiltonian-huge-t": ("extract-hamiltonian",
                                   DIAGONAL_HERMITIAN_TEXT % (3.0, -3.0),
                                   ["--t", "1e308"], "--t"),
    # --all-pairs compares every stored pair: a single pair is refused,
    # from the command line or from --config
    "divisibility-all-pairs-t": ("divisibility", PROCESS_OK,
                                 ["--all-pairs", "--t", "7"], "--t"),
    "divisibility-all-pairs-config-tp": (
        "divisibility", PROCESS_OK,
        ["--config", {"all-pairs": True, "tp": 1.0}], "--tp"),
    # inputs of the wrong shape, each refused naming the field
    "config-not-object": ("embed", '{"law": "free"}', ["--config", [1]],
                          "<config>"),
    "embed-not-object": ("embed", "[1]", [], "law"),
    "embed-list-params": ("embed", '{"law": "free", "params": [1]}', [],
                          "params"),
    "sh-sim-list-psi0": ("sh-sim", HERMITIAN_2_TEXT[:-1] + ', "psi0": [1, 0]}',
                         [], "psi0"),
    "sh-sim-float-n": ("sh-sim", HERMITIAN_2_TEXT.replace('"n": 2', '"n": 2.0'),
                       [], "<root>.n"),
    "unistochastic-no-matrix": ("unistochastic", '{"t": 1.0}', [], "matrix"),
    "unistochastic-empty-matrix": ("unistochastic", '{"matrix": []}', [],
                                   "matrix"),
    "unistochastic-flat-matrix": ("unistochastic", '{"matrix": [1.0, 0.0]}',
                                  [], "matrix[0]"),
    "dilate-phases-size": ("dilate", '{"matrix": [[0.5, 0.5], [0.5, 0.5]], '
                           '"phases": [[0.0]]}', [], "phases"),
    "correspond-not-object": ("correspond", "[1]", [], "<root>"),
    "correspond-re-im-sizes": ("correspond", '{"re": [[1.0, 0.0], [0.0, 1.0]], '
                               '"im": [[0.0]]}', [], "<root>"),
    "divisibility-not-object": ("divisibility", "[1]", [], "<root>"),
    "divisibility-empty-initial": (
        "divisibility", PROCESS_OK.replace('"initial": [1.0, 0.0]',
                                           '"initial": []'),
        [], "<root>.initial"),
    **{f"divisibility-{key}-not-list": (
        "divisibility", json.dumps({**json.loads(PROCESS_OK), key: 0}), [],
        f"<root>.{key}")
       for key in ("targets", "conditioning", "transitions")},
    "divisibility-transition-not-object": (
        "divisibility", PROCESS_OK.replace('"transitions": [',
                                           '"transitions": [1, '),
        [], "<root>.transitions[0]"),
    "divisibility-transition-off-targets": (
        "divisibility", PROCESS_OK.replace('"t": 2.0', '"t": 3.0'),
        [], "<validation>"),
    # files the command cannot read or write
    "embed-not-utf8": ("embed", b'{"law": "caf\xe9"}', [], "<file>"),
    "embed-config-not-utf8": ("embed", '{"law": "free"}',
                              ["--config", b'{"method": "caf\xe9"}'], "<file>"),
    "correspond-deep-nesting": ("correspond", "[" * 100_000 + "]" * 100_000,
                                [], "<file>"),
    "divisibility-output-missing-dir": (
        "divisibility", PROCESS_OK, ["--output", "<tmp>/missing/report.json"],
        "<file>"),
    "embed-csv-missing-dir": ("embed", '{"law": "free"}',
                              ["--T", "0.01", "--csv", "<tmp>/missing/x.csv"],
                              "<file>"),
    # no conditioning time to default t0 to, in each of the three modes
    "divisibility-no-conditioning": ("divisibility", NO_CONDITIONING, [],
                                     "conditioning"),
    "divisibility-pair-no-conditioning": (
        "divisibility", NO_CONDITIONING, ["--t", "1", "--tp", "0"],
        "conditioning"),
    "divisibility-all-pairs-no-conditioning": (
        "divisibility", NO_CONDITIONING, ["--all-pairs"], "conditioning"),
    # a second entry with the same stamps would replace the first
    "divisibility-duplicate-transition": (
        "divisibility", PROCESS_OK.replace('"t": 2.0', '"t": 1.0'), [],
        "<root>.transitions[1]"),
    # every report carries the seed, and the random streams refuse it
    **{f"{command}-negative-seed": (command, text, ["--seed", "-1"], "--seed")
       for command, text in (
           ("embed", '{"law": "free"}'),
           ("sh-sim", HERMITIAN_2_TEXT),
           ("divisibility", PROCESS_OK),
           ("correspond", '{"re": [[1.0, 0.0], [0.0, 1.0]], '
                          '"im": [[0.0, 0.0], [0.0, 0.0]]}'),
           ("unistochastic", '{"matrix": [[0.5, 0.5], [0.5, 0.5]]}'),
           ("dilate", '{"matrix": [[0.5, 0.5], [0.5, 0.5]]}'),
           ("extract-hamiltonian", HERMITIAN_2_TEXT))},
}


def _content_file(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
        return str(path)
    return write(path, content)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_CASES))
def test_out_of_range_input_exits_1(tmp_path, capsys, case):
    command, text, flags, field = OUT_OF_RANGE_CASES[case]
    inp = tmp_path / "in.json"
    inp.write_bytes(text if isinstance(text, bytes) else text.encode())
    # <tmp> in a flag is this test's directory; a flag value that is not a
    # string is a file's content, raw bytes or a JSON value
    flags = [f.replace("<tmp>", str(tmp_path)) if isinstance(f, str)
             else _content_file(tmp_path / f"flag-{i}.json", f)
             for i, f in enumerate(flags)]
    out = tmp_path / "report.json"
    code = run([command, "--input", inp, "--output", out, *flags])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == field
    assert not out.exists()
    assert not out.with_suffix(".csv").exists()


def test_unwritable_report_names_the_path_and_the_reason(tmp_path, capsys):
    inp = write(tmp_path / "law.json", {"law": "free"})
    out = tmp_path / "missing" / "report.json"
    assert run(["embed", "--input", inp, "--output", out, "--T", "0.01",
                "--csv", tmp_path / "x.csv"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["field"] == "<file>"
    assert str(out) in err["message"] and "No such file" in err["message"]


@pytest.mark.filterwarnings("error")
def test_embed_energy_overflow_names_the_sample(tmp_path, capsys):
    """Only the first and last energies are reported, so only they are
    squared; here the first is finite and the last is not."""
    inp = tmp_path / "in.json"
    inp.write_text(HUGE_FINAL_ENERGY_TEXT)
    assert run(["embed", "--input", inp, "--output", tmp_path / "out.json",
                "--T", "1", "--dt", "0.1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "field": "<integration>",
        "message": "embedded energy became non-finite by step 10"}


@pytest.mark.filterwarnings("error")
def test_huge_lawful_hamiltonian_is_refused_at_its_energy(tmp_path, capsys):
    """Halving before adding keeps A finite, so the state is integrated and
    the figure that leaves the float range, the energy, is the one named."""
    inp = tmp_path / "in.json"
    inp.write_text(HUGE_HERMITIAN_TEXT)
    assert run(["sh-sim", "--input", inp, "--output", tmp_path / "out.json",
                "--T", "0.01"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "field": "<integration>",
        "message": "initial energy became non-finite by step 0"}


@pytest.mark.parametrize("command, text", [("embed", '{"law": "free"}'),
                                           ("sh-sim", HERMITIAN_2_TEXT)])
def test_grid_step_count_message(tmp_path, capsys, command, text):
    inp = tmp_path / "in.json"
    inp.write_text(text)
    assert run([command, "--input", inp, "--output", tmp_path / "out.json",
                "--dt", "1e-300", "--T", "1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "field": "--dt",
        "message": "--T / --dt is 1e+300 steps, more than an array can hold"}


@pytest.mark.filterwarnings("error")
def test_sh_sim_blow_up_exits_1_naming_the_step(tmp_path, capsys):
    """RK4 at dt 5 overflows by the first recorded step; numpy stays quiet."""
    inp = write(tmp_path / "h.json", {"n": 2, "re": [[1.0, 0.0], [0.0, -1.0]],
                                      "im": [[0.0, 0.0], [0.0, 0.0]]})
    out = tmp_path / "report.json"
    code = run(["sh-sim", "--input", inp, "--output", out, "--method", "rk4",
                "--dt", "5", "--T", "100000", "--stride", "1000"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "<integration>"
    assert "step 1000" in err["error"]["message"]
    assert not out.exists()
    assert not out.with_suffix(".csv").exists()


@pytest.mark.filterwarnings("error")
def test_sh_sim_overflow_past_finite_samples_exits_1(tmp_path, capsys):
    """RK4 at dt 5 for 150 steps keeps every sample finite (up to about
    1e200), but the energies square them and overflow from step 116."""
    inp = write(tmp_path / "h.json", {"n": 2, "re": [[1.0, 0.0], [0.0, -1.0]],
                                      "im": [[0.0, 0.0], [0.0, 0.0]]})
    out = tmp_path / "report.json"
    code = run(["sh-sim", "--input", inp, "--output", out, "--method", "rk4",
                "--dt", "5", "--T", "750", "--stride", "1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "<integration>"
    assert err["error"]["message"] == "energy drift became non-finite by step 116"
    assert not out.exists()
    assert not out.with_suffix(".csv").exists()


FRAMING_CASES = {
    "embed": ({"law": "free", "x0": 0.0, "v0": 1.0}, ["--T", "0.01"]),
    "sh-sim": (HERMITIAN_2, ["--T", "0.01", "--stride", "10"]),
    "divisibility": (None, []),
    "correspond": ({"re": [[1.0, 0.0], [0.0, 1.0]],
                    "im": [[0.0, 0.0], [0.0, 0.0]]}, []),
    "unistochastic": ({"matrix": [[0.5, 0.5], [0.5, 0.5]]}, []),
    "dilate": ({"matrix": [[0.5, 0.5], [0.5, 0.5]]}, []),
    "extract-hamiltonian": (HERMITIAN_2, []),
}


@pytest.mark.parametrize("command", sorted(FRAMING_CASES))
def test_every_report_is_framed(tmp_path, qubit_file, command):
    payload, flags = FRAMING_CASES[command]
    inp = qubit_file if payload is None else write(tmp_path / "in.json", payload)
    out = tmp_path / "report.json"
    assert run([command, "--input", inp, "--output", out, "--seed", "7",
                *flags]) == 0
    report = json.loads(out.read_text())
    assert (report["schema"], report["command"], report["seed"]) == (1, command, 7)


# What a fresh process has loaded of the package: the parser needs these, and
# each subcommand adds only the modules it runs (correspondence needs
# oscillator and stochastic, which needs lp).
PARSER_MODULES = {"indivisible", "indivisible.cli", "indivisible.errors",
                  "indivisible.serialize"}
TRANSITION_MODULES = {"indivisible.stochastic", "indivisible.lp"}
CORRESPONDENCE_MODULES = {"indivisible.correspondence", "indivisible.oscillator",
                          *TRANSITION_MODULES}
COMMAND_MODULES = {
    "embed": {"indivisible.embed"},
    "sh-sim": {"indivisible.oscillator"},
    "divisibility": TRANSITION_MODULES,
    "correspond": CORRESPONDENCE_MODULES,
    "unistochastic": CORRESPONDENCE_MODULES,
    "dilate": CORRESPONDENCE_MODULES,
    "extract-hamiltonian": CORRESPONDENCE_MODULES,
}
PRINT_LOADED = ("import json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
                " if m.partition('.')[0] == 'indivisible')))\n")


def test_importing_the_cli_loads_only_what_the_parser_needs(fresh_python):
    out = fresh_python("import indivisible, indivisible.cli\n" + PRINT_LOADED)
    assert set(json.loads(out)) == PARSER_MODULES


@pytest.mark.parametrize("command", sorted(FRAMING_CASES))
def test_each_subcommand_loads_only_its_own_modules(tmp_path, qubit_file,
                                                    fresh_python, command):
    payload, flags = FRAMING_CASES[command]
    inp = qubit_file if payload is None else write(tmp_path / "in.json", payload)
    argv = [command, "--input", inp, "--output", str(tmp_path / "out.json"),
            *flags]
    out = fresh_python("from indivisible import cli\n"
                       f"assert cli.main({argv!r}) == 0\n" + PRINT_LOADED)
    loaded = set(json.loads(out.splitlines()[-1]))  # after the status line
    assert loaded == PARSER_MODULES | COMMAND_MODULES[command]


PARSE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["bogus", "--input", "in.json"],
    ["embed", "--input", "in.json", "--output", "out.json", "--T", "2",
     "--dt", "1e-3", "--csv", "t.csv"],
    ["embed", "--input", "in.json", "--out", "out.json", "--duration", "2"],
    ["sh-sim", "--input", "h.json", "--output", "o.json", "--method", "rk4",
     "--stride", "10", "--seed", "3"],
    ["sh-sim", "--input", "h.json", "--output", "o.json", "--method", "euler"],
    ["sh-sim", "--input", "h.json", "--output", "o.json", "--s", "3"],
    ["divisibility", "--input", "p.json", "--output", "o.json", "--all-pairs",
     "--jobs", "2", "--config", "c.json"],
    ["divisibility", "--input", "p.json", "--output", "o.json", "--t", "2",
     "--tp", "1", "--t0", "0"],
    ["divisibility", "--input", "p.json", "--output", "o.json", "--t"],
    ["correspond", "--input", "u.json", "--output", "o.json", "--t", "1.5"],
    ["unistochastic", "--input", "g.json", "--output", "o.json",
     "--max-iters", "10"],
    ["unistochastic", "--input", "g.json", "--output", "o.json",
     "--max-iters", "ten"],
    ["dilate", "--input", "g.json", "--output", "o.json"],
    ["dilate", "--input", "g.json", "--output", "o.json", "extra"],
    ["dilate", "--input", "g.json", "--output", "o.json", "--bogus", "1"],
    ["dilate", "--input", "g.json"],
    ["dilate", "-h"],
    ["extract-hamiltonian", "--input", "h.json", "--output", "o.json",
     "--dt", "1e-5", "--t", "0.5"],
    ["extract-hamiltonian", "--input", "h.json", "--output", "o.json", "--",
     "--dt"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, capsys.readouterr()


@pytest.mark.parametrize("case", range(len(PARSE_CASES)))
def test_parse_takes_the_whole_parsers_namespace_and_errors(case, capsys):
    """The direct route through a subcommand's parser gives what the whole
    parser gives: the namespace, or the same output and SystemExit code."""
    argv = PARSE_CASES[case]
    want = _parse_outcome(cli._PARSER.parse_args, argv, capsys)
    assert _parse_outcome(cli._parse_args, argv, capsys) == want


def test_parse_takes_the_direct_route_when_nothing_is_left_over(monkeypatch):
    def refuse(argv):
        raise AssertionError("whole parser used")
    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    args = cli._parse_args(["embed", "--input", "in.json", "--out", "o.json",
                            "--T", "2"])
    assert (args.subcommand, args.output, args.duration) == ("embed", "o.json", 2.0)
    with pytest.raises(AssertionError, match="whole parser"):
        cli._parse_args(["dilate", "--input", "g.json", "--output", "o", "extra"])


def test_parse_reads_sys_argv_without_arguments(monkeypatch):
    argv = ["dilate", "--input", "g.json", "--output", "o.json"]
    monkeypatch.setattr(sys, "argv", ["indivisible", *argv])
    assert cli._parse_args(None) == cli._PARSER.parse_args(argv)


def test_sh_sim_method_choices_are_the_integrators_methods():
    subs = next(a for a in cli._PARSER._actions
                if isinstance(a, argparse._SubParsersAction))
    method, = (a for a in subs.choices["sh-sim"]._actions if a.dest == "method")
    assert tuple(method.choices) == osc.SH_METHODS


def test_main_does_not_build_a_parser(tmp_path, qubit_file, monkeypatch):
    """Every call reuses the parser built at import."""
    def refuse():
        raise AssertionError("build_parser called from main()")
    monkeypatch.setattr(cli, "build_parser", refuse)
    for command, (payload, flags) in sorted(FRAMING_CASES.items()):
        inp = qubit_file if payload is None else write(tmp_path / "in.json",
                                                       payload)
        assert run([command, "--input", inp,
                    "--output", tmp_path / f"{command}.json", *flags]) == 0


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys,
                                                    monkeypatch):
    """A config override and a parse error in one call leave no trace in the
    next: each report equals that of a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    law = write(tmp_path / "law.json", {"law": "damped", "x0": 1.0, "v0": 0.0})
    ham = write(tmp_path / "h.json", HERMITIAN_2)
    cfg = write(tmp_path / "cfg.json", {"dt": 0.01})
    steps = [
        (["embed", "--input", law, "--T", "0.5", "--config", cfg], 0),
        (["embed", "--input", law, "--T", "0.5"], 0),
        (["sh-sim", "--input", ham, "--stride", "2.5"], 2),
        (["sh-sim", "--input", ham, "--T", "0.01"], 0),
    ]
    env = dict(os.environ)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    for i, (argv, want) in enumerate(steps):
        here, fresh = tmp_path / f"here-{i}.json", tmp_path / f"fresh-{i}.json"
        capsys.readouterr()
        try:
            code = run([*argv, "--output", here])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        proc = subprocess.run(
            [sys.executable, "-m", "indivisible.cli", *map(str, argv),
             "--output", str(fresh)], capture_output=True, text=True, env=env)
        assert (code, proc.returncode) == (want, want), proc.stderr
        if want:
            assert err == proc.stderr
            assert not here.exists() and not fresh.exists()
            continue
        assert here.read_bytes() == fresh.read_bytes()
        assert (here.with_suffix(".csv").read_bytes()
                == fresh.with_suffix(".csv").read_bytes())


def test_reruns_are_byte_identical(tmp_path, qubit_file):
    inp = write(tmp_path / "law.json", {"law": "damped", "x0": 1.0, "v0": 0.0})
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for out in (first, second):
        run(["embed", "--input", inp, "--output", out, "--T", "3.0"])
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    for out in (first, second):
        run(["divisibility", "--input", qubit_file, "--output", out])
    assert first.read_bytes() == second.read_bytes()


def test_console_script_is_installed(tmp_path):
    """Call the declared entry point as its installed wrapper would, not via PATH: tests this checkout, no install."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "indivisible" in scripts
    inp = write(tmp_path / "u.json", {
        "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    # the same resolution and no-argument call as pip's generated wrapper
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "main = EntryPoint(name=sys.argv[1], value=sys.argv[2],\n"
        "                  group='console_scripts').load()\n"
        "sys.argv = sys.argv[1:2] + sys.argv[3:]\n"
        "sys.exit(main())\n")
    env = dict(os.environ)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "indivisible", scripts["indivisible"],
         "correspond", "--input", inp, "--output", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "correspond" in proc.stdout, proc.stderr
