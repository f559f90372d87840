import math
import re
import time

import numpy as np
import pytest

from indivisible import lp, stochastic
from indivisible.errors import ValidationError
from indivisible.lp import find_nonnegative_solution
from indivisible.stochastic import (
    LP_RELAXATION,
    NEGATIVE_CLAMP,
    SUM_TOL,
    WITNESS_RESIDUAL_TOL,
    Distribution,
    IndivisibleProcess,
    TransitionMatrix,
    column_stochastic,
    direct_verdicts,
    divisibility_check,
    markov_compose,
    pairwise_joint,
    propagate,
)
from oracles import (
    direct_entry_below_margin,
    divisibility_constraints,
    exact_divisible_2x2,
    grid_divisible,
    qubit_rotation_gamma,
    random_column_stochastic,
    reference_direct_verdict,
    reference_transition_matrix,
)


def test_distribution_validation():
    Distribution(np.array([0.25, 0.75]))
    with pytest.raises(ValidationError):
        Distribution(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        Distribution(np.array([1.5, -0.5]))
    with pytest.raises(ValidationError, match="^empty distribution$"):
        Distribution([])


def test_distribution_clamps_tiny_negatives():
    d = Distribution(np.array([1.0 + 5e-15, -5e-15]))
    assert d.p[1] == 0.0


def test_transition_matrix_validation_names_the_column():
    bad = np.array([[0.9, 0.4], [0.2, 0.6]])  # column 0 sums to 1.1
    with pytest.raises(ValidationError) as err:
        TransitionMatrix(bad)
    assert "bad sums: [0]" in str(err.value)
    with pytest.raises(ValidationError) as err:
        TransitionMatrix(np.array([[1.1, 0.5], [-0.1, 0.5]]))
    assert "negative" in str(err.value).lower()
    # column 0 holds a negative entry but sums to 1; column 2 sums to 0.9
    mixed = np.array([[1.1, 0.5, 0.3], [-0.1, 0.5, 0.3], [0.0, 0.0, 0.3]])
    with pytest.raises(ValidationError) as err:
        TransitionMatrix(mixed)
    details = err.value.details
    assert details["negative_columns"] == [0]
    assert details["sum_columns"] == [2]
    assert details["column_sums"] == pytest.approx([1.0, 1.0, 0.9], abs=1e-15)
    assert all(type(j) is int for j in details["negative_columns"]
               + details["sum_columns"])


def test_transition_matrix_clamps_tiny_negatives_to_positive_zero():
    m = np.array([[1.0, 0.5, 1.0],
                  [-0.0, 0.5, -NEGATIVE_CLAMP],
                  [0.0, -5e-15, -5e-324]])
    stored = TransitionMatrix(m).matrix
    assert stored[1, 0] == 0.0 and np.signbit(stored[1, 0])
    for i, j in ((1, 2), (2, 1), (2, 2)):
        assert stored[i, j] == 0.0 and not np.signbit(stored[i, j])
    kept = np.ones(m.shape, dtype=bool)
    kept[[1, 2, 2], [2, 1, 2]] = False
    assert stored[kept].tobytes() == m[kept].tobytes()


def test_transition_matrix_leaves_the_callers_array_alone():
    clamped = np.array([[1.0, 0.5], [-5e-15, 0.5]])
    refused = np.array([[1.1, 0.5], [-5e-15, 0.6]])  # tiny negative, bad sums
    for m in (clamped, refused):
        before = m.tobytes()
        try:
            TransitionMatrix(m)
        except ValidationError:
            pass
        assert m.tobytes() == before and m.flags.writeable


def test_transition_matrix_failing_both_gates_lists_the_same_columns():
    # column 0 holds -0.1 and sums to 1; column 1 holds a clamped entry and
    # sums to 1.1; column 2 holds -0.2 and sums to 0.8
    m = np.array([[1.1, 0.6, 0.5], [-0.1, 0.5, 0.5], [0.0, -5e-15, -0.2]])
    with pytest.raises(ValidationError) as want:
        reference_transition_matrix(m)
    with pytest.raises(ValidationError) as got:
        TransitionMatrix(m)
    assert str(got.value) == str(want.value)
    assert got.value.details["negative_columns"] == [0, 2]
    assert got.value.details["sum_columns"] == [1, 2]
    assert repr(got.value.details) == repr(want.value.details)


def test_transition_matrix_validation_matches_the_reference():
    """Accept or refuse, the stored bits and the error text and details
    agree with the validation that listed offending columns on every call."""
    rng = np.random.default_rng(31)
    specials = [-0.0, 0.0, -NEGATIVE_CLAMP, np.nextafter(-NEGATIVE_CLAMP, -1.0),
                -5e-15, -5e-324, -1e-3]
    seen = set()
    for _ in range(3000):
        n = int(rng.integers(0, 6))
        m = random_column_stochastic(n, rng)
        for _ in range(int(rng.integers(0, 4)) if n > 1 else 0):
            i, other, j = *rng.choice(n, size=2, replace=False), rng.integers(n)
            value = specials[rng.integers(len(specials))]
            m[other, j] += m[i, j] - value
            m[i, j] = value
        for j in range(n):
            m[:, j] *= 1.0 + [0.0, 0.0, 4e-13, -4e-13, 3e-12, -3e-12][
                rng.integers(6)]
        before = m.tobytes()
        try:
            want = reference_transition_matrix(m)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                TransitionMatrix(m)
            assert str(err.value) == str(exc)
            assert repr(err.value.details) == repr(exc.details)
            seen.add(("refused", bool(exc.details["negative_columns"]),
                      bool(exc.details["sum_columns"])))
        else:
            assert TransitionMatrix(m).matrix.tobytes() == want.tobytes()
            seen.add(("accepted", bool(((m < 0.0) & (m >= -NEGATIVE_CLAMP))
                                       .any())))
        assert m.tobytes() == before
    assert seen == {("accepted", False), ("accepted", True),
                    ("refused", True, False), ("refused", False, True),
                    ("refused", True, True)}


def _boundary_column(n, rng, entry, target):
    """A column holding ``entry`` above its last row whose sum, taken in row
    order, is exactly ``target`` once ``entry`` is clamped to zero.

    The other rows above the last are multiples of 2^-p summing to D in
    [0.5, 1), so every partial sum is exact, and so is target - D in the
    last row; D + (target - D) is then target itself.
    """
    col = rng.integers(1, 64, size=n).astype(float)
    col[rng.integers(n - 1)] = 0.0
    col[:-1] /= 2.0 ** int(col[:-1].sum()).bit_length()
    col[-1] = target - col[:-1].sum()
    col[col == 0.0] = entry
    return col


def test_stacked_gate_matches_the_per_matrix_gate():
    """Over adversarial stacks, the stacked gate passes exactly the matrices
    ``TransitionMatrix`` accepts, and clamps them to the same bits, sign
    bits included; a refused or non-finite neighbour changes nothing."""
    rng = np.random.default_rng(32)
    entries = [-0.0, 0.0, -NEGATIVE_CLAMP, np.nextafter(-NEGATIVE_CLAMP, -1.0),
               -5e-15, -5e-324]
    # 1 +- SUM_TOL and one ulp to either side, and 1 itself
    targets = [1.0] + [np.nextafter(1.0 + sign * SUM_TOL, 1.0 + step)
                       for sign in (1.0, -1.0) for step in (-1.0, 0.0, 1.0)]
    seen = set()
    for _ in range(400):
        n = int(rng.integers(2, 6))
        stack = np.array([random_column_stochastic(n, rng)
                          for _ in range(int(rng.integers(1, 7)))])
        for m in stack:
            for j in np.flatnonzero(rng.random(n) < 0.5):
                m[:, j] = _boundary_column(n, rng,
                                           entries[rng.integers(len(entries))],
                                           targets[rng.integers(len(targets))])
        if rng.random() < 0.1:
            stack[rng.integers(len(stack)), 0, 0] = [np.nan, np.inf, -np.inf][
                rng.integers(3)]
        alone = []
        for m in stack:
            if not np.isfinite(m).all():
                with pytest.raises(ValidationError, match="non-finite"):
                    TransitionMatrix(m)
                alone.append(None)
                continue
            try:
                want = reference_transition_matrix(m)
            except ValidationError:
                with pytest.raises(ValidationError):
                    TransitionMatrix(m)
                alone.append(None)
            else:
                got = TransitionMatrix(m).matrix
                assert got.tobytes() == want.tobytes()
                alone.append(got)
        gated = stack.copy()
        passed = column_stochastic(gated)
        assert passed.tolist() == [a is not None for a in alone]
        for k in np.flatnonzero(passed):
            assert gated[k].tobytes() == alone[k].tobytes()
        seen.add((bool(passed.all()), bool(passed.any())))
        for a in alone:
            if a is not None:
                seen.update(("zero", bool(sign)) for sign in np.signbit(a[a == 0.0]))
    # all pass, some pass, none pass; +0.0 and -0.0 among the accepted
    assert seen == {(True, True), (False, True), (False, False),
                    ("zero", False), ("zero", True)}


def test_direct_witness_cannot_be_made_writable():
    rng = np.random.default_rng(33)
    base = random_column_stochastic(4, rng)
    pair = (TransitionMatrix(random_column_stochastic(4, rng) @ base, t=2.0),
            TransitionMatrix(base, t=1.0))
    verdict, = direct_verdicts([pair])
    assert verdict.status == "divisible"
    witness = verdict.witness.matrix
    while isinstance(witness, np.ndarray):  # the witness and its bases
        assert not witness.flags.writeable
        with pytest.raises(ValueError):
            witness.flags.writeable = True
        witness = witness.base


def test_transition_matrix_requires_square():
    with pytest.raises(ValidationError):
        TransitionMatrix(np.ones((2, 3)) / 2.0)


def test_validate_transition_stamps():
    tm = TransitionMatrix(np.eye(3), t=2.0, t0=0.5)
    assert (tm.t, tm.t0) == (2.0, 0.5)


def test_propagate_matches_matrix_product():
    rng = np.random.default_rng(0)
    gamma = TransitionMatrix(random_column_stochastic(4, rng))
    p = Distribution(np.array([0.1, 0.2, 0.3, 0.4]))
    out = propagate(gamma, p)
    np.testing.assert_allclose(out.p, gamma.matrix @ p.p, atol=1e-15)
    assert out.p.sum() == pytest.approx(1.0, abs=1e-12)


def test_markov_compose_orders_chronologically():
    rng = np.random.default_rng(1)
    g1 = TransitionMatrix(random_column_stochastic(3, rng), t=1.0, t0=0.0)
    g2 = TransitionMatrix(random_column_stochastic(3, rng), t=2.0, t0=1.0)
    combined = markov_compose([g1, g2])
    np.testing.assert_allclose(combined.matrix, g2.matrix @ g1.matrix,
                               atol=1e-15)
    assert (combined.t, combined.t0) == (2.0, 0.0)


def test_markov_compose_rejects_broken_chains():
    g1 = TransitionMatrix(np.eye(2), t=1.0, t0=0.0)
    g2 = TransitionMatrix(np.eye(2), t=2.0, t0=1.5)
    with pytest.raises(ValidationError):
        markov_compose([g1, g2])
    with pytest.raises(ValidationError):
        markov_compose([])
    g3 = TransitionMatrix(np.eye(3), t=2.0, t0=1.0)
    with pytest.raises(ValidationError, match="differ in dimension"):
        markov_compose([g1, g3])


def test_pairwise_joint_marginals():
    rng = np.random.default_rng(2)
    gamma = TransitionMatrix(random_column_stochastic(3, rng))
    p = Distribution(np.array([0.5, 0.3, 0.2]))
    joint = pairwise_joint(gamma, p)
    np.testing.assert_allclose(joint.sum(axis=0), p.p, atol=1e-14)
    np.testing.assert_allclose(joint.sum(axis=1), gamma.matrix @ p.p,
                               atol=1e-14)
    np.testing.assert_allclose(joint, gamma.matrix * p.p[None, :], atol=0.0)


def qubit_process() -> IndivisibleProcess:
    t1, t2 = math.pi / 4.0, math.pi / 2.0
    return IndivisibleProcess(
        n=2,
        targets=(0.0, t1, t2),
        conditioning=(0.0,),
        transitions={
            (t1, 0.0): TransitionMatrix(qubit_rotation_gamma(t1), t=t1, t0=0.0),
            (t2, 0.0): TransitionMatrix(qubit_rotation_gamma(t2), t=t2, t0=0.0),
        },
        initial=Distribution(np.array([1.0, 0.0])),
    )


def test_process_transition_lookup_is_exact():
    proc = qubit_process()
    tm = proc.transition(math.pi / 4.0, 0.0)
    assert tm.t == math.pi / 4.0
    with pytest.raises(KeyError) as err:
        proc.transition(0.7, 0.0)
    assert "0.7" in str(err.value)


def test_process_validates_grids():
    with pytest.raises(ValidationError):
        IndivisibleProcess(
            n=2, targets=(0.0, 1.0), conditioning=(0.5,),
            transitions={}, initial=Distribution(np.array([1.0, 0.0])))
    grid = dict(n=2, targets=(0.0, 1.0), conditioning=(0.0,))
    one = Distribution(np.array([1.0, 0.0]))
    with pytest.raises(ValidationError, match=r"has size 3, process has n=2"):
        IndivisibleProcess(**grid, initial=one, transitions={
            (1.0, 0.0): TransitionMatrix(np.eye(3), t=1.0)})
    with pytest.raises(ValidationError, match=r"stamped \(0\.0, 0\.0\)"):
        IndivisibleProcess(**grid, initial=one, transitions={
            (1.0, 0.0): TransitionMatrix(np.eye(2), t=0.0)})
    with pytest.raises(ValidationError, match="initial distribution has size 3"):
        IndivisibleProcess(**grid, transitions={},
                           initial=Distribution(np.array([1.0, 0.0, 0.0])))


def test_qubit_fixture_is_indivisible():
    """Halfway through a flip there is no stochastic continuation."""
    proc = qubit_process()
    verdict = divisibility_check(proc.transition(math.pi / 2.0, 0.0),
                                 proc.transition(math.pi / 4.0, 0.0))
    assert verdict.status == "indivisible"
    assert verdict.certificate is not None
    assert verdict.witness is None


def test_composite_is_divisible_with_clean_witness():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 6):
        g1 = TransitionMatrix(random_column_stochastic(n, rng), t=1.0, t0=0.0)
        m = random_column_stochastic(n, rng)
        g2 = TransitionMatrix(m @ g1.matrix, t=2.0, t0=0.0)
        verdict = divisibility_check(g2, g1)
        assert verdict.status == "divisible"
        assert verdict.residual <= WITNESS_RESIDUAL_TOL
        w = verdict.witness
        # witness is itself a valid transition matrix for the gap
        np.testing.assert_allclose(w.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(w.matrix >= 0.0)
        assert (w.t, w.t0) == (2.0, 1.0)


def test_identity_pair_is_divisible():
    g = TransitionMatrix(np.eye(3), t=1.0, t0=0.0)
    verdict = divisibility_check(g, g)
    assert verdict.status == "divisible"
    assert verdict.residual <= 1e-12


def test_single_state_process_is_trivially_divisible():
    g1 = TransitionMatrix(np.eye(1), t=1.0, t0=0.0)
    g2 = TransitionMatrix(np.eye(1), t=2.0, t0=0.0)
    assert divisibility_check(g2, g1).status == "divisible"


def test_check_requires_shared_source_time():
    g1 = TransitionMatrix(np.eye(2), t=1.0, t0=0.0)
    g2 = TransitionMatrix(np.eye(2), t=2.0, t0=0.5)
    with pytest.raises(ValidationError):
        divisibility_check(g2, g1)


def test_check_requires_matching_sizes():
    g1 = TransitionMatrix(np.eye(2), t=1.0, t0=0.0)
    g2 = TransitionMatrix(np.eye(3), t=2.0, t0=0.0)
    with pytest.raises(ValidationError):
        divisibility_check(g2, g1)
    p = Distribution(np.array([1.0, 0.0, 0.0]))
    for apply in (propagate, pairwise_joint):
        with pytest.raises(ValidationError, match="matrix 2, vector 3"):
            apply(g1, p)


def test_lp_layout_follows_the_definition(monkeypatch):
    rng = np.random.default_rng(6)
    g1 = random_column_stochastic(3, rng)
    g1[1, 2] = 0.0  # a zero coefficient keeps its sign through the layout
    g1[:, 2] /= g1[:, 2].sum()
    g1[:, 1] = g1[:, 2]  # singular, so the direct route leaves it to the LP
    g2 = random_column_stochastic(3, rng) @ g1
    seen = []

    def capture(a_ub, b_ub, **kwargs):
        seen.append((a_ub, b_ub))
        raise RuntimeError("captured")

    monkeypatch.setattr(stochastic, "find_nonnegative_solution", capture)
    with pytest.raises(RuntimeError, match="captured"):
        divisibility_check(TransitionMatrix(g2, t=2.0, t0=0.0),
                           TransitionMatrix(g1, t=1.0, t0=0.0))
    (a_ub, b_ub), = seen
    want_a, want_b = divisibility_constraints(g2, g1, LP_RELAXATION)
    assert a_ub.shape == want_a.shape == (24, 9)
    assert a_ub.tobytes() == want_a.tobytes()
    assert b_ub.tobytes() == want_b.tobytes()


def test_pivot_cap_yields_indeterminate(monkeypatch):
    monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
    rng = np.random.default_rng(4)
    g1 = random_column_stochastic(3, rng)
    g1[:, 1] = g1[:, 0]  # singular, so the direct route leaves it to the LP
    g1 = TransitionMatrix(g1, t=1.0, t0=0.0)
    g2 = TransitionMatrix(random_column_stochastic(3, rng) @ g1.matrix,
                          t=2.0, t0=0.0)
    verdict = divisibility_check(g2, g1)
    assert verdict.status == "indeterminate"
    assert "pivot" in verdict.certificate


def test_lp_verdicts_agree_with_both_2x2_oracles():
    rng = np.random.default_rng(5)
    checked_indivisible = 0
    for theta in np.linspace(0.1, math.pi / 2.0, 12):
        gt = qubit_rotation_gamma(theta)
        gtp = qubit_rotation_gamma(theta / 2.0)
        verdict = divisibility_check(
            TransitionMatrix(gt, t=theta, t0=0.0),
            TransitionMatrix(gtp, t=theta / 2.0, t0=0.0))
        lp_divisible = verdict.status == "divisible"
        assert lp_divisible == grid_divisible(gt, gtp)
        exact = exact_divisible_2x2(gt, gtp)
        if exact is not None:
            assert lp_divisible == exact
        checked_indivisible += verdict.status == "indivisible"
    assert checked_indivisible > 0
    for _ in range(25):
        g1 = random_column_stochastic(2, rng)
        m = random_column_stochastic(2, rng)
        gt = m @ g1
        verdict = divisibility_check(TransitionMatrix(gt, t=2.0, t0=0.0),
                                     TransitionMatrix(g1, t=1.0, t0=0.0))
        assert verdict.status == "divisible"
        assert grid_divisible(gt, g1)
        assert exact_divisible_2x2(gt, g1) in (True, None)


def count_lp_calls(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return find_nonnegative_solution(*args, **kwargs)

    monkeypatch.setattr(stochastic, "find_nonnegative_solution", counted)
    return calls


def test_direct_route_agrees_with_the_lp(monkeypatch):
    """Both directions of composite pairs: M @ g1 through g1 is divisible,
    g1 through M @ g1 almost never is.  Every verdict comes from the direct
    route and matches the LP's answer on the same constraints."""
    calls = count_lp_calls(monkeypatch)
    rng = np.random.default_rng(7)
    seen = set()
    for n in range(2, 9):
        for _ in range(4):
            g1 = random_column_stochastic(n, rng)
            g2 = random_column_stochastic(n, rng) @ g1
            for gt, gtp in ((g2, g1), (g1, g2)):
                verdict = divisibility_check(TransitionMatrix(gt, t=2.0, t0=0.0),
                                             TransitionMatrix(gtp, t=1.0, t0=0.0))
                lp = find_nonnegative_solution(
                    *divisibility_constraints(gt, gtp, LP_RELAXATION))
                want = {"feasible": "divisible",
                        "infeasible": "indivisible"}[lp.status]
                assert verdict.status == want
                seen.add(want)
                if want == "divisible":
                    assert verdict.residual <= WITNESS_RESIDUAL_TOL
                    continue
                i, j = map(int, re.search(r"M\[(\d+), (\d+)\]",
                                          verdict.certificate).groups())
                assert direct_entry_below_margin(gt, gtp, i, j, LP_RELAXATION)
    assert seen == {"divisible", "indivisible"}
    assert calls == []


def test_long_markov_chain_is_divisible_at_every_pair():
    """10 states, 8 times: Gamma(t') reaches condition number 2.6e12, where
    the LP stalled at its pivot cap or missed the witness gate on 4 of 28
    pairs and took minutes."""
    rng = np.random.default_rng(1)
    acc, chain = np.eye(10), []
    for k in range(8):
        acc = random_column_stochastic(10, rng) @ acc
        chain.append(TransitionMatrix(acc, t=float(k + 1), t0=0.0))
    start = time.perf_counter()
    verdicts = [divisibility_check(hi, lo)
                for i, hi in enumerate(chain) for lo in chain[:i]]
    elapsed = time.perf_counter() - start
    assert len(verdicts) == 28
    assert [v.status for v in verdicts] == ["divisible"] * 28
    assert max(v.residual for v in verdicts) <= WITNESS_RESIDUAL_TOL
    assert elapsed < 5.0


def test_structural_zeros_need_no_lp(monkeypatch):
    calls = count_lp_calls(monkeypatch)
    rng = np.random.default_rng(8)
    g1 = random_column_stochastic(5, rng)
    perm = np.eye(5)[[3, 0, 4, 1, 2]]
    verdict = divisibility_check(TransitionMatrix(perm @ g1, t=2.0, t0=0.0),
                                 TransitionMatrix(g1, t=1.0, t0=0.0))
    assert verdict.status == "divisible"
    np.testing.assert_allclose(verdict.witness.matrix, perm, atol=1e-12)
    assert calls == []

    g1[:, 4] = g1[:, 3]  # singular: the unique-M route does not apply
    divisibility_check(TransitionMatrix(perm @ g1, t=2.0, t0=0.0),
                       TransitionMatrix(g1, t=1.0, t0=0.0))
    assert len(calls) == 1


def _all_pairs(mats):
    chain = [TransitionMatrix(m, t=float(k + 1), t0=0.0)
             for k, m in enumerate(mats)]
    return [(hi, lo) for i, hi in enumerate(chain) for lo in chain[:i]]


def _markov_chain(n, steps, rng):
    acc, mats = np.eye(n), []
    for _ in range(steps):
        acc = rng.dirichlet(np.ones(n), size=n).T @ acc
        mats.append(acc)
    return mats


def _unitary_family(n, steps, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, v = np.linalg.eigh((z + z.conj().T) / 2.0)
    dt = float(rng.uniform(0.2, 0.8))
    return [np.abs(v @ (np.exp(-1j * w * dt * (k + 1))[:, None] * v.conj().T)) ** 2
            for k in range(steps)]


def assert_matches_reference(pairs) -> list:
    """The stacked route gives each pair the reference's status, certificate
    text, residual bits and witness bits; returns the statuses (None for
    the LP)."""
    got = direct_verdicts(pairs)
    assert len(got) == len(pairs)
    statuses = []
    for (gamma_t, gamma_tp), verdict in zip(pairs, got):
        want = reference_direct_verdict(gamma_t, gamma_tp)
        statuses.append(None if want is None else want.status)
        if want is None:
            assert verdict is None
            continue
        assert verdict.status == want.status
        assert verdict.certificate == want.certificate
        assert verdict.residual.hex() == want.residual.hex()
        if want.witness is None:
            assert verdict.witness is None
        else:
            assert np.array_equal(verdict.witness.matrix, want.witness.matrix)
            assert (verdict.witness.t, verdict.witness.t0) == (
                want.witness.t, want.witness.t0)
    return statuses


def test_stacked_route_matches_the_per_pair_route_on_markov_chains():
    rng = np.random.default_rng(21)
    seen = set()
    for n in range(2, 11):
        for steps in (3, 7, 12):
            seen.update(assert_matches_reference(
                _all_pairs(_markov_chain(n, steps, rng))))
    assert "divisible" in seen  # by construction


def test_stacked_route_matches_the_per_pair_route_on_unitary_families():
    rng = np.random.default_rng(22)
    seen = set()
    for n in range(4, 11):
        for _ in range(3):
            seen.update(assert_matches_reference(
                _all_pairs(_unitary_family(n, 6, rng))))
    assert "indivisible" in seen


def test_one_exactly_singular_gamma_leaves_the_other_pairs_direct():
    rng = np.random.default_rng(23)
    g1 = random_column_stochastic(4, rng)
    # Equal power-of-two columns: elimination leaves an exact zero pivot.
    singular = np.tile([[0.5], [0.25], [0.125], [0.125]], (1, 4))
    g3 = random_column_stochastic(4, rng) @ g1
    pairs = _all_pairs([g1, singular, g3])
    stack = np.stack([gamma_tp.matrix.T for _, gamma_tp in pairs])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(stack, stack)
    statuses = assert_matches_reference(pairs)
    # Pairs (2, 1), (3, 1), (3, 2): only the last stands on the singular one.
    assert statuses[2] is None
    assert None not in statuses[:2]


def test_a_non_finite_solve_leaves_only_its_own_pair_to_the_lp():
    # The pivot 1e-310 is nonzero, so LAPACK solves, and the inverse overflows.
    tiny = np.array([[1e-310, 0.0], [1.0, 1.0]])
    assert not np.isfinite(np.linalg.solve(tiny.T, np.eye(2))).all()
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    mix = np.array([[0.75, 0.5], [0.25, 0.5]])
    pairs = _all_pairs([mix, tiny, swap @ mix])
    statuses = assert_matches_reference(pairs)
    assert statuses[2] is None
    assert None not in statuses[:2]


def _growth_gamma(n):
    """Column-stochastic Gamma whose transpose LU with partial pivoting
    factors with growth 2^(n-3).

    Row 0 is the first pivot, and eliminating it leaves Wilkinson's matrix
    (1 on the diagonal, -1 below it, 1 in its last column) in columns
    1 .. n-2, whose last column doubles at every step.  The last column
    makes the row sums equal.  Every entry is a small integer over a power
    of two, so the elimination is exact and its ties stay ties; the residual
    of a solve grows like eps 2^n while ||Gamma^-1||_1 stays near 1.5e3.
    """
    k = n - 2
    a = np.zeros((n, n))
    a[0, 0], a[0, 1:k + 1] = 1.0, 2.0
    a[1:k + 1, 0] = 1.0
    a[1:k + 1, 1:k + 1] = 2.0 + np.eye(k) - np.tril(np.ones((k, k)), -1)
    a[1:k + 1, k] = 3.0
    a[k + 1, 0], a[k + 1, 1:k + 1] = 0.5, 1.0
    total = 2.0 ** np.ceil(np.log2(a.sum(axis=1).max() + 1.0))
    a[:, -1] = total - a.sum(axis=1)
    return (a / total).T


def _rebuilt_witness(gamma_t, gamma_tp):
    """M = Gamma(t) Gamma(t')^-1 with its largest-minimum row rebuilt from
    the unit column sums: the witness the direct route proposes."""
    m = np.linalg.solve(gamma_tp.matrix.T, gamma_t.matrix.T).T.copy()
    row = int(np.argmax(m.min(axis=1)))
    m[row] = 1.0 - np.delete(m, row, axis=0).sum(axis=0)
    return m


def test_stacked_route_settles_a_stack_that_mixes_every_outcome(monkeypatch):
    n = 44
    rng = np.random.default_rng(24)
    base = random_column_stochastic(n, rng)
    mixing = random_column_stochastic(n, rng)
    # M[1, 0] = -1e-10: above the margin of at least 1e-9, below -1e-14
    shifted = random_column_stochastic(n, rng)
    shifted[0, 0] += shifted[1, 0] + 1e-10
    shifted[1, 0] = -1e-10
    # powers of two summing to 1 exactly: elimination leaves exact zeros
    column = 0.5 ** np.minimum(np.arange(1, n + 1), n - 1)
    growth = _growth_gamma(n)
    pairs = [(TransitionMatrix(hi, t=2.0 * k + 2.0, t0=0.0),
              TransitionMatrix(lo, t=2.0 * k + 1.0, t0=0.0))
             for k, (hi, lo) in enumerate([
                 (mixing @ base, base),           # divisible
                 (base, mixing @ base),           # indivisible
                 (shifted @ base, base),          # witness refused
                 (base, np.tile(column[:, None], (1, n))),  # singular
                 (mixing @ growth, growth),       # witness residual over 1e-9
             ])]
    refused, singular, inexact = pairs[2:]
    with pytest.raises(ValidationError, match=r"negative entries: \[0\]"):
        TransitionMatrix(_rebuilt_witness(*refused))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(singular[1].matrix.T, singular[0].matrix.T)
    witness = TransitionMatrix(_rebuilt_witness(*inexact))
    assert np.abs(witness.matrix @ inexact[1].matrix
                  - inexact[0].matrix).max() > WITNESS_RESIDUAL_TOL
    assert assert_matches_reference(pairs) == [
        "divisible", "indivisible", None, None, None]
    assert assert_matches_reference(pairs[:3] + pairs[4:]) == [
        "divisible", "indivisible", None, None]
    # The singular pair fails the first stacked solve; the other four share
    # the second.
    shapes = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    direct_verdicts(pairs)
    assert shapes == [(5, n, n), (4, n, n)]


def test_stacked_route_refuses_pairs_of_different_sizes():
    small = TransitionMatrix(np.eye(2), t=1.0, t0=0.0)
    large = TransitionMatrix(np.eye(3), t=1.0, t0=0.0)
    with pytest.raises(ValidationError, match="pairs differ in size"):
        direct_verdicts([(small, small), (large, large)])
    assert direct_verdicts([]) == []
