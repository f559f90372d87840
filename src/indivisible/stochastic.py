"""Column-stochastic transition dynamics and divisibility testing.

Transition matrices act on probability column vectors, p(t) = Gamma(t<-t0) p(t0),
and carry their time stamps with them.  A family of such matrices, all
conditioned on a common set of division times, is generally NOT divisible:
there need not exist any column-stochastic M with

    M @ Gamma(t'<-t0) = Gamma(t<-t0)

even when both endpoints are perfectly lawful.  ``divisibility_verdicts``
decides that question for a list of pairs.  The direct route comes first:
array passes over the whole stack (one solve, the margins, the row rebuild,
the witness gate and residuals) settle every pair whose Gamma(t') is
invertible and whose unique candidate M = Gamma(t) Gamma(t')^-1 is clear of
the margins, with the bits each would get alone.  Only the pairs it leaves
go, one after another, to a linear feasibility problem over the entries of
M.  ``divisibility_check`` is the same decision for one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (SquareMatrix, ValidationError, ValueType, freeze,
                     require_finite, square_matrix)
from .lp import find_nonnegative_solution

SUM_TOL = 1e-12          # distributions and matrix columns must sum to 1 within this
NEGATIVE_CLAMP = 1e-14   # entries in (-NEGATIVE_CLAMP, 0) are clamped to zero
WITNESS_RESIDUAL_TOL = 1e-9
# Equality constraints are relaxed to paired inequalities with this slack.
# Tighter than the witness tolerance so that column renormalization of the
# LP vertex cannot push the final residual over WITNESS_RESIDUAL_TOL.
LP_RELAXATION = 1e-10


@dataclass(frozen=True)
class Distribution(ValueType):
    """Probability vector: nonnegative entries summing to 1 within SUM_TOL."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float).reshape(-1)
        if p.size == 0:
            raise ValidationError("empty distribution")
        require_finite(p, "distribution")
        worst = float(p.min())
        if worst < -NEGATIVE_CLAMP:
            raise ValidationError(
                f"distribution has negative entries (min {worst:.3e})",
                minimum=worst)
        p = np.where(p < 0.0, 0.0, p)
        with np.errstate(over="ignore"):  # an infinite sum fails the gate
            total = float(p.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(
                f"distribution sums to {total!r}, off by more than {SUM_TOL:.0e}",
                total=total)
        freeze(self, p=p)

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class TransitionMatrix(SquareMatrix):
    """Column-stochastic matrix stamped with target time t and source time t0."""

    t: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        m = square_matrix(self.matrix, float)
        if not column_stochastic(m[None])[0]:
            with np.errstate(over="ignore"):  # an infinite sum is listed
                sums = m.sum(axis=0)
            bad_neg = np.flatnonzero((m < -NEGATIVE_CLAMP).any(axis=0)).tolist()
            bad_sum = np.flatnonzero(np.abs(sums - 1.0) > SUM_TOL).tolist()
            raise ValidationError(
                "matrix is not column-stochastic; offending columns "
                f"(negative entries: {bad_neg}, bad sums: {bad_sum})",
                negative_columns=bad_neg, sum_columns=bad_sum,
                column_sums=sums.tolist())
        freeze(self, matrix=m)


def column_stochastic(stack: np.ndarray) -> np.ndarray:
    """Pass mask of the column-stochastic gate over a fresh (k, n, n) stack.

    A matrix passes when no entry lies below -NEGATIVE_CLAMP and every
    column sums to 1 within SUM_TOL; entries in [-NEGATIVE_CLAMP, 0) become
    +0.0 in place, and -0.0 keeps its sign bit.  The same comparisons are
    the finite check: a NaN fails every comparison, -inf is the minimum, and
    +inf makes its column sum infinite or NaN.
    """
    negative = not stack.min(initial=0.0) >= 0.0  # or a NaN
    if negative:
        lows = stack.min(axis=(1, 2))
        stack[(stack < 0.0) & (stack >= -NEGATIVE_CLAMP)] = 0.0
    # Each matrix's rows are added in index order, as in one matrix's sum
    # over axis 0.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = stack.sum(axis=1)
    passed = np.abs(sums - 1.0).max(axis=1, initial=0.0) <= SUM_TOL
    if negative:
        passed &= lows >= -NEGATIVE_CLAMP
    return passed


@dataclass(frozen=True)
class IndivisibleProcess(ValueType):
    """Transition data keyed by (t, t0) with no interpolation or completion.

    targets are the times the process can speak about at all; conditioning
    times (a subset) are the only lawful source stamps.  Lookups demand an
    exact key match: absence of a pair is information, not an accident.
    ``transitions`` is a read-only copy of the mapping given.
    """

    n: int
    targets: tuple
    conditioning: tuple
    transitions: Mapping[tuple, TransitionMatrix]
    initial: Distribution

    def __post_init__(self):
        targets = tuple(float(x) for x in self.targets)
        conditioning = tuple(float(x) for x in self.conditioning)
        missing = [c for c in conditioning if c not in targets]
        if missing:
            raise ValidationError(
                f"conditioning times {missing} are not target times",
                missing=missing)
        trans = dict(self.transitions)
        for key, tm in trans.items():
            t, t0 = key
            if tm.n != self.n:
                raise ValidationError(
                    f"transition {key} has size {tm.n}, process has n={self.n}")
            if (tm.t, tm.t0) != (t, t0):
                raise ValidationError(
                    f"transition stored under {key} is stamped ({tm.t}, {tm.t0})")
            if t not in targets or t0 not in conditioning:
                raise ValidationError(
                    f"transition {key} is not within targets/conditioning")
        if self.initial.n != self.n:
            raise ValidationError(
                f"initial distribution has size {self.initial.n}, expected {self.n}")
        freeze(self, targets=targets, conditioning=conditioning,
               transitions=MappingProxyType(trans))

    def transition(self, t: float, t0: float) -> TransitionMatrix:
        key = (float(t), float(t0))
        if key not in self.transitions:
            have = sorted(self.transitions.keys())
            raise KeyError(
                f"no transition stored for (t={t}, t0={t0}); stored keys: {have}")
        return self.transitions[key]


def markov_compose(chain: Sequence[TransitionMatrix]) -> TransitionMatrix:
    """Compose a chronologically ordered chain into one transition matrix.

    chain[k+1].t0 must equal chain[k].t exactly; the product is stamped from
    the first source to the last target.  Composability is an assumption to
    be granted, not a theorem: generic processes refuse it.
    """
    if len(chain) == 0:
        raise ValidationError("cannot compose an empty chain")
    for earlier, later in zip(chain, chain[1:]):
        if later.n != earlier.n:
            raise ValidationError("chain members differ in dimension")
        if later.t0 != earlier.t:
            raise ValidationError(
                f"chain breaks: segment ending at t={earlier.t} is followed by "
                f"one starting at t0={later.t0}")
    acc = chain[0].matrix
    for tm in chain[1:]:
        acc = tm.matrix @ acc
    return TransitionMatrix(acc, t=chain[-1].t, t0=chain[0].t0)


@dataclass(frozen=True)
class DivisibilityVerdict:
    """Answer to 'does M with M @ Gamma(t'<-t0) = Gamma(t<-t0) exist?'.

    status      "divisible" | "indivisible" | "indeterminate"
    witness     the connecting matrix M, stamped (t <- t'), when divisible
    certificate human-readable grounds, set for indivisible/indeterminate
    residual    max |M Gamma' - Gamma| of the matrix the verdict rests on:
                the witness when divisible, the unique M when the direct
                route finds it indivisible; for the LP's indivisible and
                indeterminate verdicts, the phase-1 infeasibility at stop
    """

    status: str
    witness: TransitionMatrix | None = None
    certificate: str | None = None
    residual: float = 0.0


def divisibility_verdicts(pairs: Sequence[tuple[TransitionMatrix, TransitionMatrix]]
                          ) -> list[DivisibilityVerdict]:
    """Verdict per (gamma_t, gamma_tp) pair: from the unique M = Gamma(t)
    Gamma(t')^-1 where it settles the pair, else from the LP.

    Every point of the relaxed LP is (Gamma(t) + E) Gamma(t')^-1 with
    |E| <= LP_RELAXATION entrywise, and the computed M is (Gamma(t) + R)
    Gamma(t')^-1 with R its residual, so the two differ by at most
    (LP_RELAXATION + max |R|) ||Gamma(t')^-1||_1 in every entry; the norm is
    the largest column sum of |Gamma(t')^-1|.  An entry of M below ten times
    max(LP_RELAXATION, max |R|) ||Gamma(t')^-1||_1 rules out every
    nonnegative point, and the LP would find the pair indivisible too.  A
    nonnegative M is the witness, once the row with the largest minimum is
    rebuilt from the others: the true M has unit column sums exactly, because
    1^T Gamma(t) = 1^T Gamma(t') = 1^T.  A singular Gamma(t'), entries too
    close to zero to call either way, and a witness the usual gates refuse
    leave the pair to the LP, which decides the leftovers one after another
    (see ``divisibility_check``).

    The two matrices of a pair share their source time, and all pairs share
    one size.  One pass over the whole (k, n, n) stack each gives the solve,
    the norms, the first residuals, the margins, the first-minimum entries,
    the indivisible mask, the row rebuild and the column-stochastic gate of
    the proposed witnesses (``column_stochastic``, as ``TransitionMatrix``
    runs it), and one matmul over the witnesses that pass it gives their
    residuals.  Per pair remain the certificate text of an indivisible pair
    and the ``TransitionMatrix`` around an accepted witness, which holds a
    read-only view of the gated stack and is not gated again.  Each pair's
    verdict has the bits it has alone, and each pair is solved once.
    """
    if not pairs:
        return []
    n = pairs[0][0].n
    for gamma_t, gamma_tp in pairs:
        if gamma_t.n != gamma_tp.n:
            raise ValidationError(
                f"size mismatch: {gamma_t.n} vs {gamma_tp.n}")
        if gamma_t.t0 != gamma_tp.t0:
            raise ValidationError(
                "matrices must share the source time: "
                f"{gamma_t.t0} vs {gamma_tp.t0}")
        if gamma_t.n != n:
            raise ValidationError("pairs differ in size")
    gt = np.stack([gamma_t.matrix for gamma_t, _ in pairs])
    gp = np.stack([gamma_tp.matrix for _, gamma_tp in pairs])
    rhs = np.concatenate(
        [gt.transpose(0, 2, 1), np.broadcast_to(np.eye(n), gt.shape)], axis=2)
    lhs = gp.transpose(0, 2, 1)
    live = np.arange(len(pairs))
    try:
        # Solving, rather than multiplying by the inverse, keeps the residual
        # near machine epsilon even when Gamma(t') is badly conditioned.  The
        # same factorization yields Gamma(t')^-T for the margin.
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        # One exactly singular Gamma(t') fails the whole stack.  The LU
        # factorization behind slogdet meets an exact zero pivot (sign 0) on
        # exactly those matrices, so they go to the LP and the rest share
        # one more stacked solve; each matrix is factored on its own.
        live = np.flatnonzero(np.linalg.slogdet(lhs)[0] != 0)
        sol = np.linalg.solve(lhs[live], rhs[live])
    verdicts: list[DivisibilityVerdict | None] = [None] * len(pairs)  # None: LP
    finite = np.isfinite(sol).all(axis=(1, 2))
    live, sol = live[finite], sol[finite]
    # Columns of Gamma(t') sum to 1, so ||Gamma(t')^-1||_1 is its condition
    # number; from 1/eps on, Gamma(t') is singular to working precision and
    # M is not unique.
    inv_norms = np.abs(sol[:, :, n:]).sum(axis=2).max(axis=1)
    keep = inv_norms * np.finfo(float).eps < 1.0
    live, inv_norms = live[keep], inv_norms[keep]
    ms = sol[keep, :, :n].transpose(0, 2, 1).copy()
    residuals = np.abs(ms @ gp[live] - gt[live]).max(axis=(1, 2))
    margins = 10.0 * np.maximum(LP_RELAXATION, residuals) * inv_norms
    flat = ms.reshape(len(live), n * n)
    firsts = flat.argmin(axis=1)
    lows = flat[np.arange(len(live)), firsts]
    indivisible = lows < -margins
    for p in np.flatnonzero(indivisible).tolist():
        i, j = divmod(int(firsts[p]), n)
        verdicts[int(live[p])] = DivisibilityVerdict(
            "indivisible", certificate=(
                "Gamma(t'<-t0) is invertible and the unique M = Gamma(t<-t0) "
                f"Gamma(t'<-t0)^-1 has M[{i}, {j}] = {lows[p]:.6e}, below "
                f"-{margins[p]:.6e} = -10 * max({LP_RELAXATION:.0e}, residual) * "
                "||Gamma(t'<-t0)^-1||_1; no column-stochastic M exists"),
            residual=float(residuals[p]))
    live, ms = live[~indivisible], ms[~indivisible]
    # The row with the largest minimum becomes 1 - (sum of the other rows,
    # in index order).  Adding the zeroed row can flip only the sign of a
    # zero sum, which 1 - sum does not see.
    rebuilt = np.arange(len(live)), ms.min(axis=2).argmax(axis=1)
    others = ms.copy()
    others[rebuilt] = 0.0
    ms[rebuilt] = 1.0 - others.sum(axis=1)
    passed = column_stochastic(ms)
    done, stack = live[passed], ms[passed]
    final = np.abs(stack @ gp[done] - gt[done]).max(axis=(1, 2))
    for k, m, residual in zip(done.tolist(), stack, final.tolist()):
        if residual <= WITNESS_RESIDUAL_TOL:
            witness = object.__new__(TransitionMatrix)  # gated above
            freeze(witness, matrix=m, t=pairs[k][0].t, t0=pairs[k][1].t)
            verdicts[k] = DivisibilityVerdict("divisible", witness=witness,
                                              residual=residual)
    return [_lp_verdict(*pair) if verdict is None else verdict
            for pair, verdict in zip(pairs, verdicts)]


def divisibility_check(gamma_t: TransitionMatrix,
                       gamma_tp: TransitionMatrix) -> DivisibilityVerdict:
    """Decide divisibility of gamma_t through gamma_tp (shared source time).

    One pair through ``divisibility_verdicts``: the unique M = Gamma(t)
    Gamma(t')^-1 settles the pair when Gamma(t') is invertible and M is
    clear of the margins; otherwise the LP decides.  There the entries of M
    form an N^2-variable feasibility problem: M >= 0, unit column sums, and
    M @ gamma_tp = gamma_t, with every equality relaxed to paired
    inequalities at LP_RELAXATION.  A feasible point is column renormalized
    and returned as the witness; infeasibility is definitive for the relaxed
    problem; hitting the pivot cap is reported as indeterminate, never
    coerced into either answer.
    """
    return divisibility_verdicts([(gamma_t, gamma_tp)])[0]


def _lp_verdict(gamma_t: TransitionMatrix,
                gamma_tp: TransitionMatrix) -> DivisibilityVerdict:
    """The LP's verdict on one pair (see ``divisibility_check``)."""
    n = gamma_t.n
    gp = gamma_tp.matrix
    gt = gamma_t.matrix
    # Variables m_ij at flat index i*n + j.  Equality rows: sum_k m_ik gp_kj
    # for each (i, j), then sum_i m_ij for each column j.  Each becomes the
    # pair  row <= rhs + relaxation,  -row <= -(rhs - relaxation).
    eq = np.vstack([np.kron(np.eye(n), gp.T), np.tile(np.eye(n), n)])
    rhs = np.concatenate([gt.reshape(-1), np.ones(n)])
    a_ub = np.stack([eq, -eq], axis=1).reshape(-1, n * n)
    b_ub = np.stack([rhs + LP_RELAXATION, -(rhs - LP_RELAXATION)],
                    axis=1).reshape(-1)

    result = find_nonnegative_solution(a_ub, b_ub)

    if result.status == "iteration_limit":
        return DivisibilityVerdict(
            "indeterminate", certificate=(
                f"phase-1 simplex hit the {result.pivots}-pivot cap with residual "
                f"infeasibility {result.infeasibility:.3e}; no verdict"),
            residual=result.infeasibility)
    if result.status == "infeasible":
        return DivisibilityVerdict(
            "indivisible", certificate=(
                "no column-stochastic M satisfies M @ Gamma(t'<-t0) = "
                f"Gamma(t<-t0): minimum total constraint violation "
                f"{result.infeasibility:.6e} at relaxation {LP_RELAXATION:.0e}"),
            residual=result.infeasibility)

    # Defensive: a "feasible" point that cannot be renormalized, or whose
    # renormalization misses the witness tolerance (NaN included), is no
    # witness; the verdict names the fault and keeps the phase-1 residual.
    m = result.x.reshape(n, n)
    sums = m.sum(axis=0)
    if not (sums > 0.0).all():
        j = int(np.flatnonzero(~(sums > 0.0))[0])
        fault = (f"feasible LP point has column {j} summing to {sums[j]:.3e}, "
                 "which cannot be renormalized")
    else:
        m = m / sums
        residual = float(np.max(np.abs(m @ gp - gt)))
        if residual <= WITNESS_RESIDUAL_TOL:
            witness = TransitionMatrix(m, t=gamma_t.t, t0=gamma_tp.t)
            return DivisibilityVerdict("divisible", witness=witness,
                                       residual=residual)
        fault = (f"feasible LP point renormalized to residual {residual:.3e}, "
                 f"worse than the witness tolerance {WITNESS_RESIDUAL_TOL:.0e}")
    return DivisibilityVerdict("indeterminate", certificate=fault + "; no verdict",
                               residual=result.infeasibility)
