"""Compatibility of state assignments: decision procedures and witness checks.

Two flavors, classical and quantum, each in an objective and a subjective
form.  The decision procedures implement the support-overlap criterion
(two assignments are compatible iff their supports intersect, each cut by
``linalg._rank_cut``, so a classical verdict is the quantum one on the
diagonal states); the ``verify_*`` functions check supplied witnesses for
the four definitional forms.  Witness *synthesis* is deliberately not
provided: we only decide compatibility and verify witnesses handed to us.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError
from .linalg import (
    EXACT_TOL, SUM_TOL, SUPPORT_TOL, Subspace, Tolerances, _checked_states, _hermitian, _integer,
    _judged, _rank_cut, _reals, _state, as_matrix, max_norm, subspace_intersection,
)
from .regions import HybridState, _possible, quantum_bayes


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Distribution over a finite ordered outcome set."""

    outcomes: tuple
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        p = _reals(self.probs, "probability").reshape(-1)
        if len(outcomes) != p.size:
            raise ValueError("outcomes and probs have different lengths")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("duplicate outcome labels")
        if np.any(p < -SUPPORT_TOL):
            raise ValueError(f"negative probability {p.min():g}")
        if abs(p.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))

    def support(self):
        """The outcomes above ``_rank_cut`` at ``Tolerances.rank_tol``: the diagonal state's."""
        cut = _rank_cut(self.probs, Tolerances.rank_tol)
        return {o for o, p in zip(self.outcomes, self.probs) if p > cut}

    @classmethod
    def uniform(cls, outcomes) -> "ProbabilityDistribution":
        outcomes = tuple(outcomes)
        return cls(outcomes, np.full(len(outcomes), 1.0 / len(outcomes)))


@dataclass(frozen=True, eq=False)
class ConditionalDistribution:
    """Table P(X=x | Y=y), column-stochastic in y.

    ``table[x, y]`` indexes outcome x of X (rows) and y of Y (columns).
    """

    given_outcomes: tuple
    out_outcomes: tuple
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = _reals(self.table, "conditional probability")
        gy = tuple(self.given_outcomes)
        ox = tuple(self.out_outcomes)
        if t.shape != (len(ox), len(gy)):
            raise ValueError(f"table shape {t.shape} != (|X|, |Y|) = ({len(ox)}, {len(gy)})")
        if len(set(gy)) != len(gy) or len(set(ox)) != len(ox):
            raise ValueError("duplicate outcome labels")
        if np.any(t < -SUPPORT_TOL):
            raise ValueError("negative conditional probability")
        colsums = t.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > SUM_TOL):
            raise ValueError(f"columns must sum to 1, got {colsums}")
        object.__setattr__(self, "given_outcomes", gy)
        object.__setattr__(self, "out_outcomes", ox)
        object.__setattr__(self, "table", np.clip(t, 0.0, None))


@dataclass(frozen=True)
class CompatibilityVerdict:
    """Outcome of a compatibility decision.

    ``intersection`` is the shared-support outcome set (classical) or the
    support-intersection Subspace (quantum); compatible iff it is nonempty.
    """

    compatible: bool
    intersection: object
    diagnostics: str = ""

    def intersection_rank(self) -> int:
        if isinstance(self.intersection, Subspace):
            return self.intersection.rank
        return len(self.intersection)


def classical_compatible(
    q1: ProbabilityDistribution, q2: ProbabilityDistribution
) -> CompatibilityVerdict:
    """Support-overlap decision: compatible iff some outcome lies in both supports
    (``ProbabilityDistribution.support``), as ``quantum_compatible`` decides on the
    diagonal states; the intersection names the shared outcomes."""
    if q1.outcomes != q2.outcomes:
        raise InvalidParameterError("distributions are over different outcome sets")
    shared = sorted(q1.support() & q2.support(), key=q1.outcomes.index)
    msg = f"shared support {shared}" if shared else "supports are disjoint"
    return CompatibilityVerdict(bool(shared), tuple(shared), msg)


def quantum_compatible(s1, s2, tol: Tolerances = Tolerances()) -> CompatibilityVerdict:
    """Support-overlap decision for density operators: compatible iff the
    geometric intersection of the two supports is nonzero, each support cut
    at ``tol.rank_tol``.  Directions at a principal angle with
    cos >= 1 - SUBSPACE_TOL count as shared, so two pure states up to
    sqrt(2e-8) = 1.41e-4 rad apart are compatible.  An input that is not
    Hermitian within ``tol.herm_tol`` (relative) or not PSD raises
    InvalidParameterError.  A state that one Cholesky certifies positive
    definite is not decomposed: its support is the whole space, in the
    identity basis; any other state goes through one ``eigh``.  A state or pair
    of states among the last operands checked is not checked or judged again, so
    the same pair can return the same verdict object; its basis is read-only."""
    return _judged(*_checked_states(tol, s1=s1, s2=s2), _support_verdict)


def _support_verdict(p: Subspace, q: Subspace) -> CompatibilityVerdict:
    """The quantum verdict from two supports already in hand."""
    inter = subspace_intersection(p, q)
    if inter.is_empty:
        return CompatibilityVerdict(False, inter, "supports intersect only at the origin")
    return CompatibilityVerdict(True, inter, f"support intersection has rank {inter.rank}")


def verify_objective_classical(
    q1: ProbabilityDistribution, q2: ProbabilityDistribution, joint: np.ndarray, x1: int, x2: int
) -> bool:
    """Check a witness for objective classical compatibility.

    ``joint`` is P(Y, X1, X2) as an array of shape (|Y|, |X1|, |X2|) with Y
    indexed in the order of ``q1.outcomes``.  True iff the joint weight of
    (x1, x2) exceeds EXACT_TOL and both conditional slices P(Y | Xi=xi)
    reproduce the respective assignment within EXACT_TOL: the answer of
    ``verify_objective_quantum`` on the diagonal states, with blocks diag P(Y, a, b).
    """
    if q1.outcomes != q2.outcomes:
        raise InvalidParameterError("distributions are over different outcome sets")
    p = np.asarray(joint, dtype=float)
    if p.ndim != 3 or p.shape[0] != len(q1.outcomes):
        raise DimensionMismatchError(f"joint must have shape (|Y|, |X1|, |X2|), got {p.shape}")
    if not (0 <= _integer(x1, "x1") < p.shape[1] and 0 <= _integer(x2, "x2") < p.shape[2]):
        raise InvalidParameterError(f"outcome ({x1}, {x2}) absent from joint of shape {p.shape}")
    if abs(p.sum() - 1.0) > EXACT_TOL or np.any(p < -EXACT_TOL):
        raise InvalidParameterError("joint is not a normalized distribution")
    blocks = {(a, b): np.diag(p[:, a, b]) for a in range(p.shape[1]) for b in range(p.shape[2])}
    hybrid = HybridState(p.shape[1:], blocks, normalized=False)
    return verify_objective_quantum(np.diag(q1.probs), np.diag(q2.probs), hybrid, x1, x2)


def _out_row(cond: ConditionalDistribution, x, what: str) -> int:
    """``x`` as a row of ``cond.table``, once it is the index of an outcome of X."""
    if not 0 <= _integer(x, what) < len(cond.out_outcomes):
        raise InvalidParameterError(f"outcome {x} absent from the {len(cond.out_outcomes)} "
                                    "outcomes of X")
    return int(x)


def classical_bayes_posterior(
    prior: ProbabilityDistribution, cond: ConditionalDistribution, x: int
) -> tuple[ProbabilityDistribution, float]:
    """(posterior over Y, predictive probability w) for observing X = x: the diagonal
    of ``quantum_bayes`` on the diagonal states.  ImpossibleConditioningError, with
    ``quantum_bayes``'s message, when w is at most SUPPORT_TOL."""
    like = cond.table[_out_row(cond, x, "x"), :]
    unnorm = like * prior.probs
    w = _possible(float(unnorm.sum()))
    return ProbabilityDistribution(prior.outcomes, unnorm / w), w


def verify_subjective_classical(
    q1: ProbabilityDistribution, q2: ProbabilityDistribution, cond: ConditionalDistribution,
    x_tilde: int,
) -> bool:
    """Check a witness for subjective classical compatibility.

    True iff every predictive probability exceeds EXACT_TOL for both agents
    (condition 1) and the two Bayes posteriors agree at ``x_tilde`` within
    EXACT_TOL: ``verify_subjective_quantum`` on the diagonal states and
    likelihoods.  A vanishing predictive probability is a failed condition,
    not an error.
    """
    if cond.given_outcomes != q1.outcomes or q1.outcomes != q2.outcomes:
        raise InvalidParameterError("conditional table and priors disagree on Out(Y)")
    x_tilde = _out_row(cond, x_tilde, "x_tilde")
    likelihoods = {x: np.diag(row) for x, row in enumerate(cond.table)}
    return verify_subjective_quantum(np.diag(q1.probs), np.diag(q2.probs), likelihoods, x_tilde)


def verify_objective_quantum(s1, s2, hybrid: HybridState, x1: int, x2: int) -> bool:
    """Check a witness for objective quantum compatibility.

    ``hybrid`` is a hybrid state over two classical registers (X1, X2) and
    the quantum region.  True iff the classical weight at (x1, x2) exceeds
    EXACT_TOL and each conditional state rho_{B | Xi = xi} (marginalizing
    the other register, then normalizing) equals the corresponding
    assignment within EXACT_TOL in max-norm.  The states are checked as
    ``quantum_compatible`` checks them, and a state whose dim is not the
    hybrid's quantum dim is DimensionMismatchError.
    """
    if len(hybrid.classical_dims) != 2:
        raise InvalidParameterError("witness hybrid must carry exactly two classical registers")
    d1, d2 = hybrid.classical_dims
    if not (0 <= _integer(x1, "x1") < d1 and 0 <= _integer(x2, "x2") < d2):
        raise InvalidParameterError(f"outcome ({x1}, {x2}) absent from registers "
                                    f"{hybrid.classical_dims}")
    (s1, *_), (s2, *_) = _checked_states(Tolerances(), s1=s1, s2=s2)
    if {s1.shape, s2.shape} != {(hybrid.quantum_dim,) * 2}:
        raise DimensionMismatchError("states and witness act on different dims")
    if hybrid.classical_weight((x1, x2)) <= EXACT_TOL:  # condition 1
        return False
    cond1 = sum(hybrid.block((x1, b)) for b in range(d2))
    cond2 = sum(hybrid.block((a, x2)) for a in range(d1))
    for sigma, block in ((s1, cond1), (s2, cond2)):
        w = float(np.real(np.trace(block)))
        if w <= EXACT_TOL or max_norm(block / w - sigma) > EXACT_TOL:
            return False
    return True


def verify_subjective_quantum(s1, s2, likelihoods, x_tilde) -> bool:
    """Check a witness for subjective quantum compatibility.

    ``likelihoods`` maps outcomes x to PSD operators on the states' space
    summing to the identity within EXACT_TOL (a valid measurement: their
    square roots pass ``KrausChannel``'s trace-preservation check); an
    effect that is not Hermitian and PSD is InvalidParameterError, and the
    states are checked as ``quantum_compatible`` checks them.  True iff every
    predictive probability Tr(likelihood(x) s_i) exceeds EXACT_TOL and the
    quantum Bayes posteriors of the two agents agree at ``x_tilde`` within
    EXACT_TOL in max-norm.
    """
    s1, s2 = as_matrix(s1), as_matrix(s2)
    ops = {x: as_matrix(m) for x, m in dict(likelihoods).items()}
    if x_tilde not in ops:
        raise InvalidParameterError(f"outcome {x_tilde!r} absent from likelihoods")
    if {m.shape for m in ops.values()} | {s2.shape} != {s1.shape}:
        raise DimensionMismatchError("likelihoods and states act on different dims")
    total = sum(ops.values())
    if not max_norm(total - np.eye(total.shape[0])) <= EXACT_TOL:  # NaN too
        raise InvalidParameterError("likelihoods do not sum to the identity")
    _checked_states(Tolerances(), s1=s1, s2=s2)
    for x, m in ops.items():
        _state(_hermitian(m, name := f"likelihood {x!r}"), name, Tolerances.rank_tol)
    for sigma in (s1, s2):
        for m in ops.values():
            if float(np.real(np.trace(m @ sigma))) <= EXACT_TOL:
                return False
    post1 = quantum_bayes(ops[x_tilde], s1)
    post2 = quantum_bayes(ops[x_tilde], s2)
    return max_norm(post1 - post2) <= EXACT_TOL
