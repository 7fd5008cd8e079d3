"""State pooling: combining two agents' posteriors with their shared prior.

Quantum rule: pooled = c * s1 @ pinv(prior) @ s2, valid when the agents'
minimal sufficient statistics are conditionally independent given the system.
Classical rule, c * q1(y) q2(y) / prior(y): the quantum rule on diagonal states.
A non-Hermitian pooling product is diagnostic signal that the independence
precondition fails, so it is an error, never silently symmetrized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .compatibility import ProbabilityDistribution, _support_verdict
from .errors import (
    DimensionMismatchError, IncompatibleAssignmentsError, InvalidParameterError,
    NonHermitianPoolingProductError, NotPSDError, PriorSupportError,
)
from .linalg import (
    EXACT_TOL, PROPORTIONALITY_TOL, SUBSPACE_TOL, Tolerances, _checked_states, _is_psd, _judged,
    as_matrix, max_norm,
)

_OVERFLOW = "pooling product overflows: inputs beyond float range"


@dataclass(frozen=True, eq=False)
class PoolingReport:
    """Pooled assignment plus every residual a caller might want to audit."""

    pooled: object  # DensityOperator matrix or ProbabilityDistribution
    normalization_c: float
    hermiticity_residual: float = 0.0
    min_eigenvalue: float = 0.0
    precondition_checked: bool = False
    precondition_residual: float | None = None


@dataclass(frozen=True)
class SufficientStatistic:
    """Partition of the data outcomes into likelihood-equivalence classes."""

    source_outcomes: tuple
    classes: tuple  # tuple of frozensets covering source_outcomes

    def __post_init__(self):
        outcomes = tuple(self.source_outcomes)
        classes = tuple(frozenset(c) for c in self.classes)
        seen = [x for c in classes for x in c]
        if sorted(seen) != sorted(outcomes) or len(seen) != len(set(seen)):
            raise ValueError("classes must partition the outcome set")
        object.__setattr__(self, "source_outcomes", outcomes)
        object.__setattr__(self, "classes", classes)


def classical_pool(
    prior: ProbabilityDistribution, q1: ProbabilityDistribution, q2: ProbabilityDistribution
) -> PoolingReport:
    """``quantum_pool`` on the diagonal states at the default ``Tolerances``, its pooled
    diagonal read back over ``prior.outcomes``.  Different outcome sets are
    InvalidParameterError; then, each support cut by ``ProbabilityDistribution.support``,
    PriorSupportError if either posterior's support escapes the prior's, else
    IncompatibleAssignmentsError if the two are disjoint."""
    if not (prior.outcomes == q1.outcomes == q2.outcomes):
        raise InvalidParameterError("distributions are over different outcome sets")
    r = quantum_pool(*(np.diag(q.probs) for q in (prior, q1, q2)))
    return replace(r, pooled=ProbabilityDistribution(prior.outcomes, np.diagonal(r.pooled).real))


def quantum_pool(prior, s1, s2, tol: Tolerances = Tolerances()) -> PoolingReport:
    """Pool two quantum posteriors against their shared prior.

    Forms T = s1 @ pinv(prior) @ s2, with every support cut at ``tol.rank_tol``.
    If T is Hermitian within the relative tolerance ``tol.herm_tol``, the pooled
    state is (T + T†)/(2 Tr T) with c = 1/Tr(T); otherwise
    NonHermitianPoolingProductError carries the residual, signalling a failed
    conditional-independence precondition.  Inputs that are themselves not
    Hermitian within ``tol.herm_tol`` (on the same relative scale) or not PSD
    raise InvalidParameterError.  A state that one Cholesky certifies positive
    definite is not decomposed: a posterior's support is then the whole
    space, and the prior's pseudo-inverse is its inverse, applied to s2 with
    one LU solve.  Any other state is decomposed once.  A state among the last
    operands checked, as a posterior just judged by ``quantum_compatible`` is, is
    not checked again, and that pair's verdict is not made again.
    """
    (_, _, prior_op, _), first, second = _checked_states(tol, prior=prior, s1=s1, s2=s2)
    (a, _, _, supp1), (b, _, _, supp2) = first, second
    return _pool(prior_op, a, b, supp1, supp2, _judged(first, second, _support_verdict), tol)


def _pool(prior, a, b, supp1, supp2, verdict, tol: Tolerances) -> PoolingReport:
    """``quantum_pool`` from the prior's clamped ``_spectrum``, the posteriors, their
    supports and ``verdict``, the compatibility of those supports.  A full-rank
    prior's support holds both supports.  An overflowing product is not warned
    about: its non-finite entries are InvalidParameterError."""
    if not prior.full_rank:
        proj = prior.support().projector()
        for name, supp in (("s1", supp1), ("s2", supp2)):
            if max_norm(proj @ supp.projector() @ proj - supp.projector()) > SUBSPACE_TOL:
                raise PriorSupportError(f"support of {name} escapes the prior's support")
    if not verdict.compatible:
        raise IncompatibleAssignmentsError("incompatible assignments: disjoint supports")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            t = prior.pool_product(a, b)
        except np.linalg.LinAlgError:  # positive definite, so only non-finite pivots fail
            raise InvalidParameterError(_OVERFLOW) from None
    if not np.isfinite(t).all():
        raise InvalidParameterError(_OVERFLOW)
    if not t.any():  # the supports meet, so only underflow leaves nothing
        raise InvalidParameterError("pooling product underflows: inputs beyond float range")
    scale = max(max_norm(t), 1.0)
    residual = max_norm(t - t.conj().T)
    if residual > tol.herm_tol * scale:
        raise NonHermitianPoolingProductError(residual / scale)
    tr = float(t.trace().real)
    if tr <= 0:
        raise IncompatibleAssignmentsError(f"pooling product has nonpositive trace {tr:g}")
    pooled = (t + t.conj().T) / (2.0 * tr)
    w = np.linalg.eigvalsh(pooled)  # ascending
    if not _is_psd(w):
        raise NotPSDError(f"negative pooled eigenvalue beyond tolerance: {w.min():.3e}")
    return PoolingReport(
        pooled=pooled,
        normalization_c=1.0 / tr,
        hermiticity_residual=residual / scale,
        min_eigenvalue=float(w.min()),
    )


def _proportionality_classes(vectors, norm_of):
    """Group keys by proportionality of their vectors within PROPORTIONALITY_TOL;
    zero vectors form their own class."""
    classes = []  # (normalized representative, or None for the zero class; keys)
    for k, v in vectors.items():
        n = norm_of(v)
        rep = None if n <= PROPORTIONALITY_TOL else v / n
        for r, keys in classes:
            if (r is None and rep is None) or (
                r is not None and rep is not None and max_norm(rep - r) <= PROPORTIONALITY_TOL
            ):
                keys.add(k)
                break
        else:
            classes.append((rep, {k}))
    return [keys for _, keys in classes]


def minimal_sufficient_statistic(cond) -> SufficientStatistic:
    """Minimal sufficient statistic of a conditional table P(X | Y).

    Outcomes x, x' land in the same class iff their likelihood vectors
    P(X=x | Y=.) are proportional within PROPORTIONALITY_TOL
    (likelihood-ratio equivalence, normalized by the vector sum).
    """
    table = np.asarray(cond.table, dtype=float)
    outcomes = cond.out_outcomes
    vectors = {x: table[i, :] for i, x in enumerate(outcomes)}
    classes = _proportionality_classes(vectors, lambda v: float(v.sum()))
    return SufficientStatistic(outcomes, tuple(frozenset(c) for c in classes))


def quantum_minimal_sufficient_statistic(likelihoods) -> SufficientStatistic:
    """Minimal sufficient statistic of a family of PSD likelihood operators.

    Outcomes are grouped by operator proportionality: trace-normalize and
    compare in max-norm, within PROPORTIONALITY_TOL.  Zero operators form
    their own class (warned).
    """
    import warnings

    ops = {x: as_matrix(m) for x, m in dict(likelihoods).items()}
    dims = {m.shape for m in ops.values()}
    if len(dims) > 1:
        raise DimensionMismatchError(f"likelihood operators have differing dims {dims}")
    if any(max_norm(m) <= PROPORTIONALITY_TOL for m in ops.values()):
        warnings.warn("zero likelihood operator forms its own statistic class")
    classes = _proportionality_classes(ops, lambda m: float(np.real(np.trace(m))))
    return SufficientStatistic(tuple(ops), tuple(frozenset(c) for c in classes))


def check_conditional_independence(h1, h2, joint):
    """Check the factorization joint(a, b) == h1(a) @ h2(b), within EXACT_TOL
    in max-norm, over all class pairs.

    ``h1``/``h2`` map statistic classes to conditional operators on the
    quantum region; ``joint`` maps class pairs to the joint conditional
    operator.  Returns (ok, residual, reversed_residual) where residual is
    the max-norm defect of the written order (h1 left) and
    reversed_residual that of the reversed product, reported for
    diagnostics.
    """
    h1 = {k: as_matrix(m) for k, m in dict(h1).items()}
    h2 = {k: as_matrix(m) for k, m in dict(h2).items()}
    joint = {tuple(k): as_matrix(m) for k, m in dict(joint).items()}
    residual = 0.0
    reversed_residual = 0.0
    for a in h1:
        for b in h2:
            if (a, b) not in joint:
                raise KeyError(f"missing class pair ({a!r}, {b!r}) in joint")
            residual = max(residual, max_norm(joint[(a, b)] - h1[a] @ h2[b]))
            reversed_residual = max(
                reversed_residual, max_norm(joint[(a, b)] - h2[b] @ h1[a])
            )
    return residual <= EXACT_TOL, residual, reversed_residual
