"""State pooling: combining two agents' posteriors with their shared prior.

Classical rule: pooled(y) = c * q1(y) q2(y) / prior(y) on the prior's
support.  Quantum rule: pooled = c * s1 @ pinv(prior) @ s2, valid when the
agents' minimal sufficient statistics are conditionally independent given
the system.  A non-Hermitian pooling product is diagnostic signal that the
independence precondition fails, so it is an error, never silently
symmetrized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compatibility import SUPPORT_TOL, ProbabilityDistribution, _support_verdict
from .errors import (
    DimensionMismatchError, IncompatibleAssignmentsError, InvalidParameterError,
    NonHermitianPoolingProductError, NotPSDError, PriorSupportError,
)
from .linalg import (
    SUBSPACE_TOL, Tolerances, _checked_states, _psd_floor, as_matrix, max_norm,
)

PROPORTIONALITY_TOL = 1e-9  # max-norm after trace normalization
_OVERFLOW = "pooling product overflows: inputs beyond float range"


@dataclass(frozen=True)
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
    prior: ProbabilityDistribution,
    q1: ProbabilityDistribution,
    q2: ProbabilityDistribution,
    support_tol: float = SUPPORT_TOL,
) -> PoolingReport:
    """Pool two classical posteriors against their shared prior.

    Entrywise q1*q2/prior on the prior's support, renormalized.  Raises
    IncompatibleAssignmentsError when the posteriors' supports are disjoint
    and PriorSupportError when their overlap escapes the prior's support
    (Bayesian updating cannot resurrect zero-prior outcomes).
    """
    if not (prior.outcomes == q1.outcomes == q2.outcomes):
        raise InvalidParameterError("distributions are over different outcome sets")
    overlap = q1.support(support_tol) & q2.support(support_tol)
    if not overlap:
        raise IncompatibleAssignmentsError("agents incompatible, no pooled state")
    if overlap - prior.support(support_tol):
        raise PriorSupportError(
            f"prior excludes jointly supported outcome(s) {sorted(overlap - prior.support(support_tol))}"
        )
    on_support = prior.probs > support_tol
    unnorm = np.where(on_support, q1.probs * q2.probs / np.where(on_support, prior.probs, 1.0), 0.0)
    total = float(unnorm.sum())
    pooled = ProbabilityDistribution(prior.outcomes, unnorm / total)
    return PoolingReport(
        pooled=pooled,
        normalization_c=1.0 / total,
        min_eigenvalue=float(pooled.probs.min()),
    )


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
    one LU solve.  Any other state is decomposed once.
    """
    (h, prior_spectrum), (a, supp1), (b, supp2) = _checked_states(
        tol, ("prior",), prior=prior, s1=s1, s2=s2)
    return _pool(h, prior_spectrum, a, b, supp1, supp2, None, tol)


def _product(prior, prior_spectrum, a, b) -> np.ndarray:
    """The pooling product a prior⁺ b: ``a @ solve(prior, b)`` when
    ``prior_spectrum`` is None (a prior certified positive definite), else
    ``a @ prior_spectrum.pinv() @ b``.  Overflow is not warned about: it
    leaves non-finite entries, which the caller reports as InvalidParameterError."""
    with np.errstate(over="ignore", invalid="ignore"):
        if prior_spectrum is not None:
            return a @ prior_spectrum.pinv() @ b
        try:
            return a @ np.linalg.solve(prior, b)
        except np.linalg.LinAlgError:  # positive definite, so only non-finite pivots fail
            raise InvalidParameterError(_OVERFLOW) from None


def _pool(prior, prior_spectrum, a, b, supp1, supp2, verdict, tol: Tolerances) -> PoolingReport:
    """``quantum_pool`` from the symmetrized prior and its spectrum (None for a
    prior certified positive definite) and the posteriors' supports; ``verdict``
    is their compatibility when the caller has decided it, else None.  A
    full-rank prior's support is the whole space, which holds both supports."""
    if prior_spectrum is not None and not prior_spectrum.kept.all():
        proj = prior_spectrum.support().projector()
        for name, supp in (("s1", supp1), ("s2", supp2)):
            if max_norm(proj @ supp.projector() @ proj - supp.projector()) > SUBSPACE_TOL:
                raise PriorSupportError(f"support of {name} escapes the prior's support")
    if not (verdict or _support_verdict(supp1, supp2)).compatible:
        raise IncompatibleAssignmentsError("incompatible assignments: disjoint supports")
    t = _product(prior, prior_spectrum, a, b)
    if not np.isfinite(t).all():
        raise InvalidParameterError(_OVERFLOW)
    if not t.any():  # the supports meet, so only underflow leaves nothing
        raise InvalidParameterError("pooling product underflows: inputs beyond float range")
    scale = max(max_norm(t), 1.0)
    residual = max_norm(t - t.conj().T)
    if residual > tol.herm_tol * scale:
        raise NonHermitianPoolingProductError(residual / scale)
    tr = float(np.real(np.trace(t)))
    if tr <= 0:
        raise IncompatibleAssignmentsError(f"pooling product has nonpositive trace {tr:g}")
    pooled = (t + t.conj().T) / (2.0 * tr)
    w = np.linalg.eigvalsh(pooled)
    if w.min() < _psd_floor(w):
        raise NotPSDError(f"negative pooled eigenvalue beyond tolerance: {w.min():.3e}")
    return PoolingReport(
        pooled=pooled,
        normalization_c=1.0 / tr,
        hermiticity_residual=residual / scale,
        min_eigenvalue=float(w.min()),
    )


def _proportionality_classes(vectors, norm_of, tol):
    """Group keys by proportionality of their vectors; zero vectors form their own class."""
    classes = []  # (normalized representative, or None for the zero class; keys)
    for k, v in vectors.items():
        n = norm_of(v)
        rep = None if n <= tol else v / n
        for r, keys in classes:
            if (r is None and rep is None) or (
                r is not None and rep is not None and max_norm(rep - r) <= tol
            ):
                keys.add(k)
                break
        else:
            classes.append((rep, {k}))
    return [keys for _, keys in classes]


def minimal_sufficient_statistic(
    cond, tol: float = PROPORTIONALITY_TOL
) -> SufficientStatistic:
    """Minimal sufficient statistic of a conditional table P(X | Y).

    Outcomes x, x' land in the same class iff their likelihood vectors
    P(X=x | Y=.) are proportional within ``tol`` (likelihood-ratio
    equivalence, normalized by the vector sum).
    """
    table = np.asarray(cond.table, dtype=float)
    outcomes = cond.out_outcomes
    vectors = {x: table[i, :] for i, x in enumerate(outcomes)}
    classes = _proportionality_classes(vectors, lambda v: float(v.sum()), tol)
    return SufficientStatistic(outcomes, tuple(frozenset(c) for c in classes))


def quantum_minimal_sufficient_statistic(
    likelihoods, tol: float = PROPORTIONALITY_TOL
) -> SufficientStatistic:
    """Minimal sufficient statistic of a family of PSD likelihood operators.

    Outcomes are grouped by operator proportionality: trace-normalize and
    compare in max-norm.  Zero operators form their own class (warned).
    """
    import warnings

    ops = {x: as_matrix(m) for x, m in dict(likelihoods).items()}
    dims = {m.shape for m in ops.values()}
    if len(dims) > 1:
        raise DimensionMismatchError(f"likelihood operators have differing dims {dims}")
    if any(max_norm(m) <= tol for m in ops.values()):
        warnings.warn("zero likelihood operator forms its own statistic class")
    classes = _proportionality_classes(
        ops, lambda m: float(np.real(np.trace(m))), tol
    )
    return SufficientStatistic(tuple(ops), tuple(frozenset(c) for c in classes))


def check_conditional_independence(h1, h2, joint, tol: float = 1e-10):
    """Check the factorization joint(a, b) == h1(a) @ h2(b) over all class pairs.

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
    return residual <= tol, residual, reversed_residual


def pooled_map(assign1, assign2, **kwargs):
    """Closure form of the pooled assignment: rho -> pool(rho, assign1(rho), assign2(rho)).

    ``assign1``/``assign2`` are deterministic maps from a prior to each
    agent's posterior (e.g. channel applications).  The returned map is
    non-linear in general: the matrix inverse does not distribute over
    sums and the posteriors themselves depend on the prior.  Pooling
    errors propagate from quantum_pool.
    """

    def gamma(rho) -> PoolingReport:
        return quantum_pool(rho, assign1(rho), assign2(rho), **kwargs)

    return gamma
