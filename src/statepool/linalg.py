"""Dense complex linear algebra primitives.

Everything downstream (conditional states, compatibility, pooling) is built
on the handful of spectral operations collected here: tensor products,
partial traces, support projectors, PSD square roots, Moore-Penrose
pseudo-inverses and geometric subspace intersections.

Operators are plain complex numpy arrays.  All spectral routines force
Hermitian symmetrization before calling ``eigh`` so that numerical
Hermiticity drift cannot cascade through a computation.  The library
targets desk-scale dimensions (<= 64), dense storage only.

Conventions
-----------
* ``tensor(a, b)`` is the Kronecker product with the LEFT factor as the
  FIRST region: index ``i*dim(b) + j`` of the product corresponds to basis
  state ``|i>|j>``.
* At most one ``eigh`` per operator: support, pseudo-inverse, PSD test and
  PSD square root all derive from one ``Spectrum``.  Its rank cut, written
  once in ``Spectrum.of``, keeps ``|w| > rank_tol * max|w|``; PSD means
  ``min w >= -PSD_TOL * max(max|w|, 1)`` (``_psd_floor``), and eigenvalues
  between that floor and zero are clamped to zero.  A scenario's prior is
  checked once: the density check hands its ``Spectrum`` on to pooling.
* An operator one Cholesky certifies full rank (``_certified_full_rank``)
  needs no ``eigh``: the certificate holds only where the cut above would
  keep every eigenvalue, so the operator is positive definite, its support
  is the whole space, ``Subspace.full``, in the identity basis, and its
  pseudo-inverse is its inverse, which pooling applies with one LU solve.
  ``support_projector``, the input check of ``quantum_compatible`` and
  ``quantum_pool`` (every state, the prior included), the density check and
  the evolved pooling prior share that routine, ``_uncertified_spectrum``;
  a state it cannot certify falls back to ``Spectrum.of``.
* A caller sets ``rank_tol`` and ``herm_tol`` through one ``Tolerances``
  record, which rejects a NaN, infinite or negative value, or ``rank_tol >= 1``,
  as InvalidParameterError (CLI exit 2), never a verdict.  Every other
  threshold is a constant named below.  Hermiticity has one relative rule,
  ``check_hermitian``; ``hermitize`` only symmetrizes.
* Subspaces intersect along their principal angles: the singular values of
  ``B1† B2`` are their cosines, and directions with ``cos >= 1 - tol`` are
  shared, the criterion ``eig(P + Q) >= 2 - tol`` on an r1 x r2 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, NotPSDError

PSD_TOL = 1e-8  # eigenvalue floor of every PSD decision, relative to max(max|w|, 1)
TRACE_TOL = 1e-8  # |Tr - 1| allowed for a unit-trace operator
SUBSPACE_TOL = 1e-8  # orthonormality, principal-angle cut and containment of subspaces


@dataclass(frozen=True)
class Tolerances:
    """The settable thresholds: relative rank cut, relative Hermiticity tolerance."""

    rank_tol: float = 1e-10
    herm_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.rank_tol < 1.0:  # also rejects NaN
            raise InvalidParameterError(f"rank_tol {self.rank_tol!r} outside [0, 1)")
        if not 0.0 <= self.herm_tol < np.inf:
            raise InvalidParameterError(f"herm_tol {self.herm_tol!r} is not a finite value >= 0")


def _psd_floor(w) -> float:
    """The most negative eigenvalue a PSD operator with nonempty spectrum ``w`` may have."""
    return -PSD_TOL * max(float(np.max(np.abs(w))), 1.0)


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def max_norm(m) -> float:
    """Entrywise max-abs norm."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def hermitize(m) -> np.ndarray:
    """The symmetrization (M + M†)/2; ``check_hermitian`` decides whether M was Hermitian."""
    a = as_matrix(m)
    return (a + a.conj().T) / 2


def check_hermitian(m, name: str, tol: float = Tolerances.herm_tol) -> None:
    """Raise InvalidParameterError unless max_norm(M - M†) <= tol * max(max_norm(M), 1)."""
    residual = max_norm(m - m.conj().T)
    if residual > tol and residual > tol * max(max_norm(m), 1.0):  # the scale is >= 1
        raise InvalidParameterError(f"{name} is not Hermitian (residual {residual:.3e})")


def _checked_states(tol: Tolerances, spectra=(), **states) -> list:
    """(symmetrized matrix, Spectrum cut at ``tol.rank_tol`` or None) for each
    state named in ``spectra`` and (matrix, support) for every other, once all
    are square matrices of one shape, Hermitian within ``tol.herm_tol`` and
    PSD; else an error that names the first offending state, Hermiticity of
    every state before PSD.  A state is decomposed only if
    ``_uncertified_spectrum`` cannot certify it positive definite; a
    certified state in ``spectra`` comes with None."""
    mats = {name: as_matrix(m) for name, m in states.items()}
    if len({m.shape for m in mats.values()}) > 1:
        raise DimensionMismatchError(f"states {', '.join(mats)} have different dims")
    for name, m in mats.items():
        check_hermitian(m, name, tol.herm_tol)
    hermitian = {name: hermitize(m) for name, m in mats.items()}
    found = {name: _uncertified_spectrum(h, tol.rank_tol) for name, h in hermitian.items()}
    for name, s in found.items():
        if s is not None and not s.is_psd():
            raise InvalidParameterError(f"{name} is not PSD (eigenvalue {s.w.min():.3e})")
    return [(hermitian[name], s) if name in spectra else
            (mats[name], Subspace.full(mats[name].shape[0]) if s is None else s.support())
            for name, s in found.items()]


def _density_spectrum(rho, rank_tol: float = Tolerances.rank_tol):
    """The checked prior (Hermitian within the default ``herm_tol``, PSD, unit
    trace), symmetrized, with negatives above the PSD floor clamped to zero,
    and the Spectrum of exactly that matrix, cut at ``rank_tol``; None in its
    place when one Cholesky certifies the prior positive definite."""
    ((h, s),) = _checked_states(Tolerances(rank_tol), ("prior",), prior=rho)
    tr = float(np.real(np.trace(h)))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density operator has trace {tr!r}, expected 1")
    if s is None or s.w.min() >= 0.0:
        return h, s
    clamped = s.psd_function(lambda w: w)
    return clamped, Spectrum.of(clamped, rank_tol)


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor first."""
    out = as_matrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_matrix(op))
    return out


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` are the factor dimensions (product must equal dim(m)); ``keep``
    is an iterable of factor indices.  The result acts on the kept factors
    in their original order, and Tr(result) == Tr(m).
    """
    a = as_matrix(m)
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != a.shape[0]:
        raise DimensionMismatchError(
            f"product of dims {dims} != matrix dimension {a.shape[0]}"
        )
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {len(dims)} factors")
    n = len(dims)
    t = a.reshape(dims + dims)
    # trace out discarded factors from the highest index down so positions stay valid
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + t.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def permute_factors(m, dims, perm) -> np.ndarray:
    """Reorder tensor factors: factor ``perm[i]`` of the input becomes factor ``i``."""
    a = as_matrix(m)
    dims = [int(d) for d in dims]
    n = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    t = a.reshape(dims + dims)
    t = t.transpose(perm + [n + p for p in perm])
    return t.reshape(a.shape)


def embed(op, dims, positions) -> np.ndarray:
    """Embed ``op`` (acting on the factors ``positions``, in that order) into
    the full product space described by ``dims``, tensoring identities on
    every other factor."""
    a = as_matrix(op)
    dims = [int(d) for d in dims]
    positions = [int(p) for p in positions]
    d_pos = int(np.prod([dims[p] for p in positions]))
    if a.shape[0] != d_pos:
        raise DimensionMismatchError(
            f"operator dim {a.shape[0]} != product of factor dims {d_pos}"
        )
    rest = [i for i in range(len(dims)) if i not in positions]
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(a, np.eye(d_rest))
    # big currently has factor order positions + rest; permute back
    order = positions + rest
    inv = [order.index(i) for i in range(len(dims))]
    return permute_factors(big, [dims[i] for i in order], inv)


def sqrt_psd(h) -> np.ndarray:
    """PSD square root via spectral decomposition.

    Eigenvalues in [-PSD_TOL*scale, 0) are clamped to zero; anything more
    negative raises NotPSDError.
    """
    s = Spectrum.of(h)
    if not s.is_psd():
        raise NotPSDError(f"not PSD: eigenvalue {s.w.min():.3e}")
    return s.psd_function(np.sqrt)


def pseudo_inverse(h, rank_tol: float = Tolerances.rank_tol) -> np.ndarray:
    """Moore-Penrose inverse of a Hermitian operator, restricted to its support."""
    return Spectrum.of(h, rank_tol).pinv()


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim given by an orthonormal basis (columns)."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)  # shape (ambient_dim, rank)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex).reshape(self.ambient_dim, -1)
        gram = b.conj().T @ b
        if max_norm(gram - np.eye(b.shape[1])) > SUBSPACE_TOL:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def is_empty(self) -> bool:
        return self.rank == 0

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def contains(self, vec, tol: float = SUBSPACE_TOL) -> bool:
        v = np.asarray(vec, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            return True
        return float(np.linalg.norm(self.projector() @ v - v)) <= tol * nrm

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """The whole space in the identity basis, built without the Gram check:
        the identity is exactly orthonormal."""
        full = object.__new__(cls)
        object.__setattr__(full, "ambient_dim", ambient_dim)
        object.__setattr__(full, "basis", np.eye(ambient_dim, dtype=complex))
        return full


@dataclass(frozen=True)
class Spectrum:
    """One eigendecomposition of a symmetrized operator: eigenvalues ``w``
    (ascending), eigenvector columns ``v``, and the rank cut: |w| > ``cut``
    spans the support."""

    w: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    cut: float

    @classmethod
    def of(cls, m, rank_tol: float = Tolerances.rank_tol) -> "Spectrum":
        return cls._of_hermitian(hermitize(m), rank_tol)

    @classmethod
    def _of_hermitian(cls, a: np.ndarray, rank_tol: float) -> "Spectrum":
        """``Spectrum.of`` a matrix already symmetrized, which it equals bit for bit."""
        w, v = np.linalg.eigh(a)
        return cls(w, v, rank_tol * float(np.max(np.abs(w))) if w.size else 0.0)

    @property
    def kept(self) -> np.ndarray:
        """Mask of the eigenvalues inside the support."""
        return np.abs(self.w) > self.cut

    def support(self) -> Subspace:
        """Span of the kept eigenvectors; the zero operator yields the empty subspace."""
        return Subspace(self.v.shape[0], self.v[:, self.kept])

    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse: 1/w on the support, 0 off it."""
        kept = self.kept
        inv = np.where(kept, 1.0 / np.where(kept, self.w, 1.0), 0.0)
        return (self.v * inv) @ self.v.conj().T

    def is_psd(self) -> bool:
        return bool(self.w.size == 0 or self.w.min() >= _psd_floor(self.w))

    def psd_function(self, f) -> np.ndarray:
        """f applied to the eigenvalues clamped at zero (callers check ``is_psd`` first)."""
        return (self.v * f(np.clip(self.w, 0.0, None))) @ self.v.conj().T


def support_projector(h, rank_tol: float = Tolerances.rank_tol) -> Subspace:
    """Span of eigenvectors with |eigenvalue| > rank_tol * max|eigenvalue|.

    The zero operator yields the empty subspace.  A matrix that
    ``_certified_full_rank`` proves full rank yields ``Subspace.full`` with
    no eigendecomposition; any other goes through ``Spectrum.of``.
    """
    a = hermitize(h)
    s = _uncertified_spectrum(a, rank_tol)
    return Subspace.full(a.shape[0]) if s is None else s.support()


def _uncertified_spectrum(a: np.ndarray, rank_tol: float) -> Spectrum | None:
    """None when ``_certified_full_rank`` proves the Hermitian ``a`` positive
    definite with every eigenvalue kept at ``rank_tol`` (so PSD, with the whole
    space as support), else ``Spectrum.of(a, rank_tol)``."""
    return None if _certified_full_rank(a, rank_tol) else Spectrum._of_hermitian(a, rank_tol)


def _certified_full_rank(a: np.ndarray, rank_tol: float) -> bool:
    """Whether one Cholesky proves that ``Spectrum.of(a, rank_tol)`` keeps every
    eigenvalue of the Hermitian matrix ``a``.

    With t = Tr a finite and positive, take c = (rank_tol + 4 d^2 eps) t and
    factor a - cI.  A Cholesky factor R that LAPACK completes satisfies
    R†R = a - cI + E with ||E||_2 <= gamma_{d+1} ||R||_F^2 = gamma_{d+1} Tr(R†R)
    (Higham, Accuracy and Stability, Thm 10.3), which is at most about
    (d + 1) u t, u = eps / 2.  R†R is PSD, so
        lambda_min(a) >= c - ||E||_2 >= rank_tol t + (4 d^2 eps - (d + 1) u) t > 0.
    So a is positive definite, and then ||a||_2 <= Tr a = t.  ``eigh`` returns
    each eigenvalue within a few d u ||a||_2 <= d u t of the exact one, so its
    smallest is above rank_tol t >= rank_tol max|w| by a margin the rest of
    the 8 d^2 u t slack covers, and its cut |w| > rank_tol max|w| keeps them
    all.  A zero, indefinite or rank-deficient matrix fails the factorization
    (or the trace test) and is left to ``eigh``; so is a full-rank one whose
    smallest eigenvalue lies within the slack of the cut.
    """
    d = a.shape[0]
    t = float(np.real(np.trace(a)))
    if not 0.0 < t < np.inf:
        return False
    shifted = a.copy()
    shifted.flat[:: d + 1] -= (rank_tol + 4 * d * d * np.finfo(float).eps) * t
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def subspace_intersection(p: Subspace, q: Subspace, tol: float = SUBSPACE_TOL) -> Subspace:
    """Geometric intersection of two subspaces, from their principal angles.

    The singular values of Bp† Bq are the cosines of the principal angles;
    directions with cos >= 1 - tol are shared, so at the default tol = 1e-8
    two lines up to sqrt(2 tol) = 1.41e-4 rad apart meet (1e-4 rad does,
    1.5e-4 rad does not).  A full subspace meets any other subspace in that
    subspace, with no decomposition.
    """
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {p.ambient_dim} vs {q.ambient_dim}"
        )
    if p.rank == p.ambient_dim or q.is_empty:
        return q
    if q.rank == q.ambient_dim or p.is_empty:
        return p
    u, cos, _ = np.linalg.svd(p.basis.conj().T @ q.basis, full_matrices=False)
    return Subspace(p.ambient_dim, p.basis @ u[:, cos >= 1.0 - tol])
