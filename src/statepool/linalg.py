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
* At most one ``eigh`` per operand value: support, pseudo-inverse, PSD test
  and PSD square root (``root``, made once, read-only) all derive from one
  ``Spectrum``.  Only this module touches the memo, which keeps the last
  ``_MEMO_KEPT`` values of two kinds that the Bayes chain hands to several
  calls: a checked state, keyed by its dtype, shape, bytes and ``Tolerances``
  (``_checked_states``, ``_checked_state``), and the verdict on an ordered
  pair of them (``_judged``).  So a prior given to ``quantum_bayes`` and
  ``quantum_pool`` is one entry, checked by one rule, with one root.  A hit,
  one probe, is the read-only value the miss made, so no result moves and
  nothing is checked twice.  An error is never kept, and the scenario path
  never reads the memo.  The rank cut, ``_rank_cut``, keeps
  ``|w| > rank_tol * max|w|``, also of a classical distribution, whose support
  is then its diagonal state's; PSD means ``min w >= -PSD_TOL * max(max|w|, 1)``
  (``_is_psd``), and eigenvalues between that floor and zero are clamped to
  zero.  All three are read off the ends of ``eigh``'s (or ``eigvalsh``'s)
  ascending ``w`` (``_end_max``), with the bits of the whole-array rules; a
  ``Spectrum``'s clamp is itself when ``w[0] > 0``; its ``kept`` is made once.
* A checked state is one operand, ``_spectrum``: ``_FullRank`` when one
  Cholesky certifies it (``_certified_full_rank``), which holds only where
  the cut above keeps every eigenvalue, so it is positive definite with
  support ``Subspace.full`` and its inverse as pseudo-inverse, applied by
  one LU solve; else its ``Spectrum``.  Both answer ``is_psd``, ``clamped``,
  ``support``, ``full_rank``, ``pool_product`` and ``root``.  ``_state`` (``_psd``
  of ``_spectrum``) makes every state ``_checked_states`` or a scenario
  hands on, so ``pinv`` never inverts a clamped eigenvalue, no checked matrix
  is rebuilt, and a posterior's support never holds a direction its prior's
  drops; ``support_projector`` reads the unclamped support.  Every full support,
  a ``run_scenario`` verdict's included, shares one read-only identity basis
  per dim (``_identity``).
* A caller sets ``rank_tol`` and ``herm_tol`` through one ``Tolerances``
  record, which rejects a NaN, infinite or negative value, or ``rank_tol >= 1``,
  as InvalidParameterError (CLI exit 2), never a verdict.  Every other
  threshold is a constant named below, which no caller sets; the other
  modules import theirs from here.  Hermiticity has one relative rule,
  ``check_hermitian``; ``hermitize`` only symmetrizes.
* Subspaces intersect along their principal angles: the singular values of
  ``B1† B2`` are their cosines, and directions with ``cos >= 1 - SUBSPACE_TOL``
  are shared, the criterion ``eig(P + Q) >= 2 - SUBSPACE_TOL`` on an r1 x r2
  matrix.
* One rule decides what a scalar argument is, ``_integer`` and ``_real``:
  an integer is a Python or NumPy integer and a real number a
  ``numbers.Real``, neither a bool, and neither beyond float range; a
  string, a bool, None, a float where an integer is due or ``10**400`` is
  InvalidParameterError, never cast, truncated or coerced.  Every function
  taking a dim, an index, a seed, a strength or a tolerance calls one of
  them, and ``_reals`` applies ``_real`` to each entry of a probability array.
  Tensor factors have one rule, ``_factors``: a dim < 1 is InvalidParameterError,
  a position out of range or named twice DimensionMismatchError.
* An operand is admitted once, where it enters, by the rules here: ``as_matrix``
  (square, nonempty, finite), ``_hermitian`` (also Hermitian; symmetrized) and
  ``_psd`` (PSD; clamped), the last two naming it in their InvalidParameterError;
  private cores (``_sqrt_psd``, ``regions._star``) trust it.  ``_checked_states``'
  states and ``quantum_bayes``' likelihood stay raw, as their bits key the memo
  and enter products.  What the library builds
  itself (``Subspace.full``, eigenvector and principal-angle bases, Haar
  unitaries) is orthonormal or unitary to O(d eps), far inside the
  tolerances, and skips re-checks (``_trusted``).
* ``pseudo_inverse``, ``sqrt_psd`` and ``support_projector`` stay public
  although no module here calls them: ``Spectrum`` is not exported, and each
  gives a caller one spectral result without its eigenvectors and rank cut.
  Each checks its operand Hermitian (``_hermitian``), as ``star_product`` its ``phi``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError

PSD_TOL = 1e-8  # eigenvalue floor of every PSD decision, relative to max(max|w|, 1)
TRACE_TOL = 1e-8  # |Tr - 1| of a unit-trace operator
SUBSPACE_TOL = 1e-8  # orthonormality, principal-angle cut and containment of subspaces
SUPPORT_TOL = 1e-12  # a probability below -this is invalid; a predictive probability (a
# Bayes update's sum of L q, or Tr(L rho)) at most this is impossible.  It cuts no support.
SUM_TOL = 1e-12  # |sum - 1| of a probability vector or a column of a conditional table
EXACT_TOL = 1e-10  # slack of a relation exact for valid input: a witness's weights,
# conditionals and normalization, a factorization, unitarity, Kraus trace preservation and
# a measurement's sum to I, a hybrid joint's coherences across classical outcomes
PROPORTIONALITY_TOL = 1e-9  # max-norm between likelihoods after normalization
_FOUR_EPS = 4 * float(np.finfo(float).eps)  # a power of two, so d * d * _FOUR_EPS is exact


@dataclass(frozen=True)
class Tolerances:
    """The settable thresholds: relative rank cut, relative Hermiticity tolerance."""

    rank_tol: float = 1e-10
    herm_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_tol", "herm_tol"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not 0.0 <= self.rank_tol < 1.0:  # also rejects NaN
            raise InvalidParameterError(f"rank_tol {self.rank_tol!r} outside [0, 1)")
        if not 0.0 <= self.herm_tol < np.inf:
            raise InvalidParameterError(f"herm_tol {self.herm_tol!r} is not a finite value >= 0")


def _real(x, what: str) -> float:
    """``x`` as a float, once it is a real number, not a bool, within float range."""
    if isinstance(x, bool) or not isinstance(x, (float, int, numbers.Real)):  # np.bool_ is no Real
        raise InvalidParameterError(f"{what} {x!r} is not a real number")
    try:
        return float(x)
    except OverflowError:
        raise InvalidParameterError(f"{what} is an integer beyond float range") from None


def _integer(x, what: str) -> int:
    """``x`` as an int, once it is a Python or NumPy integer, not a bool, within float range."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise InvalidParameterError(f"{what} {x!r} is not an integer")
    _real(x, what)
    return int(x)


def _factors(dims, positions, what: str) -> tuple:
    """``dims`` and ``positions`` as int lists, once every dim is an integer >= 1
    (else InvalidParameterError) and every position is the integer index of a
    factor, none twice (else DimensionMismatchError)."""
    dims = [_integer(d, "dim") for d in dims]
    if min(dims, default=1) < 1:
        raise InvalidParameterError(f"dim {min(dims)} < 1")
    positions = [_integer(p, f"{what} entry") for p in positions]
    if len(set(positions)) != len(positions) or not all(0 <= p < len(dims) for p in positions):
        raise DimensionMismatchError(
            f"{what} {positions} must name distinct factors in [0, {len(dims)})")
    return dims, positions


def _reals(x, what: str) -> np.ndarray:
    """``x`` as a float array, once ``_real`` accepts each entry as given, before numpy
    would read a string, a bool or None as a number."""
    for v in np.asarray(x, dtype=object).flat:
        _real(v, what)
    return np.asarray(x, dtype=float)


def _rank_cut(w, rank_tol: float) -> float:
    """|w| above rank_tol * max|w| spans the support."""
    return rank_tol * float(np.abs(w).max())


def _end_max(w: np.ndarray) -> float:
    """max|w| of an ascending ``w`` (as ``eigh`` returns it), read off its ends."""
    return max(abs(float(w[0])), abs(float(w[-1])))


def _is_psd(w: np.ndarray) -> bool:
    """Whether an ascending ``w`` has ``min w >= -PSD_TOL * max(max|w|, 1)``, off its ends."""
    return float(w[0]) >= -PSD_TOL * max(_end_max(w), 1.0)


def _square(a: np.ndarray) -> np.ndarray:
    """``a`` itself, once it is a nonempty square matrix; else DimensionMismatchError."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a nonempty square complex matrix with finite entries."""
    a = _square(np.asarray(m, dtype=complex))
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def max_norm(m) -> float:
    """Entrywise max-abs norm."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.abs(m).max())


def hermitize(m) -> np.ndarray:
    """The symmetrization (M + M†)/2; ``check_hermitian`` decides whether M was Hermitian."""
    a = as_matrix(m)
    return (a + a.conj().T) / 2


def check_hermitian(m, name: str, herm_tol: float = Tolerances.herm_tol) -> None:
    """Raise InvalidParameterError unless max_norm(M - M†) <= herm_tol * max(max_norm(M), 1).
    An ndarray ``m`` must be a nonempty square matrix (its entries are not re-checked);
    any other ``m`` is read by ``as_matrix`` first."""
    m = _square(m) if isinstance(m, np.ndarray) else as_matrix(m)
    residual = float(np.abs(m - m.conj().T).max())  # max_norm(M - M†)
    # the scale is >= 1, so a residual <= herm_tol passes without the cost of max_norm(m)
    if residual > herm_tol and residual > herm_tol * max(max_norm(m), 1.0):
        raise InvalidParameterError(f"{name} is not Hermitian (residual {residual:.3e})")


def _hermitian(m, name: str) -> np.ndarray:
    """``m`` as a matrix symmetrized, (M + M†)/2, once ``as_matrix`` and ``check_hermitian``
    at the default ``herm_tol`` accept it."""
    a = as_matrix(m)
    check_hermitian(a, name)
    return (a + a.conj().T) / 2


def _checked_states(tol: Tolerances, **states) -> list:
    """(matrix, key, clamped ``_spectrum`` cut at ``tol.rank_tol``, its support) for
    every state, once all are square matrices of one shape, Hermitian within
    ``tol.herm_tol`` and PSD; else an error that names the first offending state,
    Hermiticity of every state before PSD.  A state the memo holds under its ``_key``
    passed these checks, so it is not checked again."""
    mats = {name: as_matrix(m) for name, m in states.items()}
    if len({m.shape for m in mats.values()}) > 1:
        raise DimensionMismatchError(f"states {', '.join(mats)} have different dims")
    keys = {name: _key(m, tol) for name, m in mats.items()}
    found = {name: _recall(key) for name, key in keys.items()}  # one probe per operand
    for name, m in mats.items():
        if found[name] is None:
            check_hermitian(m, name, tol.herm_tol)
    for name, m in mats.items():  # a miss probes again, so a value named twice is made once
        if found[name] is None:
            found[name] = _recall(keys[name]) or _keep(keys[name], _checked(m, name, tol.rank_tol))
    return [(mats[name], keys[name], *found[name]) for name in mats]


def _checked_state(m: np.ndarray, name: str) -> Spectrum | _FullRank:
    """The clamped ``_spectrum`` that ``_checked_states`` hands on for the one matrix ``m``,
    already validated by ``as_matrix``, at the default ``Tolerances``."""
    if (found := _recall(key := _key(m, _DEFAULT))) is None:
        check_hermitian(m, name, _DEFAULT.herm_tol)
        found = _keep(key, _checked(m, name, _DEFAULT.rank_tol))
    return found[0]


def _judged(first, second, judge):
    """``judge(p, q)``, a verdict on the supports of two ``_checked_states`` entries, kept
    under their keys in order with its ``intersection`` basis read-only."""
    (_, key1, _, p), (_, key2, _, q) = first, second
    if (verdict := _recall(key := ("verdict", key1, key2))) is None:
        verdict = judge(p, q)
        verdict.intersection.basis.setflags(write=False)
        _keep(key, verdict)
    return verdict


def _checked(m: np.ndarray, name: str, rank_tol: float) -> tuple:
    """(``_state`` of ``m`` symmetrized, its support), for ``m`` checked Hermitian, with
    every array they hold read-only, a spectrum's cached ``kept`` included."""
    op = _state((m + m.conj().T) / 2, name, rank_tol)  # hermitize, unchecked
    support = op.support()
    for a in ((op.a,) if isinstance(op, _FullRank) else (op.w, op.v, op.kept)) + (support.basis,):
        a.setflags(write=False)
    return op, support


def _state(h: np.ndarray, name: str, rank_tol: float) -> Spectrum | _FullRank:
    """``_psd`` of ``_spectrum(h, rank_tol)``."""
    return _psd(_spectrum(h, rank_tol), name)


def _psd(s: Spectrum | _FullRank, name: str) -> Spectrum | _FullRank:
    """``s`` clamped, once it is PSD; else InvalidParameterError naming ``name``."""
    if not s.is_psd():
        raise InvalidParameterError(f"{name} is not PSD (eigenvalue {s.w.min():.3e})")
    return s.clamped()


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor first."""
    out = as_matrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_matrix(op))
    return out


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` are the factor dimensions (product must equal dim(m)); ``keep``
    is an iterable of distinct factor indices.  The result acts on the kept factors
    in their original order, and Tr(result) == Tr(m).
    """
    a = as_matrix(m)
    dims, keep = _factors(dims, keep, "keep")
    if math.prod(dims) != a.shape[0]:
        raise DimensionMismatchError(f"product of dims {dims} != matrix dimension {a.shape[0]}")
    keep, n = sorted(keep), len(dims)
    t = a.reshape(dims + dims)
    # trace out discarded factors from the highest index down so positions stay valid
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + t.ndim // 2)
    d_keep = math.prod(dims[k] for k in keep)
    return t.reshape(d_keep, d_keep)


def permute_factors(m, dims, perm) -> np.ndarray:
    """Reorder tensor factors: factor ``perm[i]`` of the input becomes factor ``i``."""
    a = as_matrix(m)
    dims, perm = _factors(dims, perm, "perm")
    n = len(dims)
    if len(perm) != n:
        raise DimensionMismatchError(f"perm {perm} is not a permutation of 0..{n - 1}")
    t = a.reshape(dims + dims)
    t = t.transpose(perm + [n + p for p in perm])
    return t.reshape(a.shape)


def embed(op, dims, positions) -> np.ndarray:
    """Embed ``op`` (acting on the factors ``positions``, in that order) into
    the full product space described by ``dims``, tensoring identities on
    every other factor."""
    a = as_matrix(op)
    dims, positions = _factors(dims, positions, "positions")
    d_pos = math.prod(dims[p] for p in positions)
    if a.shape[0] != d_pos:
        raise DimensionMismatchError(
            f"operator dim {a.shape[0]} != product of factor dims {d_pos}"
        )
    rest = [i for i in range(len(dims)) if i not in positions]
    d_rest = math.prod(dims[i] for i in rest)
    big = np.kron(a, np.eye(d_rest))
    # big currently has factor order positions + rest; permute back
    order = positions + rest
    inv = [order.index(i) for i in range(len(dims))]
    return permute_factors(big, [dims[i] for i in order], inv)


def sqrt_psd(h) -> np.ndarray:
    """PSD square root via spectral decomposition.

    Eigenvalues in [-PSD_TOL*scale, 0) are clamped to zero; anything more negative,
    or a non-Hermitian ``h``, is InvalidParameterError.
    """
    return _sqrt_psd(_hermitian(h, "h"), "h").copy()  # writeable, not the read-only root


def _sqrt_psd(h: np.ndarray, name: str) -> np.ndarray:
    """The read-only ``root`` of a symmetrized matrix ``h``, once ``_psd`` accepts it."""
    return _psd(Spectrum._of_hermitian(h, Tolerances.rank_tol), name).root


def pseudo_inverse(h) -> np.ndarray:
    """Moore-Penrose inverse of a Hermitian operator, restricted to its support."""
    return Spectrum._of_hermitian(_hermitian(h, "h"), Tolerances.rank_tol).pinv()


@dataclass(frozen=True, eq=False)
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

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """The whole space in the identity basis, which is exactly orthonormal: one
        read-only array per dim, shared by every call."""
        return cls._trusted(ambient_dim, _identity(ambient_dim))

    @classmethod
    def _trusted(cls, ambient_dim: int, basis: np.ndarray) -> "Subspace":
        """A subspace from an orthonormal complex basis the library built: no Gram check."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient_dim", ambient_dim)
        object.__setattr__(sub, "basis", basis)
        return sub


@functools.lru_cache(maxsize=8, typed=True)  # a run meets a few dims, each many times
def _identity(d: int) -> np.ndarray:
    """The d x d complex identity, read-only."""
    eye = np.eye(d, dtype=complex)
    eye.setflags(write=False)
    return eye


# The operands the Bayes chain hands to several calls, newest insertion first: checked
# states and the verdict on a pair of them.  On one prior's three instances the prior's
# checked state is inserted at the first Bayes update, then each instance inserts two
# posteriors and their verdict, so the prior is the 10th-newest entry when the third
# instance pools, and 10 entries make every repeat a hit.  A longer memo would only hold
# values the chain does not revisit.
_MEMO_KEPT = 10
_memo: tuple = ()  # (key, value) entries; replaced whole, never mutated
_DEFAULT = Tolerances()  # the one default a prior is checked at, so its keys share it


def _key(m: np.ndarray, tol: Tolerances) -> tuple:
    """A checked state's memo key: the matrix's dtype, shape and bytes, with ``tol``."""
    return "state", m.dtype.str, m.shape, m.tobytes(), tol


def _recall(key):
    """The value the memo holds under ``key``, or None."""
    return next((value for k, value in _memo if k == key), None)


def _keep(key, value):
    """``value``, whose arrays are read-only, kept under ``key``, which ``_recall`` missed,
    as the newest entry, the oldest insertion evicted.  Only a miss writes; a concurrent
    miss can at worst lose an entry, which costs a later miss, never a wrong result."""
    global _memo
    _memo = ((key, value),) + _memo[: _MEMO_KEPT - 1]
    return value


@dataclass(frozen=True, eq=False)
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
        return cls(w, v, rank_tol * _end_max(w))

    @functools.cached_property
    def kept(self) -> np.ndarray:
        """Mask of the eigenvalues inside the support."""
        return np.abs(self.w) > self.cut

    def support(self) -> Subspace:
        """Span of the kept eigenvectors; the zero operator yields the empty subspace."""
        return Subspace._trusted(self.v.shape[0], self.v[:, self.kept])

    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse: 1/w on the support, 0 off it."""
        kept = self.kept
        inv = np.where(kept, 1.0 / np.where(kept, self.w, 1.0), 0.0)
        return (self.v * inv) @ self.v.conj().T

    def is_psd(self) -> bool:
        return _is_psd(self.w)

    @functools.cached_property
    def root(self) -> np.ndarray:
        """The read-only PSD square root, of w clamped at 0 (callers check ``is_psd`` first)."""
        root = (self.v * np.sqrt(self.clamped().w)) @ self.v.conj().T
        root.setflags(write=False)
        return root

    def clamped(self) -> "Spectrum":
        """This spectrum, checked PSD, with its negative eigenvalues set to 0: same ``v`` and
        cut; itself when ``w[0] > 0``, where the clip would change no bit."""
        if self.w[0] > 0.0:
            return self
        return Spectrum(np.clip(self.w, 0.0, None), self.v, self.cut)

    full_rank = property(lambda self: bool(self.kept.all()))

    def pool_product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x @ self.pinv() @ y  # x a⁺ y


@dataclass(frozen=True, eq=False)
class _FullRank:
    """A Hermitian ``a`` that ``_certified_full_rank`` proves positive definite with
    every eigenvalue kept: PSD, its own clamp, full support, a⁻¹ by one LU solve."""

    a: np.ndarray = field(repr=False)
    full_rank = True

    def is_psd(self) -> bool:
        return True

    def clamped(self) -> "_FullRank":
        return self

    @functools.cached_property
    def root(self) -> np.ndarray:
        """``Spectrum.root`` of ``a``: one ``eigh``, made the first time it is asked for."""
        return Spectrum._of_hermitian(self.a, Tolerances.rank_tol).root

    def support(self) -> Subspace:
        return Subspace.full(self.a.shape[0])

    def pool_product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x @ np.linalg.solve(self.a, y)  # x a⁻¹ y


def _spectrum(a: np.ndarray, rank_tol: float) -> Spectrum | _FullRank:
    """``_FullRank(a)`` if ``_certified_full_rank(a, rank_tol)``, else ``Spectrum.of``."""
    return _FullRank(a) if _certified_full_rank(a, rank_tol) else Spectrum._of_hermitian(a, rank_tol)


def support_projector(h, rank_tol: float = Tolerances.rank_tol) -> Subspace:
    """Span of eigenvectors with |eigenvalue| > rank_tol * max|eigenvalue|, read
    off the unclamped ``_spectrum``: ``Subspace.full`` for a certified matrix,
    with no eigendecomposition; the zero operator yields the empty subspace.  A
    non-Hermitian ``h`` is InvalidParameterError."""
    return _spectrum(_hermitian(h, "h"), rank_tol).support()


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
    smallest eigenvalue lies within the slack of the cut.  ``a`` must be
    finite, as its callers check: a NaN or Inf off the diagonal can complete
    the factorization, with a non-finite factor.
    """
    d = a.shape[0]
    t = float(a.trace().real)
    if not 0.0 < t < np.inf:
        return False
    shifted = a.copy()
    shifted.flat[:: d + 1] -= (rank_tol + d * d * _FOUR_EPS) * t
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def subspace_intersection(p: Subspace, q: Subspace) -> Subspace:
    """Geometric intersection of two subspaces, from their principal angles.

    The singular values of Bp† Bq are the cosines of the principal angles;
    directions with cos >= 1 - SUBSPACE_TOL are shared, so two lines up to
    sqrt(2e-8) = 1.41e-4 rad apart meet (1e-4 rad does, 1.5e-4 rad does
    not).  A full subspace meets any other subspace in that subspace, with
    no decomposition.
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
    return Subspace._trusted(p.ambient_dim, p.basis @ u[:, cos >= 1.0 - SUBSPACE_TOL])
