"""Regions, joint states, the star product, conditioning and hybrid states.

A *region* is anything modeled as quantum and attached to a tensor factor;
classical registers are regions carrying a preferred (computational) basis.
Joint descriptions are Hermitian operators on the product space.  They need
not be positive overall, but their marginals onto elementary regions must
be.  Conditioning is done with the non-commutative star product

    star(psi, phi) = (1 (x) phi)^{1/2} psi (1 (x) phi)^{1/2}

and the pseudo-inverse of the conditioning marginal, so conditioning on
singular marginals restricts to the support instead of failing (the
classical convention of only conditioning on possible events).  Each
operand is decomposed once, at its own dim, and its root is embedded:
phi^{1/2}, and the marginal's 1/sqrt(w) on its support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DimensionMismatchError, ImpossibleConditioningError, InvalidParameterError
from .linalg import (
    EXACT_TOL, SUPPORT_TOL, TRACE_TOL, Spectrum, Tolerances, _checked_state, _hermitian, _integer,
    _psd, _sqrt_psd, as_matrix, check_hermitian, embed, max_norm, partial_trace,
)


@dataclass(frozen=True)
class RegionLabel:
    """A named tensor factor. ``kind`` is "quantum" or "classical"."""

    name: str
    dim: int
    kind: str = "quantum"

    def __post_init__(self):
        if _integer(self.dim, "dim") < 1:
            raise ValueError(f"region {self.name!r} has dim {self.dim} < 1")
        if self.kind not in ("quantum", "classical"):
            raise ValueError(f"unknown region kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class JointState:
    """Hermitian operator over an ordered list of regions.

    ``normalized`` joint states have unit trace; conditional states and
    other unnormalized constructions set the flag to False.
    """

    regions: tuple
    op: np.ndarray = field(repr=False)
    normalized: bool = True

    def __post_init__(self):
        regions = tuple(self.regions)
        names = [r.name for r in regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names in {names}")
        op = _hermitian(self.op, "joint state")
        d = math.prod(r.dim for r in regions)
        if op.shape[0] != d:
            raise DimensionMismatchError(
                f"operator dim {op.shape[0]} != product of region dims {d}"
            )
        if self.normalized and abs(np.real(np.trace(op)) - 1.0) > TRACE_TOL:
            raise ValueError(f"normalized joint state has trace {np.trace(op):g}")
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "op", op)

    @property
    def dims(self):
        return [r.dim for r in self.regions]


@dataclass(frozen=True, eq=False)
class ConditionalState:
    """Operator representing (target | given) on the full composite space."""

    target: tuple
    given: tuple
    op: np.ndarray = field(repr=False)


def _positions(s: JointState, labels, what: str) -> list:
    """The positions, in ``s``'s order, of the regions ``labels`` names, one name or an
    iterable of them; anything else, or a name no region of ``s`` has, InvalidParameterError."""
    labels = [labels] if isinstance(labels, str) else labels
    if not np.iterable(labels):
        raise InvalidParameterError(f"{what} {labels!r} is not a region name or a list of them")
    labels, names = list(labels), [r.name for r in s.regions]
    if unknown := [x for x in labels if x not in names]:
        raise InvalidParameterError(f"unknown region labels {sorted(unknown, key=repr)}")
    return [i for i, name in enumerate(names) if name in labels]


def marginalize(s: JointState, keep) -> JointState:
    """Trace out every region not named in ``keep`` (one name or an iterable of them)."""
    idx = _positions(s, keep, "keep")
    return JointState(tuple(s.regions[i] for i in idx), partial_trace(s.op, s.dims, idx),
                      normalized=s.normalized)


def star_product(psi, phi, dims=None, apply_to=None) -> np.ndarray:
    """Sandwich product (1 (x) phi)^{1/2} psi (1 (x) phi)^{1/2}.

    With ``dims`` and ``apply_to`` given, ``phi`` acts on the tensor factors
    ``apply_to`` of the space described by ``dims`` and identities are
    inserted elsewhere; otherwise phi must act on the whole space of psi.
    Requires phi Hermitian and PSD, else InvalidParameterError; its root is
    taken at its own dim, then embedded.  The result is Hermitian for
    Hermitian psi and PSD for PSD psi.
    """
    psi = as_matrix(psi)
    root = _sqrt_psd(_hermitian(phi, "phi"), "phi")
    if dims is not None:
        if apply_to is None:
            raise ValueError("apply_to is required when dims is given")
        root = embed(root, dims, apply_to if np.iterable(apply_to) else [apply_to])
    if root.shape != psi.shape:
        raise DimensionMismatchError(
            f"embedded factor shape {root.shape} != state shape {psi.shape}"
        )
    return root @ psi @ root


def condition(s: JointState, on) -> ConditionalState:
    """Conditional state of the remaining regions given the ones in ``on``.

    Star product of the joint with the pseudo-inverse of the marginal on ``on``
    (named as ``marginalize``'s ``keep``); singular marginals condition on their
    support.  The marginal, decomposed once and clamped (not PSD: InvalidParameterError
    naming it), gives the root 1/sqrt(w) on its support, which is then embedded.
    """
    pos = _positions(s, on, "on")
    given = tuple(s.regions[i] for i in pos)
    # s.op is symmetrized, so its partial trace is Hermitian bit for bit: both used as they are
    marginal = _psd(Spectrum._of_hermitian(partial_trace(s.op, s.dims, pos), Tolerances.rank_tol),
                    f"marginal on {sorted(r.name for r in given)}")
    if not marginal.kept.any():
        raise ImpossibleConditioningError("conditioning on impossible event (zero marginal)")
    w = np.where(marginal.kept, marginal.w, np.inf)  # 1/sqrt(inf) = 0 off the support
    root = embed((marginal.v / np.sqrt(w)) @ marginal.v.conj().T, s.dims, pos)
    target = tuple(r for i, r in enumerate(s.regions) if i not in pos)
    return ConditionalState(target=target, given=given, op=root @ s.op @ root)


def quantum_bayes(likelihood, prior) -> np.ndarray:
    """Posterior state from the quantum Bayes rule.

    posterior = prior^{1/2} likelihood prior^{1/2} / Tr(likelihood prior).
    ``likelihood`` is the PSD operator for one observed outcome, and one not
    Hermitian within the default ``herm_tol`` is InvalidParameterError; then
    ``prior`` is checked as ``quantum_pool`` checks its prior at the default
    ``Tolerances``, and its square root is that checked operand's ``root``.
    Raises ImpossibleConditioningError when the predictive probability
    Tr(likelihood prior) is at most SUPPORT_TOL.
    """
    like = as_matrix(likelihood)
    rho = as_matrix(prior)
    if like.shape != rho.shape:
        raise DimensionMismatchError("likelihood and prior dims differ")
    check_hermitian(like, "likelihood")
    return _bayes(_checked_state(rho, "prior").root, like, rho)  # the prior before its outcome


def _bayes(root: np.ndarray, like: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``quantum_bayes`` of checked operands: ``root`` is the prior ``rho``'s PSD square root."""
    return root @ like @ root / _possible(float((like @ rho).trace().real))


def _possible(p: float) -> float:
    """A predictive probability ``p`` once above SUPPORT_TOL, else ImpossibleConditioningError."""
    if p <= SUPPORT_TOL:
        raise ImpossibleConditioningError(
            f"conditioning on impossible outcome (predictive probability {p:.3e})")
    return p


def _outcome(key) -> tuple:
    """An outcome key as a tuple: a Python or NumPy integer is one register's outcome."""
    return (key,) if isinstance(key, (int, np.integer)) else tuple(key)


@dataclass(frozen=True, eq=False)
class HybridState:
    """Joint state of classical registers with one quantum region.

    ``classical_dims`` are the outcome counts of the classical registers,
    ``blocks`` maps each outcome tuple to the (sub-normalized) PSD operator
    on the quantum region.  The explicit joint is block-diagonal in the
    classical preferred basis; no coherences across classical outcomes.
    """

    classical_dims: tuple
    blocks: Mapping
    normalized: bool = True

    def __post_init__(self):
        cdims = tuple(_integer(d, "classical dim") for d in self.classical_dims)
        blocks, qdim = {}, None
        for key, block in dict(self.blocks).items():
            key = tuple(_integer(k, "outcome") for k in _outcome(key))
            if len(key) != len(cdims) or any(not 0 <= k < d for k, d in zip(key, cdims)):
                raise ValueError(f"outcome {key} out of range for registers {cdims}")
            h = _hermitian(block, name := f"block at outcome {key}")
            if h.shape[0] != (qdim := qdim or h.shape[0]):
                raise DimensionMismatchError("blocks have differing quantum dims")
            _psd(Spectrum._of_hermitian(h, Tolerances.rank_tol), name)
            blocks[key] = h
        if not blocks:
            raise ValueError("hybrid state needs at least one block")
        total = sum(float(np.real(np.trace(b))) for b in blocks.values())
        if self.normalized and abs(total - 1.0) > TRACE_TOL:
            raise ValueError(f"hybrid blocks have total trace {total:g}, expected 1")
        object.__setattr__(self, "classical_dims", cdims)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "quantum_dim", qdim)

    @property
    def total_classical_dim(self) -> int:
        return math.prod(self.classical_dims)

    def block(self, key) -> np.ndarray:
        return self.blocks.get(_outcome(key),
                               np.zeros((self.quantum_dim, self.quantum_dim), complex))

    def classical_weight(self, key) -> float:
        return float(np.real(np.trace(self.block(key))))

    def classical_distribution(self) -> np.ndarray:
        """Marginal over the classical registers, as an array over outcome tuples."""
        p = np.zeros(self.classical_dims)
        for key, b in self.blocks.items():
            p[key] = float(np.real(np.trace(b)))
        return p

    def quantum_marginal(self) -> np.ndarray:
        """Marginal state on the quantum region (sum of blocks)."""
        return sum(self.blocks.values())

    def to_joint(self) -> JointState:
        """Explicit block-diagonal operator |x><x| (x) block(x) over all registers."""
        nc = self.total_classical_dim
        d = nc * self.quantum_dim
        out = np.zeros((d, d), dtype=complex)
        for key, b in self.blocks.items():
            flat = int(np.ravel_multi_index(key, self.classical_dims))
            sl = slice(flat * self.quantum_dim, (flat + 1) * self.quantum_dim)
            out[sl, sl] = b
        regions = tuple(
            RegionLabel(f"X{i}", d, "classical")
            for i, d in enumerate(self.classical_dims)
        ) + (RegionLabel("B", self.quantum_dim, "quantum"),)
        return JointState(regions, out, normalized=self.normalized)

    @classmethod
    def from_joint(cls, op, classical_dims, quantum_dim) -> "HybridState":
        """Extract blocks from an explicit joint operator.

        Raises if the operator carries coherences across classical outcomes
        beyond EXACT_TOL, relative to max(max-norm, 1); a block no larger
        than that is dropped.
        """
        m = as_matrix(op)
        cdims = tuple(_integer(d, "classical dim") for d in classical_dims)
        nc, quantum_dim = math.prod(cdims), _integer(quantum_dim, "quantum dim")
        if m.shape[0] != nc * quantum_dim:
            raise DimensionMismatchError("joint dim != classical x quantum dims")
        blocks = {}
        scale = max(max_norm(m), 1.0)
        for flat in range(nc):
            key = tuple(int(k) for k in np.unravel_index(flat, cdims))
            sl = slice(flat * quantum_dim, (flat + 1) * quantum_dim)
            b = m[sl, sl]
            off = m[sl, :].copy()
            off[:, sl] = 0
            if max_norm(off) > EXACT_TOL * scale:
                raise ValueError("joint operator has coherences across classical outcomes")
            if max_norm(b) > EXACT_TOL * scale:
                blocks[key] = b
        total = sum(float(np.real(np.trace(b))) for b in blocks.values())
        return cls(cdims, blocks, normalized=abs(total - 1.0) <= TRACE_TOL)


def make_hybrid(blocks) -> HybridState:
    """Build a HybridState from a map outcome -> PSD block, rescaled to total trace 1.

    Integer keys describe a single classical register; tuple keys describe
    several.
    """
    items = {_outcome(key): as_matrix(b) for key, b in dict(blocks).items()}
    if len(set(map(len, items))) > 1:
        raise ValueError("inconsistent outcome tuple lengths")
    cdims = tuple(max(column) + 1 for column in zip(*items))
    total = sum(float(np.real(np.trace(b))) for b in items.values())
    if total <= 0:
        raise ValueError("cannot normalize: total trace is not positive")
    return HybridState(cdims, {k: b / total for k, b in items.items()}, normalized=True)
