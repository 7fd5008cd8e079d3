"""Two-agent coarse-graining simulation.

Wanda and Theo share a prior for a quantum system, then interact with it
through potentially different (and defective) detectors while the system
undergoes unitary dynamics.  Each pipeline produces a posterior; the
simulation decides whether the two posteriors are compatible and, when
they are, attempts to pool them against the shared prior.  Incompatibility
and non-Hermitian pooling products are reported outcomes, never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compatibility import CompatibilityVerdict, _support_verdict
from .errors import DimensionMismatchError, InvalidParameterError, StatePoolError
from .linalg import (
    EXACT_TOL, TRACE_TOL, Tolerances, _hermitian, _integer, _real, _state, as_matrix, hermitize,
    max_norm,
)
from .pooling import PoolingReport, _pool


class Channel:
    """One pipeline step: a map from dim_in x dim_in to dim_out x dim_out states.

    A step is the map it applies to a state, nothing more; the library's own
    steps are CPTP, but a step need not be linear.  ``apply`` is the one
    checked entry: it validates ``rho`` (``as_matrix``) and its dim, then
    returns ``_apply(rho)``.  ``_apply`` trusts its input, as ``run_scenario``
    does for states the config checked; it returns (M + M†)/2 for
    M = ``_map(r)`` unless a subclass overrides it.
    """

    dim_in = dim_out = property(lambda self: self.dim)  # square channels define ``dim``

    def apply(self, rho) -> np.ndarray:
        r = as_matrix(rho)
        if r.shape[0] != self.dim_in:
            raise DimensionMismatchError(
                f"channel input dim {self.dim_in} != state dim {r.shape[0]}")
        return self._apply(r)

    def _apply(self, r: np.ndarray) -> np.ndarray:
        out = self._map(r)
        return (out + out.conj().T) / 2


@dataclass(frozen=True, eq=False)
class KrausChannel(Channel):
    """CPTP map as a finite Kraus decomposition: rho -> sum K rho K†."""

    kraus_ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        d_out, d_in = ops[0].shape
        if any(k.shape != (d_out, d_in) for k in ops):
            raise DimensionMismatchError("Kraus operators have inconsistent shapes")
        residual = max_norm(sum(k.conj().T @ k for k in ops) - np.eye(d_in))
        if not residual <= EXACT_TOL:  # NaN too, from an overflowing sum
            raise ValueError(f"Kraus operators violate trace preservation (residual {residual:.3e})")
        object.__setattr__(self, "kraus_ops", ops)

    dim_in = property(lambda self: self.kraus_ops[0].shape[1])
    dim_out = property(lambda self: self.kraus_ops[0].shape[0])

    def _map(self, r):
        return sum(k @ r @ k.conj().T for k in self.kraus_ops)


@dataclass(frozen=True, eq=False)
class UnitaryDynamics(Channel):
    """Closed evolution rho -> U rho U†, exact: the output is not symmetrized."""

    u: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = as_matrix(self.u)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is NaN, rejected here
            gram = u.conj().T @ u
        if not max_norm(gram - np.eye(u.shape[0])) <= EXACT_TOL:  # NaN too
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "u", u)

    @classmethod
    def _trusted(cls, u: np.ndarray) -> "UnitaryDynamics":
        """Dynamics of a complex unitary the library built, without the unitarity check."""
        dyn = object.__new__(cls)
        object.__setattr__(dyn, "u", u)
        return dyn

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def _apply(self, r: np.ndarray) -> np.ndarray:
        return self.u @ r @ self.u.conj().T


@dataclass(frozen=True)
class _ClosedForm(Channel):
    """Channel on C^dim applied in closed form; it holds no Kraus operators.

    ``_map`` adds the floating-point terms of the Kraus sum, in the Kraus
    order its class docstring states, without the exact zeros, so the same
    channel given as that Kraus list in a ``KrausChannel`` gives the same bits.
    """

    dim: int

    def __post_init__(self):
        if _integer(self.dim, "dim") < 1:
            raise InvalidParameterError(f"dim {self.dim} < 1")


def _unit_interval(x, what: str = "strength") -> float:
    p = _real(x, what)
    if not 0.0 <= p <= 1.0:  # also rejects NaN
        raise InvalidParameterError(f"{what} {p} outside [0, 1]")
    return p


@dataclass(frozen=True)
class _Mixture(_ClosedForm):
    """A closed-form channel mixing the identity with a noise map, of weight
    ``strength`` in [0, 1]."""

    strength: float

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "strength", _unit_interval(self.strength))


@dataclass(frozen=True)
class DepolarizingChannel(_Mixture):
    """rho -> (1-p) rho + p Tr(rho) I/d; Kraus order: sqrt(1-p) I, then
    sqrt(p/d) |i><j| with (i, j) row-major."""

    def _map(self, r):
        s, c = np.sqrt(1.0 - self.strength), np.sqrt(self.strength / self.dim)
        out = 0.0 + (s * r) * s
        diag = np.diagonal(out).copy()
        for term in (c * np.diagonal(r)) * c:  # |i><j| adds c rho_jj c to entry (i, i)
            diag += term
        np.fill_diagonal(out, diag)
        return out


@dataclass(frozen=True)
class DephasingChannel(_Mixture):
    """rho -> (1-p) rho + p diag(rho); Kraus order: sqrt(1-p) I, then
    sqrt(p) |i><i| with i ascending."""

    def _map(self, r):
        s, q = np.sqrt(1.0 - self.strength), np.sqrt(self.strength)
        out = 0.0 + (s * r) * s
        np.fill_diagonal(out, np.diagonal(out) + (q * np.diagonal(r)) * q)
        return out


@dataclass(frozen=True)
class ReplacementChannel(_ClosedForm):
    """rho -> Tr(rho) |t><t|, 0 <= t < dim; Kraus order: |t><i| with i ascending."""

    target: int

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= _integer(self.target, "target") < self.dim:
            raise InvalidParameterError(f"target {self.target} outside [0, {self.dim})")
        object.__setattr__(self, "target", range(self.dim)[self.target])

    def _map(self, r):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[self.target, self.target] = np.cumsum(np.diagonal(r))[-1]  # in index order
        return out


@dataclass(frozen=True)
class AgentPipeline:
    """Ordered steps (unitaries and channels) one agent applies to the prior."""

    name: str
    steps: tuple = ()

    def __post_init__(self):
        steps = tuple(self.steps)
        d = None
        for s in steps:
            if not isinstance(s, Channel):
                raise TypeError(f"pipeline step must be a unitary or a channel, got {type(s)}")
            if d is not None and s.dim_in != d:
                raise DimensionMismatchError(
                    f"pipeline {self.name!r}: step input dim {s.dim_in} != previous output dim {d}"
                )
            d = s.dim_out
        object.__setattr__(self, "steps", steps)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Prior, the two agents' pipelines, tolerances, the generation seed and
    the unitary ``evolved_by``, if any: the posteriors are pooled against
    ``evolved_by(prior)`` when it is set and against the prior otherwise.

    ``prior`` is the input checked (Hermitian within the default ``herm_tol``, PSD,
    unit trace) and symmetrized, bit for bit; the pooling prior is fixed here, once,
    as its clamped ``_spectrum``.
    """

    prior: np.ndarray = field(repr=False)
    pipelines: tuple = ()
    tol: Tolerances = Tolerances()
    seed: int = 0
    evolved_by: UnitaryDynamics | None = None
    _pooling_prior: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.tol, Tolerances):
            raise InvalidParameterError(f"tol is a {type(self.tol).__name__}, not a Tolerances")
        # not _checked_states: a config holds its checked prior, so its memo could hit
        # only when a caller builds the same scenario again
        prior = _hermitian(self.prior, "prior")
        pooling_prior = _state(prior, "prior", self.tol.rank_tol)
        tr = float(np.real(np.trace(prior)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density operator has trace {tr!r}, expected 1")
        pipelines = tuple(self.pipelines)
        if len(pipelines) != 2:
            raise ValueError(f"exactly two agent pipelines required, got {len(pipelines)}")
        d = prior.shape[0]
        for p in pipelines:  # each pipeline maps the prior to a state pooled against it
            if not isinstance(p, AgentPipeline):
                raise InvalidParameterError(
                    f"pipelines hold a {type(p).__name__}, not an AgentPipeline")
            if p.steps and (p.steps[0].dim_in, p.steps[-1].dim_out) != (d, d):
                raise DimensionMismatchError(f"pipeline {p.name!r} maps dim {p.steps[0].dim_in} "
                                             f"to {p.steps[-1].dim_out}, not the prior dim {d}")
        _seed((self.seed,))  # one integer
        if not isinstance(self.evolved_by, (UnitaryDynamics, type(None))):
            raise InvalidParameterError(
                f"evolved_by is a {type(self.evolved_by).__name__}, not a UnitaryDynamics")
        if self.evolved_by is not None and self.evolved_by.dim != d:
            raise DimensionMismatchError(f"evolved_by dim {self.evolved_by.dim} != prior dim {d}")
        object.__setattr__(self, "prior", prior)
        if self.evolved_by is not None:  # pool against its unitary image, symmetrized
            m = self.evolved_by._apply(prior)
            pooling_prior = _state((m + m.conj().T) / 2, "evolved prior", self.tol.rank_tol)
        object.__setattr__(self, "_pooling_prior", pooling_prior)
        object.__setattr__(self, "pipelines", pipelines)


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    sigma1: np.ndarray = field(repr=False)
    sigma2: np.ndarray = field(repr=False)
    verdict: CompatibilityVerdict
    pooling: PoolingReport | None
    pooling_error: dict | None = None


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run both pipelines, decide compatibility, attempt pooling.

    Raises, naming the pipeline, on a posterior not finite, of another dim or
    not PSD (``_state``, no Hermiticity check at ``cfg.tol.herm_tol``); never on
    incompatibility or pooling failure, reported as ``pooling_error``: the
    error's ``payload()``, its class and message plus any Hermiticity residual.
    """
    posteriors, supports = [], []
    for p in cfg.pipelines:  # the prior and every step's dims were checked with the config
        rho = cfg.prior
        for s in p.steps:
            rho = s._apply(rho)
        h = hermitize(rho)  # as_matrix: a step may return NaN, which the certificate passes
        if h.shape != cfg.prior.shape:
            raise DimensionMismatchError(f"pipeline {p.name!r} returns dim {h.shape[0]}, "
                                         f"not the prior dim {cfg.prior.shape[0]}")
        posteriors.append(rho)
        supports.append(_state(h, f"posterior of {p.name!r}", cfg.tol.rank_tol).support())
    verdict = _support_verdict(*supports)
    try:
        pooling = _pool(cfg._pooling_prior, *posteriors, *supports, verdict, cfg.tol)
    except StatePoolError as exc:
        return ScenarioResult(*posteriors, verdict, None, exc.payload())
    return ScenarioResult(*posteriors, verdict, pooling)


# ---------------------------------------------------------------------------
# Random instance generation (deterministic in the seed)


def random_density(dim: int, rng) -> np.ndarray:
    """Full-rank-almost-surely random density matrix: normalize G† G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g.conj().T @ g
    return rho / np.real(np.trace(rho))


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian, phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


MAX_DIM = 64  # the dense envelope; a d = 10^5 instance would ask for tens of GiB


def _dim(dim):
    """``dim`` itself, once it is known to be an integer in [2, MAX_DIM]."""
    if not 2 <= _integer(dim, "dim") <= MAX_DIM:
        raise InvalidParameterError(f"dim {dim} < 2" if dim < 2 else f"dim {dim} > {MAX_DIM}")
    return dim


def _seed(seed):
    """The seed a config records, once ``seed`` is known to be an integer >= 0 or a
    list or tuple of them: an integer seed itself, 0 for a seed sequence."""
    sequence = isinstance(seed, (list, tuple))
    for s in seed if sequence else (seed,):
        if _integer(s, "seed") < 0:
            raise InvalidParameterError(f"seed {s} < 0")
    return 0 if sequence else seed


def random_instance(dim: int, seed, noise_strength: float = 0.5) -> ScenarioConfig:
    """Reproducible pseudo-random scenario.

    Prior from a seeded Gaussian G† G; each agent gets a Haar unitary step
    followed by a detector channel (Wanda dephasing, Theo depolarizing)
    with the given noise weight.  Same seed, bit-identical config.
    """
    _dim(dim)
    p = _unit_interval(noise_strength, "noise_strength")
    recorded, rng = _seed(seed), np.random.default_rng(seed)
    prior = random_density(dim, rng)
    u1 = UnitaryDynamics._trusted(haar_unitary(dim, rng))
    u2 = UnitaryDynamics._trusted(haar_unitary(dim, rng))
    wanda = (u1, DephasingChannel(dim, p)) if p > 0 else (u1,)
    theo = (u2, DepolarizingChannel(dim, p)) if p > 0 else (u2,)
    pipelines = (AgentPipeline("Wanda", wanda), AgentPipeline("Theo", theo))
    return ScenarioConfig(prior, pipelines, seed=recorded)


def adversarial_instance(dim: int, seed) -> ScenarioConfig:
    """Engineered incompatible scenario: the pipelines replace every input
    with orthogonal pure states, so the posteriors' supports are disjoint."""
    _dim(dim)
    recorded, rng = _seed(seed), np.random.default_rng(seed)
    pipelines = (AgentPipeline("Wanda", (ReplacementChannel(dim, 0),)),
                 AgentPipeline("Theo", (ReplacementChannel(dim, 1),)))
    return ScenarioConfig(random_density(dim, rng), pipelines, seed=recorded)


# name -> (dim, child seed, noise) -> ScenarioResult; builders are module globals read per call
GENERATORS = {
    "random": lambda dim, seed, noise: run_scenario(random_instance(dim, seed, noise)),
    "adversarial": lambda dim, seed, noise: run_scenario(adversarial_instance(dim, seed)),
}


def batch_report(dims, count: int, noise_grid, seed: int, generator: str = "random"):
    """Fractions of compatible / Hermitian-poolable instances per (dim, noise) cell.

    Deterministic for a fixed seed: instance i in cell (d, g) uses the seed
    sequence [seed, d, g, i].  ``generator`` is one of ``GENERATORS``.  A dim
    or noise value named twice is InvalidParameterError: it would repeat a cell.
    Returns a list of row dicts.
    """
    _seed((seed,))  # one integer: the first entry of every child seed
    if _integer(count, "count") < 1:
        raise InvalidParameterError("count must be >= 1")
    if generator not in GENERATORS:
        raise InvalidParameterError(f"unknown generator {generator!r}")
    # every cell is checked before the first one runs, noise even where the generator
    # ignores it (the rows report it); 0.0 and -0.0 are one value
    grids = {"dim": [int(_dim(dim)) for dim in dims],
             "noise": [_unit_interval(noise, "noise_strength") for noise in noise_grid]}
    for what, values in grids.items():
        if len(set(values)) != len(values):
            raise InvalidParameterError(f"{what} grid {values} repeats a value")
    build = GENERATORS[generator]
    rows = []
    for dim in grids["dim"]:
        for gi, noise in enumerate(grids["noise"]):
            n_compat = n_herm = 0
            residuals = []
            for i in range(count):
                res = build(dim, [int(seed), int(dim), gi, i], noise)
                if res.verdict.compatible:
                    n_compat += 1
                    if res.pooling is not None:
                        n_herm += 1
                        residuals.append(res.pooling.hermiticity_residual)
                    elif res.pooling_error and "residual" in res.pooling_error:
                        residuals.append(res.pooling_error["residual"])
            rows.append({
                "dim": int(dim),
                "noise": float(noise),
                "count": int(count),
                "frac_compatible": n_compat / count,
                "frac_hermitian_pooling": n_herm / count,
                "mean_hermiticity_residual": float(np.mean(residuals)) if residuals else 0.0,
            })
    return rows
