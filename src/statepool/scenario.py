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
    Spectrum, Tolerances, _density_spectrum, _uncertified_spectrum, as_matrix, hermitize,
    max_norm, support_projector,
)
from .pooling import PoolingReport, _pool


class Channel:
    """One pipeline step: a CPTP map from dim_in x dim_in to dim_out x dim_out matrices.

    A step is the map it applies to a state, nothing more: ``apply`` returns
    (M + M†)/2 for M = ``_map(rho)`` unless a subclass overrides it.
    """

    dim_in = dim_out = property(lambda self: self.dim)  # square channels define ``dim``

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = self._map(rho)
        return (out + out.conj().T) / 2


@dataclass(frozen=True)
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
        if not residual <= 1e-10:  # NaN too, from an overflowing sum
            raise ValueError(f"Kraus operators violate trace preservation (residual {residual:.3e})")
        object.__setattr__(self, "kraus_ops", ops)

    dim_in = property(lambda self: self.kraus_ops[0].shape[1])
    dim_out = property(lambda self: self.kraus_ops[0].shape[0])

    def _map(self, r):
        return sum(k @ r @ k.conj().T for k in self.kraus_ops)


@dataclass(frozen=True)
class UnitaryDynamics(Channel):
    """Closed evolution rho -> U rho U†, exact: the output is not symmetrized."""

    u: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = as_matrix(self.u)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is NaN, rejected here
            gram = u.conj().T @ u
        if not max_norm(gram - np.eye(u.shape[0])) <= 1e-10:  # NaN too
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.u @ rho @ self.u.conj().T


@dataclass(frozen=True)
class _ClosedForm(Channel):
    """Channel on C^dim applied in closed form; it holds no Kraus operators.

    ``_map`` adds the floating-point terms of the Kraus sum, in the Kraus
    order its class docstring states, without the exact zeros, so the same
    channel given as that Kraus list in a ``KrausChannel`` gives the same bits.
    """

    dim: int


@dataclass(frozen=True)
class DepolarizingChannel(_ClosedForm):
    """rho -> (1-p) rho + p Tr(rho) I/d; Kraus order: sqrt(1-p) I, then
    sqrt(p/d) |i><j| with (i, j) row-major."""

    strength: float

    def _map(self, r):
        s, c = np.sqrt(1.0 - self.strength), np.sqrt(self.strength / self.dim)
        out = 0.0 + (s * r) * s
        diag = np.diagonal(out).copy()
        for term in (c * np.diagonal(r)) * c:  # |i><j| adds c rho_jj c to entry (i, i)
            diag += term
        np.fill_diagonal(out, diag)
        return out


@dataclass(frozen=True)
class DephasingChannel(_ClosedForm):
    """rho -> (1-p) rho + p diag(rho); Kraus order: sqrt(1-p) I, then
    sqrt(p) |i><i| with i ascending."""

    strength: float

    def _map(self, r):
        s, q = np.sqrt(1.0 - self.strength), np.sqrt(self.strength)
        out = 0.0 + (s * r) * s
        np.fill_diagonal(out, np.diagonal(out) + (q * np.diagonal(r)) * q)
        return out


@dataclass(frozen=True)
class ReplacementChannel(_ClosedForm):
    """rho -> Tr(rho) |t><t|; Kraus order: |t><i| with i ascending."""

    target: int

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


@dataclass(frozen=True)
class ScenarioConfig:
    """Prior, the two agents' pipelines, tolerances and the generation seed.

    ``pool_against_evolved`` switches the pooling prior from the shared
    original prior to the prior pushed through ``evolved_by`` (a unitary),
    for exploring the alternative reading of the narrative.  The prior's
    Spectrum from the density check is kept, unserialized, for pooling; it
    is None when one Cholesky certified the prior positive definite, and
    pooling then solves against the prior itself.
    """

    prior: np.ndarray = field(repr=False)
    pipelines: tuple = ()
    tol: Tolerances = Tolerances()
    seed: int = 0
    pool_against_evolved: bool = False
    evolved_by: UnitaryDynamics | None = None
    _prior_spectrum: Spectrum | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        prior, spectrum = _density_spectrum(self.prior, self.tol.rank_tol)
        pipelines = tuple(self.pipelines)
        if len(pipelines) != 2:
            raise ValueError(f"exactly two agent pipelines required, got {len(pipelines)}")
        d = prior.shape[0]
        for p in pipelines:  # each pipeline maps the prior to a state pooled against it
            if p.steps and (p.steps[0].dim_in, p.steps[-1].dim_out) != (d, d):
                raise DimensionMismatchError(f"pipeline {p.name!r} maps dim {p.steps[0].dim_in} "
                                             f"to {p.steps[-1].dim_out}, not the prior dim {d}")
        if type(self.seed) is bool or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidParameterError(f"seed {self.seed!r} is not an integer >= 0")
        if self.pool_against_evolved and self.evolved_by is None:
            raise ValueError("pool_against_evolved requires evolved_by")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "_prior_spectrum", spectrum)
        object.__setattr__(self, "pipelines", pipelines)


@dataclass(frozen=True)
class ScenarioResult:
    sigma1: np.ndarray = field(repr=False)
    sigma2: np.ndarray = field(repr=False)
    verdict: CompatibilityVerdict = None
    pooling: PoolingReport | None = None
    pooling_error: dict | None = None


def _step(ch: Channel, r: np.ndarray) -> np.ndarray:
    if r.shape[0] != ch.dim_in:
        raise DimensionMismatchError(f"channel input dim {ch.dim_in} != state dim {r.shape[0]}")
    return ch.apply(r)


def apply_channel(ch: Channel, rho) -> np.ndarray:
    """One channel applied to ``rho``; preserves trace and positivity."""
    return _step(ch, as_matrix(rho))


evolve = apply_channel  # a UnitaryDynamics step also preserves the spectrum


def run_pipeline(p: AgentPipeline, prior) -> np.ndarray:
    """Left-to-right composition of the pipeline's steps applied to the prior."""
    rho = as_matrix(prior)
    for s in p.steps:
        rho = _step(s, rho)
    return rho


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run both pipelines, decide compatibility, attempt pooling.

    Never raises on incompatibility or pooling failure: those are reported
    in the result (``pooling_error`` carries the exception class and
    message, plus the Hermiticity residual when available).
    """
    sigma1, sigma2 = (run_pipeline(p, cfg.prior) for p in cfg.pipelines)
    supp1, supp2 = (support_projector(s, cfg.tol.rank_tol) for s in (sigma1, sigma2))
    verdict = _support_verdict(supp1, supp2)
    if not verdict.compatible:
        error = {"error": "IncompatibleAssignmentsError", "message": verdict.diagnostics}
        return ScenarioResult(sigma1, sigma2, verdict, None, error)
    prior, prior_spectrum = cfg.prior, cfg._prior_spectrum
    if cfg.pool_against_evolved:
        prior = hermitize(evolve(cfg.evolved_by, cfg.prior))
        prior_spectrum = _uncertified_spectrum(prior, cfg.tol.rank_tol)
    try:
        pooling = _pool(prior, prior_spectrum, sigma1, sigma2, supp1, supp2, verdict, cfg.tol)
    except StatePoolError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "residual"):
            error["residual"] = exc.residual
        return ScenarioResult(sigma1, sigma2, verdict, None, error)
    return ScenarioResult(sigma1, sigma2, verdict, pooling)


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


def _unit_interval(x, what: str = "strength") -> float:
    try:
        p = float(x)
    except OverflowError:  # an int beyond float range
        raise InvalidParameterError(f"{what} outside [0, 1]: an integer beyond float range") from None
    if not 0.0 <= p <= 1.0:  # also rejects NaN
        raise InvalidParameterError(f"{what} {p} outside [0, 1]")
    return p


def depolarizing_channel(dim: int, strength: float) -> DepolarizingChannel:
    """Convex mixture of identity and full depolarization with weight ``strength``."""
    return DepolarizingChannel(dim, _unit_interval(strength))


def dephasing_channel(dim: int, strength: float) -> DephasingChannel:
    """Convex mixture of identity and full dephasing in the computational basis."""
    return DephasingChannel(dim, _unit_interval(strength))


def replacement_channel(dim: int, target_index: int) -> ReplacementChannel:
    """Channel replacing every input with the basis state |target_index>, 0 <= index < dim."""
    if not 0 <= target_index < dim:
        raise InvalidParameterError(f"target {target_index} outside [0, {dim})")
    return ReplacementChannel(dim, range(dim)[target_index])


MAX_DIM = 64  # the dense envelope; a d = 10^5 instance would ask for tens of GiB


def _dim(dim):
    """``dim`` itself, once it is known to lie in [2, MAX_DIM]."""
    if dim < 2:
        raise InvalidParameterError(f"dim {dim} < 2")
    if dim > MAX_DIM:
        raise InvalidParameterError(f"dim {dim} > {MAX_DIM}")
    return dim


def _seed(seed):
    """``seed`` itself, once it is known not to be a negative integer."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidParameterError(f"seed {seed} < 0")
    return seed


def _recorded(seed):
    """The seed a config records: an integer seed itself, 0 for a seed sequence."""
    return seed if isinstance(seed, (int, np.integer)) else 0


def random_instance(dim: int, seed, noise_strength: float = 0.5) -> ScenarioConfig:
    """Reproducible pseudo-random scenario.

    Prior from a seeded Gaussian G† G; each agent gets a Haar unitary step
    followed by a detector channel (Wanda dephasing, Theo depolarizing)
    with the given noise weight.  Same seed, bit-identical config.
    """
    _dim(dim)
    p = _unit_interval(noise_strength, "noise_strength")
    rng = np.random.default_rng(_seed(seed))
    prior = random_density(dim, rng)
    u1 = UnitaryDynamics(haar_unitary(dim, rng))
    u2 = UnitaryDynamics(haar_unitary(dim, rng))
    wanda = (u1, dephasing_channel(dim, p)) if p > 0 else (u1,)
    theo = (u2, depolarizing_channel(dim, p)) if p > 0 else (u2,)
    pipelines = (AgentPipeline("Wanda", wanda), AgentPipeline("Theo", theo))
    return ScenarioConfig(prior, pipelines, seed=_recorded(seed))


def adversarial_instance(dim: int, seed) -> ScenarioConfig:
    """Engineered incompatible scenario: the pipelines replace every input
    with orthogonal pure states, so the posteriors' supports are disjoint."""
    prior = random_density(_dim(dim), np.random.default_rng(_seed(seed)))
    pipelines = (AgentPipeline("Wanda", (replacement_channel(dim, 0),)),
                 AgentPipeline("Theo", (replacement_channel(dim, 1),)))
    return ScenarioConfig(prior, pipelines, seed=_recorded(seed))


def batch_report(dims, count: int, noise_grid, seed: int, generator: str = "random"):
    """Fractions of compatible / Hermitian-poolable instances per (dim, noise) cell.

    Deterministic for a fixed seed: instance i in cell (d, g) uses the seed
    sequence [seed, d, g, i].  ``generator`` is "random" or "adversarial".
    Returns a list of row dicts.
    """
    _seed(seed)
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if generator not in ("random", "adversarial"):
        raise InvalidParameterError(f"unknown generator {generator!r}")
    for dim in dims:  # every cell is checked before the first one runs
        _dim(dim)
    for noise in noise_grid:  # reported in the rows even where the generator ignores it
        _unit_interval(noise, "noise_strength")
    rows = []
    for dim in dims:
        for gi, noise in enumerate(noise_grid):
            n_compat = n_herm = 0
            residuals = []
            for i in range(count):
                child_seed = [int(seed), int(dim), gi, i]
                cfg = (adversarial_instance(dim, child_seed) if generator == "adversarial"
                       else random_instance(dim, child_seed, noise))
                res = run_scenario(cfg)
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
