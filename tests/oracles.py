"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the LP witness
search works straight from the definitional constraints, and the random
generators below use raw numpy.
"""

import dataclasses
import itertools
import json

import mpmath
import numpy as np
from scipy.optimize import linprog

from statepool.compatibility import _support_verdict
from statepool.errors import IncompatibleAssignmentsError, PriorSupportError
from statepool.linalg import EXACT_TOL, PSD_TOL, Spectrum, Tolerances, embed
from statepool.pooling import PoolingReport, _pool
from statepool.regions import marginalize
from statepool.scenario import (
    AgentPipeline, DephasingChannel, DepolarizingChannel, KrausChannel, ReplacementChannel,
)


def grid_distributions(n_outcomes, step=0.25):
    """All probability vectors of the given length with entries on a grid."""
    k = round(1.0 / step)
    out = []
    for combo in itertools.product(range(k + 1), repeat=n_outcomes):
        if sum(combo) == k:
            out.append(np.array(combo, dtype=float) / k)
    return out


def objective_witness_exists(q1, q2, tol=1e-9):
    """Decide objective compatibility by direct witness search.

    Searches for a joint P(Y, X1, X2) with binary X1, X2 satisfying both
    definitional conditions at (x1, x2) = (0, 0): maximize the joint weight
    w = P(X1=0, X2=0) subject to the linear conditional constraints
    sum_{x2} P(y, 0, x2) = q1(y) * P(X1=0) (and symmetrically for X2); a
    witness exists iff the optimum weight is positive.  Binary data
    variables suffice: any witness can be coarse-grained to x_i vs not-x_i
    without changing either condition.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    ny = q1.size
    nv = ny * 2 * 2  # P(y, x1, x2), row-major

    def idx(y, a, b):
        return (y * 2 + a) * 2 + b

    a_eq = []
    b_eq = []
    # normalization
    row = np.ones(nv)
    a_eq.append(row)
    b_eq.append(1.0)
    # conditional constraints for agent 1: sum_b P(y,0,b) - q1(y) * sum_{y',b} P(y',0,b) = 0
    for y in range(ny):
        row = np.zeros(nv)
        for b in range(2):
            row[idx(y, 0, b)] += 1.0
        for yp in range(ny):
            for b in range(2):
                row[idx(yp, 0, b)] -= q1[y]
        a_eq.append(row)
        b_eq.append(0.0)
    # agent 2
    for y in range(ny):
        row = np.zeros(nv)
        for a in range(2):
            row[idx(y, a, 0)] += 1.0
        for yp in range(ny):
            for a in range(2):
                row[idx(yp, a, 0)] -= q2[y]
        a_eq.append(row)
        b_eq.append(0.0)
    # maximize the joint weight at (0, 0)
    c = np.zeros(nv)
    for y in range(ny):
        c[idx(y, 0, 0)] = -1.0
    res = linprog(c, A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=[(0, 1)] * nv, method="highs")
    assert res.status == 0, res.message
    return -res.fun > tol


def rand_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real

def rand_psd(rng, dim, rank=None):
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return g @ g.conj().T

def rand_herm(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2

def rand_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

def commuting_bayes_draw(d, kappa, seed):
    """A prior with eigenvalues spread geometrically over condition number
    ``kappa``, symmetrized, and the Bayes posteriors rho^1/2 L rho^1/2 (trace
    one) of two likelihoods diagonal in one random basis."""
    rng = np.random.default_rng([d, round(np.log10(kappa)), seed])
    w = np.geomspace(1.0, 1.0 / kappa, d)
    w /= w.sum()
    u = rand_unitary(rng, d)
    prior = (u * w) @ u.conj().T
    prior = (prior + prior.conj().T) / 2
    root = (u * np.sqrt(w)) @ u.conj().T
    v = rand_unitary(rng, d)
    posteriors = []
    for _ in range(2):
        s = root @ (v * rng.uniform(0.1, 1.0, d)) @ v.conj().T @ root
        posteriors.append(s / np.trace(s).real)
    return prior, *posteriors

def rand_prob(rng, n, full_support=False):
    p = rng.random(n) + (0.05 if full_support else 0.0)
    return p / p.sum()

def rand_povm(rng, dim, n_outcomes):
    """Random measurement: PSD effects summing to the identity."""
    raw = [rand_psd(rng, dim) for _ in range(n_outcomes)]
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [inv_sqrt @ m @ inv_sqrt for m in raw]


# --- matrix JSON, one Python step per float --------------------------------
# The encoder and decoder the one-pass matrix code must agree with.


def per_float_matrix_json(m):
    """``io.matrix_to_json`` as a list of [re, im] pairs built entry by entry."""
    a = np.asarray(m, dtype=complex)
    return {"dim": int(a.shape[0]),
            "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)]}


def per_float_dumps(obj):
    """``io.dumps`` with one recursive call per value and ``format(x, ".17g")``."""
    def enc(obj):
        if obj is None or obj is True or obj is False or isinstance(obj, str):
            return json.dumps(obj)
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            if not np.isfinite(obj):
                raise ValueError(f"cannot serialize non-finite value {obj!r}")
            return format(float(obj), ".17g")
        if isinstance(obj, dict):
            return "{" + ", ".join(f"{json.dumps(str(k))}: {enc(v)}" for k, v in obj.items()) + "}"
        if isinstance(obj, (list, tuple)):
            return "[" + ", ".join(enc(v) for v in obj) + "]"
        raise TypeError(f"cannot serialize {type(obj)}")
    return enc(obj) + "\n"


def per_entry_matrix_entries(entries):
    """The entry-by-entry decode of a matrix's "entries": the flat complex array,
    or ValueError with the message naming the first entry that is not a pair
    of reals."""
    flat = np.empty(len(entries), dtype=complex)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise ValueError(f"entry {i} is not a [re, im] pair of reals")
        flat[i] = complex(pair[0], pair[1])
    return flat


# --- the detector channels as explicit Kraus lists -------------------------
# Exactly the lists the explicit-list constructors built before the channels
# were applied in closed form, in the order the closed forms sum them.


def explicit_depolarizing(dim, p):
    ops = [np.sqrt(1.0 - p) * np.eye(dim)]
    for i in range(dim):
        for j in range(dim):
            ops.append(np.sqrt(p / dim) * np.outer(np.eye(dim)[:, i], np.eye(dim)[j, :]))
    return [np.asarray(k, dtype=complex) for k in ops]


def explicit_dephasing(dim, p):
    ops = [np.sqrt(1.0 - p) * np.eye(dim)]
    for i in range(dim):
        proj = np.zeros((dim, dim))
        proj[i, i] = 1.0
        ops.append(np.sqrt(p) * proj)
    return [np.asarray(k, dtype=complex) for k in ops]


def explicit_replacement(dim, t):
    return [np.asarray(np.outer(np.eye(dim)[:, t], np.eye(dim)[i, :]), dtype=complex)
            for i in range(dim)]


EXPLICIT_KRAUS = {
    DepolarizingChannel: lambda s: explicit_depolarizing(s.dim, s.strength),
    DephasingChannel: lambda s: explicit_dephasing(s.dim, s.strength),
    ReplacementChannel: lambda s: explicit_replacement(s.dim, s.target),
}


def kraus_list_config(cfg):
    """``cfg`` with each closed-form detector step replaced by a ``KrausChannel``
    of its explicit Kraus list: encoded, the config as it was written before
    the detector channels went by name."""
    def as_kraus(s):
        explicit = EXPLICIT_KRAUS.get(type(s))
        return s if explicit is None else KrausChannel(tuple(explicit(s)))

    pipelines = tuple(AgentPipeline(p.name, tuple(map(as_kraus, p.steps)))
                      for p in cfg.pipelines)
    return dataclasses.replace(cfg, pipelines=pipelines)


# --- quantum_compatible and quantum_pool with every input decomposed ---------
# The decision path before full-rank states were certified by one Cholesky:
# each support is read off ``Spectrum.of``.  Inputs must already be valid
# (Hermitian and PSD); these skip the input checks.


def _spectral_supports(tol, *states):
    return [Spectrum.of(s, tol.rank_tol).support() for s in states]


def spectral_verdict(s1, s2, tol=Tolerances()):
    return _support_verdict(*_spectral_supports(tol, s1, s2))


def spectral_pool(prior, s1, s2, tol=Tolerances()):
    a, b = (np.asarray(s, dtype=complex) for s in (s1, s2))
    supp1, supp2 = _spectral_supports(tol, a, b)
    return _pool(Spectrum.of(prior, tol.rank_tol), a, b, supp1, supp2,
                 _support_verdict(supp1, supp2), tol)


def exact_pool(prior, s1, s2, digits=60):
    """The pooling rule on the given floats, each operation at ``digits`` digits:
    T = s1 prior^-1 s2 for an invertible ``prior``, as a PoolingReport of the pooled
    state (T + T†) / (2 Tr T), c = 1 / Tr T and the residual max|T - T†| / max(max|T|, 1),
    rounded to floats once, at the end.  Its outcome is not decided: it never raises."""
    d = len(prior)
    cells = [(i, j) for i in range(d) for j in range(d)]
    with mpmath.workdps(digits):
        prior, s1, s2 = (mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in m])
                         for m in (prior, s1, s2))
        t = s1 * mpmath.inverse(prior) * s2
        tr = sum(t[i, i] for i in range(d)).real
        scale = max(max(abs(t[i, j]) for i, j in cells), 1)
        residual = max(abs(t[i, j] - mpmath.conj(t[j, i])) for i, j in cells) / scale
        pooled = np.array([[complex((t[i, j] + mpmath.conj(t[j, i])) / (2 * tr)) for j in range(d)]
                           for i in range(d)])
        return PoolingReport(pooled, float(1 / tr), float(residual))


# --- condition and star_product with the embedded operand decomposed --------
# The algorithms before each operand was decomposed at its own dim: ``condition``
# embeds the pseudo-inverse of the marginal and then takes the square root of
# the embedding with an eigh of its own, and ``star_product`` embeds phi and
# then takes its root.  Inputs must already be valid: Hermitian, phi PSD.


def _embedded_root(big):
    """The PSD square root of the embedded ``big`` from one eigh at its dim, w clamped at 0."""
    w, v = np.linalg.eigh((big + big.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def embedded_star_product(psi, phi, dims, apply_to):
    root = _embedded_root(embed(phi, dims, [apply_to]))
    return root @ psi @ root


def embedded_condition(s, on):
    """The operator of ``condition(s, on)`` for one region name ``on``."""
    pos = [i for i, r in enumerate(s.regions) if r.name == on]
    root = _embedded_root(embed(Spectrum.of(marginalize(s, on).op).pinv(), s.dims, pos))
    return root @ s.op @ root


# --- classical pooling in closed form ----------------------------------------
# The classical rule written from its definition, with each support cut as the
# quantum rule cuts a diagonal state's: entries above rank_tol times the largest.


def psd_floor(w) -> float:
    """The most negative eigenvalue a PSD operator with nonempty spectrum ``w`` may have,
    from the whole array: -PSD_TOL * max(max|w|, 1)."""
    return -PSD_TOL * max(float(np.abs(w).max()), 1.0)


def diagonal_support(p, rank_tol=Tolerances.rank_tol):
    """The mask of the entries of ``p`` above ``rank_tol * max|p|``."""
    p = np.asarray(p, dtype=float)
    return p > rank_tol * np.abs(p).max()


def closed_form_pool(prior, q1, q2):
    """(q1 q2 / prior on the prior's support, renormalized; the normalization c).

    Raises PriorSupportError when either posterior's support leaves the prior's,
    else IncompatibleAssignmentsError when the posteriors' supports are disjoint.
    """
    prior, q1, q2 = (np.asarray(p, dtype=float) for p in (prior, q1, q2))
    on, s1, s2 = (diagonal_support(p) for p in (prior, q1, q2))
    if (s1 & ~on).any() or (s2 & ~on).any():
        raise PriorSupportError("a posterior's support leaves the prior's")
    if not (s1 & s2).any():
        raise IncompatibleAssignmentsError("disjoint supports")
    unnorm = np.where(on, q1 * q2 / np.where(on, prior, 1.0), 0.0)
    return unnorm / unnorm.sum(), 1.0 / unnorm.sum()


# --- classical witnesses from their definitions -------------------------------
# Each returns (verdict, margin): margin is the least distance from EXACT_TOL of
# the quantities the verdict compared with it, so a caller can set aside draws
# that rounding in the last bits could decide either way.


class _Compared:
    """``above(v)``: whether v > EXACT_TOL, with v kept for ``margin``."""

    def __init__(self):
        self.values = []

    def above(self, v):
        self.values.append(float(v))
        return self.values[-1] > EXACT_TOL

    def margin(self):
        return min(abs(v - EXACT_TOL) for v in self.values)


def objective_classical_witness(q1, q2, joint, x1, x2):
    """Whether P(Y, X1, X2) = ``joint`` weighs (x1, x2) above EXACT_TOL and its
    conditionals P(Y | X1 = x1), P(Y | X2 = x2) are ``q1``, ``q2`` within EXACT_TOL."""
    p, c = np.asarray(joint, dtype=float), _Compared()
    ok = c.above(p[:, x1, x2].sum()) and all(
        c.above(w := slice_.sum()) and not c.above(np.max(np.abs(slice_ / w - q.probs)))
        for q, slice_ in ((q1, p[:, x1, :].sum(axis=1)), (q2, p[:, :, x2].sum(axis=1))))
    return ok, c.margin()


def subjective_classical_witness(q1, q2, cond, x_tilde):
    """Whether every predictive probability sum_y P(x | y) q(y) exceeds EXACT_TOL for
    both agents and their Bayes posteriors at ``x_tilde`` agree within EXACT_TOL."""
    c = _Compared()
    ok = all(c.above((row * q.probs).sum()) for q in (q1, q2) for row in cond.table)
    if ok:
        post1, post2 = (cond.table[x_tilde] * q.probs for q in (q1, q2))
        ok = not c.above(np.max(np.abs(post1 / post1.sum() - post2 / post2.sum())))
    return ok, c.margin()


# Diagonal instances over outcomes (a, b, c) on which classical pooling once
# answered by rules of its own: (prior, q1, q2, pooling error, compatible).
DIAGONAL_SUPPORT_CASES = [
    # the posteriors share only a, inside the prior's support, but q1 also holds c
    ([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0], PriorSupportError, True),
    # disjoint posteriors, q2 outside the prior's support: prior support is checked first
    ([0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], PriorSupportError, False),
    # the shared c carries 5e-11, under the relative cut 1e-10 * max
    ([0.5, 0.5 - 5e-11, 5e-11], [1 - 5e-11, 0.0, 5e-11], [0.0, 1 - 5e-11, 5e-11],
     IncompatibleAssignmentsError, False),
]
