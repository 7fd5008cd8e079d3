"""The benchmark's workloads: inputs drawn from the seed, requests, and checks.

Each workload is a closed loop with one caller.  A *group* is the unit one
latency sample is taken over (one ``batch_report`` call, one prior with its
three likelihood kinds, one CLI round trip).  A *block* runs one dim's
group ``reps[dim]`` times and a *round* runs one block per dim, so every
round does the same work and the counters of the traced run must repeat
round after round.

``reps`` follows one rule: each dim gets an equal share of a round, about
``BLOCK_S`` seconds, and at least one group where a single group takes
longer; a block covers every distinct input of its dim the same number of
times.  The group times the rule was applied to, given beside each
``reps``, are the per-instance means measured on commit b90a534 times the
instances in a group.

The program is always called through its module attributes
(``scenario.batch_report``, ``cli.main``, ...) so that the traced run's
wrappers see every call.  Checks run after the timed call returns.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from statepool import cli, compatibility, io, pooling, regions, scenario
from statepool.errors import (
    IncompatibleAssignmentsError,
    NonHermitianPoolingProductError,
    StatePoolError,
)

# The benchmark's own linear algebra, bound before any tracing wraps numpy.
_eigh = np.linalg.eigh

# Target seconds of one dim's block (see ``reps`` above).
BLOCK_S = 0.2


def reps_for(group_ms: dict, unit: int = 1) -> dict:
    """Groups per block: ``unit`` times the number of units that fill ``BLOCK_S``."""
    return {d: unit * max(1, round(BLOCK_S * 1e3 / (unit * ms))) for d, ms in group_ms.items()}


@dataclass
class Request:
    """One timed call into the program and the check of what it returned."""

    call: object  # () -> output
    check: object  # (output) -> None, raises CheckFailed
    instances: int


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class BatchGrid:
    """``scenario.batch_report`` on the random generator, one dim per call.

    Each call covers the dim's two noise cells {0.0, 0.5} with one
    instance each, the same count in every cell, so
    instance seeds are those of ``scenario-batch --count 1 --noise 0.0 0.5``.
    """

    name = "batch-grid"
    dims = (2, 8, 16, 32, 64)
    noise = (0.0, 0.5)
    count = 1
    # ms per group (two instances) on commit b90a534.
    reps = reps_for({2: 2.4, 8: 5.3, 16: 13.7, 32: 81, 64: 1236})
    # Matrix products at the sample's own dim are this workload's work.
    reference_dim = {d: d for d in dims}
    bytes_in = 0  # hands the program no files

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.reference = {}  # dim -> canonical JSON of the first call's rows

    def group(self, dim: int):
        return [Request(
            call=lambda: scenario.batch_report([dim], self.count, self.noise, self.seed),
            check=lambda rows: self._check(dim, rows),
            instances=self.count * len(self.noise),
        )]

    def _check(self, dim: int, rows) -> None:
        text = json.dumps(rows, sort_keys=True)
        if dim in self.reference:
            _require(text == self.reference[dim], f"d={dim}: rows differ from the first call")
            return
        _require(len(rows) == len(self.noise), f"d={dim}: {len(rows)} rows")
        for row, g in zip(rows, self.noise):
            _require(row["dim"] == dim and row["noise"] == g and row["count"] == self.count,
                     f"d={dim}: row header {row}")
            # Both posteriors are full rank (a unitary, then a channel that
            # keeps rank, applied to a full-rank prior), so they intersect.
            _require(row["frac_compatible"] == 1.0, f"d={dim} noise={g}: {row}")
        self.reference[dim] = text


class BayesPool:
    """Quantum Bayes rule, then compatibility, then pooling, on drawn inputs.

    Per prior, three likelihood pairs, one of each kind:
      * commuting (diagonal in one random basis): pooling succeeds and must
        equal rho^{1/2} L1 L2 rho^{1/2} / Tr(L1 L2 rho);
      * non-commuting (two random bases): NonHermitianPoolingProductError;
      * complementary projectors P, I - P: incompatible, and quantum_pool
        raises IncompatibleAssignmentsError.
    """

    name = "bayes-pool"
    dims = (2, 8, 16, 32, 64)
    priors_per_dim = 4
    # ms per group (one prior, three instances) on commit b90a534.
    reps = reps_for({2: 2.06, 8: 2.53, 16: 4.38, 32: 10.4, 64: 39.3}, unit=priors_per_dim)
    kinds = ("commuting", "noncommuting", "complementary")
    reference_dim = {d: d for d in dims}
    oracle_tol = 1e-9
    bytes_in = 0  # hands the program no files

    def __init__(self, seed: int, workdir: str):
        self.cases = {d: [self._draw(seed, d, j) for j in range(self.priors_per_dim)]
                      for d in self.dims}
        self.cursor = dict.fromkeys(self.dims, 0)

    @staticmethod
    def _draw(seed: int, dim: int, j: int) -> dict:
        rng = np.random.default_rng([seed, dim, j])

        def gaussian(rows, cols):
            return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

        def unitary():
            q, r = np.linalg.qr(gaussian(dim, dim))
            return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

        def effect(u):  # full-rank likelihood operator 0 < L <= I
            return (u * rng.uniform(0.1, 1.0, dim)) @ u.conj().T

        # Wishart with 2*dim degrees of freedom: full rank and well conditioned.
        g = gaussian(dim, 2 * dim)
        prior = g @ g.conj().T
        prior /= np.real(np.trace(prior))
        w, v = _eigh(prior)
        root = (v * np.sqrt(w)) @ v.conj().T

        u = unitary()
        commuting = (effect(u), effect(u))
        noncommuting = (effect(unitary()), effect(unitary()))
        basis = unitary()[:, : dim // 2]
        proj = basis @ basis.conj().T
        complementary = (proj, np.eye(dim) - proj)

        def posterior(like):
            s = root @ like @ root
            return s / np.real(np.trace(s))

        pairs = dict(zip(BayesPool.kinds, (commuting, noncommuting, complementary)))
        return {
            "prior": prior,
            "pairs": pairs,
            "posteriors": {k: tuple(posterior(x) for x in p) for k, p in pairs.items()},
            "pooled": posterior(commuting[0] @ commuting[1]),
        }

    def group(self, dim: int):
        case = self.cases[dim][self.cursor[dim]]
        self.cursor[dim] = (self.cursor[dim] + 1) % self.priors_per_dim
        return [Request(call=lambda k=kind: self._instance(case, k),
                        check=lambda out, k=kind: self._check(case, k, out),
                        instances=1)
                for kind in self.kinds]

    @staticmethod
    def _instance(case: dict, kind: str):
        prior = case["prior"]
        like1, like2 = case["pairs"][kind]
        s1 = regions.quantum_bayes(like1, prior)
        s2 = regions.quantum_bayes(like2, prior)
        verdict = compatibility.quantum_compatible(s1, s2)
        try:
            return s1, s2, verdict, pooling.quantum_pool(prior, s1, s2)
        except StatePoolError as exc:
            return s1, s2, verdict, exc

    def _check(self, case: dict, kind: str, out) -> None:
        s1, s2, verdict, pooled = out
        for got, want in zip((s1, s2), case["posteriors"][kind]):
            _require(np.max(np.abs(got - want)) <= self.oracle_tol, f"{kind}: Bayes posterior")
        if kind == "commuting":
            _require(verdict.compatible, "commuting: judged incompatible")
            _require(isinstance(pooled, pooling.PoolingReport), f"commuting: {pooled!r}")
            err = np.max(np.abs(pooled.pooled - case["pooled"]))
            _require(err <= self.oracle_tol, f"commuting: pooled state off by {err:.3e}")
        elif kind == "noncommuting":
            _require(verdict.compatible, "noncommuting: judged incompatible")
            _require(isinstance(pooled, NonHermitianPoolingProductError), f"noncommuting: {pooled!r}")
        else:
            _require(not verdict.compatible, "complementary: judged compatible")
            _require(type(pooled) is IncompatibleAssignmentsError, f"complementary: {pooled!r}")


class CliRoundtrip:
    """``statepool.cli.main`` in-process: ``randgen`` then ``scenario-run``.

    Noise 0.5 at d <= 16.  At d >= 32 the depolarizing channel's Kraus
    list (d^2 + 1 operators) would make a config of 10^6 to 10^7 matrix
    entries, so those dims use noise 0.0: the config holds the prior and
    two unitaries.
    """

    name = "cli-roundtrip"
    dims = (2, 8, 16, 32, 64)
    # ms per group (one round trip) on commit b90a534.
    reps = reps_for({2: 8.7, 8: 56.9, 16: 635, 32: 60.2, 64: 218})
    # Text encoding and interpreter work dominate at every dim, so every
    # dim is paired with the interpreter-bound reference loop at d = 2.
    reference_dim = dict.fromkeys(dims, 2)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.reference = {}  # dim -> (config bytes, result bytes)
        self.bytes_in = 0  # bytes of the configs handed to scenario-run

    @staticmethod
    def noise(dim: int) -> float:
        return 0.5 if dim <= 16 else 0.0

    def group(self, dim: int):
        cfg = os.path.join(self.workdir, f"config-d{dim}.json")
        out = os.path.join(self.workdir, f"result-d{dim}.json")
        argv_gen = ["randgen", "--dim", str(dim), "--noise", str(self.noise(dim)),
                    "--seed", str(self.seed), "--output", cfg]
        argv_run = ["scenario-run", cfg, "--output", out]
        return [Request(call=lambda: (cli.main(argv_gen), cli.main(argv_run)),
                        check=lambda codes: self._check(dim, cfg, out, codes),
                        instances=1)]

    def _check(self, dim: int, cfg: str, out: str, codes) -> None:
        _require(codes == (0, 0), f"d={dim}: exit codes {codes}")
        with open(cfg, "rb") as fh:
            cfg_bytes = fh.read()
        with open(out, "rb") as fh:
            out_bytes = fh.read()
        self.bytes_in += len(cfg_bytes)
        if dim in self.reference:
            _require(self.reference[dim] == (cfg_bytes, out_bytes),
                     f"d={dim}: output bytes differ from the first call")
            return
        text = cfg_bytes.decode("utf-8")
        again = io.dumps(io.scenario_config_to_json(io.scenario_config_from_json(json.loads(text))))
        _require(again == text, f"d={dim}: config does not survive decode then encode")
        result = json.loads(out_bytes)
        # Both posteriors are full rank, so their supports intersect.
        _require(result["compatible"] is True, f"d={dim}: judged incompatible")
        _require(result["sigma1"]["dim"] == dim, f"d={dim}: result dim")
        self.reference[dim] = (cfg_bytes, out_bytes)


WORKLOADS = {w.name: w for w in (BatchGrid, BayesPool, CliRoundtrip)}
