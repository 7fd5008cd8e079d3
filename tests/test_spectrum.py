"""One spectrum per operator: Spectrum-derived quantities, the principal-angle
intersection, the full-rank certificate, decomposition counts on the hot
paths, and golden bytes."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statepool import io, regions
from statepool.cli import main
from statepool.compatibility import quantum_compatible
from statepool.errors import (
    IncompatibleAssignmentsError, InvalidParameterError, NonHermitianPoolingProductError,
    PriorSupportError,
)
from statepool.linalg import (
    Spectrum, Subspace, Tolerances, _certified_full_rank, hermitize, max_norm,
    subspace_intersection, support_projector,
)
from statepool.pooling import _pool, quantum_pool
from statepool.scenario import (
    AgentPipeline, ScenarioConfig, UnitaryDynamics, adversarial_instance, batch_report,
    depolarizing_channel, haar_unitary, random_instance, run_pipeline, run_scenario,
)

from oracles import rand_density, rand_psd

TOL = 1e-8  # subspace_intersection's default


def haar(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def old_intersection_rank(p: Subspace, q: Subspace, tol: float = TOL) -> int:
    """The rule subspace_intersection used before: eig(P + Q) >= 2 - tol."""
    return int(np.count_nonzero(np.linalg.eigvalsh(p.projector() + q.projector()) >= 2.0 - tol))


def span(rng, cols):
    """Subspace spanned by ``cols`` (orthonormal), with its basis scrambled."""
    d, r = cols.shape
    return Subspace(d, cols @ haar(rng, r) if r else cols)


PAIR_KINDS = ("nested", "equal", "orthogonal", "random", "empty", "angle_in", "angle_out")


def subspace_pair(kind, d, r1, r2, seed):
    rng = np.random.default_rng(seed)
    u = haar(rng, d)
    r1, r2 = sorted((r1 % (d + 1), r2 % (d + 1)))
    if kind == "nested":
        return span(rng, u[:, :r1]), span(rng, u[:, :r2])
    if kind == "equal":
        return span(rng, u[:, :r2]), span(rng, u[:, :r2])
    if kind == "orthogonal":
        r1 = min(r1, d - r2)
        return span(rng, u[:, :r1]), span(rng, u[:, d - r2:])
    if kind == "random":
        return span(rng, haar(rng, d)[:, :r1]), span(rng, u[:, :r2])
    if kind == "empty":
        return Subspace.empty(d), span(rng, u[:, :r2])
    # k shared directions plus one pair at a principal angle whose 1 - cos is
    # 100x inside or 100x outside the tolerance.
    k = min(r1, d - 2)
    theta = np.arccos(1.0 - (TOL / 100 if kind == "angle_in" else TOL * 100))
    tilted = np.cos(theta) * u[:, k] + np.sin(theta) * u[:, k + 1]
    return (span(rng, u[:, : k + 1]),
            span(rng, np.column_stack([u[:, :k], tilted])))


class TestPrincipalAngleIntersection:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PAIR_KINDS), st.integers(2, 7), st.integers(0, 7),
           st.integers(0, 7), st.integers(0, 10_000))
    def test_same_rank_as_projector_sum_rule(self, kind, d, r1, r2, seed):
        p, q = subspace_pair(kind, d, r1, r2, seed)
        for a, b in ((p, q), (q, p)):
            got = subspace_intersection(a, b)
            assert got.rank == old_intersection_rank(a, b)
            # the shared directions lie in both subspaces, up to the tolerated angle
            for s in (a, b):
                assert max_norm(s.projector() @ got.basis - got.basis) < 1e-4

    @pytest.mark.parametrize("kind, rank", [("angle_in", 2), ("angle_out", 1)])
    def test_angle_on_either_side_of_the_tolerance(self, kind, rank):
        p, q = subspace_pair(kind, 4, 1, 2, seed=3)
        assert subspace_intersection(p, q).rank == rank


class TestSpectrum:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_pinv_matches_numpy(self, d):
        rng = np.random.default_rng(d)
        for rank in range(1, d + 1):
            m = rand_psd(rng, d, rank=rank)
            want = np.linalg.pinv(m, rcond=1e-10, hermitian=True)
            assert max_norm(Spectrum.of(m).pinv() - want) < 1e-10 * max(1.0, max_norm(want))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_sqrt_matches_scipy(self, d):
        m = rand_density(np.random.default_rng(10 + d), d)
        assert max_norm(Spectrum.of(m).psd_function(np.sqrt) - scipy.linalg.sqrtm(m)) < 1e-10

    def test_support_pinv_and_psd_share_the_one_cut(self):
        s = Spectrum.of(np.diag([2.0, 1e-12, 0.0, -1e-13]), rank_tol=1e-10)
        assert s.support().rank == 1
        assert max_norm(s.pinv() - np.diag([0.5, 0.0, 0.0, 0.0])) == 0.0
        assert s.is_psd() and not Spectrum.of(np.diag([1.0, -0.1])).is_psd()

    def test_zero_operator(self):
        s = Spectrum.of(np.zeros((3, 3)))
        assert s.support().is_empty and max_norm(s.pinv()) == 0.0


class Counter:
    """Counts the dense decompositions and solves numpy.linalg is asked for."""

    def __init__(self, monkeypatch):
        self.calls = []
        for name in ("eigh", "eigvalsh", "svd", "cholesky", "solve"):
            monkeypatch.setattr(np.linalg, name, self._wrap(name, getattr(np.linalg, name)))

    def _wrap(self, name, fn):
        def wrapper(a, *args, **kwargs):
            self.calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    def count(self, *names):
        return sum(1 for n, _ in self.calls if n in names)


def bayes_case(d, commuting):
    """A full-rank prior, the Bayes posteriors of two likelihoods and, for the
    commuting pair, the pooled state rho^1/2 L1 L2 rho^1/2 / Tr(L1 L2 rho).
    The other pair is a rank-d/2 projector P and I - P: disjoint supports."""
    rng = np.random.default_rng([d, commuting])
    prior = rand_density(rng, d)
    u = haar(rng, d)
    if commuting:
        likes = [(u * rng.uniform(0.1, 1.0, d)) @ u.conj().T for _ in range(2)]
    else:
        proj = u[:, : d // 2] @ u[:, : d // 2].conj().T
        likes = [proj, np.eye(d) - proj]
    s1, s2 = (regions.quantum_bayes(like, prior) for like in likes)
    return prior, s1, s2, regions.quantum_bayes(likes[0] @ likes[1], prior) if commuting else None


class TestDecompositionCounts:
    @pytest.mark.parametrize("d", [2, 8])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_run_scenario(self, monkeypatch, d, seed):
        # one Cholesky certifies the prior in its density check, one each
        # sigma1 and sigma2; pooling is one LU solve against the prior
        c = Counter(monkeypatch)
        run_scenario(random_instance(d, seed, 0.5))
        assert c.count("eigh", "eigvalsh", "svd") == 0
        assert c.count("cholesky") == 3 and c.count("solve") == 1

    def test_run_scenario_incompatible(self, monkeypatch):
        from statepool.scenario import adversarial_instance

        cfg = adversarial_instance(3, 1)
        c = Counter(monkeypatch)
        assert not run_scenario(cfg).verdict.compatible
        assert c.count("eigh", "eigvalsh", "svd") == 3  # the rank-one posteriors, their SVD
        assert c.count("solve") == 0

    def test_quantum_pool_success(self, monkeypatch):
        # rank-deficient posteriors sharing one direction, so the SVD runs too
        prior = np.eye(3) / 3
        s1, s2 = np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.5, 0.5])
        c = Counter(monkeypatch)
        report = quantum_pool(prior, s1, s2)
        assert max_norm(report.pooled - np.diag([0.0, 1.0, 0.0])) < 1e-12
        # the certified prior is solved against; each posterior's certificate fails
        assert c.count("eigh") == 2 and c.count("cholesky") == 3 and c.count("svd") == 1
        assert c.count("eigvalsh") == 1 and c.count("solve") == 1

    def test_quantum_pool_failure(self, monkeypatch):
        rng = np.random.default_rng(4)
        prior, s1, s2 = (rand_density(rng, 4) for _ in range(3))
        c = Counter(monkeypatch)
        with pytest.raises(NonHermitianPoolingProductError):
            quantum_pool(prior, s1, s2)
        assert c.count("eigh") == 0 and c.count("cholesky") == 3 and c.count("solve") == 1
        assert c.count("eigvalsh", "svd") == 0

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_quantum_compatible_full_rank(self, monkeypatch, d):
        rng = np.random.default_rng(d)
        s1, s2 = rand_density(rng, d), rand_density(rng, d)
        c = Counter(monkeypatch)
        verdict = quantum_compatible(s1, s2)
        assert c.count("eigh") == 0 and c.count("cholesky") == 2
        assert c.count("eigvalsh", "svd") == 0
        # the whole space, now in the identity basis rather than s2's eigenbasis
        assert verdict.compatible and np.array_equal(verdict.intersection.basis, np.eye(d))

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_quantum_pool_full_rank_success(self, monkeypatch, d):
        prior, s1, s2, pooled = bayes_case(d, commuting=True)
        c = Counter(monkeypatch)
        report = quantum_pool(prior, s1, s2)
        assert max_norm(report.pooled - pooled) < 1e-9
        assert c.count("eigh") == 0 and c.count("cholesky") == 3 and c.count("solve") == 1
        assert c.count("eigvalsh") == 1 and c.count("svd") == 0

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_complementary_projectors_fall_back(self, monkeypatch, d):
        prior, s1, s2, _ = bayes_case(d, commuting=False)
        c = Counter(monkeypatch)
        verdict = quantum_compatible(s1, s2)
        assert not verdict.compatible and verdict.intersection_rank() == 0
        assert c.count("cholesky") == 2 and c.count("eigh") == 2
        with pytest.raises(IncompatibleAssignmentsError):
            quantum_pool(prior, s1, s2)
        # the prior certified, both posteriors again; disjoint, so nothing is solved
        assert c.count("cholesky") == 5 and c.count("eigh") == 4 and c.count("solve") == 0

    def test_condition_decomposes_the_marginal_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        s = regions.JointState(
            (regions.RegionLabel("A", 2), regions.RegionLabel("B", 3)), rand_density(rng, 6)
        )
        c = Counter(monkeypatch)
        regions.condition(s, "B")
        assert [shape for n, shape in c.calls if n == "eigh"].count((3, 3)) == 1
        assert c.count("eigvalsh", "svd") == 0


EPS = np.finfo(float).eps
RANK_TOLS = (0.0, 1e-10, 1e-3, 0.2)


def cut_ratio(d, rank_tol):
    """The lambda_min / Tr above which the certificate may say full rank."""
    return rank_tol + 4 * d * d * EPS


def psd_with_min_ratio(d, ratio, seed, scale=1.0):
    """An ill-conditioned PSD matrix of trace ``scale`` whose smallest eigenvalue
    is ``ratio * scale``: the other eigenvalues sit at ``ratio`` plus shares of
    1 - d * ratio spread over twelve decades, in a Haar basis."""
    rng = np.random.default_rng(seed)
    shares = 10.0 ** (-12 * rng.random(d - 1))
    w = np.concatenate([[ratio], ratio + (1 - d * ratio) * shares / shares.sum()])
    u = haar(rng, d)
    return (u * (scale * w)) @ u.conj().T


class TestFullRankCertificate:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 8, 64]), st.sampled_from(RANK_TOLS),
           st.sampled_from([0.5, 1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6, 2.0]),
           st.sampled_from([1e-6, 1.0, 1e6]), st.integers(0, 10_000))
    def test_certified_means_eigh_keeps_every_eigenvalue(self, d, rank_tol, factor, scale,
                                                        seed):
        ratio = factor * cut_ratio(d, rank_tol)
        assume(d * ratio <= 1.0)
        a = psd_with_min_ratio(d, ratio, seed, scale)
        spectrum = Spectrum.of(a, rank_tol)
        if _certified_full_rank(hermitize(a), rank_tol):
            assert spectrum.kept.all()
        assert support_projector(a, rank_tol).rank == spectrum.support().rank

    @pytest.mark.parametrize("rank_tol", RANK_TOLS)
    def test_dim_one(self, rank_tol):
        for x in (1e-300, 1.0, 1e300):
            assert _certified_full_rank(np.array([[x]], dtype=complex), rank_tol)
            assert Spectrum.of([[x]], rank_tol).kept.all()

    @pytest.mark.parametrize("d", [2, 8, 64])
    @pytest.mark.parametrize("rank_tol", RANK_TOLS)
    def test_decides_well_away_from_the_cut(self, d, rank_tol):
        for factor, certified in ((2.0, True), (0.5, False)):
            ratio = factor * cut_ratio(d, rank_tol)
            if d * ratio > 1.0:
                continue  # no trace-one spectrum has that smallest share
            for seed in range(5):
                a = psd_with_min_ratio(d, ratio, seed)
                assert _certified_full_rank(hermitize(a), rank_tol) == certified

    @pytest.mark.parametrize("m, rank", [
        (np.zeros((3, 3)), 0),
        (np.diag([1.0, -0.5]), 2),  # indefinite: eigh keeps both
        (np.diag([-1.0, -1.0]), 2),  # negative trace
        (np.diag([1.0, 0.0, 0.0]), 1),
    ])
    def test_falls_back_to_eigh(self, monkeypatch, m, rank):
        c = Counter(monkeypatch)
        assert support_projector(m).rank == rank
        assert c.count("eigh") == 1

    def test_rank_one_replacement_posteriors_fall_back(self, monkeypatch):
        cfg = adversarial_instance(4, 2)
        c = Counter(monkeypatch)
        res = run_scenario(cfg)
        assert not res.verdict.compatible and res.verdict.intersection_rank() == 0
        assert c.count("cholesky") == 2 and c.count("eigh") == 2  # both posteriors
        for p in cfg.pipelines:
            assert support_projector(run_pipeline(p, cfg.prior)).rank == 1

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_full_subspace_has_exactly_the_identity_basis(self, d):
        full = Subspace.full(d)
        assert full.ambient_dim == d and full.rank == d
        assert full.basis.dtype == complex and np.array_equal(full.basis, np.eye(d))

    def test_certified_support_is_the_full_space(self, monkeypatch):
        a = np.diag([0.5, 0.3, 0.2])
        c = Counter(monkeypatch)
        assert np.array_equal(support_projector(a).basis, np.eye(3))
        assert c.count("cholesky") == 1 and c.count("eigh") == 0


class TestNonHermitianPoolingInput:
    SIGMA = np.array([[0.5, 0.3], [0.0, 0.5]])

    def test_rejected_before_the_product(self):
        with pytest.raises(InvalidParameterError, match="s1 is not Hermitian"):
            quantum_pool(np.eye(2) / 2, self.SIGMA, np.eye(2) / 2)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_any_slot(self, slot):
        args = [np.eye(2) / 2] * 3
        args[slot] = self.SIGMA
        with pytest.raises(InvalidParameterError):
            quantum_pool(*args)

    def test_hermitian_drift_within_tolerance_is_accepted(self):
        s = np.eye(2) / 2 + np.array([[0.0, 1e-12], [0.0, 0.0]])
        assert quantum_pool(np.eye(2) / 2, s, np.eye(2) / 2).pooled.shape == (2, 2)

    def test_cli_exit_2(self, tmp_path, capsys):
        paths = []
        for name, m in (("p", np.eye(2) / 2), ("a", self.SIGMA), ("b", np.eye(2) / 2)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(io.matrix_to_json(m)))
            paths.append(str(path))
        code = main(["pool-quantum", *paths])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"] == "malformed_input"


# SHA-256 of `scenario-run` on `randgen --dim d --noise 0.5 --seed 7`: they
# pin intersection_rank and the bytes of the pooling residual, which is taken
# with one LU solve against the certified prior.
SCENARIO_RUN_SHA256 = {
    2: "55d25efb8aa020820b838d0b7b3cbdbbaa522ac95d629a5303ced6e52c3f5199",
    8: "a8ce4718c4953910e54ae8fc6b460e208ce0de2048d2f8764c2350b1281c1489",
}


@pytest.mark.parametrize("d", sorted(SCENARIO_RUN_SHA256))
def test_scenario_run_golden_bytes(tmp_path, capsys, d):
    cfg = str(tmp_path / "cfg.json")
    assert main(["randgen", "--dim", str(d), "--noise", "0.5", "--seed", "7",
                 "--output", cfg]) == 0
    capsys.readouterr()
    assert main(["scenario-run", cfg]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCENARIO_RUN_SHA256[d]


def _pool_recomputing_the_prior(cfg):
    """``run_scenario``'s pooling step with the prior decomposed afresh."""
    sigma1, sigma2 = (run_pipeline(p, cfg.prior) for p in cfg.pipelines)
    supp1, supp2 = (Spectrum.of(s, cfg.tol.rank_tol).support() for s in (sigma1, sigma2))
    return _pool(cfg.prior, Spectrum.of(cfg.prior, cfg.tol.rank_tol), sigma1, sigma2, supp1,
                 supp2, None, cfg.tol)


def evolved_configs(d):
    """A noisy and a unitary-only scenario, both pooled against the evolved prior."""
    cfg = random_instance(d, 11, 0.3)
    u = UnitaryDynamics(haar_unitary(d, np.random.default_rng([11, d])))
    yield dataclasses.replace(cfg, pool_against_evolved=True, evolved_by=u)
    yield dataclasses.replace(cfg, pipelines=(AgentPipeline("W", (u,)), AgentPipeline("T", (u,))),
                              pool_against_evolved=True, evolved_by=u)


# SHA-256s of results pooled with one LU solve against a certified prior.
EVOLVED_SHA256 = {
    2: "2788264890cc5f7aec83c8c69c8db7bcc47ef15d6ababbbf5898522053f42450",
    8: "710bfd5af60f704469c8f1c677736ecc742c6d8fa27553b47c94086f20c402bf",
}
BATCH_SHA256 = "ce070398444727a77c3a69ffa1c3bab5a5f46efccba44fbef20df26d2b202fca"


class TestPriorSpectrumFromTheDensityCheck:
    @pytest.mark.parametrize("d", [2, 8])
    def test_three_decompositions_per_scenario(self, monkeypatch, d):
        # one Cholesky certifies the prior in its density check and one each
        # sigma1 and sigma2, then pooling solves against the prior once
        c = Counter(monkeypatch)
        run_scenario(random_instance(d, 3, 0.5))
        assert c.count("cholesky") == 3 and c.count("solve") == 1
        assert c.count("eigh", "eigvalsh", "svd") == 0

    @pytest.mark.parametrize("rank_tol", [1e-10, 0.2])
    def test_kept_spectrum_is_that_of_the_checked_prior(self, rank_tol):
        cfg = dataclasses.replace(random_instance(4, 5, 0.5), tol=Tolerances(rank_tol=rank_tol))
        fresh = Spectrum.of(cfg.prior, cfg.tol.rank_tol)
        if rank_tol == 1e-10:  # one Cholesky certifies the prior: no spectrum is kept
            assert fresh.kept.all() and cfg._prior_spectrum is None
            return
        assert not fresh.kept.all()  # a cut at 0.2 drops an eigenvalue: the certificate fails
        assert np.array_equal(cfg._prior_spectrum.w, fresh.w)
        assert np.array_equal(cfg._prior_spectrum.v, fresh.v)
        assert cfg._prior_spectrum.cut == fresh.cut

    def test_clamped_prior_matches_a_recomputed_spectrum(self):
        # eigenvalue -1e-12 passes the PSD test and is clamped, so the checked
        # prior is a new matrix of rank 2 and its spectrum is taken again
        u = haar_unitary(3, np.random.default_rng(2))
        prior = (u * np.array([0.6, 0.4 + 1e-12, -1e-12])) @ u.conj().T
        cfg = ScenarioConfig(prior, (AgentPipeline("W"), AgentPipeline("T")))
        assert np.linalg.eigvalsh(prior).min() < 0 <= np.linalg.eigvalsh(cfg.prior).min()
        assert cfg._prior_spectrum.support().rank == 2
        res, want = run_scenario(cfg), _pool_recomputing_the_prior(cfg)
        assert res.pooling_error is None
        assert io.dumps(io.pooling_report_to_json(res.pooling)) == io.dumps(
            io.pooling_report_to_json(want))

    def test_rank_deficient_prior_reports_prior_support_error(self):
        steps = (depolarizing_channel(3, 0.5),)  # full-rank posteriors
        cfg = ScenarioConfig(np.diag([0.5, 0.5, 0.0]),
                             (AgentPipeline("W", steps), AgentPipeline("T", steps)))
        res = run_scenario(cfg)
        assert res.verdict.compatible and res.pooling is None
        assert res.pooling_error["error"] == "PriorSupportError"
        with pytest.raises(PriorSupportError):
            _pool_recomputing_the_prior(cfg)

    @pytest.mark.parametrize("d", sorted(EVOLVED_SHA256))
    def test_pool_against_evolved_golden_bytes(self, d):
        text = "".join(io.dumps(io.scenario_result_to_json(run_scenario(c)))
                       for c in evolved_configs(d))
        assert hashlib.sha256(text.encode()).hexdigest() == EVOLVED_SHA256[d]

    def test_batch_report_golden_bytes(self):
        rows = batch_report([2, 8, 16, 32, 64], 3, [0.0, 0.5], 7)
        assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == BATCH_SHA256

    def test_full_rank_prior_skips_the_containment_products(self, monkeypatch):
        # both posteriors escape nothing: the full space holds every support,
        # whether the prior's spectrum keeps every eigenvalue or is certified away
        calls = []
        monkeypatch.setattr(Subspace, "projector", lambda self: calls.append(self) or np.eye(3))
        s = np.diag([0.5, 0.5, 0.0])
        for spectrum in (Spectrum.of(np.eye(3) / 3), None):
            _pool(np.eye(3) / 3, spectrum, s, s, Spectrum.of(s).support(),
                  Spectrum.of(s).support(), None, Tolerances())
        assert calls == []
