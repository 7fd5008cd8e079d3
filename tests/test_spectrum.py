"""One spectrum per operand: Spectrum-derived quantities, the principal-angle
intersection, the full-rank certificate, decomposition counts on the hot
paths, the memo of recently checked operands, and golden bytes."""

import dataclasses
import hashlib
import json
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statepool import io, linalg, regions
from statepool.cli import main
from statepool.compatibility import CompatibilityVerdict, _support_verdict, quantum_compatible
from statepool.errors import (
    DimensionMismatchError, ImpossibleConditioningError, IncompatibleAssignmentsError,
    InvalidParameterError, NonHermitianPoolingProductError, PriorSupportError,
    StatePoolError,
)
from statepool.linalg import (
    Spectrum, Subspace, Tolerances, _certified_full_rank, _spectrum, hermitize, max_norm,
    subspace_intersection, support_projector,
)
from statepool.pooling import _pool, quantum_pool
from statepool.scenario import (
    AgentPipeline, DephasingChannel, DepolarizingChannel, ScenarioConfig, UnitaryDynamics,
    adversarial_instance, batch_report, haar_unitary, random_instance, run_scenario,
)

from oracles import psd_floor, rand_density, rand_psd

TOL = 1e-8  # subspace_intersection's default
RANK_TOLS = (0.0, 1e-10, 1e-3, 0.2)


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


SPECTRUM_KINDS = ("psd", "rank_deficient", "negative_definite", "zero", "tiny_negative",
                  "indefinite")


def spectrum_kind(kind, d, scale, seed):
    """A symmetrized matrix in a Haar basis: PSD, PSD with zero eigenvalues, negative
    definite, PSD with eigenvalues inside the PSD floor (down to -PSD_TOL/2 of the
    largest), or indefinite beyond it, its eigenvalues of order ``scale``; or zero,
    every entry -0.0 - 0.0j half the time, whose eigenvalues eigh returns as -0.0."""
    rng = np.random.default_rng([seed, d])
    if kind == "zero":
        return np.full((d, d), complex(-0.0, -0.0) if rng.random() < 0.5 else 0j)
    w = scale * rng.uniform(0.01, 1.0, d)
    if kind == "rank_deficient":
        w[rng.random(d) < 0.5] = 0.0
    elif kind == "negative_definite":
        w = -w
    elif kind == "tiny_negative":
        w[: max(1, d // 2)] *= -0.5 * linalg.PSD_TOL * rng.random() / scale
    elif kind == "indefinite":
        w[0] = -w[0]
    u = haar(rng, d)
    return hermitize((u * w) @ u.conj().T)


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
        assert max_norm(Spectrum.of(m).root - scipy.linalg.sqrtm(m)) < 1e-10

    def test_support_pinv_and_psd_share_the_one_cut(self):
        s = Spectrum.of(np.diag([2.0, 1e-12, 0.0, -1e-13]), rank_tol=1e-10)
        assert s.support().rank == 1
        assert max_norm(s.pinv() - np.diag([0.5, 0.0, 0.0, 0.0])) == 0.0
        assert s.is_psd() and not Spectrum.of(np.diag([1.0, -0.1])).is_psd()

    def test_zero_operator(self):
        s = Spectrum.of(np.zeros((3, 3)))
        assert s.support().is_empty and max_norm(s.pinv()) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SPECTRUM_KINDS), st.integers(1, 8), st.sampled_from(RANK_TOLS),
           st.sampled_from([1e-6, 1.0, 1e6]), st.integers(0, 10_000))
    def test_the_ends_of_w_decide_as_the_whole_array(self, kind, d, rank_tol, scale, seed):
        # the cut, the PSD test, the support mask and the clamp read eigh's ascending
        # w at its ends; each must have the bits of its rule applied to all of w
        s = Spectrum._of_hermitian(spectrum_kind(kind, d, scale, seed), rank_tol)
        w = s.w
        assert (np.diff(w) >= 0).all()  # the premise: eigh's eigenvalues ascend
        cut = linalg._rank_cut(w, rank_tol)
        assert s.cut.hex() == cut.hex()
        assert s.is_psd() is bool(w.min() >= psd_floor(w))
        assert s.kept.dtype == bool and np.array_equal(s.kept, np.abs(w) > cut)
        assert s.full_rank is bool((np.abs(w) > cut).all())
        if s.is_psd():
            clamped = s.clamped()
            assert clamped.w.tobytes() == np.clip(w, 0.0, None).tobytes()
            assert clamped.v is s.v and clamped.cut == s.cut
            assert np.array_equal(clamped.kept, np.abs(np.clip(w, 0.0, None)) > cut)
            assert clamped.support().basis.tobytes() == s.v[:, w > cut].tobytes()
        if kind in ("psd", "tiny_negative"):
            assert s.is_psd()
        if kind == "negative_definite":
            assert not s.is_psd()


JOINT_2x3 = regions.JointState((regions.RegionLabel("A", 2), regions.RegionLabel("B", 3)),
                               rand_density(np.random.default_rng(5), 6))


def count_as_matrix(monkeypatch) -> list:
    """The list each ``as_matrix`` call appends its operand to from now on.
    regions and scenario bind as_matrix by name, so each binding is counted."""
    calls, as_matrix = [], linalg.as_matrix
    for module in list(sys.modules.values()):
        if (module.__name__.startswith("statepool")
                and getattr(module, "as_matrix", None) is as_matrix):
            monkeypatch.setattr(module, "as_matrix", lambda m: calls.append(m) or as_matrix(m))
    return calls


class Counter:
    """Counts the dense decompositions and solves numpy.linalg is asked for.  It
    empties linalg's memo of recently checked operands first, so a count states
    only the work of the calls it wraps."""

    def __init__(self, monkeypatch):
        linalg._memo = ()
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


def bayes_inputs(d, commuting):
    """A full-rank prior and two likelihoods: commuting full-rank effects, or a
    rank-d/2 projector P and I - P, whose posteriors have disjoint supports."""
    rng = np.random.default_rng([d, commuting])
    prior = rand_density(rng, d)
    u = haar(rng, d)
    if commuting:
        likes = [(u * rng.uniform(0.1, 1.0, d)) @ u.conj().T for _ in range(2)]
    else:
        proj = u[:, : d // 2] @ u[:, : d // 2].conj().T
        likes = [proj, np.eye(d) - proj]
    return prior, likes


def bayes_case(d, commuting):
    """``bayes_inputs``' prior, the Bayes posteriors of its two likelihoods and, for
    the commuting pair, the pooled state rho^1/2 L1 L2 rho^1/2 / Tr(L1 L2 rho)."""
    prior, likes = bayes_inputs(d, commuting)
    s1, s2 = (regions.quantum_bayes(like, prior) for like in likes)
    return prior, s1, s2, regions.quantum_bayes(likes[0] @ likes[1], prior) if commuting else None


def bayes_group(d, seed):
    """A full-rank prior and three likelihood pairs: commuting effects, effects
    diagonal in two random bases, and complementary projectors P, I - P."""
    rng = np.random.default_rng([d, seed, 3])
    prior = rand_density(rng, d)

    def effect(u):
        return (u * rng.uniform(0.1, 1.0, d)) @ u.conj().T

    u, basis = haar(rng, d), haar(rng, d)[:, : d // 2]
    proj = basis @ basis.conj().T
    return prior, [(effect(u), effect(u)), (effect(haar(rng, d)), effect(haar(rng, d))),
                   (proj, np.eye(d) - proj)]


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
        assert c.count("svd") == 1
        with pytest.raises(IncompatibleAssignmentsError):
            quantum_pool(prior, s1, s2)
        # the prior certified; both posteriors and their verdict come from the memo,
        # so no certificate fails again and no SVD runs; disjoint, so nothing is solved
        assert c.count("cholesky") == 3 and c.count("eigh") == 2 and c.count("solve") == 0
        assert c.count("svd") == 1

    @pytest.mark.parametrize("d", [2, 8, 64])
    @pytest.mark.parametrize("commuting, eighs", [(True, 1), (False, 3)],
                             ids=["full_rank", "complementary"])
    def test_bayes_pool_instance(self, monkeypatch, d, commuting, eighs):
        # both Bayes updates take the one prior's square root; rank-deficient
        # posteriors are decomposed once for the verdict and the pool together
        prior, likes = bayes_inputs(d, commuting)
        c = Counter(monkeypatch)
        s1, s2 = (regions.quantum_bayes(like, prior) for like in likes)
        assert quantum_compatible(s1, s2).compatible == commuting
        if commuting:
            quantum_pool(prior, s1, s2)
        else:
            with pytest.raises(IncompatibleAssignmentsError):
                quantum_pool(prior, s1, s2)
        assert c.count("eigh") == eighs and c.count("eigvalsh") == commuting

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_bayes_pool_group(self, monkeypatch, d):
        # per group: the prior's root, one eigh; the six posteriors, one Cholesky each,
        # and one eigh each of the two complementary ones; the prior's state, one
        # Cholesky; the complementary verdict, one SVD.  A prior met again after
        # three others costs the same: a group touches more values than the memo holds.
        groups = [bayes_group(d, seed) for seed in range(4)]
        c = Counter(monkeypatch)
        costs = []
        for prior, pairs in groups + groups[:1]:
            c.calls.clear()
            for like1, like2 in pairs:
                s1, s2 = (regions.quantum_bayes(like, prior) for like in (like1, like2))
                quantum_compatible(s1, s2)
                try:
                    quantum_pool(prior, s1, s2)
                except StatePoolError:
                    pass
            costs.append({n: c.count(n) for n in ("cholesky", "svd", "eigh", "eigvalsh", "solve")})
        assert costs[0] == {"cholesky": 7, "svd": 1, "eigh": 3, "eigvalsh": 1, "solve": 2}
        assert costs == [costs[0]] * 5

    @pytest.mark.parametrize("d", [2, 8])
    def test_batch_report_costs_the_same_twice(self, monkeypatch, d):
        # the scenario path never reads the memo: each instance certifies its prior
        # and both posteriors and solves once, however often it is run
        c = Counter(monkeypatch)
        costs = []
        for _ in range(2):
            c.calls.clear()
            batch_report([d], 1, [0.0, 0.5], 6)
            costs.append({n: c.count(n) for n in ("cholesky", "svd", "eigh", "eigvalsh", "solve")})
        assert costs == [{"cholesky": 6, "svd": 0, "eigh": 0, "eigvalsh": 0, "solve": 2}] * 2

    def test_condition_decomposes_the_marginal_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        s = regions.JointState(
            (regions.RegionLabel("A", 2), regions.RegionLabel("B", 3)), rand_density(rng, 6)
        )
        c = Counter(monkeypatch)
        regions.condition(s, "B")
        assert [shape for n, shape in c.calls if n == "eigh"].count((3, 3)) == 1
        assert c.count("eigvalsh", "svd") == 0

    @pytest.mark.parametrize("call, validations", [
        (lambda: quantum_pool(np.eye(2) / 2, np.eye(2) / 2, np.eye(2) / 2), 3),
        (lambda: quantum_compatible(np.eye(2) / 2, np.eye(2) / 2), 2),
        (lambda: random_instance(2, 0), 1),  # the prior; its Haar unitaries are not re-checked
        (lambda: regions.JointState((regions.RegionLabel("A", 2),), np.eye(2) / 2), 1),
        (lambda: regions.HybridState((3,), {0: np.eye(2) / 8, 2: np.eye(2) / 8,
                                            1: np.eye(2) / 4}), 3),  # one per block
        # the joint (partial trace), its marginal (JointState), the marginal's
        # pseudo-inverse (embed) and its embedding (permute_factors)
        (lambda: regions.condition(JOINT_2x3, "B"), 4),
    ], ids=["quantum_pool", "quantum_compatible", "random_instance", "JointState",
            "HybridState", "condition"])
    def test_each_state_validated_once(self, monkeypatch, call, validations):
        calls = count_as_matrix(monkeypatch)
        call()
        assert len(calls) == validations

    @pytest.mark.parametrize("call, validations", [
        (lambda: regions.quantum_bayes(np.eye(2) / 2, np.eye(2) / 2), 2),
        (lambda: random_instance(2, 0), 1),
    ], ids=["quantum_bayes", "random_instance"])
    def test_each_operand_validated_once_in_every_namespace(self, monkeypatch, call,
                                                            validations):
        calls = count_as_matrix(monkeypatch)
        call()
        assert len(calls) == validations

    @pytest.mark.parametrize("evolved", [False, True], ids=["plain", "evolved"])
    def test_evolved_scenario_validates_as_often_as_a_plain_one(self, monkeypatch, evolved):
        # each posterior, once; the prior, the pooling prior and every step's dims
        # were checked when the config was built, so the pipelines run unchecked
        cfg = random_instance(4, 3, 0.5)
        if evolved:
            cfg = dataclasses.replace(cfg, evolved_by=cfg.pipelines[0].steps[0])
        calls = count_as_matrix(monkeypatch)
        run_scenario(cfg)
        assert len(calls) == 2


class TestPriorCheckedOnce:
    """quantum_bayes checks its prior as quantum_pool does, into one memo entry: a prior
    the memo holds is neither checked nor decomposed again."""

    def count_checks(self, monkeypatch) -> list:
        """The names every ``check_hermitian`` call is given from now on, in regions
        (the likelihood) and in linalg (every state)."""
        names, check = [], linalg.check_hermitian
        for module in (regions, linalg):
            monkeypatch.setattr(module, "check_hermitian",
                                lambda m, name, *a: names.append(name) or check(m, name, *a))
        return names

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_six_updates_on_one_prior_check_it_once(self, monkeypatch, d):
        prior, pairs = bayes_group(d, 0)
        h = hermitize(prior)  # what the certificate and eigh are handed
        seen = {"cholesky": [], "eigh": []}

        def spy(name):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a: seen[name].append(a.copy()) or fn(a))

        linalg._memo = ()
        names = self.count_checks(monkeypatch)
        spy("eigh")
        spy("cholesky")
        likes = [like for pair in pairs for like in pair]
        posteriors = [regions.quantum_bayes(like, prior) for like in likes]
        quantum_pool(prior, *posteriors[:2])
        monkeypatch.undo()
        assert names.count("prior") == 1 and names.count("likelihood") == 6
        assert sum(a.tobytes() == h.tobytes() for a in seen["eigh"]) == 1
        # the certificate factors the prior shifted down its diagonal: equal off it
        off = ~np.eye(d, dtype=bool)
        assert sum(np.array_equal(a[off], h[off]) for a in seen["cholesky"]) == 1
        # the same bits as six updates that each check the prior with an empty memo
        for like, post in zip(likes, posteriors):
            linalg._memo = ()
            assert regions.quantum_bayes(like, prior).tobytes() == post.tobytes()

    def test_a_non_hermitian_neighbour_of_a_kept_prior_raises_every_time(self, monkeypatch):
        prior, ((like, _), *_) = bayes_group(4, 1)
        linalg._memo = ()
        regions.quantum_bayes(like, prior)
        bad = prior.copy()
        bad[0, 1] += 1e-6  # relative residual about 1e-6, outside herm_tol 1e-8
        names = self.count_checks(monkeypatch)
        for _ in range(3):
            with pytest.raises(InvalidParameterError, match="^prior is not Hermitian"):
                regions.quantum_bayes(like, bad)
            regions.quantum_bayes(like, prior)  # still kept: no check
        assert names == ["likelihood", "prior", "likelihood"] * 3
        assert [key[0] for key, _ in linalg._memo] == ["state"]


MEMO_KINDS = ("full_rank", "rank_deficient", "signed_zero")


def memo_state(kind, d, seed):
    """A state: a random density matrix, PSD of rank max(1, d/2), or a PSD diagonal
    with zero entries whose real and imaginary parts carry random signs."""
    rng = np.random.default_rng(seed)
    if kind == "full_rank":
        return rand_density(rng, d)
    if kind == "rank_deficient":
        return rand_psd(rng, d, rank=max(1, d // 2))
    m = np.diag(np.where(rng.random(d) < 0.5, rng.uniform(0.1, 1.0, d), 0.0)).astype(complex)
    zeros = np.empty((d, d), complex)
    zeros.real, zeros.imag = (np.where(rng.random((d, d)) < 0.5, -0.0, 0.0) for _ in range(2))
    return np.where(m == 0, zeros, m)


def checked(a, tol=Tolerances()):
    """The clamped ``_spectrum`` ``_checked_states`` hands on for the one state ``a``."""
    ((_, _, op, _),) = linalg._checked_states(tol, s=a)
    return op


def bits(op) -> tuple:
    """The bytes of a checked state's arrays and of its support's basis."""
    arrays = (op.a,) if isinstance(op, linalg._FullRank) else (op.w, op.v)
    return tuple(x.tobytes() for x in arrays) + (op.support().basis.tobytes(),)


def fresh_bits(a) -> tuple:
    """``bits`` of ``a`` checked with no memo: symmetrized, ``_state``, as on a miss."""
    return bits(linalg._state(hermitize(a), "s", Tolerances.rank_tol))


def memo_arrays() -> list:
    """Every array the memo holds, found by walking its values."""
    found = []

    def walk(x):
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, tuple):
            for y in x:
                walk(y)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                walk(getattr(x, f.name))

    for _, value in linalg._memo:
        walk(value)
    return found


def outcome_bytes(call) -> str:
    """``call()``'s result, or the error it raised, as text."""
    try:
        out = call()
    except StatePoolError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, np.ndarray):
        return out.tobytes().hex()
    if isinstance(out, CompatibilityVerdict):
        return io.dumps(io.verdict_to_json(out))
    return io.dumps(io.pooling_report_to_json(out))


OPERANDS = (st.sampled_from(MEMO_KINDS), st.sampled_from([1, 2, 3, 8, 64]),
            st.integers(0, 10_000))


class TestMemoIsInvisible:
    """linalg keeps the last checked states and verdicts; no result may tell."""

    @settings(max_examples=100, deadline=None)
    @given(*OPERANDS)
    def test_a_hit_returns_the_bits_of_a_miss(self, kind, d, seed):
        a = memo_state(kind, d, seed)
        linalg._memo = ()
        miss, hit = checked(a), checked(a)
        assert hit is miss  # from the memo
        assert bits(miss) == fresh_bits(a)
        # equal values are not equal bytes: flipping the sign of every zero entry
        # is a new operand unless the matrix has no zero entry
        twin = np.where(a == 0, -a, a)
        got = checked(twin)
        assert (got is miss) == (twin.tobytes() == a.tobytes())
        assert bits(got) == fresh_bits(twin)

    @settings(max_examples=40, deadline=None)
    @given(*OPERANDS)
    def test_every_result_has_the_bytes_of_an_empty_memo(self, kind, d, seed):
        rng = np.random.default_rng(seed)
        prior, like = rand_density(rng, d), rand_psd(rng, d)
        s1, s2 = memo_state(kind, d, seed), memo_state(kind, d, seed + 1)

        def pool():
            return quantum_pool(prior, s1, s2)

        for call in (lambda: regions.quantum_bayes(like, prior),
                     lambda: quantum_compatible(s1, s2),
                     lambda: quantum_compatible(s1, s2, Tolerances(rank_tol=0.3)), pool):
            linalg._memo = ()
            cold = outcome_bytes(call)
            assert outcome_bytes(call) == cold
        # a pool after the verdict reads both posteriors and their verdict from the memo
        linalg._memo = ()
        quantum_compatible(s1, s2)
        assert outcome_bytes(pool) == cold

    @settings(max_examples=60, deadline=None)
    @given(*OPERANDS)
    def test_an_operand_changed_in_place_is_checked_again(self, kind, d, seed):
        a = memo_state(kind, d, seed)
        linalg._memo = ()
        before = checked(a)
        a[0, 0] += 1.0  # as_matrix hands on a complex array itself, so the memo saw this one
        after = checked(a)
        assert after is not before and bits(after) == fresh_bits(a)
        a[0, 0] = -1.0 - 2 * max_norm(a)
        with pytest.raises(InvalidParameterError, match="s is not PSD"):
            checked(a)

    @settings(max_examples=60, deadline=None)
    @given(*OPERANDS)
    def test_the_oldest_insertion_is_evicted(self, kind, d, seed):
        ops = [memo_state(kind, d, seed + k) for k in range(linalg._MEMO_KEPT + 1)]
        assume(len({a.tobytes() for a in ops}) == len(ops))
        linalg._memo = ()
        first = [checked(a) for a in ops[:-1]]  # fills the memo
        assert checked(ops[0]) is first[0]  # a hit, still the oldest insertion
        checked(ops[-1])  # evicts ops[0], though it was just used
        assert len(linalg._memo) == linalg._MEMO_KEPT
        again = checked(ops[0])  # a miss, which evicts ops[1]
        assert again is not first[0] and bits(again) == bits(first[0])
        assert checked(ops[2]) is first[2]

    def test_a_hit_leaves_the_memo_as_it_was(self):
        rng = np.random.default_rng(4)
        prior, like = rand_density(rng, 4), rand_psd(rng, 4)
        s1, s2 = memo_state("full_rank", 4, 5), memo_state("rank_deficient", 4, 6)
        calls = (lambda: regions.quantum_bayes(like, prior), lambda: quantum_compatible(s1, s2),
                 lambda: quantum_pool(prior, s1, s2))
        linalg._memo = ()
        outcomes = [outcome_bytes(call) for call in calls]
        memo = linalg._memo
        assert len(memo) == 4  # three checked states and the verdict
        for call, outcome in zip(calls, outcomes):  # each a hit, the prior's the oldest
            assert outcome_bytes(call) == outcome
            assert linalg._memo is memo

    @settings(max_examples=40, deadline=None)
    @given(*OPERANDS)
    def test_entries_are_read_only_and_results_are_not(self, kind, d, seed):
        rng = np.random.default_rng(seed)
        prior, like = rand_density(rng, d), rand_psd(rng, d)
        s1, s2 = memo_state(kind, d, seed), memo_state(kind, d, seed + 1)
        linalg._memo = ()
        results = [regions.quantum_bayes(like, prior), linalg.sqrt_psd(prior)]
        quantum_compatible(s1, s2)
        try:
            results.append(quantum_pool(prior, s1, s2).pooled)
        except StatePoolError:
            pass
        arrays = memo_arrays()
        assert {key[0] for key, _ in linalg._memo} == {"state", "verdict"}
        # a spectrum's support mask and a state's root are cached on it, beside its fields
        ops = [value[0] for key, value in linalg._memo if key[0] == "state"]
        arrays += [op.kept for op in ops if isinstance(op, Spectrum)]
        arrays += [op.__dict__["root"] for op in ops if "root" in op.__dict__]
        assert any("root" in op.__dict__ for op in ops)  # the prior's, made by quantum_bayes
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        for r in results + [prior, s1, s2]:  # nor does the memo freeze its callers' inputs
            assert r.flags.writeable
            assert not any(np.shares_memory(r, arr) for arr in arrays)

    def test_threads_sharing_the_memo_get_the_bits_of_a_fresh_check(self):
        # four threads over more states than the memo holds keep evicting each other's entries
        ops = [memo_state(MEMO_KINDS[k % 3], 8, k) for k in range(linalg._MEMO_KEPT + 4)]
        want = [fresh_bits(a) for a in ops]
        wrong, interval = [], sys.getswitchinterval()

        def work(k):
            for i in range(300):
                j = (k + i) % len(ops)
                try:
                    if bits(checked(ops[j])) != want[j] or len(linalg._memo) > linalg._MEMO_KEPT:
                        wrong.append((k, i))
                except Exception as exc:  # a thread's exception would not fail the test
                    wrong.append((k, i, exc))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []

    def test_a_looser_check_is_no_hit_for_a_stricter_one(self):
        a = rand_density(np.random.default_rng(3), 4)
        a[0, 1] += 1e-5  # relative residual about 1e-5: inside herm_tol 1e-3, outside 1e-8
        linalg._memo = ()
        assert quantum_compatible(a, a, Tolerances(herm_tol=1e-3)).compatible
        with pytest.raises(InvalidParameterError, match="s1 is not Hermitian"):
            quantum_compatible(a, a)
        with pytest.raises(InvalidParameterError, match="s1 is not Hermitian"):
            quantum_pool(np.eye(4) / 4, a, a)

    # Hermiticity of every state is checked before any is kept, PSD state by state
    @pytest.mark.parametrize("bad, message, kept", [
        (np.diag([1.0, -0.5]), "s2 is not PSD", 1),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "s2 is not Hermitian", 0),
    ], ids=["not_psd", "not_hermitian"])
    def test_a_rejected_operand_raises_again_on_every_call(self, bad, message, kept):
        good = np.eye(2) / 2
        linalg._memo = ()
        messages = []
        for _ in range(3):
            for call in (lambda: quantum_compatible(good, bad),
                         lambda: quantum_pool(good, good, bad)):
                with pytest.raises(InvalidParameterError) as exc:
                    call()
                messages.append(str(exc.value))
        assert messages == [messages[0]] * 6 and message in messages[0]
        assert len(linalg._memo) == kept  # at most the good state's entry; no error

    def test_a_prior_that_is_not_psd_raises_on_every_bayes_update(self):
        linalg._memo = ()
        for _ in range(3):
            with pytest.raises(InvalidParameterError,
                               match=r"^prior is not PSD \(eigenvalue -5.000e-01\)"):
                regions.quantum_bayes(np.diag([1.0, 0.0]), np.diag([1.0, -0.5]))
        assert linalg._memo == ()

    @settings(max_examples=60, deadline=None)
    @given(*OPERANDS)
    def test_a_checked_state_has_the_root_of_sqrt_psd(self, kind, d, seed):
        a = memo_state(kind, d, seed)
        linalg._memo = ()
        op = checked(a)
        assert isinstance(op, linalg._FullRank) or kind != "full_rank"  # certified
        assert op.root is op.root and op.root.tobytes() == linalg.sqrt_psd(a).tobytes()
        assert not op.root.flags.writeable
        like = rand_psd(np.random.default_rng(seed), d)
        try:
            posterior = regions.quantum_bayes(like, a)  # a posterior reads the kept root
        except ImpossibleConditioningError:
            posterior = np.zeros((d, d))
        for r in (linalg.sqrt_psd(a), regions.star_product(like, a), posterior):
            assert r.flags.writeable and not np.shares_memory(r, op.root)

    def test_a_verdict_from_the_memo_is_frozen(self):
        s1, s2 = np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.5, 0.5])
        linalg._memo = ()
        first = quantum_compatible(s1, s2)
        again = quantum_compatible(s1, s2)
        assert again is first and again.intersection.rank == 1
        with pytest.raises(ValueError):
            again.intersection.basis[0, 0] = 1.0
        assert quantum_compatible(s2, s1) is not first  # the key is the ordered pair

    def test_the_scenario_path_never_touches_the_memo(self):
        cfg = random_instance(4, 3, 0.5)
        quantum_compatible(cfg.prior, cfg.prior)
        before = linalg._memo
        for c in (cfg, dataclasses.replace(cfg, evolved_by=cfg.pipelines[0].steps[0])):
            run_scenario(ScenarioConfig(cfg.prior, c.pipelines, evolved_by=c.evolved_by))
        batch_report([2, 4], 2, [0.0, 0.5], 1)
        assert linalg._memo is before


class TestEmptyOperands:
    """A 0 x 0 operand is no state: as_matrix rejects it where it enters."""

    Z = np.zeros((0, 0))

    @pytest.mark.parametrize("call", [
        lambda z: quantum_compatible(z, z), lambda z: quantum_pool(z, z, z),
        lambda z: regions.quantum_bayes(z, z), linalg.sqrt_psd, linalg.pseudo_inverse,
        support_projector, Spectrum.of,
    ], ids=["quantum_compatible", "quantum_pool", "quantum_bayes", "sqrt_psd",
            "pseudo_inverse", "support_projector", "Spectrum.of"])
    def test_rejected_where_it_enters(self, call):
        memo = linalg._memo
        with pytest.raises(DimensionMismatchError, match=r"got shape \(0, 0\)"):
            call(self.Z)
        assert linalg._memo is memo


def gram_checked(s: Subspace) -> Subspace:
    """``s`` rebuilt through the public constructor, which runs the Gram check."""
    rebuilt = Subspace(s.ambient_dim, s.basis)
    assert np.array_equal(rebuilt.basis, s.basis)
    return rebuilt


class TestSkippedChecksAdmitOnlyWhatTheyWouldAdmit:
    def test_haar_unitaries_pass_the_unitarity_check(self):
        for d in range(2, 65):
            for seed in range(20):
                UnitaryDynamics(haar_unitary(d, np.random.default_rng([seed, d])))

    def test_random_instance_checks_none_of_its_unitaries(self, monkeypatch):
        calls = []
        monkeypatch.setattr(UnitaryDynamics, "__post_init__", lambda self: calls.append(self))
        cfg = random_instance(8, 3, 0.5)
        monkeypatch.undo()
        assert calls == []
        for p in cfg.pipelines:
            UnitaryDynamics(p.steps[0].u)

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 64])
    @pytest.mark.parametrize("kind", ["random", "rank_deficient", "near_cut"])
    def test_eigenvector_bases_pass_the_gram_check(self, d, kind):
        for seed in range(5):
            rng = np.random.default_rng([seed, d])
            m = {"random": lambda: rand_density(rng, d),
                 "rank_deficient": lambda: rand_psd(rng, d, rank=max(1, d // 2)),
                 "near_cut": lambda: psd_with_min_ratio(d, 1e-10, seed)}[kind]()
            for rank_tol in RANK_TOLS:
                gram_checked(Spectrum.of(m, rank_tol).support())
                gram_checked(support_projector(m, rank_tol))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PAIR_KINDS), st.integers(2, 7), st.integers(0, 7),
           st.integers(0, 7), st.integers(0, 10_000))
    def test_intersection_bases_pass_the_gram_check(self, kind, d, r1, r2, seed):
        p, q = subspace_pair(kind, d, r1, r2, seed)
        for a, b in ((p, q), (q, p)):
            gram_checked(subspace_intersection(a, b))

    @pytest.mark.parametrize("like, prior, error", [
        (np.ones(2), np.eye(2) / 2, DimensionMismatchError),
        (np.full((2, 2), np.nan), np.eye(3) / 3, ValueError),  # the likelihood first
        (np.eye(2), np.full((3, 3), np.inf), ValueError),
        (np.eye(2), np.eye(3) / 3, DimensionMismatchError),
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), ImpossibleConditioningError),
        (np.eye(2), np.diag([2.0, -1.0]), InvalidParameterError),  # not PSD, as quantum_pool says
        (np.diag([1.0, 0.0]), np.diag([0.0, -1.0]), InvalidParameterError),  # PSD before possible
        # neither operand is symmetrized into a posterior, nor handed back as one
        (np.eye(2) / 2, [[0.5, 0.3], [0.0, 0.5]], "prior"),
        ([[0.5, 0.3], [0.0, 0.5]], np.eye(2) / 2, "likelihood"),
        ([[0.5, 0.3], [0.0, 0.5]], [[0.5, 0.3], [0.0, 0.5]], "likelihood"),
        (np.diag([1.0, 1j]), np.eye(2) / 2, "likelihood"),
    ])
    def test_quantum_bayes_errors(self, like, prior, error):
        if isinstance(error, str):  # the operand the InvalidParameterError names
            with pytest.raises(InvalidParameterError, match=f"^{error} is not Hermitian"):
                regions.quantum_bayes(like, prior)
            return
        with pytest.raises(error):
            regions.quantum_bayes(like, prior)


EPS = np.finfo(float).eps


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
        (np.diag([1.0, -1e-9]), 2),  # unclamped: -1e-9 is past the cut, so it stays
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
        for sigma in (res.sigma1, res.sigma2):
            assert support_projector(sigma).rank == 1

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_full_subspace_has_exactly_the_identity_basis(self, d):
        full = Subspace.full(d)
        assert full.ambient_dim == d and full.rank == d
        assert full.basis.dtype == complex and np.array_equal(full.basis, np.eye(d))
        # one read-only identity per dim, shared by every call and every certified state
        again = Subspace.full(d)
        assert again is not full and again.basis is full.basis
        assert not full.basis.flags.writeable
        with pytest.raises(ValueError):
            full.basis[0, 0] = 0.0
        assert checked(rand_density(np.random.default_rng(d), d)).support().basis is full.basis
        if d > 1:  # a scenario has d >= 2; both of its posteriors here are certified
            assert run_scenario(random_instance(d, 1)).verdict.intersection.basis is full.basis

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
    """``run_scenario``'s pooling step, on its posteriors, with the prior decomposed afresh."""
    res = run_scenario(cfg)
    sigma1, sigma2 = res.sigma1, res.sigma2
    supp1, supp2 = (Spectrum.of(s, cfg.tol.rank_tol).support() for s in (sigma1, sigma2))
    return _pool(Spectrum.of(cfg.prior, cfg.tol.rank_tol), sigma1, sigma2, supp1, supp2,
                 _support_verdict(supp1, supp2), cfg.tol)


def evolved_configs(d):
    """A noisy and a unitary-only scenario, both pooled against the evolved prior."""
    cfg = random_instance(d, 11, 0.3)
    u = UnitaryDynamics(haar_unitary(d, np.random.default_rng([11, d])))
    yield dataclasses.replace(cfg, evolved_by=u)
    yield dataclasses.replace(cfg, pipelines=(AgentPipeline("W", (u,)), AgentPipeline("T", (u,))),
                              evolved_by=u)


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
        spectrum = cfg._pooling_prior
        if rank_tol == 1e-10:  # one Cholesky certifies the prior: no spectrum is kept
            assert spectrum.a is cfg.prior
            assert fresh.kept.all() and not isinstance(spectrum, Spectrum)
            return
        assert not fresh.kept.all()  # a cut at 0.2 drops an eigenvalue: the certificate fails
        assert np.array_equal(spectrum.w, fresh.w)
        assert np.array_equal(spectrum.v, fresh.v)
        assert spectrum.cut == fresh.cut

    def test_clamped_prior_matches_a_recomputed_spectrum(self):
        # eigenvalue -1e-12 passes the PSD test and is clamped to 0 in the kept
        # spectrum; the stored prior is the symmetrized input, never rebuilt
        u = haar_unitary(3, np.random.default_rng(2))
        prior = (u * np.array([0.6, 0.4 + 1e-12, -1e-12])) @ u.conj().T
        cfg = ScenarioConfig(prior, (AgentPipeline("W"), AgentPipeline("T")))
        assert np.linalg.eigvalsh(prior).min() < 0
        assert np.array_equal(cfg.prior, (prior + prior.conj().T) / 2)
        assert cfg._pooling_prior.w.min() == 0
        assert cfg._pooling_prior.support().rank == 2
        res, want = run_scenario(cfg), _pool_recomputing_the_prior(cfg)
        assert res.pooling_error is None
        assert io.dumps(io.pooling_report_to_json(res.pooling)) == io.dumps(
            io.pooling_report_to_json(want))

    def test_rank_deficient_prior_reports_prior_support_error(self):
        steps = (DepolarizingChannel(3, 0.5),)  # full-rank posteriors
        cfg = ScenarioConfig(np.diag([0.5, 0.5, 0.0]),
                             (AgentPipeline("W", steps), AgentPipeline("T", steps)))
        res = run_scenario(cfg)
        assert res.verdict.compatible and res.pooling is None
        assert res.pooling_error["error"] == "PriorSupportError"
        with pytest.raises(PriorSupportError):
            _pool_recomputing_the_prior(cfg)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_rank_deficient_prior_costs_one_eigh(self, monkeypatch, d):
        # a rounding eigenvalue of -1e-12 is clamped in the spectrum, not by
        # rebuilding the prior and decomposing it again
        u = haar_unitary(d, np.random.default_rng([5, d]))
        prior = (u * np.r_[-1e-12, np.full(d - 1, 1.0 / (d - 1)) + 1e-12 / (d - 1)]) @ u.conj().T
        c = Counter(monkeypatch)
        cfg = ScenarioConfig(prior, (AgentPipeline("W"), AgentPipeline("T")))
        assert c.count("eigh") == 1 and c.count("eigvalsh", "svd") == 0
        assert cfg._pooling_prior.support().rank == d - 1

    @pytest.mark.parametrize("d, rank", [(d, r) for d in (2, 3, 4, 8) for r in range(1, d)])
    def test_rank_deficient_config_decodes_to_the_same_bytes(self, d, rank):
        rng = np.random.default_rng([17, d, rank])
        for seed in range(8):
            u = haar_unitary(d, rng)
            p = rng.uniform(0.1, 1.0, rank)
            prior = (u[:, :rank] * (p / p.sum())) @ u[:, :rank].conj().T
            cfg = dataclasses.replace(random_instance(d, seed, 0.5), prior=prior)
            text = io.dumps(io.scenario_config_to_json(cfg))
            back = io.scenario_config_from_json(json.loads(text))
            assert io.dumps(io.scenario_config_to_json(back)) == text

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
        supp = Spectrum.of(s).support()
        for prior in (Spectrum.of(np.eye(3) / 3), _spectrum(np.eye(3) / 3, 1e-10)):
            _pool(prior, s, s, supp, supp, _support_verdict(supp, supp), Tolerances())
        assert calls == []


class TestClampedPriorIsNeverInverted:
    """A prior eigenvalue between -PSD floor and -cut passes the PSD test and
    is clamped to 0, so it leaves the support rather than being inverted."""

    PRIOR = np.diag([1.0 + 1e-9, -1e-9])
    POSTERIORS = [np.diag([0.5 + 1e-9, 0.5 - 1e-9]), np.diag([1.0 - 1e-6, 1e-6])]

    @pytest.mark.parametrize("s", POSTERIORS, ids=["half", "near-pure"])
    def test_quantum_pool(self, s):
        with pytest.raises(PriorSupportError, match="escapes the prior's support"):
            quantum_pool(self.PRIOR, s, s)

    @pytest.mark.parametrize("s", POSTERIORS, ids=["half", "near-pure"])
    def test_pool_quantum_cli_exit_1(self, tmp_path, capsys, s):
        paths = []
        for name, m in (("p", self.PRIOR), ("a", s), ("b", s)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(io.matrix_to_json(m)))
        assert main(["pool-quantum", *map(str, paths)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "PriorSupportError"

    def test_state_pooled_with_itself_against_itself(self):
        # the clamped direction leaves every support, so the pool is the kept part
        report = quantum_pool(self.PRIOR, self.PRIOR, self.PRIOR)
        assert max_norm(report.pooled - np.diag([1.0, 0.0])) <= 1e-15
        assert max_norm(report.pooled - self.PRIOR) <= 2e-9  # the unclamped pool was PRIOR

    X = UnitaryDynamics(np.array([[0, 1], [1, 0]], dtype=complex))

    @pytest.mark.parametrize("pipelines, evolved_by, pooled", [
        ((), None, [1.0, 0.0]),
        ((DephasingChannel(2, 0.5),), None, [1.0, 0.0]),
        ((X,), X, [0.0, 1.0]),
    ], ids=["empty", "dephasing", "evolved"])
    def test_scenario_posteriors_share_the_clamped_support(self, pipelines, evolved_by, pooled):
        # each posterior keeps the -1e-9 direction the prior's clamp drops, so its
        # support is cut from its own clamped spectrum or it would escape the prior's
        cfg = ScenarioConfig(self.PRIOR, (AgentPipeline("W", pipelines), AgentPipeline("T", pipelines)),
                             evolved_by=evolved_by)
        res = run_scenario(cfg)
        assert res.pooling_error is None
        assert max_norm(res.pooling.pooled - np.diag(pooled)) <= 1e-15

    def test_clamped_direction_is_no_posterior_support(self):
        # once dropped, the -1e-9 direction meets no state's support
        assert not quantum_compatible(self.PRIOR, np.diag([0.0, 1.0])).compatible
        with pytest.raises(IncompatibleAssignmentsError, match="disjoint supports"):
            quantum_pool(np.eye(2) / 2, self.PRIOR, np.diag([0.0, 1.0]))


def bayes_kinds(d):
    """One full-rank prior and the three likelihood pairs of the Bayes path:
    commuting effects (they pool), effects in two bases (a non-Hermitian
    product) and complementary projectors (disjoint supports)."""
    rng = np.random.default_rng([13, d])
    prior = rand_density(rng, d)

    def effect(u):
        return (u * rng.uniform(0.1, 1.0, d)) @ u.conj().T

    u = haar(rng, d)
    basis = haar(rng, d)[:, : d // 2]
    proj = basis @ basis.conj().T
    return prior, {"commuting": (effect(u), effect(u)),
                   "noncommuting": (effect(haar(rng, d)), effect(haar(rng, d))),
                   "complementary": (proj, np.eye(d) - proj)}


def bayes_path_sha256(d):
    """SHA-256 over the posteriors, the verdict and the pooling outcome (the
    report, or the error class and residual) of each likelihood kind."""
    h = hashlib.sha256()
    prior, kinds = bayes_kinds(d)
    for kind, likes in kinds.items():
        s1, s2 = (regions.quantum_bayes(like, prior) for like in likes)
        verdict = quantum_compatible(s1, s2)
        h.update(f"{kind} {verdict.compatible} {verdict.diagnostics}".encode())
        for a in (s1, s2, verdict.intersection.basis):
            h.update(a.tobytes())
        try:
            r = quantum_pool(prior, s1, s2)
        except StatePoolError as exc:
            h.update(f"{type(exc).__name__} {getattr(exc, 'residual', None)!r}".encode())
        else:
            h.update(r.pooled.tobytes())
            h.update(repr((r.normalization_c, r.hermiticity_residual, r.min_eigenvalue)).encode())
    return h.hexdigest()


# SHA-256s of the Bayes path: quantum_bayes, quantum_compatible, quantum_pool.
BAYES_SHA256 = {
    2: "5d43ec1cadc6f002f7616bab894b352bea020e202ceddc798d71fad7263c357e",
    8: "ba4cb441d68d5ddc57ea37720bef3d10a64041181495b6283c9ff3033dfa902c",
    64: "78f2cac63d415a5a04931dfae5a828340ef53a82abab60f93cae0967293b85fb",
}


@pytest.mark.parametrize("d", sorted(BAYES_SHA256))
def test_bayes_path_golden_bytes(d):
    assert bayes_path_sha256(d) == BAYES_SHA256[d]
