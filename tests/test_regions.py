import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepool import io
from statepool.errors import ImpossibleConditioningError, InvalidParameterError
from statepool.io import MalformedInputError
from statepool.linalg import max_norm, partial_trace, support_projector, tensor
from statepool.regions import (
    HybridState,
    JointState,
    RegionLabel,
    condition,
    make_hybrid,
    marginalize,
    quantum_bayes,
    star_product,
)

from oracles import rand_density, rand_herm, rand_psd, rand_prob

A = RegionLabel("A", 2)
B = RegionLabel("B", 2)


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v)


def product_joint(rng, da=2, db=2):
    ra, rb = rand_density(rng, da), rand_density(rng, db)
    return ra, rb, JointState(
        (RegionLabel("A", da), RegionLabel("B", db)), tensor(ra, rb)
    )


class TestMarginalize:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        ra, rb, s = product_joint(rng)
        assert max_norm(marginalize(s, {"A"}).op - ra) < 1e-12

    def test_all_regions_identity(self):
        rng = np.random.default_rng(1)
        _, _, s = product_joint(rng)
        assert max_norm(marginalize(s, {"A", "B"}).op - s.op) < 1e-12

    def test_hybrid_classical_marginal_is_block_traces(self):
        rng = np.random.default_rng(2)
        blocks = {0: rand_psd(rng, 2), 1: rand_psd(rng, 2)}
        h = make_hybrid(blocks)
        joint = h.to_joint()
        marg = marginalize(joint, {"X0"}).op
        want = np.diag([h.classical_weight(0), h.classical_weight(1)])
        assert max_norm(marg - want) < 1e-12

    def test_unknown_region(self):
        rng = np.random.default_rng(3)
        _, _, s = product_joint(rng)
        with pytest.raises(KeyError):
            marginalize(s, {"C"})


class TestStarProduct:
    def test_identity_neutral(self):
        rng = np.random.default_rng(4)
        psi = rand_herm(rng, 4)
        assert max_norm(star_product(psi, np.eye(4)) - psi) < 1e-12

    def test_commuting_diagonals_multiply(self):
        # all diagonal: entries multiply elementwise, P(a,b) * Q(b)
        p = np.diag([0.1, 0.2, 0.3, 0.4])
        q = np.diag([0.25, 0.75])
        got = star_product(p, q, dims=[2, 2], apply_to=1)
        want = np.diag([0.1 * 0.25, 0.2 * 0.75, 0.3 * 0.25, 0.4 * 0.75])
        assert max_norm(got - want) < 1e-12

    def test_single_region_hand_computation(self):
        # rho^{1/2} |0><0| rho^{1/2} for rho = diag(1/4, 3/4)
        got = star_product(proj([1.0, 0.0]), np.diag([0.25, 0.75]))
        assert max_norm(got - np.diag([0.25, 0.0])) < 1e-12

    def test_not_psd_factor_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match=r"^phi is not PSD \(eigenvalue -1\.000e\+00\)"):
            star_product(np.eye(2), np.diag([1.0, -1.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_hermitian_and_psd_preservation(self, seed, dim):
        rng = np.random.default_rng(seed)
        psi = rand_psd(rng, dim)
        phi = rand_psd(rng, dim)
        out = star_product(psi, phi)
        assert max_norm(out - out.conj().T) < 1e-10 * max(max_norm(out), 1.0)
        assert np.linalg.eigvalsh(out).min() > -1e-10 * max(max_norm(out), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_commuting_inputs_reduce_to_product(self, seed, dim):
        rng = np.random.default_rng(seed)
        # shared eigenbasis => commuting pair
        w, v = np.linalg.eigh(rand_herm(rng, dim))
        psi = (v * rng.random(dim)) @ v.conj().T
        phi = (v * rng.random(dim)) @ v.conj().T
        assert max_norm(star_product(psi, phi) - psi @ phi) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4))
    def test_cyclic_trace_identity(self, seed, da, db):
        rng = np.random.default_rng(seed)
        psi = rand_herm(rng, da * db)
        phi = rand_psd(rng, db)
        lhs = np.trace(star_product(psi, phi, dims=[da, db], apply_to=1))
        rhs = np.trace(psi @ np.kron(np.eye(da), phi))
        assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)


class TestCondition:
    def test_product_state_full_rank(self):
        rng = np.random.default_rng(5)
        ra, rb, s = product_joint(rng)
        got = condition(s, {"A"})
        assert max_norm(got.op - tensor(np.eye(2), rb)) < 1e-10

    def test_bell_state(self):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        s = JointState((A, B), proj(v))
        got = condition(s, {"A"})
        assert max_norm(got.op - 2.0 * proj(v)) < 1e-10

    def test_classical_diagonal_matches_conditional_probability(self):
        rng = np.random.default_rng(6)
        p = rng.random((3, 4))
        p /= p.sum()
        s = JointState(
            (RegionLabel("X", 3, "classical"), RegionLabel("Y", 4, "classical")),
            np.diag(p.reshape(-1)),
        )
        got = condition(s, {"X"})
        want = np.diag((p / p.sum(axis=1, keepdims=True)).reshape(-1))
        assert max_norm(got.op - want) < 1e-12

    def test_partial_trace_gives_support_projector(self):
        rng = np.random.default_rng(7)
        s = JointState((A, B), rand_density(rng, 4))
        got = condition(s, {"A"})
        traced = partial_trace(got.op, [2, 2], [0])
        supp = support_projector(marginalize(s, {"A"}).op).projector()
        assert max_norm(traced - supp) < 1e-9

    def test_zero_marginal_rejected(self):
        s = JointState((A, B), tensor(np.zeros((2, 2)), np.eye(2)), normalized=False)
        with pytest.raises(ImpossibleConditioningError):
            condition(s, {"A"})


class TestQuantumBayes:
    def test_uninformative_measurement_fixed_point(self):
        rng = np.random.default_rng(8)
        rho = rand_density(rng, 3)
        assert max_norm(quantum_bayes(np.eye(3) / 3, rho) - rho) < 1e-12

    def test_diagonal_matches_classical_bayes(self):
        rng = np.random.default_rng(9)
        q = rand_prob(rng, 4, full_support=True)
        like = rng.random(4)
        post = like * q / (like * q).sum()
        got = quantum_bayes(np.diag(like), np.diag(q))
        assert max_norm(got - np.diag(post)) < 1e-12

    def test_pure_prior_is_fixed_point(self):
        phi = proj([1.0, 1.0])
        psi = proj([1.0, 0.0])
        got = quantum_bayes(psi, phi)
        assert max_norm(got - phi) < 1e-12

    def test_zero_predictive_probability(self):
        with pytest.raises(ImpossibleConditioningError):
            quantum_bayes(proj([1.0, 0.0]), proj([0.0, 1.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_output_is_state(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = rand_density(rng, dim)
        like = rand_psd(rng, dim)
        post = quantum_bayes(like, rho)
        assert np.trace(post).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(post).min() > -1e-10


class TestHybrid:
    def test_single_outcome_degenerate_register(self):
        rng = np.random.default_rng(10)
        rho = rand_density(rng, 2)
        h = make_hybrid({0: rho})
        want = tensor(proj([1.0]), rho)
        assert max_norm(h.to_joint().op - want) < 1e-12

    def test_fair_coin_uncorrelated(self):
        rng = np.random.default_rng(11)
        rho = rand_density(rng, 2)
        h = make_hybrid({0: rho / 2, 1: rho / 2})
        assert max_norm(h.quantum_marginal() - rho) < 1e-12
        assert h.classical_distribution() == pytest.approx([0.5, 0.5])
        # a NumPy integer key is the Python integer
        g = make_hybrid({np.int64(0): rho / 2, np.uint8(1): rho / 2})
        assert g.classical_dims == h.classical_dims and sorted(g.blocks) == sorted(h.blocks)
        assert np.array_equal(g.block(np.int32(1)), h.block(1))
        assert HybridState((2,), {np.int64(1): rho}).classical_weight(np.int8(1)) == \
            pytest.approx(1.0)

    def test_classically_correlated(self):
        h = make_hybrid({0: proj([1.0, 0.0]) / 2, 1: proj([0.0, 1.0]) / 2})
        assert max_norm(h.quantum_marginal() - np.eye(2) / 2) < 1e-12

    def test_round_trip_via_explicit_joint(self):
        rng = np.random.default_rng(12)
        blocks = {(0, 0): rand_psd(rng, 2), (0, 1): rand_psd(rng, 2),
                  (1, 1): rand_psd(rng, 2)}
        h = make_hybrid(blocks)
        back = HybridState.from_joint(h.to_joint().op, h.classical_dims, 2)
        for key in h.blocks:
            assert max_norm(back.block(key) - h.block(key)) < 1e-12

    def test_coherences_rejected(self):
        rng = np.random.default_rng(13)
        m = rand_density(rng, 4)  # generic: coherent across the classical split
        with pytest.raises(ValueError, match="coherences"):
            HybridState.from_joint(m, (2,), 2)

    def test_non_psd_block_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"^block at outcome \(0,\) is not PSD "
                                                        r"\(eigenvalue -1\.000e\+00\)"):
            make_hybrid({0: np.diag([1.0, -0.5])})

    NON_HERMITIAN = {0: [[0.25, 0.3], [0.0, 0.25]], 1: np.eye(2) / 4}

    def test_non_hermitian_block_rejected(self):
        msg = r"block at outcome \(0,\) is not Hermitian \(residual 3.000e-01\)"
        with pytest.raises(InvalidParameterError, match=msg):
            HybridState((2,), self.NON_HERMITIAN)
        with pytest.raises(InvalidParameterError, match=msg):
            make_hybrid(self.NON_HERMITIAN)
        # a residual within the relative rule is still symmetrized
        h = HybridState((2,), {0: np.array([[0.5, 1e-10], [0.0, 0.5]])})
        assert max_norm(h.block(0) - h.block(0).conj().T) == 0.0

    def test_non_hermitian_block_rejected_from_json(self):
        h = make_hybrid({0: np.eye(2) / 4, 1: np.eye(2) / 4})
        obj = io.hybrid_to_json(h)
        obj["blocks"]["0"] = io.matrix_to_json(np.array(self.NON_HERMITIAN[0]))
        with pytest.raises(MalformedInputError, match="block at outcome .* is not Hermitian"):
            io.hybrid_from_json(obj)


def test_joint_marginals_of_elementary_regions_can_be_checked():
    # the joint need not be PSD, but single-region marginals must be
    neg = np.diag([0.75, 0.75, -0.25, -0.25])
    s = JointState((A, B), neg)
    mb = marginalize(s, {"B"}).op
    assert np.linalg.eigvalsh(mb).min() >= -1e-12
