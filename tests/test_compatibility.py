import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from statepool import io
from statepool.compatibility import (
    ConditionalDistribution,
    ProbabilityDistribution,
    classical_bayes_posterior,
    classical_compatible,
    quantum_compatible,
    verify_objective_classical,
    verify_objective_quantum,
    verify_subjective_classical,
    verify_subjective_quantum,
)
from statepool.errors import (
    DimensionMismatchError, InvalidParameterError, NonHermitianPoolingProductError,
    StatePoolError,
)
from statepool.linalg import (
    Tolerances, _certified_full_rank, hermitize, max_norm, sqrt_psd,
)
from statepool.pooling import PoolingReport, quantum_pool
from statepool.regions import make_hybrid
from statepool.scenario import KrausChannel

from oracles import (
    exact_pool,
    grid_distributions,
    objective_classical_witness,
    objective_witness_exists,
    rand_density,
    rand_povm,
    rand_prob,
    rand_psd,
    rand_unitary,
    spectral_pool,
    spectral_verdict,
    subjective_classical_witness,
)
from test_spectrum import count_as_matrix


def dist(*probs):
    return ProbabilityDistribution(tuple(range(len(probs))), np.array(probs))


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v)


class TestClassicalCompatible:
    def test_point_masses_on_different_outcomes(self):
        assert not classical_compatible(dist(1, 0), dist(0, 1)).compatible

    def test_interior_assignments(self):
        v = classical_compatible(dist(0.5, 0.5), dist(0.3, 0.7))
        assert v.compatible and v.intersection == (0, 1)

    def test_uniform_compatible_with_anything(self):
        rng = np.random.default_rng(0)
        for n in range(2, 9):
            u = ProbabilityDistribution.uniform(tuple(range(n)))
            q = ProbabilityDistribution(tuple(range(n)), rand_prob(rng, n))
            assert classical_compatible(u, q).compatible

    def test_symmetric_and_reflexive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(2, 6)
            q1 = ProbabilityDistribution(tuple(range(n)), rand_prob(rng, n))
            q2 = ProbabilityDistribution(tuple(range(n)), rand_prob(rng, n))
            assert (classical_compatible(q1, q2).compatible
                    == classical_compatible(q2, q1).compatible)
            assert classical_compatible(q1, q1).compatible

    def test_mismatched_outcomes(self):
        with pytest.raises(ValueError):
            classical_compatible(dist(1, 0), ProbabilityDistribution(("a", "b"), [0, 1]))


class TestQuantumCompatible:
    def test_orthogonal_pure_states(self):
        assert not quantum_compatible(proj([1, 0]), proj([0, 1])).compatible

    def test_maximally_mixed_with_anything(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sigma = rand_psd(rng, 2, rank=rng.integers(1, 3))
            sigma /= np.trace(sigma).real
            assert quantum_compatible(np.eye(2) / 2, sigma).compatible

    def test_distinct_pure_states_incompatible(self):
        assert not quantum_compatible(proj([1, 0]), proj([1, 1])).compatible

    def test_full_rank_with_anything(self):
        rng = np.random.default_rng(3)
        rho = rand_density(rng, 4)
        for rank in (1, 2, 4):
            sigma = rand_psd(rng, 4, rank=rank)
            sigma /= np.trace(sigma).real
            assert quantum_compatible(rho, sigma).compatible

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_diagonal_embedding_agrees_with_classical(self, seed, dim):
        rng = np.random.default_rng(seed)
        # sparse supports so incompatibility actually occurs
        p1 = rng.random(dim) * (rng.random(dim) < 0.5)
        p2 = rng.random(dim) * (rng.random(dim) < 0.5)
        if p1.sum() == 0 or p2.sum() == 0:
            return
        p1, p2 = p1 / p1.sum(), p2 / p2.sum()
        q1 = ProbabilityDistribution(tuple(range(dim)), p1)
        q2 = ProbabilityDistribution(tuple(range(dim)), p2)
        assert (quantum_compatible(np.diag(p1), np.diag(p2)).compatible
                == classical_compatible(q1, q2).compatible)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            quantum_compatible(np.eye(2) / 2, np.eye(3) / 3)


class TestVerifyObjectiveClassical:
    def test_no_differentiating_data(self):
        q = dist(0.25, 0.75)
        joint = q.probs.reshape(2, 1, 1)  # X1, X2 are constants
        assert verify_objective_classical(q, q, joint, 0, 0)

    def test_perturbed_conditional_fails(self):
        q = dist(0.25, 0.75)
        joint = np.array([0.35, 0.65]).reshape(2, 1, 1)
        assert not verify_objective_classical(q, q, joint, 0, 0)

    def test_zero_joint_weight_fails(self):
        q = dist(0.25, 0.75)
        joint = np.zeros((2, 2, 2))
        joint[:, 1, 1] = q.probs  # all mass away from the witness point
        assert not verify_objective_classical(q, q, joint, 0, 0)

    def test_valid_two_agent_witness(self):
        # Y uniform prior; X1 = Y observed, X2 constant; witness at x1 = 0
        joint = np.zeros((2, 2, 1))
        joint[0, 0, 0] = 0.5
        joint[1, 1, 0] = 0.5
        assert verify_objective_classical(dist(1, 0), dist(0.5, 0.5), joint, 0, 0)

    def test_sound_for_the_decision_procedure(self):
        # any accepted witness implies the support-overlap verdict
        rng = np.random.default_rng(4)
        for _ in range(50):
            joint = rng.random((3, 2, 2))
            joint /= joint.sum()
            w = joint[:, 0, 0].sum()
            q1 = ProbabilityDistribution((0, 1, 2), joint[:, 0, :].sum(1) / joint[:, 0, :].sum())
            q2 = ProbabilityDistribution((0, 1, 2), joint[:, :, 0].sum(1) / joint[:, :, 0].sum())
            assert verify_objective_classical(q1, q2, joint, 0, 0) == (w > 1e-10)
            assert classical_compatible(q1, q2).compatible


class TestVerifySubjectiveClassical:
    def cond(self, table):
        t = np.asarray(table, dtype=float)
        return ConditionalDistribution(tuple(range(t.shape[1])), tuple(range(t.shape[0])), t)

    def test_identical_priors(self):
        q = dist(0.3, 0.7)
        cond = self.cond([[0.2, 0.6], [0.8, 0.4]])
        assert verify_subjective_classical(q, q, cond, 0)
        assert verify_subjective_classical(q, q, cond, 1)

    def test_deterministic_test_on_shared_outcome(self):
        # X=0 fires exactly on outcome y*=0: both posteriors collapse to delta_0
        q1, q2 = dist(0.5, 0.5), dist(0.2, 0.8)
        cond = self.cond([[1.0, 0.0], [0.0, 1.0]])
        assert verify_subjective_classical(q1, q2, cond, 0)

    def test_disjoint_supports_never_agree(self):
        q1, q2 = dist(1, 0), dist(0, 1)
        # exhaustive grid of binary tests
        grid = np.linspace(0.05, 0.95, 10)
        for a, b in itertools.product(grid, grid):
            cond = self.cond([[a, b], [1 - a, 1 - b]])
            for x in (0, 1):
                assert not verify_subjective_classical(q1, q2, cond, x)

    def test_zero_predictive_is_failed_condition_not_error(self):
        q1, q2 = dist(1, 0), dist(1, 0)
        cond = self.cond([[0.0, 1.0], [1.0, 0.0]])  # X=0 never fires under q1
        assert verify_subjective_classical(q1, q2, cond, 1) is False

    @pytest.mark.parametrize("x", [2, -1])
    def test_absent_outcome_is_invalid(self, x):
        # x = -1 once conditioned on the last outcome, even where condition 1 fails
        q1, q2 = dist(0.5, 0.5), dist(0.2, 0.8)
        for cond in (self.cond([[0.2, 0.6], [0.8, 0.4]]), self.cond([[0.0, 1.0], [1.0, 0.0]])):
            with pytest.raises(InvalidParameterError, match="absent"):
                verify_subjective_classical(q1, q2, cond, x)
            with pytest.raises(InvalidParameterError, match="absent"):
                classical_bayes_posterior(q1, cond, x)


KINDS = ("full rank", "rank-deficient", "zero weight")


def drawn_distribution(rng, kind, p=None):
    """A distribution over len(p) outcomes: when given, ``p`` itself a third of the time
    and ``p`` with 1e-12 to 1e-8 of its mass moved, around the EXACT_TOL cut, another
    third; else random, with zeros where ``kind`` is rank-deficient."""
    if p is not None and p.sum() > 0 and (pick := rng.integers(3)) < 2:
        q = p / p.sum()
        moved = pick * min(10.0 ** rng.uniform(-12, -8), q.max())
        q[np.argmax(q)] -= moved
        q[rng.integers(q.size)] += moved
        return ProbabilityDistribution(tuple(range(p.size)), q)
    n = rng.integers(2, 5) if p is None else p.size
    q = rng.random(n) * (rng.random(n) < 0.6 if kind == "rank-deficient" else 1)
    q[rng.integers(n)] += q.sum() == 0
    return ProbabilityDistribution(tuple(range(n)), q / q.sum())


class TestClassicalVerifiersAnswerAsTheirDefinitions:
    """The classical verifiers, which check the quantum witness on diagonal states,
    answer as the definitional formulas in ``oracles``, on full-rank, rank-deficient
    and zero-weight draws; a draw that rounding could decide either way (a compared
    quantity within 1e-12 of EXACT_TOL) is set aside."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS))
    def test_objective(self, seed, kind):
        rng = np.random.default_rng(seed)
        shape = (rng.integers(1, 5), rng.integers(1, 4), rng.integers(1, 4))
        x1, x2 = rng.integers(shape[1]), rng.integers(shape[2])
        joint = rng.random(shape)
        if kind == "rank-deficient":
            joint *= rng.random(shape) < 0.5
        elif kind == "zero weight":
            joint[:, x1, x2 if rng.random() < 0.5 else slice(None)] = 0.0
        joint.reshape(-1)[rng.integers(joint.size)] += joint.sum() == 0
        joint /= joint.sum()
        q1 = drawn_distribution(rng, kind, joint[:, x1, :].sum(axis=1))
        q2 = drawn_distribution(rng, kind, joint[:, :, x2].sum(axis=1))
        want, margin = objective_classical_witness(q1, q2, joint, x1, x2)
        assume(margin > 1e-12)
        assert verify_objective_classical(q1, q2, joint, x1, x2) is want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS))
    def test_subjective(self, seed, kind):
        rng = np.random.default_rng(seed)
        q1 = drawn_distribution(rng, kind)
        q2 = drawn_distribution(rng, kind, q1.probs)
        n_x = rng.integers(1, 4)
        table = rng.random((n_x, q1.probs.size))
        if kind == "rank-deficient":
            table *= rng.random(table.shape) < 0.5
        elif kind == "zero weight":  # an outcome that q1's support never shows
            table[rng.integers(n_x), q1.probs > 0] = 0.0
        table[rng.integers(n_x), table.sum(axis=0) == 0] = 1.0
        cond = ConditionalDistribution(q1.outcomes, tuple(range(n_x)), table / table.sum(axis=0))
        x_tilde = rng.integers(n_x)
        want, margin = subjective_classical_witness(q1, q2, cond, x_tilde)
        assume(margin > 1e-12)
        assert verify_subjective_classical(q1, q2, cond, x_tilde) is want


class TestVerifyObjectiveQuantum:
    def test_no_differentiating_data(self):
        rng = np.random.default_rng(5)
        rho = rand_density(rng, 2)
        hybrid = make_hybrid({(0, 0): rho})
        assert verify_objective_quantum(rho, rho, hybrid, 0, 0)

    def test_zero_classical_weight_fails(self):
        rng = np.random.default_rng(6)
        rho = rand_density(rng, 2)
        hybrid = make_hybrid({(1, 1): rho})
        assert not verify_objective_quantum(rho, rho, hybrid, 0, 0)

    def test_wrong_conditional_block_fails(self):
        rng = np.random.default_rng(7)
        rho = rand_density(rng, 2)
        other = 0.9 * rho + 0.1 * np.eye(2) / 2
        hybrid = make_hybrid({(0, 0): other})
        assert not verify_objective_quantum(rho, rho, hybrid, 0, 0)

    def test_accepted_witness_implies_compatibility(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            blocks = {(a, b): rand_psd(rng, 3) for a in range(2) for b in range(2)}
            hybrid = make_hybrid(blocks)
            c1 = sum(hybrid.block((0, b)) for b in range(2))
            c2 = sum(hybrid.block((a, 0)) for a in range(2))
            s1 = c1 / np.trace(c1).real
            s2 = c2 / np.trace(c2).real
            assert verify_objective_quantum(s1, s2, hybrid, 0, 0)
            assert quantum_compatible(s1, s2).compatible

    @pytest.mark.parametrize("slot", [0, 1])
    def test_a_state_not_psd_is_invalid_not_false(self, slot):
        # checked as quantum_compatible checks it, and named; it used to return False
        states = [np.eye(2) / 2] * 2
        states[slot] = np.diag([1.5, -0.5])
        hybrid = make_hybrid({(0, 0): np.eye(2) / 4, (1, 1): np.eye(2) / 4})
        with pytest.raises(InvalidParameterError,
                           match=rf"^s{slot + 1} is not PSD \(eigenvalue -5\.000e-01\)$"):
            verify_objective_quantum(*states, hybrid, 0, 0)


class TestVerifySubjectiveQuantum:
    def test_identical_priors_any_measurement(self):
        rng = np.random.default_rng(9)
        rho = rand_density(rng, 2)
        povm = dict(enumerate(rand_povm(rng, 2, 4)))
        for x in povm:
            assert verify_subjective_quantum(rho, rho, povm, x)

    def test_orthogonal_pure_states_never_agree(self):
        # grid search over qubit POVMs finds no agreeing posterior
        s1, s2 = proj([1, 0]), proj([0, 1])
        rng = np.random.default_rng(10)
        for seed in range(30):
            povm = dict(enumerate(rand_povm(np.random.default_rng(seed), 2, 3)))
            for x in povm:
                assert not verify_subjective_quantum(s1, s2, povm, x)

    def test_diagonal_reduces_to_classical(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p1, p2 = rand_prob(rng, 3, True), rand_prob(rng, 3, True)
            table = rng.random((2, 3)) + 0.05
            table /= table.sum(axis=0, keepdims=True)
            cond = ConditionalDistribution((0, 1, 2), (0, 1), table)
            likelihoods = {x: np.diag(table[x, :]) for x in range(2)}
            q1 = ProbabilityDistribution((0, 1, 2), p1)
            q2 = ProbabilityDistribution((0, 1, 2), p2)
            for x in range(2):
                assert (verify_subjective_quantum(np.diag(p1), np.diag(p2), likelihoods, x)
                        == verify_subjective_classical(q1, q2, cond, x))

    def test_invalid_measurement_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            verify_subjective_quantum(np.eye(2) / 2, np.eye(2) / 2,
                                      {0: np.eye(2) / 2}, 0)

    def test_measurement_sum_checked_at_the_kraus_threshold(self):
        # within TRACE_TOL of I but not within EXACT_TOL: no measurement, as its
        # square roots are no channel
        likelihoods = [np.diag([1 + 1e-9, 0.0]), np.diag([0.0, 1.0])]
        with pytest.raises(ValueError, match="identity"):
            verify_subjective_quantum(np.eye(2) / 2, np.eye(2) / 2, dict(enumerate(likelihoods)), 0)
        with pytest.raises(ValueError, match="trace preservation"):
            KrausChannel(tuple(sqrt_psd(m) for m in likelihoods))

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           residual=st.one_of(st.just(0.0), st.floats(1e-13, 5e-11), st.floats(2e-10, 1e-6)))
    def test_measurement_iff_square_roots_are_a_channel(self, d, n, seed, residual):
        # effects U diag(w_x) U† with every w_x >= 0.05 sum to I within rounding; a
        # Hermitian residual of max-norm ``residual``, drawn away from the EXACT_TOL
        # cut, keeps the first effect PSD
        rng = np.random.default_rng(seed)
        u = rand_unitary(rng, d)
        w = 0.05 + rng.random((n, d))
        w /= w.sum(axis=0)
        likelihoods = [(u * wx) @ u.conj().T for wx in w]
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        likelihoods[0] = likelihoods[0] + residual * (h + h.conj().T) / max_norm(h + h.conj().T)

        def rejects(call):
            try:
                call()
            except ValueError:
                return True
            return False

        rho = np.eye(d) / d
        measurement = not rejects(
            lambda: verify_subjective_quantum(rho, rho, dict(enumerate(likelihoods)), 0))
        channel = not rejects(lambda: KrausChannel(tuple(sqrt_psd(m) for m in likelihoods)))
        assert measurement == channel == (residual <= 1e-10)

    def test_absent_outcome_is_invalid(self):
        with pytest.raises(InvalidParameterError, match="absent"):
            verify_subjective_quantum(np.eye(2) / 2, np.eye(2) / 2, {0: np.eye(2)}, 1)

    @pytest.mark.parametrize("slot", [0, 1])
    def test_a_state_not_psd_is_named(self, slot):
        # checked as quantum_compatible checks it; s1 used to be named "prior"
        states = [np.eye(2) / 2] * 2
        states[slot] = np.diag([1.5, -0.5])
        with pytest.raises(InvalidParameterError,
                           match=rf"^s{slot + 1} is not PSD \(eigenvalue -5\.000e-01\)$"):
            verify_subjective_quantum(*states, {0: np.eye(2)}, 0)

    def test_an_effect_not_psd_is_invalid(self):
        # these sum to I, and both predictive probabilities are 1/2: it used to return True
        likelihoods = {0: np.diag([1.5, -0.5]), 1: np.diag([-0.5, 1.5])}
        with pytest.raises(InvalidParameterError,
                           match=r"^likelihood 0 is not PSD \(eigenvalue -5\.000e-01\)$"):
            verify_subjective_quantum(np.eye(2) / 2, np.eye(2) / 2, likelihoods, 0)

    @pytest.mark.parametrize("likelihoods, states", [
        ({0: np.eye(3)}, (np.eye(2) / 2, np.eye(2) / 2)),
        ({0: np.eye(2)}, (np.eye(3) / 3, np.eye(3) / 3)),
        ({0: np.eye(2)}, (np.eye(2) / 2, np.eye(3) / 3)),
        ({0: np.diag([1.0, 0]), 1: np.diag([0, 1.0, 1.0])}, (np.eye(2) / 2, np.eye(2) / 2)),
    ], ids=["likelihood 3, states 2", "likelihood 2, states 3", "states 2 and 3",
            "likelihoods 2 and 3"])
    def test_dims_must_agree(self, likelihoods, states):
        with pytest.raises(DimensionMismatchError, match="different dims"):
            verify_subjective_quantum(*states, likelihoods, 0)

    def test_states_converted_once(self, monkeypatch):
        calls = count_as_matrix(monkeypatch)  # in every namespace, linalg's included
        rng = np.random.default_rng(12)
        povm = dict(enumerate(rand_povm(rng, 3, 4)))
        rho = rand_density(rng, 3)
        assert verify_subjective_quantum(rho, rho, povm, 0)
        assert len(calls) == 2 + len(povm)  # s1, s2 and each likelihood


@pytest.mark.parametrize("verify, witness", [
    (verify_objective_classical, np.full((2, 2, 2), 1 / 8)),
    (verify_objective_quantum, make_hybrid({(0, 0): np.eye(2) / 4, (1, 1): np.eye(2) / 4})),
], ids=["classical", "quantum"])
@pytest.mark.parametrize("x1, x2", [(2, 0), (0, 2), (-1, 0), (0, -1)])
def test_objective_verifiers_absent_outcome_is_invalid(verify, witness, x1, x2):
    states = (dist(0.5, 0.5),) * 2 if verify is verify_objective_classical else (np.eye(2) / 2,) * 2
    with pytest.raises(InvalidParameterError, match="absent"):
        verify(*states, witness, x1, x2)


def test_objective_quantum_states_of_another_dim_are_a_mismatch():
    hybrid = make_hybrid({(0, 0): np.eye(3) / 3})
    for s1, s2 in ((np.eye(2) / 2, np.eye(2) / 2), (np.eye(3) / 3, np.eye(2) / 2)):
        with pytest.raises(DimensionMismatchError):
            verify_objective_quantum(s1, s2, hybrid, 0, 0)
        with pytest.raises(DimensionMismatchError):  # as the subjective verifier says
            verify_subjective_quantum(s1, s2, {0: np.eye(3)}, 0)


@pytest.mark.parametrize("outcomes", [("x", "y"), ("b", "a"), ("a", "b", "c")])
def test_objective_classical_distributions_over_other_outcomes_are_invalid(outcomes):
    q1 = ProbabilityDistribution(("a", "b"), [0.5, 0.5])
    q2 = ProbabilityDistribution.uniform(outcomes)
    with pytest.raises(InvalidParameterError, match="different outcome sets"):
        verify_objective_classical(q1, q2, np.full((2, 1, 1), 0.5), 0, 0)
    with pytest.raises(InvalidParameterError, match="different outcome sets"):
        classical_compatible(q1, q2)


@pytest.mark.slow
def test_decision_procedure_matches_witness_search_on_grid():
    # exhaustive check of the support-overlap criterion against an
    # independent witness search, distributions on a coarse grid
    for n in (2, 3):
        for q1v in grid_distributions(n, step=0.25):
            for q2v in grid_distributions(n, step=0.25):
                q1 = ProbabilityDistribution(tuple(range(n)), q1v)
                q2 = ProbabilityDistribution(tuple(range(n)), q2v)
                assert (classical_compatible(q1, q2).compatible
                        == objective_witness_exists(q1v, q2v))


@pytest.mark.parametrize("theta, compatible", [(0.0, True), (1e-4, True), (1.5e-4, False)])
def test_pure_states_compatible_up_to_the_angle_cut(theta, compatible):
    # cos(theta) >= 1 - SUBSPACE_TOL = 1 - 1e-8 keeps theta up to sqrt(2e-8) = 1.414e-4 rad
    v = np.array([np.cos(theta), np.sin(theta)])
    verdict = quantum_compatible(np.diag([1.0, 0.0]), np.outer(v, v))
    assert verdict.compatible is compatible
    assert verdict.intersection_rank() == int(compatible)


# --- full-rank inputs certified by one Cholesky, the rest decomposed ---------

RANKS = {"full": lambda d: d, "half": lambda d: max(d // 2, 1), "one": lambda d: 1}


def drawn_inputs(d, kind, prior_rank, ranks, seed):
    """A prior and two posteriors of the given ranks.  "commuting" and
    "noncommuting" posteriors are rho^1/2 L rho^1/2 (normalized) for effects
    L diagonal in one shared or two random bases, with zeros where the rank
    asks; "free" ones are random PSD matrices, which may escape the prior."""
    rng = np.random.default_rng(seed)
    prior = rand_psd(rng, d, rank=RANKS[prior_rank](d))
    prior /= np.trace(prior).real
    w, v = np.linalg.eigh(prior)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    u = rand_unitary(rng, d)
    posteriors = []
    for rank in ranks:
        r = RANKS[rank](d)
        if kind == "free":
            s = rand_psd(rng, d, rank=r)
        else:
            u = u if kind == "commuting" else rand_unitary(rng, d)
            like = rng.uniform(0.1, 1.0, d)
            like[rng.permutation(d)[: d - r]] = 0.0
            s = root @ (u * like) @ u.conj().T @ root
        posteriors.append(s / np.trace(s).real)
    return prior, *posteriors


def pooled_bytes(pool, *args):
    try:
        return io.dumps(io.pooling_report_to_json(pool(*args)))
    except StatePoolError as exc:
        return f"{type(exc).__name__}: {exc}"


def pooled_or_error(pool, *args):
    try:
        return pool(*args)
    except StatePoolError as exc:
        return exc


def eigh_backward_error(a) -> float:
    """||V W V† - a||_2 / ||a||_2 + ||V† V - I||_2 for (W, V) of ``np.linalg.eigh(a)``:
    the relative backward error of the decomposition with its loss of orthogonality."""
    w, v = np.linalg.eigh(a)
    return (np.linalg.norm((v * w) @ v.conj().T - a, 2) / np.linalg.norm(a, 2)
            + np.linalg.norm(v.conj().T @ v - np.eye(len(a)), 2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 8, 64]), st.sampled_from(["commuting", "noncommuting", "free"]),
       st.sampled_from(sorted(RANKS)), st.sampled_from(sorted(RANKS)),
       st.sampled_from(sorted(RANKS)), st.integers(0, 10_000))
@example(d=2, kind="commuting", prior_rank="full", r1="full", r2="half", seed=181)
def test_same_bytes_as_decomposing_every_input(d, kind, prior_rank, r1, r2, seed):
    """Verdicts, and pools against a prior that must be decomposed, are byte for
    byte those of the oracle that decomposes every input.  A prior that one
    Cholesky certifies is solved against instead of inverted on its spectrum,
    and the outcome class is the same.  The pooled state, c and the residual
    carry each path's error: an LU solve with backward error about d eps moves
    them by about d cond(prior) eps to first order; an eigh with backward error
    beta (``eigh_backward_error``) moves the oracle's inverse by beta cond(prior),
    and rounding its pseudo-inverse and products adds about d cond(prior) eps.
    At d = 2 and 8 the library is held to d cond(prior) eps of ``exact_pool`` on
    the symmetrized prior it pools against; the oracle is no reference there
    (the @example puts it 3.79 cond(prior) eps from the exact c at d = 2, the
    library 0.41).  At d = 64, where the exact pool is slow, it is held to the
    oracle within the sum of both bounds, (2 d eps + beta) cond(prior)."""
    prior, s1, s2 = drawn_inputs(d, kind, prior_rank, (r1, r2), seed)
    assert (io.dumps(io.verdict_to_json(quantum_compatible(s1, s2)))
            == io.dumps(io.verdict_to_json(spectral_verdict(s1, s2))))
    if not _certified_full_rank(hermitize(prior), Tolerances().rank_tol):
        assert (pooled_bytes(quantum_pool, prior, s1, s2)
                == pooled_bytes(spectral_pool, prior, s1, s2))
        return
    got, want = (pooled_or_error(pool, prior, s1, s2) for pool in (quantum_pool, spectral_pool))
    assert type(got) is type(want)
    cond, eps = np.linalg.cond(prior), np.finfo(float).eps
    if d > 8:
        bound = (2 * d * eps + eigh_backward_error(hermitize(prior))) * cond
    elif isinstance(want, (PoolingReport, NonHermitianPoolingProductError)):
        bound, exact = d * cond * eps, exact_pool(hermitize(prior), s1, s2)
        want = (exact if isinstance(want, PoolingReport)
                else NonHermitianPoolingProductError(exact.hermiticity_residual))
    if isinstance(want, PoolingReport):
        assert max_norm(got.pooled - want.pooled) <= bound * max_norm(want.pooled)
        assert abs(got.normalization_c - want.normalization_c) <= bound * want.normalization_c
        assert abs(got.hermiticity_residual - want.hermiticity_residual) <= bound
    elif isinstance(want, NonHermitianPoolingProductError):
        assert abs(got.residual - want.residual) <= bound
    else:
        assert str(got) == str(want)


def test_drawn_inputs_reach_every_pooling_outcome():
    outcomes = {pooled_bytes(quantum_pool, *drawn_inputs(8, kind, prior_rank, ranks, 0))
                .partition(":")[0] for kind, prior_rank, ranks in [
                    ("commuting", "full", ("full", "full")),
                    ("commuting", "full", ("half", "one")),
                    ("noncommuting", "full", ("full", "full")),
                    ("commuting", "full", ("one", "one")),
                    ("free", "half", ("full", "full"))]}
    assert outcomes == {'{"pooled"', "NonHermitianPoolingProductError", "PriorSupportError",
                        "IncompatibleAssignmentsError"}


class TestNonPSDBesideACertifiedState:
    NOT_PSD = np.diag([2.0, -1.0])
    HALF = np.eye(2) / 2  # one Cholesky certifies it

    def test_quantum_compatible_names_s2(self):
        with pytest.raises(InvalidParameterError, match=r"^s2 is not PSD \(eigenvalue -1.000e\+00\)$"):
            quantum_compatible(self.HALF, self.NOT_PSD)

    def test_quantum_pool_names_s2(self):
        with pytest.raises(InvalidParameterError, match=r"^s2 is not PSD \(eigenvalue -1.000e\+00\)$"):
            quantum_pool(self.HALF, self.HALF, self.NOT_PSD)

    def test_hermiticity_of_every_state_before_psd(self):
        not_hermitian = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvalidParameterError, match="^s2 is not Hermitian"):
            quantum_compatible(self.NOT_PSD, not_hermitian)


HALF = np.eye(2) / 2


@pytest.mark.parametrize("call, error, message", [
    (lambda: verify_objective_classical(dist(0.5, 0.5), dist(0.5, 0.5), np.full((2, 2), 0.25),
                                        0, 0),
     DimensionMismatchError, r"^joint must have shape \(\|Y\|, \|X1\|, \|X2\|\), got \(2, 2\)$"),
    (lambda: verify_objective_classical(dist(0.5, 0.5), dist(0.5, 0.5), np.full((2, 1, 1), 0.4),
                                        0, 0),
     InvalidParameterError, "^total joint probability 0.8, expected 1$"),
    (lambda: verify_subjective_classical(
        dist(0.5, 0.5), ProbabilityDistribution(("a", "b"), [0.5, 0.5]),
        ConditionalDistribution((0, 1), (0, 1), np.eye(2)), 0),
     InvalidParameterError, r"^conditional table and priors disagree on Out\(Y\)$"),
    (lambda: verify_objective_quantum(HALF, HALF, make_hybrid({0: HALF}), 0, 0),
     InvalidParameterError, "^witness hybrid must carry exactly two classical registers$"),
    (lambda: verify_subjective_quantum(HALF, HALF, {0: HALF}, 0),
     InvalidParameterError, "^likelihoods do not sum to the identity$"),
], ids=["joint shape", "joint normalization", "Out(Y)", "two registers", "sum to I"])
def test_a_verifier_raises_a_statepool_error_for_a_callers_mistake(call, error, message):
    # each a StatePoolError that is still a ValueError
    with pytest.raises(error, match=message) as exc:
        call()
    assert type(exc.value) is error and isinstance(exc.value, ValueError)
