import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statepool.compatibility import (
    ConditionalDistribution, ProbabilityDistribution, classical_bayes_posterior,
    classical_compatible, quantum_compatible,
)
from statepool.errors import (
    ImpossibleConditioningError,
    IncompatibleAssignmentsError,
    NonHermitianPoolingProductError,
    PriorSupportError,
)
from statepool.linalg import max_norm
from statepool.pooling import (
    check_conditional_independence,
    classical_pool,
    minimal_sufficient_statistic,
    quantum_minimal_sufficient_statistic,
    quantum_pool,
)
from statepool.regions import quantum_bayes
from statepool.scenario import DepolarizingChannel

from oracles import (
    DIAGONAL_SUPPORT_CASES, closed_form_pool, diagonal_support, rand_density, rand_herm,
    rand_prob, rand_psd,
)


def dist(*probs):
    return ProbabilityDistribution(tuple(range(len(probs))), np.array(probs))


class TestClassicalPool:
    def test_no_new_data(self):
        p = dist(0.3, 0.7)
        r = classical_pool(p, p, p)
        assert np.allclose(r.pooled.probs, p.probs)
        assert r.normalization_c == pytest.approx(1.0)

    def test_hand_computation(self):
        r = classical_pool(dist(0.5, 0.5), dist(0.5, 0.5), dist(0.8, 0.2))
        assert np.allclose(r.pooled.probs, [0.8, 0.2])

    def test_incompatible(self):
        with pytest.raises(IncompatibleAssignmentsError):
            classical_pool(dist(0.5, 0.5), dist(1, 0), dist(0, 1))

    def test_prior_excludes_shared_outcome(self):
        with pytest.raises(PriorSupportError):
            classical_pool(dist(1, 0), dist(0.5, 0.5), dist(0.5, 0.5))

    def test_output_is_distribution(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.integers(2, 9)
            prior = dist(*rand_prob(rng, n, True))
            q1 = dist(*rand_prob(rng, n, True))
            q2 = dist(*rand_prob(rng, n, True))
            r = classical_pool(prior, q1, q2)
            assert np.all(r.pooled.probs >= 0) and np.all(r.pooled.probs <= 1)
            assert r.pooled.probs.sum() == pytest.approx(1.0)


@st.composite
def diagonal_distributions(draw, n):
    """A probability vector of length n: full support, or with random zeros and
    entries log-uniform in [1e-13, 1e-9] times the largest."""
    mass = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(["mass", "zero", "tiny"]), min_size=n, max_size=n))
    kinds[draw(st.integers(0, n - 1))] = "mass"
    if draw(st.booleans()):
        kinds = ["mass"] * n
    top = max(m for m, k in zip(mass, kinds) if k == "mass")
    p = np.array([m if k == "mass" else 0.0 if k == "zero" else top * 10 ** draw(st.floats(-13, -9))
                  for m, k in zip(mass, kinds)])
    return p / p.sum()


diagonal_triples = st.integers(1, 12).flatmap(
    lambda n: st.tuples(*[diagonal_distributions(n)] * 3))


class TestClassicalIsTheDiagonalCase:
    """The classical deciders and rules against the quantum ones on diagonal states,
    and classical pooling against its closed form."""

    @settings(max_examples=300, deadline=None)
    @given(diagonal_triples)
    @example(DIAGONAL_SUPPORT_CASES[0][:3])
    @example(DIAGONAL_SUPPORT_CASES[1][:3])
    @example(DIAGONAL_SUPPORT_CASES[2][:3])
    def test_compatibility_and_pooling(self, triple):
        prior, q1, q2 = (np.asarray(p, dtype=float) for p in triple)
        verdict = classical_compatible(dist(*q1), dist(*q2))
        quantum = quantum_compatible(np.diag(q1), np.diag(q2))
        assert verdict.compatible is quantum.compatible
        assert verdict.intersection_rank() == quantum.intersection_rank()
        assert verdict.intersection == tuple(np.flatnonzero(diagonal_support(q1)
                                                            & diagonal_support(q2)))
        try:
            want, c = closed_form_pool(prior, q1, q2)
        except (PriorSupportError, IncompatibleAssignmentsError) as e:
            with pytest.raises(type(e)):
                classical_pool(dist(*prior), dist(*q1), dist(*q2))
        else:
            r = classical_pool(dist(*prior), dist(*q1), dist(*q2))
            assert np.all(np.abs(r.pooled.probs - want) <= 1e-12 * want)
            assert r.normalization_c == pytest.approx(c, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(*[diagonal_distributions(n)] * 2)))
    @example(([1 - 5e-13, 5e-13], [0.0, 1.0]))
    @example(([1.0, 0.0], [0.0, 1.0]))
    def test_bayes_posterior(self, pair):
        prior, row = np.asarray(pair[0], dtype=float), np.asarray(pair[1], dtype=float)
        row = row / row.max()  # P(X = 0 | y): zeros, tiny entries and a 1
        cond = ConditionalDistribution(tuple(range(row.size)), (0, 1), np.array([row, 1 - row]))
        try:
            want = np.diagonal(quantum_bayes(np.diag(row), np.diag(prior))).real
        except ImpossibleConditioningError:
            with pytest.raises(ImpossibleConditioningError, match="impossible outcome"):
                classical_bayes_posterior(dist(*prior), cond, 0)
        else:
            posterior, _ = classical_bayes_posterior(dist(*prior), cond, 0)
            assert max_norm(posterior.probs - want) <= 1e-12

    @pytest.mark.parametrize("prior, q1, q2, error, compatible", DIAGONAL_SUPPORT_CASES)
    def test_support_cases(self, prior, q1, q2, error, compatible):
        with pytest.raises(error):
            classical_pool(dist(*prior), dist(*q1), dist(*q2))
        with pytest.raises(error):
            quantum_pool(np.diag(prior), np.diag(q1), np.diag(q2))
        assert classical_compatible(dist(*q1), dist(*q2)).compatible is compatible
        assert quantum_compatible(np.diag(q1), np.diag(q2)).compatible is compatible


class TestQuantumPool:
    def test_trivial_fixed_point(self):
        rng = np.random.default_rng(1)
        rho = rand_density(rng, 3)
        r = quantum_pool(rho, rho, rho)
        assert max_norm(r.pooled - rho) < 1e-10
        assert r.normalization_c == pytest.approx(1.0)

    def test_diagonal_matches_classical(self):
        r = quantum_pool(np.eye(2) / 2, np.diag([0.8, 0.2]), np.diag([0.5, 0.5]))
        assert max_norm(r.pooled - np.diag([0.8, 0.2])) < 1e-12

    def test_left_and_right_absorption(self):
        rng = np.random.default_rng(2)
        rho = rand_density(rng, 3)
        # a posterior drawn apart from the prior, and one a channel makes from it
        for sigma in (rand_density(rng, 3), DepolarizingChannel(3, 0.4).apply(rho)):
            assert max_norm(quantum_pool(rho, rho, sigma).pooled - sigma) < 1e-10
            assert max_norm(quantum_pool(rho, sigma, rho).pooled - sigma) < 1e-10

    def test_pooled_assignment_map_is_nonlinear(self):
        # frozen fixture: depolarizing assignments (weights 1/2 and 1/4) on
        # diagonal qubit priors diag(.8,.2) and diag(.3,.7), alpha = 1/2.
        # Expected values computed independently with exact rational
        # arithmetic on the diagonal entries s1_i * s2_i / r_i.
        a1, a2 = DepolarizingChannel(2, 0.5).apply, DepolarizingChannel(2, 0.25).apply
        rho = np.diag([0.8, 0.2])
        rhop = np.diag([0.3, 0.7])
        mix = 0.5 * rho + 0.5 * rhop
        g_rho, g_rhop, g_mix = (quantum_pool(r, a1(r), a2(r)).pooled for r in (rho, rhop, mix))
        assert max_norm(g_rho - np.diag([377 / 685, 308 / 685])) < 1e-12
        assert max_norm(g_rhop - np.diag([98 / 215, 117 / 215])) < 1e-12
        assert max_norm(g_mix - np.diag([8127 / 15860, 7733 / 15860])) < 1e-12
        convex = 0.5 * g_rho + 0.5 * g_rhop
        gap = max_norm(g_mix - convex)
        assert gap == pytest.approx(0.00933172687599418, rel=1e-9)
        assert gap > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_diagonal_embedding(self, seed, dim):
        rng = np.random.default_rng(seed)
        prior = rand_prob(rng, dim, True)
        p1 = rand_prob(rng, dim, True)
        p2 = rand_prob(rng, dim, True)
        qr = quantum_pool(np.diag(prior), np.diag(p1), np.diag(p2))
        want, c = closed_form_pool(prior, p1, p2)
        assert max_norm(np.diagonal(qr.pooled).real - want) < 1e-10
        assert qr.normalization_c == pytest.approx(c)

    def test_incompatible_supports(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        with pytest.raises(IncompatibleAssignmentsError):
            quantum_pool(np.eye(2) / 2, p0, p1)

    def test_posterior_escaping_prior_support(self):
        prior = np.diag([1.0, 0.0])
        with pytest.raises(PriorSupportError):
            quantum_pool(prior, np.eye(2) / 2, np.eye(2) / 2)

    def test_non_hermitian_product_is_error_with_residual(self):
        rng = np.random.default_rng(3)
        prior = rand_density(rng, 3)
        s1, s2 = rand_density(rng, 3), rand_density(rng, 3)
        with pytest.raises(NonHermitianPoolingProductError) as exc:
            quantum_pool(prior, s1, s2)
        assert exc.value.residual > 1e-6

    def test_commuting_family_pools_cleanly(self):
        rng = np.random.default_rng(4)
        w, v = np.linalg.eigh(rand_herm(rng, 4))
        def state(p):
            return (v * (p / p.sum())) @ v.conj().T
        r = quantum_pool(state(rng.random(4) + 0.1),
                         state(rng.random(4) + 0.1),
                         state(rng.random(4) + 0.1))
        assert r.hermiticity_residual <= 1e-10
        assert r.min_eigenvalue >= -1e-10


class TestMinimalSufficientStatistic:
    def cond(self, rows):
        t = np.asarray(rows, dtype=float)
        t = t / t.sum(axis=0, keepdims=True)
        return ConditionalDistribution(tuple(range(t.shape[1])), tuple(range(t.shape[0])), t)

    def test_deterministic_test_distinct_classes(self):
        cond = ConditionalDistribution((0, 1), (0, 1),
                                       np.array([[1.0, 0.0], [0.0, 1.0]]))
        stat = minimal_sufficient_statistic(cond)
        assert sorted(map(sorted, stat.classes)) == [[0], [1]]

    def test_proportional_rows_merge(self):
        # rows (0.2, 0.4), (0.1, 0.2), (0.7, 0.4): first two proportional
        cond = ConditionalDistribution((0, 1), (0, 1, 2),
                                       np.array([[0.2, 0.4], [0.1, 0.2], [0.7, 0.4]]))
        stat = minimal_sufficient_statistic(cond)
        assert sorted(map(sorted, stat.classes)) == [[0, 1], [2]]

    def test_constant_likelihood_single_class(self):
        cond = ConditionalDistribution((0, 1), (0, 1, 2),
                                       np.full((3, 2), 1.0 / 3.0))
        stat = minimal_sufficient_statistic(cond)
        assert len(stat.classes) == 1

    def test_label_permutation_invariance(self):
        t = np.array([[0.2, 0.4], [0.1, 0.2], [0.7, 0.4]])
        base = minimal_sufficient_statistic(ConditionalDistribution((0, 1), (0, 1, 2), t))
        perm = [2, 0, 1]
        permuted = minimal_sufficient_statistic(
            ConditionalDistribution((0, 1), (0, 1, 2), t[perm, :]))
        transported = {frozenset(perm.index(x) for x in c) for c in base.classes}
        assert set(permuted.classes) == transported


class TestQuantumMinimalSufficientStatistic:
    def test_proportional_operators_merge(self):
        stat = quantum_minimal_sufficient_statistic({0: np.eye(2) / 2, 1: np.eye(2) / 2})
        assert len(stat.classes) == 1

    def test_orthogonal_projectors_split(self):
        stat = quantum_minimal_sufficient_statistic(
            {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])})
        assert len(stat.classes) == 2

    def test_scaling_check(self):
        rng = np.random.default_rng(5)
        m = rand_psd(rng, 2)
        n = rand_psd(rng, 2)
        stat = quantum_minimal_sufficient_statistic({1: 0.3 * m, 2: 0.7 * m, 3: n})
        assert sorted(map(sorted, stat.classes)) == [[1, 2], [3]]

    def test_zero_operator_warns(self):
        with pytest.warns(UserWarning):
            stat = quantum_minimal_sufficient_statistic(
                {0: np.zeros((2, 2)), 1: np.eye(2)})
        assert len(stat.classes) == 2


class TestConditionalIndependence:
    def test_exact_factorization(self):
        rng = np.random.default_rng(6)
        h1 = {a: rand_psd(rng, 3) for a in range(2)}
        h2 = {b: rand_psd(rng, 3) for b in range(2)}
        joint = {(a, b): h1[a] @ h2[b] for a in h1 for b in h2}
        ok, res, _ = check_conditional_independence(h1, h2, joint)
        assert ok and res == 0.0

    def test_classical_independent_tests_commute(self):
        rng = np.random.default_rng(7)
        h1 = {a: np.diag(rng.random(3)) for a in range(2)}
        h2 = {b: np.diag(rng.random(3)) for b in range(2)}
        joint = {(a, b): h1[a] @ h2[b] for a in h1 for b in h2}
        ok, res, rev = check_conditional_independence(h1, h2, joint)
        assert ok and rev <= 1e-12  # diagonals commute: both orders factorize

    def test_constructed_violation(self):
        rng = np.random.default_rng(8)
        h1 = {a: rand_psd(rng, 3) for a in range(2)}
        h2 = {b: rand_psd(rng, 3) for b in range(2)}
        e = rand_herm(rng, 3)
        e /= max_norm(e)
        joint = {(a, b): h1[a] @ h2[b] for a in h1 for b in h2}
        joint[(0, 0)] = joint[(0, 0)] + 0.05 * e
        ok, res, _ = check_conditional_independence(h1, h2, joint)
        assert not ok
        assert res == pytest.approx(0.05, rel=1e-9)

    def test_missing_pair(self):
        with pytest.raises(KeyError):
            check_conditional_independence({0: np.eye(2)}, {0: np.eye(2)}, {})
