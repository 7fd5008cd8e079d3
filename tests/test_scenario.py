import numpy as np
import pytest

from statepool import io, scenario
from statepool.errors import (
    DimensionMismatchError, IncompatibleAssignmentsError, NonHermitianPoolingProductError,
)
from statepool.linalg import max_norm, partial_trace, tensor
from statepool.pooling import quantum_pool
from statepool.scenario import (
    AgentPipeline,
    DephasingChannel,
    DepolarizingChannel,
    KrausChannel,
    ReplacementChannel,
    ScenarioConfig,
    UnitaryDynamics,
    adversarial_instance,
    batch_report,
    haar_unitary,
    random_instance,
    run_scenario,
)

from oracles import closed_form_pool, rand_density, rand_unitary

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v)


class TestChannels:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        rho = rand_density(rng, 3)
        ch = KrausChannel((np.eye(3),))
        assert max_norm(ch.apply(rho) - rho) < 1e-12

    def test_full_dephasing_kills_coherences(self):
        ch = KrausChannel((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert max_norm(ch.apply(proj([1, 1])) - np.eye(2) / 2) < 1e-12

    def test_partial_trace_as_channel(self):
        # Kraus ops <i| (x) I implement Tr_A
        rng = np.random.default_rng(1)
        ra, rb = rand_density(rng, 2), rand_density(rng, 3)
        ops = tuple(np.kron(np.eye(2)[i, :].reshape(1, 2), np.eye(3)) for i in range(2))
        ch = KrausChannel(ops)
        got = ch.apply(tensor(ra, rb))
        assert max_norm(got - partial_trace(tensor(ra, rb), [2, 3], [1])) < 1e-12

    def test_trace_preservation_enforced(self):
        with pytest.raises(ValueError, match="trace preservation"):
            KrausChannel((np.eye(2) * 0.5,))

    def test_channel_preserves_state_validity(self):
        rng = np.random.default_rng(2)
        for dim in (2, 4, 8):
            ch = DepolarizingChannel(dim, 0.7)
            for _ in range(10):
                out = ch.apply(rand_density(rng, dim))
                assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.eigvalsh(out).min() >= -1e-10


class TestEvolve:
    def test_identity(self):
        rng = np.random.default_rng(3)
        rho = rand_density(rng, 2)
        assert max_norm(UnitaryDynamics(np.eye(2)).apply(rho) - rho) == 0

    def test_hadamard_on_ket0(self):
        got = UnitaryDynamics(HADAMARD).apply(proj([1, 0]))
        assert max_norm(got - proj([1, 1])) < 1e-12

    def test_maximally_mixed_invariant(self):
        rng = np.random.default_rng(4)
        u = UnitaryDynamics(rand_unitary(rng, 4))
        assert max_norm(u.apply(np.eye(4) / 4) - np.eye(4) / 4) < 1e-12

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(5)
        rho = rand_density(rng, 5)
        u = UnitaryDynamics(rand_unitary(rng, 5))
        assert np.allclose(np.linalg.eigvalsh(u.apply(rho)),
                           np.linalg.eigvalsh(rho), atol=1e-10)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryDynamics(np.diag([1.0, 0.5]))


class TestPipelines:
    def test_empty_pipeline(self):
        rng = np.random.default_rng(6)
        cfg = ScenarioConfig(rand_density(rng, 2), (AgentPipeline("idle"), AgentPipeline("I")))
        assert run_scenario(cfg).sigma1 is cfg.prior

    def test_composition_order(self):
        rng = np.random.default_rng(7)
        rho = rand_density(rng, 2)
        u = UnitaryDynamics(rand_unitary(rng, 2))
        ch = DephasingChannel(2, 0.3)
        cfg = ScenarioConfig(rho, (AgentPipeline("W", (u, ch)), AgentPipeline("I")))
        assert max_norm(run_scenario(cfg).sigma1 - ch.apply(u.apply(rho))) < 1e-12

    def test_fixed_instance_regression(self):
        # frozen posteriors for a fixed qubit instance, computed once
        rho = np.diag([0.6, 0.4])
        wanda = AgentPipeline("Wanda", (DephasingChannel(2, 0.5),))
        theo = AgentPipeline("Theo", (UnitaryDynamics(HADAMARD), DepolarizingChannel(2, 0.5)))
        res = run_scenario(ScenarioConfig(rho, (wanda, theo)))
        s1, s2 = res.sigma1, res.sigma2
        assert max_norm(s1 - np.diag([0.6, 0.4])) < 1e-12
        want2 = np.array([[0.5, 0.05], [0.05, 0.5]])
        assert max_norm(s2 - want2) < 1e-12

    def test_dim_chain_validated(self):
        with pytest.raises(DimensionMismatchError):
            AgentPipeline("bad", (UnitaryDynamics(np.eye(2)), UnitaryDynamics(np.eye(3))))


# Tr_A on C^2 (x) C^3 as Kraus ops <i| (x) I: a 6 -> 3 channel, and the 3 -> 6
# isometry |0> (x) I that it undoes.
TRACE_OUT_A = KrausChannel(tuple(np.kron(np.eye(2)[i, :].reshape(1, 2), np.eye(3))
                                 for i in range(2)))
EMBED_IN_A = KrausChannel((np.kron(np.eye(2)[:, :1], np.eye(3)),))


class TestConfigDims:
    def test_first_step_input_must_take_the_prior(self):
        # the last step's output dim matches the prior; the first step's input does not
        bad = AgentPipeline("Theo", (TRACE_OUT_A,))
        with pytest.raises(DimensionMismatchError, match="pipeline 'Theo' maps dim 6 to 3"):
            ScenarioConfig(prior=np.eye(3) / 3, pipelines=(AgentPipeline("W"), bad))

    def test_last_step_output_must_match_the_prior(self):
        bad = AgentPipeline("Wanda", (EMBED_IN_A,))
        with pytest.raises(DimensionMismatchError, match="pipeline 'Wanda' maps dim 3 to 6"):
            ScenarioConfig(prior=np.eye(3) / 3, pipelines=(bad, AgentPipeline("T")))

    def test_pipeline_through_a_larger_space_accepted(self):
        rho = rand_density(np.random.default_rng(13), 3)
        there_and_back = AgentPipeline("W", (EMBED_IN_A, TRACE_OUT_A))
        res = run_scenario(ScenarioConfig(prior=rho, pipelines=(there_and_back, AgentPipeline("T"))))
        assert max_norm(res.sigma1 - rho) < 1e-12 and res.verdict.compatible


class TestRunScenario:
    def test_empty_pipelines_pool_to_prior(self):
        rng = np.random.default_rng(8)
        rho = rand_density(rng, 2)
        cfg = ScenarioConfig(prior=rho, pipelines=(AgentPipeline("W"), AgentPipeline("T")))
        res = run_scenario(cfg)
        assert res.verdict.compatible
        assert max_norm(res.pooling.pooled - rho) < 1e-10

    def test_orthogonal_projections_incompatible_not_thrown(self):
        rng = np.random.default_rng(9)
        cfg = ScenarioConfig(
            prior=rand_density(rng, 2),
            pipelines=(AgentPipeline("W", (ReplacementChannel(2, 0),)),
                       AgentPipeline("T", (ReplacementChannel(2, 1),))),
        )
        res = run_scenario(cfg)
        assert not res.verdict.compatible
        assert res.pooling is None
        assert res.pooling_error["error"] == "IncompatibleAssignmentsError"

    def test_commuting_diagonal_scenario_matches_classical(self):
        prior = np.diag([0.5, 0.3, 0.2])
        cfg = ScenarioConfig(
            prior=prior,
            pipelines=(AgentPipeline("W", (DephasingChannel(3, 1.0),)),
                       AgentPipeline("T", (DephasingChannel(3, 0.4),))),
        )
        res = run_scenario(cfg)
        want, _ = closed_form_pool(*(np.diagonal(m).real for m in (prior, res.sigma1, res.sigma2)))
        assert max_norm(np.diagonal(res.pooling.pooled).real - want) < 1e-10

    def test_identical_pipelines_always_compatible(self):
        for seed in range(20):
            cfg = random_instance(3, seed, 0.5)
            same = ScenarioConfig(prior=cfg.prior,
                                  pipelines=(cfg.pipelines[0], cfg.pipelines[0]))
            res = run_scenario(same)
            assert res.verdict.compatible

    def test_pool_against_evolved_switch(self):
        rng = np.random.default_rng(10)
        rho = rand_density(rng, 2)
        u = UnitaryDynamics(rand_unitary(rng, 2))
        cfg = ScenarioConfig(
            prior=rho,
            pipelines=(AgentPipeline("W", (u,)), AgentPipeline("T", (u,))),
            evolved_by=u,
        )
        res = run_scenario(cfg)
        # both posteriors equal the evolved prior, so pooling against it is exact
        assert res.pooling is not None
        assert max_norm(res.pooling.pooled - u.apply(rho)) < 1e-10

    def test_pooling_error_is_the_payload_quantum_pool_raises(self):
        for cfg, error in [(random_instance(2, 0, 0.5), NonHermitianPoolingProductError),
                           (adversarial_instance(3, 0), IncompatibleAssignmentsError)]:
            res = run_scenario(cfg)
            with pytest.raises(error) as raised:
                quantum_pool(cfg.prior, res.sigma1, res.sigma2, cfg.tol)
            # the same keys in the same order, the same bytes
            assert io.dumps(res.pooling_error) == io.dumps(raised.value.payload())


class TestRandomInstance:
    def test_determinism(self):
        a = random_instance(3, 42, 0.3)
        b = random_instance(3, 42, 0.3)
        assert max_norm(a.prior - b.prior) == 0
        for pa, pb in zip(a.pipelines, b.pipelines):
            for sa, sb in zip(pa.steps, pb.steps):
                if isinstance(sa, UnitaryDynamics):
                    assert max_norm(sa.u - sb.u) == 0
                else:
                    assert sa == sb

    def test_noiseless_is_unitary_only(self):
        cfg = random_instance(2, 0, 0.0)
        for p in cfg.pipelines:
            assert all(isinstance(s, UnitaryDynamics) for s in p.steps)

    def test_batch_validity_of_priors(self):
        for seed in range(200):
            cfg = random_instance(2, seed, 0.5)
            assert np.trace(cfg.prior).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(cfg.prior).min() >= -1e-10

    def test_dim_below_two_rejected(self):
        with pytest.raises(ValueError):
            random_instance(1, 0)


class TestBatchReport:
    def test_noiseless_full_rank_all_compatible(self):
        rows = batch_report([2, 3], count=20, noise_grid=[0.0], seed=1)
        for row in rows:
            assert row["frac_compatible"] == 1.0

    def test_adversarial_all_incompatible(self):
        rows = batch_report([2], count=20, noise_grid=[0.0], seed=1,
                            generator="adversarial")
        assert rows[0]["frac_compatible"] == 0.0

    def test_generators_look_up_their_builder_per_call(self, monkeypatch):
        # a builder rebound as a module global (as a tracer does) is the one batch_report calls
        calls = []

        def counting(*args):
            calls.append(args)
            return random_instance(*args)

        monkeypatch.setattr(scenario, "random_instance", counting)
        batch_report([2, 3], 2, [0.0, 0.5], 1)
        assert len(calls) == 8

    def test_a_generator_that_pools_reports_its_residuals(self, monkeypatch):
        # empty pipelines: both posteriors are the prior, so rho rho^-1 rho pools
        def unchanged(dim, seed, noise):
            prior = rand_density(np.random.default_rng(seed), dim)
            return run_scenario(ScenarioConfig(prior, (AgentPipeline("W"), AgentPipeline("T"))))

        monkeypatch.setitem(scenario.GENERATORS, "unchanged", unchanged)
        rows = batch_report([2, 5], count=4, noise_grid=[0.5], seed=3, generator="unchanged")
        for row in rows:
            results = [unchanged(row["dim"], [3, row["dim"], 0, i], 0.5) for i in range(4)]
            residuals = [res.pooling.hermiticity_residual for res in results]
            assert row["frac_compatible"] == row["frac_hermitian_pooling"] == 1.0
            assert row["mean_hermiticity_residual"] == float(np.mean(residuals))
        assert any(row["mean_hermiticity_residual"] > 0.0 for row in rows)

    def test_deterministic(self):
        a = batch_report([2], count=10, noise_grid=[0.3, 0.7], seed=5)
        b = batch_report([2], count=10, noise_grid=[0.3, 0.7], seed=5)
        assert a == b

    def test_identical_pipelines_residuals(self):
        # identical diagonal pipelines: pooling product is Hermitian
        from statepool.scenario import run_scenario

        for seed in range(10):
            rng = np.random.default_rng(seed)
            prior = np.diag(rng.random(3) + 0.1)
            prior /= np.trace(prior).real
            ch = DephasingChannel(3, 0.6)
            cfg = ScenarioConfig(prior=prior,
                                 pipelines=(AgentPipeline("W", (ch,)),
                                            AgentPipeline("T", (ch,))))
            res = run_scenario(cfg)
            assert res.pooling is not None
            assert res.pooling.hermiticity_residual <= 1e-10


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(11)
    for dim in (2, 5, 8):
        u = haar_unitary(dim, rng)
        assert max_norm(u.conj().T @ u - np.eye(dim)) < 1e-10


def test_adversarial_instance_shape():
    cfg = adversarial_instance(4, 0)
    res = run_scenario(cfg)
    assert not res.verdict.compatible
