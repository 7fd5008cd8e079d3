"""One Tolerances record, one Hermiticity rule, one PSD floor, one dim cap.

Each test pins an edge that moved when the tolerances were gathered into
``linalg.Tolerances`` and the fixed constants beside it, or an input the CLI
now reports as JSON instead of argparse usage text.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from statepool import io
from statepool.cli import main
from statepool.errors import InvalidParameterError, NotPSDError
from statepool.linalg import PSD_TOL, Spectrum, Subspace, Tolerances, max_norm, sqrt_psd
from statepool.pooling import _pool, quantum_pool
from statepool.regions import JointState, RegionLabel, star_product
from statepool.scenario import (
    MAX_DIM, AgentPipeline, ScenarioConfig, adversarial_instance, batch_report, random_instance,
)

HALF = np.eye(2) / 2


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestRecord:
    def test_defaults(self):
        assert Tolerances() == Tolerances(rank_tol=1e-10, herm_tol=1e-8)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Tolerances().rank_tol = 0.5

    @pytest.mark.parametrize("field, value", [
        ("rank_tol", math.nan), ("rank_tol", math.inf), ("rank_tol", -math.inf),
        ("rank_tol", -1e-300), ("rank_tol", 1.0), ("rank_tol", 2.0),
        ("herm_tol", math.nan), ("herm_tol", math.inf), ("herm_tol", -math.inf),
        ("herm_tol", -1e-300),
    ])
    def test_rejects_naming_the_field(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            Tolerances(**{field: value})

    def test_psd_tol_is_no_option(self):
        # psd_tol=inf used to "pool" into a state with eigenvalue -0.5
        with pytest.raises(TypeError):
            quantum_pool(HALF, HALF, HALF, psd_tol=math.inf)


class TestOnePSDFloor:
    def test_sqrt_psd_clamps_within_the_floor(self):
        # -1e-9 lies above -PSD_TOL * max(max|w|, 1); the floor used to be 1e-10
        root = sqrt_psd(np.diag([1.0, -1e-9]))
        assert max_norm(root - np.diag([1.0, 0.0])) == 0.0

    def test_star_product_clamps_within_the_floor(self):
        psi = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = star_product(psi, np.diag([1.0, -1e-9]))
        assert max_norm(out - np.diag([0.5, 0.0])) < 1e-15

    @pytest.mark.parametrize("apply", [lambda m: sqrt_psd(m), lambda m: star_product(HALF, m)])
    def test_below_the_floor_rejected(self, apply):
        assert -1e-7 < -PSD_TOL < -1e-9  # the floor sits between the two edges tested
        with pytest.raises(NotPSDError):
            apply(np.diag([1.0, -1e-7]))


    @pytest.mark.parametrize("excess, accepted", [(5e-17, True), (2e-16, False)])
    def test_pooled_state_uses_the_relative_floor(self, excess, accepted):
        # pooled eigenvalues (1 + x, -x): -x is below the absolute floor -PSD_TOL
        # but, for x up to PSD_TOL * (1 + x), not below -PSD_TOL * max(max|w|, 1)
        x = PSD_TOL + excess
        s1, full = np.diag([1.0 + x, -x]), Subspace.full(2)
        pool = lambda: _pool(np.eye(2), Spectrum.of(np.eye(2)), s1, np.eye(2), full, full,
                             None, Tolerances())
        if accepted:
            assert pool().min_eigenvalue < -PSD_TOL
        else:
            with pytest.raises(NotPSDError):
                pool()


class TestOneHermiticityRule:
    def test_joint_state_with_large_entries(self):
        # max-norm 1e4, asymmetry 1e-6: relative residual 1e-10 passes, the old
        # absolute rule (1e-6 > 1e-8) rejected it
        op = np.diag([1e4, 2e4]).astype(complex)
        op[0, 1] = 1e-6
        s = JointState((RegionLabel("A", 2),), op, normalized=False)
        assert max_norm(s.op - s.op.conj().T) == 0.0

    def test_joint_state_beyond_the_relative_rule(self):
        op = np.diag([1e4, 2e4]).astype(complex)
        op[0, 1] = 1e-3  # relative residual 1e-7
        with pytest.raises(InvalidParameterError, match="joint state is not Hermitian"):
            JointState((RegionLabel("A", 2),), op, normalized=False)

    def test_prior_check_ignores_the_config_herm_tol(self):
        prior = np.diag([0.5, 0.5]).astype(complex)
        prior[0, 1] = 1e-12
        cfg = ScenarioConfig(prior, (AgentPipeline("W"), AgentPipeline("T")),
                             tol=Tolerances(herm_tol=0.0))
        assert cfg.prior[0, 1] == cfg.prior[1, 0] == 5e-13

    @pytest.mark.parametrize("prior, word", [
        # max-norm 2, asymmetry 1.5e-8: above 1e-8, below 1e-8 * max-norm
        ([[2.0, 1.5e-8], [0.0, -1.0]], "PSD"),
        ([[2.0, 1.5e-8], [0.0, 2.0]], "trace"),
    ])
    def test_scenario_run_large_prior_exit_2(self, tmp_path, capsys, prior, word):
        cfg = io.scenario_config_to_json(random_instance(2, 7, 0.5))
        cfg["prior"] = io.matrix_to_json(np.array(prior))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(capsys, "scenario-run", str(path))
        payload = json.loads(out.out)
        assert code == 2 and payload["error"] == "malformed_input"
        assert word in payload["message"] and "Hermitian" not in payload["message"]


class TestDimensionCap:
    @pytest.mark.parametrize("make", [
        lambda: random_instance(MAX_DIM + 1, 0),
        lambda: adversarial_instance(MAX_DIM + 1, 0),
        lambda: batch_report([MAX_DIM + 1], 1, [0.5], 0),
    ])
    def test_library_rejects(self, make):
        with pytest.raises(InvalidParameterError, match="dim 65 > 64"):
            make()

    def test_batch_checks_every_dim_before_the_first_cell(self, monkeypatch):
        calls = []
        monkeypatch.setattr("statepool.scenario.run_scenario", calls.append)
        with pytest.raises(InvalidParameterError):
            batch_report([2, MAX_DIM + 1], 1, [0.5], 0)
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ("randgen", "--dim", "65"),
        ("scenario-batch", "--dim", "2", "65", "--count", "1"),
        ("scenario-batch", "--generator", "adversarial", "--dim", "65", "--count", "1"),
    ])
    def test_cli_exit_2(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2 and json.loads(out.out)["message"] == "dim 65 > 64"


class TestUsageErrorsAsJSON:
    @pytest.mark.parametrize("argv", [
        ("scenario-batch", "--dim", "2", "--noise", "-1e-300"),
        ("scenario-batch", "--dim", "2", "--noise", "-inf"),
        ("randgen", "--noise", "-inf"),
        ("randgen", "--bogus"),
        ("randgen", "--dim", "two"),
        ("no-such-command",),
        (),
    ])
    def test_exit_2_with_payload(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2, out
        assert json.loads(out.out)["error"] == "malformed_input"
        assert out.err == ""

    def test_help_exits_0(self, capsys):
        code, out = run_cli(capsys, "randgen", "--help")
        assert code == 0 and "usage:" in out.out
