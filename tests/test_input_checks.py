"""Inputs rejected where they enter: tolerances, seeds, non-PSD states,
malformed named pipeline steps and mistyped scalar fields of configs and
hybrid states.

Each of these used to reach a computation and come back as a misleading
verdict or a bare numpy traceback; now each is InvalidParameterError, which
the CLI reports as exit 2 with a ``malformed_input`` payload.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from statepool import io
from statepool.cli import main
from statepool.compatibility import quantum_compatible
from statepool.errors import InvalidParameterError
from statepool.io import MalformedInputError
from statepool.linalg import Tolerances
from statepool.pooling import quantum_pool
from statepool.regions import make_hybrid
from statepool.scenario import (
    UnitaryDynamics, adversarial_instance, batch_report, depolarizing_channel, haar_unitary,
    random_instance,
)

HALF = np.eye(2) / 2
NOT_PSD = np.diag([2.0, -1.0])  # Hermitian, unit trace, eigenvalue -1


def write_matrix(tmp_path, name, m):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(io.matrix_to_json(m)))
    return str(path)


def assert_exit_2(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 2, out
    assert json.loads(out)["error"] == "malformed_input"
    return json.loads(out)["message"]


class TestTolerances:
    @pytest.mark.parametrize("rank_tol, herm_tol", [
        (math.nan, 1e-8), (math.inf, 1e-8), (-1e-10, 1e-8), (1.0, 1e-8),
        (1e-10, math.nan), (1e-10, math.inf), (1e-10, -1.0),
    ])
    def test_rule(self, rank_tol, herm_tol):
        with pytest.raises(InvalidParameterError):
            Tolerances(rank_tol, herm_tol)

    @pytest.mark.parametrize("rank_tol, herm_tol", [(0.0, 0.0), (0.2, 1e-300), (1e-10, 1e8)])
    def test_accepted(self, rank_tol, herm_tol):
        Tolerances(rank_tol, herm_tol)

    def test_library_entry_points(self):
        with pytest.raises(InvalidParameterError):
            quantum_compatible(HALF, HALF, Tolerances(rank_tol=math.nan))
        with pytest.raises(InvalidParameterError):
            quantum_pool(HALF, HALF, HALF, Tolerances(herm_tol=-1.0))
        cfg = random_instance(2, 0, 0.5)
        with pytest.raises(InvalidParameterError):
            type(cfg)(cfg.prior, cfg.pipelines, tol=Tolerances(rank_tol=math.inf))

    def test_compat_quantum_nan_rank_tol(self, tmp_path, capsys):
        a = write_matrix(tmp_path, "a", HALF)
        assert "rank_tol" in assert_exit_2(capsys, "compat-quantum", a, a, "--rank-tol", "nan")

    def test_pool_quantum_negative_herm_tol(self, tmp_path, capsys):
        a = write_matrix(tmp_path, "a", HALF)
        assert "herm_tol" in assert_exit_2(capsys, "pool-quantum", a, a, a, "--herm-tol", "-1")

    @pytest.mark.parametrize("text", ['"nan"', "1e999"])
    def test_scenario_run_config_rank_tol(self, tmp_path, capsys, text):
        cfg = io.dumps(io.scenario_config_to_json(random_instance(2, 7, 0.5)))
        cfg = cfg.replace('"rank_tol": 1e-10', f'"rank_tol": {text}')
        assert f'"rank_tol": {text}' in cfg
        path = tmp_path / "cfg.json"
        path.write_text(cfg)
        assert "rank_tol" in assert_exit_2(capsys, "scenario-run", str(path))


class TestSeeds:
    @pytest.mark.parametrize("make", [
        lambda: random_instance(2, -1),
        lambda: adversarial_instance(2, -1),
        lambda: batch_report([2], 1, [0.5], -1),
        lambda: batch_report([2], 1, [0.5], -1, "adversarial"),
    ])
    def test_negative_seed_rejected(self, make):
        with pytest.raises(InvalidParameterError, match="seed -1 < 0"):
            make()

    def test_seed_sequences_still_accepted(self):
        a, b = random_instance(2, [3, 1]), random_instance(2, [3, 1])
        assert np.array_equal(a.prior, b.prior)
        assert adversarial_instance(2, [3, 1]).prior.shape == (2, 2)

    @pytest.mark.parametrize("argv", [
        ("randgen", "--dim", "2", "--seed", "-1"),
        ("scenario-batch", "--dim", "2", "--count", "1", "--seed", "-1"),
    ])
    def test_cli_exit_2(self, capsys, argv):
        assert "seed" in assert_exit_2(capsys, *argv)

    @pytest.mark.parametrize("seed", [7.9, 7.0, True, -3, np.int64(-3), "7", None, [3, 1]])
    def test_config_seed_must_be_an_integer(self, seed):
        cfg = random_instance(2, 7, 0.5)
        with pytest.raises(InvalidParameterError, match="is not an integer >= 0"):
            dataclasses.replace(cfg, seed=seed)

    @pytest.mark.parametrize("make", [random_instance, adversarial_instance])
    @pytest.mark.parametrize("seed", [5, np.int64(5), np.uint8(5)])
    def test_integer_seed_recorded(self, make, seed):
        cfg = make(2, seed)
        assert cfg.seed == 5 and np.array_equal(cfg.prior, make(2, 5).prior)
        obj = io.scenario_config_to_json(cfg)
        assert json.loads(json.dumps(obj)) == json.loads(io.dumps(obj))  # plain JSON types
        back = io.scenario_config_from_json(json.loads(io.dumps(obj)))
        assert back.seed == 5 and np.array_equal(back.prior, cfg.prior)

    @pytest.mark.parametrize("make", [random_instance, adversarial_instance])
    def test_seed_sequence_recorded_as_zero(self, make):
        assert make(2, [5, 2, 0, 1]).seed == 0

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint8(7)])
    def test_config_seed_written_as_given(self, seed):
        cfg = dataclasses.replace(random_instance(2, 7, 0.5), seed=seed)
        text = io.dumps(io.scenario_config_to_json(cfg))
        assert json.loads(text)["seed"] == int(seed)
        assert io.scenario_config_from_json(json.loads(text)).seed == int(seed)


class TestPSDInputs:
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_quantum_pool_any_slot(self, slot):
        args = [HALF] * 3
        args[slot] = NOT_PSD
        with pytest.raises(InvalidParameterError, match="is not PSD"):
            quantum_pool(*args)

    def test_quantum_pool_uses_psd_tol(self):
        slightly = np.diag([1.0 + 1e-6, -1e-6])
        with pytest.raises(InvalidParameterError):
            quantum_pool(HALF, slightly, HALF)

    @pytest.mark.parametrize("slot", [0, 1])
    def test_quantum_compatible_any_slot(self, slot):
        args = [HALF, HALF]
        args[slot] = NOT_PSD
        with pytest.raises(InvalidParameterError, match="is not PSD"):
            quantum_compatible(*args)

    def test_tiny_negative_eigenvalue_accepted(self):
        s = np.diag([1.0, -1e-12])
        assert quantum_compatible(s, s).compatible

    def test_pool_quantum_cli(self, tmp_path, capsys):
        prior, s = write_matrix(tmp_path, "p", HALF), write_matrix(tmp_path, "s", NOT_PSD)
        assert "PSD" in assert_exit_2(capsys, "pool-quantum", prior, s, s)

    def test_compat_quantum_cli(self, tmp_path, capsys):
        s = write_matrix(tmp_path, "s", NOT_PSD)
        assert "PSD" in assert_exit_2(capsys, "compat-quantum", s, s)


def test_overflowing_pooling_product_exit_2(tmp_path, capsys):
    prior = write_matrix(tmp_path, "p", np.array([[1e-300]]))
    s = write_matrix(tmp_path, "s", np.array([[1e300]]))
    assert "overflows" in assert_exit_2(capsys, "pool-quantum", prior, s, s)


def test_underflowing_pooling_product_exit_2(tmp_path, capsys):
    # the supports meet (compat-quantum says so), but s1 pinv(prior) s2 is 1e-900
    prior = write_matrix(tmp_path, "p", np.array([[1e300]]))
    s = write_matrix(tmp_path, "s", np.array([[1e-300]]))
    assert main(["compat-quantum", s, s]) == 0
    assert json.loads(capsys.readouterr().out)["compatible"] is True
    assert "underflows" in assert_exit_2(capsys, "pool-quantum", prior, s, s)


# One input per fault the CLI fuzz test found: each used to end in a traceback.
UNITARY_1E300 = {"type": "unitary", "matrix": {
    "dim": 2, "entries": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.8e8, 1e300]]}}


def _config(**changes):
    cfg = io.scenario_config_to_json(random_instance(2, 7, 0.5))
    if changes.pop("nan_unitary", False):
        cfg["pipelines"][0]["steps"][0] = UNITARY_1E300
    return cfg | changes


@pytest.mark.parametrize("command, files", [
    ("compat-quantum", [{"dim": True, "entries": [[0.0, 0.0]]}] * 2),
    ("compat-classical", [{"outcomes": [0], "probs": [10**400]}] * 2),
    ("suffstat", [{"given_outcomes": [0], "out_outcomes": [0, 0], "table": [[0.5], [0.5]]}]),
    ("suffstat", [{"given_outcomes": [0], "out_outcomes": [1, "a"], "table": [[0.5], [0.5]]}]),
    ("scenario-run", [_config(seed=math.inf)]),
    ("scenario-run", [_config(rank_tol=10**400)]),
    ("scenario-run", [_config(nan_unitary=True)]),  # U†U overflows to NaN
])
def test_fuzz_findings_exit_2(tmp_path, capsys, command, files):
    paths = []
    for i, obj in enumerate(files):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(obj))
    assert_exit_2(capsys, command, *map(str, paths))


def statepool_process(tmp_path, command, *objects):
    """The CLI run in a fresh interpreter, numpy's warnings at their defaults,
    on files holding ``objects``: (exit code, stdout, stderr)."""
    paths = []
    for i, obj in enumerate(objects):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(obj))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "statepool.cli", command, *map(str, paths)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command, objects, message", [
    ("pool-quantum", [io.matrix_to_json(np.array([[x]])) for x in (1e-300, 1e300, 1e300)],
     "pooling product overflows: inputs beyond float range"),
    ("scenario-run", [_config(nan_unitary=True)], "bad scenario config: matrix is not unitary"),
])
def test_overflow_exits_2_without_a_warning(tmp_path, command, objects, message):
    code, out, err = statepool_process(tmp_path, command, *objects)
    assert (code, err) == (2, "")
    assert json.loads(out) == {"error": "malformed_input", "message": message}


def test_adversarial_batch_rejects_noise_it_ignores(capsys):
    assert "noise" in assert_exit_2(capsys, "scenario-batch", "--generator", "adversarial",
                                    "--dim", "2", "--count", "1", "--noise", "inf")


# --- named pipeline steps: exactly the named keys, each of its JSON type ---

DEPOLARIZING = {"type": "depolarizing", "dim": 2, "strength": 0.5}
REPLACEMENT = {"type": "replacement", "dim": 2, "target": 1}


@pytest.mark.parametrize("step, message", [
    ({**DEPOLARIZING, "strength": "0.5"}, '"strength" must be a number'),
    ({**DEPOLARIZING, "strength": True}, '"strength" must be a number'),
    ({**DEPOLARIZING, "strength": None}, '"strength" must be a number'),
    ({**DEPOLARIZING, "strength": 1.5}, "strength 1.5 outside"),
    ({**DEPOLARIZING, "strength": math.nan}, "strength nan outside"),
    ({**DEPOLARIZING, "strength": 10**400}, "bad scenario config"),
    ({**DEPOLARIZING, "dim": 2.0}, '"dim" must be a positive integer'),
    ({**DEPOLARIZING, "dim": True}, '"dim" must be a positive integer'),
    ({**DEPOLARIZING, "dim": 0}, '"dim" must be a positive integer'),
    ({**DEPOLARIZING, "dim": 3}, "step input dim 3"),
    ({**DEPOLARIZING, "extra": 1}, 'exactly keys "type", "dim" and "strength"'),
    ({**DEPOLARIZING, "kraus": []}, 'exactly keys "type", "dim" and "strength"'),
    ({"type": "dephasing", "dim": 2}, 'exactly keys "type", "dim" and "strength"'),
    ({"type": "dephasing", "dim": 2, "target": 0}, 'exactly keys "type", "dim" and "strength"'),
    ({**REPLACEMENT, "target": -1}, r"target -1 outside \[0, 2\)"),
    ({**REPLACEMENT, "target": 5}, r"target 5 outside \[0, 2\)"),
    ({**REPLACEMENT, "target": True}, '"target" must be an integer'),
    ({**REPLACEMENT, "target": 1.0}, '"target" must be an integer'),
    ({"type": "replacement", "dim": 2, "strength": 0.5}, 'exactly keys "type", "dim" and "target"'),
    ({"type": ["depolarizing"], "dim": 2, "strength": 0.5}, "unknown step type"),
])
def test_malformed_named_step_rejected(tmp_path, capsys, step, message):
    cfg = _config()
    cfg["pipelines"][0]["steps"][1] = step
    with pytest.raises(MalformedInputError, match=message):
        io.scenario_config_from_json(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert_exit_2(capsys, "scenario-run", str(path))


# --- scalar fields: each of its JSON type, never coerced ---


@pytest.mark.parametrize("field, value, message", [
    ("pool_against_evolved", "false", '"pool_against_evolved" must be a bool'),
    ("pool_against_evolved", 0, '"pool_against_evolved" must be a bool'),
    ("seed", 7.9, '"seed" must be an integer >= 0'),
    ("seed", 7.0, '"seed" must be an integer >= 0'),
    ("seed", True, '"seed" must be an integer >= 0'),
    ("seed", -1, '"seed" must be an integer >= 0'),
    ("seed", "7", '"seed" must be an integer >= 0'),
    ("rank_tol", "1e-3", '"rank_tol" must be a number'),
    ("rank_tol", True, '"rank_tol" must be a number'),
    ("herm_tol", "1e-8", '"herm_tol" must be a number'),
    ("herm_tol", False, '"herm_tol" must be a number'),
    ("herm_tol", None, '"herm_tol" must be a number'),
])
def test_mistyped_config_field_rejected(tmp_path, capsys, field, value, message):
    cfg = _config(**{field: value})
    with pytest.raises(MalformedInputError, match=message):
        io.scenario_config_from_json(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert message in assert_exit_2(capsys, "scenario-run", str(path))


def test_typed_config_fields_still_read():
    cfg = io.scenario_config_from_json(_config(seed=0, rank_tol=0, herm_tol=1))
    assert (cfg.seed, cfg.tol) == (0, Tolerances(0.0, 1.0))
    assert type(cfg.tol.rank_tol) is float


def test_evolved_config_decodes_to_the_same_bytes():
    # every scalar field at a value other than its default; the other configs
    # randgen writes are in test_named_steps.py
    u = UnitaryDynamics(haar_unitary(3, np.random.default_rng(4)))
    cfg = dataclasses.replace(random_instance(3, 4, 0.5), pool_against_evolved=True,
                              evolved_by=u, tol=Tolerances(0.0, 1e-6))
    text = io.dumps(io.scenario_config_to_json(cfg))
    back = io.scenario_config_from_json(json.loads(text))
    assert io.dumps(io.scenario_config_to_json(back)) == text


HYBRID = io.hybrid_to_json(make_hybrid({(0,): HALF / 2, (1,): HALF / 2}))


@pytest.mark.parametrize("field, value, message", [
    ("classical_dims", [2.7], '"classical_dims" must be a list of integers'),
    ("classical_dims", [2.0], '"classical_dims" must be a list of integers'),
    ("classical_dims", [True], '"classical_dims" must be a list of integers'),
    ("classical_dims", "2", '"classical_dims" must be a list of integers'),
    ("normalized", "no", '"normalized" must be a bool'),
    ("normalized", 1, '"normalized" must be a bool'),
    ("blocks", [HYBRID["blocks"]], "bad hybrid state"),
    *(("blocks", {key: HYBRID["blocks"]["1"], "0": HYBRID["blocks"]["0"]},
       "not comma-separated ASCII digits")  # keys hybrid_to_json never writes
      for key in ("0_0", " 1", "1 ", "", "0,", "-1", "\u0661")),
])
def test_mistyped_hybrid_field_rejected(field, value, message):
    with pytest.raises(MalformedInputError, match=message):
        io.hybrid_from_json(HYBRID | {field: value})


def test_typed_hybrid_fields_still_read():
    h = io.hybrid_from_json(HYBRID | {"normalized": False})
    assert h.classical_dims == (2,) and h.normalized is False
    assert io.hybrid_from_json({k: v for k, v in HYBRID.items() if k != "normalized"}).normalized


@pytest.mark.parametrize("strength", [10**400, -10**400], ids=["1e400", "-1e400"])
def test_int_strength_beyond_float_range(strength):
    with pytest.raises(InvalidParameterError, match="integer beyond float range"):
        depolarizing_channel(2, strength)
