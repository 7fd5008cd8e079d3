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

from statepool import io, regions
from statepool.cli import main
from statepool.compatibility import (
    ConditionalDistribution, ProbabilityDistribution, quantum_compatible,
)
from statepool.errors import DimensionMismatchError, InvalidParameterError
from statepool.io import MalformedInputError
from statepool.linalg import Subspace, Tolerances, embed, partial_trace, permute_factors, tensor
from statepool.pooling import (
    SufficientStatistic, quantum_minimal_sufficient_statistic, quantum_pool,
)
from statepool.regions import make_hybrid
from statepool.scenario import (
    GENERATORS, AgentPipeline, Channel, DephasingChannel, DepolarizingChannel, KrausChannel,
    ReplacementChannel, ScenarioConfig, UnitaryDynamics,
    adversarial_instance, batch_report, haar_unitary, random_instance,
    run_scenario,
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
        with pytest.raises(InvalidParameterError, match=r"^seed .+ (is not an integer|< 0)$"):
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

    @pytest.mark.parametrize("make", [
        lambda seed: random_instance(2, seed),
        lambda seed: adversarial_instance(2, seed),
        lambda seed: batch_report([2], 1, [0.5], seed),
    ], ids=["random_instance", "adversarial_instance", "batch_report"])
    @pytest.mark.parametrize("seed", [1.5, 1.0, "x", "1", True, None, np.float64(1.0)],
                             ids=["1.5", "1.0", "x", "str1", "True", "None", "float64"])
    def test_non_integer_seed_rejected(self, make, seed):
        # batch_report once truncated 1.5 to 1; None drew OS entropy and recorded 0
        with pytest.raises(InvalidParameterError, match="is not an integer"):
            make(seed)

    @pytest.mark.parametrize("seed, message", [
        ([3, -1], "seed -1 < 0"), ((3, 1.5), "seed 1.5 is not an integer"),
        ([True], "seed True is not an integer"), ([[3, 1]], r"seed \[3, 1\] is not an integer"),
    ])
    @pytest.mark.parametrize("make", [random_instance, adversarial_instance])
    def test_bad_seed_sequence_entry_rejected(self, make, seed, message):
        with pytest.raises(InvalidParameterError, match=message):
            make(2, seed)

    def test_batch_seed_is_one_integer(self):
        with pytest.raises(InvalidParameterError, match=r"seed \[3, 1\] is not an integer"):
            batch_report([2], 1, [0.5], [3, 1])

    @pytest.mark.parametrize("call, message", [
        (lambda: batch_report([2], 2.5, [0.5], 1), "count 2.5 is not an integer"),
        (lambda: batch_report([2], True, [0.5], 1), "count True is not an integer"),
        (lambda: batch_report([2.0], 1, [0.5], 1), "dim 2.0 is not an integer"),
        (lambda: random_instance(2.0, 1), "dim 2.0 is not an integer"),
        (lambda: adversarial_instance("2", 1), "dim '2' is not an integer"),
    ], ids=["batch-count-2.5", "batch-count-True", "batch-dim-2.0", "random-dim-2.0",
            "adversarial-dim-str"])
    def test_non_integer_count_and_dim_rejected(self, call, message):
        with pytest.raises(InvalidParameterError, match=message):
            call()

    def test_numpy_integers_accepted_where_a_generator_is_entered(self):
        ints = batch_report([2, 3], 2, [0.5], 4)
        assert batch_report([np.int64(2), np.uint8(3)], np.int32(2), [0.5], np.uint16(4)) == ints

    @pytest.mark.parametrize("one_shot", ["dims", "noise"])
    def test_a_generator_grid_gives_the_rows_of_a_list(self, one_shot):
        # the grids are validated before the first cell runs, so each is iterated once
        dims, noise = [2, 3], [0.0, 0.5]
        rows = batch_report(dims, 2, noise, 4)
        grids = {"dims": dims, "noise": noise}
        grids[one_shot] = (v for v in grids[one_shot])
        assert len(rows) == 4 and batch_report(grids["dims"], 2, grids["noise"], 4) == rows

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
    ("scenario-run", [_config(pool_against_evolved=True,  # a 3x3 evolved_by, d = 2
                              evolved_by=io.matrix_to_json(np.eye(3)))]),
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


@pytest.mark.parametrize("dims, noise, what", [
    ([2, 2], [0.5], "dim"),
    ([2, np.int64(3), 3], [0.5], "dim"),
    ([2], [0.5, 0.5], "noise"),
    ([2], [0, 0.0], "noise"),
    ([2], [0.0, -0.0], "noise"),  # one value
])
def test_batch_report_rejects_a_repeated_grid_value(monkeypatch, dims, noise, what):
    # a repeated dim ran one cell twice; a repeated noise put two rows, seeded by the
    # noise's position, under one (dim, noise) key
    runs = []
    monkeypatch.setitem(GENERATORS, "random", lambda *args: runs.append(args))
    with pytest.raises(InvalidParameterError, match=f"^{what} grid .* repeats a value"):
        batch_report(dims, 1, noise, 0)
    assert runs == []  # rejected before the first cell ran


@pytest.mark.parametrize("grid", [("--dim", "2", "2"), ("--noise", "0.5", "0.5"),
                                  ("--noise", "0", "-0.0")])
def test_scenario_batch_rejects_a_repeated_grid_value(capsys, grid):
    assert "repeats a value" in assert_exit_2(capsys, "scenario-batch", "--count", "1", *grid)


# --- named pipeline steps: exactly the named keys, each of its JSON type ---

DEPOLARIZING = {"type": "depolarizing", "dim": 2, "strength": 0.5}
REPLACEMENT = {"type": "replacement", "dim": 2, "target": 1}


@pytest.mark.parametrize("step, message", [
    ({**DEPOLARIZING, "strength": "0.5"}, "strength '0.5' is not a real number"),
    ({**DEPOLARIZING, "strength": True}, "strength True is not a real number"),
    ({**DEPOLARIZING, "strength": None}, "strength None is not a real number"),
    ({**DEPOLARIZING, "strength": 1.5}, "strength 1.5 outside"),
    ({**DEPOLARIZING, "strength": math.nan}, "strength nan outside"),
    ({**DEPOLARIZING, "strength": 10**400}, "bad scenario config"),
    ({**DEPOLARIZING, "dim": 2.0}, "dim 2.0 is not an integer"),
    ({**DEPOLARIZING, "dim": True}, "dim True is not an integer"),
    ({**DEPOLARIZING, "dim": 0}, "dim 0 < 1"),
    ({**DEPOLARIZING, "dim": 3}, "step input dim 3"),
    ({**DEPOLARIZING, "extra": 1}, 'exactly keys "type", "dim" and "strength"'),
    ({**DEPOLARIZING, "kraus": []}, 'exactly keys "type", "dim" and "strength"'),
    ({"type": "dephasing", "dim": 2}, 'exactly keys "type", "dim" and "strength"'),
    ({"type": "dephasing", "dim": 2, "target": 0}, 'exactly keys "type", "dim" and "strength"'),
    ({**REPLACEMENT, "target": -1}, r"target -1 outside \[0, 2\)"),
    ({**REPLACEMENT, "target": 5}, r"target 5 outside \[0, 2\)"),
    ({**REPLACEMENT, "target": True}, "target True is not an integer"),
    ({**REPLACEMENT, "target": 1.0}, "target 1.0 is not an integer"),
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
    ("seed", 7.9, "seed 7.9 is not an integer"),
    ("seed", 7.0, "seed 7.0 is not an integer"),
    ("seed", True, "seed True is not an integer"),
    ("seed", -1, "seed -1 < 0"),
    ("seed", "7", "seed '7' is not an integer"),
    ("rank_tol", "1e-3", "rank_tol '1e-3' is not a real number"),
    ("rank_tol", True, "rank_tol True is not a real number"),
    ("herm_tol", "1e-8", "herm_tol '1e-8' is not a real number"),
    ("herm_tol", False, "herm_tol False is not a real number"),
    ("herm_tol", None, "herm_tol None is not a real number"),
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
    cfg = dataclasses.replace(random_instance(3, 4, 0.5), evolved_by=u,
                              tol=Tolerances(0.0, 1e-6))
    text = io.dumps(io.scenario_config_to_json(cfg))
    back = io.scenario_config_from_json(json.loads(text))
    assert io.dumps(io.scenario_config_to_json(back)) == text


@pytest.mark.parametrize("pooled, evolved", [
    (True, None), (False, np.eye(2)), (None, np.eye(2)),  # None: no "pool_against_evolved" key
], ids=["true-without-matrix", "false-with-matrix", "absent-with-matrix"])
def test_disagreeing_evolved_keys_exit_2(tmp_path, capsys, pooled, evolved):
    cfg = _config()
    if pooled is None:
        del cfg["pool_against_evolved"]
    else:
        cfg["pool_against_evolved"] = pooled
    if evolved is not None:
        cfg["evolved_by"] = io.matrix_to_json(evolved)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    message = assert_exit_2(capsys, "scenario-run", str(path))
    assert message == '"pool_against_evolved" must be true iff "evolved_by" is set'


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("evolved", [{}, [], 0, "", False], ids=repr)
def test_falsy_evolved_by_is_set_not_absent(tmp_path, capsys, evolved, pooled):
    cfg = _config(evolved_by=evolved, pool_against_evolved=pooled)
    with pytest.raises(MalformedInputError):
        io.scenario_config_from_json(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert_exit_2(capsys, "scenario-run", str(path))


def test_null_evolved_by_reads_as_absent():
    assert io.scenario_config_from_json(_config(evolved_by=None)).evolved_by is None


@pytest.mark.parametrize("changes", [
    {"evolved_by": np.eye(2)},
    {"tol": 1e-10},
    {"pipelines": (AgentPipeline("Wanda"), "theo")},
], ids=["evolved_by", "tol", "pipelines"])
def test_mistyped_scenario_config_field_rejected(changes):
    field = next(iter(changes))
    with pytest.raises(InvalidParameterError, match=field):
        dataclasses.replace(random_instance(2, 7, 0.5), **changes)


@dataclasses.dataclass(frozen=True)
class NaNOffDiagonal(Channel):
    """A user's step that returns NaN off the diagonal: the full-rank
    certificate passes such a matrix, so only a finiteness check stops it."""

    dim: int

    def _map(self, r):
        out = r.copy()
        out[0, 1] = out[1, 0] = np.nan
        return out


def test_non_finite_posterior_is_rejected_not_judged():
    steps = (NaNOffDiagonal(2),)
    cfg = ScenarioConfig(np.eye(2) / 2, (AgentPipeline("W", steps), AgentPipeline("T")))
    with pytest.raises(ValueError, match="NaN or Inf"):
        run_scenario(cfg)


@dataclasses.dataclass(frozen=True)
class Mapped(Channel):
    """A user's step that returns ``f(r)``, whatever that is."""

    dim: int
    f: object

    def _map(self, r):
        return self.f(r)


@pytest.mark.parametrize("f", [lambda r: -r, lambda r: np.diag([1.0, -0.2]) @ r],
                         ids=["-rho", "diag(1, -0.2) rho"])
def test_non_psd_posterior_is_rejected_not_judged(f):
    # -rho used to read as incompatible, diag(1, -0.2) rho as a NotPSDError pooling payload
    prior = np.array([[0.6, 0.1], [0.1, 0.4]])
    step = Mapped(2, f)
    cfg = ScenarioConfig(prior, (AgentPipeline("T"), AgentPipeline("W", (step,))))
    with pytest.raises(InvalidParameterError, match="posterior of 'W' is not PSD"):
        run_scenario(cfg)
    with pytest.raises(InvalidParameterError, match="s2 is not PSD"):
        quantum_compatible(prior, step.apply(prior))


def test_posterior_of_another_dim_is_rejected_naming_its_pipeline():
    step = Mapped(2, lambda r: np.eye(3) / 3)  # dim_out is 2, the map's output is not
    cfg = ScenarioConfig(HALF, (AgentPipeline("W", (step,)), AgentPipeline("T")))
    with pytest.raises(DimensionMismatchError, match="pipeline 'W' returns dim 3, not the prior"):
        run_scenario(cfg)


class LouderDepolarizing(DepolarizingChannel):
    """A user's subclass of a named channel: its name would not decode to it."""


class TransposingKraus(KrausChannel):
    """A user's subclass of a Kraus channel that overrides ``_apply``: its
    Kraus list would decode to a plain ``KrausChannel``, which does not."""

    def _apply(self, r):
        return super()._apply(r).T


@pytest.mark.parametrize("step", [NaNOffDiagonal(2), LouderDepolarizing(2, 0.5),
                                  TransposingKraus((np.eye(2),))],
                         ids=["Channel", "DepolarizingChannel", "KrausChannel"])
def test_step_without_a_json_form_is_rejected(step):
    cfg = ScenarioConfig(HALF, (AgentPipeline("W", (step,)), AgentPipeline("T")))
    with pytest.raises(InvalidParameterError, match=f"a {type(step).__name__} step has no JSON"):
        io.scenario_config_to_json(cfg)


@pytest.mark.parametrize("where", ["evolved_by", "step"])
def test_non_unitary_config_matrix_exit_2(tmp_path, capsys, where):
    m = io.matrix_to_json(np.diag([1.0, 0.5]))
    cfg = _config(pool_against_evolved=True, evolved_by=m)
    if where == "step":
        cfg = _config()
        cfg["pipelines"][1]["steps"][0] = {"type": "unitary", "matrix": m}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert "matrix is not unitary" in assert_exit_2(capsys, "scenario-run", str(path))


HYBRID = io.hybrid_to_json(make_hybrid({(0,): HALF / 2, (1,): HALF / 2}))


@pytest.mark.parametrize("field, value, message", [
    ("classical_dims", [2.7], "classical dim 2.7 is not an integer"),
    ("classical_dims", [2.0], "classical dim 2.0 is not an integer"),
    ("classical_dims", [True], "classical dim True is not an integer"),
    ("classical_dims", "2", '"classical_dims" must be a list'),
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
        DepolarizingChannel(2, strength)


@pytest.mark.parametrize("cls, dim, param, message", [
    (DepolarizingChannel, -2, 0.5, "dim -2 < 1"),
    (DepolarizingChannel, 0, 0.5, "dim 0 < 1"),
    (DepolarizingChannel, 2.0, 0.5, "dim 2.0 is not an integer"),
    (DepolarizingChannel, -1, 7.0, "dim -1 < 1"),  # dim before strength
    (DephasingChannel, True, 0.1, "dim True is not an integer"),
    (ReplacementChannel, 1.5, 1, "dim 1.5 is not an integer"),
    (ReplacementChannel, 0, 0, "dim 0 < 1"),  # dim before target
])
def test_closed_form_channel_checks_its_dim(cls, dim, param, message):
    with pytest.raises(InvalidParameterError, match=message):
        cls(dim, param)


def _rejections():
    """(id, call, error class, message regex) of the rejections no other test reaches."""
    a, b = regions.RegionLabel("A", 2), regions.RegionLabel("B", 2)
    quarter = np.eye(2) / 4
    joint = regions.JointState((a, b), np.eye(4) / 4)
    return [
        ("region-dim", lambda: regions.RegionLabel("A", 0), ValueError, "has dim 0 < 1"),
        ("region-kind", lambda: regions.RegionLabel("A", 2, "hybrid"), ValueError,
         "unknown region kind 'hybrid'"),
        ("joint-duplicate-names", lambda: regions.JointState((a, a), np.eye(4) / 4),
         ValueError, r"duplicate region names in \['A', 'A'\]"),
        ("joint-dim", lambda: regions.JointState((a, b), HALF), DimensionMismatchError,
         "operator dim 2 != product of region dims 4"),
        ("joint-trace", lambda: regions.JointState((a,), np.eye(2)), ValueError,
         "normalized joint state has trace 2"),
        ("star-apply-to", lambda: regions.star_product(np.eye(4) / 4, HALF, dims=[2, 2]),
         ValueError, "apply_to is required when dims is given"),
        ("star-shape", lambda: regions.star_product(np.eye(3) / 3, HALF), DimensionMismatchError,
         r"embedded factor shape \(2, 2\) != state shape \(3, 3\)"),
        ("condition-on-int", lambda: regions.condition(joint, 5), InvalidParameterError,
         "^on 5 is not a region name or a list of them$"),
        ("marginalize-none", lambda: regions.marginalize(joint, None), InvalidParameterError,
         "^keep None is not a region name or a list of them$"),
        ("marginalize-unknown", lambda: regions.marginalize(joint, {"C"}), InvalidParameterError,
         r"^unknown region labels \['C'\]$"),
        ("hybrid-outcome", lambda: regions.HybridState((2,), {2: HALF}), ValueError,
         r"outcome \(2,\) out of range for registers \(2,\)"),
        ("hybrid-dims", lambda: regions.HybridState((2,), {0: HALF / 2, 1: np.eye(3) / 6}),
         DimensionMismatchError, "blocks have differing quantum dims"),
        ("hybrid-no-blocks", lambda: regions.HybridState((2,), {}), ValueError,
         "hybrid state needs at least one block"),
        ("hybrid-trace", lambda: regions.HybridState((2,), {0: quarter}), ValueError,
         "hybrid blocks have total trace 0.5, expected 1"),
        ("from-joint-dims", lambda: regions.HybridState.from_joint(np.eye(4) / 4, (2,), 3),
         DimensionMismatchError, r"joint dim != classical x quantum dims"),
        ("make-hybrid-keys", lambda: make_hybrid({0: quarter, (0, 1): quarter}), ValueError,
         "inconsistent outcome tuple lengths"),
        ("make-hybrid-trace", lambda: make_hybrid({0: np.zeros((2, 2))}), ValueError,
         "cannot normalize: total trace is not positive"),
        ("negative-probability", lambda: ProbabilityDistribution((0, 1), [1.5, -0.5]),
         ValueError, "negative probability -0.5"),
        ("negative-conditional", lambda: ConditionalDistribution(
            (0,), (0, 1), [[1.5], [-0.5]]), ValueError, "negative conditional probability"),
        ("column-sums", lambda: ConditionalDistribution((0, 1), (0, 1), [[0.5, 1.0], [0.25, 0.0]]),
         ValueError, "columns must sum to 1"),
        ("statistic-partition", lambda: SufficientStatistic((0, 1, 2), ({0, 1}, {1, 2})),
         ValueError, "classes must partition the outcome set"),
        ("statistic-dims", lambda: quantum_minimal_sufficient_statistic(
            {0: HALF, 1: np.eye(3) / 3}), DimensionMismatchError,
         "likelihood operators have differing dims"),
        ("batch-generator", lambda: batch_report([2], 1, [0.5], 0, generator="haar"),
         InvalidParameterError, "unknown generator 'haar'"),
        ("encode-type", lambda: io.dumps({"x": object()}), TypeError,
         "cannot serialize <class 'object'>"),
        ("embed-dim", lambda: embed(HALF, [2, 3], [1]), DimensionMismatchError,
         "operator dim 2 != product of factor dims 3"),
        ("tensor-nothing", lambda: tensor(), InvalidParameterError,
         "^tensor needs at least one matrix$"),
        ("partial-trace-scalar-dims", lambda: partial_trace(np.eye(4), 4, [0]),
         InvalidParameterError, "^dims 4 is not a list$"),
        ("embed-scalar-dims", lambda: embed(np.eye(2), 2, [0]), InvalidParameterError,
         "^dims 2 is not a list$"),
        ("permute-scalar-perm", lambda: permute_factors(np.eye(4), [2, 2], 0),
         InvalidParameterError, "^perm 0 is not a list$"),
        ("subspace-orthonormal", lambda: Subspace(2, np.array([[1.0], [1.0]])), ValueError,
         "basis columns are not orthonormal"),
    ]


@pytest.mark.parametrize("call, error, message",
                         [pytest.param(*r[1:], id=r[0]) for r in _rejections()])
def test_rejection(call, error, message):
    with pytest.raises(error, match=message):
        call()
