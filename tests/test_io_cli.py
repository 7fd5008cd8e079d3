import argparse
import hashlib
import json
import os
import subprocess
import sys
from io import BytesIO, StringIO, TextIOWrapper
from pathlib import Path

import numpy as np
import pytest

from statepool import cli, io
from statepool.cli import main
from statepool.compatibility import ProbabilityDistribution, classical_compatible, quantum_compatible
from statepool.errors import DimensionMismatchError
from statepool.io import MalformedInputError
from statepool.linalg import max_norm
from statepool.regions import make_hybrid
from statepool.scenario import (
    AgentPipeline, KrausChannel, ScenarioConfig, random_instance, run_scenario,
)

from oracles import DIAGONAL_SUPPORT_CASES, kraus_list_config, rand_density, rand_psd

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: Python < 3.10.7


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestMatrixJson:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        m = rand_density(rng, 4)
        back = io.matrix_from_json(json.loads(io.dumps(io.matrix_to_json(m))))
        assert max_norm(back - m) == 0.0

    @pytest.mark.parametrize("bad", [
        {"dim": 2},
        {"dim": 2, "entries": [[1, 0]] * 3},
        {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], ["x", 0]]},
        {"dim": 0, "entries": []},
        {"dim": 2, "entries": [[1, 0]] * 4, "extra": 1},
    ])
    def test_shape_enforced(self, bad):
        with pytest.raises(MalformedInputError):
            io.matrix_from_json(bad)

    def test_seventeen_digit_floats(self):
        text = io.dumps(io.matrix_to_json(np.array([[1 / 3]])))
        assert "0.33333333333333331" in text


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2), ()])
def test_matrix_to_json_rejects_a_non_square_array(shape):
    with pytest.raises(DimensionMismatchError, match="not square"):
        io.matrix_to_json(np.ones(shape))


def test_config_with_a_non_square_kraus_operator_is_not_written():
    # a 2 -> 3 -> 2 pipeline runs, but the config schema has one "dim" per matrix
    embed = KrausChannel((np.eye(3)[:, :2],))
    fold = KrausChannel((np.eye(3)[:2, :], np.outer([1.0, 0.0], [0.0, 0.0, 1.0])))
    cfg = ScenarioConfig(np.eye(2) / 2, (AgentPipeline("W", (embed, fold)), AgentPipeline("T")))
    run_scenario(cfg)
    with pytest.raises(DimensionMismatchError, match=r"shape \(3, 2\)"):
        io.scenario_config_to_json(cfg)


def test_distribution_round_trip():
    p = ProbabilityDistribution(("a", "b"), [0.25, 0.75])
    back = io.distribution_from_json(json.loads(io.dumps(io.distribution_to_json(p))))
    assert back.outcomes == ("a", "b")
    assert np.all(back.probs == p.probs)


def test_hybrid_round_trip():
    rng = np.random.default_rng(1)
    h = make_hybrid({(0, 1): rand_psd(rng, 2), (1, 0): rand_psd(rng, 2)})
    back = io.hybrid_from_json(json.loads(io.dumps(io.hybrid_to_json(h))))
    assert back.classical_dims == h.classical_dims
    for key in h.blocks:
        assert max_norm(back.block(key) - h.block(key)) == 0.0


def test_scenario_config_round_trip_reproduces_results():
    from statepool.scenario import run_scenario

    cfg = random_instance(3, 7, 0.4)
    back = io.scenario_config_from_json(json.loads(io.dumps(io.scenario_config_to_json(cfg))))
    a = run_scenario(cfg)
    b = run_scenario(back)
    assert max_norm(a.sigma1 - b.sigma1) == 0.0
    assert io.dumps(io.scenario_result_to_json(a)) == io.dumps(io.scenario_result_to_json(b))


def test_verdict_to_json():
    classical = classical_compatible(ProbabilityDistribution((0, 1, 2), np.array([0.5, 0.5, 0.0])),
                                     ProbabilityDistribution((0, 1, 2), np.array([0.0, 0.5, 0.5])))
    assert io.verdict_to_json(classical) == {
        "compatible": True, "intersection_rank": 1, "diagnostics": "shared support [1]",
        "shared_outcomes": [1]}
    quantum = quantum_compatible(np.diag([1.0, 0.0]), np.eye(2) / 2)
    assert list(io.verdict_to_json(quantum)) == ["compatible", "intersection_rank", "diagnostics"]
    res = run_scenario(random_instance(2, 7, 0.5))
    assert list(io.scenario_result_to_json(res))[2:5] == list(io.verdict_to_json(res.verdict))


class TestCli:
    def test_compat_quantum_orthogonal(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", io.matrix_to_json(np.diag([1.0, 0.0])))
        b = write_json(tmp_path / "b.json", io.matrix_to_json(np.diag([0.0, 1.0])))
        code, out = run_cli(capsys, "compat-quantum", a, b)
        assert code == 1
        payload = json.loads(out)
        assert payload["compatible"] is False
        assert payload["intersection_rank"] == 0

    def test_compat_quantum_compatible(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", io.matrix_to_json(np.eye(2) / 2))
        b = write_json(tmp_path / "b.json", io.matrix_to_json(np.diag([1.0, 0.0])))
        code, out = run_cli(capsys, "compat-quantum", a, b)
        assert code == 0
        assert json.loads(out)["compatible"] is True

    def test_compat_classical(self, tmp_path, capsys):
        q1 = write_json(tmp_path / "q1.json", {"outcomes": [0, 1], "probs": [1.0, 0.0]})
        q2 = write_json(tmp_path / "q2.json", {"outcomes": [0, 1], "probs": [0.0, 1.0]})
        code, out = run_cli(capsys, "compat-classical", q1, q2)
        assert code == 1 and json.loads(out)["compatible"] is False

    def test_pool_quantum_fixed_point(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        rho = rand_density(rng, 2)
        p = write_json(tmp_path / "p.json", io.matrix_to_json(rho))
        code, out = run_cli(capsys, "pool-quantum", p, p, p)
        assert code == 0
        payload = json.loads(out)
        pooled = io.matrix_from_json(payload["pooled"])
        assert max_norm(pooled - rho) < 1e-10
        assert payload["normalization_c"] == pytest.approx(1.0)

    def test_pool_quantum_incompatible_error_json(self, tmp_path, capsys):
        p = write_json(tmp_path / "p.json", io.matrix_to_json(np.eye(2) / 2))
        a = write_json(tmp_path / "a.json", io.matrix_to_json(np.diag([1.0, 0.0])))
        b = write_json(tmp_path / "b.json", io.matrix_to_json(np.diag([0.0, 1.0])))
        code, out = run_cli(capsys, "pool-quantum", p, a, b)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "IncompatibleAssignmentsError"

    def test_pool_classical(self, tmp_path, capsys):
        prior = write_json(tmp_path / "pr.json", {"outcomes": [0, 1], "probs": [0.5, 0.5]})
        q1 = write_json(tmp_path / "q1.json", {"outcomes": [0, 1], "probs": [0.5, 0.5]})
        q2 = write_json(tmp_path / "q2.json", {"outcomes": [0, 1], "probs": [0.8, 0.2]})
        code, out = run_cli(capsys, "pool-classical", prior, q1, q2)
        assert code == 0
        assert json.loads(out)["pooled"]["probs"] == [0.8, 0.2]

    @pytest.mark.parametrize("prior, q1, q2, error, compatible", DIAGONAL_SUPPORT_CASES)
    def test_classical_commands_follow_the_diagonal_case(self, tmp_path, capsys, prior, q1, q2,
                                                         error, compatible):
        files = [write_json(tmp_path / f"{name}.json", {"outcomes": [0, 1, 2], "probs": p})
                 for name, p in (("prior", prior), ("q1", q1), ("q2", q2))]
        code, out = run_cli(capsys, "pool-classical", *files)
        assert (code, json.loads(out)["error"]) == (1, error.__name__)
        code, out = run_cli(capsys, "compat-classical", *files[1:])
        assert (code, json.loads(out)["compatible"]) == (0 if compatible else 1, compatible)

    @pytest.mark.parametrize("command", ["compat-classical", "pool-classical"])
    def test_classical_different_outcome_sets_exit_2(self, tmp_path, capsys, command):
        a = write_json(tmp_path / "a.json", {"outcomes": [0, 1], "probs": [0.5, 0.5]})
        b = write_json(tmp_path / "b.json", {"outcomes": [0, 2], "probs": [0.5, 0.5]})
        argv = (a, a, b) if command == "pool-classical" else (a, b)
        code, out = run_cli(capsys, command, *argv)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "malformed_input"
        assert "different outcome sets" in payload["message"]

    def test_suffstat(self, tmp_path, capsys):
        table = write_json(tmp_path / "t.json", {
            "given_outcomes": [0, 1],
            "out_outcomes": [0, 1, 2],
            "table": [[0.2, 0.4], [0.1, 0.2], [0.7, 0.4]],
        })
        code, out = run_cli(capsys, "suffstat", table)
        assert code == 0
        assert json.loads(out)["classes"] == [[0, 1], [2]]

    def test_scenario_run(self, tmp_path, capsys):
        cfg = io.scenario_config_to_json(random_instance(2, 3, 0.5))
        path = write_json(tmp_path / "cfg.json", cfg)
        code, out = run_cli(capsys, "scenario-run", path)
        assert code == 0
        payload = json.loads(out)
        assert "compatible" in payload and "sigma1" in payload

    def test_scenario_batch_byte_identical(self, capsys):
        code1, out1 = run_cli(capsys, "scenario-batch", "--dim", "2", "--count", "20",
                              "--seed", "7")
        code2, out2 = run_cli(capsys, "scenario-batch", "--dim", "2", "--count", "20",
                              "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_randgen_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "randgen", "--dim", "2", "--seed", "9")
        _, out2 = run_cli(capsys, "randgen", "--dim", "2", "--seed", "9")
        assert out1 == out2

    def test_randgen_golden_bytes(self, capsys):
        # The detector channels go by name and strength.
        code, out = run_cli(capsys, "randgen", "--dim", "4", "--noise", "0.5", "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0ac67404113170f66e67f1678460b33872492616a8fa0c3c6f32994cc3b3db31"
        )

    def test_kraus_list_config_golden_bytes(self):
        # Output of the explicit-Kraus-list implementation: the closed-form
        # channels still export exactly the same Kraus lists.
        out = io.dumps(io.scenario_config_to_json(kraus_list_config(random_instance(4, 7, 0.5))))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1b9534e6ba43ef311b0a5605e27d3114efa17152c91121f48c399d2476771e46"
        )

    @pytest.mark.parametrize("argv", [
        ("scenario-batch", "--count", "0"),
        ("scenario-batch", "--dim", "1"),
        ("randgen", "--dim", "1"),
        ("randgen", "--noise", "2"),
        ("randgen", "--noise", "-0.5"),
    ])
    def test_out_of_range_argument_exit_2(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "malformed_input"

    def test_malformed_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = run_cli(capsys, "compat-quantum", str(bad), str(bad))
        assert code == 2
        assert json.loads(out)["error"] == "malformed_input"

    def test_scenario_run_reads_stdin(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cfg.json"
        assert main(["randgen", "--dim", "2", "--seed", "0", "--output", str(path)]) == 0
        want = run_cli(capsys, "scenario-run", str(path))
        monkeypatch.setattr("sys.stdin", StringIO(path.read_text()))
        assert run_cli(capsys, "scenario-run", "-") == want
        assert want[0] == 0

    def test_non_json_on_stdin_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", StringIO("{not json"))
        code, out = run_cli(capsys, "scenario-run", "-")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "malformed_input" and payload["message"].startswith("-: ")

    @pytest.mark.parametrize("bad", [
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"1" * (DIGIT_LIMIT + 1), id="int-beyond-digit-limit",
                     marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer digit limit")),
    ])
    @pytest.mark.parametrize("command, n_files", [
        ("scenario-run", 1), ("compat-quantum", 2), ("pool-classical", 3), ("suffstat", 1),
    ])
    @pytest.mark.parametrize("via_stdin", [False, True], ids=["file", "stdin"])
    def test_undecodable_input_exit_2(self, tmp_path, capsys, monkeypatch, bad, command, n_files,
                                      via_stdin):
        path = tmp_path / "bad.json"
        path.write_bytes(bad)
        paths = [str(path)] * n_files
        if via_stdin:  # strict UTF-8, as sys.stdin is outside the POSIX locale
            monkeypatch.setattr("sys.stdin", TextIOWrapper(BytesIO(bad), encoding="utf-8"))
            paths[0] = "-"
        code, out = run_cli(capsys, command, *paths)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "malformed_input"
        assert payload["message"].startswith(f"{paths[0]}: ")

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, where):
        target = str(tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path)
        code, out = run_cli(capsys, "randgen", "--output", target)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "malformed_input"
        assert payload["message"].startswith(f"{target}: ")

    def test_output_to_file(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", io.matrix_to_json(np.eye(2) / 2))
        out_path = tmp_path / "out.json"
        code, _ = run_cli(capsys, "compat-quantum", a, a, "--output", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["compatible"] is True


def _first_steps(cfg, *steps):
    cfg["pipelines"][0]["steps"] = list(steps)


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: cfg["pipelines"][0]["steps"][0].pop("type"),
     'pipeline step needs a "type" field'),
    (lambda cfg: _first_steps(cfg, {"type": "channel", "kraus": []}),
     "bad scenario config: a channel needs at least one Kraus operator"),
    (lambda cfg: _first_steps(cfg, {"type": "channel", "kraus": [
        io.matrix_to_json(np.eye(2)), io.matrix_to_json(np.eye(1))]}),
     "bad scenario config: Kraus operators have inconsistent shapes"),
    (lambda cfg: cfg["pipelines"].append(cfg["pipelines"][0]),
     "bad scenario config: exactly two agent pipelines required, got 3"),
], ids=["step without type", "no Kraus operator", "Kraus operators of two shapes",
        "three pipelines"])
def test_config_rejections_exit_2(tmp_path, capsys, edit, message):
    code, config = run_cli(capsys, "randgen", "--dim", "2", "--seed", "0")
    assert code == 0
    cfg = json.loads(config)
    edit(cfg)
    code, out = run_cli(capsys, "scenario-run", write_json(tmp_path / "cfg.json", cfg))
    assert (code, json.loads(out)) == (2, {"error": "malformed_input", "message": message})


def test_config_cut_inside_its_first_matrix_exit_2(tmp_path, capsys):
    # a d = 32 prior holds enough pairs for the reader to look for "entries", and its
    # span has no "]]": the reader reads nothing, and json.loads' message is reported
    code, config = run_cli(capsys, "randgen", "--dim", "32", "--seed", "0")
    assert code == 0
    cut = config[:config.index("]]")]
    assert io._spans(cut, np.frombuffer(cut.encode("ascii"), np.uint8)) == []
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(cut)
    path = tmp_path / "cfg.json"
    path.write_text(cut)
    code, out = run_cli(capsys, "scenario-run", str(path))
    assert (code, json.loads(out)) == (2, {"error": "malformed_input",
                                           "message": f"{path}: {exc.value}"})


def test_shared_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    """One parser serves every ``main`` call: valid runs, usage errors and
    --help give the same bytes in any order, and it is built only once."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(io.dumps(io.scenario_config_to_json(random_instance(2, 3, 0.5))))
    argvs = [
        ("randgen", "--dim", "3", "--seed", "5"),
        ("scenario-run", str(cfg), "--rank-tol", "1e-9"),
        ("scenario-run", str(cfg)),
        ("scenario-batch",),  # every default, --dim and --noise included
        ("scenario-batch", "--dim", "2", "--count", "100", "--noise", "0.5", "--seed", "0"),
        ("scenario-batch", "--dim", "2", "3", "--count", "2", "--noise", "0", "1",
         "--generator", "adversarial"),
        ("randgen", "--bogus"),
        ("no-such-command",),
        ("scenario-batch", "--generator", "bogus"),
        ("randgen", "--dim", "1"),
        ("--help",),
        ("scenario-batch", "--help"),
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser()
    per_build = len(built)  # the top-level parser and one per subcommand
    built.clear()
    cli._shared_parser.cache_clear()

    forward = {argv: run_cli(capsys, *argv) for argv in argvs}
    backward = {argv: run_cli(capsys, *argv) for argv in reversed(argvs)}
    assert forward == backward
    assert len(built) == per_build
    assert [forward[argv][0] for argv in argvs] == [0] * 6 + [2] * 4 + [0] * 2
    assert forward[argvs[3]] == forward[argvs[4]]
    assert forward[("--help",)][1] == cli.build_parser().format_help()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [
    ("randgen", "--dim", "2", "--noise", "0.5"),  # fits the stdout buffer: fails at the flush
    ("randgen", "--dim", "64", "--noise", "0.5"),  # fails in the write
    ("randgen", "--dim", "1"),  # the malformed-input payload cannot be written either
    ("scenario-batch", "--dim", "2", "--count", "1", "--seed", "1"),
    ("--help",),
    ("scenario-batch", "--help"),
], ids=["d2", "d64", "bad-dim", "batch", "help", "batch-help"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_stdout_exit_2(argv, unbuffered):
    """A write to a full stdout is exit 2, with no traceback and no
    "Exception ignored" report from the interpreter's exit flush, whether
    stdout is buffered or written through (PYTHONUNBUFFERED)."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-X", "dev", "-m", "statepool.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "")
