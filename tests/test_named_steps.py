"""Detector channels written into configs by name.

A depolarizing, dephasing or replacement step is written as its type name,
dim and parameter, and read back as the closed-form channel by its class's
constructor (one ``io._STEPS`` row), which checks the parameter, so no Kraus
list is built, checked or applied on the ``randgen`` -> ``scenario-run`` path.
A config that holds the same channels as Kraus lists still reads, and
``scenario-run`` gives the same bytes on both.  Malformed named steps are
in ``test_input_checks.py``.
"""

import json

import pytest

from statepool import io
from statepool.cli import main
from statepool.scenario import (
    DephasingChannel,
    DepolarizingChannel,
    KrausChannel,
    ReplacementChannel,
    UnitaryDynamics,
    _ClosedForm,
    adversarial_instance,
    random_instance,
    run_scenario,
)

from oracles import kraus_list_config

INSTANCES = {
    **{f"random-d{d}-noise{noise}": (random_instance, d, 3, noise)
       for d in (2, 8, 16) for noise in (0.0, 0.5, 1.0)},
    "adversarial-d4": (adversarial_instance, 4, 3),
}


@pytest.fixture(params=sorted(INSTANCES))
def cfg(request):
    make, *args = INSTANCES[request.param]
    return make(*args)


def config_text(cfg):
    return io.dumps(io.scenario_config_to_json(cfg))


def scenario_run(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["scenario-run", str(path)]) == 0
    return capsys.readouterr().out


def test_decode_then_encode_is_byte_identical(cfg):
    text = config_text(cfg)
    assert config_text(io.scenario_config_from_json(json.loads(text))) == text


def test_scenario_run_same_bytes_on_named_and_kraus_list_configs(tmp_path, capsys, cfg):
    in_memory = io.dumps(io.scenario_result_to_json(run_scenario(cfg)))
    assert scenario_run(tmp_path, capsys, config_text(cfg)) == in_memory
    assert scenario_run(tmp_path, capsys, config_text(kraus_list_config(cfg))) == in_memory


def test_schema():
    wanda, theo = io.scenario_config_to_json(random_instance(3, 1, 0.25))["pipelines"]
    assert [s["type"] for s in wanda["steps"]] == ["unitary", "dephasing"]
    assert wanda["steps"][1] == {"type": "dephasing", "dim": 3, "strength": 0.25}
    assert theo["steps"][1] == {"type": "depolarizing", "dim": 3, "strength": 0.25}
    steps = [p["steps"] for p in io.scenario_config_to_json(adversarial_instance(3, 1))["pipelines"]]
    assert steps == [[{"type": "replacement", "dim": 3, "target": 0}],
                     [{"type": "replacement", "dim": 3, "target": 1}]]


def test_named_steps_decode_to_closed_form_channels():
    cfg = io.scenario_config_from_json(io.scenario_config_to_json(random_instance(3, 1, 0.25)))
    wanda, theo = (p.steps for p in cfg.pipelines)
    assert type(wanda[0]) is UnitaryDynamics and wanda[1] == DephasingChannel(3, 0.25)
    assert type(theo[0]) is UnitaryDynamics and theo[1] == DepolarizingChannel(3, 0.25)
    cfg = io.scenario_config_from_json(io.scenario_config_to_json(adversarial_instance(3, 1)))
    assert [p.steps for p in cfg.pipelines] == [(ReplacementChannel(3, 0),),
                                                 (ReplacementChannel(3, 1),)]


def test_kraus_list_step_still_decodes_to_kraus_channel():
    obj = io.scenario_config_to_json(kraus_list_config(random_instance(2, 1, 0.5)))
    assert [s["type"] for p in obj["pipelines"] for s in p["steps"]] == [
        "unitary", "channel", "unitary", "channel"]
    for p in io.scenario_config_from_json(obj).pipelines:
        assert type(p.steps[1]) is KrausChannel


def test_integer_strength_reads():
    text = config_text(random_instance(2, 1, 1.0))
    assert '"strength": 1}' in text  # 1.0 and 0.0 print as "1" and "0"
    obj = json.loads(text)
    obj["pipelines"][0]["steps"][1]["strength"] = 0
    cfg = io.scenario_config_from_json(obj)
    assert cfg.pipelines[0].steps[1] == DephasingChannel(2, 0.0)
    assert '"strength": 0}' in config_text(cfg)


@pytest.mark.parametrize("argv", [
    ("--dim", "16", "--noise", "0.5"),
    ("--dim", "8", "--noise", "1"),
    ("--dim", "64", "--noise", "0.5"),
])
def test_kraus_list_never_built_from_randgen_to_scenario_run(tmp_path, capsys, argv):
    cfg = str(tmp_path / "cfg.json")
    assert main(["randgen", *argv, "--seed", "5", "--output", cfg]) == 0
    with open(cfg, encoding="utf-8") as fh:
        decoded = io.scenario_config_from_json(json.load(fh))
    for step in (s for p in decoded.pipelines for s in p.steps):
        assert isinstance(step, (UnitaryDynamics, _ClosedForm))
        assert not hasattr(step, "kraus_ops")
    assert main(["scenario-run", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["compatible"] is True
    assert scenario_run(tmp_path, capsys, config_text(adversarial_instance(4, 5)))


def test_d16_config_holds_three_matrices(capsys):
    assert main(["randgen", "--dim", "16", "--noise", "0.5", "--seed", "101"]) == 0
    text = capsys.readouterr().out
    assert text.count('"entries"') == 3 and '"kraus"' not in text
    assert len(text) < 40_000
