"""One key rule for every JSON object io reads: each required key present,
no key its encoder never writes.

Each row names an object in a document an encoder writes (the conditional
table, which no encoder writes, is the table ``suffstat`` reads).  Adding one
unknown key, or dropping one required key, is MalformedInputError from the
decoder and exit 2 with a ``malformed_input`` payload from the CLI command
that reads the object; no command reads a hybrid state.
"""

import copy
import json

import numpy as np
import pytest

from statepool import io
from statepool.cli import main
from statepool.compatibility import ProbabilityDistribution
from statepool.errors import InvalidParameterError, MalformedInputError
from statepool.regions import make_hybrid
from statepool.scenario import (
    AgentPipeline, DephasingChannel, DepolarizingChannel, KrausChannel, ReplacementChannel,
    ScenarioConfig, UnitaryDynamics, random_instance,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
Z = np.diag([1.0, -1.0])

# every step kind once, and an evolved_by matrix
CONFIG = io.scenario_config_to_json(ScenarioConfig(
    np.diag([0.75, 0.25]),
    (AgentPipeline("Wanda", (UnitaryDynamics(HADAMARD), DepolarizingChannel(2, 0.5),
                             DephasingChannel(2, 0.25))),
     AgentPipeline("Theo", (KrausChannel((np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * Z)),
                            ReplacementChannel(2, 1)))),
    evolved_by=UnitaryDynamics(HADAMARD),
))
MATRIX = io.matrix_to_json(np.eye(2) / 2)
DISTRIBUTION = io.distribution_to_json(ProbabilityDistribution((0, 1), [0.5, 0.5]))
TABLE = {"given_outcomes": [0, 1], "out_outcomes": [0, 1], "table": [[0.2, 0.6], [0.8, 0.4]]}
HYBRID = io.hybrid_to_json(make_hybrid({0: np.eye(2) / 4, 1: np.eye(2) / 4}))
DECODERS = {"matrix": io.matrix_from_json, "distribution": io.distribution_from_json,
            "table": io.conditional_from_json, "hybrid": io.hybrid_from_json,
            "config": io.scenario_config_from_json}
COMMANDS = {"matrix": ("compat-quantum", 2), "distribution": ("compat-classical", 2),
            "table": ("suffstat", 1), "config": ("scenario-run", 1)}
DOCUMENTS = {"matrix": MATRIX, "distribution": DISTRIBUTION, "table": TABLE, "hybrid": HYBRID,
             "config": CONFIG}

# object -> (document, path to the object in it, a required key, an unknown key)
OBJECTS = {
    "matrix": ("matrix", (), "entries", "shape"),
    "distribution": ("distribution", (), "probs", "labels"),
    "conditional table": ("table", (), "table", "given"),
    "hybrid state": ("hybrid", (), "blocks", "quantum_dim"),
    "config": ("config", (), "prior", "rank-tol"),
    "evolved_by": ("config", ("evolved_by",), "dim", "entry"),
    "Wanda's pipeline": ("config", ("pipelines", 0), "steps", "step"),
    "Theo's pipeline": ("config", ("pipelines", 1), "name", "agent"),
    "unitary step": ("config", ("pipelines", 0, "steps", 0), "matrix", "u"),
    "depolarizing step": ("config", ("pipelines", 0, "steps", 1), "strength", "p"),
    "dephasing step": ("config", ("pipelines", 0, "steps", 2), "dim", "dims"),
    "channel step": ("config", ("pipelines", 1, "steps", 0), "kraus", "kraus_ops"),
    "replacement step": ("config", ("pipelines", 1, "steps", 1), "target", "strength"),
}


def changed(name, change):
    """The document holding object ``name``, with one key of that object added or dropped."""
    doc, path, required, unknown = OBJECTS[name]
    out = copy.deepcopy(DOCUMENTS[doc])
    obj = out
    for step in path:
        obj = obj[step]
    assert required in obj and unknown not in obj
    if change == "unknown key":
        obj[unknown] = obj.get(required)
    else:
        del obj[required]
    return doc, out


@pytest.mark.parametrize("change", ["unknown key", "missing key"])
@pytest.mark.parametrize("name", OBJECTS)
def test_key_rule(tmp_path, capsys, name, change):
    doc, bad = changed(name, change)
    with pytest.raises(MalformedInputError, match="must have"):
        DECODERS[doc](bad)
    if doc not in COMMANDS:
        return
    command, n_files = COMMANDS[doc]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(bad))
    assert main([command, *[str(path)] * n_files]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "malformed_input" and "must have" in payload["message"]


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_every_written_document_still_decodes(doc):
    DECODERS[doc](copy.deepcopy(DOCUMENTS[doc]))


def test_misspelled_rank_tol_is_exit_2(tmp_path, capsys):
    # d = 4, seed 3: at rank_tol 0.3 incompatible at rank 0, at the default compatible
    cfg = io.scenario_config_to_json(random_instance(4, 3, 0.5))
    runs = []
    for key in ("rank_tol", "rank-tol"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({k: v for k, v in cfg.items() if k != "rank_tol"} | {key: 0.3}))
        runs.append((main(["scenario-run", str(path)]), json.loads(capsys.readouterr().out)))
    (good_code, good), (bad_code, bad) = runs
    assert (good_code, good["compatible"], good["intersection_rank"]) == (0, False, 0)
    assert bad_code == 2 and bad["error"] == "malformed_input"
    assert '"rank_tol"' in bad["message"]


# object -> (document, path to the field, its wrong-kind value, the kind due)
WRONG_KINDS = {
    "given_outcomes": ("table", ("given_outcomes",), "01", "list"),
    "out_outcomes": ("table", ("out_outcomes",), "ab", "list"),
    "pipelines": ("config", ("pipelines",), {"Wanda": [], "Theo": []}, "list"),
    "steps": ("config", ("pipelines", 0, "steps"), "unitary", "list"),
    "kraus": ("config", ("pipelines", 1, "steps", 0, "kraus"), MATRIX, "list"),
    "name": ("config", ("pipelines", 0, "name"), ["W"], "str"),
}


@pytest.mark.parametrize("key", WRONG_KINDS)
def test_a_field_of_the_wrong_kind_is_exit_2(tmp_path, capsys, key):
    # a string is no list of its characters, a matrix no list of its keys
    doc, path, value, kind = WRONG_KINDS[key]
    bad = copy.deepcopy(DOCUMENTS[doc])
    obj = bad
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value
    message = f'"{key}" must be a {kind}, got {value!r}'
    with pytest.raises(MalformedInputError) as raised:
        DECODERS[doc](bad)
    assert str(raised.value) == message
    command, n_files = COMMANDS[doc]
    (tmp_path / "in.json").write_text(json.dumps(bad))
    assert main([command, *[str(tmp_path / "in.json")] * n_files]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "malformed_input", "message": message}


def test_key_messages_name_the_keys():
    with pytest.raises(MalformedInputError) as raised:
        io.hybrid_from_json(HYBRID | {"quantum_dim": 2})
    assert str(raised.value) == ('hybrid state must have keys "classical_dims" and "blocks", '
                                 'and may also have "outcomes" and "normalized"')
    with pytest.raises(MalformedInputError,
                       match='^unitary step must have exactly keys "type" and "matrix"$'):
        io.scenario_config_from_json(changed("unitary step", "missing key")[1])


@pytest.mark.parametrize("outcomes", [[[1], [0]], [[0]], [[0], [1], [1]], [[True], [1]],
                                      [[0.0], [1.0]], [0, 1], "01"], ids=repr)
def test_hybrid_outcomes_must_be_the_sorted_block_keys(outcomes):
    with pytest.raises(MalformedInputError, match='"outcomes" must list the block keys'):
        io.hybrid_from_json(HYBRID | {"outcomes": outcomes})


def test_hybrid_outcomes_are_compared_after_the_block_keys():
    blocks = {"0_0": HYBRID["blocks"]["0"], "1": HYBRID["blocks"]["1"]}
    with pytest.raises(MalformedInputError, match="not comma-separated ASCII digits"):
        io.hybrid_from_json(HYBRID | {"blocks": blocks, "outcomes": [[5]]})


def test_hybrid_with_numpy_integer_keys_decodes_from_its_encoding():
    h = make_hybrid({np.int64(0): np.eye(2) / 4, np.uint8(1): np.eye(2) / 4})
    assert [type(k) for key in h.blocks for k in key] == [int, int]
    assert sorted(io.hybrid_from_json(io.hybrid_to_json(h)).blocks) == [(0,), (1,)]


def test_hybrid_without_outcomes_still_reads():
    h = io.hybrid_from_json({k: v for k, v in HYBRID.items() if k != "outcomes"})
    assert sorted(h.blocks) == [(0,), (1,)]


def test_malformed_input_is_an_invalid_parameter():
    # cli.main maps exit 2 from this one class
    assert issubclass(MalformedInputError, InvalidParameterError)
