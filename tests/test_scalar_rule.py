"""One rule for scalar arguments, ``linalg._integer`` and ``linalg._real``,
at every entry point that takes a dim, an index, a seed, a count, a
strength, a noise weight, a tolerance or a probability.

A bool, a string, None, a float where an integer is due and an integer
beyond float range are each InvalidParameterError: never a TypeError from a
comparison, and never a result computed from a truncated or coerced value
(``partial_trace(rho, [2.9, 2], [0])`` once ran on dims [2, 2]).  The CLI
reports such entries of a JSON distribution or table as exit 2.
"""

import dataclasses
import json

import numpy as np
import pytest

from statepool.cli import main
from statepool.compatibility import (
    ConditionalDistribution, ProbabilityDistribution, classical_bayes_posterior,
    verify_objective_classical, verify_objective_quantum, verify_subjective_classical,
)
from statepool.errors import InvalidParameterError
from statepool.linalg import (
    Spectrum, Tolerances, check_hermitian, embed, partial_trace, permute_factors, support_projector,
)
from statepool.regions import HybridState, RegionLabel, make_hybrid
from statepool.scenario import (
    AgentPipeline, DephasingChannel, DepolarizingChannel, ReplacementChannel, ScenarioConfig,
    adversarial_instance, batch_report, random_instance,
)

HALF = np.eye(2) / 2
RHO4 = np.eye(4) / 4
Q = ProbabilityDistribution((0, 1), [0.5, 0.5])
COND = ConditionalDistribution((0, 1), (0, 1), [[0.2, 0.6], [0.8, 0.4]])
JOINT = np.full((2, 2, 2), 1 / 8)
HYBRID = make_hybrid({(0, 0): HALF, (1, 1): HALF})

# entry point -> the call with the scalar under test as ``v``
INTEGER_SLOTS = {
    "partial_trace dims": lambda v: partial_trace(RHO4, [v, 2], [0]),
    "partial_trace keep": lambda v: partial_trace(RHO4, [2, 2], [v]),
    "permute_factors dims": lambda v: permute_factors(RHO4, [v, 2], [1, 0]),
    "permute_factors perm": lambda v: permute_factors(RHO4, [2, 2], [v, 0]),
    "embed dims": lambda v: embed(HALF, [v, 2], [0]),
    "embed positions": lambda v: embed(HALF, [2, 2], [v]),
    "RegionLabel dim": lambda v: RegionLabel("A", v),
    "HybridState classical dim": lambda v: HybridState((v,), {(0,): HALF}),
    "HybridState outcome": lambda v: HybridState((2,), {(v,): HALF}),
    "from_joint classical dim": lambda v: HybridState.from_joint(HALF, (v,), 1),
    "from_joint quantum dim": lambda v: HybridState.from_joint(HALF, (2,), v),
    "DepolarizingChannel dim": lambda v: DepolarizingChannel(v, 0.5),
    "DephasingChannel dim": lambda v: DephasingChannel(v, 0.5),
    "ReplacementChannel dim": lambda v: ReplacementChannel(v, 0),
    "ReplacementChannel target": lambda v: ReplacementChannel(2, v),
    "random_instance dim": lambda v: random_instance(v, 0),
    "random_instance seed": lambda v: random_instance(2, v),
    "adversarial_instance dim": lambda v: adversarial_instance(v, 0),
    "adversarial_instance seed": lambda v: adversarial_instance(2, v),
    "batch_report dim": lambda v: batch_report([v], 1, [0.5], 0),
    "batch_report count": lambda v: batch_report([2], v, [0.5], 0),
    "batch_report seed": lambda v: batch_report([2], 1, [0.5], v),
    "ScenarioConfig seed": lambda v: ScenarioConfig(HALF, (AgentPipeline("W"), AgentPipeline("T")),
                                                    seed=v),
    "verify_objective_classical x1": lambda v: verify_objective_classical(Q, Q, JOINT, v, 0),
    "verify_objective_classical x2": lambda v: verify_objective_classical(Q, Q, JOINT, 0, v),
    "verify_objective_quantum x1": lambda v: verify_objective_quantum(HALF, HALF, HYBRID, v, 0),
    "verify_objective_quantum x2": lambda v: verify_objective_quantum(HALF, HALF, HYBRID, 0, v),
    "classical_bayes_posterior x": lambda v: classical_bayes_posterior(Q, COND, v),
    "verify_subjective_classical x_tilde": lambda v: verify_subjective_classical(Q, Q, COND, v),
}

REAL_SLOTS = {
    "Tolerances rank_tol": lambda v: Tolerances(rank_tol=v),
    "Tolerances herm_tol": lambda v: Tolerances(herm_tol=v),
    "support_projector rank_tol": lambda v: support_projector(HALF, v),
    "Spectrum.of rank_tol": lambda v: Spectrum.of(HALF, v),
    "check_hermitian herm_tol": lambda v: check_hermitian(HALF, "m", v),
    "DepolarizingChannel strength": lambda v: DepolarizingChannel(2, v),
    "DephasingChannel strength": lambda v: DephasingChannel(2, v),
    "random_instance noise": lambda v: random_instance(2, 0, v),
    "batch_report noise": lambda v: batch_report([2], 1, [v], 0),
    "adversarial batch_report noise": lambda v: batch_report([2], 1, [v], 0, "adversarial"),
    "ProbabilityDistribution entry": lambda v: ProbabilityDistribution((0, 1), [v, 0.5]),
    "ConditionalDistribution entry": lambda v: ConditionalDistribution((0,), (0, 1),
                                                                       [[v], [0.5]]),
    "verify_objective_classical joint entry": lambda v: verify_objective_classical(
        Q, Q, [[[v]], [[0.5]]], 0, 0),
}

NOT_REAL = {"True": True, "False": False, "str": "1", "None": None, "np.bool_": np.bool_(True),
            "10**400": 10**400}
NOT_INTEGER = NOT_REAL | {"float": 1.0, "float64": np.float64(2.0), "2.5": 2.5}


@pytest.mark.parametrize("value", NOT_INTEGER.values(), ids=NOT_INTEGER)
@pytest.mark.parametrize("call", INTEGER_SLOTS.values(), ids=INTEGER_SLOTS)
def test_integer_slot_rejects(call, value):
    with pytest.raises(InvalidParameterError, match="is not an integer|beyond float range"):
        call(value)


@pytest.mark.parametrize("value", NOT_REAL.values(), ids=NOT_REAL)
@pytest.mark.parametrize("call", REAL_SLOTS.values(), ids=REAL_SLOTS)
def test_real_slot_rejects(call, value):
    with pytest.raises(InvalidParameterError, match="is not a real number|beyond float range"):
        call(value)


@pytest.mark.parametrize("call", [
    lambda: partial_trace(RHO4, [np.int64(2), np.uint8(2)], [np.int32(1)]),
    lambda: embed(HALF, [np.int64(2), 2], [np.int16(1)]),
    lambda: permute_factors(RHO4, [2, np.int64(2)], [np.int8(1), 0]),
    lambda: RegionLabel("A", np.int64(3)),
    lambda: HybridState((np.int64(2),), {(np.int64(1),): HALF}),
    lambda: Tolerances(np.float32(0.25), np.int64(1)),
    lambda: DephasingChannel(np.uint8(2), np.float16(0.5)),
    lambda: ProbabilityDistribution((0, 1), np.array([1, 0], dtype=np.uint8)),
    lambda: ProbabilityDistribution((0, 1), [np.float32(0.5), 0.5]),
], ids=["partial_trace", "embed", "permute_factors", "RegionLabel", "HybridState", "Tolerances",
        "DephasingChannel", "uint8 probs", "float32 prob"])
def test_numpy_scalars_accepted(call):
    call()


def test_integer_slots_agree_with_python_ints():
    assert np.array_equal(partial_trace(RHO4, [np.int64(2), 2], [np.int8(0)]),
                          partial_trace(RHO4, [2, 2], [0]))
    assert Tolerances(np.float32(0.25), 1) == Tolerances(0.25, 1.0)
    assert type(Tolerances(0, 1).rank_tol) is float and type(Tolerances(0, 1).herm_tol) is float


def test_integer_within_float_range_is_a_seed():
    assert dataclasses.replace(random_instance(2, 7, 0.5), seed=2**70).seed == 2**70


# --- the same rule for a JSON distribution or conditional table -----------

BAD_ENTRIES = {"str": ["0.5", 0.5], "true": [True, 0], "true among numbers": [0.25, 0.75, True],
               "null": [None, 1.0], "nested": [[0.5], 0.5]}


def assert_exit_2(capsys, *argv):
    code = main(list(map(str, argv)))
    out = json.loads(capsys.readouterr().out)
    assert (code, out["error"]) == (2, "malformed_input"), out
    return out["message"]


def write(tmp_path, name, obj):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("probs", BAD_ENTRIES.values(), ids=BAD_ENTRIES)
def test_distribution_entry_exit_2(tmp_path, capsys, probs):
    good = write(tmp_path, "good", {"outcomes": list(range(len(probs))),
                                    "probs": [1.0] + [0.0] * (len(probs) - 1)})
    bad = write(tmp_path, "bad", {"outcomes": list(range(len(probs))), "probs": probs})
    assert "not a real number" in assert_exit_2(capsys, "compat-classical", good, bad)
    assert "not a real number" in assert_exit_2(capsys, "pool-classical", good, good, bad)
    assert "not a real number" in assert_exit_2(capsys, "pool-classical", bad, good, good)


@pytest.mark.parametrize("table", [
    [["1", 0], [0, 1]], [[1, 0], [0, True]], [["1", 0], [0, True]], [[0.5, None], [0.5, 1.0]],
], ids=["str", "true among numbers", "str and true", "null"])
def test_conditional_table_entry_exit_2(tmp_path, capsys, table):
    path = write(tmp_path, "table", {"given_outcomes": [0, 1], "out_outcomes": [0, 1],
                                     "table": table})
    assert "not a real number" in assert_exit_2(capsys, "suffstat", path)


def test_numeric_json_tables_still_read(tmp_path, capsys):
    path = write(tmp_path, "table", {"given_outcomes": [0, 1], "out_outcomes": [0, 1],
                                     "table": [[1, 0.25], [0, 0.75]]})
    assert main(["suffstat", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"classes": [[0], [1]]}
