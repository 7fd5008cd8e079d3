"""Every public value class answers ``==``, ``!=``, ``hash`` and ``in``.

A class that holds an array compares by identity, since numpy cannot say
whether two arrays are one value; a class of scalars and tuples of them
compares by value."""

import dataclasses

import numpy as np
import pytest

import statepool
from statepool import (
    AgentPipeline, ConditionalDistribution, DephasingChannel, DepolarizingChannel, JointState,
    KrausChannel, ProbabilityDistribution, RegionLabel, ReplacementChannel, Subspace,
    SufficientStatistic, Tolerances, UnitaryDynamics, classical_compatible, classical_pool,
    condition, make_hybrid, quantum_pool, random_instance, run_scenario,
)
from statepool.compatibility import _support_verdict
from statepool.linalg import Spectrum

HALF = np.eye(2) / 2
JOINT = JointState((RegionLabel("A", 2), RegionLabel("B", 2)), np.eye(4) / 4)
Q = ProbabilityDistribution(("a", "b"), [0.5, 0.5])

# class name -> (a call that builds one, whether two built alike are equal)
MAKERS = {
    "Subspace": (lambda: Subspace.full(3), False),
    "Spectrum": (lambda: Spectrum.of(HALF), False),
    "Tolerances": (lambda: Tolerances(), True),
    "RegionLabel": (lambda: RegionLabel("A", 2), True),
    "JointState": (lambda: JointState((RegionLabel("A", 2),), HALF), False),
    "ConditionalState": (lambda: condition(JOINT, "B"), False),
    "HybridState": (lambda: make_hybrid({0: HALF}), False),
    "ProbabilityDistribution": (lambda: ProbabilityDistribution(("a", "b"), [0.5, 0.5]), False),
    "ConditionalDistribution": (lambda: ConditionalDistribution((0, 1), ("x", "y"), np.eye(2)),
                                False),
    "CompatibilityVerdict": (lambda: classical_compatible(Q, Q), True),
    "CompatibilityVerdict, quantum": (
        lambda: _support_verdict(Subspace.full(2), Subspace.full(2)), False),
    "PoolingReport": (lambda: classical_pool(Q, Q, Q), False),
    "PoolingReport, quantum": (lambda: quantum_pool(HALF, HALF, HALF), False),
    "SufficientStatistic": (lambda: SufficientStatistic((0, 1), ({0, 1},)), True),
    "KrausChannel": (lambda: KrausChannel((np.eye(2),)), False),
    "UnitaryDynamics": (lambda: UnitaryDynamics(np.eye(2)), False),
    "DepolarizingChannel": (lambda: DepolarizingChannel(2, 0.5), True),
    "DephasingChannel": (lambda: DephasingChannel(2, 0.5), True),
    "ReplacementChannel": (lambda: ReplacementChannel(2, 0), True),
    "AgentPipeline": (lambda: AgentPipeline("a", (DephasingChannel(2, 0.5),)), True),
    "ScenarioConfig": (lambda: random_instance(2, 1), False),
    "ScenarioResult": (lambda: run_scenario(random_instance(2, 1)), False),
}


def test_every_public_value_class_is_covered():
    public = {name for name, v in vars(statepool).items()
              if isinstance(v, type) and dataclasses.is_dataclass(v)}
    assert public <= MAKERS.keys()


@pytest.mark.parametrize("name", MAKERS)
def test_equality_hash_and_membership_return(name):
    make, by_value = MAKERS[name]
    a, b = make(), make()
    assert type(a).__name__ == name.split(",")[0]
    assert a == a and not a != a
    assert (a == b) is by_value and (a != b) is not by_value
    assert hash(a) == hash(a) and (hash(a) == hash(b)) is by_value
    assert a in [a] and a in {a} and (a in [b]) is by_value and (a in {b}) is by_value

