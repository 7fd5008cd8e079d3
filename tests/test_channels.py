"""Closed-form noise channels against their explicit Kraus lists, and the channel protocol."""

import re

import numpy as np
import pytest

from statepool.errors import DimensionMismatchError, InvalidParameterError
from statepool.linalg import as_matrix, max_norm
from statepool.scenario import (
    AgentPipeline,
    Channel,
    DephasingChannel,
    DepolarizingChannel,
    KrausChannel,
    ReplacementChannel,
    ScenarioConfig,
    UnitaryDynamics,
    batch_report,
    random_instance,
    run_scenario,
)

from oracles import (
    explicit_dephasing, explicit_depolarizing, explicit_replacement, rand_density, rand_unitary,
)

DIMS = (2, 3, 8)
STRENGTHS = (0.0, 0.3, 1.0)


def textbook(kind, dim, x, r):
    """The channel's defining formula, symmetrized like every channel output."""
    tr = np.trace(r)
    if kind == "depolarizing":
        out = (1 - x) * r + x * tr * np.eye(dim) / dim
    elif kind == "dephasing":
        out = (1 - x) * r + x * np.diag(np.diag(r))
    else:
        out = np.zeros((dim, dim), complex)
        out[x, x] = tr
    return (out + out.conj().T) / 2


CASES = (
    [("depolarizing", d, p) for d in DIMS for p in STRENGTHS]
    + [("dephasing", d, p) for d in DIMS for p in STRENGTHS]
    + [("replacement", d, t) for d in DIMS for t in (0, d - 1)]
)
BUILD = {
    "depolarizing": (DepolarizingChannel, explicit_depolarizing),
    "dephasing": (DephasingChannel, explicit_dephasing),
    "replacement": (ReplacementChannel, explicit_replacement),
}


def inputs(dim, seed):
    """A density matrix, a PSD matrix of trace 2.5 and a non-Hermitian matrix."""
    rng = np.random.default_rng(seed)
    rho = rand_density(rng, dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return rho, 2.5 * rand_density(rng, dim), g


@pytest.mark.parametrize("kind,dim,x", CASES)
def test_closed_form_matches_kraus_sum_and_formula(kind, dim, x):
    ch = BUILD[kind][0](dim, x)
    kraus = KrausChannel(tuple(BUILD[kind][1](dim, x)))
    for r in inputs(dim, seed=dim):
        got = ch.apply(r)
        assert max_norm(got - kraus.apply(r)) <= 1e-12
        assert max_norm(got - textbook(kind, dim, x, r)) <= 1e-12


@pytest.mark.parametrize("kind,dim,x", CASES)
def test_closed_form_repeats_the_kraus_sum_bit_for_bit(kind, dim, x):
    # The closed forms add the Kraus sum's nonzero terms in its order, which
    # is what lets a config survive a JSON round trip with every bit intact.
    ch = BUILD[kind][0](dim, x)
    kraus = KrausChannel(tuple(BUILD[kind][1](dim, x)))
    for r in inputs(dim, seed=100 + dim):
        assert np.array_equal(ch.apply(r), kraus.apply(r))


def test_running_a_random_instance_builds_no_kraus_list():
    cfg = random_instance(8, 3, 0.5)
    run_scenario(cfg)
    for p in cfg.pipelines:
        assert all("kraus_ops" not in vars(s) for s in p.steps)


def test_unitary_step_is_exact_and_not_symmetrized():
    rng = np.random.default_rng(12)
    u = rand_unitary(rng, 3)
    rho = rand_density(rng, 3)
    step = UnitaryDynamics(u)
    assert np.array_equal(step.apply(rho), u @ rho @ u.conj().T)
    cfg = ScenarioConfig(rho, (AgentPipeline("U", (step,)), AgentPipeline("I")))
    assert np.array_equal(run_scenario(cfg).sigma1, u @ cfg.prior @ u.conj().T)
    assert step.dim_in == step.dim_out == 3
    assert not hasattr(step, "kraus_ops")


class BitFlip(Channel):
    """A user's step that defines only ``_map``."""

    dim = 2

    def _map(self, r):
        return r[::-1, ::-1]


def test_pipeline_accepts_any_channel_subclass():
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    pipelines = (AgentPipeline("F", (BitFlip(), DephasingChannel(2, 1.0))), AgentPipeline("I"))
    out = run_scenario(ScenarioConfig(rho, pipelines)).sigma1
    assert max_norm(out - np.diag([0.3, 0.7])) < 1e-15


def test_pipeline_rejects_non_channels():
    with pytest.raises(TypeError):
        AgentPipeline("bad", (np.eye(2),))


STEPS = {
    "KrausChannel": KrausChannel((np.eye(2),)),
    "UnitaryDynamics": UnitaryDynamics(np.eye(2)),
    "DepolarizingChannel": DepolarizingChannel(2, 0.5),
    "DephasingChannel": DephasingChannel(2, 0.5),
    "ReplacementChannel": ReplacementChannel(2, 1),
    "_map only": BitFlip(),
}


@pytest.mark.parametrize("step", STEPS.values(), ids=STEPS)
def test_apply_checks_the_state_for_every_step_class(step):
    # apply is the one checked entry: the same errors whatever the step's class
    with pytest.raises(DimensionMismatchError, match="^channel input dim 2 != state dim 3$"):
        step.apply(np.eye(3) / 3)
    with pytest.raises(DimensionMismatchError, match="square matrix"):
        step.apply(np.ones((2, 3)))
    nan = np.full((2, 2), np.nan)
    with pytest.raises(ValueError) as expected:
        as_matrix(nan)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        step.apply(nan)
    assert step.apply([[1, 0], [0, 0]]).shape == (2, 2)  # a nested list is a state too


@pytest.mark.parametrize("strength", [-0.1, 1.5, float("nan"), float("inf")])
@pytest.mark.parametrize("ctor", [DepolarizingChannel, DephasingChannel])
def test_strength_validated(ctor, strength):
    with pytest.raises(ValueError, match="outside"):
        ctor(3, strength)


def test_replacement_target_validated():
    for target in (2, 5, -1):
        with pytest.raises(InvalidParameterError, match=rf"target {target} outside \[0, 2\)"):
            ReplacementChannel(2, target)


@pytest.mark.parametrize("target", [1.5, 1.0, True, "1"])
def test_replacement_target_must_be_an_integer(target):
    with pytest.raises(InvalidParameterError, match="is not an integer"):
        ReplacementChannel(2, target)


@pytest.mark.parametrize("noise", [-0.5, 1.5, float("nan"), float("inf")])
def test_random_instance_rejects_bad_noise(noise):
    with pytest.raises(InvalidParameterError, match="noise_strength"):
        random_instance(2, 0, noise)


def test_batch_report_rejects_bad_dim_and_noise():
    with pytest.raises(InvalidParameterError, match="dim 1"):
        batch_report([2, 1], 1, [0.0], 0)
    with pytest.raises(InvalidParameterError, match="noise_strength"):
        batch_report([2], 1, [0.5, 2.0], 0)


def test_golden_batch_report():
    # Taken from the explicit-Kraus-list implementation, seed 7.
    want = [
        (2, 0.0, 1.0, 0.0, 0.8607399525596557),
        (2, 0.5, 1.0, 0.0, 0.5412415122721382),
        (3, 0.0, 1.0, 0.0, 0.8876786483830547),
        (3, 0.5, 1.0, 0.0, 0.5425177912460837),
    ]
    rows = batch_report([2, 3], 5, [0.0, 0.5], 7)
    assert len(rows) == len(want)
    for row, (dim, noise, compat, herm, resid) in zip(rows, want):
        assert (row["dim"], row["noise"], row["count"]) == (dim, noise, 5)
        assert row["frac_compatible"] == compat
        assert row["frac_hermitian_pooling"] == herm
        assert row["mean_hermiticity_residual"] == pytest.approx(resid, rel=1e-12)
