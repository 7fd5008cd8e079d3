"""Fuzzed CLI: every subcommand ends in exit 0, 1 or 2, never a traceback.

Each example writes fuzzed JSON files (arbitrary JSON, near-valid matrices,
distributions, tables and mutated scenario configs, text that is not JSON,
bytes that are not UTF-8, or an integer past the 4300-digit limit) and runs
``cli.main`` on them with fuzzed option values.  Whatever the exit code,
standard output must be one JSON document, and for exit 1 and 2
it must be an ``{"error": ...}`` payload or, from ``compat-*``, the
verdict ``"compatible": false``.  An exception escaping ``main``
fails the test with its traceback.

Options are passed as raw argv, the way a user types them: a value goes
as ``--opt=value`` or as its own token, so ``--noise -1e-300`` or ``-inf``,
which argparse takes for an option name, is among them, and so is an
unknown flag or a stray token.  Usage errors are exit 2 with a JSON payload
like any other malformed input.  Dims stay <= 65, one past the cap.
Scenario configs draw their detector steps by name (fuzzed keys, dims and
parameters) or as a Kraus list.
"""

import contextlib
import io as _io
import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statepool import io
from statepool.cli import main
from statepool.scenario import GENERATORS, random_instance

from oracles import kraus_list_config

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1e-300, 1e300]),
)
REALS = FLOATS | st.integers(-(2**1030), 2**1030)  # beyond float range at both ends
SCALARS = st.one_of(st.none(), st.booleans(), REALS, st.text(max_size=3))
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
LABELS = st.one_of(st.integers(-2, 3), st.text(max_size=2), st.none(),
                   st.lists(st.integers(), max_size=1))


@st.composite
def matrices(draw):
    """A matrix object of dim 1 to 3: fuzzed entries, or a Hermitian matrix,
    often of unit trace, that may or may not be PSD."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        g = np.array(draw(st.lists(st.floats(-2, 2), min_size=2 * dim * dim,
                                   max_size=2 * dim * dim))).view(complex).reshape(dim, dim)
        m = g + g.conj().T if draw(st.booleans()) else g @ g.conj().T
        if draw(st.booleans()) and np.trace(m).real > 0:
            m = m / np.trace(m).real
        return io.matrix_to_json(m)
    pairs = draw(st.lists(st.lists(REALS, min_size=2, max_size=2),
                          min_size=dim * dim, max_size=dim * dim))
    return {"dim": draw(st.sampled_from([dim, dim + 1, 0, -1, True])), "entries": pairs}


@st.composite
def distributions(draw):
    """Fuzzed outcomes and probabilities, or a normalized distribution."""
    n = draw(st.integers(0, 3))
    outcomes = draw(st.lists(LABELS, min_size=n, max_size=n + draw(st.integers(0, 1))))
    if n and draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
        probs = (weights / weights.sum()).tolist() if weights.sum() > 0 else [1.0 / n] * n
    else:
        probs = draw(st.lists(REALS, min_size=n, max_size=n))
    return {"outcomes": outcomes, "probs": probs}


@st.composite
def tables(draw):
    nx, ny = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(REALS, min_size=ny, max_size=ny), min_size=nx, max_size=nx))
    if nx and draw(st.booleans()):
        rows = [[1.0 / nx] * ny for _ in range(nx)]
    return {"given_outcomes": draw(st.lists(LABELS, min_size=ny, max_size=ny)),
            "out_outcomes": draw(st.lists(LABELS, min_size=nx, max_size=nx)),
            "table": rows}


BASE_CONFIG = io.scenario_config_to_json(random_instance(2, 7, 0.5))
CONFIG_KEYS = sorted(BASE_CONFIG) + ["evolved_by"]
KRAUS_STEPS = [p["steps"][1] for p in
               io.scenario_config_to_json(kraus_list_config(random_instance(2, 7, 0.5)))["pipelines"]]
NAMED_PARAMS = {"depolarizing": "strength", "dephasing": "strength", "replacement": "target"}


@st.composite
def named_steps(draw):
    """A depolarizing, dephasing or replacement step, often valid, with fuzzed
    dim and parameter and maybe a key dropped or added."""
    name = draw(st.sampled_from(sorted(NAMED_PARAMS)))
    near = st.sampled_from([0, 1, 2, 0.0, 0.5, 1.0, -1, 5, 2.0, True])
    step = {"type": name, "dim": draw(near | SCALARS),
            NAMED_PARAMS[name]: draw(near | SCALARS)}
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(["dim", "strength", "target", "kraus", ""]))
        if key in step and draw(st.booleans()):
            del step[key]
        else:
            step[key] = draw(near | ANY_JSON)
    return step


@st.composite
def configs(draw):
    """The d = 2 ``randgen`` config with some steps or fields replaced or dropped."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if draw(st.booleans()):
        cfg["pipelines"][0]["steps"][0] = {"type": "unitary", "matrix": draw(matrices())}
    if draw(st.booleans()):
        i = draw(st.integers(0, 1))
        cfg["pipelines"][i]["steps"][1] = draw(named_steps() | st.just(KRAUS_STEPS[i]))
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=3)):
        value = draw(st.one_of(ANY_JSON, matrices(), st.just(None)))
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    if "evolved_by" in cfg and draw(st.booleans()):  # past the flag's agreement check
        cfg["pool_against_evolved"] = True
    return cfg


FILE_KINDS = {
    "matrix": matrices(),
    "distribution": distributions(),
    "table": tables(),
    "config": configs(),
}


NOT_JSON = ["{not json", "", "[1, 2",
            b"\xff\xfe{}",  # not UTF-8
            "1" * 4301]  # past the interpreter's 4300-digit limit on int(str)


def file_contents(kind):
    return st.one_of(FILE_KINDS[kind], ANY_JSON, st.sampled_from(NOT_JSON))


def value(strategy):
    return strategy.map(repr)


TOLS = value(FLOATS)
FILES = {
    "compat-classical": ["distribution"] * 2,
    "compat-quantum": ["matrix"] * 2,
    "pool-classical": ["distribution"] * 3,
    "pool-quantum": ["matrix"] * 3,
    "suffstat": ["table"],
    "scenario-run": ["config"],
    "scenario-batch": [],
    "randgen": [],
}
OPTIONS = {
    "compat-quantum": {"--rank-tol": TOLS},
    "pool-quantum": {"--rank-tol": TOLS, "--herm-tol": TOLS},
    "scenario-run": {"--rank-tol": TOLS, "--herm-tol": TOLS},
    "scenario-batch": {"--count": value(st.integers(-1, 2)),
                       "--seed": value(st.integers(-3, 2**63)),
                       "--generator": st.sampled_from(list(GENERATORS))},
    "randgen": {"--dim": value(st.integers(-2, 65)), "--seed": value(st.integers(-3, 2**63)),
                "--noise": TOLS},
}


@st.composite
def invocations(draw, command):
    contents = [draw(file_contents(kind)) for kind in FILES[command]]
    argv = [command]
    for name, strategy in OPTIONS.get(command, {}).items():
        if draw(st.booleans()):
            v = draw(strategy)
            argv += [f"{name}={v}"] if draw(st.booleans()) else [name, v]
    if command == "scenario-batch":
        argv += ["--dim", *map(str, draw(st.lists(st.integers(-2, 65), min_size=1, max_size=2)))]
        if draw(st.booleans()):
            argv += ["--noise", *draw(st.lists(TOLS, min_size=1, max_size=2))]
        if "--count" not in " ".join(argv):
            argv.append("--count=1")  # the default, 100, is too slow to fuzz
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "--bogus=1", "stray"])))
    return contents, argv


def run(contents, argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, obj in enumerate(contents):
            paths.append(os.path.join(tmp, f"{i}.json"))
            if not isinstance(obj, (str, bytes)):
                obj = json.dumps(obj)
            with open(paths[-1], "wb") as fh:
                fh.write(obj if isinstance(obj, bytes) else obj.encode())
        out = _io.StringIO()
        with contextlib.redirect_stdout(out), np.errstate(all="ignore"):
            code = main([argv[0], *paths, *argv[1:]])
    return code, out.getvalue()


def check(command):
    # derandomized: the same examples every run, so the suite cannot flake
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test(data):
        contents, argv = data.draw(invocations(command))
        code, out = run(contents, argv)
        assert code in (0, 1, 2), (argv, code)
        payload = json.loads(out)
        if code:  # an error, or the verdict "incompatible" of a compat-* command
            assert isinstance(payload, dict), (argv, out)
            assert "error" in payload or payload.get("compatible") is False, (argv, out)

    return test


test_compat_classical = check("compat-classical")
test_compat_quantum = check("compat-quantum")
test_pool_classical = check("pool-classical")
test_pool_quantum = check("pool-quantum")
test_suffstat = check("suffstat")
test_scenario_run = check("scenario-run")
test_scenario_batch = check("scenario-batch")
test_randgen = check("randgen")
