"""Matrix JSON in one pass per matrix, and one kernel call per document's run
of small matrices: the text, bits and messages of the entry-by-entry encoder
and decoder, the exit-2 cases at the boundary, the CLI printing each matrix
from its array with the bytes of every public writer, its kernel calls per
document, and golden bytes of the configs the CLI round trip exchanges and
of a pooled matrix."""

import hashlib
import json
import sys
import warnings
from fractions import Fraction
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepool import cli, io
from statepool.cli import main
from statepool.compatibility import (
    ProbabilityDistribution, classical_compatible, quantum_compatible,
)
from statepool.errors import InvalidParameterError
from statepool.io import MalformedInputError
from statepool.pooling import classical_pool, quantum_pool
from statepool.regions import make_hybrid
from statepool.scenario import (
    AgentPipeline, ScenarioConfig, UnitaryDynamics, random_instance, run_scenario,
)

from oracles import (
    commuting_bayes_draw, kraus_list_config, per_entry_matrix_entries, per_float_dumps,
    per_float_matrix_json, rand_density, rand_unitary,
)

MAX = 1.7976931348623157e308
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, MAX, -MAX,
               1.0, -2.0, 3.0, 1e16, 2.0 ** 53, 0.1, 1 / 3]
floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


def tie(z, j):
    """The odd multiple (2j + 1) / 2**(17 + z): for j in ``tie_range(z)`` it lies in
    [10**-z, 10**(1 - z)), exactly halfway between two 17-digit decimals."""
    return (2 * j + 1) / 2 ** (17 + z)


def tie_range(z):
    return 2 ** (16 + z) // 10 ** z + 1, 2 ** (16 + z) * 10 // 10 ** z - 1


def neighbours(x, steps=3):
    """``x`` and the ``steps`` floats on either side of it."""
    out = [x]
    for toward in (0.0, 2.0):
        y = x
        for _ in range(steps):
            out.append(y := float(np.nextafter(y, toward)))
    return out


# Around the kernel's domain, zeros of both signs (in EDGE_FLOATS) and |x| in (0, 1)
# with decimal exponent X >= -6: its bounds and decades, the float below 1, the
# fixed form's last decade (1e-4) and the exponent form's (1e-5, 1e-6), exponent-form
# mantissas with zeros after the first digit (2e-05 prints 2.0000000000000002e-05),
# short ones (2**-16 is 1.52587890625e-05) and both (21 / 2**20), and (in
# EDGE_FLOATS) subnormals and values >= 1.
KERNEL_EDGES = EDGE_FLOATS + [1 - 2.0 ** -53, 2e-05, 9e-06, 2.0 ** -16, 21 / 2 ** 20, 2.0 ** -17] + [
    v for b in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0) for v in neighbours(b)]
ties = st.integers(1, 6).flatmap(lambda z: st.integers(*tie_range(z)).map(lambda j: tie(z, j)))
kernel_floats = st.one_of(st.sampled_from(KERNEL_EDGES), ties, floats)


@st.composite
def complex_matrices(draw):
    d = draw(st.one_of(st.integers(1, 4), st.sampled_from([16, 32, 64])))
    if d <= 4:
        parts = draw(st.lists(floats, min_size=2 * d * d, max_size=2 * d * d))
    else:  # the kernel's sizes: a seeded spread over 1e-6 .. 10, edge floats sprinkled in
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        parts = rng.standard_normal(2 * d * d) * 10.0 ** rng.integers(-6, 2, 2 * d * d)
        for i, v in draw(st.lists(st.tuples(st.integers(0, 2 * d * d - 1), kernel_floats),
                                  max_size=100)):
            parts[i] = v * (-1) ** i  # both signs of every edge
    return np.array(parts, dtype=float).view(complex).reshape(d, d)


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


class TestEncoder:
    @settings(max_examples=300, deadline=None)
    @given(complex_matrices())
    def test_text_equals_the_per_float_encoder(self, m):
        assert io.dumps(io.matrix_to_json(m)) == per_float_dumps(per_float_matrix_json(m))

    @settings(max_examples=300, deadline=None)
    @given(complex_matrices())
    def test_round_trip_keeps_every_bit(self, m):
        back = io.matrix_from_json(json.loads(io.dumps(io.matrix_to_json(m))))
        # "-0" is read back as the JSON integer 0, so only a zero's sign is lost
        assert np.array_equal(bits(back), bits(m + 0.0))

    def test_matrix_to_json_is_plain_lists(self):
        m = np.array([[1 + 2j, -0.0], [3, 4j]])
        obj = io.matrix_to_json(m)
        assert obj == per_float_matrix_json(m)
        assert all(type(p) is list and {type(v) for v in p} == {float} for p in obj["entries"])
        assert json.loads(json.dumps(obj)) == obj

    def test_non_contiguous_input(self):
        m = (np.arange(16) + 1j * np.arange(16)).reshape(4, 4).T
        assert io.matrix_to_json(m) == per_float_matrix_json(m)

    @pytest.mark.parametrize("entries", [
        [[1.0, float("nan")], [float("inf"), 0.0]],
        [[1.0, 2.0], [float("-inf"), float("nan")]],
        [[0.5, -0.25]] * 40 + [[0.5, float("-inf")], [float("nan"), 0.5]] + [[0.5, 0.25]] * 214,
    ], ids=["d2-nan", "d2-inf", "d16"])
    def test_non_finite_names_the_first_value(self, entries):
        with pytest.raises(ValueError) as new:
            io.dumps({"entries": entries})
        with pytest.raises(ValueError) as old:
            per_float_dumps({"entries": entries})
        assert str(new.value) == str(old.value)

    # one matrix a document, then runs: 2 x 225 and 4 x 64 pairs reach 256, 3 x 64 do not,
    # 5 x 256 make a run of 1024 and one of 256, and 1024 pairs are a run of their own
    @pytest.mark.parametrize("dims, kernel_calls", [
        ([15], 0), ([16], 1), ([64], 1), ([15, 15], 1), ([8] * 3, 0), ([8] * 4, 1),
        ([16] * 5, 2), ([2, 32, 16], 2),
    ], ids=["15-0", "16-1", "64-1", "15x2-1", "8x3-0", "8x4-1", "16x5-2", "2,32,16-2"])
    def test_the_kernel_prints_from_d16_on(self, monkeypatch, dims, kernel_calls):
        calls, kernel = [], io._print_pairs
        monkeypatch.setattr(io, "_print_pairs", lambda a, *ends: calls.append(a) or kernel(a, *ends))
        ms = [np.random.default_rng(d).standard_normal((d, d)) * (1 + 1j) / d for d in dims]
        assert (io.dumps([io.matrix_to_json.tree(m) for m in ms])
                == per_float_dumps([per_float_matrix_json(m) for m in ms]))
        assert len(calls) == kernel_calls

    def test_no_double_prints_a_one_digit_exponent_form(self):
        # "%.17g" of v is "De-0z" only if |v * 10**(16 + z) - D * 10**16| <= 1/2.  The
        # doubles near D * 10**-z lie more than 10**(-16 - z) apart, so only the nearest
        # could; it does not, so the kernel's exponent form always has a "."
        for z in (5, 6):
            for d in range(1, 10):
                v = float(f"{d}e-{z}")
                assert np.spacing(v) > 10.0 ** (-16 - z)
                assert "." in "%.17g" % v

    def test_kernel_edges_print_as_the_float_printer(self):
        rng = np.random.default_rng(5)
        drawn = [(z, tie(z, int(j))) for z in range(1, 7) for j in rng.integers(*tie_range(z), 8)]
        for z, v in drawn:  # exact ties, at exponent -z
            assert (Fraction(v) * 10 ** (16 + z)).denominator == 2
        values = np.array(KERNEL_EDGES + [v for _, v in drawn])
        parts = rng.standard_normal(512) * 0.01
        parts[:2 * values.size:2], parts[1:2 * values.size:2] = values, -values
        m = parts.view(complex).reshape(16, 16)
        assert io.dumps(io.matrix_to_json(m)) == per_float_dumps(per_float_matrix_json(m))

    @pytest.mark.parametrize("obj", [
        [[1, 2], [3, 4]],
        [[10 ** 20, 1], [0.5, 2 ** 70]],
        [[True, False], [1.5, 2.5]],
        [["a", "b"]],
        [[1.5, 2]],
        [[np.float64(1.5), 0.25]],
        ([1.5, 0.25], [2.0, -0.0]),
        [(1.5, 0.25)],
        [[None, 1.0]],
        {"outcomes": [[0, 1], [1, 0]], "probs": [0.25, 0.75]},
    ])
    def test_other_lists_print_as_before(self, obj):
        assert io.dumps(obj) == per_float_dumps(obj)


def decode_both(entries):
    """(new, old) outcome of decoding ``entries``: an array or an error message."""
    d = int(round(len(entries) ** 0.5))
    try:
        new = io.matrix_from_json({"dim": d, "entries": entries}).reshape(-1)
    except MalformedInputError as exc:
        new = str(exc)
    try:
        old = per_entry_matrix_entries(entries)
    except ValueError as exc:
        old = str(exc)
    return new, old


class TestDecoder:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(st.one_of(floats, st.integers(-10 ** 308, 10 ** 308)),
                  st.one_of(floats, st.integers(-10 ** 308, 10 ** 308))),
        min_size=d * d, max_size=d * d)))
    def test_mixed_ints_and_floats_equal_complex(self, pairs):
        entries = [list(p) for p in pairs]
        new, old = decode_both(entries)
        assert np.array_equal(bits(new), bits([complex(re, im) for re, im in pairs]))
        assert np.array_equal(bits(new), bits(old))

    @pytest.mark.parametrize("bad, index", [
        ([True, 0.0], 2),
        (["1.0", 0.0], 1),
        ([1.0, 2.0, 3.0], 3),
        (None, 0),
        ([[1.0], 2.0], 2),
        ([1.0, False], 1),
        ([1.0], 3),
    ])
    def test_malformed_entry_same_message_and_index(self, bad, index):
        entries = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
        entries[index] = bad
        new, old = decode_both(entries)
        assert new == old == f"entry {index} is not a [re, im] pair of reals"

    def test_float64_subclass_is_accepted(self):
        class Sub(np.float64):
            pass

        entries = [[Sub(0.5), -0.0], [0, Sub(0.25)], [1, 2], [3.5, Sub(-1.0)]]
        new, old = decode_both(entries)
        assert np.array_equal(bits(new), bits(old))

    def test_list_subclass_pairs_are_accepted(self):
        class Pair(list):
            pass

        entries = [Pair([0.5, 0.0]), [0.25, 1.0], [1, 2], Pair([3.5, -1.0])]
        new, old = decode_both(entries)
        assert np.array_equal(bits(new), bits(old))

    @pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400), 2 ** 1024],
                             ids=["1e400", "-1e400", "2**1024"])
    def test_int_beyond_float_range_is_malformed(self, big):
        with pytest.raises(MalformedInputError, match="finite"):
            io.matrix_from_json({"dim": 2, "entries": [[0, 0], [1.0, big], [0, 0], [0, 0]]})

    def test_largest_int_that_rounds_to_a_float(self):
        big = 2 ** 1024 - 2 ** 970 - 1  # rounds down to the largest float
        m = io.matrix_from_json({"dim": 1, "entries": [[big, 0]]})
        assert m[0, 0] == complex(MAX, 0)

    def test_non_finite_floats_still_rejected(self):
        with pytest.raises(MalformedInputError, match="finite"):
            io.matrix_from_json(json.loads('{"dim": 1, "entries": [[1e400, 0]]}'))


def write_json(path, obj):
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_int_beyond_float_range_exit_2(tmp_path, capsys):
    big = write_json(tmp_path / "big.json", '{"dim": 1, "entries": [[1' + "0" * 400 + ", 0]]}")
    one = write_json(tmp_path / "one.json", {"dim": 1, "entries": [[1, 0]]})
    code, out = run_cli(capsys, "compat-quantum", big, one)
    assert code == 2
    assert json.loads(out)["error"] == "malformed_input"


class TestNonHermitianCompatibilityInput:
    SIGMA = np.array([[0.5, 0.3], [0.0, 0.5]])

    @pytest.mark.parametrize("slot", [0, 1])
    def test_rejected(self, slot):
        args = [np.eye(2) / 2, np.eye(2) / 2]
        args[slot] = self.SIGMA
        with pytest.raises(InvalidParameterError, match=f"s{slot + 1} is not Hermitian"):
            quantum_compatible(*args)

    def test_drift_within_tolerance_is_accepted(self):
        s = np.eye(2) / 2 + np.array([[0.0, 1e-12], [0.0, 0.0]])
        assert quantum_compatible(s, np.eye(2) / 2).compatible

    def test_relative_to_the_input_scale(self):
        s = 1e6 * np.eye(2) + np.array([[0.0, 1e-4], [0.0, 0.0]])
        assert quantum_compatible(s, np.eye(2)).compatible

    def test_cli_exit_2(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", io.matrix_to_json(self.SIGMA))
        b = write_json(tmp_path / "b.json", io.matrix_to_json(np.eye(2) / 2))
        code, out = run_cli(capsys, "compat-quantum", a, b)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "malformed_input"
        assert "not Hermitian" in payload["message"]


class TestScenarioRunOverrides:
    @pytest.fixture
    def cfg(self, tmp_path, capsys):
        path = str(tmp_path / "cfg.json")
        assert main(["randgen", "--dim", "4", "--noise", "0.5", "--seed", "7",
                     "--output", path]) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("extra", [(), ("--herm-tol", "1e-8"), ("--rank-tol", "1e-10"),
                                       ("--herm-tol", "1e-8", "--rank-tol", "1e-10")])
    def test_prior_checked_once(self, monkeypatch, capsys, cfg, extra):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        code, out = run_cli(capsys, "scenario-run", cfg, *extra)
        monkeypatch.undo()
        assert code == 0 and len(calls) <= 4
        assert out == run_cli(capsys, "scenario-run", cfg)[1]

    def test_override_equals_editing_the_config(self, tmp_path, capsys, cfg):
        with open(cfg) as f:
            obj = json.load(f)
        edited = write_json(tmp_path / "edited.json", {**obj, "rank_tol": 0.2})
        code, out = run_cli(capsys, "scenario-run", cfg, "--rank-tol", "0.2")
        assert code == 0
        assert out == run_cli(capsys, "scenario-run", edited)[1]
        assert out != run_cli(capsys, "scenario-run", cfg)[1]

    @pytest.mark.parametrize("text", ["[1, 2]", '"config"', "null"])
    def test_non_object_exit_2(self, tmp_path, capsys, text):
        path = write_json(tmp_path / "cfg.json", text)
        for extra in ((), ("--herm-tol", "1e-8")):
            code, out = run_cli(capsys, "scenario-run", path, *extra)
            assert code == 2 and json.loads(out)["error"] == "malformed_input"


# SHA-256 of `randgen --dim 16 --noise 0.5 --seed 101` with every channel
# written as its Kraus list (277 matrices: prior, two unitaries, 17 + 257
# Kraus operators), taken from the entry-by-entry encoder, and of
# `scenario-run` on it, whose pooling residual is taken with one LU solve
# against the certified prior.  `randgen` itself now writes the detector
# channels by name (GOLDEN_D16_NAMED, 3 matrices); `scenario-run` gives the
# same result on both.
GOLDEN_D16 = (
    "6d799bac3cfc14b454ae9beeba979d5e4409d0899c00b44a05e111eb63eabe68",
    "f7d6fe4039a4326ca60179e0d39d0a527b58c9ecce5e53b85096c5f4acfe11e9",
)
GOLDEN_D16_NAMED = "7bb3288248b2762cdc71f2ff3cd06f1d7e90494e40f347c8cb913401abd27bca"


def test_randgen_and_scenario_run_d16_golden_bytes(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    code, config = run_cli(capsys, "randgen", "--dim", "16", "--noise", "0.5", "--seed", "101")
    assert code == 0
    assert hashlib.sha256(config.encode()).hexdigest() == GOLDEN_D16_NAMED
    write_json(tmp_path / "cfg.json", config)
    code, result = run_cli(capsys, "scenario-run", cfg)
    assert code == 0
    assert hashlib.sha256(result.encode()).hexdigest() == GOLDEN_D16[1]


def test_kraus_list_config_d16_golden_bytes(tmp_path, capsys):
    legacy = io.dumps(io.scenario_config_to_json(kraus_list_config(random_instance(16, 101, 0.5))))
    assert hashlib.sha256(legacy.encode()).hexdigest() == GOLDEN_D16[0]
    code, result = run_cli(capsys, "scenario-run", write_json(tmp_path / "cfg.json", legacy))
    assert code == 0
    assert hashlib.sha256(result.encode()).hexdigest() == GOLDEN_D16[1]


# SHA-256 of `randgen --dim 64 --seed 101` at noise 0.0 (the prior and two unitaries)
# and 0.5 (the detector channels by name, too), and of `scenario-run` on each, taken
# with the float printer on every value.  d = 64 is above the kernel's gate, so these
# are the bytes the kernel writes.
GOLDEN_D64 = {
    "0.0": ("7dff5bc5f84e430fae27c7d5607709e0dc8a90c0e920990b2e18e4c7d7361b40",
            "32ec08351dc2b8eb1b8f48a204c63caeead95567866457bc8515f3504143d971"),
    "0.5": ("da38fa729e9f5808919681ff8351ef8de138cedc0317dd357313229ded3fecea",
            "ab23885ac8c234c980d4010c0bcb119832a9bb2a811b2a5b03fb008034e65c3c"),
}


@pytest.mark.parametrize("noise", sorted(GOLDEN_D64))
def test_randgen_and_scenario_run_d64_golden_bytes(tmp_path, capsys, noise):
    code, config = run_cli(capsys, "randgen", "--dim", "64", "--noise", noise, "--seed", "101")
    assert code == 0
    assert hashlib.sha256(config.encode()).hexdigest() == GOLDEN_D64[noise][0]
    code, result = run_cli(capsys, "scenario-run", write_json(tmp_path / "cfg.json", config))
    assert code == 0
    assert hashlib.sha256(result.encode()).hexdigest() == GOLDEN_D64[noise][1]


# SHA-256 of `randgen --dim 32 --noise 0 --seed 101` and of `scenario-run` on it,
# taken when a matrix of 1024 pairs or more was printed and read on a path of its
# own.  A d = 32 matrix holds exactly the 1024 pairs of a full run, so each is a run
# of one.
GOLDEN_D32 = ("7a57cad7840be45c1e9131f7703a1aa985cb8c17d362936a14402d74b106260a",
              "e2ee6de9dd7b44583886c6f3c9d42a8766bae77f4448ad3304878311b315b496")


def test_randgen_and_scenario_run_d32_golden_bytes(tmp_path, capsys, monkeypatch):
    code, config = run_cli(capsys, "randgen", "--dim", "32", "--noise", "0", "--seed", "101")
    assert code == 0
    assert hashlib.sha256(config.encode()).hexdigest() == GOLDEN_D32[0]
    code, result = run_cli(capsys, "scenario-run", write_json(tmp_path / "cfg.json", config))
    assert code == 0
    assert hashlib.sha256(result.encode()).hexdigest() == GOLDEN_D32[1]
    monkeypatch.setattr("sys.stdin", StringIO(config))
    assert run_cli(capsys, "scenario-run", "-") == (0, result)


class TestCliWritesFromArrays:
    """The CLI hands each matrix to the printer as its own float view, and every
    public writer returns plain JSON whose ``io.dumps`` is the CLI's bytes."""

    @staticmethod
    def watch(monkeypatch):
        """What ``_plain`` turns into lists, and the arrays the kernel prints."""
        listed, printed = [], []
        plain, kernel = io._plain, io._print_pairs
        monkeypatch.setattr(io, "_plain", lambda obj: listed.append(obj) or plain(obj))
        monkeypatch.setattr(io, "_print_pairs",
                            lambda a, *ends: printed.append(a.copy()) or kernel(a, *ends))
        return listed, printed

    @staticmethod
    def inputs(tmp_path, command):
        """(argv, the matrices the command prints, in order) at d = 64."""
        cfg = random_instance(64, 101, 0.5)
        if command == "randgen":
            return (["randgen", "--dim", "64", "--noise", "0.5", "--seed", "101"],
                    [cfg.prior] + [s.u for p in cfg.pipelines for s in p.steps
                                   if isinstance(s, UnitaryDynamics)])
        if command == "scenario-run":
            res = run_scenario(cfg)
            return ([command, write_json(tmp_path / "cfg.json", io.scenario_config_to_json(cfg))],
                    [res.sigma1, res.sigma2] + ([res.pooling.pooled] if res.pooling else []))
        states = commuting_bayes_draw(64, 10.0, 0)
        paths = [write_json(tmp_path / f"{i}.json", io.matrix_to_json(m))
                 for i, m in enumerate(states)]
        return [command, *paths], [quantum_pool(*states).pooled]

    @pytest.mark.parametrize("command", ["randgen", "scenario-run", "pool-quantum"])
    def test_no_pair_list_is_built(self, tmp_path, capsys, monkeypatch, command):
        argv, matrices = self.inputs(tmp_path, command)
        listed, printed = self.watch(monkeypatch)
        assert run_cli(capsys, *argv)[0] == 0
        assert listed == []
        assert len(printed) == len(matrices) > 0
        for a, m in zip(printed, matrices):
            assert np.array_equal(a.view(np.uint64).reshape(-1), bits(m).reshape(-1))

    @staticmethod
    def evolved_config(d=16):
        """Both agents apply the ``evolved_by`` unitary, so their posteriors pool."""
        rng = np.random.default_rng(3)
        u = UnitaryDynamics(rand_unitary(rng, d))
        return ScenarioConfig(rand_density(rng, d), (AgentPipeline("a", (u,)),
                                                     AgentPipeline("b", (u,))), evolved_by=u)

    def cases(self, tmp_path, capsys, case):
        """(a public writer's return value, the bytes the CLI writes for the same object)."""
        def command(*argv):
            code, out = run_cli(capsys, *argv)
            assert code == 0
            return out

        def written(writer, obj):
            path = tmp_path / "written.json"
            cli._write(writer.tree(obj), str(path))
            return writer(obj), path.read_text()

        def files(*objs):  # json.dumps keeps a zero's sign, so the CLI reads these bits
            return [write_json(tmp_path / f"{i}.json", o) for i, o in enumerate(objs)]

        cfg, evolved = random_instance(16, 101, 0.5), self.evolved_config()
        states = commuting_bayes_draw(16, 10.0, 0)
        q = [ProbabilityDistribution((0, 1, 2), p)
             for p in ([0.5, 0.25, 0.25], [0.25, 0.75, 0.0], [0.0, 0.5, 0.5])]
        if case == "config":
            return io.scenario_config_to_json(cfg), command("randgen", "--dim", "16", "--seed", "101")
        if case == "config, d = 64":
            return (io.scenario_config_to_json(random_instance(64, 101, 0.5)),
                    command("randgen", "--dim", "64", "--noise", "0.5", "--seed", "101"))
        if case == "result, d = 64":
            big = random_instance(64, 101, 0.5)
            out = command("scenario-run", *files(io.scenario_config_to_json(big)))
            return io.scenario_result_to_json(run_scenario(big)), out
        if case == "config, evolved_by":
            return written(io.scenario_config_to_json, evolved)
        if case == "config, Kraus lists":
            return written(io.scenario_config_to_json, kraus_list_config(cfg))
        if case in ("result, pooled", "result, pooling_error"):
            c = evolved if case == "result, pooled" else cfg
            res = run_scenario(c)
            assert (res.pooling is None) == (case == "result, pooling_error")
            out = command("scenario-run", *files(io.scenario_config_to_json(c)))
            return io.scenario_result_to_json(res), out
        if case == "report, quantum":
            out = command("pool-quantum", *files(*map(io.matrix_to_json, states)))
            return io.pooling_report_to_json(quantum_pool(*states)), out
        if case == "report, classical":
            out = command("pool-classical", *files(*map(io.distribution_to_json, q)))
            return io.pooling_report_to_json(classical_pool(*q)), out
        if case == "hybrid":
            return written(io.hybrid_to_json, make_hybrid({0: states[1] / 2, 1: states[2] / 2}))
        if case == "verdict, quantum":
            out = command("compat-quantum", *files(*map(io.matrix_to_json, states[1:])))
            return io.verdict_to_json(quantum_compatible(*states[1:])), out
        out = command("compat-classical", *files(*map(io.distribution_to_json, q[1:])))
        return io.verdict_to_json(classical_compatible(*q[1:])), out

    # at d = 64 the CLI's tree prints each matrix as a run of one and the plain writer's
    # lists print value by value, both with the kernel's and the float printer's forms
    @pytest.mark.parametrize("case", [
        "config", "config, d = 64", "config, evolved_by", "config, Kraus lists",
        "result, pooled", "result, pooling_error", "result, d = 64", "report, quantum",
        "report, classical", "hybrid", "verdict, quantum", "verdict, classical",
    ])
    def test_the_two_views_of_every_writer_agree(self, tmp_path, capsys, case):
        obj, written = self.cases(tmp_path, capsys, case)
        assert json.loads(json.dumps(obj)) == obj
        assert io.dumps(obj) == written
        if case.endswith("d = 64"):
            assert "e-05" in written and "e-07" in written

    @pytest.mark.parametrize("d, runs", [(16, 1), (64, 3)])
    def test_a_plain_document_never_reaches_the_kernel(self, monkeypatch, d, runs):
        cfg = random_instance(d, 101, 0.5)
        _, printed = self.watch(monkeypatch)
        text = io.dumps(io.scenario_config_to_json.tree(cfg))
        assert len(printed) == runs
        printed.clear()
        assert io.dumps(io.scenario_config_to_json(cfg)) == text
        assert printed == []


# SHA-256 of `pool-quantum` on commuting_bayes_draw(d, 10.0, 0): a prior of
# condition number 10 and two posteriors that pool, so the kernel prints the
# pooled matrix.  Taken when the CLI printed each matrix from its pair lists.
GOLDEN_POOLED = {
    16: "211da5e31f150c294aacd74da1f2fb93cc459c6524692d87f177b5abccc9be18",
    64: "9632a9598d6c465e79d524eed030f2a142b441b1c1b5d7b1acebf2dc2edd363d",
}


@pytest.mark.parametrize("d", sorted(GOLDEN_POOLED))
def test_pool_quantum_golden_bytes(tmp_path, capsys, d):
    paths = [write_json(tmp_path / f"{name}.json", io.dumps(io.matrix_to_json(m)))
             for name, m in zip(("prior", "s1", "s2"), commuting_bayes_draw(d, 10.0, 0))]
    code, out = run_cli(capsys, "pool-quantum", *paths)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_POOLED[d]


def json_load_read(path, decode):
    """``cli._read_json`` as it was before the reader: ``json.load``, then ``decode``."""
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise MalformedInputError(f"{path}: {exc}") from exc
    return decode(obj)


def longest_list(obj):
    """The length of the longest JSON list in ``obj``."""
    if isinstance(obj, dict):
        return max(map(longest_list, obj.values()), default=0)
    if isinstance(obj, list):
        return max(len(obj), *map(longest_list, obj))
    return 0


def ascii_bytes(text):
    return np.frombuffer(text.encode("ascii"), np.uint8)


def read_both(text):
    """(the reader's, json.loads's) decode of the matrix JSON ``text``."""
    return (io._read(text, io.matrix_from_json, json.loads),
            io.matrix_from_json(json.loads(text)))


class TestReader:
    """The reader hands ``matrix_from_json`` the bits ``json.loads`` and ``np.array`` give."""

    @settings(max_examples=150, deadline=None)
    @given(complex_matrices())
    def test_reads_the_printers_text_as_json_does(self, m):
        for text in (io.dumps(io.matrix_to_json(m)), json.dumps(io.matrix_to_json(m))):
            new, old = read_both(text)  # "%.17g" and repr spellings
            assert np.array_equal(bits(new), bits(old))

    def test_reads_the_kernel_edges_as_json_does(self):
        rng = np.random.default_rng(7)
        values = np.array(KERNEL_EDGES + [tie(z, int(j)) for z in range(1, 7)
                                          for j in rng.integers(*tie_range(z), 8)])
        parts = rng.standard_normal(2048) * 10.0 ** rng.integers(-8, 1, 2048)
        parts[:2 * values.size:2], parts[1:2 * values.size:2] = values, -values
        m = parts.view(complex).reshape(32, 32)
        for text in (io.dumps(io.matrix_to_json(m)), json.dumps(io.matrix_to_json(m))):
            new, old = read_both(text)
            assert np.array_equal(bits(new), bits(old))

    @pytest.mark.parametrize("d", [2, 23, 64])
    def test_minus_zero_reads_back_as_plus_zero(self, monkeypatch, d):
        # "-0.0" prints as "-0", a JSON int, which json reads as 0: at d = 2 through
        # json.loads, at d = 23 (a run of one) and 64 through the reader; "-0.0", a
        # float, keeps its sign
        kernel, calls = io._read_pairs, []
        monkeypatch.setattr(io, "_read_pairs", lambda span: calls.append(1) or kernel(span))
        m = np.full((d, d), complex(-0.0, -0.0))
        m[0, 0] = 0.5
        printed = io.dumps(io.matrix_to_json(m))
        assert "[-0, -0]" in printed
        new, old = read_both(printed)
        assert np.array_equal(bits(new), bits(m + 0.0)) and np.array_equal(bits(old), bits(new))
        new, old = read_both(json.dumps(io.matrix_to_json(m)))  # "-0.0"
        assert np.array_equal(bits(new), bits(m)) and np.array_equal(bits(old), bits(new))
        assert len(calls) == (2 if d * d >= io._READ_PAIRS else 0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 18 - 1), st.integers(0, 22))
    def test_nearest_is_the_correctly_rounded_quotient(self, n, k):
        got = io._nearest(np.array([n], np.int64), np.array([k]))[0]
        want = float(Fraction(n, 10 ** k))  # correctly rounded
        assert got == want or (np.isnan(got) and n >= 2 ** 53)

    def test_nearest_checks_each_quotient(self, monkeypatch):
        # below 10, as the kernel's quotients are, none of these is near a tie; with no
        # margin to spare every quotient above 2**53 is one, and each token the kernel
        # reads goes to float instead, with the same bits
        rng = np.random.default_rng(3)
        k = rng.integers(15, 23, 1000)
        n = rng.integers(2 ** 53, 10 ** np.minimum(k + 1, 18))
        near = io._nearest(n, k)
        assert not np.isnan(near).any()
        assert near.tolist() == [float(Fraction(int(a), 10 ** int(b))) for a, b in zip(n, k)]
        m = random_instance(32, 5, 0.0).prior
        text = io.dumps(io.matrix_to_json(m))
        monkeypatch.setattr(io, "_MARGIN", 0.0)
        assert np.isnan(io._nearest(n, k)).all()
        new, old = read_both(text)
        assert np.array_equal(bits(new), bits(old))

    @pytest.mark.parametrize("span", [
        "[[0.5, 0.25],[0.5, 0.25]]", "[[0.5,0.25], [0.5, 0.25]]", "[[0.5, 0.25] , [0.5, 0.25]]",
        "[[0.5, 0.25], [0.5]]", "[[0.5, 0.25, 0.5], [0.25]]", "[[0.5, ], [0.5, 0.25]]",
        "[[0.5, 0.25]\n, [0.5, 0.25]]", "[[0.5, 0.25], [0.5, 0.25],]",
    ])
    def test_other_layouts_are_left_to_json(self, span):
        assert io._read_pairs(ascii_bytes(span)) is None

    @pytest.mark.parametrize("token", ["01", "-00", "1.", ".5", "+1", "1_0", "0x1", "1e", "--1",
                                       "0.5e-05e-05", "0.5.5", "1" * 5000,
                                       " 0.5", "0.5 ", "[0.5"])  # json reads these texts
    def test_a_token_json_rejects_raises(self, token):
        with pytest.raises(ValueError):
            io._read_pairs(ascii_bytes(f"[[0.5, {token}], [0.5, 0.25]]"))

    @pytest.mark.parametrize("token, value", [
        ("0", 0.0), ("-0", 0.0), ("-0.0", -0.0), ("7", 7.0), ("-12", -12.0), ("1E-3", 1e-3),
        ("1e-03", 1e-3), ("1e+00", 1.0), ("12.5", 12.5), ("1.5e-07", 1.5e-07), ("9.5", 9.5),
        ("1.7976931348623157e+308", MAX), ("5e-324", 5e-324), ("1e400", float("inf")),
        ("0.30000000000000004", 0.30000000000000004), ("9007199254740993", 2.0 ** 53),
        ("-999999999999999999", -1e18), ("1234567890123456789", 1234567890123456789.0),
        ("2" * 400 + "e-400", float("2" * 400 + "e-400")),
    ])
    def test_each_token_is_what_json_reads(self, token, value):
        a = io._read_pairs(ascii_bytes(f"[[0.5, {token}], [{token}, 0.25]]"))
        want = np.float64(value).view(np.uint64)
        assert a.view(np.uint64)[[0, 1], [1, 0]].tolist() == [want, want]

    def test_an_int_beyond_float_range_raises(self):
        with pytest.raises(OverflowError):
            io._read_pairs(ascii_bytes("[[0.5, 1" + "0" * 400 + "], [0.5, 0.25]]"))


class TestCliReadsIntoArrays:
    """The CLI reads each matrix of ``io._READ_PAIRS`` pairs or more into its array: no
    list of its pairs is built, and the decoded matrices are json.load's bits."""

    @staticmethod
    def watch(monkeypatch):
        """The "entries" type and the result of each ``matrix_from_json`` call, and the
        longest list of each ``json.loads`` result."""
        received, decoded, lists = [], [], []
        decode, loads = io.matrix_from_json, json.loads

        def counted(obj):
            received.append(type(obj["entries"]))
            decoded.append(m := decode(obj))
            return m

        def parsed(text, **kwargs):
            tree = loads(text, **kwargs)
            lists.append(longest_list(tree))
            return tree

        monkeypatch.setattr(io, "matrix_from_json", counted)
        monkeypatch.setattr(json, "loads", parsed)
        return received, decoded, lists

    @pytest.mark.parametrize("command", ["scenario-run", "scenario-run -", "pool-quantum"])
    def test_no_pair_list_is_built(self, tmp_path, capsys, monkeypatch, command):
        if command == "pool-quantum":
            argv = [command, *(write_json(tmp_path / f"{i}.json", io.dumps(io.matrix_to_json(m)))
                               for i, m in enumerate(commuting_bayes_draw(64, 10.0, 0)))]
        else:
            cfg = io.dumps(io.scenario_config_to_json(random_instance(64, 101, 0.5)))
            argv = [*command.split(), write_json(tmp_path / "cfg.json", cfg)][:2]

        def run(*patches):
            if command.endswith("-"):
                monkeypatch.setattr("sys.stdin", StringIO(cfg))
            for patch in patches:
                monkeypatch.setattr(cli, "_read_json", patch)
            watched = self.watch(monkeypatch)
            out = run_cli(capsys, *argv)
            monkeypatch.undo()
            return out, watched

        out, (received, decoded, lists) = run()
        assert out[0] == 0
        assert received == [io._Pairs] * len(decoded) and len(decoded) == 3
        assert len(lists) == len(argv) - 1 and max(lists) < io._READ_PAIRS  # one loads per file
        old, (_, want, _) = run(json_load_read)  # the prior, unitaries and posteriors
        assert out == old
        assert [bits(m).tolist() for m in decoded] == [bits(m).tolist() for m in want]


def hostile(text, case):
    """``text``, a config, with one token or separator of its prior, or one key, changed."""
    start = text.index('"entries": [[') + len('"entries": [[')
    token = text[start:text.index(",", start)]
    entries = text[start - 2:text.index("]]", start) + 2]
    dim = text[text.index('"dim": '):text.index(", ", text.index('"dim": '))]
    edits = {
        "small dim": lambda: text.replace(dim, '"dim": 2', 1),
        "entries first": lambda: text.replace(f'{dim}, "entries": {entries}',
                                              f'"entries": {entries}, {dim}', 1),
        "newline": lambda: text[:start] + text[start:].replace(", ", ",\n", 1),
        "no space": lambda: text[:start] + text[start:].replace(", ", ",", 1),
        "duplicate key": lambda: text.replace('"entries": ' + entries,
                                              f'"entries": {entries}, "entries": {entries}', 1),
        "entries in a step": lambda: text.replace('"type": "unitary"',
                                                  f'"type": "unitary", "entries": {entries}', 1),
        "escaped key": lambda: text.replace('"entries": [[', '"entrie\\u0073": [[', 1),
        "quote in a key": lambda: text.replace('"dim": ', f'"\\"entries": {entries}, "dim": ', 1),
        "u0022 in a name": lambda: text.replace('"name": "',
                                                '"name": "\\u0022entries\\u0022: [[', 1),
        "BOM": lambda: "\ufeff" + text,
        "non-ASCII digit": lambda: (text[:start] + token.replace("1", "\u0661", 1)
                                    + text[start + len(token):]),
    }
    if case in edits:
        return edits[case]()
    return text[:start] + case + text[start + len(token):]


HOSTILE = ["1E-3", "1e-03", "1e+00", "-0", "-0.0", "01", "1.", ".5", "+1", "1_0", "NaN",
           "Infinity", "-Infinity", "1e400", "1" + "0" * 399, "1" + "0" * 4999,
           "0.015353609576118119", "1.5353609576118119e-2", "0.0153536095761181190",
           "newline", "no space", "small dim", "entries first", "duplicate key",
           "entries in a step", "escaped key", "quote in a key", "u0022 in a name", "BOM",
           "non-ASCII digit"]


@pytest.mark.parametrize("d, noise", [(16, "0.5"), (32, "0"), (64, "0.5")])
def test_hostile_spellings_read_as_json_load_reads_them(tmp_path, capsys, monkeypatch, d, noise):
    code, config = run_cli(capsys, "randgen", "--dim", str(d), "--noise", noise, "--seed", "101")
    assert code == 0
    outcomes = set()
    for case in HOSTILE:
        path = write_json(tmp_path / "cfg.json", hostile(config, case))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            new = run_cli(capsys, "scenario-run", path)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], case
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read_json", json_load_read)
            old = run_cli(capsys, "scenario-run", path)
        assert new == old, case
        outcomes.add(new[0])
    assert outcomes == {0, 2}


def test_kraus_list_config_d16_reads_in_runs(tmp_path, capsys, monkeypatch):
    legacy = io.dumps(io.scenario_config_to_json(kraus_list_config(random_instance(16, 101, 0.5))))
    path = write_json(tmp_path / "cfg.json", legacy)

    def run(*patches):
        reads, reader = [], io._read_pairs
        with monkeypatch.context() as patch:
            for read_json in patches:
                patch.setattr(cli, "_read_json", read_json)
            patch.setattr(io, "_read_pairs", lambda b: reads.append(b.size) or reader(b))
            received, decoded, _ = TestCliReadsIntoArrays.watch(patch)
            return run_cli(capsys, "scenario-run", path), reads, received, decoded

    out, reads, received, decoded = run()
    old, _, _, want = run(json_load_read)
    assert out == old and out[0] == 0
    # 277 matrices of 256 pairs: 69 runs of four are read, and the last matrix, a run of
    # its own below the gate, goes to json.loads
    assert legacy.count('"entries"') == len(decoded) == 277 and len(reads) == 69
    assert received.count(io._Pairs) == 276 and received.count(list) == 1
    assert [bits(m).tolist() for m in decoded] == [bits(m).tolist() for m in want]


class TestKernelCallsPerDocument:
    """A CLI document's matrices of fewer than ``io._GROUP_PAIRS`` pairs share a kernel
    call, one to print them and one to read them; a larger matrix keeps a call of its
    own; and a text too small for the reader's gate is not searched."""

    @staticmethod
    def watch(monkeypatch):
        """The rows of each print call, the bytes of each read call, and each search."""
        calls = {"print": [], "read": [], "spans": []}
        printer, reader, spans = io._print_pairs, io._read_pairs, io._spans
        monkeypatch.setattr(io, "_print_pairs",
                            lambda a, *ends: calls["print"].append(len(a)) or printer(a, *ends))
        monkeypatch.setattr(io, "_read_pairs", lambda b: calls["read"].append(b.size) or reader(b))
        monkeypatch.setattr(io, "_spans", lambda *args: calls["spans"].append(1) or spans(*args))
        return calls

    @pytest.mark.parametrize("d", [8, 16, 64])
    def test_kernel_calls(self, tmp_path, capsys, monkeypatch, d):
        cfg = str(tmp_path / "cfg.json")
        calls = self.watch(monkeypatch)
        argv = ["randgen", "--dim", str(d), "--noise", "0.5", "--seed", "101", "--output", cfg]
        assert run_cli(capsys, *argv)[0] == 0
        written, calls["print"] = calls["print"], []
        code, out = run_cli(capsys, "scenario-run", cfg)
        assert code == 0
        with open(cfg, encoding="utf-8") as fh:
            n_in = fh.read().count('"entries"')
        n_out = out.count('"entries"')
        assert n_in == 3 and n_out >= 2  # the prior and two unitaries; two or three states
        if d == 8:  # 192 pairs a document: no kernel runs, no "entries" is looked for
            assert calls == {"print": [], "read": [], "spans": []} and written == []
        elif d == 16:
            assert written == [256 * n_in] and calls["print"] == [256 * n_out]
            assert len(calls["read"]) == len(calls["spans"]) == 1
            assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_D16[1]
        else:
            assert written == [4096] * n_in and calls["print"] == [4096] * n_out
            assert len(calls["read"]) == n_in and len(calls["spans"]) == 1


class TestRunsOfOne:
    """A matrix of ``io._GROUP_PAIRS`` pairs or more is a run of its own: the kernel
    prints it from the matrix's own array and reads it from its view of the text."""

    @staticmethod
    def watch(monkeypatch):
        """Each writer's ``_Pairs``, the arrays the kernel prints and the bytes it reads."""
        made, printed, read = [], [], []
        printer, reader = io._print_pairs, io._read_pairs

        class Recorded(io._Pairs):
            __slots__ = ()

            def __init__(self, a):
                super().__init__(a)
                made.append(self)

        monkeypatch.setattr(io, "_Pairs", Recorded)
        monkeypatch.setattr(io, "_print_pairs",
                            lambda a, *ends: printed.append(a) or printer(a, *ends))
        monkeypatch.setattr(io, "_read_pairs", lambda b: read.append(b) or reader(b))
        return made, printed, read

    @pytest.mark.parametrize("d", [32, 64])
    def test_printed_from_its_array_and_read_from_its_view(self, tmp_path, capsys,
                                                           monkeypatch, d):
        cfg = str(tmp_path / "cfg.json")
        made, printed, read = self.watch(monkeypatch)
        for argv in (["randgen", "--dim", str(d), "--noise", "0.5", "--seed", "101",
                      "--output", cfg], ["scenario-run", cfg]):
            for seen in (made, printed, read):
                seen.clear()
            assert run_cli(capsys, *argv)[0] == 0
            # the reader's arrays were taken by matrix_from_json; the writer's remain
            written = [p.a for p in made if p.a is not None]
            assert len(printed) == len(written) >= 2
            assert all(np.shares_memory(a, w) for a, w in zip(printed, written))
        assert len(read) == 3 and not any(b.flags.owndata for b in read)


# Writer trees of 1-6 matrices of dims that straddle the gates: 2 and 8 below
# _KERNEL_PAIRS, 15 just below it and 16 at it, 17 above it, 23 above _READ_PAIRS, and
# 32 at _GROUP_PAIRS, a run of its own.  Values: kernel edges, both zeros and the
# printer's exponent forms (|x| in [1e-6, 1e-4)), over a seeded spread.
exponent_forms = st.floats(1e-6, 1e-4, exclude_max=True)
run_values = st.one_of(st.sampled_from(KERNEL_EDGES + [0.0, -0.0]), exponent_forms,
                       exponent_forms.map(lambda v: -v))


@st.composite
def writer_trees(draw):
    """(a writer's tree, its matrices in document order): each matrix stands in an
    object, a list or a step, beside other values."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tree, matrices = {"seed": 0}, []
    for i, d in enumerate(draw(st.lists(st.sampled_from([2, 8, 15, 16, 17, 23, 32]),
                                        min_size=1, max_size=6))):
        parts = rng.standard_normal(2 * d * d) * 10.0 ** rng.integers(-7, 1, 2 * d * d)
        for j, v in draw(st.lists(st.tuples(st.integers(0, 2 * d * d - 1), run_values),
                                  max_size=30)):
            parts[j] = v
        matrices.append(m := parts.view(complex).reshape(d, d))
        node = io.matrix_to_json.tree(m)
        tree[f"m{i}"] = draw(st.sampled_from([node, [0.5, node], {"type": "unitary",
                                                                  "matrix": node}]))
    return tree, matrices


def matrices_in(obj):
    """The matrices of a decoded tree, in document order."""
    if isinstance(obj, dict):
        if obj.keys() == {"dim", "entries"}:
            return [io.matrix_from_json(obj)]
        return [m for v in obj.values() for m in matrices_in(v)]
    if isinstance(obj, list):
        return [m for v in obj for m in matrices_in(v)]
    return []


class TestDocumentRuns:
    """A document's small matrices are printed and read in runs, with the text, bits and
    messages of the per-matrix encoder and of json.load."""

    @settings(max_examples=60, deadline=None)
    @given(writer_trees())
    def test_text_equals_the_per_float_encoder(self, drawn):
        tree, _ = drawn
        assert io.dumps(tree) == io.dumps(io._plain(tree)) == per_float_dumps(io._plain(tree))

    @settings(max_examples=60, deadline=None)
    @given(writer_trees())
    def test_reads_each_matrix_as_json_load_does(self, drawn):
        tree, matrices = drawn
        text = io.dumps(tree)
        new = io._read(text, matrices_in, json.loads)
        old = matrices_in(json.loads(text))
        assert [bits(m).tolist() for m in new] == [bits(m).tolist() for m in old]
        assert [bits(m).tolist() for m in new] == [bits(m + 0.0).tolist() for m in matrices]
        # every run that holds _READ_PAIRS pairs is read, so the reader reads iff they do,
        # and each array it reads is one matrix's entries, whole
        read = io._read_tree(text)
        assert (read is not None) == (sum(m.size for m in matrices) >= io._READ_PAIRS)
        if read is not None:
            got = matrices_in(read[0])
            assert all(held.a is None for held in read[1])
            assert [bits(m).tolist() for m in got] == [bits(m).tolist() for m in old]

    # a d = 64 matrix before and after a run of d = 16 ones: (print rows, read pairs)
    # of each kernel call; the lone d = 16 matrix of [16, 64] is below the reader's gate
    @pytest.mark.parametrize("dims, prints, reads", [
        ([64, 16, 16], [4096, 512], [4096, 512]), ([16, 64], [256, 4096], [4096]),
    ], ids=["64,16,16", "16,64"])
    def test_a_large_matrix_is_a_kernel_call_of_its_own(self, monkeypatch, dims, prints, reads):
        rng = np.random.default_rng(len(dims))
        matrices = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                    * 10.0 ** rng.integers(-7, 1, (d, d)) for d in dims]
        tree = {"seed": 0, **{f"m{i}": io.matrix_to_json.tree(m) for i, m in enumerate(matrices)}}
        printed, read, printer, reader = [], [], io._print_pairs, io._read_pairs
        monkeypatch.setattr(io, "_print_pairs",
                            lambda a, *ends: printed.append(len(a)) or printer(a, *ends))
        monkeypatch.setattr(io, "_read_pairs", lambda b: read.append(a := reader(b)) or a)
        text = io.dumps(tree)
        assert text == per_float_dumps(io._plain(tree))
        new, old = io._read(text, matrices_in, json.loads), matrices_in(json.loads(text))
        assert [bits(m).tolist() for m in new] == [bits(m).tolist() for m in old]
        assert printed == prints and [len(a) for a in read] == reads

    @settings(max_examples=60, deadline=None)
    @given(writer_trees(), st.data())
    def test_the_first_non_finite_value_is_named(self, drawn, data):
        tree, matrices = drawn
        # matrix j and each one after it get a non-finite value, the next one's another:
        # only matrix j's may be named
        j = data.draw(st.integers(0, len(matrices) - 1))
        values = data.draw(st.permutations([np.nan, np.inf, -np.inf]))
        for i, m in enumerate(matrices[j:]):
            flat = m.reshape(-1).view(float)
            flat[data.draw(st.integers(0, flat.size - 1))] = values[i % 3]
        with pytest.raises(ValueError) as new:
            io.dumps(tree)
        with pytest.raises(ValueError) as old:
            per_float_dumps(io._plain(tree))
        assert str(new.value) == str(old.value)
