"""Matrix JSON in one pass per matrix: the text, bits and messages of the
entry-by-entry encoder and decoder, the exit-2 cases at the boundary, and
golden bytes of the configs the CLI round trip exchanges."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepool import io
from statepool.cli import main
from statepool.compatibility import quantum_compatible
from statepool.errors import InvalidParameterError
from statepool.io import MalformedInputError
from statepool.scenario import random_instance

from oracles import (
    kraus_list_config, per_entry_matrix_entries, per_float_dumps, per_float_matrix_json,
)

MAX = 1.7976931348623157e308
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, MAX, -MAX,
               1.0, -2.0, 3.0, 1e16, 2.0 ** 53, 0.1, 1 / 3]
floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def complex_matrices(draw):
    d = draw(st.integers(1, 4))
    parts = draw(st.lists(floats, min_size=2 * d * d, max_size=2 * d * d))
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
    ])
    def test_non_finite_names_the_first_value(self, entries):
        with pytest.raises(ValueError) as new:
            io.dumps({"entries": entries})
        with pytest.raises(ValueError) as old:
            per_float_dumps({"entries": entries})
        assert str(new.value) == str(old.value)

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
