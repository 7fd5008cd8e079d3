"""One Tolerances record, one Hermiticity rule, one PSD floor, one probability rule,
one dim cap.

Each test pins an edge that moved when the tolerances were gathered into
``linalg.Tolerances`` and the fixed constants beside it, or an input the CLI
now reports as JSON instead of argparse usage text.  A stdlib-only scan
(``ast``) of the package keeps it so: no threshold literal outside
``linalg``'s constants, and no tolerance parameter but those of the record.
"""

import ast
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statepool import io
from statepool.cli import main
from statepool.compatibility import (
    ConditionalDistribution, ProbabilityDistribution, _support_verdict, verify_objective_classical,
    verify_subjective_quantum,
)
from statepool.errors import InvalidParameterError, NotPSDError
from statepool.linalg import (
    EXACT_TOL, PSD_TOL, TRACE_TOL, Spectrum, Subspace, Tolerances, check_hermitian, max_norm,
    pseudo_inverse, sqrt_psd, support_projector,
)
from statepool.pooling import _pool, quantum_pool
from statepool.regions import JointState, RegionLabel, star_product
from statepool.scenario import (
    MAX_DIM, AgentPipeline, ScenarioConfig, adversarial_instance, batch_report, random_instance,
)

HALF = np.eye(2) / 2
CERTAIN = ProbabilityDistribution((0, 1), [1.0, 0.0])


# SHA-256s of scenario-run on `randgen --dim d --noise 0`, whatever its herm_tol:
# unitary-only posteriors, a NonHermitianPoolingProductError payload.
NOISELESS_SHA256 = {
    2: "c871a5f5bd8eef5a1b8ee01119885c6706801091a26e268d54ed658f086a2198",
    8: "b79a1ad03552249ab0ae2772c2d64bf6e687d627805c083b005bf78153c4581a",
    32: "283866df667f7070f2af7060648723208c47b99977d065bb07b274f0fe171163",
}


# each way a caller passes a tolerance -> (the field its rule names, the call with it as v)
TOLERANCE_SLOTS = {
    "rank_tol": ("rank_tol", lambda v: Tolerances(rank_tol=v)),
    "herm_tol": ("herm_tol", lambda v: Tolerances(herm_tol=v)),
    "support_projector": ("rank_tol", lambda v: support_projector(HALF, v)),
    "Spectrum.of": ("rank_tol", lambda v: Spectrum.of(HALF, v)),
    "check_hermitian": ("herm_tol", lambda v: check_hermitian(HALF, "m", v)),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestRecord:
    def test_defaults(self):
        assert Tolerances() == Tolerances(rank_tol=1e-10, herm_tol=1e-8)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Tolerances().rank_tol = 0.5

    @pytest.mark.parametrize("slot, value", [
        (slot, value) for slot, (field, _) in TOLERANCE_SLOTS.items() for value in (
            (math.nan, math.inf, -math.inf, -1e-300)
            + ((1.0, 2.0) if field == "rank_tol" else ()))
    ])
    def test_rejects_naming_the_field(self, slot, value):
        field, call = TOLERANCE_SLOTS[slot]
        with pytest.raises(InvalidParameterError, match=f"^{field} "):
            call(value)

    def test_psd_tol_is_no_option(self):
        # psd_tol=inf used to "pool" into a state with eigenvalue -0.5
        with pytest.raises(TypeError):
            quantum_pool(HALF, HALF, HALF, psd_tol=math.inf)


class TestOnePSDFloor:
    def test_sqrt_psd_clamps_within_the_floor(self):
        # -1e-9 lies above -PSD_TOL * max(max|w|, 1); the floor used to be 1e-10
        root = sqrt_psd(np.diag([1.0, -1e-9]))
        assert max_norm(root - np.diag([1.0, 0.0])) == 0.0

    def test_star_product_clamps_within_the_floor(self):
        psi = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = star_product(psi, np.diag([1.0, -1e-9]))
        assert max_norm(out - np.diag([0.5, 0.0])) < 1e-15

    @pytest.mark.parametrize("apply", [lambda m: sqrt_psd(m), lambda m: star_product(HALF, m)])
    def test_below_the_floor_rejected(self, apply):
        assert -1e-7 < -PSD_TOL < -1e-9  # the floor sits between the two edges tested
        with pytest.raises(InvalidParameterError,
                           match=r"^(h|phi) is not PSD \(eigenvalue -1\.000e-07\)"):
            apply(np.diag([1.0, -1e-7]))

    # each way a probability enters, as a function of e, the size of one negative entry
    PROBABILITIES = {
        "distribution": lambda e: ProbabilityDistribution((0, 1, 2), [0.5, 0.5 + e, -e]).probs,
        "conditional table": lambda e: ConditionalDistribution(
            (0, 1), (0, 1), [[1.0 + e, 0.5], [-e, 0.5]]).table,
        "witness joint": lambda e: verify_objective_classical(
            CERTAIN, CERTAIN, np.array([1.0 + e, -e]).reshape(2, 1, 1), 0, 0),
    }

    @pytest.mark.parametrize("caller", sorted(PROBABILITIES))
    def test_a_probability_inside_the_floor_is_clamped(self, caller):
        # -0.99e-8 lies above -PSD_TOL * max(max|p|, 1); the floor used to be -1e-12
        out = self.PROBABILITIES[caller](0.99e-8)
        if caller == "witness joint":  # its clamped slice P(Y | x1, x2) is CERTAIN itself
            assert out is True
        else:
            assert out.min() == 0.0 and np.count_nonzero(out == 0.0) == 1

    @pytest.mark.parametrize("caller, what", [
        ("distribution", "probability"), ("conditional table", "conditional probability"),
        ("witness joint", "joint probability")])
    def test_a_probability_below_the_floor_is_rejected(self, caller, what):
        with pytest.raises(InvalidParameterError, match=f"^negative {what} -1.01e-08$"):
            self.PROBABILITIES[caller](1.01e-8)

    @pytest.mark.parametrize("excess, accepted", [(5e-17, True), (2e-16, False)])
    def test_pooled_state_uses_the_relative_floor(self, excess, accepted):
        # pooled eigenvalues (1 + x, -x): -x is below the absolute floor -PSD_TOL
        # but, for x up to PSD_TOL * (1 + x), not below -PSD_TOL * max(max|w|, 1)
        x = PSD_TOL + excess
        s1, full = np.diag([1.0 + x, -x]), Subspace.full(2)
        pool = lambda: _pool(Spectrum.of(np.eye(2)), s1, np.eye(2), full, full,
                             _support_verdict(full, full), Tolerances())
        if accepted:
            assert pool().min_eigenvalue < -PSD_TOL
        else:
            with pytest.raises(NotPSDError):
                pool()


def nudged(rng, shape, axis=None) -> np.ndarray:
    """Probabilities of ``shape`` summing to 1 over ``axis`` (every entry when None), some
    zero entries then moved 1e-12 to 1e-7 either side of 0 and each sum by up to 1e-7."""
    p = rng.random(shape) * (rng.random(shape) < 0.6)
    first = p.reshape(-1)[:1] if axis is None else p[0]  # a view: one entry of each sum
    first += 1.0  # no empty sum
    p /= p.sum(axis=axis, keepdims=axis is not None)
    offset = lambda size: rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-12, -7, size)
    moved = (p == 0.0) & (rng.random(shape) < 0.7)
    p[moved] = offset(np.count_nonzero(moved))
    first += offset(first.size)
    return p


def admitted(call, error=ValueError) -> bool:
    try:
        call()
    except error:
        return False
    return True


def floor_margin(rows) -> float:
    """How far the lowest entry of each row lies from the row's PSD floor, at the least."""
    return min(abs(r.min() + PSD_TOL * max(np.abs(r).max(), 1.0)) for r in rows)


class TestOneProbabilityRule:
    """A probability array is admitted as the diagonal operators it stands for: a
    distribution as a state, a conditional table as a measurement, a witness joint as
    the distribution of its entries.  Entries sit 1e-12 to 1e-7 either side of 0 and sums
    up to 1e-7 off, around the PSD floor, TRACE_TOL and EXACT_TOL; a draw that rounding
    could decide either way (within 1e-14 of an edge) is set aside."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_a_distribution_is_its_diagonal_state(self, seed):
        rng = np.random.default_rng(seed)
        p = nudged(rng, rng.integers(1, 6))
        assume(min(floor_margin([p]), abs(abs(p.sum() - 1.0) - TRACE_TOL)) > 1e-14)
        pipelines = (AgentPipeline("a"), AgentPipeline("b"))
        assert (admitted(lambda: ProbabilityDistribution(tuple(range(p.size)), p))
                is admitted(lambda: ScenarioConfig(np.diag(p), pipelines)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_a_conditional_table_is_its_diagonal_measurement(self, seed):
        rng = np.random.default_rng(seed)
        t = nudged(rng, (rng.integers(1, 5), rng.integers(1, 5)), axis=0)
        sums = t.sum(axis=0)
        assume(min(floor_margin(t), np.abs(np.abs(sums - 1.0) - EXACT_TOL).min()) > 1e-14)
        n = t.shape[1]
        effects = {x: np.diag(row) for x, row in enumerate(t)}
        measurement = lambda: verify_subjective_quantum(np.eye(n) / n, np.eye(n) / n, effects, 0)
        assert (admitted(lambda: ConditionalDistribution(tuple(range(n)), tuple(effects), t))
                is admitted(measurement, InvalidParameterError))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_a_witness_joint_is_the_distribution_of_its_entries(self, seed):
        rng = np.random.default_rng(seed)
        joint = nudged(rng, (rng.integers(1, 5), rng.integers(1, 4), rng.integers(1, 4)))
        flat = joint.reshape(-1)
        assume(min(floor_margin([flat]), abs(abs(flat.sum() - 1.0) - TRACE_TOL)) > 1e-14)
        q = ProbabilityDistribution.uniform(range(joint.shape[0]))
        assert (admitted(lambda: verify_objective_classical(q, q, joint, 0, 0),
                         InvalidParameterError)
                is admitted(lambda: ProbabilityDistribution(tuple(range(flat.size)), flat)))

    def test_compat_classical_admits_a_probability_inside_the_floor(self, tmp_path, capsys):
        # rejected as "negative probability -1e-10" while the floor was -1e-12
        q = write_distribution(tmp_path, "q.json", [0.5, 0.5 + 1e-10, -1e-10])
        code, out = run_cli(capsys, "compat-classical", q, q)
        assert code == 0 and json.loads(out.out)["compatible"] is True

    def test_pool_classical_pools_it_into_a_distribution(self, tmp_path, capsys):
        q = write_distribution(tmp_path, "q.json", [0.5, 0.5 + 1e-10, -1e-10])
        code, out = run_cli(capsys, "pool-classical", q, q, q)
        probs = np.array(json.loads(out.out)["pooled"]["probs"])
        assert code == 0 and probs.min() == 0.0 and abs(probs.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("caller, message", [
        ("distribution", "^total probability nan, expected 1$"),
        ("conditional table", r"^columns must sum to 1, got \[nan, 1\.0\]$"),
        ("witness joint", "^total joint probability nan, expected 1$")])
    def test_a_nan_probability_is_rejected(self, caller, message):
        # a NaN entry passed both old tests, each a comparison that NaN makes False
        with pytest.raises(InvalidParameterError, match=message):
            TestOnePSDFloor.PROBABILITIES[caller](math.nan)

    @pytest.mark.parametrize("probs, message", [
        ([0.5, 0.5 + 1e-7, -1e-7], "negative probability -1e-07"),
        ([0.5, 0.625], "total probability 1.125, expected 1"),  # a float, no NumPy repr
        ([math.nan, 1.0], "total probability nan, expected 1"),  # exit 1, "disjoint", before
    ])
    def test_a_rejected_distribution_is_exit_2_naming_its_value(self, tmp_path, capsys, probs,
                                                                message):
        q = write_distribution(tmp_path, "q.json", probs)
        code, out = run_cli(capsys, "compat-classical", q, q)
        assert code == 2
        assert json.loads(out.out) == {"error": "malformed_input",
                                       "message": f"bad distribution: {message}"}


def write_distribution(tmp_path, name, probs) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"outcomes": list(range(len(probs))), "probs": probs}))
    return str(path)


class TestOneHermiticityRule:
    def test_joint_state_with_large_entries(self):
        # max-norm 1e4, asymmetry 1e-6: relative residual 1e-10 passes, the old
        # absolute rule (1e-6 > 1e-8) rejected it
        op = np.diag([1e4, 2e4]).astype(complex)
        op[0, 1] = 1e-6
        s = JointState((RegionLabel("A", 2),), op, normalized=False)
        assert max_norm(s.op - s.op.conj().T) == 0.0

    def test_joint_state_beyond_the_relative_rule(self):
        op = np.diag([1e4, 2e4]).astype(complex)
        op[0, 1] = 1e-3  # relative residual 1e-7
        with pytest.raises(InvalidParameterError, match="joint state is not Hermitian"):
            JointState((RegionLabel("A", 2),), op, normalized=False)

    def test_prior_check_ignores_the_config_herm_tol(self):
        prior = np.diag([0.5, 0.5]).astype(complex)
        prior[0, 1] = 1e-12
        cfg = ScenarioConfig(prior, (AgentPipeline("W"), AgentPipeline("T")),
                             tol=Tolerances(herm_tol=0.0))
        assert cfg.prior[0, 1] == cfg.prior[1, 0] == 5e-13

    @pytest.mark.parametrize("d", sorted(NOISELESS_SHA256))
    @pytest.mark.parametrize("herm_tol", ["0", "1e-300"])
    def test_posteriors_are_not_rechecked_at_the_config_herm_tol(self, tmp_path, capsys, d,
                                                                  herm_tol):
        # unitary-only posteriors carry rounding asymmetry (6e-17 at d = 2); a
        # Hermiticity check at herm_tol 0 would make this exit 2, not a pooling outcome
        cfg = str(tmp_path / "cfg.json")
        assert run_cli(capsys, "randgen", "--dim", str(d), "--noise", "0", "--output", cfg)[0] == 0
        code, out = run_cli(capsys, "scenario-run", cfg, "--herm-tol", herm_tol)
        assert code == 0
        assert json.loads(out.out)["pooling_error"]["error"] == "NonHermitianPoolingProductError"
        assert hashlib.sha256(out.out.encode()).hexdigest() == NOISELESS_SHA256[d]

    @pytest.mark.parametrize("call", [
        lambda m: sqrt_psd(m),
        lambda m: pseudo_inverse(m),
        lambda m: support_projector(m),
        lambda m: star_product(np.eye(2), m),
    ], ids=["sqrt_psd", "pseudo_inverse", "support_projector", "star_product"])
    def test_public_spectral_entries_reject_a_non_hermitian_operand(self, call):
        # each used to work silently on the Hermitian part [[0.5, 0.15], [0.15, 0.5]]
        with pytest.raises(InvalidParameterError, match="is not Hermitian"):
            call(np.array([[0.5, 0.3], [0.0, 0.5]]))

    @pytest.mark.parametrize("prior, word", [
        # max-norm 2, asymmetry 1.5e-8: above 1e-8, below 1e-8 * max-norm
        ([[2.0, 1.5e-8], [0.0, -1.0]], "PSD"),
        ([[2.0, 1.5e-8], [0.0, 2.0]], "trace"),
    ])
    def test_scenario_run_large_prior_exit_2(self, tmp_path, capsys, prior, word):
        cfg = io.scenario_config_to_json(random_instance(2, 7, 0.5))
        cfg["prior"] = io.matrix_to_json(np.array(prior))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(capsys, "scenario-run", str(path))
        payload = json.loads(out.out)
        assert code == 2 and payload["error"] == "malformed_input"
        assert word in payload["message"] and "Hermitian" not in payload["message"]


class TestDimensionCap:
    @pytest.mark.parametrize("make", [
        lambda: random_instance(MAX_DIM + 1, 0),
        lambda: adversarial_instance(MAX_DIM + 1, 0),
        lambda: batch_report([MAX_DIM + 1], 1, [0.5], 0),
    ])
    def test_library_rejects(self, make):
        with pytest.raises(InvalidParameterError, match="dim 65 > 64"):
            make()

    def test_batch_checks_every_dim_before_the_first_cell(self, monkeypatch):
        calls = []
        monkeypatch.setattr("statepool.scenario.run_scenario", calls.append)
        with pytest.raises(InvalidParameterError):
            batch_report([2, MAX_DIM + 1], 1, [0.5], 0)
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ("randgen", "--dim", "65"),
        ("scenario-batch", "--dim", "2", "65", "--count", "1"),
        ("scenario-batch", "--generator", "adversarial", "--dim", "65", "--count", "1"),
    ])
    def test_cli_exit_2(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2 and json.loads(out.out)["message"] == "dim 65 > 64"


class TestUsageErrorsAsJSON:
    @pytest.mark.parametrize("argv", [
        ("scenario-batch", "--dim", "2", "--noise", "-1e-300"),
        ("scenario-batch", "--dim", "2", "--noise", "-inf"),
        ("randgen", "--noise", "-inf"),
        ("randgen", "--bogus"),
        ("randgen", "--dim", "two"),
        ("no-such-command",),
        (),
    ])
    def test_exit_2_with_payload(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2, out
        assert json.loads(out.out)["error"] == "malformed_input"
        assert out.err == ""

    def test_unknown_generator_payload_pinned(self, capsys):
        # argparse words this the same from Python 3.10 to 3.13; the choices are GENERATORS' keys
        code, out = run_cli(capsys, "scenario-batch", "--generator", "bogus")
        assert code == 2 and out.err == ""
        assert out.out == ('{"error": "malformed_input", "message": "argument --generator: invalid '
                           "choice: 'bogus' (choose from 'random', 'adversarial')\"}\n")

    def test_help_exits_0(self, capsys):
        code, out = run_cli(capsys, "randgen", "--help")
        assert code == 0 and "usage:" in out.out


SRC = Path(__file__).resolve().parent.parent / "src" / "statepool"


def stray_thresholds(source: str, module: str) -> list:
    """(line, value) of each float literal in (0, 1e-3) in ``source``, except in
    ``linalg``'s module-level constants and the ``Tolerances`` defaults."""
    tree = ast.parse(source)
    kept = []
    if module == "linalg":
        for node in tree.body:
            if isinstance(node, ast.Assign) and all(
                    isinstance(t, ast.Name) and t.id.isupper() for t in node.targets):
                kept.append(node)
            elif isinstance(node, ast.ClassDef) and node.name == "Tolerances":
                kept += [s for s in node.body if isinstance(s, ast.AnnAssign)]
    allowed = {id(n) for node in kept for n in ast.walk(node)}
    return sorted((n.lineno, n.value) for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and type(n.value) is float
                  and 0.0 < n.value < 1e-3 and id(n) not in allowed)


def settable_tolerances(source: str) -> list:
    """Each parameter or dataclass field in ``source`` whose name holds "tol",
    except ``rank_tol``, ``herm_tol`` and a ``tol`` annotated ``Tolerances``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            found += [(p.arg, p.annotation) for p in
                      (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        elif isinstance(node, ast.ClassDef):
            found += [(s.target.id, s.annotation) for s in node.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return sorted(name for name, annotation in found
                  if "tol" in name and name not in ("rank_tol", "herm_tol")
                  and not (name == "tol" and annotation is not None
                           and ast.unparse(annotation) == "Tolerances"))


def test_scans_find_thresholds_and_tolerance_parameters():
    source = ("EPS = 1e-9\n"
              "def f(x, tol=1e-6, rank_tol=0.0, herm_tol=0.5, t: Tolerances = None):\n"
              "    return x > 1e-12 or (lambda support_tol: 0)\n"
              "def g(tol: Tolerances, y=1e-2): pass\n"
              "class C:\n"
              "    cut_tol: float = 0.5\n")
    assert stray_thresholds(source, "pooling") == [(1, 1e-9), (2, 1e-6), (3, 1e-12)]
    assert stray_thresholds(source, "linalg") == [(2, 1e-6), (3, 1e-12)]
    assert settable_tolerances(source) == ["cut_tol", "support_tol", "tol"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_tolerance_policy(path):
    source = path.read_text()
    assert stray_thresholds(source, path.stem) == []
    assert settable_tolerances(source) == []
