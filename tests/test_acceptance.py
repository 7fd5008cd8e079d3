"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json

import numpy as np

from statepool.cli import main
from statepool.compatibility import ProbabilityDistribution, classical_compatible
from statepool.linalg import max_norm
from statepool.pooling import check_conditional_independence, quantum_pool
from statepool.regions import quantum_bayes, star_product
from statepool.scenario import DepolarizingChannel

from oracles import (
    closed_form_pool,
    grid_distributions,
    objective_witness_exists,
    rand_density,
    rand_herm,
    rand_povm,
    rand_prob,
    rand_psd,
)


def report(num, desc, ok):
    print(f"ACCEPTANCE {num:2d} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


def dist(p):
    return ProbabilityDistribution(tuple(range(len(p))), np.asarray(p, float))


def test_01_support_overlap_matches_witness_search():
    # every distribution pair on <= 4 outcomes, entries on a 0.25 grid:
    # the support-overlap decision must agree with an independent witness
    # search over the definitional constraints
    mismatches = 0
    for n in range(1, 5):
        grid = grid_distributions(n, step=0.25)
        for q1v, q2v in itertools.product(grid, grid):
            got = classical_compatible(dist(q1v), dist(q2v)).compatible
            want = objective_witness_exists(q1v, q2v)
            mismatches += got != want
    report(1, "support overlap == witness search on 0.25 grid", mismatches == 0)


def test_02_uniform_prior_compatible_with_everything():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        u = ProbabilityDistribution.uniform(tuple(range(n)))
        q = dist(rand_prob(rng, n))
        ok &= classical_compatible(u, q).compatible
    report(2, "uniform compatible with 10k random distributions", ok)


def test_03_binary_boundary_audit():
    # binary assignments (p, 1-p) vs (q, 1-q) on the {0, 0.5, 1} grid:
    # verdicts must equal the support-overlap rule.  The literal "iff
    # p != q and p, q in (0,1)" statement disagrees at mixed boundary
    # points such as (1, 0.5), where the supports {0} and {0, 1} do
    # overlap; we record those as documented discrepancies.
    ok = True
    discrepancies = []
    for p, q in itertools.product((0.0, 0.5, 1.0), repeat=2):
        verdict = classical_compatible(dist([p, 1 - p]), dist([q, 1 - q])).compatible
        overlap = bool(
            ({i for i, v in enumerate((p, 1 - p)) if v > 0}
             & {i for i, v in enumerate((q, 1 - q)) if v > 0})
        )
        ok &= verdict == overlap
        strict_interior_rule = (p != q) and (0 < p < 1) and (0 < q < 1)
        if verdict != strict_interior_rule:
            discrepancies.append((p, q))
    ok &= (1.0, 0.5) in discrepancies  # known discrepancy, flagged not hidden
    report(3, "binary boundary verdicts follow support overlap", ok)


def test_04_classical_embedding_of_quantum_pool():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        prior, p1, p2 = (rand_prob(rng, d, full_support=True) for _ in range(3))
        qr = quantum_pool(np.diag(prior), np.diag(p1), np.diag(p2))
        want, _ = closed_form_pool(prior, p1, p2)
        worst = max(worst, max_norm(np.diagonal(qr.pooled).real - want))
    report(4, f"diagonal quantum_pool == closed-form classical pool (worst {worst:.2e})",
           worst <= 1e-10)


def test_05_pooling_absorption_identities():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        rho = rand_density(rng, d)  # full rank almost surely
        sigma = rand_density(rng, d)
        worst = max(worst, max_norm(quantum_pool(rho, rho, sigma).pooled - sigma))
        worst = max(worst, max_norm(quantum_pool(rho, sigma, rho).pooled - sigma))
    report(5, f"pool(r,r,s) == pool(r,s,r) == s (worst {worst:.2e})", worst <= 1e-10)


def test_06_star_product_algebra():
    rng = np.random.default_rng(6)
    ok = True
    worst_trace = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        psi_h = rand_herm(rng, d)
        ok &= max_norm(star_product(psi_h, np.eye(d)) - psi_h) == 0.0  # exact
        phi = rand_psd(rng, d)
        out = star_product(psi_h, phi)
        scale = max(max_norm(out), 1.0)
        ok &= max_norm(out - out.conj().T) <= 1e-12 * scale
        psi_p = rand_psd(rng, d)
        out_p = star_product(psi_p, phi)
        ok &= np.linalg.eigvalsh(out_p).min() >= -1e-10 * max(max_norm(out_p), 1.0)
        lhs = np.trace(star_product(psi_h, phi))
        rhs = np.trace(psi_h @ phi)
        worst_trace = max(worst_trace, abs(lhs - rhs) / max(abs(rhs), 1.0))
    report(6, f"star product algebra (worst trace defect {worst_trace:.2e})",
           ok and worst_trace <= 1e-10)


def test_07_quantum_bayes_rule():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        rho = rand_density(rng, d)
        povm = rand_povm(rng, d, int(rng.integers(2, 5)))
        for effect in povm:
            post = quantum_bayes(effect, rho)
            ok &= abs(np.trace(post).real - 1.0) <= 1e-10
            ok &= np.linalg.eigvalsh(post).min() >= -1e-10
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        prior = rand_prob(rng, d, full_support=True)
        like = rng.random(d) + 0.05
        classical = like * prior / (like * prior).sum()
        got = quantum_bayes(np.diag(like), np.diag(prior))
        worst = max(worst, max_norm(got - np.diag(classical)))
    report(7, f"quantum Bayes posteriors valid; diagonal defect {worst:.2e}",
           ok and worst <= 1e-12)


def test_08_conditional_independence_residuals():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 6))
        h1 = {a: rand_psd(rng, d) for a in range(2)}
        h2 = {b: rand_psd(rng, d) for b in range(2)}
        joint = {(a, b): h1[a] @ h2[b] for a in h1 for b in h2}
        passed, res, _ = check_conditional_independence(h1, h2, joint)
        ok &= passed and res <= 1e-12
        eps = float(rng.uniform(0.01, 0.2))
        e = rand_herm(rng, d)
        e /= max_norm(e)
        joint[(0, 0)] = joint[(0, 0)] + eps * e
        failed, res2, _ = check_conditional_independence(h1, h2, joint)
        ok &= (not failed) and abs(res2 - eps) <= 0.1 * eps
    report(8, "conditional-independence residuals track the injected defect", ok)


def test_09_pooled_map_nonlinearity_witness():
    # frozen regression triple: depolarizing assignments (weights 1/2, 1/4),
    # diagonal qubit priors diag(.8,.2) and diag(.3,.7), alpha = 1/2;
    # expected gap computed independently with exact rational arithmetic
    a1, a2 = DepolarizingChannel(2, 0.5).apply, DepolarizingChannel(2, 0.25).apply
    gamma = lambda r: quantum_pool(r, a1(r), a2(r))  # the pooled assignment map
    rho = np.diag([0.8, 0.2])
    rhop = np.diag([0.3, 0.7])
    mixed = gamma(0.5 * rho + 0.5 * rhop).pooled
    convex = 0.5 * gamma(rho).pooled + 0.5 * gamma(rhop).pooled
    gap = max_norm(mixed - convex)
    expected_gap = abs(8127 / 15860 - 29637 / 58910)
    report(9, f"pooled map nonlinearity gap {gap:.4e}",
           gap > 1e-3 and abs(gap - expected_gap) < 1e-12)


def test_10_scenario_batch_determinism(capsys):
    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    code1, out1 = run("scenario-batch", "--dim", "2", "3", "--count", "50",
                      "--noise", "0.0", "0.5", "--seed", "11")
    code2, out2 = run("scenario-batch", "--dim", "2", "3", "--count", "50",
                      "--noise", "0.0", "0.5", "--seed", "11")
    ok = code1 == code2 == 0 and out1.encode() == out2.encode()
    rows = json.loads(out1)["rows"]
    noiseless = [r for r in rows if r["noise"] == 0.0]
    ok &= all(r["frac_compatible"] == 1.0 for r in noiseless)
    _, out3 = run("scenario-batch", "--dim", "2", "--count", "50",
                  "--seed", "11", "--generator", "adversarial")
    ok &= all(r["frac_compatible"] == 0.0 for r in json.loads(out3)["rows"])
    with capsys.disabled():
        print()
    report(10, "batch determinism, noiseless 1.0, adversarial 0.0", ok)
