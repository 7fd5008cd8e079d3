"""The pooling product against a prior one Cholesky certifies positive definite:
one LU solve, s1 @ solve(prior, s2), instead of the pseudo-inverse from the
prior's eigendecomposition.  Its accuracy against a 40-digit reference, a
pinned draw only the solve pools, and batch verdicts that do not move."""

import mpmath
import pytest

from statepool import scenario
from statepool.errors import NonHermitianPoolingProductError
from statepool.linalg import Spectrum, _certified_full_rank, _spectrum
from statepool.pooling import _pool, quantum_pool
from statepool.scenario import batch_report

from oracles import commuting_bayes_draw, spectral_pool


def mp_matrix(m):
    return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in m])


def relative_error(t, exact):
    """max|t - exact| / max|exact|, entrywise, at the working precision of ``exact``."""
    d = t.shape[0]
    cells = [(i, j) for i in range(d) for j in range(d)]
    diff = max(abs(mpmath.mpc(complex(t[i, j])) - exact[i, j]) for i, j in cells)
    return float(diff / max(abs(exact[i, j]) for i, j in cells))


@pytest.mark.parametrize("d", [2, 4, 8, 16])
@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
def test_solve_is_no_less_accurate_than_the_pseudo_inverse(d, kappa):
    # both products against s1 prior^-1 s2 of the same float inputs, at 40 digits
    with mpmath.workdps(40):
        for seed in range(3):
            prior, s1, s2 = commuting_bayes_draw(d, kappa, seed)
            assert _certified_full_rank(prior, 1e-10)
            exact = mp_matrix(s1) * mpmath.inverse(mp_matrix(prior)) * mp_matrix(s2)
            solved = relative_error(_spectrum(prior, 1e-10).pool_product(s1, s2), exact)
            inverted = relative_error(Spectrum.of(prior).pool_product(s1, s2), exact)
            assert solved <= inverted


def test_pinned_draw_only_the_solve_pools():
    # d = 2, cond(prior) = 1e9: the pseudo-inverse's rounding alone leaves a
    # relative residual above herm_tol = 1e-8; the solve's is far below it
    prior, s1, s2 = commuting_bayes_draw(2, 1e9, 5)
    with pytest.raises(NonHermitianPoolingProductError) as exc:
        spectral_pool(prior, s1, s2)
    assert exc.value.residual > 1.1e-8
    report = quantum_pool(prior, s1, s2)
    assert report.hermiticity_residual <= 1e-10
    with mpmath.workdps(40):
        t = mp_matrix(s1) * mpmath.inverse(mp_matrix(prior)) * mp_matrix(s2)
        pooled = (t + t.H) / (2 * sum(t[i, i] for i in range(2)))
        assert relative_error(report.pooled, pooled) <= 1e-9


def test_batch_verdicts_do_not_move(monkeypatch):
    # every cell of d = 2..64 by noise 0, 0.5, 1: the pooling prior is certified
    # and solved against, and the rows keep the pseudo-inverse path's fractions
    dims, noise = range(2, 65), [0.0, 0.5, 1.0]
    rows = batch_report(dims, 2, noise, 3)
    decomposed = []

    def pool_on_the_spectrum(prior, *rest):
        certified = not isinstance(prior, Spectrum)
        decomposed.append(certified)
        return _pool(Spectrum.of(prior.a, rest[-1].rank_tol) if certified else prior, *rest)

    monkeypatch.setattr(scenario, "_pool", pool_on_the_spectrum)
    oracle = batch_report(dims, 2, noise, 3)
    assert len(rows) == len(oracle) == 63 * 3
    assert decomposed == [True] * (63 * 3 * 2)  # every instance pools, every prior certified
    for row, want in zip(rows, oracle):
        assert {k: v for k, v in row.items() if k != "mean_hermiticity_residual"} == {
            k: v for k, v in want.items() if k != "mean_hermiticity_residual"}
        assert abs(row["mean_hermiticity_residual"] - want["mean_hermiticity_residual"]) <= (
            1e-11 * want["mean_hermiticity_residual"])
