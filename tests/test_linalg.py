import re

import numpy as np
import pytest

from statepool.errors import DimensionMismatchError, InvalidParameterError
from statepool.linalg import (
    Subspace,
    check_hermitian,
    embed,
    max_norm,
    partial_trace,
    permute_factors,
    pseudo_inverse,
    sqrt_psd,
    subspace_intersection,
    support_projector,
    tensor,
)

from oracles import rand_density, rand_herm, rand_psd

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KETP = np.array([1.0, 1.0]) / np.sqrt(2)


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


class TestTensor:
    def test_identity(self):
        assert max_norm(tensor(np.eye(2), np.eye(2)) - np.eye(4)) == 0

    def test_diagonal_hand_kronecker(self):
        # diag(1,2) (x) diag(3,4) = diag(3,4,6,8), computed by hand
        got = tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert max_norm(got - np.diag([3.0, 4.0, 6.0, 8.0])) == 0

    def test_left_factor_is_first_region(self):
        # |0><0| (x) |1><1| has its single 1 at row-major block index (1,1)
        got = tensor(proj(KET0), proj(KET1))
        want = np.zeros((4, 4))
        want[1, 1] = 1.0
        assert max_norm(got - want) == 0

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(0)
        a, b = rand_herm(rng, 3), rand_herm(rng, 4)
        assert np.trace(tensor(a, b)) == pytest.approx(np.trace(a) * np.trace(b))

    def test_associative_up_to_reindexing(self):
        rng = np.random.default_rng(1)
        a, b, c = (rand_herm(rng, d) for d in (2, 3, 2))
        assert max_norm(tensor(tensor(a, b), c) - tensor(a, tensor(b, c))) < 1e-12


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(2)
        ra, rb = rand_density(rng, 2), rand_density(rng, 3)
        got = partial_trace(tensor(ra, rb), [2, 3], [0])
        assert max_norm(got - ra) < 1e-12

    def test_bell_state_marginal(self):
        # Tr_B |Phi+><Phi+| = I/2, by hand
        phi = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
        got = partial_trace(proj(phi), [2, 2], [0])
        assert max_norm(got - np.eye(2) / 2) < 1e-12

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(3)
        m = rand_herm(rng, 5)
        assert max_norm(partial_trace(m, [5], [0]) - m) == 0

    def test_trace_preserved_and_order_commutes(self):
        rng = np.random.default_rng(4)
        m = rand_herm(rng, 12)
        dims = [2, 3, 2]
        assert partial_trace(m, dims, []).item() == pytest.approx(np.trace(m))
        a = partial_trace(partial_trace(m, dims, [0, 1]), [2, 3], [0])
        b = partial_trace(partial_trace(m, dims, [0, 2]), [2, 2], [0])
        assert max_norm(a - b) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(4), [2, 3], [0])


@pytest.mark.parametrize("call, error", [
    (lambda: partial_trace(np.eye(4) / 4, [-2, -2], [0]), InvalidParameterError),
    (lambda: partial_trace(np.eye(1), [0], []), InvalidParameterError),
    (lambda: partial_trace(np.eye(4) / 4, [2, 2], [-1]), DimensionMismatchError),
    (lambda: partial_trace(np.eye(4) / 4, [2, 2], [0, 0]), DimensionMismatchError),
    (lambda: embed(np.eye(2), [2, 2], [2]), DimensionMismatchError),
    (lambda: embed(np.eye(2), [2, 2], [-1]), DimensionMismatchError),
    (lambda: embed(np.eye(4), [2, 2], [0, 0]), DimensionMismatchError),
    (lambda: embed(np.eye(2), [2, -1], [0]), InvalidParameterError),
    (lambda: permute_factors(np.eye(4), [2, 2], [1, 1]), DimensionMismatchError),
    (lambda: permute_factors(np.eye(4), [2, 2], [2, 0]), DimensionMismatchError),
    (lambda: permute_factors(np.eye(4), [2, 2], [0]), DimensionMismatchError),
    (lambda: permute_factors(np.eye(4), [4, 1, 0], [0, 1, 2]), InvalidParameterError),
], ids=["partial_trace dims -2", "partial_trace dim 0", "partial_trace keep -1",
        "partial_trace keep twice", "embed position 2", "embed position -1", "embed position twice",
        "embed dim -1", "permute_factors entry twice", "permute_factors entry 2",
        "permute_factors too short", "permute_factors dim 0"])
def test_factor_dims_and_positions_rule(call, error):
    """A dim < 1 is InvalidParameterError; a position out of range or named twice is
    DimensionMismatchError, never a numpy error or another function's message."""
    with pytest.raises(error, match=r"dim -?\d+ < 1|distinct factors|not a permutation"):
        call()


class TestEmbedPermute:
    def test_embed_matches_manual_kron(self):
        rng = np.random.default_rng(5)
        op = rand_herm(rng, 3)
        got = embed(op, [2, 3, 2], [1])
        want = np.kron(np.kron(np.eye(2), op), np.eye(2))
        assert max_norm(got - want) < 1e-12

    def test_embed_two_factors_out_of_order(self):
        rng = np.random.default_rng(6)
        a, b = rand_herm(rng, 2), rand_herm(rng, 3)
        got = embed(np.kron(b, a), [2, 3], [1, 0])
        assert max_norm(got - np.kron(a, b)) < 1e-12

    def test_permute_roundtrip(self):
        rng = np.random.default_rng(7)
        m = rand_herm(rng, 12)
        p = permute_factors(m, [2, 3, 2], [2, 0, 1])
        q = permute_factors(p, [2, 2, 3], [1, 2, 0])
        assert max_norm(q - m) < 1e-12


class TestSqrtPsd:
    def test_identity(self):
        assert max_norm(sqrt_psd(np.eye(3)) - np.eye(3)) < 1e-12

    def test_diagonal(self):
        assert max_norm(sqrt_psd(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])) < 1e-12

    def test_hand_spectral_example(self):
        # ((5,3),(3,5))/8 has eigenvalues 1 and 1/4 on |+>, |-⟩
        h = np.array([[5.0, 3.0], [3.0, 5.0]]) / 8
        r = sqrt_psd(h)
        assert max_norm(r @ r - h) < 1e-12

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_square_reproduces_input(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            h = rand_psd(rng, dim)
            r = sqrt_psd(h)
            assert max_norm(r @ r - h) <= 1e-10 * max(max_norm(h), 1.0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError,
                           match=r"^h is not PSD \(eigenvalue -5\.000e-01\)"):
            sqrt_psd(np.diag([1.0, -0.5]))


class TestPseudoInverse:
    def test_diagonal_with_kernel(self):
        assert max_norm(pseudo_inverse(np.diag([2.0, 0.0])) - np.diag([0.5, 0.0])) < 1e-12

    def test_identity(self):
        assert max_norm(pseudo_inverse(np.eye(4)) - np.eye(4)) < 1e-12

    def test_full_rank_gives_identity(self):
        rng = np.random.default_rng(8)
        rho = rand_density(rng, 4)
        assert max_norm(rho @ pseudo_inverse(rho) - np.eye(4)) < 1e-10

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_moore_penrose_identities(self, rank):
        rng = np.random.default_rng(rank)
        h = rand_psd(rng, 4, rank=rank)
        p = pseudo_inverse(h)
        assert max_norm(p @ h @ p - p) < 1e-9
        assert max_norm(h @ p @ h - h) < 1e-9

    def test_product_is_support_projector(self):
        rng = np.random.default_rng(9)
        h = rand_psd(rng, 5, rank=3)
        assert max_norm(h @ pseudo_inverse(h) - support_projector(h).projector()) < 1e-9


class TestSupportProjector:
    def test_rank_one(self):
        s = support_projector(proj(KET0))
        assert s.rank == 1
        assert max_norm(s.projector() - proj(KET0)) < 1e-12

    def test_full_rank(self):
        assert support_projector(np.eye(2) / 2).rank == 2

    def test_thresholding_relative(self):
        assert support_projector(np.diag([1.0, 1e-15]), rank_tol=1e-10).rank == 1

    def test_zero_operator(self):
        assert support_projector(np.zeros((3, 3))).is_empty


class TestSubspaceIntersection:
    def test_orthogonal_lines(self):
        a = Subspace(2, KET0.reshape(2, 1))
        b = Subspace(2, KET1.reshape(2, 1))
        assert subspace_intersection(a, b).is_empty

    def test_subset(self):
        a = Subspace(2, KET0.reshape(2, 1))
        got = subspace_intersection(a, Subspace.full(2))
        assert got.rank == 1 and max_norm(got.projector() - proj(KET0)) < 1e-12

    def test_distinct_lines_in_plane(self):
        a = Subspace(2, KET0.reshape(2, 1))
        b = Subspace(2, KETP.reshape(2, 1))
        assert subspace_intersection(a, b).is_empty

    def test_symmetric_and_idempotent(self):
        rng = np.random.default_rng(10)
        pa = support_projector(rand_psd(rng, 5, rank=3))
        pb = support_projector(rand_psd(rng, 5, rank=4))
        ab = subspace_intersection(pa, pb)
        ba = subspace_intersection(pb, pa)
        assert ab.rank == ba.rank <= min(pa.rank, pb.rank)
        assert max_norm(ab.projector() - ba.projector()) < 1e-9
        aa = subspace_intersection(pa, pa)
        assert max_norm(aa.projector() - pa.projector()) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            subspace_intersection(Subspace.full(2), Subspace.full(3))


def test_check_hermitian_rejects_far_from_hermitian():
    with pytest.raises(ValueError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), "m")


def test_check_hermitian_reads_a_nested_list_as_a_matrix():
    check_hermitian([[1.0, 2j], [-2j, 1.0]], "m")
    with pytest.raises(InvalidParameterError, match="^m is not Hermitian"):
        check_hermitian([[0.0, 1.0], [0.0, 0.0]], "m")
    for bad in ([1.0, 2.0], [[]]):  # not square: a StatePoolError, not an AttributeError
        with pytest.raises(DimensionMismatchError):
            check_hermitian(bad, "m")


@pytest.mark.parametrize("shape", [(2,), (2, 3), (0, 0)], ids=["1-D", "2x3", "0x0"])
def test_check_hermitian_rejects_an_ndarray_that_is_no_square_matrix(shape):
    # as as_matrix says, from the shape alone: an ndarray's entries are not re-checked
    message = f"expected a nonempty square matrix, got shape {shape}"
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
        check_hermitian(np.zeros(shape, complex), "m")
