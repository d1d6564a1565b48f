"""Matrix-kernel primitives: nullspace bases, QR, pseudo-inverse, subspace distance."""

import numpy as np
import pytest

from decoupsim import flops
from decoupsim.errors import InvalidInputError, ShapeError
from decoupsim.kernels import (
    QrFactors,
    SubspaceBasis,
    identity_basis,
    left_nullspace_basis,
    numerical_rank,
    pseudo_inverse,
    qr_decompose,
    subspace_distance,
)


def crandn(rng, *shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestLeftNullspaceBasis:
    def test_full_rank_square_has_empty_nullspace(self):
        basis = left_nullspace_basis(np.eye(2))
        assert basis.dim == 0
        assert basis.ambient_dim == 2

    def test_zero_matrix_gives_canonical_identity(self):
        basis = left_nullspace_basis(np.zeros((4, 2)))
        assert basis.basis.shape == (4, 4)
        assert np.array_equal(basis.basis, np.eye(4))

    def test_random_tall_matrix_annihilates_and_is_orthonormal(self):
        rng = np.random.default_rng(11)
        a = crandn(rng, 6, 2)
        basis = left_nullspace_basis(a)
        assert basis.dim == 4
        assert np.linalg.norm(basis.basis @ a) <= 1e-10 * np.linalg.norm(a)
        gram = basis.basis @ basis.basis.conj().T
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-12

    def test_projector_matches_direct_svd_oracle(self):
        # oracle: build the projector straight from numpy's SVD of the input
        rng = np.random.default_rng(12)
        a = crandn(rng, 6, 2)
        u, s, _ = np.linalg.svd(a, full_matrices=True)
        rank = int(np.sum(s > max(a.shape) * np.finfo(float).eps * s[0]))
        oracle_proj = u[:, rank:] @ u[:, rank:].conj().T
        basis = left_nullspace_basis(a)
        assert np.linalg.norm(basis.projector() - oracle_proj) <= 1e-12

    def test_rank_nullity_over_random_shapes(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            t = rng.integers(1, 10)
            m = rng.integers(1, 10)
            r = int(min(t, m, rng.integers(0, min(t, m) + 1)))
            a = crandn(rng, t, r) @ crandn(rng, r, m) if r else np.zeros((t, m), complex)
            assert left_nullspace_basis(a).dim + numerical_rank(a) == t

    def test_residual_bound_property(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            t, m = int(rng.integers(2, 12)), int(rng.integers(1, 12))
            a = crandn(rng, t, m)
            basis = left_nullspace_basis(a)
            if basis.dim:
                assert np.linalg.norm(basis.basis @ a) <= 1e-10 * np.linalg.norm(a)

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            left_nullspace_basis(bad)

    def test_default_rule_keeps_small_directions(self):
        a = np.diag([1.0, 1e-6]).astype(complex)
        assert left_nullspace_basis(a).dim == 0


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_diagonal_with_zero(self):
        assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_penrose_conditions_vs_normal_equation_oracle(self):
        rng = np.random.default_rng(21)
        a = crandn(rng, 8, 4)
        p = pseudo_inverse(a)
        # oracle: full-column-rank formula via an independent dense solve
        oracle = np.linalg.solve(a.conj().T @ a, a.conj().T)
        assert np.linalg.norm(p - oracle) <= 1e-9 * np.linalg.norm(oracle)
        for lhs, rhs in [(a @ p @ a, a), (p @ a @ p, p)]:
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)
        for prod in [a @ p, p @ a]:
            assert np.linalg.norm(prod - prod.conj().T) <= 1e-9

    def test_row_orthonormal_pinv_is_adjoint(self):
        rng = np.random.default_rng(22)
        basis = left_nullspace_basis(crandn(rng, 6, 2)).basis
        assert np.linalg.norm(pseudo_inverse(basis) - basis.conj().T) <= 1e-10


class TestQrDecompose:
    def test_identity(self):
        f = qr_decompose(np.eye(2))
        assert np.allclose(f.q, np.eye(2))
        assert np.allclose(f.r, np.eye(2))

    def test_single_column_phase_convention(self):
        f = qr_decompose(np.array([[0.0], [3.0j]]))
        assert np.allclose(f.q, np.array([[0.0], [1.0j]]))
        assert np.allclose(f.r, np.array([[3.0]]))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(31)
        a = crandn(rng, 4, 2)
        f = qr_decompose(a)
        assert np.linalg.norm(f.q @ f.r - a) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(f.q.conj().T @ f.q - np.eye(2)) <= 1e-10

    def test_diagonal_real_non_negative_and_triangular(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            a = crandn(rng, 6, 4)
            r = qr_decompose(a).r
            d = np.diagonal(r)
            assert np.all(d.imag == 0.0)
            assert np.all(d.real >= 0.0)
            assert np.allclose(np.tril(r, -1), 0.0)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ShapeError):
            qr_decompose(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            qr_decompose(np.ones((4, 2, 3)))

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(33)
        stack = crandn(rng, 5, 7, 3)
        stack[2, :, 1] = 0.0  # a zero column keeps its unit phase
        f = qr_decompose(stack)
        assert f.q.shape == (5, 7, 3) and f.r.shape == (5, 3, 3)
        for g in range(5):
            one = qr_decompose(stack[g])
            assert np.array_equal(f.q[g], one.q)
            assert np.array_equal(f.r[g], one.r)

    def test_stack_charges_once_per_matrix(self):
        rng = np.random.default_rng(34)
        stack = crandn(rng, 4, 7, 3)  # the model price of one 7 x 3 QR is a whole number
        with flops.counting() as one:
            qr_decompose(stack[0])
        with flops.counting() as tally:
            qr_decompose(stack)
        assert one.total > 0
        assert tally.total == 4 * one.total


class TestSubspaceDistance:
    def test_identical_subspaces(self):
        b = SubspaceBasis(np.eye(4)[:2].astype(complex), 4)
        assert subspace_distance(b, b) == 0.0

    def test_orthogonal_lines_in_c2(self):
        e1 = SubspaceBasis(np.eye(2)[:1].astype(complex), 2)
        e2 = SubspaceBasis(np.eye(2)[1:].astype(complex), 2)
        assert subspace_distance(e1, e2) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_right_multiplication_preserves_left_nullspace(self):
        rng = np.random.default_rng(41)
        a = crandn(rng, 6, 2)
        unitary = np.linalg.qr(crandn(rng, 2, 2))[0]
        b1 = left_nullspace_basis(a)
        b2 = left_nullspace_basis(a @ unitary)
        assert subspace_distance(b1, b2) <= 1e-10

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            bases = [
                left_nullspace_basis(crandn(rng, 6, int(rng.integers(1, 4))))
                for _ in range(3)
            ]
            d01 = subspace_distance(bases[0], bases[1])
            d10 = subspace_distance(bases[1], bases[0])
            d12 = subspace_distance(bases[1], bases[2])
            d02 = subspace_distance(bases[0], bases[2])
            assert d01 >= 0.0
            assert d01 == pytest.approx(d10, abs=1e-12)
            assert d02 <= d01 + d12 + 1e-9

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            subspace_distance(identity_basis(3), identity_basis(4))


class TestSubspaceBasisInvariants:
    def test_rejects_non_orthonormal_rows(self):
        with pytest.raises(InvalidInputError):
            SubspaceBasis(np.array([[1.0, 1.0]], dtype=complex), 2)

    def test_rejects_more_rows_than_ambient_dims(self):
        with pytest.raises(InvalidInputError):
            SubspaceBasis(np.eye(3, dtype=complex)[:, :2], 2)

    def test_identity_basis_spans_everything(self):
        b = identity_basis(5)
        assert b.dim == 5
        assert np.allclose(b.projector(), np.eye(5))
