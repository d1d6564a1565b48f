"""Matrix-kernel primitives: nullspace bases, rank rules, subspace distance."""

import numpy as np
import pytest

from decoupsim.channels import correlation_matrix, matrix_sqrt_psd
from decoupsim.errors import InvalidInputError
from decoupsim.kernels import (
    SubspaceBasis,
    _certified_full_rank,
    _full_rank_r,
    _rank_cutoff,
    as_complex_matrix,
    left_nullspace_basis,
    numerical_rank,
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


class TestSubspaceDistance:
    def test_identical_subspaces(self):
        b = SubspaceBasis(np.eye(4)[:2].astype(complex))
        assert subspace_distance(b, b) == 0.0

    def test_orthogonal_lines_in_c2(self):
        e1 = SubspaceBasis(np.eye(2)[:1].astype(complex))
        e2 = SubspaceBasis(np.eye(2)[1:].astype(complex))
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
            subspace_distance(SubspaceBasis(np.eye(3, dtype=complex)),
                              SubspaceBasis(np.eye(4, dtype=complex)))


class TestSubspaceBasisInvariants:
    def test_rejects_non_orthonormal_rows(self):
        with pytest.raises(InvalidInputError):
            SubspaceBasis(np.array([[1.0, 1.0]], dtype=complex))

    def test_rejects_more_rows_than_ambient_dims(self):
        with pytest.raises(InvalidInputError):
            SubspaceBasis(np.eye(3, dtype=complex)[:, :2])

    def test_identity_basis_spans_everything(self):
        b = SubspaceBasis(np.eye(5, dtype=complex))
        assert b.dim == 5
        assert np.allclose(b.projector(), np.eye(5))



class TestInputCoercion:
    def test_three_dimensional_input_rejected(self):
        with pytest.raises(InvalidInputError, match="ndim=3"):
            as_complex_matrix(np.zeros((2, 2, 2)))

    def test_empty_matrix_has_rank_zero(self):
        assert numerical_rank(np.zeros((0, 3))) == 0


def r_stack(a):
    """The square R factors of a stack of tall matrices, as the SD fold takes them."""
    return np.linalg.qr(a, mode="complete")[1][..., :a.shape[-1], :]


def rule_full(r, t):
    """The one rank rule on each member's singular values (the SVD fallback)."""
    s = np.linalg.svd(r, compute_uv=False)
    return s[:, -1] > _rank_cutoff(s, (t, r.shape[-1]))


def certificate_cases():
    """Stacks of tall t x M halves, named, from generic to rank-deficient."""
    rng = np.random.default_rng(81)
    generic = crandn(rng, 3, 170, 80)
    cases = {"generic_k80": generic}
    for amplitude in (1e-8, 1e-12):
        faint = generic.copy()
        faint[:, :, :2] *= amplitude
        cases[f"faint_{amplitude:g}"] = faint
    pair = crandn(rng, 3, 20, 4)
    pair[:, :, 2:] = pair[:, :, :2] + 1e-10 * crandn(rng, 3, 20, 2)
    cases["near_collinear_pair"] = pair
    dup = crandn(rng, 3, 24, 6)
    dup[1, :, 5] = dup[1, :, 0]
    cases["duplicated_column"] = dup
    zero = crandn(rng, 3, 24, 6)
    zero[2] = 0.0
    cases["zero"] = zero
    for rho in (0.9, 0.99):
        rx, tx = (matrix_sqrt_psd(correlation_matrix(rho, n)) for n in (64, 30))
        cases[f"kronecker_{rho}"] = rx @ crandn(rng, 4, 64, 30) @ tx
    return cases


class TestFullRankCertificate:
    """The shifted-Cholesky certificate never claims more than the rank rule."""

    @pytest.mark.parametrize("name,a", certificate_cases().items())
    def test_never_certifies_what_the_rule_calls_deficient(self, name, a):
        r = r_stack(a)
        full = rule_full(r, a.shape[-2])
        if _certified_full_rank(r):
            assert full.all(), name
        # members are certified one by one just as in a stack
        for member, ok in zip(r, full):
            if _certified_full_rank(member[None]):
                assert ok, name

    @pytest.mark.parametrize("name,expected", [
        ("generic_k80", True),
        ("faint_1e-08", False),     # sigma ratio 1e-8 is full, but below the shift
        ("near_collinear_pair", False),
        ("duplicated_column", False),
        ("zero", False),
    ])
    def test_decision_on_named_cases(self, name, expected):
        assert _certified_full_rank(r_stack(certificate_cases()[name])) is expected

    def test_sigma_ratios_across_the_shift_and_the_cutoff(self):
        rng = np.random.default_rng(82)
        t, m = 40, 12
        for ratio in 10.0 ** -np.arange(0.0, 17.0, 0.5):
            u = np.linalg.qr(crandn(rng, t, m))[0]
            v = np.linalg.qr(crandn(rng, m, m))[0]
            s = np.geomspace(1.0, ratio, m)
            r = r_stack((u * s) @ v.conj().T)[None]
            certified = _certified_full_rank(r)
            if certified:
                assert rule_full(r, t).all()
            # the shift's square root (1e-4) sets the certificate's reach
            if ratio >= 1e-3:
                assert certified, ratio
            elif ratio < 1e-5:
                assert not certified, ratio

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e300, 1e-300])
    def test_extreme_scales_neither_overflow_nor_underflow(self, scale):
        cases = certificate_cases()
        for name in ("generic_k80", "duplicated_column"):
            r = r_stack(cases[name])
            scaled = r * scale
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                assert _certified_full_rank(scaled) is _certified_full_rank(r), name

    def test_non_finite_entries_are_not_certified(self):
        r = r_stack(certificate_cases()["generic_k80"])
        r[1, 0, 0] = np.nan
        assert not _certified_full_rank(r)
        r[1, 0, 0] = np.inf
        assert not _certified_full_rank(r)


class TestFullRankR:
    """The one pivot rule that PINV and SIC apply to R's diagonal."""

    @pytest.mark.parametrize("name,a", certificate_cases().items())
    def test_verdict_is_scale_free(self, name, a):
        r = np.linalg.qr(a)[1]
        full = _full_rank_r(r, a.shape[-2:])
        assert full.shape == (a.shape[0],)
        for scale in (2.0 ** -50, 2.0 ** 50):
            assert np.array_equal(_full_rank_r(np.linalg.qr(a * scale)[1], a.shape[-2:]), full)
