"""Decoupler constructions and the nullspace recursion behind them."""

import numpy as np
import pytest

from decoupsim import decouplers, flops
from decoupsim.errors import InfeasibleSystemError, InvalidInputError, SingularMatrixError
from decoupsim.kernels import SubspaceBasis, identity_basis, left_nullspace_basis, subspace_distance
from decoupsim.decouplers import (
    DecouplerSet,
    SystemChannel,
    include_users,
    partition_tree,
    pinv_decoupler,
    recursive_common_nullspace,
    sequential_decoupler,
    svd_decoupler,
    verify_decoupling,
)


def crandn(rng, *shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_system(rng, n_r, k, m_i):
    if isinstance(m_i, int):
        m_i = [m_i] * k
    return SystemChannel(n_r, [crandn(rng, n_r, m) for m in m_i])


def basis_of(w, n_r):
    return SubspaceBasis(w, n_r)


class TestSystemChannel:
    def test_dimensions_and_derived_quantities(self):
        rng = np.random.default_rng(0)
        sys = random_system(rng, 12, 3, [2, 3, 2])
        assert sys.k == 3
        assert sys.m_total == 7
        assert sys.m_bar(1) == 4
        assert sys.complement(1).shape == (12, 4)
        assert sys.stacked().shape == (12, 7)

    def test_infeasible_rejected_naming_user(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InfeasibleSystemError, match="user 0"):
            random_system(rng, 4, 3, 2)

    def test_wrong_row_count_rejected(self):
        with pytest.raises(Exception):
            SystemChannel(4, [np.ones((3, 1))])


class TestRecursiveCommonNullspace:
    def test_empty_block_list_returns_start(self):
        z0 = identity_basis(4)
        assert recursive_common_nullspace([], z0) is z0

    def test_annihilate_one_coordinate(self):
        e2 = np.zeros((4, 1), complex)
        e2[1, 0] = 1.0
        z = recursive_common_nullspace([e2], identity_basis(4))
        expected = SubspaceBasis(np.eye(4)[[0, 2, 3]].astype(complex), 4)
        assert z.dim == 3
        assert subspace_distance(z, expected) <= 1e-10

    def test_matches_concatenated_svd_oracle(self):
        rng = np.random.default_rng(5)
        a, b = crandn(rng, 6, 2), crandn(rng, 6, 2)
        z = recursive_common_nullspace([a, b], identity_basis(6))
        oracle = left_nullspace_basis(np.concatenate([a, b], axis=1))
        assert z.dim == 2
        assert subspace_distance(z, oracle) <= 1e-9

    def test_order_insensitive(self):
        rng = np.random.default_rng(6)
        a, b = crandn(rng, 8, 3), crandn(rng, 8, 2)
        z_ab = recursive_common_nullspace([a, b], identity_basis(8))
        z_ba = recursive_common_nullspace([b, a], identity_basis(8))
        assert subspace_distance(z_ab, z_ba) <= 1e-9

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            recursive_common_nullspace([np.ones((3, 1))], identity_basis(4))

    def test_tally_is_the_node_charge(self):
        # the fold is charged per block, like a sequential-decoupler node
        rng = np.random.default_rng(8)
        for n, m_a, m_b in ((6, 2, 1), (14, 3, 4)):
            blocks = [crandn(rng, n, m_a), crandn(rng, n, m_b)]
            with flops.counting() as tally:
                recursive_common_nullspace(blocks, identity_basis(n))
            expected = flops._node_charge(n, [m_a, m_b], flops.CostModel())
            assert tally.total == round(expected)

    def test_restricts_to_initial_subspace(self):
        rng = np.random.default_rng(7)
        z0 = left_nullspace_basis(crandn(rng, 8, 2))
        z = recursive_common_nullspace([crandn(rng, 8, 2)], z0)
        # every returned row must stay inside the row space of z0
        proj = z0.basis.conj().T @ z0.basis
        assert np.linalg.norm(z.basis @ proj - z.basis) <= 1e-10


class TestSequentialDecoupler:
    def test_single_user_gets_identity(self):
        rng = np.random.default_rng(10)
        sys = random_system(rng, 4, 1, 2)
        dec = sequential_decoupler(sys)
        assert np.array_equal(dec.w[0], np.eye(4))

    def test_two_coordinate_users(self):
        e1 = np.zeros((3, 1), complex); e1[0, 0] = 1.0
        e2 = np.zeros((3, 1), complex); e2[1, 0] = 1.0
        sys = SystemChannel(3, [e1, e2])
        dec = sequential_decoupler(sys)
        span_w1 = SubspaceBasis(np.eye(3)[[0, 2]].astype(complex), 3)
        span_w2 = SubspaceBasis(np.eye(3)[[1, 2]].astype(complex), 3)
        assert dec.w[0].shape == (2, 3) and dec.w[1].shape == (2, 3)
        assert subspace_distance(basis_of(dec.w[0], 3), span_w1) <= 1e-10
        assert subspace_distance(basis_of(dec.w[1], 3), span_w2) <= 1e-10

    def test_matches_per_user_svd_oracle(self):
        rng = np.random.default_rng(11)
        sys = random_system(rng, 12, 4, 2)
        dec = sequential_decoupler(sys)
        for i in range(4):
            assert dec.w[i].shape == (6, 12)
            oracle = left_nullspace_basis(sys.complement(i))
            assert subspace_distance(basis_of(dec.w[i], 12), oracle) <= 1e-9

    def test_non_power_of_two_users(self):
        rng = np.random.default_rng(12)
        sys = random_system(rng, 12, 5, 2)
        dec = sequential_decoupler(sys)
        assert dec.k == 5
        leaves = partition_tree(sys)[-1]
        assert len(leaves) == 8
        assert sum(1 for leaf in leaves if not leaf.pending) == 3
        for i in range(5):
            oracle = left_nullspace_basis(sys.complement(i))
            assert subspace_distance(basis_of(dec.w[i], 12), oracle) <= 1e-9

    def test_row_orthonormality(self):
        rng = np.random.default_rng(13)
        sys = random_system(rng, 16, 6, 2)
        dec = sequential_decoupler(sys)
        assert dec.row_orthonormal
        for w in dec.w:
            t = w.shape[0]
            assert np.linalg.norm(w @ w.conj().T - np.eye(t)) <= 1e-9

    def test_mixed_stream_counts(self):
        rng = np.random.default_rng(14)
        sys = random_system(rng, 20, 5, [2, 3, 2, 3, 2])
        dec = sequential_decoupler(sys)
        for i in range(5):
            assert dec.w[i].shape[0] == 20 - sys.m_bar(i)
            oracle = left_nullspace_basis(sys.complement(i))
            assert subspace_distance(basis_of(dec.w[i], 20), oracle) <= 1e-9

    def test_order_of_magnitude_sweep_of_sizes(self):
        rng = np.random.default_rng(15)
        for k in (2, 3, 6, 7, 9):
            sys = random_system(rng, 2 * k + 6, k, 2)
            rep = verify_decoupling(sys, sequential_decoupler(sys))
            assert rep.max_cross_residual <= 1e-10
            assert rep.all_full_rank()


class TestNodeUpdate:
    """One complete QR per annihilated half, with the per-block fold as fallback."""

    @pytest.fixture
    def fold_calls(self, monkeypatch):
        calls = []
        fold = decouplers._annihilate

        def spy(z, blocks):
            calls.append(len(blocks))
            return fold(z, blocks)

        monkeypatch.setattr(decouplers, "_annihilate", spy)
        return calls

    @staticmethod
    def assert_matches_svd(sd, oracle, n_r):
        for w_sd, w_svd in zip(sd.w, oracle.w, strict=True):
            assert w_sd.shape == w_svd.shape
            assert subspace_distance(basis_of(w_sd, n_r), basis_of(w_svd, n_r)) <= 1e-8

    def test_collinear_user_takes_the_fold_and_keeps_its_tally(self, fold_calls):
        rng = np.random.default_rng(70)
        users = [crandn(rng, 12, 2) for _ in range(4)]
        users[0][:, 1] = 2.0 * users[0][:, 0]
        sys = SystemChannel(12, users)
        with flops.counting() as tally:
            sd = sequential_decoupler(sys)
        assert fold_calls
        self.assert_matches_svd(sd, svd_decoupler(sys), 12)
        # per-block charge at the row counts the fold reaches: user 0's
        # rank-1 block removes one row, so user 1 is factored at t = 11
        model = flops.CostModel()

        def block(t, entry_dim):
            return model.matmul(t, entry_dim, 2) + model.svd_values(t, 2)

        expected = (block(12, 12) + block(10, 12) + block(12, 12) + block(11, 12)
                    + 2 * block(8, 8) + 2 * block(9, 9))
        assert tally.total == expected == 20068

    def test_faint_user_takes_the_fast_path(self, fold_calls):
        rng = np.random.default_rng(71)
        users = [crandn(rng, 24, 2) for _ in range(8)]
        unit = SystemChannel(24, users)
        faint = SystemChannel(24, [users[0] * 1e-8] + users[1:])
        sd = sequential_decoupler(faint)
        assert not fold_calls
        # scaling a user's columns leaves every nullspace unchanged; the
        # oracle runs at unit amplitude, where the SVD baseline is accurate
        self.assert_matches_svd(sd, svd_decoupler(unit), 24)
        assert verify_decoupling(faint, sd).max_cross_residual <= 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 16, 17, 80])
    def test_mixed_streams_match_oracle_and_estimate(self, k, fold_calls):
        rng = np.random.default_rng(72 + k)
        m_list = [1 + i % 3 for i in range(k)]
        n_r = sum(m_list) + 10
        sys = random_system(rng, n_r, k, m_list)
        with flops.counting() as tally:
            sd = sequential_decoupler(sys)
        assert not fold_calls
        assert tally.total == flops.estimate_flops("SD", n_r, m_list).total
        self.assert_matches_svd(sd, svd_decoupler(sys), n_r)

    def test_repeat_builds_are_bit_identical(self):
        rng = np.random.default_rng(73)
        sys = random_system(rng, 40, 13, [2 + i % 2 for i in range(13)])
        first, second = sequential_decoupler(sys), sequential_decoupler(sys)
        for a, b in zip(first.w, second.w, strict=True):
            assert a.tobytes() == b.tobytes()


class TestPartitionTree:
    def test_root_shape(self):
        rng = np.random.default_rng(20)
        sys = random_system(rng, 12, 4, 2)
        root = partition_tree(sys)[0][0]
        assert root.processed == ()
        assert root.pending == (0, 1, 2, 3)
        assert root.z.dim == 12

    def test_node_invariants(self):
        rng = np.random.default_rng(21)
        sys = random_system(rng, 14, 5, 2)
        levels = partition_tree(sys)
        for level_nodes in levels:
            for node in level_nodes:
                assert not set(node.processed) & set(node.pending)
                for p in node.processed:
                    h = sys.users[p]
                    assert np.linalg.norm(node.z.basis @ h) <= 1e-10 * np.linalg.norm(h)
                # generic channels: dimension ledger
                expected = 14 - sum(sys.users[p].shape[1] for p in node.processed)
                assert node.z.dim == expected
        assert all(len(leaf.pending) <= 1 for leaf in levels[-1])

    def test_dead_branch_layout(self):
        rng = np.random.default_rng(23)
        sys = random_system(rng, 14, 5, 2)
        levels = partition_tree(sys)
        assert [len(nodes) for nodes in levels] == [1, 2, 4, 8]
        for parents, nodes in zip(levels, levels[1:]):
            for i, node in enumerate(nodes):
                parent = parents[i // 2]
                if not parent.pending:
                    assert not node.pending
                if not node.pending:
                    # a dead node does no work: its parent's basis, bit for bit
                    assert node.processed == parent.processed
                    assert node.z.basis.tobytes() == parent.z.basis.tobytes()
        assert sum(1 for leaf in levels[-1] if not leaf.pending) == 3
        leaf_users = sorted(u for leaf in levels[-1] for u in leaf.pending)
        assert leaf_users == list(range(5))

    def test_level_count(self):
        rng = np.random.default_rng(22)
        sys = random_system(rng, 16, 6, 2)
        levels = partition_tree(sys)
        assert len(levels) == 4  # root + ceil(log2(6)) = 3


class TestSvdDecoupler:
    def test_single_user_identity(self):
        rng = np.random.default_rng(30)
        sys = random_system(rng, 5, 1, 2)
        assert np.array_equal(svd_decoupler(sys).w[0], np.eye(5))

    def test_coordinate_case_matches_sequential(self):
        e1 = np.zeros((3, 1), complex); e1[0, 0] = 1.0
        e2 = np.zeros((3, 1), complex); e2[1, 0] = 1.0
        sys = SystemChannel(3, [e1, e2])
        sd, sv = sequential_decoupler(sys), svd_decoupler(sys)
        for i in range(2):
            assert subspace_distance(basis_of(sd.w[i], 3), basis_of(sv.w[i], 3)) <= 1e-10

    @pytest.mark.parametrize("amplitude", [1e-8, 1e-12])
    def test_faint_user_matches_unit_amplitude(self, amplitude):
        # column scaling leaves every nullspace unchanged, so the faint
        # system's decouplers must span the unit-amplitude system's
        rng = np.random.default_rng(32)
        users = [crandn(rng, 24, 2) for _ in range(8)]
        unit = svd_decoupler(SystemChannel(24, users))
        faint_sys = SystemChannel(24, [users[0] * amplitude] + users[1:])
        faint = svd_decoupler(faint_sys)
        for w_faint, w_unit in zip(faint.w, unit.w, strict=True):
            assert w_faint.shape == w_unit.shape
            assert subspace_distance(basis_of(w_faint, 24), basis_of(w_unit, 24)) <= 1e-8
        assert verify_decoupling(faint_sys, faint).max_cross_residual <= 1e-10

    def test_zero_column_user_matches_sequential(self):
        rng = np.random.default_rng(33)
        users = [crandn(rng, 12, 2) for _ in range(4)]
        users[1][:, 0] = 0.0
        sys = SystemChannel(12, users)
        sv, sd = svd_decoupler(sys), sequential_decoupler(sys)
        for w_svd, w_sd in zip(sv.w, sd.w, strict=True):
            assert np.all(np.isfinite(w_svd))
            assert w_svd.shape == w_sd.shape
            assert subspace_distance(basis_of(w_svd, 12), basis_of(w_sd, 12)) <= 1e-8

    def test_large_system_residuals(self):
        rng = np.random.default_rng(31)
        sys = random_system(rng, 32, 8, 2)
        rep = verify_decoupling(sys, svd_decoupler(sys))
        assert rep.max_cross_residual <= 1e-10
        assert rep.all_full_rank()


class TestPinvDecoupler:
    def test_identity_channel_partition(self):
        sys = SystemChannel(4, [np.eye(4)[:, :2].astype(complex),
                                np.eye(4)[:, 2:].astype(complex)])
        dec = pinv_decoupler(sys)
        assert np.allclose(dec.w[0], np.eye(4)[:2])
        assert np.allclose(dec.w[1], np.eye(4)[2:])
        assert not dec.row_orthonormal

    def test_zero_forcing_normalization(self):
        rng = np.random.default_rng(40)
        sys = random_system(rng, 16, 4, 2)
        dec = pinv_decoupler(sys)
        for i in range(4):
            assert np.linalg.norm(dec.w[i] @ sys.users[i] - np.eye(2)) <= 1e-9
            for k in range(4):
                if k != i:
                    h = sys.users[k]
                    assert np.linalg.norm(dec.w[i] @ h) <= 1e-10 * np.linalg.norm(h)

    def test_overloaded_system_rejected(self):
        rng = np.random.default_rng(41)
        # feasible for nullspace decoupling (m_bar < n_r) but m_total > n_r
        sys = random_system(rng, 5, 3, 2)
        with pytest.raises(SingularMatrixError):
            pinv_decoupler(sys)


class TestIncludeUsers:
    def test_no_new_users_is_identity(self):
        rng = np.random.default_rng(50)
        sys = random_system(rng, 12, 3, 2)
        dec = sequential_decoupler(sys)
        out_sys, out_dec = include_users(sys, dec, [])
        assert out_sys is sys and out_dec is dec

    def test_one_inclusion_matches_fresh_rebuild(self):
        rng = np.random.default_rng(51)
        sys = random_system(rng, 12, 3, 2)
        dec = sequential_decoupler(sys)
        aug, upd = include_users(sys, dec, [crandn(rng, 12, 2)])
        fresh = sequential_decoupler(aug)
        assert upd.k == 4
        for i in range(4):
            assert subspace_distance(basis_of(upd.w[i], 12), basis_of(fresh.w[i], 12)) <= 1e-8

    def test_sequential_inclusions_keep_decoupling(self):
        rng = np.random.default_rng(52)
        sys = random_system(rng, 8, 2, 2)
        dec = sequential_decoupler(sys)
        for _ in range(2):
            sys, dec = include_users(sys, dec, [crandn(rng, 8, 1)])
            rep = verify_decoupling(sys, dec)
            assert rep.max_cross_residual <= 1e-10
            assert rep.all_full_rank()

    def test_infeasible_augmentation_rejected_before_mutation(self):
        rng = np.random.default_rng(53)
        sys = random_system(rng, 6, 2, 2)
        dec = sequential_decoupler(sys)
        with pytest.raises(InfeasibleSystemError):
            include_users(sys, dec, [crandn(rng, 6, 3), crandn(rng, 6, 3)])


class TestVerifyDecoupling:
    def test_negative_control_flagged(self):
        rng = np.random.default_rng(60)
        sys = random_system(rng, 12, 4, 2)
        dec = sequential_decoupler(sys)
        broken = list(dec.w)
        q = np.linalg.qr(crandn(rng, 12, 6))[0]
        broken[2] = q.conj().T
        rep = verify_decoupling(sys, DecouplerSet(tuple(broken), "SD", True))
        assert rep.max_cross_residual > 1e-2

    def test_recursion_invariant_order_insensitive_random_pairs(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(5, 17))
            m = int(rng.integers(1, max(2, n // 3)))
            p = int(rng.integers(1, max(2, n - m)))
            if m + p >= n:
                continue
            a, b = crandn(rng, n, m), crandn(rng, n, p)
            z = recursive_common_nullspace([a, b], identity_basis(n))
            oracle = left_nullspace_basis(np.concatenate([a, b], axis=1))
            assert subspace_distance(z, oracle) <= 1e-9
