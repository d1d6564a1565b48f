"""Decoupler constructions and the nullspace recursion behind them."""

import inspect

import numpy as np
import pytest

from decoupsim import decouplers, flops, harness, kernels
from decoupsim.channels import (
    CeErrorParams, KroneckerParams, LargeScaleParams, correlation_matrix, matrix_sqrt_psd,
)
from decoupsim.errors import (
    InfeasibleSystemError, InvalidInputError, ShapeError, SingularMatrixError,
)
from decoupsim.kernels import (
    SubspaceBasis, as_complex_matrix, left_nullspace_basis, subspace_distance,
)
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


def kronecker_system(seed, n_r, k, m_i, rho):
    """k users of m_i streams with receive and per-user transmit correlation rho."""
    rng = np.random.default_rng(seed)
    rx, tx = (matrix_sqrt_psd(correlation_matrix(rho, n)) for n in (n_r, m_i))
    return SystemChannel(n_r, [rx @ crandn(rng, n_r, m_i) @ tx for _ in range(k)])


def overflow_system():
    """n_r=7, K=3, m=2 with user 1's entries near 1e300: finite entries whose
    column norms (their sums of squares) overflow."""
    rng = np.random.default_rng(34)
    users = [crandn(rng, 7, 2) for _ in range(3)]
    return SystemChannel(7, [users[0], users[1] * 1e300, users[2]])


class TestSystemChannel:
    def test_dimensions_and_derived_quantities(self):
        rng = np.random.default_rng(0)
        sys = random_system(rng, 12, 3, [2, 3, 2])
        assert sys.k == 3
        assert sys.m_total == 7
        assert sys.m_bar(1) == 4
        assert sys.stacked().shape == (12, 7)

    def test_infeasible_rejected_naming_user(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InfeasibleSystemError, match="user 0"):
            random_system(rng, 4, 3, 2)

    def test_wrong_row_count_rejected(self):
        with pytest.raises(Exception):
            SystemChannel(4, [np.ones((3, 1))])

    def test_no_receive_antennas_rejected(self):
        with pytest.raises(InvalidInputError, match="n_r"):
            SystemChannel(0, [np.ones((0, 1))])

    def test_user_without_streams_rejected(self):
        with pytest.raises(InvalidInputError, match="user 1 has no streams"):
            SystemChannel(4, [np.ones((4, 1)), np.ones((4, 0))])

    def test_no_users_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one user"):
            SystemChannel(4, [])


class TestRecursiveCommonNullspace:
    def test_empty_block_list_returns_start(self):
        z0 = SubspaceBasis(np.eye(4, dtype=complex))
        assert recursive_common_nullspace([], z0) is z0

    def test_annihilate_one_coordinate(self):
        e2 = np.zeros((4, 1), complex)
        e2[1, 0] = 1.0
        z = recursive_common_nullspace([e2], SubspaceBasis(np.eye(4, dtype=complex)))
        expected = SubspaceBasis(np.eye(4)[[0, 2, 3]].astype(complex))
        assert z.dim == 3
        assert subspace_distance(z, expected) <= 1e-10

    def test_matches_concatenated_svd_oracle(self):
        rng = np.random.default_rng(5)
        a, b = crandn(rng, 6, 2), crandn(rng, 6, 2)
        z = recursive_common_nullspace([a, b], SubspaceBasis(np.eye(6, dtype=complex)))
        oracle = left_nullspace_basis(np.concatenate([a, b], axis=1))
        assert z.dim == 2
        assert subspace_distance(z, oracle) <= 1e-9

    def test_order_insensitive(self):
        rng = np.random.default_rng(6)
        a, b = crandn(rng, 8, 3), crandn(rng, 8, 2)
        z_ab = recursive_common_nullspace([a, b], SubspaceBasis(np.eye(8, dtype=complex)))
        z_ba = recursive_common_nullspace([b, a], SubspaceBasis(np.eye(8, dtype=complex)))
        assert subspace_distance(z_ab, z_ba) <= 1e-9

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            recursive_common_nullspace([np.ones((3, 1))],
                                       SubspaceBasis(np.eye(4, dtype=complex)))

    def test_tally_is_the_node_charge(self):
        # the fold is charged per block, like a sequential-decoupler node
        rng = np.random.default_rng(8)
        for n, m_a, m_b in ((6, 2, 1), (14, 3, 4)):
            blocks = [crandn(rng, n, m_a), crandn(rng, n, m_b)]
            with flops.counting() as tally:
                recursive_common_nullspace(blocks, SubspaceBasis(np.eye(n, dtype=complex)))
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
        span_w1 = SubspaceBasis(np.eye(3)[[0, 2]].astype(complex))
        span_w2 = SubspaceBasis(np.eye(3)[[1, 2]].astype(complex))
        assert dec.w[0].shape == (2, 3) and dec.w[1].shape == (2, 3)
        assert subspace_distance(SubspaceBasis(dec.w[0]), span_w1) <= 1e-10
        assert subspace_distance(SubspaceBasis(dec.w[1]), span_w2) <= 1e-10

    def test_matches_per_user_svd_oracle(self):
        rng = np.random.default_rng(11)
        sys = random_system(rng, 12, 4, 2)
        dec = sequential_decoupler(sys)
        for i in range(4):
            assert dec.w[i].shape == (6, 12)
            oracle = left_nullspace_basis(np.concatenate(sys.users[:i] + sys.users[i + 1:], axis=1))
            assert subspace_distance(SubspaceBasis(dec.w[i]), oracle) <= 1e-9

    def test_non_power_of_two_users(self):
        rng = np.random.default_rng(12)
        sys = random_system(rng, 12, 5, 2)
        dec = sequential_decoupler(sys)
        assert dec.k == 5
        leaves = partition_tree(sys)[-1]
        assert len(leaves) == 8
        assert sum(1 for leaf in leaves if not leaf.pending) == 3
        for i in range(5):
            oracle = left_nullspace_basis(np.concatenate(sys.users[:i] + sys.users[i + 1:], axis=1))
            assert subspace_distance(SubspaceBasis(dec.w[i]), oracle) <= 1e-9

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
            oracle = left_nullspace_basis(np.concatenate(sys.users[:i] + sys.users[i + 1:], axis=1))
            assert subspace_distance(SubspaceBasis(dec.w[i]), oracle) <= 1e-9

    def test_order_of_magnitude_sweep_of_sizes(self):
        rng = np.random.default_rng(15)
        for k in (2, 3, 6, 7, 9):
            sys = random_system(rng, 2 * k + 6, k, 2)
            rep = verify_decoupling(sys, sequential_decoupler(sys))
            assert rep.max_cross_residual <= 1e-10
            assert rep.all_full_rank()


@pytest.fixture
def fold_calls(monkeypatch):
    """Block counts of every block-by-block fold (``_annihilate``) call."""
    calls = []
    fold = decouplers._annihilate

    def spy(z, blocks):
        calls.append(len(blocks))
        return fold(z, blocks)

    monkeypatch.setattr(decouplers, "_annihilate", spy)
    return calls


class TestNodeUpdate:
    """One complete QR per annihilated half, with the per-block fold as fallback."""

    @staticmethod
    def assert_matches_svd(sd, oracle, n_r):
        for w_sd, w_svd in zip(sd.w, oracle.w, strict=True):
            assert w_sd.shape == w_svd.shape
            assert subspace_distance(SubspaceBasis(w_sd), SubspaceBasis(w_svd)) <= 1e-8

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

    def test_rank_loss_inside_a_stacked_group(self, fold_calls):
        # K=8 folds its halves in equal-shape stacks; user 5's collinear
        # columns make one node per stack lose rank at each level it is folded
        rng = np.random.default_rng(74)
        users = [crandn(rng, 24, 2) for _ in range(8)]
        users[5][:, 1] = -0.5j * users[5][:, 0]
        sys = SystemChannel(24, users)
        with flops.counting() as tally:
            sd = sequential_decoupler(sys)
        # only the rank-deficient node of each stack takes the fold
        assert fold_calls == [4, 2, 1]
        self.assert_matches_svd(sd, svd_decoupler(sys), 24)
        for w in sd.w:
            assert np.linalg.norm(w @ w.conj().T - np.eye(w.shape[0])) <= 1e-10
        # the node-by-node executor's tally on this system
        assert tally.total == 148784

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


class TestStackedWalk:
    """One partition-tree walk over a stack of systems, as a BER sweep block runs SD."""

    @pytest.mark.parametrize("n_r,m_list,b", [
        (16, (1, 2, 3, 1, 2, 3, 1), 5),
        (64, (4,) * 15, 16),
        (170, (2,) * 80, 3),
    ])
    def test_bit_identical_to_per_system_builds(self, n_r, m_list, b):
        rng = np.random.default_rng(90 + b)
        systems = [random_system(rng, n_r, len(m_list), list(m_list)) for _ in range(b)]
        local = np.stack([sys.stacked() for sys in systems])
        for method, stacked_build, build in (
                ("SD", decouplers._sd_sets, sequential_decoupler),
                ("SVD", decouplers._svd_sets, svd_decoupler),
                ("PINV", decouplers._pinv_sets, pinv_decoupler)):
            with flops.counting() as tally:
                stacked = stacked_build(local, m_list)
            # every stacked system is charged as in its own build
            assert tally.total == b * flops.estimate_flops(method, n_r, m_list).total
            for sys, dec in zip(systems, stacked, strict=True):
                assert dec.method == method and dec.row_orthonormal == (method != "PINV")
                for w, w_alone in zip(dec.w, build(sys).w, strict=True):
                    assert w.shape == w_alone.shape and w.tobytes() == w_alone.tobytes()

    def test_collinear_user_folds_only_its_own_system(self, monkeypatch):
        rng = np.random.default_rng(74)
        systems = [random_system(rng, 24, 8, 2) for _ in range(3)]
        users = [h.copy() for h in systems[1].users]
        users[5][:, 1] = -0.5j * users[5][:, 0]
        systems[1] = SystemChannel(24, users)
        folds, fold = [], decouplers._annihilate

        def spy(z, blocks):
            folds.append((z.tobytes(), tuple(block.tobytes() for block in blocks)))
            return fold(z, blocks)

        monkeypatch.setattr(decouplers, "_annihilate", spy)
        alone = sequential_decoupler(systems[1])
        alone_folds = folds[:]
        folds.clear()
        stacked = decouplers._sd_sets(np.stack([sys.stacked() for sys in systems]), (2,) * 8)
        # system 1's rank-losing nodes take the block-by-block fold, with the
        # same inputs as in its own build; the other systems stay stacked
        assert len(alone_folds) == 3 and folds == alone_folds
        for w, w_alone in zip(stacked[1].w, alone.w, strict=True):
            assert w.tobytes() == w_alone.tobytes()
        for sys, dec in zip(systems[::2], stacked[::2]):
            for w, w_alone in zip(dec.w, sequential_decoupler(sys).w, strict=True):
                assert w.tobytes() == w_alone.tobytes()

    @staticmethod
    def repeated_column_stack():
        """Three 24-antenna systems of 8 two-stream users; in system 1, user 5's
        second column repeats its first."""
        rng = np.random.default_rng(75)
        systems = [random_system(rng, 24, 8, 2) for _ in range(3)]
        users = [h.copy() for h in systems[1].users]
        users[5][:, 1] = users[5][:, 0]
        systems[1] = SystemChannel(24, users)
        return systems, np.stack([sys.stacked() for sys in systems])

    def test_svd_members_keep_their_own_ranks(self):
        systems, local = self.repeated_column_stack()
        stacked = decouplers._svd_sets(local, (2,) * 8)
        # the other users' complements hold user 5's repeated column: one rank
        # less, so one nullspace row more, in system 1 only
        assert [w.shape[0] for w in stacked[1].w] == [11] * 5 + [10] + [11] * 2
        assert all(w.shape[0] == 10 for dec in stacked[::2] for w in dec.w)
        for sys, dec in zip(systems, stacked, strict=True):
            for w, w_alone in zip(dec.w, svd_decoupler(sys).w, strict=True):
                assert w.shape == w_alone.shape and w.tobytes() == w_alone.tobytes()

    def test_pinv_stack_with_a_rank_deficient_member_raises(self):
        systems, local = self.repeated_column_stack()
        with pytest.raises(SingularMatrixError, match="not full column rank"):
            decouplers._pinv_sets(local, (2,) * 8)
        with pytest.raises(SingularMatrixError):
            pinv_decoupler(systems[1])
        decouplers._pinv_sets(local[::2], (2,) * 8)  # the full-rank members build


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

    @pytest.mark.parametrize("n_r,m_list", [
        (16, (1, 2, 3, 1, 2, 3, 1)),  # mixed widths split the level groups
        (4, (2,)),
        (6, (2, 2)),
        (14, (2,) * 5),
        (170, (2,) * 80),
    ])
    def test_grouped_execution_follows_the_plan(self, n_r, m_list):
        rng = np.random.default_rng(24 + len(m_list))
        sys = random_system(rng, n_r, len(m_list), list(m_list))
        with flops.counting() as tally:
            sd = sequential_decoupler(sys)
        assert tally.total == flops.estimate_flops("SD", n_r, m_list).total
        for w_sd, w_svd in zip(sd.w, svd_decoupler(sys).w, strict=True):
            assert w_sd.shape == w_svd.shape
            assert subspace_distance(SubspaceBasis(w_sd), SubspaceBasis(w_svd)) <= 1e-8
        for a, b in zip(sd.w, sequential_decoupler(sys).w, strict=True):
            assert a.tobytes() == b.tobytes()
        plan = flops._sd_plan(len(m_list))
        levels = partition_tree(sys)
        assert [len(nodes) for nodes in levels] == [len(specs) for specs in plan]
        for nodes in levels:
            for node in nodes:
                assert node.z.dim == n_r - sum(m_list[p] for p in node.processed)

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
            assert subspace_distance(SubspaceBasis(sd.w[i]), SubspaceBasis(sv.w[i])) <= 1e-10

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
            assert subspace_distance(SubspaceBasis(w_faint), SubspaceBasis(w_unit)) <= 1e-8
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
            assert subspace_distance(SubspaceBasis(w_svd), SubspaceBasis(w_sd)) <= 1e-8

    def test_overflowing_column_norm_raises(self):
        # dividing by an infinite norm would zero user 1's columns, so the other
        # users' decouplers would not annihilate it
        with pytest.raises(FloatingPointError, match="column norm"):
            svd_decoupler(overflow_system())

    def test_large_system_residuals(self):
        rng = np.random.default_rng(31)
        sys = random_system(rng, 32, 8, 2)
        rep = verify_decoupling(sys, svd_decoupler(sys))
        assert rep.max_cross_residual <= 1e-10
        assert rep.all_full_rank()

    @pytest.mark.parametrize("n_r,m_i,channel", [
        (64, 4, {}),
        (64, 4, dict(kronecker=KroneckerParams(rho_tx=0.25, rho_rx=0.05))),
        (32, 2, dict(large_scale=LargeScaleParams(mu_db=3.0, l_path=0.65, d_rel=0.65, tau=3.0))),
        (64, 4, dict(ce_error=CeErrorParams(sigma_e2=0.01))),
    ], ids=["uncorrelated", "kronecker", "large_scale", "ce_error"])
    def test_rows_orthonormal_on_regime_shapes(self, n_r, m_i, channel):
        # the oracle builds no SubspaceBasis, so nothing else checks its rows;
        # the systems are the BER sweep's own draws of the acceptance regimes
        cfg = harness.SimConfig(n_r=n_r, k=15, m_i=m_i, snr_db=(0.0,),
                                bits_per_point=30 * m_i, seed=3, **channel)
        roots = harness._kronecker_roots(cfg)
        for trial in range(3):
            chans = harness._build_true_channels(cfg, trial, 0, roots)
            sys = SystemChannel(n_r, harness._perturb_channels(cfg, trial, 0, chans))
            with flops.counting() as tally:
                dec = svd_decoupler(sys)
            assert tally.total == flops.estimate_flops("SVD", n_r, m_i, k=15).total
            for w in dec.w:
                assert w.shape == (n_r - 14 * m_i, n_r)
                assert np.linalg.norm(w @ w.conj().T - np.eye(w.shape[0])) <= 1e-12


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

    def test_overflowing_column_norm_raises(self):
        # a numerical failure, not a channel without full column rank
        with pytest.raises(FloatingPointError, match="column norm"):
            pinv_decoupler(overflow_system())

    def test_rank_deficient_system_rejected(self):
        rng = np.random.default_rng(42)
        h = crandn(rng, 12, 3)
        # m_total = 6 <= n_r, so only the singular values can reject it
        with pytest.raises(SingularMatrixError):
            pinv_decoupler(SystemChannel(12, [h, h]))

    def test_penrose_conditions_vs_normal_equation_oracle(self):
        rng = np.random.default_rng(21)
        a = crandn(rng, 8, 4)
        p = np.vstack(pinv_decoupler(SystemChannel(8, [a[:, :2], a[:, 2:]])).w)
        # oracle: full-column-rank formula via an independent dense solve
        oracle = np.linalg.solve(a.conj().T @ a, a.conj().T)
        assert np.linalg.norm(p - oracle) <= 1e-9 * np.linalg.norm(oracle)
        for lhs, rhs in [(a @ p @ a, a), (p @ a @ p, p)]:
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)
        for prod in [a @ p, p @ a]:
            assert np.linalg.norm(prod - prod.conj().T) <= 1e-9

    def test_builds_without_an_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        pinv_decoupler(random_system(np.random.default_rng(43), 24, 10, 2))
        assert calls == []

    @pytest.mark.parametrize("shape", ["k80", "kronecker_0.9"])
    def test_agrees_with_numpy_pinv(self, shape):
        if shape == "k80":
            sys, bound = random_system(np.random.default_rng(44), 170, 80, 2), 1e-12
        else:
            # a forward error of a backward-stable solve grows with the condition
            # number (about 3e5 here, 0.1-0.3 cond * eps measured over 12 seeds)
            sys = kronecker_system(45, 64, 30, 2, 0.9)
            bound = np.linalg.cond(sys.stacked()) * np.finfo(float).eps
        ref = np.linalg.pinv(sys.stacked())
        w = np.vstack(pinv_decoupler(sys).w)
        assert np.linalg.norm(w - ref) <= bound * np.linalg.norm(ref)

    def test_strong_correlation_stays_exact_where_normal_equations_fail(self):
        sys = kronecker_system(45, 64, 30, 2, 0.9)
        assert verify_decoupling(sys, pinv_decoupler(sys)).max_cross_residual <= 1e-10
        # the Gram route squares the condition number and misses the same bound
        h = sys.stacked()
        l_inv = np.linalg.inv(np.linalg.cholesky(h.conj().T @ h))
        w = l_inv.conj().T @ (l_inv @ h.conj().T)
        gram = DecouplerSet(tuple(np.split(w, 30)), "PINV")
        assert verify_decoupling(sys, gram).max_cross_residual > 1e-10

    def test_zero_column_rejected(self):
        rng = np.random.default_rng(46)
        h = crandn(rng, 12, 2)
        h[:, 1] = 0.0
        with pytest.raises(SingularMatrixError):
            pinv_decoupler(SystemChannel(12, [crandn(rng, 12, 2), h]))

    def test_near_singular_correlation_rejected(self):
        sys = kronecker_system(47, 64, 30, 2, 0.99)
        # the SVD rule rejects it too
        s = np.linalg.svd(sys.stacked(), compute_uv=False)
        assert s[-1] <= 64 * np.finfo(float).eps * s[0]
        with pytest.raises(SingularMatrixError):
            pinv_decoupler(sys)

    def test_repeat_builds_are_bit_identical(self):
        sys = random_system(np.random.default_rng(48), 40, 12, 3)
        first, second = pinv_decoupler(sys), pinv_decoupler(sys)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first.w, second.w))


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
            assert subspace_distance(SubspaceBasis(upd.w[i]), SubspaceBasis(fresh.w[i])) <= 1e-8

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

    @pytest.mark.parametrize("bad,error,match", [
        ("nan", InvalidInputError, "user 4 channel contains non-finite"),
        ("inf", InvalidInputError, "user 4 channel contains non-finite"),
        ("rows", ShapeError, "user 4 channel has 11 rows"),
        ("ndim", InvalidInputError, "user 4 channel must be 2-D"),
    ])
    def test_bad_newcomer_rejected(self, bad, error, match):
        # only the newcomers are checked; the second of them is the bad one
        rng = np.random.default_rng(58)
        sys = random_system(rng, 12, 3, 2)
        dec = sequential_decoupler(sys)
        h = crandn(rng, 12, 2)
        h = {"nan": np.where(np.eye(12, 2, dtype=bool), np.nan, h),
             "inf": np.where(np.eye(12, 2, dtype=bool), np.inf, h),
             "rows": h[:11], "ndim": h[None]}[bad]
        with pytest.raises(error, match=match):
            include_users(sys, dec, [crandn(rng, 12, 1), h])

    def test_only_newcomers_are_checked(self, monkeypatch):
        # the existing users were checked when their system was built
        rng = np.random.default_rng(59)
        sys = random_system(rng, 12, 3, 2)
        dec = sequential_decoupler(sys)
        checked = []

        def check(h, name):
            checked.append(name)
            return as_complex_matrix(h, name)

        monkeypatch.setattr(decouplers, "as_complex_matrix", check)
        new = [crandn(rng, 12, 2), crandn(rng, 12, 1)]
        aug, _ = include_users(sys, dec, new)
        assert checked == ["user 3 channel", "user 4 channel"]
        assert all(a is b for a, b in zip(aug.users, (*sys.users, *new), strict=True))

    def test_extended_set_keeps_its_method(self):
        rng = np.random.default_rng(55)
        sys = random_system(rng, 12, 3, 2)
        _, upd = include_users(sys, svd_decoupler(sys), [crandn(rng, 12, 2)])
        assert upd.method == "SVD"

    def test_zero_forcing_set_rejected(self):
        # W_0 @ H_0 = I for a PINV set, so a newcomer derived from W_0 gets no rows
        rng = np.random.default_rng(54)
        sys = random_system(rng, 12, 3, 2)
        with pytest.raises(InvalidInputError):
            include_users(sys, pinv_decoupler(sys), [crandn(rng, 12, 2)])

    @pytest.mark.parametrize("added", [(2, 2, 3), (1,)])
    def test_mixed_widths_match_fresh_builds_and_estimate(self, added):
        rng = np.random.default_rng(56)
        base_m = (1, 2, 3, 1, 2)
        sys = random_system(rng, 20, 5, list(base_m))
        dec = sequential_decoupler(sys)
        with flops.counting() as tally:
            aug, upd = include_users(sys, dec, [crandn(rng, 20, m) for m in added])
        assert tally.total == flops.estimate_flops("SD_UI", 20, base_m, added=added).total
        for fresh in (sequential_decoupler(aug), svd_decoupler(aug)):
            for w_upd, w_fresh in zip(upd.w, fresh.w, strict=True):
                assert w_upd.shape == w_fresh.shape
                assert subspace_distance(SubspaceBasis(w_upd), SubspaceBasis(w_fresh)) <= 1e-8

    @staticmethod
    def collinear_inclusion(rng):
        sys = random_system(rng, 24, 6, 2)
        new = [crandn(rng, 24, 2), crandn(rng, 24, 2)]
        new[0][:, 1] = (1 - 0.5j) * new[0][:, 0]
        return sys, sequential_decoupler(sys), new

    def test_collinear_newcomer_keeps_rows_and_decoupling(self):
        sys, dec, new = self.collinear_inclusion(np.random.default_rng(57))
        aug, upd = include_users(sys, dec, new)
        assert [w.shape[0] for w in upd.w] == [w.shape[0] for w in svd_decoupler(aug).w]
        assert verify_decoupling(aug, upd).max_cross_residual <= 1e-10

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_k80_tally_matches_estimate(self, p):
        rng = np.random.default_rng(58)
        sys = random_system(rng, 170, 76, 2)
        dec = sequential_decoupler(sys)
        with flops.counting() as tally:
            include_users(sys, dec, [crandn(rng, 170, 2) for _ in range(p)])
        assert tally.total == flops.estimate_flops("SD_UI", 170, 2, k=76, added=[2] * p).total

    def test_repeated_calls_are_bit_identical(self):
        rng = np.random.default_rng(59)
        sys = random_system(rng, 30, 7, [1 + i % 3 for i in range(7)])
        dec = sequential_decoupler(sys)
        new = [crandn(rng, 30, m) for m in (2, 1, 2)]
        first, second = include_users(sys, dec, new)[1], include_users(sys, dec, new)[1]
        for a, b in zip(first.w, second.w, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("collinear", [False, True])
    def test_inclusion_is_one_stacked_qr(self, collinear, monkeypatch, fold_calls):
        rng = np.random.default_rng(57)
        if collinear:
            sys, dec, new = self.collinear_inclusion(rng)
        else:
            sys = random_system(rng, 24, 6, 2)
            dec, new = sequential_decoupler(sys), [crandn(rng, 24, 2) for _ in range(2)]
        stacks, qr = [], np.linalg.qr

        def spy(a, *args, **kwargs):
            if inspect.currentframe().f_back.f_code is decouplers._fold_group.__code__:
                stacks.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        include_users(sys, dec, new)
        # six existing users fold (H_6, H_7); newcomer p folds H_0 and the
        # other newcomer: all eight halves are 14 x 4 and share one complete QR
        # (the block-by-block folds below take QRs of their own, not counted)
        assert stacks == [(8, 14, 4)]
        # a rank-1 newcomer costs every existing user and the other newcomer
        # its rank: those seven take the block-by-block fold alone
        assert fold_calls == ([2] * 7 if collinear else [])


def certificate_systems():
    """Systems whose tree halves span the rank certificate's cases, by name."""
    rng = np.random.default_rng(96)
    small = [crandn(rng, 24, 2) for _ in range(8)]
    cases = {"generic_k80": random_system(rng, 170, 80, 2)}
    for amplitude in (1e-8, 1e-12):
        cases[f"faint_{amplitude:g}"] = SystemChannel(24, [small[0] * amplitude] + small[1:])
    pair = [crandn(rng, 20, 2) for _ in range(5)]
    pair[1] = pair[0] + 1e-10 * crandn(rng, 20, 2)
    cases["near_collinear_pair"] = SystemChannel(20, pair)
    dup = [h.copy() for h in small]
    dup[3][:, 1] = dup[3][:, 0]
    cases["duplicated_column"] = SystemChannel(24, dup)
    # user 6 folded out alone at the last level: its half's R is zero
    cases["zero_user"] = SystemChannel(24, small[:6] + [np.zeros((24, 2))] + small[7:])
    for rho in (0.9, 0.99):
        cases[f"kronecker_{rho}"] = kronecker_system(97, 64, 30, 2, rho)
    for scale in (1e150, 1e-150):
        cases[f"scaled_{scale:g}"] = SystemChannel(24, [h * scale for h in small])
    return cases


class TestRankCertificate:
    """The shifted-Cholesky certificate decides as the SVD rule, at less cost."""

    @staticmethod
    def sd_and_included(sys):
        """SD's set of ``sys`` and the set its last two users' inclusion gives."""
        base = SystemChannel(sys.n_r, sys.users[:-2])
        included = include_users(base, sequential_decoupler(base), sys.users[-2:])[1]
        return sequential_decoupler(sys).w + included.w

    @staticmethod
    def svd_calls(monkeypatch):
        """``(shape, compute_uv)`` of every ``np.linalg.svd`` call."""
        calls, svd = [], np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append((np.shape(a), kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return calls

    @pytest.mark.parametrize("name", list(certificate_systems()))
    def test_sets_bit_identical_with_the_certificate_failing(self, name, monkeypatch):
        sys = certificate_systems()[name]
        certified = self.sd_and_included(sys)
        monkeypatch.setattr(decouplers, "_certified_full_rank", lambda r: False)
        for w, w_rule in zip(certified, self.sd_and_included(sys), strict=True):
            assert w.tobytes() == w_rule.tobytes()

    def test_generic_k80_build_and_inclusion_run_no_svd(self, monkeypatch):
        sys = certificate_systems()["generic_k80"]
        base = SystemChannel(170, sys.users[:76])
        dec = sequential_decoupler(base)
        calls = self.svd_calls(monkeypatch)
        sequential_decoupler(sys)
        include_users(base, dec, sys.users[76:])
        assert calls == []

    def test_generic_k80_svd_oracle_runs_no_svd(self, monkeypatch):
        sys = certificate_systems()["generic_k80"]
        calls = self.svd_calls(monkeypatch)
        svd_decoupler(sys)
        assert calls == []

    @pytest.mark.parametrize("name", list(certificate_systems()))
    def test_svd_oracle_matches_its_svd_path(self, name, monkeypatch):
        sys = certificate_systems()[name]
        certified = svd_decoupler(sys).w
        # whether the certificate proves each user's (column-scaled) complement
        h = decouplers._unit_columns(sys.stacked()[None])[0]
        ends = np.cumsum((0, *sys.m_per_user))
        proved = []
        for lo, hi in zip(ends, ends[1:]):
            complement = np.delete(h, slice(lo, hi), axis=2)
            r = np.linalg.qr(complement, mode="complete")[1]
            proved.append(kernels._certified_full_rank(r[:, :complement.shape[2]]))
        monkeypatch.setattr(kernels, "_certified_full_rank", lambda r: False)
        for ok, w, w_svd in zip(proved, certified, svd_decoupler(sys).w, strict=True):
            assert w.shape == w_svd.shape
            assert subspace_distance(SubspaceBasis(w), SubspaceBasis(w_svd)) <= 1e-12
            if not ok:
                assert w.tobytes() == w_svd.tobytes()

    def test_svd_stack_members_keep_their_alone_bytes(self, monkeypatch):
        rng = np.random.default_rng(98)
        systems = [random_system(rng, 24, 8, 2) for _ in range(3)]
        systems[1] = SystemChannel(24, systems[1].users[:2] + (np.zeros((24, 2)),)
                                   + systems[1].users[3:])
        stacked = decouplers._svd_sets(np.stack([sys.stacked() for sys in systems]), (2,) * 8)
        calls = self.svd_calls(monkeypatch)
        for sys, dec in zip(systems, stacked, strict=True):
            for w, w_alone in zip(dec.w, svd_decoupler(sys).w, strict=True):
                assert w.shape == w_alone.shape and w.tobytes() == w_alone.tobytes()
        # alone, only system 1's seven complements that hold its zero user take
        # the SVD; every other member's rows, stacked or alone, are Q's
        assert [shape for shape, _ in calls] == [(1, 24, 14)] * 7

    def test_collinear_inclusion_falls_back_to_the_svd_rule(self, monkeypatch, fold_calls):
        sys, dec, new = TestIncludeUsers.collinear_inclusion(np.random.default_rng(57))
        calls = self.svd_calls(monkeypatch)
        upd = include_users(sys, dec, new)[1]
        # the eight 14 x 4 halves' R factors go to the rule in one stack,
        # and the seven rank-losing ones take the block-by-block fold
        assert [shape for shape, uv in calls if not uv] == [(8, 4, 4)]
        assert fold_calls == [2] * 7
        monkeypatch.setattr(decouplers, "_certified_full_rank", lambda r: False)
        for w, w_rule in zip(upd.w, include_users(sys, dec, new)[1].w, strict=True):
            assert w.tobytes() == w_rule.tobytes()


class TestVerifyDecoupling:
    def test_negative_control_flagged(self):
        rng = np.random.default_rng(60)
        sys = random_system(rng, 12, 4, 2)
        dec = sequential_decoupler(sys)
        broken = list(dec.w)
        q = np.linalg.qr(crandn(rng, 12, 6))[0]
        broken[2] = q.conj().T
        rep = verify_decoupling(sys, DecouplerSet(tuple(broken), "SD"))
        assert rep.max_cross_residual > 1e-2

    def test_faint_user_pinv_is_exact_when_scale_free(self):
        # zero-forcing makes the faint user's W grow as 1/amplitude, and the
        # raw residual with it; the scale-free residual stays at rounding level
        rng = np.random.default_rng(71)
        users = [crandn(rng, 20, 2) for _ in range(8)]
        sys = SystemChannel(20, [users[0] * 1e-8] + users[1:])
        rep = verify_decoupling(sys, pinv_decoupler(sys))
        assert 1e-9 <= rep.max_cross_residual <= 1e-7
        assert rep.max_scale_free_residual <= 1e-14
        assert rep.max_scale_free_residual == max(u["scale_free_residual"] for u in rep.per_user)
        # a row-orthonormal W has unit 2-norm: both residuals agree
        sd = verify_decoupling(sys, sequential_decoupler(sys))
        for u in sd.per_user:
            assert u["scale_free_residual"] == pytest.approx(u["cross_residual"], rel=1e-12)

    @pytest.mark.parametrize("case", ["channel", "decoupler"])
    def test_overflowing_norm_raises(self, case):
        # an infinite norm makes the residual ratios NaN, which max() would drop
        sys = overflow_system()
        fine = SystemChannel(7, [sys.users[0], sys.users[1] * 1e-300, sys.users[2]])
        dec = sequential_decoupler(fine)
        if case == "decoupler":
            sys, dec = fine, DecouplerSet((dec.w[0] * 1e300,) + dec.w[1:], "SD")
        with pytest.raises(FloatingPointError, match="past the float range"):
            verify_decoupling(sys, dec)

    def test_reports_compare_and_hash_by_value(self):
        rng = np.random.default_rng(63)
        sys = random_system(rng, 12, 4, 2)
        rep, again = (verify_decoupling(sys, sequential_decoupler(sys)) for _ in range(2))
        assert rep == again and hash(rep) == hash(again) and len({rep, again}) == 1
        reordered = decouplers.DecouplingReport(tuple(dict(reversed(u.items()))
                                                      for u in rep.per_user))
        assert reordered == rep and hash(reordered) == hash(rep)
        other = verify_decoupling(sys, svd_decoupler(random_system(rng, 12, 4, 2)))
        assert other != rep and len({rep, other}) == 2

    def test_zero_user_channel_has_no_residual(self):
        rng = np.random.default_rng(62)
        sys = SystemChannel(12, [crandn(rng, 12, 2) for _ in range(3)] + [np.zeros((12, 2))])
        with np.errstate(all="raise"):
            rep = verify_decoupling(sys, sequential_decoupler(sys))
        assert rep.max_cross_residual <= 1e-10 and rep.max_scale_free_residual <= 1e-10
        assert not rep.per_user[3]["full_rank"]

    def test_recursion_invariant_order_insensitive_random_pairs(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(5, 17))
            m = int(rng.integers(1, max(2, n // 3)))
            p = int(rng.integers(1, max(2, n - m)))
            if m + p >= n:
                continue
            a, b = crandn(rng, n, m), crandn(rng, n, p)
            z = recursive_common_nullspace([a, b], SubspaceBasis(np.eye(n, dtype=complex)))
            oracle = left_nullspace_basis(np.concatenate([a, b], axis=1))
            assert subspace_distance(z, oracle) <= 1e-9


@pytest.mark.parametrize("mismatch,n_r,k", [("users", 12, 4), ("columns", 14, 3)])
@pytest.mark.parametrize("call", ["include_users", "verify_decoupling"])
def test_decoupler_set_of_another_system_rejected(call, mismatch, n_r, k):
    # a set built for 4 users, or for 14 antennas, given a system of 3 users at 12
    rng = np.random.default_rng(63)
    sys, dec = random_system(rng, 12, 3, 2), sequential_decoupler(random_system(rng, n_r, k, 2))
    error = InvalidInputError if (call, mismatch) == ("include_users", "users") else ShapeError
    with pytest.raises(error, match="users, system has" if mismatch == "users" else "columns"):
        if call == "include_users":
            include_users(sys, dec, [crandn(rng, 12, 2)])
        else:
            verify_decoupling(sys, dec)
