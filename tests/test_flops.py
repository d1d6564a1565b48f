"""Cost model, per-block FLOP tallies, and closed-form complexity estimates."""

import sys
import threading

import numpy as np
import pytest

from decoupsim import flops
from decoupsim.channels import RngSeed, gen_iid_channel
from decoupsim.decouplers import (
    SystemChannel,
    include_users,
    pinv_decoupler,
    recursive_common_nullspace,
    sequential_decoupler,
    svd_decoupler,
)
from decoupsim.errors import InfeasibleSystemError, InvalidInputError
from decoupsim.flops import CostModel, estimate_flops
from decoupsim.kernels import (
    SubspaceBasis,
    left_nullspace_basis,
    numerical_rank,
    subspace_distance,
)


def bench_system(n_r, k, m_i, seed=0):
    return SystemChannel(n_r, [gen_iid_channel(RngSeed(seed, u), n_r, m_i) for u in range(k)])


class TestCostModel:
    def test_single_complex_multiply(self):
        assert CostModel().matmul(1, 1, 1) == 6

    def test_two_by_two_closed_form(self):
        assert CostModel().matmul(2, 2, 2) == 2 * 2 * (2 * 6 + 1 * 2)  # 56

    def test_zero_dimension_costs_nothing(self):
        model = CostModel()
        assert model.matmul(0, 5, 5) == 0
        assert model.svd_full(0, 3) == 0

    def test_costs_monotone_in_each_dimension(self):
        model = CostModel()
        for fn in (model.matmul,):
            assert fn(3, 4, 5) < fn(4, 4, 5) < fn(4, 5, 5) < fn(4, 5, 6)
        assert model.svd_full(6, 4) < model.svd_full(7, 4) < model.svd_full(7, 5)
        assert model.inverse(4) < model.inverse(5)

    def test_negative_field_rejected(self):
        for fields in (dict(mul=-1.0), dict(mul=float("nan")), dict(add=float("inf")),
                       dict(svd_scale=float("-inf"))):
            with pytest.raises(InvalidInputError):
                CostModel(**fields)


# the probe charge site of the tally tests: one 3 x 1 block folded out of C^3,
# charged as one SD tree node (146 FLOPs under the default model)
PROBE_BLOCK = np.array([[1.0], [2.0j], [-1.0]])
PROBE = flops._node_charge(3, [1], CostModel(), span=3)


def probe():
    recursive_common_nullspace([PROBE_BLOCK], SubspaceBasis(np.eye(3, dtype=complex)))


class TestInstrumentation:
    def test_nothing_counted_outside_a_block(self):
        assert flops._tally.get() is None
        with flops.counting() as tally:
            probe()
        probe()
        assert flops._tally.get() is None
        assert tally.total == 146 and tally.flops == PROBE

    def test_subspace_distance_is_never_charged(self):
        # audit helpers and the other kernels are not decoupler work: no tally sees them
        rng = np.random.default_rng(34)
        a = rng.standard_normal((4, 7, 3)) + 1j * rng.standard_normal((4, 7, 3))
        sys = bench_system(12, 4, 2)
        sd, svd = sequential_decoupler(sys), svd_decoupler(sys)
        with flops.counting() as tally:
            subspace_distance(SubspaceBasis(sd.w[0]), SubspaceBasis(svd.w[0]))
            left_nullspace_basis(a[0])
            numerical_rank(a[0])
        assert tally.total == 0

    def test_concurrent_blocks_keep_their_own_tallies(self):
        barrier = threading.Barrier(4)
        totals = [None] * 4

        def worker(i):
            with flops.counting() as tally:
                barrier.wait(timeout=10)  # every block is open before any counts
                for _ in range(200):
                    probe()
                barrier.wait(timeout=10)  # and stays open until all have counted
            totals[i] = tally.total

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert totals == [round(200 * PROBE)] * 4

    def test_overflowing_total_raises_without_masking_the_blocks_error(self):
        model = CostModel(mul=1e308)  # one probe charge is past the float range
        with pytest.raises(FloatingPointError, match="FLOP total is past the float range"):
            with flops.counting(model):
                probe()
        with pytest.raises(KeyError, match="inside"):  # the block's own error
            with flops.counting(model):
                probe()
                raise KeyError("inside")
        assert flops._tally.get() is None
        with pytest.raises(FloatingPointError, match="FLOP total is past the float range"):
            estimate_flops("SD", 32, 2, k=8, model=model)

    def test_nested_block_counts_only_its_own_work(self):
        inner_model = CostModel(svd_scale=8.0)
        with flops.counting() as outer:
            probe()
            with flops.counting(inner_model) as inner:
                for _ in range(3):
                    probe()
            probe()
        assert inner.total == 3 * 226
        assert outer.total == round(2 * PROBE)
        assert flops._tally.get() is None


class TestFlopReport:
    def test_estimate_has_consistent_breakdown(self):
        rep = estimate_flops("SD", 32, 2, k=8)
        assert rep.total == sum(c for _, c in rep.breakdown)
        assert len(rep.breakdown) == 3  # ceil(log2 8) levels


class TestEstimates:
    def test_single_user_sequential_costs_nothing(self):
        assert estimate_flops("SD", 16, 4, k=1).total == 0

    def test_infeasible_descriptor_rejected(self):
        with pytest.raises(InfeasibleSystemError):
            estimate_flops("SD", 4, 2, k=4)
        with pytest.raises(InfeasibleSystemError):
            estimate_flops("PINV", 10, 2, k=6)  # m_total > n_r

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_flops("ZF", 16, 2, k=2)

    @pytest.mark.parametrize("alg,builder", [
        ("SD", sequential_decoupler),
        ("SVD", svd_decoupler),
        ("PINV", pinv_decoupler),
    ])
    def test_estimate_equals_instrumented_run(self, alg, builder):
        sys = bench_system(32, 8, 2)
        with flops.counting() as tally:
            builder(sys)
        assert tally.total == estimate_flops(alg, 32, 2, k=8).total

    def test_estimate_equals_instrumented_mixed_streams(self):
        m_list = (2, 3, 2, 1, 3)
        sys = SystemChannel(
            20, [gen_iid_channel(RngSeed(3, u), 20, m) for u, m in enumerate(m_list)]
        )
        with flops.counting() as tally:
            sequential_decoupler(sys)
        assert tally.total == estimate_flops("SD", 20, m_list).total

    def test_inclusion_estimate_equals_instrumented_run(self):
        base = bench_system(32, 8, 2)
        dec = sequential_decoupler(base)
        new = [gen_iid_channel(RngSeed(4, u), 32, 2) for u in range(3)]
        with flops.counting() as tally:
            include_users(base, dec, new)
        est = estimate_flops("SD_UI", 32, 2, k=8, added=[2, 2, 2])
        assert tally.total == est.total
        assert len(est.breakdown) == 3

    def test_sequential_strictly_increases_with_users_and_streams(self):
        totals_k = [estimate_flops("SD", 2 * k + 10, 2, k=k).total for k in range(4, 40, 4)]
        assert all(a < b for a, b in zip(totals_k, totals_k[1:]))
        totals_m = [estimate_flops("SD", 50 * m + 10, m, k=50).total for m in (2, 4, 6, 8)]
        assert all(a < b for a, b in zip(totals_m, totals_m[1:]))

    def test_ratio_to_baseline_non_increasing_in_users(self):
        ratios = []
        for k in range(30, 81, 10):
            n_r = 2 * k + 10
            sd = estimate_flops("SD", n_r, 2, k=k).total
            sv = estimate_flops("SVD", n_r, 2, k=k).total
            ratios.append(sd / sv)
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] <= 0.01

    def test_inclusion_cheaper_than_rebuild_and_pinv(self):
        n_r, k0 = 130, 60
        for p in range(1, 6):
            ui = estimate_flops("SD_UI", n_r, 2, k=k0, added=[2] * p).total
            fresh = estimate_flops("SD", n_r, 2, k=k0 + p).total
            pinv = estimate_flops("PINV", n_r, 2, k=k0 + p).total
            assert ui < fresh < pinv

    def test_custom_model_scales_costs(self):
        cheap = CostModel(svd_scale=1.0)
        default = estimate_flops("SVD", 32, 2, k=8).total
        scaled = estimate_flops("SVD", 32, 2, k=8, model=cheap).total
        assert scaled == pytest.approx(default / 4, rel=1e-12)

    def test_missing_stream_counts_rejected(self):
        with pytest.raises(InvalidInputError, match="m_per_user is required"):
            estimate_flops("SD", 16, None, k=2)

    def test_scalar_streams_need_k(self):
        with pytest.raises(InvalidInputError, match="k is required"):
            estimate_flops("SD", 16, 2)

    def test_user_without_streams_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one stream"):
            estimate_flops("SD", 16, [2, 0])

    def test_added_users_only_for_inclusion(self):
        with pytest.raises(InvalidInputError, match="SD_UI"):
            estimate_flops("SD", 16, 2, k=2, added=[2])
