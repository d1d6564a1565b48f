"""Monte-Carlo harness: configuration, sweeps, audits, benches, output files."""

import json
import re

import numpy as np
import pytest

from decoupsim import decouplers, flops, harness
from decoupsim.channels import (
    CeErrorParams,
    KroneckerParams,
    LargeScaleParams,
    RngSeed,
    apply_large_scale,
    correlation_matrix,
    gen_iid_channel,
    kronecker_correlate,
    matrix_sqrt_psd,
    perturb_channel,
)
from decoupsim.errors import InfeasibleSystemError, InvalidConfigError, InvalidInputError, ShapeError
from decoupsim.harness import (
    AUDIT_COLUMNS,
    BER_COLUMNS,
    FLOP_COLUMNS,
    FlopSweep,
    SimConfig,
    audit_rows,
    ber_rows,
    emit_outputs,
    render_csv,
    run_equivalence_audit,
    run_flop_bench,
    run_paired_ber,
)
from decoupsim.kernels import SubspaceBasis, subspace_distance


def small_cfg(**kw):
    base = dict(n_r=12, k=3, m_i=2, snr_db=(0.0, 10.0), bits_per_point=1200, seed=7)
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_round_trip_through_dict(self):
        cfg = small_cfg(kronecker=KroneckerParams(0.25, 0.05),
                        large_scale=LargeScaleParams(),
                        ce_error=CeErrorParams(0.01))
        again = SimConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_trials_derived_from_bits(self):
        cfg = small_cfg()  # 3 users x 2 streams x 2 bits = 12 bits per trial
        assert cfg.trials == 100

    def test_rejects_unsorted_grid(self):
        with pytest.raises(InvalidConfigError):
            small_cfg(snr_db=(10.0, 0.0))

    def test_rejects_indivisible_bit_budget(self):
        with pytest.raises(InvalidConfigError):
            small_cfg(bits_per_point=1001)

    def test_rejects_unknown_detector(self):
        with pytest.raises(InvalidConfigError):
            small_cfg(detector="ML")

    @pytest.mark.parametrize("field,value", [
        ("whiten", "false"), ("n_r", 16.9), ("seed", True), ("m_i", 2.5),
        ("snr_db", "048"), ("constellation", 4),
        ("kronecker", {"rho_tx": 0.2, "rho_rx": 0.1}), ("large_scale", 3.0),
        ("ce_error", {"sigma_e2": 0.01}), ("cost_model", {"add": 2}),
        # non-finite numbers are not numbers a run can use
        ("snr_db", (0.0, float("nan"))), ("snr_db", (0.0, float("inf"))),
        ("snr_db", (float("-inf"), 0.0)),
    ])
    def test_direct_construction_is_type_checked(self, field, value):
        with pytest.raises(InvalidConfigError, match=f"{field} must be"):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("section,unknown", [
        ("cost_model", "qr_scale"), ("channel.kronecker", "rho"),
        ("channel.large_scale", "sigma_db"), ("channel.ce_error", "sigma2"),
    ])
    def test_unknown_section_key_is_named_by_its_dotted_path(self, section, unknown):
        with pytest.raises(InvalidConfigError,
                           match=rf"^unknown config key\(s\) {re.escape(section)}\.{unknown}$"):
            small_cfg().with_overrides({section: {unknown: 1.0}})

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
            small_cfg(seed=-3)

    def test_streams_must_fit_a_trial(self):
        # 16 + 3 x 100 x 3500 = 1,050,016 streams would run into the next trial's
        with pytest.raises(InvalidConfigError, match=r"k x n_subcarriers <= 349520"):
            SimConfig(n_r=200, k=100, m_i=1, n_subcarriers=3500, bits_per_point=700000)
        assert SimConfig(n_r=200, k=80, m_i=1, n_subcarriers=4369,
                         bits_per_point=2 * 80 * 4369).trials == 1

    def test_numpy_integers_are_integers(self):
        cfg = small_cfg(n_r=np.int64(12), seed=np.int32(7), m_i=np.array([2, 2, 2]))
        assert cfg == small_cfg() and type(cfg.n_r) is int and type(cfg.m_i[0]) is int

    def test_override_paths(self):
        cfg = small_cfg().with_overrides({"system.k": 4, "system.m_i": 2, "seed": 9,
                                          "channel.ce_error": {"sigma_e2": 0.02}})
        assert cfg.k == 4 and cfg.seed == 9
        assert cfg.m_i == (2, 2, 2, 2)
        assert cfg.ce_error == CeErrorParams(0.02)

    def test_per_user_noise_scale(self):
        cfg = small_cfg()
        assert cfg.sigma_n2(0.0) == pytest.approx(cfg.m_total / cfg.k)
        assert cfg.sigma_n2(10.0) == pytest.approx(cfg.m_total / cfg.k / 10.0)

    def test_stream_list_must_match_k(self):
        with pytest.raises(InvalidConfigError, match="m_i must give every one of the k users"):
            small_cfg(m_i=(2, 2))


class TestRunBerSweep:
    def test_noiseless_limit_is_error_free(self):
        res = run_paired_ber(small_cfg(snr_db=(60.0,), bits_per_point=12000))["SD", "LMMSE"]
        assert res.aggregate.bit_errors == (0,)
        assert res.aggregate.bits_sent == (12000,)

    def test_error_conservation_across_users(self):
        res = run_paired_ber(small_cfg())["SD", "LMMSE"]
        for i in range(2):
            assert sum(c.bit_errors[i] for c in res.per_user) == res.aggregate.bit_errors[i]
            assert sum(c.bits_sent[i] for c in res.per_user) == res.aggregate.bits_sent[i]

    def test_deterministic_across_thread_counts(self):
        r1 = run_paired_ber(small_cfg(threads=1))
        r4 = run_paired_ber(small_cfg(threads=4))
        assert r1 == r4

    @pytest.mark.parametrize("threads, bits", [(1, 120), (2, 120), (2, 204)],
                             ids=["1", "2", "2_two_blocks"])
    def test_sweep_is_never_flop_counted(self, threads, bits):
        # one thread or one block (10 trials) runs on the calling thread in an empty
        # context, two blocks (17 trials) on two worker threads: none starts with a tally
        with flops.counting() as tally:
            run_paired_ber(small_cfg(threads=threads, bits_per_point=bits))
        assert tally.total == 0

    @pytest.mark.parametrize("threads, bits", [(1, 120), (2, 120), (2, 204)],
                             ids=["1", "2", "2_two_blocks"])
    def test_sweep_ignores_the_callers_error_state(self, threads, bits):
        cfg = small_cfg(threads=threads, bits_per_point=bits)
        with np.errstate(all="raise"):
            raised = run_paired_ber(cfg)
        assert raised == run_paired_ber(cfg)

    def test_paired_arms_share_randomness(self):
        res = run_paired_ber(small_cfg(), ("SD", "SVD"), ("LMMSE",))
        # equal-subspace decouplers make identical decisions realization by realization
        assert res[("SD", "LMMSE")].aggregate == res[("SVD", "LMMSE")].aggregate

    def test_single_arm_matches_paired_slice(self):
        cfg = small_cfg()
        alone = run_paired_ber(cfg)
        paired = run_paired_ber(cfg, ("SD", "SVD"), ("LMMSE", "SIC"))
        assert alone == {("SD", "LMMSE"): paired[("SD", "LMMSE")]}

    def test_ce_error_decouples_from_perturbed_but_sends_through_true(self):
        noisy = run_paired_ber(small_cfg(snr_db=(60.0,), bits_per_point=6000,
                                         ce_error=CeErrorParams(0.05)))["SD", "LMMSE"]
        # estimation error leaves residual interference: errors at high snr
        assert noisy.aggregate.bit_errors[0] > 0

    def test_kronecker_and_large_scale_toggles_run(self):
        res = run_paired_ber(small_cfg(kronecker=KroneckerParams(0.25, 0.05),
                                       large_scale=LargeScaleParams()))["SD", "LMMSE"]
        assert res.aggregate.bits_sent[0] == 1200

    def test_infeasible_system_rejected(self):
        with pytest.raises(InfeasibleSystemError, match="user 0 cannot be decoupled"):
            run_paired_ber(SimConfig(n_r=4, k=3, m_i=2, snr_db=(0.0,),
                                     bits_per_point=120, seed=0))

    def test_pinv_overload_rejected_like_its_estimate(self):
        # decoupling-feasible (m_bar = 4 < 5) but 6 streams > n_r for pinv
        cfg = SimConfig(n_r=5, k=3, m_i=2, snr_db=(0.0,), bits_per_point=12, seed=0)
        message = "pseudo-inverse decoupler needs total streams 6 <= n_r=5"
        with pytest.raises(InfeasibleSystemError, match=message):
            run_paired_ber(cfg, ("SD", "PINV"))
        with pytest.raises(InfeasibleSystemError, match=message):
            flops.estimate_flops("PINV", 5, 2, k=3)

    def test_sic_overload_rejected_like_pinv(self):
        # every user is decouplable, but each link keeps 5 - 4 = 1 row for 2 streams
        cfg = SimConfig(n_r=5, k=3, m_i=2, snr_db=(0.0,), bits_per_point=12, seed=0)
        with pytest.raises(InfeasibleSystemError,
                           match="SIC detector needs total streams 6 <= n_r=5"):
            run_paired_ber(cfg, ("SD",), ("SIC",))

    def test_sic_runs_on_faint_users(self):
        # a 120 dB shadowing spread leaves some of R's pivots far below any absolute floor
        cfg = SimConfig.from_dict({"system": {"n_r": 16, "k": 3, "m_i": 2},
                                   "bits_per_point": 240, "detector": "SIC",
                                   "snr_db": [0, 200],
                                   "channel": {"large_scale": {"mu_db": 120}}})
        res = run_paired_ber(cfg, ("SD", "SVD"))
        assert [r.aggregate.bits_sent for r in res.values()] == [(240, 240)] * 2

    @pytest.mark.parametrize("arm", ["SD", "SVD", "PINV"])
    def test_sweep_decisions_match_public_detectors(self, arm):
        # replay one sweep trial by hand through the public per-link API;
        # with whiten off neither side whitens, even for PINV's colored noise
        import numpy as np
        from decoupsim.channels import RngSeed
        from decoupsim.decouplers import (
            SystemChannel, pinv_decoupler, sequential_decoupler, svd_decoupler,
        )
        from decoupsim.detectors import (
            Constellation, build_link, demodulate_symbols, lmmse_detect,
            modulate_bits, sic_detect,
        )
        from decoupsim.harness import _STRIDE, _build_true_channels

        cfg = small_cfg(snr_db=(2.0, 9.0), bits_per_point=600, seed=31)
        res = run_paired_ber(cfg, (arm,), ("LMMSE", "SIC"))
        cons = Constellation.qpsk()
        errors = np.zeros((2, len(cfg.snr_db)), dtype=int)
        for trial in range(cfg.trials):
            bits = RngSeed(cfg.seed, trial * _STRIDE).generator().integers(
                0, 2, size=(1, 12))
            rng_n = RngSeed(cfg.seed, trial * _STRIDE + 1).generator()
            unit = np.sqrt(0.5) * (rng_n.standard_normal((1, 12))
                                   + 1j * rng_n.standard_normal((1, 12)))
            chans = _build_true_channels(cfg, trial, 0, None)
            sys = SystemChannel(12, chans)
            dec = {"SD": sequential_decoupler, "SVD": svd_decoupler,
                   "PINV": pinv_decoupler}[arm](sys)
            x = modulate_bits(bits[0], cons)
            y_clean = np.concatenate(chans, axis=1) @ x
            for si, snr in enumerate(cfg.snr_db):
                s2 = cfg.sigma_n2(snr)
                y = y_clean + np.sqrt(s2) * unit[0]
                for u in range(3):
                    link = build_link(dec.w[u], chans[u], y, s2)
                    tx = bits[0][u * 4:(u + 1) * 4]
                    errors[0, si] += int(np.sum(
                        demodulate_symbols(lmmse_detect(link, cons), cons) != tx))
                    errors[1, si] += int(np.sum(
                        demodulate_symbols(sic_detect(link, cons), cons) != tx))
        assert tuple(errors[0]) == res[(arm, "LMMSE")].aggregate.bit_errors
        assert tuple(errors[1]) == res[(arm, "SIC")].aggregate.bit_errors

    @pytest.mark.parametrize("extra,golden", [
        # frozen from the per-user, per-SNR-point detection loop that
        # preceded stacked detection: 2 subcarriers, i.i.d. channels
        (dict(bits_per_point=1920, n_subcarriers=2), {
            "LMMSE": ((23, 5, 0), (49, 9, 0), (72, 15, 0), (49, 12, 1), (111, 14, 0)),
            "SIC": ((18, 3, 0), (51, 6, 0), (70, 15, 1), (46, 11, 0), (105, 18, 0)),
        }),
        # frozen from the sweep's own Kronecker product and noise draw that
        # preceded the channels-module draws: 3 subcarriers, every channel section
        (dict(bits_per_point=1728, n_subcarriers=3,
              kronecker=KroneckerParams(rho_tx=0.4, rho_rx=0.3),
              large_scale=LargeScaleParams(), ce_error=CeErrorParams(sigma_e2=0.01)), {
            "LMMSE": ((16, 4, 2), (44, 16, 11), (43, 7, 3), (25, 11, 6), (99, 50, 13)),
            "SIC": ((13, 4, 2), (34, 14, 8), (44, 11, 3), (25, 13, 4), (88, 38, 16)),
        }),
    ], ids=["iid", "channel_sections"])
    def test_golden_per_user_bit_errors(self, extra, golden):
        # mixed m_i, QAM16, whitening: every decoupler gives the same counts
        cfg = SimConfig(n_r=20, k=5, m_i=(1, 2, 3, 2, 4), constellation="QAM16",
                        snr_db=(0.0, 6.0, 12.0), seed=5, whiten=True, **extra)
        res = run_paired_ber(cfg, ("SD", "SVD", "PINV"), ("LMMSE", "SIC"))
        for (dec, det), result in res.items():
            assert tuple(c.bit_errors for c in result.per_user) == golden[det], (dec, det)

    def test_channel_factory_hook_drives_per_subcarrier_loop(self):
        cfg = small_cfg(n_subcarriers=2, bits_per_point=2400)
        calls = []

        def factory(trial, subcarrier):
            calls.append((trial, subcarrier))
            rng = RngSeed(1000 + trial, subcarrier).generator()
            return [np.sqrt(0.5) * (rng.standard_normal((12, 2))
                                    + 1j * rng.standard_normal((12, 2)))
                    for _ in range(3)]

        res = run_paired_ber(cfg, channel_factory=factory)["SD", "LMMSE"]
        assert res.aggregate.bits_sent[0] == 2400
        assert set(calls) == {(t, s) for t in range(cfg.trials) for s in range(2)}

    def test_non_finite_factory_channels_rejected(self):
        def factory(trial, subcarrier):
            return [np.full((12, 2), np.nan if trial == 3 else 1.0, dtype=complex)] * 3

        with pytest.raises(InvalidInputError, match=r"channel_factory\(3, 0\) returned non-finite"):
            run_paired_ber(small_cfg(), channel_factory=factory)

    @pytest.mark.parametrize("shapes", [
        [(12, 3)] * 3,            # 3-stream channels where m_i = 2
        [(12, 2)] * 2,            # a user short
        [(10, 2)] * 3,            # wrong antenna count
    ], ids=["streams", "users", "antennas"])
    def test_wrong_factory_channels_fail_before_any_work(self, shapes, monkeypatch):
        folds = []
        monkeypatch.setattr(decouplers, "_fold_group", lambda *args: folds.append(args))

        def factory(trial, subcarrier):
            return [np.ones(shape, dtype=complex) for shape in shapes]

        with pytest.raises(ShapeError, match=r"channel_factory\(0, 0\) returned shapes"):
            run_paired_ber(small_cfg(), channel_factory=factory)
        assert folds == []

    def test_unknown_decoupler_rejected(self):
        with pytest.raises(InvalidConfigError, match="unknown decoupler 'QR'"):
            run_paired_ber(small_cfg(), ("QR",), ("LMMSE",))

    def test_unknown_detector_rejected(self):
        with pytest.raises(InvalidConfigError, match="unknown detector 'ML'"):
            run_paired_ber(small_cfg(), ("SD",), ("ML",))


class TestKroneckerRoots:
    CFG = SimConfig(n_r=10, k=3, m_i=(1, 3, 1), snr_db=(4.0,), bits_per_point=10,
                    kronecker=KroneckerParams(rho_tx=0.35, rho_rx=0.6))

    def test_roots_are_factored_once_and_read_only(self):
        (rx, tx), (rx_again, tx_again) = (harness._kronecker_roots(self.CFG) for _ in range(2))
        assert rx is rx_again and sorted(tx) == sorted(tx_again) == [1, 3]
        assert all(tx[m] is tx_again[m] for m in tx) and tx is not tx_again
        for root in (rx, *tx.values()):
            with pytest.raises(ValueError, match="read-only"):
                root[0, 0] = 2.0

    def test_roots_have_the_bytes_of_a_fresh_factorization(self):
        rx, tx = harness._kronecker_roots(self.CFG)
        fresh = [(rx, matrix_sqrt_psd(correlation_matrix(0.6, 10)))]
        fresh += [(tx[m], matrix_sqrt_psd(correlation_matrix(0.35, m))) for m in (1, 3)]
        for got, want in fresh:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_roots_follow_the_parameters(self):
        other = self.CFG.with_overrides({"channel.kronecker.rho_rx": 0.2})
        (rx, tx), (rx_other, tx_other) = map(harness._kronecker_roots, (self.CFG, other))
        assert not np.array_equal(rx, rx_other)
        assert all(tx[m] is tx_other[m] for m in tx)
        assert harness._kronecker_roots(small_cfg()) is None


class TestBlockChannels:
    """A block draws its channels stacked, with the bytes of the public per-stream
    generators over the ``(seed, trial * 2^20 + purpose)`` streams."""

    CFG = SimConfig(n_r=10, k=4, m_i=(1, 3, 2, 3), n_subcarriers=3, snr_db=(4.0,), seed=9,
                    bits_per_point=(2 * harness._BLOCK + 3) * 2 * 9 * 3,
                    kronecker=KroneckerParams(rho_tx=0.4, rho_rx=0.3),
                    large_scale=LargeScaleParams(), ce_error=CeErrorParams(sigma_e2=0.01))

    @staticmethod
    def reference(cfg, trial, sc, true=None):
        """(true, used) channels of one system, user by user."""
        base = trial * harness._STRIDE + 16 + 3 * cfg.k * sc
        rx_root = matrix_sqrt_psd(correlation_matrix(cfg.kronecker.rho_rx, cfg.n_r))
        if true is None:
            true = []
            for u, m in enumerate(cfg.m_i):
                h = gen_iid_channel(RngSeed(cfg.seed, base + 3 * u), cfg.n_r, m)
                h = kronecker_correlate(
                    h, matrix_sqrt_psd(correlation_matrix(cfg.kronecker.rho_tx, m)), rx_root)
                true.append(apply_large_scale(h, cfg.large_scale,
                                              RngSeed(cfg.seed, base + 3 * u + 2)))
        return true, [perturb_channel(h, cfg.ce_error, RngSeed(cfg.seed, base + 3 * u + 1))
                      for u, h in enumerate(true)]

    @staticmethod
    def users(cfg, h):
        """One system's user channels: column slices of its side-by-side channels."""
        return np.split(h, np.cumsum(cfg.m_i)[:-1], axis=1)

    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_block_straddling_trial_4096(self):
        # trial 4096's streams start at 2^32, where a stream takes a second hash word
        cfg, roots = self.CFG, harness._kronecker_roots(self.CFG)
        entries = [(trial, sc) for trial in range(4090, 4102) for sc in range(3)]
        true, used = harness._channels(cfg, entries)
        for e, (trial, sc) in enumerate(entries):
            want_true, want_used = self.reference(cfg, trial, sc)
            self.assert_same(self.users(cfg, true[e]), want_true)
            self.assert_same(self.users(cfg, used[e]), want_used)
            # the per-trial functions are the one-system case
            one_true = harness._build_true_channels(cfg, trial, sc, roots)
            self.assert_same(one_true, want_true)
            self.assert_same(harness._perturb_channels(cfg, trial, sc, one_true), want_used)

    @pytest.mark.parametrize("factory", [False, True], ids=["built_in", "channel_factory"])
    def test_sweep_blocks_draw_the_public_channels(self, factory, monkeypatch):
        cfg, blocks, stack = self.CFG, [], harness.gen_channel_stack
        sd_sets = harness._DECOUPLERS["SD"]

        def spy(seed, streams, n_r, widths, kronecker=None, large_scale=None, ce_error=None,
                true=None):  # the public draw, under the name the harness calls
            given = true
            true, used = stack(seed, streams, n_r, widths, kronecker, large_scale, ce_error, given)
            assert (true is given) == factory  # a factory's channels are only perturbed
            blocks.append((len(streams), true, used))
            return true, used

        def spy_sd(local, widths):  # SD decouples the used channels, true plus error
            assert local is blocks[-1][2]
            return sd_sets(local, widths)

        def channels(trial, sc):  # a factory's own channels, kept as they are
            rng = RngSeed(500 + trial, sc).generator()
            return [rng.standard_normal((cfg.n_r, m)) + 1j * rng.standard_normal((cfg.n_r, m))
                    for m in cfg.m_i]

        monkeypatch.setattr(harness, "gen_channel_stack", spy)
        monkeypatch.setitem(harness._DECOUPLERS, "SD", spy_sd)
        run_paired_ber(cfg, channel_factory=channels if factory else None)
        # two full blocks and a short one of 3 trials, 3 subcarriers each
        assert [n for n, _, _ in blocks] == [3 * harness._BLOCK] * 2 + [9]
        systems = iter((trial, sc) for trial in range(cfg.trials) for sc in range(3))
        for _, true, used in blocks:
            for h_true, h_used in zip(true, used, strict=True):
                trial, sc = next(systems)
                want_true, want_used = self.reference(
                    cfg, trial, sc, channels(trial, sc) if factory else None)
                self.assert_same(self.users(cfg, h_true), want_true)
                self.assert_same(self.users(cfg, h_used), want_used)
        assert next(systems, None) is None


class TestTrialBlocks:
    """A sweep task runs a block of ``harness._BLOCK`` trials; the split changes nothing."""

    ARMS = (("SD", "SVD", "PINV"), ("LMMSE", "SIC"))

    @staticmethod
    def cfg(**kw):
        # two full blocks and a short one, two subcarriers: 24 bits per trial
        return small_cfg(n_subcarriers=2, bits_per_point=(2 * harness._BLOCK + 3) * 24, **kw)

    @pytest.mark.parametrize("whiten", [False, True])
    def test_results_do_not_depend_on_threads_or_block_size(self, whiten, monkeypatch):
        cfg = self.cfg(whiten=whiten)
        assert cfg.trials == 2 * harness._BLOCK + 3
        reference = run_paired_ber(cfg, *self.ARMS)
        for threads in (2, 5):
            assert run_paired_ber(cfg.with_overrides({"threads": threads}), *self.ARMS) == reference
        monkeypatch.setattr(harness, "_BLOCK", 1)
        assert run_paired_ber(cfg, *self.ARMS) == reference

    def test_one_level_one_fold_per_block(self, monkeypatch):
        calls, fold = [], decouplers._fold_group

        def spy(halves, widths):
            # (rows, stacked halves) of every stacked fold
            calls.append((halves[0][2].shape[1], sum(len(a) for _, _, a, _ in halves)))
            return fold(halves, widths)

        monkeypatch.setattr(decouplers, "_fold_group", spy)
        cfg = self.cfg()
        run_paired_ber(cfg, ("SD",), ("LMMSE",))
        # K=3 splits the root's users 2 | 1, so its two sides fold apart, each
        # over all (trial, subcarrier) systems of a block at once
        level_1 = [n for rows, n in calls if rows == cfg.n_r]
        assert level_1 == [2 * harness._BLOCK] * 4 + [2 * 3] * 2


class TestAudit:
    def test_residuals_and_equivalence_at_machine_precision(self):
        cfg = small_cfg(n_r=16, k=4, audit_trials=25)
        report = run_equivalence_audit(cfg)
        assert report.trials == 25
        assert max(report.max_cross_residual.values()) <= 1e-10
        assert report.max_subspace_distance_vs_svd <= 1e-9
        assert set(report.max_cross_residual) == {"SD", "SVD", "PINV"}
        assert all(v == 0 for v in report.rank_failures.values())

    def test_overloaded_system_skips_pinv_arm(self):
        # decoupling-feasible (m_bar = 10 < 11) but too many streams for pinv
        cfg = SimConfig(n_r=11, k=6, m_i=2, snr_db=(0.0,), bits_per_point=240,
                        audit_trials=5, seed=1)
        report = run_equivalence_audit(cfg)
        assert set(report.max_cross_residual) == {"SD", "SVD"}

    def test_report_matches_a_per_trial_reference(self):
        # mixed widths and every channel section; 20 trials make a full block and
        # a short one, each system drawn, built and verified on its own here
        cfg = SimConfig(n_r=20, k=5, m_i=(1, 2, 3, 2, 4), snr_db=(0.0,), bits_per_point=48,
                        seed=11, audit_trials=20,
                        kronecker=KroneckerParams(rho_tx=0.4, rho_rx=0.3),
                        large_scale=LargeScaleParams(mu_db=3.0, l_path=0.65, d_rel=0.65),
                        ce_error=CeErrorParams(sigma_e2=0.01))
        roots = harness._kronecker_roots(cfg)
        builds = {"SD": decouplers.sequential_decoupler, "SVD": decouplers.svd_decoupler,
                  "PINV": decouplers.pinv_decoupler}
        worst, fails, dist = dict.fromkeys(builds, 0.0), dict.fromkeys(builds, 0), 0.0
        for trial in range(20):
            true = harness._build_true_channels(cfg, trial, 0, roots)
            sys = decouplers.SystemChannel(20, harness._perturb_channels(cfg, trial, 0, true))
            sets = {m: build(sys) for m, build in builds.items()}
            for m, dec in sets.items():
                rep = decouplers.verify_decoupling(sys, dec)
                worst[m] = max(worst[m], rep.max_cross_residual)
                fails[m] += sum(not u["full_rank"] for u in rep.per_user)
            for w_sd, w_svd in zip(sets["SD"].w, sets["SVD"].w, strict=True):
                dist = max(dist, subspace_distance(SubspaceBasis(w_sd), SubspaceBasis(w_svd)))
        assert run_equivalence_audit(cfg) == harness.AuditReport(20, worst, fails, dist)


class TestFlopBench:
    def test_users_sweep_rows(self):
        rows = run_flop_bench(FlopSweep(mode="users", k_values=(30, 40), instrumented=False))
        assert len(rows) == 6
        sd30 = next(r for r in rows if r["algorithm"] == "SD" and r["param"] == 30)
        assert sd30["ratio_to_svd"] <= 0.01
        assert sd30["flops_instrumented"] == ""

    def test_instrumented_matches_estimates(self):
        rows = run_flop_bench(FlopSweep(mode="users", k_values=(30,), instrumented=True))
        for r in rows:
            assert r["flops_instrumented"] == r["flops_estimate"]

    def test_streams_sweep(self):
        rows = run_flop_bench(FlopSweep(mode="streams", k=10, m_values=(2, 4),
                                        instrumented=False))
        sd = [r["flops_estimate"] for r in rows if r["algorithm"] == "SD"]
        assert sd[0] < sd[1]

    def test_inclusion_sweep_ordering(self):
        rows = run_flop_bench(FlopSweep(mode="inclusion", base_k=12, base_n_r=34,
                                        m_i=2, p_max=2, instrumented=True))
        for p in (1, 2):
            by_alg = {r["algorithm"]: r for r in rows if r["param"] == p}
            assert by_alg["SD_UI"]["flops_estimate"] < by_alg["SD"]["flops_estimate"]
            assert by_alg["SD"]["flops_estimate"] < by_alg["PINV"]["flops_estimate"]
            assert by_alg["SD_UI"]["flops_instrumented"] == by_alg["SD_UI"]["flops_estimate"]

    def test_inclusion_and_rebuild_rows_share_one_system(self, monkeypatch):
        # each point's SD_UI row includes the newcomers that its rebuild rows build on
        included, rebuilt = [], {alg: [] for alg in ("SD", "SVD", "PINV")}
        include = harness.include_users

        def spy_include(*args):
            out = include(*args)
            included.append(out[0].stacked())
            return out

        def spy(alg, build):
            def built(stack, widths):
                rebuilt[alg].append(stack[0])
                return build(stack, widths)
            return built

        monkeypatch.setattr(harness, "include_users", spy_include)
        for alg in rebuilt:
            monkeypatch.setitem(harness._DECOUPLERS, alg, spy(alg, harness._DECOUPLERS[alg]))
        run_flop_bench(FlopSweep(mode="inclusion", base_k=5, base_n_r=20, m_i=2, p_max=3))
        assert len(included) == 3
        for stacks in rebuilt.values():
            assert [h.tobytes() for h in stacks] == [h.tobytes() for h in included]

    @pytest.mark.parametrize("instrumented", [False, True])
    def test_zero_cost_baseline_gives_empty_ratio(self, instrumented):
        # a single user's complement is empty: its SVD baseline costs 0 FLOPs
        rows = run_flop_bench(FlopSweep(mode="users", k_values=(1, 2),
                                        instrumented=instrumented))
        assert [r["ratio_to_svd"] == "" for r in rows] == [True] * 3 + [False] * 3
        assert rows[2]["ratio_to_pinv"] == 1.0

    def test_infeasible_entries_skipped_with_warning(self):
        with pytest.warns(UserWarning):
            rows = run_flop_bench(FlopSweep(mode="users", k_values=(4,), n_r=6,
                                            instrumented=False))
        assert rows == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidConfigError, match="bogus"):
            run_flop_bench(FlopSweep(mode="bogus", instrumented=False))


class TestOutputs:
    def test_csv_round_trip(self, tmp_path):
        res = run_paired_ber(small_cfg(), ("SD",), ("LMMSE",))
        rows = ber_rows(res)
        paths = emit_outputs({"ber": (BER_COLUMNS, rows)}, tmp_path,
                             {"command": "test", "config": small_cfg().to_dict()})
        csv_path = next(p for p in paths if p.endswith("ber.csv"))
        lines = open(csv_path).read().splitlines()
        assert lines[0] == ",".join(BER_COLUMNS)
        assert len(lines) == 1 + len(rows)
        # parse a record back
        cells = lines[1].split(",")
        assert cells[0] == "SD" and cells[1] == "LMMSE"

    def test_empty_rows_give_header_only_file(self, tmp_path):
        emit_outputs({"empty": (FLOP_COLUMNS, [])}, tmp_path, {"command": "test"})
        content = (tmp_path / "empty.csv").read_text()
        assert content == ",".join(FLOP_COLUMNS) + "\n"

    def test_manifest_reproduces_identical_rerun(self, tmp_path):
        cfg = small_cfg()
        res = run_paired_ber(cfg, ("SD",), ("LMMSE",))
        emit_outputs({"ber": (BER_COLUMNS, ber_rows(res))}, tmp_path,
                     {"command": "ber", "config": cfg.to_dict(), "seed": cfg.seed})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cfg2 = SimConfig.from_dict(manifest["config"])
        res2 = run_paired_ber(cfg2, ("SD",), ("LMMSE",))
        assert ber_rows(res) == ber_rows(res2)
        assert manifest["snr_definition"]
        assert manifest["flop_convention"]
        assert manifest["package_version"]

    def test_audit_rows_schema(self):
        cfg = small_cfg(audit_trials=3)
        rows = audit_rows(run_equivalence_audit(cfg))
        text = render_csv(AUDIT_COLUMNS, rows)
        assert text.splitlines()[0] == ",".join(AUDIT_COLUMNS)
        assert len(rows) == 3

    def test_flop_rows_schema(self):
        rows = run_flop_bench(FlopSweep(mode="users", k_values=(30,), instrumented=False))
        assert all(set(r) == set(FLOP_COLUMNS) for r in rows)

    def test_golden_column_headers(self):
        # frozen output schema: changing these breaks downstream consumers
        assert ",".join(BER_COLUMNS) == (
            "decoupler,detector,user,snr_db,bits_sent,bit_errors,ber,stderr"
        )
        assert ",".join(AUDIT_COLUMNS) == (
            "decoupler,trials,max_cross_residual,rank_failures,"
            "max_subspace_distance_vs_svd"
        )
        assert ",".join(FLOP_COLUMNS) == (
            "sweep,param,n_r,algorithm,flops_estimate,flops_instrumented,"
            "ratio_to_svd,ratio_to_pinv"
        )

    def test_golden_ber_csv_body(self, tmp_path):
        # full frozen artifact for one tiny deterministic run
        cfg = SimConfig(n_r=8, k=2, m_i=2, snr_db=(0.0,), bits_per_point=80, seed=123)
        rows = ber_rows(run_paired_ber(cfg, ("SD",), ("SIC",)))
        text = render_csv(BER_COLUMNS, rows)
        lines = text.splitlines()
        assert lines[0] == "decoupler,detector,user,snr_db,bits_sent,bit_errors,ber,stderr"
        assert len(lines) == 4  # header + user 0 + user 1 + aggregate
        assert lines[1].startswith("SD,SIC,0,0.0,40,")
        assert lines[3].startswith("SD,SIC,all,0.0,80,")
        agg_errors = int(lines[3].split(",")[5])
        assert agg_errors == int(lines[1].split(",")[5]) + int(lines[2].split(",")[5])

    def test_output_below_a_file_is_config_error(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("a file")
        with pytest.raises(InvalidConfigError, match="cannot write outputs"):
            emit_outputs({"empty": (FLOP_COLUMNS, [])}, taken / "sub", {"command": "test"})
        assert taken.read_text() == "a file"
