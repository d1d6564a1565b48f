"""Monte-Carlo harness: configuration, sweeps, audits, benches, output files."""

import json

import numpy as np
import pytest

from decoupsim import flops
from decoupsim.channels import CeErrorParams, KroneckerParams, LargeScaleParams, RngSeed
from decoupsim.errors import InfeasibleSystemError, InvalidConfigError
from decoupsim.harness import (
    AUDIT_COLUMNS,
    BER_COLUMNS,
    FLOP_COLUMNS,
    FlopSweep,
    SimConfig,
    audit_rows,
    ber_rows,
    config_from_manifest,
    emit_outputs,
    render_csv,
    run_ber_sweep,
    run_equivalence_audit,
    run_flop_bench,
    run_paired_ber,
)


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


class TestRunBerSweep:
    def test_noiseless_limit_is_error_free(self):
        res = run_ber_sweep(small_cfg(snr_db=(60.0,), bits_per_point=12000))
        assert res.aggregate.bit_errors == (0,)
        assert res.aggregate.bits_sent == (12000,)

    def test_error_conservation_across_users(self):
        res = run_ber_sweep(small_cfg())
        for i in range(2):
            assert sum(c.bit_errors[i] for c in res.per_user) == res.aggregate.bit_errors[i]
            assert sum(c.bits_sent[i] for c in res.per_user) == res.aggregate.bits_sent[i]

    def test_deterministic_across_thread_counts(self):
        r1 = run_ber_sweep(small_cfg(threads=1))
        r4 = run_ber_sweep(small_cfg(threads=4))
        assert r1 == r4

    def test_paired_arms_share_randomness(self):
        res = run_paired_ber(small_cfg(), ("SD", "SVD"), ("LMMSE",))
        # equal-subspace decouplers make identical decisions realization by realization
        assert res[("SD", "LMMSE")].aggregate == res[("SVD", "LMMSE")].aggregate

    def test_single_arm_matches_paired_slice(self):
        cfg = small_cfg()
        alone = run_ber_sweep(cfg)
        paired = run_paired_ber(cfg, ("SD", "SVD"), ("LMMSE", "SIC"))
        assert alone == paired[("SD", "LMMSE")]

    def test_ce_error_decouples_from_perturbed_but_sends_through_true(self):
        noisy = run_ber_sweep(small_cfg(snr_db=(60.0,), bits_per_point=6000,
                                        ce_error=CeErrorParams(0.05)))
        # estimation error leaves residual interference: errors at high snr
        assert noisy.aggregate.bit_errors[0] > 0

    def test_kronecker_and_large_scale_toggles_run(self):
        res = run_ber_sweep(small_cfg(kronecker=KroneckerParams(0.25, 0.05),
                                      large_scale=LargeScaleParams()))
        assert res.aggregate.bits_sent[0] == 1200

    def test_infeasible_system_rejected(self):
        with pytest.raises(InfeasibleSystemError, match="user 0 cannot be decoupled"):
            run_ber_sweep(SimConfig(n_r=4, k=3, m_i=2, snr_db=(0.0,),
                                    bits_per_point=120, seed=0))

    @pytest.mark.parametrize("arm", ["SD", "SVD", "PINV"])
    def test_sweep_decisions_match_public_detectors(self, arm):
        # replay one sweep trial by hand through the public per-link API;
        # with whiten off neither side whitens, even for PINV's colored noise
        import numpy as np
        from decoupsim.channels import RngSeed
        from decoupsim.decouplers import SystemChannel
        from decoupsim.detectors import (
            Constellation, build_link, demodulate_symbols, lmmse_detect,
            modulate_bits, sic_detect,
        )
        from decoupsim.harness import _DECOUPLE_FN, _STRIDE, _build_true_channels

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
            dec = _DECOUPLE_FN[arm](sys)
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

    def test_golden_per_user_bit_errors(self):
        # counts frozen from the per-user, per-SNR-point detection loop that
        # preceded stacked detection: mixed m_i, QAM16, whitening, 2 subcarriers
        cfg = SimConfig(n_r=20, k=5, m_i=(1, 2, 3, 2, 4), constellation="QAM16",
                        snr_db=(0.0, 6.0, 12.0), bits_per_point=1920, seed=5,
                        whiten=True, n_subcarriers=2)
        res = run_paired_ber(cfg, ("SD", "SVD", "PINV"), ("LMMSE", "SIC"))
        golden = {
            "LMMSE": ((23, 5, 0), (49, 9, 0), (72, 15, 0), (49, 12, 1), (111, 14, 0)),
            "SIC": ((18, 3, 0), (51, 6, 0), (70, 15, 1), (46, 11, 0), (105, 18, 0)),
        }
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

        res = run_ber_sweep(cfg, channel_factory=factory)
        assert res.aggregate.bits_sent[0] == 2400
        assert set(calls) == {(t, s) for t in range(cfg.trials) for s in range(2)}


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

    def test_infeasible_entries_skipped_with_warning(self):
        with pytest.warns(UserWarning):
            rows = run_flop_bench(FlopSweep(mode="users", k_values=(4,), n_r=6,
                                            instrumented=False))
        assert rows == []


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
        cfg2 = config_from_manifest(manifest)
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
