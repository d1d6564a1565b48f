"""Every metric the benchmark reports: (name, unit, better).

BENCHMARK.json lists the same metrics; selftest.py checks that the two
agree and that each run emits every metric of its kind with its unit.

On decouple_k80 a "trial" is one K=80 realization, built ROUNDS times by
SD, PINV and include_users and once by SVD.  A layer metric reads 0 on a
workload that does not exercise that layer (no detection on
decouple_k80, no CLI outside cli_ber, one regime table per BER regime).
"""

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("trials_per_s", "trials/s", "higher"),
    ("sd_build_ms_p50", "ms", "lower"),
    ("sd_build_ms_p90", "ms", "lower"),
    ("pinv_build_ms_p50", "ms", "lower"),
    ("pinv_build_ms_p90", "ms", "lower"),
    ("svd_build_ms_p50", "ms", "lower"),
    ("include_ms_p50", "ms", "lower"),
    ("include_ms_p90", "ms", "lower"),
]

KERNELS = ("left_nullspace_basis", "pseudo_inverse", "numerical_rank", "qr_decompose")
DECOUPLERS = ("SD", "SVD", "PINV", "include")
REGIMES = ("uncorrelated", "kronecker", "large_scale", "ce_error")

PER_LAYER = (
    [("channels.self_ms_per_trial", "ms", "lower"),
     ("channels.calls_per_trial", "count", "lower")]
    + [m for k in KERNELS for m in ((f"kernels.{k}.ms", "ms", "lower"),
                                    (f"kernels.{k}.calls", "count", "lower"))]
    + [(f"{layer}.self_ms_per_trial", "ms", "lower")
       for layer in ("kernels", "decouplers", "detectors", "harness")]
    + [m for d in DECOUPLERS for m in ((f"decouplers.{d}.ms", "ms", "lower"),
                                       (f"decouplers.{d}.model_flops", "count", "lower"),
                                       (f"decouplers.{d}.model_gflops_per_s", "GFLOP/s", "higher"))]
    + [(f"decouplers.{r}.{kind}", "ratio", "lower")
       for r in ("SD_over_SVD", "SD_over_PINV", "include_over_rebuild")
       for kind in ("wall", "model")]
    + [("decouplers.max_cross_residual", "rel", "lower"),
       ("decouplers.max_subspace_distance", "rel", "lower"),
       ("decouplers.max_include_distance", "rel", "lower"),
       ("decouplers.max_orthonormality_defect", "rel", "lower"),
       ("decouplers.rank_failures", "count", "lower"),
       ("detectors.modulate.ms_per_trial", "ms", "lower"),
       ("detectors.lmmse.us_per_link", "us", "lower"),
       ("detectors.sic.us_per_link", "us", "lower"),
       ("detectors.replay_disagreements", "count", "lower"),
       ("detectors.replay_links", "count", "higher"),
       ("flops.counting_overhead", "ratio", "lower")]
    + [(f"flops.estimate_rel_error.{a}", "ratio", "lower")
       for a in ("SD", "SVD", "PINV", "SD_UI")]
    + [(f"harness.{r}.trials_per_s", "trials/s", "higher") for r in REGIMES]
    + [("harness.emit_ms", "ms", "lower"),
       ("harness.parallel_speedup", "ratio", "higher"),
       ("cli.self_ms", "ms", "lower"),
       ("cli.nonzero_exits", "count", "lower"),
       ("trace.overhead", "ratio", "lower"),
       ("trace.self_cover", "ratio", "higher"),
       ("bench.error_rate", "ratio", "lower")]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
