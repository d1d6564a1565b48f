"""The package's public surface."""

import decoupsim


def test_public_names_are_pinned():
    # adding or removing a public name must be a deliberate edit of this list
    assert sorted(decoupsim.__all__) == [
        "CeErrorParams", "Constellation", "CostModel", "DecouplerSet", "DecouplingReport",
        "DecoupsimError", "EffectiveLink", "FlopReport", "InfeasibleSystemError",
        "InvalidConfigError", "InvalidInputError", "KroneckerParams", "LargeScaleParams",
        "PartitionNode", "QrFactors", "RngSeed", "ShapeError", "SingularMatrixError",
        "SubspaceBasis", "SystemChannel", "apply_large_scale", "build_link", "channels",
        "correlation_matrix", "decouplers", "demodulate_symbols", "detectors", "errors",
        "estimate_flops", "flops", "gen_awgn", "gen_iid_channel", "identity_basis",
        "include_users", "kernels", "kronecker_correlate", "left_nullspace_basis",
        "lmmse_detect", "lmmse_filter", "lmmse_stack", "matrix_sqrt_psd", "modulate_bits",
        "numerical_rank", "partition_tree", "perturb_channel", "pinv_decoupler",
        "qr_decompose", "recursive_common_nullspace", "sequential_decoupler", "sic_detect",
        "sic_stack", "slice_symbols", "subspace_distance", "svd_decoupler",
        "verify_decoupling",
    ]
    # the audit-only product and its cost wrapper are gone from their modules too
    assert not hasattr(decoupsim.flops, "count_matmul")
    assert not hasattr(decoupsim.kernels, "matmul")
