"""Decoupled detection for the multi-user MIMO uplink.

A numpy library covering the full simulation chain: channel generation,
interference-removing decouplers (tree-based sequential construction,
per-user SVD baseline, pseudo-inverse), per-user LMMSE and QR-SIC
detection, FLOP accounting, and a reproducible Monte-Carlo BER harness
with a batch CLI (``decoupsim ber|audit|flops|include``).
"""

__version__ = "0.1.0"

from .channels import (
    CeErrorParams,
    KroneckerParams,
    LargeScaleParams,
    RngSeed,
    apply_large_scale,
    correlation_matrix,
    gen_awgn,
    gen_iid_channel,
    kronecker_correlate,
    matrix_sqrt_psd,
    perturb_channel,
)
from .decouplers import (
    DecouplerSet,
    DecouplingReport,
    PartitionNode,
    SystemChannel,
    include_users,
    partition_tree,
    pinv_decoupler,
    recursive_common_nullspace,
    sequential_decoupler,
    svd_decoupler,
    verify_decoupling,
)
from .detectors import (
    Constellation,
    EffectiveLink,
    build_link,
    demodulate_symbols,
    lmmse_detect,
    lmmse_filter,
    lmmse_stack,
    modulate_bits,
    sic_detect,
    sic_stack,
    slice_symbols,
)
from .errors import (
    DecoupsimError,
    InfeasibleSystemError,
    InvalidConfigError,
    InvalidInputError,
    ShapeError,
    SingularMatrixError,
)
from .flops import CostModel, FlopReport, estimate_flops
from .kernels import (
    SubspaceBasis,
    left_nullspace_basis,
    numerical_rank,
    subspace_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
