"""Decoupling an uplink channel three ways.

Builds a small multi-user system, computes decouplers with the
tree-based sequential construction, the per-user factorization baseline
and the pseudo-inverse, and shows that (a) every construction removes
cross-user interference to machine precision and (b) the sequential and
baseline constructions span identical per-user subspaces.

Run:  python demos/01_decoupling_basics.py
"""

import numpy as np

from decoupsim import (
    RngSeed,
    SubspaceBasis,
    SystemChannel,
    gen_iid_channel,
    pinv_decoupler,
    sequential_decoupler,
    subspace_distance,
    svd_decoupler,
    verify_decoupling,
)

N_R, K, M_I = 16, 4, 2

channels = [gen_iid_channel(RngSeed(7, u), N_R, M_I) for u in range(K)]
system = SystemChannel(N_R, channels)
print(f"system: n_r={N_R}, k={K}, m_i={M_I} (m_bar per user = {system.m_bar(0)})")

for name, build in [("sequential", sequential_decoupler),
                    ("per-user factorization", svd_decoupler),
                    ("pseudo-inverse", pinv_decoupler)]:
    dec = build(system)
    report = verify_decoupling(system, dec)
    shapes = sorted({w.shape for w in dec.w})
    print(f"\n{name} decoupler: shapes {shapes}, "
          f"max cross-user residual {report.max_cross_residual:.2e}, "
          f"all effective channels full rank: {report.all_full_rank()}")

sd = sequential_decoupler(system)
sv = svd_decoupler(system)
print("\nper-user subspace distance, sequential vs baseline:")
for u in range(K):
    d = subspace_distance(SubspaceBasis(sd.w[u]), SubspaceBasis(sv.w[u]))
    print(f"  user {u}: {d:.2e}")

pv = pinv_decoupler(system)
print("\npseudo-inverse also equalizes each user's own channel to I:")
print(f"  ||W_0 H_0 - I|| = {np.linalg.norm(pv.w[0] @ channels[0] - np.eye(M_I)):.2e}")
