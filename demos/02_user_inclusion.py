"""Adding users to a running system without rebuilding every decoupler.

Starts from an 8-user system, admits three newcomers one at a time, and
compares (a) the decoupling quality and subspaces against a full rebuild
and (b) the instrumented FLOP cost of the incremental update against
rebuilding from scratch and against the pseudo-inverse recompute.

Run:  python demos/02_user_inclusion.py
"""

from decoupsim import (
    RngSeed,
    SubspaceBasis,
    SystemChannel,
    flops,
    gen_iid_channel,
    include_users,
    pinv_decoupler,
    sequential_decoupler,
    subspace_distance,
    verify_decoupling,
)

N_R, K0, M_I = 32, 8, 2

base = SystemChannel(N_R, [gen_iid_channel(RngSeed(1, u), N_R, M_I) for u in range(K0)])
base_dec = sequential_decoupler(base)
newcomers = [gen_iid_channel(RngSeed(2, i), N_R, M_I) for i in range(3)]

sys_cur, dec_cur = base, base_dec
for i, h_new in enumerate(newcomers, start=1):
    sys_cur, dec_cur = include_users(sys_cur, dec_cur, [h_new])
    fresh = sequential_decoupler(sys_cur)
    worst = max(
        subspace_distance(SubspaceBasis(dec_cur.w[u]), SubspaceBasis(fresh.w[u]))
        for u in range(sys_cur.k)
    )
    residual = verify_decoupling(sys_cur, dec_cur).max_cross_residual
    print(f"after inclusion {i}: k={sys_cur.k}, residual {residual:.2e}, "
          f"max subspace distance to rebuild {worst:.2e}")

print("\ninstrumented FLOPs to reach k = 8 + P:")
print(f"{'P':>3} {'incremental':>12} {'rebuild':>12} {'pinv recompute':>15}")
for p in (1, 2, 3):
    augmented = SystemChannel(N_R, list(base.users) + newcomers[:p])
    with flops.counting() as t_ui:
        include_users(base, base_dec, newcomers[:p])
    with flops.counting() as t_sd:
        sequential_decoupler(augmented)
    with flops.counting() as t_pv:
        pinv_decoupler(augmented)
    print(f"{p:>3} {t_ui.total:>12} {t_sd.total:>12} {t_pv.total:>15}")
