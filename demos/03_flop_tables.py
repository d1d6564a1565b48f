"""Complexity tables: sequential decoupler vs the two baselines.

Tabulates closed-form FLOP estimates (cross-checked against the
instrumented tally) while sweeping the user count, the streams per
user, and the number of users added to a large running system.  The
receiver keeps 10 more antennas than the total stream count unless
stated otherwise.

Run:  python demos/03_flop_tables.py
"""

from decoupsim.harness import FlopSweep, run_flop_bench


def show(rows, label):
    algs = []
    for r in rows:
        if r["algorithm"] not in algs:
            algs.append(r["algorithm"])
    points = sorted({r["param"] for r in rows})
    header = f"{label:>6} " + "".join(f"{a:>16}" for a in algs) + f"{'SD/SVD':>10}{'SD/PINV':>10}"
    print(header)
    for p in points:
        at_p = {r["algorithm"]: r for r in rows if r["param"] == p}
        cells = "".join(f"{at_p[a]['flops_estimate']:>16,}" for a in algs)
        sd = at_p.get("SD") or at_p.get("SD_UI")
        print(f"{p:>6} {cells}{sd['ratio_to_svd']:>10.4%}{sd['ratio_to_pinv']:>10.2%}")


print("=== varying user count (m_i = 2) ===")
show(run_flop_bench(FlopSweep(mode="users", instrumented=False)), "k")

print("\n=== varying streams per user (k = 50) ===")
show(run_flop_bench(FlopSweep(mode="streams", instrumented=False)), "m_i")

print("\n=== adding P users to a {130, 60, 2} system ===")
rows = run_flop_bench(FlopSweep(mode="inclusion", base_n_r=130, base_k=60,
                                m_i=2, p_max=5, instrumented=False))
print(f"{'P':>3} {'incremental':>14} {'rebuild':>14} {'SVD rebuild':>16} {'pinv rebuild':>14}")
for p in sorted({r["param"] for r in rows}):
    at_p = {r["algorithm"]: r["flops_estimate"] for r in rows if r["param"] == p}
    print(f"{p:>3} {at_p['SD_UI']:>14,} {at_p['SD']:>14,} {at_p['SVD']:>16,} {at_p['PINV']:>14,}")
