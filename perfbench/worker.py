"""Run one workload in this process and print its result as one JSON line.

Started by run.py as a fresh process per workload, so no process-global
state of decoupsim (the FLOP cost model, BLAS thread pools) carries from
one workload into another.  ``--setup-only`` stops after set-up (import,
inputs, warm-up); run.py times that to report ``setup_s``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import pathlib
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import catalog  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import median, p90  # noqa: E402

RUNS_DIR = ROOT / ".perfbench_runs"
DEADLINE_S = 150.0  # hard stop for the measuring loop, well inside the 180 s limit


def _metric(name: str, value) -> dict:
    return {"value": float(value), "unit": catalog.UNITS[name]}


def end_to_end(wl, s) -> dict:
    """End-to-end metrics from one phase's samples (scaled or raw)."""
    values = {
        "trials_per_s": wl.trials_per_s(s),
        "sd_build_ms_p50": median(s["sd"]) * 1e3,
        "sd_build_ms_p90": p90(s["sd"]) * 1e3,
        "pinv_build_ms_p50": median(s["pinv"]) * 1e3,
        "pinv_build_ms_p90": p90(s["pinv"]) * 1e3,
        "svd_build_ms_p50": median(s["svd"]) * 1e3,
        "include_ms_p50": median(s["include"]) * 1e3,
        "include_ms_p90": p90(s["include"]) * 1e3,
    }
    return {name: _metric(name, v) for name, v in values.items()}


def per_layer(wl, untraced, traced, summary, mf, attempted, failed) -> dict:
    by_name, by_layer = summary["by_name"], summary["by_layer"]
    trials = max(traced.trials, 1)
    zero = (0, 0, 0)

    def self_ms(name):
        return by_name.get(name, zero)[0] / 1e6 / trials

    values = {name: 0.0 for name, _, _ in catalog.PER_LAYER}
    channels = by_layer.get("channels", zero)
    values["channels.self_ms_per_trial"] = channels[0] / 1e6 / trials
    values["channels.calls_per_trial"] = channels[1] / trials
    for k in catalog.KERNELS:
        values[f"kernels.{k}.ms"] = self_ms(f"kernels.{k}")
        values[f"kernels.{k}.calls"] = by_name.get(f"kernels.{k}", zero)[1] / trials
    for layer in ("kernels", "decouplers", "detectors", "harness"):
        values[f"{layer}.self_ms_per_trial"] = by_layer.get(layer, zero)[0] / 1e6 / trials
    values["detectors.modulate.ms_per_trial"] = self_ms("detectors.modulate_bits")
    main_calls = by_name.get("cli.main", zero)
    if main_calls[1]:
        values["cli.self_ms"] = main_calls[0] / 1e6 / main_calls[1]
    emit = by_name.get("harness.emit_outputs", zero)
    if emit[1]:
        values["harness.emit_ms"] = emit[2] / 1e6 / emit[1]

    # wall figures from the untraced phase of this run, model figures exact
    wall = {d: median(untraced.samples[key]) * 1e3
            for d, key in (("SD", "sd"), ("SVD", "svd"), ("PINV", "pinv"), ("include", "include"))}
    counted = mf["counted"]
    for d in catalog.DECOUPLERS:
        values[f"decouplers.{d}.ms"] = wall[d]
        values[f"decouplers.{d}.model_flops"] = counted[d]
        values[f"decouplers.{d}.model_gflops_per_s"] = counted[d] / (wall[d] * 1e6)
    for name, num, den in (("SD_over_SVD", "SD", "SVD"), ("SD_over_PINV", "SD", "PINV"),
                           ("include_over_rebuild", "include", "SD")):
        values[f"decouplers.{name}.wall"] = wall[num] / wall[den]
        values[f"decouplers.{name}.model"] = counted[num] / counted[den]
    h = wl.health
    values["decouplers.max_cross_residual"] = h.max_cross_residual
    values["decouplers.max_subspace_distance"] = h.max_subspace_distance
    values["decouplers.max_include_distance"] = h.max_include_distance
    values["decouplers.max_orthonormality_defect"] = h.max_orthonormality_defect
    values["decouplers.rank_failures"] = h.rank_failures
    values["flops.counting_overhead"] = mf["counting_overhead"]
    for alg, key in (("SD", "SD"), ("SVD", "SVD"), ("PINV", "PINV"), ("SD_UI", "include")):
        values[f"flops.estimate_rel_error.{alg}"] = mf["rel_error"][key]
    if "cli_t1" in untraced.samples:
        values["harness.parallel_speedup"] = (median(untraced.samples["cli_t1"])
                                              / median(untraced.samples["cli_t2"]))
    values["trace.overhead"] = wl.trials_per_s(untraced.samples) / wl.trials_per_s(traced.samples)
    if summary["cover"]:
        values["trace.self_cover"] = statistics.median(summary["cover"])
    values["bench.error_rate"] = failed / attempted
    values.update(wl.layer_extras(traced))
    return {name: _metric(name, v) for name, v in values.items()}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {}
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in thread_vars}}


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        corrupt: bool = False, setup_only: bool = False) -> dict:
    """Set up and measure one workload; returns the result record.

    With ``setup_only`` the record holds only the machine-speed scale
    measured right after set-up, which run.py applies to the set-up time.
    """
    workdir = RUNS_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = tracing.Tracer()
        wl = workloads.WORKLOADS[workload](seed, workdir, tracer, tiny=tiny, corrupt=corrupt)
        wl.warm_up()
        if setup_only:
            reference = wl.reference()
            return {"speed_scale": reference.nominal_s / reference.time()}
        deadline = time.perf_counter() + DEADLINE_S
        min_samples = 0 if trace else workloads.MIN_SAMPLES
        untraced = workloads.Phase(wl.reference())
        wl.run_phase(untraced, seconds / 3 if trace else seconds, min_samples, deadline)
        phases = [untraced]
        if trace:
            traced = workloads.Phase(untraced.reference)
            tracer.install()
            try:
                wl.run_phase(traced, 2 * seconds / 3, 0, deadline)
            finally:
                tracer.uninstall()
            phases.append(traced)
        wl.finish(phases)
        attempted = sum(len(p.ops) for p in phases)
        failed = sum(1 for p in phases for ok in p.ops.values() if not ok)
        if trace:
            summary = tracing.summarize(tracer, wl.layer_kinds)
            metrics = per_layer(wl, untraced, traced, summary, workloads.model_flops(wl),
                                attempted, failed)
            spans_file = RUNS_DIR / f"{workload}-seed{seed}-spans.json.gz"
            with gzip.open(spans_file, "wt", encoding="utf-8") as fh:
                json.dump({"ops": tracer.ops, "spans": tracer.spans}, fh)
            raw = None
        else:
            metrics = end_to_end(wl, untraced.samples)
            raw = {name: m["value"] for name, m in end_to_end(wl, untraced.raw).items()}
        samples = {"trials": sum(p.trials for p in phases)}
        for p in phases:
            for k, v in p.samples.items():
                samples[k] = samples.get(k, 0) + len(v)
        scales = [s for p in phases for s in p.scales]
        return {"attempted": attempted, "failed": failed, "metrics": metrics,
                "raw_wall": raw, "speed_scale": {"median": median(scales), "min": min(scales),
                                                 "max": max(scales)},
                "samples": samples, "findings": wl.health.findings, "env": environment()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 tiny=args.tiny, setup_only=args.setup_only)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
