"""decoupsim benchmark: one command, three workloads, every metric checked.

    python3 perfbench/run.py --workload ber_regimes|cli_ber|decouple_k80|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a decoupsim checkout; the package is imported from
``src/`` (nothing is installed).  Each workload runs in a fresh worker
process (worker.py) with BLAS pinned to one thread.  ``setup_s`` is the
median wall time of five further fresh processes that import decoupsim,
build the workload's inputs and warm up, then exit.  Timings are scaled
to a fixed machine speed (calibrate.py); raw wall times are recorded too.
See README.md for the workloads, metrics and correctness checks.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The
line before it records the environment, sample counts and any failed
check.  Both also go to ``.perfbench_runs/``.  ``--workload all`` runs
every workload in turn and prints one such pair per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("ber_regimes", "cli_ber", "decouple_k80")
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "decoupsim").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def worker_cmd(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]


def run_workload(workload: str, args) -> bool:
    env = child_env()
    tiny = ["--tiny"] if args.tiny else []
    started = time.perf_counter()
    setup, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(worker_cmd(workload, args.seed, "--setup-only", *tiny), env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: set-up of {workload} failed", file=sys.stderr)
            return False
        setup_raw.append(wall)
        setup.append(wall * json.loads(proc.stdout.strip().splitlines()[-1])["speed_scale"])
    remaining = RUN_TIMEOUT_S - (time.perf_counter() - started)
    proc = subprocess.run(
        worker_cmd(workload, args.seed, "--seconds", str(args.seconds),
                   "--trace", str(args.trace), *tiny),
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"error: {workload} worker exited with code {proc.returncode}", file=sys.stderr)
        return False
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    raw_wall = result["raw_wall"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        raw_wall["setup_s"] = statistics.median(setup_raw)
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(result["env"], python=platform.python_version(), nproc=os.cpu_count(),
                    git_commit=git_commit(), source_sha256=source_digest()),
        "samples": dict(result["samples"], setup=len(setup)),
        "speed_scale": result["speed_scale"],
        "raw_wall": raw_wall,
        "findings": result["findings"],
    }
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(dict(record, result=line), indent=1) + "\n")
    print(json.dumps(record), flush=True)
    print(json.dumps(line), flush=True)
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: shrink every system (see selftest.py)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "decoupsim" / "__init__.py").is_file():
        print(f"error: no decoupsim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        ok = all([run_workload(name, args) for name in names])
    except subprocess.TimeoutExpired as exc:
        print(f"error: timed out: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
