"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that
1. BENCHMARK.json lists exactly the metrics of catalog.py, with their units;
2. every workload, run through run.py at the tiny size, emits every
   end-to-end metric (--trace 0) and every per-layer metric (--trace 1)
   with its unit, and no operation fails;
3. a deliberately corrupted decoupler (one perturbed SD row) fails the
   operations that check it, and shows in ``failed``/``attempted`` and in
   ``bench.error_rate``;
4. run.py exits non-zero without printing a result in a directory that
   holds only the benchmark.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import worker  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_cli(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def expected(kind) -> dict:
    return {name: unit for name, unit, _ in kind}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, kind in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        check(listed == kind, f"BENCHMARK.json {key} matches catalog.py")

    for workload in worker.workloads.WORKLOADS:
        for trace, kind in ((0, catalog.END_TO_END), (1, catalog.PER_LAYER)):
            proc = run_cli(["--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", str(trace), "--tiny"])
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in line["metrics"].items()}
            check(units == expected(kind), f"{label}: every metric emitted with its unit")
            check(sorted(line) == ["attempted", "correct", "failed", "metrics"],
                  f"{label}: result line keys")
            check(line["attempted"] >= 1 and line["failed"] == 0 and line["correct"],
                  f"{label}: {line['attempted']} operations, {line['failed']} failed")

    for workload in worker.workloads.WORKLOADS:
        result = worker.run(workload, 7, 0.3, trace=True, tiny=True, corrupt=True)
        rate = result["metrics"]["bench.error_rate"]["value"]
        # ber_regimes builds (and checks) decoupler sets only on its 64-antenna operations
        check(result["failed"] >= 1 and rate == result["failed"] / result["attempted"],
              f"{workload}: corrupted SD row fails {result['failed']}/{result['attempted']} "
              f"operations, bench.error_rate {rate:.3g}")

    bare = ROOT / ".perfbench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_cli(["--workload", "decouple_k80", "--seed", "1", "--seconds", "1"], cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"benchmark-only directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
