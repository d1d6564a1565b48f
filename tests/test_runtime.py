"""Process set-up: sweeps on one OpenBLAS thread, glibc's heap kept by the CLI."""

import ctypes
import json
import os
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

import decoupsim
from decoupsim import _runtime, harness
from decoupsim.channels import RngSeed, gen_iid_channel
from decoupsim.cli import main
from decoupsim.harness import AUDIT_COLUMNS, SimConfig, audit_rows, render_csv

BLAS = _runtime._openblas()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy's bundled OpenBLAS not found")

# 8 users of 8 streams on 100 antennas: products large enough that OpenBLAS
# splits them over its threads, so unpinned audit residuals move with its count
WIDE = SimConfig(n_r=100, k=8, m_i=8, snr_db=(0.0,), bits_per_point=128, seed=3,
                 audit_trials=8)


@pytest.fixture
def set_blas_threads():
    """Sets OpenBLAS's thread count within a test and restores it after."""
    get, put = BLAS
    before = get()
    yield put
    put(before)


@needs_openblas
def test_sweep_started_at_two_blas_threads_gives_the_one_thread_bytes(set_blas_threads,
                                                                      tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(WIDE.to_dict()))
    outputs = []
    for threads in (1, 2):
        set_blas_threads(threads)
        out = tmp_path / f"blas_{threads}"
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["ber", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("audit.csv", "ber.csv")])
    assert outputs[0] == outputs[1]
    assert render_csv(AUDIT_COLUMNS, audit_rows(harness.run_equivalence_audit(WIDE))) \
        == outputs[0][0].decode()


def _small_cfg(threads):
    # 20 trials make two blocks, so threads=2 runs them on worker threads
    return SimConfig(n_r=12, k=3, m_i=2, snr_db=(0.0,), bits_per_point=240, seed=5,
                     threads=threads)


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_old_thread_count_is_restored_after_a_sweep(set_blas_threads, threads, fails):
    get, _ = BLAS
    set_blas_threads(3)
    seen = []

    def factory(trial, subcarrier):
        seen.append(get())
        if fails:
            raise RuntimeError("factory failed")
        return [gen_iid_channel(RngSeed(trial, u), 12, 2) for u in range(3)]

    if fails:
        with pytest.raises(RuntimeError, match="factory failed"):
            harness.run_paired_ber(_small_cfg(threads), channel_factory=factory)
    else:
        harness.run_paired_ber(_small_cfg(threads), channel_factory=factory)
    assert seen and set(seen) == {1}
    assert get() == 3
    harness.run_equivalence_audit(_small_cfg(1))
    assert get() == 3


@needs_openblas
def test_overlapping_sweeps_restore_the_count_after_the_last(set_blas_threads):
    get, _ = BLAS
    set_blas_threads(3)
    seen, interval, start = set(), sys.getswitchinterval(), threading.Barrier(8)

    def sweeps():
        start.wait(timeout=60)
        for _ in range(1000):
            with _runtime.one_blas_thread():
                seen.add(get())

    workers = [threading.Thread(target=sweeps) for _ in range(8)]
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert seen == {1} and get() == 3


def test_importing_the_package_leaves_the_heap_alone():
    code = "\n".join([
        "import ctypes",
        "opened, real = [], ctypes.CDLL",
        "ctypes.CDLL = lambda name, *a, **k: opened.append(name) or real(name, *a, **k)",
        "import decoupsim, decoupsim.cli, decoupsim.harness",
        "from decoupsim import _runtime",
        "assert _runtime._heap is None and None not in opened, opened",
        # on glibc, the CLI's set-up is accepted in full
        "heap = _runtime.keep_heap()",
        "assert heap == ({'M_TRIM_THRESHOLD': 1 << 30, 'M_TOP_PAD': 64 << 20,",
        "                 'M_MMAP_THRESHOLD': 32 << 20} if _runtime._glibc() else None), heap",
    ])
    src = os.path.dirname(os.path.dirname(decoupsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_cli_sets_up_the_heap_once_and_records_the_runtime(tmp_path, monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    real = ctypes.CDLL
    monkeypatch.setattr(_runtime, "_heap", None)
    monkeypatch.setattr(_runtime, "_glibc", lambda: True)
    monkeypatch.setattr(ctypes, "CDLL", lambda name, *a, **k: (
        types.SimpleNamespace(mallopt=mallopt) if name is None else real(name, *a, **k)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_cfg(1).to_dict()))
    for run in ("first", "second"):
        assert main(["ber", "--config", str(cfg_path), "--out", str(tmp_path / run)]) == 0
    assert calls == [(-1, 1 << 30), (-2, 64 << 20), (-3, 32 << 20)]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = json.loads((tmp_path / "second" / "manifest.json").read_text())["runtime"]
    assert runtime == {
        "blas": {"name": blas["name"], "version": blas["version"]},
        "sweep_blas_threads": None if BLAS is None else 1,
        "heap": {"M_TRIM_THRESHOLD": 1 << 30, "M_TOP_PAD": 64 << 20,
                 "M_MMAP_THRESHOLD": 32 << 20},
        "nproc": runtime["nproc"],
    }
    assert runtime["nproc"] >= 1


def test_heap_is_left_alone_off_glibc(monkeypatch):
    monkeypatch.setattr(_runtime, "_heap", None)
    monkeypatch.setattr(_runtime, "_glibc", lambda: False)
    assert _runtime.keep_heap() is None
    assert _runtime.record()["heap"] is None
