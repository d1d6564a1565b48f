"""The benchmark's three workloads.

Every workload is a closed loop: one client, one operation at a time.
All inputs derive from the benchmark seed; decoupsim only receives the
generated inputs.  Every operation is checked against the acceptance
suite's bounds (see checks.py) and counted as failed, never dropped,
when a check fails.

Every workload also times the four decoupler constructions on its own
system shape (a "probe" after each operation for the BER workloads), so
that every end-to-end metric exists on every workload; decouple_k80 is
the workload built for them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
from collections import defaultdict

import numpy as np

from decoupsim import channels, cli, decouplers, detectors, flops, harness

import calibrate
import checks

SNR_DB = (0.0, 4.0, 8.0, 12.0, 16.0)
N_NEW = 4          # include_users adds the last N_NEW users of a realization
MIN_SAMPLES = 100  # a run reports a p90 only from at least this many samples

# Acceptance-suite regimes (tests/test_acceptance.py), their shapes and channel models.
REGIMES = {
    "uncorrelated": dict(n_r=64, k=15, m_i=4),
    "kronecker": dict(n_r=64, k=15, m_i=4,
                      kronecker=channels.KroneckerParams(rho_tx=0.25, rho_rx=0.05)),
    "large_scale": dict(n_r=32, k=15, m_i=2,
                        large_scale=channels.LargeScaleParams(3.0, 0.65, 0.65, 3.0)),
    "ce_error": dict(n_r=64, k=15, m_i=4, ce_error=channels.CeErrorParams(0.01)),
}
# Trials in the acceptance suite's proportions 3:1:2:1.
CYCLE = ("uncorrelated",) * 3 + ("kronecker",) + ("large_scale",) * 2 + ("ce_error",)
# Decoupler timings come from the 64-antenna regimes only: one system shape
# keeps their percentiles off the gap between two shapes' distributions.
PROBED = ("uncorrelated", "kronecker", "ce_error")
REPLAY_EVERY = 5   # traced runs re-detect every n-th sweep through the public detector API

# The README's example configuration.
README_CONFIG = {
    "system": {"n_r": 64, "k": 15, "m_i": 4},
    "decoupler": "SD",
    "detector": "LMMSE",
    "constellation": "QPSK",
    "snr_db": [0.0, 4.0, 8.0, 12.0, 16.0],
    "bits_per_point": 200040,
    "seed": 1234,
    "whiten": False,
    "threads": 1,
    "n_subcarriers": 1,
    "channel": {
        "kronecker": {"rho_tx": 0.25, "rho_rx": 0.05},
        "large_scale": {"mu_db": 3.0, "l_path": 0.65, "d_rel": 0.65, "tau": 3.0},
        "ce_error": {"sigma_e2": 0.01},
    },
    "cost_model": {"add": 2, "mul": 6, "div": 11},
}
_README_CHANNEL = README_CONFIG["channel"]
README_SHAPE = dict(
    README_CONFIG["system"],
    kronecker=channels.KroneckerParams(**_README_CHANNEL["kronecker"]),
    large_scale=channels.LargeScaleParams(**_README_CHANNEL["large_scale"]),
    ce_error=channels.CeErrorParams(**_README_CHANNEL["ce_error"]),
)
K80_SHAPE = dict(n_r=170, k=80, m_i=2)
TINY = dict(n_r=16, k=6, m_i=2)


def median(xs):
    return statistics.median(xs)


def p90(xs):
    """Nearest-rank 90th percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(0.9 * len(s)) - 1)]


class Phase:
    """Samples and outcomes of one timed phase of a run.

    Timings wait in ``pending`` until the next ``bracket``, which measures
    the machine's speed with the workload's reference kernel and stores
    them raw and scaled (see calibrate.py).
    """

    def __init__(self, reference=None) -> None:
        self.samples = defaultdict(list)   # name -> scaled seconds per call
        self.raw = defaultdict(list)       # name -> wall seconds per call
        self.scales = []                   # scale applied to each group of timings
        self.pending = []
        self.trials = 0                    # trials (BER) or realizations (decouple_k80)
        self.ops = {}                      # op id -> ok
        self.reference = reference
        self._last_ref = None

    def add(self, name: str, seconds: float) -> None:
        self.pending.append((name, seconds))

    def bracket(self) -> None:
        """Scale the timings taken since the previous bracket by the speed around them."""
        scale = 1.0
        if self.reference is not None:
            ref = self.reference.time()
            if self.pending:
                scale = self.reference.scale(self._last_ref or ref, ref)
            self._last_ref = ref
        if self.pending:
            for name, seconds in self.pending:
                self.raw[name].append(seconds)
                self.samples[name].append(seconds * scale)
            self.pending.clear()
            self.scales.append(scale)


def draw_system(shape: dict, seed: int) -> decouplers.SystemChannel:
    """One channel realization of ``shape`` through the public channel generators."""
    n_r, k, m = shape["n_r"], shape["k"], shape["m_i"]
    kron, ls, ce = shape.get("kronecker"), shape.get("large_scale"), shape.get("ce_error")
    if kron is not None:
        rx_root = channels.matrix_sqrt_psd(channels.correlation_matrix(kron.rho_rx, n_r))
        tx_root = channels.matrix_sqrt_psd(channels.correlation_matrix(kron.rho_tx, m))
    users = []
    for u in range(k):
        h = channels.gen_iid_channel(channels.RngSeed(seed, 3 * u), n_r, m)
        if kron is not None:
            h = rx_root @ h @ tx_root
        if ls is not None:
            h = channels.apply_large_scale(h, ls, channels.RngSeed(seed, 3 * u + 2))
        if ce is not None:
            h = channels.perturb_channel(h, ce, channels.RngSeed(seed, 3 * u + 1))
        users.append(h)
    return decouplers.SystemChannel(n_r, users)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


class Workload:
    """Shared loop: ops until the phase's time is up, then end-of-run checks."""

    name = ""
    layer_kinds: set[str] = set()
    reference = staticmethod(calibrate.small)   # speed reference at the workload's n_r

    def __init__(self, seed: int, workdir, tracer, *, tiny: bool = False,
                 corrupt: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.health = checks.Health()
        self.tiny = tiny           # self-test size: every system shrinks to TINY
        self.corrupt = corrupt     # self-test only: perturb one SD row before checking
        self._next_op = 0
        self.last_probe = None

    def shape(self, spec: dict) -> dict:
        return dict(spec, **TINY) if self.tiny else spec

    def op_seed(self, j: int) -> int:
        return self.seed * 1_000_003 + j

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    def run_phase(self, phase: Phase, seconds: float, min_samples: int, deadline: float) -> None:
        self.begin_phase()
        start = time.perf_counter()
        phase.bracket()
        while True:
            elapsed = time.perf_counter() - start
            enough = len(phase.samples["sd"]) >= min_samples
            if (elapsed >= seconds and enough) or time.perf_counter() >= deadline:
                break
            self.step(phase)
            phase.bracket()

    # -- decoupler timing shared by all workloads ---------------------------

    def time_decouplers(self, phase: Phase, sys_full, rounds: int, kind: str) -> bool:
        """Time SVD once and SD, PINV and include_users ``rounds`` times; check all."""
        t = self.tracer
        users = sys_full.users
        new = list(users[-N_NEW:])
        with t.paused():
            base = decouplers.SystemChannel(sys_full.n_r, users[:-N_NEW])
            base_sd = decouplers.sequential_decoupler(base)
        # a long operation takes one speed reading per call, a short one per operation
        def timed(name, fn, *args):
            out, dt = _timed(fn, *args)
            phase.add(name, dt)
            if rounds > 1:
                phase.bracket()
            return out

        with t.operation(self.new_op(), kind):
            svd = timed("svd", decouplers.svd_decoupler, sys_full)
            repeats_identical = True
            for r in range(rounds):
                sd = timed("sd", decouplers.sequential_decoupler, sys_full)
                pinv = timed("pinv", decouplers.pinv_decoupler, sys_full)
                aug, inc = timed("include", decouplers.include_users, base, base_sd, new)
                if r == 0:
                    first = (sd, pinv, inc)
                else:
                    repeats_identical &= all(
                        checks.identical_sets(a.w, b.w) for a, b in zip(first, (sd, pinv, inc)))
        sd, pinv, inc = first
        self.last_probe = (sys_full, base, base_sd, new)
        with t.paused():
            h = self.health
            sd_w = list(sd.w)
            if self.corrupt:
                sd_w[0] = sd_w[0].copy()
                sd_w[0][0] += 1e-6
            ok = checks.decoupling_ok(users, sd_w, "SD", h)
            ok &= checks.decoupling_ok(users, svd.w, "SVD", h)
            ok &= checks.decoupling_ok(users, pinv.w, "PINV", h)
            ok &= checks.decoupling_ok(aug.users, inc.w, "include", h)
            ok &= checks.same_subspaces(sd_w, svd.w, "SD vs SVD", h)
            ok &= checks.orthonormal_ok(sd_w, "SD", h)
            ok &= checks.same_subspaces(inc.w, sd_w, "include vs rebuild", h, include=True)
            if not repeats_identical:
                ok = h.fail("repeated decoupler builds on one input differ")
        return ok

    # -- per-workload hooks ---------------------------------------------------

    def begin_phase(self) -> None:
        """Reset per-phase state before a phase's first operation."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def step(self, phase: Phase) -> None:
        raise NotImplementedError

    def finish(self, phases) -> None:
        """End-of-run checks that need the whole run (untimed)."""

    def trials_per_s(self, samples) -> float:
        """Trials per second from a phase's scaled (or raw) samples."""
        raise NotImplementedError

    def layer_extras(self, traced: Phase) -> dict:
        return {}


class BerRegimes(Workload):
    """Paired {SD, SVD} x {LMMSE, SIC} sweeps over the four acceptance regimes."""

    name = "ber_regimes"
    layer_kinds = {"sweep"}
    TRIALS_PER_OP = 2
    ARMS = (("SD", "SVD"), ("LMMSE", "SIC"))

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pooled = {}       # regime -> {(dec, det): [errors per SNR], "bits": [...]}
        self.regime_ops = defaultdict(list)
        self.first = None      # (cfg, results, phase, op) of the first timed op
        self.replay_sample = []
        self._cycle_pos = 0

    def config(self, regime: str, seed: int, trials: int) -> harness.SimConfig:
        spec = self.shape(REGIMES[regime])
        bits = trials * 2 * spec["k"] * spec["m_i"]
        return harness.SimConfig(**spec, snr_db=SNR_DB, bits_per_point=bits, seed=seed)

    def begin_phase(self) -> None:
        self._cycle_pos = 0

    def warm_up(self) -> None:
        for regime in REGIMES:
            harness.run_paired_ber(self.config(regime, self.op_seed(0), 1), *self.ARMS)
        sys_full = draw_system(self.shape(REGIMES["uncorrelated"]), self.op_seed(0))
        self.time_decouplers(Phase(), sys_full, 1, "warmup")

    def step(self, phase: Phase) -> None:
        regime = CYCLE[self._cycle_pos]
        op = self.new_op()
        seed = self.op_seed(op)
        ok = True
        try:
            cfg = self.config(regime, seed, self.TRIALS_PER_OP)
            with self.tracer.operation(op, "sweep"):
                res, dt = _timed(harness.run_paired_ber, cfg, *self.ARMS)
            phase.add("sweep", dt)
            phase.trials += cfg.trials
            ok &= self._record(regime, cfg, res)
            if self.first is None:
                self.first = (cfg, res, phase, op)
            if self.tracer.installed and op % REPLAY_EVERY == 0:
                self.replay_sample.append((cfg, res))
            if regime in PROBED:
                with self.tracer.paused():
                    sys_full = draw_system(self.shape(REGIMES[regime]), seed)
                ok &= self.time_decouplers(phase, sys_full, 1, "probe")
        except Exception as exc:  # an operation that raises is a failed operation
            ok = self.health.fail(f"{regime} op {op}: {type(exc).__name__}: {exc}")
        phase.ops[op] = ok
        self.regime_ops[regime].append((phase, op))
        self._cycle_pos = (self._cycle_pos + 1) % len(CYCLE)

    def _record(self, regime, cfg, res) -> bool:
        ok = True
        expected_bits = cfg.trials * 2 * cfg.m_total
        pool = self.pooled.setdefault(regime, {"bits": np.zeros(len(SNR_DB), dtype=np.int64)})
        pool["bits"] += expected_bits
        for dec in self.ARMS[0]:
            for det in self.ARMS[1]:
                agg = res[(dec, det)].aggregate
                if tuple(agg.bits_sent) != (expected_bits,) * len(SNR_DB):
                    ok = self.health.fail(f"{regime} {dec}/{det}: bits_sent {agg.bits_sent}")
                errs = np.asarray(agg.bit_errors, dtype=np.int64)
                if np.any(errs < 0) or np.any(errs > expected_bits):
                    ok = self.health.fail(f"{regime} {dec}/{det}: error counts {agg.bit_errors}")
                pool.setdefault((dec, det), np.zeros(len(SNR_DB), dtype=np.int64))
                pool[(dec, det)] += errs
        return ok

    def finish(self, phases) -> None:
        # criterion 7 on the run's pooled counts; a failing regime fails all its ops
        for regime, pool in self.pooled.items():
            ok = True
            for det in self.ARMS[1]:
                ok &= checks.ber_parity_ok(pool[("SD", det)], pool[("SVD", det)], pool["bits"],
                                           f"{regime} {det}", self.health)
            if not ok:
                for phase, op in self.regime_ops[regime]:
                    phase.ops[op] = False
        # identical error counts when the first operation runs again at the same seed
        if self.first is not None:
            cfg, res, phase, op = self.first
            again = harness.run_paired_ber(cfg, *self.ARMS)
            same = all(
                [c.bit_errors for c in again[arm].per_user] == [c.bit_errors for c in res[arm].per_user]
                for arm in res)
            if not same:
                phase.ops[op] = self.health.fail(
                    "rerun of the first operation gave different error counts")

    def trials_per_s(self, samples) -> float:
        """Median over complete cycles, so every figure has the same regime mix."""
        sweeps = samples["sweep"]
        n = len(CYCLE)
        cycles = [sum(sweeps[i:i + n]) for i in range(0, len(sweeps) - n + 1, n)]
        if not cycles:
            return len(sweeps) * self.TRIALS_PER_OP / sum(sweeps)
        return median([n * self.TRIALS_PER_OP / c for c in cycles])

    def layer_extras(self, traced: Phase) -> dict:
        out = {}
        sweep_ns = defaultdict(int)
        trials = defaultdict(int)
        spans = {s[5]: s for s in self.tracer.spans if s[1] == "bench.sweep"}
        for regime, entries in self.regime_ops.items():
            for phase, op in entries:
                if phase is traced and op in spans:
                    sweep_ns[regime] += spans[op][3] - spans[op][2]
                    trials[regime] += self.TRIALS_PER_OP
        for regime in REGIMES:
            ns = sweep_ns[regime]
            out[f"harness.{regime}.trials_per_s"] = trials[regime] / (ns * 1e-9) if ns else 0.0
        out.update(replay(self.replay_sample))
        return out


def replay(sample) -> dict:
    """Re-detect sampled sweep trials through the public per-link detector API.

    Rebuilds each trial's inputs from the harness's ``(seed, trial, purpose)``
    stream layout, decouples with the public SD and SVD constructions and
    detects every user at every SNR point with ``build_link`` +
    ``lmmse_detect``/``sic_detect`` + ``demodulate_symbols``.  Returns the
    median time per link per detector and the total difference between
    these bit-error counts and the harness's own.
    """
    out = {"detectors.lmmse.us_per_link": 0.0, "detectors.sic.us_per_link": 0.0,
           "detectors.replay_disagreements": 0, "detectors.replay_links": 0}
    if not sample:
        return out
    try:
        from decoupsim.harness import (_BITS, _NOISE, _STRIDE, _build_true_channels,
                                       _kronecker_roots, _perturb_channels)
    except ImportError as exc:
        print(f"note: public-detector replay skipped: {exc}", flush=True)
        return out
    times = {"LMMSE": [], "SIC": []}
    detect = {"LMMSE": detectors.lmmse_detect, "SIC": detectors.sic_detect}
    build = {"SD": decouplers.sequential_decoupler, "SVD": decouplers.svd_decoupler}
    diff = 0
    for cfg, res in sample:
        cons = detectors.Constellation.from_name(cfg.constellation)
        roots = _kronecker_roots(cfg)
        bps = cons.bits_per_symbol
        offsets = np.cumsum((0,) + cfg.m_i)
        errors = defaultdict(int)
        for trial in range(cfg.trials):
            bits = channels.RngSeed(cfg.seed, trial * _STRIDE + _BITS).generator().integers(
                0, 2, size=(1, bps * cfg.m_total))[0]
            rng_n = channels.RngSeed(cfg.seed, trial * _STRIDE + _NOISE).generator()
            unit = np.sqrt(0.5) * (rng_n.standard_normal((1, cfg.n_r))
                                   + 1j * rng_n.standard_normal((1, cfg.n_r)))[0]
            true = _build_true_channels(cfg, trial, 0, roots)
            used = _perturb_channels(cfg, trial, 0, true)
            sys_used = decouplers.SystemChannel(cfg.n_r, used)
            y_clean = np.concatenate(true, axis=1) @ detectors.modulate_bits(bits, cons)
            for dec, fn in build.items():
                w = fn(sys_used).w
                for si, snr in enumerate(cfg.snr_db):
                    s2 = cfg.sigma_n2(snr)
                    y = y_clean + np.sqrt(s2) * unit
                    for u in range(cfg.k):
                        tx = bits[offsets[u] * bps:offsets[u + 1] * bps]
                        for det, fn_det in detect.items():
                            start = time.perf_counter()
                            link = detectors.build_link(w[u], used[u], y, s2)
                            rx = detectors.demodulate_symbols(fn_det(link, cons), cons)
                            times[det].append(time.perf_counter() - start)
                            errors[(dec, det, u, si)] += int(np.sum(rx != tx))
        for (dec, det), result in res.items():
            for u, curve in enumerate(result.per_user):
                for si, e in enumerate(curve.bit_errors):
                    diff += abs(errors[(dec, det, u, si)] - e)
    out["detectors.lmmse.us_per_link"] = median(times["LMMSE"]) * 1e6
    out["detectors.sic.us_per_link"] = median(times["SIC"]) * 1e6
    out["detectors.replay_disagreements"] = diff
    out["detectors.replay_links"] = len(times["LMMSE"]) + len(times["SIC"])
    return out


class CliBer(Workload):
    """``decoupsim ber`` on the README example config, in-process, --threads 2."""

    name = "cli_ber"
    layer_kinds = {"cli"}
    TRIALS_PER_OP = 6

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.system = self.shape(README_SHAPE)
        config = dict(README_CONFIG, system={k: self.system[k] for k in ("n_r", "k", "m_i")})
        self.config_path = self.workdir / "cfg.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.nonzero_exits = 0

    def argv(self, seed: int, trials: int, threads: int, out) -> list[str]:
        bits = trials * 2 * self.system["k"] * self.system["m_i"]
        return ["ber", "--config", str(self.config_path), "--out", str(out),
                "--threads", str(threads), "--seed", str(seed),
                "--override", f"bits_per_point={bits}"]

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self) -> None:
        out = self.workdir / "warmup"
        self._main(self.argv(self.op_seed(0), 1, 2, out))
        shutil.rmtree(out, ignore_errors=True)
        self.time_decouplers(Phase(), draw_system(self.system, self.op_seed(0)), 1, "warmup")

    def step(self, phase: Phase) -> None:
        op = self.new_op()
        seed = self.op_seed(op)
        out2, out1 = self.workdir / f"op{op}_t2", self.workdir / f"op{op}_t1"
        ok = True
        try:
            with self.tracer.operation(op, "cli"):
                code2, dt2 = _timed(self._main, self.argv(seed, self.TRIALS_PER_OP, 2, out2))
            phase.add("cli_t2", dt2)
            phase.trials += self.TRIALS_PER_OP
            # criterion 9: the threads=1 run is the reference
            with self.tracer.operation(self.new_op(), "cli_ref"):
                code1, dt1 = _timed(self._main, self.argv(seed, self.TRIALS_PER_OP, 1, out1))
            phase.add("cli_t1", dt1)
            self.nonzero_exits += (code2 != 0) + (code1 != 0)
            if code2 != 0 or code1 != 0:
                ok = self.health.fail(f"op {op}: exit codes {code2} (threads 2), {code1} (threads 1)")
            elif (out2 / "ber.csv").read_bytes() != (out1 / "ber.csv").read_bytes():
                ok = self.health.fail(f"op {op}: ber.csv differs between threads 2 and 1")
            elif not (out2 / "manifest.json").is_file():
                ok = self.health.fail(f"op {op}: manifest.json missing")
            with self.tracer.paused():
                sys_full = draw_system(self.system, seed)
            ok &= self.time_decouplers(phase, sys_full, 1, "probe")
        except Exception as exc:  # an operation that raises is a failed operation
            ok = self.health.fail(f"op {op}: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out2, ignore_errors=True)
            shutil.rmtree(out1, ignore_errors=True)
        phase.ops[op] = ok

    def trials_per_s(self, samples) -> float:
        return median([self.TRIALS_PER_OP / s for s in samples["cli_t2"]])

    def layer_extras(self, traced: Phase) -> dict:
        return {"cli.nonzero_exits": self.nonzero_exits}


class DecoupleK80(Workload):
    """SD, SVD, PINV and include_users on fresh i.i.d. K=80, m=2, n_r=170 systems."""

    name = "decouple_k80"
    layer_kinds = {"decouple"}
    reference = staticmethod(calibrate.large)
    ROUNDS = 10   # SD/PINV/include timings per realization; SVD is timed once

    def warm_up(self) -> None:
        sys_full = draw_system(self.shape(K80_SHAPE), self.op_seed(0))
        base = decouplers.SystemChannel(sys_full.n_r, sys_full.users[:-N_NEW])
        base_sd = decouplers.sequential_decoupler(base)
        decouplers.sequential_decoupler(sys_full)
        decouplers.pinv_decoupler(sys_full)
        decouplers.include_users(base, base_sd, sys_full.users[-N_NEW:])

    def step(self, phase: Phase) -> None:
        op = self.new_op()
        ok = True
        try:
            with self.tracer.operation(op, "decouple"):
                sys_full = draw_system(self.shape(K80_SHAPE), self.op_seed(op))
            phase.trials += 1
            ok = self.time_decouplers(phase, sys_full, self.ROUNDS, "decouple")
        except Exception as exc:  # an operation that raises is a failed operation
            ok = self.health.fail(f"op {op}: {type(exc).__name__}: {exc}")
        phase.ops[op] = ok

    def trials_per_s(self, samples) -> float:
        per_realization = sum(median(samples[k]) for k in ("sd", "svd", "pinv", "include"))
        return 1.0 / per_realization


WORKLOADS = {w.name: w for w in (BerRegimes, CliBer, DecoupleK80)}


def model_flops(workload: Workload) -> dict:
    """Exact paper-convention FLOPs of each construction on the last probe system,
    the closed-form estimates' relative error, and the cost of counting."""
    sys_full, base, base_sd, new = workload.last_probe
    model = flops.CostModel()
    calls = {
        "SD": lambda: decouplers.sequential_decoupler(sys_full),
        "SVD": lambda: decouplers.svd_decoupler(sys_full),
        "PINV": lambda: decouplers.pinv_decoupler(sys_full),
        "include": lambda: decouplers.include_users(base, base_sd, new),
    }
    counted = {}
    for name, fn in calls.items():
        with flops.counting(model) as tally:
            fn()
        counted[name] = tally.total
    m_all = list(sys_full.m_per_user)
    estimates = {
        "SD": flops.estimate_flops("SD", sys_full.n_r, m_all, model=model).total,
        "SVD": flops.estimate_flops("SVD", sys_full.n_r, m_all, model=model).total,
        "PINV": flops.estimate_flops("PINV", sys_full.n_r, m_all, model=model).total,
        "include": flops.estimate_flops("SD_UI", sys_full.n_r, list(base.m_per_user),
                                        added=[h.shape[1] for h in new], model=model).total,
    }
    on, off = [], []
    for _ in range(3):
        start = time.perf_counter()
        with flops.counting(model):
            decouplers.sequential_decoupler(sys_full)
        on.append(time.perf_counter() - start)
        off.append(_timed(decouplers.sequential_decoupler, sys_full)[1])
    rel = {name: abs(estimates[name] - counted[name]) / counted[name] for name in counted}
    return {"counted": counted, "estimates": estimates, "rel_error": rel,
            "counting_overhead": median(on) / median(off)}
