"""Configuration-driven Monte-Carlo BER sweeps, equivalence audits and
FLOP benchmarks.

Reproducibility rules
---------------------
Every random draw in a sweep comes from its own stream
``RngSeed(config seed, trial * 2^20 + purpose)``: purpose 0 draws the
trial's bits and 1 its noise, and ``16 + 3 * (k * subcarrier + user)``
plus 0, 1 or 2 the user's i.i.d. channel, estimation error and shadowing
gain on that subcarrier.  A trial's streams must stay below the next
trial's, so a configuration needs ``16 + 3 * k * n_subcarriers <= 2^20``.
Results are therefore independent of execution order and worker count:
re-running the same configuration at any parallelism degree produces
byte-identical tables.  A sweep task runs a block of a constant number
of consecutive trials (the last block may be shorter).  This module owns
only the stream layout: it hands the (systems, k, 3) array of each user's
three streams in the block's (trial, subcarrier) systems to
``channels.gen_channel_stack``, which owns channel synthesis and returns
the true and used channels, each a (systems, n_r, sum(m_i)) stack of each
system's users side by side, where a user is a column slice.  Every arm
builds the decouplers of all the block's systems from that stack
(``_DECOUPLERS``: SD in one stacked partition-tree walk, SVD and PINV in
stacked factorizations), and the block detects equal-shape links of all
of them together.  The equivalence audit draws and builds its trials in
the same blocks.  Each system's arithmetic is the same in any block, so
results depend neither on the block split nor on the thread count.
Comparisons between decouplers or detectors re-use the same streams
(common random numbers); the arms differ only in the algorithm under
test.

The signal-to-noise definition used throughout is recorded in every run
manifest: with unit-energy symbols and unit-variance channel entries,
``sigma_n^2 = (sum_i M_i / K) * 10^(-snr_db / 10)``, i.e. snr_db measures
the average received energy of one user's symbols per receive antenna
over the noise variance.
"""

from __future__ import annotations

import contextvars
import csv
import datetime
import io
import json
import math
import pathlib
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__ as _pkg_version
from . import _runtime, flops
from .channels import (
    CeErrorParams,
    KroneckerParams,
    LargeScaleParams,
    RngSeed,
    _complex_normals,
    _correlation_root,
    _read_streams,
    gen_channel_stack,
    gen_iid_channel,
)
from .decouplers import (
    SystemChannel,
    _pinv_sets,
    _sd_sets,
    _svd_sets,
    include_users,
    sequential_decoupler,
    verify_decoupling,
)
from .detectors import (
    Constellation,
    _symbol_indices,
    _whiten,
    lmmse_stack,
    sic_stack,
)
from .errors import (
    InfeasibleSystemError,
    InvalidConfigError,
    InvalidInputError,
    ShapeError,
    _is_int,
    _is_number,
)
from .kernels import SubspaceBasis, subspace_distance

__all__ = [
    "SimConfig",
    "BerCurve",
    "BerResult",
    "AuditReport",
    "SNR_DEFINITION",
    "FLOP_CONVENTION",
    "run_paired_ber",
    "run_equivalence_audit",
    "run_flop_bench",
    "FlopSweep",
    "emit_outputs",
    "ber_rows",
    "BER_COLUMNS",
    "AUDIT_COLUMNS",
    "FLOP_COLUMNS",
]

SNR_DEFINITION = (
    "sigma_n^2 = (sum_i M_i / K) * 10^(-snr_db/10): snr_db is the average "
    "received energy of one user's symbols per receive antenna over the noise "
    "variance, under unit-energy symbols and unit-variance channel entries"
)

FLOP_CONVENTION = (
    "real FLOPs priced by this manifest's cost_model (add and mul per complex "
    "operation, svd_scale and inv_scale leading dense factorization counts); for the "
    "sequential decoupler family the tally covers the recursion's projection "
    "products and nullspace factorizations at the dimensions where they "
    "execute, while re-expressions of already-orthonormal bases are treated "
    "as bookkeeping and excluded; the same convention prices every algorithm "
    "in a comparison"
)

# each decoupler's sets of a (systems, n_r, sum(m_i)) stack, system by system
_DECOUPLERS = {"SD": _sd_sets, "SVD": _svd_sets, "PINV": _pinv_sets}
_DETECTORS = ("LMMSE", "SIC")

# stream layout: trial * _STRIDE + purpose (see the module docstring)
_STRIDE = 1 << 20
_BITS, _NOISE = 0, 1
_PER_USER_BASE = 16  # then 3 streams per (subcarrier, user): i.i.d. channel, CE, shadowing


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run."""

    n_r: int
    k: int
    m_i: int | tuple[int, ...]
    decoupler: str = "SD"
    detector: str = "LMMSE"
    constellation: str = "QPSK"
    snr_db: tuple[float, ...] = (0.0, 4.0, 8.0, 12.0, 16.0)
    bits_per_point: int = 120000
    seed: int = 0
    whiten: bool = False
    threads: int = 1
    n_subcarriers: int = 1
    audit_trials: int = 100
    kronecker: KroneckerParams | None = None
    large_scale: LargeScaleParams | None = None
    ce_error: CeErrorParams | None = None
    cost_model: flops.CostModel | None = None

    def __post_init__(self) -> None:
        if _is_int(self.m_i) and _is_int(self.k):
            object.__setattr__(self, "m_i", (self.m_i,) * self.k)
        for name, (ok, kind, convert) in _FIELD_TYPES.items():
            if not ok(value := getattr(self, name)):
                raise InvalidConfigError(f"{name} must be {kind}, got {value!r}")
            object.__setattr__(self, name, convert(value))
        if self.n_r < 1 or self.k < 1:
            raise InvalidConfigError("n_r and k must be >= 1")
        if len(self.m_i) != self.k or any(m < 1 for m in self.m_i):
            raise InvalidConfigError("m_i must give every one of the k users >= 1 stream")
        if self.decoupler not in _DECOUPLERS:
            raise InvalidConfigError(f"decoupler must be one of {tuple(_DECOUPLERS)}")
        if self.detector not in _DETECTORS:
            raise InvalidConfigError(f"detector must be one of {_DETECTORS}")
        if not self.snr_db:
            raise InvalidConfigError("snr_db grid must not be empty")
        if list(self.snr_db) != sorted(self.snr_db):
            raise InvalidConfigError("snr_db grid must be sorted ascending")
        try:
            noise = self.sigma_n2(self.snr_db[0])  # the lowest point has the most noise
        except OverflowError:
            noise = np.inf
        if noise == np.inf:  # a noise variance that underflows to 0 is the noiseless limit
            raise InvalidConfigError(
                f"snr_db must be high enough for a finite noise variance, got {self.snr_db[0]}")
        if self.threads < 1 or self.n_subcarriers < 1 or self.audit_trials < 1:
            raise InvalidConfigError("threads, n_subcarriers and audit_trials must be >= 1")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        if _PER_USER_BASE + 3 * self.k * self.n_subcarriers > _STRIDE:
            raise InvalidConfigError(
                f"k x n_subcarriers = {self.k * self.n_subcarriers} overflows a trial's "
                f"streams: {_PER_USER_BASE} + 3 x k x n_subcarriers must be <= 2^20, "
                f"so k x n_subcarriers <= {(_STRIDE - _PER_USER_BASE) // 3}")
        try:
            cons = Constellation.from_name(self.constellation)
        except InvalidInputError as exc:
            raise InvalidConfigError(str(exc)) from exc
        per_trial = cons.bits_per_symbol * self.m_total * self.n_subcarriers
        if self.bits_per_point < per_trial or self.bits_per_point % per_trial:
            raise InvalidConfigError(
                f"bits_per_point must be a positive multiple of bits-per-symbol x "
                f"total streams x subcarriers = {per_trial}"
            )

    @property
    def m_total(self) -> int:
        return sum(self.m_i)

    @property
    def trials(self) -> int:
        cons = Constellation.from_name(self.constellation)
        return self.bits_per_point // (cons.bits_per_symbol * self.m_total * self.n_subcarriers)

    def sigma_n2(self, snr_db: float) -> float:
        return (self.m_total / self.k) * 10.0 ** (-snr_db / 10.0)

    def to_dict(self) -> dict:
        """Dict form (the config-file schema); unset sections are ``None``."""
        return {
            "system": {"n_r": self.n_r, "k": self.k, "m_i": list(self.m_i)},
            **{name: getattr(self, name) for name in _SCALAR_FIELDS},
            "snr_db": list(self.snr_db),
            "channel": {name: _asdict_or_none(getattr(self, name)) for name in _CHANNEL_PARAMS},
            "cost_model": _asdict_or_none(self.cost_model),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Build a configuration from its dict form; unknown keys are errors."""
        try:
            _reject_unknown("", d, (*_SCALAR_FIELDS, "system", "channel", "cost_model"))
            system = d["system"]
            _reject_unknown("system.", system, ("n_r", "k", "m_i"))
            channel = d.get("channel") or {}
            _reject_unknown("channel.", channel, _CHANNEL_PARAMS)
            cm = d.get("cost_model")
            return cls(
                **system,
                cost_model=_section("cost_model.", cm, flops.CostModel) if cm else None,
                **{name: d[name] for name in _SCALAR_FIELDS if name in d},
                **{name: _section(f"channel.{name}.", channel[name], params)
                   for name, params in _CHANNEL_PARAMS.items() if channel.get(name)},
            )
        except InvalidConfigError:
            raise
        except (KeyError, TypeError, ValueError, InvalidInputError) as exc:
            raise InvalidConfigError(f"bad configuration: {exc}") from exc

    def with_overrides(self, overrides: dict) -> "SimConfig":
        """Apply dotted-path overrides (e.g. {"system.k": 8}) to a copy.

        Every path must name a config key; an unset (``null``) section such
        as ``channel.ce_error`` may be given fields."""
        d = self.to_dict()
        for path, value in overrides.items():
            node = d
            *parents, leaf = path.split(".")
            for part in parents:
                if part not in node:
                    raise InvalidConfigError(f"unknown config path {path!r}")
                if node[part] is None:
                    node[part] = {}
                node = node[part]
                if not isinstance(node, dict):
                    raise InvalidConfigError(f"config path {path!r} runs through a value")
            node[leaf] = value
        return SimConfig.from_dict(d)


# top-level config keys of SimConfig's scalar fields
_SCALAR_FIELDS = ("decoupler", "detector", "constellation", "snr_db", "bits_per_point",
                  "seed", "whiten", "threads", "n_subcarriers", "audit_trials")
_CHANNEL_PARAMS = {"kronecker": KroneckerParams, "large_scale": LargeScaleParams,
                   "ce_error": CeErrorParams}


def _list_of(ok):
    return lambda value: isinstance(value, (list, tuple, np.ndarray)) and all(map(ok, value))


# (check, description, normal form) of SimConfig's typed fields: a value of the wrong
# type is an error, never cast (bool("false") is True, int(16.9) is 16)
_FIELD_TYPES = {
    **dict.fromkeys(("n_r", "k", "bits_per_point", "seed", "threads", "n_subcarriers",
                     "audit_trials"), (_is_int, "an integer", int)),
    "m_i": (_list_of(_is_int), "an integer or a list of integers", lambda v: tuple(map(int, v))),
    "snr_db": (_list_of(_is_number), "a list of finite numbers", lambda v: tuple(map(float, v))),
    "whiten": (lambda v: isinstance(v, bool), "true or false", bool),
    **dict.fromkeys(("decoupler", "detector", "constellation"),
                    (lambda v: isinstance(v, str), "a string", str)),
    **{name: (lambda v, cls=cls: v is None or isinstance(v, cls),
              f"a {cls.__name__} or None", lambda v: v)
       for name, cls in {**_CHANNEL_PARAMS, "cost_model": flops.CostModel}.items()},
}


def _asdict_or_none(params):
    return asdict(params) if params else None


def _reject_unknown(prefix: str, section, known) -> None:
    if not isinstance(section, dict):
        raise InvalidConfigError(f"config section {prefix[:-1] or 'root'} must be an object")
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise InvalidConfigError(f"unknown config key(s) {', '.join(prefix + k for k in unknown)}")


def _section(prefix: str, section, params):
    """``params(**section)``, with any key ``params`` lacks named by its dotted path."""
    _reject_unknown(prefix, section, [f.name for f in fields(params)])
    return params(**section)


@dataclass(frozen=True)
class BerCurve:
    """Error counts and rates along one SNR grid."""

    snr_db: tuple[float, ...]
    bit_errors: tuple[int, ...]
    bits_sent: tuple[int, ...]

    @property
    def ber(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.bit_errors, self.bits_sent))

    @property
    def stderr(self) -> tuple[float, ...]:
        """Binomial standard error of each BER estimate."""
        return _binomial_stderr(self.ber, self.bits_sent)


def _binomial_stderr(ber, bits_sent) -> tuple[float, ...]:
    return tuple(math.sqrt(p * (1.0 - p) / n) for p, n in zip(ber, bits_sent))


@dataclass(frozen=True)
class BerResult:
    """Per-user and aggregate BER curves for one (decoupler, detector) arm."""

    decoupler: str
    detector: str
    per_user: tuple[BerCurve, ...]

    @property
    def aggregate(self) -> BerCurve:
        """All users pooled: their error and bit counts summed at each SNR point."""
        curves = self.per_user
        return BerCurve(curves[0].snr_db,
                        tuple(map(sum, zip(*(c.bit_errors for c in curves)))),
                        tuple(map(sum, zip(*(c.bits_sent for c in curves)))))


# ---------------------------------------------------------------------------
# BER sweep core.

def _channels(cfg: SimConfig, systems, true=None):
    """``gen_channel_stack`` of the (trial, subcarrier) ``systems``: the
    ``(systems, k, 3)`` layout of each user's i.i.d.-channel, CE and shadowing
    streams."""
    trial, sc = np.array(systems).T[..., None, None]
    streams = trial * _STRIDE + _PER_USER_BASE + 3 * (cfg.k * sc + np.arange(cfg.k)[:, None])
    return gen_channel_stack(cfg.seed, streams + np.arange(3), cfg.n_r, cfg.m_i, cfg.kronecker,
                             cfg.large_scale, cfg.ce_error, true)


# roots is unused, as gen_channel_stack caches its own; perfbench's replay still passes it
def _build_true_channels(cfg: SimConfig, trial: int, subcarrier: int, roots) -> list[np.ndarray]:
    true, _ = _channels(cfg, [(trial, subcarrier)])
    return np.split(true[0], np.cumsum(cfg.m_i)[:-1], axis=1)


def _perturb_channels(cfg: SimConfig, trial: int, subcarrier: int, chans) -> list[np.ndarray]:
    _, used = _channels(cfg, [(trial, subcarrier)], np.concatenate(chans, axis=1)[None])
    return np.split(used[0], np.cumsum(cfg.m_i)[:-1], axis=1)


def _kronecker_roots(cfg: SimConfig):
    """``(rx_root, {m: tx_root})`` of the Kronecker channel, or None without one."""
    if cfg.kronecker is None:
        return None
    return (_correlation_root(cfg.kronecker.rho_rx, cfg.n_r),
            {m: _correlation_root(cfg.kronecker.rho_tx, m) for m in set(cfg.m_i)})


# trials per sweep task; a constant, so no trial's arithmetic depends on the thread count
_BLOCK = 16


@_runtime.one_blas_thread()
def run_paired_ber(cfg: SimConfig, decouplers=None, detectors=None,
                   channel_factory=None) -> dict[tuple[str, str], BerResult]:
    """Run one Monte-Carlo sweep for several (decoupler, detector) arms at once.

    All arms share every random draw (channels, bits, noise), so curve
    differences isolate the algorithms.  ``channel_factory``, when given,
    replaces the built-in channel generator: it is called as
    ``factory(trial, subcarrier)`` and must return the per-user true
    channel matrices, k of them, each n_r x m_i (else ``ShapeError``).
    This is the plug-in point for externally defined (e.g. standardized
    frequency-selective) fading models; the harness still applies the
    configured estimation error on top and loops over ``n_subcarriers``
    flat subproblems per trial.  The sweep runs with numpy's bundled
    OpenBLAS at one thread (see ``_runtime.one_blas_thread``), so its
    bytes do not depend on the BLAS thread setting.
    """
    decouplers = tuple(decouplers or (cfg.decoupler,))
    detectors = tuple(detectors or (cfg.detector,))
    for d in decouplers:
        if d not in _DECOUPLERS:
            raise InvalidConfigError(f"unknown decoupler {d!r}")
    for d in detectors:
        if d not in _DETECTORS:
            raise InvalidConfigError(f"unknown detector {d!r}")
    cons = Constellation.from_name(cfg.constellation)
    # fail fast on infeasible dimensions before spending any work
    flops._check_feasible(cfg.n_r, cfg.m_i)
    if "PINV" in decouplers:
        flops._check_total_streams(cfg.n_r, cfg.m_total, "pseudo-inverse decoupler")
    if "SIC" in detectors:
        flops._check_total_streams(cfg.n_r, cfg.m_total, "SIC detector")

    trials, n_snr = cfg.trials, len(cfg.snr_db)
    sigmas = np.sqrt([cfg.sigma_n2(s) for s in cfg.snr_db])
    bits_per_vec = cons.bits_per_symbol * cfg.m_total
    offsets = np.cumsum((0,) + cfg.m_i)
    shapes = [(cfg.n_r, m_u) for m_u in cfg.m_i]

    def factory_channels(trial: int, sc: int) -> list[np.ndarray]:
        chans = [np.asarray(h, dtype=np.complex128) for h in channel_factory(trial, sc)]
        if (got := [h.shape for h in chans]) != shapes:
            raise ShapeError(f"channel_factory({trial}, {sc}) returned shapes {got}, "
                             f"expected {cfg.k} users of n_r x m_i: {shapes}")
        if not all(np.isfinite(h).all() for h in chans):
            raise InvalidInputError(f"channel_factory({trial}, {sc}) returned non-finite entries")
        return chans

    def detect(errors, di, decs, used, y_clean, unit, tx_labels):
        """Detect every user of every (trial, subcarrier) entry of a block at
        every SNR point, stacked over each group of links whose decoupler
        shape and stream count agree.  Decisions agree with the per-link
        public detectors (covered by tests)."""
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for e, dec in enumerate(decs):
            for u in range(cfg.k):
                groups.setdefault((dec.w[u].shape, cfg.m_i[u]), []).append((e, u))
        for members in groups.values():
            entries, users = (np.array(x) for x in zip(*members))
            w = np.stack([decs[e].w[u] for e, u in members])
            ht = w @ np.stack([used[e, :, offsets[u]:offsets[u + 1]] for e, u in members])
            a = (w @ y_clean[entries, :, None])[..., 0]
            b = (w @ unit[entries, :, None])[..., 0]
            if cfg.whiten and not decs[0].row_orthonormal:
                ht, a, b = _whiten(w @ np.conj(np.swapaxes(w, -1, -2)), ht, a, b)
            streams = offsets[users, None] + np.arange(cfg.m_i[users[0]])
            tx = tx_labels[entries[:, None], streams][:, None, :]
            for ti, det in enumerate(detectors):
                z = (lmmse_stack(ht, a, b, sigmas) if det == "LMMSE"
                     else sic_stack(ht, a, b, sigmas, cons))
                np.add.at(errors[di, ti], users, np.bitwise_count(
                    tx ^ _symbol_indices(z, cons)).sum(axis=-1, dtype=np.int64))

    def one_block(first: int) -> np.ndarray:
        """Error counts of trials ``first .. first + _BLOCK - 1`` (fewer at the end)."""
        errors = np.zeros((len(decouplers), len(detectors), cfg.k, n_snr), dtype=np.int64)
        block = range(first, min(first + _BLOCK, trials))
        entries = [(trial, sc) for trial in block for sc in range(cfg.n_subcarriers)]
        first_streams = np.multiply(block, _STRIDE)  # stream 0 of each trial
        bits = np.stack([rng.integers(0, 2, size=(cfg.n_subcarriers, bits_per_vec))
                         for rng in _read_streams(cfg.seed, first_streams + _BITS)])
        tx_labels = bits.reshape(len(entries), -1, cons.bits_per_symbol) @ cons.bit_weights
        unit = _complex_normals(_read_streams(cfg.seed, first_streams + _NOISE),
                                (len(block), cfg.n_subcarriers, cfg.n_r), np.sqrt(0.5))
        # each trial's gen_awgn(1.0, n_subcarriers * n_r), a row per subcarrier
        unit = unit.reshape(len(entries), cfg.n_r)
        true, used = _channels(cfg, entries, None if channel_factory is None else np.stack(
            [np.concatenate(factory_channels(*entry), axis=1) for entry in entries]))
        # the signal crosses the true channels; decouplers and detection see the used ones
        y_clean = (true @ cons.points[tx_labels][..., None])[..., 0]
        # an arm's decoupler sets are freed once detected, before the next arm builds
        for di, dec_name in enumerate(decouplers):
            detect(errors, di, _DECOUPLERS[dec_name](used, cfg.m_i),
                   used, y_clean, unit, tx_labels)
        return errors

    blocks = range(0, trials, _BLOCK)
    # one thread, or a single block, runs in an empty context, which starts as a pool
    # thread does: with no FLOP tally and numpy's default error state (a context
    # variable), so no output depends on threads; an idle pool would only cost its
    # start and stop
    if min(cfg.threads, len(blocks)) == 1:
        total = contextvars.Context().run(lambda: sum(map(one_block, blocks)))
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            total = sum(pool.map(one_block, blocks))

    per_user_bits = [trials * cfg.n_subcarriers * m_u * cons.bits_per_symbol for m_u in cfg.m_i]

    def curve(errors, bits: int) -> BerCurve:
        return BerCurve(cfg.snr_db, tuple(int(e) for e in errors), (bits,) * n_snr)

    return {(dec, det): BerResult(dec, det, tuple(curve(total[di, ti, u], bits)
                                                  for u, bits in enumerate(per_user_bits)))
            for di, dec in enumerate(decouplers) for ti, det in enumerate(detectors)}


# ---------------------------------------------------------------------------
# Equivalence audit.

@dataclass(frozen=True)
class AuditReport:
    """Worst-case decoupling residuals over many seeded systems."""

    trials: int
    max_cross_residual: dict
    rank_failures: dict
    max_subspace_distance_vs_svd: float


@_runtime.one_blas_thread()
def run_equivalence_audit(cfg: SimConfig) -> AuditReport:
    """Check decoupling exactness and baseline equivalence over many seeds.

    For ``cfg.audit_trials`` independent channel realizations this runs
    every applicable decoupler, records the worst cross-user residual and
    any effective-channel rank loss, and measures the worst per-user
    subspace distance between the tree-built decouplers and the per-user
    factorization baseline.  It runs on one OpenBLAS thread, as a sweep does.
    """
    methods = ["SD", "SVD"] + (["PINV"] if cfg.m_total <= cfg.n_r else [])
    worst = {m: 0.0 for m in methods}
    rank_fail = {m: 0 for m in methods}
    worst_dist = 0.0
    for first in range(0, cfg.audit_trials, _BLOCK):
        systems = [(trial, 0) for trial in range(first, min(first + _BLOCK, cfg.audit_trials))]
        _, used = _channels(cfg, systems)
        sets = {m: _DECOUPLERS[m](used, cfg.m_i) for m in methods}
        for b, h in enumerate(used):
            sys = SystemChannel(cfg.n_r, np.split(h, np.cumsum(cfg.m_i)[:-1], axis=1))
            for m in methods:
                rep = verify_decoupling(sys, sets[m][b])
                worst[m] = max(worst[m], rep.max_cross_residual)
                rank_fail[m] += sum(0 if u["full_rank"] else 1 for u in rep.per_user)
            for w_sd, w_svd in zip(sets["SD"][b].w, sets["SVD"][b].w):
                d = subspace_distance(SubspaceBasis(w_sd), SubspaceBasis(w_svd))
                worst_dist = max(worst_dist, d)
    return AuditReport(cfg.audit_trials, worst, rank_fail, worst_dist)


# ---------------------------------------------------------------------------
# FLOP benches.

@dataclass(frozen=True)
class FlopSweep:
    """One complexity sweep: vary users, streams per user, or inclusions.

    ``mode`` is "users" (sweep k at fixed m_i), "streams" (sweep m_i at
    fixed k) or "inclusion" (add 1..p_max users to the base system of
    ``base_k`` users at ``base_n_r`` antennas).  When ``n_r`` is omitted it
    defaults to total streams + 10.  Instrumented runs execute the
    algorithms on seeded random channels; set ``instrumented=False`` to
    tabulate closed-form estimates only.
    """

    mode: str = "users"
    k_values: tuple[int, ...] = (30, 40, 50, 60, 70, 80)
    m_values: tuple[int, ...] = (2, 4, 6, 8)
    k: int = 50
    m_i: int = 2
    n_r: int | None = None
    p_max: int = 5
    base_k: int = 60
    base_n_r: int = 130
    seed: int = 0
    instrumented: bool = True


def _flop_points(sweep: FlopSweep) -> list[tuple[str, int, int, int, int, int]]:
    """``(label, param, n_r, k, m_i, added)`` for every point of a sweep.

    An inclusion point is the augmented system of ``base_k + p`` users
    whose last ``added = p`` users join the base system; the base system
    is checked for feasibility here, before anything runs.
    """
    if sweep.seed < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {sweep.seed}")
    if sweep.mode == "users":
        return [("k", k, sweep.n_r or k * sweep.m_i + 10, k, sweep.m_i, 0)
                for k in sweep.k_values]
    if sweep.mode == "streams":
        return [("m_i", m, sweep.n_r or sweep.k * m + 10, sweep.k, m, 0)
                for m in sweep.m_values]
    if sweep.mode == "inclusion":
        for name in ("base_k", "m_i", "p_max", "base_n_r"):
            if getattr(sweep, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(sweep, name)}")
        flops._check_feasible(sweep.base_n_r, (sweep.m_i,) * sweep.base_k)
        return [("p", p, sweep.base_n_r, sweep.base_k + p, sweep.m_i, p)
                for p in range(1, sweep.p_max + 1)]
    raise InvalidConfigError(f"unknown sweep mode {sweep.mode!r}")


def _bench_system(n_r: int, k: int, m_i: int, seed: int) -> SystemChannel:
    return SystemChannel(
        n_r, [gen_iid_channel(RngSeed(seed, u), n_r, m_i) for u in range(k)]
    )


def run_flop_bench(sweep: FlopSweep, model: flops.CostModel | None = None) -> list[dict]:
    """Tabulate estimated (and optionally instrumented) FLOPs for one sweep.

    Returns ``FLOP_COLUMNS`` rows, one per (sweep point, algorithm), with
    ratios of each algorithm's estimate to the SVD and pseudo-inverse
    baselines (an empty cell where the baseline costs 0 FLOPs); an
    inclusion point's ``SD_UI`` row (updating the base decoupler set)
    comes first.  Everything is priced by ``model``
    (default: ``CostModel()``).  Infeasible sweep entries are skipped
    with a warning.
    """
    model = model or flops.CostModel()
    points = _flop_points(sweep)
    if sweep.instrumented and sweep.mode == "inclusion":
        # every inclusion point updates this one base decoupler set
        base_sys = _bench_system(sweep.base_n_r, sweep.base_k, sweep.m_i, sweep.seed)
        base_sd = sequential_decoupler(base_sys)
        # newcomer i is user base_k + i of the systems that the rebuild rows build on
        new_chans = [gen_iid_channel(RngSeed(sweep.seed, sweep.base_k + i), sweep.base_n_r,
                                     sweep.m_i) for i in range(sweep.p_max)]
    rows: list[dict] = []
    for label, param, n_r, k, m_i, added in points:
        estimates = {}
        try:
            if added:
                estimates["SD_UI"] = flops.estimate_flops(
                    "SD_UI", n_r, m_i, k=k - added, added=[m_i] * added, model=model).total
            for alg in ("SD", "SVD", "PINV"):
                estimates[alg] = flops.estimate_flops(alg, n_r, m_i, k=k, model=model).total
        except InfeasibleSystemError as exc:
            warnings.warn(f"skipping {label}={param}: {exc}")
            continue
        instrumented = dict.fromkeys(estimates, "")
        if sweep.instrumented:
            sys = _bench_system(n_r, k, m_i, sweep.seed)
            for alg in estimates:
                with flops.counting(model) as tally:
                    if alg == "SD_UI":
                        include_users(base_sys, base_sd, new_chans[:added])
                    else:  # the batch of one that the public decoupler builds
                        _DECOUPLERS[alg](sys.stacked()[None], sys.m_per_user)
                instrumented[alg] = tally.total
        for alg, est in estimates.items():
            ratios = [est / estimates[base] if estimates[base] else "" for base in ("SVD", "PINV")]
            rows.append(dict(zip(FLOP_COLUMNS, (sweep.mode, param, n_r, alg, est,
                                                instrumented[alg], *ratios))))
    return rows


# ---------------------------------------------------------------------------
# Output emission.

BER_COLUMNS = ["decoupler", "detector", "user", "snr_db", "bits_sent",
               "bit_errors", "ber", "stderr"]
AUDIT_COLUMNS = ["decoupler", "trials", "max_cross_residual", "rank_failures",
                 "max_subspace_distance_vs_svd"]
FLOP_COLUMNS = ["sweep", "param", "n_r", "algorithm", "flops_estimate",
                "flops_instrumented", "ratio_to_svd", "ratio_to_pinv"]


def ber_rows(results: dict[tuple[str, str], BerResult]) -> list[dict]:
    """Flatten sweep results into frozen-schema CSV rows, one per SNR point."""
    rows = []
    for (dec, det), res in sorted(results.items()):
        for label, curve in [(str(u), c) for u, c in enumerate(res.per_user)] + [("all", res.aggregate)]:
            ber = curve.ber
            points = zip(curve.snr_db, curve.bits_sent, curve.bit_errors, ber,
                         _binomial_stderr(ber, curve.bits_sent))
            rows += [dict(zip(BER_COLUMNS, (dec, det, label, *point))) for point in points]
    return rows


def audit_rows(report: AuditReport) -> list[dict]:
    return [dict(zip(AUDIT_COLUMNS, (method, report.trials, residual, report.rank_failures[method],
                                     report.max_subspace_distance_vs_svd if method == "SD" else "")))
            for method, residual in report.max_cross_residual.items()]


def render_csv(columns: list[str], rows: list[dict]) -> str:
    """Deterministic CSV text: header plus one record per row.  The csv writer
    formats each cell itself: a float by ``repr``, any other value by ``str``,
    and a missing or ``None`` cell as empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(row.get, columns) for row in rows)
    return buf.getvalue()


_DEFAULT_COST_MODEL = asdict(flops.CostModel())


def emit_outputs(tables: dict[str, tuple[list[str], list[dict]]], out_dir,
                 manifest: dict) -> list[str]:
    """Write CSV tables plus a JSON run manifest; returns the paths written.

    ``tables`` maps a file stem to (columns, rows).  The manifest records
    the full configuration, seed, cost model, package version and the
    SNR definition, so a run can be reproduced from its outputs alone.
    An output directory that cannot be created or written is an
    ``InvalidConfigError``.
    """
    out = pathlib.Path(out_dir)
    manifest = {"package_version": _pkg_version, "snr_definition": SNR_DEFINITION,
                "flop_convention": FLOP_CONVENTION, "cost_model": _DEFAULT_COST_MODEL,
                "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                **manifest}
    files = {f"{name}.csv": render_csv(columns, rows) for name, (columns, rows) in tables.items()}
    files["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InvalidConfigError(f"cannot write outputs to {out}: {exc}") from exc
    return [str(out / name) for name in files]
