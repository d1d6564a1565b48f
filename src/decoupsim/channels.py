"""Seedable random channel and noise generation.

Every generator is a pure function of its seed, so identical seeds
reproduce identical realizations bit for bit and parallel Monte-Carlo
trials can draw from disjoint streams without coordination.  A batch of
``(seed, stream)`` streams is read by :func:`_read_streams`, a generator
made per read whose states come from numpy's ``SeedSequence`` pool of
the seed and one vectorised hash of the stream words.  Every
complex Gaussian comes from one stacked draw, ``scale * (re + 1j * im)``
per generator (its real parts, then its imaginary parts): a public
generator is its batch of one.  This module owns channel synthesis:
:func:`gen_channel_stack` draws a BER sweep block's channels, all its
systems' users of one width as one batch, and the harness owns only the
layout of the streams it reads.  :func:`kronecker_correlate` takes such
a stack as it takes one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, ShapeError, _is_int, _is_number, _require_numbers

__all__ = [
    "RngSeed",
    "KroneckerParams",
    "LargeScaleParams",
    "CeErrorParams",
    "gen_iid_channel",
    "correlation_matrix",
    "matrix_sqrt_psd",
    "kronecker_correlate",
    "apply_large_scale",
    "perturb_channel",
    "gen_awgn",
    "gen_channel_stack",
]


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream) pair naming one reproducible random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        )


# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


@lru_cache
def _hash_constants(init: int, mult: int, first: int) -> np.ndarray:
    """The hash constant after steps first .. first + 8, as a read-only uint32
    column, built once per process (``first`` depends on a seed only through
    its word count)."""
    const = np.array([init * pow(mult, j, 1 << 32) & _M32 for j in range(first, first + 9)],
                     dtype=np.uint32)[:, None]
    const.flags.writeable = False
    return const


def _pcg64_states(seed: int, streams) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``RngSeed(seed, s).generator()`` for every stream s.

    SeedSequence's hash, vectorised over the streams: the entropy is the
    seed's 32-bit words, then the stream's one or two words (streams must
    be below 2^64).  The pool after the seed's words is the same for every
    stream, so numpy hashes it once (``SeedSequence(seed).pool``), in 4
    hash steps per seed word and at least 16; each stream word then goes
    into the 4 pool words as one uint32 array pass, which wraps as the
    uint32 original does.  ``generate_state(4, uint64)`` gives the seed and
    increment, and pcg64_set_seed's two LCG steps take Python ints.
    """
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")

    def mix_in(pool, word, const):
        """One entropy word of every stream into its 4 pool words: 4 hashmix-mix steps,
        step i xoring the constant before it (``const[i]``) and multiplying the one after."""
        value = (word.astype(np.uint32) ^ const[:-1]) * const[1:]
        mixed = _MIX_L * pool - _MIX_R * (value ^ value >> 16)
        return mixed ^ mixed >> 16

    const = _hash_constants(_INIT_A, _MULT_A, 4 * max(4, -(-seed.bit_length() // 32)))
    streams = np.asarray(streams, dtype=np.uint64).ravel()
    pool = mix_in(np.random.SeedSequence(seed).pool[:, None], streams & _M32, const[:5])
    if (wide := streams >> 32 != 0).any():  # a stream of 2^32 or more has a second word
        pool[:, wide] = mix_in(pool[:, wide], streams[wide] >> 32, const[4:])
    # generate_state(4, uint64): 8 words from the pool in turn, paired little end first
    const = _hash_constants(_INIT_B, _MULT_B, 0)
    value = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ const[:-1]) * const[1:]
    value = (value ^ value >> 16).astype(np.uint64)
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(value[0::2] | value[1::2] << 32).tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        out.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _M128, inc))
    return out


def _read_streams(seed: int, streams):
    """Yield, in order, a generator at the start of each ``(seed, stream)``
    stream, which draws what ``RngSeed(seed, stream).generator()`` would.
    Every item is this call's one generator: finish a stream's draws before
    taking the next."""
    gen = np.random.Generator(np.random.PCG64(0))  # each stream replaces its state
    for state, inc in _pcg64_states(seed, streams):
        gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield gen


def _complex_normals(rngs, shape, scale) -> np.ndarray:
    """``scale * (re + 1j * im)`` stacked: entry i of the ``shape`` result comes
    from the i-th generator of ``rngs``, which draws its real, then its
    imaginary standard normals.  The real ``scale`` multiplies each part,
    which gives the bytes of the complex product but for the sign of a zero."""
    x = np.empty((shape[0], 2, *shape[1:]))
    for rng, out in zip(rngs, x, strict=True):
        rng.standard_normal(out=out)
    h = np.empty(shape, dtype=np.complex128)
    np.multiply(x[:, 0], scale, out=h.real)
    np.multiply(x[:, 1], scale, out=h.imag)
    return h


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngSeed):
        return seed.generator()
    return RngSeed(int(seed)).generator()


@dataclass(frozen=True)
class KroneckerParams:
    """Separable transmit/receive correlation coefficients, each in [0, 1)."""

    rho_tx: float = 0.0
    rho_rx: float = 0.0

    def __post_init__(self) -> None:
        _require_numbers(self)
        for name, rho in (("rho_tx", self.rho_tx), ("rho_rx", self.rho_rx)):
            if not 0.0 <= rho < 1.0:
                raise InvalidInputError(f"{name} must be in [0, 1), got {rho}")


@dataclass(frozen=True)
class LargeScaleParams:
    """Lognormal shadowing and distance-based path loss.

    ``mu_db`` is the shadowing spread in dB, ``l_path`` the power path
    loss, ``d_rel`` the relative distance and ``tau`` the path-loss
    exponent.  The per-realization gain is
    ``10^(mu_db * nu / 10) * sqrt(l_path / d_rel^tau)`` with a standard
    normal draw ``nu``.  The path-loss factor must be finite and positive;
    a draw whose gain overflows raises ``FloatingPointError``.
    """

    mu_db: float = 3.0
    l_path: float = 0.65
    d_rel: float = 0.65
    tau: float = 3.0

    def __post_init__(self) -> None:
        _require_numbers(self)
        if self.l_path <= 0 or self.d_rel <= 0 or self.tau < 0:
            raise InvalidInputError("need l_path > 0, d_rel > 0, tau >= 0")
        try:
            factor = _path_loss(self)
        except (OverflowError, ZeroDivisionError):  # d_rel ** tau out of range
            factor = math.nan
        if not 0.0 < factor < math.inf:
            raise InvalidInputError(
                f"path-loss factor sqrt(l_path / d_rel ** tau) is not finite and positive "
                f"for l_path={self.l_path}, d_rel={self.d_rel}, tau={self.tau}")


@dataclass(frozen=True)
class CeErrorParams:
    """Per-entry variance of additive channel-estimation error."""

    sigma_e2: float = 0.0

    def __post_init__(self) -> None:
        _require_numbers(self)
        if self.sigma_e2 < 0:
            raise InvalidInputError("sigma_e2 must be >= 0")


def gen_iid_channel(seed, n_r: int, m_i: int) -> np.ndarray:
    """n_r x m_i matrix of i.i.d. unit-variance circular complex Gaussians."""
    if n_r < 1 or m_i < 1:
        raise InvalidInputError("dimensions must be >= 1")
    return _complex_normals([_as_rng(seed)], (1, n_r, m_i), np.sqrt(0.5))[0]


def correlation_matrix(rho: float, n: int) -> np.ndarray:
    """Antenna correlation matrix with entries ``rho ** (j - k)^2``.

    Symmetric with a unit diagonal; positive semi-definite for every
    ``rho`` in [0, 1) (it is a Gaussian kernel on the antenna index).
    """
    if not 0.0 <= rho < 1.0:
        raise InvalidInputError(f"rho must be in [0, 1), got {rho}")
    if not _is_int(n) or n < 1:
        raise InvalidInputError(f"n must be >= 1 and an integer, got {n!r}")
    idx = np.arange(n)
    return rho ** ((idx[:, None] - idx[None, :]) ** 2).astype(float)


def matrix_sqrt_psd(s) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Tiny negative eigenvalues from rounding are clamped to zero; a
    genuinely indefinite input is rejected.
    """
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got {s.shape}")
    if np.linalg.norm(s - s.conj().T) > 1e-10 * max(1.0, np.linalg.norm(s)):
        raise InvalidInputError("matrix is not Hermitian")
    vals, vecs = np.linalg.eigh(s)
    if vals.min() < -1e-10 * max(1.0, abs(vals.max())):
        raise InvalidInputError("matrix is not positive semi-definite")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    if np.linalg.norm(s.imag) == 0:
        return root.real.astype(float) if np.linalg.norm(root.imag) < 1e-12 else root
    return root


def kronecker_correlate(h_iid, tx_root, rx_root) -> np.ndarray:
    """Impose separable correlation: ``rx_root @ H @ tx_root``.

    The roots are the PSD square roots ``S^(1/2)`` of the correlation
    matrices (:func:`matrix_sqrt_psd`), so a sweep factors them once.
    ``H`` may be a stack of equal-shape channels (its last two axes), each
    correlated with the bytes of its own call.
    """
    h = np.asarray(h_iid, dtype=np.complex128)
    if h.ndim < 2 or rx_root.shape[0] != h.shape[-2] or tx_root.shape[0] != h.shape[-1]:
        raise InvalidInputError(
            f"shape mismatch: H {h.shape}, rx_root {rx_root.shape}, tx_root {tx_root.shape}"
        )
    return rx_root @ h @ tx_root


@lru_cache
def _correlation_root(rho: float, n: int) -> np.ndarray:
    """``matrix_sqrt_psd(correlation_matrix(rho, n))``, factored once per
    process and read-only, so no caller can change what the next run sees."""
    root = matrix_sqrt_psd(correlation_matrix(rho, n))
    root.flags.writeable = False
    return root


def apply_large_scale(h, params: LargeScaleParams, seed) -> np.ndarray:
    """Scale a channel by one lognormal shadowing / path-loss gain draw."""
    gain = _shadowing_gain(params, _as_rng(seed).standard_normal())
    return gain * np.asarray(h, dtype=np.complex128)


def _path_loss(params: LargeScaleParams) -> float:
    """``sqrt(l_path / d_rel ** tau)`` on Python scalars."""
    return math.sqrt(params.l_path / params.d_rel ** params.tau)


def _shadowing_gain(params: LargeScaleParams, nu: float) -> float:
    """The gain of one standard normal draw ``nu``, on Python scalars: a
    vectorised ``10.0 ** array`` rounds differently from scalar ``pow``.
    A gain past the float range raises ``FloatingPointError``."""
    try:
        gain = 10.0 ** (params.mu_db * nu / 10.0) * _path_loss(params)
    except OverflowError:
        gain = math.inf
    if gain == math.inf:
        raise FloatingPointError(
            f"shadowing gain overflows: mu_db={params.mu_db} with normal draw {nu}")
    return gain


def perturb_channel(h, ce: CeErrorParams, seed) -> np.ndarray:
    """Add i.i.d. complex Gaussian estimation error of variance sigma_e2."""
    h = np.asarray(h, dtype=np.complex128)
    return h + _complex_normals([_as_rng(seed)], (1, *h.shape), np.sqrt(ce.sigma_e2 / 2.0))[0]


def gen_awgn(seed, sigma_n2: float, n: int) -> np.ndarray:
    """Length-n circular complex Gaussian noise vector of variance sigma_n2."""
    if not _is_number(sigma_n2) or sigma_n2 < 0:
        raise InvalidInputError(f"sigma_n2 must be a finite number >= 0, got {sigma_n2!r}")
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    return _complex_normals([_as_rng(seed)], (1, n), np.sqrt(sigma_n2 / 2.0))[0]


def gen_channel_stack(seed: int, streams, n_r: int, widths,
                      kronecker: KroneckerParams | None = None,
                      large_scale: LargeScaleParams | None = None,
                      ce_error: CeErrorParams | None = None, true=None):
    """``(true, used)`` channel stacks of a block of systems, ``(systems, n_r,
    sum(widths))`` each, with every system's users side by side as column slices.

    User u of system s draws its i.i.d. channel, estimation error and shadowing
    gain from the streams ``streams[s, u]`` (a ``(systems, users, 3)`` array), with
    the bytes of ``gen_iid_channel``, ``kronecker_correlate``, ``apply_large_scale``
    and ``perturb_channel``; the users of one width are drawn and correlated as one
    stack.  A given complex ``true`` stack is only perturbed; one of another shape
    raises ``ShapeError``, a non-finite one ``InvalidInputError``.  Without
    estimation error ``used`` is ``true`` itself.
    """
    streams = np.asarray(streams)
    if streams.shape[1:] != (len(widths), 3):
        raise InvalidInputError(f"streams must be (systems, {len(widths)}, 3), got {streams.shape}")
    offsets = np.cumsum((0, *widths))
    if true is not None:
        if np.shape(true) != (shape := (len(streams), n_r, int(offsets[-1]))):
            raise ShapeError(f"true must be {shape}, got {np.shape(true)}")
        if not np.isfinite(true).all():
            raise InvalidInputError("true contains non-finite entries")

    def draw(purpose: int, scale) -> np.ndarray:
        out = np.empty((len(streams), n_r, offsets[-1]), dtype=np.complex128)
        for m in set(widths):
            users = [u for u, m_u in enumerate(widths) if m_u == m]
            h = _complex_normals(_read_streams(seed, streams[:, users, purpose].ravel()),
                                 (len(streams) * len(users), n_r, m), scale)
            if purpose == 0 and kronecker is not None:
                h = kronecker_correlate(h, _correlation_root(kronecker.rho_tx, m),
                                        _correlation_root(kronecker.rho_rx, n_r))
            for j, u in enumerate(users):
                out[:, :, offsets[u]:offsets[u + 1]] = h[j::len(users)]
        return out

    if true is None:
        true = draw(0, np.sqrt(0.5))
        if large_scale is not None:
            gains = [_shadowing_gain(large_scale, rng.standard_normal())
                     for rng in _read_streams(seed, streams[..., 2].ravel())]
            # a real gain scales both parts, as the complex product with gain + 0j does
            parts = true.view(np.float64)
            parts *= np.repeat(np.reshape(gains, (len(streams), 1, len(widths))),
                               np.multiply(2, widths), axis=2)
    if ce_error is None or ce_error.sigma_e2 == 0.0:
        return true, true
    return true, true + draw(1, np.sqrt(ce_error.sigma_e2 / 2.0))
