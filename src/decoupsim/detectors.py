"""Per-user detection after decoupling.

Once a decoupler has isolated a user, the remaining task is an ordinary
single-user MIMO detection problem on the effective link
``y_tilde = W y``, ``H_tilde = W H``.  This module provides the two
detectors used throughout the package (a linear MMSE filter and a
QR-based successive interference canceller), plus Gray-mapped QPSK/QAM
constellations with modulation, slicing and demodulation for the BER
harness.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ShapeError, SingularMatrixError, _is_int
from .kernels import _full_rank_r, as_complex_matrix

__all__ = [
    "Constellation",
    "EffectiveLink",
    "build_link",
    "lmmse_filter",
    "lmmse_detect",
    "lmmse_stack",
    "sic_detect",
    "sic_stack",
    "modulate_bits",
    "demodulate_symbols",
    "slice_symbols",
]


_MAX_ORDER = 4 ** 8  # 65536-QAM: a larger point table is no constellation a link uses


def _gray(pos):
    """Gray code of each level position: adjacent positions differ in one bit."""
    return pos ^ (pos >> 1)


@dataclass(frozen=True)
class Constellation:
    """Gray-mapped square constellation with unit average symbol energy.

    A constellation is its ``order``, a power of 4 from 4 (QPSK) to 65536,
    and compares and hashes by it.  Construction checks the order before it
    builds anything, then derives the rest with integer arithmetic: ``name``,
    ``bits_per_symbol``, the ascending per-axis ``levels``, and ``points``,
    where ``points[s]`` is the symbol whose bit label is the binary expansion
    of ``s`` (first half of the bits selects the in-phase level, second half
    the quadrature level; adjacent levels differ in one bit).  ``levels`` and
    ``points`` are read-only, so :meth:`from_name` can hand every caller one
    shared constellation per order.
    """

    order: int
    name: str = field(init=False, compare=False)
    bits_per_symbol: int = field(init=False, compare=False)
    levels: np.ndarray = field(init=False, compare=False, repr=False)
    points: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        order = int(self.order) if _is_int(self.order) else 0
        # a power of 4 has one bit set, at an even place: an odd bit length
        if (order < 4 or order > _MAX_ORDER or order & (order - 1)
                or order.bit_length() % 2 == 0):
            raise InvalidInputError(f"constellation order must be a power of 4 from 4 to "
                                    f"{_MAX_ORDER}, got {self.order!r}")
        k = order.bit_length() - 1
        half = k // 2
        n_levels = 1 << half
        scale = np.sqrt(3.0 / (2.0 * (n_levels ** 2 - 1)))
        levels = scale * (2 * np.arange(n_levels) - n_levels + 1).astype(float)
        labels = _gray(np.arange(n_levels))
        points = np.empty(order, dtype=np.complex128)
        # level pair (i, q) takes the label slot gray(i) << half | gray(q)
        points[(labels[:, None] << half) | labels] = levels[:, None] + 1j * levels
        levels.flags.writeable = points.flags.writeable = False
        for name, value in {"order": order, "name": "QPSK" if order == 4 else f"QAM{order}",
                            "bits_per_symbol": k, "levels": levels, "points": points}.items():
            object.__setattr__(self, name, value)

    @classmethod
    def qpsk(cls) -> "Constellation":
        return cls(4)

    @classmethod
    def square_qam(cls, order: int) -> "Constellation":
        """Square QAM of the given order (4, 16, 64, ...)."""
        return cls(order)

    @classmethod
    def from_name(cls, name: str) -> "Constellation":
        """The constellation named ``QPSK`` or ``QAM<order>`` (any letter case),
        built once per order and shared."""
        label = name.strip().upper()
        digits = "4" if label == "QPSK" else label.removeprefix("QAM")
        if digits != label and digits.isascii() and digits.isdecimal():
            # reported by name below; int() raises ValueError past 4300 digits
            with contextlib.suppress(InvalidInputError, ValueError):
                return _shared_constellation(int(digits))
        raise InvalidInputError(f"constellation must be QPSK or QAM<order>, the order a "
                                f"power of 4 from 4 to {_MAX_ORDER} (4, 16, 64, ...), "
                                f"got {name!r}")

    @property
    def bit_weights(self) -> np.ndarray:
        """Weight of each bit of a label, most significant first."""
        return 1 << np.arange(self.bits_per_symbol - 1, -1, -1)


@functools.lru_cache
def _shared_constellation(order: int) -> Constellation:
    return Constellation(order)


def _axis_positions(values: np.ndarray, cons: Constellation) -> np.ndarray:
    """Index of the nearest per-axis level for each real value."""
    # levels are uniformly spaced: round to the grid, then clip
    step = cons.levels[1] - cons.levels[0]
    pos = np.rint((values - cons.levels[0]) / step)
    # clip before the integer cast; fmax/fmin send NaN to level 0
    return np.fmin(np.fmax(pos, 0.0), cons.levels.size - 1).astype(np.intp)


def slice_symbols(z, cons: Constellation) -> np.ndarray:
    """Map each entry of ``z`` to the nearest constellation point."""
    return cons.points[_symbol_indices(z, cons)]


def _symbol_indices(z, cons: Constellation) -> np.ndarray:
    """Bit-label index of the nearest constellation point for each entry."""
    z = np.asarray(z, dtype=np.complex128)
    half = cons.bits_per_symbol // 2
    return (_gray(_axis_positions(z.real, cons)) << half) | _gray(_axis_positions(z.imag, cons))


def modulate_bits(bits, cons: Constellation) -> np.ndarray:
    """Map a 0/1 bit stream to symbols; length must divide into symbols."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if np.any((bits != 0) & (bits != 1)):
        raise InvalidInputError("bits must be 0 or 1")
    k = cons.bits_per_symbol
    if bits.size % k:
        raise InvalidInputError(f"bit count {bits.size} not divisible by {k}")
    return cons.points[bits.reshape(-1, k) @ cons.bit_weights]


def demodulate_symbols(symbols, cons: Constellation) -> np.ndarray:
    """Slice symbols to the constellation and return their bit labels."""
    idx = _symbol_indices(symbols, cons)
    return ((idx[:, None] & cons.bit_weights) > 0).astype(np.int64).ravel()


@dataclass(frozen=True, eq=False)
class EffectiveLink:
    """A user's post-decoupling observation model.

    ``y_tilde = W y``, ``h_tilde = W H_i`` and the noise covariance
    ``sigma_n2 * W W^H`` (exactly ``sigma_n2 * I`` when W has
    orthonormal rows).  Links compare by identity.
    """

    y_tilde: np.ndarray
    h_tilde: np.ndarray
    noise_cov: np.ndarray
    sigma_n2: float


def build_link(w_i, h_i, y, sigma_n2: float) -> EffectiveLink:
    """Assemble the effective single-user link seen through a decoupler."""
    w_i = as_complex_matrix(w_i, "w_i")
    h_i = as_complex_matrix(h_i, "h_i")
    y = np.asarray(y, dtype=np.complex128).ravel()
    if sigma_n2 < 0:
        raise InvalidInputError("sigma_n2 must be >= 0")
    if w_i.shape[1] != h_i.shape[0] or w_i.shape[1] != y.size:
        raise ShapeError(
            f"incompatible shapes: W {w_i.shape}, H {h_i.shape}, y ({y.size},)"
        )
    return EffectiveLink(
        y_tilde=w_i @ y,
        h_tilde=w_i @ h_i,
        noise_cov=sigma_n2 * (w_i @ w_i.conj().T),
        sigma_n2=float(sigma_n2),
    )


def _whiten(shape: np.ndarray, h: np.ndarray, *vectors: np.ndarray):
    """Whiten stacked links whose noise covariance is ``sigma_n2 * shape``.

    ``shape`` is ``(..., t, t)``, ``h`` is ``(..., t, m)`` and each vector
    ``(..., t)``.  With ``L L^H = shape`` (batched Cholesky) this returns
    ``L^-1 h`` and ``L^-1 v`` for every vector, from one batched solve.
    """
    try:
        chol = np.linalg.cholesky(shape)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("noise covariance is not positive definite") from exc
    m = h.shape[-1]
    out = np.linalg.solve(chol, np.concatenate([h] + [v[..., None] for v in vectors], axis=-1))
    return (out[..., :m],) + tuple(out[..., m + i] for i in range(len(vectors)))


def lmmse_stack(h, a, b, sigmas) -> np.ndarray:
    """Unsliced MMSE filter outputs of G links over a grid of S noise levels.

    Link g has effective channel ``h[g]`` (t x m) and at grid point s
    observes ``a[g] + sigmas[s] * b[g]`` in white noise of variance
    ``sigmas[s]**2``: a sweep that scales one unit-noise draw ``b``.
    Returns ``(G, S, m)``: ``(H^H H + sigma^2 I)^-1 H^H y`` for every
    link and noise level, from one batched solve.  A channel whose Gram
    matrix overflows raises ``FloatingPointError``.
    """
    h = np.asarray(h, dtype=np.complex128)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    hh = np.conj(np.swapaxes(h, -1, -2))
    with np.errstate(over="ignore", invalid="ignore"):
        gram = hh @ h
    if not np.all(np.isfinite(gram)):
        raise FloatingPointError("effective-channel Gram matrix overflows")
    hta = hh @ np.asarray(a, dtype=np.complex128)[..., None]
    htb = hh @ np.asarray(b, dtype=np.complex128)[..., None]
    lhs = gram[:, None] + (sigmas * sigmas)[:, None, None] * np.eye(h.shape[-1])
    rhs = hta[:, None] + sigmas[:, None, None] * htb[:, None]
    try:
        return np.linalg.solve(lhs, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("normal matrix is singular (rank-deficient link with "
                                  "sigma_n2 = 0)") from exc


def lmmse_filter(link: EffectiveLink) -> np.ndarray:
    """Unsliced MMSE filter output ``(H^H H + sigma_n2 I)^-1 H^H y_tilde``.

    The formula treats the post-decoupling noise as white, which is exact
    for row-orthonormal decouplers; like :func:`sic_detect`, it never
    whitens.  For a decoupler with colored output noise (such as the
    pseudo-inverse construction), whiten with ``link.noise_cov`` first.
    """
    y = link.y_tilde
    return lmmse_stack(link.h_tilde[None], y[None], np.zeros_like(y)[None],
                       [np.sqrt(link.sigma_n2)])[0, 0]


def lmmse_detect(link: EffectiveLink, cons: Constellation) -> np.ndarray:
    """Linear MMSE detection: filter, then slice per coordinate."""
    return slice_symbols(lmmse_filter(link), cons)


def sic_stack(h, a, b, sigmas, cons: Constellation) -> np.ndarray:
    """QR-based SIC decisions of G links over a grid of S noise levels.

    Links and observations are as in :func:`lmmse_stack`.  Each ``h[g]``
    is factored once (numpy's stacked reduced QR), ``v = Q^H y`` is
    formed for every noise level, and symbols are detected from the last
    stream to the first, subtracting each sliced decision from the
    streams still to come:

        x_hat[j] = slice((v[j] - sum_{p>j} R[j,p] x_hat[p]) / R[j,j])

    LAPACK leaves R's diagonal real but of either sign; a negative R[j,j]
    negates v[j] and row j of R exactly, so no decision depends on the
    signs.  The loop runs over the m streams only, vectorized over links
    and noise levels.  Returns ``(G, S, m)`` constellation points.  A link
    with t < m raises ``ShapeError``; a non-finite channel, or one whose
    Gram trace ``norm(R)**2`` overflows, ``FloatingPointError``; an R that
    fails PINV's pivot rule (``kernels._full_rank_r``) ``SingularMatrixError``.
    """
    h = np.asarray(h, dtype=np.complex128)
    t, m = h.shape[-2:]
    if t < m:
        raise ShapeError(f"SIC needs a link with at least as many rows as streams, got {t} x {m}")
    q, r = np.linalg.qr(h)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(r, axis=(-2, -1))  # sqrt of the Gram's trace
    if not np.all(np.isfinite(norm)):
        raise FloatingPointError("effective-channel Gram matrix overflows")
    if m and not _full_rank_r(r, (t, m)).all():  # a link of no streams detects nothing
        raise SingularMatrixError("effective channel is not full column rank for SIC")
    qh = np.conj(np.swapaxes(q, -1, -2))
    va = (qh @ np.asarray(a, dtype=np.complex128)[..., None])[..., 0]
    vb = (qh @ np.asarray(b, dtype=np.complex128)[..., None])[..., 0]
    v = va[:, None] + np.asarray(sigmas, dtype=np.float64)[:, None] * vb[:, None]
    pivots = np.diagonal(r, axis1=-2, axis2=-1).real
    x_hat = np.zeros(v.shape, dtype=np.complex128)
    for j in range(m - 1, -1, -1):
        residual = v[..., j] - (r[:, None, j:j + 1, j + 1:] @ x_hat[..., j + 1:, None])[..., 0, 0]
        # slice (re, im) pairs as floats: exact real division, one axis rule
        pairs = residual.view(np.float64) / pivots[:, j, None]
        x_hat[..., j] = cons.levels[_axis_positions(pairs, cons)].view(np.complex128)
    return x_hat


def sic_detect(link: EffectiveLink, cons: Constellation) -> np.ndarray:
    """QR-based successive interference cancellation on one link: factor
    ``H_tilde = Q R``, rotate ``v = Q^H y_tilde`` and detect symbols from
    the last stream to the first (see :func:`sic_stack`)."""
    y = link.y_tilde
    return sic_stack(link.h_tilde[None], y[None], np.zeros_like(y)[None], [0.0], cons)[0, 0]
