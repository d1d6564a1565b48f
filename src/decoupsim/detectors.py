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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError, SingularMatrixError
from .kernels import as_complex_matrix, qr_decompose

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


def _gray_inverse(g: int) -> int:
    n = 0
    while g:
        n ^= g
        g >>= 1
    return n


@dataclass(frozen=True)
class Constellation:
    """Gray-mapped square constellation with unit average symbol energy.

    ``points[s]`` is the symbol whose bit label is the binary expansion
    of ``s`` (first half of the bits selects the in-phase level, second
    half the quadrature level; adjacent levels differ in one bit).
    """

    name: str
    points: np.ndarray
    bits_per_symbol: int
    levels: np.ndarray  # per-axis amplitude levels, ascending

    @classmethod
    def qpsk(cls) -> "Constellation":
        return cls.square_qam(4, name="QPSK")

    @classmethod
    def square_qam(cls, order: int, name: str | None = None) -> "Constellation":
        """Square QAM of the given order (4, 16, 64, ...)."""
        k = int(round(np.log2(order)))
        if 2 ** k != order or k % 2 != 0 or order < 4:
            raise InvalidInputError(f"order {order} is not a square power of 4")
        half = k // 2
        n_levels = 2 ** half
        scale = np.sqrt(3.0 / (2.0 * (n_levels ** 2 - 1)))
        levels = scale * (2 * np.arange(n_levels) - n_levels + 1).astype(float)
        points = np.empty(order, dtype=np.complex128)
        for s in range(order):
            i_bits = s >> half
            q_bits = s & (n_levels - 1)
            points[s] = levels[_gray_inverse(i_bits)] + 1j * levels[_gray_inverse(q_bits)]
        return cls(name or f"QAM{order}", points, k, levels)

    @classmethod
    def from_name(cls, name: str) -> "Constellation":
        label = name.strip().upper()
        if label == "QPSK":
            return cls.qpsk()
        if label.startswith("QAM"):
            return cls.square_qam(int(label[3:]))
        raise InvalidInputError(f"unknown constellation {name!r}")

    @property
    def order(self) -> int:
        return self.points.size


def _axis_positions(values: np.ndarray, cons: Constellation) -> np.ndarray:
    """Index of the nearest per-axis level for each real value."""
    # levels are uniformly spaced: round to the grid, then clip
    step = cons.levels[1] - cons.levels[0] if cons.levels.size > 1 else 1.0
    pos = np.rint((values - cons.levels[0]) / step)
    # clip before the integer cast; fmax/fmin send NaN to level 0
    return np.fmin(np.fmax(pos, 0.0), cons.levels.size - 1).astype(np.intp)


def slice_symbols(z, cons: Constellation) -> np.ndarray:
    """Map each entry of ``z`` to the nearest constellation point."""
    z = np.asarray(z, dtype=np.complex128)
    i_pos = _axis_positions(z.real, cons)
    q_pos = _axis_positions(z.imag, cons)
    return cons.levels[i_pos] + 1j * cons.levels[q_pos]


def _symbol_indices(z, cons: Constellation) -> np.ndarray:
    """Bit-label index of the nearest constellation point for each entry."""
    z = np.asarray(z, dtype=np.complex128)
    half = cons.bits_per_symbol // 2
    i_pos = _axis_positions(z.real, cons)
    q_pos = _axis_positions(z.imag, cons)
    i_lab = i_pos ^ (i_pos >> 1)
    q_lab = q_pos ^ (q_pos >> 1)
    return (i_lab << half) | q_lab


def modulate_bits(bits, cons: Constellation) -> np.ndarray:
    """Map a 0/1 bit stream to symbols; length must divide into symbols."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if np.any((bits != 0) & (bits != 1)):
        raise InvalidInputError("bits must be 0 or 1")
    k = cons.bits_per_symbol
    if bits.size % k:
        raise InvalidInputError(f"bit count {bits.size} not divisible by {k}")
    groups = bits.reshape(-1, k)
    weights = 1 << np.arange(k - 1, -1, -1)
    return cons.points[groups @ weights]


def demodulate_symbols(symbols, cons: Constellation) -> np.ndarray:
    """Slice symbols to the constellation and return their bit labels."""
    idx = _symbol_indices(symbols, cons)
    k = cons.bits_per_symbol
    weights = 1 << np.arange(k - 1, -1, -1)
    return ((idx[:, None] & weights) > 0).astype(np.int64).ravel()


@dataclass(frozen=True)
class EffectiveLink:
    """A user's post-decoupling observation model.

    ``y_tilde = W y``, ``h_tilde = W H_i`` and the noise covariance
    ``sigma_n2 * W W^H`` (exactly ``sigma_n2 * I`` when W has
    orthonormal rows).
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
    link and noise level, from one batched solve.
    """
    h = np.asarray(h, dtype=np.complex128)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    hh = np.conj(np.swapaxes(h, -1, -2))
    gram = hh @ h
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
    is factored once (stacked :func:`qr_decompose`), ``v = Q^H y`` is
    formed for every noise level, and symbols are detected from the last
    stream to the first, subtracting each sliced decision from the
    streams still to come:

        x_hat[j] = slice((v[j] - sum_{p>j} R[j,p] x_hat[p]) / R[j,j])

    The loop runs over the m streams only, vectorized over links and
    noise levels.  Returns ``(G, S, m)`` constellation points.  Requires
    full-column-rank effective channels (t >= m and every R[j,j] != 0).
    """
    factors = qr_decompose(h)
    r = factors.r
    qh = np.conj(np.swapaxes(factors.q, -1, -2))
    va = (qh @ np.asarray(a, dtype=np.complex128)[..., None])[..., 0]
    vb = (qh @ np.asarray(b, dtype=np.complex128)[..., None])[..., 0]
    v = va[:, None] + np.asarray(sigmas, dtype=np.float64)[:, None] * vb[:, None]
    m = r.shape[-1]
    pivots = np.diagonal(r, axis1=-2, axis2=-1).real
    scale = np.maximum(np.linalg.norm(r, axis=(-2, -1)), 1.0)
    if np.any(np.abs(pivots) <= 1e-12 * scale[:, None]):
        raise SingularMatrixError("zero pivot on the R diagonal in SIC back-substitution")
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
