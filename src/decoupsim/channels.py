"""Seedable random channel and noise generation.

Every generator is a pure function of its seed, so identical seeds
reproduce identical realizations bit for bit and parallel Monte-Carlo
trials can draw from disjoint streams without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _require_numbers

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
    normal draw ``nu``.
    """

    mu_db: float = 3.0
    l_path: float = 0.65
    d_rel: float = 0.65
    tau: float = 3.0

    def __post_init__(self) -> None:
        _require_numbers(self)
        if self.l_path <= 0 or self.d_rel <= 0 or self.tau < 0:
            raise InvalidInputError("need l_path > 0, d_rel > 0, tau >= 0")


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
    rng = _as_rng(seed)
    return np.sqrt(0.5) * (
        rng.standard_normal((n_r, m_i)) + 1j * rng.standard_normal((n_r, m_i))
    )


def correlation_matrix(rho: float, n: int) -> np.ndarray:
    """Antenna correlation matrix with entries ``rho ** (j - k)^2``.

    Symmetric with a unit diagonal; positive semi-definite for every
    ``rho`` in [0, 1) (it is a Gaussian kernel on the antenna index).
    """
    if not 0.0 <= rho < 1.0:
        raise InvalidInputError(f"rho must be in [0, 1), got {rho}")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    idx = np.arange(n)
    s = rho ** ((idx[:, None] - idx[None, :]) ** 2).astype(float)
    if float(np.linalg.eigvalsh(s).min()) < -1e-10:
        raise InvalidInputError(f"correlation matrix for rho={rho} is not PSD")
    return s


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
    """
    h = np.asarray(h_iid, dtype=np.complex128)
    if rx_root.shape[0] != h.shape[0] or tx_root.shape[0] != h.shape[1]:
        raise InvalidInputError(
            f"shape mismatch: H {h.shape}, rx_root {rx_root.shape}, tx_root {tx_root.shape}"
        )
    return rx_root @ h @ tx_root


def apply_large_scale(h, params: LargeScaleParams, seed) -> np.ndarray:
    """Scale a channel by one lognormal shadowing / path-loss gain draw."""
    rng = _as_rng(seed)
    nu = rng.standard_normal()
    gain = 10.0 ** (params.mu_db * nu / 10.0) * np.sqrt(params.l_path / params.d_rel ** params.tau)
    return gain * np.asarray(h, dtype=np.complex128)


def perturb_channel(h, ce: CeErrorParams, seed) -> np.ndarray:
    """Add i.i.d. complex Gaussian estimation error of variance sigma_e2."""
    h = np.asarray(h, dtype=np.complex128)
    rng = _as_rng(seed)
    delta = np.sqrt(ce.sigma_e2 / 2.0) * (
        rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    )
    return h + delta


def gen_awgn(seed, sigma_n2: float, n: int) -> np.ndarray:
    """Length-n circular complex Gaussian noise vector of variance sigma_n2."""
    if sigma_n2 < 0:
        raise InvalidInputError("sigma_n2 must be >= 0")
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    rng = _as_rng(seed)
    return np.sqrt(sigma_n2 / 2.0) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
