"""Dense complex linear-algebra primitives.

Everything downstream (decouplers, detectors, the benchmark harness) is
built on these operations.  All functions are pure: they validate their
inputs, never mutate them, and are safe to call concurrently.  Inside a
:func:`decoupsim.flops.counting` block each primitive adds its model
cost to that block's tally.

Subspaces are represented by row-orthonormal basis matrices throughout,
so the pseudo-inverse of a basis is simply its adjoint and projecting a
signal onto a subspace keeps white noise white.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flops
from .errors import InvalidInputError, ShapeError

__all__ = [
    "SubspaceBasis",
    "QrFactors",
    "as_complex_matrix",
    "identity_basis",
    "matmul",
    "numerical_rank",
    "left_nullspace_basis",
    "pseudo_inverse",
    "qr_decompose",
    "subspace_distance",
]

_EPS = np.finfo(np.float64).eps


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SubspaceBasis:
    """Row-orthonormal basis of a subspace of C^ambient_dim.

    ``basis`` is t x n with the t basis vectors as rows.
    """

    basis: np.ndarray
    ambient_dim: int

    def __post_init__(self) -> None:
        b = self.basis
        if b.ndim != 2 or b.shape[1] != self.ambient_dim:
            raise InvalidInputError(
                f"basis shape {b.shape} does not match ambient dim {self.ambient_dim}"
            )
        t = b.shape[0]
        if t > self.ambient_dim:
            raise InvalidInputError("more basis rows than ambient dimensions")
        if t:
            gram = b @ b.conj().T
            err = np.linalg.norm(gram - np.eye(t))
            if err > 1e-10 * max(1.0, np.sqrt(t)):
                raise InvalidInputError(
                    f"basis rows are not orthonormal (defect {err:.3e})"
                )

    @property
    def dim(self) -> int:
        """Number of basis vectors."""
        return self.basis.shape[0]

    def projector(self) -> np.ndarray:
        """Orthogonal projector B^H B onto the spanned subspace."""
        return matmul(self.basis.conj().T, self.basis)


@dataclass(frozen=True)
class QrFactors:
    """Thin QR factors: Q has orthonormal columns, R is upper-triangular
    with real non-negative diagonal (stacked alike for stacked input)."""

    q: np.ndarray
    r: np.ndarray


def identity_basis(n: int) -> SubspaceBasis:
    """Canonical basis of all of C^n."""
    return SubspaceBasis(np.eye(n, dtype=np.complex128), n)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Instrumented complex matrix product."""
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    if (tally := flops._tally.get()) is not None:
        m = a.shape[0] if a.ndim == 2 else 1
        p = b.shape[1] if b.ndim == 2 else 1
        tally.add(tally.model.matmul(m, a.shape[-1], p))
    return a @ b


def _rank_cutoff(s: np.ndarray, shape: tuple[int, int]) -> float:
    """The one rank rule: the cutoff ``max(shape) * eps * sigma_max`` for
    singular values ``s`` (descending) of a ``shape`` matrix."""
    sigma_max = float(s[0]) if s.size else 0.0
    return (max(shape) * _EPS) * sigma_max


def numerical_rank(a) -> int:
    """Rank of ``a``: the count of singular values above
    ``max(rows, cols) * eps * sigma_max``."""
    m = as_complex_matrix(a)
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _rank_cutoff(s, m.shape)))


def _nullspace_rows(t_mat: np.ndarray) -> np.ndarray:
    """SVD kernel of :func:`left_nullspace_basis`: nullspace rows, no checks, no charge."""
    t, m = t_mat.shape
    if t == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if m == 0:
        return np.eye(t, dtype=np.complex128)
    u, s, _ = np.linalg.svd(t_mat, full_matrices=True)
    rank = int(np.sum(s > _rank_cutoff(s, t_mat.shape)))
    if rank == 0:
        return np.eye(t, dtype=np.complex128)
    return np.ascontiguousarray(u[:, rank:].conj().T)


def left_nullspace_basis(t_mat) -> SubspaceBasis:
    """Row-orthonormal basis of the left nullspace of ``t_mat`` (t x m).

    Rows w of the result satisfy ``w @ t_mat = 0`` up to the rank rule:
    they are the adjoints of the left singular vectors whose singular
    values fall at or below ``max(t, m) * eps * sigma_max``.  The row
    count is ``t - numerical_rank(t_mat)``.  A zero or empty matrix
    yields the canonical identity basis.
    """
    t_mat = as_complex_matrix(t_mat, "t_mat")
    t, m = t_mat.shape
    if (tally := flops._tally.get()) is not None:
        tally.add(tally.model.svd_full(t, m))
    return SubspaceBasis(_nullspace_rows(t_mat), t)


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with relative singular-value truncation.

    Rank-deficient inputs are allowed; singular values below
    ``max(n, m) * eps * sigma_max`` are dropped.
    """
    a = as_complex_matrix(a, "a")
    if (tally := flops._tally.get()) is not None:
        tally.add(tally.model.pinv(*a.shape))
    if min(a.shape) == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    return np.linalg.pinv(a, rcond=max(a.shape) * _EPS)


def qr_decompose(a) -> QrFactors:
    """Thin QR factorization with a fixed sign convention.

    ``a`` is one n x m matrix or a stack ``(..., n, m)`` of them, factored
    matrix by matrix; requires n >= m.  The diagonal of each R is forced
    to be real and non-negative (column phases are absorbed into Q),
    which makes the factorization deterministic across runs and
    backends.  The FLOP tally is charged once per matrix.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 3:
        a = as_complex_matrix(a, "a")
    elif a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError("a contains non-finite entries")
    n, m = a.shape[-2:]
    if n < m:
        raise ShapeError(f"qr_decompose needs n >= m, got {n} x {m}")
    if (tally := flops._tally.get()) is not None:
        tally.add(tally.model.qr(n, m) * int(np.prod(a.shape[:-2])))
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    phases = np.where(mag > 0, diag / np.where(mag > 0, mag, 1.0), 1.0)
    q = q * phases[..., None, :]
    r = phases.conj()[..., :, None] * r
    # the diagonal is now real up to rounding noise; make it exactly real
    idx = np.arange(m)
    r[..., idx, idx] = r[..., idx, idx].real
    return QrFactors(q, r)


def subspace_distance(b1: SubspaceBasis, b2: SubspaceBasis) -> float:
    """Frobenius distance between the orthogonal projectors of two subspaces.

    Zero iff the subspaces coincide; symmetric; satisfies the triangle
    inequality.  Requires both bases to share an ambient dimension.
    """
    if b1.ambient_dim != b2.ambient_dim:
        raise InvalidInputError(
            f"ambient dims differ: {b1.ambient_dim} vs {b2.ambient_dim}"
        )
    return float(np.linalg.norm(b1.projector() - b2.projector()))
