"""Dense complex linear-algebra primitives.

Everything downstream (decouplers, detectors, the benchmark harness) is
built on these operations.  All functions are pure: they validate their
inputs, never mutate them, and are safe to call concurrently.  None is
charged to a FLOP tally; the decouplers charge their own work.

Subspaces are represented by row-orthonormal basis matrices throughout,
so the pseudo-inverse of a basis is simply its adjoint and projecting a
signal onto a subspace keeps white noise white.  No kernel inverts a
general matrix (``pinv_decoupler`` builds the PINV baseline's inverse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "SubspaceBasis",
    "as_complex_matrix",
    "numerical_rank",
    "left_nullspace_basis",
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


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Row-orthonormal basis of a subspace of C^n.

    ``basis`` is t x n with the t basis vectors as rows; its column count
    n is the ambient dimension.  Bases compare by identity.
    """

    basis: np.ndarray

    def __post_init__(self) -> None:
        b = self.basis
        if b.ndim != 2:
            raise InvalidInputError(f"basis must be 2-D, got ndim={b.ndim}")
        # rows past the column count are never orthonormal: this check covers them
        err = np.linalg.norm(b @ b.conj().T - np.eye(len(b)))
        if err > 1e-10 * max(1.0, np.sqrt(len(b))):
            raise InvalidInputError(f"basis rows are not orthonormal (defect {err:.3e})")

    @property
    def ambient_dim(self) -> int:
        """Dimension of the space the basis lives in: its column count."""
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        """Number of basis vectors."""
        return self.basis.shape[0]

    def projector(self) -> np.ndarray:
        """Orthogonal projector B^H B onto the spanned subspace."""
        return self.basis.conj().T @ self.basis


def _rank_cutoff(s: np.ndarray, shape: tuple[int, int]) -> float | np.ndarray:
    """The one rank rule: the cutoff ``max(shape) * eps * sigma_max`` for the
    nonempty singular values ``s`` (descending) of a ``shape`` matrix, or
    one cutoff per matrix for the values ``(..., k)`` of a stack of them.
    :func:`_certified_full_rank` proves full rank under this rule without
    the singular values; callers fall back to them when it cannot."""
    return (max(shape) * _EPS) * s[..., 0]


def _full_rank_r(r: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Whether each R of a stack ``(..., m, m)`` of QR factors of ``shape``
    matrices is full rank under the one rank rule, judged on ``|diag R|``
    (the Cholesky pivots of the Gram ``R^H R``) sorted as singular values."""
    pivots = np.sort(np.abs(np.diagonal(r, axis1=-2, axis2=-1)), axis=-1)[..., ::-1]
    return pivots[..., -1] > _rank_cutoff(pivots, shape)


# Shift of the full-rank certificate: a certified matrix has
# sigma_min / sigma_max >= about sqrt(1e-8) = 1e-4.
_CERT_SHIFT = 1e-8


def _certified_full_rank(r: np.ndarray) -> bool:
    """Whether every member of a stack ``(B, m, m)`` of square upper-triangular
    QR factors R is full rank under the one rank rule, proved without an SVD.

    Each R is scaled by its largest entry, so no sum of squares below
    overflows or underflows, and one stacked Cholesky factors
    ``G - tau * trace(G) * I`` for its Gram ``G = R^H R`` and
    ``tau = 1e-8``: the shift of G scaled to unit trace, that is of R scaled
    to unit Frobenius norm.  At unit trace the rounding in forming G and in
    the Cholesky is at most about ``(2m + 1) * eps`` in the 2-norm, so a
    factorization that succeeds proves ``sigma_min^2 >= (tau - (2m + 1) *
    eps) * sigma_max^2``: ``sigma_min / sigma_max >= ~1e-4`` for any m below
    about 10^5.  The rule's cutoff ratio is ``max(t, m) * eps``, ten orders
    smaller and far above the SVD's own rounding, so the rule calls every
    member full.  False (a Cholesky that fails for any member, a zero R or
    a non-finite entry) proves nothing: the caller decides by the singular
    values and :func:`_rank_cutoff`.
    """
    scale = np.abs(r).max(axis=(-2, -1), keepdims=True)
    if not np.all((scale > 0) & (scale < np.inf)):  # a zero or non-finite R
        return False
    r = r / scale
    gram = np.conj(r.swapaxes(-1, -2)) @ r
    idx = np.arange(r.shape[-1])
    diag = gram[..., idx, idx]
    gram[..., idx, idx] = diag - _CERT_SHIFT * diag.real.sum(axis=-1, keepdims=True)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def numerical_rank(a) -> int:
    """Rank of ``a``: the count of singular values above
    ``max(rows, cols) * eps * sigma_max``."""
    m = as_complex_matrix(a)
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _rank_cutoff(s, m.shape)))


def _nullspace_rows(t_mats: np.ndarray) -> list[np.ndarray]:
    """SVD kernel of :func:`left_nullspace_basis` over a stack ``(B, t, m)``:
    each member's nullspace rows from one stacked SVD, its rank by the one
    rank rule; no checks."""
    _, t, m = t_mats.shape
    if t == 0 or m == 0:
        return [np.eye(t, dtype=np.complex128) for _ in t_mats]
    u, s, _ = np.linalg.svd(t_mats, full_matrices=True)
    ranks = np.sum(s > _rank_cutoff(s, (t, m))[:, None], axis=1)
    return [np.ascontiguousarray(u_b[:, rank:].conj().T) if rank else
            np.eye(t, dtype=np.complex128) for u_b, rank in zip(u, ranks)]


def left_nullspace_basis(t_mat) -> SubspaceBasis:
    """Row-orthonormal basis of the left nullspace of ``t_mat`` (t x m).

    Rows w of the result satisfy ``w @ t_mat = 0`` up to the rank rule:
    they are the adjoints of the left singular vectors whose singular
    values fall at or below ``max(t, m) * eps * sigma_max``.  The row
    count is ``t - numerical_rank(t_mat)``.  A zero or empty matrix
    yields the canonical identity basis.
    """
    t_mat = as_complex_matrix(t_mat, "t_mat")
    return SubspaceBasis(_nullspace_rows(t_mat[None])[0])


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
