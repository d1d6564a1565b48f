"""Correctness gates applied to every benchmark operation.

The bounds are the acceptance suite's (tests/test_acceptance.py) and are
computed here with plain numpy, independently of decoupsim's own
``verify_decoupling`` and ``subspace_distance``, so a defect in those
helpers cannot hide a defect in the decouplers they would be checking.
"""

from __future__ import annotations

import math

import numpy as np

CROSS_RESIDUAL_MAX = 1e-10      # criterion 1
SUBSPACE_DISTANCE_MAX = 1e-8    # criteria 3 and 5
ORTHONORMALITY_MAX = 1e-9       # criterion 4
BER_STDERR_FACTOR = 3.0         # criterion 7

_EPS = np.finfo(np.float64).eps


class Health:
    """Worst figures seen over a run, plus the failures behind them."""

    def __init__(self) -> None:
        self.max_cross_residual = 0.0
        self.max_subspace_distance = 0.0
        self.max_include_distance = 0.0
        self.max_orthonormality_defect = 0.0
        self.rank_failures = 0
        self.findings: list[str] = []

    def fail(self, message: str) -> bool:
        if len(self.findings) < 50:
            self.findings.append(message)
        return False


def decoupling_ok(users, ws, label: str, health: Health) -> bool:
    """Criterion 1: every W_i annihilates the other users and keeps W_i H_i full rank."""
    h = np.concatenate(users, axis=1)
    widths = [u.shape[1] for u in users]
    starts = np.cumsum([0] + widths[:-1])
    block_norms = np.sqrt(np.add.reduceat(np.sum(np.abs(h) ** 2, axis=0), starts))
    ok = True
    for i, w in enumerate(ws):
        col2 = np.sum(np.abs(w @ h) ** 2, axis=0)
        rel = np.sqrt(np.add.reduceat(col2, starts)) / block_norms
        rel[i] = 0.0
        cross = float(rel.max())
        health.max_cross_residual = max(health.max_cross_residual, cross)
        if not cross <= CROSS_RESIDUAL_MAX:
            ok = health.fail(f"{label}: user {i} cross residual {cross:.3e} > {CROSS_RESIDUAL_MAX}")
        eff = w @ users[i]
        s = np.linalg.svd(eff, compute_uv=False)
        cutoff = max(eff.shape) * _EPS * (float(s[0]) if s.size else 0.0)
        if int(np.sum(s > cutoff)) != users[i].shape[1]:
            health.rank_failures += 1
            ok = health.fail(f"{label}: user {i} effective channel lost rank")
    return ok


def _projector(w: np.ndarray) -> np.ndarray:
    return w.conj().T @ w


def same_subspaces(ws_a, ws_b, label: str, health: Health, *, include: bool = False) -> bool:
    """Criteria 3 and 5: per-user projector distance between two row-orthonormal sets."""
    ok = True
    for i, (a, b) in enumerate(zip(ws_a, ws_b)):
        d = float(np.linalg.norm(_projector(a) - _projector(b)))
        if include:
            health.max_include_distance = max(health.max_include_distance, d)
        else:
            health.max_subspace_distance = max(health.max_subspace_distance, d)
        if not d <= SUBSPACE_DISTANCE_MAX:
            ok = health.fail(f"{label}: user {i} subspace distance {d:.3e} > {SUBSPACE_DISTANCE_MAX}")
    if len(ws_a) != len(ws_b):
        ok = health.fail(f"{label}: {len(ws_a)} vs {len(ws_b)} decouplers")
    return ok


def orthonormal_ok(ws, label: str, health: Health) -> bool:
    """Criterion 4: rows of every SD decoupler are orthonormal."""
    ok = True
    for i, w in enumerate(ws):
        defect = float(np.linalg.norm(w @ w.conj().T - np.eye(w.shape[0])))
        health.max_orthonormality_defect = max(health.max_orthonormality_defect, defect)
        if not defect <= ORTHONORMALITY_MAX:
            ok = health.fail(f"{label}: user {i} orthonormality defect {defect:.3e} > {ORTHONORMALITY_MAX}")
    return ok


def identical_sets(ws_a, ws_b) -> bool:
    """Bit-identical decoupler sets (repeated builds on one input)."""
    return len(ws_a) == len(ws_b) and all(np.array_equal(a, b) for a, b in zip(ws_a, ws_b))


def ber_parity_ok(errors_sd, errors_svd, bits, label: str, health: Health) -> bool:
    """Criterion 7: SD BER within 3 binomial stderr of SVD's at every SNR point.

    ``errors_*`` are pooled bit-error counts per SNR point and ``bits``
    the matching bits sent per point.
    """
    ok = True
    for i, (e_sd, e_svd, n) in enumerate(zip(errors_sd, errors_svd, bits)):
        p_sd, p_svd = e_sd / n, e_svd / n
        bound = BER_STDERR_FACTOR * math.sqrt(p_svd * (1.0 - p_svd) / n)
        if abs(p_sd - p_svd) > bound:
            ok = health.fail(f"{label} point {i}: BER gap {abs(p_sd - p_svd):.3e} > {bound:.3e}")
    return ok
