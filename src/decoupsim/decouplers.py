"""Interference-removing decouplers for the multi-user MIMO uplink.

A decoupler for user i is a matrix ``W_i`` whose rows span the common
left nullspace of every other user's channel, so that ``W_i @ y`` is
free of inter-user interference.  Three constructions are provided:

* :func:`svd_decoupler` factors each user's complementary channel
  directly (the straightforward baseline, one large SVD per user);
* :func:`sequential_decoupler` builds all decouplers at once over a
  binary partition tree, reusing intermediate common-nullspace
  estimates so that later stages work in ever smaller subspaces;
* :func:`pinv_decoupler` takes block rows of the channel pseudo-inverse
  (which also equalizes each user's own channel to the identity).

:func:`include_users` updates a sequential decoupler set in place when
new users join, and :func:`verify_decoupling` checks the residual
interference of any decoupler set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import flops
from .errors import InvalidInputError, ShapeError, SingularMatrixError
from .kernels import (
    SubspaceBasis,
    _nullspace_rows,
    _rank_cutoff,
    as_complex_matrix,
    left_nullspace_basis,
    numerical_rank,
    pseudo_inverse,
)

__all__ = [
    "SystemChannel",
    "DecouplerSet",
    "PartitionNode",
    "recursive_common_nullspace",
    "sequential_decoupler",
    "partition_tree",
    "include_users",
    "svd_decoupler",
    "pinv_decoupler",
    "verify_decoupling",
    "DecouplingReport",
]

@dataclass(frozen=True)
class SystemChannel:
    """Ordered per-user channel blocks observed at a common receiver.

    ``users[i]`` is the n_r x m_i channel of user i.  Construction
    checks decoupling feasibility: the combined streams of the other
    users must stay below the receiver dimension for every user.
    """

    n_r: int
    users: tuple[np.ndarray, ...]

    def __init__(self, n_r: int, users) -> None:
        if n_r < 1:
            raise InvalidInputError("n_r must be >= 1")
        mats = []
        for i, h in enumerate(users):
            h = as_complex_matrix(h, f"user {i} channel")
            if h.shape[0] != n_r:
                raise ShapeError(
                    f"user {i} channel has {h.shape[0]} rows, expected n_r={n_r}"
                )
            if h.shape[1] < 1:
                raise InvalidInputError(f"user {i} has no streams")
            mats.append(h)
        if not mats:
            raise InvalidInputError("at least one user is required")
        flops._check_feasible(n_r, [h.shape[1] for h in mats])
        object.__setattr__(self, "n_r", int(n_r))
        object.__setattr__(self, "users", tuple(mats))

    @property
    def k(self) -> int:
        return len(self.users)

    @property
    def m_per_user(self) -> tuple[int, ...]:
        return tuple(h.shape[1] for h in self.users)

    @property
    def m_total(self) -> int:
        return sum(self.m_per_user)

    def m_bar(self, i: int) -> int:
        """Combined stream count of everyone except user i."""
        return self.m_total - self.users[i].shape[1]

    def complement(self, i: int) -> np.ndarray:
        """Concatenation of all channels except user i's (built on demand)."""
        blocks = [h for j, h in enumerate(self.users) if j != i]
        if not blocks:
            return np.zeros((self.n_r, 0), dtype=np.complex128)
        return np.concatenate(blocks, axis=1)

    def stacked(self) -> np.ndarray:
        """The full n_r x m_total channel with users side by side."""
        return np.concatenate(self.users, axis=1)


@dataclass(frozen=True)
class DecouplerSet:
    """Per-user decoupling matrices plus provenance.

    ``w[i]`` has n_r columns; for generic channels its row count is
    ``n_r - m_bar(i)``.  ``method`` records which algorithm produced the
    set ("SD", "SVD" or "PINV") and ``row_orthonormal`` whether every
    ``w[i]`` has orthonormal rows.
    """

    w: tuple[np.ndarray, ...]
    method: str
    row_orthonormal: bool

    @property
    def k(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class PartitionNode:
    """One node of the sequential decoupler's partition tree.

    ``processed`` lists the users whose channels this node's basis
    annihilates, ``pending`` the users still waiting for their turn, and
    ``z`` the accumulated common left nullspace.
    """

    level: int
    processed: tuple[int, ...]
    pending: tuple[int, ...]
    z: SubspaceBasis


# ---------------------------------------------------------------------------
# Algorithm core.

def _annihilate(z: np.ndarray, blocks) -> np.ndarray:
    """Fold each block's left nullspace into ``z``, one block at a time.

    For every block A the loop forms T = Z @ A, extracts rows W spanning
    the left nullspace of T, and replaces Z by W @ Z.  The FLOP tally
    is charged for the projection product and the factorization of T
    (:func:`flops._node_charge` of the one block); the final W @ Z
    product only re-expresses an orthonormal basis and is excluded from
    the declared accounting convention.
    """
    tally = flops._tally.get()
    for block in blocks:
        if tally is not None:
            tally.add(flops._node_charge(z.shape[0], [block.shape[1]], tally.model,
                                         span=z.shape[1]))
        z = _nullspace_rows(z @ block) @ z
    return z


def recursive_common_nullspace(blocks, z0: SubspaceBasis) -> SubspaceBasis:
    """Common left nullspace of several blocks, restricted to a starting subspace.

    Processes the blocks sequentially: the returned basis Z satisfies
    ``Z @ A_i = 0`` for every block while its row space stays inside the
    row space of ``z0``.  An empty block list returns ``z0`` unchanged.
    The result does not depend on the block order (only on the spanned
    subspace), and equals the nullspace of the column-concatenation of
    the blocks when ``z0`` is the full space.  It is the sequential
    decoupler's per-block fold, charged the same way.
    """
    mats = [as_complex_matrix(b, f"block {i}") for i, b in enumerate(blocks)]
    n = z0.ambient_dim
    for i, b in enumerate(mats):
        if b.shape[0] != n:
            raise InvalidInputError(
                f"block {i} has {b.shape[0]} rows, expected ambient dim {n}"
            )
    if not mats:
        return z0
    return SubspaceBasis(_annihilate(z0.basis, mats), n)


# ---------------------------------------------------------------------------
# Sequential decoupler over the binary partition tree.

class _Node(NamedTuple):
    """Executed tree node, aligned with its :func:`flops._sd_plan` entry."""

    z: np.ndarray             # (t x n_r) ambient row-orthonormal basis
    local: np.ndarray         # (t x pending streams) pending blocks side by side, in this basis


def _fold_half(a: np.ndarray, widths) -> np.ndarray:
    """Rows spanning the common left nullspace of a node's annihilated half.

    ``a`` (t x M) holds the half's blocks side by side, ``widths`` their
    stream counts.  Feasibility keeps M < t: the node's processed users
    and the half leave out a kept user, so their streams sum below n_r,
    and a fold removes at most its blocks' streams from t.  If ``a`` has
    full column rank under the fold's cutoff rule (the one rank rule of
    ``kernels._rank_cutoff``), which then holds for every block too, the
    trailing columns of one complete QR span the nullspace; otherwise
    the blocks are folded one at a time.
    """
    t, width = a.shape
    q, r = np.linalg.qr(a, mode="complete")
    s = np.linalg.svd(r[:width], compute_uv=False)  # a's singular values
    if s[-1] > _rank_cutoff(s, a.shape):
        if (tally := flops._tally.get()) is not None:
            tally.add(flops._node_charge(t, widths, tally.model))
        return np.ascontiguousarray(q[:, width:].conj().T)
    blocks = np.split(a, np.cumsum(widths)[:-1], axis=1)
    return _annihilate(np.eye(t, dtype=np.complex128), blocks)


def _columns(local: np.ndarray, offsets, pending, users) -> np.ndarray:
    """``users``' blocks inside ``local``, which holds ``pending``'s blocks side by side."""
    base = offsets[pending[0]]
    return local[:, offsets[users[0]] - base:offsets[users[-1] + 1] - base]


def _sd_levels(sys: SystemChannel) -> list[list[_Node]]:
    """Execute the partition-tree plan, returning every level including the root."""
    widths = sys.m_per_user
    offsets = (0, *itertools.accumulate(widths))
    plan = flops._sd_plan(sys.k)
    levels = [[_Node(np.eye(sys.n_r, dtype=np.complex128), sys.stacked())]]
    for parent_specs, specs in zip(plan, plan[1:]):
        nxt: list[_Node] = []
        for spec in specs:
            parent, parent_spec = levels[-1][spec.parent], parent_specs[spec.parent]
            if not spec.pending:
                # dead branch for non-power-of-two K: materialized, no work
                nxt.append(_Node(parent.z, parent.local[:, :0]))
                continue
            kept = _columns(parent.local, offsets, parent_spec.pending, spec.pending)
            if not spec.annihilate:
                nxt.append(_Node(parent.z, kept))
                continue
            a = _columns(parent.local, offsets, parent_spec.pending, spec.annihilate)
            v = _fold_half(a, [widths[p] for p in spec.annihilate])
            # basis assembly and block transport: orthonormal bookkeeping;
            # the root's basis is the identity
            z_child = v @ parent.z if parent_spec.processed else v
            nxt.append(_Node(z_child, v @ kept))
        levels.append(nxt)
    return levels


def sequential_decoupler(sys: SystemChannel) -> DecouplerSet:
    """Build all users' decouplers jointly over a binary partition tree.

    At each level every node's pending users are split in half; each
    child annihilates the sibling half's channels inside the parent's
    accumulated nullspace, so no channel is ever factored at full
    receiver dimension more than once.  Each live leaf ends up holding
    one user's decoupler.  A single-user system needs no interference
    removal and gets the identity.

    The result spans, per user, the same subspace as the per-user SVD
    baseline, and every matrix has orthonormal rows.
    """
    # the halving keeps user order, so the live leaves come in user order
    leaves = zip(flops._sd_plan(sys.k)[-1], _sd_levels(sys)[-1])
    w = tuple(leaf.z for spec, leaf in leaves if spec.pending)
    return DecouplerSet(w, method="SD", row_orthonormal=True)


def partition_tree(sys: SystemChannel) -> list[list[PartitionNode]]:
    """The sequential decoupler's tree as inspectable nodes, level by level.

    Level 0 is the root (nothing processed, everyone pending, full-space
    basis).  Dead branches that arise for non-power-of-two user counts
    appear with an empty pending set and an unchanged basis.
    """
    return [
        [
            PartitionNode(
                level=level,
                processed=spec.processed,
                pending=spec.pending,
                z=SubspaceBasis(node.z, sys.n_r),
            )
            for spec, node in zip(specs, nodes)
        ]
        for level, (specs, nodes) in enumerate(zip(flops._sd_plan(sys.k), _sd_levels(sys)))
    ]


def include_users(
    sys: SystemChannel, existing: DecouplerSet, new_channels
) -> tuple[SystemChannel, DecouplerSet]:
    """Extend a decoupler set when new users join, without a full rebuild.

    Each newcomer's decoupler is derived from user 0's (fold user 0's
    own channel into its decoupler), then every existing decoupler is
    updated by folding in the newcomer's channel.  The result is
    subspace-equal to rebuilding from scratch on the augmented system.
    Feasibility of the augmented system is checked before anything is
    touched; with no new channels the inputs are returned unchanged.
    """
    if existing.k != sys.k:
        raise InvalidInputError(
            f"decoupler set has {existing.k} users, system has {sys.k}"
        )
    for i, w in enumerate(existing.w):
        if w.shape[1] != sys.n_r:
            raise ShapeError(f"decoupler {i} has {w.shape[1]} columns, expected {sys.n_r}")
    new_mats = [as_complex_matrix(h, f"new user {i} channel") for i, h in enumerate(new_channels)]
    if not new_mats:
        return sys, existing
    augmented = SystemChannel(sys.n_r, list(sys.users) + new_mats)

    w_all = list(existing.w)
    for h_new in new_mats:
        w_new = _annihilate(w_all[0], [augmented.users[0]])
        # in place: each old basis is freed as soon as it is replaced (a new
        # list keeps them all alive and measured about 17% slower at K=80)
        for j, w in enumerate(w_all):
            w_all[j] = _annihilate(w, [h_new])
        w_all.append(w_new)
    return augmented, DecouplerSet(tuple(w_all), method="SD",
                                   row_orthonormal=existing.row_orthonormal)


# ---------------------------------------------------------------------------
# Baselines.

def svd_decoupler(sys: SystemChannel) -> DecouplerSet:
    """Per-user decouplers from one factorization of each complementary channel.

    This is the correctness oracle for the tree-based construction and
    the expensive baseline of the complexity comparisons: user i's
    decoupler is the left-nullspace basis of the concatenation of all
    other users' channels.  Rows are orthonormal by construction.  Nonzero
    columns are first scaled to unit norm (uncharged): this leaves every
    nullspace unchanged and keeps a faint user above the rank cutoff.
    """
    h = sys.stacked()
    norms = np.linalg.norm(h, axis=0)
    h = h / np.where(norms > 0, norms, 1.0)
    offsets = (0, *itertools.accumulate(sys.m_per_user))
    w = []
    for i in range(sys.k):
        complement = np.concatenate((h[:, :offsets[i]], h[:, offsets[i + 1]:]), axis=1)
        w.append(left_nullspace_basis(complement).basis)
    return DecouplerSet(tuple(w), method="SVD", row_orthonormal=True)


def pinv_decoupler(sys: SystemChannel) -> DecouplerSet:
    """Zero-forcing decouplers from block rows of the channel pseudo-inverse.

    Requires the stacked channel to have full column rank (total streams
    at most n_r).  User i's block satisfies ``W_i @ H_i = I`` as well as
    the usual cross-user annihilation; rows are not orthonormal.
    """
    h = sys.stacked()
    if sys.m_total > sys.n_r or numerical_rank(h) < sys.m_total:
        raise SingularMatrixError(
            f"stacked channel is not full column rank "
            f"({sys.m_total} streams, n_r={sys.n_r})"
        )
    w_full = pseudo_inverse(h)
    w = []
    offset = 0
    for m in sys.m_per_user:
        w.append(np.ascontiguousarray(w_full[offset:offset + m]))
        offset += m
    return DecouplerSet(tuple(w), method="PINV", row_orthonormal=False)


# ---------------------------------------------------------------------------
# Verification.

@dataclass(frozen=True)
class DecouplingReport:
    """Residual interference summary for one decoupler set."""

    max_cross_residual: float
    per_user: tuple[dict, ...]

    def all_full_rank(self) -> bool:
        return all(u["full_rank"] for u in self.per_user)


def verify_decoupling(sys: SystemChannel, dec: DecouplerSet) -> DecouplingReport:
    """Measure how well ``dec`` suppresses cross-user interference.

    For each user the report records the worst relative residual
    ``norm(W_i @ H_k) / norm(H_k)`` over all other users k, and whether
    the effective own channel ``W_i @ H_i`` keeps full stream rank.
    """
    if dec.k != sys.k:
        raise ShapeError(f"decoupler set covers {dec.k} users, system has {sys.k}")
    per_user = []
    worst = 0.0
    for i, w in enumerate(dec.w):
        if w.shape[1] != sys.n_r:
            raise ShapeError(f"decoupler {i} has {w.shape[1]} columns, expected {sys.n_r}")
        cross = 0.0
        for kk, h in enumerate(sys.users):
            if kk == i:
                continue
            cross = max(cross, float(np.linalg.norm(w @ h) / np.linalg.norm(h)))
        m_i = sys.users[i].shape[1]
        eff_rank = numerical_rank(w @ sys.users[i])
        per_user.append(
            {
                "user": i,
                "rows": w.shape[0],
                "cross_residual": cross,
                "effective_rank": eff_rank,
                "streams": m_i,
                "full_rank": eff_rank == m_i,
            }
        )
        worst = max(worst, cross)
    return DecouplingReport(max_cross_residual=worst, per_user=tuple(per_user))
