"""Interference-removing decouplers for the multi-user MIMO uplink.

A decoupler for user i is a matrix ``W_i`` whose rows span the common
left nullspace of every other user's channel, so that ``W_i @ y`` is
free of inter-user interference.  Three constructions are provided:

* :func:`svd_decoupler` factors each user's complementary channel
  directly (the straightforward baseline, one large SVD per user);
* :func:`sequential_decoupler` builds all decouplers at once over a
  binary partition tree, reusing intermediate common-nullspace
  estimates so that later stages work in ever smaller subspaces; each
  tree level runs as stacked factorizations, one per equal-shape group
  (of one system, or of a BER sweep's block of systems), whose full rank
  a shifted Cholesky of R's Gram certifies (the singular values of R
  decide only when the certificate fails);
* :func:`pinv_decoupler` takes block rows of the channel pseudo-inverse
  (which also equalizes each user's own channel to the identity), built
  from one thin QR of the column-scaled channel: R is the Cholesky factor
  of the Gram matrix the FLOP model prices, and its diagonal decides the
  rank.

:func:`include_users` updates a row-orthonormal (SD or SVD) decoupler
set when new users join, folding all newcomers into every decoupler with
the same stacked factorizations, and :func:`verify_decoupling` checks the
residual interference of any decoupler set.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import flops
from .errors import InvalidInputError, ShapeError, SingularMatrixError
from .kernels import (
    SubspaceBasis,
    _certified_full_rank,
    _full_rank_r,
    _nullspace_rows,
    _rank_cutoff,
    as_complex_matrix,
    numerical_rank,
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

@dataclass(frozen=True, eq=False)
class SystemChannel:
    """Ordered per-user channel blocks observed at a common receiver.

    ``users[i]`` is the n_r x m_i channel of user i.  Construction
    checks decoupling feasibility: the combined streams of the other
    users must stay below the receiver dimension for every user.
    Systems compare by identity.
    """

    n_r: int
    users: tuple[np.ndarray, ...]

    def __init__(self, n_r: int, users) -> None:
        if n_r < 1:
            raise InvalidInputError("n_r must be >= 1")
        self._init(int(n_r), (), users)

    def _init(self, n_r: int, checked: tuple[np.ndarray, ...], users) -> None:
        """Take the ``checked`` users as they are, then check and append ``users``."""
        mats = list(checked)
        for i, h in enumerate(users, len(mats)):
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
        object.__setattr__(self, "n_r", n_r)
        object.__setattr__(self, "users", tuple(mats))

    def _extended(self, new_channels) -> "SystemChannel":
        """This system with ``new_channels`` as users k, k+1, ...; only they are checked."""
        augmented = object.__new__(SystemChannel)
        augmented._init(self.n_r, self.users, new_channels)
        return augmented

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

    def stacked(self) -> np.ndarray:
        """The full n_r x m_total channel with users side by side."""
        return np.concatenate(self.users, axis=1)


@dataclass(frozen=True, eq=False)
class DecouplerSet:
    """Per-user decoupling matrices plus provenance.

    ``w[i]`` has n_r columns; for generic channels its row count is
    ``n_r - m_bar(i)``.  ``method`` records which algorithm produced the
    set ("SD", "SVD" or "PINV").  Sets compare by identity.
    """

    w: tuple[np.ndarray, ...]
    method: str

    @property
    def row_orthonormal(self) -> bool:
        """Whether every ``w[i]`` has orthonormal rows (all but PINV sets)."""
        return self.method != "PINV"

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
        z = _nullspace_rows((z @ block)[None])[0] @ z
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
    return SubspaceBasis(_annihilate(z0.basis, mats))


# ---------------------------------------------------------------------------
# Sequential decoupler over the binary partition tree.

class _Group(NamedTuple):
    """Nodes of one tree level that share a shape, stacked on a leading axis."""

    nodes: tuple[int, ...]    # their keys in stack order (see _sd_levels and include_users)
    z: np.ndarray | None      # (B x t x n_r) ambient row-orthonormal bases; None: the identity
    local: np.ndarray         # (B x t x pending streams) pending blocks side by side, in z


def _apply(v: np.ndarray, parts) -> np.ndarray:
    """``v @ x`` for ``x`` the stacks ``parts`` end to end, without joining them."""
    out = np.empty((len(v), v.shape[1], parts[0].shape[2]), dtype=np.complex128)
    for x, hi in zip(parts, itertools.accumulate(len(x) for x in parts)):
        np.matmul(v[hi - len(x):hi], x, out=out[hi - len(x):hi])
    return out


def _fold_group(halves, widths) -> list[_Group]:
    """Fold the halves a (t x M, blocks of ``widths`` streams) of ``(children,
    z, a, kept)`` stacks by one stacked complete QR.

    Feasibility keeps M < t.  A half of full column rank under the one rank
    rule (``kernels._rank_cutoff``), which then holds for each block too,
    has its nullspace in the trailing Q columns; stacked products carry z
    and kept into the children.  A certificate, one stacked shifted Cholesky
    of R's Gram (``kernels._certified_full_rank``), proves every half full;
    only when it fails does one stacked SVD of R give the rule every half's
    singular values, so the decision is the rule's either way.  A node whose
    half loses rank leaves the stack and takes the block-by-block fold
    (:func:`_annihilate`) alone.
    Each node is charged as an SD tree node; :func:`include_users` runs its
    folds (zero-width kept) in a nested tally it discards and charges itself.
    """
    nodes, zs, a, kepts = zip(*halves)
    nodes, a = sum(nodes, ()), np.concatenate(a)
    t, width = a.shape[1:]
    q, r = np.linalg.qr(a, mode="complete")
    r = r[:, :width]
    if _certified_full_rank(r):
        full = np.ones(len(a), dtype=bool)
    else:
        s = np.linalg.svd(r, compute_uv=False)
        full = s[:, -1] > _rank_cutoff(s, (t, width))
    if (tally := flops._tally.get()) is not None:
        tally.add(int(full.sum()) * flops._node_charge(t, widths, tally.model))
    v = np.conj(q[..., width:].swapaxes(1, 2), order="C")
    # orthonormal bookkeeping, uncharged; the root's basis is the identity
    z, kept = v if zs[0] is None else _apply(v, zs), _apply(v, kepts)
    if full.all():
        return [_Group(nodes, z, kept)]
    zs, kepts = None if zs[0] is None else np.concatenate(zs), np.concatenate(kepts)
    out = [_Group(tuple(n for n, ok in zip(nodes, full) if ok), z[full], kept[full])]
    for b in np.flatnonzero(~full):
        vb = _annihilate(np.eye(t, dtype=np.complex128),
                         np.split(a[b], np.cumsum(widths)[:-1], axis=1))
        out.append(_Group((nodes[b],), (vb if zs is None else vb @ zs[b])[None],
                          (vb @ kepts[b])[None]))
    return out


def _sd_levels(local: np.ndarray, widths) -> Iterator[list[np.ndarray]]:
    """Execute the partition-tree plan over a (B x n_r x sum(widths)) stack of
    B systems' user channels side by side, yielding each level's node bases,
    system by system in plan order.  Stack entries are keyed by (system b,
    plan node i) as ``b * L + i`` for a level of L nodes, so that child
    ``2 * key + side`` is node ``2i + side`` of system b on the next level.
    The plan splits all nodes of a group alike (child 2i keeps the first
    half, child 2i+1 the second), so children's blocks are column slices of
    its stacks; halves of equal (t, widths) fold as one stack, whichever
    system they belong to."""
    n = len(local)
    eye = np.eye(local.shape[1], dtype=np.complex128)
    yield [eye] * n
    groups = [_Group(tuple(range(n)), None, local)]
    for specs in flops._sd_plan(len(widths))[1:]:
        halves, nxt = {}, []  # halves by (t, widths); the next level's groups
        for nodes, z, local in groups:
            first = 2 * nodes[0] % len(specs)
            split = sum(widths[p] for p in specs[first].pending)
            cols = local[..., :split], local[..., split:]
            for side in (0, 1):
                spec, children = specs[first + side], tuple(2 * i + side for i in nodes)
                if spec.annihilate:
                    key = (local.shape[1], *(tuple(widths[p] for p in users)
                                             for users in (spec.annihilate, spec.pending)))
                    halves.setdefault(key, []).append((children, z, cols[1 - side], cols[side]))
                else:  # nothing to fold, or a dead branch (non-power-of-two K): no work
                    nxt.append(_Group(children, z, cols[side]))
        for (_, folded, _), parts in halves.items():
            nxt += _fold_group(parts, folded)
        groups = [group for group in nxt if group.nodes]
        bases = {i: z_i for nodes, z, _ in groups for i, z_i in zip(nodes, z)}
        yield [bases[i] for i in range(n * len(specs))]


def _sd_sets(local: np.ndarray, widths) -> list[DecouplerSet]:
    """:func:`sequential_decoupler` of every system of a :func:`_sd_levels`
    stack, from one stacked walk; each set equals the system's own build bit
    for bit."""
    for bases in _sd_levels(local, widths):
        pass  # earlier levels are freed as the executor moves on
    # the halving keeps user order, so the live leaves come in user order
    leaves = flops._sd_plan(len(widths))[-1]
    live = [i for i, spec in enumerate(leaves) if spec.pending]
    return [DecouplerSet(tuple(bases[b * len(leaves) + i] for i in live), "SD")
            for b in range(len(local))]


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
    return _sd_sets(sys.stacked()[None], sys.m_per_user)[0]


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
                z=SubspaceBasis(z),
            )
            for spec, z in zip(specs, bases)
        ]
        for level, (specs, bases) in enumerate(zip(
            flops._sd_plan(sys.k),
            _sd_levels(sys.stacked()[None], sys.m_per_user)))
    ]


def include_users(
    sys: SystemChannel, existing: DecouplerSet, new_channels
) -> tuple[SystemChannel, DecouplerSet]:
    """Extend a decoupler set when new users join, without a full rebuild.

    Every existing decoupler folds all newcomers' channels out at once,
    and newcomer p's decoupler is user 0's with user 0's own channel and
    every other newcomer's folded out.  The result is subspace-equal to
    rebuilding from scratch on the augmented system.  Existing decouplers
    of equal row count share one stacked projection product, and folds of
    equal (rows, stream widths) share one stacked complete QR
    (:func:`_fold_group`).
    The FLOP tally is the paper's one-newcomer-at-a-time convention
    (``flops._sd_ui_breakdown``) at the existing decouplers' row counts.
    Feasibility of the augmented system is checked before anything is
    touched; with no new channels the inputs are returned unchanged.
    ``existing`` must have orthonormal rows: a zero-forcing (PINV) set has
    ``W_0 @ H_0 = I``, so folding ``H_0`` out of ``W_0`` leaves no rows.
    """
    if not existing.row_orthonormal:
        raise InvalidInputError(f"cannot extend a {existing.method} set: rows not orthonormal")
    if existing.k != sys.k:
        raise InvalidInputError(
            f"decoupler set has {existing.k} users, system has {sys.k}"
        )
    for i, w in enumerate(existing.w):
        if w.shape[1] != sys.n_r:
            raise ShapeError(f"decoupler {i} has {w.shape[1]} columns, expected {sys.n_r}")
    augmented = sys._extended(new_channels)
    k, widths, h_0 = sys.k, augmented.m_per_user[sys.k:], sys.users[0]
    if not widths:
        return sys, existing
    if (tally := flops._tally.get()) is not None:
        tally.add(sum(flops._sd_ui_breakdown(sys.n_r, [w.shape[0] for w in existing.w],
                                             h_0.shape[1], widths, tally.model)))
    h_new = np.concatenate(augmented.users[k:], axis=1)
    by_rows = {}  # existing users by row count
    for j, w_j in enumerate(existing.w):
        by_rows.setdefault(w_j.shape[0], []).append(j)
    halves = {}  # (rows, widths) -> (members, z, a, kept) stacks for _fold_group
    for rows, run in by_rows.items():
        # one concatenation and one product per group; a batched product is slower
        w_run = np.concatenate([existing.w[j] for j in run])
        z, a = (x.reshape(len(run), rows, -1) for x in (w_run, w_run @ h_new))
        halves[rows, widths] = [(tuple(run), z, a, a[..., :0])]
    # newcomer p: W_0 with [H_0, H_new_q for q != p] folded out
    w_0 = existing.w[0]
    a_0 = w_0 @ np.concatenate((h_0, h_new), axis=1)
    ends = tuple(itertools.accumulate(widths, initial=h_0.shape[1]))
    newcomers = {}  # (rows, widths) -> [(member, a)]
    for p, (lo, hi) in enumerate(zip(ends, ends[1:])):
        key = (len(a_0), (h_0.shape[1], *widths[:p], *widths[p + 1:]))
        newcomers.setdefault(key, []).append((k + p, np.delete(a_0, slice(lo, hi), axis=1)))
    for key, members in newcomers.items():
        a = np.stack([a_p for _, a_p in members])
        z = np.broadcast_to(w_0, (len(members), *w_0.shape))
        halves.setdefault(key, []).append((tuple(i for i, _ in members), z, a, a[..., :0]))
    w = [None] * augmented.k
    # a nested tally discards SD's per-node charges; with no tally open, none are made
    with flops.counting() if tally is not None else contextlib.nullcontext():
        for (_, folded), parts in halves.items():
            for members, z, _ in _fold_group(parts, folded):
                for i, z_i in zip(members, z):
                    w[i] = z_i
    return augmented, DecouplerSet(tuple(w), existing.method)


# ---------------------------------------------------------------------------
# Baselines.

def _unit_columns(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stack ``h`` of channels with their nonzero columns scaled to unit norm, and
    the column norms.  An overflowing norm raises ``FloatingPointError`` (it
    would zero its column)."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(h, axis=-2)
    if not np.isfinite(norms).all():
        raise FloatingPointError("a channel column norm is past the float range")
    return h / np.where(norms > 0, norms, 1.0)[:, None], norms


def _svd_sets(h: np.ndarray, widths) -> list[DecouplerSet]:
    """:func:`svd_decoupler` of every system of a (B x n_r x sum(widths)) stack,
    one stacked SVD per user; each set equals the system's own build bit for bit."""
    h = _unit_columns(h)[0]
    tally = flops._tally.get()
    w = []
    for lo, hi in itertools.pairwise((0, *itertools.accumulate(widths))):
        complement = np.concatenate((h[..., :lo], h[..., hi:]), axis=-1)
        if tally is not None:
            tally.add(len(h) * tally.model.svd_full(*complement.shape[1:]))
        w.append(_nullspace_rows(complement))
    return [DecouplerSet(w_b, "SVD") for w_b in zip(*w)]


def _pinv_sets(h: np.ndarray, widths) -> list[DecouplerSet]:
    """:func:`pinv_decoupler` of every system of a (B x n_r x sum(widths)) stack,
    from one stacked QR and solve; each set equals the system's own build bit for
    bit, and one rank-deficient system raises ``SingularMatrixError``."""
    n_r, m_total = h.shape[1:]
    h, norms = _unit_columns(h)
    full_rank = m_total <= n_r and bool(norms.all())
    if full_rank:
        q, r = np.linalg.qr(h)
        full_rank = bool(_full_rank_r(r, (n_r, m_total)).all())
    if not full_rank:
        raise SingularMatrixError(
            f"stacked channel is not full column rank ({m_total} streams, n_r={n_r})")
    if (tally := flops._tally.get()) is not None:
        tally.add(len(h) * sum(c for _, c in flops._pinv_breakdown(n_r, m_total, tally.model)))
    w_full = np.linalg.solve(r, np.conj(q.swapaxes(1, 2))) / norms[..., None]
    users = [slice(lo, hi) for lo, hi in itertools.pairwise((0, *itertools.accumulate(widths)))]
    return [DecouplerSet(tuple(w_b[u] for u in users), "PINV") for w_b in w_full]


def svd_decoupler(sys: SystemChannel) -> DecouplerSet:
    """Per-user decouplers from one factorization of each complementary channel.

    This is the correctness oracle for the tree-based construction and
    the expensive baseline of the complexity comparisons: user i's
    decoupler is the left-nullspace basis of the concatenation of all
    other users' channels, charged as one full SVD.
    Rows are orthonormal by construction and are not re-checked.  Nonzero
    columns are first scaled to unit norm (uncharged): this leaves every
    nullspace unchanged and keeps a faint user above the rank cutoff.  A
    column norm past the float range raises ``FloatingPointError``.
    """
    return _svd_sets(sys.stacked()[None], sys.m_per_user)[0]


def pinv_decoupler(sys: SystemChannel) -> DecouplerSet:
    """Zero-forcing decouplers from block rows of the channel pseudo-inverse.

    Requires the stacked channel to have full column rank (total streams
    at most n_r, no zero column).  User i's block satisfies
    ``W_i @ H_i = I`` as well as the usual cross-user annihilation; rows
    are not orthonormal.  The columns are scaled to unit norm and factored
    by one thin QR; ``R^H R`` is the scaled Gram matrix that the FLOP model
    prices, so R is its Cholesky factor up to row phases, found without
    forming it (which would square the condition number).  The rank
    decision is ``kernels._full_rank_r``, the one rule on R's diagonal
    (the Cholesky pivots) that SIC applies too; the inverse is
    ``solve(R, Q^H)`` with the column scaling undone on its rows.  A
    column norm past the float range raises ``FloatingPointError``.
    """
    return _pinv_sets(sys.stacked()[None], sys.m_per_user)[0]


# ---------------------------------------------------------------------------
# Verification.

@dataclass(frozen=True)
class DecouplingReport:
    """Residual interference summary for one decoupler set."""

    per_user: tuple[dict, ...]

    @property
    def max_cross_residual(self) -> float:
        """The worst per-user ``cross_residual``."""
        return max(u["cross_residual"] for u in self.per_user)

    @property
    def max_scale_free_residual(self) -> float:
        """The worst per-user ``scale_free_residual``."""
        return max(u["scale_free_residual"] for u in self.per_user)

    def all_full_rank(self) -> bool:
        return all(u["full_rank"] for u in self.per_user)


def verify_decoupling(sys: SystemChannel, dec: DecouplerSet) -> DecouplingReport:
    """Measure how well ``dec`` suppresses cross-user interference.

    For each user the report records the worst relative residual
    ``norm(W_i @ H_k) / norm(H_k)`` over all other users k, the same
    residual made scale-free, ``norm(W_i @ H_k) / (norm(W_i, 2) *
    norm(H_k))`` (a zero-forcing W_i grows as its user's channel fades,
    and the raw residual with it), and whether the effective own channel
    ``W_i @ H_i`` keeps full stream rank.  A decoupler, channel or residual
    norm past the float range raises ``FloatingPointError``.
    """
    if dec.k != sys.k:
        raise ShapeError(f"decoupler set covers {dec.k} users, system has {sys.k}")
    per_user = []
    with np.errstate(over="ignore"):
        h_norms = [np.linalg.norm(h) for h in sys.users]
    for i, w in enumerate(dec.w):
        if w.shape[1] != sys.n_r:
            raise ShapeError(f"decoupler {i} has {w.shape[1]} columns, expected {sys.n_r}")
        w_norm = np.linalg.norm(w, 2)
        cross = scale_free = 0.0
        for kk, (h, h_norm) in enumerate(zip(sys.users, h_norms)):
            if kk == i:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                residual = np.linalg.norm(w @ h)
            if not np.isfinite((w_norm, h_norm, residual)).all():
                raise FloatingPointError(f"norm past the float range: decoupler {i}, user {kk}")
            if residual:  # else nothing leaks, and a zero H_k or W_i has no scale
                cross = max(cross, float(residual / h_norm))
                scale_free = max(scale_free, float(residual / (w_norm * h_norm)))
        m_i = sys.users[i].shape[1]
        eff_rank = numerical_rank(w @ sys.users[i])
        per_user.append(
            {
                "user": i,
                "rows": w.shape[0],
                "cross_residual": cross,
                "scale_free_residual": scale_free,
                "effective_rank": eff_rank,
                "streams": m_i,
                "full_rank": eff_rank == m_i,
            }
        )
    return DecouplingReport(tuple(per_user))
