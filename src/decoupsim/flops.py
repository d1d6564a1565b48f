"""Real-FLOP cost model, per-block instrumentation and closed-form estimates.

Complex arithmetic is counted as fixed bundles of real floating-point
operations (one complex multiply = 6 real FLOPs, one complex add = 2,
one complex divide = 11 by default).  Factorization costs are standard
dense-matrix operation counts scaled by 4 for complex arithmetic, with
configurable leading constants since published counts vary by algorithm
variant.

Accounting convention
---------------------
Inside a :func:`counting` block, each charge site adds its model cost at
the dimensions actually used to the block's own tally.  The charge sites
are the decouplers: ``_annihilate``, ``_fold_group`` and
``include_users`` for the sequential family's recursion below,
``_svd_sets`` (a full SVD per user, though it executes a complete QR and a
rank certificate wherever the certificate holds) and ``_pinv_sets`` (the
pseudo-inverse, priced by the estimate's :func:`_pinv_breakdown`), each
of which charges every system of the stack it builds as that system's
own build.  No kernel is charged, and outside every block nothing is
counted.  A total past the float range raises ``FloatingPointError``.
For the sequential decoupler family the charged work is the recursion's own
arithmetic: the projection products ``T = Z @ A`` and the nullspace
factorizations of the small projected blocks, at the subspace dimensions
where they execute.  Re-expressing orthonormal bases (products of
orthonormal factors, and carrying pending channel blocks into a child
node's coordinates) is bookkeeping on known-orthonormal data and is
excluded from the tally.  The sequential decoupler executes a tree
level's annihilated halves as one stacked complete QR per group of
equal-shape nodes, yet each node is charged as the paper's per-block
recursion (:func:`_node_charge`, shared with the closed-form estimate),
as is ``recursive_common_nullspace``.  Execution, ``partition_tree`` and
the estimate read one shape-only plan of the tree (:func:`_sd_plan`).
``include_users`` folds all newcomers in one batch of such stacks, yet
is charged one newcomer at a time (:func:`_sd_ui_breakdown`, shared with
the ``SD_UI`` estimate).  ``pinv_decoupler`` executes a thin QR whose R
is the Cholesky factor of the Gram matrix it is priced by.  The same
convention is applied to every algorithm being compared, so reported
ratios are internally consistent; the convention is recorded in every
output manifest.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import InfeasibleSystemError, InvalidInputError, _require_numbers

__all__ = [
    "CostModel",
    "FlopReport",
    "estimate_flops",
    "counting",
]


@dataclass(frozen=True)
class CostModel:
    """Per-operation real-FLOP prices.

    ``add``/``mul`` price one complex addition and multiplication, and
    ``svd_scale``/``inv_scale`` lead the closed-form polynomials below.
    ``div`` prices no operation; it stays a config key because existing
    configs set it.
    """

    add: float = 2.0
    mul: float = 6.0
    div: float = 11.0
    svd_scale: float = 4.0   # complex scaling of the real bidiagonal-SVD counts
    inv_scale: float = 8.0   # complex Gauss-Jordan: n^3 multiplies + n^3 adds

    def __post_init__(self) -> None:
        _require_numbers(self)
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise InvalidInputError(f"cost model field {f.name!r} must be >= 0")

    def matmul(self, m: int, n: int, p: int) -> float:
        """Cost of an (m x n) @ (n x p) complex product."""
        if min(m, n, p) <= 0:
            return 0.0
        return m * p * (n * self.mul + (n - 1) * self.add)

    def svd_full(self, m: int, n: int) -> float:
        """Full SVD of an m x n matrix with all singular vectors."""
        if min(m, n) <= 0:
            return 0.0
        return self.svd_scale * (4 * m * m * n + 8 * m * n * n + 9 * n ** 3)

    def svd_values(self, m: int, n: int) -> float:
        """Bidiagonalization-phase SVD cost (singular values plus the short side)."""
        if min(m, n) <= 0:
            return 0.0
        return self.svd_scale * (4 * m * n * n + 8 * n ** 3)

    def inverse(self, n: int) -> float:
        """Dense inverse of an n x n matrix."""
        if n <= 0:
            return 0.0
        return self.inv_scale * n ** 3


@dataclass(frozen=True)
class FlopReport:
    """Tally for one algorithm on one system: a per-phase breakdown and its ``total``."""

    algorithm: str
    n_r: int
    m_per_user: tuple[int, ...]
    breakdown: tuple[tuple[str, int], ...]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.breakdown)


# ---------------------------------------------------------------------------
# Instrumentation: one tally per ``counting()`` block, held in a context
# variable.  Charge sites read it once and price with the tally's model.

@dataclass(slots=True)
class _Tally:
    """Running FLOP sum of one ``counting()`` block, priced by ``model``."""

    model: CostModel
    flops: float = 0.0
    total: int = 0

    def add(self, flops: float) -> None:
        self.flops += flops


_tally: ContextVar[_Tally | None] = ContextVar("decoupsim_flop_tally", default=None)


@contextmanager
def counting(model: CostModel | None = None):
    """Count the FLOPs of the decoupler work run inside the block, priced by ``model``.

    Yields a tally whose ``total`` (an int) is set when the block exits
    normally; a total past the float range raises ``FloatingPointError``
    there.  An exception raised inside the block propagates as it is.

    >>> with counting() as tally:
    ...     sequential_decoupler(sys)
    >>> tally.total

    A tally counts work done in the thread (context) that opened it; a
    worker thread or an empty context starts with none, and the BER sweep
    runs its trials in one or the other, so no sweep is counted at any
    thread count.  A nested block counts only its own work and leaves the
    enclosing tally as it was.  Outside every block nothing is counted.
    """
    tally = _Tally(model or CostModel())
    token = _tally.set(tally)
    try:
        yield tally
    finally:
        _tally.reset(token)
    tally.total = _rounded(tally.flops)


def _rounded(flops: float) -> int:
    """A FLOP total as an int; a total past the float range raises ``FloatingPointError``."""
    if not math.isfinite(flops):
        raise FloatingPointError(f"a FLOP total is past the float range ({flops})")
    return int(round(flops))


# ---------------------------------------------------------------------------
# Closed-form estimates.

def _normalize_users(k: int | None, m_per_user) -> tuple[int, ...]:
    if m_per_user is None:
        raise InvalidInputError("m_per_user is required")
    if isinstance(m_per_user, int):
        if k is None:
            raise InvalidInputError("k is required when m_per_user is a scalar")
        m_list = (m_per_user,) * k
    else:
        m_list = tuple(int(m) for m in m_per_user)
    if not m_list or any(m < 1 for m in m_list):
        raise InvalidInputError("every user needs at least one stream")
    return m_list


def _check_feasible(n_r: int, m_list) -> None:
    """The one feasibility rule: every user's complement stays below n_r."""
    total = sum(m_list)
    for i, m in enumerate(m_list):
        if total - m >= n_r:
            raise InfeasibleSystemError(
                f"user {i} cannot be decoupled: other users carry "
                f"{total - m} streams but n_r={n_r}"
            )


def _check_total_streams(n_r: int, m_total: int, who: str) -> None:
    """The extra rule of the pseudo-inverse and of SIC: total streams may not
    exceed n_r."""
    if m_total > n_r:
        raise InfeasibleSystemError(f"{who} needs total streams {m_total} <= n_r={n_r}")


_PlanNode = namedtuple("_PlanNode", "processed pending annihilate")


@lru_cache
def _sd_plan(k: int) -> tuple[tuple[_PlanNode, ...], ...]:
    """The sequential decoupler's binary partition tree for K users, level by level.

    A node is ``(processed, pending, annihilate)``: the users its basis
    annihilates, the users still pending, and the users it folds in
    (none: it keeps its parent's basis).  Pending users split in half,
    the first half taking the extra user; child 2i keeps the first half
    and annihilates the second, child 2i+1 the reverse, so node i's
    parent is node i // 2 of the previous level.  A child with nothing to
    keep is a dead branch (non-power-of-two K).  Levels are added until
    no node holds more than one pending user.
    """
    levels = [(_PlanNode((), tuple(range(k)), ()),)]
    while any(len(node.pending) > 1 for node in levels[-1]):
        nxt = []
        for node in levels[-1]:
            half = (len(node.pending) + 1) // 2
            first, second = node.pending[:half], node.pending[half:]
            for keep, other in ((first, second), (second, first)):
                annihilate = other if keep else ()
                nxt.append(_PlanNode(node.processed + annihilate, keep, annihilate))
        levels.append(tuple(nxt))
    return tuple(levels)


def _node_charge(entry_dim: int, m_annihilated, model: CostModel,
                 span: int | None = None) -> float:
    """Per-block charge of one node update: block j is projected through a
    ``t_j x span`` basis and factored at ``t_j = entry_dim - sum(m_<j)``
    rows.  ``span`` is the basis's column count (default ``entry_dim``)."""
    span = entry_dim if span is None else span
    cost = 0.0
    t = entry_dim
    for m in m_annihilated:
        cost += model.matmul(t, span, m) + model.svd_values(t, m)
        t -= m
    return cost


def _sd_breakdown(n_r: int, m_list: tuple[int, ...], model: CostModel):
    """Charged recursion arithmetic per plan level, at generic dimensions."""
    plan = _sd_plan(len(m_list))
    return [
        sum(_node_charge(n_r - sum(m_list[p] for p in parents[i // 2].processed),
                         [m_list[p] for p in node.annihilate], model)
            for i, node in enumerate(nodes))
        for parents, nodes in zip(plan, plan[1:])
    ]


def _sd_ui_breakdown(n_r: int, rows, m_0: int, added: tuple[int, ...], model: CostModel):
    """Per-inclusion cost of updating a decoupler set whose bases have
    ``rows`` rows, user 0 carrying ``m_0`` streams.  Newcomers are priced
    one at a time: each is derived from user 0's current decoupler (fold
    user 0's own channel out), then every current decoupler folds the
    newcomer's channel; a fold removes as many rows as the block has streams."""
    per_inclusion: list[float] = []
    rows = list(rows)
    for m_new in added:
        cost = _node_charge(rows[0], [m_0], model, span=n_r)
        for t in rows:
            cost += _node_charge(t, [m_new], model, span=n_r)
        per_inclusion.append(cost)
        rows = [t - m_new for t in rows] + [rows[0] - m_0]
    return per_inclusion


def _pinv_breakdown(n_r: int, m_total: int, model: CostModel):
    """The pseudo-inverse of an n_r x m_total channel via the normal equations."""
    return (("gram matrix", model.matmul(m_total, n_r, m_total)),
            ("inverse", model.inverse(m_total)),
            ("apply adjoint", model.matmul(m_total, m_total, n_r)))


def estimate_flops(algorithm: str, n_r: int, m_per_user, k: int | None = None,
                   added=None, model: CostModel | None = None) -> FlopReport:
    """Closed-form FLOP tally for one decoupler algorithm.

    ``algorithm`` is one of ``"SD"``, ``"SVD"``, ``"PINV"``, ``"SD_UI"``.
    ``m_per_user`` may be a scalar (with ``k``) or a per-user sequence.
    ``added`` lists the stream counts of newly included users (``SD_UI``
    only); the report then covers the incremental update, starting from a
    decoupler set for the base system.
    """
    model = model or CostModel()
    m_list = _normalize_users(k, m_per_user)
    algorithm = algorithm.upper()
    total_m = sum(m_list)

    if algorithm == "SD_UI":
        added = _normalize_users(None, tuple(added or ()))
        _check_feasible(n_r, m_list + added)
        per_inc = _sd_ui_breakdown(n_r, [n_r - (total_m - m) for m in m_list], m_list[0],
                                   added, model)
        breakdown = tuple(
            (f"inclusion {i + 1}", _rounded(c)) for i, c in enumerate(per_inc)
        )
        return FlopReport("SD_UI", n_r, m_list + added, breakdown)

    if added:
        raise InvalidInputError("added users only apply to the SD_UI algorithm")
    _check_feasible(n_r, m_list)

    if algorithm == "SD":
        per_level = _sd_breakdown(n_r, m_list, model)
        breakdown = tuple(
            (f"level {l + 1}", _rounded(c)) for l, c in enumerate(per_level)
        )
    elif algorithm == "SVD":
        breakdown = tuple(
            (f"user {i}", _rounded(model.svd_full(n_r, total_m - m)))
            for i, m in enumerate(m_list)
        )
    elif algorithm == "PINV":
        _check_total_streams(n_r, total_m, "pseudo-inverse decoupler")
        breakdown = tuple((name, _rounded(c))
                          for name, c in _pinv_breakdown(n_r, total_m, model))
    else:
        raise InvalidInputError(f"unknown algorithm {algorithm!r}")

    return FlopReport(algorithm, n_r, m_list, breakdown)
