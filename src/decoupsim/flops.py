"""Real-FLOP cost model, per-block instrumentation and closed-form estimates.

Complex arithmetic is counted as fixed bundles of real floating-point
operations (one complex multiply = 6 real FLOPs, one complex add = 2,
one complex divide = 11 by default).  Factorization costs are standard
dense-matrix operation counts scaled by 4 for complex arithmetic, with
configurable leading constants since published counts vary by algorithm
variant.

Accounting convention
---------------------
Inside a :func:`counting` block, every matrix-kernel primitive (matrix
product, QR, SVD-based nullspace extraction, pseudo-inverse) is charged
to the block's own tally with its model cost at the dimensions actually
used; outside every block nothing is counted.  For the sequential
decoupler family the charged work is the recursion's own arithmetic: the
projection products ``T = Z @ A`` and the nullspace factorizations of
the small projected blocks, at the subspace dimensions where they
execute.  Re-expressing already-orthonormal bases (products of
orthonormal factors, and carrying pending channel blocks into a child
node's coordinates) is bookkeeping on known-orthonormal data and is
excluded from the tally.  The sequential decoupler executes each tree
node's annihilated half as one complete QR, yet is charged as the
paper's per-block recursion (:func:`_node_charge`, shared with the
closed-form estimate), and so is ``recursive_common_nullspace``.
Execution, ``partition_tree`` and the estimate read one shape-only plan
of the tree (:func:`_sd_plan`).  The same convention is applied to every
algorithm being compared, so reported ratios are internally consistent;
the convention is recorded in every output manifest.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import InfeasibleSystemError, InvalidInputError

__all__ = [
    "CostModel",
    "FlopReport",
    "count_matmul",
    "estimate_flops",
    "counting",
]


@dataclass(frozen=True)
class CostModel:
    """Per-operation real-FLOP prices.

    ``add``/``mul``/``div`` price one complex addition, multiplication and
    division.  ``qr_scale``, ``svd_scale`` and ``inv_scale`` are leading
    constants on the closed-form polynomials below.
    """

    add: float = 2.0
    mul: float = 6.0
    div: float = 11.0
    qr_scale: float = 16.0   # complex Householder thin QR with explicit Q
    svd_scale: float = 4.0   # complex scaling of the real bidiagonal-SVD counts
    inv_scale: float = 8.0   # complex Gauss-Jordan: n^3 multiplies + n^3 adds

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise InvalidInputError(f"cost model field {f.name!r} must be >= 0")

    def matmul(self, m: int, n: int, p: int) -> float:
        """Cost of an (m x n) @ (n x p) complex product."""
        if min(m, n, p) <= 0:
            return 0.0
        return m * p * (n * self.mul + (n - 1) * self.add)

    def qr(self, m: int, n: int) -> float:
        """Thin QR of an m x n matrix (m >= n), Q materialized."""
        if min(m, n) <= 0:
            return 0.0
        return self.qr_scale * n * n * (m - n / 3.0)

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

    def pinv(self, m: int, n: int) -> float:
        """Pseudo-inverse of an m x n matrix via the normal equations."""
        if min(m, n) <= 0:
            return 0.0
        return self.matmul(n, m, n) + self.inverse(n) + self.matmul(n, n, m)


@dataclass(frozen=True)
class FlopReport:
    """Tally for one algorithm on one system, with a per-phase breakdown."""

    algorithm: str
    n_r: int
    m_per_user: tuple[int, ...]
    total: int
    breakdown: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.total != sum(c for _, c in self.breakdown):
            raise InvalidInputError("report total does not equal the sum of its breakdown")


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
    """Count the FLOPs of the kernels run inside the block, priced by ``model``.

    Yields a tally whose ``total`` (an int) is set when the block exits.

    >>> with counting() as tally:
    ...     some_instrumented_work()
    >>> tally.total

    A tally counts work done in the thread (context) that opened it; a
    worker thread starts with no tally, so the BER sweep's thread pool is
    never counted.  A nested block counts only its own work and leaves the
    enclosing tally as it was.  Outside every block nothing is counted.
    """
    tally = _Tally(model or CostModel())
    token = _tally.set(tally)
    try:
        yield tally
    finally:
        _tally.reset(token)
        tally.total = int(round(tally.flops))


# ---------------------------------------------------------------------------
# Closed-form estimates.

def count_matmul(m: int, n: int, p: int, model: CostModel | None = None) -> int:
    """Closed-form cost of an (m x n) @ (n x p) complex product."""
    model = model or CostModel()
    return int(round(model.matmul(m, n, p)))


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


_PlanNode = namedtuple("_PlanNode", "parent processed pending annihilate")


@lru_cache
def _sd_plan(k: int) -> tuple[tuple[_PlanNode, ...], ...]:
    """The sequential decoupler's binary partition tree for K users, level by level.

    A node is ``(parent, processed, pending, annihilate)``: its parent's
    index in the previous level (-1 at the root), the users its basis
    annihilates, the users still pending, and the users it folds in
    (none: it keeps its parent's basis).  Pending users split in half,
    the first half taking the extra user; child 2i keeps the first half
    and annihilates the second, child 2i+1 the reverse.  A child with
    nothing to keep is a dead branch (non-power-of-two K).  Levels are
    added until no node holds more than one pending user.
    """
    levels = [(_PlanNode(-1, (), tuple(range(k)), ()),)]
    while any(len(node.pending) > 1 for node in levels[-1]):
        nxt = []
        for i, node in enumerate(levels[-1]):
            half = (len(node.pending) + 1) // 2
            first, second = node.pending[:half], node.pending[half:]
            for keep, other in ((first, second), (second, first)):
                annihilate = other if keep else ()
                nxt.append(_PlanNode(i, node.processed + annihilate, keep, annihilate))
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
        sum(_node_charge(n_r - sum(m_list[p] for p in parents[node.parent].processed),
                         [m_list[p] for p in node.annihilate], model) for node in nodes)
        for parents, nodes in zip(plan, plan[1:])
    ]


def _sd_ui_breakdown(n_r: int, m_list: tuple[int, ...], added: tuple[int, ...],
                     model: CostModel):
    """Per-inclusion cost of updating an existing decoupler set."""
    per_inclusion: list[float] = []
    current = list(m_list)
    for m_new in added:
        total_m = sum(current)
        # derive the newcomer's decoupler from user 0's, then fold the new
        # channel into every existing decoupler
        cost = _node_charge(n_r - (total_m - current[0]), [current[0]], model, span=n_r)
        for m_j in current:
            cost += _node_charge(n_r - (total_m - m_j), [m_new], model, span=n_r)
        per_inclusion.append(cost)
        current.append(m_new)
    return per_inclusion


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

    if algorithm == "SD_UI":
        added = _normalize_users(None, tuple(added or ()))
        _check_feasible(n_r, m_list + added)
        per_inc = _sd_ui_breakdown(n_r, m_list, added, model)
        breakdown = tuple(
            (f"inclusion {i + 1}", int(round(c))) for i, c in enumerate(per_inc)
        )
        return FlopReport("SD_UI", n_r, m_list + added,
                          sum(c for _, c in breakdown), breakdown)

    if added:
        raise InvalidInputError("added users only apply to the SD_UI algorithm")
    _check_feasible(n_r, m_list)
    total_m = sum(m_list)

    if algorithm == "SD":
        per_level = _sd_breakdown(n_r, m_list, model)
        breakdown = tuple(
            (f"level {l + 1}", int(round(c))) for l, c in enumerate(per_level)
        )
    elif algorithm == "SVD":
        breakdown = tuple(
            (f"user {i}", int(round(model.svd_full(n_r, total_m - m))))
            for i, m in enumerate(m_list)
        )
    elif algorithm == "PINV":
        if total_m > n_r:
            raise InfeasibleSystemError(
                f"pseudo-inverse decoupler needs total streams {total_m} <= n_r={n_r}"
            )
        breakdown = (
            ("gram matrix", int(round(model.matmul(total_m, n_r, total_m)))),
            ("inverse", int(round(model.inverse(total_m)))),
            ("apply adjoint", int(round(model.matmul(total_m, total_m, n_r)))),
        )
    else:
        raise InvalidInputError(f"unknown algorithm {algorithm!r}")

    return FlopReport(algorithm, n_r, m_list, sum(c for _, c in breakdown), breakdown)
