"""Span tracing of decoupsim, installed from outside the package.

``Tracer.install`` replaces every public function of the seven working
modules, wherever a decoupsim module has bound it (``from .kernels import
qr_decompose`` in detectors, the harness's decoupler dispatch table, the
package namespace), with a wrapper that records one span per call:
``(span id, name, start ns, end ns, parent span id, operation id)``.
Spans stay in memory until the run ends.  ``uninstall`` restores the
originals, so the untimed and timed phases of one process can differ only
in whether the wrappers are present.

Calls made in a worker thread whose own span stack is empty take the main
thread's innermost open span as parent, so the harness's thread pool
reports under the ``run_paired_ber`` call that started it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
import types
from collections import defaultdict

LAYERS = ("channels", "kernels", "decouplers", "detectors", "flops", "harness", "cli")

# Per-call accessors and validators: wrapping them would cost more than
# the work they do and would drown the spans that matter.
_SKIP = {
    "kernels": {"as_complex_matrix", "identity_basis"},
    "flops": {"active_model", "is_instrumenting", "charge", "instrument",
              "read_counter", "reset_counter", "counting"},
    "cli": {"build_parser"},
}


def _public_functions(layer: str, mod) -> list[tuple[str, types.FunctionType]]:
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    out = []
    for name in names:
        fn = getattr(mod, name, None)
        if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                and name not in _SKIP.get(layer, ())):
            out.append((name, fn))
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ops: dict[int, str] = {}
        self.op: int | None = None
        self.recording = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def _record(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs)
        return wrapper

    @contextlib.contextmanager
    def operation(self, op_id: int, kind: str):
        """Root span of one benchmark operation; spans inside carry ``op_id``."""
        self.ops[op_id] = kind
        self.op = op_id
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, f"bench.{kind}", start, end, None, op_id))
            self.op = None

    @contextlib.contextmanager
    def paused(self):
        """Run a block (set-up, correctness checks) without recording spans."""
        previous = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = previous

    def install(self) -> None:
        import decoupsim

        modules = [importlib.import_module(f"decoupsim.{layer}") for layer in LAYERS]
        namespaces = modules + [decoupsim]
        for layer, mod in zip(LAYERS, modules):
            for name, fn in _public_functions(layer, mod):
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._patches.append((ns, name, fn))
                        setattr(ns, name, wrapper)
                    for table in vars(ns).values():
                        if type(table) is dict:
                            for key, value in list(table.items()):
                                if value is fn:
                                    self._patches.append((table, key, fn))
                                    table[key] = wrapper

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)
        self._patches.clear()


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: duration minus the part its children cover."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _name, start, end, _parent, _op in spans
    }


def summarize(tracer: Tracer, kinds: set[str]) -> dict:
    """Per-name and per-layer self time and call counts over operations of ``kinds``.

    Also returns, per operation, the sum of all its spans' self times
    divided by the operation's duration: 1.0 when the spans tile the
    operation on one thread, above 1.0 where worker threads overlap.
    """
    spans = [s for s in tracer.spans if tracer.ops.get(s[5]) in kinds]
    own = self_times(spans)
    by_name = defaultdict(lambda: [0, 0, 0])   # self ns, calls, total ns
    by_layer = defaultdict(lambda: [0, 0])     # self ns, calls
    per_op_self = defaultdict(int)
    op_wall = {}
    for span in spans:
        sid, name, start, end, parent, op = span
        entry = by_name[name]
        entry[0] += own[sid]
        entry[1] += 1
        entry[2] += end - start
        layer = name.split(".", 1)[0]
        by_layer[layer][0] += own[sid]
        by_layer[layer][1] += 1
        per_op_self[op] += own[sid]
        if name.startswith("bench."):
            op_wall[op] = end - start
    cover = [per_op_self[op] / wall for op, wall in op_wall.items() if wall > 0]
    return {"by_name": dict(by_name), "by_layer": dict(by_layer), "cover": cover}
