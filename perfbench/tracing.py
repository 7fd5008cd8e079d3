"""Span tracing of statepool's layers from outside the package.

``Tracer.install`` replaces every public module-level function of each
``statepool.<layer>`` module, in every ``statepool.*`` namespace that binds
it, with a wrapper that records a span, plus ``numpy.linalg.eigh`` and
``numpy.linalg.eigvalsh``.  No file of the package changes.  Spans are
recorded only inside a request opened with ``Tracer.request``, so the
benchmark's own checks and input generation are never counted.

Spans are kept in memory as flat integer columns (name, start, end, parent,
request id) and written out with ``Tracer.write_spans`` when the run ends.
Self time and the per-layer aggregates are accumulated as each span closes,
so they cover every span, including spans the run does not keep.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from types import FunctionType, ModuleType

import numpy as np

LAYERS = ("linalg", "regions", "compatibility", "pooling", "scenario", "io", "cli")

# Inclusive-time groups: a span adds its duration to a group only when no
# enclosing span belongs to the same group, so nested calls count once.
GROUPS = {
    "scenario.generate": {
        "random_instance", "adversarial_instance", "random_density", "haar_unitary",
        "depolarizing_channel", "dephasing_channel", "replacement_channel",
    },
    "scenario.channel": {"run_pipeline", "apply_channel", "evolve"},
    "regions.bayes": {"quantum_bayes"},
}

# Spans kept for write-out; the aggregates still cover every span beyond it.
MAX_KEPT_SPANS = 2_000_000


def _group_of(layer: str, name: str):
    if layer == "numpy":
        return "linalg.eig"
    if layer in ("compatibility", "pooling"):
        return layer
    if layer == "io" and (name == "dumps" or name.endswith("_to_json")):
        return "io.encode"
    if layer == "io" and name.endswith("_from_json"):
        return "io.decode"
    for group, names in GROUPS.items():
        if group.split(".")[0] == layer and name in names:
            return group
    return None


class Tracer:
    """Records spans at layer boundaries and derives per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._layer_of: list[str] = []
        self._group_of: list[str | None] = []
        self.cols = {k: array("q") for k in ("name", "start", "end", "parent", "request")}
        self._stack: list[list] = []  # [name_id, start_ns, child_ns, kept row or -1]
        self._group_depth: dict[str, int] = defaultdict(int)
        self._request = -1
        self._patches: list[tuple[object, str, object, object]] = []  # owner, name, old, new
        self._request_name = self._name_id("bench.request")
        self.reset_counters()

    # --- counters ------------------------------------------------------------

    def reset_counters(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.group_ns: dict[str, int] = defaultdict(int)
        self.fn_self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def snapshot(self) -> dict:
        """Repeating counters so far; compared between rounds to prove they repeat."""
        return {k: self.counts.get(k, 0) for k in (*EXACT_COUNTERS, *SEED_COUNTERS)}

    # --- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        layer = name.split(".")[0]
        self._layer_of.append(layer)
        self._group_of.append(_group_of(layer, name.split(".", 1)[1]))
        return len(self.names) - 1

    @contextmanager
    def request(self, request_id: int):
        """Open the root span of one request; spans below it share its id."""
        self._request = request_id
        self._open(self._request_name)
        try:
            yield
        finally:
            self._close()
            self._request = -1

    def _open(self, name_id: int) -> None:
        start = time.perf_counter_ns()
        row = -1
        if len(self.cols["name"]) < MAX_KEPT_SPANS:
            row = len(self.cols["name"])
            parent = self._stack[-1][3] if self._stack else -1
            for key, val in (("name", name_id), ("start", start), ("end", 0),
                             ("parent", parent), ("request", self._request)):
                self.cols[key].append(val)
        self._stack.append([name_id, start, 0, row])
        group = self._group_of[name_id]
        if group is not None:
            self._group_depth[group] += 1

    def _close(self) -> None:
        end = time.perf_counter_ns()
        name_id, start, child_ns, row = self._stack.pop()
        if row >= 0:
            self.cols["end"][row] = end
        dur = end - start
        self.self_ns[self._layer_of[name_id]] += dur - child_ns
        self.fn_self_ns[self.names[name_id]] += dur - child_ns
        group = self._group_of[name_id]
        if group is not None:
            self._group_depth[group] -= 1
            if self._group_depth[group] == 0:
                self.group_ns[group] += dur
        if self._stack:
            self._stack[-1][2] += dur
        self.counts["trace.spans"] += 1

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, qualname: str, fn, observe=None):
        name_id = self._name_id(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._request < 0:
                return fn(*args, **kwargs)
            tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close()
                if observe is not None:
                    observe(tracer, args, None, exc)
                raise
            tracer._close()
            if observe is not None:
                observe(tracer, args, result, None)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap the public functions of every statepool layer and numpy's eig.

        The wrappers are built on the first call; later calls put the same
        wrappers back, so a run can switch tracing on and off block by block.
        """
        if not self._patches:
            self._patches = self._build_patches()
        for owner, name, _, new in self._patches:
            setattr(owner, name, new)

    def _build_patches(self) -> list:
        modules = [m for n, m in sorted(sys.modules.items())
                   if isinstance(m, ModuleType) and (n == "statepool" or n.startswith("statepool."))]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                if (isinstance(obj, FunctionType) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj, OBSERVERS.get(f"{layer}.{name}"))
        patches = [(mod, name, obj, wrapped[obj])
                   for mod in modules for name, obj in list(vars(mod).items())
                   if isinstance(obj, FunctionType) and obj in wrapped]
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            patches.append((np.linalg, name, fn, self._wrap(f"numpy.{name}", fn, _observe_eig(name))))
        return patches

    def uninstall(self) -> None:
        for owner, name, old, _ in reversed(self._patches):
            setattr(owner, name, old)

    # --- output --------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write kept spans as JSON lines: a header naming the columns, then rows.

        Times are nanoseconds from the first kept span; ``parent`` is the row
        index of the enclosing span, or -1 for a request root.
        """
        c = self.cols
        n = len(c["name"])
        t0 = c["start"][0] if n else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "columns": ["name", "start_ns", "end_ns", "parent", "request"],
                "names": self.names, "kept": n,
            }) + "\n")
            for i in range(n):
                fh.write(f"[{c['name'][i]}, {c['start'][i] - t0}, {c['end'][i] - t0}, "
                         f"{c['parent'][i]}, {c['request'][i]}]\n")
        return n


# Counters that depend only on the code and the workload's shape, never on
# the drawn numbers, so they must repeat exactly across rounds and seeds.
EXACT_COUNTERS = (
    "linalg.eigh_calls", "linalg.eigvalsh_calls", "linalg.eig_n3",
    "compatibility.calls", "pooling.calls",
    "scenario.kraus_applications", "scenario.kraus_bytes", "trace.spans",
)
# Byte counts: they repeat exactly round after round for one seed, but not
# across seeds, because the text length of a %.17g float depends on its digits.
SEED_COUNTERS = ("io.bytes_out", "io.bytes_in")


def _observe_eig(name):
    def observe(tracer, args, result, exc):
        a = np.asarray(args[0])
        n = a.shape[-1]
        batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
        tracer.counts[f"linalg.{name}_calls"] += 1
        tracer.counts["linalg.eig_n3"] += batch * n ** 3
    return observe


def _observe_compatible(tracer, args, result, exc):
    tracer.counts["compatibility.calls"] += 1
    if result is not None and result.compatible:
        tracer.counts["compatibility.compatible"] += 1


def _observe_pool(tracer, args, result, exc):
    tracer.counts["pooling.calls"] += 1
    if exc is None:
        tracer.counts["pooling.success"] += 1
    else:
        tracer.counts[f"pooling.errors.{type(exc).__name__}"] += 1


# Observers run after the span closes, in the caller's span, so they stay O(1).


def _observe_apply_channel(tracer, args, result, exc):
    ops = args[0].kraus_ops  # KrausChannel checks that all share one shape
    tracer.counts["scenario.kraus_applications"] += len(ops)
    tracer.counts["scenario.kraus_bytes"] += len(ops) * ops[0].nbytes


def _observe_dumps(tracer, args, result, exc):
    if result is not None:
        tracer.counts["io.bytes_out"] += len(result)  # the encoder writes ASCII only


OBSERVERS = {
    "compatibility.quantum_compatible": _observe_compatible,
    "pooling.quantum_pool": _observe_pool,
    "scenario.apply_channel": _observe_apply_channel,
    "io.dumps": _observe_dumps,
}
