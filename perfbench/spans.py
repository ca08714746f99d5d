"""Span tracer that wraps the library's module-level names from outside.

`Tracer.install()` replaces each traced function, in every `hyperline`
module that binds it, with a wrapper that records a span (name, start,
end, parent span, operation index).  Classes whose construction does
real work are traced through their `__init__`.  A name a refactor has
removed is listed in `missing` instead of failing.  Spans live in flat
arrays while a pass runs; `aggregate()` turns them into per-name totals
and self times (a span's duration minus what its child spans cover) and
`write()` dumps them when the run ends.  `uninstall()` restores every
original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import check

LAYERS = ("graph", "recognition", "reconstruction", "oracle", "baranyai", "fileio", "hypergraph", "cli")

# Names the per-layer metrics depend on.  The public functions of each
# layer module are traced too, found by inspection.  A class name means
# the class's constructor.  Generators are never wrapped: their span
# would end before their work does.
NAMED = (
    "graph.Graph",
    "graph.find_claw",
    "graph.maximal_cliques",
    "graph.min_edge_degree",
    "graph.line_graph",
    "recognition.recognize",
    "recognition.check_f1",
    "recognition.check_claw",
    "recognition.check_f2",
    "recognition.check_f3",
    "reconstruction.CliqueCover",
    "reconstruction.krausz_cover",
    "reconstruction.validate_cover",
    "reconstruction.cover_to_hypergraph",
    "oracle.cover_search",
    "oracle._clique_masks",
    "baranyai.FlowNetwork",
    "baranyai.build_extension_network",
    "baranyai.max_flow",
    "baranyai.extend",
    "baranyai.baranyai_partition",
    "baranyai.regular_hypergraph",
    "fileio.read_graph",
    "fileio.write_hypergraph",
    "fileio.write_graph",
    "fileio.write_partition",
    "hypergraph.Hypergraph",
    "cli.run_cli",
)

OP_SPAN = "op"  # the benchmark's own span around each operation


def _count_cliques(tracer, idx, args, result) -> None:
    """Maximal cliques found, and how many are big for the op's (k, p)."""
    tracer.counts["graph.maximal_cliques.found"] += len(result)
    if len(tracer.ctx) == 2:
        bound = check.clique_bound(*tracer.ctx)
        tracer.counts["graph.maximal_cliques.big"] += sum(1 for c in result if len(c) >= bound)


def _count_network(tracer, idx, args, result) -> None:
    net = result.network
    tracer.counts["baranyai.levels"] += 1
    tracer.counts["baranyai.arcs"] += len(net.arcs)
    tracer.counts["baranyai.nodes"] += net.node_count


def _record_flow(tracer, idx, args, result) -> None:
    parent = tracer.parent[idx]
    if parent >= 0 and tracer.names[tracer.sid[parent]] == "baranyai.extend":
        tracer.flows.append((tracer.op_index, result.value))


HOOKS = {
    "graph.maximal_cliques": (_count_cliques, ("graph.maximal_cliques.found", "graph.maximal_cliques.big")),
    "baranyai.build_extension_network": (_count_network, ("baranyai.levels", "baranyai.arcs", "baranyai.nodes")),
    "baranyai.max_flow": (_record_flow, ("baranyai.flow_values",)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.missing: list[str] = []
        self.op_index = -1
        self.ctx: tuple = ()
        self.sid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.flows: list = []  # (op index, value) of each max_flow called by extend
        self._undo: list = []

    def reset(self) -> None:
        """Forget the spans and counters of the previous pass (in place:
        the wrappers hold references to these containers)."""
        for arr in (self.sid, self.parent, self.op, self.start, self.end):
            del arr[:]
        del self.stack[1:]
        self.counts.clear()
        self.flows.clear()

    # ------------------------------------------------------------ spans

    def begin_op(self, index: int, ctx: tuple) -> None:
        self.op_index = index
        self.ctx = ctx
        idx = len(self.sid)
        self.sid.append(0)
        self.parent.append(-1)
        self.op.append(index)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())

    def end_op(self) -> None:
        t1 = time.perf_counter_ns()
        self.end[self.stack.pop()] = t1

    def _wrap(self, fn, sid: int, hook, hook_names):
        tracer = self
        clock = time.perf_counter_ns
        sids, parents, ops, starts, ends, stack = (
            self.sid, self.parent, self.op, self.start, self.end, self.stack
        )

        def traced(*args, **kwargs):
            idx = len(sids)
            sids.append(sid)
            parents.append(stack[-1])
            ops.append(tracer.op_index)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(tracer, idx, args, result)
                    except (AttributeError, TypeError):
                        tracer.missing.extend(n for n in hook_names if n not in tracer.missing)
                return result
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap the traced names; span ids are numbered afresh each time."""
        self.names = [OP_SPAN]
        self.missing = []
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"hyperline.{layer}")
            except ImportError:
                self.missing.append(f"{layer}.*")
        targets = [name for name in NAMED if name.split(".")[0] in modules]
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                    and f"{layer}.{attr}" not in targets
                ):
                    targets.append(f"{layer}.{attr}")
        owners = [m for key, m in sys.modules.items() if key == "hyperline" or key.startswith("hyperline.")]
        for name in targets:
            layer, attr = name.split(".", 1)
            obj = getattr(modules[layer], attr, None)
            if obj is None:
                self.missing.append(name)
                continue
            sid = len(self.names)
            self.names.append(name)
            hook, hook_names = HOOKS.get(name, (None, ()))
            if inspect.isclass(obj):
                original = vars(obj).get("__init__")
                obj.__init__ = self._wrap(obj.__init__, sid, hook, hook_names)
                self._undo.append((obj, "__init__", original))
                continue
            wrapper = self._wrap(obj, sid, hook, hook_names)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is obj:
                        setattr(owner, key, wrapper)
                        self._undo.append((owner, key, obj))
        for name, (_, hook_names) in HOOKS.items():
            if name not in self.names:
                self.missing.extend(hook_names)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def aggregate(self) -> dict:
        """name -> (inclusive ns, self ns, calls) over the recorded spans."""
        n = len(self.sid)
        sid, parent, start, end = self.sid, self.parent, self.start, self.end
        dur = [end[i] - start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            up = parent[i]
            if up >= 0:
                child[up] += dur[i]
        width = len(self.names)
        total, own, calls = [0] * width, [0] * width, [0] * width
        for i in range(n):
            s = sid[i]
            total[s] += dur[i]
            own[s] += dur[i] - child[i]
            calls[s] += 1
        return {self.names[s]: (total[s], own[s], calls[s]) for s in range(width)}

    def calls_per_op(self, name: str) -> Counter:
        """How many spans of the given name each operation opened."""
        if name not in self.names:
            return Counter()
        target = self.names.index(name)
        return Counter(self.op[i] for i in range(len(self.sid)) if self.sid[i] == target)

    def write(self, base: Path, extra: dict) -> None:
        """Spans as five arrays in native byte order (sid, parent, op: int32;
        start, end: int64 ns) in `<base>.bin`, described by `<base>.json`."""
        base.parent.mkdir(parents=True, exist_ok=True)
        with open(base.with_suffix(".bin"), "wb") as fh:
            for arr in (self.sid, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)
        header = {
            "spans": len(self.sid),
            "arrays": ["sid:int32", "parent:int32", "op:int32", "start_ns:int64", "end_ns:int64"],
            "names": self.names,
            "missing": self.missing,
            **extra,
        }
        base.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
