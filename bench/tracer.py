"""In-memory span recorder for fusionkit's layers, installed from outside the package.

``install`` replaces every module-level binding of each public fusionkit
function with a recorder: the home module's binding (so that intra-module
calls through the module global, such as ``phi`` calling ``psi``, are seen)
and every cross-module import of it.  A recorded call is a span with a name,
start, end, parent span and request id.  A layer's self time is its spans'
time minus the time of the spans and leaves nested in them.

Leaves are the hot functions that call no other layer: all of
``partitions``, the box and block helpers of ``paths`` and the letter
operations of ``words``.  They are counted and timed without a span and
without entering the span stack, which keeps the overhead of the 10^6
``normalize`` calls of a level sweep small; a leaf nested in a leaf is only
counted, so leaf time is never subtracted twice.

Generators are timed per resume: each ``next`` is a span piece, so the time a
consumer spends between items is not charged to the generator.
"""

from __future__ import annotations

import array
import gzip
import inspect
import time
from collections import defaultdict

LAYERS = ("partitions", "paths", "words", "involutions", "coefficients", "verify", "cli")

# Functions that call no function of another layer and run too often to span.
LEAF_FUNCTIONS = frozenset(
    {
        "paths.add_box",
        "paths.addable_box",
        "paths.block_boxes",
        "paths.block_has_bot",
        "paths.block_has_top",
        "paths.block_labels",
        "paths.block_slices",
        "paths.diagonal_label",
        "paths.padded_to_target",
        "paths.vertical_strips",
        "words.flip_positions",
        "words.lower_f",
        "words.raise_e",
        "words.render",
        "words.word_of",
        "words.word_type",
    }
)
LEAF_LAYERS = frozenset({"partitions"})


class Stat:
    """Aggregate of one function: calls, inclusive time, self time, items yielded."""

    __slots__ = ("calls", "total_s", "self_s", "items", "nonneg")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0
        self.nonneg = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[list] = []  # [child_time, span_id]
        self._in_leaf = False
        self._names: dict[str, int] = {}
        self._next_id = 0
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_request = array.array("q")
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[list, int, float]:
        parent = self._stack[-1][1] if self._stack else -1
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent, self.clock()

    def _exit(self, name: str, layer: str, frame: list, parent: int, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        dur = end - start
        stat = self.stats[name]
        stat.total_s += dur
        stat.self_s += dur - frame[0]
        self.layer_self[layer] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        self.span_id.append(frame[1])
        self.span_parent.append(parent)
        self.span_request.append(self.request)
        self.span_name.append(self._names.setdefault(name, len(self._names)))
        self.span_start.append(start)
        self.span_end.append(end)

    def _leaf_time(self, name: str, layer: str, start: float) -> None:
        dur = self.clock() - start
        stat = self.stats[name]
        stat.total_s += dur
        stat.self_s += dur
        self.layer_self[layer] += dur
        if self._stack:
            self._stack[-1][0] += dur

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, leaf: bool = False):
        """A recorder that calls ``fn``; ``name`` is ``layer.function``."""
        gen = inspect.isgeneratorfunction(fn)
        if leaf:
            return self._wrap_leaf_gen(fn, name, layer) if gen else self._wrap_leaf(fn, name, layer)
        return self._wrap_span_gen(fn, name, layer) if gen else self._wrap_span(fn, name, layer)

    def _wrap_span(self, fn, name, layer):
        stat = self.stats[name]

        def span(*args, **kwargs):
            stat.calls += 1
            frame, parent, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, layer, frame, parent, start)

        return span

    def _wrap_span_gen(self, fn, name, layer):
        stat = self.stats[name]

        def span_gen(*args, **kwargs):
            stat.calls += 1
            it = fn(*args, **kwargs)
            while True:
                frame, parent, start = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(name, layer, frame, parent, start)
                stat.items += 1
                yield item

        return span_gen

    def _wrap_leaf(self, fn, name, layer):
        stat = self.stats[name]
        nonneg = name == "partitions.sigma_dot"

        def leaf(*args, **kwargs):
            stat.calls += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leaf_time(name, layer, start)
                self._in_leaf = False
            if nonneg and min(result, default=0) >= 0:
                stat.nonneg += 1
            return result

        return leaf

    def _wrap_leaf_gen(self, fn, name, layer):
        stat = self.stats[name]

        def leaf_gen(*args, **kwargs):
            stat.calls += 1
            it = fn(*args, **kwargs)
            while True:
                if self._in_leaf:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                else:
                    self._in_leaf = True
                    start = self.clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._leaf_time(name, layer, start)
                        self._in_leaf = False
                stat.items += 1
                yield item

        return leaf_gen

    # -- installation ------------------------------------------------------

    def install(self, modules) -> None:
        """Replace, in every module of ``modules``, each binding of a public
        function defined in one of them.

        ``modules`` maps a layer name to its module.  An entry whose name is
        not a layer, such as the package itself, defines no functions here
        but has its bindings replaced too.
        """
        originals = {}
        for layer, module in modules.items():
            if layer not in LAYERS:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                leaf = layer in LEAF_LAYERS or name in LEAF_FUNCTIONS
                originals[id(obj)] = (obj, self.wrap(obj, name, layer, leaf))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_id)

    def write_spans(self, path) -> None:
        """All spans as gzip CSV: id, parent, request, name, start_s, end_s."""
        names = {i: n for n, i in self._names.items()}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id,parent,request,name,start_s,end_s\n")
            for i in range(len(self.span_id)):
                out.write(
                    f"{self.span_id[i]},{self.span_parent[i]},{self.span_request[i]},"
                    f"{names[self.span_name[i]]},{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )
