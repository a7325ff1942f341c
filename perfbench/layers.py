"""Per-layer spans, recorded from outside the program.

Each layer is a list of public functions and methods of one part of the
engine. :meth:`Instrumentation.install` swaps every one of them, for the traced run
only, for a wrapper that opens a span on entry and closes it on return.
A generator function gets one span per resumption. A function bound by
name in another module is replaced there too, so no call site keeps the
original. Spans nest on one stack; a span's self time is its duration
minus the time its child spans cover.

Spans live in flat arrays (layer, start, end, parent, statement) and are
written out once, after the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

#: layer -> [(module, qualified name), ...]; "Class.method" entries are
#: patched on that class even when the method is inherited
LAYERS: dict[str, list[tuple[str, str]]] = {
    "sql": [
        ("repro.sql.tokenizer", "tokenize"),
        ("repro.sql.parser", "parse"),
        ("repro.sql.parser", "parse_any"),
        ("repro.sql.binder", "bind"),
        ("repro.engine.goals", "infer_goals"),
        ("repro.sql.ddl", "execute_ddl"),
    ],
    "sql.executor": [
        ("repro.sql.executor", "execute_sql_steps"),
        ("repro.sql.executor", "execute_prepared_steps"),
    ],
    "cache": [
        ("repro.cache.plan_cache", "PlanCache.entry_for"),
        ("repro.cache.plan_cache", "PlanCache.revalidate"),
    ],
    "engine.initial": [
        ("repro.engine.initial", "run_initial_stage"),
        ("repro.btree.estimate", "estimate_range"),
    ],
    "engine.retrieval": [
        ("repro.engine.retrieval", "SingleTableRetrieval.run_steps"),
        ("repro.engine.retrieval", "SingleTableRetrieval._run_sscan_steps"),
        ("repro.engine.retrieval", "SingleTableRetrieval._run_tscan_steps"),
        ("repro.engine.tactics", "union_or_steps"),
        ("repro.engine.tactics", "background_only_steps"),
        ("repro.engine.tactics", "fast_first_steps"),
        ("repro.engine.tactics", "sorted_tactic_steps"),
        ("repro.engine.tactics", "index_only_steps"),
    ],
    "engine.jscan": [
        ("repro.engine.jscan", "JscanProcess.step"),
        ("repro.engine.jscan", "JscanProcess.run_batch"),
    ],
    "storage.rid": [
        ("repro.storage.rid", "yao_pages_touched"),
    ],
    "engine.final_stage": [
        ("repro.engine.final_stage", "FinalStageProcess.step"),
        ("repro.engine.final_stage", "FinalStageProcess.run_batch"),
    ],
    "engine.scans": [
        ("repro.engine.scans", "TscanProcess.step"),
        ("repro.engine.scans", "TscanProcess.run_batch"),
        ("repro.engine.scans", "SscanProcess.step"),
        ("repro.engine.scans", "SscanProcess.run_batch"),
        ("repro.engine.scans", "FscanProcess.step"),
        ("repro.engine.scans", "FscanProcess.run_batch"),
    ],
    "storage.buffer_pool": [
        ("repro.storage.buffer_pool", "BufferPool.get"),
        ("repro.storage.buffer_pool", "BufferPool.get_many"),
        ("repro.storage.buffer_pool", "BufferPool.prefetch"),
        ("repro.storage.heap", "HeapFile.scan_page_run"),
    ],
    "btree": [
        ("repro.btree.tree", "BTree.insert"),
        ("repro.btree.tree", "BTree.first_leaf_for"),
        ("repro.btree.tree", "RangeCursor.next_entry"),
        ("repro.btree.tree", "RangeCursor.next_entries"),
    ],
    "estimate": [
        ("repro.estimate.qerror", "Estimator.record"),
        ("repro.estimate.qerror", "Estimator.flush"),
        ("repro.estimate.qerror", "Estimator.verdict"),
        ("repro.estimate.qerror", "Estimator.estimate_range"),
        ("repro.cache.feedback", "FeedbackStore.adjust"),
        ("repro.cache.feedback", "FeedbackStore.record"),
    ],
    "server.scheduler": [
        ("repro.server.scheduler", "QueryServer.step"),
    ],
    "obs": [
        ("repro.obs.timeseries", "TimeSeriesRegistry.tick"),
        ("repro.obs.timeseries", "TimeSeriesRegistry.note_query"),
        ("repro.obs.health", "HealthMonitor.observe"),
        ("repro.server.metrics", "MetricsRegistry.record_trace"),
        ("repro.server.metrics", "MetricsRegistry.record_cache"),
        ("repro.server.metrics", "MetricsRegistry.record_outcome"),
        ("repro.server.metrics", "MetricsRegistry.record_completion"),
        ("repro.server.metrics", "MetricsRegistry.record_fetch_run"),
    ],
}

LAYER_NAMES = tuple(LAYERS)


class SpanRecorder:
    """The span store and the per-layer self-time accumulators."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stmt = array("l")
        #: open spans: [layer, start, child time, span index]
        self._stack: list[list] = []
        self.current_stmt = -1
        self.calls = [0] * len(LAYER_NAMES)
        self.self_s = [0.0] * len(LAYER_NAMES)
        #: calls per wrapped function, by qualified name
        self.fn_calls: Counter = Counter()
        #: B-tree descents in progress, and the buffer-pool pages they
        #: requested
        self.descending = 0
        self.descent_pages = 0
        self.evictions = 0

    def open(self, layer: int) -> None:
        stack = self._stack
        index = len(self.start)
        now = self.clock()
        self.layer.append(layer)
        self.start.append(now)
        self.end.append(0.0)
        self.parent.append(stack[-1][3] if stack else -1)
        self.stmt.append(self.current_stmt)
        stack.append([layer, now, 0.0, index])

    def close(self) -> None:
        now = self.clock()
        layer, start, child, index = self._stack.pop()
        self.end[index] = now
        duration = now - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def save(self, path) -> None:
        """Write the spans as one binary file: a JSON header line naming
        the layers, the span count and the array typecodes, then the five
        arrays back to back."""
        with open(path, "wb") as out:
            header = {"layers": list(LAYER_NAMES), "spans": len(self.start),
                      "arrays": ["layer:B", "start:d", "end:d", "parent:l", "stmt:l"]}
            out.write((json.dumps(header) + "\n").encode())
            for arr in (self.layer, self.start, self.end, self.parent, self.stmt):
                arr.tofile(out)


def _wrap_function(rec: SpanRecorder, layer: int, key: str, fn):
    def traced(*args, **kwargs):
        rec.fn_calls[key] += 1
        rec.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()

    return traced


def _wrap_generator(rec: SpanRecorder, layer: int, key: str, fn):
    def traced(*args, **kwargs):
        rec.fn_calls[key] += 1
        inner = fn(*args, **kwargs)
        value = None
        pending: BaseException | None = None
        while True:
            rec.open(layer)
            try:
                if pending is None:
                    item = inner.send(value)
                else:
                    error, pending = pending, None
                    item = inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                rec.close()
            try:
                value = yield item
            except GeneratorExit:
                rec.open(layer)
                try:
                    inner.close()
                finally:
                    rec.close()
                raise
            except BaseException as error:  # noqa: BLE001 - forwarded to inner
                value, pending = None, error

    return traced


def _wrap_descent(rec: SpanRecorder, fn):
    def marked(*args, **kwargs):
        rec.descending += 1
        try:
            return fn(*args, **kwargs)
        finally:
            rec.descending -= 1

    return marked


def _wrap_pool_pages(rec: SpanRecorder, fn, pages):
    """Count pages a buffer-pool call requests for a B-tree descent."""

    def counted(self, page_ids, *args, **kwargs):
        if rec.descending:
            rec.descent_pages += pages(page_ids)
        return fn(self, page_ids, *args, **kwargs)

    return counted


def _wrap_evictions(rec: SpanRecorder, fn):
    def counted(self):
        before = len(self._cache)
        fn(self)
        rec.evictions += before - len(self._cache)

    return counted


class Instrumentation:
    """Installed wrappers and how to take them out again."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._undo: list = []

    def _set(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        old = vars(owner).get(name)
        setattr(owner, name, value)
        self._undo.append((owner, name, had, old))

    def _patch_function(self, original, replacement) -> None:
        # every repro module holding the function under any name
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> "Instrumentation":
        rec = self.rec
        for layer_index, layer in enumerate(LAYER_NAMES):
            for module_name, qualname in LAYERS[layer]:
                module = importlib.import_module(module_name)
                owner_name, _, name = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else None
                fn = getattr(owner or module, name)
                wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap_function
                traced = wrap(rec, layer_index, f"{module_name}.{qualname}", fn)
                if owner is None:
                    self._patch_function(fn, traced)
                else:
                    self._set(owner, name, traced)
        # counters measured where the work happens, not spans
        from repro.btree.tree import BTree
        from repro.server.scheduler import QueryServer
        from repro.storage.buffer_pool import BufferPool

        for method in ("insert", "first_leaf_for"):
            self._set(BTree, method, _wrap_descent(rec, getattr(BTree, method)))

        self._set(BufferPool, "get", _wrap_pool_pages(rec, BufferPool.get, lambda _: 1))
        self._set(BufferPool, "get_many", _wrap_pool_pages(rec, BufferPool.get_many, len))
        self._set(BufferPool, "_evict_over_capacity",
                  _wrap_evictions(rec, BufferPool._evict_over_capacity))
        step_handle = QueryServer._step_handle

        def tagged(server, handle):
            rec.current_stmt = handle.ticket
            try:
                return step_handle(server, handle)
            finally:
                rec.current_stmt = -1

        self._set(QueryServer, "_step_handle", tagged)
        return self

    def uninstall(self) -> None:
        for owner, name, had, old in reversed(self._undo):
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)
        self._undo.clear()
