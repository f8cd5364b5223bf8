"""Spans around the calls into each layer, for the traced run.

:func:`install` wraps public entry points of every layer of ``repro``
from outside the program: it replaces class attributes and module
globals with timing wrappers and :func:`uninstall` puts the originals
back.  Nothing under ``src/`` knows it is being traced.

Each span has a name, start, end, parent and op id.  The op id belongs to
the pipeline operation (one registry call) the span ran under.  Spans
stay in memory; :func:`write_chrome` writes them as a Chrome / Perfetto
trace at exit.  A span's self time is its duration minus its child
spans' durations.  The tracer's own cost per span is measured once
(:func:`span_cost`) and subtracted from the layers' self times.

DES operations are generators that the kernel resumes many times, so a
generator is traced one resumption at a time.  Each resumption is a span,
and waiting in simulated time is never counted.  Coroutines on the
service tier's event loop interleave with one another.  They are timed
start to end (``service.sn_handle``, ``service.dn_call``); such a span
has a duration but takes no part in self time.

``entity_size`` runs millions of times on the table workload, so it is
not a full span.  A cheap counter keeps its time and call count, and the
time is charged to ``storage.table`` wherever the call came from.
"""

from __future__ import annotations

import functools
import http.client
import inspect
import itertools
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Raw spans kept per thread for the Chrome trace; the per-layer numbers
#: use every span whatever this cap.
SPAN_CAP = 200_000

#: Registry operations whose storage time the per-layer metrics report.
OP_METRICS = {
    "put_message": "storage.queue.put.us",
    "peek_message": "storage.queue.peek.us",
    "get_message": "storage.queue.get.us",
    "delete_message": "storage.queue.delete.us",
    "insert": "storage.table.insert.us",
    "get": "storage.table.get.us",
    "insert_or_replace": "storage.table.upsert.us",
    "query_partition": "storage.table.query.us",
    "upload_blob": "storage.blob.upload.us",
    "download_block_blob": "storage.blob.download.us",
}
#: Operations whose per-op storage time is also kept in order, to see
#: whether it grows as stored state grows.
GROWTH_OPS = {"get_message": "storage.queue.get.growth",
              "query_partition": "storage.table.query.growth"}

LEAF_LAYER = "storage.table"


class _Op:
    """One pipeline operation: its registry name and its storage time."""

    __slots__ = ("kind", "storage_s", "oid")

    def __init__(self, kind: str, oid: int) -> None:
        self.kind = kind
        self.storage_s = 0.0
        self.oid = oid


# A frame is a list, indexed by these constants (cheaper than an object).
_T0, _CHILD, _LEAF0, _CHILD_LEAF, _OP, _SID, _STATS, _PSID, _ST = range(9)
# A stats entry: [entries, total s, self s, calls, layer, name, storage?,
# direct child spans]
_N, _TOTAL, _SELF, _CALLS, _LAYER, _NAME, _STORAGE, _KIDS = range(8)


class _ThreadState:
    """Everything one thread records; merged when the unit ends."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: List[list] = []
        #: Counted-leaf (``entity_size``) seconds and calls.
        self.leaf = [0.0, 0]
        #: span name -> stats entry (see ``_N`` ...)
        self.stats: Dict[str, list] = {}
        self.counters: Dict[str, float] = {}
        #: op kind -> [ops, storage s]
        self.ops: Dict[str, List[float]] = {}
        #: op kind -> storage s of each op, in completion order
        self.series: Dict[str, List[float]] = {}
        #: (name, layer, start, end, span id, parent id, op id); tuples of
        #: plain values, which the garbage collector stops tracking.
        self.spans: List[tuple] = []
        #: Seconds spent in counter hooks, kept out of every layer.
        self.hook_s = 0.0


class Tracer:
    """Per-thread span stacks and counters for one traced unit."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.span_cap = span_cap
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._sids = itertools.count(1)
        self._oids = itertools.count(1)

    def state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            with self._lock:
                st = _ThreadState(len(self._threads) + 1)
                self._threads.append(st)
            self._local.st = st
            return st

    # -- synchronous spans ---------------------------------------------------
    def enter(self, name: str, layer: str, op: Optional[_Op] = None) -> list:
        t0 = perf_counter()
        st = self.state()
        stack = st.stack
        if stack:
            parent = stack[-1]
            psid = parent[_SID]
            if op is None:
                op = parent[_OP]
        else:
            psid = 0
        stats = st.stats.get(name)
        if stats is None:
            stats = st.stats[name] = [0, 0.0, 0.0, 0, layer, name,
                                      layer.startswith("storage."), 0]
        frame = [t0, 0.0, st.leaf[0], 0.0, op, next(self._sids), stats, psid,
                 st]
        stack.append(frame)
        return frame

    def exit(self, frame: list, calls: int = 0,
             error: Optional[BaseException] = None) -> None:
        st = frame[_ST]
        stack = st.stack
        stack.pop()
        parent = stack[-1] if stack else None
        stats = frame[_STATS]
        op = frame[_OP]
        if error is not None:
            key = f"{stats[_NAME]}.error.{type(error).__name__}"
            st.counters[key] = st.counters.get(key, 0) + 1
        leaf_in = st.leaf[0] - frame[_LEAF0]
        direct_leaf = leaf_in - frame[_CHILD_LEAF]
        # Everything above is charged to this span; only the arithmetic
        # below lands on the parent.
        end = perf_counter()
        dur = end - frame[_T0]
        self_s = dur - frame[_CHILD] - direct_leaf
        stats[_N] += 1
        stats[_TOTAL] += dur
        stats[_SELF] += self_s
        stats[_CALLS] += calls
        if op is not None:
            op.storage_s += direct_leaf
            if stats[_STORAGE]:
                op.storage_s += self_s
        if parent is not None:
            parent[_CHILD] += dur
            parent[_CHILD_LEAF] += leaf_in
            parent[_STATS][_KIDS] += 1
        if len(st.spans) < self.span_cap:
            st.spans.append((stats[_NAME], stats[_LAYER], frame[_T0], end,
                             frame[_SID], frame[_PSID],
                             op.oid if op is not None else None))

    def count(self, key: str, n: float = 1) -> None:
        counters = self.state().counters
        counters[key] = counters.get(key, 0) + n

    def hide(self, t0: float) -> None:
        """Keep the time since ``t0``, a counter hook's, out of every layer.

        The hook runs between spans, so its time would land in the
        enclosing span's self time; it is booked there as child time
        instead, and reported with the tracer's own cost.
        """
        dt = perf_counter() - t0
        st = self.state()
        if st.stack:
            st.stack[-1][_CHILD] += dt
        st.hook_s += dt

    def finish_op(self, op: _Op, ok: bool) -> None:
        st = self.state()
        entry = st.ops.get(op.kind)
        if entry is None:
            entry = st.ops[op.kind] = [0, 0.0]
        entry[0] += 1
        entry[1] += op.storage_s
        if op.kind in GROWTH_OPS:
            st.series.setdefault(op.kind, []).append(op.storage_s)
        if not ok:
            self.count("pipeline.failed")

    # -- generators: one span per resumption ---------------------------------
    def gen(self, name: str, layer: str, inner, kind: Optional[str] = None):
        """Drive ``inner`` step by step, one span per step."""
        op = _Op(kind, next(self._oids)) if kind is not None else None
        value = None
        thrown: Optional[BaseException] = None
        calls = 1
        while True:
            frame = self.enter(name, layer, op)
            try:
                if thrown is None:
                    out = inner.send(value)
                else:
                    exc, thrown = thrown, None
                    out = inner.throw(exc)
            except StopIteration as stop:
                self.exit(frame, calls)
                if op is not None:
                    self.finish_op(op, True)
                return stop.value
            except BaseException as exc:
                self.exit(frame, calls, exc)
                if op is not None:
                    self.finish_op(op, False)
                raise
            self.exit(frame, calls)
            calls = 0
            try:
                value = yield out
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:
                thrown, value = exc, None

    # -- coroutines: start to end, outside self time -------------------------
    def timed_async(self, name: str, t0: float, t1: float) -> None:
        st = self.state()
        stats = st.stats.get(name)
        if stats is None:
            stats = st.stats[name] = [0, 0.0, 0.0, 0, "async", name, False,
                                      0]
        stats[_N] += 1
        stats[_TOTAL] += t1 - t0
        stats[_CALLS] += 1
        if len(st.spans) < self.span_cap:
            st.spans.append((name, "async", t0, t1, next(self._sids), 0,
                             None))

    # -- results -------------------------------------------------------------
    def merged(self) -> Dict[str, object]:
        """Every thread's numbers folded together.

        ``layers`` holds each layer's self time less the tracer's own
        cost (``overhead_s`` in all), calibrated by :func:`span_cost`.
        """
        cost = span_cost()
        stats: Dict[str, list] = {}
        layers: Dict[str, float] = {}
        counters: Dict[str, float] = {}
        ops: Dict[str, List[float]] = {}
        series: Dict[str, List[float]] = {}
        overhead = 0.0
        for st in self._threads:
            for k, v in st.stats.items():
                acc = stats.setdefault(k, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += v[i]
                if v[_LAYER] != "async":
                    own = v[_N] * cost["span"] + v[_KIDS] * cost["child"]
                    layers[v[_LAYER]] = (layers.get(v[_LAYER], 0.0)
                                         + v[_SELF] - own)
                    overhead += own
            overhead += st.hook_s
            leaf_s = st.leaf[0] - st.leaf[1] * cost["leaf"]
            layers[LEAF_LAYER] = layers.get(LEAF_LAYER, 0.0) + leaf_s
            overhead += st.leaf[1] * cost["leaf"]
            counters["entity_size.calls"] = (
                counters.get("entity_size.calls", 0) + st.leaf[1])
            for k, v in st.counters.items():
                counters[k] = counters.get(k, 0) + v
            for k, v in st.ops.items():
                acc = ops.setdefault(k, [0, 0.0])
                acc[0] += v[0]
                acc[1] += v[1]
            for k, v in st.series.items():
                series.setdefault(k, []).extend(v)
        return {"stats": stats, "layers": layers, "counters": counters,
                "ops": ops, "series": series, "overhead_s": overhead}

    def chrome_events(self) -> List[dict]:
        """Recorded spans as Chrome trace events (microseconds)."""
        base = min((s[2] for st in self._threads for s in st.spans),
                   default=0.0)
        events = []
        async_tids: Dict[str, int] = {}
        for st in self._threads:
            for name, layer, t0, t1, sid, parent, oid in st.spans:
                if layer == "async":
                    tid = async_tids.setdefault(name, 1000 + len(async_tids))
                else:
                    tid = st.tid
                events.append({
                    "name": name, "cat": layer, "ph": "X", "pid": 1,
                    "tid": tid, "ts": (t0 - base) * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "args": {"span": sid, "parent": parent, "op": oid},
                })
        return events


def span_cost(n: int = 20_000) -> Dict[str, float]:
    """The tracer's own seconds per span and per counted leaf call.

    Measured on a function that does nothing, right when the numbers are
    merged, so it reflects the host's speed at the time: whatever such a
    span records is the tracer's cost inside the span (``span``), and
    what its parent records per such child is the cost the parent sees
    (``child``).  Both are subtracted from the layers' self times.
    """
    tracer = Tracer(span_cap=0)

    def nothing():
        return None
    span = _plain(tracer, nothing, "cost.span", "cost")
    leaf = _leaf(tracer, nothing)
    outer = tracer.enter("cost.outer", "cost")
    for _ in range(n):
        span()
    tracer.exit(outer)
    for _ in range(n):
        leaf()
    st = tracer.state()
    return {"span": st.stats["cost.span"][_SELF] / n,
            "child": st.stats["cost.outer"][_SELF] / n,
            "leaf": st.leaf[0] / n}


def write_chrome(path: str, events: List[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- wrappers -----------------------------------------------------------------

def _plain(tracer: Tracer, fn: Callable, name: str, layer: str,
           after: Optional[Callable] = None) -> Callable:
    """A span around each call of ``fn``.

    ``after(tracer, args, result)`` is a counter hook; it runs outside the
    span and its time is kept out of every layer (:meth:`Tracer.hide`).
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(frame, 1, exc)
            raise
        tracer.exit(frame, 1)
        if after is not None:
            t0 = perf_counter()
            after(tracer, args, result)
            tracer.hide(t0)
        return result
    return wrapper


def _generator(tracer: Tracer, fn: Callable, name: str, layer: str,
               kind: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.gen(name, layer, fn(*args, **kwargs),
                          kind(args) if kind is not None else None)
    return wrapper


def _coroutine(tracer: Tracer, fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            tracer.timed_async(name, t0, perf_counter())
    return wrapper


def _leaf(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        leaf = tracer.state().leaf
        leaf[1] += 1
        leaf[0] += perf_counter() - t0
        return result
    return wrapper


def _public_methods(cls) -> List[str]:
    return [k for k, v in vars(cls).items()
            if not k.startswith("_") and inspect.isfunction(v)]


class Installation:
    """The patches one :func:`install` made, undone by :meth:`uninstall`."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _count_queue_get(tracer: Tracer, args, result) -> None:
    """Count the messages a ``QueueState.get_message`` examined.

    Without the reordering model a get scans the message list in order
    and stops at the first visible message, the one it returns; it scans
    the whole list when it returns nothing or when the reordering model
    is on.  The count reads the list directly, through no traced method.
    A queue state without that list is not counted, so a change to the
    queue's data structure leaves the traced run working.
    """
    q = args[0]
    try:
        messages = q._messages
        examined = len(messages)
        if result is not None and q._service._reorder_rng is None:
            mid = result.message_id
            examined = next(i for i, m in enumerate(messages)
                            if m.message_id == mid) + 1
    except (AttributeError, TypeError, StopIteration):
        return
    tracer.count("queue.examined", examined)
    if result is not None:
        tracer.count("queue.returned")


def _count_rows(tracer: Tracer, args, result) -> None:
    tracer.count("table.queries")
    tracer.count("table.rows", len(result))


def install(tracer: Tracer) -> Installation:
    """Wrap every layer's public entry points; return the undo handle."""
    from repro.bench import executor as bench_executor
    from repro.cluster.model import StorageCluster
    from repro.cluster.ratelimit import SlidingWindowThrottle
    from repro.pipeline import executors as pipeline_executors
    from repro.pipeline.interceptors import Pipeline
    from repro.pipeline.registry import OPERATIONS
    from repro.service import sharedkey, servicenode
    from repro.service.client import ServiceConnection
    from repro.service.datanode import DataNodeClient
    from repro.service.servicenode import ServiceNode
    from repro.sim.clients import SimBlobClient, SimQueueClient, SimTableClient
    from repro.simkit.environment import Environment
    from repro.storage.blob.state import BlockBlobState
    from repro.storage.queue.state import QueueState
    from repro.storage.table import entity as table_entity
    from repro.storage.table.state import TableState
    from repro.traffic import engine as traffic_engine
    from repro.traffic.stats import StatsAggregator

    inst = Installation()
    t = tracer

    # simkit: the kernel loop, and every process body as its own layer.
    run = Environment.run

    @functools.wraps(run)
    def env_run(self, until=None):
        before = self.events_processed
        frame = t.enter("simkit.run", "simkit")
        try:
            return run(self, until)
        finally:
            t.count("simkit.events", self.events_processed - before)
            t.exit(frame, 1)
    inst.patch(Environment, "run", env_run)

    process = Environment.process

    @functools.wraps(process)
    def env_process(self, generator, name=None):
        name = name or getattr(generator, "__name__", "process")
        # Load-engine processes are traffic code; the rest are the
        # figure campaigns' role bodies.
        layer = "traffic" if name.startswith("load-") else "bench"
        return process(self, t.gen(f"{layer}.proc", layer, generator),
                       name=name)
    inst.patch(Environment, "process", env_process)

    # cluster: the cost model's round trip and the throttle windows.
    inst.patch(StorageCluster, "execute", _generator(
        t, StorageCluster.execute, "cluster.execute", "cluster"))
    inst.patch(SlidingWindowThrottle, "charge", _plain(
        t, SlidingWindowThrottle.charge, "cluster.throttle", "cluster"))

    # pipeline: one op per registry call, plus the interceptor chain.
    for cls, kind in ((SimBlobClient, "blob"), (SimQueueClient, "queue"),
                      (SimTableClient, "table")):
        for attr in OPERATIONS[kind]:
            fn = cls.__dict__.get(attr)
            if fn is not None and inspect.isgeneratorfunction(fn):
                inst.patch(cls, attr, _generator(
                    t, fn, "pipeline.op", "pipeline",
                    kind=lambda args, attr=attr: attr))
    inst.patch(pipeline_executors, "drive_operation", _generator(
        t, pipeline_executors.drive_operation, "pipeline.op", "pipeline",
        kind=lambda args: args[0].name))
    for attr in ("run_before", "run_after", "run_failed"):
        inst.patch(Pipeline, attr, _plain(
            t, getattr(Pipeline, attr), "pipeline.interceptors", "pipeline"))

    # storage state machines.
    # The namespace lookups (get_queue, get_table, get_blob) are dict
    # reads; tracing them would cost more than they do.
    for cls, layer in ((QueueState, "storage.queue"),
                       (TableState, "storage.table"),
                       (BlockBlobState, "storage.blob")):
        for attr in _public_methods(cls):
            fn = cls.__dict__[attr]
            name = f"{layer}.{attr}"
            if cls is QueueState and attr == "get_message":
                wrapper = _plain(t, fn, name, layer, after=_count_queue_get)
            elif cls is TableState and attr == "query_partition":
                wrapper = _plain(t, fn, name, layer, after=_count_rows)
            else:
                wrapper = _plain(t, fn, name, layer)
            inst.patch(cls, attr, wrapper)
    inst.patch(table_entity, "entity_size",
               _leaf(t, table_entity.entity_size))

    # traffic: schedule build and the windowed stats fold.
    inst.patch(traffic_engine, "build_schedule", _plain(
        t, traffic_engine.build_schedule, "traffic.schedule", "traffic"))
    inst.patch(StatsAggregator, "record", _plain(
        t, StatsAggregator.record, "traffic.record", "traffic"))

    # bench: campaign sweeps and their cells.
    inst.patch(bench_executor.SweepExecutor, "run_sweeps", _plain(
        t, bench_executor.SweepExecutor.run_sweeps, "bench.sweep", "bench"))
    inst.patch(bench_executor, "run_bench", _plain(
        t, bench_executor.run_bench, "bench.cell", "bench"))

    # service: client round trip, SharedKey, wire decode, SN and DN hops.
    inst.patch(ServiceConnection, "exchange", _plain(
        t, ServiceConnection.exchange, "service.rtt", "service"))
    inst.patch(sharedkey, "sign_request", _plain(
        t, sharedkey.sign_request, "service.sign", "service"))
    inst.patch(sharedkey, "verify_request", _plain(
        t, sharedkey.verify_request, "service.verify", "service"))
    inst.patch(servicenode, "decode_request", _plain(
        t, servicenode.decode_request, "service.decode", "service"))
    inst.patch(ServiceNode, "handle", _coroutine(
        t, ServiceNode.handle, "service.sn_handle"))
    inst.patch(DataNodeClient, "call", _coroutine(
        t, DataNodeClient.call, "service.dn_call"))
    inst.patch(http.client.HTTPConnection, "connect", _plain(
        t, http.client.HTTPConnection.connect, "service.connect", "service"))
    return inst

