"""The four benchmark workloads, driven through the program's public API.

Each workload has two steps.  ``setup(seed, unit)`` builds the inputs of
the run's ``unit``-th repetition and whatever must exist before its first
timed operation.  ``run(prepared)`` is the timed part and returns a
:class:`Unit`.  A run repeats set-up-then-run until its time is spent.
Units built from the same inputs must produce the same digest.

Why each workload exists, and which layer it loads, is in README.md
beside this file.
"""

from __future__ import annotations

import hashlib
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.bench.executor import SweepExecutor
from repro.bench.figures import QUICK_SCALE
from repro.service import (DEV_KEY, ClusterRunner, ServiceCluster,
                           ServiceConnection, TenantConfig, TenantDirectory,
                           WireBlobClient, WireQueueClient, WireTableClient)
from repro.storage.content import SyntheticContent
from repro.traffic import (ArrivalSpec, LoadConfig, StatsAggregator,
                           build_schedule, run_load, schedule_digest)
from repro.traffic import engine as traffic_engine

#: Payload size of every written object (the ``LoadConfig`` default).
PAYLOAD_BYTES = LoadConfig().payload_bytes
#: Read targets created before the first timed op (the ``LoadConfig``
#: default).
PRELOAD = LoadConfig().preload


def implementation_knobs() -> Dict[str, object]:
    """The defaults of the knobs that choose between implementations.

    The benchmark never sets them, so a change that removes one of the
    implementations cannot break it; the values are printed so a run
    records which implementation it measured.  A knob that no longer
    exists reads as ``None``.
    """
    return {
        "scheduler": getattr(LoadConfig(), "scheduler", None),
        "flock_size": getattr(LoadConfig(), "flock_size", None),
        "jobs": 1,  # the ``repro fig --jobs`` default: the serial sweep
    }


@dataclass
class Unit:
    """What one timed repetition of a workload produced."""

    #: Storage operations the unit was to run.
    attempted: int
    #: Storage operations the unit completed (each exactly once).
    ops: int
    wall_s: float
    cpu_s: float
    #: Per-op latency from the op's due instant, in ms, raw samples.
    latencies_ms: List[float]
    #: Digest of the issued operations and their outcomes.
    digest: str
    #: The seed the unit's inputs were generated from.
    inputs: int
    #: Operations whose outcome the benchmark could not confirm.
    failed: int = 0
    #: Modelled ServerBusy/throttle outcomes (DES workloads only); these
    #: are the simulated service's correct answer, not failures.
    simulated_errors: int = 0
    #: How late the dispatcher released each op, in ms (live tier only).
    gen_lag_ms: List[float] = field(default_factory=list)
    #: Correctness violations found in this unit.
    violations: List[str] = field(default_factory=list)
    #: ``perf_counter()`` when the timed part began.
    t0: float = 0.0
    #: The host's speed during the timed part (a ``hostspeed.Phase``),
    #: set by the runner once the unit is done.
    phase: Optional[object] = None


def _cpu() -> float:
    return time.process_time()


# -- DES open-loop load (load-queue, load-table) ------------------------------

class _RawLatencies(StatsAggregator):
    """A stats aggregator that also keeps every raw latency sample.

    The aggregator's own percentiles come from log buckets about 9% wide,
    too coarse for a gated metric, so the benchmark keeps the samples.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.samples: List[float] = []

    def record(self, start, end, **kwargs) -> None:
        self.samples.append(end - start)
        super().record(start, end, **kwargs)


class LoadWorkload:
    """``run_load`` on the DES backend: open-loop Poisson, one mix."""

    clock = "simulated"

    def __init__(self, name: str, mix: str, rate: float, duration: float,
                 payload_bytes: int = PAYLOAD_BYTES) -> None:
        self.name = name
        self.mix = mix
        self.rate = rate
        self.duration = duration
        self.payload_bytes = payload_bytes

    def config(self, seed: int) -> LoadConfig:
        return LoadConfig(arrivals=ArrivalSpec("poisson", self.rate, seed),
                          duration=self.duration, mix=self.mix,
                          payload_bytes=self.payload_bytes)

    def setup(self, seed: int, unit: int) -> LoadConfig:
        # ``run_load`` builds the schedule and boots the account itself,
        # so both are timed with the run.
        return self.config(seed)

    def run(self, config: LoadConfig) -> Unit:
        original = traffic_engine.StatsAggregator
        traffic_engine.StatsAggregator = _RawLatencies
        try:
            cpu0, wall0 = _cpu(), time.perf_counter()
            result = run_load(config)
            wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
        finally:
            traffic_engine.StatsAggregator = original
        agg = result.aggregator
        totals = agg.totals()
        violations = []
        # The expected op count, from a schedule built outside the timers.
        n = len(build_schedule(config))
        if not (totals["arrivals"] == totals["completions"] == n
                == len(agg.samples)):
            violations.append(
                f"{self.name}: {n} ops scheduled but {totals['arrivals']} "
                f"arrived, {totals['completions']} completed, "
                f"{len(agg.samples)} recorded")
        return Unit(attempted=n, ops=totals["completions"], wall_s=wall,
                    cpu_s=cpu, t0=wall0,
                    latencies_ms=[s * 1e3 for s in agg.samples],
                    digest=result.digest,
                    inputs=config.arrivals.seed,
                    simulated_errors=totals["errors"],
                    failed=abs(n - totals["completions"]),
                    violations=violations)


# -- the paper's Fig-7 campaign (paper-fig7) ------------------------------------

#: Transactions per shared-queue phase.  Quick scale uses 2,000; 500
#: keeps the campaign's shape (every worker count and think time) while
#: one campaign takes a few seconds, so a run holds several and can
#: report their median.
FIG7_TRANSACTIONS = 500


def fig7_digest(sweep) -> str:
    """SHA-256 over every phase record of a Fig-7 sweep, in sweep order."""
    h = hashlib.sha256()
    for workers, result in sweep.items():
        for r in result.records:
            h.update(f"{workers},{r.name},{r.worker_id},{r.start!r},"
                     f"{r.end!r},{r.ops},{r.nbytes},{r.retries}\n"
                     .encode())
    return h.hexdigest()


class Fig7Workload:
    """The Fig-7 shared-queue sweep through ``SweepExecutor``, serially."""

    name = "paper-fig7"
    clock = "simulated"

    def __init__(self, transactions: int = FIG7_TRANSACTIONS,
                 worker_counts=QUICK_SCALE.worker_counts) -> None:
        self.transactions = transactions
        self.worker_counts = tuple(worker_counts)

    def setup(self, seed: int, unit: int):
        return replace(QUICK_SCALE, seed=seed,
                       shared_total_transactions=self.transactions,
                       worker_counts=self.worker_counts)

    def run(self, scale) -> Unit:
        jobs = implementation_knobs()["jobs"]
        cpu0, wall0 = _cpu(), time.perf_counter()
        sweep = SweepExecutor(jobs).run_sweeps(scale, ["fig7"])["fig7"]
        wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
        records = [r for result in sweep.values() for r in result.records]
        violations = []
        expected = {w * len(scale.shared_think_times) * 3
                    for w in scale.worker_counts}
        got = {len(result.records) for result in sweep.values()}
        if sorted(sweep) != list(scale.worker_counts) or not got <= expected:
            violations.append(
                f"paper-fig7: sweep cells {sorted(sweep)} with record "
                f"counts {sorted(got)} do not match the scale")
        # The paper plots each worker's phase time per operation.
        latencies = [(r.end - r.start) / r.ops * 1e3
                     for r in records if r.ops]
        ops = sum(r.ops for r in records)
        return Unit(attempted=ops, ops=ops, wall_s=wall, cpu_s=cpu,
                    t0=wall0, latencies_ms=latencies,
                    digest=fig7_digest(sweep), inputs=scale.seed,
                    violations=violations)


# -- the live SN/DN tier (serve-mixed) -------------------------------------------

SERVE_QUEUE = "loadq"
SERVE_CONTAINER = "loadc"
SERVE_TABLE = "loadt"
SERVE_PARTITION = "load"
#: Client threads: the host's core count, which is 2 here; fixed so the
#: workload does not change with the machine.
SERVE_CLIENT_THREADS = 2


def payload(index: int) -> SyntheticContent:
    """Body of every object written for op ``index`` (preloads use < 0)."""
    return SyntheticContent(PAYLOAD_BYTES, seed=index)


def entity_value(index: int) -> str:
    """The one property of every entity written for op ``index``."""
    tag = f"{index}:"
    return tag + "x" * max(1, PAYLOAD_BYTES - len(tag))


def _call(gen):
    """Run a wire-client call: the clients are never-yielding generators."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError("wire client call yielded")


class _Clients:
    """One connection plus the three wire clients, for one thread."""

    def __init__(self, cluster: ServiceCluster, account: str) -> None:
        self.conn = ServiceConnection(cluster.endpoints(0), account, DEV_KEY)
        self.queue = WireQueueClient(self.conn)
        self.blob = WireBlobClient(self.conn)
        self.table = WireTableClient(self.conn)


class ServeWorkload:
    """Open-loop load on an in-process SN/DN cluster over loopback HTTP.

    The benchmark's own dispatcher releases each scheduled op at its due
    instant into a queue that ``SERVE_CLIENT_THREADS`` client threads
    drain; latency runs from the due instant to completion, so a late
    dispatcher or a backlog shows up in it.
    """

    name = "serve-mixed"
    clock = "wall"
    #: The runner keeps the process on one core.  Every thread shares one
    #: interpreter lock, so the tier runs one thread at a time anyway;
    #: on one core it is spared cross-core hand-offs of that lock (about
    #: a quarter of its CPU per op on a 2-core host), and the host-speed
    #: samples time the core the whole tier runs on.
    one_core = True

    def __init__(self, rate: float, window_s: float) -> None:
        self.rate = rate
        self.window_s = window_s

    @staticmethod
    def unit_seed(seed: int, unit: int) -> int:
        """Each unit replays its own schedule.

        A window holds only about 180 arrivals, so one schedule's
        burstiness would otherwise set every unit of the run.
        """
        return seed * 1000 + unit

    def setup(self, seed: int, unit: int):
        config = LoadConfig(arrivals=ArrivalSpec(
                                "poisson", self.rate,
                                self.unit_seed(seed, unit)),
                            duration=self.window_s, mix="mixed",
                            backend="service")
        schedule = build_schedule(config)
        tenants = TenantDirectory([TenantConfig.development()])
        cluster = ServiceCluster(tenants=tenants)
        runner = ClusterRunner(cluster)
        runner.start()
        try:
            clients = _Clients(cluster, tenants.accounts()[0])
            _call(clients.queue.create_queue(SERVE_QUEUE))
            _call(clients.blob.create_container(SERVE_CONTAINER))
            _call(clients.table.create_table(SERVE_TABLE))
            for i in range(PRELOAD):
                _call(clients.blob.upload_blob(
                    SERVE_CONTAINER, f"obj-{i}", payload(-1 - i)))
                _call(clients.table.insert(
                    SERVE_TABLE, SERVE_PARTITION, f"obj-{i}",
                    {"v": entity_value(-1 - i)}))
            for i in range(min(PRELOAD, 8)):
                _call(clients.queue.put_message(SERVE_QUEUE,
                                                payload(-1 - i)))
        except BaseException:
            runner.stop()
            raise
        return config.arrivals.seed, schedule, cluster, runner, clients

    @staticmethod
    def _execute(clients: _Clients, s, reads: Dict[int, object]) -> None:
        kind = (s.service, s.op)
        if kind == ("queue", "put"):
            _call(clients.queue.put_message(s.key, payload(s.index)))
        elif kind == ("queue", "get"):
            msg = _call(clients.queue.get_message(
                s.key, visibility_timeout=3600.0))
            if msg is not None:
                _call(clients.queue.delete_message(
                    s.key, msg.message_id, msg.pop_receipt))
                reads[s.index] = msg.content.to_bytes()
        elif kind == ("blob", "download"):
            reads[s.index] = _call(clients.blob.download_block_blob(
                SERVE_CONTAINER, s.key)).to_bytes()
        elif kind == ("blob", "upload"):
            _call(clients.blob.upload_blob(SERVE_CONTAINER, s.key,
                                           payload(s.index)))
        elif kind == ("table", "get"):
            reads[s.index] = _call(clients.table.get(
                SERVE_TABLE, SERVE_PARTITION, s.key)).get("v")
        elif kind == ("table", "upsert"):
            _call(clients.table.insert_or_replace(
                SERVE_TABLE, SERVE_PARTITION, s.key,
                {"v": entity_value(s.index)}))
        else:
            raise ValueError(f"serve-mixed has no op {kind}")

    def run(self, prepared) -> Unit:
        schedule_seed, schedule, cluster, runner, setup_clients = prepared
        try:
            unit, reads = self._dispatch(schedule, schedule_seed, cluster,
                                         setup_clients.conn.account)
            unit.violations.extend(
                check_serve_reads(schedule, reads, setup_clients))
        finally:
            setup_clients.conn.close()
            runner.stop()
        return unit

    def _dispatch(self, schedule, schedule_seed: int, cluster,
                  account: str):
        n = len(schedule)
        work: "queue_mod.SimpleQueue" = queue_mod.SimpleQueue()
        done_at: List[Optional[float]] = [None] * n
        completions = [0] * n
        ok = [False] * n
        errors: List[str] = []
        reads: Dict[int, object] = {}

        def client_thread() -> None:
            clients = _Clients(cluster, account)
            try:
                while True:
                    s = work.get()
                    if s is None:
                        return
                    try:
                        self._execute(clients, s, reads)
                        ok[s.index] = True
                    except Exception as exc:  # every live error is a failure
                        errors.append(f"op {s.index} {s.service}.{s.op}: "
                                      f"{type(exc).__name__}: {exc}")
                    done_at[s.index] = time.perf_counter()
                    completions[s.index] += 1
            finally:
                clients.conn.close()

        threads = [threading.Thread(target=client_thread,
                                    name=f"serve-client-{i}")
                   for i in range(SERVE_CLIENT_THREADS)]
        for t in threads:
            t.start()
        lag_ms: List[float] = []
        cpu0 = _cpu()
        origin = time.perf_counter()
        try:
            for s in schedule:
                due = origin + s.at
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                lag_ms.append((time.perf_counter() - due) * 1e3)
                work.put(s)
        finally:
            for _ in threads:
                work.put(None)
            for t in threads:
                t.join()
        end = max((t for t in done_at if t is not None), default=origin)
        wall, cpu = end - origin, _cpu() - cpu0
        violations = list(errors[:5])
        once = sum(1 for c in completions if c == 1)
        if once != n:
            violations.append(f"serve-mixed: {n - once} of {n} ops did not "
                              f"complete exactly once")
        latencies = [(t - (origin + s.at)) * 1e3
                     for s, t in zip(schedule, done_at) if t is not None]
        failed = sum(1 for good, c in zip(ok, completions)
                     if not good or c != 1)
        unit = Unit(attempted=n, ops=once, wall_s=wall, cpu_s=cpu,
                    t0=origin, latencies_ms=latencies,
                    digest=schedule_digest(schedule, ok),
                    inputs=schedule_seed, failed=failed, gen_lag_ms=lag_ms,
                    violations=violations)
        return unit, reads


def check_serve_reads(schedule, reads: Dict[int, object],
                      clients: _Clients) -> List[str]:
    """Check every read against what was written, then read writes back.

    Runs after the timed window.  Downloads must return their preload's
    bytes; each dequeued body must be a distinct put (or preload); each
    entity read must hold a value some write stored; every uploaded blob
    must read back byte for byte.
    """
    bad: List[str] = []
    puts = {payload(-1 - i).to_bytes(): -1 - i
            for i in range(min(PRELOAD, 8))}
    values: Dict[str, set] = {f"obj-{i}": {entity_value(-1 - i)}
                              for i in range(PRELOAD)}
    for s in schedule:
        if (s.service, s.op) == ("queue", "put"):
            puts[payload(s.index).to_bytes()] = s.index
        elif (s.service, s.op) == ("table", "upsert"):
            values[s.key].add(entity_value(s.index))
    seen = set()
    for s in schedule:
        if s.index not in reads:
            continue
        got = reads[s.index]
        kind = (s.service, s.op)
        if kind == ("queue", "get"):
            source = puts.get(got)
            if source is None or source in seen:
                bad.append(f"op {s.index}: dequeued a body that was "
                           f"{'never put' if source is None else 'already dequeued'}")
            seen.add(source)
        elif kind == ("blob", "download"):
            preload = int(s.key.split("-", 1)[1])
            if got != payload(-1 - preload).to_bytes():
                bad.append(f"op {s.index}: blob {s.key} read back wrong bytes")
        elif kind == ("table", "get"):
            if got not in values[s.key]:
                bad.append(f"op {s.index}: entity {s.key} holds a value "
                           f"no write stored")
    for s in schedule:
        if (s.service, s.op) == ("blob", "upload"):
            got = _call(clients.blob.download_block_blob(
                SERVE_CONTAINER, s.key)).to_bytes()
            if got != payload(s.index).to_bytes():
                bad.append(f"op {s.index}: uploaded blob {s.key} read "
                           f"back wrong bytes")
    return bad[:5] + ([f"... {len(bad) - 5} more"] if len(bad) > 5 else [])


#: name -> workload.  Sizes are chosen so one unit takes about 1 to 5 s on
#: a 2-core host and a 28 s run holds several units, whose median evens
#: out the host's second-to-second speed changes (see README.md).
#: ``load-queue`` needs its 50 simulated seconds: the queue's backlog, and
#: with it the get scan, only builds up over the run.  ``load-table``
#: writes 512-byte entities, not the default 4 KiB: a query does the same
#: work either way (the same rows, one ``entity_size`` call each, which
#: reads only string lengths), but 4 KiB values spread the partition's
#: entities over several times the memory, and the host's neighbours then set
#: its speed (README.md, "Measured").
WORKLOADS = {
    "load-queue": LoadWorkload("load-queue", "queue", rate=400.0,
                               duration=50.0),
    "load-table": LoadWorkload("load-table", "table", rate=400.0,
                               duration=24.0, payload_bytes=512),
    "paper-fig7": Fig7Workload(),
    "serve-mixed": ServeWorkload(rate=60.0, window_s=3.0),
}
