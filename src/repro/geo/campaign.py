"""Geo chaos campaigns: region outages, failover, and elasticity.

:func:`run_geo_chaos` drives a purpose-built multi-service workload
against a :class:`~repro.geo.account.GeoAccount` under one of the
region-scale fault profiles (``region-outage``, ``geo-failover``,
``replication-stall``), records the full client-level history plus the
replication layer's own evidence, and folds everything into a
:class:`~repro.chaos.verdict.ChaosVerdict`:

* the standard history invariants (queue conservation, blob integrity,
  table ETag conformance) still hold across outage and failover;
* the :class:`~repro.geo.ledger.GeoLedger` laws hold over the
  acknowledgement/shipping/probe/promotion evidence — durability at the
  Last Sync Time watermark, prefix shipping, lag-bounded staleness,
  secondary reads never newer than the primary nor older than the
  watermark floor.

After a **forced** failover the acknowledged-but-unshipped suffix of the
log is genuinely rewound — the bounded loss the 2012 contract allows.
The campaign accounts for it explicitly: each lost queue put is
rewritten in the history as an *attributed* loss (fault tag
``geo_failover``) and each lost table mutation is dropped (its effect no
longer exists, so a post-failover optimistic write may lawfully reuse
its ETag).  Everything acknowledged before the watermark must survive
untouched — that is checked, not assumed.

The campaign runs **without** the Tracer/analytics stack on purpose:
RA-GRS read fallback re-issues operations on the secondary stamp's
pipeline, which the primary-bound span and metering checks would
misread as missing coverage.  The history invariants and the geo ledger
carry the conformance load here.

:func:`run_elasticity` is the compute-side companion: the paper's
bag-of-tasks app on a geo account, with a
:class:`~repro.compute.autoscaler.Autoscaler` growing the worker fleet
while a region outage (or spot-eviction churn) is in progress, and the
usual exactly-once/conservation checks at the end.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..chaos.history import History, OpRecord, audit_account
from ..chaos.invariants import Violation, check_history
from ..chaos.runner import RETRY_BUDGET, _crash_verdict
from ..chaos.schedule import build_schedule
from ..chaos.verdict import ChaosVerdict
from ..faults.spec import FaultKind
from ..sim.retry import retrying
from ..simkit import AllOf, AnyOf, Environment
from ..storage.errors import (
    ETagMismatchError,
    ResourceNotFoundError,
    StorageError,
)
from .account import GeoAccount
from .ledger import geo_ledger_from_events

__all__ = ["run_geo_chaos", "run_elasticity"]

#: Profile -> failover mode driven by default (None: outage only).
_DEFAULT_FAILOVER: Dict[str, Optional[str]] = {
    "geo-failover": "forced",
}


def _geo_events(geo, probes, extra=()):
    """Fold the account's replication evidence into ledger events."""
    events: List[Tuple] = [("ack", r.seq, r.time) for r in geo.log.records]
    events.extend(("ship", seq, ack_t, apply_t)
                  for (seq, ack_t, apply_t) in geo.replicator.ship_events)
    events.extend(probes)
    if geo.controller.promoted:
        events.append(("promote", geo.controller.promoted_at,
                       geo.controller.final_last_sync_time))
    events.extend(extra)
    return events


def _staleness_allowance(geo, schedule) -> float:
    """The lag bound the ledger may hold ships to: configured lag, plus
    every injected stall width, plus shipper poll slack."""
    stall_total = sum(
        s.duration for s in schedule.specs
        if s.kind is FaultKind.REPLICATION_STALL
        and s.duration != float("inf"))
    return (geo.lag_s + stall_total
            + 2.0 * geo.replicator.poll_interval + 0.5)


def _geo_ledger_violations(geo, probes, schedule, *,
                           splice: bool = False) -> Tuple[List[Violation], int]:
    """Evaluate the GeoLedger laws (and optionally the splice self-test)."""
    out: List[Violation] = []
    max_lag = _staleness_allowance(geo, schedule)
    events = _geo_events(geo, probes)
    for msg in geo_ledger_from_events(events).violations(max_lag=max_lag):
        out.append(Violation("geo-ledger", msg))
    for seq, err, msg in geo.replicator.apply_errors:
        out.append(Violation(
            "geo-replication",
            f"record {seq} failed to apply on the secondary "
            f"({err}): {msg}"))
    spliced = 0
    if splice and geo.replicator.ship_events:
        # Self-test: erase one ship from the evidence — the prefix or
        # durability law must notice the hole, proving a real silent
        # replication skip could not slip through.
        seq0, ack0, t0 = sorted(geo.replicator.ship_events)[0]
        without = [e for e in events if e != ("ship", seq0, ack0, t0)]
        found = geo_ledger_from_events(without).violations(max_lag=max_lag)
        spliced = 1
        if not found:
            out.append(Violation(
                "geo-ledger",
                f"[geo-splice seq {seq0}] spliced-out ship was NOT "
                f"detected — the ledger laws have a hole"))
        out.extend(Violation("geo-ledger",
                             f"[geo-splice seq {seq0}] {msg}")
                   for msg in found)
    return out, spliced


def _erase_message_before(history: History, queue: str, msg_id: str,
                          cutoff: float) -> None:
    """Drop pre-``cutoff`` deliveries/deletes of one rewound message.

    The promoted secondary restarts its message counter at the shipped
    prefix, so a post-promotion put can lawfully *reuse* the id of a
    put the rewind destroyed.  Only records from before the promotion
    instant belong to the lost incarnation; the reused message's own
    delivery and delete must survive so queue conservation still
    balances.
    """
    kept = []
    for rec in history.records:
        if (rec.service == "queue" and rec.target == queue
                and rec.time <= cutoff):
            if (rec.op == "delete_message"
                    and rec.request.get("message_id") == msg_id):
                continue
            if rec.op in ("get_message", "get_messages") and rec.ok:
                messages = [m for m in rec.result.get("messages", ())
                            if m["message_id"] != msg_id]
                if len(messages) != len(rec.result.get("messages", ())):
                    result = dict(rec.result)
                    result["messages"] = tuple(messages)
                    rec = OpRecord(
                        seq=rec.seq, time=rec.time, service=rec.service,
                        op=rec.op, target=rec.target,
                        request=rec.request, result=result,
                        error=rec.error, faults=rec.faults)
        kept.append(rec)
    history.records = kept


def _exempt_failover_losses(history: History, lost,
                            promoted_at: float) -> int:
    """Rewrite the history to account for a forced failover's rewind.

    Lost queue puts become *attributed* losses (``geo_failover`` fault
    tag) with their pre-promotion downstream records erased; lost table
    mutations are dropped outright (the promoted replica never saw
    them, so their ETags are legitimately re-issuable).  Lost blob
    writes need nothing: the integrity checker replays history
    internally and the rewound bytes are never downloaded
    post-failover.
    """
    exempted = 0
    for lrec in lost:
        if lrec.service == "queue" and lrec.method == "put_message":
            msg_id = lrec.meta.get("message_id")
            if msg_id is None:
                continue
            for i, rec in enumerate(history.records):
                if (rec.service == "queue" and rec.op == "put_message"
                        and rec.ok and rec.time <= promoted_at
                        and rec.result.get("message_id") == msg_id):
                    history.records[i] = OpRecord(
                        seq=rec.seq, time=rec.time, service=rec.service,
                        op=rec.op, target=rec.target, request=rec.request,
                        result={"message_id": None}, error=rec.error,
                        faults=rec.faults + ("geo_failover",))
                    _erase_message_before(history, rec.target, msg_id,
                                          promoted_at)
                    exempted += 1
                    break
        elif lrec.service == "table":
            for i, rec in enumerate(history.records):
                if (rec.service == "table" and rec.op == lrec.method
                        and rec.ok and rec.time == lrec.time
                        and rec.target == lrec.meta.get("table", rec.target)
                        and rec.request.get("partition_key",
                                            lrec.meta.get("pk"))
                        == lrec.meta.get("pk",
                                         rec.request.get("partition_key"))
                        and rec.request.get("row_key", lrec.meta.get("rk"))
                        == lrec.meta.get("rk",
                                         rec.request.get("row_key"))):
                    del history.records[i]
                    exempted += 1
                    break
    return exempted


def run_geo_chaos(profile: str = "region-outage", seed: int = 0, *,
                  lag_s: float = 2.0, workers: int = 3,
                  failover: Optional[str] = None,
                  failover_delay_s: float = 2.0,
                  write_s: float = 36.0, horizon: float = 240.0,
                  retry_budget: int = RETRY_BUDGET,
                  splice: bool = False) -> ChaosVerdict:
    """The geo conformance campaign: one seeded run, fully checked.

    ``failover`` is ``None`` (profile default: forced for
    ``geo-failover``, none otherwise), ``"planned"`` (drain first, zero
    loss) or ``"forced"`` (promote as-is, bounded loss).
    """
    if failover is None:
        failover = _DEFAULT_FAILOVER.get(profile)
    if failover not in (None, "planned", "forced"):
        raise ValueError(f"unknown failover mode {failover!r}")

    schedule = build_schedule(profile, seed=seed)
    verdict = ChaosVerdict(workload="geo", profile=profile, seed=seed,
                           runs=[f"geo:{profile}@{workers}"],
                           schedules=[schedule.describe()])
    history = History()
    probes: List[Tuple] = []
    try:
        env = Environment()
        geo = GeoAccount(env, seed=seed, lag_s=lag_s)
        plan = schedule.plan()
        plan.subscribe(history.on_fault)
        geo.set_fault_plan(plan)
        audit_account(geo, history)

        #: Per-writer heartbeat acks: (ack_time, row_key, value) — the
        #: campaign's own ground truth for the staleness probes.
        hb_log: List[Tuple[float, str, int]] = []
        done = {"writers": False}

        def writer(w: int):
            qc = geo.queue_client()
            tc = geo.table_client()
            bc = geo.blob_client()
            v = 0
            pace = 0.6 + 0.1 * w
            while env.now < write_s:
                v += 1
                rk = f"w{w}"
                yield from retrying(
                    env, lambda val=v, r=rk: tc.insert_or_replace(
                        "geohb", "hb", r, {"v": val}),
                    max_retries=retry_budget)
                hb_log.append((env.now, rk, v))
                yield from retrying(
                    env, lambda val=v, r=rk: qc.put_message(
                        "geojobs", f"{r}-{val}".encode()),
                    max_retries=retry_budget)
                if v % 4 == 0:
                    blob = f"{rk}-{v}"
                    data = (blob * 8).encode()
                    yield from retrying(
                        env, lambda b=blob, d=data: bc.upload_blob(
                            "geodata", b, d),
                        max_retries=retry_budget)
                    try:
                        yield from retrying(
                            env, lambda b=blob: bc.download_block_blob(
                                "geodata", b),
                            max_retries=retry_budget)
                    except ResourceNotFoundError:
                        # RA-GRS fallback read landed on the secondary
                        # before the blob shipped — legitimately stale.
                        pass
                if v % 3 == 0:
                    # Optimistic concurrency on a contended row: read,
                    # conditional-update, retry on ETag mismatch.  A
                    # fallback read during an outage yields a stale
                    # (secondary) ETag, which must *lose*, never fork.
                    for _ in range(6):
                        try:
                            e = yield from retrying(
                                env, lambda: tc.get("geohb", "hb", "shared"),
                                max_retries=retry_budget)
                        except ResourceNotFoundError:
                            break
                        try:
                            yield from retrying(
                                env,
                                lambda ent=e: tc.update(
                                    "geohb", "hb", "shared",
                                    {"n": int(ent.get("n")) + 1},
                                    etag=ent.etag),
                                max_retries=retry_budget)
                        except ETagMismatchError:
                            continue
                        break
                yield env.timeout(pace)

        def reader():
            # A dashboard-style consumer of pure reads.  During a primary
            # outage these are exactly the calls RA-GRS keeps serving:
            # the GeoClient re-issues them against the secondary.
            qc = geo.queue_client()
            tc = geo.table_client()
            while not done["writers"] and not geo.controller.promoted:
                yield env.timeout(0.9)
                if done["writers"] or geo.controller.promoted:
                    return
                try:
                    yield from qc.get_message_count("geojobs")
                    yield from qc.peek_message("geojobs")
                    yield from tc.get("geohb", "hb", "shared")
                except StorageError:
                    continue

        def monitor():
            stc = geo.secondary_table_client()
            while not done["writers"] and not geo.controller.promoted:
                yield env.timeout(0.7)
                if done["writers"] or geo.controller.promoted:
                    return
                # Sample the watermark *before* the read: the floor only
                # ever grows while the probe is in flight, so the
                # guarantee stays sound against DES interleaving.
                lst = geo.replicator.last_sync_time
                floor = max((v for (t, r, v) in hb_log
                             if r == "w0" and t < lst), default=0)
                try:
                    e = yield from stc.get("geohb", "hb", "w0")
                except StorageError:
                    continue
                primary_val = max((v for (t, r, v) in hb_log if r == "w0"),
                                  default=0)
                probes.append(("probe", env.now, primary_val, floor,
                               int(e.get("v"))))

        def failover_driver():
            outage = [s for s in schedule.specs
                      if s.kind is FaultKind.REGION_OUTAGE]
            at = (outage[0].start + 3.0) if outage else 10.0
            if at > env.now:
                yield env.timeout(at - env.now)
            yield from geo.failover_process(failover,
                                            delay_s=failover_delay_s)

        def coordinator():
            qc = geo.queue_client()
            tc = geo.table_client()
            bc = geo.blob_client()
            yield from retrying(env, lambda: qc.create_queue("geojobs"),
                                max_retries=retry_budget)
            yield from retrying(env, lambda: tc.create_table("geohb"),
                                max_retries=retry_budget)
            yield from retrying(
                env, lambda: bc.create_container("geodata"),
                max_retries=retry_budget)
            yield from retrying(
                env, lambda: tc.insert_or_replace("geohb", "hb", "shared",
                                                  {"n": 0}),
                max_retries=retry_budget)
            writer_procs = [env.process(writer(w), name=f"geo-writer-{w}")
                            for w in range(workers)]
            yield AllOf(env, writer_procs)
            done["writers"] = True
            if failover is not None:
                while not geo.controller.promoted:
                    yield env.timeout(0.5)
            else:
                while geo.replicator.backlog > 0:
                    yield env.timeout(0.5)
            # Post-incident drain: every surviving message is consumed
            # and deleted exactly once, wherever the endpoint now lives.
            while True:
                msg = yield from retrying(
                    env, lambda: qc.get_message("geojobs",
                                                visibility_timeout=30.0),
                    max_retries=retry_budget)
                if msg is None:
                    break
                yield from retrying(
                    env, lambda m=msg: qc.delete_message(
                        "geojobs", m.message_id, m.pop_receipt),
                    max_retries=retry_budget)
            if not geo.controller.promoted:
                while geo.replicator.backlog > 0:
                    yield env.timeout(0.5)

        coord = env.process(coordinator(), name="geo-coordinator")
        env.process(reader(), name="geo-reader")
        env.process(monitor(), name="geo-monitor")
        if failover is not None:
            env.process(failover_driver(), name="geo-failover-driver")
        env.run(until=AnyOf(env, [coord, env.timeout(horizon)]))
        completed = coord.callbacks is None

        exempted = 0
        if geo.controller.promoted:
            exempted = _exempt_failover_losses(
                history, geo.controller.lost_records,
                geo.controller.promoted_at)
        history.snapshot_final_state(geo.state)
    except Exception as exc:
        verdict.counts = {"audited_ops": len(history.records)}
        raise _crash_verdict(verdict, f"geo:{profile}", exc) from exc

    if not completed:
        verdict.violations.append(Violation(
            "harness",
            f"geo campaign did not complete within the {horizon:g}s "
            f"horizon"))
    verdict.violations.extend(check_history(history))
    ledger_violations, spliced = _geo_ledger_violations(
        geo, probes, schedule, splice=splice)
    verdict.violations.extend(ledger_violations)
    verdict.geo = {
        **geo.describe(),
        "failover": failover or "none",
        "staleness_allowance": round(_staleness_allowance(geo, schedule), 3),
        "exempted_records": exempted,
    }
    verdict.counts = {
        "audited_ops": len(history.records),
        "faults_injected": len(history.fault_events),
        "log_records": len(geo.log),
        "shipped": len(geo.replicator.ship_events),
        "lost_records": len(geo.controller.lost_records),
        "probes": len(probes),
        "heartbeat_acks": len(hb_log),
        "secondary_reads": geo.controller.stats["secondary_reads"],
        "completion_time": round(env.now, 3),
    }
    if splice:
        verdict.counts["spliced"] = spliced
    return verdict


def run_elasticity(profile: str = "region-outage", seed: int = 0, *,
                   tasks: int = 24, workers: int = 2, work_s: float = 1.0,
                   lag_s: float = 2.0, max_instances: Optional[int] = None,
                   horizon: float = 400.0,
                   retry_budget: int = RETRY_BUDGET,
                   arrival=None) -> ChaosVerdict:
    """The bag-of-tasks app on a geo account with an elastic worker fleet.

    A deliberately under-provisioned pool (``workers``) faces ``tasks``
    tasks; the :class:`~repro.compute.autoscaler.Autoscaler` watches the
    task-queue backlog and grows the fleet — including while the region
    outage (or eviction churn) from ``profile`` is in progress.  The
    verdict requires completion, at least one scale-out, every task's
    result exactly once, and the full history conformance checks.

    ``arrival`` (an :class:`repro.traffic.ArrivalSpec`, optional) turns
    the fixed task bag into an open-loop stream: the web role submits
    task ``i`` at the spec's ``i``-th seeded arrival instant instead of
    dumping the whole bag at t=0, so the autoscaler reacts to a live
    arrival process (ROADMAP item 5).  The conformance checks are
    unchanged — arrival pacing moves *when* tasks enter the pool, never
    how many.
    """
    from ..compute import Autoscaler, Fabric, Supervisor
    from ..compute.roles import RoleStatus
    from ..framework import TaskPoolApp, TaskPoolConfig

    busy = work_s * tasks / max(1, workers)
    schedule = build_schedule(profile, seed=seed, workers=workers,
                              crash_window=(2.0, max(3.0, 2.0 + 0.8 * busy)))
    verdict = ChaosVerdict(workload="elasticity", profile=profile, seed=seed,
                           runs=[f"elasticity@{workers}+auto"],
                           schedules=[schedule.describe()])
    history = History()
    try:
        env = Environment()
        geo = GeoAccount(env, seed=seed, lag_s=lag_s)
        plan = schedule.plan()
        plan.subscribe(history.on_fault)
        geo.set_fault_plan(plan)
        audit_account(geo, history)

        def handler(ctx, payload):
            yield ctx.sleep(work_s)
            return payload

        config = TaskPoolConfig(name="geoelastic", visibility_timeout=90.0,
                                idle_poll_interval=0.5)
        app = TaskPoolApp(config, handler)
        payloads = [f"task-{i}".encode() for i in range(tasks)]

        submit_times = None
        require_scaleout = True
        if arrival is not None:
            submit_times = arrival.build().take(tasks)
            # The stream's tail arrives after t=0 bags would have finished;
            # stretch the completion horizon by the submission span.
            horizon += submit_times[-1]
            # A paced stream below the fleet's service rate never builds a
            # backlog, so staying at min_instances is the *correct*
            # autoscaler behaviour — only an overloading stream must force
            # a scale-out.
            span = submit_times[-1]
            offered = tasks / span if span > 0 else float("inf")
            require_scaleout = offered > workers / work_s

        fabric = Fabric(env, geo)
        web = fabric.deploy(
            app.web_role_body(payloads, poll_interval=0.5,
                              submit_times=submit_times),
            instances=1, name="web")
        pool = fabric.deploy(app.worker_role_body(), instances=workers,
                             name="workers", contain_crashes=True)
        supervisor = Supervisor(pool, recycle_delay=3.0).start()

        def backlog_fn() -> int:
            queues = geo.state.queues.queues
            return sum(
                len(queues[config.task_queue_name(i)].messages())
                for i in range(config.task_queues)
                if config.task_queue_name(i) in queues)

        scaler = Autoscaler(
            env, pool, backlog_fn,
            high_watermark=4, low_watermark=0,
            check_interval=1.5, cooldown=4.0,
            min_instances=workers,
            max_instances=max_instances or workers + 4,
        ).start()

        def crash_driver():
            now = 0.0
            for event in schedule.crashes:
                if event.time > now:
                    yield env.timeout(event.time - now)
                    now = event.time
                if event.role_id >= len(pool.instances):
                    continue
                instance = pool.instances[event.role_id]
                if instance.status is RoleStatus.RUNNING:
                    pool.fail_instance(event.role_id, cause="chaos kill")
                    history.crash_events.append(
                        (env.now, "crash", event.role_id))

        if schedule.crashes:
            env.process(crash_driver(), name="chaos-crash-driver")
        fabric.start_all()
        web_done = web.all_done_event()
        env.run(until=AnyOf(env, [web_done, env.timeout(horizon)]))
        completed = web_done.callbacks is None
        scaler.stop()
        supervisor.stop()
        env.run(until=env.timeout(config.idle_poll_interval * 4 + 2.0))
        for record in supervisor.restarts:
            history.crash_events.append(
                (record.restarted_at, "restart", record.role_id))
        history.crash_events.sort()
        if not geo.controller.promoted:
            # Let the shipper drain so the ledger's prefix law sees a
            # settled frontier.
            settle = env.timeout(
                geo.lag_s + 4.0 * geo.replicator.poll_interval + 1.0)
            env.run(until=settle)
        history.snapshot_final_state(geo.state)
    except Exception as exc:
        verdict.counts = {"audited_ops": len(history.records)}
        raise _crash_verdict(verdict, f"elasticity:{profile}", exc) from exc

    if not completed:
        verdict.violations.append(Violation(
            "harness",
            f"elasticity run did not complete within the {horizon:g}s "
            f"horizon"))
    verdict.violations.extend(check_history(history, completed=completed))
    if completed:
        got = sorted(r.payload for r in app.results)
        want = sorted(payloads)
        dup_injected = any(e[1] == "duplicate_delivery"
                           for e in history.fault_events)
        if got != want and not dup_injected:
            verdict.violations.append(Violation(
                "elasticity",
                f"collected results do not cover every task exactly once: "
                f"{len(got)} results for {len(want)} tasks"))
        elif dup_injected:
            phantoms = set(got) - set(want)
            if phantoms:
                verdict.violations.append(Violation(
                    "elasticity",
                    f"{len(phantoms)} result(s) match no submitted task"))
    if scaler.scale_outs < 1 and require_scaleout:
        verdict.violations.append(Violation(
            "elasticity",
            f"autoscaler never scaled out despite a backlog of "
            f"{tasks} tasks over {workers} workers"))
    ledger_violations, _ = _geo_ledger_violations(geo, [], schedule)
    verdict.violations.extend(ledger_violations)
    verdict.geo = {**geo.describe(), "autoscaler": scaler.describe()}
    if arrival is not None:
        verdict.geo["arrival"] = arrival.describe()
    verdict.counts = {
        "tasks": tasks,
        "results_collected": len(app.results),
        "initial_workers": workers,
        "peak_workers": scaler.describe()["peak_instances"],
        "scale_outs": scaler.scale_outs,
        "scale_ins": scaler.scale_ins,
        "worker_crashes": sum(1 for e in history.crash_events
                              if e[1] == "crash"),
        "worker_restarts": supervisor.restart_count,
        "audited_ops": len(history.records),
        "faults_injected": len(history.fault_events),
        "log_records": len(geo.log),
        "shipped": len(geo.replicator.ship_events),
        "completion_time": round(env.now, 3),
    }
    return verdict
