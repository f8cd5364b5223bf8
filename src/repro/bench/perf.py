"""Performance-regression harness: kernel throughput + sweep wall-clock.

Continuous perf tracking (Rehr et al.: perf numbers are only trustworthy
when tracked over time) for the two hot layers this codebase optimizes:

* **kernel events/sec** — how fast :class:`~repro.simkit.environment.
  Environment` turns over its event loop, measured with the dominant
  sleep-then-resume pattern (``yield env.timeout(...)`` ping processes);
* **sweep wall-clock** — how long one figure campaign takes serially vs
  fanned out with :class:`~repro.bench.executor.SweepExecutor`;
* **flatness** — flock ops/sec of the queue and table mixes over a short
  and a long run; a per-op cost that grows with stored state shows as a
  long/short ratio well below 1.

:func:`run_perf` packages them into the ``BENCH_core.json`` document.
The committed copy (``benchmarks/perf/BENCH_core.json``) is the
trajectory future PRs regress against: CI re-measures and
:func:`check_regression` fails the build when kernel events/sec drops
more than ``tolerance`` (default 30%) below the committed baseline.
Absolute rates vary between machines — the committed numbers carry their
host fingerprint, and the wide tolerance absorbs runner-to-runner noise
while still catching real kernel regressions (which historically cost
2x, not 1.3x).

Simulated *numbers* are out of scope here by design: byte-identity of
figures/CSVs is enforced by the equivalence tests, so this harness only
ever measures wall-clock, never results.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "kernel_events_per_sec",
    "flock_load_metrics",
    "flatness_metrics",
    "sweep_wall_clock",
    "run_perf",
    "check_regression",
    "load_bench",
    "write_bench",
]

#: Schema 2 adds the calendar-scheduler kernel figure
#: (``kernel_calendar``) and the flock-mode scale figure (``flock``).
#: The ``flatness`` block is additive: older schema-2 documents lack it.
BENCH_SCHEMA_VERSION = 2

#: Default kernel microbenchmark shape: 100 concurrent sleepers x 2,000
#: round trips each -> ~200k events per repetition.
KERNEL_PROCS = 100
KERNEL_ROUNDS = 2000
KERNEL_REPEATS = 5


def _ping(env, rounds: int):
    for _ in range(rounds):
        yield env.timeout(1.0)


def kernel_events_per_sec(*, procs: int = KERNEL_PROCS,
                          rounds: int = KERNEL_ROUNDS,
                          repeats: int = KERNEL_REPEATS,
                          scheduler: str = "heap") -> Dict[str, float]:
    """Events/sec through the DES kernel on the sleep-then-resume path.

    Best-of-``repeats`` is reported (the standard microbenchmark defence
    against scheduler noise — the *fastest* run is the least disturbed
    measurement of the code itself).  ``scheduler`` selects the kernel
    event queue under test (heap reference or calendar).
    """
    from ..simkit import Environment

    best = 0.0
    events = 0
    for _ in range(repeats):
        env = Environment(scheduler=scheduler)
        for i in range(procs):
            env.process(_ping(env, rounds), name=f"perf-ping-{i}")
        start = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - start
        events = env.events_processed
        if elapsed > 0:
            best = max(best, events / elapsed)
    return {
        "procs": procs,
        "rounds": rounds,
        "repeats": repeats,
        "scheduler": scheduler,
        "events": events,
        "events_per_sec": round(best, 1),
    }


def flock_load_metrics(*, clients: int = 1_000_000,
                       per_client_rate: float = 0.001,
                       duration: float = 10.0,
                       flock_size: int = 8192,
                       mix: str = "queue") -> Dict[str, object]:
    """Flock-mode ops/sec + peak RSS: the million-client scale figure.

    Runs one seeded open-loop ``repro load`` of ``mix`` with the
    columnar flock path on the calendar scheduler; the offered rate is
    ``clients * per_client_rate`` ops/s.  Peak RSS is the process
    high-water mark, so run this before anything memory-hungry when the
    number matters.
    """
    from ..traffic import ArrivalSpec, LoadConfig, run_load

    config = LoadConfig(
        arrivals=ArrivalSpec(rate=per_client_rate),
        duration=duration, mix=mix, clients=clients,
        flock_size=flock_size, scheduler="calendar")
    result = run_load(config)
    res = result.resources or {}
    ops = result.aggregator.total_completions
    wall = res.get("wall_clock_s") or 0.0
    return {
        "clients": clients,
        "per_client_rate": per_client_rate,
        "duration_s": duration,
        "flock_size": flock_size,
        "ops": ops,
        "ops_per_sec": round(ops / wall, 1) if wall > 0 else None,
        "peak_rss_mb": res.get("peak_rss_mb"),
        "kernel_events_per_sec": res.get("kernel_events_per_sec"),
    }


#: Mixes and simulated durations of the flatness line.  Stored state grows
#: with the run (queue messages, table rows), so three times the duration
#: means about three times the state by the end.
FLATNESS_MIXES = ("queue", "table")
FLATNESS_DURATIONS = (10.0, 30.0)


def flatness_metrics(*, durations=FLATNESS_DURATIONS,
                     clients: int = 1_000_000,
                     per_client_rate: float = 0.001,
                     flock_size: int = 8192) -> Dict[str, object]:
    """Flock ops/sec of each mix at a short and a long duration.

    ``ratio`` is long-run over short-run ops/sec: near 1 when each op
    costs the same however much state is stored, and falling as the
    per-op cost grows with it (each run's wall time includes building
    its schedule, like the ``repro load`` figure it mirrors).
    """
    short, long_ = durations
    out: Dict[str, object] = {
        "clients": clients, "per_client_rate": per_client_rate,
        "flock_size": flock_size,
        "durations_s": [short, long_],
    }
    for mix in FLATNESS_MIXES:
        rates = [flock_load_metrics(
            clients=clients, per_client_rate=per_client_rate,
            duration=d, flock_size=flock_size, mix=mix)["ops_per_sec"]
            for d in (short, long_)]
        out[mix] = {
            "ops_per_sec": rates,
            "ratio": (round(rates[1] / rates[0], 3)
                      if rates[0] and rates[1] else None),
        }
    return out


def sweep_wall_clock(labels: List[str], scale, *,
                     jobs: int) -> Dict[str, object]:
    """Wall-clock of one sweep campaign, serial then with ``jobs`` procs.

    Each leg runs the full ``labels`` x ``scale.worker_counts`` matrix
    from scratch (no checkpoint, no shared cache), so the two legs do
    identical simulated work and the ratio is a pure scheduling number.
    """
    from .executor import SweepExecutor

    start = time.perf_counter()
    SweepExecutor(1).run_sweeps(scale, labels)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    SweepExecutor(jobs).run_sweeps(scale, labels)
    parallel_s = time.perf_counter() - start

    return {
        "labels": list(labels),
        "scale": scale.name,
        "cells": len(labels) * len(scale.worker_counts),
        "serial_s": round(serial_s, 3),
        "jobs": jobs,
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s > 0 else None,
    }


def _host() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def run_perf(*, quick: bool = False, jobs: Optional[int] = None,
             baseline: Optional[dict] = None,
             log: Callable[[str], None] = print) -> dict:
    """Measure the full perf surface and return the BENCH_core document.

    ``quick`` shrinks the sweep leg to the fig6 campaign (CI-smoke
    budget); the full run times every figure sweep.  ``baseline`` (a
    previously written document) is carried into the output so the
    trajectory stays in one file.
    """
    from .executor import default_jobs
    from .figures import QUICK_SCALE, SWEEP_BUILDERS

    if jobs is None:
        jobs = default_jobs()

    log(f"kernel: {KERNEL_PROCS} procs x {KERNEL_ROUNDS} rounds, "
        f"best of {KERNEL_REPEATS}, heap vs calendar ...")
    kernel = kernel_events_per_sec()
    log(f"kernel (heap): {kernel['events_per_sec']:,.0f} events/sec")
    kernel_calendar = kernel_events_per_sec(scheduler="calendar")
    log(f"kernel (calendar): "
        f"{kernel_calendar['events_per_sec']:,.0f} events/sec")

    if quick:
        flock = flock_load_metrics(clients=100_000, per_client_rate=0.001,
                                   duration=5.0, flock_size=2048)
    else:
        flock = flock_load_metrics()
    log(f"flock: {flock['clients']:,} clients -> "
        f"{flock['ops_per_sec']:,.0f} ops/sec at "
        f"{flock['peak_rss_mb']} MB peak RSS")

    log(f"flatness: {'/'.join(FLATNESS_MIXES)} mixes at "
        f"{FLATNESS_DURATIONS[0]:g} s and {FLATNESS_DURATIONS[1]:g} s ...")
    flatness = flatness_metrics()
    for mix in FLATNESS_MIXES:
        short, long_ = flatness[mix]["ops_per_sec"]
        log(f"flatness ({mix}): {short:,.0f} -> {long_:,.0f} ops/sec "
            f"(ratio {flatness[mix]['ratio']})")

    labels = ["fig6"] if quick else list(SWEEP_BUILDERS)
    log(f"sweep: {labels} at {QUICK_SCALE.name} scale, serial vs "
        f"--jobs {jobs} ...")
    sweeps = sweep_wall_clock(labels, QUICK_SCALE, jobs=jobs)
    log(f"sweep: serial {sweeps['serial_s']:.2f}s, "
        f"parallel {sweeps['parallel_s']:.2f}s "
        f"(speedup {sweeps['speedup']}x at jobs={jobs})")

    doc = {
        "schema": BENCH_SCHEMA_VERSION,
        "host": _host(),
        "kernel": kernel,
        "kernel_calendar": kernel_calendar,
        "flock": flock,
        "flatness": flatness,
        "sweeps": sweeps,
    }
    if baseline is not None:
        doc["baseline"] = {
            "kernel_events_per_sec":
                baseline.get("kernel", {}).get("events_per_sec"),
            "host": baseline.get("host"),
        }
        cal = baseline.get("kernel_calendar", {}).get("events_per_sec")
        if cal:
            doc["baseline"]["kernel_calendar_events_per_sec"] = cal
    return doc


def load_bench(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path!r} has BENCH schema {doc.get('schema')!r}, "
            f"expected {BENCH_SCHEMA_VERSION}")
    return doc


def write_bench(doc: dict, path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_regression(current: dict, baseline: dict, *,
                     tolerance: float = 0.30,
                     log: Callable[[str], None] = print) -> bool:
    """True when current kernel throughput is within ``tolerance`` of base.

    The gate is one-sided: faster is always fine, slower than
    ``(1 - tolerance) * baseline`` fails.  The heap kernel figure is
    mandatory; the calendar figure is gated too whenever both documents
    carry it (schema 2), so neither scheduler can silently regress.
    """
    base_rate = baseline.get("kernel", {}).get("events_per_sec")
    rate = current.get("kernel", {}).get("events_per_sec")
    if not base_rate or not rate:
        raise ValueError("both documents need kernel.events_per_sec")
    gates = [("kernel (heap)", rate, base_rate)]
    cal = current.get("kernel_calendar", {}).get("events_per_sec")
    base_cal = baseline.get("kernel_calendar", {}).get("events_per_sec")
    if cal and base_cal:
        gates.append(("kernel (calendar)", cal, base_cal))
    ok = True
    for label, cur, base in gates:
        floor = (1.0 - tolerance) * base
        good = cur >= floor
        ok = ok and good
        verdict = "ok" if good else "REGRESSION"
        log(f"{label} events/sec: {cur:,.0f} vs baseline {base:,.0f} "
            f"(floor {floor:,.0f} at -{tolerance:.0%}): {verdict}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Tiny standalone entry point (``python -m repro.bench.perf``)."""
    from ..cli import main as cli_main
    return cli_main(["perf"] + list(argv or sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
