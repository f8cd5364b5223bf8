"""The repository benchmark: one named workload, one seed, one run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload load-queue --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  It
spreads its time over several fresh worker processes, started one after
another (each is this script with ``--worker``), and reports medians over
all their units: a process's memory layout and the core it lands on set
its speed by several per cent, and no one process should set the run's.
``--trace 1`` runs in this process: it alternates untraced and traced
units and prints the per-layer metrics; it also writes the spans of the
last traced unit as a Chrome/Perfetto trace under ``.perfbench/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every correctness check held, 1
when one failed and 2 on bad usage or a missing program.

Every timed phase is sampled for the host's speed (``hostspeed.py``),
and the end-to-end times are reported at the host's usual speed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: An untraced run starts at least this many worker processes ...
MIN_WORKERS = 3
#: ... and gives each this share of ``--seconds``.
WORKER_SHARE = 0.25
#: A run stops starting units, or workers, after this many seconds, so
#: that it ends well within the 180 s a run may take; a worker stops
#: after ``HARD_STOP_S / MIN_WORKERS``.
HARD_STOP_S = 90.0
#: Worker ``w`` numbers its units from ``w * WORKER_UNIT_STRIDE``, so the
#: workers of one run never replay the same serve-mixed schedule.
WORKER_UNIT_STRIDE = 100


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _time_units(wl, seed: int, seconds: float, trace: bool,
                sampler: hostspeed.Sampler, first_unit: int = 0,
                hard_stop_s: float = HARD_STOP_S):
    """Set up and run units until ``seconds`` are spent (at least one).

    Returns ``(units, setups, traced)``: ``setups`` holds each unit's
    set-up as a ``hostspeed.Phase``, and ``traced`` holds
    ``(unit, tracer)`` for traced runs.  Each untraced unit gets the
    ``hostspeed.Phase`` of its timed part.  Traced units are not
    sampled, so no sample lands inside a span.  The garbage of one unit
    is collected before the next is set up, so no unit pays for an
    earlier one's.
    """
    units, setups, traced = [], [], []
    start = time.perf_counter()
    spent = []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        prepared = wl.setup(seed, first_unit + len(units))
        setups.append(sampler.phase(t0, time.perf_counter()))
        unit = wl.run(prepared)
        unit.phase = sampler.phase(unit.t0, unit.t0 + unit.wall_s)
        units.append(unit)
        if trace:
            sampler.stop()
            gc.collect()
            tracer = spans.Tracer()
            prepared = wl.setup(seed, first_unit + len(units) - 1)
            inst = spans.install(tracer)
            try:
                traced.append((wl.run(prepared), tracer))
            finally:
                inst.uninstall()
                sampler.start()
        now = time.perf_counter()
        spent.append(now - t0)
        if now + statistics.median(spent) > start + seconds:
            break
        if now - start > hard_stop_s:
            break
    return units, setups, traced


def _record(u, paced: bool) -> dict:
    """What a unit leaves behind: its counts, checks and figures."""
    return {"inputs": u.inputs, "attempted": u.attempted, "ops": u.ops,
            "failed": u.failed, "simulated_errors": u.simulated_errors,
            "wall_s": u.wall_s, "digest": u.digest,
            "violations": list(u.violations),
            "latency_samples": len(u.latencies_ms),
            "factor": u.phase.factor if u.phase else None,
            "figures": metrics.unit_figures(u, paced) if u.phase else None}


def measure(wl, seed: int, seconds: float, sampler: hostspeed.Sampler,
            imported: hostspeed.Phase, first_unit: int = 0) -> dict:
    """One worker's untraced units, as plain data."""
    units, setups, _ = _time_units(wl, seed, seconds, False, sampler,
                                   first_unit, HARD_STOP_S / MIN_WORKERS)
    paced = wl.clock == "wall"
    return {
        "import_s": imported.net_wall_s,
        "setup_s": (imported.scaled(imported.net_wall_s)
                    + statistics.median(p.scaled(p.net_wall_s)
                                        for p in setups)),
        "peak_rss_mb": metrics.peak_rss_mb(),
        "gen_lag_ms": [x for u in units for x in u.gen_lag_ms],
        "units": [_record(u, paced) for u in units],
    }


def _run_workers(args) -> list:
    """Start workers one after another until ``--seconds`` are spent.

    Returns their results; a worker that fails gives ``{"error": ...}``.
    """
    results, spent = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds * WORKER_SHARE),
               "--trace", "0", "--worker", str(len(results))]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
        except subprocess.TimeoutExpired:
            results.append({"error": f"worker {len(results)} timed out"})
            break
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            results.append({"error": f"worker {len(results)} exited "
                                     f"{proc.returncode}"})
            break
        results.append(json.loads(lines[-1]))
        now = time.perf_counter()
        spent.append(now - t0)
        if (len(results) >= MIN_WORKERS
                and now + statistics.median(spent) > start + args.seconds):
            break
        if now - start > HARD_STOP_S:
            break
    return results


def _violations(wl, records) -> list:
    bad = [v for r in records for v in r["violations"]]
    bad += [f"{wl.name}: {r['failed']} failed ops" for r in records
            if r["failed"]]
    digests = {}
    for r in records:
        digests.setdefault(r["inputs"], set()).add(r["digest"])
    for inputs, seen in digests.items():
        if len(seen) != 1:
            bad.append(f"{wl.name}: units built from seed {inputs} gave "
                       f"{len(seen)} different digests")
    return bad


def _print_units(wl, args, records, gen_lag_ms) -> None:
    from workloads import implementation_knobs

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    knobs = " ".join(f"{k}={v}" for k, v in implementation_knobs().items())
    print(f"implementation knobs (defaults): {knobs}")
    for r in records:
        speed = ("" if r["factor"] is None else
                 f", host speed {r['factor']:.3f}, scaled CPU "
                 f"{r['figures']['cpu_us_per_op']:.1f} us/op")
        print(f"  unit inputs seed {r['inputs']}: {r['ops']} ops, wall "
              f"{r['wall_s']:.3f} s{speed}, digest {r['digest']}")
    r0 = records[0]
    n = r0["latency_samples"]
    print(f"latency clock {wl.clock}; {n} samples per unit; "
          f"p{metrics.TAIL_PERCENTILE} has "
          f"{int(n * (100 - metrics.TAIL_PERCENTILE) / 100)} beyond it")
    sim_err = r0["simulated_errors"]
    print(f"error_ratio {sim_err / r0['ops'] if r0['ops'] else 0.0:.6f} "
          f"({sim_err} modelled ServerBusy/throttle outcomes of "
          f"{r0['ops']})")
    if gen_lag_ms:
        print(f"gen_lag_p99_ms {metrics.percentile(gen_lag_ms, 99):.4f} "
              f"({len(gen_lag_ms)} dispatches)")


def _finish(table, values, records, bad) -> int:
    for name, unit in table:
        print(f"  {name:36s} {values[name]:.6g} {unit}")
    for v in bad:
        print(f"VIOLATION {v}")
    result = {
        "correct": not bad,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }
    print(json.dumps(result))
    return 0 if not bad else 1


def report_end_to_end(wl, args, results) -> int:
    """Print the end-to-end metrics of the workers' ``results``."""
    failed = [r["error"] for r in results if "error" in r]
    results = [r for r in results if "error" not in r]
    if not results:
        for err in failed:
            print(f"perfbench: {err}", file=sys.stderr)
        return 1
    records = [u for r in results for u in r["units"]]
    _print_units(wl, args, records,
                 [x for r in results for x in r["gen_lag_ms"]])
    for i, r in enumerate(results):
        print(f"worker {i}: {len(r['units'])} units, import "
              f"{r['import_s']:.3f} s, setup_s {r['setup_s']:.3f} s, "
              f"peak RSS {r['peak_rss_mb']:.1f} MB")
    values = metrics.end_to_end(results)
    raw = metrics.end_to_end_raw(results)
    print("as the wall clock read them, unscaled: " + ", ".join(
        f"{name} {value:.6g}" for name, value in raw.items()))
    bad = _violations(wl, records) + failed
    return _finish(metrics.END_TO_END, values, records, bad)


def report_traced(wl, args, units, traced) -> int:
    """Print the per-layer metrics of a traced run."""
    paced = wl.clock == "wall"
    records = [_record(u, paced) for u in units]
    all_records = records + [_record(u, paced) for u, _ in traced]
    _print_units(wl, args, records,
                 [x for u in units for x in u.gen_lag_ms])
    base = statistics.median(u.phase.net_wall_s for u in units)
    per_unit = []
    for unit, tracer in traced:
        merged = tracer.merged()
        per_unit.append(metrics.per_layer(merged, unit, base))
        traced_s = unit.wall_s - merged["overhead_s"]
        covered = sum(merged["layers"].values()) / traced_s
        print(f"traced unit: wall {unit.wall_s:.3f} s vs {base:.3f} s "
              f"untraced (median); tracer cost "
              f"{merged['overhead_s']:.3f} s; layer self times cover "
              f"{covered:.1%} of the rest")
    values = {name: statistics.median(m[name] for m in per_unit)
              for name, _ in metrics.PER_LAYER}
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{wl.name}.json")
    spans.write_chrome(path, traced[-1][1].chrome_events())
    print(f"chrome trace: {os.path.relpath(path, ROOT)}")
    return _finish(metrics.PER_LAYER, values, all_records,
                   _violations(wl, all_records))


def main(argv=None) -> int:
    args = _parse(argv)
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        return _main(args, sampler)
    finally:
        sampler.stop()


def _main(args, sampler: hostspeed.Sampler) -> int:
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    imported = sampler.phase(T_START, time.perf_counter())
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be > 0 and --seed >= 0",
              file=sys.stderr)
        return 2
    if args.worker is not None:
        if getattr(wl, "one_core", False):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        result = measure(wl, args.seed, args.seconds, sampler, imported,
                         first_unit=args.worker * WORKER_UNIT_STRIDE)
        print(json.dumps(result))
        return 0
    if not args.trace:
        sampler.stop()
        return report_end_to_end(wl, args, _run_workers(args))
    if getattr(wl, "one_core", False):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    units, _, traced = _time_units(wl, args.seed, args.seconds, True,
                                   sampler)
    return report_traced(wl, args, units, traced)


if __name__ == "__main__":
    sys.exit(main())
