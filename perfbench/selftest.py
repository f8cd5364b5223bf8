"""Self-test of the benchmark at a tiny size (about a minute).

Run from the root of the repository::

    python3 perfbench/selftest.py

It checks that:

* the metric tables in ``metrics.py`` match ``BENCHMARK.json``;
* every workload, shrunk, prints every named metric with its unit, both
  untraced and traced, and passes its correctness checks;
* a real untraced run starts its worker processes and passes;
* a corrupted read-back, a failed live op and a digest that differs
  between units each make the run report ``correct: false`` and exit 1;
* the command fails (exit 2, no result line) in a directory that holds
  only ``BENCHMARK.json`` and the benchmark's own files.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run  # sets up the import path to the program

import hostspeed
import metrics
import workloads
from workloads import Fig7Workload, LoadWorkload, ServeWorkload

SEED = 3


def tiny_workloads():
    return {
        "load-queue": LoadWorkload("load-queue", "queue", rate=50.0,
                                   duration=2.0),
        "load-table": LoadWorkload("load-table", "table", rate=50.0,
                                   duration=2.0),
        "paper-fig7": Fig7Workload(transactions=24, worker_counts=(1, 2)),
        "serve-mixed": ServeWorkload(rate=50.0, window_s=0.5),
    }


def run_once(wl, trace: bool):
    """One shrunk run through the real runner; (exit code, output).

    An untraced run measures two workers in this process, one after the
    other, as ``run.py`` does in fresh processes.
    """
    args = run._parse(["--workload", wl.name, "--seed", str(SEED),
                       "--seconds", "0.01", "--trace", str(int(trace))])
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        imported = sampler.phase(t0, t0)
        if trace:
            units, _, traced = run._time_units(wl, SEED, 0.01, True,
                                               sampler)
        else:
            results = [run.measure(wl, SEED, 0.01, sampler, imported,
                                   first_unit=w * run.WORKER_UNIT_STRIDE)
                       for w in range(2)]
    finally:
        sampler.stop()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if trace:
            code = run.report_traced(wl, args, units, traced)
        else:
            code = run.report_end_to_end(wl, args, results)
    return code, out.getvalue()


class CorruptReadBack(ServeWorkload):
    """Flips one byte of the first blob it downloads."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.corrupted = False

    def _execute(self, clients, s, reads) -> None:
        super()._execute(clients, s, reads)
        if (s.service, s.op) == ("blob", "download") and not self.corrupted:
            self.corrupted = True
            data = reads[s.index]
            reads[s.index] = bytes([data[0] ^ 0xFF]) + data[1:]


class FailOneOp(ServeWorkload):
    """Raises on the first op, as a server error would."""

    def _execute(self, clients, s, reads) -> None:
        if s.index == 0:
            raise RuntimeError("injected failure")
        super()._execute(clients, s, reads)


class DriftingDigest(LoadWorkload):
    """Reports a different digest from its second unit on (its second
    worker's first unit)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.units = 0

    def run(self, prepared):
        unit = super().run(prepared)
        self.units += 1
        if self.units > 1:
            unit.digest = "0" * 64
        return unit


def check_tables(problems) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in bench[key]]
        if declared != list(table):
            problems.append(f"BENCHMARK.json {key} does not match "
                            f"metrics.py")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} do not match "
                        f"{list(workloads.WORKLOADS)}")


def check_output(name, trace, code, out, problems) -> None:
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    result = json.loads(out.strip().splitlines()[-1])
    if code != 0 or result["correct"] is not True or result["failed"]:
        problems.append(f"{name} trace={trace}: exit {code}, "
                        f"correct={result['correct']}, "
                        f"failed={result['failed']}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
    for metric, unit in table:
        got = result["metrics"].get(metric, {})
        if (got.get("unit") != unit
                or not isinstance(got.get("value"), (int, float))):
            problems.append(f"{name} trace={trace}: {metric} missing or "
                            f"without unit {unit}")
        elif f"  {metric:36s} " not in out:
            problems.append(f"{name} trace={trace}: {metric} not printed")
    if not trace and any(result["metrics"][m]["value"] <= 0
                         for m, _ in table):
        problems.append(f"{name}: an end-to-end metric is not positive")


def check_violation(label, wl, problems) -> None:
    code, out = run_once(wl, trace=False)
    result = json.loads(out.strip().splitlines()[-1])
    if code != 1 or result["correct"] is not False or "VIOLATION" not in out:
        problems.append(f"{label} was not caught (exit {code})")


def check_workers(problems) -> None:
    """A real untraced run: its workers are fresh processes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-fig7",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    workers = sum(1 for line in lines if line.startswith("worker "))
    if (proc.returncode != 0 or not lines
            or json.loads(lines[-1])["correct"] is not True
            or workers < run.MIN_WORKERS):
        problems.append(f"a real untraced run failed (exit "
                        f"{proc.returncode}, {workers} workers)")


def check_bare_directory(problems) -> None:
    """Only BENCHMARK.json and perfbench/: the command must fail."""
    scratch = os.path.join(run.ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "load-queue",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("run.py succeeded without the program")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    problems = []
    check_tables(problems)
    for name, wl in tiny_workloads().items():
        for trace in (False, True):
            code, out = run_once(wl, trace)
            check_output(name, trace, code, out, problems)
            print(f"{name} trace={int(trace)}: exit {code}")
    check_violation("a corrupted read-back",
                    CorruptReadBack(rate=50.0, window_s=0.5), problems)
    check_violation("a failed live op",
                    FailOneOp(rate=50.0, window_s=0.5), problems)
    check_violation("a digest that differs between units",
                    DriftingDigest("load-queue", "queue", rate=50.0,
                                   duration=2.0), problems)
    check_workers(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
