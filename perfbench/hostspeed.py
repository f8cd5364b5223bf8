"""Host speed, sampled during every timed phase of a run.

The benchmark shares a few cores with other tenants, and the speed of
those cores changes by up to a factor of two from one second or minute
to the next (see README.md, "Measured").  A wall time taken on such a
host moves with the neighbours as much as with the program.

So while a run times its phases, a ``SIGALRM`` timer interrupts the main
thread every ``PERIOD_S`` and runs :func:`reference`, a fixed piece of
pure-Python work that belongs to the benchmark, not to the program: it
makes objects, fills a dict and a heap, drives a generator, the same
interpreter paths the program's DES and services take.  A phase's
*speed factor* is the mean of the reference's times in that phase over
``NOMINAL_S``, its time at this host's usual speed.  The mean, not the
median: the host's slow spells are short and deep, and the program
pays for each of them in full.  A time-based
metric is divided by that factor (a rate multiplied), and the
reference's own time is first taken out of the phase.  A change to the
program moves the phase's time but not the reference, so it still
shows in full; a slow spell of the host moves both, and cancels.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import List, Tuple

#: Seconds between two samples of the reference.  Samples this dense
#: follow the host's slow spells; one sample takes about 0.2 ms, so they
#: use about 2% of a phase, which is taken out of it.
PERIOD_S = 0.01
#: The reference's mean time, in seconds, when sampled inside a run on
#: a 2-core shared VM at its usual speed.  Only the scale of the
#: normalised figures depends on it, not their spread.
NOMINAL_S = 0.00022
#: A phase that caught fewer samples than this gets the rest taken right
#: after it, so every factor rests on a few samples.
MIN_SAMPLES = 3
#: Items the reference handles per sample.
REFERENCE_ITEMS = 150


class _Item:
    __slots__ = ("key", "name", "link")

    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name
        self.link = None


def _counter(n: int):
    total = 0
    for i in range(n):
        got = yield i
        total += got or 0
    return total


def reference(n: int = REFERENCE_ITEMS) -> int:
    """A fixed amount of pure-Python work; returns a checksum."""
    by_name = {}
    heap: List[Tuple[int, int]] = []
    items = []
    for i in range(n):
        item = _Item(i, str(i))
        by_name[item.name] = item
        heapq.heappush(heap, (i * 7919 % n, i))
        items.append(item)
    gen = _counter(n)
    next(gen)
    try:
        for i in range(n):
            gen.send(i)
    except StopIteration:
        pass
    total = 0
    while heap:
        _, i = heapq.heappop(heap)
        total += by_name[str(i)].key
    return total


def _timed_reference() -> Tuple[float, float, float]:
    """(start, wall seconds, CPU seconds) of one reference sample.

    The collector is held off during the sample, so a collection of the
    program's heap is never charged to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = perf_counter(), process_time()
        reference()
        return w0, perf_counter() - w0, process_time() - c0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Phase:
    """One timed phase, with the host's speed during it."""

    #: Phase wall seconds less the samples taken inside it.
    net_wall_s: float
    #: CPU seconds the samples inside the phase used.
    sample_cpu_s: float
    #: Mean reference time over ``NOMINAL_S``: above 1 on a slow host.
    factor: float
    samples: int

    def scaled(self, seconds: float) -> float:
        """``seconds`` as they would read at the host's usual speed."""
        return seconds / self.factor


class Sampler:
    """Samples the reference every ``PERIOD_S`` while it runs.

    Only the main thread receives the signal, so the sample always runs
    on the core the main thread is on, between two of its bytecodes.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None
        self.running = False

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(_timed_reference())

    def start(self) -> None:
        if self.running:
            return
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self.running = True

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.running = False

    def phase(self, start: float, end: float) -> Phase:
        """The phase from ``start`` to ``end`` (``perf_counter`` times)."""
        inside = [s for s in self.samples if start <= s[0] < end]
        extra = [_timed_reference()
                 for _ in range(MIN_SAMPLES - len(inside))]
        times = [s[1] for s in inside + extra]
        return Phase(net_wall_s=end - start - sum(s[1] for s in inside),
                     sample_cpu_s=sum(s[2] for s in inside),
                     factor=statistics.fmean(times) / NOMINAL_S,
                     samples=len(inside))
