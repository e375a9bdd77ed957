"""Host-speed calibration: a fixed kernel timed in between the work.

The hosts this benchmark runs on are shared virtual machines whose
effective speed moves by a factor of three within minutes — and not
only on the wall clock: the hypervisor's steal is only partly visible
to the guest, so the *CPU clock* inflates too.  Identical simulator
work was measured at 7 CPU-seconds and, a quarter of an hour later, at
23; over two and a half minutes, 2.5 s slices of identical work spread
over 0.75x-2.2x their median CPU time.  No clock on such a host
resolves 10% by itself.

So every CPU-clock duration the benchmark gates is divided by how slow
the host was *while it was being measured*: a fixed pure-Python kernel,
independent of the repo's code (random reads over a few MB of tuples
and dicts, set and dict writes, small allocations — the engine's kind
of memory traffic, so it suffers from a cold cache the way the engine
does), is timed on the CPU clock in between slices of the work, and
``slowdown`` is its mean time over :data:`KERNEL_REFERENCE_SECONDS`,
the time it takes on this class of host when the neighbours are quiet.
Durations are reported in reference-host seconds,
``measured / slowdown``.  Interference comes in bursts of milliseconds,
so a single kernel pass next to a slice of work says little; the mean
over the dozens of passes interleaved through a run is what cancels
(the same 2.5 s slices, corrected: 0.9x-1.35x, IQR 12%).

Two commits compared on one host see the same correction, so it
cancels in every before/after; what it removes is the host's drift
between the runs.  ``host.slowdown`` is reported with every run so the
raw numbers can be recovered.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import time
from time import process_time

from bench import procs

#: CPU seconds one kernel pass takes on the reference host (a quiet
#: 2-vCPU VM of the class the repo's numbers were recorded on) run the
#: way every workload runs it: in between work that evicted its data.
#: A different constant would suit each workload (the pass reads
#: 0.9-1.1x this beside a quiet run); only the changes between runs of
#: one workload mean anything.
KERNEL_REFERENCE_SECONDS = 0.0055
#: The same pass run back to back, its data still in cache: what the
#: quiet-host probe compares against.
KERNEL_HOT_SECONDS = 0.0028
#: What :func:`wait_for_quiet` waits for: this share of a core, at no
#: worse than this slowdown.
QUIET_AVAILABILITY = 0.7
QUIET_SLOWDOWN = 1.4
#: Seconds between two passes of the calibration process, and seconds
#: one quiet-host probe runs passes back to back.
PASS_INTERVAL = 0.08
PROBE_SECONDS = 0.25
_OBJECTS = 60_000
_READS = 4_000


class Kernel:
    """The fixed workload; building it (a few MB) is not timed."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self._objects = [(i, str(i), {i: i & 15}) for i in range(_OBJECTS)]
        self._order = [rng.randrange(_OBJECTS) for _ in range(_READS)]

    def run(self) -> int:
        table: dict[tuple[int, str], set[int]] = {}
        total = 0
        objects = self._objects
        for index in self._order:
            number, text, mapping = objects[index]
            key = (number & 1023, text)
            members = table.get(key)
            if members is None:
                members = table[key] = set()
            members.add(mapping[number])
            total += len(members) + len(text)
        return total

    def sample(self, passes: int = 1) -> float:
        """Mean CPU seconds per pass over ``passes`` passes.

        The collector is held off while the passes run: the kernel
        allocates, and a full collection it happens to trigger walks the
        *caller's* heap — beside the simulator that charged 35 ms to one
        pass in four."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = process_time()
            for _ in range(passes):
                self.run()
            return (process_time() - t0) / passes
        finally:
            if enabled:
                gc.enable()


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference host the samples ran."""
    if not samples:
        return 1.0
    return (sum(samples) / len(samples)) / KERNEL_REFERENCE_SECONDS


def _calibrate_forever(conn) -> None:
    kernel = Kernel()
    samples: list[tuple[float, float]] = []
    while not conn.poll(PASS_INTERVAL):
        samples.append((time.monotonic(), kernel.sample()))
    conn.recv()
    conn.send(samples)


class CalibrationProcess:
    """Samples the kernel beside a deployed cluster, in its own process
    (so a pass never holds up the generator's loop).

    One ~4 ms pass every :data:`PASS_INTERVAL` seconds — a twentieth of one
    core, the same in every run.  :meth:`stop` returns the slowdown over
    the passes that ran inside ``[since, until]`` on the (system-wide)
    monotonic clock.
    """

    def __init__(self) -> None:
        self._parent, child = multiprocessing.get_context("spawn").Pipe()
        self._process = multiprocessing.get_context("spawn").Process(
            target=_calibrate_forever, args=(child,), daemon=True
        )

    def start(self) -> None:
        self._process.start()

    def stop(self, since: float, until: float) -> float:
        self._parent.send("stop")
        timed = self._parent.recv() if self._parent.poll(10.0) else []
        samples = [seconds for at, seconds in timed if since <= at <= until]
        self._process.join(timeout=5.0)
        procs.reap(self._process)
        return slowdown(samples)


def wait_for_quiet(budget: float) -> tuple[float, float, float]:
    """Hold the run back while the host is at its worst.

    Probes for :data:`PROBE_SECONDS` — kernel passes back to back — and
    reads two things: what share of a core the guest actually got, and
    how slow the passes ran.  Starts as soon as the host gives at least
    :data:`QUIET_AVAILABILITY` of a core at no worse than
    :data:`QUIET_SLOWDOWN`, or when ``budget`` seconds are spent.
    Returns (seconds waited, availability, slowdown) of the last probe.
    """
    kernel = Kernel()
    started = time.monotonic()
    while True:
        wall0, cpu0 = time.monotonic(), process_time()
        passes, in_passes = 0, 0.0
        while time.monotonic() - wall0 < PROBE_SECONDS:
            in_passes += kernel.sample(4) * 4
            passes += 4
        availability = (process_time() - cpu0) / (time.monotonic() - wall0)
        slow = (in_passes / passes) / KERNEL_HOT_SECONDS
        waited = time.monotonic() - started
        if (availability >= QUIET_AVAILABILITY and slow <= QUIET_SLOWDOWN) or waited >= budget:
            return waited, availability, slow
        time.sleep(1.0)
