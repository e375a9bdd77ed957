"""Load generation: seeded schedules and the open-loop pacer.

One process, one asyncio loop.  An open-loop request is sent when it
is *due*, whatever the system is doing, and every latency is timed
from that due instant — so the wait a stall imposes on later requests
is counted.  How late the generator itself ran is reported as
``gen.lateness_p99_ms``; if that is large the run measured the
generator, not the system.
"""

from __future__ import annotations

import asyncio
import random
import time


def poisson_schedule(rng: random.Random, rate: float, start: float, seconds: float) -> list[float]:
    """Due offsets of a Poisson process conditioned on its count.

    Given N arrivals in a window, a Poisson process's arrival times are
    N independent uniform draws — so drawing exactly ``rate × seconds``
    of them keeps the Poisson spacing while pinning the attempted count,
    which takes the arrival-count noise (±2% at these sizes) out of
    ``commit_tps``.
    """
    count = int(round(rate * seconds))
    return sorted(start + rng.random() * seconds for _ in range(count))


def fixed_schedule(rate: float, start: float, seconds: float) -> list[float]:
    count = int(round(rate * seconds))
    return [start + k / rate for k in range(count)]


async def pace(t0: float, offsets: list[float], send) -> list[float]:
    """Call ``send(index)`` at ``t0 + offsets[index]``; returns how late
    each call was made, in seconds."""
    lateness = []
    for index, offset in enumerate(offsets):
        due = t0 + offset
        wait = due - time.monotonic()
        if wait > 0:
            await asyncio.sleep(wait)
        lateness.append(max(0.0, time.monotonic() - due))
        send(index)
    return lateness
