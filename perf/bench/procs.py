"""Process-level readings from ``/proc`` — CPU and peak resident memory
of the system-under-test processes, taken from outside them."""

from __future__ import annotations

import contextlib
import multiprocessing
import os

_TICK = os.sysconf("SC_CLK_TCK")


def reap(process, timeout: float = 5.0) -> None:
    """Terminate a ``multiprocessing`` child (if still alive) and wait for it."""
    if process.is_alive():
        process.terminate()
    process.join(timeout=timeout)
    if process.is_alive():  # pragma: no cover - last resort
        process.kill()
        process.join(timeout=timeout)


def stop_children() -> None:
    """Stop and wait for everything this process started, helpers included.

    The ``spawn`` start method (which ``cluster_processes`` uses) launches
    a ``multiprocessing.resource_tracker`` helper that by itself exits only
    once it notices its parent gone — that is, *after* the benchmark: a
    process left running.  Closing its pipe and waiting for it here makes
    the command's exit the end of every process it started.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        reap(child)
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    if pid is not None:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` so far (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def steal_seconds() -> float:
    """Seconds, summed over the guest's CPUs, that the hypervisor ran
    someone else while this guest had work to do (``/proc/stat`` steal)."""
    try:
        with open("/proc/stat", "rb") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0
