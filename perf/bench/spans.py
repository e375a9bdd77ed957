"""In-memory span recorder for the traced pass.

A span is (name, start, end, parent, ident): ``parent`` is the index of
the span that caused it (-1 for a root) and ``ident`` the identifier
the spans of one request share — a slot number in the simulator, a
transaction index on the deployed workloads.  Spans live in typed
arrays (28 bytes each: a 15 s n=16 simulator pass records a couple of
million) and are written out once, when the run ends.

Self time — a span's duration minus the part its children cover — is
accumulated per name as spans close, so the per-layer numbers do not
need a second pass over the arrays.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter

#: Spans written to the trace file from each end of the run; the arrays
#: in memory always hold every span.
FILE_SPANS_PER_END = 100_000


class Tracer:
    """Nested spans with on-the-fly self-time accounting."""

    def __init__(self, clock=perf_counter) -> None:
        #: ``time.process_time`` where the traced code is one CPU-bound
        #: thread (simulator, layer tape): on a shared host the wall
        #: clock would charge the neighbours' time to whichever span
        #: was open when the hypervisor took the core away.
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.ident = array("q")
        # Open-span stack: [span index, seconds covered by closed children].
        self._stack: list[list] = []
        self.self_seconds: list[float] = []
        self.calls: list[int] = []

    def name(self, label: str) -> int:
        """Intern ``label``; hot paths hold the returned id."""
        nid = self._name_ids.get(label)
        if nid is None:
            nid = self._name_ids[label] = len(self.names)
            self.names.append(label)
            self.self_seconds.append(0.0)
            self.calls.append(0)
        return nid

    def begin(self, nid: int, ident: int = -1) -> None:
        stack = self._stack
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.ident.append(ident)
        self.end.append(0.0)
        stack.append([index, 0.0])
        self.start.append(self.clock())

    def finish(self) -> None:
        now = self.clock()
        index, covered = self._stack.pop()
        self.end[index] = now
        duration = now - self.start[index]
        nid = self.name_id[index]
        self.self_seconds[nid] += duration - covered
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def point(self, nid: int, at: float, until: float, ident: int, parent: int = -1) -> int:
        """Record a span whose endpoints were timed elsewhere (the
        generator-side ``due → sent → commit`` chain); returns its index."""
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.ident.append(ident)
        self.start.append(at)
        self.end.append(until)
        self.calls[nid] += 1
        return index

    def totals(self) -> dict[str, tuple[int, float]]:
        """name → (closed spans, self seconds)."""
        return {
            label: (self.calls[nid], self.self_seconds[nid])
            for label, nid in self._name_ids.items()
        }

    def snapshot(self) -> tuple[list[int], list[float]]:
        """Cumulative (calls, self seconds) per name id, for windowed deltas."""
        return list(self.calls), list(self.self_seconds)

    def write(self, path: Path, extra: dict | None = None) -> None:
        """Columnar JSON; long runs keep the head and the tail."""
        total = len(self.start)
        if total > 2 * FILE_SPANS_PER_END:
            keep = list(range(FILE_SPANS_PER_END)) + list(
                range(total - FILE_SPANS_PER_END, total)
            )
        else:
            keep = list(range(total))
        payload = {
            "spans_recorded": total,
            "spans_written": len(keep),
            "names": self.names,
            "index": keep if len(keep) != total else None,
            "name": [self.name_id[i] for i in keep],
            "start": [self.start[i] for i in keep],
            "end": [self.end[i] for i in keep],
            "parent": [self.parent[i] for i in keep],
            "ident": [self.ident[i] for i in keep],
            "self_seconds": dict(zip(self.names, self.self_seconds)),
            "calls": dict(zip(self.names, self.calls)),
        }
        payload.update(extra or {})
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
