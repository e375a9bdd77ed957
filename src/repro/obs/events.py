"""Structured event log: NDJSON records, ring-buffered, streamable.

Every record carries the same five leading fields plus a free-form
payload::

    {"ts": ..., "replica": ..., "view": ..., "slot": ..., "kind": ..., "payload": {...}}

Field order and JSON shape are a *pinned schema* (see
``tests/test_obs_events.py``): downstream forensics tooling greps
these lines out of CI artifacts, so the encoding is canonical —
fixed key order for the envelope, sorted keys inside the payload,
compact separators, one event per line.

The log keeps the last ``capacity`` events in a ring buffer; that
tail is what gets dumped next to the WAL when a run needs forensics
(:meth:`EventLog.dump`).  With ``stream_path`` set (the
``REPRO_EVENT_LOG=1`` path), every event is also appended to an
NDJSON file as it happens, so a replica that dies mid-run still
leaves evidence.
"""

from __future__ import annotations

import json
import time
from collections import deque

#: Pinned envelope field order of one NDJSON record.
EVENT_FIELDS = ("ts", "replica", "view", "slot", "kind", "payload")

#: Event kinds the deployed stack emits today.  Free-form by design —
#: this list documents the vocabulary, it is not an enum.
KNOWN_KINDS = (
    "recover",  # restart-from-disk replay finished
    "view_enter",  # replica entered a view
    "finalize",  # block finalized/executed
    "state_transfer",  # state-transfer served or applied
    "anomaly",  # protocol anomaly (unknown frame, decode error, ...)
    "peer_lost",  # a connected peer lane lost its socket
)


def encode_event(event: dict) -> str:
    """Canonical NDJSON encoding of one event (no trailing newline)."""
    ordered = {name: event.get(name) for name in EVENT_FIELDS}
    payload = ordered["payload"] or {}
    ordered["payload"] = {k: payload[k] for k in sorted(payload)}
    return json.dumps(ordered, separators=(",", ":"))


class EventLog:
    """Ring-buffered structured event log for one replica/process."""

    def __init__(
        self,
        replica: int,
        capacity: int = 256,
        clock=time.time,
        stream_path=None,
    ) -> None:
        self.replica = replica
        self.clock = clock
        self._ring: deque = deque(maxlen=capacity)
        self._stream = None
        if stream_path is not None:
            stream_path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(stream_path, "a", encoding="utf-8")

    def emit(self, kind: str, view: int = -1, slot: int = -1, **payload) -> None:
        event = {
            "ts": round(float(self.clock()), 6),
            "replica": self.replica,
            "view": view,
            "slot": slot,
            "kind": kind,
            "payload": payload,
        }
        self._ring.append(event)
        if self._stream is not None:
            self._stream.write(encode_event(event) + "\n")
            self._stream.flush()

    @property
    def streaming(self) -> bool:
        """Whether events are being appended to an NDJSON file live."""
        return self._stream is not None

    def tail(self, n: int | None = None) -> list[dict]:
        events = list(self._ring)
        return events if n is None else events[-n:]

    def __len__(self) -> int:
        return len(self._ring)

    def dump(self, path) -> int:
        """Write the ring tail as NDJSON to ``path``; returns the count.

        This is the forensics hook: when a run trips the SafetyAuditor
        (or simply shuts down with a data dir configured), the last N
        events per replica land next to the WAL so the CI artifact
        carries them.
        """
        events = self.tail()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(encode_event(event) + "\n")
        return len(events)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None
