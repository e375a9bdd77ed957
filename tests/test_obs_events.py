"""Event-log contract: the NDJSON schema is pinned, the ring is bounded.

Forensics tooling greps these lines out of CI artifacts, so the exact
byte shape of a record — envelope key order, sorted payload keys,
compact separators — is a golden contract, like the wire codec's
frames.
"""

from __future__ import annotations

import json

from repro.obs import EVENT_FIELDS, EventLog, encode_event


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# -- golden schema pin --------------------------------------------------------


def test_event_fields_are_pinned():
    assert EVENT_FIELDS == ("ts", "replica", "view", "slot", "kind", "payload")


def test_encode_event_golden_line():
    """The exact bytes of one record: envelope order fixed, payload
    keys sorted, compact separators.  Changing this breaks every
    downstream grep — treat like a wire-format bump."""
    event = {
        "ts": 100.5,
        "replica": 2,
        "view": 1,
        "slot": 7,
        "kind": "finalize",
        "payload": {"txns": 3, "mempool": 0},
    }
    assert encode_event(event) == (
        '{"ts":100.5,"replica":2,"view":1,"slot":7,'
        '"kind":"finalize","payload":{"mempool":0,"txns":3}}'
    )


def test_emitted_records_follow_the_schema():
    log = EventLog(replica=1, clock=FakeClock(42.0))
    log.emit("view_enter", view=3, slot=0, leader=2)
    (event,) = log.tail()
    line = encode_event(event)
    decoded = json.loads(line)
    assert list(decoded) == list(EVENT_FIELDS)
    assert decoded["ts"] == 42.0
    assert decoded["replica"] == 1 and decoded["view"] == 3
    assert decoded["kind"] == "view_enter" and decoded["payload"] == {"leader": 2}


# -- ring buffer --------------------------------------------------------------


def test_ring_keeps_only_the_last_capacity_events():
    log = EventLog(replica=0, capacity=4, clock=FakeClock())
    for slot in range(10):
        log.emit("finalize", slot=slot)
    assert len(log) == 4
    assert [e["slot"] for e in log.tail()] == [6, 7, 8, 9]
    assert [e["slot"] for e in log.tail(2)] == [8, 9]


# -- dump and stream ----------------------------------------------------------


def test_dump_writes_the_ring_tail_as_ndjson(tmp_path):
    log = EventLog(replica=3, capacity=4, clock=FakeClock())
    for slot in range(6):
        log.emit("finalize", slot=slot, txns=slot)
    path = tmp_path / "sub" / "events.ndjson"
    assert log.dump(path) == 4
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert [json.loads(line)["slot"] for line in lines] == [2, 3, 4, 5]


def test_streaming_appends_every_event_live(tmp_path):
    path = tmp_path / "events.ndjson"
    log = EventLog(replica=0, clock=FakeClock(), stream_path=path)
    assert log.streaming
    log.emit("recover", slot=4, blocks=4)
    log.emit("anomaly", frame="Rogue")
    # Flushed as they happen — a SIGKILLed process still left both.
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["kind"] == "recover"
    assert json.loads(lines[1])["payload"] == {"frame": "Rogue"}
    log.close()
    assert not log.streaming
