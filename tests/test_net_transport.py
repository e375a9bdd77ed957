"""TCP transport behaviour: delivery, loopback, reconnect, latency.

In-process tests (real sockets on localhost, no subprocesses): each
test builds a couple of :class:`~repro.net.transport.NetTransport`
instances inside one event loop and checks the properties the
deployed cluster leans on — ordered peer delivery, loopback broadcast
semantics, queue-and-reconnect when a peer is late or restarts, and
FIFO-pipe latency injection.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

import pytest

from repro.core.messages import Proposal, ViewChange
from repro.errors import ConfigurationError
from repro.baselines.chained import SlotMessage
from repro.multishot.messages import MSVote, VoteBatch
from repro.net.cluster import allocate_ports
from repro.net import transport as transport_module
from repro.net.codec import MAX_UNBATCHED_DEPTH, WIRE_CODEC, FrameBuffer, Hello
from repro.net.transport import LinkLatency, NetContext, NetTransport
from repro.obs import MetricsRegistry

HOST = "127.0.0.1"


async def _wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached within timeout")


def _pair(ports, inboxes, latency=None):
    """Two wired transports whose messages land in per-node inboxes."""
    transports = []
    for node_id in (0, 1):
        peer = 1 - node_id
        transports.append(
            NetTransport(
                node_id,
                HOST,
                ports[node_id],
                {peer: (HOST, ports[peer])},
                lambda sender, msg, nid=node_id: inboxes[nid].append((sender, msg)),
                latency=latency,
            )
        )
    return transports


def test_send_and_broadcast_deliver_in_order():
    inboxes = {0: [], 1: []}
    ports = allocate_ports(2)

    async def scenario():
        a, b = _pair(ports, inboxes)
        await a.start()
        await b.start()
        try:
            for view in range(20):
                a.send(1, ViewChange(view))
            b.broadcast(Proposal(1, "x"))
            # Node 1 expects the 20 sends plus its own loopback copy.
            await _wait_for(lambda: len(inboxes[1]) == 21 and len(inboxes[0]) >= 1)
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(scenario())
    # Peer delivery preserves per-link FIFO order.
    from_a = [entry for entry in inboxes[1] if entry[0] == 0]
    assert from_a == [(0, ViewChange(view)) for view in range(20)]
    # Broadcast includes the sender (loopback) and reaches the peer.
    assert (1, Proposal(1, "x")) in inboxes[0]
    assert (1, Proposal(1, "x")) in inboxes[1]


def test_messages_queue_until_a_late_peer_arrives():
    """Reconnect-with-backoff: sends before the peer listens still land."""
    inboxes = {0: [], 1: []}
    ports = allocate_ports(2)

    async def scenario():
        a, b = _pair(ports, inboxes)
        await a.start()
        try:
            for view in range(5):
                a.send(1, ViewChange(view))
            await asyncio.sleep(0.2)  # several failed dials happen here
            await b.start()
            await _wait_for(lambda: len(inboxes[1]) == 5)
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(scenario())
    assert inboxes[1] == [(0, ViewChange(view)) for view in range(5)]


def test_a_peer_that_dials_in_ends_the_backoff_towards_it(monkeypatch):
    """Once the late peer dials us it is listening, so our lane to it
    dials at once instead of waiting out its (here 30 s) backoff."""
    monkeypatch.setattr(transport_module, "BACKOFF_INITIAL", 30.0)
    inboxes = {0: [], 1: []}
    ports = allocate_ports(2)

    async def scenario():
        a, b = _pair(ports, inboxes)
        await a.start()
        try:
            lane = a._lanes[1]
            await _wait_for(lambda: lane.handle is not None)  # the first dial failed
            a.send(1, ViewChange(1))
            await b.start()
            await _wait_for(lambda: inboxes[1] == [(0, ViewChange(1))])
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(scenario())


def test_injected_latency_delays_delivery():
    inboxes = {0: [], 1: []}
    ports = allocate_ports(2)
    latency = LinkLatency(0.15)

    async def scenario():
        a, b = _pair(ports, inboxes, latency=latency)
        await a.start()
        await b.start()
        try:
            await asyncio.sleep(0.1)  # let the lanes connect first
            t0 = time.monotonic()
            a.send(1, ViewChange(1))
            await _wait_for(lambda: inboxes[1])
            return time.monotonic() - t0
        finally:
            await a.stop()
            await b.stop()

    elapsed = asyncio.run(scenario())
    assert elapsed >= 0.14, elapsed


def test_loopback_send_to_self():
    inboxes = {0: [], 1: []}
    ports = allocate_ports(2)

    async def scenario():
        a, _b = _pair(ports, inboxes)
        # No start() needed: loopback never touches a socket.
        a.send(0, ViewChange(3))
        await _wait_for(lambda: inboxes[0])

    asyncio.run(scenario())
    assert inboxes[0] == [(0, ViewChange(3))]


def test_vote_batch_frames_cross_the_socket_as_one_unit():
    """An aggregated frame arrives as a single envelope, not unpacked
    by the transport: unbatching is the receiving engine's job."""
    inboxes = {0: [], 1: []}
    ports = allocate_ports(2)
    batch = VoteBatch((MSVote(1, 0, "aa"), MSVote(2, 0, "bb"), MSVote(3, 0, "cc")))

    async def scenario():
        a, b = _pair(ports, inboxes)
        await a.start()
        await b.start()
        try:
            # A burst queued before/while the lane connects exercises
            # the coalesced (writev-style) drain path on the writer.
            for _ in range(4):
                a.send(1, batch)
            await _wait_for(lambda: len(inboxes[1]) == 4)
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(scenario())
    assert inboxes[1] == [(0, batch)] * 4


def _nested(levels: int) -> object:
    value: object = 7
    for _ in range(levels):
        value = (value,)
    return value


def test_a_bare_message_too_deep_to_rebatch_is_dropped():
    """Outside a VoteBatch a peer message must leave the batch's two
    levels free; anything deeper could not be relayed or re-proposed in
    a batch, so the reader drops it and delivers the rest."""
    inboxes = {0: [], 1: []}
    ports = allocate_ports(2)
    fits = SlotMessage(1, _nested(MAX_UNBATCHED_DEPTH - 1))
    too_deep = SlotMessage(2, _nested(MAX_UNBATCHED_DEPTH))
    vote = MSVote(3, 0, "cc")

    async def scenario():
        a, b = _pair(ports, inboxes)
        await a.start()
        await b.start()
        try:
            for message in (fits, too_deep, vote):
                a.send(1, message)
            await _wait_for(lambda: inboxes[1] and inboxes[1][-1] == (0, vote))
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(scenario())
    assert inboxes[1] == [(0, fits), (0, vote)]


def test_link_latency_validation_and_pairs():
    with pytest.raises(ConfigurationError):
        LinkLatency(-0.1)
    with pytest.raises(ConfigurationError):
        LinkLatency(0.0, {(0, 1): -1.0})
    latency = LinkLatency(0.01, {(0, 1): 0.5, (1, 0): 0.25})
    assert latency.of(0, 1) == 0.5
    assert latency.of(1, 0) == 0.25
    assert latency.of(0, 2) == 0.01
    rebuilt = LinkLatency.from_pairs(latency.default, latency.as_pairs())
    assert rebuilt.of(0, 1) == 0.5 and rebuilt.of(0, 2) == 0.01


def test_net_context_clock_and_timers():
    async def scenario():
        transport = NetTransport(0, HOST, allocate_ports(1)[0], {}, lambda s, m: None)
        ctx = NetContext(0, transport, time_scale=0.05)
        assert ctx.now == 0.0  # clock not started yet
        ctx.start_clock()
        fired: list[float] = []
        handle = ctx.set_timer(1.0, lambda: fired.append(ctx.now))  # 1Δ = 50ms
        cancelled = ctx.set_timer(10.0, lambda: fired.append(-1.0))
        cancelled.cancel()
        cancelled.cancel()  # a second cancel is a no-op, as in the simulator
        assert cancelled.cancelled
        await _wait_for(lambda: fired)
        assert not handle.cancelled
        # The timer fired around 1Δ of wall time, and `now` runs in Δ.
        assert 0.8 <= fired[0] <= 5.0
        await asyncio.sleep(0.02)
        assert -1.0 not in fired
        assert not ctx._timers  # fired and cancelled handles both left the live set

    asyncio.run(scenario())


def _timer_context() -> NetContext:
    transport = NetTransport(0, HOST, allocate_ports(1)[0], {}, lambda s, m: None)
    return NetContext(0, transport, time_scale=0.001)  # 1Δ = 1 ms


def test_cancel_timers_stops_every_pending_timer():
    async def scenario():
        ctx = _timer_context()
        fired: list[int] = []
        handles = [ctx.set_timer(1.0 + k, lambda k=k: fired.append(k)) for k in range(20)]
        ctx.cancel_timers()
        assert all(handle.cancelled for handle in handles)
        assert not ctx._timers
        await asyncio.sleep(0.05)
        assert fired == []

    asyncio.run(scenario())


def test_arm_and_cancel_cycles_leave_no_live_timer():
    """A node cancels every slot timer when the slot finalizes, so most
    timers never fire: cancelling must drop the handle, not just firing."""

    async def scenario():
        ctx = _timer_context()
        for _ in range(10_000):
            ctx.set_timer(1000.0, lambda: None).cancel()
        assert not ctx._timers

    asyncio.run(scenario())


def test_raising_timer_callback_is_logged_with_its_traceback(caplog):
    def boom() -> None:
        raise RuntimeError("timer boom")

    async def scenario():
        ctx = _timer_context()
        fired: list[bool] = []
        ctx.set_timer(1.0, boom)
        ctx.set_timer(2.0, lambda: fired.append(True))
        await _wait_for(lambda: fired)  # the loop runs on after the failure
        assert not ctx._timers

    with caplog.at_level("ERROR", logger="repro.net.transport"):
        asyncio.run(scenario())
    [record] = [r for r in caplog.records if "timer callback failed" in r.getMessage()]
    assert record.exc_info is not None and record.exc_info[0] is RuntimeError
    assert "timer boom" in caplog.text


def test_net_context_rejects_bad_time_scale():
    transport = NetTransport(0, HOST, allocate_ports(1)[0], {}, lambda s, m: None)
    with pytest.raises(ConfigurationError):
        NetContext(0, transport, time_scale=0.0)


# -- flush counters ------------------------------------------------------------


def test_flush_stats_report_per_peer_counters():
    """Ten frames enqueued in one tick arrive in order; the scrape
    counts every frame, at most one write per frame (the wakeup drain
    may merge them), and nothing about holding."""
    inboxes = {0: [], 1: []}
    ports = allocate_ports(2)
    registry = MetricsRegistry()

    async def scenario():
        a, b = _pair(ports, inboxes)
        await a.start()
        await b.start()
        try:
            for k in range(10):
                a.send(1, MSVote(k, 0, "aa"))
            await _wait_for(lambda: len(inboxes[1]) == 10)
            a.publish_metrics(registry)
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(scenario())
    assert inboxes[1] == [(0, MSVote(k, 0, "aa")) for k in range(10)]
    scrape = registry.snapshot()
    assert scrape["transport.frames_flushed"] == scrape["transport.p1.frames"] == 10
    assert 0 < scrape["transport.flushes"] <= 10
    assert scrape["transport.bytes_flushed"] > 0
    assert not [name for name in scrape if "held" in name]


# -- callback I/O: coalescing, latency, backpressure, hostile bytes ------------

#: Four bytes of length, then a body that is no wire frame.
GARBAGE = b"\x00\x00\x00\x05" + b"\xff" * 5


class _CountingLoop:
    """Stands in for a lane's loop and counts the callbacks the lane has
    scheduled that neither ran nor were cancelled yet."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self.live: set[object] = set()
        self.peak = 0

    def __getattr__(self, name: str):
        return getattr(self._loop, name)

    def _track(self, schedule, *args):
        *head, callback = args
        token = object()
        self.live.add(token)
        self.peak = max(self.peak, len(self.live))

        def fire() -> None:
            self.live.discard(token)
            callback()

        handle = schedule(*head, fire)
        live = self.live

        class _Handle:
            def cancel(self) -> None:
                handle.cancel()
                live.discard(token)

        return _Handle()

    def call_soon(self, callback):
        return self._track(self._loop.call_soon, callback)

    def call_at(self, when, callback):
        return self._track(self._loop.call_at, when, callback)

    def call_later(self, delay, callback):
        return self._track(self._loop.call_later, delay, callback)


def test_one_tick_of_sends_leaves_in_one_flush_in_order():
    inboxes = {0: [], 1: []}
    ports = allocate_ports(2)
    votes = [MSVote(k, 0, "aa") for k in range(1000)]

    async def scenario():
        a, b = _pair(ports, inboxes)
        await a.start()
        await b.start()
        lane = a._lanes[1]
        try:
            await _wait_for(lambda: lane.sock is not None)
            for vote in votes:
                a.send(1, vote)
            await _wait_for(lambda: len(inboxes[1]) == len(votes))
            return lane.flushes, lane.frames_flushed
        finally:
            await a.stop()
            await b.stop()

    flushes, frames = asyncio.run(scenario())
    assert inboxes[1] == [(0, vote) for vote in votes]
    assert (flushes, frames) == (1, 1000)


def test_latency_holds_every_frame_its_full_delay_with_one_handle_per_lane():
    latency = 0.005
    arrivals: list[tuple[object, float]] = []
    ports = allocate_ports(2)

    async def scenario():
        loop = asyncio.get_running_loop()
        link = LinkLatency(latency)
        a = NetTransport(0, HOST, ports[0], {1: (HOST, ports[1])}, lambda s, m: None, latency=link)
        b = NetTransport(1, HOST, ports[1], {}, lambda s, m: arrivals.append((m, loop.time())))
        await a.start()
        await b.start()
        lane = a._lanes[1]
        counting = lane.loop = _CountingLoop(loop)
        sent: dict[object, float] = {}
        try:
            await _wait_for(lambda: lane.sock is not None)
            for k in range(40):
                for j in range(k % 3 + 1):  # bursts of 1-3 frames per tick
                    vote = MSVote(k, j, "aa")
                    sent[vote] = loop.time()
                    a.send(1, vote)
                await asyncio.sleep(0.001 * (k % 4))
            await _wait_for(lambda: len(arrivals) == len(sent))
        finally:
            await a.stop()
            await b.stop()
        return sent, counting.peak

    sent, peak = asyncio.run(scenario())
    assert [message for message, _ in arrivals] == list(sent)
    assert all(at >= sent[message] + latency for message, at in arrivals)
    assert peak == 1


class _StalledPeer(asyncio.Protocol):
    """A peer that accepts and then stops reading until told to resume."""

    def __init__(self) -> None:
        self.sock: asyncio.Transport | None = None
        self.received = bytearray()

    def connection_made(self, transport) -> None:
        self.sock = transport
        transport.pause_reading()

    def data_received(self, data: bytes) -> None:
        self.received += data


def test_a_peer_that_stops_reading_pauses_its_lane_and_loses_nothing(monkeypatch):
    """The lane pauses at the 1 MiB high-water mark; frames sent while
    it is paused wait in order (the oldest dropped only past
    MAX_OUTBOUND_QUEUE) and all of them arrive after the peer resumes."""
    monkeypatch.setattr(transport_module, "MAX_OUTBOUND_QUEUE", 16)
    ports = allocate_ports(2)
    payload = "x" * 65536
    peer = _StalledPeer()
    buffered_at_pause: list[int] = []
    pause_writing = transport_module._PeerLane.pause_writing

    def record_pause(lane) -> None:
        buffered_at_pause.append(lane.sock.get_write_buffer_size())
        pause_writing(lane)

    monkeypatch.setattr(transport_module._PeerLane, "pause_writing", record_pause)

    async def scenario():
        loop = asyncio.get_running_loop()
        server = await loop.create_server(lambda: peer, HOST, ports[1])
        a = NetTransport(0, HOST, ports[0], {1: (HOST, ports[1])}, lambda s, m: None)
        await a.start()
        lane = a._lanes[1]
        try:
            await _wait_for(lambda: lane.sock is not None)
            assert lane.sock.get_write_buffer_limits()[1] == 1 << 20
            before: list[object] = []
            while not lane.paused and len(before) < 4096:
                for _ in range(8):
                    message = Proposal(len(before), payload)
                    before.append(message)
                    a.send(1, message)
                await asyncio.sleep(0)
            assert lane.paused and lane.dropped == 0
            flushes = lane.flushes
            queued = [ViewChange(view) for view in range(19)]
            for message in queued:
                a.send(1, message)
            await asyncio.sleep(0.05)
            assert lane.flushes == flushes  # nothing written while paused
            assert [frame for _, frame in lane.frames] == [
                WIRE_CODEC.encode_frame(message) for message in queued[3:]
            ]
            assert lane.dropped == 3
            peer.sock.resume_reading()
            expected = [Hello(0), *before, *queued[3:]]
            received: list[object] = []

            def drained() -> bool:
                received[:] = FrameBuffer(WIRE_CODEC).feed(bytes(peer.received))
                return len(received) == len(expected)

            await _wait_for(drained, timeout=20.0)
            assert not lane.paused and lane.dropped == 3
            return received, expected
        finally:
            await a.stop()
            peer.sock.close()
            server.close()
            await server.wait_closed()

    received, expected = asyncio.run(scenario())
    assert buffered_at_pause and buffered_at_pause[0] > 1 << 20
    assert received == expected


def test_an_undecodable_peer_connection_is_closed_and_counted():
    inboxes = {0: [], 1: []}
    ports = allocate_ports(2)
    registry = MetricsRegistry()

    async def scenario():
        a, b = _pair(ports, inboxes)
        await a.start()
        await b.start()
        try:
            reader, writer = await asyncio.open_connection(HOST, ports[1])
            writer.write(WIRE_CODEC.encode_frame(Hello(0)) + GARBAGE)
            assert await asyncio.wait_for(reader.read(), 5.0) == b""  # closed on us
            writer.close()
            assert b.decode_errors == 1
            # Another connection from the same peer is served as before.
            a.send(1, ViewChange(7))
            await _wait_for(lambda: inboxes[1] == [(0, ViewChange(7))])
            b.publish_metrics(registry)
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(scenario())
    assert registry.snapshot()["transport.decode_errors"] == 1


def test_the_replica_plane_has_one_io_style():
    """Everything under ``repro/net`` does its socket I/O through
    ``asyncio.Protocol`` callbacks: no stream objects, no queues."""
    forbidden = ("asyncio.Queue", "open_connection", "start_server", "StreamReader", "StreamWriter")
    net_dir = Path(transport_module.__file__).parent
    found = [
        f"{path.name}: {name}"
        for path in sorted(net_dir.glob("*.py"))
        for name in forbidden
        if name in path.read_text(encoding="utf-8")
    ]
    assert found == []
