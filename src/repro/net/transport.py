"""Asyncio TCP transport speaking the length-prefixed wire codec.

One :class:`NetTransport` per replica process: it listens on the
replica's peer port, dials every other replica, and moves encoded
frames, all in ``asyncio.Protocol`` callbacks (no task, queue or sleep
between a frame and the socket).  Design points, in the order they
matter operationally:

* **Per-peer lanes, coalesced writes** — sends never block the
  protocol state machine: each peer's frames wait in a ``deque``, and
  the lane keeps at most one loop handle scheduled (``call_soon``, or
  ``call_at`` the first frame's due time under injected latency) that
  writes every due frame in one ``write``.  Per-lane ``flushes`` /
  ``frames`` / ``bytes`` counters feed the bench layer.
* **Backpressure and loss** — past 1 MiB of unsent socket buffer the
  lane pauses and frames wait in order; past
  :data:`MAX_OUTBOUND_QUEUE` waiting frames the oldest are dropped
  (consensus tolerates loss).
* **Reconnect with backoff** — a lane that cannot connect, or loses
  its connection, redials with exponential backoff while its queue
  keeps absorbing messages, so a rebooted peer picks up from the live
  traffic without any node noticing at the protocol layer.  A peer's
  ``Hello`` on our port ends the backoff towards it: it is listening.
  A lane that had connected and lost its socket reports the peer lost
  (:meth:`NetTransport.peer_lost`, and one ``on_peer_lost`` call per
  loss, none once :meth:`NetTransport.stop` has begun) until it
  reconnects; a lane that never connected is not lost, so start-up
  order reports nothing.  The consensus node treats a lost peer that
  leads a slot as a timed-out leader (``multishot/node.py``, "View
  change"): a liveness aid only, since an honest node may ask for a
  view change at any time.
* **Injected link latency** — an optional per-link one-way delay,
  applied as a FIFO pipe (a frame is written no earlier than
  ``enqueue time + latency``): it lets the sync/geo scenarios of the
  simulated experiments carry over to localhost sockets.
* **Loopback included** — ``broadcast`` delivers to the sender too
  (a node processes its own votes, exactly as in the simulator), via
  the event loop with the same injected latency as any other link.
* **Hostile bytes** — an inbound connection that does not decode is
  closed and counted (``transport.decode_errors``).

:class:`NetContext` is the duck-typed
:class:`~repro.sim.runner.NodeContext` the transport hands a node:
wall-clock ``now`` in protocol Δ units (via ``time_scale`` seconds per
Δ) and ``loop.call_later`` timers.  Its milestone reports keep nothing — sample
lists nobody in a replica process reads would grow for as long as it is up.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.multishot.messages import VoteBatch
from repro.net.codec import (
    MAX_UNBATCHED_DEPTH,
    WIRE_CODEC,
    CodecError,
    FrameBuffer,
    Hello,
    WireCodec,
)
from repro.sim.trace import TraceKind

_LOG = logging.getLogger(__name__)

#: Reconnect backoff: first retry after INITIAL, doubling to CAP.
BACKOFF_INITIAL = 0.05
BACKOFF_CAP = 1.0

#: Outbound frames queued per peer before the oldest are dropped.  A
#: dead peer must not grow our memory without bound; consensus already
#: tolerates message loss (that is what view changes are for).
MAX_OUTBOUND_QUEUE = 65_536

#: Bytes a peer socket may buffer before its lane pauses.
WRITE_HIGH_WATER = 1 << 20


class LinkLatency:
    """Static one-way link delays: a scalar, or per-(src, dst) overrides.

    ``overrides`` maps ``(src, dst)`` pairs to seconds; missing pairs
    fall back to ``default``.  Symmetric maps list both directions.
    """

    def __init__(
        self,
        default: float = 0.0,
        overrides: dict[tuple[int, int], float] | None = None,
    ) -> None:
        if default < 0:
            raise ConfigurationError(f"link latency must be >= 0, got {default}")
        self.default = default
        self.overrides = dict(overrides or {})
        for pair, value in self.overrides.items():
            if value < 0:
                raise ConfigurationError(f"link latency for {pair} is negative")

    def of(self, src: int, dst: int) -> float:
        return self.overrides.get((src, dst), self.default)

    def as_pairs(self) -> tuple[tuple[int, int, float], ...]:
        """Picklable form for crossing the process boundary."""
        return tuple((s, d, v) for (s, d), v in sorted(self.overrides.items()))

    @classmethod
    def from_pairs(cls, default: float, pairs: tuple[tuple[int, int, float], ...]) -> "LinkLatency":
        return cls(default, {(s, d): v for s, d, v in pairs})


class _PeerLane(asyncio.Protocol):
    """Outbound state for one peer, and the protocol of its connection.

    ``frames`` holds ``(enqueue time, frame bytes)`` in send order.
    ``handle`` is the one loop callback the lane has scheduled, if any:
    the next flush while connected, the next dial while not.  The
    counters are what the bench layer reports per peer.
    """

    def __init__(self, owner: "NetTransport", peer_id: int) -> None:
        self.owner = owner
        self.peer_id = peer_id
        self.loop = owner._loop
        self.addr = owner.peers[peer_id]
        self.latency = owner.latency.of(owner.node_id, peer_id)
        self.frames: deque[tuple[float, bytes]] = deque()
        self.sock: asyncio.Transport | None = None
        self.handle: asyncio.Handle | None = None
        self.dialing: asyncio.Future | None = None
        self.paused = False
        self.backoff = BACKOFF_INITIAL
        self.dropped = 0
        self.flushes = 0
        self.frames_flushed = 0
        self.bytes_flushed = 0
        self.connects = 0

    def enqueue(self, now: float, frame: bytes) -> None:
        frames = self.frames
        if len(frames) >= MAX_OUTBOUND_QUEUE:
            frames.popleft()
            self.dropped += 1
        frames.append((now, frame))
        self._schedule()

    def _schedule(self) -> None:
        if self.handle is not None or self.sock is None or self.paused or not self.frames:
            return
        if self.latency > 0:
            self.handle = self.loop.call_at(self.frames[0][0] + self.latency, self.flush)
        else:
            self.handle = self.loop.call_soon(self.flush)

    def flush(self) -> None:
        """Write every due frame in one ``write``; re-arm for the rest."""
        self.handle = None
        sock = self.sock
        if sock is None or self.paused:
            return
        frames = self.frames
        due = self.loop.time() - self.latency
        batch = []
        while frames and frames[0][0] <= due:
            batch.append(frames.popleft()[1])
        if batch:
            data = b"".join(batch)
            self.flushes += 1
            self.frames_flushed += len(batch)
            self.bytes_flushed += len(data)
            sock.write(data)
        self._schedule()

    # -- connection ----------------------------------------------------------

    def dial(self) -> None:
        self.handle = None
        host, port = self.addr
        self.dialing = asyncio.ensure_future(self.loop.create_connection(lambda: self, host, port))
        self.dialing.add_done_callback(self._dialed)

    def _dialed(self, dialing: asyncio.Future) -> None:
        self.dialing = None
        if not dialing.cancelled() and dialing.exception() is not None:
            self._redial()

    def _redial(self) -> None:
        if self.owner._closed:
            return
        self.handle = self.loop.call_later(self.backoff, self.dial)
        self.backoff = min(self.backoff * 2, BACKOFF_CAP)

    def peer_is_up(self) -> None:
        """The peer has just dialed us, so it is listening: a pending
        backoff is cut short.  Replicas start one after another, and a
        peer that restarts would otherwise wait out up to a full
        :data:`BACKOFF_CAP` before anyone dials it."""
        if self.handle is not None and self.sock is None and self.dialing is None:
            self.handle.cancel()
            self.dial()

    def connection_made(self, transport: asyncio.Transport) -> None:
        transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        transport.write(self.owner.hello)
        self.sock = transport
        self.backoff = BACKOFF_INITIAL
        self.connects += 1
        self._schedule()

    def connection_lost(self, exc: Exception | None) -> None:
        # Frames already handed to the socket are lost with it
        # (consensus tolerates loss); the queue carries over.
        self.sock = None
        self.paused = False
        if self.handle is not None:
            self.handle.cancel()
        self._redial()
        owner = self.owner
        if not owner._closed and owner.on_peer_lost is not None:
            owner.on_peer_lost(self.peer_id)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._schedule()

    def close(self) -> None:
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None
        if self.dialing is not None:
            self.dialing.cancel()
        if self.sock is not None:
            self.sock.close()


class FrameProtocol(asyncio.Protocol):
    """A connection that reads wire frames: each chunk's decoded messages
    go to ``on_messages``; bytes that do not decode close the connection
    and call :meth:`on_decode_error` to leave the endpoint's evidence."""

    def __init__(self, codec: WireCodec) -> None:
        self.buffer = FrameBuffer(codec)
        self.sock: asyncio.Transport | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.sock = transport

    def data_received(self, data: bytes) -> None:
        try:
            messages = self.buffer.feed(data)
        except CodecError as exc:
            self.sock.close()
            self.on_decode_error(exc)
            return
        self.on_messages(messages)

    def on_decode_error(self, exc: CodecError) -> None:
        pass


class _PeerInbound(FrameProtocol):
    """One accepted peer connection: a ``Hello``, then protocol frames."""

    def __init__(self, owner: "NetTransport") -> None:
        super().__init__(owner.codec)
        self.owner = owner
        self.sender: int | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        super().connection_made(transport)
        self.owner._inbound.add(transport)

    def connection_lost(self, exc: Exception | None) -> None:
        self.owner._inbound.discard(self.sock)

    def on_decode_error(self, exc: CodecError) -> None:
        self.owner.decode_errors += 1

    def on_messages(self, messages: list) -> None:
        owner = self.owner
        sender = self.sender
        for message in messages:
            if sender is None:
                if not isinstance(message, Hello):
                    self.sock.close()  # not a peer speaking our protocol
                    return
                sender = self.sender = message.node_id
                lane = owner._lanes.get(sender)
                if lane is not None:
                    lane.peer_is_up()
                continue
            if (
                type(message) is not VoteBatch
                and owner.codec.nesting_depth(message) > MAX_UNBATCHED_DEPTH
            ):
                continue  # too deep to re-batch: only a Byzantine peer sends it
            try:
                owner.on_message(sender, message)
            except Exception:
                # A dispatch bug must be loud (the simulator fails the
                # whole run here) but one poisoned message must not
                # silently drop the rest of the decoded batch.
                _LOG.exception(
                    "node %s: dispatch of %s from peer %s failed",
                    owner.node_id,
                    type(message).__name__,
                    sender,
                )


class NetTransport:
    """Frame mover for one replica: server + per-peer outbound lanes."""

    def __init__(
        self,
        node_id: int,
        listen_host: str,
        listen_port: int,
        peers: dict[int, tuple[str, int]],
        on_message: Callable[[int, object], None],
        latency: LinkLatency | None = None,
        on_peer_lost: Callable[[int], None] | None = None,
    ) -> None:
        self.node_id = node_id
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.peers = dict(peers)
        self.on_message = on_message
        #: Called with a peer id each time a connected lane loses its
        #: socket (see :meth:`peer_lost`).
        self.on_peer_lost = on_peer_lost
        self.codec = WIRE_CODEC
        self.latency = latency if latency is not None else LinkLatency()
        self.hello = WIRE_CODEC.encode_frame(Hello(node_id))
        #: Inbound connections closed for bytes that did not decode.
        self.decode_errors = 0
        self._lanes: dict[int, _PeerLane] = {}
        self._inbound: set[asyncio.BaseTransport] = set()
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        loop = self._loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _PeerInbound(self), self.listen_host, self.listen_port
        )
        for peer_id in sorted(self.peers):
            lane = self._lanes[peer_id] = _PeerLane(self, peer_id)
            lane.dial()

    async def stop(self) -> None:
        self._closed = True
        for lane in self._lanes.values():
            lane.close()
        for sock in list(self._inbound):
            sock.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def peer_lost(self, peer: int) -> bool:
        """Whether our lane to ``peer`` had connected and is now down."""
        lane = self._lanes.get(peer)
        return lane is not None and lane.connects > 0 and lane.sock is None

    # -- sending --------------------------------------------------------------

    def send(self, dst: int, message: object) -> None:
        """Queue one message for ``dst`` (or loop it back to ourselves)."""
        if dst == self.node_id:
            self._loopback(message)
            return
        lane = self._lanes.get(dst)
        if lane is None:
            return  # unknown peer: mirrors the simulator's closed world
        lane.enqueue(self._loop.time(), self.codec.encode_frame(message))

    def broadcast(self, message: object) -> None:
        """Send to every peer and to ourselves (loopback semantics)."""
        if self._lanes:
            frame = self.codec.encode_frame(message)
            now = self._loop.time()
            for lane in self._lanes.values():
                lane.enqueue(now, frame)
        self._loopback(message)

    def publish_metrics(self, registry) -> None:
        """Write the transport's counters into an obs registry.

        Per-peer counters land under ``transport.p<peer>.*``, process
        totals under ``transport.*``, and the per-peer outbound queue
        depth — the live "queue lag" signal, frames enqueued but not
        yet on the wire — as gauges.  Called at scrape/collect time, so
        the lane hot path still bumps plain ints.
        """
        total_flushes = total_frames = total_bytes = 0
        total_dropped = total_reconnects = 0
        max_queue = 0
        for peer_id, lane in sorted(self._lanes.items()):
            prefix = f"transport.p{peer_id}"
            registry.counter(f"{prefix}.flushes").set(lane.flushes)
            registry.counter(f"{prefix}.frames").set(lane.frames_flushed)
            registry.counter(f"{prefix}.bytes").set(lane.bytes_flushed)
            registry.counter(f"{prefix}.dropped").set(lane.dropped)
            reconnects = max(0, lane.connects - 1)
            registry.counter(f"{prefix}.reconnects").set(reconnects)
            registry.gauge(f"{prefix}.queue_lag").set(len(lane.frames))
            total_flushes += lane.flushes
            total_frames += lane.frames_flushed
            total_bytes += lane.bytes_flushed
            total_dropped += lane.dropped
            total_reconnects += reconnects
            max_queue = max(max_queue, len(lane.frames))
        registry.counter("transport.flushes").set(total_flushes)
        registry.counter("transport.frames_flushed").set(total_frames)
        registry.counter("transport.bytes_flushed").set(total_bytes)
        registry.counter("transport.dropped").set(total_dropped)
        registry.counter("transport.reconnects").set(total_reconnects)
        registry.counter("transport.decode_errors").set(self.decode_errors)
        registry.gauge("transport.queue_lag").set(max_queue)

    def _loopback(self, message: object) -> None:
        delay = self.latency.of(self.node_id, self.node_id)
        loop = asyncio.get_event_loop()
        if delay > 0:
            loop.call_later(delay, self.on_message, self.node_id, message)
        else:
            loop.call_soon(self.on_message, self.node_id, message)


class _NetTimerHandle:
    """Duck-typed EventHandle over an asyncio ``TimerHandle``.

    Cancelling drops the handle from its context's live set at once, so
    a node that cancels every slot timer on finalization (most timers
    never fire) leaves nothing behind.
    """

    __slots__ = ("_handle", "_live")

    def __init__(self, handle: asyncio.TimerHandle, live: set) -> None:
        self._handle = handle
        self._live = live

    def cancel(self) -> None:
        self._handle.cancel()
        self._live.discard(self)

    @property
    def cancelled(self) -> bool:
        return self._handle.cancelled()


class NetContext:
    """Duck-typed :class:`~repro.sim.runner.NodeContext` over a transport.

    ``time_scale`` is seconds of wall clock per protocol Δ: timers a
    node arms in Δ units fire ``delay * time_scale`` seconds later, and
    ``now`` reports wall time elapsed since :meth:`start_clock` in Δ
    units, matching the simulated geometry.  ``peer_lost`` asks the
    transport whether a peer's connection went down, a capability the
    simulator's context does not have.
    """

    def __init__(self, node_id: int, transport: NetTransport, time_scale: float) -> None:
        if time_scale <= 0:
            raise ConfigurationError(f"time_scale must be positive, got {time_scale}")
        self.node_id = node_id
        self.transport = transport
        self.time_scale = time_scale
        self._t0: float | None = None
        self._timers: set[_NetTimerHandle] = set()

    def start_clock(self) -> None:
        self._t0 = asyncio.get_event_loop().time()

    @property
    def now(self) -> float:
        if self._t0 is None:
            return 0.0
        return (asyncio.get_event_loop().time() - self._t0) / self.time_scale

    # -- node-facing surface --------------------------------------------------

    def send(self, dst: int, message: object) -> None:
        self.transport.send(dst, message)

    def broadcast(self, message: object) -> None:
        self.transport.broadcast(message)

    def peer_lost(self, peer: int) -> bool:
        return self.transport.peer_lost(peer)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> _NetTimerHandle:
        def fire() -> None:
            self._timers.discard(handle)
            try:
                callback()
            except Exception:
                # The simulator propagates a timer-callback exception
                # and fails the run with a traceback; over sockets the
                # least we owe the operator is the same traceback
                # instead of a silent dead timer.
                _LOG.exception("node %s: timer callback failed", self.node_id)

        loop = asyncio.get_event_loop()
        handle = _NetTimerHandle(loop.call_later(delay * self.time_scale, fire), self._timers)
        self._timers.add(handle)
        return handle

    def cancel_timers(self) -> None:
        for handle in list(self._timers):
            handle.cancel()

    # -- milestone reporting --------------------------------------------------

    def report_decision(self, value: object) -> None:
        self.trace(TraceKind.DECIDE, value=value)

    def report_view_entry(self, view: int) -> None:
        self.trace(TraceKind.VIEW_ENTER, view=view)

    def report_storage(self, size_bytes: int) -> None:
        pass

    def trace(self, kind: TraceKind, **detail: object) -> None:
        pass
