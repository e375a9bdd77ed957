"""Asyncio TCP transport speaking the length-prefixed wire codec.

One :class:`NetTransport` per replica process: it listens on the
replica's peer port, dials every other replica, and moves encoded
frames.  Design points, in the order they matter operationally:

* **Per-peer outbound queues** — sends never block the protocol state
  machine; each peer has a queue drained by its own writer task.
* **Coalesced writes** — each writer wakeup drains every already-due
  frame in its queue into a single ``writev``-style buffer and hands
  the socket one write, so a burst of aggregated vote frames costs one
  syscall, not one per frame.  A frame leaves on the first wakeup
  after it is due.  Per-lane ``flushes`` / ``frames`` / ``bytes``
  counters feed the bench layer through ``CollectReply``.
* **Reconnect with backoff** — replicas start at different instants
  and may crash mid-run; a writer that cannot connect (or loses its
  connection) retries with exponential backoff while its queue keeps
  absorbing messages, so a rebooted peer picks up from the live
  traffic without any node noticing at the protocol layer.
* **Injected link latency** — an optional per-link one-way delay,
  applied as a FIFO pipe (each frame is written no earlier than
  ``enqueue time + latency``): localhost RTTs are tens of
  microseconds, far below any interesting Δ geometry, and the
  injected delay is what lets the sync/geo scenarios of the simulated
  experiments carry over to real sockets.
* **Loopback included** — ``broadcast`` delivers to the sender too
  (a node processes its own votes, exactly as in the simulator), via
  the event loop with the same injected latency as any other link.

:class:`NetContext` is the duck-typed
:class:`~repro.sim.runner.NodeContext` the transport hands a node:
wall-clock ``now`` in protocol Δ units (via ``time_scale`` seconds per
Δ) and ``loop.call_later`` timers.  Its milestone reports keep nothing — sample
lists nobody in a replica process reads would grow for as long as it is up.
"""

from __future__ import annotations

import asyncio
import logging
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


class _PeerLane:
    """Outbound state for one peer: queue + reconnecting writer task.

    Queue entries are ``(enqueue time, frame bytes)``; the counters are
    what the bench layer reports per peer.
    """

    __slots__ = (
        "queue",
        "task",
        "dropped",
        "flushes",
        "frames_flushed",
        "bytes_flushed",
        "connects",
    )

    def __init__(self) -> None:
        self.queue: asyncio.Queue[tuple[float, bytes]] = asyncio.Queue()
        self.task: asyncio.Task | None = None
        self.dropped = 0
        self.flushes = 0
        self.frames_flushed = 0
        self.bytes_flushed = 0
        self.connects = 0


class NetTransport:
    """Frame mover for one replica: server + per-peer outbound lanes."""

    def __init__(
        self,
        node_id: int,
        listen_host: str,
        listen_port: int,
        peers: dict[int, tuple[str, int]],
        on_message: Callable[[int, object], None],
        codec: WireCodec = WIRE_CODEC,
        latency: LinkLatency | None = None,
    ) -> None:
        self.node_id = node_id
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.peers = dict(peers)
        self.on_message = on_message
        self.codec = codec
        self.latency = latency if latency is not None else LinkLatency()
        self._lanes: dict[int, _PeerLane] = {}
        self._server: asyncio.Server | None = None
        self._reader_tasks: set[asyncio.Task] = set()
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_peer_connection, self.listen_host, self.listen_port
        )
        for peer_id in self.peers:
            lane = _PeerLane()
            lane.task = asyncio.ensure_future(self._writer(peer_id, lane))
            self._lanes[peer_id] = lane

    async def stop(self) -> None:
        self._closed = True
        for lane in self._lanes.values():
            if lane.task is not None:
                lane.task.cancel()
        for task in list(self._reader_tasks):
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- sending --------------------------------------------------------------

    def send(self, dst: int, message: object) -> None:
        """Queue one message for ``dst`` (or loop it back to ourselves)."""
        if dst == self.node_id:
            self._loopback(message)
            return
        lane = self._lanes.get(dst)
        if lane is None:
            return  # unknown peer: mirrors the simulator's closed world
        if lane.queue.qsize() >= MAX_OUTBOUND_QUEUE:
            lane.queue.get_nowait()
            lane.dropped += 1
        loop = asyncio.get_event_loop()
        lane.queue.put_nowait((loop.time(), self.codec.encode_frame(message)))

    def broadcast(self, message: object) -> None:
        """Send to every peer and to ourselves (loopback semantics)."""
        frame: bytes | None = None
        loop = asyncio.get_event_loop()
        for dst in sorted(self.peers):
            lane = self._lanes.get(dst)
            if lane is None:
                continue
            if frame is None:
                frame = self.codec.encode_frame(message)
            if lane.queue.qsize() >= MAX_OUTBOUND_QUEUE:
                lane.queue.get_nowait()
                lane.dropped += 1
            lane.queue.put_nowait((loop.time(), frame))
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
            registry.gauge(f"{prefix}.queue_lag").set(lane.queue.qsize())
            total_flushes += lane.flushes
            total_frames += lane.frames_flushed
            total_bytes += lane.bytes_flushed
            total_dropped += lane.dropped
            total_reconnects += reconnects
            max_queue = max(max_queue, lane.queue.qsize())
        registry.counter("transport.flushes").set(total_flushes)
        registry.counter("transport.frames_flushed").set(total_frames)
        registry.counter("transport.bytes_flushed").set(total_bytes)
        registry.counter("transport.dropped").set(total_dropped)
        registry.counter("transport.reconnects").set(total_reconnects)
        registry.gauge("transport.queue_lag").set(max_queue)

    def _loopback(self, message: object) -> None:
        delay = self.latency.of(self.node_id, self.node_id)
        loop = asyncio.get_event_loop()
        if delay > 0:
            loop.call_later(delay, self.on_message, self.node_id, message)
        else:
            loop.call_soon(self.on_message, self.node_id, message)

    # -- outbound lanes -------------------------------------------------------

    async def _writer(self, peer_id: int, lane: _PeerLane) -> None:
        """Drain one peer's queue over a connection that self-heals."""
        host, port = self.peers[peer_id]
        latency = self.latency.of(self.node_id, peer_id)
        hello = self.codec.encode_frame(Hello(self.node_id))
        backoff = BACKOFF_INITIAL
        reconnect_delay = 0.0
        pending: tuple[float, bytes] | None = None
        while not self._closed:
            if reconnect_delay > 0:
                await asyncio.sleep(reconnect_delay)
                reconnect_delay = 0.0
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, BACKOFF_CAP)
                continue
            try:
                writer.write(hello)
                await writer.drain()
                # Only a landed handshake proves the link is real: a
                # listener that accepts and immediately resets must
                # keep escalating the backoff, not spin at full speed.
                backoff = BACKOFF_INITIAL
                lane.connects += 1
                loop = asyncio.get_event_loop()
                queue = lane.queue
                while True:
                    if pending is None:
                        pending = await lane.queue.get()
                    enqueued, frame = pending
                    if latency > 0:
                        wait = enqueued + latency - loop.time()
                        if wait > 0:
                            await asyncio.sleep(wait)
                    if writer.is_closing():
                        break  # peer went away: keep the frame, reconnect
                    # Coalesce every other already-due frame into the
                    # same write: one writev-style buffer per wakeup
                    # instead of one write per frame.  The first
                    # not-yet-due frame stays pending for the next
                    # wakeup, so injected latency is still a FIFO pipe.
                    pending = None
                    batch = bytearray(frame)
                    frames = 1
                    due_before = loop.time() - latency
                    while not queue.empty():
                        nxt = queue.get_nowait()
                        if latency > 0 and nxt[0] > due_before:
                            pending = nxt
                            break
                        batch.extend(nxt[1])
                        frames += 1
                    lane.flushes += 1
                    lane.frames_flushed += frames
                    lane.bytes_flushed += len(batch)
                    writer.write(batch)
                    if writer.transport.get_write_buffer_size() > 1 << 20:
                        await writer.drain()
            except (OSError, ConnectionError):
                # Connection lost mid-write: the frame in flight is
                # dropped (consensus tolerates loss); pause one backoff
                # step, then reconnect and carry on with the queue.
                pending = None
                reconnect_delay = backoff
                backoff = min(backoff * 2, BACKOFF_CAP)
            finally:
                writer.close()

    # -- inbound --------------------------------------------------------------

    async def _on_peer_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
            task.add_done_callback(self._reader_tasks.discard)
        buffer = FrameBuffer(self.codec)
        sender: int | None = None
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for message in buffer.feed(data):
                    if sender is None:
                        if not isinstance(message, Hello):
                            return  # not a peer speaking our protocol
                        sender = message.node_id
                        continue
                    if (
                        type(message) is not VoteBatch
                        and self.codec.nesting_depth(message) > MAX_UNBATCHED_DEPTH
                    ):
                        continue  # too deep to re-batch: only a Byzantine peer sends it
                    try:
                        self.on_message(sender, message)
                    except Exception:
                        # A dispatch bug must be loud (the simulator
                        # fails the whole run here) but one poisoned
                        # message must not silently drop the rest of
                        # the decoded batch.
                        _LOG.exception(
                            "node %s: dispatch of %s from peer %s failed",
                            self.node_id,
                            type(message).__name__,
                            sender,
                        )
        except (OSError, ConnectionError, CodecError):
            return
        except asyncio.CancelledError:
            return  # transport shutdown: a cancelled reader is clean
        finally:
            writer.close()


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
    units, matching the simulated geometry.
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
