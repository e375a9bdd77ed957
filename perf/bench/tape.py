"""The layer tape: one process, every layer's public entry point.

On the deployed workloads the replicas live in other processes, so the
per-layer microseconds cannot come from spans around them.  They come
from here instead: the messages, blocks and frames of a seeded n=4
simulator run are recorded as replica 0 saw them, then replayed through
each layer's public entry point with a span around every call —

* ``WIRE_CODEC.encode_frame`` and ``FrameBuffer.feed`` per message
  family (``codec.encode_us.*`` / ``codec.decode_us.*`` /
  ``codec.bytes.*``);
* ``Replica.receive`` → ``MultiShotNode.receive`` → the payload and
  finalize hooks → ``DiskStorage.block_executed`` in a scratch
  directory (real fsyncs), then ``DiskStorage.recover``;
* ``KVStore.state_digest``;
* ``GatewayService.submit`` against a null pool and
  ``GatewayService.ingest_snapshots`` on four 4,000-block replies.

Every duration is read on the CPU clock and corrected by
:mod:`bench.calib` passes interleaved with the sections.  The tape does
not depend on the workload it is run beside: its numbers are the unit
costs that :mod:`bench.budget` multiplies by the counts a deployed run
scraped.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from time import process_time

from repro.core import ProtocolConfig
from repro.gateway.service import GatewayConfig, GatewayService
from repro.multishot.block import GENESIS_DIGEST, Block
from repro.multishot.messages import MSProposal, MSVote, VoteBatch
from repro.net.codec import (
    WIRE_CODEC,
    ClientSubmit,
    CollectReply,
    CommitAck,
    FrameBuffer,
)
from repro.sim import Simulation
from repro.sim.runner import SimNode
from repro.smr import Replica, engine_factory
from repro.smr.mempool import Transaction
from repro.storage.disk import DiskStorage
from repro.workloads import UniformWorkload

from bench import calib
from bench.sim_chain import TracedContext, TracedStorage, traced_factory
from bench.spans import Tracer

TAPE_N = 4
TAPE_SLOTS = 240
TAPE_BATCH = 10
SNAPSHOT_BLOCKS = 4000
CODEC_REPEATS = 300
GATEWAY_SUBMITS = 2000


class _Recorder(SimNode):
    """Stands where replica 0 stands and writes down what reaches it."""

    def __init__(self, replica: Replica, sim: Simulation, events: list) -> None:
        self.node_id = replica.node_id
        self._replica = replica
        self._sim = sim
        self._events = events

    def start(self, ctx) -> None:
        self._replica.start(ctx)

    def receive(self, sender: int, message: object) -> None:
        self._events.append(("recv", self._sim.scheduler.now, sender, message))
        self._replica.receive(sender, message)

    def submit(self, txn) -> bool:
        self._events.append(("submit", self._sim.scheduler.now, txn))
        return self._replica.submit(txn)


class _TapeContext:
    """A ``NodeContext`` with no world behind it: the clock is the
    tape's, sends and timers go nowhere (the good case arms timers and
    cancels them; none fires)."""

    class _Handle:
        cancelled = False

        def cancel(self) -> None:
            self.cancelled = True

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.now = 0.0
        self.sent = 0

    def send(self, dst: int, message: object) -> None:
        self.sent += 1

    def broadcast(self, message: object) -> None:
        self.sent += 1

    def set_timer(self, delay: float, callback):
        return self._Handle()

    def report_decision(self, value: object) -> None:
        pass

    def report_view_entry(self, view: int) -> None:
        pass

    def report_storage(self, size_bytes: int) -> None:
        pass

    def trace(self, kind, **detail) -> None:
        pass


class _NullPool:
    """The pool surface ``GatewayService`` touches, doing nothing."""

    live = frozenset(range(TAPE_N))
    on_ack = None

    def submit(self, txn) -> None:
        pass

    def submit_many(self, txns) -> None:
        pass


def record(seed: int):
    """Run the seeded n=4 simulation; returns replica 0's event tape."""
    factory = engine_factory("tetrabft", ProtocolConfig.create(TAPE_N), max_slots=TAPE_SLOTS + 40)
    sim = Simulation()
    sim.metrics.messages.enabled = False
    replicas = [Replica(i, max_batch=TAPE_BATCH, engine_factory=factory) for i in range(TAPE_N)]
    events: list = []
    recorder = _Recorder(replicas[0], sim, events)
    sim.add_nodes([recorder] + replicas[1:])
    workload = UniformWorkload(count=TAPE_SLOTS * TAPE_BATCH, rate=float(TAPE_BATCH), seed=seed)
    workload.inject(sim, [recorder] + replicas[1:])
    sim.run(until=float(TAPE_SLOTS + 8), max_events=None)
    return events, replicas[0]


def _synthetic_chain(seed: int, blocks: int, txns_per_block: int) -> tuple[Block, ...]:
    chain = []
    parent = GENESIS_DIGEST
    for slot in range(1, blocks + 1):
        payload = tuple(
            Transaction(f"s{seed}-{slot}-{k}", ("incr", f"k{(slot + k) % 32:02d}", 1))
            for k in range(txns_per_block)
        )
        block = Block.create(slot, parent, payload)
        chain.append(block)
        parent = block.digest
    return tuple(chain)


def run(seed: int, scratch: Path) -> tuple[dict[str, float], Tracer]:
    """Replay the tape; returns (per-layer values, the tape's tracer)."""
    tracer = Tracer(clock=process_time)
    kernel = calib.Kernel()
    passes: list[float] = [kernel.sample()]
    values: dict[str, float] = {}
    events, original = record(seed)
    passes.append(kernel.sample())

    # -- codec: one family at a time, encode then decode --------------------------
    received = [event[3] for event in events if event[0] == "recv"]
    logical = [m for frame in received for m in getattr(frame, "messages", (frame,))]
    proposal_b10 = next(
        m for m in logical if isinstance(m, MSProposal) and len(m.block.payload) == TAPE_BATCH
    )
    big_block = _synthetic_chain(seed, 1, 100)[0]
    snapshot_chain = _synthetic_chain(seed, SNAPSHOT_BLOCKS, 1)
    snapshot_store_digest = "0" * 64
    families = {
        "vote": next(m for m in received if isinstance(m, MSVote)),
        # The frame a leader actually sends: its vote with the next proposal.
        "vote_batch": next(
            m for m in received
            if isinstance(m, VoteBatch)
            and any(isinstance(i, MSProposal) and len(i.block.payload) == TAPE_BATCH for i in m.messages)
        ),
        "proposal_b10": proposal_b10,
        "proposal_b100": MSProposal(1, 0, big_block),
        "client_submit": ClientSubmit(proposal_b10.block.payload[0]),
        "commit_ack": CommitAck(0, proposal_b10.block.payload[0].txid, proposal_b10.slot),
        "collect_reply_4k": CollectReply(
            node_id=0,
            chain=snapshot_chain,
            state_digest=snapshot_store_digest,
            applied_txids=tuple(t.txid for b in snapshot_chain for t in b.payload),
            blocks_applied=SNAPSHOT_BLOCKS,
            txns_applied=SNAPSHOT_BLOCKS,
        ),
    }
    for family, message in families.items():
        repeats = 3 if family == "collect_reply_4k" else CODEC_REPEATS
        encode = tracer.name(f"codec.encode.{family}")
        decode = tracer.name(f"codec.decode.{family}")
        frame = b""
        for _ in range(repeats):
            tracer.begin(encode)
            frame = WIRE_CODEC.encode_frame(message)
            tracer.finish()
        buffer = FrameBuffer(WIRE_CODEC)
        for _ in range(repeats):
            tracer.begin(decode)
            decoded = buffer.feed(frame)
            tracer.finish()
            assert len(decoded) == 1
        values[f"codec.bytes.{family}"] = float(len(frame))
        passes.append(kernel.sample())

    # -- engine + execution + storage: replica 0's tape into a fresh replica -----
    scratch.mkdir(parents=True, exist_ok=True)
    data_dir = Path(tempfile.mkdtemp(prefix="tape-", dir=scratch))
    try:
        disk = DiskStorage(data_dir)
        factory = traced_factory(
            engine_factory("tetrabft", ProtocolConfig.create(TAPE_N), max_slots=TAPE_SLOTS + 40),
            tracer,
        )
        replica = Replica(
            0, max_batch=TAPE_BATCH, engine_factory=factory, storage=TracedStorage(disk, tracer)
        )
        ctx = _TapeContext(0)
        replica.start(TracedContext(ctx, tracer))
        for index, event in enumerate(events):
            ctx.now = event[1]
            if event[0] == "submit":
                replica.submit(event[2])
            else:
                replica.receive(event[2], event[3])
            if index % 400 == 0:
                passes.append(kernel.sample())
        disk.flush()
        blocks = len(replica.executed_blocks)
        same = [b.digest for b in replica.finalized_chain] == [
            b.digest for b in original.finalized_chain
        ]
        values["tape.replay_matches_recording"] = 1.0 if same and blocks else 0.0
        values["storage.fsyncs_per_block"] = disk.wal.flushes / max(blocks, 1)
        txns = sum(len(b.payload) for b in replica.executed_blocks)
        values["storage.wal_bytes_per_txn"] = disk.wal.bytes_written / max(txns, 1)
        disk.close()

        digest = tracer.name("smr.state_digest")
        for _ in range(50):
            tracer.begin(digest)
            replica.state_digest()
            tracer.finish()
        passes.append(kernel.sample())

        recover = tracer.name("storage.recover")
        again = DiskStorage(data_dir)
        tracer.begin(recover)
        recovered = again.recover()
        fresh = Replica(
            0,
            max_batch=TAPE_BATCH,
            engine_factory=engine_factory(
                "tetrabft", ProtocolConfig.create(TAPE_N), max_slots=TAPE_SLOTS + 40
            ),
        )
        fresh.bootstrap(recovered.chain)
        tracer.finish()
        again.close()
        recovered_blocks = len(recovered.chain)
        passes.append(kernel.sample())
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    # -- gateway: admission + batching against a null pool, snapshot ingest -------
    service = GatewayService(_NullPool(), GatewayConfig(n=TAPE_N))
    submit = tracer.name("gateway.submit")
    for index in range(GATEWAY_SUBMITS):
        txn = Transaction(f"t{seed}-{index}", ("incr", f"k{index % 32:02d}", 1))
        tracer.begin(submit, index)
        service.submit(f"c{index % 64:02d}", txn)
        tracer.finish()
    passes.append(kernel.sample())
    ingest = tracer.name("gateway.ingest_snapshots")
    for round_index in range(3):
        replies = {
            node: CollectReply(
                node_id=node,
                chain=snapshot_chain[: SNAPSHOT_BLOCKS - round_index],
                state_digest=snapshot_store_digest,
                applied_txids=(),
                blocks_applied=SNAPSHOT_BLOCKS,
                txns_applied=SNAPSHOT_BLOCKS,
            )
            for node in range(TAPE_N)
        }
        tracer.begin(ingest, round_index)
        service.ingest_snapshots(replies)
        tracer.finish()
        passes.append(kernel.sample())

    slowdown = calib.slowdown(passes[1:])
    totals = tracer.totals()

    def mean_us(name: str) -> float:
        calls, seconds = totals.get(name, (0, 0.0))
        return 1e6 * seconds / slowdown / calls if calls else 0.0

    for family in families:
        values[f"codec.encode_us.{family}"] = mean_us(f"codec.encode.{family}")
        values[f"codec.decode_us.{family}"] = mean_us(f"codec.decode.{family}")
    receive_calls, receive_seconds = totals["multishot.receive"]
    values["tape.receive_us_per_call"] = mean_us("multishot.receive")
    values["tape.receive_us_per_slot"] = 1e6 * receive_seconds / slowdown / max(blocks, 1)
    values["smr.execute_us_per_block"] = mean_us("smr.execute")
    values["smr.make_payload_us_per_block"] = mean_us("smr.make_payload")
    values["smr.state_digest_us"] = mean_us("smr.state_digest")
    values["storage.append_us_per_block"] = mean_us("storage.block_executed")
    values["storage.recover_ms_per_kblock"] = (
        mean_us("storage.recover") / 1000.0 / (recovered_blocks / 1000.0) if recovered_blocks else 0.0
    )
    values["gateway.submit_us"] = mean_us("gateway.submit")
    values["gateway.ingest_snapshot_ms_4k"] = mean_us("gateway.ingest_snapshots") / 1000.0
    values["tape.slowdown"] = slowdown
    return values, tracer
