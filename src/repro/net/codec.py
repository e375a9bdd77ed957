"""Wire codec: deterministic, versioned, length-prefixed binary frames.

The simulation passes message dataclasses between nodes as Python
references; crossing a process boundary needs bytes.  This module is
the single place the byte format is defined, with three properties the
deployment subsystem leans on:

* **Explicit registration** — every message class that may cross the
  wire is registered under a stable numeric type id.  Encoding an
  unregistered type is a hard :class:`CodecError`, never a silent
  pickle fallback: the wire surface of the protocol stays enumerable,
  auditable, and free of arbitrary-code-execution deserialization.
* **Determinism** — the same message object always encodes to the same
  bytes (fields are written in dataclass declaration order with a
  tag-based value encoding), so encode→decode round-trips are
  byte-stable and frames can be hashed for trace comparison.
* **Versioning** — every frame carries a magic byte and a format
  version; a mismatch is a hard error rather than a garbled decode, so
  rolling a cluster across incompatible builds fails loudly.

Frame layout (all integers big-endian)::

    [u32 length] [u8 magic] [u8 version] [u16 type id] [payload]

where ``length`` counts everything after the length word.  The payload
is the message's fields, each encoded with a one-byte tag:

    ``N`` None · ``T``/``F`` bool · ``I`` 64-bit int · ``J`` big int ·
    ``D`` float · ``S`` str · ``B`` bytes · ``U`` tuple ·
    ``P`` :class:`~repro.core.values.Phase` · ``C`` registered dataclass

Sets, dicts and unregistered objects are rejected: their iteration
order (or identity) would break byte stability.

:func:`wire_codec` builds the default registry covering every
wire-crossing dataclass in :mod:`repro.core.messages`,
:mod:`repro.multishot.messages`, the baseline engines, and the net
layer's own control frames; :data:`WIRE_CODEC` is the shared instance.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields, is_dataclass

from repro.core.values import Phase
from repro.errors import ReproError

#: Bumped whenever the frame layout or a registered message's field set
#: changes incompatibly.  Decoders reject every other version.
#: v2: VoteBatch envelope registered; CollectReply gained the
#: frames_in/messages_in counters the bench layer reports.
#: v3: CollectReply gained cpu_seconds/run_seconds (the capacity cell's
#: busy-duty evidence) and per-peer delayed-flush counters.
#: v4: CollectReply gained recovered_blocks (restart-from-disk
#: evidence); the durability frames (StateTransfer*, Wal*, Snapshot
#: Image) registered.
#: v5: in-band scraping — MetricsRequest/MetricsReply registered, and
#: CollectReply's hand-rolled counter tail (frames_in, messages_in,
#: cpu_seconds, run_seconds, flush_stats, recovered_blocks) collapsed
#: into one sorted ``metrics`` payload of (name, value) pairs drawn
#: from the replica's obs registry.
WIRE_VERSION = 5

#: First byte of every frame body; guards against a stray TCP client.
MAGIC = 0xB7

#: Upper bound on a single frame's body size.  A CollectReply carrying
#: a long finalized chain is the largest legitimate frame; 32 MiB is
#: orders of magnitude above it and still small enough to fail fast on
#: a corrupt length word.
MAX_FRAME = 32 * 1024 * 1024

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# Shared zero blocks: extending a bytearray from these allocates no new
# objects, after which ``pack_into`` writes the scalar in place — the
# struct-packed hot path that replaced the old list-of-bytes encoder.
_ZERO2 = bytes(2)
_ZERO4 = bytes(4)
_ZERO8 = bytes(8)


class CodecError(ReproError):
    """A message could not be encoded or a frame could not be decoded.

    Raised for unregistered message types, unknown type ids, magic or
    version mismatches, truncated or oversized frames, trailing bytes,
    and values outside the deterministic encodable set.
    """


class _Reader:
    """Cursor over one frame body; every read checks bounds.

    Works over ``bytes`` or a ``memoryview`` — the frame buffer hands
    decode a zero-copy view into its reassembly buffer, so per-frame
    body copies disappear from the socket hot path.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes | memoryview) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int):
        end = self.pos + count
        if end > len(self.data):
            raise CodecError(
                f"truncated frame: wanted {count} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


class WireCodec:
    """An explicit message-type registry plus the frame encoder/decoder."""

    def __init__(self) -> None:
        self._id_by_type: dict[type, int] = {}
        self._type_by_id: dict[int, type] = {}
        self._fields_by_type: dict[type, tuple[str, ...]] = {}

    # -- registry -------------------------------------------------------------

    def register(self, type_id: int, cls: type) -> None:
        """Register ``cls`` (a dataclass) under ``type_id``.

        Registration is explicit and collision-checked: the wire format
        is a contract, not a reflection of whatever happens to import.
        """
        if not is_dataclass(cls):
            raise CodecError(f"only dataclasses can cross the wire, got {cls!r}")
        if type_id in self._type_by_id:
            raise CodecError(
                f"type id {type_id} already registered to "
                f"{self._type_by_id[type_id].__name__}"
            )
        if cls in self._id_by_type:
            raise CodecError(f"{cls.__name__} already registered")
        if not 0 <= type_id <= 0xFFFF:
            raise CodecError(f"type id must fit in 16 bits, got {type_id}")
        self._id_by_type[cls] = type_id
        self._type_by_id[type_id] = cls
        self._fields_by_type[cls] = tuple(f.name for f in fields(cls))

    @property
    def registered_types(self) -> tuple[type, ...]:
        """Every registered class, in type-id order."""
        return tuple(self._type_by_id[i] for i in sorted(self._type_by_id))

    def type_id_of(self, cls: type) -> int:
        type_id = self._id_by_type.get(cls)
        if type_id is None:
            raise CodecError(
                f"message type {cls.__name__} is not registered with the wire "
                "codec; register it explicitly (unregistered types are a hard "
                "error by design)"
            )
        return type_id

    # -- encoding -------------------------------------------------------------

    def encode(self, message: object) -> bytes:
        """One frame body (magic + version + type id + payload)."""
        buf = bytearray()
        self._encode_body_into(message, buf)
        return bytes(buf)

    def encode_frame(self, message: object) -> bytes:
        """A full length-prefixed frame, ready for a stream socket."""
        buf = bytearray()
        self.encode_frame_into(message, buf)
        return bytes(buf)

    def encode_frame_into(self, message: object, buf: bytearray) -> None:
        """Append one length-prefixed frame to ``buf``.

        The transport builds a whole flush's worth of frames into a
        single buffer this way and hands the socket one write — the
        ``writev``-style path that replaces per-frame ``bytes``
        concatenation.
        """
        start = len(buf)
        buf.extend(_ZERO4)
        self._encode_body_into(message, buf)
        length = len(buf) - start - 4
        if length > MAX_FRAME:
            raise CodecError(f"frame body of {length} bytes exceeds MAX_FRAME")
        _U32.pack_into(buf, start, length)

    def _encode_body_into(self, message: object, buf: bytearray) -> None:
        type_id = self.type_id_of(type(message))
        pos = len(buf)
        buf.append(MAGIC)
        buf.append(WIRE_VERSION)
        buf.extend(_ZERO2)
        _U16.pack_into(buf, pos + 2, type_id)
        for name in self._fields_by_type[type(message)]:
            self._encode_value(getattr(message, name), buf)

    def _encode_value(self, value: object, buf: bytearray) -> None:
        # bool before int: bool is an int subclass.  Scalars are packed
        # in place (append tag, extend a shared zero block, pack_into)
        # rather than joined from per-field bytes objects.
        if value is None:
            buf.append(0x4E)  # N
        elif value is True:
            buf.append(0x54)  # T
        elif value is False:
            buf.append(0x46)  # F
        elif isinstance(value, int) and not isinstance(value, Phase):
            if _I64_MIN <= value <= _I64_MAX:
                pos = len(buf)
                buf.append(0x49)  # I
                buf.extend(_ZERO8)
                _I64.pack_into(buf, pos + 1, value)
            else:
                raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
                pos = len(buf)
                buf.append(0x4A)  # J
                buf.extend(_ZERO4)
                _U32.pack_into(buf, pos + 1, len(raw))
                buf.extend(raw)
        elif isinstance(value, float):
            pos = len(buf)
            buf.append(0x44)  # D
            buf.extend(_ZERO8)
            _F64.pack_into(buf, pos + 1, value)
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            pos = len(buf)
            buf.append(0x53)  # S
            buf.extend(_ZERO4)
            _U32.pack_into(buf, pos + 1, len(raw))
            buf.extend(raw)
        elif isinstance(value, bytes):
            pos = len(buf)
            buf.append(0x42)  # B
            buf.extend(_ZERO4)
            _U32.pack_into(buf, pos + 1, len(value))
            buf.extend(value)
        elif isinstance(value, tuple):
            pos = len(buf)
            buf.append(0x55)  # U
            buf.extend(_ZERO4)
            _U32.pack_into(buf, pos + 1, len(value))
            for item in value:
                self._encode_value(item, buf)
        elif isinstance(value, Phase):
            buf.append(0x50)  # P
            buf.append(value.value)
        elif type(value) in self._id_by_type:
            pos = len(buf)
            buf.append(0x43)  # C
            buf.extend(_ZERO2)
            _U16.pack_into(buf, pos + 1, self._id_by_type[type(value)])
            for name in self._fields_by_type[type(value)]:
                self._encode_value(getattr(value, name), buf)
        else:
            raise CodecError(
                f"value {value!r} of type {type(value).__name__} has no "
                "deterministic wire encoding (register the dataclass, or use "
                "None/bool/int/float/str/bytes/tuple)"
            )

    # -- decoding -------------------------------------------------------------

    def decode(self, body: bytes | memoryview) -> object:
        """Decode one frame body back into its message object.

        Every failure mode is a :class:`CodecError` — including garbled
        value payloads (invalid UTF-8 in a string, an out-of-range
        Phase byte, a dataclass rejecting its field values), which the
        underlying constructors surface as ``ValueError``s.
        """
        try:
            return self._decode_body(body)
        except ValueError as exc:  # UnicodeDecodeError, Phase(...), ...
            raise CodecError(f"garbled frame payload: {exc}") from exc

    def _decode_body(self, body: bytes | memoryview) -> object:
        reader = _Reader(body)
        header = reader.take(2)
        if header[0] != MAGIC:
            raise CodecError(
                f"bad magic byte 0x{header[0]:02x} (expected 0x{MAGIC:02x}): "
                "not a repro wire frame"
            )
        if header[1] != WIRE_VERSION:
            raise CodecError(
                f"wire version mismatch: frame is v{header[1]}, this build "
                f"speaks v{WIRE_VERSION}"
            )
        (type_id,) = _U16.unpack(reader.take(2))
        message = self._decode_struct(type_id, reader)
        if not reader.exhausted:
            raise CodecError(
                f"{len(reader.data) - reader.pos} trailing bytes after "
                f"decoding {type(message).__name__}"
            )
        return message

    def _decode_struct(self, type_id: int, reader: _Reader) -> object:
        cls = self._type_by_id.get(type_id)
        if cls is None:
            raise CodecError(f"unknown wire type id {type_id}")
        values = [self._decode_value(reader) for _ in self._fields_by_type[cls]]
        return cls(*values)

    def _decode_value(self, reader: _Reader) -> object:
        # Tags compare by byte value so the reader can hand back either
        # bytes or memoryview slices; str/bytes payloads materialize an
        # owned object (the view dies when the frame buffer compacts).
        tag = reader.take(1)[0]
        if tag == 0x4E:  # N
            return None
        if tag == 0x54:  # T
            return True
        if tag == 0x46:  # F
            return False
        if tag == 0x49:  # I
            return _I64.unpack(reader.take(8))[0]
        if tag == 0x4A:  # J
            (length,) = _U32.unpack(reader.take(4))
            return int.from_bytes(reader.take(length), "big", signed=True)
        if tag == 0x44:  # D
            return _F64.unpack(reader.take(8))[0]
        if tag == 0x53:  # S
            (length,) = _U32.unpack(reader.take(4))
            return str(reader.take(length), "utf-8")
        if tag == 0x42:  # B
            (length,) = _U32.unpack(reader.take(4))
            return bytes(reader.take(length))
        if tag == 0x55:  # U
            (count,) = _U32.unpack(reader.take(4))
            return tuple(self._decode_value(reader) for _ in range(count))
        if tag == 0x50:  # P
            return Phase(reader.take(1)[0])
        if tag == 0x43:  # C
            (type_id,) = _U16.unpack(reader.take(2))
            return self._decode_struct(type_id, reader)
        raise CodecError(
            f"unknown value tag {bytes((tag,))!r} at offset {reader.pos - 1}"
        )


class FrameBuffer:
    """Reassembles length-prefixed frames from a byte stream.

    Feed it whatever chunks the socket hands you; it yields every
    complete decoded message and buffers the remainder.  A length word
    beyond :data:`MAX_FRAME` is a hard error (a corrupt or hostile
    stream must not make us buffer gigabytes).
    """

    def __init__(self, codec: "WireCodec") -> None:
        self._codec = codec
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[object]:
        """Absorb ``data``; return every message completed by it.

        Complete frame bodies are decoded through a zero-copy
        ``memoryview`` into the reassembly buffer; the buffer is
        compacted once per feed, after every view is released (a live
        view would make the ``bytearray`` resize a ``BufferError``).
        """
        buf = self._buffer
        buf.extend(data)
        messages: list[object] = []
        pos = 0
        available = len(buf)
        view = memoryview(buf)
        try:
            while available - pos >= 4:
                (length,) = _U32.unpack_from(buf, pos)
                if length > MAX_FRAME:
                    raise CodecError(
                        f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})"
                    )
                if available - pos < 4 + length:
                    break
                body = view[pos + 4 : pos + 4 + length]
                try:
                    messages.append(self._codec.decode(body))
                finally:
                    body.release()
                pos += 4 + length
        finally:
            view.release()
            if pos:
                del buf[:pos]
        return messages


# -- net-layer control frames -------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """First frame on every peer connection: who is dialing."""

    node_id: int


@dataclass(frozen=True)
class ClientSubmit:
    """Client → replica: inject one transaction into the mempool."""

    txn: object  # a repro.smr.mempool.Transaction


@dataclass(frozen=True)
class StartRun:
    """Driver → replica: every process is up, begin consensus."""


@dataclass(frozen=True)
class CommitAck:
    """Replica → client: this replica executed ``txid`` in ``slot``."""

    node_id: int
    txid: str
    slot: int


@dataclass(frozen=True)
class CollectRequest:
    """Driver → replica: report your final state and shut down."""


@dataclass(frozen=True)
class SnapshotRequest:
    """Client → replica: report your current state, keep running.

    The gateway's read path: same :class:`CollectReply` shape as the
    terminal collect, but the replica stays in consensus — reads are
    served from finalized snapshots without touching the protocol.
    """


@dataclass(frozen=True)
class ClientSubmitBatch:
    """Client → replica: inject many transactions in one frame.

    The replica pool sends every submission queued in one event-loop
    tick (or one ``submit_many`` batch) as one frame per replica — the
    client-plane counterpart of the message plane's VoteBatch envelope
    (a singleton submission travels as the bare :class:`ClientSubmit`
    instead).
    """

    txns: tuple  # tuple[Transaction, ...]


@dataclass(frozen=True)
class CommitAckBatch:
    """Replica → client: this replica executed every ``txids`` entry in
    the block at ``slot``.

    One frame per executed block per client connection; a block that
    applied exactly one txid is acked with the bare :class:`CommitAck`
    instead (the singleton rule of :class:`ClientSubmitBatch`).
    """

    node_id: int
    slot: int
    txids: tuple  # tuple[str, ...]


@dataclass(frozen=True)
class CollectReply:
    """A replica's end-of-run evidence (audit input) plus its metrics.

    The evidence fields (chain, digest, applied txids) feed the
    SafetyAuditor.  Everything the bench layer used to receive as
    parallel hand-rolled fields — frames/messages counters, CPU and
    wall seconds, per-peer flush stats, recovered-block counts — now
    travels as ``metrics``: the replica's obs-registry snapshot, a
    sorted tuple of ``(name, value)`` pairs (see
    :meth:`repro.obs.MetricsRegistry.snapshot_items`).  One payload,
    one shape, shared with :class:`MetricsReply`.
    """

    node_id: int
    chain: tuple  # tuple[Block, ...]
    state_digest: str
    applied_txids: tuple  # tuple[str, ...]
    blocks_applied: int
    txns_applied: int
    metrics: tuple = ()  # tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class MetricsRequest:
    """Client → replica: report your live metrics, keep running.

    The in-band scrape: served on the existing client port like
    :class:`SnapshotRequest`, but cheap — no chain copy, just the
    registry snapshot — so drivers and the gateway can poll it mid-run
    without perturbing consensus.
    """


@dataclass(frozen=True)
class MetricsReply:
    """Replica → client: one obs-registry snapshot.

    ``items`` is the sorted ``(name, value)`` tuple from
    :meth:`repro.obs.MetricsRegistry.snapshot_items`; ``events`` is the
    current depth of the replica's structured-event ring buffer (how
    much forensics a dump would yield).
    """

    node_id: int
    items: tuple = ()  # tuple[tuple[str, float], ...]
    events: int = 0


@dataclass(frozen=True)
class StateTransferRequest:
    """Rejoining replica → peer: send your finalized blocks above
    ``since_slot`` (the requester's local finalized height)."""

    since_slot: int


@dataclass(frozen=True)
class StateTransferReply:
    """Peer → rejoining replica: the requested finalized-chain suffix.

    ``blocks`` is the peer's finalized blocks with slot > the request's
    ``since_slot``, in slot order; ``tip_slot`` is the peer's finalized
    height at reply time (so the requester knows whether another round
    is needed).
    """

    node_id: int
    tip_slot: int
    blocks: tuple  # tuple[Block, ...]


# -- durability records (WAL / snapshot file formats) -------------------------
#
# The on-disk formats of repro.storage reuse this codec verbatim: a WAL
# is a stream of length-prefixed WalAppend/WalSeal frames, a snapshot
# file is one SnapshotImage frame.  Reusing the wire codec buys the
# storage layer determinism, versioning, and torn-tail detection
# (a partial trailing frame fails the length/decode checks exactly like
# a truncated TCP stream) for free.


@dataclass(frozen=True)
class WalAppend:
    """One durably logged finalized block.

    ``seq`` is the WAL's own monotone record counter (it survives
    compaction, so replay order is checkable across rewrites); the
    block's slot/digest carry the chain position.
    """

    seq: int
    block: object  # a repro.multishot.block.Block


@dataclass(frozen=True)
class WalSeal:
    """A durability checkpoint marker written at snapshot time.

    Every record with ``seq`` <= this seal's ``seq`` is covered by the
    snapshot whose state digest is recorded here; compaction drops
    exactly those records.  A seal mid-log is therefore evidence of the
    last snapshot the WAL was compacted against.
    """

    seq: int
    upto_slot: int
    state_digest: str


@dataclass(frozen=True)
class SnapshotImage:
    """One complete recoverable replica state, atomically replacing the
    previous snapshot file.

    Carries the full finalized chain (not just the tip) so recovery is
    self-contained after WAL compaction, plus the executed-state image:
    ``kv_items`` as sorted ``(key, value)`` pairs and the applied-txid
    frontier in application order.  ``state_digest`` must equal the
    digest recomputed from the image — recovery rejects a snapshot that
    disagrees with itself.
    """

    tip_slot: int
    tip_digest: str
    state_digest: str
    applied_txids: tuple  # tuple[str, ...]
    kv_items: tuple  # tuple[tuple[str, int], ...]
    chain: tuple  # tuple[Block, ...]


def wire_codec() -> WireCodec:
    """The default registry: every wire-crossing dataclass in the repo.

    Type ids are part of the wire contract — append, never renumber
    (renumbering is a :data:`WIRE_VERSION` bump).
    """
    from repro.baselines.base import BPhaseVote, BProposal, BRound, BViewChange
    from repro.baselines.chained import CatchUp, SlotMessage
    from repro.core.messages import (
        Proof,
        Proposal,
        Suggest,
        ViewChange,
        Vote,
        VoteRecord,
    )
    from repro.multishot.block import Block
    from repro.multishot.messages import (
        MSProof,
        MSProposal,
        MSSuggest,
        MSViewChange,
        MSVote,
        VoteBatch,
    )
    from repro.smr.mempool import Transaction

    codec = WireCodec()
    # Net-layer control frames.
    codec.register(1, Hello)
    codec.register(2, ClientSubmit)
    codec.register(3, StartRun)
    codec.register(4, CommitAck)
    codec.register(5, CollectRequest)
    codec.register(6, CollectReply)
    codec.register(7, SnapshotRequest)
    codec.register(8, ClientSubmitBatch)
    codec.register(9, StateTransferRequest)
    codec.register(10, StateTransferReply)
    # In-band metrics scrape (wire v5).
    codec.register(11, MetricsRequest)
    codec.register(12, MetricsReply)
    # Per-block commit acks (appended within wire v5).
    codec.register(13, CommitAckBatch)
    # Shared nested structures.
    codec.register(16, VoteRecord)
    codec.register(17, Block)
    codec.register(18, Transaction)
    # Basic (single-shot) TetraBFT.
    codec.register(32, Proposal)
    codec.register(33, Vote)
    codec.register(34, Suggest)
    codec.register(35, Proof)
    codec.register(36, ViewChange)
    # Multi-shot TetraBFT.
    codec.register(48, MSProposal)
    codec.register(49, MSVote)
    codec.register(50, MSViewChange)
    codec.register(51, MSSuggest)
    codec.register(52, MSProof)
    # Aggregated vote frame: many multishot messages, one wire frame.
    codec.register(53, VoteBatch)
    # Chained baseline engines (PBFT / IT-HotStuff / Li).
    codec.register(64, BProposal)
    codec.register(65, BPhaseVote)
    codec.register(66, BViewChange)
    codec.register(67, BRound)
    codec.register(68, SlotMessage)
    codec.register(69, CatchUp)
    # Durability records: the WAL and snapshot file formats.
    codec.register(80, WalAppend)
    codec.register(81, WalSeal)
    codec.register(82, SnapshotImage)
    return codec


#: The shared default codec every transport and cluster uses.
WIRE_CODEC = wire_codec()
