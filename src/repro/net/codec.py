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

The encoder dispatches on a value's exact type (plain int, str, tuple,
registered dataclass) and packs tag and value with one ``struct`` call.
The decoder reads a frame body as ``bytes`` by position
(``struct.unpack_from`` at a running offset); it checks every count and
length against the bytes left and caps tuple/dataclass nesting at
:data:`MAX_DEPTH`, so a short, garbled or hostile frame is always a
:class:`CodecError`.

:func:`wire_codec` builds the default registry covering every
wire-crossing dataclass in :mod:`repro.core.messages`,
:mod:`repro.multishot.messages`, the baseline engines, and the net
layer's own control frames; :data:`WIRE_CODEC` is the shared instance.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass, fields, is_dataclass
from operator import attrgetter

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

_HEAD = struct.Struct(">BBH")  # magic, version, type id
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
# Tag and scalar packed by one call: the encoder's ``buf += pack(...)``.
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")
_TAG_U32 = struct.Struct(">BI")
_TAG_U16 = struct.Struct(">BH")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: Deepest tuple/dataclass nesting a frame may carry, the message itself
#: counting as level 1 (see :meth:`WireCodec.nesting_depth`).  A hostile
#: frame of thousands of nested one-item tuples is a :class:`CodecError`
#: here instead of a ``RecursionError``.
MAX_DEPTH = 32

#: Deepest transaction the client port admits.  The deepest frame that
#: carries a transaction, a chained baseline's batched proposal
#: (VoteBatch → messages → SlotMessage → BProposal → Block → payload),
#: wraps it in 6 levels; a batched MSProposal wraps it in 5, a WalAppend
#: or a BlockExecuted in 3.  A transaction within this bound decodes in
#: every one of them, so no client can make a proposal or a WAL record
#: undecodable.
MAX_TXN_DEPTH = MAX_DEPTH - 6

#: Deepest message a peer may send outside a VoteBatch.  The batch adds
#: 2 levels (VoteBatch → messages); a bare message that leaves no room
#: for them could not be re-batched when an honest replica relays or
#: re-proposes what it carries, so peers drop it as Byzantine.
MAX_UNBATCHED_DEPTH = MAX_DEPTH - 2


class CodecError(ReproError):
    """A message could not be encoded or a frame could not be decoded.

    Raised for unregistered message types, unknown type ids, magic or
    version mismatches, truncated or oversized frames, trailing bytes,
    nesting beyond :data:`MAX_DEPTH`, and values outside the
    deterministic encodable set.
    """


def _values_getter(names: list[str]) -> Callable[[object], tuple]:
    """``attrgetter(*names)``, always returning a tuple (attrgetter hands
    back a bare value for one name and needs at least one)."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


class WireCodec:
    """An explicit message-type registry plus the frame encoder/decoder."""

    def __init__(self) -> None:
        self._id_by_type: dict[type, int] = {}
        # Decoding: type id -> (class, field count).
        self._layouts: dict[int, tuple[type, int]] = {}
        # Encoding a nested value: class -> (its C tag and type id, one
        # call returning its field values as a tuple in declaration order).
        self._nested: dict[type, tuple[bytes, Callable[[object], tuple]]] = {}

    # -- registry -------------------------------------------------------------

    def register(self, type_id: int, cls: type) -> None:
        """Register ``cls`` (a dataclass) under ``type_id``.

        Registration is explicit and collision-checked: the wire format
        is a contract, not a reflection of whatever happens to import.
        """
        if not is_dataclass(cls):
            raise CodecError(f"only dataclasses can cross the wire, got {cls!r}")
        if type_id in self._layouts:
            raise CodecError(
                f"type id {type_id} already registered to "
                f"{self._layouts[type_id][0].__name__}"
            )
        if cls in self._id_by_type:
            raise CodecError(f"{cls.__name__} already registered")
        if not 0 <= type_id <= 0xFFFF:
            raise CodecError(f"type id must fit in 16 bits, got {type_id}")
        self._id_by_type[cls] = type_id
        names = [f.name for f in fields(cls)]
        self._layouts[type_id] = (cls, len(names))
        self._nested[cls] = (_TAG_U16.pack(0x43, type_id), _values_getter(names))

    @property
    def registered_types(self) -> tuple[type, ...]:
        """Every registered class, in type-id order."""
        return tuple(self._layouts[i][0] for i in sorted(self._layouts))

    def type_id_of(self, cls: type) -> int:
        type_id = self._id_by_type.get(cls)
        if type_id is None:
            raise CodecError(
                f"message type {cls.__name__} is not registered with the wire "
                "codec; register it explicitly (unregistered types are a hard "
                "error by design)"
            )
        return type_id

    def nesting_depth(self, value: object) -> int:
        """Levels ``value`` occupies in a frame: 0 for a scalar, one more
        than its deepest item for a tuple or a registered dataclass.  A
        message decodes only if its depth is at most :data:`MAX_DEPTH`.

        Meant for decoded values, whose depth the decoder has already
        bounded.
        """
        kind = type(value)
        if kind is tuple:
            items = value
        elif kind in self._nested:
            items = self._nested[kind][1](value)
        else:
            return 0
        deepest = 0
        for item in items:
            if type(item) is tuple or type(item) in self._nested:
                deepest = max(deepest, self.nesting_depth(item))
        return deepest + 1

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
        buf += b"\0\0\0\0"
        self._encode_body_into(message, buf)
        length = len(buf) - start - 4
        if length > MAX_FRAME:
            raise CodecError(f"frame body of {length} bytes exceeds MAX_FRAME")
        _U32.pack_into(buf, start, length)

    def _encode_body_into(self, message: object, buf: bytearray) -> None:
        cls = type(message)
        buf += _HEAD.pack(MAGIC, WIRE_VERSION, self.type_id_of(cls))
        self._encode_items(self._nested[cls][1](message), buf)

    def _encode_items(self, values, buf: bytearray) -> None:
        # The common values first: plain int, str, tuple and registered
        # dataclasses are nearly every value on the wire.  bool and Phase
        # are int subclasses, so only an exact ``is int`` takes the I
        # path here; they, None, float, bytes, big ints and other int
        # subclasses take the isinstance chain below.
        for value in values:
            kind = type(value)
            if kind is int and _I64_MIN <= value <= _I64_MAX:
                buf += _TAG_I64.pack(0x49, value)  # I
            elif isinstance(value, str):
                raw = value.encode("utf-8")
                buf += _TAG_U32.pack(0x53, len(raw))  # S
                buf += raw
            elif isinstance(value, tuple):
                buf += _TAG_U32.pack(0x55, len(value))  # U
                self._encode_items(value, buf)
            elif kind in self._nested:
                head, values_of = self._nested[kind]
                buf += head  # C
                self._encode_items(values_of(value), buf)
            elif value is None:
                buf.append(0x4E)  # N
            elif value is True:
                buf.append(0x54)  # T
            elif value is False:
                buf.append(0x46)  # F
            elif isinstance(value, int) and not isinstance(value, Phase):
                if _I64_MIN <= value <= _I64_MAX:
                    buf += _TAG_I64.pack(0x49, value)  # I
                else:
                    raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
                    buf += _TAG_U32.pack(0x4A, len(raw))  # J
                    buf += raw
            elif isinstance(value, float):
                buf += _TAG_F64.pack(0x44, value)  # D
            elif isinstance(value, bytes):
                buf += _TAG_U32.pack(0x42, len(value))  # B
                buf += value
            elif isinstance(value, Phase):
                buf += bytes((0x50, value.value))  # P
            else:
                raise CodecError(
                    f"value {value!r} of type {type(value).__name__} has no "
                    "deterministic wire encoding (register the dataclass, or use "
                    "None/bool/int/float/str/bytes/tuple)"
                )

    # -- decoding -------------------------------------------------------------

    def decode(self, body: bytes) -> object:
        """Decode one frame body back into its message object.

        Every failure mode is a :class:`CodecError` — including a short
        frame (``struct.error``/``IndexError`` from a read past the end),
        nesting beyond :data:`MAX_DEPTH`, and garbled value payloads
        (invalid UTF-8 in a string, an out-of-range Phase byte, a
        dataclass rejecting its field values), which the underlying
        constructors surface as ``ValueError``\\ s.
        """
        if type(body) is not bytes:
            body = bytes(body)
        try:
            magic, version, type_id = _HEAD.unpack_from(body)
            if magic != MAGIC:
                raise CodecError(
                    f"bad magic byte 0x{magic:02x} (expected 0x{MAGIC:02x}): "
                    "not a repro wire frame"
                )
            if version != WIRE_VERSION:
                raise CodecError(
                    f"wire version mismatch: frame is v{version}, this build "
                    f"speaks v{WIRE_VERSION}"
                )
            cls, arity = self._layouts[type_id]
            values, pos = self._decode_items(arity, body, 4, 1)
            message = cls(*values)
        except (struct.error, IndexError) as exc:
            raise CodecError(f"truncated frame: {exc}") from exc
        except KeyError as exc:  # the only lookup: type id -> layout
            raise CodecError(f"unknown wire type id {exc.args[0]}") from exc
        except ValueError as exc:  # UnicodeDecodeError, Phase(...), ...
            raise CodecError(f"garbled frame payload: {exc}") from exc
        if pos != len(body):
            raise CodecError(f"{len(body) - pos} trailing bytes after decoding {cls.__name__}")
        return message

    def _decode_items(self, count: int, data: bytes, pos: int, depth: int):
        """``count`` consecutive values from ``pos``; returns (list,
        next position).  I, S, U and C are decoded inline, recursing
        only into a nested U or C; the rarer tags go to
        :meth:`_decode_scalar`."""
        if depth > MAX_DEPTH:
            raise CodecError(f"value nesting deeper than MAX_DEPTH ({MAX_DEPTH})")
        size = len(data)
        if count > size - pos:  # every value is at least its tag byte
            raise CodecError(f"truncated frame: {count} values in {size - pos} bytes")
        items: list = []
        append = items.append
        for _ in range(count):
            tag = data[pos]
            if tag == 0x49:  # I
                append(_I64.unpack_from(data, pos + 1)[0])
                pos += 9
            elif tag == 0x53:  # S
                end = pos + 5 + _U32.unpack_from(data, pos + 1)[0]
                if end > size:
                    raise CodecError(f"truncated frame: string runs past byte {size}")
                append(str(data[pos + 5 : end], "utf-8"))
                pos = end
            elif tag == 0x55:  # U
                length = _U32.unpack_from(data, pos + 1)[0]
                values, pos = self._decode_items(length, data, pos + 5, depth + 1)
                append(tuple(values))
            elif tag == 0x43:  # C
                cls, arity = self._layouts[_U16.unpack_from(data, pos + 1)[0]]
                values, pos = self._decode_items(arity, data, pos + 3, depth + 1)
                append(cls(*values))
            else:
                value, pos = _decode_scalar(tag, data, pos + 1)
                append(value)
        return items, pos


def _decode_scalar(tag: int, data: bytes, pos: int) -> tuple[object, int]:
    """The value after ``tag`` (N, T, F, D, P, B, J) at ``pos``; returns
    (value, next position)."""
    if tag == 0x4E:  # N
        return None, pos
    if tag == 0x54:  # T
        return True, pos
    if tag == 0x46:  # F
        return False, pos
    if tag == 0x44:  # D
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == 0x50:  # P
        return Phase(data[pos]), pos + 1
    if tag == 0x42 or tag == 0x4A:  # B, J: u32 length, then the bytes
        end = pos + 4 + _U32.unpack_from(data, pos)[0]
        if end > len(data):
            raise CodecError(f"truncated frame: value runs past byte {len(data)}")
        raw = data[pos + 4 : end]
        if tag == 0x4A:
            return int.from_bytes(raw, "big", signed=True), end
        return raw, end
    raise CodecError(f"unknown value tag {bytes((tag,))!r} at offset {pos - 1}")


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

        An incomplete frame waits in a ``bytearray``; once a chunk
        completes at least one frame, the pending bytes and the chunk
        become one ``bytes`` and each frame body is sliced out of it and
        decoded by position (see :meth:`WireCodec.decode`).  Whatever
        follows the last complete frame goes back to the buffer.
        """
        buf = self._buffer
        if buf:
            buf += data
            if len(buf) < 4:
                return []
            (length,) = _U32.unpack_from(buf)
            if length > MAX_FRAME:
                raise CodecError(f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})")
            if len(buf) < 4 + length:
                return []
            data = bytes(buf)
            buf.clear()
        decode = self._codec.decode
        messages: list[object] = []
        pos = 0
        available = len(data)
        try:
            while available - pos >= 4:
                (length,) = _U32.unpack_from(data, pos)
                if length > MAX_FRAME:
                    raise CodecError(f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})")
                end = pos + 4 + length
                if end > available:
                    break
                messages.append(decode(data[pos + 4 : end]))
                pos = end
        finally:
            if pos < available:
                buf += memoryview(data)[pos:]
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

    Mid-run evidence: the same :class:`CollectReply` shape as the
    terminal collect, but the replica stays in consensus (a rejoiner's
    convergence check reads it; the gateway's reads use :class:`Follow`).
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
class Follow:
    """Client → replica: stream me the executed chain.

    The replica answers with one :class:`BlockExecuted` per block it
    executed above ``since_height`` (the finalized suffix the client
    lacks), then one per block it executes from then on, in place of
    the txid-only commit acks.  Sending it again restarts the suffix
    from the new height; blocks the client already holds arrive twice.
    """

    since_height: int


@dataclass(frozen=True)
class BlockExecuted:
    """Replica → following client: this replica executed ``block``.

    Sent for every executed block, empty ones included, so a follower
    sees the replica's whole chain in order and can apply it itself.
    """

    node_id: int
    block: object  # a repro.multishot.block.Block


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
    # The executed-chain stream a client follows (appended within v5).
    codec.register(14, Follow)
    codec.register(15, BlockExecuted)
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
