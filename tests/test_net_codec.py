"""Wire-codec contract tests: round trips, byte stability, hard errors.

The codec is the deployment subsystem's trust boundary, so the suite
is exhaustive by construction: a seeded fuzz generator exists for
*every* registered message type (the coverage assertion fails the
moment someone registers a new type without adding a generator), and
each generated instance must round-trip to an identical object AND
re-encode to identical bytes — byte stability is what makes frames
hashable for trace comparison.

The error surface is tested as a contract too: unregistered types,
truncated frames at every prefix length, magic/version mismatches,
unknown type ids, trailing bytes, undecodable value tags and
non-deterministic values (sets, dicts) are all hard
:class:`~repro.net.codec.CodecError`\\ s, never silent misdecodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.baselines.base import BPhaseVote, BProposal, BRound, BViewChange
from repro.baselines.chained import CatchUp, SlotMessage
from repro.core.messages import (
    EMPTY_VOTE,
    Proof,
    Proposal,
    Suggest,
    ViewChange,
    Vote,
    VoteRecord,
)
from repro.core.values import Phase
from repro.multishot.block import Block
from repro.multishot.messages import (
    MSProof,
    MSProposal,
    MSSuggest,
    MSViewChange,
    MSVote,
    VoteBatch,
)
from repro.net.codec import (
    MAGIC,
    MAX_FRAME,
    WIRE_CODEC,
    ClientSubmit,
    ClientSubmitBatch,
    CodecError,
    CollectReply,
    CollectRequest,
    CommitAck,
    CommitAckBatch,
    FrameBuffer,
    Hello,
    MetricsReply,
    MetricsRequest,
    SnapshotImage,
    SnapshotRequest,
    StartRun,
    StateTransferReply,
    StateTransferRequest,
    WalAppend,
    WalSeal,
    WireCodec,
    wire_codec,
)
from repro.smr.mempool import Transaction

# -- seeded instance generators, one per registered type ----------------------


def _value(rng: random.Random) -> object:
    """A random consensus value: digest-like strings dominate."""
    return rng.choice([None, "", f"digest-{rng.randrange(1 << 30):x}", rng.randrange(-5, 99), True])


def _vote_record(rng: random.Random) -> VoteRecord:
    if rng.random() < 0.25:
        return EMPTY_VOTE
    return VoteRecord(view=rng.randrange(0, 50), value=_value(rng))


def _txn(rng: random.Random) -> Transaction:
    op = rng.choice(
        [
            ("set", f"key-{rng.randrange(64)}", rng.randrange(1 << 40)),
            ("incr", f"c-{rng.randrange(8)}", rng.randrange(1, 9)),
            ("del", f"key-{rng.randrange(64)}"),
            ("noop",),
        ]
    )
    return Transaction(txid=f"tx-{rng.randrange(1 << 30):x}", op=op)


def _block(rng: random.Random) -> Block:
    payload = tuple(_txn(rng) for _ in range(rng.randrange(0, 4)))
    return Block.create(
        slot=rng.randrange(1, 200), parent=f"{rng.randrange(1 << 60):016x}", payload=payload
    )


def _vote_batch(rng: random.Random) -> VoteBatch:
    """An aggregated frame over the multishot generators (2..8 items)."""
    inner = [
        lambda r: MSVote(r.randrange(1, 200), r.randrange(0, 20), f"{r.randrange(1 << 60):016x}"),
        lambda r: MSProposal(r.randrange(1, 200), r.randrange(0, 20), _block(r)),
        lambda r: MSViewChange(r.randrange(1, 200), r.randrange(0, 20)),
    ]
    return VoteBatch(tuple(rng.choice(inner)(rng) for _ in range(rng.randrange(2, 9))))


def _snapshot_image(rng: random.Random) -> SnapshotImage:
    """A structurally plausible snapshot (codec round-trips do not
    require hash-valid chains — validation is the snapshot layer's
    job, tested in test_replica_storage)."""
    chain = tuple(_block(rng) for _ in range(rng.randrange(1, 5)))
    return SnapshotImage(
        tip_slot=chain[-1].slot,
        tip_digest=chain[-1].digest,
        state_digest=f"{rng.randrange(1 << 60):016x}",
        applied_txids=tuple(f"tx-{k}" for k in range(rng.randrange(0, 6))),
        kv_items=tuple(
            (f"key-{k}", rng.randrange(1 << 20)) for k in range(rng.randrange(0, 6))
        ),
        chain=chain,
    )


def _metric_items(rng: random.Random) -> tuple:
    """A sorted obs-metrics payload, the shape
    :meth:`repro.obs.MetricsRegistry.snapshot_items` emits."""
    names = sorted({f"m.{rng.randrange(32)}" for _ in range(rng.randrange(0, 8))})
    return tuple((name, rng.random() * 1000) for name in names)


GENERATORS = {
    Hello: lambda rng: Hello(rng.randrange(0, 128)),
    ClientSubmit: lambda rng: ClientSubmit(_txn(rng)),
    StartRun: lambda rng: StartRun(),
    CommitAck: lambda rng: CommitAck(
        rng.randrange(0, 16), f"tx-{rng.randrange(1 << 20)}", rng.randrange(0, 500)
    ),
    CollectRequest: lambda rng: CollectRequest(),
    SnapshotRequest: lambda rng: SnapshotRequest(),
    ClientSubmitBatch: lambda rng: ClientSubmitBatch(
        tuple(_txn(rng) for _ in range(rng.randrange(2, 9)))
    ),
    CommitAckBatch: lambda rng: CommitAckBatch(
        rng.randrange(0, 16),
        rng.randrange(0, 500),
        tuple(f"tx-{rng.randrange(1 << 20)}" for _ in range(rng.randrange(2, 12))),
    ),
    CollectReply: lambda rng: CollectReply(
        node_id=rng.randrange(0, 16),
        chain=tuple(_block(rng) for _ in range(rng.randrange(0, 5))),
        state_digest=f"{rng.randrange(1 << 60):016x}",
        applied_txids=tuple(f"tx-{k}" for k in range(rng.randrange(0, 6))),
        blocks_applied=rng.randrange(0, 100),
        txns_applied=rng.randrange(0, 1000),
        metrics=_metric_items(rng),
    ),
    MetricsRequest: lambda rng: MetricsRequest(),
    MetricsReply: lambda rng: MetricsReply(
        node_id=rng.randrange(0, 16),
        items=_metric_items(rng),
        events=rng.randrange(0, 256),
    ),
    StateTransferRequest: lambda rng: StateTransferRequest(since_slot=rng.randrange(0, 500)),
    StateTransferReply: lambda rng: StateTransferReply(
        node_id=rng.randrange(0, 16),
        tip_slot=rng.randrange(0, 500),
        blocks=tuple(_block(rng) for _ in range(rng.randrange(0, 5))),
    ),
    WalAppend: lambda rng: WalAppend(seq=rng.randrange(1, 1 << 30), block=_block(rng)),
    WalSeal: lambda rng: WalSeal(
        seq=rng.randrange(1, 1 << 30),
        upto_slot=rng.randrange(0, 500),
        state_digest=f"{rng.randrange(1 << 60):016x}",
    ),
    SnapshotImage: _snapshot_image,
    VoteRecord: _vote_record,
    Block: _block,
    Transaction: _txn,
    Proposal: lambda rng: Proposal(view=rng.randrange(0, 99), value=_value(rng)),
    Vote: lambda rng: Vote(
        phase=rng.choice(list(Phase)), view=rng.randrange(0, 99), value=_value(rng)
    ),
    Suggest: lambda rng: Suggest(
        view=rng.randrange(0, 99),
        vote2=_vote_record(rng),
        prev_vote2=_vote_record(rng),
        vote3=_vote_record(rng),
    ),
    Proof: lambda rng: Proof(
        view=rng.randrange(0, 99),
        vote1=_vote_record(rng),
        prev_vote1=_vote_record(rng),
        vote4=_vote_record(rng),
    ),
    ViewChange: lambda rng: ViewChange(view=rng.randrange(0, 99)),
    MSProposal: lambda rng: MSProposal(
        slot=rng.randrange(1, 200), view=rng.randrange(0, 20), block=_block(rng)
    ),
    MSVote: lambda rng: MSVote(
        slot=rng.randrange(1, 200),
        view=rng.randrange(0, 20),
        digest=f"{rng.randrange(1 << 60):016x}",
    ),
    MSViewChange: lambda rng: MSViewChange(
        slot=rng.randrange(1, 200), view=rng.randrange(0, 20)
    ),
    MSSuggest: lambda rng: MSSuggest(
        slot=rng.randrange(1, 200),
        view=rng.randrange(0, 20),
        vote2=_vote_record(rng),
        prev_vote2=_vote_record(rng),
        vote3=_vote_record(rng),
    ),
    MSProof: lambda rng: MSProof(
        slot=rng.randrange(1, 200),
        view=rng.randrange(0, 20),
        vote1=_vote_record(rng),
        prev_vote1=_vote_record(rng),
        vote4=_vote_record(rng),
    ),
    VoteBatch: _vote_batch,
    BProposal: lambda rng: BProposal(
        protocol=rng.choice(["pbft", "it-hs", "li"]),
        view=rng.randrange(0, 20),
        value=_value(rng),
    ),
    BPhaseVote: lambda rng: BPhaseVote(
        protocol=rng.choice(["pbft", "it-hs", "li"]),
        view=rng.randrange(0, 20),
        phase=rng.randrange(0, 3),
        value=_value(rng),
    ),
    BViewChange: lambda rng: BViewChange(
        protocol="pbft",
        view=rng.randrange(0, 20),
        lock_view=rng.randrange(-1, 20),
        lock_value=_value(rng),
        entries=rng.randrange(2, 40),
    ),
    BRound: lambda rng: BRound(
        protocol="it-hs",
        view=rng.randrange(0, 20),
        round_index=rng.randrange(0, 3),
        lock_view=rng.randrange(-1, 20),
        lock_value=_value(rng),
        entries=rng.randrange(2, 40),
    ),
    SlotMessage: lambda rng: SlotMessage(
        slot=rng.randrange(1, 200),
        inner=rng.choice(
            [
                BProposal("pbft", rng.randrange(0, 9), _value(rng)),
                BPhaseVote("li", rng.randrange(0, 9), 1, _value(rng)),
            ]
        ),
    ),
    CatchUp: lambda rng: CatchUp(
        slot=rng.randrange(1, 50),
        blocks=tuple(_block(rng) for _ in range(rng.randrange(0, 4))),
    ),
}


def test_every_registered_type_has_a_generator():
    """Registering a wire type without fuzz coverage fails loudly."""
    assert set(WIRE_CODEC.registered_types) == set(GENERATORS)


@pytest.mark.parametrize("cls", sorted(GENERATORS, key=lambda c: c.__name__))
def test_fuzz_round_trip_and_byte_stability(cls):
    """encode→decode is the identity; decode→encode is byte-stable."""
    rng = random.Random(f"codec-{cls.__name__}")
    for _ in range(25):
        message = GENERATORS[cls](rng)
        body = WIRE_CODEC.encode(message)
        decoded = WIRE_CODEC.decode(body)
        assert decoded == message
        assert type(decoded) is cls
        assert WIRE_CODEC.encode(decoded) == body


def test_encoding_is_deterministic_across_codec_instances():
    """Two independently built registries produce identical bytes."""
    fresh = wire_codec()
    rng = random.Random(1234)
    for cls, generate in sorted(GENERATORS.items(), key=lambda kv: kv[0].__name__):
        message = generate(rng)
        assert fresh.encode(message) == WIRE_CODEC.encode(message), cls


def test_golden_frame_pins_the_wire_format():
    """v5 bytes are a contract: changing them must bump WIRE_VERSION."""
    assert WIRE_CODEC.encode(ViewChange(7)).hex() == "b7050024490000000000000007"
    assert (
        WIRE_CODEC.encode_frame(MSVote(3, 1, "abcd")).hex()
        == "0000001fb7050031490000000000000003490000000000000001530000000461626364"
    )
    # Aggregated frame: one envelope, two nested (C-tagged) messages.
    assert WIRE_CODEC.encode_frame(
        VoteBatch((MSVote(3, 1, "abcd"), MSViewChange(4, 2)))
    ).hex() == (
        "0000003cb70500355500000002"
        "430031490000000000000003490000000000000001530000000461626364"
        "430032490000000000000004490000000000000002"
    )


def test_golden_commit_ack_batch_frame_pins_the_per_block_ack():
    """Type 13 was appended within v5: every older pin stays as it was,
    and the per-block ack's own bytes are a contract from here on."""
    assert WIRE_CODEC.type_id_of(CommitAckBatch) == 13
    assert WIRE_CODEC.encode_frame(CommitAckBatch(2, 7, ("t1", "t2"))).hex() == (
        "00000029b705000d"
        "490000000000000002490000000000000007"
        "5500000002"
        "5300000002743153000000027432"
    )
    # The singleton ack a one-txid block travels as, for comparison.
    assert WIRE_CODEC.encode(CommitAck(2, "t1", 7)).hex() == (
        "b7050004490000000000000002"
        "53000000027431"
        "490000000000000007"
    )


def test_golden_metrics_frames_pin_the_scrape_format():
    """The in-band scrape types are part of the same pinned contract:
    the operator tooling (``python -m repro obs``, the gateway's
    ``/v1/cluster/metrics``) must interoperate across builds."""
    assert WIRE_CODEC.encode(MetricsRequest()).hex() == "b705000b"
    assert WIRE_CODEC.encode(
        MetricsReply(node_id=2, items=(("consensus.commits", 40.0),), events=5)
    ).hex() == (
        "b705000c490000000000000002"
        "550000000155000000025300000011636f6e73656e7375732e636f6d6d697473"
        "444044000000000000490000000000000005"
    )


def test_golden_durability_frames_pin_the_wal_format():
    """WAL/snapshot records are disk formats: their bytes are pinned
    independently of the network path (a silent change would orphan
    every existing data dir, not just break a live connection)."""
    block = Block(slot=1, parent="genesis", payload=(), digest="d1")
    assert WIRE_CODEC.encode(WalAppend(seq=5, block=block)).hex() == (
        "b7050050490000000000000005"
        "430011490000000000000001530000000767656e65736973550000000053000000026431"
    )
    assert WIRE_CODEC.encode(WalSeal(seq=6, upto_slot=1, state_digest="sd")).hex() == (
        "b705005149000000000000000649000000000000000153000000027364"
    )
    assert WIRE_CODEC.encode(StateTransferRequest(since_slot=3)).hex() == (
        "b7050009490000000000000003"
    )


# -- hard errors --------------------------------------------------------------


@dataclass(frozen=True)
class _Rogue:
    """A dataclass nobody registered."""

    x: int


def test_unregistered_type_is_a_hard_error():
    with pytest.raises(CodecError, match="not registered"):
        WIRE_CODEC.encode(_Rogue(1))


def test_unregistered_nested_value_is_a_hard_error():
    # Registered envelope, unregistered payload object.
    with pytest.raises(CodecError, match="no\\s+deterministic wire encoding"):
        WIRE_CODEC.encode(ClientSubmit(_Rogue(2)))


def test_non_deterministic_values_are_rejected():
    for value in ({1, 2}, {"a": 1}, [1, 2], 3.5j):
        with pytest.raises(CodecError):
            WIRE_CODEC.encode(Proposal(view=1, value=value))


def test_truncated_frames_fail_at_every_prefix():
    body = WIRE_CODEC.encode(MSProposal(slot=3, view=1, block=_block(random.Random(7))))
    for cut in range(len(body)):
        with pytest.raises(CodecError):
            WIRE_CODEC.decode(body[:cut])


def test_version_mismatch_is_a_hard_error():
    body = bytearray(WIRE_CODEC.encode(ViewChange(1)))
    body[1] = 99
    with pytest.raises(CodecError, match="version mismatch"):
        WIRE_CODEC.decode(bytes(body))


def test_bad_magic_is_a_hard_error():
    body = bytearray(WIRE_CODEC.encode(ViewChange(1)))
    body[0] = (MAGIC + 1) & 0xFF
    with pytest.raises(CodecError, match="magic"):
        WIRE_CODEC.decode(bytes(body))


def test_unknown_type_id_is_a_hard_error():
    body = bytearray(WIRE_CODEC.encode(ViewChange(1)))
    body[2:4] = (0xFEED).to_bytes(2, "big")
    with pytest.raises(CodecError, match="unknown wire type id"):
        WIRE_CODEC.decode(bytes(body))


def test_invalid_utf8_string_payload_is_a_hard_error():
    body = bytearray(WIRE_CODEC.encode(MSVote(1, 0, "abcd")))
    assert body[-5:-4] == b"S" or b"abcd" in body  # locate the string tail
    body[-4:] = b"\xff\xfe\xfd\xfc"  # same length, invalid UTF-8
    with pytest.raises(CodecError, match="garbled"):
        WIRE_CODEC.decode(bytes(body))


def test_out_of_range_phase_byte_is_a_hard_error():
    body = bytearray(WIRE_CODEC.encode(Vote(Phase.VOTE1, 1, "x")))
    index = body.index(b"P") + 1
    body[index] = 99  # no such Phase
    with pytest.raises(CodecError, match="garbled"):
        WIRE_CODEC.decode(bytes(body))


def test_trailing_bytes_are_a_hard_error():
    body = WIRE_CODEC.encode(ViewChange(1)) + b"\x00"
    with pytest.raises(CodecError, match="trailing"):
        WIRE_CODEC.decode(body)


def test_registry_rejects_collisions_and_non_dataclasses():
    codec = WireCodec()
    codec.register(1, Hello)
    with pytest.raises(CodecError, match="already registered"):
        codec.register(1, StartRun)
    with pytest.raises(CodecError, match="already registered"):
        codec.register(2, Hello)
    with pytest.raises(CodecError, match="dataclasses"):
        codec.register(3, int)


def test_big_integers_round_trip():
    huge = 1 << 200
    message = Proposal(view=1, value=huge)
    assert WIRE_CODEC.decode(WIRE_CODEC.encode(message)) == message
    negative = Proposal(view=1, value=-huge)
    assert WIRE_CODEC.decode(WIRE_CODEC.encode(negative)) == negative


# -- framing ------------------------------------------------------------------


def test_frame_buffer_reassembles_arbitrary_chunking():
    rng = random.Random(99)
    messages = [GENERATORS[cls](rng) for cls in GENERATORS]
    stream = b"".join(WIRE_CODEC.encode_frame(m) for m in messages)
    for chunk_size in (1, 3, 7, 64, len(stream)):
        buffer = FrameBuffer(WIRE_CODEC)
        received: list[object] = []
        for start in range(0, len(stream), chunk_size):
            received.extend(buffer.feed(stream[start : start + chunk_size]))
        assert received == messages, chunk_size


def test_frame_buffer_rejects_oversized_length_words():
    buffer = FrameBuffer(WIRE_CODEC)
    with pytest.raises(CodecError, match="MAX_FRAME"):
        buffer.feed((MAX_FRAME + 1).to_bytes(4, "big"))
