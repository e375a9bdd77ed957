"""Wire-codec contract tests: round trips, byte stability, hard errors.

The codec is the deployment subsystem's trust boundary, so the suite
is exhaustive by construction: a seeded fuzz generator exists for
*every* registered message type (the coverage assertion fails the
moment someone registers a new type without adding a generator), and
each generated instance must round-trip to an identical object AND
re-encode to identical bytes — byte stability is what makes frames
hashable for trace comparison.  Beyond the golden frames, a SHA-256
per registered type over 300 seeded instances pins the exact bytes.

The error surface is tested as a contract too: unregistered types,
truncated frames at every prefix length, magic/version mismatches,
unknown type ids, trailing bytes, undecodable value tags and
non-deterministic values (sets, dicts), nesting beyond ``MAX_DEPTH``
and counts or lengths past the frame end are all hard
:class:`~repro.net.codec.CodecError`\\ s, never silent misdecodes; a
seeded mutation fuzzer checks that nothing else ever escapes.
"""

from __future__ import annotations

import hashlib
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
    MAX_BATCH,
    MSProof,
    MSProposal,
    MSSuggest,
    MSViewChange,
    MSVote,
    VoteBatch,
)
from repro.net.codec import (
    MAGIC,
    MAX_DEPTH,
    MAX_FRAME,
    MAX_TXN_DEPTH,
    WIRE_CODEC,
    WIRE_VERSION,
    BlockExecuted,
    ClientSubmit,
    ClientSubmitBatch,
    CodecError,
    CollectReply,
    CollectRequest,
    CommitAck,
    CommitAckBatch,
    Follow,
    FrameBuffer,
    Hello,
    MetricsReply,
    MetricsRequest,
    SnapshotRequest,
    StartRun,
    StateTransferReply,
    StateTransferRequest,
    WalAppend,
    WireCodec,
    wire_codec,
)
from repro.smr.mempool import Transaction
from repro.storage.wal import WriteAheadLog, read_wal

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
    Follow: lambda rng: Follow(since_height=rng.randrange(0, 5000)),
    BlockExecuted: lambda rng: BlockExecuted(node_id=rng.randrange(0, 16), block=_block(rng)),
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


#: SHA-256 over ``encode_frame`` of ``GENERATORS[cls](random.Random(seed))``
#: for seeds 0-299, per registered type name.  Pinned when the encoder
#: was rewritten, from the encoder it replaced: a byte-identity check
#: over ten thousand frames, not five.
FRAME_DIGESTS = {
    "Hello": "8c717bc55932aa116a41c742ba8e16cf93488e6eeb5bd1a33d49a5f6ab94f120",
    "ClientSubmit": "3616a6083f8ec4c009fa20546889aebe25bc9b489caca6d48fd19c3c2965c4ff",
    "StartRun": "c6788231900f142173784ea6ee5b0499548a096cfe94137fcde57c8e3d4df214",
    "CommitAck": "508fd24902218b5af4a64d9c82726b1fea1eee677908e318c8f47d104b069657",
    "CollectRequest": "a49540f0482da9486c9a5ee9a10a20a22b54c9db91a1ab736075c8c1acfe63a1",
    "CollectReply": "da5f3ea2f9c1a84e9eae9666f293f5c205766bec40eae1bd180c06015ac9080a",
    "SnapshotRequest": "61721236d3454f9f75baffe88995ac49afc0032ae71262df97483abba1858428",
    "ClientSubmitBatch": "b91b590b2625dd72ffd836a4e91b68c2264f2722705d8d626b76d08d09e7dba1",
    "StateTransferRequest": "3ff681acd54847d72848f15c1d1f093848a17d6ca3a5455a859f9f0cd56066d7",
    "StateTransferReply": "0f739b822357dedc820f2f8de48dbbf8d3929d7fdf0e783660360c31e3cf90d9",
    "MetricsRequest": "cd4032f9cd9244f39cbcd3e5d12fb645c221342eb18522197794877c838747dd",
    "MetricsReply": "65b0c862151b29d691d7dda99177e4d89deeb22241efbc917626db861d3a0ad5",
    "CommitAckBatch": "bc887e52a70a256b05cfd33752c100b7cff448be530ce604f7880e053f32f229",
    "Follow": "2dc69807acba670a7a7bbeb949da7ed92dbe28737e3ff71e72edd84917386dda",
    "BlockExecuted": "808661e8873e75bdabfe8518850a46370485ce1b61c01f7bddb12870f989383d",
    "VoteRecord": "e5965c410bfc7e1a98b38a856a4afda66dc1ca38050ae256cd5bac32006a96db",
    "Block": "ec1ed5b2a677a8b4f6f6233173744b292f16246dbb9a8b2db680c6c267f4a300",
    "Transaction": "d1655f482ac2a6c21316bf8e72b3d287b487c4a9db1feee78f0dbafb2066771c",
    "Proposal": "f49d557a67561800c73b8de521e0e9902c1251248a5c33fa1fa419c3bd3b5729",
    "Vote": "d5b948da72a85790a4c1fd61e948193a728aa6e3ff55b91ff768f122062c9058",
    "Suggest": "a538a955da205c7922b611021f0e1dbf9c1d30d6cacc38429acc53e317e7cdf8",
    "Proof": "aa5fdb2af2d25ce6542851ec9637da7e0e030421acc325ac22674a56756c2930",
    "ViewChange": "40cfc1b428fb41b85901fe7376cd4d9db0a7fd16f24c25b0986d3258d8e34232",
    "MSProposal": "17c3dedf94ed52e08ce5710155b1153a47da0bd99d53a6eaef878a737c9f8b81",
    "MSVote": "f645396cad74103955c86d1db3a7a0067a8cf05f5e7ff826cb9a14a17f22ff09",
    "MSViewChange": "74a3efe20edaf8c93321e0fb78a53fb0a01d86ad23a850ab7e6c48ce66a9d040",
    "MSSuggest": "11217376c5de404e80a07293dbaff70e5cab796ea7d567a691c53eeb6767bf14",
    "MSProof": "d9f951069edcf162a5ed0f7dc2d271728d5cb40633868202c212d2a1d0b74e9b",
    "VoteBatch": "e569677f9d79db054d16592be09c2cf3bd0107b34ed2f436902596093f905af5",
    "BProposal": "401ac5102a7ae602054bd7463d751acd406d61b2cc19ba0e43c69c93274d3070",
    "BPhaseVote": "c48dbb6ba613d23d313200317c2f7d1d14184d6e0f80f1ee6be1c7b0a985919d",
    "BViewChange": "2e907299565d789fd3a9def7d15d180d0c3fe3be722e0e1b443ec0080f287608",
    "BRound": "a26d6e9ddffab9329a009f64c6b3a4147c77bd5b16a6fcb59348f1a6fa066893",
    "SlotMessage": "522d40aadafb6da8fef65737a744e0a13a20a8ee15e39f5100ee22e7bc97746c",
    "CatchUp": "cca62f177de1ea2f794fbf0e04a9d5b58f00682abff68e8c37b6817cd1a7d7ff",
    "WalAppend": "c589daaa441980a43c69763057bd23dcd3ef6615d8104d3b473c877d15e7f7a5",
}
#: The same frames, every type in type-id order, through one hash (it
#: moves whenever a type is appended; the per-type pins above do not).
FRAME_DIGEST_ALL = "08ea8222785e586c3d3afe6fb60c1849504610226d9b45444034a58f259b861e"


def test_fuzz_frames_match_the_pinned_digests():
    """The wire bytes of every registered type are pinned beyond the
    golden frames; CI reruns this under two PYTHONHASHSEEDs, so they
    cannot depend on hash order either."""
    assert list(FRAME_DIGESTS) == [cls.__name__ for cls in WIRE_CODEC.registered_types]
    aggregate = hashlib.sha256()
    for cls in WIRE_CODEC.registered_types:
        per_type = hashlib.sha256()
        for seed in range(300):
            frame = WIRE_CODEC.encode_frame(GENERATORS[cls](random.Random(seed)))
            per_type.update(frame)
            aggregate.update(frame)
        assert per_type.hexdigest() == FRAME_DIGESTS[cls.__name__], cls.__name__
    assert aggregate.hexdigest() == FRAME_DIGEST_ALL


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


def test_golden_follow_frames_pin_the_block_stream():
    """Types 14 and 15 were appended within v5 like type 13: the stream a
    following client reads is a contract from here on."""
    assert WIRE_CODEC.type_id_of(Follow) == 14
    assert WIRE_CODEC.type_id_of(BlockExecuted) == 15
    assert WIRE_CODEC.encode_frame(Follow(since_height=9)).hex() == (
        "0000000db705000e490000000000000009"
    )
    block = Block.create(slot=1, parent="genesis", payload=())
    assert WIRE_CODEC.encode(BlockExecuted(1, block)).hex() == (
        "b705000f490000000000000001"
        "430011490000000000000001530000000767656e65736973550000000053"
        "0000001066336135376263316139663638333531"
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
    """WAL records are a disk format: their bytes are pinned
    independently of the network path (a silent change would orphan
    every existing data dir, not just break a live connection)."""
    block = Block.create(slot=1, parent="genesis", payload=())
    assert WIRE_CODEC.encode(WalAppend(seq=5, block=block)).hex() == (
        "b7050050490000000000000005"
        "430011490000000000000001530000000767656e65736973550000000053"
        "0000001066336135376263316139663638333531"
    )
    assert WIRE_CODEC.encode(StateTransferRequest(since_slot=3)).hex() == (
        "b7050009490000000000000003"
    )


# -- hard errors --------------------------------------------------------------


#: Every envelope a block crosses a process boundary or the disk in.
_BLOCK_ENVELOPES = {
    "MSProposal": lambda b: MSProposal(3, 0, b),
    "VoteBatch": lambda b: VoteBatch((MSVote(3, 0, "abcd"), MSProposal(3, 0, b))),
    "BlockExecuted": lambda b: BlockExecuted(1, b),
    "StateTransferReply": lambda b: StateTransferReply(node_id=1, tip_slot=3, blocks=(b,)),
    "CollectReply": lambda b: CollectReply(
        node_id=1,
        chain=(b,),
        state_digest="s",
        applied_txids=("t1",),
        blocks_applied=1,
        txns_applied=1,
    ),
    "WalAppend": lambda b: WalAppend(seq=1, block=b),
    "CatchUp": lambda b: CatchUp(slot=3, blocks=(b,)),
    "SlotMessage": lambda b: SlotMessage(3, BProposal("li", 0, b)),
}


@pytest.mark.parametrize("envelope", sorted(_BLOCK_ENVELOPES))
def test_a_body_under_another_blocks_digest_does_not_decode(envelope):
    """A Byzantine peer (or a flipped bit on disk) that pairs one body
    with another block's digest gets a CodecError from every envelope
    that carries a block, before any engine, store or gateway sees it."""
    wrap = _BLOCK_ENVELOPES[envelope]
    honest = Block.create(3, "p" * 16, (Transaction("t1", ("set", "k", 1)),))
    forged = Block.create(3, "p" * 16, (Transaction("t1", ("set", "k", -1)),))
    frame = WIRE_CODEC.encode(wrap(forged))
    assert WIRE_CODEC.decode(frame) == wrap(forged)
    assert frame.count(forged.digest.encode()) == 1
    swapped = frame.replace(forged.digest.encode(), honest.digest.encode())
    with pytest.raises(CodecError, match="does not match its contents"):
        WIRE_CODEC.decode(swapped)


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


def _nested_hello(levels: int) -> bytes:
    """A Hello body whose ``node_id`` is ``levels`` nested one-item tuples."""
    return (
        bytes((MAGIC, WIRE_VERSION, 0, 1))
        + b"U\x00\x00\x00\x01" * levels
        + b"I"
        + (7).to_bytes(8, "big")
    )


def test_hostile_nesting_is_a_codec_error_not_a_recursion_error():
    """5,000 nested tuples (25 KB) used to escape as RecursionError from
    both decode and the frame buffer the readers use."""
    body = _nested_hello(5000)
    assert len(body) > 25_000
    with pytest.raises(CodecError, match="MAX_DEPTH"):
        WIRE_CODEC.decode(body)
    with pytest.raises(CodecError, match="MAX_DEPTH"):
        FrameBuffer(WIRE_CODEC).feed(len(body).to_bytes(4, "big") + body)


def _vote_batch_body(count: int) -> bytes:
    """A VoteBatch frame body carrying ``count`` copies of one MSVote,
    spliced at the byte level (the constructor refuses more than
    MAX_BATCH): head, then the tuple's tag and length, then the items."""
    one = WIRE_CODEC.encode(VoteBatch((MSVote(1, 0, "ab"),)))
    head, item = one[:4], one[9:]
    assert one[4:9] == b"U\x00\x00\x00\x01"
    return head + b"U" + count.to_bytes(4, "big") + item * count


def test_a_vote_batch_over_max_batch_does_not_decode():
    """The batcher never puts more than MAX_BATCH messages in one
    envelope, so a frame carrying more is a CodecError, not a fan-out
    every receiver would dispatch."""
    assert MAX_BATCH == 32
    full = WIRE_CODEC.decode(_vote_batch_body(MAX_BATCH))
    assert full == VoteBatch((MSVote(1, 0, "ab"),) * MAX_BATCH)
    with pytest.raises(CodecError, match="at most 32 messages"):
        WIRE_CODEC.decode(_vote_batch_body(MAX_BATCH + 1))
    with pytest.raises(ValueError):
        VoteBatch((MSVote(1, 0, "ab"),) * (MAX_BATCH + 1))


def test_nesting_cap_sits_exactly_at_max_depth():
    """The message is level 1, so MAX_DEPTH - 1 nested tuples decode and
    one more does not."""
    node_id = 7
    for _ in range(MAX_DEPTH - 1):
        node_id = (node_id,)
    assert WIRE_CODEC.decode(_nested_hello(MAX_DEPTH - 1)) == Hello(node_id)
    with pytest.raises(CodecError, match="MAX_DEPTH"):
        WIRE_CODEC.decode(_nested_hello(MAX_DEPTH))


def test_nesting_depth_counts_the_levels_the_decoder_counts():
    for levels in (0, 1, 5, MAX_DEPTH - 1, MAX_DEPTH):
        node_id = 7
        for _ in range(levels):
            node_id = (node_id,)
        assert WIRE_CODEC.nesting_depth(Hello(node_id)) == levels + 1
    assert WIRE_CODEC.nesting_depth(StartRun()) == 1
    assert WIRE_CODEC.nesting_depth(Transaction("t", ("set", "k", 1))) == 2


def _deep_txn(depth: int) -> Transaction:
    """A transaction of nesting depth ``depth``: its op is ``depth - 1``
    nested one-item tuples."""
    op: object = 1
    for _ in range(depth - 1):
        op = (op,)
    txn = Transaction("deep", op)
    assert WIRE_CODEC.nesting_depth(txn) == depth
    return txn


def _txn_envelopes(txn: Transaction) -> list:
    """Every frame shape that carries a client transaction: the client
    port's, the batched proposals of both engine families, catch-up,
    state transfer, collect, and the WAL record."""
    block = Block.create(slot=1, parent="genesis", payload=(txn,))
    return [
        ClientSubmit(txn),
        ClientSubmitBatch((txn,)),
        MSProposal(1, 0, block),
        VoteBatch((MSProposal(1, 0, block), MSVote(1, 0, block.digest))),
        VoteBatch((SlotMessage(1, BProposal("pbft", 0, block)), MSVote(1, 0, "d"))),
        VoteBatch((SlotMessage(1, BRound("li", 0, 1, 0, block)), MSVote(1, 0, "d"))),
        VoteBatch((SlotMessage(1, BViewChange("pbft", 1, 0, block)), MSVote(1, 0, "d"))),
        CatchUp(1, (block,)),
        BlockExecuted(0, block),
        StateTransferReply(node_id=0, tip_slot=1, blocks=(block,)),
        CollectReply(0, (block,), "sd", ("deep",), 1, 1),
        WalAppend(seq=1, block=block),
    ]


def test_a_transaction_at_the_client_port_limit_decodes_in_every_envelope():
    """MAX_TXN_DEPTH leaves room for the deepest envelope: a transaction
    the client port admits can never make a proposal or a WAL record
    undecodable at a peer or on restart."""
    for message in _txn_envelopes(_deep_txn(MAX_TXN_DEPTH)):
        assert WIRE_CODEC.decode(WIRE_CODEC.encode(message)) == message, type(message)
    # The bound is tight: one level more breaks the chained batch.
    deeper = _txn_envelopes(_deep_txn(MAX_TXN_DEPTH + 1))
    assert WIRE_CODEC.decode(WIRE_CODEC.encode(deeper[1])) == deeper[1]
    with pytest.raises(CodecError, match="MAX_DEPTH"):
        WIRE_CODEC.decode(WIRE_CODEC.encode(deeper[4]))


def test_wal_reads_back_a_block_carrying_the_deepest_admitted_transaction(tmp_path):
    """A record read_wal could not decode would count as a torn tail and
    take every later fsynced record with it."""
    deep = Block.create(slot=1, parent="genesis", payload=(_deep_txn(MAX_TXN_DEPTH),))
    after = Block.create(slot=2, parent=deep.digest, payload=())
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append_block(deep)
    wal.append_block(after)
    wal.close()
    records, torn = read_wal(tmp_path / "wal.log")
    assert not torn
    assert [record.block for record in records] == [deep, after]


@pytest.mark.parametrize(
    "tail, error",
    [
        (b"U\xff\xff\xff\xff", "4294967295 values in 0 bytes"),  # checked before looping
        (b"U\x00\x00\x00\x03NN", "3 values in 2 bytes"),
        (b"S\x00\x00\x10\x00abc", "string runs past"),  # checked before slicing
        (b"B\x00\x00\x00\x09abc", "value runs past"),
        (b"J\x7f\xff\xff\xffab", "value runs past"),
        (b"I\x00\x00", "truncated frame"),  # a short int
    ],
)
def test_counts_and_lengths_are_checked_against_the_frame(tail, error):
    with pytest.raises(CodecError, match=error):
        WIRE_CODEC.decode(bytes((MAGIC, WIRE_VERSION, 0, 1)) + tail)


def test_trailing_bytes_are_a_hard_error():
    body = WIRE_CODEC.encode(ViewChange(1)) + b"\x00"
    with pytest.raises(CodecError, match="trailing"):
        WIRE_CODEC.decode(body)


#: The messages the golden tests pin, as mutation seeds.
_GOLDEN = (
    ViewChange(7),
    MSVote(3, 1, "abcd"),
    VoteBatch((MSVote(3, 1, "abcd"), MSViewChange(4, 2))),
    CommitAckBatch(2, 7, ("t1", "t2")),
    CommitAck(2, "t1", 7),
    Follow(since_height=9),
    BlockExecuted(1, Block.create(slot=1, parent="genesis", payload=())),
    MetricsRequest(),
    MetricsReply(node_id=2, items=(("consensus.commits", 40.0),), events=5),
    WalAppend(seq=5, block=Block.create(slot=1, parent="genesis", payload=())),
    StateTransferRequest(since_slot=3),
)


def _mutate(rng: random.Random, frame: bytes, other: bytes) -> bytes:
    """One hostile variant of ``frame``: flipped bytes, a cut, a splice
    with ``other``, or garbage appended."""
    kind = rng.randrange(4)
    if kind == 0:
        out = bytearray(frame)
        for _ in range(rng.randrange(1, 4)):
            out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
        return bytes(out)
    if kind == 1:
        return frame[: rng.randrange(len(frame))]
    if kind == 2:
        return frame[: rng.randrange(len(frame))] + other[rng.randrange(len(other)) :]
    return frame + rng.randbytes(rng.randrange(1, 16))


def test_mutated_frames_decode_or_raise_codec_error():
    """A seeded mutation fuzzer over every golden frame and one fuzz
    frame per registered type: whatever a hostile peer sends, the
    readers (which catch only OSError, ConnectionError and CodecError)
    see a message or a CodecError, never any other exception."""
    rng = random.Random("codec-mutations")
    seeds = [WIRE_CODEC.encode(m) for m in _GOLDEN]
    seeds += [WIRE_CODEC.encode(GENERATORS[cls](rng)) for cls in WIRE_CODEC.registered_types]
    seeds.append(_nested_hello(5000))
    outcomes = {"decoded": 0, "rejected": 0}
    for body in seeds:
        for _ in range(300):
            mutant = _mutate(rng, body, rng.choice(seeds))
            try:
                WIRE_CODEC.decode(mutant)
                outcomes["decoded"] += 1
            except CodecError:
                outcomes["rejected"] += 1
            # The same bytes behind a length word the stream reader trusts.
            try:
                FrameBuffer(WIRE_CODEC).feed(len(mutant).to_bytes(4, "big") + mutant)
            except CodecError:
                pass
    assert outcomes["decoded"] and outcomes["rejected"]


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
