"""Gateway session-service behaviour: fairness, batching, commits, reads.

Pure in-process tests — the service runs over a stub pool (no sockets,
no subprocesses) and an injected fake clock, so token refill
arithmetic, quorum arithmetic and eviction policy are pinned exactly.
The stub streams blocks through the real pool's frame dispatch, so the
read path sees exactly what a followed replica would send, hostile
streams included.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.gateway.ratelimit import (
    AdmissionController,
    AdmissionDenied,
    RateLimited,
    TokenBucket,
)
from repro.gateway import service as gateway_service
from repro.gateway.service import (
    EVICTED,
    DuplicateTransaction,
    GatewayConfig,
    GatewayService,
)
from repro.multishot.block import GENESIS_DIGEST, Block
from repro.net.client import ReplicaPool
from repro.net.codec import (
    BlockExecuted,
    ClientSubmit,
    ClientSubmitBatch,
    CollectReply,
    CommitAck,
    MetricsReply,
)
from repro.smr.mempool import Transaction
from repro.verification.audit import replay_chain
from tests.conftest import FakeTimer


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubPool:
    """Records submissions and follow requests; scrape() serves canned
    replies; :meth:`stream` plays a replica's block stream."""

    def __init__(self, n: int = 4) -> None:
        self.live = set(range(n))
        self.on_ack = None
        self.on_block = None
        self.on_death = None
        self.sent: list[object] = []
        self.canned_scrapes: dict[int, MetricsReply] = {}
        self.scrape_error: Exception | None = None
        self.started = False
        self.since_height = None
        #: (replica, height) per follow request, in order.
        self.follows: list[tuple[int, int]] = []

    def start_run(self) -> None:
        self.started = True

    def follow(self, since_height) -> None:
        self.since_height = since_height
        self.follows.extend((node_id, since_height()) for node_id in sorted(self.live))

    def refollow(self, node_id: int) -> None:
        self.follows.append((node_id, self.since_height()))

    def stream(self, node_id: int, *blocks: Block) -> None:
        """``node_id`` executed ``blocks``: each arrives as the
        BlockExecuted frame it would be, through the real pool's
        dispatch (block hook first, then one ack per transaction)."""
        for block in blocks:
            ReplicaPool._on_message(self, node_id, BlockExecuted(node_id, block))

    def submit(self, txn: Transaction) -> None:
        self.sent.append(ClientSubmit(txn))

    def submit_many(self, txns: list[Transaction]) -> None:
        if len(txns) == 1:
            self.submit(txns[0])
        elif txns:
            self.sent.append(ClientSubmitBatch(tuple(txns)))

    async def scrape(self, timeout=None) -> dict[int, MetricsReply]:
        if self.scrape_error is not None:
            raise self.scrape_error
        return dict(self.canned_scrapes)


def _txn(i: int, op: tuple = ("noop",)) -> Transaction:
    return Transaction(txid=f"t{i}", op=op)


def _service(
    n: int = 4, clock: FakeClock | None = None, **overrides
) -> tuple[GatewayService, StubPool, FakeClock]:
    clock = clock or FakeClock()
    pool = StubPool(n)
    defaults = dict(n=n, rate=10.0, burst=3.0, max_batch=4)
    defaults.update(overrides)
    service = GatewayService(pool, GatewayConfig(**defaults), clock=clock)
    return service, pool, clock


def _commit(service: GatewayService, txid: str, *, n_acks: int, slot: int = 1) -> None:
    for node_id in range(n_acks):
        service._on_ack(node_id, CommitAck(node_id=node_id, txid=txid, slot=slot))


# -- token bucket -------------------------------------------------------------


def test_token_bucket_refills_at_rate_up_to_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
    assert bucket.tokens == pytest.approx(5.0)  # starts full
    for _ in range(5):
        assert bucket.try_take() == 0.0
    assert bucket.tokens == pytest.approx(0.0)
    clock.advance(0.25)  # 2.5 tokens back
    assert bucket.tokens == pytest.approx(2.5)
    clock.advance(10.0)  # refill clamps at burst
    assert bucket.tokens == pytest.approx(5.0)


def test_token_bucket_reports_exact_retry_after_when_empty():
    clock = FakeClock()
    bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
    assert bucket.try_take() == 0.0
    # Empty: one token refills in exactly 1/4 second.
    assert bucket.try_take() == pytest.approx(0.25)
    clock.advance(0.1)  # 0.4 tokens there, 0.6 missing
    assert bucket.try_take() == pytest.approx(0.6 / 4.0)


def test_token_bucket_rejects_non_positive_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=-2.0)


# -- admission control --------------------------------------------------------


def test_burst_rejection_carries_retry_after():
    clock = FakeClock()
    admission = AdmissionController(
        max_clients=10, max_inflight_per_client=100, rate=10.0, burst=2.0, clock=clock
    )
    admission.check_submit("alice")
    admission.check_submit("alice")
    with pytest.raises(RateLimited) as exc_info:
        admission.check_submit("alice")
    assert exc_info.value.retry_after == pytest.approx(0.1)
    clock.advance(0.1)
    admission.check_submit("alice")  # refilled


def test_per_client_isolation_one_flooder_cannot_starve_another():
    clock = FakeClock()
    admission = AdmissionController(
        max_clients=10, max_inflight_per_client=100, rate=10.0, burst=2.0, clock=clock
    )
    admission.check_submit("flooder")
    admission.check_submit("flooder")
    with pytest.raises(RateLimited):
        admission.check_submit("flooder")
    # A different client has its own untouched bucket.
    admission.check_submit("bob")
    assert admission.clients["flooder"].rejected == 1
    assert admission.clients["bob"].rejected == 0


def test_client_capacity_is_denied_not_rate_limited():
    admission = AdmissionController(
        max_clients=2, max_inflight_per_client=10, rate=10.0, burst=5.0, clock=FakeClock()
    )
    admission.check_submit("a")
    admission.check_submit("b")
    with pytest.raises(AdmissionDenied) as exc_info:
        admission.check_submit("c")
    assert exc_info.value.code == "client_capacity"
    # Existing clients are unaffected by the full house.
    admission.check_submit("a")


def test_inflight_cap_limits_uncommitted_submissions_per_client():
    clock = FakeClock()
    admission = AdmissionController(
        max_clients=10, max_inflight_per_client=2, rate=1000.0, burst=1000.0, clock=clock
    )
    admission.check_submit("a").inflight = 2
    with pytest.raises(RateLimited):
        admission.check_submit("a")


# -- submission batching ------------------------------------------------------


def test_submissions_batch_up_to_max_batch_into_one_frame():
    async def scenario():
        service, pool, _clock = _service(rate=1000.0, burst=1000.0, max_batch=3)
        await service.start(start_consensus=False)
        for i in range(3):
            service.submit("alice", _txn(i))
        assert len(pool.sent) == 1
        (frame,) = pool.sent
        assert isinstance(frame, ClientSubmitBatch)
        assert [txn.txid for txn in frame.txns] == ["t0", "t1", "t2"]
        await service.stop()

    asyncio.run(scenario())


def test_batch_window_flushes_a_singleton_as_bare_submit():
    async def scenario():
        service, pool, _clock = _service(
            rate=1000.0, burst=1000.0, max_batch=64, batch_window=0.01
        )
        await service.start(start_consensus=False)
        service.submit("alice", _txn(0))
        assert pool.sent == []  # still buffered
        await asyncio.sleep(0.05)
        assert len(pool.sent) == 1
        assert isinstance(pool.sent[0], ClientSubmit)
        await service.stop()

    asyncio.run(scenario())


def test_repro_no_batch_disables_submission_coalescing(monkeypatch):
    """REPRO_NO_BATCH=1 means one thing repo-wide: the gateway must stop
    coalescing ClientSubmitBatch frames, not just the engines."""
    monkeypatch.setenv("REPRO_NO_BATCH", "1")

    async def scenario():
        service, pool, _clock = _service(rate=1000.0, burst=1000.0, max_batch=3)
        await service.start(start_consensus=False)
        for i in range(3):
            service.submit("alice", _txn(i))
        assert len(pool.sent) == 3  # no buffering, no batch frame
        assert all(isinstance(frame, ClientSubmit) for frame in pool.sent)
        assert service.counters["flushes"] == 3
        assert service.counters["flushed_txns"] == 3
        await service.stop()

    asyncio.run(scenario())


class _RecordingTimers:
    """Stands in for the event loop's ``call_later``: records each
    armed timer (``deadline`` holds the delay asked for) so a test
    fires it by hand instead of sleeping."""

    def __init__(self) -> None:
        self.armed: list[FakeTimer] = []

    def call_later(self, delay, callback) -> FakeTimer:
        self.armed.append(FakeTimer(delay, callback))
        return self.armed[-1]


def test_flush_at_max_batch_or_batch_window_whichever_first():
    async def scenario():
        service, pool, clock = _service(
            rate=1000.0, burst=1000.0, max_batch=4, batch_window=0.005
        )
        await service.start(start_consensus=False)
        timers = service._loop = _RecordingTimers()
        # A fast burst: the max_batch-th submission flushes at once and
        # disarms the window the first one armed.
        for i in range(4):
            clock.advance(0.0001)
            service.submit("alice", _txn(i))
        (frame,) = pool.sent
        assert [txn.txid for txn in frame.txns] == ["t0", "t1", "t2", "t3"]
        (burst_timer,) = timers.armed
        assert burst_timer.cancelled
        # A lone submission right behind the burst still gets the whole
        # window, however fast its predecessors arrived.
        service.submit("alice", _txn(4))
        lone_timer = timers.armed[-1]
        assert burst_timer.deadline == lone_timer.deadline == 0.005
        assert len(pool.sent) == 1  # buffered until the window closes
        lone_timer.callback()
        assert pool.sent[1] == ClientSubmit(_txn(4))
        await service.stop()

    asyncio.run(scenario())


def test_duplicate_txid_is_rejected_without_spending_tokens():
    async def scenario():
        service, _pool, _clock = _service(rate=10.0, burst=2.0)
        await service.start(start_consensus=False)
        service.submit("alice", _txn(0))
        with pytest.raises(DuplicateTransaction):
            service.submit("alice", _txn(0))
        # The duplicate did not burn the second token.
        service.submit("alice", _txn(1))
        await service.stop()

    asyncio.run(scenario())


# -- quorum commit tracking ---------------------------------------------------


def test_commit_requires_f_plus_one_distinct_replica_acks():
    async def scenario():
        service, _pool, clock = _service(n=4, rate=1000.0, burst=1000.0)
        await service.start(start_consensus=False)
        status = service.submit("alice", _txn(0))
        assert service.config.ack_quorum == 2
        clock.advance(0.5)
        service._on_ack(0, CommitAck(node_id=0, txid="t0", slot=5))
        assert not status.committed
        # A duplicate ack from the same replica is not quorum.
        service._on_ack(0, CommitAck(node_id=0, txid="t0", slot=5))
        assert not status.committed
        service._on_ack(1, CommitAck(node_id=1, txid="t0", slot=5))
        assert status.committed
        assert status.slot == 5
        assert status.latency == pytest.approx(0.5)
        view = service.txn_view("t0")
        assert view["status"] == "committed"
        assert view["latency_ms"] == pytest.approx(500.0)
        await service.stop()

    asyncio.run(scenario())


def test_commit_frees_the_clients_inflight_budget():
    async def scenario():
        service, _pool, _clock = _service(
            n=4, rate=1000.0, burst=1000.0, max_inflight_per_client=2
        )
        await service.start(start_consensus=False)
        service.submit("alice", _txn(0))
        service.submit("alice", _txn(1))
        with pytest.raises(RateLimited):
            service.submit("alice", _txn(2))
        _commit(service, "t0", n_acks=2)
        service.submit("alice", _txn(3))  # budget freed by the commit
        await service.stop()

    asyncio.run(scenario())


# -- subscription fan-out -----------------------------------------------------


def test_commit_events_fan_out_to_every_subscriber():
    async def scenario():
        service, _pool, _clock = _service(n=4, rate=1000.0, burst=1000.0)
        await service.start(start_consensus=False)
        sub_a, sub_b = service.subscribe(), service.subscribe()
        service.submit("alice", _txn(0))
        _commit(service, "t0", n_acks=2, slot=9)
        for sub in (sub_a, sub_b):
            event = await asyncio.wait_for(sub.next_event(), timeout=1.0)
            assert event["type"] == "commit"
            assert event["txid"] == "t0"
            assert event["slot"] == 9
        await service.stop()

    asyncio.run(scenario())


def test_slow_subscriber_is_evicted_with_a_sentinel():
    async def scenario():
        service, _pool, _clock = _service(
            n=4, rate=1000.0, burst=1000.0, subscriber_queue=2, max_batch=1000
        )
        await service.start(start_consensus=False)
        slow = service.subscribe()
        for i in range(4):
            service.submit("alice", _txn(i))
            _commit(service, f"t{i}", n_acks=2)
        assert slow.evicted
        assert slow not in service.subscriptions  # no further deliveries
        assert service.counters["subscribers_evicted"] == 1
        # The queue ends with the eviction notice; earlier events that
        # fit are still deliverable.
        drained = []
        while True:
            event = await asyncio.wait_for(slow.next_event(), timeout=1.0)
            drained.append(event)
            if event is EVICTED:
                break
        assert drained[-1] is EVICTED
        assert len(drained) == 2  # queue depth held
        await service.stop()

    asyncio.run(scenario())


def test_unsubscribed_subscriber_stops_counting():
    async def scenario():
        service, _pool, _clock = _service(n=4, rate=1000.0, burst=1000.0)
        await service.start(start_consensus=False)
        sub = service.subscribe()
        service.unsubscribe(sub)
        service.submit("alice", _txn(0))
        _commit(service, "t0", n_acks=2)
        assert sub.queue.empty()
        await service.stop()

    asyncio.run(scenario())


# -- read path: the followed chain --------------------------------------------


def _chain(*ops: tuple) -> tuple[Block, ...]:
    """A linked chain from slot 1, one txn per block (txid ``c<slot>``),
    with honest digests."""
    blocks: list[Block] = []
    parent = GENESIS_DIGEST
    for slot, op in enumerate(ops, start=1):
        payload = (Transaction(txid=f"c{slot}", op=op),)
        block = Block.create(slot=slot, parent=parent, payload=payload)
        blocks.append(block)
        parent = block.digest
    return tuple(blocks)


def _reply(node_id: int, chain: tuple[Block, ...]) -> CollectReply:
    store = replay_chain(chain)
    return CollectReply(
        node_id=node_id,
        chain=chain,
        state_digest=store.state_digest(),
        applied_txids=tuple(store.applied_txids),
        blocks_applied=len(chain),
        txns_applied=len(chain),
    )


def _held(service: GatewayService) -> int:
    """Blocks the read path holds above its applied height."""
    return sum(len(held) for held in service._pending.values())


def test_start_follows_every_replica_from_the_applied_height():
    async def scenario():
        service, pool, _clock = _service(n=4)
        await service.start(start_consensus=False)
        assert pool.follows == [(0, 0), (1, 0), (2, 0), (3, 0)]
        assert not pool.started
        await service.stop()

    asyncio.run(scenario())


def test_a_block_applies_once_f_plus_one_replicas_sent_it():
    service, pool, _clock = _service(n=4)
    chain = _chain(("set", "x", 1), ("set", "x", 2))
    pool.stream(0, *chain)
    assert service.height == 0  # one replica is not f+1
    pool.stream(1, chain[0])
    assert service.height == 1 and service.read_state("x").value == 1
    pool.stream(1, chain[1])
    view = service.read_state("x")
    assert view.value == 2 and view.chain_length == view.tip_slot == 2
    assert view.supported_by == 2
    pool.stream(2, *chain)  # a late replica only adds support
    assert service.height == 2 and service.read_state("x").supported_by == 3


def test_read_state_serves_the_majority_snapshot():
    """``ingest_snapshots`` feeds collected chains through the same
    per-block apply: the state f+1 replicas agree on, however far each
    reply reaches (a laggard holds nothing back)."""
    service, _pool, _clock = _service(n=4)
    long_chain = _chain(("set", "x", 1), ("set", "x", 2))
    support = service.ingest_snapshots(
        {
            0: _reply(0, long_chain),
            1: _reply(1, long_chain),
            2: _reply(2, long_chain),
            3: _reply(3, long_chain[:1]),  # a laggard
        }
    )
    assert support == 3
    view = service.read_state("x")
    assert view.found and view.value == 2
    assert view.supported_by == 3
    assert view.chain_length == 2
    missing = service.read_state("nope")
    assert not missing.found and missing.value is None


def test_snapshot_ties_break_to_the_longest_chain():
    """At n=2 (f=0) one replica is f+1, so the longer of two consistent
    chains is applied in full."""
    service, _pool, _clock = _service(n=2)
    long_chain = _chain(("set", "x", 1), ("set", "x", 2))
    service.ingest_snapshots({0: _reply(0, long_chain[:1]), 1: _reply(1, long_chain)})
    view = service.read_state("x")
    assert view.value == 2  # the longer chain is applied
    assert view.supported_by == 1


def test_read_state_before_any_block_serves_the_empty_genesis_state():
    service, _pool, _clock = _service(n=4)
    view = service.read_state("x")
    assert not view.found and view.value is None
    assert view.chain_length == view.tip_slot == view.supported_by == 0
    history = service.chain_history()
    assert history["height"] == 0 and history["tip"] is None and history["blocks"] == []


def test_a_hostile_follower_can_neither_lie_nor_grow_the_read_path():
    """One Byzantine feed (replica 3 of n=4) sends, ahead of the honest
    replicas each time: a forged body under the honest digest, a block
    under a conflicting digest, a second block for a height it already
    sent, and 10^5 far-future heights.  The gateway applies exactly the
    honest chain, and what it holds above the applied height stays
    flat."""
    service, pool, _clock = _service(n=4)
    honest = _chain(*[("incr", f"k{i % 5}", i) for i in range(60)])
    peak = 0
    for index, block in enumerate(honest):
        evil = (Transaction("evil", ("set", "k0", -1)),)
        forged = Block(block.slot, block.parent, evil, block.digest)
        conflicting = Block.create(block.slot, block.parent, (Transaction(f"x{index}", ("noop",)),))
        first, second = (forged, conflicting) if index % 2 else (conflicting, forged)
        pool.stream(3, first, second)  # the second for this height is ignored
        if index == 30:
            before = _held(service)
            for k in range(100_000):
                pool.on_block(3, Block(10**6 + k, "p", (), "junk"))
            assert _held(service) == before
        for node_id in (0, 1, 2):
            pool.stream(node_id, block)
        peak = max(peak, _held(service))
    assert service.height == len(honest)
    assert service._applier.store.state_digest() == replay_chain(honest).state_digest()
    assert "evil" not in service._applier.store.applied_txids
    assert peak <= 2
    assert _held(service) == 0
    # The flood lapsed replica 3, and it is followed again only once the
    # gateway has applied FOLLOW_LEAD blocks past the flood.
    assert pool.follows == []


def test_a_stream_far_ahead_is_dropped_and_followed_again(monkeypatch):
    """Replicas whose suffix runs past FOLLOW_LEAD (streamed one whole
    replica at a time, the worst interleaving) are cut off and followed
    again from the applied height once it reaches what the gateway held
    from them: every block still applies, once, with bounded holding."""
    monkeypatch.setattr(gateway_service, "FOLLOW_LEAD", 8)
    service, pool, _clock = _service(n=4)
    pool.follow(lambda: service.height)  # what start() does
    pool.follows.clear()
    chain = _chain(*[("incr", "k", 1) for _ in range(40)])
    peak = refollows = 0
    todo = [(0, 0), (1, 0)]
    while todo:
        node_id, since = todo.pop(0)
        for block in chain[since:]:
            pool.stream(node_id, block)
            peak = max(peak, _held(service))
        todo.extend(pool.follows)
        refollows += len(pool.follows)
        pool.follows.clear()
    assert refollows == 4  # at applied heights 8, 16, 24 and 32
    assert service.height == 40
    assert service.read_state("k").value == 40
    assert service._applier.store.applied_txids == [f"c{slot}" for slot in range(1, 41)]
    assert peak <= 2 * 8


def test_a_commit_is_published_after_its_block_is_applied():
    """Read-your-commits: when the ``commit`` event for a txid goes out,
    a read already sees its write."""
    service, pool, _clock = _service(n=4, rate=1000.0, burst=1000.0)
    sub = service.subscribe()
    seen_at_publish = []
    publish = service._publish

    def spy(event: dict) -> None:
        seen_at_publish.append((event["txid"], service.read_state("x").value))
        publish(event)

    service._publish = spy
    txn = Transaction("w1", ("set", "x", 7))
    service.submit("alice", txn)
    block = Block.create(1, GENESIS_DIGEST, (txn,))
    for node_id in range(4):
        pool.stream(node_id, block)
    assert seen_at_publish == [("w1", 7)]
    assert sub.queue.get_nowait()["txid"] == "w1"
    assert service.txn_view("w1")["slot"] == 1


def test_chain_history_reports_slots_and_txids():
    service, _pool, _clock = _service(n=1)
    chain = _chain(("set", "a", 1), ("set", "b", 2), ("set", "c", 3))
    service.ingest_snapshots({0: _reply(0, chain)})
    history = service.chain_history(start=1, limit=1)
    assert history["height"] == 3
    assert history["tip"] == chain[-1].digest
    assert [block["slot"] for block in history["blocks"]] == [1]
    assert history["blocks"][0]["txids"] == ["c1"]


def test_metrics_and_health_summarize_the_service():
    async def scenario():
        service, pool, _clock = _service(n=4, rate=1000.0, burst=1000.0)
        await service.start(start_consensus=False)
        service.submit("alice", _txn(0))
        service.submit("bob", _txn(1))
        _commit(service, "t0", n_acks=2)
        metrics = service.metrics()
        assert metrics["submitted"] == 2
        assert metrics["committed"] == 1
        assert metrics["pending"] == 1
        assert metrics["clients"] == 2
        health = service.health()
        assert health["status"] == "ok"
        assert health["ack_quorum"] == 2
        # Losing all but one replica degrades health (quorum is 2).
        pool.live = {0}
        assert service.health()["status"] == "degraded"
        await service.stop()

    asyncio.run(scenario())


def test_metrics_view_is_backed_by_the_registry():
    """The counters the routes expose ARE registry counters — one
    source of truth, surfaced flat for the old callers and under
    ``registry`` (gateway.* namespace) for scrape consumers."""

    async def scenario():
        service, _pool, _clock = _service(n=4, rate=1000.0, burst=1000.0)
        await service.start(start_consensus=False)
        service.submit("alice", _txn(0))
        metrics = service.metrics()
        assert metrics["submitted"] == 1
        assert metrics["registry"]["gateway.submitted"] == 1.0
        assert service.registry.counter("gateway.submitted").value == 1.0
        await service.stop()

    asyncio.run(scenario())


def test_cluster_metrics_aggregates_per_replica_scrapes():
    async def scenario():
        service, pool, _clock = _service(n=4)
        await service.start(start_consensus=False)
        pool.canned_scrapes = {
            node_id: MetricsReply(
                node_id=node_id,
                items=(("consensus.commits", 7.0),),
                events=3,
            )
            for node_id in range(4)
        }
        view = await service.cluster_metrics()
        assert sorted(view["replicas"]) == ["0", "1", "2", "3"]
        replica = view["replicas"]["2"]
        assert replica["metrics"]["consensus.commits"] == 7.0
        assert replica["events"] == 3
        assert view["replicas_live"] == 4
        assert "gateway.submitted" in view["gateway"]
        await service.stop()

    asyncio.run(scenario())
