"""Message-plane batching: many logical messages, one physical frame.

Every broadcast a node emits within one activation (one ``receive`` or
timer callback) is deferred and coalesced into a single
:class:`~repro.multishot.messages.VoteBatch` envelope.  In the good
case that folds the leader's proposal into the same frame as its own
implicit vote (proposal piggybacking) and collapses the per-Δ vote
storm from O(n²) frames to O(n) — the dominant cost term in the
Algorand-style message-volume accounting the bench layer records.

The batching is *semantics-free* by construction:

* Only **consecutive** ``broadcast()`` calls are merged.  A ``send()``
  or ``set_timer()`` call flushes the buffer first, so every scheduler
  sequence number that is not a merged broadcast lands exactly where
  the unbatched path would put it.
* Merged broadcasts are delivered at the same simulated times as their
  unbatched counterparts, and receivers unbatch before dispatch
  (:func:`iter_logical`), preserving each receiver's per-timestamp
  arrival order.  All network delays are strictly positive, so no node
  can observe the (invisible) cross-receiver interleaving change.
* A buffer holding a single message flushes as the bare message — the
  physical traffic is byte-identical to the unbatched path whenever
  there is nothing to merge.
* Timer callbacks are wrapped to flush after they fire, covering
  timer-driven activations generically; ``start`` and ``receive``
  flush explicitly at activation end.

One envelope carries at most :data:`MAX_BATCH` logical messages; a
longer run of broadcasts leaves as several envelopes.  The cap only
decides how many logical messages share a physical frame, never what
or when anything is delivered.

Engines take ``batching=False`` to run the unbatched reference path
(the batching ablation record and the equivalence suite run it).

Note on randomized delay policies: batching reduces the number of
``DelayPolicy.delay`` calls, so RNG-consuming policies draw a different
stream than an unbatched run.  Deterministic policies (synchronous,
targeted-drop, crash windows) produce byte-identical traces either
way, which is what the equivalence suite pins.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.multishot.messages import MAX_BATCH, VoteBatch


def iter_logical(message: object) -> Iterable[object]:
    """The logical messages carried by one physical frame, in order."""
    if type(message) is VoteBatch:
        return message.messages
    return (message,)


class BatchingContext:
    """A :class:`~repro.sim.runner.NodeContext` wrapper that coalesces
    consecutive broadcasts into :class:`VoteBatch` envelopes.

    Forwards the full context surface; only ``broadcast`` defers work.
    ``buffer`` holds the deferred broadcasts: an engine that finds it
    empty at activation end has nothing to flush.
    """

    __slots__ = (
        "_inner",
        "buffer",
        "report_decision",
        "report_view_entry",
        "report_storage",
        "trace",
    )

    def __init__(self, inner) -> None:
        self._inner = inner
        self.buffer: list[object] = []
        # Plain forwarding: the inner context's own bound methods.
        self.report_decision = inner.report_decision
        self.report_view_entry = inner.report_view_entry
        self.report_storage = inner.report_storage
        self.trace = inner.trace

    # -- the batching surface --------------------------------------------------

    def broadcast(self, message: object) -> None:
        self.buffer.append(message)

    def send(self, dst: int, message: object) -> None:
        self.flush()
        self._inner.send(dst, message)

    def set_timer(self, delay: float, callback: Callable[[], None]):
        self.flush()

        def fire() -> None:
            callback()
            self.flush()

        return self._inner.set_timer(delay, fire)

    def flush(self) -> None:
        """Emit buffered broadcasts: bare when single, enveloped when many."""
        buffer = self.buffer
        if not buffer:
            return
        inner = self._inner
        if len(buffer) == 1:
            message = buffer[0]
            buffer.clear()
            inner.broadcast(message)
            return
        messages = tuple(buffer)
        buffer.clear()
        for start in range(0, len(messages), MAX_BATCH):
            chunk = messages[start : start + MAX_BATCH]
            inner.broadcast(chunk[0] if len(chunk) == 1 else VoteBatch(chunk))

    # -- plain forwarding ------------------------------------------------------

    @property
    def node_id(self):
        return self._inner.node_id

    @property
    def now(self):
        return self._inner.now
