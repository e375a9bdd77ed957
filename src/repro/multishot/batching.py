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

``REPRO_NO_BATCH=1`` disables batching process-wide (the A/B escape
hatch the ablation benches use); engines also accept an explicit
``batching=`` override for in-process A/B runs.

Note on randomized delay policies: batching reduces the number of
``DelayPolicy.delay`` calls, so RNG-consuming policies draw a different
stream than an unbatched run.  Deterministic policies (synchronous,
targeted-drop, crash windows) produce byte-identical traces either
way, which is what the equivalence suite pins.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.config import repro_config
from repro.multishot.messages import VoteBatch

#: Most logical messages one envelope may carry.  One activation emits
#: a handful of broadcasts, so the cap only guards pathological
#: adversarial fan-out.
MAX_BATCH = 32


def batching_enabled() -> bool:
    """Whether the message plane batches broadcasts (default: yes).

    ``REPRO_NO_BATCH=1`` (or ``true``/``yes``) turns batching off for
    A/B comparisons without touching any call site.
    """
    return not repro_config().no_batch


def iter_logical(message: object) -> Iterable[object]:
    """The logical messages carried by one physical frame, in order."""
    if type(message) is VoteBatch:
        return message.messages
    return (message,)


class BatchingContext:
    """A :class:`~repro.sim.runner.NodeContext` wrapper that coalesces
    consecutive broadcasts into :class:`VoteBatch` envelopes.

    Forwards the full context surface; only ``broadcast`` defers work.
    """

    __slots__ = ("_inner", "_buffer")

    def __init__(self, inner) -> None:
        self._inner = inner
        self._buffer: list[object] = []

    # -- the batching surface --------------------------------------------------

    def broadcast(self, message: object) -> None:
        self._buffer.append(message)

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
        buffer = self._buffer
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

    def report_decision(self, value: object) -> None:
        self._inner.report_decision(value)

    def report_view_entry(self, view: int) -> None:
        self._inner.report_view_entry(view)

    def report_storage(self, size_bytes: int) -> None:
        self._inner.report_storage(size_bytes)

    def trace(self, kind, **detail) -> None:
        self._inner.trace(kind, **detail)
