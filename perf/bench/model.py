"""Closed forms for what a good-case Multi-shot TetraBFT run must cost.

Derived from the protocol (§6.1) and the message plane's batching
rule, then checked against the simulator's always-on counters — the
derive-then-check idiom of SNIPPETS.md snippet 3.  A gap between model
and measurement is either waste or a bug, and fails the run.

Synchronous delays, every replica correct, view 0 throughout.  Time is
in message delays Δ; slot ``s`` is proposed at ``t = s - 1``.

* A **proposal** is one logical message broadcast to all ``n`` replicas
  (the sender included: broadcasts loop back through the network).
* Every replica except the leader answers a proposal with one **vote**
  broadcast (the proposal is the leader's implicit vote), so slot ``s``
  costs ``n`` proposal deliveries at ``t = s - 1`` and ``(n - 1) · n``
  vote deliveries at ``t = s``: ``n²`` logical messages per slot.
* The replica that leads slot ``s + 1`` emits its vote for ``s`` and its
  proposal for ``s + 1`` in the same activation; the message plane
  merges those two broadcasts into one ``VoteBatch`` frame.  So from
  slot 2 on a slot costs ``n`` fewer frames than messages:
  ``n² - n`` frames per slot.
"""

from __future__ import annotations

#: A block finalizes once it heads four consecutive notarized slots.
FINALITY_WINDOW = 4


def sends_by(delays: int, n: int, max_slots: int) -> tuple[int, int]:
    """(logical messages, frames) put on the network by virtual time
    ``delays`` (inclusive of the sends made *at* that instant).

    Proposals go out at t = 0, 1, …; the votes for slot ``s`` at
    ``t = s``.  Leaders stop extending the chain at ``max_slots``.
    """
    proposed = min(delays + 1, max_slots)
    voted = min(delays, max_slots)
    messages = proposed * n + voted * (n - 1) * n
    # The leader of slot s+1 folds its vote for s into the proposal
    # frame, for every slot that has a successor proposed.
    merged = max(0, min(voted, proposed - 1))
    frames = messages - merged * n
    return messages, frames


def finalized_by(delays: int, max_slots: int) -> int:
    """Slots finalized everywhere by virtual time ``delays``.

    Slot ``s`` is notarized at ``t = s + 1`` (its votes arrive) and
    finalizes when slot ``s + 3`` is: at ``t = s + 4``.  The last
    ``FINALITY_WINDOW - 1`` slots of a bounded chain never finalize.
    """
    return max(0, min(delays - FINALITY_WINDOW, max_slots - (FINALITY_WINDOW - 1)))


def commit_delays_p50(batch: int) -> float:
    """Median submit→commit latency in Δ for a uniform stream of
    ``batch`` transactions per Δ into blocks of ``batch``.

    The stream offers exactly one block's worth per delay, so each
    block carries the transactions submitted during the delay before
    its proposal: offset ``k / batch`` into a delay waits
    ``(batch - k) / batch`` for its proposal (the one submitted *on* a
    proposal instant finds the block already full and waits a whole
    delay), then the paper's 5 message delays until the slot finalizes
    and executes.  Nearest-rank median over one period.
    """
    waits = sorted((batch - k) / batch for k in range(batch))
    rank = max(0, -(-50 * len(waits) // 100) - 1)
    return 5.0 + waits[rank]
