"""A deterministic replicated key-value state machine and its executor.

The canonical SMR application: every replica applies the same finalized
transaction sequence to an initially empty map and must end in the same
state — which the integration tests check byte for byte via
:meth:`state_digest`.

The store is a process's one executor and one txid ledger:
:meth:`KVStore.apply_block` skips a txid already executed, in an
earlier block or earlier in the same one (first execution wins), and
the replica, the gateway's read path and the auditor's replay all
execute through it; the replica's mempool refuses a txid ``in`` the
store.  The ledger covers the whole history *by design*, since it is
what refuses a txid executed long ago: one string per executed
transaction, like the chain itself.

Supported operations (kept deliberately tiny; determinism is the point,
not expressiveness):

* ``("set", key, value)``
* ``("del", key)``
* ``("incr", key, amount)`` — arithmetic on integer cells
* ``("noop",)``

Execution is total.  Blocks reach :meth:`KVStore.apply_block` from any
client and from any leader, Byzantine ones included, and nothing on the
vote path looks at payloads, so a command that cannot apply must not
stop a replica: it leaves the map unchanged, still consumes its txid
and is appended to the applied log, so every replica agrees on it and
the digest covers it.  A command cannot apply when it has the wrong
shape, an unknown kind or a key that is not a ``str`` (keys are sorted
for the digest), when it ``incr``s a non-integer cell, or when a value
it would store is anything but ``None``, a bool, a float, a str, bytes,
an int of at most :data:`MAX_INT_BITS` bits or a tuple of these (the
plain values the digest's codec encoding covers; :data:`MAX_INT_BITS`
bounds a cell's size, and the codec carries wider ints).
"""

from __future__ import annotations

from typing import Any

from repro.multishot.block import Block, content_digest
from repro.smr.mempool import Transaction

#: Widest int a cell may hold: no write grows a cell without bound.
MAX_INT_BITS = 4096


def _storable(value: object) -> bool:
    if type(value) is tuple:
        return all(_storable(item) for item in value)
    if isinstance(value, int):
        return value.bit_length() <= MAX_INT_BITS
    return isinstance(value, (type(None), float, str, bytes))


class KVStore:
    """The deterministic state machine each replica executes."""

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        # The txid ledger, in execution order (a dict for ``in``).
        self._applied: dict[str, None] = {}

    def __contains__(self, txid: object) -> bool:
        return txid in self._applied

    def apply_block(self, block: Block) -> list[str]:
        """Execute a finalized block's new transactions in payload
        order; returns their txids.  A payload that is not a tuple, and
        an item that is not a :class:`~repro.smr.mempool.Transaction`,
        execute nothing."""
        payload = block.payload
        if not isinstance(payload, tuple):
            return []
        executed = []
        applied = self._applied
        apply = self.apply
        for txn in payload:
            if isinstance(txn, Transaction) and txn.txid not in applied:
                apply(txn.txid, txn.op)
                executed.append(txn.txid)
        return executed

    def apply(self, txid: str, op: object) -> bool:
        """Apply one new command; returns whether it took effect.

        Never raises: a command that cannot apply (see the module
        docstring) is a no-op that still consumes ``txid``.
        """
        self._applied[txid] = None
        if not isinstance(op, tuple) or not op:
            return False
        kind = op[0]
        if kind == "noop":
            return True
        if len(op) < 2 or not isinstance(op[1], str):
            return False
        key = op[1]
        data = self._data
        if kind == "set" and len(op) == 3 and _storable(op[2]):
            data[key] = op[2]
        elif kind == "del" and len(op) == 2:
            data.pop(key, None)
        elif kind == "incr" and len(op) == 3 and isinstance(op[2], int):
            total = data.get(key, 0)
            if not isinstance(total, int):
                return False
            total += op[2]
            if total.bit_length() > MAX_INT_BITS:
                return False
            data[key] = total
        else:
            return False
        return True

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    @property
    def applied_count(self) -> int:
        return len(self._applied)

    @property
    def applied_txids(self) -> list[str]:
        return list(self._applied)

    def items(self) -> list[tuple[str, Any]]:
        """The map's entries, sorted — the snapshot/digest image order."""
        return sorted(self._data.items())

    def state_digest(self) -> str:
        """Digest of the sorted map plus the applied log order — two
        replicas agree iff their digests agree."""
        return content_digest((tuple(sorted(self._data.items())), tuple(self._applied)))
