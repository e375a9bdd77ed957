"""Append-only write-ahead log of finalized blocks, fsync-batched.

The on-disk format is the wire codec, verbatim: the file is a stream of
length-prefixed :class:`~repro.net.codec.WalAppend` /
:class:`~repro.net.codec.WalSeal` frames, so the WAL inherits the
codec's determinism, versioning, and — the property recovery leans on —
torn-tail detection: a crash mid-write leaves a partial trailing frame
that fails the length/decode checks exactly like a truncated TCP
stream, and :func:`read_wal` stops at the last intact record.

Durability is group-committed.  Appends accumulate in a buffer; the
buffer goes to disk (write + ``fsync``) when either

* the pending count reaches :data:`WAL_RECORD_CAP`, or
* the flush window expires (an event-loop timer armed at first append;
  without a running loop — unit tests, synchronous callers — the
  record cap and explicit :meth:`WriteAheadLog.flush` calls are the
  only triggers).

A crash loses at most the unflushed tail — bounded by the window — and
consensus recovers that delta from peers; what fsync acknowledged is
what :func:`read_wal` returns.
"""

from __future__ import annotations

import asyncio
import os
import struct
import tempfile
from pathlib import Path

from repro.multishot.block import Block
from repro.net.codec import MAX_FRAME, WIRE_CODEC, CodecError, WalAppend, WalSeal

_U32 = struct.Struct(">I")

#: Most records one group commit may hold before it is written and
#: fsynced without waiting for the window.
WAL_RECORD_CAP = 64


def read_wal(path: str | Path) -> tuple[list[WalAppend | WalSeal], bool]:
    """Every intact record in ``path``, plus whether the tail was torn.

    Reads stop at the first record that is truncated, fails to decode,
    or is not a WAL record type — everything before it is trusted
    (it was fsynced as a prefix), everything at and after it is
    discarded.  A missing file is an empty, untorn log.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], False
    records: list[WalAppend | WalSeal] = []
    pos = 0
    torn = False
    while len(data) - pos >= 4:
        (length,) = _U32.unpack_from(data, pos)
        if length > MAX_FRAME or len(data) - pos - 4 < length:
            torn = True
            break
        try:
            message = WIRE_CODEC.decode(data[pos + 4 : pos + 4 + length])
        except CodecError:
            torn = True
            break
        if not isinstance(message, (WalAppend, WalSeal)):
            torn = True
            break
        records.append(message)
        pos += 4 + length
    if pos < len(data) and not torn:
        torn = True  # trailing partial length word
    return records, torn


class WriteAheadLog:
    """One replica's append-only log file, group-committed."""

    def __init__(self, path: str | Path, fsync_window: float = 0.005) -> None:
        self.path = Path(path)
        self.fsync_window = fsync_window
        self.next_seq = 1
        #: Cumulative groups/records/bytes fsynced (observability).
        self.flushes = 0
        self.records_written = 0
        self.bytes_written = 0
        self._pending = bytearray()
        self._pending_count = 0
        self._timer: asyncio.TimerHandle | None = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")

    # -- appending ------------------------------------------------------------

    def append_block(self, block: Block) -> WalAppend:
        """Log one finalized block; durable after the next group commit."""
        record = WalAppend(seq=self.next_seq, block=block)
        self.next_seq += 1
        self._append(record)
        return record

    def seal(self, upto_slot: int, state_digest: str) -> WalSeal:
        """Write a snapshot checkpoint marker and force it durable.

        The seal must not linger in the buffer: the caller is about to
        compact against it, and a compaction racing an unflushed seal
        would drop records the log never promised were covered.
        """
        record = WalSeal(seq=self.next_seq, upto_slot=upto_slot, state_digest=state_digest)
        self.next_seq += 1
        self._append(record)
        self.flush()
        return record

    def _append(self, record: WalAppend | WalSeal) -> None:
        WIRE_CODEC.encode_frame_into(record, self._pending)
        self._pending_count += 1
        if self._pending_count >= WAL_RECORD_CAP:
            self.flush()
        elif self._timer is None:
            self._arm_timer()

    def _arm_timer(self) -> None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # synchronous caller: record cap / explicit flush
        self._timer = loop.call_later(self.fsync_window, self._on_window)

    def _on_window(self) -> None:
        self._timer = None
        self.flush()

    # -- durability -----------------------------------------------------------

    def flush(self) -> None:
        """Write and fsync everything pending (no-op when empty)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending_count:
            return
        self._file.write(self._pending)
        self._file.flush()
        os.fsync(self._file.fileno())
        self.flushes += 1
        self.records_written += self._pending_count
        self.bytes_written += len(self._pending)
        self._pending.clear()
        self._pending_count = 0

    def close(self) -> None:
        self.flush()
        self._file.close()

    # -- compaction -----------------------------------------------------------

    def compact(self, keep_above_slot: int, seal: WalSeal) -> None:
        """Atomically rewrite the log: ``seal`` plus every durable
        append above the snapshot frontier.

        The rewrite goes through a temp file + ``os.replace`` (the
        ``merge_record`` discipline), so a crash mid-compaction leaves
        either the old complete log or the new complete log — never a
        half-truncated one.  Only fsynced records are considered;
        :meth:`seal` flushed immediately before, so nothing eligible is
        pending.
        """
        self.flush()
        records, _torn = read_wal(self.path)
        survivors: list[WalAppend | WalSeal] = [seal]
        survivors.extend(
            r for r in records if isinstance(r, WalAppend) and r.block.slot > keep_above_slot
        )
        buf = bytearray()
        for record in survivors:
            WIRE_CODEC.encode_frame_into(record, buf)
        self._file.close()
        fd, tmp_path = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(buf)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        finally:
            self._file = open(self.path, "ab")
        dir_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
