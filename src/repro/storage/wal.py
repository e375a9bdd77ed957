"""Append-only write-ahead log of finalized blocks, fsync-batched.

The WAL is a replica's only durable record: one
:class:`~repro.net.codec.WalAppend` per executed block, from slot 1 up,
and nothing else.  The on-disk format is the wire codec, verbatim: the
file is a stream of length-prefixed ``WalAppend`` frames, so the WAL
inherits the codec's determinism, versioning, and — the property
recovery leans on — torn-tail detection: a crash mid-write leaves a
partial trailing frame that fails the length/decode checks exactly like
a truncated TCP stream, and :func:`scan_wal` stops at the last intact
record.

Durability is group-committed.  Appends accumulate in a buffer; the
buffer goes to disk (write + ``fsync``) when either

* the pending count reaches :data:`WAL_RECORD_CAP`, or
* :data:`WAL_FSYNC_WINDOW` expires (an event-loop timer armed at
  first append; without a running loop — unit tests, synchronous
  callers — the record cap and explicit :meth:`WriteAheadLog.flush`
  calls are the only triggers).

A crash loses at most the unflushed tail — bounded by the window — and
consensus recovers that delta from peers; what fsync acknowledged is
what :func:`read_wal` returns.
"""

from __future__ import annotations

import asyncio
import os
import struct
from collections.abc import Iterator
from pathlib import Path

from repro.multishot.block import Block
from repro.net.codec import MAGIC, MAX_FRAME, WIRE_CODEC, WIRE_VERSION, CodecError, WalAppend

_U32 = struct.Struct(">I")

#: Most records one group commit may hold before it is written and
#: fsynced without waiting for the window.
WAL_RECORD_CAP = 64

#: Seconds the first pending record waits for others to share its fsync.
WAL_FSYNC_WINDOW = 0.005


def scan_wal(data: bytes) -> Iterator[tuple[WalAppend, int]]:
    """Each intact record in ``data`` with the offset just past it.

    Stops at the first record that is truncated, fails to decode, or is
    not a :class:`~repro.net.codec.WalAppend` — everything before it is
    trusted (it was fsynced as a prefix), everything at and after it is
    not.  The log is torn when the last offset yielded falls short of
    ``len(data)``.

    A complete record another wire version wrote is not a torn tail: it
    raises :class:`~repro.net.codec.CodecError`, so recovery refuses to
    start rather than cut a whole log aside and begin from genesis.
    """
    pos = 0
    while len(data) - pos >= 4:
        (length,) = _U32.unpack_from(data, pos)
        if length > MAX_FRAME or len(data) - pos - 4 < length:
            return
        body = data[pos + 4 : pos + 4 + length]
        if length >= 2 and body[0] == MAGIC and body[1] != WIRE_VERSION:
            raise CodecError(
                f"WAL record at byte {pos} is wire v{body[1]}, this build speaks "
                f"v{WIRE_VERSION}: refusing to recover from a log another version wrote"
            )
        try:
            message = WIRE_CODEC.decode(body)
        except CodecError:
            return
        if not isinstance(message, WalAppend):
            return
        pos += 4 + length
        yield message, pos


def read_wal(path: str | Path) -> tuple[list[WalAppend], bool]:
    """Every intact record in ``path``, plus whether the tail was torn.

    A missing file is an empty, untorn log.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], False
    records: list[WalAppend] = []
    end = 0
    for record, end in scan_wal(data):
        records.append(record)
    return records, end < len(data)


def _fsync_dir(path: Path) -> None:
    dir_fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class WriteAheadLog:
    """One replica's append-only log file, group-committed."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.next_seq = 1
        #: Cumulative groups/records/bytes fsynced (observability).
        self.flushes = 0
        self.records_written = 0
        self.bytes_written = 0
        self._pending = bytearray()
        self._pending_count = 0
        self._timer: asyncio.TimerHandle | None = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        self._file = open(self.path, "ab")
        if created:
            # The file's directory entry is durable only once its
            # directory is fsynced; no later write does that.
            _fsync_dir(self.path.parent)

    # -- appending ------------------------------------------------------------

    def append_block(self, block: Block) -> WalAppend:
        """Log one finalized block; durable after the next group commit."""
        record = WalAppend(seq=self.next_seq, block=block)
        self.next_seq += 1
        WIRE_CODEC.encode_frame_into(record, self._pending)
        self._pending_count += 1
        if self._pending_count >= WAL_RECORD_CAP:
            self.flush()
        elif self._timer is None:
            self._arm_timer()
        return record

    def _arm_timer(self) -> None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # synchronous caller: record cap / explicit flush
        self._timer = loop.call_later(WAL_FSYNC_WINDOW, self._on_window)

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

    def truncate(self, size: int) -> int:
        """Durably cut the file back to its first ``size`` bytes, after
        writing the cut bytes durably to ``wal.cut.<size>`` beside it (a
        cut can reach into acknowledged records); returns their count.

        Appends go to the end of the file (it is open in append mode),
        so after the cut they land right behind the last kept record
        instead of behind bytes :func:`scan_wal` never reads past.
        """
        self.flush()
        with open(self.path, "rb") as log:
            log.seek(size)
            cut = log.read()
        with open(self.path.with_name(f"{self.path.stem}.cut.{size}"), "wb") as aside:
            aside.write(cut)
            aside.flush()
            os.fsync(aside.fileno())
        _fsync_dir(self.path.parent)
        self._file.truncate(size)
        os.fsync(self._file.fileno())
        return len(cut)

    def close(self) -> None:
        self.flush()
        self._file.close()
