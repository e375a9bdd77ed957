"""Per-replica durability behind the :class:`ReplicaStorage` protocol.

See :mod:`repro.storage.api` for the seam, :mod:`repro.storage.wal` for
the one file format, and :mod:`repro.storage.disk` for the durable
implementation over it.  :class:`MemoryStorage` is the default (persist
nothing — the historical behavior, byte for byte).

The disk-backed names are resolved lazily (PEP 562): their modules
serialize through :mod:`repro.net.codec`, and importing that eagerly
from here would close an import cycle (``smr.replica`` → this package →
``disk`` → ``net`` → ``replica_main`` → ``smr.replica``).  The protocol
seam and :class:`MemoryStorage` — all the core ``smr`` layer needs —
stay eager and codec-free.
"""

from importlib import import_module

from repro.storage.api import MemoryStorage, RecoveredState, ReplicaStorage

#: name → submodule holding it, for lazy resolution.
_LAZY = {
    "DiskStorage": "repro.storage.disk",
    "WAL_NAME": "repro.storage.disk",
    "WriteAheadLog": "repro.storage.wal",
    "read_wal": "repro.storage.wal",
}

__all__ = [
    "DiskStorage",
    "MemoryStorage",
    "RecoveredState",
    "ReplicaStorage",
    "WAL_NAME",
    "WriteAheadLog",
    "read_wal",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value
