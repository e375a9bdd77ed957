"""The typed process-wide configuration surface (``REPRO_*`` env vars).

Every behavioural escape hatch used to be a private ``os.environ``
lookup buried in the module it toggled — the heavy-grid flag in each
``eval`` CLI, for one.  That sprawl made the knob set unenumerable:
nothing stated which variables existed, which spellings counted as
"on", or what the defaults were.  :class:`ReproConfig` is the one
typed answer.

Design constraints, in order:

* **The old env vars are the interface.**  Every knob keeps its
  historical name and its historical parse, byte for byte — a value
  that toggled a flag before this module existed toggles it
  identically now (equivalence-tested in ``tests/test_repro_config``).
* **Read once, revalidated cheaply.**  :func:`repro_config` parses the
  environment once and caches the frozen result; the cache is keyed on
  a fingerprint of the raw variable values, so in-process env mutation
  (tests monkeypatching) is picked up without re-parsing on every
  call.  Replica subprocesses are spawned fresh and parse their
  inherited environment independently.
* **Knobs, not wiring.**  Structural parameters (ports, peer tables,
  cluster shape) stay in the explicit spec/config dataclasses; this
  surface carries only the cross-cutting behavioural switches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Raw variables the config is parsed from, fingerprint order.
_ENV_KEYS = (
    "REPRO_HEAVY",
    "REPRO_DATA_DIR",
    "REPRO_EVENT_LOG",
)


def _flag(raw: str | None) -> bool:
    """The historical tri-spelling switch: ``1``/``true``/``yes`` (any
    case) is on, everything else — including unset — is off."""
    return (raw or "").lower() in ("1", "true", "yes")


@dataclass(frozen=True)
class ReproConfig:
    """One immutable snapshot of every ``REPRO_*`` behavioural knob."""

    #: ``REPRO_HEAVY`` — truthy string enables the full bench grids
    #: (historically any non-empty value, not the flag spelling).
    heavy: bool = False
    #: ``REPRO_DATA_DIR`` — default per-process durability root; when
    #: unset, replicas run with :class:`~repro.storage.MemoryStorage`.
    data_dir: str | None = None
    #: ``REPRO_EVENT_LOG`` — stream every structured event to an NDJSON
    #: file under the replica's data dir (or ``REPRO_DATA_DIR``) as it
    #: happens, instead of only keeping the in-memory ring buffer.
    event_log: bool = False

    @classmethod
    def from_env(cls, env: os._Environ | dict[str, str] = os.environ) -> "ReproConfig":
        """Parse one snapshot; each knob keeps its historical parse."""
        return cls(
            heavy=bool(env.get("REPRO_HEAVY")),
            data_dir=env.get("REPRO_DATA_DIR") or None,
            event_log=_flag(env.get("REPRO_EVENT_LOG")),
        )


_CACHE: tuple[tuple[str | None, ...], ReproConfig] | None = None


def repro_config() -> ReproConfig:
    """The process's current :class:`ReproConfig`, cached.

    The cache is invalidated by comparing the raw values of every
    :data:`_ENV_KEYS` variable — a tuple compare per call — so callers
    may treat this as "read once" while tests keep mutating
    ``os.environ`` mid-process.
    """
    global _CACHE
    fingerprint = tuple(os.environ.get(key) for key in _ENV_KEYS)
    if _CACHE is None or _CACHE[0] != fingerprint:
        _CACHE = (fingerprint, ReproConfig.from_env())
    return _CACHE[1]
