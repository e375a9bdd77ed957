"""Zero-dependency observability plane for the deployed stack.

Three pieces, all stdlib-only and deterministic under injectable
clocks:

* :mod:`repro.obs.metrics` — a per-process :class:`MetricsRegistry`
  of counters, gauges, and windowed histograms.  Every replica
  process and every gateway owns one; its :meth:`snapshot_items`
  is the exact tuple the ``MetricsReply`` wire frame carries.
* :mod:`repro.obs.events` — an NDJSON structured event log
  (``ts, replica, view, slot, kind, payload``), ring-buffered in
  memory and optionally streamed into the replica's data dir
  (``REPRO_EVENT_LOG=1``); the ring tail is the forensics record a
  SafetyAuditor violation ships.
* :mod:`repro.obs.trace` — sampled commit-path spans following a
  txn from gateway admission through finalization to the CommitAck,
  correlated by txid and summarised as per-stage latency breakdowns.
"""

from repro.obs.events import EVENT_FIELDS, EventLog, encode_event
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    WindowedHistogram,
    items_to_dict,
)
from repro.obs.trace import TRACE_STAGES, CommitPathTracer

__all__ = [
    "EVENT_FIELDS",
    "EventLog",
    "encode_event",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "WindowedHistogram",
    "items_to_dict",
    "TRACE_STAGES",
    "CommitPathTracer",
]
