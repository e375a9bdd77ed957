"""Shared configuration for the benchmark harness.

Every bench regenerates one paper artifact (README.md lists the
experiments) and asserts the *shape* the paper reports — who
wins, by what factor, where growth exponents land — while
pytest-benchmark records the wall-clock cost of the regeneration.
Benches run each experiment once (``rounds=1``): the experiments are
deterministic simulations, so repetition would measure nothing new.

The smoke runs additionally persist machine-readable records —
``BENCH_*.json`` at the repo root — via the ``bench_record`` fixture.
A record holds only what the seed determines (event and message
counts, latency in Δ, audit verdicts), so re-running a bench on
unchanged code rewrites the same bytes; wall-clock rates are printed,
not persisted (``perf/`` measures those).  Each test merges its own
key into the file, leaving records written by other tests in place.
"""

from __future__ import annotations

from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent


def record_bench(stem: str, key: str, payload: object) -> None:
    """Merge ``payload`` under ``key`` into ``BENCH_<stem>.json``.

    Delegates to :func:`repro.eval.report.merge_record`, the single
    implementation of the merge-under-key record format.
    """
    from repro.eval.report import merge_record

    merge_record(_REPO_ROOT / f"BENCH_{stem}.json", key, payload)


@pytest.fixture
def bench_record():
    """The record writer (a fixture so tests need no path logic)."""
    return record_bench


def smr_row_record(row) -> dict:
    """One SMRRow as a BENCH_smr.json cell (shared by the A4/A5 benches
    so both emit the same schema)."""
    return {
        "engine": row.engine,
        "workload": row.workload,
        "scenario": row.scenario,
        "n": row.n,
        "txns": row.txns,
        "committed": row.committed,
        "p50_delays": row.p50,
        "p95_delays": row.p95,
        "p99_delays": row.p99,
        "txns_per_delay": row.txns_per_delay,
        "messages_per_delay": row.messages_per_delay,
        "frames_per_delay": row.frames_per_delay,
        "mempool_peak": row.mempool_peak,
    }


@pytest.fixture
def row_record():
    """The SMRRow serializer, as a fixture for the same reason."""
    return smr_row_record


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "heavy: full-scale sweeps excluded from tier-1 runs "
        "(set REPRO_HEAVY=1 to include them)",
    )


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under the benchmark clock."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
