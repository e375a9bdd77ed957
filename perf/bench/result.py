"""What one workload run hands back to ``perf/run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    traced: bool
    #: Every number the run measured, end-to-end and per-layer alike,
    #: by metric name; ``run.py`` selects what ``BENCHMARK.json`` names.
    values: dict[str, float] = field(default_factory=dict)
    #: Correctness checks by name; one False fails the run.
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Things a reader must know to trust the numbers (e.g. "the
    #: generator ran late: this run measured the generator").
    notes: list[str] = field(default_factory=list)
    #: The per-layer budget table (traced deployed runs), one line each.
    budget: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())
