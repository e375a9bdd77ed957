"""Typed-config contract: the old ``REPRO_*`` env vars, byte for byte.

:mod:`repro.config` replaced the scattered ``os.environ`` lookups; the
contract it must honor is that every historical spelling of every knob
parses to exactly the behavior the inline lookups produced — including
the inconsistencies (flags accept ``1``/``true``/``yes`` any-case;
``REPRO_HEAVY`` is plain truthiness of a non-empty string).  The cache
must also track in-process env mutation, because these very tests
monkeypatch variables mid-run.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.config import _ENV_KEYS, ReproConfig, repro_config
from repro.core.config import ProtocolConfig
from repro.gateway.service import GatewayConfig
from repro.multishot.node import MultiShotConfig
from repro.net.cluster import ClusterConfig
from repro.net.replica_main import ReplicaSpec

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Every test starts from a fully unset REPRO_* environment."""
    for key in _ENV_KEYS:
        monkeypatch.delenv(key, raising=False)


def test_knob_census():
    """Every ``REPRO_*`` name the code, tests, CI or docs mention is a
    :class:`ReproConfig` knob, every knob is still mentioned, and every
    field is read off the config somewhere outside ``config.py``: a
    knob cannot outlive its mechanism (parsed but never consumed is
    outliving it), and none appears without going through the config.
    A test that still sets a retired knob fails here instead of
    silently testing nothing."""
    sources = [
        *(REPO_ROOT / "src").rglob("*.py"),
        *(REPO_ROOT / "benchmarks").glob("*.py"),
        *(REPO_ROOT / "tests").rglob("*.py"),
        *(REPO_ROOT / "examples").rglob("*.py"),
        *(path for path in (REPO_ROOT / "perf").rglob("*") if path.suffix in (".py", ".md")),
        REPO_ROOT / "README.md",
        REPO_ROOT / ".github" / "workflows" / "ci.yml",
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    mentioned = set()
    for path in sources:
        mentioned.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert mentioned == set(_ENV_KEYS)
    fields = {field.name for field in dataclasses.fields(ReproConfig)}
    assert len(fields) == len(_ENV_KEYS) == 3
    # Consumers read ``repro_config().<field>`` or ``cfg.<field>`` off a
    # local ``cfg = repro_config()`` — the only two spellings in src/.
    reads = re.compile(r"(?:repro_config\(\)|\bcfg)\.(\w+)")
    consumed = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        if path.name != "config.py":
            consumed.update(reads.findall(path.read_text(encoding="utf-8")))
    assert fields <= consumed, f"parsed but never consumed: {sorted(fields - consumed)}"


def test_config_field_census():
    """Every field of the stack's config dataclasses is read as
    ``.<field>`` somewhere in ``src/repro``: a setting whose mechanism
    is gone fails here instead of staying on as an option that does
    nothing.  The match is by name, so a field sharing its name with an
    attribute read elsewhere can still hide."""
    source = "\n".join(
        path.read_text(encoding="utf-8") for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
    )
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in (GatewayConfig, ClusterConfig, ReplicaSpec, MultiShotConfig, ProtocolConfig)
        for field in dataclasses.fields(cls)
        if not re.search(rf"\.{field.name}\b", source)
    ]
    assert unread == [], f"config fields never read: {unread}"


def test_defaults_with_nothing_set():
    config = repro_config()
    assert config == ReproConfig()
    assert not config.event_log and not config.heavy
    assert config.data_dir is None


@pytest.mark.parametrize("raw", ["1", "true", "TRUE", "yes", "Yes"])
def test_flag_spellings_that_enable(monkeypatch, raw):
    """The historical tri-spelling parse, any case."""
    monkeypatch.setenv("REPRO_EVENT_LOG", raw)
    assert repro_config().event_log is True


@pytest.mark.parametrize("raw", ["", "0", "false", "no", "on", "2", "enabled"])
def test_flag_spellings_that_do_not_enable(monkeypatch, raw):
    """Anything outside the three spellings is off — exactly as the
    inline ``in ("1", "true", "yes")`` checks behaved."""
    monkeypatch.setenv("REPRO_EVENT_LOG", raw)
    assert repro_config().event_log is False


def test_heavy_is_plain_truthiness(monkeypatch):
    """``REPRO_HEAVY`` historically used ``os.environ.get(...)`` as a
    bare truth test: any non-empty string counts, even ``0``."""
    assert repro_config().heavy is False
    monkeypatch.setenv("REPRO_HEAVY", "0")
    assert repro_config().heavy is True
    monkeypatch.setenv("REPRO_HEAVY", "")
    assert repro_config().heavy is False


def test_cache_tracks_env_mutation(monkeypatch):
    assert repro_config().heavy is False
    first = repro_config()
    assert repro_config() is first  # unchanged env: cached object
    monkeypatch.setenv("REPRO_HEAVY", "1")
    assert repro_config().heavy is True
    monkeypatch.delenv("REPRO_HEAVY")
    assert repro_config().heavy is False


# -- durability knobs ---------------------------------------------------------


def test_durability_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_DATA_DIR", "/tmp/somewhere")
    assert repro_config().data_dir == "/tmp/somewhere"


def test_empty_data_dir_means_unset(monkeypatch):
    monkeypatch.setenv("REPRO_DATA_DIR", "")
    assert repro_config().data_dir is None


def test_from_env_accepts_explicit_mapping():
    config = ReproConfig.from_env({"REPRO_EVENT_LOG": "1"})
    assert config.event_log is True


# -- observability knobs ------------------------------------------------------


@pytest.mark.parametrize("raw", ["1", "true", "yes", "TRUE"])
def test_obs_flags_enable_with_the_tri_spelling(monkeypatch, raw):
    """``REPRO_EVENT_LOG`` parses like every flag and participates in
    the cache fingerprint, so replica subprocesses that mutate env
    re-parse it."""
    monkeypatch.setenv("REPRO_EVENT_LOG", raw)
    assert repro_config().event_log is True


def test_obs_flags_default_off(monkeypatch):
    assert repro_config().event_log is False
    monkeypatch.setenv("REPRO_EVENT_LOG", "0")
    assert repro_config().event_log is False


def test_obs_flags_track_env_mutation(monkeypatch):
    assert repro_config().event_log is False
    monkeypatch.setenv("REPRO_EVENT_LOG", "1")
    assert repro_config().event_log is True
    monkeypatch.delenv("REPRO_EVENT_LOG")
    assert repro_config().event_log is False
