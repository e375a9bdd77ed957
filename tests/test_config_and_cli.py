"""Tests for ProtocolConfig, messages, and the CLI dispatcher."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.__main__ import EXPERIMENTS, main, usage
from repro.core import (
    EMPTY_VOTE,
    Phase,
    Proposal,
    ProtocolConfig,
    Suggest,
    Vote,
    VoteRecord,
)
from repro.errors import ConfigurationError


class TestProtocolConfig:
    def test_round_robin_default(self):
        config = ProtocolConfig.create(4)
        assert [config.leader_of(v) for v in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_custom_leader_fn(self):
        config = ProtocolConfig.create(4, leader_fn=lambda v: 2)
        assert config.leader_of(17) == 2

    def test_leader_fn_returning_unknown_node_rejected(self):
        config = ProtocolConfig.create(4, leader_fn=lambda v: 99)
        with pytest.raises(ConfigurationError):
            config.leader_of(0)

    def test_view_timeout_is_nine_delta(self):
        config = ProtocolConfig.create(4, delta=2.0)
        assert config.view_timeout == 18.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig.create(4, delta=0.0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig.create(4, timeout_delays=0.0)

    def test_node_ids_sorted(self):
        assert ProtocolConfig.create(5, f=1).node_ids == [0, 1, 2, 3, 4]


class TestMessages:
    def test_vote_records_hashable_and_comparable(self):
        a = VoteRecord(1, "x")
        b = VoteRecord(1, "x")
        assert a == b and hash(a) == hash(b)
        assert EMPTY_VOTE.is_empty and not a.is_empty

    def test_messages_are_immutable(self):
        vote = Vote(Phase.VOTE1, 0, "v")
        with pytest.raises(AttributeError):
            vote.view = 3  # type: ignore[misc]

    def test_suggest_defaults_to_empty_history(self):
        suggest = Suggest(view=2)
        assert suggest.vote2.is_empty
        assert suggest.prev_vote2.is_empty
        assert suggest.vote3.is_empty

    def test_proposal_equality_for_dedup(self):
        assert Proposal(1, "v") == Proposal(1, "v")
        assert Proposal(1, "v") != Proposal(2, "v")


class TestCLI:
    def test_usage_lists_every_experiment(self):
        text = usage()
        for name in EXPERIMENTS:
            assert name in text

    def test_engines_experiment_registered(self):
        assert "engines" in EXPERIMENTS
        assert "engines" in usage()

    def test_attacks_experiment_registered(self):
        assert "attacks" in EXPERIMENTS
        assert "attacks" in usage()

    def test_net_experiment_registered(self):
        assert "net" in EXPERIMENTS
        assert "net" in usage()

    def test_no_args_is_bad_usage(self, capsys):
        assert main([]) == 1
        captured = capsys.readouterr()
        assert "usage" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_zero_on_stdout(self, capsys, flag):
        assert main([flag]) == 0
        captured = capsys.readouterr()
        assert "usage" in captured.out
        assert captured.err == ""

    def test_help_wins_even_with_extra_args(self, capsys):
        """`repro smr --help` asks for help, not for the experiment."""
        assert main(["smr", "--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_too_many_args_is_bad_usage(self, capsys):
        assert main(["smr", "table1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["nope"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig1_runs_end_to_end(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 2" in out and "True" in out


def test_package_version_matches_pyproject():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert declared is not None
    assert repro.__version__ == declared.group(1)
