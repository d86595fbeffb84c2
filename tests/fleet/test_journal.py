"""The recovery journal's commit/replay contract."""

import pytest

from repro.fleet import Envelope, PartitionJournal, ReplayDivergence


def env(seq=0):
    return Envelope(src=0, dst=1, sent_s=0.5, deliver_s=1.5, seq=seq,
                    payload="b")


class TestRecording:
    def test_rounds_must_be_contiguous(self):
        journal = PartitionJournal(partition=0)
        journal.record_advance(0, 1.0, ())
        with pytest.raises(ValueError, match="expected round 1"):
            journal.record_advance(2, 3.0, ())

    def test_resend_of_current_round_is_idempotent(self):
        journal = PartitionJournal(partition=0)
        first = journal.record_advance(0, 1.0, (env(),))
        again = journal.record_advance(0, 1.0, (env(),))
        assert again is first
        assert len(journal.entries) == 1

    def test_committed_prefix_stops_at_first_uncommitted(self):
        journal = PartitionJournal(partition=0)
        for k in range(3):
            journal.record_advance(k, float(k + 1), ())
        journal.commit(0, "h0")
        journal.commit(1, "h1")
        committed = journal.committed_entries()
        assert [e.round_index for e in committed] == [0, 1]

    def test_empty_journal_has_no_commits(self):
        journal = PartitionJournal(partition=3)
        assert journal.committed_entries() == []


class TestReplayVerification:
    def test_matching_hash_passes(self):
        journal = PartitionJournal(partition=0)
        journal.record_advance(0, 1.0, ())
        journal.commit(0, "abc")
        journal.verify_replay(0, "abc")

    def test_divergent_hash_raises(self):
        journal = PartitionJournal(partition=0)
        journal.record_advance(0, 1.0, ())
        journal.commit(0, "abc")
        with pytest.raises(ReplayDivergence, match="not event-identical"):
            journal.verify_replay(0, "xyz")

    def test_contradictory_recommit_raises(self):
        journal = PartitionJournal(partition=0)
        journal.record_advance(0, 1.0, ())
        journal.commit(0, "abc")
        journal.commit(0, "abc")  # same hash: fine
        with pytest.raises(ReplayDivergence):
            journal.commit(0, "def")
