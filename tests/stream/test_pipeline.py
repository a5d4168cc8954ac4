"""Unit tests for the streaming primitives in ``repro.stream``."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.stream import (AdmissionPolicy, InOrderCommitter, StreamStats,
                          available_cpus)


class TestInOrderCommitter:
    def test_in_order_arrivals_commit_immediately(self):
        c = InOrderCommitter()
        assert c.offer(0, "a") == [(0, "a")]
        assert c.offer(1, "b") == [(1, "b")]
        assert c.depth == 0
        assert c.next_index == 2
        assert c.max_depth == 1

    def test_out_of_order_arrivals_are_held_back(self):
        c = InOrderCommitter()
        assert c.offer(2, "c") == []
        assert c.offer(1, "b") == []
        assert c.depth == 2
        # Index 0 releases the whole contiguous prefix at once.
        assert c.offer(0, "a") == [(0, "a"), (1, "b"), (2, "c")]
        assert c.depth == 0
        assert c.next_index == 3
        assert c.max_depth == 3

    def test_start_offset(self):
        c = InOrderCommitter(start=5)
        assert c.next_index == 5
        assert c.offer(5, "x") == [(5, "x")]

    def test_duplicate_index_rejected(self):
        c = InOrderCommitter()
        c.offer(1, "held")
        with pytest.raises(ValueError):
            c.offer(1, "again")
        c.offer(0, "a")
        # Committed indices are just as unrepeatable as held ones.
        with pytest.raises(ValueError):
            c.offer(0, "again")

    def test_max_depth_is_a_high_water_mark(self):
        c = InOrderCommitter()
        c.offer(3, "d")
        c.offer(2, "c")
        c.offer(1, "b")
        c.offer(0, "a")
        c.offer(4, "e")
        assert c.depth == 0
        assert c.max_depth == 4


class TestAdmissionPolicy:
    def test_window_derives_from_workers(self):
        p = AdmissionPolicy()
        assert p.effective_window(4) == 8
        assert p.effective_window(1) == 4   # floor of 4
        assert p.effective_window(0) == 4

    def test_window_override_wins(self):
        assert AdmissionPolicy(max_inflight=3).effective_window(8) == 3

    def test_speculation_defaults_to_window(self):
        p = AdmissionPolicy()
        assert p.effective_speculation(4) == p.effective_window(4)

    def test_speculation_off_and_override(self):
        assert AdmissionPolicy(speculate=False).effective_speculation(4) \
            == 0
        assert AdmissionPolicy(max_speculative=2) \
            .effective_speculation(4) == 2

    def test_shed_backlog_derivation(self):
        assert AdmissionPolicy().effective_shed_backlog(4) == 4
        assert AdmissionPolicy().effective_shed_backlog(0) == 2
        assert AdmissionPolicy(shed_backlog=7) \
            .effective_shed_backlog(0) == 7


class TestStreamStats:
    def test_add_sums_counters_and_maxes_gauges(self):
        a = StreamStats(enqueued=3, submitted=2, completed=2,
                        cache_hits=1, merged=1, speculated=2,
                        shed=1, carried=1, adopted=1, max_inflight=4,
                        max_reorder_depth=2)
        b = StreamStats(enqueued=1, submitted=1, completed=1,
                        max_inflight=2, max_reorder_depth=5)
        a.add(b)
        assert a.enqueued == 4
        assert a.submitted == 3
        assert a.completed == 3
        assert a.max_inflight == 4
        assert a.max_reorder_depth == 5

    def test_as_dict_covers_every_field(self):
        doc = StreamStats(enqueued=2, carried=1, adopted=1).as_dict()
        assert doc["enqueued"] == 2
        assert doc["carried"] == 1
        assert doc["adopted"] == 1
        assert set(doc) == set(StreamStats._COUNTERS
                               + StreamStats._GAUGES)

    def test_summary_mentions_key_counters(self):
        text = StreamStats(enqueued=5, speculated=3, shed=1, carried=2,
                           adopted=1).summary()
        assert "5 enqueued" in text
        assert "3 speculated" in text
        assert "2 carried" in text
        assert "1 adopted" in text

    def test_metrics_absorption(self):
        reg = MetricsRegistry()
        reg.absorb_stream_stats(StreamStats(
            enqueued=4, submitted=3, completed=3, cache_hits=1,
            speculated=2, shed=1, carried=1, adopted=1, max_inflight=6,
            max_reorder_depth=3))
        doc = reg.as_dict()
        assert doc["counters"]["stream.enqueued"] == 4
        assert doc["counters"]["stream.carried"] == 1
        assert doc["counters"]["stream.adopted"] == 1
        assert doc["gauges"]["stream.max_inflight"] == 6
        assert doc["gauges"]["stream.max_reorder_depth"] == 3


def test_available_cpus_is_positive():
    assert available_cpus() >= 1
