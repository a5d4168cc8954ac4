"""Admission policy for the streaming evaluation pipeline.

One small dataclass of knobs, shared by the engine's stream (window
sizing) and the explorer's speculative feeder (speculation caps
and shedding).  Every knob defaults to 0 = "derive from the worker
count", so ``AdmissionPolicy()`` is always a sensible policy.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["AdmissionPolicy", "available_cpus"]


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Speculative tail-filling trades idle parallel capacity for
    latency; on a single-CPU host there is no idle capacity, so the
    explorer consults this to turn speculation off entirely (every
    speculative cycle would be stolen from the pipeline itself).
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs governing how candidates are admitted into the stream.

    max_inflight:
        Bound on simultaneously submitted evaluations (the pool window).
        0 derives ``2 * workers`` (at least 4): enough slack that a
        finishing worker always finds a queued successor, small enough
        that completion order stays close to submission order.
    speculate:
        Allow the explorer to fill generation-tail idle slots with
        predicted next-generation candidates.  Speculative results only
        warm caches and the run store — they are never admitted into a
        front.
    max_speculative:
        Cap on speculative submissions per generation; 0 derives the
        in-flight window (speculation refills the whole window at the
        generation boundary — the next generation's first waves are
        already running when it starts).
    shed_backlog:
        The speculative backpressure threshold, used twice; 0 derives
        ``max(2, workers)``.  The feeder *holds off* (yields no work)
        until at most this many real results remain uncommitted, so
        predictions are made late, on nearly complete information; and
        it *sheds* candidates while more than this many real results
        sit in the in-order-commit reorder buffer (landed but blocked
        by an earlier straggler) — a deep reorder buffer means the
        stream is struggling to retire real work, so speculation would
        only compound the backlog.
    """

    max_inflight: int = 0
    speculate: bool = True
    max_speculative: int = 0
    shed_backlog: int = 0

    def effective_window(self, workers: int) -> int:
        """In-flight bound for a pool of ``workers`` processes."""
        if self.max_inflight > 0:
            return self.max_inflight
        return max(4, 2 * max(1, workers))

    def effective_speculation(self, workers: int) -> int:
        """Per-generation speculative submission cap."""
        if not self.speculate:
            return 0
        if self.max_speculative > 0:
            return self.max_speculative
        return self.effective_window(workers)

    def effective_shed_backlog(self, workers: int) -> int:
        """Reorder-buffer depth beyond which speculation sheds."""
        if self.shed_backlog > 0:
            return self.shed_backlog
        return max(2, workers)
