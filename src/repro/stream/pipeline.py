"""Completion-order plumbing: in-order commit and stream counters.

``InOrderCommitter`` is the determinism half of the pipeline: results
arrive in completion order, but some consumers (Pareto-front admission,
anything diffed byte-for-byte against the barrier path) must see them in
submission order.  The committer buffers out-of-order arrivals and
releases the contiguous committed prefix:

>>> c = InOrderCommitter()
>>> c.offer(2, "late")
[]
>>> c.offer(0, "first")
[(0, 'first')]
>>> c.offer(1, "second")
[(1, 'second'), (2, 'late')]
>>> c.depth, c.next_index, c.max_depth
(0, 3, 2)

``StreamStats`` is the observability half: the counters a streaming run
accumulates (admissions, merges, shed speculation) plus the
high-water marks (in-flight window, reorder depth) that back the
``stream.*`` gauges in ``docs/observability.md``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = ["InOrderCommitter", "StreamStats"]


class InOrderCommitter:
    """Reorders completion-order arrivals back into submission order.

    ``offer(index, item)`` registers one arrival and returns the list of
    ``(index, item)`` pairs that just became committable — the contiguous
    run starting at ``next_index``.  Indices must be unique; each is
    offered exactly once.
    """

    __slots__ = ("_next", "_held", "max_depth")

    def __init__(self, start: int = 0) -> None:
        self._next = start
        self._held: Dict[int, Any] = {}
        #: deepest the reorder buffer ever got
        self.max_depth = 0

    def offer(self, index: int, item: Any) -> List[Tuple[int, Any]]:
        """Register arrival ``index``; return newly committable pairs."""
        if index < self._next or index in self._held:
            raise ValueError(f"index {index} offered twice")
        self._held[index] = item
        if len(self._held) > self.max_depth:
            self.max_depth = len(self._held)
        out: List[Tuple[int, Any]] = []
        while self._next in self._held:
            out.append((self._next, self._held.pop(self._next)))
            self._next += 1
        return out

    @property
    def depth(self) -> int:
        """Arrivals currently held back waiting for an earlier index."""
        return len(self._held)

    @property
    def next_index(self) -> int:
        """First index not yet committed (== count committed so far)."""
        return self._next


@dataclass
class StreamStats:
    """Counters and high-water marks of a streaming evaluation run.

    Counts are cumulative over the run (a campaign's worth of
    generations).  ``enqueued`` counts every candidate pulled from the
    input; each is then either ``merged`` (duplicate of an in-flight
    key), a ``cache_hits`` (served from the evaluation cache without
    scheduling) or ``submitted`` for evaluation; ``completed`` counts
    finished evaluations.  ``speculated`` / ``shed`` count the explorer's speculative feeder decisions, and
    ``carried`` / ``adopted`` count speculative evaluations left running
    across a generation boundary and re-attached by a later stream.
    """

    enqueued: int = 0
    submitted: int = 0
    completed: int = 0
    cache_hits: int = 0
    merged: int = 0
    speculated: int = 0
    shed: int = 0
    carried: int = 0
    adopted: int = 0
    #: peak simultaneously in-flight evaluations
    max_inflight: int = 0
    #: peak depth of the in-order commit reorder buffer
    max_reorder_depth: int = 0

    _COUNTERS = ("enqueued", "submitted", "completed", "cache_hits",
                 "merged", "speculated", "shed", "carried",
                 "adopted")
    _GAUGES = ("max_inflight", "max_reorder_depth")

    def add(self, other: "StreamStats") -> None:
        """Fold ``other`` into this one (gauges take the max)."""
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in self._GAUGES:
            setattr(self, name, max(getattr(self, name),
                                    getattr(other, name)))

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (counters and gauges) for JSON export."""
        return {name: getattr(self, name)
                for name in self._COUNTERS + self._GAUGES}

    def summary(self) -> str:
        """One human line, used by ``--stats`` output."""
        return (f"stream: {self.enqueued} enqueued, "
                f"{self.submitted} submitted, {self.cache_hits} cache hits, "
                f"{self.merged} merged, "
                f"{self.speculated} speculated ({self.shed} shed, "
                f"{self.carried} carried, {self.adopted} adopted), "
                f"peak inflight {self.max_inflight}, "
                f"peak reorder {self.max_reorder_depth}")
