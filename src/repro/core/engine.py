"""The candidate-evaluation engine behind ``Apply_transforms``.

The Figure-6 search spends virtually all of its time rescheduling and
scoring candidate behaviors.  :class:`EvaluationEngine` centralizes that
work behind one interface so the search loop never schedules inline:

* **memoization** — every behavior is fingerprinted
  (:func:`repro.core.evalcache.behavior_fingerprint`, invariant under
  node renumbering) and scored at most once per run; identical
  candidates produced by different lineages — extremely common with
  commutativity/associativity moves — are served from the
  :class:`~repro.core.evalcache.EvalCache`;
* **parallelism** — with ``workers >= 2`` (constructor argument, or the
  ``REPRO_WORKERS`` environment variable, or ``--workers`` on the CLI)
  each generation's ``Behavior_set`` fans out across a
  ``concurrent.futures.ProcessPoolExecutor``.  Results are assembled in
  submission order and the scheduler itself is deterministic, so seeded
  runs are reproducible bit-for-bit regardless of backend;
* **graceful fallback** — ``workers`` of 0/1, or an environment where
  worker processes cannot be spawned, degrades to the serial in-process
  backend with identical results.

Scoring adds the same tiny datapath-cost tie-break the search has
always used, so among schedule-equivalent candidates the one that sheds
operations ranks first (multi-step improvements survive selection even
when their first step alone does not shorten the schedule).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (FIRST_COMPLETED, Executor, Future,
                                ProcessPoolExecutor, wait)
from dataclasses import astuple, dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from ..cdfg.ir import _digest
from ..cdfg.regions import Behavior
from ..errors import ReproError, SearchError
from ..hw import Allocation, Library
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, AnyTracer, Tracer
from ..stg import markov as _markov
from ..sched.driver import ScheduleResult, Scheduler
from ..sched.regioncache import RegionScheduleCache
from ..sched.types import BranchProbs, ResourceModel, SchedConfig
from ..stream import AdmissionPolicy, StreamStats
from .evalcache import CacheStats, EvalCache, cached_fingerprint
from .objectives import Objective
from .telemetry import EvalStats

#: Weight of the datapath-size tie-break added to every score.
TIEBREAK = 1e-7

#: Environment knob consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


@dataclass
class Evaluated:
    """A behavior with its schedule and score.

    ``stats`` carries the incremental-evaluation counters of the
    scheduling that produced this result; it is ``None`` for candidates
    served from the behavior-level cache (no scheduling happened).
    """

    behavior: Behavior
    result: Optional[ScheduleResult]
    score: float
    lineage: Tuple[str, ...] = ()
    stats: Optional[EvalStats] = None


class EvalBudget:
    """A cap on *real* evaluation work, metered on one engine.

    The currency is ``EvalStats.scheduled`` — candidates that actually
    went through the scheduler.  Cache hits are free: a budgeted search
    is charged for the work it causes, not the candidates it looks at,
    which is what makes budget comparisons fair between strategies that
    share the memoization cache (a portfolio member rediscovering
    another's candidate pays nothing).  ``limit=None`` never exhausts.

    Budgets snapshot the engine's counter at construction, so stacking
    several sequential searches on one engine each against their own
    budget works.
    """

    def __init__(self, engine: "EvaluationEngine",
                 limit: Optional[int] = None) -> None:
        self.engine = engine
        self.limit = limit
        self._start = engine.eval_stats.scheduled

    @property
    def spent(self) -> int:
        """Scheduled evaluations since this budget was created."""
        return self.engine.eval_stats.scheduled - self._start

    @property
    def remaining(self) -> Optional[int]:
        if self.limit is None:
            return None
        return max(0, self.limit - self.spent)

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.spent >= self.limit


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit arg, else ``REPRO_WORKERS``, else 0.

    0 and 1 both mean the serial backend; ``n >= 2`` means a process
    pool of ``n`` workers.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 0
        try:
            workers = int(env)
        except ValueError:
            raise SearchError(
                f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if workers < 0:
        raise SearchError(f"worker count must be >= 0, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# Scoring (runs in the main process or in pool workers)
# ---------------------------------------------------------------------------

@dataclass
class _EvalContext:
    """Everything fixed across one run, shipped once per worker.

    ``traced`` is a plain bool, never a tracer object: each worker
    builds its own process-local :class:`~repro.obs.trace.Tracer` and
    ships finished spans home with each result (tracers don't pickle,
    and sharing one across processes would be meaningless anyway).
    """

    library: Library
    allocation: Allocation
    sched_config: SchedConfig
    branch_probs: Optional[BranchProbs]
    objective: Objective
    incremental: bool = True
    region_cache_size: int = 4096
    traced: bool = False

    def make_region_cache(self) -> Optional[RegionScheduleCache]:
        """A region-schedule cache bound to this context.

        ``incremental=False`` returns None: the scheduler then takes the
        plain in-place walk with one full Markov solve per candidate —
        the full-evaluation baseline this feature is measured against.
        (A ``max_entries=0`` cache, which runs the build-and-splice path
        without storing anything, is still available for equivalence
        testing via :class:`~repro.sched.Scheduler` directly.)
        """
        if not self.incremental:
            return None
        return RegionScheduleCache(
            max_entries=self.region_cache_size,
            context_fp=context_fingerprint(
                self.library, self.allocation, self.sched_config,
                self.branch_probs))


def context_fingerprint(library: Library, allocation: Allocation,
                        sched_config: SchedConfig,
                        branch_probs: Optional[BranchProbs] = None,
                        objective: Optional[Objective] = None) -> str:
    """Digest of everything fixed across one evaluation context.

    Two contexts with the same fingerprint schedule any given behavior
    identically; the engine's memoization keys and the exploration
    subsystem's on-disk run store both namespace behavior fingerprints
    with this.  ``objective`` is optional because the disk store keeps
    objective-independent raw metrics (schedule length, energy, area).
    """
    parts = [
        library.name,
        repr(sorted((k, v.delay, v.energy, v.area)
                    for k, v in library.fu_types.items())),
        repr(sorted((k.value, v) for k, v in library.selection.items())),
        repr((library.register.delay, library.register.energy,
              library.memory.delay, library.memory.energy,
              library.overhead_factor)),
        repr(sorted(allocation.counts.items())),
        repr(astuple(sched_config)),
        repr(sorted(branch_probs.items()) if branch_probs else None),
    ]
    if objective is not None:
        parts.append(repr((objective.kind, objective.baseline_length,
                           objective.vdd, objective.vt,
                           objective.cycle_time)))
    return _digest("|".join(parts).encode()).hexdigest()


def _datapath_cost(behavior: Behavior, library: Library,
                   allocation: Allocation) -> float:
    """Σ of FU delays over the graph — a static size proxy."""
    rm = ResourceModel(behavior.graph, library, allocation)
    return sum(rm.delay_of(nid) for nid in behavior.graph.node_ids())


def _accrue_counters(stats: EvalStats, cache_before: Optional[Tuple],
                     region_cache: Optional[RegionScheduleCache]) -> None:
    """Add the region-cache counter deltas since ``cache_before``."""
    if region_cache is None or cache_before is None:
        return
    after = region_cache.snapshot()
    stats.region_hits += after[0] - cache_before[0]
    stats.region_requests += ((after[0] - cache_before[0])
                              + (after[1] - cache_before[1]))
    stats.markov_local += after[2] - cache_before[2]
    stats.markov_reused += after[3] - cache_before[3]
    stats.markov_full += after[4] - cache_before[4]
    stats.solver_time += after[5] - cache_before[5]
    stats.states_built += after[6] - cache_before[6]
    stats.states_reused += after[7] - cache_before[7]
    stats.region_evictions += after[8] - cache_before[8]


def _set_result_attrs(span, score: float, stats: EvalStats) -> None:
    # inf is not valid JSON; unschedulable candidates carry the
    # `unschedulable` attribute instead of a score.
    span.set(score=score if score != float("inf") else None,
             region_hits=stats.region_hits,
             states_built=stats.states_built,
             states_reused=stats.states_reused,
             reschedule_fraction=round(stats.reschedule_fraction, 4))


def _score_one(ctx: _EvalContext, behavior: Behavior,
               region_cache: Optional[RegionScheduleCache],
               tracer: AnyTracer = NULL_TRACER,
               key: Optional[str] = None
               ) -> Tuple[Optional[ScheduleResult], float, EvalStats]:
    """Schedule and score one behavior ((None, inf, ...) if
    unschedulable).  The returned :class:`EvalStats` is the per-candidate
    delta of the region cache's counters (picklable, so pool workers can
    ship it home); with no cache (the full-evaluation baseline) it
    records the candidate's full state count as built-from-scratch."""
    with tracer.span("evaluate", cache="miss") as span:
        if key is not None:
            span.set(candidate=key[:16])
        before = (region_cache.snapshot()
                  if region_cache is not None else None)
        stats = EvalStats(scheduled=1)
        t0 = time.perf_counter()
        try:
            result = Scheduler(behavior, ctx.library, ctx.allocation,
                               ctx.sched_config, ctx.branch_probs,
                               region_cache=region_cache,
                               tracer=tracer).schedule()
            score = ctx.objective.evaluate(result)
            score += TIEBREAK * _datapath_cost(behavior, ctx.library,
                                               ctx.allocation)
        except ReproError as err:
            result, score = None, float("inf")
            span.set(unschedulable=type(err).__name__)
        stats.sched_time = time.perf_counter() - t0
        _accrue_counters(stats, before, region_cache)
        if region_cache is None and result is not None:
            stats.states_built = len(result.stg.states)
        _set_result_attrs(span, score, stats)
        return result, score, stats


_WORKER_CTX: Optional[_EvalContext] = None
_WORKER_REGION_CACHE: Optional[RegionScheduleCache] = None
_WORKER_TRACER: AnyTracer = NULL_TRACER


def _init_worker(ctx: _EvalContext) -> None:
    global _WORKER_CTX, _WORKER_REGION_CACHE, _WORKER_TRACER
    _WORKER_CTX = ctx
    # Each worker keeps its own region cache for the whole run; it stays
    # warm across generations (units are keyed by content, not lineage).
    _WORKER_REGION_CACHE = ctx.make_region_cache()
    # Each traced worker records into its own tracer and ships the
    # finished spans home with every result (see _eval_worker); the
    # parent re-parents them under its open span via Tracer.adopt.
    _WORKER_TRACER = Tracer() if ctx.traced else NULL_TRACER
    _markov.set_tracer(_WORKER_TRACER)


def _eval_worker(behavior: Behavior
                 ) -> Tuple[Tuple[Optional[ScheduleResult], float,
                                  EvalStats],
                            Tuple[Dict[str, object], ...]]:
    assert _WORKER_CTX is not None, "worker used before initialization"
    scored = _score_one(_WORKER_CTX, behavior, _WORKER_REGION_CACHE,
                        _WORKER_TRACER)
    return scored, _WORKER_TRACER.drain_payload()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class EvaluationEngine:
    """Memoized, optionally parallel scheduling + scoring of behaviors.

    One engine serves one search run: the library, allocation, scheduler
    configuration, branch probabilities and objective are fixed at
    construction (they namespace the cache keys), and only behaviors
    vary per call.  Use as a context manager, or call :meth:`close`, to
    release pool workers.
    """

    def __init__(self, library: Library, allocation: Allocation,
                 objective: Objective,
                 sched_config: Optional[SchedConfig] = None,
                 branch_probs: Optional[BranchProbs] = None, *,
                 workers: Optional[int] = None,
                 cache_size: int = 4096,
                 incremental: bool = True,
                 region_cache_size: int = 4096,
                 region_cache: Optional[RegionScheduleCache] = None,
                 tracer: Optional[AnyTracer] = None
                 ) -> None:
        self.tracer: AnyTracer = tracer if tracer is not None \
            else NULL_TRACER
        self._ctx = _EvalContext(library, allocation,
                                 sched_config or SchedConfig(),
                                 branch_probs, objective,
                                 incremental=incremental,
                                 region_cache_size=region_cache_size,
                                 traced=bool(self.tracer.enabled))
        self.workers = resolve_workers(workers)
        self.cache = EvalCache(max_entries=cache_size)
        #: (parent raw fingerprint × match fingerprint) -> behavior
        #: cache key.  Applying one match to one parent is
        #: deterministic, so the pair resolves a child's key without
        #: re-fingerprinting its graph (see _key_with_provenance).
        self._pair_keys = EvalCache(max_entries=cache_size)
        if region_cache is not None and incremental:
            # Externally shared cache (e.g. the Fact driver's per-context
            # registry): unit schedules survive across engines — and
            # across whole searches — as long as the evaluation context
            # matches.  Objectives are deliberately absent from the
            # region-cache namespace, so a throughput run warms the
            # cache for a subsequent power run.
            expected = context_fingerprint(library, allocation,
                                           sched_config or SchedConfig(),
                                           branch_probs)
            if region_cache.context_fp != expected:
                raise SearchError(
                    "region_cache was built for a different evaluation "
                    "context (library/allocation/schedule-config/"
                    "branch-probs mismatch)")
            self._region_cache: Optional[RegionScheduleCache] = \
                region_cache
        else:
            self._region_cache = self._ctx.make_region_cache()
        #: aggregated incremental-evaluation counters (all backends)
        self.eval_stats = EvalStats()
        #: streaming-pipeline counters (populated by evaluate_stream)
        self.stream_stats = StreamStats()
        #: total evaluation requests (cache hits included)
        self.requests = 0
        self._pool: Optional[Executor] = None
        self._pool_broken = False
        #: detached speculative futures left running across stream
        #: boundaries, keyed like the evaluation cache (see
        #: :meth:`evaluate_stream` on the detach protocol)
        self._carried: Dict[str, Future] = {}
        self._context_fp = self._fingerprint_context()
        if self.tracer.enabled:
            # markov.solve spans come from deep inside the scheduler;
            # the hook is per process (workers install their own).
            _markov.set_tracer(self.tracer)

    # -- cache keys -----------------------------------------------------
    def _fingerprint_context(self) -> str:
        ctx = self._ctx
        return context_fingerprint(ctx.library, ctx.allocation,
                                   ctx.sched_config, ctx.branch_probs,
                                   ctx.objective)

    def key_for(self, behavior: Behavior) -> str:
        """Cache key of ``behavior`` under this engine's fixed context."""
        return _digest((self._context_fp + ":"
                        + cached_fingerprint(behavior)).encode()
                       ).hexdigest()

    def _key_with_provenance(self, behavior: Behavior) -> str:
        """Behavior cache key, through the rewrite pair index if it
        applies.

        Children produced by :meth:`repro.rewrite.driver.RewriteDriver
        .apply` carry ``_rw_pair`` — the parent's raw fingerprint and
        the applied match's fingerprint.  The same match applied to the
        same parent always yields the same child, so a remembered pair
        resolves the key without hashing the child's whole graph (the
        dominant fingerprinting cost once seeds persist across
        generations).
        """
        pair = getattr(behavior, "_rw_pair", None)
        if pair is None:
            return self.key_for(behavior)
        pkey = pair[0] + ":" + pair[1]
        known = self._pair_keys.get(pkey)
        if known is not None:
            return known
        key = self.key_for(behavior)
        self._pair_keys.put(pkey, key)
        return key

    # -- statistics -----------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def metrics_registry(self) -> MetricsRegistry:
        """Unified metrics view of everything this engine has done.

        Built from the engine-level cache stats (parent-process state)
        and the *aggregated* :attr:`eval_stats` — the per-candidate
        deltas every backend ships home — so the totals are consistent
        between serial and process-pool runs.  Reading counters off
        ``self._region_cache`` directly would under-report under the
        pool backend (each worker owns a private region cache).
        """
        reg = MetricsRegistry()
        reg.set("engine.workers", self.workers)
        reg.inc("engine.requests", self.requests)
        reg.absorb_cache_stats("engine.cache", self.cache.stats)
        reg.absorb_cache_stats("engine.pair_keys", self._pair_keys.stats)
        reg.absorb_eval_stats(self.eval_stats)
        if self.stream_stats.enqueued:
            reg.absorb_stream_stats(self.stream_stats)
        return reg

    @property
    def backend(self) -> str:
        return "process" if self.workers >= 2 and not self._pool_broken \
            else "serial"

    def budget(self, limit: Optional[int] = None) -> EvalBudget:
        """A fresh :class:`EvalBudget` metering this engine from now."""
        return EvalBudget(self, limit)

    # -- evaluation -----------------------------------------------------
    def evaluate(self, behavior: Behavior,
                 lineage: Tuple[str, ...] = ()) -> Evaluated:
        """Score one behavior (through the cache, always in-process)."""
        return self.evaluate_batch([(behavior, lineage)])[0]

    def evaluate_batch(self, pairs: Sequence[Tuple[Behavior,
                                                   Tuple[str, ...]]]
                       ) -> List[Evaluated]:
        """Score a generation, preserving input order.

        Cache hits (including duplicates *within* the batch) are served
        without scheduling; the remaining unique behaviors run on the
        serial or process backend.  The returned list lines up with
        ``pairs`` index-for-index, so seeded searches see identical
        generations whichever backend ran.
        """
        self.requests += len(pairs)
        with self.tracer.span("evaluate.batch", size=len(pairs)) as span:
            outputs = self._evaluate_batch(pairs, span)
        return outputs

    def evaluate_stream(self, pairs: Iterable[Tuple[Behavior,
                                                    Tuple[str, ...]]],
                        *, policy: Optional[AdmissionPolicy] = None,
                        stats: Optional[StreamStats] = None
                        ) -> Iterator[Tuple[int, Evaluated]]:
        """Score candidates as a stream, yielding in completion order.

        The streaming twin of :meth:`evaluate_batch`: ``pairs`` may be
        any iterable (a lazy generator works — it is consumed only as
        window slots free up, which is what lets a caller append
        speculative work once real work runs out), and results are
        yielded as ``(input_index, Evaluated)`` the moment they finish
        rather than behind a generation barrier.  Per-candidate outputs
        are byte-identical to the barrier path; only the yield order
        differs, and reassembling by index reproduces
        ``evaluate_batch(pairs)`` exactly.

        With the process backend, up to ``policy.effective_window``
        evaluations are in flight at once and the main process overlaps
        downstream work (measuring, store writes, front admission) with
        them.  Serially, each candidate is scored the moment it is
        pulled, so the stream degenerates to the barrier path with
        per-candidate yields.

        Duplicates and cache hits are handled exactly like
        ``evaluate_batch``: an in-flight duplicate merges onto the first
        submission (a cache hit, stats-wise) and is yielded when its
        evaluation lands.

        Item protocol — ``pairs`` may interleave three item shapes:

        * ``(behavior, lineage)`` — ordinary work, indexed in arrival
          order (indices count work items only);
        * ``(behavior, lineage, True)`` — *detachable* (speculative)
          work: if such an evaluation is still running when every other
          item has finished, its future is stashed on the engine
          instead of being waited for, and a later ``evaluate_stream``
          on this engine adopts it mid-flight (or harvests its result
          into the evaluation cache).  A stream therefore never blocks
          on speculation.  Requires the evaluation cache (pool backend
          only; the flag is ignored serially, where nothing outlives
          the call);
        * ``None`` — "no work available *yet*": the stream stops
          topping up the window and re-pulls the source after the next
          completion.  A lazy source uses this to defer speculative
          decisions until more results have landed.  Yielding ``None``
          with nothing in flight is an error (the stream could never
          wake up again).
        """
        policy = policy if policy is not None else AdmissionPolicy()
        stats = stats if stats is not None else self.stream_stats
        source = iter(pairs)
        with self.tracer.span("evaluate.stream") as span:
            if self.workers >= 2:
                pool = self._ensure_pool()
                if pool is not None:
                    yield from self._stream_pool(source, pool, policy,
                                                 stats, span)
                    return
            yield from self._stream_serial(source, stats, span)

    def _harvest_carried(self, stats: StreamStats) -> None:
        """Absorb finished carried-over (detached) evaluations.

        Called on stream entry: detached futures that completed between
        streams land in the evaluation cache, so this stream's
        duplicates hit instead of resubmitting.  Unfinished ones stay
        carried, available for mid-flight adoption.
        """
        for key, fut in list(self._carried.items()):
            if not fut.done():
                continue
            del self._carried[key]
            try:
                (result, score, st), payload = fut.result()
            except Exception:
                continue  # worker died mid-flight: just resubmit later
            self.eval_stats.add(st)
            if payload:
                self.tracer.adopt(payload,
                                  root_attrs={"candidate": key[:16]})
            self.cache.put(key, (result, score))
            stats.completed += 1

    def _stream_pool(self, source, pool: Executor,
                     policy: AdmissionPolicy, stats: StreamStats,
                     span) -> Iterator[Tuple[int, Evaluated]]:
        window = policy.effective_window(self.workers)
        use_cache = self.cache.max_entries > 0
        traced = self.tracer.enabled
        # future -> [key, [(input index, behavior, lineage), ...],
        #            detachable]
        inflight: Dict[Future, List] = {}
        by_key: Dict[str, Future] = {}
        n_items = n_hits = n_scheduled = 0
        next_i = 0
        exhausted = False
        self._harvest_carried(stats)
        while not exhausted or inflight:
            stalled = False
            while not exhausted and not stalled \
                    and len(inflight) < window:
                try:
                    item = next(source)
                except StopIteration:
                    exhausted = True
                    break
                if item is None:
                    # "No work yet": re-pull after the next completion.
                    if not inflight:
                        raise RuntimeError(
                            "stream source yielded None with nothing "
                            "in flight; the stream could never wake")
                    stalled = True
                    break
                behavior, lineage = item[0], item[1]
                detach = use_cache and len(item) > 2 and bool(item[2])
                i = next_i
                next_i += 1
                self.requests += 1
                stats.enqueued += 1
                n_items += 1
                key = None
                if use_cache:
                    key = self._key_with_provenance(behavior)
                    fut = by_key.get(key)
                    if fut is not None:
                        # Duplicate of an in-flight key: merged, counts
                        # as a hit (same as the barrier path).
                        self.cache.stats.hits += 1
                        stats.merged += 1
                        n_hits += 1
                        entry = inflight[fut]
                        entry[1].append((i, behavior, lineage))
                        if not detach:
                            # A real waiter pins a speculative future.
                            entry[2] = False
                        continue
                    cached = self.cache.get(key)
                    if cached is not None:
                        result, score = cached
                        stats.cache_hits += 1
                        n_hits += 1
                        if traced:
                            with self.tracer.span("evaluate") as hspan:
                                hspan.set(
                                    candidate=key[:16], cache="hit",
                                    score=score
                                    if score != float("inf") else None)
                        yield i, Evaluated(behavior, result, score,
                                           lineage)
                        continue
                else:
                    self.cache.stats.misses += 1
                fut = self._carried.pop(key, None) \
                    if key is not None else None
                if fut is not None:
                    # Adopt a carried-over speculative evaluation that
                    # is still in flight from an earlier stream.
                    stats.adopted += 1
                else:
                    fut = pool.submit(_eval_worker, behavior)
                    stats.submitted += 1
                inflight[fut] = [key, [(i, behavior, lineage)], detach]
                if key is not None:
                    by_key[key] = fut
                n_scheduled += 1
                if len(inflight) > stats.max_inflight:
                    stats.max_inflight = len(inflight)
            if exhausted and inflight \
                    and all(entry[2] for entry in inflight.values()):
                # Only detached speculative work is left: stash the
                # futures on the engine instead of waiting out the
                # tail.  A later stream adopts or harvests them; the
                # caller sees this stream end the moment its own work
                # is done.
                for fut, (key, _waiters, _d) in inflight.items():
                    self._carried[key] = fut
                    stats.carried += 1
                inflight.clear()
                by_key.clear()
                break
            if not inflight:
                continue
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for fut in done:
                key, waiters, _detach = inflight.pop(fut)
                if key is not None:
                    # Later duplicates now hit the evaluation cache.
                    by_key.pop(key, None)
                (result, score, st), payload = fut.result()
                self.eval_stats.add(st)
                if payload:
                    attrs = {"candidate": key[:16]} \
                        if key is not None else None
                    self.tracer.adopt(payload, root_attrs=attrs)
                if key is not None:
                    self.cache.put(key, (result, score))
                stats.completed += 1
                for j, (i, behavior, lineage) in enumerate(waiters):
                    yield i, Evaluated(behavior, result, score, lineage,
                                       st if j == 0 else None)
        span.set(size=n_items, cache_hits=n_hits, scheduled=n_scheduled)

    def _stream_serial(self, source, stats: StreamStats,
                       span) -> Iterator[Tuple[int, Evaluated]]:
        use_cache = self.cache.max_entries > 0
        traced = self.tracer.enabled
        n_items = n_hits = n_scheduled = 0
        next_i = 0
        for item in source:
            if item is None:
                # Serially there is nothing to overlap with: a "not
                # yet" marker is just skipped (the source sees its own
                # state advance only through the results we yield).
                continue
            behavior, lineage = item[0], item[1]
            i = next_i
            next_i += 1
            self.requests += 1
            stats.enqueued += 1
            n_items += 1
            key = None
            if use_cache:
                key = self._key_with_provenance(behavior)
                cached = self.cache.get(key)
                if cached is not None:
                    result, score = cached
                    stats.cache_hits += 1
                    n_hits += 1
                    if traced:
                        with self.tracer.span("evaluate") as hspan:
                            hspan.set(
                                candidate=key[:16], cache="hit",
                                score=score
                                if score != float("inf") else None)
                    yield i, Evaluated(behavior, result, score, lineage)
                    continue
            else:
                self.cache.stats.misses += 1
            stats.submitted += 1
            n_scheduled += 1
            result, score, st = _score_one(self._ctx, behavior,
                                           self._region_cache,
                                           self.tracer, key)
            if key is not None:
                self.cache.put(key, (result, score))
            self.eval_stats.add(st)
            stats.completed += 1
            if stats.max_inflight < 1:
                stats.max_inflight = 1
            yield i, Evaluated(behavior, result, score, lineage, st)
        span.set(size=n_items, cache_hits=n_hits, scheduled=n_scheduled)

    def _evaluate_batch(self, pairs: Sequence[Tuple[Behavior,
                                                    Tuple[str, ...]]],
                        span) -> List[Evaluated]:
        outputs: List[Optional[Evaluated]] = [None] * len(pairs)
        if self.cache.max_entries <= 0:
            # Cache disabled: skip fingerprinting entirely (this is the
            # pre-engine code path, used as the benchmark baseline).
            self.cache.stats.misses += len(pairs)
            scored = self._score_batch([b for b, _ in pairs])
            span.set(cache_hits=0, scheduled=len(pairs))
            return [Evaluated(b, result, score, lineage, st)
                    for (b, lineage), (result, score, st)
                    in zip(pairs, scored)]
        # key -> indices into `pairs` awaiting that evaluation
        pending: Dict[str, List[int]] = {}
        order: List[str] = []
        traced = self.tracer.enabled
        for i, (behavior, lineage) in enumerate(pairs):
            key = self._key_with_provenance(behavior)
            if key in pending:
                # Duplicate within this batch: merged, counts as a hit.
                self.cache.stats.hits += 1
                pending[key].append(i)
                continue
            cached = self.cache.get(key)
            if cached is not None:
                result, score = cached
                outputs[i] = Evaluated(behavior, result, score, lineage)
                if traced:
                    with self.tracer.span("evaluate") as hit_span:
                        hit_span.set(
                            candidate=key[:16], cache="hit",
                            score=score
                            if score != float("inf") else None)
            else:
                pending[key] = [i]
                order.append(key)
        if pending:
            firsts = [pairs[pending[key][0]][0] for key in order]
            scored = self._score_batch(firsts, keys=order)
            for key, (result, score, st) in zip(order, scored):
                self.cache.put(key, (result, score))
                for i in pending[key]:
                    behavior, lineage = pairs[i]
                    outputs[i] = Evaluated(behavior, result, score,
                                           lineage,
                                           st if i == pending[key][0]
                                           else None)
        span.set(cache_hits=len(pairs) - len(pending),
                 scheduled=len(pending))
        assert all(e is not None for e in outputs)
        return outputs  # type: ignore[return-value]

    def _score_batch(self, behaviors: List[Behavior],
                     keys: Optional[List[str]] = None
                     ) -> List[Tuple[Optional[ScheduleResult], float,
                                     EvalStats]]:
        if len(behaviors) >= 2 and self.workers >= 2:
            pool = self._ensure_pool()
            if pool is not None:
                chunk = max(1, len(behaviors) // (self.workers * 4))
                shipped = list(pool.map(_eval_worker, behaviors,
                                        chunksize=chunk))
                scored = []
                for i, (triple, payload) in enumerate(shipped):
                    self.eval_stats.add(triple[2])
                    if payload:
                        attrs = {"candidate": keys[i][:16]} \
                            if keys is not None else None
                        self.tracer.adopt(payload, root_attrs=attrs)
                    scored.append(triple)
                return scored
        scored = [_score_one(self._ctx, b, self._region_cache,
                             self.tracer,
                             keys[i] if keys is not None else None)
                  for i, b in enumerate(behaviors)]
        for _result, _score, st in scored:
            self.eval_stats.add(st)
        return scored

    def _ensure_pool(self) -> Optional[Executor]:
        if self._pool is None and not self._pool_broken:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_init_worker,
                    initargs=(self._ctx,))
            except (OSError, ValueError, ImportError):
                # No usable multiprocessing here: stay serial.
                self._pool_broken = True
        return self._pool

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut down pool workers (idempotent and exception-safe).

        Safe to call any number of times, including after a failed
        :meth:`_ensure_pool`; a shutdown that itself raises (e.g. a pool
        whose workers already died) is swallowed, leaving the engine in
        the serial-fallback state.
        """
        for fut in self._carried.values():
            fut.cancel()  # best effort; running futures just finish
        self._carried.clear()
        # The markov.solve hook is deliberately NOT reset here: nested
        # engines (a warm-start search inside an exploration run) share
        # one tracer, and the outer engine must keep receiving spans
        # after the inner one closes.  The next traced engine replaces
        # the hook; an untraced engine leaves it alone (spans recorded
        # into an already-exported tracer are simply never exported).
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown()
        except Exception:
            self._pool_broken = True

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
