"""The three benchmark workloads: inputs, closed-loop clients, checks.

Every workload is a sequence of *passes*.  A pass is a fixed list of
jobs made from the workload seed and the pass index; whole passes run
until the timed work is nearest to ``--seconds``, so the job count is
always a whole number of passes.  Each pass starts from cold program
state (a fresh region-cache registry, or circuits no earlier pass
used), so every pass costs the same in expectation and a faster
program simply runs more passes.

Why these three (see README.md for the full layer map):

* ``table2-sweep`` — the paper's own campaign: high reuse, so the
  evaluation cache and the region-schedule cache do most of the work.
* ``fresh-designs`` — distinct generated circuits, each optimized cold
  through ``repro.optimize``: no reuse at all, so compile, profiling
  and cold scheduling dominate.  A cache change must not move it.
* ``service-mix`` — explore jobs through the job queue and the serve
  loop with two worker processes and one shared run store: the only
  workload that exercises the service, the store and process
  parallelism, with exact duplicates and seed variants in the mix.
"""

from __future__ import annotations

import gc
import math
import os
import random
import signal
import statistics
import struct
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.bench.circuits import CIRCUITS
from repro.cdfg.interp import execute
from repro.core.engine import (TIEBREAK, _datapath_cost,
                               context_fingerprint)
from repro.core.evalcache import behavior_fingerprint
from repro.core.fact import Fact, FactConfig
from repro.core.objectives import POWER, THROUGHPUT, Objective
from repro.core.search import SearchConfig
from repro.explore.pareto import ParetoFront
from repro.gen.generator import (GBinary, GConst, GExpr, GStmt,
                                 GenConfig, generate)
from repro.gen.oracles import PLAIN_REL_TOL
from repro.hw import dac98_library
from repro.lang import compile_source
from repro.profiling.profiler import profile
from repro.profiling.traces import uniform_traces
from repro.sched.driver import Scheduler
from repro.sched.regioncache import RegionScheduleCache
from repro.sched.types import SchedConfig
from repro.service.jobs import (PARETO, JobQueue, JobSpec, JobState,
                                expand_shards)
from repro.service.orchestrator import serve

#: Scheduled-evaluation cap of every optimize job (one or two search
#: generations on the Table-2 circuits).
MAX_EVALUATIONS = 10

#: A job running longer than this counts as failed (deadline overrun).
JOB_DEADLINE_S = 60.0

#: Shape of the generated circuits: one loop level, one region of three
#: statements — paper-scale CFI behaviors that optimize in 0.03-4 s.
GEN_SHAPE = GenConfig(loop_depth=1, block_stmts=3, regions=1,
                      expr_depth=2, max_trip=4)

#: Generator seeds of the circuit structures.  The structures are fixed
#: so that every workload seed does the same structural work; the
#: workload seed redraws their constants (see ``fresh_circuit``).  An
#: odd count puts the median job on one structure's samples instead of
#: between two structures of different cost.
FRESH_TEMPLATES = tuple(range(15))
SERVICE_TEMPLATES = tuple(range(100, 106))

#: Per-job shape of a service explore spec.  Warm starts are off: their
#: single-objective searches are capped by no spec field and made one
#: job cost 3-8 s, so a run held too few jobs for a steady median.
SERVICE_KNOBS = dict(generations=2, population=8, candidates_per_seed=12,
                     warm_start=False)

#: One service pass, in submission order: (kind, template slot, ref).
#: ``fresh`` is a new circuit, ``variant`` re-submits the circuit of the
#: job at ``ref`` with another seed, ``duplicate`` re-submits the exact
#: spec of the job at ``ref``.
SERVICE_PASS = (
    ("fresh", 0, None), ("fresh", 1, None), ("fresh", 2, None),
    ("variant", None, 0), ("duplicate", None, 1), ("fresh", 3, None),
    ("variant", None, 2), ("duplicate", None, 0), ("fresh", 4, None),
    ("fresh", 5, None), ("variant", None, 5), ("duplicate", None, 4),
)

#: Held-out input vectors per optimize job for the behavior check.
HELD_OUT_VECTORS = 2


@dataclass
class Outcome:
    """One finished (or failed) job as the benchmark saw it."""

    label: str
    kind: str                 #: mix kind (table2, fresh, variant, ...)
    objective: str
    latency: float
    error: Optional[str] = None      #: exception / state class
    improvement: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)
    pass_index: int = 0
    #: kept until the correctness checks have run
    payload: Optional[dict] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

def _reseed_constants(node, rng: random.Random) -> None:
    """Redraw the generator's odd leaf constants in place.

    0, 1 and powers of two are kept (they are algebraically special:
    folding, strength reduction), as are divisors and shift amounts
    (kept non-zero and small by construction), so the circuit keeps its
    structure and only its data values change.
    """
    if isinstance(node, GBinary):
        _reseed_constants(node.left, rng)
        if node.op not in ("/", "%", "<<", ">>"):
            _reseed_constants(node.right, rng)
        return
    if isinstance(node, GConst):
        if node.value > 1 and node.value & (node.value - 1):
            node.value = rng.randrange(3, 254, 2)
        return
    if isinstance(node, (GExpr, GStmt)):
        for slot in type(node).__slots__:
            _reseed_constants(getattr(node, slot), rng)
    elif isinstance(node, (list, tuple)):
        for item in node:
            _reseed_constants(item, rng)


def fresh_circuit(template: int, draw: int) -> str:
    """BDL source of template ``template`` with constants from ``draw``."""
    circuit = generate(template, GEN_SHAPE, name=f"gen{template}_{draw}")
    rng = random.Random(f"{template}:{draw}")
    program = circuit.program
    _reseed_constants(program.body, rng)
    _reseed_constants([expr for _, expr in program.decls], rng)
    _reseed_constants([expr for _, expr in program.tail], rng)
    return program.render()


def _held_out(behavior, draw: int):
    """Input vectors never used for profiling (distinct seed space)."""
    return uniform_traces(behavior, HELD_OUT_VECTORS, lo=1, hi=255,
                          seed=10_000_019 + draw, array_lo=0,
                          array_hi=255).cases


# ---------------------------------------------------------------------------
# Optimize-job checks (shared by table2-sweep and fresh-designs)
# ---------------------------------------------------------------------------

def _check_optimize(p: dict) -> List[str]:
    """Behavior and bit-exact re-score checks of one optimize winner."""
    errors = []
    original, best = compile_source(p["source"]), p["best_behavior"]
    for case in _held_out(original, p["draw"]):
        got = []
        for beh in (original, best):
            try:
                r = execute(beh, dict(case.inputs),
                            {k: list(v) for k, v in case.arrays.items()})
                got.append(("ok", r.outputs))
            except repro.ReproError as exc:
                got.append(("error", type(exc).__name__))
        if got[0] != got[1]:
            errors.append(f"winner outputs {got[1]} differ from the "
                          f"input's {got[0]}")
    lib, alloc, probs = dac98_library(), p["allocation"], p["branch_probs"]
    fp = context_fingerprint(lib, alloc, p["sched"], probs)

    def spliced(beh):
        # A zero-capacity region cache reuses nothing: every region is
        # scheduled and solved from scratch, in the splice path's float
        # order — the program's bit-identity reference.
        cache = RegionScheduleCache(max_entries=0, context_fp=fp)
        return Scheduler(beh, lib, alloc, p["sched"], probs,
                         region_cache=cache).schedule()

    def plain(beh):
        return Scheduler(beh, lib, alloc, p["sched"], probs).schedule()

    for path, schedule, exact in (("cache-off", spliced, True),
                                  ("plain-walk", plain, False)):
        objective = Objective(THROUGHPUT)
        if p["objective"] == POWER:
            objective = Objective(POWER, baseline_length=schedule(
                original).average_length())
        for name, beh, reported in (
                ("initial", original, p["initial_score"]),
                ("best", best, p["best_score"])):
            # The engine's score is the objective plus its fixed
            # datapath tie-break.
            rescored = objective.evaluate(schedule(beh)) \
                + TIEBREAK * _datapath_cost(beh, lib, alloc)
            if exact:
                same = _bits(rescored) == _bits(reported)
            else:
                # The plain walk sums the same visits in another order:
                # the program promises agreement to PLAIN_REL_TOL only.
                same = abs(rescored - reported) \
                    <= PLAIN_REL_TOL * max(1.0, abs(reported))
            if not same:
                errors.append(f"{path} re-score of the {name} design "
                              f"{rescored!r} != reported {reported!r}")
    return errors


def _optimize_outcome(label: str, kind: str, objective: str,
                      latency: float, result, source: str, allocation,
                      sched: SchedConfig, branch_probs,
                      draw: int) -> Outcome:
    search = result.search
    tel = search.telemetry
    trajectory = [search.initial.score] + (tel.best_trajectory
                                           if tel else [])
    improving = sum(1 for a, b in zip(trajectory, trajectory[1:]) if b < a)
    extra = {"generations": search.generations,
             "evaluations": search.evaluated_count,
             "improving_generations": improving,
             "recorded_generations": len(tel.generations) if tel else 0}
    if tel is not None:
        for key, value in tel.eval.as_dict().items():
            extra[f"eval.{key}"] = value
        for key, value in tel.rewrite.as_dict().items():
            extra[f"rewrite.{key}"] = value
        extra["cache.hits"] = tel.cache.hits
        extra["cache.misses"] = tel.cache.misses
    return Outcome(
        label=label, kind=kind, objective=objective, latency=latency,
        improvement=search.improvement, extra=extra,
        payload={"source": source, "draw": draw,
                 "best_behavior": result.best.behavior,
                 "allocation": allocation, "sched": sched,
                 "branch_probs": branch_probs, "objective": objective,
                 "initial_score": result.initial.score,
                 "best_score": result.best.score})


def _failed(label: str, kind: str, objective: str, latency: float,
            exc: BaseException) -> Outcome:
    name = type(exc).__name__
    if "exceeded" in str(exc):
        name += ": path explosion"
    return Outcome(label, kind, objective, latency, error=name)


def _deadline(out: Outcome) -> Outcome:
    if out.ok and out.latency > JOB_DEADLINE_S:
        out.error = "DeadlineExceeded"
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: a seeded job source, the pass loop and the checks.

    ``run`` times whole passes only.  Between passes, outside the timed
    window, the benchmark checks the finished pass (dropping the winners
    it kept for that), builds the next pass's inputs and collects
    garbage, so every pass starts from the same heap state.
    """

    name = ""

    def __init__(self, seed: int, work_dir: Path, log) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.log = log            #: tracing.SpanLog (inactive if untraced)
        self.outcomes: List[Outcome] = []
        self.errors: List[str] = []
        self.passes = 0
        self.wall = 0.0           #: timed seconds (sum of pass walls)
        self._verdicts: Dict[tuple, List[str]] = {}

    def prepare(self) -> None:
        """Build the inputs of the first pass (part of set-up)."""
        self.next_jobs = self.pass_jobs(0)

    def pass_jobs(self, index: int) -> list:
        raise NotImplementedError

    def run_pass(self, jobs: list) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> None:
        """Run passes while the next one is expected to end nearer to
        ``seconds`` of timed work than stopping now would (at least
        one pass)."""
        while True:
            t0 = time.perf_counter()
            self.run_pass(self.next_jobs)
            self.wall += time.perf_counter() - t0
            self.passes += 1
            self._check_pass()
            gc.collect()
            if self.wall * (1 + 0.5 / self.passes) >= seconds:
                break
            self.next_jobs = self.pass_jobs(self.passes)

    def _record(self, out: Outcome) -> None:
        out.pass_index = self.passes
        self.outcomes.append(out)

    def _check_pass(self) -> None:
        for out in self.outcomes:
            if out.payload is None:
                continue
            # Seeds of one circuit often reach the same winner: check
            # each distinct (input, winner, context) once.
            p, out.payload = out.payload, None
            key = (p["source"], p["objective"], p["draw"],
                   behavior_fingerprint(p["best_behavior"]),
                   tuple(sorted(p["branch_probs"].items())))
            if key not in self._verdicts:
                self._verdicts[key] = _check_optimize(p)
            self.errors.extend(f"{out.label}: {e}"
                               for e in self._verdicts[key])

    def checks(self) -> List[str]:
        """Correctness findings (all checks run outside timed work)."""
        return self.errors

    def throughput(self) -> Tuple[int, float]:
        """(completed jobs, timed seconds) for ``jobs_per_s``."""
        return sum(1 for o in self.outcomes if o.ok), self.wall

    def mix(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for out in self.outcomes:
            counts[out.kind] = counts.get(out.kind, 0) + 1
        return counts

    def describe(self) -> Dict[str, object]:
        return {}


class Table2Sweep(Workload):
    """Six Table-2 circuits x {throughput, power} x two search seeds.

    Serial, with one region-cache registry shared by the whole pass —
    the paper's sweep as ``docs/performance.md`` runs it.  Each pass
    starts with the default search seed (what ``repro optimize`` runs),
    then sweeps one more seed drawn from the workload seed; the cold
    first sweep costs the same on every workload seed, so the latency
    tail does not depend on which seed was drawn.
    """

    name = "table2-sweep"

    def pass_jobs(self, index: int):
        rng = random.Random(f"table2:{self.seed}:{index}")
        seeds = (SearchConfig().seed, 1 + rng.randrange(1_000_000))
        return [(s, name, obj) for s in seeds for name in CIRCUITS
                for obj in (THROUGHPUT, POWER)]

    def prepare(self) -> None:
        self.traces = {name: circuit.traces(circuit.behavior())
                       for name, circuit in CIRCUITS.items()}
        super().prepare()

    def describe(self):
        return {"circuits": sorted(CIRCUITS),
                "objectives": [THROUGHPUT, POWER],
                "search_seeds_per_pass": "default seed + 1 drawn",
                "max_evaluations": MAX_EVALUATIONS,
                "shared_region_caches": "per pass"}

    def run_pass(self, jobs: list) -> None:
        lib = dac98_library()
        caches: Dict[str, object] = {}
        probs: Dict[str, dict] = {}
        for search_seed, name, objective in jobs:
            circuit = CIRCUITS[name]
            if name not in probs:
                # Like repro.bench.table2: each circuit is profiled once
                # per campaign, then swept with its branch probabilities
                # (timed as campaign work, outside any job).
                with self.log.span("job", "profile", job=name):
                    probs[name] = dict(profile(
                        compile_source(circuit.source),
                        self.traces[name]).branch_probs)
            label = f"{name}/{objective}/s{search_seed}"
            config = FactConfig(sched=circuit.sched, search=SearchConfig(
                seed=search_seed, max_evaluations=MAX_EVALUATIONS))
            t0 = time.perf_counter()
            try:
                with self.log.span("job", "optimize", job=label):
                    behavior = compile_source(circuit.source)
                    fact = Fact(lib, config=config, region_caches=caches)
                    result = fact.optimize(
                        behavior, circuit.allocation,
                        branch_probs=probs[name], objective=objective)
            except repro.ReproError as exc:
                self._record(_failed(label, "table2", objective,
                                     time.perf_counter() - t0, exc))
                continue
            self._record(_deadline(_optimize_outcome(
                label, "table2", objective, time.perf_counter() - t0,
                result, circuit.source, circuit.allocation, circuit.sched,
                probs[name], draw=self.seed)))


class FreshDesigns(Workload):
    """Distinct generated circuits, one cold ``repro.optimize`` each."""

    name = "fresh-designs"

    def pass_jobs(self, index: int):
        draw = self.seed * 1000 + index
        objectives = (THROUGHPUT, POWER) if (self.seed + index) % 2 == 0 \
            else (POWER, THROUGHPUT)
        return [(t, draw, fresh_circuit(t, draw), objectives[k % 2])
                for k, t in enumerate(FRESH_TEMPLATES)]

    def describe(self):
        return {"templates": list(FRESH_TEMPLATES),
                "gen_shape": asdict(GEN_SHAPE),
                "objectives": "alternating",
                "max_evaluations": MAX_EVALUATIONS,
                "shared_caches": "none"}

    def run_pass(self, jobs: list) -> None:
        config = repro.ReproConfig(
            search=SearchConfig(max_evaluations=MAX_EVALUATIONS))
        allocation = repro.coerce_allocation(None)
        sched = config.resolved().sched
        for template, draw, source, objective in jobs:
            label = f"gen{template}_{draw}/{objective}"
            t0 = time.perf_counter()
            try:
                with self.log.span("job", "optimize", job=label):
                    result = repro.optimize(source, objective=objective,
                                            config=config)
            except repro.ReproError as exc:
                self._record(_failed(label, "fresh", objective,
                                     time.perf_counter() - t0, exc))
                continue
            self._record(_deadline(_optimize_outcome(
                label, "fresh", objective, time.perf_counter() - t0,
                result, source, allocation, sched,
                dict(result.profile.branch_probs),
                draw=draw * 100 + template)))


class ServiceMix(Workload):
    """Two closed-loop clients, ``serve`` with two worker processes."""

    name = "service-mix"
    CLIENTS = 2
    WORKERS = 2
    CLIENT_POLL_S = 0.01

    def pass_jobs(self, index: int) -> List[Tuple[str, JobSpec]]:
        draw = self.seed * 1000 + index
        rng = random.Random(f"service:{draw}")
        specs: List[Tuple[str, JobSpec]] = []
        for kind, slot, ref in SERVICE_PASS:
            if kind == "fresh":
                template = SERVICE_TEMPLATES[slot]
                spec = JobSpec(source=fresh_circuit(template, draw),
                               seed=rng.randrange(1000), **SERVICE_KNOBS)
            elif kind == "variant":
                base = specs[ref][1]
                spec = JobSpec(source=base.source, alloc=base.alloc,
                               seed=base.seed + 1 + rng.randrange(1000),
                               **SERVICE_KNOBS)
            else:
                spec = specs[ref][1]
            specs.append((kind, spec))
        return specs

    def prepare(self) -> None:
        self.queue = JobQueue(self.work_dir / "queue")
        self.store = self.work_dir / "store"
        super().prepare()

    def describe(self):
        return {"clients": self.CLIENTS, "workers": self.WORKERS,
                "loop": "closed", "pass": [k for k, _, _ in SERVICE_PASS],
                "templates": list(SERVICE_TEMPLATES),
                "knobs": SERVICE_KNOBS, "client_poll_s": self.CLIENT_POLL_S}

    def run(self, seconds: float) -> None:
        """Clients run the passes back to back (they never wait for a
        pass boundary); the same stopping rule applies per pass."""
        from repro.obs.metrics import MetricsRegistry
        self.metrics = MetricsRegistry()
        lock = threading.Lock()
        feed = {"pos": 0, "specs": self.next_jobs}
        start = time.perf_counter()
        self.completions: List[Tuple[float, bool]] = []

        def next_job():
            with lock:
                if feed["specs"] is None:
                    return None
                if feed["pos"] == len(feed["specs"]):
                    self.passes += 1
                    elapsed = time.perf_counter() - start
                    if elapsed * (1 + 0.5 / self.passes) >= seconds:
                        feed["specs"] = None
                        self.feed_end = elapsed
                        return None
                    feed["specs"] = self.pass_jobs(self.passes)
                    feed["pos"] = 0
                pos = feed["pos"]
                feed["pos"] += 1
                kind, spec = feed["specs"][pos]
                return self.passes, f"p{self.passes}.{pos}", kind, spec

        def client() -> None:
            while True:
                job = next_job()
                if job is None:
                    return
                out = self._one_job(*job[1:])
                out.pass_index = job[0]
                with lock:
                    self.outcomes.append(out)
                    self.completions.append(
                        (time.perf_counter() - start, out.ok))

        def coordinate() -> None:
            threads = [threading.Thread(target=client, daemon=True)
                       for _ in range(self.CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            self.wall = time.perf_counter() - start
            # serve() drains gracefully on SIGTERM: the loop returns
            # once no batch is in flight.  (Once serve() has returned,
            # the default handler is back and the signal would kill us.)
            with lock:
                if serving.is_set():
                    os.kill(os.getpid(), signal.SIGTERM)

        serving = threading.Event()
        serving.set()
        coordinator = threading.Thread(target=coordinate, daemon=True)
        coordinator.start()
        try:
            serve(self.queue, store=self.store, workers=self.WORKERS,
                  metrics=self.metrics)
        finally:
            with lock:
                serving.clear()
        coordinator.join(timeout=JOB_DEADLINE_S)

    def throughput(self) -> Tuple[int, float]:
        """Completions up to the moment the feed ran dry, over that
        time: the drain that follows (one client idle, the other
        finishing) is an edge effect of stopping, not throughput."""
        done = sum(1 for t, ok in self.completions
                   if ok and t <= self.feed_end)
        return done, self.feed_end

    def _one_job(self, label: str, kind: str, spec: JobSpec) -> Outcome:
        t0 = time.perf_counter()
        error = None
        with self.log.span("job", "client", job=label):
            record = self.queue.submit(spec)
            submit_s = time.perf_counter() - t0
            while not record.state.terminal:
                if time.perf_counter() - t0 > JOB_DEADLINE_S:
                    self.queue.cancel(record.job_id)
                    error = "DeadlineExceeded"
                    break
                time.sleep(self.CLIENT_POLL_S)
                record = self.queue.get(record.job_id)
        latency = time.perf_counter() - t0
        seen = time.time()
        if error is None and record.state is not JobState.DONE:
            error = f"{record.state.value}: " \
                f"{(record.error or '').split(';')[0]}"
        out = Outcome(label, kind, PARETO, latency, error=error)
        out.extra = {"submit_s": submit_s}
        # Lifecycle times describe this submission only when it ran the
        # job (a duplicate's record carries its original's timestamps).
        if kind != "duplicate" and record.finished_at is not None \
                and record.started_at is not None:
            out.extra["queue_wait_s"] = record.started_at \
                - record.submitted_at
            out.extra["run_s"] = record.finished_at - record.started_at
            out.extra["observe_lag_s"] = max(seen - record.finished_at, 0.0)
        if error is None:
            front = self.queue.result(record.job_id).front
            out.extra["front_size"] = len(front)
            out.payload = {"spec": spec, "job_id": record.job_id,
                           "front_json": front.to_json()}
        return out

    # -- checks ---------------------------------------------------------
    def checks(self) -> List[str]:
        errors: List[str] = list(self.errors)
        done = [o for o in self.outcomes if o.ok]
        by_id: Dict[str, str] = {}
        for out in done:
            jid = out.payload["job_id"]
            if jid in by_id and by_id[jid] != out.payload["front_json"]:
                errors.append(f"{out.label}: duplicate's front differs "
                              f"from its original's")
            by_id.setdefault(jid, out.payload["front_json"])
        # Improvement: front endpoints against the M1 schedule.
        m1: Dict[Tuple[str, int], Tuple[float, float]] = {}
        for out in done:
            spec = out.payload["spec"]
            key = (spec.source, spec.seed)
            if key not in m1:
                m1[key] = _m1_costs(spec)
            length0, power0 = m1[key]
            front = ParetoFront.from_json(out.payload["front_json"])
            thr = length0 / front.best(0).objectives[0]
            pwr = power0 / front.best(1).objectives[1]
            out.improvement = math.sqrt(thr * pwr)
        # A seeded sample must match a serial repro.explore of its spec.
        fresh = [o for o in done if o.kind in ("fresh", "variant")]
        if fresh:
            rng = random.Random(f"service-check:{self.seed}")
            sample = rng.choice(fresh)
            spec = sample.payload["spec"]
            pareto = [s for s in expand_shards(spec) if s.cell == PARETO][0]
            with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
                ref = repro.explore(spec.source, alloc=spec.alloc,
                                    config=pareto.explore_config(),
                                    store=Path(tmp) / "store")
            if not ref.ok or ref.front.to_json() \
                    != sample.payload["front_json"]:
                errors.append(f"{sample.label}: service front differs "
                              f"from the serial repro.explore front")
        return errors


def _m1_costs(spec: JobSpec) -> Tuple[float, float]:
    """(length, power cost) of the untransformed input, as explore
    scores them: same clock, same default profiling as the job."""
    behavior = compile_source(spec.source)
    probs = repro.default_branch_probs(
        behavior, profile_traces=spec.profile_traces, seed=spec.seed)
    config = repro.ReproConfig(sched=SchedConfig(clock=spec.clock))
    base = repro.schedule(behavior, alloc=spec.alloc, config=config,
                          branch_probs=probs)
    length = base.average_length()
    power = Objective(POWER, baseline_length=length, vdd=spec.vdd,
                      vt=spec.vt, cycle_time=spec.cycle_time).evaluate(base)
    return length, power


WORKLOADS = {w.name: w for w in (Table2Sweep, FreshDesigns, ServiceMix)}


def geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))
