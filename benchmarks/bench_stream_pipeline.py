"""Experiment: streaming campaign pipeline vs. the generation barrier.

Runs pool-backend *exploration campaigns* twice — once with the legacy
generation barrier (``--streaming`` off: evaluate a whole generation,
wait, then admit) and once through the streaming pipeline
(``ExploreConfig.streaming``: bounded in-flight window, results
admitted into the Pareto front as they land, exact boundary
speculation with carried-over futures; see ``docs/pipeline.md``) —
and compares both wall clock and the exported fronts.

Requirements:

* every campaign exports a **byte-identical** Pareto front
  (``front.to_json()``) in both modes, on every circuit, seed and
  worker count — streaming is a scheduling change, never a search
  change;
* on the gate circuit (``test2``, pool backend) the streaming campaign
  is >= 1.2x faster end-to-end.  The win comes from pipelining the
  generation boundary: while the main process runs selection,
  expansion, store lookups and the checkpoint write, the pool workers
  are already evaluating the (exactly predicted) next generation.
  That is a *parallel-capacity* win by construction, so the gate is
  only asserted when the host exposes at least two CPUs
  (``available_cpus() >= 2``); on a single-CPU host there is nothing
  to overlap with — the admission policy itself turns speculation off
  there — and the gate is reported as skipped.

Each mode runs against its own fresh run store and checkpoint, so
neither campaign warms the other.  The report (``BENCH_stream.json``)
carries the per-mode wall clocks and the streaming run's
:class:`~repro.stream.StreamStats` — enqueue/submit/merge counters and
the two queue-depth high-water marks (in-flight window, in-order
commit reorder depth) that show the pipeline actually streamed.

The ``--quick`` mode (used by the CI ``stream-smoke`` job) runs a
small gcd campaign and enforces only the front-equivalence
requirement — wall-clock ratios are reported but not asserted, so a
loaded single-core CI machine cannot produce a spurious failure.

Run standalone:  PYTHONPATH=src python benchmarks/bench_stream_pipeline.py
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.api import explore
from repro.bench.circuits import circuit
from repro.explore.runner import ExploreConfig
from repro.profiling.profiler import profile
from repro.stream import available_cpus

CIRCUITS = ("gcd", "test2")
GATE_CIRCUIT = "test2"
MIN_SPEEDUP = 1.2
SEEDS = 2
GENERATIONS = 6
POPULATION = 4
WORKERS = 4


def run_campaign(name: str, streaming: bool, seeds: Sequence[int],
                 generations: int = GENERATIONS,
                 population: int = POPULATION,
                 workers: int = WORKERS) -> Tuple[float, list, Dict]:
    """One campaign per seed; returns (wall s, fronts, stream stats).

    ``warm_start`` is off: the experiment isolates the generational
    loop the pipeline restructures (the warm-start searches are the
    same code in both modes and would only dilute the ratio).
    """
    c = circuit(name)
    behavior = c.behavior()
    probs = dict(profile(behavior, c.traces(behavior)).branch_probs)
    fronts = []
    stream_doc: Dict = {}
    start = time.perf_counter()
    for seed in seeds:
        with tempfile.TemporaryDirectory() as store:
            cfg = ExploreConfig(
                generations=generations, population_size=population,
                seed=seed, workers=workers, sched=c.sched,
                warm_start=False, streaming=streaming)
            res = explore(behavior, config=cfg, alloc=c.allocation,
                          branch_probs=dict(probs), store=store,
                          checkpoint=str(Path(store) / "ck.json"))
            fronts.append(res.front.to_json())
            stream = getattr(res.telemetry, "stream", None)
            if stream is not None:
                for key, value in stream.as_dict().items():
                    if key.startswith("max_"):
                        stream_doc[key] = max(stream_doc.get(key, 0),
                                              value)
                    else:
                        stream_doc[key] = stream_doc.get(key, 0) + value
    return time.perf_counter() - start, fronts, stream_doc


def compare_circuit(name: str, seeds: Sequence[int],
                    generations: int = GENERATIONS,
                    workers: int = WORKERS,
                    repeats: int = 1) -> Dict:
    """Both modes on one circuit; returns the JSON-ready record.

    ``repeats`` reruns each mode and keeps the fastest wall clock (the
    standard low-noise estimator; campaigns are deterministic, so
    repeats only sample machine noise).  Fronts from every repeat must
    agree byte-for-byte, which the identity check folds in.
    """
    ba_runs = [run_campaign(name, False, seeds, generations,
                            workers=workers) for _ in range(repeats)]
    st_runs = [run_campaign(name, True, seeds, generations,
                            workers=workers) for _ in range(repeats)]
    ba_wall, ba_fronts, _ = min(ba_runs, key=lambda r: r[0])
    st_wall, st_fronts, stream = min(st_runs, key=lambda r: r[0])
    identical = all(r[1] == ba_fronts for r in ba_runs + st_runs)
    return {
        "circuit": name,
        "campaigns": len(ba_fronts),
        "identical": identical,
        "repeats": repeats,
        "workers": workers,
        "barrier_seconds": ba_wall,
        "streaming_seconds": st_wall,
        "speedup": ba_wall / st_wall if st_wall > 0 else 0.0,
        "stream": stream,
    }


def run_all(circuits: Sequence[str], seeds: Sequence[int],
            generations: int, workers: int, quick: bool,
            min_speedup: float) -> Tuple[Dict, int]:
    """The whole experiment; returns (report, exit code)."""
    cpus = available_cpus()
    gate = "enforced"
    if quick:
        gate = "skipped (--quick)"
    elif cpus < 2:
        gate = "skipped (single CPU: no parallel capacity to pipeline)"
    records = [compare_circuit(
        name, seeds, generations, workers,
        repeats=2 if name == GATE_CIRCUIT and gate == "enforced" else 1)
        for name in circuits]
    report = {
        "workload": {"circuits": list(circuits), "seeds": list(seeds),
                     "generations": generations, "workers": workers,
                     "population": POPULATION, "quick": quick},
        "circuits": records,
        "gate_circuit": GATE_CIRCUIT,
        "min_speedup": min_speedup,
        "cpus": cpus,
        "gate": gate,
    }
    code = 0
    for rec in records:
        if not rec["identical"]:
            print(f"FAIL: {rec['circuit']}: streaming front diverges "
                  f"from the barrier baseline", file=sys.stderr)
            code = 1
    if code == 0 and gate == "enforced":
        for rec in records:
            if rec["circuit"] != GATE_CIRCUIT:
                continue
            if rec["speedup"] < min_speedup:
                print(f"FAIL: {rec['circuit']} streaming speedup "
                      f"{rec['speedup']:.2f}x < {min_speedup}x",
                      file=sys.stderr)
                code = 2
    return report, code


def _print_report(report: Dict) -> None:
    print(f"{'circuit':8} {'barrier s':>10} {'stream s':>10} "
          f"{'speedup':>8} {'identical':>9}")
    for rec in report["circuits"]:
        print(f"{rec['circuit']:8} {rec['barrier_seconds']:10.2f} "
              f"{rec['streaming_seconds']:10.2f} "
              f"{rec['speedup']:8.2f} {str(rec['identical']):>9}")
        stream = rec.get("stream") or {}
        if stream:
            print(f"  stream: {stream.get('enqueued', 0)} enqueued, "
                  f"{stream.get('submitted', 0)} submitted, "
                  f"{stream.get('cache_hits', 0)} cache hits, "
                  f"{stream.get('speculated', 0)} speculated "
                  f"({stream.get('carried', 0)} carried, "
                  f"{stream.get('adopted', 0)} adopted), "
                  f"peak inflight {stream.get('max_inflight', 0)}, "
                  f"peak reorder {stream.get('max_reorder_depth', 0)}")
    print(f"cpus: {report['cpus']}  gate ({report['gate_circuit']} >= "
          f"{report['min_speedup']}x): {report['gate']}")


# -- pytest entry points (quick workload only; not tier-1) --------------

def test_streaming_front_identical(benchmark):
    """Quick campaign: streaming and barrier fronts agree on gcd."""
    from .conftest import once
    rec = once(benchmark, lambda: compare_circuit(
        "gcd", range(2), generations=3, workers=0))
    assert rec["identical"]


def test_streaming_pool_front_identical(benchmark):
    """Quick pool campaign: streaming and barrier fronts agree."""
    from .conftest import once
    rec = once(benchmark, lambda: compare_circuit(
        "gcd", range(1), generations=3, workers=2))
    assert rec["identical"]
    assert rec["stream"].get("enqueued", 0) > 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small gcd-only campaign; front equivalence "
                             "is enforced, wall-clock ratios are not")
    parser.add_argument("--circuit", action="append", dest="circuits",
                        choices=CIRCUITS,
                        help="restrict to one circuit (repeatable)")
    parser.add_argument("--seeds", type=int, default=SEEDS,
                        help=f"campaign seeds per circuit ({SEEDS})")
    parser.add_argument("--generations", type=int, default=GENERATIONS,
                        help=f"generations per campaign ({GENERATIONS})")
    parser.add_argument("--workers", type=int, default=WORKERS,
                        help=f"pool workers ({WORKERS})")
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP,
                        help=f"required streaming speedup on "
                             f"{GATE_CIRCUIT} ({MIN_SPEEDUP})")
    parser.add_argument("--out", default="BENCH_stream.json",
                        help="report path (BENCH_stream.json)")
    args = parser.parse_args(argv)
    if args.quick:
        circuits = args.circuits or ["gcd"]
        seeds = range(min(args.seeds, 1))
        generations = min(args.generations, 3)
    else:
        circuits = args.circuits or list(CIRCUITS)
        seeds = range(args.seeds)
        generations = args.generations
    report, code = run_all(circuits, list(seeds), generations,
                           args.workers, args.quick, args.min_speedup)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    _print_report(report)
    print(f"report written to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
