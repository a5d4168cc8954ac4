"""The repo benchmark: one command per workload, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table2-sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py compare RESULTS_PARENT RESULTS_CHANGE

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
layer's public entry points and reports the per-layer metrics instead.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full result file
(host context, every job, every metric) lands in ``--out``.  The exit
code is non-zero when a correctness check fails.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: The Markov systems the program solves are small: a threaded BLAS
#: spends more on waking its threads than on the solve (about 5 ms per
#: call), and how long that takes depends on what ran just before, so
#: identical jobs took either 0.3 s or 0.6 s.  The benchmark runs BLAS
#: single-threaded (set before numpy loads; workers inherit it).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is sampled this many times per untraced run, each in a fresh
#: interpreter; setup_s is their median.
SETUP_SAMPLES = 5

#: name -> unit of the end-to-end metrics (job_p90_s and failed_share
#: are reported but not declared in BENCHMARK.json; see README.md).
END_TO_END = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
    "job_p90_s": "s", "geomean_improvement": "x", "done_share": "ratio",
    "failed_share": "ratio", "peak_rss_mb": "MB",
}


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, "
                 f"not from {SRC}")
    return repro


def _parse(argv):
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        return "compare", parser.parse_args(argv[1:])
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True,
                        choices=("table2-sweep", "fresh-designs",
                                 "service-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return "run", parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _probe(args) -> None:
    """Child mode: import, build the inputs, report ready, exit."""
    _import_program()
    from tracing import SpanLog
    from workloads import WORKLOADS
    with tempfile.TemporaryDirectory(dir=_work_root()) as tmp:
        WORKLOADS[args.workload](args.seed, Path(tmp),
                                 SpanLog(Path(tmp))).prepare()
        print("ready", flush=True)


def _setup_samples(args, n: int):
    """Process start -> inputs ready, measured by the parent, n times."""
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.exit("perfbench: set-up probe failed")
    return samples


def _work_root() -> Path:
    root = HERE / ".work"
    root.mkdir(exist_ok=True)
    return root


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _quantile(values, q: float) -> float:
    """Inclusive linear-interpolation quantile (q in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, setup_samples):
    from workloads import geomean
    outs = workload.outcomes
    latencies = [o.latency for o in outs]
    done = [o for o in outs if o.ok]
    improvements = [o.improvement for o in done
                    if o.improvement is not None]
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    completed, seconds = workload.throughput()
    p90 = _quantile(latencies, 0.9)
    # The highest percentile with at least ten samples beyond it.
    tail_q = 1.0 - 10.0 / len(latencies) if len(latencies) >= 20 else None
    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "jobs_per_s": (completed / seconds, completed),
        "job_p50_s": (statistics.median(latencies), len(latencies)),
        "job_p90_s": (p90, len(latencies)),
        "geomean_improvement": (geomean(improvements)
                                if improvements else 0.0,
                                len(improvements)),
        "done_share": (len(done) / len(outs), len(outs)),
        "failed_share": (1.0 - len(done) / len(outs), len(outs)),
        "peak_rss_mb": (rss / 1024.0, 1),
    }
    notes = {"samples_beyond_p90": sum(1 for v in latencies if v > p90)}
    if tail_q is not None:
        notes.update(tail_percentile=round(100 * tail_q, 1),
                     tail_latency_s=_quantile(latencies, tail_q))
    return values, notes


def per_layer(workload, spans, overhead_share):
    """The traced run's per-layer metrics: name -> (value, unit)."""
    from tracing import summarize
    s = summarize(spans)
    outs = workload.outcomes
    done = [o for o in outs if o.ok]

    def layer(name, key, default=0.0):
        return s.get(name, {}).get(key, default)

    def total(key):
        return sum(o.extra.get(key, 0.0) for o in done)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["lang.compile_s"] = (layer("lang", "compile_s"), "s")
    m["lang.compiles"] = (layer("lang", "compile_calls", 0), "count")
    m["profiling.profile_s"] = (layer("profiling", "profile_s"), "s")
    m["rewrite.enumerate_s"] = (layer("rewrite", "enumerate_s"), "s")
    m["rewrite.apply_s"] = (layer("rewrite", "apply_s"), "s")
    m["sched.schedule_s"] = (layer("sched", "schedule_s"), "s")
    m["sched.schedules"] = (layer("sched", "schedule_calls", 0), "count")
    m["sched.path_explosions"] = (
        layer("sched", "path_explosions", 0)
        + sum(1 for o in outs if o.error and "path explosion" in o.error),
        "count")
    m["stg.solve_s"] = (layer("stg", "solve_s"), "s")
    m["power.vdd_s"] = (layer("power", "vdd_s"), "s")
    m["core.evaluate_s"] = (layer("core", "evaluate_s"), "s")
    m["core.partition_s"] = (layer("core", "partition_s"), "s")
    optimize = any("evaluations" in o.extra for o in done)
    if optimize:
        requests = total("rewrite.requests")
        scans = total("rewrite.incremental_scans") \
            + total("rewrite.full_scans")
        m["rewrite.requests"] = (requests, "count")
        m["rewrite.memo_hit_ratio"] = (
            ratio(total("rewrite.memo_hits"), requests), "ratio")
        m["rewrite.incremental_scan_ratio"] = (
            ratio(total("rewrite.incremental_scans"), scans), "ratio")
        built, reused = total("eval.states_built"), \
            total("eval.states_reused")
        m["sched.states_built"] = (built, "count")
        m["sched.state_reuse_ratio"] = (ratio(reused, built + reused),
                                        "ratio")
        m["sched.region_hit_ratio"] = (
            ratio(total("eval.region_hits"), total("eval.region_requests")),
            "ratio")
        for key in ("markov_local", "markov_reused", "markov_full"):
            m[f"stg.{key}"] = (total(f"eval.{key}"), "count")
        m["core.evaluations"] = (total("evaluations"), "count")
        m["core.eval_cache_hit_ratio"] = (
            ratio(total("cache.hits"),
                  total("cache.hits") + total("cache.misses")), "ratio")
        m["search.generations"] = (
            ratio(total("recorded_generations"), len(done)), "count/job")
        m["search.evaluations_per_job"] = (
            ratio(total("evaluations"), len(done)), "count/job")
        m["search.improving_generation_ratio"] = (
            ratio(total("improving_generations"),
                  total("recorded_generations")), "ratio")
    if "explore" in s:
        m["explore.store_hit_ratio"] = (
            ratio(layer("explore", "hits", 0),
                  layer("explore", "store_get_calls", 0)), "ratio")
        m["explore.store_get_s"] = (layer("explore", "store_get_s"), "s")
        m["explore.store_put_s"] = (layer("explore", "store_put_s"), "s")
        m["explore.checkpoint_s"] = (layer("explore", "checkpoint_s"), "s")
    if any("front_size" in o.extra for o in done):
        m["explore.front_size"] = (
            ratio(total("front_size"), len(done)), "count/job")
        for key in ("submit_s", "queue_wait_s", "run_s", "observe_lag_s"):
            ran = [o for o in done if key in o.extra]
            m[f"service.{key}"] = (ratio(total(key), len(ran)), "s/job")
        reg = workload.metrics
        hist = reg.as_dict().get("histograms", {}).get(
            "service.shard_latency", {})
        m["service.shard_latency_s"] = (hist.get("mean", 0.0), "s")
        m["service.dedup_share"] = (
            ratio(sum(1 for o in outs if o.kind == "duplicate"), len(outs)),
            "ratio")
        for key in ("steals", "retries", "workers_respawned"):
            m[f"service.{key}"] = (reg.value(f"service.{key}"), "count")
    self_total = sum(v.get("self_s", 0.0) for k, v in s.items()
                     if k not in ("job",))
    for name in sorted(s):
        if name != "job":
            m[f"{name}.self_share"] = (
                ratio(s[name]["self_s"], self_total), "ratio")
    m["obs.trace_overhead_share"] = (overhead_share, "ratio")
    return m, s


# ---------------------------------------------------------------------------
# Host context
# ---------------------------------------------------------------------------

def host_context(seed):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a dependency
        numpy_version = None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        affinity = os.cpu_count()
    return {
        "nproc": affinity, "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version, "platform": platform.platform(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _run(args) -> int:
    context = host_context(args.seed)
    _import_program()
    from tracing import SpanLog, write_spans
    from workloads import WORKLOADS
    work = Path(tempfile.mkdtemp(dir=_work_root()))
    log = SpanLog(work)
    cls = WORKLOADS[args.workload]
    try:
        overhead = None
        if args.trace:
            # The same first pass, untraced then traced, prices tracing.
            plain = cls(args.seed, work / "plain", log)
            plain.work_dir.mkdir()
            plain.prepare()
            plain.run(0.0)
            log.install()
        workload = cls(args.seed, work / "run", log)
        workload.work_dir.mkdir()
        workload.prepare()
        remaining = args.seconds - (plain.wall if args.trace else 0.0)
        workload.run(max(remaining, 0.0))
        if args.trace:
            log.uninstall()
            log.adopt_children()
            # Median over pass-0 jobs of traced / untraced latency.
            untraced = {o.label: o.latency for o in plain.outcomes}
            overhead = statistics.median(
                o.latency / untraced[o.label] for o in workload.outcomes
                if o.pass_index == 0 and untraced.get(o.label)) - 1.0
        errors = workload.checks()
        result = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "host": context, "describe": workload.describe(),
                  "passes": workload.passes, "wall_s": workload.wall,
                  "mix": workload.mix(), "errors": errors}
        if args.trace:
            metrics, layers = per_layer(workload, log.spans, overhead)
            result["layers"] = layers
            shown = {k: {"value": v, "unit": u} for k, (v, u) in
                     metrics.items()}
        else:
            samples = _setup_samples(args, SETUP_SAMPLES)
            values, notes = end_to_end(workload, samples)
            result.update(notes, setup_samples=samples)
            shown = {k: {"value": v, "unit": END_TO_END[k], "n": n}
                     for k, (v, n) in values.items()}
        result["metrics"] = shown
        result["jobs"] = [
            {"label": o.label, "kind": o.kind, "objective": o.objective,
             "latency_s": o.latency, "error": o.error,
             "improvement": o.improvement, "pass": o.pass_index,
             "extra": o.extra}
            for o in workload.outcomes]
        args.out.mkdir(parents=True, exist_ok=True)
        stem = (f"{args.workload}_seed{args.seed}_trace{args.trace}_"
                f"{int(time.time() * 1000)}")
        (args.out / f"{stem}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True))
        if args.trace:
            write_spans(log.spans, args.out / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _report(result)
    declared = _declared(args.trace)
    missing = [name for name in declared if name not in shown]
    if missing:
        sys.exit(f"perfbench: {args.workload} did not measure {missing}")
    failed = sum(1 for o in workload.outcomes if not o.ok)
    line = {"correct": not errors, "attempted": len(workload.outcomes),
            "failed": failed,
            "metrics": {k: {"value": shown[k]["value"],
                            "unit": shown[k]["unit"]} for k in declared}}
    print(json.dumps(line))
    return 0 if not errors else 2


def _declared(trace: int):
    """Metric names BENCHMARK.json declares for this kind of run."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def _report(result) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  passes {result['passes']}  "
          f"wall {result['wall_s']:.2f}s  mix {result['mix']}")
    for name, m in result["metrics"].items():
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{n}")
    if "samples_beyond_p90" in result:
        print(f"  job_p90_s has {result['samples_beyond_p90']} samples "
              f"beyond it")
    if "tail_percentile" in result:
        print(f"  the highest percentile with 10 samples beyond it: "
              f"p{result['tail_percentile']:g} = "
              f"{result['tail_latency_s']:.6g} s")
    for err in result["errors"]:
        print(f"CHECK FAILED: {err}")
    for job in result["jobs"]:
        if job["error"]:
            print(f"  job {job['label']} failed: {job['error']}")


def main(argv=None) -> int:
    mode, args = _parse(sys.argv[1:] if argv is None else argv)
    if mode == "compare":
        sys.path.insert(0, str(HERE))
        from compare import compare
        return compare(args.parent, args.change, ROOT / "BENCHMARK.json")
    if args.setup_probe:
        _probe(args)
        return 0
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
