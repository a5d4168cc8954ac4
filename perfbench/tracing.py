"""Per-layer spans for the traced run, recorded from outside the program.

The benchmark wraps the public entry points of each ``repro`` layer
(the table in ``LAYERS``) with a timing shim.  Every call made while a
shim is installed becomes a span ``(id, parent, layer, name, job,
start, end, pid)``; spans are kept in memory and written out once, when
the run ends.  Service workers are forked by the orchestrator, so they
inherit the shims; each worker writes its own spans to
``spans-<pid>.json`` in the trace directory as it exits, and the parent
adopts them.

A call made while the innermost open span has the same layer and name
is not recorded again (recursion inside one entry point would otherwise
count twice).  A layer's *self time* is its spans' duration minus the
duration of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> [(module, qualified attribute, span name)].  Functions are
#: replaced wherever a loaded ``repro`` module holds them; methods are
#: replaced on their class.
LAYERS: Dict[str, List[Tuple[str, str, str]]] = {
    "lang": [("repro.lang", "compile_source", "compile")],
    "profiling": [("repro.profiling.profiler", "profile", "profile")],
    "rewrite": [
        ("repro.rewrite.driver", "RewriteDriver.candidates", "enumerate"),
        ("repro.rewrite.driver", "RewriteDriver.chains", "enumerate"),
        ("repro.rewrite.driver", "RewriteDriver.apply", "apply"),
    ],
    "sched": [("repro.sched.driver", "Scheduler.schedule", "schedule")],
    "stg": [
        ("repro.stg.markov", "expected_visits", "solve"),
        ("repro.stg.markov", "expected_visits_many", "solve"),
        ("repro.stg.markov", "fragment_visits", "solve"),
        ("repro.stg.markov", "solve_systems", "solve"),
    ],
    "power": [
        ("repro.power.vdd", "scaled_vdd_for_schedule", "vdd"),
        ("repro.power.vdd", "solve_vdd", "vdd"),
    ],
    "core": [
        ("repro.core.engine", "EvaluationEngine.evaluate", "evaluate"),
        ("repro.core.engine", "EvaluationEngine.evaluate_batch",
         "evaluate"),
        ("repro.core.engine", "EvaluationEngine.evaluate_stream",
         "evaluate"),
        ("repro.core.partition", "hot_cdfg_nodes", "partition"),
    ],
    "search": [("repro.core.search", "TransformSearch.run", "run")],
    "explore": [
        ("repro.explore.runner", "ExploreRunner.run", "run"),
        ("repro.explore.store", "RunStore.get", "store_get"),
        ("repro.explore.store", "RunStore.put", "store_put"),
        ("repro.explore.runner", "ExploreRunner._save_checkpoint",
         "checkpoint"),
    ],
    "service": [
        # The worker-side boundary of one job's shard (named by its job).
        ("repro.service.orchestrator", "_run_shard", "shard"),
        ("repro.service.jobs", "JobQueue.submit", "submit"),
    ],
}

class SpanLog:
    """In-memory span recorder shared by every wrapped call."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []
        self.active = False

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, name: str, job: Optional[str] = None):
        """Context manager recording one span (no-op when inactive)."""
        return _Span(self, layer, name, job)

    def _open(self, layer: str, name: str, job: Optional[str]):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent[3]
        sid = next(self._ids)
        frame = [sid, parent[0] if parent else None, layer, job, name,
                 time.perf_counter(), None]
        stack.append(frame)
        return frame

    def _close(self, frame: list, error: Optional[str] = None,
               hit: Optional[bool] = None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        sid, parent, layer, job, name, start, _ = frame
        record = [sid, parent, layer, name, job, start, end, os.getpid(),
                  error, hit]
        with self._lock:
            self.spans.append(record)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = log._stack()
            if not log.active or (stack and stack[-1][2] == layer
                                  and stack[-1][4] == name):
                return fn(*args, **kwargs)
            job = None
            if layer == "service" and name == "shard" and args:
                job = getattr(args[0], "job_id", None)
            frame = log._open(layer, name, job)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                log._close(frame, error=type(exc).__name__
                           + (": path explosion"
                              if "exceeded" in str(exc) else ""))
                raise
            log._close(frame, hit=(result is not None)
                       if name == "store_get" else None)
            return result

        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Replace every ``LAYERS`` entry point with a timing shim."""
        for layer, entries in LAYERS.items():
            for module_name, attr, name in entries:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    self._replace(owner, meth, original,
                                  self.wrap(layer, name, original))
                    continue
                original = getattr(module, attr)
                shim = self.wrap(layer, name, original)
                # Every loaded repro module (and the benchmark's own
                # workloads module) that imported the function by name
                # holds its own reference: replace them all.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (
                            mod_name in ("repro", "workloads")
                            or mod_name.startswith("repro.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, shim)
        os.register_at_fork(after_in_child=self._after_fork)
        mp_util.register_after_fork(self, SpanLog._register_dump)
        self.active = True

    def _replace(self, owner, key: str, original, shim) -> None:
        setattr(owner, key, shim)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        self.active = False
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- forked workers -------------------------------------------------
    def _after_fork(self) -> None:
        # The child starts with an empty log; what the parent recorded
        # is reported by the parent.
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _register_dump(self) -> None:
        # Runs in a multiprocessing child after its finalizer registry
        # is reset, so this finalizer fires when the worker exits.
        mp_util.Finalize(None, self._dump_child, exitpriority=100)

    def _dump_child(self) -> None:
        if not self.active or not self.spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))

    def adopt_children(self) -> int:
        """Fold worker span files into this log; returns files read."""
        files = sorted(self.out_dir.glob("spans-*.json"))
        for path in files:
            self.spans.extend(json.loads(path.read_text()))
            path.unlink()
        return len(files)


class _Span:
    def __init__(self, log: SpanLog, layer: str, name: str,
                 job: Optional[str]) -> None:
        self.log, self.layer, self.name, self.job = log, layer, name, job
        self.frame = None

    def __enter__(self):
        if self.log.active:
            self.frame = self.log._open(self.layer, self.name, self.job)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.frame is not None:
            self.log._close(self.frame, error=exc_type.__name__
                            if exc_type else None)
        return False


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per layer and span name: busy time, call count, self time.

    Busy time counts only spans with no ancestor of the same layer and
    name, so no interval is counted twice.  Spans of different
    processes never nest (parents are per process).
    """
    by_id = {(s[7], s[0]): s for s in spans}
    child_time: Dict[Tuple[int, int], float] = {}
    for s in spans:
        if s[1] is not None:
            key = (s[7], s[1])
            child_time[key] = child_time.get(key, 0.0) + (s[6] - s[5])
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        sid, parent, layer, name = s[0], s[1], s[2], s[3]
        duration = s[6] - s[5]
        nested = False
        cursor = by_id.get((s[7], parent)) if parent is not None else None
        while cursor is not None:
            if cursor[2] == layer and cursor[3] == name:
                nested = True
                break
            cursor = by_id.get((s[7], cursor[1])) \
                if cursor[1] is not None else None
        entry = out.setdefault(layer, {"self_s": 0.0})
        entry["self_s"] += duration - child_time.get((s[7], sid), 0.0)
        if not nested:
            entry[f"{name}_s"] = entry.get(f"{name}_s", 0.0) + duration
            entry[f"{name}_calls"] = entry.get(f"{name}_calls", 0) + 1
        if s[8]:
            entry["errors"] = entry.get("errors", 0) + 1
            if "path explosion" in s[8]:
                entry["path_explosions"] = \
                    entry.get("path_explosions", 0) + 1
        if s[9] is not None:
            entry["hits"] = entry.get("hits", 0) + int(bool(s[9]))
    return out


def write_spans(spans: List[list], path: Path) -> None:
    """Write spans as JSON lines (one object per span)."""
    keys = ("id", "parent", "layer", "name", "job", "start", "end",
            "pid", "error", "hit")
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps(dict(zip(keys, s))) + "\n")
