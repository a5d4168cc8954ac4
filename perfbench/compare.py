"""Compare two result sets (parent and change) metric by metric.

A result set is a directory of untraced result files written by
``run.py --out DIR``.  Runs are paired by workload and seed: run the
parent and the change on the same seeds, alternating which side runs
first, ten pairs or more.  For every workload and end-to-end metric the
verdict follows the rules of the benchmark README:

* ``improved`` — the change wins at least 9/10 of the pairs (ties count
  for neither side) and the medians differ, in the better direction, by
  more than the parent's inter-quartile spread;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
* ``unresolved`` — the parent's own spread is wider than the bound, and
  the change neither beats every parent run nor loses to every one;
* ``unchanged`` — anything else.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple


def _load(directory: Path) -> Dict[Tuple[str, int], Dict[str, float]]:
    runs: Dict[Tuple[str, int], Dict[str, float]] = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("trace"):
            continue
        runs[(doc["workload"], doc["seed"])] = {
            name: m["value"] for name, m in doc["metrics"].items()}
    return runs


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], bound: float,
            higher_is_better: bool) -> Tuple[str, Dict[str, float]]:
    """One metric on one workload; ``parent[i]`` pairs ``change[i]``."""
    sign = 1.0 if higher_is_better else -1.0
    p1, pmed, p3 = _quartiles(parent)
    c1, cmed, c3 = _quartiles(change)
    spread = p3 - p1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (cmed - pmed)
    stats = {"parent_median": pmed, "parent_q1": p1, "parent_q3": p3,
             "change_median": cmed, "change_q1": c1, "change_q3": c3,
             "pairs": len(parent), "change_wins": wins,
             "spread_share": spread / abs(pmed) if pmed else 0.0}
    all_better = sign * (min(change) if sign > 0 else max(change)) > \
        sign * (max(parent) if sign > 0 else min(parent))
    all_worse = sign * (max(change) if sign > 0 else min(change)) < \
        sign * (min(parent) if sign > 0 else max(parent))
    if wins >= 0.9 * len(parent) and gain > spread:
        return "improved", stats
    if -gain > bound * abs(pmed):
        if stats["spread_share"] > bound and not all_worse:
            return "unresolved", stats
        return "worse", stats
    if stats["spread_share"] > bound and not all_better:
        return "unresolved", stats
    return "unchanged", stats


def compare(parent_dir: Path, change_dir: Path,
            benchmark_json: Path) -> int:
    """Print one verdict per workload and metric; 1 if any is worse."""
    spec = json.loads(benchmark_json.read_text())
    parent, change = _load(parent_dir), _load(change_dir)
    worse = 0
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    if not workloads:
        print("no workload has runs in both result sets")
        return 2
    for workload in workloads:
        seeds = sorted(s for w, s in parent
                       if w == workload and (w, s) in change)
        print(f"{workload}: {len(seeds)} pairs (seeds {seeds})")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[(workload, s)][name] for s in seeds]
            c = [change[(workload, s)][name] for s in seeds]
            word, st = verdict(p, c, metric["bound"],
                               metric["better"] == "higher")
            worse += word == "worse"
            print(f"  {name:22s} {word:10s} parent {st['parent_median']:.6g}"
                  f" [{st['parent_q1']:.6g}, {st['parent_q3']:.6g}]"
                  f"  change {st['change_median']:.6g}"
                  f" [{st['change_q1']:.6g}, {st['change_q3']:.6g}]"
                  f"  wins {st['change_wins']}/{st['pairs']}"
                  f"  spread {st['spread_share']:.1%}"
                  f" (bound {metric['bound']:.0%})")
    return 1 if worse else 0
