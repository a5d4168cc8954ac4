"""Incremental vs. full evaluation in the explorer: identical fronts."""

import repro
from repro.core.search import SearchConfig
from repro.explore import ExploreConfig, ExploreRunner
from repro.profiling import profile, uniform_traces

GCD = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""

ALLOC = "sb1=2,cp1=1,e1=1"


def _run(tmp_path, incremental, tag):
    beh = repro.compile(GCD)
    alloc = repro.coerce_allocation(ALLOC)
    probs = dict(profile(beh, uniform_traces(beh, 12, lo=1, hi=255,
                                             seed=1)).branch_probs)
    cfg = ExploreConfig(
        generations=2, population_size=4, max_candidates_per_seed=10,
        seed=1, incremental=incremental,
        search=SearchConfig(max_outer_iters=2, seed=1,
                            max_candidates_per_seed=10,
                            incremental=incremental))
    # Separate stores: a shared one would serve the second run from
    # disk and nothing would be scheduled at all.
    return ExploreRunner(beh, alloc, branch_probs=probs, config=cfg,
                         store=tmp_path / f"store-{tag}").run()


def test_incremental_front_matches_full(tmp_path):
    inc = _run(tmp_path, True, "inc")
    full = _run(tmp_path, False, "full")
    assert inc.front.to_json() == full.front.to_json()
    assert ([p.lineage for p in inc.front.sorted_points()]
            == [p.lineage for p in full.front.sorted_points()])
    # Both runs actually scheduled (no store crosstalk).
    assert inc.telemetry.evaluations > 0
    assert full.telemetry.evaluations > 0


def test_modes_get_distinct_run_fingerprints(tmp_path):
    """The plain walk is not bit-identical to the splice path, so a
    checkpoint must not resume across ``incremental`` modes."""
    beh = repro.compile(GCD)
    alloc = repro.coerce_allocation(ALLOC)
    fps = {ExploreRunner(beh, alloc,
                         config=ExploreConfig(incremental=mode),
                         store=tmp_path / "store").run_fingerprint
           for mode in (True, False)}
    assert len(fps) == 2


def test_plain_walk_agrees_within_tolerance():
    """A generated circuit whose best power score differs in the last
    bits between the modes: 151.8501685198474 incremental against
    151.85016851984736 plain (the two paths sum the same visits in a
    different order).  The modes agree within ``PLAIN_REL_TOL``."""
    from repro.gen.generator import GenConfig, generate
    from repro.gen.oracles import PLAIN_REL_TOL

    gen = generate(5, GenConfig(loop_depth=1, block_stmts=3, regions=1,
                                expr_depth=2, max_trip=4))
    scores = [repro.optimize(
        gen.source, objective="power",
        config=repro.ReproConfig(search=SearchConfig(
            max_evaluations=10, incremental=mode))).best.score
        for mode in (True, False)]
    assert abs(scores[0] - scores[1]) <= PLAIN_REL_TOL * max(
        1.0, abs(scores[1]))
