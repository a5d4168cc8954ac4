"""STG model and Markov analysis tests."""

import numpy as np
import pytest

from repro.errors import MarkovError, StgError
from repro.stg import (Stg, average_schedule_length, expected_visits,
                       simulate, state_probabilities, throughput)
from repro.stg.markov import (VisitSystem, build_chain_system,
                              expected_visits_many, solve_systems)
from repro.stg.model import Transition


def linear_stg(n):
    """entry -> s1 -> ... -> exit, all probability 1."""
    stg = Stg("linear")
    ids = [stg.add_state(label=f"s{i}") for i in range(n)]
    for a, b in zip(ids, ids[1:]):
        stg.add_transition(a, b, 1.0)
    stg.entry, stg.exit = ids[0], ids[-1]
    return stg


def geometric_loop(p_continue):
    """entry -> body (loops with prob p) -> exit."""
    stg = Stg("loop")
    entry = stg.add_state(label="entry")
    body = stg.add_state(label="body")
    exit_ = stg.add_state(label="exit")
    stg.add_transition(entry, body, 1.0)
    stg.add_transition(body, body, p_continue, "continue")
    stg.add_transition(body, exit_, 1.0 - p_continue, "exit")
    stg.entry, stg.exit = entry, exit_
    return stg


class TestBasics:
    def test_linear_length(self):
        assert average_schedule_length(linear_stg(5)) == pytest.approx(5.0)

    def test_single_state(self):
        stg = Stg()
        s = stg.add_state()
        stg.entry = stg.exit = s
        assert average_schedule_length(stg) == pytest.approx(1.0)

    def test_geometric_loop_expected_visits(self):
        # E[visits to body] = 1/(1-p)
        stg = geometric_loop(0.9)
        visits = expected_visits(stg)
        assert visits[1] == pytest.approx(10.0)
        assert average_schedule_length(stg) == pytest.approx(12.0)

    def test_state_probabilities_sum_to_one(self):
        probs = state_probabilities(geometric_loop(0.75))
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_throughput_is_inverse_length(self):
        stg = linear_stg(4)
        assert throughput(stg) == pytest.approx(0.25)

    def test_branching(self):
        # entry -> {fast path 1 state w.p. 0.5, slow path 3 states} -> exit
        stg = Stg("branch")
        entry = stg.add_state()
        fast = stg.add_state()
        s1, s2, s3 = (stg.add_state() for _ in range(3))
        exit_ = stg.add_state()
        stg.add_transition(entry, fast, 0.5)
        stg.add_transition(entry, s1, 0.5)
        stg.add_transition(s1, s2, 1.0)
        stg.add_transition(s2, s3, 1.0)
        stg.add_transition(fast, exit_, 1.0)
        stg.add_transition(s3, exit_, 1.0)
        stg.entry, stg.exit = entry, exit_
        # E = 1 + 0.5*1 + 0.5*3 + 1 = 4
        assert average_schedule_length(stg) == pytest.approx(4.0)


class TestValidation:
    def test_probabilities_must_sum_to_one(self):
        stg = Stg()
        a = stg.add_state()
        b = stg.add_state()
        stg.add_transition(a, b, 0.4)
        stg.entry, stg.exit = a, b
        with pytest.raises(StgError):
            stg.validate()

    def test_exit_must_have_no_out_edges(self):
        stg = Stg()
        a = stg.add_state()
        b = stg.add_state()
        stg.add_transition(a, b, 1.0)
        stg.add_transition(b, a, 1.0)
        stg.entry, stg.exit = a, b
        with pytest.raises(StgError):
            stg.validate()

    def test_unreachable_state_rejected(self):
        stg = Stg()
        a = stg.add_state()
        b = stg.add_state()
        stg.add_state()  # orphan
        stg.add_transition(a, b, 1.0)
        stg.entry, stg.exit = a, b
        with pytest.raises(StgError):
            stg.validate()

    def test_never_terminating_chain(self):
        stg = Stg()
        a = stg.add_state()
        b = stg.add_state()
        c = stg.add_state()
        stg.add_transition(a, b, 1.0)
        stg.add_transition(b, b, 1.0)  # sink loop, exit unreachable
        stg.add_transition(b, c, 0.0)
        stg.entry, stg.exit = a, c
        with pytest.raises(MarkovError):
            expected_visits(stg)

    def test_bad_probability_rejected(self):
        stg = Stg()
        a = stg.add_state()
        b = stg.add_state()
        with pytest.raises(StgError):
            stg.add_transition(a, b, 1.5)


def nonterminating_stg():
    """body loops forever with probability 1: singular system."""
    stg = Stg("forever")
    entry = stg.add_state(label="entry")
    body = stg.add_state(label="body")
    exit_ = stg.add_state(label="exit")
    stg.add_transition(entry, body, 1.0)
    stg.add_transition(body, body, 1.0)
    stg.add_transition(body, exit_, 0.0)
    stg.entry, stg.exit = entry, exit_
    return stg


class TestSolveSystems:
    """``solve_systems`` captures each system's MarkovError in place, so
    one failing system never hides the results of the others."""

    def test_singular_member_is_isolated(self):
        good = geometric_loop(0.5)
        bad = nonterminating_stg()
        lin = linear_stg(3)
        solved = solve_systems([build_chain_system(good),
                                build_chain_system(bad),
                                build_chain_system(lin)])
        with pytest.raises(MarkovError) as direct:
            expected_visits(bad)
        assert isinstance(solved[1], MarkovError)
        assert str(solved[1]) == str(direct.value)
        for i, stg in ((0, good), (2, lin)):
            assert isinstance(solved[i], np.ndarray)
            want = expected_visits(stg)
            got = [float(v) for v in solved[i]]
            assert got == [want[sid] for sid in want if sid != stg.exit]

    def test_negative_visits_member_is_isolated(self):
        # A self-loop of mass 2 solves to v = -1: inconsistent
        # probabilities, rejected without touching its neighbours.
        neg = VisitSystem("neg", [Transition(0, 0, 2.0)], {0: 0}, 1,
                          np.array([1.0]))
        ok = build_chain_system(linear_stg(4))
        solved = solve_systems([ok, neg, ok])
        assert isinstance(solved[1], MarkovError)
        assert "negative expected visits" in str(solved[1])
        assert solved[0].tobytes() == solved[2].tobytes()
        assert list(solved[0]) == [1.0, 1.0, 1.0]

    def test_expected_visits_many_raises_in_list_order(self):
        with pytest.raises(MarkovError, match="forever"):
            expected_visits_many([geometric_loop(0.5),
                                  nonterminating_stg(),
                                  linear_stg(2)])

    def test_expected_visits_many_matches_single_solves(self):
        stgs = [linear_stg(4), geometric_loop(0.9), geometric_loop(0.25)]
        assert expected_visits_many(stgs) == [expected_visits(stg)
                                              for stg in stgs]


class TestSimulationAgreement:
    @pytest.mark.parametrize("p", [0.5, 0.9, 0.98])
    def test_monte_carlo_matches_markov(self, p):
        stg = geometric_loop(p)
        exact = average_schedule_length(stg)
        est = simulate(stg, runs=4000, seed=7).mean_length
        assert est == pytest.approx(exact, rel=0.08)

    def test_visit_rates_match_probabilities(self):
        stg = geometric_loop(0.8)
        probs = state_probabilities(stg)
        walk = simulate(stg, runs=4000, seed=3)
        for sid, p_exact in probs.items():
            assert walk.probability_of(sid) == pytest.approx(
                p_exact, abs=0.03)


class TestFig1cReconstruction:
    """A hand reconstruction of the paper's Figure 1(c) STG for TEST1.

    Branch probabilities: loop closes w.p. 0.98, `if (i < c1)` taken
    w.p. 0.37.  The paper reports P_S0=0.008 ... P_S5=0.404 and an
    average schedule length of 119.11 cycles; our reconstruction should
    land near those (exact topology of the exit path is not published).
    """

    def build(self):
        stg = Stg("test1_fig1c")
        s = {name: stg.add_state(label=name) for name in
             ["S0", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8"]}
        p_close, p_take = 0.98, 0.37
        stg.add_transition(s["S0"], s["S1"], 1.0)
        stg.add_transition(s["S1"], s["S2"], p_close * p_take)
        stg.add_transition(s["S1"], s["S3"], p_close * (1 - p_take))
        stg.add_transition(s["S1"], s["S7"], 1 - p_close)
        stg.add_transition(s["S2"], s["S4"], 1.0)
        stg.add_transition(s["S4"], s["S5"], 1.0)
        stg.add_transition(s["S3"], s["S5"], 1.0)
        stg.add_transition(s["S5"], s["S2"], p_close * p_take)
        stg.add_transition(s["S5"], s["S3"], p_close * (1 - p_take))
        stg.add_transition(s["S5"], s["S6"], 1 - p_close)
        stg.add_transition(s["S6"], s["S7"], 1.0)
        stg.add_transition(s["S7"], s["S8"], 1.0)
        stg.entry, stg.exit = s["S0"], s["S8"]
        return stg, s

    def test_average_schedule_length_near_paper(self):
        stg, _ = self.build()
        length = average_schedule_length(stg)
        assert length == pytest.approx(119.11, rel=0.05)

    def test_state_probabilities_near_paper(self):
        stg, s = self.build()
        probs = state_probabilities(stg)
        paper = {"S0": 0.008, "S1": 0.008, "S2": 0.153, "S3": 0.259,
                 "S4": 0.149, "S5": 0.404, "S6": 0.003, "S7": 0.008,
                 "S8": 0.008}
        for name, expected in paper.items():
            assert probs[s[name]] == pytest.approx(expected, abs=0.02), name
