"""Exact independent-set solver: oracle agreement, decision mode, budgets."""

import random
from time import monotonic

import pytest

from fcclib import BudgetExceededError, build_graph, linear_function, max_independent_set
from helpers import brute_alpha, is_independent, rand_graph


def _hard_graph():
    """A fixed random graph whose exact search explores well over 1024 nodes
    (verified by the node-count assertion in the deadline test)."""
    rng = random.Random(2)
    return rand_graph(rng, 90, 0.1)


def test_matches_brute_force_oracle():
    rng = random.Random(20260818)
    for trial in range(60):
        n = rng.randrange(1, 14)
        p = rng.choice([0.1, 0.3, 0.5, 0.8])
        rows = rand_graph(rng, n, p)
        res = max_independent_set(rows)
        assert res.complete
        assert res.size == brute_alpha(rows)
        assert len(res.members) == res.size
        assert is_independent(rows, res.members)


def test_trivial_graphs():
    assert max_independent_set([]).size == 0
    assert max_independent_set([]).complete

    n = 9
    edgeless = [0] * n
    res = max_independent_set(edgeless)
    assert res.size == n and res.members == tuple(range(n))

    full = (1 << n) - 1
    complete_graph = [full & ~(1 << v) for v in range(n)]
    res = max_independent_set(complete_graph)
    assert res.size == 1 and res.complete


def test_members_are_sorted_and_deterministic():
    rng = random.Random(5)
    rows = rand_graph(rng, 12, 0.4)
    a = max_independent_set(rows)
    b = max_independent_set(rows)
    assert a == b
    assert list(a.members) == sorted(a.members)


def test_decision_mode_stops_early():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(4, 13)
        rows = rand_graph(rng, n, 0.3)
        alpha = brute_alpha(rows)
        exact = max_independent_set(rows)

        if alpha >= 2:
            hit = max_independent_set(rows, target=alpha - 1)
            assert not hit.complete
            assert hit.size >= alpha - 1
            assert is_independent(rows, hit.members)
            assert hit.nodes <= exact.nodes

        # an unreachable target degrades to the plain exact search
        miss = max_independent_set(rows, target=alpha + 1)
        assert miss.complete
        assert miss.size == alpha


def test_node_budget_exhaustion_keeps_bounds_honest():
    rng = random.Random(31)
    rows = rand_graph(rng, 30, 0.2)
    alpha = max_independent_set(rows).size
    with pytest.raises(BudgetExceededError) as info:
        max_independent_set(rows, node_budget=5)
    assert info.value.best_lower <= alpha <= info.value.best_upper


def test_deadline_interrupts_long_search():
    rows = _hard_graph()
    finished = max_independent_set(rows)
    assert finished.nodes > 1024  # deadline is only polled every 1024 nodes
    with pytest.raises(BudgetExceededError) as info:
        max_independent_set(rows, deadline=monotonic() - 1.0)
    assert info.value.best_lower <= finished.size <= info.value.best_upper


def test_unlimited_budget_allowed():
    rng = random.Random(77)
    rows = rand_graph(rng, 10, 0.5)
    res = max_independent_set(rows, node_budget=None)
    assert res.complete and res.size == brute_alpha(rows)


def test_edgeless_graph_deeper_than_the_recursion_limit():
    # every vertex opens one more clique level of the complement
    res = max_independent_set([0] * 1200)
    assert res.complete and res.size == 1200
    assert res.members == tuple(range(1200))


def _projection(m):
    return linear_function(2, [[int(j == i) for j in range(10)] for i in range(m)])


# Searches of the r=0 conflict graphs of the first m of 10 bits at node
# budget 2,000: (size, members as half-open rank runs, nodes) when the
# search finishes, (best_lower, best_upper) on a budget exit.  The branching
# order is part of the solver's contract: these pin witnesses, node counts
# and budget bounds exactly.
PINNED_SEARCHES = {
    (3, 1): (256, [(0, 128), (896, 1024)], 256),
    (3, 2): (128, [(896, 1024)], 182),
    (3, 3): (128, [(896, 1024)], 128),
    (6, 1): (128, 256),
    (6, 2): (32, 64),
    (6, 3): (16, [(1008, 1024)], 132),
    (8, 1): (66, 256),
    (8, 2): (16, 64),
    (8, 3): (8, [(512, 516), (1020, 1024)], 519),
}


def test_projection_graph_searches_are_pinned():
    for (m, t), pinned in PINNED_SEARCHES.items():
        rows = build_graph(_projection(m), t, 0).rows
        if len(pinned) == 2:
            with pytest.raises(BudgetExceededError) as info:
                max_independent_set(rows, node_budget=2_000)
            assert (info.value.best_lower, info.value.best_upper) == pinned
            continue
        size, runs, nodes = pinned
        res = max_independent_set(rows, node_budget=2_000)
        assert res.complete
        assert (res.size, res.nodes) == (size, nodes)
        assert res.members == tuple(v for lo, hi in runs for v in range(lo, hi))
