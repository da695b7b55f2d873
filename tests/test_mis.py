"""Exact independent-set solver: oracle agreement, decision mode, budgets."""

import random
from time import monotonic

import pytest

from fcclib import (
    BudgetExceededError,
    MisResult,
    a_q_exact,
    build_graph,
    extract_fcc,
    linear_function,
    max_independent_set,
)
from fcclib.fields import VectorIndex
from helpers import brute_alpha, is_independent, rand_graph, reference_mis


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


def _outcome(solver, rows, **kwargs):
    try:
        return solver(rows, **kwargs)
    except BudgetExceededError as exc:
        return (exc.best_lower, exc.best_upper)


def test_matches_the_plain_bit_order_reference():
    # Every n from 1 to 100 (so every n mod 8), rows carrying self-loops and
    # stray bits at or above n; exact, target and small-budget searches.
    rng = random.Random(20261019)
    for trial in range(400):
        n = 1 + trial % 100
        rows = rand_graph(rng, n, rng.choice([0.05, 0.2, 0.5, 0.8]))
        for v in range(n):
            if rng.random() < 0.2:
                rows[v] |= 1 << v
            if rng.random() < 0.2:
                rows[v] |= rng.getrandbits(12) << n
        mode = trial % 4
        if mode == 0:
            kwargs = {"node_budget": 400}
        elif mode == 1:
            kwargs = {"target": rng.randrange(1, n + 1), "node_budget": 400}
        else:
            kwargs = {"node_budget": rng.randrange(1, 51)}
        assert _outcome(max_independent_set, rows, **kwargs) == _outcome(
            reference_mis, rows, **kwargs
        ), (trial, kwargs)


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


def test_candidate_search_is_the_induced_subgraph_search():
    # Empty, full and random candidate masks (with stray bits at or above n),
    # each with node budgets None, 5 and 50: the in-place search equals the
    # search of the induced subgraph re-indexed in vertex order.
    rng = random.Random(20261020)
    for trial in range(300):
        n = rng.randrange(0, 70)
        rows = rand_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        kind = trial % 3
        if kind == 0:
            mask = 0
        elif kind == 1:
            mask = (1 << n) - 1
        else:
            mask = rng.getrandbits(n + 8)
        budget = (None, 5, 50)[trial // 3 % 3]
        keep = [v for v in range(n) if mask >> v & 1]
        sub = [
            sum(1 << j for j, u in enumerate(keep) if rows[v] >> u & 1)
            for v in keep
        ]
        want = _outcome(max_independent_set, sub, node_budget=budget)
        if isinstance(want, MisResult):
            members = tuple(keep[i] for i in want.members)
            want = MisResult(want.size, members, want.nodes, want.complete)
        got = _outcome(
            max_independent_set, rows, node_budget=budget, candidates=mask
        )
        assert got == want


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


# The other solver callers, pinned the same way: exact A_q(n, d) values with
# their witnesses as word ranks, the A_2(10, 5) budget-exit bounds, and the
# parity ranks (p0 * 3 + p1, one digit per message) of the q3k5 t=1 r=2
# encoder that extract_fcc finds at node budget 2,000.
PINNED_AQ = {
    (2, 7, 3): (0, 13, 22, 27, 39, 42, 49, 60, 67, 78, 85, 88, 100, 105, 114, 127),
    (2, 8, 4): (0, 27, 45, 54, 78, 85, 99, 120, 135, 156, 170, 177, 201, 210, 228, 255),
    (2, 9, 5): (0, 47, 213, 346, 435, 492),
    (3, 5, 4): (0, 49, 97, 140, 200, 240),
}
PINNED_AQ_BUDGET_EXIT = ((2, 10, 5), 2_000, (8, 42))
# Larger code graphs, outside the benchmark: (best_lower, best_upper) of the
# search at node budget 200.
PINNED_AQ_LARGE_BUDGET_EXITS = {
    (2, 11, 5): (18, 99),
    (2, 12, 5): (21, 219),
    (2, 12, 7): (3, 22),
    (3, 7, 4): (30, 80),
    (5, 5, 3): (81, 124),
}
PINNED_Q3K5_PARITY = (
    "222333777444888000666111555333777222888000444111555666777222333"
    "000444888555666111444888000666111555222333777888000444111555666"
    "333777222000444888555666111777222333666111555222333777444888000"
    "111555666333777222888000444555666111777222333000444888"
)


def test_a_q_exact_searches_are_pinned():
    for (q, n, d), ranks in PINNED_AQ.items():
        est = a_q_exact(q, n, d)
        assert (est.kind, est.value) == ("exact", len(ranks))
        index = VectorIndex(q, n)
        assert tuple(index.rank(w) for w in est.witness) == ranks
    qnd, budget, bounds = PINNED_AQ_BUDGET_EXIT
    with pytest.raises(BudgetExceededError) as info:
        a_q_exact(*qnd, node_budget=budget)
    assert (info.value.best_lower, info.value.best_upper) == bounds


def test_larger_a_q_budget_exits_are_pinned():
    for qnd, bounds in PINNED_AQ_LARGE_BUDGET_EXITS.items():
        with pytest.raises(BudgetExceededError) as info:
            a_q_exact(*qnd, node_budget=200)
        assert (info.value.best_lower, info.value.best_upper) == bounds


def test_extract_fcc_search_is_pinned():
    f = linear_function(3, [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]])
    enc = extract_fcc(build_graph(f, 1, 2), f, 1, node_budget=2_000)
    assert "".join(str(3 * a + b) for a, b in enc.parity) == PINNED_Q3K5_PARITY
