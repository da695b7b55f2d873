"""Redundancy bounds: code-size estimates, lower/upper routes, comparisons."""

import json
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from time import monotonic

import pytest

import fcclib.distance
import fcclib.spectrum
from fcclib import (
    AqEstimate,
    AqTable,
    BudgetExceededError,
    SizeLimitError,
    a_q_auto,
    a_q_exact,
    a_q_upper,
    bgs_bound,
    binary_plotkin_bound,
    bound_report,
    bounds,
    build_drm,
    build_fdm,
    build_graph,
    compare_report,
    coset_decomposition,
    fdm_upper_bound,
    independence_number,
    linear_function,
    optimality_check,
    plotkin_linear_bound,
    systematic_ecc_bound,
    table_function,
    theorem1_bound,
    two_t_bound,
    zll_bound,
)
from fcclib.bounds import systematic_bound
from fcclib.distance import _pairwise_plotkin
from fcclib.fields import VectorIndex, differences
from fcclib.graph import _cayley_rows
from fcclib.mis import _bits, max_independent_set
from helpers import (
    brute_alpha,
    is_independent,
    rand_linear,
    rand_table,
    reference_code_graph,
    reference_mis,
    reference_optimality,
    slow_code_graph,
    slow_distance,
    slow_optimality,
)

ENTRY_NAMES = (
    "distance_2t",
    "linear_averaging",
    "pairwise_averaging",
    "systematic",
    "eigenvalue",
    "independence",
    "code_search",
)


def test_exact_code_sizes():
    assert a_q_exact(2, 4, 3).value == 2
    assert a_q_exact(2, 3, 1).value == 8
    assert a_q_exact(5, 3, 2).value == 25
    assert a_q_exact(2, 8, 4).value == 16


def test_exact_witnesses_meet_the_distance():
    for q, n, d in [(2, 4, 3), (2, 5, 3), (3, 3, 2), (2, 6, 4)]:
        est = a_q_exact(q, n, d)
        assert est.kind == "exact" and est.direction == "exact"
        words = est.witness
        assert len(words) == est.value
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                assert slow_distance(words[i], words[j]) >= d


def test_exact_code_graph_matches_naive_distance_graph():
    for q, n, d, known in [(3, 4, 3, 9), (5, 3, 3, 5)]:
        naive = slow_code_graph(q, n, d)
        # the Cayley rows for 1 <= wt < d are the conflict graph; a_q_exact
        # searches its subgraph on the words at distance >= d from zero
        assert _cayley_rows(q, q**n, differences(q, n, 1, d - 1)) == naive
        est = a_q_exact(q, n, d)
        assert est.value == known == max_independent_set(naive).size
        assert all(
            slow_distance(a, b) >= d
            for i, a in enumerate(est.witness)
            for b in est.witness[i + 1:]
        )


def test_code_graph_rows_restricted_to_the_candidates_match_the_word_builder():
    for q, n, d in [(2, 5, 3), (2, 7, 3), (2, 8, 4), (2, 9, 5), (3, 3, 2),
                    (3, 4, 3), (3, 5, 4), (5, 3, 2), (5, 3, 3)]:
        keep, sub = reference_code_graph(q, n, d)
        candidates = sum(1 << v for v in keep)
        rows = _cayley_rows(q, q**n, differences(q, n, 1, d - 1))
        pos = {v: i for i, v in enumerate(keep)}
        restricted = [
            sum(1 << pos[w] for w in _bits(rows[v] & candidates)) for v in keep
        ]
        assert restricted == sub
        # the in-place search of the rows is the search of the re-indexed graph
        got = max_independent_set(rows, candidates=candidates)
        want = max_independent_set(sub)
        assert (got.size, got.nodes, got.complete) == (
            want.size, want.nodes, want.complete
        )
        assert got.members == tuple(keep[i] for i in want.members)
        if d > 2:  # a_q_exact answers d = 2 in closed form
            index = VectorIndex(q, n)
            ranks = [index.rank(w) for w in a_q_exact(q, n, d).witness]
            assert ranks == sorted([0, *got.members])


def test_exact_degenerate_parameters():
    assert a_q_exact(2, 0, 1).value == 1
    assert a_q_exact(2, 0, 2).value == 0
    assert a_q_exact(3, 2, 5).value == 1  # d > n: one word at most
    with pytest.raises(ValueError):
        a_q_exact(4, 3, 2)  # composite alphabet
    with pytest.raises(ValueError):
        a_q_exact(2, -1, 2)
    with pytest.raises(ValueError):
        a_q_exact(2, 3, 0)
    with pytest.raises(ValueError):
        a_q_exact(2, 13, 3)  # 2^13 words exceed the exact-search limit
    # a space too large to print is named by its power
    with pytest.raises(ValueError) as info:
        a_q_exact(2, 20_000, 5)
    assert str(info.value) == "exact search limited to 4096 words; q^n = 2^20000"


def test_upper_bound_closed_forms():
    assert a_q_upper(2, 12, 7, "hamming").value == 13
    assert a_q_upper(2, 12, 7, "singleton").value == 64
    assert a_q_upper(3, 5, 5, "singleton").value == 3
    assert a_q_upper(2, 3, 7, "hamming").value == 1
    # Plotkin, where it is tight: A(16,8) = A(15,7) = 32 (first-order
    # Reed-Muller), A(10,6) = 6, A(11,7) = 4, A_3(4,3) = 9 (tetracode)
    for q, n, d, value in [
        (2, 16, 8, 32), (2, 15, 7, 32), (2, 10, 6, 6), (2, 11, 7, 4), (3, 4, 3, 9)
    ]:
        est = a_q_upper(q, n, d, "plotkin")
        assert (est.value, est.kind) == (value, "plotkin_upper")
    # past its range the bound says nothing
    assert a_q_upper(2, 17, 8, "plotkin").value == 2**17
    assert a_q_upper(3, 5, 3, "plotkin").value == 3**5
    with pytest.raises(ValueError):
        a_q_upper(2, 12, 7, "elias")
    with pytest.raises(ValueError, match="need n >= 0 and d >= 1"):
        a_q_upper(2, 3, 0, "hamming")


def test_upper_bounds_dominate_exact_values():
    rng = random.Random(20260818)
    for _ in range(20):
        q = rng.choice([2, 3])
        n = rng.randrange(1, 7 if q == 2 else 5)
        d = rng.randrange(1, n + 2)
        exact = a_q_exact(q, n, d).value
        assert exact <= a_q_upper(q, n, d, "hamming").value
        assert exact <= a_q_upper(q, n, d, "singleton").value


def test_plotkin_estimate_dominates_exact_values():
    searched = 0
    for q in (2, 3, 5, 7):
        for n in range(1, 11):
            if q**n > 2**10:
                break
            for d in range(1, n + 2):
                try:
                    exact = a_q_exact(q, n, d, 2_000).value
                except BudgetExceededError:
                    continue
                searched += 3 <= d <= n
                assert exact <= a_q_upper(q, n, d, "plotkin").value, (q, n, d)
    assert searched >= 35


def test_auto_estimate_policy():
    assert a_q_auto(2, 4, 3).kind == "exact"
    assert a_q_auto(2, 20, 2).kind == "exact"  # closed form at any size
    assert a_q_auto(2, 5, 9).kind == "exact"  # d > n
    big = a_q_auto(2, 12, 7)
    assert big.kind in ("hamming_upper", "singleton_upper")
    assert big.value == min(
        a_q_upper(2, 12, 7, "hamming").value,
        a_q_upper(2, 12, 7, "singleton").value,
    )


def test_auto_estimate_falls_back_when_the_attempt_runs_out(monkeypatch):
    # 2^7 words are within the exact attempt's size, but one node is not
    # enough to finish it: the closed forms answer instead
    monkeypatch.setattr(bounds, "AQ_AUTO_ATTEMPT_BUDGET", 1)
    a_q_auto.cache_clear()
    try:
        est = a_q_auto(2, 7, 3)
    finally:
        a_q_auto.cache_clear()
    assert (est.value, est.kind) == (16, "hamming_upper")


def test_systematic_bound_examples():
    assert systematic_ecc_bound(2, 12, 7, a_q_upper(2, 12, 7, "singleton")) == 6
    assert systematic_ecc_bound(2, 4, 3, a_q_exact(2, 4, 3)) == 3
    est = a_q_exact(7, 3, 3)
    assert est.value == 7
    assert systematic_ecc_bound(7, 3, 3, est) == 2


def test_systematic_bound_rejects_bad_estimates():
    with pytest.raises(ValueError):
        systematic_ecc_bound(2, 5, 3, a_q_exact(2, 4, 3))  # (q, n, d) mismatch
    low = AqEstimate(q=2, n=12, d=7, value=24, kind="table_lower")
    with pytest.raises(ValueError):
        systematic_ecc_bound(2, 12, 7, low)
    empty = a_q_exact(2, 0, 2)
    with pytest.raises(ValueError):
        systematic_ecc_bound(2, 0, 2, empty)


def test_systematic_bound_monotone_in_estimate():
    tight = systematic_ecc_bound(2, 12, 7, a_q_upper(2, 12, 7, "hamming"))
    loose = systematic_ecc_bound(2, 12, 7, a_q_upper(2, 12, 7, "singleton"))
    assert tight >= loose  # smaller code-size estimate, more redundancy


def test_counting_bound_formula():
    f = linear_function(2, [(1, 1, 1, 0), (0, 1, 1, 0)])
    assert theorem1_bound(f, 1, 1) == 4
    assert theorem1_bound(f, 1, 2) == 3
    assert theorem1_bound(f, 1, 16) == 0
    assert theorem1_bound(f, 1, 5) == 2  # 5 * 4 >= 16 > 5 * 2
    with pytest.raises(ValueError):
        theorem1_bound(f, 0, 4)
    with pytest.raises(ValueError):
        theorem1_bound(f, 1, 0)


def test_distance_floor(ex_q2_k4, const_q2_k3, or_q2_k2):
    assert two_t_bound(ex_q2_k4, 2) == 4
    assert two_t_bound(ex_q2_k4, 3) == 6
    assert two_t_bound(or_q2_k2, 1) == 2
    assert two_t_bound(const_q2_k3, 3) == 0
    with pytest.raises(ValueError):
        two_t_bound(ex_q2_k4, 0)


def test_linear_averaging_bound(ex_q2_k4, or_q2_k2, const_q2_k3):
    assert plotkin_linear_bound(ex_q2_k4, 2) == Fraction(17, 4)
    # full-rank case: zero kernel weight leaves the pure closed form
    for q, k, t in [(2, 2, 1), (3, 2, 1), (2, 3, 2)]:
        rows = [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
        f = linear_function(q, rows)
        want = Fraction(q, q - 1) * (2 * t + 1) * (1 - Fraction(1, q**k)) - k
        assert plotkin_linear_bound(f, t) == want
    with pytest.raises(ValueError):
        plotkin_linear_bound(const_q2_k3, 1)  # needs l >= 1
    with pytest.raises(ValueError):
        plotkin_linear_bound(or_q2_k2, 1)  # linear only
    with pytest.raises(ValueError):
        plotkin_linear_bound(ex_q2_k4, 0)


def test_search_upper_bound(ex_q2_k4, ex_q3_k3, const_q2_k3):
    assert fdm_upper_bound(ex_q2_k4, 1) == 3
    assert fdm_upper_bound(ex_q3_k3, 1) == 2
    assert fdm_upper_bound(const_q2_k3, 1) == 0
    with pytest.raises(BudgetExceededError):
        fdm_upper_bound(ex_q2_k4, 1, r_cap=1)


def test_optimality_certificates(ex_q2_k4, ex_q3_k3, or_q2_k2):
    assert optimality_check(ex_q2_k4, 2)
    assert optimality_check(ex_q3_k3, 1)
    assert optimality_check(linear_function(2, [(1, 0), (0, 1)]), 1)  # bijection
    with pytest.raises(ValueError):
        optimality_check(or_q2_k2, 1)
    with pytest.raises(ValueError):
        optimality_check(ex_q2_k4, 0)
    # every search node counts against the budget, whatever the matrix
    with pytest.raises(BudgetExceededError):
        optimality_check(linear_function(3, [(1, 2)]), 1, node_budget=0)


def test_optimality_check_matches_brute_force():
    rng = random.Random(31)
    verdicts = Counter()
    for _ in range(120):
        q = rng.choice([2, 2, 3])
        k = rng.randrange(1, 6 if q == 2 else 4)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        t = rng.randrange(1, 3)
        verdict = optimality_check(f, t)
        assert verdict == slow_optimality(f, t)
        verdicts[verdict] += 1
    # unit-basis f whose non-zero columns repeat, over F_2, F_3 and F_5
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        l = rng.randrange(1, 3)
        f = _unit_basis_with_repeats(rng, q, l, l + rng.randrange(1, 2 if q == 5 else 4))
        t = rng.randrange(1, 3)
        verdict = optimality_check(f, t)
        assert verdict == slow_optimality(f, t)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def _unit_basis_with_repeats(rng, q, l, k):
    """Linear f with exactly l distinct non-zero columns, one of them repeated."""
    while True:
        basis = [tuple(rng.randrange(q) for _ in range(l)) for _ in range(l)]
        columns = basis + [rng.choice(basis)]
        columns += [rng.choice(basis + [(0,) * l]) for _ in range(k - l - 1)]
        rng.shuffle(columns)
        try:
            f = linear_function(q, list(zip(*columns)), k=k)
        except ValueError:
            continue
        if len(set(basis)) == l:
            return f


def test_optimality_check_translates_once_per_class_pair(monkeypatch):
    # [I_5 | (2,0,0,0,0)^T] over F_3: 243 classes, 29,403 class pairs
    rows = [[int(j == i) for j in range(5)] + [2 * (i == 0)] for i in range(5)]
    f = linear_function(3, rows)
    fdm = build_fdm(f, 1)
    nonzero = sum(1 for a in range(fdm.order) for b in range(a) if fdm[a][b])
    assert nonzero == 6_075
    lengths = []
    real = bounds.translate
    monkeypatch.setattr(
        bounds,
        "translate",
        lambda q, i, diffs: lengths.append(len(diffs)) or real(q, i, diffs),
    )
    assert optimality_check(f, 1) is True
    assert len(lengths) == 243
    assert sum(lengths) == 243 * 242 // 2


def test_optimality_check_matches_the_fdm_search_node_for_node():
    # the leader-table test against the search on a built FDM: the same
    # verdict, and the same node count, read off the budget it needs
    # (a class exactly 2t away, or the sign of a pick, decides only a few
    # percent of random cases, hence 120 functions per field at every t)
    rng = random.Random(16)
    cases = []
    for q, k_min, k_max in ((2, 5, 8), (3, 3, 5), (5, 2, 4)):
        for _ in range(40):
            k = rng.randrange(k_min, k_max + 1)
            f = rand_linear(rng, q, k, rng.randrange(1, k))
            cases += [(f, t) for t in (1, 2, 3)]
    for m in (6, 8):
        proj = linear_function(2, [[int(j == i) for j in range(10)] for i in range(m)])
        cases += [(proj, t) for t in (1, 2, 3)]
    rows = [[int(j == i) for j in range(5)] + [2 * (i == 0)] for i in range(5)]
    cases.append((linear_function(3, rows), 1))
    verdicts = Counter()
    for f, t in cases:
        verdict, nodes = reference_optimality(f, t)
        assert optimality_check(f, t, node_budget=nodes) is verdict
        with pytest.raises(BudgetExceededError, match=f"exceeded {nodes - 1} nodes"):
            optimality_check(f, t, node_budget=nodes - 1)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_optimality_budget_counts_unit_basis_nodes(ex_q2_k4):
    # four classes: the first descent takes one node per class
    assert optimality_check(ex_q2_k4, 1, node_budget=4) is True
    with pytest.raises(BudgetExceededError, match="exceeded 3 nodes"):
        optimality_check(ex_q2_k4, 1, node_budget=3)


def test_optimality_check_needs_no_recursion_depth():
    # [I_5 | (2,0,0,0,0)^T] over F_3: 243 classes, one search level each
    rows = [[int(j == i) for j in range(5)] + [2 * (i == 0)] for i in range(5)]
    f = linear_function(3, rows)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        assert optimality_check(f, 1) is True
        report = bound_report(f, 1, node_budget=2_000)
    finally:
        sys.setrecursionlimit(limit)
    assert report.optimal is True


def test_optimality_check_stops_at_a_past_deadline():
    # [I_10 | e_1] over F_2: 1,024 classes, so the first descent reaches
    # node 1,024, where the clock is read
    rows = [[int(j == i) for j in range(10)] + [int(i == 0)] for i in range(10)]
    f = linear_function(2, rows)
    assert optimality_check(f, 1) is True
    with pytest.raises(BudgetExceededError, match="exceeded the time budget"):
        optimality_check(f, 1, deadline=monotonic() - 1.0)


def test_ball_packing_bounds():
    assert zll_bound(2, 4, 3) == 3
    assert zll_bound(2, 1, 2) == 1
    assert bgs_bound(2, 4, 3) == 3
    assert bgs_bound(2, 1, 2) == 1
    for args in [(2, 0, 3), (2, 4, 1), (4, 4, 3)]:
        with pytest.raises(ValueError):
            zll_bound(*args)
        with pytest.raises(ValueError):
            bgs_bound(*args)


def test_ball_packing_closed_form_at_distance_three():
    # at d=3 the scan reduces to fitting the radius-1 ball into q^r
    for q in (2, 3, 5):
        for k in range(1, 31):
            want = math.ceil(math.log((q - 1) * k + 1, q) - 1e-12)
            assert zll_bound(q, k, 3) == want


def test_refined_scan_dominates_plain_scan():
    rng = random.Random(1)
    for _ in range(25):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 9)
        d = rng.randrange(2, 6)
        assert bgs_bound(q, k, d) >= zll_bound(q, k, d)


def test_perfect_code_parameters_are_tight():
    # parameters of the perfect single-error-correcting codes: the scan
    # bounds meet the actual redundancy exactly
    for q, k, r in [(2, 4, 3), (2, 11, 4), (3, 10, 3)]:
        assert zll_bound(q, k, 3) == r
        assert bgs_bound(q, k, 3) == r


def test_scan_bounds_accept_custom_estimators():
    generous = lambda q, n, d: q**n if d == 1 else max(q ** (n - d + 1), 1)
    assert zll_bound(2, 4, 3, aq=generous) <= zll_bound(2, 4, 3)
    bad = lambda q, n, d: 0
    with pytest.raises(AssertionError):
        zll_bound(2, 4, 3, aq=bad)
    with pytest.raises(AssertionError):
        bgs_bound(2, 4, 3, aq=bad)


def test_aq_table_lookup_rules():
    rows = [
        AqEstimate(q=2, n=12, d=7, value=24, kind="table_exact"),
        AqEstimate(q=2, n=12, d=7, value=32, kind="table_upper"),
        AqEstimate(q=2, n=10, d=7, value=6, kind="table_upper"),
        AqEstimate(q=2, n=20, d=7, value=2**13, kind="table_lower"),
        AqEstimate(q=2, n=22, d=7, value=2**14, kind="table_lower"),
    ]
    table = AqTable(rows)
    assert len(table) == 5
    hit = table.estimate_for(2, 12, 7)
    assert hit.kind == "table_exact" and hit.value == 24
    assert table.estimate_for(2, 10, 7).value == 6
    assert table.estimate_for(2, 11, 7) is None
    # lower rows never serve as estimates, only as achievability witnesses
    assert table.estimate_for(2, 20, 7) is None
    assert table.achievable_redundancy(2, 12, 7) == 8
    assert table.achievable_redundancy(2, 9, 7) == 11
    assert table.achievable_redundancy(2, 12, 5) is None
    with pytest.raises(TypeError):
        AqTable([("not", "an", "estimate")])


def test_compare_report_with_and_without_table():
    plain = compare_report(2, 7, [12])[0]
    assert plain.k == 12
    assert plain.aq_kind == "hamming_upper"
    assert plain.r_prime == 9
    assert plain.r_bgs == bgs_bound(2, 12, 7)
    assert plain.delta_bgs == plain.r_bgs - plain.r_prime
    assert plain.delta_blb is None and plain.delta_bub is None

    table = AqTable(
        [
            AqEstimate(q=2, n=12, d=7, value=24, kind="table_exact"),
            AqEstimate(q=2, n=20, d=7, value=2**13, kind="table_lower"),
        ]
    )
    row = compare_report(2, 7, [12], table=table)[0]
    assert row.aq_kind == "table_exact"
    assert row.r_prime == 8
    assert row.delta_blb == row.r_bgs - 8
    assert row.delta_bub == row.r_bgs - 8
    # k without a table row falls back to the built-in estimate
    fallback = compare_report(2, 7, [11], table=table)[0]
    assert fallback.aq_kind in ("hamming_upper", "singleton_upper")
    assert fallback.delta_blb is None


def test_report_structure_linear(ex_q2_k4):
    report = bound_report(ex_q2_k4, 1)
    assert report.descriptor == "q=2 k=4 t=1 mode=linear"
    assert tuple(e.name for e in report.entries) == ENTRY_NAMES
    senses = {e.name: e.sense for e in report.entries}
    assert senses["code_search"] == "upper"
    assert all(s == "lower" for n, s in senses.items() if n != "code_search")
    values = {e.name: e.integer for e in report.entries}
    assert values["distance_2t"] == 2
    assert values["code_search"] == 3
    assert report.optimal is True
    # every lower bound is sandwiched under the search result
    for e in report.entries:
        if e.sense == "lower" and e.integer is not None:
            assert e.integer <= values["code_search"]


def test_report_structure_ternary_and_table(ex_q3_k3, or_q2_k2):
    ternary = bound_report(ex_q3_k3, 1)
    by_name = {e.name: e for e in ternary.entries}
    assert by_name["pairwise_averaging"].integer is None
    assert by_name["pairwise_averaging"].note == "binary alphabets only"
    assert by_name["code_search"].integer == 2

    table = bound_report(or_q2_k2, 1)
    by_name = {e.name: e for e in table.entries}
    assert by_name["linear_averaging"].integer is None
    assert by_name["eigenvalue"].note == "linear functions only"
    assert table.optimal is None
    assert by_name["pairwise_averaging"].integer is not None  # table f averages too


def test_linear_averaging_integer_is_clamped_at_zero():
    # first 6 of 10 bits at t=1: the closed form is negative
    proj6 = linear_function(2, [[int(j == i) for j in range(10)] for i in range(6)])
    report = bound_report(proj6, 1, node_budget=2_000)
    entry = next(e for e in report.entries if e.name == "linear_averaging")
    assert entry.rational == Fraction(-129, 32)
    assert entry.integer == 0


def test_report_refuses_code_search_before_building_the_fdm(monkeypatch):
    # first 6 of 10 bits at t=2: the image has 64 values, above the search
    # limit, and the optimality check reads the leader table, so no row of
    # the report builds the matrix
    proj6 = linear_function(2, [[int(j == i) for j in range(10)] for i in range(6)])
    built = []
    real = fcclib.distance.build_fdm
    for module in (fcclib.distance, bounds):  # whichever module would call it
        monkeypatch.setattr(
            module, "build_fdm", lambda f, t: built.append(t) or real(f, t),
            raising=False,
        )
    report = bound_report(proj6, 2, node_budget=2_000)
    entry = next(e for e in report.entries if e.name == "code_search")
    assert entry.note == "budget: matrix order 64 exceeds the search limit 20"
    assert report.optimal is not None
    assert built == []


def test_fdm_upper_bound_refuses_before_building_the_fdm(monkeypatch):
    # the code_search row's route: the image size is checked, the matrix
    # never built; the limit is read when the search is called
    proj6 = linear_function(2, [[int(j == i) for j in range(10)] for i in range(6)])
    built = []
    real = fcclib.distance.build_fdm
    monkeypatch.setattr(
        fcclib.distance, "build_fdm", lambda f, t: built.append(t) or real(f, t)
    )
    with pytest.raises(BudgetExceededError, match="order 64 exceeds the search limit 20"):
        fdm_upper_bound(proj6, 2)
    assert built == []
    monkeypatch.setattr(fcclib.distance, "DEFAULT_MAX_ORDER", 2)
    with pytest.raises(BudgetExceededError, match="order 4 exceeds the search limit 2"):
        fdm_upper_bound(linear_function(2, [(1, 1, 1, 0), (0, 1, 1, 0)]), 1)
    assert built == []


def _bounds_cells():
    """The benchmark's bound_report cells: proj6 t=1..3, k12 t=1, q3k5 t=1."""
    proj6 = linear_function(2, [[int(j == i) for j in range(10)] for i in range(6)])
    k12 = linear_function(2, [[1, 1, 1, 0] * 3, [0, 1, 1, 0] * 3])
    q3k5 = linear_function(3, [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]])
    return [(proj6, 1), (proj6, 2), (proj6, 3), (k12, 1), (q3k5, 1)]


def test_pairwise_averaging_equals_the_drm_average(monkeypatch):
    rng = random.Random(20261018)
    cases = _bounds_cells()
    while len(cases) < 50:
        k = rng.randrange(1, 7)
        if rng.random() < 0.5:
            f = rand_linear(rng, 2, k, rng.randrange(0, k + 1))
        else:
            f = rand_table(rng, 2, k, rng.randrange(1, 2**k + 1))
        cases.append((f, rng.randrange(1, 4)))
    for f, t in cases:
        assert _pairwise_plotkin(f, t) == binary_plotkin_bound(build_drm(f, t))
    # through the report: proj6 t=3, k12 t=1 and small random cases
    monkeypatch.setattr(fcclib.distance, "DEFAULT_MAX_ORDER", 6)
    for f, t in cases[2:4] + [c for c in cases[5:] if c[1] < 3][:12]:
        report = bound_report(f, t, node_budget=2_000)
        entry = next(e for e in report.entries if e.name == "pairwise_averaging")
        assert entry.rational == binary_plotkin_bound(build_drm(f, t))
    # Past the matrix limit a linear f still averages: one walk from 0, with
    # 2^13 * (2 + 12) ordered crossing pairs over (2^13)^2.
    big = linear_function(2, [(1,) + (0,) * 12])
    assert _pairwise_plotkin(big, 1) == Fraction(7, 2048)
    report = bound_report(big, 1, node_budget=2_000)
    entry = next(e for e in report.entries if e.name == "pairwise_averaging")
    assert (entry.rational, entry.integer) == (Fraction(7, 2048), 1)
    # the matrix's refusals, word for word: t, and a table f past the limit
    wide = table_function(2, 13, [u & 1 for u in range(2**13)])
    for f, t in ((cases[5][0], 128), (wide, 1)):
        with pytest.raises(ValueError) as want:
            build_drm(f, t)
        with pytest.raises(ValueError) as got:
            _pairwise_plotkin(f, t)
        assert str(got.value) == str(want.value)
    # the report's row is a size refusal with that text, as the
    # independence row's refusal in the same report is
    by_name = {e.name: e for e in bound_report(wide, 1).entries}
    assert by_name["pairwise_averaging"].note == str(want.value)
    assert by_name["pairwise_averaging"].limit == "size"
    assert by_name["independence"].limit == "size"


def test_report_builds_no_drm_and_no_connection_row(monkeypatch):
    calls, lengths = [], []
    for module in (fcclib.distance, bounds):
        real = getattr(module, "build_drm", None)
        if real is not None:
            wrapped = lambda *a, real=real: calls.append("build_drm") or real(*a)
            monkeypatch.setattr(module, "build_drm", wrapped)
    # No length-q^(k+r) row: the eigenvalue row lists only the q^k messages.
    span_ranks = fcclib.spectrum.span_ranks
    wrapped = lambda *a: lengths.append(len(out := span_ranks(*a))) or out
    monkeypatch.setattr(fcclib.spectrum, "span_ranks", wrapped)
    proj6 = _bounds_cells()[1][0]
    report = bound_report(proj6, 2, node_budget=2_000)
    assert {e.name for e in report.entries if e.integer is not None} >= {
        "pairwise_averaging",
        "eigenvalue",
    }
    table = table_function(2, 4, [bin(u).count("1") % 3 for u in range(16)])
    report = bound_report(table, 1)
    assert next(e for e in report.entries if e.name == "pairwise_averaging").integer
    assert calls == []
    assert lengths and sum(lengths) <= proj6.q**proj6.k


def test_report_on_a_graph_whose_alpha_exceeds_the_recursion_limit(monkeypatch):
    # f reads one of 11 bits: the 2,048-vertex r=0 graph has alpha = 1,024,
    # a clique of that depth in the complement
    f = linear_function(2, [(1,) + (0,) * 10])
    res = independence_number(build_graph(f, 1, 0))
    assert (res.size, res.complete) == (1024, True)
    assert theorem1_bound(f, 1, res.size) == 1
    # The report's row is skipped on f's classes alone: a class of 1,024
    # caps it at 1, under distance_2t's 2, and no graph is built.
    monkeypatch.setattr(bounds, "build_graph", None)
    report = bound_report(f, 1)
    entry = next(e for e in report.entries if e.name == "independence")
    assert (entry.integer, entry.limit) == (None, "skipped")
    assert entry.note == (
        "skipped: an independent set of 1024 caps this row at 1; distance_2t gives 2"
    )


BUDGET_ROWS = "010010;110110;111010;101110"


def test_report_budget_notes():
    # k = 6, l = 4: the best lower row is 3, so the gate's target is
    # 2^(6-3) = 8; a class has 4 messages and no two classes lie more than
    # 2 apart, so the search runs, and one node is not enough for it
    f = linear_function(2, [[int(c) for c in row] for row in BUDGET_ROWS.split(";")])
    report = bound_report(f, 1, node_budget=1)
    by_name = {e.name: e for e in report.entries}
    assert by_name["independence"].integer is None
    assert by_name["independence"].note.startswith("budget: ")
    assert by_name["independence"].limit == "budget"
    # the other routes still produced values
    assert by_name["code_search"].integer == 4
    assert all(e.limit == "" for e in report.entries if e.name != "independence")


def test_report_builds_the_fdm_once(monkeypatch):
    # the BUDGET_ROWS f: the independence row reads the FDM for its union
    # and the code_search row searches the same matrix (image 16 <= 20)
    f = linear_function(2, [[int(c) for c in row] for row in BUDGET_ROWS.split(";")])
    built = []
    real = fcclib.distance.build_fdm
    for module in (fcclib.distance, bounds):
        monkeypatch.setattr(module, "build_fdm", lambda g, t: built.append(t) or real(g, t))
    values = {e.name: e.integer for e in bound_report(f, 1, node_budget=1).entries}
    assert values["code_search"] == 4
    assert built == [1]


def _must_not_run(*args, **kwargs):
    raise AssertionError("the independence row built its graph or searched it")


def test_far_apart_classes_skip_the_search(monkeypatch):
    # f keeps 4 of 5 bits: a class has 2 messages, below the target
    # 2^(5-3) = 4, but two classes 3 apart hold 4 together
    f = linear_function(2, [[int(j == i) for j in range(5)] for i in range(4)])
    monkeypatch.setattr(bounds, "max_independent_set", _must_not_run)
    entry = next(e for e in bound_report(f, 1).entries if e.name == "independence")
    assert entry.note == (
        "skipped: an independent set of 4 caps this row at 3; systematic gives 3"
    )
    assert entry.limit == "skipped"


def test_far_apart_classes_skip_the_t1_projection_cells(monkeypatch, golden_dir):
    # proj6 t=1: 8 classes of 16 over a distance-3 code reach 64; proj8
    # t=1: 16 classes of 4 reach 64; neither builds the graph nor searches
    want = json.loads((golden_dir / "bound_report_cells.json").read_text())
    monkeypatch.setattr(bounds, "build_graph", _must_not_run)
    monkeypatch.setattr(bounds, "max_independent_set", _must_not_run)
    for name, m in (("proj6", 6), ("proj8", 8)):
        f = linear_function(2, [[int(j == i) for j in range(10)] for i in range(m)])
        report = bound_report(f, 1, node_budget=2_000)
        entries = [
            [e.name, e.sense, None if e.rational is None else str(e.rational),
             e.integer, e.note]
            for e in report.entries
        ]
        assert {"optimal": report.optimal, "entries": entries} == want[f"{name} t=1"]


def _greedy_union(f, t):
    """The classes bound_report's independence row keeps: largest first,
    each at FDM entry 0 from every class kept before it."""
    classes, fdm, kept = coset_decomposition(f).classes, build_fdm(f, t), []
    for a in sorted(range(len(classes)), key=lambda a: -len(classes[a])):
        if all(fdm[a][b] == 0 for b in kept):
            kept.append(a)
    return [u for a in kept for u in classes[a]]


def test_far_apart_union_is_independent_and_its_skips_are_sound(monkeypatch):
    # the parity search is not under test: small images only.  Ranks l near
    # k make classes small, where the union, not one class, decides the gate
    monkeypatch.setattr(fcclib.distance, "DEFAULT_MAX_ORDER", 6)
    rng = random.Random(20261021)
    union_skips = 0
    for _ in range(60):
        q = rng.choice([2, 2, 3])
        k = rng.randrange(4, 8) if q == 2 else rng.randrange(2, 5)
        if rng.random() < 0.7:
            f = rand_linear(rng, q, k, rng.randrange(max(1, k - 3), k + 1))
        else:
            f = rand_table(rng, q, k, rng.randrange(2, min(q**k, 12) + 1))
        t = rng.randrange(1, 3)
        rows = build_graph(f, t, 0).rows
        union = _greedy_union(f, t)
        assert is_independent(rows, union), (f, t)
        report = bound_report(f, t, node_budget=1)
        names = [e.name for e in report.entries]
        row = report.entries[names.index("independence")]
        if row.limit == "skipped":
            before = report.entries[: names.index("independence")]
            best = max(e.integer for e in before if e.integer is not None)
            alpha = max_independent_set(rows, node_budget=None).size
            assert theorem1_bound(f, t, alpha) <= best, (f, t)
            # skipped by a union, where no single class reached the target
            largest = max(map(len, coset_decomposition(f).classes))
            union_skips += largest < q ** max(k - best, 0)
    assert union_skips >= 5


def test_report_tells_refusals_from_budget_exits():
    proj6 = _bounds_cells()[0][0]
    report = bound_report(proj6, 3, node_budget=2_000)
    by_name = {e.name: e for e in report.entries}
    search = by_name["code_search"]
    assert search.note == "budget: matrix order 64 exceeds the search limit 20"
    assert search.limit == "size"
    assert by_name["independence"].limit == "skipped"
    k12 = _bounds_cells()[3][0]
    entry = next(e for e in bound_report(k12, 1).entries if e.name == "independence")
    assert entry.note == "q^k = 4096 exceeds the exact-solver limit"
    assert entry.limit == "size"
    with pytest.raises(SizeLimitError):
        fdm_upper_bound(proj6, 3)
    # the k=2 bijection at t=13: its largest FDM entry 26 is above the
    # binary length cap, so no length is searched
    bijection = linear_function(2, [(1, 0), (0, 1)])
    search = bound_report(bijection, 13).entries[-1]
    assert search.name == "code_search" and search.integer is None
    assert search.note == "largest entry 26 exceeds the length cap 12"
    assert search.limit == "size"


def _gate_cases():
    rng = random.Random(20261020)
    cases = []
    for _ in range(90):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 7 if q == 2 else 5)
        if rng.random() < 0.5:
            f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        else:
            f = rand_table(rng, q, k, rng.randrange(1, q**k + 1))
        cases.append((f, rng.randrange(1, 3)))
    return cases


def test_independence_gate_skips_only_rows_that_cannot_win(monkeypatch):
    # the parity search is not under test: small images only
    monkeypatch.setattr(fcclib.distance, "DEFAULT_MAX_ORDER", 6)
    ran = skipped = 0
    for f, t in _gate_cases():
        report = bound_report(f, t)
        names = [e.name for e in report.entries]
        row = report.entries[names.index("independence")]
        before = [e.integer for e in report.entries[: names.index("independence")]]
        best = max(v for v in before if v is not None)
        rows = build_graph(f, t, 0).rows
        alpha = reference_mis(rows).size
        if f.q**f.k <= 16:
            assert brute_alpha(rows) == alpha
        if row.limit == "skipped":
            skipped += 1
            assert theorem1_bound(f, t, alpha) <= best
            # the note's set is real, its cap right, its row the best one
            size, cap, name, value = re.fullmatch(
                r"skipped: an independent set of (\d+) caps this row at (\d+);"
                r" (\w+) gives (\d+)",
                row.note,
            ).groups()
            assert int(size) <= alpha and row.integer is None
            assert int(cap) == theorem1_bound(f, t, int(size)) <= best
            assert before[names.index(name)] == int(value) == best
        else:
            ran += 1
            assert row.limit == ""
            assert row.integer == theorem1_bound(f, t, alpha)
            assert row.note == f"exact alpha = {alpha} at r=0"
    assert ran >= 5 and skipped >= 20


def test_systematic_row_never_exceeds_the_code_search():
    k12 = _bounds_cells()[3][0]
    cells = _bounds_cells()[3:] + [(k12, 2), (k12, 3)]
    cells += [(f, t) for f, t in _gate_cases() if f.mode == "linear"]
    compared = 0
    for f, t in cells:
        values = {e.name: e.integer for e in bound_report(f, t).entries}
        if f.l == 0:
            assert values["systematic"] is None
        elif values["code_search"] is not None:
            compared += 1
            assert values["systematic"] <= values["code_search"]
    assert compared >= 20
    # k12 (l = 2): the Plotkin term makes the row meet the search
    assert [systematic_bound(2, 2, 2 * t + 1) for t in (1, 2, 3)] == [3, 6, 9]
    assert [systematic_bound(2, 6, 2 * t + 1) for t in (1, 2, 3)] == [4, 7, 10]


def test_systematic_row_is_at_most_the_exact_scan():
    for q, l, d in [(2, 1, 3), (2, 2, 3), (2, 3, 3), (2, 4, 3), (2, 1, 5),
                    (2, 2, 5), (2, 1, 7), (2, 2, 7), (3, 1, 3), (3, 2, 3),
                    (3, 1, 5), (5, 1, 3), (7, 1, 3)]:
        r = 0
        while a_q_exact(q, l + r, d).value < q**l:
            r += 1
        assert systematic_bound(q, l, d) <= r, (q, l, d)


def test_sandwich_invariant_on_random_instances():
    rng = random.Random(2)
    for _ in range(15):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        t = rng.randrange(1, 3)
        report = bound_report(f, t)
        upper = next(e for e in report.entries if e.name == "code_search")
        assert upper.integer is not None
        for e in report.entries:
            if e.sense == "lower" and e.integer is not None:
                assert e.integer <= upper.integer


def test_report_keeps_its_entries_when_the_certificate_runs_out(monkeypatch, ex_q2_k4):
    want = bound_report(ex_q2_k4, 1)

    def out_of_budget(*args, **kwargs):
        raise BudgetExceededError("representative search exceeded 1 nodes")

    monkeypatch.setattr(bounds, "optimality_check", out_of_budget)
    got = bound_report(ex_q2_k4, 1)
    assert (want.optimal, got.optimal) == (True, None)
    assert got.entries == want.entries


def test_eigenvalue_row_scans_to_the_repetition_code():
    # the identity on F_2^8: the row reads the exact scan, with no cap
    f = linear_function(2, [[int(i == j) for j in range(8)] for i in range(8)])
    for t, want in ((7, 10), (8, 12)):
        by_name = {e.name: e for e in bound_report(f, t, node_budget=2_000).entries}
        entry = by_name["eigenvalue"]
        assert (entry.integer, entry.note, entry.limit) == (want, "", ""), t
    # repeating f(u) 2t+1 times is an FCC at r = (2t+1)l, so the scan the
    # row runs never ends exhausted
    rng = random.Random(24)
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        k = rng.randrange(1, {2: 8, 3: 5, 5: 4}[q] + 1)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        t = rng.randrange(1, 4)
        res = fcclib.spectrum.eigenvalue_redundancy_bound(f, t, (2 * t + 1) * f.l)
        assert not res.exhausted, (f, t)
        assert res.value <= (2 * t + 1) * f.l


def test_report_rejects_bad_t(ex_q2_k4):
    with pytest.raises(ValueError):
        bound_report(ex_q2_k4, 0)
