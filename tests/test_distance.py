"""Requirement matrices, parity codes, and the exact minimum-length search."""

import itertools
import random
from fractions import Fraction
from time import monotonic

import pytest

from fcclib import (
    BudgetExceededError,
    DistanceMatrix,
    ParityCode,
    SizeLimitError,
    binary_plotkin_bound,
    build_drm,
    build_fdm,
    function_distance,
    hamming_distance,
    linear_function,
    matrix_from_lists,
    n_q_exact,
    table_function,
    verify_d_code,
)
from fcclib import distance
from fcclib.distance import DEFAULT_MAX_ORDER, PAIRWISE_MATRIX_LIMIT
from fcclib.formats import read_matrix_csv
from helpers import (
    all_words,
    rand_linear,
    rand_table,
    slow_distance,
    slow_drm,
    slow_fdm,
    slow_search_at_length,
)


def _rand_matrix(rng, m, max_entry=3):
    entries = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            entries[i][j] = entries[j][i] = rng.randrange(max_entry + 1)
    return matrix_from_lists(entries)


def _brute_min_length(D, q, n_max=6):
    """Smallest n admitting a code meeting D, by trying every assignment
    with the first word pinned to zero."""
    m = D.order
    for n in range(n_max + 1):
        words = all_words(q, n)
        for rest in itertools.product(words, repeat=m - 1):
            code = ((0,) * n,) + rest
            ok = all(
                slow_distance(code[i], code[j]) >= D[i][j]
                for i in range(m)
                for j in range(i + 1, m)
            )
            if ok:
                return n
    return None


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix_from_lists([[0, 1], [1, 0], [0, 0]])  # not square
    with pytest.raises(ValueError):
        matrix_from_lists([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        matrix_from_lists([[1, 0], [0, 0]])  # non-zero diagonal
    with pytest.raises(ValueError):
        matrix_from_lists([[0, 300], [300, 0]])  # entry out of byte range
    with pytest.raises(ValueError):
        DistanceMatrix(rows=(bytes([0, 1]), bytes([1, 0])), labels=("a",))
    # two asymmetric pairs: the message names the first in row-major order
    entries = [[0] * 4 for _ in range(4)]
    entries[1][3] = 2
    entries[2][0] = 1
    with pytest.raises(ValueError, match=r"^entries \(0,2\) and \(2,0\) differ$"):
        matrix_from_lists(entries)
    entries[2][0] = 0
    entries[1][2] = 1
    with pytest.raises(ValueError, match=r"^entries \(1,2\) and \(2,1\) differ$"):
        matrix_from_lists(entries)


def test_matrix_accessors():
    D = matrix_from_lists([[0, 2, 1], [2, 0, 0], [1, 0, 0]], labels=("x", "y", "z"))
    assert D.order == 3
    assert D.max_entry() == 2
    assert D[0][1] == 2
    assert D.to_lists() == [[0, 2, 1], [2, 0, 0], [1, 0, 0]]
    assert D.labels == ("x", "y", "z")
    assert matrix_from_lists(D.to_lists()).labels == (0, 1, 2)


def test_drm_matches_golden(ex_q2_k4, golden_dir):
    want = read_matrix_csv(golden_dir / "drm_q2_k4_l2_t2.csv")
    got = build_drm(ex_q2_k4, 2)
    assert got.to_lists() == want.to_lists()
    assert got.labels == tuple(all_words(2, 4))


def test_fdm_matches_goldens(ex_q2_k4, golden_dir):
    for t, name in [(1, "fdm_q2_k4_l2_t1.csv"), (2, "fdm_q2_k4_l2_t2.csv")]:
        want = read_matrix_csv(golden_dir / name)
        got = build_fdm(ex_q2_k4, t)
        assert got.to_lists() == want.to_lists()
        assert got.labels == ((0, 0), (1, 1), (1, 0), (0, 1))


def test_drm_matches_definition_oracle():
    rng = random.Random(20260818)
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        k = rng.randrange(1, 5)
        if rng.random() < 0.5:
            f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        else:
            f = rand_table(rng, q, k, rng.randrange(1, q**k + 1))
        t = rng.randrange(1, 3)
        assert build_drm(f, t).to_lists() == slow_drm(f, t)


def test_fdm_matches_definition_oracle():
    rng = random.Random(20260819)
    cases = []
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        k = rng.randrange(1, 5)
        if rng.random() < 0.5:
            f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        else:
            f = rand_table(rng, q, k, rng.randrange(1, q**k + 1))
        cases.append((f, rng.randrange(1, 4)))
    # Weight-valued labels keep some classes more than 2t apart, so their rows
    # never fill and the walk reaches its last weight shell.
    for q, k in ((2, 6), (3, 4)):
        weights = [sum(s != 0 for s in u) for u in all_words(q, k)]
        cases += [(table_function(q, k, weights), t) for t in (1, 2)]
    for f, t in cases:
        got = build_fdm(f, t)
        entries, labels = slow_fdm(f, t)
        assert got.to_lists() == entries
        assert tuple(got.labels) == tuple(labels)


def test_fdm_with_a_class_beyond_2t_matches_function_distance():
    # Class {0}, a class of the weights 1..2t and random classes on the rest:
    # {0} lies more than 2t from every random class, so its row never fills.
    rng = random.Random(20261018)
    for k, t in ((6, 1), (8, 2), (8, 3)):
        labels = []
        for u in all_words(2, k):
            w = sum(u)
            labels.append(0 if w == 0 else 1 if w <= 2 * t else rng.randrange(2, 6))
        f = table_function(2, k, labels)
        D = build_fdm(f, t)
        for a, la in enumerate(D.labels):
            for b, lb in enumerate(D.labels):
                gap = 0 if a == b else 2 * t + 1 - function_distance(f, la, lb)
                assert D[a][b] == max(gap, 0)
        assert D[0].count(0) == len(D.labels) - 1  # only class 1 is near {0}


def test_constant_function_matrices(const_q2_k3):
    assert build_drm(const_q2_k3, 2).to_lists() == [[0] * 8 for _ in range(8)]
    assert build_fdm(const_q2_k3, 1).to_lists() == [[0]]


def test_bijection_drm_is_pure_distance_gap():
    f = linear_function(2, [(1, 0), (0, 1)])
    words = all_words(2, 2)
    D = build_drm(f, 1)
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            expect = max(3 - slow_distance(u, v), 0) if i != j else 0
            assert D[i][j] == expect


def test_drm_entry_bounds_and_zero_blocks():
    rng = random.Random(3)
    for _ in range(20):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        l = rng.randrange(0, k + 1)
        f = rand_linear(rng, q, k, l)
        t = rng.randrange(1, 3)
        D = build_drm(f, t)
        vals = [f.eval(u) for u in all_words(q, k)]
        for i in range(D.order):
            for j in range(D.order):
                assert 0 <= D[i][j] <= 2 * t + 1
                if vals[i] == vals[j]:
                    assert D[i][j] == 0
        # every column keeps at least one zero per same-value member
        for j in range(D.order):
            zeros = sum(1 for i in range(D.order) if D[i][j] == 0)
            assert zeros >= q ** (k - l)


def test_linear_drm_and_fdm_columns_are_permutations():
    rng = random.Random(7)
    for _ in range(25):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        t = rng.randrange(1, 3)
        for D in (build_drm(f, t), build_fdm(f, t)):
            profiles = {tuple(sorted(D[i][j] for i in range(D.order))) for j in range(D.order)}
            assert len(profiles) == 1


def test_fdm_is_classwise_maximum_of_drm():
    rng = random.Random(11)
    for _ in range(25):
        q = rng.choice([2, 3, 5])
        k = rng.randrange(1, 4)
        if rng.random() < 0.5:
            f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        else:
            f = rand_table(rng, q, k, rng.randrange(1, q**k + 1))
        t = rng.randrange(1, 3)
        drm = build_drm(f, t)
        fdm = build_fdm(f, t)
        words = all_words(q, k)
        vals = [f.eval(u) for u in words]
        for a, lab_a in enumerate(fdm.labels):
            for b, lab_b in enumerate(fdm.labels):
                if a == b:
                    continue
                expect = max(
                    drm[i][j]
                    for i in range(len(words))
                    if vals[i] == lab_a
                    for j in range(len(words))
                    if vals[j] == lab_b
                )
                assert fdm[a][b] == expect


def test_size_limit_is_enforced():
    f = linear_function(2, [tuple(1 if i == j else 0 for j in range(13)) for i in range(13)])
    assert 2**13 > PAIRWISE_MATRIX_LIMIT
    with pytest.raises(ValueError):
        build_drm(f, 1)


def test_t_validation(ex_q2_k4):
    with pytest.raises(ValueError):
        build_drm(ex_q2_k4, 0)
    with pytest.raises(ValueError):
        build_fdm(ex_q2_k4, -1)


def test_parity_code_validation():
    with pytest.raises(ValueError):
        ParityCode(q=2, r=3, words=((0, 0, 0), (1, 1)))
    with pytest.raises(ValueError):
        ParityCode(q=2, r=2, words=((0, 2),))
    assert len(ParityCode(q=3, r=2, words=((0, 0), (1, 2)))) == 2


def test_verify_d_code_known_cases(ex_q2_k4):
    D = matrix_from_lists([[0, 3], [3, 0]])
    assert verify_d_code(ParityCode(q=2, r=3, words=((0, 0, 0), (1, 1, 1))), D)
    assert not verify_d_code(ParityCode(q=2, r=3, words=((0, 0, 0), (1, 1, 0))), D)
    # the shipped 3-bit parity set meets the t=1 class requirements
    fdm = build_fdm(ex_q2_k4, 1)
    words = ((0, 0, 0), (1, 1, 1), (1, 1, 0), (0, 0, 1))
    assert verify_d_code(ParityCode(q=2, r=3, words=words), fdm)
    with pytest.raises(ValueError):
        verify_d_code(ParityCode(q=2, r=1, words=((0,),)), D)


def test_n_q_exact_known_cases(ex_q2_k4):
    res = n_q_exact(matrix_from_lists([[0, 3], [3, 0]]), 2)
    assert res.found and res.n == 3
    assert res.witness.words == ((0, 0, 0), (1, 1, 1))

    res = n_q_exact(build_fdm(ex_q2_k4, 1), 2)
    assert res.found and res.n == 3

    res = n_q_exact(matrix_from_lists([[0, 0], [0, 0]]), 2)
    assert res.found and res.n == 0 and res.witness.words == ((), ())


def test_n_q_exact_respects_r_cap():
    res = n_q_exact(matrix_from_lists([[0, 3], [3, 0]]), 2, r_cap=2)
    assert not res.found
    assert res.n is None and res.witness is None and res.r_cap == 2


def test_n_q_exact_matches_brute_force():
    rng = random.Random(13)
    for _ in range(25):
        q = rng.choice([2, 3])
        m = rng.randrange(2, 5)
        D = _rand_matrix(rng, m)
        res = n_q_exact(D, q, r_cap=6)
        expect = _brute_min_length(D, q)
        assert res.found and res.n == expect
        assert verify_d_code(res.witness, D)
        assert res.witness.r == res.n
        # minimality: one length below has no code
        if res.n > 0:
            sub = n_q_exact(D, q, r_cap=res.n - 1)
            assert not sub.found


def _reference_scan(entries, q, r_cap, start=0):
    """First length from ``start`` up with a code, and that code, found by
    the tuple-form scan; None when r_cap is exhausted."""
    for r in range(start, r_cap + 1):
        words = slow_search_at_length(entries, q, r)
        if words is not None:
            return r, words
    return None


def test_n_q_exact_matches_tuple_form_scan():
    # the caps keep the reference's proofs of infeasibility short; about
    # half the draws end in found=False
    rng = random.Random(31)
    r_caps = {2: 5, 3: 3, 5: 2}
    for trial in range(120):
        q = rng.choice([2, 3, 5])
        m = rng.randint(1, 6)
        top = 0 if trial % 10 == 0 else 5
        entries = _rand_matrix(rng, m, max_entry=top).to_lists()
        res = n_q_exact(matrix_from_lists(entries), q, r_cap=r_caps[q])
        ref = _reference_scan(entries, q, r_caps[q])
        assert res.found == (ref is not None)
        if ref is not None:
            assert (res.n, res.witness.words) == ref


def test_n_q_exact_matches_tuple_form_scan_on_benchmark_matrices():
    projection = [[int(j == i) for j in range(10)] for i in range(4)]
    for matrix, build in [
        ([[1, 1, 1, 0], [1, 0, 1, 0]], build_drm),
        ([[1, 0, 0, 0], [0, 1, 1, 1]], build_drm),
        (projection[:3], build_fdm),
        (projection, build_fdm),
    ]:
        D = build(linear_function(2, matrix), 2)
        res = n_q_exact(D, 2)
        ref = _reference_scan(D.to_lists(), 2, res.r_cap, start=D.max_entry())
        assert res.found and (res.n, res.witness.words) == ref


def test_n_q_exact_closes_the_t3_drm_cells():
    # Without forward checking, r = 8 on these DRMs runs past 20-40 s; the
    # deadline turns a return to that into a failure instead of a stall.
    n = {}
    for name, matrix in [
        ("ex4", [[1, 1, 1, 0], [0, 1, 1, 0]]),
        ("ex4swap", [[1, 1, 1, 0], [1, 0, 1, 0]]),  # ex4 relabelled
        ("split4", [[1, 0, 0, 0], [0, 1, 1, 1]]),
    ]:
        D = build_drm(linear_function(2, matrix), 3)
        res = n_q_exact(D, 2, deadline=monotonic() + 30)
        assert res.found and res.witness.r == res.n
        words = res.witness.words
        for i, j in itertools.combinations(range(D.order), 2):
            assert hamming_distance(words[i], words[j]) >= D[i][j]
        n[name] = res.n
    assert n["ex4"] == n["ex4swap"] == n["split4"] == 9


def test_n_q_exact_matches_tuple_form_scan_at_orders_7_to_12():
    # Forward checking cuts subtrees in every one of these draws (about a
    # ninth of the plain search's nodes remain); entries of at most 2 keep
    # the reference's proofs of infeasibility, at r = 3 over 8 words, short.
    rng = random.Random(1)
    for _ in range(40):
        m, r_cap = rng.randint(7, 12), rng.choice((3, 4, 5))
        D = _rand_matrix(rng, m, max_entry=2)
        res = n_q_exact(D, 2, r_cap=r_cap)
        ref = _reference_scan(D.to_lists(), 2, r_cap, start=D.max_entry())
        assert res.found == (ref is not None)
        if ref is not None:
            assert (res.n, res.witness.words) == ref


def test_forward_checking_refutes_a_length_at_level_one(monkeypatch):
    # row 6 needs distance 3 from word 0 and from row 1's non-zero word,
    # which no word of length 3 has: every word of row 1 empties row 6's
    # domain, so the search enters rows 0 and 1 only, where a plain
    # row-by-row search would walk rows 2..5 (8^4 nodes per word of row 1)
    entries = [[0] * 7 for _ in range(7)]
    entries[0][1] = entries[1][0] = 1
    entries[0][6] = entries[6][0] = entries[1][6] = entries[6][1] = 3
    D = matrix_from_lists(entries)
    reads = []
    with monkeypatch.context() as patch:
        patch.setattr(distance, "monotonic", lambda: reads.append(0) or 0.0)
        res = n_q_exact(D, 2, r_cap=3, deadline=1.0)
    assert not res.found and len(reads) == 2
    res = n_q_exact(D, 2)
    assert (res.n, res.witness.words) == _reference_scan(entries, 2, 4)
    assert res.n == 4


def test_n_q_exact_needs_no_recursion_depth(monkeypatch):
    # one stack level per row, as in optimality_check and the MIS
    # (test_optimality_check_needs_no_recursion_depth and
    # test_edgeless_graph_deeper_than_the_recursion_limit)
    monkeypatch.setattr(distance, "DEFAULT_MAX_ORDER", 2_000)
    entries = [[0] * 1200 for _ in range(1200)]
    res = n_q_exact(matrix_from_lists(entries), 2)
    assert res.found and res.n == 0 and res.witness.words == ((),) * 1200
    entries[0][1199] = entries[1199][0] = 2
    res = n_q_exact(matrix_from_lists(entries), 2)
    assert res.found and res.n == 2
    assert res.witness.words == ((0, 0),) * 1199 + ((1, 1),)


def test_n_q_exact_monotone_under_entry_increase():
    rng = random.Random(17)
    for _ in range(20):
        q = rng.choice([2, 3])
        m = rng.randrange(2, 5)
        base = _rand_matrix(rng, m)
        lists = base.to_lists()
        i, j = rng.sample(range(m), 2)
        lists[i][j] += 1
        lists[j][i] += 1
        bumped = matrix_from_lists(lists)
        assert n_q_exact(bumped, q, r_cap=8).n >= n_q_exact(base, q, r_cap=8).n


def test_n_q_exact_refuses_large_matrices():
    D = matrix_from_lists([[0] * 21 for _ in range(21)])
    assert D.order > DEFAULT_MAX_ORDER
    with pytest.raises(BudgetExceededError):
        n_q_exact(D, 2)
    # q^r = 2^30 words at the first length: refused before any mask is built
    D = matrix_from_lists([[0, 30], [30, 0]])
    with pytest.raises(SizeLimitError, match="q\\^r = 1073741824 exceeds"):
        n_q_exact(D, 2, r_cap=30)


def test_n_q_exact_rejects_empty_matrix_and_composite_q():
    with pytest.raises(ValueError, match="empty"):
        n_q_exact(matrix_from_lists([]), 2)
    with pytest.raises(ValueError, match="prime"):
        n_q_exact(matrix_from_lists([[0, 0], [0, 0]]), 6)
    with pytest.raises(ValueError, match="length cap must be >= 0, got -1"):
        n_q_exact(matrix_from_lists([[0, 3], [3, 0]]), 2, r_cap=-1)


def test_n_q_exact_deadline_interrupts():
    # unsatisfiable-at-low-length requirements force a long scan; a deadline
    # already in the past must interrupt it almost immediately
    m = 8
    entries = [[0 if i == j else 4 for j in range(m)] for i in range(m)]
    D = matrix_from_lists(entries)
    with pytest.raises(BudgetExceededError):
        n_q_exact(D, 2, r_cap=12, deadline=monotonic() - 1.0)


def test_binary_plotkin_known_values():
    assert binary_plotkin_bound(matrix_from_lists([[0, 3], [3, 0]])) == Fraction(3)
    assert binary_plotkin_bound(matrix_from_lists([[0, 0], [0, 0]])) == Fraction(0)
    assert binary_plotkin_bound(matrix_from_lists([[0]])) == Fraction(0)
    odd = matrix_from_lists([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert binary_plotkin_bound(odd) == Fraction(4 * 3, 8)


def test_binary_plotkin_never_exceeds_exact_search():
    rng = random.Random(19)
    for _ in range(25):
        m = rng.randrange(2, 5)
        D = _rand_matrix(rng, m)
        res = n_q_exact(D, 2, r_cap=10)
        assert res.found
        assert binary_plotkin_bound(D) <= res.n
