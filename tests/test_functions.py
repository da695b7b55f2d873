"""Function representation, coset decompositions, weight statistics, classification."""

import itertools
import random
import re
from collections import Counter

import pytest

from fcclib import (
    FccEncoder,
    FunctionSpec,
    VectorIndex,
    bound_report,
    build_drm,
    build_fdm,
    build_graph,
    classify,
    coset_decomposition,
    cosetwise_requirements,
    eigenvalue_redundancy_bound,
    fdm_upper_bound,
    function_distance,
    image_size,
    linear_function,
    optimality_check,
    plotkin_linear_bound,
    reduced_problem,
    spectrum_of,
    table_function,
    theorem1_bound,
    two_t_bound,
)
from fcclib.functions import (
    class_min_weights,
    count_min_weight_cosets,
    kernel_weight_distribution,
    kernel_weight_sum,
    min_weight_representatives,
)
from helpers import (
    all_words,
    rand_linear,
    rand_table,
    slow_coset_decomposition,
    slow_distance,
    slow_kernel_weights,
    slow_min_weight_representatives,
    slow_weight,
    subspace_selection_exists,
)


def test_eval_linear_known_values(ex_q2_k4):
    assert ex_q2_k4.eval((0, 0, 0, 0)) == (0, 0)
    assert ex_q2_k4.eval((0, 0, 1, 0)) == (1, 1)
    assert ex_q2_k4.eval((1, 1, 0, 0)) == (0, 1)


def test_eval_table_known_values(or_q2_k2):
    assert or_q2_k2.eval((1, 0)) == 1
    assert or_q2_k2.eval((0, 0)) == 0


def test_eval_matches_matrix_product():
    rng = random.Random(20260818)
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        k = rng.randrange(1, 5)
        l = rng.randrange(1, k + 1)
        f = rand_linear(rng, q, k, l)
        u = tuple(rng.randrange(q) for _ in range(k))
        expect = tuple(sum(c * s for c, s in zip(row, u)) % q for row in f.matrix)
        assert f.eval(u) == expect


def test_eval_rejects_wrong_length(ex_q2_k4):
    with pytest.raises(ValueError):
        ex_q2_k4.eval((0, 1))


def test_eval_rejects_symbols_outside_the_field(or_q2_k2):
    f = linear_function(2, [(1, 1, 0)])
    for u, bad in (((2, 0, 0), 2), ((0, -1, 0), -1)):
        with pytest.raises(ValueError, match=f"symbol {bad} out of range for F_2"):
            f.eval(u)
    with pytest.raises(ValueError, match="symbol 2 out of range for F_2"):
        or_q2_k2.eval((2, 0))


def test_spec_validation():
    with pytest.raises(ValueError):
        FunctionSpec(q=2, k=2, mode="linear", matrix=((1, 1), (1, 1)))  # rank < l
    with pytest.raises(ValueError):
        FunctionSpec(q=2, k=1, mode="linear", matrix=((1,), (1,)))  # l > k
    with pytest.raises(ValueError):
        FunctionSpec(q=2, k=2, mode="linear", matrix=((0, 2),))  # bad symbol
    with pytest.raises(ValueError):
        FunctionSpec(q=2, k=2, mode="table", table=(0, 1, 1))  # wrong length
    with pytest.raises(ValueError):
        FunctionSpec(q=2, k=2, mode="affine", matrix=((1, 0),))
    for mode, matrix, table, message in (
        ("linear", None, None, "linear mode requires a matrix and no table"),
        ("linear", ((1, 0),), (0, 1, 1, 0), "linear mode requires a matrix and no table"),
        ("linear", ((1, 0, 1),), None, "matrix row length 3 does not match k=2"),
        ("table", None, None, "table mode requires a table and no matrix"),
        ("table", ((1, 0),), (0, 1, 1, 0), "table mode requires a table and no matrix"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FunctionSpec(q=2, k=2, mode=mode, matrix=matrix, table=table)
    with pytest.raises(ValueError, match="defined for linear mode only"):
        table_function(2, 2, [0, 1, 1, 0]).l
    with pytest.raises(ValueError):
        linear_function(2, [])  # constant needs an explicit k
    assert linear_function(2, [], k=3).l == 0


def test_table_length_refusal_prints_no_huge_power():
    # 2^20000 has more digits than Python converts to a string by default.
    with pytest.raises(ValueError) as info:
        table_function(2, 20000, [0, 1])
    assert str(info.value) == "table length 2 != q^k = 2^20000"
    with pytest.raises(ValueError) as info:
        table_function(3, 2, range(10))
    assert str(info.value) == "table length 10 != q^k = 9"


def test_linear_function_rejects_unreduced_entries():
    for q, rows in [(2, [(2, 1, 0)]), (3, [(-1, 1)]), (5, [(1, 0), (0, 5)])]:
        with pytest.raises(ValueError):
            linear_function(q, rows)
    assert linear_function(3, [("2", 1)]).matrix == ((2, 1),)


def test_rand_linear_refuses_more_rows_than_columns():
    # every l x k draw with l > k fails the rank check, so a retry loop
    # would never end; the refusal comes before the first draw
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="l = 2 exceeds k = 1"):
        rand_linear(rng, 2, 1, 2)
    assert rng.getstate() == state
    assert rand_linear(rng, 2, 2, 2).l == 2


def test_image_size(ex_q2_k4, or_q2_k2, const_q2_k3):
    assert image_size(ex_q2_k4) == 4
    assert image_size(or_q2_k2) == 2
    assert image_size(const_q2_k3) == 1


def test_coset_decomposition_known_example(ex_q2_k4):
    dec = coset_decomposition(ex_q2_k4)
    assert dec.labels == ((0, 0), (1, 1), (1, 0), (0, 1))
    by_label = dict(zip(dec.labels, dec.classes))
    assert by_label[(0, 0)] == (0, 1, 6, 7)  # 0000 0001 0110 0111
    assert by_label[(1, 1)] == (2, 3, 4, 5)  # 0010 0011 0100 0101
    assert by_label[(0, 1)] == (10, 11, 12, 13)  # 1010 1011 1100 1101
    assert by_label[(1, 0)] == (8, 9, 14, 15)


def test_coset_decomposition_ternary_kernel(ex_q3_k3):
    dec = coset_decomposition(ex_q3_k3)
    idx = ex_q3_k3.index
    kernel = {idx.vector(r) for r in dec.classes[0]}
    assert kernel == {(0, 0, 0), (1, 2, 0), (2, 1, 0)}


def test_coset_decomposition_partitions_domain():
    rng = random.Random(5)
    cases = []
    for _ in range(20):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        cases.append(rand_linear(rng, q, k, rng.randrange(0, k + 1)))
        cases.append(rand_table(rng, q, k, rng.randrange(1, q**k + 1)))
    for f in cases:
        dec = coset_decomposition(f)
        seen = sorted(r for cls in dec.classes for r in cls)
        assert seen == list(range(f.q**f.k))
        for i, cls in enumerate(dec.classes):
            for r in cls:
                assert dec.class_of[r] == i
                assert f.eval(f.index.vector(r)) == dec.labels[i]
        # labels appear in first-appearance order over ascending ranks
        firsts = [min(cls) for cls in dec.classes]
        assert firsts == sorted(firsts)
        if f.mode == "linear":
            sizes = {len(cls) for cls in dec.classes}
            assert sizes == {f.q ** (f.k - f.l)}
        assert dec.index_of(dec.labels[-1]) == len(dec.labels) - 1
        with pytest.raises(ValueError):
            dec.index_of(object())


def test_coset_decomposition_matches_the_eval_loop():
    rng = random.Random(8)
    cases = [linear_function(q, [], k=k) for q in (2, 3, 5) for k in (1, 3)]
    for q, k_max in ((2, 10), (3, 6), (5, 4)):
        for k in range(1, k_max + 1):
            cases += [rand_linear(rng, q, k, l) for l in range(k + 1)]
            cases.append(rand_table(rng, q, k, rng.randrange(1, q**k + 1)))
            cases.append(table_function(q, k, [rng.randrange(-3, 4) for _ in range(q**k)]))
    for f in cases:
        dec = coset_decomposition(f)
        assert (dec.labels, dec.classes, dec.class_of) == slow_coset_decomposition(f)


def test_class_weight_readers_match_slow_references():
    rng = random.Random(9)
    for q, k_max in ((2, 8), (3, 5), (5, 3)):
        for k in range(1, k_max + 1):
            for l in range(k + 1):
                f = rand_linear(rng, q, k, l)
                assert kernel_weight_distribution(f) == slow_kernel_weights(f)
                reps = min_weight_representatives(f)
                assert reps == slow_min_weight_representatives(f)
                assert class_min_weights(f) == [slow_weight(v) for v in reps]


def test_class_readers_decode_no_message(monkeypatch):
    calls = Counter()

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in ((FunctionSpec, "eval"), (VectorIndex, "rank"), (VectorIndex, "vector")):
        counted(cls, name)
    rng = random.Random(10)
    for q, k in ((2, 8), (3, 5), (5, 3)):
        for l in range(k + 1):
            f = rand_linear(rng, q, k, l)
            coset_decomposition.cache_clear()
            dec = coset_decomposition(f)
            assert not calls
            coset_decomposition.cache_clear()
            kernel_weight_distribution(f)
            assert not calls
            coset_decomposition.cache_clear()
            min_weight_representatives(f)
            assert calls == {"vector": len(dec)}
            calls.clear()
        table = rand_table(rng, q, k, q)
        coset_decomposition.cache_clear()
        coset_decomposition(table)
        assert not calls


def test_bijection_gives_singleton_classes():
    f = linear_function(3, [(1, 0), (0, 1)])
    dec = coset_decomposition(f)
    assert all(len(cls) == 1 for cls in dec.classes)
    assert len(dec.labels) == 9


def test_kernel_weight_distribution_known(ex_q2_k4, ex_q3_k3):
    assert kernel_weight_distribution(ex_q2_k4) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert kernel_weight_distribution(ex_q3_k3) == {0: 1, 2: 2}
    identity = linear_function(2, [(1, 0), (0, 1)])
    assert kernel_weight_distribution(identity) == {0: 1}
    assert kernel_weight_sum(ex_q2_k4) == 6
    assert kernel_weight_sum(ex_q3_k3) == 4
    assert kernel_weight_sum(identity) == 0


def test_kernel_stats_reject_table_mode(or_q2_k2):
    with pytest.raises(ValueError):
        kernel_weight_distribution(or_q2_k2)
    with pytest.raises(ValueError):
        kernel_weight_sum(or_q2_k2)


def test_kernel_distribution_sums_to_class_size():
    rng = random.Random(17)
    for _ in range(30):
        q = rng.choice([2, 3, 5])
        k = rng.randrange(1, 4)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        dist = kernel_weight_distribution(f)
        assert sum(dist.values()) == q ** (k - f.l)
        assert dist[0] == 1
        assert kernel_weight_sum(f) == sum(w * c for w, c in dist.items())


def test_function_distance_known_values(ex_q2_k4):
    assert function_distance(ex_q2_k4, (0, 0), (1, 1)) == 1
    assert function_distance(ex_q2_k4, (0, 0), (0, 1)) == 2
    assert function_distance(ex_q2_k4, (1, 0), (1, 0)) == 0
    with pytest.raises(ValueError):
        function_distance(ex_q2_k4, (0, 0), (2, 0))


def test_function_distance_matches_cross_class_minimum():
    rng = random.Random(23)
    for _ in range(25):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        if rng.random() < 0.5:
            f = rand_linear(rng, q, k, rng.randrange(1, k + 1))
        else:
            f = rand_table(rng, q, k, rng.randrange(2, q**k + 1))
        words = all_words(q, k)
        vals = [f.eval(u) for u in words]
        labels = list(dict.fromkeys(vals))
        for a, b in itertools.combinations(labels, 2):
            direct = min(
                slow_distance(u, v)
                for u, uv in zip(words, vals)
                if uv == a
                for v, vv in zip(words, vals)
                if vv == b
            )
            assert function_distance(f, a, b) == direct
            assert function_distance(f, b, a) == direct


def test_min_weight_representatives_known(ex_q2_k4, ex_q3_k3):
    reps = min_weight_representatives(ex_q2_k4)
    assert sorted(slow_weight(v) for v in reps) == [0, 1, 1, 2]
    assert reps[0] == (0, 0, 0, 0)
    assert reps[1] == (0, 0, 1, 0)  # rank 2 beats rank 4 at weight 1
    assert sorted(slow_weight(v) for v in min_weight_representatives(ex_q3_k3)) == [
        0, 1, 1, 1, 1, 2, 2, 2, 2,
    ]
    identity = linear_function(2, [(1, 0), (0, 1)])
    assert sorted(min_weight_representatives(identity)) == all_words(2, 2)


def test_representatives_are_minimal_in_their_class():
    rng = random.Random(29)
    for _ in range(25):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        dec = coset_decomposition(f)
        reps = min_weight_representatives(f)
        assert class_min_weights(f) == [slow_weight(v) for v in reps]
        for rep, cls in zip(reps, dec.classes):
            members = [f.index.vector(r) for r in cls]
            assert rep in members
            assert slow_weight(rep) == min(slow_weight(m) for m in members)


def test_count_min_weight_cosets_known(ex_q2_k4, ex_q3_k3):
    assert count_min_weight_cosets(ex_q2_k4, 1) == 2
    assert count_min_weight_cosets(ex_q3_k3, 1) == 4
    identity = linear_function(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert count_min_weight_cosets(identity, 1) == 3
    with pytest.raises(ValueError):
        count_min_weight_cosets(ex_q2_k4, 0)
    with pytest.raises(ValueError):
        count_min_weight_cosets(ex_q2_k4, 5)


def test_unit_coset_count_at_least_rank():
    # every row-space dimension forces at least that many weight-1 classes
    rng = random.Random(31)
    for _ in range(40):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 5)
        f = rand_linear(rng, q, k, rng.randrange(1, k + 1))
        assert count_min_weight_cosets(f, 1) >= f.l


def test_subspace_selection_exists_iff_unit_count_is_l_binary():
    # At q=2 every weight-1 vector is a unit, and the biconditional holds
    # exhaustively (verified over all full-rank matrices with k <= 3).
    rng = random.Random(37)
    checked = 0
    while checked < 30:
        k = rng.randrange(1, 4)
        f = rand_linear(rng, 2, k, rng.randrange(1, k + 1))
        oracle = subspace_selection_exists(f)
        if oracle is None:
            continue
        assert oracle == (count_min_weight_cosets(f, 1) == f.l)
        checked += 1


def test_unit_column_census_implies_selection_exists():
    # the direction the coset-wise scheme relies on, for q = 2 and 3
    rng = random.Random(38)
    checked = 0
    while checked < 30:
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4 if q == 2 else 3)
        f = rand_linear(rng, q, k, rng.randrange(1, k + 1))
        if not classify(f).unit_basis_class:
            continue
        assert subspace_selection_exists(f) is True
        checked += 1


def test_ternary_scalar_columns_allow_selection_beyond_unit_count():
    # Over F_3, a matrix whose columns are non-trivial scalar multiples of one
    # another admits a subspace-forming selection (span{e_1} = {00,10,20}, all
    # minimum weight in their classes) even though two classes, not l = 1,
    # have weight-1 vectors.  The unit-count biconditional is binary-only.
    f = linear_function(3, [(1, 2)])
    assert subspace_selection_exists(f) is True
    assert count_min_weight_cosets(f, 1) == 2 != f.l
    assert not classify(f).unit_basis_class


def test_classify_known(ex_q2_k4, ex_q3_k3):
    c = classify(ex_q2_k4)
    assert c.distinct_nonzero_columns == 2
    assert c.unit_basis_class
    assert classify(ex_q3_k3).unit_basis_class
    identity = linear_function(2, [(1, 0), (0, 1)])
    ci = classify(identity)
    assert ci.unit_basis_class
    assert not ci.unit_distance_class  # q^l - 1 = 3 > k = 2
    # all non-zero values present among the columns
    c2 = classify(linear_function(2, [(1, 1)]))
    assert c2.unit_distance_class and c2.unit_basis_class
    c3 = classify(linear_function(2, [(1, 1, 1), (0, 1, 1)]))
    assert c3.distinct_nonzero_columns == 2
    assert c3.unit_basis_class
    assert not c3.unit_distance_class  # column 01 never appears


def test_classify_column_census_oracle():
    rng = random.Random(41)
    for _ in range(40):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 5)
        f = rand_linear(rng, q, k, rng.randrange(1, k + 1))
        cols = {
            tuple(row[j] for row in f.matrix)
            for j in range(k)
        }
        nonzero = {c for c in cols if any(c)}
        census = classify(f)
        assert census.distinct_nonzero_columns == len(nonzero)
        assert census.unit_basis_class == (len(nonzero) == f.l)
        assert census.unit_distance_class == (
            k >= q**f.l - 1 and len(nonzero) >= q**f.l - 1
        )


def test_class_internal_distances_match_kernel():
    # every class looks like the kernel from the inside
    rng = random.Random(43)
    for _ in range(20):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        dec = coset_decomposition(f)
        idx = f.index
        kernel = [idx.vector(r) for r in dec.classes[0]]
        kernel_profile = Counter(
            slow_distance(a, b) for a, b in itertools.combinations(kernel, 2)
        )
        for cls in dec.classes:
            members = [idx.vector(r) for r in cls]
            profile = Counter(
                slow_distance(a, b) for a, b in itertools.combinations(members, 2)
            )
            assert profile == kernel_profile


def test_function_distance_multiset_equals_class_min_weights():
    rng = random.Random(47)
    for _ in range(25):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        f = rand_linear(rng, q, k, rng.randrange(1, k + 1))
        dec = coset_decomposition(f)
        dists = sorted(function_distance(f, lab, dec.labels[0]) for lab in dec.labels)
        assert dists == sorted(class_min_weights(f))


def _apply_row_op(rng, f):
    """A random elementary row operation on f's matrix (rank preserved)."""
    q = f.q
    rows = [list(r) for r in f.matrix]
    op = rng.randrange(3) if len(rows) > 1 else rng.randrange(2)
    if op == 0:  # scale a row by a non-zero constant
        i = rng.randrange(len(rows))
        c = rng.randrange(1, q)
        rows[i] = [(c * s) % q for s in rows[i]]
    elif op == 1 and len(rows) > 1:  # add a multiple of another row
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.randrange(1, q)
        rows[i] = [(a + c * b) % q for a, b in zip(rows[i], rows[j])]
    else:  # swap two rows (or rescale when l = 1)
        if len(rows) > 1:
            i, j = rng.sample(range(len(rows)), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.randrange(1, q)
            rows[0] = [(c * s) % q for s in rows[0]]
    return linear_function(q, rows)


def test_row_operations_leave_requirement_matrices_unchanged():
    rng = random.Random(53)
    for _ in range(20):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        f = rand_linear(rng, q, k, rng.randrange(1, k + 1))
        g = _apply_row_op(rng, f)
        t = rng.randrange(1, 3)
        assert build_drm(f, t).to_lists() == build_drm(g, t).to_lists()
        assert build_fdm(f, t).to_lists() == build_fdm(g, t).to_lists()


def test_column_permutation_relabels_requirement_matrices():
    rng = random.Random(59)
    for _ in range(20):
        q = rng.choice([2, 3])
        k = rng.randrange(2, 4)
        f = rand_linear(rng, q, k, rng.randrange(1, k + 1))
        perm = list(range(k))
        rng.shuffle(perm)
        g = linear_function(q, [tuple(row[p] for p in perm) for row in f.matrix])
        t = rng.randrange(1, 3)
        # the induced permutation of message ranks conjugates the pairwise matrix
        idx = f.index
        total = q**k
        pi = [
            idx.rank(tuple(idx.vector(i)[p] for p in perm)) for i in range(total)
        ]
        drm_f = build_drm(f, t)
        drm_g = build_drm(g, t)
        for i in range(total):
            for j in range(total):
                assert drm_g[i][j] == drm_f[pi[i]][pi[j]]
        # class-level requirements depend only on the image value pair
        fdm_f = build_fdm(f, t)
        fdm_g = build_fdm(g, t)
        pos_f = {lab: i for i, lab in enumerate(fdm_f.labels)}
        for a, lab_a in enumerate(fdm_g.labels):
            for b, lab_b in enumerate(fdm_g.labels):
                assert fdm_g[a][b] == fdm_f[pos_f[lab_a]][pos_f[lab_b]]


# Every public entry point that takes the error weight t, called on a linear f
# that reaches the t check before any other.
T_ENTRY_POINTS = {
    "build_drm": lambda f, t: build_drm(f, t),
    "build_fdm": lambda f, t: build_fdm(f, t),
    "fdm_upper_bound": lambda f, t: fdm_upper_bound(f, t),
    "build_graph": lambda f, t: build_graph(f, t, 0),
    "spectrum_of": lambda f, t: spectrum_of(f, t, 0),
    "eigenvalue_redundancy_bound": lambda f, t: eigenvalue_redundancy_bound(f, t, 2),
    "theorem1_bound": lambda f, t: theorem1_bound(f, t, 1),
    "two_t_bound": lambda f, t: two_t_bound(f, t),
    "plotkin_linear_bound": lambda f, t: plotkin_linear_bound(f, t),
    "optimality_check": lambda f, t: optimality_check(f, t),
    "bound_report": lambda f, t: bound_report(f, t),
    "reduced_problem": lambda f, t: reduced_problem(f, t),
    "cosetwise_requirements": lambda f, t: cosetwise_requirements(f, t),
    "FccEncoder": lambda f, t: FccEncoder(f=f, t=t, r=0, parity=((),) * 16),
}


@pytest.mark.parametrize("t", [0, 128])
@pytest.mark.parametrize("entry", sorted(T_ENTRY_POINTS))
def test_every_entry_point_refuses_t_outside_range_alike(ex_q2_k4, entry, t):
    with pytest.raises(ValueError) as exc:
        T_ENTRY_POINTS[entry](ex_q2_k4, t)
    assert str(exc.value) == f"error weight t must lie in [1, 127], got {t}"
