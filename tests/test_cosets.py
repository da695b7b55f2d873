"""Coset-wise encoders: representative selection, reduction, decoding."""

import itertools
import random

import pytest

import fcclib.cosets
from fcclib import (
    CodeNotFoundError,
    DecodingFailureError,
    FccEncoder,
    ParityCode,
    build_cosetwise_encoder,
    build_fdm,
    coset_decomposition,
    cosetwise_requirements,
    decode,
    linear_function,
    reduced_problem,
    select_subspace_representatives,
    table_function,
    verify_fcc,
)
from fcclib.formats import read_parity_file
from fcclib.functions import classify
from helpers import (
    all_words,
    brute_decode,
    clip,
    rand_linear,
    slow_distance,
    slow_weight,
    words_at_distance,
)


def _unit_basis_cases(rng, count):
    cases = []
    while len(cases) < count:
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        if classify(f).unit_basis_class:
            cases.append(f)
    return cases


def test_ternary_selection_matches_worked_example(ex_q3_k3):
    sel = select_subspace_representatives(ex_q3_k3)
    assert sel.unit_positions == (1, 2)
    want = {
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 0, 2), (0, 2, 0),
        (0, 1, 1), (0, 2, 2), (0, 1, 2), (0, 2, 1),
    }
    assert set(sel.members) == want
    assert sel.truncated == tuple(all_words(3, 2))
    assert len(set(sel.class_indices)) == 9


def test_binary_selection_spans_first_and_third_units(ex_q2_k4):
    sel = select_subspace_representatives(ex_q2_k4)
    assert sel.unit_positions == (0, 2)
    assert set(sel.members) == {
        (0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (1, 0, 1, 0)
    }


def test_selection_requires_unit_basis_class():
    with pytest.raises(ValueError):
        select_subspace_representatives(linear_function(3, [(1, 2)]))
    with pytest.raises(ValueError):
        select_subspace_representatives(table_function(2, 2, [0, 1, 1, 1]))


def test_selection_invariants():
    rng = random.Random(20260818)
    for f in _unit_basis_cases(rng, 25):
        sel = select_subspace_representatives(f)
        q, k, l = f.q, f.k, f.l
        members = set(sel.members)
        assert len(members) == q**l
        assert sel.members[0] == (0,) * k
        # closed under addition: the selection is a subspace
        for x in sel.members:
            for y in sel.members:
                assert tuple((a + b) % q for a, b in zip(x, y)) in members
        # truncations enumerate F_q^l in canonical order
        assert sel.truncated == tuple(all_words(q, l))
        for m, tr in zip(sel.members, sel.truncated):
            assert tuple(m[p] for p in sel.unit_positions) == tr
        # one member per coset, each of minimum weight there
        dec = coset_decomposition(f)
        assert sorted(sel.class_indices) == list(range(q**l))
        idx = f.index
        for m, ci in zip(sel.members, sel.class_indices):
            class_weights = [
                slow_weight(idx.vector(rank)) for rank in dec.classes[ci]
            ]
            assert slow_weight(m) == min(class_weights)


def test_requirements_are_fdm_reindexed_by_representative(ex_q2_k4, ex_q3_k3):
    rng = random.Random(7)
    for f in [ex_q2_k4, ex_q3_k3] + _unit_basis_cases(rng, 10):
        t = rng.randrange(1, 3)
        sel = select_subspace_representatives(f)
        req = cosetwise_requirements(f, t)
        assert req.labels == sel.truncated
        words = all_words(f.q, f.k)
        vals = [f.eval(u) for u in words]
        rep_vals = [f.eval(m) for m in sel.members]
        for i in range(req.order):
            for j in range(req.order):
                if i == j:
                    assert req[i][j] == 0
                    continue
                d = min(
                    slow_distance(u, v)
                    for u, vu in zip(words, vals)
                    if vu == rep_vals[i]
                    for v, vv in zip(words, vals)
                    if vv == rep_vals[j]
                )
                assert req[i][j] == clip(2 * t + 1 - d)


def test_reduced_problem_example_and_gates():
    f = linear_function(2, [(1, 1, 1)])
    red = reduced_problem(f, 2)
    assert red.to_lists() == [[0, 4], [4, 0]]
    assert red.labels == ((0,), (1,))
    # agrees entry-for-entry with the full class matrix for this function
    assert red.to_lists() == build_fdm(f, 2).to_lists()

    with pytest.raises(ValueError):
        reduced_problem(f, 0)
    with pytest.raises(ValueError):
        reduced_problem(table_function(2, 2, [0, 1, 1, 1]), 1)
    with pytest.raises(ValueError):
        # k < q^l - 1: the all-units precondition cannot hold
        reduced_problem(linear_function(3, [(1, 0), (0, 1)]), 1)


def test_reduced_problem_matches_fdm_whenever_it_applies():
    rng = random.Random(9)
    checked = 0
    while checked < 10:
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        if not classify(f).unit_distance_class:
            continue
        t = rng.randrange(1, 3)
        red = reduced_problem(f, t)
        fdm = build_fdm(f, t)
        assert red.to_lists() == fdm.to_lists()
        assert red.labels == fdm.labels
        checked += 1


def test_reduced_problem_labels_come_from_a_basis_of_columns():
    # zero columns appended: k = 30 is past the enumeration limit, yet the
    # labels are those of the unpadded f, in first-appearance order
    rows = [(1, 0, 1), (0, 1, 1)]
    padded = linear_function(2, [row + (0,) * 27 for row in rows])
    red = reduced_problem(padded, 1)
    assert red.labels == ((0, 0), (1, 1), (0, 1), (1, 0))
    assert red.labels == build_fdm(linear_function(2, rows), 1).labels
    # and on f whose columns hold every non-zero value, shuffled among up to
    # 3 random columns, they are coset_decomposition's labels
    rng = random.Random(24)
    for _ in range(40):
        q, l = rng.choice([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
        columns = [c for c in itertools.product(range(q), repeat=l) if any(c)]
        for _ in range(rng.randrange(4)):
            columns.append(tuple(rng.randrange(q) for _ in range(l)))
        rng.shuffle(columns)
        f = linear_function(q, list(zip(*columns)))
        assert reduced_problem(f, 1).labels == coset_decomposition(f).labels, f


def test_shipped_binary_parity_builds_valid_encoder(ex_q2_k4, shipped_dir):
    code = read_parity_file(shipped_dir / "parity_5_4_3_q2.txt", q=2)
    E = build_cosetwise_encoder(ex_q2_k4, 1, code)
    assert E.r == 3
    assert verify_fcc(E)
    # every message inherits its coset representative's parity word
    sel = select_subspace_representatives(ex_q2_k4)
    dec = coset_decomposition(ex_q2_k4)
    for i, ci in enumerate(sel.class_indices):
        for rank in dec.classes[ci]:
            assert E.parity[rank] == code.words[i]


def test_encoder_selects_its_representatives_once(ex_q2_k4, shipped_dir, monkeypatch):
    code = read_parity_file(shipped_dir / "parity_5_4_3_q2.txt", q=2)
    calls = []
    real = fcclib.cosets.select_subspace_representatives
    monkeypatch.setattr(
        fcclib.cosets,
        "select_subspace_representatives",
        lambda f: calls.append(f) or real(f),
    )
    build_cosetwise_encoder(ex_q2_k4, 1, code)
    assert len(calls) == 1


def test_shipped_ternary_parity_builds_valid_encoder(ex_q3_k3, shipped_dir):
    code = read_parity_file(shipped_dir / "parity_4_9_3_q3.txt", q=3)
    E = build_cosetwise_encoder(ex_q3_k3, 1, code)
    assert E.r == 2
    assert verify_fcc(E)


def test_violating_parity_is_rejected(ex_q2_k4, shipped_dir):
    code = read_parity_file(shipped_dir / "parity_5_4_3_q2.txt", q=2)
    words = list(code.words)
    words[1] = words[0]  # duplicate word breaks every positive requirement
    with pytest.raises(CodeNotFoundError):
        build_cosetwise_encoder(ex_q2_k4, 1, ParityCode(q=2, r=3, words=tuple(words)))


def test_encoder_input_validation(ex_q2_k4):
    with pytest.raises(ValueError):
        build_cosetwise_encoder(ex_q2_k4, 1, ParityCode(q=3, r=1, words=((0,),) * 4))
    with pytest.raises(ValueError):
        build_cosetwise_encoder(ex_q2_k4, 1, ParityCode(q=2, r=1, words=((0,),) * 3))


def _decoded(E, y):
    try:
        return decode(E, y)
    except DecodingFailureError:
        return None


def test_decode_on_cosetwise_encoder_matches_nearest_codeword(ex_q2_k4, shipped_dir):
    code = read_parity_file(shipped_dir / "parity_5_4_3_q2.txt", q=2)
    E = build_cosetwise_encoder(ex_q2_k4, 1, code)
    for u in all_words(2, 4):
        word = E.encode(u)
        assert decode(E, word) == ex_q2_k4.eval(u)
        for dist in (1, 2):
            for y in words_at_distance(word, 2, dist):
                assert _decoded(E, y) == brute_decode(E, y)


def test_decode_with_message_dependent_parity_matches_nearest_codeword():
    f = linear_function(2, [(1, 1)])
    E = FccEncoder(
        f=f, t=1, r=3,
        parity=((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)),
    )
    assert verify_fcc(E)
    # parity differs inside the kernel class: not a coset-wise encoder
    assert E.parity[0] != E.parity[3] and f.eval((0, 0)) == f.eval((1, 1))
    for y in all_words(2, 5):
        assert _decoded(E, y) == brute_decode(E, y)


def test_constant_function_needs_no_parity(const_q2_k3):
    E = build_cosetwise_encoder(const_q2_k3, 1, ParityCode(q=2, r=0, words=((),)))
    assert E.r == 0
    assert verify_fcc(E)
    for u in all_words(2, 3):
        assert E.encode(u) == u
        assert decode(E, u) == ()
