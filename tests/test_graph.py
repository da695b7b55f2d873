"""Conflict graphs, encoder extraction, decoding, and structure checks."""

import random
import re

import pytest

import fcclib.fields
import fcclib.functions
import fcclib.graph

from fcclib import (
    CodeNotFoundError,
    DecodingFailureError,
    FccEncoder,
    FccGraph,
    ParityCode,
    build_fdm,
    build_graph,
    coset_decomposition,
    decode,
    extract_fcc,
    find_fcc_violation,
    independence_number,
    linear_function,
    n_q_exact,
    verify_block_circulant,
    verify_fcc,
)
from fcclib.cosets import _class_encoder
from fcclib.fields import _bitmask, differences, translate
from fcclib.graph import EXACT_ALPHA_LIMIT, _cayley_rows, _connection_set
from fcclib.formats import read_adjacency_file
from helpers import (
    all_words,
    brute_decode,
    brute_violation,
    rand_linear,
    rand_parity,
    rand_table,
    rows_from_lists,
    slow_adjacency,
    slow_block_circulant,
    slow_distance,
    slow_violation,
    words_at_distance,
)


def _witness_encoder(f, t):
    """Valid encoder giving each message the n_q_exact witness word of its
    class."""
    res = n_q_exact(build_fdm(f, t), f.q)
    words = res.witness.words
    return FccEncoder(
        f=f, t=t, r=res.n, parity=tuple(words[c] for c in coset_decomposition(f).class_of)
    )


def _corrupt(E, rank, position, shift):
    """E with one parity symbol of message ``rank`` moved by ``shift``."""
    parity = list(E.parity)
    word = list(parity[rank])
    word[position] = (word[position] + shift) % E.q
    parity[rank] = tuple(word)
    return FccEncoder(f=E.f, t=E.t, r=E.r, parity=tuple(parity))


def _good_encoder(f, t):
    """Encoder at the least redundancy achievable with class-constant parity."""
    r = n_q_exact(build_fdm(f, t), f.q).n
    return extract_fcc(build_graph(f, t, r), f, t)


def test_binary_golden_adjacency(ex_q2_k3, golden_dir):
    G = build_graph(ex_q2_k3, 1, 1)
    dense = read_adjacency_file(golden_dir / "adj_q2_k3_l2_t1_r1.txt")
    assert list(G.rows) == rows_from_lists(dense)


def test_ternary_golden_adjacency(ex_q3_k2, golden_dir):
    G = build_graph(ex_q3_k2, 1, 0)
    dense = read_adjacency_file(golden_dir / "adj_q3_k2_l1_t1_r0.txt")
    assert list(G.rows) == rows_from_lists(dense)


def test_adjacency_matches_definition_oracle():
    rng = random.Random(20260818)
    for _ in range(30):
        q = rng.choice([2, 3, 5])
        k = rng.randrange(1, 4)
        r = rng.randrange(0, 3)
        if q ** (k + r) > 256:
            continue
        if rng.random() < 0.5:
            f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
            t = rng.randrange(1, 3)
        else:
            f = rand_table(rng, q, k, rng.randrange(1, q**k + 1))
            t = rng.randrange(1, 4)
        G = build_graph(f, t, r)
        assert list(G.rows) == rows_from_lists(slow_adjacency(f, t, r))


def test_graph_accessors(ex_q2_k3):
    G = build_graph(ex_q2_k3, 1, 1)
    dense = slow_adjacency(ex_q2_k3, 1, 1)
    assert G.n_vertices == 16
    assert G.edge_count() == sum(map(sum, dense)) // 2
    for i in range(16):
        assert G.degree(i) == sum(dense[i])
        for j in range(16):
            assert G.has_edge(i, j) == bool(dense[i][j])
    # same-message vertices always conflict
    assert G.has_edge(0, 1)


def test_graph_validation(monkeypatch, ex_q2_k3):
    with pytest.raises(ValueError):
        build_graph(ex_q2_k3, 0, 1)
    with pytest.raises(ValueError):
        build_graph(ex_q2_k3, 1, -1)
    monkeypatch.setattr(fcclib.graph, "GRAPH_VERTEX_LIMIT", 16)
    with pytest.raises(ValueError):
        build_graph(ex_q2_k3, 1, 2)
    with pytest.raises(ValueError):
        FccGraph(q=2, k=3, r=1, t=1, rows=(0,) * 5)
    with pytest.raises(ValueError):
        FccGraph(q=2, k=1, r=0, t=1, rows=(1, 0))  # self-loop


def test_block_circulant_holds_for_linear_functions(ex_q2_k3, ex_q3_k2):
    assert verify_block_circulant(build_graph(ex_q2_k3, 1, 1), ex_q2_k3)
    assert verify_block_circulant(build_graph(ex_q3_k2, 1, 0), ex_q3_k2)
    with pytest.raises(ValueError, match="disagree on the field size"):
        verify_block_circulant(build_graph(ex_q2_k3, 1, 1), ex_q3_k2)
    rng = random.Random(101)
    for _ in range(15):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        r = rng.randrange(0, 3)
        if q ** (k + r) > 256:
            continue
        t = rng.randrange(1, 3)
        report = verify_block_circulant(build_graph(f, t, r), f)
        assert report.holds and report.violation is None


def test_block_circulant_matches_naive_check():
    # linear graphs hold; table graphs and graphs with one edge flipped
    # mostly fail, and the report must name the same first violation
    rng = random.Random(606)
    checked = failed = 0
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        k = rng.randrange(1, {2: 4, 3: 3, 5: 2}[q] + 1)
        r = rng.randrange(0, 3)
        if q ** (k + r) > 125:
            r = 0
        t = rng.randrange(1, 3)
        if rng.random() < 0.5:
            f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        else:
            f = rand_table(rng, q, k, rng.randrange(1, min(q**k, 4) + 1))
        G = build_graph(f, t, r)
        graphs = [G]
        if G.n_vertices > 2:
            a, b = rng.sample(range(G.n_vertices), 2)
            rows = list(G.rows)
            rows[a] ^= 1 << b
            rows[b] ^= 1 << a
            graphs.append(FccGraph(q=q, k=k, r=r, t=t, rows=tuple(rows)))
        for H in graphs:
            report = verify_block_circulant(H, f)
            assert report.violation == slow_block_circulant(H)
            assert report.holds == (report.violation is None)
            checked += 1
            failed += not report.holds
    assert 0 < failed < checked


def test_cayley_rows_equal_translates_row_by_row():
    rng = random.Random(707)
    for q, k_max in [(2, 4), (3, 3), (5, 2)]:
        for r in (0, 1, 2):
            k = min(k_max, 6 - r) if q == 2 else max(1, k_max - r)
            t = rng.randrange(1, 3)
            f = rand_linear(rng, q, k, rng.randrange(1, k + 1))
            n_vertices = q ** (k + r)
            # linear f: the connection set; table f: the radius-2t ball
            for diffs in (_connection_set(f, t, r), differences(q, k + r, 1, 2 * t)):
                rows = _cayley_rows(q, n_vertices, diffs)
                assert rows == [
                    _bitmask(translate(q, i, diffs), n_vertices)
                    for i in range(n_vertices)
                ]


def _decrement_digit(word, q, position):
    out = list(word)
    out[position] = (out[position] - 1) % q
    return tuple(out)


def test_block_circulant_violation_pinpoints_real_asymmetry(or_q2_k2):
    G = build_graph(or_q2_k2, 1, 1)
    report = verify_block_circulant(G, or_q2_k2)
    assert not report
    position, i, j = report.violation
    words = all_words(2, 3)
    rank = {w: idx for idx, w in enumerate(words)}
    i_prev = rank[_decrement_digit(words[i], 2, position)]
    j_prev = rank[_decrement_digit(words[j], 2, position)]
    assert G.has_edge(i, j) != G.has_edge(i_prev, j_prev)


def test_build_graph_refuses_negative_r_and_reads_the_vertex_cap(monkeypatch, ex_q2_k3):
    for r in (-1, -4):
        with pytest.raises(ValueError, match="^r must be >= 0$"):
            build_graph(ex_q2_k3, 1, r)
    # the vertex cap is read at call time, word for word
    monkeypatch.setattr(fcclib.graph, "GRAPH_VERTEX_LIMIT", 16)
    assert build_graph(ex_q2_k3, 1, 1).n_vertices == 16
    with pytest.raises(ValueError, match="^graph would have 32 vertices; limit is 16$"):
        build_graph(ex_q2_k3, 1, 2)


def test_alpha_is_at_most_q_to_the_r_times_parity_free_alpha():
    rng = random.Random(55)
    for _ in range(20):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 3)
        r = rng.randrange(0, 3)
        if q ** (k + r) > 128:
            continue
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        t = rng.randrange(1, 3)
        alpha = independence_number(build_graph(f, t, r)).size
        alpha0 = independence_number(build_graph(f, t, 0)).size
        assert alpha <= q**r * alpha0


def test_extraction_fails_when_no_code_exists(ex_q2_k3):
    with pytest.raises(CodeNotFoundError):
        extract_fcc(build_graph(ex_q2_k3, 1, 1), ex_q2_k3, 1)


def test_extraction_refuses_a_set_that_repeats_a_message():
    # an edgeless graph on q^(k+r) = 4 vertices: the independent set holds
    # both parity words of message 0
    G = FccGraph(q=2, k=1, r=1, t=1, rows=(0, 0, 0, 0))
    f = linear_function(2, [(1,)])
    with pytest.raises(CodeNotFoundError, match="repeats a message value"):
        extract_fcc(G, f, 1)


def test_extraction_parameter_mismatch(ex_q2_k3, ex_q3_k2):
    G = build_graph(ex_q2_k3, 1, 1)
    with pytest.raises(ValueError):
        extract_fcc(G, ex_q2_k3, 2)
    with pytest.raises(ValueError):
        extract_fcc(G, ex_q3_k2, 1)


def test_extracted_encoder_is_complete_and_valid(ex_q2_k3, ex_q3_k2):
    for f, t in [(ex_q2_k3, 1), (ex_q3_k2, 1)]:
        E = _good_encoder(f, t)
        assert len(E.parity) == f.q**f.k
        assert verify_fcc(E)
        assert find_fcc_violation(E) is None
        for u in all_words(f.q, f.k):
            word = E.encode(u)
            assert word[: f.k] == u and len(word) == f.k + E.r


def test_violation_reporting_on_broken_parity(ex_q2_k3):
    E = _good_encoder(ex_q2_k3, 1)
    flat = FccEncoder(
        f=E.f, t=E.t, r=E.r, parity=tuple((0,) * E.r for _ in E.parity)
    )
    hit = find_fcc_violation(flat)
    assert hit is not None
    u, v, d = hit
    assert ex_q2_k3.eval(u) != ex_q2_k3.eval(v)
    assert d == slow_distance(flat.encode(u), flat.encode(v))
    assert d < 2 * E.t + 1
    assert not verify_fcc(flat)


def test_decode_round_trip_through_all_correctable_errors(ex_q2_k3, ex_q3_k2):
    for f, t in [(ex_q2_k3, 1), (ex_q3_k2, 1)]:
        E = _good_encoder(f, t)
        for u in all_words(f.q, f.k):
            word = E.encode(u)
            assert decode(E, word) == f.eval(u)
            for dist in range(1, t + 1):
                for y in words_at_distance(word, f.q, dist):
                    assert decode(E, y) == f.eval(u)


def test_decode_refuses_uncorrectable_words(ex_q2_k3):
    E = _good_encoder(ex_q2_k3, 1)
    codewords = [E.encode(u) for u in all_words(2, 3)]
    far = [
        y
        for y in all_words(2, 3 + E.r)
        if min(slow_distance(y, c) for c in codewords) > E.t
    ]
    assert far, "instance unexpectedly has a covering code; pick another"
    for y in far:
        with pytest.raises(DecodingFailureError):
            decode(E, y)


# (q, k, r, t): every field size, r = 0, and t >= k among them
ORACLE_SHAPES = [
    (2, 3, 0, 1), (2, 3, 2, 3), (2, 4, 3, 1), (2, 2, 4, 2),
    (3, 2, 0, 2), (3, 2, 2, 1), (3, 3, 1, 1), (3, 1, 2, 1),
    (5, 2, 0, 1), (5, 2, 1, 2), (5, 1, 2, 1), (5, 3, 1, 3),
    (7, 2, 2, 1), (11, 1, 3, 1), (11, 2, 1, 2),
]


def _oracle_encoders(seed):
    """Random (mostly invalid) parity tables over linear and table functions."""
    rng = random.Random(seed)
    for q, k, r, t in ORACLE_SHAPES:
        for linear in (True, False):
            if linear:
                f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
            else:
                f = rand_table(rng, q, k, rng.randrange(1, q**k + 1))
            yield rng, FccEncoder(f=f, t=t, r=r, parity=rand_parity(rng, q, k, r))


# (q, k, t) of the class encoders: every field size; q^k above 64 is
# checked against slow_violation alone
CLASS_SHAPES = [
    (2, 3, 1), (2, 4, 2), (2, 6, 1), (2, 7, 1),
    (3, 2, 1), (3, 3, 1), (3, 4, 1),
    (5, 2, 1), (5, 3, 1), (7, 2, 1),
]


def _class_encoders(seed):
    """Class encoders: each class of f gets one word.  Per f, the n_q_exact
    witness of its function-distance matrix (valid) and random words at
    r = 0..3 (mostly invalid); linear, table and constant f."""
    rng = random.Random(seed)
    for q, k, t in CLASS_SHAPES:
        l = rng.choice([l for l in range(1, k + 1) if q**l <= 16])
        for f in (
            rand_linear(rng, q, k, l),
            rand_table(rng, q, k, rng.randrange(2, 5)),
            rand_linear(rng, q, k, 0),
        ):
            m = len(coset_decomposition(f))
            yield rng, _class_encoder(f, t, n_q_exact(build_fdm(f, t), q).witness)
            for r in range(4):
                words = [[rng.randrange(q) for _ in range(r)] for _ in range(m)]
                code = ParityCode(q=q, r=r, words=tuple(map(tuple, words)))
                yield rng, _class_encoder(f, t, code)


def _received_words(rng, E):
    """Every word when there are at most 1,000, else 300 drawn at random
    and, for up to 40 random messages, the codeword with up to t symbol
    errors."""
    words = all_words(E.q, E.k + E.r)
    if len(words) <= 1000:
        return words
    out, messages = rng.sample(words, 300), all_words(E.q, E.k)
    for u in rng.sample(messages, min(40, len(messages))):
        y = list(E.encode(u))
        for p in rng.sample(range(len(y)), rng.randrange(E.t + 1)):
            y[p] = (y[p] + rng.randrange(1, E.q)) % E.q
        out.append(tuple(y))
    return out


def test_decode_matches_nearest_codeword_oracle():
    outcomes, class_path = set(), set()
    encoders = [*_oracle_encoders(31337), *_class_encoders(1618)]
    for rng, E in encoders:
        for y in _received_words(rng, E):
            want = brute_decode(E, y)
            if want is None:
                with pytest.raises(DecodingFailureError):
                    decode(E, y)
            else:
                assert decode(E, y) == want
            outcomes.add(want is None)
        class_path.add(E.f.mode == "linear" and E._class_view is not None)
    assert outcomes == {True, False}
    assert class_path == {True, False}


def test_decode_evaluates_no_message(monkeypatch):
    # The value comes off the class map held on the encoder: no message is
    # decoded to a vector or evaluated, on linear and table f alike.
    cases = []
    for rng, E in _oracle_encoders(8191):
        for y in rng.sample(all_words(E.q, E.k + E.r), 4):
            cases.append((E, y, brute_decode(E, y)))
    assert {want is None for _, _, want in cases} == {True, False}

    def refuse(*args):
        raise AssertionError("decode called eval or vector")

    monkeypatch.setattr(fcclib.functions.FunctionSpec, "eval", refuse)
    monkeypatch.setattr(fcclib.fields.VectorIndex, "vector", refuse)
    for E, y, want in cases:
        if want is None:
            with pytest.raises(DecodingFailureError):
                decode(E, y)
        else:
            assert decode(E, y) == want


def test_violation_matches_first_lexicographic_pair():
    found = set()
    for _, E in _oracle_encoders(2718):
        want = brute_violation(E)
        assert find_fcc_violation(E) == want
        found.add(want is None)
    assert found == {True, False}


# (q, k, t): every field size, k = 1, and 2t >= k among them
VALID_SHAPES = [
    (2, 1, 1), (2, 3, 2), (2, 4, 1), (2, 5, 1), (2, 4, 2),
    (3, 1, 1), (3, 2, 1), (3, 3, 1), (3, 2, 2),
    (5, 1, 2), (5, 2, 1),
]


def test_violation_matches_ball_walk_on_valid_and_corrupted_encoders():
    rng = random.Random(4242)
    late = zero_r = 0
    for q, k, t in VALID_SHAPES:
        for linear in (True, False):
            for _ in range(3):
                if linear:
                    l = rng.choice([l for l in range(min(k, 2) + 1) if q**l <= 9])
                    f = rand_linear(rng, q, k, l)
                else:
                    f = rand_table(rng, q, k, rng.randrange(1, min(q**k, 4) + 1))
                E = _witness_encoder(f, t)
                assert find_fcc_violation(E) is None
                zero_r += E.r == 0
                size = q**k
                # no parity at all breaks every non-constant f
                broken = [FccEncoder(f=f, t=t, r=0, parity=((),) * size)]
                if E.r:
                    broken += [
                        _corrupt(E, rank, rng.randrange(E.r), rng.randrange(1, q))
                        for rank in (rng.randrange(size), size - 1)
                    ]
                for bad in broken:
                    want = slow_violation(bad)
                    if size <= 64:
                        assert want == brute_violation(bad)
                    assert find_fcc_violation(bad) == want
                    late += want is not None and any(want[0])
    assert zero_r and late
    views = set()
    for _, E in _class_encoders(2024):
        want = slow_violation(E)
        if E.q**E.k <= 64:
            assert want == brute_violation(E)
        assert find_fcc_violation(E) == want
        views.add(E._class_view is not None)
    assert views == {True, False}


def test_violation_search_walks_no_message_pair(monkeypatch):
    calls = {"translate": 0, "hamming_distance": 0}
    for name in calls:

        def counted(*args, real=getattr(fcclib.graph, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(fcclib.graph, name, counted)
    E = _witness_encoder(linear_function(3, [(1, 0, 2, 1), (0, 1, 1, 2)]), 1)
    assert find_fcc_violation(E) is None
    assert calls == {"translate": 0, "hamming_distance": 0}
    bad = _corrupt(E, 40, 0, 1)
    assert find_fcc_violation(bad) == slow_violation(bad) is not None
    assert calls["translate"] == 1
    assert calls["hamming_distance"] <= len(differences(3, 4, 1, 2))


def test_class_encoder_is_verified_and_decoded_on_its_classes(monkeypatch):
    # k = 16, l = 3, t = 2: neither the bit-plane sweep nor the message
    # ball runs
    rng = random.Random(16)
    f = rand_linear(rng, 2, 16, 3)
    E = _class_encoder(f, 2, n_q_exact(build_fdm(f, 2), 2).witness)

    def refuse(*args):
        raise AssertionError("verification translated a bit plane")

    monkeypatch.setattr(fcclib.graph, "translate_mask", refuse)
    assert verify_fcc(E)
    for _ in range(20):
        u = tuple(rng.randrange(2) for _ in range(16))
        y = list(E.encode(u))
        for p in rng.sample(range(len(y)), rng.randrange(3)):
            y[p] ^= 1
        assert decode(E, tuple(y)) == f.eval(u)
    assert "_ball" not in E.__dict__


def test_large_image_keeps_the_sweep_and_builds_no_matrix(monkeypatch):
    # An injective f at k = 12 has m = 2^12 classes, so m^2 = 2^24 is above
    # q^k: the class test would pass (one message per class), but no view
    # is tried, so verifying and decoding build no 4096 x 4096 matrix
    k = 12
    f = linear_function(2, [[int(i == j) for j in range(k)] for i in range(k)])
    # parity u * P for k distinct rows of P of weight >= 2: distance 3
    checks = [v for v in range(32) if v.bit_count() >= 2][:k]
    parity = []
    for rank in range(2**k):
        s = 0
        for i in range(k):
            if rank >> (k - 1 - i) & 1:
                s ^= checks[i]
        parity.append(tuple(s >> (4 - b) & 1 for b in range(5)))
    E = FccEncoder(f=f, t=1, r=5, parity=tuple(parity))

    def refuse(*args):
        raise AssertionError("built the function-distance matrix")

    monkeypatch.setattr(fcclib.graph, "build_fdm", refuse)
    assert verify_fcc(E) and E._class_view is None
    zero = FccEncoder(f=f, t=1, r=0, parity=((),) * 2**k)
    assert find_fcc_violation(zero) == ((0,) * k, (0,) * (k - 1) + (1,), 1)
    rng = random.Random(12)
    for _ in range(10):
        u = tuple(rng.randrange(2) for _ in range(k))
        y = list(E.encode(u))
        y[rng.randrange(k + 5)] ^= 1
        assert decode(E, tuple(y)) == f.eval(u)
    assert "_ball" in E.__dict__


def test_class_view_is_tried_on_small_linear_images_or_set_when_checked():
    # binary, t = 1: k = 4, l = 2 has m^2 = 16 = q^k and gets the view;
    # k = 3, l = 2 (16 > 8) and a table f do not, and keep the sweep.
    # Words checked against a given matrix become the view of any f.
    rng = random.Random(7)
    small = linear_function(2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    large = linear_function(2, [(1, 0, 0), (0, 1, 0)])
    table = rand_table(rng, 2, 4, 3)
    for f, tried in ((small, True), (large, False), (table, False)):
        fdm = build_fdm(f, 1)
        code = n_q_exact(fdm, 2).witness
        E = _class_encoder(f, 1, code)
        assert (E._class_view is not None) == tried
        assert verify_fcc(E)
        checked = _class_encoder(f, 1, code, fdm)
        assert checked._class_view == (code.words, fdm)
        assert checked.parity == E.parity
        bad = ParityCode(q=2, r=code.r, words=((0,) * code.r,) * len(code))
        assert not verify_fcc(_class_encoder(f, 1, bad))
        with pytest.raises(CodeNotFoundError, match="function-distance"):
            _class_encoder(f, 1, bad, fdm)


def test_decode_input_validation(ex_q2_k3):
    E = _good_encoder(ex_q2_k3, 1)
    n = 3 + E.r
    for y in ((0,) * (n - 1), (0,) * (n + 1)):
        with pytest.raises(ValueError, match=f"^received word must have length {n}$"):
            decode(E, y)
    y = (0, 2, 0) + (0,) * E.r
    text = f"received word {y} has symbols outside F_2"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        decode(E, y)
    # q=3, k=3, r=2: the refusals come before any rank is formed from y
    f = linear_function(3, [(1, 2, 0), (0, 1, 1)])
    E = FccEncoder(f=f, t=1, r=2, parity=((0, 1),) * 27)
    for y in ((0,) * 4, (0,) * 6):
        with pytest.raises(ValueError, match=r"^received word must have length 5$"):
            decode(E, y)
    for y in ((0, 0, 0, 0, 3), (0, 0, 0, -1, 0)):
        text = f"received word {y} has symbols outside F_3"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            decode(E, y)


def test_encoder_validation(ex_q2_k3):
    with pytest.raises(ValueError):
        FccEncoder(f=ex_q2_k3, t=0, r=1, parity=((0,),) * 8)
    with pytest.raises(ValueError):
        FccEncoder(f=ex_q2_k3, t=1, r=-1, parity=((),) * 8)
    with pytest.raises(ValueError):
        FccEncoder(f=ex_q2_k3, t=1, r=1, parity=((0,),) * 7)
    with pytest.raises(ValueError):
        FccEncoder(f=ex_q2_k3, t=1, r=1, parity=((0, 0),) * 8)
    with pytest.raises(ValueError):
        FccEncoder(f=ex_q2_k3, t=1, r=1, parity=((2,),) * 8)


def test_encoder_size_refusal_prints_no_huge_power():
    wide = linear_function(2, [(1,) + (0,) * 19_999])
    with pytest.raises(ValueError) as info:
        FccEncoder(f=wide, t=1, r=0, parity=((),))
    assert str(info.value) == "expected 2^20000 parity words, got 1"


def test_exact_alpha_gate_and_decision_escape(ex_q2_k3):
    G = build_graph(ex_q2_k3, 1, 9)
    assert G.n_vertices > EXACT_ALPHA_LIMIT
    with pytest.raises(ValueError):
        independence_number(G)
    hit = independence_number(G, target=1)
    assert hit.size >= 1 and not hit.complete
