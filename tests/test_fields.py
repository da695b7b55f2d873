"""The prime check, canonical vector ranking, and Hamming metrics."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcclib import VectorIndex, hamming_ball_size, hamming_distance
from fcclib.fields import (
    _bitmask,
    differences,
    increment,
    increment_masks,
    is_prime,
    matrix_rank,
    negated_difference,
    translate,
    translate_mask,
    translate_ranks,
    weights,
)
from helpers import all_words, slow_distance, slow_weight


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(-3, 60):
        assert is_prime(n) == (n in primes)


def test_prime_field_rejects_composites():
    for bad in (-1, 0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError, match=f"^field size must be prime, got {bad}$"):
            VectorIndex(bad, 1)


def test_vector_index_matches_lexicographic_enumeration():
    for q, n in [(2, 1), (2, 4), (3, 3), (5, 2)]:
        idx = VectorIndex(q, n)
        words = all_words(q, n)
        assert len(idx) == q**n
        for i, w in enumerate(words):
            assert idx.vector(i) == w
            assert idx.rank(w) == i
        assert list(idx.all_vectors()) == words


@given(st.sampled_from([2, 3, 5]), st.data())
def test_rank_vector_round_trip(q, data):
    n = data.draw(st.integers(min_value=0, max_value=6))
    idx = VectorIndex(q, n)
    rank = data.draw(st.integers(min_value=0, max_value=q**n - 1))
    assert idx.rank(idx.vector(rank)) == rank
    vec = tuple(data.draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(n))
    assert idx.vector(idx.rank(vec)) == vec


def test_vector_index_validates_input():
    idx = VectorIndex(2, 3)
    with pytest.raises(ValueError):
        idx.rank((0, 1))
    with pytest.raises(ValueError):
        idx.rank((0, 1, 2))
    with pytest.raises(ValueError):
        idx.vector(8)
    with pytest.raises(ValueError):
        VectorIndex(4, 2)
    with pytest.raises(ValueError, match="vector length must be non-negative, got -1"):
        VectorIndex(2, -1)


def test_hamming_metrics_match_oracles():
    rng = random.Random(7)
    for q in (2, 3, 5, 11):
        for _ in range(60):
            n = rng.randrange(1, 9)
            x = tuple(rng.randrange(q) for _ in range(n))
            y = tuple(rng.randrange(q) for _ in range(n))
            assert hamming_distance(x, y) == slow_distance(x, y)
            assert type(hamming_distance(x, y)) is int
            assert hamming_distance(x, y) == hamming_distance(y, x)
            assert hamming_distance(x, x) == 0
    with pytest.raises(ValueError, match=r"^length mismatch: 2 vs 3$"):
        hamming_distance((0, 1), (0, 1, 0))


def test_hamming_distance_is_translation_invariant():
    rng = random.Random(11)
    for q in (2, 3, 7):
        for _ in range(50):
            n = rng.randrange(1, 7)
            x = tuple(rng.randrange(q) for _ in range(n))
            y = tuple(rng.randrange(q) for _ in range(n))
            diff = tuple((a - b) % q for a, b in zip(x, y))
            assert hamming_distance(x, y) == slow_weight(diff)


def test_weights_match_decoded_ranks():
    for q, n_max in ((2, 10), (3, 6), (5, 4), (7, 3)):
        for n in range(n_max + 1):
            idx = VectorIndex(q, n)
            table = weights(q, n)
            assert len(table) == len(idx)
            assert list(table) == [slow_weight(idx.vector(i)) for i in range(len(idx))]


def test_hamming_ball_size_matches_direct_count():
    for q, n in [(2, 4), (2, 6), (3, 3), (5, 2)]:
        words = all_words(q, n)
        for m in range(n + 3):
            direct = sum(1 for w in words if slow_weight(w) <= m)
            assert hamming_ball_size(q, n, m) == direct
    assert hamming_ball_size(2, 5, 0) == 1
    assert hamming_ball_size(2, 5, 99) == 32
    assert hamming_ball_size(3, 4, 1) == 1 + 4 * 2
    with pytest.raises(ValueError):
        hamming_ball_size(2, 4, -1)


def test_hamming_ball_size_closed_form_terms():
    # each radius adds C(n, i) * (q-1)^i shells
    for q, n in [(2, 8), (3, 5), (7, 3)]:
        for m in range(n + 1):
            expect = sum(comb(n, i) * (q - 1) ** i for i in range(m + 1))
            assert hamming_ball_size(q, n, m) == expect


def _span_size(q, rows):
    span = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        v = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) % q
            for j in range(len(rows[0]))
        )
        span.add(v)
    return len(span)


def test_matrix_rank_matches_span_size():
    rng = random.Random(13)
    for q in (2, 3):
        for _ in range(60):
            nrows = rng.randrange(1, 5)
            ncols = rng.randrange(1, 5)
            rows = [tuple(rng.randrange(q) for _ in range(ncols)) for _ in range(nrows)]
            rank = matrix_rank(q, rows)
            assert q**rank == _span_size(q, rows)
            assert rank <= min(nrows, ncols)


def test_matrix_rank_edge_cases():
    assert matrix_rank(2, []) == 0
    assert matrix_rank(2, [(0, 0, 0)]) == 0
    assert matrix_rank(3, [(1, 0), (0, 1)]) == 2
    # duplicating a row never raises the rank
    assert matrix_rank(2, [(1, 1, 0), (1, 1, 0)]) == 1


def test_differences_and_translate_match_symbolwise_addition():
    for q, n in [(2, 4), (3, 3), (5, 2)]:
        words = all_words(q, n)
        for lo, hi in [(0, n), (1, 2), (2, 2), (0, 0)]:
            diffs = differences(q, n, lo, hi)
            zs = [words[z] for z, _, _ in diffs]
            assert sorted(zs) == [w for w in words if lo <= slow_weight(w) <= hi]
            for (_, support, symbols), z in zip(diffs, zs):
                assert len(support) == len(symbols) == slow_weight(z)
            for i, u in enumerate(words):
                sums = [tuple((a + b) % q for a, b in zip(u, z)) for z in zs]
                assert translate(q, i, diffs) == [words.index(s) for s in sums]
            # the whole-list form, on a list that repeats ranks
            ranks = [*range(len(words)), *range(len(words) - 1, -1, -2), 0]
            for diff, z in zip(diffs, zs):
                sums = [tuple((a + b) % q for a, b in zip(words[i], z)) for i in ranks]
                assert translate_ranks(q, ranks, diff) == [words.index(s) for s in sums]


def test_negated_difference_subtracts_its_rank():
    for q, n in [(2, 4), (3, 3), (5, 2)]:
        words = all_words(q, n)
        diffs = differences(q, n, 0, n)
        by_rank = {z: (support, symbols) for z, support, symbols in diffs}
        for v, word in enumerate(words):
            z, support, symbols = negated_difference(q, n, v)
            assert words[z] == tuple(-s % q for s in word)
            assert (support, symbols) == by_rank[z]
            for i, u in enumerate(words):
                diff = tuple((a - b) % q for a, b in zip(u, word))
                assert translate(q, i, [(z, support, symbols)]) == [words.index(diff)]


def test_increment_adds_a_unit_vector_to_every_rank():
    rng = random.Random(808)
    for q, n in [(2, 5), (3, 3), (5, 2)]:
        words = all_words(q, n)
        size = len(words)
        for position in range(n):
            place = q ** (n - 1 - position)
            masks = increment_masks(q, size, place)
            assert masks[0] | masks[1] == (1 << size) - 1
            assert masks[0] & masks[1] == 0
            for _ in range(20):
                members = [i for i in range(size) if rng.random() < 0.3]
                moved = increment(q, sum(1 << i for i in members), place, masks)
                unit = tuple(int(p == position) for p in range(n))
                sums = [
                    tuple((a + b) % q for a, b in zip(words[i], unit)) for i in members
                ]
                assert moved == sum(1 << words.index(s) for s in sums)


def test_translate_mask_moves_every_rank_by_the_difference():
    rng = random.Random(909)
    for q, n in [(2, 5), (3, 3), (5, 2)]:
        size = q**n
        masks = {q**p: increment_masks(q, size, q**p) for p in range(n)}
        diffs = differences(q, n, 0, n)
        assert any(max(symbols, default=0) > 1 for _, _, symbols in diffs) == (q > 2)
        for z in diffs:
            assert translate_mask(q, 0, z, masks) == 0
            for _ in range(3):
                members = [i for i in range(size) if rng.random() < 0.3]
                moved = _bitmask((j for i in members for j in translate(q, i, [z])), size)
                assert translate_mask(q, _bitmask(members, size), z, masks) == moved
