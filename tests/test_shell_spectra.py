"""The message-shell spectra behind the eigenvalue bound, against an oracle
that sums characters directly."""

import random
from math import comb

import pytest

import fcclib.spectrum
from fcclib import linear_function
from fcclib.spectrum import _shell_transform, _transform
from helpers import rand_linear, slow_shell_spectra, slow_transform

# Largest k per q that keeps the oracle's q^k x q^k walk small.
K_MAX = {2: 7, 3: 4, 5: 3}


def test_shell_spectra_match_direct_character_sums():
    rng = random.Random(20261019)
    cases = [(linear_function(2, [], k=k), t) for k in (1, 2, 4) for t in (1, 2)]
    while len(cases) < 220:
        q = rng.choice(sorted(K_MAX))
        k = rng.randrange(1, K_MAX[q] + 1)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        cases.append((f, rng.randrange(1, 4)))
    seen = {"l=0": 0, "2t>=k": 0, "q^k power of two": 0}
    for f, t in cases:
        seen["l=0"] += f.l == 0
        seen["2t>=k"] += 2 * t >= f.k
        seen["q^k power of two"] += f.q == 2
        got = set(_shell_transform(f, t)[1].values())
        assert got == slow_shell_spectra(f, t), (f, t)
    assert min(seen.values()) >= 20, seen


def test_one_transform_per_call(monkeypatch):
    calls = []
    transform = fcclib.spectrum._transform

    def counted(values, q, width):
        calls.append(width)
        return transform(values, q, width)

    monkeypatch.setattr(fcclib.spectrum, "_transform", counted)
    f = linear_function(2, [(1, 1, 1, 0, 1), (0, 1, 1, 0, 0)])
    for t in (1, 2, 3):
        calls.clear()
        assert set(_shell_transform(f, t)[1].values()) == slow_shell_spectra(f, t)
        assert len(calls) == 1


def test_transform_matches_the_entrywise_oracle():
    # Widths whose q lanes fill 1, 2 and 3 words; a random set of entries
    # has every lane non-zero, with all coefficients summing below
    # 2^(width-1), where the oracle is exact.
    rng = random.Random(20261020)
    cases = 0
    for q in (2, 3, 5, 7):
        for words in (1, 2, 3):
            width = 64 * words // q
            assert 64 * (words - 1) < q * width <= 64 * words
            budget = (1 << width - 1) - 1
            n = 0
            while q**n <= 4096:
                size = q**n
                filled = min(size, budget // q)
                cap = budget // (filled * q)
                values = [0] * size
                for i in rng.sample(range(size), filled):
                    values[i] = sum(rng.randint(1, cap) << c * width for c in range(q))
                got = _transform(values, q, width)
                assert got == slow_transform(values, q, width), (q, width, n)
                assert all(type(v) is int for v in got)
                cases += 1
                n += 1
    assert cases == 3 * (13 + 8 + 6 + 5)
    with pytest.raises(ValueError, match="^row length 6 is not a power of 2$"):
        _transform([0] * 6, 2, 4)


def test_transform_refuses_entries_wider_than_its_lanes():
    # A packed entry past q*width bits would bleed into its neighbour.
    for values in ([0, 1 << 6], [-1, 0], [0, 0, 0, 1 << 9]):
        with pytest.raises(ValueError, match=r"q\*width = 6 bits"):
            _transform(values, 2, 3)
    assert _transform([(1 << 6) - 1, 0], 2, 3) == [63, 63]


def test_lanes_at_their_bounds():
    # l = k: every non-zero z crosses, so at a = 0 lane w counts all of
    # |S_w| = C(k, w)(q - 1)^w; l = 0: every shell is empty.  2t >= k keeps
    # every weight up to k.
    rng = random.Random(20261021)
    for q, k in ((2, 3), (2, 6), (2, 7), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)):
        for t in sorted({(k + 1) // 2, k}):
            for l in (0, k):
                f = rand_linear(rng, q, k, l)
                entries, shells = _shell_transform(f, t)
                assert set(shells.values()) == slow_shell_spectra(f, t), (f, t)
                full = [comb(k, w) * (q - 1) ** w if l else 0 for w in range(1, k + 1)]
                assert shells[entries[0]] == tuple(full), (f, t)
