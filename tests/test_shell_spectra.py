"""The message-shell spectra behind the eigenvalue bound, against an oracle
that sums characters directly."""

import random
from math import comb

import fcclib.spectrum
from fcclib import linear_function
from fcclib.spectrum import _shell_sums
from helpers import rand_linear, slow_shell_spectra

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
        got = set(_shell_sums(f, t)[2].values())
        assert got == slow_shell_spectra(f, t), (f, t)
    assert min(seen.values()) >= 20, seen


def test_one_transform_per_call(monkeypatch):
    # One span listing covers F_q^k once: the listed ranks total at most
    # q^k whatever t is.
    returned = []
    span_ranks = fcclib.spectrum.span_ranks

    def counted(q, n, vectors):
        out = span_ranks(q, n, vectors)
        returned.append(len(out))
        return out

    monkeypatch.setattr(fcclib.spectrum, "span_ranks", counted)
    f = linear_function(2, [(1, 1, 1, 0, 1), (0, 1, 1, 0, 0)])
    totals = set()
    for t in (1, 2, 3):
        returned.clear()
        assert set(_shell_sums(f, t)[2].values()) == slow_shell_spectra(f, t)
        totals.add(sum(returned))
    assert len(totals) == 1 and 0 < totals.pop() <= 2**5


def test_lanes_at_their_bounds():
    # l = k: every non-zero z crosses, so at a = 0 lane w counts all of
    # |S_w| = C(k, w)(q - 1)^w; l = 0: every shell is empty.  2t >= k keeps
    # every weight up to k.
    rng = random.Random(20261021)
    for q, k in ((2, 3), (2, 6), (2, 7), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)):
        for t in sorted({(k + 1) // 2, k}):
            for l in (0, k):
                f = rand_linear(rng, q, k, l)
                _, census, sums = _shell_sums(f, t)
                assert set(sums.values()) == slow_shell_spectra(f, t), (f, t)
                full = [comb(k, w) * (q - 1) ** w if l else 0 for w in range(1, k + 1)]
                assert sums[0, census[0]] == tuple(full), (f, t)
