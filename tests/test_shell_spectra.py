"""The message-shell spectra behind the eigenvalue bound, against an oracle
that sums characters directly."""

import random

import fcclib.spectrum
from fcclib import linear_function
from fcclib.spectrum import _shell_transform
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
