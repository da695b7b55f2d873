"""Exact graph spectra via transforms, and the eigenvalue redundancy bound."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import fcclib.spectrum
from fcclib import (
    SpectralBoundResult,
    Spectrum,
    bound_report,
    build_graph,
    cvetkovic_alpha_bound,
    eigenvalue_redundancy_bound,
    independence_number,
    linear_function,
    spectrum_of,
)
from helpers import (
    connection_row,
    lists_from_rows,
    rand_linear,
    row_spectrum,
    slow_eigenvalue_bound,
)


def _numpy_eigenvalues(G):
    dense = np.array(lists_from_rows(G.rows, G.n_vertices), dtype=float)
    return np.linalg.eigvalsh(dense)


def _spectra_match(spectrum, reference, tol=1e-8):
    got = sorted(float(v) for v in spectrum.eigenvalues)
    want = sorted(float(v) for v in reference)
    return len(got) == len(want) and all(
        abs(a - b) <= tol for a, b in zip(got, want)
    )


def _rand_cases(rng, count):
    cases = []
    while len(cases) < count:
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        r = rng.randrange(0, 3)
        if q ** (k + r) > (64 if q == 2 else 27):
            continue
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        t = rng.randrange(1, 3)
        cases.append((f, t, r))
    return cases


def test_connection_row_is_first_adjacency_row(ex_q2_k3, ex_q3_k2):
    rng = random.Random(20260818)
    for f, t, r in [(ex_q2_k3, 1, 1), (ex_q3_k2, 1, 1)] + _rand_cases(rng, 10):
        G = build_graph(f, t, r)
        row = connection_row(f, t, r)
        assert row == [G.rows[0] >> x & 1 for x in range(G.n_vertices)]


def test_spectrum_matches_dense_eigensolver():
    rng = random.Random(1)
    for f, t, r in _rand_cases(rng, 25):
        G = build_graph(f, t, r)
        S = spectrum_of(f, t, r)
        assert _spectra_match(S, _numpy_eigenvalues(G))
        row = [G.rows[0] >> x & 1 for x in range(G.n_vertices)]
        assert row_spectrum(row, f.q) == S.eigenvalues


def test_spectrum_equals_whole_row_transform():
    # The shell formula against the transform of the built graph's row 0,
    # entry by entry in rank order, including l = 0 and 2t >= k.
    rng = random.Random(20261019)
    cases = [(linear_function(q, [], k=2), 1, 2) for q in (2, 3, 5, 7)]
    while len(cases) < 64:
        q = rng.choice([2, 3, 5, 7])
        k = rng.randrange(1, 5)
        r = rng.randrange(0, 5)
        if q ** (k + r) > 4096:
            continue
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        cases.append((f, rng.randrange(1, 4), r))
    assert {f.q for f, _, _ in cases} == {2, 3, 5, 7}
    assert any(f.l == 0 for f, _, _ in cases)
    assert any(2 * t >= f.k for f, t, _ in cases)
    assert max(r for _, _, r in cases) == 4
    for f, t, r in cases:
        G = build_graph(f, t, r)
        row = [G.rows[0] >> x & 1 for x in range(G.n_vertices)]
        S = spectrum_of(f, t, r)
        assert S.eigenvalues == row_spectrum(row, f.q), (f, t, r)
        assert all(type(v) is int for v in S.eigenvalues)


def test_spectrum_transforms_only_the_message_row(monkeypatch, ex_q2_k3, ex_q3_k2):
    # The ranks translated total at most q^k, the same at every t: no list
    # over the q^(k+r) vertices is built.
    lengths = []
    real = fcclib.spectrum.translate_ranks
    monkeypatch.setattr(
        fcclib.spectrum,
        "translate_ranks",
        lambda *a: lengths.append(len(out := real(*a))) or out,
    )
    for f, r in ((ex_q2_k3, 3), (ex_q3_k2, 2)):
        totals = set()
        for t in (1, 2, 3):
            lengths.clear()
            spectrum_of(f, t, r)
            assert lengths and f.q ** (f.k + r) not in lengths
            totals.add(sum(lengths))
        assert len(totals) == 1 and totals.pop() <= f.q**f.k


def test_spectrum_memory_is_not_per_row_entry():
    # 2^18 eigenvalues: the output tuple alone takes 2 MiB of pointers; a
    # whole-row transform held about 32 MiB of list entries at its peak.
    f = linear_function(2, [(1, 1, 0), (0, 1, 1)])
    tracemalloc.start()
    try:
        S = spectrum_of(f, 2, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.n_vertices == 2**18
    assert peak < 8 * 2**20


def test_spectra_are_exact_integers(ex_q2_k3, ex_q3_k2):
    rng = random.Random(2)
    cases = [(ex_q2_k3, 1, 2), (ex_q3_k2, 1, 1)]
    while len(cases) < 24:
        q = rng.choice([2, 3, 5, 7])
        k = rng.randrange(1, 4)
        r = rng.randrange(0, 3)
        if q ** (k + r) > 343:
            continue
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        cases.append((f, rng.randrange(1, 3), r))
    assert {f.q for f, _, _ in cases} == {2, 3, 5, 7}
    for f, t, r in cases:
        S = spectrum_of(f, t, r)
        assert all(isinstance(v, int) for v in S.eigenvalues)
        assert _spectra_match(S, _numpy_eigenvalues(build_graph(f, t, r)))


def test_spectrum_moment_and_degree_invariants():
    rng = random.Random(3)
    for f, t, r in _rand_cases(rng, 25):
        G = build_graph(f, t, r)
        S = spectrum_of(f, t, r)
        assert sum(S.eigenvalues) == 0
        assert sum(v * v for v in S.eigenvalues) == 2 * G.edge_count()
        degrees = [G.degree(i) for i in range(G.n_vertices)]
        assert S.lambda_max <= max(degrees)
        assert S.lambda_max * len(degrees) >= sum(degrees)


def test_table_functions_are_rejected(or_q2_k2):
    with pytest.raises(ValueError, match="^spectrum is defined for linear functions only$"):
        spectrum_of(or_q2_k2, 1, 1)
    with pytest.raises(ValueError):
        eigenvalue_redundancy_bound(or_q2_k2, 1, 4)


def test_cvetkovic_bound_dominates_exact_alpha():
    rng = random.Random(4)
    for f, t, r in _rand_cases(rng, 20):
        G = build_graph(f, t, r)
        S = spectrum_of(f, t, r)
        bound = cvetkovic_alpha_bound(S)
        assert bound >= independence_number(G).size
        assert isinstance(bound, (int, Fraction))


def test_cvetkovic_closed_forms():
    # complete graph on n vertices: lambda = n-1 once, -1 rest; bound = 1
    n = 8
    S = Spectrum(q=2, eigenvalues=(n - 1,) + (-1,) * (n - 1))
    assert cvetkovic_alpha_bound(S) == 1
    # edgeless graph: flat spectrum, bound collapses to n
    flat = Spectrum(q=2, eigenvalues=(0,) * n)
    assert cvetkovic_alpha_bound(flat) == n


def test_feasibility_quantity_at_growing_redundancy(ex_q2_k3):
    # 1 - lambda_max/lambda_min for the two-bit map at t=1, r = 1, 2, 3
    want = {1: Fraction(6), 2: Fraction(6), 3: Fraction(13, 2)}
    for r, expect in want.items():
        S = spectrum_of(ex_q2_k3, 1, r)
        assert 1 - Fraction(S.lambda_max, S.lambda_min) == expect
        feasible = 2**r >= expect
        assert feasible == (r >= 3)


def test_redundancy_bound_examples(ex_q2_k3, const_q2_k3):
    assert eigenvalue_redundancy_bound(ex_q2_k3, 1, 8) == SpectralBoundResult(3, False)
    assert eigenvalue_redundancy_bound(ex_q2_k3, 1, 0) == SpectralBoundResult(1, True)
    # constant function: conflict graph at r=0 is edgeless
    assert eigenvalue_redundancy_bound(const_q2_k3, 1, 4) == SpectralBoundResult(0, False)
    with pytest.raises(ValueError):
        eigenvalue_redundancy_bound(ex_q2_k3, 1, -1)


def test_redundancy_bound_never_exceeds_true_redundancy():
    # the bound is a lower bound: whenever an encoder exists at redundancy r,
    # the feasibility inequality must already hold there
    rng = random.Random(5)
    for _ in range(12):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 3)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        t = 1
        true_r = None
        for r in range(0, 5):
            if q ** (k + r) > 256:
                break
            G = build_graph(f, t, r)
            if independence_number(G).size >= q**k:
                true_r = r
                break
        if true_r is None:
            continue
        res = eigenvalue_redundancy_bound(f, t, r_max=true_r)
        assert not res.exhausted
        assert res.value <= true_r


def test_redundancy_bound_equals_whole_row_scan():
    # The scan reads the message shells and Krawtchouk sums; the helper
    # transforms every length-q^(k+r) connection row, so r_max keeps those
    # rows at 2^12 entries or fewer.  A small r_max makes some scans stop
    # as exhausted.
    rng = random.Random(6)
    cases = [
        (linear_function(q, [], k=k), t) for q, k in ((2, 3), (3, 2)) for t in (1, 2)
    ]
    while len(cases) < 60:
        q = rng.choice([2, 3, 5])
        k = rng.randrange(1, {2: 6, 3: 4, 5: 3}[q] + 1)
        f = rand_linear(rng, q, k, rng.randrange(0, k + 1))
        cases.append((f, rng.randrange(1, 4)))
    assert any(f.l == 0 for f, _ in cases)
    assert any(2 * t >= f.k for f, t in cases)
    exhausted = 0
    for f, t in cases:
        top = max(r for r in range(7) if f.q ** (f.k + r) <= 2**12)
        r_max = rng.randrange(0, top + 1)
        got = eigenvalue_redundancy_bound(f, t, r_max)
        assert got == slow_eigenvalue_bound(f, t, r_max), (f, t, r_max)
        exhausted += got.exhausted
    assert exhausted


def test_row_length_validation():
    with pytest.raises(ValueError):
        spectrum_of(linear_function(2, [(1,)]), 0, 1)
    with pytest.raises(ValueError):
        spectrum_of(linear_function(2, [(1,)]), 1, -1)


def test_oversized_rows_are_refused_before_allocation(monkeypatch, ex_q2_k3):
    monkeypatch.setattr(fcclib.spectrum, "ENUMERATION_LIMIT", 2**12)
    tracemalloc.start()
    try:
        # 2^16 entries: the tuple alone would take 512 KiB.
        with pytest.raises(ValueError, match="limit is 4096"):
            spectrum_of(ex_q2_k3, 1, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # The scan builds no row, so a limit below the row at r = 3 (64 entries)
    # changes neither the bound nor the report's eigenvalue entry.
    monkeypatch.setattr(fcclib.spectrum, "ENUMERATION_LIMIT", 2**5)
    assert eigenvalue_redundancy_bound(ex_q2_k3, 1, 8) == SpectralBoundResult(3, False)
    entry = next(e for e in bound_report(ex_q2_k3, 1).entries if e.name == "eigenvalue")
    assert entry.integer == 3 and entry.note == ""


def test_scan_refuses_a_message_space_past_the_limit():
    # 2^30 messages: refused before any rank list is built.
    f = linear_function(2, [[1] + [0] * 29])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            eigenvalue_redundancy_bound(f, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "q^k for q=2, k=30 exceeds the enumeration limit 16777216"
    assert peak < 64 * 1024


def test_eigenvalue_bound_pins_past_the_oracles():
    # Cells too large for the whole-row oracle, scanned to (2t+1)l; the
    # values were computed by the group-ring transform that preceded the
    # Poisson form.
    proj8 = linear_function(2, [[int(j == i) for j in range(10)] for i in range(8)])
    k12 = linear_function(2, [[1, 1, 1, 0] * 3, [0, 1, 1, 0] * 3])
    q5 = linear_function(5, [[1, 0, 0, 1, 2, 3], [0, 1, 0, 4, 1, 2], [0, 0, 1, 3, 3, 1]])
    q3 = linear_function(
        3,
        [
            [1, 0, 0, 0, 1, 2, 0, 1, 1],
            [0, 1, 0, 0, 2, 1, 1, 0, 2],
            [0, 0, 1, 0, 1, 1, 2, 2, 0],
            [0, 0, 0, 1, 0, 2, 2, 1, 1],
        ],
    )
    pins = ((proj8, (3, 5, 6)), (k12, (2, 2, 2)), (q5, (3, 3, 3)), (q3, (3, 4, 4)))
    for f, values in pins:
        for t, value in enumerate(values, 1):
            got = eigenvalue_redundancy_bound(f, t, (2 * t + 1) * f.l)
            assert got == SpectralBoundResult(value, False), (f, t)
    S = spectrum_of(q5, 2, 1)
    assert (S.n_vertices, S.lambda_min, S.lambda_max) == (78_125, -237, 11_488)
