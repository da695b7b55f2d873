"""Eigenvalues of conflict graphs for linear functions, from the message shells.

For linear functions the conflict graph is a Cayley graph on F_q^(k+r): its
adjacency matrix is invariant under jointly translating row and column
indices, so the characters of (Z_q)^(k+r) diagonalize it.  The connection set
splits over the message and parity parts: the eigenvalue at the character
(a, b) combines the message shell sums S_w(a), S_w = {z : wt(z) = w,
f(z) != f(0)}, with q-ary Krawtchouk sums over the parity weight wt(b).  No
length-q^(k+r) row is built.

The shell sums come in closed form.  Over all words of weight w the
character at a sums to K_w(wt(a); k); the kernel's share is, by Poisson
summation over the kernel, whose dual is the row space R of f, q^(-l) times
the sum of K_w(wt(v); k) over the coset a + R.  So S_w(a) depends only on wt(a) and the
sorted weights of a + R, and one tuple is computed per distinct pair.  The
connection set is closed under scaling by F_q^*, which makes every
eigenvalue an integer: each division by q^l is checked to be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import comb
from operator import mul

from .fields import ENUMERATION_LIMIT, _count_over, _pivot_columns, span_ranks, weights
from .functions import FunctionSpec, _check_t, _require_linear


@dataclass(frozen=True)
class Spectrum:
    """Graph spectrum in transform-index order, as exact ints."""

    q: int
    eigenvalues: tuple

    @property
    def n_vertices(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda_max(self):
        return max(self.eigenvalues)

    @property
    def lambda_min(self):
        return min(self.eigenvalues)


def cvetkovic_alpha_bound(S: Spectrum):
    """Eigenvalue upper bound on the independence number, as an exact
    Fraction: -n * lambda_min / (lambda_max - lambda_min), n = S.n_vertices;
    n for an edgeless graph."""
    n, lo, hi = S.n_vertices, S.lambda_min, S.lambda_max
    if hi == lo:
        return n
    return Fraction(-n * lo, hi - lo)


@dataclass(frozen=True)
class SpectralBoundResult:
    """Smallest redundancy passing the eigenvalue feasibility inequality.

    ``exhausted`` is True when no r <= r_max passed; ``value`` is then
    r_max + 1.  Every r below ``value`` was proved infeasible, so an exhausted
    result reads as "at least this much".
    """

    value: int
    exhausted: bool


def _krawtchouk(q: int, n: int, j: int, x: int) -> int:
    """The q-ary Krawtchouk value K_j(x; n): the sum of omega^(b.z) over the
    words z of weight j in F_q^n, for any b of weight x."""
    return sum(
        (-1) ** i * (q - 1) ** (j - i) * comb(x, i) * comb(n - x, j - i)
        for i in range(j + 1)
    )


def _shell_sums(
    f: FunctionSpec, t: int
) -> tuple[list[int], list[bytes], dict[tuple[int, bytes], tuple]]:
    """The shell sums of linear f by Poisson summation: (ranks, census,
    sums).  ``ranks`` lists F_q^k one coset of the row space R after
    another, q^l ranks each, and census[i] holds coset i's sorted weights;
    ``sums`` maps each (wt(a), census of a + R) that occurs to the tuple
    (S_1(a), ..., S_W(a)), W = min(2t, k)."""
    _check_t(t)
    q, k, rows = f.q, f.k, f.matrix
    # One word of each coset is zero on the pivot columns.  The span of f's
    # rows, then of the units off the pivots (``fields.span_ranks``, which
    # refuses a q^k past the limit before it reads these lazy units) lists R
    # and then moves it to each coset: ranks[i * size:(i + 1) * size] is one.
    pivots = _pivot_columns(q, rows)
    off = [c for c in range(k) if c not in pivots]
    units = [chain(repeat(0, c), (1,), repeat(0, k - 1 - c)) for c in off]
    ranks = span_ranks(q, k, [*rows, *units])
    size = q ** len(rows)
    row = bytes(map(weights(q, k).__getitem__, ranks))
    census = [bytes(sorted(row[i : i + size])) for i in range(0, len(row), size)]
    top = min(2 * t, k)
    kraw = [[_krawtchouk(q, k, w, x) for x in range(k + 1)] for w in range(top + 1)]
    sums = {}
    for c in set(census):
        counts = [c.count(x) for x in range(k + 1)]
        kernel = []
        for w in range(1, top + 1):
            share, rest = divmod(sum(map(mul, counts, kraw[w])), size)
            if rest:
                raise ValueError("shell sum is not an integer eigenvalue")
            kernel.append(share)
        for x in set(c):
            sums[x, c] = tuple(kraw[w][x] - s for w, s in enumerate(kernel, 1))
    return ranks, census, sums


def _eigenvalues(q: int, t: int, r: int, shells: list[tuple]) -> list[list[int]]:
    """Row x = 0..r lists, for each shell tuple (S_1(a), ..., S_W(a)) of
    ``shells`` in order, the eigenvalue at the character (a, b) with wt(b) = x,
    a on the message and b on the parity:
    q^r [b = 0] - 1 + sum_w S_w(a) * sum_{j <= 2t-w} K_j(wt(b); r)."""
    table = []
    for x in range(r + 1):
        # Shell w pairs with the parity words of weight at most 2t - w.
        kraw = accumulate(_krawtchouk(q, r, j, x) for j in range(2 * t))
        sums = list(kraw)[::-1]
        base = (q**r if x == 0 else 0) - 1
        table.append([base + sum(map(mul, s, sums)) for s in shells])
    return table


def spectrum_of(f: FunctionSpec, t: int, r: int) -> Spectrum:
    """Spectrum of the conflict graph, computed without building the graph or
    its first row: entry a * q^r + b is the eigenvalue at the character (a, b)."""
    _require_linear(f, "spectrum")
    _check_t(t)
    if r < 0:
        raise ValueError("r must be >= 0")
    over = _count_over(f.q, f.k + r, ENUMERATION_LIMIT)
    if over:
        raise ValueError(f"row would have {over} entries; limit is {ENUMERATION_LIMIT}")
    q, k = f.q, f.k
    ranks, census, sums = _shell_sums(f, t)
    table = _eigenvalues(q, t, r, list(sums.values()))
    wt = weights(q, r)
    # Each (wt(a), census) expands once into its q^r eigenvalues, b in rank
    # order; each census covers the q^l ranks of its coset.
    expand = {key: [table[x][i] for x in wt] for i, key in enumerate(sums)}
    cosets = chain.from_iterable(map(repeat, census, repeat(q**f.l)))
    coset = dict(zip(ranks, cosets))
    keys = zip(weights(q, k), map(coset.__getitem__, range(q**k)))
    eigen = chain.from_iterable(map(expand.__getitem__, keys))
    return Spectrum(q=q, eigenvalues=tuple(eigen))


def eigenvalue_redundancy_bound(
    f: FunctionSpec, t: int, r_max: int
) -> SpectralBoundResult:
    """Lower bound on achievable redundancy: the smallest r <= r_max with
    q^r >= 1 - lambda_max(r)/lambda_min(r); every smaller r is infeasible.

    No graph row is built, so no r is too large to scan: ``_shell_sums``
    gives the distinct shell tuples, and each r takes extremes over their
    eigenvalues (``_eigenvalues``) at wt(b) = 0..r."""
    _require_linear(f, "eigenvalue redundancy bound")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    q = f.q
    shells = list(set(_shell_sums(f, t)[2].values()))
    for r in range(r_max + 1):
        table = _eigenvalues(q, t, r, shells)
        lo, hi = min(map(min, table)), max(map(max, table))
        # An edgeless graph (flat spectrum) makes every vertex set independent.
        if hi == lo or q**r >= 1 - Fraction(hi, lo):
            return SpectralBoundResult(value=r, exhausted=False)
    return SpectralBoundResult(value=r_max + 1, exhausted=True)
