"""Eigenvalues of conflict graphs for linear functions, from one adjacency row.

For linear functions the conflict graph is a Cayley graph on F_q^n: its
adjacency matrix is invariant under jointly translating row and column
indices, so the multidimensional DFT over (Z_q)^n diagonalizes it and the
whole spectrum is the transform of row 0, ``graph.connection_row``.  The
transform runs in the group ring Z[x]/(x^q - 1), so every step is exact
integer arithmetic; the connection set is closed under scaling by F_q^*, which
makes every eigenvalue an integer, and each one is checked to be so.

The eigenvalue redundancy scan needs only the extreme eigenvalues, and those
split over the message and parity parts of the connection set: the 2t message
shells S_w (weight w, outside f's zero class) ride as bit lanes of one length-q^k
transform, decoded once per distinct entry, and each r combines them with q-ary
Krawtchouk sums over the parity weights, so no length-q^(k+r) row is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import mul, sub

from .fields import ENUMERATION_LIMIT, differences
from .functions import FunctionSpec, _check_t, _require_linear, coset_decomposition
from .graph import FccGraph, connection_row


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


def _transform(values: list[int], q: int, width: int) -> list[int]:
    """The transform over (Z_q)^n of a length-q^n list, in Z[x]/(x^q - 1) with
    x carried as 2^width: entry j is sum_c B_c x^c mod 2^(q*width) - 1, B_c the
    sum of the values at the i with i.j = c; exact while each B_c < 2^(width-1)."""
    n_digits = 0
    while q**n_digits < len(values):
        n_digits += 1
    if q**n_digits != len(values):
        raise ValueError(f"row length {len(values)} is not a power of {q}")
    top = q * width
    modulus = (1 << top) - 1
    values = list(values)
    # Transform the leading digit and move it to the end; after n_digits
    # passes every digit is transformed and back in place.  Shifted sums
    # (j > 0) fold their bits above 2^top back onto the low ones (x^q = 1);
    # j = 0 only adds, at most log2 of the length in bits over all passes.
    # Entries so stay below 2^(top + width) instead of growing every pass.
    part = len(values) // q
    for _ in range(n_digits):
        chunks = [values[s * part : (s + 1) * part] for s in range(q)]
        for j in range(q):
            acc = chunks[0]
            for s in range(1, q):
                shift = j * s % q * width
                acc = [a + (b << shift) for a, b in zip(acc, chunks[s])]
            if j:
                acc = [(v & modulus) + (v >> top) for v in acc]
            values[j::q] = acc
    return [v % modulus for v in values]


def _coefficients(v: int, q: int, width: int) -> tuple[int, int]:
    """(B_0, B_1) of a reduced transform entry, certified by B_1 = ... = B_(q-1)."""
    mask = (1 << width) - 1
    coeffs = {v >> c * width & mask for c in range(1, q)}
    if len(coeffs) != 1:
        raise ValueError("transform entry is not an integer eigenvalue")
    return v & mask, coeffs.pop()


def _row_spectrum(row: list[int], q: int) -> Spectrum:
    """Cayley-graph spectrum of the 0/1 first row ``row``, decoded once per value."""
    width = len(row).bit_length() + 1
    values = _transform(row, q, width)
    eigen = {v: sub(*_coefficients(v, q, width)) for v in set(values)}
    return Spectrum(q=q, eigenvalues=tuple(map(eigen.__getitem__, values)))


def eigenvalues_via_tensor_dft(G: FccGraph, f: FunctionSpec) -> Spectrum:
    """Full spectrum of G from its first adjacency row.

    Valid for linear f only: the translation symmetry that makes the first
    row determine every eigenvalue does not hold for table functions.
    """
    _require_linear(f, "tensor-DFT spectrum")
    if f.q != G.q:
        raise ValueError("function and graph disagree on the field size")
    row0 = G.rows[0]
    row = [row0 >> x & 1 for x in range(G.n_vertices)]
    return _row_spectrum(row, G.q)


def spectrum_of(f: FunctionSpec, t: int, r: int) -> Spectrum:
    """Spectrum of the conflict graph, computed without building the graph."""
    _require_linear(f, "tensor-DFT spectrum")
    return _row_spectrum(connection_row(f, t, r), f.q)


def cvetkovic_alpha_bound(S: Spectrum, n_vertices: int):
    """Eigenvalue upper bound on the independence number, as an exact
    Fraction: -n * lambda_min / (lambda_max - lambda_min); n for an edgeless
    graph."""
    lo, hi = S.lambda_min, S.lambda_max
    if hi == lo:
        return n_vertices
    return Fraction(-n_vertices * lo, hi - lo)


@dataclass(frozen=True)
class SpectralBoundResult:
    """Smallest redundancy passing the eigenvalue feasibility inequality.

    ``exhausted`` is True when the scan ended without a feasible r: either no
    r <= r_max passed and ``value`` is r_max + 1, or the row at r = ``value``
    would exceed ``ENUMERATION_LIMIT`` entries.  Every r below ``value`` was
    proved infeasible, so it reads as "at least this much".
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


def _shell_spectra(f: FunctionSpec, t: int) -> set[tuple]:
    """The distinct tuples (S_1(a), ..., S_W(a)) over the characters a of F_q^k,
    S_w(a) the transform of the shell {z : wt(z) = w, f(z) != f(0)}, W = min(2t, k).
    The shells ride as bit lanes of one row, 1 in lane w at each z of S_w.  A lane
    counts under q^k < 2^(lane-1), so none carries into the next: one transform
    gives every shell, and only its distinct entries are certified and split."""
    _check_t(t)
    q, k = f.q, f.k
    cls = coset_decomposition(f).class_of
    W = min(2 * t, k)
    lane = (q**k).bit_length() + 1
    row = [0] * q**k
    for z, support, _ in differences(q, k, 1, W):
        if cls[z] != cls[0]:
            row[z] = 1 << (len(support) - 1) * lane
    width, mask = W * lane, (1 << lane) - 1
    pairs = (_coefficients(v, q, width) for v in set(_transform(row, q, width)))
    return {
        tuple((b0 >> s & mask) - (b1 >> s & mask) for s in range(0, width, lane))
        for b0, b1 in pairs
    }


def eigenvalue_redundancy_bound(
    f: FunctionSpec, t: int, r_max: int
) -> SpectralBoundResult:
    """Lower bound on achievable redundancy: the smallest r <= r_max with
    q^r >= 1 - lambda_max(r)/lambda_min(r); every smaller r is infeasible.
    The scan stops early, as exhausted, at the first r whose connection row
    would have more than ``ENUMERATION_LIMIT`` entries.

    The row itself is never built.  The eigenvalue at the character (a, b),
    a on the message and b on the parity, is
    q^r [b = 0] - 1 + sum_w S_w(a) * sum_{j <= 2t-w} K_j(wt(b); r):
    the 2t shells ride as lanes of one length-q^k transform, decoded once per
    distinct entry, and each r takes extremes over those and wt(b) = 0..r."""
    _require_linear(f, "eigenvalue redundancy bound")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    q = f.q
    shells = None
    for r in range(r_max + 1):
        if q ** (f.k + r) > ENUMERATION_LIMIT:
            return SpectralBoundResult(value=r, exhausted=True)
        # Built once, after the first size check has passed.
        shells = shells or _shell_spectra(f, t)
        values = []
        for x in range(r + 1):  # the weight of b
            # Shell w pairs with the parity words of weight at most 2t - w.
            kraw = accumulate(_krawtchouk(q, r, j, x) for j in range(2 * t))
            weights = list(kraw)[::-1]
            base = (q**r if x == 0 else 0) - 1
            values += [base + sum(map(mul, s, weights)) for s in shells]
        lo, hi = min(values), max(values)
        # An edgeless graph (flat spectrum) makes every vertex set independent.
        if hi == lo or q**r >= 1 - Fraction(hi, lo):
            return SpectralBoundResult(value=r, exhausted=False)
    return SpectralBoundResult(value=r_max + 1, exhausted=True)
