"""Eigenvalues of conflict graphs for linear functions, from the message shells.

For linear functions the conflict graph is a Cayley graph on F_q^(k+r): its
adjacency matrix is invariant under jointly translating row and column
indices, so the characters of (Z_q)^(k+r) diagonalize it.  The connection set
splits over the message and parity parts: the 2t message shells S_w (weight
w, outside f's zero class) ride as bit lanes of one length-q^k transform, and
the eigenvalue at the character (a, b) combines S_w(a) with q-ary Krawtchouk
sums over the parity weight wt(b).  No length-q^(k+r) row is built.  The
transform runs in the group ring Z[x]/(x^q - 1), so every step is exact
integer arithmetic; lane w only ever counts members of S_w, so it is sized
by |S_w|.  The q^k entries are packed into one int, and each digit pass is a
few whole-row shifts, masks and sums, multiplication by x^m a rotation of
each entry's q coefficients.  The connection set is closed under scaling by
F_q^*, which makes every eigenvalue an integer, and each distinct transform
entry is checked to be so.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain
from math import comb
from operator import mul, or_

from .fields import ENUMERATION_LIMIT, _count_over, differences, weights
from .functions import FunctionSpec, _check_t, _require_linear, coset_decomposition

_WORD = (1 << 64) - 1


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
    x carried as 2^width: entry j is sum_c B_c x^c, B_c the sum of the values
    at the i with i.j = c; exact while each B_c < 2^width.  Every input entry
    must fit in q*width bits.

    The entries ride in one int, entry i at bit i * stride, stride a whole
    number of 64-bit words.  Each digit pass is a few whole-row shifts, masks
    and sums (``_digit_pass``), and x^m rotates the q lanes of every entry."""
    size = len(values)
    n_digits = 0
    while q**n_digits < size:
        n_digits += 1
    if q**n_digits != size:
        raise ValueError(f"row length {size} is not a power of {q}")
    top = q * width
    if min(values) < 0 or max(values) >> top:
        raise ValueError(f"transform entry does not fit in q*width = {top} bits")
    words = -(-top // 64)
    row = _pack(values, words)
    # wrap[m - 1] holds the top m lanes of every entry.
    wrap = []
    for m in range(1, q):
        lanes = ((1 << top) - (1 << (q - m) * width)).to_bytes(8 * words, "little")
        wrap.append(int.from_bytes(lanes * size, "little"))
    # The digits run from the top down.  Entries one apart in the digit of
    # the pass sit step bits apart, and those whose digit is 0 come in runs
    # of step bits, q * step apart: zero masks them.
    step = 64 * words * size // q
    zero = (1 << step) - 1
    for i in range(n_digits):
        if i:
            # The digit below: one shift and one XOR give the first two runs
            # of each q * step bits, shifted copies of those the other q - 2.
            step //= q
            zero ^= zero << step
            runs = 2
            while runs < q:
                more = min(runs, q - runs)
                zero |= zero << more * q * step
                runs += more
        row = _digit_pass(row, q, step, zero, width, wrap)
    return _unpack(row, size, words)


def _pack(values: list[int], words: int) -> int:
    """The entries as one int, entry i at bit 64 * words * i: one
    little-endian 64-bit word after another, the low word of an entry first."""
    if words > 1:
        parts = [[v >> 64 * w & _WORD for v in values] for w in range(words)]
        values = list(chain.from_iterable(zip(*parts)))
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _unpack(row: int, size: int, words: int) -> list[int]:
    """The ``size`` entries that ``_pack`` put into ``row``."""
    out = struct.unpack(f"<{words * size}Q", row.to_bytes(8 * words * size, "little"))
    entries = list(out[words - 1 :: words])
    for w in range(words - 2, -1, -1):
        entries = [e << 64 | v for e, v in zip(entries, out[w::words])]
    return entries


def _digit_pass(
    row: int, q: int, step: int, zero: int, width: int, wrap: list[int]
) -> int:
    """One digit of ``_transform`` on a packed row whose entries step bits
    apart differ by one in that digit, ``zero`` masking those where it is 0:
    output digit j sums x^(j*s) times input digit s."""
    digit = [row & zero] + [row >> s * step & zero for s in range(1, q)]
    # x^0 gathers every digit at j = 0 and digit 0 at every j.
    out = digit[0]
    for s in range(1, q):
        out += digit[s] + (digit[0] << s * step)
    for m in range(1, q):
        # Digit s = m / j lands at j as x^m; all of them rotate at once, the
        # lanes below q - m moving up m places and the top m wrapping to the
        # bottom, so no lane spills into the next entry.
        moved = [digit[m * pow(j, -1, q) % q] << j * step for j in range(1, q)]
        v = reduce(or_, moved)
        top = v & wrap[m - 1]
        out += (v - top) << m * width | top >> (q - m) * width
    return out


def _coefficients(v: int, q: int, width: int) -> tuple[int, int]:
    """(B_0, B_1) of a reduced transform entry, certified by B_1 = ... = B_(q-1)."""
    mask = (1 << width) - 1
    coeffs = {v >> c * width & mask for c in range(1, q)}
    if len(coeffs) != 1:
        raise ValueError("transform entry is not an integer eigenvalue")
    return v & mask, coeffs.pop()


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


def _shell_transform(f: FunctionSpec, t: int) -> tuple[list[int], dict[int, tuple]]:
    """The length-q^k transform of the message shells, and the tuple
    (S_1(a), ..., S_W(a)) of each distinct entry, W = min(2t, k), S_w(a) the
    transform of the shell {z : wt(z) = w, f(z) != f(0)} at the character a.
    The shells ride as bit lanes of one row, 1 in lane w at each z of S_w.  A
    lane counts members of its shell, so lane w takes |S_w|.bit_length() bits
    and never carries into the next: one transform gives every shell, and only
    its distinct entries are certified and split."""
    _check_t(t)
    q, k = f.q, f.k
    cls = coset_decomposition(f).class_of
    zero = cls[0]
    shells: list[list[int]] = [[] for _ in range(min(2 * t, k))]
    for z, support, _ in differences(q, k, 1, len(shells)):
        if cls[z] != zero:
            shells[len(support) - 1].append(z)
    lanes = [len(members).bit_length() for members in shells]
    offsets = [0, *accumulate(lanes)]
    masks = [(1 << n) - 1 for n in lanes]
    row = [0] * q**k
    for members, offset in zip(shells, offsets):
        for z in members:
            row[z] = 1 << offset
    # A constant f has only empty shells; one bit keeps the width positive.
    width = offsets[-1] or 1
    entries = _transform(row, q, width)
    split = {}
    for v in set(entries):
        b0, b1 = _coefficients(v, q, width)
        split[v] = tuple(
            (b0 >> s & m) - (b1 >> s & m) for s, m in zip(offsets, masks)
        )
    return entries, split


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
    entries, shells = _shell_transform(f, t)
    table = _eigenvalues(f.q, t, r, list(shells.values()))
    wt = weights(f.q, r)
    # Each distinct entry expands once into its q^r eigenvalues, b in rank order.
    expand = {v: [table[x][i] for x in wt] for i, v in enumerate(shells)}
    eigen = chain.from_iterable(map(expand.__getitem__, entries))
    return Spectrum(q=f.q, eigenvalues=tuple(eigen))


def eigenvalue_redundancy_bound(
    f: FunctionSpec, t: int, r_max: int
) -> SpectralBoundResult:
    """Lower bound on achievable redundancy: the smallest r <= r_max with
    q^r >= 1 - lambda_max(r)/lambda_min(r); every smaller r is infeasible.

    No graph row is built, so no r is too large to scan: one length-q^k
    transform gives the distinct shell tuples, and each r takes extremes over
    their eigenvalues (``_eigenvalues``) at wt(b) = 0..r."""
    _require_linear(f, "eigenvalue redundancy bound")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    q = f.q
    shells = list(_shell_transform(f, t)[1].values())
    for r in range(r_max + 1):
        table = _eigenvalues(q, t, r, shells)
        lo, hi = min(map(min, table)), max(map(max, table))
        # An edgeless graph (flat spectrum) makes every vertex set independent.
        if hi == lo or q**r >= 1 - Fraction(hi, lo):
            return SpectralBoundResult(value=r, exhausted=False)
    return SpectralBoundResult(value=r_max + 1, exhausted=True)
