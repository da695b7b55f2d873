"""Eigenvalues of conflict graphs for linear functions, from one adjacency row.

For linear functions the conflict graph is a Cayley graph on F_q^n: its
adjacency matrix is invariant under jointly translating row and column
indices, so the multidimensional DFT over (Z_q)^n diagonalizes it and the
whole spectrum is the transform of row 0, ``graph.connection_row``.  The
transform runs in the group ring Z[x]/(x^q - 1), so every step is exact
integer arithmetic; the connection set is closed under scaling by F_q^*, which
makes every eigenvalue an integer, and each one is checked to be so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import ENUMERATION_LIMIT
from .functions import FunctionSpec, _require_linear
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


def _row_spectrum(row: list[int], q: int) -> Spectrum:
    """Spectrum of the Cayley graph on (Z_q)^n with 0/1 first row ``row``.

    Entry j of the transform is sum_c B_c x^c, x carried as 2^width in
    Z/(2^(q*width) - 1); each B_c < 2^(width-1) counts ones of the row.  Its
    eigenvalue is B_0 - B_1, certified integral by B_1 = ... = B_(q-1)."""
    n_digits = 0
    size = 1
    while size < len(row):
        size *= q
        n_digits += 1
    if size != len(row):
        raise ValueError(f"row length {len(row)} is not a power of {q}")
    width = len(row).bit_length() + 1
    values = list(row)
    # Transform the leading digit and move it to the end; after n_digits
    # passes every digit is transformed and back in place.
    part = size // q
    for _ in range(n_digits):
        chunks = [values[s * part : (s + 1) * part] for s in range(q)]
        for j in range(q):
            acc = chunks[0]
            for s in range(1, q):
                shift = j * s % q * width
                acc = [a + (b << shift) for a, b in zip(acc, chunks[s])]
            values[j::q] = acc
    modulus = (1 << q * width) - 1
    mask = (1 << width) - 1
    eigen = []
    for v in values:
        v %= modulus
        coeffs = {v >> c * width & mask for c in range(1, q)}
        if len(coeffs) != 1:
            raise ValueError("transform entry is not an integer eigenvalue")
        eigen.append((v & mask) - coeffs.pop())
    return Spectrum(q=q, eigenvalues=tuple(eigen))


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


def eigenvalue_redundancy_bound(
    f: FunctionSpec, t: int, r_max: int
) -> SpectralBoundResult:
    """Lower bound on achievable redundancy: the smallest r <= r_max with
    q^r >= 1 - lambda_max(r)/lambda_min(r); every smaller r is infeasible.
    The scan stops early, as exhausted, at the first r whose connection row
    is too large to enumerate."""
    _require_linear(f, "eigenvalue redundancy bound")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    q = f.q
    for r in range(r_max + 1):
        if q ** (f.k + r) > ENUMERATION_LIMIT:
            return SpectralBoundResult(value=r, exhausted=True)
        spec = _row_spectrum(connection_row(f, t, r), q)
        lo, hi = spec.lambda_min, spec.lambda_max
        # An edgeless graph (flat spectrum) makes every vertex set independent.
        if hi == lo or q**r >= 1 - Fraction(hi, lo):
            return SpectralBoundResult(value=r, exhausted=False)
    return SpectralBoundResult(value=r_max + 1, exhausted=True)
