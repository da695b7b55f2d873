"""Eigenvalues of conflict graphs for linear functions, from one adjacency row.

For linear functions the conflict graph is a Cayley graph on F_q^n: its
adjacency matrix is invariant under jointly translating row and column
indices, so the multidimensional DFT over (Z_q)^n diagonalizes it and the
whole spectrum is the transform of row 0, ``graph.connection_row``.  The q = 2
case is a Walsh-Hadamard transform carried out in exact integers; q > 2 uses
complex floats with a fixed tolerance on the imaginary residue.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .functions import FunctionSpec, _require_linear
from .graph import FccGraph, connection_row

IMAG_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Graph spectrum in transform-index order (ints for q=2, floats else)."""

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


def _walsh_hadamard(values: list[int]) -> list[int]:
    """In-place exact WHT of a list whose length is a power of two."""
    n = len(values)
    h = 1
    while h < n:
        for start in range(0, n, h * 2):
            for i in range(start, start + h):
                a, b = values[i], values[i + h]
                values[i] = a + b
                values[i + h] = a - b
        h *= 2
    return values


def _dft_axis(values: list[complex], q: int, n_digits: int) -> list[complex]:
    """Multidimensional radix-q DFT over all n_digits axes (MSD-first ranks)."""
    total = len(values)
    omegas = [cmath.exp(2j * cmath.pi * c / q) for c in range(q)]
    for axis in range(n_digits):
        stride = q ** (n_digits - 1 - axis)
        block = stride * q
        for start in range(0, total, block):
            for off in range(stride):
                idx = [start + off + s * stride for s in range(q)]
                xs = [values[i] for i in idx]
                for jd in range(q):
                    acc = 0j
                    for s in range(q):
                        acc += xs[s] * omegas[jd * s % q]
                    values[idx[jd]] = acc
    return values


def _row_spectrum(row: list[int], q: int) -> Spectrum:
    n_digits = 0
    size = 1
    while size < len(row):
        size *= q
        n_digits += 1
    if size != len(row):
        raise ValueError(f"row length {len(row)} is not a power of {q}")
    if q == 2:
        eigen = tuple(_walsh_hadamard(list(row)))
        return Spectrum(q=q, eigenvalues=eigen)
    values = _dft_axis([complex(v) for v in row], q, n_digits)
    worst = max(abs(v.imag) for v in values)
    if worst > IMAG_TOLERANCE:
        raise ValueError(f"imaginary residue {worst} exceeds {IMAG_TOLERANCE}")
    return Spectrum(q=q, eigenvalues=tuple(v.real for v in values))


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
    """Eigenvalue upper bound on the independence number:
    -n * lambda_min / (lambda_max - lambda_min); n for an edgeless graph.

    Exact Fraction when the spectrum is integral, float otherwise.
    """
    lo, hi = S.lambda_min, S.lambda_max
    if hi == lo:
        return n_vertices
    if isinstance(lo, int) and isinstance(hi, int):
        return Fraction(-n_vertices * lo, hi - lo)
    return -n_vertices * lo / (hi - lo)


@dataclass(frozen=True)
class SpectralBoundResult:
    """Smallest redundancy passing the eigenvalue feasibility inequality.

    ``exhausted`` is True when no r <= r_max passed; ``value`` is then
    r_max + 1 and reads as "at least this much".
    """

    value: int
    exhausted: bool


def eigenvalue_redundancy_bound(
    f: FunctionSpec, t: int, r_max: int
) -> SpectralBoundResult:
    """Lower bound on achievable redundancy: the smallest r <= r_max with
    q^r >= 1 - lambda_max(r)/lambda_min(r); every smaller r is infeasible."""
    _require_linear(f, "eigenvalue redundancy bound")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    q = f.q
    for r in range(r_max + 1):
        spec = _row_spectrum(connection_row(f, t, r), q)
        lo, hi = spec.lambda_min, spec.lambda_max
        if hi == lo:
            # Edgeless: every vertex set is independent, so r is feasible.
            return SpectralBoundResult(value=r, exhausted=False)
        if isinstance(lo, int) and isinstance(hi, int):
            feasible = q**r >= 1 - Fraction(hi, lo)
        else:
            feasible = q**r >= 1 - hi / lo - IMAG_TOLERANCE
        if feasible:
            return SpectralBoundResult(value=r, exhausted=False)
    return SpectralBoundResult(value=r_max + 1, exhausted=True)
