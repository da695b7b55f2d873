"""Coset-wise encoding: one parity word per function value.

For linear functions whose matrix has exactly l distinct non-zero columns,
unit vectors picked from those columns span a transversal of minimum-weight
coset representatives.  Messages then inherit the parity word of their
coset's representative, so a parity set designed for the q^l representatives
protects the whole space.  ``build_cosetwise_encoder`` orders such words
by class and hands them to the class-encoder expander, which lives beside
``FccEncoder`` in ``graph`` (``graph._class_encoder``), as does the class
view it sets: the words, checked against the function-distance matrix once.
``graph.verify_fcc`` then reads that check, and ``graph.decode`` decodes
linear f on the classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distance import DistanceMatrix, ParityCode, build_fdm, matrix_from_lists
from .fields import _pivot_columns
from .functions import (
    FunctionSpec,
    _check_t,
    _require_linear,
    classify,
    coset_decomposition,
    linear_function,
    min_weight_representatives,
)
from .graph import FccEncoder, _class_encoder


@dataclass(frozen=True)
class SubspaceSelection:
    """A subspace of minimum-weight coset representatives.

    ``members`` lists the q^l representatives ordered so that member i
    truncates (to the kept coordinates ``unit_positions``) to the vector of
    canonical rank i in F_q^l; ``truncated`` holds those truncations and
    ``class_indices`` the coset class of each member.
    """

    f: FunctionSpec
    unit_positions: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    truncated: tuple[tuple[int, ...], ...]
    class_indices: tuple[int, ...]


def select_subspace_representatives(f: FunctionSpec) -> SubspaceSelection:
    """The minimum-weight class representatives, in truncation order.

    Requires the matrix of f to have exactly l distinct non-zero columns,
    which are then a basis of F_q^l.  The first minimum-weight member of each
    class (``min_weight_representatives``) uses, per basis column, only the
    last coordinate carrying it, so it is zero off ``unit_positions``: the
    q^l members are the span of the units there, sorted by their truncation.
    """
    _require_linear(f, "subspace representative selection")
    census = classify(f)
    if not census.unit_basis_class:
        raise ValueError(
            f"selection needs exactly l={f.l} distinct non-zero columns; "
            f"found {census.distinct_nonzero_columns}"
        )
    assert f.matrix is not None
    chosen: dict[tuple[int, ...], int] = {}
    for pos in range(f.k):
        column = tuple(row[pos] for row in f.matrix)
        if any(column):
            chosen[column] = pos  # later positions overwrite: keep the last
    positions = tuple(sorted(chosen.values()))
    # Equal-length tuples sort lexicographically: in canonical rank order.
    leaders = enumerate(min_weight_representatives(f))
    by_truncation = sorted((tuple(m[p] for p in positions), c, m) for c, m in leaders)
    truncated, class_indices, members = zip(*by_truncation)
    return SubspaceSelection(
        f=f,
        unit_positions=positions,
        members=members,
        truncated=truncated,
        class_indices=class_indices,
    )


def cosetwise_requirements(f: FunctionSpec, t: int) -> DistanceMatrix:
    """Function-distance requirements reindexed by the representatives'
    truncation ranks, so row i constrains the parity word of representative i.
    """
    sel = select_subspace_representatives(f)
    fdm = build_fdm(f, t)
    cls = sel.class_indices
    rows = tuple(bytes(fdm[a][b] for b in cls) for a in cls)
    return DistanceMatrix(rows=rows, labels=sel.truncated)


def build_cosetwise_encoder(
    f: FunctionSpec, t: int, parity_source: ParityCode
) -> FccEncoder:
    """Encoder assigning parity_source's word i to every message in the coset
    of representative i (representatives in truncation-rank order).

    The words are first checked against the function-distance requirements;
    a violating parity set is rejected with CodeNotFoundError.
    """
    sel = select_subspace_representatives(f)
    q, l = f.q, f.l
    if parity_source.q != q:
        raise ValueError("parity code and function disagree on the field size")
    if len(parity_source) != q**l:
        raise ValueError(
            f"need {q ** l} parity words (one per function value), "
            f"got {len(parity_source)}"
        )
    by_class = sorted(zip(sel.class_indices, parity_source.words))
    code = ParityCode(q=q, r=parity_source.r, words=tuple(w for _, w in by_class))
    return _class_encoder(f, t, code, build_fdm(f, t))


def reduced_problem(f: FunctionSpec, t: int) -> DistanceMatrix:
    """Distance requirements left after coset-wise reduction: a q^l-by-q^l
    matrix with 2t everywhere off the diagonal.

    Valid when k >= q^l - 1 and every non-zero value of F_q^l appears as a
    column of f's matrix: every non-kernel coset then contains a unit vector,
    so all cross-coset function distances equal 1.
    """
    _require_linear(f, "reduced distance requirements")
    _check_t(t)
    census = classify(f)
    if not census.unit_distance_class:
        raise ValueError(
            "reduction needs k >= q^l - 1 and all non-zero values present "
            "among the matrix columns"
        )
    q, l = f.q, f.l
    size = q**l
    # Each class's first member is zero off the columns that extend the span
    # of those after them (the pivots of the column-reversed matrix), so on
    # these l columns alone (q^l messages) the classes appear in the same
    # order; k=1 is read only when l = 0.
    reversed_rows = [row[::-1] for row in f.matrix]
    keep = sorted(f.k - 1 - p for p in _pivot_columns(q, reversed_rows))
    basis = linear_function(q, [[row[i] for i in keep] for row in f.matrix], k=1)
    labels = coset_decomposition(basis).labels
    entries = [
        [0 if i == j else 2 * t for j in range(size)] for i in range(size)
    ]
    return matrix_from_lists(entries, labels=labels)
