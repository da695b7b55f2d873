"""Function specifications, coset decompositions, weight statistics, and classes.

A function f: F_q^k -> Im(f) is given either by a full-rank l x k matrix over
F_q (linear mode: values are length-l vectors) or by an explicit table over
all q^k inputs (table mode: values are opaque integer labels).

The image values of f are ordered by *first appearance* while walking the
domain in canonical rank order.  That ordering indexes every function-distance
matrix and every coset-wise structure in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product, repeat

from .fields import (
    FieldVec,
    VectorIndex,
    _check_prime,
    _count_over,
    hamming_distance,
    matrix_rank,
    span_ranks,
    weights,
)


def _check_domain(q: int, k: int) -> None:
    """Refuse a field size that is not prime or a domain length below 1."""
    _check_prime(q)
    if k < 1:
        raise ValueError(f"domain length must be positive, got {k}")


@dataclass(frozen=True)
class FunctionSpec:
    """The function under protection.

    Parameters
    ----------
    q : prime field size.
    k : domain length.
    mode : "linear" or "table".
    matrix : linear mode only — l rows of k symbols; must have rank l.
    table : table mode only — q^k integer labels in canonical domain order.
    """

    q: int
    k: int
    mode: str
    matrix: tuple[tuple[int, ...], ...] | None = None
    table: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_domain(self.q, self.k)
        if self.mode == "linear":
            if self.matrix is None or self.table is not None:
                raise ValueError("linear mode requires a matrix and no table")
            # An empty matrix (l = 0) is the constant function.
            for row in self.matrix:
                if len(row) != self.k:
                    raise ValueError(
                        f"matrix row length {len(row)} does not match k={self.k}"
                    )
                if any(not 0 <= s < self.q for s in row):
                    raise ValueError(f"matrix entries must lie in [0, {self.q})")
            l = len(self.matrix)
            if l > self.k:
                raise ValueError(f"matrix has more rows ({l}) than columns ({self.k})")
            if matrix_rank(self.q, self.matrix) != l:
                raise ValueError("matrix rows must be linearly independent over F_q")
        elif self.mode == "table":
            if self.table is None or self.matrix is not None:
                raise ValueError("table mode requires a table and no matrix")
            # q^k as its count's text when it passes the length: no huge
            # power is formed or printed.
            n = len(self.table)
            expect = _count_over(self.q, self.k, n) or self.q**self.k
            if expect != n:
                raise ValueError(f"table length {n} != q^k = {expect}")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def l(self) -> int:
        """Image dimension (linear mode only)."""
        if self.mode != "linear":
            raise ValueError("image dimension is defined for linear mode only")
        assert self.matrix is not None
        return len(self.matrix)

    @property
    def index(self) -> VectorIndex:
        return VectorIndex(self.q, self.k)

    def eval(self, u: FieldVec):
        """Value of the function at ``u``.

        Linear mode returns the length-l vector F @ u; table mode returns the
        stored integer label.
        """
        if len(u) != self.k:
            raise ValueError(f"expected length {self.k}, got {len(u)}")
        if self.mode == "linear":
            assert self.matrix is not None
            for s in u:
                if not 0 <= s < self.q:
                    raise ValueError(f"symbol {s} out of range for F_{self.q}")
            return tuple(
                sum(c * s for c, s in zip(row, u)) % self.q for row in self.matrix
            )
        assert self.table is not None
        return self.table[self.index.rank(u)]


def linear_function(q: int, rows, k: int | None = None) -> FunctionSpec:
    """Convenience constructor for a linear FunctionSpec.

    ``k`` is inferred from the first row; it must be given explicitly for the
    constant function (no rows).  Entries are not reduced mod q: one outside
    [0, q) raises ValueError.
    """
    matrix = tuple(tuple(int(s) for s in row) for row in rows)
    if matrix:
        k = len(matrix[0])
    elif k is None:
        raise ValueError("k is required when the matrix has no rows")
    return FunctionSpec(q=q, k=k, mode="linear", matrix=matrix)


def table_function(q: int, k: int, labels) -> FunctionSpec:
    """Convenience constructor for a table FunctionSpec."""
    return FunctionSpec(q=q, k=k, mode="table", table=tuple(int(v) for v in labels))


@dataclass(frozen=True)
class CosetDecomposition:
    """Partition of F_q^k into the level sets of f.

    ``labels`` holds the image values in first-appearance order; ``classes[i]``
    holds the member ranks of label i in ascending order; ``class_of[rank]``
    maps a domain rank to its class index.  For linear f the classes are the
    cosets of the kernel and class 0 is the kernel itself.
    """

    q: int
    k: int
    labels: tuple
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.labels)

    def index_of(self, value) -> int:
        """Class index of an image value."""
        try:
            return self._label_index[value]
        except KeyError:
            raise ValueError(f"value {value!r} is not in the image") from None

    @cached_property
    def _label_index(self) -> dict:
        return {v: i for i, v in enumerate(self.labels)}


@lru_cache(maxsize=128)
def coset_decomposition(f: FunctionSpec) -> CosetDecomposition:
    """Group the domain by function value, classes ordered by first appearance.

    The values of all q^k messages are built in rank form, with no ``eval``
    or ``translate`` call per message.  A table f supplies them as its table.
    For linear f the value of message u is u_1 c_1 + ... + u_k c_k over f's
    columns c, so the span of the columns taken last first
    (``fields.span_ranks``, which refuses a q^k past the enumeration limit)
    lists the values in message rank order.  One dict numbers the classes
    in order of first appearance; only the q^l labels are decoded to tuples,
    each from two tables of half-length words.
    """
    q, k = f.q, f.k
    if f.mode == "table":
        values = f.table
    else:
        assert f.matrix is not None
        columns = [tuple(row[j] for row in f.matrix) for j in reversed(range(k))]
        values = span_ranks(q, f.l, columns)
    seen = dict.fromkeys(values)
    index = dict(zip(seen, range(len(seen))))
    class_of = tuple(map(index.__getitem__, values))
    classes: list[list[int]] = [[] for _ in seen]
    for rank, c in enumerate(class_of):
        classes[c].append(rank)
    if f.mode == "table":
        labels = tuple(seen)
    else:
        # A label is its rank's leading and trailing halves of digits, each
        # read from a table of q^(l/2) tuples.
        half = q ** (f.l - f.l // 2)
        lead = list(product(range(q), repeat=f.l // 2))
        trail = list(product(range(q), repeat=f.l - f.l // 2))
        labels = tuple(lead[a] + trail[b] for a, b in map(divmod, seen, repeat(half)))
    return CosetDecomposition(
        q=q, k=k, labels=labels, classes=tuple(map(tuple, classes)), class_of=class_of
    )


def image_size(f: FunctionSpec) -> int:
    """Number of distinct function values."""
    return len(coset_decomposition(f))


def _require_linear(f: FunctionSpec, what: str) -> None:
    if f.mode != "linear":
        raise ValueError(f"{what} is defined for linear functions only")


def _check_t(t: int) -> None:
    """Refuse an error weight outside [1, 127]: requirement entries 2t+1 are
    bytes."""
    if not 1 <= t <= 127:
        raise ValueError(f"error weight t must lie in [1, 127], got {t}")


def _class_leaders(f: FunctionSpec) -> list[tuple[int, ...]]:
    """The ranks of each class's minimum-weight members, ascending, in class
    order: one pass over the classes with the ``fields.weights`` table."""
    wt = weights(f.q, f.k)
    leaders = []
    for ranks in coset_decomposition(f).classes:
        best = min(map(wt.__getitem__, ranks))
        leaders.append(tuple(r for r in ranks if wt[r] == best))
    return leaders


def kernel_weight_distribution(f: FunctionSpec) -> dict[int, int]:
    """Count kernel vectors by Hamming weight (linear mode only)."""
    _require_linear(f, "kernel weight distribution")
    dec = coset_decomposition(f)
    wt = weights(f.q, f.k)
    counts: dict[int, int] = {}
    for rank in dec.classes[dec.class_of[0]]:
        counts[wt[rank]] = counts.get(wt[rank], 0) + 1
    return counts


def kernel_weight_sum(f: FunctionSpec) -> int:
    """Sum of Hamming weights over the kernel (linear mode only)."""
    return sum(w * c for w, c in kernel_weight_distribution(f).items())


def function_distance(f: FunctionSpec, a, b) -> int:
    """Minimum Hamming distance between the level sets of values ``a`` and ``b``.

    A direct minimum from the members of class a to those of class b.  For
    linear f one member of class a suffices, as in ``distance.build_fdm``:
    class b less any member u of class a is the same coset whatever u is.
    """
    dec = coset_decomposition(f)
    ia, ib = dec.index_of(a), dec.index_of(b)
    if ia == ib:
        return 0
    idx = f.index
    starts = dec.classes[ia][:1] if f.mode == "linear" else dec.classes[ia]
    us = [idx.vector(r) for r in starts]
    vs = [idx.vector(r) for r in dec.classes[ib]]
    return min(hamming_distance(u, v) for u in us for v in vs)


def min_weight_representatives(f: FunctionSpec) -> list[FieldVec]:
    """One minimum-weight member per class, in class (label) order.

    Ties are broken toward the lowest canonical rank, which makes the
    selection deterministic: the first of ``_class_leaders``; only the
    chosen members are decoded.  Linear mode only.
    """
    _require_linear(f, "minimum-weight representative selection")
    idx = f.index
    return [idx.vector(ranks[0]) for ranks in _class_leaders(f)]


def class_min_weights(f: FunctionSpec) -> list[int]:
    """Minimum Hamming weight of each class, in class order (linear mode)."""
    _require_linear(f, "minimum-weight representative selection")
    wt = weights(f.q, f.k)
    return [wt[ranks[0]] for ranks in _class_leaders(f)]


def count_min_weight_cosets(f: FunctionSpec, i: int) -> int:
    """Number of classes whose minimum Hamming weight equals ``i``.

    ``i`` must lie in [1, k].  For i = 1 this counts the classes reachable by
    some weight-1 vector (any non-zero scalar in one coordinate counts).
    """
    _require_linear(f, "class minimum-weight census")
    if not 1 <= i <= f.k:
        raise ValueError(f"weight {i} out of range [1, {f.k}]")
    return sum(1 for w in class_min_weights(f) if w == i)


@dataclass(frozen=True)
class FunctionClass:
    """Structural classification of a linear function.

    ``unit_basis_class``: the matrix has exactly l distinct non-zero columns,
    so minimum-weight class representatives can be chosen as the span of l
    unit vectors (one per distinct column).

    ``unit_distance_class``: k >= q^l - 1 and the matrix has at least
    q^l - 1 distinct non-zero columns, i.e. every non-zero image value appears
    as a column.  Each non-kernel class then contains a weight-1 vector, so
    every pair of distinct classes lies at function distance 1 and the
    function-distance matrix is constant 2t off the diagonal.
    """

    distinct_nonzero_columns: int
    unit_basis_class: bool
    unit_distance_class: bool


def classify(f: FunctionSpec) -> FunctionClass:
    """Classify a linear function by its column census."""
    _require_linear(f, "classification")
    assert f.matrix is not None
    columns = [tuple(row[j] for row in f.matrix) for j in range(f.k)]
    nonzero = {c for c in columns if any(s != 0 for s in c)}
    l = f.l
    return FunctionClass(
        distinct_nonzero_columns=len(nonzero),
        unit_basis_class=(len(nonzero) == l),
        unit_distance_class=(f.k >= f.q**l - 1 and len(nonzero) >= f.q**l - 1),
    )
