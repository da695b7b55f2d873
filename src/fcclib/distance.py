"""Required-distance matrices and exact searches for parity codes meeting them.

A required-distance matrix D over indices 0..M-1 demands d_H(p_i, p_j) >=
D[i][j] for parity words p_i, p_j.  Two constructions are provided: the full
pairwise matrix over all q^k messages (entry [2t+1 - d_H]^+ wherever the
function values differ) and its image-level reduction, the class-wise maximum
of the former.  Both are read off the radius-2t Hamming ball, for any f: a
message u and u + z in another class demand the gap 2t+1 - wt(z).  N_q(D), the
shortest word length admitting a code that meets D, is computed by exact
depth-first search over bitmasks of rank-form words, lowest rank first, on an
explicit stack with no depth limit, like the MIS and optimality_check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from time import monotonic

from .errors import BudgetExceededError, SizeLimitError
from .fields import (
    ENUMERATION_LIMIT,
    FieldVec,
    VectorIndex,
    _bitmask,
    _check_prime,
    _count_over,
    differences,
    hamming_distance,
    translate,
)
from .functions import FunctionSpec, _check_t, coset_decomposition, image_size

PAIRWISE_MATRIX_LIMIT = 4096
"""Largest q^k for which the full message-pairwise matrix is built."""

DEFAULT_MAX_ORDER = 20
"""Largest matrix order accepted by the exact N_q search."""


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric non-negative integer matrix of required pairwise distances.

    ``rows`` holds one bytes row per index (entries 0..255); ``labels`` names
    the indices — domain vectors for the message-pairwise matrix, image values
    for the function-distance matrix.
    """

    rows: tuple[bytes, ...]
    labels: tuple

    def __post_init__(self) -> None:
        m = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != m:
                raise ValueError(f"row {i} has length {len(row)}, expected {m}")
            if row[i] != 0:
                raise ValueError(f"diagonal entry ({i},{i}) must be 0")
        # Columns are walked lazily, never as a transposed copy.  A difference
        # below the diagonal shows in an earlier row, so here j > i.
        for i, column in enumerate(zip(*self.rows)):
            row = self.rows[i]
            if row != bytes(column):
                j = next(j for j, (a, b) in enumerate(zip(row, column)) if a != b)
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        if self.labels and len(self.labels) != m:
            raise ValueError("labels must match the matrix order")

    @property
    def order(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> bytes:
        return self.rows[i]

    def max_entry(self) -> int:
        return max((max(row) for row in self.rows), default=0)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def matrix_from_lists(entries, labels=None) -> DistanceMatrix:
    """Build a DistanceMatrix from nested sequences of ints (entries 0..255)."""
    rows = []
    for row in entries:
        cells = [int(x) for x in row]
        if any(not 0 <= x <= 255 for x in cells):
            raise ValueError("matrix entries must lie in [0, 255]")
        rows.append(bytes(cells))
    if labels is None:
        labels = tuple(range(len(rows)))
    return DistanceMatrix(rows=tuple(rows), labels=tuple(labels))


def _pairwise_order(f: FunctionSpec, t: int) -> int:
    """q^k, the order of the message-pairwise matrix, once t and the order
    pass their checks."""
    _check_t(t)
    q, k = f.q, f.k
    if _count_over(q, k, PAIRWISE_MATRIX_LIMIT):
        raise ValueError(
            f"q^k for q={q}, k={k} exceeds the pairwise-matrix limit "
            f"{PAIRWISE_MATRIX_LIMIT}"
        )
    return q**k


def build_drm(f: FunctionSpec, t: int) -> DistanceMatrix:
    """Message-pairwise required-distance matrix of order q^k.

    Entry (i, j) is [2t+1 - d_H(u_i, u_j)]^+ when f(u_i) != f(u_j) and 0
    otherwise, with rows and columns in canonical rank order.
    """
    size = _pairwise_order(f, t)
    cls = coset_decomposition(f).class_of
    need = 2 * t + 1
    # Only messages within distance 2t of u_i can need a gap: row i is filled
    # from the ball i + z, wt(z) <= 2t, and frozen before the next is built.
    ball = differences(f.q, f.k, 1, 2 * t)
    gaps = [need - len(support) for _, support, _ in ball]
    rows = []
    for i in range(size):
        row = bytearray(size)
        cls_i = cls[i]
        for j, gap in zip(translate(f.q, i, ball), gaps):
            if cls[j] != cls_i:
                row[j] = gap
        rows.append(bytes(row))
    labels = tuple(f.index.all_vectors())
    return DistanceMatrix(rows=tuple(rows), labels=labels)


def build_fdm(f: FunctionSpec, t: int) -> DistanceMatrix:
    """Image-level required-distance matrix of order |Im(f)|.

    Entry (a, b) is [2t+1 - d_f]^+ off the diagonal, where d_f is the minimum
    Hamming distance between the classes of image values a and b; labels are
    the image values in first-appearance order.  Row a, the class-wise maximum
    of the pairwise rows, is read off the radius-2t balls around class a, one
    weight shell at a time, nearest first, so an entry is final once set.
    Each pair is owned by its smaller class (the lower index on a tie), and a
    class walks only while it owns an unset pair: a class farther than 2t
    from the others keeps no larger class walking.  For linear f one member
    u per class starts a walk (as v runs over class b, v - u runs over the
    coset b - a whatever u is), at up to |Im(f)| * V(k, 2t) translates; table
    f walks from every message, at up to q^k * V(k, 2t).  Beyond the class
    map, one weight shell is held at a time.
    """
    _check_t(t)
    dec = coset_decomposition(f)
    cls = dec.class_of
    m = len(dec)
    starts = [c[0] for c in dec.classes] if f.mode == "linear" else range(f.q**f.k)
    rows = [bytearray(m) for _ in dec.labels]
    pos = [0] * m  # pairs are owned by the class earlier in this order
    for p, a in enumerate(sorted(range(m), key=lambda a: (len(dec.classes[a]), a))):
        pos[a] = p
    unset = [m - 1 - p for p in pos]  # owned pairs of each row still 0
    for w in range(1, min(2 * t, f.k) + 1):
        if not any(unset):
            break
        shell, gap = differences(f.q, f.k, w, w), 2 * t + 1 - w
        for i in starts:
            a = cls[i]
            if not unset[a]:
                continue
            row = rows[a]
            for j in translate(f.q, i, shell):
                b = cls[j]
                if not row[b] and b != a:
                    row[b] = rows[b][a] = gap
                    unset[a if pos[a] < pos[b] else b] -= 1
    return DistanceMatrix(rows=tuple(bytes(r) for r in rows), labels=dec.labels)


@dataclass(frozen=True)
class ParityCode:
    """An ordered list of parity words over F_q, all of one length."""

    q: int
    r: int
    words: tuple[FieldVec, ...]

    def __post_init__(self) -> None:
        for w in self.words:
            if len(w) != self.r:
                raise ValueError(f"word {w} has length {len(w)}, expected {self.r}")
            if any(not 0 <= s < self.q for s in w):
                raise ValueError(f"word {w} has symbols outside [0, {self.q})")

    def __len__(self) -> int:
        return len(self.words)


def verify_d_code(code: ParityCode, D: DistanceMatrix) -> bool:
    """True iff the code's pairwise distances dominate D under its ordering."""
    if len(code) != D.order:
        raise ValueError(
            f"code has {len(code)} words but the matrix has order {D.order}"
        )
    for i in range(D.order):
        row = D[i]
        for j in range(i + 1, D.order):
            if row[j] and hamming_distance(code.words[i], code.words[j]) < row[j]:
                return False
    return True


@dataclass(frozen=True)
class NqSearchResult:
    """Outcome of the exact N_q search.

    ``found`` distinguishes success from exhausting r_cap (a proved negative
    up to the cap, not a budget failure); on success ``n`` is the smallest
    word length and ``witness`` a code meeting the matrix at that length.
    """

    found: bool
    n: int | None
    witness: ParityCode | None
    r_cap: int


def _refuse_order(order: int) -> None:
    """Refuse a matrix order above DEFAULT_MAX_ORDER (read at call time)."""
    if order > DEFAULT_MAX_ORDER:
        raise SizeLimitError(
            f"matrix order {order} exceeds the search limit {DEFAULT_MAX_ORDER}"
        )


def n_q_exact(
    D: DistanceMatrix,
    q: int,
    r_cap: int | None = None,
    deadline: float | None = None,
) -> NqSearchResult:
    """Smallest word length admitting a code that meets D, with a witness.

    Scans lengths upward from D's largest entry (no shorter length can satisfy
    it), so the first success is minimal.  Each length is searched depth first
    on an explicit stack with no depth limit, like the MIS and optimality_check:
    row L takes the lowest rank left in its domain, the words at distance >=
    D[L][j] from each chosen c_j (row 0 holds only zero).  A word narrows the
    later rows' domains and is dropped when one empties (forward checking): the
    witness is the plain search's.  Exhausting r_cap gives ``found=False``; a
    non-prime q, an empty D or a negative r_cap raises ValueError, an order
    above DEFAULT_MAX_ORDER or a q^r above ENUMERATION_LIMIT SizeLimitError, and
    passing ``deadline`` (read per row entered) BudgetExceededError.
    """
    _check_prime(q)
    if D.order == 0:
        raise ValueError("the requirement matrix is empty")
    if r_cap is None:
        r_cap = 12 if q == 2 else 8
    if r_cap < 0:
        raise ValueError(f"the length cap must be >= 0, got {r_cap}")
    _refuse_order(D.order)
    for r in range(D.max_entry(), r_cap + 1):
        if over := _count_over(q, r, ENUMERATION_LIMIT):
            raise SizeLimitError(f"q^r = {over} exceeds the limit {ENUMERATION_LIMIT}")
        m, size, full = D.order, q**r, (1 << q**r) - 1
        balls = {e: differences(q, r, 0, e - 1) for e in set(b"".join(D.rows)) if e}
        # Words at distance >= e from word c, one cache per e; at most 16 MiB held.
        cap = (1 << 27) // (size * len(balls) or 1) + 1
        far = {
            e: lru_cache(cap)(lambda c, b=b: full ^ _bitmask(translate(q, c, b), size))
            for e, b in balls.items()
        }
        later = [
            [(j, far[e]) for j, e in enumerate(row[i + 1 :], i + 1) if e]
            for i, row in enumerate(D.rows)
        ]
        # One frame (domains, untried words, chosen word) per row above `level`.
        domains, allowed, level, stack = [1] + [full] * (m - 1), 1, 0, []
        if deadline is not None and monotonic() > deadline:
            raise BudgetExceededError("parity-code search exceeded the time budget")
        while allowed or stack:
            if not allowed:
                (domains, allowed, _), level = stack.pop(), level - 1
                continue
            low = allowed & -allowed
            allowed ^= low
            c = low.bit_length() - 1
            narrowed = domains.copy()
            for j, fe in later[level]:
                narrowed[j] &= fe(c)
                if not narrowed[j]:
                    break
            else:
                level += 1
                if level == m:
                    break
                if deadline is not None and monotonic() > deadline:
                    raise BudgetExceededError(
                        "parity-code search exceeded the time budget"
                    )
                stack.append((domains, allowed, c))
                domains, allowed = narrowed, narrowed[level]
        if level == m:
            ranks = [frame[2] for frame in stack] + [c]
            witness = ParityCode(q, r, tuple(map(VectorIndex(q, r).vector, ranks)))
            assert verify_d_code(witness, D)
            return NqSearchResult(found=True, n=r, witness=witness, r_cap=r_cap)
    return NqSearchResult(found=False, n=None, witness=None, r_cap=r_cap)


def _fdm_search(
    f: FunctionSpec, t: int, r_cap: int | None, deadline: float | None, fdm=None
) -> tuple[NqSearchResult, DistanceMatrix]:
    """n_q_exact on ``fdm``, built as build_fdm(f, t) when None, and the
    matrix searched; an image above the search limit is refused before the
    matrix is built."""
    _check_t(t)
    _refuse_order(image_size(f))
    fdm = build_fdm(f, t) if fdm is None else fdm
    return n_q_exact(fdm, f.q, r_cap=r_cap, deadline=deadline), fdm


def binary_plotkin_bound(D: DistanceMatrix) -> Fraction:
    """Averaging lower bound on the binary N_2(D): (4/M^2) * sum of the
    above-diagonal entries for even order M, with M^2 - 1 replacing M^2 when
    M is odd.  The integer form is the ceiling of the returned rational."""
    m = D.order
    return _plotkin(sum(sum(D[i][i + 1 :]) for i in range(m - 1)), m)


def _plotkin(total: int, m: int) -> Fraction:
    if m < 2:
        return Fraction(0)
    denom = m * m if m % 2 == 0 else m * m - 1
    return Fraction(4 * total, denom)


def _pairwise_plotkin(f: FunctionSpec, t: int) -> Fraction:
    """binary_plotkin_bound(build_drm(f, t)), read off the weight shells
    without the matrix: the above-diagonal sum is half of
    sum_w c_w * (2t+1 - w), c_w the ordered pairs (u, u + z) with wt(z) = w
    in different classes.  For linear f, c_w is q^k times the shell's members
    outside the zero class: one walk from message 0, with no cap beyond the
    class map's.  Table f walks each shell from every message, so it keeps
    build_drm's cap and raises build_drm's ValueErrors."""
    _check_t(t)
    starts = [0] if f.mode == "linear" else range(_pairwise_order(f, t))
    cls = coset_decomposition(f).class_of
    size = len(cls)
    total = 0
    for w in range(1, min(2 * t, f.k) + 1):
        shell = differences(f.q, f.k, w, w)
        crossing = sum(
            cls[j] != cls[i] for i in starts for j in translate(f.q, i, shell)
        )
        total += crossing * (2 * t + 1 - w)
    if f.mode == "linear":
        total *= size
    return _plotkin(total // 2, size)
