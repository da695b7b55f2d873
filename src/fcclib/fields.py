"""Vectors over prime fields, Hamming metrics, and the canonical vector order.

Every matrix, graph, and file in this package indexes length-n vectors over
F_q by their canonical rank: the integer whose base-q digits (most significant
first) are the vector's symbols.  ``VectorIndex`` realises that bijection.

The rank core adds vectors without decoding them: ``translate`` moves one rank
by a list of sparse differences, ``translate_ranks`` moves a list of ranks by
one difference, ``increment`` moves a whole set of ranks, held as one
bitmask, by a unit vector in two masked shifts, and ``translate_mask`` moves
such a set by a sparse difference, one increment at a time.  ``_cayley_rows``
builds every row of a Cayley graph from row 0 by increments.  Decoding
(``graph.decode``) needs none of them: it moves its ball on the digits of
the received word, which it already holds.  The same one-digit-at-a-time
recurrence lists a span (``span_ranks``: the values of a linear function in
``functions.coset_decomposition``, the cosets of its row space in
``spectrum._shell_sums``) and the table of every rank's Hamming weight
(``weights``), so no reader decodes the whole space to tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from math import comb
from operator import mul, ne

#: Hard cap on how many entries a rank-indexed table or row may hold.
ENUMERATION_LIMIT = 2**24

FieldVec = tuple[int, ...]

#: A difference vector z in sparse form: (rank of z, support, symbols), where
#: support holds the places q^(n-1-position) of its non-zero positions and
#: symbols the values there.  Its Hamming weight is len(support).
Difference = tuple[int, tuple[int, ...], tuple[int, ...]]


def _count_over(q: int, e: int, limit: int) -> str | None:
    """The text of q^e when it exceeds ``limit`` (q >= 2), else None.

    With q >= 2, q^e passes the limit once e reaches the limit's bit length,
    so capping e there decides it without a huge power.  A power of more
    than 100 bits reads as 'q^e': its decimal form may be too long to print.
    """
    if q ** min(e, limit.bit_length()) <= limit:
        return None
    return str(q**e) if e * q.bit_length() <= 100 else f"{q}^{e}"


def is_prime(n: int) -> bool:
    """Return True when ``n`` is a prime integer."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_prime(q: int) -> None:
    """Refuse a field size that is not prime: every result in this package
    is stated for prime fields only."""
    if not is_prime(q):
        raise ValueError(f"field size must be prime, got {q}")


@dataclass(frozen=True)
class VectorIndex:
    """Bijection between ranks ``0..q^n - 1`` and length-``n`` vectors over F_q.

    Rank ``i`` corresponds to the n-digit base-q representation of ``i`` with
    the most significant digit first, so rank 0 is the zero vector and, e.g.,
    rank 5 at (q=2, n=4) is 0101.
    """

    q: int
    n: int

    def __post_init__(self) -> None:
        _check_prime(self.q)
        if self.n < 0:
            raise ValueError(f"vector length must be non-negative, got {self.n}")

    def __len__(self) -> int:
        return self.q**self.n

    def rank(self, v: FieldVec) -> int:
        """Canonical rank of vector ``v``."""
        if len(v) != self.n:
            raise ValueError(f"expected length {self.n}, got {len(v)}")
        r = 0
        for s in v:
            if not 0 <= s < self.q:
                raise ValueError(f"symbol {s} out of range for F_{self.q}")
            r = r * self.q + s
        return r

    def vector(self, rank: int) -> FieldVec:
        """Vector whose canonical rank is ``rank``."""
        if not 0 <= rank < len(self):
            raise ValueError(f"rank {rank} out of range [0, {len(self)})")
        digits = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            rank, digits[i] = divmod(rank, self.q)
        return tuple(digits)

    def all_vectors(self):
        """Iterate every vector in canonical (lexicographic) order."""
        return product(range(self.q), repeat=self.n)


def hamming_distance(x: FieldVec, y: FieldVec) -> int:
    """Number of coordinates where ``x`` and ``y`` disagree, counted in C."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(map(ne, x, y))


def differences(q: int, n: int, lo: int, hi: int) -> list[Difference]:
    """Every z in F_q^n with lo <= wt(z) <= hi, in sparse form, ordered by
    weight, then by support, then by symbols."""
    places = [q ** (n - 1 - p) for p in range(n)]
    out = []
    for w in range(max(lo, 0), min(hi, n) + 1):
        symbol_choices = list(product(range(1, q), repeat=w))
        for support in combinations(places, w):
            for symbols in symbol_choices:
                out.append((sum(map(mul, support, symbols)), support, symbols))
    return out


def negated_difference(q: int, n: int, rank: int) -> Difference:
    """The sparse form of -v, v the length-n vector of rank ``rank``."""
    support = tuple(p for p in (q ** (n - 1 - j) for j in range(n)) if rank // p % q)
    symbols = tuple(q - rank // p % q for p in support)
    return sum(map(mul, support, symbols)), support, symbols


def translate(q: int, i: int, diffs) -> list[int]:
    """Ranks of i + z for each difference z in ``diffs``.

    XOR of ranks when q = 2, a digit-wise sum on the support of z otherwise,
    each digit of i found by division.  ``graph.decode`` holds the received
    word's digits already and adds its ball to them directly.
    """
    if q == 2:
        return [i ^ z for z, _, _ in diffs]
    out = []
    for _, support, symbols in diffs:
        j = i
        for place, symbol in zip(support, symbols):
            digit = i // place % q
            j += ((digit + symbol) % q - digit) * place
        out.append(j)
    return out


def translate_ranks(q: int, ranks: list[int], diff: Difference) -> list[int]:
    """Ranks of i + z for each rank i in ``ranks``, z the difference ``diff``.

    The whole-list form of ``translate``: one XOR per rank when q = 2;
    otherwise the distinct ranks move one digit of the support at a time, and
    a table of them moves a list that repeats ranks.
    """
    rank, support, symbols = diff
    if q == 2:
        return [i ^ rank for i in ranks]
    distinct = list(dict.fromkeys(ranks))
    moved = distinct
    for p, s in zip(support, symbols):
        moved = [j + (((d := j // p % q) + s) % q - d) * p for j in moved]
    if len(distinct) == len(ranks):
        return moved
    return list(map(dict(zip(distinct, moved)).__getitem__, ranks))


def span_ranks(q: int, n: int, vectors) -> list[int]:
    """Ranks in F_q^n of c_1 v_1 + ... + c_m v_m, the sum for c at position
    c_1 + c_2 q + ... + c_m q^(m-1), over ``vectors`` v (each n symbols, read
    once): each v appends q - 1 copies of the list so far, each the last one
    moved by v.  A q^m past ENUMERATION_LIMIT is refused before any list."""
    m = len(vectors)
    if _count_over(q, m, ENUMERATION_LIMIT):
        raise ValueError(
            f"q^k for q={q}, k={m} exceeds the enumeration limit {ENUMERATION_LIMIT}"
        )
    places = [q ** (n - 1 - p) for p in range(n)]
    ranks = [0]
    for v in vectors:
        nonzero = [(p, s) for p, s in zip(places, v) if s]
        support = tuple(p for p, _ in nonzero)
        symbols = tuple(s for _, s in nonzero)
        diff = (sum(map(mul, support, symbols)), support, symbols)
        copies = [ranks]
        for _ in range(1, q):
            copies.append(translate_ranks(q, copies[-1], diff))
        ranks = list(chain.from_iterable(copies))
    return ranks


def weights(q: int, n: int) -> bytes:
    """Hamming weight of every rank of F_q^n, entry i for the vector of rank i.

    A leading digit d != 0 adds one to the weight of the rank below it, so
    each new digit place appends q - 1 copies of the table, shifted by one.
    """
    table = b"\0"
    plus_one = bytes(range(1, 256)) + b"\xff"
    for _ in range(n):
        table += table.translate(plus_one) * (q - 1)
    return table


def increment_masks(q: int, size: int, place: int) -> tuple[int, int]:
    """Masks (step, wrap) over the ranks below ``size``, a power of q above
    ``place``: the ranks whose digit at ``place`` is below q - 1, and those
    where it is q - 1."""
    # One run of `place` ones at the top of every period of q * place bits.
    runs = ((1 << size) - 1) // ((1 << q * place) - 1)
    wrap = ((1 << place) - 1 << (q - 1) * place) * runs
    return (1 << size) - 1 ^ wrap, wrap


def increment(q: int, bits: int, place: int, masks: tuple[int, int]) -> int:
    """The bitmask of ranks ``bits`` translated by the unit vector at
    ``place``: each rank's digit there goes up by one mod q, a whole-row
    permutation in two masked shifts (``masks`` from increment_masks)."""
    step, wrap = masks
    return (bits & step) << place | (bits & wrap) >> (q - 1) * place


def translate_mask(q: int, bits: int, diff: Difference, masks) -> int:
    """The bitmask of ranks ``bits`` translated by the difference ``diff``:
    one ``increment`` per unit of each symbol on its support.  ``masks`` maps
    every place of that support to its increment_masks."""
    _, support, symbols = diff
    for place, symbol in zip(support, symbols):
        for _ in range(symbol):
            bits = increment(q, bits, place, masks[place])
    return bits


def _cayley_rows(q: int, n_vertices: int, diffs: list[Difference]) -> list[int]:
    """Bit-packed rows of the graph on ranks 0..n_vertices-1 whose row i is
    the set i + z over the differences z in ``diffs``.

    Row 0 is the set of difference ranks (0 + z = z); row i is row
    i - place shifted by the unit vector at place, the leading digit place
    of i.
    """
    rows = [_bitmask((z for z, _, _ in diffs), n_vertices)]
    place = 1
    while place < n_vertices:
        masks = increment_masks(q, n_vertices, place)
        for j in range((q - 1) * place):
            rows.append(increment(q, rows[j], place, masks))
        place *= q
    return rows


def _bitmask(bits, size: int) -> int:
    """The set of ranks ``bits``, all below ``size``, as one bitmask."""
    # Setting characters of a '0'/'1' string and parsing it once costs about
    # as much as OR-ing bits into an int on sparse sets and less on dense ones.
    digits = bytearray(b"0") * size
    top = size - 1
    for j in bits:
        digits[top - j] = 49  # ord("1")
    return int(digits, 2)


def hamming_ball_size(q: int, n: int, m: int) -> int:
    """Exact number of vectors within Hamming distance ``m`` of a fixed center.

    Equals sum over i <= min(m, n) of C(n, i) * (q-1)^i; exact integer
    arithmetic.  A radius of n or more counts the whole space.
    """
    if m < 0:
        raise ValueError(f"radius must be non-negative, got {m}")
    return sum(comb(n, i) * (q - 1) ** i for i in range(min(m, n) + 1))


def matrix_rank(q: int, rows: list[FieldVec] | tuple[FieldVec, ...]) -> int:
    """Rank over F_q of the matrix with the given rows (Gaussian elimination)."""
    _check_prime(q)
    return len(_pivot_columns(q, rows))


def _pivot_columns(q: int, rows: list[FieldVec] | tuple[FieldVec, ...]) -> list[int]:
    """The pivot columns, ascending, of the matrix with the given rows over
    F_q: each is the first column outside the span of the columns before it."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(len(work[0]) if work else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(work)) if work[r][c] % q != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], q - 2, q)
        work[rank] = [(s * inv) % q for s in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][c] % q != 0:
                factor = work[r][c]
                work[r] = [(a - factor * b) % q for a, b in zip(work[r], work[rank])]
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return pivots
