"""Function-dependent conflict graphs, code extraction, verification and decoding.

Vertices are all (message, parity) concatenations, indexed by canonical rank.
Two vertices conflict (are adjacent) when they cannot coexist in one code:
either they share the message part, or their function values differ while the
concatenated words sit closer than the required distance 2t+1.  An
independent set with one vertex per message is exactly an encoder table.

For linear f adjacency depends only on the difference of two vertices, so the
graph is a Cayley graph on F_q^(k+r): row i is i + S for the connection set S
read off row 0; for table functions row i is read off the radius-2t ball
around i, filtered by function class.  Either way only row 0 is built point
by point: every other row is an earlier one translated by a unit vector, one
digit shift of the whole bit-packed row (``fields.increment``).  The block-
circulant check applies the same shift to every row and compares.  The
violation search translates bit planes of the class index and the parity
symbols, one bitmask of message ranks each, by every difference of weight up
to 2t (``fields.translate_mask``), so it checks all message pairs at that
difference in O(r log q + log m) whole-mask operations for m classes.
Decoding reads the received message digits once and moves the radius-t
Hamming ball on them, comparing each candidate's parity word in C.

A class encoder gives every message of a class of f one parity word.  It
is an FCC exactly when those words meet the function-distance matrix
(Lenz et al.), so an encoder of a linear f with a small image keeps one
class view: the words, checked once against ``build_fdm(f, t)``.  Small
means m^2 <= q^k for m classes: the matrix then has no more entries than
the table has words, and building it walks at most m * V(k, 2t)
translates where the sweep makes V(k, 2t) passes over q^k-bit masks.
With the view, verification is that check, and decoding tries only the
classes within t of the received message's class, read off the matrix:
at most V(k, t) of them, one per message of the ball that the walk would
visit.  A larger image (an injective f has m^2 = q^(2k)), a table f (whose
matrix walks every message), graph-searched parity that is not class-wise
and a broken class encoder keep the bit-plane sweep and the ball walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .distance import DistanceMatrix, ParityCode, build_fdm, verify_d_code
from .errors import CodeNotFoundError, DecodingFailureError
from .fields import (
    Difference,
    VectorIndex,
    _bitmask,
    _count_over,
    differences,
    hamming_distance,
    increment,
    increment_masks,
    translate,
    translate_mask,
)
from .functions import (
    CosetDecomposition,
    FunctionSpec,
    _check_t,
    coset_decomposition,
)
from .mis import DEFAULT_NODE_BUDGET, MisResult, max_independent_set

GRAPH_VERTEX_LIMIT = 2**16
EXACT_ALPHA_LIMIT = 2**11


@dataclass(frozen=True)
class FccGraph:
    """Conflict graph on q^(k+r) vertices with bit-packed adjacency rows.

    Vertex rank = rank(message) * q^r + rank(parity), i.e. the canonical
    rank of the concatenated digit string.
    """

    q: int
    k: int
    r: int
    t: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        expect = self.q ** (self.k + self.r)
        if len(self.rows) != expect:
            raise ValueError(f"expected {expect} adjacency rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")

    @property
    def n_vertices(self) -> int:
        return len(self.rows)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


@dataclass(frozen=True)
class FccEncoder:
    """Systematic encoder: message u maps to the codeword (u, parity[rank(u)]).

    When f is linear with m^2 <= q^k classes, every class shares one
    parity word and the words meet f's function-distance matrix (or
    ``cosets._class_encoder`` checked them on a matrix it was given),
    ``_class_view`` holds them and the matrix, and ``find_fcc_violation``
    and ``decode`` read it instead of the messages."""

    f: FunctionSpec
    t: int
    r: int
    parity: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_t(self.t)
        if self.r < 0:
            raise ValueError("r must be >= 0")
        # As for FunctionSpec's table: q^k is formed only up to the length.
        n = len(self.parity)
        expect = _count_over(self.f.q, self.f.k, n) or self.f.q**self.f.k
        if expect != n:
            raise ValueError(f"expected {expect} parity words, got {n}")
        for word in self.parity:
            if len(word) != self.r:
                raise ValueError(f"parity word {word} does not have length {self.r}")
            if any(not 0 <= d < self.f.q for d in word):
                raise ValueError(f"parity word {word} has symbols outside F_{self.f.q}")

    @property
    def q(self) -> int:
        return self.f.q

    @property
    def k(self) -> int:
        return self.f.k

    def encode(self, u: tuple[int, ...]) -> tuple[int, ...]:
        """Codeword for message u."""
        rank = VectorIndex(self.f.q, self.f.k).rank(u)
        return tuple(u) + self.parity[rank]

    @cached_property
    def _ball(self) -> tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]:
        """The message differences of weight at most t as (weight, moves),
        moves = ((position, symbol, place), ...), built once for ``decode``."""
        q, k = self.f.q, self.f.k
        position = {q ** (k - 1 - p): p for p in range(k)}
        return tuple(
            (len(support), tuple(zip(map(position.get, support), symbols, support)))
            for _, support, symbols in differences(q, k, 0, self.t)
        )

    @cached_property
    def _classes(self) -> CosetDecomposition:
        """f's class map and labels, looked up once for ``decode`` and the
        class view."""
        return coset_decomposition(self.f)

    @cached_property
    def _class_view(self) -> tuple[tuple[tuple[int, ...], ...], DistanceMatrix] | None:
        """(words, FDM) when parity[u] is words[class of u] for every u and
        the words meet ``build_fdm(f, t)``, else None: O(q^k) to read the
        words, then the matrix and its check on the classes alone.  Only a
        linear f with m^2 <= q^k classes is tried: for any other f the
        matrix walks every message (table f) or has more entries than the
        table has words, so the bit-plane sweep serves it.
        ``cosets._class_encoder`` sets the view of words it has checked."""
        classes = self._classes
        if self.f.mode != "linear" or len(classes) ** 2 > len(self.parity):
            return None
        words = tuple(self.parity[members[0]] for members in classes.classes)
        if tuple(map(words.__getitem__, classes.class_of)) != self.parity:
            return None
        fdm = build_fdm(self.f, self.t)
        if not verify_d_code(ParityCode(self.f.q, self.r, words), fdm):
            return None
        return words, fdm

    @cached_property
    def _near(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per class c of the class view, (a, distance from c) for c itself
        at 0 and every class a within t of c, built once for ``decode``.
        Class a lies 2t+1 - e from c for an FDM entry e = D[c][a] > 0 (a
        coset distance, the same from every member of c), so within t
        only when e > t."""
        need = 2 * self.t + 1
        return tuple(
            ((c, 0), *((a, need - e) for a, e in enumerate(row) if e > self.t))
            for c, row in enumerate(self._class_view[1].rows)
        )


def _connection_set(f: FunctionSpec, t: int, r: int) -> list[Difference]:
    """Differences z with vertex 0 adjacent to vertex z: a non-zero parity
    part alone, or a message outside f's zero class with wt(z) < 2t+1."""
    p_count = f.q**r
    cls = coset_decomposition(f).class_of
    return differences(f.q, r, 1, r) + [
        z
        for z in differences(f.q, f.k + r, 1, 2 * t)
        if cls[z[0] // p_count] != cls[0]
    ]


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


def build_graph(f: FunctionSpec, t: int, r: int) -> FccGraph:
    """Conflict graph for candidate codes of redundancy r protecting f at radius t.

    Edge rule: distinct vertices (u, p), (u', p') are adjacent when u == u',
    or when f(u) != f(u') and the concatenations differ in fewer than 2t+1
    positions.
    """
    _check_t(t)
    if r < 0:
        raise ValueError("r must be >= 0")
    q, k = f.q, f.k
    over = _count_over(q, k + r, GRAPH_VERTEX_LIMIT)
    if over:
        raise ValueError(
            f"graph would have {over} vertices; limit is {GRAPH_VERTEX_LIMIT}"
        )
    n_vertices = q ** (k + r)
    if f.mode == "linear":
        rows = _cayley_rows(q, n_vertices, _connection_set(f, t, r))
        return FccGraph(q=q, k=k, r=r, t=t, rows=tuple(rows))

    # Table functions are not translation invariant: row i is the radius-2t
    # ball around i less the vertices whose message shares i's class, plus
    # the other vertices of i's own message.  One class mask at a time.
    p_count = q**r
    block = (1 << p_count) - 1
    rows = _cayley_rows(q, n_vertices, differences(q, k + r, 1, 2 * t))
    for members in coset_decomposition(f).classes:
        outside = ~sum(block << (u * p_count) for u in members)
        for u in members:
            own = block << (u * p_count)
            for i in range(u * p_count, (u + 1) * p_count):
                rows[i] = (rows[i] & outside) | (own ^ (1 << i))
    return FccGraph(q=q, k=k, r=r, t=t, rows=tuple(rows))


def independence_number(
    G: FccGraph,
    target: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    deadline: float | None = None,
) -> MisResult:
    """Exact independence number of G, or a decision once ``target`` is hit.

    Exact mode (no target) is restricted to graphs of at most 2^11 vertices;
    decision mode accepts anything that was buildable.
    """
    if target is None and G.n_vertices > EXACT_ALPHA_LIMIT:
        raise ValueError(
            f"exact search limited to {EXACT_ALPHA_LIMIT} vertices; "
            f"got {G.n_vertices} (pass a target for decision mode)"
        )
    return max_independent_set(
        G.rows, target=target, node_budget=node_budget, deadline=deadline
    )


def extract_fcc(
    G: FccGraph,
    f: FunctionSpec,
    t: int,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    deadline: float | None = None,
) -> FccEncoder:
    """Extract an encoder from an independent set of size q^k in G.

    Raises CodeNotFoundError when the search proves no such set exists, and
    BudgetExceededError when the search ran out of nodes first.
    """
    if f.q != G.q or f.k != G.k or t != G.t:
        raise ValueError("graph was built for different (f, t) parameters")
    target = G.q**G.k
    result = max_independent_set(
        G.rows, target=target, node_budget=node_budget, deadline=deadline
    )
    if result.size < target:
        raise CodeNotFoundError(
            f"no independent set of size {target} at redundancy {G.r}"
        )
    p_count = G.q**G.r
    par_index = VectorIndex(G.q, G.r)
    parity: list[tuple[int, ...] | None] = [None] * target
    for v in result.members:
        u_rank, p_rank = divmod(v, p_count)
        if parity[u_rank] is not None:
            raise CodeNotFoundError(
                "independent set repeats a message value; no encoder extracted"
            )
        parity[u_rank] = par_index.vector(p_rank)
    if any(word is None for word in parity):
        raise CodeNotFoundError(
            "independent set misses a message value; no encoder extracted"
        )
    return FccEncoder(f=f, t=t, r=G.r, parity=tuple(parity))


def find_fcc_violation(
    E: FccEncoder,
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """First message pair breaking the distance property, as (u_i, u_j,
    codeword distance), or None when the encoder is a valid code.

    An encoder with a class view is valid by that view's check and returns
    None.  Otherwise pairs are taken in lexicographic rank order.
    Messages more than 2t apart meet the distance on the message part
    alone, so only differences z of weight 1..2t matter, and each is
    checked for all q^k messages at once.  The class index and every
    parity symbol are bit-sliced into planes, one bitmask of ranks each;
    translating a plane by z and XOR-ing marks the ranks i whose class or
    symbol differs from that of i - z.
    A bit-sliced counter of differing parity positions then gives the ranks
    in a pair at z that is closer than 2t+1: O(V(k, 2t) * (r log q + log m))
    whole-mask operations for m classes, no per-pair work.  Both ends of
    every violating pair join one union mask, so its lowest bit is the
    smaller message of the first pair; only that message's row is then
    walked pair by pair.
    """
    if E._class_view is not None:
        return None
    q, k = E.f.q, E.f.k
    size = q**k
    cls = coset_decomposition(E.f).class_of
    need = 2 * E.t + 1
    near = differences(q, k, 1, 2 * E.t)
    masks = {q**p: increment_masks(q, size, q**p) for p in range(k)}

    def planes(values) -> list[int]:
        """Bit b of every rank's value, one bitmask of ranks per b."""
        top = max(values, default=0).bit_length()
        return [
            _bitmask((i for i, v in enumerate(values) if v >> b & 1), size)
            for b in range(top)
        ]

    def changed(bit_planes: list[int], z: Difference) -> int:
        out = 0
        for plane in bit_planes:
            out |= plane ^ translate_mask(q, plane, z, masks)
        return out

    labels = planes(cls)
    symbols = [planes([word[s] for word in E.parity]) for s in range(E.r)]
    union = 0
    for z in near:
        cross = changed(labels, z)
        if not cross:
            continue
        # at_least[c]: ranks in ``cross`` whose parity differs from that of
        # their partner in at least c positions, for c up to what z needs.
        at_least = [cross] + [0] * (need - len(z[1]))
        for position in symbols:
            differ = changed(position, z)
            for c in range(len(at_least) - 1, 0, -1):
                at_least[c] |= at_least[c - 1] & differ
            if at_least[-1] == cross:
                break
        union |= cross ^ at_least[-1]
        if union & 1:
            break  # no pair can start below message 0
    if not union:
        return None
    i = (union & -union).bit_length() - 1
    j, d = min(
        (j, d)
        for (_, support, _), j in zip(near, translate(q, i, near))
        if j > i
        and cls[j] != cls[i]
        and (d := len(support) + hamming_distance(E.parity[i], E.parity[j])) < need
    )
    msg_index = VectorIndex(q, k)
    return (msg_index.vector(i), msg_index.vector(j), d)


def verify_fcc(E: FccEncoder) -> bool:
    """Check the defining distance property over all message pairs."""
    return find_fcc_violation(E) is None


def decode(E: FccEncoder, y: tuple[int, ...]):
    """Function value of the nearest codeword to y, if one lies within radius t.

    A linear f with a class view decodes on the classes: y's message part
    lies in class c, and the candidates are c and the classes within t of
    it (``FccEncoder._near``), each at its class distance plus its word's
    distance to y's parity part.  At most one candidate is within t: two
    classes within t of y would be within 2t of each other, which the view
    rules out.  So the first one found is the answer, with no tie to break.
    A class within t of c has a member within t of y's message part, so
    there are at most V(k, t) candidates, with no digits to move.

    Otherwise ties go to the lowest message rank.  A codeword within t of y
    has its message within t of y's message part, so only that radius-t
    ball is searched.  The message digits of y are read once into a rank;
    each ball entry moves that rank by the digits it changes, and its
    parity word is compared with y's in C (``hamming_distance``): O(V(k, t))
    entries per word, O(r) work each.  Either way the value is read off f's
    class map, held on the encoder, with no message decoded or evaluated.
    Raises DecodingFailureError when every codeword is farther than t; the
    decoder never guesses.
    """
    q, k, r, t = E.f.q, E.f.k, E.r, E.t
    if len(y) != k + r:
        raise ValueError(f"received word must have length {k + r}")
    if any(not 0 <= d < q for d in y):
        raise ValueError(f"received word {y} has symbols outside F_{q}")
    head = 0
    for d in y[:k]:
        head = head * q + d
    tail, classes = tuple(y[k:]), E._classes
    view = E._class_view if E.f.mode == "linear" else None
    if view is not None:
        words = view[0]
        for a, d in E._near[classes.class_of[head]]:
            if d + hamming_distance(words[a], tail) <= t:
                return classes.labels[a]
    else:
        parity, candidates = E.parity, []
        for weight, moves in E._ball:
            u = head
            for p, s, place in moves:
                u += ((y[p] + s) % q - y[p]) * place
            candidates.append((weight + hamming_distance(parity[u], tail), u))
        best_d, best_rank = min(candidates)
        if best_d <= t:
            return classes.labels[classes.class_of[best_rank]]
    raise DecodingFailureError(
        f"no codeword within distance {t} of the received word"
    )


@dataclass(frozen=True)
class BlockCirculantReport:
    """Outcome of the nested circulant-structure check; truthy when it holds.

    ``violation`` pinpoints the first failure as (digit position, row rank,
    column rank): incrementing that digit of both coordinates changed the
    adjacency entry.
    """

    holds: bool
    violation: tuple[int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.holds


def verify_block_circulant(G: FccGraph, f: FunctionSpec) -> BlockCirculantReport:
    """Check that the adjacency matrix is circulant in q-by-q blocks at every
    nesting level, i.e. invariant under jointly incrementing any one digit of
    the row and column indices.  Row x shifted by that digit must equal the
    row of x + e; each comparison is one whole-row digit shift.
    """
    if f.q != G.q:
        raise ValueError("function and graph disagree on the field size")
    q = G.q
    n = G.k + G.r
    for position in range(n):
        place = q ** (n - 1 - position)
        masks = increment_masks(q, G.n_vertices, place)
        unit = ((place, (place,), (1,)),)
        for x, row in enumerate(G.rows):
            (image,) = translate(q, x, unit)
            diff = increment(q, row, place, masks) ^ G.rows[image]
            if diff:
                y = (diff & -diff).bit_length() - 1
                return BlockCirculantReport(
                    holds=False, violation=(position, image, y)
                )
    return BlockCirculantReport(holds=True)
