"""Shared oracles and factories for the test suite.

Everything here is deliberately naive and independent of the library's own
algorithms: itertools enumeration instead of rank arithmetic, dense nested
loops instead of bit tricks, plain recursion instead of branch-and-bound.
If a library result and an oracle result disagree, trust the oracle.
The exceptions are ``reference_mis``, the solver's own search in plain bit
order, ``slow_transform``, the group-ring transform one entry at a time,
``row_spectrum``, that transform run on a whole length-q^(k+r) row instead
of the message shells, ``reference_optimality``,
the certificate's search against a built function-distance matrix, and
``reference_code_graph``, the A_q code graph built one word at a time, kept
to check that the library's faster kernels explore the same trees.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import sub

from fcclib import (
    BudgetExceededError,
    MisResult,
    SpectralBoundResult,
    coset_decomposition,
    linear_function,
    table_function,
)
from fcclib.distance import build_fdm
from fcclib.fields import differences, translate
from fcclib.functions import _class_leaders


def all_words(q, n):
    """Every length-n word over {0..q-1} in lexicographic order."""
    return list(itertools.product(range(q), repeat=n))


def slow_distance(x, y):
    assert len(x) == len(y)
    return sum(1 for a, b in zip(x, y) if a != b)


def slow_weight(x):
    return sum(1 for s in x if s != 0)


def clip(x):
    return x if x > 0 else 0


def slow_coset_decomposition(f):
    """(labels, classes, class_of) by evaluating f on every message in
    canonical order, labels in first-appearance order."""
    seen, classes, class_of = {}, [], []
    for rank, u in enumerate(all_words(f.q, f.k)):
        value = f.eval(u)
        if value not in seen:
            seen[value] = len(classes)
            classes.append([])
        classes[seen[value]].append(rank)
        class_of.append(seen[value])
    return tuple(seen), tuple(map(tuple, classes)), tuple(class_of)


def slow_kernel_weights(f):
    """Kernel vectors of a linear f counted by weight, in order of first
    appearance over ascending ranks."""
    counts = {}
    for u in all_words(f.q, f.k):
        if not any(f.eval(u)):
            counts[slow_weight(u)] = counts.get(slow_weight(u), 0) + 1
    return counts


def slow_min_weight_representatives(f):
    """The lowest-ranked member of least weight in each class."""
    _, classes, _ = slow_coset_decomposition(f)
    words = all_words(f.q, f.k)
    return [min((words[r] for r in c), key=slow_weight) for c in classes]


def slow_optimality(f, t):
    """Whether one least-weight member per class can be picked so that every
    pair of picks demands exactly the FDM entry of its two classes."""
    entries, labels = slow_fdm(f, t)
    words = all_words(f.q, f.k)
    vals = [f.eval(u) for u in words]
    candidates = []
    for label in labels:
        members = [u for u, v in zip(words, vals) if v == label]
        least = min(map(slow_weight, members))
        candidates.append([u for u in members if slow_weight(u) == least])
    return any(
        all(
            clip(2 * t + 1 - slow_distance(pick[a], pick[b])) == entries[a][b]
            for a, b in itertools.combinations(range(len(labels)), 2)
        )
        for pick in itertools.product(*candidates)
    )


def reference_optimality(f, t):
    """(verdict, nodes) of ``optimality_check``'s depth-first search, run
    against the built function-distance matrix with tuple distances: one
    minimum-weight candidate per class, fewest candidates first, each pair
    with a non-zero entry compared, one node per candidate tried."""
    fdm = build_fdm(f, t)
    vector = f.index.vector
    candidates = _class_leaders(f)
    order = sorted(range(len(candidates)), key=lambda c: len(candidates[c]))
    picks = {}
    nodes = 0

    def extend(depth):
        nonlocal nodes
        if depth == len(order):
            return True
        c = order[depth]
        for rank in candidates[c]:
            nodes += 1
            u = vector(rank)
            if all(
                2 * t + 1 - slow_distance(v, u) == fdm[c][b]
                for b, v in picks.items()
                if fdm[c][b]
            ):
                picks[c] = u
                if extend(depth + 1):
                    return True
                del picks[c]
        return False

    return extend(0), nodes


def slow_drm(f, t):
    """Pairwise requirement matrix straight from its definition."""
    words = all_words(f.q, f.k)
    vals = [f.eval(u) for u in words]
    return [
        [
            clip(2 * t + 1 - slow_distance(u, v)) if vals[i] != vals[j] else 0
            for j, v in enumerate(words)
        ]
        for i, u in enumerate(words)
    ]


def slow_fdm(f, t):
    """Class-level requirement matrix via direct cross-class minimisation."""
    words = all_words(f.q, f.k)
    vals = [f.eval(u) for u in words]
    labels = []
    for v in vals:
        if v not in labels:
            labels.append(v)
    m = len(labels)
    entries = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            d = min(
                slow_distance(u, v)
                for u, vu in zip(words, vals)
                if vu == labels[i]
                for v, vv in zip(words, vals)
                if vv == labels[j]
            )
            entries[i][j] = clip(2 * t + 1 - d)
    return entries, labels


def slow_adjacency(f, t, r):
    """Conflict-graph adjacency straight from its definition."""
    words = all_words(f.q, f.k + r)
    vals = [f.eval(w[: f.k]) for w in words]
    n = len(words)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            same_message = words[i][: f.k] == words[j][: f.k]
            conflict = (
                vals[i] != vals[j]
                and slow_distance(words[i], words[j]) < 2 * t + 1
            )
            if same_message or conflict:
                adj[i][j] = adj[j][i] = 1
    return adj


def slow_code_graph(q, n, d):
    """Bit-packed rows of the graph on F_q^n joining distinct words closer
    than d, straight from the definition."""
    words = all_words(q, n)
    return rows_from_lists(
        [[int(u != v and slow_distance(u, v) < d) for v in words] for u in words]
    )


def reference_code_graph(q, n, d):
    """The A_q code graph as a_q_exact built it word by word: the non-zero
    words ``keep`` at distance >= d from zero, and for each one the bitmask,
    over positions in ``keep``, of its translates by the non-zero words of
    weight below d that stay in ``keep``."""
    ball = differences(q, n, 1, d - 1)
    keep = sorted(set(range(1, q**n)).difference(z for z, _, _ in ball))
    pos = {v: i for i, v in enumerate(keep)}
    sub = [
        sum(1 << pos[w] for w in translate(q, v, ball) if w in pos)
        for v in keep
    ]
    return keep, sub


def slow_search_at_length(entries, q, r):
    """First code of length r meeting the requirement matrix ``entries``
    (nested lists), as a tuple of words, or None when there is none.

    Depth first over the words in lexicographic order, each candidate
    checked against every chosen word, with the first word pinned to zero:
    the tuple-form scan the library's rank-form search must reproduce.
    """
    m = len(entries)
    words = all_words(q, r)
    chosen = [(0,) * r]

    def extend(level):
        if level == m:
            return True
        for cand in words:
            if all(
                slow_distance(cand, chosen[j]) >= entries[level][j]
                for j in range(level)
            ):
                chosen.append(cand)
                if extend(level + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if extend(1) else None


def rand_parity(rng, q, k, r):
    """Random parity table: one length-r word per message, no code property."""
    return tuple(tuple(rng.randrange(q) for _ in range(r)) for _ in range(q**k))


def brute_decode(E, y):
    """Value of the nearest codeword to y, ties going to the lowest message
    rank, or None when every codeword is farther than t."""
    words = all_words(E.q, E.k)
    d, rank = min(
        (slow_distance(u + E.parity[i], y), i) for i, u in enumerate(words)
    )
    return E.f.eval(words[rank]) if d <= E.t else None


def brute_violation(E):
    """First message pair in lexicographic order whose values differ and
    whose codewords lie closer than 2t+1, as (u, v, distance), or None."""
    words = all_words(E.q, E.k)
    vals = [E.f.eval(u) for u in words]
    for i, u in enumerate(words):
        for j in range(i + 1, len(words)):
            if vals[i] != vals[j]:
                d = slow_distance(u + E.parity[i], words[j] + E.parity[j])
                if d < 2 * E.t + 1:
                    return (u, words[j], d)
    return None


def slow_violation(E):
    """The first violating pair as the message-by-message ball walk finds it:
    for each message i in rank order, every j > i in the radius-2t ball
    around i, one codeword distance per pair; (u_i, u_j, distance) or None.
    """
    q, k = E.q, E.k
    cls = coset_decomposition(E.f).class_of
    need = 2 * E.t + 1
    near = differences(q, k, 1, 2 * E.t)
    for i in range(q**k):
        hits = [
            (j, d)
            for (_, support, _), j in zip(near, translate(q, i, near))
            if j > i
            and cls[j] != cls[i]
            and (d := len(support) + slow_distance(E.parity[i], E.parity[j])) < need
        ]
        if hits:
            j, d = min(hits)
            words = all_words(q, k)
            return (words[i], words[j], d)
    return None


def slow_block_circulant(G):
    """First (digit position, row, column) where incrementing one digit of
    both indices changes the adjacency entry, rows and then columns in rank
    order, or None; words are added symbol by symbol."""
    n = G.k + G.r
    words = all_words(G.q, n)
    rank = {w: i for i, w in enumerate(words)}
    for position in range(n):
        step = [
            rank[w[:position] + ((w[position] + 1) % G.q,) + w[position + 1 :]]
            for w in words
        ]
        for x in range(len(words)):
            row = {step[y] for y in range(len(words)) if G.rows[x] >> y & 1}
            expect = {y for y in range(len(words)) if G.rows[step[x]] >> y & 1}
            if row != expect:
                return (position, step[x], min(row ^ expect))
    return None


def connection_row(f, t, r):
    """Row 0 of the conflict graph as a 0/1 list, word by word from the edge
    rule: (u, p) is adjacent to the zero word when u = 0 and p != 0, or when
    f(u) != f(0) and wt(u) + wt(p) < 2t + 1."""
    zero = f.eval((0,) * f.k)
    row = []
    for u in all_words(f.q, f.k):
        crosses = f.eval(u) != zero
        for p in all_words(f.q, r):
            weight = slow_weight(u) + slow_weight(p)
            row.append(int((not any(u) and any(p)) or (crosses and weight <= 2 * t)))
    return row


def slow_transform(values, q, width):
    """The group-ring transform of a length-q^n list, one entry at a time:
    in Z[x]/(x^q - 1) with x carried as 2^width, entry j is sum_c B_c x^c
    mod 2^(q*width) - 1, B_c the sum of the values at the i with i.j = c;
    exact while each B_c < 2^(width-1)."""
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
    # fold their bits above 2^top back onto the low ones (x^q = 1).
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


def _coefficients(v, q, width):
    """(B_0, B_1) of a reduced transform entry, certified by B_1 = ... = B_(q-1)."""
    mask = (1 << width) - 1
    coeffs = {v >> c * width & mask for c in range(1, q)}
    if len(coeffs) != 1:
        raise ValueError("transform entry is not an integer eigenvalue")
    return v & mask, coeffs.pop()


def row_spectrum(row, q):
    """Every eigenvalue of the Cayley graph on F_q^n whose 0/1 row 0 is
    ``row``, in rank order: the group-ring transform of the whole
    length-q^n row, each distinct entry certified an integer and decoded."""
    width = len(row).bit_length() + 1
    values = slow_transform(row, q, width)
    eigen = {v: sub(*_coefficients(v, q, width)) for v in set(values)}
    return tuple(map(eigen.__getitem__, values))


def slow_eigenvalue_bound(f, t, r_max):
    """The eigenvalue redundancy scan on whole connection rows: the spectrum
    of the length-q^(k+r) row 0 of every conflict graph, r = 0..r_max."""
    for r in range(r_max + 1):
        spec = row_spectrum(connection_row(f, t, r), f.q)
        lo, hi = min(spec), max(spec)
        if hi == lo or f.q**r >= 1 - Fraction(hi, lo):
            return SpectralBoundResult(value=r, exhausted=False)
    return SpectralBoundResult(value=r_max + 1, exhausted=True)


def slow_shell_spectra(f, t):
    """The distinct tuples (S_1(a), ..., S_W(a)), W = min(2t, k), over every
    a in F_q^k, with no transform: S_w = {z : wt(z) = w, f(z) != f(0)} is
    closed under scaling by F_q^*, so its character sum at a is
    #{z in S_w : a.z = 0} - #{z in S_w : a.z != 0} / (q - 1)."""
    q, k = f.q, f.k
    words = all_words(q, k)
    zero_value = f.eval(words[0])
    shells = [
        [z for z in words if slow_weight(z) == w and f.eval(z) != zero_value]
        for w in range(1, min(2 * t, k) + 1)
    ]
    out = set()
    for a in words:
        sums = []
        for shell in shells:
            on = sum(1 for z in shell if sum(x * y for x, y in zip(a, z)) % q == 0)
            off = len(shell) - on
            assert off % (q - 1) == 0
            sums.append(on - off // (q - 1))
        out.add(tuple(sums))
    return out


def rows_from_lists(adj):
    """Bit-packed adjacency rows from a dense 0/1 matrix."""
    return [sum(1 << j for j, e in enumerate(row) if e) for row in adj]


def lists_from_rows(rows, n):
    """Dense 0/1 matrix from bit-packed adjacency rows."""
    return [[(row >> j) & 1 for j in range(n)] for row in rows]


def brute_alpha(rows):
    """Exact independence number by plain include/exclude recursion."""
    n = len(rows)

    def go(avail):
        if not avail:
            return 0
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        return max(go(rest), 1 + go(rest & ~rows[v]))

    return go((1 << n) - 1)


def reference_mis(adjacency, target=None, node_budget=None):
    """The branch-and-bound search of max_independent_set in plain vertex
    order: lowest set bit first, one (vertex, color) tuple per ordered
    vertex.  Same branching order, so the same MisResult (or the same
    BudgetExceededError bounds) as the library's solver."""
    n = len(adjacency)
    if n == 0:
        return MisResult(size=0, members=(), nodes=0, complete=True)
    full = (1 << n) - 1
    adj = [adjacency[v] & full & ~(1 << v) for v in range(n)]

    def coloring(p, floor):
        order = []
        color = 0
        uncolored = p
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                low = avail & -avail
                uncolored ^= low
                v = low.bit_length() - 1
                avail &= adj[v]
                if color > floor:
                    order.append((v, color))
        return order

    best = best_mask = nodes = 0
    root = coloring(full, 0)
    root_bound = root[-1][1]
    stack = [[full, root, 0]]
    mask = 0
    while stack:
        frame = stack[-1]
        order = frame[1]
        size = len(stack) - 1
        if not order or size + order[-1][1] <= best:
            stack.pop()
            mask ^= frame[2]
            continue
        v = order.pop()[0]
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(
                "budget", best_lower=best, best_upper=root_bound
            )
        bit = 1 << v
        if size + 1 > best:
            best = size + 1
            best_mask = mask | bit
            if target is not None and best >= target:
                break
        p = frame[0] ^ bit
        frame[0] = p
        new_p = p & ~adj[v]
        if new_p:
            mask |= bit
            stack.append([new_p, coloring(new_p, best - size - 1), bit])
    members = tuple(v for v in range(n) if best_mask >> v & 1)
    return MisResult(size=best, members=members, nodes=nodes, complete=not stack)


def is_independent(rows, members):
    return all(not rows[i] >> j & 1 for i in members for j in members)


def rand_graph(rng, n, p):
    """Bit-packed rows of a G(n, p) random graph."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def rand_linear(rng, q, k, l):
    """Random linear function with a full-rank l x k matrix (l = 0 allowed).

    l > k has no full-rank matrix, so it raises ValueError before any draw
    instead of retrying forever."""
    if l > k:
        raise ValueError(f"no full-rank {l} x {k} matrix: l = {l} exceeds k = {k}")
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(l)]
        try:
            return linear_function(q, rows, k=k)
        except ValueError:
            continue


def rand_table(rng, q, k, n_values):
    """Random table function whose image is exactly {0..n_values-1}."""
    size = q**k
    assert size >= n_values
    labels = [i % n_values for i in range(size)]
    rng.shuffle(labels)
    return table_function(q, k, labels)


def words_at_distance(word, q, dist):
    """All words at Hamming distance exactly ``dist`` from ``word``."""
    out = []
    for positions in itertools.combinations(range(len(word)), dist):
        choices = [[s for s in range(q) if s != word[p]] for p in positions]
        for repl in itertools.product(*choices):
            w = list(word)
            for p, s in zip(positions, repl):
                w[p] = s
            out.append(tuple(w))
    return out


def subspace_selection_exists(f, cap=20_000):
    """Brute-force check: can one minimum-weight member per class be chosen
    so that the selected set is closed under addition?

    Returns None when the choice space exceeds ``cap`` combinations; keep
    instances small (q=2 k<=3, q=3 k<=2) so the cap is never the verdict.
    """
    dec = coset_decomposition(f)
    idx = f.index
    candidates = []
    for members in dec.classes:
        vecs = [idx.vector(r) for r in members]
        w = min(slow_weight(v) for v in vecs)
        candidates.append([v for v in vecs if slow_weight(v) == w])
    combos = 1
    for c in candidates:
        combos *= len(c)
        if combos > cap:
            return None
    for pick in itertools.product(*candidates):
        chosen = set(pick)
        closed = True
        for x in pick:
            for y in pick:
                if tuple((a + b) % f.q for a, b in zip(x, y)) not in chosen:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            return True
    return False
