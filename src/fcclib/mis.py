"""Exact maximum-independent-set solver over bit-packed adjacency.

An independent set in the input graph is a clique in its complement, so the
solver runs branch-and-bound clique search (greedy-coloring upper bounds,
candidate sets as arbitrary-precision bitmasks) on the complement.  Vertex v
sits at bit W-1-v, W = 8*ceil(n/8) (rows are bit-reversed byte-wise once, and
indexed by ``b = bit_length()``), so the lowest-numbered vertex of a set is
its top bit: a coloring step is one ``bit_length``, one XOR and one AND on
the input row, and sets shrink from the top.  A node forms its complement row
as ``p & ~radj[b]``.  Colors at or below ``best - size`` can never be branched
on, so they are colored but not recorded; a recorded entry is one int,
``color << S | b``.  Clique levels live on an explicit stack, so no graph is
too deep to search.  Branching order is fixed, so sizes, witnesses, and node
counts are deterministic.  ``candidates`` (a bitmask) restricts the search
to a vertex subset in place: it is reversed like a row and becomes the root
set, so the search is that of the induced subgraph re-indexed in vertex
order, with members reported as the original vertex numbers.  Working set,
sized by the full vertex count n whatever the subset: about n^2/8 bytes of
rows and n^2/16 of the single-bit table ``bit[b]``, 512 plus 256 MiB at 2^16
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic

from .errors import BudgetExceededError

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class MisResult:
    """Result of an independent-set search.

    ``complete`` is True when the size is the exact independence number;
    a decision-mode hit (``target`` reached) reports complete=False because
    the search stopped as soon as the target was met.
    """

    size: int
    members: tuple[int, ...]
    nodes: int
    complete: bool


# Byte i with its eight bits in reverse order.
_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _reversed(mask: int, width: int) -> int:
    """``mask`` on ``width`` bytes with bit i moved to bit 8*width-1-i."""
    return int.from_bytes(mask.to_bytes(width, "little").translate(_REVERSED), "big")


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def max_independent_set(
    adjacency,
    target: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    deadline: float | None = None,
    candidates: int | None = None,
) -> MisResult:
    """Largest independent set of the graph given as per-vertex bitmasks.

    With ``target`` set, the search stops as soon as an independent set of
    that size is found (decision mode).  Exceeding ``node_budget``, or running
    past ``deadline`` (a time.monotonic() timestamp), raises
    BudgetExceededError carrying the best size found so far (lower bound) and
    the root coloring bound (upper bound).  With ``candidates`` set, only the
    vertices in that bitmask are searched.
    """
    n = len(adjacency)
    full = (1 << n) - 1
    pool = full if candidates is None else candidates & full
    if not pool:
        return MisResult(size=0, members=(), nodes=0, complete=True)
    width = (n + 7) // 8
    top = 8 * width
    # radj[top - v]: input row of v without self-loop, vertex u at bit top-1-u.
    radj = [0] * (top + 1)
    for v in range(n):
        radj[top - v] = _reversed(adjacency[v] & full & ~(1 << v), width)
    bit = [0] + [1 << i for i in range(top)]
    shift = top.bit_length()
    low = (1 << shift) - 1

    def coloring(p: int, floor: int) -> list[int]:
        """Entries ``color << shift | b`` for the vertices of p with greedy
        color numbers above ``floor``, ascending by color.  A color class is a
        clique of the input graph, so each step keeps the uncolored input
        neighbours of the vertex just colored."""
        rows, single = radj, bit  # fast locals, not closure cells
        color = 0
        uncolored = p
        while uncolored and color < floor:
            color += 1
            avail = uncolored
            while avail:
                b = avail.bit_length()
                uncolored ^= single[b]
                avail &= rows[b]
        order = []
        append = order.append
        while uncolored:
            color += 1
            key = color << shift
            avail = uncolored
            while avail:
                b = avail.bit_length()
                uncolored ^= single[b]
                avail &= rows[b]
                append(key | b)
        return order

    best = best_mask = nodes = 0
    root_p = _reversed(pool, width)
    root = coloring(root_p, 0)
    root_bound = root[-1] >> shift
    # One frame per clique level: [candidates, entries left to branch on
    # (popped from the highest color down), bit of the vertex that opened
    # the level].  ``mask`` holds the vertices of the open levels.
    stack = [[root_p, root, 0]]
    mask = 0
    while stack:
        frame = stack[-1]
        order = frame[1]
        size = len(stack) - 1
        if not order or size + (order[-1] >> shift) <= best:
            stack.pop()
            mask ^= frame[2]
            continue
        b = order.pop() & low
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(
                f"independent-set search exceeded {node_budget} nodes",
                best_lower=best,
                best_upper=root_bound,
            )
        if deadline is not None and nodes & 1023 == 0 and monotonic() > deadline:
            raise BudgetExceededError(
                "independent-set search exceeded the time budget",
                best_lower=best,
                best_upper=root_bound,
            )
        vbit = bit[b]
        if size + 1 > best:
            best = size + 1
            best_mask = mask | vbit
            if target is not None and best >= target:
                break
        p = frame[0] ^ vbit
        frame[0] = p
        new_p = p & ~radj[b]
        if new_p:
            mask |= vbit
            stack.append([new_p, coloring(new_p, best - size - 1), vbit])
    members = tuple(top - 1 - i for i in reversed(_bits(best_mask)))
    # A loop left by ``break`` (target met) still holds its frames.
    return MisResult(size=best, members=members, nodes=nodes, complete=not stack)
