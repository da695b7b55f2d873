"""Exact maximum-independent-set solver over bit-packed adjacency.

An independent set in the input graph is a clique in its complement, so the
solver runs branch-and-bound clique search (greedy-coloring upper bounds,
candidate sets as arbitrary-precision bitmasks) on the complement.  It holds
one list of n rows, the input's; a node forms its complement row as
``(p ^ bit) & ~adj[v]``, and a coloring step keeps the input neighbours of
the vertex just colored with one AND.  Colors at or below ``best - size``
can never be branched on, so they are colored but not recorded.  Clique
levels live on an explicit stack, so no graph is too deep to search.
Branching order is fixed, so sizes, witnesses, and node counts are
deterministic.
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


class _TargetReached(Exception):
    pass


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
) -> MisResult:
    """Largest independent set of the graph given as per-vertex bitmasks.

    With ``target`` set, the search stops as soon as an independent set of
    that size is found (decision mode).  Exceeding ``node_budget``, or running
    past ``deadline`` (a time.monotonic() timestamp), raises
    BudgetExceededError carrying the best size found so far (lower bound) and
    the root coloring bound (upper bound).
    """
    n = len(adjacency)
    if n == 0:
        return MisResult(size=0, members=(), nodes=0, complete=True)
    full = (1 << n) - 1
    # Input rows on 0..n-1 without self-loops; complement rows are formed
    # per node from these.
    adj = [adjacency[v] & full & ~(1 << v) for v in range(n)]

    def coloring(p: int, floor: int) -> list[tuple[int, int]]:
        """Vertices of p with greedy color numbers above ``floor``, ascending
        by color.  A color class is a clique of the input graph, so each step
        keeps the uncolored input neighbours of the vertex just colored."""
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

    best = 0
    best_mask = 0
    nodes = 0
    root = coloring(full, 0)
    root_bound = root[-1][1]
    # One frame per clique level: [candidates, vertices left to branch on
    # (popped from the highest color down), bit of the vertex that opened
    # the level].  ``mask`` holds the vertices of the open levels.
    stack = [[full, root, 0]]
    mask = 0
    try:
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
            bit = 1 << v
            if size + 1 > best:
                best = size + 1
                best_mask = mask | bit
                if target is not None and best >= target:
                    raise _TargetReached
            p = frame[0] ^ bit
            frame[0] = p
            new_p = p & ~adj[v]
            if new_p:
                mask |= bit
                stack.append([new_p, coloring(new_p, best - size - 1), bit])
        complete = True
    except _TargetReached:
        complete = False
    return MisResult(
        size=best, members=_bits(best_mask), nodes=nodes, complete=complete
    )
