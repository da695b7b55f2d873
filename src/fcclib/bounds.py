"""Redundancy bounds: code-size estimates, lower bounds from several routes
(minimum-distance counting, pairwise averaging, independence numbers,
eigenvalues), the exact-search upper bound, and comparison sweeps.

All bound arithmetic is exact (integers and fractions); ceilings are taken
only where a bound is reported in integer form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from time import monotonic

from .distance import _fdm_search, _pairwise_plotkin, build_fdm
from .errors import BudgetExceededError, SizeLimitError
from .fields import (
    VectorIndex,
    _check_prime,
    _count_over,
    differences,
    hamming_ball_size,
    hamming_distance,
    negated_difference,
    translate,
    weights,
)
from .functions import (
    FunctionSpec,
    _check_t,
    _class_leaders,
    _require_linear,
    coset_decomposition,
    image_size,
    kernel_weight_sum,
)
from .graph import EXACT_ALPHA_LIMIT, _cayley_rows, build_graph
from .mis import DEFAULT_NODE_BUDGET, max_independent_set
from .spectrum import eigenvalue_redundancy_bound

AQ_EXACT_LIMIT = 2**12
AQ_AUTO_EXACT_LIMIT = 2**8
AQ_AUTO_ATTEMPT_BUDGET = 100_000


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class AqEstimate:
    """An estimate of the largest q-ary code of length n and distance d.

    ``kind`` records how the value was obtained: "exact", "hamming_upper",
    "singleton_upper", "plotkin_upper", or "table_exact"/"table_upper"/
    "table_lower" for externally supplied rows.  ``witness`` (exact kind)
    holds a code of the stated size.
    """

    q: int
    n: int
    d: int
    value: int
    kind: str
    witness: tuple[tuple[int, ...], ...] | None = None

    @property
    def direction(self) -> str:
        """"exact", "upper", or "lower" relative to the true maximum."""
        if self.kind in ("exact", "table_exact"):
            return "exact"
        if self.kind == "table_lower":
            return "lower"
        return "upper"


@lru_cache(maxsize=4096)
def a_q_exact(
    q: int, n: int, d: int, node_budget: int | None = DEFAULT_NODE_BUDGET
) -> AqEstimate:
    """Exact largest code size, by exhaustive independent-set search on the
    pairs-too-close conflict graph (every code is such an independent set).

    The graph is a Cayley graph on F_q^n: row v is v + B, B the non-zero
    words of weight below d, built from row 0 by whole-row digit shifts
    (``graph._cayley_rows``).  A maximum code can be translated to hold 0,
    so the solver searches, in place, only the non-zero words outside 0 + B.

    Conventions at the degenerate edges: length 0 admits one code word when
    d == 1 and none once d >= 2 (no symbols exist to separate two words);
    d > n likewise caps the code at a single word.
    """
    _check_prime(q)
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    if n == 0:
        value = 1 if d == 1 else 0
        witness = ((),) if d == 1 else ()
        return AqEstimate(q=q, n=n, d=d, value=value, kind="exact", witness=witness)
    index = VectorIndex(q, n)
    if d == 1:
        witness = tuple(index.all_vectors()) if q**n <= AQ_EXACT_LIMIT else None
        return AqEstimate(q=q, n=n, d=d, value=q**n, kind="exact", witness=witness)
    if d > n:
        return AqEstimate(
            q=q, n=n, d=d, value=1, kind="exact", witness=((0,) * n,)
        )
    if d == 2:
        # The parity-check code (digit sum 0) has q^(n-1) words at distance
        # >= 2, meeting the Singleton bound, so it is exactly optimal.
        witness = None
        if q**n <= AQ_EXACT_LIMIT:
            witness = tuple(v for v in index.all_vectors() if sum(v) % q == 0)
        return AqEstimate(
            q=q, n=n, d=d, value=q ** (n - 1), kind="exact", witness=witness
        )
    over = _count_over(q, n, AQ_EXACT_LIMIT)
    if over:
        raise ValueError(
            f"exact search limited to {AQ_EXACT_LIMIT} words; q^n = {over}"
        )
    ball = differences(q, n, 1, d - 1)
    rows = _cayley_rows(q, q**n, ball)
    candidates = ((1 << q**n) - 2) ^ rows[0]
    result = max_independent_set(rows, node_budget=node_budget, candidates=candidates)
    chosen = [0, *result.members]
    witness = tuple(index.vector(v) for v in sorted(chosen))
    for i in range(len(witness)):
        for j in range(i + 1, len(witness)):
            assert hamming_distance(witness[i], witness[j]) >= d
    return AqEstimate(
        q=q, n=n, d=d, value=len(witness), kind="exact", witness=witness
    )


def a_q_upper(q: int, n: int, d: int, method: str) -> AqEstimate:
    """Classical closed-form upper bounds on the largest code size: method
    "hamming", "singleton" or "plotkin"."""
    _check_prime(q)
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    if method == "hamming":
        kind = "hamming_upper"
        if d > n:
            value = 1
        else:
            value = q**n // hamming_ball_size(q, n, (d - 1) // 2)
    elif method == "singleton":
        kind = "singleton_upper"
        value = q ** max(n - d + 1, 0)
    elif method == "plotkin":
        # floor(d / (d - theta n)), theta = (q-1)/q, while d > theta n; for
        # q = 2 the even-d form 2 floor(d / (2d - n)) (4d at n = 2d), reached
        # from odd d through A(n, d) = A(n+1, d+1).  Past its range the bound
        # says nothing: the value is then q^n.
        kind = "plotkin_upper"
        e, m = d + d % 2, n + d % 2
        if d > n:
            value = 1
        elif q == 2 and m <= 2 * e:
            value = 4 * e if m == 2 * e else 2 * (e // (2 * e - m))
        elif q > 2 and q * d > (q - 1) * n:
            value = q * d // (q * d - (q - 1) * n)
        else:
            value = q**n
    else:
        raise ValueError(f"unknown method {method!r}")
    return AqEstimate(q=q, n=n, d=d, value=value, kind=kind)


@lru_cache(maxsize=4096)
def a_q_auto(q: int, n: int, d: int) -> AqEstimate:
    """Best available code-size estimate: exact where the space is small
    (closed forms, or a briefly budgeted search), otherwise the tighter of
    the Hamming and Singleton upper bounds."""
    if n == 0 or d <= 2 or d > n:
        return a_q_exact(q, n, d)
    if q**n <= AQ_AUTO_EXACT_LIMIT:
        try:
            return a_q_exact(q, n, d, AQ_AUTO_ATTEMPT_BUDGET)
        except BudgetExceededError:
            pass
    return min(
        a_q_upper(q, n, d, "hamming"),
        a_q_upper(q, n, d, "singleton"),
        key=lambda est: est.value,
    )


def systematic_ecc_bound(q: int, k: int, d: int, est: AqEstimate) -> int:
    """Smallest r with est.value * q^r >= q^k, i.e. ceil(k - log_q(value)).

    ``est`` must describe (q, k, d) and must not be a lower bound on the
    code size: an underestimate would overstate the required redundancy.
    """
    if (est.q, est.n, est.d) != (q, k, d):
        raise ValueError(
            f"estimate is for (q={est.q}, n={est.n}, d={est.d}), "
            f"not (q={q}, n={k}, d={d})"
        )
    if est.direction == "lower":
        raise ValueError("a lower bound on the code size cannot be used here")
    if est.value < 1:
        raise ValueError("code-size estimate must be positive")
    return _least_redundancy(q, k, est.value)


def _least_redundancy(q: int, k: int, size: int) -> int:
    """Smallest r with size * q^r >= q^k."""
    r = 0
    while size * q**r < q**k:
        r += 1
    return r


def theorem1_bound(f: FunctionSpec, t: int, alpha: int) -> int:
    """Smallest r with alpha * q^r >= q^k, for alpha the exact independence
    number of the parity-free conflict graph."""
    _check_t(t)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    return _least_redundancy(f.q, f.k, alpha)


def systematic_bound(q: int, l: int, d: int) -> int:
    """Smallest r at which the Hamming, Singleton and Plotkin bounds on
    A_q(l + r, d) all reach q^l: a lower bound on the redundancy of any
    systematic (l + r, q^l, d) code."""
    r = 0
    while any(
        a_q_upper(q, l + r, d, method).value < q**l
        for method in ("hamming", "singleton", "plotkin")
    ):
        r += 1
    return r


def two_t_bound(f: FunctionSpec, t: int) -> int:
    """2t for any non-constant function, 0 for a constant one."""
    _check_t(t)
    return 2 * t if image_size(f) >= 2 else 0


def plotkin_linear_bound(f: FunctionSpec, t: int) -> Fraction:
    """Averaging bound for linear f:
    (q/(q-1)) * (2t+1) * (1 - q^-l) - k + s / ((q-1) * q^(k-1)),
    with s the total Hamming weight of the kernel."""
    _require_linear(f, "the linear averaging bound")
    _check_t(t)
    q, k, l = f.q, f.k, f.l
    if l < 1:
        raise ValueError("the bound needs a non-constant linear function")
    s = kernel_weight_sum(f)
    return (
        Fraction(q, q - 1) * (2 * t + 1) * (1 - Fraction(1, q**l))
        - k
        + Fraction(s, (q - 1) * q ** (k - 1))
    )


def fdm_upper_bound(
    f: FunctionSpec,
    t: int,
    r_cap: int | None = None,
    deadline: float | None = None,
) -> int:
    """Achievable redundancy: the exact N_q of the function-distance matrix,
    whose order is checked against the search limit before it is built."""
    return _found(_fdm_search(f, t, r_cap, deadline)[0])


def _found(result) -> int:  # an exhausted length cap is a budget exit
    if not result.found:
        raise BudgetExceededError(
            f"no parity code found within length cap {result.r_cap}"
        )
    return result.n


def optimality_check(
    f: FunctionSpec, t: int, node_budget: int = 200_000, deadline: float | None = None
) -> bool:
    """True when some choice of minimum-weight coset representatives makes
    the pairwise distance requirements collapse to the function-distance
    matrix — certifying that the FDM search upper bound is exactly optimal.

    Picks u, v of two classes demand exactly their FDM entry when u - v is a
    minimum-weight member of its class, or that class lies beyond 2t (entry
    0).  A byte table over the q^k ranks marks those differences, and each
    candidate is translated by the negated picks: no FDM is built.
    """
    _require_linear(f, "the optimality certificate")
    _check_t(t)
    q, k = f.q, f.k
    candidates = _class_leaders(f)
    wt = weights(q, k)
    ok = bytearray(q**k)
    for members, leaders in zip(coset_decomposition(f).classes, candidates):
        for rank in members if wt[leaders[0]] > 2 * t else leaders:
            ok[rank] = 1
    # Depth-first, fewest candidates first, on an explicit stack of the
    # untried candidates of each depth: len(stack) == len(chosen) + 1.
    m = len(candidates)
    order = sorted(range(m), key=lambda c: len(candidates[c]))
    chosen: list = []  # the negated picks, as Differences
    stack = [iter(candidates[order[0]])]
    nodes = 0
    while stack:
        u = next(stack[-1], None)
        if u is None:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"representative search exceeded {node_budget} nodes"
            )
        if deadline is not None and nodes & 1023 == 0 and monotonic() > deadline:
            raise BudgetExceededError("representative search exceeded the time budget")
        if all(map(ok.__getitem__, translate(q, u, chosen))):
            chosen.append(negated_difference(q, k, u))
            if len(chosen) == m:
                return True
            stack.append(iter(candidates[order[len(chosen)]]))
    return False


def _packing_scan(q: int, k: int, d: int, aq, margin) -> int:
    """Smallest r such that for every m up to floor((d-1)/2),
    ball(q,k,m) + margin(r, m) <= aq(q, r, d-2m); the m loop stops at the
    first failure, so a custom estimator sees the calls in that order."""
    _check_prime(q)
    if d < 2 or k < 1:
        raise ValueError("need d >= 2 and k >= 1")
    if aq is None:
        aq = lambda qq, nn, dd: a_q_auto(qq, nn, dd).value
    ms = range((d - 1) // 2 + 1)
    balls = [hamming_ball_size(q, k, m) for m in ms]
    for r in range(k * d + d + 2):
        if all(balls[m] + margin(r, m) <= aq(q, r, d - 2 * m) for m in ms):
            return r
    raise AssertionError("scan cap exceeded; estimator is not an upper bound")


def zll_bound(q: int, k: int, d: int, aq=None) -> int:
    """Smallest r such that for every m up to floor((d-1)/2) the radius-m
    ball in the message space fits inside a length-r code of distance d-2m.

    ``aq`` customizes the code-size estimator (default: exact where small,
    closed-form upper bounds otherwise — upper estimates only relax the
    inequality, keeping the reported r a valid lower bound)."""
    return _packing_scan(q, k, d, aq, lambda r, m: 0)


def bgs_bound(q: int, k: int, d: int, aq=None) -> int:
    """Smallest r such that for every m up to floor((d-1)/2):
    ball(q,k,m) <= A_q(r, d-2m) - ball(q,r,m)/ball(q,r,d-2m-1) + 1,
    with the division kept as an exact fraction."""

    def margin(r: int, m: int) -> Fraction:
        far = hamming_ball_size(q, r, d - 2 * m - 1)
        return Fraction(hamming_ball_size(q, r, m), far) - 1

    return _packing_scan(q, k, d, aq, margin)


class AqTable:
    """External code-size table: rows keyed by (q, n, d).

    Rows carry kinds table_exact / table_upper / table_lower.  Lookups for
    bounding purposes use exact and upper rows; achievability lookups use
    exact and lower rows (a known code of q^k words at length n shows
    redundancy n-k suffices).
    """

    def __init__(self, rows) -> None:
        self._rows: dict[tuple[int, int, int], list[AqEstimate]] = {}
        for row in rows:
            if not isinstance(row, AqEstimate):
                raise TypeError(f"expected AqEstimate, got {type(row).__name__}")
            self._rows.setdefault((row.q, row.n, row.d), []).append(row)

    def __len__(self) -> int:
        return sum(len(v) for v in self._rows.values())

    def estimate_for(self, q: int, n: int, d: int) -> AqEstimate | None:
        """Tightest usable (exact or upper) row for (q, n, d), if any."""
        rows = self._rows.get((q, n, d), [])
        exact = [r for r in rows if r.direction == "exact"]
        if exact:
            return min(exact, key=lambda r: r.value)
        upper = [r for r in rows if r.direction == "upper"]
        if upper:
            return min(upper, key=lambda r: r.value)
        return None

    def achievable_redundancy(self, q: int, k: int, d: int) -> int | None:
        """Least n-k over rows witnessing a code of size >= q^k (exact or
        lower rows with matching q and d, n >= k)."""
        best = None
        for (qq, n, dd), rows in self._rows.items():
            if qq != q or dd != d or n < k:
                continue
            if any(
                r.direction in ("exact", "lower") and r.value >= q**k
                for r in rows
            ):
                if best is None or n - k < best:
                    best = n - k
        return best


@dataclass(frozen=True)
class CompareRow:
    """One row of the bound-comparison sweep at a fixed message length."""

    k: int
    r_prime: int
    aq_kind: str
    r_bgs: int
    delta_bgs: int
    delta_blb: int | None = None
    delta_bub: int | None = None


def compare_report(
    q: int, d: int, k_range, table: AqTable | None = None
) -> list[CompareRow]:
    """Per-k comparison of the counting bound r' (best available code-size
    estimate; an external table row takes priority) against the ball-packing
    scan r_bgs; with a table, also deltas against the table's own lower and
    achievable redundancies (missing rows leave the cells empty)."""
    out = []
    for k in k_range:
        row = table.estimate_for(q, k, d) if table is not None else None
        est = a_q_auto(q, k, d) if row is None else row
        r_prime = systematic_ecc_bound(q, k, d, est)
        r_bgs = bgs_bound(q, k, d)
        r_bub = table.achievable_redundancy(q, k, d) if table is not None else None
        out.append(
            CompareRow(
                k=k,
                r_prime=r_prime,
                aq_kind=est.kind,
                r_bgs=r_bgs,
                delta_bgs=r_bgs - r_prime,
                # A table row is the estimate behind r_prime itself.
                delta_blb=None if row is None else r_bgs - r_prime,
                delta_bub=None if r_bub is None else r_bgs - r_bub,
            )
        )
    return out


@dataclass(frozen=True)
class BoundEntry:
    """One bound in a report: sense is "lower" or "upper" (on redundancy).

    ``limit`` says what kept a value from the entry: "budget" (a search ran
    out of nodes or time), "size" (a search refused its input before it
    started), "skipped" (the row could not beat a lower row already found)
    or "" (a value, or a row that does not apply)."""

    name: str
    sense: str
    rational: Fraction | None
    integer: int | None
    note: str = ""
    limit: str = ""


@dataclass(frozen=True)
class BoundReport:
    """All applicable redundancy bounds for one (f, t) instance."""

    descriptor: str
    entries: tuple[BoundEntry, ...]
    optimal: bool | None = None


class _NotApplicable(Exception):
    """Raised by a bound provider that does not apply; the message is the
    entry's note."""

    limit = ""


class _TooLarge(_NotApplicable):  # refused on the input's size
    limit = "size"


class _Skipped(_NotApplicable):  # cannot beat a row already found
    limit = "skipped"


def bound_report(
    f: FunctionSpec,
    t: int,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    deadline: float | None = None,
) -> BoundReport:
    """Assemble every applicable bound for (f, t), recording per-entry
    assumptions; inapplicable entries carry a reason instead of a value.
    ``BoundEntry.limit`` tells the missing values apart; only a search out
    of budget and the parity search's order-limit refusal ("size") carry a
    note prefixed "budget: ".

    Rows run cheapest first, in the order listed.  The independence row
    can beat the best lower row B before it only while alpha < q^(k-B): a
    class of f that large skips it, or a union of classes pairwise more
    than 2t apart, chosen greedily from the FDM's zero entries; otherwise
    the search stops once it holds such a set.  A skipped row's note gives
    the set's size, the cap it puts on the row, and the row it yields to."""
    _check_t(t)
    q, k = f.q, f.k
    entries: list[BoundEntry] = []
    fdm = None  # the function-distance matrix, once a row has built it

    # Each provider returns (rational, integer, note) or raises
    # _NotApplicable; integer-valued bounds are reported through whole.
    def whole(value: int, note: str = ""):
        return Fraction(value), value, note

    def distance_2t():
        return whole(two_t_bound(f, t), "0 for constant functions")

    def linear_averaging():
        if f.mode != "linear" or f.l < 1:
            raise _NotApplicable("needs a non-constant linear function")
        val = plotkin_linear_bound(f, t)
        # Redundancy is never negative, so a negative closed form says no more
        # than 0 does.
        return val, max(0, _ceil_frac(val)), "closed form from kernel weights"

    def pairwise_averaging():
        if q != 2:
            raise _NotApplicable("binary alphabets only")
        try:
            val = _pairwise_plotkin(f, t)
        except ValueError as exc:  # a table f past build_drm's cap
            raise _TooLarge(str(exc)) from exc
        return val, _ceil_frac(val), "average over all requirement pairs"

    def systematic():
        if f.mode != "linear" or f.l < 1:
            raise _NotApplicable("needs a non-constant linear function")
        # The q^l messages on an information set are a systematic code.
        note = "closed-form code-size bounds through an information set"
        return whole(systematic_bound(q, f.l, 2 * t + 1), note)

    def eigenvalue():
        if f.mode != "linear":
            raise _NotApplicable("linear functions only")
        # Repeating f(u) 2t+1 times is an FCC at r = (2t+1)l, so the ratio
        # condition holds there: the scan stops by then.
        return whole(eigenvalue_redundancy_bound(f, t, (2 * t + 1) * f.l).value)

    def independence():
        nonlocal fdm
        if q**k > EXACT_ALPHA_LIMIT:
            raise _TooLarge(f"q^k = {q ** k} exceeds the exact-solver limit")
        best = max(
            (e for e in entries if e.integer is not None), key=lambda e: e.integer
        )
        cap = q ** max(k - best.integer, 0)
        # A class of f is independent: no two of its messages conflict.  So
        # is a union of classes whose FDM entries are 0 (more than 2t apart).
        classes = coset_decomposition(f).classes
        size = max(map(len, classes))
        if size < cap:
            fdm, kept = build_fdm(f, t), []
            for a in sorted(range(len(classes)), key=lambda a: -len(classes[a])):
                if not any(map(fdm[a].__getitem__, kept)):
                    kept.append(a)
            if sum(len(classes[a]) for a in kept) >= cap:
                size = cap
        if size < cap:
            rows = build_graph(f, t, 0).rows
            res = max_independent_set(rows, cap, node_budget, deadline)
            if res.complete:
                note = f"exact alpha = {res.size} at r=0"
                return whole(theorem1_bound(f, t, res.size), note)
            size = res.size
        raise _Skipped(
            f"skipped: an independent set of {size} caps this row at "
            f"{theorem1_bound(f, t, size)}; {best.name} gives {best.integer}"
        )

    def code_search():
        res, searched = _fdm_search(f, t, None, deadline, fdm)
        # The search starts at the largest entry: above the cap, it ran none.
        if not res.found and (top := searched.max_entry()) > (cap := res.r_cap):
            raise _TooLarge(f"largest entry {top} exceeds the length cap {cap}")
        val = _found(res)
        return whole(val, "exact parity-code search on the function-distance matrix")

    providers = (
        ("distance_2t", "lower", distance_2t),
        ("linear_averaging", "lower", linear_averaging),
        ("pairwise_averaging", "lower", pairwise_averaging),
        ("systematic", "lower", systematic),
        ("eigenvalue", "lower", eigenvalue),
        ("independence", "lower", independence),
        ("code_search", "upper", code_search),
    )
    for name, sense, provide in providers:
        limit = ""
        try:
            rational, integer, note = provide()
        except _NotApplicable as exc:
            rational, integer, note, limit = None, None, str(exc), exc.limit
        except BudgetExceededError as exc:
            rational, integer, note = None, None, f"budget: {exc}"
            limit = "size" if isinstance(exc, SizeLimitError) else "budget"
        entries.append(BoundEntry(name, sense, rational, integer, note, limit))

    optimal: bool | None = None
    if f.mode == "linear":
        try:
            optimal = optimality_check(f, t, deadline=deadline)
        except BudgetExceededError:
            optimal = None

    descriptor = f"q={q} k={k} t={t} mode={f.mode}"
    return BoundReport(
        descriptor=descriptor, entries=tuple(entries), optimal=optimal
    )
