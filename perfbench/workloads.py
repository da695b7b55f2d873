"""Workload inputs, op lists and correctness oracles.

``make_inputs(workload, seed)`` returns plain JSON-able data; the same seed
gives the same data.  ``ops(workload, ctx)`` yields the workload's ops in
order.  Each op has a timed ``call`` and an untimed ``check`` that returns
``(problem, budget_exits)``, with ``problem`` None when the output is right.

The oracles here do not use the library's own algorithms: distances, code
validity, function values and nearest codewords are recomputed directly.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("bounds", "search", "codec")

T_CODEC = 1
BOUNDS_NODE_BUDGET = 2_000
SEARCH_NODE_BUDGET = 2_000
# received words per encoder by number of symbol errors (t = 1); each
# decode op takes one word of each encoder
ERROR_MIX = {0: 80, 1: 240, 2: 48, 3: 32}


def projection(m: int) -> list[list[int]]:
    """Matrix keeping the first m of 10 message bits."""
    return [[1 if j == i else 0 for j in range(10)] for i in range(m)]


# Fixed reference functions, as (q, matrix).
REFERENCE = {
    "proj3": (2, projection(3)),
    "proj4": (2, projection(4)),
    "proj6": (2, projection(6)),
    "proj8": (2, projection(8)),
    # the running k=4, l=2 example
    "ex4": (2, [[1, 1, 1, 0], [0, 1, 1, 0]]),
    # the same map with its first two columns swapped: an equivalent DRM
    # (same N), on which the N_q search closes quickly instead of in seconds
    "ex4swap": (2, [[1, 1, 1, 0], [1, 0, 1, 0]]),
    # unit-basis k=4 map whose t=2 DRM needs real backtracking
    "split4": (2, [[1, 0, 0, 0], [0, 1, 1, 1]]),
    # the k=4 example's matrix repeated three times: k=12, l=2
    "k12": (2, [[1, 1, 1, 0] * 3, [0, 1, 1, 0] * 3]),
    # unit-basis ternary map: two distinct non-zero columns
    "q3k5": (3, [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]]),
}

BOUNDS_CELLS = [("proj6", 1), ("proj6", 2), ("proj6", 3), ("k12", 1), ("q3k5", 1)]

# Redundancies achieved by classical systematic codes on the kept bits,
# used as upper bounds where the report's own code search is refused:
# t=1 shortened Hamming [15,11,3]; t=2 shortened BCH [15,7,5]; t=3
# shortened Golay [23,12,7].
KNOWN_ACHIEVABLE = {("proj6", 1): 4, ("proj6", 2): 8, ("proj6", 3): 11}

# Exact independence numbers of the r=0 conflict graphs, and the lower
# bounds certified for the cells whose exact search does not close.
KNOWN_ALPHA = {
    ("proj3", 1): 256, ("proj3", 2): 128, ("proj3", 3): 128,
    ("proj6", 3): 16, ("proj8", 3): 8,
}
CERTIFIED_ALPHA = {("proj6", 1): 32, ("proj6", 2): 32, ("proj8", 1): 8, ("proj8", 2): 8}

# A_q(n, d) from the standard code tables; (2,10,5) runs under a node budget.
KNOWN_AQ = {(2, 7, 3): 16, (2, 8, 4): 16, (2, 9, 5): 6, (3, 5, 4): 6, (2, 10, 5): 12}

# N_q of requirement matrices: (function, matrix kind, t) -> length.  N=6
# for the k=4 example at t=2 is the paper's value; the others are the exact
# search's results, their witnesses checked here.
KNOWN_NQ = {
    ("ex4swap", "drm", 2): 6, ("split4", "drm", 2): 6,
    ("proj3", "fdm", 2): 7, ("proj4", "fdm", 2): 7,
}


# -- inputs ------------------------------------------------------------------

def _draw_q2k9(rng: random.Random) -> list[list[int]]:
    """Unit-basis class: two distinct non-zero columns, 3 copies each, and
    3 zero columns, in seeded positions."""
    a, b = rng.sample([(1, 0), (0, 1), (1, 1)], 2)
    cols = [a] * 3 + [b] * 3 + [(0, 0)] * 3
    rng.shuffle(cols)
    return [[c[0] for c in cols], [c[1] for c in cols]]


def _draw_q3k6(rng: random.Random) -> list[list[int]]:
    """General (not unit-basis) ternary map whose columns cover all four
    projective points of F_3^2, with point multiplicities 2, 2, 1, 1."""
    points = [(1, 0), (0, 1), (1, 1), (1, 2)]
    rng.shuffle(points)
    cols = []
    for point, copies in zip(points, (2, 2, 1, 1)):
        for _ in range(copies):
            s = rng.choice((1, 2))
            cols.append((point[0] * s % 3, point[1] * s % 3))
    rng.shuffle(cols)
    return [[c[0] for c in cols], [c[1] for c in cols]]


def make_inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs of one workload.  Only ``codec`` uses the seed:
    ``bounds`` and ``search`` run fixed reference instances."""
    if workload == "bounds":
        return {
            "functions": {name: REFERENCE[name] for name, _ in BOUNDS_CELLS},
            "cells": [list(c) for c in BOUNDS_CELLS],
            "node_budget": BOUNDS_NODE_BUDGET,
        }
    if workload == "search":
        names = ("proj3", "proj4", "proj6", "proj8", "ex4swap", "split4", "q3k5")
        return {
            "functions": {name: REFERENCE[name] for name in names},
            "node_budget": SEARCH_NODE_BUDGET,
        }
    if workload == "codec":
        rng = random.Random(seed)
        functions = {"q2k9": (2, _draw_q2k9(rng)), "q3k6": (3, _draw_q3k6(rng))}
        words = []
        for name, (q, matrix) in functions.items():
            k = len(matrix[0])
            mine = [[name, rng.randrange(q**k), errors, rng.getrandbits(32)]
                    for errors, count in ERROR_MIX.items() for _ in range(count)]
            rng.shuffle(mine)
            words.append(mine)
        # one word of each encoder per decode op, so every op costs about
        # the same and the latency percentiles do not fall between encoders
        stream = [list(pair) for pair in zip(*words)]
        # r of both drawn classes at t=1: the unit-basis q=2 map needs 3 (its
        # 4x4 requirements hold 2,2,1 and no length-2 code meets them); the
        # ternary map has every class at function distance 1, so it needs 9
        # words at pairwise distance 2, which length 2 cannot hold and the
        # [3,2,2] parity code gives.
        return {"functions": functions, "t": T_CODEC, "expected_r": {"q2k9": 3, "q3k6": 3},
                "stream": stream}
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(inputs: dict, lib, workdir: Path) -> dict:
    """Build the FunctionSpecs and write one function file per function."""
    specs = {}
    for name, (q, matrix) in inputs["functions"].items():
        f = lib.linear_function(q, [tuple(row) for row in matrix])
        (workdir / f"{name}.func").write_text(lib.formats.render_function_file(f))
        specs[name] = f
    return specs


# -- independent arithmetic --------------------------------------------------

def vec(q: int, k: int, rank: int) -> tuple[int, ...]:
    """Digits of ``rank`` in base q, most significant first."""
    out = []
    for _ in range(k):
        rank, d = divmod(rank, q)
        out.append(d)
    return tuple(reversed(out))


def dist(x, y) -> int:
    return sum(a != b for a, b in zip(x, y))


def evaluate(q: int, matrix, u) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, u)) % q for row in matrix)


def meets(words, rows) -> bool:
    """True when every pair of words is at least as far apart as required."""
    m = len(rows)
    return len(words) == m and all(
        dist(words[i], words[j]) >= rows[i][j] for i in range(m) for j in range(i + 1, m)
    )


def fcc_problem(q: int, matrix, t: int, parity) -> str | None:
    """First pair of messages with different values whose codewords lie closer
    than 2t+1, checked over the radius-2t ball of each message (pairs further
    apart meet the distance on the message part alone)."""
    k = len(matrix[0])
    need = 2 * t + 1
    place = [q ** (k - 1 - i) for i in range(k)]
    labels = [evaluate(q, matrix, vec(q, k, rank)) for rank in range(q**k)]
    moves = [
        (w, positions, deltas)
        for w in range(1, 2 * t + 1)
        for positions in itertools.combinations(range(k), w)
        for deltas in itertools.product(range(1, q), repeat=w)
    ]
    for rank in range(q**k):
        u = vec(q, k, rank)
        for w, positions, deltas in moves:
            other = rank
            for p, dlt in zip(positions, deltas):
                other += ((u[p] + dlt) % q - u[p]) * place[p]
            if other > rank and labels[other] != labels[rank]:
                d = w + dist(parity[rank], parity[other])
                if d < need:
                    return f"messages {rank} and {other} are {d} apart"
    return None


# -- op plumbing -------------------------------------------------------------

@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    stream: bool = True


@dataclass
class Context:
    """What one setup produced: the library modules, inputs and files."""

    lib: object
    cli: object
    inputs: dict
    specs: dict
    workdir: Path


def _budget(ctx: Context, value) -> bool:
    return isinstance(value, ctx.lib.BudgetExceededError)


def _unexpected(value) -> str:
    return f"unexpected {type(value).__name__}: {value}"


def ops(workload: str, ctx: Context):
    return {"bounds": _bounds_ops, "search": _search_ops, "codec": _codec_ops}[workload](ctx)


# -- bounds ------------------------------------------------------------------

def _check_report(ctx: Context, name: str, t: int, report) -> tuple:
    if isinstance(report, BaseException):
        return _unexpected(report), 0
    entries = {e.name: e for e in report.entries}
    budget = sum(e.note.startswith("budget:") for e in report.entries)
    if report.optimal is None:
        budget += 1
    upper = entries["code_search"].integer
    if upper is None:
        upper = KNOWN_ACHIEVABLE[(name, t)]
    for e in report.entries:
        if e.sense == "lower" and e.integer is not None and e.integer > upper:
            return f"{e.name} = {e.integer} exceeds the upper bound {upper}", budget
    if entries["distance_2t"].integer != 2 * t:
        return f"distance_2t = {entries['distance_2t'].integer}", budget
    alpha = KNOWN_ALPHA.get((name, t))
    indep = entries["independence"].integer
    if alpha is not None and indep is not None:
        q, matrix = REFERENCE[name]
        want = 0
        while alpha * q**want < q ** len(matrix[0]):
            want += 1
        if indep != want:
            return f"independence = {indep}, expected {want}", budget
    return None, budget


def _bounds_ops(ctx: Context):
    nb = ctx.inputs["node_budget"]
    for name, t in ctx.inputs["cells"]:
        f = ctx.specs[name]
        yield Op(
            f"bound_report {name} t={t}",
            lambda f=f, t=t: ctx.lib.bound_report(f, t, node_budget=nb),
            lambda rep, name=name, t=t: _check_report(ctx, name, t, rep),
        )


# -- search ------------------------------------------------------------------

def _check_alpha(ctx: Context, key, graph, res) -> tuple:
    if _budget(ctx, res):
        if key not in CERTIFIED_ALPHA or not 1 <= res.best_lower <= res.best_upper:
            return f"budget exit with bounds {res.best_lower}..{res.best_upper}", 1
        return None, 1
    if isinstance(res, BaseException):
        return _unexpected(res), 0
    members = res.members
    if any(graph.rows[a] >> b & 1 for a in members for b in members):
        return "witness is not independent", 0
    if len(members) != res.size or not res.complete:
        return f"size {res.size} with {len(members)} members, complete={res.complete}", 0
    if key in KNOWN_ALPHA and res.size != KNOWN_ALPHA[key]:
        return f"alpha = {res.size}, expected {KNOWN_ALPHA[key]}", 0
    if key in CERTIFIED_ALPHA and res.size < CERTIFIED_ALPHA[key]:
        return f"alpha = {res.size} is below the certified {CERTIFIED_ALPHA[key]}", 0
    return None, 0


def _check_aq(ctx: Context, qnd, est) -> tuple:
    known = KNOWN_AQ[qnd]
    if _budget(ctx, est):
        # the solver searches the words other than the pinned zero word
        if est.best_lower + 1 <= known <= est.best_upper + 1:
            return None, 1
        return f"budget bounds {est.best_lower}..{est.best_upper} exclude {known - 1}", 1
    if isinstance(est, BaseException):
        return _unexpected(est), 0
    if est.value != known or len(est.witness) != known:
        return f"A_{qnd[0]}({qnd[1]},{qnd[2]}) = {est.value}, expected {known}", 0
    if any(dist(a, b) < qnd[2] for a, b in itertools.combinations(est.witness, 2)):
        return "witness code is closer than d", 0
    return None, 0


def _check_nq(ctx: Context, key, res) -> tuple:
    if isinstance(res, BaseException):
        return _unexpected(res), 0
    D, result = res
    if not result.found or result.n != KNOWN_NQ[key]:
        return f"N = {result.n}, expected {KNOWN_NQ[key]}", 0
    words = result.witness.words
    if any(len(w) != result.n for w in words) or not meets(words, D.rows):
        return "witness does not meet the matrix", 0
    return None, 0


def _check_extract(ctx: Context, t: int, r: int, enc) -> tuple:
    q, matrix = REFERENCE["q3k5"]
    if _budget(ctx, enc):
        return None, 1
    if r < 2 * t:
        # r < 2t cannot separate two messages at distance 1 with different values
        if isinstance(enc, ctx.lib.CodeNotFoundError):
            return None, 0
        return f"expected no encoder at r={r}, got {enc!r}"[:200], 0
    if isinstance(enc, BaseException):
        return _unexpected(enc), 0
    if enc.r != r:
        return f"encoder has r={enc.r}", 0
    return fcc_problem(q, matrix, t, enc.parity), 0


def _search_ops(ctx: Context):
    lib = ctx.lib
    nb = ctx.inputs["node_budget"]
    for name in ("proj3", "proj6", "proj8"):
        for t in (1, 2, 3):
            f = ctx.specs[name]
            box = {}

            def call(f=f, t=t, box=box):
                box["graph"] = lib.build_graph(f, t, 0)
                return lib.independence_number(box["graph"], node_budget=nb)

            yield Op(
                f"independence_number {name} t={t}",
                call,
                lambda res, key=(name, t), box=box: _check_alpha(ctx, key, box["graph"], res),
            )
    for qnd in KNOWN_AQ:
        budget = nb if qnd == (2, 10, 5) else lib.bounds.DEFAULT_NODE_BUDGET
        yield Op(
            f"a_q_exact {qnd}",
            lambda qnd=qnd, budget=budget: lib.a_q_exact(*qnd, node_budget=budget),
            lambda est, qnd=qnd: _check_aq(ctx, qnd, est),
        )
    for key in KNOWN_NQ:
        name, kind, t = key
        build = lib.build_drm if kind == "drm" else lib.build_fdm

        def call(f=ctx.specs[name], t=t, build=build):
            D = build(f, t)
            return D, lib.n_q_exact(D, f.q)

        yield Op(f"n_q_exact {kind} {name} t={t}", call, lambda res, key=key: _check_nq(ctx, key, res))
    f = ctx.specs["q3k5"]
    for r in (1, 2):
        yield Op(
            f"build_graph+extract_fcc q3k5 t=1 r={r}",
            lambda r=r: lib.extract_fcc(lib.build_graph(f, 1, r), f, 1, node_budget=nb),
            lambda enc, r=r: _check_extract(ctx, 1, r, enc),
        )


# -- codec -------------------------------------------------------------------

def _check_built(verified) -> tuple:
    if isinstance(verified, BaseException):
        return _unexpected(verified), 0
    return (None if verified is True else f"construction reported {verified!r}"), 0


def _check_loaded(ctx: Context, name: str, built, enc) -> tuple:
    if isinstance(enc, BaseException):
        return _unexpected(enc), 0
    q, matrix = ctx.inputs["functions"][name]
    t, want_r = ctx.inputs["t"], ctx.inputs["expected_r"][name]
    if enc.r != want_r or enc.t != t:
        return f"encoder has r={enc.r} t={enc.t}, expected r={want_r}", 0
    if built is not None and built.parity != enc.parity:
        return "encoder read back differs from the one written", 0
    return fcc_problem(q, matrix, t, enc.parity), 0


def received_word(q: int, codeword, errors: int, salt: int):
    rng = random.Random(salt)
    y = list(codeword)
    for p in rng.sample(range(len(y)), errors):
        y[p] = (y[p] + rng.randrange(1, q)) % q
    return tuple(y)


def expected_label(q: int, matrix, t: int, codewords, y):
    """Value of any codeword within t of y (all share one value in a valid
    code), or None when there is none."""
    k = len(matrix[0])
    for rank, c in enumerate(codewords):
        if dist(c, y) <= t:
            return evaluate(q, matrix, vec(q, k, rank))
    return None


def _check_decode(ctx: Context, want, label) -> tuple:
    if isinstance(label, ctx.lib.DecodingFailureError):
        return (None if want is None else f"decoding failed, expected {want}"), 0
    if isinstance(label, BaseException):
        return _unexpected(label), 0
    return (None if label == want else f"decoded {label}, expected {want}"), 0


def _decode_all(lib, jobs) -> tuple:
    """Decode each (encoder, word); a failure is kept as its exception so
    that the remaining words still decode."""
    out = []
    for enc, y in jobs:
        try:
            out.append(lib.decode(enc, y))
        except Exception as exc:
            out.append(exc)
    return tuple(out)


def _check_decodes(ctx: Context, wants, labels) -> tuple:
    if isinstance(labels, BaseException):
        return _unexpected(labels), 0
    for want, label in zip(wants, labels):
        problem, _ = _check_decode(ctx, want, label)
        if problem:
            return problem, 0
    return None, 0


def decode_ops(ctx: Context, encoders: dict, stream):
    """One decode op per entry of the stream, decoding each received word of
    the entry; words with at most t errors must give f(u), the rest whatever
    the nearest-codeword oracle gives."""
    t = ctx.inputs["t"]
    tables = {}
    for name, enc in encoders.items():
        q, matrix = ctx.inputs["functions"][name]
        k = len(matrix[0])
        tables[name] = [vec(q, k, rank) + enc.parity[rank] for rank in range(q**k)]
    for entry in stream:
        jobs, wants = [], []
        for name, rank, errors, salt in entry:
            q, matrix = ctx.inputs["functions"][name]
            k = len(matrix[0])
            y = received_word(q, tables[name][rank], errors, salt)
            if errors <= t:
                wants.append(evaluate(q, matrix, vec(q, k, rank)))
            else:
                wants.append(expected_label(q, matrix, t, tables[name], y))
            jobs.append((encoders[name], y))
        yield Op(
            "decode " + " + ".join(name for name, *_ in entry),
            lambda jobs=jobs: _decode_all(ctx.lib, jobs),
            lambda labels, wants=wants: _check_decodes(ctx, wants, labels),
        )


def _codec_ops(ctx: Context):
    lib, t, workdir = ctx.lib, ctx.inputs["t"], ctx.workdir
    built = {}

    def build_q2k9():
        f = ctx.specs["q2k9"]
        D = lib.cosetwise_requirements(f, t)
        res = lib.n_q_exact(D, f.q)
        enc = lib.build_cosetwise_encoder(f, t, res.witness)
        verified = lib.verify_fcc(enc)
        (workdir / "q2k9.enc").write_text(lib.formats.render_encoder_file(enc))
        built["q2k9"] = enc
        return verified

    def build_q3k6():
        argv = ["construct", "--func", str(workdir / "q3k6.func"), "--t", str(t),
                "--out", str(workdir / "q3k6.enc")]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = ctx.cli.main(argv)
        return json.loads(out.getvalue()).get("verified") if code == 0 else f"exit {code}"

    yield Op("encoder q2k9 (coset-wise)", build_q2k9, _check_built, False)
    yield Op("encoder q3k6 (fcc construct)", build_q3k6, _check_built, False)
    yield from read_and_decode_ops(ctx, built)


def read_and_decode_ops(ctx: Context, built: dict):
    """Read every encoder file back, check it, then decode the stream."""
    encoders = {}
    for name, spec in ctx.specs.items():
        def load(name=name, spec=spec):
            enc = ctx.lib.formats.read_encoder_file(ctx.workdir / f"{name}.enc", spec)
            encoders[name] = enc
            return enc

        yield Op(
            f"read encoder {name}",
            load,
            lambda enc, name=name: _check_loaded(ctx, name, built.get(name), enc),
            False,
        )
    if len(encoders) == len(ctx.specs):
        yield from decode_ops(ctx, encoders, ctx.inputs["stream"])
