"""Command-line front end: every computation behind one `fcc` subcommand.

Each subcommand accepts only the flags its handler reads: --format on drm,
fdm, bounds, spectrum and compare; --budget-nodes on bounds, alpha and
construct; --budget-seconds on bounds, alpha, nq and construct.  Any other
flag is an input error.  One writer emits every result: text outputs (CSV,
encoder files) open with provenance comments (tool version, command line,
and the budgets the command accepts), and JSON outputs carry the same data
under a "meta" member.

Exit codes: 0 = success, 1 = negative result (proved absent / verification
failed / decoding failed), 2 = input error, 3 = solver budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys
from dataclasses import asdict
from pathlib import Path
from time import monotonic

from . import __version__
from .bounds import bound_report, compare_report
from .cosets import build_cosetwise_encoder
from .distance import (
    _fdm_search,
    _pairwise_order,
    _refuse_order,
    build_drm,
    build_fdm,
    matrix_from_lists,
    n_q_exact,
)
from .errors import BudgetExceededError, CodeNotFoundError, DecodingFailureError
from .fields import _count_over
from .formats import (
    _int,
    label_text,
    parse_digit_word,
    parse_inline_rows,
    read_aq_table,
    read_encoder_file,
    read_function_file,
    read_parity_file,
    render_bounds_csv,
    render_compare_csv,
    render_encoder_file,
    render_matrix_csv,
    render_spectrum_csv,
)
from .functions import _check_t, linear_function
from .graph import (
    EXACT_ALPHA_LIMIT,
    GRAPH_VERTEX_LIMIT,
    _class_encoder,
    build_graph,
    decode as graph_decode,
    extract_fcc,
    find_fcc_violation,
    independence_number,
)
from .mis import DEFAULT_NODE_BUDGET
from .spectrum import spectrum_of

EX_OK = 0
EX_NEGATIVE = 1
EX_INPUT = 2
EX_BUDGET = 3


def _load_function(args):
    """Resolve the function source: exactly one of --func / --matrix."""
    if bool(args.func) == bool(args.matrix):
        raise ValueError("provide exactly one function source (--func or --matrix)")
    if args.func:
        f = read_function_file(args.func)
        if args.q is not None and args.q != f.q:
            raise ValueError(f"--q {args.q} contradicts the file's q={f.q}")
        return f
    rows = parse_inline_rows(args.matrix)
    if not rows:
        raise ValueError("--matrix needs at least one row (use a file for l=0)")
    return linear_function(args.q if args.q is not None else 2, rows)


def _required_t(args) -> int:
    if args.t is None:
        raise ValueError("--t is required for this command")
    _check_t(args.t)
    return args.t


def _deadline(args) -> float | None:
    """The --budget-seconds deadline on the monotonic clock, if one is set."""
    seconds = args.budget_seconds
    if seconds is None:
        return None
    if seconds <= 0:
        raise ValueError("--budget-seconds must be positive")
    if not math.isfinite(seconds):
        raise ValueError("--budget-seconds must be finite")
    return monotonic() + seconds


def _budgets(args) -> tuple[int, float | None]:
    if args.budget_nodes <= 0:
        raise ValueError("--budget-nodes must be positive")
    return args.budget_nodes, _deadline(args)


def _meta(args, argv) -> dict:
    """Tool, command line, and the budget flags the command accepts."""
    meta = {"tool": f"fcc {__version__}", "command": "fcc " + shlex.join(argv)}
    for key in ("budget_nodes", "budget_seconds"):
        if hasattr(args, key):
            meta[key] = getattr(args, key)
    return meta


def _provenance(args, argv) -> list[str]:
    """_meta as comment lines: tool, command, then any budgets on one line."""
    meta = _meta(args, argv)
    lines = [f"tool {meta.pop('tool')}", f"command {meta.pop('command')}"]
    budgets = [
        f"{key.replace('_', '-')} {'none' if value is None else value}"
        for key, value in meta.items()
    ]
    return lines + [" ".join(budgets)] if budgets else lines


def _write(args, argv, payload=None, render=None, to_stdout=False) -> None:
    """Emit one result to --out, or to stdout without --out or with
    ``to_stdout``.  ``render`` maps the provenance lines to the command's
    text form (CSV or an encoder file) and is used unless absent or --format
    is json; otherwise the result is one JSON object, "meta" and then the
    payload's members (byte rows as arrays of ints)."""
    if render is not None and getattr(args, "format", None) != "json":
        text = render(_provenance(args, argv))
    else:
        result = {"meta": _meta(args, argv), **payload}
        text = json.dumps(result, indent=2, default=list) + "\n"
    if args.out and not to_stdout:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# -- command handlers --------------------------------------------------------

def _matrix_command(build):
    def handler(args, argv) -> int:
        f = _load_function(args)
        matrix = build(f, _required_t(args))
        labels = [label_text(x) for x in matrix.labels]
        header = ["labels " + " ".join(labels)]
        _write(
            args,
            argv,
            {"labels": labels, "rows": matrix.rows},
            lambda lines: render_matrix_csv(matrix, lines + header),
        )
        return EX_OK

    return handler


def cmd_bounds(args, argv) -> int:
    f = _load_function(args)
    t = _required_t(args)
    node_budget, deadline = _budgets(args)
    report = bound_report(f, t, node_budget=node_budget, deadline=deadline)
    payload = {"descriptor": report.descriptor, "optimal": report.optimal}
    payload["entries"] = [
        {
            "name": e.name,
            "sense": e.sense,
            "value": e.integer,
            "exact": None if e.rational is None else str(e.rational),
            "note": e.note,
            "limit": e.limit,
        }
        for e in report.entries
    ]
    _write(args, argv, payload, lambda lines: render_bounds_csv(report, lines))
    # A partial report is still printed, but an entry whose search ran out
    # of budget flags the run; a size refusal or a skipped row does not.
    if any(e.limit == "budget" for e in report.entries):
        return EX_BUDGET
    return EX_OK


def cmd_alpha(args, argv) -> int:
    f = _load_function(args)
    t = _required_t(args)
    if args.r is None:
        raise ValueError("--r is required: alpha works on the graph at one redundancy")
    node_budget, deadline = _budgets(args)
    # Refuse an exact search past its limit before its graph is built; a
    # graph past the vertex limit gets build_graph's own refusal.
    n = f.k + args.r
    over = _count_over(f.q, n, EXACT_ALPHA_LIMIT)
    if over and args.r >= 0 and not _count_over(f.q, n, GRAPH_VERTEX_LIMIT):
        raise ValueError(
            f"exact search limited to {EXACT_ALPHA_LIMIT} vertices; got {over}"
        )
    G = build_graph(f, t, args.r)
    res = independence_number(G, node_budget=node_budget, deadline=deadline)
    _write(
        args,
        argv,
        {
            "vertices": G.n_vertices,
            "edges": G.edge_count(),
            "alpha": res.size,
            "witness": sorted(res.members),
            "nodes": res.nodes,
        },
    )
    return EX_OK


def cmd_nq(args, argv) -> int:
    if bool(args.func) == bool(args.matrix):
        raise ValueError(
            "provide exactly one source: --func (with a target matrix) or "
            "--matrix with the requirement rows"
        )
    deadline = _deadline(args)
    if args.matrix:
        D = matrix_from_lists(parse_inline_rows(args.matrix))
        q = args.q if args.q is not None else 2
        res = n_q_exact(D, q, r_cap=args.r_max, deadline=deadline)
    else:
        f = _load_function(args)
        t = _required_t(args)
        if args.target == "fdm":
            res, _ = _fdm_search(f, t, args.r_max, deadline)
        else:
            # Refuse the order before the q^k x q^k matrix is built.
            _refuse_order(_pairwise_order(f, t))
            res = n_q_exact(build_drm(f, t), f.q, r_cap=args.r_max, deadline=deadline)
    if res.found:
        witness = [label_text(w) for w in res.witness.words]
        _write(args, argv, {"found": True, "n": res.n, "witness": witness})
        return EX_OK
    reason = f"no code meets the matrix at any length up to {res.r_cap}"
    payload = {"found": False, "n": None, "r_cap": res.r_cap, "reason": reason}
    _write(args, argv, payload)
    return EX_NEGATIVE


def cmd_spectrum(args, argv) -> int:
    f = _load_function(args)
    t = _required_t(args)
    if args.r is None:
        raise ValueError("--r is required: the spectrum is per-redundancy")
    spec = spectrum_of(f, t, args.r)
    _write(
        args,
        argv,
        {"eigenvalues": spec.eigenvalues},
        lambda lines: render_spectrum_csv(spec, lines),
    )
    return EX_OK


def cmd_construct(args, argv) -> int:
    f = _load_function(args)
    t = _required_t(args)
    node_budget, deadline = _budgets(args)
    if args.r is not None and args.parity:
        raise ValueError("pass --r (graph search) or --parity (coset-wise), not both")
    if args.parity:
        parity = read_parity_file(args.parity, f.q)
        E = build_cosetwise_encoder(f, t, parity)
        method = "coset-wise from the given parity file"
    elif args.r is not None:
        G = build_graph(f, t, args.r)
        E = extract_fcc(G, f, t, node_budget=node_budget, deadline=deadline)
        method = f"independent-set search at r={args.r}"
    else:
        res, fdm = _fdm_search(f, t, args.r_max, deadline)
        if not res.found:
            raise CodeNotFoundError(
                f"no parity code meets the function-distance matrix at any "
                f"length up to {res.r_cap}; pass --r for a graph search"
            )
        E = _class_encoder(f, t, res.witness, fdm)
        method = "minimum-length parity search on the function-distance matrix"
    violation = find_fcc_violation(E)
    assert violation is None, f"constructed encoder fails verification: {violation}"
    method_line = [f"method {method}"]
    _write(args, argv, render=lambda lines: render_encoder_file(E, lines + method_line))
    if args.out:
        summary = {"r": E.r, "t": t, "verified": True, "method": method}
        _write(args, argv, {**summary, "encoder": args.out}, to_stdout=True)
    return EX_OK


def cmd_verify(args, argv) -> int:
    f = _load_function(args)
    E = read_encoder_file(args.encoder, f)
    violation = find_fcc_violation(E)
    if violation is None:
        _write(args, argv, {"ok": True, "r": E.r, "t": E.t})
        return EX_OK
    u1, u2, d = violation
    _write(
        args,
        argv,
        {
            "ok": False,
            "violation": {
                "u1": label_text(u1),
                "u2": label_text(u2),
                "distance": d,
                "required": 2 * E.t + 1,
            },
        },
    )
    return EX_NEGATIVE


def cmd_decode(args, argv) -> int:
    f = _load_function(args)
    E = read_encoder_file(args.encoder, f)
    label = graph_decode(E, parse_digit_word(args.word.strip(), f.q))
    _write(args, argv, {"label": label_text(label)})
    return EX_OK


def cmd_compare(args, argv) -> int:
    if args.d is None:
        raise ValueError("--d is required")
    if args.k_range is None:
        raise ValueError("--k-range is required (form A:B, inclusive)")
    parts = args.k_range.split(":")
    if len(parts) != 2:
        raise ValueError(f"--k-range must have the form A:B, got {args.k_range!r}")
    low, high = (_int("--k-range", part) for part in parts)
    if low < 1:
        raise ValueError(f"--k-range must have A >= 1, got {args.k_range!r}")
    if low > high:
        raise ValueError(f"--k-range must have A <= B, got {args.k_range!r}")
    k_range = range(low, high + 1)
    q = args.q if args.q is not None else 2
    table = read_aq_table(args.aq_table) if args.aq_table else None
    rows = compare_report(q, args.d, k_range, table)
    _write(
        args,
        argv,
        {"rows": [asdict(row) for row in rows]},
        lambda lines: render_compare_csv(
            rows, header_lines=lines, include_table_columns=table is not None
        ),
    )
    return EX_OK


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcc",
        description="Function-correcting codes: distance requirements, "
        "conflict graphs, redundancy bounds, and coset-wise constructions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"fcc {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, handler, help_text: str, func_source: bool = True):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", metavar="PATH", help="write output here, not stdout")
        if func_source:
            p.add_argument("--func", metavar="PATH", help="function file")
            p.add_argument(
                "--matrix", metavar="ROWS", help="inline matrix rows 'r1;r2;...'"
            )
            p.add_argument(
                "--q", type=int, help="field size for --matrix (default 2)"
            )
        return p

    def formats(p, default: str) -> None:
        p.add_argument("--format", choices=("csv", "json"), default=default)

    def budgets(p, nodes: bool = True) -> None:
        if nodes:
            p.add_argument(
                "--budget-nodes", type=int, metavar="N", default=DEFAULT_NODE_BUDGET
            )
        p.add_argument("--budget-seconds", type=float, metavar="S")

    p = add("drm", _matrix_command(build_drm), "message-pairwise distance requirements")
    formats(p, "csv")
    p.add_argument("--t", type=int)

    p = add("fdm", _matrix_command(build_fdm), "function-distance requirements")
    formats(p, "csv")
    p.add_argument("--t", type=int)

    p = add("bounds", cmd_bounds, "every applicable redundancy bound for (f, t)")
    formats(p, "json")
    budgets(p)
    p.add_argument("--t", type=int)

    p = add("alpha", cmd_alpha, "exact independence number of the conflict graph")
    budgets(p)
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int, help="redundancy of the graph")

    p = add("nq", cmd_nq, "minimum parity length meeting a requirement matrix")
    budgets(p, nodes=False)
    p.add_argument(
        "target",
        nargs="?",
        choices=("fdm", "drm"),
        default="fdm",
        help="which requirement matrix to search when --func is given",
    )
    p.add_argument("--t", type=int)
    p.add_argument("--r-max", type=int, help="length cap (default 12 binary, else 8)")

    p = add("spectrum", cmd_spectrum, "graph eigenvalues in index-rank order")
    formats(p, "csv")
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int, help="redundancy of the graph")

    p = add("construct", cmd_construct, "build and verify an encoder")
    budgets(p)
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int, help="force a graph search at this redundancy")
    p.add_argument("--r-max", type=int, help="length cap for the parity search")
    p.add_argument(
        "--parity", metavar="PATH", help="coset-wise parity words, one per line"
    )

    p = add("verify", cmd_verify, "check an encoder file against its function")
    p.add_argument("encoder", help="encoder file to check")

    p = add("decode", cmd_decode, "decode a received word to a function value")
    p.add_argument("encoder", help="encoder file to decode with")
    p.add_argument("word", help="received word as a digit string of length k+r")

    p = add("compare", cmd_compare, "per-k bound comparison sweep", func_source=False)
    formats(p, "csv")
    p.add_argument("--q", type=int, help="field size (default 2)")
    p.add_argument("--d", type=int, help="minimum distance 2t+1")
    p.add_argument("--k-range", metavar="A:B", help="message lengths, inclusive")
    p.add_argument("--aq-table", metavar="PATH", help="external code-size table CSV")

    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(raw)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_INPUT
    try:
        return args.handler(args, raw)
    except BudgetExceededError as exc:
        detail = f"error: budget exceeded: {exc}"
        if exc.best_lower is not None:
            detail += f" (best lower bound {exc.best_lower}, upper {exc.best_upper})"
        print(detail, file=sys.stderr)
        return EX_BUDGET
    except CodeNotFoundError as exc:
        _write(args, raw, {"found": False, "reason": str(exc)}, to_stdout=True)
        return EX_NEGATIVE
    except DecodingFailureError as exc:
        _write(args, raw, {"label": None, "reason": str(exc)}, to_stdout=True)
        return EX_NEGATIVE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_INPUT


if __name__ == "__main__":
    sys.exit(main())
