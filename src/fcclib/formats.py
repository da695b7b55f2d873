"""Text formats shared by the command line and the test suite.

Every reader skips blank lines and lines starting with '#', so every writer
may prepend provenance comments without breaking its own reader.  Renderers
return the full file text; callers put it on disk.  Digit-string fields
(parity words, received words) hold one decimal digit per symbol, so their
readers and renderers reject q > 10; function files separate their symbols
with spaces and take any prime q.  The `rank value` bodies of table function
files and encoder files share one reader, ``_read_rank_body``: line count,
then per line two fields, rank in range and no rank twice, and one parse
per distinct value text.  Every integer field of every file, and of the
inline ``--matrix`` rows, goes through ``_int``, whose refusal names the
file or flag and the text.
"""

from __future__ import annotations

from functools import cache, partial
from pathlib import Path

from .bounds import AqEstimate, AqTable, BoundReport
from .distance import DistanceMatrix, ParityCode, matrix_from_lists
from .fields import ENUMERATION_LIMIT, _count_over, is_prime
from .functions import FunctionSpec, _check_domain, linear_function, table_function
from .graph import FccEncoder, FccGraph
from .spectrum import Spectrum

TABLE_KINDS = ("exact", "upper", "lower")


def _data_lines(text: str) -> list[str]:
    return [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]


def _int(path, text: str) -> int:
    """The integer ``text`` of a field of the file ``path``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}: expected an integer, got {text!r}") from None


def _refuse_enumeration(path, what: str, q: int, k: int) -> None:
    """Refuse a header whose q^k rank lines would pass ENUMERATION_LIMIT,
    before q^k is formed."""
    if _count_over(q, k, ENUMERATION_LIMIT):
        raise ValueError(
            f"{path}: {what} over q={q}, k={k} would exceed the enumeration "
            f"limit of {ENUMERATION_LIMIT} entries"
        )


def _read_rank_body(path, body, size: int, kind: str, fields: str, parse) -> list:
    """The values of ``size`` lines ``rank value``, one per rank, each distinct
    value text read once by ``parse``.  Refusals name the lines ``kind`` and
    their fields ``fields``, whose first field, underscores read as spaces,
    names the rank."""
    if len(body) != size:
        raise ValueError(f"{path}: expected {size} {kind} lines, got {len(body)}")
    rank_name = fields.split()[0].replace("_", " ")
    values: list = [None] * size
    parse = cache(parse)
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: {kind} line {line!r} must be {fields!r}")
        rank = _int(path, parts[0])
        if not 0 <= rank < size:
            raise ValueError(f"{path}: {rank_name} {rank} out of range")
        if values[rank] is not None:
            raise ValueError(f"{path}: {rank_name} {rank} listed twice")
        values[rank] = parse(parts[1])
    return values


def _comment_block(header_lines) -> str:
    return "".join(f"# {line}\n" for line in header_lines)


def _require_digit_field(q: int) -> None:
    if q > 10:
        raise ValueError(f"digit-string words need q <= 10, got q={q}")


def parse_digit_word(text: str, q: int) -> tuple[int, ...]:
    """Symbols of a digit-string word over F_q, one decimal digit each."""
    _require_digit_field(q)
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"expected a digit string, got {text!r}")
    return tuple(int(ch) for ch in text)


def _parse_parity_word(path, text: str, q: int) -> tuple[int, ...]:
    """A parity word over F_q of the file ``path``, '-' for the empty word."""
    try:
        word = () if text == "-" else parse_digit_word(text, q)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if max(word, default=0) >= q:
        raise ValueError(f"{path}: parity word {text!r} has symbols outside [0, {q})")
    return word


def parse_inline_rows(text: str) -> list[list[int]]:
    """Parse an inline matrix: rows split on ';', entries split on commas or
    whitespace; a row with neither separator is read digit by digit.  A
    non-integer entry is refused naming the ``--matrix`` flag that holds it."""
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "," in chunk:
            cells = [c for c in (p.strip() for p in chunk.split(",")) if c]
        elif any(ch.isspace() for ch in chunk):
            cells = chunk.split()
        else:
            cells = list(chunk)
        rows.append([_int("--matrix", c) for c in cells])
    return rows


def label_text(label) -> str:
    """Compact display form of an index label: digit vectors collapse to
    digit strings, everything else falls back to str()."""
    if isinstance(label, tuple) and all(
        isinstance(x, int) and 0 <= x <= 9 for x in label
    ):
        return "".join(str(x) for x in label) if label else "-"
    return str(label)


# -- function files ----------------------------------------------------------

def read_function_file(path) -> FunctionSpec:
    """Parse a function file.

    Header line `q k l mode`; linear mode is followed by l rows of k
    space-separated digits, table mode by q^k lines `rank label` (integer
    labels; the l field is ignored for tables).
    """
    lines = _data_lines(Path(path).read_text())
    if not lines:
        raise ValueError(f"{path}: empty function file")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"{path}: header must be 'q k l mode', got {lines[0]!r}")
    q, k, l = (_int(path, x) for x in head[:3])
    _check_domain(q, k)
    mode = head[3]
    body = lines[1:]
    if mode == "linear":
        if len(body) != l:
            raise ValueError(f"{path}: expected {l} matrix rows, got {len(body)}")
        rows = [[_int(path, x) for x in line.split()] for line in body]
        for row in rows:
            if len(row) != k:
                raise ValueError(f"{path}: matrix row {row} does not have length {k}")
        return linear_function(q, rows, k)
    if mode == "table":
        _refuse_enumeration(path, "a table", q, k)
        labels = _read_rank_body(
            path, body, q**k, "table", "rank label", partial(_int, path)
        )
        return table_function(q, k, labels)
    raise ValueError(f"{path}: unknown mode {mode!r}")


def render_function_file(f: FunctionSpec, header_lines=()) -> str:
    l = f.l if f.mode == "linear" else 0
    lines = [f"{f.q} {f.k} {l} {f.mode}"]
    if f.mode == "linear":
        assert f.matrix is not None
        lines += [" ".join(str(x) for x in row) for row in f.matrix]
    else:
        assert f.table is not None
        lines += [f"{rank} {label}" for rank, label in enumerate(f.table)]
    return _comment_block(header_lines) + "\n".join(lines) + "\n"


# -- distance matrices -------------------------------------------------------

def read_matrix_csv(path) -> DistanceMatrix:
    """Parse M comma-separated integer rows into a DistanceMatrix (labels
    default to row ranks; any label header comment is informational only)."""
    lines = _data_lines(Path(path).read_text())
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    entries = [[_int(path, x) for x in line.split(",")] for line in lines]
    return matrix_from_lists(entries)


def render_matrix_csv(matrix: DistanceMatrix, header_lines=()) -> str:
    body = "\n".join(",".join(str(x) for x in row) for row in matrix.to_lists())
    return _comment_block(header_lines) + body + "\n"


# -- parity codes ------------------------------------------------------------

def read_parity_file(path, q: int) -> ParityCode:
    """Parse one parity word per line, each a digit string over F_q ('-' for
    the empty word)."""
    lines = _data_lines(Path(path).read_text())
    if not lines:
        raise ValueError(f"{path}: empty parity file")
    words = tuple(_parse_parity_word(path, line, q) for line in lines)
    r = len(words[0])
    for line, word in zip(lines, words):
        if len(word) != r:
            raise ValueError(
                f"{path}: parity word {line!r} has length {len(word)}, expected {r}"
            )
    return ParityCode(q=q, r=r, words=words)


def render_parity_file(code: ParityCode, header_lines=()) -> str:
    _require_digit_field(code.q)
    body = "\n".join(map(label_text, code.words))
    return _comment_block(header_lines) + body + "\n"


# -- encoder files -----------------------------------------------------------

def render_encoder_file(E: FccEncoder, header_lines=()) -> str:
    """Header `q k r t`, then one `message_rank parity_digits` line per
    message ('-' stands for the empty parity word when r = 0)."""
    _require_digit_field(E.q)
    texts = {w: "".join(map(str, w)) or "-" for w in dict.fromkeys(E.parity)}
    lines = [f"{E.q} {E.k} {E.r} {E.t}"]
    lines += [f"{rank} {texts[w]}" for rank, w in enumerate(E.parity)]
    return _comment_block(header_lines) + "\n".join(lines) + "\n"


def read_encoder_file(path, f: FunctionSpec) -> FccEncoder:
    """Parse an encoder file against the function it protects (the file
    stores only q, k, r, t and the parity table)."""
    lines = _data_lines(Path(path).read_text())
    if not lines:
        raise ValueError(f"{path}: empty encoder file")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"{path}: header must be 'q k r t', got {lines[0]!r}")
    q, k, r, t = (_int(path, x) for x in head)
    _require_digit_field(q)
    if (q, k) != (f.q, f.k):
        raise ValueError(
            f"{path}: encoder is for q={q}, k={k}; the function has "
            f"q={f.q}, k={f.k}"
        )
    _refuse_enumeration(path, "an encoder", q, k)

    def parse(text: str) -> tuple[int, ...]:
        word = _parse_parity_word(path, text, q)
        if len(word) != r:
            raise ValueError(f"{path}: parity {text!r} does not have length {r}")
        return word

    parity = _read_rank_body(
        path, lines[1:], q**k, "parity", "message_rank parity_digits", parse
    )
    return FccEncoder(f=f, t=t, r=r, parity=tuple(parity))


# -- code-size tables --------------------------------------------------------

def read_aq_table(path) -> AqTable:
    """Parse a code-size table CSV with columns q,n,d,value,kind (kind one of
    exact/upper/lower); a literal header row is allowed and skipped."""
    rows = []
    for line in _data_lines(Path(path).read_text()):
        parts = [p.strip() for p in line.split(",")]
        if parts and parts[0] == "q":
            continue
        if len(parts) != 5:
            raise ValueError(f"{path}: row {line!r} must have 5 columns")
        q, n, d, value = (_int(path, x) for x in parts[:4])
        # Every A_q(n, d) with n >= 0 and d >= 1 is at least 1.
        if not (is_prime(q) and n >= 0 and d >= 1 and value >= 1):
            raise ValueError(
                f"{path}: row {line!r} needs a prime q, n >= 0, d >= 1 "
                "and value >= 1"
            )
        kind = parts[4]
        if kind not in TABLE_KINDS:
            raise ValueError(
                f"{path}: kind must be one of {'/'.join(TABLE_KINDS)}, got {kind!r}"
            )
        rows.append(AqEstimate(q=q, n=n, d=d, value=value, kind=f"table_{kind}"))
    return AqTable(rows)


# -- comparison reports ------------------------------------------------------

def render_compare_csv(
    rows, header_lines=(), include_table_columns: bool = False
) -> str:
    """CSV of CompareRow values; the two table-delta columns appear only when
    requested, with empty cells where a delta is unknown."""
    cols = ["k", "r_prime", "r_bgs", "delta_bgs"]
    if include_table_columns:
        cols += ["delta_blb", "delta_bub"]
    lines = [",".join(cols)]
    for row in rows:
        cells = [getattr(row, col) for col in cols]
        lines.append(",".join("" if c is None else str(c) for c in cells))
    return _comment_block(header_lines) + "\n".join(lines) + "\n"


# -- bound reports -----------------------------------------------------------

def render_bounds_csv(report: BoundReport, header_lines=()) -> str:
    """CSV of a report's entries: name, sense, integer value, exact rational
    and note, empty where absent; commas inside a cell become ';'."""
    lines = ["name,sense,value,exact,note"]
    for e in report.entries:
        cells = [e.name, e.sense, e.integer, e.rational, e.note]
        lines.append(
            ",".join("" if c is None else str(c).replace(",", ";") for c in cells)
        )
    return _comment_block(header_lines) + "\n".join(lines) + "\n"


# -- spectra -----------------------------------------------------------------

def render_spectrum_csv(spectrum: Spectrum, header_lines=()) -> str:
    lines = ["index_rank,eigenvalue"]
    lines += [f"{i},{ev}" for i, ev in enumerate(spectrum.eigenvalues)]
    return _comment_block(header_lines) + "\n".join(lines) + "\n"


# -- adjacency ---------------------------------------------------------------

def render_adjacency_file(G: FccGraph, header_lines=()) -> str:
    n = G.n_vertices
    lines = [
        "".join("1" if G.rows[i] >> j & 1 else "0" for j in range(n))
        for i in range(n)
    ]
    return _comment_block(header_lines) + "\n".join(lines) + "\n"


def read_adjacency_file(path) -> tuple[tuple[int, ...], ...]:
    """Parse 0/1 digit rows into a tuple of tuples (no graph construction)."""
    lines = _data_lines(Path(path).read_text())
    rows = tuple(tuple(_int(path, ch) for ch in line) for line in lines)
    for row in rows:
        if len(row) != len(rows):
            raise ValueError(f"{path}: adjacency rows must form a square matrix")
        if any(x not in (0, 1) for x in row):
            raise ValueError(f"{path}: adjacency entries must be 0 or 1")
    return rows
