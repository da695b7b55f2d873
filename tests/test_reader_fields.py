"""Reader refusals that name the file: a field that is not an integer, and a
table header that no enumeration can hold."""

import pytest

from fcclib import linear_function
from fcclib.formats import (
    read_adjacency_file,
    read_aq_table,
    read_encoder_file,
    read_function_file,
    read_matrix_csv,
)


def _refusal(tmp_path, name, text, reader):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        reader(path)
    message = str(info.value)
    assert message.startswith(f"{path}: "), message
    return message.removeprefix(f"{path}: ")


def test_non_integer_fields_name_the_file_and_the_text(tmp_path):
    f = linear_function(3, [(1, 1)])
    encoder = lambda path: read_encoder_file(path, f)  # noqa: E731
    good = "".join(f"{i} 0\n" for i in range(1, 9))
    cases = [
        ("2 x 0 table\n0 0\n1 1\n", read_function_file),
        ("2 2 1 linear\n1 x\n", read_function_file),
        ("2 1 0 table\nx 0\n1 1\n", read_function_file),
        ("2 1 0 table\n0 0\n1 x\n", read_function_file),
        ("3 2 1 x\n0 0\n" + good, encoder),
        ("3 2 1 1\nx 0\n" + good, encoder),
        ("0,1\n1,x\n", read_matrix_csv),
        ("q,n,d,value,kind\n2,12,x,24,exact\n", read_aq_table),
        ("01\n1x\n", read_adjacency_file),
    ]
    for i, (text, reader) in enumerate(cases):
        assert _refusal(tmp_path, f"c{i}.txt", text, reader) == (
            "expected an integer, got 'x'"
        ), text


def test_table_header_beyond_the_enumeration_limit(tmp_path):
    # 2^100000 has more digits than Python converts to a string by default.
    for q, k in [(2, 25), (3, 16), (2, 100_000)]:
        message = _refusal(
            tmp_path, f"t{q}_{k}.func", f"{q} {k} 0 table\n0 0\n", read_function_file
        )
        assert message == (
            f"a table over q={q}, k={k} would exceed the enumeration limit of "
            "16777216 entries"
        )
