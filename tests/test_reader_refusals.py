"""Every refusal of the rank-indexed readers and the code-size table, word
for word."""

import pytest

from fcclib import linear_function
from fcclib.formats import (
    read_aq_table,
    read_encoder_file,
    read_function_file,
    read_parity_file,
)


def _refusal(tmp_path, name, text, reader):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        reader(path)
    return str(info.value).removeprefix(f"{path}: ")


def _lines(pairs):
    return "".join(f"{rank} {value}\n" for rank, value in pairs)


def test_table_function_file_refusals(tmp_path):
    cases = {
        "2 2 0 table\n" + _lines([(0, 0), (1, 1)]):
            "expected 4 table lines, got 2",
        "2 1 0 table\n0 0 9\n1 1\n":
            "table line '0 0 9' must be 'rank label'",
        "2 1 0 table\n0 0\n5 1\n": "rank 5 out of range",
        "2 1 0 table\n0 0\n0 1\n": "rank 0 listed twice",
        # The header is checked before q^k sizes the table.
        "2 -1 0 table\n0 0\n": "domain length must be positive, got -1",
        "4 1 0 table\n0 0\n": "field size must be prime, got 4",
        "2 -1 1 linear\n1\n": "domain length must be positive, got -1",
    }
    for i, (text, message) in enumerate(cases.items()):
        assert _refusal(tmp_path, f"f{i}.func", text, read_function_file) == message


def test_encoder_file_refusals(tmp_path):
    f = linear_function(3, [(1, 1)])
    reader = lambda path: read_encoder_file(path, f)  # noqa: E731
    good = [(i, 0) for i in range(9)]
    cases = {
        "3 2 1 1\n" + _lines(good[:2]): "expected 9 parity lines, got 2",
        "3 2 1 1\n0 0 9\n" + _lines(good[1:]):
            "parity line '0 0 9' must be 'message_rank parity_digits'",
        "3 2 1 1\n" + _lines([(9, 0)] + good[1:]): "message rank 9 out of range",
        "3 2 1 1\n" + _lines([(0, 0)] + good[:-1]): "message rank 0 listed twice",
        "3 2 1 1\n" + _lines([(0, "00")] + good[1:]):
            "parity '00' does not have length 1",
        "3 2 1 1\n" + _lines([(0, "\u0661")] + good[1:]):
            "expected a digit string, got '\u0661'",
        "3 2 1 1\n" + _lines([(0, 5)] + good[1:]):
            "parity word '5' has symbols outside [0, 3)",
    }
    for i, (text, message) in enumerate(cases.items()):
        assert _refusal(tmp_path, f"e{i}.enc", text, reader) == message


def test_parity_file_refusals(tmp_path):
    reader = lambda path: read_parity_file(path, 2)  # noqa: E731
    cases = {
        "000\n200\n": "parity word '200' has symbols outside [0, 2)",
        "0\n00\n": "parity word '00' has length 2, expected 1",
        "-\n1\n": "parity word '1' has length 1, expected 0",
    }
    for i, (text, message) in enumerate(cases.items()):
        assert _refusal(tmp_path, f"p{i}.txt", text, reader) == message


def test_parity_file_refuses_digits_outside_ascii(tmp_path):
    # '²' is a digit to str.isdigit() and '١' (Arabic-Indic one) a decimal to
    # int(); neither is a symbol of a digit-string word
    for i, word in enumerate(["1\u00b21", "1\u06611"]):
        path = tmp_path / f"p{i}.txt"
        path.write_text(f"000\n{word}\n")
        with pytest.raises(ValueError) as info:
            read_parity_file(path, 2)
        assert str(info.value) == f"{path}: expected a digit string, got {word!r}"


def test_aq_table_refuses_rows_no_code_size_can_have(tmp_path):
    for i, row in enumerate(
        ["4,5,3,2,exact", "2,-1,3,2,upper", "2,5,0,2,upper", "2,5,3,-7,upper",
         "2,5,3,0,lower"]
    ):
        text = f"q,n,d,value,kind\n2,12,7,24,exact\n{row}\n"
        assert _refusal(tmp_path, f"t{i}.csv", text, read_aq_table) == (
            f"row {row!r} needs a prime q, n >= 0, d >= 1 and value >= 1"
        )
