"""Text-format round trips: every writer's output feeds its own reader."""

import random

import pytest

import fcclib.formats
from fcclib import (
    AqEstimate,
    FccEncoder,
    ParityCode,
    Spectrum,
    build_drm,
    build_graph,
    compare_report,
    coset_decomposition,
    linear_function,
    spectrum_of,
    table_function,
)
from fcclib.formats import (
    label_text,
    parse_digit_word,
    parse_inline_rows,
    read_adjacency_file,
    read_aq_table,
    read_encoder_file,
    read_function_file,
    read_matrix_csv,
    read_parity_file,
    render_adjacency_file,
    render_compare_csv,
    render_encoder_file,
    render_function_file,
    render_matrix_csv,
    render_parity_file,
    render_spectrum_csv,
)
from helpers import rand_linear, rand_table


def test_parse_inline_rows_variants():
    assert parse_inline_rows("1,1,1,0; 0,1,1,0") == [[1, 1, 1, 0], [0, 1, 1, 0]]
    assert parse_inline_rows("1 1 1 0;0 1 1 0") == [[1, 1, 1, 0], [0, 1, 1, 0]]
    assert parse_inline_rows("1110;0110") == [[1, 1, 1, 0], [0, 1, 1, 0]]
    assert parse_inline_rows("12, 10, 3") == [[12, 10, 3]]
    assert parse_inline_rows(" ; 101 ; ") == [[1, 0, 1]]
    assert parse_inline_rows("") == []


def test_label_text_forms():
    assert label_text((1, 0, 1)) == "101"
    assert label_text(()) == "-"
    assert label_text(7) == "7"
    assert label_text((10, 2)) == "(10, 2)"  # double digits fall back to str()


def test_function_file_round_trips(tmp_path, ex_q2_k4, or_q2_k3, const_q2_k3):
    rng = random.Random(20260818)
    cases = [ex_q2_k4, or_q2_k3, const_q2_k3]
    for _ in range(10):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        if rng.random() < 0.5:
            cases.append(rand_linear(rng, q, k, rng.randrange(0, k + 1)))
        else:
            cases.append(rand_table(rng, q, k, rng.randrange(1, q**k + 1)))
    for i, f in enumerate(cases):
        path = tmp_path / f"f{i}.func"
        path.write_text(render_function_file(f, header_lines=["round-trip case"]))
        back = read_function_file(path)
        assert back.q == f.q and back.k == f.k and back.mode == f.mode
        if f.mode == "linear":
            assert back.matrix == f.matrix
        else:
            assert back.table == f.table
    assert (tmp_path / "f0.func").read_text().startswith("# round-trip case\n")


def test_table_file_with_repeated_labels_reads_back_equal(tmp_path):
    f = table_function(3, 2, [12, 0, 12, 5, 12, 0, 5, 5, 12])
    path = tmp_path / "rep.func"
    path.write_text(render_function_file(f))
    assert read_function_file(path) == f
    # Equal values written as different texts are parsed text by text.
    path.write_text("2 2 0 table\n0 7\n1 07\n2 7\n3 007\n")
    assert read_function_file(path) == table_function(2, 2, [7] * 4)


def test_function_file_rejections(tmp_path):
    cases = {
        "empty.func": "# only a comment\n",
        "header.func": "2 2 linear\n1 1\n",
        "rows.func": "2 2 2 linear\n1 1\n",
        "rowlen.func": "2 2 1 linear\n1 1 0\n",
        "mode.func": "2 2 1 affine\n1 1\n",
        "tablecount.func": "2 2 0 table\n0 0\n1 1\n",
        "tableline.func": "2 1 0 table\n0 0 9\n1 1\n",
        "tablerank.func": "2 1 0 table\n0 0\n5 1\n",
        "tabledup.func": "2 1 0 table\n0 0\n0 1\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError):
            read_function_file(path)


def test_function_file_rejects_symbols_outside_the_field(tmp_path):
    # Reducing mod q would read "2 1 0" as (0, 1, 0) and write back "0 1 0".
    for i, text in enumerate(["2 3 1 linear\n2 1 0\n", "2 3 1 linear\n-1 1 0\n",
                              "3 2 2 linear\n1 0\n0 3\n"]):
        path = tmp_path / f"range{i}.func"
        path.write_text(text)
        with pytest.raises(ValueError, match="must lie in"):
            read_function_file(path)


def test_matrix_csv_round_trip(tmp_path, ex_q2_k4):
    for t in (1, 2):
        D = build_drm(ex_q2_k4, t)
        path = tmp_path / f"drm_t{t}.csv"
        path.write_text(render_matrix_csv(D, header_lines=["labels are informational"]))
        back = read_matrix_csv(path)
        assert back.to_lists() == D.to_lists()
        assert back.labels == tuple(range(D.order))  # labels are not persisted
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        read_matrix_csv(empty)


def test_empty_parity_words_round_trip(tmp_path):
    code = ParityCode(q=2, r=0, words=((),))
    text = render_parity_file(code)
    assert text == "-\n"
    path = tmp_path / "empty.txt"
    path.write_text(text)
    assert read_parity_file(path, q=2) == code


def test_parity_file_round_trip(tmp_path):
    code = ParityCode(q=3, r=2, words=((0, 0), (1, 2), (2, 1)))
    path = tmp_path / "parity.txt"
    path.write_text(render_parity_file(code, header_lines=["three words"]))
    back = read_parity_file(path, q=3)
    assert back == code
    assert back.r == 2  # r inferred from the first word
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_parity_file(empty, q=3)
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("00\n111\n")
    with pytest.raises(ValueError):
        read_parity_file(ragged, q=2)
    alien = tmp_path / "alien.txt"
    alien.write_text("02\n")
    with pytest.raises(ValueError):
        read_parity_file(alien, q=2)


def test_encoder_file_round_trip(tmp_path, ex_q2_k4, const_q2_k3):
    E = FccEncoder(
        f=ex_q2_k4,
        t=1,
        r=3,
        parity=tuple((i % 2, (i >> 1) % 2, (i >> 2) % 2) for i in range(16)),
    )
    path = tmp_path / "encoder.txt"
    path.write_text(render_encoder_file(E, header_lines=["full table"]))
    back = read_encoder_file(path, ex_q2_k4)
    assert back == E

    # r = 0 writes '-' placeholders and reads back empty words
    trivial = FccEncoder(f=const_q2_k3, t=1, r=0, parity=((),) * 8)
    path0 = tmp_path / "trivial.txt"
    path0.write_text(render_encoder_file(trivial))
    assert " -" in path0.read_text()
    assert read_encoder_file(path0, const_q2_k3) == trivial


def _class_parity(f, words):
    return tuple(words[c] for c in coset_decomposition(f).class_of)


def _per_rank_rendering(E, header_lines=()):
    """render_encoder_file as one join per message, the reference for the
    renderer that joins each distinct word once."""
    lines = [f"{E.q} {E.k} {E.r} {E.t}"]
    for rank in range(E.q**E.k):
        word = "".join(str(d) for d in E.parity[rank])
        lines.append(f"{rank} {word or '-'}")
    return "".join(f"# {h}\n" for h in header_lines) + "\n".join(lines) + "\n"


def test_encoder_file_matches_per_rank_rendering(ex_q2_k4, ex_q3_k2, const_q2_k3):
    rng = random.Random(20261022)
    binary = _class_parity(ex_q2_k4, [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)])
    ternary = _class_parity(ex_q3_k2, [(0, 0), (1, 2), (2, 1)])
    cases = [
        FccEncoder(f=ex_q2_k4, t=1, r=3, parity=binary),
        FccEncoder(f=ex_q3_k2, t=1, r=2, parity=ternary),
        FccEncoder(f=const_q2_k3, t=2, r=0, parity=((),) * 8),
    ]
    for q, k, r in [(2, 4, 2), (3, 3, 1), (3, 2, 3)]:
        f = rand_linear(rng, q, k, 1)
        words = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(q**k)]
        cases.append(FccEncoder(f=f, t=1, r=r, parity=tuple(words)))
    for E in cases:
        assert render_encoder_file(E, ["head"]) == _per_rank_rendering(E, ["head"])


def test_encoder_file_parses_each_distinct_word_once(tmp_path, monkeypatch, ex_q3_k2):
    words = [(0, 0), (1, 2), (2, 1)]
    E = FccEncoder(f=ex_q3_k2, t=1, r=2, parity=_class_parity(ex_q3_k2, words))
    path = tmp_path / "class.enc"
    path.write_text(render_encoder_file(E))
    parsed = []
    parse = fcclib.formats._parse_parity_word

    def counting_parse(path, text, q):
        parsed.append(text)
        return parse(path, text, q)

    monkeypatch.setattr(fcclib.formats, "_parse_parity_word", counting_parse)
    back = read_encoder_file(path, ex_q3_k2)
    assert back == E
    assert sorted(parsed) == ["00", "12", "21"]
    assert len({id(word) for word in back.parity}) == len(words)


def test_encoder_file_rejections(tmp_path, ex_q2_k4, ex_q3_k2):
    E = FccEncoder(f=ex_q3_k2, t=1, r=1, parity=tuple((i % 3,) for i in range(9)))
    path = tmp_path / "enc.txt"
    path.write_text(render_encoder_file(E))
    with pytest.raises(ValueError):
        read_encoder_file(path, ex_q2_k4)  # wrong function shape

    bad_cases = {
        "empty.txt": "",
        "head.txt": "2 2 1\n",
        "count.txt": "3 2 1 1\n0 0\n1 1\n",
        "line.txt": "3 2 1 1\n" + "\n".join(f"{i} 0 9" for i in range(9)),
        "rank.txt": "3 2 1 1\n" + "\n".join(f"{i + 9} 0" for i in range(9)),
        "dup.txt": "3 2 1 1\n0 0\n0 1\n" + "\n".join(f"{i} 0" for i in range(2, 9)),
        "len.txt": "3 2 1 1\n0 00\n" + "\n".join(f"{i} 0" for i in range(1, 9)),
    }
    for name, text in bad_cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError):
            read_encoder_file(p, ex_q3_k2)


def test_digit_string_formats_reject_q_above_10(tmp_path):
    f = linear_function(11, [(1, 2)])
    # parity (7, 10) would be written as '710', which no reader can split
    E = FccEncoder(f=f, t=1, r=2, parity=((7, 10),) * 121)
    with pytest.raises(ValueError):
        render_encoder_file(E)
    enc = tmp_path / "q11.enc"
    enc.write_text("11 2 2 1\n" + "".join(f"{i} 00\n" for i in range(121)))
    with pytest.raises(ValueError):
        read_encoder_file(enc, f)
    with pytest.raises(ValueError):
        render_parity_file(ParityCode(q=11, r=1, words=((10,), (0,))))
    parity = tmp_path / "q11.txt"
    parity.write_text("0\n1\n")
    with pytest.raises(ValueError):
        read_parity_file(parity, q=11)
    with pytest.raises(ValueError):
        parse_digit_word("01", 11)
    # function files separate symbols by spaces and keep accepting q = 11
    func = tmp_path / "q11.func"
    func.write_text(render_function_file(f))
    assert read_function_file(func).matrix == f.matrix


def test_aq_table_reader(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(
        "# code sizes\n"
        "q,n,d,value,kind\n"
        "2,12,7,24,exact\n"
        "2,13,7,32,upper\n"
        "2,20,7,8192,lower\n"
    )
    table = read_aq_table(path)
    assert len(table) == 3
    assert table.estimate_for(2, 12, 7).kind == "table_exact"
    assert table.estimate_for(2, 13, 7).kind == "table_upper"
    assert table.achievable_redundancy(2, 12, 7) == 8

    short = tmp_path / "short.csv"
    short.write_text("2,12,7,24\n")
    with pytest.raises(ValueError):
        read_aq_table(short)
    badkind = tmp_path / "badkind.csv"
    badkind.write_text("2,12,7,24,best\n")
    with pytest.raises(ValueError):
        read_aq_table(badkind)


def test_compare_csv_rendering():
    rows = compare_report(2, 3, range(2, 5))
    plain = render_compare_csv(rows, header_lines=["sweep"])
    lines = [l for l in plain.splitlines() if not l.startswith("#")]
    assert lines[0] == "k,r_prime,r_bgs,delta_bgs"
    assert len(lines) == 4
    for row, line in zip(rows, lines[1:]):
        assert line == f"{row.k},{row.r_prime},{row.r_bgs},{row.delta_bgs}"

    table_rows = compare_report(
        2, 7, [11, 12],
        table=read_aq_table_from_rows([AqEstimate(2, 12, 7, 24, "table_exact")]),
    )
    with_table = render_compare_csv(table_rows, include_table_columns=True)
    lines = [l for l in with_table.splitlines() if not l.startswith("#")]
    assert lines[0] == "k,r_prime,r_bgs,delta_bgs,delta_blb,delta_bub"
    # k=11 has no table row: both delta cells are empty
    assert lines[1].endswith(",,")
    # k=12 has an exact row but no achievability row: last cell only is empty
    assert not lines[2].endswith(",,") and lines[2].endswith(",")


def read_aq_table_from_rows(rows):
    from fcclib import AqTable

    return AqTable(rows)


def test_spectrum_csv(tmp_path, ex_q2_k3):
    S = spectrum_of(ex_q2_k3, 1, 1)
    path = tmp_path / "spec.csv"
    path.write_text(render_spectrum_csv(S, header_lines=["transform order"]))
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "index_rank,eigenvalue"
    assert len(lines) == 1 + S.n_vertices
    for i, ev in enumerate(S.eigenvalues):
        assert lines[1 + i] == f"{i},{ev}"


def test_adjacency_round_trip(tmp_path, ex_q3_k2):
    G = build_graph(ex_q3_k2, 1, 1)
    path = tmp_path / "adj.txt"
    path.write_text(render_adjacency_file(G, header_lines=["dense rows"]))
    dense = read_adjacency_file(path)
    assert len(dense) == G.n_vertices
    for i, row in enumerate(dense):
        for j, bit in enumerate(row):
            assert bit == int(G.has_edge(i, j))

    ragged = tmp_path / "ragged.txt"
    ragged.write_text("01\n1\n")
    with pytest.raises(ValueError):
        read_adjacency_file(ragged)
    alien = tmp_path / "alien.txt"
    alien.write_text("02\n10\n")
    with pytest.raises(ValueError):
        read_adjacency_file(alien)


def test_comment_lines_are_skipped_everywhere(tmp_path):
    path = tmp_path / "weird.func"
    path.write_text(
        "# leading comment\n"
        "\n"
        "2 2 1 linear\n"
        "   # indented comment\n"
        "1 1\n"
        "\n"
    )
    f = read_function_file(path)
    assert f.matrix == ((1, 1),)
