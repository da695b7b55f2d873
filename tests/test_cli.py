"""Command-line behavior: routes, exit codes, provenance, file outputs."""

import argparse
import json
import shlex

import pytest

import fcclib.cli
import fcclib.distance
import fcclib.graph
import fcclib.spectrum
from fcclib import (
    __version__,
    build_cosetwise_encoder,
    build_drm,
    build_fdm,
    linear_function,
    n_q_exact,
    verify_fcc,
)
from fcclib.cli import EX_BUDGET, EX_INPUT, EX_NEGATIVE, EX_OK, main
from fcclib.formats import (
    read_encoder_file,
    read_matrix_csv,
    read_parity_file,
    render_encoder_file,
    render_function_file,
)
from fcclib.mis import DEFAULT_NODE_BUDGET
from helpers import all_words, brute_violation, slow_distance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_version_and_unknown_command(capsys):
    assert main(["--version"]) == EX_OK
    capsys.readouterr()
    assert main(["frobnicate"]) == EX_INPUT
    capsys.readouterr()


def test_drm_csv_round_trip(capsys, tmp_path, data_dir, ex_q2_k4):
    out = tmp_path / "drm.csv"
    code, stdout, _ = run(
        capsys, "drm", "--func", str(data_dir / "ex_q2_k4.func"), "--t", "2",
        "--out", str(out),
    )
    assert code == EX_OK and stdout == ""
    assert read_matrix_csv(out).to_lists() == build_drm(ex_q2_k4, 2).to_lists()
    text = out.read_text()
    assert text.startswith(f"# tool fcc {__version__}\n")
    assert "# command fcc drm" in text
    assert "# budget-nodes" not in text  # drm runs no budgeted search
    assert "# labels 0000 0001" in text


def test_matrix_commands_inline_and_json(capsys, ex_q2_k4):
    code, payload, _ = run_json(
        capsys, "fdm", "--matrix", "1,1,1,0;0,1,1,0", "--t", "1",
        "--format", "json",
    )
    assert code == EX_OK
    assert payload["meta"]["tool"] == f"fcc {__version__}"
    assert payload["rows"] == build_fdm(ex_q2_k4, 1).to_lists()
    assert payload["labels"] == ["00", "11", "10", "01"]


def test_fdm_of_constant_function(capsys, data_dir):
    code, payload, _ = run_json(
        capsys, "fdm", "--func", str(data_dir / "const_q2_k3.func"), "--t", "1",
        "--format", "json",
    )
    assert code == EX_OK
    assert payload["rows"] == [[0]]
    assert payload["labels"] == ["-"]


def test_function_source_validation(capsys, data_dir):
    code, _, err = run(capsys, "drm", "--t", "1")
    assert code == EX_INPUT and "function source" in err
    code, _, err = run(
        capsys, "drm", "--func", str(data_dir / "ex_q2_k4.func"),
        "--matrix", "1", "--t", "1",
    )
    assert code == EX_INPUT
    code, _, err = run(
        capsys, "drm", "--func", str(data_dir / "ex_q3_k2.func"), "--q", "2",
        "--t", "1",
    )
    assert code == EX_INPUT and "contradicts" in err
    code, _, err = run(
        capsys, "drm", "--func", str(data_dir / "ex_q2_k4.func")
    )
    assert code == EX_INPUT and "--t is required" in err


def test_inline_function_rejects_symbols_outside_the_field(capsys):
    for rows, q in (("2,1,0", "2"), ("-1,1,0", "2"), ("1,0;0,3", "3")):
        code, out, err = run(capsys, "drm", f"--matrix={rows}", "--q", q, "--t", "1")
        assert code == EX_INPUT and "must lie in" in err and not out
    code, _, _ = run(capsys, "drm", "--matrix", "1,0;0,2", "--q", "3", "--t", "1")
    assert code == EX_OK


def test_bounds_json_report(capsys, data_dir):
    code, payload, _ = run_json(
        capsys, "bounds", "--func", str(data_dir / "ex_q2_k4.func"), "--t", "1",
    )
    assert code == EX_OK
    assert payload["descriptor"] == "q=2 k=4 t=1 mode=linear"
    assert payload["optimal"] is True
    by_name = {e["name"]: e for e in payload["entries"]}
    assert by_name["distance_2t"]["value"] == 2
    assert by_name["code_search"]["value"] == 3
    assert by_name["code_search"]["sense"] == "upper"
    lows = [
        e["value"]
        for e in payload["entries"]
        if e["sense"] == "lower" and e["value"] is not None
    ]
    assert lows and max(lows) <= 3


def test_bounds_csv_format(capsys, data_dir):
    code, out, _ = run(
        capsys, "bounds", "--func", str(data_dir / "ex_q2_k4.func"), "--t", "1",
        "--format", "csv",
    )
    assert code == EX_OK
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "name,sense,value,exact,note"
    assert len(lines) == 8
    assert all(len(l.split(",")) == 5 for l in lines[1:])


def test_bounds_budget_exit(capsys):
    # k = 6, l = 4: no class or union of classes more than 2 apart reaches
    # the gate's target 2^(6-3), so the independent-set search runs, and one
    # node is not enough for it
    code, payload, _ = run_json(
        capsys, "bounds", "--matrix", "010010;110110;111010;101110", "--t", "1",
        "--budget-nodes", "1",
    )
    assert code == EX_BUDGET
    by_name = {e["name"]: e for e in payload["entries"]}
    assert by_name["independence"]["note"].startswith("budget: ")
    assert by_name["independence"]["limit"] == "budget"
    # the report is still emitted with every other entry populated
    assert by_name["code_search"]["value"] == 4


def test_bounds_skips_the_search_on_far_apart_classes(capsys):
    # f keeps 4 of 5 bits: two classes 3 apart hold the gate's target 4
    block = ";".join("".join(str(int(j == i)) for j in range(5)) for i in range(4))
    code, payload, _ = run_json(
        capsys, "bounds", "--matrix", block, "--t", "1", "--budget-nodes", "1",
    )
    assert code == EX_OK
    by_name = {e["name"]: e for e in payload["entries"]}
    assert by_name["independence"]["note"] == (
        "skipped: an independent set of 4 caps this row at 3; systematic gives 3"
    )
    assert by_name["independence"]["limit"] == "skipped"


def test_bounds_size_refusals_are_not_budget_exits(capsys):
    # first 6 of 10 bits at t=3: the parity search refuses the order-64
    # matrix and the independence row is skipped; every search finished
    block = ";".join("".join(str(int(j == i)) for j in range(10)) for i in range(6))
    code, payload, _ = run_json(
        capsys, "bounds", "--matrix", block, "--t", "3", "--budget-nodes", "2000",
    )
    assert code == EX_OK
    by_name = {e["name"]: e for e in payload["entries"]}
    assert by_name["code_search"]["note"].startswith("budget: matrix order 64")
    assert by_name["code_search"]["limit"] == "size"
    assert by_name["independence"]["limit"] == "skipped"
    assert by_name["systematic"]["value"] == 10
    # the k=2 bijection at t=13: the largest FDM entry 26 is above the cap
    code, payload, _ = run_json(capsys, "bounds", "--matrix", "10;01", "--t", "13")
    assert code == EX_OK
    search = payload["entries"][-1]
    assert search["name"] == "code_search" and search["value"] is None
    assert search["note"] == "largest entry 26 exceeds the length cap 12"
    assert search["limit"] == "size"


def test_alpha_route(capsys, data_dir):
    code, payload, _ = run_json(
        capsys, "alpha", "--func", str(data_dir / "spectral_q2_k3.func"), "--t", "1",
        "--r", "1",
    )
    assert code == EX_OK
    assert payload["vertices"] == 16
    assert payload["alpha"] == 2
    assert len(payload["witness"]) == 2
    code, _, err = run(
        capsys, "alpha", "--func", str(data_dir / "spectral_q2_k3.func"), "--t", "1"
    )
    assert code == EX_INPUT and "--r is required" in err


def test_alpha_budget_exits(capsys):
    block = ";".join(
        "".join("1" if j == i else "0" for j in range(10)) for i in range(6)
    )
    code, _, err = run(
        capsys, "alpha", "--matrix", block, "--t", "1", "--r", "0",
        "--budget-nodes", "1000",
    )
    assert code == EX_BUDGET and "budget exceeded" in err
    code, _, err = run(
        capsys, "alpha", "--matrix", block, "--t", "1", "--r", "0",
        "--budget-seconds", "0.05",
    )
    assert code == EX_BUDGET
    code, _, err = run(
        capsys, "alpha", "--matrix", block, "--t", "1", "--r", "0",
        "--budget-nodes", "-3",
    )
    assert code == EX_INPUT


def test_nq_inline_and_capped(capsys):
    code, payload, _ = run_json(capsys, "nq", "--matrix", "0,3;3,0")
    assert code == EX_OK
    assert payload["found"] is True and payload["n"] == 3
    assert payload["witness"] == ["000", "111"]

    code, payload, _ = run_json(
        capsys, "nq", "--matrix", "0,3;3,0", "--r-max", "2"
    )
    assert code == EX_NEGATIVE
    assert payload["found"] is False and payload["r_cap"] == 2
    # 2^30 words at the first length: refused before any mask is built
    code, out, err = run(capsys, "nq", "--matrix", "0,30;30,0", "--r-max", "30")
    assert code == EX_BUDGET and out == ""
    assert "q^r = 1073741824 exceeds the limit 16777216" in err


def test_nq_rejects_empty_matrix_and_composite_q(capsys):
    code, out, err = run(capsys, "nq", "--matrix", ";")
    assert code == EX_INPUT and out == "" and "empty" in err
    code, out, err = run(capsys, "nq", "--matrix", "0,0;0,0", "--q", "6")
    assert code == EX_INPUT and out == "" and "prime" in err
    code, out, err = run(capsys, "nq", "--matrix", "0,3;3,0", "--r-max", "-1")
    assert code == EX_INPUT and out == "" and "length cap must be >= 0, got -1" in err
    # a function source, unlike nq's requirement rows, needs a row
    code, out, err = run(capsys, "drm", "--matrix", ";", "--t", "1")
    assert code == EX_INPUT and out == "" and "--matrix needs at least one row" in err


def test_nq_from_function(capsys, data_dir, ex_q2_k4):
    code, payload, _ = run_json(
        capsys, "nq", "--func", str(data_dir / "ex_q2_k4.func"), "--t", "1"
    )
    assert code == EX_OK and payload["n"] == 3
    code, payload, _ = run_json(
        capsys, "nq", "drm", "--func", str(data_dir / "ex_q2_k4.func"), "--t", "1"
    )
    assert code == EX_OK
    assert payload["n"] == n_q_exact(build_drm(ex_q2_k4, 1), 2).n
    code, out, err = run(
        capsys, "nq", "--func", str(data_dir / "ex_q2_k4.func"), "--matrix", "0,3;3,0",
        "--t", "1",
    )
    assert code == EX_INPUT and out == "" and "provide exactly one source" in err


def test_spectrum_routes(capsys, monkeypatch, data_dir):
    code, out, _ = run(
        capsys, "spectrum", "--func", str(data_dir / "spectral_q2_k3.func"), "--t", "1",
        "--r", "1",
    )
    assert code == EX_OK
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "index_rank,eigenvalue" and len(lines) == 17

    code, payload, _ = run_json(
        capsys, "spectrum", "--func", str(data_dir / "spectral_q2_k3.func"), "--t", "1",
        "--r", "1", "--format", "json",
    )
    assert code == EX_OK and len(payload["eigenvalues"]) == 16
    assert sum(payload["eigenvalues"]) == 0

    code, _, err = run(
        capsys, "spectrum", "--func", str(data_dir / "or_q2_k2.func"), "--t", "1",
        "--r", "1",
    )
    assert code == EX_INPUT  # table functions have no transform spectrum

    code, out, err = run(
        capsys, "spectrum", "--func", str(data_dir / "spectral_q2_k3.func"), "--t", "1"
    )
    assert code == EX_INPUT and out == "" and "--r is required" in err

    code, out, _ = run(
        capsys, "spectrum", "--func", str(data_dir / "ex_q3_k3.func"), "--t", "1",
        "--r", "1",
    )
    assert code == EX_OK
    lines = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(lines) == 81
    assert sum(int(l.split(",")[1]) for l in lines) == 0  # printed as integers

    monkeypatch.setattr(fcclib.spectrum, "ENUMERATION_LIMIT", 2**4)
    code, out, err = run(
        capsys, "spectrum", "--func", str(data_dir / "spectral_q2_k3.func"), "--t", "1",
        "--r", "2",
    )
    assert code == EX_INPUT and out == ""
    assert "32 entries; limit is 16" in err


def test_spectrum_csv_matches_golden(capsys, data_dir, golden_dir):
    # Every eigenvalue of the 81-vertex graph, in index-rank order.
    code, out, _ = run(
        capsys, "spectrum", "--func", str(data_dir / "ex_q3_k3.func"), "--t", "1",
        "--r", "1",
    )
    assert code == EX_OK
    want = (golden_dir / "spectrum_q3_k3_t1_r1.csv").read_text()
    body = lambda text: [l for l in text.splitlines() if not l.startswith("#")]  # noqa: E731
    assert body(out) == body(want)


def _wide_linear_args(tmp_path):
    """Flags for a linear f with one row of 20,000 symbols at t=1, r=0:
    q^(k+r) has more digits than int-to-str conversion allows."""
    path = tmp_path / "lin.func"
    path.write_text("2 20000 1 linear\n" + " ".join("1" * 20_000) + "\n")
    return "--func", str(path), "--t", "1", "--r", "0"


def test_alpha_refuses_a_vertex_count_too_long_to_print(capsys, tmp_path):
    code, out, err = run(capsys, "alpha", *_wide_linear_args(tmp_path))
    assert code == EX_INPUT and out == ""
    assert "graph would have 2^20000 vertices; limit is 65536" in err


def test_verify_and_decode_refuse_an_encoder_too_long_to_size(capsys, tmp_path):
    func = _wide_linear_args(tmp_path)[1]
    enc = tmp_path / "wide.enc"
    enc.write_text("2 20000 0 1\n0 -\n")
    for argv in (["verify", str(enc)], ["decode", str(enc), "0" * 20_000]):
        code, out, err = run(capsys, *argv, "--func", func)
        assert code == EX_INPUT and out == ""
        assert err == (
            f"error: {enc}: an encoder over q=2, k=20000 would exceed the "
            "enumeration limit of 16777216 entries\n"
        )


def test_alpha_refuses_an_exact_search_before_building(capsys, monkeypatch):
    built = []
    real = fcclib.cli.build_graph
    monkeypatch.setattr(
        fcclib.cli, "build_graph", lambda *a: built.append(a) or real(*a)
    )
    # The first 6 of 10 bits at r = 5: 2^15 vertices, past the 2^11 limit.
    block = ";".join("".join(str(int(j == i)) for j in range(10)) for i in range(6))
    code, out, err = run(capsys, "alpha", "--matrix", block, "--t", "1", "--r", "5")
    assert code == EX_INPUT and out == ""
    assert err == "error: exact search limited to 2048 vertices; got 32768\n"
    assert built == []


def test_spectrum_refuses_a_row_too_long_to_print(capsys, tmp_path):
    code, out, err = run(capsys, "spectrum", *_wide_linear_args(tmp_path))
    assert code == EX_INPUT and out == ""
    assert "row would have 2^20000 entries; limit is 16777216" in err


def test_construct_verify_decode_chain(capsys, tmp_path, data_dir, ex_q2_k4):
    func = str(data_dir / "ex_q2_k4.func")
    enc_path = tmp_path / "encoder.txt"
    code, payload, _ = run_json(
        capsys, "construct", "--func", func, "--t", "1", "--out", str(enc_path)
    )
    assert code == EX_OK
    assert payload["r"] == 3 and payload["verified"] is True
    assert "method minimum-length parity search" in enc_path.read_text()

    code, payload, _ = run_json(capsys, "verify", str(enc_path), "--func", func)
    assert code == EX_OK and payload["ok"] is True and payload["r"] == 3

    E = read_encoder_file(enc_path, ex_q2_k4)
    word = E.encode((0, 0, 1, 0))
    flipped = list(word)
    flipped[5] ^= 1
    received = "".join(str(d) for d in flipped)
    code, payload, _ = run_json(capsys, "decode", str(enc_path), received, "--func", func)
    assert code == EX_OK and payload["label"] == "11"

    # a word beyond every codeword's radius fails closed
    codewords = [E.encode(u) for u in all_words(2, 4)]
    far = next(
        y for y in all_words(2, 7)
        if min(slow_distance(y, c) for c in codewords) > 1
    )
    code, payload, _ = run_json(
        capsys, "decode", str(enc_path), "".join(str(d) for d in far), "--func", func
    )
    assert code == EX_NEGATIVE and payload["label"] is None

    code, _, err = run(capsys, "decode", str(enc_path), "xyz", "--func", func)
    assert code == EX_INPUT


def test_decode_rejects_q_above_10(capsys, tmp_path):
    func = tmp_path / "q11.func"
    func.write_text("11 2 1 linear\n1 2\n")
    enc = tmp_path / "q11.enc"
    enc.write_text("11 2 2 1\n" + "".join(f"{i} 00\n" for i in range(121)))
    code, _, err = run(capsys, "decode", str(enc), "0000", "--func", str(func))
    assert code == EX_INPUT and "q <= 10" in err


def test_verify_detects_mutation(capsys, tmp_path, data_dir, ex_q2_k4):
    func = str(data_dir / "ex_q2_k4.func")
    enc_path = tmp_path / "encoder.txt"
    assert main(["construct", "--func", func, "--t", "1", "--out", str(enc_path)]) == EX_OK
    capsys.readouterr()
    # zero out every parity word
    lines = []
    for line in enc_path.read_text().splitlines():
        if line.startswith("#") or len(line.split()) != 2:
            lines.append(line)
            continue
        rank, word = line.split()
        lines.append(f"{rank} {'0' * len(word)}" if word != "-" else line)
    enc_path.write_text("\n".join(lines) + "\n")

    code, payload, _ = run_json(capsys, "verify", str(enc_path), "--func", func)
    assert code == EX_NEGATIVE
    assert payload["ok"] is False
    v = payload["violation"]
    assert v["required"] == 3 and v["distance"] < 3
    u1 = tuple(int(ch) for ch in v["u1"])
    u2 = tuple(int(ch) for ch in v["u2"])
    assert ex_q2_k4.eval(u1) != ex_q2_k4.eval(u2)
    # the first pair in lexicographic order, as the definition oracle finds it
    assert (u1, u2, v["distance"]) == brute_violation(read_encoder_file(enc_path, ex_q2_k4))


def test_construct_graph_route(capsys, tmp_path, data_dir):
    func = str(data_dir / "spectral_q2_k3.func")
    enc_path = tmp_path / "enc.txt"
    code, payload, _ = run_json(
        capsys, "construct", "--func", func, "--t", "1", "--r", "3",
        "--out", str(enc_path),
    )
    assert code == EX_OK and payload["r"] == 3
    assert "method independent-set search at r=3" in enc_path.read_text()

    # the parity search proves no code of length 2 or less
    code, payload, _ = run_json(
        capsys, "construct", "--func", func, "--t", "1", "--r-max", "2"
    )
    assert code == EX_NEGATIVE and payload["found"] is False
    assert "at any length up to 2" in payload["reason"]

    # no code exists at r=1 for this function
    code, payload, _ = run_json(
        capsys, "construct", "--func", func, "--t", "1", "--r", "1"
    )
    assert code == EX_NEGATIVE and payload["found"] is False

    code, _, err = run(
        capsys, "construct", "--func", func, "--t", "1", "--r", "1",
        "--parity", "whatever.txt",
    )
    assert code == EX_INPUT and "not both" in err


def test_construct_refuses_order_before_building_the_fdm(capsys, monkeypatch, tmp_path):
    # first 6 of 10 bits at t=2: 64 function values, above the search limit
    proj6 = linear_function(2, [[int(j == i) for j in range(10)] for i in range(6)])
    func = tmp_path / "proj6.func"
    func.write_text(render_function_file(proj6))
    built = []
    real = fcclib.distance.build_fdm
    monkeypatch.setattr(
        fcclib.distance, "build_fdm", lambda f, t: built.append(t) or real(f, t)
    )
    code, out, err = run(capsys, "construct", "--func", str(func), "--t", "2")
    assert code == EX_BUDGET and out == ""
    assert "matrix order 64 exceeds the search limit 20" in err
    assert built == []


def test_construct_default_route_builds_the_fdm_once(capsys, monkeypatch, tmp_path):
    # the searched matrix checks the witness words and stays on the
    # encoder, so verifying the result builds no second one
    f = linear_function(2, [(1, 1, 0, 1, 0, 0, 1, 0, 1), (0, 1, 1, 0, 1, 1, 0, 0, 1)])
    func = tmp_path / "f.func"
    func.write_text(render_function_file(f))
    built = []
    for module in (fcclib.distance, fcclib.graph):
        real = module.build_fdm
        monkeypatch.setattr(
            module, "build_fdm", lambda g, t, real=real: built.append(t) or real(g, t)
        )
    enc = tmp_path / "f.enc"
    code, payload, _ = run_json(
        capsys, "construct", "--func", str(func), "--t", "1", "--out", str(enc)
    )
    assert code == EX_OK and payload["verified"] and built == [1]
    assert verify_fcc(read_encoder_file(enc, f))


def test_nq_refuses_order_before_building_either_matrix(capsys, monkeypatch, tmp_path):
    # proj6 at t=2: 64 function values and 1024 messages, both above the
    # search limit, so neither matrix is built before the refusal
    proj6 = linear_function(2, [[int(j == i) for j in range(10)] for i in range(6)])
    func = tmp_path / "proj6.func"
    func.write_text(render_function_file(proj6))
    built = []
    for module in (fcclib.cli, fcclib.distance):
        for name in ("build_drm", "build_fdm"):
            real = getattr(module, name)
            monkeypatch.setattr(
                module,
                name,
                lambda f, t, name=name, real=real: built.append(name) or real(f, t),
            )
    for target, order in (("fdm", 64), ("drm", 1024)):
        code, out, err = run(capsys, "nq", target, "--func", str(func), "--t", "2")
        assert code == EX_BUDGET and out == ""
        assert f"matrix order {order} exceeds the search limit 20" in err
    assert built == []


def test_construct_cosetwise_route(capsys, tmp_path, data_dir, shipped_dir, ex_q2_k4):
    func = str(data_dir / "ex_q2_k4.func")
    good = str(shipped_dir / "parity_5_4_3_q2.txt")
    code, out, _ = run(capsys, "construct", "--func", func, "--t", "1", "--parity", good)
    assert code == EX_OK
    assert "method coset-wise" in out

    bad = tmp_path / "bad_parity.txt"
    bad.write_text("000\n000\n000\n000\n")
    code, payload, _ = run_json(
        capsys, "construct", "--func", func, "--t", "1", "--parity", str(bad)
    )
    assert code == EX_NEGATIVE and payload["found"] is False


def test_linear_domain_beyond_the_limits_is_refused_by_q_and_k(capsys, tmp_path):
    # 2^20000 has more digits than Python converts to a string by default
    func = tmp_path / "lin.func"
    func.write_text("2 20000 1 linear\n" + " ".join(["1"] + ["0"] * 19_999) + "\n")
    for command, limit in (
        ("fdm", "enumeration limit 16777216"),
        ("bounds", "enumeration limit 16777216"),
        ("drm", "pairwise-matrix limit 4096"),
    ):
        code, out, err = run(capsys, command, "--func", str(func), "--t", "1")
        assert code == EX_INPUT and out == ""
        assert f"q^k for q=2, k=20000 exceeds the {limit}" in err


def test_compare_routes(capsys, tmp_path):
    code, out, _ = run(capsys, "compare", "--d", "3", "--k-range", "2:4")
    assert code == EX_OK
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "k,r_prime,r_bgs,delta_bgs"
    assert [l.split(",")[0] for l in lines[1:]] == ["2", "3", "4"]

    table = tmp_path / "aq.csv"
    table.write_text("q,n,d,value,kind\n2,12,7,24,exact\n2,20,7,8192,lower\n")
    code, out, _ = run(
        capsys, "compare", "--d", "7", "--k-range", "12:12",
        "--aq-table", str(table),
    )
    assert code == EX_OK
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "k,r_prime,r_bgs,delta_bgs,delta_blb,delta_bub"
    assert lines[1].split(",")[1] == "8"

    code, payload, _ = run_json(
        capsys, "compare", "--d", "3", "--k-range", "2:3", "--format", "json"
    )
    assert code == EX_OK and [r["k"] for r in payload["rows"]] == [2, 3]

    for bad, message in (
        (["--k-range", "2:4"], "--d is required"),
        (["--d", "3"], "--k-range is required"),
        (["--d", "3", "--k-range", "2-4"], "--k-range must have the form A:B"),
        (["--d", "3", "--k-range", "a:3"], "--k-range: expected an integer, got 'a'"),
        (["--d", "3", "--k-range", "5:3"], "--k-range must have A <= B, got '5:3'"),
        (["--d", "3", "--k-range", "0:3"], "--k-range must have A >= 1, got '0:3'"),
    ):
        code, out, err = run(capsys, "compare", *bad)
        assert code == EX_INPUT and out == "" and message in err, bad


def test_inline_matrix_refusal_names_its_flag(capsys):
    for argv in (["drm", "--matrix", "1,x", "--t", "1"], ["nq", "--matrix", "0,x;x,0"]):
        code, out, err = run(capsys, *argv)
        assert code == EX_INPUT and out == ""
        assert err == "error: --matrix: expected an integer, got 'x'\n"



FUNCTION_SOURCE = {"--func", "--matrix", "--q"}
COMMAND_OPTIONS = {
    "drm": {"--format", "--t"} | FUNCTION_SOURCE,
    "fdm": {"--format", "--t"} | FUNCTION_SOURCE,
    "bounds": {"--format", "--budget-nodes", "--budget-seconds", "--t"}
    | FUNCTION_SOURCE,
    "alpha": {"--budget-nodes", "--budget-seconds", "--t", "--r"} | FUNCTION_SOURCE,
    "nq": {"--budget-seconds", "--t", "--r-max"} | FUNCTION_SOURCE,
    "spectrum": {"--format", "--t", "--r"} | FUNCTION_SOURCE,
    "construct": {"--budget-nodes", "--budget-seconds", "--t", "--r", "--r-max", "--parity"}
    | FUNCTION_SOURCE,
    "verify": set(FUNCTION_SOURCE),
    "decode": set(FUNCTION_SOURCE),
    "compare": {"--format", "--q", "--d", "--k-range", "--aq-table"},
}


def test_each_command_accepts_only_the_options_it_reads():
    parser = fcclib.cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(COMMAND_OPTIONS)
    slots = 0
    for name, command in sub.choices.items():
        options = {
            action.option_strings[0]
            for action in command._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        }
        assert options == COMMAND_OPTIONS[name] | {"--out"}, name
        slots += len(options)
    assert slots == 66


def test_removed_options_are_input_errors(capsys, data_dir):
    func = str(data_dir / "spectral_q2_k3.func")
    for argv in (
        ["alpha", "--func", func, "--t", "1", "--r", "1", "--format", "csv"],
        ["nq", "--matrix", "0,3;3,0", "--budget-nodes", "5"],
        ["drm", "--func", func, "--t", "1", "--budget-seconds", "1"],
        ["bounds", "--func", func, "--t", "1", "--r-max", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EX_INPUT and out == "" and "error:" in err, argv


def test_non_finite_budget_seconds_is_an_input_error(capsys, data_dir):
    func = str(data_dir / "spectral_q2_k3.func")
    for value in ("nan", "inf"):
        for argv in (
            ["alpha", "--func", func, "--t", "1", "--r", "1"],
            ["nq", "--matrix", "0,3;3,0"],
            ["bounds", "--func", func, "--t", "1"],
        ):
            code, out, err = run(capsys, *argv, "--budget-seconds", value)
            assert code == EX_INPUT and out == "", (argv, value)
            assert err == "error: --budget-seconds must be finite\n"
    code, _, err = run(capsys, "nq", "--matrix", "0,3;3,0", "--budget-seconds=-inf")
    assert code == EX_INPUT and err == "error: --budget-seconds must be positive\n"


def test_budget_provenance_only_where_budgets_are_read(capsys, tmp_path, data_dir):
    func = str(data_dir / "spectral_q2_k3.func")
    enc = tmp_path / "enc.txt"
    with_budget = (
        (["bounds", "--func", func, "--t", "1", "--format", "csv"], None),
        (["construct", "--func", func, "--t", "1", "--r", "3", "--out", str(enc)], enc),
    )
    without = (
        ["drm", "--func", func, "--t", "1"],
        ["fdm", "--func", func, "--t", "1"],
        ["spectrum", "--func", func, "--t", "1", "--r", "1"],
        ["compare", "--d", "3", "--k-range", "2:3"],
    )
    for argv, path in with_budget:
        code, out, _ = run(capsys, *argv)
        text = path.read_text() if path else out
        assert code == EX_OK
        budgets = f"\n# budget-nodes {DEFAULT_NODE_BUDGET} budget-seconds none\n"
        assert budgets in text, argv
    for argv in without:
        code, out, _ = run(capsys, *argv)
        assert code == EX_OK and out.startswith("# tool fcc ")
        assert "# command fcc " in out and "budget" not in out, argv
    # JSON meta lists the budgets the command accepts, and no others
    for argv, keys in (
        (["alpha", "--func", func, "--t", "1", "--r", "1"], {"budget_nodes", "budget_seconds"}),
        (["nq", "--matrix", "0,3;3,0"], {"budget_seconds"}),
        (["fdm", "--func", func, "--t", "1", "--format", "json"], set()),
    ):
        code, payload, _ = run_json(capsys, *argv)
        assert set(payload["meta"]) == {"tool", "command"} | keys, argv


def test_construct_from_an_empty_parity_word(capsys, tmp_path, data_dir, const_q2_k3):
    parity = tmp_path / "empty.txt"
    parity.write_text("-\n")
    enc_path = tmp_path / "const.enc"
    code, payload, _ = run_json(
        capsys, "construct", "--func", str(data_dir / "const_q2_k3.func"), "--t", "1",
        "--parity", str(parity), "--out", str(enc_path),
    )
    assert code == EX_OK and payload["verified"] is True and payload["r"] == 0
    assert verify_fcc(read_encoder_file(enc_path, const_q2_k3))


def test_negative_results_carry_meta(capsys, tmp_path, data_dir, ex_q2_k4):
    func = str(data_dir / "ex_q2_k4.func")
    enc_path = tmp_path / "r1.enc"
    argv = ["construct", "--func", func, "--t", "1", "--r", "1", "--out", str(enc_path)]
    code, payload, _ = run_json(capsys, *argv)
    assert code == EX_NEGATIVE and payload["found"] is False
    assert payload["meta"]["command"] == "fcc " + shlex.join(argv)
    assert not enc_path.exists()

    assert main(["construct", "--func", func, "--t", "1", "--out", str(enc_path)]) == EX_OK
    capsys.readouterr()
    E = read_encoder_file(enc_path, ex_q2_k4)
    codewords = [E.encode(u) for u in all_words(2, 4)]
    far = next(
        y for y in all_words(2, 7)
        if min(slow_distance(y, c) for c in codewords) > 1
    )
    argv = ["decode", str(enc_path), "".join(map(str, far)), "--func", func]
    code, payload, _ = run_json(capsys, *argv)
    assert code == EX_NEGATIVE and payload["label"] is None
    assert payload["meta"]["command"] == "fcc " + shlex.join(argv)


def test_class_word_routes_match_goldens(capsys, data_dir, golden_dir, shipped_dir, ex_q2_k4):
    code, out, _ = run(capsys, "construct", "--func", str(data_dir / "ex_q3_k3.func"), "--t", "1")
    assert code == EX_OK
    body = "".join(line for line in out.splitlines(True) if not line.startswith("#"))
    assert body == (golden_dir / "construct_q3_k3_t1.enc").read_text()

    parity = read_parity_file(shipped_dir / "parity_5_4_3_q2.txt", q=2)
    text = render_encoder_file(build_cosetwise_encoder(ex_q2_k4, 1, parity))
    assert text == (golden_dir / "cosetwise_q2_k4_t1.enc").read_text()
