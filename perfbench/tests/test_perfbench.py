"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def lib():
    fcclib = importlib.import_module("fcclib")
    importlib.import_module("fcclib.cli")
    importlib.import_module("fcclib.formats")
    return fcclib


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, lib, tmp_path):
    first = workloads.make_inputs(workload, 11)
    assert first == workloads.make_inputs(workload, 11)
    assert json.loads(json.dumps(first)) == json.loads(json.dumps(workloads.make_inputs(workload, 11)))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    workloads.write_inputs(first, lib, tmp_path / "a")
    workloads.write_inputs(workloads.make_inputs(workload, 11), lib, tmp_path / "b")
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_codec_inputs_follow_the_seed():
    a, b = workloads.make_inputs("codec", 1), workloads.make_inputs("codec", 2)
    assert a["functions"] != b["functions"] and a["stream"] != b["stream"]
    assert workloads.make_inputs("search", 1) == workloads.make_inputs("search", 2)


def _small_codec(lib, tmp_path, corrupt: bool):
    """The codec read-and-decode path on the k=4 example's encoder."""
    q, matrix = workloads.REFERENCE["ex4"]
    stream = [[["ex4", rank, errors, 1000 * rank + errors]] for rank in range(16) for errors in (0, 1, 2)]
    inputs = {"functions": {"ex4": (q, matrix)}, "t": 1, "expected_r": {"ex4": 3}, "stream": stream}
    specs = workloads.write_inputs(inputs, lib, tmp_path)
    f = specs["ex4"]
    enc = lib.build_cosetwise_encoder(f, 1, lib.n_q_exact(lib.cosetwise_requirements(f, 1), 2).witness)
    if corrupt:
        # 0000 and 1000 have different values and sit 1 apart; equal parity
        # words leave their codewords 1 apart instead of at least 3.
        parity = list(enc.parity)
        parity[8] = parity[0]
        enc = lib.FccEncoder(f=f, t=1, r=enc.r, parity=tuple(parity))
    (tmp_path / "ex4.enc").write_text(lib.formats.render_encoder_file(enc))
    ctx = workloads.Context(lib, sys.modules["fcclib.cli"], inputs, specs, tmp_path)
    return worker.run_ops(workloads.read_and_decode_ops(ctx, {}))


def test_sound_encoder_passes(lib, tmp_path):
    records = _small_codec(lib, tmp_path, corrupt=False)
    assert len(records) == 1 + 48
    assert [r for r in records if r["problem"]] == []


def test_corrupted_encoder_is_caught(lib, tmp_path):
    records = _small_codec(lib, tmp_path, corrupt=True)
    failed = [r for r in records if r["problem"]]
    assert len(failed) / len(records) > 0
    assert records[0]["problem"] == "messages 0 and 8 are 1 apart"


def test_printout_names_every_end_to_end_metric(lib, tmp_path, monkeypatch):
    records = _small_codec(lib, tmp_path, corrupt=False)
    records = [{**r, "calibration": 0} for r in records]
    one_pass = {"setup_s": [0.05], "calibration_s": [0.004], "peak_rss_mib": 30.0, "records": records}
    monkeypatch.setattr(run, "run_worker", lambda *a: one_pass)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "codec", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in spec:
        assert any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}") for line in lines)


def test_codec_stream_pairs_one_word_of_each_encoder():
    stream = workloads.make_inputs("codec", 5)["stream"]
    assert len(stream) == sum(workloads.ERROR_MIX.values())
    assert all([word[0] for word in entry] == ["q2k9", "q3k6"] for entry in stream)


def test_op_medians_shrug_off_one_slow_pass():
    def one_pass(scale):
        records = [{"name": f"op{i}", "seconds": scale * (i + 1), "stream": True,
                    "problem": None, "budget_exits": 0} for i in range(4)]
        return {"setup_s": [0.1 * scale], "peak_rss_mib": 20.0, "records": records}

    values = run.end_to_end([one_pass(1.0), one_pass(1.0), one_pass(3.0)])
    assert values["wall_s"] == pytest.approx(10.0)
    assert values["setup_s"] == pytest.approx(0.1)
    assert values["op_p50_ms"] == pytest.approx(2500.0)
    with pytest.raises(ValueError):
        run.end_to_end([one_pass(1.0), {**one_pass(1.0), "records": []}])


def test_times_scale_to_the_reference_host():
    def op(seconds, cal):
        return {"name": "op", "seconds": seconds, "stream": True, "problem": None,
                "budget_exits": 0, "calibration": cal}

    # the host runs the calibration kernel at half the reference speed from
    # sample 2 on; each time is scaled by the median of its sample's window
    ref = run.CAL_REF_S
    p = {"setup_s": [0.1], "calibration_s": [ref, ref, 2 * ref, 2 * ref, 2 * ref],
         "peak_rss_mib": 20.0, "records": [op(1.0, 0), op(2.0, 3), op(2.0, 4)],
         "layers": {"a.self_s": (2.0, "s"), "mis.nodes_per_s": (100.0, "1/s"), "mis.nodes": (5, "count")}}
    out = run.scaled(p)
    assert out["setup_s"] == [pytest.approx(0.1)]
    assert [r["seconds"] for r in out["records"]] == [pytest.approx(1.0), pytest.approx(1.0),
                                                     pytest.approx(1.0)]
    # layer totals span the pass, whose median sample is the slow one
    assert out["layers"] == {"a.self_s": (pytest.approx(1.0), "s"),
                             "mis.nodes_per_s": (pytest.approx(200.0), "1/s"),
                             "mis.nodes": (5, "count")}


def test_worker_calibrates_between_ops():
    ops = [workloads.Op(f"op{i}", lambda: None, lambda v: (None, 0)) for i in range(3)]
    calibration = []
    records = worker.run_ops(iter(ops), calibration)
    assert len(calibration) >= 1 and all(c > 0 for c in calibration)
    assert [r["calibration"] for r in records][0] == 0


def test_tracer_counts_and_restores(lib):
    f = lib.linear_function(*workloads.REFERENCE["ex4"])
    original = lib.build_fdm
    tracer = spans.Tracer(lib)
    with tracer:
        assert lib.build_fdm is not original
        lib.n_q_exact(lib.build_fdm(f, 1), 2)
    assert lib.build_fdm is original
    assert sys.modules["fcclib.cosets"].build_fdm is original
    metrics = tracer.layer_metrics()
    assert metrics["distance.build_fdm.calls"] == (1, "count")
    assert metrics["functions.function_distance.calls"][0] == 6
    assert metrics["distance.n_q_exact.lengths"][0] >= 1
    assert metrics["trace.missing"] == (0, "count")
    assert ("distance.build_fdm", "functions.function_distance") in tracer.edges


def test_tracer_counts_missing_functions(lib, monkeypatch):
    monkeypatch.delattr(sys.modules["fcclib.graph"], "decode")
    tracer = spans.Tracer(lib)
    with tracer:
        pass
    assert tracer.missing == ["graph.decode"]


def test_per_layer_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = set(spans.Tracer(None).layer_metrics()) | {"trace.overhead_ratio", "budget_exits"}
    assert {m["name"] for m in spec} == names
