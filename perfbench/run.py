"""fcclib benchmark: one workload, one seed, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload bounds|search|codec --seed N \
        --seconds S --trace 0|1

Each pass runs the workload's whole op list once, cold, in a fresh worker
process (one caller, one thread).  With --trace 0 passes repeat while the
next one is expected to end within --seconds (at least one).  Every op's time
is its median over the passes, and the end-to-end metrics are built from
those medians, so a slow stretch of the host during one pass moves little.
With --trace 1 untraced and traced passes alternate in the same way; the
per-layer metrics are medians over the traced passes.
The last line of output is one JSON object; the lines before it are for
people.  Exits 2 without a result when the fcclib sources are not present.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}
TAIL_BEYOND = 10
# Times are reported in seconds of a reference host: one on which the
# worker's calibration kernel takes CAL_REF_S.  The worker takes a
# calibration sample between ops every quarter second; each measured time is
# multiplied by CAL_REF_S over the median of the sample in force and its two
# neighbours, so it follows the host's speed around that op.
CAL_REF_S = 0.004


def run_worker(workload: str, seed: int, trace: int, started: float) -> dict:
    """One pass in a fresh process; raises if it fails or overruns."""
    remaining = RUN_LIMIT_S - (perf_counter() - started)
    if remaining <= 0:
        raise TimeoutError("no time left for another pass")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining, check=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, traces: tuple) -> dict:
    """Cycles of one pass per trace setting, repeated while the next cycle is
    expected to end within ``seconds`` (at least one cycle)."""
    started = perf_counter()
    passes = {trace: [] for trace in traces}
    while True:
        t0 = perf_counter()
        for trace in traces:
            passes[trace].append(run_worker(workload, seed, trace, started))
        if perf_counter() - started + (perf_counter() - t0) > seconds:
            return passes


def layer_metrics(traced: list[dict]) -> dict:
    """Each per-layer metric's median over the traced passes."""
    return {name: {"value": statistics.median(p["layers"][name][0] for p in traced), "unit": unit}
            for name, (_, unit) in traced[0]["layers"].items()}


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail(ordered: list[float]) -> float:
    """The highest sample with TAIL_BEYOND samples above it, or the median
    when there are too few samples for that to lie above it."""
    i = len(ordered) - 1 - TAIL_BEYOND
    return ordered[i] if 2 * i >= len(ordered) - 1 else statistics.median(ordered)


def scaled(p: dict) -> dict:
    """A pass with every time scaled to the reference host (rates in 1/s
    inversely).  Set-up i runs after calibration sample i."""
    cal = p["calibration_s"]

    def factor(i: int) -> float:
        return CAL_REF_S / statistics.median(cal[max(i - 1, 0):i + 2])

    out = {
        **p,
        "setup_s": [s * factor(i) for i, s in enumerate(p["setup_s"])],
        "records": [{**r, "seconds": r["seconds"] * factor(r["calibration"])}
                    for r in p["records"]],
    }
    if "layers" in p:
        # layer times add up over the whole pass: scale by the pass's median
        f = CAL_REF_S / statistics.median(cal)
        power = {"s": 1, "1/s": -1}
        out["layers"] = {name: (value * f ** power.get(unit, 0), unit)
                         for name, (value, unit) in p["layers"].items()}
    return out


def op_medians(passes: list[dict]) -> list[tuple[bool, float]]:
    """(in the stream, median seconds over the passes) of each op; the ops of
    all passes are the same list, matched by position."""
    lists = [p["records"] for p in passes]
    if len({len(records) for records in lists}) != 1:
        raise ValueError("the passes ran different op lists")
    return [(ops[0]["stream"], statistics.median(r["seconds"] for r in ops))
            for ops in zip(*lists)]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """The end-to-end figures, from each op's median over the passes."""
    medians = op_medians(passes)
    stream = sorted(seconds for in_stream, seconds in medians if in_stream)
    return {
        "setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
        "wall_s": sum(seconds for _, seconds in medians),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "op_p50_ms": 1e3 * statistics.median(stream),
        "op_tail_ms": 1e3 * tail(stream),
    }


def details(workload: str, passes: list[dict]) -> list[str]:
    """Lines for people: counts, budget exits, failures, codec figures."""
    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if r["problem"]]
    medians = op_medians(passes)
    n = sum(in_stream for in_stream, _ in medians)
    i = n - 1 - TAIL_BEYOND
    lines = [
        f"passes: {len(passes)}, ops attempted: {len(records)}, stream ops per pass: {n}, "
        + (f"op_tail_ms is p{100 * i / (n - 1):.1f} of the op medians, {TAIL_BEYOND} beyond"
           if 2 * i >= n - 1 else "op_tail_ms is the median (too few ops for a tail)"),
        f"failed_ratio: {len(failed) / len(records):.4f} ratio",
        f"budget_exits: {sum(r['budget_exits'] for r in passes[0]['records'])} count (per pass)",
    ]
    if workload == "codec":
        build = [seconds for r, (_, seconds) in zip(passes[0]["records"], medians)
                 if r["name"].startswith("encoder ")]
        stream = [r["seconds"] for r in records if r["stream"]]
        beyond = len(stream) - int(0.99 * (len(stream) - 1)) - 1
        lines += [
            f"encoder_s: {sum(build):.4f} s (median over passes)",
            f"decode_p50_us: {1e6 * percentile(stream, 50):.1f} us per op of one word per encoder",
            f"decode_p99_us: {1e6 * percentile(stream, 99):.1f} us "
            f"({len(stream)} ops pooled over passes, {beyond} beyond p99)",
        ]
    else:
        lines += ["encoder_s: n/a", "decode_p50_us: n/a", "decode_p99_us: n/a"]
    lines += [f"FAILED {r['name']}: {r['problem']}" for r in failed[:20]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fcclib" / "__init__.py").is_file():
        print(f"error: no fcclib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        runs = run_passes(args.workload, args.seed, args.seconds, (0, 1) if args.trace else (0,))
        plain = [scaled(p) for p in runs[0]]
        traced = [scaled(p) for p in runs.get(1, [])]
        values = end_to_end(plain)
        measured = end_to_end(runs[0])
        lines = details(args.workload, plain) + [
            f"host: calibration kernel median "
            f"{1e3 * statistics.median(c for p in runs[0] for c in p['calibration_s']):.3f} ms "
            f"(reference {1e3 * CAL_REF_S:g} ms); as measured, unscaled: "
            + ", ".join(f"{k} {measured[k]:.6g}" for k in ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms")),
        ]
        if traced:
            overhead = end_to_end(traced)["wall_s"] / values["wall_s"]
    except (subprocess.SubprocessError, TimeoutError, ValueError, IndexError) as exc:
        print(f"error: pass failed: {exc}", file=sys.stderr)
        return 1

    records = [r for passes in runs.values() for p in passes for r in p["records"]]
    failed = sum(1 for r in records if r["problem"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if traced:
        metrics = layer_metrics(traced)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        exits = sum(r["budget_exits"] for r in traced[0]["records"])
        metrics["budget_exits"] = {"value": exits, "unit": "count"}
        for name in traced[0]["missing"]:
            print(f"expected public function not found: {name}")
        print(f"traced passes: {len(traced)}; spans of the first, caller -> callee:")
        print("\n".join("  " + line for line in traced[0]["call_tree"][:40]))
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
