"""One cold pass over a workload's op list, in its own process.

Usage: python3 perfbench/worker.py --workload W --seed N --trace 0|1

Sets the workload up several times (fresh import of fcclib, inputs, input
files) and keeps the last set-up, runs the op list once with a timer around
each op, checks every output outside the timers, and prints one JSON object
with every set-up time and every op's record.
With --trace 1 the op list runs under the per-layer tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
CALIBRATE_EVERY_S = 0.25
# Words for the calibration kernel: all 6-bit tuples, 64 x 64 distances.
_CAL_WORDS = [tuple((i >> b) & 1 for b in range(6)) for i in range(64)]


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel shaped like the library's inner
    loops (Hamming distances between tuples).  It does not touch fcclib, so
    its time tracks the host's speed and nothing else."""
    t0 = perf_counter()
    total = 0
    for a in _CAL_WORDS:
        for b in _CAL_WORDS:
            total += sum(x != y for x, y in zip(a, b))
    assert total == 64 * 64 * 3
    return perf_counter() - t0


def setup(workload: str, seed: int, workdir: Path) -> tuple[float, workloads.Context]:
    """Import fcclib afresh, generate the inputs and write the input files."""
    for name in [m for m in sys.modules if m == "fcclib" or m.startswith("fcclib.")]:
        del sys.modules[name]
    t0 = perf_counter()
    lib = importlib.import_module("fcclib")
    cli = importlib.import_module("fcclib.cli")
    importlib.import_module("fcclib.formats")
    inputs = workloads.make_inputs(workload, seed)
    specs = workloads.write_inputs(inputs, lib, workdir)
    return perf_counter() - t0, workloads.Context(lib, cli, inputs, specs, workdir)


def run_ops(op_iter, calibration: list | None = None) -> list[dict]:
    """Run each op under its own timer, then check its output untimed.  With
    a ``calibration`` list, a calibration sample is appended before every op
    that starts at least CALIBRATE_EVERY_S after the previous sample, and
    each record notes the index of the latest sample."""
    records = []
    last = float("-inf")
    for op in op_iter:
        if calibration is not None and perf_counter() - last >= CALIBRATE_EVERY_S:
            calibration.append(calibrate())
            last = perf_counter()
        t0 = perf_counter()
        try:
            value = op.call()
        except Exception as exc:  # the oracle decides whether it was expected
            value = exc
        seconds = perf_counter() - t0
        try:
            problem, budget = op.check(value)
        except Exception as exc:
            problem, budget = f"oracle crashed: {type(exc).__name__}: {exc}", 0
        records.append(
            {"name": op.name, "seconds": seconds, "stream": op.stream,
             "problem": problem, "budget_exits": budget,
             "calibration": len(calibration) - 1 if calibration else None}
        )
    return records


def one_pass(workload: str, seed: int, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        setup_times, calibration = [], []
        for _ in range(SETUP_REPEATS):
            calibration.append(calibrate())
            seconds, ctx = setup(workload, seed, Path(tmp))
            setup_times.append(seconds)
        tracer = spans.Tracer(ctx.lib) if trace else contextlib.nullcontext()
        with tracer:
            records = run_ops(workloads.ops(workload, ctx), calibration)
    out = {
        "setup_s": setup_times,
        "calibration_s": calibration,
        "records": records,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        out["layers"] = tracer.layer_metrics()
        out["missing"] = tracer.missing
        out["call_tree"] = tracer.call_tree()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    print(json.dumps(one_pass(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
