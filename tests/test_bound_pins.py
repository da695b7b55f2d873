"""Every `bound_report` entry on the reference cells, pinned: the five cells of
the benchmark's `bounds` workload plus proj8 t=1..3 and k12 t=2, 3."""

import json

from fcclib import bound_report, linear_function


def _projection(m):
    """Keep the first m of 10 message bits."""
    return [[1 if j == i else 0 for j in range(10)] for i in range(m)]


FUNCTIONS = {
    "proj6": (2, _projection(6)),
    "proj8": (2, _projection(8)),
    # the k=4, l=2 running example's matrix repeated three times
    "k12": (2, [[1, 1, 1, 0] * 3, [0, 1, 1, 0] * 3]),
    "q3k5": (3, [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]]),
}


def test_bound_reports_on_reference_cells(golden_dir):
    want = json.loads((golden_dir / "bound_report_cells.json").read_text())
    for cell, pinned in want.items():
        name, t = cell.split(" t=")
        q, matrix = FUNCTIONS[name]
        report = bound_report(linear_function(q, matrix), int(t), node_budget=2_000)
        entries = [
            [e.name, e.sense, None if e.rational is None else str(e.rational),
             e.integer, e.note]
            for e in report.entries
        ]
        assert {"optimal": report.optimal, "entries": entries} == pinned, cell
