#!/usr/bin/env python3
"""Gate: a warm --store re-run must be all hits, bit-exact and >=5x faster.

Reads the --json files of two identical sweeps against one result store
(the cold run that populated it, then the warm re-run) and a times file
{"t0": ..., "t1": ..., "t2": ...} of epoch seconds taken before the cold
run, between the runs and after the warm run. A cell answered from the
store reports wall_clock_seconds == 0.0, so the cold run must have
computed every cell (each > 0) and the warm run must have computed none
(each == 0). Apart from wall_clock_seconds the cells must be identical,
and the cold process time over the warm one must reach MIN_SPEEDUP.

Usage: store_warm.py COLD.json WARM.json TIMES.json
       store_warm.py --self-test

Exits 0 when the gate holds, 1 with the failed checks otherwise.
`--self-test` runs the gate against built-in passing and failing fixtures
(ctest runs it).
"""

import sys

import _gate

MIN_SPEEDUP = 5


def strip(cells):
    return [{k: v for k, v in c.items() if k != "wall_clock_seconds"}
            for c in cells]


def check(cold, warm, times):
    """Return (summary line, list of failed checks)."""
    cold_cells, warm_cells = cold["cells"], warm["cells"]
    n = len(warm_cells)
    cold_s = times["t1"] - times["t0"]
    warm_s = times["t2"] - times["t1"]
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    summary = (f"{n} cells: cold {cold_s:.2f}s, warm {warm_s:.2f}s, "
               f"{speedup:.1f}x")
    errors = []
    if n == 0 or len(cold_cells) != n:
        errors.append(f"cold run has {len(cold_cells)} cells, warm run {n}")
    elif strip(cold_cells) != strip(warm_cells):
        errors.append("a cached cell differs from the run that stored it")
    computed = sum(c["wall_clock_seconds"] > 0 for c in cold_cells)
    if computed != len(cold_cells):
        errors.append(f"cold run computed {computed} of "
                      f"{len(cold_cells)} cells (store was not empty)")
    cached = sum(c["wall_clock_seconds"] == 0 for c in warm_cells)
    if cached != n:
        errors.append(f"warm run served {cached} of {n} cells from the store")
    if speedup < MIN_SPEEDUP:
        errors.append(f"warm speedup {speedup:.1f}x is below {MIN_SPEEDUP}x")
    return summary, errors


def doc_of(walls, ipc=1.0):
    return {"cells": [{"tag": f"c{i}", "wall_clock_seconds": w,
                       "metrics": {"ipc": ipc}}
                      for i, w in enumerate(walls)]}


def times_of(cold_s, warm_s):
    return {"t0": 100.0, "t1": 100.0 + cold_s, "t2": 100.0 + cold_s + warm_s}


# Fixtures: ((cold, warm, times), expected number of failed checks).
CASES = [
    ((doc_of([0.4, 0.5]), doc_of([0.0, 0.0]), times_of(6.0, 0.5)), 0),
    # Exactly the floor passes; a warm run too fast to time passes.
    ((doc_of([0.4, 0.5]), doc_of([0.0, 0.0]), times_of(5.0, 1.0)), 0),
    ((doc_of([0.4, 0.5]), doc_of([0.0, 0.0]), times_of(5.0, 0.0)), 0),
    # Below the floor.
    ((doc_of([0.4, 0.5]), doc_of([0.0, 0.0]), times_of(4.9, 1.0)), 1),
    # The warm run computed a cell: a miss.
    ((doc_of([0.4, 0.5]), doc_of([0.0, 0.3]), times_of(6.0, 0.5)), 1),
    # The cold run was served a cell: the store was not empty.
    ((doc_of([0.0, 0.5]), doc_of([0.0, 0.0]), times_of(6.0, 0.5)), 1),
    # A cached cell that is not bit-exact.
    ((doc_of([0.4, 0.5]), doc_of([0.0, 0.0], ipc=1.5), times_of(6.0, 0.5)),
     1),
    # A lost cell.
    ((doc_of([0.4, 0.5]), doc_of([0.0]), times_of(6.0, 0.5)), 1),
    # Everything wrong at once.
    ((doc_of([0.0, 0.0]), doc_of([0.2, 0.2], ipc=2.0), times_of(1.0, 1.0)),
     4),
]

if __name__ == "__main__":
    sys.exit(_gate.run(__doc__, check, CASES, files=3))
