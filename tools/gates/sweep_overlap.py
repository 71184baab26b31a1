#!/usr/bin/env python3
"""Gate: a parallel sweep's pool must overlap its cells' work.

Reads a bench --json file written by a parallel sweep (schema v2, which
gives every cell its own wall_clock_seconds). The summed per-cell work over
the sweep's wall clock is the speedup the pool achieved; it must reach
FLOOR_PER_CORE x min(cores, MAX_CORES). Every cell must also report a
wall clock > 0, or the per-cell timing is missing.

Usage: sweep_overlap.py BENCH.json
       sweep_overlap.py --self-test

The core count is os.cpu_count(). Exits 0 when the gate holds, 1 with the
failed checks otherwise. `--self-test` runs the gate against built-in
passing and failing fixtures (ctest runs it).
"""

import os
import sys

import _gate

FLOOR_PER_CORE = 0.6
MAX_CORES = 4


def check(doc, nproc):
    """Return (summary line, list of failed checks)."""
    cells = doc["cells"]
    work = sum(c["wall_clock_seconds"] for c in cells)
    wall = doc["wall_clock_seconds"]
    speedup = work / wall if wall > 0 else 0.0
    floor = min(nproc, MAX_CORES) * FLOOR_PER_CORE
    summary = (f"{work:.2f}s of per-cell work in {wall:.2f}s wall "
               f"({speedup:.2f}x, floor {floor:.2f}x on {nproc} cores)")
    errors = []
    if not all(c["wall_clock_seconds"] > 0 for c in cells):
        errors.append("a cell is missing its own wall clock")
    if speedup < floor:
        errors.append(f"speedup {speedup:.2f}x is below the floor "
                      f"{floor:.2f}x")
    return summary, errors


def doc_of(wall, cells):
    return {"wall_clock_seconds": wall,
            "cells": [{"wall_clock_seconds": c} for c in cells]}


# Fixtures: ((doc, nproc), expected number of failed checks).
CASES = [
    # 4 cores: floor 2.4x. 10 s of work in 4 s is 2.5x.
    ((doc_of(4.0, [2.5] * 4), 4), 0),
    # Serial pool on 4 cores: 1.0x.
    ((doc_of(10.0, [2.5] * 4), 4), 1),
    # More than 4 cores still asks for 2.4x.
    ((doc_of(4.0, [2.5] * 4), 64), 0),
    # One core: floor 0.6x, so a serial sweep passes.
    ((doc_of(10.0, [2.5] * 4), 1), 0),
    # A cell without its own wall clock fails even at a good speedup.
    ((doc_of(1.0, [2.5, 2.5, 2.5, 0.0]), 1), 1),
    # A zero sweep wall clock is no speedup at all.
    ((doc_of(0.0, [2.5]), 1), 1),
]

if __name__ == "__main__":
    sys.exit(_gate.run(__doc__, check, CASES, (os.cpu_count() or 1,)))
