#!/usr/bin/env python3
"""Gate: aeep_served must sustain the smoke throughput without drops.

Reads the --json file written by bench/server_throughput and checks the
first cell's metrics: jobs_per_sec >= MIN_JOBS_PER_SEC and dropped == 0.
A `busy` reply is backpressure working as designed and is only reported.

Usage: server_throughput.py THROUGHPUT.json
       server_throughput.py --self-test

Exits 0 when the gate holds, 1 with the failed checks otherwise.
`--self-test` runs the gate against built-in passing and failing fixtures
(ctest runs it).
"""

import sys

import _gate

MIN_JOBS_PER_SEC = 250


def check(doc):
    """Return (summary line, list of failed checks)."""
    m = doc["cells"][0]["metrics"]
    summary = (f"{m['jobs_per_sec']:.1f} jobs/sec, "
               f"{m['dropped']} dropped, {m['busy_replies']} busy replies")
    errors = []
    if m["jobs_per_sec"] < MIN_JOBS_PER_SEC:
        errors.append(f"jobs_per_sec {m['jobs_per_sec']:.1f} is below "
                      f"{MIN_JOBS_PER_SEC}")
    if m["dropped"] != 0:
        errors.append(f"{m['dropped']} jobs dropped")
    return summary, errors


def doc_of(jobs_per_sec, dropped, busy=0):
    return {"cells": [{"metrics": {"jobs_per_sec": jobs_per_sec,
                                   "dropped": dropped,
                                   "busy_replies": busy}}]}


# Fixtures: ((doc,), expected number of failed checks).
CASES = [
    ((doc_of(412.5, 0),), 0),
    ((doc_of(250.0, 0),), 0),           # the bound itself passes
    ((doc_of(250.0, 0, busy=37),), 0),  # busy replies are not drops
    ((doc_of(249.9, 0),), 1),
    ((doc_of(900.0, 1),), 1),
    ((doc_of(12.0, 3),), 2),
]

if __name__ == "__main__":
    sys.exit(_gate.run(__doc__, check, CASES))
