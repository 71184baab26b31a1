#!/usr/bin/env python3
"""Gate: the server's stage histograms must account for every job once.

Reads an `aeep_metrics dump` snapshot taken from a fresh aeep_served after
JOBS trace-replay jobs. Every job waits in the queue once, is replayed
once and closes one wall-clock span, so each of STAGES must count exactly
JOBS, and its bucket counts must sum to its count: no stage may drop or
double-count work. The request histogram saw every frame (jobs + ping +
metrics), so it counts at least JOBS. The replay and job-wall p99s must
stay under generous ceilings: these are 50k-instruction replays, so a
regression shows up as an order-of-magnitude blowup.

Usage: metrics_stages.py METRICS.json
       metrics_stages.py --self-test

Exits 0 when the gate holds, 1 with the failed checks otherwise.
`--self-test` runs the gate against built-in passing and failing fixtures
(ctest runs it).
"""

import sys

import _gate

JOBS = 400
STAGES = ("server.queue_wait_us", "server.replay_us", "server.job_wall_us")
P99_CEILING_US = {"server.replay_us": 2_000_000,
                  "server.job_wall_us": 10_000_000}


def check(doc):
    """Return (summary line, list of failed checks)."""
    hists = doc["histograms"]
    errors = []
    for name in STAGES:
        h = hists[name]
        if h["count"] != JOBS:
            errors.append(f"{name} count {h['count']} != {JOBS} jobs")
        bucket_sum = sum(n for _, n in h["buckets"])
        if bucket_sum != h["count"]:
            errors.append(f"{name} buckets sum to {bucket_sum}, "
                          f"count is {h['count']}")
    requests = hists["server.request_us"]["count"]
    if requests < JOBS:
        errors.append(f"server.request_us count {requests} < {JOBS} jobs")
    for name, ceiling in P99_CEILING_US.items():
        if hists[name]["p99"] >= ceiling:
            errors.append(f"{name} p99 {hists[name]['p99']:.0f}us is not "
                          f"under {ceiling}us")
    summary = "; ".join(f"{n} p50={hists[n]['p50']:.0f}us "
                        f"p99={hists[n]['p99']:.0f}us" for n in STAGES)
    return summary, errors


def hist(count, buckets=None, p99=1000.0):
    if buckets is None:
        buckets = [[100, count // 2], [1000, count - count // 2]]
    return {"count": count, "buckets": buckets, "p50": p99 / 2, "p99": p99}


def doc_of(**overrides):
    hists = {name: hist(JOBS) for name in STAGES}
    hists["server.request_us"] = hist(JOBS + 2)
    hists.update(overrides)
    return {"histograms": hists}


# Fixtures: ((doc,), expected number of failed checks).
CASES = [
    ((doc_of(),), 0),
    # Request count exactly the job count; p99s just under the ceilings.
    ((doc_of(**{"server.request_us": hist(JOBS),
                "server.replay_us": hist(JOBS, p99=1_999_999),
                "server.job_wall_us": hist(JOBS, p99=9_999_999)}),), 0),
    # A stage that lost a job: count and a matching bucket sum.
    ((doc_of(**{"server.queue_wait_us": hist(JOBS - 1)}),), 1),
    # A double-counted job.
    ((doc_of(**{"server.replay_us": hist(JOBS + 1)}),), 1),
    # Buckets that do not add up to the advertised count.
    ((doc_of(**{"server.job_wall_us": hist(JOBS, [[100, 10]])}),), 1),
    ((doc_of(**{"server.request_us": hist(JOBS - 1)}),), 1),
    # The p99 ceilings are strict.
    ((doc_of(**{"server.replay_us": hist(JOBS, p99=2_000_000)}),), 1),
    ((doc_of(**{"server.job_wall_us": hist(JOBS, p99=10_000_000)}),), 1),
    # Lost job and blown tail in one stage.
    ((doc_of(**{"server.replay_us": hist(JOBS - 3, p99=5_000_000)}),), 2),
]

if __name__ == "__main__":
    sys.exit(_gate.run(__doc__, check, CASES))
