"""Shared command line for the CI gate scripts in this directory.

A gate script defines check(doc, ..., *context) -> (summary line, list of
failed checks), taking one loaded document per input file, and a list of
self-test fixtures ((doc, ..., *context), expected number of failed
checks), then exits with run(__doc__, check, cases, context, files).

`GATE.py FILE.json ...` loads the `files` JSON files (one by default),
prints the summary and every failed check, and returns 0 when the gate
holds, 1 otherwise (2 on bad usage). `GATE.py --self-test` runs check() on
the fixtures instead and returns 1 if any fixture gives a different number
of failed checks.
"""

import json
import sys


def self_test(check, cases):
    failed = 0
    for i, (args, expected) in enumerate(cases):
        summary, errors = check(*args)
        if len(errors) != expected:
            failed += 1
            print(f"self-test case {i} FAILED: {summary}", file=sys.stderr)
            print(f"  expected {expected} failed checks, got {errors}",
                  file=sys.stderr)
    if failed:
        print(f"self-test: {failed}/{len(cases)} cases failed",
              file=sys.stderr)
        return 1
    print(f"self-test: all {len(cases)} cases pass")
    return 0


def run(doc, check, cases, context=(), files=1):
    argv = sys.argv
    if argv[1:] == ["--self-test"]:
        return self_test(check, cases)
    if len(argv) != 1 + files:
        print(doc.strip(), file=sys.stderr)
        return 2
    docs = []
    for path in argv[1:]:
        with open(path) as f:
            docs.append(json.load(f))
    summary, errors = check(*docs, *context)
    print(summary)
    for e in errors:
        print(f"FAILED: {e}")
    return 1 if errors else 0
