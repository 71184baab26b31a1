#!/usr/bin/env python3
"""Compare two bench --json files: key structure and every value.

CI runs the smoke sweep with the exact configuration of the committed
BENCH_sweep.json and compares the fresh JSON against it. The simulator is
deterministic, so every metric must reproduce bit for bit: schema drift
(renamed metrics, dropped config keys, a changed cells layout) and any
changed value both fail the build.

Usage: check_bench_schema.py BASELINE.json FRESH.json
       check_bench_schema.py --self-test

Rules:
  - Both files must declare schema_version == EXPECTED_SCHEMA_VERSION (2:
    v2 added the per-cell wall_clock_seconds field).
  - Objects must have exactly the same key sets, recursively. Every missing
    or unexpected key is reported on its own line with its exact full path
    (e.g. `$.config.frontend: missing in fresh`), so the offending key can
    be grepped straight out of the bench source.
  - Arrays must have the same length and are compared element by element.
  - Leaf types must match (number vs string vs bool vs null), and every
    leaf value must equal the baseline's, except under the keys in
    UNPINNED_KEYS (host time, build revision and worker count), whose
    values may differ but whose types may not.
Exits 0 when shape and values match, 1 with a per-path diff otherwise.
`--self-test` runs the checker against built-in fixtures (CI and ctest
invoke it so a broken checker cannot silently wave drift through).
"""

import json
import sys

EXPECTED_SCHEMA_VERSION = 2

# Keys whose values legitimately differ between runs of the same config.
UNPINNED_KEYS = frozenset({"wall_clock_seconds", "git_rev", "jobs"})


def type_name(v):
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "number"
    if isinstance(v, str):
        return "string"
    if v is None:
        return "null"
    if isinstance(v, list):
        return "array"
    if isinstance(v, dict):
        return "object"
    return type(v).__name__


def diff_docs(base, fresh, path, errors, pinned=True):
    bt, ft = type_name(base), type_name(fresh)
    if bt != ft:
        errors.append(f"{path}: baseline is {bt}, fresh is {ft}")
        return
    if bt == "object":
        for key in sorted(set(base) - set(fresh)):
            errors.append(f"{path}.{key}: missing in fresh")
        for key in sorted(set(fresh) - set(base)):
            errors.append(f"{path}.{key}: unexpected in fresh")
        for key in sorted(set(base) & set(fresh)):
            diff_docs(base[key], fresh[key], f"{path}.{key}", errors,
                      pinned and key not in UNPINNED_KEYS)
    elif bt == "array":
        if len(base) != len(fresh):
            errors.append(f"{path}: baseline has {len(base)} elements, "
                          f"fresh has {len(fresh)}")
        for i, (b, f) in enumerate(zip(base, fresh)):
            diff_docs(b, f, f"{path}[{i}]", errors, pinned)
    elif pinned and base != fresh:
        errors.append(f"{path}: baseline {json.dumps(base)}, "
                      f"fresh {json.dumps(fresh)}")


def check_schema_version(doc, label, errors):
    v = doc.get("schema_version") if isinstance(doc, dict) else None
    if v != EXPECTED_SCHEMA_VERSION:
        errors.append(
            f"$.schema_version: {label} declares {v!r}, "
            f"expected {EXPECTED_SCHEMA_VERSION}"
        )


def self_test():
    """Fixture pairs: (baseline, fresh, expected error lines)."""
    cases = [
        ({"a": 1, "b": "x"}, {"a": 1.0, "b": "x"}, []),
        ({"a": 1}, {"a": "s"}, ["$.a: baseline is number, fresh is string"]),
        # Values are pinned: a changed number, string or bool is drift.
        (
            {"cells": [{"tag": "a", "m": {"ipc": 0.5, "wb": 404}}]},
            {"cells": [{"tag": "a", "m": {"ipc": 0.5000001, "wb": 405}}]},
            [
                "$.cells[0].m.ipc: baseline 0.5, fresh 0.5000001",
                "$.cells[0].m.wb: baseline 404, fresh 405",
            ],
        ),
        (
            {"experiment": "fig3_4", "ok": True},
            {"experiment": "fig7_8", "ok": False},
            [
                '$.experiment: baseline "fig3_4", fresh "fig7_8"',
                "$.ok: baseline true, fresh false",
            ],
        ),
        # Host time, build revision and worker count are not pinned, at any
        # depth, but their types still are.
        (
            {"git_rev": "aef4ae8", "jobs": 1, "wall_clock_seconds": 3.9,
             "cells": [{"wall_clock_seconds": 0.1, "m": {"ipc": 1.0}}]},
            {"git_rev": "f6e4cf1", "jobs": 4, "wall_clock_seconds": 1.2,
             "cells": [{"wall_clock_seconds": 0.3, "m": {"ipc": 1.0}}]},
            [],
        ),
        ({"jobs": 1}, {"jobs": "4"},
         ["$.jobs: baseline is number, fresh is string"]),
        (
            {"config": {"seed": 1, "frontend": "exec"}},
            {"config": {"seed": 1}},
            ["$.config.frontend: missing in fresh"],
        ),
        (
            {"config": {"seed": 1}},
            {"config": {"seed": 1, "bogus": 0}},
            ["$.config.bogus: unexpected in fresh"],
        ),
        (
            {"cells": [{"tag": "a", "m": {"ipc": 1.0}}]},
            {"cells": [{"tag": "a", "m": {"ipc": 1.0}},
                       {"tag": "c", "m": {}}]},
            ["$.cells: baseline has 1 elements, fresh has 2"],
        ),
        ({"cells": [1]}, {"cells": []},
         ["$.cells: baseline has 1 elements, fresh has 0"]),
        (
            {"x": {"deep": {"gone": 1, "also_gone": 2}}},
            {"x": {"deep": {"added": 3}}},
            [
                "$.x.deep.also_gone: missing in fresh",
                "$.x.deep.gone: missing in fresh",
                "$.x.deep.added: unexpected in fresh",
            ],
        ),
        # v2: every cell carries its own wall_clock_seconds; a bench that
        # drops it (or adds surprise keys) is schema drift like any other.
        (
            {"cells": [{"tag": "a", "wall_clock_seconds": 0.5,
                        "metrics": {"ipc": 1.0}}]},
            {"cells": [{"tag": "a", "metrics": {"ipc": 1.0}}]},
            ["$.cells[0].wall_clock_seconds: missing in fresh"],
        ),
    ]
    version_cases = [
        ({"schema_version": 2}, "baseline", []),
        (
            {"schema_version": 1},
            "fresh",
            ["$.schema_version: fresh declares 1, expected 2"],
        ),
        (
            {"cells": []},
            "baseline",
            ["$.schema_version: baseline declares None, expected 2"],
        ),
    ]
    failed = 0
    for i, (base, fresh, expected) in enumerate(cases):
        errors = []
        diff_docs(base, fresh, "$", errors)
        if errors != expected:
            failed += 1
            print(f"self-test case {i} FAILED:", file=sys.stderr)
            print(f"  expected: {expected}", file=sys.stderr)
            print(f"  got:      {errors}", file=sys.stderr)
    for i, (doc, label, expected) in enumerate(version_cases):
        errors = []
        check_schema_version(doc, label, errors)
        if errors != expected:
            failed += 1
            print(f"self-test version case {i} FAILED:", file=sys.stderr)
            print(f"  expected: {expected}", file=sys.stderr)
            print(f"  got:      {errors}", file=sys.stderr)
    total = len(cases) + len(version_cases)
    if failed:
        print(f"self-test: {failed}/{total} cases failed", file=sys.stderr)
        return 1
    print(f"self-test: all {total} cases pass")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print(f"usage: {argv[0]} BASELINE.json FRESH.json | --self-test",
              file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)
    errors = []
    check_schema_version(base, "baseline", errors)
    check_schema_version(fresh, "fresh", errors)
    diff_docs(base, fresh, "$", errors)
    if errors:
        print(f"bench JSON differs from {argv[1]}:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"bench JSON matches {argv[1]} (schema and values)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
