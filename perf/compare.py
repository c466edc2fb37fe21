#!/usr/bin/env python3
"""Compare two result documents of ``perf/run.py``.

    python3 perf/compare.py A.json B.json

Prints one row per (workload, end-to-end metric): both values, the
ratio B/A (A is the base), the bound by which the metric may get worse,
and a verdict:

* ``ok``         — B is not worse than A by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — the ``spread`` either run recorded for the metric (how
  far its estimate moves when any one repeat is left out) is wider than
  the bound, so the pair of runs cannot tell.

The ``exact`` blocks and ``input_sha`` values of the two documents must
be identical; the command exits non-zero when they are not, or when any
row reads ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# bounds of the end-to-end metrics that only some workloads report (the
# three every workload reports carry theirs in BENCHMARK.json)
EXTRA_BOUNDS = {
    "query_p50_ms": 0.10, "query_p95_ms": 0.15,
    "ingest_ack_p50_ms": 0.10, "ingest_ack_p95_ms": 0.15,
    "recover_s": 0.10, "failed_share": 0.0,
}


def load(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if "workloads" not in doc:       # a single --workload result
        doc = {"workloads": {doc["workload"]: doc}}
    return doc["workloads"]


def bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    out = dict(EXTRA_BOUNDS)
    out.update({m["name"]: m["bound"] for m in manifest["end_to_end"]})
    return out


def verdict(a: dict, b: dict, bound: float) -> str:
    """All end-to-end metrics are better when lower."""
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound:
        return "unresolved"
    if a["value"] == 0:
        return "ok" if b["value"] == 0 else "worse"
    return "worse" if b["value"] / a["value"] - 1.0 > bound else "ok"


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    limits = bounds()
    problems = 0
    header = (f"{'workload':14s} {'metric':18s} {'A':>12s} {'B':>12s} "
              f"{'B/A':>7s} {'bound':>6s}  verdict")
    print(header, file=out)
    for name in a:
        if name not in b:
            print(f"{name:14s} missing from B", file=out)
            problems += 1
            continue
        ra, rb = a[name], b[name]
        for key in ("input_sha", "exact"):
            if ra[key] != rb[key]:
                print(f"{name:14s} {key} differs", file=out)
                problems += 1
        for metric, ma in ra["e2e"].items():
            mb = rb["e2e"].get(metric)
            if mb is None:
                print(f"{name:14s} {metric:18s} missing from B", file=out)
                problems += 1
                continue
            word = verdict(ma, mb, limits[metric])
            problems += word == "worse"
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            print(f"{name:14s} {metric:18s} {ma['value']:12.5g} "
                  f"{mb['value']:12.5g} {ratio:7.3f} "
                  f"{limits[metric]:6.2f}  {word}", file=out)
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if compare(load(argv[0]), load(argv[1])) else 0


if __name__ == "__main__":
    sys.exit(main())
