"""Record the reference output of every benchmark invocation.

Run from the repository root as ``python3 clibench/record.py``.  It writes
``clibench/reference/<workload>.json``; the benchmark only reads these
files.  Re-record only when an output is meant to change, and say so.
"""

from __future__ import annotations

import json
import os
import sys

from check import identity_holds
from child import CLI, run_child
from workloads import FIXED, WORKLOADS, Query, query_pool

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def workload_queries(workload: str) -> tuple[Query, ...]:
    if workload == "query-mix":
        return tuple(q for variants in query_pool().values() for q in variants)
    return FIXED[workload]


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in WORKLOADS:
        references = {}
        for query in workload_queries(workload):
            result = run_child((*CLI, *query.args), timeout=120)
            payload = json.loads(result.stdout)
            if result.exit_code != 0 or not identity_holds(query, payload):
                print(f"refusing to record {query.args}: exit {result.exit_code}",
                      file=sys.stderr)
                return 1
            references[query.key] = {"exit": result.exit_code, "payload": payload}
        with open(reference_path(workload), "w", encoding="utf-8") as handle:
            json.dump(references, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{workload}: {len(references)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
