"""Regenerate expected_reproduce.json from one `reproduce` pass.

    python3 perfbench/make_expected.py

Run this only when a change is meant to alter the corpus results, and
say so where the change is described; the table is the reference the
benchmark checks every record against.
"""

import json
import os
import sys
from pathlib import Path

import reproduce

TOLERANCES = {
    # |value - expected| <= rtol * |expected approx| + atol, for approx and
    # abs_error alike; evals must match exactly.  rtol leaves room for
    # last-ulp changes in sampling and for GL rules that agree with the
    # current ones to 1e-13 in the weights.
    "rtol": 1e-12,
    "atol": 1e-15,
}


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = reproduce.spawn_pass(root, trace=False, env=env)
    records = [
        [job["fn"], job["method"], n, approx, err, evals]
        for job in result["jobs"]
        for n, approx, err, evals in job["records"]
    ]
    if len(records) != reproduce.RECORDS_PER_PASS:
        sys.exit(f"expected {reproduce.RECORDS_PER_PASS} records, got {len(records)}")
    # one record per line: [fn, method, n, approx, abs_error, evals]
    lines = ",\n".join(json.dumps(r) for r in records)
    with open(reproduce.EXPECTED_PATH, "w", encoding="ascii") as handle:
        handle.write(f'{{"n_spec": {json.dumps(reproduce.N_SPEC)},\n')
        handle.write(f'"tolerances": {json.dumps(TOLERANCES)},\n')
        handle.write(f'"records": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
