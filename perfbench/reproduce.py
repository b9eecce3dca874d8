"""The `reproduce` workload: the corpus runs behind `singquad reproduce`.

One pass is what `singquad reproduce --figure 1|2|3` runs: the six corpus
functions, every method in cc,gl,r1,r2, sizes 8..2048 x2.  A job is one
(function, method) series, i.e. one ``bench.run_experiment`` call, so a
pass is 24 jobs, 216 records and 110 562 integrand evaluations.  Every
pass runs in a fresh interpreter, because a CLI user pays every rule
build on every invocation.

Run as a script, this file executes one pass and prints one JSON line:

    PYTHONPATH=src python3 perfbench/reproduce.py [--trace]
"""

from __future__ import annotations

import contextlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected_reproduce.json"

FIGURES = {1: ("F1a", "F1b"), 2: ("F2a", "F2b"), 3: ("F3a", "F3b")}
METHODS = ("cc", "gl", "r1", "r2")
N_SPEC = "8..2048 x2"
N_VALUES = tuple(8 * 2**k for k in range(9))
JOBS = tuple((fn, m) for fig in sorted(FIGURES) for fn in FIGURES[fig] for m in METHODS)
RECORDS_PER_PASS = len(JOBS) * len(N_VALUES)
EVALS_PER_PASS = 110_562
PASS_TIMEOUT_S = 120


def run_pass(trace: bool) -> dict:
    """One pass in this interpreter (which must be fresh); JSON-ready result."""
    from singquad import bench
    from singquad.errors import SingquadError
    from spans import Tracer

    tracer = Tracer() if trace else None
    jobs, records_by_fn = [], {}
    with tracer or contextlib.nullcontext():
        for index, (fn, method) in enumerate(JOBS):
            if tracer is not None:
                tracer.job = index
            cfg = bench.ExperimentConfig(fn=fn, methods=(method,), n_values=N_VALUES)
            error = None
            start = time.perf_counter()
            try:
                records = bench.run_experiment(cfg)
            except SingquadError as exc:
                records, error = [], f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            jobs.append({
                "fn": fn,
                "method": method,
                "ms": 1e3 * elapsed,
                "error": error,
                "records": [[r.n, r.approx, r.abs_error, r.evals] for r in records],
            })
            records_by_fn.setdefault(fn, []).extend(records)
    return {
        "jobs": jobs,
        # the CSV the CLI writes for each function, rendered from this
        # pass's in-process records
        "csv": {fn: bench.render_csv(rows) for fn, rows in records_by_fn.items()},
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
        "missing_spans": tracer.missing if tracer is not None else [],
    }


def spawn_pass(root: Path, trace: bool, env: dict | None = None) -> dict:
    """Run one pass in a child interpreter and return its decoded result."""
    cmd = [sys.executable, str(HERE / "reproduce.py")] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"reproduce pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="ascii") as handle:
        return json.load(handle)


def check_pass(result: dict, expected: dict) -> tuple:
    """(problems, records_missing, failed_jobs) of one pass against the table."""
    tol = expected["tolerances"]
    table = {(fn, m, n): (approx, err, evals) for fn, m, n, approx, err, evals in expected["records"]}
    problems, missing, failed = [], 0, 0
    for job in result["jobs"]:
        got = {row[0]: row for row in job["records"]}
        dropped = [n for n in N_VALUES if n not in got]
        missing += len(dropped)
        if job["error"] or dropped:
            failed += 1
        if job["error"]:
            problems.append(f"{job['fn']}/{job['method']}: {job['error']}")
        if dropped:
            problems.append(f"{job['fn']}/{job['method']}: records missing at n={dropped}")
        for n, approx, err, evals in job["records"]:
            key = (job["fn"], job["method"], n)
            if key not in table:
                problems.append(f"{key}: record not in the expected table")
                continue
            e_approx, e_err, e_evals = table[key]
            scale = tol["rtol"] * abs(e_approx) + tol["atol"]
            if evals != e_evals:
                problems.append(f"{key}: evals {evals}, expected {e_evals}")
            if abs(approx - e_approx) > scale:
                problems.append(f"{key}: approx {approx!r}, expected {e_approx!r}")
            if abs(err - e_err) > scale:
                problems.append(f"{key}: abs_error {err!r}, expected {e_err!r}")
    return problems, missing, failed


def check_cli(root: Path, csv: dict, workdir: Path, env: dict | None = None) -> list:
    """Run `python -m singquad.cli reproduce --figure k` and compare bytes."""
    problems = []
    for figure, fns in sorted(FIGURES.items()):
        out = workdir / f"figure{figure}"
        cmd = [sys.executable, "-m", "singquad.cli", "reproduce", "--figure", str(figure), "--out", str(out)]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            problems.append(f"CLI figure {figure} exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        for fn in fns:
            path = out / f"figure{figure}_{fn}.csv"
            if not path.is_file() or path.read_bytes() != csv[fn].encode("ascii"):
                problems.append(f"CLI output {path.name} differs from the in-process records")
    return problems


if __name__ == "__main__":
    print(json.dumps(run_pass("--trace" in sys.argv[1:])))
