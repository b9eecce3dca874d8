"""Run perfbench's seeded solve or coeffs jobs in process and digest every outcome.

Usage::

    python3 tools/scan_streams.py --workload solve|coeffs --seed N --jobs M [--root DIR]

The first M jobs of the seeded stream run one after another, the way
``perfbench/run.py`` runs them, untimed:

- ``solve``: ``families.make_integrand``, the ``bench.tanh_sinh``
  reference, ``families.run_checked(families.solve_job, f)`` and
  ``families.check_solve``;
- ``coeffs``: ``families.make_integrand``,
  ``families.run_checked(families.coeffs_job, spec, f)`` and
  ``families.check_coeffs``.

Singquad comes from ``DIR/src`` and the job code from ``DIR/perfbench``
(DIR defaults to the checkout holding this script); no bytecode is
written, so nothing under ``perfbench/`` changes.  Every exception is
caught per job, not only SingquadError.  The one output line is JSON: the
workload, the seed, the job count, the failing jobs as [index, reason]
pairs, and a sha1 over the float hex of every outcome (the solve
reference included), so two trees that give the same digest agree bit for
bit on every job.  Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _hex(value) -> str:
    """Exact text of an outcome: floats as float.hex, tuples element by element."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return "(" + ",".join(_hex(v) for v in value) + ")"
    return repr(value)


def _import_harness(root: Path):
    # one BLAS thread, as perfbench pins it, before numpy is imported
    for lib in ("OMP", "OPENBLAS", "MKL", "VECLIB_MAXIMUM"):
        os.environ[f"{lib}_NUM_THREADS"] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import families
    from singquad import bench

    source = Path(bench.__file__).resolve().parent
    if source != (root / "src" / "singquad").resolve():
        raise SystemExit(f"error: imported singquad from {source}, not from {root / 'src'}")
    return families, bench


def _run_job(workload: str, spec, families, bench) -> tuple:
    """(exact outcome text, list of problems) for one job."""
    f = families.make_integrand(spec)
    if workload == "solve":
        ref = bench.tanh_sinh(f)
        outcome, error = families.run_checked(families.solve_job, f)
        problems = [error] if error else families.check_solve(spec, outcome, ref)
        text = _hex(ref)
    else:
        outcome, error = families.run_checked(families.coeffs_job, spec, f)
        problems = [error] if error else families.check_coeffs(spec, f, outcome)
        text = ""
    if outcome is not None:
        text += _hex(dataclasses.astuple(outcome))
    return text, problems


def scan(workload: str, seed: int, jobs: int, root: Path) -> dict:
    families, bench = _import_harness(root)
    stream = families.solve_specs(seed) if workload == "solve" else families.coeffs_specs(seed)
    digest = hashlib.sha1()
    failed = []
    for index in range(jobs):
        spec = next(stream)
        try:
            text, problems = _run_job(workload, spec, families, bench)
        except Exception as exc:  # every failure is reported, not raised
            text, problems = "", [f"{type(exc).__name__}: {exc}"]
        if problems:
            failed.append([index, "; ".join(problems)])
            text += "failed:" + "; ".join(problems)
        digest.update(f"{index}:{text}\n".encode())
    return {
        "workload": workload,
        "seed": seed,
        "jobs": jobs,
        "failed": failed,
        "digest": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("solve", "coeffs"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--root", type=Path, default=HERE)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    result = scan(args.workload, args.seed, args.jobs, args.root.resolve())
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
