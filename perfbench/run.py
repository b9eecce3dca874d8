"""singquad benchmark: one closed loop per workload, timed end to end and per layer.

    python3 perfbench/run.py --workload reproduce|solve|coeffs --seed N \\
        --seconds S --trace 0|1

Run from any directory of a checkout that holds ``src/singquad``.  The
benchmark runs one job at a time (a closed loop: the next job starts when
the previous one returns), with BLAS pinned to one thread; ``reproduce``
runs each pass in a fresh child interpreter, one at a time.  ``--seed``
generates the inputs; the program receives only them.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the per-layer metrics: it repeats a fixed round of
jobs, once with spans recorded around every call into singquad's public
functions (see spans.py) and once without, and reports per-round values
(medians over rounds) plus the ratio of the two timings.

Every result is checked (see README.md); the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when every check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import reproduce

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("reproduce", "solve", "coeffs")
SETUP_PROBES = 9
MIN_JOBS = 100  # so that at least 10 jobs lie beyond job_ms.p90
MIN_ROUNDS = 2
ROUND_JOBS = {"solve": 48, "coeffs": 14}  # per traced round; reproduce: one pass

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "evals_per_job": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rules.gl_rule.calls": "count",
    "rules.gl_rule.distinct_n": "count",
    "rules.gl_rule.busy_s": "s",
    "rules.cc_rule_fast.calls": "count",
    "rules.cc_rule_fast.distinct_n": "count",
    "rules.cc_rule_fast.busy_s": "s",
    "rules.build_reuse_ratio": "ratio",
    "engine.evals": "count",
    "engine.sample_s": "s",
    "engine.evals_per_s": "1/s",
    "engine.cache_reuse_ratio": "ratio",
    "engine.integrate.self_s": "s",
    "transform.dct1.calls": "count",
    "transform.dct1.busy_s": "s",
    "transform.cheb_coeffs.busy_s": "s",
    "transform.cheb_eval.calls": "count",
    "transform.cheb_eval.points": "count",
    "transform.cheb_eval.busy_s": "s",
    "singular.exponent_ladder.busy_s": "s",
    "singular.predict_coeff.calls": "count",
    "singular.predict_coeff.busy_s": "s",
    "accel.richardson.calls": "count",
    "accel.richardson.self_s": "s",
    "accel.doublings_per_job": "count",
    "accel.fit_rate.calls": "count",
    "accel.fit_rate.busy_s": "s",
    "bench.tanh_sinh.calls": "count",
    "bench.tanh_sinh.busy_s": "s",
    "bench.tanh_sinh.evals": "count",
    "bench.run_experiment.self_s": "s",
    "bench.records_missing": "count",
    "trace.overhead_ratio": "ratio",
    "run.jobs_attempted": "count",
    "run.failed_ratio": "ratio",
}

# per-layer counts that must repeat exactly from one round to the next
COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit == "count")

SHARED_MACHINE_NOTE = (
    "timings come from a shared machine that is not isolated: other tenants' load "
    "moves them, which is why every timing is a median over many jobs or probes"
)


class Tally:
    """Jobs attempted and failed, output-check problems, and job timings."""

    def __init__(self):
        self.job_s: list = []
        self.evals = 0
        self.failed = 0
        self.records_missing = 0
        self.problems: list = []

    @property
    def jobs(self) -> int:
        return len(self.job_s)

    def add(self, seconds: float, evals: int, problems: list, failed: bool) -> None:
        self.job_s.append(seconds)
        self.evals += evals
        self.failed += bool(failed)
        self.problems.extend(problems)

    def extend(self, other: "Tally") -> None:
        self.job_s.extend(other.job_s)
        self.evals += other.evals
        self.failed += other.failed
        self.records_missing += other.records_missing
        self.problems.extend(other.problems)


@dataclass
class Round:
    """One traced execution of the round's jobs, and its untraced twin."""

    summary: dict
    traced: Tally
    overhead: float
    missing_spans: list


def pin_environment() -> None:
    """Settings every process of a run shares; call before numpy is imported."""
    # one BLAS thread: the machine has two cores and the loop runs one job at a time
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    # the reference oracle runs at its documented default tolerance
    os.environ.pop("SINGQUAD_ORACLE_TOL", None)
    os.environ["PYTHONPATH"] = str(SRC)


def measure_setup() -> list:
    """Interpreter start plus `import singquad`, SETUP_PROBES times."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import singquad"], cwd=ROOT,
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# reproduce: one pass per fresh interpreter


def _pass_tally(result: dict, expected: dict) -> Tally:
    tally = Tally()
    tally.problems, tally.records_missing, tally.failed = reproduce.check_pass(result, expected)
    for job in result["jobs"]:
        tally.job_s.append(job["ms"] / 1e3)
        tally.evals += sum(row[3] for row in job["records"])
    return tally


def _check_reproduce_cli(tally: Tally, first: dict) -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-cli-", dir=ROOT) as workdir:
        tally.problems.extend(reproduce.check_cli(ROOT, first["csv"], Path(workdir)))


def run_reproduce(seconds: float) -> tuple:
    expected = reproduce.load_expected()
    tally, rss_kb, first = Tally(), 0, None
    deadline = time.perf_counter() + seconds
    while tally.jobs < MIN_JOBS or time.perf_counter() < deadline:
        result = reproduce.spawn_pass(ROOT, trace=False)
        first = first or result
        rss_kb = max(rss_kb, result["rss_kb"])
        tally.extend(_pass_tally(result, expected))
    _check_reproduce_cli(tally, first)
    return tally, rss_kb, {"passes": tally.jobs // len(reproduce.JOBS)}


def trace_reproduce(seconds: float) -> tuple:
    expected = reproduce.load_expected()
    tally, rounds, first = Tally(), [], None
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        runs = {}
        for traced in ((True, False) if len(rounds) % 2 == 0 else (False, True)):
            result = reproduce.spawn_pass(ROOT, trace=traced)
            first = first or result
            runs[traced] = (result, _pass_tally(result, expected))
            tally.extend(runs[traced][1])
        (result, part), (_, plain) = runs[True], runs[False]
        rounds.append(Round(result["trace"], part, sum(part.job_s) / sum(plain.job_s), result["missing_spans"]))
    _check_reproduce_cli(tally, first)
    return tally, rounds


# ---------------------------------------------------------------------------
# solve and coeffs: in-process jobs on seeded integrand families


def _prepare(workload: str, spec):
    import families
    from singquad import bench

    f = families.make_integrand(spec)
    ref = bench.tanh_sinh(f) if workload == "solve" else None  # untimed
    return spec, f, ref


def _execute(workload: str, prepared) -> tuple:
    """Run one prepared job; (seconds, evals, problems, failed)."""
    import families

    spec, f, ref = prepared
    start = time.perf_counter()
    if workload == "solve":
        outcome, error = families.run_checked(families.solve_job, f)
    else:
        outcome, error = families.run_checked(families.coeffs_job, spec, f)
    elapsed = time.perf_counter() - start
    if error is not None:
        return elapsed, 0, [f"job {spec.index}: {error}"], True
    if workload == "solve":
        problems = families.check_solve(spec, outcome, ref)
    else:
        problems = families.check_coeffs(spec, f, outcome)
    return elapsed, outcome.evals, [f"job {spec.index}: {p}" for p in problems], bool(problems)


def _stream(workload: str, seed: int):
    import families

    return families.solve_specs(seed) if workload == "solve" else families.coeffs_specs(seed)


def run_inprocess(workload: str, seed: int, seconds: float) -> tuple:
    stream = _stream(workload, seed)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while tally.jobs < MIN_JOBS or time.perf_counter() < deadline:
        tally.add(*_execute(workload, _prepare(workload, next(stream))))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return tally, rss_kb, {}


def trace_inprocess(workload: str, seed: int, seconds: float) -> tuple:
    import families
    from spans import Tracer

    batch = [_prepare(workload, spec) for spec in families.take(_stream(workload, seed), ROUND_JOBS[workload])]
    tally, rounds = Tally(), []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        runs = {}
        for traced in ((True, False) if len(rounds) % 2 == 0 else (False, True)):
            part = Tally()
            tracer = Tracer() if traced else None
            with tracer or contextlib.nullcontext():
                for index, prepared in enumerate(batch):
                    if tracer is not None:
                        tracer.job = index
                    part.add(*_execute(workload, prepared))
            runs[traced] = (tracer, part)
            tally.extend(part)
        (tracer, part), (_, plain) = runs[True], runs[False]
        rounds.append(Round(tracer.summary(), part, sum(part.job_s) / sum(plain.job_s), tracer.missing))
    return tally, rounds


# ---------------------------------------------------------------------------
# metrics


_EMPTY = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "note": 0, "sizes": []}


def layer_metrics(r: Round) -> dict:
    """Per-layer metrics of one traced round."""
    summary, jobs = r.summary, r.traced.jobs

    def span(name):
        return summary.get(name, _EMPTY)

    gl, cc, sample = span("rules.gl_rule"), span("rules.cc_rule_fast"), span("engine.sample")
    builds = gl["calls"] + cc["calls"]
    reads = span("engine.values_at")["note"] + span("engine.integrate")["note"]
    return {
        "rules.gl_rule.calls": gl["calls"],
        "rules.gl_rule.distinct_n": len(gl["sizes"]),
        "rules.gl_rule.busy_s": gl["busy_s"],
        "rules.cc_rule_fast.calls": cc["calls"],
        "rules.cc_rule_fast.distinct_n": len(cc["sizes"]),
        "rules.cc_rule_fast.busy_s": cc["busy_s"],
        "rules.build_reuse_ratio": (len(gl["sizes"]) + len(cc["sizes"])) / builds if builds else 0.0,
        "engine.evals": r.traced.evals,
        "engine.sample_s": sample["busy_s"],
        "engine.evals_per_s": sample["note"] / sample["busy_s"] if sample["busy_s"] else 0.0,
        "engine.cache_reuse_ratio": max(reads - sample["note"], 0) / reads if reads else 0.0,
        "engine.integrate.self_s": span("engine.integrate")["self_s"],
        "transform.dct1.calls": span("transform.dct1")["calls"],
        "transform.dct1.busy_s": span("transform.dct1")["busy_s"],
        "transform.cheb_coeffs.busy_s": span("transform.cheb_coeffs")["busy_s"],
        "transform.cheb_eval.calls": span("transform.cheb_eval")["calls"],
        "transform.cheb_eval.points": span("transform.cheb_eval")["note"],
        "transform.cheb_eval.busy_s": span("transform.cheb_eval")["busy_s"],
        "singular.exponent_ladder.busy_s": span("singular.exponent_ladder")["busy_s"],
        "singular.predict_coeff.calls": span("singular.predict_coeff")["calls"],
        "singular.predict_coeff.busy_s": span("singular.predict_coeff")["busy_s"],
        "accel.richardson.calls": span("accel.richardson")["calls"],
        "accel.richardson.self_s": span("accel.richardson")["self_s"],
        "accel.doublings_per_job": summary.get("accel.doublings", 0) / jobs,
        "accel.fit_rate.calls": span("accel.fit_rate")["calls"],
        "accel.fit_rate.busy_s": span("accel.fit_rate")["busy_s"],
        "bench.tanh_sinh.calls": span("bench.tanh_sinh")["calls"],
        "bench.tanh_sinh.busy_s": span("bench.tanh_sinh")["busy_s"],
        "bench.tanh_sinh.evals": span("bench.tanh_sinh")["note"],
        "bench.run_experiment.self_s": span("bench.run_experiment")["self_s"],
        "bench.records_missing": r.traced.records_missing,
        "trace.overhead_ratio": r.overhead,
        "run.jobs_attempted": jobs,
        "run.failed_ratio": r.traced.failed / jobs,
    }


def end_to_end_metrics(tally: Tally, setup: list, rss_kb: int) -> dict:
    ms = [1e3 * s for s in tally.job_s]
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": tally.jobs / sum(tally.job_s),
        "job_ms.p50": statistics.median(ms),
        "job_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "evals_per_job": tally.evals / tally.jobs,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _span_totals(rounds: list) -> dict:
    totals: dict = {}
    for r in rounds:
        for name, s in r.summary.items():
            if isinstance(s, dict):
                t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                for key in t:
                    t[key] += s[key]
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "singquad" / "__init__.py").is_file():
        print(f"error: no singquad sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    import singquad

    if Path(singquad.__file__).resolve().parent != (SRC / "singquad").resolve():
        print(f"error: imported singquad from {singquad.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    setup = measure_setup()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "machine": "shared, not isolated",
        "loop": "closed, one job at a time, one thread, BLAS pinned to 1 thread",
        "setup_probes_s": setup,
    }
    if args.workload == "reproduce":
        context["inputs"] = "the fixed six-function corpus; the seed does not change it"

    if args.trace:
        if args.workload == "reproduce":
            tally, rounds = trace_reproduce(args.seconds)
        else:
            tally, rounds = trace_inprocess(args.workload, args.seed, args.seconds)
        per_round = [layer_metrics(r) for r in rounds]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in PER_LAYER}
        context["rounds"] = len(rounds)
        context["round"] = "one reproduce pass" if args.workload == "reproduce" else (
            f"the first {ROUND_JOBS[args.workload]} jobs of the seeded stream")
        context["counts_that_did_not_repeat"] = [k for k in COUNTS if len({m[k] for m in per_round}) > 1]
        context["span_totals"] = _span_totals(rounds)
        context["span_evals_match"] = all(
            r.summary.get("engine.sample", _EMPTY)["note"] == r.traced.evals for r in rounds)
        context["missing_spans"] = rounds[0].missing_spans
        units = PER_LAYER
    else:
        if args.workload == "reproduce":
            tally, rss_kb, extra = run_reproduce(args.seconds)
        else:
            tally, rss_kb, extra = run_inprocess(args.workload, args.seed, args.seconds)
        context.update(extra)
        metrics = end_to_end_metrics(tally, setup, rss_kb)
        units = END_TO_END
    context["jobs_attempted"] = tally.jobs
    context["jobs_failed"] = tally.failed
    context["failed_ratio"] = tally.failed / tally.jobs
    context["records_missing"] = tally.records_missing
    correct = not tally.problems

    print(f"singquad benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"note: {SHARED_MACHINE_NOTE}")
    if args.trace:
        print("note: singular.exponent_ladder.busy_s is expected to be negligible on every workload")
    print("context: " + json.dumps(context, sort_keys=True))
    for problem in tally.problems[:50]:
        print(f"check failed: {problem}")
    if len(tally.problems) > 50:
        print(f"check failed: ... {len(tally.problems) - 50} more")
    print(f"jobs: {tally.jobs} attempted, {tally.failed} failed, "
          f"failed_ratio {tally.failed / tally.jobs:.6g} (base: {tally.jobs} jobs attempted)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": tally.jobs,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
