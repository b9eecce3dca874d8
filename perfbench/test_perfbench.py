"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run the benchmark command on every workload with a short run, so
the whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import families  # noqa: E402
import reproduce  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(workload, trace, seed=3, seconds=0.5, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("make", [families.solve_specs, families.coeffs_specs])
def test_same_seed_gives_same_jobs(make):
    first = families.take(make(11), 60)
    assert first == families.take(make(11), 60)
    assert first != families.take(make(12), 60)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_appears_in_the_output(workload, trace):
    proc = _command(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_reproduce_pass_counts_repeat_exactly():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    passes = [reproduce.spawn_pass(ROOT, trace=True, env=env) for _ in range(2)]
    for result in passes:
        trace = result["trace"]
        assert trace["rules.gl_rule"]["calls"] == 54
        assert len(trace["rules.gl_rule"]["sizes"]) == 9
        assert trace["engine.sample"]["note"] == reproduce.EVALS_PER_PASS
        assert sum(row[3] for job in result["jobs"] for row in job["records"]) == reproduce.EVALS_PER_PASS
        assert sum(len(job["records"]) for job in result["jobs"]) == reproduce.RECORDS_PER_PASS
    counts = [{k: v["calls"] for k, v in r["trace"].items() if isinstance(v, dict)} for r in passes]
    assert counts[0] == counts[1]


def test_dropped_records_count_as_missing_and_failed():
    expected = reproduce.load_expected()
    jobs = {}
    for fn, method, n, approx, err, evals in expected["records"]:
        jobs.setdefault((fn, method), []).append([n, approx, err, evals])
    result = {"jobs": [{"fn": fn, "method": m, "error": None, "records": rows} for (fn, m), rows in jobs.items()]}
    assert reproduce.check_pass(result, expected) == ([], 0, 0)
    result["jobs"][1]["records"] = result["jobs"][1]["records"][:-2]  # F1a/gl loses n = 1024, 2048
    problems, missing, failed = reproduce.check_pass(result, expected)
    assert (missing, failed) == (2, 1)
    assert problems == ["F1a/gl: records missing at n=[1024, 2048]"]


def test_tracer_restores_every_wrapped_function():
    from singquad import accel, bench, engine, rules

    before = (bench.gl_rule, accel.cc_rule_fast, engine._eval_nodes, engine.SampleCache.values_at)
    with Tracer() as tracer:
        assert bench.gl_rule is not before[0]
        bench.gl_rule(4)
    assert (bench.gl_rule, accel.cc_rule_fast, engine._eval_nodes, engine.SampleCache.values_at) == before
    assert rules.gl_rule is before[0]
    assert tracer.summary()["rules.gl_rule"]["calls"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command("solve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
