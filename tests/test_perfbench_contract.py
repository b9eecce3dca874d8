"""The names perfbench calls, run the way perfbench calls them.

perfbench/ (the benchmark harness) drives singquad through module
attributes: its `solve` and `coeffs` jobs build integrands outside the
SingquadError guard of `families.run_checked`, so a renamed or deleted name
ends a benchmark run with a traceback instead of a failed job.  This test
runs the first jobs of three seeds, and one `reproduce` pass, under the
span tracer, and checks that every traced boundary still exists.  It only
reads perfbench/.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    try:
        import families
        import reproduce
        import spans
    finally:
        sys.dont_write_bytecode = written
        sys.path.remove(str(PERFBENCH))
    return families, reproduce, spans


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_solve_and_coeffs_jobs_run_and_pass_their_checks(harness, seed):
    families, _, spans = harness
    from singquad import bench

    problems = []
    with spans.Tracer() as tracer:
        for spec in families.take(families.coeffs_specs(seed), 14):
            f = families.make_integrand(spec)
            outcome, error = families.run_checked(families.coeffs_job, spec, f)
            problems += [error] if error else families.check_coeffs(spec, f, outcome)
        for spec in families.take(families.solve_specs(seed), 12):
            f = families.make_integrand(spec)
            ref = bench.tanh_sinh(f)
            outcome, error = families.run_checked(families.solve_job, f)
            problems += [error] if error else families.check_solve(spec, outcome, ref)
    assert tracer.missing == []
    assert problems == []


def test_a_traced_reproduce_pass_matches_the_committed_table(harness):
    _, reproduce, _ = harness
    result = reproduce.run_pass(trace=True)
    assert result["missing_spans"] == []
    problems, missing, failed = reproduce.check_pass(result, reproduce.load_expected())
    assert (problems, missing, failed) == ([], 0, 0)
    assert set(result["csv"]) == {"F1a", "F1b", "F2a", "F2b", "F3a", "F3b"}
