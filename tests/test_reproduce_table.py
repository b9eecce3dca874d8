"""The paper's figures, record by record, against the committed benchmark table.

perfbench/expected_reproduce.json holds every record of the 24 jobs behind
`singquad reproduce --figure 1|2|3` (six functions, four methods, sizes
8..2048), with the tolerances it is checked at.  This test only reads it.
"""

import json
from pathlib import Path

from singquad.bench import ExperimentConfig, run_experiment
from singquad.cli import parse_n_spec

TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "expected_reproduce.json"


def test_reproduce_records_match_the_committed_table():
    expected = json.loads(TABLE.read_text(encoding="ascii"))
    rtol, atol = expected["tolerances"]["rtol"], expected["tolerances"]["atol"]
    table = {(fn, m, n): (approx, err, evals) for fn, m, n, approx, err, evals in expected["records"]}
    jobs = dict.fromkeys((fn, m) for fn, m, _ in table)
    assert len(jobs) == 24
    n_values = parse_n_spec(expected["n_spec"])
    got = {}
    for fn, method in jobs:
        cfg = ExperimentConfig(fn=fn, methods=(method,), n_values=n_values)
        for r in run_experiment(cfg):
            got[(fn, method, r.n)] = (r.approx, r.abs_error, r.evals)
    assert got.keys() == table.keys()
    for key, (approx, err, evals) in got.items():
        e_approx, e_err, e_evals = table[key]
        scale = rtol * abs(e_approx) + atol
        assert evals == e_evals, key
        assert abs(approx - e_approx) <= scale, (key, approx, e_approx)
        assert abs(err - e_err) <= scale, (key, err, e_err)
