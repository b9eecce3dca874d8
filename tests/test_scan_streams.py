"""tools/scan_streams.py: seeded perfbench jobs, run in process and digested."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "scan_streams.py"


def _scan(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", workload, "--seed", "1", "--jobs", "20"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("workload", ["solve", "coeffs"])
def test_twenty_jobs_pass_and_digest_the_same_on_two_runs(workload):
    first, second = _scan(workload), _scan(workload)
    assert first["jobs"] == 20 and first["failed"] == []
    assert len(first["digest"]) == 40
    assert first == second
