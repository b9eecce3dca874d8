"""Run perfbench once in a checkout and append what it printed to BENCH_<label>.json.

Usage::

    python3 tools/bench_record.py --label LABEL [--checkout DIR] -- \\
        --workload solve --seed 1 --seconds 30 [--trace 1]

Everything after ``--`` goes to ``python3 perfbench/run.py`` unchanged,
run with DIR (default: the checkout holding this script) as its working
directory.  Each call appends one entry to ``BENCH_<LABEL>.json`` at the
root of the checkout holding this script:

- ``revision``: DIR's ``git rev-parse HEAD``, and ``dirty``: whether its
  tracked files differ from that commit;
- ``command`` and ``exit_code``;
- ``context``: the JSON of perfbench's ``context:`` line;
- ``result``: the JSON of its last output line (``correct``, ``attempted``,
  ``failed`` and every metric);
- ``stderr_tail``: the last lines of stderr, when the exit code is not 0.

The recorder times nothing: every number in the file is perfbench's own.
To compare two commits, run it on a checkout of each, alternating which
side runs first.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
CONTEXT_PREFIX = "context: "


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.strip()


def _parse_output(stdout: str) -> tuple:
    """The ``context:`` JSON and the last line's JSON, each None when absent."""
    lines = stdout.splitlines()
    context = next(
        (json.loads(s[len(CONTEXT_PREFIX):]) for s in lines if s.startswith(CONTEXT_PREFIX)), None
    )
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return context, result


def record(label: str, checkout: Path, bench_args: list) -> dict:
    command = ["python3", "perfbench/run.py", *bench_args]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    context, result = _parse_output(proc.stdout)
    entry = {
        "revision": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "command": command,
        "exit_code": proc.returncode,
        "context": context,
        "result": result,
    }
    if proc.returncode:
        entry["stderr_tail"] = proc.stderr.splitlines()[-20:]
    path = HERE / f"BENCH_{label}.json"
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(entry)
    path.write_text(json.dumps({"label": label, "runs": runs}, indent=1) + "\n")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", type=Path, default=HERE)
    parser.add_argument("bench_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    bench_args = args.bench_args[1:] if args.bench_args[:1] == ["--"] else args.bench_args
    if not bench_args:
        parser.error("give perfbench's arguments after --")
    entry = record(args.label, args.checkout.resolve(), bench_args)
    result = entry["result"] or {}
    print(
        f"{entry['revision'][:12]} {' '.join(bench_args)}: exit {entry['exit_code']}, "
        f"correct {result.get('correct')}, failed {result.get('failed')}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
