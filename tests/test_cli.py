"""Tests for the command-line front end: output shapes and exit codes."""

import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from helpers import cc_rule_direct
from singquad.bench import CSV_HEADER, corpus_reference
from singquad.cli import cli, main
from singquad.errors import NumericError, OracleError, SizeError
from singquad.rules import cc_rule_fast


def _run(capsys, argv):
    code = cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# subcommand output


def test_rule_prints_nodes_and_weights(capsys):
    code, out, _ = _run(capsys, ["rule", "--kind", "cc", "--n", "2"])
    assert code == 0
    assert "kind: cc" in out and "n: 2" in out
    assert "0.333333" in out and "1.3333333333333333" in out


def test_rule_fast_agrees_with_direct(capsys):
    # the printed rule is the memoized DCT rule that integrate uses
    code, out, _ = _run(capsys, ["rule", "--kind", "cc", "--n", "8"])
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("weights:"))
    printed = [float(v) for v in line.partition(":")[2].split(",")]
    assert printed == list(cc_rule_fast(8).weights)
    direct = cc_rule_direct(8).weights
    assert len(printed) == len(direct) == 9
    for a, b in zip(printed, direct):
        assert abs(a - b) <= 1e-14


def test_rule_gl_midpoint(capsys):
    code, out, _ = _run(capsys, ["rule", "--kind", "gl", "--n", "1"])
    assert code == 0
    assert "nodes: 0.0" in out
    assert "weights: 2.0" in out


def test_ladder_line_format(capsys):
    code, out, _ = _run(capsys, ["ladder", "--alpha", "0.75", "--beta", "0.25"])
    assert code == 0
    assert out == "s=0.5; d=[1.5, 2.5, 3.5]\n"
    code, out, _ = _run(
        capsys, ["ladder", "--alpha", "0.5", "--beta", "0", "--count", "2"]
    )
    assert code == 0
    assert out == "s=1.0; d=[2.0, 4.0]\n"


def test_integrate_reports_bookkeeping(capsys):
    code, out, _ = _run(capsys, ["integrate", "--fn", "F1a", "--n", "16"])
    assert code == 0
    assert "fn: F1a" in out and "method: cc" in out
    assert "n: 16" in out and "evals: 17" in out

    code, out, _ = _run(
        capsys, ["integrate", "--fn", "F1a", "--n", "16", "--method", "gl"]
    )
    assert code == 0 and "evals: 16" in out


def test_coeffs_table(capsys):
    code, out, _ = _run(capsys, ["coeffs", "--fn", "F1a", "--n", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,coeff,predicted"
    assert len(lines) == 10  # header plus k = 0..8
    assert lines[1].endswith(",") and lines[2].endswith(",")  # no prediction below k=2
    assert not lines[3].endswith(",")


def test_extrapolate_prints_the_tableau(capsys):
    code, out, _ = _run(
        capsys, ["extrapolate", "--fn", "F1a", "--base-n", "16", "--q", "2"]
    )
    assert code == 0
    assert "base_n: 16" in out and "q: 2" in out
    assert "row 0:" in out and "row 2:" in out
    assert "evals: 65" in out


def test_reproduce_writes_figure_csvs(capsys, tmp_path):
    code, out, _ = _run(
        capsys,
        ["reproduce", "--figure", "1", "--out", str(tmp_path), "--max-n", "64"],
    )
    assert code == 0
    for fn_id in ("F1a", "F1b"):
        path = tmp_path / f"figure1_{fn_id}.csv"
        assert f"wrote {path}" in out
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == CSV_HEADER
        sizes = {line.split(",")[0] for line in lines[1:]}
        assert sizes == {"8", "16", "32", "64"}


@pytest.mark.parametrize("max_n", ["4", "0", "-3"])
def test_reproduce_rejects_max_n_below_8_before_creating_the_directory(
    capsys, tmp_path, max_n
):
    out_dir = tmp_path / "figures"
    code, out, err = _run(
        capsys, ["reproduce", "--figure", "1", "--out", str(out_dir), "--max-n", max_n]
    )
    assert code == 1
    assert out == ""
    assert err == f"error: --max-n must be >= 8, got {max_n}\n"
    assert not out_dir.exists()


def test_readme_command_line_block_runs(capsys, monkeypatch, tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert commands and all(argv[0] == "singquad" for argv in commands)
    monkeypatch.chdir(tmp_path)  # run.csv and csv/ land here
    for argv in commands:
        code, _, err = _run(capsys, argv[1:])
        assert code == 0, (argv, err)


def test_empty_methods_flag_exits_1(capsys):
    code, out, err = _run(capsys, ["experiment", "--fn", "F1a", "--methods", ",", "--n", "16"])
    assert code == 1
    assert out == ""
    assert err == "error: methods must be non-empty\n"


def test_methods_flag_drops_blanks_around_and_between_commas(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr("singquad.bench.run_experiment", lambda cfg: seen.append(cfg) or [])
    assert _run(capsys, ["experiment", "--fn", "F1a", "--methods", " r2 , cc ,"])[0] == 0
    assert [cfg.methods for cfg in seen] == [("r2", "cc")]


def test_an_off_chain_size_gets_its_own_cc_row(capsys):
    code, out, err = _run(
        capsys, ["experiment", "--fn", "F1a", "--methods", "cc,gl", "--n", "16,28"]
    )
    assert code == 0
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("16", "cc"), ("28", "cc"), ("16", "gl"), ("28", "gl")]
    assert rows[1][4] == "29"


def _cc_rule_without_28(monkeypatch):
    def rule(n):
        if n == 28:
            raise SizeError("no rule of size 28")
        return cc_rule_fast(n)

    monkeypatch.setattr("singquad.accel.cc_rule_fast", rule)


def test_dropped_series_warns_on_stderr(capsys, monkeypatch):
    _cc_rule_without_28(monkeypatch)  # gl samples afresh
    code, out, err = _run(
        capsys, ["experiment", "--fn", "F1a", "--methods", "cc,gl", "--n", "16,28"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert [tuple(l.split(",")[:2]) for l in lines[1:]] == [
        ("16", "cc"), ("16", "gl"), ("28", "gl"),
    ]
    assert err.startswith("warning: F1a: method cc stopped at n=28: SizeError: ")


def test_dropped_series_under_warnings_as_errors_is_one_error_line(capsys, monkeypatch):
    # as under python -W error: the warning ends the run, exit code of a SizeError
    _cc_rule_without_28(monkeypatch)
    argv = ["experiment", "--fn", "F1a", "--methods", "cc,gl", "--n", "16,28"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: F1a: method cc stopped at n=28: SizeError: no rule of size 28\n"


def test_dropped_series_under_warnings_as_errors_keeps_the_numeric_exit_code(
    capsys, monkeypatch
):
    def failing_rule(n):
        raise NumericError("no convergence")

    monkeypatch.setattr("singquad.bench.gl_rule", failing_rule)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run(capsys, ["experiment", "--fn", "F1a", "--methods", "gl", "--n", "16"])
    assert code == 2
    assert err == "error: F1a: method gl stopped at n=16: NumericError: no convergence\n"


def test_experiment_out_flag_writes_a_file(capsys, tmp_path):
    path = tmp_path / "records.csv"
    code, out, _ = _run(
        capsys,
        ["experiment", "--fn", "F3a", "--methods", "cc", "--n", "16", "--out", str(path)],
    )
    assert code == 0
    assert f"wrote {path}" in out
    assert path.read_text(encoding="ascii").startswith(CSV_HEADER)


def test_experiment_writes_the_stdout_csv_bytes_to_out(capsys, tmp_path):
    argv = ["experiment", "--fn", "F3a", "--methods", "cc,r1", "--n", "16,32"]
    code, stdout_csv, _ = _run(capsys, argv)
    assert code == 0
    path = tmp_path / "run.csv"
    assert _run(capsys, argv + ["--out", str(path)]) == (0, f"wrote {path}\n", "")
    assert path.read_text(encoding="ascii") == stdout_csv


# ---------------------------------------------------------------------------
# exit codes


def test_usage_problems_exit_1(capsys):
    assert _run(capsys, ["frobnicate"])[0] == 1
    assert _run(capsys, ["rule", "--kind", "cc", "--n", "2", "--bogus"])[0] == 1
    assert _run(capsys, ["rule", "--kind", "cc"])[0] == 1  # missing --n
    # one path per result: no alternative rule builder or integration path
    assert _run(capsys, ["rule", "--kind", "cc", "--n", "8", "--fast"])[0] == 1
    argv = ["integrate", "--fn", "F1a", "--n", "16", "--method", "coeffs"]
    assert _run(capsys, argv)[0] == 1
    # one way to configure an experiment: flags, no config file
    assert _run(capsys, ["experiment", "--fn", "F1a", "--config", "x.cfg"])[0] == 1


def test_configuration_problems_exit_1(capsys, tmp_path):
    code, _, err = _run(capsys, ["integrate", "--fn", "bogus", "--n", "16"])
    assert code == 1 and "error:" in err

    code, _, err = _run(capsys, ["rule", "--kind", "cc", "--n", "0"])
    assert code == 1 and "error:" in err

    # both endpoint exponents integral without the log marker
    code, _, err = _run(capsys, ["ladder", "--alpha", "1", "--beta", "0"])
    assert code == 1 and "error:" in err

    code, _, err = _run(capsys, ["experiment"])
    assert code == 1 and "--fn" in err

    out = tmp_path / "no" / "such" / "dir" / "run.csv"
    code, _, err = _run(capsys, ["experiment", "--fn", "F1a", "--n", "16", "--out", str(out)])
    assert code == 1 and "error:" in err


def test_numeric_failures_exit_2(capsys, monkeypatch):
    def raiser(f, tol=None):
        raise OracleError("tanh-sinh failed to reach tolerance")

    corpus_reference.cache_clear()  # a memoized F1a would skip the oracle
    monkeypatch.setattr("singquad.bench.tanh_sinh", raiser)
    code, _, err = _run(capsys, ["integrate", "--fn", "F1a", "--n", "16"])
    assert code == 2
    assert "numeric failure" in err


def test_help_exits_0(capsys):
    assert _run(capsys, ["--help"])[0] == 0
    assert _run(capsys, ["experiment", "--help"])[0] == 0


def test_main_raises_systemexit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rule", "--kind", "gl", "--n", "1"])
    assert exc.value.code == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# installed entry points


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "singquad.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "singquad" in proc.stdout


def test_reproduce_under_warnings_as_errors_is_silent(tmp_path):
    # the numpy corpus guards log(0) at x = 1; a numpy RuntimeWarning would
    # end this run with an error line
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "singquad.cli", "reproduce", "--figure", "2",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["figure2_F2a.csv", "figure2_F2b.csv"]


def test_console_script():
    exe = shutil.which("singquad")
    assert exe is not None
    proc = subprocess.run(
        [exe, "ladder", "--alpha", "0.75", "--beta", "0.25"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "s=0.5; d=[1.5, 2.5, 3.5]\n"
