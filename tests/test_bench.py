"""Tests for the reference oracle, the benchmark corpus, and experiment runs."""

import math
import sys
import warnings

import numpy as np
import pytest

from helpers import CORPUS_MATH, tanh_sinh_abscissae
from singquad import bench
from singquad.bench import (
    CSV_HEADER,
    METHOD_ORDER,
    ConvergenceRecord,
    CorpusFunction,
    ExperimentConfig,
    corpus,
    corpus_function,
    parse_config_text,
    parse_n_spec,
    render_csv,
    run_experiment,
    tanh_sinh,
    write_csv,
)
from singquad.cli import cli
from singquad.engine import Integrand
from singquad.errors import ConfigError, IntegrandError, OracleError
from singquad.transform import ChebGrid


# ---------------------------------------------------------------------------
# tanh_sinh oracle


def test_oracle_matches_closed_forms():
    cases = [
        (lambda x: math.sqrt(1.0 - x), 4.0 * math.sqrt(2.0) / 3.0),
        (lambda x: math.log(1.0 - x), 2.0 * math.log(2.0) - 2.0),
        (
            lambda x: (1.0 - x) ** 0.75 * (1.0 + x) ** 0.25,
            4.0
            * math.exp(
                math.lgamma(1.75) + math.lgamma(1.25) - math.lgamma(3.0)
            ),
        ),
        (math.exp, math.e - 1.0 / math.e),
    ]
    for f, exact in cases:
        assert abs(tanh_sinh(f, 1e-12) - exact) <= 1e-12


def test_oracle_tolerance_validation():
    with pytest.raises(ConfigError):
        tanh_sinh(math.exp, 1e-15)


def test_oracle_reads_env_tolerance_at_call_time(monkeypatch):
    monkeypatch.setenv("SINGQUAD_ORACLE_TOL", "1e-15")
    with pytest.raises(ConfigError):
        tanh_sinh(math.exp)
    monkeypatch.setenv("SINGQUAD_ORACLE_TOL", "1e-10")
    assert abs(tanh_sinh(math.exp) - (math.e - 1.0 / math.e)) <= 1e-9


@pytest.mark.parametrize("text", ["abc", "nan", "inf"])
def test_oracle_rejects_malformed_env_tolerance(monkeypatch, text):
    monkeypatch.setenv("SINGQUAD_ORACLE_TOL", text)
    with pytest.raises(ConfigError):
        tanh_sinh(math.exp)


def test_malformed_env_tolerance_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("SINGQUAD_ORACLE_TOL", "abc")
    # F1a takes its reference from the oracle
    assert cli(["integrate", "--fn", "F1a", "--n", "16"]) == 1
    assert "SINGQUAD_ORACLE_TOL" in capsys.readouterr().err


def test_oracle_raises_on_non_convergence():
    # an interior algebraic singularity defeats endpoint-clustered nodes
    with pytest.raises(OracleError):
        tanh_sinh(lambda x: abs(x - 0.1) ** -0.6, 1e-12)


def test_oracle_raises_on_the_first_non_finite_value():
    nodes = []

    def f(x):
        nodes.append(x)
        return math.nan if x > 0.5 else 1.0

    with pytest.raises(IntegrandError) as caught:
        tanh_sinh(f, 1e-12)
    bad = [x for x in nodes if x > 0.5]
    assert bad == [caught.value.node]
    assert str(caught.value.node) in str(caught.value)


def test_oracle_samples_one_batch_per_level():
    calls = []

    def square(x):
        calls.append(x.size)
        return x * x

    value = tanh_sinh(Integrand(square, vectorized=True), 1e-12)
    assert value == tanh_sinh(lambda x: x * x, 1e-12)
    assert abs(value - 2.0 / 3.0) <= 1e-14
    assert len(calls) >= 2 and calls[0] == tanh_sinh_abscissae(0).size
    assert sum(calls) == tanh_sinh_abscissae(len(calls) - 1).size


def test_quadrature_samples_alone_pass_through_eval_nodes(monkeypatch):
    # perfbench counts the samples taken through engine._eval_nodes, in
    # every singquad namespace that holds it, and equates them with the
    # records' evals; the oracle's samples are counted apart from them.
    from singquad import engine

    original, sizes = engine._eval_nodes, []

    def counting(f, xs):
        out = original(f, xs)
        sizes.append(out.size)
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("singquad"):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    records = run_experiment(ExperimentConfig(fn="F2a", n_values=(8, 16, 32)))
    assert len(records) == 12
    assert sum(sizes) == sum(r.evals for r in records)


def test_oracle_self_consistency_across_tolerances():
    for fn in corpus():
        tight = tanh_sinh(fn.integrand, 1e-12)
        loose = tanh_sinh(fn.integrand, 1e-10)
        assert abs(tight - loose) <= 1e-9, fn.id


# ---------------------------------------------------------------------------
# corpus definitions


# mpmath 1.3.0 quad at 60 digits, each confirmed by a second quadrature
# (another split, or a substitution that removes the endpoint singularity;
# F1a also by e * gammainc(3/2, 0, 2)), rounded to 20 digits
FROZEN_REFERENCES = {
    "F1a": 1.7791436546919097926,
    "F1b": 1.5972439441278493304,
    "F2a": 0.58531178916835970864,
    "F2b": 0.29540432371163976299,
    "F3a": 2.3962804694711844149,
    "F3b": 2.8275143349194304644,
}


def test_corpus_ids_and_reference_kinds():
    ids = [fn.id for fn in corpus()]
    assert ids == ["F1a", "F1b", "F2a", "F2b", "F3a", "F3b"]
    for fn in corpus():
        expected = FROZEN_REFERENCES[fn.id]
        assert abs(fn.reference_value() - expected) <= 1e-15 * expected, fn.id
    assert corpus_function("F2b") is corpus()[3]


def test_unknown_corpus_id_is_rejected():
    with pytest.raises(ConfigError):
        corpus_function("nope")


def test_corpus_profiles_match_the_integrands():
    p = corpus_function("F1a").integrand.profile
    assert (p.alpha, p.beta, p.log_left) == (0.5, 0.0, False)
    assert p.g_at_1 == math.e and p.g_at_minus1 == 1.0 / math.e
    assert p.g_prime_at_1 == math.e and p.g_prime_at_minus1 == 1.0 / math.e

    p = corpus_function("F2b").integrand.profile
    assert (p.alpha, p.beta, p.log_left) == (1.0, 0.5, True)

    p = corpus_function("F3a").integrand.profile
    slope = math.sqrt(2.0) * (1.0 / 3.0 - 0.5)
    assert (p.alpha, p.beta) == (0.5, 0.5)
    assert p.g_at_1 == math.sqrt(2.0) and p.g_at_minus1 == math.sqrt(2.0)
    assert p.g_prime_at_1 == slope and p.g_prime_at_minus1 == -slope

    p = corpus_function("F3b").integrand.profile
    assert p.g_at_1 == math.sqrt(6.0)
    assert p.g_prime_at_1 == pytest.approx(math.sqrt(6.0) / 2.0, rel=1e-15)


def test_corpus_pointwise_values():
    assert corpus_function("F1a").integrand(0.0) == 1.0
    assert corpus_function("F3a").integrand(0.5) == math.acos(0.25)
    # the s*log(s) factor extends continuously by zero at the right endpoint
    assert corpus_function("F2a").integrand(1.0) == 0.0
    assert corpus_function("F2b").integrand(1.0) == 0.0
    assert math.isfinite(corpus_function("F2a").integrand(1.0 - 1e-12))


@pytest.mark.parametrize("fn_id", list(CORPUS_MATH))
def test_numpy_corpus_agrees_with_the_math_forms_within_4_ulp(fn_id):
    f = corpus_function(fn_id).integrand
    assert f.vectorized
    for xs in (ChebGrid(4096).nodes, tanh_sinh_abscissae(12)):
        got = f.eval(xs)
        want = np.array([CORPUS_MATH[fn_id](x) for x in xs.tolist()])
        assert got.shape == xs.shape
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        assert np.max(ulps) <= 4.0, (fn_id, xs.size, float(np.max(ulps)))


def test_corpus_endpoint_values_are_exact_and_raise_no_warning():
    ends = np.array([-1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn_id, reference in CORPUS_MATH.items():
            f = corpus_function(fn_id).integrand
            want = [reference(-1.0).hex(), reference(1.0).hex()]
            assert [float(v).hex() for v in f.eval(ends)] == want, fn_id
            assert [f(-1.0).hex(), f(1.0).hex()] == want, fn_id


def test_stored_closed_forms_match_frozen_references():
    """B(3/4, 1/2) and B(7/12, 1/2) from mpmath.beta at 40 digits, rounded to 20."""
    frozen = {"F3a": 2.3962804694711844149, "F3b": 2.8275143349194304644}
    for fid, value in frozen.items():
        assert abs(corpus_function(fid).closed_form - value) <= 3e-16 * value, fid


def test_stored_closed_forms_agree_with_the_oracle():
    for fid in ("F3a", "F3b"):
        fn = corpus_function(fid)
        assert fn.closed_form is not None
        assert abs(fn.closed_form - tanh_sinh(fn.integrand, 1e-12)) <= 1e-12


# ---------------------------------------------------------------------------
# experiment configs


def test_experiment_config_defaults():
    cfg = ExperimentConfig(fn="F1a")
    assert cfg.methods == METHOD_ORDER
    assert cfg.n_values == (16, 32, 64, 128, 256, 512, 1024, 2048)
    assert cfg.out is None


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(fn="F1a", methods=("cc", "simpson"))
    with pytest.raises(ConfigError):
        ExperimentConfig(fn="F1a", methods=("cc", "cc"))
    with pytest.raises(ConfigError):
        ExperimentConfig(fn="F1a", n_values=())
    with pytest.raises(ConfigError):
        ExperimentConfig(fn="F1a", n_values=(16, 31))
    with pytest.raises(ConfigError):
        ExperimentConfig(fn="F1a", n_values=(32, 16))


def test_run_experiment_is_deterministic():
    cfg = ExperimentConfig(fn="F1a", methods=("cc", "r1"), n_values=(16, 32, 64))
    first = render_csv(run_experiment(cfg))
    second = render_csv(run_experiment(cfg))
    assert first == second


def test_records_come_out_in_canonical_order():
    cfg = ExperimentConfig(fn="F1b", methods=("r1", "gl", "cc"), n_values=(16, 32))
    records = run_experiment(cfg)
    assert [(r.method, r.n) for r in records] == [
        ("cc", 16), ("cc", 32), ("gl", 16), ("gl", 32), ("r1", 16), ("r1", 32),
    ]
    for r in records:
        assert r.fn == "F1b"
        assert r.abs_error == abs(
            r.approx - corpus_function("F1b").reference_value()
        )


def test_failing_series_warns_and_keeps_the_other_methods(monkeypatch):
    # F1a, but NaN at one node that only the cc grid of size 28 holds
    f1a = corpus_function("F1a")
    bad = float(ChebGrid(28).nodes[1])
    spoiled = Integrand(
        lambda x: np.where(x == bad, np.nan, f1a.integrand.eval(x)),
        f1a.integrand.profile,
        vectorized=True,
    )
    monkeypatch.setitem(bench._BY_ID, "F1a", CorpusFunction("F1a", spoiled))
    cfg = ExperimentConfig(fn="F1a", methods=("cc", "gl"), n_values=(16, 28))
    with pytest.warns(RuntimeWarning) as caught:
        records = run_experiment(cfg)
    assert [(r.method, r.n) for r in records] == [("cc", 16), ("gl", 16), ("gl", 28)]
    assert len(caught) == 1
    message = str(caught[0].message)
    cause = f"non-finite value nan at node {bad!r}"
    for part in ("F1a", "cc", "n=28", "IntegrandError", cause):
        assert part in message, part


@pytest.mark.parametrize(
    "n_values, expected",
    [
        # 28 starts each chain afresh at full cost; 56 then extends it
        ((16, 28, 56), [
            ("cc", 16, 17), ("cc", 28, 29), ("cc", 56, 28),
            ("r1", 16, 33), ("r1", 28, 57), ("r1", 56, 56),
            ("r2", 16, 65), ("r2", 28, 113), ("r2", 56, 112),
        ]),
        # 12 starts a second chain; 16 goes back to the first one
        ((8, 12, 16), [
            ("cc", 8, 9), ("cc", 12, 13), ("cc", 16, 8),
            ("r1", 8, 17), ("r1", 12, 25), ("r1", 16, 16),
            ("r2", 8, 33), ("r2", 12, 49), ("r2", 16, 32),
        ]),
    ],
)
def test_a_size_off_the_doubling_chain_starts_a_fresh_cache(n_values, expected):
    cfg = ExperimentConfig(fn="F1a", methods=("cc", "r1", "r2"), n_values=n_values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_experiment(cfg)
    assert [(r.method, r.n, r.evals) for r in records] == expected


def test_shared_cache_eval_accounting():
    cfg = ExperimentConfig(fn="F1a", methods=("cc",), n_values=(16, 32, 64, 128))
    records = run_experiment(cfg)
    assert [r.evals for r in records] == [17, 16, 32, 64]
    assert sum(r.evals for r in records) == 129  # max size + 1 in total

    cfg = ExperimentConfig(fn="F1a", methods=("r2",), n_values=(16, 32, 64, 128))
    records = run_experiment(cfg)
    assert records[0].evals == 65  # 4 * 16 + 1 for the first tableau
    assert sum(r.evals for r in records) == 513  # 4 * 128 + 1 in total

    cfg = ExperimentConfig(fn="F1a", methods=("gl",), n_values=(16, 32))
    assert [r.evals for r in run_experiment(cfg)] == [16, 32]


def test_empty_method_list_is_rejected():
    with pytest.raises(ConfigError, match="methods must be non-empty"):
        ExperimentConfig(fn="F1a", methods=(), n_values=(16,))
    assert render_csv([]) == CSV_HEADER + "\n"


def test_run_experiment_writes_csv_when_asked(tmp_path):
    path = tmp_path / "out.csv"
    cfg = ExperimentConfig(fn="F3a", methods=("cc",), n_values=(16, 32), out=str(path))
    records = run_experiment(cfg)
    assert path.read_text(encoding="ascii") == render_csv(records)


# ---------------------------------------------------------------------------
# CSV rendering


def test_csv_round_trips_floats_exactly():
    records = [ConvergenceRecord("F1a", "cc", 16, 1.0 / 3.0, 2.5e-17, 17)]
    text = render_csv(records)
    lines = text.splitlines()
    assert lines[0] == "n,method,approx,abs_error,evals"
    n, method, approx, abs_error, evals = lines[1].split(",")
    assert (n, method, evals) == ("16", "cc", "17")
    assert float(approx) == 1.0 / 3.0
    assert float(abs_error) == 2.5e-17


def test_write_csv(tmp_path):
    records = [ConvergenceRecord("F1a", "gl", 8, 2.0, 0.0, 8)]
    path = tmp_path / "records.csv"
    write_csv(records, str(path))
    assert path.read_text(encoding="ascii") == render_csv(records)


# ---------------------------------------------------------------------------
# config text parsing


def test_parse_n_spec_forms():
    assert parse_n_spec("16..2048 x2") == (16, 32, 64, 128, 256, 512, 1024, 2048)
    assert parse_n_spec("8..72 x3") == (8, 24, 72)
    assert parse_n_spec("8,12,16") == (8, 12, 16)
    assert parse_n_spec(" 64 ") == (64,)


def test_parse_n_spec_rejects_malformed_text():
    for bad in ("", "16..32", "16..8 x2", "16..32 x1", "16..32 xq", "a,b", "0..8 x2"):
        with pytest.raises(ConfigError):
            parse_n_spec(bad)


def test_parse_config_text():
    text = """
    # convergence run
    fn = F2a
    methods = cc, r2
    n = 16..128 x2
    out = run.csv
    """
    parsed = parse_config_text(text)
    assert parsed == {
        "fn": "F2a",
        "methods": ("cc", "r2"),
        "n_values": (16, 32, 64, 128),
        "out": "run.csv",
    }
    assert ExperimentConfig(**parsed).fn == "F2a"


def test_parse_config_text_rejects_bad_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("tolerance = 1e-10")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("fn = F1a\njust words\n")
