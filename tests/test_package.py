"""Tests for the package surface: exports, version, error taxonomy, README."""

import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import singquad
from singquad.errors import (
    ConfigError,
    DomainError,
    InputError,
    InsufficientDataError,
    IntegrandError,
    NumericError,
    OracleError,
    ProfileError,
    SingquadError,
    SizeError,
)


def test_version():
    assert singquad.__version__ == "0.1.0"


def test_top_level_exports_resolve():
    for name in (
        "ChebGrid", "cheb_coeffs", "cheb_eval", "dct1",
        "cc_rule_fast", "gl_rule",
        "integrate",
        "aliasing_error", "SampleCache",
        "SingularityProfile", "classify_s", "exponent_ladder",
        "predict_coeff",
        "richardson", "extrapolate_rows", "fit_rate", "default_noise_floor",
        "tanh_sinh", "corpus", "corpus_function", "corpus_reference", "run_experiment",
    ):
        assert callable(getattr(singquad, name)), name


EXPORTS = [
    "ChebCoeffs", "ChebGrid", "ConfigError",
    "ConvergenceRecord", "DomainError", "ExperimentConfig",
    "ExtrapolationTableau", "InputError", "InsufficientDataError",
    "Integrand", "IntegrandError", "NumericError", "OracleError",
    "ProfileError", "QuadratureResult", "QuadratureRule",
    "RateEstimate", "SampleCache", "SingquadError", "SingularityProfile",
    "SizeError", "aliasing_error",
    "cc_rule_fast", "cheb_coeffs",
    "cheb_eval", "classify_s", "coeff_asymptote", "corpus", "corpus_function",
    "corpus_reference", "dct1",
    "default_noise_floor", "exponent_ladder", "extrapolate_rows",
    "fit_rate", "gl_rule",
    "integrate",
    "predict_coeff", "richardson", "run_experiment", "tanh_sinh",
]


def test_export_surface_is_frozen_and_import_skips_the_cli():
    assert sorted(singquad.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(singquad, name) is not None, name
    # a fresh interpreter: importing the package must not pull in the CLI,
    # the exact rational arithmetic that only the test identities use, nor
    # numpy.polynomial, which only the tests' reference evaluation uses
    probe = (
        "import sys, singquad; print([m in sys.modules for m in ('singquad.cli', 'fractions')],"
        " sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'polynomial']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[False, False] []"


def test_value_style_errors_are_valueerrors():
    for cls in (
        SizeError, InputError, DomainError, ProfileError,
        ConfigError, InsufficientDataError,
    ):
        assert issubclass(cls, SingquadError)
        assert issubclass(cls, ValueError)
        assert not issubclass(cls, RuntimeError)


def test_numeric_errors_are_runtimeerrors():
    for cls in (NumericError, IntegrandError, OracleError):
        assert issubclass(cls, SingquadError)
        assert issubclass(cls, RuntimeError)
    assert issubclass(IntegrandError, NumericError)
    assert issubclass(OracleError, NumericError)


def test_one_except_clause_catches_everything():
    with pytest.raises(SingquadError):
        singquad.cc_rule_fast(0)
    with pytest.raises(SingquadError):
        singquad.tanh_sinh(lambda x: abs(x - 0.1) ** -0.6)


# Every public entry point that takes a size, index, count or depth:
# (documented error, a value below the minimum, call).  A call returns the
# size its result kept, or None where it keeps none, and a value to compare.
_F1A = singquad.corpus_function("F1a")
_EXP = singquad.Integrand(np.exp, vectorized=True)


def _cached_values(n):
    cache = singquad.SampleCache(8)
    cache.ensure(_EXP, 16)
    return cache.values_at(n).tolist()


def _experiment(n):
    return singquad.run_experiment(singquad.ExperimentConfig("F1a", ("cc",), (n, 16)))


SIZE_ENTRY_POINTS = {
    "ChebGrid": (SizeError, 0, lambda n: ((g := singquad.ChebGrid(n)).n, g.angles.tolist())),
    "cc_rule_fast": (SizeError, 0, lambda n: ((r := singquad.cc_rule_fast(n)).n, id(r))),
    "gl_rule": (SizeError, 0, lambda n: ((r := singquad.gl_rule(n)).n, id(r))),
    "SampleCache": (SizeError, 0, lambda n: (singquad.SampleCache(n).base_n, None)),
    "SampleCache.ensure": (SizeError, 0, lambda n: (None, singquad.SampleCache(8).ensure(_EXP, n))),
    "SampleCache.values_at": (SizeError, 0, lambda n: (None, _cached_values(n))),
    "aliasing_error n": (SizeError, 0, lambda n: (None, singquad.aliasing_error(n, 22))),
    "aliasing_error m": (DomainError, -2, lambda m: (None, singquad.aliasing_error(4, m))),
    "exponent_ladder": (
        ConfigError, 0, lambda k: (None, singquad.exponent_ladder(_F1A.profile, k))
    ),
    "predict_coeff": (DomainError, 1, lambda n: (None, singquad.predict_coeff(_F1A.profile, n))),
    "richardson base_n": (
        SizeError, 0, lambda n: ((t := singquad.richardson(_EXP, n, 2, (2.0, 4.0))).base_n, t)
    ),
    "richardson q": (
        ConfigError, -1, lambda q: ((t := singquad.richardson(_EXP, 2, q, range(2, 20, 2))).q, t)
    ),
    "fit_rate": (
        InputError,
        0,
        lambda n: (None, singquad.fit_rate([(n, 1e-3), (16, 2e-4), (32, 3e-5)]).slope),
    ),
    "run_experiment": (ConfigError, 0, lambda n: ((rs := _experiment(n))[0].n, rs)),
}


@pytest.mark.parametrize("name", sorted(SIZE_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "8", "below the minimum"])
def test_a_size_that_is_not_an_integer_at_or_above_the_minimum_raises_the_documented_type(
    name, bad
):
    error, below, call = SIZE_ENTRY_POINTS[name]
    with pytest.raises(error):
        call(below if bad == "below the minimum" else bad)


@pytest.mark.parametrize("name", sorted(SIZE_ENTRY_POINTS))
@pytest.mark.parametrize("same", [8.0, np.int64(8)], ids=["float", "int64"])
def test_an_integral_size_of_another_type_acts_as_the_int(name, same):
    call = SIZE_ENTRY_POINTS[name][2]
    kept, value = call(same)
    assert (kept, value) == call(8)
    assert kept is None or type(kept) is int


def test_an_integral_size_of_another_type_shares_the_rule_memo():
    for build in (singquad.cc_rule_fast, singquad.gl_rule):
        assert build(8.0) is build(8) is build(np.int64(8))


def test_readme_quick_start_runs_as_documented(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    stated = re.search(r"# (\d+) evaluations", code)
    assert stated is not None
    exec(compile(code, str(readme), "exec"), {})
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split()[-1] == stated.group(1) == "65"
