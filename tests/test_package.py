"""Tests for the package surface: exports, version, error taxonomy, README."""

import re
import subprocess
import sys
from pathlib import Path

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
        "tanh_sinh", "corpus", "corpus_function", "run_experiment",
    ):
        assert callable(getattr(singquad, name)), name


EXPORTS = [
    "ChebCoeffs", "ChebGrid", "ConfigError",
    "ConvergenceRecord", "CorpusFunction", "DomainError", "ExperimentConfig",
    "ExtrapolationTableau", "InputError", "InsufficientDataError",
    "Integrand", "IntegrandError", "NumericError", "OracleError",
    "ProfileError", "QuadratureResult", "QuadratureRule",
    "RateEstimate", "RuleKind", "SampleCache", "SingquadError", "SingularityProfile",
    "SizeError", "aliasing_error",
    "cc_rule_fast", "cheb_coeffs",
    "cheb_eval", "classify_s", "coeff_asymptote", "corpus", "corpus_function", "dct1",
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
    # nor the exact rational arithmetic that only the test identities use
    probe = "import sys, singquad; print([m in sys.modules for m in ('singquad.cli', 'fractions')])"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[False, False]"


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


def test_readme_quick_start_runs_as_documented(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    stated = re.search(r"# (\d+) evaluations", code)
    assert stated is not None
    exec(compile(code, str(readme), "exec"), {})
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split()[-1] == stated.group(1) == "65"
