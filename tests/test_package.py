"""Tests for the package surface: exports, version, error taxonomy."""

import subprocess
import sys

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
    RangeError,
    SingquadError,
    SizeError,
)


def test_version():
    assert singquad.__version__ == "0.1.0"


def test_top_level_exports_resolve():
    for name in (
        "ChebGrid", "cheb_coeffs", "cheb_eval", "dct1",
        "cc_rule_direct", "cc_rule_fast", "gl_rule",
        "integrate", "cc_integrate_by_coeffs", "integrate_split",
        "aliasing_error", "SampleCache",
        "SingularityProfile", "classify_s", "exponent_ladder",
        "predict_coeff", "lemma_H", "faulhaber_sum", "bernoulli",
        "richardson", "extrapolate_rows", "fit_rate", "default_noise_floor",
        "tanh_sinh", "corpus", "corpus_function", "run_experiment",
    ):
        assert callable(getattr(singquad, name)), name


EXPORTS = [
    "AsymptoteTerm", "ChebCoeffs", "ChebGrid", "CoeffAsymptote", "ConfigError",
    "ConvergenceRecord", "CorpusFunction", "DomainError", "ExperimentConfig",
    "ExponentLadder", "ExtrapolationTableau", "InputError", "InsufficientDataError",
    "Integrand", "IntegrandError", "LadderOrigin", "NumericError", "OracleError",
    "Parity", "ProfileError", "QuadratureResult", "QuadratureRule", "RangeError",
    "RateEstimate", "RuleKind", "SampleCache", "SingquadError", "SingularityProfile",
    "SizeError", "SmoothnessIndex", "aliasing_error", "bernoulli",
    "cc_integrate_by_coeffs", "cc_rule_direct", "cc_rule_fast", "cheb_coeffs",
    "cheb_eval", "classify_s", "coeff_asymptote", "corpus", "corpus_function", "dct1",
    "default_noise_floor", "exponent_ladder", "extrapolate_rows", "faulhaber_sum",
    "fit_rate", "gl_rule", "hatphi2_pi", "hatphi_pi", "hatpsi0", "hatpsi2_0",
    "integrate", "integrate_split", "is_supported_size", "lemma_H", "lemma_H_closed",
    "predict_coeff", "richardson", "run_experiment", "tanh_sinh", "write_csv",
]


def test_export_surface_is_frozen_and_import_skips_the_cli():
    assert sorted(singquad.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(singquad, name) is not None, name
    # a fresh interpreter: importing the package must not pull in the CLI
    probe = "import sys, singquad; print('singquad.cli' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_value_style_errors_are_valueerrors():
    for cls in (
        SizeError, InputError, DomainError, ProfileError,
        RangeError, ConfigError, InsufficientDataError,
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
        singquad.cc_rule_fast(7)
    with pytest.raises(SingquadError):
        singquad.tanh_sinh(lambda x: abs(x - 0.1) ** -0.6, 1e-12)
