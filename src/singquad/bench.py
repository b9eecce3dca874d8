"""Reference corpus, tanh-sinh oracle, and convergence experiments.

The corpus carries six endpoint-singular integrands with exact profile
data.  References come from a tanh-sinh (double-exponential) oracle,
which never evaluates the integrand at the endpoints.  Experiments
return a deterministic list of records, which ``render_csv`` writes as CSV.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .accel import richardson
from .engine import Integrand, SampleCache, integrate
from .errors import ConfigError, OracleError, SingquadError, _size
from .rules import gl_rule
from .singular import SingularityProfile, exponent_ladder

__all__ = [
    "ExperimentConfig",
    "ConvergenceRecord",
    "tanh_sinh",
    "corpus",
    "corpus_function",
    "corpus_reference",
    "run_experiment",
]

CSV_HEADER = "n,method,approx,abs_error,evals"
METHOD_ORDER = ("cc", "gl", "r1", "r2")


# ---------------------------------------------------------------------------
# tanh-sinh oracle

_ORACLE_T_MAX = 4.5
_ORACLE_MAX_LEVELS = 12
_ORACLE_TOL = 1e-12


@functools.cache
def _oracle_level(level: int) -> tuple:
    """Abscissae and weights that refinement ``level`` adds to the oracle.

    Level 0 holds t = 0, +-1, +-2, ...; level l >= 1 the odd multiples of
    h = 2**-l, all within |t| <= 4.5, in the order t, -t.  Abscissae that
    round to +/-1 are dropped.  They depend on the level alone, so each
    level is built once per process.
    """
    h = 2.0**-level
    ks = range(1, int(_ORACLE_T_MAX / h) + 1, 1 if level == 0 else 2)
    ts = ([0.0] if level == 0 else []) + [sign * k * h for k in ks for sign in (1, -1)]
    half_pi = math.pi / 2.0
    xs, ws = [], []
    for t in ts:
        u = half_pi * math.sinh(t)
        x = math.tanh(u)
        if abs(x) < 1.0:
            xs.append(x)
            ws.append(half_pi * math.cosh(t) / math.cosh(u) ** 2)
    x_arr, w_arr = np.array(xs), np.array(ws)
    x_arr.flags.writeable = w_arr.flags.writeable = False
    return x_arr, w_arr


def _level_sum(f: Integrand, level: int) -> float:
    xs, ws = _oracle_level(level)
    return float(np.dot(ws, f.sample(xs)))


def tanh_sinh(f) -> float:
    """Double-exponential reference value of the integral of f over [-1, 1].

    Maps x = tanh((pi/2) sinh t) and refines the trapezoid step until two
    consecutive levels agree to 1e-12 (relative plus absolute).  Nodes
    whose mapped abscissa rounds to +/-1 are dropped, so f is never
    called at the endpoints.  Each level is one batch of nodes for
    ``Integrand.sample``; a plain callable is sampled node by node.  The
    oracle bypasses ``engine._eval_nodes``, so its samples stay out of the
    quadrature sample count that perfbench traces there.  A non-finite
    integrand value raises IntegrandError naming its abscissa.
    """
    if not isinstance(f, Integrand):
        f = Integrand(f)
    h = 1.0
    value = h * _level_sum(f, 0)
    for level in range(1, _ORACLE_MAX_LEVELS + 1):
        h /= 2.0
        refined = value / 2.0 + h * _level_sum(f, level)
        if abs(refined - value) < _ORACLE_TOL * (1.0 + abs(refined)):
            return refined
        value = refined
    raise OracleError(
        f"tanh-sinh failed to reach tolerance {_ORACLE_TOL} within {_ORACLE_MAX_LEVELS} refinements"
    )


# ---------------------------------------------------------------------------
# corpus


# The corpus integrands take a float or an ndarray of nodes (Integrand
# vectorized=True).  np.where guards the s*log(s) factor at s = 0, where
# its continuous limit is 0; errstate silences the log(0) it evaluates there.
# np.float_power calls the C library's pow, as Python's ** on floats does;
# numpy's own power loop can differ from it by an ulp, which arccos
# magnifies by up to seven orders of magnitude where x**6 is near 1.


def _f1a(x):
    return (1.0 - x) ** 0.5 * np.exp(x)


def _f1b(x):
    return np.float_power(1.0 - x, 0.75) * np.float_power(1.0 + x, 0.25) * np.exp(x)


def _f2a(x):
    s = 1.0 - x
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s > 0.0, s * np.log(s) * np.cos(x + 1.0), 0.0)


def _f2b(x):
    s = 1.0 - x
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s > 0.0, s * np.log(s) * (1.0 + x) ** 0.5 * np.cos(x + 1.0), 0.0)


def _f3a(x):
    return np.arccos(x * x)


def _f3b(x):
    return np.arccos(np.float_power(x, 6))


def _arccos_profile(m: int) -> SingularityProfile:
    # arccos(x**(2m)) behaves as sqrt(1 - x**2) * g(x) with an even, smooth g
    g_end = math.sqrt(2.0 * m)
    g_slope = g_end * (m / 3.0 - 0.5)
    return SingularityProfile(
        alpha=0.5,
        beta=0.5,
        g_at_1=g_end,
        g_at_minus1=g_end,
        g_prime_at_1=g_slope,
        g_prime_at_minus1=-g_slope,
    )


def _exp_profile(alpha: float, beta: float) -> SingularityProfile:
    # g(x) = exp(x): g and g' are e at x = 1 and 1/e at x = -1
    return SingularityProfile(
        alpha=alpha,
        beta=beta,
        g_at_1=math.e,
        g_at_minus1=1.0 / math.e,
        g_prime_at_1=math.e,
        g_prime_at_minus1=1.0 / math.e,
    )


def _log_profile(beta: float) -> SingularityProfile:
    # s*log(s) * (1 + x)**beta * cos(x + 1) with s = 1 - x: alpha = 1, g(x) = cos(x + 1)
    return SingularityProfile(
        alpha=1.0,
        beta=beta,
        log_left=True,
        g_at_1=math.cos(2.0),
        g_at_minus1=1.0,
        g_prime_at_1=-math.sin(2.0),
        g_prime_at_minus1=0.0,
    )


_CORPUS = (
    Integrand(_f1a, _exp_profile(0.5, 0.0), label="F1a", vectorized=True),
    Integrand(_f1b, _exp_profile(0.75, 0.25), label="F1b", vectorized=True),
    Integrand(_f2a, _log_profile(0.0), label="F2a", vectorized=True),
    Integrand(_f2b, _log_profile(0.5), label="F2b", vectorized=True),
    Integrand(_f3a, _arccos_profile(1), label="F3a", vectorized=True),
    Integrand(_f3b, _arccos_profile(3), label="F3b", vectorized=True),
)

_BY_ID = {f.label: f for f in _CORPUS}


def corpus() -> tuple:
    """The six benchmark integrands, in fixed order, each labelled with its id."""
    return _CORPUS


def corpus_function(fn_id: str) -> Integrand:
    """The corpus integrand labelled ``fn_id``; ConfigError for an unknown id."""
    try:
        return _BY_ID[fn_id]
    except KeyError:
        raise ConfigError(
            f"unknown corpus function {fn_id!r}; known ids: {', '.join(_BY_ID)}"
        ) from None


@functools.cache
def corpus_reference(fn_id: str) -> float:
    """The tanh-sinh reference of corpus function ``fn_id``, computed once per process."""
    return tanh_sinh(corpus_function(fn_id))


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence experiment: a corpus function, methods, and sizes."""

    fn: str
    methods: tuple = METHOD_ORDER
    n_values: tuple = tuple(16 * 2**k for k in range(8))

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in METHOD_ORDER]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; expected a subset of {METHOD_ORDER}")
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        if len(self.methods) != len(set(self.methods)):
            raise ConfigError(f"duplicate methods in {self.methods}")
        if not self.n_values:
            raise ConfigError("n_values must be non-empty")
        what = "n_values must be even integers"
        sizes = tuple(_size(n, 2, ConfigError, what, even=True) for n in self.n_values)
        object.__setattr__(self, "n_values", sizes)
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ConfigError(f"n_values must increase strictly, got {self.n_values}")


@dataclass(frozen=True)
class ConvergenceRecord:
    """One (method, n) outcome; ``evals`` counts new integrand evaluations."""

    method: str
    n: int
    approx: float
    abs_error: float
    evals: int


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run every (method, n) pair of the experiment against the reference.

    Methods run independently: a failure at one size aborts that method's
    remaining sizes, with a RuntimeWarning naming the function, method,
    size and error, but leaves the other methods untouched.  The cc, r1
    and r2 series are :func:`richardson` at depth 0, 1 and 2 (depth 0 is
    plain Clenshaw-Curtis) and read one sample cache along each doubling
    chain of sizes: a size goes to the first of the series' caches that
    serves it, or to a fresh cache when none does.
    Records come out in deterministic (method, n) order, methods in
    canonical order.
    """
    f = corpus_function(cfg.fn)
    reference = corpus_reference(cfg.fn)
    records: list = []
    for method in (m for m in METHOD_ORDER if m in cfg.methods):
        caches: list = []
        n = cfg.n_values[0]
        q = {"r1": 1, "r2": 2}.get(method, 0)
        try:
            ladder = exponent_ladder(f.profile, q) if q else ()
            for n in cfg.n_values:
                if method == "gl":
                    result = integrate(gl_rule(n), f)
                    approx, evals = result.approx, result.evals_used
                else:
                    cache = next((c for c in caches if c.serves(2**q * n)), None)
                    if cache is None:
                        cache = SampleCache(n)
                        caches.append(cache)
                    tableau = richardson(f, n, q, ladder, cache)
                    approx, evals = tableau.value, tableau.evals_used
                records.append(ConvergenceRecord(method, n, approx, abs(approx - reference), evals))
        except SingquadError as exc:
            warnings.warn(
                f"{cfg.fn}: method {method} stopped at n={n}: {type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return records


def render_csv(records) -> str:
    """CSV text for a record list: fixed header, 17 significant digits."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.n},{r.method},{r.approx:.17g},{r.abs_error:.17g},{r.evals}")
    return "\n".join(lines) + "\n"
