"""Command-line front end.

Exit codes: 0 on success, 1 on usage/configuration problems, 2 on
numeric failures (non-convergence, non-finite integrand values).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import bench
from .accel import richardson
from .engine import _eval_nodes, integrate
from .errors import NumericError, SingquadError
from .rules import cc_rule_fast, gl_rule
from .singular import SingularityProfile, classify_s, exponent_ladder, predict_coeff
from .transform import ChebGrid, cheb_coeffs

__all__ = ["cli", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise _UsageError(message)


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _cmd_rule(args) -> int:
    rule = cc_rule_fast(args.n) if args.kind == "cc" else gl_rule(args.n)
    print(f"kind: {rule.kind.value}")
    print(f"n: {rule.n}")
    print(f"nodes: {_floats(rule.nodes)}")
    print(f"weights: {_floats(rule.weights)}")
    return 0


def _cmd_integrate(args) -> int:
    function = bench.corpus_function(args.fn)
    f = function.integrand
    rule = gl_rule(args.n) if args.method == "gl" else cc_rule_fast(args.n)
    result = integrate(rule, f)
    reference = function.reference_value()
    print(f"fn: {args.fn}")
    print(f"method: {args.method}")
    print(f"n: {result.n}")
    print(f"approx: {result.approx!r}")
    print(f"abs_error: {abs(result.approx - reference)!r}")
    print(f"evals: {result.evals_used}")
    return 0


def _cmd_ladder(args) -> int:
    profile = SingularityProfile(alpha=args.alpha, beta=args.beta, log_left=args.log)
    s = classify_s(profile)
    ladder = exponent_ladder(profile, args.count)
    print(f"s={s!r}; d=[{_floats(ladder)}]")
    return 0


def _cmd_coeffs(args) -> int:
    function = bench.corpus_function(args.fn)
    f = function.integrand
    samples = _eval_nodes(f, ChebGrid(args.n).nodes)
    coeffs = cheb_coeffs(samples).coeffs
    print("k,coeff,predicted")
    for k in range(args.n + 1):
        predicted = repr(predict_coeff(f.profile, k)) if k >= 2 else ""
        print(f"{k},{coeffs[k]:.17g},{predicted}")
    return 0


def _cmd_extrapolate(args) -> int:
    function = bench.corpus_function(args.fn)
    f = function.integrand
    ladder = exponent_ladder(f.profile, max(args.q, 1))
    tableau = richardson(f, args.base_n, args.q, ladder)
    reference = function.reference_value()
    print(f"fn: {args.fn}")
    print(f"base_n: {tableau.base_n}")
    print(f"q: {tableau.q}")
    print(f"ladder: [{_floats(ladder)}]")
    for j, row in enumerate(tableau.rows):
        print(f"row {j}: {_floats(row)}")
    print(f"value: {tableau.value!r}")
    print(f"abs_error: {abs(tableau.value - reference)!r}")
    print(f"evals: {tableau.evals_used}")
    return 0


_FIGURES = {1: ("F1a", "F1b"), 2: ("F2a", "F2b"), 3: ("F3a", "F3b")}


def _cmd_reproduce(args) -> int:
    if args.max_n < 8:
        raise SingquadError(f"--max-n must be >= 8, got {args.max_n}")
    n_values = tuple(8 * 2**k for k in range((args.max_n // 8).bit_length()))
    fn_ids = _FIGURES[args.figure]
    os.makedirs(args.out, exist_ok=True)
    for fn_id in fn_ids:
        path = os.path.join(args.out, f"figure{args.figure}_{fn_id}.csv")
        cfg = bench.ExperimentConfig(fn=fn_id, n_values=n_values, out=path)
        bench.run_experiment(cfg)
        print(f"wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    kwargs: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            kwargs = bench.parse_config_text(handle.read())
    # flags win over config-file values
    if args.fn is not None:
        kwargs["fn"] = args.fn
    if args.methods is not None:
        kwargs["methods"] = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if args.n is not None:
        kwargs["n_values"] = bench.parse_n_spec(args.n)
    if args.out is not None:
        kwargs["out"] = args.out
    if "fn" not in kwargs:
        raise SingquadError("an experiment needs a corpus function: set fn in the config or --fn")
    cfg = bench.ExperimentConfig(**kwargs)
    records = bench.run_experiment(cfg)
    if cfg.out is None:
        sys.stdout.write(bench.render_csv(records))
    else:
        print(f"wrote {cfg.out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="singquad", description="Quadrature for endpoint-singular integrands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rule", help="print a quadrature rule's nodes and weights")
    p.add_argument("--kind", choices=["cc", "gl"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_rule)

    p = sub.add_parser("integrate", help="integrate a corpus function")
    p.add_argument("--fn", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["cc", "gl"], default="cc")
    p.set_defaults(run=_cmd_integrate)

    p = sub.add_parser("ladder", help="print the smoothness index and exponent ladder")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--log", action="store_true", help="include the log(1-x) factor")
    p.add_argument("--count", type=int, default=3)
    p.set_defaults(run=_cmd_ladder)

    p = sub.add_parser("coeffs", help="print Chebyshev coefficients and their predictions")
    p.add_argument("--fn", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_coeffs)

    p = sub.add_parser("extrapolate", help="print a Richardson tableau")
    p.add_argument("--fn", required=True)
    p.add_argument("--base-n", type=int, required=True, dest="base_n")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(run=_cmd_extrapolate)

    p = sub.add_parser("reproduce", help="write the convergence CSVs behind one figure")
    p.add_argument("--figure", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-n", type=int, default=2048, dest="max_n")
    p.set_defaults(run=_cmd_reproduce)

    p = sub.add_parser("experiment", help="run a convergence experiment")
    p.add_argument("--config", help="key = value experiment file")
    p.add_argument("--fn")
    p.add_argument("--methods", help="comma-separated subset of cc,gl,r1,r2")
    p.add_argument("--n", help="size list, e.g. '16..2048 x2'")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_experiment)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"warning: {message}\n")


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.run(args)
    except RuntimeWarning as exc:
        # A dropped series under -W error: the warning is raised while
        # handling the SingquadError that ended the series.
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc.__context__, NumericError) else 1
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2
    except (SingquadError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> None:
    sys.exit(cli(argv))


if __name__ == "__main__":
    main()
