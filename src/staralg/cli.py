"""Command-line interface.

Every subcommand prints deterministic output: identical argv yields
byte-identical bytes on stdout.  Each handler returns its lines and exit code
and prints nothing; `main` is the one writer of stdout and maps every exit
code: 0 on success, 1 when a check suite fails or an experiment aborts on the
degree cap, 2 on usage errors including malformed expressions, 3 on internal
faults, 141 on a closed stdout.

Resource limits, refused with exit 2 before anything is built: --n is at
least 1 and at most MAX_N, each size option at most its entry in
SIZE_LIMITS, every exponent in expression text at most syntax.MAX_EXPONENT,
and its parentheses nested at most syntax.MAX_NESTING deep.  Those limits
bound one option each; a check suite's record count, computed by its SUITES
entry from --n and all of its bounds together, is at most RECORD_BUDGET.
The cost of one record still grows with the degrees and with --n.

Note: argument values starting with '-' (negative t, leading-minus
polynomials) must be passed in --flag=value form.  --f/--g/--b/--input
accept '-' to read the expression from stdin (for at most one of them).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from math import comb

from . import mathieu
from .deform import StarContext, star, star_taylor
from .deform import phi as phi_map
from .laguerre import (
    LaguerreSpec,
    even_identity_report,
    generating_check,
    laguerre,
    laguerre_from_star_at_one,
    laguerre_genfun,
    ode_check,
    orthogonality_check,
    recurrence_check,
    star_exp_check,
)
from .poly import MultiIndex, format_poly, grlex_key, mi_zero
from .report import InternalFault
from .syntax import ParseError, parse_poly, parse_weyl
from .weyl import (
    from_left_symbol,
    from_right_symbol,
    interchange_check,
    left_symbol,
    right_symbol,
)

MAX_N = 100  # largest --n accepted; every key of an n-variable term holds 2n exponents
# Largest value accepted for each size option, far above what the tests and
# the benchmark use; at n = 1 each one alone still finishes in seconds.
SIZE_LIMITS = {
    "degmax": 40,   # degree of the bases the check suites sweep
    "mmax": 200,    # powers per experiment, Laguerre degree in recur and ode
    "kmax": 100,    # largest Laguerre weight in ode and genfun
    "order": 32,    # truncation order of the series in genfun and starexp
    "count": 10_000,  # random probes in the oracles suite
    "degree_cap": 50,  # degree of the largest power or product in mathieu
}
# Largest number of records one check run may print, computed from --n and
# the suite's bounds before any work: the sizes above bound each option
# alone, while a suite's basis grows with n and its bounds together.
RECORD_BUDGET = 12_000
DEFAULT_DEGMAX = 4
DEFAULT_MMAX = 8
DEFAULT_ORDER = 8


class UsageError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def _parse_multiindex(text: str, n: int, name: str) -> MultiIndex:
    parts = text.split(",")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad {name} {text!r}: expected comma-separated integers") from exc
    if len(values) != n:
        raise UsageError(f"{name} must have {n} entries, got {len(values)}")
    if any(v < 0 for v in values):
        raise UsageError(f"{name} entries must be non-negative")
    return values


def _weight(args) -> MultiIndex:
    """The weight index --k; all zeros when it is not given."""
    return mi_zero(args.n) if args.k is None else _parse_multiindex(args.k, args.n, "k")


def _multiindices(n: int, degmax: int) -> int:
    """How many multi-indices of length n have total degree at most degmax."""
    return comb(degmax + n, n) if degmax >= 0 else 0


# Each check suite: its runner, called with the parsed arguments and the
# weight, and the number of records it prints for those arguments, known
# before any work so that RECORD_BUDGET can refuse the run.
SUITES = {
    "ortho": (lambda a, k: orthogonality_check(a.n, k, a.degmax),
              lambda a: _multiindices(a.n, a.degmax) ** 2),
    "recur": (lambda a, k: recurrence_check(a.mmax), lambda a: 2 * max(a.mmax, 0)),
    "ode": (lambda a, k: ode_check(a.mmax, a.kmax),
            lambda a: max(a.mmax + 1, 0) * max(a.kmax + 1, 0)),
    "genfun": (lambda a, k: generating_check(a.kmax, a.order),
               lambda a: max(a.kmax + 1, 0) * max(a.order + 1, 0)),
    "starexp": (lambda a, k: star_exp_check(k, a.order),
                lambda a: (a.n * max(a.order + 1, 0)
                           + (_multiindices(a.n, a.order) if a.n > 1 else 0))),
    "even": (lambda a, k: even_identity_report(a.n, a.degmax),
             lambda a: _multiindices(a.n, a.degmax) ** 2),
    "interchange": (lambda a, k: interchange_check(a.n, a.degmax),
                    lambda a: 2 * _multiindices(2 * a.n, a.degmax)),
    "oracles": (lambda a, k: mathieu.oracle_equivalence_scan(
                    _parse_fraction(a.t), a.n, a.degmax, random_count=a.count, seed=a.seed),
                lambda a: _multiindices(2 * a.n, a.degmax) + max(a.count, 0)),
}
LAGUERRE_ROUTES = {"explicit": laguerre, "star": laguerre_from_star_at_one,
                   "genfun": laguerre_genfun}
# --dir: how the input is parsed, the operator it names, the symbol printed
SYMBOL_ROUTES = {
    "left": (parse_weyl, lambda op: op, left_symbol),
    "right": (parse_weyl, lambda op: op, right_symbol),
    "l2r": (parse_poly, from_left_symbol, right_symbol),
    "r2l": (parse_poly, from_right_symbol, left_symbol),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Lets a failed write of help or usage text raise: argparse swallows the
    OSError, so a closed unbuffered stdout would exit 0 instead of 141."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared; do not modify it."""
    parser = _ArgumentParser(
        prog="staralg",
        description="Exact star-product algebra, operator symbol calculus, "
                    "Laguerre identities, and Mathieu power experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    star_p = sub.add_parser("star", help="print f star_t g")
    star_p.add_argument("--n", type=int, required=True)
    star_p.add_argument("--t", default="1")
    star_p.add_argument("--f", required=True)
    star_p.add_argument("--g", required=True)

    phi_p = sub.add_parser("phi", help="apply the flow map at parameter t")
    phi_p.add_argument("--n", type=int, required=True)
    phi_p.add_argument("--t", default="1")
    phi_p.add_argument("--f", required=True)
    phi_p.add_argument("--inverse", action="store_true",
                       help="apply the inverse (parameter -t)")

    taylor_p = sub.add_parser("taylor", help="star-Taylor coefficients of f")
    taylor_p.add_argument("--n", type=int, required=True)
    taylor_p.add_argument("--t", default="1")
    taylor_p.add_argument("--f", required=True)

    symbol_p = sub.add_parser("symbol", help="operator symbol maps and interchanges")
    symbol_p.add_argument("--n", type=int, required=True)
    symbol_p.add_argument("--dir", choices=SYMBOL_ROUTES, required=True)
    symbol_p.add_argument("--input", required=True,
                          help="operator text for left/right, symbol polynomial for l2r/r2l")

    apply_p = sub.add_parser("apply", help="apply an operator to a polynomial in z")
    apply_p.add_argument("--n", type=int, required=True)
    apply_p.add_argument("--op", required=True)
    apply_p.add_argument("--poly", required=True)

    lag_p = sub.add_parser("laguerre", help="generalized Laguerre polynomial text")
    lag_p.add_argument("--n", type=int, required=True)
    lag_p.add_argument("--alpha", required=True, help="comma-separated degree index")
    lag_p.add_argument("--k", required=True, help="comma-separated weight index")
    lag_p.add_argument("--via", choices=LAGUERRE_ROUTES, default="explicit")

    check_p = sub.add_parser("check", help="run a verifier suite; exit 0 iff all pass")
    check_p.add_argument("--suite", required=True, choices=SUITES)
    check_p.add_argument("--n", type=int, default=1)
    check_p.add_argument("--t", default="1")
    check_p.add_argument("--k", default=None,
                         help="weight multi-index (default: all zeros)")
    check_p.add_argument("--degmax", type=int, default=DEFAULT_DEGMAX)
    check_p.add_argument("--mmax", type=int, default=DEFAULT_MMAX)
    check_p.add_argument("--kmax", type=int, default=DEFAULT_DEGMAX)
    check_p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    check_p.add_argument("--count", type=int, default=20,
                         help="random probes for the oracles suite")
    check_p.add_argument("--seed", type=int, default=0)

    mathieu_p = sub.add_parser("mathieu", help="bounded power experiment")
    mathieu_p.add_argument("--oracle", choices=["image", "laguerre"], required=True)
    mathieu_p.add_argument("--n", type=int, required=True)
    mathieu_p.add_argument("--t", default="1", help="parameter for the image oracle")
    mathieu_p.add_argument("--k", default=None, help="weight index for the laguerre oracle")
    mathieu_p.add_argument("--f", required=True)
    mathieu_p.add_argument("--b", required=True)
    mathieu_p.add_argument("--mmax", type=int, default=DEFAULT_MMAX)
    mathieu_p.add_argument("--degree-cap", type=int, default=mathieu.DEFAULT_DEGREE_CAP)

    return parser


def _cmd_star(args) -> tuple[list[str], int]:
    ctx = StarContext(args.n, _parse_fraction(args.t))
    f = parse_poly(args.f, args.n)
    g = parse_poly(args.g, args.n)
    return [format_poly(star(ctx, f, g))], 0


def _cmd_phi(args) -> tuple[list[str], int]:
    t = _parse_fraction(args.t)
    ctx = StarContext(args.n, -t if args.inverse else t)
    return [format_poly(phi_map(ctx, parse_poly(args.f, args.n)))], 0


def _cmd_taylor(args) -> tuple[list[str], int]:
    ctx = StarContext(args.n, _parse_fraction(args.t))
    coefficients = star_taylor(ctx, parse_poly(args.f, args.n)).coefficients
    alphas = sorted(coefficients, key=lambda a: grlex_key((a, mi_zero(args.n))))
    return [f"alpha={','.join(map(str, a))}\ta={format_poly(coefficients[a])}" for a in alphas], 0


def _cmd_symbol(args) -> tuple[list[str], int]:
    parse, operator, symbol = SYMBOL_ROUTES[args.dir]
    return [format_poly(symbol(operator(parse(args.input, args.n))))], 0


def _cmd_apply(args) -> tuple[list[str], int]:
    op = parse_weyl(args.op, args.n)
    p = parse_poly(args.poly, args.n)
    if not p.is_z_only():
        raise UsageError("--poly must involve only the z variables")
    return [format_poly(op.apply(p))], 0


def _cmd_laguerre(args) -> tuple[list[str], int]:
    alpha = _parse_multiindex(args.alpha, args.n, "alpha")
    k = _parse_multiindex(args.k, args.n, "k")
    return [format_poly(LAGUERRE_ROUTES[args.via](LaguerreSpec(alpha, k)))], 0


def _suite_records(args) -> int:
    """The number of records the check suite prints for these arguments."""
    return SUITES[args.suite][1](args)


def _cmd_check(args) -> tuple[list[str], int]:
    records = _suite_records(args)
    if records > RECORD_BUDGET:
        raise UsageError(f"--suite {args.suite} at these sizes prints {records} records, "
                         f"above the budget {RECORD_BUDGET}")
    report = SUITES[args.suite][0](args, _weight(args))
    return [record.line() for record in report.records], 0 if report.ok else 1


def _cmd_mathieu(args) -> tuple[list[str], int]:
    f = parse_poly(args.f, args.n)
    b = parse_poly(args.b, args.n)
    if args.oracle == "image":
        oracle = mathieu.MembershipOracle("image_ev0", t=_parse_fraction(args.t))
        power_kind = "star"
    else:
        oracle = mathieu.MembershipOracle("laguerre_span", k=_weight(args))
        power_kind = "ordinary"
        if not f.is_z_only() or not b.is_z_only():
            raise UsageError("the laguerre oracle needs f and b in the z variables only")
    report = mathieu.power_experiment(oracle, f, b, args.mmax, power_kind,
                                      degree_cap=args.degree_cap)
    return [record.line() for record in report.records()], 0


_HANDLERS = {
    "star": _cmd_star,
    "phi": _cmd_phi,
    "taylor": _cmd_taylor,
    "symbol": _cmd_symbol,
    "apply": _cmd_apply,
    "laguerre": _cmd_laguerre,
    "check": _cmd_check,
    "mathieu": _cmd_mathieu,
}


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed the help or a usage error
            sys.stdout.flush()  # a closed pipe raises here, inside the outer try
            return exc.code if isinstance(exc.code, int) else 2
        for name, limit in (("n", MAX_N), *SIZE_LIMITS.items()):
            value = getattr(args, name, None)
            if value is not None and value > limit:
                raise UsageError(f"--{name.replace('_', '-')} {value} is above the limit {limit}")
            if name == "n" and value < 1:
                raise UsageError(f"dimension must be >= 1, got {value}")
        dashes = [name for name in ("f", "g", "b", "input") if getattr(args, name, None) == "-"]
        if len(dashes) > 1:
            raise UsageError("stdin '-' may be used for at most one argument")
        for name in dashes:
            setattr(args, name, sys.stdin.read())
        lines, code = _HANDLERS[args.command](args)
        sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()  # here, not at interpreter exit, so a closed pipe still exits 141
        return code
    except (UsageError, ParseError, ValueError) as exc:
        print(f"staralg: error: {exc}", file=sys.stderr)
        return 2
    except mathieu.DegreeCapExceeded as exc:
        print(f"staralg: aborted: {exc}", file=sys.stderr)
        return 1
    except InternalFault as exc:
        print(f"staralg: internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone: flush the rest to devnull, exit 128 + SIGPIPE
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
