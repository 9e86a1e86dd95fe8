"""Command-line interface.

Every subcommand prints deterministic output: identical argv yields
byte-identical bytes on stdout.  Each handler prints nothing and returns an
iterable of lines or records, which check suites and experiments compute one
at a time; `main` is the one writer of stdout.  It writes each line as it
arrives, so `check ... | head` stops the work, and maps every exit code: 0 on
success, 1 when a check record fails or an experiment aborts on the degree
cap (checked before the first record, so nothing is printed), 2 on usage
errors including malformed expressions and on a --t, result coefficient or
record field with more digits than Python prints (sys.get_int_max_str_digits()),
3 on internal faults, among them any other ValueError from the engine, since
input faults are refused before it, 141 on a closed stdout.  On exit 2 or 3
mid-run, the records written before the error stay on stdout.

Resource limits, refused with exit 2 before anything is built: --n is in
1..MAX_N, each size option in 0..its entry in SIZE_LIMITS (check_limits;
--mmax from 1 where it counts powers or recurrence steps, each --k entry to
kmax and each --alpha entry to mmax), a laguerre polynomial's prod(alpha_i + 1)
terms within TERM_BUDGET, and expression text within the syntax limits
(exponent, nesting, and the term pairs that a polynomial text multiplies).
Those limits bound one option each; a suite's record count, computed by its
SUITES entry from --n and all of its bounds together, is at most
RECORD_BUDGET.  The cost of one record still grows with the degrees and --n.

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
from math import comb, prod
from typing import Iterable

from . import mathieu
from .deform import phi as phi_map, star, star_taylor
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
from .poly import DigitLimitExceeded, MultiIndex, format_poly, grlex_key, mi_zero
from .report import InternalFault, OutputRecord
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
    "mmax": 200,    # powers per experiment, Laguerre degree in recur, ode and --alpha
    "kmax": 100,    # largest Laguerre weight in ode, genfun and --k
    "order": 32,    # truncation order of the series in genfun and starexp
    "count": 10_000,  # random probes in the oracles suite
    "degree_cap": 50,  # degree of the largest power or product in mathieu
}
# Largest number of records one check run may print, computed from --n and
# the suite's bounds before any work: the sizes above bound each option
# alone, while a suite's basis grows with n and its bounds together.
RECORD_BUDGET = 12_000
TERM_BUDGET = 10_000  # largest number of terms, prod(alpha_i + 1), laguerre may print
DEFAULT_DEGMAX = 4
DEFAULT_MMAX = 8
DEFAULT_ORDER = 8


class UsageError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    """text as a rational that str() can print, as records print t; an exponent too
    large to print is refused before Fraction builds its power of 10."""
    limit = sys.get_int_max_str_digits()
    try:
        _, e, exponent = text.lower().partition("e")
        if e and limit and abs(int(exponent)) > 2 * limit:
            raise ValueError(f"more than {limit} digits")
        value = Fraction(text)
        str(value)  # raises past the digit limit
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc
    return value


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
    return comb(degmax + n, n)


# Each check suite: its runner, called with the parsed arguments and the
# weight, and the number of records it prints for those arguments, known
# before any work so that RECORD_BUDGET can refuse the run.
SUITES = {
    "ortho": (lambda a, k: orthogonality_check(a.n, k, a.degmax),
              lambda a: _multiindices(a.n, a.degmax) ** 2),
    "recur": (lambda a, k: recurrence_check(a.mmax), lambda a: 2 * a.mmax),
    "ode": (lambda a, k: ode_check(a.mmax, a.kmax),
            lambda a: (a.mmax + 1) * (a.kmax + 1)),
    "genfun": (lambda a, k: generating_check(a.kmax, a.order),
               lambda a: (a.kmax + 1) * (a.order + 1)),
    "starexp": (lambda a, k: star_exp_check(k, a.order),
                lambda a: a.n * (a.order + 1) + (_multiindices(a.n, a.order) if a.n > 1 else 0)),
    "even": (lambda a, k: even_identity_report(a.n, a.degmax),
             lambda a: _multiindices(a.n, a.degmax) ** 2),
    "interchange": (lambda a, k: interchange_check(a.n, a.degmax),
                    lambda a: 2 * _multiindices(2 * a.n, a.degmax)),
    "oracles": (lambda a, k: mathieu.oracle_equivalence_scan(
                    _parse_fraction(a.t), a.n, a.degmax, random_count=a.count, seed=a.seed),
                lambda a: _multiindices(2 * a.n, a.degmax) + a.count),
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


def _cmd_star(args) -> Iterable[str]:
    t = _parse_fraction(args.t)
    f, g = parse_poly(args.f, args.n), parse_poly(args.g, args.n)
    return [format_poly(star(t, f, g))]


def _cmd_phi(args) -> Iterable[str]:
    t = _parse_fraction(args.t)
    return [format_poly(phi_map(-t if args.inverse else t, parse_poly(args.f, args.n)))]


def _cmd_taylor(args) -> Iterable[str]:
    coefficients = star_taylor(_parse_fraction(args.t), parse_poly(args.f, args.n))
    return [f"alpha={','.join(map(str, a))}\ta={format_poly(coefficients[a])}"
            for a in sorted(coefficients, key=grlex_key)]


def _cmd_symbol(args) -> Iterable[str]:
    parse, operator, symbol = SYMBOL_ROUTES[args.dir]
    return [format_poly(symbol(operator(parse(args.input, args.n))))]


def _cmd_apply(args) -> Iterable[str]:
    op = parse_weyl(args.op, args.n)
    p = parse_poly(args.poly, args.n)
    if not p.is_z_only():
        raise UsageError("--poly must involve only the z variables")
    return [format_poly(op.apply(p))]


def _cmd_laguerre(args) -> Iterable[str]:
    alpha = _parse_multiindex(args.alpha, args.n, "alpha")
    k = _parse_multiindex(args.k, args.n, "k")
    return [format_poly(LAGUERRE_ROUTES[args.via](LaguerreSpec(alpha, k)))]


def _suite_records(args) -> int:
    """The number of records the check suite prints for these arguments."""
    return SUITES[args.suite][1](args)


def check_limits(args) -> None:
    """Refuse (UsageError) --n, a size option or a --k or --alpha entry outside its
    range, and a check suite or laguerre polynomial over budget (module docstring)."""
    lows = {"n": 1, "mmax": int(args.command == "mathieu" or vars(args).get("suite") == "recur")}
    for name, high in (("n", MAX_N), *SIZE_LIMITS.items()):
        low = lows.get(name, 0)
        value, flag = getattr(args, name, None), f"--{name.replace('_', '-')}"
        if value is not None and value > high:
            raise UsageError(f"{flag} {value} is above the limit {high}")
        if value is not None and value < low:
            raise UsageError(f"dimension must be >= 1, got {value}" if name == "n"
                             else f"{flag} {value} is below the limit {low}")
    for name, high in (("k", SIZE_LIMITS["kmax"]), ("alpha", SIZE_LIMITS["mmax"])):
        text = getattr(args, name, None)
        if text is not None and max(_parse_multiindex(text, args.n, name)) > high:
            raise UsageError(f"{name} entries must be at most {high}")
    if args.command == "laguerre":
        terms = prod(a + 1 for a in _parse_multiindex(args.alpha, args.n, "alpha"))
        if terms > TERM_BUDGET:
            raise UsageError(f"--alpha gives {terms} terms, above the budget {TERM_BUDGET}")
    records = _suite_records(args) if getattr(args, "suite", None) else 0
    if records > RECORD_BUDGET:
        raise UsageError(f"--suite {args.suite} at these sizes prints {records} records, "
                         f"above the budget {RECORD_BUDGET}")


def _cmd_check(args) -> Iterable[OutputRecord]:
    return SUITES[args.suite][0](args, _weight(args))


def _cmd_mathieu(args) -> Iterable[OutputRecord]:
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
    return mathieu.power_experiment(oracle, f, b, args.mmax, power_kind,
                                    degree_cap=args.degree_cap)


# Each handler returns lines of text or records; main writes them one at a
# time, and a record whose verdict is fail makes the exit code 1.
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
        check_limits(args)
        dashes = [name for name in ("f", "g", "b", "input") if getattr(args, name, None) == "-"]
        if len(dashes) > 1:
            raise UsageError("stdin '-' may be used for at most one argument")
        for name in dashes:
            setattr(args, name, sys.stdin.read())
        code = 0
        for item in _HANDLERS[args.command](args):
            if type(item) is not str:
                if item.verdict == "fail":
                    code = 1
                item = item.line()
            sys.stdout.write(item + "\n")
        sys.stdout.flush()  # here, not at interpreter exit, so a closed pipe still exits 141
        return code
    except (UsageError, ParseError, DigitLimitExceeded) as exc:
        print(f"staralg: error: {exc}", file=sys.stderr)
        return 2
    except mathieu.DegreeCapExceeded as exc:
        print(f"staralg: aborted: {exc}", file=sys.stderr)
        return 1
    except (InternalFault, ValueError) as exc:  # input faults are refused before the engine
        print(f"staralg: internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone: flush the rest to devnull, exit 128 + SIGPIPE
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
