"""Command-line interface.

Every subcommand prints deterministic output: identical argv yields
byte-identical bytes on stdout.  Exit codes: 0 on success, 1 when a check
suite fails (or an experiment aborts on the degree cap), 2 on usage errors
including malformed expressions.

Note: argument values starting with '-' (negative t, leading-minus
polynomials) must be passed in --flag=value form.  --f/--g/--input accept
'-' to read the expression from stdin.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

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
from .poly import MultiIndex, grlex_key, mi_zero
from .report import Report
from .syntax import ParseError, format_poly, parse_poly, parse_weyl
from .weyl import (
    from_left_symbol,
    from_right_symbol,
    interchange_check,
    left_symbol,
    right_symbol,
)

DEFAULT_DEGMAX = 4
DEFAULT_MMAX = 8
DEFAULT_ORDER = 8
SUITES = ("ortho", "recur", "ode", "genfun", "starexp", "even", "interchange", "oracles")


class UsageError(Exception):
    pass


def _read_expr(value: str, already_read: list[bool]) -> str:
    if value == "-":
        if already_read[0]:
            raise UsageError("stdin '-' may be used for at most one argument")
        already_read[0] = True
        return sys.stdin.read()
    return value


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    symbol_p.add_argument("--dir", choices=["left", "right", "l2r", "r2l"], required=True)
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
    lag_p.add_argument("--via", choices=["explicit", "star", "genfun"], default="explicit")

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


def _cmd_star(args) -> int:
    stdin_used = [False]
    ctx = StarContext(args.n, _parse_fraction(args.t))
    f = parse_poly(_read_expr(args.f, stdin_used), args.n)
    g = parse_poly(_read_expr(args.g, stdin_used), args.n)
    print(format_poly(star(ctx, f, g)))
    return 0


def _cmd_phi(args) -> int:
    stdin_used = [False]
    t = _parse_fraction(args.t)
    if args.inverse:
        t = -t
    ctx = StarContext(args.n, t)
    f = parse_poly(_read_expr(args.f, stdin_used), args.n)
    print(format_poly(phi_map(ctx, f)))
    return 0


def _cmd_taylor(args) -> int:
    stdin_used = [False]
    ctx = StarContext(args.n, _parse_fraction(args.t))
    f = parse_poly(_read_expr(args.f, stdin_used), args.n)
    expansion = star_taylor(ctx, f)
    for alpha in sorted(expansion.coefficients,
                        key=lambda a: grlex_key((a, mi_zero(args.n)))):
        coeff = expansion.coefficients[alpha]
        print(f"alpha={','.join(map(str, alpha))}\ta={format_poly(coeff)}")
    return 0


def _cmd_symbol(args) -> int:
    stdin_used = [False]
    text = _read_expr(args.input, stdin_used)
    if args.dir in ("left", "right"):
        op = parse_weyl(text, args.n)
        symbol = left_symbol(op) if args.dir == "left" else right_symbol(op)
    elif args.dir == "l2r":
        p = parse_poly(text, args.n)
        symbol = right_symbol(from_left_symbol(p))
    else:  # r2l
        p = parse_poly(text, args.n)
        symbol = left_symbol(from_right_symbol(p))
    print(format_poly(symbol))
    return 0


def _cmd_apply(args) -> int:
    op = parse_weyl(args.op, args.n)
    p = parse_poly(args.poly, args.n)
    if not p.is_z_only():
        raise UsageError("--poly must involve only the z variables")
    print(format_poly(op.apply(p)))
    return 0


def _cmd_laguerre(args) -> int:
    alpha = _parse_multiindex(args.alpha, args.n, "alpha")
    k = _parse_multiindex(args.k, args.n, "k")
    spec = LaguerreSpec(alpha, k)
    if args.via == "explicit":
        result = laguerre(spec)
    elif args.via == "star":
        result = laguerre_from_star_at_one(spec)
    else:
        result = laguerre_genfun(spec)
    print(format_poly(result))
    return 0


def _run_suite(args) -> Report:
    k = _parse_multiindex(args.k, args.n, "k") if args.k is not None else mi_zero(args.n)
    if args.suite == "ortho":
        return orthogonality_check(args.n, k, args.degmax)
    if args.suite == "recur":
        return recurrence_check(args.mmax)
    if args.suite == "ode":
        return ode_check(args.mmax, args.kmax)
    if args.suite == "genfun":
        reports = [generating_check(kk, args.order) for kk in range(args.kmax + 1)]
        return Report([r for rep in reports for r in rep.records], all(r.ok for r in reports))
    if args.suite == "starexp":
        return star_exp_check(k, args.order)
    if args.suite == "even":
        return even_identity_report(args.n, args.degmax)
    if args.suite == "interchange":
        return interchange_check(args.n, args.degmax)
    return mathieu.oracle_equivalence_scan(
        _parse_fraction(args.t), args.n, args.degmax,
        random_count=args.count, seed=args.seed)


def _cmd_check(args) -> int:
    report = _run_suite(args)
    for record in report.records:
        print(record.line())
    return 0 if report.ok else 1


def _cmd_mathieu(args) -> int:
    stdin_used = [False]
    f = parse_poly(_read_expr(args.f, stdin_used), args.n)
    b = parse_poly(_read_expr(args.b, stdin_used), args.n)
    if args.oracle == "image":
        oracle = mathieu.MembershipOracle("image_ev0", t=_parse_fraction(args.t))
        power_kind = "star"
    else:
        k = _parse_multiindex(args.k, args.n, "k") if args.k is not None else mi_zero(args.n)
        oracle = mathieu.MembershipOracle("laguerre_span", k=k)
        power_kind = "ordinary"
        if not f.is_z_only() or not b.is_z_only():
            raise UsageError("the laguerre oracle needs f and b in the z variables only")
    try:
        report = mathieu.power_experiment(oracle, f, b, args.mmax, power_kind,
                                          degree_cap=args.degree_cap)
    except mathieu.DegreeCapExceeded as exc:
        print(f"staralg: aborted: {exc}", file=sys.stderr)
        return 1
    for record in report.records():
        print(record.line())
    return 0


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ParseError, ValueError) as exc:
        print(f"staralg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
