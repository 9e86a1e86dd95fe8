#!/usr/bin/env python3
"""Run every identity suite at one set of bounds and summarize.

Equivalent to looping the `staralg check` subcommand over all suites (the
starexp suite at order min(--order, 4)); handy for quick regression sweeps
at larger bounds than the defaults.
"""

import argparse
import sys

from staralg.cli import SUITES, _run_suite, build_parser


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--t", default="1")
    parser.add_argument("--degmax", type=int, default=4)
    parser.add_argument("--mmax", type=int, default=8)
    parser.add_argument("--kmax", type=int, default=4)
    parser.add_argument("--order", type=int, default=8)
    parser.add_argument("--quiet", action="store_true",
                        help="print only the per-suite summary lines")
    args = parser.parse_args()

    base = build_parser().parse_args([
        "check", "--suite", SUITES[0], f"--n={args.n}", f"--t={args.t}",
        f"--degmax={args.degmax}", f"--mmax={args.mmax}", f"--kmax={args.kmax}"])
    all_ok = True
    for name in SUITES:
        order = min(args.order, 4) if name == "starexp" else args.order
        report = _run_suite(argparse.Namespace(**{**vars(base), "suite": name, "order": order}))
        if not args.quiet:
            for record in report.records:
                print(record.line())
        status = "ok" if report.ok else "FAIL"
        print(f"# suite={name} records={len(report.records)} {status}", file=sys.stderr)
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
