#!/usr/bin/env python3
"""Run every identity suite at one set of bounds and summarize.

Equivalent to looping the `staralg check` subcommand over all suites (the
starexp suite at order min(--order, 4)); handy for quick regression sweeps
at larger bounds than the defaults.  Every option but --quiet is read as
`staralg check` reads it.
"""

import argparse
import sys

from staralg.cli import SUITES, _weight, build_parser


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiet", action="store_true",
                        help="print only the per-suite summary lines")
    args, bounds = parser.parse_known_args()
    # any suite will do: the loop below sets each in turn
    base = build_parser().parse_args(["check", "--suite", "ortho", *bounds])
    all_ok = True
    for name, (run, _) in SUITES.items():
        order = min(base.order, 4) if name == "starexp" else base.order
        suite_args = argparse.Namespace(**{**vars(base), "suite": name, "order": order})
        report = run(suite_args, _weight(suite_args))
        if not args.quiet:
            for record in report.records:
                print(record.line())
        status = "ok" if report.ok else "FAIL"
        print(f"# suite={name} records={len(report.records)} {status}", file=sys.stderr)
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
