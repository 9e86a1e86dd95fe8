#!/usr/bin/env python3
"""Run every identity suite at one set of bounds and summarize.

Equivalent to looping the `staralg check` subcommand over all suites (the
starexp suite at order min(--order, 4)); handy for quick regression sweeps
at larger bounds than the defaults.  Every option but --quiet is read as
`staralg check` reads it, and held to the same limits (cli.check_limits):
a size out of range, or a suite over the record budget, exits 2 before any
suite runs.
"""

import argparse
import sys

from staralg.cli import SUITES, UsageError, _weight, build_parser, check_limits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiet", action="store_true",
                        help="print only the per-suite summary lines")
    args, bounds = parser.parse_known_args()
    # any suite will do: each run below sets its own
    base = build_parser().parse_args(["check", "--suite", "ortho", *bounds])
    runs = []
    for name, (run, _) in SUITES.items():
        order = min(base.order, 4) if name == "starexp" else base.order
        runs.append((name, run, argparse.Namespace(**{**vars(base), "suite": name,
                                                        "order": order})))
    try:  # every suite within the CLI's limits before any runs
        for _, _, suite_args in runs:
            check_limits(suite_args)
    except UsageError as exc:
        print(f"staralg: error: {exc}", file=sys.stderr)
        return 2
    all_ok = True
    for name, run, suite_args in runs:
        count, ok = 0, True  # each record is printed as it is computed
        for record in run(suite_args, _weight(suite_args)):
            count, ok = count + 1, ok and record.verdict == "pass"
            if not args.quiet:
                print(record.line())
        print(f"# suite={name} records={count} {'ok' if ok else 'FAIL'}", file=sys.stderr)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
