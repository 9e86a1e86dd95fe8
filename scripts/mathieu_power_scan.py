#!/usr/bin/env python3
"""Sweep power experiments over basis candidates from the x-generated ideal.

For every monomial multiple of an x variable up to --degmax, run a star-power
experiment against the image-membership oracle at the given t and print one
record line per (candidate, m).  This is evidence collection at a truncated
range, not a proof procedure; curate more interesting candidates by editing
--b or piping candidates through the staralg CLI instead.  Records are printed
as each candidate's experiment computes them: if a candidate's powers outgrow
--degree-cap, the scan aborts with exit 1, and the records of the candidates
before it stay printed.
"""

import argparse
import sys
from fractions import Fraction

from staralg.mathieu import DEFAULT_DEGREE_CAP, DegreeCapExceeded, basis_power_scan
from staralg.syntax import format_poly, parse_poly


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", default="1", help="deformation parameter (rational)")
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--degmax", type=int, default=3,
                        help="max total degree of candidate monomials")
    parser.add_argument("--mmax", type=int, default=8)
    parser.add_argument("--b", default=None,
                        help="multiplier polynomial (default: z1)")
    parser.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
    args = parser.parse_args()

    b = parse_poly(args.b, args.n) if args.b is not None else None
    candidates = stable = 0
    try:
        for f, records in basis_power_scan(Fraction(args.t), args.n, args.degmax,
                                           args.mmax, b=b, degree_cap=args.degree_cap):
            verdict = None
            for record in records:
                print(f"f={format_poly(f)}\t{record.line()}")
                verdict = record.verdict
            candidates += 1
            stable += verdict == "member"  # every product from some m on is a member
    except DegreeCapExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1
    print(f"# candidates={candidates} with_stable_tail={stable} "
          f"mmax={args.mmax} t={args.t}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
