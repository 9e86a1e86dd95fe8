"""Seeded inputs for the three workloads.

Every workload is a fixed-size *pass*: a list of items, each one argv list
for ``staralg.cli.main``.  The same seed gives the same pass, item for item;
the run repeats the pass until its time is up.  Inputs are drawn here, not
with the program's own random helpers, so a program change cannot change a
workload.  Each item also carries the structured input its checker needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import algebra

WORKLOADS = ("star_powers", "check_suites", "cli_requests")


@dataclass
class Item:
    argv: list[str]
    kind: str
    n: int
    data: dict


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([c for c in range(-6, 7) if c]), rng.choice([1, 2, 3]))


# -- star_powers -------------------------------------------------------------
#
# Fixed shapes (exponent patterns of f and b); the seed picks coefficients,
# the variable order (n = 2) and the run order.  Unconstrained degree-3 f
# puts the slowest item ~60x above the median, so the run would measure a
# handful of items.  With these shapes at mmax 6 the slowest item costs about
# twice the fastest, so the 90th percentile is not one shape's cost.

STAR_MMAX = 6
STAR_REPEATS = 13                     # items per shape: 104 per pass, so p90 has 10 beyond
STAR_T = ["1", "-1", "1/2", "2"]      # t cycles over the repeats, so each shape sees each t

# (n, f monomials, b monomials); a monomial is (x exponent, z exponent).
# Every monomial of f has an x factor.
STAR_SHAPES = [
    (1, [((1,), (1,)), ((1,), (0,))], [((0,), (2,)), ((1,), (0,))]),
    (1, [((2,), (0,)), ((1,), (1,))], [((1,), (0,)), ((2,), (1,))]),
    (1, [((1,), (1,)), ((2,), (0,))], [((0,), (1,)), ((0,), (0,))]),
    (1, [((1,), (1,)), ((2,), (0,))], [((0,), (2,)), ((1,), (0,))]),
    (2, [((2, 0), (0, 0)), ((0, 1), (1, 0))], [((0, 0), (0, 1)), ((1, 0), (1, 0))]),
    (2, [((1, 0), (1, 0)), ((0, 1), (0, 0))], [((0, 0), (0, 1)), ((1, 0), (0, 0))]),
    (2, [((1, 1), (0, 0)), ((0, 1), (1, 0))], [((0, 0), (0, 1)), ((1, 0), (0, 0))]),
    (2, [((1, 0), (0, 1)), ((0, 1), (0, 1))], [((0, 0), (1, 0)), ((0, 1), (0, 0))]),
]


def _shaped(rng: random.Random, monomials, swap: bool) -> dict:
    p = {}
    for x, z in monomials:
        if swap:
            x, z = x[::-1], z[::-1]
        p[tuple(x) + tuple(z)] = _coeff(rng)
    return p


def star_powers(seed: int) -> list[Item]:
    rng = random.Random(f"star_powers:{seed}")
    items = []
    for n, f_shape, b_shape in STAR_SHAPES:
        for rep in range(STAR_REPEATS):
            swap = n == 2 and rng.random() < 0.5
            f = _shaped(rng, f_shape, swap)
            b = _shaped(rng, b_shape, swap)
            t = STAR_T[rep % len(STAR_T)]
            argv = ["mathieu", "--oracle", "image", "--n", str(n), f"--t={t}",
                    f"--f={algebra.fmt(f, n)}", f"--b={algebra.fmt(b, n)}",
                    "--mmax", str(STAR_MMAX)]
            items.append(Item(argv, "mathieu", n,
                              {"f": f, "b": b, "t": Fraction(t), "mmax": STAR_MMAX}))
    return items


# -- check_suites --------------------------------------------------------------
#
# Every suite at every n in {1, 2, 3}.  Bounds sit above the CLI defaults
# (degmax 4, mmax 8, order 8, kmax 4) except where n = 3 makes one suite
# cost seconds: ortho and even at n = 3 run degmax 3 (degmax 4 takes ~0.85 s
# each), starexp at n = 3 runs order 6.  The oracles bounds are large enough
# that linalg.solve is a tenth of the pass.

SUITE_BOUNDS = {
    1: {"ortho": {"degmax": 8}, "recur": {"mmax": 12}, "ode": {"mmax": 10, "kmax": 5},
        "genfun": {"kmax": 5, "order": 9}, "starexp": {"order": 12},
        "even": {"degmax": 8}, "interchange": {"degmax": 8},
        "oracles": {"degmax": 10, "count": 40}},
    2: {"ortho": {"degmax": 5}, "recur": {"mmax": 14}, "ode": {"mmax": 12, "kmax": 5},
        "genfun": {"kmax": 4, "order": 9}, "starexp": {"order": 9},
        "even": {"degmax": 5}, "interchange": {"degmax": 5},
        "oracles": {"degmax": 7, "count": 40}},
    3: {"ortho": {"degmax": 3}, "recur": {"mmax": 16}, "ode": {"mmax": 12, "kmax": 6},
        "genfun": {"kmax": 5, "order": 10}, "starexp": {"order": 6},
        "even": {"degmax": 3}, "interchange": {"degmax": 5},
        "oracles": {"degmax": 5, "count": 40}},
}
ORACLE_T = ["1", "-1", "2", "1/2"]


def check_suites(seed: int) -> list[Item]:
    rng = random.Random(f"check_suites:{seed}")
    items = []
    for n, suites in SUITE_BOUNDS.items():
        for suite, bounds in suites.items():
            argv = ["check", "--suite", suite, "--n", str(n)]
            for name, value in bounds.items():
                argv += [f"--{name}", str(value)]
            data = {"suite": suite, **bounds}
            if suite in ("ortho", "starexp"):
                k = tuple(rng.randint(0, 1) for _ in range(n))
                argv += ["--k", ",".join(map(str, k))]
                data["k"] = k
            if suite == "oracles":
                argv += [f"--t={rng.choice(ORACLE_T)}", "--seed", str(rng.randrange(2**31))]
            items.append(Item(argv, "check", n, data))
    return items


# -- cli_requests --------------------------------------------------------------
#
# Small one-shot requests, so per-request cost is mostly argument parsing,
# text parsing and printing.  Each block holds every request type once.

CLI_BLOCKS = 14            # blocks per dimension in one pass
CLI_T = ["1", "-1", "2", "1/2"]


def _random_poly(rng: random.Random, n: int, maxdeg: int, z_only: bool = False) -> dict:
    p: dict = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * (2 * n)
        for _ in range(rng.randint(0, maxdeg)):
            e[rng.randrange(n, 2 * n) if z_only else rng.randrange(2 * n)] += 1
        p[tuple(e)] = _coeff(rng)
    return p


def _random_op(rng: random.Random, n: int) -> list:
    op = []
    for _ in range(rng.randint(1, 3)):
        factors, order = [], 0
        for _ in range(rng.randint(1, 3)):
            letter = rng.choice("zd")
            pw = rng.randint(1, 2)
            if letter == "d":
                pw = min(pw, 3 - order)
                if pw == 0:
                    continue
                order += pw
            factors.append((letter, rng.randint(1, n), pw))
        op.append((_coeff(rng), factors))
    return op


def cli_requests(seed: int) -> list[Item]:
    rng = random.Random(f"cli_requests:{seed}")
    items = []
    for n in (1, 2, 3):
        maxdeg = 3 if n < 3 else 2
        for _ in range(CLI_BLOCKS):
            t = rng.choice(CLI_T)
            f, g = _random_poly(rng, n, maxdeg), _random_poly(rng, n, maxdeg)
            items.append(Item(["star", "--n", str(n), f"--t={t}", f"--f={algebra.fmt(f, n)}",
                               f"--g={algebra.fmt(g, n)}"],
                              "star", n, {"f": f, "g": g, "t": Fraction(t)}))
            for inverse in (False, True):
                f = _random_poly(rng, n, maxdeg)
                argv = ["phi", "--n", str(n), f"--t={t}", f"--f={algebra.fmt(f, n)}"]
                items.append(Item(argv + ["--inverse"] * inverse, "phi", n,
                                  {"f": f, "t": -Fraction(t) if inverse else Fraction(t)}))
            f = _random_poly(rng, n, maxdeg)
            items.append(Item(["taylor", "--n", str(n), f"--t={t}", f"--f={algebra.fmt(f, n)}"],
                              "taylor", n, {"f": f, "t": Fraction(t)}))
            for direction in ("left", "right"):
                op = _random_op(rng, n)
                items.append(Item(["symbol", "--n", str(n), "--dir", direction,
                                   f"--input={algebra.op_text(op)}"],
                                  "symbol", n, {"dir": direction, "op": op}))
            for direction in ("l2r", "r2l"):
                sym = _random_poly(rng, n, maxdeg)
                items.append(Item(["symbol", "--n", str(n), "--dir", direction,
                                   f"--input={algebra.fmt(sym, n)}"],
                                  "symbol", n, {"dir": direction, "sym": sym}))
            op, p = _random_op(rng, n), _random_poly(rng, n, maxdeg, z_only=True)
            items.append(Item(["apply", "--n", str(n), f"--op={algebra.op_text(op)}",
                               f"--poly={algebra.fmt(p, n)}"],
                              "apply", n, {"op": op, "p": p}))
            alpha = tuple(rng.randint(0, 4 - n) for _ in range(n))
            k = tuple(rng.randint(0, 2) for _ in range(n))
            for via in ("explicit", "star", "genfun"):
                items.append(Item(["laguerre", "--n", str(n), "--alpha", ",".join(map(str, alpha)),
                                   "--k", ",".join(map(str, k)), "--via", via],
                                  "laguerre", n, {"alpha": alpha, "k": k, "via": via}))
    return items


def generate(workload: str, seed: int) -> tuple[list[Item], Item]:
    """The workload's pass in run order, and its warm-up item.

    Items are built in a fixed order, then shuffled; the warm-up item is the
    first one built, so its cost depends on the seed only through
    coefficients.
    """
    items = {"star_powers": star_powers, "check_suites": check_suites,
             "cli_requests": cli_requests}[workload](seed)
    warmup = items[0]
    random.Random(f"order:{workload}:{seed}").shuffle(items)
    return items, warmup
