"""Tests of the benchmark itself: seeded inputs, output checkers and the tracer.

    python3 -m pytest -q perfbench

Each checker must accept the program's real output and reject a
deliberately corrupted copy of it.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import algebra
import checks
import gen
import spans

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from staralg import cli  # noqa: E402

import run  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    first, _ = gen.generate(workload, 7)
    second, _ = gen.generate(workload, 7)
    assert [item.argv for item in first] == [item.argv for item in second]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_different_seed_gives_different_argv(workload):
    a, _ = gen.generate(workload, 7)
    b, _ = gen.generate(workload, 8)
    assert [item.argv for item in a] != [item.argv for item in b]


def test_pass_sizes_are_fixed():
    sizes = {w: len(gen.generate(w, 1)[0]) for w in gen.WORKLOADS}
    assert sizes == {"star_powers": len(gen.STAR_SHAPES) * gen.STAR_REPEATS,
                     "check_suites": 24,
                     "cli_requests": 3 * gen.CLI_BLOCKS * 12}


def _bump_first_coefficient(text: str) -> str:
    """Change the first coefficient of a polynomial text, keeping it well formed."""
    m = re.match(r"(-?)([0-9]+(?:/[0-9]+)?\*)?", text)
    if m.group(2):
        value = Fraction(m.group(2)[:-1]) + 1
        return f"{m.group(1)}{value}*{text[m.end():]}"
    return f"{m.group(1)}2*{text[m.end():]}"


def _replace_field(line: str, key: str, fn) -> str:
    return "\t".join(f"{key}={fn(part[len(key) + 1:])}" if part.startswith(f"{key}=") else part
                     for part in line.split("\t"))


def _real(workload: str, kind: str, **data):
    items, _ = gen.generate(workload, 3)
    for item in items:
        if item.kind == kind and all(item.data.get(k) == v for k, v in data.items()):
            rc, out = run.call(cli, item.argv)
            verdict = checks.check(item, rc, out)
            assert verdict.ok, verdict.reason
            return item, out
    raise AssertionError(f"no {kind} item with {data}")


def _rejects(item, out: str, rc: int = 0) -> bool:
    return not checks.check(item, rc, out).ok


def test_star_powers_checker_rejects_corruption():
    item, out = _real("star_powers", "mathieu")
    lines = out.splitlines()

    def corrupt(m: int, key: str, fn) -> str:
        return "\n".join(_replace_field(l, key, fn) if i == m else l
                         for i, l in enumerate(lines)) + "\n"

    flip = {"member": "nonmember", "nonmember": "member"}.get
    assert _rejects(item, corrupt(2, "verdict", flip))
    assert _rejects(item, corrupt(0, "power", flip))
    assert _rejects(item, corrupt(3, "payload", _bump_first_coefficient))
    assert _rejects(item, corrupt(1, "payload", lambda p: p + " + z1^40"))
    assert _rejects(item, "\n".join(lines[:-1]) + "\n")
    assert _rejects(item, out, rc=1)


def test_star_powers_checker_rejects_wrong_low_term():
    item, out = _real("star_powers", "mathieu")
    last = out.splitlines()[-1]
    payload = algebra.parse(last.split("payload=")[1], item.n)
    low = min(payload, key=sum)
    payload[low] += 1
    if not payload[low]:
        payload[low] += 1
    bad = out.replace(last.split("payload=")[1], algebra.fmt(payload, item.n))
    assert _rejects(item, bad)


def test_check_suites_checker_rejects_corruption():
    item, out = _real("check_suites", "check", suite="ortho")
    lines = out.splitlines()
    assert _rejects(item, "\n".join(lines[1:]) + "\n")
    failing = [_replace_field(lines[0], "verdict", lambda v: "fail")] + lines[1:]
    assert _rejects(item, "\n".join(failing) + "\n")
    assert _rejects(item, out, rc=1)


@pytest.mark.parametrize("suite", ["ortho", "recur", "ode", "genfun", "starexp",
                                   "even", "interchange", "oracles"])
def test_expected_record_counts_match_default_bounds(suite):
    n, d = 2, {"degmax": 4, "mmax": 8, "kmax": 4, "order": 8, "count": 20}
    rc, out = run.call(cli, ["check", "--suite", suite, "--n", str(n)])
    assert rc == 0
    assert len(out.splitlines()) == checks.expected_records(suite, n, d)


@pytest.mark.parametrize("kind,data", [
    ("star", {}), ("phi", {}), ("taylor", {}), ("apply", {}),
    ("symbol", {"dir": "left"}), ("symbol", {"dir": "right"}),
    ("symbol", {"dir": "l2r"}), ("symbol", {"dir": "r2l"}),
    ("laguerre", {"via": "explicit"}), ("laguerre", {"via": "star"}),
    ("laguerre", {"via": "genfun"}),
])
def test_cli_requests_checker_rejects_corruption(kind, data):
    item, out = _real("cli_requests", kind, **data)
    lines = out.splitlines()
    if kind == "taylor":
        bad = [_replace_field(lines[0], "a", _bump_first_coefficient)] + lines[1:]
    else:
        bad = [_bump_first_coefficient(lines[0])]
    assert _rejects(item, "\n".join(bad) + "\n")
    assert _rejects(item, out + out)
    assert _rejects(item, out, rc=2)


def test_parse_reads_back_what_fmt_writes():
    p = {(2, 0, 1, 3): Fraction(-3, 2), (0, 0, 0, 0): Fraction(4), (0, 1, 0, 0): Fraction(1)}
    assert algebra.parse(algebra.fmt(p, 2), 2) == p
    with pytest.raises(algebra.Malformed):
        algebra.parse("x1 + x1", 1)


def test_tracer_keeps_output_and_accounts_every_span():
    item = next(it for it in gen.generate("cli_requests", 3)[0] if it.kind == "star")
    traced_cli = run.fresh_cli()
    try:
        plain = run.call(traced_cli, item.argv)
        tracer = spans.Tracer()
        tracer.install()
        assert run.call(traced_cli, item.argv) == plain
        main = tracer.layer("cli.main")
        assert main["calls"] == 1
        assert tracer.layer("deform.star")["calls"] == 1
        assert tracer.layer("syntax.parse")["calls"] == 2      # f and g; parse_expr nests
        assert tracer.layer("linalg.solve")["calls"] == 0
        total_self = sum(tracer.layer(g)["self_s"] for g in tracer.groups)
        assert total_self == pytest.approx(main["incl_s"], rel=1e-9)
        assert len(tracer.spans()) == tracer.spans_seen
    finally:
        run.fresh_cli()   # leave untraced modules behind
