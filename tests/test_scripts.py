"""The scripts under scripts/ against the CLI they wrap."""

import runpy
import sys
from pathlib import Path

from staralg.cli import SUITES, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    code = runpy.run_path(str(SCRIPTS / name))["main"]()
    return (code, *capsys.readouterr())


def test_verify_identities_prints_the_check_records(monkeypatch, capsys):
    code, out, err = run_script("verify_identities.py", [], monkeypatch, capsys)
    expected, summaries = "", ""
    for suite in SUITES:
        # the script runs starexp at order min(--order, 4); every other bound is the default
        extra = ["--order", "4"] if suite == "starexp" else []
        assert main(["check", "--suite", suite, *extra]) == 0
        records = capsys.readouterr().out
        expected += records
        summaries += f"# suite={suite} records={records.count(chr(10))} ok\n"
    assert (code, out, err) == (0, expected, summaries)


def test_mathieu_power_scan_matches_the_cli(monkeypatch, capsys):
    code, out, err = run_script("mathieu_power_scan.py", ["--n", "2", "--degmax", "2"],
                                monkeypatch, capsys)
    assert code == 0 and out and err.startswith("# candidates=")
    for line in out.splitlines():
        f, record = line.split("\t", 1)
        assert main(["mathieu", "--oracle", "image", "--n", "2", "--f", f.removeprefix("f="),
                     "--b", "z1"]) == 0
        assert record in capsys.readouterr().out.splitlines()
    # a candidate has a stable tail iff its last product is a member
    last = {line.split("\t", 1)[0]: line for line in out.splitlines()}
    stable = sum(line.split("\tverdict=")[1].startswith("member") for line in last.values())
    assert err.startswith(f"# candidates={len(last)} with_stable_tail={stable} ")


def test_mathieu_power_scan_keeps_the_candidates_before_a_cap_abort(monkeypatch, capsys):
    # x1 stays within degree 5 up to b*x1^4 = x1^4*z1; x1*z1, next, does not
    code, out, err = run_script("mathieu_power_scan.py", ["--degmax", "2", "--mmax", "4",
                                                          "--degree-cap", "5"], monkeypatch, capsys)
    assert (code, err) == (1, "aborted: degree of f^3 is 6, above the cap 5\n")
    assert [line.split("\t")[0] for line in out.splitlines()] == ["f=x1"] * 4


def test_verify_identities_refuses_what_the_cli_refuses(monkeypatch, capsys):
    # --n 0 used to end in a ValueError traceback; the ode suite's record count
    # is over the budget, so no suite may run, not even the two before it
    for bounds in (["--n", "0"], ["--degmax=-1"], ["--mmax", "200", "--kmax", "100"]):
        code, out, err = run_script("verify_identities.py", ["--quiet", *bounds],
                                    monkeypatch, capsys)
        suite = "ode" if "--mmax" in bounds else "ortho"
        assert main(["check", "--suite", suite, *bounds]) == 2
        cli_err = capsys.readouterr().err
        assert cli_err.startswith("staralg: error: ")
        assert (code, out, err) == (2, "", cli_err)
