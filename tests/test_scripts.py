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
