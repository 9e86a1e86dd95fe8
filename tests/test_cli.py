"""CLI: output contracts, exit codes, determinism."""

import dataclasses
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import staralg

from staralg import mathieu
from staralg.cli import (
    _HANDLERS,
    MAX_N,
    RECORD_BUDGET,
    SIZE_LIMITS,
    SUITES,
    _suite_records,
    build_parser,
    main,
)
from staralg.mathieu import DegreeCapExceeded
from staralg.report import OutputRecord
from staralg.syntax import MAX_EXPONENT, MAX_NESTING, MAX_TERM_PAIRS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_symbol_left_golden(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--n", "1", "--dir", "left",
                           "--input", "z1^2*d1^3")
    assert code == 0
    assert out == "x1^3*z1^2 - 6*x1^2*z1 + 6*x1\n"


def test_symbol_right_golden(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--n", "1", "--dir", "right",
                           "--input", "z1^2*d1^3")
    assert code == 0
    assert out == "x1^3*z1^2\n"


def test_symbol_interchange_directions(capsys):
    left_text = "x1^3*z1^2 - 6*x1^2*z1 + 6*x1"
    code, out, _ = run_cli(capsys, "symbol", "--n", "1", "--dir", "l2r",
                           "--input", left_text)
    assert code == 0 and out == "x1^3*z1^2\n"
    code, out, _ = run_cli(capsys, "symbol", "--n", "1", "--dir", "r2l",
                           "--input", "x1^3*z1^2")
    assert code == 0 and out == left_text + "\n"


def test_star_at_zero(capsys):
    code, out, _ = run_cli(capsys, "star", "--n", "1", "--t", "0",
                           "--f", "x1", "--g", "z1")
    assert code == 0 and out == "x1*z1\n"


def test_star_negative_t_equals_form(capsys):
    code, out, _ = run_cli(capsys, "star", "--n", "1", "--t=-1",
                           "--f", "x1", "--g", "z1")
    assert code == 0 and out == "x1*z1 + 1\n"


def test_phi_and_inverse(capsys):
    code, out, _ = run_cli(capsys, "phi", "--n", "1", "--t", "1", "--f", "x1*z1")
    assert code == 0 and out == "x1*z1 + 1\n"
    code, out, _ = run_cli(capsys, "phi", "--n", "1", "--t", "1", "--inverse",
                           "--f", "x1*z1 + 1")
    assert code == 0 and out == "x1*z1\n"


def test_taylor_lines(capsys):
    code, out, _ = run_cli(capsys, "taylor", "--n", "1", "--t", "1", "--f", "x1*z1")
    assert code == 0
    assert out == "alpha=0\ta=1\nalpha=1\ta=z1\n"


def test_apply(capsys):
    code, out, _ = run_cli(capsys, "apply", "--n", "1", "--op", "z1^2*d1^3",
                           "--poly", "z1^3")
    assert code == 0 and out == "6*z1^2\n"


def test_apply_rejects_x_operand(capsys):
    code, _, err = run_cli(capsys, "apply", "--n", "1", "--op", "d1", "--poly", "x1")
    assert code == 2 and "z variables" in err


def test_laguerre_routes_agree(capsys):
    outs = []
    for via in ("explicit", "star", "genfun"):
        code, out, _ = run_cli(capsys, "laguerre", "--n", "1", "--alpha", "2",
                               "--k", "0", "--via", via)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2] == "1/2*z1^2 - 2*z1 + 1\n"


def test_laguerre_two_variables(capsys):
    code, out, _ = run_cli(capsys, "laguerre", "--n", "2", "--alpha", "1,1",
                           "--k", "0,0")
    assert code == 0 and out == "z1*z2 - z1 - z2 + 1\n"


def test_check_suite_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "recur", "--mmax", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert all(line.startswith("kind=recur\t") for line in lines)
    assert all("verdict=pass" in line for line in lines)


def test_check_all_suites_smoke(capsys):
    argv_by_suite = {
        "ortho": ["--n", "1", "--k", "1", "--degmax", "2"],
        "recur": ["--mmax", "3"],
        "ode": ["--mmax", "3", "--kmax", "2"],
        "genfun": ["--kmax", "1", "--order", "3"],
        "starexp": ["--n", "1", "--k", "1", "--order", "2"],
        "even": ["--n", "1", "--degmax", "2"],
        "interchange": ["--n", "1", "--degmax", "3"],
        "oracles": ["--n", "1", "--t", "1", "--degmax", "2", "--count", "3"],
    }
    for suite, extra in argv_by_suite.items():
        code, out, _ = run_cli(capsys, "check", "--suite", suite, *extra)
        assert code == 0, f"suite {suite} failed"
        assert out


def test_mathieu_records(capsys):
    code, out, _ = run_cli(capsys, "mathieu", "--oracle", "image", "--n", "1",
                           "--t", "1", "--f", "x1", "--b", "z1", "--mmax", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == ("kind=mathieu\toracle=image_ev0\tt=1\tm=1\t"
                        "power=member\tverdict=member\tpayload=x1*z1 - 1")


def test_mathieu_laguerre_oracle(capsys):
    code, out, _ = run_cli(capsys, "mathieu", "--oracle", "laguerre", "--n", "1",
                           "--k", "0", "--f", "1 - z1", "--b", "z1", "--mmax", "4")
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def test_mathieu_laguerre_oracle_record(capsys):
    code, out, _ = run_cli(capsys, "mathieu", "--oracle", "laguerre", "--n", "2", "--k", "1,0",
                           "--f", "2 - z1", "--b", "z2 - 1", "--mmax", "2")
    assert code == 0
    assert out.split("\n")[1] == ("kind=mathieu\toracle=laguerre_span\tk=1,0\tm=2\t"
                                  "power=nonmember\tverdict=member\tpayload=z1^2*z2 - z1^2"
                                  " - 4*z1*z2 + 4*z1 + 4*z2 - 4")


def test_mathieu_degree_cap_aborts(capsys):
    code, _, err = run_cli(capsys, "mathieu", "--oracle", "image", "--n", "1",
                           "--t", "1", "--f", "x1^4", "--b", "z1", "--mmax", "8",
                           "--degree-cap", "12")
    assert code == 1
    assert "aborted" in err


@pytest.mark.parametrize("argv", [
    ["star", "--n", "2", "--t", "1/2", "--f", "x1*z2", "--g", "z1 + x2"],
    ["phi", "--n", "1", "--f", "x1^2*z1^2", "--inverse"],
    ["taylor", "--n", "1", "--f", "x1*z1^2"],
    ["symbol", "--n", "1", "--dir", "r2l", "--input", "x1*z1"],
    ["apply", "--n", "1", "--op", "z1*d1^2", "--poly", "z1^3"],
    ["laguerre", "--n", "1", "--alpha", "2", "--k", "1", "--via", "star"],
    ["check", "--suite", "interchange", "--n", "1", "--degmax", "2"],
    ["mathieu", "--oracle", "image", "--n", "1", "--f", "x1*z1", "--b", "z1", "--mmax", "2"],
], ids=lambda argv: argv[0])
def test_handlers_return_what_main_writes(capsys, argv):
    # a handler hands over lines or records and prints nothing; main writes
    # one line per item and exits 1 iff a record's verdict is fail
    args = build_parser().parse_args(argv)
    items = list(_HANDLERS[args.command](args))
    assert capsys.readouterr().out == ""
    assert items and all(isinstance(item, (str, OutputRecord)) for item in items)
    lines = [item if isinstance(item, str) else item.line() for item in items]
    code = int(any(getattr(item, "verdict", None) == "fail" for item in items))
    assert (code, "".join(line + "\n" for line in lines)) == run_cli(capsys, *argv)[:2]


def test_degree_cap_abort_is_mapped_by_main(capsys):
    argv = ["mathieu", "--oracle", "image", "--n", "1", "--f", "x1^4", "--b", "z1",
            "--mmax", "8", "--degree-cap", "12"]
    with pytest.raises(DegreeCapExceeded):  # before the first record
        next(iter(_HANDLERS["mathieu"](build_parser().parse_args(argv))))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("staralg: aborted: ")


def test_a_failing_record_mid_stream_exits_one(capsys, monkeypatch):
    # one record of the recur suite turned to fail: every record is still
    # written, in order, and the run exits 1 with nothing on stderr
    run, count = SUITES["recur"]

    def one_fails(args, k):
        for i, record in enumerate(run(args, k)):
            yield dataclasses.replace(record, verdict="fail") if i == 2 else record

    want = [r.line() for r in run(build_parser().parse_args(["check", "--suite", "recur"]), None)]
    want[2] = want[2].replace("verdict=pass", "verdict=fail")
    monkeypatch.setitem(SUITES, "recur", (one_fails, count))
    code, out, err = run_cli(capsys, "check", "--suite", "recur")
    assert (code, out, err) == (1, "".join(line + "\n" for line in want), "")
    assert len(want) == 16 and sum("verdict=fail" in line for line in want) == 1


def test_an_internal_fault_mid_stream_keeps_the_records_before_it(capsys, monkeypatch):
    # _x_divisible reads the power, then the product, at each m: its third
    # call, the power at m = 2, lies, after the m = 1 record is out
    real, calls = mathieu._x_divisible, []

    def lies_on_third_call(p):
        calls.append(p)
        return real(p) != (len(calls) == 3)

    monkeypatch.setattr(mathieu, "_x_divisible", lies_on_third_call)
    code, out, err = run_cli(capsys, "mathieu", "--oracle", "image", "--n", "1", "--f", "x1",
                             "--b", "z1", "--mmax", "4")
    assert code == 3
    assert out == ("kind=mathieu\toracle=image_ev0\tt=1\tm=1\tpower=member\tverdict=member"
                   "\tpayload=x1*z1 - 1\n")
    assert err.startswith("staralg: internal error: oracle image_ev0 at m=2 gives")
    assert len(calls) == 4  # the power and the product at m = 1 and 2, and no further


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("suite", ["ortho", "even", "starexp", "recur"])
def test_n_below_one_is_refused(capsys, suite, n):
    # ortho and even used to recurse without end, starexp printed nothing,
    # and recur, which ignores --n, ran as at n = 1
    code, out, err = run_cli(capsys, "check", "--suite", suite, f"--n={n}")
    assert (code, out, err) == (2, "", f"staralg: error: dimension must be >= 1, got {n}\n")


def test_stdin_dash(capsys, monkeypatch):
    import io

    cases = [
        ("x1*z1", ["phi", "--n", "1", "--t", "1", "--f", "-"], "x1*z1 + 1\n"),
        ("z1", ["mathieu", "--oracle", "image", "--n", "1", "--t", "1", "--f", "x1",
                "--b", "-", "--mmax", "1"],
         "kind=mathieu\toracle=image_ev0\tt=1\tm=1\tpower=member\tverdict=member\t"
         "payload=x1*z1 - 1\n"),
        ("z1^2*d1^3", ["symbol", "--n", "1", "--dir", "right", "--input", "-"],
         "x1^3*z1^2\n"),
    ]
    for text, argv, want in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == want, argv


def test_stdin_dash_only_once(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("x1"))
    code, _, err = run_cli(capsys, "star", "--n", "1", "--t", "1",
                           "--f", "-", "--g", "-")
    assert code == 2 and "at most one" in err


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "phi", "--n", "1", "--t", "bogus", "--f", "x1")
    assert code == 2 and "bad rational" in err
    code, _, err = run_cli(capsys, "phi", "--n", "1", "--t", "1", "--f", "x1 +")
    assert code == 2 and "end of input" in err
    code, _, err = run_cli(capsys, "laguerre", "--n", "2", "--alpha", "1",
                           "--k", "0,0")
    assert code == 2 and "alpha" in err


def test_oversized_inputs_are_refused(capsys):
    huge = str(10 ** 12)  # refused before anything of that size is built
    for argv in (["star", "--f", "x1", "--g", "z1"], ["phi", "--f", "x1*z1"],
                 ["taylor", "--f", "x1"], ["symbol", "--dir", "left", "--input", "d1"],
                 ["apply", "--op", "d1", "--poly", "z1"],
                 ["laguerre", "--alpha", "1", "--k", "0"], ["check", "--suite", "recur"],
                 ["mathieu", "--oracle", "image", "--f", "x1", "--b", "z1"]):
        code, out, err = run_cli(capsys, *argv, "--n", huge)
        assert code == 2 and not out
        assert err == f"staralg: error: --n {huge} is above the limit {MAX_N}\n"
    code, out, err = run_cli(capsys, "star", "--n", "1", "--f", f"x1^{huge}", "--g", "z1")
    assert code == 2 and not out
    assert f"exponent {huge} is above the limit {MAX_EXPONENT} (line 1, column 4)" in err
    code, out, _ = run_cli(capsys, "phi", "--n", str(MAX_N), "--f", f"x1^{MAX_EXPONENT}*z1")
    assert code == 0 and out == f"x1^{MAX_EXPONENT}*z1 + {MAX_EXPONENT}*x1^{MAX_EXPONENT - 1}\n"


@pytest.mark.parametrize("argv", [
    ["mathieu", "--oracle", "image", "--n", "1", "--f", "1", "--b", "z1", "--mmax"],
    *(["check", "--suite", suite, "--n", "1", f"--{name}"] for suite, name in [
        ("oracles", "count"), ("oracles", "degmax"), ("recur", "mmax"),
        ("ode", "kmax"), ("genfun", "order")]),
    ["mathieu", "--oracle", "image", "--n", "1", "--f", "1", "--b", "z1", "--degree-cap"],
])
def test_size_options_are_refused_above_their_limit(capsys, argv):
    huge = 10 ** 12  # refused before any work, instead of running for hours
    name = argv[-1][2:]
    code, out, err = run_cli(capsys, *argv, str(huge))
    assert code == 2 and not out
    limit = SIZE_LIMITS[name.replace("-", "_")]
    assert err == f"staralg: error: --{name} {huge} is above the limit {limit}\n"
    code, out, _ = run_cli(capsys, *argv, "1")
    assert code == 0 and out


def test_record_budget_refuses_before_the_suite_runs(capsys, monkeypatch):
    def entered(*args):
        raise AssertionError("the suite ran")

    for name in ("orthogonality_check", "interchange_check", "star_exp_check"):
        monkeypatch.setattr(f"staralg.cli.{name}", entered)
    monkeypatch.setattr("staralg.cli.mathieu.oracle_equivalence_scan", entered)
    for argv, records in (
            (["--suite", "oracles", "--n", "3", "--degmax", "40"], comb(46, 6) + 20),
            (["--suite", "starexp", "--n", "100", "--order", "32"], 100 * 33 + comb(132, 32)),
            (["--suite", "ortho", "--n", "2", "--degmax", "40"], comb(42, 2) ** 2),
            (["--suite", "interchange", "--n", "3", "--degmax", "12"], 2 * comb(18, 6))):
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == 2 and not out
        assert err == (f"staralg: error: --suite {argv[1]} at these sizes prints {records} "
                       f"records, above the budget {RECORD_BUDGET}\n")


def test_record_budget_admits_benchmark_bounds_and_defaults():
    # every suite at its defaults; then, per suite, the largest bounds of the
    # benchmark's check_suites pass (perfbench/gen.py), genfun as CI runs it,
    # and single options at their limits
    for suite in SUITES:
        for n in (1, 2, 3):
            args = build_parser().parse_args(["check", "--suite", suite, "--n", str(n)])
            assert _suite_records(args) <= RECORD_BUDGET
    for argv in (["--suite", "interchange", "--n", "3", "--degmax", "5"],
                 ["--suite", "oracles", "--n", "3", "--degmax", "5", "--count", "40"],
                 ["--suite", "ortho", "--n", "2", "--degmax", "5"],
                 ["--suite", "even", "--n", "2", "--degmax", "5"],
                 ["--suite", "ode", "--mmax", "12", "--kmax", "6"],
                 ["--suite", "recur", "--mmax", "16"],
                 ["--suite", "starexp", "--n", "3", "--order", "6"],
                 ["--suite", "genfun", "--kmax", "100", "--order", "32"],
                 ["--suite", "oracles", "--count", "10000"],
                 ["--suite", "ortho", "--degmax", "40"]):
        args = build_parser().parse_args(["check", *argv])
        assert _suite_records(args) <= RECORD_BUDGET


def test_record_counts_match_the_suites(capsys):
    for suite in SUITES:
        for n in (1, 2, 3):
            argv = ["check", "--suite", suite, "--n", str(n), "--degmax", "2", "--mmax", "3",
                    "--kmax", "2", "--order", "3", "--count", "4"]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert len(out.splitlines()) == _suite_records(build_parser().parse_args(argv))


def test_argparse_usage_error_exit_two(capsys):
    code = main(["unknown-subcommand"])
    capsys.readouterr()
    assert code == 2


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_help_unchanged_by_earlier_requests(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    commands = ["star", "phi", "taylor", "symbol", "apply", "laguerre", "check", "mathieu"]

    def helps():
        out = {}
        for cmd in ["", *commands]:
            code, text, _ = run_cli(capsys, *filter(None, [cmd, "--help"]))
            assert code == 0 and text
            out[cmd] = text
        return out

    before = helps()
    run_cli(capsys, "star", "--n", "2", "--f", "x1", "--g", "z2")
    run_cli(capsys, "symbol", "--n", "1", "--dir", "l2r", "--input", "x1*z1")
    run_cli(capsys, "check", "--suite", "recur", "--mmax", "2")
    run_cli(capsys, "phi", "--n", "1", "--f", "x1 +")
    run_cli(capsys, "laguerre", "--n", "1")
    assert helps() == before


def test_cli_determinism(capsys):
    args = ["check", "--suite", "oracles", "--n", "1", "--t", "2/3",
            "--degmax", "3", "--count", "5", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_closed_stdout_exits_quietly():
    # the suite prints about 170 KiB, more than a pipe holds, so a write fails
    env = {**os.environ, "PYTHONPATH": str(Path(staralg.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "staralg", "check", "--suite", "oracles", "--n", "2",
         "--degmax", "12"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"kind=oracles\t")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize("text", ["x\u0661 + 1", "\u0663*z1", "x\u00b2"],
                         ids=["arabic-indic-index", "arabic-indic-integer", "superscript-index"])
def test_non_ascii_digits_are_usage_errors(capsys, text):
    code, out, err = run_cli(capsys, "phi", "--n", "1", "--f", text)
    assert code == 2 and not out
    assert err.startswith("staralg: error: ") and err.endswith("(line 1, column 1)\n")


@pytest.mark.parametrize("text, want_code, want", [
    ("(" * 10000 + "x1" + ")" * 10000, 2,
     f"nesting depth {MAX_NESTING + 1} is above the limit {MAX_NESTING} "
     f"(line 1, column {MAX_NESTING + 1})"),
    ("-" * 10000, 2, "unexpected end of input (line 1, column 10001)"),
    ("-" * 10001 + "x1", 0, "-x1"),
], ids=["parentheses", "signs-alone", "signs-before-x1"])
def test_deep_input_does_not_recurse(capsys, text, want_code, want):
    code, out, err = run_cli(capsys, "phi", "--n", "1", f"--f={text}")
    assert code == want_code
    assert (out, err) == ((want + "\n", "") if code == 0 else ("", f"staralg: error: {want}\n"))


def test_closed_stdout_exits_quietly_when_the_output_is_buffered():
    # the output fits in the stdout buffer, so the write that fails is the
    # final flush, not a print inside a handler
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(staralg.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "staralg", "phi", "--n", "1", "--f", "x1"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["program", "check"])
def test_help_into_a_closed_stdout_exits_quietly(argv):
    # argparse prints the help into the stdout buffer and exits; the flush
    # that fails must still map to 141, with nothing on stderr
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(staralg.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "staralg", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["program", "check"])
def test_unbuffered_help_into_a_closed_stdout_exits_quietly(argv):
    # unbuffered, the help's own write fails, inside argparse, which would
    # swallow the error and exit 0
    env = {**os.environ, "PYTHONUNBUFFERED": "1",
           "PYTHONPATH": str(Path(staralg.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "staralg", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("suite", ["ortho", "ode", "even", "interchange", "oracles"])
def test_negative_sizes_are_refused(capsys, suite):
    # these suites used to print nothing and exit 0 for sizes below 0
    code, out, err = run_cli(capsys, "check", "--suite", suite, "--degmax=-1", "--mmax=-1",
                             "--kmax=-1", "--order=-1", "--count=0")
    assert (code, out, err) == (2, "", "staralg: error: --degmax -1 is below the limit 0\n")


@pytest.mark.parametrize("name", [*SIZE_LIMITS])
def test_each_size_option_is_refused_below_zero_and_accepted_at_zero(capsys, name):
    flag = name.replace("_", "-")
    argv = (["mathieu", "--oracle", "image", "--n", "1", "--f", "1", "--b", "1"]
            if name == "degree_cap" else ["check", "--suite", "ode", "--mmax", "1", "--kmax", "1"])
    code, out, err = run_cli(capsys, *argv, f"--{flag}=-1")
    assert (code, out, err) == (2, "", f"staralg: error: --{flag} -1 is below the limit 0\n")
    code, out, err = run_cli(capsys, *argv, f"--{flag}=0")
    assert code == 0 and out and not err


@pytest.mark.parametrize("argv", [
    ["mathieu", "--oracle", "image", "--n", "1", "--f", "x1", "--b", "z1"],
    ["mathieu", "--oracle", "laguerre", "--n", "1", "--f", "z1", "--b", "z1"],
    ["check", "--suite", "recur"],
], ids=["image", "laguerre", "recur"])
def test_mmax_zero_is_refused_where_m_counts_from_one(capsys, argv):
    # these used to reach the engine and fail there with a ValueError
    code, out, err = run_cli(capsys, *argv, "--mmax", "0")
    assert (code, out, err) == (2, "", "staralg: error: --mmax 0 is below the limit 1\n")
    code, out, err = run_cli(capsys, *argv, "--mmax", "1")
    assert code == 0 and out and not err


@pytest.mark.parametrize("target, argv", [
    ("staralg.cli.star", ["star", "--n", "1", "--f", "x1", "--g", "z1"]),
    ("staralg.laguerre.laguerre1", ["check", "--suite", "recur"]),
], ids=["star", "recur"])
def test_an_engine_value_error_exits_three(capsys, monkeypatch, target, argv):
    # every input fault is refused before the engine, so a ValueError from it is a bug
    def broken(*args):
        raise ValueError("mi_sub went negative")

    monkeypatch.setattr(target, broken)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", "staralg: internal error: mi_sub went negative\n")


def test_expressions_over_the_term_budget_exit_two(capsys):
    # (x1+x2+z1+z2)^200 has C(203, 3) terms; its powers used to run for minutes
    code, out, err = run_cli(capsys, "star", "--n", "2", "--f", "(x1+x2+z1+z2)^200", "--g", "1")
    assert (code, out) == (2, "")
    assert err.startswith("staralg: error: ") and err.endswith(
        f"term pairs to multiply is above the limit {MAX_TERM_PAIRS} (line 1, column 15)\n")
    code, out, err = run_cli(capsys, "phi", "--n", "1", "--f", "1" * 5000)
    assert (code, out, err) == (2, "", "staralg: error: integer too long: 5000 digits "
                                       "(line 1, column 1)\n")
