from fractions import Fraction

from staralg.poly import Poly
from staralg.report import OutputRecord, Report


def test_record_renders_each_value_by_one_rule():
    p = Poly(1, {((1,), (1,)): Fraction(1, 2), ((0,), (0,)): -1})
    record = OutputRecord.of("demo", "pass", p, alpha=(2, 0), xi=(Fraction(1, 2), 3),
                             m=7, t=Fraction(-2, 3), source="monomial")
    assert record.params == (("alpha", "2,0"), ("xi", "1/2,3"), ("m", "7"), ("t", "-2/3"),
                             ("source", "monomial"))
    assert record.payload == "1/2*x1*z1 - 1"
    assert record.line() == ("kind=demo\talpha=2,0\txi=1/2,3\tm=7\tt=-2/3\tsource=monomial"
                             "\tverdict=pass\tpayload=1/2*x1*z1 - 1")


def test_record_fields_keep_keyword_order():
    assert [k for k, _ in OutputRecord.of("demo", "pass", b=1, a=2, c=3).params] == ["b", "a", "c"]
    assert OutputRecord.of("demo", "fail", Fraction(3, 4)).line() == (
        "kind=demo\tverdict=fail\tpayload=3/4")
    assert OutputRecord.of("demo", "pass", Poly.zero(2)).payload == "0"


def test_report_add_folds_verdicts():
    report = Report()
    report.add("demo", True, m=1)
    report.add("demo", False, 0, m=2)
    report.add("demo", True, m=3)
    assert not report.ok
    assert [r.verdict for r in report.records] == ["pass", "fail", "pass"]
    assert report.first_failure.line() == "kind=demo\tm=2\tverdict=fail\tpayload=0"
