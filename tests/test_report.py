from fractions import Fraction

from staralg.poly import Poly
from staralg.report import OutputRecord, check


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


def test_check_builds_pass_and_fail_records():
    records = [check("demo", True, m=1), check("demo", False, 0, m=2), check("demo", True, m=3)]
    assert [r.verdict for r in records] == ["pass", "fail", "pass"]
    assert records[1].line() == "kind=demo\tm=2\tverdict=fail\tpayload=0"
    assert records[0] == OutputRecord.of("demo", "pass", m=1)
