"""Machine-readable result records.

Every check case and every experiment step serializes to exactly one line
of tab-separated key=value fields in a fixed order:

    kind=<kind>  <param>=<value> ...  verdict=<verdict>  payload=<text>

Producers pass raw values and ``OutputRecord.of`` (or ``check``, for a
pass/fail case) renders each one by a single rule: a Poly prints canonically
(``format_poly``), a tuple is comma-joined, anything else goes through
``str``.  Parameters keep keyword order.  Lines are deterministic for
identical inputs, so logs are diffable and stream-processable.

Check suites and power experiments are generators: each record is written
as it is computed, before the next one is, so nothing holds a whole run and
a reader that stops early (``staralg check ... | head``) stops the work.  A
power experiment checks its degree cap for every power before its first
record, so an abort writes none; an internal fault mid-run (exit 3) leaves
the records before it written.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Poly, format_poly


class InternalFault(RuntimeError):
    """A result contradicts the theory or a second route: a bug, not bad input."""


def _text(value: object) -> str:
    if type(value) is str:
        return value
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return format_poly(value) if isinstance(value, Poly) else str(value)


def _fields(params: dict[str, object]) -> tuple[tuple[str, str], ...]:
    """Keyword parameters, packed once by the caller, rendered in order."""
    return tuple([(k, _text(v)) for k, v in params.items()])


@dataclass(frozen=True)
class OutputRecord:
    kind: str
    params: tuple[tuple[str, str], ...]
    verdict: str
    payload: str = ""

    @classmethod
    def of(cls, kind: str, verdict: str, payload: object = "", **params: object) -> OutputRecord:
        """The record with each parameter and the payload rendered as text."""
        return cls(kind, _fields(params), verdict, _text(payload))

    def line(self) -> str:
        params = "".join(f"\t{k}={v}" for k, v in self.params)
        return f"kind={self.kind}{params}\tverdict={self.verdict}\tpayload={self.payload}"


def check(kind: str, passed: bool, payload: object = "", **params: object) -> OutputRecord:
    """The record of one check case: verdict pass or fail."""
    return OutputRecord(kind, _fields(params), "pass" if passed else "fail", _text(payload))
