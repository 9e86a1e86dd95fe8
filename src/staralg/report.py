"""Machine-readable result records.

Every check case and every experiment step serializes to exactly one line
of tab-separated key=value fields in a fixed order:

    kind=<kind>  <param>=<value> ...  verdict=<verdict>  payload=<text>

Producers pass raw values and ``OutputRecord.of`` renders each one by a
single rule: a Poly prints canonically (``format_poly``), a tuple is
comma-joined, anything else goes through ``str``.  Parameters keep keyword
order.  Lines are deterministic for identical inputs, so logs are diffable
and stream-processable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly import Poly, format_poly


class InternalFault(RuntimeError):
    """A result contradicts the theory or a second route: a bug, not bad input."""


def _text(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return format_poly(value) if isinstance(value, Poly) else str(value)


@dataclass(frozen=True)
class OutputRecord:
    kind: str
    params: tuple[tuple[str, str], ...]
    verdict: str
    payload: str = ""

    @classmethod
    def of(cls, kind: str, verdict: str, payload: object = "", **params: object) -> OutputRecord:
        """The record with each parameter and the payload rendered as text."""
        return cls(kind, tuple((k, _text(v)) for k, v in params.items()), verdict, _text(payload))

    def line(self) -> str:
        params = "".join(f"\t{k}={v}" for k, v in self.params)
        return f"kind={self.kind}{params}\tverdict={self.verdict}\tpayload={self.payload}"


@dataclass
class Report:
    """A batch of records plus the aggregate outcome set by the producer."""

    records: list[OutputRecord] = field(default_factory=list)
    ok: bool = True

    def add(self, kind: str, passed: bool, payload: object = "", **params: object) -> None:
        """Append one pass/fail record and fold its verdict into ``ok``."""
        self.ok = self.ok and passed
        self.records.append(OutputRecord.of(kind, "pass" if passed else "fail", payload, **params))

    @property
    def first_failure(self) -> OutputRecord | None:
        for r in self.records:
            if r.verdict == "fail":
                return r
        return None
