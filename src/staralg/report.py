"""Machine-readable result records.

Every check case and every experiment step serializes to exactly one line
of tab-separated key=value fields in a fixed order:

    kind=<kind>  <param>=<value> ...  verdict=<verdict>  payload=<text>

Lines are deterministic for identical inputs, so logs are diffable and
stream-processable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class OutputRecord:
    kind: str
    params: tuple[tuple[str, str], ...]
    verdict: str
    payload: str = ""

    def line(self) -> str:
        fields = [f"kind={self.kind}"]
        fields.extend(f"{k}={v}" for k, v in self.params)
        fields.append(f"verdict={self.verdict}")
        fields.append(f"payload={self.payload}")
        return "\t".join(fields)


@dataclass
class Report:
    """A batch of records plus the aggregate outcome set by the producer."""

    records: list[OutputRecord] = field(default_factory=list)
    ok: bool = True

    def add(self, kind: str, params: tuple[tuple[str, str], ...], passed: bool,
            payload: str = "") -> None:
        """Append one pass/fail record and fold its verdict into ``ok``."""
        self.ok = self.ok and passed
        self.records.append(OutputRecord(kind, params, "pass" if passed else "fail", payload))

    @property
    def first_failure(self) -> OutputRecord | None:
        for r in self.records:
            if r.verdict == "fail":
                return r
        return None
