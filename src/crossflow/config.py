"""Six-bit analysis configuration encoding and validity rules.

Bit order: staticGraph, contextSensitivity, flowSensitivity, methodEvent,
statementCoverage, methodInstanceLevel.  The sensitivity bits and statement
coverage are meaningful only with the static graph enabled, instance-level
granularity only with method events enabled, and at least one data source
must be enabled; 26 of the 64 encodings are valid.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

class InvalidConfigError(ValueError):
    def __init__(self, encoding: str, reason: str):
        super().__init__(f"invalid configuration {encoding}: {reason}")
        self.encoding = encoding
        self.reason = reason


class Configuration(NamedTuple):
    """One six-bit encoding; configurations sort in encoding order."""

    static_graph: bool
    context_sensitivity: bool
    flow_sensitivity: bool
    method_event: bool
    statement_coverage: bool
    method_instance_level: bool

    @classmethod
    def from_string(cls, encoding: str) -> "Configuration":
        if len(encoding) != 6 or set(encoding) - {"0", "1"}:
            raise ValueError(f"configuration must be 6 binary digits, got {encoding!r}")
        return cls(*(c == "1" for c in encoding))

    def encode(self) -> str:
        return "".join("1" if b else "0" for b in self)

    @property
    def static_bits(self) -> tuple[bool, bool, bool]:
        return self[:3]

    def invalid_reason(self) -> str | None:
        g, ctx, flow, ev, cov, inst = self
        if not any(self):
            return "no data selected (000000)"
        if not g and (ctx or flow or cov):
            return "sensitivities and statement coverage require the static graph"
        if inst and not ev:
            return "instance-level granularity requires method events"
        return None

    def is_valid(self) -> bool:
        return self.invalid_reason() is None

    def require_valid(self) -> "Configuration":
        reason = self.invalid_reason()
        if reason is not None:
            raise InvalidConfigError(self.encode(), reason)
        return self


MOST_PRECISE = Configuration.from_string("111111")


@lru_cache(maxsize=1)
def all_configurations() -> tuple[Configuration, ...]:
    return tuple(
        Configuration.from_string(format(i, "06b")) for i in range(64)
    )


@lru_cache(maxsize=1)
def valid_configurations() -> tuple[Configuration, ...]:
    return tuple(c for c in all_configurations() if c.is_valid())

