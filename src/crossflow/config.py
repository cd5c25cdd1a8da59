"""Six-bit analysis configuration encoding and validity rules.

Bit order: staticGraph, contextSensitivity, flowSensitivity, methodEvent,
statementCoverage, methodInstanceLevel.  The sensitivity bits and statement
coverage are meaningful only with the static graph enabled, instance-level
granularity only with method events enabled, and at least one data source
must be enabled; 26 of the 64 encodings are valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

class InvalidConfigError(ValueError):
    def __init__(self, encoding: str, reason: str):
        super().__init__(f"invalid configuration {encoding}: {reason}")
        self.encoding = encoding
        self.reason = reason


@dataclass(frozen=True, order=True)
class Configuration:
    bits: tuple[bool, bool, bool, bool, bool, bool]

    @classmethod
    def from_string(cls, encoding: str) -> "Configuration":
        if len(encoding) != 6 or set(encoding) - {"0", "1"}:
            raise ValueError(f"configuration must be 6 binary digits, got {encoding!r}")
        return cls(tuple(c == "1" for c in encoding))

    def encode(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    @property
    def static_graph(self) -> bool:
        return self.bits[0]

    @property
    def context_sensitivity(self) -> bool:
        return self.bits[1]

    @property
    def flow_sensitivity(self) -> bool:
        return self.bits[2]

    @property
    def method_event(self) -> bool:
        return self.bits[3]

    @property
    def statement_coverage(self) -> bool:
        return self.bits[4]

    @property
    def method_instance_level(self) -> bool:
        return self.bits[5]

    @property
    def static_bits(self) -> tuple[bool, bool, bool]:
        return self.bits[:3]

    def invalid_reason(self) -> str | None:
        g, ctx, flow, ev, cov, inst = self.bits
        if not any(self.bits):
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

