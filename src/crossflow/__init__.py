"""Trace-driven analysis toolkit for distributed program executions.

Computes cross-process information-flow paths by two-phase refinement over
Lamport-ordered event traces, runs a self-tuning online dependence analysis
governed by Q-learning under a time budget, and measures interprocess
coupling/cohesion with statistical quality analysis.  A deterministic
multi-process simulator supplies traces, static dependence graphs, and
ground-truth oracles.
"""

__version__ = "0.1.0"

from .trace import (
    EventRecord,
    MethodId,
    ProcessTrace,
    merge_global,
    stamp_lamport,
)

__all__ = [
    "EventRecord",
    "MethodId",
    "ProcessTrace",
    "merge_global",
    "stamp_lamport",
    "__version__",
]
