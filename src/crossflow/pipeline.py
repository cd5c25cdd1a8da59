"""End-to-end flow-path analysis over a trace bundle.

Three pipeline modes trade pre-analysis work against tracing scope:

  default  events are restricted to relevant methods (those on static
           control-flow paths between sources and sinks, with message
           callsites acting as extra sinks/sources) before both phases run;
  sim      no relevance filtering, all events are consumed directly;
  mul      the first phase sees only first/last method event instances, then
           the second phase re-reads full instances for path methods only.

Phase 2 and the ``mul`` restriction read the pair method sets of the one
phase-1 pass (``PathSet.pairs``); its capped path enumeration only feeds
``phase1.txt`` and ``summary.txt``.

On deterministic traces all three produce identical statement-level paths.
The statement-level static stage always uses the context-insensitive,
intraprocedurally flow-sensitive graph variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .methodpaths import DEFAULT_PATH_LIMIT, PathSet, method_level_paths
from .staticgraph import (
    SourceSinkConfig,
    StaticDepGraph,
    coverage_from_branches,
    relevant_methods,
)
from .stmtpaths import DEFAULT_STMT_PATH_LIMIT, Phase2Result, phase2
from .trace import (
    ProcessTrace,
    TraceMap,
    filter_traces,
    first_entries,
    reduce_first_last,
)

MODES = ("default", "sim", "mul")
PHASE2_VARIANT = (False, True)  # context-insensitive, flow-sensitive


class ModeError(ValueError):
    pass


@dataclass(frozen=True)
class FlowAnalysis:
    phase1: PathSet
    phase2: Phase2Result


def direct_coverage(traces: Mapping[str, ProcessTrace]) -> set[str]:
    return {
        ev.stmt_id
        for trace in traces.values()
        for ev in trace.events
        if ev.kind == "stmt_cover"
    }


def inferred_coverage(
    graph: StaticDepGraph, traces: Mapping[str, ProcessTrace]
) -> set[str]:
    taken = {
        ev.branch_id
        for trace in traces.values()
        for ev in trace.events
        if ev.kind == "branch"
    }
    return coverage_from_branches(graph, taken, first_entries(traces))


def analyze_flows(
    traces: TraceMap,
    graphs: Mapping[tuple[bool, bool], StaticDepGraph],
    cfg: SourceSinkConfig,
    mode: str = "default",
    path_limit: int = DEFAULT_PATH_LIMIT,
    stmt_path_limit: int = DEFAULT_STMT_PATH_LIMIT,
    strict_splice: bool = False,
    coverage_style: str = "direct",
) -> FlowAnalysis:
    if mode not in MODES:
        raise ModeError(f"unknown pipeline mode {mode!r}")
    graph = graphs[PHASE2_VARIANT]
    cfg.require_nonempty()

    if mode == "default":
        phase1_traces: TraceMap = filter_traces(traces, relevant_methods(graph, cfg))
        phase2_traces = phase1_traces
    elif mode == "sim":
        phase1_traces = traces
        phase2_traces = traces
    else:  # mul: pre-analysis on first/last instances, refinement on full
        phase1_traces = {
            proc: reduce_first_last(trace) for proc, trace in traces.items()
        }
        phase2_traces = traces

    owner = dict(graph.nodes)
    src_methods = {owner[s] for s in cfg.sources if s in owner}
    sink_methods = {owner[t] for t in cfg.sinks if t in owner}
    p1 = method_level_paths(
        phase1_traces, src_methods, sink_methods, path_limit=path_limit
    )
    if mode == "mul":
        phase2_traces = filter_traces(traces, set().union(*p1.pairs.values()))

    if coverage_style == "direct":
        coverage = direct_coverage(phase2_traces)
    else:
        coverage = inferred_coverage(graph, phase2_traces)

    p2 = phase2(
        graph, p1.pairs, phase2_traces, coverage, cfg,
        path_limit=stmt_path_limit, strict_splice=strict_splice,
    )
    return FlowAnalysis(phase1=p1, phase2=p2)
