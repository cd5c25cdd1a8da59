"""Statement-level flow path refinement.

Builds a dynamic dependence graph by activating static edges against the
merged event sequence, prunes it with statement coverage, discovers per-trace
path segments, and splices segments at message junctions:

  * an adjacent interprocedural edge activates only when the dependent method
    executes immediately after the depended-on one (no method event between,
    within their shared process),
  * a posterior edge activates when the dependent method executes anywhere
    after it,
  * all intraprocedural edges of executed methods activate.

Interprocess paths are rebuilt from a source segment, any number of remote
segments, and a sink segment whose outlet/inlet junction events are adjacent
in the merged order restricted to the junction processes' message-callsite
events (the strict variant restricts over all events instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .methodpaths import PathSet
from .staticgraph import StaticDepGraph, SourceSinkConfig, partial_graph, reachable
from .trace import (
    GlobalOrder,
    MethodId,
    ProcessTrace,
    merge_global,
)

DEFAULT_STMT_PATH_LIMIT = 24


@dataclass(frozen=True)
class DynDepGraph:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    methods: Mapping[str, MethodId]

    def out_adj(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {}
        for a, b in sorted(self.edges):
            adj.setdefault(a, []).append(b)
        return adj


@dataclass(frozen=True)
class StmtFlowPath:
    stmts: tuple[str, ...]
    segment_kind: str

    def render(self) -> str:
        return " -> ".join(self.stmts)


@dataclass(frozen=True)
class InletOutletIndex:
    """Message callsites on path methods, with their event timestamps."""

    inlets: Mapping[str, tuple[int, ...]]
    outlets: Mapping[str, tuple[int, ...]]

    @classmethod
    def build(
        cls,
        traces: Mapping[str, ProcessTrace],
        path_methods: set[MethodId],
    ) -> "InletOutletIndex":
        inlets: dict[str, list[int]] = {}
        outlets: dict[str, list[int]] = {}
        for trace in traces.values():
            for ev in trace.events:
                if ev.method not in path_methods or ev.stmt_id is None:
                    continue
                if ev.kind == "recv":
                    inlets.setdefault(ev.stmt_id, []).append(ev.ts)
                elif ev.kind == "send":
                    outlets.setdefault(ev.stmt_id, []).append(ev.ts)
        return cls(
            {s: tuple(v) for s, v in inlets.items()},
            {s: tuple(v) for s, v in outlets.items()},
        )


def _method_event_seq(trace: ProcessTrace) -> list[MethodId]:
    return [ev.method for ev in trace.events if ev.kind in ("entry", "returned_into")]


def build_ddg(
    sdg: StaticDepGraph,
    source_stmt: str,
    sink_stmt: str,
    traces: Mapping[str, ProcessTrace],
    inlets: Iterable[str] = (),
    outlets: Iterable[str] = (),
) -> DynDepGraph:
    """Activate static dependencies against the execution events.

    The graph is grown from the source (with inlets as additional start
    points) and keeps only nodes from which the sink or an outlet is still
    reachable; an unexecuted source or sink method yields the empty graph.
    """
    adjacent_pairs: set[tuple[MethodId, MethodId]] = set()
    first_pos: dict[MethodId, int] = {}
    last_pos: dict[MethodId, int] = {}
    executed: set[MethodId] = set()
    for trace in traces.values():
        seq = _method_event_seq(trace)
        for i, m in enumerate(seq):
            executed.add(m)
            first_pos.setdefault(m, i)
            last_pos[m] = i
            if i + 1 < len(seq):
                adjacent_pairs.add((m, seq[i + 1]))

    src_method = sdg.nodes.get(source_stmt)
    sink_method = sdg.nodes.get(sink_stmt)
    if src_method not in executed or sink_method not in executed:
        return DynDepGraph(frozenset(), frozenset(), {})

    active: set[tuple[str, str]] = set()
    for e in sdg.edges:
        m1, m2 = sdg.nodes[e.src], sdg.nodes[e.dst]
        if m1 not in executed or m2 not in executed:
            continue
        if e.kind in ("intra_data", "intra_control"):
            active.add((e.src, e.dst))
        elif e.kind == "inter_adjacent":
            if (m1, m2) in adjacent_pairs:
                active.add((e.src, e.dst))
        elif e.kind == "inter_posterior":
            if m1.process == m2.process and first_pos[m1] <= last_pos[m2]:
                active.add((e.src, e.dst))

    starts = {source_stmt} | (set(inlets) & set(sdg.nodes))
    ends = {sink_stmt} | (set(outlets) & set(sdg.nodes))
    fwd: dict[str, list[str]] = {}
    rev: dict[str, list[str]] = {}
    for a, b in active:
        fwd.setdefault(a, []).append(b)
        rev.setdefault(b, []).append(a)
    reach_fwd = reachable(fwd, starts)
    reach_rev = reachable(rev, ends)
    keep = reach_fwd & reach_rev
    return DynDepGraph(
        nodes=frozenset(keep),
        edges=frozenset((a, b) for a, b in active if a in keep and b in keep),
        methods={s: sdg.nodes[s] for s in keep},
    )


def prune_ddg(ddg: DynDepGraph, coverage: Iterable[str]) -> DynDepGraph:
    """Drop uncovered statements and their edges."""
    keep = ddg.nodes & set(coverage)
    return DynDepGraph(
        nodes=frozenset(keep),
        edges=frozenset((a, b) for a, b in ddg.edges if a in keep and b in keep),
        methods={s: m for s, m in ddg.methods.items() if s in keep},
    )


def find_paths(
    ddg: DynDepGraph,
    ins: Iterable[str],
    outs: Iterable[str],
    allowed_methods: set[MethodId],
    limit: int = DEFAULT_STMT_PATH_LIMIT,
) -> list[tuple[str, ...]]:
    """All simple paths from ``ins`` to ``outs`` over statements whose
    enclosing methods executed in the given trace restriction."""
    allowed = {
        s for s in ddg.nodes if ddg.methods[s] in allowed_methods
    }
    starts = sorted(set(ins) & allowed)
    ends = set(outs) & allowed
    adj = ddg.out_adj()
    out: list[tuple[str, ...]] = []
    seen_paths: set[tuple[str, ...]] = set()

    def walk(node: str, path: list[str]) -> None:
        if node in ends:
            t = tuple(path)
            if t not in seen_paths:
                seen_paths.add(t)
                out.append(t)
        if len(path) >= limit:
            return
        for nxt in adj.get(node, ()):
            if nxt in allowed and nxt not in path:
                path.append(nxt)
                walk(nxt, path)
                path.pop()

    for s in starts:
        walk(s, [s])
    return out


def splice_segments(
    source_segs: Sequence[tuple[str, ...]],
    remote_segs: Sequence[tuple[str, ...]],
    sink_segs: Sequence[tuple[str, ...]],
    order: GlobalOrder,
    index: InletOutletIndex,
    strict: bool = False,
    stmt_methods: Optional[Mapping[str, MethodId]] = None,
) -> list[StmtFlowPath]:
    """Concatenate source, remote, and sink segments whose junctions have no
    intervening inlet/outlet events (or no intervening events at all when
    ``strict``)."""
    junction_seq = [
        ev
        for ev in order.merged
        if strict
        or (
            ev.kind in ("send", "recv")
            and ev.stmt_id is not None
            and (ev.stmt_id in index.inlets or ev.stmt_id in index.outlets)
        )
    ]

    def junction_ok(out_stmt: str, in_stmt: str) -> bool:
        if strict or stmt_methods is None:
            sub = junction_seq  # literal reading: the whole merged sequence
        else:
            proc_a = stmt_methods[out_stmt].process
            proc_b = stmt_methods[in_stmt].process
            sub = [
                ev for ev in junction_seq if ev.process in (proc_a, proc_b)
            ]
        for e1, e2 in zip(sub, sub[1:]):
            if (
                e1.kind == "send"
                and e1.stmt_id == out_stmt
                and e2.kind == "recv"
                and e2.stmt_id == in_stmt
            ):
                return True
        return False

    spliced: list[StmtFlowPath] = []
    seen: set[tuple[str, ...]] = set()

    def extend(prefix: tuple[str, ...], used: frozenset[int]) -> None:
        # close with a sink segment
        for sink_seg in sink_segs:
            if junction_ok(prefix[-1], sink_seg[0]):
                full = prefix + sink_seg
                if full not in seen:
                    seen.add(full)
                    spliced.append(StmtFlowPath(full, "spliced"))
        # or continue through an unused remote segment
        for i, remote_seg in enumerate(remote_segs):
            if i in used:
                continue
            if junction_ok(prefix[-1], remote_seg[0]):
                extend(prefix + remote_seg, used | {i})

    for source_seg in source_segs:
        extend(tuple(source_seg), frozenset())
    spliced.sort(key=lambda p: p.stmts)
    return spliced


@dataclass(frozen=True)
class PairResult:
    source_stmt: str
    sink_stmt: str
    intra: tuple[StmtFlowPath, ...]
    interprocess: tuple[StmtFlowPath, ...]


@dataclass(frozen=True)
class Phase2Result:
    pairs: tuple[PairResult, ...]

    def intra_paths(self) -> list[StmtFlowPath]:
        return [p for pair in self.pairs for p in pair.intra]

    def interprocess_paths(self) -> list[StmtFlowPath]:
        return [p for pair in self.pairs for p in pair.interprocess]

    def all_stmt_sequences(self) -> set[tuple[str, ...]]:
        return {
            p.stmts
            for pair in self.pairs
            for p in list(pair.intra) + list(pair.interprocess)
        }


def phase2(
    sdg: StaticDepGraph,
    method_paths: PathSet,
    traces: Mapping[str, ProcessTrace],
    coverage: set[str],
    cfg: SourceSinkConfig,
    path_limit: int = DEFAULT_STMT_PATH_LIMIT,
    strict_splice: bool = False,
) -> Phase2Result:
    """Statement-level flow paths for every covered source/sink callsite pair."""
    cfg.require_nonempty()
    if not method_paths.paths:
        return Phase2Result(())
    order = merge_global(traces)
    executed_by_proc: dict[str, set[MethodId]] = {
        proc: {ev.method for ev in trace.events} for proc, trace in traces.items()
    }

    by_pair: dict[tuple[MethodId, MethodId], set[MethodId]] = {}
    for p in method_paths.paths:
        key = (p.source_method, p.sink_method)
        by_pair.setdefault(key, set()).update(p.methods)

    results = []
    for s in sorted(cfg.sources):
        for t in sorted(cfg.sinks):
            ms, mt = sdg.nodes.get(s), sdg.nodes.get(t)
            if ms is None or mt is None:
                continue
            path_methods = by_pair.get((ms, mt))
            if not path_methods:
                continue
            partial = partial_graph(sdg, path_methods)
            index = InletOutletIndex.build(traces, path_methods)
            ddg = build_ddg(
                partial, s, t, traces,
                inlets=index.inlets, outlets=index.outlets,
            )
            ddg = prune_ddg(ddg, coverage)
            if not ddg.nodes:
                continue
            src_proc, sink_proc = ms.process, mt.process
            outlet_stmts = set(index.outlets)
            inlet_stmts = set(index.inlets)

            source_segs = find_paths(
                ddg, {s}, outlet_stmts, executed_by_proc[src_proc], path_limit
            )
            intra: list[StmtFlowPath] = []
            if src_proc == sink_proc:
                intra = [
                    StmtFlowPath(p, "intra")
                    for p in find_paths(
                        ddg, {s}, {t}, executed_by_proc[src_proc], path_limit
                    )
                ]
            remote_segs: list[tuple[str, ...]] = []
            for proc in sorted(traces):
                if proc in (src_proc, sink_proc):
                    continue
                remote_segs.extend(
                    find_paths(
                        ddg, inlet_stmts, outlet_stmts,
                        executed_by_proc[proc], path_limit,
                    )
                )
            sink_segs = find_paths(
                ddg, inlet_stmts, {t}, executed_by_proc[sink_proc], path_limit
            )
            spliced = splice_segments(
                source_segs, remote_segs, sink_segs, order, index,
                strict=strict_splice, stmt_methods=ddg.methods,
            )
            results.append(
                PairResult(s, t, tuple(intra), tuple(spliced))
            )
    return Phase2Result(tuple(results))


def render_stmt_paths(result: Phase2Result) -> str:
    lines = []
    for pair in result.pairs:
        for p in pair.intra:
            lines.append(f"path level=stmt kind=intra {p.render()}")
        for p in pair.interprocess:
            lines.append(f"path level=stmt kind=spliced {p.render()}")
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def summary_counts(result: Phase2Result) -> dict[str, int]:
    """Pair and path counts, intraprocess versus interprocess."""
    ir_pairs = sum(1 for pair in result.pairs if pair.intra)
    int_pairs = sum(1 for pair in result.pairs if pair.interprocess)
    return {
        "intra_pairs": ir_pairs,
        "intra_paths": len(result.intra_paths()),
        "interprocess_pairs": int_pairs,
        "interprocess_paths": len(result.interprocess_paths()),
    }
