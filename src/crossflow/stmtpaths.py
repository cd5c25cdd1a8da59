"""Statement-level flow path refinement.

Builds a dynamic dependence graph over the covered statements by activating
static edges against the execution events, discovers per-process path
segments, and splices segments at message junctions:

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

Phase 2 keeps its paths as their ``phase2.txt`` lines, built once where a
path is found: splicing joins line text, not statement tuples, and each
pair's lines come out sorted and distinct, so the report is one merge of
sorted runs.  Splicing stops after ``SPLICE_LIMIT`` lines per pair, and
says so: the spliced paths of a chain grow with the product of its segment
counts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import Container, Iterable, Mapping, Optional, Sequence

from .staticgraph import StaticDepGraph, SourceSinkConfig, between, partial_graph
from .trace import METHOD_EVENT_KINDS, EventRecord, MethodId, ProcessTrace, merge_global

DEFAULT_STMT_PATH_LIMIT = 24
# Spliced lines per (source, sink) pair: above the 12,500 of a 7-tier chain
# and the 62,500 of an 8-tier one, yet small enough that 11- and 12-tier
# chains (7.8 and 39 million lines uncut) run in about 100 MB.
SPLICE_LIMIT = 100_000


@dataclass(frozen=True)
class DynDepGraph:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @cached_property
    def out_adj(self) -> dict[str, list[str]]:
        """Successor lists in sorted edge order, built on first use."""
        adj: dict[str, list[str]] = {}
        for a, b in sorted(self.edges):
            adj.setdefault(a, []).append(b)
        return adj


@dataclass(frozen=True)
class InletOutletIndex:
    """Statement ids of the message callsites that path methods executed:
    recv sites (inlets) and send sites (outlets)."""

    inlets: frozenset[str]
    outlets: frozenset[str]

    @classmethod
    def build(
        cls,
        traces: Mapping[str, ProcessTrace],
        path_methods: set[MethodId],
    ) -> "InletOutletIndex":
        inlets: set[str] = set()
        outlets: set[str] = set()
        for trace in traces.values():
            for ev in trace.events:
                if ev.method not in path_methods or ev.stmt_id is None:
                    continue
                if ev.kind == "recv":
                    inlets.add(ev.stmt_id)
                elif ev.kind == "send":
                    outlets.add(ev.stmt_id)
        return cls(frozenset(inlets), frozenset(outlets))


def build_ddg(
    sdg: StaticDepGraph,
    source_stmt: str,
    sink_stmt: str,
    traces: Mapping[str, ProcessTrace],
    coverage: Container[str],
    inlets: Iterable[str] = (),
    outlets: Iterable[str] = (),
) -> DynDepGraph:
    """Activate the static dependencies between covered statements.

    The graph is grown from the source (with inlets as additional start
    points) and keeps only nodes from which the sink or an outlet is still
    reachable, all of them in ``coverage``; an unexecuted source or sink
    method yields the empty graph.  A method's first and last method events
    are compared by ``seq``, which rises along its process's one trace.
    """
    adjacent_pairs: set[tuple[MethodId, MethodId]] = set()
    first_seq: dict[MethodId, int] = {}
    last_seq: dict[MethodId, int] = {}
    for trace in traces.values():
        prev = None
        for ev in trace.events:
            if ev.kind in METHOD_EVENT_KINDS:
                m = ev.method
                first_seq.setdefault(m, ev.seq)
                last_seq[m] = ev.seq
                if prev is not None:
                    adjacent_pairs.add((prev, m))
                prev = m

    executed = last_seq.keys()
    if sdg.nodes.get(source_stmt) not in executed or sdg.nodes.get(sink_stmt) not in executed:
        return DynDepGraph(frozenset(), frozenset())

    covered = {stmt for stmt in sdg.nodes if stmt in coverage}
    active: set[tuple[str, str]] = set()
    for e in sdg.edges:
        if e.src not in covered or e.dst not in covered:
            continue
        m1, m2 = sdg.nodes[e.src], sdg.nodes[e.dst]
        if m1 not in executed or m2 not in executed:
            continue
        if e.kind in ("intra_data", "intra_control"):
            active.add((e.src, e.dst))
        elif e.kind == "inter_adjacent":
            if (m1, m2) in adjacent_pairs:
                active.add((e.src, e.dst))
        elif e.kind == "inter_posterior":
            if m1.process == m2.process and first_seq[m1] <= last_seq[m2]:
                active.add((e.src, e.dst))

    starts = covered & {source_stmt, *inlets}
    ends = covered & {sink_stmt, *outlets}
    keep = between(active, starts, ends)
    return DynDepGraph(
        nodes=frozenset(keep),
        edges=frozenset((a, b) for a, b in active if a in keep and b in keep),
    )


def find_paths(
    ddg: DynDepGraph,
    ins: Iterable[str],
    outs: Iterable[str],
    allowed: set[str],
    limit: int = DEFAULT_STMT_PATH_LIMIT,
) -> list[tuple[str, ...]]:
    """All simple paths from ``ins`` to ``outs`` over the ``allowed``
    statements of ``ddg``, each a statement tuple, at most ``limit`` long.
    ``allowed`` must hold only nodes of ``ddg``; phase 2 passes those of
    one process."""
    starts = sorted(set(ins) & allowed)
    ends = set(outs) & allowed
    adj = ddg.out_adj
    out: list[tuple[str, ...]] = []

    def walk(node: str, path: list[str]) -> None:
        if node in ends:
            out.append(tuple(path))
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


SPLICED_HEAD = "path level=stmt kind=spliced "
INTRA_HEAD = "path level=stmt kind=intra "


class SplicedLines(list):
    """The lines :func:`splice_segments` returns; ``truncated`` is true when
    its limit cut the walk short."""

    truncated = False


def splice_segments(
    source_segs: Sequence[tuple[str, ...]],
    remote_segs: Sequence[tuple[str, ...]],
    sink_segs: Sequence[tuple[str, ...]],
    order: Sequence[EventRecord],
    index: InletOutletIndex,
    stmt_methods: Mapping[str, MethodId],
    strict: bool = False,
    limit: int = SPLICE_LIMIT,
) -> SplicedLines:
    """The ``phase2.txt`` lines of every concatenation of a source segment,
    distinct remote segments and a sink segment whose junctions have no
    intervening inlet/outlet events (or no intervening events at all when
    ``strict``), sorted, each listed once.  Once the walk has more than
    ``limit`` lines it stops, keeps its first ``limit`` and marks them
    ``truncated``; the walk's order is fixed by the segments' text, so
    which lines are kept is too.

    A junction (outlet stmt, inlet stmt) holds when a send at the outlet is
    immediately followed by a recv at the inlet in the junction sequence
    restricted to the two statements' processes (``stmt_methods`` names
    them).  The adjacent (send stmt, recv stmt) pairs are indexed once per
    unordered process pair, on the pair's first junction test, so each test
    is a set lookup.  ``strict`` uses one index over the whole merged
    sequence instead.

    Each segment's text is joined once.  A prefix carries its line text up
    to and including the `` -> `` after its end statement, so a full line is
    one concatenation with a sink segment's text.  A prefix can only
    continue at its end statement, so the junction tests are made once per
    end statement: its successor list holds the sink and remote segments
    whose first statement it joins, sorted by the text they append, and
    every prefix ending there walks only that list, with its used remote
    segments as a bitmask.  Sources are walked in the same order, so lines
    come out in report order except after a source or remote segment that
    is a proper prefix of another segment (its continuations can sort after
    the longer one's lines), and the final sort is near-linear.  Equal lines
    (different segment sequences of one statement sequence) are then
    neighbours and are dropped there.
    """
    junction_seq = [
        ev
        for ev in order
        if strict
        or (
            ev.kind in ("send", "recv")
            and ev.stmt_id is not None
            and (ev.stmt_id in index.inlets or ev.stmt_id in index.outlets)
        )
    ]
    junctions: dict[Optional[frozenset[str]], set[tuple[str, str]]] = {}

    def junction_ok(out_stmt: str, in_stmt: str) -> bool:
        # strict is the literal reading: the whole merged sequence
        key = None if strict else frozenset(
            (stmt_methods[out_stmt].process, stmt_methods[in_stmt].process)
        )
        pairs = junctions.get(key)
        if pairs is None:
            sub = junction_seq if key is None else [
                ev for ev in junction_seq if ev.process in key
            ]
            pairs = junctions[key] = {
                (e1.stmt_id, e2.stmt_id)
                for e1, e2 in zip(sub, sub[1:])
                if e1.kind == "send" and e2.kind == "recv"
            }
        return (out_stmt, in_stmt) in pairs

    # (appended text, first stmt, remote bit or 0 for a sink, end stmt)
    segments = [(" -> ".join(seg), seg[0], 0, "") for seg in sink_segs]
    segments += [
        (" -> ".join(seg) + " -> ", seg[0], 1 << i, seg[-1])
        for i, seg in enumerate(remote_segs)
    ]
    segments.sort(key=itemgetter(0))
    # end stmt -> [(appended text, remote bit, end stmt)] of the segments it joins
    successors: dict[str, list[tuple[str, int, str]]] = {}
    lines: list[str] = []

    def extend(prefix: str, end: str, used: int) -> None:
        joined = successors.get(end)
        if joined is None:
            joined = successors[end] = [
                (text, bit, last)
                for text, first, bit, last in segments
                if junction_ok(end, first)
            ]
        for text, bit, last in joined:
            if not bit:  # close with a sink segment
                lines.append(prefix + text)
            elif not used & bit and len(lines) <= limit:
                # or continue through an unused remote one, below the limit
                extend(prefix + text, last, used | bit)

    for text, end in sorted(
        (SPLICED_HEAD + " -> ".join(seg) + " -> ", seg[-1]) for seg in source_segs
    ):
        if len(lines) > limit:
            break
        extend(text, end, 0)
    # extend refers to itself, a cycle that would keep every line alive
    # until the next full garbage collection
    del extend
    truncated = len(lines) > limit
    del lines[limit:]  # the first lines of the walk, whose order is fixed
    lines.sort()
    out = SplicedLines(lines[:1])
    out += [b for a, b in zip(lines, islice(lines, 1, None)) if a != b]
    out.truncated = truncated
    return out


@dataclass(frozen=True)
class PairResult:
    """The ``phase2.txt`` lines of one (source stmt, sink stmt) pair, each
    kind sorted: ``intra`` its intraprocess paths, ``interprocess`` its
    spliced ones, of which ``splice_truncated`` says the splice limit cut
    some off."""

    source_stmt: str
    sink_stmt: str
    intra: tuple[str, ...]
    interprocess: tuple[str, ...]
    splice_truncated: bool


@dataclass(frozen=True)
class Phase2Result:
    pairs: tuple[PairResult, ...]

    def intra_paths(self) -> list[str]:
        return [p for pair in self.pairs for p in pair.intra]

    def interprocess_paths(self) -> list[str]:
        return [p for pair in self.pairs for p in pair.interprocess]


def phase2(
    sdg: StaticDepGraph,
    pair_methods: Mapping[tuple[MethodId, MethodId], frozenset[MethodId]],
    traces: Mapping[str, ProcessTrace],
    coverage: set[str],
    cfg: SourceSinkConfig,
    path_limit: int = DEFAULT_STMT_PATH_LIMIT,
    strict_splice: bool = False,
) -> Phase2Result:
    """Statement-level flow paths for every covered source/sink callsite pair,
    over the methods ``pair_methods`` gives its (source method, sink method).

    A pair's DDG statements are grouped by their method's process, whose
    trace executed that method, unless the graph puts a send or recv
    statement in another method than the trace records there."""
    cfg.require_nonempty()
    if not pair_methods:
        return Phase2Result(())
    order = merge_global(traces)

    results = []
    for s in sorted(cfg.sources):
        for t in sorted(cfg.sinks):
            ms, mt = sdg.nodes.get(s), sdg.nodes.get(t)
            if ms is None or mt is None:
                continue
            path_methods = pair_methods.get((ms, mt))
            if not path_methods:
                continue
            partial = partial_graph(sdg, path_methods)
            index = InletOutletIndex.build(traces, path_methods)
            ddg = build_ddg(
                partial, s, t, traces, coverage,
                inlets=index.inlets, outlets=index.outlets,
            )
            if not ddg.nodes:
                continue
            src_proc, sink_proc = ms.process, mt.process
            # per process, the DDG statements of its methods
            allowed: defaultdict[str, set[str]] = defaultdict(set)
            for stmt in ddg.nodes:
                allowed[partial.nodes[stmt].process].add(stmt)

            source_segs = find_paths(
                ddg, {s}, index.outlets, allowed[src_proc], path_limit
            )
            intra: list[str] = []
            if src_proc == sink_proc:
                intra = sorted(
                    INTRA_HEAD + " -> ".join(p)
                    for p in find_paths(ddg, {s}, {t}, allowed[src_proc], path_limit)
                )
            remote_segs: list[tuple[str, ...]] = []
            for proc in sorted(allowed.keys() - {src_proc, sink_proc}):
                remote_segs.extend(
                    find_paths(
                        ddg, index.inlets, index.outlets, allowed[proc],
                        path_limit,
                    )
                )
            sink_segs = find_paths(
                ddg, index.inlets, {t}, allowed[sink_proc], path_limit
            )
            spliced = splice_segments(
                source_segs, remote_segs, sink_segs, order, index,
                partial.nodes, strict=strict_splice,
            )
            results.append(
                PairResult(s, t, tuple(intra), tuple(spliced), spliced.truncated)
            )
    return Phase2Result(tuple(results))


def render_stmt_paths(result: Phase2Result) -> list[str]:
    """The lines of ``phase2.txt``, without their newlines: every pair's
    lines in one sort, which merges their sorted runs."""
    lines = result.intra_paths() + result.interprocess_paths()
    lines.sort()
    return lines


def summary_counts(result: Phase2Result) -> dict[str, int]:
    """Pair and path counts, intraprocess versus interprocess, and
    ``splice_truncated`` 1 only when the splice limit cut some pair's
    lines."""
    ir_pairs = sum(1 for pair in result.pairs if pair.intra)
    int_pairs = sum(1 for pair in result.pairs if pair.interprocess)
    counts = {
        "intra_pairs": ir_pairs,
        "intra_paths": len(result.intra_paths()),
        "interprocess_pairs": int_pairs,
        "interprocess_paths": len(result.interprocess_paths()),
    }
    if any(pair.splice_truncated for pair in result.pairs):
        counts["splice_truncated"] = 1
    return counts
