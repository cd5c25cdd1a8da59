"""Method-level information flow paths (pre-analysis phase).

For each executed source-enclosing method ``q`` the analysis computes its
dynamic dependence set ``DS(q)`` from the happens-before approximation: a
local method joins when q's first entry does not postdate its last event, and
a remote method joins when the remote process received its first
origin-influenced message inside q's span.  Paths are then every duplicate-free
sequence of DS(q) members from q to a sink-enclosing method whose pairwise
first-entry/last-event ordering is consistent.

Phase 2 reads the closed form of :func:`pair_methods`, not these paths, so
the enumeration's caps bound only the ``phase1.txt`` report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .trace import (
    MethodId,
    ProcessTrace,
    influenced_recv_ts,
    method_spans,
)

DEFAULT_PATH_LIMIT = 16
DEFAULT_MAX_PATHS = 20000
DEFAULT_WORK_BUDGET = 400000


@dataclass(frozen=True)
class DependenceSet:
    root: MethodId
    members: frozenset[MethodId]


@dataclass(frozen=True)
class MethodFlowPath:
    methods: tuple[MethodId, ...]

    @property
    def source_method(self) -> MethodId:
        return self.methods[0]

    @property
    def sink_method(self) -> MethodId:
        return self.methods[-1]


@dataclass(frozen=True)
class PathSet:
    paths: frozenset[MethodFlowPath]
    truncated: bool


def method_ds(
    q: MethodId,
    traces: Mapping[str, ProcessTrace],
    spans: Optional[Mapping[MethodId, tuple[int, int]]] = None,
    influenced: Optional[Mapping[tuple[str, str], int]] = None,
) -> DependenceSet:
    """Forward impact set of q: methods whose execution may depend on it.

    An unexecuted q yields the empty set.  Remote membership uses only the
    first influenced message timestamp per process pair; influence follows
    message chains transitively.
    """
    spans = method_spans(traces) if spans is None else spans
    if q not in spans:
        return DependenceSet(q, frozenset())
    influenced = influenced_recv_ts(traces) if influenced is None else influenced
    entry_ts = spans[q][0]
    members = {
        m for m, (_, lr) in spans.items()
        if m.process == q.process and entry_ts <= lr
    }
    for proc in traces:
        if proc == q.process:
            continue
        t = influenced.get((proc, q.process))
        if t is None or t < entry_ts:
            continue
        for m, (_, lr) in spans.items():
            if m.process == proc and t <= lr:
                members.add(m)
    return DependenceSet(q, frozenset(members))


def _source_ds(
    traces: Mapping[str, ProcessTrace], source_methods: Iterable[MethodId]
) -> Iterator[tuple[MethodId, frozenset[MethodId], dict[MethodId, tuple[int, int]]]]:
    """(q, DS(q), spans of the traces) for each source q, in sort-key order;
    the spans and the influence map are built once for all sources."""
    spans = method_spans(traces)
    influenced = influenced_recv_ts(traces)
    for q in sorted(source_methods, key=MethodId.sort_key):
        yield q, method_ds(q, traces, spans, influenced).members, spans


def pair_methods(
    traces: Mapping[str, ProcessTrace],
    source_methods: Iterable[MethodId],
    sink_methods: Iterable[MethodId],
) -> dict[tuple[MethodId, MethodId], frozenset[MethodId]]:
    """(source method q, sink method t) -> every method on some q -> t path,
    for each sink t in DS(q): {q} for t == q, else each m in DS(q) with
    fe(m) <= lr(t) (every subsequence of a valid path is valid, and
    fe(q) <= lr(x) for every x in DS(q)).  Without truncation this is the
    union of the q -> t paths that :func:`method_level_paths` enumerates."""
    sinks = set(sink_methods)
    out: dict[tuple[MethodId, MethodId], frozenset[MethodId]] = {}
    for q, ds, spans in _source_ds(traces, source_methods):
        for t in ds & sinks:
            out[(q, t)] = frozenset(
                [q] if t == q else (m for m in ds if spans[m][0] <= spans[t][1])
            )
    return out


def method_level_paths(
    traces: Mapping[str, ProcessTrace],
    source_methods: Iterable[MethodId],
    sink_methods: Iterable[MethodId],
    path_limit: int = DEFAULT_PATH_LIMIT,
    max_paths: int = DEFAULT_MAX_PATHS,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> PathSet:
    """All method-level flow paths between executed sources and sinks."""
    sinks = set(sink_methods)
    paths: set[MethodFlowPath] = set()
    truncated = False
    for q, ds, spans in _source_ds(traces, source_methods):
        if not ds & sinks:
            continue
        truncated |= _enumerate(
            q, ds, sinks, spans, path_limit, max_paths, work_budget, paths
        )
    return PathSet(frozenset(paths), truncated)


def _enumerate(
    q: MethodId,
    members: frozenset[MethodId],
    sinks: set[MethodId],
    spans: Mapping[MethodId, tuple[int, int]],
    path_limit: int,
    max_paths: int,
    work_budget: int,
    out: set[MethodFlowPath],
) -> bool:
    """DFS over sequences where no member's first entry postdates a later
    member's last event.

    Candidates are visited in (fe, lr, name) order so causally early methods
    come first.  Branches from which no sink can be appended any more are cut
    (appending only raises the running max fe, so the cut is exact).  The
    enumeration reports truncation when the length cap, the path cap, or the
    work budget bites.

    The walk runs on indices into that order; q, a member of its own DS,
    starts the sequence.  Paths become ``MethodFlowPath`` objects once the
    walk has ended.
    """
    ordered = sorted(
        members, key=lambda m: (spans[m][0], spans[m][1], m.sort_key())
    )
    first = [spans[m][0] for m in ordered]
    last = [spans[m][1] for m in ordered]
    is_sink = [m in sinks for m in ordered]
    # reachable sinks, latest last event first: the scan for one that can
    # still be appended stops at the first that ends too early
    sinks_by_last = sorted(
        (i for i in range(len(ordered)) if is_sink[i]), key=lambda i: -last[i]
    )
    candidates = range(len(ordered))
    qi = ordered.index(q)
    in_seq = [False] * len(ordered)
    in_seq[qi] = True
    seq = [qi]
    found: list[tuple[int, ...]] = []
    room = max_paths - len(out)  # paths of other sources never repeat q's
    truncated = False
    steps = 0

    def walk(max_fe: int) -> None:
        nonlocal truncated, steps
        if is_sink[seq[-1]]:
            if len(found) >= room:
                truncated = True
                return
            found.append(tuple(seq))
        if len(seq) >= path_limit:
            truncated = True
            return
        for m in candidates:
            if truncated and len(found) >= room:
                return
            if in_seq[m] or last[m] < max_fe:
                continue  # already on the path, or ended before it could start
            steps += 1
            if steps > work_budget:
                truncated = True
                return
            new_max = first[m] if first[m] > max_fe else max_fe
            seq.append(m)
            in_seq[m] = True
            if is_sink[m]:
                walk(new_max)
            else:
                for s in sinks_by_last:
                    if last[s] < new_max:
                        break
                    if not in_seq[s]:
                        walk(new_max)
                        break
            seq.pop()
            in_seq[m] = False

    walk(first[qi])
    out.update(MethodFlowPath(tuple([ordered[i] for i in p])) for p in found)
    return truncated


def check_path_ordering(
    path: MethodFlowPath, spans: Mapping[MethodId, tuple[int, int]]
) -> bool:
    """The emitted-path predicate, machine-checkable per path."""
    ms = path.methods
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if spans[ms[i]][0] > spans[ms[j]][1]:
                return False
    return True


def covers_chain(paths: Iterable[MethodFlowPath], chain: tuple[MethodId, ...]) -> bool:
    """True if some path contains the chain as an ordered subsequence."""
    for path in paths:
        it = iter(path.methods)
        if all(m in it for m in chain):
            return True
    return False


def render_paths(paths: Iterable[MethodFlowPath]) -> str:
    """``phase1.txt``: one line per path, ordered by the paths' method sort
    keys.  Methods are ranked once; rank tuples sort as the key tuples do."""
    paths = list(paths)
    ranked = sorted(set().union(*(p.methods for p in paths)), key=MethodId.sort_key)
    rank = {m: i for i, m in enumerate(ranked)}
    names = [m.qualified() for m in ranked]
    lines = [
        "path level=method " + " -> ".join([names[i] for i in key])
        for key in sorted(tuple([rank[m] for m in p.methods]) for p in paths)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
