"""Static dependence graph and ICFG model with relevance and coverage filters.

The graph holds statement nodes with their enclosing methods, typed dependence
edges, and the interprocedural control-flow successor relation per component
(process).  Edge kinds:

  intra_data      def-use inside one method
  intra_control   branch guarding a statement in the same method
  inter_adjacent  parameter or return-value passing between methods
  inter_posterior def-use association across methods (e.g. shared fields)

Interprocess flows never appear as graph edges; they are reconstructed from
message events by the path analyses.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional

from .trace import GRAPH_MANIFEST, MethodId, json_text, read_json, read_text, write_output

EDGE_KINDS = ("intra_data", "intra_control", "inter_adjacent", "inter_posterior")
INTRA_KINDS = frozenset({"intra_data", "intra_control"})
INTER_KINDS = frozenset({"inter_adjacent", "inter_posterior"})


class GraphFormatError(ValueError):
    pass


class ConfigurationError(ValueError):
    """Bad source/sink configuration for a flow-path query."""


class _EdgeFields(NamedTuple):
    kind: str
    src: str
    dst: str


class DepEdge(_EdgeFields):
    """A typed dependence edge between two statements; edges sort by
    (kind, src, dst), the order of the graph file."""

    __slots__ = ()

    def __new__(cls, kind: str, src: str, dst: str) -> "DepEdge":
        if kind not in EDGE_KINDS:
            raise GraphFormatError(f"unknown edge kind {kind!r}")
        return tuple.__new__(cls, (kind, src, dst))


@dataclass(frozen=True)
class StaticDepGraph:
    """Statement-level dependence graph plus per-component ICFG."""

    nodes: Mapping[str, MethodId]            # stmt id -> enclosing method
    edges: frozenset[DepEdge]
    icfg_succ: Mapping[str, tuple[str, ...]]  # control-flow successors
    send_sites: frozenset[str] = frozenset()
    recv_sites: frozenset[str] = frozenset()
    guards: Mapping[str, Optional[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for e in self.edges:
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise GraphFormatError(f"edge endpoint missing: {e}")
            same = self.nodes[e.src] == self.nodes[e.dst]
            if e.kind in INTRA_KINDS and not same:
                raise GraphFormatError(f"intra edge crosses methods: {e}")
            if e.kind in INTER_KINDS and same:
                raise GraphFormatError(f"inter edge inside one method: {e}")


@dataclass(frozen=True)
class SourceSinkConfig:
    """Source and sink statements of interest."""

    sources: frozenset[str]
    sinks: frozenset[str]

    def require_nonempty(self) -> None:
        if not self.sources or not self.sinks:
            raise ConfigurationError("flow-path queries need sources and sinks")


def reachable(adj: Mapping, starts: Iterable) -> set:
    """``starts`` (None dropped) plus every node reachable from them in the
    adjacency map ``adj``."""
    seen = set(s for s in starts if s is not None)
    stack = list(seen)
    while stack:
        cur = stack.pop()
        for nxt in adj.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def between(pairs: Iterable[tuple], starts: Iterable, ends: Iterable) -> set:
    """Nodes on some path from ``starts`` to ``ends`` over the directed
    edges ``pairs``: those reachable from a start that reach an end."""
    fwd: dict = {}
    rev: dict = {}
    for a, b in pairs:
        fwd.setdefault(a, []).append(b)
        rev.setdefault(b, []).append(a)
    return reachable(fwd, starts) & reachable(rev, ends)


def relevant_methods(
    graph: StaticDepGraph, cfg: SourceSinkConfig
) -> set[MethodId]:
    """Methods on some static control-flow path from a source to a sink.

    Message-send callsites count as additional sinks and message-receive
    callsites as additional sources, so flows that leave or enter a component
    keep their surrounding methods relevant.
    """
    cfg.require_nonempty()
    starts = (set(cfg.sources) | set(graph.recv_sites)) & set(graph.nodes)
    ends = (set(cfg.sinks) | set(graph.send_sites)) & set(graph.nodes)
    edges = ((src, dst) for src, succs in graph.icfg_succ.items() for dst in succs)
    return {graph.nodes[s] for s in between(edges, starts, ends)}


def partial_graph(
    graph: StaticDepGraph, methods: Iterable[MethodId]
) -> StaticDepGraph:
    """Restrict the graph to statements of the given methods."""
    keep_methods = set(methods)
    nodes = {s: m for s, m in graph.nodes.items() if m in keep_methods}
    edges = frozenset(
        e for e in graph.edges if e.src in nodes and e.dst in nodes
    )
    icfg = {
        s: tuple(d for d in succs if d in nodes)
        for s, succs in graph.icfg_succ.items()
        if s in nodes
    }
    return StaticDepGraph(
        nodes=nodes,
        edges=edges,
        icfg_succ=icfg,
        send_sites=frozenset(s for s in graph.send_sites if s in nodes),
        recv_sites=frozenset(s for s in graph.recv_sites if s in nodes),
        guards={s: g for s, g in graph.guards.items() if s in nodes},
    )


def coverage_from_branches(
    graph: StaticDepGraph,
    taken_branches: Iterable[str],
    entered_methods: Iterable[MethodId],
) -> set[str]:
    """Infer statement coverage from branch events.

    A statement is covered iff its guarding branch was taken; statements with
    no explicit guard hang off the method's synthetic entry branch, so they
    are covered iff the method was entered.
    """
    taken = set(taken_branches)
    entered = set(entered_methods)
    covered = set()
    for stmt, method in graph.nodes.items():
        guard = graph.guards.get(stmt)
        if guard is None:
            if method in entered:
                covered.add(stmt)
        elif guard in taken:
            covered.add(stmt)
    return covered


# ---------------------------------------------------------------------------
# Graph files: line-delimited records.  `node` and `edge` records carry the
# dependence graph; `cfg`, `guard` and `msgsite` records carry the ICFG,
# branch guards, and message callsites.
# ---------------------------------------------------------------------------


def write_graph(path: Path, graph: StaticDepGraph) -> None:
    lines = []
    for stmt in sorted(graph.nodes):
        m = graph.nodes[stmt]
        lines.append(f"node {stmt} {m.method_name} {m.class_name} {m.process}")
    for e in sorted(graph.edges):
        lines.append(f"edge {e.kind} {e.src} {e.dst}")
    for src in sorted(graph.icfg_succ):
        for dst in graph.icfg_succ[src]:
            lines.append(f"cfg {src} {dst}")
    for stmt in sorted(graph.guards):
        guard = graph.guards[stmt]
        if guard is not None:
            lines.append(f"guard {stmt} {guard}")
    for stmt in sorted(graph.send_sites):
        lines.append(f"msgsite send {stmt}")
    for stmt in sorted(graph.recv_sites):
        lines.append(f"msgsite recv {stmt}")
    write_output(path, "\n".join(lines) + "\n")


def read_graph(path: Path) -> StaticDepGraph:
    """The graph in the file at ``path``.  Each record is unpacked into its
    exact tokens, so one of another length, a ``msgsite`` of a role other
    than ``send`` or ``recv`` or an edge of an unknown kind raises
    ``GraphFormatError`` naming the file and the line; a line of another
    tag is skipped, such as the ``entry`` records of older graph files."""
    nodes: dict[str, MethodId] = {}
    methods: dict[tuple[str, str, str], MethodId] = {}
    edges = set()
    icfg: dict[str, list[str]] = {}
    guards: dict[str, Optional[str]] = {}
    sites: dict[str, set[str]] = {"send": set(), "recv": set()}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        try:
            if tag == "node":
                _, stmt, name, cls, proc = parts
                key = (proc, cls, name)
                method = methods.get(key)
                if method is None:
                    method = methods[key] = MethodId(*key)
                nodes[stmt] = method
            elif tag == "edge":
                _, kind, src, dst = parts
                edges.add(DepEdge(kind, src, dst))
            elif tag == "cfg":
                _, src, dst = parts
                icfg.setdefault(src, []).append(dst)
            elif tag == "guard":
                _, stmt, guard = parts
                guards[stmt] = guard
            elif tag == "msgsite":
                _, role, stmt = parts
                sites[role].add(stmt)
        except (KeyError, ValueError) as exc:
            raise GraphFormatError(f"{path}:{lineno}: bad record {line.strip()!r}") from exc
    for stmt in nodes:
        guards.setdefault(stmt, None)
    try:
        return StaticDepGraph(
            nodes=nodes,
            edges=frozenset(edges),
            icfg_succ={s: tuple(d) for s, d in icfg.items()},
            send_sites=frozenset(sites["send"]),
            recv_sites=frozenset(sites["recv"]),
            guards=guards,
        )
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def write_graph_set(
    directory: Path, variants: Mapping[tuple[bool, bool], StaticDepGraph]
) -> None:
    """Write all sensitivity variants plus a manifest linking bit pairs to files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"variants": {}}
    for (ctx, flow), graph in sorted(variants.items()):
        key = f"{int(ctx)}{int(flow)}"
        name = f"graph_{key}.txt"
        manifest["variants"][key] = name
        write_graph(directory / name, graph)
    write_output(directory / "manifest.json", json_text(manifest))


class GraphSet(Mapping[tuple[bool, bool], StaticDepGraph]):
    """The sensitivity variants of a graph directory, each parsed from its
    file on its first lookup.  ``in``, ``len`` and iteration answer from the
    manifest and parse nothing, so a run reads only the variants it uses."""

    def __init__(self, files: dict[tuple[bool, bool], Path]):
        self._files = files
        self._graphs: dict[tuple[bool, bool], StaticDepGraph] = {}

    def __getitem__(self, key: tuple[bool, bool]) -> StaticDepGraph:
        graph = self._graphs.get(key)
        if graph is None:
            graph = self._graphs[key] = read_graph(self._files[key])
        return graph

    def __contains__(self, key: object) -> bool:
        return key in self._files

    def __iter__(self):
        return iter(self._files)

    def __len__(self) -> int:
        return len(self._files)


def read_graph_set(directory: Path) -> GraphSet:
    """The variants that ``directory``'s manifest lists.

    The manifest must have the shape :data:`GRAPH_MANIFEST`, else
    ``GraphFormatError`` names it.  Every listed file must exist (else
    ``FileNotFoundError`` before any analysis runs), but a variant is
    parsed only when first looked up: a malformed variant raises
    ``GraphFormatError`` then, naming its file, and one that is never
    looked up is never reported.
    """
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json", GRAPH_MANIFEST, GraphFormatError)
    files = {}
    for key, name in manifest["variants"].items():
        path = directory / name
        if not path.is_file():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
        files[(key[0] == "1", key[1] == "1")] = path
    return GraphSet(files)
