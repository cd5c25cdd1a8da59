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

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .trace import MethodId

EDGE_KINDS = ("intra_data", "intra_control", "inter_adjacent", "inter_posterior")
INTRA_KINDS = frozenset({"intra_data", "intra_control"})
INTER_KINDS = frozenset({"inter_adjacent", "inter_posterior"})


class GraphFormatError(ValueError):
    pass


class ConfigurationError(ValueError):
    """Bad source/sink configuration for a flow-path query."""


@dataclass(frozen=True)
class DepEdge:
    kind: str
    src: str
    dst: str

    def __post_init__(self) -> None:
        if self.kind not in EDGE_KINDS:
            raise GraphFormatError(f"unknown edge kind {self.kind!r}")


@dataclass(frozen=True)
class StaticDepGraph:
    """Statement-level dependence graph plus per-component ICFG."""

    nodes: Mapping[str, MethodId]            # stmt id -> enclosing method
    edges: frozenset[DepEdge]
    icfg_succ: Mapping[str, tuple[str, ...]]  # control-flow successors
    entry_points: Mapping[str, tuple[str, ...]]  # process -> entry statements
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

    def method_edges(
        self, coverage: Optional[set[str]] = None
    ) -> set[tuple[MethodId, MethodId, str]]:
        """Interprocedural edges lifted to method granularity.

        With ``coverage`` given, only stmt edges whose endpoints are both
        covered witness a method edge (statement-coverage pruning).
        """
        out = set()
        for e in self.edges:
            if e.kind not in INTER_KINDS:
                continue
            if coverage is not None and (
                e.src not in coverage or e.dst not in coverage
            ):
                continue
            kind = "adjacent" if e.kind == "inter_adjacent" else "posterior"
            out.add((self.nodes[e.src], self.nodes[e.dst], kind))
        return out


@dataclass(frozen=True)
class SourceSinkConfig:
    """Sources and sinks of interest plus the message-passing API names."""

    sources: frozenset[str]
    sinks: frozenset[str]
    msg_api_list: tuple[str, ...] = ("net.send", "net.recv")

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
    rev: dict[str, list[str]] = {}
    for src, succs in graph.icfg_succ.items():
        for dst in succs:
            rev.setdefault(dst, []).append(src)
    forward = reachable(graph.icfg_succ, starts)
    backward = reachable(rev, ends)
    on_path = forward & backward
    return {graph.nodes[s] for s in on_path}


def partial_graph(
    graph: StaticDepGraph, methods: Iterable[MethodId]
) -> StaticDepGraph:
    """Restrict the graph to statements of the given methods."""
    keep_methods = set(methods)
    nodes = {s: m for s, m in graph.nodes.items() if m in keep_methods}
    return _restrict(graph, set(nodes))


def prune_by_coverage(
    graph: StaticDepGraph, covered_stmts: Iterable[str]
) -> StaticDepGraph:
    """Keep exactly the covered statements and edges between them."""
    keep = set(covered_stmts) & set(graph.nodes)
    return _restrict(graph, keep)


def _restrict(graph: StaticDepGraph, keep: set[str]) -> StaticDepGraph:
    nodes = {s: m for s, m in graph.nodes.items() if s in keep}
    edges = frozenset(
        e for e in graph.edges if e.src in keep and e.dst in keep
    )
    icfg = {
        s: tuple(d for d in succs if d in keep)
        for s, succs in graph.icfg_succ.items()
        if s in keep
    }
    entries = {
        proc: tuple(s for s in stmts if s in keep)
        for proc, stmts in graph.entry_points.items()
    }
    return StaticDepGraph(
        nodes=nodes,
        edges=edges,
        icfg_succ=icfg,
        entry_points=entries,
        send_sites=frozenset(s for s in graph.send_sites if s in keep),
        recv_sites=frozenset(s for s in graph.recv_sites if s in keep),
        guards={s: g for s, g in graph.guards.items() if s in keep},
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
# dependence graph; `cfg`, `entry`, `guard` and `msgsite` records carry the
# ICFG, entry points, branch guards, and message callsites.
# ---------------------------------------------------------------------------


def write_graph(path: Path, graph: StaticDepGraph) -> None:
    lines = []
    for stmt in sorted(graph.nodes):
        m = graph.nodes[stmt]
        lines.append(f"node {stmt} {m.method_name} {m.class_name} {m.process}")
    for e in sorted(graph.edges, key=lambda e: (e.kind, e.src, e.dst)):
        lines.append(f"edge {e.kind} {e.src} {e.dst}")
    for src in sorted(graph.icfg_succ):
        for dst in graph.icfg_succ[src]:
            lines.append(f"cfg {src} {dst}")
    for proc in sorted(graph.entry_points):
        for stmt in graph.entry_points[proc]:
            lines.append(f"entry {proc} {stmt}")
    for stmt in sorted(graph.guards):
        guard = graph.guards[stmt]
        if guard is not None:
            lines.append(f"guard {stmt} {guard}")
    for stmt in sorted(graph.send_sites):
        lines.append(f"msgsite send {stmt}")
    for stmt in sorted(graph.recv_sites):
        lines.append(f"msgsite recv {stmt}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_graph(path: Path) -> StaticDepGraph:
    nodes: dict[str, MethodId] = {}
    edges = set()
    icfg: dict[str, list[str]] = {}
    entries: dict[str, list[str]] = {}
    guards: dict[str, Optional[str]] = {}
    sends, recvs = set(), set()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            tag = parts[0]
            if tag == "node":
                stmt, method, cls, proc = parts[1:5]
                nodes[stmt] = MethodId(proc, cls, method)
            elif tag == "edge":
                kind, src, dst = parts[1:4]
                edges.add(DepEdge(kind, src, dst))
            elif tag == "cfg":
                icfg.setdefault(parts[1], []).append(parts[2])
            elif tag == "entry":
                entries.setdefault(parts[1], []).append(parts[2])
            elif tag == "guard":
                guards[parts[1]] = parts[2]
            elif tag == "msgsite":
                (sends if parts[1] == "send" else recvs).add(parts[2])
            # unknown record tags tolerated
        except (IndexError, ValueError) as exc:
            raise GraphFormatError(f"{path}:{lineno}: bad record {line!r}") from exc
    for stmt in nodes:
        guards.setdefault(stmt, None)
    return StaticDepGraph(
        nodes=nodes,
        edges=frozenset(edges),
        icfg_succ={s: tuple(d) for s, d in ((k, tuple(v)) for k, v in icfg.items())},
        entry_points={p: tuple(v) for p, v in entries.items()},
        send_sites=frozenset(sends),
        recv_sites=frozenset(recvs),
        guards=guards,
    )


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
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def read_graph_set(directory: Path) -> dict[tuple[bool, bool], StaticDepGraph]:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    out = {}
    for key, name in manifest["variants"].items():
        ctx, flow = bool(int(key[0])), bool(int(key[1]))
        out[(ctx, flow)] = read_graph(directory / name)
    return out
