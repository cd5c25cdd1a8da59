"""Per-layer spans taken from outside the program.

Each declared span wraps one public function of a crossflow layer.  The
wrapper replaces the function wherever a crossflow module holds it, not only
in the defining module: ``cli`` and ``pipeline`` import functions by name,
so patching ``crossflow.stmtpaths.phase2`` alone would leave
``crossflow.pipeline.phase2`` unwrapped and its span silently at zero.
Methods are wrapped on their class.  Spans (name, start, end, parent) are
kept in flat arrays in memory and written once when the run ends.

``config`` and ``stats`` are deliberately unmeasured: configuration checks
are O(1), and ``correlate``/``classify`` run on no workload.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path


def _bundle_events(result):
    traces, _manifest = result
    return {"trace.read_bundle.events": sum(len(t.events) for t in traces.values())}


# span name -> (module, attribute path, counter over the return value,
# workloads on which the span must fire)
ALL = ("flow-tiered", "deps-wide", "batch-small")
FLOW = ("flow-tiered",)
DEPS = ("deps-wide", "batch-small")
SPANS = {
    "trace.read_bundle": ("crossflow.trace", "read_bundle", _bundle_events, ALL),
    "staticgraph.read_graph_set": (
        "crossflow.staticgraph", "read_graph_set",
        lambda r: {"staticgraph.read_graph_set.edges": sum(len(g.edges) for g in r.values())},
        ALL,
    ),
    "methodpaths.render_paths": ("crossflow.methodpaths", "render_paths", None, ALL),
    "stmtpaths.render_stmt_paths": ("crossflow.stmtpaths", "render_stmt_paths", None, ALL),
    "methodpaths.method_level_paths": (
        "crossflow.methodpaths", "method_level_paths",
        lambda r: {
            "methodpaths.method_level_paths.paths": len(r.paths),
            "methodpaths.method_level_paths.truncated": int(r.truncated),
        },
        FLOW,
    ),
    "stmtpaths.phase2": ("crossflow.stmtpaths", "phase2", None, FLOW),
    "stmtpaths.InletOutletIndex.build": ("crossflow.stmtpaths", "InletOutletIndex.build", None, FLOW),
    "stmtpaths.build_ddg": (
        "crossflow.stmtpaths", "build_ddg",
        lambda r: {"stmtpaths.ddg_nodes": len(r.nodes), "stmtpaths.ddg_edges": len(r.edges)},
        FLOW,
    ),
    "stmtpaths.find_paths": (
        "crossflow.stmtpaths", "find_paths", lambda r: {"stmtpaths.segments": len(r)}, FLOW,
    ),
    "stmtpaths.splice_segments": (
        "crossflow.stmtpaths", "splice_segments",
        lambda r: {"stmtpaths.spliced_paths": len(r)}, FLOW,
    ),
    "pipeline.analyze_flows": ("crossflow.pipeline", "analyze_flows", None, FLOW),
    "staticgraph.relevant_methods": ("crossflow.staticgraph", "relevant_methods", None, FLOW),
    "staticgraph.partial_graph": ("crossflow.staticgraph", "partial_graph", None, FLOW),
    "trace.filter_traces": ("crossflow.trace", "filter_traces", None, FLOW),
    "trace.reduce_first_last": ("crossflow.trace", "reduce_first_last", None, FLOW),
    "trace.merge_global": ("crossflow.trace", "merge_global", None, FLOW),
    "trace.influenced_recv_ts": ("crossflow.trace", "influenced_recv_ts", None, FLOW),
    "trace.EventGraph.init": ("crossflow.trace", "EventGraph.__init__", None, DEPS),
    "trace.EventGraph.downstream_recvs": ("crossflow.trace", "EventGraph.downstream_recvs", None, DEPS),
    "trace.method_spans": ("crossflow.trace", "method_spans", None, DEPS),
    "engine.dep_data_from_run": ("crossflow.engine", "dep_data_from_run", None, DEPS),
    "engine.merge_query": ("crossflow.engine", "merge_query", None, DEPS),
    "engine.MethodTable.from_traces": ("crossflow.engine", "MethodTable.from_traces", None, DEPS),
    "engine.arbitrate": (
        "crossflow.engine", "arbitrate",
        lambda r: {"engine.rounds": len(r), "engine.rounds_timed_out": sum(x.timed_out for x in r)},
        DEPS,
    ),
    "engine.compute_deps": ("crossflow.engine", "compute_deps", None, DEPS),
    "qlearn.select_action": ("crossflow.qlearn", "select_action", None, DEPS),
    "metrics.ipc_metrics": ("crossflow.metrics", "ipc_metrics", None, DEPS),
    "simulator.simulate": ("crossflow.simulator", "simulate", None, ALL),
    "simulator.all_graph_variants": ("crossflow.simulator", "all_graph_variants", None, ALL),
    "trace.write_bundle": ("crossflow.trace", "write_bundle", None, ALL),
    "staticgraph.write_graph_set": ("crossflow.staticgraph", "write_graph_set", None, ALL),
}
COMMANDS = ("flowpaths", "tune", "query", "metrics")
SETUP_SPANS = (
    "simulator.simulate", "simulator.all_graph_variants",
    "trace.write_bundle", "staticgraph.write_graph_set",
)


class Recorder:
    """Spans in flat arrays; ``counts`` holds the counters of the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, *args):
        sid = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(sid)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            if counter is not None:
                for key, value in counter(result).items():
                    rec.counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every declared function wherever a crossflow module binds it."""
        mods = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "crossflow"]
        for name, (modname, attr, counter, _) in SPANS.items():
            owner = sys.modules[modname]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:  # a method, wrapped once on its class
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    new = self._wrap(name, raw, counter)
                self._patches.append((owner, leaf, raw))
                setattr(owner, leaf, new)
                continue
            orig = getattr(owner, leaf)
            new = self._wrap(name, orig, counter)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self, first: int = 0, last: int | None = None):
        """Per name: calls, inclusive and self seconds; per (command, name):
        inclusive and self seconds.  Only spans with index in [first, last)
        are counted, so one pass or the set-up can be summed on its own."""
        n = len(self.name)
        last = n if last is None else last
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        by_cmd = defaultdict(lambda: [0.0, 0.0])
        for i in range(first, last):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            cmd = self.names[self.name[root[i]]]
            cell = by_cmd[(cmd, name)]
            cell[0] += dur
            cell[1] += dur - child[i]
        return calls, incl, self_s, by_cmd

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)


def self_check(workload: str, calls) -> list[str]:
    """Declared spans that never fired on a workload where they should."""
    return sorted(
        name for name, (*_, where) in SPANS.items()
        if workload in where and calls.get(name, 0) == 0
    )


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and crossflow, from the
    ``-X importtime`` report of one launch: the sum of the self times of
    each package's modules."""
    out = {"import.numpy.s": 0.0, "import.scipy.s": 0.0, "import.crossflow.s": 0.0}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # not a report line, or the header
        key = f"import.{fields[2].strip().split('.')[0]}.s"
        if key in out:
            out[key] += int(fields[0]) / 1e6
    return out
