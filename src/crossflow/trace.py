"""Event/trace data model, Lamport logical-clock stamping, global ordering and
the happens-before index.

Every analysis in this package consumes the same trace representation: one
ordered event sequence per process, where each event carries the enclosing
method, a per-process sequence number, and (after stamping) a Lamport
timestamp.  Message events are matched across processes by ``msg_id``; the
happens-before relation is the transitive closure of per-process program
order plus send->recv edges.  :class:`EventGraph` is the one index that
answers it: Fidge/Mattern vector clocks kept at recv events.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

EVENT_KINDS = frozenset(
    {"entry", "returned_into", "send", "recv", "branch", "stmt_cover"}
)
METHOD_EVENT_KINDS = frozenset({"entry", "returned_into"})


class TraceError(ValueError):
    """Base class for trace-format and trace-content problems."""


class MalformedTraceError(TraceError):
    """A record violates the trace format (e.g. recv with unknown msg_id)."""


class CausalityError(TraceError):
    """Message matching implies a causal cycle; no Lamport stamping exists."""


@dataclass(frozen=True)
class MethodId:
    """Identifies one method: (process, program unit, signature) is unique."""

    process: str
    class_name: str
    method_name: str

    def __post_init__(self) -> None:
        if not (self.process and self.class_name and self.method_name):
            raise ValueError("MethodId fields must be non-empty")

    @property
    def code_key(self) -> tuple[str, str]:
        """Process-independent identity, used to detect code reuse."""
        return (self.class_name, self.method_name)

    def qualified(self) -> str:
        return f"{self.process}.{self.class_name}.{self.method_name}"

    def sort_key(self) -> tuple[str, str, str]:
        return (self.process, self.class_name, self.method_name)


@dataclass(frozen=True)
class EventRecord:
    """One traced event.  ``ts`` is None until Lamport stamping."""

    kind: str
    method: MethodId
    seq: int
    ts: Optional[int] = None
    msg_id: Optional[str] = None
    peer: Optional[str] = None
    branch_id: Optional[str] = None
    stmt_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise MalformedTraceError(f"unknown event kind {self.kind!r}")
        if self.kind in ("send", "recv") and self.msg_id is None:
            raise MalformedTraceError(f"{self.kind} event requires msg_id")
        if self.ts is not None and self.ts < 1:
            raise MalformedTraceError("stamped timestamps start at 1")

    @property
    def process(self) -> str:
        return self.method.process

    def key(self) -> tuple[str, int]:
        """Stable per-execution identity: (process, seq)."""
        return (self.process, self.seq)


@dataclass(frozen=True)
class ProcessTrace:
    """Events of one process, ordered by seq."""

    process: str
    events: tuple[EventRecord, ...]

    def __post_init__(self) -> None:
        prev = None
        for ev in self.events:
            if ev.process != self.process:
                raise MalformedTraceError(
                    f"event of {ev.process} in trace of {self.process}"
                )
            if prev is not None:
                if ev.seq <= prev.seq:
                    raise MalformedTraceError("seq must strictly increase")
                if ev.ts is not None and prev.ts is not None and ev.ts < prev.ts:
                    raise MalformedTraceError("timestamps decrease along trace")
            prev = ev

    @property
    def stamped(self) -> bool:
        return all(ev.ts is not None for ev in self.events)


@dataclass(frozen=True)
class FirstMsgMap:
    """(receiver, sender) -> Lamport ts of the receiver's first message from
    that sender.  Only direct messages populate the map; transitive message
    reachability is answered by the vector clocks of :class:`EventGraph`."""

    entries: Mapping[tuple[str, str], int]

    def first_recv_ts(self, receiver: str, sender: str) -> Optional[int]:
        return self.entries.get((receiver, sender))


@dataclass(frozen=True)
class GlobalOrder:
    """All events merged into one deterministic total order extending the
    Lamport partial order; tiebreak is (ts, process id, seq)."""

    merged: tuple[EventRecord, ...]


TraceMap = dict[str, ProcessTrace]


def stamp_lamport(
    raw_traces: Mapping[str, Sequence[EventRecord]],
) -> tuple[TraceMap, FirstMsgMap]:
    """Assign Lamport timestamps to every event and build the first-message map.

    Rules: each event increments its process counter; a send piggybacks its
    own timestamp; a recv takes max(local counter, piggybacked) + 1.  Existing
    timestamps on input events are ignored and recomputed, so stamping is
    idempotent.  Each ``msg_id`` must be sent once and received at most once.
    """
    sends: dict[str, EventRecord] = {}
    for proc in raw_traces:
        for ev in raw_traces[proc]:
            if ev.kind == "send":
                if ev.msg_id in sends:
                    raise MalformedTraceError(f"duplicate send msg_id {ev.msg_id!r}")
                sends[ev.msg_id] = ev
    received: set[str] = set()
    for proc in raw_traces:
        for ev in raw_traces[proc]:
            if ev.kind != "recv":
                continue
            if ev.msg_id not in sends:
                raise MalformedTraceError(f"recv of unknown msg_id {ev.msg_id!r}")
            if ev.msg_id in received:
                raise MalformedTraceError(f"duplicate recv msg_id {ev.msg_id!r}")
            received.add(ev.msg_id)

    counters = {proc: 0 for proc in raw_traces}
    cursors = {proc: 0 for proc in raw_traces}
    send_ts: dict[str, int] = {}
    stamped: dict[str, list[EventRecord]] = {proc: [] for proc in raw_traces}
    first_msgs: dict[tuple[str, str], int] = {}
    order = sorted(raw_traces)

    remaining = sum(len(raw_traces[p]) for p in raw_traces)
    while remaining:
        progressed = False
        for proc in order:
            events = raw_traces[proc]
            while cursors[proc] < len(events):
                ev = events[cursors[proc]]
                if ev.kind == "recv" and ev.msg_id not in send_ts:
                    break  # matching send not stamped yet
                if ev.kind == "recv":
                    counters[proc] = max(counters[proc], send_ts[ev.msg_id]) + 1
                else:
                    counters[proc] += 1
                ts = counters[proc]
                new = replace(ev, ts=ts)
                stamped[proc].append(new)
                if ev.kind == "send":
                    send_ts[ev.msg_id] = ts
                elif ev.kind == "recv":
                    sender = sends[ev.msg_id].process
                    first_msgs.setdefault((proc, sender), ts)
                cursors[proc] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise CausalityError("cyclic message causality; cannot stamp traces")

    traces = {
        proc: ProcessTrace(proc, tuple(stamped[proc])) for proc in raw_traces
    }
    return traces, FirstMsgMap(dict(first_msgs))


def merge_global(traces: Mapping[str, ProcessTrace]) -> GlobalOrder:
    """Merge stamped traces into one total order by (ts, process, seq)."""
    flat: list[EventRecord] = []
    for proc in sorted(traces):
        trace = traces[proc]
        if not trace.stamped:
            raise TraceError(f"trace of {proc} is not stamped")
        flat.extend(trace.events)
    flat.sort(key=lambda e: (e.ts, e.process, e.seq))
    return GlobalOrder(tuple(flat))


class EventGraph:
    """Happens-before index over a set of stamped traces.

    Built in one pass over the merged order, it keeps a Fidge/Mattern vector
    clock at every recv event: per process, the largest ``seq`` of that
    process that happens before or at the recv (-1 for none).  Other events
    need no clock of their own, since only a recv can learn about another
    process.  Along one process every component only grows, so the recvs of
    a process that an event happens before form a suffix, found by one
    binary search.  A message whose send or recv is missing from the traces
    (e.g. after :func:`filter_traces`) adds no edge.
    """

    def __init__(self, traces: Mapping[str, ProcessTrace]):
        procs = sorted(traces)
        self._index = {p: i for i, p in enumerate(procs)}
        self._recvs: dict[str, list[EventRecord]] = {p: [] for p in procs}
        clocks: dict[str, list[tuple[int, ...]]] = {p: [] for p in procs}
        current = {p: [-1] * len(procs) for p in procs}
        sent: dict[str, list[int]] = {}
        received: set[str] = set()
        for ev in merge_global(traces).merged:
            clock = current[ev.process]
            clock[self._index[ev.process]] = ev.seq
            if ev.kind == "send":
                if ev.msg_id in sent:
                    raise MalformedTraceError(f"duplicate send msg_id {ev.msg_id!r}")
                if ev.msg_id in received:
                    raise CausalityError(f"recv of {ev.msg_id!r} is stamped before its send")
                sent[ev.msg_id] = clock.copy()
            elif ev.kind == "recv":
                if ev.msg_id in received:
                    raise MalformedTraceError(f"duplicate recv msg_id {ev.msg_id!r}")
                received.add(ev.msg_id)
                if ev.msg_id in sent:
                    clock[:] = map(max, clock, sent[ev.msg_id])
                self._recvs[ev.process].append(ev)
                clocks[ev.process].append(tuple(clock))
        # _columns[p][i]: component i of p's recv clocks in program order,
        # nondecreasing; component p of a recv's clock is its own seq
        self._columns = {p: list(zip(*clocks[p])) for p in procs}

    def reaches(self, src: tuple[str, int], dst: tuple[str, int]) -> bool:
        """True iff event ``src`` happens before event ``dst`` (both keys)."""
        (p, s), (q, t) = src, dst
        if p == q:
            return s < t
        columns = self._columns[q]
        if not columns:
            return False
        k = bisect_right(columns[self._index[q]], t)  # recvs at or before dst
        return k > 0 and columns[self._index[p]][k - 1] >= s

    def downstream_recvs(self, start: EventRecord) -> list[EventRecord]:
        """All recv events that ``start`` happens before, each process's in
        program order."""
        i = self._index[start.process]
        out = []
        for proc, recvs in self._recvs.items():
            if recvs:
                # a recv of start's own process must come after start
                bound = start.seq + 1 if proc == start.process else start.seq
                out.extend(recvs[bisect_left(self._columns[proc][i], bound):])
        return out

    def first_reached_ts(self, start: EventRecord) -> dict[str, int]:
        """Per process other than ``start``'s, the ts of its first recv that
        ``start`` happens before."""
        out: dict[str, int] = {}
        for recv in self.downstream_recvs(start):
            if recv.process != start.process:
                out.setdefault(recv.process, recv.ts)
        return out


def happens_before(
    e1: EventRecord, e2: EventRecord, traces: Mapping[str, ProcessTrace]
) -> bool:
    """True iff e1 precedes e2 in the closure of program order and messages."""
    if e1.ts is None or e2.ts is None:
        raise TraceError("happens_before requires stamped events")
    return EventGraph(traces).reaches(e1.key(), e2.key())


SPAN_EVENT_KINDS = frozenset({"entry", "returned_into", "send", "recv"})


def method_spans(
    traces: Mapping[str, ProcessTrace]
) -> dict[MethodId, tuple[int, int]]:
    """fe/lr per executed method.

    A method's span runs from its first entry timestamp to its last method
    or message event timestamp; for methods that make calls the span ends at
    the last returned-into event, and it degrades gracefully for leaf methods
    (which never have one).  Coverage events carry no ordering information of
    their own and are excluded, so spans are identical whether a trace holds
    all instances or only the first/last ones.
    """
    first_entry: dict[MethodId, int] = {}
    last_event: dict[MethodId, int] = {}
    for trace in traces.values():
        for ev in trace.events:
            if ev.kind == "entry" and ev.method not in first_entry:
                first_entry[ev.method] = ev.ts
            if ev.kind in SPAN_EVENT_KINDS:
                last_event[ev.method] = max(last_event.get(ev.method, 0), ev.ts)
    return {
        m: (first_entry[m], last_event[m]) for m in first_entry
    }


def influenced_recv_ts(
    traces: Mapping[str, ProcessTrace],
) -> dict[tuple[str, str], int]:
    """(receiver, origin) -> ts of receiver's first recv that is causally
    downstream of any send in the origin process, directly or via message
    chains through other processes.  Influence leaves a process only through
    its sends, so querying from the origin's first event covers them all."""
    graph = EventGraph(traces)
    out: dict[tuple[str, str], int] = {}
    for origin in sorted(traces):
        if traces[origin].events:
            first = traces[origin].events[0]
            for receiver, ts in graph.first_reached_ts(first).items():
                out[(receiver, origin)] = ts
    return out


def filter_traces(
    traces: Mapping[str, ProcessTrace], methods: Iterable[MethodId]
) -> TraceMap:
    """Restrict traces to events of the given methods (relevance filtering)."""
    keep = set(methods)
    return {
        proc: ProcessTrace(
            proc, tuple(ev for ev in trace.events if ev.method in keep)
        )
        for proc, trace in traces.items()
    }


def reduce_first_last(trace: ProcessTrace) -> ProcessTrace:
    """Keep only each method's first entry and last method event.

    This models tracing only first-entry/last-returned-into instances; the
    last *entry* is retained as well when it postdates the last returned-into
    so that fe/lr are preserved exactly.
    """
    first: dict[MethodId, EventRecord] = {}
    last: dict[MethodId, EventRecord] = {}
    for ev in trace.events:
        if ev.kind not in METHOD_EVENT_KINDS:
            continue
        if ev.kind == "entry" and ev.method not in first:
            first[ev.method] = ev
        last[ev.method] = ev
    keep = {ev.key() for ev in first.values()} | {ev.key() for ev in last.values()}
    kept = []
    for ev in trace.events:
        if ev.kind in ("send", "recv") or ev.key() in keep:
            kept.append(ev)
    return ProcessTrace(trace.process, tuple(kept))


# ---------------------------------------------------------------------------
# Trace file format: one JSON object per line with fields proc, seq, kind,
# class, method, ts, msg_id, peer, branch_id, stmt_id.  Unknown fields are
# ignored.  A bundle is a directory of one file per process plus manifest.json
# naming the processes and the scenario.
# ---------------------------------------------------------------------------

_FIELDS = ("msg_id", "peer", "branch_id", "stmt_id")


def event_to_record(ev: EventRecord) -> dict:
    rec = {
        "proc": ev.process,
        "seq": ev.seq,
        "kind": ev.kind,
        "class": ev.method.class_name,
        "method": ev.method.method_name,
    }
    if ev.ts is not None:
        rec["ts"] = ev.ts
    for name in _FIELDS:
        value = getattr(ev, name)
        if value is not None:
            rec[name] = value
    return rec


def event_from_record(rec: Mapping) -> EventRecord:
    try:
        method = MethodId(rec["proc"], rec["class"], rec["method"])
        return EventRecord(
            kind=rec["kind"],
            method=method,
            seq=int(rec["seq"]),
            ts=int(rec["ts"]) if rec.get("ts") is not None else None,
            msg_id=rec.get("msg_id"),
            peer=rec.get("peer"),
            branch_id=rec.get("branch_id"),
            stmt_id=rec.get("stmt_id"),
        )
    except (KeyError, TypeError) as exc:
        raise MalformedTraceError(f"bad trace record {rec!r}") from exc


def write_trace(path: Path, trace: ProcessTrace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in trace.events:
            fh.write(json.dumps(event_to_record(ev), sort_keys=True) + "\n")


def read_trace(path: Path, process: str) -> ProcessTrace:
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedTraceError(f"not a JSON record: {line!r}") from exc
            events.append(event_from_record(rec))
    return ProcessTrace(process, tuple(events))


def write_bundle(
    directory: Path, traces: Mapping[str, ProcessTrace], scenario: Mapping
) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "scenario": dict(scenario),
        "processes": sorted(traces),
        "files": {proc: f"{proc}.trace" for proc in sorted(traces)},
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    for proc, trace in traces.items():
        write_trace(directory / manifest["files"][proc], trace)


def read_bundle(directory: Path) -> tuple[TraceMap, dict]:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise MalformedTraceError(f"no manifest.json in {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    traces = {}
    for proc in manifest["processes"]:
        traces[proc] = read_trace(directory / manifest["files"][proc], proc)
    return traces, manifest
