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
import math
import os
import re
import stat
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import compress, islice
from operator import attrgetter, le, lt
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

EVENT_KINDS = frozenset(
    {"entry", "returned_into", "send", "recv", "branch", "stmt_cover"}
)
METHOD_EVENT_KINDS = frozenset({"entry", "returned_into"})
MESSAGE_KINDS = frozenset({"send", "recv"})


class TraceError(ValueError):
    """Base class for trace-format and trace-content problems."""


class MalformedTraceError(TraceError):
    """A record violates the trace format (e.g. recv with unknown msg_id)."""


class EventOrderError(MalformedTraceError):
    """An event does not belong at its place in its process's trace, or has
    no ts; ``index`` is its position in the trace's events."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


class CausalityError(TraceError):
    """Message matching implies a causal cycle; no Lamport stamping exists."""


class _MethodFields(NamedTuple):
    process: str
    class_name: str
    method_name: str


class MethodId(_MethodFields):
    """Identifies one method: (process, program unit, signature) is unique.

    A tuple, so methods sort in report order (process, class, method) and
    hash and compare in C; ``__new__`` rejects an empty field."""

    __slots__ = ()

    def __new__(cls, process: str, class_name: str, method_name: str) -> "MethodId":
        if not (process and class_name and method_name):
            raise ValueError("MethodId fields must be non-empty")
        return tuple.__new__(cls, (process, class_name, method_name))

    @property
    def code_key(self) -> tuple[str, str]:
        """Process-independent identity, used to detect code reuse."""
        return (self.class_name, self.method_name)

    def qualified(self) -> str:
        return f"{self.process}.{self.class_name}.{self.method_name}"


class _EventFields(NamedTuple):
    kind: str
    method: MethodId
    seq: int
    ts: Optional[int] = None
    msg_id: Optional[str] = None
    peer: Optional[str] = None
    branch_id: Optional[str] = None
    stmt_id: Optional[str] = None


class EventRecord(_EventFields):
    """One traced event.  ``ts`` is None until Lamport stamping.

    A tuple, compared in C.  Its fields follow the rules of a trace file's
    records, :data:`TRACE_RECORD`, which are checked where a trace is read:
    a known kind, a ``msg_id`` on every message event and a ts of at least
    1."""

    __slots__ = ()

    @property
    def process(self) -> str:
        return self.method.process

    def key(self) -> tuple[str, int]:
        """Stable per-execution identity: (process, seq)."""
        return (self.process, self.seq)


@dataclass(frozen=True)
class ProcessTrace:
    """Events of one process, ordered by seq, every one of them stamped."""

    process: str
    events: tuple[EventRecord, ...]

    def __post_init__(self) -> None:
        # the checks of _check_order in C-level passes: each distinct
        # method's process, seq strictly rising, ts present and
        # non-decreasing
        events = self.events
        seqs = list(map(attrgetter("seq"), events))
        stamps = list(map(attrgetter("ts"), events))
        stamped = None not in stamps
        if not (
            all(m.process == self.process for m in set(map(attrgetter("method"), events)))
            and all(map(lt, seqs, islice(seqs, 1, None)))
            and stamped
            and all(map(le, stamps, islice(stamps, 1, None)))
        ):
            self._check_order(stamped)
            # every event is in place, so some event has no ts
            raise EventOrderError(
                f"trace of {self.process} is not stamped", stamps.index(None)
            )

    def _check_order(self, stamped: bool) -> None:
        """Raise :class:`EventOrderError` at the first event of another
        process, with a seq not above the one before, or, when every event
        is ``stamped``, stamped below the one before.  A trace without such
        an event but not stamped is refused at its first event without ts
        by ``__post_init__``."""
        prev = None
        for i, ev in enumerate(self.events):
            if ev.process != self.process:
                raise EventOrderError(
                    f"event of {ev.process} in trace of {self.process}", i
                )
            if prev is not None:
                if ev.seq <= prev.seq:
                    raise EventOrderError("seq must strictly increase", i)
                if stamped and ev.ts < prev.ts:
                    raise EventOrderError("timestamps decrease along trace", i)
            prev = ev


TraceMap = dict[str, ProcessTrace]


def stamp_lamport(raw_traces: Mapping[str, Sequence[EventRecord]]) -> TraceMap:
    """Assign Lamport timestamps to every event.

    Rules: each event increments its process counter; a send piggybacks its
    own timestamp; a recv takes max(local counter, piggybacked) + 1.  Existing
    timestamps on input events are ignored and recomputed, so stamping is
    idempotent.  Each ``msg_id`` must be sent once and received at most once.
    Which process first heard from which is answered by the vector clocks
    of :class:`EventGraph` (see :func:`influenced_recv_ts`).
    """
    sends: set[str] = set()
    for proc in raw_traces:
        for ev in raw_traces[proc]:
            if ev.kind == "send":
                if ev.msg_id in sends:
                    raise MalformedTraceError(f"duplicate send msg_id {ev.msg_id!r}")
                sends.add(ev.msg_id)
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
                stamped[proc].append(ev._replace(ts=ts))
                if ev.kind == "send":
                    send_ts[ev.msg_id] = ts
                cursors[proc] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise CausalityError("cyclic message causality; cannot stamp traces")

    return {proc: ProcessTrace(proc, tuple(stamped[proc])) for proc in raw_traces}


def merge_global(
    traces: Mapping[str, ProcessTrace], kinds: Optional[frozenset[str]] = None
) -> tuple[EventRecord, ...]:
    """All stamped events, or those of the given ``kinds``, in one
    deterministic total order extending the Lamport partial order: sorted
    by (ts, process, seq).  The traces are joined in process order, each
    in seq order, so a stable sort by ts alone keeps ties in (process,
    seq) order."""
    flat: list[EventRecord] = []
    for proc in sorted(traces):
        events = traces[proc].events
        if kinds is None:
            flat.extend(events)
        else:
            wanted = map(kinds.__contains__, map(attrgetter("kind"), events))
            flat.extend(compress(events, wanted))
    flat.sort(key=attrgetter("ts"))
    return tuple(flat)


class EventGraph:
    """Happens-before index over a set of stamped traces, and the one place
    where messages are matched by ``msg_id``.

    Built in one pass over the send and recv events in merged order, it
    keeps a Fidge/Mattern vector clock at every recv event: per process, the
    largest ``seq`` of that process that happens before or at the recv (-1
    for none).  Other events need no clock of their own, since only a recv
    can learn about another process, and the pass skips them: one would only
    set its process's own component, which that process's next send or recv
    sets again.  Along one process every component only grows, so the recvs
    of a process that an event happens before form a suffix, whose first
    recv one binary search finds.  A message whose send or recv is missing
    from the traces (e.g. after :func:`filter_traces`) adds no edge.

    ``messages`` counts the sends of each (sender, receiver) process pair.
    A message's receiver is the process whose recv took its ``msg_id``;
    only a message that no recv took falls back to its send's ``peer``, and
    one with neither is not counted.
    """

    def __init__(self, traces: Mapping[str, ProcessTrace]):
        procs = sorted(traces)
        self._index = {p: i for i, p in enumerate(procs)}
        self._recvs: dict[str, list[EventRecord]] = {p: [] for p in procs}
        clocks: dict[str, list[tuple[int, ...]]] = {p: [] for p in procs}
        current = {p: [-1] * len(procs) for p in procs}
        # msg_id -> (sender, peer, the send's clock)
        sent: dict[str, tuple[str, Optional[str], list[int]]] = {}
        receiver: dict[str, str] = {}
        index = self._index
        for ev in merge_global(traces, MESSAGE_KINDS):
            proc, msg = ev.method.process, ev.msg_id
            clock = current[proc]
            clock[index[proc]] = ev.seq
            if ev.kind == "send":
                if msg in sent:
                    raise MalformedTraceError(f"duplicate send msg_id {msg!r}")
                if msg in receiver:
                    raise CausalityError(f"recv of {msg!r} is stamped before its send")
                sent[msg] = (proc, ev.peer, clock.copy())
            else:
                if msg in receiver:
                    raise MalformedTraceError(f"duplicate recv msg_id {msg!r}")
                receiver[msg] = proc
                if msg in sent:
                    clock[:] = map(max, clock, sent[msg][2])
                self._recvs[proc].append(ev)
                clocks[proc].append(tuple(clock))
        # _columns[p][i]: component i of p's recv clocks in program order,
        # nondecreasing; component p of a recv's clock is its own seq
        self._columns = {p: list(zip(*clocks[p])) for p in procs}
        self.messages: dict[tuple[str, str], int] = {}
        for msg, (proc, peer, _) in sent.items():
            to = receiver.get(msg, peer)
            if to is not None:
                self.messages[proc, to] = self.messages.get((proc, to), 0) + 1

    def downstream_recvs(self, start: EventRecord) -> dict[str, EventRecord]:
        """Per process, in process order, its first recv that ``start``
        happens before."""
        own, seq = start.method.process, start.seq
        i = self._index[own]
        out = {}
        for proc, recvs in self._recvs.items():
            if recvs:
                # a recv of start's own process must come after start
                k = bisect_left(self._columns[proc][i], seq + 1 if proc == own else seq)
                if k < len(recvs):
                    out[proc] = recvs[k]
        return out

    def first_reached_ts(self, start: EventRecord) -> dict[str, int]:
        """Per process other than ``start``'s, in process order, the ts of
        its first recv that ``start`` happens before."""
        own = start.method.process
        return {
            proc: ev.ts for proc, ev in self.downstream_recvs(start).items() if proc != own
        }


SPAN_EVENT_KINDS = frozenset({"entry", "returned_into", "send", "recv"})


def first_entries(traces: Mapping[str, ProcessTrace]) -> dict[MethodId, EventRecord]:
    """Each executed method's first entry event, in order of the traces."""
    out: dict[MethodId, EventRecord] = {}
    for trace in traces.values():
        for ev in trace.events:
            if ev.kind == "entry" and ev.method not in out:
                out[ev.method] = ev
    return out


def method_spans(
    traces: Mapping[str, ProcessTrace],
    entries: Optional[Mapping[MethodId, EventRecord]] = None,
) -> dict[MethodId, tuple[int, int]]:
    """fe/lr per executed method.

    A method's span runs from its first entry timestamp to its last method
    or message event timestamp; for methods that make calls the span ends at
    the last returned-into event, and it degrades gracefully for leaf methods
    (which never have one).  Coverage events carry no ordering information of
    their own and are excluded, so spans are identical whether a trace holds
    all instances or only the first/last ones.  fe comes from ``entries``,
    the :func:`first_entries` of the traces, which a caller that needs
    them too passes in; without it they are computed here.  A method's
    events are all in its process's trace, whose stamps never decrease
    (:class:`ProcessTrace`), so its last span event there has its largest
    ts.
    """
    if entries is None:
        entries = first_entries(traces)
    last_event: dict[MethodId, int] = {}
    for trace in traces.values():
        for ev in trace.events:
            if ev.kind in SPAN_EVENT_KINDS:
                last_event[ev.method] = ev.ts
    return {m: (ev.ts, last_event[m]) for m, ev in entries.items()}


def influenced_recv_ts(
    traces: Mapping[str, ProcessTrace],
) -> dict[str, dict[str, int]]:
    """origin -> {receiver: ts of receiver's first recv that is causally
    downstream of any send in the origin process, directly or via message
    chains through other processes}, for every origin process.  Influence
    leaves a process only through its sends, so querying from the origin's
    first event covers them all."""
    graph = EventGraph(traces)
    return {
        origin: graph.first_reached_ts(trace.events[0]) if trace.events else {}
        for origin, trace in traces.items()
    }


def reached_methods(
    spans: Mapping[MethodId, tuple[int, int]], reach: Mapping[str, int]
) -> set[MethodId]:
    """Methods of each process in ``reach`` whose last event is at or after
    ``reach[process]``, the time influence reached that process: the one
    rule by which a method joins a dependence set."""
    return {
        m for m, (_, lr) in spans.items()
        if m.process in reach and reach[m.process] <= lr
    }


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
        "ts": ev.ts,
    }
    for name in _FIELDS:
        value = getattr(ev, name)
        if value is not None:
            rec[name] = value
    return rec


def write_trace(path: Path, trace: ProcessTrace) -> None:
    write_output(path, (
        json.dumps(event_to_record(ev), sort_keys=True) + "\n" for ev in trace.events
    ))


_decode = json.JSONDecoder().raw_decode


@cache
def _trace_line():
    """The pattern of one line as :func:`write_trace` writes a stamped
    event: sorted keys, ``", "`` and ``": "`` separators, string values
    with nothing to unescape, integers of at most 18 digits (so ``int``
    never meets the digit limit), a known kind and ``ts`` at least 1.  Its
    groups are the fields in key order, ``''`` for an absent one.
    Compiled on first use, as ``simulate`` reads no trace."""
    s = r'"([^"\\\x00-\x1f]+)"'
    return re.compile(
        rf'^\{{(?:"branch_id": {s}, )?"class": {s}, '
        rf'"kind": "(entry|returned_into|send|recv|branch|stmt_cover)", '
        rf'"method": {s}, (?:"msg_id": {s}, )?(?:"peer": {s}, )?"proc": {s}, '
        rf'"seq": (0|[1-9][0-9]{{0,17}}), (?:"stmt_id": {s}, )?'
        rf'"ts": ([1-9][0-9]{{0,17}})\}}\n',
        re.MULTILINE,
    )


def _match_events(text: str) -> Optional[tuple[EventRecord, ...]]:
    """The events of ``text`` when every line of it matches
    :func:`_trace_line` and every send and recv has a ``msg_id``, else
    None.  Such lines hold exactly the values their JSON decodes to and
    have the shape :data:`TRACE_RECORD`, so each event is built straight
    from the matched groups, as a tuple."""
    rows = _trace_line().findall(text)
    if len(rows) != text.count("\n") or not text.endswith("\n"):
        return None
    methods: dict[tuple[str, str, str], MethodId] = {}
    events = []
    new = tuple.__new__
    for branch, cls, kind, name, msg, peer, proc, seq, stmt, ts in rows:
        if not msg and kind in MESSAGE_KINDS:
            return None
        key = (proc, cls, name)
        method = methods.get(key)
        if method is None:
            method = methods[key] = MethodId(*key)
        events.append(new(EventRecord, (
            kind, method, int(seq), int(ts),
            msg or None, peer or None, branch or None, stmt or None,
        )))
    return tuple(events)


def _decode_events(text: str, path: Path) -> tuple[EventRecord, ...]:
    """The events of ``text``, one JSON record per non-blank line, each
    decoded and checked on its own.  A line is decoded by ``raw_decode``,
    which skips the per-call checks of ``json.loads``; since the line is
    stripped, it is valid JSON exactly when that decode consumes all of
    it."""
    events = []
    methods: dict[tuple[str, str, str], MethodId] = {}
    for n, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec, end = _decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except json.JSONDecodeError as exc:
            raise MalformedTraceError(
                f"{path}:{n}: not a JSON record: {line!r}"
            ) from exc
        except ValueError as exc:  # an integer past the interpreter's digit limit
            raise MalformedTraceError(f"{path}:{n}: {exc}") from exc
        check_shape(TRACE_RECORD, rec, f"{path}:{n}", MalformedTraceError)
        key = (rec["proc"], rec["class"], rec["method"])
        method = methods.get(key)
        if method is None:
            method = methods[key] = MethodId(*key)
        events.append(EventRecord(
            rec["kind"], method, rec["seq"], rec.get("ts"), rec.get("msg_id"),
            rec.get("peer"), rec.get("branch_id"), rec.get("stmt_id"),
        ))
    return tuple(events)


def read_trace(path: Path, process: str) -> ProcessTrace:
    """The trace of ``process`` in the file at ``path``: one JSON record per
    non-blank line, else :class:`MalformedTraceError` naming ``path`` and
    the number of the first bad line, and quoting it.  A record has the
    shape :data:`TRACE_RECORD`: its string fields are non-empty and its
    ``seq`` and ``ts`` JSON integers (JSON ``true`` or ``2.5`` is none).
    Records of one method share one :class:`MethodId`.
    An event that is out of place in the trace (see :class:`ProcessTrace`),
    and the first event without ``ts`` of a trace whose events are in
    place, is named by its line too, which is counted only then.

    A file all of whose lines are in the layout that :func:`write_trace`
    writes for stamped events (every line matches one pattern, and the
    text ends in a newline) is read by that one pattern.  Any other file
    is decoded line by line, so every other valid layout reads the same,
    and every error names the same line, only more slowly.
    """
    text = read_text(path)
    events = _match_events(text)
    if events is None:
        events = _decode_events(text, path)
    try:
        return ProcessTrace(process, events)
    except EventOrderError as exc:
        # each non-blank line made one event
        n = [n for n, line in enumerate(text.split("\n"), 1) if line.strip()][exc.index]
        raise MalformedTraceError(f"{path}:{n}: {exc}") from exc


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
    write_output(directory / "manifest.json", json_text(manifest))
    for proc, trace in traces.items():
        write_trace(directory / manifest["files"][proc], trace)


# the size of the first read of an input; a read that fills its buffer is
# followed by one sized to the whole file, so a large file takes a few reads.
# Also the size, in characters, of a chunk of an output written in pieces
READ_CHUNK = 1 << 16


def read_text(path: Path) -> str:
    """The text of the file at ``path``, as text mode reads it: decoded as
    UTF-8, with universal newlines (``\\r\\n`` and a lone ``\\r`` become
    ``\\n``).  Bytes that are not UTF-8 raise ``ValueError`` naming the
    file; an error of the system names it too (a directory is an
    ``IsADirectoryError``, a missing file a ``FileNotFoundError``).

    The bytes come through a raw descriptor, in ``os.read`` calls up to
    the end of the file: a file shorter than :data:`READ_CHUNK` costs an
    open, two reads and a close, about 60% of the time of an unbuffered
    binary ``open`` and ``read``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        size = READ_CHUNK
        while chunk := os.read(fd, size):
            chunks.append(chunk)
            if len(chunk) == size:
                size = max(os.fstat(fd).st_size, READ_CHUNK)
    except OSError as exc:
        _name_file(exc, path)
        raise
    finally:
        os.close(fd)
    try:
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _name_file(exc: OSError, path: Path) -> None:
    """Name ``path`` in ``exc``, an error of the system met on that file,
    unless it names a file already; as ``os.open`` names it, a string."""
    if exc.filename is None:
        exc.filename = os.fspath(path)


def _cut_stale_tail(fd: int, written: int) -> None:
    """Cut the file open at ``fd`` where the bytes written through ``fd``
    end, if it is a regular file longer than that; a device or a pipe,
    which has no size to cut, is left as is.  ``written`` counts those
    bytes and may fall short of them (an interrupt can land between a
    write and its count), so only a file longer than ``written`` costs a
    seek, which finds the exact end."""
    st = os.fstat(fd)
    if stat.S_ISREG(st.st_mode) and st.st_size > written:
        end = os.lseek(fd, 0, os.SEEK_CUR)
        if st.st_size > end:
            os.ftruncate(fd, end)


def json_text(data, indent: int | None = 2) -> str:
    """``data`` as the key-sorted JSON text of a written file, indented by
    ``indent`` or, with ``None``, on one line (which ``json`` writes with its
    C encoder; indenting runs its encoder in Python).  A NaN or infinite
    number is a ``ValueError``: JSON has no such value."""
    return json.dumps(data, indent=indent, sort_keys=True, allow_nan=False) + "\n"


def _encoded_chunks(pieces: Iterable[str]) -> Iterable[bytes]:
    """The UTF-8 bytes of ``pieces`` in chunks of about :data:`READ_CHUNK`
    characters; a piece that long or longer is encoded on its own, never
    copied into a chunk."""
    chunk: list[str] = []
    size = 0
    for piece in pieces:
        if len(piece) >= READ_CHUNK:
            if chunk:
                yield "".join(chunk).encode("utf-8")
                chunk, size = [], 0
            yield piece.encode("utf-8")
            continue
        chunk.append(piece)
        size += len(piece)
        if size >= READ_CHUNK:
            yield "".join(chunk).encode("utf-8")
            chunk, size = [], 0
    if chunk:
        yield "".join(chunk).encode("utf-8")


def write_output(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text`` to the file at ``path`` as UTF-8, through a raw
    descriptor with no text stream: a ``str`` is encoded once, before the
    file is opened, and written with one ``os.write``; an iterable of
    ``str`` pieces (a long report) is encoded and written a chunk at a
    time (see :func:`_encoded_chunks`).  A pipe, a signal or a size limit
    that takes part of a write gets the rest in more writes.

    A missing file is created.  An existing file is written over its old
    bytes, not truncated on opening, and then, if it is a regular file
    longer than what was written, cut where the written bytes end: after a
    normal exit that is the end of the new text, and after an exception (a
    failed write such as a full disk, or an error raised by the pieces)
    the end of what reached the file, so no stale tail is left either way.
    A device or a pipe, which has no size to cut, is written as is.  An
    error of the system met on the file names ``path``; the cut comes
    first.  A new file costs an open, a write per chunk, an ``fstat`` and
    a close; a rewrite costs a seek and a cut more only when the old file
    was longer.

    Skipping the truncation on opening matters on ext4, whose default
    ``auto_da_alloc`` makes the close of a file truncated to zero start
    its write-back to disk.  The price is paid when a process is killed
    outright (SIGKILL, or SIGTERM, whose default action runs no
    ``finally``) or the power fails mid-write: the file can then hold new
    bytes followed by the old file's tail, where truncating on opening
    would have left it cut short, so the outputs of a run that did not
    finish are not results."""
    chunks = (text.encode("utf-8"),) if isinstance(text, str) else _encoded_chunks(text)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        try:
            for data in chunks:
                done = os.write(fd, data)
                if done < len(data):
                    with memoryview(data) as view:
                        while done < len(view):
                            done += os.write(fd, view[done:])
                written += done
        finally:
            try:
                _cut_stale_tail(fd, written)
            finally:
                os.close(fd)
    except OSError as exc:
        _name_file(exc, path)
        raise


def read_json(path: Path, shape: Sequence, error: type):
    """The JSON value in the file at ``path``, of the given ``shape`` (else
    ``error``, see :func:`check_shape`).  Text that is not JSON raises
    ``json.JSONDecodeError``, and an integer longer than the interpreter's
    digit limit ``ValueError``, whose message names the file."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return check_shape(shape, data, path, error)


def is_number(value) -> bool:
    """True for a JSON number that is a finite float: not the NaN and
    Infinity that ``json.loads`` accepts, nor an integer too big for a
    float.  type() rather than isinstance(), since JSON true is no number."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# ---------------------------------------------------------------------------
# Input shapes.  Each input format declares its shape once, as (field,
# predicate, message) entries that its one decoder checks with check_shape.
# A field is an object member by name, None for the whole record, NAMES for
# the name of each member of an object, or MEMBERS for the value of each
# member of an object or a list.  An absent member reads as ABSENT, which
# only optional() and nullable() admit.  An entry may hold, in place of a
# predicate, the shape of a present member.
# ---------------------------------------------------------------------------

ABSENT, NAMES, MEMBERS = object(), object(), object()  # unlike any JSON value


def check_shape(shape: Sequence, record, where, error: type):
    """``record`` if each entry of ``shape`` holds, in order; else ``error``
    of ``where`` and the message of the first that fails, formatted with
    the ``record``, the member's ``key`` and its ``value``."""
    for field, test, message in shape:
        if field is NAMES or field is MEMBERS:
            items = record.items() if type(record) is dict else enumerate(record)
        else:
            items = ((field, record if field is None else record.get(field, ABSENT)),)
        for key, value in items:
            if type(test) is tuple:
                if value is not ABSENT:
                    check_shape(test, value, where, error)
            elif not test(key if field is NAMES else value):
                raise error(f"{where}: " + message.format(record=record, key=key, value=value))
    return record


def of_type(kind: type):
    """Values of exactly the type ``kind``, as JSON true is no ``int``."""
    return lambda value: type(value) is kind


is_int, is_list, is_object = of_type(int), of_type(list), of_type(dict)


def is_name(value) -> bool:
    return type(value) is str and value != ""


def is_count(value) -> bool:
    """True for a JSON integer that a float can hold."""
    return type(value) is int and is_number(value)


def is_ts(value) -> bool:
    """True for a Lamport timestamp: a JSON integer of at least 1."""
    return type(value) is int and value >= 1


def is_present(value) -> bool:
    return value is not ABSENT and value is not None


def optional(test):
    return lambda value: value is ABSENT or test(value)


def nullable(test):
    return lambda value: value is ABSENT or value is None or test(value)


def list_of(test):
    return lambda value: type(value) is list and all(map(test, value))


def map_of(test):
    """JSON objects whose every member's value passes ``test``."""
    return lambda value: type(value) is dict and all(map(test, value.values()))


def tuple_of(*tests):
    """JSON lists of one item per test, each passing its test; a loop, as
    ``all`` over a generator costs twice as much per row of a run.json."""

    def test(value) -> bool:
        if type(value) is not list or len(value) != len(tests):
            return False
        for item_test, item in zip(tests, value):
            if not item_test(item):
                return False
        return True

    return test


NOT_AN_OBJECT = (None, is_object, "not a JSON object")
_BAD_RECORD = "bad trace record {record!r}"

# one line of a trace file, and a bundle's manifest.json (its scenario is
# not read)
TRACE_RECORD = (
    (None, is_object, _BAD_RECORD),
    *((name, is_name, _BAD_RECORD) for name in ("proc", "class", "method", "kind")),
    ("seq", is_int, _BAD_RECORD),
    ("ts", nullable(is_int), _BAD_RECORD),
    *((name, nullable(is_name), _BAD_RECORD) for name in _FIELDS),
    ("kind", EVENT_KINDS.__contains__, "unknown event kind {value!r}"),
    (None, lambda rec: rec["kind"] not in MESSAGE_KINDS or is_present(rec.get("msg_id")),
     "{record[kind]} event requires msg_id"),
    ("ts", nullable(is_ts), "stamped timestamps start at 1"),
)
BUNDLE_MANIFEST = (
    NOT_AN_OBJECT,
    ("processes", list_of(is_name), "'processes' must be a list of process names"),
    ("files", optional(map_of(is_name)), "'files' must map each process to a file name"),
)

# the JSON inputs of the commands
SCENARIO = (  # simulate --scenario
    NOT_AN_OBJECT,
    ("topology", is_present, "no 'topology'"),
    ("seed", optional(is_int), "'seed' must be an integer, got {value!r}"),
    ("length", optional(is_int), "'length' must be an integer, got {value!r}"),
    ("tiers", nullable(is_int), "'tiers' must be an integer, got {value!r}"),
)
SOURCE_SINK = (  # flowpaths --config
    NOT_AN_OBJECT,
    ("sources", optional(list_of(is_name)), "'sources' must be a list of strings"),
    ("sinks", optional(list_of(is_name)), "'sinks' must be a list of strings"),
)
MESSAGE_COUNTS = list_of(tuple_of(is_name, is_name, is_count))
FACT_METHODS = (  # one lambda per check of a row, the cheapest form of the hottest check
    (MEMBERS, lambda m: type(m) is list and len(m) == 6 and is_name(m[0]) and is_name(m[1])
     and is_name(m[2]) and is_object(m[5]),
     "each method of 'facts' must be [process, class, method, fe, lr, reach], got {value!r}"),
    (MEMBERS, lambda m: is_ts(m[3]) and is_ts(m[4]) and all(map(is_ts, m[5].values())),
     "the timestamps of {value[0]}.{value[1]}.{value[2]} in 'facts'"
     " must be integers of at least 1"),
)
RUN = (  # run.json of a tune output, read by query and metrics --run
    NOT_AN_OBJECT,
    ("bundle", is_name, "'bundle' must be a path"),
    ("deps_files", map_of(is_name), "'deps_files' must map each process to a file name"),
    ("facts", is_present, "no run facts (written by an older tune); re-run tune"),
    ("processes", list_of(is_name), "'processes' must be a list of process names"),
    ("facts", (
        (None, is_object, "'facts' must hold a 'methods' list"),
        ("methods", is_list, "'facts' must hold a 'methods' list"),
        ("methods", FACT_METHODS, None),
        ("messages", MESSAGE_COUNTS, "'messages' of 'facts' must be a list of [from, to, count]"),
    ), None),
)
DEP_DATA = (  # metrics --depdata
    NOT_AN_OBJECT,
    ("messages", optional(MESSAGE_COUNTS), "'messages' must be a list of [from, to, count]"),
    ("local", optional(is_object), "'local' must map each method to a list"),
    ("local", ((MEMBERS, list_of(is_name), "local[{key!r}] must be a list of strings"),), None),
    ("remote", optional(is_object), "'remote' must map each method to a list"),
    ("remote", ((MEMBERS, list_of(is_name), "remote[{key!r}] must be a list of strings"),), None),
    ("executed", list_of(is_name), "'executed' must be a list of strings"),
)
VULNS = (  # quality --vulns
    NOT_AN_OBJECT,
    ("n_non_nvd", optional(is_count), "'n_non_nvd' must be an integer"),
    ("entries", optional(list_of(tuple_of(is_number, is_number))),
     "'entries' must be a list of [cvss, years]"),
)
METRIC_ROWS = (  # correlate --ipc and --quality
    NOT_AN_OBJECT,
    (None, map_of(list_of(is_number)), "must map each metric name to a list of numbers"),
)
FEATURES = (  # classify --features
    (None, list_of(list_of(is_number)), "features must be a list of lists of numbers"),
    (None, lambda points: len({len(p) for p in points}) < 2, "points must share dimensionality"),
)


def read_bundle(directory: Path) -> tuple[TraceMap, dict]:
    """The traces of the bundle at ``directory``, each from the file its
    manifest names, and the manifest.  Every trace must be stamped, as
    ``simulate`` writes them (:func:`read_trace` refuses one that is not):
    no command stamps traces on input."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = read_json(manifest_path, BUNDLE_MANIFEST, MalformedTraceError)
    files = manifest.get("files", {})
    traces = {}
    for proc in manifest["processes"]:
        if proc not in files:
            raise MalformedTraceError(
                f"{manifest_path}: no trace file named for process {proc!r}"
            )
        traces[proc] = read_trace(directory / files[proc], proc)
    return traces, manifest
