"""Independent brute-force oracles used to check the analysis implementations.

Everything here recomputes results straight from definitions, by exhaustive
closure or enumeration, deliberately avoiding the incremental algorithms in
the package under test; method spans, influence and dependence sets come
from a plain scan of the traces and from ``closure_matrix``.  Seven oracles
are earlier versions of package code, kept as they were so that optimized
versions can be held to exactly the same output: ``reference_method_paths``
(the phase-1 enumerator, whose caps decide which paths are emitted; it
keeps its own record, not the package's ``PathSet``),
``reference_render_paths`` (the ``phase1.txt`` writer over
method tuples), ``reference_graph_file`` (the writer of one static-graph
variant's file, from before the variants shared one file),
``junction_oracle`` (the splice junction rule, re-evaluated per question), ``splice_oracle`` (the segment splicer, testing
every junction of every prefix with ``junction_oracle``) and
``permutation_p_oracle`` (the exact Spearman p over every permutation, once
a vectorized loop, here a plain one) and ``reference_ipc_metrics`` (the IPC
metrics with a class-coupling ratio recomputed per class pair).
``reference_event`` is the conversion of one trace record that
``read_trace`` does inline, kept as a function under the same rules;
``order_error_oracle`` is the event-by-event loop of ``ProcessTrace``'s
checks, ``first_last_reference`` the first/last-instance reduction of a
method-event queue that ``engine.compute_deps`` reads off its queue
positions, ``event_graph_oracle`` builds ``EventGraph``'s recv lists and
clocks by visiting every event, not only sends and recvs,
``message_count_oracle`` counts its messages in two passes over every
event, and ``pruned_ddg_oracle`` drops uncovered statements from a DDG
built over all of them, as phase 2 once did.  The
last section holds helpers that
only the tests call, so the package need not carry them: views of phase-1
and phase-2 results and the predicates that check them.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from crossflow.methodpaths import (
    DEFAULT_MAX_PATHS,
    DEFAULT_PATH_LIMIT,
    DEFAULT_WORK_BUDGET,
)
from crossflow.metrics import IpcReport
from crossflow.trace import (
    EventRecord,
    MalformedTraceError,
    MethodId,
    ProcessTrace,
    merge_global,
)


def method_key(m: MethodId) -> tuple[str, str, str]:
    """The report order of methods, spelled out so that the oracles do not
    rely on the order of the type they check."""
    return (m.process, m.class_name, m.method_name)


def closure_matrix(traces: dict[str, ProcessTrace]) -> dict[tuple, set[tuple]]:
    """Transitive closure of program order + message edges via reverse
    topological DP over the merged (ts, proc, seq) order."""
    events = []
    for trace in traces.values():
        events.extend(trace.events)
    events.sort(key=lambda e: (e.ts, e.process, e.seq))
    succ: dict[tuple, set[tuple]] = {ev.key(): set() for ev in events}
    recvs = {ev.msg_id: ev for ev in events if ev.kind == "recv"}
    per_proc: dict[str, list[EventRecord]] = {}
    for ev in events:
        per_proc.setdefault(ev.process, []).append(ev)
    for evs in per_proc.values():
        for a, b in zip(evs, evs[1:]):
            succ[a.key()].add(b.key())
    for ev in events:
        if ev.kind == "send" and ev.msg_id in recvs:
            succ[ev.key()].add(recvs[ev.msg_id].key())
    reach: dict[tuple, set[tuple]] = {}
    for ev in reversed(events):
        acc: set[tuple] = set()
        for s in succ[ev.key()]:
            acc.add(s)
            acc |= reach[s]
        reach[ev.key()] = acc
    return reach


def hb_oracle(traces, e1: EventRecord, e2: EventRecord) -> bool:
    return e2.key() in closure_matrix(traces)[e1.key()]


def influenced_map_oracle(
    traces: dict[str, ProcessTrace],
    reach: dict[tuple, set[tuple]] | None = None,
) -> dict[tuple[str, str], int]:
    """(receiver, origin) -> first causally influenced recv ts, from the full
    event closure."""
    reach = closure_matrix(traces) if reach is None else reach
    events = {ev.key(): ev for t in traces.values() for ev in t.events}
    out: dict[tuple[str, str], int] = {}
    for proc in traces:
        for send in traces[proc].events:
            if send.kind != "send":
                continue
            for key in reach[send.key()]:
                ev = events[key]
                if ev.kind == "recv" and ev.process != proc:
                    pair = (ev.process, proc)
                    if pair not in out or ev.ts < out[pair]:
                        out[pair] = ev.ts
    return out


def remote_deps_oracle(
    traces: dict[str, ProcessTrace],
    reach: dict[tuple, set[tuple]] | None = None,
) -> dict[MethodId, set[MethodId]]:
    """Remote dependents of every executed method m, from the definition: the
    methods m2 of other processes whose last method or message event is no
    earlier than m's first entry, and for which some recv in m2's process
    that m's first entry happens before lands no later than that last event.
    """
    reach = closure_matrix(traces) if reach is None else reach
    events = {ev.key(): ev for t in traces.values() for ev in t.events}
    first_entry: dict[MethodId, EventRecord] = {}
    last_ts: dict[MethodId, int] = {}
    for trace in traces.values():
        for ev in trace.events:
            if ev.kind == "entry" and ev.method not in first_entry:
                first_entry[ev.method] = ev
            if ev.kind in ("entry", "returned_into", "send", "recv"):
                last_ts[ev.method] = max(last_ts.get(ev.method, 0), ev.ts)
    out: dict[MethodId, set[MethodId]] = {}
    for m, fe in first_entry.items():
        caused = [events[k] for k in reach[fe.key()] if events[k].kind == "recv"]
        out[m] = {
            m2
            for m2 in first_entry
            if m2.process != m.process
            and fe.ts <= last_ts[m2]
            and any(r.process == m2.process and r.ts <= last_ts[m2] for r in caused)
        }
    return out


def spans_oracle(
    traces: Mapping[str, ProcessTrace],
) -> dict[MethodId, tuple[int, int]]:
    """(first entry ts, last method or message event ts) of every method
    with an entry, by a plain scan of each trace."""
    entry: dict[MethodId, int] = {}
    last: dict[MethodId, int] = {}
    for trace in traces.values():
        for ev in trace.events:
            if ev.kind == "entry":
                entry[ev.method] = min(entry.get(ev.method, ev.ts), ev.ts)
            if ev.kind in ("entry", "returned_into", "send", "recv"):
                last[ev.method] = max(last.get(ev.method, ev.ts), ev.ts)
    return {m: (ts, last[m]) for m, ts in entry.items()}


def brute_force_ds(
    q: MethodId,
    traces: dict[str, ProcessTrace],
    spans: dict[MethodId, tuple[int, int]] | None = None,
    influenced: dict[tuple[str, str], int] | None = None,
) -> set[MethodId]:
    """DS(q) recomputed from the definition: a local member's last event must
    not precede q's first entry; a remote member needs the per-pair first
    influenced recv timestamp to land between q's entry and its own last
    event, with influence taken as the full transitive closure.  ``spans``
    and ``influenced`` default to :func:`spans_oracle` and
    :func:`influenced_map_oracle`."""
    if spans is None:
        spans = spans_oracle(traces)
    if q not in spans:
        return set()
    if influenced is None:
        influenced = influenced_map_oracle(traces)
    entry_ts = spans[q][0]
    proc_q = q.process
    members = {
        m for m in spans if m.process == proc_q and entry_ts <= spans[m][1]
    }
    for proc in traces:
        if proc == proc_q:
            continue
        t = influenced.get((proc, proc_q))
        if t is None:
            continue
        for m in spans:
            if m.process == proc and entry_ts <= t <= spans[m][1]:
                members.add(m)
    return members


def junction_oracle(
    order,
    index,
    out_stmt: str,
    in_stmt: str,
    strict: bool = False,
    stmt_methods: Mapping[str, MethodId] | None = None,
) -> bool:
    """The splice junction rule, re-filtering the merged order on every
    call: a send at ``out_stmt`` immediately followed by a recv at
    ``in_stmt`` among the message-callsite events (all events when
    ``strict``) of the two statements' processes (of every process when
    ``strict`` or without ``stmt_methods``)."""
    seq = [
        ev
        for ev in order
        if strict
        or (
            ev.kind in ("send", "recv")
            and ev.stmt_id is not None
            and (ev.stmt_id in index.inlets or ev.stmt_id in index.outlets)
        )
    ]
    if not strict and stmt_methods is not None:
        procs = (stmt_methods[out_stmt].process, stmt_methods[in_stmt].process)
        seq = [ev for ev in seq if ev.process in procs]
    return any(
        e1.kind == "send" and e1.stmt_id == out_stmt
        and e2.kind == "recv" and e2.stmt_id == in_stmt
        for e1, e2 in zip(seq, seq[1:])
    )


def splice_oracle(
    source_segs: Sequence[tuple[str, ...]],
    remote_segs: Sequence[tuple[str, ...]],
    sink_segs: Sequence[tuple[str, ...]],
    order,
    index,
    stmt_methods: Mapping[str, MethodId],
    strict: bool = False,
) -> list[tuple[str, ...]]:
    """``stmtpaths.splice_segments`` as it was before it kept per-statement
    successor lists: every prefix tests the junction to every sink segment
    and every unused remote segment afresh.  Returns the spliced statement
    sequences in output order."""
    spliced: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()

    def joins(out_stmt: str, in_stmt: str) -> bool:
        return junction_oracle(order, index, out_stmt, in_stmt, strict, stmt_methods)

    def extend(prefix: tuple[str, ...], used: frozenset[int]) -> None:
        for sink_seg in sink_segs:
            if joins(prefix[-1], sink_seg[0]):
                full = prefix + sink_seg
                if full not in seen:
                    seen.add(full)
                    spliced.append(full)
        for i, remote_seg in enumerate(remote_segs):
            if i in used:
                continue
            if joins(prefix[-1], remote_seg[0]):
                extend(prefix + remote_seg, used | {i})

    for source_seg in source_segs:
        extend(tuple(source_seg), frozenset())
    spliced.sort()
    return spliced


def all_simple_paths(
    edges: set[tuple[str, str]],
    starts: set[str],
    ends: set[str],
    allowed: set[str],
    limit: int = 64,
) -> set[tuple[str, ...]]:
    """Exhaustive DFS path enumeration over a directed graph."""
    adj: dict[str, list[str]] = {}
    for a, b in edges:
        if a in allowed and b in allowed:
            adj.setdefault(a, []).append(b)
    out: set[tuple[str, ...]] = set()

    def walk(node: str, path: list[str]) -> None:
        if node in ends:
            out.add(tuple(path))
        if len(path) >= limit:
            return
        for nxt in adj.get(node, ()):
            if nxt not in path:
                path.append(nxt)
                walk(nxt, path)
                path.pop()

    for s in sorted(starts & allowed):
        walk(s, [s])
    return out


def permutation_p_oracle(
    rx: list[float], ry: list[float], observed_abs: float
) -> float:
    """Exact two-sided Spearman p by brute force: the share of all
    permutations of ``ry`` whose |r| against ``rx`` reaches
    ``observed_abs`` (less 1e-12), each permutation's r computed in full."""
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    xc = [x - mx for x in rx]
    denom = math.sqrt(sum(v * v for v in xc) * sum((y - my) ** 2 for y in ry))
    total = at_least = 0
    for perm in itertools.permutations(ry):
        total += 1
        r = abs(sum(a * (b - my) for a, b in zip(xc, perm))) / denom
        if r >= observed_abs - 1e-12:
            at_least += 1
    return at_least / total


def rank_with_ties(values: list[float]) -> list[float]:
    """Average ranks computed by explicit position counting."""
    n = len(values)
    ranks = [0.0] * n
    for i, v in enumerate(values):
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        # positions less+1 .. less+equal share the average rank
        ranks[i] = less + (equal + 1) / 2.0
    return ranks


class ReferencePaths(NamedTuple):
    paths: frozenset[tuple[MethodId, ...]]
    truncated: bool


def reference_method_paths(
    traces: Mapping[str, ProcessTrace],
    source_methods: Iterable[MethodId],
    sink_methods: Iterable[MethodId],
    path_limit: int = DEFAULT_PATH_LIMIT,
    max_paths: int = DEFAULT_MAX_PATHS,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> ReferencePaths:
    """``methodpaths.method_level_paths`` as it was before its DFS moved to
    integer indices: the same visit order and cap checks over ``MethodId``
    objects, kept as the exact-equivalence oracle for the enumerator.  Its
    set of method tuples would absorb a repeated sequence that the package's
    tuple of lines keeps, so equal path counts show that none occurs.
    Spans, influence and DS come from the brute-force oracles above, not
    from the package."""
    spans = spans_oracle(traces)
    influenced = influenced_map_oracle(traces)
    sinks = {m for m in sink_methods if m in spans}
    sources = sorted(
        (m for m in source_methods if m in spans), key=method_key
    )
    paths: set[tuple[MethodId, ...]] = set()
    truncated = False
    for q in sources:
        ds = frozenset(brute_force_ds(q, traces, spans, influenced))
        if not ds & sinks:
            continue
        truncated |= _reference_enumerate(
            q, ds, sinks, spans, path_limit, max_paths, work_budget, paths
        )
    return ReferencePaths(frozenset(paths), truncated)


def _reference_enumerate(
    q: MethodId,
    members: frozenset[MethodId],
    sinks: set[MethodId],
    spans: Mapping[MethodId, tuple[int, int]],
    path_limit: int,
    max_paths: int,
    work_budget: int,
    out: set[tuple[MethodId, ...]],
) -> bool:
    """DFS over sequences where no member's first entry postdates a later
    member's last event.

    Candidates are visited in (fe, lr, name) order so causally early methods
    come first.  Branches from which no sink can be appended any more are cut
    (appending only raises the running max fe, so the cut is exact).  The
    enumeration reports truncation when the length cap, the path cap, or the
    work budget bites.
    """
    ordered = sorted(
        members, key=lambda m: (spans[m][0], spans[m][1], method_key(m))
    )
    reachable_sinks = members & sinks
    truncated = False
    steps = 0
    seq: list[MethodId] = [q]
    in_seq = {q}

    def walk(max_fe: int) -> None:
        nonlocal truncated, steps
        if seq[-1] in sinks:
            if len(out) >= max_paths:
                truncated = True
                return
            out.add(tuple(seq))
        if len(seq) >= path_limit:
            truncated = True
            return
        for m in ordered:
            if truncated and len(out) >= max_paths:
                return
            if m in in_seq:
                continue
            m_first, m_last = spans[m]
            if m_last < max_fe:
                continue  # some earlier member would start after m ended
            steps += 1
            if steps > work_budget:
                truncated = True
                return
            new_max = max(max_fe, m_first)
            seq.append(m)
            in_seq.add(m)
            if m in sinks or any(
                s not in in_seq and spans[s][1] >= new_max
                for s in reachable_sinks
            ):
                walk(new_max)
            seq.pop()
            in_seq.discard(m)

    walk(spans[q][0])
    return truncated


def reference_render_paths(paths: Iterable[tuple[MethodId, ...]]) -> str:
    """``methodpaths.render_paths`` as it was before phase 1 kept its paths
    as rank tuples: ``phase1.txt`` from method tuples."""
    paths = list(paths)
    ranked = sorted(set().union(*paths), key=method_key)
    rank = {m: i for i, m in enumerate(ranked)}
    names = [m.qualified() for m in ranked]
    lines = [
        "path level=method " + " -> ".join([names[i] for i in key])
        for key in sorted(tuple([rank[m] for m in p]) for p in paths)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_graph_file(graph) -> str:
    """One static-graph variant in the file layout it had while each
    variant was written to a file of its own: sorted ``node`` and ``edge``
    records, the ICFG successors in their order, the set guards, then the
    send and the recv sites, from the graph's fields alone."""
    lines = [
        f"node {stmt} {m.method_name} {m.class_name} {m.process}"
        for stmt, m in sorted(graph.nodes.items())
    ]
    lines += [f"edge {kind} {src} {dst}" for kind, src, dst in sorted(graph.edges)]
    lines += [
        f"cfg {src} {dst}" for src in sorted(graph.icfg_succ) for dst in graph.icfg_succ[src]
    ]
    lines += [
        f"guard {stmt} {guard}" for stmt, guard in sorted(graph.guards.items())
        if guard is not None
    ]
    lines += [f"msgsite send {stmt}" for stmt in sorted(graph.send_sites)]
    lines += [f"msgsite recv {stmt}" for stmt in sorted(graph.recv_sites)]
    return "\n".join(lines) + "\n"


def reference_ipc_metrics(dep, table_rcc: bool = False):
    """``metrics.ipc_metrics`` as it was when it rebuilt the remote union of
    a class for every class pair it took part in (``class_pair_rcc``)."""
    def _mean(values) -> float:
        vals = list(values)
        return sum(vals) / len(vals) if vals else 0.0

    if not dep.executed:
        empty: dict = {}
        return IpcReport(0, 0, 0, 0, 0, 0, empty, empty, empty, empty, empty, empty,
                         empty_execution=True)

    executed = dep.executed
    by_class: dict[tuple[str, str], set[MethodId]] = {}
    by_process: dict[str, set[MethodId]] = {}
    for m in sorted(executed, key=method_key):
        by_class.setdefault((m.process, m.class_name), set()).add(m)
        by_process.setdefault(m.process, set()).add(m)

    process_rmc = {pair: float(n) for pair, n in dep.messages.items() if n > 0}
    rmc = _mean(process_rmc.values())

    method_ipr = {}
    for m in sorted(executed, key=method_key):
        local_keys = {d.code_key for d in dep.local(m)}
        remote_keys = {d.code_key for d in dep.remote(m)}
        method_ipr[m] = len(local_keys & remote_keys) / len(executed)
    ipr = sum(method_ipr.values()) / len(executed)

    class_ccl = {
        cls: sum(len(dep.remote(m)) for m in methods) / len(methods)
        for cls, methods in by_class.items()
    }
    ccl = _mean(class_ccl.values())

    process_plc = {
        proc: sum(len(dep.local(m)) for m in methods) / len(methods)
        for proc, methods in by_process.items()
    }
    plc = _mean(process_plc.values())

    def class_pair_rcc(c1: tuple[str, str], c2: tuple[str, str]) -> float:
        c1_methods = by_class[c1]
        c2_methods = by_class[c2]
        if table_rcc:
            dependents_of_c1 = set().union(*(dep.remote(m) for m in c1_methods))
            num = len(dependents_of_c1 & c2_methods)
            dependents_of_c2 = set().union(*(dep.remote(m) for m in c2_methods))
            den = len({d for d in dependents_of_c2 if d.process != c1[0]})
        else:
            num = sum(
                1 for m in c1_methods if dep.remote(m) & c2_methods
            )
            den = len(set().union(*(dep.remote(m) for m in c1_methods)))
        return num / den if den else 0.0

    class_ccc = {}
    for c1 in by_class:
        total = 0.0
        for c2 in by_class:
            if c2[0] == c1[0]:
                continue
            total += class_pair_rcc(c1, c2)
        class_ccc[c1] = total
    ccc = _mean(class_ccc.values())

    process_rcc = {}
    for proc, methods in by_process.items():
        remote_union = set().union(*(dep.remote(m) for m in methods))
        all_union = remote_union | set().union(*(dep.local(m) for m in methods))
        process_rcc[proc] = (
            len(remote_union) / len(all_union) if all_union else 0.0
        )
    rcc = _mean(process_rcc.values())

    return IpcReport(
        rmc=rmc, rcc=rcc, ccc=ccc, ipr=ipr, ccl=ccl, plc=plc,
        process_rmc=process_rmc,
        process_rcc=process_rcc,
        class_ccc=class_ccc,
        method_ipr=method_ipr,
        class_ccl=class_ccl,
        process_plc=process_plc,
    )


def reference_event(rec) -> EventRecord:
    """The event of one decoded trace record, converted field by field
    with a new ``MethodId`` per record, by the rules that ``read_trace``
    applies in its loop: ``seq``, and ``ts`` unless absent or null, must
    be JSON integers (``True`` and ``2.0`` are not); ``proc``, ``class``,
    ``method`` and ``kind``, and the other string fields unless absent or
    null, must be non-empty strings.  A record that lacks a field or holds
    a bad one is a ``MalformedTraceError`` quoting it.  Then the kind must
    be known, a send or recv needs a ``msg_id`` and a ts is at least 1,
    else a ``MalformedTraceError`` says which rule failed."""
    try:
        seq, ts = rec["seq"], rec.get("ts")
        for value in (seq,) if ts is None else (seq, ts):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"not a JSON integer: {value!r}")
        strings = [rec[name] for name in ("proc", "class", "method", "kind")]
        strings += [
            rec[name] for name in ("msg_id", "peer", "branch_id", "stmt_id")
            if rec.get(name) is not None
        ]
        for value in strings:
            if not isinstance(value, str) or value == "":
                raise TypeError(f"not a non-empty string: {value!r}")
        kind = rec["kind"]
        if kind not in ("entry", "returned_into", "send", "recv", "branch", "stmt_cover"):
            raise MalformedTraceError(f"unknown event kind {kind!r}")
        if kind in ("send", "recv") and rec.get("msg_id") is None:
            raise MalformedTraceError(f"{kind} event requires msg_id")
        if ts is not None and ts < 1:
            raise MalformedTraceError("stamped timestamps start at 1")
        return EventRecord(
            kind=kind,
            method=MethodId(rec["proc"], rec["class"], rec["method"]),
            seq=seq,
            ts=ts,
            msg_id=rec.get("msg_id"),
            peer=rec.get("peer"),
            branch_id=rec.get("branch_id"),
            stmt_id=rec.get("stmt_id"),
        )
    except MalformedTraceError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedTraceError(f"bad trace record {rec!r}") from exc


def order_error_oracle(
    process: str, events: Sequence[EventRecord]
) -> Optional[tuple[Optional[int], str]]:
    """The index and message of the first event out of place in a trace of
    ``process``, by the loop that ``ProcessTrace`` runs over every event:
    an event of another process, a seq not above the one before, or, when
    every event has a ts, a ts below the one before.  With every event in
    place, the first event without ts and the not-stamped message when there
    is one, else None."""
    stamped = all(ev.ts is not None for ev in events)
    prev = None
    for i, ev in enumerate(events):
        if ev.process != process:
            return i, f"event of {ev.process} in trace of {process}"
        if prev is not None:
            if ev.seq <= prev.seq:
                return i, "seq must strictly increase"
            if stamped and ev.ts < prev.ts:
                return i, "timestamps decrease along trace"
        prev = ev
    for i, ev in enumerate(events):
        if ev.ts is None:
            return i, f"trace of {process} is not stamped"
    return None


def first_last_reference(qu: Sequence[int]) -> list[int]:
    """The first/last-instance reduction of a method-event queue (entries
    negative, returned-into events positive), by its definition: of each
    method, the first entry and the last event of either sign, in queue
    order."""
    keep = set()
    for m in {abs(e) for e in qu}:
        entries = [pos for pos, e in enumerate(qu) if e == -m]
        events = [pos for pos, e in enumerate(qu) if abs(e) == m]
        keep.update(entries[:1] + events[-1:])
    return [e for pos, e in enumerate(qu) if pos in keep]


def event_graph_oracle(traces: Mapping[str, ProcessTrace]):
    """``EventGraph``'s recv lists and clock columns (per process, per
    component, that component of its recvs' vector clocks), built in one
    pass over every event of ``merge_global``'s order, each setting its
    own process's component."""
    procs = sorted(traces)
    index = {p: i for i, p in enumerate(procs)}
    recvs: dict[str, list[EventRecord]] = {p: [] for p in procs}
    clocks: dict[str, list[tuple[int, ...]]] = {p: [] for p in procs}
    current = {p: [-1] * len(procs) for p in procs}
    sent: dict[str, list[int]] = {}
    for ev in merge_global(traces):
        clock = current[ev.process]
        clock[index[ev.process]] = ev.seq
        if ev.kind == "send":
            sent[ev.msg_id] = clock.copy()
        elif ev.kind == "recv":
            if ev.msg_id in sent:
                clock[:] = map(max, clock, sent[ev.msg_id])
            recvs[ev.process].append(ev)
            clocks[ev.process].append(tuple(clock))
    return recvs, {p: list(zip(*clocks[p])) for p in procs}


def message_count_oracle(traces: Mapping[str, ProcessTrace]) -> dict[tuple[str, str], int]:
    """``EventGraph.messages``: per (sender, receiver), the sends whose
    ``msg_id`` a recv of the receiver took, or, when no recv took it, whose
    ``peer`` is the receiver; found by one pass over every event for the
    recvs and one for the sends."""
    taken = {
        ev.msg_id: proc for proc, t in traces.items() for ev in t.events if ev.kind == "recv"
    }
    pairs = [
        (proc, taken.get(ev.msg_id, ev.peer))
        for proc, t in traces.items() for ev in t.events if ev.kind == "send"
    ]
    return {pair: pairs.count(pair) for pair in pairs if pair[1] is not None}


def pruned_ddg_oracle(
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str]],
    coverage: set[str],
    stmt_methods: Mapping[str, MethodId],
    traces: Mapping[str, ProcessTrace],
) -> tuple[frozenset[str], frozenset[tuple[str, str]], dict[str, set[str]]]:
    """A DDG built over every statement, pruned afterwards: its covered
    statements, the edges between them and, per process, the covered
    statements whose methods have any event in that process's trace, found
    by a pass over every event."""
    keep = frozenset(n for n in nodes if n in coverage)
    kept_edges = frozenset((a, b) for a, b in edges if a in keep and b in keep)
    groups = {}
    for proc, trace in traces.items():
        methods = {ev.method for ev in trace.events}
        groups[proc] = {n for n in keep if stmt_methods[n] in methods}
    return keep, kept_edges, groups


# ---------------------------------------------------------------------------
# Views and predicates over package results that only the tests need
# ---------------------------------------------------------------------------


def report_text(lines: Iterable[str]) -> str:
    """The text of a report file written from ``lines`` (as
    ``render_stmt_paths`` gives them): each line ended by a newline."""
    return "".join(f"{line}\n" for line in lines)


def path_keys(ps) -> list[tuple[int, ...]]:
    """The lines of a phase-1 ``PathSet``, in order, parsed back into
    tuples of ranks into ``ps.methods`` through its qualified names."""
    rank = {m.qualified(): i for i, m in enumerate(ps.methods)}
    assert len(rank) == len(ps.methods), "qualified names must be unique"
    head = "path level=method "
    keys = []
    for line in ps.paths:
        assert line.startswith(head), line
        keys.append(tuple([rank[name] for name in line[len(head):].split(" -> ")]))
    return keys


def flow_paths(ps) -> frozenset[tuple[MethodId, ...]]:
    """The paths of a phase-1 ``PathSet`` as method tuples."""
    ms = ps.methods
    return frozenset(tuple([ms[i] for i in k]) for k in path_keys(ps))


def stmt_sequences(lines: Iterable[str]) -> list[tuple[str, ...]]:
    """The statement tuples of ``phase2.txt`` lines
    (``path level=stmt kind=<intra|spliced> s1 -> s2 ...``), in line order."""
    out = []
    for line in lines:
        path, level, kind, body = line.split(" ", 3)
        assert (path, level) == ("path", "level=stmt"), line
        assert kind in ("kind=intra", "kind=spliced"), line
        out.append(tuple(body.split(" -> ")))
    return out


def all_stmt_sequences(result) -> set[tuple[str, ...]]:
    """Every statement path of a ``Phase2Result``, intra and spliced."""
    return set(stmt_sequences(result.intra_paths() + result.interprocess_paths()))


def check_path_ordering(
    path: tuple[MethodId, ...], spans: Mapping[MethodId, tuple[int, int]]
) -> bool:
    """The emitted-path predicate: no method's first entry postdates a
    later method's last event."""
    for i in range(len(path)):
        for j in range(i + 1, len(path)):
            if spans[path[i]][0] > spans[path[j]][1]:
                return False
    return True


def covers_chain(
    paths: Iterable[tuple[MethodId, ...]], chain: tuple[MethodId, ...]
) -> bool:
    """True if some path contains the chain as an ordered subsequence."""
    for path in paths:
        it = iter(path)
        if all(m in it for m in chain):
            return True
    return False


def matches_mask(encoding: str, mask: str) -> bool:
    """True if a configuration encoding matches a mask such as ``0xxx1x``."""
    return all(m == "x" or m == c for c, m in zip(encoding, mask))
