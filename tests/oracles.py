"""Independent brute-force oracles used to check the analysis implementations.

Everything here recomputes results straight from definitions, by exhaustive
closure or enumeration, deliberately avoiding the incremental algorithms in
the package under test.
"""

from __future__ import annotations

from crossflow.trace import EventRecord, MethodId, ProcessTrace


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


def brute_force_ds(
    q: MethodId,
    traces: dict[str, ProcessTrace],
    spans: dict[MethodId, tuple[int, int]],
    influenced: dict[tuple[str, str], int] | None = None,
) -> set[MethodId]:
    """DS(q) recomputed from the definition: a local member's last event must
    not precede q's first entry; a remote member needs the per-pair first
    influenced recv timestamp to land between q's entry and its own last
    event, with influence taken as the full transitive closure."""
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
