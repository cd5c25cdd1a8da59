"""Tests for Lamport stamping, merging, and happens-before."""

from __future__ import annotations

import json
import os
import re
import stat
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossflow.trace import (
    READ_CHUNK,
    CausalityError,
    EventGraph,
    EventRecord,
    MalformedTraceError,
    MethodId,
    ProcessTrace,
    event_to_record,
    filter_traces,
    influenced_recv_ts,
    merge_global,
    method_spans,
    read_bundle,
    read_text,
    read_trace,
    reduce_first_last,
    stamp_lamport,
    write_bundle,
    write_output,
)

from crossflow.simulator import Scenario, generate_program, simulate

from oracles import (
    closure_matrix,
    event_graph_oracle,
    hb_oracle,
    influenced_map_oracle,
    message_count_oracle,
    order_error_oracle,
    reference_event,
    spans_oracle,
)


def mid(proc: str, cls: str = "Main", name: str = "run") -> MethodId:
    return MethodId(proc, cls, name)


def ev(proc, seq, kind, *, msg=None, peer=None, method=None):
    return EventRecord(
        kind=kind,
        method=method or mid(proc),
        seq=seq,
        msg_id=msg,
        peer=peer,
    )


def three_process_figure():
    """Processes A, B, C: A does a,b(send m1); B does c(recv m1),d(send m2);
    C does e,f(recv m2)."""
    return {
        "A": [ev("A", 0, "entry"), ev("A", 1, "send", msg="m1", peer="B")],
        "B": [ev("B", 0, "recv", msg="m1", peer="A"),
              ev("B", 1, "send", msg="m2", peer="C")],
        "C": [ev("C", 0, "entry"), ev("C", 1, "recv", msg="m2", peer="B")],
    }


class TestStampLamport:
    def test_figure_recv_takes_max_plus_one(self):
        traces = stamp_lamport(three_process_figure())
        c = traces["B"].events[0]
        assert c.ts == 3  # max(0, 2) + 1

    def test_figure_second_hop(self):
        traces = stamp_lamport(three_process_figure())
        f = traces["C"].events[1]
        assert f.ts == 5  # max(1, 4) + 1

    def test_single_process_counts_up(self):
        raw = {"A": [ev("A", i, "entry") for i in range(3)]}
        traces = stamp_lamport(raw)
        assert [e.ts for e in traces["A"].events] == [1, 2, 3]

    def test_duplicate_recv_rejected(self):
        raw = three_process_figure()
        raw["C"].append(ev("C", 2, "recv", msg="m1", peer="A"))
        with pytest.raises(MalformedTraceError, match="duplicate recv"):
            stamp_lamport(raw)

    def test_unknown_msg_id_rejected(self):
        raw = {"A": [ev("A", 0, "recv", msg="ghost", peer="B")],
               "B": [ev("B", 0, "entry")]}
        with pytest.raises(MalformedTraceError):
            stamp_lamport(raw)

    def test_cyclic_causality_rejected(self):
        raw = {
            "A": [ev("A", 0, "recv", msg="m2", peer="B"),
                  ev("A", 1, "send", msg="m1", peer="B")],
            "B": [ev("B", 0, "recv", msg="m1", peer="A"),
                  ev("B", 1, "send", msg="m2", peer="A")],
        }
        with pytest.raises(CausalityError):
            stamp_lamport(raw)

    def test_idempotent(self):
        traces = stamp_lamport(three_process_figure())
        again = stamp_lamport({p: list(t.events) for p, t in traces.items()})
        assert again == traces


class TestMergeGlobal:
    def test_disjoint_ts_interleaves(self):
        raw = {
            "A": [ev("A", 0, "entry"), ev("A", 1, "entry")],
            "B": [ev("B", 0, "entry")],
        }
        traces = stamp_lamport(raw)
        order = merge_global(traces)
        assert [e.ts for e in order] == [1, 1, 2]

    def test_equal_ts_lower_process_first(self):
        raw = {"A": [ev("A", 0, "entry")], "B": [ev("B", 0, "entry")]}
        traces = stamp_lamport(raw)
        order = merge_global(traces)
        assert [e.process for e in order] == ["A", "B"]

    def test_figure_order_respects_happens_before(self):
        traces = stamp_lamport(three_process_figure())
        order = merge_global(traces)
        reach = closure_matrix(traces)
        pos = {e.key(): i for i, e in enumerate(order)}
        for src, dsts in reach.items():
            for dst in dsts:
                assert pos[src] < pos[dst]

    def test_unstamped_rejected(self):
        """A trace with an unstamped event is refused when it is built, so
        none reaches the merge."""
        with pytest.raises(MalformedTraceError, match="^trace of A is not stamped$"):
            ProcessTrace("A", (ev("A", 0, "entry"),))

    def test_deterministic(self):
        traces = stamp_lamport(three_process_figure())
        assert merge_global(traces) == merge_global(traces)


def closure_recvs(traces, reach, e):
    """The recv events that ``e`` happens before by the closure ``reach``,
    sorted by (process, seq)."""
    return sorted(
        (r for t in traces.values() for r in t.events
         if r.kind == "recv" and r.key() in reach[e.key()]),
        key=EventRecord.key,
    )


def first_closure_recvs(traces, reach, e):
    """Of :func:`closure_recvs`, each process's first, as (process, recv)
    pairs in process order: the items of ``EventGraph.downstream_recvs``."""
    first = {}
    for r in closure_recvs(traces, reach, e):
        first.setdefault(r.process, r)
    return list(first.items())


def trace_variants(full):
    """The full traces and two restrictions that drop message ends
    (relevance filtering) or method instances (first/last reduction)."""
    runs = {e.method for t in full.values() for e in t.events if e.method.method_name == "run"}
    return (
        full,
        filter_traces(full, runs),
        {p: reduce_first_last(t) for p, t in full.items()},
    )


class TestHappensBefore:
    """The happens-before index, asked for each event's first downstream
    recv per process."""

    def test_same_process_by_seq(self):
        # C's entry happens before C's recv; the recv does not reach itself
        traces = stamp_lamport(three_process_figure())
        e, f = traces["C"].events
        graph = EventGraph(traces)
        assert graph.downstream_recvs(e) == {"C": f}
        assert graph.downstream_recvs(f) == {}

    def test_concurrent_unlinked_processes(self):
        # A and B each hear from C, never from each other
        raw = {
            "A": [ev("A", 0, "entry"), ev("A", 1, "recv", msg="m1", peer="C")],
            "B": [ev("B", 0, "entry"), ev("B", 1, "recv", msg="m2", peer="C")],
            "C": [ev("C", 0, "send", msg="m1", peer="A"),
                  ev("C", 1, "send", msg="m2", peer="B")],
        }
        traces = stamp_lamport(raw)
        graph = EventGraph(traces)
        a, a_recv = traces["A"].events
        b, b_recv = traces["B"].events
        assert graph.downstream_recvs(a) == {"A": a_recv}
        assert graph.downstream_recvs(b) == {"B": b_recv}
        assert graph.downstream_recvs(a_recv) == graph.downstream_recvs(b_recv) == {}

    def test_send_to_post_recv_event(self):
        # A's send reaches B's recv, which precedes B's send in program order
        traces = stamp_lamport(three_process_figure())
        send = traces["A"].events[1]
        recv, post = traces["B"].events
        assert EventGraph(traces).downstream_recvs(send) == {"B": recv, "C": traces["C"].events[1]}
        assert recv.seq < post.seq
        assert hb_oracle(traces, send, post)

    def test_matches_closure_oracle_on_figure(self):
        for traces in trace_variants(stamp_lamport(three_process_figure())):
            graph = EventGraph(traces)
            reach = closure_matrix(traces)
            for trace in traces.values():
                for e in trace.events:
                    got = list(graph.downstream_recvs(e).items())
                    assert got == first_closure_recvs(traces, reach, e)


# --- randomized property: LTS correctness over generated causal schedules ---


@st.composite
def random_schedule(draw):
    """Generate a valid multi-process schedule by construction: pick a global
    interleaving and let sends always precede their recvs."""
    n_procs = draw(st.integers(2, 4))
    procs = [f"p{i}" for i in range(n_procs)]
    length = draw(st.integers(3, 24))
    pending: list[tuple[str, str]] = []  # (msg_id, sender)
    raw = {p: [] for p in procs}
    counter = 0
    for step in range(length):
        proc = draw(st.sampled_from(procs))
        seq = len(raw[proc])
        method = mid(proc, name=draw(st.sampled_from(["run", "aux"])))
        deliverable = [m for m in pending if m[1] != proc]
        do_recv = deliverable and draw(st.booleans())
        if do_recv:
            msg_id, _ = deliverable[0]
            pending.remove(deliverable[0])
            raw[proc].append(ev(proc, seq, "recv", msg=msg_id, peer="x", method=method))
        elif draw(st.booleans()):
            counter += 1
            msg_id = f"m{counter}"
            pending.append((msg_id, proc))
            raw[proc].append(ev(proc, seq, "send", msg=msg_id, peer="x", method=method))
        else:
            raw[proc].append(ev(proc, seq, "entry", method=method))
    # drop sends that never got received? not needed: unmatched sends are fine
    return raw


@given(random_schedule())
@settings(max_examples=60, deadline=None)
def test_lts_correctness_property(raw):
    traces = stamp_lamport(raw)
    reach = closure_matrix(traces)
    events = {e.key(): e for t in traces.values() for e in t.events}
    for src, dsts in reach.items():
        for dst in dsts:
            assert events[src].ts < events[dst].ts


@given(random_schedule())
@settings(max_examples=30, deadline=None)
def test_happens_before_equals_oracle(raw):
    """On every variant of :func:`trace_variants`."""
    for traces in trace_variants(stamp_lamport(raw)):
        reach = closure_matrix(traces)
        graph = EventGraph(traces)
        for t in traces.values():
            for e in t.events:
                got = list(graph.downstream_recvs(e).items())
                assert got == first_closure_recvs(traces, reach, e)
        influenced = influenced_recv_ts(traces)
        assert influenced.keys() == traces.keys()
        assert {
            (receiver, origin): ts
            for origin, reached in influenced.items() for receiver, ts in reached.items()
        } == influenced_map_oracle(traces, reach)


@pytest.mark.parametrize("kind", ["recv", "send"])
def test_event_graph_rejects_reused_msg_id(kind):
    """Bundles are read without restamping, so the index checks them."""
    traces = stamp_lamport(three_process_figure())
    extra = EventRecord(kind, mid("C"), 2, ts=6, msg_id="m1", peer="A")
    traces["C"] = ProcessTrace("C", traces["C"].events + (extra,))
    with pytest.raises(MalformedTraceError, match=f"duplicate {kind}"):
        EventGraph(traces)


def test_event_graph_rejects_recv_stamped_before_send():
    a = mid("A")
    traces = {
        "A": ProcessTrace("A", (EventRecord("entry", a, 0, ts=1),
                                EventRecord("send", a, 1, ts=5, msg_id="m", peer="B"))),
        "B": ProcessTrace("B", (EventRecord("recv", mid("B"), 0, ts=2, msg_id="m", peer="A"),)),
    }
    with pytest.raises(CausalityError):
        EventGraph(traces)


def test_method_spans_uses_last_event():
    raw = {
        "A": [
            EventRecord("entry", mid("A", "Main", "run"), 0),
            EventRecord("entry", mid("A", "Main", "leaf"), 1),
            EventRecord("returned_into", mid("A", "Main", "run"), 2),
        ]
    }
    traces = stamp_lamport(raw)
    spans = method_spans(traces)
    assert spans[mid("A", "Main", "run")] == (1, 3)
    assert spans[mid("A", "Main", "leaf")] == (2, 2)


@pytest.mark.parametrize(
    "scenario",
    [
        Scenario("client_server", seed=1, length=90),
        Scenario("peer_to_peer", seed=2, length=90),
        Scenario("n_tier", seed=3, length=110, tiers=3),
    ],
    ids=lambda sc: sc.topology,
)
def test_method_spans_equal_plain_scan(scenario):
    """On simulated runs, which carry coverage and returned-into events, and
    on their first/last reduction, which keeps every span, and a relevance
    filter."""
    full, _ = simulate(generate_program(scenario), scenario)
    reduced = {p: reduce_first_last(t) for p, t in full.items()}
    some = sorted(spans_oracle(full))[::2]
    for traces in (full, reduced, filter_traces(full, some)):
        assert method_spans(traces) == spans_oracle(traces)
    assert spans_oracle(reduced) == spans_oracle(full)


def test_influenced_recv_transitive():
    traces = stamp_lamport(three_process_figure())
    infl = influenced_recv_ts(traces)
    # C never hears from A directly, but A's send reaches C through B
    assert infl == {"A": {"B": 3, "C": 5}, "B": {"C": 5}, "C": {}}


def test_bundle_round_trip(tmp_path):
    traces = stamp_lamport(three_process_figure())
    write_bundle(tmp_path / "bundle", traces, {"topology": "n_tier", "seed": 0})
    loaded, manifest = read_bundle(tmp_path / "bundle")
    assert loaded == traces
    assert manifest["scenario"]["topology"] == "n_tier"
    assert manifest["processes"] == ["A", "B", "C"]


def test_unknown_fields_ignored(tmp_path):
    path = tmp_path / "p.trace"
    path.write_text(
        '{"proc": "A", "seq": 0, "kind": "entry", "class": "C", '
        '"method": "m", "ts": 1, "wat": "ignored"}\n'
    )
    from crossflow.trace import read_trace

    trace = read_trace(path, "A")
    assert trace.events[0].ts == 1


def test_read_trace_shares_one_method_id_per_method(tmp_path):
    from crossflow.trace import read_trace

    path = tmp_path / "p.trace"
    path.write_text("".join(
        f'{{"proc": "A", "seq": {i}, "kind": "entry", "class": "C", '
        f'"method": "{name}", "ts": {i + 1}}}\n'
        for i, name in enumerate(("m", "n", "m", "m"))
    ))
    events = read_trace(path, "A").events
    assert [ev.method for ev in events] == [
        MethodId("A", "C", name) for name in ("m", "n", "m", "m")
    ]
    assert events[0].method is events[2].method is events[3].method


def read_trace_per_line(path, process):
    """Reference: decode the file one stripped, non-blank line at a time,
    noting the line of each event for an event out of place."""
    import json

    from crossflow.trace import EventOrderError, MalformedTraceError, ProcessTrace

    events, numbers = [], []
    for n, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        line = line.strip()
        if line:
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedTraceError(
                    f"{path}:{n}: not a JSON record: {line!r}"
                ) from exc
            except ValueError as exc:  # an integer past the digit limit
                raise MalformedTraceError(f"{path}:{n}: {exc}") from exc
            try:
                events.append(reference_event(rec))
            except MalformedTraceError as exc:
                raise MalformedTraceError(f"{path}:{n}: {exc}") from exc
            numbers.append(n)
    try:
        return ProcessTrace(process, tuple(events))
    except EventOrderError as exc:
        raise MalformedTraceError(f"{path}:{numbers[exc.index]}: {exc}") from exc


def canonical_line(seq: int, ts: int = 99, proc: str = "A") -> str:
    """An entry event in the layout that ``write_trace`` writes."""
    return (
        f'{{"class": "C", "kind": "entry", "method": "m", "proc": "{proc}", '
        f'"seq": {seq}, "ts": {ts}}}'
    )


FULL_LINE = canonical_line(41)
TRACE_LINE_PARTS = (
    '{"proc": "A", "kind": "entry", "class": "C", "method": "m", "seq": ',
    '{"proc": "A", "kind": "entry", "class": "C", "method": "n", "seq": ',
    "}", "{", "[", "]", ",", "1", "7", '"s"', "null", " ", ":", '"seq": 3',
    '{"proc": "A", "kind": "entry", "class": "C", "method": "m", "seq": true}',
    '{"proc": "A", "kind": "entry", "class": "C", "method": "m", "seq": 9, "ts": 2.5}',
    # the layout of write_trace, and lines that almost have it
    FULL_LINE,
    canonical_line(41, proc="B"),
    '{"branch_id": "b", "class": "C", "kind": "send", "method": "n", "msg_id": "x", '
    '"peer": "B", "proc": "A", "seq": 42, "stmt_id": "s", "ts": 99}',
    FULL_LINE.replace('"ts": 99', '"ts": 0'),
    FULL_LINE.replace(', "ts": 99', ""),
    FULL_LINE.replace('"proc"', '"msg_id": "", "proc"'),
    FULL_LINE.replace('"proc"', '"msg_id": "", "proc"').replace('"entry"', '"send"'),
    FULL_LINE.replace('"C"', '"C\\""'),
    FULL_LINE.replace('"C"', '"\\u00e9"'),
    FULL_LINE.replace('"seq": 41', '"seq": 1234567890123456789'),
    FULL_LINE.replace('"seq": 41', '"seq": -1'),
    FULL_LINE.replace('"entry"', '"send"'),
    '{"kind": "entry", "class": "C", "method": "m", "proc": "A", "seq": 41, "ts": 99}',
    FULL_LINE.replace(", ", ",  ", 1),
    FULL_LINE.replace("}", ', "zz": 1}'),
)


def assert_reads_as_per_line(path):
    """The reader gives the events or the error that decoding the file at
    ``path`` line by line gives, and one ``MethodId`` per method."""
    from crossflow.trace import TraceError, read_trace

    outcomes = []
    for reader in (read_trace, read_trace_per_line):
        try:
            outcomes.append(reader(path, "A"))
        except TraceError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], ProcessTrace):
        shared = {}
        assert all(
            shared.setdefault(ev.method, ev.method) is ev.method
            for ev in outcomes[0].events
        )


@given(st.lists(
    st.one_of(
        st.sampled_from(TRACE_LINE_PARTS),
        st.lists(st.sampled_from(TRACE_LINE_PARTS), max_size=4).map("".join),
    ),
    max_size=6,
), st.lists(st.integers(0, 40), min_size=6, max_size=6), st.booleans())
@example([FULL_LINE], [0] * 6, True)  # read by the pattern
@example([FULL_LINE], [0, 1, 0, 1, 0, 1], True)  # by the pattern, an order error
@settings(max_examples=300, deadline=None)
def test_read_trace_equals_per_line_decoding(tmp_path_factory, fragments, seqs, canonical):
    """Whatever the lines hold, the reader gives the events or the error
    that decoding line by line gives; the lines between the fragments are
    in the layout of ``write_trace`` or in another."""
    good = [
        canonical_line(s, s + 1) if canonical
        else '{"proc": "A", "kind": "entry", "class": "C", "method": "m", "seq": %d}' % s
        for s in sorted(set(seqs))
    ]
    lines = [x for pair in zip(good, fragments) for x in pair] + good[len(fragments):]
    path = tmp_path_factory.mktemp("t") / "A.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_reads_as_per_line(path)


@pytest.mark.parametrize("part", TRACE_LINE_PARTS + (
    "7" + FULL_LINE,
    FULL_LINE.replace('"seq": 41', '"seq": ' + "1" * 5000),  # past the digit limit
))
def test_part_among_canonical_lines_reads_as_per_line(tmp_path, part):
    """Each fragment alone on a line, after or before lines in the layout of
    ``write_trace``, with or without a final newline: the cases where
    every other line is read by the pattern."""
    good = [canonical_line(s, s + 1) for s in range(3)]
    path = tmp_path / "A.trace"
    for lines in ([*good, part], [part, *good]):
        for end in ("\n", ""):
            path.write_text("\n".join(lines) + end, encoding="utf-8")
            assert_reads_as_per_line(path)


def order_outcome(process, events):
    """(index, message) of the trace's ``EventOrderError``, or None."""
    from crossflow.trace import EventOrderError

    try:
        ProcessTrace(process, tuple(events))
    except EventOrderError as exc:
        return exc.index, str(exc)
    return None


def entries(*stamps, proc="A", seqs=None):
    """Entry events of ``proc`` with the given ts, seq 0, 1, ... unless given."""
    seqs = range(len(stamps)) if seqs is None else seqs
    m = mid(proc)
    return [EventRecord("entry", m, s, ts) for s, ts in zip(seqs, stamps)]


@pytest.mark.parametrize("events,expected", [
    (entries(1, 2, 3), None),
    (entries(None, None, None), (0, "trace of A is not stamped")),
    (entries(), None),
    (entries(1, 2) + entries(3, proc="B", seqs=[2]), (2, "event of B in trace of A")),
    (entries(3, proc="B") + entries(1, 2), (0, "event of B in trace of A")),
    (entries(1, 2, 3, seqs=[0, 5, 5]), (2, "seq must strictly increase")),
    (entries(1, 2, 3, seqs=[4, 2, 7]), (1, "seq must strictly increase")),
    (entries(1, 5, 4), (2, "timestamps decrease along trace")),
    (entries(2, 2, 2), None),
    # along a stamped trace the first bad event is named, whichever check
    (entries(5, 3, 4, seqs=[0, 1, 1]), (1, "timestamps decrease along trace")),
    # a gap refuses the trace at its first event without ts, after any
    # process or seq error; ts are compared only along a stamped trace
    (entries(5, None, 3), (1, "trace of A is not stamped")),
    (entries(None, 5, 3), (0, "trace of A is not stamped")),
    (entries(5, None, 6, 4), (1, "trace of A is not stamped")),
    (entries(5, None, 6, 4, seqs=[0, 1, 1, 2]), (2, "seq must strictly increase")),
    (entries(7, None) + entries(1, proc="B", seqs=[2]), (2, "event of B in trace of A")),
], ids=["stamped", "unstamped", "empty", "other-process", "other-process-first",
        "equal-seq", "falling-seq", "falling-ts", "equal-ts", "ts-before-seq", "ts-gap",
        "ts-gap-then-fall", "ts-fall-after-gap", "seq-before-ts", "process-after-gap"])
def test_order_checks_name_the_first_bad_event(events, expected):
    """The checks in C-level passes give the index and message of the loop
    over every event, the refusal of a trace that is not stamped included."""
    assert order_error_oracle("A", events) == expected
    assert order_outcome("A", events) == expected


@given(st.lists(st.tuples(
    st.sampled_from("AAAB"), st.integers(0, 6), st.integers(1, 6),
), max_size=8), st.sets(st.integers(0, 7), max_size=2))
@settings(max_examples=300, deadline=None)
def test_order_checks_equal_event_by_event_loop(rows, gaps):
    """Stamped traces, and traces whose events at the indices in ``gaps``
    have no ts."""
    events = [
        EventRecord("entry", mid(p), seq, None if i in gaps else ts)
        for i, (p, seq, ts) in enumerate(rows)
    ]
    assert order_outcome("A", events) == order_error_oracle("A", events)


ACCEPTANCE_MIX = (
    Scenario("client_server", seed=0, length=200),
    Scenario("peer_to_peer", seed=1, length=200, tiers=3),
    Scenario("peer_to_peer", seed=2, length=200, tiers=4),
    Scenario("n_tier", seed=3, length=200, tiers=3),
    Scenario("n_tier", seed=4, length=200, tiers=4),
)


@pytest.mark.parametrize("scenario", ACCEPTANCE_MIX, ids=lambda sc: f"{sc.topology}-{sc.tiers}")
def test_simulated_traces_read_by_the_pattern(tmp_path, monkeypatch, scenario):
    """Every trace file that ``simulate`` writes is read by the one pattern
    of ``write_trace``'s layout, never line by line: a change to that
    layout fails here instead of silently slowing every command."""
    import dataclasses
    import json

    from crossflow import trace as trace_module
    from crossflow.cli import main

    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(dataclasses.asdict(scenario)))
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 0
    bundle = tmp_path / "o" / "traces"
    expected = {
        proc: read_trace_per_line(bundle / f"{proc}.trace", proc)
        for proc in read_bundle(bundle)[0]
    }

    def per_line(text, path):
        raise AssertionError(f"{path} was decoded line by line")

    monkeypatch.setattr(trace_module, "_decode_events", per_line)
    traces, _ = read_bundle(bundle)
    assert traces == expected
    assert all(ev.ts is not None for t in traces.values() for ev in t.events)


@pytest.mark.parametrize("scenario", ACCEPTANCE_MIX, ids=lambda sc: f"{sc.topology}-{sc.tiers}")
def test_event_graph_equals_pass_over_every_event(scenario):
    """Built from sends and recvs alone, the index holds the recv lists and
    clocks of a pass over every merged event, and answers alike."""
    traces, _ = simulate(generate_program(scenario), scenario)
    for some in (traces, filter_traces(traces, sorted(spans_oracle(traces))[::2])):
        graph = EventGraph(some)
        recvs, columns = event_graph_oracle(some)
        assert graph._recvs == recvs
        assert graph._columns == columns
        procs = sorted(some)
        for trace in some.values():
            for ev in trace.events:
                i = procs.index(ev.process)
                expected = {}
                for proc in procs:
                    if proc == ev.process or not recvs[proc]:
                        continue
                    for recv, seen in zip(recvs[proc], columns[proc][i]):
                        if seen >= ev.seq:
                            expected[proc] = recv.ts
                            break
                assert graph.first_reached_ts(ev) == expected


def without_peers(traces):
    """``traces`` with the ``peer`` of every send removed."""
    return {
        proc: ProcessTrace(proc, tuple(
            ev._replace(peer=None) if ev.kind == "send" else ev for ev in t.events
        ))
        for proc, t in traces.items()
    }


@pytest.mark.parametrize("scenario", ACCEPTANCE_MIX, ids=lambda sc: f"{sc.topology}-{sc.tiers}")
def test_event_graph_counts_messages_as_a_pass_over_every_event(scenario):
    """On the run, on two relevance restrictions, which drop recvs of sends
    they keep (such a send counts for its ``peer``), and on each of these
    without peers (a send that no kept recv took is then not counted)."""
    traces, _ = simulate(generate_program(scenario), scenario)
    methods = sorted(spans_oracle(traces))
    by_peer = uncounted = 0
    for some in (traces, *(filter_traces(traces, methods[k::2]) for k in (0, 1))):
        received = {ev.msg_id for t in some.values() for ev in t.events if ev.kind == "recv"}
        for variant in (some, without_peers(some)):
            assert EventGraph(variant).messages == message_count_oracle(variant)
            for t in variant.values():
                for ev in t.events:
                    if ev.kind == "send" and ev.msg_id not in received:
                        by_peer += ev.peer is not None
                        uncounted += ev.peer is None
    assert by_peer and uncounted


@given(st.lists(st.tuples(*[st.text("Pp.-x", min_size=1, max_size=3)] * 3)))
def test_method_ids_sort_by_their_fields(fields):
    """Methods sort in report order: process, then class, then method."""
    methods = [MethodId(*f) for f in fields]
    assert sorted(methods) == sorted(
        methods, key=lambda m: (m.process, m.class_name, m.method_name)
    )


@pytest.mark.parametrize("args,message", [
    (("exit", MethodId("A", "C", "m"), 0), "unknown event kind 'exit'"),
    (("send", MethodId("A", "C", "m"), 0), "send event requires msg_id"),
    (("recv", MethodId("A", "C", "m"), 0, 3), "recv event requires msg_id"),
    (("entry", MethodId("A", "C", "m"), 0, 0), "stamped timestamps start at 1"),
])
def test_event_record_rejects_bad_fields(tmp_path, args, message):
    """An event that breaks a rule of TRACE_RECORD is refused where its
    trace line is read, naming the line."""
    path = tmp_path / "A.jsonl"
    path.write_text(json.dumps(event_to_record(EventRecord(*args))) + "\n")
    with pytest.raises(MalformedTraceError) as info:
        read_trace(path, "A")
    assert str(info.value) == f"{path}:1: {message}"


def test_stamping_keeps_event_type_and_fields():
    m = MethodId("A", "C", "m")
    raw = {"A": [EventRecord("send", m, 0, msg_id="x", peer="B", stmt_id="s")],
           "B": [EventRecord("recv", MethodId("B", "C", "m"), 0, msg_id="x")]}
    (sent,) = stamp_lamport(raw)["A"].events
    assert type(sent) is EventRecord
    assert sent == EventRecord("send", m, 0, ts=1, msg_id="x", peer="B", stmt_id="s")
    assert sent.process == "A" and sent.key() == ("A", 0)


READ_TEXT_PARTS = (
    b"a", b"\n", b"\r", b"\r\n", b"\r\r\n", b"\xef\xbb\xbf", "\u00e9\u20ac".encode(),
    b"\xff", b"\xe2\x82", b"\xc3", b"\x80",
)


@given(st.one_of(
    st.lists(st.sampled_from(READ_TEXT_PARTS), max_size=12).map(b"".join),
    st.binary(max_size=40),
))
@settings(max_examples=300, deadline=None)
def test_read_text_equals_text_mode_read(tmp_path_factory, data):
    """One binary read gives the text, or the error, of a text-mode read
    with universal newlines; a decode error is a ``ValueError`` naming the
    file, after the decoder's message."""
    from crossflow.trace import read_text

    path = tmp_path_factory.mktemp("r") / "f.txt"
    path.write_bytes(data)
    try:
        expected = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        expected = (ValueError, f"{path}: {exc}")
    try:
        got = read_text(path)
    except ValueError as exc:
        got = (type(exc), str(exc))
    assert got == expected


@given(st.dictionaries(
    st.sampled_from(["A", "B", "p10", "p2"]),
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)), max_size=8),
))
@settings(max_examples=200, deadline=None)
def test_merge_global_sorts_by_ts_then_process_then_seq(steps):
    """A stable sort by ts alone gives the (ts, process, seq) order, ties
    across processes and along one process included."""
    traces = {}
    for proc, pairs in steps.items():
        events, ts, seq = [], 1, 0
        for dts, dseq in pairs:
            ts, seq = ts + dts, seq + dseq
            events.append(EventRecord("entry", MethodId(proc, "C", "m"), seq, ts))
        traces[proc] = ProcessTrace(proc, tuple(events))
    flat = [ev for trace in traces.values() for ev in trace.events]
    assert merge_global(traces) == tuple(
        sorted(flat, key=lambda e: (e.ts, e.process, e.seq))
    )


@pytest.mark.parametrize("old, new", [
    ("a long old report\n" * 50, "short\n"),
    ("short\n", "a long new report\n" * 50),
    ("same size\n", "SAME SIZE\n"),
    ("something\n", ""),
    ("", ""),
    ("abcdef\n", "é€\n"),  # 4 characters, 6 bytes: cut at bytes
    ("é€\U0001d11e" * 9, "é\n"),
])
def test_rewrite_holds_exactly_the_new_bytes(tmp_path, old, new):
    path = tmp_path / "out.txt"
    write_output(path, old)
    assert path.read_bytes() == old.encode("utf-8")
    write_output(path, new)
    assert path.read_bytes() == new.encode("utf-8")


@given(st.lists(st.text(max_size=30), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_rewrites_in_batches_hold_the_last_text(tmp_path_factory, texts):
    """Each rewrite, written in pieces, leaves exactly its own bytes,
    whatever the lengths of the texts before it."""
    path = tmp_path_factory.mktemp("w") / "out.txt"
    for text in texts:
        write_output(path, (text[start:start + 7] for start in range(0, len(text), 7)))
        assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("old", [None, "an old report\n" * 10])
def test_no_pieces_leave_an_empty_file(tmp_path, old):
    path = tmp_path / "out.txt"
    if old is not None:
        path.write_text(old, encoding="utf-8")
    write_output(path, iter(()))
    assert path.read_bytes() == b""


@pytest.mark.parametrize("pieces, sizes", [
    (["x" * 1000] * (READ_CHUNK // 1000 + 5), [1000 * (READ_CHUNK // 1000 + 1), 4000]),
    (["ab", "c€\n", "y" * (3 * READ_CHUNK), "tail\n"], [7, 3 * READ_CHUNK, 5]),
    (["z" * (READ_CHUNK - 1), "é", "€\U0001d11e", "z" * READ_CHUNK],
     [READ_CHUNK + 1, 7, READ_CHUNK]),
], ids=["past-one-chunk", "long-after-small", "multi-byte-at-a-boundary"])
def test_pieces_are_written_in_chunks_and_a_long_piece_alone(tmp_path, monkeypatch, pieces, sizes):
    """Small pieces are joined into chunks of about ``READ_CHUNK``
    characters, each one write; a piece that long follows the small
    pieces before it in a write of its own.  A character of several bytes
    at a chunk's boundary is whole on both sides."""
    path = tmp_path / "out.txt"
    path.write_bytes(b"o" * (5 * READ_CHUNK))
    real_write, written = os.write, []

    def write(fd, data):
        written.append(len(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    write_output(path, iter(pieces))
    monkeypatch.undo()
    assert path.read_bytes() == "".join(pieces).encode("utf-8")
    assert written == sizes


def track_descriptors(monkeypatch) -> tuple[list[int], list[int]]:
    """The descriptors that ``os.open`` opens and ``os.close`` closes from
    now on, as two lists that grow."""
    real_open, real_close = os.open, os.close
    opened, closed = [], []

    def open_(*args):
        opened.append(real_open(*args))
        return opened[-1]

    def close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", open_)
    monkeypatch.setattr(os, "close", close)
    return opened, closed


def test_pieces_that_raise_part_way_leave_the_bytes_written(tmp_path, monkeypatch):
    """An error raised by the pieces after a chunk was written leaves that
    chunk's bytes and none of the old tail, and closes the descriptor."""
    path = tmp_path / "out.txt"
    path.write_bytes(b"o" * (4 * READ_CHUNK))

    def pieces():
        yield "n" * READ_CHUNK
        yield "unwritten"
        raise RuntimeError("stop")

    opened, closed = track_descriptors(monkeypatch)
    with pytest.raises(RuntimeError):
        write_output(path, pieces())
    monkeypatch.undo()
    assert path.read_bytes() == b"n" * READ_CHUNK
    assert len(opened) == 1 and closed == opened


def test_rewrite_keeps_inode_and_mode_and_follows_symlinks(tmp_path):
    target = tmp_path / "report.txt"
    write_output(target, "first version, the longer one\n")
    target.chmod(0o640)
    before = target.stat()
    write_output(target, "second\n")
    after = target.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert target.read_text(encoding="utf-8") == "second\n"

    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_output(link, "third\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.stat().st_ino == before.st_ino
    assert target.read_text(encoding="utf-8") == "third\n"


def test_write_stream_error_still_closes_and_cuts(tmp_path, monkeypatch):
    """A failure of the pieces before their first chunk is full closes the
    file, which then holds nothing: no chunk reached it, and the old bytes
    are cut."""
    path = tmp_path / "out.txt"
    path.write_text("old old old old\n", encoding="utf-8")

    def pieces():
        yield "new"
        raise RuntimeError("stop")

    opened, closed = track_descriptors(monkeypatch)
    with pytest.raises(RuntimeError):
        write_output(path, pieces())
    monkeypatch.undo()
    assert len(opened) == 1 and closed == opened
    assert path.read_bytes() == b""


FAILED_WRITE = textwrap.dedent("""
    import resource, signal, sys
    from crossflow.trace import write_output
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
    try:
        write_output(sys.argv[1], "n" * int(sys.argv[2]))
    except OSError as exc:
        sys.exit(f"write failed: {exc.strerror}")
""")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_FSIZE and SIGXFSZ as on Linux")
@pytest.mark.parametrize("size", [6000, 10000])  # fails in the final flush; in a write
def test_failed_write_cuts_where_the_written_bytes_end(tmp_path, size):
    """A write the system refuses part-way (a file-size limit here, as a
    full disk would) leaves the bytes that reached the file and none of
    the old, longer file's tail."""
    import crossflow.trace

    path = tmp_path / "out.txt"
    path.write_bytes(b"o" * 20000)
    src = str(Path(crossflow.trace.__file__).resolve().parents[1])
    env = {"PYTHONPATH": src}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    r = subprocess.run([sys.executable, "-c", FAILED_WRITE, str(path), str(size)],
                       env=env, capture_output=True, text=True)
    assert r.returncode == 1 and "write failed" in r.stderr, r.stderr
    assert path.read_bytes() == b"n" * 4096


def test_new_file_is_created_with_the_text(tmp_path):
    path = tmp_path / "new.txt"
    write_output(path, iter(["é first\n", "second\n"]))
    assert path.read_bytes() == "é first\nsecond\n".encode("utf-8")


@pytest.mark.parametrize("old", [None, "a much longer old report\n" * 40])
def test_writes_taking_7_bytes_leave_exactly_the_new_bytes(tmp_path, monkeypatch, old):
    """Short writes are written on from where they stopped; a rewrite of
    a longer file is cut after the last of them."""
    path = tmp_path / "out.txt"
    if old is not None:
        path.write_text(old, encoding="utf-8")
    real_write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(len(data))
        return real_write(fd, data[:7])

    monkeypatch.setattr(os, "write", short_write)
    text = "é€ a new report\n" * 5
    write_output(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    n = len(text.encode("utf-8"))
    assert sizes == list(range(n, 0, -7))


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_error_after_the_first_write_leaves_its_bytes_and_closes(tmp_path, monkeypatch, error):
    """An error raised after the first write (a full disk, or Ctrl-C)
    leaves the bytes written before it and none of the old tail, closes
    the descriptor, and an error of the system names the file."""
    path = tmp_path / "out.txt"
    path.write_bytes(b"o" * 100)
    real_write, real_close = os.write, os.close
    written, closed = [], []

    def write_then_fail(fd, data):
        if written:
            raise error
        written.append(fd)
        return real_write(fd, data[:7])

    def close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "write", write_then_fail)
    monkeypatch.setattr(os, "close", close)
    with pytest.raises(type(error)) as info:
        write_output(path, "new text, longer than seven bytes\n")
    monkeypatch.undo()
    assert path.read_bytes() == b"new tex"
    assert closed == written
    if isinstance(error, OSError):
        assert info.value.filename == str(path) and info.value.strerror == error.strerror


def test_devices_and_pipes_are_written_and_not_cut(tmp_path):
    write_output(os.devnull, "discarded\n" * 100)
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    text = "a line through the pipe\n" * 10000  # more than the pipe holds
    write_output(fifo, text)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [text.encode("utf-8")]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_read_text_errors_name_the_file(tmp_path):
    with pytest.raises(IsADirectoryError) as info:
        read_text(tmp_path)
    assert info.value.filename == str(tmp_path)
    missing = tmp_path / "missing.txt"
    with pytest.raises(FileNotFoundError) as info:
        read_text(missing)
    assert info.value.filename == str(missing)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ok\n\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: 'utf-8' codec can't decode"):
        read_text(bad)


def test_read_text_turns_every_line_end_into_newline(tmp_path):
    path = tmp_path / "ends.txt"
    path.write_bytes(b"crlf\r\nlone cr\rnewline\n\r\r\n")
    assert read_text(path) == "crlf\nlone cr\nnewline\n\n\n"


@pytest.mark.parametrize("chunk", [1, 3, 4, 1 << 16])
def test_read_text_in_chunks_equals_text_mode_read(tmp_path, monkeypatch, chunk):
    """However the reads split the file (inside a multi-byte character or
    a ``\\r\\n`` included), the text is that of a text-mode read; a file
    longer than the first read is read whole."""
    import crossflow.trace

    monkeypatch.setattr(crossflow.trace, "READ_CHUNK", chunk)
    path = tmp_path / "f.txt"
    for data in (b"", b"a", "é€\r\nb\r".encode("utf-8"),
                 ("x€\r\n" * 40000).encode("utf-8")):
        path.write_bytes(data)
        assert read_text(path) == path.read_text(encoding="utf-8")


def test_read_text_reads_a_pipe_to_its_end(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    data = ("é€ line\r\n" * 20000).encode("utf-8")  # more than the pipe holds
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    text = read_text(fifo)
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert text == data.decode("utf-8").replace("\r\n", "\n")
