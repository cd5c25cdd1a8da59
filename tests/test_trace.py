"""Tests for Lamport stamping, merging, and happens-before."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflow.trace import (
    CausalityError,
    EventGraph,
    EventRecord,
    MalformedTraceError,
    MethodId,
    ProcessTrace,
    filter_traces,
    happens_before,
    influenced_recv_ts,
    merge_global,
    method_spans,
    read_bundle,
    reduce_first_last,
    stamp_lamport,
    write_bundle,
)

from oracles import closure_matrix, hb_oracle, influenced_map_oracle


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
        traces, _ = stamp_lamport(three_process_figure())
        c = traces["B"].events[0]
        assert c.ts == 3  # max(0, 2) + 1

    def test_figure_second_hop(self):
        traces, _ = stamp_lamport(three_process_figure())
        f = traces["C"].events[1]
        assert f.ts == 5  # max(1, 4) + 1

    def test_single_process_counts_up(self):
        raw = {"A": [ev("A", i, "entry") for i in range(3)]}
        traces, fmm = stamp_lamport(raw)
        assert [e.ts for e in traces["A"].events] == [1, 2, 3]
        assert fmm.entries == {}

    def test_first_msg_map(self):
        traces, fmm = stamp_lamport(three_process_figure())
        assert fmm.first_recv_ts("B", "A") == 3
        assert fmm.first_recv_ts("C", "B") == 5
        assert fmm.first_recv_ts("A", "B") is None

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
        traces, fmm = stamp_lamport(three_process_figure())
        again, fmm2 = stamp_lamport({p: list(t.events) for p, t in traces.items()})
        assert again == traces
        assert fmm2 == fmm


class TestMergeGlobal:
    def test_disjoint_ts_interleaves(self):
        raw = {
            "A": [ev("A", 0, "entry"), ev("A", 1, "entry")],
            "B": [ev("B", 0, "entry")],
        }
        traces, _ = stamp_lamport(raw)
        order = merge_global(traces)
        assert [e.ts for e in order.merged] == [1, 1, 2]

    def test_equal_ts_lower_process_first(self):
        raw = {"A": [ev("A", 0, "entry")], "B": [ev("B", 0, "entry")]}
        traces, _ = stamp_lamport(raw)
        order = merge_global(traces)
        assert [e.process for e in order.merged] == ["A", "B"]

    def test_figure_order_respects_happens_before(self):
        traces, _ = stamp_lamport(three_process_figure())
        order = merge_global(traces)
        reach = closure_matrix(traces)
        pos = {e.key(): i for i, e in enumerate(order.merged)}
        for src, dsts in reach.items():
            for dst in dsts:
                assert pos[src] < pos[dst]

    def test_unstamped_rejected(self):
        trace = ProcessTrace("A", (ev("A", 0, "entry"),))
        with pytest.raises(ValueError):
            merge_global({"A": trace})

    def test_deterministic(self):
        traces, _ = stamp_lamport(three_process_figure())
        assert merge_global(traces) == merge_global(traces)


class TestHappensBefore:
    def test_same_process_by_seq(self):
        traces, _ = stamp_lamport(three_process_figure())
        a, b = traces["A"].events
        assert happens_before(a, b, traces)
        assert not happens_before(b, a, traces)

    def test_concurrent_unlinked_processes(self):
        raw = {"A": [ev("A", 0, "entry")], "B": [ev("B", 0, "entry")]}
        traces, _ = stamp_lamport(raw)
        a = traces["A"].events[0]
        b = traces["B"].events[0]
        assert not happens_before(a, b, traces)
        assert not happens_before(b, a, traces)

    def test_send_to_post_recv_event(self):
        traces, _ = stamp_lamport(three_process_figure())
        send = traces["A"].events[1]
        post = traces["B"].events[1]
        assert happens_before(send, post, traces)
        assert hb_oracle(traces, send, post)

    def test_matches_closure_oracle_on_figure(self):
        traces, _ = stamp_lamport(three_process_figure())
        events = [e for t in traces.values() for e in t.events]
        for e1 in events:
            for e2 in events:
                if e1.key() == e2.key():
                    continue
                assert happens_before(e1, e2, traces) == hb_oracle(traces, e1, e2)


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
    traces, fmm = stamp_lamport(raw)
    reach = closure_matrix(traces)
    events = {e.key(): e for t in traces.values() for e in t.events}
    for src, dsts in reach.items():
        for dst in dsts:
            assert events[src].ts < events[dst].ts
    # FirstMsgMap minimality: stored ts <= every recv from that sender
    sends = {e.msg_id: e for t in traces.values() for e in t.events if e.kind == "send"}
    for t in traces.values():
        for e in t.events:
            if e.kind == "recv":
                sender = sends[e.msg_id].process
                assert fmm.first_recv_ts(e.process, sender) <= e.ts


@given(random_schedule())
@settings(max_examples=30, deadline=None)
def test_happens_before_equals_oracle(raw):
    """On the full traces and on two restrictions that drop message ends
    (relevance filtering) or method instances (first/last reduction)."""
    full, _ = stamp_lamport(raw)
    runs = {e.method for t in full.values() for e in t.events if e.method.method_name == "run"}
    for traces in (
        full,
        filter_traces(full, runs),
        {p: reduce_first_last(t) for p, t in full.items()},
    ):
        reach = closure_matrix(traces)
        graph = EventGraph(traces)
        events = [e for t in traces.values() for e in t.events]
        for e1 in events:
            want = sorted(
                (e for e in events if e.kind == "recv" and e.key() in reach[e1.key()]),
                key=EventRecord.key,
            )
            assert graph.downstream_recvs(e1) == want
            for e2 in events:
                if e1.key() == e2.key():
                    continue
                assert happens_before(e1, e2, traces) == (e2.key() in reach[e1.key()])
        assert influenced_recv_ts(traces) == influenced_map_oracle(traces, reach)


@pytest.mark.parametrize("kind", ["recv", "send"])
def test_event_graph_rejects_reused_msg_id(kind):
    """Bundles are read without restamping, so the index checks them."""
    traces, _ = stamp_lamport(three_process_figure())
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
    traces, _ = stamp_lamport(raw)
    spans = method_spans(traces)
    assert spans[mid("A", "Main", "run")] == (1, 3)
    assert spans[mid("A", "Main", "leaf")] == (2, 2)


def test_influenced_recv_transitive():
    traces, _ = stamp_lamport(three_process_figure())
    infl = influenced_recv_ts(traces)
    assert infl[("B", "A")] == 3
    assert infl[("C", "B")] == 5
    # C never hears from A directly, but A's send reaches C through B
    assert infl[("C", "A")] == 5


def test_bundle_round_trip(tmp_path):
    traces, _ = stamp_lamport(three_process_figure())
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
