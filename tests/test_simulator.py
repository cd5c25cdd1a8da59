"""Simulator determinism, topology structure, and static-graph soundness."""

from __future__ import annotations

import pytest

from crossflow.simulator import (
    Scenario,
    ScenarioError,
    all_graph_variants,
    generate_program,
    simulate,
)
from crossflow.staticgraph import INTER_KINDS
from crossflow.trace import method_spans

from oracles import closure_matrix

SCENARIOS = [
    Scenario("client_server", seed=0, length=80),
    Scenario("client_server", seed=3, length=140),
    Scenario("peer_to_peer", seed=7, length=90),
    Scenario("peer_to_peer", seed=11, length=120, tiers=4),
    Scenario("n_tier", seed=2, length=100, tiers=3),
    Scenario("n_tier", seed=5, length=160, tiers=4),
]


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        Scenario("n_tier", seed=0, tiers=1)
    with pytest.raises(ScenarioError):
        Scenario("mesh", seed=0)
    with pytest.raises(ScenarioError):
        Scenario("client_server", seed=0, length=0)


def test_client_server_two_processes_and_repeatable():
    sc = Scenario("client_server", seed=0)
    model = generate_program(sc)
    assert model.processes == ("p0", "p1")
    assert model == generate_program(sc)


def test_source_and_sink_in_distinct_processes():
    for sc in SCENARIOS:
        model = generate_program(sc)
        owner = all_graph_variants(model)[(True, True)].nodes
        src_procs = {owner[s].process for s in model.sources}
        sink_procs = {owner[s].process for s in model.sinks}
        assert src_procs and sink_procs
        assert any(a != b for a in src_procs for b in sink_procs)


def test_peer_to_peer_everyone_sends_and_receives():
    sc = Scenario("peer_to_peer", seed=7, length=90)
    model = generate_program(sc)
    traces, _ = simulate(model, sc)
    for proc, trace in traces.items():
        kinds = {e.kind for e in trace.events}
        assert "send" in kinds and "recv" in kinds


def test_n_tier_messages_only_between_adjacent_tiers():
    sc = Scenario("n_tier", seed=2, length=100, tiers=4)
    model = generate_program(sc)
    traces, _ = simulate(model, sc)
    for proc, trace in traces.items():
        tier = int(proc[1:])
        for ev in trace.events:
            if ev.kind in ("send", "recv"):
                assert abs(int(ev.peer[1:]) - tier) == 1


def test_simulation_deterministic():
    for sc in SCENARIOS[:3]:
        model = generate_program(sc)
        t1, g1 = simulate(model, sc)
        t2, g2 = simulate(model, sc)
        assert t1 == t2
        assert g1 == g2


def test_traces_stamped_and_ground_truth_respects_happens_before():
    for sc in SCENARIOS:
        model = generate_program(sc)
        traces, truth = simulate(model, sc)
        assert all(ev.ts is not None for t in traces.values() for ev in t.events)
        spans = method_spans(traces)
        reach = closure_matrix(traces)
        # LTS correctness on simulator traces: causality implies increasing ts
        events = {e.key(): e for t in traces.values() for e in t.events}
        for src, dsts in reach.items():
            for dst in dsts:
                assert events[src].ts < events[dst].ts
        first_ev = {}
        for t in traces.values():
            for ev in t.events:
                first_ev.setdefault(ev.method, ev)
        for m1, m2 in truth.dyn_dep:
            assert m1 in spans and m2 in spans
            # the depended-upon method must not start strictly after the
            # dependent one ended
            assert spans[m1][0] <= spans[m2][1]
            if m1.process != m2.process:
                e1, e2 = first_ev[m1], first_ev[m2]
                # some event of m1 must reach some event of m2
                m2_keys = {
                    ev.key() for t in traces.values() for ev in t.events
                    if ev.method == m2
                }
                m1_events = [
                    ev for t in traces.values() for ev in t.events
                    if ev.method == m1
                ]
                assert any(reach[ev.key()] & m2_keys for ev in m1_events)


def test_ground_truth_paths_covered():
    for sc in SCENARIOS:
        model = generate_program(sc)
        traces, truth = simulate(model, sc)
        assert truth.dyn_paths
        covered = {
            ev.stmt_id
            for t in traces.values()
            for ev in t.events
            if ev.kind == "stmt_cover"
        }
        for path in truth.dyn_paths:
            assert set(path) <= covered
            assert path[0] in model.sources
            assert path[-1] in model.sinks


def test_ground_truth_method_chains_are_repeat_free_and_short():
    for sc in SCENARIOS:
        model = generate_program(sc)
        traces, truth = simulate(model, sc)
        owner = all_graph_variants(model)[(True, True)].nodes
        for path in truth.dyn_paths:
            assert len(path) <= 14
            methods = []
            for stmt in path:
                m = owner[stmt]
                if not methods or methods[-1] != m:
                    methods.append(m)
            assert len(methods) == len(set(methods))


class TestStaticVariants:
    def test_sensitivity_monotone_and_minimal(self):
        for sc in SCENARIOS:
            model = generate_program(sc)
            variants = all_graph_variants(model)
            base = variants[(True, True)]
            for key, graph in variants.items():
                assert set(graph.nodes) == set(base.nodes)
                assert graph.edges >= base.edges
            assert variants[(False, True)].edges >= variants[(True, True)].edges
            assert variants[(False, False)].edges >= variants[(True, False)].edges
            assert variants[(True, False)].edges >= variants[(True, True)].edges
            assert variants[(False, False)].edges >= variants[(False, True)].edges

    def test_context_and_flow_strictly_add_edges(self):
        sc = Scenario("client_server", seed=1, length=100)
        model = generate_program(sc)
        variants = all_graph_variants(model)
        assert variants[(False, True)].edges > variants[(True, True)].edges
        assert variants[(True, False)].edges > variants[(True, True)].edges

    def test_flow_insensitive_adds_order_ignoring_edge(self):
        sc = Scenario("client_server", seed=0)
        model = generate_program(sc)
        variants = all_graph_variants(model)
        strict = variants[(True, True)]
        loose = variants[(True, False)]
        extra = loose.edges - strict.edges
        assert any(e.kind == "intra_data" for e in extra)

    def test_every_variant_covers_ground_truth_deps(self):
        for sc in SCENARIOS:
            model = generate_program(sc)
            traces, truth = simulate(model, sc)
            for graph in all_graph_variants(model).values():
                medges = {
                    (graph.nodes[e.src], graph.nodes[e.dst])
                    for e in graph.edges if e.kind in INTER_KINDS
                }
                # reachability over method-level static edges
                adj = {}
                for a, b in medges:
                    adj.setdefault(a, set()).add(b)
                call_like = medges
                for m1, m2 in truth.dyn_dep:
                    if m1.process != m2.process:
                        continue  # interprocess pairs ride messages, not edges
                    seen, stack = {m1}, [m1]
                    found = False
                    while stack:
                        cur = stack.pop()
                        if cur == m2:
                            found = True
                            break
                        for nxt in adj.get(cur, ()):
                            if nxt not in seen:
                                seen.add(nxt)
                                stack.append(nxt)
                    assert found, (m1, m2)


def test_event_budget_tracks_length():
    small = Scenario("client_server", seed=4, length=40)
    big = Scenario("client_server", seed=4, length=200)
    n_small = sum(
        len(t.events) for t in simulate(generate_program(small), small)[0].values()
    )
    n_big = sum(
        len(t.events) for t in simulate(generate_program(big), big)[0].values()
    )
    assert n_small < n_big <= 260
