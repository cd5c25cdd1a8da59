"""Dependence computation per configuration, arbitration, and query merging."""

from __future__ import annotations

import pytest

from crossflow.config import Configuration, valid_configurations
from crossflow.engine import (
    ArbiterState,
    Budget,
    CostModel,
    EngineError,
    MethodTable,
    PinnedController,
    QLearnController,
    arbitrate,
    compute_deps,
    dep_data_from_run,
    first_last_instances,
    merge_query,
    method_event_stream,
)
from crossflow.simulator import Scenario, all_graph_variants, generate_program, simulate
from crossflow.trace import EventRecord, MethodId, method_spans, stamp_lamport

from oracles import remote_deps_oracle

C = Configuration.from_string


def mid(proc, name, cls="Main"):
    return MethodId(proc, cls, name)


def seeded_run(sc):
    model = generate_program(sc)
    traces, truth = simulate(model, sc)
    graphs = all_graph_variants(model)
    coverage = {
        ev.stmt_id
        for t in traces.values()
        for ev in t.events
        if ev.kind == "stmt_cover"
    }
    table = MethodTable.from_traces(traces)
    return model, traces, truth, graphs, coverage, table


SCENARIOS = [
    Scenario("client_server", seed=s, length=90) for s in range(3)
] + [
    Scenario("peer_to_peer", seed=1, length=80),
    Scenario("n_tier", seed=4, length=110, tiers=3),
]


class TestComputeDeps:
    def test_invalid_config_rejected(self):
        table = MethodTable()
        with pytest.raises(Exception):
            compute_deps([], C("010000"), {}, set(), table)

    def test_missing_graph_variant_rejected(self):
        table = MethodTable()
        m = mid("P", "m")
        qu = [-table.id_of(m)]
        with pytest.raises(EngineError):
            compute_deps(qu, C("111111"), {}, set(), table)

    def test_eas_entry_only_self(self):
        table = MethodTable()
        m = mid("P", "m")
        qu = [-table.id_of(m)]
        deps = compute_deps(qu, C("000100"), {}, None, table)
        assert deps[m].members == {m}

    def test_eas_later_method_joins(self):
        table = MethodTable()
        m1, m2 = mid("P", "m1"), mid("P", "m2")
        qu = [-table.id_of(m1), -table.id_of(m2), table.id_of(m1)]
        deps = compute_deps(qu, C("000100"), {}, None, table)
        assert deps[m1].members == {m1, m2}
        # m2's entry precedes m1's last event, so m1 depends on m2 as well
        assert m1 in deps[m2].members

    def test_instance_reduction_keeps_first_and_last(self):
        assert first_last_instances([-1, 1, -1, 1, -2]) == [-1, 1, -2]

    def test_eas_superset_of_most_precise(self):
        for sc in SCENARIOS:
            _, traces, _, graphs, coverage, table = seeded_run(sc)
            for proc in traces:
                qu = method_event_stream(traces[proc], table)
                eas = compute_deps(qu, C("000100"), graphs, coverage, table)
                full = compute_deps(qu, C("111111"), graphs, coverage, table)
                for m, ds in full.items():
                    assert ds.members <= eas[m].members, (sc, proc, m)

    def test_every_valid_config_subsumes_most_precise(self):
        for sc in SCENARIOS[:3]:
            _, traces, _, graphs, coverage, table = seeded_run(sc)
            for proc in traces:
                qu = method_event_stream(traces[proc], table)
                full = compute_deps(qu, C("111111"), graphs, coverage, table)
                for cfg in valid_configurations():
                    got = compute_deps(qu, cfg, graphs, coverage, table)
                    for m, ds in full.items():
                        assert ds.members <= got[m].members, (sc, proc, cfg, m)

    def test_interval_mode_keeps_interleaved_chain(self):
        # a is live across m and b; the impact of m must reach b through a
        # even when only first/last instances are kept
        from crossflow.staticgraph import DepEdge, StaticDepGraph

        ma, mm, mb = mid("P", "a", "K"), mid("P", "m", "K"), mid("P", "b", "K")
        nodes = {"sa": ma, "sm": mm, "sb": mb}
        g = StaticDepGraph(
            nodes=nodes,
            edges=frozenset(
                {
                    DepEdge("inter_posterior", "sm", "sa"),
                    DepEdge("inter_posterior", "sa", "sb"),
                }
            ),
            icfg_succ={},
            entry_points={},
            guards={s: None for s in nodes},
        )
        graphs = {(c, f): g for c in (True, False) for f in (True, False)}
        table = MethodTable()
        ia, im, ib = table.id_of(ma), table.id_of(mm), table.id_of(mb)
        qu = [-ia, -im, ia, -ib, ia]
        full = compute_deps(qu, C("111111"), graphs, set(nodes), table)
        reduced = compute_deps(qu, C("111110"), graphs, set(nodes), table)
        assert mb in full[mm].members
        assert full[mm].members <= reduced[mm].members

    def test_single_bit_off_never_shrinks(self):
        for sc in SCENARIOS[:3]:
            _, traces, _, graphs, coverage, table = seeded_run(sc)
            for proc in traces:
                qu = method_event_stream(traces[proc], table)
                for cfg in valid_configurations():
                    base = compute_deps(qu, cfg, graphs, coverage, table)
                    for i in range(6):
                        if not cfg.bits[i]:
                            continue
                        flipped = Configuration(
                            tuple(
                                b if j != i else False
                                for j, b in enumerate(cfg.bits)
                            )
                        )
                        if not flipped.is_valid():
                            continue
                        coarser = compute_deps(
                            qu, flipped, graphs, coverage, table
                        )
                        for m, ds in base.items():
                            assert ds.members <= coarser[m].members, (
                                sc, proc, cfg.encode(), flipped.encode(), m,
                            )

    def test_intraprocess_ground_truth_recalled_everywhere(self):
        for sc in SCENARIOS:
            _, traces, truth, graphs, coverage, table = seeded_run(sc)
            for cfg in valid_configurations():
                per_proc = {
                    proc: compute_deps(
                        method_event_stream(traces[proc], table),
                        cfg, graphs, coverage, table,
                    )
                    for proc in traces
                }
                for m1, m2 in truth.dyn_dep:
                    if m1.process != m2.process:
                        continue
                    assert m2 in per_proc[m1.process][m1].members, (sc, cfg, m1, m2)


class TestBudget:
    def test_from_total_split(self):
        b = Budget.from_total(30)
        assert (b.construct, b.load, b.compute) == (21.0, 6.0, 3.0)

    def test_invalid_budgets(self):
        with pytest.raises(EngineError):
            Budget(10, 9, 3, 1)
        with pytest.raises(EngineError):
            Budget(10, 0, 5, 5)


class TestArbitrate:
    def _setup(self, sc=None):
        sc = sc or Scenario("client_server", seed=0, length=90)
        model, traces, truth, graphs, coverage, table = seeded_run(sc)
        return traces, graphs, coverage, table

    def test_steady_state_rounds_emit_deps(self):
        traces, graphs, coverage, table = self._setup()
        state = ArbiterState(event_threshold=4, time_threshold=0.0)
        budget = Budget.from_total(1e6)
        rounds = arbitrate(
            method_event_stream(traces["p0"], table),
            state, budget, CostModel(), PinnedController(C("111111")),
            graphs, coverage, table,
        )
        assert rounds
        assert all(not r.timed_out and r.deps is not None for r in rounds)
        assert all(r.config == C("111111") for r in rounds)

    def test_construct_timeout_skips_everything(self):
        traces, graphs, coverage, table = self._setup()
        state = ArbiterState(event_threshold=4, time_threshold=0.0)
        budget = Budget(10.0, 0.001, 5.0, 4.0)  # construction can never fit
        rounds = arbitrate(
            method_event_stream(traces["p0"], table),
            state, budget, CostModel(), PinnedController(C("111111")),
            graphs, coverage, table,
        )
        assert rounds
        assert all(r.timed_out and r.deps is None for r in rounds)

    def test_counted_rounds(self):
        # alternating entry/returned-into; a round fires at each
        # returned-into with more than tc accumulated events
        table = MethodTable()
        m = mid("P", "m")
        i = table.id_of(m)
        stream = [-i, i, -i, i, -i, i, -i, i]
        state = ArbiterState(
            event_threshold=2, time_threshold=0.0, config=C("000100")
        )
        rounds = arbitrate(
            stream, state, Budget.from_total(1e6), CostModel(),
            PinnedController(C("000100")), {}, None, table,
        )
        assert len(rounds) == 2

    def test_pinned_most_precise_equals_direct_compute(self):
        traces, graphs, coverage, table = self._setup()
        cfgs = C("111111")
        state = ArbiterState(event_threshold=3, time_threshold=0.0)
        rounds = arbitrate(
            method_event_stream(traces["p1"], table),
            state, Budget.from_total(1e9), CostModel(),
            PinnedController(cfgs), graphs, coverage, table, flush=True,
        )
        qu = []
        for e in method_event_stream(traces["p1"], table):
            qu.append(e)
        # the final round saw the whole queue
        direct = compute_deps(qu, cfgs, graphs, coverage, table)
        assert rounds[-1].deps == direct

    def test_wallclock_mode_measures_time(self):
        traces, graphs, coverage, table = self._setup()
        state = ArbiterState(event_threshold=4, time_threshold=0.0)
        costs = CostModel(mode="wallclock")
        rounds = arbitrate(
            method_event_stream(traces["p0"], table),
            state, Budget.from_total(1e6), costs,
            PinnedController(C("111111")), graphs, coverage, table,
        )
        assert rounds
        assert all(r.cost >= 0.0 for r in rounds)
        assert all(r.deps is not None for r in rounds)

    def test_qlearn_controller_flees_over_budget_configuration(self):
        traces, graphs, coverage, table = self._setup(
            Scenario("client_server", seed=1, length=140)
        )
        costs = CostModel(compute_per_event=2.0, construct_per_edge=0.1)
        budget = Budget.from_total(20.0)  # most precise config cannot fit
        controller = QLearnController(budget.total, seed=5)
        state = ArbiterState(event_threshold=3, time_threshold=0.0)
        rounds = arbitrate(
            method_event_stream(traces["p0"], table),
            state, budget, costs, controller, graphs, coverage, table,
        )
        assert len(rounds) >= 2
        assert any(r.config != C("111111") for r in rounds)


class TestMergeQuery:
    def test_unexecuted_query_empty(self):
        raw = {"A": [EventRecord("entry", mid("A", "m"), 0)]}
        traces, _ = stamp_lamport(raw)
        ds = merge_query(("Main", "ghost"), {}, traces)
        assert ds.members == frozenset()

    def test_single_process_equals_intra(self):
        sc = Scenario("client_server", seed=0, length=90)
        model, traces, truth, graphs, coverage, table = seeded_run(sc)
        per_proc = {
            proc: compute_deps(
                method_event_stream(traces[proc], table),
                C("111111"), graphs, coverage, table,
            )
            for proc in traces
        }
        # Work.prep runs only in p0 and its span ends before any message
        # from p0 lands back, so remote merging adds methods only via the
        # message rule; for a purely local util method the merge equals
        # the intraprocess set
        q = mid("p0", "scratch", "Util")
        merged = merge_query(q, per_proc, traces)
        assert per_proc["p0"][q].members <= merged.members

    def test_two_process_message_gating(self):
        ma, mb = mid("A", "go"), mid("B", "serve")
        with_msg = {
            "A": [
                EventRecord("entry", ma, 0),
                EventRecord("send", ma, 1, msg_id="m0", peer="B"),
            ],
            "B": [
                EventRecord("entry", mb, 0),
                EventRecord("recv", mb, 1, msg_id="m0", peer="A"),
                EventRecord("returned_into", mb, 2),
            ],
        }
        traces, _ = stamp_lamport(with_msg)
        table = MethodTable.from_traces(traces)
        per_proc = {
            proc: compute_deps(
                method_event_stream(traces[proc], table),
                C("000100"), {}, None, table,
            )
            for proc in traces
        }
        merged = merge_query(ma, per_proc, traces)
        assert mb in merged.members

        no_msg = {
            "A": [EventRecord("entry", ma, 0)],
            "B": [EventRecord("entry", mb, 0),
                  EventRecord("returned_into", mb, 1)],
        }
        traces2, _ = stamp_lamport(no_msg)
        table2 = MethodTable.from_traces(traces2)
        per2 = {
            proc: compute_deps(
                method_event_stream(traces2[proc], table2),
                C("000100"), {}, None, table2,
            )
            for proc in traces2
        }
        merged2 = merge_query(ma, per2, traces2)
        assert mb not in merged2.members

    def test_interprocess_ground_truth_recalled(self):
        for sc in SCENARIOS:
            model, traces, truth, graphs, coverage, table = seeded_run(sc)
            for cfg in [C("111111"), C("000100"), C("100100")]:
                per_proc = {
                    proc: compute_deps(
                        method_event_stream(traces[proc], table),
                        cfg, graphs, coverage, table,
                    )
                    for proc in traces
                }
                for m1, m2 in truth.dyn_dep:
                    if m1.process == m2.process:
                        continue
                    merged = merge_query(m1, per_proc, traces)
                    assert m2 in merged.members, (sc, cfg.encode(), m1, m2)


def remote_runs():
    for topology, tiers in (("client_server", None), ("peer_to_peer", 4), ("n_tier", 4)):
        for seed in range(4):
            sc = Scenario(topology, seed=seed, length=100, tiers=tiers)
            yield sc, simulate(generate_program(sc), sc)[0]
    # B.early ends after A.go's entry but before A's message lands: not a dependent
    go, early, serve = mid("A", "go"), mid("B", "early"), mid("B", "serve")
    raw = {
        "A": [EventRecord("entry", go, 0),
              EventRecord("send", go, 1, msg_id="m0", peer="B")],
        "B": [EventRecord("entry", early, 0),
              EventRecord("entry", serve, 1),
              EventRecord("recv", serve, 2, msg_id="m0", peer="A")],
    }
    yield "early-span", stamp_lamport(raw)[0]


class TestRemoteDependence:
    """Remote dependents from the message rule alone (no per-process sets),
    checked against the closure oracle on every topology."""

    def test_dep_data_remote_ds_equals_oracle(self):
        for name, traces in remote_runs():
            want = remote_deps_oracle(traces)
            assert any(want.values()), name
            assert dict(dep_data_from_run(traces, {}).remote_ds) == want, name

    def test_merge_query_remote_members_equal_oracle(self):
        for name, traces in remote_runs():
            want = remote_deps_oracle(traces)
            spans = method_spans(traces)
            for m in spans:
                twins = {t for t in spans if t.code_key == m.code_key}
                anchor = min(twins, key=lambda t: (spans[t][0], t.process))
                if anchor == m:
                    merged = merge_query(m, {}, traces)
                    assert merged.members == {m} | twins | want[m], (name, m)
