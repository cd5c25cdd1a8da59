"""Relevance filtering, partial graphs, coverage pruning, graph files."""

from __future__ import annotations

import pytest

from crossflow.staticgraph import (
    ConfigurationError,
    DepEdge,
    GraphFormatError,
    SourceSinkConfig,
    StaticDepGraph,
    coverage_from_branches,
    partial_graph,
    prune_by_coverage,
    read_graph,
    read_graph_set,
    relevant_methods,
    write_graph,
    write_graph_set,
)
from crossflow.simulator import Scenario, all_graph_variants, generate_program
from crossflow.trace import MethodId


def mk(proc, cls, name):
    return MethodId(proc, cls, name)


def linear_chain_graph():
    """src -> a -> b -> sink, one statement per method, one process."""
    methods = {
        "s0": mk("P", "C", "msrc"),
        "s1": mk("P", "C", "ma"),
        "s2": mk("P", "C", "mb"),
        "s3": mk("P", "C", "msink"),
        "s4": mk("P", "C", "moff"),  # not on any src-sink path
    }
    icfg = {"s0": ("s1",), "s1": ("s2",), "s2": ("s3",), "s3": ("s4",)}
    edges = frozenset(
        {
            DepEdge("inter_adjacent", "s0", "s1"),
            DepEdge("inter_adjacent", "s1", "s2"),
            DepEdge("inter_posterior", "s2", "s3"),
        }
    )
    return StaticDepGraph(
        nodes=methods,
        edges=edges,
        icfg_succ=icfg,
        entry_points={"P": ("s0",)},
        guards={s: None for s in methods},
    )


class TestRelevantMethods:
    def test_linear_chain(self):
        g = linear_chain_graph()
        cfg = SourceSinkConfig(frozenset({"s0"}), frozenset({"s3"}))
        rel = relevant_methods(g, cfg)
        assert rel == {
            mk("P", "C", "msrc"), mk("P", "C", "ma"),
            mk("P", "C", "mb"), mk("P", "C", "msink"),
        }

    def test_off_path_method_excluded(self):
        g = linear_chain_graph()
        cfg = SourceSinkConfig(frozenset({"s0"}), frozenset({"s3"}))
        assert mk("P", "C", "moff") not in relevant_methods(g, cfg)

    def test_empty_sources_error(self):
        g = linear_chain_graph()
        with pytest.raises(ConfigurationError):
            relevant_methods(g, SourceSinkConfig(frozenset(), frozenset({"s3"})))

    def test_cross_process_flow_via_msg_sites(self):
        # sender process: src -> send; receiver process: recv -> sink.
        nodes = {
            "a0": mk("A", "C", "m1"),
            "a1": mk("A", "C", "m2"),  # contains send
            "b0": mk("B", "C", "h1"),  # contains recv
            "b1": mk("B", "C", "h2"),
        }
        g = StaticDepGraph(
            nodes=nodes,
            edges=frozenset(),
            icfg_succ={"a0": ("a1",), "b0": ("b1",)},
            entry_points={"A": ("a0",), "B": ("b0",)},
            send_sites=frozenset({"a1"}),
            recv_sites=frozenset({"b0"}),
            guards={s: None for s in nodes},
        )
        cfg = SourceSinkConfig(frozenset({"a0"}), frozenset({"b1"}))
        rel = relevant_methods(g, cfg)
        assert rel == set(nodes.values())

    def test_monotone_in_sources(self):
        for seed in range(4):
            sc = Scenario("client_server", seed=seed)
            model = generate_program(sc)
            g = all_graph_variants(model)[(True, True)]
            base_cfg = model.default_cfg()
            rel1 = relevant_methods(g, base_cfg)
            extra = sorted(set(g.nodes) - base_cfg.sources)[0]
            bigger = SourceSinkConfig(
                base_cfg.sources | {extra}, base_cfg.sinks
            )
            assert relevant_methods(g, bigger) >= rel1


class TestPartialGraph:
    def test_all_methods_keeps_graph(self):
        g = linear_chain_graph()
        assert partial_graph(g, set(g.nodes.values())).edges == g.edges

    def test_empty_restriction_yields_empty_graph(self):
        g = linear_chain_graph()
        restricted = partial_graph(g, set())
        assert not restricted.nodes and not restricted.edges

    def test_five_methods_keep_three(self):
        g = linear_chain_graph()
        keep = {mk("P", "C", "msrc"), mk("P", "C", "ma"), mk("P", "C", "mb")}
        restricted = partial_graph(g, keep)
        assert set(restricted.nodes) == {"s0", "s1", "s2"}
        assert restricted.edges == frozenset(
            {DepEdge("inter_adjacent", "s0", "s1"), DepEdge("inter_adjacent", "s1", "s2")}
        )

    def test_contractive_and_idempotent(self):
        sc = Scenario("n_tier", seed=2, tiers=3)
        model = generate_program(sc)
        g = all_graph_variants(model)[(False, False)]
        some = set(sorted(set(g.nodes.values()), key=MethodId.sort_key)[::2])
        once = partial_graph(g, some)
        assert set(once.nodes) <= set(g.nodes) and once.edges <= g.edges
        assert partial_graph(once, some) == once


class TestPruneByCoverage:
    def test_full_coverage_identity(self):
        g = linear_chain_graph()
        assert prune_by_coverage(g, set(g.nodes)) == g

    def test_zero_coverage_empty(self):
        g = linear_chain_graph()
        pruned = prune_by_coverage(g, set())
        assert not pruned.nodes and not pruned.edges

    def test_bridge_removal_disconnects(self):
        g = linear_chain_graph()
        pruned = prune_by_coverage(g, set(g.nodes) - {"s1"})
        kinds = {(e.src, e.dst) for e in pruned.edges}
        assert ("s0", "s1") not in kinds and ("s1", "s2") not in kinds
        assert ("s2", "s3") in kinds

    def test_idempotent(self):
        g = linear_chain_graph()
        cov = {"s0", "s2", "s3"}
        once = prune_by_coverage(g, cov)
        assert prune_by_coverage(once, cov) == once


def test_coverage_from_branches_matches_direct_coverage():
    from crossflow.simulator import simulate

    for seed in range(6):
        sc = Scenario("client_server", seed=seed, length=120)
        model = generate_program(sc)
        g = all_graph_variants(model)[(True, True)]
        traces, _ = simulate(model, sc)
        direct = {
            ev.stmt_id
            for t in traces.values()
            for ev in t.events
            if ev.kind == "stmt_cover"
        }
        taken = {
            ev.branch_id
            for t in traces.values()
            for ev in t.events
            if ev.kind == "branch"
        }
        entered = {
            ev.method
            for t in traces.values()
            for ev in t.events
            if ev.kind == "entry"
        }
        inferred = coverage_from_branches(g, taken, entered)
        assert inferred == direct


def test_graph_file_round_trip(tmp_path):
    sc = Scenario("n_tier", seed=5, tiers=3)
    model = generate_program(sc)
    variants = all_graph_variants(model)
    g = variants[(True, False)]
    write_graph(tmp_path / "g.txt", g)
    loaded = read_graph(tmp_path / "g.txt")
    assert loaded.nodes == dict(g.nodes)
    assert loaded.edges == g.edges
    assert loaded.send_sites == g.send_sites
    assert loaded.recv_sites == g.recv_sites
    write_graph_set(tmp_path / "set", variants)
    loaded_set = read_graph_set(tmp_path / "set")
    assert set(loaded_set) == set(variants)
    for key in variants:
        assert loaded_set[key].edges == variants[key].edges


def test_bad_edge_kind_rejected():
    with pytest.raises(GraphFormatError):
        DepEdge("sideways", "a", "b")


def test_edge_endpoint_validation():
    with pytest.raises(GraphFormatError):
        StaticDepGraph(
            nodes={"s0": mk("P", "C", "m")},
            edges=frozenset({DepEdge("intra_data", "s0", "missing")}),
            icfg_succ={},
            entry_points={},
        )
