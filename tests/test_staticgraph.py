"""Relevance filtering, partial graphs, coverage inference, graph files."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossflow.staticgraph import (
    EDGE_KINDS,
    ConfigurationError,
    DepEdge,
    GraphFormatError,
    SourceSinkConfig,
    StaticDepGraph,
    between,
    coverage_from_branches,
    partial_graph,
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
        some = set(sorted(set(g.nodes.values()))[::2])
        once = partial_graph(g, some)
        assert set(once.nodes) <= set(g.nodes) and once.edges <= g.edges
        assert partial_graph(once, some) == once


def test_between_keeps_nodes_on_some_start_to_end_path():
    # a -> b -> c -> d with a side branch b -> x and a lead-in w -> a;
    # a lone start that is also an end is on a path of length zero
    edges = [("w", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("b", "x")]
    assert between(edges, {"a"}, {"d"}) == {"a", "b", "c", "d"}
    assert between(edges, {"a", "z"}, {"c", "z"}) == {"a", "b", "c", "z"}
    assert between(edges, {"d"}, {"a"}) == set()
    assert between((), {"a"}, {"a"}) == {"a"}


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


def test_graph_set_parses_a_variant_on_first_lookup(tmp_path, monkeypatch):
    from crossflow import staticgraph

    variants = all_graph_variants(generate_program(Scenario("n_tier", seed=5, tiers=3)))
    write_graph_set(tmp_path, variants)
    parsed = []
    real = staticgraph.read_graph

    def spy(path):
        parsed.append(path.name)
        return real(path)

    monkeypatch.setattr(staticgraph, "read_graph", spy)
    graphs = read_graph_set(tmp_path)
    assert (True, True) in graphs and (2, 2) not in graphs
    assert len(graphs) == 4 and set(graphs) == set(variants)
    assert parsed == []
    assert graphs[(False, True)].edges == variants[(False, True)].edges
    assert graphs[(False, True)] is graphs[(False, True)]
    assert parsed == ["graph_01.txt"]


def test_graph_set_reports_a_malformed_variant_when_read(tmp_path):
    variants = all_graph_variants(generate_program(Scenario("n_tier", seed=5, tiers=3)))
    write_graph_set(tmp_path, variants)
    (tmp_path / "graph_10.txt").write_text("node lonely\n")
    graphs = read_graph_set(tmp_path)
    assert graphs[(True, True)].edges == variants[(True, True)].edges
    with pytest.raises(GraphFormatError, match="graph_10.txt:1: bad record"):
        graphs[(True, False)]


GRAPH_LINES = ["node s1 run Main p0", "node s2 run Main p0"]


@pytest.mark.parametrize("record", [
    "msgsite bogus s1",
    "node s1 run Main p0 extra",
    "edge intra_data s1 s2 junk",
    "cfg s1 s2 s3",
    "guard s2 b1 b2",
], ids=["msgsite-role", "node-of-six", "edge-of-five", "cfg-of-four", "guard-of-four"])
def test_graph_record_of_another_shape_names_file_and_line(tmp_path, record):
    """Each tag takes an exact number of tokens, and a msgsite the role
    send or recv; a record of another shape is refused at its line."""
    path = tmp_path / "g.txt"
    path.write_text("\n".join([*GRAPH_LINES, record]) + "\n")
    with pytest.raises(GraphFormatError) as info:
        read_graph(path)
    assert str(info.value) == f"{path}:3: bad record {record!r}"


def test_graph_records_of_other_tags_are_skipped(tmp_path):
    """Files from earlier versions hold `entry` records; a record of any
    tag the format does not declare is skipped, whatever its tokens."""
    path = tmp_path / "g.txt"
    path.write_text("\n".join([
        *GRAPH_LINES, "entry p0 s1", "bogus", "  ", "msgsite send s1", "cfg s1 s2",
    ]) + "\n")
    graph = read_graph(path)
    assert set(graph.nodes) == {"s1", "s2"}
    assert graph.send_sites == {"s1"} and graph.icfg_succ == {"s1": ("s2",)}


def test_graph_set_missing_file_raises_up_front(tmp_path):
    variants = all_graph_variants(generate_program(Scenario("n_tier", seed=5, tiers=3)))
    write_graph_set(tmp_path, variants)
    (tmp_path / "graph_00.txt").unlink()
    with pytest.raises(FileNotFoundError) as info:
        read_graph_set(tmp_path)
    assert info.value.filename == str(tmp_path / "graph_00.txt")


def test_bad_edge_kind_rejected():
    with pytest.raises(GraphFormatError):
        DepEdge("sideways", "a", "b")


def test_edge_endpoint_validation():
    with pytest.raises(GraphFormatError):
        StaticDepGraph(
            nodes={"s0": mk("P", "C", "m")},
            edges=frozenset({DepEdge("intra_data", "s0", "missing")}),
            icfg_succ={},
        )


@given(st.lists(st.tuples(
    st.sampled_from(EDGE_KINDS), st.text("s0.-", min_size=1, max_size=3),
    st.text("s0.-", min_size=1, max_size=3),
)))
def test_edges_sort_by_their_fields(fields):
    """Edges sort as the graph file lists them: kind, then src, then dst."""
    edges = [DepEdge(*f) for f in fields]
    assert sorted(edges) == sorted(edges, key=lambda e: (e.kind, e.src, e.dst))
