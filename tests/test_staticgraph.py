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
    read_graph_set,
    relevant_methods,
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
    write_graph_set(tmp_path / "set", variants)
    assert [f.name for f in (tmp_path / "set").iterdir()] == ["graph.txt"]
    loaded_set = read_graph_set(tmp_path / "set")
    assert set(loaded_set) == set(variants)
    for key, g in variants.items():
        loaded = loaded_set[key]
        assert loaded.nodes == dict(g.nodes)
        assert loaded.edges == g.edges
        assert loaded.icfg_succ == g.icfg_succ
        assert loaded.guards == g.guards
        assert loaded.send_sites == g.send_sites
        assert loaded.recv_sites == g.recv_sites
    first = loaded_set[(True, True)]
    for loaded in loaded_set.values():
        assert loaded.nodes is first.nodes and loaded.icfg_succ is first.icfg_succ
        assert loaded.guards is first.guards


def test_graph_file_lists_shared_records_and_each_edge_once(tmp_path):
    """Every variant holds the untagged edges; a tagged edge only the
    variants its tag names."""
    n = MethodId("P", "C", "n")
    m = MethodId("P", "C", "m")
    nodes = {"a": n, "b": n, "c": m}
    shared = frozenset({DepEdge("intra_data", "a", "b")})
    extra = DepEdge("inter_posterior", "a", "c")
    variants = {
        (ctx, flow): StaticDepGraph(
            nodes=nodes, edges=shared if ctx else shared | {extra},
            icfg_succ={"a": ("b",)}, recv_sites=frozenset({"a"}),
            guards={"a": None, "b": "a", "c": None},
        )
        for ctx in (True, False) for flow in (True, False)
    }
    write_graph_set(tmp_path, variants)
    assert (tmp_path / "graph.txt").read_text().splitlines() == [
        "variants 11 10 01 00",
        "node a n C P", "node b n C P", "node c m C P",
        "edge inter_posterior a c 01,00",
        "edge intra_data a b",
        "cfg a b",
        "guard b a",
        "msgsite recv a",
    ]
    assert read_graph_set(tmp_path) == variants


def test_graph_variants_of_other_shared_records_refused(tmp_path):
    variants = dict(all_graph_variants(generate_program(Scenario("n_tier", seed=5, tiers=3))))
    g = variants[(False, False)]
    variants[(False, False)] = StaticDepGraph(
        nodes=g.nodes, edges=g.edges, icfg_succ=g.icfg_succ, guards=g.guards,
        send_sites=g.send_sites,
    )
    with pytest.raises(GraphFormatError, match="graph variant 00 differs from 11"):
        write_graph_set(tmp_path, variants)
    assert not (tmp_path / "graph.txt").exists()


GRAPH_LINES = ["variants 11 00", "node s1 run Main p0", "node s2 run Main p0"]


@pytest.mark.parametrize("record", [
    "msgsite bogus s1",
    "node s1 run Main p0 extra",
    "edge intra_data s1 s2 junk",
    "cfg s1 s2 s3",
    "guard s2 b1 b2",
    "variants 01",
    "edge intra_data s1 s2 00,01",
    "edge intra_data s1 s2 00 11",
], ids=["msgsite-role", "node-of-six", "edge-of-five", "cfg-of-four", "guard-of-four",
        "second-variants", "edge-of-unlisted-variant", "edge-of-six"])
def test_graph_record_of_another_shape_names_file_and_line(tmp_path, record):
    """Each tag takes an exact number of tokens (an edge 4, or 5 when it
    ends with keys that the variants record lists), a msgsite the role
    send or recv, and the variants record comes once; a record of another
    shape is refused at its line."""
    path = tmp_path / "graph.txt"
    path.write_text("\n".join([*GRAPH_LINES, record]) + "\n")
    with pytest.raises(GraphFormatError) as info:
        read_graph_set(tmp_path)
    assert str(info.value) == f"{path}:4: bad record {record!r}"


@pytest.mark.parametrize("record", ["variants", "variants 11 11"], ids=["no-key", "key-twice"])
def test_bad_variants_record_names_file_and_line(tmp_path, record):
    """A first `variants` record must name distinct keys (the keys
    themselves are rows of the CLI's bad-manifest-key test)."""
    path = tmp_path / "graph.txt"
    path.write_text("\n".join([record, *GRAPH_LINES[1:]]) + "\n")
    with pytest.raises(GraphFormatError) as info:
        read_graph_set(tmp_path)
    assert str(info.value) == f"{path}:1: bad record {record!r}"


def test_graph_file_without_variants_record_refused(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("\n".join(GRAPH_LINES[1:]) + "\n")
    with pytest.raises(GraphFormatError) as info:
        read_graph_set(tmp_path)
    assert str(info.value) == f"{path}: no variants record"


def test_graph_records_of_other_tags_are_skipped(tmp_path):
    """Files from earlier versions hold `entry` records; a record of any
    tag the format does not declare is skipped, whatever its tokens."""
    (tmp_path / "graph.txt").write_text("\n".join([
        *GRAPH_LINES, "entry p0 s1", "bogus", "  ", "msgsite send s1", "cfg s1 s2",
    ]) + "\n")
    graph = read_graph_set(tmp_path)[(False, False)]
    assert set(graph.nodes) == {"s1", "s2"}
    assert graph.send_sites == {"s1"} and graph.icfg_succ == {"s1": ("s2",)}


def test_graph_set_missing_file_raises_up_front(tmp_path):
    variants = all_graph_variants(generate_program(Scenario("n_tier", seed=5, tiers=3)))
    write_graph_set(tmp_path, variants)
    (tmp_path / "graph.txt").unlink()
    with pytest.raises(FileNotFoundError) as info:
        read_graph_set(tmp_path)
    assert info.value.filename == str(tmp_path / "graph.txt")


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
