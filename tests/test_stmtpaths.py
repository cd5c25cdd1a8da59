"""Dynamic dependence graph activation, segment discovery, and splicing."""

from __future__ import annotations

import random

from crossflow import stmtpaths, trace
from crossflow.pipeline import analyze_flows, direct_coverage
from crossflow.simulator import Scenario, all_graph_variants, generate_program, simulate
from crossflow.staticgraph import DepEdge, SourceSinkConfig, StaticDepGraph
from crossflow.stmtpaths import (
    DEFAULT_STMT_PATH_LIMIT,
    DynDepGraph,
    InletOutletIndex,
    build_ddg,
    find_paths,
    phase2,
    splice_segments,
    summary_counts,
)
from crossflow.trace import EventRecord, MethodId, merge_global, stamp_lamport

from oracles import (
    all_simple_paths,
    all_stmt_sequences,
    junction_oracle,
    pruned_ddg_oracle,
    splice_oracle,
    stmt_sequences,
)
from test_acceptance import scenario_for


def mid(proc, name):
    return MethodId(proc, "C", name)


def make_graph(nodes, edges, **kw):
    return StaticDepGraph(
        nodes=nodes,
        edges=frozenset(DepEdge(*e) for e in edges),
        icfg_succ=kw.get("icfg", {}),
        send_sites=frozenset(kw.get("sends", ())),
        recv_sites=frozenset(kw.get("recvs", ())),
        guards={s: None for s in nodes},
    )


class TestBuildDdg:
    def setup_method(self):
        m1, m2 = mid("P", "m1"), mid("P", "m2")
        self.m1, self.m2 = m1, m2
        self.graph = make_graph(
            {"a": m1, "b": m2},
            [("inter_adjacent", "a", "b")],
        )
        self.post_graph = make_graph(
            {"a": m1, "b": m2},
            [("inter_posterior", "a", "b")],
        )

    def _traces(self, order):
        raw = {"P": [
            EventRecord("entry", m, seq=i) for i, m in enumerate(order)
        ]}
        traces = stamp_lamport(raw)
        return traces

    def test_never_after_no_edge(self):
        traces = self._traces([self.m2, self.m1])
        ddg = build_ddg(self.post_graph, "a", "b", traces, coverage=self.post_graph.nodes)
        assert not ddg.edges

    def test_adjacent_needs_immediate_succession(self):
        other = mid("P", "other")
        traces = self._traces([self.m1, other, self.m2])
        ddg = build_ddg(self.graph, "a", "b", traces, coverage=self.graph.nodes)
        assert ("a", "b") not in ddg.edges
        ddg_post = build_ddg(self.post_graph, "a", "b", traces, coverage=self.post_graph.nodes)
        assert ("a", "b") in ddg_post.edges

    def test_adjacent_activates_when_consecutive(self):
        traces = self._traces([self.m1, self.m2])
        ddg = build_ddg(self.graph, "a", "b", traces, coverage=self.graph.nodes)
        assert ("a", "b") in ddg.edges

    def test_unexecuted_source_empty(self):
        traces = self._traces([self.m2])
        assert not build_ddg(self.graph, "a", "b", traces, coverage=self.graph.nodes).nodes

    def test_single_method_restricted_to_s_t(self):
        m = mid("P", "solo")
        graph = make_graph(
            {"s": m, "x": m, "t": m, "dead": m},
            [
                ("intra_data", "s", "x"),
                ("intra_data", "x", "t"),
                ("intra_data", "t", "dead"),
            ],
        )
        raw = {"P": [EventRecord("entry", m, seq=0)]}
        traces = stamp_lamport(raw)
        ddg = build_ddg(graph, "s", "t", traces, coverage=graph.nodes)
        assert ddg.nodes == {"s", "x", "t"}


class TestPruneDdg:
    """Coverage prunes the DDG as ``build_ddg`` activates its edges."""

    def _build(self, coverage):
        m = mid("P", "solo")
        graph = make_graph(
            {"s": m, "x": m, "t": m},
            [("intra_data", "s", "x"), ("intra_data", "x", "t")],
        )
        traces = stamp_lamport({"P": [EventRecord("entry", m, seq=0)]})
        return build_ddg(graph, "s", "t", traces, coverage)

    def test_full_coverage_identity(self):
        assert self._build({"s", "x", "t"}) == DynDepGraph(
            nodes=frozenset({"s", "x", "t"}),
            edges=frozenset({("s", "x"), ("x", "t")}),
        )

    def test_zero_coverage_empty(self):
        assert self._build(set()) == DynDepGraph(frozenset(), frozenset())

    def test_bridge_removal(self):
        ddg = self._build({"s", "t"})
        assert not ddg.edges and not ddg.nodes - {"s", "t"}
        assert not find_paths(ddg, {"s"}, {"t"}, set(ddg.nodes))


class TestCoverageInBuild:
    """Building a pair's DDG over covered statements finds the segments of
    building it over every statement and pruning it afterwards: under phase
    2's coverage, which on simulated runs covers every DDG statement, and
    under that coverage with a seeded fifth of the pair's statements
    dropped."""

    SCENARIOS = (
        [scenario_for(seed) for seed in range(10)]
        + [Scenario("n_tier", seed=s, length=1000, tiers=k) for s, k in ((1, 5), (2, 6), (3, 7))]
        + [Scenario("peer_to_peer", seed=s, length=1000, tiers=k)
           for s, k in ((1, 8), (2, 10), (3, 12))]
    )

    def test_segments_equal_pruning_after_build(self, monkeypatch):
        build = stmtpaths.build_ddg
        rng = random.Random(0)
        segments = []
        dropped = []

        def checked(sdg, s, t, traces, coverage, inlets=(), outlets=()):
            full = build(sdg, s, t, traces, sdg.nodes, inlets=inlets, outlets=outlets)
            thinned = set(coverage) - set(rng.sample(sorted(sdg.nodes), len(sdg.nodes) // 5))
            for cov in (coverage, thinned):
                ddg = build(sdg, s, t, traces, cov, inlets=inlets, outlets=outlets)
                nodes, edges, old_groups = pruned_ddg_oracle(
                    full.nodes, full.edges, cov, sdg.nodes, traces
                )
                old = DynDepGraph(nodes, edges)
                dropped.extend(full.nodes - nodes)
                groups = {proc: set() for proc in traces}
                for stmt in ddg.nodes:
                    groups[sdg.nodes[stmt].process].add(stmt)
                for proc in traces:
                    for ins, outs in (
                        ({s}, outlets), ({s}, {t}), (inlets, outlets), (inlets, {t})
                    ):
                        got = find_paths(ddg, ins, outs, groups[proc], DEFAULT_STMT_PATH_LIMIT)
                        want = find_paths(
                            old, ins, outs, old_groups[proc], DEFAULT_STMT_PATH_LIMIT
                        )
                        assert got == want, (s, t, proc)
                        segments.extend(got)
            return build(sdg, s, t, traces, coverage, inlets=inlets, outlets=outlets)

        monkeypatch.setattr(stmtpaths, "build_ddg", checked)
        for sc in self.SCENARIOS:
            model = generate_program(sc)
            traces, _ = simulate(model, sc)
            graphs = all_graph_variants(model)
            for style in ("direct", "branches"):
                segments.clear()
                analyze_flows(traces, graphs, model.default_cfg(), coverage_style=style)
                assert segments, (sc, style)
        assert dropped


class TestFindPaths:
    def test_zero_length_path_when_in_meets_out(self):
        ddg = DynDepGraph(frozenset({"x"}), frozenset())
        assert find_paths(ddg, {"x"}, {"x"}, {"x"}) == [("x",)]

    def test_disconnected_empty(self):
        ddg = DynDepGraph(frozenset({"a", "b"}), frozenset())
        assert find_paths(ddg, {"a"}, {"b"}, {"a", "b"}) == []

    def test_diamond_both_branches(self):
        edges = {("s", "l"), ("s", "r"), ("l", "t"), ("r", "t")}
        nodes = frozenset({"s", "l", "r", "t"})
        ddg = DynDepGraph(nodes, frozenset(edges))
        paths = find_paths(ddg, {"s"}, {"t"}, set(nodes))
        assert len(paths) == len(set(paths))
        got = set(paths)
        want = all_simple_paths(edges, {"s"}, {"t"}, set(nodes))
        assert got == want == {("s", "l", "t"), ("s", "r", "t")}

    def test_adjacency_sorted_once_per_graph(self):
        ddg = DynDepGraph(
            frozenset({"s", "l", "r", "t"}),
            frozenset({("s", "r"), ("r", "t"), ("s", "l"), ("l", "t")}),
        )
        adj = ddg.out_adj
        assert adj == {"l": ["t"], "r": ["t"], "s": ["l", "r"]}
        find_paths(ddg, {"s"}, {"t"}, set(ddg.nodes))
        assert ddg.out_adj is adj

    def test_trace_restriction_excludes_other_process(self):
        nodes = frozenset({"a1", "b1"})
        ddg = DynDepGraph(nodes, frozenset({("a1", "b1")}))
        assert find_paths(ddg, {"a1"}, {"b1"}, {"a1"}) == []


def two_process_fixture():
    """A: src -> send; B: recv -> sink, one message."""
    ma, mb = mid("A", "go"), mid("B", "serve")
    graph = make_graph(
        {"src": ma, "out": ma, "in_": mb, "sink": mb},
        [("intra_data", "src", "out"), ("intra_data", "in_", "sink")],
        sends=["out"],
        recvs=["in_"],
    )
    raw = {
        "A": [
            EventRecord("entry", ma, 0),
            EventRecord("stmt_cover", ma, 1, stmt_id="src"),
            EventRecord("stmt_cover", ma, 2, stmt_id="out"),
            EventRecord("send", ma, 3, msg_id="m0", peer="B", stmt_id="out"),
        ],
        "B": [
            EventRecord("entry", mb, 0),
            EventRecord("stmt_cover", mb, 1, stmt_id="in_"),
            EventRecord("recv", mb, 2, msg_id="m0", peer="A", stmt_id="in_"),
            EventRecord("stmt_cover", mb, 3, stmt_id="sink"),
        ],
    }
    traces = stamp_lamport(raw)
    return graph, traces, ma, mb


class TestSplice:
    def test_two_process_single_junction(self):
        graph, traces, ma, mb = two_process_fixture()
        order = merge_global(traces)
        index = InletOutletIndex.build(traces, {ma, mb})
        spliced = splice_segments(
            [("src", "out")], [], [("in_", "sink")], order, index,
            stmt_methods=dict(graph.nodes),
        )
        assert stmt_sequences(spliced) == [("src", "out", "in_", "sink")]

    def test_junction_with_intervening_event_rejected(self):
        ma, mb = mid("A", "go"), mid("B", "serve")
        raw = {
            "A": [
                EventRecord("send", ma, 0, msg_id="m0", peer="B", stmt_id="out"),
                EventRecord("send", ma, 1, msg_id="m1", peer="B", stmt_id="out2"),
            ],
            "B": [
                EventRecord("recv", mb, 0, msg_id="m0", peer="A", stmt_id="in_"),
                EventRecord("recv", mb, 1, msg_id="m1", peer="A", stmt_id="in2"),
            ],
        }
        traces = stamp_lamport(raw)
        order = merge_global(traces)
        index = InletOutletIndex.build(traces, {ma, mb})
        # out's recv is not adjacent to out: out2 intervenes in the
        # junction-event subsequence
        spliced = splice_segments(
            [("out",)], [], [("in_",)], order, index,
            stmt_methods={"out": ma, "out2": ma, "in_": mb, "in2": mb},
        )
        assert spliced == []

    def test_three_process_relay_chain(self):
        sc = Scenario("n_tier", seed=2, length=100, tiers=3)
        model = generate_program(sc)
        traces, truth = simulate(model, sc)
        graphs = all_graph_variants(model)
        res = analyze_flows(traces, graphs, model.default_cfg(), mode="sim")
        spliced = res.phase2.interprocess_paths()
        assert spliced
        owner = graphs[(True, True)].nodes
        for truth_path in truth.dyn_paths:
            procs = {owner[s].process for s in truth_path}
            if len(procs) == 3:
                assert truth_path in set(stmt_sequences(spliced))


SPLICED = "path level=stmt kind=spliced "


class TestSpliceLines:
    """``splice_segments`` returns report lines, sorted and distinct, also
    where its walk emits them out of order or more than once."""

    @staticmethod
    def prefix_fixture():
        """Splice arguments where B's remote segment (b_in, b_out1) is a
        proper prefix of (b_in, b_out1, b_x, b_out2)."""
        ma, mb, mc = mid("A", "go"), mid("B", "relay"), mid("C", "serve")
        raw = {
            "A": [EventRecord("send", ma, 0, msg_id="m0", peer="B", stmt_id="a_out")],
            "B": [
                EventRecord("recv", mb, 0, msg_id="m0", peer="A", stmt_id="b_in"),
                EventRecord("send", mb, 1, msg_id="m1", peer="C", stmt_id="b_out1"),
                EventRecord("stmt_cover", mb, 2, stmt_id="b_x"),
                EventRecord("stmt_cover", mb, 3, stmt_id="b_x"),
                EventRecord("send", mb, 4, msg_id="m2", peer="C", stmt_id="b_out2"),
            ],
            "C": [
                EventRecord("recv", mc, 0, msg_id="m1", peer="B", stmt_id="c_in1"),
                EventRecord("recv", mc, 1, msg_id="m2", peer="B", stmt_id="c_in2"),
            ],
        }
        traces = stamp_lamport(raw)
        stmt_methods = {
            "src": ma, "a_out": ma, "b_in": mb, "b_out1": mb, "b_x": mb,
            "b_out2": mb, "c_in1": mc, "c_in2": mc, "sink": mc,
        }
        return (
            [("src", "a_out")],
            [("b_in", "b_out1"), ("b_in", "b_out1", "b_x", "b_out2")],
            [("c_in1", "sink"), ("c_in2", "sink")],
            merge_global(traces),
            InletOutletIndex.build(traces, {ma, mb, mc}),
            stmt_methods,
        )

    def test_remote_segment_prefix_of_another_sorted(self):
        # the walk closes the shorter remote segment at c_in1 first, though
        # the longer one's line, at b_x, sorts first
        args = self.prefix_fixture()
        got = splice_segments(*args)
        assert got == [
            SPLICED + "src -> a_out -> b_in -> b_out1 -> b_x -> b_out2 -> c_in2 -> sink",
            SPLICED + "src -> a_out -> b_in -> b_out1 -> c_in1 -> sink",
            # A's send and C's first recv are adjacent over {A, C}
            SPLICED + "src -> a_out -> c_in1 -> sink",
        ]
        assert stmt_sequences(got) == splice_oracle(*args)

    def test_limit_keeps_the_first_lines_of_the_walk(self):
        # the walk closes b_out1 -> c_in1 first, then b_out2 -> c_in2, then
        # a_out -> c_in1; each limit keeps that many, and says it cut
        args = self.prefix_fixture()
        full = splice_segments(*args)
        assert not full.truncated
        kept = []
        for limit in range(1, len(full) + 2):
            got = splice_segments(*args, limit=limit)
            assert got.truncated == (limit < len(full))
            assert len(got) == min(limit, len(full)) and got == sorted(got)
            assert set(kept) <= set(got) <= set(full)
            kept = got
        assert splice_segments(*args, limit=1) == [
            SPLICED + "src -> a_out -> b_in -> b_out1 -> c_in1 -> sink"
        ]

    def test_two_segment_sequences_of_one_path_one_line(self):
        # (src, a_out) + (a_in, a_out2, a_in2, sink) and
        # (src, a_out, a_in, a_out2) + (a_in2, sink) are one statement path
        ma, mb = mid("A", "go"), mid("B", "echo")
        raw = {
            "A": [
                EventRecord("send", ma, 0, msg_id="m0", peer="B", stmt_id="a_out"),
                EventRecord("recv", ma, 1, msg_id="m1", peer="B", stmt_id="a_in"),
                EventRecord("send", ma, 2, msg_id="m2", peer="B", stmt_id="a_out2"),
                EventRecord("recv", ma, 3, msg_id="m3", peer="B", stmt_id="a_in2"),
            ],
            "B": [
                EventRecord("recv", mb, 0, msg_id="m0", peer="A", stmt_id="b_in"),
                EventRecord("send", mb, 1, msg_id="m1", peer="A", stmt_id="b_out"),
                EventRecord("recv", mb, 2, msg_id="m2", peer="A", stmt_id="b_in"),
                EventRecord("send", mb, 3, msg_id="m3", peer="A", stmt_id="b_out"),
            ],
        }
        traces = stamp_lamport(raw)
        stmt_methods = {
            "src": ma, "a_out": ma, "a_in": ma, "a_out2": ma, "a_in2": ma,
            "sink": ma, "b_in": mb, "b_out": mb,
        }
        args = (
            [("src", "a_out"), ("src", "a_out", "a_in", "a_out2")],
            [],
            [("a_in", "a_out2", "a_in2", "sink"), ("a_in2", "sink")],
            merge_global(traces),
            InletOutletIndex.build(traces, {ma, mb}),
            stmt_methods,
        )
        path = "src -> a_out -> a_in -> a_out2 -> a_in2 -> sink"
        assert splice_segments(*args) == [SPLICED + path]
        assert splice_oracle(*args) == [tuple(path.split(" -> "))]


def round_trip_fixture():
    """A sends to B, B answers A; entry and coverage events in between."""
    ma, mb = mid("A", "go"), mid("B", "serve")
    stmt_methods = {"a_out": ma, "a_in": ma, "b_in": mb, "b_out": mb}
    raw = {
        "A": [
            EventRecord("entry", ma, 0),
            EventRecord("send", ma, 1, msg_id="m0", peer="B", stmt_id="a_out"),
            EventRecord("stmt_cover", ma, 2, stmt_id="a_cov"),
            EventRecord("recv", ma, 3, msg_id="m1", peer="B", stmt_id="a_in"),
        ],
        "B": [
            EventRecord("entry", mb, 0),
            EventRecord("recv", mb, 1, msg_id="m0", peer="A", stmt_id="b_in"),
            EventRecord("send", mb, 2, msg_id="m1", peer="A", stmt_id="b_out"),
        ],
    }
    traces = stamp_lamport(raw)
    return traces, stmt_methods


class TestJunctionIndex:
    """Every junction ``splice_segments`` accepts, against the rule evaluated
    by re-filtering the merged order per (outlet, inlet) question."""

    def spliced_junctions(self, traces, stmt_methods, strict, outlets=None):
        order = merge_global(traces)
        index = InletOutletIndex.build(traces, set(stmt_methods.values()))
        outlets = sorted(index.outlets) if outlets is None else outlets
        spliced = splice_segments(
            [(o,) for o in outlets], [], [(i,) for i in sorted(index.inlets)],
            order, index, strict=strict, stmt_methods=stmt_methods,
        )
        want = {
            (o, i)
            for o in outlets
            for i in index.inlets
            if junction_oracle(order, index, o, i, strict, stmt_methods)
        }
        return set(stmt_sequences(spliced)), want

    def test_within_one_process(self):
        traces, stmt_methods = round_trip_fixture()
        got, want = self.spliced_junctions(traces, stmt_methods, strict=False)
        # restricted to A alone, A's send is followed by A's recv
        assert ("a_out", "a_in") in want
        assert got == want

    def test_both_orders_of_a_process_pair(self):
        traces, stmt_methods = round_trip_fixture()
        for outlets in (["a_out", "b_out"], ["b_out", "a_out"]):
            got, want = self.spliced_junctions(
                traces, stmt_methods, strict=False, outlets=outlets
            )
            # (A, B) and (B, A) share one process-pair index
            assert {("a_out", "b_in"), ("b_out", "a_in")} <= want
            assert got == want

    def test_strict_and_whole_sequence(self):
        traces, stmt_methods = round_trip_fixture()
        got, want = self.spliced_junctions(traces, stmt_methods, strict=True)
        # A's coverage event lands between its send and B's recv
        assert got == want == {("b_out", "a_in")}

    def test_splice_equals_oracle_on_random_segments(self):
        # few distinct statements, drawn with replacement, so that segments
        # repeat and many prefixes share an end statement
        rng = random.Random(8)
        seen_spliced = seen_relayed = 0
        for sc in [
            Scenario("client_server", seed=1, length=90),
            Scenario("peer_to_peer", seed=2, length=90, tiers=4),
            Scenario("n_tier", seed=3, length=110, tiers=4),
        ]:
            model = generate_program(sc)
            traces, _ = simulate(model, sc)
            stmt_methods = all_graph_variants(model)[(True, True)].nodes
            order = merge_global(traces)
            index = InletOutletIndex.build(traces, set(stmt_methods.values()))
            inlets, outlets = sorted(index.inlets), sorted(index.outlets)
            filler = sorted(stmt_methods)[:4]

            def segs(heads, tails, most):
                return [
                    (rng.choice(heads),)
                    + tuple(rng.sample(filler, rng.randint(0, 2)))
                    + (rng.choice(tails),)
                    for _ in range(rng.randint(0, most))
                ]

            for _ in range(30):
                source_segs = segs(filler, outlets, 3)
                remote_segs = segs(inlets, outlets, 5)
                remote_segs += rng.sample(remote_segs, min(len(remote_segs), 2))
                sink_segs = segs(inlets, filler, 3)
                sink_segs += sink_segs[:1]
                for strict in (False, True):
                    got = splice_segments(
                        source_segs, remote_segs, sink_segs, order, index,
                        stmt_methods, strict=strict,
                    )
                    want = splice_oracle(
                        source_segs, remote_segs, sink_segs, order, index,
                        stmt_methods, strict=strict,
                    )
                    want_lines = [
                        "path level=stmt kind=spliced " + " -> ".join(p)
                        for p in want
                    ]
                    assert got == sorted(want_lines), (sc, strict)
                    seen_spliced += bool(want)
                    seen_relayed += any(
                        len(p) > max(map(len, source_segs)) + max(map(len, sink_segs))
                        for p in want
                    )
        assert seen_spliced and seen_relayed

    def test_simulated_runs(self):
        for sc in [
            Scenario("client_server", seed=1, length=90),
            Scenario("peer_to_peer", seed=2, length=90),
            Scenario("n_tier", seed=3, length=110, tiers=3),
        ]:
            model = generate_program(sc)
            traces, _ = simulate(model, sc)
            stmt_methods = all_graph_variants(model)[(True, True)].nodes
            for strict in (False, True):
                got, want = self.spliced_junctions(traces, stmt_methods, strict)
                assert got == want, (sc, strict)
                assert want or strict, sc


class TestPhase2EndToEnd:
    def test_empty_phase1_yields_empty(self):
        graph, traces, ma, mb = two_process_fixture()
        cfg = SourceSinkConfig(frozenset({"src"}), frozenset({"sink"}))
        res = phase2(graph, {}, traces, {"src", "out", "in_", "sink"}, cfg)
        assert res.pairs == ()

    def test_two_process_fixture_end_to_end(self):
        graph, traces, ma, mb = two_process_fixture()
        cfg = SourceSinkConfig(frozenset({"src"}), frozenset({"sink"}))
        pairs = {(ma, mb): {ma, mb}}
        res = phase2(graph, pairs, traces, {"src", "out", "in_", "sink"}, cfg)
        assert all_stmt_sequences(res) == {("src", "out", "in_", "sink")}
        counts = summary_counts(res)
        assert counts["interprocess_paths"] == 1
        assert counts["intra_paths"] == 0

    def test_all_emitted_statements_covered(self):
        for sc in [
            Scenario("client_server", seed=s, length=100) for s in range(4)
        ]:
            model = generate_program(sc)
            traces, _ = simulate(model, sc)
            graphs = all_graph_variants(model)
            res = analyze_flows(traces, graphs, model.default_cfg(), mode="default")
            covered = direct_coverage(traces)
            for seqid in all_stmt_sequences(res.phase2):
                assert set(seqid) <= covered

    def test_ground_truth_paths_emitted(self):
        scenarios = (
            [Scenario("client_server", seed=s, length=90) for s in range(5)]
            + [Scenario("peer_to_peer", seed=s, length=80) for s in range(3)]
            + [Scenario("n_tier", seed=s, length=110, tiers=3) for s in range(3)]
            + [Scenario("n_tier", seed=7, length=140, tiers=4)]
        )
        for sc in scenarios:
            model = generate_program(sc)
            traces, truth = simulate(model, sc)
            graphs = all_graph_variants(model)
            res = analyze_flows(traces, graphs, model.default_cfg(), mode="default")
            emitted = all_stmt_sequences(res.phase2)
            for gt in truth.dyn_paths:
                assert gt in emitted, (sc, gt)

    def test_modes_agree(self):
        scenarios = (
            [Scenario("client_server", seed=s, length=90) for s in range(4)]
            + [Scenario("peer_to_peer", seed=s, length=80) for s in range(2)]
            + [Scenario("n_tier", seed=s, length=100, tiers=3) for s in range(2)]
        )
        for sc in scenarios:
            model = generate_program(sc)
            traces, _ = simulate(model, sc)
            graphs = all_graph_variants(model)
            outs = {
                mode: analyze_flows(traces, graphs, model.default_cfg(), mode=mode)
                for mode in ("default", "sim", "mul")
            }
            base = all_stmt_sequences(outs["default"].phase2)
            assert all_stmt_sequences(outs["sim"].phase2) == base, sc
            assert all_stmt_sequences(outs["mul"].phase2) == base, sc

    def test_truncated_phase1_leaves_phase2_whole(self):
        # a 2-method cap truncates phase 1 on every run; phase 2 reads the
        # closed-form method sets, so its paths must not change
        scenarios = (
            [Scenario("client_server", seed=s, length=90) for s in range(2)]
            + [Scenario("peer_to_peer", seed=s, length=80) for s in range(2)]
            + [Scenario("n_tier", seed=s, length=110, tiers=3) for s in range(2)]
        )
        for sc in scenarios:
            model = generate_program(sc)
            traces, truth = simulate(model, sc)
            graphs = all_graph_variants(model)
            for mode in ("default", "sim", "mul"):
                full = analyze_flows(traces, graphs, model.default_cfg(), mode=mode)
                cut = analyze_flows(
                    traces, graphs, model.default_cfg(), mode=mode, path_limit=2
                )
                assert cut.phase1.truncated, (sc, mode)
                emitted = all_stmt_sequences(cut.phase2)
                assert emitted == all_stmt_sequences(full.phase2), (sc, mode)
                assert set(truth.dyn_paths) <= emitted, (sc, mode)

    def test_one_event_graph_per_run(self, monkeypatch):
        # phase 1 builds the happens-before index once, for both its paths
        # and the pair method sets that phase 2 reads
        sc = Scenario("n_tier", seed=2, length=100, tiers=3)
        model = generate_program(sc)
        traces, _ = simulate(model, sc)
        graphs = all_graph_variants(model)
        built = []
        init = trace.EventGraph.__init__

        def spy(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(trace.EventGraph, "__init__", spy)
        for mode in ("default", "sim", "mul"):
            built.clear()
            res = analyze_flows(traces, graphs, model.default_cfg(), mode=mode)
            assert res.phase2.interprocess_paths(), mode
            assert len(built) == 1, mode

    def test_coverage_styles_equivalent(self):
        sc = Scenario("client_server", seed=2, length=120)
        model = generate_program(sc)
        traces, _ = simulate(model, sc)
        graphs = all_graph_variants(model)
        a = analyze_flows(traces, graphs, model.default_cfg(), coverage_style="direct")
        b = analyze_flows(traces, graphs, model.default_cfg(), coverage_style="branches")
        assert all_stmt_sequences(a.phase2) == all_stmt_sequences(b.phase2)

    def test_strict_splice_is_at_most_default(self):
        # the all-events junction rule can only reject more concatenations
        for sc in [
            Scenario("client_server", seed=0, length=90),
            Scenario("n_tier", seed=2, length=100, tiers=3),
        ]:
            model = generate_program(sc)
            traces, _ = simulate(model, sc)
            graphs = all_graph_variants(model)
            loose = analyze_flows(traces, graphs, model.default_cfg())
            strict = analyze_flows(
                traces, graphs, model.default_cfg(), strict_splice=True
            )
            loose_inter = {p for p in loose.phase2.interprocess_paths()}
            strict_inter = {p for p in strict.phase2.interprocess_paths()}
            assert strict_inter <= loose_inter

    def test_strict_splice_two_process_junction_survives(self):
        graph, traces, ma, mb = two_process_fixture()
        order = merge_global(traces)
        index = InletOutletIndex.build(traces, {ma, mb})
        spliced = splice_segments(
            [("src", "out")], [], [("in_", "sink")], order, index,
            strict=True, stmt_methods=dict(graph.nodes),
        )
        # the recv is the very next event after the send in the merged order
        assert stmt_sequences(spliced) == [("src", "out", "in_", "sink")]
