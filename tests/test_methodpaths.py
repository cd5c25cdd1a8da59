"""Method-level dependence sets and flow paths against brute-force oracles."""

from __future__ import annotations

import gc
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from crossflow.methodpaths import (
    DEFAULT_MAX_PATHS,
    DEFAULT_PATH_LIMIT,
    DEFAULT_WORK_BUDGET,
    PathLines,
    PathSet,
    method_ds,
    method_level_paths,
    render_paths,
)
from crossflow.simulator import Scenario, all_graph_variants, generate_program, simulate
from crossflow.trace import (
    EventRecord,
    MethodId,
    influenced_recv_ts,
    method_spans,
    stamp_lamport,
)

from oracles import (
    brute_force_ds,
    check_path_ordering,
    covers_chain,
    flow_paths,
    influenced_map_oracle,
    method_key,
    path_keys,
    reference_method_paths,
    reference_render_paths,
    spans_oracle,
)


def mid(proc, name):
    return MethodId(proc, "Main", name)


def ev(proc, seq, kind, name="run", **kw):
    return EventRecord(kind=kind, method=mid(proc, name), seq=seq, **kw)


def ds_of(q, traces):
    """DS(q), with the spans and the influence map built for this query."""
    return method_ds(q, method_spans(traces), influenced_recv_ts(traces))


def path_unions(paths):
    """(source, sink) -> union of the methods of the enumerated method tuples."""
    by_pair = {}
    for ms in paths:
        by_pair.setdefault((ms[0], ms[-1]), set()).update(ms)
    return by_pair


def path_set(paths):
    """A ``PathSet`` laid out as ``method_level_paths`` lays it out: the
    methods in report order, one line per path in the order of the
    paths' rank tuples, as segments.  The paths of one source form one
    segment whose prefix is the line's head and the source's name."""
    paths = list(paths)
    methods = tuple(sorted({m for ms in paths for m in ms}, key=method_key))
    rank = {m: i for i, m in enumerate(methods)}
    keys = sorted(tuple(rank[m] for m in ms) for ms in paths)
    segments = [
        (
            "path level=method " + methods[source].qualified(),
            ["".join(" -> " + methods[i].qualified() for i in key[1:]) + "\n" for key in group],
        )
        for source, group in itertools.groupby(keys, key=lambda key: key[0])
    ]
    return PathSet(methods, PathLines(segments, len(keys)), False, {})


def strictly_increasing(keys):
    return all(a < b for a, b in zip(keys, keys[1:]))


def assert_matches_reference(got, want, where):
    """Same paths, count, truncation flag and ``phase1.txt`` text as the
    reference enumerator and writer, with keys strictly increasing."""
    assert {p for p in flow_paths(got)} == want.paths, where
    assert len(got.paths) == len(want.paths), where
    assert got.truncated == want.truncated, where
    assert strictly_increasing(path_keys(got)), where
    assert "".join(render_paths(got)) == reference_render_paths(want.paths), where


def owner_chains(owner, truth):
    """Ground-truth stmt paths lifted to duplicate-free method chains by
    ``owner``, the statement -> method map of the static graph."""
    chains = set()
    for path in truth.dyn_paths:
        methods = []
        for stmt in path:
            m = owner[stmt]
            if not methods or methods[-1] != m:
                methods.append(m)
        chains.add(tuple(methods))
    return chains


class TestMethodDs:
    def test_last_event_single_process(self):
        raw = {"A": [ev("A", 0, "entry", "m1"), ev("A", 1, "entry", "q")]}
        traces = stamp_lamport(raw)
        ds = ds_of(mid("A", "q"), traces)
        assert ds == {mid("A", "q")}

    def test_unexecuted_method_empty(self):
        raw = {"A": [ev("A", 0, "entry", "m1")]}
        traces = stamp_lamport(raw)
        assert ds_of(mid("A", "ghost"), traces) == frozenset()

    def test_silent_remote_process_contributes_nothing(self):
        raw = {
            "A": [ev("A", 0, "entry", "q")],
            "B": [ev("B", 0, "entry", "m")],
        }
        traces = stamp_lamport(raw)
        ds = ds_of(mid("A", "q"), traces)
        assert all(m.process == "A" for m in ds)

    def test_remote_member_via_message(self):
        raw = {
            "A": [ev("A", 0, "entry", "q"),
                  ev("A", 1, "send", "q", msg_id="m1", peer="B")],
            "B": [ev("B", 0, "entry", "m"),
                  ev("B", 1, "recv", "m", msg_id="m1", peer="A"),
                  ev("B", 2, "returned_into", "m")],
        }
        traces = stamp_lamport(raw)
        ds = ds_of(mid("A", "q"), traces)
        assert mid("B", "m") in ds
        assert ds == brute_force_ds(mid("A", "q"), traces)

    def test_message_before_fe_not_counted(self):
        # B's only message from A arrives before q starts
        raw = {
            "A": [ev("A", 0, "entry", "early"),
                  ev("A", 1, "send", "early", msg_id="m1", peer="B"),
                  ev("A", 2, "entry", "q")],
            "B": [ev("B", 0, "recv", "m", msg_id="m1", peer="A"),
                  ev("B", 1, "returned_into", "m")],
        }
        traces = stamp_lamport(raw)
        ds = ds_of(mid("A", "q"), traces)
        assert mid("B", "m") not in ds
        assert ds == brute_force_ds(mid("A", "q"), traces)

    def test_equals_brute_force_over_seeds(self):
        scenarios = [
            Scenario("client_server", seed=s, length=80) for s in range(8)
        ] + [
            Scenario("peer_to_peer", seed=s, length=90) for s in range(4)
        ] + [
            Scenario("n_tier", seed=s, length=110, tiers=3) for s in range(4)
        ]
        for sc in scenarios:
            model = generate_program(sc)
            traces, _ = simulate(model, sc)
            spans = method_spans(traces)
            want_spans = spans_oracle(traces)
            assert spans == want_spans, sc
            influenced = influenced_map_oracle(traces)
            got_influenced = influenced_recv_ts(traces)
            for q in spans:
                got = method_ds(q, spans, got_influenced)
                want = brute_force_ds(q, traces, want_spans, influenced)
                assert got == want, (sc, q)


class TestMethodLevelPaths:
    def test_no_source_executed(self):
        raw = {"A": [ev("A", 0, "entry", "m1")]}
        traces = stamp_lamport(raw)
        ps = method_level_paths(traces, [mid("A", "ghost")], [mid("A", "m1")])
        assert not ps.paths

    def test_no_sink_in_ds(self):
        # the sink method finished before q began, so DS(q) misses it
        raw = {
            "A": [ev("A", 0, "entry", "sinky"), ev("A", 1, "entry", "q")],
        }
        traces = stamp_lamport(raw)
        spans = method_spans(traces)
        assert spans[mid("A", "sinky")][1] < spans[mid("A", "q")][0]
        ps = method_level_paths(traces, [mid("A", "q")], [mid("A", "sinky")])
        assert not ps.paths

    def test_three_process_relay_spans_all(self):
        sc = Scenario("n_tier", seed=2, length=100, tiers=3)
        model = generate_program(sc)
        traces, truth = simulate(model, sc)
        owner = all_graph_variants(model)[(True, True)].nodes
        src_methods = {owner[s] for s in model.sources}
        sink_methods = {owner[s] for s in model.sinks}
        ps = method_level_paths(traces, src_methods, sink_methods)
        assert not ps.truncated
        spanning = [
            p for p in flow_paths(ps)
            if {m.process for m in p} == {"p0", "p1", "p2"}
        ]
        assert spanning

    def test_every_path_satisfies_ordering_predicate(self):
        for seed in range(5):
            sc = Scenario("client_server", seed=seed, length=100)
            model = generate_program(sc)
            traces, _ = simulate(model, sc)
            spans = method_spans(traces)
            owner = all_graph_variants(model)[(True, True)].nodes
            ps = method_level_paths(
                traces,
                {owner[s] for s in model.sources},
                {owner[s] for s in model.sinks},
            )
            for p in flow_paths(ps):
                assert check_path_ordering(p, spans)
                assert len(set(p)) == len(p)

    def test_ground_truth_chains_covered(self):
        scenarios = [
            Scenario("client_server", seed=s, length=90) for s in range(6)
        ] + [
            Scenario("peer_to_peer", seed=s, length=90) for s in range(3)
        ] + [
            Scenario("n_tier", seed=s, length=120, tiers=4) for s in range(3)
        ]
        for sc in scenarios:
            model = generate_program(sc)
            traces, truth = simulate(model, sc)
            owner = all_graph_variants(model)[(True, True)].nodes
            ps = method_level_paths(
                traces,
                {owner[s] for s in model.sources},
                {owner[s] for s in model.sinks},
            )
            assert not ps.truncated, sc
            for chain in owner_chains(owner, truth):
                assert covers_chain(flow_paths(ps), chain), (sc, chain)

    def test_duplicate_suppression_and_truncation_flag(self):
        sc = Scenario("peer_to_peer", seed=1, length=90)
        model = generate_program(sc)
        traces, _ = simulate(model, sc)
        owner = all_graph_variants(model)[(True, True)].nodes
        srcs = {owner[s] for s in model.sources}
        sinks = {owner[s] for s in model.sinks}
        full = method_level_paths(traces, srcs, sinks)
        assert len(flow_paths(full)) == len(full.paths)
        assert strictly_increasing(path_keys(full))
        tiny = method_level_paths(traces, srcs, sinks, path_limit=2)
        assert tiny.truncated
        assert all(len(key) <= 2 for key in path_keys(tiny))

    def test_equals_reference_enumerator_at_every_cap(self):
        # small caps put the point where each cap cuts in inside the walk,
        # so visit order and cap checks must match the reference exactly
        rng = random.Random(20231)
        scenarios = (
            [Scenario("client_server", seed=s, length=100) for s in range(4)]
            + [Scenario("peer_to_peer", seed=s, length=90) for s in range(4)]
            + [Scenario("n_tier", seed=s, length=120, tiers=4) for s in range(4)]
        )
        seen_truncated = seen_whole = 0
        for sc in scenarios:
            model = generate_program(sc)
            traces, _ = simulate(model, sc)
            owner = all_graph_variants(model)[(True, True)].nodes
            srcs = {owner[s] for s in model.sources}
            sinks = {owner[s] for s in model.sinks}
            pairs = method_level_paths(traces, srcs, sinks).pairs
            caps = [(DEFAULT_PATH_LIMIT, DEFAULT_MAX_PATHS, DEFAULT_WORK_BUDGET)]
            caps += [
                (rng.randint(2, 6), rng.randint(1, 50), rng.randint(1, 500))
                for _ in range(6)
            ]
            caps += [(2, DEFAULT_MAX_PATHS, DEFAULT_WORK_BUDGET),
                     (DEFAULT_PATH_LIMIT, 1, DEFAULT_WORK_BUDGET),
                     (DEFAULT_PATH_LIMIT, DEFAULT_MAX_PATHS, 1)]
            for limit, max_paths, budget in caps:
                got = method_level_paths(
                    traces, srcs, sinks, path_limit=limit,
                    max_paths=max_paths, work_budget=budget,
                )
                want = reference_method_paths(
                    traces, srcs, sinks, path_limit=limit,
                    max_paths=max_paths, work_budget=budget,
                )
                assert_matches_reference(got, want, (sc, limit, max_paths, budget))
                # no cap touches the pair sets
                assert got.pairs == pairs, (sc, limit, max_paths, budget)
                # the closed form is the enumerated union, or a superset of
                # it when a cap cut the enumeration off
                unions = path_unions(want.paths)
                if want.truncated:
                    assert all(ms <= pairs[key] for key, ms in unions.items())
                else:
                    assert pairs == unions, (sc, limit, max_paths, budget)
                seen_truncated += want.truncated
                seen_whole += not want.truncated and bool(want.paths)
        assert seen_truncated and seen_whole

    def test_equals_reference_when_a_sink_ends_as_a_member_starts(self):
        # B's m2 starts at the timestamp where A's sink s ends, so s can
        # still follow m2; two sinks make the cut scan look past the first
        raw = {
            "A": [ev("A", 0, "entry", "q"),
                  ev("A", 1, "send", "q", msg_id="m1", peer="B"),
                  ev("A", 2, "entry", "x"),
                  ev("A", 3, "entry", "s")],
            "B": [ev("B", 0, "entry", "m0"),
                  ev("B", 1, "recv", "m0", msg_id="m1", peer="A"),
                  ev("B", 2, "entry", "m2"),
                  ev("B", 3, "entry", "s2")],
        }
        traces = stamp_lamport(raw)
        spans = method_spans(traces)
        assert spans[mid("B", "m2")][0] == spans[mid("A", "s")][1]
        srcs = [mid("A", "q")]
        for sinks in ([mid("A", "s")], [mid("A", "s"), mid("B", "s2")]):
            full = method_level_paths(traces, srcs, sinks)
            assert (mid("A", "q"), mid("B", "m2"), mid("A", "s")) in {
                p for p in flow_paths(full)
            }
            for limit in range(2, 7):
                for max_paths in range(1, 8):
                    for budget in range(1, 40):
                        kw = dict(
                            path_limit=limit, max_paths=max_paths, work_budget=budget
                        )
                        got = method_level_paths(traces, srcs, sinks, **kw)
                        want = reference_method_paths(traces, srcs, sinks, **kw)
                        assert_matches_reference(got, want, (sinks, kw))

    def test_path_cap_at_the_boundary_between_sources(self):
        # DS(q1) = {q1, q2, m, s} and DS(q2) = {q2, m, s} overlap; q1 has
        # five paths to s, q2 two, so a cap of five bites exactly where q2
        # starts and a cap of six one path past it
        raw = {
            "A": [ev("A", 0, "entry", "q1"),
                  ev("A", 1, "send", "q1", msg_id="m1", peer="B"),
                  ev("A", 2, "entry", "q2"),
                  ev("A", 3, "send", "q2", msg_id="m2", peer="B"),
                  ev("A", 4, "entry", "s")],
            "B": [ev("B", 0, "entry", "m"),
                  ev("B", 1, "recv", "m", msg_id="m1", peer="A"),
                  ev("B", 2, "recv", "m", msg_id="m2", peer="A"),
                  ev("B", 3, "returned_into", "m")],
        }
        traces = stamp_lamport(raw)
        q1, q2, s = mid("A", "q1"), mid("A", "q2"), mid("A", "s")
        srcs, sinks = [q2, q1], [s]
        assert ds_of(q1, traces) == {q1, q2, mid("B", "m"), s}
        assert ds_of(q2, traces) == {q2, mid("B", "m"), s}
        full = method_level_paths(traces, srcs, sinks)
        starts = [full.methods[key[0]] for key in path_keys(full)]
        assert starts == [q1] * 5 + [q2] * 2
        assert not full.truncated
        for max_paths, count, truncated in [(5, 5, True), (6, 6, True), (7, 7, False)]:
            got = method_level_paths(traces, srcs, sinks, max_paths=max_paths)
            want = reference_method_paths(traces, srcs, sinks, max_paths=max_paths)
            assert (len(got.paths), got.truncated) == (count, truncated), max_paths
            assert_matches_reference(got, want, max_paths)
        cut = method_level_paths(traces, srcs, sinks, max_paths=5)
        assert {full.methods[key[0]] for key in path_keys(cut)} == {q1}


@st.composite
def stamped_traces(draw):
    """Stamped traces of 2-3 processes with four methods each: entries,
    returns, and sends each received later, in one drawn interleaving."""
    procs = [f"p{i}" for i in range(draw(st.integers(2, 3)))]
    names = ["a", "b", "c", "d"]
    raw = {p: [] for p in procs}
    pending: list[tuple[str, str]] = []  # (msg_id, sender)
    for n in range(draw(st.integers(4, 30))):
        proc = draw(st.sampled_from(procs))
        method = draw(st.sampled_from(names))
        deliverable = [m for m in pending if m[1] != proc]
        kind = draw(st.sampled_from(["entry", "entry", "returned_into", "send", "recv"]))
        kw = {}
        if kind == "recv":
            if not deliverable:
                kind = "entry"
            else:
                msg = draw(st.sampled_from(deliverable))
                pending.remove(msg)
                kw = dict(msg_id=msg[0], peer=msg[1])
        elif kind == "send":
            peer = draw(st.sampled_from([p for p in procs if p != proc]))
            pending.append((f"m{n}", proc))
            kw = dict(msg_id=f"m{n}", peer=peer)
        raw[proc].append(ev(proc, len(raw[proc]), kind, method, **kw))
    traces = stamp_lamport(raw)
    return traces, [mid(p, name) for p in procs for name in names]


caps = st.tuples(st.integers(1, 5), st.integers(1, 30), st.integers(1, 200))


@given(stamped_traces(), st.data(), caps)
@settings(max_examples=200, deadline=None)
def test_equals_reference_on_random_traces(drawn, data, cap):
    traces, methods = drawn
    # the reference walks a source listed twice twice; the package once
    srcs = data.draw(
        st.lists(st.sampled_from(methods), min_size=1, max_size=3, unique=True)
    )
    sinks = data.draw(st.lists(st.sampled_from(methods), min_size=1, max_size=4))
    limit, max_paths, budget = cap
    kw = dict(path_limit=limit, max_paths=max_paths, work_budget=budget)
    got = method_level_paths(traces, srcs, sinks, **kw)
    want = reference_method_paths(traces, srcs, sinks, **kw)
    assert_matches_reference(got, want, kw)
    assert method_level_paths(traces, srcs + srcs, sinks, **kw) == got


def wide_fixture():
    """70 methods in DS(A.w0), more than a machine word of candidates: A
    enters w0..w39 and sends to B, then returns into w39..w20; B enters v0,
    receives, and enters v1..v29, whose first entries come after every
    other member's, so they take bits 41-69 of the walk's masks."""
    a = [("entry", f"w{i}", {}) for i in range(40)]
    a.append(("send", "w39", dict(msg_id="m1", peer="B")))
    a += [("returned_into", f"w{i}", {}) for i in range(39, 19, -1)]
    b = [("entry", "v0", {}), ("recv", "v0", dict(msg_id="m1", peer="A"))]
    b += [("entry", f"v{i}", {}) for i in range(1, 30)]
    b.append(("returned_into", "v0", {}))
    traces = stamp_lamport({
        proc: [ev(proc, seq, kind, name, **kw) for seq, (kind, name, kw) in enumerate(evs)]
        for proc, evs in (("A", a), ("B", b))
    })
    return traces


WIDE = wide_fixture()


@given(
    st.lists(st.sampled_from(range(20, 30)), min_size=1, max_size=4),
    st.booleans(),
    caps,
)
@settings(max_examples=60, deadline=None)
def test_equals_reference_beyond_a_machine_word(late_sinks, early_sink, cap):
    assert len(ds_of(mid("A", "w0"), WIDE)) == 70
    sinks = [mid("B", f"v{i}") for i in late_sinks]
    sinks += [mid("A", "w25")] if early_sink else []
    limit, max_paths, budget = cap
    kw = dict(path_limit=limit, max_paths=max_paths, work_budget=budget)
    got = method_level_paths(WIDE, [mid("A", "w0"), mid("A", "w3")], sinks, **kw)
    want = reference_method_paths(WIDE, [mid("A", "w0"), mid("A", "w3")], sinks, **kw)
    assert_matches_reference(got, want, (late_sinks, early_sink, kw))


def test_every_work_budget_beyond_a_machine_word():
    # the budget runs out at every step, inside a run of cut candidates
    # charged together too.  With the source A.w0 as the only sink, no sink
    # can follow it, so its whole walk is one such run of 69 steps, and one
    # budget is spent by it exactly.
    srcs = [mid("A", "w0"), mid("A", "w3")]
    late = [mid("B", "v25"), mid("B", "v28")]
    for limit, sinks, budgets in [
        (5, [mid("A", "w0")], range(1, 101)),
        (5, [mid("A", "w1")], range(1, 301)),
        (3, late + [mid("A", "w25")], range(1, 121)),
    ]:
        for budget in budgets:
            kw = dict(path_limit=limit, max_paths=DEFAULT_MAX_PATHS, work_budget=budget)
            got = method_level_paths(WIDE, srcs, sinks, **kw)
            want = reference_method_paths(WIDE, srcs, sinks, **kw)
            assert_matches_reference(got, want, (sinks, kw))


def overlapping_traces(k, reverse=False):
    """Process A enters m0..m{k-1} (m{k-1}..m0 with ``reverse``) and the
    sink s, then returns into each, so every method's span overlaps every
    other's.  From a source m_i, every ordering of every subset of the other
    k - 1 methods leads to s, and the orderings of one subset end in one
    walk state."""
    names = [f"m{i}" for i in range(k)]
    names = [*names[::-1], "s"] if reverse else [*names, "s"]
    evs = [("entry", n) for n in names] + [("returned_into", n) for n in names]
    return stamp_lamport(
        {"A": [ev("A", seq, kind, name) for seq, (kind, name) in enumerate(evs)]}
    )


def assert_every_cap_matches_reference(traces, srcs, sinks, count):
    """Every path cap and every work budget up to the uncapped walk's, and
    a grid of both, at path limits 2-6 and the default, against the
    reference; ``count`` is the number of uncapped paths."""
    full = method_level_paths(traces, srcs, sinks)
    assert len(full.paths) == count
    assert not full.truncated
    budget = 1
    while method_level_paths(traces, srcs, sinks, work_budget=budget).truncated:
        budget += 1
    for limit in (2, 3, 4, 5, 6, DEFAULT_PATH_LIMIT):
        caps = [(m, DEFAULT_WORK_BUDGET) for m in range(1, count + 2)]
        caps += [(DEFAULT_MAX_PATHS, b) for b in range(1, budget + 2)]
        caps += [(m, b) for m in range(3, count, 17) for b in range(7, budget, 41)]
        for max_paths, work_budget in caps:
            kw = dict(path_limit=limit, max_paths=max_paths, work_budget=work_budget)
            got = method_level_paths(traces, srcs, sinks, **kw)
            want = reference_method_paths(traces, srcs, sinks, **kw)
            assert_matches_reference(got, want, kw)


def test_reused_subtrees_equal_reference_at_every_cap():
    # 5 overlapping methods: each of the two sources has 65 paths, most of
    # them copies of a subtree first walked under another ordering.  Every
    # path cap and every work budget up to the uncapped walk's falls at or
    # inside some copied subtree, and the length caps of path limits 2-6
    # fire inside the subtrees that are copied
    assert_every_cap_matches_reference(
        overlapping_traces(5), [mid("A", "m0"), mid("A", "m1")], [mid("A", "s")],
        2 * (1 + 4 + 4 * 3 + 4 * 3 * 2 + 4 * 3 * 2),
    )


def test_children_out_of_rank_order_equal_reference_at_every_cap():
    # entered from m4 down to m0, the methods are visited in the reverse of
    # their rank order, so each node with two children or more moves their
    # lines into rank order.  That moves the lines of a subtree walked under
    # m_i -> m_j, which m_j -> m_i copies later, and every cap falls at or
    # inside some moved or copied subtree
    assert_every_cap_matches_reference(
        overlapping_traces(5, reverse=True),
        [mid("A", "m0"), mid("A", "m1")], [mid("A", "s")],
        2 * (1 + 4 + 4 * 3 + 4 * 3 * 2 + 4 * 3 * 2),
    )


def test_reused_state_without_lines_adds_nothing():
    # at path limit 3, m0 -> m1 -> m2 ends at the length cap without a
    # line, and m0 -> m2 -> m1 reaches the same state, which the walk
    # reuses: that must add neither a line nor the bare prefix
    traces = overlapping_traces(4)
    srcs, sinks = [mid("A", "m0")], [mid("A", "s")]
    got = method_level_paths(traces, srcs, sinks, path_limit=3)
    want = reference_method_paths(traces, srcs, sinks, path_limit=3)
    assert got.truncated and want.truncated
    assert all(tails for _, tails in got.paths.segments)
    text = "".join(render_paths(got))
    assert text == reference_render_paths(want.paths)
    # m0 -> s and m0 -> m_i -> s for i = 1..3
    assert text.count("\n") == len(got.paths) == len(want.paths) == 4


def test_phase1_leaves_no_cyclic_garbage():
    # with the collector off, anything phase 1 leaves in a reference cycle
    # stays until the next collection, and collect() counts it
    traces = overlapping_traces(4)
    gc.collect()
    gc.disable()
    try:
        ps = method_level_paths(traces, [mid("A", "m0")], [mid("A", "s")])
        assert ps.paths
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pair_methods_when_a_source_is_also_a_sink():
    # q is a source and a sink: its only path to itself is (q,), while
    # q -> x -> s and q -> B.m -> s reach the other sink
    raw = {
        "A": [ev("A", 0, "entry", "q"),
              ev("A", 1, "send", "q", msg_id="m1", peer="B"),
              ev("A", 2, "entry", "x"),
              ev("A", 3, "entry", "s")],
        "B": [ev("B", 0, "entry", "m"),
              ev("B", 1, "recv", "m", msg_id="m1", peer="A"),
              ev("B", 2, "returned_into", "m")],
    }
    traces = stamp_lamport(raw)
    q, s = mid("A", "q"), mid("A", "s")
    pairs = method_level_paths(traces, [q], [q, s]).pairs
    assert pairs == {
        (q, q): {q},
        (q, s): {q, mid("A", "x"), mid("B", "m"), s},
    }
    assert pairs == path_unions(reference_method_paths(traces, [q], [q, s]).paths)
    assert pairs == path_unions(
        p for p in flow_paths(method_level_paths(traces, [q], [q, s]))
    )
    assert method_level_paths(traces, [mid("A", "ghost")], [q, s]).pairs == {}


def test_covers_chain_subsequence_semantics():
    a, b, c = mid("A", "a"), mid("A", "b"), mid("A", "c")
    paths = [(a, b, c)]
    assert covers_chain(paths, (a, c))
    assert covers_chain(paths, (a, b, c))
    assert not covers_chain(paths, (c, a))


def test_render_paths_orders_by_method_sort_keys():
    # "P-x.A.b" sorts before "P.Z.a" as a name, but process "P-x" after
    # "P"; a path sorts after its own prefix
    a, b = MethodId("P", "Z", "a"), MethodId("P-x", "A", "b")
    c = MethodId("P", "Main", "c")
    paths = [(a, b), (c, a), (a,), (b, c, a), (a, c), (c,), (a, b, c)]
    want = [
        "path level=method " + " -> ".join(m.qualified() for m in ms)
        for ms in sorted(paths, key=lambda ms: [method_key(m) for m in ms])
    ]
    ps = path_set(paths)
    assert ps.methods == (c, a, b)
    assert flow_paths(ps) == {ms for ms in paths}
    assert list(ps.paths) == want
    assert "".join(render_paths(ps)) == "\n".join(want) + "\n"
    assert "".join(render_paths(ps)) == reference_render_paths(paths)
    assert "".join(render_paths(PathSet((), PathLines([], 0), False, {}))) == ""


def test_enumerated_paths_rank_by_sort_key_not_name():
    # a, c in process "P" and b in "P-x" all overlap, so every ordering of
    # them is a path; the rank table must put "P-x" after "P"
    def at(proc, cls, name, seq, kind, **kw):
        return EventRecord(kind=kind, method=MethodId(proc, cls, name), seq=seq, **kw)

    raw = {
        "P": [at("P", "Z", "a", 0, "entry"),
              at("P", "Main", "c", 1, "entry"),
              at("P", "Main", "c", 2, "send", msg_id="m1", peer="P-x"),
              at("P", "Z", "a", 3, "returned_into")],
        "P-x": [at("P-x", "A", "b", 0, "entry"),
                at("P-x", "A", "b", 1, "recv", msg_id="m1", peer="P")],
    }
    traces = stamp_lamport(raw)
    a, b = MethodId("P", "Z", "a"), MethodId("P-x", "A", "b")
    c = MethodId("P", "Main", "c")
    ps = method_level_paths(traces, [a, c], [a, b, c])
    assert ps.methods == (c, a, b)
    assert {(a, c), (a, b), (a, b, c), (a, c, b), (c, a, b)} <= {
        p for p in flow_paths(ps)
    }
    assert strictly_increasing(path_keys(ps))
    assert "".join(render_paths(ps)) == reference_render_paths(flow_paths(ps))
    lines = "".join(render_paths(ps)).splitlines()
    assert lines.index("path level=method P.Z.a -> P.Main.c") < lines.index(
        "path level=method P.Z.a -> P-x.A.b"
    )
