"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance and runtime bound is pinned here.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

import pytest

from crossflow.cli import main as cli_main
from crossflow.config import (
    Configuration,
    all_configurations,
    valid_configurations,
)
from crossflow.engine import (
    ArbiterState,
    Budget,
    CostModel,
    MethodTable,
    QLearnController,
    arbitrate,
    merge_query,
    method_event_stream,
    run_facts,
)
from crossflow.metrics import DepData, ipc_metrics
from crossflow.methodpaths import (
    method_ds,
    method_level_paths,
)
from crossflow.pipeline import analyze_flows, direct_coverage
from crossflow.qlearn import (
    LearnerParams,
    QTable,
    reward,
    select_action_traced,
    update,
)
from crossflow.simulator import (
    Scenario,
    all_graph_variants,
    generate_program,
    simulate,
)
from crossflow.staticgraph import relevant_methods
from crossflow.stats import kmeans2, rank_average_ties, spearman
from crossflow.stmtpaths import InletOutletIndex
from crossflow.trace import (
    EventRecord,
    MethodId,
    filter_traces,
    influenced_recv_ts,
    merge_global,
    method_spans,
    stamp_lamport,
)

from oracles import (
    all_stmt_sequences,
    brute_force_ds,
    closure_matrix,
    covers_chain,
    flow_paths,
    influenced_map_oracle,
    matches_mask,
    rank_with_ties,
    spans_oracle,
    stmt_sequences,
)
from test_engine import deps_of

C = Configuration.from_string


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def scenario_for(seed: int) -> Scenario:
    """Deterministic scenario mix: <= 5 processes, <= 200 events."""
    kind = seed % 5
    length = 60 + (seed * 13) % 140
    if kind == 0:
        return Scenario("client_server", seed=seed, length=length)
    if kind == 1:
        return Scenario("peer_to_peer", seed=seed, length=length, tiers=3)
    if kind == 2:
        return Scenario("peer_to_peer", seed=seed, length=length, tiers=4)
    if kind == 3:
        return Scenario("n_tier", seed=seed, length=length, tiers=3)
    return Scenario("n_tier", seed=seed, length=length, tiers=4)


def gt_method_chains(owner, truth):
    """Ground-truth stmt paths lifted to method chains by ``owner``, the
    statement -> method map of the static graph."""
    chains = set()
    for path in truth.dyn_paths:
        methods = []
        for stmt in path:
            m = owner[stmt]
            if not methods or methods[-1] != m:
                methods.append(m)
        chains.add(tuple(methods))
    return chains


def test_criterion_1_lamport_fixture():
    t0 = time.perf_counter()
    mk = lambda p: MethodId(p, "Main", "run")
    raw = {
        "A": [EventRecord("entry", mk("A"), 0),
              EventRecord("send", mk("A"), 1, msg_id="m1", peer="B")],
        "B": [EventRecord("recv", mk("B"), 0, msg_id="m1", peer="A"),
              EventRecord("send", mk("B"), 1, msg_id="m2", peer="C")],
        "C": [EventRecord("entry", mk("C"), 0),
              EventRecord("recv", mk("C"), 1, msg_id="m2", peer="B")],
    }
    traces = stamp_lamport(raw)
    ts_c = traces["B"].events[0].ts
    ts_f = traces["C"].events[1].ts
    assert ts_c == 3, "recv of m1 must get max(0, 2) + 1 = 3"
    assert ts_f == 5, "recv of m2 must get max(1, 4) + 1 = 5"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"Lamport figure ts(c)=3, ts(f)=5 in {elapsed:.3f}s")


def test_criterion_2_method_level_oracle_equivalence():
    t0 = time.perf_counter()
    n_seeds = 1000
    chains_checked = 0
    for seed in range(n_seeds):
        sc = scenario_for(seed)
        model = generate_program(sc)
        traces, truth = simulate(model, sc)
        n_events = sum(len(t.events) for t in traces.values())
        assert len(traces) <= 5 and n_events <= 200, sc

        spans = method_spans(traces)
        want_spans = spans_oracle(traces)
        assert spans == want_spans, sc
        reach = closure_matrix(traces)
        influenced = influenced_map_oracle(traces, reach)
        got_influenced = influenced_recv_ts(traces)
        for q in spans:
            got = method_ds(q, spans, got_influenced)
            want = brute_force_ds(q, traces, want_spans, influenced)
            assert got == want, (sc, q)

        owner = all_graph_variants(model)[(True, True)].nodes
        ps = method_level_paths(
            traces,
            {owner[s] for s in model.sources},
            {owner[s] for s in model.sinks},
        )
        assert not ps.truncated, sc
        for chain in gt_method_chains(owner, truth):
            chains_checked += 1
            assert covers_chain(flow_paths(ps), chain), (sc, chain)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        2,
        f"{n_seeds} seeded traces: method_ds == brute force for every query, "
        f"{chains_checked} ground-truth chains covered, {elapsed:.1f}s",
    )


def _junction_oracle(path_stmts, graph, traces, index, order):
    """Independent check of the no-intervening-event rule for every junction
    (send-site followed by recv-site) on a spliced path."""
    nodes = dict(graph.nodes)
    ok = True
    for a, b in zip(path_stmts, path_stmts[1:]):
        if a in graph.send_sites and b in graph.recv_sites:
            pa, pb = nodes[a].process, nodes[b].process
            sub = [
                ev
                for ev in order
                if ev.kind in ("send", "recv")
                and ev.stmt_id is not None
                and (ev.stmt_id in index.inlets or ev.stmt_id in index.outlets)
                and ev.process in (pa, pb)
            ]
            adjacent = any(
                e1.kind == "send" and e1.stmt_id == a
                and e2.kind == "recv" and e2.stmt_id == b
                for e1, e2 in zip(sub, sub[1:])
            )
            ok = ok and adjacent
    return ok


def test_criterion_3_statement_level_soundness():
    t0 = time.perf_counter()
    n_seeds = 250
    junctions = 0
    for seed in range(n_seeds):
        sc = scenario_for(seed)
        model = generate_program(sc)
        traces, truth = simulate(model, sc)
        graphs = all_graph_variants(model)
        cfg = model.default_cfg()

        runs = {
            mode: analyze_flows(traces, graphs, cfg, mode=mode)
            for mode in ("default", "sim", "mul")
        }
        base = runs["default"]
        covered = direct_coverage(traces)
        emitted = all_stmt_sequences(base.phase2)

        # (a) every statement on every emitted path is covered
        for seqid in emitted:
            assert set(seqid) <= covered, sc

        # (b) spliced junctions satisfy the no-intervening-event predicate
        graph = graphs[(False, True)]
        order = merge_global(traces)
        owner = graph.nodes
        by_pair = method_level_paths(
            filter_traces(traces, relevant_methods(graph, cfg)),
            {owner[s] for s in cfg.sources if s in owner},
            {owner[t] for t in cfg.sinks if t in owner},
        ).pairs
        for pair in base.phase2.pairs:
            methods = by_pair[(owner[pair.source_stmt], owner[pair.sink_stmt])]
            index = InletOutletIndex.build(traces, methods)
            for p in stmt_sequences(pair.interprocess):
                junctions += 1
                assert _junction_oracle(p, graph, traces, index, order), (sc, p)

        # (c) ground truth is a subset of the emitted paths
        for gt in truth.dyn_paths:
            assert gt in emitted, (sc, gt)

        # mode equivalence on deterministic traces
        assert all_stmt_sequences(runs["sim"].phase2) == emitted, sc
        assert all_stmt_sequences(runs["mul"].phase2) == emitted, sc
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        3,
        f"{n_seeds} seeded runs: coverage, {junctions} junction checks, "
        f"ground truth emitted, 3 modes agree, {elapsed:.1f}s",
    )


def test_criterion_4_configuration_enumeration():
    t0 = time.perf_counter()
    masks = ("001xxx", "010xxx", "011xxx", "0xxx1x", "xxx0x1", "000000")
    valid = valid_configurations()
    assert len(valid) == 26
    for cfg in all_configurations():
        masked = any(matches_mask(cfg.encode(), m) for m in masks)
        assert cfg.is_valid() == (not masked), cfg.encode()
    elapsed = time.perf_counter() - t0
    report(4, f"26 of 64 encodings valid, complement of the printed masks, "
              f"{elapsed * 1000:.1f}ms")


def test_criterion_5_subsumption_and_recall():
    t0 = time.perf_counter()
    n_seeds = 36
    ds_checks = 0
    merged_checks = 0
    for seed in range(n_seeds):
        sc = scenario_for(seed)
        model = generate_program(sc)
        traces, truth = simulate(model, sc)
        graphs = all_graph_variants(model)
        table = MethodTable.from_traces(traces)
        facts = run_facts(traces)
        coverage_by_proc = {
            proc: {
                ev.stmt_id for ev in traces[proc].events
                if ev.kind == "stmt_cover"
            }
            for proc in traces
        }
        baseline = {}
        per_cfg: dict[str, dict] = {}
        for cfg in valid_configurations():
            per_proc = {
                proc: deps_of(
                    method_event_stream(traces[proc], table),
                    cfg, graphs, coverage_by_proc[proc], table,
                )
                for proc in traces
            }
            per_cfg[cfg.encode()] = per_proc
            if cfg == C("111111"):
                baseline = per_proc
        for enc, per_proc in per_cfg.items():
            for proc, deps in baseline.items():
                for q, ds in deps.items():
                    ds_checks += 1
                    assert ds <= per_proc[proc][q], (sc, enc, q)
            # recall: every ground-truth dependence appears under this config
            for m1, m2 in truth.dyn_dep:
                if m1.process == m2.process:
                    assert m2 in per_proc[m1.process][m1], (sc, enc, m1, m2)
                else:
                    merged = merge_query(m1, per_proc, facts)
                    merged_checks += 1
                    assert m2 in merged, (sc, enc, m1, m2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    report(
        5,
        f"{n_seeds} seeded runs x 26 configurations: {ds_checks} subsumption "
        f"checks, ground truth recalled ({merged_checks} interprocess merges), "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_q_learning_arithmetic():
    t0 = time.perf_counter()
    assert reward(60000, 40000) == 0.05
    table = QTable()
    update(table, C("111111"), C("000100"), 0.05, LearnerParams(alpha=0.9, gamma=0.9))
    assert math.isclose(table.values[(C("111111"), C("000100"))], 0.045, abs_tol=1e-15)

    for epsilon in (0.0, 0.2, 1.0):
        t = QTable()
        t.values[(C("111111"), C("000100"))] = 1.0
        rng = random.Random(99)
        params = LearnerParams(epsilon=epsilon)
        n = 10000
        exploited = sum(
            select_action_traced(t, C("111111"), params, rng)[1]
            for _ in range(n)
        )
        p = 1.0 - epsilon
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(exploited / n - p) <= max(3 * sigma, 1e-9), epsilon
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, f"reward 0.05, Bellman 0.045, epsilon-greedy rates within "
              f"3 sigma for eps in (0, 0.2, 1), {elapsed:.1f}s")


def test_criterion_7_budget_adherence():
    t0 = time.perf_counter()
    budget = Budget.from_total(50.0)
    # at least one configuration always fits: the cheapest event-only
    # analysis costs 1 + 0.05 * |QU| <= 6 for these traces
    costs = CostModel(
        compute_per_event=0.05,
        construct_per_edge=0.6,   # sensitive graph construction cannot fit
        load_per_edge=0.02,
        instance_factor=4.0,
        graph_factor=3.0,
    )
    total_rounds = []
    for seed in (0, 1, 2):
        sc = Scenario("client_server", seed=seed, length=200)
        model = generate_program(sc)
        traces, _ = simulate(model, sc)
        graphs = all_graph_variants(model)
        table = MethodTable.from_traces(traces)
        for idx, proc in enumerate(sorted(traces)):
            coverage = {
                ev.stmt_id for ev in traces[proc].events
                if ev.kind == "stmt_cover"
            }
            controller = QLearnController(
                budget.total,
                LearnerParams(epsilon=0.05),
                seed=seed * 7 + idx,
            )
            state = ArbiterState(event_threshold=1, time_threshold=0.0)
            # a continuously running process: the finite trace repeats
            stream = method_event_stream(traces[proc], table) * 3
            rounds = arbitrate(
                stream, state, budget, costs, controller, graphs, coverage, table,
            )
            total_rounds.append(rounds)
    warmup = 5
    post = [r for rounds in total_rounds for r in rounds[warmup:]]
    assert len(post) >= 20
    within = sum(1 for r in post if r.cost <= budget.total)
    share = within / len(post)
    assert share >= 0.90, f"only {share:.0%} of post-warm-up rounds in budget"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"{within}/{len(post)} post-warm-up rounds within budget "
              f"({share:.0%}), {elapsed:.1f}s")


def test_criterion_8_ipc_metrics_fixture():
    t0 = time.perf_counter()
    from test_metrics import hand_fixture, random_dep_data

    report_vals = ipc_metrics(hand_fixture())
    expected = {
        "rmc": 2.0,
        "rcc": 5.0 / 14.0,
        "ccc": 2.0 / 3.0,
        "ipr": 1.0 / 144.0,
        "ccl": 7.0 / 12.0,
        "plc": 7.0 / 12.0,
    }
    for name, want in expected.items():
        got = getattr(report_vals, name)
        assert abs(got - want) < 1e-10, (name, got, want)

    rng = random.Random(8)
    for _ in range(25):
        dep = random_dep_data(rng)
        rep = ipc_metrics(dep)
        doubled = ipc_metrics(
            DepData(dep.local_ds, dep.remote_ds, dep.executed,
                    {k: 2 * v for k, v in dep.messages.items()})
        )
        assert doubled.rmc == pytest.approx(2 * rep.rmc)
        if rep.process_rmc:
            assert rep.rmc == pytest.approx(
                sum(rep.process_rmc.values()) / len(rep.process_rmc)
            )
        assert rep.plc == pytest.approx(
            sum(rep.process_plc.values()) / len(rep.process_plc)
        )
        assert rep.ccl == pytest.approx(
            sum(rep.class_ccl.values()) / len(rep.class_ccl)
        )
        assert rep.ccc == pytest.approx(
            sum(rep.class_ccc.values()) / len(rep.class_ccc)
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, f"hand fixture exact to 1e-10, linearity and mean aggregation "
              f"on random data, {elapsed:.1f}s")


def test_criterion_9_statistics():
    t0 = time.perf_counter()
    assert spearman([1, 2, 3, 4, 5], [2, 4, 6, 8, 10]).r == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4, 5], [10, 8, 6, 4, 2]).r == pytest.approx(-1.0)

    xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    ys = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0]
    assert rank_average_ties(xs) == rank_with_ties(xs)
    res = spearman(xs, ys)
    rx, ry = rank_with_ties(xs), rank_with_ties(ys)
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    oracle_r = sum((a - mx) * (b - my) for a, b in zip(rx, ry)) / math.sqrt(
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    )
    assert abs(res.r - oracle_r) < 1e-12
    assert res.significant == (abs(res.r) >= 0.4)

    rng = random.Random(17)
    pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(25)]
    pts += [(rng.uniform(6, 7), rng.uniform(6, 7)) for _ in range(15)]
    final = kmeans2(pts, seed=3)
    prev = None
    for iters in range(1, final.iterations + 1):
        snap = kmeans2(pts, seed=3, max_iter=iters)
        inertia = sum(
            sum((x - c) ** 2 for x, c in zip(p, snap.centers[l]))
            for p, l in zip(pts, snap.labels)
        )
        if prev is not None:
            assert inertia <= prev + 1e-9
        prev = inertia
    for cluster in (0, 1):
        members = [p for p, l in zip(pts, final.labels) if l == cluster]
        mean = tuple(sum(col) / len(members) for col in zip(*members))
        for got, want in zip(final.centers[cluster], mean):
            assert abs(got - want) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(9, f"spearman +/-1, tie oracle to 1e-12, 0.4 rule, k-means "
              f"objective monotone and centers exact, {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()

    def run(argv) -> str:
        code = cli_main(argv)
        assert code == 0, argv
        return capsys.readouterr().out

    def tree(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(
        {"topology": "n_tier", "seed": 4, "length": 110, "tiers": 3}
    ))
    vulns = tmp_path / "vulns.json"
    vulns.write_text(json.dumps({"n_non_nvd": 1, "entries": [[5.0, 2.0]]}))
    ipc_rows = tmp_path / "ipc.json"
    ipc_rows.write_text(json.dumps({
        name: [1.0, 3.0, 2.0, 5.0] for name in
        ("RMC", "RCC", "CCC", "IPR", "CCL", "PLC")
    }))
    quality_rows = tmp_path / "quality.json"
    quality_rows.write_text(json.dumps({"exec_time": [2.0, 6.0, 4.0, 10.0]}))
    features = tmp_path / "features.json"
    features.write_text(json.dumps([[0, 0], [0.2, 0.1], [7, 7], [7.2, 6.9]]))

    snapshots = []
    for attempt in ("one", "two"):
        base = tmp_path / attempt
        sim = base / "sim"
        run(["simulate", "--scenario", str(scen), "--out", str(sim)])
        fp = base / "fp"
        run([
            "flowpaths", "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"), "--out", str(fp),
        ])
        sd = base / "tune"
        run([
            "tune", "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--budget", "100000", "--tc", "3", "--seed", "11",
            "--out", str(sd),
        ])
        outputs = {
            "sim": tree(sim),
            "fp": tree(fp),
            "tune": {
                k: v for k, v in tree(sd).items() if k != "run.json"
            },
            "query": run(["query", "--run", str(sd), "--method", "Main.run"]),
            "metrics": run(["metrics", "--run", str(sd)]),
            "quality": run([
                "quality", "--sloc", "500", "--endpoints", "2",
                "--ports", "1", "--files", "3", "--vulns", str(vulns),
            ]),
            "correlate": run([
                "correlate", "--ipc", str(ipc_rows),
                "--quality", str(quality_rows),
            ]),
            "classify": run(["classify", "--features", str(features)]),
        }
        snapshots.append(outputs)
    assert snapshots[0] == snapshots[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(10, f"all eight commands byte-identical across reruns, {elapsed:.1f}s")
