"""IPC metric fixtures (hand-computed) and quality measures."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflow.engine import dep_data_from_run, run_facts
from crossflow.methodpaths import method_ds
from crossflow.metrics import (
    DepData,
    MetricsError,
    attack_surface,
    ipc_metrics,
    path_stats,
    render_ipc_report,
    vulnerableness,
)
from crossflow.simulator import Scenario, generate_program, simulate
from crossflow.trace import MethodId, influenced_recv_ts, method_spans

from oracles import reference_ipc_metrics
from test_acceptance import scenario_for


def m(proc, cls, name):
    return MethodId(proc, cls, name)


def hand_fixture() -> DepData:
    """3 processes, 2 classes each, 2 methods per class; dependents chosen so
    every metric exercises a non-trivial value.  All six system-level values
    are hand-computed in the tests below."""
    a1, a2 = m("pA", "K1", "f"), m("pA", "K1", "g")
    a3, a4 = m("pA", "K2", "h"), m("pA", "K2", "i")
    b1, b2 = m("pB", "K1", "f"), m("pB", "K1", "g")  # same code as pA.K1
    b3, b4 = m("pB", "K3", "j"), m("pB", "K3", "k")
    c1, c2 = m("pC", "K4", "l"), m("pC", "K4", "m")
    c3, c4 = m("pC", "K5", "n"), m("pC", "K5", "o")
    executed = frozenset({a1, a2, a3, a4, b1, b2, b3, b4, c1, c2, c3, c4})
    local = {
        a1: frozenset({a2, a3}),
        a2: frozenset({a3}),
        a4: frozenset({a1}),
        b1: frozenset({b3}),
        b3: frozenset({b4}),
        c1: frozenset({c2}),
    }
    remote = {
        a1: frozenset({b1, b3, c1}),
        a2: frozenset({b2}),
        a4: frozenset({b1}),
        b1: frozenset({c1}),
        b3: frozenset({c3}),
    }
    messages = {("pA", "pB"): 3, ("pB", "pC"): 2, ("pA", "pC"): 1}
    return DepData(local, remote, executed, messages)


class TestHandFixture:
    def test_all_six_values(self):
        report = ipc_metrics(hand_fixture())
        assert report.rmc == pytest.approx(2.0, abs=1e-10)
        assert report.rcc == pytest.approx(5.0 / 14.0, abs=1e-10)
        assert report.ccc == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert report.ipr == pytest.approx(1.0 / 144.0, abs=1e-10)
        assert report.ccl == pytest.approx(7.0 / 12.0, abs=1e-10)
        assert report.plc == pytest.approx(7.0 / 12.0, abs=1e-10)

    def test_process_level_breakdowns(self):
        report = ipc_metrics(hand_fixture())
        assert report.process_rmc == {
            ("pA", "pB"): 3.0, ("pB", "pC"): 2.0, ("pA", "pC"): 1.0
        }
        assert report.process_plc["pA"] == pytest.approx(1.0)
        assert report.process_plc["pB"] == pytest.approx(0.5)
        assert report.process_plc["pC"] == pytest.approx(0.25)
        assert report.process_rcc["pA"] == pytest.approx(4.0 / 7.0)
        assert report.process_rcc["pC"] == 0.0

    def test_class_level_breakdowns(self):
        report = ipc_metrics(hand_fixture())
        assert report.class_ccl[("pA", "K1")] == pytest.approx(2.0)
        assert report.class_ccc[("pA", "K1")] == pytest.approx(1.0)
        assert report.class_ccc[("pC", "K4")] == 0.0

    def test_table_rcc_variant_differs(self):
        default = ipc_metrics(hand_fixture())
        table = ipc_metrics(hand_fixture(), table_rcc=True)
        # the variants disagree at class level even where system means tie
        assert default.class_ccc[("pA", "K1")] == pytest.approx(1.0)
        assert table.class_ccc[("pA", "K1")] == pytest.approx(3.0)


class TestMetricProperties:
    def test_no_messages_single_process(self):
        x1, x2 = m("p", "K", "a"), m("p", "K", "b")
        dep = DepData(
            {x1: frozenset({x2})}, {}, frozenset({x1, x2}), {}
        )
        report = ipc_metrics(dep)
        assert report.rmc == report.rcc == report.ccc == report.ccl == 0.0
        assert report.ipr == 0.0
        assert report.plc > 0.0

    def test_empty_execution_warns(self):
        report = ipc_metrics(DepData({}, {}, frozenset(), {}))
        assert report.empty_execution
        assert report.system_row() == (0, 0, 0, 0, 0, 0)

    def test_message_doubling_doubles_rmc(self):
        base = hand_fixture()
        doubled = DepData(
            base.local_ds, base.remote_ds, base.executed,
            {k: 2 * v for k, v in base.messages.items()},
        )
        r1, r2 = ipc_metrics(base), ipc_metrics(doubled)
        assert r2.rmc == pytest.approx(2 * r1.rmc)
        for pair in r1.process_rmc:
            assert r2.process_rmc[pair] == 2 * r1.process_rmc[pair]

    def test_system_values_are_means_of_levels(self):
        rng = random.Random(1)
        for _ in range(10):
            dep = random_dep_data(rng)
            rep = ipc_metrics(dep)
            for value in rep.system_row():
                assert value >= 0.0 and value == value  # finite, non-negative
            assert 0.0 <= rep.ipr <= 1.0
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
            assert rep.ipr == pytest.approx(
                sum(rep.method_ipr.values()) / len(dep.executed)
            )

    def test_validation_rejects_cross_process_local(self):
        x1 = m("p", "K", "a")
        y1 = m("q", "K", "b")
        with pytest.raises(MetricsError):
            DepData({x1: frozenset({y1})}, {}, frozenset({x1, y1}), {})


def random_dep_data(rng: random.Random) -> DepData:
    procs = ["p0", "p1", "p2"][: rng.randint(2, 3)]
    methods = []
    for proc in procs:
        for cls in ("C0", "C1"):
            for name in ("m0", "m1"):
                methods.append(m(proc, cls, name))
    executed = frozenset(methods)
    local, remote = {}, {}
    for x in methods:
        same = [y for y in methods if y.process == x.process and y != x]
        other = [y for y in methods if y.process != x.process]
        local[x] = frozenset(rng.sample(same, rng.randint(0, len(same))))
        remote[x] = frozenset(rng.sample(other, rng.randint(0, 3)))
    messages = {}
    for a in procs:
        for b in procs:
            if a != b and rng.random() < 0.6:
                messages[(a, b)] = rng.randint(1, 5)
    return DepData(local, remote, executed, messages)


@st.composite
def dep_data(draw) -> DepData:
    """Up to four processes of up to three classes of up to three methods;
    class names repeat across processes, so code keys are shared.  Any
    dependent set may be empty or absent, and with ``quiet`` class p0.C0
    has no remote dependents at all."""
    methods = [
        m(f"p{p}", f"C{c}", f"m{k}")
        for p in range(draw(st.integers(1, 4)))
        for c in range(draw(st.integers(1, 3)))
        for k in range(draw(st.integers(1, 3)))
    ]
    quiet = draw(st.booleans())

    def subset(pool):
        return frozenset(draw(st.sets(st.sampled_from(pool)))) if pool else frozenset()

    local, remote = {}, {}
    for x in methods:
        same = [y for y in methods if y.process == x.process and y != x]
        other = [y for y in methods if y.process != x.process]
        local[x] = subset(same)
        if not (quiet and (x.process, x.class_name) == ("p0", "C0")):
            remote[x] = subset(other)
    procs = sorted({x.process for x in methods})
    messages = draw(st.dictionaries(
        st.tuples(st.sampled_from(procs), st.sampled_from(procs)), st.integers(0, 5)
    ))
    return DepData(local, remote, frozenset(methods), messages)


def simulated_dep_data(sc: Scenario) -> DepData:
    """``dep_data_from_run`` over a simulated run, each method's local
    dependents being its forward impact set within its own process."""
    traces = simulate(generate_program(sc), sc)[0]
    spans, influenced = method_spans(traces), influenced_recv_ts(traces)
    per_process: dict = {}
    for q in spans:
        per_process.setdefault(q.process, {})[q] = frozenset(
            x for x in method_ds(q, spans, influenced) if x.process == q.process
        )
    return dep_data_from_run(run_facts(traces), per_process)


def assert_reports_equal(dep: DepData) -> None:
    """Every field of ``ipc_metrics`` equals the pairwise reference exactly,
    in both class-coupling variants."""
    for table_rcc in (False, True):
        got = ipc_metrics(dep, table_rcc=table_rcc)
        want = reference_ipc_metrics(dep, table_rcc=table_rcc)
        for field in dataclasses.fields(got):
            name = field.name
            assert getattr(got, name) == getattr(want, name), (table_rcc, name)


class TestAgainstPairwiseReference:
    @given(dep_data())
    @settings(max_examples=200, deadline=None)
    def test_generated_dep_data(self, dep):
        assert_reports_equal(dep)

    def test_hand_fixture(self):
        assert_reports_equal(hand_fixture())

    @pytest.mark.parametrize("seed", range(10))
    def test_acceptance_mix(self, seed):
        assert_reports_equal(simulated_dep_data(scenario_for(seed)))

    def test_ring_of_twelve_peers(self):
        sc = Scenario("peer_to_peer", seed=1, length=1000, tiers=12)
        dep = simulated_dep_data(sc)
        assert len({(x.process, x.class_name) for x in dep.executed}) > 12
        assert_reports_equal(dep)


class TestAttackSurface:
    def test_origin_is_zero(self):
        assert attack_surface(0, 0, 0, 123.0) == 0.0

    def test_pythagorean(self):
        assert attack_surface(3, 4, 0, 1.0) == pytest.approx(5.0)

    def test_normalized(self):
        assert attack_surface(2, 3, 6, 1000.0) == pytest.approx(0.007)

    def test_bad_sloc(self):
        with pytest.raises(MetricsError):
            attack_surface(1, 1, 1, 0.0)


class TestVulnerableness:
    def test_empty(self):
        assert vulnerableness(0, []) == 0.0

    def test_counts_only(self):
        assert vulnerableness(2, []) == 2.0

    def test_printed_formula(self):
        assert vulnerableness(0, [(5.0, 10.0)]) == pytest.approx(499.5)

    def test_corrected_formula(self):
        assert vulnerableness(0, [(5.0, 10.0)], corrected=True) == pytest.approx(4.5)

    def test_negative_rejected(self):
        with pytest.raises(MetricsError):
            vulnerableness(0, [(-1.0, 0.0)])


class TestPathStats:
    def test_empty(self):
        assert path_stats([], 2.0) == (0.0, 0.0)

    def test_three_paths(self):
        assert path_stats([2, 2, 5], 1.0) == (3.0, 3.0)

    def test_ksloc_scaling(self):
        c1, l1 = path_stats([2, 2, 5], 1.0)
        c10, l10 = path_stats([2, 2, 5], 10.0)
        assert c10 == pytest.approx(c1 / 10)
        assert l10 == pytest.approx(l1 / 10)

    def test_bad_ksloc(self):
        with pytest.raises(MetricsError):
            path_stats([1], 0.0)


def test_report_rendering_mentions_all_metrics():
    text = render_ipc_report(ipc_metrics(hand_fixture()))
    for name in ("RMC", "RCC", "CCC", "IPR", "CCL", "PLC"):
        assert name in text
