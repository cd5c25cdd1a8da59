"""Self-tuning online dependence analysis.

Each process is analyzed independently: a monitor accumulates signed method
events (negative = entry, positive = returned-into) and, when both the event
count and elapsed-time thresholds pass, runs one round of dependence
computation under the current configuration, cancelling any phase that
exceeds its sub-budget.  A controller (Q-learning by default, or pinned for
the fixed-configuration baseline) picks the next configuration from the
observed round cost.  Interprocess dependencies are derived at query time by
merging the per-process results along the happens-before relation and basic
message-passing semantics.  The facts of that relation which the merge reads
(each method's span, the first recv of every other process that its first
entry happens before, and the message count of each process pair) are
computed once from the traces, when the run is tuned (:func:`run_facts`), so
a query and the coupling metrics merge without the traces.

Time is logical by default: a deterministic cost model maps (configuration,
graph size, event count) to a cost, and the arbiter clock advances by event
ticks and analysis costs.  A wallclock mode exists for demos.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .config import Configuration, MOST_PRECISE
from .metrics import DepData
from .qlearn import LearnerParams, QTable, reward, select_action, update
from .staticgraph import INTER_KINDS, StaticDepGraph, reachable
from .trace import (
    NAMES, EventGraph, MethodId, ProcessTrace, first_entries, is_number, is_object,
    method_spans, optional, reached_methods, read_json,
)

# shares of a total budget: graph construction, loading, dependence computation
BUDGET_FRACTIONS = (0.7, 0.2, 0.1)


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class Budget:
    """Total analysis budget with per-phase sub-budgets (construction,
    loading, dependence computation)."""

    total: float
    construct: float
    load: float
    compute: float

    def __post_init__(self) -> None:
        parts = (self.total, self.construct, self.load, self.compute)
        if not all(map(math.isfinite, parts)):
            raise EngineError("budget components must be finite")
        if min(parts) <= 0:
            raise EngineError("budget components must be positive")
        if self.construct + self.load + self.compute > self.total + 1e-9:
            raise EngineError("sub-budgets exceed the total budget")

    @classmethod
    def from_total(cls, total: float) -> "Budget":
        c, l, d = BUDGET_FRACTIONS
        return cls(total, total * c, total * l, total * d)


@dataclass
class CostModel:
    """Deterministic synthetic cost model; wallclock mode measures instead."""

    mode: str = "synthetic"
    construct_base: float = 4.0
    construct_per_edge: float = 0.05
    load_base: float = 1.0
    load_per_edge: float = 0.01
    compute_base: float = 1.0
    compute_per_event: float = 0.02
    instance_factor: float = 2.0
    graph_factor: float = 1.5
    coverage_factor: float = 1.2
    context_factor: float = 1.5
    flow_factor: float = 1.3
    event_tick: float = 1.0

    def construct_cost(self, config: Configuration, n_edges: int) -> float:
        scale = 1.0
        if config.context_sensitivity:
            scale *= self.context_factor
        if config.flow_sensitivity:
            scale *= self.flow_factor
        return self.construct_base + self.construct_per_edge * n_edges * scale

    def load_cost(self, config: Configuration, n_edges: int) -> float:
        return self.load_base + self.load_per_edge * n_edges

    def compute_cost(self, config: Configuration, n_events: int) -> float:
        scale = 1.0
        if config.method_instance_level:
            scale *= self.instance_factor
        if config.static_graph:
            scale *= self.graph_factor
        if config.statement_coverage:
            scale *= self.coverage_factor
        return self.compute_base + self.compute_per_event * n_events * scale

    @classmethod
    def from_file(cls, path: Path) -> "CostModel":
        """The model in a JSON object of field values, of the shape
        :data:`COST_MODEL`, else ``ValueError`` naming the file."""
        return cls(**read_json(path, COST_MODEL, ValueError))


# a cost-model file: absent fields keep their defaults
COST_MODEL = (
    (None, is_object, "cost model must be a JSON object"),
    (NAMES, {f.name for f in fields(CostModel)}.__contains__,
     "unknown cost-model field {key!r}"),
    ("mode", optional(("synthetic", "wallclock").__contains__),
     "cost-model field 'mode' must be 'synthetic' or 'wallclock'"),
    *((f.name, optional(is_number), f"cost-model field {f.name!r} must be a finite number")
      for f in fields(CostModel) if f.name != "mode"),
)


class MethodTable:
    """Stable integer ids for methods; the event queue stores signed ids."""

    def __init__(self) -> None:
        self._by_id: dict[int, MethodId] = {}
        self._by_method: dict[MethodId, int] = {}

    def id_of(self, method: MethodId) -> int:
        if method not in self._by_method:
            next_id = len(self._by_method) + 1
            self._by_method[method] = next_id
            self._by_id[next_id] = method
        return self._by_method[method]

    def method_of(self, mid: int) -> MethodId:
        return self._by_id[abs(mid)]

    @classmethod
    def from_traces(cls, traces: Mapping[str, ProcessTrace]) -> "MethodTable":
        table = cls()
        for proc in sorted(traces):
            for ev in traces[proc].events:
                table.id_of(ev.method)
        return table


def method_event_stream(trace: ProcessTrace, table: MethodTable) -> list[int]:
    out = []
    for ev in trace.events:
        if ev.kind == "entry":
            out.append(-table.id_of(ev.method))
        elif ev.kind == "returned_into":
            out.append(table.id_of(ev.method))
    return out


def _queue_positions(qu: list[int]) -> tuple[dict[int, int], dict[int, int]]:
    """Per method id: queue position of its first entry (entered methods
    only) and of its last event."""
    first_entry: dict[int, int] = {}
    last_any: dict[int, int] = {}
    for pos, e in enumerate(qu):
        if e < 0:
            e = -e
            if e not in first_entry:
                first_entry[e] = pos
        last_any[e] = pos
    return first_entry, last_any


def lift_method_edges(
    graph: StaticDepGraph, coverage: Optional[set[str]], table: MethodTable
) -> dict[int, list[tuple[int, str]]]:
    """The interprocedural edges of ``graph`` lifted to methods, as in-edge
    lists over ``table`` ids: target -> sorted distinct (source, kind), kind
    ``adjacent`` for parameter or return-value passing, else ``posterior``.

    With ``coverage`` given, only stmt edges whose endpoints are both
    covered witness a method edge (statement-coverage pruning).
    """
    lifted = {
        (graph.nodes[e.src], graph.nodes[e.dst], e.kind)
        for e in graph.edges
        if e.kind in INTER_KINDS and (coverage is None or e.src in coverage and e.dst in coverage)
    }
    in_edges: dict[int, list[tuple[int, str]]] = {}
    for i1, i2, kind in sorted((table.id_of(m1), table.id_of(m2), k) for m1, m2, k in lifted):
        in_edges.setdefault(i2, []).append((i1, kind.removeprefix("inter_")))
    return in_edges


def compute_deps(
    qu: list[int],
    config: Configuration,
    in_edges: Mapping[int, list[tuple[int, str]]],
    table: MethodTable,
) -> dict[MethodId, frozenset[MethodId]]:
    """One round of intraprocess dependence computation.

    ``in_edges`` is the static graph of the configuration's variant and
    coverage bit as ``lift_method_edges`` returns it; only its edges between
    methods executed in ``qu`` count, and without the static-graph bit it
    is not read.

    Semantics by configuration bits: without instance-level granularity the
    queue collapses to first/last instances, read off its one positions
    pass; statement coverage prunes the static graph before use; method
    events gate the static edges temporally (adjacent edges need immediate
    succession, known only at instance level); without the static graph the
    fallback adds every method still running at or after the queried
    method's entry; without method events the static edges propagate
    ungated.
    """
    config.require_valid()
    first_entry, last_any = _queue_positions(qu)
    executed = last_any.keys()
    ds: dict[int, set[int]] = {m: {m} for m in executed}

    if not config.static_graph:
        for m, anchor in first_entry.items():
            ds[m].update(m2 for m2, last in last_any.items() if last > anchor)
    elif config.method_event and config.method_instance_level:
        # a source never executed never enters, so influence skips its edges
        _propagate_influence(qu, in_edges, ds)
    else:
        out_edges: dict[int, set[int]] = {}
        for m2 in executed:
            for m1, _ in in_edges.get(m2, ()):
                if m1 in executed:
                    out_edges.setdefault(m1, set()).add(m2)
        if config.method_event:
            _propagate_intervals(first_entry, last_any, out_edges, ds)
        else:
            for m in executed:
                ds[m] |= reachable(out_edges, (m,)) & executed

    return {
        table.method_of(m): frozenset(table.method_of(x) for x in members)
        for m, members in ds.items()
    }


def _propagate_influence(
    events: list[int],
    in_edges: Mapping[int, list[tuple[int, str]]],
    ds: dict[int, set[int]],
) -> None:
    """Instance-level temporal propagation of impacts along activated edges.

    Influence leaves a method only once it has entered, and hops to the next
    method at that method's own later event; adjacent edges additionally need
    the two methods' events to be immediately consecutive.  This keeps every
    graph-gated set inside the event-order fallback set.
    """
    influence: dict[int, set[int]] = {}
    entered: set[int] = set()
    prev: Optional[int] = None
    for e in events:
        m = abs(e)
        if e < 0:
            influence.setdefault(m, set()).add(m)
            entered.add(m)
        for m1, kind in in_edges.get(m, ()):
            if m1 not in entered:
                continue
            if kind == "adjacent" and prev != m1:
                continue
            influence.setdefault(m, set()).update(influence.get(m1, ()))
        prev = m
    for m2, sources in influence.items():
        for m1 in sources:
            ds[m1].add(m2)


def _propagate_intervals(
    first_entry: Mapping[int, int],
    last_any: Mapping[int, int],
    out_edges: Mapping[int, set[int]],
    ds: dict[int, set[int]],
) -> None:
    """First/last-instance propagation over method activity intervals.

    With intermediate instances gone, a dependence chain is feasible when the
    impact can arrive inside every hop's activity window: the earliest
    arrival at a method is the max of the previous arrival and its first
    entry (its last event if it never entered), and must not exceed its
    last event.  Adjacency cannot be established at this granularity, so
    adjacent edges behave like posterior ones.  Every instance-level chain
    stays feasible here, and every member still satisfies the event-order
    fallback relation.
    """
    for root, start in first_entry.items():
        arrival = {root: start}
        frontier = [root]
        while frontier:
            cur = frontier.pop()
            for nxt in sorted(out_edges.get(cur, ())):
                last = last_any[nxt]
                cand = max(arrival[cur], first_entry.get(nxt, last))
                if cand > last:
                    continue
                if nxt not in arrival or cand < arrival[nxt]:
                    arrival[nxt] = cand
                    frontier.append(nxt)
        ds[root].update(arrival)


@dataclass
class ArbiterState:
    event_threshold: int
    time_threshold: float
    config: Configuration = MOST_PRECISE
    event_count: int = 0
    last_round_at: float = 0.0
    time: float = 0.0
    queue: list[int] = field(default_factory=list)
    built_static: set[tuple[bool, bool, bool]] = field(default_factory=set)
    # static bits plus the coverage bit -> lift_method_edges of that graph
    lifted: dict[tuple[bool, ...], dict[int, list[tuple[int, str]]]] = field(default_factory=dict)


@dataclass(frozen=True)
class RoundRecord:
    index: int
    config: Configuration
    cost: float
    budget: float
    timed_out: bool
    deps: Optional[dict[MethodId, frozenset[MethodId]]]

    def log_line(self) -> str:
        return (
            f"round {self.index} {self.config.encode()} "
            f"{self.cost:.10g} {self.budget:.10g} "
            f"{'timeout' if self.timed_out else 'ok'}"
        )


Controller = Callable[[Configuration, float], Configuration]


class PinnedController:
    """Fixed-configuration baseline: never adapts."""

    def __init__(self, config: Configuration):
        self.config = config.require_valid()

    def __call__(self, current: Configuration, cost: float) -> Configuration:
        return self.config


class QLearnController:
    """Adjusts the configuration from round costs via tabular Q-learning."""

    def __init__(
        self,
        budget_total: float,
        params: LearnerParams = LearnerParams(),
        seed: int = 0,
        next_state_max: bool = False,
    ):
        self.budget_total = budget_total
        self.params = params
        self.rng = random.Random(seed)
        self.table = QTable()
        self.next_state_max = next_state_max
        self._prev: Optional[tuple[Configuration, Configuration]] = None

    def __call__(self, current: Configuration, cost: float) -> Configuration:
        state, action = self._prev if self._prev else (current, current)
        r = reward(self.budget_total, cost)
        update(
            self.table, state, action, r, self.params,
            next_state_max=self.next_state_max,
        )
        chosen = select_action(self.table, current, self.params, self.rng)
        self._prev = (current, chosen)
        return chosen


def arbitrate(
    events: Iterable[int],
    state: ArbiterState,
    budget: Budget,
    costs: CostModel,
    controller: Controller,
    graphs: Mapping[tuple[bool, bool], StaticDepGraph],
    coverage: Optional[set[str]],
    table: MethodTable,
    flush: bool = False,
) -> list[RoundRecord]:
    """Feed method events through the monitor loop, producing analysis rounds.

    A round triggers on a returned-into event once more than
    ``event_threshold`` events accumulated and more than ``time_threshold``
    time units passed since the last round.  ``flush`` forces one final round
    after the stream ends.
    """
    rounds: list[RoundRecord] = []
    for e in events:
        state.time += costs.event_tick
        state.queue.append(e)
        state.event_count += 1
        if (
            e > 0
            and state.event_count > state.event_threshold
            and (state.time - state.last_round_at) > state.time_threshold
        ):
            rounds.append(
                _run_round(state, budget, costs, controller, graphs, coverage, table, len(rounds))
            )
    if flush and state.event_count:
        rounds.append(
            _run_round(state, budget, costs, controller, graphs, coverage, table, len(rounds))
        )
    return rounds


def _run_round(
    state: ArbiterState,
    budget: Budget,
    costs: CostModel,
    controller: Controller,
    graphs: Mapping[tuple[bool, bool], StaticDepGraph],
    coverage: Optional[set[str]],
    table: MethodTable,
    index: int,
) -> RoundRecord:
    config = state.config
    timed_out = False
    cost = 0.0
    deps: Optional[dict[MethodId, frozenset[MethodId]]] = None
    wall_start = time.perf_counter() if costs.mode == "wallclock" else None

    variant = (config.context_sensitivity, config.flow_sensitivity)
    graph = graphs.get(variant) if config.static_graph else None
    if config.static_graph:
        n_edges = 0 if graph is None else len(graph.edges)
        if config.static_bits not in state.built_static:
            # graph missing: static parameters changed, or the previous
            # construction under these parameters was cancelled
            c = costs.construct_cost(config, n_edges)
            cost += c
            if c > budget.construct:
                timed_out = True  # construction cancelled
            else:
                state.built_static.add(config.static_bits)
        if not timed_out:
            l = costs.load_cost(config, n_edges)
            cost += l
            if l > budget.load:
                timed_out = True  # loading cancelled

    if not timed_out:
        d = costs.compute_cost(config, len(state.queue))
        cost += d
        if d > budget.compute:
            timed_out = True  # computation cancelled, no partial results
        else:
            key = (*config.static_bits, config.statement_coverage)
            if config.static_graph and key not in state.lifted:
                if graph is None:
                    raise EngineError(f"no static graph variant for sensitivities {variant}")
                cov = coverage if config.statement_coverage else None
                state.lifted[key] = lift_method_edges(graph, cov, table)
            deps = compute_deps(state.queue, config, state.lifted.get(key, {}), table)

    if costs.mode == "wallclock":
        cost = time.perf_counter() - wall_start

    state.time += cost
    state.event_count = 0
    state.last_round_at = state.time
    chosen = controller(config, cost).require_valid()
    state.config = chosen
    return RoundRecord(index, config, cost, budget.total, timed_out, deps)


def render_round_log(rounds: Iterable[RoundRecord]) -> str:
    lines = [r.log_line() for r in rounds]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Interprocess query merging
# ---------------------------------------------------------------------------


class RunFacts(NamedTuple):
    """The facts of a run's traces that ``query`` and ``metrics`` read,
    computed once by :func:`run_facts` when ``tune`` has the traces.

    ``spans`` maps each executed method to its (fe, lr), the timestamps of
    its first entry and of its last method or message event
    (:func:`method_spans`); ``reach`` maps it to the ts of the first recv of
    each other process that its first entry happens before; ``messages``
    counts the messages of each (sender, receiver) process pair."""

    spans: dict[MethodId, tuple[int, int]]
    reach: dict[MethodId, dict[str, int]]
    messages: dict[tuple[str, str], int]


def run_facts(traces: Mapping[str, ProcessTrace]) -> RunFacts:
    """The :class:`RunFacts` of stamped ``traces``: the spans, one
    :meth:`EventGraph.first_reached_ts` per executed method's first entry,
    and the graph's message counts (see :class:`EventGraph`)."""
    entries = first_entries(traces)
    graph = EventGraph(traces)
    reach = {m: graph.first_reached_ts(ev) for m, ev in entries.items()}
    return RunFacts(method_spans(traces, entries), reach, graph.messages)


def merge_query(
    query: MethodId | tuple[str, str],
    per_process: Mapping[str, Mapping[MethodId, frozenset[MethodId]]],
    facts: RunFacts,
) -> frozenset[MethodId]:
    """Merge per-process dependence sets for a query into the final set.

    The query names code (class, method); the process where it first entered
    anchors the merge.  Another process's results join wholesale when it also
    ran the query; independently, each of its methods whose last event
    postdates the query's first entry joins, provided some message sent by
    the anchor process after that entry reached the process in time (the
    message branch applies even when the query also ran remotely, else
    message-induced dependents of shared code would be dropped).
    """
    key = query.code_key if isinstance(query, MethodId) else tuple(query)
    spans = facts.spans
    instances = {m: span for m, span in spans.items() if m.code_key == key}
    if not instances:
        return frozenset()

    anchor = min(instances, key=lambda m: (instances[m][0], m.process))
    members: set[MethodId] = set()
    for m in instances.keys() | reached_methods(spans, facts.reach[anchor]):
        local = per_process.get(m.process, {})
        members |= local.get(m, frozenset()) | {m}
    return frozenset(members)


def dep_data_from_run(
    facts: RunFacts,
    per_process: Mapping[str, Mapping[MethodId, frozenset[MethodId]]],
):
    """Assemble coupling-metric inputs from per-process dependence results.

    Local dependents of a method are its intraprocess impact set (minus
    itself); remote dependents are the methods of other processes that a
    message chain from the method's first entry reached by their last event
    (which therefore postdates that entry).  Message counts are those of
    ``facts``.
    """
    spans = facts.spans
    local_ds = {}
    remote_ds = {}
    for m in sorted(spans):
        intra = per_process.get(m.process, {}).get(m, frozenset())
        local_ds[m] = frozenset(x for x in intra if x != m)
        remote_ds[m] = frozenset(reached_methods(spans, facts.reach[m]))
    return DepData(
        local_ds=local_ds,
        remote_ds=remote_ds,
        executed=frozenset(spans),
        messages=facts.messages,
    )
