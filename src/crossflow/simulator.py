"""Deterministic multi-process execution simulator.

Generates synthetic program models for client-server, peer-to-peer, and
n-tier topologies, executes them with a discrete-event scheduler, and records

  * Lamport-stamped per-process traces (method, message, branch, and
    statement-coverage events),
  * ground-truth dynamic dependencies and statement-level source->sink flow
    paths, captured while executing (each statement records its real def-use
    and control effects), and
  * static dependence graphs at four sensitivity levels, all sound
    over-approximations of the ground truth.

Everything is a pure function of (scenario, seed); no wall clock, no real
sockets.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterable, Mapping, Optional

from .staticgraph import DepEdge, SourceSinkConfig, StaticDepGraph
from .trace import EventRecord, MethodId, TraceMap, stamp_lamport

TOPOLOGIES = ("client_server", "peer_to_peer", "n_tier")


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    topology: str
    seed: int
    length: int = 80
    tiers: Optional[int] = None  # n for n_tier; peer count for peer_to_peer

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ScenarioError(f"unknown topology {self.topology!r}")
        if self.topology == "n_tier":
            if self.tiers is None or self.tiers < 2:
                raise ScenarioError("n_tier requires tiers >= 2")
        if self.topology == "peer_to_peer" and self.tiers is not None:
            if self.tiers < 2:
                raise ScenarioError("peer_to_peer requires >= 2 peers")
        if self.length < 1:
            raise ScenarioError("length must be positive")


@dataclass(frozen=True)
class Stmt:
    stmt_id: str
    kind: str
    defs: tuple[str, ...] = ()
    uses: tuple[str, ...] = ()
    callee: Optional[MethodId] = None
    args: tuple[str, ...] = ()
    peer: Optional[str] = None
    field_name: Optional[str] = None
    guard: Optional[str] = None      # branch id guarding this stmt
    branch_id: Optional[str] = None  # set when kind == "branch"
    block_len: int = 0               # statements guarded by this branch


@dataclass(frozen=True)
class MethodBody:
    method: MethodId
    params: tuple[str, ...]
    stmts: tuple[Stmt, ...]
    ret_var: Optional[str] = None


@dataclass(frozen=True)
class ProgramModel:
    processes: tuple[str, ...]
    bodies: Mapping[MethodId, MethodBody]
    entries: Mapping[str, MethodId]
    sources: frozenset[str]
    sinks: frozenset[str]
    send_sites: frozenset[str]
    recv_sites: frozenset[str]

    def __post_init__(self) -> None:
        owners: dict[str, MethodId] = {}
        for body in self.bodies.values():
            for stmt in body.stmts:
                if stmt.stmt_id in owners:
                    raise ScenarioError(f"duplicate stmt id {stmt.stmt_id}")
                owners[stmt.stmt_id] = body.method
        for designated in (self.sources, self.sinks, self.send_sites, self.recv_sites):
            for stmt_id in designated:
                if stmt_id not in owners:
                    raise ScenarioError(f"designated stmt {stmt_id} not in any method")

    def default_cfg(self) -> SourceSinkConfig:
        return SourceSinkConfig(
            sources=frozenset(self.sources), sinks=frozenset(self.sinks)
        )


@dataclass(frozen=True)
class GroundTruth:
    dyn_dep: frozenset[tuple[MethodId, MethodId]]  # (m1, m2): m2 depends on m1
    dyn_paths: frozenset[tuple[str, ...]]


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------


class _MethodBuilder:
    def __init__(self, method: MethodId, params: tuple[str, ...] = ()):
        self.method = method
        self.params = params
        self.stmts: list[Stmt] = []
        self.ret_var: Optional[str] = None
        self._guard: Optional[str] = None

    def _sid(self) -> str:
        m = self.method
        return f"{m.process}.{m.class_name}.{m.method_name}.s{len(self.stmts)}"

    def add(self, kind: str, **kw) -> Stmt:
        stmt = Stmt(stmt_id=self._sid(), kind=kind, guard=self._guard, **kw)
        self.stmts.append(stmt)
        return stmt

    def source(self, var: str) -> Stmt:
        return self.add("source", defs=(var,))

    def sink(self, var: str) -> Stmt:
        return self.add("sink", uses=(var,))

    def assign(self, var: str, *uses: str) -> Stmt:
        return self.add("assign", defs=(var,), uses=tuple(uses))

    def field_set(self, name: str, var: str) -> Stmt:
        return self.add("field_set", field_name=name, uses=(var,))

    def field_get(self, var: str, name: str) -> Stmt:
        return self.add("field_get", field_name=name, defs=(var,))

    def call(self, callee: MethodId, args: tuple[str, ...] = (), result: str = "r") -> Stmt:
        return self.add("call", callee=callee, args=args, uses=args, defs=(result,))

    def send(self, var: str, peer: str) -> Stmt:
        return self.add("send", uses=(var,), peer=peer)

    def recv(self, var: str, peer: str) -> Stmt:
        return self.add("recv", defs=(var,), peer=peer)

    def branch_block(self, branch_id: str, n_stmts: int) -> None:
        """A branch guarding ``n_stmts`` untainted filler assigns."""
        self.add("branch", branch_id=branch_id, block_len=n_stmts)
        self._guard = branch_id
        for i in range(n_stmts):
            self.assign(f"b_{branch_id}_{i}")
        self._guard = None

    def ret(self, var: Optional[str]) -> None:
        self.ret_var = var

    def build(self) -> MethodBody:
        return MethodBody(self.method, self.params, tuple(self.stmts), self.ret_var)


class _ProgramBuilder:
    def __init__(self) -> None:
        self.methods: list[_MethodBuilder] = []
        self.entries: dict[str, MethodId] = {}

    def method(
        self, proc: str, cls: str, name: str, params: tuple[str, ...] = ()
    ) -> _MethodBuilder:
        mb = _MethodBuilder(MethodId(proc, cls, name), params)
        self.methods.append(mb)
        return mb

    def entry(self, proc: str, mb: _MethodBuilder) -> None:
        self.entries[proc] = mb.method

    def build(self) -> ProgramModel:
        bodies = {mb.method: mb.build() for mb in self.methods}
        sources, sinks, sends, recvs = set(), set(), set(), set()
        for body in bodies.values():
            for s in body.stmts:
                if s.kind == "source":
                    sources.add(s.stmt_id)
                elif s.kind == "sink":
                    sinks.add(s.stmt_id)
                elif s.kind == "send":
                    sends.add(s.stmt_id)
                elif s.kind == "recv":
                    recvs.add(s.stmt_id)
        return ProgramModel(
            processes=tuple(sorted(self.entries)),
            bodies=bodies,
            entries=dict(self.entries),
            sources=frozenset(sources),
            sinks=frozenset(sinks),
            send_sites=frozenset(sends),
            recv_sites=frozenset(recvs),
        )


def _filler(mb: _MethodBuilder, n: int) -> None:
    for _ in range(n):
        mb.assign(f"t{len(mb.stmts)}")


def _local_work(pb: _ProgramBuilder, proc: str, run: _MethodBuilder) -> None:
    """Shared helper called from two distinct methods, plus a twice-defined
    local, so the four sensitivity variants differ strictly."""
    log = pb.method(proc, "Util", "note")
    log.assign("line")
    log.ret(None)
    aux = pb.method(proc, "Util", "scratch")
    aux.assign("x")
    aux.assign("x", "x")  # second definition of x; use sees only the latest
    aux.assign("y", "x")
    aux.call(log.method, (), result="r_note")
    aux.ret(None)
    run.call(log.method, (), result="r_note2")
    run.call(aux.method, (), result="r_aux")


def generate_program(scenario: Scenario) -> ProgramModel:
    """Deterministic program model for the scenario; same seed, same model."""
    rng = random.Random(scenario.seed * 65537 + 11)
    pb = _ProgramBuilder()
    fill = max(0, min(3, scenario.length // 40))

    if scenario.topology == "client_server":
        _gen_client_server(pb, rng, fill, scenario)
    elif scenario.topology == "peer_to_peer":
        _gen_peer_to_peer(pb, rng, fill, scenario)
    else:
        _gen_n_tier(pb, rng, fill, scenario)
    return pb.build()


def _rounds(scenario: Scenario, per_round: int, base: int) -> int:
    return max(1, min(4, (scenario.length - base) // max(per_round, 1)))


def _gen_client_server(pb, rng, fill, scenario) -> None:
    client, server = "p0", "p1"
    rounds = _rounds(scenario, 24, 30)

    c_run = pb.method(client, "Main", "run")
    pb.entry(client, c_run)
    _local_work(pb, client, c_run)
    c_run.source("sv")
    c_run.assign("a0", "sv")
    prep = pb.method(client, "Work", "prep", params=("p0_arg",))
    prep.assign("pv", "p0_arg")
    prep.field_set("F0", "pv")
    _filler(prep, fill)
    if rng.random() < 0.7:
        prep.branch_block("b_prep", 1 + rng.randrange(2))
    prep.ret(None)
    c_run.call(prep.method, ("a0",), result="r_prep")
    ship = pb.method(client, "Work", "ship")
    ship.field_get("payload", "F0")
    ship.send("payload", server)
    ship.ret(None)
    for i in range(rounds):
        c_run.call(ship.method, (), result=f"r_ship{i}")
        c_run.recv(f"resp{i}", server)
    _filler(c_run, fill)

    s_run = pb.method(server, "Main", "run")
    pb.entry(server, s_run)
    consume = pb.method(server, "Srv", "consume", params=("req",))
    consume.assign("body", "req")
    consume.sink("body")
    consume.field_set("F1", "body")
    consume.ret(None)
    for i in range(rounds):
        s_run.recv(f"incoming{i}", client)
        s_run.call(consume.method, (f"incoming{i}",), result=f"r_cons{i}")
        s_run.assign(f"reply{i}")
        s_run.send(f"reply{i}", client)
    _filler(s_run, fill)
    if rng.random() < 0.5:
        s_run.branch_block("b_srv", 1)


def _gen_peer_to_peer(pb, rng, fill, scenario) -> None:
    k = scenario.tiers or (3 + scenario.seed % 2)
    procs = [f"p{i}" for i in range(k)]

    origin = pb.method(procs[0], "Main", "run")
    pb.entry(procs[0], origin)
    _local_work(pb, procs[0], origin)
    origin.source("sv")
    origin.assign("token", "sv")
    _filler(origin, fill)
    origin.send("token", procs[1])
    origin.recv("back", procs[-1])

    for i in range(1, k):
        me, left = procs[i], procs[i - 1]
        nxt = procs[(i + 1) % k]
        run = pb.method(me, "Main", "run")
        pb.entry(me, run)
        _filler(run, fill)
        if rng.random() < 0.5:
            run.branch_block(f"b_{me}", 1)
        run.recv("tok", left)
        if i == k - 1:
            run.sink("tok")
            run.send("tok", nxt)
        else:
            relay = pb.method(me, "Node", "pass_on", params=("t",))
            relay.send("t", nxt)
            relay.ret(None)
            run.call(relay.method, ("tok",), result="r_relay")


def _gen_n_tier(pb, rng, fill, scenario) -> None:
    n = scenario.tiers
    procs = [f"p{i}" for i in range(n)]
    rounds = _rounds(scenario, 12 * n, 8 * n)

    first = pb.method(procs[0], "Main", "run")
    pb.entry(procs[0], first)
    _local_work(pb, procs[0], first)
    first.source("sv")
    first.assign("req", "sv")
    _filler(first, fill)
    for r in range(rounds):
        first.send("req", procs[1])
        first.recv(f"resp{r}", procs[1])

    for i in range(1, n):
        me, left = procs[i], procs[i - 1]
        run = pb.method(me, "Main", "run")
        pb.entry(me, run)
        if i < n - 1:
            right = procs[i + 1]
            fwd = pb.method(me, "Tier", "forward", params=("x",))
            fwd.send("x", right)
            fwd.ret(None)
            for r in range(rounds):
                run.recv(f"in{r}", left)
                run.call(fwd.method, (f"in{r}",), result=f"r_fwd{r}")
                run.recv(f"ans{r}", right)
                run.assign(f"up{r}")
                run.send(f"up{r}", left)
        else:
            fin = pb.method(me, "Tier", "finish", params=("x",))
            fin.assign("data", "x")
            fin.sink("data")
            fin.ret(None)
            for r in range(rounds):
                run.recv(f"in{r}", left)
                run.call(fin.method, (f"in{r}",), result=f"r_fin{r}")
                run.assign(f"ok{r}")
                run.send(f"ok{r}", left)
        _filler(run, fill)
        if rng.random() < 0.4:
            run.branch_block(f"b_{me}", 1)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

_CHAIN_CAP = 24  # provenance chains longer than this indicate a generator bug


@dataclass
class _Frame:
    body: MethodBody
    pc: int = 0
    locals: dict = field(default_factory=dict)
    call_stmt: Optional[Stmt] = None  # statement in the caller awaiting return


class _ProcState:
    def __init__(self, proc: str, entry_body: MethodBody):
        self.proc = proc
        self.stack = [_Frame(entry_body)]
        self.fields: dict[str, frozenset] = {}
        self.field_writer: dict[str, MethodId] = {}
        self.events: list[EventRecord] = []
        self.seq = 0
        self.started = False
        self.waiting_on: Optional[tuple[str, str]] = None  # (me, sender)

    def emit(self, kind: str, method: MethodId, **kw) -> None:
        self.events.append(
            EventRecord(kind=kind, method=method, seq=self.seq, **kw)
        )
        self.seq += 1


def simulate(
    model: ProgramModel, scenario: Scenario
) -> tuple[TraceMap, GroundTruth]:
    """Execute the model deterministically and return stamped traces plus
    ground truth collected alongside the execution."""
    rng = random.Random(scenario.seed * 2654435761 + 97)
    states = {p: _ProcState(p, model.bodies[model.entries[p]]) for p in model.processes}
    mailboxes: dict[tuple[str, str], deque] = {}
    msg_counter = 0
    deps: set[tuple[MethodId, MethodId]] = set()
    paths: set[tuple[str, ...]] = set()

    def extend(chains: frozenset, stmt: Stmt) -> frozenset:
        out = set()
        for chain in chains:
            if len(chain) < _CHAIN_CAP:
                out.add(chain + (stmt.stmt_id,))
        return frozenset(out)

    def chains_of(frame: _Frame, names: Iterable[str]) -> frozenset:
        acc: set = set()
        for name in names:
            acc |= frame.locals.get(name, frozenset())
        return frozenset(acc)

    def add_dep(m1: MethodId, m2: MethodId) -> None:
        if m1 != m2:
            deps.add((m1, m2))

    def step(state: _ProcState) -> bool:
        """Execute one statement; False when the process blocks or finishes."""
        nonlocal msg_counter
        if not state.started:
            state.started = True
            state.emit("entry", state.stack[0].body.method)
        if not state.stack:
            return False
        frame = state.stack[-1]
        body = frame.body
        if frame.pc >= len(body.stmts):
            # method finished; return into the caller
            state.stack.pop()
            if state.stack:
                caller = state.stack[-1]
                call_stmt = frame.call_stmt
                ret_chains = frozenset()
                if body.ret_var is not None:
                    ret_chains = frame.locals.get(body.ret_var, frozenset())
                    add_dep(body.method, caller.body.method)
                caller.locals[call_stmt.defs[0]] = extend(ret_chains, call_stmt)
                state.emit("returned_into", caller.body.method)
            return bool(state.stack)
        stmt = body.stmts[frame.pc]
        method = body.method

        if stmt.kind == "branch":
            taken = rng.random() < 0.6
            state.emit("stmt_cover", method, stmt_id=stmt.stmt_id)
            if taken:
                state.emit("branch", method, branch_id=stmt.branch_id)
                frame.pc += 1
            else:
                frame.pc += 1 + stmt.block_len
            return True

        if stmt.kind == "recv":
            box = mailboxes.get((state.proc, stmt.peer))
            if not box:
                state.waiting_on = (state.proc, stmt.peer)
                return False
            state.waiting_on = None
            msg_id, msg_chains, sender_method = box.popleft()
            state.emit("stmt_cover", method, stmt_id=stmt.stmt_id)
            state.emit(
                "recv", method, msg_id=msg_id, peer=stmt.peer, stmt_id=stmt.stmt_id
            )
            frame.locals[stmt.defs[0]] = extend(msg_chains, stmt)
            add_dep(sender_method, method)
            frame.pc += 1
            return True

        state.emit("stmt_cover", method, stmt_id=stmt.stmt_id)

        if stmt.kind == "source":
            frame.locals[stmt.defs[0]] = frozenset({(stmt.stmt_id,)})
        elif stmt.kind == "assign":
            frame.locals[stmt.defs[0]] = extend(chains_of(frame, stmt.uses), stmt)
        elif stmt.kind == "field_set":
            state.fields[stmt.field_name] = extend(
                chains_of(frame, stmt.uses), stmt
            )
            state.field_writer[stmt.field_name] = method
        elif stmt.kind == "field_get":
            chains = state.fields.get(stmt.field_name, frozenset())
            frame.locals[stmt.defs[0]] = extend(chains, stmt)
            writer = state.field_writer.get(stmt.field_name)
            if writer is not None:
                add_dep(writer, method)
        elif stmt.kind == "sink":
            for chain in sorted(chains_of(frame, stmt.uses)):
                paths.add(chain + (stmt.stmt_id,))
        elif stmt.kind == "send":
            msg_id = f"m{msg_counter}"
            msg_counter += 1
            state.emit(
                "send", method, msg_id=msg_id, peer=stmt.peer, stmt_id=stmt.stmt_id
            )
            payload = extend(chains_of(frame, stmt.uses), stmt)
            mailboxes.setdefault((stmt.peer, state.proc), deque()).append(
                (msg_id, payload, method)
            )
        elif stmt.kind == "call":
            callee_body = model.bodies[stmt.callee]
            callee_frame = _Frame(callee_body, call_stmt=stmt)
            for pname, aname in zip(callee_body.params, stmt.args):
                callee_frame.locals[pname] = extend(
                    chains_of(frame, (aname,)), stmt
                )
            add_dep(method, stmt.callee)
            frame.pc += 1
            state.stack.append(callee_frame)
            state.emit("entry", stmt.callee)
            return True
        frame.pc += 1
        return True

    pending = set(model.processes)
    while pending:
        ran = False
        for proc in sorted(pending):
            state = states[proc]
            stepped = False
            while step(state):
                stepped = True
            if not state.stack:
                pending.discard(proc)
                ran = True
            elif stepped:
                ran = True
        if not ran and pending:
            blocked = {p: states[p].waiting_on for p in sorted(pending)}
            raise ScenarioError(f"simulation deadlock: {blocked}")

    raw = {p: states[p].events for p in model.processes}
    traces = stamp_lamport(raw)
    return traces, GroundTruth(frozenset(deps), frozenset(paths))


# ---------------------------------------------------------------------------
# Static graph emission
# ---------------------------------------------------------------------------


def all_graph_variants(model: ProgramModel) -> dict[tuple[bool, bool], StaticDepGraph]:
    """The static dependence graph at its four sensitivity levels, keyed by
    (context-sensitive, flow-sensitive).

    The levels form a lattice over one shared graph: nodes, guards, ICFG,
    message sites and the fully sensitive edges.  Dropping flow sensitivity
    adds the order-ignoring def-use edges (every def of a local reaches
    every use); dropping context sensitivity adds the merged-context edges
    (data entering a callee at one callsite may emerge at any other).  Each
    variant is the shared edges plus the extra sets of its dropped bits, so
    dropping a bit only adds edges, and all four are sound
    over-approximations of the runtime dependencies.
    """
    nodes: dict[str, MethodId] = {}
    guards: dict[str, Optional[str]] = {}
    icfg: dict[str, list[str]] = {}
    # callee -> (caller, call statement, its position in the caller's body)
    callsites: dict[MethodId, list[tuple[MethodId, Stmt, int]]] = {}
    field_defs: dict[tuple[str, str], list[tuple[MethodId, Stmt]]] = {}
    field_uses: dict[tuple[str, str], list[tuple[MethodId, Stmt]]] = {}
    edges: set[DepEdge] = set()       # in every variant
    flow_extra: set[DepEdge] = set()  # order-ignoring def-use edges
    ctx_extra: set[DepEdge] = set()   # merged calling contexts

    for body in model.bodies.values():
        _intra_edges(body, edges, flow_extra, icfg)
        proc = body.method.process
        for pos, stmt in enumerate(body.stmts):
            nodes[stmt.stmt_id] = body.method
            guards[stmt.stmt_id] = stmt.guard
            if stmt.kind == "call":
                callsites.setdefault(stmt.callee, []).append((body.method, stmt, pos))
            elif stmt.kind == "field_set":
                field_defs.setdefault((proc, stmt.field_name), []).append(
                    (body.method, stmt)
                )
            elif stmt.kind == "field_get":
                field_uses.setdefault((proc, stmt.field_name), []).append(
                    (body.method, stmt)
                )

    # field def-use associations: interprocedurally flow-insensitive
    for key, defs in field_defs.items():
        for d_method, d_stmt in defs:
            for u_method, u_stmt in field_uses.get(key, ()):
                if d_method == u_method:
                    edges.add(DepEdge("intra_data", d_stmt.stmt_id, u_stmt.stmt_id))
                else:
                    edges.add(
                        DepEdge("inter_posterior", d_stmt.stmt_id, u_stmt.stmt_id)
                    )

    # parameter and return-value passing, and interprocedural control flow
    # (callsite -> callee entry; callee end -> statement after the callsite).
    # A call's uses are its args, so the param users include the calls that
    # pass a param on.
    for callee, sites in callsites.items():
        body = model.bodies[callee]
        param_users = [
            s for s in body.stmts if set(s.uses) & set(body.params)
        ]
        ret_defs = [s for s in body.stmts if body.ret_var in s.defs]
        entry_stmt = body.stmts[0].stmt_id if body.stmts else None
        exit_stmt = body.stmts[-1].stmt_id if body.stmts else None
        for caller, call_stmt, idx in sites:
            if entry_stmt:
                # invocation itself: the callee's execution depends on the call
                edges.add(
                    DepEdge("inter_adjacent", call_stmt.stmt_id, entry_stmt)
                )
                icfg.setdefault(call_stmt.stmt_id, []).append(entry_stmt)
            for user in param_users:
                edges.add(
                    DepEdge("inter_adjacent", call_stmt.stmt_id, user.stmt_id)
                )
            for s in ret_defs:
                edges.add(
                    DepEdge("inter_adjacent", s.stmt_id, call_stmt.stmt_id)
                )
            caller_stmts = model.bodies[caller].stmts
            if exit_stmt and idx + 1 < len(caller_stmts):
                icfg.setdefault(exit_stmt, []).append(
                    caller_stmts[idx + 1].stmt_id
                )
        # merged contexts pair the call sites of different callers only
        by_caller: dict[MethodId, list[str]] = {}
        for caller, call_stmt, _ in sites:
            by_caller.setdefault(caller, []).append(call_stmt.stmt_id)
        for c1s, c2s in permutations(by_caller.values(), 2):
            ctx_extra.update(DepEdge("inter_posterior", c1, c2) for c1 in c1s for c2 in c2s)

    icfg_succ = {k: tuple(dict.fromkeys(v)) for k, v in icfg.items()}
    return {
        (ctx, flow): StaticDepGraph(
            nodes=nodes,
            edges=frozenset(
                edges.union(() if flow else flow_extra, () if ctx else ctx_extra)
            ),
            icfg_succ=icfg_succ,
            send_sites=model.send_sites,
            recv_sites=model.recv_sites,
            guards=guards,
        )
        for ctx in (True, False)
        for flow in (True, False)
    }


def _intra_edges(
    body: MethodBody,
    edges: set[DepEdge],
    flow_extra: set[DepEdge],
    icfg: dict[str, list[str]],
) -> None:
    """Add the body's control successors to ``icfg``, its control and
    reaching-definition edges to ``edges``, and its order-ignoring def-use
    edges to ``flow_extra``."""
    stmts = body.stmts
    # control-flow successors: linear, with branches able to skip their block
    for i, stmt in enumerate(stmts):
        if i + 1 < len(stmts):
            icfg.setdefault(stmt.stmt_id, []).append(stmts[i + 1].stmt_id)
        if stmt.kind == "branch":
            after = i + 1 + stmt.block_len
            if after < len(stmts):
                icfg.setdefault(stmt.stmt_id, []).append(stmts[after].stmt_id)
            for guarded in stmts[i + 1 : i + 1 + stmt.block_len]:
                edges.add(DepEdge("intra_control", stmt.stmt_id, guarded.stmt_id))

    all_defs: dict[str, list[Stmt]] = {}
    all_uses: dict[str, list[Stmt]] = {}
    for stmt in stmts:
        for var in stmt.uses:
            all_uses.setdefault(var, []).append(stmt)
            # reaching definitions: the latest unconditional def kills earlier
            # ones; guarded defs reach alongside the def they may override
            for d in reversed(all_defs.get(var, ())):
                edges.add(DepEdge("intra_data", d.stmt_id, stmt.stmt_id))
                if d.guard is None:
                    break
        for var in stmt.defs:
            all_defs.setdefault(var, []).append(stmt)
    # order-ignoring: every def of a variable reaches every use
    for var, defs in all_defs.items():
        for d in defs:
            for u in all_uses.get(var, ()):
                if d.stmt_id != u.stmt_id:
                    flow_extra.add(DepEdge("intra_data", d.stmt_id, u.stmt_id))
