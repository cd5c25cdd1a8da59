"""Command-line front end.

Subcommands wire the simulator, the flow-path analyses, the self-tuning
dependence engine, and the metrics into reproducible batch workflows.  All
randomness flows from explicit seeds; outputs are byte-identical across
reruns of the same invocation.

Exit codes: 0 success (possibly empty results), 2 usage (a missing input
file, an input or output path that cannot be opened as the command needs,
and a write the system refuses, such as on a full disk, included; the
message names the file), 3 data or format error, 4 invalid analysis
configuration.  Every output file is written through ``trace.write_output``,
which takes a whole text or, for a long report, its pieces and rewrites the
file in place; every input is read through ``trace.read_text``.

``main`` parses a command's words with that command's parser alone
(``command_parser``); the parser of every command (``build_parser``) is
built only for the top-level help and the errors printed under its usage
line.  ``simulate``, ``flowpaths`` and ``tune`` need an ``--out``
directory, which a non-empty ``CROSSFLOW_OUT`` environment variable can
supply.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path
from typing import Iterator

OUT_DIR_ENV = "CROSSFLOW_OUT"

from .config import MOST_PRECISE, Configuration, InvalidConfigError
from .engine import (
    ArbiterState,
    Budget,
    CostModel,
    EngineError,
    MethodTable,
    PinnedController,
    QLearnController,
    RunFacts,
    arbitrate,
    dep_data_from_run,
    merge_query,
    method_event_stream,
    render_round_log,
    run_facts,
)
from .metrics import (
    IPC_METRICS,
    QUALITY_METRICS,
    DepData,
    MetricsError,
    attack_surface,
    ipc_metrics,
    path_stats,
    render_correlation_matrix,
    render_ipc_report,
    vulnerableness,
)
from .methodpaths import DEFAULT_PATH_LIMIT, render_paths
from .pipeline import MODES, analyze_flows, direct_coverage
from .qlearn import LearnerParams
from .simulator import (
    Scenario,
    ScenarioError,
    all_graph_variants,
    generate_program,
    simulate,
)
from .staticgraph import (
    ConfigurationError,
    GraphFormatError,
    SourceSinkConfig,
    read_graph_set,
    write_graph_set,
)
from .stats import DegenerateDataError, kmeans2, spearman
from .stmtpaths import DEFAULT_STMT_PATH_LIMIT, render_stmt_paths, summary_counts
from .trace import (
    DEP_DATA,
    FEATURES,
    METRIC_ROWS,
    RUN,
    SCENARIO,
    SOURCE_SINK,
    VULNS,
    MethodId,
    TraceError,
    is_number,
    json_text,
    read_bundle,
    read_json,
    read_text,
    write_bundle,
    write_output,
)

USAGE_ERROR = 2
DATA_ERROR = 3
CONFIG_ERROR = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_method(text: str) -> MethodId:
    parts = text.split(".", 2)
    if len(parts) != 3:
        raise ValueError(f"method must be process.Class.method, got {text!r}")
    return MethodId(*parts)


def _load_scenario(path: Path) -> Scenario:
    data = read_json(path, SCENARIO, ValueError)
    return Scenario(
        data["topology"], data.get("seed", 0), data.get("length", 80), data.get("tiers")
    )


def _load_cfg(path: Path) -> SourceSinkConfig:
    data = read_json(path, SOURCE_SINK, ValueError)
    return SourceSinkConfig(
        sources=frozenset(data.get("sources", ())), sinks=frozenset(data.get("sinks", ()))
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = _load_scenario(Path(args.scenario))
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    model = generate_program(scenario)
    traces, truth = simulate(model, scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_bundle(out / "traces", traces, dataclasses.asdict(scenario))
    write_graph_set(out / "graphs", all_graph_variants(model))
    records = [{"type": "dep", "from": m1.qualified(), "to": m2.qualified()}
               for m1, m2 in sorted(truth.dyn_dep)]
    records += [{"type": "path", "stmts": list(path)} for path in sorted(truth.dyn_paths)]
    write_output(out / "groundtruth.jsonl", (json.dumps(r) + "\n" for r in records))
    cfg = model.default_cfg()
    write_output(
        out / "config.json",
        json_text({"sources": sorted(cfg.sources), "sinks": sorted(cfg.sinks)}),
    )
    print(f"wrote bundle, graphs, ground truth under {out}")
    return 0


# ---------------------------------------------------------------------------
# flowpaths
# ---------------------------------------------------------------------------


# lines per joined piece of phase2.txt, which can run to megabytes: a batch
# bounds the text held at once to a few hundred kilobytes (phase1.txt is
# written one segment at a time, see render_paths)
REPORT_BATCH_LINES = 2000


def _line_pieces(lines: list[str]) -> Iterator[str]:
    """The text of ``lines``, each ended by a newline, as pieces: each
    batch of ``REPORT_BATCH_LINES`` joined with its last newline, so a
    batch goes out in one write; no lines, no pieces."""
    for start in range(0, len(lines), REPORT_BATCH_LINES):
        yield "\n".join(lines[start:start + REPORT_BATCH_LINES] + [""])


def cmd_flowpaths(args) -> int:
    traces, _ = read_bundle(Path(args.bundle))
    graphs = read_graph_set(Path(args.graphs))
    cfg = _load_cfg(Path(args.config))
    result = analyze_flows(
        traces,
        graphs,
        cfg,
        mode=args.mode,
        path_limit=args.path_limit,
        stmt_path_limit=args.stmt_path_limit,
        strict_splice=args.strict_splice,
        coverage_style=args.coverage,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_output(out / "phase1.txt", render_paths(result.phase1))
    write_output(out / "phase2.txt", _line_pieces(render_stmt_paths(result.phase2)))
    counts = summary_counts(result.phase2)
    counts["phase1_paths"] = len(result.phase1.paths)
    counts["phase1_truncated"] = int(result.phase1.truncated)
    write_output(
        out / "summary.txt", "".join(f"{k} {v}\n" for k, v in sorted(counts.items()))
    )
    print(f"wrote flow-path reports under {out}")
    return 0


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


def cmd_tune(args) -> int:
    traces, _ = read_bundle(Path(args.bundle))
    graphs = read_graph_set(Path(args.graphs))
    budget = Budget.from_total(args.budget)
    costs = (
        CostModel.from_file(Path(args.cost_model))
        if args.cost_model
        else CostModel()
    )
    if args.wallclock:
        costs.mode = "wallclock"
    pinned = None if args.pin_config is None else args.pin_config.require_valid()

    table = MethodTable.from_traces(traces)
    facts = run_facts(traces)
    outputs = {}  # file name -> text, written once every round has run
    deps_files = {}
    for idx, proc in enumerate(sorted(traces)):
        trace = traces[proc]
        coverage = direct_coverage({proc: trace})
        controller = PinnedController(pinned) if pinned else QLearnController(
            budget.total,
            LearnerParams(epsilon=args.epsilon),
            seed=args.seed * 31 + idx,
            next_state_max=args.next_state_max,
        )
        state = ArbiterState(
            event_threshold=args.tc, time_threshold=args.tt, config=pinned or MOST_PRECISE
        )
        rounds = arbitrate(
            method_event_stream(trace, table),
            state, budget, costs, controller, graphs, coverage, table,
            flush=True,
        )
        overflow = next((r for r in rounds if not math.isfinite(r.cost)), None)
        if overflow is not None:
            raise ValueError(
                f"{args.cost_model}: round {overflow.index} of {proc} costs"
                f" {overflow.cost}: a cost-model product overflows a float"
            )
        outputs[f"rounds_{proc}.log"] = render_round_log(rounds)
        if args.dump_qtable and isinstance(controller, QLearnController):
            outputs[f"qtable_{proc}.txt"] = controller.table.dump()
        final = next((r.deps for r in reversed(rounds) if r.deps is not None), {})
        deps_name = deps_files[proc] = f"deps_{proc}.txt"
        outputs[deps_name] = "".join(
            f"dep {method.qualified()} {member.qualified()}\n"
            for method in sorted(final) for member in sorted(final[method])
        )
    run = {
        "bundle": str(args.bundle),
        "graphs": str(args.graphs),
        "budget": args.budget,
        "seed": args.seed,
        "processes": sorted(traces),
        "deps_files": deps_files,
        "facts": _facts_record(facts),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        write_output(out / name, text)
    write_output(out / "run.json", json_text(run, indent=None))
    print(f"wrote round logs and dependence maps under {out}")
    return 0


def _facts_record(facts: RunFacts) -> dict:
    """The ``facts`` member of ``run.json``, which :func:`_load_facts`
    reads back: lists rather than an object per method, so that encoding
    stays cheap."""
    return {
        "methods": [
            [*m, *facts.spans[m], facts.reach[m]] for m in sorted(facts.spans)
        ],
        "messages": [[*pair, n] for pair, n in sorted(facts.messages.items())],
    }


def _load_facts(manifest: dict, path: Path) -> RunFacts:
    """The :class:`RunFacts` that ``tune`` recorded in ``run.json`` at
    ``path``, a manifest of the shape :data:`RUN`, whose ``reach`` maps
    processes to timestamps.  Every process that a method or its ``reach``
    names must be one of ``processes``, else a data error names the file."""
    facts, known = manifest["facts"], frozenset(manifest["processes"])
    spans: dict[MethodId, tuple[int, int]] = {}
    reach: dict[MethodId, dict[str, int]] = {}
    for *name, fe, lr, hits in facts["methods"]:
        method = tuple.__new__(MethodId, name)  # RUN holds its fields non-empty
        unknown = ({method.process} | hits.keys()) - known
        if unknown:
            raise ValueError(
                f"{path}: {method.qualified()} in 'facts' names process"
                f" {min(unknown)!r}, which 'processes' does not list"
            )
        spans[method] = (fe, lr)
        reach[method] = hits
    return RunFacts(spans, reach, {(a, b): n for a, b, n in facts["messages"]})


def _load_run(run_dir: Path) -> tuple[RunFacts, dict]:
    """The run facts and the dependence maps of a ``tune`` output
    directory, read from it alone: the trace bundle is not opened.
    ``run.json`` must have the shape :data:`RUN`, which one that ``tune``
    wrote before it recorded facts has not, else a data error names it.
    Each non-blank line of a deps file must be ``dep <method> <method>``,
    else a data error names the file and the line."""
    path = run_dir / "run.json"
    manifest = read_json(path, RUN, ValueError)
    facts = _load_facts(manifest, path)
    per_process = {}
    for proc, name in manifest["deps_files"].items():
        deps: dict[MethodId, set[MethodId]] = {}
        methods: dict[str, MethodId] = {}
        for lineno, line in enumerate(read_text(run_dir / name).splitlines(), 1):
            parts = line.split()
            if not parts:
                continue
            try:
                if len(parts) != 3 or parts[0] != "dep":
                    raise ValueError(f"expected 'dep <method> <method>', got {line!r}")
                for text in parts[1:]:
                    if text not in methods:
                        methods[text] = _parse_method(text)
            except ValueError as exc:
                raise ValueError(f"{run_dir / name}:{lineno}: {exc}") from None
            deps.setdefault(methods[parts[1]], set()).add(methods[parts[2]])
        per_process[proc] = {
            method: frozenset(members) for method, members in deps.items()
        }
    return facts, per_process


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def cmd_query(args) -> int:
    facts, per_process = _load_run(Path(args.run))
    merged = merge_query(args.method, per_process, facts)
    for member in sorted(merged):
        print(member.qualified())
    return 0


# ---------------------------------------------------------------------------
# metrics / quality / correlate / classify
# ---------------------------------------------------------------------------


def _dep_data_from_json(path: Path) -> DepData:
    """The dependence data of a ``--depdata`` file, of the shape
    :data:`DEP_DATA`, whose strings must be methods, else a data error
    names the file."""
    data = read_json(path, DEP_DATA, ValueError)
    try:
        local_ds, remote_ds = [{
            _parse_method(k): frozenset(map(_parse_method, vs))
            for k, vs in data.get(key, {}).items()
        } for key in ("local", "remote")]
        executed = frozenset(map(_parse_method, data["executed"]))
        messages = {(a, b): n for a, b, n in data.get("messages", [])}
        return DepData(local_ds, remote_ds, executed, messages)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _emit(text: str, out) -> int:
    """Print ``text``, and write it to the file ``out`` when one is given."""
    if out:
        write_output(Path(out), text)
    print(text, end="")
    return 0


def cmd_metrics(args) -> int:
    if args.depdata:
        dep = _dep_data_from_json(Path(args.depdata))
    else:
        dep = dep_data_from_run(*_load_run(Path(args.run)))
    report = ipc_metrics(dep, table_rcc=args.table_rcc)
    text = render_ipc_report(report)
    return _emit(text, args.out)


def cmd_quality(args) -> int:
    lengths = []
    if args.paths_report:
        for line in read_text(Path(args.paths_report)).splitlines():
            if line.startswith("path level=stmt"):
                lengths.append(len(line.split("->")))
    count, mean_len = path_stats(lengths, args.ksloc)
    vulns = read_json(Path(args.vulns), VULNS, ValueError) if args.vulns else {}
    score = vulnerableness(
        vulns.get("n_non_nvd", 0), vulns.get("entries", []), corrected=args.vuln_corrected
    )
    if not math.isfinite(score):
        raise ValueError(f"{args.vulns}: the vulnerableness of 'entries' overflows a float")
    vector = {
        "exec_time": args.exec_time,
        "code_churn": args.code_churn,
        "cyclomatic": args.cyclomatic,
        "defect_density": args.defect_density,
        "path_count": count,
        "path_length": mean_len,
        "attack_surface": attack_surface(
            args.endpoints, args.ports, args.files, args.sloc
        ),
        "vulnerableness": score,
    }
    return _emit(json_text(vector), args.out)


def cmd_correlate(args) -> int:
    ipc_rows = read_json(Path(args.ipc), METRIC_ROWS, ValueError)
    quality_rows = read_json(Path(args.quality), METRIC_ROWS, ValueError)
    for q_name in (q for q in QUALITY_METRICS if q in quality_rows):
        q = quality_rows[q_name]
        if len(q) < 3:
            raise ValueError(
                f"{args.quality}: {q_name!r} has {len(q)} values,"
                " but a correlation needs at least 3 observations"
            )
        for m_name in (m for m in IPC_METRICS if m in ipc_rows):
            m = ipc_rows[m_name]
            if len(q) != len(m):
                raise ValueError(
                    f"{args.quality}: {q_name!r} has {len(q)} values,"
                    f" but {args.ipc}: {m_name!r} has {len(m)}"
                )
    missing = [m for m in IPC_METRICS if m not in ipc_rows]
    if missing:
        raise MetricsError(
            f"{args.ipc}: IPC data lacks metric(s): {', '.join(missing)}"
        )
    text = render_correlation_matrix(ipc_rows, quality_rows, spearman)
    return _emit(text, args.out)


def cmd_classify(args) -> int:
    path = Path(args.features)
    try:
        result = kmeans2(read_json(path, FEATURES, ValueError), seed=args.seed)
        finite = all(map(math.isfinite, (result.inertia, *chain(*result.centers))))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(
            f"{path}: features too large: a squared distance or a coordinate sum"
            " overflows a float"
        )
    lines = [
        f"point {i} cluster {label}" for i, label in enumerate(result.labels)
    ]
    for i, center in enumerate(result.centers):
        coords = " ".join(f"{c:.10g}" for c in center)
        lines.append(f"center {i} {coords}")
    lines.append(f"inertia {result.inertia:.10g}")
    text = "\n".join(lines) + "\n"
    return _emit(text, args.out)


# ---------------------------------------------------------------------------


def _checked(name: str, convert, *checks):
    """The argparse type called ``name``: ``convert`` of the text, refused
    with the message of the first (predicate, message) check that its value
    fails, formatted with the ``text`` and the ``value``."""

    def parse(text: str):
        value = convert(text)
        for test, message in checks:
            if not test(value):
                raise argparse.ArgumentTypeError(message.format(text=text, value=value))
        return value

    parse.__name__ = name
    return parse


# the types of a limit (a limit of 0 would silently empty its report), a
# count, a number written to a report, a size to divide by, a time threshold
# and a probability; a count's integer and every float must be finite
_FINITE = (is_number, "must be a finite number, got {text}")
positive_int = _checked("positive_int", int, (lambda v: v >= 1, "must be at least 1, got {value}"))
nonnegative_int = _checked(
    "nonnegative_int", int, _FINITE, (lambda v: v >= 0, "must be at least 0, got {value}")
)
finite_float = _checked("finite_float", float, _FINITE)
positive_float = _checked(
    "positive_float", float, _FINITE, (lambda v: v > 0, "must be positive, got {text}")
)
nonnegative_float = _checked(
    "nonnegative_float", float, _FINITE, (lambda v: v >= 0, "must be at least 0, got {text}")
)
unit_float = _checked(
    "unit_float", float, _FINITE, (lambda v: 0 <= v <= 1, "must be in [0, 1], got {text}")
)


def query_method(text: str) -> MethodId | tuple[str, str]:
    """Type of ``query --method``: ``Class.method``, the code in any
    process, or ``process.Class.method``; no part may be empty.  ``main``
    applies it after parsing, so that an error argparse finds while
    parsing, such as an unrecognized argument, is the one reported."""
    parts = text.split(".", 2)
    if len(parts) < 2 or not all(parts):
        raise argparse.ArgumentTypeError(
            f"must be Class.method or process.Class.method, got {text!r}"
        )
    return MethodId(*parts) if len(parts) == 3 else (parts[0], parts[1])


def pin_config(text: str) -> Configuration:
    """argparse type of ``tune --pin-config``: six binary digits.  Whether
    the configuration is valid is checked when ``tune`` runs (exit 4)."""
    try:
        return Configuration.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_out(parser: argparse.ArgumentParser) -> None:
    """A required --out directory that falls back to the CROSSFLOW_OUT
    environment variable, read when the parser is built; an empty variable
    counts as unset."""
    env_default = os.environ.get(OUT_DIR_ENV) or None
    parser.add_argument("--out", default=env_default, required=env_default is None)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True)
    _add_out(p)
    p.add_argument("--seed", type=int, default=None)


def _flowpaths_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bundle", required=True)
    p.add_argument("--graphs", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=MODES, default="default")
    p.add_argument("--path-limit", type=positive_int, default=DEFAULT_PATH_LIMIT)
    p.add_argument("--stmt-path-limit", type=positive_int, default=DEFAULT_STMT_PATH_LIMIT)
    p.add_argument("--strict-splice", action="store_true")
    p.add_argument("--coverage", choices=("direct", "branches"), default="direct")
    _add_out(p)


def _tune_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bundle", required=True)
    p.add_argument("--graphs", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--tc", type=nonnegative_int, default=10)
    p.add_argument("--tt", type=nonnegative_float, default=0.0)
    p.add_argument("--pin-config", type=pin_config, default=None)
    p.add_argument("--cost-model", default=None)
    p.add_argument("--wallclock", action="store_true")
    p.add_argument("--epsilon", type=unit_float, default=0.2)
    p.add_argument("--next-state-max", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-qtable", action="store_true")
    _add_out(p)


def _query_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run", required=True)
    p.add_argument("--method", required=True)


def _metrics_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run")
    p.add_argument("--depdata")
    p.add_argument("--table-rcc", action="store_true")
    p.add_argument("--out")


def _quality_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paths-report", default=None)
    p.add_argument("--ksloc", type=positive_float, default=1.0)
    p.add_argument("--sloc", type=positive_float, default=1000.0)
    p.add_argument("--endpoints", type=nonnegative_int, default=0)
    p.add_argument("--ports", type=nonnegative_int, default=0)
    p.add_argument("--files", type=nonnegative_int, default=0)
    p.add_argument("--vulns", default=None)
    p.add_argument("--vuln-corrected", action="store_true")
    p.add_argument("--exec-time", type=finite_float, default=0.0)
    p.add_argument("--code-churn", type=finite_float, default=0.0)
    p.add_argument("--cyclomatic", type=finite_float, default=0.0)
    p.add_argument("--defect-density", type=finite_float, default=0.0)
    p.add_argument("--out")


def _correlate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ipc", required=True)
    p.add_argument("--quality", required=True)
    p.add_argument("--out")


def _classify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")


# name -> (help, add-arguments function, handler), in the order help lists them
COMMANDS = {
    "simulate": ("generate traces, graphs, ground truth", _simulate_args, cmd_simulate),
    "flowpaths": ("two-phase information flow paths", _flowpaths_args, cmd_flowpaths),
    "tune": ("self-tuning online dependence analysis", _tune_args, cmd_tune),
    "query": ("merged dependence set for a method", _query_args, cmd_query),
    "metrics": ("IPC coupling/cohesion report", _metrics_args, cmd_metrics),
    "quality": ("assemble a quality metric vector", _quality_args, cmd_quality),
    "correlate": ("IPC x quality Spearman matrix", _correlate_args, cmd_correlate),
    "classify": ("two-cluster feature classification", _classify_args, cmd_classify),
}


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the command ``name`` alone, which parses the words
    after the command name.  Its help, usage line and errors read as those
    of the subparser that ``build_parser`` makes for the command, and a
    parse gives the namespace that ``build_parser`` gives for the same
    words, ``command`` and ``func`` included."""
    _, add_arguments, handler = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"crossflow {name}")
    add_arguments(parser)
    parser.set_defaults(command=name, func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, one subparser each.

    Building a subparser costs far more than parsing (each argument makes
    a help formatter), so ``main`` builds this only for what it alone
    prints: the top-level help, the error for an unknown or missing
    command, and the errors reported under the top-level usage line.
    """
    parser = argparse.ArgumentParser(
        prog="crossflow",
        description="Trace-driven cross-process information-flow and "
        "dependence analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run the command that ``argv`` (default: ``sys.argv[1:]``) names.

    When the first word names a command, only ``command_parser`` of it is
    built; every other parse, and every error argparse reports under the
    top-level usage line (unrecognized arguments, a ``metrics`` call
    without input, a malformed ``query --method``), goes through
    ``build_parser``, so help and usage errors print what the full parser
    prints.  No parser outlives the call, so ``CROSSFLOW_OUT`` is read on
    every call."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extras = None, []
    if argv and argv[0] in COMMANDS:
        args, extras = command_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or extras:  # no command word, or words the command does not take
        args = build_parser().parse_args(argv)
    if args.command == "metrics" and not (args.run or args.depdata):
        build_parser().error("metrics needs --run or --depdata")
    if args.command == "query":
        try:
            args.method = query_method(args.method)
        except argparse.ArgumentTypeError as exc:
            build_parser().error(f"argument --method: {exc}")
    try:
        return args.func(args)
    except (ScenarioError, ConfigurationError) as exc:
        return _fail(USAGE_ERROR, str(exc))
    except InvalidConfigError as exc:
        return _fail(
            CONFIG_ERROR,
            f"{exc} (invalid masks: 001xxx, 010xxx, 011xxx, 0xxx1x, xxx0x1, 000000)",
        )
    except (EngineError, DegenerateDataError) as exc:
        return _fail(CONFIG_ERROR, str(exc))
    except (TraceError, GraphFormatError, MetricsError, json.JSONDecodeError) as exc:
        return _fail(DATA_ERROR, str(exc))
    except FileNotFoundError as exc:
        return _fail(USAGE_ERROR, f"missing file: {exc.filename}")
    except OSError as exc:  # a path that cannot be opened, or a refused write
        if exc.filename is None:
            return _fail(USAGE_ERROR, str(exc))
        return _fail(USAGE_ERROR, f"{exc.filename}: {exc.strerror}")
    except (KeyError, ValueError) as exc:
        return _fail(DATA_ERROR, f"bad input data: {exc}")


if __name__ == "__main__":
    sys.exit(main())
