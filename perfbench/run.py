"""crossflow benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one thread, one caller in a
closed loop: each CLI command starts only when the previous one returned.
Commands go through ``crossflow.cli.main(argv)`` in-process, exactly as a
shell would pass them; ``python -m crossflow.cli`` launches in subprocesses
measure start-up.  ``--wallclock`` is never used, so tune rounds are
deterministic.

A pass runs every command of the workload once; a run makes at least two
whole passes and stops near ``--seconds``.  Every timing is in reference
seconds (``speed.py``): wall time rescaled by a fixed pure-Python probe
timed around and during it, which cancels most of the drift in host speed
of a shared machine.  A command's latency is the median of its repetitions;
latency figures are the median and the tail across the workload's
commands.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
traced run that alternates untraced and traced passes over the same
commands; span times are wall seconds.  ``--smoke`` shrinks every workload to a seconds-long run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
LAUNCHES = 6
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="seconds-long sizes")
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def tree_digest(path: Path) -> dict[str, str]:
    if path.is_file():
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()}
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


def tail(values: list[float]) -> tuple[float, str, int]:
    """Highest ladder percentile with at least ten samples beyond it
    (nearest rank); the maximum when there are fewer than 40 samples."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = -(-int(p * n) // 100)  # ceil(p/100 * n)
        if n - rank >= 10:
            return xs[rank - 1], f"p{p:g}", n - rank
    return xs[-1], "max", 0


class Bench:
    """State of one run: inputs, per-command samples and correctness tallies."""

    def __init__(self, args, cli, rec, clock):
        self.args = args
        self.cli = cli
        self.rec = rec
        self.clock = clock
        suffix = "-smoke" if args.smoke else ""
        self.work = Path(".perfbench_work") / f"{args.workload}-s{args.seed}{suffix}"
        self.results = Path(".perfbench_work") / "results"
        self.outputs = self.work / "out"
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, dict[str, str]] = {}
        self.times: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}
        self.commands: dict[str, tuple[str, int]] = {}
        self.flow: dict[str, dict] = {}
        self.deps: dict[str, tuple[int, int]] = {}
        self.launches: list[float] = []
        self.launched = 0
        self.launch_every: float | None = None
        self.next_launch = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAIL {what}", file=sys.stderr)

    def call(self, argv: list[str], span: str | None = None) -> tuple[int, str, float]:
        """One command through crossflow.cli.main; returns (code, stdout, s)."""
        buf = io.StringIO()
        self.attempted += 1
        gc.collect()  # start each command with no garbage, as a fresh process would
        self.clock.start()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if span is None:
                    code = self.cli.main(argv)
                else:
                    code = self.rec.span(span, self.cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
        dt = time.perf_counter() - t0
        dt -= self.clock.stop()
        if code != 0:
            self.fail(f"exit {code}: crossflow {' '.join(argv)}")
        return code, buf.getvalue(), dt

    # -- set-up ------------------------------------------------------------

    def setup(self, bundles) -> tuple[Path, list[list[float]]]:
        """Simulate every input ``SETUP_REPS`` times; returns the inputs and,
        per set-up, the list its ``simulate`` times resolve into."""
        shutil.rmtree(self.work, ignore_errors=True)
        times, digests = [], []
        span = "cli.simulate" if self.rec is not None else None
        for rep in range(SETUP_REPS):
            inputs = self.work / f"setup{rep}"
            workloads.write_scenarios(bundles, inputs)
            times.append([])
            for b in workloads.all_inputs(bundles):
                self.clock.add(self.call([
                    "simulate", "--scenario", str(b.scenario_path(inputs)),
                    "--out", str(inputs / b.name),
                ], span)[2], times[-1].append)
            digests.append(tree_digest(inputs))
        for rep in range(1, SETUP_REPS):
            if digests[rep] != digests[0]:
                self.fail(f"simulate output differs between set-up {rep} and 0")
            shutil.rmtree(self.work / f"setup{rep}")
        inputs = self.work / "setup0"
        for b in workloads.all_inputs(bundles):
            b.load_truth(inputs)
        gc.collect()
        gc.freeze()  # keep the long-lived heap out of every later collection
        return inputs, times

    def launch(self, extra: tuple[str, ...] = ()) -> str:
        """``python -m crossflow.cli simulate`` on a small scenario; its
        time goes to ``launches`` and its stderr is returned."""
        scen = self.work / "launch.json"
        scen.write_text(json.dumps({"topology": "client_server", "seed": self.args.seed, "length": 200}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(["src"] + [p for p in [env.get("PYTHONPATH")] if p])
        cmd = [sys.executable, *extra, "-m", "crossflow.cli", "simulate",
               "--scenario", str(scen), "--out", str(self.work / "launch")]
        self.attempted += 1
        self.launched += 1
        self.clock.start(sample=False)  # probes would compete with the child
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        self.clock.stop()
        if proc.returncode != 0:
            self.fail(f"launch exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            self.clock.add(dt, self.launches.append)
        return proc.stderr

    def due_launch(self) -> None:
        """Launch between commands when one is due, so that the launches
        spread over the whole measured window."""
        if self.launch_every is not None and time.perf_counter() >= self.next_launch:
            self.launch()
            self.next_launch = time.perf_counter() + self.launch_every

    # -- measured passes -----------------------------------------------------

    def run_pass(self, jobs, traced: bool) -> float:
        """Run the jobs, recording each completed command's latency under its
        key, in reference and wall seconds; return the wall seconds spent
        inside commands."""
        busy = 0.0
        for job in jobs:
            self.due_launch()
            span = f"cli.{job.command}" if traced else None
            code, out, dt = self.call(job.argv, span)
            if code != 0:
                continue
            busy += dt
            self.clock.add(dt, self.times.setdefault(job.key, []).append)
            self.wall.setdefault(job.key, []).append(dt)
            self.commands[job.key] = (job.command, job.bundle.events)
            self.check(job, out)
        return busy

    def check(self, job, stdout: str) -> None:
        digest = tree_digest(job.out) if job.out is not None else {}
        if stdout:
            digest["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        if job.key in self.digests:
            if digest != self.digests[job.key]:
                self.fail(f"output of {job.key} changed between passes")
            return
        self.digests[job.key] = digest
        if job.command == "flowpaths":
            self.check_flow(job)
        elif job.command == "query":
            self.check_query(job, stdout)

    def check_flow(self, job) -> None:
        emitted = {
            line.split(" ", 3)[3]
            for line in (job.out / "phase2.txt").read_text().splitlines()
        }
        summary = dict(
            line.split() for line in (job.out / "summary.txt").read_text().splitlines()
        )
        gt = job.bundle.gt_paths
        found = len(gt & emitted)
        self.flow[job.key] = {
            "events": job.bundle.events, "gt_paths": len(gt), "found": found,
            "emitted": len(emitted),
            "phase1_paths": int(summary["phase1_paths"]),
            "phase1_truncated": int(summary["phase1_truncated"]),
            "spliced_paths": int(summary["interprocess_paths"]),
        }
        if found < len(gt):
            self.fail(f"{job.key}: {len(gt) - found} of {len(gt)} ground-truth paths missing")

    def check_query(self, job, stdout: str) -> None:
        """Criterion-5 recall: every ground-truth dependence of the queried
        method is in the merged set.  A process-qualified query answers for
        its own method; a Class.method query for every process running it."""
        got = set(stdout.split())
        q = job.query
        expected = [
            to for frm, to in job.bundle.gt_deps
            if (frm == q if q.count(".") == 2 else frm.split(".", 1)[1] == q)
        ]
        missing = [to for to in expected if to not in got]
        self.deps[job.key] = (len(expected) - len(missing), len(expected))
        if missing:
            self.fail(f"{job.key}: ground-truth dependences missing: {missing}")


def ratio(num: int, den: int) -> float:
    """num/den; an empty base misses nothing, and the run prints the base."""
    return num / den if den else 1.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "crossflow" / "cli.py").is_file():
        print(f"error: no crossflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_run = time.perf_counter()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    declared = declared_metrics(args.trace)

    rec = tracing.Recorder() if args.trace else None
    clock = speed.Clock(sample=rec is None)
    clock.start()
    t0 = time.perf_counter()
    import crossflow.cli as cli
    import_wall = time.perf_counter() - t0
    import_wall -= clock.stop()
    import_ref: list[float] = []
    clock.add(import_wall, import_ref.append)
    gc.freeze()
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "crossflow":
        print(f"error: imported crossflow from {cli.__file__}", file=sys.stderr)
        return 2

    bench = Bench(args, cli, rec, clock)
    bundles = workloads.make_bundles(args.workload, args.seed, args.smoke)
    if rec is not None:
        rec.install()
    inputs, setup_parts = bench.setup(bundles)
    setup_spans_end = len(rec.name) if rec is not None else 0

    imports = {}
    launches = bench.launches
    n_launches = 1 if args.smoke else LAUNCHES
    if rec is None:
        bench.launch_every = args.seconds / n_launches
    else:
        imports = tracing.parse_importtime(bench.launch(("-X", "importtime")))
        rec.uninstall()

    # At least two whole passes, then more while the next one, if it lasts
    # as long as the last, ends within 1.1 times --seconds.  An untraced
    # run launches the CLI every ``--seconds / LAUNCHES`` seconds between
    # commands, and tops the launches up after the last pass.  A traced
    # run instead times an untraced and a traced run of each pass, in
    # alternating order so that neither side always meets cold caches.
    jobs = workloads.pass_plan(args.workload, bundles, inputs, bench.outputs)
    # Warm-up, untimed: the first command of each kind, so that lazy set-up
    # inside the process (paid by every separate CLI process, and measured
    # by the launches) does not land on the first timed command.
    first: dict[str, workloads.Job] = {}
    for job in jobs:
        first.setdefault(job.command, job)
    for job in first.values():
        bench.call(job.argv)
    pass_busy: list[tuple[float, float]] = []
    traced_first = None
    k = 0
    t_start = bench.next_launch = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        if rec is None:
            bench.run_pass(jobs, traced=False)
        else:
            busy = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    rec.install()
                    traced_first = len(rec.name) if traced_first is None else traced_first
                busy[traced] = bench.run_pass(jobs, traced=traced)
                rec.uninstall()
            pass_busy.append((busy[False], busy[True]))
        k += 1
        now = time.perf_counter()
        if k >= 2 and now - t_start + (now - t_pass) > 1.1 * args.seconds:
            break
    t_passes = time.perf_counter() - t_start
    bench.launch_every = None
    while rec is None and bench.launched < n_launches:
        bench.launch()
    clock.resolve()
    import_s = import_ref[0]
    setup_times = [sum(part) for part in setup_parts]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    manifest = {key: bench.digests[key] for key in sorted(bench.digests)}
    output_digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    stem = f"{args.workload}-s{args.seed}{'-smoke' if args.smoke else ''}"
    record = {"digests": manifest, "flow": bench.flow, "setup_s": setup_times}

    print(f"workload {args.workload} seed {args.seed} passes {k} "
          f"commands {bench.attempted} failed {bench.failed}")
    print(f"wall: before the passes {t_start - t_run:.1f} s, passes {t_passes:.1f} s, "
          f"in all {time.perf_counter() - t_run:.1f} s; {len(clock.probes)} speed probes")
    for b in workloads.all_inputs(bundles):
        print(f"bundle {b.name} {json.dumps(b.scenario, sort_keys=True)} events={b.events} "
              f"gt_paths={len(b.gt_paths)} gt_deps={len(b.gt_deps)}")
    for key, f in sorted(bench.flow.items()):
        note = " (no ground-truth paths: recall vacuous)" if f["gt_paths"] == 0 else ""
        print(f"flow {key} " + " ".join(f"{n}={v}" for n, v in f.items()) + note)
    flows = list(bench.flow.values())
    truncated = sum(f["phase1_truncated"] for f in flows)
    print(f"phase1_truncated {truncated}/{len(flows)} flowpaths outputs")
    print(f"output_digest {output_digest} ({len(manifest)} distinct commands)")

    gt_paths = sum(f["gt_paths"] for f in flows)
    found = sum(f["found"] for f in flows)
    with_gt = [f for f in flows if f["gt_paths"]]
    emitted_true = sum(f["found"] for f in with_gt)
    emitted = sum(f["emitted"] for f in with_gt)
    deps_found = sum(a for a, _ in bench.deps.values())
    deps_base = sum(b for _, b in bench.deps.values())
    details = {
        "flow_recall": f"{found}/{gt_paths} ground-truth paths",
        "flow_precision": f"{emitted_true}/{emitted} emitted paths, {len(with_gt)} outputs with ground truth",
        "deps_recall": f"{deps_found}/{deps_base} ground-truth dependences over {len(bench.deps)} queries",
        "setup_s": f"imports {import_s:.4f} s + median of {SETUP_REPS} set-ups {[round(t, 4) for t in setup_times]}",
        "startup_s": f"median of {len(launches)} launches",
        "events_per_s": "median run of each command",
    }

    if rec is None:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "startup_s": statistics.median(launches),
            "peak_rss_mb": peak_rss_mb,
            "completed_frac": ratio(bench.attempted - bench.failed, bench.attempted),
            "flow_recall": ratio(found, gt_paths),
            "flow_precision": ratio(emitted_true, emitted),
            "deps_recall": ratio(deps_found, deps_base),
        }
        lat = {key: statistics.median(ts) for key, ts in bench.times.items()}
        wall = {key: statistics.median(ts) for key, ts in bench.wall.items()}
        values["events_per_s"] = (
            sum(bench.commands[key][1] for key in lat) / sum(lat.values()))
        for cmd in tracing.COMMANDS:
            keys = [key for key in lat if bench.commands[key][0] == cmd]
            xs = [lat[key] for key in keys]
            runs = min(len(bench.times[key]) for key in keys)
            values[f"{cmd}_p50_s"] = statistics.median(xs)
            values[f"{cmd}_tail_s"], pct, beyond = tail(xs)
            details[f"{cmd}_p50_s"] = (
                f"median of {len(xs)} commands, each the median of {runs} or more runs; "
                f"wall {statistics.median(wall[key] for key in keys):.6g} s")
            details[f"{cmd}_tail_s"] = f"{pct} of {len(xs)} commands, {beyond} beyond"
        record["times"] = bench.times
        record["wall"] = bench.wall
        record["launches"] = launches
    else:
        values = layer_metrics(rec, bench, pass_busy, setup_spans_end, traced_first, imports, args.workload)
        missing = tracing.self_check(args.workload, rec.totals()[0])
        rec.dump(bench.results / f"{stem}-trace.json.gz")
        if missing:
            shutil.rmtree(bench.work, ignore_errors=True)
            print(f"error: declared spans never fired on {args.workload}: {missing}", file=sys.stderr)
            return 1

    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    bench.results.mkdir(parents=True, exist_ok=True)
    (bench.results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for name, spec in declared.items():
        print(f"metric {name} {values[name]:.6g} {spec['unit']} {spec['better']}"
              + (f" ({details[name]})" if name in details else ""))
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": values[n], "unit": s["unit"]} for n, s in declared.items()},
    }))
    return 0


def layer_metrics(rec, bench, pass_busy, setup_end, traced_first, imports, workload) -> dict:
    """Per-layer figures per traced pass (set-up figures per set-up), the
    tracing overhead, and the share table of each command's time."""
    n = len(pass_busy)
    calls, incl, self_s, by_cmd = rec.totals(traced_first)
    _, setup_incl, _, _ = rec.totals(0, setup_end)
    values = {}
    for name in tracing.SPANS:
        if name in tracing.SETUP_SPANS:
            values[f"{name}.s"] = setup_incl[name] / SETUP_REPS
        elif name != "qlearn.select_action":  # too short to time; counted below
            values[f"{name}.s"] = incl[name] / n
    for name in ("trace.EventGraph.init", "trace.EventGraph.downstream_recvs",
                 "engine.compute_deps", "qlearn.select_action"):
        values[f"{name}.calls"] = calls[name] / n
    for cmd in tracing.COMMANDS:
        values[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"] / n
    values["stmtpaths.phase2.self_s"] = self_s["stmtpaths.phase2"] / n
    values["pipeline.analyze_flows.self_s"] = self_s["pipeline.analyze_flows"] / n
    counters = (
        "trace.read_bundle.events", "staticgraph.read_graph_set.edges",
        "methodpaths.method_level_paths.paths", "methodpaths.method_level_paths.truncated",
        "stmtpaths.ddg_nodes", "stmtpaths.ddg_edges", "stmtpaths.segments",
        "stmtpaths.spliced_paths", "engine.rounds", "engine.rounds_timed_out",
    )
    for key in counters:
        values[key] = rec.counts.get(key, 0.0) / n
    values.update(imports)
    plain = sum(p for p, _ in pass_busy)
    traced = sum(t for _, t in pass_busy)
    values["trace.overhead_s"] = (traced - plain) / n
    values["trace.overhead_frac"] = (traced - plain) / plain
    flows = list(bench.flow.values())
    values["summary.phase1_truncated_share"] = ratio(
        sum(f["phase1_truncated"] for f in flows), len(flows)) if flows else 0.0

    total = sum(incl[f"cli.{c}"] for c in tracing.COMMANDS)
    print(f"traced passes {n}: untraced {plain:.3f} s, traced {traced:.3f} s, "
          f"overhead {values['trace.overhead_frac']:.3%}")
    for cmd in tracing.COMMANDS:
        span = f"cli.{cmd}"
        if not calls[span]:
            continue
        print(f"share {cmd}: {incl[span] / n:.4f} s per pass, "
              f"{incl[span] / total:.1%} of command time, {calls[span]} calls")
        rows = sorted(((v[0], v[1], name) for (c, name), v in by_cmd.items() if c == span),
                      reverse=True)
        for inc, own, name in rows:
            print(f"share {cmd} {name} incl={inc / incl[span]:.4f} self={own / incl[span]:.4f}")
    layer_self = {name: own for name, own in self_s.items() if not name.startswith("cli.")}
    top = max(layer_self, key=layer_self.get)
    print(f"dominant layer on {workload}: {top} "
          f"({layer_self[top] / total:.1%} of all command time, self)")
    return values


if __name__ == "__main__":
    sys.exit(main())
