"""Workload definitions: seeded scenario shapes and the command plan of a pass.

Every workload is a fixed list of shapes (topology, width, length).  The
workload seed only picks each scenario's own seed, so two seeds give runs
of the same size and mix, and the spread between seeds measures the
program rather than the luck of the draw.  The program sees only the
scenario files and the bundles that ``crossflow simulate`` makes from them.

A pass runs every bundle of the workload through its command chain once.
Measurement runs whole passes, so each run samples every shape equally.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

MODES = ("default", "sim", "mul")
TUNE_ARGS = ("--budget", "100000", "--tc", "4", "--seed", "0")
REPEAT = 3
DEPS_TUNE_REPEAT = 5

# Acceptance-suite mix (tests/test_acceptance.py::scenario_for) at length 200.
SMALL_MIX = (
    ("client_server", None),
    ("peer_to_peer", 3),
    ("peer_to_peer", 4),
    ("n_tier", 3),
    ("n_tier", 4),
)

# (topology, tiers or peers, length) per bundle.  n_tier at 8 tiers takes
# about 9 s per flowpaths call and 40 tiers never ends (splicing has no
# output cap), so flow-tiered stops at 7 tiers.
SHAPES = {
    "flow-tiered": [
        ("n_tier", 5, 1000), ("n_tier", 6, 1000), ("n_tier", 7, 1000),
        ("peer_to_peer", 8, 1000), ("peer_to_peer", 10, 1000),
        ("peer_to_peer", 12, 1000),
    ],
    "deps-wide": [
        ("n_tier", 12, 1400), ("n_tier", 20, 1400),
        ("peer_to_peer", 24, 1300), ("peer_to_peer", 40, 1300),
    ],
    "batch-small": [
        (topo, width, 200) for _ in range(20) for topo, width in SMALL_MIX
    ],
}

SMOKE_SHAPES = {
    "flow-tiered": [("n_tier", 4, 300), ("peer_to_peer", 5, 300), ("n_tier", 3, 300)],
    "deps-wide": [("n_tier", 6, 400), ("peer_to_peer", 8, 400)],
    "batch-small": [(topo, width, 200) for topo, width in SMALL_MIX],
}


@dataclass
class Bundle:
    """One simulated input: scenario file plus the directory simulate fills."""

    name: str
    scenario: dict
    companions: list["Bundle"] = field(default_factory=list)
    events: int = 0
    gt_paths: frozenset = frozenset()
    gt_deps: tuple = ()

    def scenario_path(self, inputs: Path) -> Path:
        return inputs / f"{self.name}.json"

    def load_truth(self, inputs: Path) -> None:
        d = inputs / self.name
        self.events = sum(
            len(p.read_bytes().splitlines())
            for p in (d / "traces").glob("*.trace")
        )
        paths, deps = set(), []
        for line in (d / "groundtruth.jsonl").read_text().splitlines():
            rec = json.loads(line)
            if rec["type"] == "path":
                paths.add(" -> ".join(rec["stmts"]))
            else:
                deps.append((rec["from"], rec["to"]))
        self.gt_paths = frozenset(paths)
        self.gt_deps = tuple(deps)


@dataclass
class Job:
    """One CLI command of a pass; ``key`` names its outputs across passes."""

    command: str
    argv: list
    bundle: Bundle
    key: str
    out: Optional[Path] = None
    query: Optional[str] = None


def _scenario(rng: random.Random, topo: str, width, length: int) -> dict:
    spec = {"topology": topo, "seed": rng.randrange(1_000_000), "length": length}
    if width is not None:
        spec["tiers"] = width
    return spec


def make_bundles(workload: str, seed: int, smoke: bool) -> list[Bundle]:
    rng = random.Random(f"{workload}:{seed}")
    shapes = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    bundles = []
    for i, (topo, width, length) in enumerate(shapes):
        b = Bundle(f"b{i:03d}", _scenario(rng, topo, width, length))
        if workload == "deps-wide":
            # flowpaths never ends at these widths, so this workload runs it
            # on the five acceptance-mix shapes next to each wide bundle.
            b.companions = [
                Bundle(f"c{i:03d}{j}", _scenario(rng, ctopo, cwidth, 200))
                for j, (ctopo, cwidth) in enumerate(SMALL_MIX)
            ]
        bundles.append(b)
    return bundles


def all_inputs(bundles: list[Bundle]) -> list[Bundle]:
    out = []
    for b in bundles:
        out.append(b)
        out.extend(b.companions)
    return out


def write_scenarios(bundles: list[Bundle], inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for b in all_inputs(bundles):
        b.scenario_path(inputs).write_text(json.dumps(b.scenario, sort_keys=True))


def _flowpaths(b: Bundle, inputs: Path, outputs: Path, mode: str) -> Job:
    d = inputs / b.name
    out = outputs / b.name / f"fp_{mode}"
    argv = [
        "flowpaths", "--bundle", str(d / "traces"), "--graphs", str(d / "graphs"),
        "--config", str(d / "config.json"), "--mode", mode, "--out", str(out),
    ]
    return Job("flowpaths", argv, b, f"{b.name}/fp_{mode}", out=out)


def pass_plan(
    workload: str, bundles: list[Bundle], inputs: Path, outputs: Path
) -> list[Job]:
    """Commands of one pass.  flow-tiered rotates the flowpaths mode over
    its bundles, so each mode meets one tier chain and one ring; deps-wide
    runs flowpaths in every mode on the small companions of each wide
    bundle.  Commands that take milliseconds next to the workload's main
    command run ``REPEAT`` times per pass (``tune`` on deps-wide
    ``DEPS_TUNE_REPEAT`` times), so that their median rests on more than
    one or two samples."""
    jobs = []
    for i, b in enumerate(bundles):
        d = inputs / b.name
        run_dir = outputs / b.name / "tune"
        if workload == "deps-wide":
            jobs += [_flowpaths(c, inputs, outputs, m) for c in b.companions for m in MODES]
        else:
            mode = MODES[i % 3] if workload == "flow-tiered" else "default"
            jobs.append(_flowpaths(b, inputs, outputs, mode))
        tune = Job(
            "tune",
            ["tune", "--bundle", str(d / "traces"), "--graphs", str(d / "graphs"),
             *TUNE_ARGS, "--out", str(run_dir)],
            b, f"{b.name}/tune", out=run_dir,
        )
        if workload == "deps-wide":
            queries = sorted({src for src, _ in b.gt_deps})
        else:
            queries = ["Main.run"]
        chain = [tune] + [
            Job("query", ["query", "--run", str(run_dir), "--method", q],
                b, f"{b.name}/query/{q}", query=q)
            for q in queries
        ]
        report = outputs / b.name / "metrics.txt"
        metrics = Job(
            "metrics", ["metrics", "--run", str(run_dir), "--out", str(report)],
            b, f"{b.name}/metrics", out=report,
        )
        if workload == "flow-tiered":
            jobs += (chain + [metrics]) * REPEAT
        elif workload == "deps-wide":
            jobs += [tune] * (DEPS_TUNE_REPEAT - 1) + chain + [metrics]
        else:
            jobs += chain + [metrics]
    return jobs
