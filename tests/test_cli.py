"""CLI workflows: simulate, flowpaths, tune, query, metrics, determinism."""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflow import cli
from crossflow.cli import OUT_DIR_ENV, main
from crossflow.metrics import IPC_METRICS
from crossflow.pipeline import MODES
from crossflow.trace import MethodId

from oracles import report_text


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this Python converts integers of any length"
)
OVERLONG = "1" * (DIGIT_LIMIT + 1)  # digits of a JSON integer past the limit


def overlong_message() -> str:
    """The error Python gives for ``OVERLONG``."""
    try:
        int(OVERLONG)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("no integer digit limit")


def write_scenario(path: Path, **kw) -> Path:
    data = {"topology": "client_server", "seed": 0, "length": 90}
    data.update(kw)
    path.write_text(json.dumps(data))
    return path


def run_sim(tmp_path: Path, name="sim", **kw) -> Path:
    scen = write_scenario(tmp_path / f"{name}.json", **kw)
    out = tmp_path / name
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    return out


def child_env(**env: str) -> dict[str, str]:
    """``env`` for a child Python, plus this process's
    PYTHONDONTWRITEBYTECODE if set: a child writes bytecode next to the
    sources only where its parent would."""
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    if flag is not None:
        env["PYTHONDONTWRITEBYTECODE"] = flag
    return env


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSimulate:
    def test_rerun_identical_bytes(self, tmp_path, capsys):
        out1 = run_sim(tmp_path, "a")
        out2 = run_sim(tmp_path, "b")
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_missing_scenario_file(self, tmp_path):
        code = main(
            ["simulate", "--scenario", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_single_tier_rejected(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", topology="n_tier", tiers=1)
        code = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "o")])
        assert code == 2


# sha256 of every graph file `simulate` writes, recorded while each
# sensitivity variant was built by its own pass over the program model
# (those files also held `entry <proc> <stmt>` lines, removed before hashing)
GRAPH_DIGESTS = {
    "n_tier": (
        {"topology": "n_tier", "tiers": 4, "seed": 4, "length": 130},
        {
            "graph_00.txt": "81eb6121e8b33435d25354bbd24f7d5a334745b99ac9e61f0df6b85c5a8cea3c",
            "graph_01.txt": "167cb183e1567bacaae0e600d80a3f7f5c012301e7effa714011ee7efe1c30a3",
            "graph_10.txt": "219ea798b4184e783e95945c7b30273dec654dd0fc40663fd2bff59084f45548",
            "graph_11.txt": "176bda0a793310573a157bc751aee73e54f1a501e08a9a1721e9ffb661da0661",
        },
    ),
    "peer_to_peer": (
        {"topology": "peer_to_peer", "seed": 1, "length": 90},
        {
            "graph_00.txt": "1ca0ffcb128043a707000dd31c813856f1800087010b5bd7ba4f251037253bd4",
            "graph_01.txt": "980dba2782238b93d867ecbc71c9a7853dca42fc7a7e209e9d64406de7f1074b",
            "graph_10.txt": "aa52af36ecef95282dc7b23a734aa32ed48f63d70794bd678730ea65852c5c2c",
            "graph_11.txt": "d3465a68319d499561f75d252503bcb2f921737f053a3ecdcd20f1c6f915680c",
        },
    ),
    "client_server": (
        {"topology": "client_server", "seed": 0, "length": 90},
        {
            "graph_00.txt": "89691c97ff45b63c781fb2f6fe9d5170d8da25d1550b9f1095e0e9c49a95be75",
            "graph_01.txt": "9f9f773ad188cd67543d48de3a1253c32f72aeb6f26328e3cb96b2a7246fa1ab",
            "graph_10.txt": "c0b4789d5b2fcdd4dc9232cfa8a2430e061b52539856ab40f67836092cbd05f1",
            "graph_11.txt": "4efcd1ffeaf89f3472e20ff71fb5c470a39fa72f9a099752dabd1b609d5a6a58",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GRAPH_DIGESTS))
def test_graph_files_match_recorded_digests(tmp_path, capsys, name):
    scenario, want = GRAPH_DIGESTS[name]
    graphs = run_sim(tmp_path, name, **scenario) / "graphs"
    got = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(graphs.glob("*.txt"))
    }
    assert got == want


class TestFlowpaths:
    def test_reports_written_and_modes_agree(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        outputs = {}
        for mode in ("default", "sim", "mul"):
            out = tmp_path / f"fp_{mode}"
            code = main([
                "flowpaths",
                "--bundle", str(sim / "traces"),
                "--graphs", str(sim / "graphs"),
                "--config", str(sim / "config.json"),
                "--mode", mode,
                "--out", str(out),
            ])
            assert code == 0
            outputs[mode] = (out / "phase2.txt").read_bytes()
        assert outputs["default"] == outputs["sim"] == outputs["mul"]

    def test_relay_has_interprocess_path(self, tmp_path, capsys):
        sim = run_sim(tmp_path, topology="n_tier", tiers=3, length=100, seed=2)
        out = tmp_path / "fp"
        assert main([
            "flowpaths",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"),
            "--out", str(out),
        ]) == 0
        summary = (out / "summary.txt").read_text()
        counts = dict(
            line.split() for line in summary.splitlines() if line
        )
        assert int(counts["interprocess_paths"]) >= 1

    def test_empty_sinks_usage_error(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        cfg = json.loads((sim / "config.json").read_text())
        cfg["sinks"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main([
            "flowpaths",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_rerun_identical(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        outs = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            main([
                "flowpaths",
                "--bundle", str(sim / "traces"),
                "--graphs", str(sim / "graphs"),
                "--config", str(sim / "config.json"),
                "--out", str(out),
            ])
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("n", [
        0, 1, cli.REPORT_BATCH_LINES - 1, cli.REPORT_BATCH_LINES,
        cli.REPORT_BATCH_LINES + 1, 2 * cli.REPORT_BATCH_LINES,
    ])
    def test_report_written_in_batches_equals_joined_lines(self, tmp_path, n):
        lines = [f"path level=stmt kind=intra s{i} -> \u00e9{i}" for i in range(n)]
        path = tmp_path / "report.txt"
        cli.write_output(path, cli._line_pieces(lines))
        assert path.read_bytes() == report_text(lines).encode("utf-8")

    def test_report_batch_goes_out_in_one_write(self, tmp_path, monkeypatch):
        """Each batch of a long report carries its last newline, so it
        takes one ``os.write``: 12,500 lines of 400 characters, 7 batches
        each longer than a write chunk, take 7 writes."""
        lines = [f"{i:06d}" + "x" * 394 for i in range(12_500)]
        path = tmp_path / "phase2.txt"
        real_write, sizes = os.write, []

        def counted_write(fd, data):
            sizes.append(len(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", counted_write)
        cli.write_output(path, cli._line_pieces(lines))
        assert len(sizes) == 7
        assert path.read_bytes() == report_text(lines).encode("utf-8")

    def test_uncovered_sources_empty_report_exit_zero(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        cfg = json.loads((sim / "config.json").read_text())
        cfg["sources"] = ["ghost.Stmt.run.s0"]
        bad = tmp_path / "ghost.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "empty"
        code = main([
            "flowpaths",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(bad),
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "phase1.txt").read_text() == ""
        assert (out / "phase2.txt").read_text() == ""

    def test_duplicate_recv_exit_3(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        bundle = tmp_path / "dup"
        bundle.mkdir()
        (bundle / "manifest.json").write_text(json.dumps({
            "scenario": {}, "processes": ["A", "B"],
            "files": {"A": "A.trace", "B": "B.trace"},
        }))

        def rec(proc, seq, ts, kind, **kw):
            return json.dumps({"proc": proc, "seq": seq, "ts": ts, "kind": kind,
                               "class": "Main", "method": "run", **kw}) + "\n"

        (bundle / "A.trace").write_text(
            rec("A", 0, 1, "entry") + rec("A", 1, 2, "send", msg_id="m0", peer="B")
        )
        (bundle / "B.trace").write_text(
            rec("B", 0, 1, "entry")
            + rec("B", 1, 3, "recv", msg_id="m0", peer="A")
            + rec("B", 2, 4, "recv", msg_id="m0", peer="A")
        )
        code = main([
            "flowpaths",
            "--bundle", str(bundle),
            "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"),
            "--mode", "sim",
            "--out", str(tmp_path / "fp"),
        ])
        assert code == 3
        assert "duplicate recv msg_id 'm0'" in capsys.readouterr().err
        # tune checks the messages too, as it records the run facts
        assert main([
            "tune", "--bundle", str(bundle), "--graphs", str(sim / "graphs"),
            "--budget", "1000", "--out", str(tmp_path / "run"),
        ]) == 3
        assert not (tmp_path / "run").exists()
        assert "duplicate recv msg_id 'm0'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--path-limit", "--stmt-path-limit"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_limit_usage_error(self, tmp_path, capsys, flag, value):
        sim = run_sim(tmp_path)
        out = tmp_path / "fp"
        with pytest.raises(SystemExit) as exc:
            main([
                "flowpaths",
                "--bundle", str(sim / "traces"),
                "--graphs", str(sim / "graphs"),
                "--config", str(sim / "config.json"),
                f"{flag}={value}",
                "--out", str(out),
            ])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_limits_of_one_accepted(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        out = tmp_path / "fp"
        assert main([
            "flowpaths",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"),
            "--path-limit", "1",
            "--stmt-path-limit", "1",
            "--out", str(out),
        ]) == 0
        assert "phase1_truncated 1\n" in (out / "summary.txt").read_text()


# sha256 of phase1.txt, phase2.txt and summary.txt per flowpaths run, taken
# before phase 1 kept its paths as rank tuples; any change to the reports'
# bytes must show here
RECORDED_DIGESTS = {
    "n_tier": (
        {"topology": "n_tier", "tiers": 4, "seed": 4, "length": 130},
        {
            "default": (
                "5b49493f497a6d986f1dfdb8e2f4f68dab5f2a97086da2a8bc0069bf23e31b7e",
                "3239d45d167dc36ec7efcb711055f8a53f3d33200c1785befd4fc87ee611d76c",
                "9dba86d2e82894dbe49a30da1d48eeca2b21b67bd83b2827d3448ee310d5008d",
            ),
            "sim": (
                "d4beaa3eb894087b018c98932f3dd819160b9c99f6699d7695a12c82ff17071c",
                "3239d45d167dc36ec7efcb711055f8a53f3d33200c1785befd4fc87ee611d76c",
                "7d7a7bc52f733ed188098c966b891275f100f59406746e1940423b9784f8c43c",
            ),
            "mul": (
                "d4beaa3eb894087b018c98932f3dd819160b9c99f6699d7695a12c82ff17071c",
                "3239d45d167dc36ec7efcb711055f8a53f3d33200c1785befd4fc87ee611d76c",
                "7d7a7bc52f733ed188098c966b891275f100f59406746e1940423b9784f8c43c",
            ),
            "sim-limit-3": (
                "bf973628b4df0fcb9261523b05dc04ecdee63050483a2e77bb49750ad2394540",
                "3239d45d167dc36ec7efcb711055f8a53f3d33200c1785befd4fc87ee611d76c",
                "47ba3643910fd9af09d1fba16f306132fcd1cee492fab7bd486dbb78ad742500",
            ),
        },
    ),
    "peer_to_peer": (
        {"topology": "peer_to_peer", "seed": 1, "length": 90},
        {
            "default": (
                "49c38140fca63bae1c1d02b55a414420ed41d0ed0425b95b63272e65bdfeb32a",
                "16d2c5602b92999a7cf3d100b06ef870eb2fac3c93c83060855207645819b382",
                "54c94cf19fe4c2caefa8039259c86d11d5a7c97f4f4455c6f5e85474e8a50ae5",
            ),
            "sim": (
                "0dc8799deef63f8a7ac3fdb16a6aa8b73c784661eb11abd2ace3d61691ec2580",
                "16d2c5602b92999a7cf3d100b06ef870eb2fac3c93c83060855207645819b382",
                "298774028024c4a0fbf312c5c3f12b8ce671bedf613aaf3a89e465c61fa6c135",
            ),
            "mul": (
                "0dc8799deef63f8a7ac3fdb16a6aa8b73c784661eb11abd2ace3d61691ec2580",
                "16d2c5602b92999a7cf3d100b06ef870eb2fac3c93c83060855207645819b382",
                "298774028024c4a0fbf312c5c3f12b8ce671bedf613aaf3a89e465c61fa6c135",
            ),
            "sim-limit-3": (
                "ee9fa1a2efb5a31a672c262266f0e268ac75df463ce05e0ca1766525b2869688",
                "16d2c5602b92999a7cf3d100b06ef870eb2fac3c93c83060855207645819b382",
                "7f61e160d15a5a51ca2742376cac7a092076407b74a76b64f7cba1c69925c19c",
            ),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_DIGESTS))
def test_flowpaths_reports_match_recorded_digests(tmp_path, capsys, name):
    scenario, want = RECORDED_DIGESTS[name]
    sim = run_sim(tmp_path, name, **scenario)
    n_events = sum(
        len(f.read_text().splitlines()) for f in (sim / "traces").glob("*.trace")
    )
    assert n_events <= 300
    runs = {mode: ["--mode", mode] for mode in ("default", "sim", "mul")}
    runs["sim-limit-3"] = ["--mode", "sim", "--path-limit", "3"]
    for run, flags in runs.items():
        out = tmp_path / f"fp_{run}"
        assert main([
            "flowpaths",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"),
            *flags,
            "--out", str(out),
        ]) == 0
        got = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("phase1.txt", "phase2.txt", "summary.txt")
        )
        assert got == want[run], (name, run)
        counts = dict(line.split() for line in (out / "summary.txt").read_text().splitlines())
        phase1_lines = (out / "phase1.txt").read_text().splitlines()
        assert int(counts["phase1_paths"]) == len(phase1_lines) > 0, (name, run)
        assert counts["phase1_truncated"] == ("1" if run == "sim-limit-3" else "0")


# sha256 of phase1.txt, phase2.txt and summary.txt for default-mode runs
# with each phase-2 flag on the RECORDED_DIGESTS scenarios, taken before
# phase 1 fed phase 2 from one pass: pins the DDG pruning and segment
# search that both flags go through
FLAG_DIGESTS = {
    "n_tier": {
        "strict-splice": (
            "5b49493f497a6d986f1dfdb8e2f4f68dab5f2a97086da2a8bc0069bf23e31b7e",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "27deec69d361edc63910c3e23284791b8aeff55cb9c6cc11f5c4b01fbb24f1a5",
        ),
        "coverage-branches": (
            "5b49493f497a6d986f1dfdb8e2f4f68dab5f2a97086da2a8bc0069bf23e31b7e",
            "3239d45d167dc36ec7efcb711055f8a53f3d33200c1785befd4fc87ee611d76c",
            "9dba86d2e82894dbe49a30da1d48eeca2b21b67bd83b2827d3448ee310d5008d",
        ),
    },
    "peer_to_peer": {
        "strict-splice": (
            "49c38140fca63bae1c1d02b55a414420ed41d0ed0425b95b63272e65bdfeb32a",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "f24b7825d810d48cf6fe0011a2fad2580e5c70c5d71e8b81c977a33a3d298a9b",
        ),
        "coverage-branches": (
            "49c38140fca63bae1c1d02b55a414420ed41d0ed0425b95b63272e65bdfeb32a",
            "16d2c5602b92999a7cf3d100b06ef870eb2fac3c93c83060855207645819b382",
            "54c94cf19fe4c2caefa8039259c86d11d5a7c97f4f4455c6f5e85474e8a50ae5",
        ),
    },
}


def flag_report_digests(tmp_path, sim) -> dict[str, tuple[str, ...]]:
    """Per phase-2 flag, the digests of a default-mode run with it on."""
    runs = {
        "strict-splice": ["--strict-splice"],
        "coverage-branches": ["--coverage", "branches"],
    }
    got = {}
    for run, flags in runs.items():
        out = tmp_path / f"fp_{run}"
        assert main([
            "flowpaths",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"),
            *flags,
            "--out", str(out),
        ]) == 0
        got[run] = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("phase1.txt", "phase2.txt", "summary.txt")
        )
    return got


@pytest.mark.parametrize("name", sorted(FLAG_DIGESTS))
def test_flowpaths_flag_reports_match_recorded_digests(tmp_path, capsys, name):
    sim = run_sim(tmp_path, name, **RECORDED_DIGESTS[name][0])
    assert flag_report_digests(tmp_path, sim) == FLAG_DIGESTS[name]


# sha256 of phase1.txt, phase2.txt and summary.txt of a run where the
# 20,000-path cap bites in every mode, taken before the phase-1 walk kept
# its candidates as bitmasks: pins which paths the capped walk keeps
CAPPED_SCENARIO = {"topology": "peer_to_peer", "tiers": 8, "seed": 1, "length": 1000}
CAPPED_DIGESTS = {
    "default": (
        "8adafee84c2fcfb21dff99f6f291fcb3b57e86a742ea1a9afa3af49390d206f1",
        "ed771ea6c42c3e923211cf4a44ed0e7069af9d7fe376c01fad9bdf2a0b29e452",
        "db84f7a4b4e2ea25dc0297b9d623fa4010e4fba85e9e2acf30c3cb532ca8b98d",
    ),
    "sim": (
        "fd617526ee59d328208fb0da6c60a5193846510cea426b04a9a06f6f4c029a2f",
        "ed771ea6c42c3e923211cf4a44ed0e7069af9d7fe376c01fad9bdf2a0b29e452",
        "db84f7a4b4e2ea25dc0297b9d623fa4010e4fba85e9e2acf30c3cb532ca8b98d",
    ),
    "mul": (
        "fd617526ee59d328208fb0da6c60a5193846510cea426b04a9a06f6f4c029a2f",
        "ed771ea6c42c3e923211cf4a44ed0e7069af9d7fe376c01fad9bdf2a0b29e452",
        "db84f7a4b4e2ea25dc0297b9d623fa4010e4fba85e9e2acf30c3cb532ca8b98d",
    ),
}


# the same for the 12-peer ring, taken before the phase-1 walk reused the
# subtrees of states it had walked: there the 16-method length cap cuts
# paths off inside subtrees that the walk copies
RING12_SCENARIO = {"topology": "peer_to_peer", "tiers": 12, "seed": 1, "length": 1000}
RING12_DIGESTS = {
    "default": (
        "7c9ff8c1dc035f939fac862223fc05c23ec6fa457a8c40504d38ba96b10d21ad",
        "c66635d066ae4f0656deb86bc05e2d825a0fb9bea7e7f8357a11e101c0e6b063",
        "a7dcf936428b0c16bf3137ca44765e6102e0fc889767d6251440837cdab43ddd",
    ),
    "sim": (
        "24f9c2f922e0750d76b20d086f8519dbbfe268f749c816d9e9030319ddbe9259",
        "c66635d066ae4f0656deb86bc05e2d825a0fb9bea7e7f8357a11e101c0e6b063",
        "a7dcf936428b0c16bf3137ca44765e6102e0fc889767d6251440837cdab43ddd",
    ),
    "mul": (
        "24f9c2f922e0750d76b20d086f8519dbbfe268f749c816d9e9030319ddbe9259",
        "c66635d066ae4f0656deb86bc05e2d825a0fb9bea7e7f8357a11e101c0e6b063",
        "a7dcf936428b0c16bf3137ca44765e6102e0fc889767d6251440837cdab43ddd",
    ),
}


# the same for the 7-tier chain, taken before the phase-1 walk wrote its
# lines in report order: chains visit their children out of rank order at
# other nodes than rings do
CHAIN7_SCENARIO = {"topology": "n_tier", "tiers": 7, "seed": 1, "length": 1000}
CHAIN7_DIGESTS = {
    "default": (
        "a6a9c375b4b7b01f92c495f39e0b121adb09f409c928c13559c269c226308eb1",
        "6347ea4d33a4991d7ce427e4123cec2cc6d322f948f265d8bf157b2f4bcf6cf8",
        "617336f73ad0c3e8f9d2784302677caab009d431fba20d8620d8f206e4f6cab3",
    ),
    "sim": (
        "22644e257faca463f298ac2b9758cf79207ca25a95d8350e5eb9f388ba8e4966",
        "6347ea4d33a4991d7ce427e4123cec2cc6d322f948f265d8bf157b2f4bcf6cf8",
        "617336f73ad0c3e8f9d2784302677caab009d431fba20d8620d8f206e4f6cab3",
    ),
    "mul": (
        "22644e257faca463f298ac2b9758cf79207ca25a95d8350e5eb9f388ba8e4966",
        "6347ea4d33a4991d7ce427e4123cec2cc6d322f948f265d8bf157b2f4bcf6cf8",
        "617336f73ad0c3e8f9d2784302677caab009d431fba20d8620d8f206e4f6cab3",
    ),
}


# the same as FLAG_DIGESTS for the 7-tier chain and 12-peer ring, taken
# before phase 2 applied coverage while it built each pair's DDG
CAPPED_FLAG_DIGESTS = {
    "chain7": (CHAIN7_SCENARIO, {
        "strict-splice": (
            "a6a9c375b4b7b01f92c495f39e0b121adb09f409c928c13559c269c226308eb1",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "5637af940ed5a6a84cee9ca268f0ba13f78be9381f95736005a4077940d8fd39",
        ),
        "coverage-branches": (
            "a6a9c375b4b7b01f92c495f39e0b121adb09f409c928c13559c269c226308eb1",
            "6347ea4d33a4991d7ce427e4123cec2cc6d322f948f265d8bf157b2f4bcf6cf8",
            "617336f73ad0c3e8f9d2784302677caab009d431fba20d8620d8f206e4f6cab3",
        ),
    }),
    "ring12": (RING12_SCENARIO, {
        "strict-splice": (
            "7c9ff8c1dc035f939fac862223fc05c23ec6fa457a8c40504d38ba96b10d21ad",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "5637af940ed5a6a84cee9ca268f0ba13f78be9381f95736005a4077940d8fd39",
        ),
        "coverage-branches": (
            "7c9ff8c1dc035f939fac862223fc05c23ec6fa457a8c40504d38ba96b10d21ad",
            "c66635d066ae4f0656deb86bc05e2d825a0fb9bea7e7f8357a11e101c0e6b063",
            "a7dcf936428b0c16bf3137ca44765e6102e0fc889767d6251440837cdab43ddd",
        ),
    }),
}


@pytest.mark.parametrize("name", sorted(CAPPED_FLAG_DIGESTS))
def test_capped_flag_reports_match_recorded_digests(tmp_path, capsys, name):
    scenario, want = CAPPED_FLAG_DIGESTS[name]
    assert flag_report_digests(tmp_path, run_sim(tmp_path, **scenario)) == want


def assert_capped_reports(tmp_path, scenario, digests):
    sim = run_sim(tmp_path, **scenario)
    for mode, want in digests.items():
        out = tmp_path / f"fp_{mode}"
        assert main([
            "flowpaths",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"),
            "--mode", mode,
            "--out", str(out),
        ]) == 0
        got = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("phase1.txt", "phase2.txt", "summary.txt")
        )
        assert got == want, mode
        summary = (out / "summary.txt").read_text()
        assert "phase1_paths 20000\nphase1_truncated 1\n" in summary, mode


def test_capped_flowpaths_reports_match_recorded_digests(tmp_path, capsys):
    assert_capped_reports(tmp_path, CAPPED_SCENARIO, CAPPED_DIGESTS)


def test_capped_ring12_reports_match_recorded_digests(tmp_path, capsys):
    assert_capped_reports(tmp_path, RING12_SCENARIO, RING12_DIGESTS)


def test_capped_chain7_reports_match_recorded_digests(tmp_path, capsys):
    assert_capped_reports(tmp_path, CHAIN7_SCENARIO, CHAIN7_DIGESTS)


def test_splice_limit_cuts_the_same_lines_under_any_hash_seed(tmp_path, capsys):
    """With the splice limit lowered below a 4-tier chain's 100 spliced
    paths, ``flowpaths`` keeps that many lines, the same ones under two
    hash seeds, and ``summary.txt`` says that splicing was cut; at the
    default limit it says nothing of splicing."""
    sim = run_sim(tmp_path, topology="n_tier", tiers=4, length=300)
    flowpaths = [
        "flowpaths", "--bundle", str(sim / "traces"), "--graphs", str(sim / "graphs"),
        "--config", str(sim / "config.json"),
    ]
    assert main([*flowpaths, "--out", str(tmp_path / "full")]) == 0
    full = (tmp_path / "full" / "phase2.txt").read_text().splitlines()
    assert len(full) == 100
    assert "splice" not in (tmp_path / "full" / "summary.txt").read_text()
    lowered = (
        "import functools, sys; from crossflow import cli, stmtpaths; "
        "stmtpaths.splice_segments = functools.partial(stmtpaths.splice_segments, limit=37); "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    reports = []
    for hashseed in ("1", "424242"):
        out = tmp_path / f"h{hashseed}"
        r = subprocess.run(
            [sys.executable, "-c", lowered, *flowpaths, "--out", str(out)],
            env=child_env(
                PYTHONHASHSEED=hashseed, PATH="/usr/bin:/bin",
                PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
            ),
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        reports.append(((out / "phase2.txt").read_text(), (out / "summary.txt").read_text()))
    assert reports[0] == reports[1]
    kept, summary = reports[0]
    assert len(kept.splitlines()) == 37 and set(kept.splitlines()) < set(full)
    assert "interprocess_paths 37\n" in summary and "splice_truncated 1\n" in summary


@pytest.mark.parametrize(
    "scenario", [CHAIN7_SCENARIO, RING12_SCENARIO], ids=["chain7", "ring12"]
)
def test_phase2_lines_strictly_increase_and_match_summary(tmp_path, capsys, scenario):
    sim = run_sim(tmp_path, **scenario)
    for mode in ("default", "sim", "mul"):
        out = tmp_path / f"fp_{mode}"
        assert main([
            "flowpaths",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"),
            "--mode", mode,
            "--out", str(out),
        ]) == 0
        lines = (out / "phase2.txt").read_text().splitlines()
        assert lines, mode
        assert all(a < b for a, b in zip(lines, lines[1:])), mode
        spliced = sum(line.startswith("path level=stmt kind=spliced ") for line in lines)
        summary = (out / "summary.txt").read_text()
        assert f"interprocess_paths {spliced}\n" in summary, mode


class TestTuneAndQuery:
    def run_tune(self, tmp_path, sim, name="run", **flags):
        out = tmp_path / name
        argv = [
            "tune",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--budget", "100000",
            "--tc", "4",
            "--out", str(out),
        ]
        for k, v in flags.items():
            argv += [f"--{k.replace('_', '-')}", str(v)]
        assert main(argv) == 0
        return out

    def test_pinned_baseline_mode_stays_fixed(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        out = self.run_tune(tmp_path, sim, pin_config="111111")
        for log in out.glob("rounds_*.log"):
            for line in log.read_text().splitlines():
                assert line.split()[2] == "111111"

    def test_huge_budget_keeps_most_precise(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        out = self.run_tune(tmp_path, sim, name="huge", epsilon="0.0")
        for log in out.glob("rounds_*.log"):
            for line in log.read_text().splitlines():
                assert line.split()[2] == "111111"

    def test_invalid_pin_config_exit_4(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        code = main([
            "tune",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--budget", "1000",
            "--pin-config", "010000",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 4

    def test_rerun_identical(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        a = tree_bytes(self.run_tune(tmp_path, sim, name="r1", seed="3"))
        b = tree_bytes(self.run_tune(tmp_path, sim, name="r2", seed="3"))
        # run.json embeds the output-independent inputs only
        assert a.keys() == b.keys()
        assert {k: v for k, v in a.items() if k != "run.json"} == {
            k: v for k, v in b.items() if k != "run.json"
        }

    def test_query_unexecuted_method_empty_exit_zero(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        run = self.run_tune(tmp_path, sim, pin_config="111111")
        capsys.readouterr()
        code = main(["query", "--run", str(run), "--method", "Ghost.none"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_query_includes_remote_methods(self, tmp_path, capsys):
        sim = run_sim(tmp_path, topology="n_tier", tiers=3, length=100, seed=2)
        run = self.run_tune(tmp_path, sim, pin_config="111111")
        capsys.readouterr()
        code = main(["query", "--run", str(run), "--method", "p0.Main.run"])
        assert code == 0
        out = capsys.readouterr().out
        procs = {line.split(".")[0] for line in out.splitlines()}
        assert {"p0", "p1", "p2"} <= procs


class TestDeterminismAcrossProcesses:
    def test_hash_seed_does_not_leak_into_outputs(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", topology="n_tier", tiers=3,
                              seed=4, length=110)
        outs = []
        for name, hashseed in (("h1", "1"), ("h2", "424242")):
            out = tmp_path / name
            env = child_env(
                PYTHONHASHSEED=hashseed, PATH="/usr/bin:/bin",
                PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
            )
            for argv in (
                ["simulate", "--scenario", str(scen), "--out", str(out / "sim")],
                ["tune", "--bundle", str(out / "sim" / "traces"),
                 "--graphs", str(out / "sim" / "graphs"),
                 "--budget", "100000", "--tc", "4", "--seed", "7",
                 "--out", str(out / "sd")],
                ["metrics", "--run", str(out / "sd"),
                 "--out", str(out / "metrics.txt")],
                *(["flowpaths", "--bundle", str(out / "sim" / "traces"),
                   "--graphs", str(out / "sim" / "graphs"),
                   "--config", str(out / "sim" / "config.json"),
                   "--mode", mode, "--out", str(out / f"flows_{mode}")]
                  for mode in MODES),
                ["query", "--run", str(out / "sd"), "--method", "Main.run"],
            ):
                r = subprocess.run(
                    [sys.executable, "-m", "crossflow.cli", *argv],
                    env=env, capture_output=True, text=True,
                )
                assert r.returncode == 0, r.stderr
            assert r.stdout  # the query, run last, prints its merged set
            outs.append({
                "query": r.stdout,
                **{k: v for k, v in tree_bytes(out).items() if not k.endswith("run.json")},
            })
        assert outs[0] == outs[1]


class TestMetricsCommands:
    def test_metrics_from_run(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        run = TestTuneAndQuery().run_tune(tmp_path, sim, pin_config="111111")
        capsys.readouterr()
        code = main(["metrics", "--run", str(run)])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMC" in out and "PLC" in out

    def test_metrics_from_depdata_fixture(self, tmp_path, capsys):
        dep = {
            "executed": ["p.K.a", "p.K.b", "q.K.a"],
            "local": {"p.K.a": ["p.K.b"]},
            "remote": {"p.K.a": ["q.K.a"]},
            "messages": [["p", "q", 4]],
        }
        f = tmp_path / "dep.json"
        f.write_text(json.dumps(dep))
        out_file = tmp_path / "report.txt"
        code = main(["metrics", "--depdata", str(f), "--out", str(out_file)])
        assert code == 0
        assert "4.0000" in out_file.read_text()  # RMC: single pair, 4 msgs

    def test_correlate_monotone_r_one(self, tmp_path, capsys):
        ipc = {name: [1.0, 2.0, 3.0, 4.0] for name in
               ("RMC", "RCC", "CCC", "IPR", "CCL", "PLC")}
        quality = {"exec_time": [10.0, 20.0, 30.0, 40.0]}
        fi, fq = tmp_path / "ipc.json", tmp_path / "q.json"
        fi.write_text(json.dumps(ipc))
        fq.write_text(json.dumps(quality))
        code = main(["correlate", "--ipc", str(fi), "--quality", str(fq)])
        assert code == 0
        out = capsys.readouterr().out
        assert "+1.0000" in out and "*" in out

    def test_classify_two_blobs(self, tmp_path, capsys):
        pts = [[0.0, 0.0], [0.1, 0.2], [9.0, 9.1], [9.2, 8.9]]
        f = tmp_path / "features.json"
        f.write_text(json.dumps(pts))
        code = main(["classify", "--features", str(f)])
        assert code == 0
        out = capsys.readouterr().out
        labels = [
            int(line.split()[3])
            for line in out.splitlines()
            if line.startswith("point")
        ]
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_quality_vector_assembly(self, tmp_path, capsys):
        vulns = tmp_path / "vulns.json"
        vulns.write_text(json.dumps({"n_non_nvd": 2, "entries": [[5.0, 10.0]]}))
        code = main([
            "quality", "--sloc", "1000", "--endpoints", "2", "--ports", "3",
            "--files", "6", "--ksloc", "1.0", "--vulns", str(vulns),
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["attack_surface"] == pytest.approx(0.007)
        assert data["vulnerableness"] == pytest.approx(501.5)

    def test_identical_points_exit_4(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        f.write_text(json.dumps([[1.0], [1.0], [1.0]]))
        assert main(["classify", "--features", str(f)]) == 4

    def test_garbage_json_exit_3(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        f.write_text("{not json")
        assert main(["classify", "--features", str(f)]) == 3

    def test_correlate_names_missing_ipc_metrics(self, tmp_path, capsys):
        fi, fq = tmp_path / "ipc.json", tmp_path / "q.json"
        fi.write_text(json.dumps({"RMC": [1.0, 2.0, 3.0], "CCC": [3.0, 1.0, 2.0]}))
        fq.write_text(json.dumps({"exec_time": [1.0, 2.0, 3.0]}))
        assert main(["correlate", "--ipc", str(fi), "--quality", str(fq)]) == 3
        assert capsys.readouterr().err == (
            f"error: {fi}: IPC data lacks metric(s): RCC, IPR, CCL, PLC\n"
        )


# sha256 of the `correlate` report on the fixtures of `correlate_rows`,
# recorded while the p-values still came from scipy's t tail and a numpy
# permutation loop: n = 6 and n = 10 (with ties) take the exact permutation
# p, n = 15 the t tail; each fixture also has a constant (nan) column
CORRELATE_DIGESTS = {
    (6, 7): "43e98b3e200f5ea4a7b415da1b8ced547c610f96a66532d5f7c0d1de3d60dd0a",
    (10, 7): "15738f966840895063808f510eae263cfef31e958c1845bd4543ddfed7ba2f20",
    (15, 13): "5b9adddc63f6973a03c3350f976c5bf596f6638c34cd34daffcf3457e8b7c506",
}


def correlate_rows(n: int, modulus: int) -> tuple[dict, dict]:
    """Residues of linear sequences: values repeat when n > modulus, and
    the PLC column (step 7) is constant when the modulus is 7."""
    ipc = {
        name: [float((i * (k + 2) + k) % modulus) for i in range(n)]
        for k, name in enumerate(IPC_METRICS)
    }
    quality = {
        name: [float((i * (j + 3) + 2 * j) % modulus) for i in range(n)]
        for j, name in enumerate(("exec_time", "code_churn"))
    }
    return ipc, quality


@pytest.mark.parametrize("n,modulus", sorted(CORRELATE_DIGESTS))
def test_correlate_report_matches_recorded_digest(tmp_path, capsys, n, modulus):
    ipc, quality = correlate_rows(n, modulus)
    fi, fq, out = tmp_path / "ipc.json", tmp_path / "q.json", tmp_path / "c.txt"
    fi.write_text(json.dumps(ipc))
    fq.write_text(json.dumps(quality))
    assert main(["correlate", "--ipc", str(fi), "--quality", str(fq),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CORRELATE_DIGESTS[(n, modulus)]


def test_cli_imports_neither_numpy_nor_scipy(tmp_path):
    """A launch must not pay for numpy or scipy, which nothing needs."""
    scen = write_scenario(tmp_path / "s.json", length=30)
    code = f"""
import sys
from crossflow.cli import main
assert main(["simulate", "--scenario", {str(scen)!r},
             "--out", {str(tmp_path / "sim")!r}]) == 0
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
assert not heavy, heavy[:5]
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr


# sha256 of f"{exit code}\n{stdout}\0{stderr}" for `crossflow ARGV` with
# COLUMNS=80 and CROSSFLOW_OUT unset, recorded while main built every
# subparser on each call.  Python 3.10 to 3.12 print the same text; 3.13
# wraps the top-level usage and words some errors differently, and 3.13.0
# still quotes the choices of an invalid-choice error.  The pins after
# "recorded with one subparser" were recorded while main built a full parser
# holding only the invoked command's subparser.
CLI_SURFACE = {
    "--help": "6df2b8811be6dbde3e24c7d676b1d8f80b8deabd7cc3749828d7a5ea2c0c0a51",
    "simulate --help": "0e54485a7dc3a660c351f2c267abcbe0cd82acfc64f419f168beeeac41bfcefb",
    "flowpaths --help": "ad02311009029ddb0546a2147bb22fe1679a29ecf67bd57bae489628c8ca098e",
    "tune --help": "c811b6d111f7383558b7f3d3028e5aeed3e4b75354fb674d39e4cef12e30159a",
    "query --help": "278782ff292321928b3eaa639a2a91a5ca7626416857761247b444c378b1c9a3",
    "metrics --help": "83c8eddf52342327eba0119afc1c3cc164261e0e06f6bb686a1dffe37697a577",
    "quality --help": "a9895a9872075a078995f5fa6046533d80675c46805757cade5f72698ff8549e",
    "correlate --help": "6c57f8f434b785674a98d10e2602b93e22970f7fd14dc722b01af89bba06b142",
    "classify --help": "91e7f9ad12bd352e6466f6f0c901cd9189a20cf0ab87f5ef965b65c490ec899a",
    "simulate": "316d03cddf4751858cce93fc2cc70610578801b149a124590c60ec67562a0223",
    "flowpaths": "c540d656937a924ae41ec054c7b42cd790e05e716f126df38372f3318ecbef7e",
    "tune": "fb8cfe2eaa5b95bc966925f5ee72678d9493e91356c097bfecf8b26a8ecb75f1",
    "query": "010b873225d15a4d3cb2a7d7d939c5ca4a42f874bcff7f7caebf89d2432bc3cc",
    "correlate": "ccc99e6c89d32dbaafe2bb5156c77441d4fd42ea9a5d6fa7ea63608f5beef3e3",
    "classify": "5cb9afd93ed9156166e99cf0a289ee0ea04ca1a2e01a0471c9cd0c1d6d8a2479",
    "bogus": "90db063df5b1cf3a722805c599d348c7fa3e2b7cbcfb0a4241a26428d320b0c5",
    "": "99fa113498f87d60353661d13a3c68281d62831904164160f76b57b0fee0978f",
    # neither --run nor --depdata: the top-level usage line and an error
    "metrics": "93760e7b7fbd6c3717e40ff2846cf8dfd9f07e9fc25e989319b2b8002068bb02",
    "metrics --bogus": "84eb3d132c29745caadf158d93f12369636e3e81682d319986f4d8b24e197e14",
    "query --run r --method m extra": "7e09c9ba1f7edb8ff9dcbbb1a4626f1756a18b2732943c74cf54006cac104714",
    # recorded with one subparser: help after an option, '=' forms and extra
    # words, an unknown option after a good one, an ambiguous abbreviation
    # and a missing value
    "query --run r -h": "278782ff292321928b3eaa639a2a91a5ca7626416857761247b444c378b1c9a3",
    "query --run=r --method=X.y a b": "f3e0b02f31f47faef0e051def8e07f974c01a42da3dade0a3a21ff9ca0a75c1d",
    "metrics --run r --bogus": "84eb3d132c29745caadf158d93f12369636e3e81682d319986f4d8b24e197e14",
    "flowpaths --st x": "ec11dbdc2989b9ba05f9697fed2ac8750fbc07e0b5fbb4b207f1b58fcb94c81f",
    "query --run r --method": "268222cd9fa01fcc67304d6c5d5c5106d06d833ddd1088a5e102792220111a91",
}
CLI_SURFACE_313 = {
    "--help": "7c42d8b74f672d142d7d50f4af80d649f6ad6335561f1544318fbfcb2b181d3a",
    "flowpaths --help": "789b19db41af4456166066667b20abecf0b0b513c6dddf8ffb57bbef85b62f94",
    "flowpaths": "8688aff45a0635830904e5f791440a98d42ae7ca3fee2caca13f3bb75923061b",
    "bogus": "f7a245b33fa78802f2742c62846eec8a9c4d6f7517c75f37f2b02246abbcafbd",
    "": "83f2166b204a6b1b94980c4a41f8326050f459f55d6f7f664c2ec713a54be9d5",
    "metrics": "6868fea920415e7299f2a5c7694f7b7c09a4ea75db6d64e41fd5ebec875c312f",
    "metrics --bogus": "a9bd07f54ca49a91b72b50e4d82dcfda1a34923d98fd5c24db08a31ca6561780",
    "query --run r --method m extra": "401a83ebba2ad0534202407c84367b60c532f9aaf1b93bf9a65748a8671d7d4a",
    "query --run=r --method=X.y a b": "ca711db7264426d15c9c5363ddac42118e048a1b68206b90e9e9a70559a9476a",
    "metrics --run r --bogus": "a9bd07f54ca49a91b72b50e4d82dcfda1a34923d98fd5c24db08a31ca6561780",
    "flowpaths --st x": "803e29b48f7b59051f4b514a4105e16ec05fcc26dd86f8f48a60e65db58d460b",
}
CLI_SURFACE_3130 = {
    "bogus": "7fc20286195bb9b4afb124747df0c60460055c5a40f8fbc4ce946db9cc754211",
}


@pytest.mark.parametrize("argv", sorted(CLI_SURFACE), ids=lambda a: a or "<none>")
def test_cli_surface_matches_recorded_digest(capsys, monkeypatch, argv):
    """Help and usage errors are byte-identical whether main builds every
    subparser or parses with the invoked command's parser alone."""
    if sys.version_info >= (3, 14):
        pytest.skip("argparse output of this Python was not recorded")
    want = CLI_SURFACE[argv]
    if sys.version_info >= (3, 13):
        want = CLI_SURFACE_313.get(argv, want)
    if sys.version_info[:3] == (3, 13, 0):
        want = CLI_SURFACE_3130.get(argv, want)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest() == want


def test_main_builds_a_parser_per_call_for_the_invoked_command(
    tmp_path, capsys, monkeypatch
):
    """A valid command builds one parser, its own, afresh on every call;
    help, an unknown or missing command and the errors under the top-level
    usage line build the full parser as well (one per subparser too)."""
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    full = ["crossflow"] + [f"crossflow {name}" for name in cli.COMMANDS]

    def progs(argv):
        built.clear()
        try:
            main(argv)
        except SystemExit:
            pass
        return [parser.prog for parser in built]

    for argv in (["quality"], ["query", "--help"], ["tune", "--tc", "x"]):
        first = progs(argv)
        parser = built[0]
        assert first == progs(argv) == [f"crossflow {argv[0]}"]
        assert built[0] is not parser
    for argv in (["--help"], ["bogus"], []):
        assert progs(argv) == full
    for argv in (
        ["metrics"],
        ["query", "--run", str(tmp_path), "--method", "m", "extra"],
        ["query", "--run", str(tmp_path), "--method", "m"],
    ):
        assert progs(argv) == [f"crossflow {argv[0]}"] + full


def _thousandths(lo: int, hi: int):
    """Decimal words n / 1000 for n in [lo, hi]: never in exponent form, so
    argparse reads a negative one as a number, not an option."""
    return st.integers(lo, hi).map(lambda n: str(n / 1000))


# valid value words for each argparse type that cli uses
VALUE_STRATEGIES = {
    None: st.text(alphabet="ab./_ 01", max_size=6),
    int: st.integers(-50, 50).map(str),
    float: _thousandths(0, 10**6),
    cli.positive_int: st.integers(1, 10**6).map(str),
    cli.nonnegative_int: st.integers(0, 10**6).map(str),
    cli.finite_float: _thousandths(-10**6, 10**6),
    cli.positive_float: _thousandths(1, 10**6),
    cli.nonnegative_float: _thousandths(0, 10**6),
    cli.unit_float: _thousandths(0, 1000),
    cli.pin_config: st.text(alphabet="01", min_size=6, max_size=6),
}


@st.composite
def command_argv(draw, name):
    """Valid words for the command ``name``: each option drawn 0-2 times (a
    required one at least once), in any order, each spelled in full or by
    an unambiguous prefix, with its value as the next word or after '='."""
    parser = cli.command_parser(name)
    long_options = [s for s in parser._option_string_actions if s.startswith("--")]
    groups = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        option = action.option_strings[0]
        spellings = [
            option[:k] for k in range(3, len(option) + 1)
            if [s for s in long_options if s.startswith(option[:k])] == [option]
        ]
        for _ in range(draw(st.integers(int(action.required), 2))):
            spelling = draw(st.sampled_from(spellings))
            if action.nargs == 0:
                groups.append([spelling])
                continue
            if action.choices:
                value = draw(st.sampled_from(list(action.choices)))
            else:
                value = draw(VALUE_STRATEGIES[action.type])
            groups.append(
                [f"{spelling}={value}"] if draw(st.booleans()) else [spelling, value]
            )
    return [name] + [word for group in draw(st.permutations(groups)) for word in group]


@pytest.mark.parametrize("name", list(cli.COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_command_parser_agrees_with_full_parser(name, data):
    argv = data.draw(command_argv(name))
    alone = cli.command_parser(name).parse_args(argv[1:])
    assert vars(alone) == vars(cli.build_parser().parse_args(argv))
    assert alone.command == name and alone.func is cli.COMMANDS[name][2]


def test_out_env_read_on_every_call(tmp_path, capsys, monkeypatch):
    scen = write_scenario(tmp_path / "s.json", length=30)
    for name in ("a", "b"):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / name))
        assert main(["simulate", "--scenario", str(scen)]) == 0
        assert (tmp_path / name / "config.json").is_file()


@pytest.mark.parametrize("command", [
    ["simulate", "--scenario", "s.json"],
    ["flowpaths", "--bundle", "b", "--graphs", "g", "--config", "c"],
    ["tune", "--bundle", "b", "--graphs", "g", "--budget", "1000"],
])
def test_empty_out_env_counts_as_unset(tmp_path, capsys, monkeypatch, command):
    write_scenario(tmp_path / "s.json", length=30)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(OUT_DIR_ENV, "")
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    assert "the following arguments are required: --out\n" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


class TestInputReaders:
    """A bad trace line exits 3 with the message recorded when each line
    went through ``json.loads``, after the file and the number of the line;
    graph variants are parsed only when a command uses them."""

    GOOD = '{"class": "C", "kind": "entry", "method": "m", "proc": "A", "seq": 0}'
    GOOD1 = '{"class": "C", "kind": "entry", "method": "m", "proc": "A", "seq": 1}'

    # the file starts with a blank line, so lines[0] is line 2
    @pytest.mark.parametrize("lines,lineno,message", [
        ([GOOD, '{"proc": "A", "seq": 1,'], 3,
         "not a JSON record: '{\"proc\": \"A\", \"seq\": 1,'"),
        ([GOOD + ", " + GOOD1], 2,
         "not a JSON record: '" + GOOD + ", " + GOOD1 + "'"),
        ([GOOD + " " + GOOD1, GOOD], 2,
         "not a JSON record: '" + GOOD + " " + GOOD1 + "'"),
        (["[1", "2]"], 2, "not a JSON record: '[1'"),
        # joined into one array, these three lines decode to three records
        ([GOOD + ", " + GOOD1, GOOD.replace("0}", "2"), '"seq": 3}'], 2,
         "not a JSON record: '" + GOOD + ", " + GOOD1 + "'"),
        ([GOOD, "7"], 3, "bad trace record 7"),
        ([GOOD, '{"class": "C", "method": "m", "proc": "A", "seq": 1}'], 3,
         "bad trace record {'class': 'C', 'method': 'm', 'proc': 'A', 'seq': 1}"),
        (["7", '{"proc"'], 2, "bad trace record 7"),
        ([GOOD, GOOD1.replace("1}", '"x"}')], 3,
         "bad trace record {'class': 'C', 'kind': 'entry', 'method': 'm',"
         " 'proc': 'A', 'seq': 'x'}"),
        ([GOOD, GOOD1.replace('"m"', '""')], 3,
         "bad trace record {'class': 'C', 'kind': 'entry', 'method': '',"
         " 'proc': 'A', 'seq': 1}"),
        # checked once the file is read: the line is counted back
        ([GOOD1, GOOD], 3, "seq must strictly increase"),
        ([GOOD, "", " ", GOOD1.replace('"A"', '"B"')], 5, "event of B in trace of A"),
        ([GOOD.replace("}", ', "ts": 2}'), "", GOOD1.replace("}", ', "ts": 1}')], 4,
         "timestamps decrease along trace"),
        # seq and ts are JSON integers: no boolean, no float, no string
        ([GOOD, GOOD1.replace("1}", "true}")], 3,
         "bad trace record {'class': 'C', 'kind': 'entry', 'method': 'm',"
         " 'proc': 'A', 'seq': True}"),
        ([GOOD, GOOD1.replace("1}", '2.9, "ts": 2.5}')], 3,
         "bad trace record {'class': 'C', 'kind': 'entry', 'method': 'm',"
         " 'proc': 'A', 'seq': 2.9, 'ts': 2.5}"),
        ([GOOD, GOOD1.replace("1}", '"3"}')], 3,
         "bad trace record {'class': 'C', 'kind': 'entry', 'method': 'm',"
         " 'proc': 'A', 'seq': '3'}"),
        ([GOOD, GOOD1.replace("}", ', "ts": true}')], 3,
         "bad trace record {'class': 'C', 'kind': 'entry', 'method': 'm',"
         " 'proc': 'A', 'seq': 1, 'ts': True}"),
        ([GOOD, GOOD1.replace("}", ', "ts": 2.0}')], 3,
         "bad trace record {'class': 'C', 'kind': 'entry', 'method': 'm',"
         " 'proc': 'A', 'seq': 1, 'ts': 2.0}"),
        ([GOOD, GOOD1.replace("}", ', "ts": "3"}')], 3,
         "bad trace record {'class': 'C', 'kind': 'entry', 'method': 'm',"
         " 'proc': 'A', 'seq': 1, 'ts': '3'}"),
        ([GOOD, GOOD1.replace('"entry"', '["entry"]')], 3,
         "bad trace record {'class': 'C', 'kind': ['entry'], 'method': 'm',"
         " 'proc': 'A', 'seq': 1}"),
        ([GOOD, GOOD1.replace('"entry"', '"exit"')], 3, "unknown event kind 'exit'"),
        ([GOOD, GOOD1.replace('"entry"', '"send"')], 3, "send event requires msg_id"),
        ([GOOD, GOOD1.replace('"entry"', '"recv"').replace("}", ', "ts": 3}')], 3,
         "recv event requires msg_id"),
        ([GOOD, GOOD1.replace("}", ', "ts": 0}')], 3, "stamped timestamps start at 1"),
        # every string field is a non-empty JSON string
        ([GOOD, GOOD1.replace('"entry"', '"stmt_cover"').replace("}", ', "stmt_id": []}')], 3,
         "bad trace record {'class': 'C', 'kind': 'stmt_cover', 'method': 'm',"
         " 'proc': 'A', 'seq': 1, 'stmt_id': []}"),
        ([GOOD, GOOD1.replace('"m"', "2.5")], 3,
         "bad trace record {'class': 'C', 'kind': 'entry', 'method': 2.5,"
         " 'proc': 'A', 'seq': 1}"),
        ([GOOD, GOOD1.replace('"C"', "7")], 3,
         "bad trace record {'class': 7, 'kind': 'entry', 'method': 'm',"
         " 'proc': 'A', 'seq': 1}"),
        ([GOOD, GOOD1.replace('"entry"', '"send"').replace("}", ', "msg_id": 5}')], 3,
         "bad trace record {'class': 'C', 'kind': 'send', 'method': 'm',"
         " 'proc': 'A', 'seq': 1, 'msg_id': 5}"),
        ([GOOD, GOOD1.replace('"entry"', '"branch"').replace("}", ', "branch_id": 3}')], 3,
         "bad trace record {'class': 'C', 'kind': 'branch', 'method': 'm',"
         " 'proc': 'A', 'seq': 1, 'branch_id': 3}"),
        ([GOOD, GOOD1.replace('"entry"', '"send"').replace(
            "}", ', "msg_id": "x", "peer": {"a": 1}}')], 3,
         "bad trace record {'class': 'C', 'kind': 'send', 'method': 'm',"
         " 'proc': 'A', 'seq': 1, 'msg_id': 'x', 'peer': {'a': 1}}"),
    ], ids=["bad-json", "two-records", "two-records-no-comma", "value-over-two-lines",
            "record-over-two-lines", "bare-number", "missing-kind",
            "bad-record-before-bad-json", "seq-not-an-integer", "empty-method", "seq-decreases",
            "event-of-other-process", "ts-decreases", "seq-true", "seq-and-ts-floats",
            "seq-string", "ts-true", "ts-float", "ts-string", "kind-not-a-string",
            "unknown-kind", "send-without-msg-id", "recv-without-msg-id", "ts-zero",
            "stmt-id-list", "method-float", "class-number", "msg-id-number",
            "branch-id-number", "peer-object"])
    def test_bad_trace_line_exit_3(self, tmp_path, capsys, lines, lineno, message):
        bundle = tmp_path / "traces"
        bundle.mkdir()
        (bundle / "manifest.json").write_text(json.dumps(
            {"processes": ["A"], "files": {"A": "A.trace"}, "scenario": {}}
        ))
        (bundle / "A.trace").write_text("\n".join(["", *lines, "  "]) + "\n")
        assert main([
            "flowpaths", "--bundle", str(bundle), "--graphs", str(tmp_path / "g"),
            "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out"),
        ]) == 3
        assert capsys.readouterr().err == (
            f"error: {bundle / 'A.trace'}:{lineno}: {message}\n"
        )

    @needs_digit_limit
    def test_overlong_integer_in_trace_exit_3(self, tmp_path, capsys):
        """An integer past the interpreter's digit limit names the file and
        the line, as a decode error does."""
        line = self.GOOD1.replace("1}", OVERLONG + "}")
        self.test_bad_trace_line_exit_3(
            tmp_path, capsys, [self.GOOD, line], 3, overlong_message()
        )

    def flowpaths(self, sim, out):
        return main([
            "flowpaths",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"),
            "--out", str(out),
        ])

    def test_malformed_variant_never_read_is_not_parsed(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        assert self.flowpaths(sim, tmp_path / "intact") == 0
        # flowpaths reads only the context-insensitive, flow-sensitive variant
        with open(sim / "graphs" / "graph_11.txt", "a") as fh:
            fh.write("node lonely\n")
        assert self.flowpaths(sim, tmp_path / "out") == 0
        assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "intact")

    def test_malformed_variant_read_exit_3_names_line(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        path = sim / "graphs" / "graph_01.txt"
        lineno = len(path.read_text().splitlines()) + 1
        with open(path, "a") as fh:
            fh.write("node lonely\n")
        assert self.flowpaths(sim, tmp_path / "out") == 3
        assert capsys.readouterr().err == (
            f"error: {path}:{lineno}: bad record 'node lonely'\n"
        )

    def test_edge_to_unknown_statement_exit_3_names_file(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        path = sim / "graphs" / "graph_01.txt"
        with open(path, "a") as fh:
            fh.write("edge intra_data ghost.s1 ghost.s2\n")
        assert self.flowpaths(sim, tmp_path / "out") == 3
        assert capsys.readouterr().err == (
            f"error: {path}: edge endpoint missing: "
            "DepEdge(kind='intra_data', src='ghost.s1', dst='ghost.s2')\n"
        )

    @pytest.mark.parametrize("key", ["1", "2x", "011"])
    def test_bad_manifest_key_exit_3(self, tmp_path, capsys, key):
        sim = run_sim(tmp_path)
        manifest = sim / "graphs" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["variants"][key] = data["variants"].pop("11")
        manifest.write_text(json.dumps(data))
        assert self.flowpaths(sim, tmp_path / "out") == 3
        assert capsys.readouterr().err == (
            f"error: {manifest}: bad variant key {key!r}"
            " (want two characters, each 0 or 1)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_missing_variant_file_exit_2_before_analysis(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        path = sim / "graphs" / "graph_11.txt"
        path.unlink()
        assert self.flowpaths(sim, tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: missing file: {path}\n"
        assert not (tmp_path / "out").exists()


# sha256 over the name and bytes of every file `tune --dump-qtable` writes
# but run.json (which holds paths), recorded when a QTable was built key by
# key and action selection sorted the configurations on every call
TUNE_QTABLE_DIGEST = "9d01a66efc34a5c5573611f29128aa1f7186798ce403f29cb29f9d52d38ff874"


def test_tune_dump_qtable_matches_recorded_digest(tmp_path, capsys):
    sim = run_sim(tmp_path, topology="n_tier", tiers=5, seed=2, length=1000)
    out = tmp_path / "run"
    # a budget most rounds overrun, and half the actions drawn at random
    assert main([
        "tune",
        "--bundle", str(sim / "traces"),
        "--graphs", str(sim / "graphs"),
        "--budget", "12", "--tc", "1", "--epsilon", "0.5", "--seed", "7",
        "--dump-qtable", "--out", str(out),
    ]) == 0
    files = {k: v for k, v in tree_bytes(out).items() if k != "run.json"}
    rows = [
        line.split() for k, v in files.items() if k.startswith("qtable_")
        for line in v.decode().splitlines()
    ]
    assert len(rows) == 5 * 26 * 26
    assert sum(float(value) != 0 for _, _, value in rows) >= 10
    h = hashlib.sha256()
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\0" + data + b"\0")
    assert h.hexdigest() == TUNE_QTABLE_DIGEST


# sha256 of f"{exit code}\n{stdout}" for `query` and `metrics --run` on one
# seeded tune run, recorded while the dependence sets crossed from `tune`
# to `query` and `metrics` as records with a root field
DEPSET_SCENARIO = {"topology": "n_tier", "tiers": 4, "seed": 3, "length": 400}
DEPSET_DIGESTS = {
    ("query", "Main.run"): "21e41c1800e62dfde97d1057c8d3cdd44b48a72b4ab97578ddf7967436ebcde8",
    ("query", "p2.Tier.forward"): "f2236d2c79cedd71593c1fee3f9944d3c3ccf522497a740427960af2fb9af7ee",
    ("query", "Ghost.none"): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    ("query", "p0.Ghost.none"): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    ("metrics",): "5c517be951292e50e056a575187c1227166c57d8f08cc007915415e20e8efb83",
}


def test_query_and_metrics_match_recorded_digests(tmp_path, capsys):
    sim = run_sim(tmp_path, **DEPSET_SCENARIO)
    run = tmp_path / "run"
    assert main([
        "tune",
        "--bundle", str(sim / "traces"),
        "--graphs", str(sim / "graphs"),
        "--budget", "100000", "--tc", "4", "--seed", "5",
        "--out", str(run),
    ]) == 0
    got = {}
    for key in DEPSET_DIGESTS:
        capsys.readouterr()
        if key[0] == "query":
            code = main(["query", "--run", str(run), "--method", key[1]])
        else:
            code = main(["metrics", "--run", str(run)])
        out = capsys.readouterr().out
        got[key] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert got == DEPSET_DIGESTS


def test_query_and_metrics_read_no_trace_file(tmp_path, capsys):
    # run.json holds the facts of the traces: with the bundle gone, query
    # and metrics still give the recorded digests
    sim = run_sim(tmp_path, **DEPSET_SCENARIO)
    run = tmp_path / "run"
    assert main([
        "tune",
        "--bundle", str(sim / "traces"),
        "--graphs", str(sim / "graphs"),
        "--budget", "100000", "--tc", "4", "--seed", "5",
        "--out", str(run),
    ]) == 0
    shutil.rmtree(sim / "traces")
    got = {}
    for key in DEPSET_DIGESTS:
        capsys.readouterr()
        if key[0] == "query":
            code = main(["query", "--run", str(run), "--method", key[1]])
        else:
            code = main(["metrics", "--run", str(run)])
        out = capsys.readouterr().out
        got[key] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert got == DEPSET_DIGESTS


def test_metrics_count_a_send_without_peer_for_its_receiver(tmp_path, capsys):
    # a message goes to the process whose recv has its msg_id, whether or
    # not its send names the peer
    sim = run_sim(tmp_path, topology="n_tier", tiers=3, seed=1, length=200)
    bare = tmp_path / "bare"
    shutil.copytree(sim / "traces", bare)
    trace = bare / "p1.trace"
    lines = trace.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "send")
    record = json.loads(lines[i])
    del record["peer"]
    lines[i] = json.dumps(record, sort_keys=True) + "\n"
    trace.write_text("".join(lines))
    reports = []
    for bundle in (sim / "traces", bare):
        run = tmp_path / f"run_{bundle.name}"
        assert main([
            "tune", "--bundle", str(bundle), "--graphs", str(sim / "graphs"),
            "--budget", "100000", "--tc", "4", "--out", str(run),
        ]) == 0
        capsys.readouterr()
        assert main(["metrics", "--run", str(run)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


# sha256 over the configuration, name and bytes of every file but run.json
# that `tune --pin-config C` writes, for each of the 26 valid C in order,
# recorded while every static round lifted the statement edges of its graph
# variant to methods again
PINNED_CONFIGS_DIGEST = "fe82db21b411feabf060f3ca1062bd6f211d77e27e061db00a8fdf1701ac4e24"


def test_every_pinned_configuration_matches_recorded_digest(tmp_path, capsys):
    from crossflow.config import valid_configurations

    sim = run_sim(tmp_path, **DEPSET_SCENARIO)
    h = hashlib.sha256()
    for config in valid_configurations():
        out = tmp_path / config.encode()
        assert main([
            "tune",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--budget", "100000", "--tc", "4",
            "--pin-config", config.encode(), "--out", str(out),
        ]) == 0
        for name, data in sorted(tree_bytes(out).items()):
            if name != "run.json":
                h.update(f"{config.encode()}/{name}".encode() + b"\0" + data + b"\0")
    assert h.hexdigest() == PINNED_CONFIGS_DIGEST


class TestMalformedInputs:
    """Malformed input files and values end with a documented exit code and
    an error naming the file, never a traceback."""

    def tune(self, sim, out, *flags):
        return main([
            "tune",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--tc", "4",
            *flags,
            "--out", str(out),
        ])

    def test_non_integer_tiers_exit_3(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", topology="n_tier", tiers="three")
        code = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "three" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["scenario", "config", "run", "depdata", "vulns"])
    def test_non_object_json_exit_3_names_file(self, tmp_path, capsys, name):
        sim = run_sim(tmp_path)
        (tmp_path / "run").mkdir()
        bad = tmp_path / ("run/run.json" if name == "run" else "bad.json")
        bad.write_text("[1]")
        argv = {
            "scenario": ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")],
            "config": [
                "flowpaths", "--bundle", str(sim / "traces"),
                "--graphs", str(sim / "graphs"), "--config", str(bad),
                "--out", str(tmp_path / "o"),
            ],
            "run": ["query", "--run", str(tmp_path / "run"), "--method", "Main.run"],
            "depdata": ["metrics", "--depdata", str(bad)],
            "vulns": ["quality", "--vulns", str(bad)],
        }[name]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: bad input data: {bad}: not a JSON object\n"
        )

    @pytest.mark.parametrize("text,message", [
        ('{"compute_base": 1.0, "bogus": 2}', "unknown cost-model field 'bogus'"),
        ("[1]", "cost model must be a JSON object"),
        ('{"load_base": "1"}', "cost-model field 'load_base' must be a finite number"),
        ('{"event_tick": NaN}', "cost-model field 'event_tick' must be a finite number"),
        ('{"flow_factor": true}', "cost-model field 'flow_factor' must be a finite number"),
        ('{"mode": "wallclok"}', "cost-model field 'mode' must be 'synthetic' or 'wallclock'"),
        ('{"mode": 5}', "cost-model field 'mode' must be 'synthetic' or 'wallclock'"),
        ('{"compute_base": 1%s}' % ("0" * 400),
         "cost-model field 'compute_base' must be a finite number"),
    ], ids=["unknown-key", "not-an-object", "not-a-number", "nan", "boolean",
            "mode-misspelt", "mode-number", "beyond-float"])
    def test_bad_cost_model_exit_3_names_file(self, tmp_path, capsys, text, message):
        sim = run_sim(tmp_path)
        costs = tmp_path / "costs.json"
        costs.write_text(text)
        code = self.tune(
            sim, tmp_path / "out", "--budget", "1000", "--cost-model", str(costs)
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: bad input data: {costs}: {message}\n"

    def test_cost_model_of_known_fields_accepted(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        costs = tmp_path / "costs.json"
        costs.write_text('{"mode": "synthetic", "compute_base": 2, "event_tick": 0.5}')
        code = self.tune(
            sim, tmp_path / "out", "--budget", "1000", "--cost-model", str(costs)
        )
        assert code == 0

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
    def test_non_finite_budget_exit_4(self, tmp_path, capsys, budget):
        sim = run_sim(tmp_path)
        assert self.tune(sim, tmp_path / "out", f"--budget={budget}") == 4
        assert capsys.readouterr().err == "error: budget components must be finite\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--tc", "-3", "must be at least 0, got -3"),
        ("--tc", "2.5", "invalid nonnegative_int value: '2.5'"),
        ("--tt", "-1", "must be at least 0, got -1"),
        ("--tt", "nan", "must be a finite number, got nan"),
        ("--tt", "inf", "must be a finite number, got inf"),
        ("--epsilon", "7", "must be in [0, 1], got 7"),
        ("--epsilon", "-0.5", "must be in [0, 1], got -0.5"),
        ("--epsilon", "nan", "must be a finite number, got nan"),
    ])
    def test_bad_threshold_usage_error(self, tmp_path, capsys, flag, value, message):
        sim = run_sim(tmp_path)
        with pytest.raises(SystemExit) as exc:
            self.tune(sim, tmp_path / "out", "--budget", "1000", f"{flag}={value}")
        assert exc.value.code == 2
        assert f"argument {flag}: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["11111", "1111x1", "", "1111111", " 11111"])
    def test_malformed_pin_config_usage_error(self, tmp_path, capsys, value):
        # a well-formed but invalid mask is exit 4 (test_invalid_pin_config_exit_4)
        sim = run_sim(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            self.tune(sim, tmp_path / "out", "--budget", "1000", "--pin-config", value)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "argument --pin-config: configuration must be 6 binary digits,"
            f" got {value!r}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_zero_thresholds_accepted(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        out = tmp_path / "out"
        assert self.tune(sim, out, "--budget", "100000", "--tc", "0", "--tt", "0") == 0
        # a round on every returned-into event: more rounds than at --tc 4
        more = self.tune(sim, tmp_path / "tc4", "--budget", "100000")
        assert more == 0
        for log in out.glob("rounds_*.log"):
            rounds = log.read_text().splitlines()
            assert len(rounds) > len((tmp_path / "tc4" / log.name).read_text().splitlines())

    @pytest.mark.parametrize("flag", [
        "--ksloc", "--sloc", "--exec-time", "--code-churn", "--cyclomatic",
        "--defect-density",
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_quality_non_finite_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "quality.json"
        with pytest.raises(SystemExit) as exc:
            main(["quality", f"{flag}={value}", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a finite number, got {value}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--ksloc", "0", "must be positive, got 0"),
        ("--sloc", "0", "must be positive, got 0"),
        ("--sloc", "-2.5", "must be positive, got -2.5"),
        ("--endpoints", "-3", "must be at least 0, got -3"),
        ("--ports", "-1", "must be at least 0, got -1"),
        ("--files", "-1", "must be at least 0, got -1"),
        ("--files", "1.5", "invalid nonnegative_int value: '1.5'"),
        pytest.param(
            "--endpoints", "1" + "0" * 400, "must be a finite number, got 1" + "0" * 400,
            id="endpoints-beyond-float",
        ),
    ])
    def test_quality_out_of_range_usage_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "quality.json"
        with pytest.raises(SystemExit) as exc:
            main(["quality", f"{flag}={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["Main", "", "p0..run", ".run", "Main.", "p0.Main."])
    def test_query_malformed_method_usage_error(self, tmp_path, capsys, method):
        # rejected before the run directory, here a missing one, is read
        with pytest.raises(SystemExit) as exc:
            main(["query", "--run", str(tmp_path / "run"), f"--method={method}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "argument --method: must be Class.method or process.Class.method,"
            f" got {method!r}\n"
        ) in captured.err

    def test_query_method_keeps_dots_after_the_class(self):
        assert cli.query_method("Main.run") == ("Main", "run")
        assert cli.query_method("p0.Main.run.x") == MethodId("p0", "Main", "run.x")

    def test_non_finite_result_not_written_as_json(self, tmp_path, capsys):
        # JSON input may spell NaN; the vector it yields is no JSON
        vulns = tmp_path / "vulns.json"
        vulns.write_text('{"n_non_nvd": 0, "entries": [[NaN, 1.0]]}')
        out = tmp_path / "quality.json"
        assert main(["quality", "--vulns", str(vulns), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: bad input data: {vulns}: 'entries' must be a list of [cvss, years]\n"
        )
        assert not out.exists()

    def test_overflowing_result_not_written_as_json(self, tmp_path, capsys):
        # finite input whose vulnerableness overflows to infinity
        vulns = tmp_path / "vulns.json"
        vulns.write_text('{"n_non_nvd": 0, "entries": [[1e308, 1.0]]}')
        out = tmp_path / "quality.json"
        assert main(["quality", "--vulns", str(vulns), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: bad input data: Out of range float values are not JSON compliant"
        )
        assert not out.exists()

    @pytest.mark.parametrize("manifest,message", [
        ([], "not a JSON object"),
        ({"processes": ["p0", "p1"], "files": {"p1": "p1.trace"}, "scenario": {}},
         "no trace file named for process 'p0'"),
        ({"processes": ["p0", "p1"], "scenario": {}},
         "no trace file named for process 'p0'"),
        ({"processes": "p0", "files": {"p0": "p0.trace"}, "scenario": {}},
         "'processes' must be a list of process names"),
        ({"files": {"p0": "p0.trace"}, "scenario": {}},
         "'processes' must be a list of process names"),
    ], ids=["not-an-object", "no-file-for-process", "no-files", "processes-string",
            "no-processes"])
    def test_bad_trace_manifest_exit_3_names_it(self, tmp_path, capsys, manifest, message):
        sim = run_sim(tmp_path)
        path = sim / "traces" / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert self.tune(sim, tmp_path / "out", "--budget", "1000") == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("manifest,message", [
        (["graph_01.txt"], "not a JSON object"),
        ({"variants": ["graph_01.txt"]},
         "'variants' must map each variant key to a file name"),
        ({}, "'variants' must map each variant key to a file name"),
        ({"variants": {"01": 5}}, "'variants' must map each variant key to a file name"),
    ], ids=["list", "variants-list", "no-variants", "file-name-number"])
    def test_bad_graph_manifest_exit_3_names_it(self, tmp_path, capsys, manifest, message):
        sim = run_sim(tmp_path)
        path = sim / "graphs" / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert self.tune(sim, tmp_path / "out", "--budget", "1000") == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change,message", [
        ({"deps_files": ["deps_p0.txt"]}, "'deps_files' must map each process to a file name"),
        ({"deps_files": {"p0": 5}}, "'deps_files' must map each process to a file name"),
        ({"deps_files": None}, "'deps_files' must map each process to a file name"),
        ({"bundle": None}, "'bundle' must be a path"),
        ({"bundle": 5}, "'bundle' must be a path"),
        ({"facts": None}, "no run facts (written by an older tune); re-run tune"),
        ({"facts": {"methods": [["p0", "Main", "run", 1, 2]], "messages": []}},
         "each method of 'facts' must be [process, class, method, fe, lr, reach],"
         " got ['p0', 'Main', 'run', 1, 2]"),
        ({"facts": {"methods": [["p0", "Main", "run", 1, 2.5, {}]], "messages": []}},
         "the timestamps of p0.Main.run in 'facts' must be integers of at least 1"),
        ({"facts": {"methods": [["p0", "Main", "run", 1, 9, {"p1": "3"}]], "messages": []}},
         "the timestamps of p0.Main.run in 'facts' must be integers of at least 1"),
        ({"facts": {"methods": [["p0", "Main", "run", 1, 9, {"p9": 3}]], "messages": []}},
         "p0.Main.run in 'facts' names process 'p9', which 'processes' does not list"),
        ({"facts": {"methods": [], "messages": [["p0", "p1", "2"]]}},
         "'messages' of 'facts' must be a list of [from, to, count]"),
        ({"facts": {"methods": [], "messages": [["p0", "p1", 10**400]]}},
         "'messages' of 'facts' must be a list of [from, to, count]"),
    ], ids=["deps-files-list", "deps-file-number", "no-deps-files", "no-bundle",
            "bundle-number", "no-facts", "method-of-five", "lr-fraction",
            "reach-ts-string", "reach-unknown-process", "message-count-string",
            "message-count-beyond-float"])
    def test_bad_run_manifest_exit_3_names_it(self, tmp_path, capsys, change, message):
        sim = run_sim(tmp_path)
        run = TestTuneAndQuery().run_tune(tmp_path, sim, pin_config="111111")
        path = run / "run.json"
        data = {**json.loads(path.read_text()), **change}
        path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
        capsys.readouterr()
        for argv in (["query", "--method", "Main.run"], ["metrics"]):
            assert main([*argv, "--run", str(run)]) == 3
            assert capsys.readouterr().err == f"error: bad input data: {path}: {message}\n"

    def test_unstamped_bundle_exit_3_before_any_output(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        for trace in (sim / "traces").glob("*.trace"):
            records = [json.loads(line) for line in trace.read_text().splitlines()]
            trace.write_text("".join(
                json.dumps({k: v for k, v in r.items() if k != "ts"}) + "\n"
                for r in records
            ))
        expected = f"error: {sim / 'traces' / 'p0.trace'}:1: trace of p0 is not stamped\n"
        assert self.tune(sim, tmp_path / "run", "--budget", "1000") == 3
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "run").exists()
        assert main([
            "flowpaths", "--bundle", str(sim / "traces"), "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"), "--out", str(tmp_path / "flows"),
        ]) == 3
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "flows").exists()

    @pytest.mark.parametrize("stamps", [None, [None, 5, 3]], ids=["one-line", "gap-then-fall"])
    def test_partly_stamped_trace_exit_3_names_its_file(self, tmp_path, capsys, stamps):
        """A trace with one event without ``ts`` is refused as not stamped,
        naming its file and the line of that event, before any output:
        ``p1.trace`` with the ``ts`` of its second line dropped, or cut to
        three lines stamped (none, 5, 3), whose stamps are not compared
        since one is missing."""
        sim = run_sim(tmp_path)
        trace = sim / "traces" / "p1.trace"
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        if stamps is None:
            del records[1]["ts"]
        else:
            records = records[:len(stamps)]
            for record, ts in zip(records, stamps):
                record["ts"] = ts
                if ts is None:
                    del record["ts"]
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        line = 2 if stamps is None else 1
        expected = f"error: {trace}:{line}: trace of p1 is not stamped\n"
        assert self.tune(sim, tmp_path / "run", "--budget", "1000") == 3
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "run").exists()
        assert main([
            "flowpaths", "--bundle", str(sim / "traces"), "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"), "--out", str(tmp_path / "flows"),
        ]) == 3
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "flows").exists()

    @pytest.mark.parametrize("vulns,message", [
        ({"entries": 5}, "'entries' must be a list of [cvss, years]"),
        ({"entries": [[1]]}, "'entries' must be a list of [cvss, years]"),
        ({"entries": [["5.0", 10]]}, "'entries' must be a list of [cvss, years]"),
        ({"n_non_nvd": [1]}, "'n_non_nvd' must be an integer"),
        ({"n_non_nvd": 10**400}, "'n_non_nvd' must be an integer"),
        ({"entries": [[5.0, float("inf")]]}, "'entries' must be a list of [cvss, years]"),
        ({"entries": [[10**400, 1]]}, "'entries' must be a list of [cvss, years]"),
    ], ids=["entries-number", "entry-of-one", "cvss-string", "count-list",
            "count-beyond-float", "years-infinity", "cvss-beyond-float"])
    def test_bad_vulns_exit_3_names_file(self, tmp_path, capsys, vulns, message):
        bad = tmp_path / "vulns.json"
        bad.write_text(json.dumps(vulns))
        assert main(["quality", "--vulns", str(bad)]) == 3
        assert capsys.readouterr().err == f"error: bad input data: {bad}: {message}\n"

    NOT_POINTS = "features must be a list of lists of numbers"
    TOO_LARGE = "features too large: a squared distance or a coordinate sum overflows a float"

    @pytest.mark.parametrize("features,message", [
        ({"a": [1.0, 2.0], "b": [3.0, 4.0]}, NOT_POINTS),
        ([1.0, 2.0], NOT_POINTS),
        ([[1.0, "x"], [2.0, 3.0]], NOT_POINTS),
        ([[float("nan"), 1], [2, 3], [4, 5]], NOT_POINTS),
        ([[1, float("-inf")], [2, 3], [4, 5]], NOT_POINTS),
        ([[10**400, 1], [2, 3], [4, 5]], NOT_POINTS),
        ([[1, 2], [3, 4], [5]], "points must share dimensionality"),
        # finite coordinates whose squared distances overflow a float
        ([[1e308, 1e308], [-1e308, -1e308], [0, 0]], TOO_LARGE),
        # near ones whose coordinate sums do: the centers would be infinite
        ([[1e308, 0], [1e308, 0], [1e308, 1], [1e308, 1]], TOO_LARGE),
    ], ids=["object", "numbers", "string-coordinate", "nan-coordinate",
            "infinite-coordinate", "coordinate-beyond-float", "ragged", "distances-overflow",
            "sums-overflow"])
    def test_bad_features_exit_3_names_file(self, tmp_path, capsys, features, message):
        bad = tmp_path / "features.json"
        bad.write_text(json.dumps(features))
        assert main(["classify", "--features", str(bad)]) == 3
        assert capsys.readouterr().err == f"error: bad input data: {bad}: {message}\n"

    @pytest.mark.parametrize("side", ["ipc", "quality"])
    @pytest.mark.parametrize("row", [
        5, [1, 2, "x", 4], [1, True, 3, 4], None,
        [1, float("nan"), 3, 4], [1, 2, float("inf"), 4], [10**400, 2, 3, 4],
    ], ids=["number", "string-member", "boolean-member", "list-file", "nan-member",
            "infinite-member", "member-beyond-float"])
    def test_bad_correlate_rows_exit_3_names_file(self, tmp_path, capsys, side, row):
        # row None: the file holds the list of rows instead of an object
        ipc, quality = correlate_rows(4, 11)
        files = {"ipc": ipc, "quality": quality}
        name = IPC_METRICS[0] if side == "ipc" else "exec_time"
        files[side] = (
            list(files[side].values()) if row is None else {**files[side], name: row}
        )
        paths = {key: tmp_path / f"{key}.json" for key in files}
        for key, data in files.items():
            paths[key].write_text(json.dumps(data))
        argv = ["correlate", "--ipc", str(paths["ipc"]), "--quality", str(paths["quality"])]
        assert main(argv) == 3
        message = (
            "not a JSON object" if row is None
            else "must map each metric name to a list of numbers"
        )
        assert capsys.readouterr().err == (
            f"error: bad input data: {paths[side]}: {message}\n"
        )

    @staticmethod
    def json_file_and_argv(tmp_path: Path, kind: str) -> tuple[Path, list[str]]:
        """The JSON input file of ``kind`` in a fresh simulated setting, and
        the command line that reads it."""
        sim = run_sim(tmp_path)
        (tmp_path / "run").mkdir()
        ipc, quality = tmp_path / "ipc.json", tmp_path / "quality.json"
        ipc.write_text(json.dumps(correlate_rows(4, 11)[0]))
        quality.write_text(json.dumps(correlate_rows(4, 11)[1]))
        bad = {
            "run": tmp_path / "run" / "run.json",
            "ipc": ipc,
            "quality": quality,
            "trace-manifest": sim / "traces" / "manifest.json",
            "graph-manifest": sim / "graphs" / "manifest.json",
        }.get(kind, tmp_path / "bad.json")
        tune = [
            "tune", "--bundle", str(sim / "traces"), "--graphs", str(sim / "graphs"),
            "--tc", "4", "--budget", "1000", "--out", str(tmp_path / "o"),
        ]
        argv = {
            "scenario": ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")],
            "config": [
                "flowpaths", "--bundle", str(sim / "traces"),
                "--graphs", str(sim / "graphs"), "--config", str(bad),
                "--out", str(tmp_path / "o"),
            ],
            "run": ["query", "--run", str(tmp_path / "run"), "--method", "Main.run"],
            "depdata": ["metrics", "--depdata", str(bad)],
            "vulns": ["quality", "--vulns", str(bad)],
            "features": ["classify", "--features", str(bad)],
            "ipc": ["correlate", "--ipc", str(ipc), "--quality", str(quality)],
            "quality": ["correlate", "--ipc", str(ipc), "--quality", str(quality)],
            "cost-model": [*tune, "--cost-model", str(bad)],
            "trace-manifest": tune,
            "graph-manifest": tune,
        }[kind]
        return bad, argv

    @pytest.mark.parametrize("kind", [
        "scenario", "config", "run", "depdata", "vulns", "features", "ipc",
        "quality", "cost-model", "trace-manifest", "graph-manifest",
    ])
    def test_invalid_json_exit_3_names_file(self, tmp_path, capsys, kind):
        bad, argv = self.json_file_and_argv(tmp_path, kind)
        bad.write_text("{not json")
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {bad}: Expecting property name enclosed in double quotes:"
            " line 1 column 2 (char 1)\n"
        )

    @needs_digit_limit
    @pytest.mark.parametrize("kind", [
        "scenario", "config", "run", "depdata", "vulns", "features", "ipc",
        "quality", "cost-model", "trace-manifest", "graph-manifest",
    ])
    def test_overlong_integer_exit_3_names_file(self, tmp_path, capsys, kind):
        """An integer past the interpreter's digit limit is a data error
        that names the file, as a decode error does."""
        bad, argv = self.json_file_and_argv(tmp_path, kind)
        bad.write_text('{"n": %s}' % OVERLONG)
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: bad input data: {bad}: {overlong_message()}\n"
        )

    @pytest.mark.parametrize("cfg,member", [
        ({"sources": "p0.Main.run.s2", "sinks": []}, "'sources'"),
        ({"sources": [], "sinks": {"p1.Srv.consume.s1": 1}}, "'sinks'"),
        ({"sources": ["p0.Main.run.s2", 7], "sinks": []}, "'sources'"),
        ({"sources": None}, "'sources'"),
    ], ids=["string", "object", "non-string-member", "null"])
    def test_config_member_not_a_string_list_exit_3(self, tmp_path, capsys, cfg, member):
        sim = run_sim(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main([
            "flowpaths", "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"), "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: bad input data: {bad}: {member} must be a list of strings\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", [
        "features", "ipc", "trace", "graph", "deps", "paths-report",
    ])
    def test_non_utf8_file_exit_3_names_it(self, tmp_path, capsys, kind):
        sim = run_sim(tmp_path)
        run = TestTuneAndQuery().run_tune(tmp_path, sim, pin_config="111111")
        ipc, quality = tmp_path / "ipc.json", tmp_path / "quality.json"
        for path, rows in zip((ipc, quality), correlate_rows(4, 11)):
            path.write_text(json.dumps(rows))
        bad = {
            "ipc": ipc,
            "trace": sim / "traces" / "p0.trace",
            "graph": sim / "graphs" / "graph_11.txt",
            "deps": run / "deps_p0.txt",
        }.get(kind, tmp_path / "bad.txt")
        bad.write_bytes(b"\xff" + (bad.read_bytes() if bad.exists() else b"[]"))
        tune = ["--budget", "100000", "--pin-config", "111111"]
        argv = {
            "features": ["classify", "--features", str(bad)],
            "ipc": ["correlate", "--ipc", str(ipc), "--quality", str(quality)],
            "trace": ["tune", "--bundle", str(sim / "traces"), "--graphs", str(sim / "graphs"),
                      *tune, "--out", str(tmp_path / "o")],
            "graph": ["tune", "--bundle", str(sim / "traces"), "--graphs", str(sim / "graphs"),
                      *tune, "--out", str(tmp_path / "o")],
            "deps": ["query", "--run", str(run), "--method", "Main.run"],
            "paths-report": ["quality", "--paths-report", str(bad)],
        }[kind]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: bad input data: {bad}: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n"
        )

    @pytest.mark.parametrize("change,message", [
        ({"topology": None}, "no 'topology'"),
        ({"seed": "x"}, "'seed' must be an integer, got 'x'"),
        ({"seed": None}, "'seed' must be an integer, got None"),
        ({"length": [80]}, "'length' must be an integer, got [80]"),
        ({"tiers": "three"}, "'tiers' must be an integer, got 'three'"),
        ({"length": float("inf")}, "'length' must be an integer, got inf"),
        ({"seed": 2.9}, "'seed' must be an integer, got 2.9"),
        ({"length": True}, "'length' must be an integer, got True"),
        ({"tiers": "7"}, "'tiers' must be an integer, got '7'"),
    ], ids=["no-topology", "seed-string", "seed-null", "length-list", "tiers-string",
            "length-infinity", "seed-fraction", "length-boolean", "tiers-digits"])
    def test_bad_scenario_member_exit_3_names_file_and_key(
        self, tmp_path, capsys, change, message
    ):
        data = {"topology": "n_tier", "tiers": 3, "seed": 0, "length": 90, **change}
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(
            {k: v for k, v in data.items() if k != "topology" or v is not None}
        ))
        code = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == f"error: bad input data: {scen}: {message}\n"

    def test_correlate_rows_of_unequal_length_exit_3_names_files(self, tmp_path, capsys):
        ipc, quality = tmp_path / "ipc.json", tmp_path / "quality.json"
        ipc.write_text(json.dumps(correlate_rows(4, 11)[0]))
        quality.write_text(json.dumps({"exec_time": [1.0, 2.0, 3.0]}))
        assert main(["correlate", "--ipc", str(ipc), "--quality", str(quality)]) == 3
        assert capsys.readouterr().err == (
            f"error: bad input data: {quality}: 'exec_time' has 3 values,"
            f" but {ipc}: 'RMC' has 4\n"
        )

    def test_correlate_rows_too_short_exit_3_names_file(self, tmp_path, capsys):
        ipc, quality = tmp_path / "ipc.json", tmp_path / "quality.json"
        ipc.write_text(json.dumps(correlate_rows(2, 11)[0]))
        quality.write_text(json.dumps({"exec_time": [1.0, 2.0]}))
        out = tmp_path / "matrix.txt"
        argv = ["correlate", "--ipc", str(ipc), "--quality", str(quality), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: bad input data: {quality}: 'exec_time' has 2 values,"
            " but a correlation needs at least 3 observations\n"
        )
        assert not out.exists()

    def test_bad_method_in_deps_file_exit_3_names_file_and_line(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        run = TestTuneAndQuery().run_tune(tmp_path, sim, pin_config="111111")
        deps = run / "deps_p0.txt"
        intact = deps.read_text()
        lineno = len(intact.splitlines()) + 1
        for line, message in (
            ("dep a.b p0.Main.run", "method must be process.Class.method, got 'a.b'"),
            ("dep p0..run p0.Main.run", "MethodId fields must be non-empty"),
            ("dep p0.Main.run",
             "expected 'dep <method> <method>', got 'dep p0.Main.run'"),
            ("p0.Main.run p0.Main.run",
             "expected 'dep <method> <method>', got 'p0.Main.run p0.Main.run'"),
        ):
            deps.write_text(f"{intact}{line}\n")
            capsys.readouterr()
            for argv in (["query", "--method", "Main.run"], ["metrics"]):
                assert main([*argv, "--run", str(run)]) == 3
                assert capsys.readouterr().err == (
                    f"error: bad input data: {deps}:{lineno}: {message}\n"
                )

    def test_missing_variant_fails_only_when_a_round_computes(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        manifest = sim / "graphs" / "manifest.json"
        data = json.loads(manifest.read_text())
        del data["variants"]["11"]
        manifest.write_text(json.dumps(data))
        # a budget of 5 cancels every construction, so no round computes
        assert self.tune(sim, tmp_path / "small", "--budget", "5", "--pin-config", "111111") == 0
        logs = sorted((tmp_path / "small").glob("rounds_*.log"))
        assert logs
        for log in logs:
            lines = log.read_text().splitlines()
            assert lines == [f"round {i} 111111 4 5 timeout" for i in range(len(lines))]
            assert lines
        capsys.readouterr()
        code = self.tune(sim, tmp_path / "big", "--budget", "100000", "--pin-config", "111111")
        assert code == 4
        assert capsys.readouterr().err == (
            "error: no static graph variant for sensitivities (True, True)\n"
        )

    DEP_OK = {
        "executed": ["p.K.a", "p.K.b", "q.K.a"],
        "local": {"p.K.a": ["p.K.b"]},
        "remote": {"p.K.a": ["q.K.a"]},
        "messages": [["p", "q", 4]],
    }

    @pytest.mark.parametrize("change,message", [
        ({"local": {"p.K.a": 5}}, "local['p.K.a'] must be a list of strings"),
        ({"executed": "p.K.a"}, "'executed' must be a list of strings"),
        ({"executed": ["p.K.a", 3]}, "'executed' must be a list of strings"),
        ({"executed": None}, "'executed' must be a list of strings"),
        ({"executed": ["p.K"]}, "method must be process.Class.method, got 'p.K'"),
        ({"remote": ["p.K.a"]}, "'remote' must map each method to a list"),
        ({"remote": {"p.K.a": [None]}}, "remote['p.K.a'] must be a list of strings"),
        ({"messages": [["p", "q"]]}, "'messages' must be a list of [from, to, count]"),
        ({"messages": [["p", "q", "4"]]}, "'messages' must be a list of [from, to, count]"),
        ({"messages": [["p", "q", None]]}, "'messages' must be a list of [from, to, count]"),
        ({"messages": {"p": "q"}}, "'messages' must be a list of [from, to, count]"),
        ({"messages": ["pq4"]}, "'messages' must be a list of [from, to, count]"),
        ({"messages": [["p", "q", 10**400]]}, "'messages' must be a list of [from, to, count]"),
    ], ids=["local-not-list", "executed-string", "executed-number", "executed-null",
            "bad-method", "remote-list", "remote-null", "message-pair",
            "message-string-count", "message-null-count", "messages-object",
            "message-string", "message-count-beyond-float"])
    def test_bad_depdata_member_exit_3_names_file(self, tmp_path, capsys, change, message):
        bad = tmp_path / "dep.json"
        bad.write_text(json.dumps({**self.DEP_OK, **change}))
        assert main(["metrics", "--depdata", str(bad)]) == 3
        assert capsys.readouterr().err == f"error: bad input data: {bad}: {message}\n"

    def test_depdata_without_optional_members_accepted(self, tmp_path, capsys):
        f = tmp_path / "dep.json"
        f.write_text(json.dumps({"executed": self.DEP_OK["executed"]}))
        assert main(["metrics", "--depdata", str(f)]) == 0

    def test_simulate_config_has_no_msg_apis(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        assert sorted(json.loads((sim / "config.json").read_text())) == [
            "sinks", "sources",
        ]

    def test_old_config_with_msg_apis_loads(self, tmp_path, capsys):
        sim = run_sim(tmp_path, topology="n_tier", tiers=3, seed=2, length=100)
        cfg = json.loads((sim / "config.json").read_text())
        old = tmp_path / "old_config.json"
        old.write_text(json.dumps({**cfg, "msg_apis": ["net.send", "net.recv"]}))
        outs = {}
        for name, config in (("new", sim / "config.json"), ("old", old)):
            assert main([
                "flowpaths",
                "--bundle", str(sim / "traces"),
                "--graphs", str(sim / "graphs"),
                "--config", str(config),
                "--out", str(tmp_path / name),
            ]) == 0
            outs[name] = tree_bytes(tmp_path / name)
        assert outs["old"] == outs["new"]
        assert "interprocess_paths 0\n" not in outs["new"]["summary.txt"].decode()


class TestOutputFiles:
    """Outputs are rewritten in place; an unwritable output path is a
    usage error naming the path."""

    DEP = {"executed": ["p.K.a", "q.K.a"], "remote": {"p.K.a": ["q.K.a"]},
           "messages": [["p", "q", 4]]}

    def depdata(self, tmp_path) -> Path:
        f = tmp_path / "dep.json"
        f.write_text(json.dumps(self.DEP))
        return f

    def flowpaths(self, sim, out, *flags):
        return main([
            "flowpaths",
            "--bundle", str(sim / "traces"),
            "--graphs", str(sim / "graphs"),
            "--config", str(sim / "config.json"),
            "--out", str(out), *flags,
        ])

    def test_shorter_rerun_leaves_no_stale_tail_and_keeps_inodes(self, tmp_path, capsys):
        sim = run_sim(tmp_path, topology="n_tier", tiers=3, seed=2, length=100)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert self.flowpaths(sim, out) == 0
        inodes = {p.name: p.stat().st_ino for p in out.iterdir()}
        limits = ("--path-limit", "1", "--stmt-path-limit", "1")
        assert self.flowpaths(sim, out, *limits) == 0
        assert self.flowpaths(sim, fresh, *limits) == 0
        assert tree_bytes(out) == tree_bytes(fresh)
        assert {p.name: p.stat().st_ino for p in out.iterdir()} == inodes

    def test_simulate_rerun_shorter_equals_fresh_run(self, tmp_path, capsys):
        run_sim(tmp_path, "sim", length=90)
        shorter = write_scenario(tmp_path / "short.json", length=30)
        for out in (tmp_path / "sim", tmp_path / "fresh"):
            assert main(["simulate", "--scenario", str(shorter), "--out", str(out)]) == 0
        assert tree_bytes(tmp_path / "sim") == tree_bytes(tmp_path / "fresh")

    def test_metrics_out_dev_null_exit_0(self, tmp_path, capsys):
        assert main(["metrics", "--depdata", str(self.depdata(tmp_path)),
                     "--out", os.devnull]) == 0
        assert "4.0000" in capsys.readouterr().out

    def test_metrics_out_dev_stdout_into_a_pipe(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        r = subprocess.run(
            [sys.executable, "-m", "crossflow.cli", "metrics",
             "--depdata", str(self.depdata(tmp_path)), "--out", "/dev/stdout"],
            env=child_env(PYTHONPATH=src), capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        # the report goes to the file first, then to stdout
        half = len(r.stdout) // 2
        assert "4.0000" in r.stdout and r.stdout == r.stdout[:half] * 2

    def test_flowpaths_out_is_a_file_exit_2(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        capsys.readouterr()
        assert self.flowpaths(sim, out) == 2
        assert capsys.readouterr().err == f"error: {out}: File exists\n"
        assert out.read_text() == "not a directory\n"

    def test_flowpaths_out_under_a_file_exit_2(self, tmp_path, capsys):
        sim = run_sim(tmp_path)
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "flows"
        capsys.readouterr()
        assert self.flowpaths(sim, out) == 2
        assert capsys.readouterr().err == f"error: {out}: Not a directory\n"

    def test_metrics_out_is_a_directory_exit_2(self, tmp_path, capsys):
        assert main(["metrics", "--depdata", str(self.depdata(tmp_path)),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    def test_config_is_a_directory_exit_2(self, tmp_path, capsys):
        """Input paths fall under the same rule as output paths."""
        sim = run_sim(tmp_path)
        capsys.readouterr()
        assert main([
            "flowpaths", "--bundle", str(sim / "traces"), "--graphs", str(sim / "graphs"),
            "--config", str(sim), "--out", str(tmp_path / "flows"),
        ]) == 2
        assert capsys.readouterr().err == f"error: {sim}: Is a directory\n"

    REFUSED_WRITE = (
        "import resource, signal, sys\n"
        "from crossflow.cli import main\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (2048, 2048))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_FSIZE and SIGXFSZ as on Linux")
    @pytest.mark.parametrize("command", ["simulate", "flowpaths"])
    def test_refused_write_exit_2_names_the_file(self, tmp_path, capsys, command):
        """A write the system refuses part-way (a file-size limit here, as
        a full disk would) ends the command with exit 2 and a message
        naming the file, which holds the bytes that reached it and none of
        its old, longer tail."""
        sim = run_sim(tmp_path, topology="n_tier", tiers=4, seed=1, length=300)
        out = tmp_path / "out"
        argv = ["simulate", "--scenario", str(tmp_path / "sim.json"), "--out", str(out)]
        if command == "flowpaths":
            argv = ["flowpaths", "--bundle", str(sim / "traces"), "--graphs", str(sim / "graphs"),
                    "--config", str(sim / "config.json"), "--out", str(out)]
        assert main(argv) == 0
        full = tree_bytes(out)
        for name, data in full.items():
            (out / name).write_bytes(data + b"an old tail\n" * 200)
        src = str(Path(__file__).resolve().parents[1] / "src")
        r = subprocess.run([sys.executable, "-c", self.REFUSED_WRITE, *argv],
                           env=child_env(PYTHONPATH=src), capture_output=True, text=True)
        assert r.returncode == 2, r.stderr
        refused = re.fullmatch(r"error: (.+): File too large\n", r.stderr)
        assert refused, r.stderr
        path = Path(refused[1])
        assert path.read_bytes() == full[str(path.relative_to(out))][:2048]

    def test_error_without_a_path_exit_2(self, tmp_path, capsys, monkeypatch):
        def denied(path, text):
            raise PermissionError("no writes here")

        monkeypatch.setattr(cli, "write_output", denied)
        assert main(["metrics", "--depdata", str(self.depdata(tmp_path)),
                     "--out", str(tmp_path / "report.txt")]) == 2
        assert capsys.readouterr().err == "error: no writes here\n"

    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch):
        """A denied write (which a root user never meets on a mode-0500
        directory) is a usage error naming the path."""
        def denied(path, text):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        monkeypatch.setattr(cli, "write_output", denied)
        out = tmp_path / "report.txt"
        assert main(["metrics", "--depdata", str(self.depdata(tmp_path)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}: Permission denied\n"


@pytest.mark.parametrize("scenario, truncated", [
    (CHAIN7_SCENARIO, True),
    ({"topology": "n_tier", "tiers": 5, "seed": 1, "length": 1000}, False),
], ids=["chain7-capped", "chain5-uncapped"])
def test_phase1_counts_agree(tmp_path, capsys, monkeypatch, scenario, truncated):
    # summary.txt's phase1_paths, the PathSet's length and the lines of
    # phase1.txt are three counts of one report, capped or not
    sim = run_sim(tmp_path, **scenario)
    results = []
    analyze = cli.analyze_flows
    monkeypatch.setattr(
        cli, "analyze_flows", lambda *a, **kw: results.append(analyze(*a, **kw)) or results[-1]
    )
    out = tmp_path / "fp"
    assert main([
        "flowpaths",
        "--bundle", str(sim / "traces"),
        "--graphs", str(sim / "graphs"),
        "--config", str(sim / "config.json"),
        "--out", str(out),
    ]) == 0
    [result] = results
    assert result.phase1.truncated == truncated
    counts = dict(line.split() for line in (out / "summary.txt").read_text().splitlines())
    text = (out / "phase1.txt").read_bytes()
    n = int(counts["phase1_paths"])
    assert n == len(result.phase1.paths) == text.count(b"\n") == len(text.splitlines()) > 0
    assert counts["phase1_truncated"] == str(int(truncated))
