"""CLI workflows: simulate, flowpaths, tune, query, metrics, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from crossflow.cli import main


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
        import subprocess

        scen = write_scenario(tmp_path / "s.json", topology="n_tier", tiers=3,
                              seed=4, length=110)
        outs = []
        for name, hashseed in (("h1", "1"), ("h2", "424242")):
            out = tmp_path / name
            env = {"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"}
            import os
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in __import__("sys").path if p
            )
            for argv in (
                ["simulate", "--scenario", str(scen), "--out", str(out / "sim")],
                ["tune", "--bundle", str(out / "sim" / "traces"),
                 "--graphs", str(out / "sim" / "graphs"),
                 "--budget", "100000", "--tc", "4", "--seed", "7",
                 "--out", str(out / "sd")],
                ["metrics", "--run", str(out / "sd"),
                 "--out", str(out / "metrics.txt")],
            ):
                r = subprocess.run(
                    ["python3", "-m", "crossflow.cli", *argv],
                    env=env, capture_output=True, text=True,
                )
                assert r.returncode == 0, r.stderr
            outs.append({
                k: v for k, v in tree_bytes(out).items()
                if not k.endswith("run.json")
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
