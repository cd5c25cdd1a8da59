"""Seeded mutation fuzz of every command's input files: no traceback.

One small simulated setting (a bundle, its graph files and config, a tune
output with its cost model, and the JSON inputs of ``metrics --depdata``,
``quality``, ``correlate`` and ``classify``) is made once.  Each example
mutates one input file in place (one JSON value replaced, one token
replaced, one line deleted or duplicated), runs every command that reads
the file through ``main`` under an alarm, and puts the file back.  Every
run must end with exit 0, 2 or 3 (a refusal with exactly one ``error:``
line) and never raise; the one other exit that bad input has is 4 in the
two cases that ``DOCUMENTED_EXIT_4`` names.  Scenario files are not
mutated: a valid scenario may ask for a program of any size.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from crossflow.cli import main
from crossflow.metrics import IPC_METRICS

ALARM_S = 20

# the input files whose content can end a command with exit 4, and its
# error: a graph manifest without the variant that a tune round needs, and
# features with fewer than two distinct points
DOCUMENTED_EXIT_4 = {
    "sim/graphs/manifest.json": "error: no static graph variant",
    "features.json": "error: k-means with k=2 needs two distinct points",
}

# one JSON value of any type, the edge cases of each included
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(),
        st.sampled_from([0, 1, -1, 2**53 + 1, 10**400, 1e308, 0.5]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(["", "x", "p0", "send", "entry", "01", "11", "Main.run"]),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(
        ["a", "p0", "p1", "methods", "messages", "variants"]), inner, max_size=2),
    max_leaves=4,
)
TOKENS = st.sampled_from([
    "", "{", "}", "[", "]", ",", ":", '"', "null", "true", "-1", "0", "1e999",
    "18446744073709551617", '""', '"x"', "send", "recv", "node", "edge", "cfg",
    "bogus", "p9", "dep",
])


def _setting(root: Path) -> dict[str, list[list[str]]]:
    """Make the inputs under ``root``; map each input file, relative to
    ``root``, to the command lines that read it."""
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(
        {"topology": "n_tier", "tiers": 3, "seed": 2, "length": 60}
    ))
    assert main(["simulate", "--scenario", str(scenario), "--out", str(root / "sim")]) == 0
    sim = root / "sim"
    tune = [
        "tune", "--bundle", str(sim / "traces"), "--graphs", str(sim / "graphs"),
        "--budget", "100000", "--tc", "4", "--cost-model", str(root / "costs.json"),
    ]
    (root / "costs.json").write_text(json.dumps({"mode": "synthetic", "compute_base": 1.5}))
    assert main([*tune, "--out", str(root / "run")]) == 0
    flows = [
        "flowpaths", "--bundle", str(sim / "traces"), "--graphs", str(sim / "graphs"),
        "--config", str(sim / "config.json"),
    ]
    run = ["--run", str(root / "run")]
    reads_run = [["query", *run, "--method", "Main.run"], ["metrics", *run]]
    reads_bundle = [flows, tune]
    (root / "dep.json").write_text(json.dumps({
        "executed": ["p.K.a", "p.K.b", "q.K.a"], "local": {"p.K.a": ["p.K.b"]},
        "remote": {"p.K.a": ["q.K.a"]}, "messages": [["p", "q", 4]],
    }, indent=1))
    (root / "vulns.json").write_text(json.dumps(
        {"n_non_nvd": 2, "entries": [[5.0, 3], [7.5, 1]]}, indent=1
    ))
    (root / "features.json").write_text(json.dumps(
        [[0, 1], [0.5, 1], [9, 9], [8, 9.5]], indent=1
    ))
    (root / "ipc.json").write_text(json.dumps({
        name: [float((i * 3 + k) % 7) for i in range(5)]
        for k, name in enumerate(IPC_METRICS)
    }, indent=1))
    (root / "quality.json").write_text(json.dumps(
        {"exec_time": [1.0, 3.0, 2.0, 5.0, 4.0]}, indent=1
    ))
    correlate = [["correlate", "--ipc", str(root / "ipc.json"),
                  "--quality", str(root / "quality.json")]]
    inputs = {
        "sim/traces/manifest.json": reads_bundle,
        "sim/graphs/manifest.json": reads_bundle,
        "sim/config.json": [flows],
        "costs.json": [tune],
        "run/run.json": reads_run,
        "run/deps_p0.txt": reads_run,
        "dep.json": [["metrics", "--depdata", str(root / "dep.json")]],
        "vulns.json": [["quality", "--vulns", str(root / "vulns.json")]],
        "features.json": [["classify", "--features", str(root / "features.json")]],
        "ipc.json": correlate,
        "quality.json": correlate,
    }
    for trace in sorted((sim / "traces").glob("*.trace")):
        inputs[str(trace.relative_to(root))] = reads_bundle
    for graph in sorted((sim / "graphs").glob("graph_*.txt")):
        inputs[str(graph.relative_to(root))] = reads_bundle
    return inputs


@pytest.fixture(scope="module")
def setting(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, _setting(root)


def _replace_value(data, draw):
    """``data`` with one of its values, or itself, replaced by a drawn
    JSON value."""
    nodes = [(None, None)]
    stack = [data]
    while stack:
        node = stack.pop()
        members = node.items() if isinstance(node, dict) else enumerate(node) \
            if isinstance(node, list) else ()
        for key, value in members:
            nodes.append((node, key))
            stack.append(value)
    parent, key = draw(st.sampled_from(nodes))
    value = draw(JSON_VALUES)
    if parent is None:
        return value
    parent[key] = value
    return data


def _mutate(text: str, draw) -> str:
    """``text`` with one drawn edit: a JSON value replaced (for a JSON file,
    or a JSON line of a trace), a token replaced, or a line deleted or
    duplicated."""
    lines = text.split("\n")
    kind = draw(st.sampled_from(["value", "token", "delete", "duplicate"]))
    i = draw(st.integers(0, max(len(lines) - 2, 0)))
    if kind == "value":
        try:
            whole = json.loads(text)
        except ValueError:
            whole = None
        if whole is not None:
            return json.dumps(_replace_value(whole, draw), indent=1)
        try:
            lines[i] = json.dumps(_replace_value(json.loads(lines[i]), draw))
            return "\n".join(lines)
        except ValueError:
            kind = "token"
    if kind == "token":
        spans = [m.span() for m in re.finditer(r'"[^"]*"|[\w.+-]+|[^\w\s]', text)]
        if not spans:
            return text
        start, end = draw(st.sampled_from(spans))
        return text[:start] + draw(TOKENS) + text[end:]
    if kind == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines)


def _timeout(signum, frame):
    raise TimeoutError(f"a command ran past {ALARM_S} s")


# 150 examples take under 2 s, and find a traceback at four of the seeds
# 1-5 when trace records are read without their string-field checks
@settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@seed(1)
@given(data=st.data())
def test_mutated_input_exits_0_2_or_3_without_traceback(setting, data, capsys):
    root, inputs = setting
    name = data.draw(st.sampled_from(sorted(inputs)), label="file")
    path = root / name
    intact = path.read_bytes()
    mutated = _mutate(intact.decode(), data.draw)
    out = root / "out"
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        path.write_text(mutated)
        for argv in inputs[name]:
            capsys.readouterr()
            if argv[0] in ("tune", "flowpaths"):
                argv = [*argv, "--out", str(out)]
            signal.alarm(ALARM_S)
            try:
                code = main(argv)
            finally:
                signal.alarm(0)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert code in (0, 2, 3) or (
                code == 4 and err.startswith(DOCUMENTED_EXIT_4.get(name, "\0"))
            ), (name, argv[0], code, err)
            if code:
                assert [line[:6] for line in err.splitlines()] == ["error:"], err
            shutil.rmtree(out, ignore_errors=True)
    finally:
        signal.signal(signal.SIGALRM, previous)
        path.write_bytes(intact)
