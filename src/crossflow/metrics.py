"""Interprocess coupling/cohesion metrics and quality measures.

Dependence data comes as per-method local and remote dependent sets plus
message counts.  Six metrics are reported: message coupling (RMC), class
coupling between processes (RCC), aggregate class coupling (CCC), method
reuse (IPR), class communication load (CCL), and process cohesion (PLC).
System-level values are arithmetic means over each metric's constituent
level.  Quality scalars that cannot be computed from traces (execution time,
code churn, cyclomatic complexity, defect density) are ingested, never
computed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .trace import MethodId


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class DepData:
    """Per-method dependents, split local (same process) vs remote."""

    local_ds: Mapping[MethodId, frozenset[MethodId]]
    remote_ds: Mapping[MethodId, frozenset[MethodId]]
    executed: frozenset[MethodId]
    messages: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        for m, deps in self.local_ds.items():
            if not deps <= self.executed:
                raise MetricsError(f"local dependents of {m} not all executed")
            if any(d.process != m.process for d in deps):
                raise MetricsError(f"local dependents of {m} cross processes")
        for m, deps in self.remote_ds.items():
            if not deps <= self.executed:
                raise MetricsError(f"remote dependents of {m} not all executed")
            if any(d.process == m.process for d in deps):
                raise MetricsError(f"remote dependents of {m} share its process")

    def local(self, m: MethodId) -> frozenset[MethodId]:
        return self.local_ds.get(m, frozenset())

    def remote(self, m: MethodId) -> frozenset[MethodId]:
        return self.remote_ds.get(m, frozenset())


@dataclass(frozen=True)
class IpcReport:
    rmc: float
    rcc: float
    ccc: float
    ipr: float
    ccl: float
    plc: float
    process_rmc: Mapping[tuple[str, str], float]
    process_rcc: Mapping[str, float]
    class_ccc: Mapping[tuple[str, str], float]
    method_ipr: Mapping[MethodId, float]
    class_ccl: Mapping[tuple[str, str], float]
    process_plc: Mapping[str, float]
    empty_execution: bool = False

    def system_row(self) -> tuple[float, float, float, float, float, float]:
        return (self.rmc, self.rcc, self.ccc, self.ipr, self.ccl, self.plc)


def _mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def ipc_metrics(dep: DepData, table_rcc: bool = False) -> IpcReport:
    """Compute all six metrics from dependence data.

    ``table_rcc`` switches the class-coupling ratio to its tabular variant
    (dependents of the second class as the denominator basis).

    Each class's union of remote dependents (and, for the tabular
    variant, its member count per process) is built once and shared by
    every class pair, so the cost is O(Σ|remote dependents| + classes²),
    not a union per class pair.
    """
    if not dep.executed:
        empty: dict = {}
        return IpcReport(0, 0, 0, 0, 0, 0, empty, empty, empty, empty, empty, empty,
                         empty_execution=True)

    executed = dep.executed
    by_class: dict[tuple[str, str], set[MethodId]] = {}
    by_process: dict[str, set[MethodId]] = {}
    for m in sorted(executed):
        by_class.setdefault((m.process, m.class_name), set()).add(m)
        by_process.setdefault(m.process, set()).add(m)

    # RMC: messages per ordered process pair; mean over communicating pairs
    process_rmc = {pair: float(n) for pair, n in dep.messages.items() if n > 0}
    rmc = _mean(process_rmc.values())

    # IPR: overlap of local and remote dependents by code identity
    method_ipr = {}
    for m in sorted(executed):
        local_keys = {d.code_key for d in dep.local(m)}
        remote_keys = {d.code_key for d in dep.remote(m)}
        method_ipr[m] = len(local_keys & remote_keys) / len(executed)
    ipr = sum(method_ipr.values()) / len(executed)

    # CCL: remote-dependent volume per executed method of the class
    class_ccl = {
        cls: sum(len(dep.remote(m)) for m in methods) / len(methods)
        for cls, methods in by_class.items()
    }
    ccl = _mean(class_ccl.values())

    # PLC: local-dependent volume per executed method of the process
    process_plc = {
        proc: sum(len(dep.local(m)) for m in methods) / len(methods)
        for proc, methods in by_process.items()
    }
    plc = _mean(process_plc.values())

    # RCC at class-pair level, summed to CCC per class.  Pair (c1, c2), c2
    # in another process, is num / den.  Default: num counts c1's methods
    # with a remote dependent in c2, den is |union(c1)|.  Tabular: num is
    # |union(c1) & c2|, den counts union(c2) outside c1's process.
    class_of = {m: j for j, methods in enumerate(by_class.values()) for m in methods}
    unions = [
        set().union(*(dep.remote(m) for m in methods)) for methods in by_class.values()
    ]
    union_by_process = (
        [Counter(d.process for d in union) for union in unions] if table_rcc else []
    )

    class_ccc = {}
    for i, (c1, methods) in enumerate(by_class.items()):
        num = [0] * len(by_class)
        if table_rcc:
            for d in unions[i]:
                num[class_of[d]] += 1
        else:
            for m in methods:
                for j in {class_of[d] for d in dep.remote(m)}:
                    num[j] += 1
        # terms added in by_class order, zeros included, as the pairwise
        # definition adds them: the float sum depends on the order
        total = 0.0
        for j, c2 in enumerate(by_class):
            if c2[0] == c1[0]:
                continue
            if table_rcc:
                den = len(unions[j]) - union_by_process[j][c1[0]]
            else:
                den = len(unions[i])
            total += num[j] / den if den else 0.0
        class_ccc[c1] = total
    ccc = _mean(class_ccc.values())

    process_rcc = {}
    for proc, methods in by_process.items():
        remote_union = set().union(*(dep.remote(m) for m in methods))
        all_union = remote_union | set().union(*(dep.local(m) for m in methods))
        process_rcc[proc] = (
            len(remote_union) / len(all_union) if all_union else 0.0
        )
    rcc = _mean(process_rcc.values())

    return IpcReport(
        rmc=rmc, rcc=rcc, ccc=ccc, ipr=ipr, ccl=ccl, plc=plc,
        process_rmc=process_rmc,
        process_rcc=process_rcc,
        class_ccc=class_ccc,
        method_ipr=method_ipr,
        class_ccl=class_ccl,
        process_plc=process_plc,
    )


def attack_surface(
    n_endpoint_methods: int, n_ports: int, n_files: int, sloc: float
) -> float:
    """Euclidean magnitude of the (methods, channels, files) triple per SLOC."""
    if sloc <= 0:
        raise MetricsError("sloc must be positive")
    return math.sqrt(
        n_endpoint_methods**2 + n_ports**2 + n_files**2
    ) / sloc


def vulnerableness(
    n_non_nvd: int,
    entries: Sequence[tuple[float, float]],
    corrected: bool = False,
) -> float:
    """CVSS- and recency-weighted score.

    The printed formula weights each CVSS score by (100 - years/100); the
    corrected variant uses the (100 - years)/100 recency weight in [0, 1].
    """
    total = float(n_non_nvd)
    for cvss, years in entries:
        if cvss < 0 or years < 0:
            raise MetricsError("cvss and years must be non-negative")
        if corrected:
            total += cvss * (100.0 - years) / 100.0
        else:
            total += cvss * (100.0 - years / 100.0)
    return total


def path_stats(
    path_lengths: Sequence[int], ksloc: float
) -> tuple[float, float]:
    """(path count, mean path length), both normalized per KSLOC."""
    if ksloc <= 0:
        raise MetricsError("ksloc must be positive")
    if not path_lengths:
        return (0.0, 0.0)
    count = len(path_lengths) / ksloc
    mean_len = (sum(path_lengths) / len(path_lengths)) / ksloc
    return (count, mean_len)


QUALITY_METRICS = (
    "exec_time",
    "code_churn",
    "cyclomatic",
    "defect_density",
    "path_count",
    "path_length",
    "attack_surface",
    "vulnerableness",
)

IPC_METRICS = ("RMC", "RCC", "CCC", "IPR", "CCL", "PLC")


def render_ipc_report(report: IpcReport) -> str:
    header = "  ".join(f"{name:>10}" for name in IPC_METRICS)
    row = "  ".join(f"{v:10.4f}" for v in report.system_row())
    lines = [header, row]
    if report.empty_execution:
        lines.append("warning: empty execution, all metrics zero")
    return "\n".join(lines) + "\n"


def render_correlation_matrix(
    ipc_rows: Mapping[str, Sequence[float]],
    quality_rows: Mapping[str, Sequence[float]],
    spearman_fn,
) -> str:
    """Quality metrics (rows) against IPC metrics (columns): r (p) cells,
    significant cells flagged with '*'.  ``ipc_rows`` holds every metric
    of ``IPC_METRICS``."""
    lines = ["quality/ipc  " + "  ".join(f"{m:>16}" for m in IPC_METRICS)]
    for q_name in QUALITY_METRICS:
        if q_name not in quality_rows:
            continue
        cells = []
        for m_name in IPC_METRICS:
            res = spearman_fn(ipc_rows[m_name], quality_rows[q_name])
            if not res.defined():
                cells.append(f"{'nan':>16}")
            else:
                mark = "*" if res.significant else " "
                cells.append(f"{res.r:+.4f} ({res.p:.3f}){mark}"[:17].rjust(16))
        lines.append(f"{q_name:<12} " + "  ".join(cells))
    return "\n".join(lines) + "\n"
