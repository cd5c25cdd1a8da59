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
    """
    if not dep.executed:
        empty: dict = {}
        return IpcReport(0, 0, 0, 0, 0, 0, empty, empty, empty, empty, empty, empty,
                         empty_execution=True)

    executed = dep.executed
    by_class: dict[tuple[str, str], set[MethodId]] = {}
    by_process: dict[str, set[MethodId]] = {}
    for m in sorted(executed, key=MethodId.sort_key):
        by_class.setdefault((m.process, m.class_name), set()).add(m)
        by_process.setdefault(m.process, set()).add(m)

    # RMC: messages per ordered process pair; mean over communicating pairs
    process_rmc = {pair: float(n) for pair, n in dep.messages.items() if n > 0}
    rmc = _mean(process_rmc.values())

    # IPR: overlap of local and remote dependents by code identity
    method_ipr = {}
    for m in sorted(executed, key=MethodId.sort_key):
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

    # RCC at class-pair level, aggregated to CCC per class and RCC per process
    def class_pair_rcc(c1: tuple[str, str], c2: tuple[str, str]) -> float:
        c1_methods = by_class[c1]
        c2_methods = by_class[c2]
        if table_rcc:
            dependents_of_c1 = set().union(*(dep.remote(m) for m in c1_methods))
            num = len(dependents_of_c1 & c2_methods)
            dependents_of_c2 = set().union(*(dep.remote(m) for m in c2_methods))
            den = len({d for d in dependents_of_c2 if d.process != c1[0]})
        else:
            num = sum(
                1 for m in c1_methods if dep.remote(m) & c2_methods
            )
            den = len(set().union(*(dep.remote(m) for m in c1_methods)))
        return num / den if den else 0.0

    class_ccc = {}
    for c1 in by_class:
        total = 0.0
        for c2 in by_class:
            if c2[0] == c1[0]:
                continue
            total += class_pair_rcc(c1, c2)
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
    significant cells flagged with '*'."""
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
