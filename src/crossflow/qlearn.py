"""Tabular Q-learning controller for configuration adjustment.

State and action are both analysis configurations; the table is dense over
the 26 valid configurations and starts at zero.  The Bellman update takes the
max over the whole table, matching the update rule as used by the
arbitration loop; ``next_state_max=True`` switches to the conventional rule
that maxes over the chosen action's row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .config import Configuration, valid_configurations

DEFAULT_REWARD_CAP = 1e9


@dataclass(frozen=True)
class LearnerParams:
    gamma: float = 0.9
    alpha: float = 0.9
    epsilon: float = 0.2

    def __post_init__(self) -> None:
        for name in ("gamma", "alpha", "epsilon"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@lru_cache(maxsize=1)
def _zero_values() -> dict[tuple[Configuration, Configuration], float]:
    """The all-zero table; only ever copied, never handed out."""
    actions = valid_configurations()
    return {(s, a): 0.0 for s in actions for a in actions}


class QTable:
    """Dense (state, action) -> expected reward over valid configurations.

    A new table is a copy of one all-zero table built once per process:
    copying a dict reuses its stored key hashes, where building it would
    hash all 676 configuration pairs again.
    """

    def __init__(self) -> None:
        self.values: dict[tuple[Configuration, Configuration], float] = (
            _zero_values().copy()
        )

    def max_value(self) -> float:
        return max(self.values.values())

    def row_max(self, state: Configuration) -> float:
        return max(
            self.values[(state, a)] for a in valid_configurations()
        )

    def dump(self) -> str:
        lines = [
            f"{s.encode()} {a.encode()} {v:.10g}"
            for (s, a), v in sorted(
                self.values.items(), key=lambda kv: (kv[0][0], kv[0][1])
            )
        ]
        return "\n".join(lines) + "\n"


def reward(budget: float, cost: float, cap: float = DEFAULT_REWARD_CAP) -> float:
    """1000 / (budget - cost); negative on overruns, capped at budget == cost."""
    if budget == cost:
        return cap
    value = 1000.0 / (budget - cost)
    return max(-cap, min(cap, value))


def update(
    table: QTable,
    state: Configuration,
    action: Configuration,
    r: float,
    params: LearnerParams,
    next_state_max: bool = False,
) -> QTable:
    state.require_valid()
    action.require_valid()
    best = table.row_max(action) if next_state_max else table.max_value()
    vq = table.values[(state, action)]
    table.values[(state, action)] = vq + params.alpha * (
        r + params.gamma * best - vq
    )
    return table


def greedy_action(table: QTable, state: Configuration) -> Configuration:
    """Argmax-valued action with deterministic lowest-encoding tiebreak."""
    actions = valid_configurations()  # in encoding order
    best = max(table.values[(state, a)] for a in actions)
    for a in actions:
        if table.values[(state, a)] == best:
            return a
    raise AssertionError("unreachable")


def select_action_traced(
    table: QTable,
    state: Configuration,
    params: LearnerParams,
    rng: random.Random,
) -> tuple[Configuration, bool]:
    """Epsilon-greedy selection; returns (action, exploited)."""
    state.require_valid()
    if rng.random() <= 1.0 - params.epsilon:
        return greedy_action(table, state), True
    return rng.choice(valid_configurations()), False


def select_action(
    table: QTable,
    state: Configuration,
    params: LearnerParams,
    rng: random.Random,
) -> Configuration:
    return select_action_traced(table, state, params, rng)[0]
