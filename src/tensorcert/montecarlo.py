"""Seeded Monte Carlo estimation of sampling-pattern properties.

Per-trial randomness comes from a counter-based generator keyed on
(seed, trial), so trials are independent, order-insensitive, and exactly
reproducible.  Property evaluators are exact (subset scans / certifier /
Jacobian oracle); proper1 and proper2 sample a column graph in one draw (a
block of uniform keys, each column taking the rows of its smallest keys) and
run ``hallgraph.defect_at_least`` at r = 1 and r = 0 on the drawn array, kept
as one CSR biadjacency: one compiled Hopcroft-Karp matching and, for r = 1,
one compiled strong-component pass that decides whether a clone of every
column can be matched too.  No step of a trial loops over edges in Python.
A configuration missing a parameter its property needs is refused before any
trial runs.  Trials where a size guard or an assumption precondition fires
are reported as "undecided", never silently counted either way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import SamplingPattern, Shape
from .geometry import RankSpec
from .assumptions import AssumptionError
from .certifier import CertifierGuardError, certify_finite
from .hallgraph import BipartiteGraph, defect_at_least
from .oracle import generate_instance, jacobian_rank

__all__ = [
    "TrialConfig",
    "EstimateResult",
    "PROPERTIES",
    "WILSON_Z_99",
    "sample_pattern",
    "sample_column_graph",
    "wilson_interval",
    "estimate",
]

PROPERTIES = ("proper1", "proper2", "perColumnCount", "finiteByCertifier", "finiteByOracle")

# Two-sided 99% normal quantile for the Wilson score interval.
WILSON_Z_99 = 2.5758293035489004


@dataclass(frozen=True)
class TrialConfig:
    shape: Shape
    prop: str
    trials: int
    seed: int = 0
    spec: Optional[RankSpec] = None
    p: Optional[float] = None
    per_column_l: Optional[int] = None

    def __post_init__(self) -> None:
        if self.prop not in PROPERTIES:
            raise ValueError(f"unknown property {self.prop!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.p is not None and not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        if self.per_column_l is not None and self.per_column_l < 0:
            raise ValueError("per_column_l must be nonnegative")
        if self.prop in ("proper1", "proper2"):
            if self.per_column_l is None:
                raise ValueError(f"{self.prop} needs per_column_l")
            if self.per_column_l > self.shape.dims[0]:
                raise ValueError(
                    f"per_column_l = {self.per_column_l} exceeds the {self.shape.dims[0]} rows of a column"
                )
        if self.prop == "proper1" and self.shape.dims[0] < 2:
            raise ValueError(
                f"proper1 samples n1 - 1 columns, so it needs a first dimension of at least 2 (dims {self.shape.dims})"
            )
        if self.prop == "perColumnCount" and (self.p is None or self.per_column_l is None):
            raise ValueError("perColumnCount needs p and per_column_l")
        if self.prop in ("finiteByCertifier", "finiteByOracle") and (self.spec is None or self.p is None):
            raise ValueError(f"{self.prop} needs spec and p")

    def to_dict(self) -> dict:
        return {
            "dims": list(self.shape.dims),
            "property": self.prop,
            "trials": self.trials,
            "seed": self.seed,
            "ranks": list(self.spec.ranks) if self.spec else None,
            "j": self.spec.j if self.spec else None,
            "p": self.p,
            "perColumnL": self.per_column_l,
        }


@dataclass(frozen=True)
class EstimateResult:
    config: TrialConfig
    passes: int
    fails: int
    undecided: int
    fraction: float  # pass fraction among decided trials
    interval: tuple[float, float]  # Wilson 99% interval for the pass fraction

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "counts": {"pass": self.passes, "fail": self.fails, "undecided": self.undecided},
            "fraction": self.fraction,
            "interval": list(self.interval),
        }


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def sample_pattern(shape: Shape, p: float, seed: int, trial: int = 0) -> SamplingPattern:
    """Include each coordinate independently with probability p."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    rng = _trial_rng(seed, trial)
    draws = rng.random(shape.size)
    observed = tuple(c for c, u in zip(shape.coords(), draws) if u < p)
    return SamplingPattern(shape=shape, observed=observed)


def sample_column_graph(
    n_rows: int, n_cols: int, per_column: int, seed: int, trial: int = 0
) -> BipartiteGraph:
    """Columns as T1, rows as T2; each column observes exactly `per_column`
    distinct rows chosen uniformly, independently of the other columns.

    One draw per trial: every (column, row) pair gets a uniform key, and each
    column observes the rows of its `per_column` smallest keys, a uniform
    subset because the keys are exchangeable."""
    if per_column < 0:
        raise ValueError("per-column count must be nonnegative")
    if per_column > n_rows:
        raise ValueError("cannot place more observations in a column than it has rows")
    keys = _trial_rng(seed, trial).random((n_cols, n_rows))
    smallest = np.argpartition(keys, min(per_column, n_rows - 1), axis=1)[:, :per_column]
    return BipartiteGraph(size_t1=n_cols, size_t2=n_rows, adj=smallest + 1)


def wilson_interval(successes: int, total: int, z: float = WILSON_Z_99) -> tuple[float, float]:
    if total == 0:
        return 0.0, 1.0
    phat = successes / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _derived_oracle_seed(seed: int, trial: int) -> int:
    return (seed * 0x9E3779B1 + trial) % (2**31 - 1)


def _run_trial(config: TrialConfig, trial: int) -> Optional[bool]:
    """True = property holds, False = fails, None = undecided."""
    shape = config.shape
    if config.prop in ("proper1", "proper2"):
        n1 = shape.dims[0]
        r = 1 if config.prop == "proper1" else 0
        n_cols = n1 - 1 if config.prop == "proper1" else n1
        graph = sample_column_graph(n1, n_cols, config.per_column_l, config.seed, trial)
        ok, _ = defect_at_least(graph, r)
        return ok
    if config.prop == "perColumnCount":
        pattern = sample_pattern(shape, config.p, config.seed, trial)
        counts: dict[tuple[int, ...], int] = {}
        for coord in pattern.observed:
            counts[coord[1:]] = counts.get(coord[1:], 0) + 1
        total_cols = shape.tail_size(1)
        if len(counts) < total_cols:
            return False
        return all(c >= config.per_column_l for c in counts.values())
    pattern = sample_pattern(shape, config.p, config.seed, trial)
    if config.prop == "finiteByCertifier":
        try:
            cert = certify_finite(pattern, config.spec, seed=config.seed)
        except (AssumptionError, CertifierGuardError):
            return None
        if cert.verdict == "finite":
            return True
        if cert.verdict == "not-finite":
            return False
        return None
    # finiteByOracle
    try:
        instance = generate_instance(shape, config.spec, seed=_derived_oracle_seed(config.seed, trial))
    except ValueError:
        return None
    report = jacobian_rank(instance, pattern, mode="coreAndFactors")
    return report.verdict == "finite"


def estimate(config: TrialConfig) -> EstimateResult:
    passes = fails = undecided = 0
    for trial in range(config.trials):
        outcome = _run_trial(config, trial)
        if outcome is None:
            undecided += 1
        elif outcome:
            passes += 1
        else:
            fails += 1
    decided = passes + fails
    fraction = passes / decided if decided else float("nan")
    interval = wilson_interval(passes, decided)
    return EstimateResult(
        config=config,
        passes=passes,
        fails=fails,
        undecided=undecided,
        fraction=fraction,
        interval=interval,
    )
