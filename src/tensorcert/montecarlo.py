"""Seeded Monte Carlo estimation of sampling-pattern properties.

Per-trial randomness comes from a counter-based generator keyed on
(seed, trial), so trials are independent, order-insensitive, and exactly
reproducible.  Seeds and trial indices must lie in [0, 2**64); the key is
the pair as two exact unsigned 64-bit words.  Property evaluators are exact
(subset scans / certifier / Jacobian oracle).  A configuration missing a
parameter its property needs is refused before any trial runs.  Trials where
an assumption precondition fires are reported as "undecided", never
silently counted either way.

proper1 and proper2 draw the column graph of trial t under seed s (n1 rows,
n_cols columns, l rows per column; proper1 has n_cols = n1 - 1, proper2
n_cols = n1) by this rule, which replays it from the parameters alone:

1. Stream: numpy's Philox4x64-10 with key words (s, t) and counter 0, that
   is ``np.random.Philox(key=np.array([s, t], dtype=np.uint64))``.  Its
   doubles are numpy's ``Generator.random``: the next 64-bit output shifted
   right by 11, times 2**-53.
2. Block: with m = min(l, n1 - l), read n_cols * m doubles into a row-major
   array U of shape (n_cols, m); row c serves column c.
3. Floyd's sampler (Bentley and Floyd, "A sample of brilliance", CACM 1987)
   per column: start from the empty set S; for step k = 0 .. m - 1 let
   j = n1 - m + k and i = floor(U[c, k] * (j + 1)), the product rounded to
   a double; add j to S if i is already in S, else add i.  S is a uniform
   m-subset of the 0-based rows 0 .. n1 - 1.
4. Complement rule: if l <= n1 - l (so m = l) the column observes the rows
   in S; otherwise S holds the n1 - l rows it does not observe, and it
   observes the other l.  Row v is T2 node v + 1 of the graph.

Scaled-double bias: U[c, k] is a multiple of 2**-53, and a rounded product
below j + 1 stays below it, so 0 <= i <= j.  Each of the j + 1 values has
probability within 2 * 2**-53 of 1 / (j + 1), so one pick is within total
variation distance (j + 1) * 2**-53 <= n1 * 2**-53 of uniform.

A chunk of trials is drawn at once: one bit generator whose state is reset
to each trial's key, each trial's block U scaled into the chunk's step-major
picks as soon as it is drawn, then Floyd's m steps over every column of the
chunk, each step one gather and one scatter on a flat membership array.  One
sum over that array gives every trial's row degrees, from which
``hallgraph.degrees_prove_margin`` proves, with no graph, each trial whose
degrees force the margin; it never fails a trial.  When the parameters alone
show that no degrees can force it, neither the sum nor the bound is taken.
Each trial it leaves open is decided exactly at r = 1 or r = 0 by
``hallgraph.member_defect_at_least`` on that trial's slice of the membership
array: a matching that loops over the columns in Python, with each column's
rows packed into one int so that every set operation is word-parallel, and
for r = 1 one walk that grows the set of rows from which an alternating path
reaches a free row.  No graph is built and scipy is never loaded.  The picks
and the membership array of a chunk hold at most ``_DRAW_BYTES`` bytes (or
one trial's), so memory stays bounded whatever the trial count;
``sample_column_graph`` is the chunk of one trial, so the draws do not
depend on the chunking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import SamplingPattern, Shape
from .geometry import AssumptionError, RankSpec
from .certifier import certify_finite
from .hallgraph import BipartiteGraph, degrees_prove_margin, member_defect_at_least
from .hallgraph import defect_at_least  # noqa: F401  (still looked up here by callers and the benchmark's tracer)
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

# Most bytes in the Floyd draw of one chunk (a pick per step, in the least
# unsigned type that holds a row index, and one bool per row, for each
# column), unless a single trial needs more.
_DRAW_BYTES = 1 << 22

# Most doubles drawn into one buffer at a time (or one column's m), so that a
# large trial's block needs no large temporary: the trial's picks are all
# that it keeps of it.
_PIECE_DOUBLES = 1 << 11

# Seeds and trial indices are the two unsigned 64-bit words of a Philox key.
_KEY_WORD_LIMIT = 1 << 64


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
        _check_key_word("seed", self.seed)
        _check_key_word("trial", self.trials - 1)
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
    fraction: Optional[float]  # pass fraction among decided trials; None when none is decided
    interval: tuple[float, float]  # Wilson 99% interval for the pass fraction

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "counts": {"pass": self.passes, "fail": self.fails, "undecided": self.undecided},
            "fraction": self.fraction,
            "interval": list(self.interval),
        }


def _check_key_word(name: str, value: int) -> None:
    if not 0 <= value < _KEY_WORD_LIMIT:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


def _trial_keys(seed: int, first: int, count: int) -> np.ndarray:
    """The Philox keys ``(seed, trial)`` of trials ``first .. first + count - 1``
    as exact unsigned 64-bit words, one row per trial."""
    _check_key_word("seed", seed)
    _check_key_word("trial", first)
    _check_key_word("trial", first + count - 1)
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = np.arange(first, first + count, dtype=np.uint64)
    return keys


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_trial_keys(seed, trial, 1)[0]))


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
    distinct rows chosen uniformly, independently of the other columns, by
    the draw rule in the module docstring."""
    if per_column < 0:
        raise ValueError("per-column count must be nonnegative")
    if per_column > n_rows:
        raise ValueError("cannot place more observations in a column than it has rows")
    member = _draw_members(n_rows, n_cols, per_column, seed, trial, 1)
    return BipartiteGraph(size_t1=n_cols, size_t2=n_rows, adj=np.nonzero(member)[1].reshape(n_cols, per_column) + 1)


def _draw_members(n_rows: int, n_cols: int, per_column: int, seed: int, first: int, count: int) -> np.ndarray:
    """The column graphs of trials ``first .. first + count - 1`` as one
    ``(count * n_cols, n_rows)`` bool array: row ``i * n_cols + c`` marks
    the rows that column c of trial ``first + i`` observes."""
    m = min(per_column, n_rows - per_column)
    keys = _trial_keys(seed, first, count)
    bit_gen = np.random.Philox(key=keys[0])
    gen = np.random.Generator(bit_gen)
    # A fresh Philox(key=k) state: counter 0 and an empty output buffer.
    zero = np.zeros(4, dtype=np.uint64)
    words = {"counter": zero, "key": keys[0]}
    state = {"bit_generator": "Philox", "state": words, "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    cols = count * n_cols
    # picks[k, c]: step k's pick for column c, floor(U[c, k] * (j + 1)) (the
    # cast truncates a positive product), scaled as U is drawn and kept in
    # the least type that holds a row index, so that no chunk-sized array of
    # doubles or of 8-byte indices is held.
    picks = np.empty((m, cols), dtype=np.min_scalar_type(n_rows - 1))
    steps = np.arange(n_rows - m + 1, n_rows + 1, dtype=np.float64)
    # A trial's stream runs on from one piece of its block to the next.
    rows = max(1, _PIECE_DOUBLES // max(m, 1))
    block = np.empty((min(rows, n_cols), m))
    for i in range(count):
        words["key"] = keys[i]
        bit_gen.state = state
        for c in range(i * n_cols, (i + 1) * n_cols, rows):
            piece = block[: min(rows, (i + 1) * n_cols - c)]
            gen.random(out=piece)
            np.multiply(piece, steps, out=picks[:, c : c + len(piece)].T, casting="unsafe")
    base = np.arange(0, cols * n_rows, n_rows, dtype=np.intp)
    pick = np.empty(cols, dtype=np.intp)
    member = np.zeros((cols, n_rows), dtype=bool)
    flat = member.reshape(-1)
    for j, step in zip(range(n_rows - m, n_rows), picks):
        # Each pick as a flat index into member.  Row j is in no set yet: it
        # joins the sets that already hold their pick, then every pick joins
        # its set (a pick of j itself finds j absent and adds it here).
        np.add(step, base, out=pick)
        member[:, j] = flat[pick]
        flat[pick] = True
    if m < per_column:
        np.logical_not(member, out=member)
    return member


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
    """One trial of a property other than proper1/proper2: True = holds,
    False = fails, None = undecided."""
    shape = config.shape
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
        except AssumptionError:
            return None
        return cert.verdict == "finite"
    # finiteByOracle
    try:
        instance = generate_instance(shape, config.spec, seed=_derived_oracle_seed(config.seed, trial))
    except ValueError:
        return None
    report = jacobian_rank(instance, pattern, mode="coreAndFactors")
    return report.verdict == "finite"


def _degrees_may_prove(n1: int, n_cols: int, l: int, r: int) -> bool:
    """Whether any draw of n_cols columns, each observing l of n1 rows, can
    have row degrees from which :func:`degrees_prove_margin` proves margin r.
    The bound needs #{v : deg(v) >= x} >= n_cols - x + 1 + r for every x in
    1..n_cols - l + r (and x <= n_cols), and the degrees sum to n_cols * l,
    so at most min(n1, n_cols * l // x) rows reach x."""
    return all(min(n1, n_cols * l // x) >= n_cols - x + 1 + r for x in range(1, min(n_cols, n_cols - l + r) + 1))


def _proper_passes(config: TrialConfig) -> int:
    """How many proper1 (margin 1 on n1 - 1 columns) or proper2 (margin 0
    on n1 columns) trials pass, decided a chunk of trials at a time: from
    each trial's row degrees when they prove the margin, and otherwise from
    the trial's own slice of the chunk's membership array."""
    n1, l = config.shape.dims[0], config.per_column_l
    r = 1 if config.prop == "proper1" else 0
    n_cols = n1 - r
    pick_bytes = np.min_scalar_type(n1 - 1).itemsize * min(l, n1 - l)
    per_chunk = max(1, _DRAW_BYTES // (n_cols * (n1 + pick_bytes)))
    provable = _degrees_may_prove(n1, n_cols, l, r)
    passes = 0
    for start in range(0, config.trials, per_chunk):
        count = min(per_chunk, config.trials - start)
        member = _draw_members(n1, n_cols, l, config.seed, start, count).reshape(count, n_cols, n1)
        if provable:
            unproven = np.flatnonzero(~degrees_prove_margin(n_cols, l, member.sum(axis=1, dtype=np.int32), r)).tolist()
        else:
            unproven = range(count)
        passes += count - len(unproven) + sum(member_defect_at_least(member[t], r) for t in unproven)
    return passes


def estimate(config: TrialConfig) -> EstimateResult:
    passes = fails = undecided = 0
    if config.prop in ("proper1", "proper2"):
        passes = _proper_passes(config)
        fails = config.trials - passes
    else:
        for trial in range(config.trials):
            outcome = _run_trial(config, trial)
            if outcome is None:
                undecided += 1
            elif outcome:
                passes += 1
            else:
                fails += 1
    decided = passes + fails
    fraction = passes / decided if decided else None
    interval = wilson_interval(passes, decided)
    return EstimateResult(
        config=config,
        passes=passes,
        fails=fails,
        undecided=undecided,
        fraction=fraction,
        interval=interval,
    )
