"""Closed-form sampling-probability bounds and their validity predicates.

All logarithms are natural.  Strict ">" thresholds are reported exactly; the
per-column integer threshold l is the smallest integer strictly exceeding the
bound.  Probabilities above 1 are kept raw in the numeric output and flagged
as vacuous presentation-side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Shape
from .geometry import RankSpec

__all__ = [
    "BoundReport",
    "CurveConfig",
    "grassmannian_bound",
    "tucker_finite_threshold_l",
    "tucker_finite_bound_p",
    "tucker_unique_threshold_l",
    "tucker_unique_bound_p",
    "azuma_tail",
    "azuma_threshold",
    "validity_flags",
    "bound_report",
    "emit_curves",
]

CSV_HEADER = (
    "r,p_grassmannian,valid_grassmannian,"
    "p_tucker_finite,valid_tucker_finite,"
    "p_tucker_unique,valid_tucker_unique"
)


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")


def grassmannian_bound(
    shape: Shape, full_rank: Sequence[int], eps: float
) -> tuple[float, int]:
    """Per-matricization sampling threshold
    min_i ( max(2 r_i/n_i, 12 ln(e n_i/eps)/n_i) + n_i^(-1/4) ).

    Returns (value, 1-based index achieving the min; lowest on ties).
    """
    _check_eps(eps)
    ranks = tuple(int(r) for r in full_rank)
    if len(ranks) != shape.order:
        raise ValueError("need one rank per dimension")
    best: Optional[float] = None
    best_i = 1
    for i, (n, r) in enumerate(zip(shape.dims, ranks), start=1):
        val = max(2 * r / n, 12 * math.log(math.e * n / eps) / n) + n ** -0.25
        if best is None or val < best:
            best = val
            best_i = i
    assert best is not None
    return best, best_i


def _next_int_above(x: float) -> int:
    return math.floor(x) + 1


def _per_column_p(bound: float, nj: int) -> float:
    return bound / nj + nj ** -0.25


def _finite_bound(shape: Shape, spec: RankSpec, eps: float) -> Optional[tuple[float, int]]:
    """(6 ln N_j + 2 max{ln(2 sum_sq/eps), ln((2R - 2 sum_sq)/eps)} + 4, N_j),
    or None when sum_sq >= R (the second log argument vanishes)."""
    _check_eps(eps)
    spec.check_shape(shape)
    R, s2 = spec.product, spec.sum_sq
    if s2 >= R:
        return None
    nj = shape.head_size(spec.j)
    bound = (
        6 * math.log(nj)
        + 2 * max(math.log(2 * s2 / eps), math.log((2 * R - 2 * s2) / eps))
        + 4
    )
    return bound, nj


def _unique_bound(shape: Shape, spec: RankSpec, eps: float) -> Optional[tuple[float, int]]:
    """(6 ln N_j + 2 max{ln(sum_sq/eps), ln((R - sum_sq)/eps), ln(N_j/eps)} + 8, N_j),
    or None when sum_sq >= R."""
    _check_eps(eps)
    spec.check_shape(shape)
    R, s2 = spec.product, spec.sum_sq
    if s2 >= R:
        return None
    nj = shape.head_size(spec.j)
    bound = (
        6 * math.log(nj)
        + 2 * max(
            math.log(s2 / eps),
            math.log((R - s2) / eps),
            math.log(nj / eps),
        )
        + 8
    )
    return bound, nj


def tucker_finite_threshold_l(shape: Shape, spec: RankSpec, eps: float) -> Optional[int]:
    """Smallest per-column observation count l strictly exceeding
    6 ln N_j + 2 max{ln(2 sum_sq/eps), ln((2R - 2 sum_sq)/eps)} + 4.

    None when sum_sq >= R (the second log argument vanishes).
    """
    found = _finite_bound(shape, spec, eps)
    return None if found is None else _next_int_above(found[0])


def tucker_finite_bound_p(shape: Shape, spec: RankSpec, eps: float) -> Optional[float]:
    """Sampling-probability threshold for finitely many completions:
    (6 ln N_j + 2 ln max{2 sum_sq/eps, (2R - 2 sum_sq)/eps} + 4)/N_j + N_j^(-1/4)."""
    found = _finite_bound(shape, spec, eps)
    return None if found is None else _per_column_p(*found)


def tucker_unique_threshold_l(shape: Shape, spec: RankSpec, eps: float) -> Optional[int]:
    """Per-column count for the uniqueness bound:
    l > 6 ln N_j + 2 max{ln(sum_sq/eps), ln((R - sum_sq)/eps), ln(N_j/eps)} + 8."""
    found = _unique_bound(shape, spec, eps)
    return None if found is None else _next_int_above(found[0])


def tucker_unique_bound_p(shape: Shape, spec: RankSpec, eps: float) -> Optional[float]:
    """Sampling-probability threshold for a unique completion."""
    found = _unique_bound(shape, spec, eps)
    return None if found is None else _per_column_p(*found)


def azuma_tail(n: int, c: float) -> float:
    """Martingale concentration tail exp(-n / (2 c^2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if c <= 0:
        raise ValueError("c must be positive")
    return math.exp(-n / (2 * c * c))


def azuma_threshold(n: int, r: int, eps: float) -> tuple[float, float]:
    """Per-column sampling thresholds (p', p'') from the concentration step:
    p' = 2r/n + n^(-1/4), p'' = 12 ln(e n/eps)/n + n^(-1/4)."""
    _check_eps(eps)
    if n < 1:
        raise ValueError("n must be >= 1")
    p1 = 2 * r / n + n ** -0.25
    p2 = 12 * math.log(math.e * n / eps) / n + n ** -0.25
    return p1, p2


def validity_flags(shape: Shape, spec: RankSpec, full_rank: Sequence[int]) -> dict[str, bool]:
    """Named validity inequalities for the bounds on this configuration."""
    spec.check_shape(shape)
    ranks = tuple(int(r) for r in full_rank)
    R, s2 = spec.product, spec.sum_sq
    nj = shape.head_size(spec.j)
    tail = spec.tail_dims(shape)
    tail_prod = 1
    for n in tail:
        tail_prod *= n
    size = shape.size

    def n_minus(i: int) -> int:
        return size // shape.dims[i]

    return {
        "rank_sixth": all(r <= n / 6 for n, r in zip(shape.dims, ranks)),
        "complement_capacity": all(
            n_minus(i) >= r * (n - r) for i, (n, r) in enumerate(zip(shape.dims, ranks))
        ),
        "sum_sq_lt_prod": s2 < R,
        "finite_count": tail_prod >= nj * R - s2,
        "unique_count": tail_prod >= nj * (R + 1) - s2,
        "row_budget": nj >= spec.sum_ranks,
        "selection_budget": sum(n * r for n, r in zip(tail, spec.ranks)) < tail_prod,
    }


@dataclass(frozen=True)
class BoundReport:
    p_grassmannian: float
    grassmannian_argmin: int
    p_tucker_finite: Optional[float]
    p_tucker_unique: Optional[float]
    l_finite: Optional[int]
    l_unique: Optional[int]
    validity: dict[str, bool]

    def presented(self, p: Optional[float]) -> str:
        if p is None:
            return "invalid"
        if p >= 1.0:
            return ">=1 (vacuous)"
        return f"{p:.12g}"


def bound_report(shape: Shape, spec: RankSpec, full_rank: Sequence[int], eps: float) -> BoundReport:
    p_g, arg = grassmannian_bound(shape, full_rank, eps)
    return BoundReport(
        p_grassmannian=p_g,
        grassmannian_argmin=arg,
        p_tucker_finite=tucker_finite_bound_p(shape, spec, eps),
        p_tucker_unique=tucker_unique_bound_p(shape, spec, eps),
        l_finite=tucker_finite_threshold_l(shape, spec, eps),
        l_unique=tucker_unique_threshold_l(shape, spec, eps),
        validity=validity_flags(shape, spec, full_rank),
    )


@dataclass(frozen=True)
class CurveConfig:
    """Sweep over a symmetric shape n^d with rank r in every slot."""

    d: int
    n: int
    j: int
    r_min: int
    r_max: int
    eps: float

    def __post_init__(self) -> None:
        if self.d < 2 or self.n < 1 or not (1 <= self.j < self.d):
            raise ValueError("invalid sweep configuration")
        if self.r_min > self.r_max:
            raise ValueError(f"invalid rank range {self.r_min}:{self.r_max}")
        _check_eps(self.eps)


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return "nan"
    return f"{x:.12g}"


def emit_curves(config: CurveConfig) -> list[str]:
    """CSV rows (header first) sweeping the rank; raw values, validity flags."""
    rows = [CSV_HEADER]
    shape = Shape(dims=(config.n,) * config.d)
    for r in range(config.r_min, config.r_max + 1):
        if r > config.n:
            break
        spec = RankSpec(j=config.j, ranks=(r,) * (config.d - config.j))
        full = (r,) * config.d
        flags = validity_flags(shape, spec, full)
        p_g, _ = grassmannian_bound(shape, full, config.eps)
        p_f = tucker_finite_bound_p(shape, spec, config.eps)
        p_u = tucker_unique_bound_p(shape, spec, config.eps)
        valid_g = flags["rank_sixth"] and flags["complement_capacity"]
        valid_f = (
            flags["sum_sq_lt_prod"]
            and flags["finite_count"]
            and flags["row_budget"]
            and flags["selection_budget"]
        )
        valid_u = (
            flags["sum_sq_lt_prod"]
            and flags["unique_count"]
            and flags["row_budget"]
            and flags["selection_budget"]
        )
        rows.append(
            f"{r},{_fmt(p_g)},{str(valid_g).lower()},"
            f"{_fmt(p_f)},{str(valid_f).lower()},"
            f"{_fmt(p_u)},{str(valid_u).lower()}"
        )
    return rows
