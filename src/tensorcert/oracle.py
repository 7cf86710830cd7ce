"""Numerical ground truth: generic instances, Jacobian rank tests, and a
multi-start completion enumerator.

A generic instance realizes U = C x_{i>j} T_i with the canonical identity
blocks in the core's j-unfolding.  The gauge group (one GL(r_i) per trailing
dimension) has dimension sum r_i^2, but freezing all sum r_i^2 block entries
*and* keeping every factor entry free leaves a residual (d-j-1)-dimensional
scaling stabilizer: scaling T_i by lambda_i with prod lambda_i = 1 changes
nothing.  The parametrization below therefore frees the leading diagonal
entry of every block except the first and pins T_i(1,1) instead, so that in
each mode the unknown count matches the dimension the rank test needs:

  coreAndFactors: (N_j*R - sum r^2) + sum n_i r_i
  factorsOnly:    sum n_i r_i - (d - j - 1)
  coreOnly:       (N_j*R - sum r^2) + (d - j - 1)

Instances exist only for ranks that :func:`~tensorcert.geometry.check_fits`
the shape; other ranks are refused with the certificates' own error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import Coord, SamplingPattern, Shape
from .geometry import (
    RankSpec,
    canonical_structure,
    check_fits,
    factor_offsets,
    layout_columns,
    probe_point,
    rank_strides,
    tucker_terms,
    unfolding_indices,
)

__all__ = [
    "GenericInstance",
    "OracleReport",
    "CompletionSet",
    "generate_instance",
    "realize",
    "jacobian_rank",
    "enumerate_completions",
    "appendix_c_pattern",
    "appendix_c_closed_form",
    "section_iib_pattern",
    "section_iib_values",
    "section_iib_closed_form",
]

RANK_TOL = 1e-8
RESIDUAL_TOL = 1e-10
CLUSTER_TOL = 1e-6

MODES = ("coreAndFactors", "factorsOnly", "coreOnly")


@dataclass(frozen=True)
class GenericInstance:
    shape: Shape
    spec: RankSpec
    core_mat: np.ndarray  # (N_j, R); gauge blocks are exact identity
    factors: tuple[np.ndarray, ...]  # T_i of shape (r_i, n_i)
    seed: int

    @property
    def tensor(self) -> np.ndarray:
        return realize(self.shape, self.spec, self.core_mat, self.factors)


@dataclass(frozen=True)
class OracleReport:
    mode: str
    num_unknowns: int
    num_polynomials: int
    singular_values: tuple[float, ...]
    numerical_rank: int
    verdict: str  # "finite" | "infinite"
    tolerance: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "numUnknowns": self.num_unknowns,
            "numPolynomials": self.num_polynomials,
            "singularValues": list(self.singular_values),
            "numericalRank": self.numerical_rank,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CompletionSet:
    completions: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]
    starts: int
    converged: int

    @property
    def num_clusters(self) -> int:
        return len(self.completions)


def realize(
    shape: Shape, spec: RankSpec, core_mat: np.ndarray, factors: Sequence[np.ndarray]
) -> np.ndarray:
    """Contract the core against the factor matrices; axes come out in
    dimension order."""
    head = shape.dims[: spec.j]
    tensor = np.reshape(core_mat, head + spec.ranks, order="F")
    for T in factors:
        tensor = np.tensordot(tensor, T, axes=([spec.j], [0]))
    return tensor


def _gauge_blocks(shape: Shape, spec: RankSpec) -> list[np.ndarray]:
    """Per canonical identity block, the unreduced-layout columns of its
    entries, ``[a, b]`` for block entry (a, b): the gauge pins of every
    instance and parametrization."""
    strides = np.array(rank_strides(spec.ranks))
    return [
        (np.array(block.rows)[:, None] - 1) * spec.product + (np.array(block.cols) - 1) @ strides
        for block in canonical_structure(shape, spec).blocks
    ]


def generate_instance(shape: Shape, spec: RankSpec, seed: int = 0) -> GenericInstance:
    """Generic parameters with the canonical identity blocks enforced, for a
    spec that :func:`~tensorcert.geometry.check_fits` the shape."""
    check_fits(shape, spec)
    core_mat, factors = probe_point(shape, spec, seed)
    for cols in _gauge_blocks(shape, spec):
        core_mat.flat[cols] = np.eye(len(cols))
    return GenericInstance(shape=shape, spec=spec, core_mat=core_mat, factors=tuple(factors), seed=seed)


class _ParamMap:
    """Free-parameter layout for one unknown mode, with analytic Jacobian.

    There is one parameter layout, :func:`~tensorcert.geometry.factor_offsets`'
    unreduced one, and theta is a column selection of it: ``free[i]`` is the
    layout column of theta entry ``i``.  theta lists the free core entries
    row by row, then the free factor entries slot by slot in (a, b) order.
    The gauge blocks are pinned, except the leading diagonal entry of each
    block after the first, and T_s(1, 1) is pinned for s >= 1 instead; the
    mode only changes which columns are free.  :meth:`index_entries` maps a
    coordinate list's partial columns to theta once (pinned ones to the
    spare column ``num_params``), so :meth:`values_and_jacobian` is one
    scatter of :func:`~tensorcert.geometry.tucker_terms`' partials.
    """

    def __init__(self, instance: GenericInstance, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        shape, spec = self.shape, self.spec = instance.shape, instance.spec
        self.offsets = factor_offsets(shape, spec)
        self.flat = np.concatenate(
            [instance.core_mat.ravel()] + [T.ravel(order="F") for T in instance.factors]
        )

        core_free = mode in ("coreAndFactors", "coreOnly")
        free = np.zeros(self.offsets[-1], dtype=bool)
        free[: self.offsets[0]] = core_free
        free[self.offsets[0] :] = mode in ("coreAndFactors", "factorsOnly")
        blocks = _gauge_blocks(shape, spec)
        for cols in blocks:
            free[cols] = False
        for s, cols in enumerate(blocks[1:], start=1):
            # the freed diagonal entry compensates the pinned T_s(1, 1)
            free[cols[0, 0]] = core_free
            free[self.offsets[s]] = False
        theta_order = np.concatenate(
            [np.arange(self.offsets[0])]
            + [
                (start + np.arange(n) * r + np.arange(r)[:, None]).ravel()
                for start, r, n in zip(self.offsets, spec.ranks, spec.tail_dims(shape))
            ]
        )
        self.free = theta_order[free[theta_order]]
        self.num_params = len(self.free)
        self.theta_of = np.full(self.offsets[-1], self.num_params)
        self.theta_of[self.free] = np.arange(self.num_params)

    def pack(self) -> np.ndarray:
        return self.flat[self.free]

    def materialize(self, theta: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        flat = self.flat.copy()
        flat[self.free] = theta
        core = flat[: self.offsets[0]].reshape(-1, self.spec.product)
        factors = [
            flat[start:end].reshape(-1, r).T
            for start, end, r in zip(self.offsets, self.offsets[1:], self.spec.ranks)
        ]
        return core, factors

    def index_entries(self, coords: Sequence[Coord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unfolding rows, trailing indices and the theta column of every
        partial (``num_params`` for pinned ones) of the entries at ``coords``."""
        rows, tails = unfolding_indices(self.shape, self.spec.j, coords)
        return rows, tails, self.theta_of[layout_columns(self.shape, self.spec, rows, tails)]

    def values_and_jacobian(
        self, theta: np.ndarray, entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Observed values and their Jacobian in theta."""
        rows, tails, cols = entries
        values, partials = tucker_terms(*self.materialize(theta), rows, tails)
        jac = np.zeros((len(rows), self.num_params + 1))
        jac[np.arange(len(rows))[:, None], cols] = partials
        return values, jac[:, : self.num_params]


def jacobian_rank(
    instance: GenericInstance,
    pattern: SamplingPattern,
    mode: str = "coreAndFactors",
    tol: float = RANK_TOL,
) -> OracleReport:
    """Numerical rank of the observation map's Jacobian at the instance's
    parameters; finite iff the rank reaches the number of unknowns."""
    if pattern.shape != instance.shape:
        raise ValueError("pattern shape does not match the instance")
    pmap = _ParamMap(instance, mode)
    _, jac = pmap.values_and_jacobian(pmap.pack(), pmap.index_entries(pattern.observed))
    if jac.size == 0 or pmap.num_params == 0:
        sv: tuple[float, ...] = ()
        rank = 0
    else:
        s = np.linalg.svd(jac, compute_uv=False)
        sv = tuple(float(x) for x in s)
        rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    verdict = "finite" if rank == pmap.num_params else "infinite"
    return OracleReport(
        mode=mode,
        num_unknowns=pmap.num_params,
        num_polynomials=len(pattern.observed),
        singular_values=sv,
        numerical_rank=rank,
        verdict=verdict,
        tolerance=tol,
        seed=instance.seed,
    )


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first call so that
    only the enumerator pays for loading scipy.optimize.  A module-level
    name, so that the benchmark's tracer can wrap it."""
    from scipy.optimize import least_squares

    return least_squares(*args, **kwargs)


def enumerate_completions(
    pattern: SamplingPattern,
    observed_values: dict[Coord, float],
    spec: RankSpec,
    starts: int = 64,
    seed: int = 0,
) -> CompletionSet:
    """Multi-start damped least squares over the gauge-fixed parameters;
    converged solutions are clustered by completed-tensor distance.

    Each theta is evaluated once: ``fun`` and ``jac`` share the values and
    Jacobian of the most recent point."""
    if starts < 1:
        raise ValueError(f"need at least one start, got {starts}")
    shape = pattern.shape
    coords = list(pattern.observed)
    if set(coords) != set(observed_values):
        raise ValueError("observed values must cover exactly the pattern")
    target = np.array([float(observed_values[c]) for c in coords])
    scale = 1.0 + float(np.linalg.norm(target))

    template = generate_instance(shape, spec, seed=seed)
    pmap = _ParamMap(template, "coreAndFactors")
    rng = np.random.default_rng(seed)

    entries = pmap.index_entries(coords)
    last_key: Optional[bytes] = None
    last: Optional[tuple[np.ndarray, np.ndarray]] = None

    def evaluate(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal last_key, last
        key = theta.tobytes()
        if key != last_key:
            vals, j = pmap.values_and_jacobian(theta, entries)
            last_key, last = key, (vals - target, j)
        return last

    # Hand out copies: least_squares may overwrite what it gets, and the
    # cached arrays must stay intact for the next call at the same theta.
    def fun(theta: np.ndarray) -> np.ndarray:
        return evaluate(theta)[0].copy()

    def jac(theta: np.ndarray) -> np.ndarray:
        return evaluate(theta)[1].copy()

    method = "lm" if len(coords) >= pmap.num_params else "trf"
    completions: list[np.ndarray] = []
    residuals: list[float] = []
    converged = 0
    for _ in range(starts):
        theta0 = rng.standard_normal(pmap.num_params)
        try:
            res = least_squares(
                fun, theta0, jac=jac, method=method,
                xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=400,
            )
        except Exception:
            continue
        r_norm = float(np.linalg.norm(res.fun))
        if r_norm > RESIDUAL_TOL * scale:
            continue
        converged += 1
        core, factors = pmap.materialize(res.x)
        full = realize(shape, spec, core, factors)
        for i, known in enumerate(completions):
            denom = max(1.0, float(np.linalg.norm(known)))
            if float(np.linalg.norm(full - known)) / denom < CLUSTER_TOL:
                residuals[i] = min(residuals[i], r_norm)
                break
        else:
            completions.append(full)
            residuals.append(r_norm)
    order = sorted(range(len(completions)), key=lambda i: completions[i].ravel().tolist())
    return CompletionSet(
        completions=tuple(completions[i] for i in order),
        residuals=tuple(residuals[i] for i in order),
        starts=starts,
        converged=converged,
    )


# --- Worked example: the 5x4 rank-2 matrix with exactly two completions. ---

_APPENDIX_C_OBSERVED: dict[tuple[int, int], Fraction] = {
    (1, 1): Fraction(1), (1, 3): Fraction(1), (1, 4): Fraction(-1, 2),
    (2, 1): Fraction(-4), (2, 2): Fraction(2), (2, 3): Fraction(-1),
    (3, 1): Fraction(0), (3, 2): Fraction(1), (3, 4): Fraction(2),
    (4, 1): Fraction(1), (4, 3): Fraction(4),
    (5, 2): Fraction(4), (5, 3): Fraction(-2), (5, 4): Fraction(3, 2),
}


def appendix_c_pattern() -> tuple[SamplingPattern, dict[tuple[int, int], Fraction]]:
    pattern = SamplingPattern.from_coords((5, 4), _APPENDIX_C_OBSERVED)
    return pattern, dict(_APPENDIX_C_OBSERVED)


def appendix_c_closed_form() -> tuple[tuple[Fraction, Fraction], tuple[tuple[tuple[Fraction, ...], ...], ...]]:
    """Exact elimination for the 5x4 rank-2 instance.

    The missing entries reduce to a single quadratic 32 x^2 + 85 x + 42 = 0 in
    the (1,2) entry; each root back-substitutes to one full completion.
    Returns (roots ascending, completions in root order).
    """
    disc = Fraction(85 * 85 - 4 * 32 * 42)
    sqrt_disc = Fraction(math.isqrt(int(disc)))
    assert sqrt_disc * sqrt_disc == disc
    roots = tuple(sorted((Fraction(-85 - sqrt_disc, 64), Fraction(-85 + sqrt_disc, 64))))
    completions = []
    for x2 in roots:
        x8 = 8 * x2 + 6
        r2 = Fraction(2) / (x8 - 2)
        r1 = 4 * r2
        r6 = Fraction(1) / (2 * x8 - 1)
        r5 = r6 - 2
        left = (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (r1, r2),
            (Fraction(5), Fraction(1)),
            (r5, r6),
        )
        right = (
            (Fraction(1), x2, Fraction(1), Fraction(-1, 2)),
            (Fraction(-4), Fraction(2), Fraction(-1), x8),
        )
        matrix = tuple(
            tuple(sum(left[i][k] * right[k][j] for k in range(2)) for j in range(4))
            for i in range(5)
        )
        completions.append(matrix)
    return roots, tuple(completions)


# --- Worked example: (2,2,2) rank-(1,1,1) with four observed entries. ---

_IIB_COORDS = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))
_IIB_VALUES = {(1, 1, 1): 2.0, (2, 1, 1): 3.0, (1, 2, 1): 5.0, (1, 1, 2): 7.0}


def section_iib_pattern() -> SamplingPattern:
    return SamplingPattern.from_coords((2, 2, 2), _IIB_COORDS)


def section_iib_values() -> dict[Coord, float]:
    return dict(_IIB_VALUES)


def section_iib_closed_form(values: Optional[dict[Coord, float]] = None) -> np.ndarray:
    """The unique rank-(1,1,1) completion from the four anchor entries:
    U(x,y,z) = U(x,1,1) U(1,y,1) U(1,1,z) / U(1,1,1)^2."""
    vals = dict(_IIB_VALUES if values is None else values)
    base = vals[(1, 1, 1)]
    if base == 0:
        raise ValueError("anchor entry U(1,1,1) must be nonzero")
    out = np.empty((2, 2, 2))
    for x in (1, 2):
        for y in (1, 2):
            for z in (1, 2):
                out[x - 1, y - 1, z - 1] = (
                    vals[(x, 1, 1)] * vals[(1, y, 1)] * vals[(1, 1, z)] / base**2
                )
    return out
