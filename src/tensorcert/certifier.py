"""Finite/unique completability certification from the constraint matrix.

A candidate witness is a set of constraint columns such that every subset of
t columns involves at least t free core entries; free-entry counts use the
worst-case capacity R*|W| - g(|W|) over the rows W the columns touch.  The
subset condition is checked in its dual form — for every row set W, the
number of columns supported inside W must not exceed the capacity of W —
which is equivalent because dropping a row from W removes at least as much
capacity as it can remove columns.

Counting is necessary but not sufficient for algebraic independence
(coefficient vectors of same-subtensor constraints lie on a low-dimensional
product variety the counts cannot see), so the witness search also keeps
the rank.  A witness's entries — the designated ones plus one free entry per
column — must have a Jacobian of rank ``target`` (the unknowns minus the
basis-change group, as in :func:`generic_rank_finite`).  The rank is taken
over GF(p), p = ``RANK_PRIME``, at the point drawn from ``RANK_POINT_SEED``:
full rank there proves independence, and a deficit that is not generic shows
with probability at most deg/p.  The search starts from the
:class:`~tensorcert.geometry.ModEchelon` of the designated rows that
:func:`~tensorcert.assumptions.find_T_selection` leaves (one per selection,
so those rows are pushed once), pushes the free-entry row of every column
it includes, and prunes a branch as soon as more rows are
dependent than ``slack = |entries| - target`` allows (0 for an ``A``
selection, sum n_i for an ``A+`` one).  Independence is inherited by
subsets, so the pruning loses no witness, and every witness it yields is
rank-confirmed.  Each selection's search has ``WITNESS_NODE_BUDGET`` nodes.

Whether a witness exists depends on which observed entries were designated
to pin the factor matrices: column supports include the designated rows of
the column's own subtensor, so selections that concentrate several entries
in one trailing column produce the tall supports that positive capacity
requires.  The designated selection is existentially quantified, so the
certifier retries a handful of alternative selections; when none yields a
witness, the rank of the full pattern at the same point decides.  So
:func:`certify_finite` always decides, and "undecided" comes only from
:func:`certify_unique`: a node budget or the witness cap ran out.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import Coord, SamplingPattern, Shape, unflatten_index
from .geometry import (
    JacobianRows,
    ModEchelon,
    RankSpec,
    _gf_rows,
    core_dim,
    factor_offsets,
    pattern_index,
    reaches_rank_mod_p,
)
from .assumptions import (
    AssumptionError,
    TSelection,
    _check_observed_count,
    check_Bj,
    find_T_selection,
    selection_echelon,
)
from .constraint import ConstraintMatrix, build_constraint, m_count

__all__ = [
    "FiniteCertificate",
    "UniqueCertificate",
    "SubproResult",
    "CertifierGuardError",
    "thm3_upper_bound",
    "subset_condition_holds",
    "thm4_dependent",
    "certify_finite",
    "certify_unique",
    "subpro_consistency",
    "verify_finite_witness",
]

ROW_SCAN_GUARD = 16
SEARCH_NODE_GUARD = 500_000  # second-witness search of certify_unique
WITNESS_NODE_BUDGET = 500  # rank-pruned finite-witness search, per selection
SELECTION_RETRIES = 5
UNIQUE_WITNESS_CAP = 50  # finite witnesses certify_unique tries per selection


class CertifierGuardError(RuntimeError):
    """Instance exceeds every exact-check guard; the caller reports undecided."""


@dataclass(frozen=True)
class FiniteCertificate:
    verdict: str  # "finite" | "not-finite" | "undecided-search-exhausted"
    num_free_core: int  # required witness size n
    witness_columns: Optional[tuple[int, ...]]
    violating_subset: Optional[tuple[int, ...]]
    selection: TSelection
    num_columns: int
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "numFreeCore": self.num_free_core,
            "witnessColumns": list(self.witness_columns) if self.witness_columns is not None else None,
            "violatingSubset": list(self.violating_subset) if self.violating_subset is not None else None,
            "selection": [list(c) for c in self.selection.entries],
            "numColumns": self.num_columns,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class UniqueCertificate:
    verdict: str  # "unique" | "not-certified" | "undecided-search-exhausted"
    finite: FiniteCertificate
    witness_columns0: Optional[tuple[int, ...]]
    n0: int
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "finite": self.finite.to_dict(),
            "witnessColumns0": list(self.witness_columns0) if self.witness_columns0 is not None else None,
            "n0": self.n0,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class SubproResult:
    implication_held: Optional[bool]  # None when undecidable at j-1
    vacuous: bool
    verdict_at_j: str
    verdict_below: Optional[str]
    note: str = ""


def thm3_upper_bound(constraint: ConstraintMatrix, column_subset: Iterable[int], spec: RankSpec) -> int:
    """Upper bound R*m - g(m) on the number of independent constraints the
    given columns can contribute."""
    m = m_count(constraint, column_subset)
    return spec.product * m - spec.g(m)


def _support_masks(constraint: ConstraintMatrix, columns: Sequence[int]) -> tuple[list[int], list[int]]:
    """Supports as bitmasks over the rows actually touched (remapped densely).

    Returns (masks, row_labels); bit b corresponds to 1-based row row_labels[b].
    The columns of one subtensor share their designated rows, so each set of
    designated rows is mapped once.
    """
    chosen = [constraint.columns[idx] for idx in columns]
    designated = {c.designated_rows for c in chosen}
    labels = sorted({c.free_row for c in chosen}.union(*designated))
    bit = {row: 1 << b for b, row in enumerate(labels)}
    designated_mask = {rows: sum(bit[row] for row in rows) for rows in designated}
    return [designated_mask[c.designated_rows] | bit[c.free_row] for c in chosen], labels


CAPS_CACHE_SIZE = 32  # capacity tables _caps_worst keeps, least recently used dropped


@functools.lru_cache(maxsize=CAPS_CACHE_SIZE)
def _caps_worst(width: int, spec: RankSpec) -> tuple[int, ...]:
    """Capacity R*|W| - g(|W|) for every row set W, indexed by bitmask.

    Built once per ``(width, spec)`` and kept in a process cache of the
    ``CAPS_CACHE_SIZE`` most recently used tables, so a certificate's
    searches and its dependence check share one table."""
    if width > ROW_SCAN_GUARD:
        raise CertifierGuardError(f"capacity table over {width} rows exceeds the guard")
    R = spec.product
    by_count = [R * w - spec.g(w) for w in range(width + 1)]
    return tuple(by_count[w.bit_count()] for w in range(1 << width))


class _IncrementalCounts:
    """Counts of chosen columns inside every row set, against their caps:
    filled with every column for the subset condition, or kept incrementally
    during witness search."""

    def __init__(self, width: int, caps: Sequence[int]):
        self.full = (1 << width) - 1
        self.cnt = [0] * (1 << width)
        self.caps = caps

    def _supersets(self, mask: int) -> Iterator[int]:
        comp = self.full & ~mask
        sub = comp
        while True:
            yield sub | mask
            if sub == 0:
                break
            sub = (sub - 1) & comp

    def can_add(self, mask: int) -> bool:
        for w in self._supersets(mask):
            if self.cnt[w] + 1 > self.caps[w]:
                return False
        return True

    def add(self, mask: int) -> None:
        for w in self._supersets(mask):
            self.cnt[w] += 1

    def remove(self, mask: int) -> None:
        for w in self._supersets(mask):
            self.cnt[w] -= 1


def subset_condition_holds(
    constraint: ConstraintMatrix,
    column_set: Sequence[int],
    spec: RankSpec,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Check that every subset of the given columns stays within its row
    capacity; returns (ok, violating column indices)."""
    columns = list(column_set)
    if not columns:
        return True, None
    masks, _labels = _support_masks(constraint, columns)
    width = max(m.bit_length() for m in masks)
    counts = _IncrementalCounts(width, _caps_worst(width, spec))
    for m in masks:
        counts.add(m)
    over = next((w for w in range(1, 1 << width) if counts.cnt[w] > counts.caps[w]), None)
    if over is None:
        return True, None
    return False, tuple(c for c, m in zip(columns, masks) if m & ~over == 0)


def thm4_dependent(constraint: ConstraintMatrix, spec: RankSpec) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Algebraic dependence of the full constraint set: some subset exceeds its
    row capacity.  Negation of the subset condition over all columns."""
    ok, witness = subset_condition_holds(constraint, range(constraint.num_columns), spec)
    return (not ok), witness


def _rank_target(shape: Shape, spec: RankSpec) -> int:
    """Rank at which observed entries pin the tensor finitely: all core and
    factor entries minus the basis-change group's dimension sum r_i^2."""
    return factor_offsets(shape, spec)[-1] - spec.sum_sq


def generic_rank_finite(
    pattern_coords: Sequence[Coord], shape, spec: RankSpec, jacobian_rows: Optional[JacobianRows] = None
) -> bool:
    """True when the given observed entries determine the tensor up to
    finitely many completions, decided at a random point of GF(p).

    Works with the unreduced parametrization — every core entry and every
    factor entry is a variable — whose fiber over a generic tensor of the
    given trailing ranks is the basis-change group of dimension sum r_i^2.
    The entries pin the tensor finitely exactly when their Jacobian reaches
    rank (num core entries) + (num factor entries) - sum r_i^2.  The rows
    come from ``jacobian_rows`` (a :func:`_gf_rows` covering every entry)
    when given, else from a Jacobian of just these entries.
    """
    spec.check_shape(shape)
    target = _rank_target(shape, spec)
    coords = [tuple(c) for c in pattern_coords]
    if len(coords) < target:
        return False
    rows = jacobian_rows or _gf_rows(coords, shape, spec)
    return reaches_rank_mod_p(rows(coords), target)


def _free_entry(constraint: ConstraintMatrix, idx: int) -> Coord:
    col = constraint.columns[idx]
    return unflatten_index(constraint.head_dims, col.free_row) + col.base


def _witness_entries(constraint: ConstraintMatrix, selection: TSelection, witness: Iterable[int]) -> list[Coord]:
    """The designated entries plus each witness column's free entry, sorted:
    a finitely-determining subpattern when the witness is confirmed."""
    return sorted(set(selection.entries).union(_free_entry(constraint, idx) for idx in witness))


def _witness_solutions(
    masks: Sequence[int],
    order: Sequence[int],
    target: int,
    counts: _IncrementalCounts,
    node_budget: list[int],
    rank: Optional[tuple[ModEchelon, np.ndarray, int]] = None,
) -> Iterator[tuple[int, ...]]:
    """Yield qualifying column sets of the target size (indices into `masks`),
    include-first depth-first so the first solution matches a greedy descent.
    With ``rank = (echelon, rows, slack)``, a column is included only when
    pushing ``rows[idx]`` leaves at most ``slack`` dependent rows.
    Decrements node_budget[0]; raises when it hits zero."""
    chosen: list[int] = []

    def admit(idx: int) -> bool:
        if not counts.can_add(masks[idx]):
            return False
        if rank is None:
            return True
        echelon, rows, slack = rank
        echelon.push(rows[idx])
        if echelon.dependent <= slack:
            return True
        echelon.pop()
        return False

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if len(chosen) == target:
            yield tuple(sorted(chosen))
            return
        if target - len(chosen) > len(order) - i:
            return
        node_budget[0] -= 1
        if node_budget[0] <= 0:
            raise CertifierGuardError("witness search exceeded its node budget")
        idx = order[i]
        if admit(idx):
            counts.add(masks[idx])
            chosen.append(idx)
            yield from rec(i + 1)
            chosen.pop()
            counts.remove(masks[idx])
            if rank is not None:
                rank[0].pop()
        yield from rec(i + 1)

    yield from rec(0)


def _finite_search(
    pattern: SamplingPattern,
    spec: RankSpec,
    constraint: ConstraintMatrix,
    selection: TSelection,
    rows: JacobianRows,
    echelon: ModEchelon,
) -> Iterator[tuple[int, ...]]:
    """Witnesses of ``core_dim`` columns of the pattern's ``constraint``, in
    search order, each confirmed: with the designated entries, their free
    entries reach rank :func:`_rank_target` over GF(p).  ``rows`` is a
    :func:`_gf_rows`, and ``echelon`` holds the rows of the selection's
    entries, as :func:`find_T_selection` leaves it; the search pushes the
    free entries' rows onto it.  Each column's free entry is read from the
    pattern's :func:`~tensorcert.geometry.pattern_index`."""
    shape = pattern.shape
    n = core_dim(shape, spec)
    columns = list(range(constraint.num_columns))
    masks, _labels = _support_masks(constraint, columns)
    width = max((m.bit_length() for m in masks), default=0)
    counts = _IncrementalCounts(width, _caps_worst(width, spec))
    order = sorted(columns, key=lambda i: (-masks[i].bit_count(), i))
    slack = len(selection.entries) + n - _rank_target(shape, spec)
    if echelon.dependent > slack:
        return
    index, observed = pattern_index(pattern, spec), pattern.observed
    free = rows([observed[index.at[c.free_row, c.base]] for c in constraint.columns])
    yield from _witness_solutions(masks, order, n, counts, [WITNESS_NODE_BUDGET], (echelon, free, slack))


def _certify_finite_once(
    pattern: SamplingPattern, spec: RankSpec, selection: TSelection, rows: JacobianRows, echelon: ModEchelon
) -> FiniteCertificate:
    constraint = build_constraint(pattern, spec, selection)
    n = core_dim(pattern.shape, spec)

    def cert(verdict: str, witness=None, violating=None, reason: str = "") -> FiniteCertificate:
        return FiniteCertificate(
            verdict=verdict,
            num_free_core=n,
            witness_columns=witness,
            violating_subset=violating,
            selection=selection,
            num_columns=constraint.num_columns,
            reason=reason,
        )

    if constraint.num_columns < n:
        return cert(
            "not-finite",
            reason=f"only {constraint.num_columns} constraint columns but {n} needed",
        )
    try:
        witness = next(_finite_search(pattern, spec, constraint, selection, rows, echelon), None)
    except CertifierGuardError as exc:
        return cert("undecided-search-exhausted", reason=str(exc))
    if witness is not None:
        return cert("finite", witness=witness)
    _, violating = thm4_dependent(constraint, spec)
    return cert("not-finite", violating=violating)


def _check_assumptions(pattern: SamplingPattern, spec: RankSpec) -> None:
    spec.check_shape(pattern.shape)
    if not check_Bj(pattern.shape, spec):
        raise AssumptionError("unfolding has fewer rows than the sum of trailing ranks")


def _selections(
    pattern: SamplingPattern, spec: RankSpec, mode: str, seed: int, rows: JacobianRows
) -> Iterator[tuple[TSelection, ModEchelon]]:
    """The distinct designated selections of seeds ``seed`` to
    ``seed + SELECTION_RETRIES``, in seed order, each found when asked for,
    with the echelon of its rows that :func:`find_T_selection` leaves."""
    tried_entries: set[tuple] = set()
    for attempt in range(SELECTION_RETRIES + 1):
        echelon = selection_echelon(pattern.shape, spec)
        selection = find_T_selection(pattern, spec, mode=mode, seed=seed + attempt, rows=rows, echelon=echelon)
        if selection.entries not in tried_entries:
            tried_entries.add(selection.entries)
            yield selection, echelon


def certify_finite(pattern: SamplingPattern, spec: RankSpec, seed: int = 0) -> FiniteCertificate:
    """Decide finite completability for the pattern under the given trailing
    ranks.

    The rank-pruned witness search runs over a handful of designated
    selections and supplies the witness columns when it finds one.  When the
    first selection yields none, the rank of the full observed pattern at the
    same GF(p) point decides: short of the target, the verdict is
    "not-finite" at once; at the target, the other selections are searched,
    and "finite" comes without witness columns if none yields one."""
    _check_assumptions(pattern, spec)
    _check_observed_count(pattern, spec, plus=False)
    return _certify_finite(pattern, spec, seed, _gf_rows(pattern.observed, pattern.shape, spec))


def _certify_finite(
    pattern: SamplingPattern, spec: RankSpec, seed: int, rows: JacobianRows
) -> FiniteCertificate:
    """:func:`certify_finite` on the pattern's shared Jacobian ``rows``."""
    first: Optional[FiniteCertificate] = None
    for selection, echelon in _selections(pattern, spec, "A", seed, rows):
        result = _certify_finite_once(pattern, spec, selection, rows, echelon)
        if result.verdict == "finite":
            return result
        if first is None:
            first = result
            # A witness's rows reach the target rank, so when all observed
            # rows fall short no other selection can yield one.
            if not generic_rank_finite(pattern.observed, pattern.shape, spec, rows):
                if first.verdict == "not-finite":
                    return first
                return replace(first, verdict="not-finite", reason="generic rank stays below the number of unknowns")
    assert first is not None
    return FiniteCertificate(
        verdict="finite",
        num_free_core=first.num_free_core,
        witness_columns=None,
        violating_subset=None,
        selection=first.selection,
        num_columns=first.num_columns,
        reason="decided by generic-rank evaluation; no combinatorial witness found",
    )


def verify_finite_witness(
    pattern: SamplingPattern, spec: RankSpec, certificate: FiniteCertificate
) -> bool:
    """Independent replay: rebuild the constraint matrix, re-check every
    subset inequality for the claimed witness, and re-take the rank of the
    witness entries over GF(p) at this module's prime and point (at most
    ``|entries| - target`` of their rows may be dependent)."""
    if certificate.verdict != "finite":
        return False
    constraint = build_constraint(pattern, spec, certificate.selection)
    witness = certificate.witness_columns or ()
    if len(witness) != certificate.num_free_core:
        return False
    ok, _ = subset_condition_holds(constraint, witness, spec)
    return ok and generic_rank_finite(
        _witness_entries(constraint, certificate.selection, witness), pattern.shape, spec
    )


def _caps_unique(width: int, spec: RankSpec, n0: int) -> list[int]:
    """Largest t in 0..n0 a row set W may hold under the uniqueness relaxation
    R*(t+1) - sum_sq*(t + 2 - n0)^+ <= R*|W| - g(|W|), indexed by bitmask."""
    R = spec.product
    sum_sq = spec.sum_sq
    free = _caps_worst(width, spec)
    caps = []
    for w in range(1 << width):
        lhs = free[w]
        t = 0
        while t < n0 and R * (t + 1) - sum_sq * max(0, t + 1 - n0 + 1) <= lhs:
            t += 1
        caps.append(t)
    return caps


def certify_unique(pattern: SamplingPattern, spec: RankSpec, seed: int = 0) -> UniqueCertificate:
    """Sufficient uniqueness certification: a finiteness witness plus a
    disjoint second witness whose t'-subsets each involve at least
    R*t' - sum_sq*(t' - n0 + 1)^+ free core entries."""
    _check_assumptions(pattern, spec)
    _check_observed_count(pattern, spec, plus=True)
    n = core_dim(pattern.shape, spec)
    n0 = pattern.shape.head_size(spec.j) - spec.sum_sq // spec.product

    undecided = False
    rows = _gf_rows(pattern.observed, pattern.shape, spec)
    for selection, echelon in _selections(pattern, spec, "A+", seed, rows):
        constraint = build_constraint(pattern, spec, selection)
        columns = list(range(constraint.num_columns))
        masks, _labels = _support_masks(constraint, columns)
        width = max((m.bit_length() for m in masks), default=0)

        try:
            caps_uni = _caps_unique(width, spec, n0)
            finite_witnesses = _finite_search(pattern, spec, constraint, selection, rows, echelon)
            for tried, witness in enumerate(finite_witnesses, start=1):
                used = set(witness)
                remaining = [i for i in columns if i not in used]
                if len(remaining) >= n0:
                    counts0 = _IncrementalCounts(width, caps_uni)
                    order0 = sorted(remaining, key=lambda i: (-masks[i].bit_count(), i))
                    try:
                        witness0 = next(
                            iter(_witness_solutions(masks, order0, n0, counts0, [SEARCH_NODE_GUARD])),
                            None,
                        )
                    except CertifierGuardError:
                        undecided = True
                        witness0 = None
                    if witness0 is not None:
                        finite_part = FiniteCertificate(
                            verdict="finite",
                            num_free_core=n,
                            witness_columns=witness,
                            violating_subset=None,
                            selection=selection,
                            num_columns=constraint.num_columns,
                        )
                        return UniqueCertificate(
                            verdict="unique",
                            finite=finite_part,
                            witness_columns0=witness0,
                            n0=n0,
                        )
                if tried >= UNIQUE_WITNESS_CAP:
                    undecided = True
                    break
        except CertifierGuardError:
            undecided = True

    finite_cert = _certify_finite(pattern, spec, seed, rows)
    verdict = "undecided-search-exhausted" if undecided else "not-certified"
    return UniqueCertificate(
        verdict=verdict,
        finite=finite_cert,
        witness_columns0=None,
        n0=n0,
        reason="no disjoint witness pair found",
    )


def subpro_consistency(
    pattern: SamplingPattern, spec: RankSpec, r_j: int, seed: int = 0
) -> SubproResult:
    """Check that a finiteness certificate at split j carries down to split
    j-1 (with the extra rank component r_j) whenever the assumptions hold
    there too.  Vacuously true when the j-level certificate is not finite."""
    if spec.j < 2:
        raise ValueError("needs j >= 2 so that j-1 is a valid split")
    cert_j = certify_finite(pattern, spec, seed=seed)
    if cert_j.verdict != "finite":
        return SubproResult(
            implication_held=True,
            vacuous=True,
            verdict_at_j=cert_j.verdict,
            verdict_below=None,
        )
    below = RankSpec(j=spec.j - 1, ranks=(r_j,) + spec.ranks)
    try:
        cert_below = certify_finite(pattern, below, seed=seed)
    except AssumptionError as exc:
        return SubproResult(
            implication_held=True,
            vacuous=True,
            verdict_at_j=cert_j.verdict,
            verdict_below=None,
            note=f"assumptions fail at j-1: {exc}",
        )
    if cert_below.verdict == "undecided-search-exhausted":
        return SubproResult(
            implication_held=None,
            vacuous=False,
            verdict_at_j=cert_j.verdict,
            verdict_below=cert_below.verdict,
        )
    return SubproResult(
        implication_held=(cert_below.verdict == "finite"),
        vacuous=False,
        verdict_at_j=cert_j.verdict,
        verdict_below=cert_below.verdict,
    )
