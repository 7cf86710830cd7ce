"""Finite/unique completability certification from the constraint matrix.

A candidate witness is a set of constraint columns such that every subset of
t columns involves at least t free core entries; free-entry counts use the
worst-case capacity R*|W| - g(|W|) over the rows W the columns touch.  The
subset condition is checked in its dual form — for every row set W, the
number of columns supported inside W must not exceed the capacity of W —
which is equivalent because dropping a row from W removes at least as much
capacity as it can remove columns.  A capacity depends on |W| alone, so the
certifier keeps one value per row count and reads it by popcount.

Counting is necessary but not sufficient for algebraic independence
(coefficient vectors of same-subtensor constraints lie on a low-dimensional
product variety the counts cannot see), so the witness search also keeps
the rank.  A witness's entries — the designated ones plus one free entry per
column — must have a Jacobian of rank ``target`` (the unknowns minus the
basis-change group, as in :func:`generic_rank_finite`).  The rank is taken
over GF(p), p = ``RANK_PRIME``, at the point drawn from ``RANK_POINT_SEED``:
full rank there proves independence, and a deficit that is not generic shows
with probability at most deg/p.  Every row is read from the pattern's one
Jacobian at that point, :attr:`~tensorcert.geometry.PatternIndex.jacobian`,
which the selection search, the witness search and the full pattern's rank
share.  The search starts from the
:class:`~tensorcert.geometry.ModEchelon` of the designated rows that
:func:`~tensorcert.assumptions.find_T_selection` leaves (one per selection,
so those rows are pushed once), pushes the free-entry row of every column
it includes, and prunes a branch as soon as more rows are
dependent than ``slack = |entries| - target`` allows (0 for an ``A``
selection, sum n_i for an ``A+`` one).  Independence is inherited by
subsets, so the pruning loses no witness, and every witness it yields is
rank-confirmed.  Each selection's search has ``WITNESS_NODE_BUDGET`` nodes
and nests no calls, however many columns it steps past.

Whether a witness exists depends on which observed entries were designated
to pin the factor matrices: column supports include the designated rows of
the column's own subtensor, so selections that concentrate several entries
in one trailing column produce the tall supports that positive capacity
requires.  The designated selection is existentially quantified, so the
certifier decides on the first selection: its witness, or else the rank of
the full pattern at the same point, taken by pushing the other entries'
rows onto the selection's echelon, which the search leaves as it found it
however it ends.  A rank short of the target gives
"not-finite" at once, with the count model's violating subset when the
search ran to its end; a rank at the target gives "finite", and only then
are a handful of alternative selections searched for a witness.  So
:func:`certify_finite` always decides.  :func:`certify_unique` finds its
first ``A+`` selection, decides the finite part as :func:`certify_finite`
does, and searches the ``A+`` selections for a disjoint witness pair only
when that part is "finite"; "undecided" means that a node budget or the
witness cap ran out during that search, and the certificate's reason names
each limit that did.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import Coord, SamplingPattern, Shape, unflatten_index
from .geometry import (
    AssumptionError,
    ModEchelon,
    RankSpec,
    check_fits,
    core_dim,
    factor_offsets,
    pattern_index,
    reaches_rank_mod_p,
)
from .assumptions import (
    TSelection,
    _check_observed_count,
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
    verdict: str  # "finite" | "not-finite"
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
    return _caps(m, spec)[m]


def _support_masks(constraint: ConstraintMatrix, columns: Sequence[int]) -> list[int]:
    """Supports as bitmasks over the rows actually touched, remapped densely
    in row order.  The columns of one subtensor share their designated rows,
    so each set of designated rows is mapped once.
    """
    chosen = [constraint.columns[idx] for idx in columns]
    designated = {c.designated_rows for c in chosen}
    labels = sorted({c.free_row for c in chosen}.union(*designated))
    bit = {row: 1 << b for b, row in enumerate(labels)}
    designated_mask = {rows: sum(bit[row] for row in rows) for rows in designated}
    return [designated_mask[c.designated_rows] | bit[c.free_row] for c in chosen]


def _caps(width: int, spec: RankSpec, n0: Optional[int] = None) -> list[int]:
    """Capacity of a row set W by its row count |W| = 0..width: R*|W| - g(|W|),
    or with ``n0`` the largest t in 0..n0 that the uniqueness relaxation
    R*(t+1) - sum_sq*(t + 2 - n0)^+ <= R*|W| - g(|W|) lets W hold."""
    R = spec.product
    by_count = [R * w - spec.g(w) for w in range(width + 1)]
    if n0 is not None:
        by_count = [
            next((t for t in range(n0) if R * (t + 1) - spec.sum_sq * max(0, t + 2 - n0) > free), n0)
            for free in by_count
        ]
    return by_count


class _IncrementalCounts:
    """Counts of chosen columns inside every row set, against the capacities
    of their row counts: filled with every column for the subset condition,
    or kept incrementally during witness search."""

    def __init__(self, width: int, caps: Sequence[int]):
        if width > ROW_SCAN_GUARD:
            raise CertifierGuardError(f"row-set counts over {width} rows exceed the guard")
        self.full = (1 << width) - 1
        self.cnt = [0] * (1 << width)
        self.caps = caps

    def _walk(self, mask: int, step: int) -> bool:
        """Add ``step`` to the count of every row set that holds ``mask``.
        With ``step`` 0, stop at the first one already at its capacity and
        report whether there was none."""
        cnt, caps, comp = self.cnt, self.caps, self.full & ~mask
        sub = comp
        while True:
            w = sub | mask
            if step:
                cnt[w] += step
            elif cnt[w] >= caps[w.bit_count()]:
                return False
            if not sub:
                return True
            sub = (sub - 1) & comp

    def can_add(self, mask: int) -> bool:
        return self._walk(mask, 0)

    def add(self, mask: int) -> None:
        self._walk(mask, 1)

    def remove(self, mask: int) -> None:
        self._walk(mask, -1)


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
    masks = _support_masks(constraint, columns)
    width = max(m.bit_length() for m in masks)
    counts = _IncrementalCounts(width, _caps(width, spec))
    for m in masks:
        counts.add(m)
    over = next((w for w in range(1, 1 << width) if counts.cnt[w] > counts.caps[w.bit_count()]), None)
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
    pattern: SamplingPattern, spec: RankSpec, start: Optional[tuple[TSelection, ModEchelon]] = None
) -> bool:
    """True when the pattern's observed entries determine the tensor up to
    finitely many completions, decided at a random point of GF(p).

    Works with the unreduced parametrization — every core entry and every
    factor entry is a variable — whose fiber over a generic tensor of the
    given trailing ranks is the basis-change group of dimension sum r_i^2.
    The entries pin the tensor finitely exactly when their Jacobian reaches
    rank (num core entries) + (num factor entries) - sum r_i^2.  The rows
    are the pattern index's :attr:`~tensorcert.geometry.PatternIndex.jacobian`.
    ``start``, a selection and an echelon holding exactly its rows (as
    :func:`_selections` yields them), continues that echelon: only the other
    entries' rows are pushed onto it, and they stay there.
    """
    target = _rank_target(pattern.shape, spec)
    if pattern.num_observed < target:
        return False
    index = pattern_index(pattern, spec)
    if start is None:
        return reaches_rank_mod_p(index.jacobian, target)
    selection, echelon = start
    others = np.delete(index.jacobian, [index.position[c] for c in selection.entries], axis=0)
    return reaches_rank_mod_p(others, target, echelon)


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
    node_budget: int,
    rank: Optional[tuple[ModEchelon, np.ndarray, int]] = None,
) -> Iterator[tuple[int, ...]]:
    """Yield qualifying column sets of the target size (indices into `masks`),
    include-first depth-first so the first solution matches a greedy descent.
    With ``rank = (echelon, rows, slack)``, a column is included only when
    pushing ``rows[idx]`` leaves at most ``slack`` dependent rows.
    Each node spends one of ``node_budget``; raises when none is left.
    Backing up resumes just past the last included position, so no call nests.
    However the search ends, the echelon is left as it was given."""
    chosen: list[int] = []  # positions in ``order`` of the included columns

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

    i = 0
    try:
        while True:
            if len(chosen) == target:
                yield tuple(sorted(order[p] for p in chosen))
            elif target - len(chosen) <= len(order) - i:
                node_budget -= 1
                if node_budget <= 0:
                    raise CertifierGuardError("witness search exceeded its node budget")
                idx = order[i]
                if admit(idx):
                    counts.add(masks[idx])
                    chosen.append(i)
                i += 1
                continue
            # Back up to the last inclusion and search on without it.
            if not chosen:
                return
            i = chosen.pop()
            counts.remove(masks[order[i]])
            if rank is not None:
                rank[0].pop()
            i += 1
    finally:
        # Stopped by the budget, or closed at a witness: undo its pushes.
        if rank is not None:
            for _ in chosen:
                rank[0].pop()


def _search_columns(constraint: ConstraintMatrix) -> tuple[list[int], int, list[int]]:
    """Support masks of every column, the number of rows they span, and the
    search order: tallest support first, ties by column index."""
    masks = _support_masks(constraint, range(constraint.num_columns))
    width = max((m.bit_length() for m in masks), default=0)
    return masks, width, sorted(range(len(masks)), key=lambda i: (-masks[i].bit_count(), i))


def _finite_search(
    pattern: SamplingPattern,
    spec: RankSpec,
    constraint: ConstraintMatrix,
    selection: TSelection,
    echelon: ModEchelon,
) -> Iterator[tuple[int, ...]]:
    """Witnesses of ``core_dim`` columns of the pattern's ``constraint``, in
    search order, each confirmed: with the designated entries, their free
    entries reach rank :func:`_rank_target` over GF(p).  ``echelon`` holds
    the rows of the selection's entries, as :func:`find_T_selection` leaves
    it; the search pushes the free entries' rows onto it.  Each column's
    free entry and its row are read from the pattern's
    :func:`~tensorcert.geometry.pattern_index`."""
    shape = pattern.shape
    n = core_dim(shape, spec)
    masks, width, order = _search_columns(constraint)
    counts = _IncrementalCounts(width, _caps(width, spec))
    slack = len(selection.entries) + n - _rank_target(shape, spec)
    if echelon.dependent > slack:
        return
    index = pattern_index(pattern, spec)
    free = index.jacobian[[index.at[c.free_row, c.base] for c in constraint.columns]]
    yield from _witness_solutions(masks, order, n, counts, WITNESS_NODE_BUDGET, (echelon, free, slack))


def _selections(
    pattern: SamplingPattern, spec: RankSpec, mode: str, seed: int
) -> Iterator[tuple[TSelection, ModEchelon]]:
    """The distinct designated selections of seeds ``seed`` to
    ``seed + SELECTION_RETRIES``, in seed order, each found when asked for,
    with the echelon of its rows that :func:`find_T_selection` leaves."""
    tried_entries: set[tuple] = set()
    for attempt in range(SELECTION_RETRIES + 1):
        echelon = selection_echelon(pattern.shape, spec)
        selection = find_T_selection(pattern, spec, mode=mode, seed=seed + attempt, echelon=echelon)
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
    check_fits(pattern.shape, spec)
    _check_observed_count(pattern, spec, plus=False)
    return _certify_finite(pattern, spec, seed)


def _certify_finite(pattern: SamplingPattern, spec: RankSpec, seed: int) -> FiniteCertificate:
    """:func:`certify_finite` past its input checks."""
    n = core_dim(pattern.shape, spec)
    first = None
    for selection, echelon in _selections(pattern, spec, "A", seed):
        constraint = build_constraint(pattern, spec, selection)
        decided = functools.partial(
            FiniteCertificate,
            num_free_core=n,
            witness_columns=None,
            violating_subset=None,
            selection=selection,
            num_columns=constraint.num_columns,
        )
        # Every A selection has target - n entries, so too few columns means
        # fewer observed entries than the target rank.
        if constraint.num_columns < n:
            return decided("not-finite", reason=f"only {constraint.num_columns} constraint columns but {n} needed")
        try:
            witness, stopped = next(_finite_search(pattern, spec, constraint, selection, echelon), None), False
        except CertifierGuardError:
            witness, stopped = None, True
        if witness is not None:
            return decided("finite", witness_columns=witness)
        if first is None:
            # A witness's rows reach the target rank, so when all observed
            # rows fall short no selection can yield one.  The search left
            # the echelon holding the selection's rows, so the probe goes on
            # from there.
            if not generic_rank_finite(pattern, spec, (selection, echelon)):
                if stopped:
                    return decided("not-finite", reason="generic rank stays below the number of unknowns")
                return decided("not-finite", violating_subset=thm4_dependent(constraint, spec)[1])
            first = decided
    assert first is not None
    return first("finite", reason="decided by generic-rank evaluation; no combinatorial witness found")


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
    entries = _witness_entries(constraint, certificate.selection, witness)
    return ok and generic_rank_finite(SamplingPattern(pattern.shape, tuple(entries)), spec)


def certify_unique(pattern: SamplingPattern, spec: RankSpec, seed: int = 0) -> UniqueCertificate:
    """Sufficient uniqueness certification: a finiteness witness plus a
    disjoint second witness whose t'-subsets each involve at least
    R*t' - sum_sq*(t' - n0 + 1)^+ free core entries.

    The first ``A+`` selection is found before anything else, so a pattern
    with none is refused.  The finite part is then decided as by
    :func:`certify_finite`, and only when it is "finite" are the ``A+``
    selections searched for a disjoint witness pair, with the finite
    search's masks and column order."""
    check_fits(pattern.shape, spec)
    _check_observed_count(pattern, spec, plus=True)
    n0 = pattern.shape.head_size(spec.j) - spec.sum_sq // spec.product
    selections = _selections(pattern, spec, "A+", seed)
    first = next(selections)
    finite = _certify_finite(pattern, spec, seed)
    no_pair = functools.partial(
        UniqueCertificate, finite=finite, witness_columns0=None, n0=n0, reason="no disjoint witness pair found"
    )
    if finite.verdict != "finite":
        return no_pair("not-certified")
    limits: dict[str, None] = {}  # each limit that stopped a search, in the order it first did
    for selection, echelon in itertools.chain([first], selections):
        constraint = build_constraint(pattern, spec, selection)
        masks, width, order = _search_columns(constraint)
        caps0 = _caps(width, spec, n0)
        try:
            witnesses = _finite_search(pattern, spec, constraint, selection, echelon)
            for tried, witness in enumerate(witnesses, start=1):
                used = set(witness)
                order0 = [i for i in order if i not in used]
                counts0 = _IncrementalCounts(width, caps0)
                try:
                    witness0 = next(_witness_solutions(masks, order0, n0, counts0, SEARCH_NODE_GUARD), None)
                except CertifierGuardError:
                    limits[f"SEARCH_NODE_GUARD ({SEARCH_NODE_GUARD} nodes) ran out in a second-witness search"] = None
                    witness0 = None
                if witness0 is not None:
                    part = FiniteCertificate(
                        "finite", finite.num_free_core, witness, None, selection, constraint.num_columns
                    )
                    return UniqueCertificate(verdict="unique", finite=part, witness_columns0=witness0, n0=n0)
                if tried >= UNIQUE_WITNESS_CAP:
                    limits[f"UNIQUE_WITNESS_CAP ({UNIQUE_WITNESS_CAP} finite witnesses) reached on an A+ selection"] = None
                    break
        except CertifierGuardError:
            # The finite search builds the row-set counts, which ROW_SCAN_GUARD
            # refuses past that many rows, before it spends a node.
            if width > ROW_SCAN_GUARD:
                limits[f"ROW_SCAN_GUARD ({ROW_SCAN_GUARD} rows) refused an A+ selection's {width} rows"] = None
            else:
                limits[f"WITNESS_NODE_BUDGET ({WITNESS_NODE_BUDGET} nodes) ran out in an A+ selection's finite search"] = None
    if limits:
        return no_pair("undecided-search-exhausted", reason=f"no disjoint witness pair found; {'; '.join(limits)}")
    return no_pair("not-certified")


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
    return SubproResult(
        implication_held=(cert_below.verdict == "finite"),
        vacuous=False,
        verdict_at_j=cert_j.verdict,
        verdict_below=cert_below.verdict,
    )
