"""Sampling-pattern assumptions on the designated (factor-pinning) entries.

Each observed entry, viewed as a polynomial in the factor matrices, involves
exactly the factor columns indexed by its own trailing coordinates.  A family
of row sets ``S_{j+1}..S_d`` ("hull") therefore offers a variable budget of
``sum |S_i| * w_i`` (``w_i = r_i``, or ``r_i + 1`` for the strengthened
screen), and the entries it has to pay for are those whose *every* trailing
coordinate falls inside the corresponding ``S_i``.  The designated selection
is admissible when no hull is overdrawn; this is what makes the factor
matrices finitely determined once a generic core is fixed.

No hull is overdrawn exactly when a bipartite graph passes Hall's condition:
each entry is a T1 node, each trailing coordinate ``(i, x)`` offers ``w_i``
T2 slots, and an entry is adjacent to every slot of each of its trailing
coordinates.  A set of entries then sees exactly the slots of its smallest
hull, so the screen is decided by one matching that saturates every entry,
and a Hall witness, when there is none, spans an overdrawn hull.  The
matching grows one entry at a time by the alternating search of
:mod:`~tensorcert.hallgraph`, over each entry's slots packed into one int
(:meth:`~tensorcert.geometry.PatternIndex.slots`, which packs each
subtensor's once; :func:`hull_condition` packs its entries' by the same
``geometry._slot_sets``).  The sets that pass are
the independent sets of a transversal matroid.

Pinning also asks the factor block of the selection's Jacobian to reach rank
``target = sum n_i r_i - (d - j - 1)``.  The factor row of an entry is
supported on the ``r_i`` factor entries ``T_i(:, x_i)`` of its trailing
coordinates, which are its slots (``w_i >= r_i``).  Independent rows have a
nonzero minor, whose every nonzero term matches the rows into their support,
so every set of independent rows passes the screen: the linear matroid is a
weak-map image of the transversal one.  An admissible selection therefore
exists exactly when ``needed`` observed entries pass the screen together and
all observed factor rows reach ``target``: a basis of those rows passes the
screen, and the matching greedy extends it to ``needed`` entries.
:func:`find_T_selection` builds the selection that way.  It pushes each
entry's full GF(p) row, read from the pattern's one Jacobian
(:attr:`~tensorcert.geometry.PatternIndex.jacobian`), into one echelon
(:func:`selection_echelon`) whose pivots land in the factor block, the
trailing columns, whenever a reduced row is nonzero there, so the same
pushes find the factor basis and leave the echelon of the selection's rows,
which the certifier's witness search starts from instead of pushing the
designated rows again.

The ranks' fit to the shape is checked before all this, in ``geometry``
(:func:`~tensorcert.geometry.check_fits`), next to ``RankSpec``; its
``AssumptionError`` and ``check_Bj`` are re-exported here.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import Coord, SamplingPattern, Shape
from .geometry import (
    RANK_POINT_SEED,
    RANK_PRIME,
    AssumptionError,
    ModEchelon,
    RankSpec,
    _slot_sets,
    check_Bj,
    factor_offsets,
    pattern_index,
    reaches_rank_mod_p,
    unreduced_jacobian,
)
from .hallgraph import _augment

__all__ = [
    "HullSpec",
    "TSelection",
    "AssumptionError",
    "SelectionInfeasibleError",
    "SelectionNotFoundError",
    "minimal_hull",
    "hull_condition",
    "selection_pins_factors",
    "check_Aj",
    "check_Aj_plus",
    "check_Bj",
    "find_T_selection",
    "selection_echelon",
]


class SelectionInfeasibleError(AssumptionError):
    """No admissible designated selection can exist for this pattern."""


class SelectionNotFoundError(AssumptionError):
    """Search for an admissible designated selection was exhausted."""


@dataclass(frozen=True)
class HullSpec:
    """Row sets S_{j+1}..S_d, one per trailing dimension."""

    j: int
    subsets: tuple[frozenset[int], ...]

    def contains(self, coord: Sequence[int]) -> bool:
        """True iff every trailing coordinate of `coord` lies in its row set."""
        tail = tuple(coord)[self.j:]
        return all(x in s for x, s in zip(tail, self.subsets))

    def budget(self, weights: Sequence[int]) -> int:
        return sum(len(s) * w for s, w in zip(self.subsets, weights))

    def count(self, coords: Iterable[Sequence[int]]) -> int:
        return sum(1 for c in coords if self.contains(c))


@dataclass(frozen=True)
class TSelection:
    """The designated observed entries that pin down the factor matrices."""

    entries: tuple[Coord, ...]
    mode: str  # "A" or "A+"

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(sorted(tuple(c) for c in self.entries)))
        if self.mode not in ("A", "A+"):
            raise ValueError("mode must be 'A' or 'A+'")


def minimal_hull(j: int, coords: Iterable[Sequence[int]]) -> HullSpec:
    """Smallest hull covering `coords`: S_i collects the values actually taken
    by the i-th coordinate."""
    coords = [tuple(c) for c in coords]
    if not coords:
        raise ValueError("minimal hull of an empty entry set is undefined")
    d = len(coords[0])
    subsets = []
    for i in range(j, d):
        subsets.append(frozenset(c[i] for c in coords))
    return HullSpec(j=j, subsets=tuple(subsets))


def _per_dim_weights(spec: RankSpec, plus: bool) -> tuple[int, ...]:
    return tuple(r + 1 for r in spec.ranks) if plus else spec.ranks


def hull_condition(
    shape: Shape, spec: RankSpec, entries: Sequence[Coord], plus: bool = False
) -> tuple[bool, Optional[HullSpec]]:
    """Pure counting screen: no hull may contain more of the given entries than
    its variable budget; returns (ok, an overdrawn hull when not ok).

    Decided by matching every entry into the slots of its trailing
    coordinates, one alternating search per entry.  An entry that cannot be
    matched yields a Hall witness: a set of entries whose slots are fewer than
    its members, so its smallest hull holds more entries than its budget.

    Necessary for the selection to pin the factors, and cheap, but not
    sufficient: it ignores that scaling one factor up and another down in
    compensation leaves every entry unchanged, and that a factor column
    reached through few distinct co-coordinates contributes fewer effective
    variables than its full height."""
    entries = [shape.check_coord(c) for c in entries]
    slots, size = _slot_sets(spec.tail_dims(shape), _per_dim_weights(spec, plus), [c[spec.j :] for c in entries])
    mate, free = [-1] * size, (1 << size) - 1
    for u in range(len(entries)):
        free, missed = _augment(slots, mate, free, u)
        if missed is not None:
            return False, minimal_hull(spec.j, [entries[w] for w in missed])
    return True, None


def _pin_target(offsets: Sequence[int], spec: RankSpec) -> int:
    """Factor-block rank that pins the factors: every factor entry but the
    d - j - 1 compensating scalings."""
    return offsets[-1] - offsets[0] - (len(spec.ranks) - 1)


def selection_pins_factors(shape: Shape, spec: RankSpec, entries: Sequence[Coord]) -> bool:
    """True when, for a generic fixed core, the polynomials of the given
    observed entries leave only finitely many factor tuples (up to the
    inherent compensating-scaling family of dimension d - j - 1).

    Decided by the rank of the entries' Jacobian with respect to all factor
    entries at a random point of GF(p): the maximum attainable rank is
    ``sum n_i r_i - (d - j - 1)``, and the selection pins the factors exactly
    when it is attained.  The point is ``RANK_POINT_SEED``'s, at which
    :func:`find_T_selection` decides pinning too.
    """
    spec.check_shape(shape)
    offsets = factor_offsets(shape, spec)
    target = _pin_target(offsets, spec)
    coords = [tuple(c) for c in entries]
    if len(coords) < target:
        return False
    jac = unreduced_jacobian(shape, spec, coords, RANK_POINT_SEED, RANK_PRIME)
    return reaches_rank_mod_p(jac[:, offsets[0] :], target)


def _validate_selection(
    pattern: SamplingPattern, spec: RankSpec, selection: TSelection, plus: bool
) -> None:
    shape = pattern.shape
    spec.check_shape(shape)
    needed = _selection_size(shape, spec, plus)
    if len(selection.entries) != needed:
        raise AssumptionError(
            f"selection has {len(selection.entries)} entries, expected {needed}"
        )
    observed = set(pattern.observed)
    if any(c not in observed for c in selection.entries):
        raise AssumptionError("selection must be a subset of the observed entries")


def _check_admissible(
    pattern: SamplingPattern, spec: RankSpec, selection: TSelection, plus: bool
) -> tuple[bool, Optional[HullSpec]]:
    """The counting screen first, supplying the overdrawn-hull witness when it
    fails; when it passes, the generic-rank confirmation decides (in which
    case a False verdict carries no hull witness)."""
    _validate_selection(pattern, spec, selection, plus)
    ok, witness = hull_condition(pattern.shape, spec, selection.entries, plus)
    if not ok:
        return False, witness
    return selection_pins_factors(pattern.shape, spec, selection.entries), None


def check_Aj(pattern: SamplingPattern, spec: RankSpec, selection: TSelection) -> tuple[bool, Optional[HullSpec]]:
    """Admissibility of a designated selection of size ``sum n_i r_i``: the
    selection must pin the factor matrices to finitely many tuples for a
    generic core.  Returns (ok, overdrawn hull when the counting screen
    fails)."""
    return _check_admissible(pattern, spec, selection, plus=False)


def check_Aj_plus(pattern: SamplingPattern, spec: RankSpec, selection: TSelection) -> tuple[bool, Optional[HullSpec]]:
    """Strengthened admissibility with per-dimension weight r_i + 1 (used for
    uniqueness): the larger selection must satisfy the weighted counting
    screen and still pin the factors in the generic-rank sense."""
    return _check_admissible(pattern, spec, selection, plus=True)


def _selection_size(shape: Shape, spec: RankSpec, plus: bool) -> int:
    weights = _per_dim_weights(spec, plus)
    return sum(n * w for n, w in zip(spec.tail_dims(shape), weights))


def _seed_order(pattern: SamplingPattern, seed: int) -> list[int]:
    """Positions of the observed entries (sorted already) in lexicographic
    order, shuffled unless seed is 0."""
    order = list(range(pattern.num_observed))
    if seed:
        random.Random(seed * 1_000_003).shuffle(order)
    return order


def _greedy_candidate(
    pattern: SamplingPattern, spec: RankSpec, plus: bool, order: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """Greedy accumulation over ``order`` (positions in ``pattern.observed``),
    keeping an entry whenever the counting screen still passes; returns the
    kept positions.  Lexicographic order naturally packs several designated
    entries into the same trailing column, which downstream witness searches
    often need.

    The kept entries stay matched into their slots, so an entry passes the
    screen together with them exactly when one alternating search from it
    succeeds (a failed search leaves the matching as it was).  This is the
    greedy of a transversal matroid, so it returns None, in any entry order,
    exactly when no `needed` entries pass the screen together, and it keeps
    every entry of a prefix that passes."""
    needed = _selection_size(pattern.shape, spec, plus)
    slots, size = pattern_index(pattern, spec).slots(_per_dim_weights(spec, plus))
    sets = [slots[p] for p in order]
    mate, free = [-1] * size, (1 << size) - 1
    chosen: list[int] = []
    for u, p in enumerate(order):
        free, missed = _augment(sets, mate, free, u)
        if missed is None:
            chosen.append(p)
            if len(chosen) == needed:
                return tuple(chosen)
    return None


def selection_echelon(shape: Shape, spec: RankSpec) -> ModEchelon:
    """An empty echelon for :func:`find_T_selection`: as wide as the
    unreduced layout, whose ``block_rank`` is the factor block's rank."""
    offsets = factor_offsets(shape, spec)
    return ModEchelon(offsets[-1], block=offsets[0])


def _check_observed_count(pattern: SamplingPattern, spec: RankSpec, plus: bool) -> None:
    """Refuse a pattern with fewer observed entries than a selection needs.
    Decided from the dimensions alone, before any Jacobian is built."""
    needed = _selection_size(pattern.shape, spec, plus)
    if needed > pattern.num_observed:
        raise SelectionInfeasibleError(
            f"selection needs {needed} entries but only {pattern.num_observed} are observed"
        )


def find_T_selection(
    pattern: SamplingPattern,
    spec: RankSpec,
    mode: str = "A",
    seed: int = 0,
    echelon: Optional[ModEchelon] = None,
) -> TSelection:
    """Exact construction of an admissible designated selection, or a proof
    that none exists at the GF(p) point of ``RANK_POINT_SEED``.

    1. The greedy over the seed's order of the observed entries picks ``X0``;
       a shortfall proves that no `needed` entries pass the hull screen.
    2. The full GF(p) rows of ``X0``, then of the other entries, are pushed
       into one :func:`selection_echelon`, until every row of ``X0`` is in
       and the factor block reaches the pinning rank.  A row's pivot lands
       in the factor block exactly when its factor part is independent of
       the earlier ones, so those rows form a greedy basis ``Y`` of the
       factor rows.  Falling short of the pinning rank proves that no
       selection pins the factors.
    3. When ``Y`` lies inside ``X0``, ``X0`` pins the factors and is the
       selection, and the echelon already holds exactly its rows.
       Otherwise the greedy over ``Y``, then ``X0``, then the rest keeps
       ``Y`` (it passes the screen, see the module docstring) and grows it
       to `needed` entries, so the selection pins the factors by
       construction; the echelon is then rebuilt from its rows.

    The rows are read from the pattern index's
    :attr:`~tensorcert.geometry.PatternIndex.jacobian`.  ``echelon``, an
    empty :func:`selection_echelon` when given, holds exactly the
    selection's rows on return.
    """
    plus = mode == "A+"
    shape = pattern.shape
    spec.check_shape(shape)
    _check_observed_count(pattern, spec, plus)
    needed = _selection_size(shape, spec, plus)
    order = _seed_order(pattern, seed)
    first = _greedy_candidate(pattern, spec, plus, order)
    if first is None:
        raise SelectionNotFoundError(f"no {needed} observed entries pass the hull screen together")
    order = list(dict.fromkeys([*first, *order]))

    target = _pin_target(factor_offsets(shape, spec), spec)
    observed, jacobian = pattern.observed, pattern_index(pattern, spec).jacobian
    echelon = selection_echelon(shape, spec) if echelon is None else echelon
    basis = []
    for pushed, p in enumerate(order):
        if pushed >= len(first) and echelon.block_rank == target:
            break
        block_rank = echelon.block_rank
        echelon.push(jacobian[p])
        if echelon.block_rank > block_rank:
            basis.append(p)
    if echelon.block_rank < target:
        raise SelectionNotFoundError(
            f"the observed entries' factor block reaches rank {echelon.block_rank}, short of the {target} that pins the factors"
        )
    if set(basis) <= set(first):
        return TSelection(entries=tuple(observed[p] for p in first), mode=mode)
    selection = _greedy_candidate(pattern, spec, plus, list(dict.fromkeys(basis + order)))
    assert selection is not None and set(basis) <= set(selection)
    echelon.clear()
    for p in selection:
        echelon.push(jacobian[p])
    return TSelection(entries=tuple(observed[p] for p in selection), mode=mode)
