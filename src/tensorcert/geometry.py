"""Rank bookkeeping: manifold dimension, core-entry budgets, known-entry layout.

A partially specified Tucker model splits the dimensions at index ``j``: the
first ``j`` dimensions are absorbed into the core tensor, and only the trailing
rank components ``r_{j+1}..r_d`` are prescribed.  The core's ``j``-unfolding has
``N_j = n_1 * ... * n_j`` rows and ``R = prod r_i`` columns; fixing the gauge
pins an identity block per trailing dimension inside that unfolding, which is
what :func:`canonical_structure` lays out and what :meth:`RankSpec.g` counts.
The ranks fit the shape when each is at most its dimension and the blocks'
rows fit the unfolding (N_j >= sum r_i, :func:`check_Bj`); :func:`check_fits`
refuses any other spec with an :class:`AssumptionError`, and every entry
point that takes a spec (both certificates, the oracle's instances and
:func:`canonical_structure`) calls it.

The observed entries are polynomials in the core and factor entries, which
have one layout, :func:`factor_offsets`'; the oracle's unknowns are a column
selection of it.  :func:`tucker_terms` evaluates the entries and their
partials for every caller, in floating point or over GF(p), and
:func:`layout_columns` places the partials in that layout.  Exact ranks are
taken over GF(p) by :class:`ModEchelon`: full rank mod p implies full rank
over Q, and a random point of GF(p) shows a deficit that is not generic with
probability at most deg/p (Schwartz-Zippel).  An echelon pivots each row at
its last nonzero column, so the same pushes also rank the rows' parts in a
trailing block of columns, such as the factor block.  :func:`probe_point`
draws a float point afresh; a residue point is the prefix of one kept
residue stream per (seed, modulus), which is the same as drawing it afresh.

One certificate asks the same questions of its pattern many times, so
:func:`pattern_index` builds a :class:`PatternIndex` of it in one numpy pass
over the pattern's validated coordinate array (each entry's position,
unfolding row, trailing coordinates and subtensor, and the hull-screen
slots, packed once per subtensor) and keeps it with the immutable pattern.
The index also holds the pattern's one GF(p) Jacobian at the point of
``RANK_POINT_SEED``, built on first use, whose row ``p`` is entry ``p``'s:
the rows every rank decision of a certificate reads.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Coord, SamplingPattern, Shape, unfolding_indices

__all__ = [
    "RankSpec", "AssumptionError", "check_Bj", "check_fits", "StructureBlock", "ProperStructure", "manifold_dim",
    "core_dim", "canonical_structure", "rank_strides", "factor_offsets", "unfolding_indices", "tucker_terms",
    "layout_columns", "probe_point", "unreduced_jacobian", "RANK_PRIME", "RANK_POINT_SEED", "ModEchelon",
    "reaches_rank_mod_p", "PatternIndex", "pattern_index",
]

# The largest prime below 2**28.  Residues multiply within int64, and 128
# products of them, plus one residue, still sum below 2**63.
RANK_PRIME = 268_435_399
_DOT_CHUNK = (2**63 - RANK_PRIME) // (RANK_PRIME - 1) ** 2
RANK_POINT_SEED = 0x7A57E  # the GF(RANK_PRIME) point of every certificate's ranks


@dataclass(frozen=True)
class RankSpec:
    """Prescribed trailing rank components ``r_{j+1}..r_d`` with split index j."""

    j: int
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ValueError("split index j must be >= 1")
        if not self.ranks:
            raise ValueError("at least one trailing rank component required")
        if any(int(r) < 1 for r in self.ranks):
            raise ValueError("rank components must be positive")
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))

    @property
    def order(self) -> int:
        """Tensor order d implied by j and the number of trailing ranks."""
        return self.j + len(self.ranks)

    @property
    def product(self) -> int:
        """R = prod of the trailing rank components."""
        p = 1
        for r in self.ranks:
            p *= r
        return p

    @property
    def sum_sq(self) -> int:
        return sum(r * r for r in self.ranks)

    @property
    def sum_ranks(self) -> int:
        return sum(self.ranks)

    @property
    def sorted_ranks(self) -> tuple[int, ...]:
        return tuple(sorted(self.ranks, reverse=True))

    def g(self, x: int) -> int:
        """Maximum number of known (gauge-pinned) core entries in any x rows
        of the core's j-unfolding.

        Evaluated over the descending-sorted ranks: filling rows block by
        block, a row taken from the block of size r contributes r entries.
        """
        if x < 0:
            raise ValueError("row count must be nonnegative")
        total = 0
        offset = 0
        for r in self.sorted_ranks:
            take = min(r, max(x - offset, 0))
            total += take * r
            offset += r
        return total

    def check_shape(self, shape: Shape) -> None:
        if shape.order != self.order:
            raise ValueError(
                f"rank spec implies order {self.order} but shape has order {shape.order}"
            )

    def tail_dims(self, shape: Shape) -> tuple[int, ...]:
        """Sizes n_{j+1}..n_d."""
        self.check_shape(shape)
        return shape.dims[self.j:]


class AssumptionError(ValueError):
    """A structural precondition on the pattern/ranks is violated."""


def check_Bj(shape: Shape, spec: RankSpec) -> bool:
    """Row budget for the gauge blocks: N_j >= sum of trailing ranks."""
    spec.check_shape(shape)
    return shape.head_size(spec.j) >= spec.sum_ranks


def check_fits(shape: Shape, spec: RankSpec) -> None:
    """Refuse, with an :class:`AssumptionError`, trailing ranks that do not
    fit the shape: a rank component above its dimension, or too few
    unfolding rows for the gauge blocks (:func:`check_Bj`)."""
    for n, r in zip(spec.tail_dims(shape), spec.ranks):
        if r > n:
            raise AssumptionError(f"rank component {r} exceeds dimension {n}")
    if not check_Bj(shape, spec):
        raise AssumptionError("unfolding has fewer rows than the sum of trailing ranks")


def manifold_dim(shape: Shape, full_ranks: Sequence[int]) -> int:
    """Dimension of the manifold of tensors with the full Tucker rank vector."""
    ranks = tuple(int(r) for r in full_ranks)
    if len(ranks) != shape.order:
        raise ValueError("need one rank per dimension")
    prod = 1
    total = 0
    for n, r in zip(shape.dims, ranks):
        if r > n or r < 1:
            raise ValueError(f"rank {r} infeasible for dimension {n}")
        total += n * r - r * r
        prod *= r
    return total + prod


def core_dim(shape: Shape, spec: RankSpec) -> int:
    """Number of free core entries once the gauge block entries are pinned:
    N_j * R - sum r_i^2.  This is the witness size the finiteness certificate
    must reach."""
    spec.check_shape(shape)
    return shape.head_size(spec.j) * spec.product - spec.sum_sq


@dataclass(frozen=True)
class StructureBlock:
    """Identity block for one trailing dimension inside the core unfolding.

    ``rows[a-1]`` and ``cols[b-1]`` address the (a, b) entry of the block:
    ``rows`` are j-unfolding row indices, ``cols`` are core column coordinates
    ``(1, ..., 1, b, 1, ..., 1)`` with ``b`` in the slot of this dimension.
    """

    dim: int  # absolute dimension index i in j+1..d
    rows: tuple[int, ...]
    cols: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ProperStructure:
    shape: Shape
    spec: RankSpec
    blocks: tuple[StructureBlock, ...]

    def known_entries(self):
        """Yield (row, col-coordinate, value) for every pinned core entry."""
        for block in self.blocks:
            for a, row in enumerate(block.rows):
                for b, col in enumerate(block.cols):
                    yield row, col, (1.0 if a == b else 0.0)

    @property
    def known_count(self) -> int:
        return sum(b.size * b.size for b in self.blocks)


def canonical_structure(shape: Shape, spec: RankSpec) -> ProperStructure:
    """The fixed identity-block layout: block for dimension i occupies rows
    ``1 + sum_{s<i} r_s .. sum_{s<=i} r_s`` and the columns whose coordinate is
    1 everywhere except in slot i.  Refuses a spec that does not
    :func:`check_fits` the shape."""
    check_fits(shape, spec)
    blocks = []
    offset = 0
    for slot, r in enumerate(spec.ranks):
        rows = tuple(range(offset + 1, offset + r + 1))
        cols = []
        for b in range(1, r + 1):
            col = [1] * len(spec.ranks)
            col[slot] = b
            cols.append(tuple(col))
        blocks.append(StructureBlock(dim=spec.j + 1 + slot, rows=rows, cols=tuple(cols)))
        offset += r
    return ProperStructure(shape=shape, spec=spec, blocks=tuple(blocks))


# --- The observation map and its Jacobian. ---


def rank_strides(ranks: Sequence[int]) -> tuple[int, ...]:
    """Strides of the flat core column over rank tuples (first slot fastest)."""
    strides = []
    s = 1
    for r in ranks:
        strides.append(s)
        s *= r
    return tuple(strides)


def factor_offsets(shape: Shape, spec: RankSpec) -> tuple[int, ...]:
    """Column boundaries of the unreduced layout, which lists all ``N_j * R``
    core entries row by row and then every factor entry, slot by slot, with
    T_s(a, b) at column ``offsets[s] + b * r_s + a``.  The last boundary is
    the total column count."""
    offsets = [shape.head_size(spec.j) * spec.product]
    for r, n in zip(spec.ranks, spec.tail_dims(shape)):
        offsets.append(offsets[-1] + r * n)
    return tuple(offsets)


def tucker_terms(
    core: np.ndarray,
    factors: Sequence[np.ndarray],
    rows: np.ndarray,
    tails: np.ndarray,
    modulus: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Values of the entries at unfolding ``rows`` and trailing indices
    ``tails`` (0-based), with all their nonzero partial derivatives.

    ``partials[e]`` lists entry ``e``'s derivatives in ``core[rows[e], :]``,
    then, slot by slot, in ``T_s(:, tails[e, s])``; :func:`layout_columns`
    gives their columns in the unreduced layout.  Products and sums run in
    the same order for every entry: factors left to right by slot, rank
    tuples in ``itertools.product`` order.  With a ``modulus``, the inputs
    are int64 residues and every product and every sum is reduced mod it,
    so nothing leaves int64.
    """
    if modulus is None:
        mul, add = np.multiply, np.add
    else:
        def mul(a, b):
            return a * b % modulus

        def add(a, b):
            return (a + b) % modulus

    ranks = tuple(T.shape[0] for T in factors)
    strides = rank_strides(ranks)
    R = core.shape[1]
    starts = list(itertools.accumulate(ranks, initial=R))
    core_at = core[rows]  # (entries, R): each entry's unfolding row
    fac_at = [T[:, tails[:, s]] for s, T in enumerate(factors)]  # (r_s, entries)
    values = np.zeros(len(rows), core.dtype)
    partials = np.zeros((starts[-1], len(rows)), core.dtype)  # transposed
    for k in itertools.product(*(range(r) for r in ranks)):
        col = sum(ki * s for ki, s in zip(k, strides))
        fs = [f[ks] for f, ks in zip(fac_at, k)]
        prod_all = functools.reduce(mul, fs)
        partials[col] = prod_all
        c = core_at[:, col]
        values = add(values, mul(c, prod_all))
        for s in range(len(fs)):
            others = fs[:s] + fs[s + 1 :]
            at = starts[s] + k[s]
            partials[at] = add(partials[at], mul(c, functools.reduce(mul, others)) if others else c)
    return values, partials.T


def layout_columns(shape: Shape, spec: RankSpec, rows: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Column in the :func:`factor_offsets` layout of each partial that
    :func:`tucker_terms` returns for the entries at ``rows`` and ``tails``."""
    offsets = factor_offsets(shape, spec)
    R = spec.product
    return np.concatenate(
        [rows[:, None] * R + np.arange(R)]
        + [offsets[s] + tails[:, s, None] * r + np.arange(r) for s, r in enumerate(spec.ranks)],
        axis=1,
    )


def _point_shapes(shape: Shape, spec: RankSpec) -> list[tuple[int, int]]:
    return [(shape.head_size(spec.j), spec.product), *zip(spec.ranks, spec.tail_dims(shape))]


# (seed, modulus) -> the kept, read-only prefix of that residue stream
_RESIDUE_STREAMS: dict[tuple[int, int], np.ndarray] = {}


def _residues(seed: int, modulus: int, size: int) -> np.ndarray:
    """The first ``size`` values of ``default_rng(seed).integers(modulus)``,
    read-only.  ``Generator.integers`` is prefix-consistent (the first k
    values of a longer draw are the draw of size k), so they are read from
    the kept prefix of that stream, which is redrawn longer when it is too
    short: each point costs no seeding of a fresh generator."""
    kept = _RESIDUE_STREAMS.get((seed, modulus))
    if kept is None or kept.size < size:
        kept = np.random.default_rng(seed).integers(modulus, size=size)
        kept.flags.writeable = False
        _RESIDUE_STREAMS[seed, modulus] = kept
    return kept[:size]


def probe_point(
    shape: Shape, spec: RankSpec, seed: int, modulus: Optional[int] = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Generic core unfolding (N_j, R) and factors T_s (r_s, n_s), from
    ``seed`` as one flat draw split in that order: standard normal entries,
    drawn afresh, or uniform residues mod ``modulus`` when one is given,
    copied from the stream's kept prefix (:func:`_residues`).  The arrays
    are writable (the oracle writes its gauge pins into them) and new."""
    shapes = _point_shapes(shape, spec)
    sizes = [a * b for a, b in shapes]
    if modulus is None:
        flat = np.random.default_rng(seed).standard_normal(sum(sizes))
    else:
        flat = _residues(seed, modulus, sum(sizes)).copy()
    starts = itertools.accumulate(sizes, initial=0)
    core, *factors = [flat[at : at + size].reshape(dims) for at, size, dims in zip(starts, sizes, shapes)]
    return core, factors


def unreduced_jacobian(
    shape: Shape,
    spec: RankSpec,
    coords: Sequence[Coord],
    seed: int,
    modulus: Optional[int] = None,
    indices: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Jacobian of the entries at ``coords`` in every core and every factor
    entry (columns as in :func:`factor_offsets`) at the generic point
    :func:`probe_point` draws from ``seed``, over GF(``modulus``) when one is
    given.  Row ``e`` depends only on ``coords[e]``, so the Jacobian of a
    subset of the entries is a row selection of this matrix.  ``indices``,
    when the caller holds them, are the coordinates' :func:`unfolding_indices`,
    which are then not computed again."""
    rows, tails = unfolding_indices(shape, spec.j, coords) if indices is None else indices
    _, partials = tucker_terms(*probe_point(shape, spec, seed, modulus), rows, tails, modulus)
    jac = np.zeros((len(rows), factor_offsets(shape, spec)[-1]), partials.dtype)
    jac[np.arange(len(rows))[:, None], layout_columns(shape, spec, rows, tails)] = partials
    return jac


def _slot_sets(
    tail_dims: Sequence[int], weights: Sequence[int], tails: Iterable[Sequence[int]]
) -> tuple[list[int], int]:
    """The hull screen's slots (see :mod:`~tensorcert.assumptions`) of the
    given 1-based trailing coordinates, each tail's packed into one int, and
    the slot count: value ``t`` of trailing slot ``s`` owns ``weights[s]``
    consecutive bits, numbered from 0 slot by slot, and an entry holds the
    bits of each of its trailing values."""
    starts = list(itertools.accumulate((n * w for n, w in zip(tail_dims, weights)), initial=0))
    masks = [(1 << w) - 1 for w in weights]
    sets = [sum(m << (start + (t - 1) * w) for start, w, m, t in zip(starts, weights, masks, tail)) for tail in tails]
    return sets, starts[-1]


class PatternIndex:
    """A pattern's observed entries under one rank spec, indexed in one numpy
    pass over ``pattern.observed_array``.  Entry ``p`` is
    ``pattern.observed[p]``, which is also its row in :attr:`jacobian`.

    * ``position``: entry -> ``p``;
    * ``rows[p]``: its 1-based j-unfolding row; ``trailing[p]``: its
      0-based trailing coordinates, one array for all entries;
    * ``groups``: tail (the 1-based trailing coordinates) -> the positions
      with that tail, ascending, tails in ascending order: the subtensors of
      the constraint matrix;
    * :meth:`slots`: per entry, its hull-screen slots at given weights,
      packed into one int, one pack per subtensor;
    * :attr:`jacobian`: the unreduced Jacobian over GF(RANK_PRIME) at the
      point of ``RANK_POINT_SEED``, built on first use, read-only.
    """

    def __init__(self, pattern: SamplingPattern, spec: RankSpec):
        self._shape, self._spec, self._observed = pattern.shape, spec, pattern.observed
        j = spec.j
        self._unfolding, self.trailing = unfolding_indices(pattern.shape, j, pattern.observed_array)
        self.tail_dims = spec.tail_dims(pattern.shape)
        self.position = {c: p for p, c in enumerate(pattern.observed)}
        self.rows = (self._unfolding + 1).tolist()
        groups: dict[tuple[int, ...], list[int]] = {}
        for p, c in enumerate(pattern.observed):
            groups.setdefault(c[j:], []).append(p)
        self.groups = dict(sorted(groups.items()))
        self._slots: dict[tuple[int, ...], tuple[list[int], int]] = {}

    def slots(self, weights: tuple[int, ...]) -> tuple[list[int], int]:
        """:func:`_slot_sets` of every entry, built once per weights: each
        subtensor's tail is packed once and shared by its entries."""
        if weights not in self._slots:
            packed, size = _slot_sets(self.tail_dims, weights, self.groups)
            sets = [0] * len(self.rows)
            for slots, members in zip(packed, self.groups.values()):
                for p in members:
                    sets[p] = slots
            self._slots[weights] = sets, size
        return self._slots[weights]

    @functools.cached_property
    def jacobian(self) -> np.ndarray:
        """:func:`unreduced_jacobian` of the observed entries over
        GF(RANK_PRIME) at the point of ``RANK_POINT_SEED``; row ``p`` is entry
        ``p``'s.  Every rank decision of a certificate reads its rows here.
        Built from the index's own unfolding rows and :attr:`trailing`."""
        indices = (self._unfolding, self.trailing)
        jac = unreduced_jacobian(self._shape, self._spec, self._observed, RANK_POINT_SEED, RANK_PRIME, indices)
        jac.flags.writeable = False
        return jac


def pattern_index(pattern: SamplingPattern, spec: RankSpec) -> PatternIndex:
    """The pattern's :class:`PatternIndex` under ``spec``, built on first use
    and kept with the (immutable) pattern, so that a certificate and all the
    selections, constraint matrices and searches it runs share one index."""
    index = pattern._indexes.get(spec)
    if index is None:
        spec.check_shape(pattern.shape)
        index = pattern._indexes[spec] = PatternIndex(pattern, spec)
    return index


def _dot_mod(coef: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``coef @ rows``, reduced mod RANK_PRIME only as often as int64 needs:
    each chunk's sum, plus a residue, stays below 2**63."""
    if len(coef) <= _DOT_CHUNK:
        return coef @ rows
    total = coef[:_DOT_CHUNK] @ rows[:_DOT_CHUNK]
    for at in range(_DOT_CHUNK, len(coef), _DOT_CHUNK):
        total = total % RANK_PRIME + coef[at : at + _DOT_CHUNK] @ rows[at : at + _DOT_CHUNK]
    return total


class ModEchelon:
    """Rows of residues mod RANK_PRIME, pushed one at a time; the independent
    ones are kept in reduced row echelon form.

    Every kept row is 1 at its own pivot column and 0 at the pivots of the
    others, so a new row is reduced in one step: subtract its values at the
    pivots times the kept rows.  An independent row then clears its pivot
    column from the earlier rows; the cleared column is saved, and ``pop``
    adds it back.  Memory stays at two width x width arrays however deep
    the pushes go, plus rank x width residues for each :meth:`mark` kept.

    A push at rank k writes only ``_pivots[k]``, ``_cleared[k]`` and the
    kept rows, so a mark is the push count, ``block_rank`` and a copy of the
    kept rows, and :meth:`rewind` to it undoes every later push in one step,
    leaving the state that as many pops leave.

    A row's pivot is its last nonzero column, so every kept row is zero
    after its pivot, and for any column b the kept rows pivoted at b or
    later reduce every row's part from b on: a row's part from b on is
    independent of the earlier rows' parts exactly when its pivot is b or
    later.  ``block_rank`` counts the pivots from column ``block`` on: the
    rank of the pushed rows' parts from ``block`` on, from the same pushes
    as ``rank``."""

    def __init__(self, width: int, block: int = 0):
        self.rank = self.block_rank = 0
        self.block = block
        self._rows = np.zeros((width, width), np.int64)
        self._pivots = np.zeros(width, np.intp)
        self._cleared = np.zeros((width, width), np.int64)  # row k: what push k cleared
        self._pushed: list[bool] = []  # per push, whether it was independent

    @property
    def dependent(self) -> int:
        """Pushed rows that were dependent on the rows before them."""
        return len(self._pushed) - self.rank

    def push(self, row: np.ndarray) -> bool:
        """Add a row; True when it is independent of the rows pushed before."""
        k = self.rank
        kept = self._rows[:k]
        if k:
            row = (row - _dot_mod(row[self._pivots[:k]], kept)) % RANK_PRIME
        nonzero = row.nonzero()[0]
        independent = bool(nonzero.size)
        self._pushed.append(independent)
        if independent:
            pivot = nonzero[-1]
            row = row * pow(int(row[pivot]), -1, RANK_PRIME) % RANK_PRIME
            if k:
                cleared = self._cleared[k, :k]
                cleared[:] = kept[:, pivot]
                kept -= np.multiply.outer(cleared, row)
                kept %= RANK_PRIME
            self._rows[k] = row
            self._pivots[k] = pivot
            self.rank = k + 1
            if pivot >= self.block:
                self.block_rank += 1
        return independent

    def pop(self) -> None:
        """Undo the last push."""
        if self._pushed.pop():
            k = self.rank - 1
            kept = self._rows[:k]
            kept += np.multiply.outer(self._cleared[k, :k], self._rows[k])
            kept %= RANK_PRIME
            self.rank = k
            if self._pivots[k] >= self.block:
                self.block_rank -= 1

    def mark(self) -> tuple[int, int, np.ndarray]:
        """The state that :meth:`rewind` returns to."""
        return len(self._pushed), self.block_rank, self._rows[: self.rank].copy()

    def rewind(self, mark: tuple[int, int, np.ndarray]) -> None:
        """Undo at once every push since ``mark`` was taken."""
        pushes, self.block_rank, kept = mark
        del self._pushed[pushes:]
        self.rank = len(kept)
        self._rows[: self.rank] = kept

    def clear(self) -> None:
        """Undo every push at once."""
        self.rank = self.block_rank = 0
        self._pushed.clear()


def reaches_rank_mod_p(rows: np.ndarray, target: int, echelon: Optional[ModEchelon] = None) -> bool:
    """True when the rows (residues mod RANK_PRIME) have rank >= target over
    GF(p).  Stops as soon as the answer is known.  With an ``echelon``, the
    rows are pushed on top of the rows it holds (and left there), and the
    rank is that of all of them together."""
    held = 0 if echelon is None else echelon.rank + echelon.dependent
    slack = held + len(rows) - target
    if slack < 0:
        return False
    echelon = ModEchelon(rows.shape[1]) if echelon is None else echelon
    for row in rows:
        if echelon.rank >= target:
            break
        echelon.push(row)
        if echelon.dependent > slack:
            return False
    return echelon.rank >= target
