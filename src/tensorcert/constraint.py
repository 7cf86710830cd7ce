"""Constraint matrix built from a sampling pattern and a designated selection.

Fix the trailing coordinates ``(t_{j+1}, ..., t_d)``: the observed entries of
that subtensor split into the designated ones (spent on pinning the factor
matrices) and the rest.  Each remaining observed entry contributes one column
whose support, expressed in j-unfolding row indices, is the set of designated
rows of the subtensor plus the entry's own ("free") row.  These supports are
all the downstream counting arguments ever look at, so the matrix is stored
in the form the witness search reads: each column's free entry, as its
position in the pattern's observed entries (the row of the pattern's
Jacobian that the search pushes), and its support as a bitmask over the rows
that some column touches, numbered densely in row order, so that the
row-set scans run over exactly those rows.  The search order, tallest
support first, comes with them.  All of it is built in one pass over the
subtensors of the pattern's :class:`~tensorcert.geometry.PatternIndex`, so
building a matrix converts no coordinate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .core import Coord, SamplingPattern, flatten_index, unflatten_index
from .geometry import RankSpec, pattern_index
from .assumptions import TSelection

__all__ = ["ConstraintMatrix", "build_constraint", "m_count"]


@dataclass(frozen=True)
class ConstraintMatrix:
    """Column ``z`` is the observed entry ``entries[free[z]]``; its support is
    ``masks[z]``, whose bit ``b`` stands for the 1-based unfolding row
    ``rows[b]``.  ``rows`` are the rows some column touches, ascending, and
    ``order`` is the search order: the columns by support size, tallest
    first, ties by column index."""

    num_rows: int
    j: int
    head_dims: tuple[int, ...]
    entries: tuple[Coord, ...]  # the pattern's observed entries
    free: tuple[int, ...]
    rows: tuple[int, ...]
    masks: tuple[int, ...]
    order: tuple[int, ...]

    @property
    def num_columns(self) -> int:
        return len(self.free)

    @property
    def width(self) -> int:
        """Number of rows the columns touch: the bit width of the masks."""
        return len(self.rows)

    def free_entry(self, z: int) -> Coord:
        return self.entries[self.free[z]]

    def support(self, z: int) -> frozenset[int]:
        """Column ``z``'s support as 1-based unfolding rows."""
        mask = self.masks[z]
        return frozenset(row for b, row in enumerate(self.rows) if mask >> b & 1)

    def supports(self) -> list[frozenset[int]]:
        return [self.support(z) for z in range(self.num_columns)]

    def dense_support(self) -> tuple[tuple[int, ...], ...]:
        """Support of the dense order-(j+1) form: coordinates (head..., column)
        with columns numbered 1.. in build order."""
        coords = []
        for z in range(self.num_columns):
            for row in sorted(self.support(z)):
                head = unflatten_index(self.head_dims, row)
                coords.append(head + (z + 1,))
        return tuple(sorted(coords))

    def dump_json(self) -> str:
        columns = []
        for z in range(self.num_columns):
            entry = self.free_entry(z)
            free = flatten_index(self.head_dims, entry[: self.j])
            designated = sorted(self.support(z) - {free})
            columns.append({"base": list(entry[self.j :]), "designated": designated, "free": free})
        return json.dumps({"numRows": self.num_rows, "columns": columns}, indent=2, sort_keys=True)


def build_constraint(
    pattern: SamplingPattern, spec: RankSpec, selection: TSelection
) -> ConstraintMatrix:
    """Assemble the constraint matrix; columns are ordered lexicographically by
    (subtensor coordinate, free entry coordinate) so rebuilds are identical.

    Reads the subtensors and unfolding rows from the pattern's
    :func:`~tensorcert.geometry.pattern_index`, which the certificate's
    selections and searches share."""
    index = pattern_index(pattern, spec)
    try:
        designated = {index.position[c] for c in selection.entries}
    except KeyError:
        raise ValueError("designated selection must be a subset of the observed entries") from None
    rows = index.rows
    # Per subtensor with a column: its designated rows and its free entries.
    parts = []
    for members in index.groups.values():
        if designated.isdisjoint(members):
            parts.append(((), members))
            continue
        columns = [p for p in members if p not in designated]
        if columns:
            parts.append(([rows[p] for p in members if p in designated], columns))
    touched = sorted({rows[p] for _, columns in parts for p in columns}.union(*(held for held, _ in parts)))
    bit = {row: 1 << b for b, row in enumerate(touched)}
    free, masks, spans = [], [], []
    for held, members in parts:
        common = sum(bit[row] for row in held)
        # Each support here has len(held) + 1 rows: the search order's key.
        spans.append((-len(held), len(free), len(free) + len(members)))
        free.extend(members)
        masks.extend(common | bit[rows[p]] for p in members)
    order = []
    for _, start, stop in sorted(spans):
        order.extend(range(start, stop))
    return ConstraintMatrix(
        num_rows=pattern.shape.head_size(spec.j),
        j=spec.j,
        head_dims=pattern.shape.dims[: spec.j],
        entries=pattern.observed,
        free=tuple(free),
        rows=tuple(touched),
        masks=tuple(masks),
        order=tuple(order),
    )


def m_count(constraint: ConstraintMatrix, column_subset: Iterable[int]) -> int:
    """Number of distinct rows touched by the given columns (indices 0-based)."""
    rows = 0
    for idx in column_subset:
        rows |= constraint.masks[idx]
    return rows.bit_count()
