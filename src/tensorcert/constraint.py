"""Constraint matrix built from a sampling pattern and a designated selection.

Fix the trailing coordinates ``(t_{j+1}, ..., t_d)``: the observed entries of
that subtensor split into the designated ones (spent on pinning the factor
matrices) and the rest.  Each remaining observed entry contributes one column
whose support, expressed in j-unfolding row indices, is the set of designated
rows of the subtensor plus the entry's own ("free") row.  These supports are
all the downstream counting arguments ever look at, so the matrix is stored
directly in this column/row-set form.  The subtensors and unfolding rows come
from the pattern's :class:`~tensorcert.geometry.PatternIndex`, so building a
matrix converts no coordinate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .core import SamplingPattern, unflatten_index
from .geometry import RankSpec, pattern_index
from .assumptions import TSelection

__all__ = ["ConstraintColumn", "ConstraintMatrix", "build_constraint", "m_count"]


@dataclass(frozen=True)
class ConstraintColumn:
    base: tuple[int, ...]  # trailing coordinates of the subtensor
    designated_rows: frozenset[int]
    free_row: int

    @property
    def support(self) -> frozenset[int]:
        return self.designated_rows | {self.free_row}


@dataclass(frozen=True)
class ConstraintMatrix:
    num_rows: int
    columns: tuple[ConstraintColumn, ...]
    j: int
    head_dims: tuple[int, ...]

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def supports(self) -> list[frozenset[int]]:
        return [c.support for c in self.columns]

    def dense_support(self) -> tuple[tuple[int, ...], ...]:
        """Support of the dense order-(j+1) form: coordinates (head..., column)
        with columns numbered 1.. in build order."""
        coords = []
        for z, col in enumerate(self.columns, start=1):
            for row in sorted(col.support):
                head = unflatten_index(self.head_dims, row)
                coords.append(head + (z,))
        return tuple(sorted(coords))

    def dump_json(self) -> str:
        payload = {
            "numRows": self.num_rows,
            "columns": [
                {
                    "base": list(c.base),
                    "designated": sorted(c.designated_rows),
                    "free": c.free_row,
                }
                for c in self.columns
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def build_constraint(
    pattern: SamplingPattern, spec: RankSpec, selection: TSelection
) -> ConstraintMatrix:
    """Assemble the constraint matrix; columns are ordered lexicographically by
    (subtensor coordinate, free entry coordinate) so rebuilds are identical.

    Reads the subtensors and unfolding rows from the pattern's
    :func:`~tensorcert.geometry.pattern_index`, which the certificate's
    selections and searches share."""
    shape = pattern.shape
    index = pattern_index(pattern, spec)
    try:
        designated = {index.position[c] for c in selection.entries}
    except KeyError:
        raise ValueError("designated selection must be a subset of the observed entries") from None
    rows = index.rows
    columns = []
    for tail, members in index.groups.items():
        designated_rows = frozenset(rows[p] for p in members if p in designated)
        columns.extend(
            ConstraintColumn(base=tail, designated_rows=designated_rows, free_row=rows[p])
            for p in members
            if p not in designated
        )
    return ConstraintMatrix(
        num_rows=shape.head_size(spec.j),
        columns=tuple(columns),
        j=spec.j,
        head_dims=shape.dims[: spec.j],
    )


def m_count(constraint: ConstraintMatrix, column_subset: Iterable[int]) -> int:
    """Number of distinct rows touched by the given columns (indices 0-based)."""
    rows: set[int] = set()
    for idx in column_subset:
        rows |= constraint.columns[idx].support
    return len(rows)
