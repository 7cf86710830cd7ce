"""Shapes, coordinates, sampling patterns, and flattening index maps.

Conventions used throughout the package:

* coordinates are 1-based tuples ``(x_1, ..., x_d)``;
* flattened indices are 1-based, with the *first* participating dimension
  varying fastest (column-major in the usual numpy sense);
* a sampling pattern is a sorted, duplicate-free set of observed coordinates,
  checked in one numpy pass (arity, bounds, duplicates) when it is built;
* dimensions and coordinates must fit int64, the index type of every numpy
  map below; :func:`read_pattern` refuses a file whose dimensions do not.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Coord",
    "Shape",
    "SamplingPattern",
    "CoordinateBoundsError",
    "DuplicateCoordinateError",
    "MalformedPatternError",
    "matricize_col",
    "unfold_index",
    "unfold_row",
    "unfold_col",
    "flatten_index",
    "unflatten_index",
    "unfolding_indices",
    "read_pattern",
    "write_pattern",
]

Coord = tuple[int, ...]


class CoordinateBoundsError(ValueError):
    """A coordinate component lies outside ``1..n_i``."""


class DuplicateCoordinateError(ValueError):
    """The same coordinate appears twice in a pattern file."""


class MalformedPatternError(ValueError):
    """The pattern file is not valid JSON or misses required fields."""


@dataclass(frozen=True)
class Shape:
    """Dimensions ``n_1..n_d`` of an order-``d`` tensor (``d >= 2``)."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dims) < 2:
            raise ValueError("tensor order must be at least 2")
        if any(int(n) < 1 for n in self.dims):
            raise ValueError("all dimensions must be positive")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        """Total number of entries N."""
        n = 1
        for v in self.dims:
            n *= v
        return n

    def size_without(self, i: int) -> int:
        """Product of all dimensions except the i-th (1-based)."""
        self._check_axis(i)
        return self.size // self.dims[i - 1]

    def head_size(self, j: int) -> int:
        """Product of the first j dimensions (rows of the j-unfolding)."""
        if not 1 <= j <= self.order - 1:
            raise ValueError(f"split index j={j} out of range for order {self.order}")
        n = 1
        for v in self.dims[:j]:
            n *= v
        return n

    def tail_size(self, j: int) -> int:
        """Product of the last d-j dimensions (columns of the j-unfolding)."""
        return self.size // self.head_size(j)

    def _check_axis(self, i: int) -> None:
        if not 1 <= i <= self.order:
            raise ValueError(f"axis {i} out of range for order {self.order}")

    def check_coord(self, coord: Sequence[int]) -> Coord:
        c = tuple(int(v) for v in coord)
        if len(c) != self.order:
            raise CoordinateBoundsError(f"coordinate {c} has wrong length for {self.dims}")
        for v, n in zip(c, self.dims):
            if not 1 <= v <= n:
                raise CoordinateBoundsError(f"coordinate {c} out of bounds for {self.dims}")
        return c

    def coords(self) -> Iterator[Coord]:
        """All coordinates, first dimension fastest."""
        ranges = [range(1, n + 1) for n in reversed(self.dims)]
        for rev in itertools.product(*ranges):
            yield tuple(reversed(rev))


def flatten_index(sizes: Sequence[int], values: Sequence[int]) -> int:
    """1-based flat index of `values` within a grid of `sizes` (first fastest)."""
    idx = 0
    stride = 1
    for v, n in zip(values, sizes):
        if not 1 <= v <= n:
            raise CoordinateBoundsError(f"value {v} out of range 1..{n}")
        idx += (v - 1) * stride
        stride *= n
    return idx + 1


def unflatten_index(sizes: Sequence[int], index: int) -> tuple[int, ...]:
    """Inverse of :func:`flatten_index`."""
    total = 1
    for n in sizes:
        total *= n
    if not 1 <= index <= total:
        raise ValueError(f"index {index} out of range 1..{total}")
    rem = index - 1
    out = []
    for n in sizes:
        out.append(rem % n + 1)
        rem //= n
    return tuple(out)


def matricize_col(shape: Shape, i: int, coord: Sequence[int]) -> int:
    """Column index of `coord` in the mode-i matricization (row index is x_i).

    The map over the remaining coordinates is the fixed ascending-dimension,
    first-dimension-fastest stride rule, so results are reproducible.
    """
    shape._check_axis(i)
    c = shape.check_coord(coord)
    sizes = [n for k, n in enumerate(shape.dims, start=1) if k != i]
    values = [v for k, v in enumerate(c, start=1) if k != i]
    return flatten_index(sizes, values)


def unfold_index(shape: Shape, j: int, coord: Sequence[int]) -> tuple[int, int]:
    """(row, col) of `coord` in the j-unfolding.

    Rows flatten the first j coordinates, columns the remaining d-j, both with
    the first-dimension-fastest stride rule.
    """
    if not 1 <= j <= shape.order - 1:
        raise ValueError(f"split index j={j} out of range for order {shape.order}")
    c = shape.check_coord(coord)
    row = flatten_index(shape.dims[:j], c[:j])
    col = flatten_index(shape.dims[j:], c[j:])
    return row, col


def unfold_row(shape: Shape, j: int, coord: Sequence[int]) -> int:
    return unfold_index(shape, j, coord)[0]


def unfold_col(shape: Shape, j: int, coord: Sequence[int]) -> int:
    return unfold_index(shape, j, coord)[1]


def unfolding_indices(shape: Shape, j: int, coords: Sequence[Coord]) -> tuple[np.ndarray, np.ndarray]:
    """0-based j-unfolding rows and trailing indices of 1-based coordinates,
    given as tuples or as an (entries, d) array such as
    ``SamplingPattern.observed_array``, which is read without a copy."""
    try:
        x = np.asarray(coords, dtype=np.intp).reshape(-1, shape.order) - 1
    except OverflowError:
        raise CoordinateBoundsError(f"coordinates out of bounds for {shape.dims}") from None
    if ((x < 0) | (x >= np.array(shape.dims))).any():
        raise CoordinateBoundsError(f"coordinates out of bounds for {shape.dims}")
    head_strides = np.cumprod((1,) + shape.dims[: j - 1])
    return x[:, :j] @ head_strides, x[:, j:]


def _int64_array(values) -> Optional[np.ndarray]:
    """``values`` as an int64 array, or None when they are not all integers
    that fit int64 (numpy then infers a float, unsigned or object array), or
    do not form a rectangular array."""
    try:
        x = np.array(values)
    except (TypeError, ValueError):
        return None
    return x if x.dtype == np.int64 else None


def _sorted_if_valid(shape: Shape, coords: tuple) -> Optional[np.ndarray]:
    """The coordinates as a sorted int64 array of shape (entries, d), checked
    in one numpy pass: None when any has the wrong arity, lies outside
    ``1..n_i`` or repeats, or when they or the dimensions do not fit int64."""
    if not coords:
        return np.zeros((0, shape.order), np.int64)
    x, dims = _int64_array(coords), _int64_array(shape.dims)
    if x is None or dims is None or x.ndim != 2 or x.shape[1] != shape.order:
        return None
    x = x[np.lexsort(x.T[::-1])]
    if not ((x >= 1) & (x <= dims)).all() or (x[1:] == x[:-1]).all(axis=1).any():
        return None
    return x


@dataclass(frozen=True)
class SamplingPattern:
    """A binary observation mask, stored as the sorted set of observed coords.

    ``observed_array`` holds the same coordinates as a read-only array of
    shape (entries, d), row ``p`` for ``observed[p]``: int64 whenever the
    coordinates fit it."""

    shape: Shape
    observed: tuple[Coord, ...]

    def __post_init__(self) -> None:
        coords = tuple(self.observed)
        x = _sorted_if_valid(self.shape, coords)
        if x is None:
            # Some coordinate is bad: name the first one, in input order.
            seen = set()
            for coord in coords:
                c = self.shape.check_coord(coord)
                if c in seen:
                    raise DuplicateCoordinateError(f"duplicate coordinate {c}")
                seen.add(c)
            observed = tuple(sorted(seen))
            # Entries given as other integer types, or dimensions beyond int64.
            x = np.array(observed)
        else:
            observed = tuple(map(tuple, x.tolist()))
        x.flags.writeable = False
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "observed_array", x)
        object.__setattr__(self, "_observed_set", frozenset(observed))
        # Indexes other modules derive from this immutable pattern, kept with
        # it (see geometry.pattern_index).
        object.__setattr__(self, "_indexes", {})

    @property
    def num_observed(self) -> int:
        return len(self.observed)

    def __contains__(self, coord: Sequence[int]) -> bool:
        return tuple(coord) in self._observed_set

    @classmethod
    def from_coords(cls, dims: Sequence[int], coords: Iterable[Sequence[int]]) -> "SamplingPattern":
        return cls(Shape(tuple(dims)), tuple(coords))

    @classmethod
    def full(cls, dims: Sequence[int]) -> "SamplingPattern":
        shape = Shape(tuple(dims))
        return cls(shape, tuple(shape.coords()))


def write_pattern(pattern: SamplingPattern, path) -> None:
    payload = {
        "dims": list(pattern.shape.dims),
        "observed": [list(c) for c in pattern.observed],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _int_list(values) -> bool:
    return isinstance(values, list) and all(type(v) is int for v in values)


def read_pattern(path) -> SamplingPattern:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedPatternError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict) or "dims" not in payload or "observed" not in payload:
        raise MalformedPatternError(f"{path} must contain 'dims' and 'observed'")
    # JSON gives 1.5 and true as float and bool, which int() would truncate.
    dims, observed = payload["dims"], payload["observed"]
    if not (
        _int_list(dims)
        and isinstance(observed, list)
        and all(isinstance(c, list) for c in observed)
        and all(type(v) is int for v in itertools.chain.from_iterable(observed))
    ):
        raise MalformedPatternError(f"{path}: 'dims' and every observed coordinate must be lists of integers")
    if dims and _int64_array(dims) is None:
        raise MalformedPatternError(f"{path}: every dimension must lie between 1 and 2**63 - 1")
    try:
        return SamplingPattern.from_coords(dims, observed)
    except (CoordinateBoundsError, DuplicateCoordinateError):
        raise
    except (TypeError, ValueError) as exc:
        raise MalformedPatternError(f"malformed pattern in {path}: {exc}") from exc
