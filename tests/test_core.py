"""Shapes, index maps, and sampling-pattern I/O."""
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from tensorcert.core import (
    CoordinateBoundsError,
    DuplicateCoordinateError,
    MalformedPatternError,
    SamplingPattern,
    Shape,
    flatten_index,
    matricize_col,
    read_pattern,
    unflatten_index,
    unfold_col,
    unfold_index,
    unfold_row,
    write_pattern,
    _sorted_if_valid,
)

dims_st = st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4).map(tuple)


@st.composite
def shape_and_coord(draw):
    dims = draw(dims_st)
    coord = tuple(draw(st.integers(min_value=1, max_value=n)) for n in dims)
    return dims, coord


class TestShape:
    def test_rejects_order_below_two(self):
        with pytest.raises(ValueError):
            Shape(dims=(3,))

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            Shape(dims=(3, 0))

    def test_size_products(self):
        s = Shape(dims=(2, 3, 4))
        assert s.size == 24
        assert s.size_without(2) == 8
        assert s.head_size(2) == 6
        assert s.tail_size(2) == 4

    def test_head_size_range_check(self):
        s = Shape(dims=(2, 3))
        with pytest.raises(ValueError):
            s.head_size(2)

    def test_coords_first_dimension_fastest(self):
        s = Shape(dims=(2, 2))
        assert list(s.coords()) == [(1, 1), (2, 1), (1, 2), (2, 2)]

    def test_check_coord_bounds(self):
        s = Shape(dims=(2, 2))
        with pytest.raises(CoordinateBoundsError):
            s.check_coord((0, 1))
        with pytest.raises(CoordinateBoundsError):
            s.check_coord((1, 3))
        with pytest.raises(CoordinateBoundsError):
            s.check_coord((1, 1, 1))


class TestFlattenIndex:
    def test_first_dimension_fastest(self):
        # (2, 3) grid, walking the first coordinate advances the index by 1.
        assert flatten_index((2, 3), (1, 1)) == 1
        assert flatten_index((2, 3), (2, 1)) == 2
        assert flatten_index((2, 3), (1, 2)) == 3
        assert flatten_index((2, 3), (2, 3)) == 6

    def test_exhaustive_bijection_small(self):
        sizes = (2, 3, 2)
        seen = set()
        for values in itertools.product(*[range(1, n + 1) for n in sizes]):
            seen.add(flatten_index(sizes, values))
        assert seen == set(range(1, 13))

    @given(shape_and_coord())
    def test_roundtrip(self, sc):
        dims, coord = sc
        assert unflatten_index(dims, flatten_index(dims, coord)) == coord

    def test_out_of_range_rejected(self):
        with pytest.raises(CoordinateBoundsError):
            flatten_index((2, 2), (3, 1))
        with pytest.raises(ValueError):
            unflatten_index((2, 2), 5)
        with pytest.raises(ValueError):
            unflatten_index((2, 2), 0)


class TestUnfoldIndex:
    @given(shape_and_coord(), st.data())
    def test_row_col_consistent_with_flatten(self, sc, data):
        dims, coord = sc
        shape = Shape(dims=dims)
        j = data.draw(st.integers(min_value=1, max_value=len(dims) - 1))
        row, col = unfold_index(shape, j, coord)
        assert row == flatten_index(dims[:j], coord[:j])
        assert col == flatten_index(dims[j:], coord[j:])
        assert unfold_row(shape, j, coord) == row
        assert unfold_col(shape, j, coord) == col

    def test_unfolding_is_a_bijection(self):
        shape = Shape(dims=(2, 3, 2))
        pairs = {unfold_index(shape, 2, c) for c in shape.coords()}
        assert pairs == {(r, c) for r in range(1, 7) for c in range(1, 3)}

    def test_invalid_split(self):
        shape = Shape(dims=(2, 2))
        with pytest.raises(ValueError):
            unfold_index(shape, 2, (1, 1))


class TestMatricizeCol:
    def test_mode_one_matches_tail_flatten(self):
        shape = Shape(dims=(2, 3, 4))
        for coord in shape.coords():
            assert matricize_col(shape, 1, coord) == flatten_index((3, 4), coord[1:])

    def test_skips_the_chosen_axis(self):
        shape = Shape(dims=(2, 3, 4))
        assert matricize_col(shape, 2, (2, 3, 1)) == flatten_index((2, 4), (2, 1))

    @given(shape_and_coord(), st.data())
    def test_column_count(self, sc, data):
        dims, coord = sc
        shape = Shape(dims=dims)
        i = data.draw(st.integers(min_value=1, max_value=len(dims)))
        col = matricize_col(shape, i, coord)
        assert 1 <= col <= shape.size_without(i)


class TestSamplingPattern:
    def test_sorts_and_deduplicates_checkable(self):
        pat = SamplingPattern.from_coords((2, 2), [(2, 1), (1, 1)])
        assert pat.observed == ((1, 1), (2, 1))
        assert (1, 1) in pat
        assert (1, 2) not in pat

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateCoordinateError):
            SamplingPattern.from_coords((2, 2), [(1, 1), (1, 1)])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(CoordinateBoundsError):
            SamplingPattern.from_coords((2, 2), [(1, 3)])

    def test_full_pattern(self):
        pat = SamplingPattern.full((2, 3))
        assert pat.num_observed == 6
        assert set(pat.observed) == set(pat.shape.coords())

    def test_write_read_roundtrip(self, tmp_path):
        pat = SamplingPattern.from_coords((2, 3), [(1, 1), (2, 3), (1, 2)])
        path = tmp_path / "pattern.json"
        write_pattern(pat, path)
        assert read_pattern(path) == pat

    def test_write_is_byte_deterministic(self, tmp_path):
        pat = SamplingPattern.from_coords((2, 3), [(2, 3), (1, 1)])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_pattern(pat, p1)
        write_pattern(pat, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(MalformedPatternError):
            read_pattern(bad)
        bad.write_text('{"dims": [2, 2]}')
        with pytest.raises(MalformedPatternError):
            read_pattern(bad)

    def test_read_surfaces_coordinate_errors(self, tmp_path):
        path = tmp_path / "oob.json"
        path.write_text('{"dims": [2, 2], "observed": [[1, 3]]}')
        with pytest.raises(CoordinateBoundsError):
            read_pattern(path)


def checked_one_by_one(shape: Shape, coords):
    """Reference: check every coordinate in input order, naming the first bad
    one."""
    seen = set()
    for coord in coords:
        c = shape.check_coord(coord)
        if c in seen:
            raise DuplicateCoordinateError(f"duplicate coordinate {c}")
        seen.add(c)
    return tuple(sorted(seen))


HUGE = [2**63 - 1, 2**63, 2**64, -(2**63) - 1, 10**20]


@st.composite
def dims_and_coords(draw):
    """Coordinates that are mostly in bounds, some of the wrong arity, 0,
    n_i + 1 or beyond int64, drawn with repeats from a small pool."""
    dims = draw(dims_st)
    d = len(dims)

    def coord():
        c = [draw(st.integers(1, n)) for n in dims]
        kind = draw(st.integers(0, 9))
        if kind == 0:
            c = c[:-1] if draw(st.booleans()) else c + [1]
        elif kind == 1:
            i = draw(st.integers(0, d - 1))
            c[i] = draw(st.sampled_from([0, dims[i] + 1, *HUGE]))
        return tuple(c)

    pool = [coord() for _ in range(draw(st.integers(1, 6)))]
    coords = draw(st.lists(st.sampled_from(pool), max_size=10))
    return dims, coords


def outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # the class and text are what is compared
        return type(exc), str(exc)


class TestOnePassCheck:
    @settings(max_examples=300)
    @given(dims_and_coords())
    def test_same_result_or_error_as_per_coordinate_loop(self, case):
        """The one-pass check accepts exactly what the loop accepts, with the
        same sorted entries, and a refused pattern raises the loop's error."""
        dims, coords = case
        shape = Shape(dims=dims)
        expected = outcome(lambda: checked_one_by_one(shape, coords))
        assert outcome(lambda: SamplingPattern.from_coords(dims, coords).observed) == expected
        assert _sorted_if_valid(shape, coords) == (expected[1] if expected[0] == "ok" else None)

    def test_empty_pattern(self):
        assert _sorted_if_valid(Shape(dims=(2, 2)), ()) == ()
        assert SamplingPattern.from_coords((2, 2), []).observed == ()

    def test_huge_coordinate_keeps_its_message(self):
        with pytest.raises(CoordinateBoundsError, match=r"coordinate \(2, 2, 99999999999999999999\) out of bounds"):
            SamplingPattern.from_coords((3, 3, 5), [(1, 1, 1), (2, 2, 99999999999999999999)])

    def test_dimension_beyond_int64_checked_one_by_one(self):
        """A shape numpy cannot index is still checked, by the loop."""
        dims = (3, 3, 10**20)
        assert _sorted_if_valid(Shape(dims=dims), [(1, 1, 1)]) is None
        pattern = SamplingPattern.from_coords(dims, [(3, 3, 5), (2, 2, 10**20 - 1)])
        assert pattern.observed == ((2, 2, 10**20 - 1), (3, 3, 5))

    @pytest.mark.parametrize("dims", [[3, 3, 2**63], [3, 3, 10**20], [3, -(2**64), 3]])
    def test_read_refuses_dimension_beyond_int64(self, dims, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dims": dims, "observed": [[1, 1, 1]]}))
        with pytest.raises(MalformedPatternError, match="2\\*\\*63 - 1"):
            read_pattern(path)
