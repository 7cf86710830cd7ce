"""Constraint-matrix assembly from a pattern and a designated selection."""
import pytest

from tensorcert.assumptions import TSelection
from tensorcert.constraint import build_constraint, m_count
from tensorcert.core import SamplingPattern, Shape, unfold_row
from tensorcert.geometry import RankSpec


def small_instance():
    """(3, 3, 3) with j=1: two populated subtensor columns, one designated
    entry in each."""
    pattern = SamplingPattern.from_coords(
        (3, 3, 3),
        [
            (1, 1, 1), (2, 1, 1), (3, 1, 1),   # subtensor (1, 1)
            (1, 2, 1), (2, 2, 1),              # subtensor (2, 1)
        ],
    )
    spec = RankSpec(j=1, ranks=(1, 1))
    selection = TSelection(entries=((1, 1, 1), (1, 2, 1)), mode="A")
    return pattern, spec, selection


class TestBuildConstraint:
    def test_column_per_remaining_entry(self):
        pattern, spec, selection = small_instance()
        cm = build_constraint(pattern, spec, selection)
        assert cm.num_rows == 3
        assert cm.num_columns == pattern.num_observed - len(selection.entries)

    def test_support_is_designated_rows_plus_own_row(self):
        pattern, spec, selection = small_instance()
        cm = build_constraint(pattern, spec, selection)
        shape = pattern.shape
        by_base = {}
        for z in range(cm.num_columns):
            by_base.setdefault(cm.free_entry(z)[1:], []).append(z)
        # designated entry (1,1,1) pins row 1 of subtensor (1,1); the two
        # remaining entries there contribute supports {1,2} and {1,3}.
        assert {cm.support(z) for z in by_base[(1, 1)]} == {
            frozenset({1, 2}),
            frozenset({1, 3}),
        }
        assert [cm.free_entry(z) for z in by_base[(1, 1)]] == [(2, 1, 1), (3, 1, 1)]
        # subtensor (2,1): designated (1,2,1) -> row 1, remaining (2,2,1).
        (z,) = by_base[(2, 1)]
        assert cm.free_entry(z) == (2, 2, 1)
        assert cm.support(z) == frozenset({1, unfold_row(shape, 1, (2, 2, 1))}) == frozenset({1, 2})
        # masks over the touched rows 1, 2, 3; free entries by position
        assert cm.rows == (1, 2, 3) and cm.width == 3
        assert cm.masks == (0b011, 0b101, 0b011)
        assert [pattern.observed[p] for p in cm.free] == [(2, 1, 1), (3, 1, 1), (2, 2, 1)]

    def test_columns_sorted_by_base_then_entry(self):
        pattern, spec, selection = small_instance()
        cm = build_constraint(pattern, spec, selection)
        keys = [(cm.free_entry(z)[1:], cm.free_entry(z)) for z in range(cm.num_columns)]
        assert keys == sorted(keys)

    def test_rebuild_is_identical(self):
        pattern, spec, selection = small_instance()
        a = build_constraint(pattern, spec, selection)
        b = build_constraint(pattern, spec, selection)
        assert a == b
        assert a.dump_json() == b.dump_json()

    def test_selection_outside_pattern_rejected(self):
        pattern, spec, _ = small_instance()
        bad = TSelection(entries=((3, 3, 3), (1, 2, 1)), mode="A")
        with pytest.raises(ValueError):
            build_constraint(pattern, spec, bad)

    def test_subtensor_with_no_designated_entries(self):
        pattern = SamplingPattern.from_coords((3, 3, 3), [(1, 1, 1), (2, 1, 2)])
        spec = RankSpec(j=1, ranks=(1, 1))
        cm = build_constraint(pattern, spec, TSelection(entries=((1, 1, 1),), mode="A"))
        assert cm.num_columns == 1
        assert cm.support(0) == frozenset({2})
        assert (cm.rows, cm.masks, cm.order) == ((2,), (1,), (0,))


class TestDenseSupport:
    def test_matches_column_supports(self):
        pattern, spec, selection = small_instance()
        cm = build_constraint(pattern, spec, selection)
        dense = cm.dense_support()
        # one coordinate per (support row, column) incidence
        assert len(dense) == sum(len(s) for s in cm.supports())
        for head_and_col in dense:
            *head, z = head_and_col
            assert head[0] in cm.support(z - 1)


class TestMCount:
    def test_counts_distinct_rows(self):
        pattern, spec, selection = small_instance()
        cm = build_constraint(pattern, spec, selection)
        assert m_count(cm, []) == 0
        assert m_count(cm, [0]) == len(cm.support(0))
        assert m_count(cm, range(cm.num_columns)) == 3  # rows 1, 2, 3 all touched

    def test_union_never_exceeds_sum(self):
        pattern, spec, selection = small_instance()
        cm = build_constraint(pattern, spec, selection)
        for i in range(cm.num_columns):
            for k in range(i + 1, cm.num_columns):
                assert m_count(cm, [i, k]) <= len(cm.support(i)) + len(cm.support(k))
