"""Closed-form sampling bounds, validity flags, and curve emission."""
import math

import pytest
from hypothesis import given, strategies as st

from tensorcert.bounds import (
    CSV_HEADER,
    CurveConfig,
    azuma_tail,
    azuma_threshold,
    bound_report,
    emit_curves,
    grassmannian_bound,
    tucker_finite_bound_p,
    tucker_finite_threshold_l,
    tucker_unique_bound_p,
    tucker_unique_threshold_l,
    validity_flags,
)
from tensorcert.core import Shape
from tensorcert.geometry import RankSpec


class TestGrassmannianBound:
    def test_hand_recomputation(self):
        shape = Shape(dims=(100, 50))
        value, argmin = grassmannian_bound(shape, (3, 3), eps=0.1)
        per_dim = [
            max(2 * 3 / n, 12 * math.log(math.e * n / 0.1) / n) + n ** -0.25
            for n in (100, 50)
        ]
        assert value == pytest.approx(min(per_dim), rel=1e-12)
        assert argmin == per_dim.index(min(per_dim)) + 1

    def test_tie_prefers_lowest_index(self):
        shape = Shape(dims=(64, 64))
        _value, argmin = grassmannian_bound(shape, (2, 2), eps=0.5)
        assert argmin == 1

    def test_eps_validated(self):
        shape = Shape(dims=(8, 8))
        for eps in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                grassmannian_bound(shape, (1, 1), eps)

    def test_rank_length_validated(self):
        with pytest.raises(ValueError):
            grassmannian_bound(Shape(dims=(8, 8)), (1,), 0.1)


class TestTuckerThresholds:
    def test_undefined_when_sum_sq_reaches_product(self):
        shape = Shape(dims=(64, 8, 8))
        for ranks in [(2, 2), (1, 2), (3, 3)]:  # sum r^2 >= prod r in each case
            spec = RankSpec(j=1, ranks=ranks)
            assert tucker_finite_threshold_l(shape, spec, 0.05) is None
            assert tucker_finite_bound_p(shape, spec, 0.05) is None
            assert tucker_unique_threshold_l(shape, spec, 0.05) is None
            assert tucker_unique_bound_p(shape, spec, 0.05) is None

    def test_finite_threshold_hand_recomputation(self):
        shape = Shape(dims=(64, 8, 8, 8))
        spec = RankSpec(j=1, ranks=(4, 4, 4))  # R = 64 > sum r^2 = 48
        eps = 0.05
        nj, R, s2 = 64, 64, 48
        bound = 6 * math.log(nj) + 2 * max(
            math.log(2 * s2 / eps), math.log((2 * R - 2 * s2) / eps)
        ) + 4
        l = tucker_finite_threshold_l(shape, spec, eps)
        assert l == math.floor(bound) + 1
        assert l > bound

    def test_probability_variant_hand_recomputation(self):
        shape = Shape(dims=(64, 8, 8, 8))
        spec = RankSpec(j=1, ranks=(4, 4, 4))
        eps = 0.1
        nj, R, s2 = 64, 64, 48
        inner = 6 * math.log(nj) + 2 * math.log(
            max(2 * s2 / eps, (2 * R - 2 * s2) / eps)
        ) + 4
        expected = inner / nj + nj ** -0.25
        assert tucker_finite_bound_p(shape, spec, eps) == pytest.approx(expected, rel=1e-12)

    def test_unique_threshold_hand_recomputation(self):
        shape = Shape(dims=(64, 8, 8, 8))
        spec = RankSpec(j=1, ranks=(4, 4, 4))
        eps = 0.1
        nj, R, s2 = 64, 64, 48
        bound = 6 * math.log(nj) + 2 * max(
            math.log(s2 / eps), math.log((R - s2) / eps), math.log(nj / eps)
        ) + 8
        l = tucker_unique_threshold_l(shape, spec, eps)
        assert l == math.floor(bound) + 1
        inner = bound
        assert tucker_unique_bound_p(shape, spec, eps) == pytest.approx(
            inner / nj + nj ** -0.25, rel=1e-12
        )

    def test_unique_dominates_finite(self):
        shape = Shape(dims=(64, 8, 8, 8))
        spec = RankSpec(j=1, ranks=(4, 4, 4))
        for eps in (0.01, 0.1, 0.5):
            assert tucker_unique_bound_p(shape, spec, eps) > tucker_finite_bound_p(
                shape, spec, eps
            )


class TestAzuma:
    def test_tail_value(self):
        assert azuma_tail(8, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_tail_validation(self):
        with pytest.raises(ValueError):
            azuma_tail(0, 1.0)
        with pytest.raises(ValueError):
            azuma_tail(4, 0.0)

    def test_threshold_values(self):
        p1, p2 = azuma_threshold(64, 4, 0.1)
        assert p1 == pytest.approx(8 / 64 + 64 ** -0.25, rel=1e-12)
        assert p2 == pytest.approx(
            12 * math.log(math.e * 64 / 0.1) / 64 + 64 ** -0.25, rel=1e-12
        )

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_tail_in_unit_interval(self, n, c):
        # the exponential may underflow to exactly 0.0 for large n / small c
        assert 0.0 <= azuma_tail(n, c) <= 1.0


class TestValidityFlags:
    def test_flag_definitions(self):
        shape = Shape(dims=(12, 12, 12))
        spec = RankSpec(j=1, ranks=(2, 2))
        flags = validity_flags(shape, spec, (2, 2, 2))
        assert flags["rank_sixth"] is True  # 2 <= 12/6
        assert flags["complement_capacity"] is True  # 144 >= 2 * 10
        assert flags["sum_sq_lt_prod"] is False  # 8 >= 4
        assert flags["row_budget"] is True  # 12 >= 2 + 2
        assert flags["selection_budget"] is True  # 24 + 24 < 144

    def test_rank_sixth_cut(self):
        shape = Shape(dims=(12, 12, 12))
        flags_ok = validity_flags(shape, RankSpec(j=1, ranks=(2, 2)), (2, 2, 2))
        flags_bad = validity_flags(shape, RankSpec(j=1, ranks=(3, 3)), (3, 3, 3))
        assert flags_ok["rank_sixth"] and not flags_bad["rank_sixth"]


class TestBoundReport:
    def test_fields_consistent_with_components(self):
        shape = Shape(dims=(64, 8, 8, 8))
        spec = RankSpec(j=1, ranks=(4, 4, 4))
        eps = 0.1
        report = bound_report(shape, spec, (4, 4, 4, 4), eps)
        assert report.p_grassmannian == grassmannian_bound(shape, (4, 4, 4, 4), eps)[0]
        assert report.p_tucker_finite == tucker_finite_bound_p(shape, spec, eps)
        assert report.l_unique == tucker_unique_threshold_l(shape, spec, eps)
        assert report.validity == validity_flags(shape, spec, (4, 4, 4, 4))

    def test_presentation_rules(self):
        shape = Shape(dims=(64, 8, 8, 8))
        spec = RankSpec(j=1, ranks=(4, 4, 4))
        report = bound_report(shape, spec, (4, 4, 4, 4), 0.1)
        assert report.presented(None) == "invalid"
        assert report.presented(1.5) == ">=1 (vacuous)"
        assert report.presented(0.25) == "0.25"


class TestEmitCurves:
    def test_header_and_row_count(self):
        rows = emit_curves(CurveConfig(d=3, n=12, j=1, r_min=1, r_max=4, eps=0.1))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 5
        for row in rows[1:]:
            assert len(row.split(",")) == 7

    def test_rank_stops_at_dimension(self):
        rows = emit_curves(CurveConfig(d=3, n=3, j=1, r_min=1, r_max=10, eps=0.1))
        assert len(rows) == 4  # header + r in 1..3

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CurveConfig(d=1, n=4, j=1, r_min=1, r_max=2, eps=0.1)
        with pytest.raises(ValueError):
            CurveConfig(d=3, n=4, j=3, r_min=1, r_max=2, eps=0.1)
        with pytest.raises(ValueError):
            CurveConfig(d=3, n=4, j=1, r_min=1, r_max=2, eps=1.5)
        with pytest.raises(ValueError, match="invalid rank range 3:1"):
            CurveConfig(d=3, n=4, j=1, r_min=3, r_max=1, eps=0.1)

    def test_deterministic(self):
        config = CurveConfig(d=4, n=30, j=1, r_min=1, r_max=8, eps=0.05)
        assert emit_curves(config) == emit_curves(config)
