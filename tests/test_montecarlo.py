"""Seeded Monte Carlo harness: reproducibility, interval math, properties."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tensorcert import montecarlo
from tensorcert.core import Shape
from tensorcert.geometry import RankSpec
from tensorcert.hallgraph import defect_at_least
from tensorcert.montecarlo import (
    PROPERTIES,
    TrialConfig,
    WILSON_Z_99,
    estimate,
    sample_column_graph,
    sample_pattern,
    wilson_interval,
)


class TestSamplePattern:
    def test_reproducible_per_trial(self):
        shape = Shape(dims=(4, 4, 4))
        a = sample_pattern(shape, 0.5, seed=3, trial=7)
        b = sample_pattern(shape, 0.5, seed=3, trial=7)
        assert a == b

    def test_trials_are_independent_streams(self):
        shape = Shape(dims=(4, 4, 4))
        a = sample_pattern(shape, 0.5, seed=3, trial=0)
        b = sample_pattern(shape, 0.5, seed=3, trial=1)
        assert a != b

    def test_extreme_probabilities(self):
        shape = Shape(dims=(3, 3))
        assert sample_pattern(shape, 0.0, seed=0).num_observed == 0
        assert sample_pattern(shape, 1.0, seed=0).num_observed == 9

    def test_p_validated(self):
        with pytest.raises(ValueError):
            sample_pattern(Shape(dims=(3, 3)), 1.5, seed=0)

    def test_empirical_rate_tracks_p(self):
        shape = Shape(dims=(8, 8, 8))
        total = sum(
            sample_pattern(shape, 0.3, seed=1, trial=t).num_observed for t in range(20)
        )
        rate = total / (20 * shape.size)
        assert abs(rate - 0.3) < 0.03


class TestSampleColumnGraph:
    def test_exact_per_column_degree(self):
        g = sample_column_graph(10, 6, 4, seed=2)
        assert g.size_t1 == 6 and g.size_t2 == 10
        assert all(len(nbrs) == 4 for nbrs in g.adj)

    @pytest.mark.parametrize("per_column", [0, 1, 4, 9, 10])
    def test_rows_sorted_distinct_in_range(self, per_column):
        for trial in range(5):
            g = sample_column_graph(10, 30, per_column, seed=4, trial=trial)
            assert len(g.adj) == 30
            for nbrs in g.adj:
                assert len(nbrs) == per_column
                assert list(nbrs) == sorted(set(nbrs))
                assert all(type(v) is int and 1 <= v <= 10 for v in nbrs)

    @pytest.mark.parametrize("n_rows,n_cols,per_column", [(12, 9, 5), (1024, 400, 300)])
    def test_columns_take_their_smallest_keys(self, n_rows, n_cols, per_column):
        """Each column observes the rows of its smallest uniform keys, drawn
        as one block from the trial's Philox stream.  The long rows are past
        the lengths that numpy's vectorized selection leaves fully sorted, so
        a wrong partition index shows there."""
        g = sample_column_graph(n_rows, n_cols, per_column, seed=8, trial=3)
        keys = np.random.Generator(np.random.Philox(key=[8, 3])).random((n_cols, n_rows))
        expected = tuple(tuple(sorted(int(v) + 1 for v in np.argsort(row)[:per_column])) for row in keys)
        assert g.adj == expected

    def test_two_subsets_equally_likely(self):
        """All 6 two-subsets of 4 rows occur equally often: Pearson's
        statistic over 3000 seeded draws stays below the 0.999 quantile of
        chi-square with 5 degrees of freedom."""
        counts: dict[tuple[int, ...], int] = {}
        for trial in range(10):
            for nbrs in sample_column_graph(4, 300, 2, seed=21, trial=trial).adj:
                counts[nbrs] = counts.get(nbrs, 0) + 1
        assert set(counts) == set(itertools.combinations(range(1, 5), 2))
        expected = 3000 / 6
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < 20.52

    def test_per_column_validated(self):
        with pytest.raises(ValueError):
            sample_column_graph(3, 2, 4, seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            sample_column_graph(3, 2, -1, seed=0)

    def test_reproducible(self):
        assert sample_column_graph(10, 6, 4, seed=2, trial=5) == sample_column_graph(
            10, 6, 4, seed=2, trial=5
        )


class TestWilsonInterval:
    def test_hand_value(self):
        z = 1.96
        lo, hi = wilson_interval(8, 10, z=z)
        phat, n = 0.8, 10
        denom = 1 + z * z / n
        center = (phat + z * z / (2 * n)) / denom
        half = z * math.sqrt(phat * 0.2 / n + z * z / (4 * n * n)) / denom
        assert lo == pytest.approx(center - half, rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)

    def test_degenerate_total(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=50))
    def test_contains_point_estimate(self, successes, total):
        successes = min(successes, total)
        lo, hi = wilson_interval(successes, total)
        phat = successes / total
        assert 0.0 <= lo <= hi <= 1.0
        # boundary cases can round the endpoint by one ulp
        assert lo <= phat + 1e-12 and phat - 1e-12 <= hi

    def test_default_z_is_99_percent(self):
        lo99, hi99 = wilson_interval(8, 10)
        lo95, hi95 = wilson_interval(8, 10, z=1.96)
        assert lo99 < lo95 and hi99 > hi95
        assert WILSON_Z_99 == pytest.approx(2.5758293, abs=1e-6)


class TestTrialConfig:
    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(shape=Shape(dims=(3, 3)), prop="bogus", trials=5)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            TrialConfig(shape=Shape(dims=(3, 3)), prop="proper1", trials=0)

    def test_serializes(self):
        config = TrialConfig(
            shape=Shape(dims=(3, 3, 3)),
            prop="finiteByCertifier",
            trials=4,
            seed=9,
            spec=RankSpec(j=1, ranks=(1, 2)),
            p=0.7,
        )
        payload = config.to_dict()
        assert payload["dims"] == [3, 3, 3]
        assert payload["ranks"] == [1, 2]
        assert payload["p"] == 0.7


class TestEstimate:
    def test_deterministic(self):
        config = TrialConfig(
            shape=Shape(dims=(8, 4)), prop="proper1", trials=30, seed=5, per_column_l=3
        )
        assert estimate(config) == estimate(config)

    def test_counts_sum_to_trials(self):
        config = TrialConfig(
            shape=Shape(dims=(3, 3, 3)),
            prop="finiteByCertifier",
            trials=8,
            seed=2,
            spec=RankSpec(j=1, ranks=(1, 2)),
            p=0.7,
        )
        result = estimate(config)
        assert result.passes + result.fails + result.undecided == 8

    def test_proper1_matches_direct_evaluation(self):
        config = TrialConfig(
            shape=Shape(dims=(8, 4)), prop="proper1", trials=25, seed=11, per_column_l=3
        )
        result = estimate(config)
        expected_passes = 0
        for trial in range(25):
            graph = sample_column_graph(8, 7, 3, seed=11, trial=trial)
            ok, _ = defect_at_least(graph, 1)
            expected_passes += ok
        assert result.passes == expected_passes
        assert result.undecided == 0

    @pytest.mark.parametrize("prop", ["proper1", "proper2"])
    @pytest.mark.parametrize("n1", [2, 3, 5, 16, 64, 256])
    def test_batched_verdicts_equal_per_trial_test(self, monkeypatch, prop, n1):
        """Every trial's verdict, read from the chunked disjoint unions,
        equals the one-graph test on that trial's own column graph, with
        chunks of three trials so that ten trials span four chunks, and with
        the default chunk size."""
        r = 1 if prop == "proper1" else 0
        verdicts = []
        batched = montecarlo.block_defects_at_least

        def recorded(g, blocks, r):
            out = batched(g, blocks, r)
            verdicts.append(out.tolist())
            return out

        monkeypatch.setattr(montecarlo, "block_defects_at_least", recorded)
        default = montecarlo._CHUNK_SIZE
        outcomes = set()
        for l in sorted({0, 1, 2, n1 // 2, n1}):
            for chunk_size, trials in ((3 * ((n1 - r) * (l + 1) + n1), 10), (default, 12)):
                monkeypatch.setattr(montecarlo, "_CHUNK_SIZE", chunk_size)
                verdicts.clear()
                config = TrialConfig(
                    shape=Shape(dims=(n1, 4)), prop=prop, trials=trials, seed=n1 + l, per_column_l=l
                )
                result = estimate(config)
                expected = [
                    defect_at_least(sample_column_graph(n1, n1 - r, l, seed=n1 + l, trial=t), r)[0]
                    for t in range(trials)
                ]
                if chunk_size != default:
                    assert [len(v) for v in verdicts] == [3, 3, 3, 1]
                assert sum(verdicts, []) == expected, (l, chunk_size)
                assert (result.passes, result.fails, result.undecided) == (sum(expected), trials - sum(expected), 0)
                outcomes.update(expected)
        assert True in outcomes and False in outcomes

    def test_chunks_bound_the_union_size(self, monkeypatch):
        """64x4 proper1 at the closed-form count: 26 trials fit one chunk of
        the default size, so 60 trials take three chunks."""
        sizes = []
        batched = montecarlo.block_defects_at_least

        def recorded(g, blocks, r):
            sizes.append((blocks, g.size_t1, g.size_t2, g.indices.size))
            return batched(g, blocks, r)

        monkeypatch.setattr(montecarlo, "block_defects_at_least", recorded)
        estimate(TrialConfig(shape=Shape(dims=(64, 4)), prop="proper1", trials=60, seed=3, per_column_l=37))
        assert [s[0] for s in sizes] == [26, 26, 8]
        assert all(t1 + t2 + edges <= montecarlo._CHUNK_SIZE for _b, t1, t2, edges in sizes)

    def test_no_decided_trial_gives_no_fraction(self):
        config = TrialConfig(
            shape=Shape(dims=(3, 3, 3)),
            prop="finiteByCertifier",
            trials=3,
            seed=1,
            spec=RankSpec(j=2, ranks=(2,)),
            p=0.05,
        )
        result = estimate(config)
        assert result.undecided == 3
        assert result.fraction is None
        assert result.to_dict()["fraction"] is None
        assert result.interval == (0.0, 1.0)

    def test_certifier_and_oracle_properties_track_each_other(self):
        shared = dict(
            shape=Shape(dims=(3, 3, 3)),
            trials=10,
            seed=6,
            spec=RankSpec(j=1, ranks=(1, 2)),
            p=0.75,
        )
        by_cert = estimate(TrialConfig(prop="finiteByCertifier", **shared))
        by_oracle = estimate(TrialConfig(prop="finiteByOracle", **shared))
        assert by_cert.passes <= by_oracle.passes + by_cert.undecided
        assert by_cert.fails <= by_oracle.fails + by_cert.undecided

    def test_fraction_and_interval_consistent(self):
        config = TrialConfig(
            shape=Shape(dims=(8, 4)), prop="proper1", trials=40, seed=1, per_column_l=3
        )
        result = estimate(config)
        decided = result.passes + result.fails
        assert result.fraction == pytest.approx(result.passes / decided)
        assert result.interval == wilson_interval(result.passes, decided)
        lo, hi = result.interval
        assert lo <= result.fraction <= hi

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(shape=Shape(dims=(8, 4)), prop="proper1", trials=2)
        with pytest.raises(ValueError):
            TrialConfig(shape=Shape(dims=(3, 3, 3)), prop="finiteByCertifier", trials=2)
        with pytest.raises(ValueError, match="perColumnCount needs p and per_column_l"):
            TrialConfig(shape=Shape(dims=(3, 3)), prop="perColumnCount", trials=2, p=0.5)
        with pytest.raises(ValueError, match="exceeds the 8 rows"):
            TrialConfig(shape=Shape(dims=(8, 4)), prop="proper2", trials=2, per_column_l=9)

    def test_property_list_is_stable(self):
        assert PROPERTIES == (
            "proper1",
            "proper2",
            "perColumnCount",
            "finiteByCertifier",
            "finiteByOracle",
        )
