"""Seeded Monte Carlo harness: reproducibility, interval math, properties."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tensorcert import montecarlo
from tensorcert.core import Shape
from tensorcert.geometry import RankSpec
from tensorcert.hallgraph import BipartiteGraph, defect_at_least
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


def floyd_reference(n_rows, n_cols, per_column, seed, trial):
    """The documented draw rule, one column and one step at a time in plain
    Python, on the same Philox block."""
    m = min(per_column, n_rows - per_column)
    key = np.array([seed, trial], dtype=np.uint64)
    block = np.random.Generator(np.random.Philox(key=key)).random((n_cols, m)).tolist()
    adj = []
    for uniforms in block:
        chosen: set[int] = set()
        for k, u in enumerate(uniforms):
            j = n_rows - m + k
            i = math.floor(u * (j + 1))
            chosen.add(j if i in chosen else i)
        if m < per_column:
            chosen = set(range(n_rows)) - chosen
        adj.append(tuple(sorted(v + 1 for v in chosen)))
    return tuple(adj)


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

    @pytest.mark.parametrize(
        "n_rows,n_cols,per_column",
        [(12, 9, 5), (12, 9, 6), (12, 9, 8), (12, 9, 0), (12, 9, 12), (1, 3, 1), (1024, 400, 300)],
    )
    def test_columns_follow_floyds_sampler(self, n_rows, n_cols, per_column):
        """Each column runs Floyd's sampler on its row of the trial's Philox
        block, directly when it observes at most half the rows and on the
        rows it does not observe otherwise, as in the module docstring."""
        g = sample_column_graph(n_rows, n_cols, per_column, seed=8, trial=3)
        assert g.adj == floyd_reference(n_rows, n_cols, per_column, seed=8, trial=3)

    @pytest.mark.parametrize("n_rows,per_column,chi2_999", [(4, 2, 20.52), (5, 3, 27.88)])
    def test_subsets_equally_likely(self, n_rows, per_column, chi2_999):
        """Every per_column-subset of n_rows rows occurs equally often, on the
        direct path (2 of 4) and on the complement path (3 of 5): Pearson's
        statistic over 3000 seeded draws stays below the 0.999 quantile of
        chi-square with one degree of freedom fewer than the subsets."""
        counts: dict[tuple[int, ...], int] = {}
        for trial in range(10):
            for nbrs in sample_column_graph(n_rows, 300, per_column, seed=21, trial=trial).adj:
                counts[nbrs] = counts.get(nbrs, 0) + 1
        subsets = list(itertools.combinations(range(1, n_rows + 1), per_column))
        assert set(counts) == set(subsets)
        expected = 3000 / len(subsets)
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2_999

    def test_per_column_validated(self):
        with pytest.raises(ValueError):
            sample_column_graph(3, 2, 4, seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            sample_column_graph(3, 2, -1, seed=0)

    def test_reproducible(self):
        assert sample_column_graph(10, 6, 4, seed=2, trial=5) == sample_column_graph(
            10, 6, 4, seed=2, trial=5
        )


class TestTrialKeys:
    """Seed and trial are the two unsigned 64-bit words of a trial's Philox
    key, taken exactly."""

    def test_high_seeds_keep_their_own_streams(self):
        """2**63 + 1 and 2**63 + 2 round to the same float64, so a key built
        through floats would give them one stream."""
        shape = Shape(dims=(6, 6))
        high = [2**63 + 1, 2**63 + 2, 2**64 - 1]
        patterns = [sample_pattern(shape, 0.5, seed=s, trial=2**64 - 1) for s in high]
        graphs = [sample_column_graph(12, 9, 4, seed=s, trial=2**64 - 1) for s in high]
        assert len(set(patterns)) == len(set(graphs)) == 3
        for s, graph in zip(high, graphs):
            assert graph.adj == floyd_reference(12, 9, 4, seed=s, trial=2**64 - 1)

    def test_low_seed_streams_unchanged(self):
        shape = Shape(dims=(4, 5))
        draws = np.random.Generator(np.random.Philox(key=[2**63 - 1, 9])).random(shape.size)
        expected = {c for c, u in zip(shape.coords(), draws) if u < 0.5}
        assert set(sample_pattern(shape, 0.5, seed=2**63 - 1, trial=9).observed) == expected

    @pytest.mark.parametrize("seed,trial,word", [(-1, 0, "seed"), (2**64, 0, "seed"), (0, -1, "trial"), (0, 2**64, "trial")])
    def test_key_words_outside_range_refused(self, seed, trial, word):
        with pytest.raises(ValueError, match=rf"{word} must lie in \[0, 2\*\*64\)"):
            sample_pattern(Shape(dims=(3, 3)), 0.5, seed=seed, trial=trial)
        with pytest.raises(ValueError, match=rf"{word} must lie in \[0, 2\*\*64\)"):
            sample_column_graph(4, 3, 2, seed=seed, trial=trial)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_config_refuses_seed_outside_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            TrialConfig(shape=Shape(dims=(8, 4)), prop="proper1", trials=2, seed=seed, per_column_l=3)

    def test_config_refuses_trial_indices_past_range(self):
        TrialConfig(shape=Shape(dims=(8, 4)), prop="proper1", trials=2**64, seed=2**64 - 1, per_column_l=3)
        with pytest.raises(ValueError, match=r"trial must lie in \[0, 2\*\*64\), got 18446744073709551616"):
            TrialConfig(shape=Shape(dims=(8, 4)), prop="proper1", trials=2**64 + 1, per_column_l=3)


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
        """Every trial's verdict, read from its chunk's degree bound or else
        from its own slice of the chunk's membership array, equals the
        one-graph test on that trial's own column graph, with chunks of three
        trials so that ten trials span four chunks, and with the default draw
        size.  The bound decides some chunks wholly and some not at all (and,
        from 16 rows up, some partly), and each slice decided is the trial's
        own column graph."""
        r = 1 if prop == "proper1" else 0
        proofs, decided = [], []
        bound, decide = montecarlo.degrees_prove_margin, montecarlo.member_defect_at_least

        def recorded_bound(*args):
            out = bound(*args)
            proofs.append(out.tolist())
            return out

        def recorded(member, r):
            out = decide(member, r)
            decided.append((member.copy(), out))
            return out

        monkeypatch.setattr(montecarlo, "degrees_prove_margin", recorded_bound)
        monkeypatch.setattr(montecarlo, "member_defect_at_least", recorded)
        default = montecarlo._DRAW_BYTES
        outcomes, kinds = set(), set()
        for l in sorted({0, 1, 2, n1 // 2, n1}):
            for draw_bytes, trials in ((3 * (n1 - r) * (n1 + np.min_scalar_type(n1 - 1).itemsize * min(l, n1 - l)), 10), (default, 12)):
                monkeypatch.setattr(montecarlo, "_DRAW_BYTES", draw_bytes)
                proofs.clear()
                decided.clear()
                config = TrialConfig(
                    shape=Shape(dims=(n1, 4)), prop=prop, trials=trials, seed=n1 + l, per_column_l=l
                )
                result = estimate(config)
                graphs = [sample_column_graph(n1, n1 - r, l, seed=n1 + l, trial=t) for t in range(trials)]
                expected = [defect_at_least(g, r)[0] for g in graphs]
                chunks = [3, 3, 3, 1] if draw_bytes != default else [trials]
                if not montecarlo._degrees_may_prove(n1, n1 - r, l, r):
                    # The bound is skipped, so it proves no trial of any chunk.
                    assert proofs == []
                    proofs.extend([False] * count for count in chunks)
                assert [len(p) for p in proofs] == chunks
                # The open trials are decided in order, each on its own graph.
                open_trials = [t for t, proved in enumerate(sum(proofs, [])) if not proved]
                assert len(decided) == len(open_trials)
                for t, (member, verdict) in zip(open_trials, decided):
                    assert tuple(tuple(np.flatnonzero(row) + 1) for row in member) == graphs[t].adj
                    assert verdict == expected[t], (l, draw_bytes, t)
                assert all(expected[t] for t, proved in enumerate(sum(proofs, [])) if proved)
                assert (result.passes, result.fails, result.undecided) == (sum(expected), trials - sum(expected), 0)
                outcomes.update(expected)
                kinds.update("wholly" if all(p) else "partly" if any(p) else "not at all" for p in proofs)
        assert True in outcomes and False in outcomes
        assert {"wholly", "not at all"} <= kinds
        assert "partly" in kinds or n1 < 16

    @pytest.mark.parametrize("prop", ["proper1", "proper2"])
    def test_pass_rate_agrees_with_an_independent_sampler(self, prop):
        """At 8x4, l = 3 the pass count over 4000 trials agrees with that of
        graphs whose columns ``Generator.choice`` draws one at a time without
        replacement, within the two-sided 99.9% bound of a two-proportion
        z-test."""
        n1, l, trials = 8, 3, 4000
        r = 1 if prop == "proper1" else 0
        n_cols = n1 - r
        config = TrialConfig(shape=Shape(dims=(n1, 4)), prop=prop, trials=trials, seed=17, per_column_l=l)
        ours = estimate(config).passes
        rng = np.random.default_rng(17)
        rows = np.array([rng.choice(n1, size=l, replace=False) for _ in range(trials * n_cols)])
        graphs = [BipartiteGraph(size_t1=n_cols, size_t2=n1, adj=g + 1) for g in rows.reshape(trials, n_cols, l)]
        theirs = sum(defect_at_least(g, r)[0] for g in graphs)
        pooled = (ours + theirs) / (2 * trials)
        assert 0.05 < pooled < 0.95
        assert abs(ours - theirs) / trials <= 3.2905 * math.sqrt(pooled * (1 - pooled) * 2 / trials)

    @pytest.mark.parametrize("prop", ["proper1", "proper2"])
    def test_skipped_bound_proves_no_trial(self, prop):
        """Whenever the parameters rule out a degree proof, the bound proves
        none of the drawn trials; and the rule leaves the bound to run on
        parameters where it proves some."""
        r = 1 if prop == "proper1" else 0
        skipped = proved = 0
        for n1 in range(2, 41):
            n_cols = n1 - r
            for l in range(n1 + 1):
                member = montecarlo._draw_members(n1, n_cols, l, n1 * 100 + l, 0, 8).reshape(8, n_cols, n1)
                proofs = montecarlo.degrees_prove_margin(n_cols, l, member.sum(axis=1), r)
                if montecarlo._degrees_may_prove(n1, n_cols, l, r):
                    proved += proofs.any()
                else:
                    assert not proofs.any(), (n1, l)
                    skipped += 1
        assert skipped > 0 and proved > 0

    def test_degree_rule_at_the_benchmark_sizes(self):
        """proper1 at the closed-form counts: at 256x4, l = 45 the degrees can
        hold at most 197 rows of degree 58 or more where 199 are needed; at
        64x4, l = 37 the rule leaves the bound to run."""
        assert not montecarlo._degrees_may_prove(256, 255, 45, 1)
        assert montecarlo._degrees_may_prove(64, 63, 37, 1)

    def test_chunks_bound_the_draw_size(self, monkeypatch):
        """64x4 proper1 at the closed-form count: a trial's draw holds 63
        columns of 27 one-byte picks and 64 bools, so 731 trials fit the
        default draw size and 2000 trials take three draws; the degree bound
        proves every trial, so none is decided on its membership array."""
        draws = []
        draw = montecarlo._draw_members

        def recorded(n_rows, n_cols, per_column, seed, first, count):
            draws.append(count)
            return draw(n_rows, n_cols, per_column, seed, first, count)

        def unexpected(member, r):
            raise AssertionError("a trial's membership array was decided")

        monkeypatch.setattr(montecarlo, "_draw_members", recorded)
        monkeypatch.setattr(montecarlo, "member_defect_at_least", unexpected)
        result = estimate(TrialConfig(shape=Shape(dims=(64, 4)), prop="proper1", trials=2000, seed=3, per_column_l=37))
        assert draws == [731, 731, 538]
        assert all(count * 63 * (64 + 27) <= montecarlo._DRAW_BYTES for count in draws)
        assert (result.passes, result.fails) == (2000, 0)

    def test_membership_array_bounds_sparse_chunks(self, monkeypatch):
        """At 1024x4 with one row per column a trial's draw is mostly its
        membership array, one bool per column and row, plus one two-byte
        pick per column, so the draw size limits a chunk to three trials
        (4 MiB), and every trial is decided on its own membership array."""
        draws, decided = [], []
        draw, decide = montecarlo._draw_members, montecarlo.member_defect_at_least

        def recorded_draw(n_rows, n_cols, per_column, seed, first, count):
            draws.append(count)
            return draw(n_rows, n_cols, per_column, seed, first, count)

        def recorded(member, r):
            decided.append(member.shape)
            return decide(member, r)

        monkeypatch.setattr(montecarlo, "_draw_members", recorded_draw)
        monkeypatch.setattr(montecarlo, "member_defect_at_least", recorded)
        result = estimate(TrialConfig(shape=Shape(dims=(1024, 4)), prop="proper2", trials=10, seed=3, per_column_l=1))
        assert draws == [3, 3, 3, 1]
        assert all(count * 1024 * (1024 + 2) <= montecarlo._DRAW_BYTES for count in draws)
        assert decided == [(1024, 1024)] * 10
        assert (result.passes, result.fails) == (0, 10)

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

    def test_rank_beyond_dimension_is_undecided(self):
        config = TrialConfig(
            shape=Shape(dims=(3, 3, 3)),
            prop="finiteByCertifier",
            trials=2,
            spec=RankSpec(j=2, ranks=(4,)),
            p=1.0,
        )
        assert estimate(config).undecided == 2

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
