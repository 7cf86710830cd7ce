"""Finite/unique completability certification against the numerical oracle."""
import itertools
import random

import numpy as np
import pytest

from tensorcert import certifier
from tensorcert.assumptions import (
    AssumptionError,
    SelectionInfeasibleError,
    TSelection,
    find_T_selection,
    selection_echelon,
)
from tensorcert.certifier import (
    CAPS_CACHE_SIZE,
    FiniteCertificate,
    _caps_worst,
    _finite_search,
    _gf_rows,
    _IncrementalCounts,
    _rank_target,
    _support_masks,
    _witness_entries,
    _witness_solutions,
    certify_finite,
    certify_unique,
    generic_rank_finite,
    subpro_consistency,
    subset_condition_holds,
    thm3_upper_bound,
    thm4_dependent,
    verify_finite_witness,
)
from tensorcert.constraint import build_constraint, m_count
from tensorcert.core import SamplingPattern, Shape
from tensorcert.geometry import RANK_POINT_SEED, RANK_PRIME, RankSpec, core_dim, unreduced_jacobian
from tensorcert.montecarlo import sample_pattern
from tensorcert.oracle import (
    appendix_c_pattern,
    generate_instance,
    jacobian_rank,
    section_iib_pattern,
)
from test_geometry import prefix_independence_reference


def default_constraint(dims=(3, 3, 3), ranks=(1, 1), coords=None):
    spec = RankSpec(j=1, ranks=ranks)
    pattern = (
        SamplingPattern.full(dims)
        if coords is None
        else SamplingPattern.from_coords(dims, coords)
    )
    selection = find_T_selection(pattern, spec)
    return build_constraint(pattern, spec, selection), spec, pattern


class TestThm3UpperBound:
    def test_empty_subset(self):
        cm, spec, _ = default_constraint()
        assert thm3_upper_bound(cm, [], spec) == 0

    def test_hand_value_rank_one_one(self):
        # R = 1 and g(3) = 2, so three touched rows bound 3 - 2 = 1.
        cm, spec, _ = default_constraint()
        subset = next(
            (
                [i, k]
                for i in range(cm.num_columns)
                for k in range(cm.num_columns)
                if m_count(cm, [i, k]) == 3
            ),
            None,
        )
        assert subset is not None
        assert thm3_upper_bound(cm, subset, spec) == 1

    def test_hand_value_rank_three_two(self):
        # R = 6 and g(4) = 11 for ranks (3, 2): four rows bound 24 - 11 = 13.
        spec = RankSpec(j=1, ranks=(3, 2))
        assert spec.g(4) == 11
        pattern = SamplingPattern.full((6, 3, 3))
        selection = find_T_selection(pattern, spec)
        cm = build_constraint(pattern, spec, selection)
        for size in (1, 2, 3, 4):
            for combo in itertools.combinations(range(cm.num_columns), size):
                if m_count(cm, combo) == 4:
                    assert thm3_upper_bound(cm, combo, spec) == 13
                    return
        pytest.fail("no column subset touching exactly 4 rows")


COLUMN_ENUM_GUARD = 14


def subset_condition_by_columns(cm, columns, spec):
    """Reference for the row scan: enumerate column subsets directly and
    return the first whose touched rows lack the capacity for it."""
    masks, _labels = _support_masks(cm, columns)
    assert len(masks) <= COLUMN_ENUM_GUARD
    caps = _caps_worst(max(m.bit_length() for m in masks), spec)
    for t in range(1, len(masks) + 1):
        for combo in itertools.combinations(range(len(masks)), t):
            union = 0
            for i in combo:
                union |= masks[i]
            if caps[union] < t:
                return False, tuple(columns[i] for i in combo)
    return True, None


class TestSubsetCondition:
    def test_capacity_table_kept_and_bounded(self):
        """A (width, spec) table is built once, immutable, in a bounded cache."""
        spec = RankSpec(j=1, ranks=(1, 2))
        table = _caps_worst(5, spec)
        assert isinstance(table, tuple) and len(table) == 32
        assert _caps_worst(5, spec) is table
        assert _caps_worst.cache_info().maxsize == CAPS_CACHE_SIZE

    def test_single_column_threshold(self):
        # need R*s - g(s) >= 1; for ranks (1, 1) that first happens at s = 3.
        spec = RankSpec(j=1, ranks=(1, 1))
        for s, expect in [(1, False), (2, False), (3, True)]:
            cm = _constraint_with_single_support(s)
            ok, witness = subset_condition_holds(cm, [0], spec)
            assert ok == expect
            if not ok:
                assert witness == (0,)

    def test_duplicate_singleton_columns_violated(self):
        # two columns sharing the same singleton support exceed the capacity
        # R*1 - g(1) = 0 already at subset size 2.
        spec = RankSpec(j=1, ranks=(1, 1))
        cm = _constraint_with_supports({1}, {1})
        ok, witness = subset_condition_holds(cm, [0, 1], spec)
        assert not ok
        assert witness is not None and len(witness) <= 2

    def test_methods_agree(self):
        rng = random.Random(404)
        for trial in range(15):
            pattern = sample_pattern(Shape(dims=(3, 3, 3)), 0.6, seed=90, trial=trial)
            spec = RankSpec(j=1, ranks=(1, 2))
            try:
                selection = find_T_selection(pattern, spec)
            except AssumptionError:
                continue
            cm = build_constraint(pattern, spec, selection)
            if cm.num_columns == 0:
                continue
            k = min(cm.num_columns, 6)
            columns = rng.sample(range(cm.num_columns), k)
            by_rows = subset_condition_holds(cm, columns, spec)
            by_cols = subset_condition_by_columns(cm, columns, spec)
            assert by_rows[0] == by_cols[0]

    def test_empty_column_set_holds(self):
        cm, spec, _ = default_constraint()
        assert subset_condition_holds(cm, [], spec) == (True, None)

    def test_thm4_is_negation_over_all_columns(self):
        cm, spec, _ = default_constraint()
        dependent, witness = thm4_dependent(cm, spec)
        ok, witness2 = subset_condition_holds(cm, range(cm.num_columns), spec)
        assert dependent == (not ok)
        assert witness == witness2


def _constraint_with_supports(*supports):
    """A constraint matrix with directly prescribed column supports."""
    from tensorcert.constraint import ConstraintColumn, ConstraintMatrix

    num_rows = max(max(s) for s in supports)
    columns = tuple(
        ConstraintColumn(
            base=(1, 1), designated_rows=frozenset(sorted(s)[:-1]), free_row=max(s)
        )
        for s in supports
    )
    return ConstraintMatrix(
        num_rows=max(num_rows, 2), columns=columns, j=1, head_dims=(max(num_rows, 2),)
    )


def _constraint_with_single_support(s: int):
    return _constraint_with_supports(set(range(1, s + 1)))


class TestGenericRankFinite:
    def test_full_observation_is_finite(self):
        for dims, j, ranks in [
            ((3, 3, 3), 1, (1, 2)),
            ((3, 3, 3), 2, (2,)),
            ((2, 2, 2), 1, (1, 1)),
        ]:
            pattern = SamplingPattern.full(dims)
            spec = RankSpec(j=j, ranks=ranks)
            assert generic_rank_finite(pattern.observed, pattern.shape, spec)

    def test_too_few_entries_is_infinite(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        assert not generic_rank_finite([(1, 1, 1), (2, 2, 2)], shape, spec)

    def test_agrees_with_gauge_fixed_oracle(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        instance = generate_instance(shape, spec, seed=23)
        for trial in range(10):
            pattern = sample_pattern(shape, 0.65, seed=61, trial=trial)
            if pattern.num_observed == 0:
                continue
            mine = generic_rank_finite(pattern.observed, shape, spec)
            report = jacobian_rank(instance, pattern, mode="coreAndFactors")
            assert mine == (report.verdict == "finite")


class TestGfRows:
    """Rank decisions on row selections of one per-certificate GF(p)
    Jacobian see the same matrices as a Jacobian built for the subset alone."""

    @pytest.mark.parametrize(
        "dims,spec",
        [
            ((5, 4), RankSpec(j=1, ranks=(2,))),
            ((4, 3, 3), RankSpec(j=1, ranks=(2, 2))),
            ((3, 3, 3, 3), RankSpec(j=2, ranks=(2, 2))),
        ],
    )
    def test_row_subsets_match_fresh_evaluation(self, dims, spec):
        shape = Shape(dims=dims)
        pattern = sample_pattern(shape, 0.9, seed=7, trial=0)
        rows = _gf_rows(pattern.observed, shape, spec)
        rng = random.Random(3)
        verdicts = set()
        for _ in range(12):
            size = rng.randint(len(pattern.observed) // 2, len(pattern.observed))
            subset = sorted(rng.sample(pattern.observed, size))
            fresh_rows = unreduced_jacobian(shape, spec, subset, RANK_POINT_SEED, RANK_PRIME)
            assert np.array_equal(rows(subset), fresh_rows)
            fresh = generic_rank_finite(subset, shape, spec)
            assert generic_rank_finite(subset, shape, spec, rows) == fresh
            assert fresh == (sum(prefix_independence_reference(fresh_rows)) >= _rank_target(shape, spec))
            verdicts.add(fresh)
        assert verdicts == {True, False}


def witness_is_confirmed(pattern, spec, constraint, selection, witness) -> bool:
    """Exact check: the witness entries' GF(p) rows at the certifier's point
    reach the target rank."""
    entries = _witness_entries(constraint, selection, witness)
    jac = unreduced_jacobian(pattern.shape, spec, entries, RANK_POINT_SEED, RANK_PRIME)
    return sum(prefix_independence_reference(jac)) >= _rank_target(pattern.shape, spec)


def count_only_witnesses(constraint, spec, n):
    """Reference: every n-set of columns that passes the subset inequalities,
    in the search's include-first order, with no rank check and no cap."""
    columns = range(constraint.num_columns)
    masks, _labels = _support_masks(constraint, columns)
    order = sorted(columns, key=lambda i: (-masks[i].bit_count(), i))
    for combo in itertools.combinations(order, n):
        if subset_condition_holds(constraint, combo, spec)[0]:
            yield tuple(sorted(combo))


class TestRankPrunedSearch:
    """The pruned generator yields exactly the count-feasible witnesses whose
    rows reach the target rank, in the order the count-only search finds
    them."""

    @pytest.mark.parametrize(
        "dims,spec,mode,trial",
        [
            ((2, 2, 2), RankSpec(j=1, ranks=(1, 1)), "A", None),
            ((2, 2, 2), RankSpec(j=1, ranks=(1, 1)), "A+", None),
            ((2, 2, 2), RankSpec(j=1, ranks=(1, 1)), "A", 4),
            ((2, 2, 2), RankSpec(j=2, ranks=(1,)), "A", None),
            ((2, 2, 2), RankSpec(j=2, ranks=(1,)), "A+", 1),
            ((3, 3, 3), RankSpec(j=1, ranks=(1, 2)), "A", 1),
            ((3, 3, 3), RankSpec(j=1, ranks=(1, 2)), "A+", None),
            ((3, 3, 3), RankSpec(j=1, ranks=(1, 2)), "A+", 0),
            ((3, 3, 3), RankSpec(j=1, ranks=(1, 1)), "A+", 0),
            ((3, 3, 3), RankSpec(j=2, ranks=(2,)), "A", 0),
            ((3, 3, 3), RankSpec(j=2, ranks=(2,)), "A+", 3),
            ((3, 3, 3), RankSpec(j=2, ranks=(2,)), "A+", 5),
        ],
    )
    def test_matches_count_only_enumeration_filtered_by_rank(self, dims, spec, mode, trial, monkeypatch):
        monkeypatch.setattr(certifier, "WITNESS_NODE_BUDGET", 10**9)
        shape = Shape(dims=dims)
        pattern = SamplingPattern.full(dims) if trial is None else sample_pattern(shape, 0.85, seed=17, trial=trial)
        rows = _gf_rows(pattern.observed, shape, spec)
        echelon = selection_echelon(shape, spec)
        selection = find_T_selection(pattern, spec, mode=mode, rows=rows, echelon=echelon)
        constraint = build_constraint(pattern, spec, selection)
        n = core_dim(shape, spec)
        expected = [
            w
            for w in count_only_witnesses(constraint, spec, n)
            if witness_is_confirmed(pattern, spec, constraint, selection, w)
        ]
        pruned = list(_finite_search(pattern, spec, constraint, selection, rows, echelon))
        assert pruned == expected

    def test_replay_rejects_count_feasible_rank_dependent_witness(self):
        pattern = sample_pattern(Shape(dims=(3, 3, 3, 3)), 0.85, seed=5, trial=0)
        spec = RankSpec(j=2, ranks=(2, 2))
        cert = certify_finite(pattern, spec, seed=3)
        assert cert.verdict == "finite" and cert.witness_columns is not None
        assert verify_finite_witness(pattern, spec, cert)
        constraint = build_constraint(pattern, spec, cert.selection)
        masks, _labels = _support_masks(constraint, range(constraint.num_columns))
        width = max(m.bit_length() for m in masks)
        order = sorted(range(len(masks)), key=lambda i: (-masks[i].bit_count(), i))
        counts = _IncrementalCounts(width, _caps_worst(width, spec))
        candidates = _witness_solutions(masks, order, cert.num_free_core, counts, [10**6])
        dependent = next(
            w for w in candidates if not witness_is_confirmed(pattern, spec, constraint, cert.selection, w)
        )
        assert subset_condition_holds(constraint, dependent, spec)[0]
        forged = FiniteCertificate(
            verdict="finite",
            num_free_core=cert.num_free_core,
            witness_columns=dependent,
            violating_subset=None,
            selection=cert.selection,
            num_columns=cert.num_columns,
        )
        assert not verify_finite_witness(pattern, spec, forged)


class TestCertifyFinite:
    def test_zero_core_dim_pattern_is_finite(self):
        pattern = section_iib_pattern()
        spec = RankSpec(j=1, ranks=(1, 1))
        assert core_dim(pattern.shape, spec) == 0
        cert = certify_finite(pattern, spec)
        assert cert.verdict == "finite"
        assert cert.witness_columns == ()
        assert cert.num_free_core == 0

    def test_bj_violation_raises(self):
        pattern = SamplingPattern.full((2, 3, 3))
        with pytest.raises(AssumptionError):
            certify_finite(pattern, RankSpec(j=1, ranks=(1, 2)))

    @pytest.mark.parametrize("certify", [certify_finite, certify_unique])
    def test_too_few_entries_refused_before_the_jacobian(self, certify, monkeypatch):
        """A pattern with fewer entries than a selection needs is refused
        from its dimensions alone: its Jacobian could be too large to build."""

        def no_jacobian(*args):
            raise AssertionError("the Jacobian was built")

        monkeypatch.setattr(certifier, "_gf_rows", no_jacobian)
        pattern = SamplingPattern.from_coords((3, 3, 10**12), [(1, 1, 1), (2, 2, 5), (3, 1, 7)])
        with pytest.raises(SelectionInfeasibleError, match="only 3 are observed"):
            certify(pattern, RankSpec(j=1, ranks=(1, 2)))

    def test_full_observation_finite_with_witness_replay(self):
        pattern = SamplingPattern.full((3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        cert = certify_finite(pattern, spec)
        assert cert.verdict == "finite"
        assert cert.witness_columns is not None
        assert len(cert.witness_columns) == core_dim(pattern.shape, spec)
        assert verify_finite_witness(pattern, spec, cert)

    def test_replay_rejects_tampered_witness(self):
        pattern = SamplingPattern.full((3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        cert = certify_finite(pattern, spec)
        tampered = FiniteCertificate(
            verdict=cert.verdict,
            num_free_core=cert.num_free_core,
            witness_columns=cert.witness_columns[:-1] if cert.witness_columns else None,
            violating_subset=None,
            selection=cert.selection,
            num_columns=cert.num_columns,
        )
        assert not verify_finite_witness(pattern, spec, tampered)

    def test_sparse_pattern_not_finite(self):
        # 15 of 27 entries; the generic Jacobian stays rank-deficient.
        pattern = SamplingPattern.from_coords(
            (3, 3, 3),
            [
                (1, 1, 1), (1, 1, 3), (1, 2, 1), (1, 2, 3), (1, 3, 3),
                (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 3, 1),
                (2, 3, 3), (3, 1, 2), (3, 1, 3), (3, 2, 3), (3, 3, 3),
            ],
        )
        spec = RankSpec(j=1, ranks=(1, 2))
        cert = certify_finite(pattern, spec)
        assert cert.verdict == "not-finite"
        assert not generic_rank_finite(pattern.observed, pattern.shape, spec)

    def test_agrees_with_oracle_on_random_patterns(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        instance = generate_instance(shape, spec, seed=19)
        decided = 0
        for trial in range(12):
            pattern = sample_pattern(shape, 0.7, seed=121, trial=trial)
            try:
                cert = certify_finite(pattern, spec, seed=1)
            except AssumptionError:
                continue
            if cert.verdict == "undecided-search-exhausted":
                continue
            report = jacobian_rank(instance, pattern, mode="coreAndFactors")
            expected = "finite" if report.verdict == "finite" else "not-finite"
            assert cert.verdict == expected
            decided += 1
        assert decided >= 6

    def test_monotone_in_observations(self):
        base = SamplingPattern.from_coords(
            (3, 3, 3),
            [c for c in Shape(dims=(3, 3, 3)).coords() if c != (3, 3, 3)],
        )
        spec = RankSpec(j=1, ranks=(1, 2))
        cert = certify_finite(base, spec)
        assert cert.verdict == "finite"
        full = SamplingPattern.full((3, 3, 3))
        assert certify_finite(full, spec).verdict == "finite"

    def test_deterministic(self):
        pattern = sample_pattern(Shape(dims=(3, 3, 3)), 0.7, seed=5, trial=2)
        spec = RankSpec(j=1, ranks=(1, 2))
        a = certify_finite(pattern, spec, seed=3)
        b = certify_finite(pattern, spec, seed=3)
        assert a == b


class TestCertifyUnique:
    def test_two_completion_instance_not_unique(self):
        pattern, _values = appendix_c_pattern()
        spec = RankSpec(j=1, ranks=(2,))
        cert = certify_unique(pattern, spec)
        assert cert.verdict != "unique"
        # the instance is still finitely completable
        assert cert.finite.verdict == "finite"

    def test_fully_observed_is_unique(self):
        pattern = SamplingPattern.full((3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        cert = certify_unique(pattern, spec)
        assert cert.verdict == "unique"
        assert cert.witness_columns0 is not None
        assert len(cert.witness_columns0) == cert.n0
        # witnesses are disjoint
        assert not set(cert.witness_columns0) & set(cert.finite.witness_columns)

    def test_unique_implies_finite_with_shared_selection(self):
        pattern = SamplingPattern.full((2, 2, 2))
        spec = RankSpec(j=1, ranks=(1, 1))
        cert = certify_unique(pattern, spec)
        assert cert.verdict == "unique"
        assert cert.finite.verdict == "finite"
        assert verify_finite_witness(pattern, spec, cert.finite)

    def test_witness_cap_counts_rejected_witnesses(self, monkeypatch):
        """Every finite witness counts towards the cap of 50, also one for
        which no disjoint second witness is found."""
        searched = []
        real_search = certifier._finite_search

        def counting_search(*args, **kwargs):
            searched.append(0)
            for witness in real_search(*args, **kwargs):
                searched[-1] += 1
                yield witness

        monkeypatch.setattr(certifier, "_finite_search", counting_search)
        # No row set may hold a second-witness column, so every finite
        # witness is rejected.
        monkeypatch.setattr(certifier, "_caps_unique", lambda width, spec, n0: [0] * (1 << width))
        cert = certify_unique(SamplingPattern.full((4, 5, 5)), RankSpec(j=1, ranks=(1, 1)))
        assert cert.verdict == "undecided-search-exhausted"
        assert max(searched) == certifier.UNIQUE_WITNESS_CAP == 50

    def test_n0_formula(self):
        pattern = SamplingPattern.full((3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        cert = certify_unique(pattern, spec)
        assert cert.n0 == pattern.shape.head_size(1) - spec.sum_sq // spec.product


class TestSubproConsistency:
    def test_requires_j_at_least_two(self):
        pattern = SamplingPattern.full((2, 2, 2))
        with pytest.raises(ValueError):
            subpro_consistency(pattern, RankSpec(j=1, ranks=(1, 1)), r_j=1)

    def test_vacuous_when_not_finite(self):
        # 17 of 27 entries: not finitely completable at j=2, so the
        # implication to j=1 holds vacuously.
        pattern = SamplingPattern.from_coords(
            (3, 3, 3),
            [
                (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 3, 1), (1, 3, 2),
                (1, 3, 3), (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1),
                (2, 2, 3), (2, 3, 3), (3, 1, 2), (3, 2, 3), (3, 3, 1),
                (3, 3, 2), (3, 3, 3),
            ],
        )
        spec = RankSpec(j=2, ranks=(2,))
        res = subpro_consistency(pattern, spec, r_j=1)
        assert res.verdict_at_j == "not-finite"
        assert res.vacuous
        assert res.implication_held is True

    def test_implication_holds_on_random_instances(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=2, ranks=(2,))
        held = 0
        for trial in range(15):
            pattern = sample_pattern(shape, 0.75, seed=33, trial=trial)
            try:
                res = subpro_consistency(pattern, spec, r_j=1, seed=trial)
            except AssumptionError:
                continue
            if res.vacuous or res.implication_held is None:
                continue
            assert res.implication_held
            held += 1
        assert held >= 3
