"""Finite/unique completability certification against the numerical oracle."""
import itertools
import random

import numpy as np
import pytest

from tensorcert import certifier, geometry
from tensorcert.assumptions import (
    AssumptionError,
    SelectionInfeasibleError,
    TSelection,
    find_T_selection,
    selection_echelon,
)
from tensorcert.certifier import (
    SEARCH_NODE_GUARD,
    CertifierGuardError,
    FiniteCertificate,
    _caps,
    _finite_search,
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
from tensorcert.geometry import (
    RANK_POINT_SEED,
    RANK_PRIME,
    ModEchelon,
    RankSpec,
    core_dim,
    pattern_index,
    unreduced_jacobian,
)
from tensorcert.montecarlo import sample_pattern
from tensorcert.oracle import (
    appendix_c_pattern,
    generate_instance,
    jacobian_rank,
    section_iib_pattern,
)
from test_acceptance import Budget
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
    masks = _support_masks(cm, columns)
    assert len(masks) <= COLUMN_ENUM_GUARD
    caps = _caps(max(m.bit_length() for m in masks), spec)
    for t in range(1, len(masks) + 1):
        for combo in itertools.combinations(range(len(masks)), t):
            union = 0
            for i in combo:
                union |= masks[i]
            if caps[union.bit_count()] < t:
                return False, tuple(columns[i] for i in combo)
    return True, None


class TestSubsetCondition:
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
            assert generic_rank_finite(pattern, spec)

    def test_too_few_entries_is_infinite(self):
        pattern = SamplingPattern.from_coords((3, 3, 3), [(1, 1, 1), (2, 2, 2)])
        assert not generic_rank_finite(pattern, RankSpec(j=1, ranks=(1, 2)))

    def test_agrees_with_gauge_fixed_oracle(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        instance = generate_instance(shape, spec, seed=23)
        for trial in range(10):
            pattern = sample_pattern(shape, 0.65, seed=61, trial=trial)
            if pattern.num_observed == 0:
                continue
            mine = generic_rank_finite(pattern, spec)
            report = jacobian_rank(instance, pattern, mode="coreAndFactors")
            assert mine == (report.verdict == "finite")


class TestIndexJacobian:
    """Row selections of a pattern index's GF(p) Jacobian are the Jacobians
    of the subsets, so every rank decision of a certificate can read them."""

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
        index = pattern_index(pattern, spec)
        rng = random.Random(3)
        verdicts = set()
        for _ in range(12):
            size = rng.randint(len(pattern.observed) // 2, len(pattern.observed))
            subset = sorted(rng.sample(pattern.observed, size))
            fresh_rows = unreduced_jacobian(shape, spec, subset, RANK_POINT_SEED, RANK_PRIME)
            assert np.array_equal(index.jacobian[[index.position[c] for c in subset]], fresh_rows)
            fresh = generic_rank_finite(SamplingPattern(shape, tuple(subset)), spec)
            assert fresh == (sum(prefix_independence_reference(fresh_rows)) >= _rank_target(shape, spec))
            verdicts.add(fresh)
        assert verdicts == {True, False}

    def test_read_only(self):
        jacobian = pattern_index(SamplingPattern.full((3, 3, 3)), RankSpec(j=1, ranks=(1, 2))).jacobian
        assert not jacobian.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            jacobian[0, 0] = 1

    def test_one_build_for_both_certificates(self, monkeypatch):
        """check-finite then check-unique on one pattern object build its
        Jacobian once."""
        builds = []

        def counting(*args, original=geometry.unreduced_jacobian):
            builds.append(args)
            return original(*args)

        monkeypatch.setattr(geometry, "unreduced_jacobian", counting)
        pattern = SamplingPattern.full((3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        assert certify_finite(pattern, spec).verdict == "finite"
        assert certify_unique(pattern, spec).verdict == "unique"
        assert len(builds) == 1


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
    masks = _support_masks(constraint, columns)
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
        echelon = selection_echelon(shape, spec)
        selection = find_T_selection(pattern, spec, mode=mode, echelon=echelon)
        constraint = build_constraint(pattern, spec, selection)
        n = core_dim(shape, spec)
        expected = [
            w
            for w in count_only_witnesses(constraint, spec, n)
            if witness_is_confirmed(pattern, spec, constraint, selection, w)
        ]
        pruned = list(_finite_search(pattern, spec, constraint, selection, echelon))
        assert pruned == expected

    def test_search_pops_its_pushes_on_every_exit(self, monkeypatch):
        """A search stopped by its node budget, and one closed at its first
        witness, leave the selection's echelon as they found it, so the rank
        probe can continue it."""
        shape, spec = Shape(dims=(4, 4, 4)), RankSpec(j=1, ranks=(2, 2))
        pattern = SamplingPattern.full(shape.dims)
        echelon = selection_echelon(shape, spec)
        # At seed 0 the selection's rows are dependent and no search runs.
        selection = find_T_selection(pattern, spec, seed=1, echelon=echelon)
        constraint = build_constraint(pattern, spec, selection)
        held = (echelon.rank, echelon.dependent)
        assert held == (len(selection.entries), 0)
        monkeypatch.setattr(certifier, "WITNESS_NODE_BUDGET", 4)
        with pytest.raises(CertifierGuardError):
            next(_finite_search(pattern, spec, constraint, selection, echelon))
        assert (echelon.rank, echelon.dependent) == held
        monkeypatch.setattr(certifier, "WITNESS_NODE_BUDGET", 10**9)
        search = _finite_search(pattern, spec, constraint, selection, echelon)
        assert len(next(search)) == core_dim(shape, spec)
        assert echelon.rank == len(selection.entries) + core_dim(shape, spec)
        search.close()
        assert (echelon.rank, echelon.dependent) == held

    def test_replay_rejects_count_feasible_rank_dependent_witness(self):
        pattern = sample_pattern(Shape(dims=(3, 3, 3, 3)), 0.85, seed=5, trial=0)
        spec = RankSpec(j=2, ranks=(2, 2))
        cert = certify_finite(pattern, spec, seed=3)
        assert cert.verdict == "finite" and cert.witness_columns is not None
        assert verify_finite_witness(pattern, spec, cert)
        constraint = build_constraint(pattern, spec, cert.selection)
        masks = _support_masks(constraint, range(constraint.num_columns))
        width = max(m.bit_length() for m in masks)
        order = sorted(range(len(masks)), key=lambda i: (-masks[i].bit_count(), i))
        counts = _IncrementalCounts(width, _caps(width, spec))
        candidates = _witness_solutions(masks, order, cert.num_free_core, counts, 10**6)
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


def reference_caps(width, spec, n0=None):
    """Reference: the capacity of every row set, indexed by bitmask."""
    R = spec.product
    by_count = [R * w - spec.g(w) for w in range(width + 1)]
    if n0 is not None:
        by_count = [
            next((t for t in range(n0) if R * (t + 1) - spec.sum_sq * max(0, t + 2 - n0) > free), n0)
            for free in by_count
        ]
    return tuple(by_count[w.bit_count()] for w in range(1 << width))


class ReferenceCounts:
    """Reference: counts of chosen columns inside every row set, against a
    per-mask capacity table."""

    def __init__(self, width, caps):
        self.full = (1 << width) - 1
        self.cnt = [0] * (1 << width)
        self.caps = caps

    def _supersets(self, mask):
        comp = self.full & ~mask
        sub = comp
        while True:
            yield sub | mask
            if sub == 0:
                break
            sub = (sub - 1) & comp

    def can_add(self, mask):
        return all(self.cnt[w] + 1 <= self.caps[w] for w in self._supersets(mask))

    def add(self, mask):
        for w in self._supersets(mask):
            self.cnt[w] += 1

    def remove(self, mask):
        for w in self._supersets(mask):
            self.cnt[w] -= 1


def reference_witness_solutions(masks, order, target, counts, node_budget, rank=None):
    """Reference: the include-first depth-first search written recursively,
    one nested generator per position of ``order`` it steps past."""
    chosen = []

    def admit(idx):
        if not counts.can_add(masks[idx]):
            return False
        if rank is None:
            return True
        echelon, rows, slack = rank
        echelon.push(rows[idx])
        if echelon.dependent <= slack:
            return True
        echelon.pop()
        return False

    def rec(i):
        nonlocal node_budget
        if len(chosen) == target:
            yield tuple(sorted(chosen))
            return
        if target - len(chosen) > len(order) - i:
            return
        node_budget -= 1
        if node_budget <= 0:
            raise CertifierGuardError("witness search exceeded its node budget")
        idx = order[i]
        if admit(idx):
            counts.add(masks[idx])
            chosen.append(idx)
            yield from rec(i + 1)
            chosen.pop()
            counts.remove(masks[idx])
            if rank is not None:
                rank[0].pop()
        yield from rec(i + 1)

    yield from rec(0)


def search_outcome(solutions, cap=100):
    """The first ``cap`` solutions a search yields, then "stopped" when it
    ran out of nodes before it ended or reached the cap."""
    out = []
    try:
        for witness in solutions:
            out.append(witness)
            if len(out) == cap:
                break
    except CertifierGuardError:
        out.append("stopped")
    return out


class TestWitnessSearch:
    """The iterative search visits the states of the recursive reference in
    its order, and spends and exhausts its node budget at the same nodes."""

    def test_matches_recursive_reference(self):
        rng = random.Random(2024)
        specs = [RankSpec(j=1, ranks=r) for r in [(1, 1), (1, 2), (2, 2), (2,), (3,)]]
        kinds = set()
        for _ in range(1500):
            width = rng.randint(1, 7)
            spec = rng.choice(specs)
            n0 = rng.choice([None, rng.randint(0, 6)])
            num_columns = rng.randint(0, 18)
            masks = [rng.randint(1, (1 << width) - 1) for _ in range(num_columns)]
            order = rng.sample(range(num_columns), rng.randint(0, num_columns))
            target = rng.randint(0, 7)
            budget = rng.choice([1, 3, 10, 40, 200, 10**6])
            rank = ranks = None
            if rng.random() < 0.5:
                rows = np.array([[rng.randrange(3) for _ in range(4)] for _ in range(num_columns)], np.int64)
                slack = rng.randint(0, 2)
                rank, ranks = (ModEchelon(4), rows, slack), (ModEchelon(4), rows, slack)
            counts = _IncrementalCounts(width, _caps(width, spec, n0))
            mine = search_outcome(_witness_solutions(masks, order, target, counts, budget, rank))
            reference = search_outcome(
                reference_witness_solutions(
                    masks, order, target, ReferenceCounts(width, reference_caps(width, spec, n0)), budget, ranks
                )
            )
            assert mine == reference
            if "stopped" not in mine and len(mine) < 100:
                # A search that ran to its end has undone every inclusion.
                assert not any(counts.cnt)
                assert rank is None or rank[0].rank == rank[0].dependent == 0
            kinds.add(("stopped" in mine, len(mine) > ("stopped" in mine), rank is not None))
        assert len(kinds) == 8

    def test_thousands_of_columns_nest_no_calls(self):
        """3,000 columns that no row set can hold: every one is a node, and
        the search ends with no witness."""
        masks = [1] * 3000
        counts = _IncrementalCounts(1, [0, 0])
        assert list(_witness_solutions(masks, range(3000), 1, counts, SEARCH_NODE_GUARD)) == []


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
    def test_trailing_rank_beyond_dimension_refused(self, certify):
        """A fully observed tensor has one completion, so a trailing rank
        larger than its dimension is refused, not answered "not-finite"."""
        with pytest.raises(AssumptionError, match="^rank component 4 exceeds dimension 3$"):
            certify(SamplingPattern.full((3, 3, 3)), RankSpec(j=2, ranks=(4,)))

    @pytest.mark.parametrize("certify", [certify_finite, certify_unique])
    def test_too_few_entries_refused_before_the_jacobian(self, certify, monkeypatch):
        """A pattern with fewer entries than a selection needs is refused
        from its dimensions alone: its Jacobian could be too large to build."""

        def no_jacobian(*args):
            raise AssertionError("the Jacobian was built")

        monkeypatch.setattr(geometry, "unreduced_jacobian", no_jacobian)
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
        assert not generic_rank_finite(pattern, spec)

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
            assert cert.verdict in ("finite", "not-finite")
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
        real_caps = certifier._caps
        monkeypatch.setattr(
            certifier, "_caps", lambda width, spec, n0=None: real_caps(width, spec) if n0 is None else [0] * (width + 1)
        )
        cert = certify_unique(SamplingPattern.full((4, 5, 5)), RankSpec(j=1, ranks=(1, 1)))
        assert cert.verdict == "undecided-search-exhausted"
        assert max(searched) == certifier.UNIQUE_WITNESS_CAP == 50
        assert "UNIQUE_WITNESS_CAP (50 finite witnesses) reached on an A+ selection" in cert.reason.split("; ")

    def test_exhausted_reason_names_the_finite_budget(self):
        """On this pattern every pair search ends without a pair, and the
        "undecided" comes from the 500-node finite searches of later A+
        selections; the reason says so."""
        pattern = sample_pattern(Shape((3, 3, 30, 30)), 0.3, seed=5)
        with Budget(10.0):
            cert = certify_unique(pattern, RankSpec(j=2, ranks=(2, 1)), seed=3)
        assert cert.verdict == "undecided-search-exhausted"
        assert cert.reason == (
            "no disjoint witness pair found; WITNESS_NODE_BUDGET (500 nodes) ran out in an A+ selection's finite search"
        )

    def test_exhausted_reason_names_the_row_scan_guard(self):
        """The fully observed 6x6x6 pattern at j = 2 is finite, but its 36
        unfolding rows exceed the row-scan guard, so no A+ selection can be
        searched."""
        cert = certify_unique(SamplingPattern.full((6, 6, 6)), RankSpec(j=2, ranks=(2,)), seed=3)
        assert (cert.verdict, cert.finite.verdict) == ("undecided-search-exhausted", "finite")
        assert cert.reason == "no disjoint witness pair found; ROW_SCAN_GUARD (16 rows) refused an A+ selection's 36 rows"

    def test_exhausted_reason_names_the_pair_search_guard(self, monkeypatch):
        """With a pair-search guard of one node, no second witness can be
        found, and the reason names that guard first."""
        monkeypatch.setattr(certifier, "SEARCH_NODE_GUARD", 1)
        cert = certify_unique(SamplingPattern.full((3, 3, 3)), RankSpec(j=1, ranks=(1, 2)))
        assert cert.verdict == "undecided-search-exhausted"
        assert cert.reason.startswith(
            "no disjoint witness pair found; SEARCH_NODE_GUARD (1 nodes) ran out in a second-witness search"
        )

    def test_not_finite_pattern_not_certified(self):
        """The row sets of this pattern exceed the row-scan guard, so
        the second-witness search stops; the finite part decides the answer."""
        pattern = sample_pattern(Shape((6, 6, 6)), 0.5, seed=5, trial=0)
        cert = certify_unique(pattern, RankSpec(j=2, ranks=(2,)), seed=3)
        assert cert.finite.verdict == "not-finite"
        assert cert.finite.reason == "generic rank stays below the number of unknowns"
        assert cert.verdict == "not-certified"

    def test_not_finite_pattern_seeks_one_A_plus_selection(self, monkeypatch):
        """The finite part is decided before the pair search, so a pattern
        that is not finite seeks only the first A+ selection, which refuses
        a pattern that has none."""
        modes = []
        real_find = certifier.find_T_selection

        def counting_find(*args, **kwargs):
            modes.append(kwargs["mode"])
            return real_find(*args, **kwargs)

        monkeypatch.setattr(certifier, "find_T_selection", counting_find)
        for trial in range(6):
            modes.clear()
            pattern = sample_pattern(Shape((6, 6, 6)), 0.5, seed=5, trial=trial)
            cert = certify_unique(pattern, RankSpec(j=2, ranks=(2,)), seed=3)
            assert (cert.verdict, cert.finite.verdict) == ("not-certified", "not-finite")
            assert modes.count("A+") == 1

    @pytest.mark.parametrize("ranks,width,n0", [((1, 1), 6, 5), ((1, 2), 9, 4), ((2, 2), 12, 14), ((2,), 7, 1)])
    def test_unique_capacity_table_matches_per_mask_scan(self, ranks, width, n0):
        """Largest t in 0..n0 with R*(t+1) - sum_sq*(t + 2 - n0)^+ within the
        row set's capacity, taken mask by mask and read by row count."""
        spec = RankSpec(j=1, ranks=ranks)
        caps = _caps(width, spec, n0)
        assert len(caps) == width + 1
        for w in range(1 << width):
            free = spec.product * w.bit_count() - spec.g(w.bit_count())
            t = 0
            while t < n0 and spec.product * (t + 1) - spec.sum_sq * max(0, t + 2 - n0) <= free:
                t += 1
            assert caps[w.bit_count()] == t

    def test_long_pair_search_answers(self):
        """The second-witness search on this pattern steps past more columns
        than a recursive search could nest calls for."""
        pattern = sample_pattern(Shape((2, 2, 2, 30, 30)), 0.4, seed=5)
        with Budget(10.0):
            cert = certify_unique(pattern, RankSpec(j=3, ranks=(1, 1)), seed=3)
        assert cert.verdict == "unique"

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
