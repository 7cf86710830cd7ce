"""Designated-selection admissibility checks and selection search."""
import itertools
import math
import random
import time

import pytest

from tensorcert import assumptions
from tensorcert.assumptions import (
    AssumptionError,
    HullSpec,
    SelectionInfeasibleError,
    SelectionNotFoundError,
    TSelection,
    _greedy_candidate,
    _seed_order,
    check_Aj,
    check_Aj_plus,
    check_Bj,
    find_T_selection,
    hull_condition,
    minimal_hull,
    selection_pins_factors,
)
from tensorcert.certifier import certify_finite
from tensorcert.core import SamplingPattern, Shape
from tensorcert.geometry import RANK_POINT_SEED, RankSpec, factor_offsets, pattern_index, reaches_rank_mod_p
from tensorcert.montecarlo import sample_pattern
from tensorcert.oracle import generate_instance, jacobian_rank

from test_hallgraph import alternating_search_reference


def hull_weights(spec: RankSpec, plus: bool) -> tuple[int, ...]:
    return tuple(r + 1 for r in spec.ranks) if plus else spec.ranks


def selection_size(shape: Shape, spec: RankSpec, plus: bool = False) -> int:
    return sum(n * w for n, w in zip(spec.tail_dims(shape), hull_weights(spec, plus)))


def brute_force_hull(shape: Shape, spec: RankSpec, entries, plus: bool):
    """Reference screen: walk every product S_{j+1} x ... x S_d of row subsets
    (empty ones too under `plus`, where they hold nothing) and return the
    first overdrawn hull."""
    weights = hull_weights(spec, plus)
    per_dim = [
        [frozenset(c) for k in range(0 if plus else 1, n + 1) for c in itertools.combinations(range(1, n + 1), k)]
        for n in spec.tail_dims(shape)
    ]
    for subsets in itertools.product(*per_dim):
        hull = HullSpec(j=spec.j, subsets=subsets)
        if hull.count(entries) > hull.budget(weights):
            return False, hull
    return True, None


def reference_greedy(shape: Shape, spec: RankSpec, plus: bool, order):
    """The selection greedy re-checking every grown prefix by brute force."""
    needed = selection_size(shape, spec, plus)
    chosen = []
    for coord in order:
        if brute_force_hull(shape, spec, chosen + [coord], plus)[0]:
            chosen.append(coord)
            if len(chosen) == needed:
                return tuple(chosen)
    return None


def slot_labels(shape: Shape, spec: RankSpec, plus: bool, entries) -> tuple[list[list[int]], int]:
    """Per entry its hull-screen slot labels, numbered from 1: value x of
    trailing dimension s owns w_s consecutive labels.  Also the label count
    plus one, the length of a matching indexed by label."""
    weights = hull_weights(spec, plus)
    starts = list(itertools.accumulate((n * w for n, w in zip(spec.tail_dims(shape), weights)), initial=1))
    labels = [
        [start + (x - 1) * w + k for start, w, x in zip(starts, weights, c[spec.j :]) for k in range(w)]
        for c in entries
    ]
    return labels, starts[-1]


def reference_screen(shape: Shape, spec: RankSpec, plus: bool, entries):
    """The screen and the selection greedy as the breadth-first search over
    label lists ran them: the positions that pass in turn, up to the
    selection size, and the minimal hull of the first entry that fails."""
    adj, size = slot_labels(shape, spec, plus, entries)
    mate = [-1] * size
    kept, first_hull = [], None
    for u in range(len(entries)):
        witness = alternating_search_reference(adj, mate, u)
        if witness is None:
            kept.append(u)
        elif first_hull is None:
            first_hull = minimal_hull(spec.j, [entries[w - 1] for w in witness])
    return kept, first_hull


def greedy_over(pattern: SamplingPattern, spec: RankSpec, plus: bool, order):
    """_greedy_candidate over entries given by coordinate; the kept entries as
    coordinates."""
    kept = _greedy_candidate(pattern, spec, plus, [pattern.observed.index(c) for c in order])
    return None if kept is None else tuple(pattern.observed[p] for p in kept)


HULL_CASES = [
    ((3, 3, 3), RankSpec(j=1, ranks=(1, 1))),
    ((3, 3, 3), RankSpec(j=1, ranks=(1, 2))),
    ((4, 4, 4), RankSpec(j=1, ranks=(1, 2))),
    ((3, 3, 3, 3), RankSpec(j=1, ranks=(1, 1, 1))),
    ((3, 3, 3, 3), RankSpec(j=2, ranks=(1, 2))),
    ((2, 4, 3, 2), RankSpec(j=1, ranks=(1, 1, 1))),
]


def oracle_pins(shape: Shape, spec: RankSpec, entries, seeds=(3, 17)) -> bool:
    """Independent generic-rank verdict: the selection entries alone determine
    the factor matrices (finitely) at a random instance, factors-only mode."""
    pattern = SamplingPattern.from_coords(shape.dims, entries)
    return any(
        jacobian_rank(
            generate_instance(shape, spec, seed=seed), pattern, mode="factorsOnly"
        ).verdict
        == "finite"
        for seed in seeds
    )


class TestMinimalHull:
    def test_collects_trailing_values(self):
        hull = minimal_hull(1, [(1, 2, 3), (2, 2, 1), (1, 1, 3)])
        assert hull.subsets == (frozenset({1, 2}), frozenset({1, 3}))

    def test_contains_and_count(self):
        hull = HullSpec(j=1, subsets=(frozenset({1, 2}), frozenset({3})))
        assert hull.contains((9, 1, 3))
        assert not hull.contains((9, 3, 3))
        assert hull.count([(9, 1, 3), (9, 2, 3), (9, 3, 3)]) == 2

    def test_budget_weighted_by_ranks(self):
        hull = HullSpec(j=1, subsets=(frozenset({1, 2}), frozenset({3})))
        assert hull.budget((2, 3)) == 2 * 2 + 1 * 3

    def test_empty_entry_set_rejected(self):
        with pytest.raises(ValueError):
            minimal_hull(1, [])

    def test_minimality(self):
        coords = [(1, 2, 3), (2, 2, 1)]
        hull = minimal_hull(1, coords)
        assert all(hull.contains(c) for c in coords)
        for i, s in enumerate(hull.subsets):
            for drop in s:
                smaller = list(hull.subsets)
                smaller[i] = s - {drop}
                weaker = HullSpec(j=1, subsets=tuple(smaller))
                assert not all(weaker.contains(c) for c in coords)


class TestCheckBj:
    def test_row_budget(self):
        assert check_Bj(Shape(dims=(3, 3, 3)), RankSpec(j=1, ranks=(1, 2)))
        assert not check_Bj(Shape(dims=(2, 3, 3)), RankSpec(j=1, ranks=(1, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_Bj(Shape(dims=(3, 3)), RankSpec(j=1, ranks=(1, 2)))


class TestHullCondition:
    def test_overdrawn_hull_reported(self):
        # three entries in the single column (1, 1) against budget 1 + 1 = 2
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 1))
        entries = [(1, 1, 1), (2, 1, 1), (3, 1, 1)]
        ok, witness = hull_condition(shape, spec, entries)
        assert not ok
        assert witness is not None
        assert witness.count(entries) > witness.budget(spec.ranks)

    def test_within_budget_everywhere(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 1))
        entries = [(1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 1, 2), (1, 1, 3), (2, 2, 2)]
        ok, witness = hull_condition(shape, spec, entries)
        assert ok and witness is None

    @pytest.mark.parametrize("dims,spec", HULL_CASES)
    @pytest.mark.parametrize("plus", [False, True])
    def test_agrees_with_brute_force(self, dims, spec, plus):
        shape = Shape(dims=dims)
        coords = list(shape.coords())
        size = selection_size(shape, spec, plus)
        rng = random.Random(str((dims, spec.j, plus)))
        verdicts = set()
        for _ in range(60):
            entries = rng.sample(coords, rng.randint(1, size + 2))
            ok, witness = hull_condition(shape, spec, entries, plus)
            assert ok == brute_force_hull(shape, spec, entries, plus)[0]
            assert (witness is None) == ok
            if witness is not None:
                assert witness.count(entries) > witness.budget(hull_weights(spec, plus))
            verdicts.add(ok)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("dims,spec", HULL_CASES)
    def test_greedy_matches_prefix_rechecks(self, dims, spec):
        shape = Shape(dims=dims)
        found = 0
        for trial, plus in itertools.product(range(2), (False, True)):
            pattern = sample_pattern(shape, 0.5, seed=23, trial=trial)
            shuffled = sorted(pattern.observed)
            random.Random(trial).shuffle(shuffled)
            for order in (sorted(pattern.observed), shuffled):
                ours = greedy_over(pattern, spec, plus, order)
                assert ours == reference_greedy(shape, spec, plus, order)
                found += ours is not None
        assert found

    def test_packed_search_keeps_reference_positions_and_witnesses(self):
        """On seeded random patterns and entry orders, the greedy keeps
        exactly the positions the breadth-first search over label lists
        kept, and the screen returns the same first overdrawn hull, which
        holds more entries than its budget."""
        cases = HULL_CASES + [
            ((3, 6, 6), RankSpec(j=1, ranks=(2, 2))),
            ((3, 3, 12, 12), RankSpec(j=2, ranks=(2, 1))),
        ]
        rng = random.Random(97)
        kinds = set()
        for _ in range(120):
            dims, spec = rng.choice(cases)
            shape, plus = Shape(dims=dims), rng.random() < 0.5
            pattern = sample_pattern(shape, rng.choice([0.2, 0.5, 0.9]), seed=rng.randrange(2**32))
            if not pattern.num_observed:
                continue
            order = _seed_order(pattern, rng.randrange(4))
            entries = [pattern.observed[p] for p in order]
            kept, hull = reference_screen(shape, spec, plus, entries)
            needed = selection_size(shape, spec, plus)
            expected = tuple(order[u] for u in kept[:needed]) if len(kept) >= needed else None
            assert _greedy_candidate(pattern, spec, plus, order) == expected
            ok, witness = hull_condition(shape, spec, entries, plus)
            assert (ok, witness) == (hull is None, hull)
            if witness is not None:
                assert witness.count(entries) > witness.budget(hull_weights(spec, plus))
            kinds.add((expected is None, ok))
        assert kinds == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("dims,p", [((2, 10, 10), 0.3), ((10, 10, 10), 0.07)])
    def test_large_trailing_dims_decided(self, dims, p):
        """Trailing dimensions far past what hull enumeration could walk: the
        certifier decides and agrees with the generic-rank oracle."""
        shape = Shape(dims=dims)
        spec = RankSpec(j=1, ranks=(1, 1))
        instance = generate_instance(shape, spec, seed=11)
        for trial in range(4):
            pattern = sample_pattern(shape, p, seed=11, trial=trial)
            verdict = certify_finite(pattern, spec).verdict
            oracle = jacobian_rank(instance, pattern, mode="coreAndFactors").verdict
            assert verdict in ("finite", "not-finite")
            assert (verdict == "finite") == (oracle == "finite")

    def test_necessary_for_pinning(self):
        """Any selection that fails the counting screen also fails the
        generic-rank confirmation."""
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        rng = random.Random(5)
        coords = [c for c in shape.coords()]
        checked = 0
        while checked < 20:
            entries = rng.sample(coords, selection_size(shape, spec))
            ok, _ = hull_condition(shape, spec, entries)
            if ok:
                continue
            checked += 1
            assert not selection_pins_factors(shape, spec, entries)


# Small shapes whose every `needed`-subset of a sparse pattern can be walked.
EXACTNESS_CASES = [
    ((3, 3, 3), RankSpec(j=1, ranks=(1, 2))),
    ((3, 3, 3), RankSpec(j=1, ranks=(1, 1))),
    ((2, 3, 3), RankSpec(j=1, ranks=(1, 1))),
    ((3, 3, 3), RankSpec(j=2, ranks=(2,))),
]


PIN_CASES = [
            ((5, 4), RankSpec(j=1, ranks=(2,)),
             [(1, 3), (1, 4), (2, 1), (3, 1), (4, 2), (4, 4), (5, 2), (5, 3)], True),
            ((5, 4), RankSpec(j=1, ranks=(2,)),
             [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4)], False),
            ((4, 3, 3), RankSpec(j=1, ranks=(2, 2)),
             [(1, 2, 1), (1, 2, 2), (1, 3, 2), (1, 3, 3), (2, 1, 1), (2, 1, 3),
              (2, 2, 2), (2, 3, 1), (3, 1, 3), (3, 2, 2), (4, 1, 1), (4, 3, 1)], True),
            ((4, 3, 3), RankSpec(j=1, ranks=(2, 2)),
             [(3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1), (3, 2, 2), (3, 2, 3),
              (3, 3, 3), (4, 1, 1), (4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 3, 3)], False),
            ((3, 3, 3, 3), RankSpec(j=2, ranks=(2, 2)),
             [(1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 2, 1), (1, 3, 1, 1), (2, 1, 2, 3), (2, 1, 3, 1),
              (2, 1, 3, 2), (2, 2, 1, 1), (2, 3, 1, 1), (3, 2, 2, 2), (3, 2, 2, 3), (3, 2, 3, 2)], True),
            ((3, 3, 3, 3), RankSpec(j=2, ranks=(2, 2)),
             [(1, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1, 1), (1, 2, 1, 1), (1, 1, 1, 2), (2, 1, 1, 2),
              (1, 1, 2, 1), (2, 1, 2, 1), (1, 1, 3, 3), (2, 1, 3, 3), (1, 1, 2, 2), (1, 1, 3, 1)], False),
]


class TestSelectionPinsFactors:
    @pytest.mark.parametrize("dims,spec,entries,pins", PIN_CASES)
    def test_fixed_verdicts_agree_with_oracle(self, dims, spec, entries, pins):
        """The same verdict from the selection's GF(p) Jacobian and from the
        float oracle."""
        shape = Shape(dims=dims)
        assert selection_pins_factors(shape, spec, entries) == pins
        assert oracle_pins(shape, spec, entries) == pins

    @pytest.mark.parametrize("dims,spec,entries,pins", PIN_CASES)
    def test_one_jacobian_at_the_selection_point(self, dims, spec, entries, pins, monkeypatch):
        """The verdict costs one Jacobian build, at the point of
        RANK_POINT_SEED, and equals the rank of the same entries' rows in the
        full pattern's index Jacobian, which the selection search reads."""
        shape = Shape(dims=dims)
        full = pattern_index(SamplingPattern.full(dims), spec)
        offsets = factor_offsets(shape, spec)
        target = offsets[-1] - offsets[0] - (len(spec.ranks) - 1)
        rows = full.jacobian[[full.position[c] for c in entries], offsets[0] :]
        assert reaches_rank_mod_p(rows, target) == pins
        builds = []

        def counting(*args, original=assumptions.unreduced_jacobian):
            builds.append(args[-2])
            return original(*args)

        monkeypatch.setattr(assumptions, "unreduced_jacobian", counting)
        assert selection_pins_factors(shape, spec, entries) == pins
        assert builds == [RANK_POINT_SEED]


class TestCheckAj:
    def test_agrees_with_factors_only_oracle(self):
        """Sampled version of the full equivalence: the admissibility verdict
        matches the generic-rank oracle on random selections."""
        cases = [
            ((3, 3, 3), RankSpec(j=1, ranks=(1, 1))),
            ((3, 3, 3), RankSpec(j=1, ranks=(1, 2))),
            ((3, 3, 3), RankSpec(j=2, ranks=(2,))),
            ((4, 3, 3), RankSpec(j=1, ranks=(2, 2))),
        ]
        rng = random.Random(31)
        for dims, spec in cases:
            shape = Shape(dims=dims)
            pattern = SamplingPattern.full(dims)
            coords = list(shape.coords())
            size = selection_size(shape, spec)
            for _ in range(10):
                entries = tuple(sorted(rng.sample(coords, size)))
                selection = TSelection(entries=entries, mode="A")
                ok, witness = check_Aj(pattern, spec, selection)
                assert ok == oracle_pins(shape, spec, entries)
                if witness is not None:
                    assert not ok
                    assert witness.count(entries) > witness.budget(spec.ranks)

    def test_wrong_size_rejected(self):
        pattern = SamplingPattern.full((3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 1))
        with pytest.raises(AssumptionError):
            check_Aj(pattern, spec, TSelection(entries=((1, 1, 1),), mode="A"))

    def test_selection_outside_pattern_rejected(self):
        pattern = SamplingPattern.from_coords((2, 2, 2), [(1, 1, 1), (1, 2, 1)])
        spec = RankSpec(j=1, ranks=(1, 1))
        sel = TSelection(entries=((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)), mode="A")
        with pytest.raises(AssumptionError):
            check_Aj(pattern, spec, sel)

    def test_known_good_selection(self):
        # one entry per trailing matricization row, anchored at head index 1
        pattern = SamplingPattern.full((2, 2, 2))
        spec = RankSpec(j=1, ranks=(1, 1))
        sel = TSelection(
            entries=((1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2)), mode="A"
        )
        ok, witness = check_Aj(pattern, spec, sel)
        assert ok and witness is None


class TestCheckAjPlus:
    def test_plus_needs_larger_selection(self):
        pattern = SamplingPattern.full((2, 2, 2))
        spec = RankSpec(j=1, ranks=(1, 1))
        sel = find_T_selection(pattern, spec, mode="A")
        with pytest.raises(AssumptionError):
            check_Aj_plus(pattern, spec, sel)

    def test_admissible_plus_selection_found_and_verified(self):
        pattern = SamplingPattern.full((3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 1))
        sel = find_T_selection(pattern, spec, mode="A+")
        assert len(sel.entries) == selection_size(pattern.shape, spec, plus=True)
        ok, _ = check_Aj_plus(pattern, spec, sel)
        assert ok


class TestFindTSelection:
    def test_full_pattern_selection_admissible(self):
        pattern = SamplingPattern.full((3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        sel = find_T_selection(pattern, spec)
        ok, _ = check_Aj(pattern, spec, sel)
        assert ok

    def test_selection_is_admissible_subset_of_pattern(self):
        pattern = SamplingPattern.full((3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        for mode, checker in (("A", check_Aj), ("A+", check_Aj_plus)):
            sel = find_T_selection(pattern, spec, mode=mode)
            assert len(sel.entries) == selection_size(pattern.shape, spec, plus=mode == "A+")
            assert set(sel.entries) <= set(pattern.observed)
            ok, _ = checker(pattern, spec, sel)
            assert ok

    def test_infeasible_when_pattern_too_small(self):
        pattern = SamplingPattern.from_coords((3, 3, 3), [(1, 1, 1), (2, 2, 2)])
        spec = RankSpec(j=1, ranks=(1, 2))
        with pytest.raises(SelectionInfeasibleError):
            find_T_selection(pattern, spec)

    def test_deterministic_for_fixed_seed(self):
        pattern = SamplingPattern.full((3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        assert find_T_selection(pattern, spec, seed=7) == find_T_selection(pattern, spec, seed=7)

    def test_hull_shortfall_proves_nonexistence(self):
        # all nine observed entries lie in the hull ({1,2,3}, {1}) of budget
        # 3 + 1 = 4, so every 6-entry selection overdraws it; the greedy
        # falls short and proves that no admissible selection exists.
        pattern = SamplingPattern.from_coords(
            (3, 3, 3), [(x, y, 1) for x in (1, 2, 3) for y in (1, 2, 3)]
        )
        spec = RankSpec(j=1, ranks=(1, 1))
        with pytest.raises(SelectionNotFoundError):
            find_T_selection(pattern, spec)

    @pytest.mark.parametrize("trial", [2, 17])
    def test_hull_shortfall_refused_at_once(self, monkeypatch, trial):
        """The greedy's shortfall proves that no selection passes the hull
        screen, so the search refuses without checking any candidate."""
        pattern = sample_pattern(Shape(dims=(2, 10, 10)), 0.15, seed=11, trial=trial)
        checked = []
        monkeypatch.setattr(assumptions, "check_Aj", lambda *args: checked.append(args))
        start = time.perf_counter()
        with pytest.raises(SelectionNotFoundError, match="20 observed entries pass the hull screen"):
            find_T_selection(pattern, RankSpec(j=1, ranks=(1, 1)))
        assert time.perf_counter() - start < 1.0
        assert checked == []

    def test_hull_shortfall_agrees_with_brute_force(self):
        """On small patterns, a hull-screen refusal happens exactly when no
        `needed`-subset of the observed entries passes the brute-force screen."""
        shape = Shape(dims=(2, 4, 4))
        spec = RankSpec(j=1, ranks=(1, 1))
        needed = selection_size(shape, spec)
        refused = 0
        for trial in range(12):
            pattern = sample_pattern(shape, 0.35, seed=11, trial=trial)
            if pattern.num_observed < needed:
                continue
            try:
                find_T_selection(pattern, spec)
            except SelectionNotFoundError as exc:
                if "hull screen" in str(exc):
                    refused += 1
                    assert not any(
                        brute_force_hull(shape, spec, combo, False)[0]
                        for combo in itertools.combinations(pattern.observed, needed)
                    )
                    continue
            assert greedy_over(pattern, spec, False, sorted(pattern.observed)) is not None
        assert refused == 3

    def test_refuses_exactly_when_brute_force_finds_none(self):
        """On small patterns, the search refuses exactly when no
        `needed`-subset of the observed entries passes both the hull screen
        and the factor-block rank at RANK_POINT_SEED, and every selection it
        returns passes the admissibility check.  Both kinds of refusal
        occur."""
        kinds = {"found": 0, "hull": 0, "rank": 0}
        for dims, spec in EXACTNESS_CASES:
            shape = Shape(dims=dims)
            offsets = factor_offsets(shape, spec)
            target = offsets[-1] - offsets[0] - (len(spec.ranks) - 1)
            for plus in (False, True):
                needed = selection_size(shape, spec, plus)
                checker = check_Aj_plus if plus else check_Aj
                for trial in range(40):
                    pattern = sample_pattern(shape, (needed + 2) / shape.size, seed=13, trial=trial)
                    if pattern.num_observed < needed or math.comb(pattern.num_observed, needed) > 2000:
                        continue
                    index = pattern_index(pattern, spec)
                    exists = any(
                        hull_condition(shape, spec, combo, plus)[0]
                        and reaches_rank_mod_p(
                            index.jacobian[[index.position[c] for c in combo], offsets[0] :], target
                        )
                        for combo in itertools.combinations(pattern.observed, needed)
                    )
                    try:
                        selection = find_T_selection(pattern, spec, mode="A+" if plus else "A")
                    except SelectionNotFoundError as exc:
                        assert not exists, (dims, spec, plus, trial)
                        kinds["hull" if "hull screen" in str(exc) else "rank"] += 1
                        continue
                    assert exists and checker(pattern, spec, selection)[0], (dims, spec, plus, trial)
                    kinds["found"] += 1
        assert kinds == {"found": 177, "hull": 45, "rank": 5}

    def test_infeasible_propagates(self):
        pattern = SamplingPattern.from_coords((3, 3, 3), [(1, 1, 1)])
        spec = RankSpec(j=1, ranks=(1, 1))
        with pytest.raises(SelectionInfeasibleError):
            find_T_selection(pattern, spec)
