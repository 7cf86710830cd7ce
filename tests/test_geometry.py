"""Rank bookkeeping: dimension counts, the g-function, gauge block layout,
and the observation-Jacobian kernel."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tensorcert import geometry
from tensorcert.certifier import certify_finite, certify_unique
from tensorcert.core import SamplingPattern, Shape, unfold_row
from tensorcert.geometry import (
    RANK_POINT_SEED,
    RANK_PRIME,
    AssumptionError,
    ModEchelon,
    RankSpec,
    canonical_structure,
    core_dim,
    factor_offsets,
    manifold_dim,
    probe_point,
    reaches_rank_mod_p,
    unreduced_jacobian,
)
from tensorcert.montecarlo import sample_pattern
from tensorcert.oracle import generate_instance, realize

ranks_st = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3).map(tuple)


def g_bruteforce(spec: RankSpec, x: int) -> int:
    """Maximum number of pinned entries over all x-row subsets, counted from
    the explicit block layout on a shape just large enough to host it."""
    j = spec.j
    head = max(spec.sum_ranks, 2)
    shape = Shape(dims=(head,) + (1,) * (j - 1) + tuple(max(r, 1) for r in spec.ranks))
    structure = canonical_structure(shape, spec)
    per_row: dict[int, int] = {}
    for row, _col, _val in structure.known_entries():
        per_row[row] = per_row.get(row, 0) + 1
    counts = sorted(per_row.values(), reverse=True)
    return sum(counts[:x])


class TestRankSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RankSpec(j=0, ranks=(1,))
        with pytest.raises(ValueError):
            RankSpec(j=1, ranks=())
        with pytest.raises(ValueError):
            RankSpec(j=1, ranks=(0,))

    def test_derived_quantities(self):
        spec = RankSpec(j=2, ranks=(2, 3))
        assert spec.order == 4
        assert spec.product == 6
        assert spec.sum_sq == 13
        assert spec.sum_ranks == 5
        assert spec.sorted_ranks == (3, 2)

    def test_check_shape(self):
        spec = RankSpec(j=1, ranks=(2,))
        spec.check_shape(Shape(dims=(3, 3)))
        with pytest.raises(ValueError):
            spec.check_shape(Shape(dims=(3, 3, 3)))

    def test_tail_dims(self):
        spec = RankSpec(j=2, ranks=(2, 2))
        assert spec.tail_dims(Shape(dims=(2, 3, 4, 5))) == (4, 5)


class TestGFunction:
    def test_small_values_by_hand(self):
        # blocks of sizes 2 and 1: rows sorted by block size give 2, 2, 1.
        spec = RankSpec(j=1, ranks=(1, 2))
        assert [spec.g(x) for x in range(0, 5)] == [0, 2, 4, 5, 5]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RankSpec(j=1, ranks=(1,)).g(-1)

    @given(ranks_st, st.integers(min_value=0, max_value=12))
    def test_matches_bruteforce_block_count(self, ranks, x):
        spec = RankSpec(j=1, ranks=ranks)
        assert spec.g(x) == g_bruteforce(spec, x)

    @given(ranks_st)
    def test_monotone_and_saturating(self, ranks):
        spec = RankSpec(j=1, ranks=ranks)
        values = [spec.g(x) for x in range(spec.sum_ranks + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == values[-2] == spec.sum_sq


class TestDimensionCounts:
    def test_manifold_dim_matrix_case(self):
        # rank-r matrices: r(n1 + n2 - r).
        assert manifold_dim(Shape(dims=(5, 4)), (2, 2)) == 2 * (5 + 4 - 2)

    def test_manifold_dim_validation(self):
        with pytest.raises(ValueError):
            manifold_dim(Shape(dims=(2, 2)), (3, 1))
        with pytest.raises(ValueError):
            manifold_dim(Shape(dims=(2, 2)), (1,))

    def test_core_dim_formula(self):
        shape = Shape(dims=(3, 3, 3))
        assert core_dim(shape, RankSpec(j=1, ranks=(1, 2))) == 3 * 2 - 5
        assert core_dim(shape, RankSpec(j=2, ranks=(2,))) == 9 * 2 - 4

    def test_core_dim_zero_when_gauge_saturates(self):
        shape = Shape(dims=(2, 2, 2))
        assert core_dim(shape, RankSpec(j=1, ranks=(1, 1))) == 0


class TestCanonicalStructure:
    def test_block_layout(self):
        shape = Shape(dims=(6, 2, 3))
        spec = RankSpec(j=1, ranks=(2, 3))
        structure = canonical_structure(shape, spec)
        assert [b.dim for b in structure.blocks] == [2, 3]
        assert structure.blocks[0].rows == (1, 2)
        assert structure.blocks[1].rows == (3, 4, 5)
        # column coordinates are all-ones except in the block's own slot.
        assert structure.blocks[0].cols == ((1, 1), (2, 1))
        assert structure.blocks[1].cols == ((1, 1), (1, 2), (1, 3))

    def test_known_entries_are_identity_blocks(self):
        shape = Shape(dims=(5, 2, 2))
        spec = RankSpec(j=1, ranks=(2, 2))
        structure = canonical_structure(shape, spec)
        assert structure.known_count == 8
        entries = list(structure.known_entries())
        assert len(entries) == 8
        assert sum(v for _r, _c, v in entries) == 4.0  # trace of two I_2 blocks

    def test_rows_are_disjoint_across_blocks(self):
        shape = Shape(dims=(3, 3, 2, 2))
        spec = RankSpec(j=2, ranks=(2, 2))
        structure = canonical_structure(shape, spec)
        rows = [r for b in structure.blocks for r in b.rows]
        assert len(rows) == len(set(rows)) == spec.sum_ranks

    def test_insufficient_rows_rejected(self):
        shape = Shape(dims=(2, 3, 3))
        with pytest.raises(ValueError):
            canonical_structure(shape, RankSpec(j=1, ranks=(2, 2)))


FIT_ENTRY_POINTS = {
    "certify_finite": lambda shape, spec: certify_finite(SamplingPattern.full(shape.dims), spec),
    "certify_unique": lambda shape, spec: certify_unique(SamplingPattern.full(shape.dims), spec),
    "generate_instance": generate_instance,
    "canonical_structure": canonical_structure,
}


@pytest.mark.parametrize("entry", FIT_ENTRY_POINTS.values(), ids=FIT_ENTRY_POINTS.keys())
@pytest.mark.parametrize(
    "dims, spec, message",
    [
        ((3, 3, 3), RankSpec(j=1, ranks=(1, 2)), None),
        ((3, 3, 3), RankSpec(j=2, ranks=(4,)), "rank component 4 exceeds dimension 3"),
        ((2, 3, 3), RankSpec(j=1, ranks=(2, 2)), "unfolding has fewer rows than the sum of trailing ranks"),
    ],
    ids=["fits", "rank-above-dimension", "too-few-rows"],
)
def test_entry_points_share_fit_check(entry, dims, spec, message):
    """Each entry point that takes a rank spec refuses an unfit one with
    :func:`~tensorcert.geometry.check_fits`' message, and takes a fitting one."""
    if message is None:
        entry(Shape(dims=dims), spec)
    else:
        with pytest.raises(AssumptionError, match=f"^{message}$"):
            entry(Shape(dims=dims), spec)


def unreduced_jacobian_loop(shape: Shape, spec: RankSpec, coords, seed: int) -> np.ndarray:
    """Reference: the unreduced Jacobian built one entry and one rank tuple
    at a time, in the kernel's order of products and sums."""
    core, factors = probe_point(shape, spec, seed)
    offsets = factor_offsets(shape, spec)
    R = spec.product
    strides = [math.prod(spec.ranks[:s]) for s in range(len(spec.ranks))]
    jac = np.zeros((len(coords), offsets[-1]))
    for e, x in enumerate(coords):
        head_row = unfold_row(shape, spec.j, x) - 1
        tail = [v - 1 for v in x[spec.j:]]
        for k in itertools.product(*(range(r) for r in spec.ranks)):
            flat = sum(ki * st for ki, st in zip(k, strides))
            fs = [T[ks, b] for T, ks, b in zip(factors, k, tail)]
            jac[e, head_row * R + flat] = math.prod(fs)
            c = core[head_row, flat]
            for s, r in enumerate(spec.ranks):
                jac[e, offsets[s] + tail[s] * r + k[s]] += c * math.prod(fs[:s] + fs[s + 1 :])
    return jac


KERNEL_CASES = [
    ((5, 4), RankSpec(j=1, ranks=(2,))),
    ((4, 3, 3), RankSpec(j=1, ranks=(2, 2))),
    ((3, 3, 3, 3), RankSpec(j=2, ranks=(2, 2))),
    ((3, 3, 3, 3), RankSpec(j=1, ranks=(1, 1, 1))),
]


class TestUnreducedJacobian:
    @pytest.mark.parametrize("dims,spec", KERNEL_CASES)
    def test_bit_identical_to_reference_loop(self, dims, spec):
        shape = Shape(dims=dims)
        for pattern in (SamplingPattern.full(dims), sample_pattern(shape, 0.6, seed=4, trial=1)):
            coords = list(pattern.observed)
            for seed in (0, 0x7A57E):
                kernel = unreduced_jacobian(shape, spec, coords, seed)
                assert kernel.tobytes() == unreduced_jacobian_loop(shape, spec, coords, seed).tobytes()

    @pytest.mark.parametrize("dims,spec", KERNEL_CASES)
    def test_columns_match_differences_of_realize(self, dims, spec):
        shape = Shape(dims=dims)
        coords = list(sample_pattern(shape, 0.7, seed=8, trial=0).observed)
        jac = unreduced_jacobian(shape, spec, coords, seed=21)
        offsets = factor_offsets(shape, spec)
        assert jac.shape == (len(coords), offsets[-1])
        at = tuple(np.array(coords).T - 1)

        def observed(core, factors):
            return realize(shape, spec, core, factors)[at]

        # each value is affine in every single parameter, so central
        # differences are exact up to rounding
        h = 1e-3
        for p in range(offsets[-1]):
            sides = []
            for sign in (1, -1):
                core, factors = probe_point(shape, spec, seed=21)
                if p < offsets[0]:
                    core.flat[p] += sign * h
                else:
                    s = max(i for i in range(len(spec.ranks)) if offsets[i] <= p)
                    b, a = divmod(p - offsets[s], spec.ranks[s])
                    factors[s][a, b] += sign * h
                sides.append(observed(core, factors))
            assert np.allclose(jac[:, p], (sides[0] - sides[1]) / (2 * h), rtol=1e-9, atol=1e-9)


def unreduced_jacobian_mod_p_reference(shape: Shape, spec: RankSpec, coords, seed: int) -> list[list[int]]:
    """Reference: the unreduced Jacobian over GF(p) entry by entry in exact
    Python integers, reduced mod p only at the end."""
    core, factors = probe_point(shape, spec, seed, RANK_PRIME)
    core, factors = core.tolist(), [T.tolist() for T in factors]
    offsets = factor_offsets(shape, spec)
    R = spec.product
    strides = [math.prod(spec.ranks[:s]) for s in range(len(spec.ranks))]
    jac = []
    for x in coords:
        row = [0] * offsets[-1]
        head_row = unfold_row(shape, spec.j, x) - 1
        tail = [v - 1 for v in x[spec.j:]]
        for k in itertools.product(*(range(r) for r in spec.ranks)):
            flat = sum(ki * st for ki, st in zip(k, strides))
            fs = [T[ks][b] for T, ks, b in zip(factors, k, tail)]
            row[head_row * R + flat] += math.prod(fs)
            for s, r in enumerate(spec.ranks):
                row[offsets[s] + tail[s] * r + k[s]] += core[head_row][flat] * math.prod(fs[:s] + fs[s + 1 :])
        jac.append([v % RANK_PRIME for v in row])
    return jac


def prefix_independence_reference(rows) -> list[bool]:
    """Reference: for each row, whether it is independent mod p of the rows
    before it, by plain Gaussian elimination on Python integers."""
    basis: dict[int, list[int]] = {}  # pivot column -> row, 1 at the pivot
    flags = []
    for row in rows:
        row = [int(v) % RANK_PRIME for v in row]
        for pivot, kept in basis.items():
            if row[pivot]:
                f = row[pivot]
                row = [(a - f * b) % RANK_PRIME for a, b in zip(row, kept)]
        pivot = next((c for c, v in enumerate(row) if v), None)
        flags.append(pivot is not None)
        if pivot is not None:
            inv = pow(row[pivot], -1, RANK_PRIME)
            basis[pivot] = [v * inv % RANK_PRIME for v in row]
    return flags


class TestModularJacobian:
    @pytest.mark.parametrize(
        "dims,spec",
        [
            ((5, 4), RankSpec(j=1, ranks=(2,))),
            ((4, 3, 3), RankSpec(j=1, ranks=(2, 2))),
            ((3, 3, 3, 3), RankSpec(j=2, ranks=(2, 2))),
        ],
    )
    def test_matches_python_int_reference(self, dims, spec):
        shape = Shape(dims=dims)
        for pattern in (SamplingPattern.full(dims), sample_pattern(shape, 0.6, seed=4, trial=1)):
            coords = list(pattern.observed)
            for seed in (0, 0x7A57E):
                jac = unreduced_jacobian(shape, spec, coords, seed, RANK_PRIME)
                assert jac.dtype == np.int64
                assert jac.tolist() == unreduced_jacobian_mod_p_reference(shape, spec, coords, seed)

    def test_float_point_unchanged_by_modular_option(self):
        shape = Shape(dims=(4, 3, 3))
        spec = RankSpec(j=1, ranks=(2, 2))
        core, factors = probe_point(shape, spec, 5)
        rng = np.random.default_rng(5)
        assert core.tobytes() == rng.standard_normal(core.shape).tobytes()
        for T in factors:
            assert T.tobytes() == rng.standard_normal(T.shape).tobytes()


class TestPointCache:
    """probe_point reads a residue point from the kept prefix of one stream
    per (seed, modulus), and draws a float point afresh; either way the point
    is one flat draw split into the core and the factors in order."""

    def test_residue_point_drawn_once_and_read_only(self):
        shape, spec = Shape(dims=(4, 3, 3)), RankSpec(j=1, ranks=(2, 2))
        core, factors = probe_point(shape, spec, RANK_POINT_SEED, RANK_PRIME)
        total = core.size + sum(T.size for T in factors)
        flat = np.random.default_rng(RANK_POINT_SEED).integers(RANK_PRIME, size=total)
        assert np.array_equal(np.concatenate([core.ravel(), *(T.ravel() for T in factors)]), flat)

    @pytest.mark.parametrize("large_first", [True, False])
    def test_kept_prefix_equals_a_fresh_draw(self, large_first, monkeypatch):
        """From a reset stream, a large point then a small one, or the
        reverse: each equals a fresh draw of its own size, in new writable
        arrays that share no memory with each other or with the stream."""
        monkeypatch.setattr(geometry, "_RESIDUE_STREAMS", {})
        shapes = [
            (Shape(dims=(6, 5, 4)), RankSpec(j=1, ranks=(3, 2))),
            (Shape(dims=(3, 3, 3)), RankSpec(j=2, ranks=(2,))),
        ]
        arrays, totals = [], []
        for shape, spec in shapes if large_first else shapes[::-1]:
            core, factors = probe_point(shape, spec, RANK_POINT_SEED, RANK_PRIME)
            blocks = [core, *factors]
            total = sum(b.size for b in blocks)
            totals.append(total)
            flat = np.random.default_rng(RANK_POINT_SEED).integers(RANK_PRIME, size=total)
            assert np.array_equal(np.concatenate([b.ravel() for b in blocks]), flat)
            assert all(b.flags.writeable for b in blocks)
            arrays += blocks
        (kept,) = geometry._RESIDUE_STREAMS.values()
        assert kept.size == max(totals) and not kept.flags.writeable
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations([kept, *arrays], 2))

    def test_generated_instances_are_fresh_and_writable(self):
        shape, spec = Shape(dims=(4, 3, 3)), RankSpec(j=1, ranks=(2, 2))
        a, b = (generate_instance(shape, spec, seed=11) for _ in range(2))
        for x, y in zip((a.core_mat, *a.factors), (b.core_mat, *b.factors)):
            assert x.flags.writeable and y.flags.writeable
            assert not np.shares_memory(x, y)
            assert np.array_equal(x, y)


def dependent_rich_rows(rng: np.random.Generator, count: int, width: int, spread: int = 6) -> np.ndarray:
    """Random residues with zero rows, repeated rows and combinations of
    earlier rows mixed in, each kind at rate 1/spread."""
    rows = rng.integers(RANK_PRIME, size=(count, width))
    for i in range(1, count):
        kind = rng.integers(spread)
        if kind == 0:
            rows[i] = 0
        elif kind == 1:
            rows[i] = rows[rng.integers(i)]
        elif kind == 2:
            a, b = rng.integers(i, size=2)
            x, y = (int(v) for v in rng.integers(RANK_PRIME, size=2))
            rows[i] = [(x * int(u) + y * int(v)) % RANK_PRIME for u, v in zip(rows[a], rows[b])]
    return rows


class TestModEchelon:
    @pytest.mark.parametrize("count,width,spread", [(12, 5, 6), (30, 9, 6), (40, 48, 6), (190, 150, 12)])
    def test_push_matches_python_int_elimination(self, count, width, spread):
        rows = dependent_rich_rows(np.random.default_rng(count), count, width, spread)
        expected = prefix_independence_reference(rows)
        assert True in expected and False in expected
        echelon = ModEchelon(width)
        assert [echelon.push(row) for row in rows] == expected
        assert echelon.rank == sum(expected)
        assert echelon.dependent == count - sum(expected)

    def test_rank_beyond_one_int64_chunk(self):
        rows = dependent_rich_rows(np.random.default_rng(190), 190, 150, 12)
        rank = sum(prefix_independence_reference(rows))
        assert rank > 128
        assert reaches_rank_mod_p(rows, rank)
        assert not reaches_rank_mod_p(rows, rank + 1)

    def test_sums_stay_exact_past_one_int64_chunk(self):
        """Rows e_i + (p - 1) in three tail columns, then their sum times
        p - 1: one int64 sum of its 200 products at the pivots would wrap."""
        k = 200
        rows = np.zeros((k + 2, k + 3), np.int64)
        rows[:k, :k] = np.eye(k, dtype=np.int64)
        rows[:k, k:] = RANK_PRIME - 1
        rows[k:, :k] = RANK_PRIME - 1
        rows[k:, k:] = k * (RANK_PRIME - 1) ** 2 % RANK_PRIME
        rows[k + 1, -1] += 1
        expected = [True] * k + [False, True]
        assert prefix_independence_reference(rows) == expected
        echelon = ModEchelon(k + 3)
        assert [echelon.push(row) for row in rows] == expected

    @pytest.mark.parametrize("count,width,spread", [(30, 9, 6), (60, 48, 6), (190, 150, 12)])
    def test_pop_restores_every_depth(self, count, width, spread):
        rng = np.random.default_rng(width)
        rows = dependent_rich_rows(rng, count, width, spread)
        expected = prefix_independence_reference(rows)
        echelon = ModEchelon(width)
        for row in rows:
            echelon.push(row)
        for depth in sorted(rng.choice(count, size=4, replace=False), reverse=True):
            while len(echelon._pushed) > depth:
                echelon.pop()
            assert echelon.rank == sum(expected[:depth])
            assert [echelon.push(row) for row in rows[depth:]] == expected[depth:]

    def test_random_push_pop_walk(self):
        rng = np.random.default_rng(11)
        pool = dependent_rich_rows(rng, 40, 12)
        echelon = ModEchelon(12)
        stack: list[np.ndarray] = []
        for _ in range(300):
            if stack and rng.random() < 0.45:
                echelon.pop()
                stack.pop()
            else:
                row = pool[rng.integers(len(pool))]
                stack.append(row)
                assert echelon.push(row) == prefix_independence_reference(stack)[-1]
            assert echelon.rank == sum(prefix_independence_reference(stack))

    @pytest.mark.parametrize("count,block,width", [(30, 4, 9), (60, 20, 28), (190, 100, 150)])
    def test_block_pivot_marks_independent_block_parts(self, count, block, width):
        """A row's pivot lands in the block exactly when its block part is
        independent of the earlier rows' block parts, and whether the row
        itself is independent does not depend on the block."""
        rng = np.random.default_rng(count)
        head, tail = dependent_rich_rows(rng, count, block), dependent_rich_rows(rng, count, width - block)
        rows = np.concatenate([head, tail], axis=1)
        expected = zip(prefix_independence_reference(rows), prefix_independence_reference(tail))
        echelon = ModEchelon(width, block)
        outcomes = set()
        for row, (independent, block_independent) in zip(rows, expected):
            block_rank = echelon.block_rank
            assert echelon.push(row) == independent
            assert (echelon.block_rank > block_rank) == block_independent
            outcomes.add((independent, block_independent))
        assert outcomes == {(True, True), (True, False), (False, False)}

    def test_pop_and_clear_restore_block_rank(self):
        rng = np.random.default_rng(7)
        rows = np.concatenate([dependent_rich_rows(rng, 40, 6), dependent_rich_rows(rng, 40, 8)], axis=1)
        echelon = ModEchelon(14, 6)
        pushed, block_ranks = [], [0]
        for row in rows:
            pushed.append(echelon.push(row))
            block_ranks.append(echelon.block_rank)
        for depth in reversed(range(len(rows))):
            echelon.pop()
            assert echelon.block_rank == block_ranks[depth]
        assert echelon.rank == 0 and [echelon.push(row) for row in rows] == pushed
        echelon.clear()
        assert (echelon.rank, echelon.block_rank, echelon.dependent) == (0, 0, 0)
        assert [echelon.push(row) for row in rows] == pushed and echelon.block_rank == block_ranks[-1]

    def test_reaches_rank_on_short_and_empty_input(self):
        rows = np.random.default_rng(3).integers(RANK_PRIME, size=(4, 6))
        assert reaches_rank_mod_p(rows, 4)
        assert not reaches_rank_mod_p(rows, 5)
        assert reaches_rank_mod_p(rows[:0], 0)
