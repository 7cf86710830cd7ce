"""Rank bookkeeping: dimension counts, the g-function, gauge block layout,
and the observation-Jacobian kernel."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tensorcert.core import SamplingPattern, Shape, unfold_row
from tensorcert.geometry import (
    RankSpec,
    canonical_structure,
    core_dim,
    factor_offsets,
    manifold_dim,
    probe_point,
    unreduced_jacobian,
)
from tensorcert.montecarlo import sample_pattern
from tensorcert.oracle import realize

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
