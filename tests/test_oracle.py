"""Generic instances, Jacobian rank reports, and completion enumeration."""
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from tensorcert.core import SamplingPattern, Shape
from tensorcert.geometry import RankSpec, canonical_structure, core_dim
from tensorcert.montecarlo import sample_pattern
from tensorcert.oracle import (
    MODES,
    _ParamMap,
    appendix_c_closed_form,
    appendix_c_pattern,
    enumerate_completions,
    generate_instance,
    jacobian_rank,
    realize,
    section_iib_closed_form,
    section_iib_pattern,
    section_iib_values,
)


class TestGenerateInstance:
    def test_identity_blocks_enforced(self):
        shape = Shape(dims=(4, 2, 2))
        spec = RankSpec(j=1, ranks=(2, 2))
        inst = generate_instance(shape, spec, seed=3)
        structure = canonical_structure(shape, spec)
        strides = (1, 2)
        for block in structure.blocks:
            for a, row in enumerate(block.rows):
                for b, col in enumerate(block.cols):
                    flat = sum((c - 1) * s for c, s in zip(col, strides))
                    assert inst.core_mat[row - 1, flat] == (1.0 if a == b else 0.0)

    def test_deterministic_in_seed(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        a = generate_instance(shape, spec, seed=9)
        b = generate_instance(shape, spec, seed=9)
        assert np.array_equal(a.core_mat, b.core_mat)
        assert all(np.array_equal(x, y) for x, y in zip(a.factors, b.factors))

    def test_rank_exceeding_dimension_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(Shape(dims=(3, 2, 2)), RankSpec(j=1, ranks=(3, 1)))

    def test_row_budget_violation_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(Shape(dims=(2, 3, 3)), RankSpec(j=1, ranks=(1, 2)))

    def test_realized_tensor_has_prescribed_ranks(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        tensor = generate_instance(shape, spec, seed=4).tensor
        assert tensor.shape == (3, 3, 3)
        # mode-2 and mode-3 matricization ranks equal the trailing ranks
        m2 = np.moveaxis(tensor, 1, 0).reshape(3, -1)
        m3 = np.moveaxis(tensor, 2, 0).reshape(3, -1)
        assert np.linalg.matrix_rank(m2, tol=1e-10) == 1
        assert np.linalg.matrix_rank(m3, tol=1e-10) == 2


class TestRealize:
    def test_matches_direct_contraction(self):
        shape = Shape(dims=(2, 3, 2, 2))
        spec = RankSpec(j=2, ranks=(2, 2))
        rng = np.random.default_rng(11)
        core_mat = rng.standard_normal((6, 4))
        factors = [rng.standard_normal((2, 2)), rng.standard_normal((2, 2))]
        out = realize(shape, spec, core_mat, factors)
        core = core_mat.reshape((2, 3, 2, 2), order="F")
        expected = np.einsum("abkl,kc,ld->abcd", core, factors[0], factors[1])
        assert np.allclose(out, expected)


KERNEL_CASES = [
    ((5, 4), RankSpec(j=1, ranks=(2,))),
    ((4, 3, 3), RankSpec(j=1, ranks=(2, 2))),
    ((3, 3, 3, 3), RankSpec(j=2, ranks=(2, 2))),
]


class TestParamMapKernel:
    """The observation kernel against the contraction it differentiates."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dims,spec", KERNEL_CASES)
    def test_values_match_realize_and_jacobian_matches_differences(self, dims, spec, mode):
        shape = Shape(dims=dims)
        pmap = _ParamMap(generate_instance(shape, spec, seed=5), mode)
        coords = list(SamplingPattern.full(dims).observed)
        entries = pmap.index_entries(coords)
        theta = np.random.default_rng(17).standard_normal(pmap.num_params)
        values, jac = pmap.values_and_jacobian(theta, entries)

        tensor = realize(shape, spec, *pmap.materialize(theta))
        expected = np.array([tensor[tuple(v - 1 for v in c)] for c in coords])
        assert np.allclose(values, expected, rtol=1e-12, atol=1e-12)

        # each value is affine in every single parameter, so central
        # differences are exact up to rounding
        h = 1e-3
        assert jac.shape == (len(coords), pmap.num_params)
        for p in range(pmap.num_params):
            step = np.zeros(pmap.num_params)
            step[p] = h
            plus, _ = pmap.values_and_jacobian(theta + step, entries)
            minus, _ = pmap.values_and_jacobian(theta - step, entries)
            assert np.allclose(jac[:, p], (plus - minus) / (2 * h), rtol=1e-9, atol=1e-9)


class TestJacobianRank:
    def test_unknown_counts_per_mode(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        inst = generate_instance(shape, spec, seed=0)
        pattern = SamplingPattern.full((3, 3, 3))
        n_core = core_dim(shape, spec)
        n_fac = 3 * 1 + 3 * 2
        residual = len(spec.ranks) - 1
        assert (
            jacobian_rank(inst, pattern, mode="coreAndFactors").num_unknowns
            == n_core + n_fac
        )
        assert (
            jacobian_rank(inst, pattern, mode="factorsOnly").num_unknowns
            == n_fac - residual
        )
        assert (
            jacobian_rank(inst, pattern, mode="coreOnly").num_unknowns
            == n_core + residual
        )

    def test_full_observation_is_finite_in_every_mode(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        inst = generate_instance(shape, spec, seed=1)
        pattern = SamplingPattern.full((3, 3, 3))
        for mode in ("coreAndFactors", "factorsOnly", "coreOnly"):
            report = jacobian_rank(inst, pattern, mode=mode)
            assert report.verdict == "finite"
            assert report.numerical_rank == report.num_unknowns

    def test_underdetermined_pattern_is_infinite(self):
        shape = Shape(dims=(3, 3, 3))
        spec = RankSpec(j=1, ranks=(1, 2))
        inst = generate_instance(shape, spec, seed=1)
        pattern = SamplingPattern.from_coords((3, 3, 3), [(1, 1, 1), (2, 2, 2)])
        report = jacobian_rank(inst, pattern, mode="coreAndFactors")
        assert report.verdict == "infinite"
        assert report.num_polynomials == 2

    def test_mismatched_shape_rejected(self):
        inst = generate_instance(Shape(dims=(3, 3, 3)), RankSpec(j=1, ranks=(1, 2)))
        with pytest.raises(ValueError):
            jacobian_rank(inst, SamplingPattern.full((2, 2, 2)))

    def test_unknown_mode_rejected(self):
        inst = generate_instance(Shape(dims=(3, 3, 3)), RankSpec(j=1, ranks=(1, 2)))
        with pytest.raises(ValueError):
            jacobian_rank(inst, SamplingPattern.full((3, 3, 3)), mode="bogus")

    def test_report_serializes(self):
        inst = generate_instance(Shape(dims=(3, 3, 3)), RankSpec(j=1, ranks=(1, 2)))
        report = jacobian_rank(inst, SamplingPattern.full((3, 3, 3)))
        payload = report.to_dict()
        assert payload["verdict"] == "finite"
        assert payload["numericalRank"] == payload["numUnknowns"]


class TestTwoCompletionInstance:
    def test_closed_form_roots(self):
        roots, completions = appendix_c_closed_form()
        assert roots == (Fraction(-2), Fraction(-21, 32))
        assert len(completions) == 2

    def test_completions_are_rank_two_and_fit_observations(self):
        pattern, values = appendix_c_pattern()
        _roots, completions = appendix_c_closed_form()
        for matrix in completions:
            arr = np.array([[float(v) for v in row] for row in matrix])
            assert np.linalg.matrix_rank(arr, tol=1e-9) == 2
            for (i, k), v in values.items():
                assert matrix[i - 1][k - 1] == v  # exact rational agreement

    def test_enumerator_finds_both(self):
        pattern, values = appendix_c_pattern()
        spec = RankSpec(j=1, ranks=(2,))
        result = enumerate_completions(
            pattern, {c: float(v) for c, v in values.items()}, spec, starts=32, seed=0
        )
        assert result.num_clusters == 2
        _roots, completions = appendix_c_closed_form()
        exact = [
            np.array([[float(v) for v in row] for row in m]) for m in completions
        ]
        for found in result.completions:
            assert any(np.allclose(found, e, atol=1e-6) for e in exact)


class TestUniqueCompletionInstance:
    def test_closed_form_product_rule(self):
        vals = section_iib_values()
        full = section_iib_closed_form()
        base = vals[(1, 1, 1)]
        assert full[1, 1, 1] == pytest.approx(
            vals[(2, 1, 1)] * vals[(1, 2, 1)] * vals[(1, 1, 2)] / base**2, rel=1e-12
        )

    def test_closed_form_is_rank_one_everywhere(self):
        full = section_iib_closed_form()
        for axis in range(3):
            mat = np.moveaxis(full, axis, 0).reshape(2, -1)
            assert np.linalg.matrix_rank(mat, tol=1e-10) == 1

    def test_enumerator_agrees(self):
        pattern = section_iib_pattern()
        spec = RankSpec(j=1, ranks=(1, 1))
        result = enumerate_completions(
            pattern, section_iib_values(), spec, starts=16, seed=0
        )
        assert result.num_clusters == 1
        assert np.allclose(result.completions[0], section_iib_closed_form(), atol=1e-9)

    def test_zero_anchor_rejected(self):
        with pytest.raises(ValueError):
            section_iib_closed_form({(1, 1, 1): 0.0, (2, 1, 1): 1.0, (1, 2, 1): 1.0, (1, 1, 2): 1.0})

    def test_values_must_cover_pattern(self):
        pattern = section_iib_pattern()
        spec = RankSpec(j=1, ranks=(1, 1))
        with pytest.raises(ValueError):
            enumerate_completions(pattern, {(1, 1, 1): 2.0}, spec)


# Sweep draws (dims, j, ranks, p, trials) of the certifier/oracle sweep.
DIGEST_DRAWS = [
    ((3, 3, 3), 1, (1, 2), 0.75, (0, 1)),
    ((3, 3, 3), 2, (2,), 0.65, (0, 1)),
    ((4, 4, 4), 1, (2, 2), 0.80, (0,)),
    ((3, 3, 3, 3), 1, (1, 1, 1), 0.45, (0,)),
    ((3, 3, 3, 3), 2, (2, 2), 0.85, (0,)),
]
# SHA-256 over the rank reports (sorted-key JSON of to_dict(), every mode)
# of the draws above, then the converged count, completions and residuals
# of both worked examples' enumerations at seeds 0 and 3.
ORACLE_DIGEST = "baa521dc4aa1c94e8323d3dcfd7501081789c95fc28d6b56cde45fc8681fb34a"


def test_oracle_outputs_pinned():
    """Rank reports and enumerations are pinned bit for bit, so a change to
    the parameter layout or the kernel that moves any of them fails here."""
    digest = hashlib.sha256()
    for dims, j, ranks, p, trials in DIGEST_DRAWS:
        shape = Shape(dims=dims)
        spec = RankSpec(j=j, ranks=ranks)
        instance = generate_instance(shape, spec, seed=11)
        for trial in trials:
            pattern = sample_pattern(shape, p, seed=5, trial=trial)
            for mode in MODES:
                report = jacobian_rank(instance, pattern, mode=mode)
                digest.update((json.dumps(report.to_dict(), sort_keys=True) + "\n").encode())
    matrix, matrix_values = appendix_c_pattern()
    examples = [
        (matrix, {c: float(v) for c, v in matrix_values.items()}, RankSpec(j=1, ranks=(2,))),
        (section_iib_pattern(), section_iib_values(), RankSpec(j=1, ranks=(1, 1))),
    ]
    for pattern, values, spec in examples:
        for seed in (0, 3):
            result = enumerate_completions(pattern, values, spec, starts=12, seed=seed)
            digest.update(f"{result.converged} {[repr(r) for r in result.residuals]}\n".encode())
            for completion in result.completions:
                digest.update(completion.tobytes())
    assert digest.hexdigest() == ORACLE_DIGEST
