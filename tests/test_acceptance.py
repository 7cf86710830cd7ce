"""End-to-end acceptance suite.

Each test pins one headline guarantee of the package: exact reproduction of
the built-in worked examples, certifier/oracle equivalence sweeps, exhaustive
verification of the counting function, the bipartite subgraph constructions,
threshold-curve validity cuts, Monte Carlo bound sanity, and byte-level CLI
determinism.  Stated wall-clock budgets are asserted directly.
"""
import collections
import copy
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from tensorcert import assumptions, certifier
from tensorcert.assumptions import (
    AssumptionError,
    TSelection,
    _greedy_candidate,
    _seed_order,
    check_Aj,
    check_Aj_plus,
    find_T_selection,
)
from tensorcert.bounds import CurveConfig, emit_curves
from tensorcert.certifier import certify_finite, certify_unique, subpro_consistency, verify_finite_witness
from tensorcert.cli import EXIT_OK, main
from tensorcert.constraint import ConstraintColumn, ConstraintMatrix, build_constraint
from tensorcert.core import SamplingPattern, Shape, unfold_row, write_pattern
from tensorcert.geometry import (
    RANK_POINT_SEED,
    RANK_PRIME,
    ModEchelon,
    RankSpec,
    canonical_structure,
    pattern_index,
    reaches_rank_mod_p,
    unreduced_jacobian,
)
from tensorcert.hallgraph import (
    BipartiteGraph,
    HallPreconditionError,
    defect_at_least,
    expansion_defect,
    generalized_hall_subgraph,
    lemma_match_subgraph,
    max_matching,
)
from tensorcert.montecarlo import (
    TrialConfig,
    estimate,
    sample_pattern,
    wilson_interval,
)
from tensorcert.oracle import (
    appendix_c_closed_form,
    appendix_c_pattern,
    enumerate_completions,
    generate_instance,
    jacobian_rank,
    section_iib_closed_form,
    section_iib_pattern,
    section_iib_values,
)


class Budget:
    """Context manager asserting a wall-clock budget in seconds."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, f"{elapsed:.1f}s over {self.seconds}s budget"


def test_two_completion_matrix_reproduction(capsys):
    """A 5x4 rank-2 matrix with eight observations has exactly two
    completions, given in closed form by the roots of a quadratic."""
    with Budget(5.0):
        roots, closed = appendix_c_closed_form()
        assert set(roots) == {Fraction(-2), Fraction(-21, 32)}
        assert len(closed) == 2
        exact = [np.array([[float(v) for v in row] for row in m]) for m in closed]
        for arr in exact:
            assert np.linalg.matrix_rank(arr, tol=1e-9) == 2

        pattern, values = appendix_c_pattern()
        result = enumerate_completions(
            pattern,
            {c: float(v) for c, v in values.items()},
            RankSpec(j=1, ranks=(2,)),
            starts=32,
            seed=0,
        )
        assert result.num_clusters == 2
        for found in result.completions:
            assert any(np.abs(found - e).max() < 1e-9 for e in exact)

        assert main(["paper-examples", "--starts", "24"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("PASS") == 5


def test_unique_cube_reproduction_and_matricization_argument():
    """Four observed entries of a (2,2,2) rank-(1,1,1) tensor force a unique
    completion with product closed forms; any single rank-1 matricization
    constraint alone leaves multiple completions."""
    with Budget(5.0):
        values = section_iib_values()
        full = section_iib_closed_form(values)
        base = values[(1, 1, 1)]
        assert full[1, 1, 1] == pytest.approx(
            values[(2, 1, 1)] * values[(1, 2, 1)] * values[(1, 1, 2)] / base**2,
            abs=1e-10,
        )
        result = enumerate_completions(
            section_iib_pattern(), values, RankSpec(j=1, ranks=(1, 1)), starts=24, seed=0
        )
        assert result.num_clusters == 1
        assert np.abs(result.completions[0] - full).max() < 1e-10

        # single-matricization argument: impose rank 1 on one mode-i
        # matricization only (a 2x4 rank-1 matrix completion problem with the
        # same four observations) and observe >= 2 distinct completions.
        for axis in range(3):
            coords = {}
            for c, v in values.items():
                rest = tuple(x for i, x in enumerate(c) if i != axis)
                col = (rest[0] - 1) + 2 * (rest[1] - 1) + 1
                coords[(c[axis], col)] = v
            mat_pattern = SamplingPattern.from_coords((2, 4), list(coords))
            mat_result = enumerate_completions(
                mat_pattern, coords, RankSpec(j=1, ranks=(1,)), starts=24, seed=0
            )
            assert mat_result.num_clusters >= 2


SWEEP_CONFIGS = [
    ((3, 3, 3), 1, (1, 2), 0.75),
    ((3, 3, 3), 1, (1, 2), 0.60),
    ((3, 3, 3), 1, (1, 1), 0.50),
    ((3, 3, 3), 2, (2,), 0.50),
    ((3, 3, 3), 2, (2,), 0.65),
    ((4, 4, 4), 1, (2, 2), 0.80),
    ((3, 3, 3, 3), 1, (1, 1, 1), 0.45),
    ((3, 3, 3, 3), 2, (2, 2), 0.85),
]


def test_certifier_oracle_equivalence_sweep():
    """The certifier decides 200 random patterns across third- and
    fourth-order shapes, and its verdicts match the generic-rank oracle."""
    with Budget(600.0):
        total = agreed = 0
        for dims, j, ranks, p in SWEEP_CONFIGS:
            shape = Shape(dims=dims)
            spec = RankSpec(j=j, ranks=ranks)
            instance = generate_instance(shape, spec, seed=11)
            valid = 0
            trial = 0
            while valid < 25 and trial < 40:
                pattern = sample_pattern(shape, p, seed=5, trial=trial)
                trial += 1
                try:
                    cert = certify_finite(pattern, spec, seed=3)
                except AssumptionError:
                    continue  # certificate preconditions unmet; not a verdict
                valid += 1
                total += 1
                assert cert.verdict in ("finite", "not-finite")
                report = jacobian_rank(instance, pattern, mode="coreAndFactors")
                assert report.tolerance == 1e-8
                expected = "finite" if cert.verdict == "finite" else "infinite"
                agreed += report.verdict == expected
            assert valid == 25, f"too few valid patterns for {dims} j={j} {ranks}"
        assert total >= 200
        assert agreed == total, "certifier disagrees with the oracle"


# Per sweep config, over all 40 draws: "finite" verdicts (with a witness,
# without one).  The witness-less ones are decided by the full pattern's rank.
SWEEP_WITNESS_COVERAGE = [(36, 3), (25, 11), (23, 16), (0, 0), (0, 0), (40, 0), (40, 0), (38, 0)]
# SHA-256 over the sweep's 320 certificates (sorted-key JSON of to_dict())
# and refusals (class and text), one line each in sweep order.
SWEEP_CERTIFICATE_DIGEST = "efe768eb163d11f31c520d84fa0a309a30cccd157d197c080c66f72f07462ed9"


def test_sweep_witness_coverage_and_replay():
    """Every witness of the sweep's "finite" verdicts replays, and the count
    of witnessed and witness-less "finite" verdicts per config is pinned, so
    a change that loses a witness fails here.  One digest of every
    certificate and refusal pins them byte for byte."""
    with Budget(60.0):
        coverage = []
        digest = hashlib.sha256()
        for dims, j, ranks, p in SWEEP_CONFIGS:
            shape = Shape(dims=dims)
            spec = RankSpec(j=j, ranks=ranks)
            witnessed = witnessless = 0
            for trial in range(40):
                pattern = sample_pattern(shape, p, seed=5, trial=trial)
                try:
                    cert = certify_finite(pattern, spec, seed=3)
                except AssumptionError as exc:
                    digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                    continue
                digest.update((json.dumps(cert.to_dict(), sort_keys=True) + "\n").encode())
                if cert.verdict != "finite":
                    continue
                if cert.witness_columns is None:
                    witnessless += 1
                    continue
                assert verify_finite_witness(pattern, spec, cert), (dims, j, ranks, trial)
                witnessed += 1
            coverage.append((witnessed, witnessless))
        assert coverage == SWEEP_WITNESS_COVERAGE
        assert digest.hexdigest() == SWEEP_CERTIFICATE_DIGEST


def test_continued_rank_equals_the_full_rank(monkeypatch):
    """Over the sweep's 320 draws, each rank probe continues the echelon of
    its first selection, which the witness search left holding exactly the
    selection's rows, and decides as the rank of the whole index Jacobian
    does.  Some first selections' rows are dependent (13 of them in config
    6); the target is reached and missed both from such selections and
    from independent ones."""
    real_probe = certifier.generic_rank_finite
    outcomes = collections.Counter()

    def checking_probe(pattern, spec, start):
        selection, echelon = start
        index = pattern_index(pattern, spec)
        designated = index.jacobian[[index.position[c] for c in selection.entries]]
        fresh = ModEchelon(designated.shape[1])
        for row in designated:
            fresh.push(row)
        assert (echelon.rank, echelon.dependent) == (fresh.rank, fresh.dependent)
        clone = copy.deepcopy(echelon)
        assert not any(clone.push(row) for row in designated)
        dependent = echelon.dependent > 0
        reached = real_probe(pattern, spec, start)
        assert reached == reaches_rank_mod_p(index.jacobian, certifier._rank_target(pattern.shape, spec))
        outcomes[spec.ranks, dependent, reached] += 1
        return reached

    monkeypatch.setattr(certifier, "generic_rank_finite", checking_probe)
    for dims, j, ranks, p in SWEEP_CONFIGS:
        shape = Shape(dims=dims)
        spec = RankSpec(j=j, ranks=ranks)
        for trial in range(40):
            try:
                certify_finite(sample_pattern(shape, p, seed=5, trial=trial), spec, seed=3)
            except AssumptionError:
                continue
    assert {(dependent, reached) for _, dependent, reached in outcomes} == {
        (False, False), (False, True), (True, False), (True, True)
    }
    assert outcomes[(1, 1, 1), True, True] == 13  # config 6
    assert sum(outcomes.values()) == 113


def test_dependence_subset_built_only_when_reported(monkeypatch):
    """Over the sweep's 320 draws, thm4_dependent runs once for each
    "not-finite" certificate that reports its result (one with no reason)
    and for no other certificate."""
    calls = []
    real_dependent = certifier.thm4_dependent

    def counting_dependent(*args, **kwargs):
        calls.append(args)
        return real_dependent(*args, **kwargs)

    monkeypatch.setattr(certifier, "thm4_dependent", counting_dependent)
    reported = 0
    for dims, j, ranks, p in SWEEP_CONFIGS:
        shape = Shape(dims=dims)
        spec = RankSpec(j=j, ranks=ranks)
        for trial in range(40):
            pattern = sample_pattern(shape, p, seed=5, trial=trial)
            before = len(calls)
            try:
                cert = certify_finite(pattern, spec, seed=3)
            except AssumptionError:
                assert len(calls) == before
                continue
            reports = cert.verdict == "not-finite" and not cert.reason
            assert len(calls) - before == reports, (dims, j, ranks, trial)
            reported += reports
    assert len(calls) == reported == 12


# SHA-256 over certify_unique's certificates and refusals at seed 3 on all 40
# draws of sweep configs 0-6, in the line format of SWEEP_CERTIFICATE_DIGEST.
# Config 7 takes seconds per pattern here (the second-witness search).
UNIQUE_CERTIFICATE_DIGEST = "8c99d9bd19f9db6b4f616cdd0325a3bba085a2eec7155dd7512b8f8f35ac60c1"


def test_unique_certificates_pinned():
    """Every check-unique certificate and refusal of the first seven sweep
    configs, byte for byte."""
    with Budget(30.0):
        digest = hashlib.sha256()
        for dims, j, ranks, p in SWEEP_CONFIGS[:7]:
            shape = Shape(dims=dims)
            spec = RankSpec(j=j, ranks=ranks)
            for trial in range(40):
                pattern = sample_pattern(shape, p, seed=5, trial=trial)
                try:
                    cert = certify_unique(pattern, spec, seed=3)
                except AssumptionError as exc:
                    digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                    continue
                digest.update((json.dumps(cert.to_dict(), sort_keys=True) + "\n").encode())
        assert digest.hexdigest() == UNIQUE_CERTIFICATE_DIGEST


@pytest.mark.parametrize("config", [0, 5, 6])
def test_unique_verdicts_are_sound(config):
    """The first "unique" certificate of a sweep config (pattern seed 5,
    certificate seed 3) is borne out numerically: given the entries of a
    generic instance drawn at another seed, 48 least-squares starts find one
    completion, the generating tensor."""
    dims, j, ranks, p = SWEEP_CONFIGS[config]
    shape, spec = Shape(dims=dims), RankSpec(j=j, ranks=ranks)
    for trial in range(40):
        pattern = sample_pattern(shape, p, seed=5, trial=trial)
        try:
            if certify_unique(pattern, spec, seed=3).verdict == "unique":
                break
        except AssumptionError:
            continue
    else:
        pytest.fail(f"no unique verdict in config {config}")
    instance = generate_instance(shape, spec, seed=11)
    values = {c: float(instance.tensor[tuple(i - 1 for i in c)]) for c in pattern.observed}
    with Budget(10.0):
        result = enumerate_completions(pattern, values, spec, starts=48, seed=0)
    assert result.converged >= 1 and result.num_clusters == 1, (trial, result.converged, result.num_clusters)
    assert np.abs(result.completions[0] - instance.tensor).max() < 1e-6 * (1 + np.abs(instance.tensor).max())


def test_selection_admissibility_matches_rank_oracle():
    """The designated-selection admissibility check agrees with a
    factors-only generic-rank oracle on 200 random selections."""
    cases = [
        ((3, 3, 3), RankSpec(j=1, ranks=(1, 1))),
        ((3, 3, 3), RankSpec(j=1, ranks=(1, 2))),
        ((3, 3, 3), RankSpec(j=2, ranks=(2,))),
        ((4, 3, 3), RankSpec(j=1, ranks=(2, 2))),
        ((3, 3, 3, 3), RankSpec(j=1, ranks=(1, 1, 1))),
    ]
    rng = random.Random(2024)
    checked = 0
    for dims, spec in cases:
        shape = Shape(dims=dims)
        pattern = SamplingPattern.full(dims)
        coords = list(shape.coords())
        size = sum(n * r for n, r in zip(spec.tail_dims(shape), spec.ranks))
        for _ in range(40):
            entries = tuple(sorted(rng.sample(coords, size)))
            ok, _ = check_Aj(pattern, spec, TSelection(entries=entries, mode="A"))
            sel_pattern = SamplingPattern.from_coords(dims, entries)
            pins = any(
                jacobian_rank(
                    generate_instance(shape, spec, seed=seed),
                    sel_pattern,
                    mode="factorsOnly",
                ).verdict
                == "finite"
                for seed in (3, 17)
            )
            assert ok == pins
            checked += 1
    assert checked >= 200


def per_entry_constraint(pattern: SamplingPattern, spec: RankSpec, selection: TSelection) -> ConstraintMatrix:
    """Reference: the constraint matrix built entry by entry, converting each
    coordinate to its unfolding row and grouping the entries by tail."""
    shape, j = pattern.shape, spec.j
    designated = set(selection.entries)
    by_tail: dict = {}
    for coord in pattern.observed:
        by_tail.setdefault(coord[j:], []).append(coord)
    columns = []
    for tail in sorted(by_tail):
        entries = by_tail[tail]
        designated_rows = frozenset(unfold_row(shape, j, c) for c in entries if c in designated)
        for coord in sorted(entries):
            if coord not in designated:
                columns.append(
                    ConstraintColumn(base=tail, designated_rows=designated_rows, free_row=unfold_row(shape, j, coord))
                )
    return ConstraintMatrix(num_rows=shape.head_size(j), columns=tuple(columns), j=j, head_dims=shape.dims[:j])


def test_index_built_constraint_matches_per_entry_construction():
    """On all 320 sweep patterns, with a seeded designated subset of each,
    and on the A and A+ selections of the first three draws of each config,
    the constraint matrix read from the pattern's index equals the one built
    entry by entry, column by column."""
    selections = 0
    for ci, (dims, j, ranks, p) in enumerate(SWEEP_CONFIGS):
        shape = Shape(dims=dims)
        spec = RankSpec(j=j, ranks=ranks)
        for trial in range(40):
            pattern = sample_pattern(shape, p, seed=5, trial=trial)
            rng = random.Random(f"{ci}-{trial}")
            cases = [TSelection(entries=rng.sample(pattern.observed, rng.randint(0, pattern.num_observed)), mode="A")]
            for mode in ("A", "A+") if trial < 3 else ():
                try:
                    cases.append(find_T_selection(pattern, spec, mode=mode, seed=3))
                except AssumptionError:
                    continue
                selections += 1
            for selection in cases:
                built, reference = build_constraint(pattern, spec, selection), per_entry_constraint(pattern, spec, selection)
                assert built.num_columns == reference.num_columns, (dims, j, ranks, trial)
                for z, (ours, ref) in enumerate(zip(built.columns, reference.columns)):
                    assert ours == ref, (dims, j, ranks, trial, z)
                assert built == reference
    assert selections >= 30


@pytest.mark.parametrize("mode", ["A", "A+"])
def test_selection_search_agrees_with_a_fresh_jacobian(mode):
    """On the first five draws of each sweep config, the selection search
    reads its rows from the pattern index's Jacobian; they are the rows of a
    Jacobian built for the selection alone, and the standalone admissibility
    check, which builds its own, passes the selection."""
    checker = check_Aj_plus if mode == "A+" else check_Aj
    found = 0
    for dims, j, ranks, p in SWEEP_CONFIGS:
        shape = Shape(dims=dims)
        spec = RankSpec(j=j, ranks=ranks)
        for trial in range(5):
            pattern = sample_pattern(shape, p, seed=5, trial=trial)
            try:
                selection = find_T_selection(pattern, spec, mode=mode, seed=3)
            except AssumptionError:
                continue
            index = pattern_index(pattern, spec)
            fresh = unreduced_jacobian(shape, spec, list(selection.entries), RANK_POINT_SEED, RANK_PRIME)
            assert np.array_equal(index.jacobian[[index.position[c] for c in selection.entries]], fresh)
            assert checker(pattern, spec, selection) == (True, None), (dims, j, ranks, trial)
            found += 1
    assert found >= 35


@pytest.mark.parametrize("mode", ["A", "A+"])
def test_pinning_greedy_candidate_kept(mode):
    """On the first five draws of each sweep config, whenever the greedy
    candidate in the seed's order passes the admissibility check, the
    selection search returns exactly that candidate, so the certificates
    built on it stay as they were."""
    checker = check_Aj_plus if mode == "A+" else check_Aj
    kept = repaired = 0
    for dims, j, ranks, p in SWEEP_CONFIGS:
        shape = Shape(dims=dims)
        spec = RankSpec(j=j, ranks=ranks)
        for trial, seed in itertools.product(range(5), (0, 3)):
            pattern = sample_pattern(shape, p, seed=5, trial=trial)
            candidate = _greedy_candidate(pattern, spec, mode == "A+", _seed_order(pattern, seed))
            if candidate is None:
                continue
            selection = TSelection(entries=tuple(pattern.observed[p] for p in candidate), mode=mode)
            if checker(pattern, spec, selection)[0]:
                assert find_T_selection(pattern, spec, mode=mode, seed=seed) == selection, (dims, j, ranks, trial)
                kept += 1
            else:
                repaired += 1
    assert kept >= 50 and repaired


def test_witness_search_starts_from_the_selection_echelon(monkeypatch):
    """On the first ten draws of each sweep config, through certify_finite
    and (configs 0-6) certify_unique, the echelon each witness search starts
    from holds exactly its selection's rows: the rank and the dependent count
    of a fresh push of them, and every one of them dependent on it.  This
    holds both when the selection search keeps its first greedy pick (one
    greedy call) and when it rebuilds the echelon (two)."""
    greedy_calls = []
    real_greedy = assumptions._greedy_candidate

    def counting_greedy(*args):
        greedy_calls[-1] += 1
        return real_greedy(*args)

    real_find = certifier.find_T_selection

    def counting_find(*args, **kwargs):
        greedy_calls.append(0)
        return real_find(*args, **kwargs)

    real_search = certifier._finite_search
    cases = collections.Counter()

    def checking_search(pattern, spec, constraint, selection, echelon):
        index = pattern_index(pattern, spec)
        designated = index.jacobian[[index.position[c] for c in selection.entries]]
        fresh = ModEchelon(designated.shape[1])
        for row in designated:
            fresh.push(row)
        assert (echelon.rank, echelon.dependent) == (fresh.rank, fresh.dependent)
        clone = copy.deepcopy(echelon)
        assert not any(clone.push(row) for row in designated)
        cases[greedy_calls[-1]] += 1
        return real_search(pattern, spec, constraint, selection, echelon)

    monkeypatch.setattr(assumptions, "_greedy_candidate", counting_greedy)
    monkeypatch.setattr(certifier, "find_T_selection", counting_find)
    monkeypatch.setattr(certifier, "_finite_search", checking_search)
    for ci, (dims, j, ranks, p) in enumerate(SWEEP_CONFIGS):
        shape = Shape(dims=dims)
        spec = RankSpec(j=j, ranks=ranks)
        for trial in range(10):
            pattern = sample_pattern(shape, p, seed=5, trial=trial)
            for certify in (certify_finite, certify_unique) if ci < 7 else (certify_finite,):
                try:
                    certify(pattern, spec, seed=3)
                except AssumptionError:
                    continue
    assert cases[1] >= 200 and cases[2] >= 20 and set(cases) == {1, 2}


def test_counting_function_exhaustive():
    """g(x) equals the brute-force maximum known-entry count over all x-row
    subsets, for every rank tuple with component sum <= 8."""
    with Budget(60.0):
        tuples = [
            ranks
            for length in range(1, 9)
            for ranks in itertools.product(range(1, 9), repeat=length)
            if sum(ranks) <= 8
        ]
        assert len(tuples) == 255
        for ranks in tuples:
            spec = RankSpec(j=1, ranks=ranks)
            head = max(spec.sum_ranks, 2)
            shape = Shape(dims=(head,) + ranks)
            structure = canonical_structure(shape, spec)
            per_row: dict[int, int] = {}
            for row, _col, _val in structure.known_entries():
                per_row[row] = per_row.get(row, 0) + 1
            rows = list(range(1, head + 1))
            for x in range(0, head + 2):
                if x <= head:
                    brute = max(
                        sum(per_row.get(r, 0) for r in subset)
                        for subset in itertools.combinations(rows, x)
                    )
                else:
                    brute = sum(per_row.values())
                assert spec.g(x) == brute, (ranks, x)


def brute_defect(g: BipartiteGraph) -> int:
    """Exhaustive minimum of |N(S)| - |S| over all nonempty subsets,
    evaluated on neighborhood bitmasks for speed."""
    masks = [0] * g.size_t1
    for u, nbrs in enumerate(g.adj):
        for v in nbrs:
            masks[u] |= 1 << v
    union = [0] * (1 << g.size_t1)
    best = None
    for subset in range(1, 1 << g.size_t1):
        low = subset & -subset
        union[subset] = union[subset ^ low] | masks[low.bit_length() - 1]
        value = union[subset].bit_count() - subset.bit_count()
        if best is None or value < best:
            best = value
    return best


def test_large_staircase_defect_is_linear():
    """T1 node i of 50,000 sees T2 nodes i+1 and i+2, drawn as one array, so
    the defect is exactly 1 and a clone's alternating path can run the whole
    staircase.  The r = 1 test is linear in the edges whatever that depth:
    all three verdicts take a small fraction of the budget, which a closure
    repeated once per level of depth would exceed many times over."""
    n = 50_000
    g = BipartiteGraph(size_t1=n, size_t2=n + 2, adj=np.arange(2, n + 2)[:, None] + np.arange(2))
    with Budget(5.0):
        assert defect_at_least(g, 0) == (True, None)
        assert defect_at_least(g, 1) == (True, None)
        ok, witness = defect_at_least(g, 2)
    assert not ok
    nbrs = set()
    for u in witness:
        nbrs.update(g.adj[u - 1])
    assert len(nbrs) - len(witness) < 2


def test_complete_graph_defect_in_one_pass():
    """On K(40, 80) the defect is 40: each T1 node's clones are counted
    once, up to the least count so far, on one copy of the base matching.
    Re-running the defect test for r = 1, 2, ... instead grows about tenfold
    with each doubling of n and took 0.3 s at n = 40 on a 2-vCPU VM."""
    n = 40
    g = BipartiteGraph(size_t1=n, size_t2=2 * n, adj=(tuple(range(1, 2 * n + 1)),) * n)
    with Budget(1.0):
        defect, witness = expansion_defect(g)
    assert defect == n
    assert witness == tuple(range(1, n + 1))


def test_large_staircase_exact_defect_is_linear():
    """On the 50,000-node staircase every node takes one clone, found by the
    strong-component pass, and the first node's count of 1 ends the pass:
    counting every node's clone along the staircase would be quadratic."""
    n = 50_000
    g = BipartiteGraph(size_t1=n, size_t2=n + 2, adj=np.arange(2, n + 2)[:, None] + np.arange(2))
    with Budget(5.0):
        defect, witness = expansion_defect(g)
    assert defect == 1
    nbrs = set()
    for u in witness:
        nbrs.update(g.adj[u - 1])
    assert len(nbrs) - len(witness) == 1


def test_subgraph_construction_suite():
    """On 500 random bipartite graphs with sufficient expansion defect the
    degree-(r+1) subgraph construction preserves the defect; the matching
    variant additionally contains a perfect matching into the marked set."""
    with Budget(120.0):
        rng = random.Random(808)
        produced = 0
        while produced < 500:
            r = rng.randint(0, 3)
            n1 = rng.randint(1, 12)
            n2 = n1 + r
            adj = tuple(
                tuple(v for v in range(1, n2 + 1) if rng.random() < 0.8)
                for _ in range(n1)
            )
            g = BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj)
            if brute_defect(g) < r:
                continue
            sub = generalized_hall_subgraph(g, r)
            produced += 1
            for kept, original in zip(sub.adj, g.adj):
                assert len(kept) == r + 1
                assert set(kept) <= set(original)
            assert brute_defect(sub) >= r

        # matching variant on a smaller but still substantial sample
        produced = 0
        while produced < 100:
            r = rng.randint(0, 3)
            n1 = rng.randint(1, 8)
            n2 = n1 + r + rng.randint(0, 2)
            adj = tuple(
                tuple(v for v in range(1, n2 + 1) if rng.random() < 0.85)
                for _ in range(n1)
            )
            g = BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj)
            s0 = tuple(range(1, n1 + 1))
            try:
                sub = lemma_match_subgraph(g, r, s0)
            except HallPreconditionError:
                continue
            produced += 1
            for kept, original in zip(sub.adj, g.adj):
                assert len(kept) == r + 1
                assert set(kept) <= set(original)
            assert brute_defect(sub) >= r
            restricted = BipartiteGraph(
                size_t1=n1,
                size_t2=n2,
                adj=tuple(tuple(v for v in nbrs if v <= n1) for nbrs in sub.adj),
            )
            size, _ = max_matching(restricted)
            assert size == n1


def test_subgraph_construction_where_tight_sets_mislead():
    """An 8 x 10 graph at r = 2 on which peeling the first tight set leaves
    the peeled vertex no edge choice that keeps the margin.  The greedy
    deletion pass does not look for tight sets and thins it in milliseconds."""
    adj = (
        (1, 4, 6, 7, 8, 9, 10),
        (1, 3, 4, 6, 7, 9),
        (1, 2, 4, 5, 6, 8, 9, 10),
        (2, 3, 4, 6, 9, 10),
        (2, 3, 4, 7, 8, 9, 10),
        (1, 4, 6, 7, 8, 9, 10),
        (1, 4, 6, 7, 8, 9),
        (2, 3, 7, 9, 10),
    )
    g = BipartiteGraph(size_t1=8, size_t2=10, adj=adj)
    with Budget(1.0):
        sub = generalized_hall_subgraph(g, 2)
    for kept, original in zip(sub.adj, g.adj):
        assert len(kept) == 3
        assert set(kept) <= set(original)
    assert brute_defect(sub) >= 2


def test_threshold_curves_validity_cuts():
    """The emitted curves reproduce the published validity cuts: the
    unstructured bound is valid up to r=150 on the 900^4 sweep, the
    structured bound up to r=30 on the 900^6 two-head sweep, and the
    structured bound is strictly smaller wherever both are valid."""
    with Budget(10.0):
        fourth = emit_curves(CurveConfig(d=4, n=900, j=1, r_min=1, r_max=200, eps=0.0001))
        sixth = emit_curves(CurveConfig(d=6, n=900, j=2, r_min=1, r_max=40, eps=0.0001))

        def parse(rows):
            out = []
            for row in rows[1:]:
                f = row.split(",")
                out.append(
                    (int(f[0]), float(f[1]), f[2] == "true", float(f[3]), f[4] == "true")
                )
            return out

        fourth_rows = parse(fourth)
        assert all(valid_g == (r <= 150) for r, _, valid_g, _, _ in fourth_rows)

        sixth_rows = parse(sixth)
        assert all(valid_f == (3 <= r <= 30) for r, _, _, _, valid_f in sixth_rows)

        for rows in (fourth_rows, sixth_rows):
            both = [(pg, pf) for _, pg, vg, pf, vf in rows if vg and vf]
            assert both
            assert all(pf < pg for pg, pf in both)


def test_finiteness_consistency_across_splits():
    """Whenever the finiteness certificate holds with two head dimensions and
    the assumptions hold with one, the one-head certificate holds too."""
    cases = [
        ((3, 3, 3), (2,), 0.85, 60),
        ((3, 3, 3), (2,), 0.70, 30),
        ((3, 3, 3, 3), (1, 1), 0.55, 40),
    ]
    instances = 0
    non_vacuous = 0
    for dims, ranks, p, trials in cases:
        shape = Shape(dims=dims)
        spec = RankSpec(j=2, ranks=ranks)
        for trial in range(trials):
            pattern = sample_pattern(shape, p, seed=7, trial=trial)
            try:
                result = subpro_consistency(pattern, spec, 1, seed=0)
            except AssumptionError:
                continue
            instances += 1
            assert result.implication_held is not False, (dims, p, trial)
            if result.implication_held and not result.vacuous:
                non_vacuous += 1
    assert instances >= 100
    assert non_vacuous >= 20  # the implication was genuinely exercised


def test_montecarlo_failure_rate_within_bound():
    """With per-column counts forced above the closed-form threshold, the
    empirical failure rate of the column-expansion property stays within the
    claimed eps/k bound (99% Wilson margin)."""
    with Budget(600.0):
        n1, k, eps = 64, 4, 0.1
        l = math.floor(6 * math.log(n1) + 2 * math.log(k / eps) + 4) + 1
        assert l <= n1  # threshold fits in a column at this size
        config = TrialConfig(
            shape=Shape(dims=(n1, 4)), prop="proper1", trials=2000, seed=0, per_column_l=l
        )
        result = estimate(config)
        assert result.passes + result.fails == 2000
        fail_lo, _fail_hi = wilson_interval(result.fails, 2000)
        assert fail_lo <= eps / k


# SHA-256 over the `result` objects of the proper1/proper2 `simulate`
# artifacts of the grid below, in grid order.
SIMULATE_PROPER_DIGEST = "9fcdbf49ef7141ff9e97058cca38bd96d986c712bff8ff7b58c28cce2e132750"


def test_simulate_proper_artifacts_pinned(capsys):
    """Every proper1/proper2 `simulate` artifact over a grid of sizes,
    per-column counts (none, one, a third, the closed-form threshold capped
    at n1, all) and seeds keeps the same result.  Only the ``result`` object
    is hashed: the manifest carries the package version."""
    runs = [("proper2", 1, l) for l in (0, 1)]
    for n1 in (2, 3, 8, 64, 256):
        threshold = math.floor(6 * math.log(n1) + 2 * math.log(4 / 0.1) + 4) + 1
        for l in sorted({0, 1, n1 // 3, min(threshold, n1), n1}):
            runs += [(prop, n1, l) for prop in ("proper1", "proper2")]
    digest = hashlib.sha256()
    with Budget(60.0):
        for prop, n1, l in runs:
            for seed in (0, 5):
                argv = ["simulate", "--dims", f"{n1},4", "--property", prop, "--trials", "6",
                        "--per-column-l", str(l), "--seed", str(seed)]
                assert main(argv) == EXIT_OK, argv
                result = json.loads(capsys.readouterr().out)["result"]
                digest.update(json.dumps(result, sort_keys=True).encode())
    assert digest.hexdigest() == SIMULATE_PROPER_DIGEST


def _rerun_identical(tmp_path, name, argv_builder):
    out = tmp_path / name
    argv = argv_builder(str(out))
    assert main(argv) in (0, 2)
    first = out.read_bytes()
    assert main(argv) in (0, 2)
    assert out.read_bytes() == first


def test_cli_byte_determinism(tmp_path):
    """Every CLI command rerun with identical flags and seed produces a
    byte-identical artifact."""
    full = tmp_path / "full.json"
    write_pattern(SamplingPattern.full((3, 3, 3)), full)
    values = tmp_path / "values.json"
    values.write_text(
        json.dumps(
            {
                "entries": [
                    {"coord": list(c), "value": v}
                    for c, v in sorted(section_iib_values().items())
                ]
            }
        )
    )
    anchors = tmp_path / "anchors.json"
    write_pattern(section_iib_pattern(), anchors)

    _rerun_identical(
        tmp_path,
        "finite.json",
        lambda out: ["check-finite", str(full), "--rank", "1,2", "--j", "1", "--seed", "2", "--out", out],
    )
    _rerun_identical(
        tmp_path,
        "unique.json",
        lambda out: ["check-unique", str(full), "--rank", "1,2", "--j", "1", "--seed", "2", "--out", out],
    )
    _rerun_identical(
        tmp_path,
        "curves.csv",
        lambda out: ["bounds", "--d", "4", "--n", "30", "--j", "1", "--rank-range", "1:8", "--eps", "0.05", "--out", out],
    )
    _rerun_identical(
        tmp_path,
        "sim.json",
        lambda out: ["simulate", "--dims", "8,4", "--property", "proper1", "--trials", "25", "--per-column-l", "3", "--seed", "6", "--out", out],
    )
    _rerun_identical(
        tmp_path,
        "report.json",
        lambda out: ["oracle", str(full), "--rank", "1,2", "--j", "1", "--generate", "--seed", "2", "--out", out],
    )
    _rerun_identical(
        tmp_path,
        "sols.json",
        lambda out: ["oracle", str(anchors), "--rank", "1,1", "--j", "1", "--values", str(values), "--starts", "16", "--seed", "2", "--out", out],
    )
    _rerun_identical(
        tmp_path,
        "examples.txt",
        lambda out: ["paper-examples", "--starts", "24", "--out", out],
    )
