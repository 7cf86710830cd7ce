"""Matchings, expansion defect, and degree-thinned expansion subgraphs."""
import itertools
import pickle
import random
from typing import Optional

import numpy as np
import pytest

from tensorcert.hallgraph import (
    BipartiteGraph,
    HallPreconditionError,
    _alternating_graph,
    _clone_fits,
    _hopcroft_karp,
    block_defects_at_least,
    defect_at_least,
    expansion_defect,
    generalized_hall_subgraph,
    lemma_match_subgraph,
    lemma_omega_transform,
    max_matching,
)


def brute_matching_size(g: BipartiteGraph) -> int:
    """Maximum matching by trying every injective assignment."""
    best = 0
    nodes = list(range(g.size_t1))
    for size in range(min(g.size_t1, g.size_t2), 0, -1):
        for subset in itertools.combinations(nodes, size):
            for assignment in itertools.permutations(range(1, g.size_t2 + 1), size):
                if all(v in g.adj[u] for u, v in zip(subset, assignment)):
                    return size
        # fall through to smaller sizes
    return best


def brute_defect(g: BipartiteGraph) -> int:
    best = None
    for size in range(1, g.size_t1 + 1):
        for subset in itertools.combinations(range(g.size_t1), size):
            nbrs = set()
            for u in subset:
                nbrs.update(g.adj[u])
            value = len(nbrs) - size
            if best is None or value < best:
                best = value
    return best


def kuhn_matching_size(adj: list[tuple[int, ...]]) -> int:
    """Maximum matching by plain augmenting paths, independent of the package."""
    match_t2: dict[int, int] = {}

    def augment(u: int, visited: set[int]) -> bool:
        for v in adj[u]:
            if v not in visited:
                visited.add(v)
                if v not in match_t2 or augment(match_t2[v], visited):
                    match_t2[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in range(len(adj)))


def clone_reference(g: BipartiteGraph, r: int) -> bool:
    """defect >= r iff, for every T1 node u, adding r copies of u (same
    neighbours) still leaves a matching that saturates T1."""
    for u in range(g.size_t1):
        adj = list(g.adj) + [g.adj[u]] * r
        if kuhn_matching_size(adj) < len(adj):
            return False
    return True


def witness_margin(g: BipartiteGraph, witness: tuple[int, ...]) -> int:
    nbrs = set()
    for u in witness:
        nbrs.update(g.adj[u - 1])
    return len(nbrs) - len(witness)


def random_graph(rng: random.Random, max_t1: int = 5, max_t2: int = 6) -> BipartiteGraph:
    n1 = rng.randint(1, max_t1)
    n2 = rng.randint(1, max_t2)
    adj = tuple(
        tuple(v for v in range(1, n2 + 1) if rng.random() < 0.5) for _ in range(n1)
    )
    return BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj)


class TestBipartiteGraph:
    def test_normalizes_neighbor_lists(self):
        g = BipartiteGraph(size_t1=1, size_t2=3, adj=((3, 1, 3),))
        assert g.adj == ((1, 3),)

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(ValueError):
            BipartiteGraph(size_t1=1, size_t2=2, adj=((3,),))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            BipartiteGraph(size_t1=2, size_t2=2, adj=((1,),))

    def test_array_rows_equal_tuple_graph(self):
        """Unsorted rows and the same rows sorted (the drawn case, which
        skips the sort) build the tuple graph's CSR, and the caller's array
        is left as it was."""
        rng = np.random.default_rng(5)
        for n1, n2, degree in [(1, 1, 1), (6, 9, 4), (5, 3, 3), (4, 7, 0)]:
            rows = np.stack([rng.permutation(n2)[:degree] + 1 for _ in range(n1)])
            given = rows.copy()
            from_tuples = BipartiteGraph(size_t1=n1, size_t2=n2, adj=tuple(map(tuple, rows.tolist())))
            for adj in (rows, np.sort(rows, axis=1)):
                from_array = BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj)
                assert from_array == from_tuples
                assert hash(from_array) == hash(from_tuples)
                assert from_array.indices.tolist() == from_tuples.indices.tolist()
                assert all(type(v) is int for nbrs in from_array.adj for v in nbrs)
            assert (rows == given).all()

    @pytest.mark.parametrize("bad", [[[1, 4]], [[0, 2]], [[3, -1]]])
    def test_array_rejects_out_of_range_neighbor(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            BipartiteGraph(size_t1=1, size_t2=3, adj=np.array(bad))

    @pytest.mark.parametrize("bad", [[[2, 2]], [[3, 1, 3]], [[1, 2, 3], [2, 3, 2]], [[1, 2, 2]], [[1, 2, 3], [1, 1, 3]]])
    def test_array_rejects_repeated_neighbor(self, bad):
        """Also a repeat in a row that is otherwise in order: ascending but
        not strictly is not sorted."""
        with pytest.raises(ValueError, match="repeated neighbor in an array row"):
            BipartiteGraph(size_t1=len(bad), size_t2=3, adj=np.array(bad))

    def test_array_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            BipartiteGraph(size_t1=3, size_t2=3, adj=np.array([[1, 2], [2, 3]]))

    def test_zero_width_array(self):
        """Columns that observe no row: an empty CSR, no matching, and a
        failed defect test whose witness is the first column."""
        g = BipartiteGraph(size_t1=3, size_t2=4, adj=np.zeros((3, 0), dtype=np.int64))
        assert g.indptr.tolist() == [0, 0, 0, 0] and g.indices.size == 0
        assert g.adj == ((), (), ())
        assert max_matching(g) == (0, ())
        for r in range(3):
            assert defect_at_least(g, r) == (False, (1,))

    def test_csr_matches_neighbor_lists(self):
        g = BipartiteGraph(size_t1=3, size_t2=5, adj=((5, 1), (), (2, 2, 4)))
        assert g.indptr.tolist() == [0, 2, 2, 4]
        assert g.indices.tolist() == [0, 4, 1, 3]

    @pytest.mark.parametrize("adj", [((1, 2), (2, 3)), np.array([[1, 2], [2, 3]])])
    def test_immutable(self, adj):
        """Neither the sizes nor the CSR can change under the cached ``adj``
        that equality and hashing read."""
        g = BipartiteGraph(size_t1=2, size_t2=3, adj=adj)
        for name in ("size_t1", "size_t2", "indptr", "indices", "_adj"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
            with pytest.raises(AttributeError):
                delattr(g, name)
        for arr in (g.indptr, g.indices):
            with pytest.raises(ValueError):
                arr[0] = 1
        assert g.adj == ((1, 2), (2, 3))
        assert pickle.loads(pickle.dumps(g)) == g


class TestMaxMatching:
    def test_perfect_matching_found(self):
        g = BipartiteGraph(size_t1=3, size_t2=3, adj=((1, 2), (2, 3), (1, 3)))
        size, pairs = max_matching(g)
        assert size == 3
        assert len({v for _u, v in pairs}) == 3
        assert all(v in g.adj[u - 1] for u, v in pairs)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(202)
        for _ in range(40):
            g = random_graph(rng)
            size, pairs = max_matching(g)
            assert size == brute_matching_size(g)
            assert all(v in g.adj[u - 1] for u, v in pairs)
            assert len({u for u, _v in pairs}) == len(pairs)
            assert len({v for _u, v in pairs}) == len(pairs)


class TestExpansionDefect:
    def test_known_values(self):
        g = BipartiteGraph(size_t1=2, size_t2=3, adj=((1, 2, 3), (1, 2)))
        defect, witness = expansion_defect(g)
        assert defect == 1
        assert witness  # some nonempty argmin subset

    def test_isolated_node_gives_negative_defect(self):
        g = BipartiteGraph(size_t1=2, size_t2=2, adj=((1, 2), ()))
        defect, witness = expansion_defect(g)
        assert defect == -1
        assert witness == (2,)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_graph(rng)
            defect, witness = expansion_defect(g)
            assert defect == brute_defect(g)
            nbrs = set()
            for u in witness:
                nbrs.update(g.adj[u - 1])
            assert len(nbrs) - len(witness) == defect

    def test_defect_at_least_agrees_with_exact_value(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng)
            exact, _ = expansion_defect(g)
            for r in range(0, 4):
                ok, witness = defect_at_least(g, r)
                assert ok == (exact >= r)
                if not ok:
                    assert witness_margin(g, witness) < r
        # Beyond the brute-force range: the per-vertex clone reference.
        verdicts = set()
        for _ in range(120):
            n1 = rng.randint(1, 40)
            n2 = n1 + rng.randint(0, 5)
            low = rng.randint(1, 6)  # smallest column degree; sets the likely defect
            adj = tuple(
                tuple(rng.sample(range(1, n2 + 1), min(n2, rng.randint(low, low + 3))))
                for _ in range(n1)
            )
            g = BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj)
            for r in range(0, 4):
                ok, witness = defect_at_least(g, r)
                assert ok == clone_reference(g, r), (adj, r)
                verdicts.add((r, ok))
                if not ok:
                    assert witness_margin(g, witness) < r
        assert verdicts == {(r, ok) for r in range(4) for ok in (True, False)}

    def test_exact_value_agrees_with_defect_at_least_up_to_40_nodes(self):
        """The polynomial defect, on graphs far beyond subset enumeration:
        its witness attains it, and it is >= r exactly when the matching
        test passes at r."""
        rng = random.Random(61)
        values = set()
        for _ in range(150):
            n1 = rng.randint(1, 40)
            n2 = n1 + rng.randint(0, 5)
            low = rng.randint(0, 6)
            adj = tuple(
                tuple(rng.sample(range(1, n2 + 1), min(n2, rng.randint(low, low + 3)))) for _ in range(n1)
            )
            g = BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj)
            defect, witness = expansion_defect(g)
            values.add(defect)
            assert witness and witness_margin(g, witness) == defect
            for r in range(0, 5):
                assert defect_at_least(g, r)[0] == (defect >= r), (adj, r)
        assert {-1, 0, 1, 2} <= values

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_complete_graph_defect(self, n):
        """On K(n, 2n) every set of T1 nodes sees all 2n T2 nodes, so the
        defect is n, attained by the whole of T1."""
        g = BipartiteGraph(size_t1=n, size_t2=2 * n, adj=(tuple(range(1, 2 * n + 1)),) * n)
        assert expansion_defect(g) == (n, tuple(range(1, n + 1)))

    def test_exact_value_on_large_staircase(self):
        n = 5000
        g = BipartiteGraph(size_t1=n, size_t2=n + 2, adj=tuple((i + 1, i + 2) for i in range(1, n + 1)))
        defect, witness = expansion_defect(g)
        assert defect == 1
        assert witness_margin(g, witness) == 1

    def test_free_nodes_give_koenig_witness(self):
        """Three T1 nodes share two T2 nodes, and an alternating path leads
        from the free one through the others: the witness is all three."""
        g = BipartiteGraph(size_t1=4, size_t2=5, adj=((1,), (1, 2), (2,), (3, 4, 5)))
        assert expansion_defect(g) == (-1, (1, 2, 3))

    def test_large_staircase_needs_no_recursion(self):
        # T1 node i sees T2 nodes i+1 and i+2, so the defect is exactly 1.
        n = 5000
        g = BipartiteGraph(size_t1=n, size_t2=n + 2, adj=tuple((i + 1, i + 2) for i in range(1, n + 1)))
        size, pairs = max_matching(g)
        assert size == n
        assert all(v in g.adj[u - 1] for u, v in pairs)
        assert len({v for _u, v in pairs}) == n
        assert defect_at_least(g, 0) == (True, None)
        assert defect_at_least(g, 1) == (True, None)
        ok, witness = defect_at_least(g, 2)
        assert not ok
        assert witness_margin(g, witness) < 2


def clone_fits_reference(g: BipartiteGraph) -> list[bool]:
    """Per T1 node: does a matching still saturate T1 plus one copy of it?"""
    return [kuhn_matching_size(list(g.adj) + [g.adj[u]]) == g.size_t1 + 1 for u in range(g.size_t1)]


class TestCloneFits:
    """The r = 1 clone-fit set, read off one strong-component pass, equals the
    per-node augmenting-path reference on every kind of graph it sees."""

    @staticmethod
    def fits(g: BipartiteGraph) -> Optional[list[bool]]:
        """The clone-fit set, or None when no matching saturates T1."""
        matched = _hopcroft_karp(g.indptr, g.indices, g.size_t2)
        if (matched < 0).any():
            return None
        return _clone_fits(_alternating_graph(g.indptr, g.indices, matched, g.size_t2, 1), g.size_t1, 1).tolist()

    def check(self, g: BipartiteGraph) -> bool:
        fits = self.fits(g)
        if fits is not None:
            assert fits == clone_fits_reference(g), g.adj
        return fits is not None

    def test_random_ragged_graphs(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(300):
            n1 = rng.randint(1, 30)
            n2 = n1 + rng.randint(0, 4)
            adj = tuple(tuple(rng.sample(range(1, n2 + 1), rng.randint(1, min(n2, 5)))) for _ in range(n1))
            checked += self.check(BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj))
        assert checked >= 100

    def test_uniform_degree_arrays(self):
        rng = np.random.default_rng(17)
        checked = 0
        for n2, degree in [(8, 3), (16, 2), (40, 5), (64, 9)]:
            for _ in range(15):
                rows = np.argsort(rng.random((n2 - 1, n2)), axis=1)[:, :degree] + 1
                checked += self.check(BipartiteGraph(size_t1=n2 - 1, size_t2=n2, adj=rows))
        assert checked >= 30

    @pytest.mark.parametrize("n", [50, 300])
    def test_deep_chains(self, n):
        """T1 node i sees T2 nodes i and i+1 (margin 1, every clone fits), and
        a block of three T1 nodes shares three other T2 nodes (tight, no
        clone fits) until one block node also sees T2 node 1: then a clone's
        alternating path runs the length of the chain to its free node."""
        chain = tuple((i, i + 1) for i in range(1, n + 1))
        block = ((n + 2, n + 3, n + 4),) * 3
        for adj in (chain + block, block + chain[::-1]):
            g = BipartiteGraph(size_t1=n + 3, size_t2=n + 4, adj=adj)
            assert self.check(g)
            assert sorted(self.fits(g)) == [False] * 3 + [True] * n
        linked = chain + ((1, n + 2, n + 3, n + 4),) + block[1:]
        g = BipartiteGraph(size_t1=n + 3, size_t2=n + 4, adj=linked)
        assert self.check(g)
        assert all(self.fits(g))


def disjoint_union(parts: list[BipartiteGraph]) -> BipartiteGraph:
    """Equal-sized graphs side by side: part b's labels shifted past the
    labels of the parts before it."""
    x, y = parts[0].size_t1, parts[0].size_t2
    adj = tuple(tuple(v + b * y for v in nbrs) for b, part in enumerate(parts) for nbrs in part.adj)
    return BipartiteGraph(size_t1=x * len(parts), size_t2=y * len(parts), adj=adj)


class TestBlockDefects:
    """Per-block verdicts on a disjoint union equal the one-graph test on each
    block, from one matching and one strong-component pass."""

    def test_random_unions_agree_with_each_block(self):
        rng = random.Random(808)
        verdicts = set()
        for _ in range(60):
            x = rng.randint(1, 12)
            y = x + rng.randint(0, 4)
            low = rng.randint(0, 4)
            parts = [
                BipartiteGraph(
                    size_t1=x,
                    size_t2=y,
                    adj=tuple(tuple(rng.sample(range(1, y + 1), min(y, rng.randint(low, low + 2)))) for _ in range(x)),
                )
                for _ in range(rng.randint(1, 7))
            ]
            union = disjoint_union(parts)
            for r in range(4):
                got = block_defects_at_least(union, len(parts), r)
                assert got.dtype == bool and got.shape == (len(parts),)
                expected = [defect_at_least(part, r)[0] for part in parts]
                assert got.tolist() == expected, ([p.adj for p in parts], r)
                assert expected == [clone_reference(part, r) for part in parts]
                verdicts.update((r, ok) for ok in expected)
        assert verdicts == {(r, ok) for r in range(4) for ok in (True, False)}

    def test_one_block_is_defect_at_least(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng)
            for r in range(3):
                assert block_defects_at_least(g, 1, r).tolist() == [defect_at_least(g, r)[0]]

    def test_tight_block_beside_loose_ones(self):
        """A block whose T2 nodes are all matched keeps its sink isolated, so
        none of its clones fit; its neighbours' verdicts do not change."""
        loose = BipartiteGraph(size_t1=2, size_t2=3, adj=((1, 2), (2, 3)))
        tight = BipartiteGraph(size_t1=2, size_t2=3, adj=((1, 2), (1, 2)))
        union = disjoint_union([loose, tight, loose])
        assert block_defects_at_least(union, 3, 0).tolist() == [True, True, True]
        assert block_defects_at_least(union, 3, 1).tolist() == [True, False, True]
        assert block_defects_at_least(union, 3, 2).tolist() == [False, False, False]

    def test_rejects_edge_between_blocks(self):
        g = BipartiteGraph(size_t1=4, size_t2=6, adj=((1, 2), (2, 3), (4, 5), (3, 6)))
        with pytest.raises(ValueError, match="joins two blocks"):
            block_defects_at_least(g, 2, 1)
        assert block_defects_at_least(g, 1, 1).tolist() == [defect_at_least(g, 1)[0]]

    @pytest.mark.parametrize("blocks", [0, 3, 4])
    def test_rejects_uneven_split(self, blocks):
        g = BipartiteGraph(size_t1=6, size_t2=8, adj=((1,),) * 6)
        with pytest.raises(ValueError, match="equal blocks"):
            block_defects_at_least(g, blocks, 0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="nonnegative"):
            block_defects_at_least(BipartiteGraph(size_t1=1, size_t2=1, adj=((1,),)), 1, -1)


class TestGeneralizedHallSubgraph:
    def test_size_precondition(self):
        g = BipartiteGraph(size_t1=2, size_t2=4, adj=((1, 2), (3, 4)))
        with pytest.raises(HallPreconditionError):
            generalized_hall_subgraph(g, 1)

    def test_defect_precondition_carries_witness(self):
        g = BipartiteGraph(size_t1=2, size_t2=3, adj=((1,), (1,)))
        with pytest.raises(HallPreconditionError) as err:
            generalized_hall_subgraph(g, 1)
        assert err.value.witness is not None

    def test_postconditions_on_random_graphs(self):
        rng = random.Random(4242)
        produced = 0
        while produced < 30:
            r = rng.randint(0, 2)
            n1 = rng.randint(1, 5)
            n2 = n1 + r
            adj = tuple(
                tuple(v for v in range(1, n2 + 1) if rng.random() < 0.8)
                for _ in range(n1)
            )
            g = BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj)
            ok, _ = defect_at_least(g, r)
            if not ok:
                continue
            sub = generalized_hall_subgraph(g, r)
            produced += 1
            assert sub.size_t1 == n1 and sub.size_t2 == n2
            for kept, original in zip(sub.adj, g.adj):
                assert len(kept) == r + 1
                assert set(kept) <= set(original)
            assert brute_defect(sub) >= r


class TestLemmaMatchSubgraph:
    def test_contains_perfect_matching_into_s0(self):
        rng = random.Random(99)
        produced = 0
        while produced < 20:
            r = rng.randint(0, 2)
            n1 = rng.randint(1, 4)
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
                adj=tuple(tuple(v for v in nbrs if v in set(s0)) for nbrs in sub.adj),
            )
            size, _ = max_matching(restricted)
            assert size == n1

    @pytest.mark.parametrize("s0, label", [((0, 1), 0), ((1, 9), 9), ((-2, 3), -2)])
    def test_s0_label_out_of_range_rejected(self, s0, label):
        g = BipartiteGraph(size_t1=2, size_t2=3, adj=((1, 2, 3), (1, 2, 3)))
        with pytest.raises(HallPreconditionError, match=f"S0 label {label} is outside 1..3"):
            lemma_match_subgraph(g, 1, s0)

    def test_s0_hall_failure_carries_witness(self):
        g = BipartiteGraph(size_t1=2, size_t2=4, adj=((1, 3, 4), (1, 3, 4)))
        with pytest.raises(HallPreconditionError, match="too few S0-neighbors") as err:
            lemma_match_subgraph(g, 1, (1, 2))
        assert err.value.witness == (1, 2)

    def test_s0_size_mismatch_rejected(self):
        g = BipartiteGraph(size_t1=2, size_t2=3, adj=((1, 2, 3), (1, 2, 3)))
        with pytest.raises(HallPreconditionError):
            lemma_match_subgraph(g, 1, (1, 2, 3))


def random_regular(n1: int, r: int, degree: int, seed: int) -> BipartiteGraph:
    """A graph on n1 x (n1 + r) in which every T1 node sees ``degree`` random
    T2 nodes and the defect is at least r (redrawn until it is)."""
    rng = np.random.default_rng(seed)
    while True:
        rows = np.argsort(rng.random((n1, n1 + r)), axis=1)[:, :degree] + 1
        g = BipartiteGraph(size_t1=n1, size_t2=n1 + r, adj=rows)
        if defect_at_least(g, r)[0]:
            return g


def assert_thinned(g: BipartiteGraph, sub: BipartiteGraph, r: int, s0: Optional[tuple[int, ...]] = None) -> None:
    """Every T1 node keeps r + 1 of its edges, the margin r holds and, given
    S0, T1 still matches perfectly into S0."""
    assert (sub.size_t1, sub.size_t2) == (g.size_t1, g.size_t2)
    for kept, original in zip(sub.adj, g.adj):
        assert len(kept) == r + 1
        assert set(kept) <= set(original)
    assert defect_at_least(sub, r) == (True, None)
    if s0 is not None:
        inside = tuple(tuple(v for v in nbrs if v in s0) for nbrs in sub.adj)
        assert max_matching(BipartiteGraph(size_t1=g.size_t1, size_t2=g.size_t2, adj=inside))[0] == g.size_t1


class TestBeyondSubsetEnumeration:
    """Thinning on graphs whose subsets can no longer be enumerated."""

    @pytest.mark.parametrize("n1", [18, 22, 40])
    def test_regular_graphs(self, n1):
        for r in (1, 2):
            g = random_regular(n1, r, 4 + r, seed=n1 * 10 + r)
            assert_thinned(g, generalized_hall_subgraph(g, r), r)
            rng = random.Random(n1 + r)
            produced = 0
            while produced < 3:
                s0 = tuple(sorted(rng.sample(range(1, g.size_t2 + 1), n1)))
                try:
                    sub = lemma_match_subgraph(g, r, s0)
                except HallPreconditionError:
                    continue
                produced += 1
                assert_thinned(g, sub, r, s0)

    def test_random_graphs_and_s0(self):
        rng = random.Random(515)
        produced = 0
        while produced < 40:
            r = rng.randint(0, 3)
            n1 = rng.randint(1, 40)
            n2 = n1 + r + rng.randint(0, 3)
            adj = tuple(tuple(rng.sample(range(1, n2 + 1), rng.randint(min(n2, r + 1), n2))) for _ in range(n1))
            g = BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj)
            s0 = tuple(sorted(rng.sample(range(1, n2 + 1), n1)))
            try:
                sub = lemma_match_subgraph(g, r, s0)
            except HallPreconditionError:
                continue
            produced += 1
            assert_thinned(g, sub, r, s0)


class TestLemmaOmegaTransform:
    def test_thins_columns_and_keeps_margin(self):
        columns = [(1, 2, 3, 4), (2, 3, 4, 5), (1, 3, 4, 5)]
        out = lemma_omega_transform(columns, num_rows=5, r=2)
        assert len(out) == 3
        for thinned, original in zip(out, columns):
            assert len(thinned) == 3
            assert thinned <= set(original)
        for size in range(1, 4):
            for subset in itertools.combinations(out, size):
                union = set().union(*subset)
                assert len(union) >= size + 2

    def test_wrong_column_count_rejected(self):
        with pytest.raises(HallPreconditionError):
            lemma_omega_transform([(1, 2)], num_rows=4, r=1)

    def test_column_too_sparse_rejected(self):
        with pytest.raises(HallPreconditionError):
            lemma_omega_transform([(1,), (2, 3)], num_rows=3, r=1)
