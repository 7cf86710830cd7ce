"""Matchings, expansion defect, and degree-thinned expansion subgraphs."""
import itertools
import pickle
import random
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorcert.hallgraph import (
    BipartiteGraph,
    HallPreconditionError,
    _adj_sets,
    _augment,
    _clone_misfit,
    _clones,
    _match,
    _member_sets,
    defect_at_least,
    degrees_prove_margin,
    expansion_defect,
    generalized_hall_subgraph,
    lemma_match_subgraph,
    lemma_omega_transform,
    max_matching,
    member_defect_at_least,
)
from tensorcert.montecarlo import _draw_members

from test_acceptance import Budget


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


def alternating_search_reference(adj, mate: list[int], root: int) -> Optional[tuple[int, ...]]:
    """Reference: the breadth-first alternating search over 1-based neighbour
    tuples that the packed depth-first search replaced.  On success it flips
    the path into ``mate`` (T2 label -> T1 node, -1 when free) and returns
    None; on failure it returns the Hall witness, root plus the mates of
    every T2 node reached, 1-based."""
    reached_from: dict[int, int] = {}  # T2 label -> T1 node that reached it
    via = {root: 0}  # T1 node -> T2 label it was entered through (0 for root)
    queue = [root]
    for w in queue:
        for v in adj[w]:
            if v in reached_from:
                continue
            reached_from[v] = w
            m = mate[v]
            if m < 0:
                while v:
                    w = reached_from[v]
                    mate[v] = w
                    v = via[w]
                return None
            if m not in via:
                via[m] = v
                queue.append(m)
    return tuple(sorted(w + 1 for w in via))


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
        skips the sort) build the tuple graph, and the caller's array is
        left as it was."""
        rng = np.random.default_rng(5)
        for n1, n2, degree in [(1, 1, 1), (6, 9, 4), (5, 3, 3), (4, 7, 0)]:
            rows = np.stack([rng.permutation(n2)[:degree] + 1 for _ in range(n1)])
            given = rows.copy()
            from_tuples = BipartiteGraph(size_t1=n1, size_t2=n2, adj=tuple(map(tuple, rows.tolist())))
            for adj in (rows, np.sort(rows, axis=1)):
                from_array = BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj)
                assert from_array == from_tuples
                assert hash(from_array) == hash(from_tuples)
                assert all(type(v) is int for nbrs in from_array.adj for v in nbrs)
            assert (rows == given).all()

    @pytest.mark.parametrize("bad", [[[1, 4]], [[0, 2]], [[3, -1]]])
    def test_array_rejects_out_of_range_neighbor(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            BipartiteGraph(size_t1=1, size_t2=3, adj=np.array(bad))

    @pytest.mark.parametrize("rows", [[[2, 2]], [[3, 1, 3]], [[1, 2, 3], [2, 3, 2]], [[1, 2, 2]], [[1, 2, 3], [1, 1, 3]]])
    def test_array_repeats_read_like_lists(self, rows):
        """An array row with a repeat, also one otherwise in order, builds
        the graph of the same neighbour lists: the repeat is dropped."""
        from_array = BipartiteGraph(size_t1=len(rows), size_t2=3, adj=np.array(rows))
        assert from_array == BipartiteGraph(size_t1=len(rows), size_t2=3, adj=rows)
        assert from_array.adj == tuple(tuple(sorted(set(row))) for row in rows)

    def test_array_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            BipartiteGraph(size_t1=3, size_t2=3, adj=np.array([[1, 2], [2, 3]]))

    def test_zero_width_array(self):
        """Columns that observe no row: empty sets, no matching, and a
        failed defect test whose witness is the first column."""
        g = BipartiteGraph(size_t1=3, size_t2=4, adj=np.zeros((3, 0), dtype=np.int64))
        assert g.adj == ((), (), ())
        assert _adj_sets(g.adj) == [0, 0, 0]
        assert max_matching(g) == (0, ())
        for r in range(3):
            assert defect_at_least(g, r) == (False, (1,))

    def test_packed_sets_match_neighbor_lists(self):
        """Both packers set bit v - 1 for T2 node v: from the neighbour
        lists, and from the membership array the Monte Carlo trials read."""
        g = BipartiteGraph(size_t1=3, size_t2=9, adj=((5, 1, 9), (), (2, 2, 4)))
        assert _adj_sets(g.adj) == [0b100010001, 0, 0b1010]
        assert _member_sets(membership(g)) == _adj_sets(g.adj)

    @pytest.mark.parametrize("adj", [((1, 2), (2, 3)), np.array([[1, 2], [2, 3]])])
    def test_immutable(self, adj):
        """Neither the sizes nor ``adj``, which equality and hashing read,
        can change."""
        g = BipartiteGraph(size_t1=2, size_t2=3, adj=adj)
        for name in ("size_t1", "size_t2", "adj"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
            with pytest.raises(AttributeError):
                delattr(g, name)
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
        g = staircase(5000)
        defect, witness = expansion_defect(g)
        assert defect == 1
        assert witness_margin(g, witness) == 1

    def test_free_nodes_give_koenig_witness(self):
        """Three T1 nodes share two T2 nodes, and an alternating path leads
        from the free one through the others: the witness is all three."""
        g = BipartiteGraph(size_t1=4, size_t2=5, adj=((1,), (1, 2), (2,), (3, 4, 5)))
        assert expansion_defect(g) == (-1, (1, 2, 3))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_large_staircase_needs_no_recursion(self, reverse):
        # T1 node i sees T2 nodes i+1 and i+2, so the defect is exactly 1.
        n = 5000
        g = staircase(n, reverse)
        size, pairs = max_matching(g)
        assert size == n
        assert all(v in g.adj[u - 1] for u, v in pairs)
        assert len({v for _u, v in pairs}) == n
        assert defect_at_least(g, 0) == (True, None)
        assert defect_at_least(g, 1) == (True, None)
        ok, witness = defect_at_least(g, 2)
        assert not ok
        assert witness_margin(g, witness) < 2


def staircase(n: int, reverse: bool = False) -> BipartiteGraph:
    """T1 node i (i = 1..n) sees T2 nodes i + 1 and i + 2: margin exactly 1.
    ``reverse`` lists the T1 nodes from n down to 1."""
    adj = [(i + 1, i + 2) for i in range(1, n + 1)]
    return BipartiteGraph(size_t1=n, size_t2=n + 2, adj=adj[::-1] if reverse else adj)


def clone_fits_reference(g: BipartiteGraph) -> list[bool]:
    """Per T1 node: does a matching still saturate T1 plus one copy of it?"""
    return [kuhn_matching_size(list(g.adj) + [g.adj[u]]) == g.size_t1 + 1 for u in range(g.size_t1)]


class TestCloneFits:
    """The r = 1 clone-fit set, one clone counted per node on the base
    matching, equals the per-node augmenting-path reference on every kind
    of graph it sees, and the r = 1 walk fails exactly when a node is left
    out, naming a tight set through the first one."""

    @staticmethod
    def fits(g: BipartiteGraph) -> Optional[list[bool]]:
        """The clone-fit set, or None when no matching saturates T1."""
        sets = _adj_sets(g.adj)
        mate, free, misses = _match(sets, g.size_t2)
        if misses:
            return None
        fits = [_clones(sets, mate, free, u, 1)[0] == 1 for u in range(g.size_t1)]
        misfit = _clone_misfit(sets, mate, free)
        assert (misfit is None) == all(fits)
        if misfit is not None:
            assert fits.index(False) in misfit
            assert witness_margin(g, tuple(u + 1 for u in misfit)) == 0
        return fits

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


class TestAugment:
    """One packed depth-first search serves every matching.  Augmenting T1
    nodes one by one, in order, matches the same nodes as the breadth-first
    reference it replaced and names the same witnesses: the nodes matched
    before a failure are the same, and the failed search reaches exactly
    the nodes that could trade places with it, whatever the matching."""

    def test_agrees_with_breadth_first_reference(self):
        rng = random.Random(41)
        outcomes = set()
        for _ in range(300):
            n1 = rng.randint(1, 30)
            n2 = max(1, n1 + rng.randint(-3, 3))
            adj = tuple(tuple(rng.sample(range(1, n2 + 1), rng.randint(0, min(n2, 4)))) for _ in range(n1))
            g = BipartiteGraph(size_t1=n1, size_t2=n2, adj=adj)
            sets, mate, free = _adj_sets(g.adj), [-1] * n2, (1 << n2) - 1
            reference = [-1] * (n2 + 1)
            for u in range(n1):
                free, missed = _augment(sets, mate, free, u)
                expected = alternating_search_reference(g.adj, reference, u)
                assert (None if missed is None else tuple(w + 1 for w in missed)) == expected, (adj, u)
                outcomes.add(missed is None)
            assert all(u < 0 or v + 1 in g.adj[u] for v, u in enumerate(mate))
            assert free == sum(1 << v for v, u in enumerate(mate) if u < 0)
            assert sorted(u for u in mate if u >= 0) == sorted(u for u in reference[1:] if u >= 0)
        assert outcomes == {True, False}


def membership(g: BipartiteGraph) -> np.ndarray:
    """The graph as the bool array :func:`member_defect_at_least` reads:
    row u - 1 marks the T2 nodes that T1 node u sees."""
    member = np.zeros((g.size_t1, g.size_t2), dtype=bool)
    for u, nbrs in enumerate(g.adj):
        member[u, [v - 1 for v in nbrs]] = True
    return member


def chain_graph(n: int, extra: tuple[tuple[int, ...], ...], r: int, order: list[int], labels: list[int]) -> BipartiteGraph:
    """On T2 nodes 1..n + 1 + r, chain node i (i = 1..n) sees T2 nodes i,
    i + 1 and i + 2 (those that exist) and the closing node sees 1 and 2,
    which leaves margin r.  Then come the ``extra`` nodes, each seeing a few
    of the first T2 nodes, and the T1 nodes are put in ``order`` and the T2
    nodes renamed by ``labels``.  A greedy pass in the original order
    matches chain node i to T2 node i, so the closing node's search walks
    the length of the chain to a free T2 node; an extra node can then find
    none, a Hall violator that shows only after that augmentation."""
    size_t2 = n + 1 + r
    base = [tuple(range(i, min(i + 2, size_t2) + 1)) for i in range(1, n + 1)] + [(1, 2)] + list(extra)
    adj = [tuple(labels[v - 1] for v in base[u]) for u in order]
    return BipartiteGraph(size_t1=len(adj), size_t2=size_t2, adj=adj)


@st.composite
def chains(draw) -> BipartiteGraph:
    n = draw(st.integers(1, 40))
    extra = draw(st.lists(st.sets(st.integers(1, min(n + 1, 4)), min_size=1, max_size=2).map(tuple), max_size=3))
    r = draw(st.integers(0, 1))
    order = draw(st.permutations(range(n + len(extra))))
    # Keep the chain's T2 order most of the time: that is where the greedy
    # pass goes wrong at the start and needs the longest search.
    labels = draw(st.one_of(st.just(list(range(1, n + 2 + r))), st.permutations(range(1, n + 2 + r))))
    return chain_graph(n, tuple(extra), r, list(order), list(labels))


@st.composite
def drawn_trials(draw) -> BipartiteGraph:
    """One trial of the Monte Carlo draw: n1 - r columns of l rows each, with
    l up to n1 / 4 half the time, where trials fail often."""
    n1 = draw(st.integers(2, 48))
    r = draw(st.integers(0, 1))
    l = draw(st.one_of(st.integers(0, n1 // 4), st.integers(0, n1)))
    member = _draw_members(n1, n1 - r, l, draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**64 - 1)), 1)
    return BipartiteGraph(size_t1=n1 - r, size_t2=n1, adj=np.nonzero(member)[1].reshape(n1 - r, l) + 1)


class TestMemberDefect:
    """The word-parallel test on a membership array agrees exactly with
    :func:`defect_at_least` at r = 0 and r = 1."""

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(drawn_trials(), chains()))
    def test_agrees_with_defect_at_least(self, g):
        for r in (0, 1):
            assert member_defect_at_least(membership(g), r) == defect_at_least(g, r)[0], (g.adj, r)

    def test_random_graphs_agree_with_each_reference(self):
        rng = random.Random(808)
        verdicts = set()
        for _ in range(200):
            x = rng.randint(1, 12)
            y = x + rng.randint(0, 4)
            low = rng.randint(0, 4)
            adj = tuple(tuple(rng.sample(range(1, y + 1), min(y, rng.randint(low, low + 2)))) for _ in range(x))
            g = BipartiteGraph(size_t1=x, size_t2=y, adj=adj)
            for r in (0, 1):
                got = member_defect_at_least(membership(g), r)
                assert got == defect_at_least(g, r)[0] == clone_reference(g, r), (adj, r)
                verdicts.add((r, got))
        assert verdicts == {(r, ok) for r in (0, 1) for ok in (True, False)}

    @pytest.mark.parametrize("n", [50, 300])
    def test_long_augmenting_paths(self, n):
        """The chain has margin r, and the closing node's search, after the
        chain's greedy matching or before it, is about n / 2 steps long; with
        two more nodes that see T2 nodes 1 and 2 alone, and as many T2 nodes
        as T1 nodes, the test fails after that augmentation."""
        labels = list(range(1, n + 4))
        for order in (list(range(n + 1)), list(range(n + 1))[::-1]):
            for r in (0, 1):
                g = chain_graph(n, (), r, order, labels)
                assert [member_defect_at_least(membership(g), t) for t in (0, 1)] == [True, r == 1]
                assert [defect_at_least(g, t)[0] for t in (0, 1)] == [True, r == 1]
            g = chain_graph(n, ((1,), (2,)), 2, order + [n + 1, n + 2], labels)
            assert member_defect_at_least(membership(g), 0) == defect_at_least(g, 0)[0] == False
            assert member_defect_at_least(membership(g), 1) == defect_at_least(g, 1)[0] == False

    def test_tight_and_loose_graphs(self):
        """All T2 nodes matched leaves no clone a free node: margin 0 only."""
        loose = BipartiteGraph(size_t1=2, size_t2=3, adj=((1, 2), (2, 3)))
        tight = BipartiteGraph(size_t1=2, size_t2=3, adj=((1, 2), (1, 2)))
        assert [member_defect_at_least(membership(g), 0) for g in (loose, tight)] == [True, True]
        assert [member_defect_at_least(membership(g), 1) for g in (loose, tight)] == [True, False]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_staircase_takes_linear_time(self, reverse):
        """The greedy matching of the staircase leaves T2 nodes 1 and n + 2
        free.  In T1 order each node's only alternating path to a free node
        runs up the rest of the chain: the r = 1 walk's first search marks
        the whole chain at once, where a sweep of marks in node order would
        take one pass per link, quadratic in n.  In reverse order each node
        meets the mark the one before it left."""
        g = staircase(3000, reverse)
        member = membership(g)
        with Budget(0.25):
            for r in (0, 1):
                assert member_defect_at_least(member, r)
                assert defect_at_least(g, r) == (True, None)

    @pytest.mark.parametrize("r", [-1, 2])
    def test_rejects_other_thresholds(self, r):
        with pytest.raises(ValueError, match="r = 0 or r = 1"):
            member_defect_at_least(np.ones((1, 2), dtype=bool), r)

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="one row of T2 membership per T1 node"):
            member_defect_at_least(np.ones((1, 2, 2), dtype=bool), 0)


def degree_counts(parts: list[BipartiteGraph]) -> tuple[np.ndarray, np.ndarray]:
    """Per part, its least T1 degree and its row of T2 degrees."""
    least = np.array([min(map(len, part.adj)) for part in parts])
    t2 = np.zeros((len(parts), parts[0].size_t2), dtype=int)
    for b, part in enumerate(parts):
        for nbrs in part.adj:
            t2[b, [v - 1 for v in nbrs]] += 1
    return least, t2


@st.composite
def dense_blocks(draw) -> tuple[list[BipartiteGraph], int]:
    """One to four blocks of equal size whose T1 nodes keep each edge of the
    complete graph with a per-block probability, so T1 degrees differ within
    and between blocks, and a margin r in {0, 1, 2}."""
    x = draw(st.integers(1, 6))
    y = draw(st.integers(1, x + 4))
    rng = draw(st.randoms(use_true_random=False))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        keep = draw(st.sampled_from([0.5, 0.8, 0.95, 1.0]))
        adj = tuple(tuple(v for v in range(1, y + 1) if rng.random() < keep) for _ in range(x))
        parts.append(BipartiteGraph(size_t1=x, size_t2=y, adj=adj))
    return parts, draw(st.integers(0, 2))


def complete(x: int, y: int) -> BipartiteGraph:
    return BipartiteGraph(size_t1=x, size_t2=y, adj=(tuple(range(1, y + 1)),) * x)


class TestDegreesProveMargin:
    """The degree bound only ever proves a margin the exact tests confirm."""

    @settings(deadline=None)
    @given(dense_blocks())
    def test_never_claims_a_failing_block(self, case):
        parts, r = case
        least, t2 = degree_counts(parts)
        proved = degrees_prove_margin(parts[0].size_t1, least, t2, r)
        assert proved.dtype == bool and proved.shape == (len(parts),)
        for part, ok in zip(parts, proved.tolist()):
            if ok:
                assert defect_at_least(part, r)[0] and clone_reference(part, r), (part.adj, r)

    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("x", [1, 2, 5])
    def test_tight_complete_graphs(self, x, r):
        """K(x, x + r) meets the margin with equality at S = T1, and the bound
        proves it.  One T2 node fewer breaks the margin, and so does one
        edge fewer when x = 1; the bound declines both.  For x >= 2 the
        margin survives one missing edge, and the bound still proves it."""
        full = complete(x, x + r)
        short = complete(x, x + r - 1) if x + r > 1 else None
        cut = BipartiteGraph(size_t1=x, size_t2=x + r, adj=(tuple(range(2, x + r + 1)),) + full.adj[1:])
        cases = [(full, True), (cut, x >= 2)] + ([(short, False)] if short else [])
        for g, holds in cases:
            assert defect_at_least(g, r)[0] == clone_reference(g, r) == holds
            assert degrees_prove_margin(x, *degree_counts([g]), r).tolist() == [holds], (g.adj, r)

    def test_declines_a_margin_only_matching_sees(self):
        """A perfect matching has margin 0, but degree 1 everywhere proves
        nothing beyond single nodes."""
        g = BipartiteGraph(size_t1=3, size_t2=3, adj=((1,), (2,), (3,)))
        assert defect_at_least(g, 0)[0]
        assert degrees_prove_margin(3, *degree_counts([g]), 0).tolist() == [False]

    def test_least_degree_per_block_or_shared(self):
        """Columns {1, 3}, {2, 3} and {3}, {1, 2, 3} have the same T2 degrees;
        only the least T1 degree tells the first (margin 1) from the second."""
        t2 = np.array([[1, 1, 2], [1, 1, 2]])
        assert degrees_prove_margin(2, np.array([2, 1]), t2, 1).tolist() == [True, False]
        assert degrees_prove_margin(2, 2, t2, 1).tolist() == [True, True]
        assert degrees_prove_margin(2, 1, t2, 1).tolist() == [False, False]

    def test_rejects_bad_degrees_and_threshold(self):
        with pytest.raises(ValueError, match="nonnegative"):
            degrees_prove_margin(2, 1, np.ones((1, 3), dtype=int), -1)
        with pytest.raises(ValueError, match="outside 0..2"):
            degrees_prove_margin(2, 1, np.array([[3, 0, 0]]), 0)
        with pytest.raises(ValueError, match="one row of T2 degrees per block"):
            degrees_prove_margin(2, 1, np.ones(3, dtype=int), 0)


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
