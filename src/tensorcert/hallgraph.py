"""Bipartite expansion toolkit: matchings, expansion defect, and degree-thinned
spanning subgraphs that preserve a Hall-type expansion margin.

The central construction: given a graph on (T1, T2) in which every nonempty
S ⊆ T1 satisfies ``|N(S)| >= |S| + r``, produce a spanning subgraph where every
T1 node keeps exactly ``r + 1`` edges and the same expansion margin still
holds (optionally with a perfect matching of T1 into a given S0 ⊆ T2).  One
greedy pass deletes every edge whose loss keeps the margin, tested by
matching r + 1 clones of its T1 node on top of a matching of the others; the
result is inclusion-minimal, and minimality forces degree r + 1.

A graph is kept as one CSR biadjacency, built in one numpy pass from a
drawn 2-D array.  Matchings come from scipy's compiled Hopcroft-Karp on that
CSR; the defect test decides r = 0 from that one base matching and r = 1 from
one compiled strong-component pass, and extends the matching by iterative
alternating searches only for r >= 2 or to name a Hall witness, so no
matching or defect test recurses on the size of the graph.  A graph made of
equal disjoint blocks (many Monte Carlo trials at once) gets every block's
verdict from the same one matching and one strong-component pass.  The
exact defect is König's deficiency when T1 cannot be matched, and otherwise
the least number of clones of a T1 node that fit on top of the matching,
counted in one pass: every operation is polynomial.

scipy is imported by the three functions that call it, on their first call:
the hull screen in ``assumptions`` uses only the pure-Python alternating
search, so loading this module costs numpy alone.
"""
from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_array

__all__ = [
    "BipartiteGraph",
    "HallPreconditionError",
    "max_matching",
    "expansion_defect",
    "defect_at_least",
    "block_defects_at_least",
    "generalized_hall_subgraph",
    "lemma_match_subgraph",
    "lemma_omega_transform",
]

class HallPreconditionError(ValueError):
    """An expansion precondition failed; carries a witness subset when known."""

    def __init__(self, message: str, witness: Optional[tuple[int, ...]] = None):
        super().__init__(message)
        self.witness = witness


class BipartiteGraph:
    """Adjacency from T1 nodes (1..size_t1) to T2 nodes (1..size_t2), kept as a
    CSR biadjacency: T1 node u's 0-based T2 indices are
    ``indices[indptr[u - 1]:indptr[u]]``, sorted and duplicate-free.

    Neighbour lists may be given in any order and with repeats; a 2-D integer
    array (one row per T1 node, all of one degree) is checked in one pass
    instead and must not repeat a neighbour within a row.  ``adj``, the
    neighbour lists as sorted tuples of ints, is built on first read; equality
    and hashing go through it.  A graph is immutable: its attributes cannot
    be reassigned and its CSR arrays are read-only."""

    __slots__ = ("size_t1", "size_t2", "indptr", "indices", "_adj")

    def __init__(self, size_t1: int, size_t2: int, adj: Sequence[Iterable[int]] | np.ndarray) -> None:
        if size_t1 < 1 or size_t2 < 1:
            raise ValueError("both node sets must be nonempty")
        if len(adj) != size_t1:
            raise ValueError("need one neighbor list per T1 node")
        if isinstance(adj, np.ndarray) and adj.ndim == 2 and adj.dtype.kind in "iu":
            # Strictly ascending rows (as drawn) need no sort and no repeat check.
            ascending = bool((adj[:, 1:] > adj[:, :-1]).all())
            rows = adj if ascending else np.sort(adj, axis=1)
            if rows.size and not (rows[:, 0].min() >= 1 and rows[:, -1].max() <= size_t2):
                raise ValueError("neighbor index out of range")
            if not ascending and (rows[:, 1:] == rows[:, :-1]).any():
                raise ValueError("repeated neighbor in an array row")
            cached = None
            indptr = np.arange(size_t1 + 1, dtype=np.int32) * rows.shape[1]
            indices = rows.astype(np.int32).ravel() - 1
        else:
            cleaned = []
            for nbrs in adj:
                ns = tuple(sorted(set(map(int, nbrs))))
                if ns and not (1 <= ns[0] and ns[-1] <= size_t2):
                    raise ValueError("neighbor index out of range")
                cleaned.append(ns)
            cached = tuple(cleaned)
            indptr, indices = _csr(cached)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        for name, value in zip(self.__slots__, (size_t1, size_t2, indptr, indices, cached)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        return BipartiteGraph, (self.size_t1, self.size_t2, self.adj)

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            object.__setattr__(self, "_adj", _tuples(self.indptr, self.indices))
        return self._adj

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.size_t1, self.size_t2, self.adj) == (other.size_t1, other.size_t2, other.adj)

    def __hash__(self) -> int:
        return hash((self.size_t1, self.size_t2, self.adj))

    def __repr__(self) -> str:
        return f"BipartiteGraph(size_t1={self.size_t1}, size_t2={self.size_t2}, adj={self.adj})"


def _csr(adj: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of 1-based neighbour lists, 0-based indices."""
    indptr = np.fromiter(itertools.accumulate(map(len, adj), initial=0), dtype=np.int32, count=len(adj) + 1)
    indices = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.int32, count=indptr[-1]) - 1
    return indptr, indices


def _tuples(indptr: np.ndarray, indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The 1-based neighbour lists of a CSR biadjacency."""
    flat = (indices + 1).tolist()
    return tuple(tuple(flat[a:b]) for a, b in itertools.pairwise(indptr.tolist()))


# ---------------------------------------------------------------------------
# Matching


def _hopcroft_karp(indptr: np.ndarray, indices: np.ndarray, size_t2: int) -> np.ndarray:
    """Maximum matching (Hopcroft-Karp, compiled in scipy) of a CSR
    biadjacency: per T1 node its matched 0-based T2 index, or -1."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    graph = csr_array((np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(indptr.size - 1, size_t2))
    return maximum_bipartite_matching(graph, perm_type="column")


def _mate(matched: np.ndarray, size_t2: int) -> list[int]:
    """The matching as :func:`_alternating_search` keeps it: T2 label -> T1
    node, -1 when free."""
    mate = np.full(size_t2 + 1, -1)
    rows = np.flatnonzero(matched >= 0)
    mate[matched[rows] + 1] = rows
    return mate.tolist()


def _alternating_search(adj: Sequence[Sequence[int]], mate: list[int], root: int) -> Optional[tuple[int, ...]]:
    """Breadth-first search for an alternating path from T1 node ``root`` to a
    free T2 node; on success the path is flipped into ``mate`` (T2 label ->
    T1 node, -1 when free) and None is returned.  ``root`` may already hold
    several T2 nodes: clones of one vertex share its id.

    On failure returns the Hall witness: root plus the mates of every T2 node
    reached, whose neighbourhood is exactly the reached T2 nodes.
    """
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


def max_matching(g: BipartiteGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Maximum-cardinality matching (Hopcroft-Karp).

    Returns (size, pairs) with pairs as (t1, t2), sorted by t1.
    """
    matched = _hopcroft_karp(g.indptr, g.indices, g.size_t2).tolist()
    pairs = tuple((u + 1, v + 1) for u, v in enumerate(matched) if v >= 0)
    return len(pairs), pairs


# ---------------------------------------------------------------------------
# Expansion defect


def _alternating_graph(
    indptr: np.ndarray, indices: np.ndarray, matched: np.ndarray, size_t2: int, blocks: int
) -> csr_array:
    """Directed graph on the T1 nodes (0..x-1), the T2 nodes (x..) and one
    sink per block (last): every T1 node points to its neighbours, every
    matched T2 node to its mate, every free T2 node to its block's sink, and
    each sink to every T1 node of its block.  The graph is ``blocks`` equal,
    consecutive components, and a T1 node reaches its block's sink iff an
    alternating path from it ends in a free T2 node."""
    from scipy.sparse import csr_array

    x = indptr.size - 1
    sinks = x + size_t2
    mates = sinks + np.arange(size_t2, dtype=np.int32) // (size_t2 // blocks)
    rows = np.flatnonzero(matched >= 0).astype(np.int32)
    mates[matched[rows]] = rows
    edges = indptr[-1]
    return csr_array(
        (
            np.ones(edges + size_t2 + x),
            np.concatenate((indices + x, mates, np.arange(x, dtype=np.int32))),
            np.concatenate(
                (
                    indptr,
                    np.arange(1, size_t2 + 1, dtype=np.int32) + edges,
                    np.arange(1, blocks + 1, dtype=np.int32) * (x // blocks) + edges + size_t2,
                )
            ),
        ),
        shape=(sinks + blocks, sinks + blocks),
    )


def _clone_fits(graph: csr_array, x: int, blocks: int) -> np.ndarray:
    """Per T1 node u of a matching that saturates u's block, given its
    :func:`_alternating_graph`: can a clone of u (same neighbours) be matched
    too?  It can iff u reaches its block's sink, and as that sink reaches
    every T1 node of the block, iff u shares the sink's strong component: one
    compiled linear-time call decides every u of every block, whatever the
    depth of the alternating paths."""
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(graph, directed=True, connection="strong")
    return labels[:x] == np.repeat(labels[-blocks:], x // blocks)


def _misfits(
    indptr: np.ndarray, indices: np.ndarray, size_t2: int, r: int, matched: np.ndarray, blocks: int = 1
) -> np.ndarray:
    """Per T1 node, given a maximum matching: is it unmatched, or, for
    r >= 1 in a block the matching saturates, does no clone of it fit?  A
    block passes the test at r <= 1 iff none of its nodes is a misfit, and
    passes it at r >= 2 only if so."""
    misfit = matched < 0
    if r >= 1 and not misfit.reshape(blocks, -1).any(axis=1).all():
        misfit |= ~_clone_fits(_alternating_graph(indptr, indices, matched, size_t2, blocks), indptr.size - 1, blocks)
    return misfit


def _fit_clones(
    adj: Sequence[Sequence[int]], mate: list[int], root: int, cap: int
) -> tuple[int, Optional[tuple[int, ...]]]:
    """How many clones of node ``root`` (same neighbours) can be matched one
    after another on top of ``mate``, a matching of the other nodes (and
    perhaps of ``root``), counting up to ``cap``?  Searches on a copy of
    ``mate``.  Each success augments a maximum matching, so a count below
    the cap is exact, and it comes with the failed search's Hall witness: a
    set S containing root with |N(S)| = |S| + count - 1 when root is
    unmatched in ``mate``, |S| + count when it is matched."""
    trial = list(mate)
    for count in range(cap):
        witness = _alternating_search(adj, trial, root)
        if witness is not None:
            return count, witness
    return cap, None


def _clone_shortfall(adj: Sequence[Sequence[int]], mate: list[int], r: int) -> Optional[tuple[int, ...]]:
    """Given a T1-saturating matching: the Hall witness of the first node of
    which fewer than r clones fit on top, or None when every node takes r."""
    for u in range(len(adj)):
        witness = _fit_clones(adj, mate, u, r)[1]
        if witness is not None:
            return witness
    return None


def _defect_at_least(
    indptr: np.ndarray, indices: np.ndarray, size_t2: int, r: int
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Matching-based exact test of |N(S)| >= |S| + r for all nonempty S, on a
    CSR biadjacency: the one-block case of :func:`block_defects_at_least`,
    plus a Hall witness.

    Given a T1-saturating matching, node u survives r clones of itself being
    matched iff no subset containing u is tighter than r.  One compiled base
    matching decides r = 0 and one compiled strong-component pass decides
    r = 1 for every node at once; only for r >= 2, or to name the Hall
    witness of a node that fails, does an alternating search run, from that
    node on a copy of the base matching.
    """
    if r < 0:
        raise ValueError("defect threshold must be nonnegative")
    matched = _hopcroft_karp(indptr, indices, size_t2)
    misfits = np.flatnonzero(_misfits(indptr, indices, size_t2, r, matched))
    if misfits.size:
        return False, _alternating_search(_tuples(indptr, indices), _mate(matched, size_t2), int(misfits[0]))
    if r <= 1:
        return True, None
    witness = _clone_shortfall(_tuples(indptr, indices), _mate(matched, size_t2), r)
    return witness is None, witness


def defect_at_least(g: BipartiteGraph, r: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exact boolean test ``expansion_defect(g) >= r`` (r >= 0) with witness.

    Works on the graph's CSR and never builds ``g.adj``: one compiled
    matching decides r = 0, and one compiled strong-component pass, linear in
    the edges whatever the depth of the alternating paths, decides r = 1.  On
    a failure the witness is a subset S with |N(S)| - |S| < r.
    """
    return _defect_at_least(g.indptr, g.indices, g.size_t2, r)


def block_defects_at_least(g: BipartiteGraph, blocks: int, r: int) -> np.ndarray:
    """Per block, the verdict of :func:`defect_at_least` at r, for a graph
    made of ``blocks`` equal, consecutive components: block b (from 0) holds
    T1 nodes b*x + 1..(b + 1)*x and T2 nodes b*y + 1..(b + 1)*y, with
    x = size_t1 / blocks and y = size_t2 / blocks.  A split that is not
    even, or an edge between two blocks, is refused.

    A maximum matching of the union is one of every block, so one compiled
    matching decides r = 0 for every block, and one compiled
    strong-component pass, with a sink per block, decides r = 1.  For
    r >= 2, each block that passes r = 1 runs the clone searches of
    :func:`defect_at_least` on its part of that matching.
    """
    if r < 0:
        raise ValueError("defect threshold must be nonnegative")
    if blocks < 1 or g.size_t1 % blocks or g.size_t2 % blocks:
        raise ValueError(f"cannot split {g.size_t1} T1 and {g.size_t2} T2 nodes into {blocks} equal blocks")
    x, y = g.size_t1 // blocks, g.size_t2 // blocks
    if (np.repeat(np.arange(blocks), np.diff(g.indptr[::x])) != g.indices // y).any():
        raise ValueError("an edge joins two blocks")
    matched = _hopcroft_karp(g.indptr, g.indices, g.size_t2)
    ok = ~_misfits(g.indptr, g.indices, g.size_t2, r, matched, blocks).reshape(blocks, x).any(axis=1)
    if r >= 2:
        for b in np.flatnonzero(ok).tolist():
            lo, hi = g.indptr[b * x], g.indptr[(b + 1) * x]
            adj = _tuples(g.indptr[b * x : (b + 1) * x + 1] - lo, g.indices[lo:hi] - b * y)
            ok[b] = _clone_shortfall(adj, _mate(matched[b * x : (b + 1) * x] - b * y, y), r) is None
    return ok


def expansion_defect(g: BipartiteGraph) -> tuple[int, tuple[int, ...]]:
    """min over nonempty S ⊆ T1 of |N(S)| - |S|, with an argmin witness.

    If a maximum matching of size ν leaves T1 nodes free, the defect is
    ν - |T1| (König), and the witness is every T1 node that an alternating
    path reaches from a free one: one search from a virtual root that sees
    every free node's neighbours.  Otherwise the defect is the least number
    of clones that fit on top of the matching, over all T1 nodes.  The
    strong-component pass of :func:`defect_at_least` finds a node that takes
    none; if there is none, one pass counts each node's clones on a copy of
    the base matching, stopping at the least count so far, and the witness
    is the Hall set of the search that set the final least count.
    """
    matched = _hopcroft_karp(g.indptr, g.indices, g.size_t2)
    mate = _mate(matched, g.size_t2)
    free = np.flatnonzero(matched < 0).tolist()
    if free:
        root = tuple(itertools.chain.from_iterable(g.adj[u] for u in free))
        reached = _alternating_search(g.adj + (root,), mate, g.size_t1)
        return -len(free), tuple(sorted({u + 1 for u in free}.union(reached[:-1])))
    misfits = np.flatnonzero(_misfits(g.indptr, g.indices, g.size_t2, 1, matched))
    if misfits.size:
        return 0, _alternating_search(g.adj, mate, int(misfits[0]))
    # Every node takes one clone, so the pass can stop at a count of 1, and
    # none takes more than size_t2 - size_t1, so the first node sets a count
    # and a witness.
    best, witness = g.size_t2 - g.size_t1 + 1, None
    for u in range(g.size_t1):
        if best == 1:
            break
        count, found = _fit_clones(g.adj, mate, u, best)
        if found is not None:
            best, witness = count, found
    return best, witness


# ---------------------------------------------------------------------------
# Degree-(r+1) spanning subgraph construction


def _thin(g: BipartiteGraph, r: int, s0: Optional[frozenset[int]] = None) -> BipartiteGraph:
    """One greedy edge-deletion pass.  T1 nodes and their edges are walked in
    ascending order, and edge (u, v) is deleted while deg(u) > r + 1 if the
    graph without it keeps margin r (and, given S0, a perfect matching of T1
    into S0).  With u unmatched and every other node matched, the margin
    holds iff r + 1 clones of u can be matched on top (Hall), and the S0
    matching survives iff u can be matched into S0 again: each candidate
    costs r + 2 alternating searches.

    Why one pass leaves every T1 degree at exactly r + 1: both properties
    are closed under adding edges, so an edge kept once is still needed
    after later deletions, and the result is inclusion-minimal.  Suppose u
    keeps deg(u) >= r + 2.  Every perfect matching into S0 uses one edge of
    u, so at most one of u's edges is needed for it, and each of the others
    (r + 1 or more; all of them without S0), (u, v), is needed for the
    margin: some set S containing u is tight (|N(S)| = |S| + r) and no
    other node of S sees v.  Tight sets through u are closed under
    intersection (|N(.)| - |.| is submodular and at least r on both the meet
    and the join), so their intersection S* is tight, and those neighbours
    are private to u in S*.  S* = {u} would make deg(u) = r + 1, and
    otherwise |N(S* - u)| <= |S*| + r - (r + 1) = |S* - u|, short of the
    margin for r >= 1, and short by one more without S0, which covers
    r = 0.  With S0 and r = 0 the S0 matching implies the margin, so the
    minimal graph is that matching alone, of degree 1.
    """
    # One view of the graph per property: the whole graph, whose matching
    # must take r + 1 clones of u, and its part inside S0, which must match u.
    views = [(list(g.adj), r + 1)]
    if s0 is not None:
        views.append(([tuple(v for v in nbrs if v in s0) for nbrs in g.adj], 1))
    mates = [_mate(_hopcroft_karp(*_csr(adj), g.size_t2), g.size_t2) for adj, _ in views]
    kept = views[0][0]
    for u, nbrs in enumerate(g.adj):
        for mate in mates:
            for v in nbrs:
                if mate[v] == u:
                    mate[v] = -1
        for v in nbrs:
            if len(kept[u]) == r + 1:
                break
            rows = [adj[u] for adj, _ in views]
            for adj, _ in views:
                adj[u] = tuple(w for w in adj[u] if w != v)
            if not all(_fit_clones(adj, mate, u, copies)[0] == copies for (adj, copies), mate in zip(views, mates)):
                for (adj, _), row in zip(views, rows):
                    adj[u] = row
        for (adj, _), mate in zip(views, mates):
            _alternating_search(adj, mate, u)
    return BipartiteGraph(size_t1=g.size_t1, size_t2=g.size_t2, adj=kept)


def generalized_hall_subgraph(g: BipartiteGraph, r: int) -> BipartiteGraph:
    """Spanning subgraph with every T1 degree exactly r+1 and expansion defect
    still >= r.  Requires size_t2 = size_t1 + r and defect(g) >= r."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if g.size_t2 != g.size_t1 + r:
        raise HallPreconditionError(
            f"need size_t2 = size_t1 + r, got {g.size_t2} != {g.size_t1} + {r}"
        )
    ok, witness = defect_at_least(g, r)
    if not ok:
        raise HallPreconditionError(f"expansion defect below {r}", witness=witness)
    return _thin(g, r)


def lemma_match_subgraph(g: BipartiteGraph, r: int, s0: Sequence[int]) -> BipartiteGraph:
    """As :func:`generalized_hall_subgraph` (sizes may differ), additionally
    containing a perfect matching between T1 and the given S0 ⊆ T2."""
    s0 = frozenset(int(v) for v in s0)
    outside = sorted(v for v in s0 if not 1 <= v <= g.size_t2)
    if outside:
        raise HallPreconditionError(f"S0 label {outside[0]} is outside 1..{g.size_t2}")
    if len(s0) != g.size_t1:
        raise HallPreconditionError("S0 must have exactly one node per T1 node")
    ok, witness = _defect_at_least(*_csr([tuple(v for v in nbrs if v in s0) for nbrs in g.adj]), g.size_t2, 0)
    if not ok:
        raise HallPreconditionError("some subset has too few S0-neighbors", witness=witness)
    ok, witness = defect_at_least(g, r)
    if not ok:
        raise HallPreconditionError(f"expansion defect below {r}", witness=witness)
    return _thin(g, r, s0)


def lemma_omega_transform(columns: Sequence[Iterable[int]], num_rows: int, r: int) -> list[frozenset[int]]:
    """Thin binary columns down to exactly r+1 ones per column while keeping
    the property that any t columns together touch at least t + r rows.

    `columns` are row-index sets over 1..num_rows, with len(columns) = num_rows - r.
    """
    cols = [tuple(sorted(set(c))) for c in columns]
    if len(cols) != num_rows - r:
        raise HallPreconditionError(
            f"expected {num_rows - r} columns for {num_rows} rows at margin {r}"
        )
    for c in cols:
        if len(c) < r + 1:
            raise HallPreconditionError("every column needs at least r+1 ones")
    g = BipartiteGraph(size_t1=len(cols), size_t2=num_rows, adj=tuple(cols))
    thinned = generalized_hall_subgraph(g, r)
    return [frozenset(nbrs) for nbrs in thinned.adj]
