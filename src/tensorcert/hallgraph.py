"""Bipartite expansion toolkit: matchings, expansion defect, and degree-thinned
spanning subgraphs that preserve a Hall-type expansion margin.

The central construction: given a graph on (T1, T2) in which every nonempty
S ⊆ T1 satisfies ``|N(S)| >= |S| + r``, produce a spanning subgraph where every
T1 node keeps exactly ``r + 1`` edges and the same expansion margin still
holds (optionally with a perfect matching of T1 into a given S0 ⊆ T2).  One
greedy pass deletes every edge whose loss keeps the margin, tested by
matching r + 1 clones of its T1 node on top of a matching of the others; the
result is inclusion-minimal, and minimality forces degree r + 1.

A graph is a frozen dataclass that keeps only its sizes and its neighbour
lists, normalized from any iterable of rows.  Every matching runs on one
primitive, :func:`_search`: an iterative depth-first alternating search over
the T2 sets packed into Python ints (bit v - 1 for T2 node v), so each step
is one word-parallel AND and no search recurses on the size of the graph.
``_match`` is Kuhn's algorithm: a greedy pass gives each T1 node its lowest
free T2 node, and one search per node it leaves makes the matching maximum.
The defect test decides r = 0 from that matching, r = 1 from one walk that
grows the set of T2 nodes from which an alternating path reaches a free one,
and r >= 2 by counting the clones of each node that fit on top.  The exact
defect is König's deficiency when T1 cannot be matched, and otherwise the
least number of clones of a T1 node that fit on top of the matching: every
operation is polynomial.

Two tests need no graph, for the Monte Carlo trials: ``degrees_prove_margin``
proves the margin of many trials from their degree counts alone, and
``member_defect_at_least`` runs the defect test on one trial's bool
membership array, packed row by row.  The module loads numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "BipartiteGraph",
    "HallPreconditionError",
    "max_matching",
    "expansion_defect",
    "defect_at_least",
    "member_defect_at_least",
    "degrees_prove_margin",
    "generalized_hall_subgraph",
    "lemma_match_subgraph",
    "lemma_omega_transform",
]

class HallPreconditionError(ValueError):
    """An expansion precondition failed; carries a witness subset when known."""

    def __init__(self, message: str, witness: Optional[tuple[int, ...]] = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class BipartiteGraph:
    """Adjacency from T1 nodes (1..size_t1) to T2 nodes (1..size_t2): ``adj``
    holds each T1 node's neighbours as a sorted, duplicate-free tuple of ints.

    ``adj`` may be given as any iterable of neighbour rows, a 2-D integer
    array included, each row in any order and with repeats."""

    size_t1: int
    size_t2: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.size_t1 < 1 or self.size_t2 < 1:
            raise ValueError("both node sets must be nonempty")
        adj = tuple(tuple(sorted(set(map(int, nbrs)))) for nbrs in self.adj)
        if len(adj) != self.size_t1:
            raise ValueError("need one neighbor list per T1 node")
        if any(ns and not (1 <= ns[0] and ns[-1] <= self.size_t2) for ns in adj):
            raise ValueError("neighbor index out of range")
        object.__setattr__(self, "adj", adj)


def _adj_sets(adj: Sequence[Sequence[int]]) -> list[int]:
    """Each T1 node's T2 set packed into one int: bit v - 1 for T2 node v."""
    return [sum(1 << (v - 1) for v in nbrs) for nbrs in adj]


def _member_sets(member: np.ndarray) -> list[int]:
    """:func:`_adj_sets` of the graph in which T1 node u + 1 sees T2 node
    v + 1 iff ``member[u, v]``, packed from the bool array in one pass."""
    width = (member.shape[1] + 7) // 8
    packed = np.packbits(member, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[at : at + width], "little") for at in range(0, member.shape[0] * width, width)]


# ---------------------------------------------------------------------------
# Matching


def _search(sets: Sequence[int], mate: list[int], target: int, root: int) -> tuple[bool, list[int]]:
    """Depth-first search for an alternating path from T1 node ``root`` to a
    T1 node whose T2 set meets ``target``.  T1 nodes are 0-based, T2 nodes
    are the bits of ``sets``, and ``mate`` maps each T2 node to its T1 node
    (-1 when free).  ``target`` must hold every free T2 node, so each T2
    node the search steps to has a mate; each step takes the lowest T2 node
    the search has not seen.  ``root`` may already hold several T2 nodes:
    clones of one node share its id.

    Returns (True, path) on success: the T2 nodes stepped to, in order, then
    the lowest target node the last T1 node on the path sees.  On failure
    returns (False, reached): root and the mates of every T2 node seen,
    sorted, a set whose neighbourhood is exactly the T2 nodes seen.
    """
    hit = sets[root] & target
    nodes, path, seen = [root], [], 0
    while not hit:
        fresh = sets[nodes[-1]] & ~seen
        if fresh:
            low = fresh & -fresh
            seen |= low
            v = low.bit_length() - 1
            w = mate[v]
            path.append(v)
            nodes.append(w)
            hit = sets[w] & target
        elif path:
            nodes.pop()
            path.pop()
        else:
            reached = {root}
            while seen:
                low = seen & -seen
                reached.add(mate[low.bit_length() - 1])
                seen ^= low
            return False, sorted(reached)
    path.append((hit & -hit).bit_length() - 1)
    return True, path


def _augment(sets: Sequence[int], mate: list[int], free: int, root: int) -> tuple[int, Optional[list[int]]]:
    """Match ``root`` (or one more clone of it) by a :func:`_search` for a
    free T2 node, flipping the path into ``mate``.  Returns the free set
    left and None, or ``free`` as it was and the T1 nodes the failed search
    reached."""
    found, nodes = _search(sets, mate, free, root)
    if not found:
        return free, nodes
    w = root
    for v in nodes:
        mate[v], w = w, mate[v]
    return free ^ (1 << nodes[-1]), None


def _match(sets: Sequence[int], size_t2: int) -> tuple[list[int], int, dict[int, list[int]]]:
    """Kuhn's maximum matching: a greedy pass gives each T1 node its lowest
    free T2 node, and each node it leaves gets one :func:`_augment`; a node
    that fails then has no augmenting path in any later matching either.
    Returns ``mate`` (T2 node -> T1 node, -1 when free), the free T2 set,
    and per T1 node left unmatched, ascending, the nodes its search reached:
    a set S with |N(S)| = |S| - 1."""
    mate = [-1] * size_t2
    free = (1 << size_t2) - 1
    left = []
    for u, row in enumerate(sets):
        hit = row & free
        if hit:
            low = hit & -hit
            free ^= low
            mate[low.bit_length() - 1] = u
        else:
            left.append(u)
    misses = {}
    for u in left:
        free, missed = _augment(sets, mate, free, u)
        if missed is not None:
            misses[u] = missed
    return mate, free, misses


def max_matching(g: BipartiteGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Maximum-cardinality matching (Kuhn's algorithm).

    Returns (size, pairs) with pairs as (t1, t2), sorted by t1.
    """
    mate = _match(_adj_sets(g.adj), g.size_t2)[0]
    pairs = sorted((u + 1, v + 1) for v, u in enumerate(mate) if u >= 0)
    return len(pairs), tuple(pairs)


# ---------------------------------------------------------------------------
# Expansion defect


def _clones(sets: Sequence[int], mate: list[int], free: int, root: int, cap: int) -> tuple[int, Optional[list[int]]]:
    """How many clones of node ``root`` (same neighbours) can be matched one
    after another on top of ``mate``, a matching of the other nodes (and
    perhaps of ``root``), counting up to ``cap``?  Augments a copy of
    ``mate``.  Each success augments a maximum matching, so a count below
    the cap is exact, and it comes with the failed search's Hall witness: a
    set S containing root with |N(S)| = |S| + count - 1 when root is
    unmatched in ``mate``, |S| + count when it is matched."""
    trial = list(mate)
    for count in range(cap):
        free, missed = _augment(sets, trial, free, root)
        if missed is not None:
            return count, missed
    return cap, None


def _clone_misfit(sets: Sequence[int], mate: list[int], free: int) -> Optional[list[int]]:
    """Given a T1-saturating matching: the Hall witness (|N(S)| = |S|) of the
    first T1 node no clone of which fits on top, or None when every node
    takes one.  A clone of u fits iff u's set meets ``good``, the T2 nodes
    from which an alternating path leads to a free one.  It starts as the
    free set, and the T1 nodes are walked in order: a node whose set meets
    it adds its own T2 node, and any other runs one :func:`_search` for it,
    whose whole path joins it on success."""
    matched = [0] * len(sets)
    for v, u in enumerate(mate):
        if u >= 0:
            matched[u] = v
    good = free
    for u, row in enumerate(sets):
        if not row & good:
            found, nodes = _search(sets, mate, good, u)
            if not found:
                return nodes
            for v in nodes:
                good |= 1 << v
        good |= 1 << matched[u]
    return None


def _shortfall(sets: Sequence[int], size_t2: int, r: int) -> Optional[list[int]]:
    """Exact test of |N(S)| >= |S| + r for every nonempty S ⊆ T1 (r >= 0):
    None when it holds, else a set S (0-based) with |N(S)| < |S| + r.

    A maximum matching decides r = 0, the walk of :func:`_clone_misfit`
    decides r = 1, and for r >= 2 each node must take r clones on top."""
    if r < 0:
        raise ValueError("defect threshold must be nonnegative")
    mate, free, misses = _match(sets, size_t2)
    if misses:
        return next(iter(misses.values()))
    if r == 0:
        return None
    if r == 1:
        return _clone_misfit(sets, mate, free)
    for u in range(len(sets)):
        missed = _clones(sets, mate, free, u, r)[1]
        if missed is not None:
            return missed
    return None


def defect_at_least(g: BipartiteGraph, r: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exact boolean test ``expansion_defect(g) >= r`` (r >= 0) with witness.

    On a failure the witness is a subset S with |N(S)| - |S| < r.
    """
    missed = _shortfall(_adj_sets(g.adj), g.size_t2, r)
    return missed is None, None if missed is None else tuple(u + 1 for u in missed)


def member_defect_at_least(member: np.ndarray, r: int) -> bool:
    """The verdict of :func:`defect_at_least` at r = 0 or r = 1 on the graph
    in which T1 node u + 1 sees T2 node v + 1 iff ``member[u, v]``, read
    from that ``(size_t1, size_t2)`` bool array (one Monte Carlo trial's
    draw) with no graph: the same test, on sets packed with
    ``np.packbits``."""
    if r not in (0, 1):
        raise ValueError(f"member_defect_at_least decides r = 0 or r = 1, not {r}")
    if member.ndim != 2:
        raise ValueError("need one row of T2 membership per T1 node")
    return _shortfall(_member_sets(member), member.shape[1], r) is None


def degrees_prove_margin(
    size_t1: int, least_t1_degree: np.ndarray | int, t2_degrees: np.ndarray, r: int
) -> np.ndarray:
    """Per block, does the degree count alone prove |N(S)| >= |S| + r for
    every nonempty S ⊆ T1?  Each block has ``size_t1`` T1 nodes; row b of
    ``t2_degrees`` holds block b's T2 degrees (each at most ``size_t1``), and
    ``least_t1_degree`` its least T1 degree (one value for every block, or
    one per block).  True proves the margin; False decides nothing.

    Proof: N(S) holds the neighbours of any node of S, and misses T2 node v
    only if no node of S sees v, which takes |S| of the size_t1 - deg(v)
    nodes that miss v.  So with s = |S| and y T2 nodes,
    |N(S)| >= max(least T1 degree, y - #{v : size_t1 - deg(v) >= s}), and a
    block where that is at least s + r for every s = 1..size_t1 passes.
    """
    if r < 0:
        raise ValueError("defect threshold must be nonnegative")
    t2_degrees = np.asarray(t2_degrees, dtype=np.intp)
    if t2_degrees.ndim != 2:
        raise ValueError("need one row of T2 degrees per block")
    blocks, y = t2_degrees.shape
    misses = size_t1 - t2_degrees
    if misses.size and not (misses.min() >= 0 and misses.max() <= size_t1):
        raise ValueError(f"a T2 degree lies outside 0..{size_t1}")
    # missing[b, s]: how many T2 nodes of block b at least s T1 nodes miss.
    offsets = np.arange(blocks)[:, None] * (size_t1 + 1)
    counts = np.bincount((misses + offsets).ravel(), minlength=blocks * (size_t1 + 1)).reshape(blocks, size_t1 + 1)
    missing = counts[:, ::-1].cumsum(axis=1)[:, ::-1]
    covered = np.maximum(np.reshape(least_t1_degree, (-1, 1)), y - missing[:, 1:])
    return (covered >= np.arange(1 + r, size_t1 + 1 + r)).all(axis=1)


def expansion_defect(g: BipartiteGraph) -> tuple[int, tuple[int, ...]]:
    """min over nonempty S ⊆ T1 of |N(S)| - |S|, with an argmin witness.

    If a maximum matching of size ν leaves T1 nodes free, the defect is
    ν - |T1| (König), and the witness is every T1 node that an alternating
    path reaches from a free one: one search from a virtual root whose set
    is the union of the free nodes' sets.  Otherwise the defect is the least
    number of clones that fit on top of the matching, over all T1 nodes.
    The walk of :func:`_clone_misfit` finds a node that takes none; if there
    is none, one pass counts each node's clones on a copy of the matching,
    stopping at the least count so far, and the witness is the Hall set of
    the search that set the final least count.
    """
    sets = _adj_sets(g.adj)
    mate, free, misses = _match(sets, g.size_t2)
    if misses:
        root = 0
        for u in misses:
            root |= sets[u]
        # The search fails (the matching is maximum); the virtual root,
        # node size_t1, sorts last among the nodes it reached.
        reached = _search([*sets, root], mate, free, g.size_t1)[1]
        return -len(misses), tuple(sorted({u + 1 for u in misses}.union(w + 1 for w in reached[:-1])))
    missed = _clone_misfit(sets, mate, free)
    if missed is not None:
        return 0, tuple(u + 1 for u in missed)
    # Every node takes one clone, so the pass can stop at a count of 1, and
    # none takes more than size_t2 - size_t1, so the first node sets a count
    # and a witness.
    best, witness = g.size_t2 - g.size_t1 + 1, None
    for u in range(g.size_t1):
        if best == 1:
            break
        count, missed = _clones(sets, mate, free, u, best)
        if missed is not None:
            best, witness = count, tuple(w + 1 for w in missed)
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
    # must take r + 1 clones of u, and its part inside S0, which must match
    # u.  Deleting an edge clears one bit of u's set in every view.
    kept = _adj_sets(g.adj)
    views, copies = [kept], [r + 1]
    if s0 is not None:
        inside = sum(1 << (v - 1) for v in s0)
        views.append([row & inside for row in kept])
        copies.append(1)
    mates, frees = [], []
    for view in views:
        mate, free, _ = _match(view, g.size_t2)
        mates.append(mate)
        frees.append(free)
    for u in range(g.size_t1):
        for k, mate in enumerate(mates):
            v = mate.index(u)
            mate[v] = -1
            frees[k] |= 1 << v
        edges = kept[u]
        while edges and kept[u].bit_count() > r + 1:
            bit = edges & -edges
            edges ^= bit
            rows = [view[u] for view in views]
            for view in views:
                view[u] &= ~bit
            if any(_clones(view, mate, free, u, c)[0] < c for view, mate, free, c in zip(views, mates, frees, copies)):
                for view, row in zip(views, rows):
                    view[u] = row
        for k, (view, mate) in enumerate(zip(views, mates)):
            frees[k] = _augment(view, mate, frees[k], u)[0]
    adj = [tuple(v for v in nbrs if kept[u] >> (v - 1) & 1) for u, nbrs in enumerate(g.adj)]
    return BipartiteGraph(size_t1=g.size_t1, size_t2=g.size_t2, adj=adj)


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
    inside = BipartiteGraph(g.size_t1, g.size_t2, [tuple(v for v in nbrs if v in s0) for nbrs in g.adj])
    ok, witness = defect_at_least(inside, 0)
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
