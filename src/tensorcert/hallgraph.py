"""Bipartite expansion toolkit: matchings, expansion defect, and degree-thinned
spanning subgraphs that preserve a Hall-type expansion margin.

The central construction: given a graph on (T1, T2) in which every nonempty
S ⊆ T1 satisfies ``|N(S)| >= |S| + r``, produce a spanning subgraph where every
T1 node keeps exactly ``r + 1`` edges and the same expansion margin still
holds.  The recursive splitting strategy (peel off a tight set, or remove one
vertex) leaves the retained-edge choice for the removed vertex underdetermined,
so every construction is verified against the postconditions and falls back to
a complete backtracking search when the quick choice breaks the margin.

A graph is kept as one CSR biadjacency, built in one numpy pass from a
drawn 2-D array.  Matchings come from scipy's compiled Hopcroft-Karp on that
CSR; the defect test decides r = 0 from that one base matching and r = 1 from
one compiled strong-component pass, and extends the matching by iterative
alternating searches only for r >= 2 or to name a Hall witness, so no
matching or defect test recurses on the size of the graph.  The thinning
code tests each candidate edge choice by matching its clones on top of the
rest's matching, with alternating searches in Python on its small graphs.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

__all__ = [
    "BipartiteGraph",
    "HallPreconditionError",
    "max_matching",
    "expansion_defect",
    "defect_at_least",
    "generalized_hall_subgraph",
    "lemma_match_subgraph",
    "lemma_omega_transform",
]

BRUTE_FORCE_GUARD = 20


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
            rows = np.sort(adj, axis=1)
            if rows.size and not (rows[:, 0].min() >= 1 and rows[:, -1].max() <= size_t2):
                raise ValueError("neighbor index out of range")
            if (rows[:, 1:] == rows[:, :-1]).any():
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

    def masks(self) -> list[int]:
        return [_to_mask(nbrs) for nbrs in self.adj]


def _csr(adj: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of 1-based neighbour lists, 0-based indices."""
    indptr = np.fromiter(itertools.accumulate(map(len, adj), initial=0), dtype=np.int32, count=len(adj) + 1)
    indices = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.int32, count=indptr[-1]) - 1
    return indptr, indices


def _tuples(indptr: np.ndarray, indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The 1-based neighbour lists of a CSR biadjacency."""
    flat = (indices + 1).tolist()
    return tuple(tuple(flat[a:b]) for a, b in itertools.pairwise(indptr.tolist()))


def _to_mask(neighbors: Iterable[int]) -> int:
    m = 0
    for v in neighbors:
        m |= 1 << (v - 1)
    return m


def _from_mask(mask: int) -> tuple[int, ...]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _mask_width(masks: Sequence[int]) -> int:
    return max(1, max((m.bit_length() for m in masks), default=0))


# ---------------------------------------------------------------------------
# Matching


def _hopcroft_karp(indptr: np.ndarray, indices: np.ndarray, size_t2: int) -> np.ndarray:
    """Maximum matching (Hopcroft-Karp, compiled in scipy) of a CSR
    biadjacency: per T1 node its matched 0-based T2 index, or -1."""
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


def _defect_brute(masks: Sequence[int], limit: Optional[int] = None) -> tuple[int, tuple[int, ...]]:
    """Exact min over nonempty S of |N(S)| - |S|, by subset enumeration."""
    x = len(masks)
    if x > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute-force defect limited to |T1| <= {BRUTE_FORCE_GUARD}")
    best = None
    best_set: tuple[int, ...] = ()
    # Union-of-neighborhoods DP over subset bitmasks of T1.
    union = [0] * (1 << x)
    for s in range(1, 1 << x):
        low = s & -s
        union[s] = union[s ^ low] | masks[low.bit_length() - 1]
        value = union[s].bit_count() - s.bit_count()
        if best is None or value < best:
            best = value
            best_set = tuple(i + 1 for i in range(x) if s >> i & 1)
            if limit is not None and best < limit:
                return best, best_set
    assert best is not None
    return best, best_set


def expansion_defect(g: BipartiteGraph) -> tuple[int, tuple[int, ...]]:
    """min over nonempty S ⊆ T1 of |N(S)| - |S|, with an argmin witness."""
    return _defect_brute(g.masks())


def _alternating_graph(indptr: np.ndarray, indices: np.ndarray, matched: np.ndarray, size_t2: int) -> csr_array:
    """Directed graph on the T1 nodes (0..x-1), the T2 nodes (x..) and a sink
    (last): every T1 node points to its neighbours, every matched T2 node to
    its mate, every free T2 node to the sink, and the sink to every T1 node.
    A T1 node reaches the sink iff an alternating path from it ends in a free
    T2 node."""
    x = indptr.size - 1
    sink = x + size_t2
    mates = np.full(size_t2, sink, dtype=np.int32)
    rows = np.flatnonzero(matched >= 0).astype(np.int32)
    mates[matched[rows]] = rows
    edges = indptr[-1]
    return csr_array(
        (
            np.ones(edges + size_t2 + x),
            np.concatenate((indices + x, mates, np.arange(x, dtype=np.int32))),
            np.concatenate((indptr, np.arange(1, size_t2 + 1, dtype=np.int32) + edges, [edges + size_t2 + x])),
        ),
        shape=(sink + 1, sink + 1),
    )


def _clone_fits(graph: csr_array, x: int) -> np.ndarray:
    """Per T1 node u of a T1-saturating matching, given its
    :func:`_alternating_graph`: can a clone of u (same neighbours) be matched
    too?  It can iff u reaches the sink, and as the sink reaches every T1
    node, iff u shares the sink's strong component: one compiled linear-time
    call decides every u, whatever the depth of the alternating paths."""
    _, labels = connected_components(graph, directed=True, connection="strong")
    return labels[:x] == labels[-1]


def _defect_at_least(
    indptr: np.ndarray, indices: np.ndarray, size_t2: int, r: int, matched: Optional[np.ndarray] = None
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Matching-based exact test of |N(S)| >= |S| + r for all nonempty S, on a
    CSR biadjacency and optionally its precomputed base matching.

    Given a T1-saturating matching, node u survives r clones of itself being
    matched iff no subset containing u is tighter than r.  One compiled base
    matching decides r = 0 and one compiled strong-component pass decides
    r = 1 for every node at once; only for r >= 2, or to name the Hall
    witness of a node that fails, does an alternating search run, from that
    node on a copy of the base matching.
    """
    if r < 0:
        raise ValueError("defect threshold must be nonnegative")
    x = indptr.size - 1
    if not x:
        return True, None
    if matched is None:
        matched = _hopcroft_karp(indptr, indices, size_t2)
    misfits = np.flatnonzero(matched < 0)
    if not misfits.size and r >= 1:
        misfits = np.flatnonzero(~_clone_fits(_alternating_graph(indptr, indices, matched, size_t2), x))
    if misfits.size:
        return False, _alternating_search(_tuples(indptr, indices), _mate(matched, size_t2), int(misfits[0]))
    if r <= 1:
        return True, None
    adj = _tuples(indptr, indices)
    mate = _mate(matched, size_t2)
    for u in range(len(adj)):
        trial = list(mate)
        for _ in range(r):
            witness = _alternating_search(adj, trial, u)
            if witness is not None:
                return False, witness
    return True, None


def _masks_defect_at_least(masks: Sequence[int], r: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """:func:`_defect_at_least` on neighbourhood bitmasks (thinning code)."""
    return _defect_at_least(*_csr([_from_mask(m) for m in masks]), _mask_width(masks), r)


def defect_at_least(g: BipartiteGraph, r: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exact boolean test ``expansion_defect(g) >= r`` (r >= 0) with witness.

    Works on the graph's CSR and never builds ``g.adj``: one compiled
    matching decides r = 0, and one compiled strong-component pass, linear in
    the edges whatever the depth of the alternating paths, decides r = 1.  On
    a failure the witness is a subset S with |N(S)| - |S| < r.  Cross-checked
    against the brute-force enumeration in tests; preferred for graphs beyond
    the brute-force guard.
    """
    return _defect_at_least(g.indptr, g.indices, g.size_t2, r)


# ---------------------------------------------------------------------------
# Degree-(r+1) spanning subgraph construction


class _ConstructFailed(Exception):
    pass


def _perfect_matching_into(adj_masks: Sequence[int], allowed_mask: int) -> Optional[list[int]]:
    """Match every T1 node to a distinct T2 node within allowed_mask; returns
    per-node matched T2 label (1-based) or None."""
    allowed = [m & allowed_mask for m in adj_masks]
    matched = _hopcroft_karp(*_csr([_from_mask(m) for m in allowed]), _mask_width(allowed))
    return None if (matched < 0).any() else (matched + 1).tolist()


def _lowest_bits(mask: int, k: int) -> int:
    out = 0
    while k > 0 and mask:
        low = mask & -mask
        out |= low
        mask ^= low
        k -= 1
    if k > 0:
        raise _ConstructFailed("node degree below r+1")
    return out


def _find_tight_set(masks: Sequence[int], r: int, within_mask: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Smallest (then lexicographically first) proper nonempty S ⊆ T1 with
    |N(S)| == |S| + r; neighborhoods optionally restricted to within_mask."""
    x = len(masks)
    for size in range(1, x):
        for combo in itertools.combinations(range(x), size):
            union = 0
            for i in combo:
                union |= masks[i] if within_mask is None else masks[i] & within_mask
            if union.bit_count() == size + r:
                return combo
    return None


def _construct(masks: list[int], r: int) -> list[int]:
    """Recursive peel: returns per-node retained-edge masks (degree r+1)."""
    x = len(masks)
    if x == 0:
        return []
    if x == 1:
        return [_lowest_bits(masks[0], r + 1)]
    tight = _find_tight_set(masks, r)
    if tight is not None:
        tight_set = set(tight)
        hull = 0
        for i in tight:
            hull |= masks[i]
        inner = _construct([masks[i] & hull for i in tight], r)
        rest = [i for i in range(x) if i not in tight_set]
        rest_masks = [masks[i] for i in rest]
        # Pin the complement onto fresh T2 nodes via a matching, then thin it
        # while keeping that matching inside the retained edges.
        matched = _perfect_matching_into(rest_masks, ~hull)
        if matched is None:
            raise _ConstructFailed("no matching outside the tight hull")
        s0_mask = _to_mask(matched)
        outer = _lemma_match(rest_masks, r, s0_mask)
        result = [0] * x
        for pos, i in enumerate(tight):
            result[i] = inner[pos]
        for pos, i in enumerate(rest):
            result[i] = outer[pos]
        return result
    # No proper tight set: drop the lowest-index vertex and recurse.  The
    # peeled vertex's edge choice is underdetermined (an arbitrary choice can
    # land inside a tight neighborhood of the recursed subgraph), so return it
    # the lexicographically first r+1 edges that restore the margin.  When
    # rest keeps margin r, [cand] + rest keeps it iff (Hall) rest plus r + 1
    # clones of cand can all be matched, so each candidate only augments its
    # clones on a copy of rest's base matching.
    rest = _construct(masks[1:], r)
    adj = [_from_mask(m) for m in rest]
    mate = _margin_matching(adj, _mask_width(masks), r)
    if mate is None:
        raise _ConstructFailed("the recursed subgraph misses the margin")
    adj.append(())
    for combo in itertools.combinations(_from_mask(masks[0]), r + 1):
        adj[-1] = combo
        if _clones_fit(adj, mate, len(rest), r + 1):
            return [_to_mask(combo)] + rest
    raise _ConstructFailed("no edge choice for the peeled vertex keeps the margin")


def _margin_matching(adj: list[tuple[int, ...]], width: int, r: int) -> Optional[list[int]]:
    """A matching of every node of ``adj`` (as :func:`_mate` keeps it) if the
    neighbour lists keep margin r, else None.  By Hall they do iff every node
    can be matched and then, for each node, r clones on top.  The thinning
    code's graphs are small, so these searches run in Python rather than pay
    the compiled calls' set-up."""
    mate = [-1] * (width + 1)
    if any(_alternating_search(adj, mate, u) is not None for u in range(len(adj))):
        return None
    if any(not _clones_fit(adj, mate, u, r) for u in range(len(adj))):
        return None
    return mate


def _clones_fit(adj: Sequence[Sequence[int]], mate: list[int], root: int, copies: int) -> bool:
    """Can ``copies`` clones of node ``root`` all be matched on top of
    ``mate``, a matching of the other nodes (and perhaps of ``root``)?
    Searches on a copy of ``mate``."""
    trial = list(mate)
    return all(_alternating_search(adj, trial, root) is None for _ in range(copies))


def _lemma_match(masks: list[int], r: int, s0_mask: int) -> list[int]:
    """Variant that additionally threads a perfect matching into S0."""
    x = len(masks)
    if x == 0:
        return []
    if x == 1:
        anchored = masks[0] & s0_mask
        if not anchored:
            raise _ConstructFailed("no edge into S0")
        u0 = anchored & -anchored
        return [u0 | _lowest_bits(masks[0] & ~u0, r)]
    # Tightness here is measured against S0: |N(S) ∩ S0| == |S|.
    tight = None
    for size in range(1, x):
        found = None
        for combo in itertools.combinations(range(x), size):
            union = 0
            for i in combo:
                union |= masks[i] & s0_mask
            if union.bit_count() == size:
                found = combo
                break
        if found is not None:
            tight = found
            break
    if tight is not None:
        tight_set = set(tight)
        s0_inner = 0
        for i in tight:
            s0_inner |= masks[i] & s0_mask
        inner = _lemma_match([masks[i] for i in tight], r, s0_inner)
        rest = [i for i in range(x) if i not in tight_set]
        outer = _lemma_match([masks[i] for i in rest], r, s0_mask & ~s0_inner)
        result = [0] * x
        for pos, i in enumerate(tight):
            result[i] = inner[pos]
        for pos, i in enumerate(rest):
            result[i] = outer[pos]
        return result
    anchored = masks[0] & s0_mask
    if not anchored:
        raise _ConstructFailed("no edge into S0")
    # As in the plain construction, the peeled vertex's retained edges are
    # underdetermined; scan anchor nodes u0 (lowest first) and edge
    # combinations until the margin and the S0 matching both survive, each
    # tested by matching the vertex's clones on top of rest's matchings.
    width = _mask_width(masks)
    for u0 in (1 << i for i in range(anchored.bit_length()) if anchored >> i & 1):
        try:
            rest = _lemma_match(masks[1:], r, s0_mask & ~u0)
        except _ConstructFailed:
            continue
        adj = [_from_mask(m) for m in rest]
        s0_adj = [_from_mask(m & s0_mask) for m in rest]
        mate = _margin_matching(adj, width, r)
        s0_mate = _margin_matching(s0_adj, width, 0)
        if mate is None or s0_mate is None:
            continue
        adj.append(())
        s0_adj.append(())
        for combo in itertools.combinations(_from_mask(masks[0] & ~u0), r):
            own = u0 | _to_mask(combo)
            adj[-1] = _from_mask(own)
            s0_adj[-1] = _from_mask(own & s0_mask)
            if _clones_fit(adj, mate, len(rest), r + 1) and _clones_fit(s0_adj, s0_mate, len(rest), 1):
                return [own] + rest
    raise _ConstructFailed("no edge choice for the peeled vertex keeps the margin")


def _verify(masks: Sequence[int], chosen: Sequence[int], r: int, s0_mask: Optional[int]) -> bool:
    for m, c in zip(masks, chosen):
        if c & ~m or c.bit_count() != r + 1:
            return False
    ok, _ = _masks_defect_at_least(list(chosen), r)
    if not ok:
        return False
    if s0_mask is not None:
        restricted = [c & s0_mask for c in chosen]
        if _perfect_matching_into(restricted, s0_mask) is None:
            return False
    return True


def _backtrack(masks: list[int], r: int, s0_mask: Optional[int]) -> list[int]:
    """Complete search over per-node (r+1)-edge choices, pruning with the
    expansion (and S0-Hall) conditions over all decided subsets.

    A decided prefix keeps margin r and, with a new node, still does iff
    (Hall) r + 1 clones of the node can be matched on top of the prefix's
    matching; likewise one augmentation inside S0 extends its S0 matching.
    So each level carries its prefix's matchings and a choice costs r + 2
    alternating searches on the prefix, not a fresh defect test."""
    x = len(masks)
    if x > BRUTE_FORCE_GUARD:
        raise _ConstructFailed("instance too large for the complete fallback search")
    options = [list(itertools.combinations(_from_mask(m), r + 1)) for m in masks]
    adj: list[tuple[int, ...]] = [()] * x
    s0_adj: list[tuple[int, ...]] = [()] * x

    def rec(k: int, mate: list[int], s0_mate: list[int]) -> bool:
        if k == x:
            return True
        for combo in options[k]:
            adj[k] = combo
            base = list(mate)
            if _alternating_search(adj, base, k) is not None or not _clones_fit(adj, base, k, r):
                continue
            s0_trial = s0_mate
            if s0_mask is not None:
                s0_adj[k] = tuple(v for v in combo if s0_mask >> (v - 1) & 1)
                s0_trial = list(s0_mate)
                if _alternating_search(s0_adj, s0_trial, k) is not None:
                    continue
            if rec(k + 1, base, s0_trial):
                return True
        return False

    free = [-1] * (_mask_width(masks) + 1)
    if not rec(0, free, free):
        raise _ConstructFailed("no qualifying spanning subgraph exists")
    return [_to_mask(combo) for combo in adj]


def _thin(g: BipartiteGraph, r: int, s0: Optional[Sequence[int]]) -> BipartiteGraph:
    masks = g.masks()
    s0_mask = _to_mask(s0) if s0 is not None else None
    try:
        chosen = (
            _construct(list(masks), r) if s0_mask is None else _lemma_match(list(masks), r, s0_mask)
        )
        if not _verify(masks, chosen, r, s0_mask):
            raise _ConstructFailed("recursive construction missed the margin")
    except _ConstructFailed:
        chosen = _backtrack(list(masks), r, s0_mask)
        if not _verify(masks, chosen, r, s0_mask):  # pragma: no cover - safety net
            raise RuntimeError("fallback search produced an invalid subgraph")
    return BipartiteGraph(
        size_t1=g.size_t1, size_t2=g.size_t2, adj=tuple(_from_mask(c) for c in chosen)
    )


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
    return _thin(g, r, None)


def lemma_match_subgraph(g: BipartiteGraph, r: int, s0: Sequence[int]) -> BipartiteGraph:
    """As :func:`generalized_hall_subgraph` (sizes may differ), additionally
    containing a perfect matching between T1 and the given S0 ⊆ T2."""
    s0 = tuple(sorted(set(int(v) for v in s0)))
    if len(s0) != g.size_t1:
        raise HallPreconditionError("S0 must have exactly one node per T1 node")
    masks = g.masks()
    s0_mask = _to_mask(s0)
    if _perfect_matching_into([m & s0_mask for m in masks], s0_mask) is None:
        raise HallPreconditionError("some subset has too few S0-neighbors")
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
