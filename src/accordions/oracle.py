"""Brute-force graph isomorphism with certificates.

Independent ground truth for the arithmetic deciders.  The pipeline is:
cheap invariant screening (order, size, degrees, component sizes,
bipartiteness, per-vertex triangle counts, the multiset of common-neighbour
counts over all vertex pairs), then colour refinement seeded with those
local counts, then a backtracking search over colour-compatible assignments
with bitmask forward checking.  g is refined once and h is replayed against
g's per-round colour tables, rejected at the first signature g lacks.  The
first assignment v0 -> w0 is individualized: g is re-refined once and h is
replayed per w0, which kills most of the symmetry of the vertex-transitive
inputs this package produces.

Every map returned by are_isomorphic has been re-verified edge-by-edge
before it escapes this module.  Searches are stateless per call and may run
in parallel; a single search is sequential.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .errors import BudgetExceededError, InvariantViolationError
from .graphs import Graph, is_bipartite
from .serialize import graph_to_json
from .witnesses import VertexMap, verify_witness

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_CANONICAL_MAX_ORDER",
    "are_isomorphic",
    "canonical_key",
    "refinement_colors",
]

DEFAULT_NODE_BUDGET = 10 ** 8
DEFAULT_CANONICAL_MAX_ORDER = 30


def _bits(x: int):
    while x:
        lsb = x & -x
        yield lsb.bit_length() - 1
        x ^= lsb


def _component_sizes(masks, n):
    seen = 0
    sizes = []
    for s in range(n):
        if (seen >> s) & 1:
            continue
        frontier = 1 << s
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for v in _bits(frontier):
                nxt |= masks[v]
            frontier = nxt & ~comp
        seen |= comp
        sizes.append(comp.bit_count())
    return sorted(sizes)


def _common_matrix(masks, n):
    return [[(masks[i] & masks[j]).bit_count() for j in range(n)] for i in range(n)]


def _triangle_counts(g: Graph, common) -> list[int]:
    return [sum(common[v][w] for w in g.neighbors[v]) // 2 for v in range(g.order)]


def _pair_profile(g: Graph, common) -> tuple:
    """Isomorphism-invariant summary of all vertex pairs: (adjacent?, #common neighbours)."""
    n = g.order
    masks = g.neighbor_masks
    pairs = []
    for i in range(n):
        mi = masks[i]
        row = common[i]
        for j in range(i + 1, n):
            pairs.append(((mi >> j) & 1, row[j]))
    pairs.sort()
    return (tuple(sorted(_triangle_counts(g, common))), tuple(pairs))


def _seed_colors(g: Graph, common) -> list[tuple]:
    """Per-vertex starting invariants: degree, triangle count, common-neighbour multiset."""
    tri = _triangle_counts(g, common)
    seeds = []
    for v in range(g.order):
        nbr_common = tuple(sorted(common[v][w] for w in g.neighbors[v]))
        seeds.append((len(g.neighbors[v]), tri[v]) + nbr_common)
    return seeds


def _refine(nbrs, seeds):
    """Refine one graph: its stable colours and each round's signature -> rank
    table, the last from the round that split nothing (replay checks stability)."""
    tables = [{s: i for i, s in enumerate(sorted(set(seeds)))}]
    colors = [tables[0][s] for s in seeds]
    while True:
        sigs = [(colors[v], *sorted([colors[w] for w in nb])) for v, nb in enumerate(nbrs)]
        tables.append({s: i for i, s in enumerate(sorted(set(sigs)))})
        if len(tables[-1]) == len(tables[-2]):
            return colors, tables
        colors = [tables[-1][s] for s in sigs]


def _replay(nbrs, seeds, ref_colors, tables):
    """Refine a second graph against the reference's tables; its colours, or None
    at the first signature a round's table lacks or on a histogram mismatch."""
    try:
        colors = [tables[0][s] for s in seeds]
        for table in tables[1:]:
            colors = [table[(colors[v], *sorted([colors[w] for w in nb]))] for v, nb in enumerate(nbrs)]
    except KeyError:
        return None
    return colors if sorted(colors) == sorted(ref_colors) else None


def refinement_colors(g: Graph) -> tuple[int, ...]:
    """Stable per-vertex colours after refinement; an isomorphism invariant multiset."""
    common = _common_matrix(g.neighbor_masks, g.order)
    return tuple(_refine(g.neighbors, _seed_colors(g, common))[0])


def _extend(n, nbrs_g, mh, colors_g, color_masks, mapping, used, counter, budget, depth):
    """Grow a partial map; `used` doubles as the set of images taken so far."""
    if depth == n:
        return True
    best_v = -1
    best_mask = 0
    best_count = -1
    for v in range(n):
        if mapping[v] >= 0:
            continue
        m = color_masks.get(colors_g[v], 0) & ~used
        for u in nbrs_g[v]:
            if mapping[u] >= 0:
                m &= mh[mapping[u]]
        count = m.bit_count()
        if count == 0:
            return False
        if best_count < 0 or count < best_count:
            best_v, best_mask, best_count = v, m, count
            if count == 1:
                break
    v = best_v
    need = 0
    for u in nbrs_g[v]:
        if mapping[u] >= 0:
            need |= 1 << mapping[u]
    cand = best_mask
    while cand:
        lsb = cand & -cand
        cand ^= lsb
        w = lsb.bit_length() - 1
        if (mh[w] & used) != need:
            continue
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceededError(f"isomorphism search exceeded {budget} nodes")
        mapping[v] = w
        if _extend(n, nbrs_g, mh, colors_g, color_masks, mapping, used | lsb, counter, budget, depth + 1):
            return True
        mapping[v] = -1
    return False


def _root_search(g, h, cg, ch, budget, counter):
    n = g.order
    nbrs_g = g.neighbors
    mh = h.neighbor_masks
    sizes = Counter(cg)
    v0 = min(range(n), key=lambda v: (sizes[cg[v]], v))
    pg, tables = _refine(nbrs_g, [(cg[v], 1 if v == v0 else 0) for v in range(n)])
    for w0 in range(n):
        if ch[w0] != cg[v0]:
            continue
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceededError(f"isomorphism search exceeded {budget} nodes")
        ph = _replay(h.neighbors, [(ch[w], 1 if w == w0 else 0) for w in range(n)], pg, tables)
        if ph is None:
            continue
        color_masks: dict[int, int] = {}
        for w, c in enumerate(ph):
            color_masks[c] = color_masks.get(c, 0) | (1 << w)
        mapping = [-1] * n
        mapping[v0] = w0
        if _extend(n, nbrs_g, mh, pg, color_masks, mapping, 1 << w0, counter, budget, 1):
            return mapping
    return None


def are_isomorphic(g: Graph, h: Graph, node_budget: Optional[int] = None) -> Optional[VertexMap]:
    """A verified isomorphism g -> h, or None when the graphs are not isomorphic.

    Complete at desk scale; a configurable node budget aborts with
    BudgetExceededError rather than returning a wrong answer.
    """
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    if g.order != h.order or g.size != h.size:
        return None
    n = g.order
    if sorted(g.degrees) != sorted(h.degrees):
        return None
    mg, mh = g.neighbor_masks, h.neighbor_masks
    if _component_sizes(mg, n) != _component_sizes(mh, n):
        return None
    if is_bipartite(g) != is_bipartite(h):
        return None
    common_g = _common_matrix(mg, n)
    common_h = _common_matrix(mh, n)
    if _pair_profile(g, common_g) != _pair_profile(h, common_h):
        return None
    cg, tables = _refine(g.neighbors, _seed_colors(g, common_g))
    ch = _replay(h.neighbors, _seed_colors(h, common_h), cg, tables)
    if ch is None:
        return None
    counter = [0]
    mapping = _root_search(g, h, cg, ch, budget, counter)
    if mapping is None:
        return None
    vm = VertexMap(n, n, tuple(mapping))
    if not verify_witness(g, h, vm):
        raise InvariantViolationError("search produced a map that fails verification")
    return vm


def canonical_key(g: Graph, node_budget: Optional[int] = None) -> bytes:
    """A total-order key with key(g) = key(h) iff g and h are isomorphic.

    Branch-and-bound minimization of the adjacency bit string over all vertex
    orderings compatible with iterated refinement; the key is the serialized
    canonically-relabeled graph.  Complete but expensive, hence the order cap.
    """
    if g.order > DEFAULT_CANONICAL_MAX_ORDER:
        raise BudgetExceededError(
            f"canonical_key is limited to {DEFAULT_CANONICAL_MAX_ORDER} vertices, got {g.order}"
        )
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    n = g.order
    nbrs = g.neighbors
    masks = g.neighbor_masks
    common = _common_matrix(masks, n)
    colors0 = _refine(nbrs, _seed_colors(g, common))[0]

    best_chunks: Optional[list[int]] = None
    best_perm: Optional[list[int]] = None
    in_placed = [False] * n
    counter = [0]

    def rec(placed: list[int], chunks: list[int], colors: list[int]) -> None:
        nonlocal best_chunks, best_perm
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceededError(f"canonical labeling exceeded {budget} nodes")
        depth = len(placed)
        if best_chunks is not None and chunks > best_chunks[:depth]:
            return
        if depth == n:
            if best_chunks is None or chunks < best_chunks:
                best_chunks = list(chunks)
                best_perm = list(placed)
            return
        target = min(colors[v] for v in range(n) if not in_placed[v])
        scored = []
        for v in range(n):
            if in_placed[v] or colors[v] != target:
                continue
            chunk = 0
            mv = masks[v]
            for p in placed:
                chunk = (chunk << 1) | ((mv >> p) & 1)
            scored.append((chunk, v))
        scored.sort()
        for chunk, v in scored:
            # candidates are in ascending chunk order: once one compares worse
            # against the incumbent on a tight prefix, the rest do too
            if (
                best_chunks is not None
                and chunk > best_chunks[depth]
                and chunks == best_chunks[:depth]
            ):
                break
            seeds = [(colors[u], 1 if u == v else 0) for u in range(n)]
            new_colors = _refine(nbrs, seeds)[0]
            in_placed[v] = True
            placed.append(v)
            chunks.append(chunk)
            rec(placed, chunks, new_colors)
            chunks.pop()
            placed.pop()
            in_placed[v] = False

    rec([], [], list(colors0))
    if best_perm is None:
        raise InvariantViolationError("canonical search ended without a labeling")
    labels = [0] * n
    for pos, v in enumerate(best_perm):
        labels[v] = pos
    return graph_to_json(g.relabel(labels)).encode("utf-8")
