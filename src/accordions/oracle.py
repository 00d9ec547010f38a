"""Brute-force graph isomorphism with certificates.

Independent ground truth for the arithmetic deciders.  The pipeline is:
cheap invariant screening (order, size, degrees, component sizes,
bipartiteness, then per-vertex triangle counts and the multiset of
(adjacent?, #common neighbours) over the pairs at distance <= 2, once per
graph: `Graph.local_invariants`), then colour refinement seeded with those
local counts, then one search over the individualization-refinement tree
(McKay & Piperno, Practical graph isomorphism II, 2014).  g is refined once
and h is replayed against g's per-round colour tables, rejected at the first
signature g lacks.  are_isomorphic searches h's tree with a target: g's path
individualizes the first vertex of each target cell, and every node of h is
replayed against g's level at its depth.  canonical_key searches g's tree
with a minimiser: the least relabeled leaf wins, and the automorphisms that
equal leaves reveal prune equivalent branches.  The search keeps its own
stack, so depth is not limited by the interpreter's recursion limit.

Every map returned by are_isomorphic has been re-verified edge-by-edge
before it escapes this module.  Searches keep no state between calls apart
from each Graph's cached local invariants, which are deterministic, so they
may run in parallel; a single search is sequential.
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
    return tuple(_refine(g.neighbors, g.local_invariants.seeds)[0])


def _individualize(colors, v):
    return [(c, u == v) for u, c in enumerate(colors)]


def _target_cell(colors):
    """The smallest non-singleton colour class, ties to the lowest colour; None if discrete."""
    sizes = Counter(colors)
    cell = min(((size, c) for c, size in sizes.items() if size > 1), default=None)
    return None if cell is None else [v for v, c in enumerate(colors) if c == cell[1]]


def _tick(counter, budget):
    counter[0] += 1
    if counter[0] > budget:
        raise BudgetExceededError(f"search exceeded {budget} nodes")


def _orbit(points, perms):
    """Everything the permutations `perms` carry `points` to, `points` included."""
    orbit, grow = set(points), list(points)
    while grow:
        u = grow.pop()
        for a in perms:
            if a[u] not in orbit:
                orbit.add(a[u])
                grow.append(a[u])
    return orbit


def _search(colors, child, at_leaf, counter, budget, autos=()):
    """Depth-first walk of the individualization-refinement tree below `colors`,
    on an explicit stack; True as soon as `at_leaf` asks to stop.

    A node's children individualize each vertex of its target cell in index
    order; `child(depth, colors, v)` gives the child's colouring, or None to
    prune it.  A vertex is skipped when the automorphisms in `autos` (which
    `at_leaf` may grow) that fix the path carry an earlier sibling onto it.
    """
    cell = _target_cell(colors)
    if cell is None:
        return at_leaf(colors)
    path = []
    # a node: its colours, untried and tried cell vertices, and [the orbit of
    # the tried ones under `fixing` (the automorphisms that fix the path), how
    # many of `autos` `fixing` has seen]; `fixing` is refreshed when `autos` grows
    stack = [(colors, iter(cell), [], [set(), [], 0])]
    while stack:
        colors, todo, siblings, prune = stack[-1]
        v = next(todo, None)
        if v is None:
            stack.pop()
            if path:
                path.pop()
            continue
        orbit, fixing, known = prune
        if known < len(autos):
            fixing = fixing + [a for a in autos[known:] if all(a[p] == p for p in path)]
            orbit = _orbit(siblings, fixing)
            prune[:] = orbit, fixing, len(autos)
        siblings.append(v)
        if v in orbit:
            continue
        orbit |= _orbit([v], fixing)
        _tick(counter, budget)
        nxt = child(len(path), colors, v)
        if nxt is None:
            continue
        cell = _target_cell(nxt)
        if cell is None:
            if at_leaf(nxt):
                return True
            continue
        path.append(v)
        stack.append((nxt, iter(cell), [], [set(), [], 0]))
    return False


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
    if g.local_invariants.profile != h.local_invariants.profile:
        return None
    levels = [_refine(g.neighbors, g.local_invariants.seeds)]
    ch = _replay(h.neighbors, h.local_invariants.seeds, *levels[0])
    if ch is None:
        return None
    counter = [0]
    found = []

    def child(depth, colors, w):
        # g's path individualizes the first vertex of each target cell; a level
        # is refined only when h's search first reaches its depth
        if depth + 1 == len(levels):
            _tick(counter, budget)
            cg = levels[depth][0]
            levels.append(_refine(g.neighbors, _individualize(cg, _target_cell(cg)[0])))
        return _replay(h.neighbors, _individualize(colors, w), *levels[depth + 1])

    def at_leaf(colors):
        # h's colouring is discrete only where g's is, at g's last level
        image = {c: w for w, c in enumerate(colors)}
        mapping = [image[c] for c in levels[-1][0]]
        if all((mh[mapping[u]] >> mapping[v]) & 1 for u, v in g.edges):
            found.append(mapping)
            return True
        return False

    if not _search(ch, child, at_leaf, counter, budget):
        return None
    vm = VertexMap(n, n, tuple(found[0]))
    if not verify_witness(g, h, vm):
        raise InvariantViolationError("search produced a map that fails verification")
    return vm


def canonical_key(g: Graph, node_budget: Optional[int] = None) -> bytes:
    """A total-order key with key(g) = key(h) iff g and h are isomorphic.

    Searches g's individualization-refinement tree for the leaf whose
    relabeled edge list is least, skipping branches that an automorphism
    found at an earlier, equal leaf maps onto explored ones; the key is the
    serialized relabeled graph.  Complete but expensive, hence the order cap.
    """
    if g.order > DEFAULT_CANONICAL_MAX_ORDER:
        raise BudgetExceededError(
            f"canonical_key is limited to {DEFAULT_CANONICAL_MAX_ORDER} vertices, got {g.order}"
        )
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    nbrs = g.neighbors
    colors = _refine(nbrs, g.local_invariants.seeds)[0]
    best = []  # [least relabeled edge list, its labels]
    autos = []

    def at_leaf(labels):
        edges = sorted((min(labels[u], labels[v]), max(labels[u], labels[v])) for u, v in g.edges)
        if not best or edges < best[0]:
            best[:] = [edges, labels]
        elif edges == best[0]:
            vertex = {c: v for v, c in enumerate(best[1])}
            autos.append([vertex[c] for c in labels])
        return False

    _search(colors, lambda depth, cs, v: _refine(nbrs, _individualize(cs, v))[0], at_leaf, [0], budget, autos)
    if not best:
        raise InvariantViolationError("canonical search ended without a labeling")
    return graph_to_json(g.relabel(best[1])).encode("utf-8")
