"""Brute-force graph isomorphism with certificates.

Independent ground truth for the arithmetic deciders.  The pipeline is:
cheap invariant screening (order, then component sizes with bipartiteness
from one BFS, `Graph.components`, then the profile: per-vertex triangle
counts and the multiset of (adjacent?, #common neighbours) over the pairs
at distance <= 2, `Graph.local_invariants`, read off one Counter of the
length-2 paths and one pass over the edges; both are computed once per
graph), then colour refinement from the per-vertex seeds (degree,
triangles, common counts over the neighbours), then one search over the
individualization-refinement tree (McKay & Piperno, Practical graph
isomorphism II, 2014).

Refinement keeps an ordered partition; a vertex's colour is the start of
its cell, so a discrete colouring is a permutation.  It works through a
queue of splitter cells, groups the vertices a splitter touches by colour,
and queues the pieces of a split cell by the smaller-half rule, in
O((n+m) log n) (Berkholz, Bonsma & Grohe, 2013).  It counts neighbours only
where a count can exceed 1, so not for a singleton splitter in a simple
graph, and sorts by count only a splitter whose counts differ.  A cell met
with one count is split in the pass that writes its part of the event: its
met vertices move to its tail as one piece.  Each splitter leaves an event
in a trace: the count profile of every cell it hits, split or not.  The
event is yielded once the splitter's splits are made.
One graph is refined and writes the trace; the other is replayed against
it and rejected at the first event that differs, with that splitter's
splits already made on colours it then drops.  An individualized child
queues only its new singleton, because its parent colouring is already
equitable.  A graph's first path is its refined seeds, then at each level
the first vertex of the target cell individualized.  Each Graph keeps the
levels of its first path that a search refines or replays to the end, and
a later call takes a kept level as the reference and replays the other
graph against it.  are_isomorphic searches h's tree with a target: g's
first path, and every node of h is replayed against g's trace at its
depth.  canonical_key searches g's tree with a minimiser: the least
relabeled leaf wins, and the automorphisms that equal leaves reveal prune
equivalent branches.  are_isomorphic prunes the same way by automorphisms
of h, found once it has to try a second vertex of h's root cell: leaves of
h's tree searched against h's own path.  The search keeps its own stack,
so depth is not limited by the recursion limit, and counts its own nodes:
are_isomorphic's budget bounds the nodes of h's tree, those that find its
automorphisms included.

Every map returned by are_isomorphic has passed `verify_witness` at the
leaf that produced it.  A search keeps state between calls only on its
Graph objects: their invariants, h's automorphisms and each graph's first
path.  All are deterministic, and the path is kept whole levels at a time
and keyed by depth, so searches on shared graphs may run in parallel and
answer as they would on fresh copies; a single search is sequential.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import groupby
from typing import Optional

from .errors import BudgetExceededError
from .graphs import Graph, _built
from .serialize import graph_to_json
from .witnesses import VertexMap, verify_witness

__all__ = ["are_isomorphic", "canonical_key"]

DEFAULT_NODE_BUDGET = 10 ** 8
DEFAULT_CANONICAL_MAX_ORDER = 30


def _partition(seeds):
    """The ordered partition of the vertices by seed value, every cell queued:
    each vertex's colour is the start of its cell, the cells in seed order."""
    starts, at = {}, 0
    for seed, size in sorted(Counter(seeds).items()):
        starts[seed] = at
        at += size
    return [starts[s] for s in seeds], list(starts.values())


def _individualize(colors, v):
    """`colors` with v split off the end of its cell, queued alone: the parent
    colouring is equitable, so the rest of the cell needs no splitter."""
    colors = list(colors)
    colors[v] += colors.count(colors[v]) - 1
    return colors, [colors[v]]


def _splits(nbrs, colors, queue):
    """Refine the ordered partition `colors` in place to the coarsest equitable
    one below it, splitting by the cells in `queue` first; yield each splitter's
    event once its splits are made.

    An event is the splitter's start and, for every cell the splitter hits, one
    (cell start, neighbour count, vertices with that count) per count.  A hit
    cell splits by count: the vertices with no neighbour in the splitter keep
    the cell's start, the hit pieces follow in count order.  The pieces join the
    queue by the smaller-half rule (Berkholz, Bonsma & Grohe 2013): all of them
    if the cell was queued, else all but the largest.  The walk stops once the
    partition is discrete.  A consumer that stops at an event, as a replay
    whose event differs does, finds that splitter's splits already made.

    A singleton splitter is not counted: the graph is simple, so its
    neighbours are the vertices met, each once.  A larger one is counted.
    Where every count is the same (1 where the neighbour lists do not overlap,
    2 for a pair of twins), each cell's met vertices, in the order first met,
    are its one piece; otherwise they are sorted stably by count and cut into
    pieces.  A cell met with one count is split in the pass that writes its
    entry: met whole it keeps its start, else its piece moves to the cell's
    tail and one half is queued.
    """
    n = len(colors)
    order = sorted(range(n), key=colors.__getitem__)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    size = [0] * n
    for c in colors:
        size[c] += 1
    cells = n - size.count(0)
    queued = [False] * n
    for s in queue:
        queued[s] = True
    queue = deque(queue)
    while queue and cells < n:
        s = queue.popleft()
        queued[s] = False
        if size[s] == 1:
            met, k = nbrs[order[s]], 1
        else:
            counts = {}
            for u in order[s:s + size[s]]:
                for w in nbrs[u]:
                    counts[w] = counts.get(w, 0) + 1
            met, ks = counts, set(counts.values())
            k = ks.pop() if len(ks) == 1 else 0
        hits = {}
        for w in met:
            hits.setdefault(colors[w], []).append(w)
        event = []
        for c in sorted(hits):
            piece = hits[c]
            hit = len(piece)
            if k:
                event.append((c, k, hit))
            else:
                piece.sort(key=counts.__getitem__)
                group = [list(p) for _, p in groupby(piece, counts.__getitem__)]
                event += [(c, counts[p[0]], len(p)) for p in group]
                if len(group) > 1:
                    # move the hit vertices to the tail of the cell, in count order
                    t = c + size[c]
                    for p in reversed(group):
                        for v in p:
                            t -= 1
                            u, i = order[t], pos[v]
                            order[t], order[i] = v, u
                            pos[v], pos[u] = t, i
                    size[c] -= hit
                    starts = [c] if size[c] else []
                    for p in group:
                        if t != c:
                            for v in p:
                                colors[v] = t
                        size[t] = len(p)
                        starts.append(t)
                        t += len(p)
                    cells += len(starts) - 1
                    if not queued[c]:
                        starts.remove(max(starts, key=size.__getitem__))
                    for x in starts:
                        if not queued[x]:
                            queued[x] = True
                            queue.append(x)
                    continue
            rest = size[c] - hit
            if not rest:
                continue
            # one piece: the met vertices move to the tail of the cell, the
            # first met last, and take the new start
            new = t = c + rest
            t += hit
            for v in piece:
                t -= 1
                u, i = order[t], pos[v]
                order[t], order[i] = v, u
                pos[v], pos[u] = t, i
                colors[v] = new
            size[c], size[new] = rest, hit
            cells += 1
            x = new if queued[c] or hit <= rest else c
            queued[x] = True
            queue.append(x)
        yield s, tuple(event)


def _refine(nbrs, start):
    """Refine one graph from `start`, its colours and queued cells: the stable
    colours and the trace, every event of `_splits`."""
    colors = list(start[0])
    return colors, list(_splits(nbrs, colors, start[1]))


def _replay(nbrs, start, trace):
    """Refine a second graph from `start` while it follows the reference's
    trace: its colours, or None at the first event that differs or once the
    trace has ended.  The events fix the cells and the queue, so a graph that
    follows every event ends with the trace."""
    colors = list(start[0])
    events = iter(trace)
    for event in _splits(nbrs, colors, start[1]):
        if event != next(events, None):
            return None
    return colors


def _target_cell(colors):
    """The vertices of the smallest non-singleton class, ties to the lowest
    colour, in index order; None if discrete."""
    sizes = Counter(colors)
    if len(sizes) == len(colors):
        return None
    target = min((size, c) for c, size in sizes.items() if size > 1)[1]
    return [v for v, c in enumerate(colors) if c == target]


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


def _tickets(budget):
    """One ticket per node for the searches of one call, then BudgetExceededError."""
    yield from range(budget)
    raise BudgetExceededError(f"search exceeded {budget} nodes")


def _search(colors, child, at_leaf, tickets, autos=(), grow=None):
    """Depth-first walk of the individualization-refinement tree below `colors`,
    on an explicit stack: the first truthy value `at_leaf` gives, or None.
    Every child made is a node and takes one of `tickets` (`_tickets`).

    A node's children individualize each vertex of its target cell in index
    order; `child(depth, colors, v)` gives the child's colouring, or None to
    prune it.  A vertex is skipped when the automorphisms in `autos` that fix
    the path carry an earlier sibling onto it.  `at_leaf` may add to `autos`,
    and so may `grow()`, which is called once, before the root's second child.
    """
    cell = _target_cell(colors)
    if cell is None:
        return at_leaf(colors) or None
    path = []
    # a node: its colours, its untried cell vertices, and [the orbit of the tried
    # ones under `fixing` (the automorphisms that fix the path), how many of
    # `autos` `fixing` has seen]; both are refreshed when `autos` grows
    stack = [(colors, iter(cell), [set(), [], 0])]
    while stack:
        colors, todo, prune = stack[-1]
        v = next(todo, None)
        if v is None:
            stack.pop()
            if path:
                path.pop()
            continue
        orbit, fixing, known = prune
        if grow and orbit and not path:  # a root child tried: the first is never skipped
            grow()
            grow = None
        if known < len(autos):
            fixing = fixing + [a for a in autos[known:] if all(a[p] == p for p in path)]
            orbit = _orbit(orbit, fixing)
            prune[:] = orbit, fixing, len(autos)
        if v in orbit:
            continue
        orbit |= _orbit([v], fixing)
        next(tickets)
        nxt = child(len(path), colors, v)
        if nxt is None:
            continue
        cell = _target_cell(nxt)
        if cell is None:
            if answer := at_leaf(nxt):
                return answer
            continue
        path.append(v)
        stack.append((nxt, iter(cell), [set(), [], 0]))
    return None


def _path(x):
    """The first path x keeps: depth -> (colours, trace, first vertex of the
    target cell, or None where the colours are discrete)."""
    return vars(x).setdefault("_first_path", {})


def _level(x, d, trace=None):
    """Level d of x's first path: x's seeds refined at d = 0, else level d - 1
    refined with its first vertex individualized.  A kept level is returned,
    or None if its trace is not `trace`.  Otherwise x is replayed against
    `trace` and kept only if it follows, or with no `trace` refined and kept.
    Levels are kept whole and by depth, so parallel searches on x keep one path."""
    path = _path(x)
    if d in path:
        level = path[d]
        return level if trace is None or level[1] == trace else None
    if d:
        colors, _, v = path[d - 1]
        start = _individualize(colors, v)
    else:
        start = _partition(x.local_invariants.seeds)
    if trace is None:
        colors, trace = _refine(x.neighbors, start)
    else:
        colors = _replay(x.neighbors, start, trace)
        if colors is None:
            return None
    cell = _target_cell(colors)
    return path.setdefault(d, (colors, trace, cell and cell[0]))


def _follows(g, h, d):
    """h's level d if it follows g's, else None.  The graph that keeps its
    level is the reference, and the other is replayed against it; g is refined
    if neither does."""
    if d in _path(g) or d not in _path(h):
        return _level(h, d, _level(g, d)[1])
    level = _level(h, d)
    return level if _level(g, d, level[1]) else None


def _matcher(g, h):
    """`child` and `at_leaf` for h's tree against g's first path: a leaf gives
    its map g -> h if that verifies.  Both graphs keep their level 0."""
    gp, hp = _path(g), _path(h)

    def child(depth, colors, w):
        level = hp.get(depth)
        if level and colors is level[0] and w == level[2]:  # on h's own first path
            level = _follows(g, h, depth + 1)
            return level and level[0]
        return _replay(h.neighbors, _individualize(colors, w), _level(g, depth + 1)[1])

    def at_leaf(colors):
        # h's colouring is discrete only where g's is, at the last level g keeps
        image = {c: w for w, c in enumerate(colors)}
        vm = VertexMap(tuple(image[c] for c in gp[len(gp) - 1][0]))
        return vm if verify_witness(g, h, vm) else None

    return child, at_leaf


def _automorphisms(h, tickets):
    """Automorphisms of h, from its tree searched against its own first path:
    for each w of its root's target cell, not yet in the orbit of the first
    vertex v, the first leaf of w's subtree that matches the path gives one
    carrying v onto w.  A w whose child fails its replay costs one node."""
    child, at_leaf = _matcher(h, h)

    def below(depth, colors, u):  # w's subtree, one level down h's path
        return child(depth + 1, colors, u)

    root = _level(h, 0)[0]
    cell = _target_cell(root)
    found, orbit = [], {cell[0]}
    for w in cell[1:]:
        if w in orbit:
            continue
        next(tickets)
        colors = child(0, root, w)
        if colors is not None and (vm := _search(colors, below, at_leaf, tickets)):
            found.append(vm.mapping)
            orbit = _orbit(orbit, found)
    return found


def are_isomorphic(g: Graph, h: Graph) -> Optional[VertexMap]:
    """A verified isomorphism g -> h, or None when the graphs are not isomorphic.

    Complete at desk scale; more than DEFAULT_NODE_BUDGET search nodes abort
    with BudgetExceededError rather than returning a wrong answer.

    Each Graph object keeps the levels of its first path that a call refines
    or replays to the end: level 0 its refined seeds, each next level its
    first vertex individualized.  A later call on either object reuses them,
    the kept side as the reference, so a graph shared by many calls is refined
    once and the other side is only replayed.  The search tree, its node
    count and the returned map do not depend on what is kept.

    Before it tries a second vertex of h's root cell, the search finds
    automorphisms of h (`_automorphisms`, its nodes counted), once per Graph
    object, kept on h like its first path.  It then skips a vertex they
    carry onto a sibling already tried: its subtree is the image of one that
    found no isomorphism, so the returned map is the same without them.
    """
    # no size screen: equal profiles have equal sizes (their adjacent pairs
    # count the edges).  The root replay sees only seed ranks: A[50,1] and
    # A[50,3] pass it, and only the profile rejects them.  No seed-multiset
    # screen either: of the pairs that pass components and profile it rejects
    # 0 of 410, 2947 and 6924 (default census, extended pin, acc-acc 60 plus
    # ci-acc 18), where the profile rejects 269, 1323 and 1419 the seeds pass.
    if g.order != h.order or g.components != h.components:
        return None
    if g.local_invariants.profile != h.local_invariants.profile:
        return None
    root = _follows(g, h, 0)
    if root is None:
        return None
    tickets = _tickets(DEFAULT_NODE_BUDGET)
    autos = []

    def grow():
        if "_automorphisms" not in vars(h):
            vars(h)["_automorphisms"] = _automorphisms(h, tickets)
        autos.extend(vars(h)["_automorphisms"])

    return _search(root[0], *_matcher(g, h), tickets, autos, grow)


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
    colors = _level(g, 0)[0]
    best = []  # [least relabeled edge list, oriented and sorted, its labels]
    autos = []

    def at_leaf(labels):
        edges = sorted((min(labels[u], labels[v]), max(labels[u], labels[v])) for u, v in g.edges)
        if not best or edges < best[0]:
            best[:] = [edges, labels]
        elif edges == best[0]:
            vertex = {c: v for v, c in enumerate(best[1])}
            autos.append([vertex[c] for c in labels])
        return False

    _search(colors, lambda depth, cs, v: _refine(nbrs, _individualize(cs, v))[0], at_leaf, _tickets(budget), autos)
    return graph_to_json(_built(g.order, tuple(best[0]))).encode("utf-8")
