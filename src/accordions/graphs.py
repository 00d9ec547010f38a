"""Quartic graph families and basic structural predicates.

Vertices are always the integers ``0..order-1``.  The families are usually
written with 1-based subscripts (u_i, v_i, x_i over residue systems
{1..n} / {1..2n}); conversion happens here and only here:

    u_i -> i-1,    v_i -> n+i-1,    x_i -> i-1.

Edges are stored as a sorted tuple of ascending pairs, so two equal graphs
compare equal and serialize byte-identically.  All graphs are immutable and
every operation in this module is a pure function.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidParameterError

__all__ = [
    "Graph",
    "AccordionParams",
    "CirculantParams",
    "cycle_graph",
    "path_graph",
    "cartesian_product",
    "accordion",
    "accordion_edge_classes",
    "circulant",
    "circulant_graph",
    "cylinder_cut_edges",
    "edge_length",
    "normalize_length",
    "is_bipartite",
    "is_connected",
    "is_regular",
    "OUTER_CYCLE",
    "INNER_CYCLE",
    "VERTICAL_SPOKE",
    "DIAGONAL_SPOKE",
]

OUTER_CYCLE = "outer-cycle"
INNER_CYCLE = "inner-cycle"
VERTICAL_SPOKE = "vertical-spoke"
DIAGONAL_SPOKE = "diagonal-spoke"


def _canonical_edges(order: int, edges: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    seen = set()
    out = []
    for edge in edges:
        i, j = edge
        if i == j:
            raise InvalidParameterError(f"self-loop at vertex {i}")
        if not (0 <= i < order and 0 <= j < order):
            raise InvalidParameterError(f"edge ({i},{j}) out of range for order {order}")
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            raise InvalidParameterError(f"duplicate edge {pair}")
        seen.add(pair)
        out.append(pair)
    return tuple(sorted(out))


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph: a vertex count plus an edge set."""

    order: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise InvalidParameterError(f"graph order must be >= 1, got {self.order}")
        object.__setattr__(self, "edges", _canonical_edges(self.order, self.edges))

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.order)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], bool]:
        """(sorted component sizes, bipartite?), from one BFS 2-colouring."""
        color = [-1] * self.order
        sizes, bipartite = [], True
        for start in range(self.order):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = [start]
            for v in queue:  # grows while it is walked: a BFS over the component
                for w in self.neighbors[v]:
                    if color[w] == -1:
                        color[w] = color[v] ^ 1
                        queue.append(w)
                    elif color[w] == color[v]:
                        bipartite = False
            sizes.append(len(queue))
        return tuple(sorted(sizes)), bipartite

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.neighbors)

    @cached_property
    def local_invariants(self) -> "LocalInvariants":
        """Seed colours and pair profile, from common-neighbour counts over the
        pairs at distance <= 2; computed once per Graph object."""
        nbrs = self.neighbors
        seeds, pairs = [], []
        for v, common in enumerate(_common_neighbor_counts(self)):
            nb = nbrs[v]
            around = sorted([common.get(w, 0) for w in nb])
            seeds.append((len(nb), sum(around) // 2, *around))
            pairs += [(w in nb, c) for w, c in common.items() if w > v]
            pairs += [(True, 0) for w in nb if w > v and w not in common]
        triangles = tuple(sorted(seed[1] for seed in seeds))
        return LocalInvariants(tuple(seeds), (triangles, tuple(sorted(Counter(pairs).items()))))

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image of the graph under the bijection v -> perm[v]."""
        if sorted(perm) != list(range(self.order)):
            raise InvalidParameterError("relabeling must be a permutation of the vertices")
        return Graph(self.order, tuple((perm[i], perm[j]) for i, j in self.edges))


class LocalInvariants(NamedTuple):
    """Isomorphism invariants read off a graph's common-neighbour counts.

    `seeds[v]` is (degree, triangles at v, *sorted common-neighbour counts of v
    with each neighbour).  `profile` is the sorted triangle counts and the
    multiset, as sorted ((adjacent?, #common), multiplicity) items, of the
    vertex pairs that are adjacent or share a neighbour; between graphs of one
    order the remaining (0, 0) pairs follow by subtraction.
    """

    seeds: tuple[tuple[int, ...], ...]
    profile: tuple


def _common_neighbor_counts(g: Graph) -> list[dict[int, int]]:
    """Per vertex v, {w: number of common neighbours of v and w} over the w != v
    that end a path of length 2: at most d(d-1) entries in a d-regular graph."""
    nbrs = g.neighbors
    counts = []
    for v, nb in enumerate(nbrs):
        row: dict[int, int] = {}
        for u in nb:
            for w in nbrs[u]:
                row[w] = row.get(w, 0) + 1
        row.pop(v, None)
        counts.append(row)
    return counts


@dataclass(frozen=True)
class AccordionParams:
    """Validated (n, k) pair naming the accordion graph A[n,k]."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InvalidParameterError(f"accordion parameter n must be >= 3, got {self.n}")
        if not 1 <= self.k <= self.n // 2:
            raise InvalidParameterError(
                f"accordion parameter k must satisfy 1 <= k <= n//2 = {self.n // 2}, got {self.k}"
            )


def normalize_length(value: int, order: int) -> int:
    """Canonical edge length for a circulant of the given order (in [0, order//2])."""
    r = value % order
    return min(r, order - r)


def _circulant_lengths(order: int, lengths: Sequence[int]) -> tuple[int, ...]:
    """The lengths normalized for a circulant of the given order.

    Each must land in [1, (order-1)//2], so that it contributes a 2-regular
    layer (length 0 is no edge, order/2 a perfect matching), and no two may
    coincide.
    """
    bound = (order - 1) // 2
    if bound < 1:
        raise InvalidParameterError(f"a circulant of order {order} has no length in [1, (order-1)//2]")
    norm = tuple(normalize_length(val, order) for val in lengths)
    for val, r in zip(lengths, norm):
        if not 1 <= r <= bound:
            raise InvalidParameterError(
                f"length {val} normalizes to {r}, outside [1, {bound}] for order {order}"
            )
    if len(set(norm)) != len(norm):
        raise InvalidParameterError(f"lengths must be distinct after normalization, got {list(norm)}")
    return norm


@dataclass(frozen=True)
class CirculantParams:
    """Validated (n, a, b) triple naming Ci[2n,{a,b}], the circulant on 2n vertices.

    Lengths are normalized on construction: reduced mod 2n, then folded to
    min(r, 2n-r).  The result must land in [1, n-1]; length 0 or n (a perfect
    matching) cannot occur in a quartic circulant of order 2n.
    """

    n: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InvalidParameterError(f"circulant parameter n must be >= 3, got {self.n}")
        a, b = _circulant_lengths(2 * self.n, (self.a, self.b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def cycle_graph(t: int) -> Graph:
    """The cycle C_t on vertices 0..t-1."""
    if t < 3:
        raise InvalidParameterError(f"cycle length must be >= 3, got {t}")
    return Graph(t, tuple((i, (i + 1) % t) for i in range(t)))


def path_graph(t: int) -> Graph:
    """The path P_t on t vertices (t-1 edges; a single vertex when t=1)."""
    if t < 1:
        raise InvalidParameterError(f"path order must be >= 1, got {t}")
    return Graph(t, tuple((i, i + 1) for i in range(t - 1)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product g [] h; vertex (x, y) gets index x*|V(h)| + y.

    (x1, y1) ~ (x2, y2) iff x1 = x2 and y1~y2 in h, or x1~x2 in g and y1 = y2.
    """
    nh = h.order
    edges: list[tuple[int, int]] = []
    for x in range(g.order):
        off = x * nh
        for y1, y2 in h.edges:
            edges.append((off + y1, off + y2))
    for x1, x2 in g.edges:
        for y in range(nh):
            edges.append((x1 * nh + y, x2 * nh + y))
    return Graph(g.order * nh, tuple(edges))


def accordion(n: int, k: int) -> Graph:
    """The accordion graph A[n,k]: order 2n, 4-regular.

    Two n-cycles (u_1..u_n) and (v_1..v_n) joined by the vertical spokes
    u_i v_i and the diagonal spokes u_i v_{i+k} (subscripts mod n).
    """
    p = AccordionParams(n, k)
    edges: list[tuple[int, int]] = []
    for i in range(p.n):
        j = (i + 1) % p.n
        edges.append((i, j))                      # outer cycle
        edges.append((p.n + i, p.n + j))          # inner cycle
        edges.append((i, p.n + i))                # vertical spoke
        edges.append((i, p.n + (i + p.k) % p.n))  # diagonal spoke
    return Graph(2 * p.n, tuple(edges))


def accordion_edge_classes(n: int, k: int) -> dict[tuple[int, int], str]:
    """Tag of every edge of A[n,k]; each class has exactly n members."""
    p = AccordionParams(n, k)

    def key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    tags: dict[tuple[int, int], str] = {}
    for i in range(p.n):
        j = (i + 1) % p.n
        tags[key(i, j)] = OUTER_CYCLE
        tags[key(p.n + i, p.n + j)] = INNER_CYCLE
        tags[key(i, p.n + i)] = VERTICAL_SPOKE
        tags[key(i, p.n + (i + p.k) % p.n)] = DIAGONAL_SPOKE
    return tags


def circulant(n: int, a: int, b: int) -> Graph:
    """The quartic circulant Ci[2n,{a,b}] with x_i ~ x_{i+-a}, x_{i+-b}."""
    p = CirculantParams(n, a, b)
    return circulant_graph(2 * p.n, (p.a, p.b))


def circulant_graph(order: int, lengths: Sequence[int]) -> Graph:
    """Circulant of arbitrary order with the given connection lengths.

    Lengths are checked by `_circulant_lengths`; with two of them the graph
    is quartic.
    """
    norm = _circulant_lengths(order, lengths)
    edges = [(i, (i + r) % order) for r in norm for i in range(order)]
    return Graph(order, tuple(edges))


def edge_length(order: int, i: int, j: int) -> int:
    """Circulant length of the pair {i, j}: min(d, order-d) with d = i-j mod order."""
    return normalize_length(i - j, order)


def cylinder_cut_edges(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Cycle edges whose removal turns A[n,k] into a cycle-times-path graph.

    With g = gcd(n,k), removing the edges u_{tg}u_{tg+1} and v_{tg}v_{tg+1}
    for t = 1..n/g leaves a graph isomorphic to C_{2n/g} [] P_g.
    """
    p = AccordionParams(n, k)
    g = math.gcd(p.n, p.k)
    out = []
    for t in range(1, p.n // g + 1):
        i = (t * g - 1) % p.n
        j = (t * g) % p.n
        out.append((min(i, j), max(i, j)))
        out.append((min(i, j) + p.n, max(i, j) + p.n))
    return tuple(sorted(out))


def is_bipartite(g: Graph) -> bool:
    """True iff the graph has no odd cycle."""
    return g.components[1]


def is_connected(g: Graph) -> bool:
    return len(g.components[0]) == 1


def is_regular(g: Graph, d: int) -> bool:
    return all(deg == d for deg in g.degrees)
