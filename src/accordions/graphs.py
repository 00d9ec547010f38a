"""Quartic graph families and basic structural predicates.

Vertices are always the integers ``0..order-1``.  The families are usually
written with 1-based subscripts (u_i, v_i, x_i over residue systems
{1..n} / {1..2n}); the constructors here and the closed-form maps in
`witnesses` convert them the same way:

    u_i -> i-1,    v_i -> n+i-1,    x_i -> i-1.

Edges are stored as a sorted tuple of ascending pairs, so two equal graphs
compare equal and serialize byte-identically.  All graphs are immutable and
every operation in this module is a pure function.

Graph(order, edges) checks outside input edge by edge, in input order, so
the first fault raises.  The constructors, `Graph.relabel`, the cylinder
rebuild in `witnesses` and `oracle.canonical_key` skip that check: their
edges are valid by construction, and go sorted to `_built`, which makes every Graph.
Each parameter rule is one function that every entry point calls:
`_check_accordion` for A[n,k], `_circulant_lengths` for circulant lengths, and
`_is_permutation`, which `Graph.relabel` and `witnesses.verify_witness` share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .errors import InvalidParameterError

__all__ = [
    "Graph",
    "cycle_graph",
    "path_graph",
    "cartesian_product",
    "accordion",
    "circulant",
    "circulant_graph",
    "normalize_length",
]


def _walk_edges(order: int, edges: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """The edges as a sorted tuple of ascending pairs, each checked in input
    order, so the first fault raises."""
    seen = set()
    for i, j in edges:
        if type(i) is not int or type(j) is not int:  # not bool or float: serialize would write True as 1
            raise InvalidParameterError(f"edge endpoints must be integers, got ({i!r},{j!r})")
        if i == j:
            raise InvalidParameterError(f"self-loop at vertex {i}")
        if not (0 <= i < order and 0 <= j < order):
            raise InvalidParameterError(f"edge ({i},{j}) out of range for order {order}")
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            raise InvalidParameterError(f"duplicate edge {pair}")
        seen.add(pair)
    return tuple(sorted(seen))


@dataclass(frozen=True, init=False)
class Graph:
    """Immutable simple undirected graph: a vertex count plus an edge set.

    Graph(order, edges) checks its input and stores the edges as a sorted
    tuple of ascending pairs.
    """

    order: int
    edges: tuple[tuple[int, int], ...]

    def __new__(cls, order: int, edges: Iterable[Sequence[int]]) -> "Graph":
        if type(order) is not int:
            raise InvalidParameterError(f"graph order must be an integer, got {order!r}")
        if order < 1:
            raise InvalidParameterError(f"graph order must be >= 1, got {order}")
        return _built(order, _walk_edges(order, edges))

    def __getnewargs__(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        # copy and pickle rebuild through the checked path
        return self.order, self.edges

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbour lists, in that order without a sort: the sorted
        edges reach v first from its smaller neighbours i in (i, v), then from
        its larger ones j in (v, j)."""
        adj: list[list[int]] = [[] for _ in range(self.order)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(map(tuple, adj))

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

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image of the graph under the bijection v -> perm[v]."""
        if not _is_permutation(perm, self.order):
            raise InvalidParameterError("relabeling must be a permutation of the vertices")
        # a bijection keeps the checked edges distinct and in range: orient and sort them
        image = [(x, y) if x < y else (y, x) for i, j in self.edges for x, y in [(perm[i], perm[j])]]
        image.sort()
        return _built(self.order, tuple(image))


def _built(order: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    """The Graph with these fields, unchecked: order >= 1 and edges a sorted
    tuple of distinct ascending pairs of ints in range(order).  Graph(...)
    calls it after its check; builders whose edges are valid by construction, directly."""
    g = object.__new__(Graph)
    object.__setattr__(g, "order", order)
    object.__setattr__(g, "edges", edges)
    return g


def _edges_from_runs(runs: Iterable[tuple[int, int, Sequence[int]]]) -> tuple[tuple[int, int], ...]:
    """The sorted edges of a graph given as runs (lo, hi, steps), in vertex order:
    each v in [lo, hi) meets v + d for each d in the ascending steps, and no
    other larger vertex.  Each run interleaves one range pair per step."""
    edges: list[tuple[int, int]] = []
    for lo, hi, steps in runs:
        vs = range(lo, hi)
        edges += chain.from_iterable(zip(*[zip(vs, range(lo + d, hi + d)) for d in steps]))
    return tuple(edges)


def _is_permutation(seq: Sequence[int], n: int) -> bool:
    """Whether seq lists 0..n-1 once each, as ints: no bool or float; serialize's str(True) is not JSON."""
    return set(map(type, seq)) == {int} and sorted(seq) == list(range(n))


def _check_accordion(n: int, k: int) -> None:
    """Refuse an (n, k) that names no accordion graph A[n,k]: n >= 3 and 1 <= k <= n//2."""
    if n < 3:
        raise InvalidParameterError(f"accordion parameter n must be >= 3, got {n}")
    if not 1 <= k <= n // 2:
        raise InvalidParameterError(f"accordion parameter k must satisfy 1 <= k <= n//2 = {n // 2}, got {k}")


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


def _circulant_pair(n: int, a: int, b: int) -> tuple[int, int]:
    """The lengths of Ci[2n,{a,b}], the circulant on 2n vertices, normalized.

    Each is reduced mod 2n, then folded to min(r, 2n-r).  The result must
    land in [1, n-1]; length 0 or n (a perfect matching) cannot occur in a
    quartic circulant of order 2n.  Refuses n < 3 first.
    """
    if n < 3:
        raise InvalidParameterError(f"circulant parameter n must be >= 3, got {n}")
    return _circulant_lengths(2 * n, (a, b))


def cycle_graph(t: int) -> Graph:
    """The cycle C_t on vertices 0..t-1: the circulant with the one length 1."""
    if t < 3:
        raise InvalidParameterError(f"cycle length must be >= 3, got {t}")
    return _circulant(t, (1,))


def path_graph(t: int) -> Graph:
    """The path P_t on t vertices (t-1 edges; a single vertex when t=1)."""
    if type(t) is not int:  # not bool: the order is stored as given
        raise InvalidParameterError(f"path order must be an integer, got {t!r}")
    if t < 1:
        raise InvalidParameterError(f"path order must be >= 1, got {t}")
    return _built(t, _edges_from_runs([(0, t - 1, (1,))]))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product g [] h; vertex (x, y) gets index x*|V(h)| + y.

    (x1, y1) ~ (x2, y2) iff x1 = x2 and y1~y2 in h, or x1~x2 in g and y1 = y2.
    The edges within each block of h and across the blocks are built, then
    sorted once.
    """
    nh = h.order
    edges = [(base + i, base + j) for base in range(0, g.order * nh, nh) for i, j in h.edges]
    edges += [(i * nh + y, j * nh + y) for i, j in g.edges for y in range(nh)]
    edges.sort()
    return _built(g.order * nh, tuple(edges))


def accordion(n: int, k: int) -> Graph:
    """The accordion graph A[n,k]: order 2n, 4-regular.

    Two n-cycles (u_1..u_n) and (v_1..v_n) joined by the vertical spokes
    u_i v_i and the diagonal spokes u_i v_{i+k} (subscripts mod n).  Each
    class has n edges, and an edge (i, j), i < j, names its class by index:
    outer cycle if j < n, inner cycle if i >= n, vertical spoke if
    j == n + i, diagonal spoke otherwise.
    """
    _check_accordion(n, k)
    # u_i is vertex i-1 and v_i vertex n+i-1.  From u_i the steps up are 1 to
    # u_{i+1}, n to v_i and n+k to v_{i+k}, or k once i+k wraps past n; u_1 also
    # meets u_n (n-1 on) and v_1 meets v_n
    return _built(2 * n, _edges_from_runs([
        (0, 1, (1, n - 1, n, n + k)),  # u_1
        (1, n - k, (1, n, n + k)),     # u_2 .. u_{n-k}
        (n - k, n - 1, (1, k, n)),     # u_{n-k+1} .. u_{n-1}
        (n - 1, n, (k, n)),            # u_n
        (n, n + 1, (1, n - 1)),        # v_1
        (n + 1, 2 * n - 1, (1,)),      # v_2 .. v_{n-1}
    ]))


def circulant(n: int, a: int, b: int) -> Graph:
    """The quartic circulant Ci[2n,{a,b}] with x_i ~ x_{i+-a}, x_{i+-b}."""
    return _circulant(2 * n, _circulant_pair(n, a, b))


def circulant_graph(order: int, lengths: Sequence[int]) -> Graph:
    """Circulant of arbitrary order with the given connection lengths.

    Lengths are checked by `_circulant_lengths`; with two of them the graph
    is quartic.
    """
    return _circulant(order, _circulant_lengths(order, lengths))


def _circulant(order: int, norm: tuple[int, ...]) -> Graph:
    """The circulant with lengths already normalized by `_circulant_lengths`.

    Each length r joins x_i to x_{i+r} for i + r < order and, since
    r < order/2, x_i to the wrapping x_{i+order-r} for i < r; the pairs of
    all lengths are sorted once.
    """
    edges: list[tuple[int, int]] = []
    for r in norm:
        edges += zip(range(order - r), range(r, order))
        edges += zip(range(r), range(order - r, order))
    edges.sort()
    return _built(order, tuple(edges))
