"""Explicit isomorphism and automorphism maps, plus the certificate checker.

Every map is built in closed form; none is found by search.  A constructor
builds no graph and does not check its own output: the code that emits a
certificate checks it once with verify_witness against graphs built
independently of the map (the CLI before it prints a verdict, the census
when it fills witness_verified).  Directions are fixed and documented per
constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .deciders import accordions_isomorphic, circulant_iso_accordion, circulant_iso_torus
from .errors import InvalidParameterError
from .graphs import Graph, _built, _check_accordion, _is_permutation, cartesian_product, cycle_graph, path_graph
from .modarith import steps_to_gcd

__all__ = [
    "VertexMap",
    "verify_witness",
    "cycle_swap_automorphism",
    "accordion_witness",
    "circulant_accordion_witness",
    "torus_witness",
    "CylinderExtension",
    "accordion_from_cylinder",
]


@dataclass(frozen=True)
class VertexMap:
    """A vertex map between two graphs; mapping[i] is the image of i.

    The constructor checks nothing: verify_witness is the one check of a map.
    """

    mapping: tuple[int, ...]

    @staticmethod
    def identity(order: int) -> "VertexMap":
        return VertexMap(tuple(range(order)))


def verify_witness(g: Graph, h: Graph, vm: VertexMap) -> bool:
    """True iff g and h have one order, vm permutes its range and carries g's edges exactly onto h's."""
    m = vm.mapping
    if g.order != h.order or not _is_permutation(m, g.order):
        return False
    # an edge {x, y}, x < y, is the integer x*order + y: cheaper to hash than a pair
    n = g.order
    target = {i * n + j for i, j in h.edges}
    for i, j in g.edges:
        x, y = m[i], m[j]
        if (x * n + y if x < y else y * n + x) not in target:
            return False
    # g's edges are distinct and m is a bijection, so their images are distinct too:
    # all in h and as many as h's edges means exactly h's edges
    return g.size == h.size


def cycle_swap_automorphism(n: int, k: int) -> VertexMap:
    """The involutive automorphism of A[n,k] exchanging the outer and inner cycles.

    u_1 <-> v_1 and, for i in [2,n], u_i -> v_{2-i}, v_i -> u_{2-i}
    (subscripts mod n over {1..n}); it reverses each cycle's orientation.
    """
    _check_accordion(n, k)
    m = [n + (-j) % n for j in range(n)] + [(-j) % n for j in range(n)]
    return VertexMap(tuple(m))


def _spoke_cycle(n: int, k: int, start: int) -> list[int]:
    """The alternating spoke cycle through v_start in A[n,k], as 0-based vertices.

    The cycle is (v_start, u_start, v_{start+k}, u_{start+k}, ...) and has
    length 2n/gcd(n,k).
    """
    us = [(start - 1 + t * k) % n for t in range(n // math.gcd(n, k))]
    return [v for u in us for v in (n + u, u)]


def accordion_witness(n: int, k1: int, k2: int) -> VertexMap:
    """An isomorphism A[n,k2] -> A[n,k1]; refuses non-isomorphic parameters.

    For k1 = k2 this is the identity.  Otherwise gcd(n,k1) = 2 and the spokes
    of A[n,k1] induce two disjoint n-cycles through v_1 and v_2; relabeling
    those cycles as the outer/inner cycles of a fresh accordion exhibits
    A[n,k2] inside A[n,k1].  The cycles are traversed forward when
    k1*k2/2 == -2 (mod n) and backward when k1*k2/2 == +2 (mod n).
    """
    verdict = accordions_isomorphic(n, k1, k2)
    if not verdict.isomorphic:
        raise InvalidParameterError(f"A[{n},{k1}] and A[{n},{k2}] are not isomorphic")
    if k1 == k2:
        return VertexMap.identity(2 * n)
    # u_i and v_i of A[n,k2] go to position i of the n-vertex spoke cycles
    # through v_1 and v_2; case-plus takes positions 1, n, n-1, ..., 2 instead
    outer, inner = _spoke_cycle(n, k1, 1), _spoke_cycle(n, k1, 2)
    if verdict.branch == "case-plus":
        outer, inner = outer[:1] + outer[:0:-1], inner[:1] + inner[:0:-1]
    return VertexMap(tuple(outer + inner))


def circulant_accordion_witness(n: int, a: int, b: int, k: int) -> VertexMap:
    """A closed-form isomorphism Ci[2n,{a,b}] -> A[n,k]; refuses decider-false inputs.

    Bipartite regime (both lengths odd, k = 2): the inverse of the index
    scaling x_i -> x_{i*a}, that is x_{t+1} -> x_{(t+1)*a^-1} (a the
    normalized length, a unit mod 2n), followed by the base map
    Ci[2n,{1,n-1}] -> A[n,2] that fixes x_t -> u_t and sends
    x_{n+t} -> v_{t+1} (0-based, t in [0,n)).  In the circulant x_t and
    x_{n+t} are twins (both adjacent to x_{t+-1}, x_{n+t+-1}); in A[n,2]
    u_t and v_{t+1} are twins (both adjacent to u_{t+-1}, v_{t+1+-1}); and
    consecutive twin pairs span a K_{2,2} in both graphs.

    Mixed-parity regime, with a odd and b even, q = gcd(n,k), p = 2n/q and s
    the least multiplier with s*k == q (mod n): the length-a edges split the
    circulant into q cycles of length p and the spokes split the accordion
    likewise; the map carries the i-th circulant p-cycle onto the i-th
    accordion p-cycle, anchored at x_{a+ib} -> v_i.  The traversal starts
    x_{a+ib}, x_{2a+ib}, ... when b*q == +2*s*a (mod 2n) and
    x_{a+ib}, x_{ib}, ... when b*q == -2*s*a.
    """
    verdict = circulant_iso_accordion(n, a, b, k)
    if not verdict.isomorphic:
        raise InvalidParameterError(
            f"Ci[{2 * n},{{{a},{b}}}] is not isomorphic to A[{n},{k}]"
        )
    two_n = 2 * n
    if verdict.regime == "bipartite":
        base = list(range(n)) + [n + (t + 1) % n for t in range(n)]
        inv = pow(verdict.a, -1, two_n)
        return VertexMap(tuple(base[((t + 1) * inv - 1) % two_n] for t in range(two_n)))

    ao, bo = (verdict.b, verdict.a) if verdict.swapped else (verdict.a, verdict.b)
    q, sign = verdict.q, verdict.sign
    p = two_n // q
    step = ao if sign > 0 else -ao
    m = [-1] * two_n
    for i in range(1, q + 1):
        # x_{a+ib+(j-1)*step} -> position j of the p-vertex spoke cycle through v_i
        first = ao + i * bo - 1
        for src, v in zip([(first + t * step) % two_n for t in range(p)], _spoke_cycle(n, k, i)):
            m[src] = v
    return VertexMap(tuple(m))


def torus_witness(nprime: int, a1: int, a2: int, n1: int, n2: int) -> VertexMap:
    """A closed-form isomorphism Ci[nprime,{a1,a2}] -> C_{n1} [] C_{n2}; refuses decider-false inputs.

    With the lengths ordered so that gcd(nprime,a1) = n2 and gcd(nprime,a2) = n1,
    a1 is a unit mod n1 and a multiple of n2, and a2 the reverse, so the CRT
    map x_i -> (i*a1^-1 mod n1, i*a2^-1 mod n2) turns each length-a1 step
    into a step around the n1-cycle and each length-a2 step into one around
    the n2-cycle.  Vertex (x, y) of the product is x*n2 + y, as in
    cartesian_product.
    """
    if not circulant_iso_torus(nprime, a1, a2, n1, n2):
        raise InvalidParameterError(
            f"Ci[{nprime},{{{a1},{a2}}}] is not isomorphic to C{n1} [] C{n2}"
        )
    if math.gcd(nprime, a1) != n2:
        a1, a2 = a2, a1
    s1, s2 = pow(a1, -1, n1), pow(a2, -1, n2)
    m = [(i * s1 % n1) * n2 + i * s2 % n2 for i in range(nprime)]
    return VertexMap(tuple(m))


@dataclass(frozen=True)
class CylinderExtension:
    """An accordion rebuilt by adding chords to a cycle-times-path graph.

    graph: the chorded cylinder; steps: the least s with s*k == gcd(n,k)
    (mod n), so chords advance 2*steps positions around the rim;
    added_edges: the chords, 0-based; added_index_pairs: the same chords as
    1-based rim positions (r_i, l_j) (or (w_i, w_j) when the path is trivial);
    to_accordion: a closed-form isomorphism graph -> A[n,k], unchecked here
    (check it with verify_witness), that sends row p of the cylinder,
    (c, p) for c in [0,n1), onto the spoke cycle through v_{p+1}.
    """

    graph: Graph
    steps: int
    added_edges: tuple[tuple[int, int], ...]
    added_index_pairs: tuple[tuple[int, int], ...]
    to_accordion: VertexMap


def accordion_from_cylinder(n1: int, n2: int, k: int) -> CylinderExtension:
    """Rebuild A[n,k] (n = n1*n2/2) from C_{n1} [] P_{n2} by adding n1 chords.

    Requires n1 even >= 4, n2 >= 1 and gcd(n,k) = n2.  Vertex (c, p) of the
    product is indexed c*n2 + p, so the degree-3 rims are l_i = (i-1)*n2 and
    r_i = (i-1)*n2 + n2 - 1; the added chords are r_i -- l_{i+2*steps}
    (rim indices mod n1).  When n2 = 1 the base is just the n1-cycle
    (w_1..w_{n1}) and the chords are w_i -- w_{i+2*steps}.

    With g = gcd(n,k) = n2, to_accordion maps the chords onto the cut
    u_{tg}u_{tg+1}, v_{tg}v_{tg+1} (t = 1..n/g): removing those n1 cycle
    edges from A[n,k] leaves C_{2n/g} [] P_g, the base.
    """
    if n1 < 4 or n1 % 2 != 0:
        raise InvalidParameterError(f"n1 must be even and >= 4, got {n1}")
    if n2 < 1:
        raise InvalidParameterError(f"n2 must be >= 1, got {n2}")
    n = n1 * n2 // 2
    _check_accordion(n, k)
    if math.gcd(n, k) != n2:
        raise InvalidParameterError(
            f"need gcd(n,k) = n2: gcd({n},{k}) = {math.gcd(n, k)} != {n2}"
        )
    steps = steps_to_gcd(n, k)
    shift = (2 * steps) % n1
    base = cartesian_product(cycle_graph(n1), path_graph(n2))
    added = [(i * n2 + n2 - 1, ((i + shift) % n1) * n2) for i in range(n1)]
    pairs = [(i + 1, ((i + shift) % n1) + 1) for i in range(n1)]
    canonical_added = tuple(sorted((min(e), max(e)) for e in added))
    # valid by construction: shift is even, non-zero (s*k == gcd(n,k) < n) and not n1/2 (that
    # needs n = 2), so no chord r_i -- l_{i+shift} is a loop, an edge of the base or another chord
    graph = _built(2 * n, tuple(sorted(base.edges + canonical_added)))
    rows = [_spoke_cycle(n, k, p + 1) for p in range(n2)]  # n1 vertices each
    vm = VertexMap(tuple(v for column in zip(*rows) for v in column))
    return CylinderExtension(graph, steps, canonical_added, tuple(pairs), vm)
