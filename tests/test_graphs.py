"""Family constructors, edge classes, and structural predicates."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accordions import graphs
from accordions import (
    DIAGONAL_SPOKE,
    INNER_CYCLE,
    OUTER_CYCLE,
    VERTICAL_SPOKE,
    Graph,
    InvalidParameterError,
    accordion,
    accordion_edge_classes,
    cartesian_product,
    circulant,
    circulant_graph,
    circulant_iso_torus,
    cycle_graph,
    cylinder_cut_edges,
    normalize_length,
    path_graph,
    torus_parameters,
)


class TestGraphType:
    def test_canonical_edge_order(self):
        assert Graph(3, ((2, 1), (0, 2), (1, 0))) == Graph(3, ((0, 1), (0, 2), (1, 2)))

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph(3, ((1, 1),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph(3, ((0, 1), (1, 0)))

    def test_endpoint_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Graph(3, ((0, 3),))

    def test_order_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            Graph(0, ())

    # a bool or float would pass the range checks and serialize as a different graph
    @pytest.mark.parametrize(
        "order,edges",
        [(3, ((True, 0),)), (3, ((0, 1.5),)), (True, ())],
        ids=["bool-endpoint", "float-endpoint", "bool-order"],
    )
    def test_non_integer_order_or_endpoint_rejected(self, order, edges):
        with pytest.raises(InvalidParameterError):
            Graph(order, edges)

    def test_relabel_roundtrip(self):
        g = cycle_graph(5)
        perm = [2, 0, 4, 1, 3]
        inv = [0] * 5
        for v, img in enumerate(perm):
            inv[img] = v
        assert g.relabel(perm).relabel(inv) == g

    def test_relabel_rejects_non_permutation(self):
        with pytest.raises(InvalidParameterError):
            cycle_graph(3).relabel([0, 0, 1])

    @pytest.mark.parametrize("g, perm", [
        (cycle_graph(3), [True, False, 2]),
        (cycle_graph(3), [0.0, 1, 2]),
        (Graph(3, ((1, 2),)), [False, 1, 2]),
        (Graph(3, ((1, 2),)), [0.0, 1, 2]),
        (Graph(3, ((1, 2),)), [0, "1", 2]),
    ], ids=["bool", "float", "isolated-bool", "isolated-float", "str"])
    def test_relabel_rejects_non_integer_entries(self, g, perm):
        # the permutation check alone passes the bool and float entries, and
        # an isolated vertex's label is no edge endpoint for Graph to check
        with pytest.raises(InvalidParameterError):
            g.relabel(perm)

    def test_components_are_sorted_sizes_and_bipartiteness(self):
        c3_c4 = Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)))
        two_c4 = Graph(8, tuple((4 * c + i, 4 * c + (i + 1) % 4) for c in range(2) for i in range(4)))
        cases = [(c3_c4, ((3, 4), False)), (two_c4, ((4, 4), True)), (Graph(1, ()), ((1,), True))]
        for g, expected in cases:
            assert g.components == expected
        copy = c3_c4.relabel([6, 5, 4, 3, 2, 1, 0])
        assert "components" in vars(c3_c4) and "components" not in vars(copy)
        assert copy.components == ((3, 4), False)

    def test_neighbour_lists_come_out_ascending(self):
        # the lists are built from the sorted edges with no sort of their own:
        # however the edges are given, each list must still be ascending
        rng = random.Random(5)
        base = [accordion(7, 2), circulant(9, 2, 5), cartesian_product(cycle_graph(3), cycle_graph(5)),
                path_graph(6), Graph(5, ((3, 1), (4, 1)))]
        graphs = []
        for g in base:
            edges = list(g.edges)
            shuffled = edges[:]
            rng.shuffle(shuffled)
            flipped = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in shuffled]
            perm = list(range(g.order))
            rng.shuffle(perm)
            graphs += [Graph(g.order, tuple(reversed(edges))), Graph(g.order, tuple(flipped)),
                       Graph(g.order, tuple((j, i) for i, j in edges)), g.relabel(perm)]
        for g in graphs:
            adjacent = [set() for _ in range(g.order)]
            for i, j in g.edges:
                adjacent[i].add(j)
                adjacent[j].add(i)
            for v in range(g.order):
                assert g.neighbors[v] == tuple(sorted(adjacent[v]))


class TestCyclesAndPaths:
    def test_triangle(self):
        g = cycle_graph(3)
        assert g.order == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_c5(self):
        g = cycle_graph(5)
        assert g.order == 5 and g.size == 5
        assert set(g.degrees) == {2} and g.components == ((5,), False)

    def test_c4_bipartite_c3_not(self):
        assert cycle_graph(4).components[1]
        assert not cycle_graph(3).components[1]

    def test_cycle_too_short(self):
        with pytest.raises(InvalidParameterError):
            cycle_graph(2)

    @pytest.mark.parametrize("t,size", [(1, 0), (2, 1), (5, 4)])
    def test_paths(self, t, size):
        g = path_graph(t)
        assert g.order == t and g.size == size

    def test_p5_endpoints(self):
        degs = sorted(path_graph(5).degrees)
        assert degs == [1, 1, 2, 2, 2]

    def test_path_invalid(self):
        with pytest.raises(InvalidParameterError):
            path_graph(0)


class TestCartesianProduct:
    def test_c4_c5_counts(self):
        g = cartesian_product(cycle_graph(4), cycle_graph(5))
        assert g.order == 20 and g.size == 40
        assert set(g.degrees) == {4}

    def test_p1_is_identity_factor(self):
        h = accordion(5, 2)
        assert cartesian_product(path_graph(1), h) == h

    def test_c4_p5_degrees(self):
        g = cartesian_product(cycle_graph(4), path_graph(5))
        assert g.order == 20 and g.size == 36
        degs = sorted(g.degrees)
        assert degs.count(3) == 8 and degs.count(4) == 12

    def test_size_formula(self):
        g, h = cycle_graph(6), path_graph(4)
        prod = cartesian_product(g, h)
        assert prod.size == g.order * h.size + h.order * g.size


class TestAccordion:
    def test_a31_counts(self):
        g = accordion(3, 1)
        assert g.order == 6 and g.size == 12 and set(g.degrees) == {4}

    def test_a42_bipartite(self):
        assert accordion(4, 2).components[1]

    def test_a62_bipartite(self):
        assert accordion(6, 2).components[1]

    def test_a52_regular(self):
        assert set(accordion(5, 2).degrees) == {4}
        assert set(path_graph(5).degrees) != {4}

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (5, 0), (5, 3), (10, 6)])
    def test_invalid_parameters(self, n, k):
        with pytest.raises(InvalidParameterError):
            accordion(n, k)

    def test_edge_classes_partition(self):
        for n, k in [(3, 1), (8, 4), (9, 2)]:
            g = accordion(n, k)
            tags = accordion_edge_classes(n, k)
            assert set(tags) == set(g.edges)
            counts = {}
            for tag in tags.values():
                counts[tag] = counts.get(tag, 0) + 1
            assert counts == {
                OUTER_CYCLE: n,
                INNER_CYCLE: n,
                VERTICAL_SPOKE: n,
                DIAGONAL_SPOKE: n,
            }

    def test_family_invariants(self):
        for n in range(3, 15):
            for k in range(1, n // 2 + 1):
                g = accordion(n, k)
                assert g.order == 2 * n and g.size == 4 * n
                assert set(g.degrees) == {4}
                assert g.components == ((2 * n,), n % 2 == 0 and k % 2 == 0)

    def test_cut_edges_a10_5(self):
        # deleting u5u6, v5v6, u10u1, v10v1 (0-based: 4-5, 14-15, 0-9, 10-19)
        assert cylinder_cut_edges(10, 5) == ((0, 9), (4, 5), (10, 19), (14, 15))

    def test_cut_edges_are_cycle_edges(self):
        for n, k in [(10, 5), (9, 3), (12, 4)]:
            tags = accordion_edge_classes(n, k)
            for e in cylinder_cut_edges(n, k):
                assert tags[e] in (OUTER_CYCLE, INNER_CYCLE)


class TestCirculant:
    def test_ci8_counts(self):
        g = circulant(4, 1, 3)
        assert g.order == 8 and g.size == 16 and set(g.degrees) == {4}

    def test_ci6_triangle(self):
        g = circulant(3, 1, 2)
        assert g.components == ((6,), False)
        assert {(0, 1), (1, 2), (0, 2)} <= set(g.edges)

    def test_ci12_disconnected(self):
        assert len(circulant(6, 2, 4).components[0]) > 1

    def test_normalization_folds_lengths(self):
        # 7 mod 10 = 7 -> min(7, 3) = 3
        assert circulant(5, 7, 2) == circulant(5, 3, 2)

    def test_normalized_collision_rejected(self):
        with pytest.raises(InvalidParameterError):
            circulant(5, 2, 8)  # 8 folds to 2

    @pytest.mark.parametrize("n,a,b", [(4, 4, 1), (4, 8, 1), (3, 1, 1), (2, 1, 2)])
    def test_invalid_parameters(self, n, a, b):
        with pytest.raises(InvalidParameterError):
            circulant(n, a, b)

    def test_family_invariants(self):
        for n in range(3, 11):
            for a in range(1, n):
                for b in range(a + 1, n):
                    g = circulant(n, a, b)
                    assert g.order == 2 * n and g.size == 4 * n
                    assert set(g.degrees) == {4}
                    sizes, bipartite = g.components
                    assert (len(sizes) == 1) == (math.gcd(2 * n, a, b) == 1)
                    if math.gcd(2 * n, a, b) == 1:
                        assert bipartite == (a % 2 == 1 and b % 2 == 1)
                    else:
                        # the both-odd criterion presumes connectivity; a
                        # disconnected circulant is bipartite iff its scaled
                        # component is
                        d = math.gcd(2 * n, a, b)
                        expect = (2 * n // d) % 2 == 0 and (a // d) % 2 == 1 and (b // d) % 2 == 1
                        assert bipartite == expect

    def test_general_order(self):
        g = circulant_graph(9, (1, 2))
        assert g.order == 9 and g.size == 18 and set(g.degrees) == {4}

    def test_general_order_rejects_half_length(self):
        with pytest.raises(InvalidParameterError):
            circulant_graph(12, (6, 1))

    def test_normalize_length(self):
        assert normalize_length(0 - 7, 10) == 3
        assert normalize_length(2 - 7, 10) == 5
        assert normalize_length(13, 10) == 3


@pytest.mark.parametrize("order,lengths", [(4, (1, 2)), (12, (3, 9)), (12, (6, 1)), (12, (0, 1))])
def test_every_circulant_entry_point_rejects_bad_lengths(order, lengths):
    # out of range at order 4, duplicate after folding, the half-order, zero
    with pytest.raises(InvalidParameterError):
        circulant_graph(order, lengths)
    with pytest.raises(InvalidParameterError):
        circulant(order // 2, *lengths)
    with pytest.raises(InvalidParameterError):
        circulant_iso_torus(order, *lengths, 3, 4)
    with pytest.raises(InvalidParameterError):
        torus_parameters(order, *lengths)


@given(st.integers(3, 12), st.integers(0, 10_000))
def test_cycle_rotation_preserves_graph(t, shift):
    g = cycle_graph(t)
    perm = [(v + shift) % t for v in range(t)]
    assert g.relabel(perm) == g


# --- the Graph checks and the constructors against their per-edge originals --


def _reference_edges(order, edges):
    """Graph's edge check with a per-edge seen set: each edge is checked in
    input order, so the first fault raises.  The reference for the errors and
    the edge tuples of Graph and every constructor."""
    seen = set()
    out = []
    for edge in edges:
        i, j = edge
        if type(i) is not int or type(j) is not int:
            raise InvalidParameterError(f"edge endpoints must be integers, got ({i!r},{j!r})")
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


def _outcome(build, *args):
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_ENDPOINT = st.one_of(st.integers(-2, 9), st.booleans(), st.sampled_from([0.0, 1.5, 2.0]))
_EDGE = st.one_of(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.tuples(_ENDPOINT, _ENDPOINT),
    st.sampled_from([(0,), (0, 1, 2), [2, 3]]),
)


@st.composite
def _faulty_edge_lists(draw):
    """Any mixture of good, bad and malformed edges, or a valid edge list with
    a plain or reversed duplicate spliced in and maybe one more edge, bad or
    not, before or after it."""
    order = draw(st.integers(1, 8))
    if draw(st.booleans()):
        return order, draw(st.lists(_EDGE, max_size=12))
    edges = [(i, j) for i in range(order) for j in range(i + 1, order)]
    edges = draw(st.permutations(edges))[: draw(st.integers(0, len(edges)))]
    if edges:
        i, j = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(edges.index((i, j)) + 1, len(edges))),
                     draw(st.sampled_from([(i, j), (j, i)])))
        if draw(st.booleans()):
            edges.insert(draw(st.integers(0, len(edges))), draw(_EDGE))
    return order, edges


@settings(max_examples=400)
@given(_faulty_edge_lists())
def test_graph_errors_match_the_per_edge_check(case):
    order, edges = case
    expected = _outcome(_reference_edges, order, edges)
    assert _outcome(lambda: Graph(order, tuple(edges)).edges) == expected
    assert _outcome(lambda: Graph(order, iter(edges)).edges) == expected  # read once, then walked on a fault


def test_graph_names_a_duplicate_before_a_later_fault():
    for bad in [(0, 0), (0, 9), (True, 1), (0, 1.5), (0, 1, 2), (4,)]:
        with pytest.raises(InvalidParameterError, match=r"^duplicate edge \(1, 2\)$"):
            Graph(5, ((1, 2), (0, 3), (2, 1), bad))
        with pytest.raises((TypeError, ValueError)) as caught:
            Graph(5, ((1, 2), (0, 3), bad, (2, 1)))
        assert "duplicate" not in str(caught.value)


def test_circulant_folds_its_lengths_once(monkeypatch):
    calls = []
    real = graphs._circulant_lengths
    monkeypatch.setattr(graphs, "_circulant_lengths", lambda order, lengths: calls.append(order) or real(order, lengths))
    assert circulant(5, 3, 16) == circulant_graph(10, (3, 4))
    assert calls == [10, 10]  # one for each call


def _reference_cycle(t):
    return _reference_edges(t, [(i, (i + 1) % t) for i in range(t)])


def _reference_path(t):
    return _reference_edges(t, [(i, i + 1) for i in range(t - 1)])


def _reference_product(g_order, g_edges, h_order, h_edges):
    edges = [(x * h_order + y1, x * h_order + y2) for x in range(g_order) for y1, y2 in h_edges]
    edges += [(x1 * h_order + y, x2 * h_order + y) for x1, x2 in g_edges for y in range(h_order)]
    return _reference_edges(g_order * h_order, edges)


def _reference_accordion(n, k):
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges += [(i, j), (n + i, n + j), (i, n + i), (i, n + (i + k) % n)]
    return _reference_edges(2 * n, edges)


def _reference_circulant(order, lengths):
    norm = [min(r % order, order - r % order) for r in lengths]
    return _reference_edges(order, [(i, (i + r) % order) for r in norm for i in range(order)])


class TestConstructorsMatchThePerEdgeBuilds:
    def test_accordions(self):
        for n in range(3, 41):
            for k in range(1, n // 2 + 1):
                assert accordion(n, k).edges == _reference_accordion(n, k), (n, k)

    def test_circulants(self):
        for order in range(3, 61):
            bound = (order - 1) // 2
            for a in range(1, bound + 1):
                assert circulant_graph(order, (a,)).edges == _reference_circulant(order, (a,))
                for b in range(a + 1, bound + 1):
                    # the second length unfolded: order - b normalizes to b
                    expected = _reference_circulant(order, (a, b))
                    assert circulant_graph(order, (a, order - b)).edges == expected, (order, a, b)
            assert circulant_graph(order, range(1, bound + 1)).edges == _reference_circulant(order, range(1, bound + 1))

    def test_cycles_paths_and_their_products(self):
        factors = [(cycle_graph(t), _reference_cycle(t)) for t in range(3, 13)]
        factors += [(path_graph(t), _reference_path(t)) for t in range(1, 13)]
        for g, g_edges in factors:
            assert g.edges == g_edges
        for g, g_edges in factors:
            for h, h_edges in factors:
                assert cartesian_product(g, h).edges == _reference_product(g.order, g_edges, h.order, h_edges)

    def test_order_2000(self):
        assert accordion(1000, 334).edges == _reference_accordion(1000, 334)
        assert circulant_graph(2000, (1, 998)).edges == _reference_circulant(2000, (1, 998))
        torus = cartesian_product(cycle_graph(40), cycle_graph(25))
        assert torus.edges == _reference_product(40, _reference_cycle(40), 25, _reference_cycle(25))
