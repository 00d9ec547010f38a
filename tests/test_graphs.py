"""Family constructors, edge classes, and structural predicates."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accordions import (
    DIAGONAL_SPOKE,
    INNER_CYCLE,
    OUTER_CYCLE,
    VERTICAL_SPOKE,
    CirculantParams,
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
    edge_length,
    is_bipartite,
    is_connected,
    is_regular,
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

    def test_components_are_sorted_sizes_and_bipartiteness(self):
        c3_c4 = Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)))
        two_c4 = Graph(8, tuple((4 * c + i, 4 * c + (i + 1) % 4) for c in range(2) for i in range(4)))
        cases = [(c3_c4, ((3, 4), False)), (two_c4, ((4, 4), True)), (Graph(1, ()), ((1,), True))]
        for g, expected in cases:
            assert g.components == expected
            assert is_connected(g) == (len(expected[0]) == 1)
            assert is_bipartite(g) == expected[1]
        copy = c3_c4.relabel([6, 5, 4, 3, 2, 1, 0])
        assert "components" in vars(c3_c4) and "components" not in vars(copy)
        assert copy.components == ((3, 4), False)


class TestCyclesAndPaths:
    def test_triangle(self):
        g = cycle_graph(3)
        assert g.order == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_c5(self):
        g = cycle_graph(5)
        assert g.order == 5 and g.size == 5
        assert is_regular(g, 2) and is_connected(g)

    def test_c4_bipartite_c3_not(self):
        assert is_bipartite(cycle_graph(4))
        assert not is_bipartite(cycle_graph(3))

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
        assert is_regular(g, 4)

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
        assert g.order == 6 and g.size == 12 and is_regular(g, 4)

    def test_a42_bipartite(self):
        assert is_bipartite(accordion(4, 2))

    def test_a62_bipartite(self):
        assert is_bipartite(accordion(6, 2))

    def test_a52_regular(self):
        assert is_regular(accordion(5, 2), 4)
        assert not is_regular(path_graph(5), 4)

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
                assert is_regular(g, 4)
                assert is_connected(g)
                assert is_bipartite(g) == (n % 2 == 0 and k % 2 == 0)

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
        assert g.order == 8 and g.size == 16 and is_regular(g, 4)

    def test_ci6_triangle(self):
        g = circulant(3, 1, 2)
        assert is_connected(g)
        assert not is_bipartite(g)
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(0, 2)

    def test_ci12_disconnected(self):
        assert not is_connected(circulant(6, 2, 4))

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
                    assert is_regular(g, 4)
                    assert is_connected(g) == (math.gcd(2 * n, a, b) == 1)
                    if math.gcd(2 * n, a, b) == 1:
                        assert is_bipartite(g) == (a % 2 == 1 and b % 2 == 1)
                    else:
                        # the both-odd criterion presumes connectivity; a
                        # disconnected circulant is bipartite iff its scaled
                        # component is
                        d = math.gcd(2 * n, a, b)
                        expect = (2 * n // d) % 2 == 0 and (a // d) % 2 == 1 and (b // d) % 2 == 1
                        assert is_bipartite(g) == expect

    def test_general_order(self):
        g = circulant_graph(9, (1, 2))
        assert g.order == 9 and g.size == 18 and is_regular(g, 4)

    def test_general_order_rejects_half_length(self):
        with pytest.raises(InvalidParameterError):
            circulant_graph(12, (6, 1))

    def test_edge_length(self):
        assert edge_length(10, 0, 7) == 3
        assert edge_length(10, 2, 7) == 5
        assert normalize_length(13, 10) == 3


@pytest.mark.parametrize("order,lengths", [(4, (1, 2)), (12, (3, 9)), (12, (6, 1)), (12, (0, 1))])
def test_every_circulant_entry_point_rejects_bad_lengths(order, lengths):
    # out of range at order 4, duplicate after folding, the half-order, zero
    with pytest.raises(InvalidParameterError):
        circulant_graph(order, lengths)
    with pytest.raises(InvalidParameterError):
        CirculantParams(order // 2, *lengths)
    with pytest.raises(InvalidParameterError):
        circulant_iso_torus(order, *lengths, 3, 4)
    with pytest.raises(InvalidParameterError):
        torus_parameters(order, *lengths)


@given(st.integers(3, 12), st.integers(0, 10_000))
def test_cycle_rotation_preserves_graph(t, shift):
    g = cycle_graph(t)
    perm = [(v + shift) % t for v in range(t)]
    assert g.relabel(perm) == g
