"""Brute-force oracle: soundness, completeness at desk scale, canonical keys."""

import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accordions import (
    BudgetExceededError,
    Graph,
    accordion,
    are_isomorphic,
    canonical_key,
    cartesian_product,
    circulant,
    circulant_graph,
    cycle_graph,
    path_graph,
    refinement_colors,
    verify_witness,
)
from accordions import graphs, oracle
from accordions.oracle import _refine, _replay, _search


def _two_triangles():
    return Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))


def _quartic_family(order):
    """Every accordion, quartic circulant and cycle product of an even order."""
    n, half = order // 2, (order - 1) // 2
    graphs = [accordion(n, k) for k in range(1, n // 2 + 1)]
    graphs += [circulant_graph(order, (a, b)) for a in range(1, half + 1) for b in range(a + 1, half + 1)]
    graphs += [
        cartesian_product(cycle_graph(d), cycle_graph(order // d))
        for d in range(3, order) if order % d == 0 and 3 <= d <= order // d
    ]
    return graphs


@pytest.fixture(scope="module")
def networkx():
    return pytest.importorskip("networkx")


def _vf2_isomorphic(networkx, g, h):
    gx, hx = networkx.Graph(g.edges), networkx.Graph(h.edges)
    gx.add_nodes_from(range(g.order))
    hx.add_nodes_from(range(h.order))
    return networkx.is_isomorphic(gx, hx)


class TestAreIsomorphic:
    def test_self_map(self):
        g = accordion(6, 2)
        vm = are_isomorphic(g, g)
        assert vm is not None and verify_witness(g, g, vm)

    def test_c6_vs_two_triangles(self):
        assert are_isomorphic(cycle_graph(6), _two_triangles()) is None

    def test_known_family_identity(self):
        vm = are_isomorphic(circulant(4, 1, 3), accordion(4, 2))
        assert vm is not None
        assert verify_witness(circulant(4, 1, 3), accordion(4, 2), vm)

    def test_order_mismatch(self):
        assert are_isomorphic(cycle_graph(3), cycle_graph(4)) is None

    def test_same_counts_different_structure(self):
        # both 4-regular on 16 vertices, one bipartite
        assert are_isomorphic(circulant(8, 1, 7), circulant(8, 1, 2)) is None

    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(st.just(n), st.permutations(range(2 * n)))))
    def test_relabeling_invariance_accordion(self, n_perm):
        n, perm = n_perm
        g = accordion(n, n // 2)
        vm = are_isomorphic(g, g.relabel(list(perm)))
        assert vm is not None

    @given(st.permutations(range(14)))
    def test_relabeling_invariance_circulant(self, perm):
        g = circulant(7, 2, 3)
        vm = are_isomorphic(g, g.relabel(list(perm)))
        assert vm is not None and verify_witness(g, g.relabel(list(perm)), vm)

    def test_budget_exhaustion_raises(self):
        g = accordion(10, 3)
        with pytest.raises(BudgetExceededError):
            are_isomorphic(g, g.relabel(list(reversed(range(20)))), node_budget=2)

    def test_search_needs_no_recursion(self):
        # a perfect matching on 400 vertices splits one edge per level: the
        # search is 200 levels deep, beyond a recursion limit of 200
        g = Graph(400, tuple((2 * i, 2 * i + 1) for i in range(200)))
        perm = list(range(400))
        random.Random(400).shuffle(perm)
        h = g.relabel(perm)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            vm = are_isomorphic(g, h)
        finally:
            sys.setrecursionlimit(limit)
        assert vm is not None and verify_witness(g, h, vm)


class TestDifferentialVF2:
    """are_isomorphic against networkx's independent VF2 matcher."""

    @given(st.data())
    def test_family_graphs_and_relabelings(self, networkx, data):
        order = 2 * data.draw(st.integers(3, 12))
        family = _quartic_family(order)
        g = data.draw(st.sampled_from(family))
        h = data.draw(st.one_of(st.just(g), st.sampled_from(family)))
        h = h.relabel(data.draw(st.permutations(range(order))))
        vm = are_isomorphic(g, h)
        assert (vm is not None) == _vf2_isomorphic(networkx, g, h)
        assert vm is None or verify_witness(g, h, vm)

    @pytest.mark.parametrize("n", [29, 30, 37, 38])
    def test_screen_passing_non_isomorphic_pairs(self, networkx, n):
        perm = list(range(2 * n))
        random.Random(n).shuffle(perm)
        g, h = accordion(n, 3), accordion(n, 7).relabel(perm)
        assert are_isomorphic(g, h) is None
        assert not _vf2_isomorphic(networkx, g, h)

    @pytest.mark.parametrize("order", [12, 16])
    def test_canonical_keys_match_vf2(self, networkx, order):
        family = _quartic_family(order)
        keys = [canonical_key(g) for g in family]
        for i, g in enumerate(family):
            for j in range(i + 1, len(family)):
                assert (keys[i] == keys[j]) == _vf2_isomorphic(networkx, g, family[j]), (order, i, j)


def _dense_screens(g):
    """The dense reference: common counts as popcounts of mask intersections over
    all n^2 pairs, and the pair profile as the sorted tuple of all n(n-1)/2 pairs."""
    n, nbrs = g.order, g.neighbors
    masks = [sum(1 << w for w in nb) for nb in nbrs]
    common = [[(masks[i] & masks[j]).bit_count() for j in range(n)] for i in range(n)]
    triangles = [sum(common[v][w] for w in nbrs[v]) // 2 for v in range(n)]
    seeds = tuple((len(nbrs[v]), triangles[v], *sorted(common[v][w] for w in nbrs[v])) for v in range(n))
    pairs = sorted(((masks[i] >> j) & 1, common[i][j]) for i in range(n) for j in range(i + 1, n))
    return seeds, (tuple(sorted(triangles)), tuple(pairs))


class TestSparseScreens:
    """The screens from length-2 paths against the dense reference."""

    @pytest.mark.parametrize("order", range(6, 31, 2))
    def test_family_graphs_and_relabelings_match_the_dense_reference(self, order):
        family = _quartic_family(order)
        rng = random.Random(order)
        for g in list(family):
            perm = list(range(order))
            rng.shuffle(perm)
            family.append(g.relabel(perm))
        dense = [_dense_screens(g) for g in family]
        sparse = [g.local_invariants for g in family]
        assert [s.seeds for s in sparse] == [seeds for seeds, _ in dense]
        # two profiles are equal under the sparse screens exactly when they are
        # equal under the dense ones: the pairing of the two is a bijection
        profiles = [(s.profile, d) for s, (_, d) in zip(sparse, dense)]
        assert len({s for s, _ in profiles}) == len({d for _, d in profiles}) == len(set(profiles))

    @staticmethod
    def _assert_at_most_d_times_d_minus_1_entries(g):
        # one entry at most per path v-u-w with w != v: d(d-1) in a d-regular graph
        counts = graphs._common_neighbor_counts(g)
        for v, common in enumerate(counts):
            assert len(common) <= sum(g.degree(u) - 1 for u in g.neighbors[v])
            assert v not in common and 0 not in common.values()
        d = max(g.degrees)
        assert min(g.degrees) < d or max(map(len, counts)) <= d * (d - 1)

    def test_each_common_neighbour_map_has_at_most_d_times_d_minus_1_entries(self):
        for g in _quartic_family(24) + [path_graph(5), _two_triangles()]:
            self._assert_at_most_d_times_d_minus_1_entries(g)

    def test_order_20000_pair_is_rejected_by_the_profile(self):
        # both graphs are connected and not bipartite, so the pair passes the
        # components screen; the peak bound leaves no room for an n^2 structure,
        # be it a common-neighbour matrix (4 * 10^8 counts) or adjacency
        # bitmasks (about 50 MB per graph at this order)
        g, h = accordion(10000, 1), accordion(10000, 3)
        tracemalloc.start()
        try:
            assert are_isomorphic(g, h) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20
        assert g.components == h.components == ((20000,), False)
        assert g.local_invariants.profile != h.local_invariants.profile
        self._assert_at_most_d_times_d_minus_1_entries(g)
        self._assert_at_most_d_times_d_minus_1_entries(h)


def _cycles(*lengths):
    """The disjoint union of cycles of the given lengths."""
    edges, start = [], 0
    for t in lengths:
        edges += [(start + i, start + (i + 1) % t) for i in range(t)]
        start += t
    return Graph(start, tuple(edges))


class TestScreenCoverage:
    """Pairs told apart only by a screen that is gone or merged: with equal
    profiles, a later stage must still reject them."""

    def test_degree_multisets_are_checked_by_replay(self):
        net = Graph(6, ((0, 4), (1, 5), (2, 3), (3, 4), (3, 5), (4, 5)))
        h = Graph(6, ((0, 4), (0, 5), (1, 2), (1, 4), (2, 4), (3, 4)))
        assert net.size == h.size and net.components == h.components
        assert sorted(net.degrees) == [1, 1, 1, 3, 3, 3] and sorted(h.degrees) == [1, 1, 2, 2, 2, 4]
        assert net.local_invariants.profile == h.local_invariants.profile
        assert are_isomorphic(net, h) is None

    @pytest.mark.parametrize("lengths", [(6, 6), (5, 7)], ids=["2C6", "C5+C7"])
    def test_components_and_bipartiteness_are_one_screen(self, lengths):
        g, h = _cycles(12), _cycles(*lengths)
        assert g.local_invariants.profile == h.local_invariants.profile
        assert are_isomorphic(g, h) is None


class TestScreenCache:
    def test_screens_are_computed_once_per_graph(self, monkeypatch):
        calls = []
        count = graphs._common_neighbor_counts
        monkeypatch.setattr(graphs, "_common_neighbor_counts", lambda g: calls.append(g) or count(g))
        perm = list(range(20))
        random.Random(20).shuffle(perm)
        h = cartesian_product(cycle_graph(4), cycle_graph(5)).relabel(perm)
        gs = [circulant_graph(20, ab) for ab in ((1, 2), (2, 3), (4, 5), (1, 4), (3, 4))]
        verdicts = [are_isomorphic(g, h) is not None for g in gs]
        assert verdicts == [False, False, True, False, False]
        assert sum(1 for g in calls if g is h) == 1
        assert len(calls) == len(gs) + 1
        copy = h.relabel(list(range(20)))
        assert copy == h and "local_invariants" in vars(h) and "local_invariants" not in vars(copy)

    def test_oracle_holds_no_module_level_cache(self):
        state = [
            name for name, value in vars(oracle).items()
            if not name.startswith("__")
            and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
        ]
        assert state == []


class TestRefinementColors:
    def test_multiset_is_relabeling_invariant(self):
        g = cartesian_product(cycle_graph(3), path_graph(4))
        rng = random.Random(11)
        perm = list(range(g.order))
        rng.shuffle(perm)
        assert sorted(refinement_colors(g)) == sorted(refinement_colors(g.relabel(perm)))

    def test_distinguishes_degrees(self):
        colors = refinement_colors(path_graph(4))
        assert colors[0] == colors[3] and colors[1] == colors[2]
        assert colors[0] != colors[1]

    def test_deterministic(self):
        g = accordion(6, 2)
        assert refinement_colors(g) == refinement_colors(g)

    def test_exact_colours_are_pinned(self):
        # canonical_key orders vertices by these ranks: the numbering must not drift
        assert refinement_colors(path_graph(4)) == (0, 1, 1, 0)
        assert refinement_colors(accordion(6, 2)) == (0,) * 12
        assert refinement_colors(cartesian_product(cycle_graph(3), path_graph(4))) == (0, 1, 1, 0) * 3
        assert refinement_colors(cartesian_product(path_graph(3), path_graph(4))) == (
            0, 2, 2, 0, 1, 3, 3, 1, 0, 2, 2, 0,
        )


class TestReplay:
    def test_replay_reproduces_the_reference_colours(self):
        g = cartesian_product(cycle_graph(3), path_graph(4))
        perm = [5, 0, 7, 2, 9, 4, 11, 6, 1, 8, 3, 10]
        colors, tables = _refine(g.neighbors, [0] * g.order)
        replayed = _replay(g.relabel(perm).neighbors, [0] * g.order, colors, tables)
        assert replayed == [colors[perm.index(w)] for w in range(g.order)]

    def test_unstable_graph_is_rejected_after_the_last_split(self):
        # C4 is stable at round 0; P4 has the same histogram there, and only
        # the final non-splitting round shows that it would still split
        colors, tables = _refine(cycle_graph(4).neighbors, [0] * 4)
        assert colors == [0] * 4 and len(tables) == 2
        assert _replay(path_graph(4).neighbors, [0] * 4, colors, tables) is None

    def test_histogram_mismatch_is_rejected(self):
        # every signature of 2K4 occurs in K4 + 2K2, but in other numbers
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = Graph(8, tuple(k4) + ((4, 5), (6, 7)))
        h = Graph(8, tuple(k4) + tuple((i + 4, j + 4) for i, j in k4))
        colors, tables = _refine(g.neighbors, [0] * 8)
        assert _replay(h.neighbors, [0] * 8, colors, tables) is None


class TestSearch:
    """Orbit pruning in `_search`, on one cell {0,1,2,3} whose children are leaves."""

    @staticmethod
    def _tried(autos, at_leaf=lambda colors: False):
        tried = []

        def child(depth, colors, v):
            tried.append(v)
            return [(u - v) % 4 for u in range(4)]

        _search([0] * 4, child, at_leaf, [0], 100, autos)
        return tried

    def test_siblings_in_the_orbit_of_tried_ones_are_skipped(self):
        assert self._tried([]) == [0, 1, 2, 3]
        assert self._tried([[1, 0, 3, 2]]) == [0, 2]

    def test_automorphisms_found_on_the_way_prune_later_siblings(self):
        # (0 2)(1 3), found at the first leaf, joins the orbit of 0 to 2 and then 1 to 3
        autos = []
        assert self._tried(autos, lambda colors: autos.append([2, 3, 0, 1]) if not autos else False) == [0, 1]


class TestCanonicalKey:
    def test_relabeling_invariance_c5(self):
        g = cycle_graph(5)
        rng = random.Random(3)
        for _ in range(5):
            perm = list(range(5))
            rng.shuffle(perm)
            assert canonical_key(g.relabel(perm)) == canonical_key(g)

    def test_partner_accordions_equal(self):
        assert canonical_key(accordion(14, 4)) == canonical_key(accordion(14, 6))

    def test_non_partners_differ(self):
        assert canonical_key(accordion(10, 2)) != canonical_key(accordion(10, 4))

    @pytest.mark.parametrize("g", [circulant(8, 2, 6), accordion(10, 2)], ids=["Ci16-2-6", "A10-2"])
    def test_automorphisms_prune_symmetric_graphs(self, g):
        # two copies of K4,4, and an accordion of twin pairs: without pruning
        # by the automorphisms found on the way, each needs over 20000 nodes
        perm = list(range(g.order))
        random.Random(g.order).shuffle(perm)
        assert canonical_key(g, node_budget=1000) == canonical_key(g.relabel(perm), node_budget=1000)

    def test_orbit_pruning_node_count_is_pinned(self):
        g = circulant(8, 2, 6)
        key = canonical_key(g, node_budget=163)
        with pytest.raises(BudgetExceededError):
            canonical_key(g, node_budget=162)
        assert key == canonical_key(g.relabel(list(reversed(range(16)))), node_budget=163)

    def test_key_is_parseable_graph_doc(self):
        from accordions import graph_from_json

        key = canonical_key(cycle_graph(6))
        g = graph_from_json(key.decode("utf-8"))
        assert g.order == 6 and g.size == 6

    def test_order_cap(self):
        with pytest.raises(BudgetExceededError):
            canonical_key(path_graph(31))

    def test_agreement_with_search_on_accordion_grid(self):
        instances = [
            (n, k) for n in range(3, 9) for k in range(1, n // 2 + 1)
        ]
        keys = {(n, k): canonical_key(accordion(n, k)) for n, k in instances}
        for i, (n1, k1) in enumerate(instances):
            for n2, k2 in instances[i:]:
                same_key = keys[(n1, k1)] == keys[(n2, k2)]
                found = are_isomorphic(accordion(n1, k1), accordion(n2, k2))
                assert same_key == (found is not None), (n1, k1, n2, k2)

    def test_agreement_with_search_on_order_16_circulants(self):
        # circulant-vs-circulant pairs are the most symmetric inputs around;
        # canonical buckets and pairwise search must classify them identically
        pairs = [(a, b) for a in range(1, 8) for b in range(a + 1, 8)]
        graphs = {ab: circulant(8, *ab) for ab in pairs}
        keys = {ab: canonical_key(g) for ab, g in graphs.items()}
        for i, p1 in enumerate(pairs):
            for p2 in pairs[i + 1:]:
                same_key = keys[p1] == keys[p2]
                found = are_isomorphic(graphs[p1], graphs[p2])
                assert same_key == (found is not None), (p1, p2)


class TestUnitScalingControls:
    """Scaling indices by a unit of the residue ring is always an isomorphism
    between circulants; the search must find a map for every such pair."""

    def test_scaled_circulants_are_found_isomorphic(self):
        import math

        from accordions import circulant_graph, normalize_length

        for order, (a, b) in [(16, (1, 2)), (16, (2, 3)), (18, (1, 4)), (20, (2, 5)), (15, (1, 3))]:
            g = circulant_graph(order, (a, b))
            for m in range(2, order):
                if math.gcd(m, order) != 1:
                    continue
                sa, sb = normalize_length(m * a, order), normalize_length(m * b, order)
                if sa == sb:
                    continue
                h = circulant_graph(order, (sa, sb))
                vm = are_isomorphic(g, h)
                assert vm is not None, (order, a, b, m)
                assert verify_witness(g, h, vm)
