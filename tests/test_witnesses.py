"""Witness constructors: every returned map must survive verify_witness."""

import itertools
import math
import random

import pytest

from accordions import (
    Graph,
    InvalidParameterError,
    VertexMap,
    accordion,
    accordion_from_cylinder,
    accordion_witness,
    accordions_isomorphic,
    cartesian_product,
    circulant,
    circulant_accordion_witness,
    circulant_graph,
    circulant_iso_accordion,
    circulant_iso_torus,
    cycle_graph,
    cycle_swap_automorphism,
    find_accordion_param,
    normalize_length,
    path_graph,
    torus_witness,
    verify_witness,
)


class TestVertexMap:
    def test_identity(self):
        vm = VertexMap.identity(4)
        assert vm.mapping == (0, 1, 2, 3)


class TestVerifyWitness:
    def test_identity_on_same_graph(self):
        g = accordion(5, 2)
        assert verify_witness(g, g, VertexMap.identity(g.order))

    def test_order_mismatch_is_false(self):
        # one answer for every map: graphs of unequal orders have no isomorphism
        assert verify_witness(cycle_graph(3), cycle_graph(4), VertexMap.identity(3)) is False
        assert verify_witness(cycle_graph(3), cycle_graph(4), VertexMap.identity(4)) is False

    def test_length_mismatch_is_false(self):
        # neither a map one entry short nor one too long permutes C3's vertices,
        # though the long one's first three entries are C3's identity
        g = cycle_graph(3)
        assert verify_witness(g, g, VertexMap((0, 1))) is False
        assert verify_witness(g, g, VertexMap((0, 1, 2, 3))) is False

    def test_repeated_image_is_false(self):
        g = cycle_graph(4)
        assert not verify_witness(g, g, VertexMap((0, 0, 1, 2)))

    def test_image_out_of_range_is_false(self):
        # every edge is carried onto h's one edge; only the permutation test
        # sees that the isolated vertex 2 leaves the vertex set
        g = Graph(3, ((0, 1),))
        assert not verify_witness(g, g, VertexMap((0, 1, 5)))
        assert not verify_witness(g, g, VertexMap((0, 1, -1)))

    def test_bool_and_float_entries_are_false(self):
        # each sorts equal to range(2), and the swap carries P2's edge onto itself
        g = path_graph(2)
        assert not verify_witness(g, g, VertexMap((True, False)))
        assert not verify_witness(g, g, VertexMap((1.0, 0.0)))

    @pytest.mark.parametrize("g", [Graph(4, ()), Graph(4, tuple(itertools.combinations(range(4), 2)))],
                             ids=["empty", "complete"])
    def test_false_exactly_when_relabel_refuses(self, g):
        # every permutation of these graphs is an automorphism, so verify_witness
        # and relabel both answer by the one permutation test alone
        maps = [*itertools.product(range(-1, 5), repeat=4), (True, False, 2, 3), (0, 1, 2, 3.0),
                (1.0, 0.0, 2.0, 3.0), (0, 1, 2, "3")]
        for m in maps:
            try:
                g.relabel(m)
                refused = False
            except InvalidParameterError:
                refused = True
            assert verify_witness(g, g, VertexMap(m)) is not refused, m

    def test_edge_count_decides_when_every_image_is_an_edge(self):
        # P6's five edges all map into C6, which has a sixth; the other way,
        # C6's closing edge {0, 5} is no edge of P6
        path, cycle = path_graph(6), cycle_graph(6)
        identity = VertexMap.identity(6)
        assert not verify_witness(path, cycle, identity)
        assert not verify_witness(cycle, path, identity)

    def test_bad_transposition_on_path(self):
        g = path_graph(5)
        # swapping an endpoint with an interior vertex breaks adjacency
        assert not verify_witness(g, g, VertexMap((1, 0, 2, 3, 4)))

    def test_rotation_is_circulant_automorphism(self):
        for n in range(3, 9):
            for a in range(1, n):
                for b in range(a + 1, n):
                    g = circulant(n, a, b)
                    rot = VertexMap(tuple((v + 1) % g.order for v in range(g.order)))
                    assert verify_witness(g, g, rot), (n, a, b)


class TestCycleSwapAutomorphism:
    def test_anchors(self):
        n, k = 7, 3
        vm = cycle_swap_automorphism(n, k)
        assert vm.mapping[0] == n          # u_1 -> v_1
        assert vm.mapping[1] == n + n - 1  # u_2 -> v_n
        assert vm.mapping[n] == 0          # v_1 -> u_1

    def test_involution_and_automorphism(self):
        for n in range(3, 15):
            for k in range(1, n // 2 + 1):
                vm = cycle_swap_automorphism(n, k)
                m = vm.mapping
                assert tuple(m[v] for v in m) == tuple(range(2 * n)), (n, k)
                assert verify_witness(accordion(n, k), accordion(n, k), vm), (n, k)


class TestAccordionWitness:
    def test_case_minus(self):
        vm = accordion_witness(14, 4, 6)
        assert verify_witness(accordion(14, 6), accordion(14, 4), vm)

    def test_case_plus(self):
        vm = accordion_witness(22, 6, 8)
        assert verify_witness(accordion(22, 8), accordion(22, 6), vm)

    def test_equal_k_is_identity(self):
        assert accordion_witness(9, 3, 3).mapping == tuple(range(18))

    def test_refuses_non_isomorphic(self):
        with pytest.raises(InvalidParameterError):
            accordion_witness(10, 2, 4)

    def test_all_partner_pairs_up_to_40(self):
        built = 0
        for n in range(3, 41):
            for k1 in range(1, n // 2 + 1):
                for k2 in range(k1 + 1, n // 2 + 1):
                    v = accordions_isomorphic(n, k1, k2)
                    if not v.isomorphic:
                        continue
                    vm = accordion_witness(n, k1, k2)
                    assert verify_witness(accordion(n, k2), accordion(n, k1), vm), (n, k1, k2)
                    built += 1
        assert built >= 5  # both congruence branches occur in this range


class TestIndexScaling:
    """The scaling Ci[2n,{1,n-1}] -> Ci[2n,{a,b}], x_i -> x_{i*a}, under the both-odd closed form."""

    @staticmethod
    def scaling(n, a):
        # 1-based x_i -> x_{i*a}, written 0-based
        return VertexMap(tuple(((j + 1) * a - 1) % (2 * n) for j in range(2 * n)))

    def test_identity_multiplier(self):
        # a = 1: the closed form is the base map alone, x_t -> u_t and x_{n+t} -> v_{t+1}
        assert circulant_accordion_witness(6, 1, 5, 2).mapping == (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 6)

    def test_examples(self):
        for n, a, b in [(6, 5, 1), (8, 3, 5)]:
            assert verify_witness(circulant(n, 1, n - 1), circulant(n, a, b), self.scaling(n, a))

    @pytest.mark.parametrize("n,a,b", [(8, 3, 5), (6, 5, 1), (12, 5, 7), (10, 3, 7)])
    def test_edge_length_images(self, n, a, b):
        two_n = 2 * n
        s = self.scaling(n, a).mapping
        for j in range(two_n):
            assert normalize_length(s[(j + 1) % two_n] - s[j], two_n) == a
            assert normalize_length(s[(j + n - 1) % two_n] - s[j], two_n) == b
        # the closed form for {a,b} is the one for {1,n-1} after the inverse scaling
        s = self.scaling(n, circulant_iso_accordion(n, a, b, 2).a).mapping
        closed = circulant_accordion_witness(n, a, b, 2).mapping
        assert tuple(closed[s[j]] for j in range(two_n)) == circulant_accordion_witness(n, 1, n - 1, 2).mapping

    # one length even with k = 2 and n even, equal lengths, a + b != n
    @pytest.mark.parametrize("n,a,b", [(8, 3, 4), (6, 3, 3), (8, 1, 5)])
    def test_precondition_failures(self, n, a, b):
        with pytest.raises(InvalidParameterError):
            circulant_accordion_witness(n, a, b, 2)

    def test_mixed_parity_at_k2_takes_the_other_closed_form(self):
        # n odd, one length even: not the scaling regime, yet Ci[18,{4,5}] ~ A[9,2]
        assert circulant_iso_accordion(9, 4, 5, 2).regime == "non-bipartite"
        assert verify_witness(circulant(9, 4, 5), accordion(9, 2), circulant_accordion_witness(9, 4, 5, 2))


class TestBipartiteClosedForm:
    @staticmethod
    def composed(n, a, b):
        # the composition the closed form replaces: the inverse of the scaling
        # Ci[2n,{1,n-1}] -> Ci[2n,{a,b}], x_i -> x_{i*a}, then the base map
        base = list(range(n)) + [n + (t + 1) % n for t in range(n)]
        v = circulant_iso_accordion(n, a, b, 2)
        two_n = 2 * n
        inverse = [0] * two_n
        for j in range(two_n):
            inverse[((j + 1) * v.a - 1) % two_n] = j
        return tuple(base[j] for j in inverse)

    def test_equals_the_composition(self):
        checked = 0
        for n in range(4, 41):  # A[n,2] needs n >= 4
            for a in range(1, n, 2):
                for b in range(a + 2, n, 2):  # both odd: the bipartite regime
                    if not circulant_iso_accordion(n, a, b, 2).isomorphic:
                        continue
                    vm = circulant_accordion_witness(n, a, b, 2)
                    assert vm.mapping == self.composed(n, a, b), (n, a, b)
                    assert verify_witness(circulant(n, a, b), accordion(n, 2), vm), (n, a, b)
                    checked += 1
        assert checked == 86

    def test_equals_the_composition_at_order_1200(self):
        vm = circulant_accordion_witness(600, 1, 599, 2)
        assert vm.mapping == self.composed(600, 1, 599)
        assert verify_witness(circulant(600, 1, 599), accordion(600, 2), vm)


class TestCirculantAccordionWitness:
    def test_bipartite_examples(self):
        for n, a, b in [(4, 1, 3), (6, 1, 5), (8, 3, 5), (500, 1, 499), (510, 1, 509)]:
            vm = circulant_accordion_witness(n, a, b, 2)
            assert verify_witness(circulant(n, a, b), accordion(n, 2), vm)

    def test_forward_traversal(self):
        for n, a, b, k in [(3, 1, 2, 1), (5, 1, 2, 1)]:
            assert circulant_iso_accordion(n, a, b, k).sign == 1
            vm = circulant_accordion_witness(n, a, b, k)
            assert verify_witness(circulant(n, a, b), accordion(n, k), vm)

    def test_reverse_traversal(self):
        assert circulant_iso_accordion(5, 3, 4, 1).sign == -1
        vm = circulant_accordion_witness(5, 3, 4, 1)
        assert verify_witness(circulant(5, 3, 4), accordion(5, 1), vm)

    def test_refuses_decider_false(self):
        with pytest.raises(InvalidParameterError):
            circulant_accordion_witness(4, 1, 3, 1)

    def test_all_matches_up_to_10(self):
        built = 0
        for n in range(3, 11):
            for a in range(1, n):
                for b in range(a + 1, n):
                    if a % 2 == 0 and b % 2 == 0:
                        continue
                    for k in range(1, n // 2 + 1):
                        if not circulant_iso_accordion(n, a, b, k).isomorphic:
                            continue
                        vm = circulant_accordion_witness(n, a, b, k)
                        assert verify_witness(circulant(n, a, b), accordion(n, k), vm), (n, a, b, k)
                        built += 1
        assert built > 30


class TestTorusWitness:
    def test_all_matches_up_to_order_36(self):
        built = 0
        for m in range(9, 37):
            for n1 in range(3, m // 3 + 1):
                if m % n1 != 0:
                    continue
                n2 = m // n1
                for a1 in range(1, (m - 1) // 2 + 1):
                    for a2 in range(a1 + 1, (m - 1) // 2 + 1):
                        if not circulant_iso_torus(m, a1, a2, n1, n2):
                            continue
                        vm = torus_witness(m, a1, a2, n1, n2)
                        torus = cartesian_product(cycle_graph(n1), cycle_graph(n2))
                        assert verify_witness(circulant_graph(m, (a1, a2)), torus, vm), (m, a1, a2, n1, n2)
                        built += 1
        assert built == 62  # each coprime factor pair in both orders

    def test_order_1001(self):
        vm = torus_witness(1001, 286, 21, 7, 143)
        torus = cartesian_product(cycle_graph(7), cycle_graph(143))
        assert verify_witness(circulant_graph(1001, (286, 21)), torus, vm)

    def test_lengths_in_either_order(self):
        torus = cartesian_product(cycle_graph(3), cycle_graph(4))
        for a1, a2 in [(3, 4), (4, 3)]:
            vm = torus_witness(12, a1, a2, 3, 4)
            assert verify_witness(circulant_graph(12, (a1, a2)), torus, vm)

    def test_refuses_decider_false(self):
        assert not circulant_iso_torus(12, 1, 4, 3, 4)
        with pytest.raises(InvalidParameterError):
            torus_witness(12, 1, 4, 3, 4)


def _images(ext, edges):
    """The edges carried into A[n,k] by ext.to_accordion, as sorted ascending pairs."""
    m = ext.to_accordion.mapping
    return tuple(sorted((min(m[a], m[b]), max(m[a], m[b])) for a, b in edges))


class TestAccordionFromCylinder:
    def test_a10_5_added_chords(self):
        r = accordion_from_cylinder(4, 5, 5)
        assert r.steps == 1
        assert r.added_index_pairs == ((1, 3), (2, 4), (3, 1), (4, 2))
        assert verify_witness(r.graph, accordion(10, 5), r.to_accordion)
        # the paper's cut: deleting u5u6, v5v6, u10u1 and v10v1 (0-based 4-5, 14-15, 0-9, 10-19)
        assert _images(r, r.added_edges) == ((0, 9), (4, 5), (10, 19), (14, 15))

    def test_trivial_path(self):
        r = accordion_from_cylinder(6, 1, 1)
        assert r.graph.order == 6 and r.graph.size == 12
        assert verify_witness(r.graph, accordion(3, 1), r.to_accordion)

    def test_trivial_path_chords_the_bare_cycle(self):
        # n2 = 1: the base is the n1-cycle w_1..w_{n1} and the chords are
        # w_i -- w_{i+2*steps}, 0-based (i, i + 2*steps mod n1)
        for n1 in range(6, 41, 2):
            n = n1 // 2
            for k in (k for k in range(1, n // 2 + 1) if math.gcd(n, k) == 1):
                r = accordion_from_cylinder(n1, 1, k)
                shift = 2 * r.steps % n1
                chords = {frozenset((i, (i + shift) % n1)) for i in range(n1)}
                assert {frozenset(e) for e in r.added_edges} == chords
                rim = {frozenset(e) for e in cycle_graph(n1).edges}
                assert {frozenset(e) for e in r.graph.edges} == rim | chords
                assert verify_witness(r.graph, accordion(n, k), r.to_accordion)

    def test_gcd_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            accordion_from_cylinder(4, 5, 2)  # gcd(10,2) = 2 != 5

    def test_odd_rim_rejected(self):
        with pytest.raises(InvalidParameterError):
            accordion_from_cylinder(5, 2, 1)

    def test_empty_path_rejected(self):
        with pytest.raises(InvalidParameterError, match="n2 must be >= 1, got 0"):
            accordion_from_cylinder(4, 0, 1)

    def test_chord_count(self):
        r = accordion_from_cylinder(8, 3, 3)  # n = 12, gcd(12,3) = 3
        assert len(r.added_edges) == 8
        assert r.graph.size == accordion(12, 3).size


def test_witnesses_never_call_the_oracle(monkeypatch, capsys):
    from accordions import oracle
    from accordions.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a witness constructor called the oracle")

    monkeypatch.setattr(oracle, "are_isomorphic", refuse)
    cycle_swap_automorphism(7, 3)
    accordion_witness(14, 4, 6)
    circulant_accordion_witness(8, 3, 5, 2)
    circulant_accordion_witness(5, 3, 4, 1)
    circulant_accordion_witness(4, 1, 3, 2)
    torus_witness(12, 3, 4, 3, 4)
    r = accordion_from_cylinder(4, 5, 5)
    assert verify_witness(r.graph, accordion(10, 5), r.to_accordion)
    assert main(["decide", "ci-torus", "--nprime", "15", "--a1", "3", "--a2", "5", "--witness"]) == 0
    assert "witness: " in capsys.readouterr().out


def test_map_constructors_build_no_graph(monkeypatch):
    # each map is a closed form; the graphs it is checked against are the emitter's
    from accordions import graphs

    built = []
    make = graphs._built

    def counting(order, edges):
        built.append(order)
        return make(order, edges)

    # every Graph is made there: by Graph(...) after its check and by the constructors directly
    monkeypatch.setattr(graphs, "_built", counting)
    maps = [
        cycle_swap_automorphism(1000, 7),
        accordion_witness(1000, 6, 334),
        circulant_accordion_witness(1000, 3, 997, 2),
        circulant_accordion_witness(1000, 25, 2, 25),
        torus_witness(1001, 286, 21, 7, 143),
    ]
    assert built == []
    assert [len(vm.mapping) for vm in maps] == [2000] * 4 + [1001]
    circulant(1000, 1, 2)
    Graph(3, [(2, 0)])
    assert built == [2000, 3]  # the counter sees a graph that is built, on either path

def test_cut_edges_leave_cylinder():
    # A[n,k] minus the chord images is C_{2n/g} [] P_g, built on its own, with the
    # cylinder map's restriction to the base as the witness
    for n, k in [(10, 5), (9, 3), (8, 2), (12, 4)]:
        d = math.gcd(n, k)
        ext = accordion_from_cylinder(2 * n // d, d, k)
        g = accordion(n, k)
        cut = set(_images(ext, ext.added_edges))
        trimmed = Graph(g.order, tuple(e for e in g.edges if e not in cut))
        cyl = cartesian_product(cycle_graph(2 * n // d), path_graph(d))
        assert verify_witness(cyl, trimmed, ext.to_accordion), (n, k)


# --- verify_witness and the map constructors against their originals --------


def _reference_verify(g, h, vm):
    """verify_witness comparing sets of edge tuples: the reference for its integer keys."""
    m = vm.mapping
    if any(type(x) is not int for x in m) or sorted(m) != list(range(len(m))):
        return False
    return {(m[i], m[j]) if m[i] < m[j] else (m[j], m[i]) for i, j in g.edges} == set(h.edges)


def _closed_form_witnesses():
    """(source, target, map) triples, each map a true isomorphism source -> target."""
    out = []
    for n in range(3, 25):
        for k1 in range(1, n // 2 + 1):
            g = accordion(n, k1)
            out.append((g, g, cycle_swap_automorphism(n, k1)))
            for k2 in range(k1 + 1, n // 2 + 1):
                if accordions_isomorphic(n, k1, k2).isomorphic:
                    out.append((accordion(n, k2), g, accordion_witness(n, k1, k2)))
    for n in range(3, 11):
        for a in range(1, n):
            for b in range(a + 1, n):
                k = None if a % 2 == 0 and b % 2 == 0 else find_accordion_param(n, a, b)
                if k is not None:
                    out.append((circulant(n, a, b), accordion(n, k), circulant_accordion_witness(n, a, b, k)))
    torus = cartesian_product(cycle_graph(7), cycle_graph(143))
    out.append((circulant_graph(1001, (286, 21)), torus, torus_witness(1001, 286, 21, 7, 143)))
    out.append((accordion(1000, 334), accordion(1000, 6), accordion_witness(1000, 6, 334)))
    return out


def test_verify_witness_matches_the_tuple_sets():
    rng = random.Random(7)
    checked = {True: 0, False: 0}
    for g, h, vm in _closed_form_witnesses():
        m = list(vm.mapping)
        n = len(m)
        variants = [m]
        for _ in range(3):  # two entries swapped: true only for another isomorphism
            x, y = rng.sample(range(n), 2)
            swapped = m[:]
            swapped[x], swapped[y] = m[y], m[x]
            variants.append(swapped)
        x, y = rng.sample(range(n), 2)
        variants.append(m[:x] + [m[y]] + m[x + 1:])             # a repeated image
        variants.append(m[:x] + [n] + m[x + 1:])                 # an image out of range
        variants.append(m[:x] + [-1] + m[x + 1:])
        variants.append([True if v == 1 else v for v in m])      # sorts like 1, but is a bool
        for images in variants:
            expected = _reference_verify(g, h, VertexMap(tuple(images)))
            assert verify_witness(g, h, VertexMap(tuple(images))) == expected, (g.order, images)
            checked[expected] += 1
    assert checked[True] > 200 and checked[False] > 1000


def _reference_spoke_cycle_vertex(n, k1, start, pos):
    t, r = divmod(pos - 1, 2)
    idx = (start - 1 + t * k1) % n
    return n + idx if r == 0 else idx


def _reference_accordion_witness(n, k1, k2):
    """accordion_witness with one _spoke_cycle_vertex call per vertex, for k1 != k2."""
    forward = accordions_isomorphic(n, k1, k2).branch == "case-minus"
    m = [0] * (2 * n)
    for i in range(1, n + 1):
        pos = i if forward or i == 1 else n + 2 - i
        m[i - 1] = _reference_spoke_cycle_vertex(n, k1, 1, pos)
        m[n + i - 1] = _reference_spoke_cycle_vertex(n, k1, 2, pos)
    return tuple(m)


def _reference_mixed_parity_witness(n, a, b, k):
    """circulant_accordion_witness in the mixed-parity regime, one vertex at a time."""
    v = circulant_iso_accordion(n, a, b, k)
    ao, bo = (v.b, v.a) if v.swapped else (v.a, v.b)
    two_n = 2 * n
    m = [-1] * two_n
    for i in range(1, v.q + 1):
        for j in range(1, two_n // v.q + 1):
            sub = (j * ao + i * bo) if v.sign > 0 else ((2 - j) * ao + i * bo)
            assert m[(sub - 1) % two_n] == -1
            m[(sub - 1) % two_n] = _reference_spoke_cycle_vertex(n, k, i, j)
    return tuple(m)


class TestMapsMatchTheirPerVertexBuilds:
    def test_accordion_witness(self):
        built = 0
        for n in range(4, 61, 2):
            for k1 in range(2, n // 2 + 1, 2):
                for k2 in range(2, n // 2 + 1, 2):
                    if k1 != k2 and accordions_isomorphic(n, k1, k2).isomorphic:
                        assert accordion_witness(n, k1, k2).mapping == _reference_accordion_witness(n, k1, k2)
                        built += 1
        assert built > 50
        assert accordion_witness(1000, 6, 334).mapping == _reference_accordion_witness(1000, 6, 334)

    def test_circulant_accordion_witness(self):
        built = 0
        for n in range(3, 25):
            for a in range(1, 2 * n, 2):
                for b in range(2, 2 * n, 2):
                    if n in (a, b):  # length n is a perfect matching
                        continue
                    k = find_accordion_param(n, a, b)
                    if k is not None:
                        assert circulant_accordion_witness(n, a, b, k).mapping == \
                            _reference_mixed_parity_witness(n, a, b, k), (n, a, b, k)
                        built += 1
        assert built > 500
        assert circulant_accordion_witness(1000, 25, 2, 25).mapping == \
            _reference_mixed_parity_witness(1000, 25, 2, 25)

    def test_accordion_from_cylinder(self):
        # n1 to 24 reaches every (n, k) with n <= 12: (12, 1) and (12, 5) need n1 = 24
        reached = set()
        for n1 in range(4, 25, 2):
            for n2 in range(1, 7):
                n = n1 * n2 // 2
                for k in range(1, n // 2 + 1):
                    if n >= 3 and math.gcd(n, k) == n2:
                        ext = accordion_from_cylinder(n1, n2, k)
                        expected = tuple(_reference_spoke_cycle_vertex(n, k, p + 1, c + 1)
                                         for c in range(n1) for p in range(n2))
                        assert ext.to_accordion.mapping == expected, (n1, n2, k)
                        target = accordion(n, k)
                        assert verify_witness(ext.graph, target, ext.to_accordion), (n1, n2, k)
                        # the chords land on n1 distinct cycle edges u_{tg}u_{tg+1}, v_{tg}v_{tg+1}
                        # (g = gcd(n,k)): an edge (i, j) that wraps its cycle or has g | j mod n
                        cut = set(_images(ext, ext.added_edges))
                        assert len(cut) == n1, (n1, n2, k)
                        for i, j in cut:
                            assert (i < n) == (j < n), (n1, n2, k, (i, j))
                            assert j - i == n - 1 or (j % n) % n2 == 0, (n1, n2, k, (i, j))
                        # and removing them from A[n,k] leaves exactly the base's image
                        base = set(ext.graph.edges) - set(ext.added_edges)
                        assert set(target.edges) - cut == set(_images(ext, base)), (n1, n2, k)
                        reached.add((n, k))
        assert len(reached) == 137
        assert {(n, k) for n in range(3, 13) for k in range(1, n // 2 + 1)} <= reached
