"""Brute-force oracle: soundness, completeness at desk scale, canonical keys."""

import hashlib
import math
import random
import sys
import tracemalloc
from collections import Counter, deque
from collections.abc import Sequence
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accordions import (
    BudgetExceededError,
    Graph,
    VertexMap,
    accordion,
    are_isomorphic,
    canonical_key,
    cartesian_product,
    circulant,
    circulant_graph,
    cycle_graph,
    path_graph,
    verify_witness,
)
from accordions import census, graphs, oracle
from accordions.oracle import (
    _automorphisms,
    _individualize,
    _orbit,
    _partition,
    _refine,
    _replay,
    _search,
    _splits,
    _target_cell,
    _tickets,
)


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

    def test_budget_exhaustion_raises(self, monkeypatch):
        # A[10,3] onto its reversal needs 2 search nodes
        g = accordion(10, 3)
        h = g.relabel(list(reversed(range(20))))
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 2)
        vm = are_isomorphic(g, h)
        assert vm is not None and verify_witness(g, h, vm)
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 1)
        with pytest.raises(BudgetExceededError):
            are_isomorphic(g, h)

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
        # one key per pair v < w at the ends of some path v-u-w: at most the sum
        # of C(d(u), 2), which is d(d-1) per end vertex in a d-regular graph
        counts = graphs._path_counts(g)
        assert len(counts) <= sum(math.comb(d, 2) for d in g.degrees)
        assert all(key // g.order < key % g.order for key in counts)
        assert min(counts.values(), default=1) >= 1

    def test_each_common_neighbour_map_has_at_most_d_times_d_minus_1_entries(self):
        for g in _quartic_family(24) + [path_graph(5), _two_triangles(), Graph(4, ((1, 2),))]:
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


def _census_graphs():
    """Every graph that the default census builds: the accordions with n <= 14,
    the ci-acc circulants with n <= 10, and the torus circulants and tori up
    to order 36."""
    for n in range(3, 15):
        yield from (accordion(n, k) for k in range(1, n // 2 + 1))
    for n in range(3, 11):
        yield from (circulant(n, a, b) for a in range(1, n) for b in range(a + 1, n))
    for m in range(9, 37):
        factors = [(n1, m // n1) for n1 in range(3, math.isqrt(m) + 1) if m % n1 == 0 and m // n1 >= 3]
        if factors:
            top = (m - 1) // 2
            yield from (circulant_graph(m, (a1, a2)) for a1 in range(1, top + 1) for a2 in range(a1 + 1, top + 1))
            yield from (cartesian_product(cycle_graph(n1), cycle_graph(n2)) for n1, n2 in factors)


def _large_graphs():
    """A[501,3] and A[1000,6], each followed by one seeded relabeling."""
    rng = random.Random(13)
    for g in (accordion(501, 3), accordion(1000, 6)):
        perm = list(range(g.order))
        rng.shuffle(perm)
        yield from (g, g.relabel(perm))


class TestScreenValues:
    """The screens' exact values, pinned: a faster kernel must leave every
    seed and profile byte-identical, or census verdicts may move."""

    @pytest.mark.parametrize("graphs_of, count, expected", [
        (_census_graphs, 1220, "9917f192a9763a485283c4932a1b44ec04dbc59388177e09c60d390f046870a0"),
        (_large_graphs, 4, "c06dfaf7883c165f6aa63db3a78dc99b76cb95fbd806360cb4f0613ce36fc56a"),
    ], ids=["census", "large"])
    def test_local_invariants_are_pinned(self, graphs_of, count, expected):
        digest, seen = hashlib.sha256(), 0
        for g in graphs_of():
            digest.update(repr(g.local_invariants).encode() + b"\n")
            seen += 1
        assert seen == count
        assert digest.hexdigest() == expected


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

    def test_degree_multisets_are_screened(self):
        net = Graph(6, ((0, 4), (1, 5), (2, 3), (3, 4), (3, 5), (4, 5)))
        h = Graph(6, ((0, 4), (0, 5), (1, 2), (1, 4), (2, 4), (3, 4)))
        assert net.size == h.size and net.components == h.components
        assert sorted(net.degrees) == [1, 1, 1, 3, 3, 3] and sorted(h.degrees) == [1, 1, 2, 2, 2, 4]
        assert net.local_invariants.profile == h.local_invariants.profile
        assert are_isomorphic(net, h) is None

    def test_seed_only_pairs_are_rejected_by_the_root_replay(self, monkeypatch):
        # equal degrees, profiles and seed class sizes; only the seed values
        # differ: g has two vertices seeded (3, 2, 1, 1, 2), h has one, and
        # refining h against g's trace tells them apart before any search
        g = Graph(6, ((0, 3), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)))
        h = Graph(6, ((0, 1), (0, 2), (0, 3), (0, 5), (2, 3), (2, 5), (3, 4), (4, 5)))
        assert sorted(g.degrees) == sorted(h.degrees) and g.components == h.components
        assert g.local_invariants.profile == h.local_invariants.profile
        gc, hc = Counter(g.local_invariants.seeds), Counter(h.local_invariants.seeds)
        assert sorted(gc.values()) == sorted(hc.values()) and gc != hc
        monkeypatch.setattr(oracle, "_search", lambda *args: pytest.fail("the search was reached"))
        assert are_isomorphic(g, h) is None

    @pytest.mark.parametrize("lengths", [(6, 6), (5, 7)], ids=["2C6", "C5+C7"])
    def test_components_and_bipartiteness_are_one_screen(self, lengths):
        g, h = _cycles(12), _cycles(*lengths)
        assert g.local_invariants.profile == h.local_invariants.profile
        assert are_isomorphic(g, h) is None


class TestScreenCache:
    def test_screens_are_computed_once_per_graph(self, monkeypatch):
        calls = []
        count = graphs._path_counts
        monkeypatch.setattr(graphs, "_path_counts", lambda g: calls.append(g) or count(g))
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


def _stable_colors(g):
    """g's colours after refinement from its seeds, each the start of its cell."""
    return tuple(_refine(g.neighbors, _partition(g.local_invariants.seeds))[0])


class TestRefinementColors:
    def test_multiset_is_relabeling_invariant(self):
        g = cartesian_product(cycle_graph(3), path_graph(4))
        rng = random.Random(11)
        perm = list(range(g.order))
        rng.shuffle(perm)
        assert sorted(_stable_colors(g)) == sorted(_stable_colors(g.relabel(perm)))

    def test_distinguishes_degrees(self):
        colors = _stable_colors(path_graph(4))
        assert colors[0] == colors[3] and colors[1] == colors[2]
        assert colors[0] != colors[1]

    def test_deterministic(self):
        g = accordion(6, 2)
        assert _stable_colors(g) == _stable_colors(g)

    def test_exact_colours_are_pinned(self):
        # canonical_key orders vertices by these colours, the starts of their
        # cells in the ordered partition: the numbering must not drift
        assert _stable_colors(path_graph(4)) == (0, 2, 2, 0)
        assert _stable_colors(accordion(6, 2)) == (0,) * 12
        assert _stable_colors(cartesian_product(cycle_graph(3), path_graph(4))) == (0, 6, 6, 0) * 3
        assert _stable_colors(cartesian_product(path_graph(3), path_graph(4))) == (
            0, 4, 4, 0, 8, 10, 10, 8, 0, 4, 4, 0,
        )


def _uniform(n):
    """One cell holding every vertex, queued."""
    return [0] * n, [0]


class TestReplay:
    def test_replay_reproduces_the_reference_colours(self):
        g = cartesian_product(cycle_graph(3), path_graph(4))
        perm = [5, 0, 7, 2, 9, 4, 11, 6, 1, 8, 3, 10]
        colors, trace = _refine(g.neighbors, _uniform(g.order))
        replayed = _replay(g.relabel(perm).neighbors, _uniform(g.order), trace)
        assert replayed == [colors[perm.index(w)] for w in range(g.order)]

    def test_unstable_graph_is_rejected_at_its_first_event(self):
        # C4 is stable from the start, yet its one splitter's event is traced;
        # P4 has the same single cell and differs at that event
        colors, trace = _refine(cycle_graph(4).neighbors, _uniform(4))
        assert colors == [0] * 4 and trace == [(0, ((0, 2, 4),))]
        assert _replay(path_graph(4).neighbors, _uniform(4), trace) is None

    def test_a_trace_cut_short_is_rejected(self):
        # a graph that follows every event of a whole trace ends with it, so
        # only a trace cut short runs out first, and the replay rejects it
        g = cartesian_product(cycle_graph(3), path_graph(4))
        trace = _refine(g.neighbors, _uniform(g.order))[1]
        assert _replay(g.neighbors, _uniform(g.order), trace) is not None
        assert len(trace) > 1 and _replay(g.neighbors, _uniform(g.order), trace[:-1]) is None

    def test_histogram_mismatch_is_rejected(self):
        # every neighbour count of 2K4 occurs in K4 + 2K2, but in other numbers
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = Graph(8, tuple(k4) + ((4, 5), (6, 7)))
        h = Graph(8, tuple(k4) + tuple((i + 4, j + 4) for i, j in k4))
        colors, trace = _refine(g.neighbors, _uniform(8))
        assert _replay(h.neighbors, _uniform(8), trace) is None


def _synchronous_refinement(nbrs, seeds):
    """The reference: every round gives each vertex the signature (colour,
    sorted neighbour colours) and ranks the signatures, until a round splits
    no class."""
    colors = list(seeds)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in nb))) for v, nb in enumerate(nbrs)]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(ranks) == len(set(colors)):
            return colors
        colors = [ranks[s] for s in sigs]


def _same_partition(a, b):
    """Whether two colourings put the same vertices together."""
    return len(set(a)) == len(set(b)) == len(set(zip(a, b)))


class TestWorklistRefinement:
    """The worklist refinement against the synchronous reference."""

    @pytest.mark.parametrize("order", range(6, 31, 2))
    def test_family_graphs_match_the_reference_and_replay_their_relabelings(self, order):
        rng = random.Random(order)
        for g in _quartic_family(order):
            perm = list(range(order))
            rng.shuffle(perm)
            h = g.relabel(perm)
            carried = lambda colors: [colors[v] for v in sorted(range(order), key=perm.__getitem__)]
            starts = [(_partition(g.local_invariants.seeds), _partition(h.local_invariants.seeds))]
            root = _refine(g.neighbors, starts[0][0])[0]
            starts += [(_individualize(root, v), _individualize(carried(root), perm[v]))
                       for v in _target_cell(root) or ()]
            # the reference is label-free, so on h it gives g's partition carried
            # through perm, which is what replay must return
            for g_start, h_start in starts:
                colors, trace = _refine(g.neighbors, g_start)
                assert _same_partition(colors, _synchronous_refinement(g.neighbors, g_start[0]))
                assert _replay(h.neighbors, h_start, trace) == carried(colors)


class _CountingSequence(Sequence):
    """A sequence that counts how often its items are read."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]

    def __len__(self):
        return len(self.items)


class _RecordingSequence(_CountingSequence):
    """A sequence that also records which items are read, in order."""

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


# The kernel before it grouped a splitter's neighbours by colour, skipped
# counting for a singleton and sorting by count where every count is the same,
# kept verbatim: `_splits` must make the same events and the same splits, each
# piece in the same vertex order.
def _reference_splits(nbrs, colors, queue):
    """Refine the ordered partition `colors` in place to the coarsest equitable
    one below it, splitting by the cells in `queue` first; yield each splitter's
    event before its splits are made.

    An event is the splitter's start and, for every cell the splitter hits, one
    (cell start, neighbour count, vertices with that count) per count.  A hit
    cell splits by count: the vertices with no neighbour in the splitter keep
    the cell's start, the hit pieces follow in count order.  The pieces join the
    queue by the smaller-half rule (Berkholz, Bonsma & Grohe 2013): all of them
    if the cell was queued, else all but the largest.  The walk stops once the
    partition is discrete.
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
        counts = {}
        for u in order[s:s + size[s]]:
            for w in nbrs[u]:
                counts[w] = counts.get(w, 0) + 1
        pieces = {}
        for w, k in counts.items():
            pieces.setdefault((colors[w], k), []).append(w)
        keys = sorted(pieces)
        yield s, tuple((c, k, len(pieces[c, k])) for c, k in keys)
        for c, group in groupby(keys, itemgetter(0)):
            group = [pieces[key] for key in group]
            hit = sum(map(len, group))
            if len(group) == 1 and hit == size[c]:
                continue
            # move the hit vertices to the tail of the cell, in count order
            t = c + size[c]
            for piece in reversed(group):
                for v in piece:
                    t -= 1
                    u, p = order[t], pos[v]
                    order[t], order[p] = v, u
                    pos[v], pos[u] = t, p
            size[c] -= hit
            starts = [c] if size[c] else []
            for piece in group:
                if t != c:
                    for v in piece:
                        colors[v] = t
                size[t] = len(piece)
                starts.append(t)
                t += len(piece)
            cells += len(starts) - 1
            if not queued[c]:
                starts.remove(max(starts, key=size.__getitem__))
            for x in starts:
                if not queued[x]:
                    queued[x] = True
                    queue.append(x)


def _k4_plus_2k2():
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return Graph(8, tuple(k4) + ((4, 5), (6, 7)))


def _shrikhande():
    """The Shrikhande graph: Z4 x Z4, each vertex joined to its +-(1,0), +-(0,1)
    and +-(1,1) neighbours.  SRG(16,6,2,2), as the 4x4 rook's graph is."""
    steps = ((1, 0), (0, 1), (1, 1))
    return Graph(16, tuple(sorted({
        tuple(sorted((4 * i + j, 4 * ((i + a) % 4) + (j + b) % 4)))
        for i in range(4) for j in range(4) for a, b in steps
    })))


def _rook_4x4():
    """K4 [] K4: vertices joined when they share a row or a column."""
    return Graph(16, tuple((u, v) for u in range(16) for v in range(u + 1, 16) if u // 4 == v // 4 or u % 4 == v % 4))


_K4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_CUBE = tuple((u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b)
_K33 = tuple((u, v) for u in range(3) for v in range(3, 6))
# the outer 5-cycle, the spokes and the inner pentagram
_PETERSEN = (tuple((i, (i + 1) % 5) for i in range(5)) + tuple((i, i + 5) for i in range(5))
             + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)))


def _cfi(base, twists=0):
    """The Cai-Fuerer-Immerman graph over the connected graph `base` (Cai,
    Fuerer & Immerman 1992), its first `twists` edges twisted.  Each base
    vertex v with incident edges E(v) gives two end vertices (v, e, 0/1) per
    e in E(v) and one middle vertex per even subset S of E(v), joined to
    (v, e, [e in S]); a base edge uv joins (u, uv, b) to (v, uv, b), or to
    (v, uv, 1 - b) where it is twisted.  Over a connected base the parity of
    the twists is the isomorphism class: an odd count is not isomorphic to
    the untwisted graph, an even one is."""
    incident = {}
    for e in base:
        for v in e:
            incident.setdefault(v, []).append(e)
    ends = {(v, e): 2 * i for i, (v, e) in enumerate((v, e) for v, es in sorted(incident.items()) for e in es)}
    order, edges = 2 * len(ends), []
    for v, es in sorted(incident.items()):
        for subset in range(1 << len(es)):
            if bin(subset).count("1") % 2 == 0:
                edges += [(order, ends[v, e] + (subset >> i & 1)) for i, e in enumerate(es)]
                order += 1
    for i, (u, v) in enumerate(base):
        edges += [(ends[u, (u, v)] + b, ends[v, (u, v)] + (b ^ (i < twists))) for b in (0, 1)]
    return Graph(order, tuple(edges))


# graphs off the families, cubic or strongly regular, whose cells split by
# several counts at the top of the tree
_SEVERAL_COUNT_GRAPHS = {
    "shrikhande": _shrikhande(),
    "cfi-k4": _cfi(_K4),
    "cfi-k4-twisted": _cfi(_K4, 1),
    "cfi-cube": _cfi(_CUBE),
    "cfi-cube-twisted": _cfi(_CUBE, 1),
    "cfi-k33": _cfi(_K33),
    "cfi-k33-twisted": _cfi(_K33, 1),
    "cfi-petersen": _cfi(_PETERSEN),
    "cfi-petersen-twisted": _cfi(_PETERSEN, 1),
}


class TestRefinementKernel:
    """`_splits` against `_reference_splits` on the same starts."""

    @staticmethod
    def _assert_same_as_reference(g, start):
        # the neighbour lists are read in the order of each splitter's cell, so
        # equal reads mean every piece was moved in the same vertex order
        nbrs, ref_nbrs = _RecordingSequence(g.neighbors), _RecordingSequence(g.neighbors)
        colors = list(start[0])
        trace = list(_reference_splits(ref_nbrs, colors, start[1]))
        assert _refine(nbrs, start) == (colors, trace)
        assert nbrs.read == ref_nbrs.read
        return trace

    def _assert_tree_top_is_the_reference(self, g):
        """The seed start, each individualized child of the root and of its first child."""
        start = _partition(g.local_invariants.seeds)
        traces = [self._assert_same_as_reference(g, start)]
        colors = _refine(g.neighbors, start)[0]
        for _ in range(2):
            cell = _target_cell(colors)
            if cell is None:
                break
            traces += [self._assert_same_as_reference(g, _individualize(colors, v)) for v in cell]
            colors = _refine(g.neighbors, _individualize(colors, cell[0]))[0]
        return traces

    @pytest.mark.parametrize("order", range(6, 31, 2))
    def test_family_graphs_and_the_seed_start_of_their_relabelings(self, order):
        rng = random.Random(order)
        for g in _quartic_family(order):
            perm = list(range(order))
            rng.shuffle(perm)
            self._assert_tree_top_is_the_reference(g)
            h = g.relabel(perm)
            self._assert_same_as_reference(h, _partition(h.local_invariants.seeds))

    @pytest.mark.parametrize("g", [
        *(accordion(n, 2) for n in range(5, 13)),
        *(circulant_graph(2 * n, (1, n - 1)) for n in range(3, 11)),
        *(cartesian_product(cycle_graph(4), cycle_graph(m)) for m in range(3, 9)),
        _k4_plus_2k2(),
        _rook_4x4(),
    ], ids=repr)
    def test_graphs_whose_splitters_count_above_1(self, g):
        traces = self._assert_tree_top_is_the_reference(g)
        assert any(k > 1 for trace in traces for _, hits in trace for _, k, _ in hits)

    def test_a_count_that_differs_inside_one_colour_is_caught(self):
        # the splitter {0, 1} sends four edges into the cell {2, 3, 4, 5} of
        # both graphs; in g they meet two vertices twice, in h four vertices once
        start = [0, 0, 2, 2, 2, 2], [0]
        g = Graph(6, ((0, 2), (0, 3), (1, 2), (1, 3)))
        h = Graph(6, ((0, 2), (0, 3), (1, 4), (1, 5)))
        trace = _refine(g.neighbors, start)[1]
        assert trace[0] == (0, ((2, 2, 2),))
        assert next(_splits(h.neighbors, list(start[0]), start[1])) == (0, ((2, 1, 4),))
        assert _replay(h.neighbors, start, trace) is None
        assert _replay(h.neighbors, start, _refine(h.neighbors, start)[1]) is not None

    @pytest.mark.parametrize("g", _SEVERAL_COUNT_GRAPHS.values(), ids=_SEVERAL_COUNT_GRAPHS)
    def test_graphs_whose_cells_split_by_several_counts(self, g):
        traces = self._assert_tree_top_is_the_reference(g)
        assert any(len({c for c, _, _ in hits}) < len(hits) for trace in traces for _, hits in trace)

    def test_counted_splitter_of_a_6_2_is_pinned(self):
        # vertex 0 individualized: its neighbours {1, 5, 6, 8} are the second
        # splitter, meeting 0 and its twin 7 four times and four vertices twice
        g = accordion(6, 2)
        colors, trace = _refine(g.neighbors, _individualize([0] * 12, 0))
        assert trace[1] == (7, ((0, 2, 4), (0, 4, 1), (11, 4, 1)))
        assert colors == [11, 7, 2, 0, 2, 7, 7, 6, 7, 2, 0, 2]


class TestRefinementWork:
    def test_individualized_child_reads_o_m_log_n_neighbour_lists(self):
        # A[503,3] is one cell; with one vertex individualized it splits, one
        # distance at a time, into 504 cells: two singletons (that vertex and
        # one more) and 502 pairs.  Rounds over every vertex read the 1006
        # neighbour lists once per round, about 170 times.
        g = accordion(503, 3)
        root = _refine(g.neighbors, _partition(g.local_invariants.seeds))[0]
        nbrs = _CountingSequence(g.neighbors)
        colors = _refine(nbrs, _individualize(root, _target_cell(root)[0]))[0]
        assert len(set(root)) == 1 and len(set(colors)) == 504
        assert nbrs.reads < g.size * math.log2(g.order)


class TestSearch:
    """`_search` on one cell {0,1,2,3} whose children are leaves: its answer,
    its node count and its orbit pruning."""

    @staticmethod
    def _run(autos=(), at_leaf=lambda colors: False, budget=100):
        """`_search`'s answer and the vertices it individualized, in order."""
        tried = []

        def child(depth, colors, v):
            tried.append(v)
            return [(u - v) % 4 for u in range(4)]

        return _search([0] * 4, child, at_leaf, _tickets(budget), autos), tried

    def test_the_first_truthy_leaf_value_is_the_answer(self):
        leaves = []

        def at_leaf(colors):
            leaves.append(colors)
            return len(leaves) > 1 and tuple(colors)

        assert self._run(at_leaf=at_leaf) == ((3, 0, 1, 2), [0, 1])
        assert leaves == [[0, 1, 2, 3], [3, 0, 1, 2]]
        assert self._run(at_leaf=lambda colors: 0) == (None, [0, 1, 2, 3])

    def test_each_child_is_a_node_of_the_budget(self):
        assert self._run(budget=4) == (None, [0, 1, 2, 3])
        with pytest.raises(BudgetExceededError, match="search exceeded 3 nodes"):
            self._run(budget=3)

    def test_a_discrete_root_costs_no_node(self):
        def child(depth, colors, v):
            pytest.fail("a discrete root has no children")

        assert _search([1, 0], child, tuple, _tickets(0)) == (1, 0)
        assert _search([1, 0], child, lambda colors: False, _tickets(0)) is None

    def test_siblings_in_the_orbit_of_tried_ones_are_skipped(self):
        assert self._run([]) == (None, [0, 1, 2, 3])
        assert self._run([[1, 0, 3, 2]]) == (None, [0, 2])

    def test_automorphisms_found_on_the_way_prune_later_siblings(self):
        # (0 2)(1 3), found at the first leaf, joins the orbit of 0 to 2 and then 1 to 3
        autos = []
        assert self._run(autos, lambda colors: autos.append([2, 3, 0, 1]) if not autos else False) == (None, [0, 1])


def _shuffled(g, seed):
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def _torus_row():
    """Ci[15,{1,5}] and a relabeled C3 [] C5, a torus_rows(36) row that passes
    every screen and that the search rejects."""
    return circulant_graph(15, (1, 5)), census._relabeled(
        "ci-torus", cartesian_product(cycle_graph(3), cycle_graph(5)), (3, 5), 15)


# pairs that reach the search: a yes 14 levels down through A[14,2]'s twins,
# a yes at the first leaf, and two noes that run discovery
_SEARCHED_PAIRS = {
    "A14-2": lambda: (accordion(14, 2), _shuffled(accordion(14, 2), 14)),
    "A30-3": lambda: (accordion(30, 3), _shuffled(accordion(30, 3), 30)),
    "A50-6-vs-14": lambda: (accordion(50, 6), accordion(50, 14)),
    "Ci15-vs-C3xC5": _torus_row,
}


class TestAutomorphismPruning:
    """are_isomorphic with the automorphisms of h that it finds itself."""

    @staticmethod
    def _root(h):
        return _refine(h.neighbors, _partition(h.local_invariants.seeds))[0]

    @staticmethod
    def _count_discoveries(monkeypatch):
        found = []
        monkeypatch.setattr(oracle, "_automorphisms", lambda *args: found.append(args[0]) or _automorphisms(*args))
        return found

    @pytest.mark.parametrize("h", [accordion(14, 4), accordion(13, 6), circulant_graph(20, (1, 9)),
                                   cartesian_product(cycle_graph(3), cycle_graph(5)),
                                   cartesian_product(cycle_graph(4), cycle_graph(7))],
                             ids=["A14-4", "A13-6", "Ci20-1-9", "C3xC5", "C4xC7"])
    def test_discovery_finds_automorphisms_transitive_on_vertex_transitive_graphs(self, h):
        perm = list(range(h.order))
        random.Random(h.order).shuffle(perm)
        h = h.relabel(perm)
        root = self._root(h)
        autos = _automorphisms(h, _tickets(100))
        assert autos and all(verify_witness(h, h, VertexMap(tuple(a))) for a in autos)
        assert _orbit(_target_cell(root)[:1], autos) == set(range(h.order))

    def test_maps_are_the_same_with_and_without_discovery(self, monkeypatch):
        # on the default census grid, whose shared graphs keep their paths and
        # h's automorphisms, and on each of its isomorphic rows run alone, where
        # the sweep may have carried the verdict along a multiplier map; and on
        # a pair whose first root child fails; fresh copies keep nothing
        real, compared = oracle.are_isomorphic, []

        def both(g, h):
            vm = real(g, h)
            if vm is not None:
                with monkeypatch.context() as m:
                    m.setattr(oracle, "_automorphisms", lambda *args: [])
                    assert real(Graph(g.order, g.edges), Graph(h.order, h.edges)) == vm
                compared.append(vm)
            return vm

        monkeypatch.setattr(oracle, "are_isomorphic", both)
        report = census.run_census()
        assert report.ok and len(compared) == 82
        compared.clear()
        for row in report.rows:
            if row.oracle:
                (alone,) = census._rows(row.kind, [row.params], 0)
                assert alone.oracle
        assert len(compared) == 135
        # Ci[15,{1,5}] and C3 [] C5 side by side; h's first root vertex is in
        # the torus, g's in the circulant
        c, t = circulant_graph(15, (1, 5)), cartesian_product(cycle_graph(3), cycle_graph(5))
        g = Graph(30, c.edges + tuple((i + 15, j + 15) for i, j in t.edges))
        h = g.relabel(list(reversed(range(30))))
        found = self._count_discoveries(monkeypatch)
        assert both(g, h) is not None and found == [h]

    def test_search_node_count_is_pinned(self, monkeypatch):
        # Ci[15,{1,5}] is not C3 [] C5; h is vertex-transitive, so refinement
        # leaves it one cell: the first root image fails after one replay, and
        # discovery's maps, found in 3 nodes, carry it onto all the others
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 4)
        assert are_isomorphic(*_torus_row()) is None
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 3)
        with pytest.raises(BudgetExceededError):
            are_isomorphic(*_torus_row())

    def test_a_screen_passing_no_at_order_2000_takes_a_few_nodes(self, monkeypatch):
        # without discovery the search refines every one of the 2000 root images
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 5)
        assert are_isomorphic(accordion(1000, 6), accordion(1000, 14)) is None

    def test_discovery_runs_once_per_graph_object(self, monkeypatch):
        found = self._count_discoveries(monkeypatch)
        g, h = accordion(50, 6), accordion(50, 14)
        assert are_isomorphic(g, h) is None and are_isomorphic(g, h) is None
        assert found == [h]
        # equal, but a new object: the automorphisms are not carried across
        copy = h.relabel(list(range(100)))
        assert copy == h and are_isomorphic(g, copy) is None
        assert found == [h, copy] and found[1] is copy

    def test_a_first_root_child_that_succeeds_runs_no_discovery(self, monkeypatch):
        found = self._count_discoveries(monkeypatch)
        g = accordion(101, 3)
        perm = list(range(202))
        random.Random(101).shuffle(perm)
        h = g.relabel(perm)
        vm = are_isomorphic(g, h)
        assert vm is not None and verify_witness(g, h, vm)
        assert found == []

    def test_every_default_census_row_fits_in_14_search_nodes(self, monkeypatch):
        # the orbit pruning at census scale: one row needs 14 nodes, none more
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 14)
        assert census.run_census().ok
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 13)
        with pytest.raises(BudgetExceededError):
            census.run_census()


class TestKeptPaths:
    """Each Graph keeps the levels of its first path: a call refines only the
    levels that neither graph keeps, and answers as fresh copies do."""

    @staticmethod
    def _count(monkeypatch, name):
        calls, real = [], getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args: calls.append(args) or real(*args))
        return calls

    @pytest.mark.parametrize("pair", _SEARCHED_PAIRS.values(), ids=_SEARCHED_PAIRS.keys())
    def test_a_second_call_on_the_same_objects_refines_nothing(self, monkeypatch, pair):
        g, h = pair()
        refined = self._count(monkeypatch, "_refine")
        vm = are_isomorphic(g, h)
        assert refined != []
        refined.clear()
        assert are_isomorphic(g, h) == vm and refined == []

    def test_a_fresh_source_against_a_kept_target_is_only_replayed(self, monkeypatch):
        # the fresh circulant follows the torus's root, fails the replay of its
        # first child, and the torus's kept automorphisms skip every other one
        g, h = _torus_row()
        assert g.components == h.components and g.local_invariants.profile == h.local_invariants.profile
        assert are_isomorphic(g, h) is None
        refined, replayed = self._count(monkeypatch, "_refine"), self._count(monkeypatch, "_replay")
        assert are_isomorphic(circulant_graph(15, (1, 5)), h) is None
        assert refined == [] and len(replayed) == 2

    def test_a_relabeled_copy_starts_with_no_kept_path(self):
        g, h = _SEARCHED_PAIRS["A30-3"]()
        assert are_isomorphic(g, h) is not None
        assert "_first_path" in vars(g) and "_first_path" in vars(h)
        copy = h.relabel(list(range(h.order)))
        assert copy == h and "_first_path" not in vars(copy)

    @pytest.mark.parametrize("name, nodes", [("A14-2", 14), ("A30-3", 2), ("A50-6-vs-14", 7), ("Ci15-vs-C3xC5", 4)])
    def test_a_call_cut_by_the_budget_keeps_only_whole_levels(self, monkeypatch, name, nodes):
        # every budget short of the search's nodes, each on new objects, then
        # the full budget on the same objects
        pair = _SEARCHED_PAIRS[name]
        fresh = are_isomorphic(*pair())
        for budget in range(1, nodes):
            g, h = pair()
            with monkeypatch.context() as m:
                m.setattr(oracle, "DEFAULT_NODE_BUDGET", budget)
                with pytest.raises(BudgetExceededError):
                    are_isomorphic(g, h)
            assert are_isomorphic(g, h) == fresh


# pairs off the families with answers known by construction, so no VF2 is
# needed, and the search nodes each took when it was added: measurements, as
# the census's 14 is.  Shrikhande and the rook's graph have equal profiles
# and one cell after refinement, but the one's neighbourhoods are 6-cycles and
# the other's two triangles; an odd number of CFI twists is not isomorphic to
# none, an even number is.
_KNOWN_ANSWERS = {
    "shrikhande-vs-rook-4x4": (lambda: (_shrikhande(), _rook_4x4()), False, 27),
    "cfi-k4-twisted-once": (lambda: (_cfi(_K4), _cfi(_K4, 1)), False, 48),
    # an orbit skip by automorphisms that do not fix the path says "no" here in 37 nodes
    "cfi-k4-twisted-once-relabeled": (lambda: (_cfi(_K4), _shuffled(_cfi(_K4, 1), 1)), False, 48),
    "cfi-cube-twisted-once": (lambda: (_cfi(_CUBE), _cfi(_CUBE, 1)), False, 120),
    "cfi-k33-twisted-once": (lambda: (_cfi(_K33), _cfi(_K33, 1)), False, 124),
    "cfi-petersen-twisted-once": (lambda: (_cfi(_PETERSEN), _cfi(_PETERSEN, 1)), False, 320),
    "cfi-k4-twisted-twice": (lambda: (_cfi(_K4), _cfi(_K4, 2)), True, 4),
    "cfi-cube-twisted-twice": (lambda: (_cfi(_CUBE), _cfi(_CUBE, 2)), True, 6),
    "cfi-k33-twisted-twice": (lambda: (_cfi(_K33), _cfi(_K33, 2)), True, 6),
    "cfi-petersen-twisted-twice": (lambda: (_cfi(_PETERSEN), _cfi(_PETERSEN, 2)), True, 8),
    "cfi-k4-relabeled": (lambda: (_cfi(_K4), _shuffled(_cfi(_K4), 40)), True, 41),
    "cfi-cube-relabeled": (lambda: (_cfi(_CUBE), _shuffled(_cfi(_CUBE), 80)), True, 6),
    "cfi-k33-relabeled": (lambda: (_cfi(_K33), _shuffled(_cfi(_K33), 60)), True, 55),
    "cfi-petersen-relabeled": (lambda: (_cfi(_PETERSEN), _shuffled(_cfi(_PETERSEN), 100)), True, 85),
}


class TestKnownAnswers:
    """are_isomorphic on graphs outside the families the deciders cover."""

    @pytest.mark.parametrize("name", _KNOWN_ANSWERS)
    def test_answer_map_and_node_count(self, monkeypatch, name):
        pair, isomorphic, nodes = _KNOWN_ANSWERS[name]
        g, h = pair()
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", nodes)
        vm = are_isomorphic(g, h)
        assert (vm is not None) is isomorphic
        assert vm is None or verify_witness(g, h, vm)
        # fresh objects: a cut call may have kept h's automorphisms
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", nodes - 1)
        with pytest.raises(BudgetExceededError):
            are_isomorphic(*pair())


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
