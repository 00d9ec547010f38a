"""`census._rows`: rows that rerun alone, verdicts carried along multiplier maps,
and rows named for what they gate."""

import dataclasses
import math
import random
from collections import Counter
from functools import partial
from types import SimpleNamespace

import pytest

from accordions import Graph, census, circulant_graph, normalize_length, oracle, witnesses


def _recording_oracle(monkeypatch):
    """The list that each later `oracle.are_isomorphic` call appends its (g, h) to."""
    calls = []
    real = oracle.are_isomorphic
    monkeypatch.setattr(oracle, "are_isomorphic", lambda g, h: calls.append((g, h)) or real(g, h))
    return calls


def _default_rows(calls):
    """The rows of `run_census()` at its defaults, each with the oracle calls made for it."""
    for rows in (census.accordion_pair_rows(14), census.circulant_accordion_rows(10), census.torus_rows(36)):
        for row in rows:
            yield row, calls[:]
            calls.clear()


def test_every_default_row_reruns_alone(monkeypatch):
    # the sweep calls the oracle on no row whose witness verified, and else once
    # per multiplier class of sources and target, and the class's later rows
    # carry its verdict (acc-acc rows carry none); a row run alone heads its
    # class, so it calls the oracle once unless its witness verifies, on fresh
    # copies of its own graphs (equal to the sweep's where the sweep called
    # it), and gives the same row: each carried verdict is the oracle's or a
    # verified map's on the row's own graphs
    calls = _recording_oracle(monkeypatch)
    sweep = list(_default_rows(calls))
    made = Counter()
    for row, made_for_row in sweep:
        made[row.kind] += len(made_for_row)
    witnessed = Counter(row.kind for row, _ in sweep if row.witness_verified)
    carried = Counter(row.kind for row, made_for_row in sweep if not row.witness_verified and not made_for_row)
    assert len(sweep) == 2059 and made == {"acc-acc": 90, "ci-acc": 160, "ci-torus": 329}  # 579 calls
    assert witnessed == {"acc-acc": 49, "ci-acc": 55, "ci-torus": 31}
    assert not any(made_for_row for row, made_for_row in sweep if row.witness_verified)
    assert carried == {"ci-acc": 255, "ci-torus": 1090}
    for row, made_for_row in sweep:
        (alone,) = census._rows(row.kind, [row.params], 0)
        assert dataclasses.replace(alone, elapsed=row.elapsed) == row
        assert len(calls) == (0 if row.witness_verified else 1) and made_for_row in ([], calls)
        calls.clear()


def test_a_row_is_timed_from_its_first_step(monkeypatch):
    # on a clock that only a source's first class lookup moves, by 1 s, the
    # first row of each source reports that second and every other row none
    now = [0.0]
    monkeypatch.setattr(census, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    real = census._multiplier_class

    def slow(*args):
        now[0] += 1
        return real(*args)

    monkeypatch.setattr(census, "_multiplier_class", slow)
    seen = set()
    for rows in (census.accordion_pair_rows(8), census.circulant_accordion_rows(6), census.torus_rows(20)):
        for row in rows:
            source = row.kind, census.PAIRINGS[row.kind].source(**row.params)
            assert row.elapsed == (0 if source in seen else 1), row
            seen.add(source)
    assert now[0] == len(seen)


def test_a_rerun_builds_its_own_graphs(monkeypatch):
    # the caches live for one call, so a row run twice builds its graphs twice
    # and hands the oracle fresh objects, with no first path or automorphism
    # kept from the other run
    built = []
    for name in ("accordion", "circulant_graph"):
        real = getattr(census, name)
        monkeypatch.setattr(census, name, partial(lambda real, *args: built.append(args) or real(*args), real))
    calls = _recording_oracle(monkeypatch)
    params = {"n": 15, "a": 1, "b": 2, "k": 6}
    for _ in range(2):
        (row,) = census._rows("ci-acc", [params], 0)
        assert row.agree and row.witness_verified is None
    assert built == [(30, (1, 2)), (15, 6)] * 2
    (g1, h1), (g2, h2) = calls
    assert g1 is not g2 and h1 is not h2


@pytest.mark.parametrize("kind, params", [
    # a decider that drops gcd(n,k2) = 2 answers yes here
    ("acc-acc", {"n": 34, "k1": 8, "k2": 9}),
    # a decider that drops gcd(2n,a) = gcd(n,k) from the mixed regime answers yes here
    ("ci-acc", {"n": 15, "a": 1, "b": 2, "k": 6}),
], ids=["acc-acc", "ci-acc"])
def test_rows_that_no_pinned_grid_reaches(kind, params):
    # outside the default and extended grids, so each is checked here by name
    (row,) = census._rows(kind, [params], 0)
    assert row.decider is False and row.oracle is False and row.agree


@pytest.mark.parametrize("kind, params, isomorphic", [
    ("ci-acc", {"n": 4, "a": 1, "b": 3, "k": 2}, True),
    ("ci-acc", {"n": 3, "a": 1, "b": 2, "k": 1}, True),
    ("ci-acc", {"n": 12, "a": 1, "b": 11, "k": 2}, True),
    ("acc-acc", {"n": 14, "k1": 4, "k2": 6}, True),
    ("acc-acc", {"n": 10, "k1": 2, "k2": 4}, False),
    ("ci-torus", {"nprime": 12, "a1": 3, "a2": 4, "n1": 3, "n2": 4}, True),
], ids=["Ci8-1-3-vs-A4-2", "Ci6-1-2-vs-A3-1", "Ci24-1-11-vs-A12-2",
        "A14-4-vs-A14-6", "A10-2-vs-A10-4", "Ci12-3-4-vs-C3xC4"])
def test_named_known_answers(kind, params, isomorphic):
    # rows that the paper names: the bipartite and non-bipartite examples, the
    # base family A[n,2] = Ci[2n,{1,n-1}] at n = 12, and three answers of the
    # default grid; the golden digest and the extended pin hash them among the
    # rest, and here each answer is asserted by name
    (row,) = census._rows(kind, [params], 0)
    assert (row.decider, row.oracle, row.agree) == (isomorphic, isomorphic, True)
    assert row.witness_verified is (True if isomorphic else None)


def test_a_witness_that_cannot_be_built_is_a_recorded_failure(monkeypatch):
    # a decider wrongly "yes" on Ci[30,{1,2}] vs A[15,6]: the witness
    # constructor refuses, and the row records it instead of ending the sweep
    pairing = census.PAIRINGS["ci-acc"]
    monkeypatch.setitem(census.PAIRINGS, "ci-acc", pairing._replace(decide=lambda **params: True))
    (row,) = census._rows("ci-acc", [{"n": 15, "a": 1, "b": 2, "k": 6}], 0)
    assert (row.decider, row.oracle, row.agree, row.witness_verified) == (True, False, False, False)
    # and a sweep with such rows reports them and fails
    report = census.run_census(max_n=4, max_torus=0)
    assert not report.ok and report.summary["witness_failures"] == [
        {"n": 4, "a": a, "b": b, "k": k, "kind": "ci-acc"} for a, b, k in ((1, 2, 2), (1, 3, 1), (2, 3, 2))
    ]


@pytest.mark.parametrize("kind, decider, params, wrong_yes", [
    # a ci-acc decider that drops the bipartite gcd clauses says yes to
    # Ci[24,{3,9}] vs A[12,2]: 3 is not a unit mod 24, so the closed-form
    # witness fails inside its arithmetic, not by a refusal
    ("ci-acc", "circulant_iso_accordion", {"n": 12, "a": 3, "b": 9, "k": 2},
     lambda real, *args: dataclasses.replace(real(*args), isomorphic=True)),
    # a torus decider that drops gcd(n1,n2) = 1 says yes to Ci[18,{3,6}] vs C3 [] C6
    ("ci-torus", "circulant_iso_torus", {"nprime": 18, "a1": 3, "a2": 6, "n1": 3, "n2": 6},
     lambda real, *args: True),
], ids=["ci-acc-bipartite-gcds-dropped", "ci-torus-coprime-dropped"])
def test_a_witness_that_fails_in_its_arithmetic_is_a_recorded_failure(monkeypatch, kind, decider, params, wrong_yes):
    # the decider is patched where both the census and the witness constructors read it
    mutant = partial(wrong_yes, getattr(census, decider))
    monkeypatch.setattr(census, decider, mutant)
    monkeypatch.setattr(witnesses, decider, mutant)
    (row,) = census._rows(kind, [params], 0)
    assert (row.decider, row.oracle, row.agree, row.witness_verified) == (True, False, False, False)


def _reference_link(edges, u, m, lengths):
    # the link check as it was, on every edge of the head: u is a unit, the head
    # has m·|S| edges, and each edge's difference times u is ±s for an s in S
    scaled = tuple(sorted(normalize_length(a, m) for a in lengths))
    steps = {r for s in scaled for r in (s, m - s)}
    return math.gcd(u, m) == 1 and len(edges) == m * len(scaled) and {u * (j - i) % m for i, j in edges} <= steps


def _links(head, u, lengths, built, measured):
    """Whether `census._multiplier_class` takes Ci[m, lengths] into `head`'s class
    along x -> ux, with `heads` holding that one link."""
    m = head[1][0]
    heads = {census._scaled(lengths, 1, m): (head, u)}
    return census._multiplier_class((circulant_graph, (m, lengths)), built.__getitem__, heads, measured) is head


def test_the_link_check_on_the_length_set_is_the_edge_check():
    # for every head Ci[m,T] and u in 1..m-1 up to order 16, on every S of two
    # lengths in [0, m/2] (a repeat, 0 and m/2 included), and up to order 60 on
    # a seeded sample of heads, on S = uT and on uT with one length moved by one
    rng = random.Random(60)
    for m in range(5, 61):
        built, measured = {}, {}
        bound = (m - 1) // 2
        heads = [(a, b) for a in range(1, bound + 1) for b in range(a + 1, bound + 1)]
        if m > 16:
            heads = rng.sample(heads, min(len(heads), 4))
        for lengths in heads:
            head = circulant_graph, (m, lengths)
            edges = built.setdefault(head, circulant_graph(m, lengths)).edges
            for u in range(1, m):
                if m <= 16:
                    sources = [(a, b) for a in range(m // 2 + 1) for b in range(a, m // 2 + 1)]
                else:
                    a, b = census._scaled(lengths, u, m)
                    sources = [(a, b), (a, normalize_length(b + 1, m))]
                for source in sources:
                    expected = _reference_link(edges, u, m, source)
                    assert _links(head, u, source, built, measured) == expected, (m, lengths, u, source)


def test_a_link_by_a_non_unit_is_refused():
    # 2 is no unit mod 10: x -> 2x carries every edge of Ci[10,{1,2}] onto an
    # edge of Ci[10,{2,4}], and the head has 20 edges, as Ci[10,{2,4}] has
    head = circulant_graph, (10, (1, 2))
    built = {head: circulant_graph(10, (1, 2))}
    assert _links(head, 3, (3, 4), built, {})
    assert not _links(head, 2, (2, 4), built, {})


def test_a_link_from_a_head_short_of_an_edge_is_refused():
    # a head that lacks one edge of Ci[10,{1,2}] still has the lengths {1, 2},
    # which x -> 3x carries onto {3, 4}, but 19 edges, not 20
    head = circulant_graph, (10, (1, 2))
    whole = circulant_graph(10, (1, 2))
    assert _links(head, 3, (3, 4), {head: whole}, {})
    assert not _links(head, 3, (3, 4), {head: Graph(10, whole.edges[1:])}, {})
