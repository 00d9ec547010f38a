"""`census._rows`: rows that rerun alone, verdicts carried along multiplier maps,
and rows named for what they gate."""

import dataclasses
from collections import Counter
from functools import partial

import pytest

from accordions import census, oracle, witnesses


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
    # the sweep calls the oracle once per multiplier class of sources and
    # target, and the class's later rows carry its verdict (acc-acc rows carry
    # none); a row run alone heads its class, so it calls the oracle once, on
    # fresh copies of its own graphs (equal to the sweep's where the sweep
    # called it), and gives the same row: each carried verdict is the oracle's
    # on the row's own graphs
    calls = _recording_oracle(monkeypatch)
    sweep = list(_default_rows(calls))
    made = Counter()
    for row, made_for_row in sweep:
        made[row.kind] += len(made_for_row)
    carried = Counter(row.kind for row, made_for_row in sweep if not made_for_row)
    assert len(sweep) == 2059 and made == {"acc-acc": 139, "ci-acc": 182, "ci-torus": 340}  # 661 calls
    assert carried == {"ci-acc": 288, "ci-torus": 1110}
    for row, made_for_row in sweep:
        (alone,) = census._rows(row.kind, [row.params], 0)
        assert dataclasses.replace(alone, elapsed=row.elapsed) == row
        assert len(calls) == 1 and made_for_row in ([], calls)
        calls.clear()


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
