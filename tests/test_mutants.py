"""What the checks can catch: mutants of the three isomorphism deciders, of
the multiplier link along which the census carries circulant verdicts, and
of the oracle and verify_witness.

Each mutant drops one clause or one sign of a decider, or replaces s by 1.
A mutant that changes some verdict is named with one census row on which it
disagrees with the oracle; that row runs alone through the census driver,
and the real decider must agree with the oracle there.  A new clause or
branch in `deciders.py` needs a new row here.

Four clauses of the ci-acc decider follow from the others, so dropping one
changes no verdict and no census grid can tell such a mutant from the
decider.  Each of those lemmas is checked exhaustively for n <= 200 instead.

A check mutant is an edited copy of one function of the oracle, of
verify_witness and the permutation test it shares with Graph.relabel, of
the census's multiplier link or witness guard, or of the CLI's `main`, put
in place of the original wherever the package or the test module that kills
it binds the name at import; its killers, tier-1 tests, are run against it
and must fail.
"""

import inspect
import math
from functools import partial

import pytest
import test_census as census_tests
import test_cli as cli_tests
import test_oracle as oracle_tests
import test_witnesses as witness_tests

import accordions
from accordions import (
    accordions_isomorphic,
    census,
    circulant_iso_accordion,
    circulant_iso_torus,
    cli,
    graphs,
    normalize_length,
    oracle,
    steps_to_gcd,
    witnesses,
)

ORDERS = range(3, 201)


# The deciders restated clause by clause; a False flag drops that clause.

def acc_acc(n, k1, k2, gcd1=True, gcd2=True, plus=True, minus=True):
    if k1 == k2:
        return True
    half = k1 * k2 // 2  # exact while one gcd clause holds: gcd(n,k) = 2 makes k even
    return ((math.gcd(n, k1) == 2 or not gcd1) and (math.gcd(n, k2) == 2 or not gcd2)
            and (plus and (half - 2) % n == 0 or minus and (half + 2) % n == 0))


def ci_acc(n, a, b, k, connected=True, gcd=True, plus=True, minus=True, steps=True,
           bipartite_gcds=True, k_is_2=True, sum_is_n=True):
    two_n = 2 * n
    a, b = normalize_length(a, two_n), normalize_length(b, two_n)
    if a % 2 == 0 and b % 2 == 0:
        return False
    if a % 2 and b % 2:
        return (n % 2 == 0 and (k == 2 or not k_is_2) and (a + b == n or not sum_is_n)
                and (math.gcd(two_n, a) == 1 == math.gcd(two_n, b) or not bipartite_gcds))
    odd, even = (a, b) if a % 2 else (b, a)
    q = math.gcd(n, k)
    s = steps_to_gcd(n, k) if steps else 1  # steps=False: s = 1 in place of s
    return bool((math.gcd(two_n, a, b) == 1 or not connected) and (n % 2 or k % 2)
                and (math.gcd(two_n, odd) == q or not gcd)
                and (plus and (even * q - 2 * s * odd) % two_n == 0
                     or minus and (even * q + 2 * s * odd) % two_n == 0))


def ci_torus(nprime, a1, a2, n1, n2, coprime=True):
    return (nprime == n1 * n2 and (math.gcd(n1, n2) == 1 or not coprime)
            and sorted((math.gcd(nprime, a1), math.gcd(nprime, a2))) == sorted((n1, n2)))


RESTATED = {"acc-acc": acc_acc, "ci-acc": ci_acc, "ci-torus": ci_torus}
PARAMS = {"acc-acc": ("n", "k1", "k2"), "ci-acc": ("n", "a", "b", "k"), "ci-torus": ("nprime", "a1", "a2", "n1", "n2")}

# mutant -> (census kind, the mutant, the first row of the census grids that kills it)
MUTANTS = {
    "acc-acc: drop gcd(n,k1) = 2": ("acc-acc", partial(acc_acc, gcd1=False), (10, 1, 4)),
    "acc-acc: drop gcd(n,k2) = 2": ("acc-acc", partial(acc_acc, gcd2=False), (34, 8, 9)),
    "acc-acc: drop the +2 branch": ("acc-acc", partial(acc_acc, plus=False), (22, 6, 8)),
    "acc-acc: drop the -2 branch": ("acc-acc", partial(acc_acc, minus=False), (14, 4, 6)),
    "ci-acc mixed: drop connectivity": ("ci-acc", partial(ci_acc, connected=False), (12, 3, 6, 3)),
    "ci-acc mixed: drop gcd(2n,a) = gcd(n,k)": ("ci-acc", partial(ci_acc, gcd=False), (15, 1, 2, 6)),
    "ci-acc mixed: keep +2 only": ("ci-acc", partial(ci_acc, minus=False), (4, 2, 3, 1)),
    "ci-acc mixed: keep -2 only": ("ci-acc", partial(ci_acc, plus=False), (3, 1, 2, 1)),
    "ci-acc mixed: s = 1 in place of s": ("ci-acc", partial(ci_acc, steps=False), (5, 1, 2, 2)),
    "ci-acc bipartite: drop both gcd clauses": ("ci-acc", partial(ci_acc, bipartite_gcds=False), (12, 3, 9, 2)),
    "ci-acc bipartite: drop k = 2": ("ci-acc", partial(ci_acc, k_is_2=False), (4, 1, 3, 1)),
    "ci-acc bipartite: drop a + b = n": ("ci-acc", partial(ci_acc, sum_is_n=False), (8, 1, 3, 2)),
    "ci-torus: drop gcd(n1,n2) = 1": ("ci-torus", partial(ci_torus, coprime=False), (18, 3, 6, 3, 6)),
}


def test_the_restated_deciders_are_the_deciders():
    # a mutant is a mutant of the decider only if the restatement it drops a clause from is the decider
    for n in range(3, 41):
        for k1 in range(1, n // 2 + 1):
            for k2 in range(1, n // 2 + 1):
                assert acc_acc(n, k1, k2) == accordions_isomorphic(n, k1, k2).isomorphic, (n, k1, k2)
    for n in range(3, 15):
        for a in range(1, n):
            for b in range(a + 1, n):
                for k in range(1, n // 2 + 1):
                    assert ci_acc(n, a, b, k) == circulant_iso_accordion(n, a, b, k).isomorphic, (n, a, b, k)
    for m in range(9, 61):
        for n1 in range(3, m // 3 + 1):
            if m % n1 == 0:
                for a1 in range(1, (m + 1) // 2):
                    for a2 in range(a1 + 1, (m + 1) // 2):
                        assert ci_torus(m, a1, a2, n1, m // n1) == circulant_iso_torus(m, a1, a2, n1, m // n1)


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_disagrees_with_the_oracle_on_its_row(name):
    kind, mutant, args = MUTANTS[name]
    params = dict(zip(PARAMS[kind], args))
    (row,) = census._rows(kind, [params], 0)
    assert row.agree and RESTATED[kind](**params) == row.decider
    assert mutant(**params) != row.oracle


def test_bipartite_odd_lengths_summing_to_n_force_n_even():
    # "n even" in the bipartite clause follows from a, b odd and a + b = n
    for n in ORDERS:
        for a in range(1, n, 2):
            if (n - a) % 2:
                assert n % 2 == 0, (n, a)


def test_bipartite_either_gcd_clause_gives_the_other():
    # with a, b odd and a + b = n, gcd(2n,a) = 1 exactly when gcd(2n,b) = 1
    for n in ORDERS:
        for a in range(1, n, 2):
            b = n - a
            if b % 2:
                assert (math.gcd(2 * n, a) == 1) == (math.gcd(2 * n, b) == 1), (n, a, b)


def test_mixed_gcd_clause_forces_k_odd_when_n_even():
    # gcd(2n,a) is odd for odd a, so gcd(2n,a) = gcd(n,k) makes gcd(n,k) odd,
    # and for even n that makes k odd: the parity clause adds nothing
    for n in ORDERS:
        odd_gcds = {math.gcd(2 * n, a) for a in range(1, 2 * n, 2)}
        assert all(q % 2 for q in odd_gcds), n
        if n % 2 == 0:
            for k in range(1, n):
                if math.gcd(n, k) in odd_gcds:
                    assert k % 2, (n, k)


def _any_multiplier_class(source, built, heads):
    # census._multiplier_class with non-unit multipliers allowed and the map unchecked
    build, args = source
    if build is not census.circulant_graph:
        return source
    m, lengths = args
    found = heads.get(census._scaled(lengths, 1, m))
    if found is not None:
        return found[0]
    for u in range(1, m // 2 + 1):
        heads.setdefault(census._scaled(lengths, u, m), (source, u))
    return source


def test_a_multiplier_link_without_its_check_is_caught(monkeypatch):
    # 2 is no unit mod 10: the disconnected Ci[10,{2,4}] is linked to Ci[10,{1,2}]
    # and carries its "yes" against A[5,1], where the decider says no
    monkeypatch.setattr(census, "_multiplier_class", _any_multiplier_class)
    report = census.run_census()
    assert not report.ok and len(report.summary["disagreements"]) == 14
    assert {"kind": "ci-acc", "n": 5, "a": 2, "b": 4, "k": 1} in report.summary["disagreements"]


def _edited(fn, old, new):
    """A copy of `fn` with `old`, which its source holds once, replaced by
    `new`.  It reads its module's globals, patched ones included, and is bound
    to no name there."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, old
    namespace = {}
    exec(source.replace(old, new), fn.__globals__, namespace)
    return namespace[fn.__name__]


# mutant -> (module, function, text of its source, the text that replaces it,
# its killers: each a test module, "Class.test" or "test", and the test's parameters)
CHECK_MUTANTS = {
    "B: a leaf map returned without verify_witness": (
        oracle, "_matcher", "return vm if verify_witness(g, h, vm) else None", "return vm",
        [(oracle_tests, "TestKnownAnswers.test_answer_map_and_node_count", "cfi-k4-twisted-once")]),
    "A: the orbit skip by every automorphism, not only those that fix the path": (
        oracle, "_search", "[a for a in autos[known:] if all(a[p] == p for p in path)]", "autos[known:]",
        [(oracle_tests, "TestKnownAnswers.test_answer_map_and_node_count", "cfi-k4-twisted-once-relabeled"),
         (oracle_tests, "TestCanonicalKey.test_orbit_pruning_node_count_is_pinned")]),
    "a replay that accepts once the trace runs out": (
        oracle, "_replay", "next(events, None)", "next(events, event)",
        [(oracle_tests, "TestReplay.test_a_trace_cut_short_is_rejected")]),
    "a kept level returned whatever its trace": (
        oracle, "_level", "level if trace is None or level[1] == trace else None", "level",
        [(oracle_tests, "TestKeptPaths.test_a_kept_root_is_checked_against_a_new_target")]),
    "verify_witness without its permutation check": (
        witnesses, "verify_witness", "not _is_permutation(m, g.order)", "False",
        [(witness_tests, "TestVerifyWitness.test_image_out_of_range_is_false")]),
    "verify_witness without its edge-count comparison": (
        witnesses, "verify_witness", "return g.size == h.size", "return True",
        [(witness_tests, "TestVerifyWitness.test_edge_count_decides_when_every_image_is_an_edge")]),
    "verify_witness without its edge-membership test": (
        witnesses, "verify_witness", "(x * n + y if x < y else y * n + x) not in target", "False",
        [(witness_tests, "TestVerifyWitness.test_bad_transposition_on_path")]),
    "verify_witness that reads only a map's first order entries": (
        witnesses, "verify_witness", "_is_permutation(m, g.order)", "_is_permutation(m[:g.order], g.order)",
        [(witness_tests, "TestVerifyWitness.test_length_mismatch_is_false")]),
    "_is_permutation without its int-type test": (
        graphs, "_is_permutation", "set(map(type, seq)) == {int} and ", "",
        [(witness_tests, "TestVerifyWitness.test_bool_and_float_entries_are_false")]),
    "a multiplier link checked the wrong way round, x -> ux from the source onto the head": (
        census, "_multiplier_class",
        "verify_witness(built[head], built[source]", "verify_witness(built[source], built[head]",
        [(census_tests, "test_every_default_row_reruns_alone")]),
    "a witness guard that catches nothing, so a refused constructor ends the sweep": (
        census, "_checked_witness", "except ValueError:", "except ZeroDivisionError:",
        [(cli_tests, "TestCensusCmd.test_a_wrong_yes_is_a_failed_row_not_an_aborted_sweep", "ci-acc-always-yes")]),
    "main without its except SystemExit clause, so argparse's help and usage exits escape it": (
        cli, "main", "except SystemExit as exc:", "except ZeroDivisionError as exc:",
        [(cli_tests, "TestParser.test_main_answers_every_request_with_an_int")]),
}


@pytest.mark.parametrize("name", CHECK_MUTANTS)
def test_each_check_mutant_fails_its_killers(monkeypatch, name):
    module, function, old, new, killers = CHECK_MUTANTS[name]
    original = getattr(module, function)
    mutant = _edited(original, old, new)
    package = [accordions, *(value for value in vars(accordions).values() if inspect.ismodule(value))]
    for tests, test, *args in killers:
        cls, _, method = test.rpartition(".")
        killer = getattr(getattr(tests, cls)() if cls else tests, method)
        with monkeypatch.context() as m:
            for bound in (*package, tests):
                if getattr(bound, function, None) is original:
                    m.setattr(bound, function, mutant)
            if "monkeypatch" in inspect.signature(killer).parameters:
                args = [m, *args]
            # an assertion or pytest.raises that sees no exception; a mutant
            # that crashes the killer some other way is not counted as killed
            with pytest.raises((AssertionError, pytest.fail.Exception)):
                killer(*args)
