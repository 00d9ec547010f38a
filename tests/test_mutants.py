"""What the census can catch: mutants of the three isomorphism deciders, and
of the multiplier link along which it carries circulant verdicts.

Each mutant drops one clause or one sign of a decider, or replaces s by 1.
A mutant that changes some verdict is named with one census row on which it
disagrees with the oracle; that row runs alone through the census driver,
and the real decider must agree with the oracle there.  A new clause or
branch in `deciders.py` needs a new row here.

Four clauses of the ci-acc decider follow from the others, so dropping one
changes no verdict and no census grid can tell such a mutant from the
decider.  Each of those lemmas is checked exhaustively for n <= 200 instead.
"""

import math
from functools import partial

import pytest

from accordions import (
    accordions_isomorphic,
    census,
    circulant_iso_accordion,
    circulant_iso_torus,
    normalize_length,
    steps_to_gcd,
)

ORDERS = range(3, 201)


# The deciders restated clause by clause; a False flag drops that clause.

def acc_acc(n, k1, k2, gcd2=True, plus=True, minus=True):
    if k1 == k2:
        return True
    half = k1 * k2 // 2  # exact: gcd(n,k1) = 2 makes k1 even
    return (math.gcd(n, k1) == 2 and (math.gcd(n, k2) == 2 or not gcd2)
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


def _any_multiplier_class(source, circulant, built, heads):
    # census._multiplier_class with non-unit multipliers allowed and the map unchecked
    if circulant is None:
        return source
    m, lengths = circulant
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
