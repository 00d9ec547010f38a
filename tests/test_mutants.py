"""Clauses of the ci-acc decider that follow from the others.

Dropping one of these clauses from `circulant_iso_accordion` changes no
verdict, so no census grid can tell such a mutant from the decider.  Each
lemma is checked here exhaustively for n <= 200 instead.
"""

import math

ORDERS = range(3, 201)


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
