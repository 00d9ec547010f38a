"""Arithmetic isomorphism predicates, cross-checked against the oracle at small sizes."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accordions import (
    InvalidParameterError,
    accordion,
    accordion_circulant_clause,
    accordion_is_bipartite,
    accordions_isomorphic,
    are_isomorphic,
    circulant,
    circulant_is_bipartite,
    circulant_is_connected,
    circulant_iso_accordion,
    circulant_iso_torus,
    find_accordion_param,
    torus_parameters,
    unique_partner,
)


class TestStructurePredicates:
    @pytest.mark.parametrize("n,k,expected", [(4, 2, True), (5, 2, False), (4, 1, False)])
    def test_accordion_bipartite(self, n, k, expected):
        assert accordion_is_bipartite(n, k) is expected

    @pytest.mark.parametrize("n,k,expected", [(6, 3, True), (4, 2, True), (8, 4, False), (7, 2, True)])
    def test_accordion_circulant(self, n, k, expected):
        assert (accordion_circulant_clause(n, k) != "none") is expected

    @pytest.mark.parametrize(
        "n,a,b,expected",
        [
            (4, 1, 3, True),
            (3, 1, 2, False),
            (6, 3, 5, True),
            # disconnected: two copies of the bipartite Ci[8,{1,3}]
            (8, 2, 6, True),
            # disconnected: components have odd order
            (9, 2, 6, False),
        ],
    )
    def test_circulant_bipartite(self, n, a, b, expected):
        assert circulant_is_bipartite(n, a, b) is expected

    @pytest.mark.parametrize("n,a,b,expected", [(6, 2, 3, True), (6, 2, 4, False), (4, 1, 3, True)])
    def test_circulant_connected(self, n, a, b, expected):
        assert circulant_is_connected(n, a, b) is expected

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            accordion_is_bipartite(4, 3)

    def test_bipartite_and_connected_match_the_built_graphs(self):
        # each accordion is connected; Graph.components is the BFS reference
        for n in range(3, 15):
            for k in range(1, n // 2 + 1):
                sizes, bipartite = accordion(n, k).components
                assert accordion_is_bipartite(n, k) == bipartite and len(sizes) == 1, (n, k)
        for n in range(3, 11):
            for a in range(1, n):
                for b in range(a + 1, n):
                    sizes, bipartite = circulant(n, a, b).components
                    assert circulant_is_bipartite(n, a, b) == bipartite, (n, a, b)
                    assert circulant_is_connected(n, a, b) == (len(sizes) == 1), (n, a, b)

    def test_circulant_clause_matches_the_oracle(self):
        # A[n,k] is circulant exactly when some Ci[2n,{a,b}] is isomorphic to it;
        # A[8,4] and A[10,4] are the first that are not
        for n in range(3, 11):
            for k in range(1, n // 2 + 1):
                g = accordion(n, k)
                found = any(are_isomorphic(g, circulant(n, a, b)) is not None
                            for a in range(1, n) for b in range(a + 1, n))
                assert (accordion_circulant_clause(n, k) != "none") == found, (n, k)


class TestAccordionPairs:
    def test_partner_pair(self):
        v = accordions_isomorphic(14, 4, 6)
        assert v.isomorphic and v.branch == "case-minus"
        assert v.gcd1 == v.gcd2 == 2
        assert v.half_product == 12  # == -2 (mod 14)

    def test_case_plus(self):
        v = accordions_isomorphic(22, 6, 8)
        assert v.isomorphic and v.branch == "case-plus"

    def test_non_partner(self):
        v = accordions_isomorphic(10, 2, 4)
        assert not v.isomorphic and v.branch == "not-isomorphic"

    def test_equal_k(self):
        v = accordions_isomorphic(9, 4, 4)
        assert v.isomorphic and v.branch == "equal-k"

    def test_symmetric_in_arguments(self):
        assert accordions_isomorphic(14, 6, 4).isomorphic

    def test_oracle_agreement_small(self):
        for n in range(3, 9):
            for k1 in range(1, n // 2 + 1):
                for k2 in range(k1, n // 2 + 1):
                    decided = accordions_isomorphic(n, k1, k2).isomorphic
                    found = are_isomorphic(accordion(n, k1), accordion(n, k2))
                    assert decided == (found is not None), (n, k1, k2)

    @pytest.mark.parametrize("n,k1,expected", [(14, 4, 6), (14, 6, 4), (10, 2, None), (3, 1, None)])
    def test_unique_partner(self, n, k1, expected):
        assert unique_partner(n, k1) == expected


def _outcome(decide, *args):
    """What a decider answers, or the type of error it raises."""
    try:
        return decide(*args)
    except InvalidParameterError as err:
        return type(err)


class TestPlusMinusCongruences:
    """The clauses hold up to sign and shift; checked at orders no exhaustive grid reaches."""

    @given(st.integers(3, 5 * 10**5), st.integers(1, 5 * 10**5), st.sampled_from([1, -1]))
    def test_partners_solve_the_half_product_congruence(self, m, u, sign):
        # n = 2m, k1 = 2u, k2 = 2w with u*w == +-1 (mod m): k1*k2/2 = 2uw == +-2 (mod n)
        u = u % (m // 2) + 1
        if math.gcd(u, m) != 1:
            return
        w = sign * pow(u, -1, m) % m
        n, k1, k2 = 2 * m, 2 * u, 2 * min(w, m - w)
        v = accordions_isomorphic(n, k1, k2)
        assert v.isomorphic
        if k1 != k2:
            assert v.branch == ("case-plus" if (k1 * k2 // 2 - 2) % n == 0 else "case-minus")

    @given(st.integers(3, 10**6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n // 2), st.integers(1, n // 2))))
    def test_random_pairs_match_the_statement(self, nkk):
        n, k1, k2 = nkk
        both_two = math.gcd(n, k1) == math.gcd(n, k2) == 2
        expected = k1 == k2 or (both_two and (k1 * k2 // 2) % n in {2 % n, -2 % n})
        assert accordions_isomorphic(n, k1, k2).isomorphic == expected

    @given(st.integers(3, 10**6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n // 2), st.integers(1, n // 2))))
    def test_acc_acc_is_symmetric(self, nkk):
        n, k1, k2 = nkk
        forward, backward = accordions_isomorphic(n, k1, k2), accordions_isomorphic(n, k2, k1)
        assert (forward.isomorphic, forward.branch) == (backward.isomorphic, backward.branch)

    @given(st.integers(3, 10**5), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(1, 10**5), st.integers(-50, 50))
    def test_ci_acc_sees_lengths_up_to_sign_and_shift(self, n, a, b, k, t):
        k = k % (n // 2) + 1
        answer = _outcome(circulant_iso_accordion, n, a, b, k)
        shifted = _outcome(circulant_iso_accordion, n, t * 2 * n - a, b + t * 2 * n, k)
        assert shifted == answer

    @given(st.integers(9, 10**5), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(-50, 50))
    def test_torus_sees_lengths_up_to_sign_and_shift(self, m, a1, a2, t):
        answer = _outcome(torus_parameters, m, a1, a2)
        assert _outcome(torus_parameters, m, t * m - a1, a2 - t * m) == answer
        if isinstance(answer, tuple):
            assert circulant_iso_torus(m, -a1, a2 + t * m, *answer)


class TestTorus:
    def test_examples(self):
        assert circulant_iso_torus(12, 3, 4, 3, 4)
        assert circulant_iso_torus(36, 4, 9, 4, 9)

    def test_small_factor_rejected(self):
        with pytest.raises(InvalidParameterError):
            circulant_iso_torus(12, 2, 3, 2, 3)

    def test_wrong_product(self):
        assert not circulant_iso_torus(12, 3, 4, 3, 3)

    def test_non_coprime_factors(self):
        assert not circulant_iso_torus(16, 4, 7, 4, 4)

    def test_swapped_gcd_pairing(self):
        assert circulant_iso_torus(12, 4, 3, 3, 4)

    def test_parameter_scan(self):
        assert torus_parameters(12, 3, 4) == (3, 4)
        assert torus_parameters(12, 1, 2) is None

    @staticmethod
    def _divisor_scan(nprime, a1, a2):
        """The reference: the first divisor pair d <= sqrt(nprime) that passes the torus test."""
        for d in range(3, math.isqrt(nprime) + 1):
            if nprime % d == 0 and nprime // d >= 3 and circulant_iso_torus(nprime, a1, a2, d, nprime // d):
                return (d, nprime // d)
        return None

    def test_factors_match_the_divisor_scan(self):
        # every normalized pair up to order 150, both orders, with a sign flip and a shift by t*nprime
        yes = 0
        for m in range(5, 151):
            bound = (m - 1) // 2
            for a1 in range(1, bound + 1):
                for a2 in range(a1 + 1, bound + 1):
                    expected = self._divisor_scan(m, a1, a2)
                    yes += expected is not None
                    t = (a1 + a2) % 5 - 2
                    for args in ((a1, a2), (a2, a1), (t * m - a1, a2 - t * m), (a2 + t * m, -a1)):
                        assert torus_parameters(m, *args) == expected, (m, args)
        assert yes > 100

    def test_factors_at_a_semiprime_order(self):
        assert torus_parameters(1000003 * 1000033, 1000033, 1000003) == (1000003, 1000033)

    def test_length_validation(self):
        with pytest.raises(InvalidParameterError):
            circulant_iso_torus(12, 6, 1, 3, 4)  # 6 folds to the half-order
        with pytest.raises(InvalidParameterError):
            circulant_iso_torus(12, 3, 15, 3, 4)  # 15 folds to 3 = a1


class TestCirculantAccordion:
    def test_bipartite_example(self):
        v = circulant_iso_accordion(4, 1, 3, 2)
        assert v.isomorphic and v.regime == "bipartite"

    def test_bipartite_needs_k2(self):
        assert not circulant_iso_accordion(4, 1, 3, 1).isomorphic

    def test_nonbipartite_example(self):
        v = circulant_iso_accordion(3, 1, 2, 1)
        assert v.isomorphic and v.regime == "non-bipartite"
        assert v.q == 1 and v.steps == 1 and v.sign == 1

    def test_orientation_swap(self):
        v = circulant_iso_accordion(3, 2, 1, 1)
        assert v.isomorphic and v.swapped

    def test_both_even_is_a_disconnected_no(self):
        # every both-even request gets a verdict: the circulant is disconnected
        checked = 0
        for n in range(3, 15):
            for a in range(2, n, 2):
                for b in range(2, n, 2):
                    if a == b:
                        continue
                    assert find_accordion_param(n, a, b) is None, (n, a, b)
                    for k in range(1, n // 2 + 1):
                        v = circulant_iso_accordion(n, a, b, k)
                        assert v.regime == "both-even", (n, a, b, k)
                        assert v.isomorphic is False and v.connected is False, (n, a, b, k)
                        checked += 1
        assert checked == 770

    def test_disconnected_mixed_parity_is_false(self):
        # arithmetic conditions hold for k=3 (gcd(30,3)=3=gcd(15,3), s=1,
        # 12*3 == +2*1*3 mod 30) but the circulant is disconnected
        v = circulant_iso_accordion(15, 3, 12, 3)
        assert not v.isomorphic and not v.connected
        assert v.q == 3 and v.steps == 1
        assert are_isomorphic(circulant(15, 3, 12), accordion(15, 3)) is None

    def test_base_family_identity(self):
        # A[n,2] ~ Ci[2n,{1,n-1}] for every even n
        for n in range(4, 13, 2):
            assert circulant_iso_accordion(n, 1, n - 1, 2).isomorphic

    @pytest.mark.parametrize(
        "n,a,b,expected",
        [(4, 1, 3, 2), (3, 1, 2, 1), (6, 2, 4, None), (1000, 1, 4, None), (1001, 1, 4, 500)],
    )
    def test_find_accordion_param(self, n, a, b, expected):
        assert find_accordion_param(n, a, b) == expected

    def test_find_accordion_param_matches_the_full_scan(self):
        # the reference tries every k, as find_accordion_param did before its
        # both-lengths-odd shortcut; the two must agree, exceptions included
        def full_scan(n, a, b):
            for k in range(1, n // 2 + 1):
                if circulant_iso_accordion(n, a, b, k).isomorphic:
                    return k
            return None

        def outcome(f, n, a, b):
            try:
                return f(n, a, b)
            except InvalidParameterError as exc:
                return type(exc), str(exc)

        for n in range(3, 31):
            for a in range(1, 2 * n):
                for b in range(1, 2 * n):
                    assert outcome(find_accordion_param, n, a, b) == outcome(full_scan, n, a, b), (n, a, b)

    @pytest.mark.parametrize("n", [64, 105, 210, 1001])
    def test_find_accordion_param_is_the_first_match_at_larger_orders(self, n):
        # mixed-parity lengths, where the candidate k comes in closed form,
        # against the decider asked at every k
        rng = random.Random(n)
        matched = 0
        for _ in range(25):
            a, b = rng.randrange(1, 2 * n, 2), rng.randrange(2, 2 * n, 2)
            if n in (a, b):  # length n is a perfect matching
                continue
            ks = [k for k in range(1, n // 2 + 1) if circulant_iso_accordion(n, a, b, k).isomorphic]
            assert find_accordion_param(n, a, b) == (ks[0] if ks else None), (n, a, b)
            matched += bool(ks)
        assert matched

    def test_regime_consistency_with_bipartiteness(self):
        for n in range(3, 9):
            for a in range(1, n):
                for b in range(a + 1, n):
                    for k in range(1, n // 2 + 1):
                        if circulant_iso_accordion(n, a, b, k).isomorphic:
                            assert circulant(n, a, b).components[1] == accordion(n, k).components[1]


def test_partner_uniqueness_small():
    # the scan over every k2 is the reference for unique_partner's closed form
    for n in range(3, 121):
        for k1 in range(1, n // 2 + 1):
            partners = [
                k2
                for k2 in range(1, n // 2 + 1)
                if k2 != k1 and accordions_isomorphic(n, k1, k2).isomorphic
            ]
            assert len(partners) <= 1, (n, k1, partners)
            assert unique_partner(n, k1) == (partners[0] if partners else None)
