"""Residue arithmetic helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accordions import InvalidParameterError, cong_pm, gcd, steps_to_gcd


class TestGcd:
    def test_examples(self):
        assert gcd(10, 5) == 5
        assert gcd(12, 8) == 4
        assert gcd(12, 2, 4) == 2

    def test_one_sided_zero(self):
        assert gcd(7, 0) == 7
        assert gcd(0, 7) == 7

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            gcd(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            gcd(-4, 2)


class TestStepsToGcd:
    def test_examples(self):
        assert steps_to_gcd(3, 1) == 1
        assert steps_to_gcd(10, 4) == 3  # 3*4 = 12 == 2 = gcd(10,4) (mod 10)
        assert steps_to_gcd(12, 5) == 5  # 25 == 1 = gcd(12,5) (mod 12)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            steps_to_gcd(10, 6)

    def test_exhaustive_congruence_and_minimality(self):
        # the reference is the linear scan for the first multiplier that
        # steps_to_gcd ran before it took a modular inverse
        def scan(n, k):
            g = math.gcd(n, k)
            return next(s for s in range(1, n // g + 1) if (s * k) % n == g)

        for n in range(3, 401):
            for k in range(1, n // 2 + 1):
                s = steps_to_gcd(n, k)
                assert s == scan(n, k), (n, k)
                assert (s * k) % n == math.gcd(n, k)


class TestCongPm:
    def test_examples(self):
        assert cong_pm(12, 2, 14)  # 12 == -2 (mod 14)
        assert not cong_pm(4, 2, 10)
        assert cong_pm(0, 0, 7)

    def test_bad_modulus(self):
        with pytest.raises(InvalidParameterError):
            cong_pm(1, 1, 0)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_sign_symmetry(self, x, y, m):
        assert cong_pm(x, y, m) == cong_pm(x, -y, m)

    @given(
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6),
        st.integers(1, 10**4),
        st.integers(-50, 50),
    )
    def test_shift_invariance(self, x, y, m, t):
        assert cong_pm(x, y, m) == cong_pm(x + t * m, y, m)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_reflexive(self, x, m):
        assert cong_pm(x, x, m)
