"""Residue arithmetic helpers."""

import math

import pytest

from accordions import InvalidParameterError, accordion, steps_to_gcd


class TestStepsToGcd:
    def test_examples(self):
        assert steps_to_gcd(3, 1) == 1
        assert steps_to_gcd(10, 4) == 3  # 3*4 = 12 == 2 = gcd(10,4) (mod 10)
        assert steps_to_gcd(12, 5) == 5  # 25 == 1 = gcd(12,5) (mod 12)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            steps_to_gcd(10, 6)

    def test_refuses_exactly_as_accordion_does(self):
        # one rule names the accordions, so both refuse the same (n, k) in the same words
        def refusal(build, n, k):
            try:
                build(n, k)
            except InvalidParameterError as err:
                return str(err)
            return None

        for n in range(13):
            for k in range(-1, n + 2):
                assert refusal(steps_to_gcd, n, k) == refusal(accordion, n, k), (n, k)

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
