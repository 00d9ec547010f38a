"""Residue arithmetic underlying the isomorphism deciders."""

from __future__ import annotations

import math

from .errors import InvalidParameterError

__all__ = ["gcd", "cong_pm", "steps_to_gcd"]


def gcd(*values: int) -> int:
    """Greatest common divisor of one or more nonnegative integers (not all zero)."""
    if not values:
        raise InvalidParameterError("gcd needs at least one argument")
    if any(v < 0 for v in values):
        raise InvalidParameterError(f"gcd arguments must be nonnegative, got {values}")
    g = math.gcd(*values)
    if g == 0:
        raise InvalidParameterError("gcd(0, ..., 0) is undefined here")
    return g


def cong_pm(x: int, y: int, m: int) -> bool:
    """True iff x == y (mod m) or x == -y (mod m)."""
    if m < 1:
        raise InvalidParameterError(f"modulus must be >= 1, got {m}")
    return (x - y) % m == 0 or (x + y) % m == 0


def steps_to_gcd(n: int, k: int) -> int:
    """Least positive s with s*k == gcd(n,k) (mod n).

    Dividing by g = gcd(n,k) leaves s*(k/g) == 1 (mod n/g), so s is the
    inverse of k/g modulo n/g; n/g >= 2 because k <= n/2, so that inverse
    lies in [1, n/g - 1].
    """
    if n < 3 or not 1 <= k <= n // 2:
        raise InvalidParameterError(f"need n >= 3 and 1 <= k <= n//2, got n={n}, k={k}")
    g = math.gcd(n, k)
    return pow(k // g, -1, n // g)
