"""Residue arithmetic underlying the isomorphism deciders."""

from __future__ import annotations

import math

from .graphs import _check_accordion

__all__ = ["steps_to_gcd"]


def steps_to_gcd(n: int, k: int) -> int:
    """Least positive s with s*k == gcd(n,k) (mod n).

    Dividing by g = gcd(n,k) leaves s*(k/g) == 1 (mod n/g), so s is the
    inverse of k/g modulo n/g; n/g >= 2 because k <= n/2, so that inverse
    lies in [1, n/g - 1].  Refuses an (n, k) that names no accordion A[n,k].
    """
    _check_accordion(n, k)
    g = math.gcd(n, k)
    return pow(k // g, -1, n // g)
