"""Constant-time arithmetic isomorphism predicates for the quartic families.

Every predicate here is a pure function of the integer parameters; the
brute-force oracle cross-validates each one on a census grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidParameterError
from .graphs import _check_accordion, _circulant_lengths, _circulant_pair
from .modarith import steps_to_gcd

__all__ = [
    "AccAccVerdict",
    "CiAccVerdict",
    "accordion_circulant_clause",
    "accordion_is_bipartite",
    "circulant_is_bipartite",
    "circulant_is_connected",
    "accordions_isomorphic",
    "unique_partner",
    "circulant_iso_torus",
    "torus_parameters",
    "circulant_iso_accordion",
    "find_accordion_param",
]


def accordion_is_bipartite(n: int, k: int) -> bool:
    """A[n,k] is bipartite iff both n and k are even."""
    _check_accordion(n, k)
    return n % 2 == 0 and k % 2 == 0


def accordion_circulant_clause(n: int, k: int) -> str:
    """The clause making A[n,k] circulant: k-odd, k-even-n-odd, k-2-n-even, or none."""
    _check_accordion(n, k)
    if k % 2 == 1:
        return "k-odd"
    if n % 2 == 1:
        return "k-even-n-odd"
    return "k-2-n-even" if k == 2 else "none"


def circulant_is_bipartite(n: int, a: int, b: int) -> bool:
    """Ci[2n,{a,b}] is bipartite iff both lengths are odd, in the connected case.

    A disconnected circulant splits into d = gcd(2n,a,b) copies of the
    circulant of order 2n/d with lengths a/d, b/d, so the same test applies
    to the component (never bipartite when the component order is odd).
    """
    a, b = _circulant_pair(n, a, b)
    d = math.gcd(2 * n, a, b)
    return (2 * n // d) % 2 == 0 and (a // d) % 2 == 1 and (b // d) % 2 == 1


def circulant_is_connected(n: int, a: int, b: int) -> bool:
    """Ci[2n,{a,b}] is connected iff gcd(2n,a,b) = 1."""
    a, b = _circulant_pair(n, a, b)
    return math.gcd(2 * n, a, b) == 1


@dataclass
class AccAccVerdict:
    """Outcome of the accordion-accordion isomorphism test."""

    isomorphic: bool
    branch: str  # equal-k | case-minus | case-plus | not-isomorphic
    gcd1: int
    gcd2: int
    half_product: Optional[int]  # k1*k2/2 when both gcds are 2, else None


def accordions_isomorphic(n: int, k1: int, k2: int) -> AccAccVerdict:
    """Decide A[n,k1] ~ A[n,k2].

    For k1 != k2 the graphs are isomorphic iff gcd(n,k1) = gcd(n,k2) = 2 and
    k1*k2/2 == +-2 (mod n).  Both gcds being 2 makes k1*k2 divisible by 4, so
    the halving is exact.  The branch records which sign matched.
    """
    _check_accordion(n, k1)
    _check_accordion(n, k2)
    g1 = math.gcd(n, k1)
    g2 = math.gcd(n, k2)
    if k1 == k2:
        return AccAccVerdict(True, "equal-k", g1, g2, None)
    if g1 == 2 and g2 == 2:
        half = k1 * k2 // 2
        if (half + 2) % n == 0:
            return AccAccVerdict(True, "case-minus", g1, g2, half)
        if (half - 2) % n == 0:
            return AccAccVerdict(True, "case-plus", g1, g2, half)
        return AccAccVerdict(False, "not-isomorphic", g1, g2, half)
    return AccAccVerdict(False, "not-isomorphic", g1, g2, None)


def unique_partner(n: int, k1: int) -> Optional[int]:
    """The unique k2 != k1 with A[n,k1] ~ A[n,k2], or None.

    A partner needs gcd(n,k1) = gcd(n,k2) = 2, so n = 2m, k1 = 2j and k2 = 2l
    with j and l units mod m.  Then k1*k2/2 == +-2 (mod n) is j*l == +-1
    (mod m), so l == +-c with c = j^-1 (mod m), and k2 <= n/2 keeps
    l = min(c, m-c) alone: at most one candidate, which the decider then
    confirms or refutes (it is k1 itself when j*j == +-1 (mod m)).
    """
    _check_accordion(n, k1)
    if math.gcd(n, k1) != 2:
        return None
    m = n // 2  # >= 2: n is even and >= 3
    c = pow(k1 // 2, -1, m)
    k2 = 2 * min(c, m - c)
    return k2 if k2 != k1 and accordions_isomorphic(n, k1, k2).isomorphic else None


def circulant_iso_torus(nprime: int, a1: int, a2: int, n1: int, n2: int) -> bool:
    """Decide Ci[nprime,{a1,a2}] ~ C_{n1} [] C_{n2}.

    Holds iff nprime = n1*n2, the two gcds gcd(nprime,a_j) are {n1,n2} in
    some order, and gcd(n1,n2) = 1.
    """
    if n1 < 3 or n2 < 3:
        raise InvalidParameterError(f"cycle factors must be >= 3, got n1={n1}, n2={n2}")
    na1, na2 = _circulant_lengths(nprime, (a1, a2))
    if nprime != n1 * n2 or math.gcd(n1, n2) != 1:
        return False
    g1 = math.gcd(nprime, na1)
    g2 = math.gcd(nprime, na2)
    return (g1 == n1 and g2 == n2) or (g1 == n2 and g2 == n1)


def torus_parameters(nprime: int, a1: int, a2: int) -> Optional[tuple[int, int]]:
    """The factors n1 < n2 with Ci[nprime,{a1,a2}] ~ C_{n1} [] C_{n2}, or None.

    The torus test names the factors: they are the two gcds gcd(nprime,a_j),
    so their ascending pair is the one candidate, which the test then
    confirms or refutes.
    """
    na1, na2 = _circulant_lengths(nprime, (a1, a2))
    n1, n2 = sorted((math.gcd(nprime, na1), math.gcd(nprime, na2)))
    return (n1, n2) if n1 >= 3 and circulant_iso_torus(nprime, a1, a2, n1, n2) else None


@dataclass
class CiAccVerdict:
    """Outcome of the circulant-accordion isomorphism test.

    `swapped` records whether the inputs were reoriented so that a is the odd
    length (the mixed-parity test is stated for a odd, b even; the underlying
    graph is the same either way).  `sign` is +1 when b*q == +2*s*a (mod 2n)
    matched and -1 when the -2*s*a congruence matched (q = gcd(n,k), s the
    least multiplier with s*k == q mod n); it drives the witness construction.
    """

    a: int
    b: int
    regime: str  # bipartite | non-bipartite | both-even
    isomorphic: bool
    swapped: bool = False
    connected: bool = True
    q: Optional[int] = None
    steps: Optional[int] = None
    sign: Optional[int] = None


def circulant_iso_accordion(n: int, a: int, b: int, k: int) -> CiAccVerdict:
    """Decide Ci[2n,{a,b}] ~ A[n,k].

    Both lengths odd (bipartite circulant): isomorphic iff n is even, k = 2,
    gcd(2n,a) = gcd(2n,b) = 1 and a + b = n.

    Mixed parity (non-bipartite): with a odd and b even, isomorphic iff the
    circulant is connected, k is odd whenever n is even, gcd(2n,a) = gcd(n,k),
    and b*gcd(n,k) == +-2*s*a (mod 2n) where s is the least multiplier with
    s*k == gcd(n,k) (mod n).

    Both lengths even: the circulant is disconnected, so it never matches a
    (connected) accordion; the verdict is a no in the regime "both-even".
    """
    a, b = _circulant_pair(n, a, b)
    _check_accordion(n, k)
    two_n = 2 * n
    connected = math.gcd(two_n, a, b) == 1

    if a % 2 == 0 and b % 2 == 0:
        return CiAccVerdict(a, b, "both-even", False, connected=False)

    if a % 2 == 1 and b % 2 == 1:
        iso = (
            n % 2 == 0
            and k == 2
            and math.gcd(two_n, a) == 1
            and math.gcd(two_n, b) == 1
            and a + b == n
        )
        return CiAccVerdict(a, b, "bipartite", iso, connected=connected)

    swapped = a % 2 == 0
    ao, bo = (b, a) if swapped else (a, b)
    q = math.gcd(n, k)
    steps = steps_to_gcd(n, k)
    parity_ok = n % 2 == 1 or k % 2 == 1
    gcd_ok = math.gcd(two_n, ao) == q
    plus = (bo * q - 2 * steps * ao) % two_n == 0
    minus = (bo * q + 2 * steps * ao) % two_n == 0
    iso = connected and parity_ok and gcd_ok and (plus or minus)
    sign = (1 if plus else -1) if iso else None
    return CiAccVerdict(a, b, "non-bipartite", iso, swapped=swapped, connected=connected,
                        q=q, steps=steps, sign=sign)


def find_accordion_param(n: int, a: int, b: int) -> Optional[int]:
    """First k in [1, n//2] with Ci[2n,{a,b}] ~ A[n,k], or None.

    With both normalized lengths odd, the bipartite clause of
    `circulant_iso_accordion` admits k = 2 alone, so that one k is tried
    instead of the scan (n >= 4 there: at n = 3 the lengths are 1 and 2).

    With mixed parity (a odd, b even) the clause fixes k up to sign.  It
    needs gcd(n,k) = q with q = gcd(2n,a), so k = q*k' with k' a unit mod
    m = n/q; writing a = q*a', the congruence b*q == +-2*s*a (mod 2n) with
    s = k'^-1 (mod m) is b/2 == +-s*a' (mod m).  So k' == +-c^-1 (mod m) with
    c = (b/2)*a'^-1, and k' <= m/2 leaves one candidate, which the decider
    then confirms or refutes.
    """
    a, b = _circulant_pair(n, a, b)
    if a % 2 == 0 and b % 2 == 0:
        return None  # disconnected; no accordion partner exists
    if a % 2 == 1 and b % 2 == 1:
        return 2 if circulant_iso_accordion(n, a, b, 2).isomorphic else None
    odd, even = (a, b) if a % 2 == 1 else (b, a)
    q = math.gcd(2 * n, odd)
    m = n // q  # >= 2: q divides n and q <= odd < n
    c = (even // 2) * pow(odd // q, -1, m) % m
    if math.gcd(c, m) != 1:
        return None
    unit = pow(c, -1, m)
    k = q * min(unit, m - unit)
    return k if circulant_iso_accordion(n, a, b, k).isomorphic else None
