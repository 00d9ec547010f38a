"""Decider-versus-oracle cross-validation over the family parameter grids.

Each row pits an arithmetic decider against the brute-force oracle on one
parameter tuple; the oracle side is fed a seeded random relabeling of the
second graph so agreement also exercises relabeling invariance.  The second
graph is always an accordion or a torus, and the oracle also gets closed-form
generators of a group transitive on its vertices, relabeled the same way, to
prune its search; it checks them itself.  Rows are independent and
deterministic given the seed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from . import oracle
from .deciders import accordions_isomorphic, circulant_iso_accordion, circulant_iso_torus
from .errors import InvalidParameterError
from .graphs import accordion, cartesian_product, circulant, circulant_graph, cycle_graph
from .witnesses import (
    VertexMap,
    accordion_rotation,
    accordion_witness,
    circulant_accordion_witness,
    cycle_swap_automorphism,
    torus_rotations,
    torus_witness,
    verify_witness,
)

__all__ = [
    "CensusRow",
    "CensusReport",
    "accordion_pair_rows",
    "circulant_accordion_rows",
    "torus_rows",
    "run_census",
]


@dataclass
class CensusRow:
    """One decider-vs-oracle comparison."""

    kind: str  # acc-acc | ci-acc | ci-torus
    params: dict[str, int]
    decider: bool
    oracle: bool
    agree: bool
    witness_verified: Optional[bool]  # present iff the decider said isomorphic
    elapsed: float


def _accordions(n):
    """A[n,k] for 1 <= k <= n/2, each with its rotation and cycle swap."""
    return [(accordion(n, k), (accordion_rotation(n, k), cycle_swap_automorphism(n, k)))
            for k in range(1, n // 2 + 1)]


def _shuffled(g, autos, rng):
    """g relabeled by a random permutation perm, and the automorphisms `autos`
    of g carried along: a' with a'[perm[i]] = perm[a[i]] is one of the result."""
    perm = list(range(g.order))
    rng.shuffle(perm)
    conjugated = []
    for a in autos:
        m = [0] * g.order
        for i, ai in enumerate(a.mapping):
            m[perm[i]] = perm[ai]
        conjugated.append(VertexMap(tuple(m)))
    return g.relabel(perm), conjugated


def _row(kind, params, g, target, decide, witness) -> CensusRow:
    """`decide()` against the oracle on g and `target`, a relabeled graph with
    automorphisms of it; when the decider says yes, `witness()` gives the
    (source, target, map) to verify."""
    start = time.perf_counter()
    decided = decide()
    h, autos = target
    found = oracle.are_isomorphic(g, h, automorphisms=autos) is not None
    verified = verify_witness(*witness()) if decided else None
    return CensusRow(kind, params, decided, found, decided == found, verified,
                     time.perf_counter() - start)


def accordion_pair_rows(max_n: int, seed: int = 0) -> Iterator[CensusRow]:
    """All accordion pairs A[n,k1] vs A[n,k2], k1 <= k2, for 3 <= n <= max_n."""
    rng = random.Random(seed)
    for n in range(3, max_n + 1):
        accs = _accordions(n)
        for k1 in range(1, n // 2 + 1):
            for k2 in range(k1, n // 2 + 1):
                (g1, _), (g2, autos) = accs[k1 - 1], accs[k2 - 1]
                yield _row("acc-acc", {"n": n, "k1": k1, "k2": k2}, g1, _shuffled(g2, autos, rng),
                           lambda: accordions_isomorphic(n, k1, k2).isomorphic,
                           lambda: (g2, g1, accordion_witness(n, k1, k2)))


def circulant_accordion_rows(max_n: int, seed: int = 0) -> Iterator[CensusRow]:
    """All Ci[2n,{a,b}] vs A[n,k] comparisons for 3 <= n <= max_n.

    Both-even (a,b) rows are kept: the decider answers them no (the circulant
    is disconnected) and the oracle must concur.
    """
    rng = random.Random(seed + 1)
    for n in range(3, max_n + 1):
        accs = _accordions(n)
        for a in range(1, n):
            for b in range(a + 1, n):
                ci = circulant(n, a, b)
                for k in range(1, n // 2 + 1):
                    acc, autos = accs[k - 1]
                    yield _row("ci-acc", {"n": n, "a": a, "b": b, "k": k}, ci, _shuffled(acc, autos, rng),
                               lambda: circulant_iso_accordion(n, a, b, k).isomorphic,
                               lambda: (ci, acc, circulant_accordion_witness(n, a, b, k)))


def torus_rows(max_order: int, seed: int = 0) -> Iterator[CensusRow]:
    """Ci[m,{a1,a2}] vs C_{n1} [] C_{n2} for every m <= max_order with a divisor
    pair n1, n2 >= 3 and every normalized length pair a1 < a2.  All rows of one
    (n1, n2) share one relabeled torus, and all rows of one order its circulants."""
    rng = random.Random(seed + 2)
    for m in range(9, max_order + 1):
        factors = [(n1, m // n1) for n1 in range(3, math.isqrt(m) + 1) if m % n1 == 0 and m // n1 >= 3]
        if not factors:
            continue
        top = (m - 1) // 2
        lengths = [(a1, a2) for a1 in range(1, top + 1) for a2 in range(a1 + 1, top + 1)]
        cis = {}  # each built by the row that first needs it, so no row pays for many
        for n1, n2 in factors:
            torus = cartesian_product(cycle_graph(n1), cycle_graph(n2))
            shuffled = _shuffled(torus, torus_rotations(n1, n2), rng)
            for a1, a2 in lengths:
                if (a1, a2) not in cis:
                    cis[a1, a2] = circulant_graph(m, (a1, a2))
                ci = cis[a1, a2]
                yield _row("ci-torus", {"nprime": m, "a1": a1, "a2": a2, "n1": n1, "n2": n2}, ci, shuffled,
                           lambda: circulant_iso_torus(m, a1, a2, n1, n2),
                           lambda: (ci, torus, torus_witness(m, a1, a2, n1, n2)))


@dataclass
class CensusReport:
    rows: list[CensusRow]
    summary: dict

    @property
    def ok(self) -> bool:
        return bool(self.summary["all_agree"] and not self.summary["witness_failures"])


def run_census(max_n: int = 14, max_torus: int = 36, seed: int = 0) -> CensusReport:
    """Run the full cross-validation sweep and aggregate a summary.

    Accordion pairs A[n,k1] vs A[n,k2] go up to n = max_n, circulant-accordion
    comparisons Ci[2n,{a,b}] vs A[n,k] up to n = min(max_n, 10), and torus
    comparisons up to order max_torus.  A longer ci-acc grid is
    circulant_accordion_rows(n) called directly.
    """
    if max_n < 3:
        raise InvalidParameterError(f"census needs max_n >= 3, got {max_n}")
    if max_torus < 0:
        raise InvalidParameterError(f"max_torus must be >= 0, got {max_torus}")

    start = time.perf_counter()
    rows: list[CensusRow] = []
    rows.extend(accordion_pair_rows(max_n, seed))
    rows.extend(circulant_accordion_rows(min(max_n, 10), seed))
    rows.extend(torus_rows(max_torus, seed))

    disagreements = [r.params | {"kind": r.kind} for r in rows if not r.agree]
    witness_failures = [
        r.params | {"kind": r.kind} for r in rows if r.witness_verified is False
    ]
    summary = {
        "rows": len(rows),
        "by_kind": {
            kind: sum(1 for r in rows if r.kind == kind)
            for kind in ("acc-acc", "ci-acc", "ci-torus")
        },
        "isomorphic_rows": sum(1 for r in rows if r.decider),
        "disagreements": disagreements,
        "witness_failures": witness_failures,
        "all_agree": not disagreements,
        "elapsed": round(time.perf_counter() - start, 3),
    }
    return CensusReport(rows, summary)
