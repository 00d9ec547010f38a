"""Decider-versus-oracle cross-validation over the family parameter grids.

Each row pits an arithmetic decider against the brute-force oracle on one
parameter tuple, as `PAIRINGS` pairs them (`accgraph decide --witness` reads
it too).  The oracle compares the source graph with a relabeling of the
target, an accordion or a torus; it finds the target's automorphisms
itself when its search needs them, once per relabeled target.  The target
that `kind` builds from `args` is relabeled by
random.Random(f"{seed}:{kind}:{args}") alone, once per order, so rows are
independent and deterministic given the seed, and any row reruns alone.

A row whose decider says yes checks its closed-form witness first
(`_checked_witness`); a witness that verifies is the row's "yes", and the
oracle runs only where no verified map has settled the verdict.  A wrong
"yes" fails its witness and still meets the oracle.

Within one order's rows, circulant sources that are multiplier images of one
another share their verdicts; `_multiplier_class` states the link and its check.
"""

from __future__ import annotations

import functools
import math
import random
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from . import oracle
from .deciders import accordions_isomorphic, circulant_iso_accordion, circulant_iso_torus
from .errors import InvalidParameterError
from .graphs import Graph, accordion, cartesian_product, circulant_graph, cycle_graph
from .witnesses import VertexMap, accordion_witness, circulant_accordion_witness, torus_witness, verify_witness

__all__ = [
    "CensusRow",
    "CensusReport",
    "PAIRINGS",
    "accordion_pair_rows",
    "circulant_accordion_rows",
    "torus_rows",
    "run_census",
]


def _torus(n1: int, n2: int) -> Graph:
    return cartesian_product(cycle_graph(n1), cycle_graph(n2))


# kind -> functions of its parameters: the decider, the source and target graphs
# as (constructor, arguments), and the witness map from source onto target.  A
# circulant source is (circulant_graph, (order, lengths)), which
# `_multiplier_class` reads.  Names are looked up at call time, so patched or
# traced attributes are used.
Pairing = namedtuple("Pairing", "decide source target witness")
PAIRINGS = {
    "acc-acc": Pairing(
        lambda n, k1, k2: accordions_isomorphic(n, k1, k2).isomorphic,
        lambda n, k1, k2: (accordion, (n, k2)),
        lambda n, k1, k2: (accordion, (n, k1)),
        lambda n, k1, k2: accordion_witness(n, k1, k2)),
    "ci-acc": Pairing(
        lambda n, a, b, k: circulant_iso_accordion(n, a, b, k).isomorphic,
        lambda n, a, b, k: (circulant_graph, (2 * n, (a, b))),
        lambda n, a, b, k: (accordion, (n, k)),
        lambda n, a, b, k: circulant_accordion_witness(n, a, b, k)),
    "ci-torus": Pairing(
        lambda nprime, a1, a2, n1, n2: circulant_iso_torus(nprime, a1, a2, n1, n2),
        lambda nprime, a1, a2, n1, n2: (circulant_graph, (nprime, (a1, a2))),
        lambda nprime, a1, a2, n1, n2: (_torus, (n1, n2)),
        lambda nprime, a1, a2, n1, n2: torus_witness(nprime, a1, a2, n1, n2)),
}


@dataclass
class CensusRow:
    """One decider-vs-oracle comparison."""

    kind: str  # acc-acc | ci-acc | ci-torus
    params: dict[str, int]
    decider: bool
    oracle: bool  # the oracle's verdict, or True where the row's witness verified
    agree: bool
    witness_verified: Optional[bool]  # present iff the decider said isomorphic
    elapsed: float


def _relabeled(kind: str, g: Graph, args: tuple, seed: int) -> Graph:
    """g, the target of `kind` built from `args`, under the permutation drawn for it."""
    perm = list(range(g.order))
    random.Random(f"{seed}:{kind}:{args}").shuffle(perm)
    return g.relabel(perm)


def _checked_witness(pairing: Pairing, params: dict, g: Graph, h: Graph) -> Optional[VertexMap]:
    """The pairing's witness map at `params` if it carries g onto h, else None: the
    one check before the census records a witness or `decide --witness` prints
    one.  A ValueError (InvalidParameterError is one) is a failed witness, as a
    decider that says yes wrongly may make the constructor raise."""
    try:
        vm = pairing.witness(**params)
    except ValueError:
        return None
    return vm if verify_witness(g, h, vm) else None


def _multiplier_class(source: tuple, built: Callable, heads: dict, measured: dict) -> tuple:
    """The head of `source`'s multiplier class among the sources met so far.

    For a unit u mod m, x -> ux mod m carries Ci[m,T] onto Ci[m,uT] (Ádám's
    multiplier isomorphisms), so the sources of one class share a verdict
    against each target.  A source (circulant_graph, (m, S)) is Ci[m,S]; a
    source built by anything else heads its own class.  `built` makes a
    source's graph from its spec; `heads` maps the sorted normalized lengths
    uT of each head Ci[m,T], for every unit u mod m, to the head and u;
    `measured` maps each head that a link has reached to its edge count and
    its set D of normalized edge lengths min((j - i) mod m, m - (j - i) mod m),
    read once from its built edges.  If S is one of the keys of `heads`, that
    head is the class's once the link x -> ux mod m is checked on D, with
    `source` left unbuilt: u is a unit mod m, so the map is a bijection; the
    head has m·|S| edges, as many as Ci[m,S]; and the normalized images of D
    under u lie in S, so every image of an edge is an edge of Ci[m,S], whose
    edges {x, y} are those with y - x = ±s mod m for s in S (u(j - i) is ±s
    exactly when u times its normalized length is), and the images are
    distinct, as the head's edges are.  These are the facts that
    `verify_witness` would check against a built Ci[m,S].  Else `source`
    heads a new class."""
    build, args = source
    if build is not circulant_graph:
        return source
    m, lengths = args
    scaled = _scaled(lengths, 1, m)
    found = heads.get(scaled)
    if found is not None:
        head, u = found
        if head not in measured:
            edges = built(head).edges
            measured[head] = len(edges), {j - i if 2 * (j - i) <= m else m - j + i for i, j in edges}
        size, differences = measured[head]
        if math.gcd(u, m) == 1 and size == m * len(scaled) and set(_scaled(differences, u, m)) <= set(scaled):
            return head
    # -u gives the same normalized lengths as u
    for u in range(1, m // 2 + 1):
        if math.gcd(u, m) == 1:
            heads.setdefault(_scaled(lengths, u, m), (source, u))
    return source


def _scaled(lengths: Iterable[int], u: int, m: int) -> tuple:
    """The sorted normalized lengths of Ci[m, u * lengths]."""
    scaled = []
    for a in lengths:
        r = u * a % m
        scaled.append(r if 2 * r <= m else m - r)
    scaled.sort()
    return tuple(scaled)


def _rows(kind: str, group: list[dict], seed: int) -> Iterator[CensusRow]:
    """`kind`'s rows at the parameter dicts of `group`, one order's, which share
    their graphs and relabeled targets; a row reruns alone as the group [params].

    A row whose decider says yes checks its witness first, and a verified map
    settles the verdict of its source's class against its target.  Circulant
    sources of the group that are multiplier images of one another
    (`_multiplier_class`) are isomorphic by a checked map, so they share one
    verdict against each target: the oracle's is taken on the first row of
    their class with that target that no witness settled, and the later rows
    carry it.  Three functools caches, made anew by each call, hold the
    group's graphs (`build`, by spec), its relabeled targets (`relabeled`) and
    each source's class head (`head`).  A graph is built when the oracle or a
    witness check first reads it, and a target is relabeled when the oracle
    first reads it, each once, so a carried source whose rows need neither is
    never built.  A row alone heads its own class, with graphs of its own, so
    rerunning it calls the oracle on them, unless its witness verifies, and
    cross-checks the verdict that the sweep carried to it.  A row's `elapsed`
    covers the whole row, its class lookup included."""
    pairing = PAIRINGS[kind]
    build = functools.cache(lambda spec: spec[0](*spec[1]))
    relabeled = functools.cache(lambda spec: _relabeled(kind, build(spec), spec[1], seed))
    heads, measured, verdicts = {}, {}, {}
    head = functools.cache(lambda source: _multiplier_class(source, build, heads, measured))
    for params in group:
        start = time.perf_counter()
        source, target = pairing.source(**params), pairing.target(**params)
        decided = pairing.decide(**params)
        key = head(source), target
        verified = _checked_witness(pairing, params, build(source), build(target)) is not None if decided else None
        if verified:
            # an oracle "no" already taken for this key stays, so the row disagrees
            verdicts.setdefault(key, True)
        if key not in verdicts:
            verdicts[key] = oracle.are_isomorphic(build(source), relabeled(target)) is not None
        found = verdicts[key]
        yield CensusRow(kind, params, decided, found, decided == found, verified,
                        time.perf_counter() - start)


def accordion_pair_rows(max_n: int, seed: int = 0) -> Iterator[CensusRow]:
    """All accordion pairs A[n,k1] vs A[n,k2], k1 <= k2, for 3 <= n <= max_n."""
    for n in range(3, max_n + 1):
        yield from _rows("acc-acc", [{"n": n, "k1": k1, "k2": k2}
                                     for k1 in range(1, n // 2 + 1) for k2 in range(k1, n // 2 + 1)], seed)


def circulant_accordion_rows(max_n: int, seed: int = 0) -> Iterator[CensusRow]:
    """All Ci[2n,{a,b}] vs A[n,k] comparisons for 3 <= n <= max_n.

    Both-even (a,b) rows are kept: the decider answers them no (the circulant
    is disconnected) and the oracle must concur.
    """
    for n in range(3, max_n + 1):
        yield from _rows("ci-acc", [{"n": n, "a": a, "b": b, "k": k} for a in range(1, n)
                                    for b in range(a + 1, n) for k in range(1, n // 2 + 1)], seed)


def torus_rows(max_order: int, seed: int = 0) -> Iterator[CensusRow]:
    """Ci[m,{a1,a2}] vs C_{n1} [] C_{n2} for every m <= max_order with a divisor
    pair n1, n2 >= 3 and every normalized length pair a1 < a2."""
    for m in range(9, max_order + 1):
        top = (m - 1) // 2
        yield from _rows("ci-torus", [{"nprime": m, "a1": a1, "a2": a2, "n1": n1, "n2": m // n1}
                                      for n1 in range(3, math.isqrt(m) + 1) if m % n1 == 0 and m // n1 >= 3
                                      for a1 in range(1, top + 1) for a2 in range(a1 + 1, top + 1)], seed)


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
        "by_kind": {kind: sum(1 for r in rows if r.kind == kind) for kind in PAIRINGS},
        "isomorphic_rows": sum(1 for r in rows if r.decider),
        "disagreements": disagreements,
        "witness_failures": witness_failures,
        "all_agree": not disagreements,
        "elapsed": round(time.perf_counter() - start, 3),
    }
    return CensusReport(rows, summary)
