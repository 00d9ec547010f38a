"""Acceptance suite: every criterion runs exactly as stated and prints one
pass/fail line (visible with `pytest -s`).  All checks are exact-agreement
or certificate-verification based; there are no tolerances to tune.
"""

import math
import time

from accordions import (
    accordion,
    accordion_circulant_clause,
    accordion_from_cylinder,
    accordion_is_bipartite,
    accordion_witness,
    accordions_isomorphic,
    are_isomorphic,
    circulant,
    circulant_accordion_witness,
    circulant_is_bipartite,
    circulant_is_connected,
    circulant_iso_accordion,
    cycle_swap_automorphism,
    unique_partner,
    verify_witness,
)
from accordions.census import accordion_pair_rows, circulant_accordion_rows, torus_rows


def _report(num: int, desc: str, failures: list, started: float) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} offenders)"
    print(f"[acceptance] criterion {num} ({desc}): {status} [{time.perf_counter() - started:.1f}s]")
    assert not failures, f"criterion {num}: first offenders {failures[:10]}"


def test_criterion_1_bipartite_identity():
    started = time.perf_counter()
    failures = []
    if not circulant_iso_accordion(4, 1, 3, 2).isomorphic:
        failures.append("decider false")
    if are_isomorphic(circulant(4, 1, 3), accordion(4, 2)) is None:
        failures.append("oracle found no map")
    wit = circulant_accordion_witness(4, 1, 3, 2)
    if not verify_witness(circulant(4, 1, 3), accordion(4, 2), wit):
        failures.append("witness failed verification")
    _report(1, "Ci[8,{1,3}] ~ A[4,2]", failures, started)


def test_criterion_2_nonbipartite_identity():
    started = time.perf_counter()
    failures = []
    v = circulant_iso_accordion(3, 1, 2, 1)
    if not (v.isomorphic and v.regime == "non-bipartite"):
        failures.append(f"verdict: {v}")
    if not (math.gcd(6, 1) == 1 and math.gcd(3, 1) == 1 and v.q == 1 and v.steps == 1):
        failures.append("condition values off")
    if v.sign != 1:
        failures.append(f"expected the forward-traversal branch, got sign={v.sign}")
    wit = circulant_accordion_witness(3, 1, 2, 1)
    if not verify_witness(circulant(3, 1, 2), accordion(3, 1), wit):
        failures.append("witness failed verification")
    _report(2, "A[3,1] ~ Ci[6,{1,2}] with forward-traversal witness", failures, started)


def test_criterion_3_base_family_even_n():
    started = time.perf_counter()
    failures = []
    for n in range(4, 13, 2):
        if not circulant_iso_accordion(n, 1, n - 1, 2).isomorphic:
            failures.append(("decider", n))
        if are_isomorphic(circulant(n, 1, n - 1), accordion(n, 2)) is None:
            failures.append(("oracle", n))
    _report(3, "A[n,2] ~ Ci[2n,{1,n-1}] for even n in [4,12]", failures, started)


def test_criterion_4_accordion_pairs_full_grid():
    started = time.perf_counter()
    failures = []
    seen = {}
    for row in accordion_pair_rows(14):
        if not row.agree or row.witness_verified is False:
            failures.append(row.params)
        seen[tuple(row.params.values())] = row.decider
    if not seen[(14, 4, 6)]:
        failures.append("A[14,4] ~ A[14,6] not detected")
    if seen[(10, 2, 4)]:
        failures.append("A[10,2] wrongly matched A[10,4]")
    _report(4, "accordion pairs vs oracle, n in [3,14]", failures, started)


def test_criterion_5_circulant_accordion_full_grid():
    started = time.perf_counter()
    failures = []
    count = 0
    for row in circulant_accordion_rows(10):
        count += 1
        if not row.agree or row.witness_verified is False:
            failures.append(row.params)
    if count != 470:
        failures.append(f"expected 470 rows, got {count}")
    _report(5, "circulant vs accordion oracle equivalence, n in [3,10]", failures, started)


def test_criterion_6_torus_full_grid():
    started = time.perf_counter()
    failures = []
    seen = {}
    for row in torus_rows(36):
        if not row.agree or row.witness_verified is False:
            failures.append(row.params)
        seen[tuple(row.params.values())] = row.decider
    if not seen.get((12, 3, 4, 3, 4)):
        failures.append("Ci[12,{3,4}] ~ C3xC4 not detected")
    _report(6, "circulant vs cycle-product oracle equivalence, order in [9,36]", failures, started)


def test_criterion_7_cylinder_roundtrip():
    started = time.perf_counter()
    failures = []
    for n in range(3, 13):
        for k in range(1, n // 2 + 1):
            g = math.gcd(n, k)
            result = accordion_from_cylinder(2 * n // g, g, k)
            if not verify_witness(result.graph, accordion(n, k), result.to_accordion):
                failures.append((n, k))
    special = accordion_from_cylinder(4, 5, 5)
    if special.added_index_pairs != ((1, 3), (2, 4), (3, 1), (4, 2)):
        failures.append(f"A[10,5] chords: {special.added_index_pairs}")
    _report(7, "cylinder-plus-chords rebuild matches A[n,k], n <= 12", failures, started)


def test_criterion_8_property_suites():
    started = time.perf_counter()
    failures = []

    # involutive swap automorphism on the whole small grid
    for n in range(3, 15):
        for k in range(1, n // 2 + 1):
            vm = cycle_swap_automorphism(n, k)
            g = accordion(n, k)
            if not verify_witness(g, g, vm):
                failures.append(("automorphism", n, k))
            if tuple(vm.mapping[v] for v in vm.mapping) != tuple(range(2 * n)):
                failures.append(("involution", n, k))

    # partner uniqueness, arithmetic only
    for n in range(3, 61):
        for k1 in range(1, n // 2 + 1):
            partners = [
                k2
                for k2 in range(1, n // 2 + 1)
                if k2 != k1 and accordions_isomorphic(n, k1, k2).isomorphic
            ]
            if len(partners) > 1:
                failures.append(("uniqueness", n, k1, partners))
            if unique_partner(n, k1) != (partners[0] if partners else None):
                failures.append(("partner-scan", n, k1))

    # every constructed witness verifies (constructors are unchecked closed forms)
    for n in range(3, 15):
        for k1 in range(1, n // 2 + 1):
            for k2 in range(k1, n // 2 + 1):
                if accordions_isomorphic(n, k1, k2).isomorphic:
                    wit = accordion_witness(n, k1, k2)
                    if not verify_witness(accordion(n, k2), accordion(n, k1), wit):
                        failures.append(("acc-witness", n, k1, k2))

    # predicates against structural BFS checks on built instances
    for n in range(3, 15):
        for k in range(1, n // 2 + 1):
            g = accordion(n, k)
            sizes, bipartite = g.components
            if accordion_is_bipartite(n, k) != bipartite:
                failures.append(("acc-bipartite", n, k))
            if len(sizes) != 1:
                failures.append(("acc-connected", n, k))
    for n in range(3, 11):
        for a in range(1, n):
            for b in range(a + 1, n):
                g = circulant(n, a, b)
                sizes, bipartite = g.components
                if circulant_is_bipartite(n, a, b) != bipartite:
                    failures.append(("ci-bipartite", n, a, b))
                if circulant_is_connected(n, a, b) != (len(sizes) == 1):
                    failures.append(("ci-connected", n, a, b))

    # circulance predicate against an oracle search over all length pairs
    for n in range(3, 8):
        for k in range(1, n // 2 + 1):
            g = accordion(n, k)
            structurally = any(
                are_isomorphic(g, circulant(n, a, b)) is not None
                for a in range(1, n)
                for b in range(a + 1, n)
            )
            if (accordion_circulant_clause(n, k) != "none") != structurally:
                failures.append(("acc-circulant", n, k))

    _report(8, "automorphism, uniqueness, witness and predicate suites", failures, started)
