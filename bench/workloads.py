"""The benchmark's workloads: census, certify and ground-truth.

A workload is built from a seed and hands out rounds of operations.  Every
round has the same make-up in every run and for every seed; the seed moves
parameters inside narrow bands and picks the relabelings, so a run's
figures do not hinge on which seed it drew.  The worker times `Op.run`
alone: `Op.prepare` builds the inputs and `Op.check` verifies the output,
both outside the timing.  The package is reached through its modules
(`oracle.are_isomorphic`, `cli.main`, ...) so that a traced run sees every
call at the names `layers.install` wraps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from accordions import census, cli, deciders, graphs, modarith, oracle, serialize, witnesses
from accordions.errors import NotApplicableError

# Rounds generated at set-up: enough for a 60 s run.
MAX_ROUNDS = 16


def _no_input() -> None:
    return None


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Optional[str]]
    prepare: Callable[[], Any] = _no_input


class Workload:
    name = ""
    max_rounds = MAX_ROUNDS
    # A full collection before each op, untimed, so that each op starts from
    # a collected heap as a one-shot CLI call does, and when the collector
    # runs inside an op does not hang on what earlier ops left behind.
    collect_between_ops = True

    def round(self, r: int) -> Iterator[Op]:
        raise NotImplementedError

    def end_round(self, r: int) -> Optional[str]:
        """A wrong result that only shows once a round is whole, or None."""
        return None

    def finish(self) -> list[str]:
        """Wrong results that only show across rounds."""
        return []


def _shuffled(g, rng: random.Random):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return g.relabel(perm)


# --- census -----------------------------------------------------------------

# The `accgraph census` defaults: accordion pairs to n = 14, circulant-accordion
# to n = 10, circulant-torus to order 36.  A pass pulls this many rows from each
# generator, and the digest of their seed-independent columns pins every
# verdict: other rows or other verdicts fail the run.
CENSUS_GRID = (
    ("acc-acc", "accordion_pair_rows", 14, 139),
    ("ci-acc", "circulant_accordion_rows", 10, 470),
    ("ci-torus", "torus_rows", 36, 1450),
)
CENSUS_DIGEST = "eae555943e83ef5ac2e643e5b1c3d6f482550b5923d7e30c79d89a3d4d19d322"


def verdict_line(row) -> bytes:
    cols = [row.kind, row.params, row.decider, row.oracle, row.agree, row.witness_verified]
    return (json.dumps(cols, sort_keys=True, separators=(",", ":")) + "\n").encode()


class Census(Workload):
    """One round is one pass of the three row generators; one op is one row."""

    name = "census"
    # Four passes are 8236 rows, so the tail stays at p99; a fifth would
    # reach 10295 and move it to p99.9.
    max_rounds = 4
    # A collection costs more than most rows take.
    collect_between_ops = False

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"census/{seed}")
        self.row_seeds = [rng.randrange(2 ** 31) for _ in range(self.max_rounds)]
        self.digest = hashlib.sha256()

    def round(self, r: int) -> Iterator[Op]:
        self.digest = hashlib.sha256()
        for kind, generator, limit, count in CENSUS_GRID:
            rows = getattr(census, generator)(limit, self.row_seeds[r])
            for _ in range(count):
                yield Op(kind, lambda _, rows=rows: next(rows), self._check_row)

    def _check_row(self, _, row) -> Optional[str]:
        self.digest.update(verdict_line(row))
        if not row.agree:
            return f"census {row.kind} {row.params}: decider and oracle disagree"
        if row.witness_verified is False:
            return f"census {row.kind} {row.params}: witness failed verification"
        return None

    def end_round(self, r: int) -> Optional[str]:
        if self.digest.hexdigest() != CENSUS_DIGEST:
            return f"census pass {r}: verdict digest {self.digest.hexdigest()[:12]} differs"
        return None


# --- certify ----------------------------------------------------------------


def _distinct_bands(rng: random.Random, bands, accept, rounds: int) -> list[list[int]]:
    """Per band, its accepted values in seeded order; no value repeats in a run."""
    out = []
    for lo, hi in bands:
        values = [v for v in range(lo, hi) if accept(v)]
        if len(values) < rounds:
            raise ValueError(f"band [{lo},{hi}) has {len(values)} values, needs {rounds}")
        rng.shuffle(values)
        out.append(values)
    return out


def _acc_acc_yes(rng: random.Random, n: int) -> tuple[int, int]:
    """(k1, k2), k1 != k2, with A[n,k1] ~ A[n,k2]: gcd(n,k) = 2 and k1*k2/2 = +-2 mod n."""
    while True:
        k1 = rng.randrange(2, n // 2 + 1, 2)
        j = k1 // 2
        g = math.gcd(j, n)
        for c in rng.sample((-2, 2), 2):
            if c % g:
                continue
            base = (c // g) * pow(j // g, -1, n // g) % (n // g)
            for k2 in range(base, n, n // g):
                if 1 <= k2 <= n // 2 and k2 != k1 and deciders.accordions_isomorphic(n, k1, k2).isomorphic:
                    return k1, k2


def _ci_acc_mixed_yes(rng: random.Random, n: int) -> tuple[int, int, int]:
    """(a, b, k) with Ci[2n,{a,b}] ~ A[n,k] in the mixed-parity regime."""
    while True:
        k = rng.randrange(1, n // 2 + 1)
        q = math.gcd(n, k)
        a = q * rng.randrange(1, 2 * n // q)
        if a % 2 == 0 or math.gcd(2 * n, a) != q:
            continue
        s = modarith.steps_to_gcd(n, k)
        b = (2 * s * a // q + rng.randrange(q) * (2 * n // q)) % (2 * n)
        try:
            if deciders.circulant_iso_accordion(n, a, b, k).isomorphic:
                return a, b, k
        except ValueError:
            continue


def _ci_acc_bipartite_yes(rng: random.Random, n: int) -> tuple[int, int]:
    """(a, b) with Ci[2n,{a,b}] ~ A[n,2]: both odd, coprime to 2n, a + b = n (n even)."""
    while True:
        a = rng.randrange(1, n, 2)
        if math.gcd(2 * n, a) == 1 and deciders.circulant_iso_accordion(n, a, n - a, 2).isomorphic:
            return a, n - a


def _coprime_factors(m: int) -> list[tuple[int, int]]:
    return [(d, m // d) for d in range(3, math.isqrt(m) + 1)
            if m % d == 0 and m // d >= 3 and math.gcd(d, m // d) == 1]


def _ci_torus_yes(rng: random.Random, m: int) -> tuple[int, int, int, int]:
    """(a1, a2, n1, n2) with Ci[m,{a1,a2}] ~ C_n1 [] C_n2: gcd(m,a1) = n2, gcd(m,a2) = n1."""
    n1, n2 = rng.choice(_coprime_factors(m))
    u = rng.choice([u for u in range(1, n1) if math.gcd(u, n1) == 1])
    v = rng.choice([v for v in range(1, n2) if math.gcd(v, n2) == 1])
    return graphs.normalize_length(n2 * u, m), graphs.normalize_length(n1 * v, m), n1, n2


def _no_request(rng: random.Random, kind: str, n: int) -> list[str]:
    """A decide request the deciders answer "no" (exit 1), at order about 2n."""
    while True:
        if kind == "acc-acc":
            k1, k2 = rng.sample(range(1, n // 2 + 1), 2)
            if not deciders.accordions_isomorphic(n, k1, k2).isomorphic:
                return ["--n", n, "--k1", k1, "--k2", k2]
        elif kind == "ci-acc" and rng.random() < 0.5:
            a, b = rng.sample(range(1, n), 2)
            k = rng.randrange(1, n // 2 + 1)
            if (a % 2 or b % 2) and not deciders.circulant_iso_accordion(n, a, b, k).isomorphic:
                return ["--n", n, "--a", a, "--b", b, "--k", k]
        elif kind == "ci-acc":
            # both lengths odd and a + b != n: no k matches, so the CLI scans them all
            a, b = rng.sample(range(1, n, 2), 2)
            if a + b != n:
                return ["--n", n, "--a", a, "--b", b]
        else:
            m = 2 * n + rng.randrange(2)
            a1, a2 = rng.sample(range(1, (m - 1) // 2 + 1), 2)
            if deciders.torus_parameters(m, a1, a2) is None:
                return ["--nprime", m, "--a1", a1, "--a2", a2]


# Bands of the oracle-backed requests, one request per band and round.  The
# p90 tail lands in the lowest bipartite band: ops that long time steadily.
# The defect bands: the bipartite ci-acc witness at n >= 500 and the ci-torus
# witness at order >= 1000 raise RecursionError inside the oracle search.
BIPARTITE_BANDS = ((220, 232), (232, 244), (244, 256), (256, 268))
TORUS_BANDS = ((360, 400), (400, 440), (440, 480))
BIPARTITE_DEFECT_BAND = ((500, 512),)
TORUS_DEFECT_BAND = ((1000, 1008),)
CLOSED_FORM_BAND = (960, 1040)


class Certify(Workload):
    """`accgraph decide ... [--witness]` requests sent in-process through cli.main.

    Each round: 9 acc-acc and 9 mixed-parity ci-acc witness requests at
    n ~ 1000 (closed-form witnesses, orders about 2000), 4 bipartite ci-acc
    and 3 ci-torus witness requests (oracle-backed), 9 requests the deciders
    answer "no", and one request from each defect band.  With 34 correct ops
    a round, 3 rounds reach the 100 samples p90 needs, and p90 lands among
    the bipartite requests.  No two oracle-backed requests in a run
    share their order, so the witness layer's per-n cache stays cold and each
    request pays what a one-shot `accgraph` call pays.
    """

    name = "certify"
    # A 36 s run takes 5 or 6 rounds; the defect bands are kept narrow, so
    # that the peak memory, which the largest of them sets, holds steady.
    max_rounds = 6

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"certify/{seed}")
        bip = _distinct_bands(rng, BIPARTITE_BANDS, lambda v: v % 2 == 0, self.max_rounds)
        tor = _distinct_bands(rng, TORUS_BANDS, lambda v: bool(_coprime_factors(v)), self.max_rounds)
        bip_bad = _distinct_bands(rng, BIPARTITE_DEFECT_BAND, lambda v: v % 2 == 0, self.max_rounds)[0]
        tor_bad = _distinct_bands(rng, TORUS_DEFECT_BAND, lambda v: bool(_coprime_factors(v)), self.max_rounds)[0]
        self.rounds = []
        for r in range(self.max_rounds):
            reqs = []
            for _ in range(9):
                n = rng.randrange(*CLOSED_FORM_BAND, 2)
                k1, k2 = _acc_acc_yes(rng, n)
                reqs.append(("acc-acc", ["--n", n, "--k1", k1, "--k2", k2, "--witness"]))
            for _ in range(9):
                n = rng.randrange(*CLOSED_FORM_BAND)
                a, b, k = _ci_acc_mixed_yes(rng, n)
                reqs.append(("ci-acc", ["--n", n, "--a", a, "--b", b, "--k", k, "--witness"]))
            for n in [pool[r] for pool in bip] + [bip_bad[r]]:
                a, b = _ci_acc_bipartite_yes(rng, n)
                reqs.append(("ci-acc", ["--n", n, "--a", a, "--b", b, "--witness"]))
            for m in [pool[r] for pool in tor] + [tor_bad[r]]:
                a1, a2, n1, n2 = _ci_torus_yes(rng, m)
                given = ["--n1", n1, "--n2", n2] if rng.random() < 0.5 else []
                reqs.append(("ci-torus", ["--nprime", m, "--a1", a1, "--a2", a2, *given, "--witness"]))
            for kind in ("acc-acc", "ci-acc", "ci-torus") * 3:
                reqs.append((kind, _no_request(rng, kind, rng.randrange(*CLOSED_FORM_BAND))))
            self.rounds.append([(kind, ["decide", kind, *map(str, args)]) for kind, args in reqs])

    def round(self, r: int) -> Iterator[Op]:
        for kind, argv in self.rounds[r]:
            yield Op(kind, _call_cli, check_decide, lambda argv=argv: argv)


class Refused(Exception):
    """The CLI declined the request with exit 2: a failed op, not a wrong answer."""


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 2:
        raise Refused(err.getvalue().strip())
    return code, out.getvalue()


def _opt(argv: list[str], flag: str) -> Optional[int]:
    return int(argv[argv.index(flag) + 1]) if flag in argv else None


def check_decide(argv: list[str], result: tuple[int, str]) -> Optional[str]:
    """Exit code against the decider; a printed witness must round-trip and verify."""
    code, out = result
    kind = argv[1]
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    if kind == "acc-acc":
        n, k1, k2 = (_opt(argv, f) for f in ("--n", "--k1", "--k2"))
        yes = deciders.accordions_isomorphic(n, k1, k2).isomorphic
        if yes:
            source, target = graphs.accordion(n, k2), graphs.accordion(n, k1)
    elif kind == "ci-acc":
        n, a, b, k = (_opt(argv, f) for f in ("--n", "--a", "--b", "--k"))
        if k is None:
            k = deciders.find_accordion_param(n, a, b)
        try:
            yes = k is not None and deciders.circulant_iso_accordion(n, a, b, k).isomorphic
        except NotApplicableError:
            yes = False
        if yes:
            source, target = graphs.circulant_graph(2 * n, (a, b)), graphs.accordion(n, k)
    else:
        m, a1, a2, n1, n2 = (_opt(argv, f) for f in ("--nprime", "--a1", "--a2", "--n1", "--n2"))
        if n1 is None:
            n1, n2 = deciders.torus_parameters(m, a1, a2) or (None, None)
        yes = n1 is not None and deciders.circulant_iso_torus(m, a1, a2, n1, n2)
        if yes:
            source = graphs.circulant_graph(m, (a1, a2))
            target = graphs.cartesian_product(graphs.cycle_graph(n1), graphs.cycle_graph(n2))
    if code != (0 if yes else 1):
        return f"certify {' '.join(argv)}: exit {code}, decider says {'yes' if yes else 'no'}"
    if fields.get("isomorphic") != ("yes" if yes else "no"):
        return f"certify {' '.join(argv)}: printed verdict {fields.get('isomorphic')!r}"
    if yes and "--witness" in argv:
        if "witness" not in fields:
            return f"certify {' '.join(argv)}: no witness printed"
        got_source, got_target, vm = serialize.witness_from_json(fields["witness"])
        if (got_source, got_target) != (source, target):
            return f"certify {' '.join(argv)}: witness names the wrong graphs"
        if not witnesses.verify_witness(got_source, got_target, vm):
            return f"certify {' '.join(argv)}: witness fails verify_witness"
    return None


# --- ground truth -------------------------------------------------------------

# are_isomorphic on A[n,3] against a relabeling of itself: the search runs to
# full depth.  The defect band: order >= 1000 raises RecursionError.
ISO_BANDS = ((100, 104), (200, 204), (300, 304))
ISO_DEFECT_BAND = (500, 504)
# A[n,3] against a relabeled A[n,7]: not isomorphic, yet every screen passes,
# so every root image is individualized and refined.
NON_ISO_BANDS = ((29, 31), (37, 39))
CANONICAL_BUDGET = 50_000

# Family graphs of order <= 30 for canonical_key: ("A", n, k) is A[n,k],
# ("C", m, a, b) is Ci[m,{a,b}], ("T", n1, n2) is C_n1 [] C_n2.  Pairs the
# deciders relate (same-n accordions, Ci[2n,{a,b}] with A[n,k], Ci[n1*n2,..]
# with C_n1 [] C_n2) must get equal keys exactly when the decider says yes.
# The known defect Ci[16,{2,6}] exhausts the node budget.
CANONICAL_GRAPHS = (
    ("A", 5, 1), ("A", 5, 2), ("C", 10, 1, 2), ("C", 10, 1, 4),
    ("A", 6, 1), ("A", 6, 3), ("C", 12, 1, 2), ("C", 12, 2, 3), ("T", 3, 4), ("C", 12, 3, 4),
    ("A", 7, 1), ("A", 7, 3), ("C", 14, 1, 4), ("C", 14, 1, 2),
    ("A", 8, 1), ("A", 8, 3), ("C", 16, 2, 3), ("C", 16, 1, 2), ("C", 16, 1, 3),
    ("A", 9, 1), ("A", 9, 3), ("A", 9, 4), ("C", 18, 2, 5), ("C", 18, 1, 2),
    ("A", 10, 1), ("A", 10, 3), ("C", 20, 2, 3), ("C", 20, 1, 2), ("T", 4, 5), ("C", 20, 4, 5),
    ("T", 3, 5), ("C", 15, 3, 5), ("T", 3, 7), ("C", 21, 3, 7),
    ("A", 14, 3), ("A", 14, 4), ("A", 14, 6),
)
CANONICAL_DEFECT = ("C", 16, 2, 6)


def family_graph(spec):
    family, *p = spec
    if family == "A":
        return graphs.accordion(*p)
    if family == "C":
        return graphs.circulant_graph(p[0], p[1:])
    return graphs.cartesian_product(graphs.cycle_graph(p[0]), graphs.cycle_graph(p[1]))


def decided_iso(s, t) -> Optional[bool]:
    """The deciders' verdict on two family graphs, or None where no decider applies."""
    s, t = sorted((s, t))
    if s[0] == t[0] == "A" and s[1] == t[1]:
        return deciders.accordions_isomorphic(s[1], s[2], t[2]).isomorphic
    if (s[0], t[0]) == ("A", "C") and 2 * s[1] == t[1]:
        try:
            return deciders.circulant_iso_accordion(s[1], t[2], t[3], s[2]).isomorphic
        except NotApplicableError:
            return False
    if (s[0], t[0]) == ("C", "T") and s[1] == t[1] * t[2]:
        return deciders.circulant_iso_torus(s[1], s[2], s[3], t[1], t[2])
    return None


def _valid_map(g, h, vm) -> bool:
    m = vm.mapping
    if sorted(m) != list(range(g.order)):
        return False
    return {(min(m[i], m[j]), max(m[i], m[j])) for i, j in g.edges} == set(h.edges)


class GroundTruth(Workload):
    """The oracle alone, on inputs whose answer is known.

    Each round: 3 isomorphic pairs (one per ISO_BANDS band), 2 non-isomorphic
    pairs, one canonical key per CANONICAL_GRAPHS entry, each graph relabeled
    afresh, and the two known defects: an isomorphic pair of order >= 1000
    and the key of Ci[16,{2,6}].  No census, witnesses or CLI.
    """

    name = "ground-truth"

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"ground-truth/{seed}")
        self.rounds = []
        for _ in range(MAX_ROUNDS):
            ops = [("iso", rng.randrange(*band)) for band in ISO_BANDS + (ISO_DEFECT_BAND,)]
            ops += [("non-iso", rng.randrange(*band)) for band in NON_ISO_BANDS]
            ops += [("canonical", spec) for spec in CANONICAL_GRAPHS + (CANONICAL_DEFECT,)]
            ops = [(kind, param, rng.randrange(2 ** 31)) for kind, param in ops]
            self.rounds.append(ops)
        self.keys: dict[tuple, set[bytes]] = {}

    def round(self, r: int) -> Iterator[Op]:
        for kind, param, perm_seed in self.rounds[r]:
            rng = random.Random(perm_seed)
            if kind == "iso":
                yield Op(kind, _pair_search, _check_iso,
                         lambda n=param, rng=rng: _pair(graphs.accordion(n, 3), graphs.accordion(n, 3), rng))
            elif kind == "non-iso":
                yield Op(kind, _pair_search, _check_non_iso,
                         lambda n=param, rng=rng: _pair(graphs.accordion(n, 3), graphs.accordion(n, 7), rng))
            else:
                yield Op(kind, _canonical, self._check_key,
                         lambda spec=param, rng=rng: (spec, _shuffled(family_graph(spec), rng)))

    def _check_key(self, inp, key: bytes) -> Optional[str]:
        spec, g = inp
        h = serialize.graph_from_json(key.decode())
        if (h.order, sorted(h.degrees)) != (g.order, sorted(g.degrees)):
            return f"canonical_key {spec}: key is not a relabeling of the graph"
        self.keys.setdefault(spec, set()).add(key)
        return None

    def finish(self) -> list[str]:
        wrong = [f"canonical_key {spec}: {len(keys)} keys for one graph"
                 for spec, keys in self.keys.items() if len(keys) > 1]
        specs = sorted(self.keys)
        for i, s in enumerate(specs):
            for t in specs[i + 1:]:
                verdict = decided_iso(s, t)
                if verdict is not None and (self.keys[s] == self.keys[t]) != verdict:
                    wrong.append(f"canonical_key {s} vs {t}: keys disagree with the decider")
        return wrong


def _pair(g, h, rng: random.Random):
    return g, _shuffled(h, rng)


def _pair_search(pair):
    return oracle.are_isomorphic(*pair)


def _check_iso(pair, vm) -> Optional[str]:
    g, h = pair
    if vm is None:
        return f"are_isomorphic: A[{g.order // 2},3] not found isomorphic to a relabeling of itself"
    if not _valid_map(g, h, vm):
        return f"are_isomorphic: returned map for A[{g.order // 2},3] is not an isomorphism"
    return None


def _check_non_iso(pair, vm) -> Optional[str]:
    if vm is not None:
        return f"are_isomorphic: A[{pair[0].order // 2},3] and A[n,7] reported isomorphic"
    return None


def _canonical(inp) -> bytes:
    return oracle.canonical_key(inp[1], node_budget=CANONICAL_BUDGET)


WORKLOADS = {w.name: w for w in (Census, Certify, GroundTruth)}
