"""Command-line surface: generate graphs, run deciders, emit witnesses, census.

Exit codes are a total contract: 0 = yes/success, 1 = no, 2 = invalid input or error;
`main` returns one for every request, argparse's help (0) and usage errors (2) included.
`cmd_decide` maps a verdict to 0 or 1, and checks a requested witness before anything is
printed, by the census's own check (`census._checked_witness`).  Each choice is one table
(gen families and formats, decide kinds and predicates, commands), read by parser and handlers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import oracle
from .census import PAIRINGS, _checked_witness, _torus, run_census
from .deciders import (
    accordion_circulant_clause,
    accordion_is_bipartite,
    accordions_isomorphic,
    circulant_is_bipartite,
    circulant_is_connected,
    circulant_iso_accordion,
    circulant_iso_torus,
    find_accordion_param,
    torus_parameters,
)
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    InvariantViolationError,
)
from .graphs import _check_accordion, accordion, cartesian_product, circulant, cycle_graph, normalize_length, path_graph
from .serialize import graph_from_json, graph_to_dot, graph_to_edgelist, graph_to_json, witness_to_json

__all__ = ["main", "run", "build_parser"]


def _require(args: argparse.Namespace, names: list[str], context: str) -> list:
    """The values of the flags `names`, in that order; refuses any that is missing."""
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise InvalidParameterError(f"{context} requires {', '.join(missing)}")
    return [getattr(args, name) for name in names]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# family -> (required flags, constructor taking them in that order)
_FAMILIES = {
    "accordion": (["n", "k"], accordion),
    "circulant": (["n", "a", "b"], circulant),
    "torus": (["n1", "n2"], _torus),
    "cyl": (["n1", "n2"], lambda n1, n2: cartesian_product(cycle_graph(n1), path_graph(n2))),
}

# gen --format -> renderer, in the order help lists the choices
_FORMATS = {"edgelist": graph_to_edgelist, "dot": graph_to_dot, "json": graph_to_json}


def cmd_gen(args: argparse.Namespace) -> int:
    required, build = _FAMILIES[args.family]
    g = build(*_require(args, required, f"gen {args.family}"))
    sys.stdout.write(_FORMATS[args.format](g))
    return 0


def _acc_acc(args: argparse.Namespace):
    n, k1, k2 = args.n, args.k1, args.k2
    v = accordions_isomorphic(n, k1, k2)
    fields = {"n": n, "k1": k1, "k2": k2, "gcd(n,k1)": v.gcd1, "gcd(n,k2)": v.gcd2}
    if v.half_product is not None:
        fields["half-product mod n"] = v.half_product % n
    fields["branch"] = v.branch
    return fields, v.isomorphic, ({"n": n, "k1": k1, "k2": k2}, f"A[{n},{k2}] -> A[{n},{k1}]")


def _ci_acc(args: argparse.Namespace):
    n, a, b = args.n, args.a, args.b
    k = find_accordion_param(n, a, b) if args.k is None else args.k
    v = None if k is None else circulant_iso_accordion(n, a, b, k)
    if v is None or v.regime == "both-even":  # disconnected, so no accordion matches
        return {"n": n, "matched-k": "none"}, False, None
    two_n = 2 * n
    fields = {"n": n, "a": v.a, "b": v.b, "matched-k": k, "regime": v.regime,
              "connected": _yesno(v.connected),
              "gcd(2n,a)": math.gcd(two_n, v.a), "gcd(2n,b)": math.gcd(two_n, v.b)}
    if v.regime == "bipartite":
        fields["a+b"] = v.a + v.b
    else:
        fields |= {"oriented-swap": _yesno(v.swapped), "gcd(n,k)": v.q, "steps": v.steps,
                   "sign": "+2" if v.sign == 1 else "-2" if v.sign == -1 else "none"}
    return fields, v.isomorphic, ({"n": n, "a": a, "b": b, "k": k},
                                  f"Ci[{two_n},{{{v.a},{v.b}}}] -> A[{n},{k}]")


def _ci_torus(args: argparse.Namespace):
    if (args.n1 is None) != (args.n2 is None):
        raise InvalidParameterError("--n1 and --n2 must be given together")
    m, a1, a2 = args.nprime, args.a1, args.a2
    found = torus_parameters(m, a1, a2) if args.n1 is None else (args.n1, args.n2)
    ok = found is not None and circulant_iso_torus(m, a1, a2, *found)
    a1, a2 = normalize_length(a1, m), normalize_length(a2, m)  # both deciders checked them
    fields = {"nprime": m, "a1": a1, "a2": a2}
    if found is None:
        return fields | {"factors": "none"}, False, None
    n1, n2 = found
    if args.n1 is None:
        fields["factors"] = f"{n1} x {n2}"
    fields |= {"gcd(nprime,a1)": math.gcd(m, a1), "gcd(nprime,a2)": math.gcd(m, a2),
               "gcd(n1,n2)": math.gcd(n1, n2)}
    return fields, ok, ({"nprime": m, "a1": a1, "a2": a2, "n1": n1, "n2": n2},
                        f"Ci[{m},{{{a1},{a2}}}] -> C{n1} x C{n2}")


def _acc_circulant(args: argparse.Namespace):
    clause = accordion_circulant_clause(args.n, args.k)
    return {"n": args.n, "k": args.k, "clause": clause}, clause != "none", None


# (family, kind) -> predicate, called with the family's flags in _FAMILIES order
_PREDICATES = {
    ("accordion", "bipartite"): accordion_is_bipartite,
    ("accordion", "connected"): lambda n, k: _check_accordion(n, k) is None,  # always, once (n, k) is valid
    ("circulant", "bipartite"): circulant_is_bipartite,
    ("circulant", "connected"): circulant_is_connected,
}


def _predicate(args: argparse.Namespace):
    flags = _require(args, _FAMILIES[args.family][0], f"decide {args.kind} --family {args.family}")
    return {"family": args.family}, _PREDICATES[args.family, args.kind](*flags), None


# kind -> (required flags, verdict label, answer).  An answer gives the printed
# fields, the verdict and, for the kinds in census.PAIRINGS alone, the
# parameters of the kind's entry with the direction its certificate goes.
_KINDS = {
    "acc-acc": (["n", "k1", "k2"], "isomorphic", _acc_acc),
    "ci-acc": (["n", "a", "b"], "isomorphic", _ci_acc),
    "ci-torus": (["nprime", "a1", "a2"], "isomorphic", _ci_torus),
    "acc-circulant": (["n", "k"], "circulant", _acc_circulant),
    "bipartite": (["family"], "bipartite", _predicate),
    "connected": (["family"], "connected", _predicate),
}


def cmd_decide(args: argparse.Namespace) -> int:
    required, label, answer = _KINDS[args.kind]
    if args.witness and args.kind not in PAIRINGS:
        raise InvalidParameterError(f"--witness is not supported for kind {args.kind}")
    _require(args, required, f"decide {args.kind}")
    fields, verdict, certificate = answer(args)
    witness = ""
    if args.witness and verdict:
        params, direction = certificate
        pairing = PAIRINGS[args.kind]
        source, target = (build(*a) for build, a in (pairing.source(**params), pairing.target(**params)))
        # checked against independently built graphs: a failing witness leaves stdout empty
        vm = _checked_witness(pairing, params, source, target)
        if vm is None:
            raise InvariantViolationError("witness failed verification before printing")
        witness = f"witness-direction: {direction}\nwitness: " + witness_to_json(source, target, vm)
    print(f"kind: {args.kind}")
    for key, value in fields.items():
        print(f"{key}: {value}")
    print(f"{label}: {_yesno(verdict)}")
    sys.stdout.write(witness)
    return 0 if verdict else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    g = graph_from_json(Path(args.file_g).read_text())
    h = graph_from_json(Path(args.file_h).read_text())
    vm = oracle.are_isomorphic(g, h)
    if vm is None:
        print("isomorphic: no")
        return 1
    print("isomorphic: yes")
    sys.stdout.write(witness_to_json(g, h, vm))
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    # fail before the sweep, but open (and truncate) an existing report only after it
    out = Path(args.out)
    if out.is_dir():
        raise InvalidParameterError(f"--out: {out} is a directory")
    if not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
        raise InvalidParameterError(f"--out: {out.parent} is not a writable directory")
    if out.exists() and not os.access(out, os.W_OK):
        raise InvalidParameterError(f"--out: {out} is not writable")
    report = run_census(max_n=args.max_n, max_torus=args.max_torus, seed=args.seed)
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with out.open("w") as handle:
        for row in report.rows:
            # a row's fields in declaration order; `|` builds a new dict, so the row is not changed
            handle.write(encode(vars(row) | {"elapsed": round(row.elapsed, 6)}) + "\n")
        handle.write(encode({"summary": report.summary}) + "\n")
    summary = report.summary
    print(f"rows: {summary['rows']}")
    print(f"isomorphic rows: {summary['isomorphic_rows']}")
    print(f"disagreements: {len(summary['disagreements'])}")
    for bad in summary["disagreements"]:
        print(f"  DISAGREE {bad}")
    print(f"witness failures: {len(summary['witness_failures'])}")
    for bad in summary["witness_failures"]:
        print(f"  WITNESS-FAIL {bad}")
    print(f"elapsed: {summary['elapsed']}s")
    print(f"report: {out}")
    print(f"result: {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def _gen_arguments(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("family", choices=list(_FAMILIES))
    # every family's flags once, in table order: n, k, a, b, n1, n2
    for name in dict.fromkeys(flag for required, _ in _FAMILIES.values() for flag in required):
        gen.add_argument(f"--{name}", type=int)
    gen.add_argument("--format", choices=list(_FORMATS), default="json")


def _decide_arguments(decide: argparse.ArgumentParser) -> None:
    decide.add_argument("kind", choices=list(_KINDS))
    for name in ("n", "k", "k1", "k2", "a", "b", "nprime", "a1", "a2", "n1", "n2"):
        decide.add_argument(f"--{name}", type=int)
    decide.add_argument("--family", choices=list(dict.fromkeys(family for family, _ in _PREDICATES)))
    decide.add_argument("--witness", action="store_true")


def _oracle_arguments(orc: argparse.ArgumentParser) -> None:
    orc.add_argument("file_g")
    orc.add_argument("file_h")


def _census_arguments(census: argparse.ArgumentParser) -> None:
    census.add_argument("--max-n", type=int, default=14)
    census.add_argument("--max-torus", type=int, default=36)
    census.add_argument("--seed", type=int, default=0)
    census.add_argument("--out", default="census.jsonl")


# command -> (help, function adding its arguments, handler)
_COMMANDS = {
    "gen": ("construct a family graph and print it", _gen_arguments, cmd_gen),
    "decide": ("run an isomorphism or structure decider", _decide_arguments, cmd_decide),
    "oracle": ("brute-force isomorphism test on two graph files", _oracle_arguments, cmd_oracle),
    "census": ("cross-validate every decider against the oracle", _census_arguments, cmd_census),
}


class _Parser(argparse.ArgumentParser):
    """Help that cannot be written raises, as all other output does; subparsers share the class."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process; `main` parses every request with it."""
    parser = _Parser(
        prog="accgraph",
        description="Accordion and quartic circulant graphs: constructors, "
        "isomorphism deciders, witnesses, and a decider-vs-oracle census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        add_arguments(subparser)
        subparser.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's own exits: 0 after help, 2 on a usage error
        return exc.code
    except Exception as exc:
        # exit 1 means "no": a crash must never be read as a verdict; invalid
        # input, a spent budget, a failed check and OSError are reported bare
        named = isinstance(exc, (InvalidParameterError, BudgetExceededError, InvariantViolationError, OSError))
        print(f"error: {exc}" if named else f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


# encoded once, so it is written with no allocation: what fails here is memory that
# ran out inside `main`'s own handler, or output that could not be written
_ESCAPED = b"error: uncaught failure: out of memory or output not writable\n"


def run() -> None:
    """The console script.  An exception that escapes `main`, or a stdout or stderr that
    fails to flush, exits 2, never 1 ("no") or Python's 120."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        try:  # no context manager: entering one allocates
            os.write(2, _ESCAPED)
        except Exception:  # stderr closed too, or memory still short: exit 2 all the same
            pass
        os._exit(2)
    raise SystemExit(code)
