"""CLI surface: exit codes, document round-trips, the checks made on emitted witnesses."""

import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
from itertools import chain
from pathlib import Path

import pytest

import accordions
from accordions import (
    Graph,
    VertexMap,
    accordion,
    accordion_from_cylinder,
    circulant_iso_accordion,
    graph_from_json,
    verify_witness,
    witness_from_json,
)
from accordions import census, cli, deciders, graphs, oracle, witnesses
from accordions.cli import main
from accordions.serialize import graph_to_json


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one call, argparse's own exits (help, usage errors) included."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _decide_requests():
    """About 900 decide requests: every kind, every printed branch, and invalid input."""
    for n in range(3, 15):
        for k1 in range(1, n // 2 + 1):
            for k2 in range(k1, n // 2 + 1):
                yield ["acc-acc", "--n", n, "--k1", k1, "--k2", k2] + ["--witness"] * (n % 2 == 0 or k1 == k2)
    for n in range(2, 10):
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                args = ["--n", n, "--a", a, "--b", b]
                yield ["ci-acc", *args]
                yield ["ci-acc", *args, "--k", 1, "--witness"]
                yield ["ci-acc", *args, "--k", 2, "--witness"]
    for m in (9, 10, 12, 14, 15, 20, 21):
        for a1 in range(1, m // 2 + 1):
            for a2 in range(a1 + 1, m // 2 + 1):
                yield ["ci-torus", "--nprime", m, "--a1", a1, "--a2", a2, "--witness"]
    for m, a1, a2, n1, n2 in ((12, 3, 4, 3, 4), (12, 3, 4, 4, 3), (12, 1, 5, 3, 4), (15, 3, 5, 3, 5),
                              (12, 2, 3, 2, 6)):
        yield ["ci-torus", "--nprime", m, "--a1", a1, "--a2", a2, "--n1", n1, "--n2", n2, "--witness"]
    for n in range(3, 13):
        for k in range(1, n // 2 + 1):
            yield ["acc-circulant", "--n", n, "--k", k]
    for kind in ("bipartite", "connected"):
        for n in range(2, 9):
            for k in range(0, 5):
                yield [kind, "--family", "accordion", "--n", n, "--k", k]
        for n in range(1, 7):
            for a in range(0, n + 1):
                for b in range(a + 1, n + 1):
                    yield [kind, "--family", "circulant", "--n", n, "--a", a, "--b", b]
    yield from (
        ["acc-acc", "--n", 10, "--k1", 2],
        ["ci-acc", "--a", 1, "--b", 3],
        ["ci-torus", "--nprime", 12, "--a1", 3],
        ["acc-circulant", "--k", 2],
        ["bipartite", "--n", 4, "--k", 2],
        ["connected", "--family", "circulant", "--n", 4, "--a", 1],
        ["bipartite", "--family", "accordion", "--n", 4, "--k", 2, "--witness"],
        ["acc-circulant", "--n", 8, "--k", 3, "--witness"],
        ["ci-torus", "--nprime", 12, "--a1", 3, "--a2", 4, "--n1", 3],
        ["ci-acc", "--n", 6, "--a", 2, "--b", 4, "--k", 2],
    )


def _gen_requests():
    """96 gen requests: every family and format, with valid, invalid and missing flags."""
    flags = {
        "accordion": (["--n", 5, "--k", 2], ["--n", 6, "--k", 3], ["--n", 2, "--k", 1], ["--n", 5, "--k", 0],
                      ["--n", 5], []),
        "circulant": (["--n", 4, "--a", 1, "--b", 3], ["--n", 5, "--a", 2, "--b", 3],
                      ["--n", 4, "--a", 2, "--b", 4], ["--n", 4, "--a", 1, "--b", 1], ["--a", 1, "--b", 3],
                      ["--n", 4, "--a", 1]),
        "torus": (["--n1", 3, "--n2", 4], ["--n1", 5, "--n2", 3], ["--n1", 2, "--n2", 4],
                  ["--n1", 3, "--n2", -1], ["--n1", 3], ["--n2", 4]),
        "cyl": (["--n1", 4, "--n2", 2], ["--n1", 3, "--n2", 1], ["--n1", 4, "--n2", 0],
                ["--n1", 1, "--n2", 3], ["--n2", 2], []),
    }
    for family, cases in flags.items():
        for fmt in ([], ["--format", "json"], ["--format", "dot"], ["--format", "edgelist"]):
            for case in cases:
                yield ["gen", family, *case, *fmt]


class TestGen:
    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "accordion", "--n", "10", "--k", "5")
        assert code == 0
        g = graph_from_json(out)
        assert g == accordion(10, 5)

    def test_dot(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "circulant", "--n", "4", "--a", "1", "--b", "3",
                               "--format", "dot")
        assert code == 0
        assert out.startswith("graph {")
        assert sum(1 for line in out.splitlines() if line.endswith(";") and "--" not in line) == 8

    def test_edgelist(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "torus", "--n1", "3", "--n2", "4",
                               "--format", "edgelist")
        assert code == 0
        assert len(out.splitlines()) == 24

    def test_cyl(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "cyl", "--n1", "4", "--n2", "5")
        assert code == 0
        assert graph_from_json(out).size == 36

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "accordion", "--n", "2", "--k", "1")
        assert code == 2 and "error" in err

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "accordion", "--n", "5")
        assert code == 2 and "--k" in err

    def test_every_gen_and_help_output_is_pinned(self, capsys, monkeypatch):
        # exit code, stdout and stderr of each request, hashed in order; help is wrapped to COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        requests = [list(map(str, request)) for request in _gen_requests()]
        assert len(requests) == 96
        requests += [["--help"], ["gen", "--help"], ["decide", "--help"], ["gen", "wheel", "--n", "5"]]
        digest = hashlib.sha256()
        for argv in requests:
            digest.update((json.dumps([argv, *run_cli(capsys, *argv)]) + "\n").encode())
        assert digest.hexdigest() == "dd78b618d2acde64da197f915afe0394989017ce716e5fe7e779406fa599dbbc"


class TestParser:
    def test_top_level_and_usage_error_output_is_pinned(self, capsys, monkeypatch):
        # help, usage errors and unknown commands, each read against the whole tree
        monkeypatch.setenv("COLUMNS", "80")
        requests = [
            [], ["-h"], ["nosuch"], ["-h", "decide"], ["--", "decide"],
            ["oracle", "-h"], ["census", "-h"],
            ["decide", "acc-acc", "--n", "5", "--k1", "1", "--k2", "2", "extra"],
            ["census", "--max-n", "5", "stray"],
            ["gen", "accordion", "--n", "5", "--k", "1", "--bogus", "3"],
            ["decide"], ["oracle", "a"],
        ]
        digest = hashlib.sha256()
        for argv in requests:
            digest.update((json.dumps([argv, *run_cli(capsys, *argv)]) + "\n").encode())
        assert digest.hexdigest() == "196fb754eb763d68a882ff1ea701e1940a628bfa3e86dca1c46060aca503e641"

    def test_main_answers_every_request_with_an_int(self):
        # the usage requests of the pin above and the help requests of gen's pin: argparse's
        # exits come back as codes, so no caller sees a SystemExit; no fixture but the
        # redirects, because the check-mutant table calls this test with none
        requests = {
            (): 2, ("-h",): 0, ("nosuch",): 2, ("-h", "decide"): 0, ("--", "decide"): 2,
            ("oracle", "-h"): 0, ("census", "-h"): 0,
            ("decide", "acc-acc", "--n", "5", "--k1", "1", "--k2", "2", "extra"): 2,
            ("census", "--max-n", "5", "stray"): 2,
            ("gen", "accordion", "--n", "5", "--k", "1", "--bogus", "3"): 2,
            ("decide",): 2, ("oracle", "a"): 2,
            ("--help",): 0, ("gen", "--help"): 0, ("decide", "--help"): 0,
        }
        codes = {}
        for argv in requests:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes[argv] = main(list(argv))
                except SystemExit as exc:
                    pytest.fail(f"main{argv} let SystemExit({exc.code!r}) out")
        assert codes == requests and {type(code) for code in codes.values()} == {int}

    def test_the_parser_is_built_once_per_process(self, capsys, monkeypatch):
        # the first build adds every command's arguments, 33 in all; a later request adds none
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        assert len(calls) == 33
        calls.clear()
        assert run_cli(capsys, "decide", "acc-acc", "--n", "14", "--k1", "4", "--k2", "6")[0] == 0
        assert run_cli(capsys, "gen", "accordion", "--n", "5", "--k", "1")[0] == 0
        assert calls == [] and cli.build_parser() is parser

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["accgraph", "decide", "acc-acc", "--n", "10", "--k1", "2", "--k2", "4"])
        assert main() == 1
        assert capsys.readouterr().out.endswith("isomorphic: no\n")
        monkeypatch.setattr("sys.argv", ["accgraph", "nosuch"])
        assert main() == 2
        assert capsys.readouterr().err.startswith("usage: accgraph [-h] {gen,decide,oracle,census} ...\n")


class TestDecide:
    def test_acc_acc_yes(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "acc-acc", "--n", "14", "--k1", "4", "--k2", "6")
        assert code == 0
        assert "branch: case-minus" in out
        assert "isomorphic: yes" in out

    def test_acc_acc_no(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "acc-acc", "--n", "10", "--k1", "2", "--k2", "4")
        assert code == 1
        assert "isomorphic: no" in out

    def test_acc_acc_witness_verifies(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "acc-acc", "--n", "14", "--k1", "4", "--k2", "6",
                               "--witness")
        assert code == 0
        doc = next(line for line in out.splitlines() if line.startswith("witness: "))
        src, tgt, vm = witness_from_json(doc.removeprefix("witness: "))
        assert verify_witness(src, tgt, vm)

    def test_ci_acc_bipartite(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "ci-acc", "--n", "4", "--a", "1", "--b", "3",
                               "--k", "2")
        assert code == 0
        assert "regime: bipartite" in out

    def test_ci_acc_search_k(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "ci-acc", "--n", "3", "--a", "1", "--b", "2")
        assert code == 0
        assert "matched-k: 1" in out

    def test_ci_acc_search_k_absent(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "ci-acc", "--n", "5", "--a", "1", "--b", "3")
        assert code == 1
        assert "matched-k: none" in out

    @pytest.mark.parametrize("k", [[], ["--k", "1"], ["--k", "2", "--witness"]], ids=["no-k", "k1", "k2"])
    def test_ci_acc_both_even_answers_no(self, capsys, k):
        # Ci[12,{2,4}] is disconnected, so no accordion matches: a "no", not invalid input
        code, out, err = run_cli(capsys, "decide", "ci-acc", "--n", "6", "--a", "2", "--b", "4", *k)
        assert code == 1
        assert out == "kind: ci-acc\nn: 6\nmatched-k: none\nisomorphic: no\n"
        assert err == ""

    def test_ci_acc_witness(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "ci-acc", "--n", "5", "--a", "3", "--b", "4",
                               "--k", "1", "--witness")
        assert code == 0
        doc = next(line for line in out.splitlines() if line.startswith("witness: "))
        src, tgt, vm = witness_from_json(doc.removeprefix("witness: "))
        assert verify_witness(src, tgt, vm)

    def test_ci_torus(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "ci-torus", "--nprime", "12", "--a1", "3",
                               "--a2", "4", "--n1", "3", "--n2", "4")
        assert code == 0
        assert "isomorphic: yes" in out

    def test_ci_torus_invalid_factor(self, capsys):
        code, _, err = run_cli(capsys, "decide", "ci-torus", "--nprime", "12", "--a1", "2",
                               "--a2", "3", "--n1", "2", "--n2", "3")
        assert code == 2 and "error" in err
        # a bad factor is reported before a bad length (6 is no length of a circulant of order 12)
        code, _, err = run_cli(capsys, "decide", "ci-torus", "--nprime", "12", "--a1", "6",
                               "--a2", "3", "--n1", "2", "--n2", "6")
        assert code == 2 and err == "error: cycle factors must be >= 3, got n1=2, n2=6\n"

    def test_ci_torus_witness(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "ci-torus", "--nprime", "12", "--a1", "3",
                               "--a2", "4", "--n1", "3", "--n2", "4", "--witness")
        assert code == 0
        doc = next(line for line in out.splitlines() if line.startswith("witness: "))
        src, tgt, vm = witness_from_json(doc.removeprefix("witness: "))
        assert verify_witness(src, tgt, vm)

    def test_ci_torus_scan(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "ci-torus", "--nprime", "12", "--a1", "3",
                               "--a2", "4")
        assert code == 0
        assert "factors: 3 x 4" in out

    @pytest.mark.parametrize("factors", [[], ["--n1", "3", "--n2", "4"]], ids=["scan", "given"])
    def test_ci_torus_prints_normalized_lengths(self, capsys, factors):
        # -3 and 16 mod 12 are the lengths 3 and 4, as ci-acc prints Ci[12,{1,5}] for --n 6 --a -1 --b 7
        request = ["decide", "ci-torus", "--nprime", "12", *factors, "--witness"]
        raw = run_cli(capsys, *request, "--a1", "-3", "--a2", "16")
        folded = run_cli(capsys, *request, "--a1", "3", "--a2", "4")
        assert raw == folded and "a1: 3\na2: 4\n" in raw[1]
        assert "witness-direction: Ci[12,{3,4}] -> C3 x C4\n" in raw[1]

    @pytest.mark.parametrize("kind,given_factors", [("acc-acc", False), ("ci-acc", False),
                                                    ("ci-torus", False), ("ci-torus", True)])
    def test_gcd_fields_are_the_gcds_they_name(self, capsys, kind, given_factors):
        # every printed gcd(x,y) against math.gcd of the printed (else requested) x and y
        checked = 0
        for request in _decide_requests():
            if request[0] != kind or ("--n1" in request) != given_factors:
                continue
            argv = [str(v) for v in request if v != "--witness"]
            _, out, _ = run_cli(capsys, "decide", *argv)
            env = {flag.removeprefix("--"): int(v) for flag, v in zip(argv[1::2], argv[2::2])}
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            env |= {key: int(fields[key]) for key in ("n", "a", "b") if key in fields}
            if fields.get("matched-k", "none") != "none":
                env["k"] = int(fields["matched-k"])
            if fields.get("factors", "none") != "none":
                env["n1"], env["n2"] = map(int, fields["factors"].split(" x "))
            if "n" in env:
                env["2n"] = 2 * env["n"]
            for key, value in fields.items():
                if key.startswith("gcd("):
                    x, y = key[4:-1].split(",")
                    assert int(value) == math.gcd(env[x], env[y]), (argv, key)
                    checked += 1
        assert checked

    def test_acc_circulant(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "acc-circulant", "--n", "8", "--k", "4")
        assert code == 1
        assert "clause: none" in out

    def test_bipartite_predicate(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "bipartite", "--family", "accordion",
                               "--n", "4", "--k", "2")
        assert code == 0
        assert "bipartite: yes" in out

    def test_connected_predicate(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "connected", "--family", "circulant",
                               "--n", "6", "--a", "2", "--b", "4")
        assert code == 1
        assert "connected: no" in out

    def test_witness_flag_rejected_for_predicates(self, capsys):
        code, _, err = run_cli(capsys, "decide", "bipartite", "--family", "accordion",
                               "--n", "4", "--k", "2", "--witness")
        assert code == 2 and "--witness" in err

    def test_bipartite_witness_at_order_1200(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "ci-acc", "--n", "600", "--a", "1", "--b", "599",
                               "--k", "2", "--witness")
        assert code == 0
        doc = next(line for line in out.splitlines() if line.startswith("witness: "))
        src, tgt, vm = witness_from_json(doc.removeprefix("witness: "))
        assert verify_witness(src, tgt, vm)

    # each certificate kind: a request answered "yes", and the order of its graphs
    WITNESS_KINDS = [
        pytest.param(["acc-acc", "--n", "14", "--k1", "4", "--k2", "6"], 28, id="acc-acc"),
        pytest.param(["ci-acc", "--n", "5", "--a", "3", "--b", "4", "--k", "1"], 10, id="ci-acc"),
        pytest.param(["ci-torus", "--nprime", "12", "--a1", "3", "--a2", "4"], 12, id="ci-torus"),
    ]

    @pytest.mark.parametrize("argv, order", WITNESS_KINDS)
    def test_witness_crash_prints_no_verdict(self, capsys, monkeypatch, argv, order):
        # a crash must exit 2, not 1 ("no"), and must not leave "isomorphic: yes" behind
        def crash(**params):
            raise RecursionError("maximum recursion depth exceeded")

        pairing = census.PAIRINGS[argv[0]]
        monkeypatch.setitem(census.PAIRINGS, argv[0], pairing._replace(witness=crash))
        code, out, err = run_cli(capsys, "decide", *argv, "--witness")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: RecursionError")

    @pytest.mark.parametrize("argv, order", WITNESS_KINDS)
    def test_wrong_witness_prints_no_verdict(self, capsys, monkeypatch, argv, order):
        # constructors do not check themselves: the check before printing is the one guard
        pairing = census.PAIRINGS[argv[0]]
        monkeypatch.setitem(census.PAIRINGS, argv[0],
                            pairing._replace(witness=lambda **params: VertexMap.identity(order)))
        code, out, err = run_cli(capsys, "decide", *argv, "--witness")
        assert code == 2
        assert out == ""
        assert err == "error: witness failed verification before printing\n"

    @pytest.mark.parametrize("argv, order", WITNESS_KINDS)
    def test_failure_while_writing_the_document_prints_no_verdict(self, capsys, monkeypatch, argv, order):
        # the whole witness text is built before the first line is printed
        def fail(source, target, vm):
            raise MemoryError

        monkeypatch.setattr(cli, "witness_to_json", fail)
        code, out, err = run_cli(capsys, "decide", *argv, "--witness")
        assert code == 2
        assert out == ""
        assert err == "error: MemoryError: \n"

    def test_valid_construction_never_reaches_the_edge_check(self, capsys, monkeypatch):
        # the constructors and relabel emit edge sets valid by construction; only outside input is checked
        def refuse(order, edges):
            raise AssertionError("the edge check was reached")

        monkeypatch.setattr(graphs, "_walk_edges", refuse)
        assert census.run_census().ok
        requests = [param.values[0] for param in self.WITNESS_KINDS]
        requests.append(["ci-acc", "--n", "600", "--a", "1", "--b", "599", "--k", "2"])  # order 1200, bipartite
        for argv in requests:
            code, out, _ = run_cli(capsys, "decide", *argv, "--witness")
            assert code == 0 and "witness: " in out, argv
        # the chorded cylinders, one with a trivial path (n2 = 1)
        for n1, n2, k in [(4, 5, 5), (6, 1, 1), (8, 3, 3)]:
            ext = accordion_from_cylinder(n1, n2, k)
            assert verify_witness(ext.graph, accordion(n1 * n2 // 2, k), ext.to_accordion)
        with pytest.raises(AssertionError, match="the edge check was reached"):
            Graph(3, [(0, 1)])

    def test_every_decide_output_is_pinned(self, capsys):
        # exit code, stdout and stderr of each request, hashed in order
        requests = [["decide", *map(str, request)] for request in _decide_requests()]
        assert len(requests) == 894
        digest = hashlib.sha256()
        for argv in requests:
            digest.update((json.dumps([argv, *run_cli(capsys, *argv)]) + "\n").encode())
        assert digest.hexdigest() == "247dc831936e0f6551f2ba638dfa80b326948d09bde6b1d64ede8d254cfe76aa"


class TestOracleCmd:
    def test_isomorphic_pair(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        c = tmp_path / "c.json"
        from accordions import circulant

        a.write_text(graph_to_json(accordion(4, 2)))
        c.write_text(graph_to_json(circulant(4, 1, 3)))
        code, out, _ = run_cli(capsys, "oracle", str(c), str(a))
        assert code == 0
        src, tgt, vm = witness_from_json(out.splitlines()[1])
        assert verify_witness(src, tgt, vm)

    def test_same_file_twice(self, capsys, tmp_path):
        f = tmp_path / "g.json"
        f.write_text(graph_to_json(accordion(5, 2)))
        code, out, _ = run_cli(capsys, "oracle", str(f), str(f))
        assert code == 0

    def test_non_isomorphic(self, capsys, tmp_path):
        from accordions import Graph, cycle_graph

        f1 = tmp_path / "c6.json"
        f2 = tmp_path / "tri2.json"
        f1.write_text(graph_to_json(cycle_graph(6)))
        f2.write_text(graph_to_json(Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))))
        code, out, _ = run_cli(capsys, "oracle", str(f1), str(f2))
        assert code == 1
        assert "isomorphic: no" in out

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nonsense")
        good = tmp_path / "good.json"
        good.write_text(graph_to_json(accordion(3, 1)))
        code, _, err = run_cli(capsys, "oracle", str(good), str(bad))
        assert code == 2 and "error" in err

    def test_missing_file(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(graph_to_json(accordion(3, 1)))
        code, _, err = run_cli(capsys, "oracle", str(good), str(tmp_path / "absent.json"))
        assert code == 2

    def test_order_1040_never_exits_1(self, capsys, tmp_path):
        # A[520,1] against itself is isomorphic: the answer must be "yes"
        # with a witness that checks, not a refusal and never "no"
        g = accordion(520, 1)
        f = tmp_path / "g.json"
        f.write_text(graph_to_json(g))
        code, out, err = run_cli(capsys, "oracle", str(f), str(f))
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "isomorphic: yes"
        src, tgt, vm = witness_from_json(out.splitlines()[1])
        assert src == tgt == g
        assert verify_witness(src, tgt, vm)

    def test_exhausted_budget_exits_2(self, capsys, tmp_path, monkeypatch):
        # an exhausted search is an error, never a "no"
        f = tmp_path / "g.json"
        f.write_text(graph_to_json(accordion(8, 3)))
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 1)
        code, _, err = run_cli(capsys, "oracle", str(f), str(f))
        assert code == 2
        assert "exceeded" in err.lower()


def _drop_gcd1(monkeypatch):
    # accordions_isomorphic without its gcd(n,k1) = 2 clause, where the census and
    # accordion_witness read it: A[10,1] vs A[10,4] gets a 40-entry map for order 20
    source = inspect.getsource(deciders.accordions_isomorphic)
    assert source.count("g1 == 2 and g2 == 2") == 1
    namespace = {}
    exec(source.replace("g1 == 2 and g2 == 2", "g2 == 2"), vars(deciders), namespace)
    for module in (census, witnesses):
        monkeypatch.setattr(module, "accordions_isomorphic", namespace["accordions_isomorphic"])


def _ci_acc_always_yes(monkeypatch):
    # every ci-acc row is a "yes", and the witness constructor refuses each wrong one
    pairing = census.PAIRINGS["ci-acc"]
    monkeypatch.setitem(census.PAIRINGS, "ci-acc", pairing._replace(decide=lambda **params: True))


# case -> (its patch, its census kind, the rows of `census --max-n 14 --max-torus 0`
# that it answers "yes" wrongly, each both a disagreement and a witness failure)
_WRONG_YES = {
    "acc-acc-gcd1-dropped": (_drop_gcd1, "acc-acc", [{"n": 10, "k1": 1, "k2": 4}, {"n": 14, "k1": 1, "k2": 4}]),
    "ci-acc-always-yes": (_ci_acc_always_yes, "ci-acc", [
        {"n": n, "a": a, "b": b, "k": k} for n in range(3, 11) for a in range(1, n) for b in range(a + 1, n)
        for k in range(1, n // 2 + 1) if not circulant_iso_accordion(n, a, b, k).isomorphic]),
}


class TestCensusCmd:
    def test_small_run_passes(self, capsys, tmp_path):
        out_path = tmp_path / "rows.jsonl"
        code, out, _ = run_cli(capsys, "census", "--max-n", "4", "--max-torus", "12",
                               "--out", str(out_path))
        assert code == 0
        assert "result: PASS" in out
        lines = out_path.read_text().splitlines()
        rows = [json.loads(line) for line in lines[:-1]]
        assert all(row["agree"] for row in rows)
        summary = json.loads(lines[-1])["summary"]
        assert summary["rows"] == len(rows)
        assert any(
            row["kind"] == "ci-acc" and row["params"] == {"n": 3, "a": 1, "b": 2, "k": 1}
            and row["agree"]
            for row in rows
        )

    def test_default_run_is_golden(self, capsys, tmp_path):
        # every row and the summary, apart from their timings, are pinned
        out_path = tmp_path / "census.jsonl"
        code, _, _ = run_cli(capsys, "census", "--out", str(out_path))
        assert code == 0
        digest = hashlib.sha256()
        for line in out_path.read_text().splitlines():
            doc = json.loads(line)
            (doc["summary"] if "summary" in doc else doc).pop("elapsed")
            digest.update((json.dumps(doc, separators=(",", ":")) + "\n").encode())
        assert digest.hexdigest() == "710545b36188fe18287440ee7cfc4f7747fa648efdc83230f19c2ff0ada9eb7b"

    def test_wrong_witness_is_a_recorded_failure(self, capsys, tmp_path, monkeypatch):
        # a wrong map reaches witness_verified: false instead of aborting the census
        pairing = census.PAIRINGS["acc-acc"]

        def wrong_at_14_4_6(n, k1, k2):
            return VertexMap.identity(28) if (n, k1, k2) == (14, 4, 6) else pairing.witness(n, k1, k2)

        monkeypatch.setitem(census.PAIRINGS, "acc-acc", pairing._replace(witness=wrong_at_14_4_6))
        out_path = tmp_path / "rows.jsonl"
        code, out, _ = run_cli(capsys, "census", "--max-n", "14", "--max-torus", "0",
                               "--out", str(out_path))
        assert code == 1
        assert "  WITNESS-FAIL {'n': 14, 'k1': 4, 'k2': 6, 'kind': 'acc-acc'}" in out.splitlines()
        assert "result: FAIL" in out
        rows = [json.loads(line) for line in out_path.read_text().splitlines()[:-1]]
        failed = [row for row in rows if row["witness_verified"] is False]
        assert [(row["kind"], row["params"]) for row in failed] == [
            ("acc-acc", {"n": 14, "k1": 4, "k2": 6})
        ]
        # decide reads the same entry, and its check before printing refuses the map
        code, out, err = run_cli(capsys, "decide", "acc-acc", "--n", "14", "--k1", "4", "--k2", "6",
                                 "--witness")
        assert code == 2
        assert out == ""
        assert err == "error: witness failed verification before printing\n"

    def test_each_accordion_is_built_once_per_grid(self, monkeypatch):
        # the default grids use A[3..14, k] (48 graphs) and A[3..10, k] (24)
        built = []
        real = census.accordion
        monkeypatch.setattr(census, "accordion", lambda n, k: built.append((n, k)) or real(n, k))
        assert census.run_census().ok
        assert len(built) == 72
        pairs, circulants = built[:48], built[48:]
        assert len(set(pairs)) == 48 and len(set(circulants)) == 24

    def test_each_torus_circulant_is_built_once(self, monkeypatch):
        # torus_rows(36) uses 1032 distinct circulants over 1450 rows
        built = []
        real = census.circulant_graph
        monkeypatch.setattr(census, "circulant_graph",
                            lambda m, lengths: built.append((m, lengths)) or real(m, lengths))
        rows = list(census.torus_rows(36))
        assert len(rows) == 1450 and all(row.agree for row in rows)
        assert len(built) == 1032 and len(set(built)) == 1032

    @pytest.mark.parametrize("parent", ["absent", "file", "dir", "read-only"])
    def test_bad_out_exits_2_before_the_sweep(self, capsys, tmp_path, monkeypatch, parent):
        # the sweep must not start: main would turn a failure raised inside it into exit 2 too
        sweeps = []
        monkeypatch.setattr(cli, "run_census", lambda **kwargs: sweeps.append(kwargs))
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "r.jsonl").mkdir(parents=True)  # --out is a directory in a writable one
        locked = tmp_path / "read-only" / "r.jsonl"  # an existing report that may not be overwritten
        locked.parent.mkdir()
        locked.write_text("kept\n")
        locked.chmod(0o444)
        # os.access grants W_OK on every file to root, so report this one as read-only
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: access(path, mode) and not (
            Path(path) == locked and mode & os.W_OK))
        code, out, err = run_cli(capsys, "census", "--out", str(tmp_path / parent / "r.jsonl"))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: --out")
        assert sweeps == []
        assert locked.read_text() == "kept\n"

    def test_exhausted_budget_exits_2_without_a_report(self, capsys, tmp_path, monkeypatch):
        # a row whose search runs out aborts the sweep: no verdict, no report
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 1)
        out_path = tmp_path / "r.jsonl"
        code, out, err = run_cli(capsys, "census", "--max-n", "4", "--max-torus", "0",
                                 "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "exceeded" in err
        assert not out_path.exists()

    def test_exhausted_budget_leaves_an_existing_report_untouched(self, capsys, tmp_path, monkeypatch):
        # the report is opened, and so truncated, only once the sweep has ended
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 1)
        out_path = tmp_path / "r.jsonl"
        out_path.write_text("kept\n")
        code, out, _ = run_cli(capsys, "census", "--max-n", "4", "--max-torus", "0",
                               "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert out_path.read_text() == "kept\n"

    def test_invalid_max_n(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "census", "--max-n", "2",
                               "--out", str(tmp_path / "r.jsonl"))
        assert code == 2 and "error" in err

    def test_negative_max_torus_exits_2_without_a_report(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        code, out, err = run_cli(capsys, "census", "--max-torus", "-1", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == "error: max_torus must be >= 0, got -1\n"
        assert not out_path.exists()

    def test_a_disagreement_is_a_recorded_failure(self, capsys, tmp_path, monkeypatch):
        # an acc-acc decider that says "no" at n = 4 disagrees with the oracle on
        # its two "yes" rows, A[4,1] and A[4,2] against themselves
        pairing = census.PAIRINGS["acc-acc"]
        monkeypatch.setitem(census.PAIRINGS, "acc-acc", pairing._replace(
            decide=lambda n, k1, k2: n != 4 and pairing.decide(n, k1, k2)))
        out_path = tmp_path / "rows.jsonl"
        code, out, _ = run_cli(capsys, "census", "--max-n", "4", "--max-torus", "0",
                               "--out", str(out_path))
        assert code == 1
        lines = out.splitlines()
        assert [line for line in lines if "DISAGREE" in line] == [
            "  DISAGREE {'n': 4, 'k1': 1, 'k2': 1, 'kind': 'acc-acc'}",
            "  DISAGREE {'n': 4, 'k1': 2, 'k2': 2, 'kind': 'acc-acc'}",
        ]
        assert "disagreements: 2" in lines and "witness failures: 0" in lines
        assert lines[-1] == "result: FAIL"
        summary = json.loads(out_path.read_text().splitlines()[-1])["summary"]
        assert summary["all_agree"] is False and summary["disagreements"] == [
            {"n": 4, "k1": 1, "k2": 1, "kind": "acc-acc"}, {"n": 4, "k1": 2, "k2": 2, "kind": "acc-acc"}]

    @pytest.mark.parametrize("case", list(_WRONG_YES))
    def test_a_wrong_yes_is_a_failed_row_not_an_aborted_sweep(self, monkeypatch, case):
        # a wrong-size map and a refused constructor alike: exit 1 and a whole report.
        # Only monkeypatch is asked for, as the check-mutant table runs this test too
        patch, kind, wrong = _WRONG_YES[case]
        patch(monkeypatch)
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["census", "--max-n", "14", "--max-torus", "0", "--out", f"{tmp}/census.jsonl"])
            assert code == 1, err.getvalue()
            lines = Path(tmp, "census.jsonl").read_text().splitlines()
        assert err.getvalue() == ""
        summary = json.loads(lines[-1])["summary"]
        assert summary["rows"] == len(lines) - 1 and all("kind" in json.loads(line) for line in lines[:-1])
        failed = [params | {"kind": kind} for params in wrong]
        assert summary["disagreements"] == summary["witness_failures"] == failed
        printed = out.getvalue().splitlines()
        assert [line for line in printed if line.startswith(("  DISAGREE", "  WITNESS-FAIL"))] == [
            f"  {label} {row}" for label in ("DISAGREE", "WITNESS-FAIL") for row in failed]
        assert printed[-1] == "result: FAIL"

    def test_extended_run_verdicts_are_pinned(self):
        # acc-acc to n = 30, ci-acc to n = 14, ci-torus to order 60: 11837 rows,
        # every verdict column pinned, timings left out
        rows = list(chain(census.accordion_pair_rows(30), census.circulant_accordion_rows(14),
                          census.torus_rows(60)))
        assert len(rows) == 11837
        assert all(row.agree and row.witness_verified is not False for row in rows)
        digest = hashlib.sha256()
        for row in rows:
            cols = [row.kind, row.params, row.decider, row.oracle, row.agree, row.witness_verified]
            digest.update((json.dumps(cols, sort_keys=True, separators=(",", ":")) + "\n").encode())
        assert digest.hexdigest() == "1064541744c8c5e6111008ec400e210e2838b98ca261aa5df9750dd26c1de763"


class TestEscapedFailure:
    """`run`, the console script, in a child process whose address space is
    limited to 400 MiB, so that only the child runs out of memory."""

    @staticmethod
    def _run(*argv, limit=400 * 2 ** 20):
        resource = pytest.importorskip("resource")
        env = dict(os.environ, PYTHONPATH=str(Path(accordions.__file__).resolve().parent.parent))
        return subprocess.run(
            [sys.executable, "-m", "accordions", *argv], capture_output=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )

    @pytest.mark.parametrize("argv", [
        ["gen", "accordion", "--n", "30000000", "--k", "3"],
        ["decide", "acc-acc", "--n", "30000000", "--k1", "3", "--k2", "3", "--witness"],
    ], ids=["gen", "decide"])
    def test_memory_exhausted_inside_the_handler_exits_2(self, argv):
        # `main`'s own handler runs out of memory too, so the failure escapes it;
        # Python would exit 1, the code for "no"
        proc = self._run(*argv)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.endswith(cli._ESCAPED)

    def test_help_still_exits_0(self):
        proc = self._run("--help")
        assert proc.returncode == 0 and proc.stdout.startswith(b"usage: accgraph")

    @pytest.mark.parametrize("closed", ["stdout", "both"], ids=["stdout-closed", "both-closed"])
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["--n", "14", "--k1", "4", "--k2", "6"], ["--n", "10", "--k1", "2", "--k2", "4"], ["--n", "2"],
    ], ids=["yes", "no", "invalid"])
    def test_output_that_cannot_be_written_exits_2(self, closed, unbuffered, argv):
        # stdout, or stdout and stderr, on a pipe whose read end is closed: nothing
        # reaches stdout, so no code may claim a verdict; Python alone would exit
        # 120 (a flush that fails at exit) or 1 (a write to stderr that fails too)
        env = dict(os.environ, PYTHONPATH=str(Path(accordions.__file__).resolve().parent.parent))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "accordions", "decide", "acc-acc", *argv], stdout=write,
                                  stderr=write if closed == "both" else subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 2
        if closed == "stdout":
            assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(b"error: ")

    @pytest.mark.parametrize("closed", ["stdout", "both"], ids=["stdout-closed", "both-closed"])
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["--help"], ["census", "--help"], ["nosuch"], ["decide", "acc-acc", "--n", "5", "--k1", "1", "--k2", "2", "extra"],
    ], ids=["help", "census-help", "unknown-command", "stray-argument"])
    def test_help_and_usage_errors_that_cannot_be_written_exit_2(self, closed, unbuffered, argv):
        # as above, for argparse's own exits: help written to a closed stdout is an error, not
        # a success, and a usage message that cannot be flushed exits 2, not Python's 120
        env = dict(os.environ, PYTHONPATH=str(Path(accordions.__file__).resolve().parent.parent))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "accordions", *argv], stdout=write,
                                  stderr=write if closed == "both" else subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 2
        if closed == "stdout":
            # the last line says why: the failed write, or argparse's usage error
            assert proc.stderr.splitlines()[-1].startswith((b"error: ", b"accgraph: error: "))


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(accordions.__path__) if m.name != "__main__"])
def test_every_public_name_resolves(name):
    # a traced benchmark run wraps every name in each module's __all__; __main__ would run the CLI
    module = importlib.import_module(f"accordions.{name}")
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_package_names_are_the_reexported_modules_all():
    # __init__ lists no names of its own, and no two modules claim one name
    alls = [importlib.import_module(f"accordions.{name}").__all__
            for name in ("deciders", "errors", "graphs", "modarith", "oracle", "serialize", "witnesses")]
    public = {name for name, value in vars(accordions).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set().union(*alls) and len(public) == sum(map(len, alls))
