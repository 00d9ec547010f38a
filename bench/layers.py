"""Span tracing at the package's layer boundaries, and the per-layer metrics.

`install` replaces each public function of the layer modules (the names in
their `__all__`) with a wrapper, at every module attribute that binds it.
That is where callers look the function up: `census` calls
`oracle.are_isomorphic` through the module, `cli` calls the deciders through
its own namespace, and so on.  Nothing in the package is edited on disk.

A span is `[name, start, end, parent, op, tag]`: `name` is
`<layer>.<function>`, `parent` the index of the enclosing span (-1 at the
root), `op` the benchmark operation it ran under, and `tag` the outcome
(`raise:<Exception>`, `yes`/`no` for the oracle, `exit:<code>` for the CLI,
the length of the string a serializer returned).  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("graphs", "deciders", "witnesses", "oracle", "serialize", "census", "cli")
CENSUS_KINDS = ("acc-acc", "ci-acc", "ci-torus")

NAME, START, END, PARENT, OP, TAG = range(6)


def _tag_result(name: str, result) -> object:
    if name == "oracle.are_isomorphic":
        return "no" if result is None else "yes"
    if name == "cli.main":
        return f"exit:{result}"
    if isinstance(result, str):
        return len(result.encode("utf-8"))
    return None


class Tracer:
    """Records spans while `op` is set; does nothing between operations."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[TAG] = "raise:" + type(exc).__name__
                raise
            else:
                rec[TAG] = _tag_result(name, result)
                return result
            finally:
                rec[END] = time.perf_counter()
                self.stack.pop()

        return traced

    def _wrap_generator(self, name: str, fn):
        """One span per step, so that a row generator's work lands in the op that pulled it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                rec = self._open(name) if self.op is not None else None
                try:
                    item = next(inner)
                except StopIteration:
                    if rec is not None:
                        rec[TAG] = "stop"
                    return
                except BaseException as exc:
                    if rec is not None:
                        rec[TAG] = "raise:" + type(exc).__name__
                    raise
                finally:
                    if rec is not None:
                        rec[END] = time.perf_counter()
                        self.stack.pop()
                yield item

        return traced

    def dump(self, path, op_kinds) -> None:
        with open(path, "w") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec + [op_kinds[rec[OP]]]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules at every name bound to it."""
    package = "accordions"
    originals = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                originals[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        pieces = sorted(
            (max(spans[c][START], start), min(spans[c][END], end)) for c in children[i]
        )
        covered = 0.0
        cur_a = cur_b = None
        for a, b in pieces:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, i: int, layers: tuple[str, ...]) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        name = spans[p][NAME]
        if name.split(".", 1)[0] in layers and name != "witnesses.verify_witness":
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, op_kinds) -> dict[str, float]:
    """The per-layer metrics named in bench/README.md, from one traced run."""
    own = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    for kind in CENSUS_KINDS:
        m[f"oracle.self_s.{kind}"] = 0.0
    for key in ("cli.exit_0", "cli.exit_1", "cli.exit_2", "cli.uncaught"):
        m[key] = 0
    decider_s = 0.0
    for i, rec in enumerate(spans):
        name, tag = rec[NAME], rec[TAG]
        layer = name.split(".", 1)[0]
        dur = rec[END] - rec[START]
        raised = isinstance(tag, str) and tag.startswith("raise:")
        if name == "oracle.are_isomorphic":
            m["oracle.calls"] += 1
            m["oracle.self_s"] += own[i]
            if tag == "yes":
                m["oracle.yes_s"] += dur
            elif tag == "no":
                m["oracle.no_s"] += dur
            else:
                m["oracle.failed"] += 1
            kind = op_kinds[rec[OP]]
            if kind in CENSUS_KINDS:
                m[f"oracle.self_s.{kind}"] += own[i]
            if _has_ancestor(spans, i, ("witnesses", "cli")):
                m["witnesses.oracle_calls"] += 1
                m["witnesses.oracle_s"] += dur
        elif name == "oracle.canonical_key":
            m["oracle.canonical.calls"] += 1
            m["oracle.canonical.self_s"] += own[i]
            if tag == "raise:BudgetExceededError":
                m["oracle.canonical.budget_exceeded"] += 1
        elif name == "witnesses.verify_witness":
            m["witnesses.verify.calls"] += 1
            m["witnesses.verify.self_s"] += own[i]
        elif layer == "witnesses":
            m["witnesses.calls"] += 1
            m["witnesses.self_s"] += own[i]
        elif layer == "graphs":
            m["graphs.calls"] += 1
            m["graphs.self_s"] += own[i]
        elif layer == "serialize":
            m["serialize.calls"] += 1
            m["serialize.self_s"] += own[i]
            if isinstance(tag, int):
                m["serialize.bytes"] += tag
        elif layer == "cli":
            m["cli.self_s"] += own[i]
            if name == "cli.main":
                m["cli.uncaught" if raised else "cli." + tag.replace(":", "_")] += 1
        elif layer == "census":
            m["census.self_s"] += own[i]
            if tag is None:
                m["census.rows"] += 1
        elif layer == "deciders":
            m["deciders.calls"] += 1
            decider_s += dur
    m["deciders.us_per_call"] = 1e6 * decider_s / m["deciders.calls"] if m["deciders.calls"] else 0.0
    return {key: m[key] for key in PER_LAYER}


_COUNTS = (
    "oracle.calls", "oracle.failed", "oracle.canonical.calls", "oracle.canonical.budget_exceeded",
    "witnesses.calls", "witnesses.oracle_calls", "witnesses.verify.calls", "graphs.calls",
    "serialize.calls", "census.rows", "cli.exit_0", "cli.exit_1", "cli.exit_2", "cli.uncaught",
    "deciders.calls",
)
PER_LAYER = {
    name: "count" if name in _COUNTS else "bytes" if name == "serialize.bytes" else
    "us" if name == "deciders.us_per_call" else "s"
    for name in (
        "oracle.calls", "oracle.self_s", "oracle.no_s", "oracle.yes_s", "oracle.failed",
        *(f"oracle.self_s.{kind}" for kind in CENSUS_KINDS),
        "oracle.canonical.calls", "oracle.canonical.self_s", "oracle.canonical.budget_exceeded",
        "witnesses.calls", "witnesses.self_s", "witnesses.oracle_calls", "witnesses.oracle_s",
        "witnesses.verify.calls", "witnesses.verify.self_s",
        "graphs.calls", "graphs.self_s", "serialize.calls", "serialize.self_s", "serialize.bytes",
        "cli.self_s", "census.self_s", "census.rows",
        "cli.exit_0", "cli.exit_1", "cli.exit_2", "cli.uncaught",
        "deciders.calls", "deciders.us_per_call",
    )
}
