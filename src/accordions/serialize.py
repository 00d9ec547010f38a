"""Graph and witness documents: JSON, DOT and flat edge-list exports.

The JSON graph document is bit-exact by construction: keys "order" then
"edges", edges ascending pairs sorted lexicographically, compact separators,
no trailing whitespace, newline-terminated.  Golden files and round-trip
diffs rely on this.

Documents are written by joining strings, not by the json encoder.  Each
document first builds one table of vertex labels, ``str(v)`` for each v
below the largest order in it, and writes each edge endpoint by looking it
up: a witness between two quartic graphs of order 2000 converts 2000 ints,
not the 16 000 endpoints of their edges.  A Graph's endpoints are ints in
range(order) (its constructor refuses anything else), so the table writes
exactly what ``json.dumps(doc, separators=(",", ":"))`` would.  A witness's
map is converted entry by entry, not read through the table: VertexMap
checks nothing, and a negative entry would index the table from the end and
write a wrong number.  tests/test_serialize.py keeps the encoder as the
reference and pins the two byte-identical.  Both readers go through
``json.loads`` behind one parse guard, `_loads`; they check the shape, and
Graph is the integer check.
"""

from __future__ import annotations

import json

from .errors import InvalidParameterError
from .graphs import Graph
from .witnesses import VertexMap

__all__ = [
    "graph_to_json",
    "graph_from_json",
    "graph_to_dot",
    "graph_to_edgelist",
    "witness_to_json",
    "witness_from_json",
]


def _require_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameterError(f"{what} must be an integer, got {value!r}")
    return value


def _loads(text: str, kind: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"not a valid {kind} document: {exc}") from exc


def _graph_from_doc(doc: object) -> Graph:
    # the shape is checked here; Graph refuses an order or endpoint that is not an int
    if not isinstance(doc, dict) or set(doc) != {"order", "edges"}:
        raise InvalidParameterError('graph document must have exactly the keys "order" and "edges"')
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise InvalidParameterError("edges must be a list of [i,j] pairs")
    for item in edges:
        if not isinstance(item, list) or len(item) != 2:
            raise InvalidParameterError(f"edge entry {item!r} is not an [i,j] pair")
    return Graph(doc["order"], edges)


def _graph_text(g: Graph, labels: list[str]) -> str:
    # labels[v] is str(v): each endpoint is looked up, not converted
    edges = "],[".join([f"{labels[i]},{labels[j]}" for i, j in g.edges])
    return '{"order":%d,"edges":[%s]}' % (g.order, f"[{edges}]" if edges else "")


def graph_to_json(g: Graph) -> str:
    return _graph_text(g, list(map(str, range(g.order)))) + "\n"


def graph_from_json(text: str) -> Graph:
    return _graph_from_doc(_loads(text, "graph"))


def graph_to_dot(g: Graph) -> str:
    lines = ["graph {"]
    for v in range(g.order):
        lines.append(f"  {v};")
    for i, j in g.edges:
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_edgelist(g: Graph) -> str:
    return "".join(f"{i} {j}\n" for i, j in g.edges)


def witness_to_json(source: Graph, target: Graph, vm: VertexMap) -> str:
    labels = list(map(str, range(max(source.order, target.order))))
    # the map is converted, not looked up: VertexMap does not check its entries
    return '{"source":%s,"target":%s,"mapping":[%s]}\n' % (
        _graph_text(source, labels), _graph_text(target, labels), ",".join(map(str, vm.mapping)))


def witness_from_json(text: str) -> tuple[Graph, Graph, VertexMap]:
    doc = _loads(text, "witness")
    if not isinstance(doc, dict) or set(doc) != {"source", "target", "mapping"}:
        raise InvalidParameterError(
            'witness document must have exactly the keys "source", "target" and "mapping"'
        )
    source = _graph_from_doc(doc["source"])
    target = _graph_from_doc(doc["target"])
    mapping = doc["mapping"]
    if not isinstance(mapping, list):
        raise InvalidParameterError("mapping must be a list of integers")
    images = tuple(_require_int(x, "mapping entry") for x in mapping)
    if source.order != target.order:
        raise InvalidParameterError(f"orders differ: {source.order} vs {target.order}")
    if len(images) != source.order:
        raise InvalidParameterError(f"mapping has {len(images)} entries for order {source.order}")
    # whether the map is a bijection and an isomorphism is verify_witness's question
    return source, target, VertexMap(images)
