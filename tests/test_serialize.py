"""Graph and witness document round-trips and golden strings."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_oracle import _census_graphs

from accordions import (
    Graph,
    InvalidParameterError,
    VertexMap,
    accordion,
    accordion_witness,
    circulant,
    circulant_accordion_witness,
    cycle_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_edgelist,
    graph_to_json,
    path_graph,
    verify_witness,
    witness_from_json,
    witness_to_json,
)


def test_json_golden_triangle():
    assert graph_to_json(cycle_graph(3)) == '{"order":3,"edges":[[0,1],[0,2],[1,2]]}\n'


def test_json_is_newline_terminated_without_trailing_space():
    doc = graph_to_json(accordion(4, 2))
    assert doc.endswith("\n") and not doc.rstrip("\n").endswith(" ")


def test_json_roundtrip_family():
    g = accordion(7, 3)
    assert graph_from_json(graph_to_json(g)) == g


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph(n, tuple(edges))


@given(graphs())
def test_json_roundtrip_random(g):
    assert graph_from_json(graph_to_json(g)) == g


def test_dot_golden_triangle():
    assert graph_to_dot(cycle_graph(3)) == (
        "graph {\n  0;\n  1;\n  2;\n  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n"
    )


def test_dot_lists_every_vertex():
    g = Graph(4, ((0, 1),))  # vertices 2,3 isolated
    dot = graph_to_dot(g)
    for v in range(4):
        assert f"  {v};" in dot


def test_edgelist_golden():
    assert graph_to_edgelist(cycle_graph(3)) == "0 1\n0 2\n1 2\n"


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"order":3}',
        '{"order":3,"edges":[[0,1]],"extra":1}',
        '{"order":"3","edges":[]}',
        '{"order":3,"edges":[[0,1,2]]}',
        '{"order":3,"edges":[[0,0]]}',
        '{"order":3,"edges":[[0,5]]}',
        '{"order":3,"edges":[[0,1],[1,0]]}',
        '{"order":true,"edges":[]}',
        '{"order":3.0,"edges":[]}',
        '{"order":0,"edges":[]}',
        '{"order":3,"edges":[[0,1.0]]}',
        '{"order":3,"edges":[[true,2]]}',
    ],
)
def test_graph_parse_errors(text):
    with pytest.raises(InvalidParameterError):
        graph_from_json(text)


def test_witness_roundtrip():
    g = cycle_graph(4)
    h = g.relabel([1, 2, 3, 0])
    vm = VertexMap((1, 2, 3, 0))
    doc = witness_to_json(g, h, vm)
    src, tgt, back = witness_from_json(doc)
    assert src == g and tgt == h and back == vm


@pytest.mark.parametrize("reader, kind", [(graph_from_json, "graph"), (witness_from_json, "witness")])
def test_text_that_is_not_json_names_the_document_kind(reader, kind):
    with pytest.raises(InvalidParameterError) as info:
        reader('{"order":')
    assert str(info.value) == f"not a valid {kind} document: Expecting value: line 1 column 10 (char 9)"
    assert isinstance(info.value.__cause__, json.JSONDecodeError)


def test_witness_parse_errors():
    with pytest.raises(InvalidParameterError):
        witness_from_json('{"source":{},"target":{},"mapping":[]}')
    with pytest.raises(InvalidParameterError):
        witness_from_json("[]")


_C3 = '{"order":3,"edges":[[0,1],[0,2],[1,2]]}'
_K4 = '{"order":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}'


@pytest.mark.parametrize(
    "source,target,mapping",
    [
        (_C3, _K4, "[0,1,2]"),  # orders differ
        (_K4, _C3, "[0,1,2]"),
        (_C3, _C3, "[0,1]"),  # short mapping
        (_C3, _C3, "[0,1,2,0]"),  # long mapping
        (_C3, _C3, "[0,1,2.0]"),  # non-integer entry
        (_C3, _C3, "[0,1,true]"),
        (_C3, _C3, '"012"'),  # not a list
    ],
)
def test_witness_mapping_errors(source, target, mapping):
    with pytest.raises(InvalidParameterError):
        witness_from_json(f'{{"source":{source},"target":{target},"mapping":{mapping}}}')


def test_witness_bijectivity_is_left_to_verify_witness():
    # a well-formed document parses; verify_witness rejects the map
    src, tgt, vm = witness_from_json(f'{{"source":{_C3},"target":{_C3},"mapping":[0,1,5]}}')
    assert vm.mapping == (0, 1, 5)
    assert not verify_witness(src, tgt, vm)


_GRAPH = '{"order":2,"edges":[[0,1]]}'


@pytest.mark.parametrize(
    "source,target",
    [
        ("[]", _GRAPH),  # source is not an object
        (_GRAPH, '{"order":2,"edges":[[0,1]],"extra":1}'),
        ('{"order":true,"edges":[]}', _GRAPH),
        (_GRAPH, '{"order":2,"edges":{"0":1}}'),
    ],
)
def test_witness_parse_errors_in_nested_graphs(source, target):
    with pytest.raises(InvalidParameterError):
        witness_from_json(f'{{"source":{source},"target":{target},"mapping":[0,1]}}')


# The json encoder that wrote documents before the one-pass formatter: the
# formatter must match it byte for byte.
def _reference_graph_doc(g):
    return {"order": g.order, "edges": [list(e) for e in g.edges]}


def _reference_graph_to_json(g):
    return json.dumps(_reference_graph_doc(g), separators=(",", ":")) + "\n"


def _reference_witness_to_json(source, target, vm):
    doc = {"source": _reference_graph_doc(source), "target": _reference_graph_doc(target),
           "mapping": list(vm.mapping)}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _assert_graph_and_identity_witness_match(g):
    assert graph_to_json(g) == _reference_graph_to_json(g)
    vm = VertexMap(tuple(range(g.order)))
    assert witness_to_json(g, g, vm) == _reference_witness_to_json(g, g, vm)


@pytest.mark.parametrize("g", [path_graph(1), cycle_graph(3)], ids=["P1", "C3"])
def test_json_matches_the_json_encoder_on_small_graphs(g):
    _assert_graph_and_identity_witness_match(g)


def test_json_matches_the_json_encoder_on_the_census_grid():
    seen = 0
    for g in _census_graphs():
        _assert_graph_and_identity_witness_match(g)
        seen += 1
    assert seen == 1220


@pytest.mark.parametrize(
    "certificate",
    [
        lambda: (accordion(1000, 334), accordion(1000, 6), accordion_witness(1000, 6, 334)),
        lambda: (circulant(1000, 3, 997), accordion(1000, 2), circulant_accordion_witness(1000, 3, 997, 2)),
    ],
    ids=["A[1000,334]->A[1000,6]", "Ci[2000,{3,997}]->A[1000,2]"],
)
def test_json_matches_the_json_encoder_at_order_2000(certificate):
    source, target, vm = certificate()
    assert verify_witness(source, target, vm)
    assert graph_to_json(source) == _reference_graph_to_json(source)
    assert graph_to_json(target) == _reference_graph_to_json(target)
    assert witness_to_json(source, target, vm) == _reference_witness_to_json(source, target, vm)
