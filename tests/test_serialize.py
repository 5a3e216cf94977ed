import pytest

from ecclab.errors import InputError
from ecclab.families import cycle, path
from ecclab.intmatrix import IntMatrix
from ecclab.serialize import (
    GraphDocument,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    load_graph,
    matrix_to_dict,
    save_graph,
)


def test_json_roundtrip(tmp_path):
    doc = GraphDocument(graph=cycle(5), name="C5", labels=("a", "b", "c", "d", "e"))
    p = tmp_path / "g.json"
    save_graph(doc, str(p))
    loaded = load_graph(str(p))
    assert loaded == doc


def test_dict_roundtrip_without_optionals():
    doc = GraphDocument(graph=path(3))
    data = graph_to_dict(doc)
    assert data == {"num_vertices": 3, "edges": [[0, 1], [1, 2]]}
    assert graph_from_dict(data) == doc


def test_malformed_documents():
    with pytest.raises(InputError):
        graph_from_dict({"edges": [[0, 1]]})
    with pytest.raises(InputError):
        graph_from_dict({"num_vertices": 2, "edges": [[0, 2]]})
    with pytest.raises(InputError):
        GraphDocument(graph=path(3), labels=("only-one",))


def test_load_rejects_non_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json at all")
    with pytest.raises(InputError):
        load_graph(str(p))
    p.write_text("[1, 2, 3]")
    with pytest.raises(InputError):
        load_graph(str(p))


def test_dot_output():
    dot = graph_to_dot(GraphDocument(graph=path(3)))
    assert dot == (
        "graph {\n"
        '  0 [label="0"];\n'
        '  1 [label="1"];\n'
        '  2 [label="2"];\n'
        "  0 -- 1;\n"
        "  1 -- 2;\n"
        "}\n"
    )
    labeled = graph_to_dot(GraphDocument(graph=path(2), labels=("x", "y")))
    assert '0 [label="x"];' in labeled


def test_matrix_roundtrip_with_big_integers():
    big = 10**40
    m = IntMatrix.from_rows([[0, big], [-big, 1]])
    data = matrix_to_dict(m)
    assert data == {"rows": 2, "cols": 2, "entries": [["0", str(big)], [str(-big), "1"]]}
