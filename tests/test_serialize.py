import json

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from ecclab.errors import InputError
from ecclab.eccentric import eccentricity_matrix, eccentricity_rows
from ecclab.families import complete, cycle, grid, hypercube, path, star
from ecclab.graphs import build_graph
from ecclab.products import cartesian_product
from ecclab.intmatrix import IntMatrix
from ecclab.serialize import (
    GraphDocument,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    graph_to_json,
    load_graph,
    matrix_to_dict,
    matrix_to_json,
    save_graph,
)

# Quotes, backslashes, control characters, non-ASCII and astral characters,
# and the empty string.
AWKWARD_TEXT = st.text() | st.sampled_from(['', '"', "\\", 'a"b\\c', "\n\t", "é", "\U0001f600"])


@st.composite
def documents(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    name = draw(st.none() | AWKWARD_TEXT)
    labels = draw(st.none() | st.lists(AWKWARD_TEXT, min_size=n, max_size=n))
    return GraphDocument(
        graph=build_graph(n, edges),
        name=name,
        labels=None if labels is None else tuple(labels),
    )


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    # Zero often enough for all-zero rows and runs of zeros.
    entry = st.integers() | st.just(0) | st.sampled_from([10**40, -(10**40)])
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return IntMatrix(rows=rows, cols=cols, entries=tuple(map(tuple, grid)))


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


@settings(max_examples=300)
@given(documents())
def test_graph_to_json_matches_the_indent_encoder(doc):
    text = graph_to_json(doc)
    assert text == json.dumps(graph_to_dict(doc), indent=2) + "\n"
    assert graph_from_dict(json.loads(text)) == doc


@st.composite
def connected_graphs(draw):
    """A random tree on up to 12 vertices, each vertex joined to an earlier
    one, plus any further edges."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return build_graph(n, sorted(edges))


def nonzero_entries(m):
    return [[(v, x) for v, x in enumerate(row) if x] for row in m.entries]


def eccentricity_matrix_json(graph):
    return json.dumps(matrix_to_dict(eccentricity_matrix(graph)), indent=2) + "\n"


@settings(max_examples=200)
@given(matrices())
@example(IntMatrix.from_rows([[0]]))
@example(IntMatrix.from_rows([[7]]))
@example(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
@example(IntMatrix.from_rows([[3, 0, 0], [0, 0, 0], [0, 0, -3]]))
@example(IntMatrix.from_rows([[1, 0, 2], [0, 5, 0], [4, 4, 4]]))
def test_matrix_to_json_matches_the_indent_encoder(m):
    text = matrix_to_json(nonzero_entries(m), m.cols)
    assert text == json.dumps(matrix_to_dict(m), indent=2) + "\n"


@pytest.mark.parametrize(
    "graph",
    [path(n) for n in range(2, 41)]
    + [cycle(n) for n in range(3, 41)]
    + [grid(m, n) for m, n in ((2, 2), (3, 7), (6, 6), (9, 13), (17, 17))]
    + [hypercube(5)]
    # Dense rows: every entry off the diagonal is 1.
    + [pytest.param(complete(n), id=f"K{n}") for n in range(2, 9)]
    + [
        pytest.param(cartesian_product([star(n)] + [path(2)] * j)[0], id=f"S{n}xP2^{j}")
        for n in (3, 7)
        for j in (1, 2, 3)
    ],
    ids=lambda g: f"{g.num_vertices}v{g.num_edges}e",
)
def test_eccentricity_matrix_json_matches_the_indent_encoder(graph):
    # Entries repeat along every row and reach two digits.
    text = matrix_to_json(eccentricity_rows(graph), graph.num_vertices)
    assert text == eccentricity_matrix_json(graph)


@settings(max_examples=200)
@given(connected_graphs())
def test_eccentricity_rows_json_on_random_connected_graphs(graph):
    text = matrix_to_json(eccentricity_rows(graph), graph.num_vertices)
    assert text == eccentricity_matrix_json(graph)


def test_json_writers_on_edge_cases():
    single = GraphDocument(graph=build_graph(1, []), name='q"\\é', labels=("",))
    assert graph_to_json(single) == (
        '{\n  "num_vertices": 1,\n  "edges": [],\n'
        '  "name": "q\\"\\\\\\u00e9",\n  "labels": [\n    ""\n  ]\n}\n'
    )
    assert matrix_to_json([[(1, -(10**40))]], 2) == (
        '{\n  "rows": 1,\n  "cols": 2,\n  "entries": [\n    [\n'
        '      "0",\n      "-1' + "0" * 40 + '"\n    ]\n  ]\n}\n'
    )
    for rows, cols in (([], 3), ([[]], 0)):
        with pytest.raises(InputError):
            matrix_to_json(rows, cols)


def test_malformed_documents():
    with pytest.raises(InputError):
        graph_from_dict({"edges": [[0, 1]]})
    with pytest.raises(InputError):
        graph_from_dict({"num_vertices": 2, "edges": [[0, 2]]})
    with pytest.raises(InputError):
        GraphDocument(graph=path(3), labels=("only-one",))


@pytest.mark.parametrize(
    "data",
    [
        {"num_vertices": 3, "edges": [[0, 1], [1, 2]], "labels": "abc"},
        {"num_vertices": 3, "edges": [[0, 1], [1, 2]], "labels": [1, 2, 3]},
        {"num_vertices": 3.9, "edges": [[0, 1], [1, 2]]},
        {"num_vertices": "3", "edges": [[0, 1], [1, 2]]},
        {"num_vertices": True, "edges": []},
        {"num_vertices": 3, "edges": [[0, 1], [1, 2]], "name": 7},
        {"num_vertices": 3, "edges": [[0, 1.0], [1, 2]]},
        {"num_vertices": 3, "edges": [[0, 1], ["1", 2]]},
        {"num_vertices": 3, "edges": [[0, 1], [True, 2]]},
    ],
    ids=["labels-string", "labels-ints", "num-vertices-float", "num-vertices-string",
         "num-vertices-bool", "name-int", "endpoint-float", "endpoint-string", "endpoint-bool"],
)
def test_graph_from_dict_rejects_non_json_types(data):
    with pytest.raises(InputError, match="^malformed graph document: "):
        graph_from_dict(data)


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


def test_dot_escapes_quotes_and_backslashes_in_labels():
    dot = graph_to_dot(GraphDocument(graph=path(2), labels=('a"b', "c\\")))
    assert '  0 [label="a\\"b"];\n' in dot
    assert '  1 [label="c\\\\"];\n' in dot


def test_matrix_roundtrip_with_big_integers():
    big = 10**40
    m = IntMatrix.from_rows([[0, big], [-big, 1]])
    data = matrix_to_dict(m)
    assert data == {"rows": 2, "cols": 2, "entries": [["0", str(big)], [str(-big), "1"]]}
