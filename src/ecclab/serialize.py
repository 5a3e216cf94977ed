"""JSON and DOT serialization for graphs and matrices.

Graph documents are plain JSON objects with 0-based vertices. Matrix
entries are written as decimal strings so arbitrary-precision integers
survive JSON number limits. ``graph_to_dict`` and ``matrix_to_dict`` define
the fields and their order; ``graph_to_json`` and ``matrix_to_json`` write
the bytes that ``json.dumps(..., indent=2)`` writes for those dicts, with
``str.join`` in place of json's pure-Python indent encoder, and build
neither dict. ``graph_to_json`` reads the graph's edges;
``matrix_to_json`` reads a matrix by its rows' nonzero entries, the form
of ``eccentric.eccentricity_rows``, and builds no ``IntMatrix``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NoReturn, Optional, Sequence

from .errors import InputError
from .graphs import Graph, build_graph
from .intmatrix import IntMatrix


@dataclass(frozen=True)
class GraphDocument:
    graph: Graph
    name: Optional[str] = None
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.labels is not None and len(self.labels) != self.graph.num_vertices:
            raise InputError("labels must cover every vertex")


def graph_to_dict(doc: GraphDocument) -> dict:
    out: dict = {
        "num_vertices": doc.graph.num_vertices,
        "edges": [[u, v] for u, v in doc.graph.edges],
    }
    if doc.name is not None:
        out["name"] = doc.name
    if doc.labels is not None:
        out["labels"] = list(doc.labels)
    return out


def _non_integer_edge(u: object, v: object) -> NoReturn:
    raise TypeError(f"edge {[u, v]} has an endpoint that is not an integer")


def graph_from_dict(data: dict) -> GraphDocument:
    """Read a graph document. ``num_vertices`` and the endpoints must be JSON
    integers (``type(x) is int`` rules out bools), ``name`` a string and
    ``labels`` a list of strings."""
    try:
        n = data["num_vertices"]
        if type(n) is not int:
            raise TypeError(f"num_vertices {n!r} is not an integer")
        edges = [
            (u, v) if type(u) is int and type(v) is int else _non_integer_edge(u, v)
            for u, v in data["edges"]
        ]
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise TypeError(f"name {name!r} is not a string")
        labels = data.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)
        ):
            raise TypeError("labels must be a list of strings")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    return GraphDocument(
        graph=build_graph(n, edges),
        name=name,
        labels=tuple(labels) if labels is not None else None,
    )


# Between two edges of a graph document: the end of one pair and the start
# of the next.
_EDGE_SEPARATOR = "\n    ],\n    [\n      "


def graph_to_json(doc: GraphDocument) -> str:
    """``json.dumps(graph_to_dict(doc), indent=2) + "\\n"``, written
    straight from the graph's edges: one join over the pairs' text."""
    edges = _EDGE_SEPARATOR.join([f"{u},\n      {v}" for u, v in doc.graph.edges])
    fields = [
        f'"num_vertices": {doc.graph.num_vertices}',
        f'"edges": [\n    [\n      {edges}\n    ]\n  ]' if edges else '"edges": []',
    ]
    if doc.name is not None:
        fields.append(f'"name": {json.dumps(doc.name)}')
    if doc.labels is not None:
        labels = ",\n    ".join(map(json.dumps, doc.labels))
        fields.append(f'"labels": [\n    {labels}\n  ]' if labels else '"labels": []')
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def save_graph(doc: GraphDocument, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_json(doc))


def load_graph(path: str) -> GraphDocument:
    """Read a graph document from a UTF-8 JSON file. Text that is not UTF-8,
    not JSON, or nested deeper than the decoder's recursion limit raises
    ``InputError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers json.JSONDecodeError and UnicodeDecodeError.
            raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("graph document must be a JSON object")
    return graph_from_dict(data)


def graph_to_dot(doc: GraphDocument) -> str:
    """Undirected DOT; vertex ids are used as labels unless labels are set.
    A label's backslashes and double quotes are escaped, so that neither
    can end its quoted string early."""
    lines = ["graph {"]
    for v in range(doc.graph.num_vertices):
        label = doc.labels[v] if doc.labels is not None else str(v)
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{label}"];')
    for u, v in doc.graph.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_to_dict(m: IntMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [list(map(str, row)) for row in m.entries],
    }


# An entry's text is followed by this separator unless it ends its row.
_SEPARATOR = ",\n      "
_ZERO = '"0"' + _SEPARATOR


def matrix_to_json(rows: Sequence[Sequence[tuple[int, int]]], cols: int) -> str:
    """``json.dumps(matrix_to_dict(m), indent=2) + "\\n"`` for the matrix m
    of ``len(rows)`` rows and ``cols`` columns whose row i is 0 except at
    the (column, entry) pairs of ``rows[i]``, listed in ascending column
    order.

    Each run of zeros is a slice of one string of ``cols`` zero entries,
    each distinct entry is formatted once, and the document is one join
    over every piece, so neither the n² strings of ``matrix_to_dict`` nor
    partial copies of the output are built."""
    if not rows or cols < 1:
        raise InputError("matrix dimensions must be positive")
    zeros = _ZERO * cols
    width, strip = len(_ZERO), len(_SEPARATOR)
    text: dict[int, str] = {}
    pieces = [f'{{\n  "rows": {len(rows)},\n  "cols": {cols},\n  "entries": [\n    [\n      ']
    for row in rows:
        col = 0
        for v, x in row:
            if v > col:
                pieces.append(zeros[: (v - col) * width])
            entry = text.get(x)
            if entry is None:
                # Entries are decimal strings, which need no escaping.
                entry = text[x] = f'"{x}"{_SEPARATOR}'
            pieces.append(entry)
            col = v + 1
        # The row's last entry drops its separator.
        if col < cols:
            pieces.append(zeros[: (cols - col) * width - strip])
        else:
            pieces[-1] = pieces[-1][:-strip]
        pieces.append("\n    ],\n    [\n      ")
    pieces[-1] = "\n    ]\n  ]\n}\n"
    return "".join(pieces)
