"""JSON and DOT serialization for graphs, matrices, and check reports.

Graph documents are plain JSON objects with 0-based vertices. Matrix
entries are written as decimal strings so arbitrary-precision integers
survive JSON number limits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

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


def graph_from_dict(data: dict) -> GraphDocument:
    try:
        n = int(data["num_vertices"])
        edges = [(int(u), int(v)) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    name = data.get("name")
    labels = data.get("labels")
    return GraphDocument(
        graph=build_graph(n, edges),
        name=name,
        labels=tuple(str(x) for x in labels) if labels is not None else None,
    )


def save_graph(doc: GraphDocument, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(doc), fh, indent=2)
        fh.write("\n")


def load_graph(path: str) -> GraphDocument:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("graph document must be a JSON object")
    return graph_from_dict(data)


def graph_to_dot(doc: GraphDocument) -> str:
    """Undirected DOT; vertex ids are used as labels unless labels are set."""
    lines = ["graph {"]
    for v in range(doc.graph.num_vertices):
        label = doc.labels[v] if doc.labels is not None else str(v)
        lines.append(f'  {v} [label="{label}"];')
    for u, v in doc.graph.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_to_dict(m: IntMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in row] for row in m.entries],
    }
