"""Spans around ecclab's public functions, recorded from outside the package.

``Tracer.install`` wraps each traced function and rebinds the wrapper under
every name that refers to it in every loaded ``ecclab`` module, because the
modules call one another through their own globals: ``suites`` calls
``eccentric_girth`` as ``suites.eccentric_girth``. A span records its name,
start, end and parent; spans are kept in flat arrays and written out once,
when the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

TRACED = {
    "graphs": ("all_pairs_distances", "girth", "connected_components", "is_connected"),
    "eccentric": ("eccentric_graph", "eccentricity_matrix", "eccentric_girth",
                  "eccentricity_profile"),
    "trees": ("prufer_decode", "random_tree", "diametrical_paths", "induced_subtree",
              "check_structure_theorem", "predicted_tree_girth", "check_monotone_exclusion"),
    "products": ("cartesian_product", "kronecker_product_graph", "check_additivity",
                 "check_componentwise_eccentric", "check_kronecker_correspondence",
                 "predicted_tree_product_girth"),
    "intmatrix": ("determinant", "determinant_oracle", "kronecker_matrix"),
    "invertibility": ("check_invertibility_classification", "star_product_determinant_probe"),
    # save_graph is left out: no workload reaches it (the queries never pass
    # -o), and the per-layer metrics are capped at 128.
    "serialize": ("load_graph", "graph_to_dict", "matrix_to_dict"),
    "cli": ("main",),
    "suites": ("run_suite",),
}

# Work counters recorded at the same boundaries as the spans, with their units.
COUNTERS = {
    "graphs.all_pairs_distances.vertices": "count",
    "graphs.all_pairs_distances.pair_entries": "count",
    "graphs.all_pairs_distances.distinct_ratio": "ratio",
    "eccentric.eccentric_graph.edges_out": "count",
    "eccentric.eccentricity_matrix.entries": "count",
    "trees.diametrical_paths.calls_per_tree": "ratio",
    "products.cartesian_product.vertices_out": "count",
    "products.cartesian_product.edges_out": "count",
    "intmatrix.determinant.side3": "count",
    "intmatrix.determinant.max_bits": "bits",
    "serialize.bytes": "bytes",
}

SUITES = ("tree-girth", "structure", "monotone", "product-girth", "kronecker-correspondence",
          "additivity", "componentwise", "grid", "cycle-product", "invertibility",
          "kronecker-det")

ROOT_SPAN = "call"  # one per timed call: the spans of a call share its root


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, names in TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
            units[f"{module}.{name}.total_s"] = "s"
    units.update(COUNTERS)
    for suite in SUITES:
        units[f"suites.{suite}.wall_s"] = "s"
        units[f"suites.{suite}.cases"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.names = [ROOT_SPAN] + [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.enabled = False
        self.counts: Counter = Counter()
        self.max_bits = 0
        # Distinct inputs are counted per round, since rounds repeat them.
        self.apsp_inputs: set[int] = set()
        self.path_trees: set[int] = set()
        self.apsp_distinct = 0
        self.trees_seen = 0
        self.rebound: list[tuple] = []

    def begin(self, name_id: int) -> int:
        i = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def end_round(self) -> None:
        self.apsp_distinct += len(self.apsp_inputs)
        self.trees_seen += len(self.path_trees)
        self.apsp_inputs.clear()
        self.path_trees.clear()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "ecclab" or name.startswith("ecclab.")]
        counters = self._counters()
        for name_id, qualified in enumerate(self.names[1:], start=1):
            module, name = qualified.split(".")
            original = getattr(sys.modules[f"ecclab.{module}"], name)
            wrapper = self._wrap(name_id, original, counters.get(qualified))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self.rebound.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in self.rebound:
            setattr(m, attr, original)
        self.rebound.clear()

    def _wrap(self, name_id: int, fn: Callable, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if counter is not None:
                counter(args, result)
            return result

        return traced

    def _counters(self) -> dict[str, Callable]:
        c = self.counts

        def apsp(args, result):
            g = args[0]
            c["graphs.all_pairs_distances.vertices"] += g.num_vertices
            c["graphs.all_pairs_distances.pair_entries"] += g.num_vertices ** 2
            self.apsp_inputs.add(hash((g.num_vertices, g.edges)))

        def eccentric_graph(args, result):
            c["eccentric.eccentric_graph.edges_out"] += len(result.edges)

        def eccentricity_matrix(args, result):
            c["eccentric.eccentricity_matrix.entries"] += result.rows * result.cols

        def diametrical_paths(args, result):
            g = args[0].graph
            self.path_trees.add(hash((g.num_vertices, g.edges)))

        def cartesian_product(args, result):
            c["products.cartesian_product.vertices_out"] += result[0].num_vertices
            c["products.cartesian_product.edges_out"] += len(result[0].edges)

        def determinant(args, result):
            c["intmatrix.determinant.side3"] += args[0].rows ** 3
            self.max_bits = max(self.max_bits, abs(result).bit_length())

        def load_graph(args, result):
            c["serialize.bytes"] += os.path.getsize(args[0])

        return {
            "graphs.all_pairs_distances": apsp,
            "eccentric.eccentric_graph": eccentric_graph,
            "eccentric.eccentricity_matrix": eccentricity_matrix,
            "trees.diametrical_paths": diametrical_paths,
            "products.cartesian_product": cartesian_product,
            "intmatrix.determinant": determinant,
            "serialize.load_graph": load_graph,
        }

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and total time per traced function, plus counters."""
        n = len(self.name_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            duration = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += duration
            own[k] += duration - child[i]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = own[k]
            out[f"{name}.total_s"] = total[k]
        for name in COUNTERS:
            out[name] = self.counts[name]
        apsp_calls = out["graphs.all_pairs_distances.calls"]
        out["graphs.all_pairs_distances.distinct_ratio"] = (
            self.apsp_distinct / apsp_calls if apsp_calls else 0.0
        )
        path_calls = out["trees.diametrical_paths.calls"]
        out["trees.diametrical_paths.calls_per_tree"] = (
            path_calls / self.trees_seen if self.trees_seen else 0.0
        )
        out["intmatrix.determinant.max_bits"] = self.max_bits
        return out

    def write_spans(self, path: Path, header: dict) -> None:
        """One tab-separated line per span: id, name, start, end (seconds
        from the first span) and parent id (-1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for key, value in header.items():
                fh.write(f"# {key}: {value}\n")
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.name_id)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n")
