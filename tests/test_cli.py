import json
import time

import pytest

from ecclab import cli, eccentric, intmatrix
from ecclab.cli import build_parser, main
from ecclab.families import complete, cycle, grid, path, star
from ecclab.graphs import EDGE_CAP
from ecclab.intmatrix import IntMatrix
from ecclab.products import cartesian_product
from ecclab.serialize import GraphDocument, load_graph, matrix_to_dict, save_graph

# E(P_8) is the double star with centers 0 and 7; E(P_9) is the triangle
# {0,4,8} with three pendants on each of 0 and 8. Golden DOT renderings.
GOLDEN_E_P8_DOT = (
    "graph {\n"
    + "".join(f'  {v} [label="{v}"];\n' for v in range(8))
    + "  0 -- 4;\n  0 -- 5;\n  0 -- 6;\n  0 -- 7;\n"
    + "  1 -- 7;\n  2 -- 7;\n  3 -- 7;\n}\n"
)
GOLDEN_E_P9_DOT = (
    "graph {\n"
    + "".join(f'  {v} [label="{v}"];\n' for v in range(9))
    + "  0 -- 4;\n  0 -- 5;\n  0 -- 6;\n  0 -- 7;\n  0 -- 8;\n"
    + "  1 -- 8;\n  2 -- 8;\n  3 -- 8;\n  4 -- 8;\n}\n"
)


def write_doc(tmp_path, name, graph):
    p = tmp_path / name
    save_graph(GraphDocument(graph=graph), str(p))
    return str(p)


def test_gen_writes_document(tmp_path):
    out = tmp_path / "p8.json"
    assert main(["gen", "path", "8", "-o", str(out)]) == 0
    doc = load_graph(str(out))
    assert doc.graph == path(8)
    assert doc.name == "path(8)"


def test_gen_to_stdout(capsys):
    assert main(["gen", "grid", "3", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["num_vertices"] == 15


def test_gen_random_tree_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "random-tree", "12", "--seed", "7", "-o", str(a)]) == 0
    assert main(["gen", "random-tree", "12", "--seed", "7", "-o", str(b)]) == 0
    assert load_graph(str(a)).graph == load_graph(str(b)).graph


@pytest.mark.parametrize("family", ["path", "cycle", "star", "grid", "hypercube"])
def test_gen_refuses_a_seed_on_a_fixed_family_exit_2(tmp_path, capsys, family):
    # Only random-tree reads a seed; the other families are fixed graphs.
    out = tmp_path / "g.json"
    assert main(["gen", family, "3", *(["3"] if family == "grid" else []),
                 "--seed", "5", "-o", str(out)]) == 2
    message = f"family {family!r} takes no seed; only random-tree does"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_bad_params_exit_2(capsys):
    assert main(["gen", "cycle", "2"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["gen", "random-tree", "3", "4"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["path", "99999999"], "path(99999999) on 99999999 vertices exceeds the cap of 20000"),
        (["complete", "20000"],
         f"complete(20000) with 199990000 edges exceeds the cap of {EDGE_CAP}"),
        (["complete_bipartite", "10000", "10000"],
         f"complete_bipartite(10000, 10000) with 100000000 edges exceeds the cap of {EDGE_CAP}"),
        (["random-tree", "100000000"],
         "random-tree(100000000, seed=0) on 100000000 vertices exceeds the cap of 20000"),
        (["hypercube", "10000000000"],
         "hypercube(10000000000) on more than 2^64 vertices exceeds the cap of 20000"),
    ],
    ids=["path", "complete", "complete-bipartite", "random-tree", "hypercube"],
)
def test_gen_over_a_cap_exit_2_at_once(capsys, argv, message):
    start = time.perf_counter()
    assert main(["gen", *argv]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gen_grid_rejects_negative_sides_before_counting_exit_2(capsys):
    # -200 x -200 would count as 40,000 vertices: the sides are checked first.
    assert main(["gen", "grid", "-200", "-200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid needs at least two vertices per side\n"


@pytest.mark.parametrize("argv", [["hypercube", "14"], ["path", "20000"]])
def test_gen_at_the_caps_exit_0(tmp_path, argv):
    out = tmp_path / "g.json"
    assert main(["gen", *argv, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["num_vertices"] in (16384, 20000)


def test_ecc_matrix_builds_no_dense_table(tmp_path, capsys, monkeypatch):
    graphs = {"p40.json": path(40), "c41.json": cycle(41), "grid5x7.json": grid(5, 7)}
    expected = {
        name: json.dumps(matrix_to_dict(eccentric.eccentricity_matrix(g)), indent=2) + "\n"
        for name, g in graphs.items()
    }

    def no_table(*args, **kwargs):
        raise AssertionError("ecc --matrix built an n x n table")

    monkeypatch.setattr(cli, "eccentricity_determinant", no_table)
    monkeypatch.setattr(eccentric, "eccentricity_matrix", no_table)
    monkeypatch.setattr(IntMatrix, "__init__", no_table)
    for name, g in graphs.items():
        assert main(["ecc", write_doc(tmp_path, name, g), "--matrix"]) == 0
        assert capsys.readouterr().out == expected[name]


def test_ecc_dot_golden_files(tmp_path, capsys):
    p8 = write_doc(tmp_path, "p8.json", path(8))
    assert main(["ecc", p8, "--format", "dot"]) == 0
    assert capsys.readouterr().out == GOLDEN_E_P8_DOT
    p9 = write_doc(tmp_path, "p9.json", path(9))
    assert main(["ecc", p9, "--format", "dot"]) == 0
    assert capsys.readouterr().out == GOLDEN_E_P9_DOT


def test_ecc_c6_matching(tmp_path, capsys):
    from ecclab.families import cycle

    c6 = write_doc(tmp_path, "c6.json", cycle(6))
    assert main(["ecc", c6]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["edges"] == [[0, 3], [1, 4], [2, 5]]


def test_ecc_matrix_decimal_strings(tmp_path, capsys):
    s3 = write_doc(tmp_path, "s3.json", star(3))
    assert main(["ecc", s3, "--matrix"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"] == 4
    assert data["entries"][0] == ["0", "1", "1", "1"]
    assert data["entries"][1] == ["1", "0", "2", "2"]


def test_ecc_disconnected_exit_2(tmp_path, capsys):
    from ecclab.graphs import build_graph

    bad = tmp_path / "bad.json"
    save_graph(GraphDocument(graph=build_graph(4, [(0, 1), (2, 3)])), str(bad))
    assert main(["ecc", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_ecc_matrix_disconnected_exit_2(tmp_path, capsys):
    from ecclab.graphs import build_graph

    bad = tmp_path / "bad.json"
    save_graph(GraphDocument(graph=build_graph(3, [(0, 1)])), str(bad))
    assert main(["ecc", str(bad), "--matrix"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_det_exact_output(tmp_path, capsys):
    s3 = write_doc(tmp_path, "s3.json", star(3))
    assert main(["det", s3]) == 0
    assert capsys.readouterr().out == "-12\n"
    p2 = write_doc(tmp_path, "p2.json", path(2))
    assert main(["det", p2]) == 0
    assert capsys.readouterr().out == "-1\n"


def test_det_builds_no_dense_table(tmp_path, capsys, monkeypatch):
    graphs = {
        "p40.json": path(40),
        "c41.json": cycle(41),
        "grid5x7.json": grid(5, 7),
        "s7p2p2p2.json": cartesian_product([star(7)] + [path(2)] * 3)[0],
        "k2.json": complete(2),
    }
    expected = {
        name: f"{intmatrix.determinant(eccentric.eccentricity_matrix(g))}\n"
        for name, g in graphs.items()
    }

    def no_table(*args, **kwargs):
        raise AssertionError("det built an n x n table")

    monkeypatch.setattr(eccentric, "eccentricity_matrix", no_table)
    monkeypatch.setattr(IntMatrix, "__init__", no_table)
    monkeypatch.setattr(intmatrix, "determinant", no_table)
    for name, g in graphs.items():
        assert main(["det", write_doc(tmp_path, name, g)]) == 0
        assert capsys.readouterr().out == expected[name]


def test_det_prints_more_digits_than_int_to_str_allows_by_default(tmp_path, capsys):
    # det ε(C_1600) = 800^1600 has 4,645 digits, over the 4,300 that Python
    # (3.11, and 3.10.7 on) converts by default. 800^1600 = 2^4800 · 10^3200,
    # and 2^4800 has 1,445 digits, so the expected text needs no lifted limit.
    doc = tmp_path / "c1600.json"
    assert main(["gen", "cycle", "1600", "-o", str(doc)]) == 0
    assert main(["det", str(doc)]) == 0
    assert capsys.readouterr().out == f"{2 ** 4800}{'0' * 3200}\n"


def test_det_p5_p2_singular(tmp_path, capsys):
    product, _ = cartesian_product([path(5), path(2)])
    doc = write_doc(tmp_path, "prod.json", product)
    assert main(["det", doc]) == 0
    assert capsys.readouterr().out == "0\n"


def test_det_over_matrix_side_cap_exit_2(tmp_path, capsys):
    # P_4097 is one vertex over the cap; the check comes before the matrix.
    doc = tmp_path / "p4097.json"
    doc.write_text(json.dumps(
        {"num_vertices": 4097, "edges": [[v, v + 1] for v in range(4096)]}
    ))
    assert main(["det", str(doc)]) == 2
    assert capsys.readouterr().err == "error: 4097 vertices exceed the cap of 4096\n"


def test_ecc_matrix_over_matrix_side_cap_exit_2(tmp_path, capsys):
    doc = tmp_path / "p4097.json"
    doc.write_text(json.dumps(
        {"num_vertices": 4097, "edges": [[v, v + 1] for v in range(4096)]}
    ))
    assert main(["ecc", str(doc), "--matrix"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 4097 vertices exceed the cap of 4096\n"


@pytest.mark.parametrize("flags", [[], ["--format", "dot"]])
def test_ecc_over_matrix_side_cap_exit_2_before_the_kernel(tmp_path, capsys, monkeypatch, flags):
    runs = []
    monkeypatch.setattr(eccentric, "eccentric_sets", lambda *args: runs.append(args))
    doc = tmp_path / "e4097.json"
    doc.write_text(json.dumps({"num_vertices": 4097, "edges": []}))
    assert main(["ecc", str(doc), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 4097 vertices exceed the cap of 4096\n"
    assert runs == []


@pytest.mark.parametrize("flags", [[], ["--matrix"]])
def test_ecc_over_the_edge_cap_of_e_g_exit_2_at_once(tmp_path, capsys, flags):
    # S_707 is under every cap of its own; E(S_707) = K_708 has 250,278 edges.
    doc = write_doc(tmp_path, "s707.json", star(707))
    start = time.perf_counter()
    assert main(["ecc", doc, *flags]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: E(G) with 250278 edges exceeds the cap of {EDGE_CAP}\n"


def test_ecc_at_the_edge_cap_of_e_g_exit_0(tmp_path, capsys):
    # E(S_706) = K_707 has 249,571 edges, the most that a star's E(G) may have.
    doc = write_doc(tmp_path, "s706.json", star(706))
    out = tmp_path / "e.json"
    assert main(["ecc", doc, "-o", str(out)]) == 0
    assert load_graph(str(out)).graph == complete(707)
    assert main(["ecc", doc, "--matrix"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries[0] == ["0"] + ["1"] * 706
    assert entries[706] == ["1"] + ["2"] * 705 + ["0"]


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # a UTF-16 byte-order mark: not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # deeper than the decoder's recursion limit
], ids=["not-utf8", "deeply-nested"])
def test_ecc_on_an_unreadable_document_exit_2(tmp_path, capsys, content):
    doc = tmp_path / "doc.json"
    doc.write_bytes(content)
    assert main(["ecc", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_ecc_matrix_rejects_dot_format_exit_2(tmp_path, capsys):
    p4 = write_doc(tmp_path, "p4.json", path(4))
    assert main(["ecc", p4, "--matrix", "--format", "dot"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["gen", "ecc", "ecc-matrix", "product"])
def test_stdout_and_file_match_the_indent_encoder(tmp_path, capsys, command):
    src = tmp_path / "p4.json"
    src.write_text(json.dumps({
        "num_vertices": 4,
        "edges": [[0, 1], [1, 2], [2, 3]],
        "name": 'P4 "quoted" \\ caf\u00e9',
        "labels": ["a", "", "\u00fc", '"'],
    }))
    argv = {
        "gen": ["gen", "grid", "3", "4"],
        "ecc": ["ecc", str(src)],
        "ecc-matrix": ["ecc", str(src), "--matrix"],
        "product": ["product", str(src), str(src)],
    }[command]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    target = tmp_path / "out.json"
    assert main(argv + ["-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()


def test_parser_reused_across_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    p4 = write_doc(tmp_path, "p4.json", path(4))
    with pytest.raises(SystemExit):
        main(["ecc", p4, "--format", "svg"])
    capsys.readouterr()
    # After an argparse exit, and with no option carried over from an
    # earlier call.
    assert main(["ecc", p4, "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph {")
    assert main(["ecc", p4, "--matrix"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"][0] == ["0", "0", "2", "3"]
    assert main(["ecc", p4]) == 0
    assert json.loads(capsys.readouterr().out)["edges"] == [[0, 2], [0, 3], [1, 3]]
    # After an ecclab error, and across subcommands.
    assert main(["gen", "cycle", "2"]) == 2
    capsys.readouterr()
    assert main(["det", p4]) == 0
    assert capsys.readouterr().out == "16\n"
    assert main(["gen", "path", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "path(3)"


def test_product_cartesian(tmp_path, capsys):
    p3 = write_doc(tmp_path, "p3.json", path(3))
    p5 = write_doc(tmp_path, "p5.json", path(5))
    assert main(["product", p3, p5]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["num_vertices"] == 15
    assert "row-major" in data["name"]


@pytest.mark.parametrize("kind, edges", [("cartesian", 2783340), ("kronecker", 194833800)])
def test_product_over_the_edge_cap_exit_2_at_once(tmp_path, capsys, kind, edges):
    # K_141's square has 19,881 vertices, under the vertex cap.
    k141 = write_doc(tmp_path, "k141.json", complete(141))
    start = time.perf_counter()
    assert main(["product", k141, k141, "--kind", kind]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: product with {edges} edges exceeds the cap of {EDGE_CAP}\n"


def test_product_kronecker_arity(tmp_path, capsys):
    p3 = write_doc(tmp_path, "p3.json", path(3))
    assert main(["product", p3, p3, p3, "--kind", "kronecker"]) == 2
    capsys.readouterr()


def test_check_suite_pass(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["check", "cncn-iso"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS cncn-iso")
    report = json.loads((tmp_path / "cncn-iso-report.json").read_text())
    assert report["fail_count"] == 0
    assert report["first_failure_witness"] is None


def test_check_report_path_flag(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    assert main(["check", "grid", "--report", str(report_path)]) == 0
    capsys.readouterr()
    assert json.loads(report_path.read_text())["check_name"] == "grid"


def test_check_unknown_suite_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "no-such-suite"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_check_bad_jobs_flag_exit_2(tmp_path, capsys):
    assert main(["check", "grid", "--jobs", "0", "--report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_negative_samples_exit_2(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["check", "additivity", "--samples", "-3", "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "grid", "--trees-max-n", "99"],
        ["check", "additivity", "--trees-max-n", "99", "--samples", "3"],
        ["check", "grid", "--samples", "5"],
        ["check", "cncn-iso", "--samples", "0"],
        ["check", "grid", "--seed", "5"],
        ["check", "additivity", "--trees-max-n", "5", "--samples", "1"],
    ],
)
def test_check_rejects_unused_options_exit_2(tmp_path, capsys, argv):
    report = tmp_path / "r.json"
    assert main(argv + ["--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.exists()


def test_check_empty_corpus_exit_1(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["check", "additivity", "--samples", "0", "--report", str(report)]) == 1
    assert capsys.readouterr().out.startswith("FAIL additivity: 0 passed")
    assert json.loads(report.read_text())["pass_count"] == 0


def test_check_report_keys(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["check", "cncn-iso", "--report", str(report)]) == 0
    capsys.readouterr()
    assert list(json.loads(report.read_text())) == [
        "check_name", "corpus", "pass_count", "fail_count",
        "first_failure_witness", "wall_time", "seed",
    ]


def test_check_fixed_corpus_reports_no_seed(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["check", "cncn-iso", "--report", str(report)]) == 0
    assert "seed" not in capsys.readouterr().out
    assert json.loads(report.read_text())["seed"] is None


def test_missing_input_exit_2(capsys):
    assert main(["ecc", "/nonexistent/file.json"]) == 2
    capsys.readouterr()
