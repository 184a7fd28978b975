"""End-to-end CLI coverage at n=2: every subcommand, exit codes, and
byte-for-byte determinism of reports."""

import json
import re
from types import SimpleNamespace

from mixdih import cli
from mixdih.cli import main
from mixdih.group import context


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(capsys):
    code, out, _ = run_cli(capsys, "info", "--n", "2")
    assert code == 0
    assert "2^10" in out and "1024" in out


def test_info_json(capsys):
    code, out, _ = run_cli(capsys, "info", "--n", "2", "--json")
    data = json.loads(out)
    assert data["group_order"] == "1024"
    assert data["sigma_valency"] == 4
    assert data["gamma_valency"] == 6
    assert data["dimension_table"]["u"] == 6


def test_info_n3(capsys):
    code, out, _ = run_cli(capsys, "info", "--n", "3", "--json")
    data = json.loads(out)
    assert data["group_order_exp"] == 24
    assert data["sigma_vertices_exp"] == 22
    assert data["sigma_valency"] == 8


def test_info_rejects_n1(capsys):
    code, out, err = run_cli(capsys, "info", "--n", "1")
    assert code == 2
    assert "error" in err


def test_graph_sigma_edgelist(tmp_path, capsys):
    out_path = tmp_path / "sigma.edges"
    code, _, _ = run_cli(capsys, "graph", "--n", "2", "--kind", "sigma",
                         "--format", "edgelist", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# hn-graph n=2 kind=sigma vertices=512 edges=1024"
    assert len(lines) == 1025


def test_graph_quotient_stdout(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "2", "--kind", "quotient")
    assert code == 0
    assert out.splitlines()[0] == \
        "# hn-graph n=2 kind=quotient vertices=8 edges=16"


def test_graph_linegraph(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "2", "--kind", "linegraph")
    assert out.splitlines()[0] == \
        "# hn-graph n=2 kind=linegraph vertices=1024 edges=3072"


def test_graph_labels(tmp_path, capsys):
    out_path = tmp_path / "q.edges"
    code, _, _ = run_cli(capsys, "graph", "--n", "2", "--kind", "sigma",
                         "--out", str(out_path), "--labels")
    labels = (out_path.parent / "q.edges.labels").read_text().splitlines()
    assert len(labels) == 512
    assert labels[0].split("\t") == ["0", "X", "a:0;b:0;w:0;t:0"]


def test_graph_labels_name_every_vertex_at_rank3(monkeypatch):
    # the naming the CLI writes with --labels covers every vertex id,
    # without the 2^22-vertex coset graph being built here
    monkeypatch.setattr(cli.gr, "build_sigma",
                        lambda ctx, force: SimpleNamespace(graph=None))
    monkeypatch.setattr(cli.gr, "build_gamma", lambda ctx, force: None)
    monkeypatch.setattr(cli.gr, "quotient_by_derived", lambda ctx, sig: None)
    ctx = context(3)
    _, name = cli._build_kind(ctx, "sigma", False)
    assert name(1) == "a:0;b:1;w:0;t:0"
    assert name(1 << 21) == "a:0;b:0;w:0;t:0"  # first Y-side vertex
    _, name = cli._build_kind(ctx, "gamma", False)
    assert name(1) == "a:1;b:0;w:0;t:0"
    assert cli._build_kind(ctx, "quotient", False)[1] is None


def test_graph_cap_without_force(capsys):
    code, _, err = run_cli(capsys, "graph", "--n", "4", "--kind", "sigma")
    assert code == 2
    assert "force" in err


def test_graph_linegraph_cap_before_any_build(monkeypatch, capsys):
    # L(sigma(3)) has one vertex per element, 2^24 > the 2^23 cap; the cap
    # must stop it before sigma(3) is built
    def no_build(ctx, force):
        raise AssertionError("sigma was built")

    monkeypatch.setattr(cli.gr, "build_sigma", no_build)
    code, out, err = run_cli(capsys, "graph", "--n", "3", "--kind",
                             "linegraph")
    assert code == 2 and out == ""
    assert "line graph would have 16777216 vertices" in err


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "2", "--kind", "quotient",
                           "--format", "dot")
    assert out.startswith("graph {")
    assert out.count(" -- ") == 16


def test_verify_core_small_samples(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--suite", "core",
                           "--samples", "200")
    assert code == 0
    assert "overall: pass" in out
    assert "presentation-relators: pass" in out


def test_verify_symmetry_has_certificate(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--suite",
                           "symmetry", "--samples", "100")
    assert code == 0
    assert "semisymmetry-certificate: pass" in out


def test_verify_json_deterministic(capsys):
    args = ["verify", "--n", "2", "--suite", "core", "--samples", "150",
            "--seed", "7", "--json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["overall"] == "pass"
    assert report["suite"] == "core"
    names = [c["name"] for c in report["checks"]]
    assert "jacobi-identity" in names
    assert all(set(c) == {"name", "status", "expected", "actual",
                          "runtime_ms"} for c in report["checks"])


def test_verify_timing_appends_runtimes(capsys):
    args = ["verify", "--n", "2", "--suite", "graphs", "--samples", "50"]
    code, plain, _ = run_cli(capsys, *args)
    code_timed, timed, _ = run_cli(capsys, *args, "--timing")
    assert code == code_timed == 0
    lines, timed_lines = plain.splitlines(), timed.splitlines()
    assert "coset-graph-stats: pass" in lines  # no runtime without --timing
    assert lines[-1] == timed_lines[-1] == "overall: pass"
    assert len(lines) == len(timed_lines) == 8
    for line, timed_line in zip(lines[:-1], timed_lines[:-1]):
        assert re.fullmatch(re.escape(line) + r"  \[\d+ ms\]", timed_line)


def test_diagram_x(capsys):
    code, out, _ = run_cli(capsys, "diagram", "--n", "2", "--root", "X",
                           "--json")
    data = json.loads(out)
    assert data["layers"] == [1, 4, 12, 36, 54, 108, 108, 108, 81]
    assert sum(data["layers"]) == 512


def test_diagram_y_refined(capsys):
    code, out, _ = run_cli(capsys, "diagram", "--n", "2", "--root", "Y",
                           "--refine", "--json")
    data = json.loads(out)
    assert data["layers"] == [1, 4, 12, 36, 81, 108, 135, 108, 27]
    assert sorted(data["cells"][4]) == [9, 72]
    assert sorted(data["cells"][6]) == [27, 108]


def test_diagram_text(capsys):
    code, out, _ = run_cli(capsys, "diagram", "--n", "2", "--root", "X")
    assert "distance | cells" in out
    assert code == 0


def test_element_mul(capsys):
    code, out, _ = run_cli(capsys, "element", "--n", "2", "mul",
                           "a:1;b:0;w:0;t:0", "a:1;b:0;w:0;t:0")
    assert out.strip() == "a:0;b:0;w:0;t:0"


def test_element_comm(capsys):
    code, out, _ = run_cli(capsys, "element", "--n", "2", "comm",
                           "a:1;b:0;w:0;t:0", "a:0;b:1;w:0;t:0")
    assert out.strip() == "a:0;b:0;w:1;t:0"


def test_element_inv(capsys):
    code, out, _ = run_cli(capsys, "element", "--n", "2", "inv",
                           "a:1;b:1;w:0;t:0")
    assert out.strip() == "a:1;b:1;w:1;t:0"


def test_element_parse_error(capsys):
    code, _, err = run_cli(capsys, "element", "--n", "2", "inv", "nonsense")
    assert code == 2
    assert "error" in err


def test_element_wrong_arity(capsys):
    code, _, err = run_cli(capsys, "element", "--n", "2", "mul",
                           "a:1;b:0;w:0;t:0")
    assert code == 2


def test_hall_listing(capsys):
    code, out, _ = run_cli(capsys, "hall", "--r", "4", "--weight", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 6"


def test_hall_weight3(capsys):
    code, out, _ = run_cli(capsys, "hall", "--r", "4", "--weight", "3",
                           "--json")
    data = json.loads(out)
    assert data["count"] == 20


def test_hall_bad_weight(capsys):
    code, _, err = run_cli(capsys, "hall", "--r", "4", "--weight", "5")
    assert code == 2


def test_aut_subcommand(capsys):
    code, out, _ = run_cli(capsys, "aut", "--n", "2")
    assert code == 0
    assert out.strip() == f"|Aut| = {2**15 * 3**5}"
