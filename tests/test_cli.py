import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from convexgeom import cli
from convexgeom.cli import build_parser, run
from convexgeom.enumeration import connected_graphs
from convexgeom.fixtures import SEVEN_FIXTURE
from convexgeom.graphs import emit_edge_list, emit_graph6

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json")
    .read_text())


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_json(out):
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(emit_edge_list(SEVEN_FIXTURE, [str(i + 1) for i in range(7)]))
    return str(path)


@pytest.fixture
def gem_file(tmp_path):
    text = "5 7\na b\nb c\nc d\na e\nb e\nc e\nd e\n"
    path = tmp_path / "gem.txt"
    path.write_text(text)
    return str(path)


def test_spec_example_is_geometry(fig1_file, capsys):
    code, out, err = run_cli(capsys, "is-geometry", "--convexity", "l3",
                             "--format", "edges", fig1_file)
    assert code == 0
    assert out.startswith("labels: 0=1 1=2")
    assert "true (mkm)" in out


def test_spec_example_gem_hull(gem_file, capsys):
    code, out, err = run_cli(capsys, "hull", "--convexity", "geodetic",
                             "--set", "a,d", gem_file)
    assert code == 0
    assert "{a,d,e}" in out


def test_spec_example_verify_t_p3(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorem", "T-P3",
                             "--max-n", "6")
    assert code == 0
    assert "certificates=0" in out


def test_interval_json(gem_file, capsys):
    code, out, err = run_cli(capsys, "interval", "--convexity", "geodetic",
                             "--pair", "a,d", "--json", gem_file)
    assert code == 0
    payload = check_json(out)
    assert payload["command"] == "interval"
    assert payload["result"] == ["a", "d", "e"]


def test_hull_json(gem_file, capsys):
    code, out, err = run_cli(capsys, "hull", "--convexity", "geodetic",
                             "--set", "a,d", "--json", gem_file)
    payload = check_json(out)
    assert payload["result"] == ["a", "d", "e"] and code == 0


def test_is_convex_exit_codes(gem_file, capsys):
    code, out, err = run_cli(capsys, "is-convex", "--convexity", "geodetic",
                             "--set", "a,d,e", gem_file)
    assert code == 0 and "true" in out
    code, out, err = run_cli(capsys, "is-convex", "--convexity", "geodetic",
                             "--set", "a,d", gem_file)
    assert code == 1 and "false" in out
    code, out, err = run_cli(capsys, "is-convex", "--convexity", "geodetic",
                             "--set", "a,d", "--json", gem_file)
    assert code == 1 and check_json(out)["verdict"] is False


def test_extreme_json(gem_file, capsys):
    code, out, err = run_cli(capsys, "extreme", "--convexity", "geodetic",
                             "--set", "a,b,c,d,e", "--json", gem_file)
    payload = check_json(out)
    assert code == 0 and payload["result"] == ["a", "d"]


def test_extreme_nonconvex_set_errors(gem_file, capsys):
    code, out, err = run_cli(capsys, "extreme", "--convexity", "geodetic",
                             "--set", "a,b,c", gem_file)
    assert code == 2 and "error:" in err


def test_convex_sets(capsys):
    code, out, err = run_cli(capsys, "convex-sets", "--convexity", "p3",
                             "--graph6", "Bw")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total: 5"
    code, out, err = run_cli(capsys, "convex-sets", "--convexity", "p3",
                             "--graph6", "Bw", "--json")
    payload = check_json(out)
    assert payload["count"] == 5 and payload["sets"][0] == []


def test_is_geometry_witness_json(fig1_file, tmp_path, capsys):
    # dropping vertex 2 breaks the geometry; the report carries the witness
    from convexgeom.fixtures import delete_vertex
    shrunk = delete_vertex(SEVEN_FIXTURE, 1)
    labels = ["1", "3", "4", "5", "6", "7"]
    path = tmp_path / "fig1-minus-2.txt"
    path.write_text(emit_edge_list(shrunk, labels))
    code, out, err = run_cli(capsys, "is-geometry", "--convexity", "l3",
                             "--json", str(path))
    assert code == 1
    payload = check_json(out)
    assert payload["verdict"] is False
    assert payload["report"]["violating_set"] == labels
    assert payload["report"]["extremes"] == ["1", "7"]
    code, out, err = run_cli(capsys, "is-geometry", "--convexity", "l3",
                             "--mode", "antiexchange", "--json", str(path))
    assert code == 1
    payload = check_json(out)
    assert payload["report"]["antiexchange_witness"] is not None


def test_recognize(capsys):
    code, out, err = run_cli(capsys, "recognize", "--class", "chordal",
                             "--graph6", "Bw")
    assert code == 0 and out.strip().endswith("true")
    code, out, err = run_cli(capsys, "recognize", "--class", "bipartite",
                             "--graph6", "Bw", "--json")
    assert code == 1 and check_json(out)["verdict"] is False
    code, out, err = run_cli(capsys, "recognize", "--class", "diamAtMost",
                             "--k", "1", "--graph6", "Bw", "--json")
    payload = check_json(out)
    assert code == 0 and payload["k"] == 1


def test_recognize_requires_k_for_diameter(capsys):
    code, out, err = run_cli(capsys, "recognize", "--class", "diamAtMost",
                             "--graph6", "Bw")
    assert code == 2 and "error:" in err


def test_k_rejected_outside_diameter(capsys):
    code, out, err = run_cli(capsys, "recognize", "--class", "chordal",
                             "--k", "3", "--graph6", "Bw", "--json")
    assert code == 2 and out == ""
    assert "--k only applies to --class diamAtMost" in err


def test_verify_json_and_certificates(tmp_path, capsys):
    cert_path = tmp_path / "certs.jsonl"
    code, out, err = run_cli(capsys, "verify", "--theorem", "X-INV-T-TRI",
                             "--max-n", "4", "--certificates", str(cert_path),
                             "--json")
    assert code == 1
    payload = check_json(out)
    assert payload["summary"]["certificates"] == len(payload["certificates"]) > 0
    lines = cert_path.read_text().splitlines()
    assert len(lines) == payload["summary"]["certificates"]
    for line in lines:
        jsonschema.validate(json.loads(line), SCHEMA["$defs"]["certificate"])


def test_verify_parallel_flag(capsys):
    code_serial, out_serial, _ = run_cli(capsys, "verify", "--theorem", "T-TRI",
                                         "--max-n", "4", "--json")
    code_par, out_par, _ = run_cli(capsys, "verify", "--theorem", "T-TRI",
                                   "--max-n", "4", "--jobs", "2", "--json")
    assert code_serial == code_par == 0
    assert json.loads(out_serial) == json.loads(out_par)


def test_verify_graph6_file(tmp_path, capsys):
    path = tmp_path / "input.g6"
    path.write_text("\n".join(emit_graph6(g) for g in connected_graphs(4)) + "\n")
    code, out, err = run_cli(capsys, "verify", "--theorem", "T-MONO",
                             "--graph6-file", str(path), "--json")
    assert code == 0
    payload = check_json(out)
    assert payload["summary"]["graphs"] == 6


def test_verify_graph6_file_above_max_n(tmp_path, capsys):
    # a graph above --max-n is a usage error, not a sweep reported as n <= 4
    big = emit_graph6(SEVEN_FIXTURE)
    path = tmp_path / "input.g6"
    path.write_text(emit_graph6(connected_graphs(4)[0]) + "\n" + big + "\n")
    code, out, err = run_cli(capsys, "verify", "--theorem", "T-MONO",
                             "--max-n", "4", "--graph6-file", str(path), "--json")
    assert code == 2 and out == ""
    assert f"graph {big} has 7 vertices, more than n_max = 4" in err
    code, out, err = run_cli(capsys, "verify", "--theorem", "T-MONO",
                             "--max-n", "7", "--graph6-file", str(path), "--json")
    assert code == 0 and check_json(out)["summary"]["nMax"] == 7


def test_verify_unknown_theorem(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorem", "T-NOPE")
    assert code == 2 and "unknown theorem" in err


def test_verify_lemma(capsys):
    code, out, err = run_cli(capsys, "verify-lemma", "--lemma", "L-HOWORKA",
                             "--max-n", "4", "--json")
    assert code == 0
    payload = check_json(out)
    assert payload["summary"]["theorem"] == "L-HOWORKA"
    assert payload["summary"]["certificates"] == 0
    code, out, err = run_cli(capsys, "verify-lemma", "--lemma", "L-NOPE")
    assert code == 2


def test_verify_jobs(capsys):
    for command in (["verify", "--theorem", "T-MONO"],
                    ["verify-lemma", "--lemma", "L-HOWORKA"]):
        code, out, err = run_cli(capsys, *command, "--max-n", "5", "--json")
        assert code == 0
        assert run_cli(capsys, *command, "--max-n", "5", "--json",
                       "--jobs", "2") == (code, out, err)
        for jobs in ("0", "-3"):
            code, out, err = run_cli(capsys, *command, "--jobs", jobs)
            assert code == 2 and out == ""
            assert "jobs must be at least 1" in err


def test_verify_max_n_below_one(capsys):
    # a sweep over no graph must not read as a verified statement
    for command in (["verify", "--theorem", "T-P3"],
                    ["verify-lemma", "--lemma", "L-HOWORKA"]):
        for max_n in ("0", "-1"):
            code, out, err = run_cli(capsys, *command, "--max-n", max_n)
            assert code == 2 and out == ""
            assert "n_max must be at least 1" in err


def test_verify_empty_graph6_file(capsys, tmp_path):
    # an empty or blank file holds no graph, so there is nothing to verify
    for text in ("", "\n  \n"):
        path = tmp_path / "empty.g6"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--theorem", "T-P3",
                                 "--graph6-file", str(path))
        assert code == 2 and out == ""
        assert "no graphs to sweep" in err


def test_graph6_parse_error_names_the_line(tmp_path, capsys):
    # the blank second line counts, so the bad line is reported as line 3
    path = tmp_path / "bad.g6"
    path.write_text("Bw\n\nBw?!\n")
    want = f"error: {path}:3: byte 33 outside graph6 range 63..126 (offset 3)\n"
    for command in (("verify", "--theorem", "T-P3", "--graph6-file", str(path)),
                    ("hull", "--convexity", "ffree", "--family", str(path),
                     "--graph6", "Bw", "--set", "0")):
        code, out, err = run_cli(capsys, *command)
        assert (code, out, err) == (2, "", want), command


def test_subset_scans_refuse_above_guard(capsys):
    # the 13-vertex path: MKM, antiexchange and the convex-set listing all
    # read the subset bitsets, which refuse n > 12
    p13 = "LhCGGC@?G?_@?@"
    want = "error: subset scan over 13 vertices exceeds the n <= 12 guard\n"
    for command in (("is-geometry", "--mode", "mkm"),
                    ("is-geometry", "--mode", "antiexchange"), ("convex-sets",)):
        code, out, err = run_cli(capsys, *command, "--convexity", "geodetic",
                                 "--graph6", p13)
        assert (code, out, err) == (3, "", want), command


def test_fixtures_command(capsys):
    code, out, err = run_cli(capsys, "fixtures")
    assert code == 0
    assert "seven-vertex fixture: ok" in out
    assert "gem fixture" in out and "ok" in out
    code, out, err = run_cli(capsys, "fixtures", "--json")
    payload = check_json(out)
    assert payload["verdict"] is True and payload["gemHull"] == ["a", "d", "e"]


def test_enumerate(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [emit_graph6(g) for g in connected_graphs(4)]
    code, out, err = run_cli(capsys, "enumerate", "--n", "3", "--json")
    payload = check_json(out)
    assert payload["count"] == 2


def test_enumerate_capacity_exit(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "10")
    assert code == 3 and "error:" in err


def _assert_valid_dot(text):
    lines = text.strip().splitlines()
    assert lines[0] == "graph G {" and lines[-1] == "}"
    node = re.compile(r'^  "[^"]+"( \[[^\]]*\])?;$')
    edge = re.compile(r'^  "[^"]+" -- "[^"]+";$')
    default = re.compile(r"^  node \[[^\]]*\];$")
    for line in lines[1:-1]:
        assert node.match(line) or edge.match(line) or default.match(line), line


def test_render_dot(gem_file, capsys):
    code, out, err = run_cli(capsys, "render-dot", "--set", "a,d", gem_file)
    assert code == 0
    _assert_valid_dot(out)
    assert out.count("fillcolor=lightblue") == 2
    assert '"a" -- "b";' in out
    code, out, err = run_cli(capsys, "render-dot", "--json", gem_file)
    payload = check_json(out)
    _assert_valid_dot(payload["dot"])


def test_ffree_family_flow(tmp_path, capsys):
    family = tmp_path / "family.g6"
    family.write_text("Bw\n")
    code, out, err = run_cli(capsys, "hull", "--convexity", "ffree",
                             "--family", str(family), "--graph6", "Bw",
                             "--set", "1,2", "--json")
    assert code == 0
    assert check_json(out)["result"] == ["0", "1", "2"]


def test_ffree_requires_family(capsys):
    code, out, err = run_cli(capsys, "hull", "--convexity", "ffree",
                             "--set", "0", "--graph6", "Bw")
    assert code == 2 and "--family" in err


def test_family_rejected_elsewhere(tmp_path, capsys):
    family = tmp_path / "family.g6"
    family.write_text("Bw\n")
    code, out, err = run_cli(capsys, "hull", "--convexity", "geodetic",
                             "--family", str(family), "--set", "0",
                             "--graph6", "Bw")
    assert code == 2 and "ffree" in err


def test_closure_kind_interval_rejected(capsys):
    code, out, err = run_cli(capsys, "interval", "--convexity", "p4plus",
                             "--pair", "0,1", "--graph6", "Bw")
    assert code == 2 and "oracle" in err


def test_unknown_convexity(capsys):
    code, out, err = run_cli(capsys, "hull", "--convexity", "euclid",
                             "--set", "0", "--graph6", "Bw")
    assert code == 2 and "unknown convexity" in err


def test_input_source_validation(gem_file, capsys):
    code, out, err = run_cli(capsys, "hull", "--convexity", "geodetic",
                             "--set", "a", gem_file, "--graph6", "Bw")
    assert code == 2 and "exactly one input" in err
    code, out, err = run_cli(capsys, "hull", "--convexity", "geodetic",
                             "--set", "a")
    assert code == 2


def test_unknown_vertex_label(gem_file, capsys):
    code, out, err = run_cli(capsys, "hull", "--convexity", "geodetic",
                             "--set", "z", gem_file)
    assert code == 2 and "unknown vertex label" in err


def test_missing_file(capsys):
    code, out, err = run_cli(capsys, "hull", "--convexity", "geodetic",
                             "--set", "0", "/nonexistent/graph.txt")
    assert code == 2 and "error:" in err


def test_graph6_file_format(tmp_path, capsys):
    path = tmp_path / "graph.g6"
    path.write_text(emit_graph6(SEVEN_FIXTURE) + "\n")
    code, out, err = run_cli(capsys, "recognize", "--class", "chordal",
                             "--format", "graph6", str(path))
    assert code == 0


def test_disconnected_warning(capsys):
    code, out, err = run_cli(capsys, "recognize", "--class", "forest",
                             "--graph6", "A?")
    assert code == 0
    assert "disconnected" in err


def test_usage_errors(capsys):
    assert run_cli(capsys, "hull", "--graph6", "Bw")[0] == 2    # missing --convexity
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "verify", "--help")[0] == 0


@pytest.mark.parametrize("n", [5, 8])
def test_closed_stdout_is_not_an_input_error(n):
    # a reader that closes the pipe early (convexgeom enumerate | head -1):
    # at n = 8 the output outgrows the pipe buffer, at n = 5 the closed pipe
    # shows only when stdout is flushed
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-c", "from convexgeom.cli import main; main()",
                             "enumerate", "--n", str(n)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_parser_builds():
    parser = build_parser()
    assert parser.prog == "convexgeom"


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    # only the typed input errors exit 2; a plain ValueError raised inside a
    # command is a fault of the program and must not read as bad input
    def broken(args):
        raise ValueError("internal fault")
    monkeypatch.setattr(cli, "_cmd_fixtures", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["fixtures"])


def test_input_errors_keep_exit_two(capsys, tmp_path):
    # a set that is not convex, a spec that does not validate and a file
    # that is not ASCII all stay input errors
    assert run_cli(capsys, "extreme", "--convexity", "geodetic",
                   "--graph6", "Bg", "--set", "0,2")[0] == 2
    assert run_cli(capsys, "hull", "--convexity", "l0", "--graph6", "Bw",
                   "--set", "0")[0] == 2
    assert run_cli(capsys, "hull", "--convexity", "l\u00b2", "--graph6", "Bw",
                   "--set", "0")[0] == 2
    path = tmp_path / "latin1.g6"
    path.write_bytes(b"Bw\xe9\n")
    assert run_cli(capsys, "recognize", "--class", "chordal", "--format",
                   "graph6", str(path))[0] == 2
