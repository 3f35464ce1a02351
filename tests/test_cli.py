import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from latident import (
    LatentModel,
    ParseError,
    ValidationError,
    build_param_index,
    parse_model,
    serialize_model,
)
from latident.cli import main

from conftest import FIXTURE_NAMES, load_model, model_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing


def test_parse_triangle_pendants_fixture(triangle_pendants):
    assert triangle_pendants.graph.node_count == 7
    assert len(triangle_pendants.graph.edges) == 12
    assert triangle_pendants.levels == (2,) * 7
    observed = {
        (i, j) for i, j in triangle_pendants.graph.edges if i != 0
    }
    assert observed == {(1, 4), (1, 5), (1, 6), (2, 5), (3, 4), (4, 5)}
    assert all((0, v) in triangle_pendants.graph.edges for v in range(1, 7))


def test_parse_levels_line():
    m = parse_model(io.StringIO("nodes 3\nlevels 1=3\nedge 0 1\nedge 0 2\n"))
    assert m.levels == (2, 3, 2)


def test_parse_comments_and_blank_lines():
    text = "# header\n\nnodes 2   # inline\nedge 0 1\n"
    m = parse_model(io.StringIO(text))
    assert m.graph.edges == frozenset({(0, 1)})


def test_parse_self_loop_rejected():
    with pytest.raises(ValidationError):
        parse_model(io.StringIO("nodes 3\nedge 2 2\n"))


def test_parse_duplicate_edge_rejected():
    with pytest.raises(ValidationError):
        parse_model(io.StringIO("nodes 3\nedge 0 1\nedge 1 0\n"))


def test_parse_out_of_range_edge_rejected():
    with pytest.raises(ValidationError):
        parse_model(io.StringIO("nodes 3\nedge 0 7\n"))


def test_parse_hidden_node_levels_rejected():
    with pytest.raises(ValidationError):
        parse_model(io.StringIO("nodes 2\nlevels 0=3\nedge 0 1\n"))


def test_parse_degenerate_level_rejected():
    with pytest.raises(ValidationError):
        parse_model(io.StringIO("nodes 2\nlevels 1=1\nedge 0 1\n"))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_model(io.StringIO("nodes 2\nwobble 1 2\n"))
    assert info.value.line_no == 2
    with pytest.raises(ParseError):
        parse_model(io.StringIO("edge 0 1\n"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_fixtures(name):
    m = load_model(name)
    again = parse_model(io.StringIO(serialize_model(m)))
    assert again == m


def test_round_trip_multi_level():
    m = LatentModel(load_model("path5").graph, (2, 3, 2, 2, 4, 2))
    again = parse_model(io.StringIO(serialize_model(m)))
    assert again == m


# ---------------------------------------------------------------- commands


def test_classify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "classify", model_path("path5"))
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "identified_everywhere"

    code, out, _ = run_cli(capsys, "classify", model_path("triangle_pendants"))
    assert code == 2
    report = json.loads(out)
    assert report["singular_system"]["equation_count"] == 3

    code, out, _ = run_cli(capsys, "classify", model_path("triangle_isolated"))
    assert code == 3
    assert json.loads(out)["verdict"]["status"] == "not_identified"


def test_classify_report_content(capsys):
    code, out, _ = run_cli(capsys, "classify", model_path("path5"))
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["p"] == 20
    assert report["verdict"]["m_clique"] == [1, 3, 5]
    assert report["verdict"]["t1_nodes"] == []
    assert len(report["verdict"]["cliques"]) == 4


def test_verify_consistency_identified(capsys):
    code, out, _ = run_cli(capsys, "verify", model_path("path5"), "--trials", "20")
    assert code == 0
    report = json.loads(out)
    assert report["generic_rank"]["rank"] == report["p"] == 20
    assert report["consistency"]["consistent"] is True


def test_verify_consistency_generic(capsys):
    code, out, _ = run_cli(capsys, "verify", model_path("triangle_pendants"))
    assert code == 2
    report = json.loads(out)
    assert report["generic_rank"]["rank"] == 28
    assert report["on_subspace_rank"]["rank"] == 27
    assert report["consistency"]["consistent"] is True


def test_verify_consistency_not_identified(capsys):
    code, out, _ = run_cli(
        capsys, "verify", model_path("triangle_isolated"), "--trials", "30"
    )
    assert code == 3
    report = json.loads(out)
    assert report["on_subspace_rank"] is None
    assert max(report["generic_rank"]["trial_ranks"]) < report["p"]
    assert report["consistency"]["consistent"] is True


@pytest.mark.parametrize(
    "name,expected",
    [
        ("path5", 0),
        ("path3_isolated", 0),
        ("triangle_isolated", 3),
        ("triangle_pendants", 2),
        ("k4_pendants", 2),
        ("clique_web9", 0),
    ],
)
def test_classify_exit_codes_all_fixtures(capsys, name, expected):
    code, _, _ = run_cli(capsys, "classify", model_path(name))
    assert code == expected


def test_verify_clique_web_consistent(capsys):
    code, out, _ = run_cli(
        capsys, "verify", model_path("clique_web9"), "--trials", "10"
    )
    assert code == 0
    report = json.loads(out)
    assert report["generic_rank"]["rank"] == report["p"]
    assert report["consistency"]["consistent"] is True


def test_verify_after_edge_addition(tmp_path, capsys):
    text = load_model("triangle_pendants")
    lines = [f"nodes {text.graph.node_count}"]
    lines += [f"edge {i} {j}" for i, j in sorted(text.graph.edges | {(2, 6)})]
    path = tmp_path / "augmented.model"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "verify", str(path), "--trials", "10")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["status"] == "identified_everywhere"
    assert report["consistency"]["consistent"] is True


def test_verify_sixteen_observed_nodes(tmp_path, capsys):
    # 2^16 cells: a dense l x 2l marginalization matrix would take 69 GB here
    n = 16
    pairs = list(itertools.combinations(range(n + 1), 2))
    edges = random.Random(3).sample(pairs, round(0.3 * len(pairs)))
    path = tmp_path / "random16.model"
    path.write_text(f"nodes {n + 1}\n" + "".join(f"edge {i} {j}\n" for i, j in sorted(edges)))
    code, out, _ = run_cli(capsys, "verify", str(path), "--trials", "3")
    assert code == 0
    report = json.loads(out)
    assert report["generic_rank"]["rank"] == report["p"] == 77
    assert report["consistency"]["consistent"] is True


def test_python_dash_m_entry_point():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "latident", "classify", model_path("path5")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["verdict"]["status"] == "identified_everywhere"


def test_verify_reports_are_byte_identical(capsys):
    _, first, _ = run_cli(
        capsys, "verify", model_path("k4_pendants"), "--trials", "10", "--seed", "7"
    )
    _, second, _ = run_cli(
        capsys, "verify", model_path("k4_pendants"), "--trials", "10", "--seed", "7"
    )
    assert first == second


def test_rank_command_seeded(capsys):
    code, out, _ = run_cli(capsys, "rank", model_path("triangle_pendants"))
    assert code == 0
    report = json.loads(out)
    assert report["rank"]["rank"] == 28
    assert report["p"] == 28
    assert len(report["coordinates"]) == 28
    assert report["coordinates"][0] == "mu"


def test_rank_command_saturated_single_edge(tmp_path, capsys):
    path = tmp_path / "pair.model"
    path.write_text("nodes 2\nedge 0 1\n")
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["p"] == 4
    assert report["rank"]["rank"] == 2


def test_rank_command_with_beta_file(tmp_path, capsys):
    m = load_model("path5")
    idx = build_param_index(m)
    beta = np.full(idx.p, 0.75)
    beta_file = tmp_path / "beta.txt"
    beta_file.write_text("\n".join(str(x) for x in beta))
    code, out, _ = run_cli(
        capsys, "rank", model_path("path5"), "--beta", str(beta_file)
    )
    assert code == 0
    assert json.loads(out)["beta_source"] == {"kind": "file", "file": str(beta_file)}


def test_rank_command_rejects_zero_beta(tmp_path, capsys):
    m = load_model("path5")
    idx = build_param_index(m)
    values = ["0.5"] * idx.p
    values[3] = "0.0"
    beta_file = tmp_path / "beta.txt"
    beta_file.write_text("\n".join(values))
    code, _, err = run_cli(capsys, "rank", model_path("path5"), "--beta", str(beta_file))
    assert code == 1
    assert "nonzero" in err


def test_rank_command_rejects_wrong_dimension(tmp_path, capsys):
    beta_file = tmp_path / "beta.txt"
    beta_file.write_text("1.0 2.0 3.0")
    code, _, err = run_cli(capsys, "rank", model_path("path5"), "--beta", str(beta_file))
    assert code == 1
    assert "expected" in err


def test_locus_prints_equations_only(capsys):
    code, out, err = run_cli(capsys, "locus", model_path("triangle_pendants"))
    assert code == 0
    assert out.splitlines() == [
        "b{0,2} + b{0,2,5} = 0",
        "b{0,3} + b{0,3,4} = 0",
        "b{0,6} + b{0,1,6} = 0",
    ]
    assert err == ""


def test_locus_on_identified_model(capsys):
    code, out, err = run_cli(capsys, "locus", model_path("path5"))
    assert code == 0
    assert out == ""
    assert "no singular system" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("nodes 2\nedge 0 1\nedge 0 1\n")
    code, _, err = run_cli(capsys, "classify", str(bad))
    assert code == 1
    assert "duplicate edge" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "classify", "/nonexistent/x.model")
    assert code == 1


def test_latent_isolated_exit_code(tmp_path, capsys):
    path = tmp_path / "isolated.model"
    path.write_text("nodes 3\nedge 1 2\n")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert "hidden node" in err
