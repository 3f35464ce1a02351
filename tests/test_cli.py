import hashlib
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
    Graph,
    LatentModel,
    ParseError,
    ValidationError,
    build_param_index,
    parse_model,
)
from latident.cli import USAGE, main

from conftest import (
    FIXTURE_NAMES, dense_model, k23_with_t1_model, load_model, model_path, model_text, star_model,
)


# the keys of one equation of a schema 3 singular_system block, in order
EQUATION_KEYS = ["designated", "anchored", "source_kind", "source_set", "source_boundary_subset"]


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
    again = parse_model(io.StringIO(model_text(m)))
    assert again == m


def test_round_trip_multi_level():
    m = LatentModel(load_model("path5").graph, (2, 3, 2, 2, 4, 2))
    again = parse_model(io.StringIO(model_text(m)))
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
    assert list(report["singular_system"]) == ["equation_count", "equations"]
    for eq in report["singular_system"]["equations"]:
        assert list(eq) == EQUATION_KEYS

    code, out, _ = run_cli(capsys, "classify", model_path("triangle_isolated"))
    assert code == 3
    assert json.loads(out)["verdict"]["status"] == "not_identified"


def test_classify_report_content(capsys):
    code, out, _ = run_cli(capsys, "classify", model_path("path5"))
    report = json.loads(out)
    assert report["schema_version"] == 3
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


def _full_rank(report: dict) -> int:
    """The model's Jacobian rank from a verify report: p less the core's deficit."""
    return report["p"] - report["core"]["p"] + report["generic_rank"]["rank"]


def test_verify_sixteen_observed_nodes(tmp_path, capsys):
    # 2^16 cells for the whole model; verify ranks the core on {0} | S only
    n = 16
    pairs = list(itertools.combinations(range(n + 1), 2))
    edges = random.Random(3).sample(pairs, round(0.3 * len(pairs)))
    path = tmp_path / "random16.model"
    path.write_text(f"nodes {n + 1}\n" + "".join(f"edge {i} {j}\n" for i, j in sorted(edges)))
    code, out, _ = run_cli(capsys, "verify", str(path), "--trials", "3")
    assert code == 0
    report = json.loads(out)
    s_nodes = report["verdict"]["s_nodes"]
    assert report["core"]["nodes"] == [0, *s_nodes] and len(s_nodes) < n
    assert report["generic_rank"]["p"] == report["core"]["p"] < report["p"]
    assert report["p"] == _full_rank(report) == 77
    assert report["consistency"]["consistent"] is True


def test_verify_thirty_node_path(tmp_path, capsys):
    # the hidden node joined to nodes 1-4 of a 30-node path: the whole model's
    # design would have 2^31 rows, its core on {0, 1, 2, 3, 4} has 32
    n = 30
    edges = [(0, v) for v in range(1, 5)] + [(v, v + 1) for v in range(1, n)]
    path = tmp_path / "path30.model"
    path.write_text(f"nodes {n + 1}\n" + "".join(f"edge {i} {j}\n" for i, j in edges))
    code, out, err = run_cli(capsys, "verify", str(path), "--trials", "3")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["core"] == {"nodes": [0, 1, 2, 3, 4], "p": 16}
    assert report["generic_rank"]["rank"] == 16
    assert report["p"] == _full_rank(report) == 68
    assert report["consistency"]["consistent"] is True


def test_verify_names_a_forced_zero_in_model_ids(tmp_path, capsys):
    # the core renumbers nodes 2..6 as 1..5; the error still names model ids
    path = tmp_path / "k23_t1.model"
    path.write_text(model_text(k23_with_t1_model()))
    code, out, err = run_cli(capsys, "verify", str(path), "--trials", "3")
    assert (code, out, err) == (1, "", "error: the equations force b{0,3,6} to zero\n")


def test_verify_with_a_t1_node_inside_s_matches_pinned_digest(tmp_path, monkeypatch, capsys):
    # S = {1, 2, 4, 5, 6, 7} around T1 node 3, node 6 at 3 levels: the system's
    # model ids are not the core's, and the core's index reads them as they are.
    # Pinned from the verify that rewrote the system into core ids, without the
    # singular values, cuts and gaps, which vary with the BLAS build; re-pinned
    # for schema 3, which writes each equation as its generator.
    monkeypatch.chdir(tmp_path)
    edges = [(0, v) for v in (1, 2, 4, 5, 6, 7)]
    edges += [(1, 5), (1, 6), (1, 7), (2, 6), (4, 5), (5, 6), (2, 3), (3, 6)]
    m = LatentModel(Graph.from_edges(8, edges), (2, 2, 2, 2, 2, 2, 3, 2))
    pathlib.Path("t1_inside.model").write_text(model_text(m))
    code, out, err = run_cli(capsys, "verify", "t1_inside.model", "--trials", "3", "--seed", "0")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["core"]["nodes"] == [0, 1, 2, 4, 5, 6, 7]
    assert report["consistency"]["consistent"] is True
    for block in ("generic_rank", "on_subspace_rank"):
        for key in ("singular_values", "tolerance_used", "gap"):
            del report[block][key]
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    assert digest == "976026106bbde6e78984f3e59dadccaed3385544e8c5ce3def63e3263951059d"


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


def test_python_dash_m_cli_module_runs_a_command():
    # `python -m latident.cli` runs main too; exiting 0 without a report would
    # read as "identified everywhere"
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "latident.cli", "classify", model_path("triangle_isolated")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["status"] == "not_identified"


def test_import_does_not_load_argparse():
    # neither importing the package nor a cold call of main loads argparse or
    # the modules it brings for its messages
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys, latident\n"
        "from latident.cli import main\n"
        f"assert main(['classify', {model_path('path5')!r}]) == 0\n"
        f"assert main(['verify', {model_path('path5')!r}, '--tol', '1e-3']) == 1\n"
        "assert main(['--help']) == 0\n"
        "loaded = {'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_rank_command_rejects_non_finite_beta(tmp_path, capsys, bad):
    idx = build_param_index(load_model("path5"))
    values = ["0.5"] * idx.p
    values[3] = bad
    beta_file = tmp_path / "beta.txt"
    beta_file.write_text("\n".join(values))
    code, out, err = run_cli(capsys, "rank", model_path("path5"), "--beta", str(beta_file))
    assert (code, out, err) == (1, "", "error: beta has non-finite coordinates\n")


def test_rank_command_rejects_wrong_dimension(tmp_path, capsys):
    beta_file = tmp_path / "beta.txt"
    beta_file.write_text("1.0 2.0 3.0")
    code, _, err = run_cli(capsys, "rank", model_path("path5"), "--beta", str(beta_file))
    assert code == 1
    assert "expected" in err


def test_rank_command_rejects_non_numeric_beta(tmp_path, capsys):
    beta_file = tmp_path / "beta.txt"
    beta_file.write_text("abc 1 2")
    code, out, err = run_cli(capsys, "rank", model_path("path5"), "--beta", str(beta_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'abc'" in err and "Traceback" not in err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_non_positive_trials(capsys, trials):
    code, out, err = run_cli(capsys, "verify", model_path("path5"), "--trials", trials)
    assert code == 1
    assert out == ""
    assert err == "error: --trials must be >= 1\n"


@pytest.mark.parametrize(
    "argv", [("verify", "--trials", "3", "--seed", "-3"), ("rank", "--seed", "-1")]
)
def test_negative_seed_rejected(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], model_path("path5"), *argv[1:])
    assert code == 1
    assert out == ""
    assert err == "error: --seed must be >= 0\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["verify", "rank"])
def test_bad_tol_rejected(capsys, command, tol):
    # the rank cut is fixed, so --tol is an unknown option whatever its value
    code, out, err = run_cli(capsys, command, model_path("path5"), "--tol", tol)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: latident")
    assert err.endswith(f"error: unrecognized arguments: --tol {tol}\n")


def test_locus_prints_equations_only(capsys):
    code, out, err = run_cli(capsys, "locus", model_path("triangle_pendants"))
    assert code == 0
    assert out.splitlines() == [
        "b{0,2} + b{0,2,5} = 0",
        "b{0,3} + b{0,3,4} = 0",
        "b{0,6} + b{0,1,6} = 0",
    ]
    assert err == ""


def test_classify_report_matches_pinned_digest(tmp_path, monkeypatch, capsys):
    # the whole schema 3 classify report of the 4,441-equation dense system;
    # test_classify_equations_expand_to_the_locus ties its equations to the
    # pinned locus digest, so the report keeps every term of the system
    monkeypatch.chdir(tmp_path)
    pathlib.Path("dense12.model").write_text(model_text(dense_model(12)))
    code, out, err = run_cli(capsys, "classify", "dense12.model")
    assert (code, err) == (2, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "4e32c75100512c5f2a2bdcc9c4f6ac7000a7356bb6069e8c39bee421946593eb"


# locus output of a large binary and a large multi-level system, pinned from
# the implementation that kept each equation as a list of terms
LOCUS_DIGESTS = pytest.mark.parametrize(
    "levels, lines, digest",
    [
        ({}, 4441, "18b54c3b7a44a919dcce2df690eb51b8644f20541fe1346c61bcc50d4f38717b"),
        ({1: 3, 4: 3}, 1011, "dfd389f3ab5282763875444490affa95a70b08e912dc6e8767e377a0684a6e1f"),
    ],
    ids=["dense12", "dense9_3lev"],
)


def _locus_model_path(tmp_path, levels) -> str:
    base = dense_model(9 if levels else 12)
    m = LatentModel(base.graph, tuple(levels.get(v, l) for v, l in enumerate(base.levels)))
    path = tmp_path / "m.model"
    path.write_text(model_text(m))
    return str(path)


@LOCUS_DIGESTS
def test_locus_matches_pinned_digest(tmp_path, capsys, levels, lines, digest):
    code, out, err = run_cli(capsys, "locus", _locus_model_path(tmp_path, levels))
    assert (code, err, len(out.splitlines())) == (0, "", lines)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def expand_equation(eq: dict) -> str:
    """An equation of a schema 3 report as locus prints it: the terms are
    b{0, V0 | I} over the subsets I of anchored, by size and then in
    lexicographic order, the empty set first; tokens sort by node."""
    v0 = eq["designated"][len("b{"):-len("}")].split(",")
    anchored = eq["anchored"]
    subsets = (sub for r in range(len(anchored) + 1) for sub in itertools.combinations(anchored, r))
    terms = (sorted(v0 + list(sub), key=lambda t: int(t.partition(":")[0])) for sub in subsets)
    return " + ".join("b{" + ",".join(t) + "}" for t in terms) + " = 0"


@LOCUS_DIGESTS
def test_classify_equations_expand_to_the_locus(tmp_path, capsys, levels, lines, digest):
    # the generator schema loses nothing: expanded, classify's equations are
    # locus's lines byte for byte
    code, out, err = run_cli(capsys, "classify", _locus_model_path(tmp_path, levels))
    assert (code, err) == (2, "")
    equations = json.loads(out)["singular_system"]["equations"]
    text = "".join(expand_equation(eq) + "\n" for eq in equations)
    assert (len(equations), hashlib.sha256(text.encode()).hexdigest()) == (lines, digest)


def test_forced_zero_equation_has_no_anchored_node(tmp_path, capsys):
    # G_S = K_{2,3} with parts {1, 2} and {3, 4, 5}, one of the ten labellings
    # whose systems force a coordinate to zero: a single-term equation
    edges = [(0, v) for v in range(1, 6)] + list(itertools.product((1, 2), (3, 4, 5)))
    path = tmp_path / "k23.model"
    path.write_text(model_text(LatentModel.binary(Graph.from_edges(6, edges))))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, err) == (2, "")
    equations = json.loads(out)["singular_system"]["equations"]
    forced = [eq for eq in equations if eq["anchored"] == []]
    assert forced and all(expand_equation(eq) == f"{eq['designated']} = 0" for eq in forced)
    assert '"anchored": []' in out


# generated models of the round-trip test: dense ladders and multi-level nodes
ROUND_TRIP_MODELS = {
    **{f"dense{n}": dense_model(n) for n in (8, 9, 10)},
    "k4_pendants_levels3": LatentModel(load_model("k4_pendants").graph, (2, 3, 3, 2, 2, 2, 2)),
}


@pytest.mark.parametrize("command", [["classify"], ["verify", "--trials", "3", "--seed", "0"], ["rank"]])
@pytest.mark.parametrize("name", FIXTURE_NAMES + list(ROUND_TRIP_MODELS))
def test_report_is_canonical_json(tmp_path, capsys, name, command):
    # the streamed report is exactly json.dumps(indent=2) of what it parses to
    if name in ROUND_TRIP_MODELS:
        path = tmp_path / f"{name}.model"
        path.write_text(model_text(ROUND_TRIP_MODELS[name]))
    else:
        path = model_path(name)
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    if code == 1:
        # the dense ladder's singular systems force a coordinate to zero, so
        # verify's on-subspace sampler raises; an error leaves no partial report
        assert out == "" and err.startswith("error: ")
    else:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_multi_level_round_trip_model_has_multi_level_equations(capsys, tmp_path):
    path = tmp_path / "m.model"
    path.write_text(model_text(ROUND_TRIP_MODELS["k4_pendants_levels3"]))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 2
    equations = json.loads(out)["singular_system"]["equations"]
    tokens = [t for eq in equations for t in [*eq["designated"].split(","), *eq["anchored"]]]
    assert any(":" in t for t in tokens)


def test_classify_builds_no_param_index(monkeypatch, capsys):
    # classify prints p from param_count; only the numeric commands build the index
    calls = []
    original = build_param_index

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("latident") and getattr(module, "build_param_index", None) is original:
            monkeypatch.setattr(module, "build_param_index", counted)
    for name in ("path5", "k4_pendants", "triangle_isolated"):
        code, out, _ = run_cli(capsys, "classify", model_path(name))
        assert json.loads(out)["p"] == original(load_model(name)).p
    assert calls == []
    run_cli(capsys, "verify", model_path("path5"), "--trials", "1")
    assert len(calls) == 1


def test_classify_never_expands_an_equation(monkeypatch, capsys, tmp_path):
    # the report is O(equations): classify reads no term list, no term names
    # and no subsets of an anchored mask (the function each coordinate table
    # caches as `subsets`)
    from latident import SingularEquation, singular

    paths = {}
    for name in ("dense8", "k4_pendants_levels3"):
        paths[name] = tmp_path / f"{name}.model"
        paths[name].write_text(model_text(ROUND_TRIP_MODELS[name]))
    full = {name: run_cli(capsys, "classify", str(path)) for name, path in paths.items()}

    def expanded(*args):
        raise AssertionError("classify expanded an equation")

    for attr in ("names", "terms"):
        monkeypatch.setattr(SingularEquation, attr, property(expanded))
    monkeypatch.setattr(singular, "_subsets", expanded)
    for name, path in paths.items():
        code, out, err = run_cli(capsys, "classify", str(path))
        assert (code, out, err) == full[name]
        assert code == 2 and json.loads(out)["singular_system"]["equation_count"] > 0


def test_verify_walks_each_graph_once(monkeypatch, capsys):
    # from cold caches, verify enumerates the complete subsets of G_S once and
    # those of the model graph once: p and the parameter index share one walk
    from latident import graph, latent_partition
    from latident.graph import induced_subgraph

    calls = []
    original = graph._complete_within

    def counted(adj, within):
        calls.append(adj)
        return original(adj, within)

    for name, module in list(sys.modules.items()):
        if name.startswith("latident"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
            if getattr(module, "_complete_within", None) is original:
                monkeypatch.setattr(module, "_complete_within", counted)
    m = load_model("path5")
    g_s, _ = induced_subgraph(m.graph, latent_partition(m)[0])
    code, _, _ = run_cli(capsys, "verify", model_path("path5"), "--trials", "3")
    assert code == 0
    assert calls == [g_s.adj, m.graph.adj]


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("nodes \u00b2\n", "line 1: expected: nodes <count>"),
        ("nodes 3\nedge 1 \u00b2\n", "line 2: expected: edge <i> <j>"),
        ("nodes 3\nlevels 1=\u00b3\n", "line 2: expected: levels <node>=<count>"),
    ],
    ids=["nodes", "edge", "levels"],
)
def test_parse_rejects_superscript_digits(tmp_path, capsys, text, message):
    # str.isdigit accepts superscripts, which int() then refuses
    path = tmp_path / "superscript.model"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("n", [45, 70])
def test_rank_rejects_oversized_design_matrix(tmp_path, capsys, n):
    # numpy refuses both tables without allocating: 2^46 x 92 float64 cells
    # (46 PiB) at n = 45, and 72 axes (over its 64) at n = 70
    path = tmp_path / "star.model"
    path.write_text(model_text(star_model(n)))
    code, out, err = run_cli(capsys, "rank", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: design matrix of shape (")
    assert f", {2 * n + 2}) is too large" in err


@pytest.mark.parametrize("command", ["verify", "rank"])
def test_oversized_design_is_refused_before_the_index(tmp_path, capsys, monkeypatch, command):
    # K3 with two 800-level nodes: p = 2 * 800 * 800 entries, which the index
    # would build (seconds, hundreds of MB) before the design matrix is refused
    path = tmp_path / "k3_800.model"
    path.write_text("nodes 3\nlevels 1=800\nlevels 2=800\nedge 0 1\nedge 0 2\nedge 1 2\n")

    def no_index(m):
        raise AssertionError("the parameter index was built")

    monkeypatch.setattr("latident.cli.build_param_index", no_index)
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == "error: design matrix of shape (1280000, 1280000) is too large\n"


def test_non_utf8_model_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.model"
    path.write_bytes(b"nodes 3\nedge 0 1\n\xff\n")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: byte 17: not valid UTF-8\n"


def test_non_utf8_stream_is_a_parse_error():
    stream = io.TextIOWrapper(io.BytesIO(b"nodes 2\n\xff\n"), encoding="utf-8")
    with pytest.raises(ParseError, match=r"^byte 8: not valid UTF-8$"):
        parse_model(stream)


def test_node_count_too_large_to_hold_is_a_validation_error(tmp_path):
    # 10^8 nodes need 800 MB for the adjacency list alone; the child's address
    # space is capped at 400 MB, so the model cannot be built
    resource = pytest.importorskip("resource")
    path = tmp_path / "huge.model"
    path.write_text("nodes 100000000\nedge 0 1\n")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "latident", "classify", str(path)],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: a model of 100000000 nodes is too large to hold\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", model_path("path5"), "--trails", "5"], "unrecognized arguments: --trails 5"),
        (["verify", model_path("path5"), "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["verify", model_path("path5"), "--tol", "1e-3"], "unrecognized arguments: --tol 1e-3"),
        (["rank", model_path("path5"), "--tol", "1e-3"], "unrecognized arguments: --tol 1e-3"),
        (["verify"], "the following arguments are required: file"),
        (["frobnicate", "x"], "invalid command: 'frobnicate'"),
        ([], "expected a command"),
        (["rank", model_path("path5"), "--beta", "B", "--seed", "1"],
         "argument --seed: not allowed with argument --beta"),
        (["verify", model_path("path5"), "--trials"], "argument --trials: expected one argument"),
        (["verify", model_path("path5"), "--trials", "3.5"],
         "argument --trials: invalid int value: '3.5'"),
        (["classify", model_path("path5"), "G"], "unrecognized arguments: G"),
        # option names are spelled in full: a prefix of one is not that option
        (["verify", model_path("path5"), "--tri", "3"], "unrecognized arguments: --tri 3"),
    ],
    ids=["unknown-option", "bad-seed", "verify-tol", "rank-tol", "no-file", "unknown-command",
         "bare", "beta-and-seed", "missing-value", "non-int", "second-file", "prefix"],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 would read as "generically identified"
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"{USAGE}latident: error: {message}\n"


def test_help_exits_0(capsys):
    for argv in (["--help"], ["verify", "-h"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out == USAGE
        assert out.startswith("usage: latident")
        assert err == ""


def test_seed_option_forms_give_one_report(capsys):
    path = model_path("k4_pendants")
    reports = {
        run_cli(capsys, *argv)[1]
        for argv in (
            ["verify", path, "--trials", "3", "--seed=7"],
            ["verify", "--seed", "7", path, "--trials", "3"],
            ["verify", path, "--seed", "1", "--trials", "3", "--seed", "7"],
        )
    }
    assert len(reports) == 1
    assert json.loads(reports.pop())["seed"] == 7


@pytest.mark.parametrize("command", ["classify", "verify", "locus"])
def test_memory_error_is_an_error_line(monkeypatch, capsys, command):
    from latident import classify

    def out_of_memory(m):
        raise MemoryError

    for name, module in list(sys.modules.items()):
        if name.startswith("latident") and getattr(module, "classify", None) is classify:
            monkeypatch.setattr(module, "classify", out_of_memory)
    code, out, err = run_cli(capsys, command, model_path("k4_pendants"))
    assert (code, out) == (1, "")
    assert err == f"error: out of memory in the {command} command\n"


def test_memory_error_mid_report_leaves_a_prefix(monkeypatch, capsys):
    # the report is streamed, so what was written before the MemoryError stays
    # on stdout: a reader checks the exit code before parsing.  The writer
    # looks up one name per equation, its designated coordinate's.
    from latident.singular import _Coordinates

    _, full, _ = run_cli(capsys, "classify", model_path("k4_pendants"))
    calls = []
    post_init = _Coordinates.__post_init__

    def second_name_fails(coords):
        post_init(coords)
        name = coords.name

        def lookup(slots):
            calls.append(slots)
            if len(calls) == 2:
                raise MemoryError
            return name(slots)

        object.__setattr__(coords, "name", lookup)

    monkeypatch.setattr(_Coordinates, "__post_init__", second_name_fails)
    code, out, err = run_cli(capsys, "classify", model_path("k4_pendants"))
    assert code == 1
    assert err == "error: out of memory in the classify command\n"
    assert out and full.startswith(out) and len(out) < len(full)


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "classify", "/nonexistent/x.model")
    assert code == 1


def test_latent_isolated_exit_code(tmp_path, capsys):
    path = tmp_path / "isolated.model"
    path.write_text("nodes 3\nedge 1 2\n")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert "hidden node" in err
