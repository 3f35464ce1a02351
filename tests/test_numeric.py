import itertools
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from latident import (
    DimensionMismatchError,
    ExponentOverflowError,
    Graph,
    InconsistentSystemError,
    LatentModel,
    ParamIndex,
    SingularSystem,
    Status,
    ValidationError,
    build_param_index,
    classify,
    design_matrix,
    full_system,
    generic_rank,
    jacobian,
    mu_y,
    numeric_rank,
    rank_on_system,
    sample_beta,
)

from latident import numeric
from latident.cli import _rank_block, main
from latident.graph import _bits
from latident.loglinear import _core, marginalization_matrix, param_count
from latident.singular import sample_on_subspace

from conftest import (
    FIXTURE_NAMES, five_cycle_model, hidden_over_all_graphs, k23_with_t1_model, load_model,
    model_text, star_model,
)

SINGLE_EDGE = LatentModel.binary(Graph.from_edges(2, [(0, 1)]))


def finite_difference_jacobian(idx, beta, h=1e-5):
    cols = []
    for j in range(idx.p):
        step = np.zeros(idx.p)
        step[j] = h
        cols.append((mu_y(idx, beta + step) - mu_y(idx, beta - step)) / (2 * h))
    return np.column_stack(cols)


def test_sample_beta_law():
    beta = sample_beta(2000, [0, 0])
    mags = np.abs(beta)
    assert np.all(mags >= 0.5) and np.all(mags <= 1.5)
    assert np.any(beta < 0) and np.any(beta > 0)


def test_sample_beta_deterministic_per_key():
    assert np.array_equal(sample_beta(10, [3, 1]), sample_beta(10, [3, 1]))
    assert not np.array_equal(sample_beta(10, [3, 1]), sample_beta(10, [3, 2]))


def test_jacobian_shape_and_fd_small():
    idx = build_param_index(SINGLE_EDGE)
    beta = sample_beta(idx.p, [1, 0])
    d = jacobian(idx, beta)
    assert d.shape == (2, 4)
    assert numeric_rank(d).rank == 2
    fd = finite_difference_jacobian(idx, beta)
    assert np.allclose(d, fd, rtol=1e-6)


def test_jacobian_near_zero_parameters_approaches_lz():
    idx = build_param_index(SINGLE_EDGE)
    z = design_matrix(idx)
    l_mat = marginalization_matrix(SINGLE_EDGE)
    beta = np.full(idx.p, 1e-9)
    d = jacobian(idx, beta)
    assert np.allclose(d, l_mat @ z, atol=1e-7)


def test_jacobian_dimension_mismatch():
    idx = build_param_index(SINGLE_EDGE)
    with pytest.raises(DimensionMismatchError):
        jacobian(idx, np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [jacobian, mu_y])
def test_non_finite_beta_rejected(fn, bad):
    # NaN compares False against the overflow bound, so it needs its own check
    idx = build_param_index(SINGLE_EDGE)
    with pytest.raises(ValidationError, match="beta has non-finite coordinates"):
        fn(idx, np.array([0.5, bad, 1.0, 1.0]))


def test_jacobian_overflow_guard():
    idx = build_param_index(SINGLE_EDGE)
    with pytest.raises(ExponentOverflowError):
        jacobian(idx, np.array([800.0, 1.0, 1.0, 1.0]))


def test_numeric_rank_identity_and_outer_product():
    assert numeric_rank(np.eye(5)).rank == 5
    u = np.arange(1.0, 11.0)
    assert numeric_rank(np.outer(u, u)).rank == 1


def test_numeric_rank_gap_rule_flags_ambiguity():
    # the cut is 3 * eps * sigma_max = 3 * eps, between the second and third values
    report = numeric_rank(np.diag([1.0, 1e-2, 1e-17]))
    assert (report.rank, report.tolerance_used) == (2, 3 * np.finfo(float).eps)
    assert report.gap == pytest.approx(1e15)
    assert not report.ambiguous  # 1e-2 vs 1e-17 is a clean cut
    soft_report = numeric_rank(np.diag([1.0, 1e-15, 1e-16]))
    assert (soft_report.rank, soft_report.tolerance_used) == (2, 3 * np.finfo(float).eps)
    assert soft_report.gap == pytest.approx(10.0)
    assert soft_report.ambiguous  # the values fall by a factor 10 only across the cut


def test_numeric_rank_tolerance_override():
    # one cut, max(rows, cols) * eps * sigma_max: a cut of 1e-3 cannot be asked for
    mat = np.diag([1.0, 1e-4])
    report = numeric_rank(mat)
    assert (report.rank, report.tolerance_used) == (2, 2 * np.finfo(float).eps)
    with pytest.raises(TypeError, match="tol"):
        numeric_rank(mat, tol=1e-3)


def test_generic_rank_triangle_pendants(triangle_pendants):
    report = generic_rank(build_param_index(triangle_pendants), trials=50, seed=0)
    assert report.rank == 28
    assert report.modal_rank == 28
    assert report.unanimous
    assert not report.ambiguous


def test_generic_rank_trials_validation(triangle_pendants):
    with pytest.raises(ValueError):
        generic_rank(build_param_index(triangle_pendants), trials=0)


# No rank function takes a tolerance, whatever its value: the cut is numeric_rank's own.
BAD_TOLS = [float("nan"), float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_numeric_rank_rejects_bad_tolerance(tol):
    with pytest.raises(TypeError, match="tol"):
        numeric_rank(np.eye(2), tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_generic_rank_rejects_bad_tolerance(path5, tol):
    with pytest.raises(TypeError, match="tol"):
        generic_rank(build_param_index(path5), trials=2, seed=0, tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_rank_on_system_rejects_bad_tolerance(path5, tol):
    with pytest.raises(TypeError, match="tol"):
        rank_on_system(build_param_index(path5), SingularSystem((), 1), trials=2, seed=0, tol=tol)


def test_generic_rank_rejects_negative_seed(path5):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        generic_rank(build_param_index(path5), trials=2, seed=-1)


def test_rank_on_system_rejects_negative_seed(path5):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        rank_on_system(build_param_index(path5), SingularSystem((), 1), trials=2, seed=-1)


def test_latent_class_three_full_rank():
    m = star_model(3)
    idx = build_param_index(m)
    assert idx.p == 8
    report = generic_rank(idx, trials=20, seed=0)
    assert report.rank == 8  # 8 columns on 8 cells


def test_rank_invariant_under_column_permutation(triangle_pendants):
    idx = build_param_index(triangle_pendants)
    rng = random.Random(0)
    entries = list(idx.entries)
    rng.shuffle(entries)
    shuffled = ParamIndex(triangle_pendants, tuple(entries), idx.width)
    beta = sample_beta(idx.p, [2, 0])
    r1 = numeric_rank(jacobian(idx, beta)).rank
    r2 = numeric_rank(jacobian(shuffled, beta)).rank
    assert r1 == r2 == 28


def test_identified_models_full_rank_at_many_points(path5):
    idx = build_param_index(path5)
    assert classify(path5).status is Status.IDENTIFIED_EVERYWHERE
    report = generic_rank(idx, trials=200, seed=1)
    assert report.unanimous and report.rank == idx.p


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_verdict_agrees_with_numeric_rank(name):
    m = load_model(name)
    idx = build_param_index(m)
    verdict = classify(m)
    report = generic_rank(idx, trials=20, seed=0)
    if verdict.status is Status.NOT_IDENTIFIED:
        assert all(r < idx.p for r in report.trial_ranks)
    else:
        assert report.rank == idx.p


def test_probe_only_five_cycle_generically_full_rank():
    m = five_cycle_model()
    verdict = classify(m)
    assert verdict.probe_only
    idx = build_param_index(m)
    assert generic_rank(idx, trials=30, seed=0).rank == idx.p == 22


def test_rank_on_system_triangle_pendants(triangle_pendants):
    system = full_system(triangle_pendants)
    report = rank_on_system(build_param_index(triangle_pendants), system, trials=50, seed=0)
    assert report.rank == 27
    assert report.unanimous
    assert report.gap is not None and report.gap >= 1e3


def test_rank_on_empty_system_matches_generic(triangle_pendants):
    empty = SingularSystem((), 1)
    idx = build_param_index(triangle_pendants)
    on_empty = rank_on_system(idx, empty, trials=10, seed=0)
    plain = generic_rank(idx, trials=10, seed=0)
    assert on_empty.rank == plain.rank
    assert on_empty.trial_ranks == plain.trial_ranks


def test_single_boundary_equation_rank_drop(k4_pendants):
    # one boundary hyperplane alone lowers the rank by two on this model
    system = full_system(k4_pendants)
    eq1 = [e for e in system.equations if e.render(system.width) == "b{0,5} + b{0,4,5} = 0"]
    idx = build_param_index(k4_pendants)
    report = rank_on_system(idx, SingularSystem(tuple(eq1), system.width), trials=30, seed=0)
    assert report.rank == 38
    assert report.unanimous


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_jacobian_matches_mu_y_derivative(name):
    m = load_model(name)
    idx = build_param_index(m)
    beta = sample_beta(idx.p, [5, 0])
    d = jacobian(idx, beta)
    assert d.shape == (m.table_size, idx.p)
    fd = finite_difference_jacobian(idx, beta)
    denom = np.linalg.norm(d)
    assert np.linalg.norm(d - fd) / denom < 1e-8


BITWISE_MODELS = {name: load_model(name) for name in FIXTURE_NAMES}
BITWISE_MODELS["triangle_pendants_levels234"] = LatentModel(
    BITWISE_MODELS["triangle_pendants"].graph, (2, 3, 2, 4, 2, 3, 2)
)


@pytest.mark.parametrize("name", list(BITWISE_MODELS))
def test_half_sum_equals_dense_marginalization_bitwise(name):
    m = BITWISE_MODELS[name]
    idx = build_param_index(m)
    z = design_matrix(idx)
    l_mat = marginalization_matrix(m)
    for t in range(3):
        beta = sample_beta(idx.p, [9, t])
        w = np.exp(z @ beta)
        assert np.array_equal(jacobian(idx, beta), l_mat @ (w[:, None] * z))
        assert np.array_equal(mu_y(idx, beta), l_mat @ w)


def test_jacobian_memory_linear_in_cells():
    # 12 observed binary nodes: l = 4096 cells, so a dense L alone is 268 MB
    m = star_model(12)
    idx = build_param_index(m)
    beta = sample_beta(idx.p, [0, 0])
    design_bytes = 2 * m.table_size * idx.p * 8
    tracemalloc.start()
    try:
        jacobian(idx, beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * design_bytes


def test_design_lives_only_as_long_as_its_index():
    # four different 12-observed-node models, each index dropped after its
    # Jacobian: no design matrix outlives its index
    star = [(0, v) for v in range(1, 13)]
    models = [star_model(12)] + [
        LatentModel.binary(Graph.from_edges(13, star + [edge])) for edge in [(1, 2), (3, 4), (5, 6)]
    ]
    largest_z = max(2 * m.table_size * param_count(m) * 8 for m in models)
    tracemalloc.start()
    try:
        for m in models:
            idx = build_param_index(m)
            jacobian(idx, sample_beta(idx.p, [0, 0]))
            del idx
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < largest_z


def _deficit_models():
    """The fixtures, the K_{2,3} model with a T1 node and triangle_pendants with
    a 4-level T1 node beside 3-level S nodes; 20 exhaustive graphs
    on 5 observed nodes with a singular system, each given 1..3 T1 nodes and,
    every other one, a 3-level node; 40 drawn models on 3..7 observed nodes
    with T1 nodes and 3-level nodes; and 40 binary random graphs on 2..11
    observed nodes, the hidden node joined to a random nonempty subset."""
    yield from map(load_model, FIXTURE_NAMES)
    yield k23_with_t1_model()
    # a T1 node at 4 levels while S holds 3-level nodes: the model's width, 3,
    # is not the one the core's levels alone give, 2
    pendants = load_model("triangle_pendants").graph
    yield LatentModel(Graph.from_edges(8, [*pendants.edges, (6, 7)]), (2, 2, 3, 2, 2, 3, 2, 4))
    rng = random.Random(11)
    with_system = [g for g in hidden_over_all_graphs() if g.node_count == 6]
    with_system = [g for g in with_system if classify(LatentModel.binary(g)).singular_system]
    for i, g in enumerate(rng.sample(with_system, 20)):
        n = 5 + rng.randint(1, 3)
        t1_edges = [(u, v) for v in range(6, n + 1) for u in rng.sample(range(1, v), 2)]
        levels = [2] * (n + 1)
        levels[rng.randint(1, n)] += i % 2
        yield LatentModel(Graph.from_edges(n + 1, [*g.edges, *t1_edges]), tuple(levels))
    for _ in range(40):
        n = rng.randint(3, 7)
        s_nodes = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
        observed = [pr for pr in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        levels = (2, *(rng.choice((2, 2, 3)) for _ in range(n)))
        yield LatentModel(Graph.from_edges(n + 1, [(0, v) for v in s_nodes] + observed), levels)
    for _ in range(40):
        n = rng.randint(2, 11)
        s_nodes = rng.sample(range(1, n + 1), rng.randint(1, n))
        density = rng.uniform(0.2, 0.7)
        observed = [pr for pr in itertools.combinations(range(1, n + 1), 2) if rng.random() < density]
        yield LatentModel.binary(Graph.from_edges(n + 1, [(0, v) for v in s_nodes] + observed))


def test_core_has_the_model_rank_deficit():
    # p - rank(J) is the same on the model and on its {0} | S core, at sampled
    # points and at points on the singular system, the core's point being the
    # model's restricted to the complete subsets of {0} | S; the core's index
    # keys its columns in model ids, so it reads the verdict's system as it is
    counts = {"t1": 0, "multi_level": 0, "on_system": 0, "forced_zero": 0}
    for m in _deficit_models():
        core_idx = _core(m)
        core, ids = core_idx.model, core_idx.node_ids
        full_idx = build_param_index(m)
        # one width per model: the core's slot masks are the model's own, in
        # the model's column order, whatever width the core's levels alone give
        w = full_idx.width
        assert core_idx.width == w == max(m.levels) - 1
        assert core_idx.entries == tuple(
            e for e in full_idx.entries if {s // w for s in _bits(e)} <= set(ids)
        )
        cols = [full_idx.lookup[e] for e in core_idx.entries]
        assert core_idx.names() == [full_idx.names()[j] for j in cols]

        points = [sample_beta(full_idx.p, [7, t]) for t in range(2)]
        system = classify(m).singular_system
        if system is not None:
            assert system.width == w  # the system's slot masks are the index's
            try:
                points += [sample_on_subspace(system, full_idx, [7, t]) for t in range(2)]
            except InconsistentSystemError as exc:
                # a forced zero, never a term missing from the index; the core's
                # elimination names the same coordinate, in model ids
                assert str(exc).startswith("the equations force "), exc
                with pytest.raises(InconsistentSystemError, match=f"^{re.escape(str(exc))}$"):
                    numeric._eliminate(system, core_idx)
                counts["forced_zero"] += 1
            else:
                counts["on_system"] += 1
                assert numeric._eliminate(system, full_idx) == [
                    [(cols[c], a) for c, a in row] for row in numeric._eliminate(system, core_idx)
                ]
                for beta in points[2:]:
                    for eq in system.equations:
                        assert abs(sum(beta[cols][core_idx.lookup[t]] for t in eq.terms)) < 1e-12
        for beta in points:
            full = numeric_rank(jacobian(full_idx, beta))
            core_jacobian = jacobian(core_idx, beta[cols])
            assert core_jacobian.shape == (core.table_size, core_idx.p)
            reduced = numeric_rank(core_jacobian)
            assert not (full.ambiguous or reduced.ambiguous)
            assert full_idx.p - full.rank == core_idx.p - reduced.rank, m
        counts["t1"] += len(ids) < m.graph.node_count
        counts["multi_level"] += max(m.levels) > 2
    assert counts["t1"] >= 50 and counts["multi_level"] >= 20 and counts["on_system"] >= 20, counts
    assert counts["forced_zero"] >= 1, counts


def test_rank_command_matches_the_full_table(tmp_path, capsys):
    # `rank` ranks the core at the core's coordinates of its point; the model's
    # rank p - core.p + rank is the full table's, at the sampled point and at a
    # point of the singular system read back through --beta, where it drops
    counts = {"compared": 0, "whole": 0, "dropped": 0}
    for i, m in enumerate(_deficit_models()):
        path, beta_file = tmp_path / f"m{i}.model", tmp_path / f"m{i}.beta"
        path.write_text(model_text(m))
        full_idx, core_idx = build_param_index(m), _core(m)
        cols = [full_idx.lookup[e] for e in core_idx.lookup]
        points = [("sampled", sample_beta(full_idx.p, [0, 0]))]
        system = classify(m).singular_system
        if system is not None:
            try:
                points.append(("file", sample_on_subspace(system, full_idx, [7, 0])))
            except InconsistentSystemError as exc:
                assert str(exc).startswith("the equations force "), exc
        for kind, beta in points:
            argv = ["rank", str(path)]
            if kind == "file":
                beta_file.write_text(" ".join(map(repr, beta.tolist())))
                argv += ["--beta", str(beta_file)]
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["beta_source"]["kind"] == kind
            assert report["coordinates"] == full_idx.names()
            assert report["beta"] == beta.tolist()
            assert report["core"] == {"nodes": list(core_idx.node_ids), "p": core_idx.p}
            assert report["rank"] == _rank_block(numeric_rank(jacobian(core_idx, beta[cols])))
            full, rank = numeric_rank(jacobian(full_idx, beta)), report["rank"]
            if not (full.ambiguous or rank["ambiguous"]):
                assert report["p"] - core_idx.p + rank["rank"] == full.rank, m
                counts["compared"] += 1
                counts["dropped"] += kind == "file" and full.rank < full_idx.p
            if core_idx.p == full_idx.p:
                assert rank == _rank_block(full)
                counts["whole"] += 1
    assert counts["compared"] >= 120 and counts["whole"] >= 20 and counts["dropped"] >= 20, counts
