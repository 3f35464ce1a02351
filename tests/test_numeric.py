import random
import tracemalloc

import numpy as np
import pytest

from latident import (
    DimensionMismatchError,
    ExponentOverflowError,
    Graph,
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
    marginalization_matrix,
    mu_y,
    numeric_rank,
    rank_on_system,
    sample_beta,
)

from conftest import FIXTURE_NAMES, five_cycle_model, load_model, star_model

SINGLE_EDGE = LatentModel.binary(Graph.from_edges(2, [(0, 1)]))


def finite_difference_jacobian(m, idx, beta, h=1e-5):
    cols = []
    for j in range(idx.p):
        step = np.zeros(idx.p)
        step[j] = h
        cols.append((mu_y(m, idx, beta + step) - mu_y(m, idx, beta - step)) / (2 * h))
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
    d = jacobian(SINGLE_EDGE, idx, beta)
    assert d.shape == (2, 4)
    assert numeric_rank(d).rank == 2
    fd = finite_difference_jacobian(SINGLE_EDGE, idx, beta)
    assert np.allclose(d, fd, rtol=1e-6)


def test_jacobian_near_zero_parameters_approaches_lz():
    idx = build_param_index(SINGLE_EDGE)
    z = design_matrix(SINGLE_EDGE, idx)
    l_mat = marginalization_matrix(SINGLE_EDGE)
    beta = np.full(idx.p, 1e-9)
    d = jacobian(SINGLE_EDGE, idx, beta)
    assert np.allclose(d, l_mat @ z, atol=1e-7)


def test_jacobian_dimension_mismatch():
    idx = build_param_index(SINGLE_EDGE)
    with pytest.raises(DimensionMismatchError):
        jacobian(SINGLE_EDGE, idx, np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [jacobian, mu_y])
def test_non_finite_beta_rejected(fn, bad):
    # NaN compares False against the overflow bound, so it needs its own check
    idx = build_param_index(SINGLE_EDGE)
    with pytest.raises(ValidationError, match="beta has non-finite coordinates"):
        fn(SINGLE_EDGE, idx, np.array([0.5, bad, 1.0, 1.0]))


def test_jacobian_overflow_guard():
    idx = build_param_index(SINGLE_EDGE)
    with pytest.raises(ExponentOverflowError):
        jacobian(SINGLE_EDGE, idx, np.array([800.0, 1.0, 1.0, 1.0]))


def test_numeric_rank_identity_and_outer_product():
    assert numeric_rank(np.eye(5)).rank == 5
    u = np.arange(1.0, 11.0)
    assert numeric_rank(np.outer(u, u)).rank == 1


def test_numeric_rank_gap_rule_flags_ambiguity():
    mat = np.diag([1.0, 1e-2, 1e-15])
    report = numeric_rank(mat, tol=1e-6)
    assert report.rank == 2
    assert not report.ambiguous  # 1e-2 vs 1e-15 is a clean cut
    soft = np.diag([1.0, 1.1e-5, 1.0e-5])
    soft_report = numeric_rank(soft, tol=1.05e-5)
    assert soft_report.rank == 2
    assert soft_report.ambiguous  # cut lands inside a factor-1.1 plateau


def test_numeric_rank_tolerance_override():
    mat = np.diag([1.0, 1e-4])
    assert numeric_rank(mat).rank == 2
    assert numeric_rank(mat, tol=1e-3).rank == 1


def test_generic_rank_triangle_pendants(triangle_pendants):
    report = generic_rank(triangle_pendants, trials=50, seed=0)
    assert report.rank == 28
    assert report.modal_rank == 28
    assert report.unanimous
    assert not report.ambiguous


def test_generic_rank_trials_validation(triangle_pendants):
    with pytest.raises(ValueError):
        generic_rank(triangle_pendants, trials=0)


BAD_TOLS = [float("nan"), float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_numeric_rank_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        numeric_rank(np.eye(2), tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_generic_rank_rejects_bad_tolerance(path5, tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        generic_rank(path5, trials=2, seed=0, tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_rank_on_system_rejects_bad_tolerance(path5, tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        rank_on_system(path5, SingularSystem(()), trials=2, seed=0, tol=tol)


def test_generic_rank_rejects_negative_seed(path5):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        generic_rank(path5, trials=2, seed=-1)


def test_rank_on_system_rejects_negative_seed(path5):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        rank_on_system(path5, SingularSystem(()), trials=2, seed=-1)


def test_latent_class_three_full_rank():
    m = star_model(3)
    idx = build_param_index(m)
    assert idx.p == 8
    report = generic_rank(m, trials=20, seed=0)
    assert report.rank == 8  # 8 columns on 8 cells


def test_rank_invariant_under_column_permutation(triangle_pendants):
    idx = build_param_index(triangle_pendants)
    rng = random.Random(0)
    entries = list(idx.entries)
    rng.shuffle(entries)
    shuffled = ParamIndex(tuple(entries))
    beta = sample_beta(idx.p, [2, 0])
    r1 = numeric_rank(jacobian(triangle_pendants, idx, beta)).rank
    r2 = numeric_rank(jacobian(triangle_pendants, shuffled, beta)).rank
    assert r1 == r2 == 28


def test_identified_models_full_rank_at_many_points(path5):
    idx = build_param_index(path5)
    assert classify(path5).status is Status.IDENTIFIED_EVERYWHERE
    report = generic_rank(path5, trials=200, seed=1)
    assert report.unanimous and report.rank == idx.p


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_verdict_agrees_with_numeric_rank(name):
    m = load_model(name)
    idx = build_param_index(m)
    verdict = classify(m)
    report = generic_rank(m, trials=20, seed=0)
    if verdict.status is Status.NOT_IDENTIFIED:
        assert all(r < idx.p for r in report.trial_ranks)
    else:
        assert report.rank == idx.p


def test_probe_only_five_cycle_generically_full_rank():
    m = five_cycle_model()
    verdict = classify(m)
    assert verdict.probe_only
    idx = build_param_index(m)
    assert generic_rank(m, trials=30, seed=0).rank == idx.p == 22


def test_rank_on_system_triangle_pendants(triangle_pendants):
    system = full_system(triangle_pendants)
    report = rank_on_system(triangle_pendants, system, trials=50, seed=0)
    assert report.rank == 27
    assert report.unanimous
    assert report.gap is not None and report.gap >= 1e3


def test_rank_on_empty_system_matches_generic(triangle_pendants):
    empty = SingularSystem(())
    on_empty = rank_on_system(triangle_pendants, empty, trials=10, seed=0)
    plain = generic_rank(triangle_pendants, trials=10, seed=0)
    assert on_empty.rank == plain.rank
    assert on_empty.trial_ranks == plain.trial_ranks


def test_single_boundary_equation_rank_drop(k4_pendants):
    # one boundary hyperplane alone lowers the rank by two on this model
    system = full_system(k4_pendants)
    eq1 = [e for e in system.equations if e.render() == "b{0,5} + b{0,4,5} = 0"]
    report = rank_on_system(k4_pendants, SingularSystem(tuple(eq1)), trials=30, seed=0)
    assert report.rank == 38
    assert report.unanimous


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_jacobian_matches_mu_y_derivative(name):
    m = load_model(name)
    idx = build_param_index(m)
    beta = sample_beta(idx.p, [5, 0])
    d = jacobian(m, idx, beta)
    assert d.shape == (m.table_size, idx.p)
    fd = finite_difference_jacobian(m, idx, beta)
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
    z = design_matrix(m, idx)
    l_mat = marginalization_matrix(m)
    for t in range(3):
        beta = sample_beta(idx.p, [9, t])
        w = np.exp(z @ beta)
        assert np.array_equal(jacobian(m, idx, beta), l_mat @ (w[:, None] * z))
        assert np.array_equal(mu_y(m, idx, beta), l_mat @ w)


def test_jacobian_memory_linear_in_cells():
    # 12 observed binary nodes: l = 4096 cells, so a dense L alone is 268 MB
    m = star_model(12)
    idx = build_param_index(m)
    beta = sample_beta(idx.p, [0, 0])
    design_bytes = 2 * m.table_size * idx.p * 8
    tracemalloc.start()
    try:
        jacobian(m, idx, beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * design_bytes


def test_design_cache_keeps_only_the_latest_model():
    # four different 12-observed-node models; only the last design matrix stays alive
    star = [(0, v) for v in range(1, 13)]
    models = [star_model(12)] + [
        LatentModel.binary(Graph.from_edges(13, star + [edge])) for edge in [(1, 2), (3, 4), (5, 6)]
    ]
    indices = [build_param_index(m) for m in models]
    largest_z = max(2 * m.table_size * idx.p * 8 for m, idx in zip(models, indices))
    tracemalloc.start()
    try:
        for m, idx in zip(models, indices):
            jacobian(m, idx, sample_beta(idx.p, [0, 0]))
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 2 * largest_z
