import latident

EXPORTED = [
    "DimensionMismatchError",
    "ExponentOverflowError",
    "Graph",
    "InconsistentSystemError",
    "LatentIsolatedError",
    "LatentModel",
    "LatidentError",
    "NotApplicableError",
    "ParamEntry",
    "ParamIndex",
    "ParseError",
    "RankReport",
    "SequenceCert",
    "SingularEquation",
    "SingularSystem",
    "Status",
    "ValidationError",
    "Verdict",
    "build_param_index",
    "classify",
    "complement",
    "connected_components",
    "design_matrix",
    "find_generalized_sequence",
    "full_system",
    "generic_rank",
    "induced_subgraph",
    "jacobian",
    "latent_partition",
    "maximal_cliques",
    "mu_y",
    "numeric_rank",
    "parse_model",
    "rank_on_system",
    "sample_beta",
]

# no production path calls these; tests and the benchmark's tracer import them
# from their modules (tests/test_trace_contract.py checks that they are there)
MODULE_ONLY = [
    "complete_subsets",
    "find_identifying_sequence",
    "locus_equations_for_set",
    "marginalization_matrix",
    "sample_on_subspace",
]


def test_package_exports_only_production_names():
    assert latident.__all__ == EXPORTED
    for name in EXPORTED:
        assert hasattr(latident, name), name
    for name in MODULE_ONLY:
        assert not hasattr(latident, name), name
