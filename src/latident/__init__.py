"""Local identifiability of discrete undirected graphical models with one
binary hidden node: structural classification, explicit singular-subspace
equations, and an independent numerical Jacobian-rank oracle."""

from .errors import (
    DimensionMismatchError,
    ExponentOverflowError,
    InconsistentSystemError,
    LatentIsolatedError,
    LatidentError,
    NotApplicableError,
    ParseError,
    ValidationError,
)
from .graph import (
    Graph,
    complement,
    connected_components,
    induced_subgraph,
    maximal_cliques,
)
from .identify import (
    SequenceCert,
    Status,
    Verdict,
    classify,
    find_generalized_sequence,
    latent_partition,
)
from .loglinear import (
    LatentModel,
    ParamEntry,
    ParamIndex,
    build_param_index,
    design_matrix,
)
from .numeric import (
    RankReport,
    generic_rank,
    jacobian,
    mu_y,
    numeric_rank,
    rank_on_system,
    sample_beta,
)
from .singular import (
    SingularEquation,
    SingularSystem,
    full_system,
)
from .cli import parse_model

# No production path calls complete_subsets, find_identifying_sequence, marginalization_matrix,
# locus_equations_for_set or sample_on_subspace: tests and perfbench import them from their modules.
__all__ = [
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
