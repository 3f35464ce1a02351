"""Independent linear-algebra oracle: Jacobian construction and numerical rank.

The Jacobian of the observed-table mean vector with respect to the log-linear
parameters is L diag(exp(Z beta)) Z; its column rank at a point decides local
identifiability there.  L sums out the hidden variable.  It is applied as the
sum of the two hidden-level halves (rows 0..l-1 and l..2l-1 of the cell
stacking) and never formed: every entry of the dense product is that same
two-term sum plus exact zeros, so the result is bitwise the same.

Rank is measured by full SVD with a relative tolerance and a gap rule: when the
singular values do not drop by at least 1e3 across the chosen cut, the report
is flagged ambiguous instead of silently committing.

Every stochastic operation takes an explicit seed; trial t of a batch draws
from the stream keyed by (seed, t), so results do not depend on scheduling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatchError,
    ExponentOverflowError,
    ValidationError,
)
from .loglinear import LatentModel, ParamIndex, build_param_index, design_matrix

SAFE_EXPONENT = 700.0
GAP_RULE = 1.0e3
_BETA_LOW, _BETA_HIGH = 0.5, 1.5


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of one matrix, or the aggregate over sampled trials.

    For aggregates, `rank` is the maximum over trials (the generic rank under
    the polynomial-map argument), `singular_values`/`gap`/`ambiguous` describe
    the first trial achieving it, and `trial_ranks`/`modal_rank`/`unanimous`
    summarize the batch.
    """

    rank: int
    singular_values: tuple[float, ...]
    tolerance_used: float
    p: int
    gap: float | None
    ambiguous: bool
    trial_ranks: tuple[int, ...] | None = None
    modal_rank: int | None = None
    unanimous: bool | None = None


def sample_beta(p: int, seed) -> NDArray[np.float64]:
    """Parameter draw: each coordinate uniform on [-1.5,-0.5] union [0.5,1.5]."""
    rng = np.random.default_rng(seed)
    magnitudes = rng.uniform(_BETA_LOW, _BETA_HIGH, p)
    signs = 2 * rng.integers(0, 2, p) - 1
    return signs * magnitudes


@lru_cache(maxsize=1)  # verify and rank reuse only the current model's Z
def _design(m: LatentModel, idx: ParamIndex) -> np.ndarray:
    return design_matrix(m, idx)


def _cell_means(
    m: LatentModel, idx: ParamIndex, beta: NDArray
) -> tuple[np.ndarray, NDArray[np.float64]]:
    """Design matrix Z and the full-table mean vector exp(Z beta)."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (idx.p,):
        raise DimensionMismatchError(
            f"beta has shape {beta.shape}, expected ({idx.p},)"
        )
    z = _design(m, idx)
    eta = z @ beta
    if np.max(np.abs(eta)) > SAFE_EXPONENT:
        raise ExponentOverflowError("linear predictor exceeds the safe exponent range")
    return z, np.exp(eta)


def mu_y(m: LatentModel, idx: ParamIndex, beta: NDArray) -> NDArray[np.float64]:
    """Observed-table mean vector L exp(Z beta), shape (l,)."""
    _, w = _cell_means(m, idx, beta)
    l = m.table_size
    return w[:l] + w[l:]


def jacobian(m: LatentModel, idx: ParamIndex, beta: NDArray) -> NDArray[np.float64]:
    """Jacobian of mu_y with respect to beta: L diag(exp(Z beta)) Z, shape (l, p)."""
    z, w = _cell_means(m, idx, beta)
    d = w[:, None] * z
    l = m.table_size
    return d[:l] + d[l:]


def numeric_rank(mat: NDArray, tol: float | None = None) -> RankReport:
    """Rank by full SVD: the count of singular values above the tolerance.

    Default tolerance is max(rows, cols) * machine epsilon * largest singular
    value.  The cut must show a relative gap of at least 1e3, otherwise the
    report is flagged ambiguous.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValidationError("matrix has non-finite entries")
    sv = np.linalg.svd(mat, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    tol_used = float(tol) if tol is not None else max(mat.shape) * np.finfo(float).eps * smax
    rank = int(np.sum(sv > tol_used))
    gap = None
    ambiguous = False
    if 0 < rank < sv.size:
        below = float(sv[rank])
        gap = float(sv[rank - 1]) / below if below > 0 else float("inf")
        ambiguous = gap < GAP_RULE
    return RankReport(
        rank=rank,
        singular_values=tuple(float(s) for s in sv),
        tolerance_used=tol_used,
        p=mat.shape[1],
        gap=gap,
        ambiguous=ambiguous,
    )


def _trial_loop(
    m: LatentModel, idx: ParamIndex | None, trials: int, tol: float | None, draw
) -> RankReport:
    """Rank the Jacobian at `draw(idx, t)` for t < trials and aggregate."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if idx is None:
        idx = build_param_index(m)
    reports = [numeric_rank(jacobian(m, idx, draw(idx, t)), tol=tol) for t in range(trials)]
    ranks = tuple(r.rank for r in reports)
    best = max(ranks)
    rep = next(r for r in reports if r.rank == best)
    counts = Counter(ranks)
    top = max(counts.values())
    modal = min(r for r, c in counts.items() if c == top)
    return RankReport(
        rank=best,
        singular_values=rep.singular_values,
        tolerance_used=rep.tolerance_used,
        p=rep.p,
        gap=rep.gap,
        ambiguous=rep.ambiguous,
        trial_ranks=ranks,
        modal_rank=modal,
        unanimous=len(counts) == 1,
    )


def generic_rank(
    m: LatentModel,
    trials: int = 50,
    seed: int = 0,
    idx: ParamIndex | None = None,
    tol: float | None = None,
) -> RankReport:
    """Maximum Jacobian rank over random parameter draws.

    A single full-rank point certifies full rank almost everywhere, so the
    maximum over trials estimates the generic rank; the modal rank and any
    disagreement across trials are reported alongside.
    """
    return _trial_loop(m, idx, trials, tol, lambda idx, t: sample_beta(idx.p, [seed, t]))


def rank_on_system(
    m: LatentModel,
    sys,
    trials: int = 50,
    seed: int = 0,
    idx: ParamIndex | None = None,
    tol: float | None = None,
) -> RankReport:
    """Maximum Jacobian rank over draws constrained to a singular system.

    All draws are expected to agree; `unanimous` records whether they did.
    """
    from .singular import sample_on_subspace

    return _trial_loop(
        m, idx, trials, tol, lambda idx, t: sample_on_subspace(sys, idx, (seed, t))
    )
