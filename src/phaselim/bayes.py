"""Optimal Bayesian phase-estimation costs for symmetric probes.

Flat prior: the optimal covariant measurement reduces the problem to the
largest eigenvalue of a real symmetric tridiagonal matrix M built from the
channel's nearest-neighbour coherence transfer; the minimal mean sine-cost is
2 - lambda_max(M) and the optimal input state is the top eigenvector.

Reported costs are the square root of that quantity, so that they carry the
units of a phase uncertainty and converge to the same pi/N curve the
closed-form limits describe.

Gaussian prior of width delta0: the minimal quadratic cost obeys the duality
cost = delta0 sqrt(1 - delta0^2 F(rho_bar)), where F(rho_bar) is the maximal
QFI of the probe averaged over the prior, i.e. sent through extra collective
dephasing of strength delta0^2 on top of the physical noise.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal

# the channel build and the optimizer are called through their modules, so
# that a patched module attribute (a tracer, a test fake) sees every call
from . import qcore, qfi_opt
from .qcore import NoiseModel, SymmetricPureState
from .qfi_opt import IterationConfig, OptimizationTrace

__all__ = [
    "FlatPrior",
    "GaussianPrior",
    "Prior",
    "CovariantResult",
    "ParticleNumberMixture",
    "IndefiniteBound",
    "covariant_m_matrix",
    "covariant_cost",
    "gaussian_prior_cost",
    "gaussian_prior_solve",
    "bayesian_cr_bound",
    "mixture_qfi",
    "indefinite_bayes_bound",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FlatPrior:
    """Uniform prior over (-pi, pi]."""


@dataclass(frozen=True)
class GaussianPrior:
    """Zero-mean Gaussian prior of standard deviation delta0 (narrow regime)."""

    delta0: float

    def __post_init__(self):
        if self.delta0 <= 0.0:
            raise ValueError("delta0 must be positive")
        if self.delta0 > 1.0:
            warnings.warn(
                f"Gaussian prior width delta0={self.delta0} is not narrow; "
                "the quadratic-cost duality neglects tails beyond (-pi, pi]",
                stacklevel=2)


Prior = Union[FlatPrior, GaussianPrior]


@dataclass
class CovariantResult:
    """Optimal flat-prior covariant measurement cost and its input state."""

    cost_squared: float
    cost: float
    optimal_state: SymmetricPureState
    lambda_max: float


@dataclass
class ParticleNumberMixture:
    """Incoherent mixture of definite-particle-number sectors."""

    entries: List[Tuple[int, float]]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("mixture must contain at least one entry")
        total = 0.0
        for n, p in self.entries:
            if n < 0:
                raise ValueError(f"negative particle number {n}")
            if p < -1e-15:
                raise ValueError(f"negative weight {p} for N={n}")
            total += p
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {total}, expected 1")

    @property
    def mean_n(self) -> float:
        return float(sum(n * p for n, p in self.entries))


@dataclass
class IndefiniteBound:
    """Gaussian-prior cost bounds for an indefinite-particle-number probe."""

    exact: float     # weighted-sum expression over the mixture
    relaxed: float   # concavity relaxation evaluated at the mean N
    delta0: float
    mean_n: float


# ---------------------------------------------------------------------------
# flat prior / covariant measurement
# ---------------------------------------------------------------------------


def _m_offdiagonal(n: int, noise: NoiseModel) -> np.ndarray:
    """Super-diagonal of the covariant cost matrix M (length N+1 - 1): the
    summed superdiagonals of the channel's block weights."""
    channel = qcore.channel_blocks(noise, n)
    b = channel.amplitudes
    off = np.einsum("si,si->i", b[:, :-1], b[:, 1:])
    for blk in channel.blocks:
        off[blk.indices[:-1]] += np.diagonal(blk.weight, offset=1)
    return off


def covariant_m_matrix(n: int, noise: NoiseModel) -> np.ndarray:
    """The (N+1)x(N+1) symmetric tridiagonal matrix whose largest eigenvalue
    determines the optimal flat-prior covariant cost."""
    if n < 1:
        raise ValueError("n must be >= 1")
    off = _m_offdiagonal(n, noise)
    m = np.zeros((n + 1, n + 1))
    idx = np.arange(n)
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off
    return m


def covariant_cost(n: int, noise: NoiseModel) -> CovariantResult:
    """Optimal flat-prior Bayesian cost over covariant measurements and input
    states: cost^2 = 2 - lambda_max(M), state = top eigenvector of M."""
    off = _m_offdiagonal(n, noise)
    lam, vec = eigh_tridiagonal(np.zeros(n + 1), off,
                                select="i", select_range=(n, n))
    lam_max = float(lam[0])
    c = vec[:, 0]
    # the top eigenvector of the nonnegative tridiagonal M can be chosen
    # entrywise nonnegative; fix the global sign accordingly
    if c.sum() < 0.0:
        c = -c
    cost_sq = max(2.0 - lam_max, 0.0)
    state = SymmetricPureState(n, c, normalize=True)
    return CovariantResult(cost_squared=cost_sq, cost=math.sqrt(cost_sq),
                           optimal_state=state, lambda_max=lam_max)


# ---------------------------------------------------------------------------
# Gaussian prior via the QFI duality
# ---------------------------------------------------------------------------


def gaussian_prior_solve(n: int, delta0: float, noise: NoiseModel,
                         cfg: Optional[IterationConfig] = None
                         ) -> Tuple[float, OptimizationTrace]:
    """Minimal quadratic-cost Bayesian error for a Gaussian prior of width
    delta0, with the optimization that produced it: the prior average acts
    as extra collective dephasing of strength delta0^2 composed with the
    physical noise, the QFI of that averaged channel is maximized over
    inputs, and the duality cost = delta0 sqrt(1 - delta0^2 F) converts it
    to a cost.  The trace carries F, the optimal input state, `converged`
    and the stationarity residual."""
    prior = GaussianPrior(delta0)  # validates and warns when too wide
    blocks = qcore.compose_collective(qcore.channel_blocks(noise, n),
                                      prior.delta0 ** 2)
    trace = qfi_opt.maximize_qfi_over_states(n, blocks, cfg)
    slack = 1.0 - delta0 ** 2 * trace.qfi
    if slack < 0.0:
        logger.warning(
            "duality slack 1 - delta0^2 F = %.3e clipped to zero "
            "(n=%d, delta0=%g)", slack, n, delta0)
        slack = 0.0
    return delta0 * math.sqrt(slack), trace


def gaussian_prior_cost(n: int, delta0: float, noise: NoiseModel,
                        cfg: Optional[IterationConfig] = None) -> float:
    """The cost of `gaussian_prior_solve` alone."""
    return gaussian_prior_solve(n, delta0, noise, cfg)[0]


def bayesian_cr_bound(prior: Prior, qfi_value: float) -> float:
    """Prior-aware Cramer-Rao lower bound 1/sqrt(F + I) on the Bayesian cost,
    with I the prior's Fisher information (1/delta0^2 for a Gaussian).

    `qfi_value` is the QFI of the encoded output state under the physical
    noise (not of a prior-averaged state).  A flat prior on the circle has a
    sharp boundary, so its information term is dropped with a diagnostic and
    the plain 1/sqrt(F) is returned.
    """
    if qfi_value < 0.0:
        raise ValueError("QFI must be nonnegative")
    if isinstance(prior, GaussianPrior):
        info = 1.0 / prior.delta0 ** 2
    elif isinstance(prior, FlatPrior):
        logger.info(
            "flat prior does not vanish on the boundary; returning the "
            "QFI-only bound without a prior-information term")
        info = 0.0
    else:
        raise ValueError(f"unsupported prior: {prior!r}")
    total = qfi_value + info
    if total <= 0.0:
        raise ValueError("F + I must be positive")
    return 1.0 / math.sqrt(total)


# ---------------------------------------------------------------------------
# indefinite particle number
# ---------------------------------------------------------------------------


def mixture_qfi(mix: ParticleNumberMixture, per_n_qfi: Mapping[int, float]) -> float:
    """QFI of a direct-sum mixture: the weighted sum of the sector QFIs."""
    total = 0.0
    for n, p in mix.entries:
        if n not in per_n_qfi:
            raise ValueError(f"missing QFI value for N={n}")
        total += p * per_n_qfi[n]
    return total


def indefinite_bayes_bound(mix: ParticleNumberMixture, delta0: float) -> IndefiniteBound:
    """Gaussian-prior cost bound for an indefinite-particle-number probe.

    Evaluates the weighted-sum expression
        delta0 sqrt(1 - delta0^2 sum_N p_N / (delta0^2 + pi^2/N^2))
    and its concavity relaxation with N replaced by the mean, and checks that
    the exact expression dominates the relaxed one.
    """
    if delta0 <= 0.0:
        raise ValueError("delta0 must be positive")
    small = [n for n, p in mix.entries if n < 10 and p > 0.0]
    if small:
        logger.info(
            "mixture has weight on small sectors N=%s; the large-N sector "
            "formula is being extrapolated there", small)
    d2 = delta0 * delta0
    acc = 0.0
    for n, p in mix.entries:
        if n == 0:
            continue  # phase-blind sector contributes nothing
        acc += p / (d2 + math.pi ** 2 / n ** 2)
    exact = delta0 * math.sqrt(max(0.0, 1.0 - d2 * acc))
    nbar = mix.mean_n
    if nbar > 0.0:
        relaxed = delta0 * math.sqrt(max(0.0, 1.0 - d2 / (d2 + math.pi ** 2 / nbar ** 2)))
    else:
        relaxed = delta0
    if exact < relaxed - 1e-12:
        raise AssertionError(
            f"concavity violated: exact {exact} < relaxed {relaxed}")
    return IndefiniteBound(exact=exact, relaxed=relaxed, delta0=delta0,
                           mean_n=nbar)
