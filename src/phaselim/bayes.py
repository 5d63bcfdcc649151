"""Optimal Bayesian phase-estimation costs for symmetric probes.

Flat prior: the optimal covariant measurement reduces the problem to the
largest eigenvalue of a real symmetric tridiagonal matrix M built from the
channel's nearest-neighbour coherence transfer; the minimal mean sine-cost is
2 - lambda_max(M) and the optimal input state is the top eigenvector.  M
couples even sites only to odd ones, so numpy's eigh solves a matrix of half
its size, and the cost is taken as a sum of nonnegative terms, so it keeps
full relative precision where 2 - lambda_max cancels.

Reported costs are the square root of that quantity, so that they carry the
units of a phase uncertainty and converge to the same pi/N curve the
closed-form limits describe.

Gaussian prior of width delta0: the minimal quadratic cost obeys the duality
cost = delta0 sqrt(1 - delta0^2 F(rho_bar)), where F(rho_bar) is the maximal
QFI of the probe averaged over the prior, i.e. sent through extra collective
dephasing of strength delta0^2 on top of the physical noise.  No state
beats the van Trees bound 1/sqrt(F + 1/delta0^2) of `bayesian_cr_bound`,
with F the state's QFI under the physical noise alone.

Every cost here is exact for a single shot, one use of the probe; none is
rescaled for repetitions.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np

# the channel build and the optimizer are called through their modules, so
# that a patched module attribute (a tracer, a test fake) sees every call
from . import qcore, qfi_opt
from .qcore import NoiseModel, SymmetricPureState
from .qfi_opt import IterationConfig, OptimizationTrace

__all__ = [
    "GaussianPrior",
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
class GaussianPrior:
    """Zero-mean Gaussian prior of standard deviation delta0 (narrow regime)."""

    delta0: float

    def __post_init__(self):
        if not 0.0 < self.delta0 < math.inf:
            raise ValueError(f"delta0={self.delta0} must be finite and positive")
        if self.delta0 > 1.0:
            warnings.warn(
                f"Gaussian prior width delta0={self.delta0} is not narrow; "
                "the quadratic-cost duality neglects tails beyond (-pi, pi]",
                stacklevel=3)  # past the dataclass __init__, to its caller


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
            if not math.isfinite(p):
                raise ValueError(f"non-finite weight {p} for N={n}")
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
    if n < 1:
        raise ValueError("n must be >= 1")
    channel = qcore.channel_blocks(noise, n)
    b = channel.amplitudes
    off = np.einsum("si,si->i", b[:, :-1], b[:, 1:])
    for blk in channel.blocks:
        off[blk.indices[:-1]] += np.diagonal(blk.weight, offset=1)
    return off


def covariant_m_matrix(n: int, noise: NoiseModel) -> np.ndarray:
    """The (N+1)x(N+1) symmetric tridiagonal matrix whose largest eigenvalue
    determines the optimal flat-prior covariant cost."""
    off = _m_offdiagonal(n, noise)
    return np.diag(off, 1) + np.diag(off, -1)


def covariant_cost(n: int, noise: NoiseModel) -> CovariantResult:
    """Optimal flat-prior Bayesian cost over covariant measurements and input
    states: cost^2 = 2 - lambda_max(M), state = top eigenvector c of M.

    M has a zero diagonal, so it couples even sites only to odd ones,
    M = [[0, B], [B^T, 0]], and c = (u, B^T u / |B^T u|) / sqrt(2) with u the
    top eigenvector of the tridiagonal B B^T: one eigh of half M's size.
    cost^2 is the Rayleigh quotient <c|2 - M|c> over M's superdiagonal o,
    written bond by bond as c_0^2 + c_N^2 + sum_i [o_i (c_i - c_{i+1})^2
    + (1 - o_i) (c_i^2 + c_{i+1}^2)]; every o_i lies in [0, 1], so every
    term is >= 0 and cost^2 keeps its relative precision where
    2 - lambda_max would cancel.
    """
    off = _m_offdiagonal(n, noise)
    m = n // 2 + 1
    # row e: the two bonds (o_{2e-1}, o_{2e}) of even site 2e, zero past the ends
    bonds = np.zeros((m, 2))
    bonds.flat[1:n + 1] = off
    bbt = np.zeros((m, m))
    bbt.flat[::m + 1] = bonds[:, 0] ** 2 + bonds[:, 1] ** 2
    bbt.flat[m::m + 1] = bonds[:-1, 1] * bonds[1:, 0]  # eigh reads the lower half
    # a top eigenvector of the nonnegative B B^T stays one in modulus
    c = np.zeros(n + 1)
    c[0::2] = np.abs(np.linalg.eigh(bbt)[1][:, -1])
    mc = np.zeros(n + 1)  # M c, nonzero on the odd sites only: B^T u
    mc[1:] = off * c[:-1]
    mc[:-1] += off * c[1:]
    norm = np.linalg.norm(mc)
    if norm == 0.0:  # M = 0: the channel is phase-blind, every state costs 2
        cost_sq = 2.0
    else:
        c += mc / norm
        a, b = c[:-1], c[1:]
        d = a - b
        cost_sq = float((off @ (d * d) + (1.0 - off) @ (a * a + b * b)
                         + c[0] * c[0] + c[-1] * c[-1]) / (c @ c))
    state = SymmetricPureState(n, c, normalize=True)
    return CovariantResult(cost_squared=cost_sq, cost=math.sqrt(cost_sq),
                           optimal_state=state, lambda_max=2.0 - cost_sq)


# ---------------------------------------------------------------------------
# Gaussian prior via the QFI duality
# ---------------------------------------------------------------------------


def gaussian_prior_solve(n: int, delta0: Union[float, GaussianPrior],
                         noise: NoiseModel, cfg: Optional[IterationConfig] = None
                         ) -> Tuple[float, OptimizationTrace]:
    """Minimal quadratic-cost Bayesian error for a Gaussian prior of width
    delta0, with the optimization that produced it: the prior average acts
    as extra collective dephasing of strength delta0^2 composed with the
    physical noise, the QFI of that averaged channel is maximized over
    inputs, and the duality cost = delta0 sqrt(1 - delta0^2 F) converts it
    to a cost.  The trace carries F, the optimal input state, `converged`
    and the stationarity residual.  `delta0` may be a `GaussianPrior`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    prior = delta0 if isinstance(delta0, GaussianPrior) else GaussianPrior(delta0)
    delta0 = prior.delta0
    blocks = qcore.compose_collective(qcore.channel_blocks(noise, n), delta0 ** 2)
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


def bayesian_cr_bound(prior: GaussianPrior, qfi_value: float) -> float:
    """Van Trees lower bound 1/sqrt(F + 1/delta0^2) on the single-shot
    Gaussian-prior cost, 1/delta0^2 being the prior's Fisher information.

    `qfi_value` is the QFI of the encoded output state under the physical
    noise (not of a prior-averaged state).
    """
    if qfi_value < 0.0:
        raise ValueError("QFI must be nonnegative")
    if not isinstance(prior, GaussianPrior):
        raise ValueError(f"unsupported prior: {prior!r}")
    return 1.0 / math.sqrt(qfi_value + 1.0 / prior.delta0 ** 2)


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
    if not 0.0 < delta0 < math.inf:
        raise ValueError(f"delta0={delta0} must be finite and positive")
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
