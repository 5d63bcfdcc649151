"""Iterative maximization of the quantum Fisher information over input states.

The loop: from the current state build the channel output, its phase
derivative and the SLD L, assemble the Heisenberg-picture operator

    A = channel_adjoint(L^2 - 2i [H, L]),

evaluated in the derivative convention under which that expression is the
variational partner of the QFI, so that <psi|A|psi> = -F(psi) and replacing
the state by the eigenvector of A with the smallest eigenvalue cannot
decrease F.  The loop stops when the geometric-tail estimate of
the remaining QFI change (or the raw per-step change) drops below
`rel_tol`, which makes an unpolished run `converged`; the best iterate is
tracked throughout, so a non-converged run returns the best state seen.  A
call is one run from one start (`IterationConfig.initial_state`, else the
sine profile): F never decreases along the loop, and from those starts one
run reaches the optimum that perturbed starts reach, so a multi-start is a
caller's loop over `initial_state`.

Every channel here has Kraus operators diagonal in n, which commute with
the generator, so F(Dc) = F(c) and A(Dc) = D A(c) D^H for every diagonal
unitary D: a run from c is the run from |c| conjugated by D.  So the loop
starts from |c| and runs on real vectors, and the returned state is the
modulus of the best iterate, entrywise >= 0.  F depends on c through
p = |c|^2 alone, concavely (Escher, de Matos Filho & Davidovich, Nat. Phys.
7, 406 (2011)), and every channel commutes with the arm swap J: n -> N - n,
so sqrt((p + Jp)/2) never lowers F.  On a channel with a `parity_split`
(centred dense blocks only, at every N: local or collective dephasing,
any prior, or no noise with a prior) a run starts there and stays in the
even sector: each step is `_sector_qfi`, which returns A's even block A+,
each move is A+'s lowest eigenvector v, and the polish runs on the half
vector; F(v) >= -<v|A+|v> >= -<c|A+|c> = F(c).  Every other channel runs
in the full space.

The map's contraction rate approaches one on flat landscapes (narrow
collective dephasing is the worst case).  With `IterationConfig.polish`,
once the observed rate d1/d2 of successive F changes reaches
`_HANDOFF_RATE`, the loop hands its best state to L-BFGS on the state sphere
(Huang, Gallivan & Absil, SIAM J. Optim. 25, 1660 (2015)) with the gradient
2(A + F) c.  The residual r = |(A + F) c| / F is zero exactly at a fixed
point of the loop; the F error is of order r^2, more where F is flat.  The
polish stops at r <= STATIONARITY_RTOL, on a failed line search, or when
the run's one budget of max_iters + polish_max_evals channel evaluations is
spent.  A polished run is `converged` when it ends at r <= STATIONARITY_RTOL:
a stationary point, which need not be the global optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .qcore import (Channel, NoiseModel, SymmetricPureState, _channel_qfi,
                    _sector_coordinates, _sector_qfi, _unfold, channel_blocks,
                    sine_profile_state)

__all__ = [
    "IterationConfig",
    "OptimizationTrace",
    "qfi_iterate",
    "maximize_qfi_over_states",
    "cr_bound",
    "STATIONARITY_RTOL",
]

# Target of the residual r = |(A + F) c| / F at which the polish stops.  The
# F error is ~r^2, so 1e-7 leaves F within ~1e-13 of the stationary value;
# the loop alone rarely gets below ~1e-5.
STATIONARITY_RTOL = 1e-7

# Observed see-saw contraction rate d1/d2 at which a polished run hands the
# state over to L-BFGS; below it the see-saw still gains faster per evaluation.
_HANDOFF_RATE = 0.5

# Number of (s, y) pairs the L-BFGS polish keeps.
_LBFGS_MEMORY = 30


@dataclass(frozen=True)
class IterationConfig:
    """Knobs of the state-optimization loop.  With `polish`, the see-saw
    hands over to L-BFGS once it slows, and the run makes at most
    max_iters + polish_max_evals channel evaluations in all."""

    max_iters: int = 2000
    rel_tol: float = 1e-10
    polish: bool = True
    polish_max_evals: int = 200
    initial_state: Optional[SymmetricPureState] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be > 0")
        if self.polish_max_evals < 0:
            raise ValueError("polish_max_evals must be >= 0")


@dataclass
class OptimizationTrace:
    """Result of one optimization run.

    `qfi_values` records the loop iterates (at most `max_iters` entries);
    `qfi` is the best value found, including the polish stage, so it can
    exceed the last trace entry.  `residual` is |(A + F) c| / F at the
    returned state (nan when F = 0) and `polish_evals` the number of channel
    evaluations the polish spent (0 when it was skipped).  `converged` is
    residual <= STATIONARITY_RTOL for a polished run and the loop's tail
    test otherwise (true on a phase-blind channel).  `final_state` holds
    real amplitudes >= 0 (see the module docstring).  `parity` is 1 when
    the run was solved on the even sector (the channel has a `parity_split`)
    and 0 when it ran in the full space.
    """

    qfi_values: np.ndarray
    converged: bool
    final_state: SymmetricPureState
    qfi: float
    residual: float = math.nan
    polish_evals: int = 0
    parity: int = 0


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def _iteration_step(channel: Channel, c: np.ndarray):
    """Return (F(c), A(c)) at the real state c; A is real symmetric."""
    a_out = np.zeros((channel.n + 1, channel.n + 1))
    return _channel_qfi(channel, c, a_out), a_out


def _step(channel: Channel, c: np.ndarray):
    """(F, A) at the real state c: on a channel with a `parity_split` c holds
    the even-sector coordinates and A is the even block A+, else c holds all
    N + 1 amplitudes and A is the full operator."""
    return (_iteration_step(channel, c) if channel.parity_split is None
            else _sector_qfi(channel, c))


def _residual(f: float, a: np.ndarray, c: np.ndarray) -> float:
    """Distance from stationarity |(A + F) c| / F of a unit vector c."""
    return float(np.linalg.norm(a @ c + f * c)) / f if f > 0.0 else math.nan


def _lowest_eigenpair(a: np.ndarray, one_pair: bool = False):
    """Lowest eigenpair of a real symmetric matrix from its lower triangle,
    by eigh or, with `one_pair`, by one scipy ?syevr call that computes it
    alone."""
    if one_pair:
        from scipy.linalg import get_lapack_funcs
        syevr, = get_lapack_funcs(("syevr",), (a,))
        w, z, _, _, info = syevr(a, range="I", il=1, iu=1, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"?syevr failed with info = {info}")
        return float(w[0]), z[:, 0]
    w, z = np.linalg.eigh(a)
    return float(w[0]), z[:, 0].copy()


def _lbfgs_direction(g: np.ndarray, pairs: np.ndarray, gamma: float) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H with H0 = gamma I and the (s, y)
    pairs `pairs[:, 0]`, `pairs[:, 1]` (oldest first), in the compact form of
    Byrd, Nocedal & Schnabel (Math. Program. 63, 129 (1994)): a fixed number
    of array operations for any memory."""
    if not len(pairs):
        return -gamma * g
    s, y = pairs[:, 0], pairs[:, 1]
    sy = s @ y.T                  # its upper triangle is R, its diagonal D
    r = np.triu(sy)
    w = np.linalg.solve(r, s @ g)
    z = np.linalg.solve(r.T, sy.diagonal() * w + gamma * (y @ (w @ y) - y @ g))
    return gamma * (w @ y - g) - z @ s


def _polish(channel: Channel, x: np.ndarray, f: float, a: np.ndarray,
            max_evals: int):
    """L-BFGS ascent of F on the unit sphere from the real unit vector x,
    where F(x) = f and a is A at x as `_step` gives it.

    The gradient of -F, g = 2 (A + F) x, is tangent because <x|A|x> = -F.
    A step retracts by x <- (x + t p) / |x + t p| with Armijo backtracking;
    the (s, y) pairs are projected onto the tangent space at every new
    point.  Returns (F, x, residual, evaluations) at the last accepted
    state; stops at residual <= STATIONARITY_RTOL, after `max_evals` channel
    evaluations (line-search trials included) or when a line search fails.
    """
    g = 2.0 * (a @ x + f * x)
    # first step: the line minimum of the model 2 (A + F), kept > 0
    gamma = (g @ g) / abs(2.0 * (g @ (a @ g + f * g)))
    pairs, evals = np.empty((0, 2, len(x))), 0
    while np.linalg.norm(g) > 2.0 * f * STATIONARITY_RTOL and evals < max_evals:
        p = _lbfgs_direction(g, pairs, gamma)
        p -= (x @ p) * x
        slope, t = g @ p, 1.0
        while evals < max_evals and t > 1e-10:
            x_new = (x + t * p) / np.linalg.norm(x + t * p)
            f_new, a = _step(channel, x_new)
            evals += 1
            if f_new >= f - 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        g_new = 2.0 * (a @ x_new + f_new * x_new)
        pairs = np.concatenate([pairs, [[x_new - x, g_new - g]]])
        pairs -= (pairs @ x_new)[..., None] * x_new
        s, y = pairs[-1]
        if s @ y > 0.0:
            pairs, gamma = pairs[-_LBFGS_MEMORY:], (s @ y) / (y @ y)
        else:
            pairs = pairs[:-1]
        x, f, g = x_new, f_new, g_new
    r = float(np.linalg.norm(g)) / (2.0 * f)
    return f, x, r, evals


def maximize_qfi_over_states(n: int, blocks: Channel,
                             cfg: Optional[IterationConfig] = None) -> OptimizationTrace:
    """Run the optimization loop on an explicit channel (from `channel_blocks`,
    possibly composed with `compose_collective`).

    This is the engine behind `qfi_iterate`; the Bayesian module reuses it
    with prior-averaged channels.  The run starts from the modulus |c| of
    the start's amplitudes, on a channel with a `parity_split` symmetrized to
    sqrt((p + Jp)/2) and folded onto the even sector (module docstring).
    """
    cfg = cfg or IterationConfig()
    if blocks.n != n:
        raise ValueError(f"channel is for N={blocks.n}, not N={n}")
    start = cfg.initial_state
    if start is None:
        start = sine_profile_state(n)
    elif start.n_particles != n:
        raise ValueError("initial state has the wrong particle number")
    c = np.abs(start.amplitudes)
    sector = blocks.parity_split is not None
    if sector:
        c = _sector_coordinates(np.sqrt(0.5 * (c * c + c[::-1] * c[::-1])))
    c = c / np.linalg.norm(c)
    one_pair = len(blocks.amplitudes) > 1  # loss rows; the first move loads scipy
    history: List[float] = []
    best_f, best_c, best_a = -np.inf, c, None
    converged = False
    for _ in range(cfg.max_iters):
        f, a = _step(blocks, c)
        history.append(f)
        if f > best_f:
            best_f, best_c, best_a = f, c, a
        if len(history) >= 2 and f == 0.0 and history[-2] == 0.0:
            converged = True  # phase-blind channel: nothing to optimize
            break
        if len(history) >= 3 and f > 0.0:
            d1 = abs(history[-1] - history[-2])
            d2 = abs(history[-2] - history[-3])
            if d1 <= cfg.rel_tol * f:
                converged = True
                break
            if d2 > 0.0:
                rate = min(d1 / d2, 0.999)
                if d1 * rate / (1.0 - rate) <= cfg.rel_tol * f:
                    converged = True
                    break
                if cfg.polish and rate >= _HANDOFF_RATE:
                    break
        c = _lowest_eigenpair(a, one_pair)[1]
    best_r = _residual(best_f, best_a, best_c)
    polish_evals = 0
    if cfg.polish and best_f > 0.0:
        if best_r > STATIONARITY_RTOL:
            budget = cfg.polish_max_evals + cfg.max_iters - len(history)
            best_f, best_c, best_r, polish_evals = _polish(
                blocks, best_c, best_f, best_a, budget)
        converged = best_r <= STATIONARITY_RTOL
    if sector:
        best_c = _unfold(best_c, n + 1)
    state = SymmetricPureState(n, np.abs(best_c), normalize=True)
    return OptimizationTrace(qfi_values=np.asarray(history), converged=converged,
                             final_state=state, qfi=best_f, residual=best_r,
                             polish_evals=polish_evals, parity=int(sector))


def qfi_iterate(n: int, noise: NoiseModel,
                cfg: Optional[IterationConfig] = None) -> OptimizationTrace:
    """Maximal QFI over N-particle symmetric inputs for the given channel."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return maximize_qfi_over_states(n, channel_blocks(noise, n), cfg)


def cr_bound(qfi_value: float, repetitions: int = 1) -> float:
    """Cramer-Rao phase uncertainty 1/sqrt(k F) for k independent repetitions."""
    if qfi_value <= 0.0:
        raise ValueError("QFI must be positive")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return 1.0 / math.sqrt(repetitions * qfi_value)
