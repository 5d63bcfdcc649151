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

Every channel commutes with the arm swap J: m -> -m, so from a start with
Jc = +-c, A(c) commutes with J, its lowest eigenvector lies in one parity
sector and the gradient stays in c's sector.  Such a start, on a channel
with a `parity_split` (centred dense blocks only: local or collective
dephasing, with or without a prior), runs in sector coordinates: each step
is `qcore._sector_qfi`, A comes as its two sector blocks keyed by parity,
the loop's eigenpair is the lower of their lowest eigenpairs (so the state
may change sector, as it may in the full space) and the polish runs on the
half vector.  That is the full-space algorithm up to rounding; any other
start or channel runs in the full space, with A keyed by parity 0.

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
    test otherwise (true on a phase-blind channel).
    `parity` is the arm-swap sector of the returned state, +1 (even) or -1
    (odd), when the run was solved on the sectors' half-size blocks, and 0
    when it ran in the full space.
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
    """Return (F(c), A(c)); A is real symmetric for real c, else Hermitian."""
    a_out = np.zeros((channel.n + 1, channel.n + 1), dtype=c.dtype)
    return _channel_qfi(channel, c, a_out), a_out


def _step(channel: Channel, parity: int, c: np.ndarray):
    """(F, A) at the state c of the given parity, with A keyed by parity:
    for parity 0, c holds all N + 1 amplitudes and A is {0: A}; otherwise c
    holds the coordinates in that arm-swap sector and A is {1: A+, -1: A-},
    its two sector blocks.  A[parity] acts on c."""
    if parity == 0:
        f, a = _iteration_step(channel, c)
        return f, {0: a}
    f, (a_p, a_m) = _sector_qfi(channel, parity, c)
    return f, {1: a_p, -1: a_m}


def _see_saw_move(a, one_pair: bool = False):
    """(parity, state) of the lowest eigenvector of A, keyed as `_step`'s.
    On the sectors it is the lower of the two sectors' lowest eigenpairs
    (the even one on a tie), as in the full space, so the state may change
    sector.  `one_pair` is passed to `_lowest_eigenpair`."""
    pairs = {parity: _lowest_eigenpair(blk, one_pair) for parity, blk in a.items()}
    parity = min(pairs, key=lambda p: (pairs[p][0], -p))
    return parity, _fix_phase(pairs[parity][1])


def _start_parity(channel: Channel, c: np.ndarray) -> int:
    """The arm-swap sector, +1 or -1, that c lies in to 1e-12 of |c| when
    the channel can be solved there (`Channel.parity_split`), else 0."""
    nrm = np.linalg.norm(c)
    for parity in (1, -1):
        if np.linalg.norm(c - parity * c[::-1]) <= 1e-12 * nrm:
            return parity if channel.parity_split is not None else 0
    return 0


def _residual(f: float, a: np.ndarray, c: np.ndarray) -> float:
    """Distance from stationarity |(A + F) c| / F of a unit vector c."""
    return float(np.linalg.norm(a @ c + f * c)) / f if f > 0.0 else math.nan


def _lowest_eigenpair(a: np.ndarray, one_pair: bool = False):
    """Lowest eigenpair of a Hermitian matrix from its lower triangle, by eigh
    or, with `one_pair`, by one scipy ?syevr/?heevr call that computes it alone."""
    if one_pair:
        from scipy.linalg import get_lapack_funcs
        evr, = get_lapack_funcs(("heevr" if np.iscomplexobj(a) else "syevr",), (a,))
        w, z, _, _, info = evr(a, range="I", il=1, iu=1, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"?syevr/?heevr failed with info = {info}")
        return float(w[0]), z[:, 0]
    w, z = np.linalg.eigh(a)
    return float(w[0]), z[:, 0].copy()


def _fix_phase(c: np.ndarray) -> np.ndarray:
    """Make the first non-negligible amplitude real and positive."""
    idx = int(np.argmax(np.abs(c) > 1e-8))
    pivot = c[idx]
    if pivot == 0:
        return c
    if np.iscomplexobj(c):
        return c * (np.conj(pivot) / abs(pivot))
    return -c if pivot < 0 else c


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


def _polish(channel: Channel, parity: int, c: np.ndarray, f: float,
            a: np.ndarray, max_evals: int):
    """L-BFGS ascent of F on the unit sphere from the unit vector c, where
    F(c) = f and a is the block of A acting on c (`_step`'s A[parity]).

    The gradient of -F, g = 2 (A + F) c, is tangent because <c|A|c> = -F.
    A step retracts by c <- (c + t p) / |c + t p| with Armijo backtracking;
    the (s, y) pairs are projected onto the tangent space at every new
    point.  Vectors enter through their real views, so every inner product
    is Re<x, y> and the same code serves real, complex and sector vectors.
    Returns (F, c, residual, evaluations) at the last accepted state; stops
    at residual <= STATIONARITY_RTOL, after `max_evals` channel evaluations
    (line-search trials included) or when a line search fails.
    """
    dtype, x = c.dtype, c.view(np.float64)
    g = (2.0 * (a @ c + f * c)).view(np.float64)
    gc = g.view(dtype)  # first step: the line minimum of the model 2 (A + F),
    gamma = (g @ g) / abs(2.0 * np.vdot(gc, a @ gc + f * gc).real)  # kept > 0
    pairs, evals = np.empty((0, 2, len(x))), 0
    while np.linalg.norm(g) > 2.0 * f * STATIONARITY_RTOL and evals < max_evals:
        p = _lbfgs_direction(g, pairs, gamma)
        p -= (x @ p) * x
        slope, t = g @ p, 1.0
        while evals < max_evals and t > 1e-10:
            x_new = (x + t * p) / np.linalg.norm(x + t * p)
            f_new, a_new = _step(channel, parity, x_new.view(dtype))
            evals += 1
            if f_new >= f - 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        c_new, a = x_new.view(dtype), a_new[parity]
        g_new = (2.0 * (a @ c_new + f_new * c_new)).view(np.float64)
        pairs = np.concatenate([pairs, [[x_new - x, g_new - g]]])
        pairs -= (pairs @ x_new)[..., None] * x_new
        s, y = pairs[-1]
        if s @ y > 0.0:
            pairs, gamma = pairs[-_LBFGS_MEMORY:], (s @ y) / (y @ y)
        else:
            pairs = pairs[:-1]
        x, f, g = x_new, f_new, g_new
    r = float(np.linalg.norm(g)) / (2.0 * f)
    return f, _fix_phase(x.view(dtype)), r, evals


def maximize_qfi_over_states(n: int, blocks: Channel,
                             cfg: Optional[IterationConfig] = None) -> OptimizationTrace:
    """Run the optimization loop on an explicit channel (from `channel_blocks`,
    possibly composed with `compose_collective`).

    This is the engine behind `qfi_iterate`; the Bayesian module reuses it
    with prior-averaged channels.  A start in an arm-swap sector (Jc = +-c)
    of a channel with a `parity_split` runs in that sector's coordinates;
    any other start runs in the full space.
    """
    cfg = cfg or IterationConfig()
    if blocks.n != n:
        raise ValueError(f"channel is for N={blocks.n}, not N={n}")
    start = cfg.initial_state
    if start is None:
        start = sine_profile_state(n)
    elif start.n_particles != n:
        raise ValueError("initial state has the wrong particle number")
    c = start.amplitudes.real if start.is_real() else start.amplitudes
    c = c / np.linalg.norm(c)
    parity = _start_parity(blocks, c)
    if parity:
        c = _sector_coordinates(c, parity)
        c = c / np.linalg.norm(c)
    one_pair = len(blocks.amplitudes) > 1  # loss rows: their table loaded scipy
    history: List[float] = []
    best_f, best_c, best_parity, best_a = -np.inf, c, parity, None
    converged = False
    for _ in range(cfg.max_iters):
        f, a = _step(blocks, parity, c)
        history.append(f)
        if f > best_f:
            best_f, best_c, best_parity, best_a = f, c, parity, a[parity]
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
        parity, c = _see_saw_move(a, one_pair)
    best_r = _residual(best_f, best_a, best_c)
    polish_evals = 0
    if cfg.polish and best_f > 0.0:
        if best_r > STATIONARITY_RTOL:
            budget = cfg.polish_max_evals + cfg.max_iters - len(history)
            best_f, best_c, best_r, polish_evals = _polish(
                blocks, best_parity, best_c, best_f, best_a, budget)
        converged = best_r <= STATIONARITY_RTOL
    if best_parity:
        best_c = _unfold(best_c, best_parity, n + 1)
    state = SymmetricPureState(n, _fix_phase(best_c), normalize=True)
    return OptimizationTrace(qfi_values=np.asarray(history), converged=converged,
                             final_state=state, qfi=best_f, residual=best_r,
                             polish_evals=polish_evals, parity=best_parity)


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
