"""Iterative maximization of the quantum Fisher information over input states.

The loop: from the current state build the channel output, its phase
derivative and the SLD L, assemble the Heisenberg-picture operator

    A = channel_adjoint(L^2 - 2i [H, L]),

evaluated in the derivative convention under which that expression is the
variational partner of the QFI, so that <psi|A|psi> = -F(psi) and replacing
the state by the eigenvector of A with the smallest eigenvalue cannot
decrease F.  Each step takes that one eigenpair from a single LAPACK
?syevr/?heevr call.  Convergence is declared when the geometric-tail
estimate of the remaining QFI change (or the raw per-step change) drops
below `rel_tol`; the best iterate is tracked throughout, so a non-converged
run still returns the best state seen.  A call is one run from one start
(`IterationConfig.initial_state`, else the sine profile): F never decreases
along the loop, and from those starts one run reaches the optimum that
perturbed starts reach, so a multi-start is a caller's loop over
`initial_state`.

Every channel commutes with the arm swap J: m -> -m, so from a start with
Jc = +-c, A(c) commutes with J, its lowest eigenvector lies in one parity
sector and the gradient stays in c's sector.  Such a start, on a channel
with a `parity_split`, runs in sector coordinates: each step is
`qcore._sector_qfi`, the loop's eigenpair is the lower of the two sectors'
lowest eigenpairs (so the state may change sector, as it may in the full
space) and the polish runs on the half vector.  That is the full-space
algorithm up to rounding; any other start runs in the full space.

The map's contraction rate approaches one on flat landscapes (narrow
collective dephasing is the worst case), so an optional quasi-Newton polish
follows the loop: L-BFGS on the state sphere with the gradient 2(A + F) c
that the loop already provides.  The distance from stationarity is the
residual r = |(A + F) c| / F, zero exactly at a fixed point of the loop; the
F error is of order r^2.  The polish is skipped when the loop's best state
already has r <= STATIONARITY_RTOL, stops at the first evaluation with
r <= STATIONARITY_RTOL and otherwise runs until `polish_max_evals` L-BFGS
iterations are spent or the line search fails; it returns the best state it
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.linalg import get_lapack_funcs

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
# the loop alone rarely gets below ~1e-5 and L-BFGS stalls at ~1e-8.
STATIONARITY_RTOL = 1e-7

# L-BFGS memory of the polish.  Narrow priors exhaust `polish_max_evals` far
# from the target; with scipy's default of 10 pairs their final F swung by
# ~2e-7 relative with the last bits of the start, with 30 it came out higher.
_LBFGS_MEMORY = 30


@dataclass(frozen=True)
class IterationConfig:
    """Knobs of the state-optimization loop."""

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


@dataclass
class OptimizationTrace:
    """Result of one optimization run.

    `qfi_values` records the loop iterates (at most `max_iters` entries);
    `qfi` is the best value found, including the polish stage, so it can
    exceed the last trace entry slightly.  `residual` is |(A + F) c| / F at
    the returned state (nan when F = 0) and `polish_evals` the number of
    channel evaluations the polish spent (0 when it was skipped).
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
    """(F, A) at the state c of the given parity: for parity 0, c holds all
    N + 1 amplitudes and A is `_iteration_step`'s; otherwise c holds the
    coordinates in that arm-swap sector and A is the pair (A+, A-) of its
    sector blocks."""
    if parity == 0:
        return _iteration_step(channel, c)
    return _sector_qfi(channel, parity, c)


def _acting(a, parity: int) -> np.ndarray:
    """The block of A that acts on a state of the given parity."""
    if parity == 0:
        return a
    return a[0] if parity > 0 else a[1]


def _see_saw_move(a, parity: int):
    """(parity, state) of the lowest eigenvector of A.  On the sectors it is
    the lower of the two sectors' lowest eigenpairs, as in the full space,
    so the state may change sector."""
    if parity == 0:
        return 0, _fix_phase(_lowest_eigenpair(a)[1])
    (w_p, v_p), (w_m, v_m) = map(_lowest_eigenpair, a)
    return (1, _fix_phase(v_p)) if w_p <= w_m else (-1, _fix_phase(v_m))


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


def _lowest_eigenpair(a: np.ndarray):
    """Smallest eigenvalue and its eigenvector of a real symmetric or
    Hermitian matrix, from one ?syevr/?heevr call that computes that pair
    alone; the lower triangle is read, as numpy.linalg.eigh does."""
    name = "heevr" if np.iscomplexobj(a) else "syevr"
    evr, = get_lapack_funcs((name,), (a,))
    w, z, _, _, info = evr(a, range="I", il=1, iu=1, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"?{name} failed with info = {info}")
    return float(w[0]), z[:, 0]


def _fix_phase(c: np.ndarray) -> np.ndarray:
    """Make the first non-negligible amplitude real and positive."""
    idx = int(np.argmax(np.abs(c) > 1e-8))
    pivot = c[idx]
    if pivot == 0:
        return c
    if np.iscomplexobj(c):
        return c * (np.conj(pivot) / abs(pivot))
    return -c if pivot < 0 else c


class _Stationary(Exception):
    """Raised by the polish objective to end the minimization."""


def _polish_lbfgs(channel: Channel, parity: int, c0: np.ndarray,
                  max_evals: int):
    """Quasi-Newton refinement of the QFI over the state sphere, within the
    arm-swap sector `parity` when it is nonzero (c0 then holds that sector's
    coordinates, see `_step`).

    Returns (F, c, residual, evaluations) of the best state evaluated; stops
    at the first evaluation whose residual is <= STATIONARITY_RTOL.
    """
    from scipy.optimize import minimize

    dim = len(c0)
    is_complex = np.iscomplexobj(c0)
    best_f, best_c, best_r, evals = -np.inf, c0, math.nan, 0

    def objective(x):
        nonlocal best_f, best_c, best_r, evals
        evals += 1
        c = (x[:dim] + 1j * x[dim:]) if is_complex else x
        nrm = np.linalg.norm(c)
        c = c / nrm
        f, a = _step(channel, parity, c)
        a = _acting(a, parity)
        gc = 2.0 * (a @ c) + 2.0 * f * c       # gradient of -F on the sphere
        r = float(np.linalg.norm(gc)) / (2.0 * f) if f > 0.0 else math.nan
        if f > best_f:
            best_f, best_c, best_r = f, c, r
        if r <= STATIONARITY_RTOL:
            raise _Stationary
        if is_complex:
            g = np.concatenate([gc.real, gc.imag]) / nrm
        else:
            g = gc / nrm
        return -f, g

    x0 = np.concatenate([c0.real, c0.imag]) if is_complex else c0
    try:
        minimize(objective, x0, jac=True, method="L-BFGS-B",
                 options={"maxiter": max_evals, "maxcor": _LBFGS_MEMORY,
                          "ftol": 1e-17, "gtol": 1e-12})
    except _Stationary:
        pass
    return best_f, _fix_phase(best_c), best_r, evals


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
    history: List[float] = []
    best_f, best_c, best_parity, best_a = -np.inf, c, parity, None
    converged = False
    for _ in range(cfg.max_iters):
        f, a = _step(blocks, parity, c)
        history.append(f)
        if f > best_f:
            best_f, best_c, best_parity, best_a = f, c, parity, _acting(a, parity)
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
        parity, c = _see_saw_move(a, parity)
    best_r = _residual(best_f, best_a, best_c)
    polish_evals = 0
    if cfg.polish and best_f > 0.0 and best_r > STATIONARITY_RTOL:
        f_pol, c_pol, r_pol, polish_evals = _polish_lbfgs(
            blocks, best_parity, best_c, cfg.polish_max_evals)
        if f_pol >= best_f:
            best_f, best_c, best_r = f_pol, c_pol, r_pol
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
