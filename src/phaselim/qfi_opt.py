"""Iterative maximization of the quantum Fisher information over input states.

The loop: from the current state build the channel output, its phase
derivative and the SLD L, assemble the Heisenberg-picture operator

    A = channel_adjoint(L^2 - 2i [H, L]),

evaluated in the derivative convention under which that expression is the
variational partner of the QFI, so that <psi|A|psi> = -F(psi) and replacing
the state by the eigenvector of A with the smallest eigenvalue cannot
decrease F.  Convergence is declared when the geometric-tail estimate of the
remaining QFI change (or the raw per-step change) drops below `rel_tol`; the
best iterate is tracked throughout, so a non-converged run still returns the
best state seen.

The map's contraction rate approaches one on flat landscapes (narrow
collective dephasing is the worst case), so an optional quasi-Newton polish
follows the loop: it drives the same objective to stationarity using the
gradient 2(A + F) c that the loop already provides, converging the QFI to
machine accuracy in a few dozen extra channel evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .qcore import (EIG_SUPPORT_RTOL, AngularBlockMatrix, ChannelBlock, Loss,
                    NoiseModel, SymmetricPureState, channel_blocks,
                    sine_profile_state)

__all__ = [
    "IterationConfig",
    "OptimizationTrace",
    "channel_adjoint_apply",
    "qfi_iterate",
    "maximize_qfi_over_states",
    "cr_bound",
]

WEIGHT_FLOOR = 1e-280   # branches with numerically zero weight are skipped
RANK_ONE_CHUNK = 1024   # rank-one branches per pass of the batched step


@dataclass(frozen=True)
class IterationConfig:
    """Knobs of the state-optimization loop."""

    max_iters: int = 2000
    rel_tol: float = 1e-10
    restarts: int = 1
    perturbation_scale: float = 0.05
    seed: int = 0
    polish: bool = True
    polish_max_evals: int = 200
    initial_state: Optional[SymmetricPureState] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be > 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class OptimizationTrace:
    """Result of one optimization run.

    `qfi_values` records the loop iterates of the best restart (at most
    `max_iters` entries); `qfi` is the best value found, including the
    polish stage, so it can exceed the last trace entry slightly.
    """

    qfi_values: np.ndarray
    converged: bool
    final_state: SymmetricPureState
    qfi: float
    restart_qfis: List[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Heisenberg-picture channel application
# ---------------------------------------------------------------------------


def _adjoint_from_blocks(blocks: Sequence[ChannelBlock], n: int, fetch) -> np.ndarray:
    out = np.zeros((n + 1, n + 1))
    for blk in blocks:
        a = np.asarray(fetch(blk.key))
        dim = len(blk.indices)
        if a.shape != (dim, dim):
            raise ValueError(f"operand block {blk.key} has shape {a.shape}, "
                             f"expected {(dim, dim)}")
        contrib = blk.dense_weight() * a
        if np.iscomplexobj(contrib) and not np.iscomplexobj(out):
            out = out.astype(complex)
        out[np.ix_(blk.indices, blk.indices)] += contrib
    return out


def channel_adjoint_apply(noise: NoiseModel, n: int, operand) -> np.ndarray:
    """Apply the channel in the Heisenberg picture, mapping an observable on
    the output space back to a Hermitian matrix on the (N+1)-dimensional
    symmetric input space.

    `operand` is an AngularBlockMatrix for the spin-block channels (no noise,
    local or collective dephasing) and a dict keyed by (l0, l1) for loss.
    """
    blocks = channel_blocks(noise, n)
    if isinstance(noise, Loss):
        if not isinstance(operand, dict):
            raise ValueError("loss channel expects a dict keyed by (l0, l1)")
        missing = [blk.key[1:] for blk in blocks if blk.key[1:] not in operand]
        if missing:
            raise ValueError(f"operand is missing loss sectors {missing[:4]} ...")
        return _adjoint_from_blocks(blocks, n, lambda key: operand[key[1:]])
    if not isinstance(operand, AngularBlockMatrix):
        raise ValueError("expected an AngularBlockMatrix operand")

    def fetch(key):
        tj = key[1]
        if tj not in operand.blocks:
            raise ValueError(f"operand lacks the 2j={tj} block")
        return operand.blocks[tj]

    return _adjoint_from_blocks(blocks, n, fetch)


# ---------------------------------------------------------------------------
# compiled channel: dense blocks + all rank-one branches as one padded table
# ---------------------------------------------------------------------------


class _CompiledChannel:
    """Dense blocks as given; rank-one branches stacked into `damping`, the
    squared amplitudes zero-padded over the full input grid `m`."""

    def __init__(self, n: int, blocks: Sequence[ChannelBlock]):
        self.n = n
        self.m = np.arange(n + 1) - n / 2.0
        self.dense = [blk for blk in blocks if blk.weight is not None]
        rank_one = [blk for blk in blocks if blk.weight is None]
        self.damping = np.zeros((len(rank_one), n + 1))
        if not rank_one:
            return
        lens = [len(blk.indices) for blk in rank_one]
        rows = np.repeat(np.arange(len(rank_one)), lens)
        cols = np.concatenate([blk.indices for blk in rank_one])
        # a branch's generator may differ from the full grid by a constant,
        # which leaves its QFI and its Heisenberg-picture operator unchanged
        shift = np.concatenate([blk.m for blk in rank_one]) - self.m[cols]
        base = np.repeat(shift[np.cumsum(lens) - lens], lens)
        if not np.allclose(shift, base, rtol=0.0, atol=1e-12):
            raise ValueError("rank-one branches must carry the input-grid "
                             "generator up to a constant shift")
        self.damping[rows, cols] = np.concatenate(
            [blk.amplitude for blk in rank_one]) ** 2


def _step_dense_real(blk: ChannelBlock, cb: np.ndarray, a_out: np.ndarray) -> float:
    sigma = blk.weight * np.outer(cb, cb)
    lam, vec = np.linalg.eigh(sigma)
    dm = blk.m[:, None] - blk.m[None, :]
    k = dm * sigma                              # drho = i k, k real antisymmetric
    kp = vec.T @ k @ vec
    denom = lam[:, None] + lam[None, :]
    cut = EIG_SUPPORT_RTOL * max(float(lam[-1]), np.finfo(float).tiny)
    mask = denom > cut
    lt = np.where(mask, 2.0 * kp / np.where(mask, denom, 1.0), 0.0)
    f = float(np.sum(denom * lt * lt)) / 2.0    # tr(rho L^2)
    lmat = vec @ lt @ vec.T                     # L = i lmat
    y = -(lmat @ lmat)                          # L^2
    y -= 2.0 * (blk.m[:, None] * lmat - lmat * blk.m[None, :])
    a_out[np.ix_(blk.indices, blk.indices)] += blk.weight * y
    return f


def _step_dense_complex(blk: ChannelBlock, cb: np.ndarray, a_out: np.ndarray) -> float:
    sigma = blk.weight * np.outer(cb, cb.conj())
    lam, vec = np.linalg.eigh(sigma)
    dm = blk.m[:, None] - blk.m[None, :]
    drho = 1j * dm * sigma
    dp = vec.conj().T @ drho @ vec
    denom = lam[:, None] + lam[None, :]
    cut = EIG_SUPPORT_RTOL * max(float(lam[-1]), np.finfo(float).tiny)
    mask = denom > cut
    le = np.where(mask, 2.0 * dp / np.where(mask, denom, 1.0), 0.0)
    f = float(np.sum(denom * np.abs(le) ** 2).real) / 2.0
    lmat = vec @ le @ vec.conj().T
    y = lmat @ lmat + 2j * (blk.m[:, None] * lmat - lmat * blk.m[None, :])
    a_out[np.ix_(blk.indices, blk.indices)] += blk.weight * y
    return f


def _step_rank_one(damping: np.ndarray, m: np.ndarray, c: np.ndarray,
                   a_out: np.ndarray) -> float:
    """All rank-one branches at once, real or complex c.

    Branch s (damping row d = b*b) outputs the pure state psi = b c / sqrt(p),
    so its SLD is 2i(|a><psi| - |psi><a|) with a = (m - mbar) psi, and it
    adds 4 p |a|^2 to F.  Its Heisenberg-picture term is, with P = b psi,
    Q = b a and R = b (m - mbar) a, 4(3 Q Q^H + |a|^2 P P^H - R P^H - P R^H);
    centring m on each branch mean mbar costs nothing, because a constant
    shift of the generator cancels.  Stacking the rows turns the sums over
    branches into two GEMMs.  Rows go in chunks of RANK_ONE_CHUNK to bound
    the temporaries.
    """
    f = 0.0
    c2 = (c * c.conj()).real
    for lo in range(0, len(damping), RANK_ONE_CHUNK):
        d = damping[lo:lo + RANK_ONE_CHUNK]
        w = d * c2
        p = w.sum(axis=1)
        live = p > WEIGHT_FLOOR
        if not live.all():
            d, w, p = d[live], w[live], p[live]
        w /= p[:, None]                         # |psi|^2
        mc = m - (w @ m)[:, None]
        na2 = np.einsum("si,si->s", w, mc * mc)
        f += 4.0 * float(p @ na2)
        pb = d * c / np.sqrt(p)[:, None]        # P
        q = mc * pb                             # Q
        z = (pb * (0.5 * na2)[:, None] - mc * q).T @ pb.conj()
        a_out += 4.0 * (3.0 * (q.T @ q.conj()) + z + z.conj().T)
    return f


def _iteration_step(channel: _CompiledChannel, c: np.ndarray):
    """Return (F(c), A(c)); A is real symmetric for real c, else Hermitian."""
    a_out = np.zeros((channel.n + 1, channel.n + 1), dtype=c.dtype)
    step = _step_dense_complex if np.iscomplexobj(c) else _step_dense_real
    f = 0.0
    for blk in channel.dense:
        f += step(blk, c[blk.indices], a_out)
    return f + _step_rank_one(channel.damping, channel.m, c, a_out), a_out


def _fix_phase(c: np.ndarray) -> np.ndarray:
    """Make the first non-negligible amplitude real and positive."""
    idx = int(np.argmax(np.abs(c) > 1e-8))
    pivot = c[idx]
    if pivot == 0:
        return c
    if np.iscomplexobj(c):
        return c * (np.conj(pivot) / abs(pivot))
    return -c if pivot < 0 else c


def _polish_lbfgs(channel: _CompiledChannel, c0: np.ndarray, max_evals: int = 500):
    """Quasi-Newton refinement of the QFI over the state sphere."""
    n = channel.n
    is_complex = np.iscomplexobj(c0)

    def objective(x):
        c = (x[:n + 1] + 1j * x[n + 1:]) if is_complex else x
        nrm = np.linalg.norm(c)
        c = c / nrm
        f, a = _iteration_step(channel, c)
        gc = 2.0 * (a @ c) + 2.0 * f * c       # gradient of -F on the sphere
        if is_complex:
            g = np.concatenate([gc.real, gc.imag]) / nrm
        else:
            g = gc / nrm
        return -f, g

    x0 = np.concatenate([c0.real, c0.imag]) if is_complex else c0
    res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": max_evals, "ftol": 1e-17, "gtol": 1e-12})
    c = (res.x[:n + 1] + 1j * res.x[n + 1:]) if is_complex else res.x
    c = c / np.linalg.norm(c)
    f, _ = _iteration_step(channel, c)
    return f, _fix_phase(c)


def _run_single(channel: _CompiledChannel, c0: np.ndarray, cfg: IterationConfig):
    c = c0.copy()
    history: List[float] = []
    best_f, best_c = -np.inf, c
    converged = False
    for _ in range(cfg.max_iters):
        f, a = _iteration_step(channel, c)
        history.append(f)
        if f > best_f:
            best_f, best_c = f, c
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
        lam, vec = np.linalg.eigh(a)
        c = _fix_phase(vec[:, 0])
    if cfg.polish and best_f > 0.0:
        f_pol, c_pol = _polish_lbfgs(channel, best_c, cfg.polish_max_evals)
        if f_pol >= best_f:
            best_f, best_c = f_pol, c_pol
    return best_f, _fix_phase(best_c), history, converged


def maximize_qfi_over_states(n: int, blocks: Sequence[ChannelBlock],
                             cfg: Optional[IterationConfig] = None) -> OptimizationTrace:
    """Run the optimization loop on an explicit channel-block decomposition.

    This is the engine behind `qfi_iterate`; the Bayesian module reuses it
    with prior-averaged channels.
    """
    cfg = cfg or IterationConfig()
    channel = _CompiledChannel(n, blocks)
    if cfg.initial_state is not None:
        if cfg.initial_state.n_particles != n:
            raise ValueError("initial state has the wrong particle number")
        base = cfg.initial_state.amplitudes
        if np.all(base.imag == 0.0):
            base = base.real.copy()
    else:
        base = sine_profile_state(n).amplitudes.real
    rng = np.random.default_rng(cfg.seed)
    best = None
    restart_qfis = []
    for r in range(cfg.restarts):
        c0 = base.copy()
        if r > 0 and cfg.perturbation_scale > 0.0:
            if np.iscomplexobj(c0):
                c0 = c0 + cfg.perturbation_scale * (
                    rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
            else:
                c0 = c0 + cfg.perturbation_scale * rng.standard_normal(n + 1)
        c0 = c0 / np.linalg.norm(c0)
        f, c, history, converged = _run_single(channel, c0, cfg)
        restart_qfis.append(f)
        if best is None or f > best[0]:
            best = (f, c, history, converged)
    f, c, history, converged = best
    state = SymmetricPureState(n, c, normalize=True)
    return OptimizationTrace(qfi_values=np.asarray(history), converged=converged,
                             final_state=state, qfi=f, restart_qfis=restart_qfis)


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
