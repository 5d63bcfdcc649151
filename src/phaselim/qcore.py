"""States, noise channels and quantum Fisher information for symmetric probes.

An N-qubit permutation-symmetric pure state is a vector of N+1 amplitudes in
the mode-occupation basis |n, N-n>, equivalently the total-spin basis
|N/2, m = n - N/2>.  Every noise model handled here commutes with the phase
encoding U_phi = exp(+i H phi), H = sum sigma_z/2, and acts on a symmetric
input as a family of output blocks

    sigma_b = W_b * (c c^dagger restricted to the block's input window)

(elementwise product), where W_b is a real symmetric positive semidefinite
multiplier.  A noise model is a frozen dataclass with two methods:
`channel(n)` builds these blocks as one `Channel` (`channel_blocks` is the
one entry point to that build), and `limit(kind, prior_width)` names its
closed-form asymptote from `asymptotics`; a further model (a general
generator spectrum, say) is one more such class.  A `Channel` has two parts:

* dense blocks (key, first input index, m, W), each over a contiguous
  window of the input grid: one per total spin j (local dephasing), or one
  block (collective dephasing);
* one table of rank-one amplitudes over the full input grid, one row b per
  pure output branch, keyed by the loss pattern (l0, l1), with W = b b^T on
  the window l0 <= n <= N - l1 where b is nonzero: one row per loss pattern
  (photon loss), or one all-ones row (no noise).

`channel_output` evaluates that map for one input, block by block, and is
what `fidelity_qfi_check` and the brute-force oracles read.

The phase generator acts diagonally within each block, so derivatives,
symmetric logarithmic derivatives and the QFI all stay blockwise.  One SLD
kernel, which works in the block's eigenbasis, serves `state_qfi`, the
optimizer's dense step and the sector step, and one rule,
`_eigenbasis_derivative`, gives both steps the derivative dm o sigma in that
basis: X Lam - Lam X with X = V^T diag(m) V, which takes one GEMM and keeps
the rounding of each entry proportional to its eigenvalue gap, or, for a
nearly diagonal block, dm o sigma rotated.  Both take a leading batch axis.
All of them run on real arrays: the optimizer's states are real, and
`state_qfi` evaluates |c|, since a diagonal unitary commutes with every
channel here and with the generator and so leaves F unchanged.

The dense step, `_channel_qfi`, runs a channel's blocks by size class
(`Channel.size_classes`, built once per channel on first use): the blocks
of two or more entries, largest first, each class taking the next smaller
block of size d while D^3 - d^3 <= STACK_PAD_CUBES for its largest size D,
so that the padding's extra eigensolve work stays below about one `eigh`
call's overhead.  A class is one stack, the smaller blocks zero-padded to D,
and costs one `eigh` and one set of array operations however many blocks
it holds.  Under local dephasing the blocks of N + 1 >= 43 entries stay
alone and the smaller ones share classes; equal-size blocks (loss under a
prior) stack with no padding.

Every channel here commutes with the arm swap J: n -> N - n (m -> -m), and
the optimizer needs only inputs with Jc = c, real and non-negative (see
`qfi_opt`).  There a centred block (window symmetric about the middle of
the grid, W(m, m') = W(-m, -m')) splits sigma into one block per parity
sector, which M = diag(m) only couples, so on a channel of centred blocks
only (`Channel.parity_split`: local or collective dephasing, any prior, or
no noise with a prior) `_sector_qfi` runs the step in the even sector's
coordinates (`_sector_coordinates`) and returns the even block of A alone.
It stacks the folded blocks by the dense step's rule on their folded size,
one `eigh` per sector of about half the size; `_SectorStack.fold` places,
tests for mirror symmetry and folds each class at once (`_mirror_parts` and
`_fold` take a leading batch axis).  Every other channel runs the dense
step on `Channel.mirror_half`, which keeps each mirror pair of rows or
blocks once at twice the weight, and `_fold` takes the even block of its A.
On either path a channel that does not commute with J raises one ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple, Union

import numpy as np

from .angmom import _lgamma_table, _xlogy, coupling_blocks
from .asymptotics import (AsymptoteSpec, BayesPi, CollectiveLimit, DephasingLimit,
                          HeisenbergCR, LossLimit)

__all__ = [
    "SymmetricPureState",
    "Channel",
    "ChannelBlock",
    "NoiseFree",
    "LocalDephasing",
    "Loss",
    "CollectiveDephasing",
    "NoiseModel",
    "noon_state",
    "product_plus_state",
    "sine_profile_state",
    "resample_state",
    "channel_output",
    "state_qfi",
    "fidelity_qfi_check",
    "channel_blocks",
    "compose_collective",
]

EIG_SUPPORT_RTOL = 1e-12     # SLD support cutoff relative to largest eigenvalue
COHERENCE_RTOL = 1e-4        # below this, a dense block's derivative is rotated, not rebuilt
WEIGHT_FLOOR = 1e-280        # rank-one branches with numerically zero weight are skipped
RANK_ONE_CHUNK = 1024        # rank-one branches per pass of the batched step
STACK_PAD_CUBES = 10_000     # most padding D^3 - d^3 a dense block takes in a size class
_SQRT_HALF = math.sqrt(0.5)
_TINY = np.finfo(float).tiny


def m_grid(twice_j: int) -> np.ndarray:
    """Generator eigenvalues m = -j..j (ascending) for a spin-j block."""
    return np.arange(-twice_j, twice_j + 1, 2) / 2.0


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class SymmetricPureState:
    """Permutation-symmetric N-qubit pure state, amplitudes over |n, N-n>."""

    def __init__(self, n_particles: int, amplitudes, normalize: bool = False):
        if n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        amps = np.asarray(amplitudes, dtype=complex).copy()
        if amps.shape != (n_particles + 1,):
            raise ValueError(
                f"expected {n_particles + 1} amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if normalize:
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            amps /= norm
        elif abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        self.n_particles = n_particles
        self.amplitudes = amps

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.n_particles + 1) - self.n_particles / 2.0

    def __repr__(self) -> str:
        return f"SymmetricPureState(N={self.n_particles})"


def noon_state(n: int) -> SymmetricPureState:
    """(|N,0> + |0,N>)/sqrt(2) - all particles in one arm or the other."""
    amps = np.zeros(n + 1)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return SymmetricPureState(n, amps)


def product_plus_state(n: int) -> SymmetricPureState:
    """|+>^(x N) written in the symmetric basis: c_n = sqrt(binom(N,n))/2^(N/2)."""
    lnorm = [0.5 * (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))
             - n / 2.0 * math.log(2.0) for k in range(n + 1)]
    return SymmetricPureState(n, np.exp(lnorm))


def sine_profile_state(n: int) -> SymmetricPureState:
    """Half-period sine profile c_n ~ sin(pi (n+1)/(N+2)); near-optimal under
    phase diffusion and a good generic optimizer start."""
    c = np.sin(np.pi * (np.arange(n + 1) + 1) / (n + 2))
    return SymmetricPureState(n, c / np.linalg.norm(c))


def resample_state(state: SymmetricPureState, n: int) -> SymmetricPureState:
    """Carry an amplitude profile to a different particle number by linear
    interpolation on the scaled index grid (warm starts for sweeps over N)."""
    if state.n_particles == n:
        return state
    old = (np.arange(state.n_particles + 1) + 1.0) / (state.n_particles + 2.0)
    new = (np.arange(n + 1) + 1.0) / (n + 2.0)
    amps = (np.interp(new, old, state.amplitudes.real)
            + 1j * np.interp(new, old, state.amplitudes.imag))
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("resampled state vanished")
    return SymmetricPureState(n, amps / nrm)


@dataclass(frozen=True)
class NoiseFree:
    def channel(self, n: int) -> Channel:
        """One all-ones rank-one row (0, 0)."""
        zero = np.zeros(1, dtype=int)
        return Channel(n, [], zero, zero, np.ones((1, n + 1)))

    def limit(self, kind: str, prior_width: Optional[float]) -> AsymptoteSpec:
        """Heisenberg 1/N for kind 'cr', pi/N for the Bayesian curve."""
        return HeisenbergCR() if kind == "cr" else BayesPi()


@dataclass(frozen=True)
class LocalDephasing:
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")

    def channel(self, n: int) -> Channel:
        """One dense block per total spin j that receives weight, W = the
        spin-j coupling matrix."""
        blocks = []
        for tj, w in coupling_blocks(n, self.eta).items():
            if np.any(w):
                blocks.append(ChannelBlock(("j", tj), (n - tj) // 2, m_grid(tj), w))
        return Channel.dense(n, blocks)

    def limit(self, kind: str, prior_width: Optional[float]) -> Optional[AsymptoteSpec]:
        return _eta_limit(self.eta, DephasingLimit, kind)


@dataclass(frozen=True)
class Loss:
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")

    def channel(self, n: int) -> Channel:
        """The rows of the loss table; patterns that receive no weight are
        dropped."""
        l0, l1, table = _loss_table(n, self.eta)
        live = table.any(axis=1)
        return Channel(n, [], l0[live], l1[live], table[live])

    def limit(self, kind: str, prior_width: Optional[float]) -> Optional[AsymptoteSpec]:
        return _eta_limit(self.eta, LossLimit, kind)


@dataclass(frozen=True)
class CollectiveDephasing:
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma={self.gamma} must be finite and >= 0")

    def channel(self, n: int) -> Channel:
        """One block, W_{m,m'} = exp(-Gamma (m-m')^2 / 2)."""
        return Channel.dense(n, [ChannelBlock(("j", n), 0, m_grid(n),
                                              collective_weight(n, self.gamma))])

    def limit(self, kind: str, prior_width: Optional[float]) -> AsymptoteSpec:
        """The floor, with the prior width on the Bayesian curve only;
        noise-free at gamma = 0."""
        if self.gamma == 0.0:
            return NoiseFree().limit(kind, prior_width)
        width = prior_width if (kind == "bayes" and prior_width is not None) else math.inf
        return CollectiveLimit(self.gamma, width)


def _eta_limit(eta: float, spec, kind: str) -> Optional[AsymptoteSpec]:
    """`spec(eta)` for 0 < eta < 1; the noise-free limit at eta = 1, and None
    at eta = 0, where no phase reaches the output."""
    if eta == 0.0:
        return None
    return NoiseFree().limit(kind, None) if eta == 1.0 else spec(eta)


NoiseModel = Union[NoiseFree, LocalDephasing, Loss, CollectiveDephasing]


# ---------------------------------------------------------------------------
# channel blocks (shared by the forward map and the optimizer)
# ---------------------------------------------------------------------------


@dataclass
class ChannelBlock:
    """One dense output block of a phase-covariant channel on symmetric inputs:
    it reads the contiguous input window start .. start + len(m) - 1, `m`
    holds the generator eigenvalues and `weight` the PSD multiplier W."""

    key: tuple
    start: int
    m: np.ndarray
    weight: np.ndarray

    @property
    def window(self) -> slice:
        return slice(self.start, self.start + len(self.m))

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.start + len(self.m))


@dataclass
class Channel:
    """A phase-covariant channel on N-particle symmetric inputs: dense blocks
    plus one table of rank-one branches.

    Row r of `amplitudes` is the damping vector b of loss pattern
    (l0[r], l1[r]) over the full input grid, zero outside l0 <= n <= N - l1;
    the branch outputs the pure state b c / |b c| with weight |b c|^2.
    `len()` counts blocks plus rows.
    """

    n: int
    blocks: List[ChannelBlock]
    l0: np.ndarray
    l1: np.ndarray
    amplitudes: np.ndarray

    @classmethod
    def dense(cls, n: int, blocks: List[ChannelBlock]) -> "Channel":
        """A channel of dense blocks only."""
        none = np.zeros(0, dtype=int)
        return cls(n, blocks, none, none, np.zeros((0, n + 1)))

    def __len__(self) -> int:
        return len(self.blocks) + len(self.amplitudes)

    @cached_property
    def damping(self) -> np.ndarray:
        """Squared amplitudes b*b, which the rank-one QFI step reads."""
        return self.amplitudes ** 2

    @cached_property
    def parity_split(self) -> Optional[List["_SectorStack"]]:
        """The blocks of `size_classes`, by folded size, folded onto the
        arm-swap sectors for `_sector_qfi`, one stack per class
        (`_SectorStack.fold`, which raises `mirror_half`'s ValueError on a
        stack that is not mirror-symmetric); None with rank-one rows or with
        a block off the centre (2 start + d - 1 != N: loss with a prior)."""
        if len(self.amplitudes) or any(2 * blk.start + len(blk.m) - 1 != self.n
                                       for blk in self.blocks):
            return None
        return [_SectorStack.fold(self.n, group) for group in
                _size_classes(self.blocks, lambda b: len(b.m) - len(b.m) // 2)]

    @cached_property
    def mirror_half(self) -> "Channel":
        """Each mirror pair under J of rows (amplitudes reversed) or blocks
        (W[::-1, ::-1] on the mirrored window) as its member nearer n = 0 at
        twice the weight: at an even input that adds the pair's F and, folded,
        its A.  ValueError if a mirror is missing or differs beyond 1e-12."""
        n, blocks, amps = self.n, self.blocks, self.amplitudes
        keep = self.l0 <= self.l1
        rows = _mirror_mates(self.l0, n + 1 - self.l0 - self.l1, n)[keep]
        mates = _mirror_mates([b.start for b in blocks], [len(b.m) for b in blocks], n)
        kept = amps[keep]
        if np.any(np.abs(amps[rows, ::-1] - kept) > 1e-12) or any(
                np.max(np.abs(blocks[j].weight - b.weight[::-1, ::-1])) > 1e-12
                for b, j in zip(blocks, mates)):
            raise ValueError("a row or block differs from its mirror under n -> N - n")
        kept *= np.where(self.l0 < self.l1, math.sqrt(2.0), 1.0)[keep, None]
        half = [b if j == i else ChannelBlock(b.key, b.start, b.m, 2.0 * b.weight)
                for i, (b, j) in enumerate(zip(blocks, mates))
                if b.start <= blocks[j].start]
        return Channel(n, half, self.l0[keep], self.l1[keep], kept)

    @cached_property
    def size_classes(self) -> List["_BlockStack"]:
        """The blocks of two or more entries as the stacks of `_channel_qfi`
        (`_size_classes` by block size)."""
        return [_BlockStack.build(self.n, group)
                for group in _size_classes(self.blocks, lambda b: len(b.m))]

    def dense_blocks(self) -> List[ChannelBlock]:
        """Every block in dense form: the dense blocks, then each row as the
        block W = b b^T over its window, keyed (l0, l1)."""
        full_m = np.arange(self.n + 1) - self.n / 2.0
        out = list(self.blocks)
        for l0, l1, b in zip(self.l0.tolist(), self.l1.tolist(), self.amplitudes):
            win = slice(l0, self.n - l1 + 1)
            out.append(ChannelBlock((l0, l1), l0, full_m[win] - (l0 - l1) / 2.0,
                                    np.outer(b[win], b[win])))
        return out


def _size_classes(blocks: List[ChannelBlock], size) -> List[List[ChannelBlock]]:
    """The blocks of two or more entries (one entry: a single m, zero
    derivative, nothing added to F or A), largest `size(blk)` first, in
    classes: a class whose first block has size D takes the next smaller
    block of size d while D^3 - d^3 <= STACK_PAD_CUBES."""
    classes: List[List[ChannelBlock]] = []
    for blk in sorted((b for b in blocks if len(b.m) > 1), key=lambda b: -size(b)):
        if not classes or size(classes[-1][0]) ** 3 - size(blk) ** 3 > STACK_PAD_CUBES:
            classes.append([])
        classes[-1].append(blk)
    return classes


def _mirror_mates(start, size, n: int) -> np.ndarray:
    """The index of each window's mirror under J among the windows start ..
    start + size - 1 on 0..N; ValueError unless there is exactly one."""
    start, size = np.asarray(start, dtype=int), np.asarray(size, dtype=int)
    key, mirror = start * (n + 2) + size, (n + 1 - start - size) * (n + 2) + size
    order = np.argsort(key)
    mate = order[np.searchsorted(key, mirror, sorter=order).clip(max=len(key) - 1)]
    if not (np.array_equal(key[mate], mirror)
            and np.array_equal(mate[mate], np.arange(len(key)))):
        raise ValueError("a row or block has no single mirror under n -> N - n")
    return mate


def _loss_table(n: int, eta: float):
    """Damping amplitudes of every loss pattern as one zero-padded table.

    Returns (l0, l1, B): row s holds B^i_{l0 l1} = sqrt(binom(i,l0)
    binom(N-i,l1) eta^(N-l0-l1) (1-eta)^(l0+l1)) over the input index
    i = 0..N, zero outside l0 <= i <= N-l1; the S = (N+1)(N+2)/2 patterns run
    over l0 + l1 <= N.  Built in log space, exact at eta in {0, 1}.
    """
    l0, l1 = np.triu_indices(n + 1)
    l1 = l1 - l0
    lg = _lgamma_table(n + 2)
    # lbin[k, i] = log binom(i, k) for k, i = 0..N; -inf where k > i
    lbin = np.full((n + 1, n + 1), -np.inf)
    i, k = np.tril_indices(n + 1)
    lbin[k, i] = lg[i + 1] - lg[k + 1] - lg[i - k + 1]
    expo = _xlogy(n - l0 - l1, eta) + _xlogy(l0 + l1, 1.0 - eta)
    # log binom(N - i, l1) is row l1 of lbin read backwards
    table = lbin[l0] + lbin[l1, ::-1]
    table += expo[:, None]
    table *= 0.5
    return l0, l1, np.exp(table, out=table)


def collective_weight(twice_j: int, gamma: float) -> np.ndarray:
    """Gaussian phase-kick multiplier exp(-Gamma (m-m')^2 / 2) on a j-block.

    On the unit-spaced m grid m - m' is the exact integer i - j, so the
    matrix gathers the 2j+1 values exp(-Gamma k^2 / 2) by k = |i - j|."""
    i = np.arange(twice_j + 1)
    g = np.exp(-gamma * i * i / 2.0)
    return g[np.abs(i[:, None] - i)]


def channel_blocks(noise: NoiseModel, n: int) -> Channel:
    """The channel for N particles as dense blocks plus rank-one rows, as the
    noise model builds it (`channel`); the one entry point to that build."""
    if not isinstance(noise, NoiseModel):
        raise ValueError(f"unsupported noise model: {noise!r}")
    return noise.channel(n)


def compose_collective(blocks: Channel, gamma: float) -> Channel:
    """Follow a channel by collective dephasing of strength gamma (the two
    commute; the Gaussian factor multiplies every block elementwise, so each
    rank-one row becomes a dense block over its window).  Every block's m
    grid has unit spacing, so its factor is the leading corner of one
    `collective_weight` table."""
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma={gamma} must be finite and >= 0")
    if gamma == 0.0:
        return blocks
    kick = collective_weight(blocks.n, gamma)
    return Channel.dense(blocks.n, [
        ChannelBlock(blk.key, blk.start, blk.m,
                     blk.weight * kick[:len(blk.m), :len(blk.m)])
        for blk in blocks.dense_blocks()])


# ---------------------------------------------------------------------------
# the forward map
# ---------------------------------------------------------------------------


def channel_output(state: SymmetricPureState,
                   noise: NoiseModel) -> List[Tuple[ChannelBlock, np.ndarray]]:
    """The channel output, one (block, sigma) pair per block of
    `channel_blocks(noise, N).dense_blocks()`, with sigma = W o c_w c_w^H on
    the block's input window.  The blocks act on orthogonal output spaces
    (total spins, or flagged loss patterns), so the output state is their
    direct sum: the traces add to one, and a block that receives no weight
    from this state is a zero matrix."""
    c = state.amplitudes
    out = []
    for blk in channel_blocks(noise, state.n_particles).dense_blocks():
        cb = c[blk.window]
        out.append((blk, blk.weight * np.outer(cb, cb.conj())))
    return out


# ---------------------------------------------------------------------------
# SLD and QFI
# ---------------------------------------------------------------------------


def _transpose(a: np.ndarray) -> np.ndarray:
    """Transpose over the last two axes."""
    return a.swapaxes(-1, -2)


def _sld_kernel(lam: np.ndarray, kp: np.ndarray,
                lam_col: Optional[np.ndarray] = None):
    """SLD of a real symmetric block in its eigenbasis, in the convention
    drho = i k, L = i lmat; leading axes of `lam` and `kp` index a stack of
    blocks, each with its own lambda_max.

    `lam` holds the block's eigenvalues (ascending) and kp = V^T k V the
    derivative in that basis.  Returns (tr(rho L^2), lt) with lmat =
    V lt V^T, tr(rho L^2) per block of a stack; lt is real antisymmetric.
    Matrix elements between eigenvectors whose eigenvalue sum falls below
    EIG_SUPPORT_RTOL * lambda_max are set to zero (null-space convention),
    and so are those below the smallest normal double.

    With `lam_col`, kp is the rectangular block between two invariant
    subspaces of rho with eigenvalues `lam` (rows) and `lam_col` (columns),
    lambda_max is the larger top eigenvalue, and the first value returned
    is half the share of tr(rho L^2) of that block and its adjoint.
    """
    lam_col = lam if lam_col is None else lam_col
    denom = lam[..., :, None] + lam_col[..., None, :]
    top = np.maximum(lam[..., -1:, None], lam_col[..., None, -1:])
    mask = denom > np.maximum(EIG_SUPPORT_RTOL * top, _TINY)
    lt = np.where(mask, 2.0 * kp / np.where(mask, denom, 1.0), 0.0)
    return (denom * lt * lt).sum(axis=(-2, -1)) / 2.0, lt


def _eigenbasis_derivative(m: np.ndarray, span: float, k: np.ndarray,
                           lr: np.ndarray, vr: np.ndarray,
                           lc: np.ndarray, vc: np.ndarray) -> np.ndarray:
    """The derivative k = M sigma - sigma M, M = diag(m), in sigma's
    eigenbasis, as the block kp = vr^T k vc between two invariant subspaces
    of sigma with eigenpairs (lr, vr) (rows) and (lc, vc) (columns).

    M maps the column subspace into the first len(m) coordinates of the row
    subspace, so kp = X lc - lr X with X = vr[:len(m)]^T diag(m) vc: one
    GEMM instead of rotating k with two.  The rounding of each entry
    X_ij (lc_j - lr_i) scales with its eigenvalue gap, whereas a rotated k
    carries ~eps |k| in every entry, which swamps the pairs of small
    eigenvalues and held the see-saw's residual near 2e-7 under dephasing.

    X lc - lr X is the derivative of V Lam V^T, which differs from sigma by
    the eigensolver's backward error, ~eps lambda_max.  When sigma is so
    nearly diagonal that every |k_ij| < COHERENCE_RTOL span lambda_max, with
    span = m_max - m_min over the whole block, that difference would swamp k
    (at dephasing eta -> 0 it would give F ~ 1e-20 and <c|A|c> = +F), so k
    itself is rotated, whose rounding stays relative to |k|.  Over a stack
    (leading axes of every argument, `span` one value per block) the choice
    is made block by block.
    """
    x = _transpose(vr[..., :m.shape[-1], :]) @ (m[..., :, None] * vc)
    kp = x * (lc[..., None, :] - lr[..., :, None])
    rotate = np.abs(k).max(axis=(-2, -1)) < (
        COHERENCE_RTOL * span * np.maximum(lr[..., -1], lc[..., -1]))
    if rotate.any():
        kp = np.where(rotate[..., None, None], _transpose(vr) @ k @ vc, kp)
    return kp


def _rank_one_qfi(damping: np.ndarray, c: np.ndarray,
                  a_out: Optional[np.ndarray]) -> float:
    """QFI of all rank-one branches at once.

    Branch s (damping row d = b*b) outputs the pure state psi = b c / sqrt(p),
    so its SLD is 2i(|a><psi| - |psi><a|) with a = (m - mbar) psi, and it
    adds 4 p |a|^2 to F.  Its Heisenberg-picture term is, with P = b psi,
    Q = b a and R = b (m - mbar) a, 4(3 Q Q^T + |a|^2 P P^T - R P^T - P R^T);
    centring m on each branch mean mbar costs nothing, because a constant
    shift of the generator cancels.  Stacking the rows turns the sums over
    branches into two GEMMs.  Rows go in chunks of RANK_ONE_CHUNK to bound
    the temporaries.
    """
    n = damping.shape[1] - 1
    m = np.arange(n + 1) - n / 2.0
    f = 0.0
    c2 = c * c
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
        if a_out is None:
            continue
        pb = d * c / np.sqrt(p)[:, None]        # P
        q = mc * pb                             # Q
        z = (pb * (0.5 * na2)[:, None] - mc * q).T @ pb
        a_out += 4.0 * (3.0 * (q.T @ q) + z + z.T)
    return f


@dataclass
class _BlockStack:
    """The dense blocks of one size class, zero-padded to the largest size D
    and stacked, so that `_channel_qfi` treats them with one call per stage.

    Block b reads the input amplitudes `index[b]`: its window, then any
    in-range amplitudes on its D - d pad coordinates.  `m` holds its
    generator eigenvalues (0 on pads), `span` m_max - m_min and `weight` W
    (0 on pad rows and columns), so a pad is an exact null direction of
    sigma_b."""

    index: np.ndarray
    m: np.ndarray
    span: np.ndarray
    weight: np.ndarray

    @classmethod
    def build(cls, n: int, blocks: List[ChannelBlock]) -> "_BlockStack":
        d = len(blocks[0].m)
        m = np.zeros((len(blocks), d))
        weight = np.zeros((len(blocks), d, d))
        for b, blk in enumerate(blocks):
            m[b, :len(blk.m)] = blk.m
            weight[b, :len(blk.m), :len(blk.m)] = blk.weight
        start = np.array([blk.start for blk in blocks])[:, None]
        span = np.array([blk.m[-1] - blk.m[0] for blk in blocks])
        index = np.minimum(start + np.arange(d), n)
        return cls(index, m, span, weight)


def _channel_qfi(channel: Channel, c: np.ndarray,
                 a_out: Optional[np.ndarray] = None) -> float:
    """QFI of the channel output for real input amplitudes c.

    With `a_out`, also add into it the Heisenberg-picture operator
    A = channel_adjoint(L^2 - 2i [H, L]), for which <c|A|c> = -F; A is real
    symmetric.

    The dense blocks run by size class (`Channel.size_classes`; a class of
    largest size D holds the blocks of size d with D^3 - d^3 <=
    STACK_PAD_CUBES that follow it in size).  Each class is one stack of
    sigma_b = W_b o c_b c_b^T, zero-padded to D, and every stage below is one
    call over the stack: sigma, its eigensolve, the derivative, the SLD
    kernel, y = lmat lmat^T - 2 (M lmat - lmat M), W o y and the scatter-add
    into A (`a_out` must be C-contiguous).  A block's derivative
    k = dm o sigma = M sigma - sigma M enters the SLD kernel in sigma's
    eigenbasis (`_eigenbasis_derivative`).
    """
    if a_out is not None and not a_out.flags.c_contiguous:
        raise ValueError("a_out must be C-contiguous")
    a_flat = None if a_out is None else a_out.reshape(-1)
    f = 0.0
    for st in channel.size_classes:
        cb = c[st.index]
        sigma = st.weight * (cb[:, :, None] * cb[:, None, :])
        lam, vec = np.linalg.eigh(sigma)
        k = (st.m[:, :, None] - st.m[:, None, :]) * sigma
        kp = _eigenbasis_derivative(st.m, st.span, k, lam, vec, lam, vec)
        f_b, lt = _sld_kernel(lam, kp)
        f += float(f_b.sum())
        if a_out is not None:
            lmat = vec @ lt @ _transpose(vec)
            y = lmat @ _transpose(lmat)
            y -= 2.0 * (st.m[:, :, None] * lmat - lmat * st.m[:, None, :])
            y *= st.weight
            # flat positions of the stack's B D^2 entries in the (N + 1)^2 A
            target = a_out.shape[1] * st.index[:, :, None] + st.index[:, None, :]
            np.add.at(a_flat, target.ravel(), y.ravel())
    return f + _rank_one_qfi(channel.damping, c, a_out)


# ---------------------------------------------------------------------------
# the arm-swap sectors
# ---------------------------------------------------------------------------


def _mirror_parts(a: np.ndarray):
    """(D, C) over i, j < d // 2 for d x d matrices a (leading axes index a
    stack) and J: i -> d - 1 - i: D_ij = (a_ij + a_(Ji)(Jj))/2 and
    C_ij = (a_i(Jj) + a_(Ji)j)/2."""
    h = a.shape[-1] // 2
    flip = a[..., ::-1, :]
    return (0.5 * (a[..., :h, :h] + flip[..., :h, ::-1][..., :h]),
            0.5 * (a[..., :h, ::-1][..., :h] + flip[..., :h, :h]))


def _fold(a: np.ndarray):
    """The sector blocks (A+, A-) = (P+ a P+, P- a P-) = (D + C, D - C) of
    d x d matrices a (leading axes index a stack), in the orthonormal basis
    (e_i + e_(d-1-i))/sqrt(2), i < d // 2, plus e_(d // 2) for odd d (even
    sector) and (e_i - e_(d-1-i))/sqrt(2) (odd sector)."""
    d = a.shape[-1]
    h = d // 2
    diag, cross = _mirror_parts(a)
    a_p = np.empty(a.shape[:-2] + (d - h, d - h), dtype=a.dtype)
    a_p[..., :h, :h] = diag + cross
    if d > 2 * h:
        a_p[..., :h, h] = _SQRT_HALF * (a[..., :h, h] + a[..., ::-1, h][..., :h])
        a_p[..., h, :h] = _SQRT_HALF * (a[..., h, :h] + a[..., h, ::-1][..., :h])
        a_p[..., h, h] = a[..., h, h]
    return a_p, diag - cross


def _sector_coordinates(c: np.ndarray) -> np.ndarray:
    """Coordinates of c in the even arm-swap sector, in the basis of
    `_fold`; exact for Jc = c."""
    h = len(c) // 2
    half = _SQRT_HALF * (c[:h] + c[::-1][:h])
    if len(c) > 2 * h:
        return np.append(half, c[h])
    return half


def _unfold(ch: np.ndarray, d: int) -> np.ndarray:
    """The d amplitudes whose `_sector_coordinates` are ch."""
    h = d // 2
    c = np.zeros(d, dtype=ch.dtype)
    c[:h] = _SQRT_HALF * ch[:h]
    c[d - h:] = c[:h][::-1]
    if len(ch) > h:
        c[h] = ch[h]
    return c


@dataclass
class _SectorStack:
    """The centred dense blocks (2 start + d - 1 = N) of one size class,
    folded onto the sectors and stacked for `_sector_qfi`.

    `fold` places the class's blocks once into a (B, D, D) weight stack over
    its widest window lo .. N - lo, D = N + 1 - 2 lo, each block centred in
    it and zero-extended on both sides, and folds the whole stack in one set
    of array operations; a block's rows of the folded stack are then its own
    fold zero-extended at the front.  A block's even-sector coordinates are
    the trailing slice start: of the global ones (the h = d // 2 it shares
    with the odd sector, then the middle one of odd d).  `m` holds its first
    h generator eigenvalues, centred (0 on the extension), and `span`
    m_max - m_min.  For an even input with sector coordinates c_s, sigma's
    sector blocks are `plus` o c_s c_s^T and `minus` o c_s c_s^T (the first
    q = D // 2 coordinates), (D +- C)/2 there (`_mirror_parts`), and the
    derivative's block is `k` o c_s c_s^T, with
    k = ((m_i - m_j) D - (m_i + m_j) C)/2, not a difference of two nearly
    equal diagonals, and -W+ m on odd D's middle row.
    """

    lo: int
    m: np.ndarray
    span: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    k: np.ndarray

    @classmethod
    def fold(cls, n: int, blocks: List[ChannelBlock]) -> "_SectorStack":
        """The folded stack of one class of centred blocks; ValueError when
        the stack is not mirror-symmetric (W != W[::-1, ::-1] beyond 1e-12)."""
        lo = min(blk.start for blk in blocks)
        width = n + 1 - 2 * lo
        q = width // 2
        weight = np.zeros((len(blocks), width, width))
        m_full = np.zeros((len(blocks), width))
        for b, blk in enumerate(blocks):
            window = slice(blk.start - lo, width - (blk.start - lo))
            weight[b, window, window] = blk.weight
            m_full[b, window] = blk.m
        if np.max(np.abs(weight - weight[:, ::-1, ::-1])) > 1e-12:
            raise ValueError("a row or block differs from its mirror under n -> N - n")
        # a block's own coordinates among the first q: o = start - lo onwards
        rows = np.arange(len(blocks))
        o = np.array([blk.start for blk in blocks]) - lo
        own = np.arange(q) >= o[:, None]
        mid = 0.5 * (m_full[rows, o] + m_full[rows, width - 1 - o])
        m = np.where(own, m_full[:, :q] - mid[:, None], 0.0)
        plus, minus = _fold(weight)
        plus[:, :q, :q] *= 0.5
        plus[:, :q, q:] *= _SQRT_HALF
        plus[:, q:, :q] *= _SQRT_HALF
        minus *= 0.5
        diag, cross = _mirror_parts(weight)
        k = np.empty((len(blocks), width - q, q))
        k[:, :q] = 0.5 * ((m[:, :, None] - m[:, None, :]) * diag
                          - (m[:, :, None] + m[:, None, :]) * cross)
        k[:, q:] = np.where(own[:, None], -plus[:, q:, :q] * m[:, None, :], 0.0)
        # a row's first nonzero m, -span / 2, is its minimum
        return cls(lo, m, -2.0 * m.min(axis=1), plus, minus, k)


def _sector_qfi(channel: Channel, ch: np.ndarray):
    """`_channel_qfi` on half-size blocks, for a real input in the even
    arm-swap sector; the channel must have a `parity_split`.

    `ch` holds the input's even-sector coordinates (see
    `_sector_coordinates`).  Returns (F, A+) with A+ the even-sector block
    of A, which commutes with J.  Each size class (`_SectorStack`) is one
    `eigh` per sector and one call per stage.  M = diag(m)
    anticommutes with J, so it only couples the sectors, through M+- =
    diag(m) (with a zero middle row for odd N + 1), and so do k and the SLD:
    kp+- is `_eigenbasis_derivative` of k+- from the odd sector (columns)
    to the even one (rows), lmat+- = V+ lt V-^T and lmat-+ = -lmat+-^T.
    """
    a_p = np.zeros((len(ch), len(ch)))
    f = 0.0
    for st in channel.parity_split:
        q = st.m.shape[1]
        cc = np.outer(ch[st.lo:], ch[st.lo:])
        lp, vp = np.linalg.eigh(st.plus * cc)
        lm, vm = np.linalg.eigh(st.minus * cc[:q, :q])
        kp = _eigenbasis_derivative(st.m, st.span, st.k * cc[:, :q], lp, vp, lm, vm)
        f_b, lt = _sld_kernel(lp, kp, lm)
        f += 2.0 * float(f_b.sum())
        lmat = vp @ lt @ _transpose(vm)
        g = lmat * st.m[:, None, :]
        yp = lmat @ _transpose(lmat)
        yp[:, :, :q] += 2.0 * g
        yp[:, :q] += 2.0 * _transpose(g)
        g = st.m[:, :, None] * lmat[:, :q]
        ym = _transpose(lmat) @ lmat - 2.0 * (g + _transpose(g))
        a_p[st.lo:, st.lo:] += (st.plus * yp).sum(axis=0)
        a_p[st.lo:st.lo + q, st.lo:st.lo + q] += (st.minus * ym).sum(axis=0)
    return f, a_p


def state_qfi(state: SymmetricPureState, noise: NoiseModel) -> float:
    """QFI of a fixed input state after the given channel, at the working
    point of the phase orbit.  Every channel's Kraus operators are diagonal
    in n and commute with the generator, so F(c) = F(|c|), which is what is
    evaluated."""
    return _channel_qfi(channel_blocks(noise, state.n_particles),
                        np.abs(state.amplitudes))


# ---------------------------------------------------------------------------
# finite-difference cross-check via fidelity
# ---------------------------------------------------------------------------


def _phase_shift(block: np.ndarray, m: np.ndarray, phi: float) -> np.ndarray:
    ph = np.exp(1j * m * phi)
    return block * np.outer(ph, ph.conj())


def _root_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """tr sqrt(sqrt(a) b sqrt(a)) = nuclear norm of sqrt(a) sqrt(b)."""
    def psd_sqrt(x):
        lam, vec = np.linalg.eigh((x + x.conj().T) / 2.0)
        lam = np.clip(lam, 0.0, None)
        return (vec * np.sqrt(lam)) @ vec.conj().T
    prod = psd_sqrt(a) @ psd_sqrt(b)
    return float(np.sum(np.linalg.svd(prod, compute_uv=False)))


def fidelity_qfi_check(state: SymmetricPureState, noise: NoiseModel,
                       delta: float) -> float:
    """Finite-difference QFI estimate 8 (1 - F_root(rho_0, rho_delta)) / delta^2,
    with F_root the Uhlmann root fidelity; agrees with the SLD value to
    O(delta^2) relative."""
    if delta == 0.0:
        raise ValueError("delta must be nonzero")
    root_fid = 0.0
    for blk, sigma in channel_output(state, noise):
        root_fid += _root_fidelity(sigma, _phase_shift(sigma, blk.m, delta))
    return 8.0 * (1.0 - root_fid) / delta ** 2
