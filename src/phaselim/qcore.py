"""States, noise channels and quantum Fisher information for symmetric probes.

An N-qubit permutation-symmetric pure state is a vector of N+1 amplitudes in
the mode-occupation basis |n, N-n>, equivalently the total-spin basis
|N/2, m = n - N/2>.  Every noise model handled here commutes with the phase
encoding U_phi = exp(+i H phi), H = sum sigma_z/2, and acts on a symmetric
input as a family of output blocks

    sigma_b = W_b * (c c^dagger restricted to the block's input window)

(elementwise product), where W_b is a real symmetric positive semidefinite
multiplier.  `channel_blocks` returns them as one `Channel` in two parts:

* dense blocks (key, first input index, m, W), each over a contiguous
  window of the input grid:
  - local dephasing -- one block per total spin j, W = the spin-j coupling
    matrix built from transfer coefficients;
  - collective dephasing -- one block, W_{m,m'} = exp(-Gamma (m-m')^2 / 2);
* one table of rank-one amplitudes over the full input grid, one row b per
  pure output branch, keyed by the loss pattern (l0, l1); the branch has
  W = b b^T on the window l0 <= n <= N - l1 where b is nonzero:
  - photon loss -- one row per loss pattern, b = binomial amplitude damping;
  - no noise    -- one all-ones row (0, 0).

The phase generator acts diagonally within each block, so derivatives,
symmetric logarithmic derivatives and the QFI all stay blockwise.  One SLD
kernel, which works in the block's eigenbasis, serves `sld`/`qfi`,
`state_qfi` and the optimizer's dense step.  `sld`/`qfi` rotate an
arbitrary derivative into it; the dense step builds the derivative
dm o sigma there directly as X Lam - Lam X with X = V^H diag(m) V, which
takes one GEMM and keeps the rounding of each entry proportional to its
eigenvalue gap; a nearly diagonal block rotates dm o sigma instead (see
`_channel_qfi`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Union

import numpy as np

from .angmom import coupling_blocks

__all__ = [
    "SymmetricPureState",
    "AngularBlockMatrix",
    "Channel",
    "ChannelBlock",
    "SectorMixture",
    "LossComponent",
    "NoiseFree",
    "LocalDephasing",
    "Loss",
    "CollectiveDephasing",
    "NoiseModel",
    "noon_state",
    "product_plus_state",
    "sine_profile_state",
    "resample_state",
    "apply_dephasing",
    "apply_loss",
    "apply_collective_dephasing",
    "lift_pure",
    "generator_commutator",
    "sld",
    "qfi",
    "qfi_loss",
    "state_qfi",
    "fidelity_qfi_check",
    "channel_blocks",
    "compose_collective",
]

EIG_SUPPORT_RTOL = 1e-12     # SLD support cutoff relative to largest eigenvalue
COHERENCE_RTOL = 1e-4        # below this, a dense block's derivative is rotated, not rebuilt
PSD_ATOL = 1e-8              # tolerated negative eigenvalue before raising
WEIGHT_FLOOR = 1e-280        # rank-one branches with numerically zero weight are skipped
RANK_ONE_CHUNK = 1024        # rank-one branches per pass of the batched step


def m_grid(twice_j: int) -> np.ndarray:
    """Generator eigenvalues m = -j..j (ascending) for a spin-j block."""
    return np.arange(-twice_j, twice_j + 1, 2) / 2.0


@lru_cache(maxsize=8)
def _lgamma_table(size: int) -> np.ndarray:
    from scipy.special import gammaln
    return gammaln(np.arange(size, dtype=float))


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

    def is_real(self) -> bool:
        return bool(np.all(self.amplitudes.imag == 0.0))

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
    amps = np.interp(new, old, state.amplitudes.real).astype(complex)
    if not state.is_real():
        amps += 1j * np.interp(new, old, state.amplitudes.imag)
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("resampled state vanished")
    return SymmetricPureState(n, amps / nrm)


class AngularBlockMatrix:
    """Hermitian operator on the phase-sensitive sectors, one dense block per
    total spin j (keys are doubled j).  Block axes run over m = -j..j
    ascending; multiplicity spaces are already traced out."""

    def __init__(self, n_particles: int, blocks: Dict[int, np.ndarray]):
        self.n_particles = n_particles
        self.blocks = {int(tj): np.asarray(b) for tj, b in blocks.items()}
        for tj, b in self.blocks.items():
            if b.shape != (tj + 1, tj + 1):
                raise ValueError(f"block 2j={tj} has shape {b.shape}")

    def trace(self) -> float:
        return float(sum(np.trace(b).real for b in self.blocks.values()))

    def hermiticity_defect(self) -> float:
        return max((np.max(np.abs(b - b.conj().T)) if b.size else 0.0)
                   for b in self.blocks.values())

    def min_eigenvalue(self) -> float:
        return min(np.linalg.eigvalsh((b + b.conj().T) / 2.0).min()
                   for b in self.blocks.values())

    def validate_state(self) -> None:
        """Raise unless this is (numerically) a density operator: Hermitian to
        1e-12, trace 1 to 1e-10, no eigenvalue below -1e-10."""
        defect = self.hermiticity_defect()
        if defect > 1e-12:
            raise ValueError(f"blocks not Hermitian: defect {defect:.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace {tr} != 1")
        lam_min = self.min_eigenvalue()
        if lam_min < -1e-10:
            raise ValueError(f"negative eigenvalue {lam_min:.3e}")

    def __repr__(self) -> str:
        return (f"AngularBlockMatrix(N={self.n_particles}, "
                f"blocks 2j={sorted(self.blocks)})")


@dataclass
class LossComponent:
    """One loss pattern: l0/l1 photons lost from the two arms."""

    l0: int
    l1: int
    weight: float
    amplitudes: np.ndarray  # over n = l0..N-l1 of the input index

    def m_values(self, n_particles: int) -> np.ndarray:
        ns = np.arange(self.l0, n_particles - self.l1 + 1)
        return ns - (n_particles + self.l0 - self.l1) / 2.0


@dataclass
class SectorMixture:
    """Loss-channel output: orthogonal pure components indexed by the number
    of photons lost in each arm."""

    n_particles: int
    transmissivity: float
    components: List[LossComponent]

    def total_weight(self) -> float:
        return float(sum(c.weight for c in self.components))


@dataclass(frozen=True)
class NoiseFree:
    pass


@dataclass(frozen=True)
class LocalDephasing:
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")


@dataclass(frozen=True)
class Loss:
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")


@dataclass(frozen=True)
class CollectiveDephasing:
    gamma: float

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError(f"gamma={self.gamma} must be >= 0")


NoiseModel = Union[NoiseFree, LocalDephasing, Loss, CollectiveDephasing]


# ---------------------------------------------------------------------------
# channel blocks (shared by the forward maps and the optimizer)
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


def _loss_table(n: int, eta: float):
    """Damping amplitudes of every loss pattern as one zero-padded table.

    Returns (l0, l1, B): row s holds B^i_{l0 l1} = sqrt(binom(i,l0)
    binom(N-i,l1) eta^(N-l0-l1) (1-eta)^(l0+l1)) over the input index
    i = 0..N, zero outside l0 <= i <= N-l1; the S = (N+1)(N+2)/2 patterns run
    over l0 + l1 <= N.  Built in log space, exact at eta in {0, 1}.
    """
    from scipy.special import xlogy
    l0, l1 = np.triu_indices(n + 1)
    l1 = l1 - l0
    lg = _lgamma_table(n + 2)
    # lbin[k, i] = log binom(i, k) for k, i = 0..N; -inf where k > i
    lbin = np.full((n + 1, n + 1), -np.inf)
    i, k = np.tril_indices(n + 1)
    lbin[k, i] = lg[i + 1] - lg[k + 1] - lg[i - k + 1]
    expo = xlogy(n - l0 - l1, eta) + xlogy(l0 + l1, 1.0 - eta)
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
    """The channel for N particles as dense blocks plus rank-one rows."""
    if isinstance(noise, NoiseFree):
        zero = np.zeros(1, dtype=int)
        return Channel(n, [], zero, zero, np.ones((1, n + 1)))
    if isinstance(noise, Loss):
        # rows of the loss table; patterns that receive no weight are dropped
        l0, l1, table = _loss_table(n, noise.eta)
        live = table.any(axis=1)
        return Channel(n, [], l0[live], l1[live], table[live])
    if isinstance(noise, LocalDephasing):
        blocks = []
        for tj, w in coupling_blocks(n, noise.eta).items():
            if np.any(w):
                blocks.append(ChannelBlock(("j", tj), (n - tj) // 2, m_grid(tj), w))
        return Channel.dense(n, blocks)
    if isinstance(noise, CollectiveDephasing):
        return Channel.dense(n, [ChannelBlock(("j", n), 0, m_grid(n),
                                              collective_weight(n, noise.gamma))])
    raise ValueError(f"unsupported noise model: {noise!r}")


def compose_collective(blocks: Channel, gamma: float) -> Channel:
    """Follow a channel by collective dephasing of strength gamma (the two
    commute; the Gaussian factor multiplies every block elementwise, so each
    rank-one row becomes a dense block over its window).  Every block's m
    grid has unit spacing, so its factor is the leading corner of one
    `collective_weight` table."""
    if gamma == 0.0:
        return blocks
    kick = collective_weight(blocks.n, gamma)
    return Channel.dense(blocks.n, [
        ChannelBlock(blk.key, blk.start, blk.m,
                     blk.weight * kick[:len(blk.m), :len(blk.m)])
        for blk in blocks.dense_blocks()])


# ---------------------------------------------------------------------------
# forward maps
# ---------------------------------------------------------------------------


def lift_pure(state: SymmetricPureState) -> AngularBlockMatrix:
    """|psi><psi| as a single maximal-spin block."""
    c = state.amplitudes
    return AngularBlockMatrix(state.n_particles,
                              {state.n_particles: np.outer(c, c.conj())})


def apply_dephasing(state: SymmetricPureState, eta: float) -> AngularBlockMatrix:
    """Local dephasing of strength eta on every particle.

    Output block j carries the input coherences multiplied elementwise by the
    spin-j coupling matrix; blocks that receive no weight (eta = 1) are
    dropped.  The result has unit trace and is positive semidefinite.
    """
    c = state.amplitudes
    out = {}
    for blk in channel_blocks(LocalDephasing(eta), state.n_particles).blocks:
        cb = c[blk.window]
        out[blk.key[1]] = blk.weight * np.outer(cb, cb.conj())
    return AngularBlockMatrix(state.n_particles, out)


def apply_loss(state: SymmetricPureState, eta: float) -> SectorMixture:
    """Photon loss with transmissivity eta in both arms.

    Each loss pattern (l0, l1) yields one normalized pure component with
    weight p_{l0 l1}; patterns with zero weight are dropped.
    """
    n = state.n_particles
    channel = channel_blocks(Loss(eta), n)
    v = channel.amplitudes * state.amplitudes
    p = np.einsum("si,si->s", v, v.conj()).real
    comps = []
    for r in np.flatnonzero(p > 0.0):
        l0, l1 = int(channel.l0[r]), int(channel.l1[r])
        comps.append(LossComponent(l0, l1, float(p[r]),
                                   v[r, l0:n - l1 + 1] / math.sqrt(p[r])))
    return SectorMixture(n, eta, comps)


def apply_collective_dephasing(rho: AngularBlockMatrix, gamma: float) -> AngularBlockMatrix:
    """Gaussian collective phase kick: each block entry (m, m') is damped by
    exp(-Gamma (m-m')^2 / 2); the trace is untouched."""
    if gamma < 0.0:
        raise ValueError(f"gamma={gamma} must be >= 0")
    out = {}
    for tj, b in rho.blocks.items():
        out[tj] = b * collective_weight(tj, gamma)
    return AngularBlockMatrix(rho.n_particles, out)


def generator_commutator(rho: AngularBlockMatrix) -> AngularBlockMatrix:
    """Derivative of the phase orbit at phi = 0, d/dphi U rho U^dag = i[H, rho]:
    entry (m, m') of each block becomes i (m - m') rho_{m,m'}."""
    out = {}
    for tj, b in rho.blocks.items():
        m = m_grid(tj)
        dm = m[:, None] - m[None, :]
        out[tj] = 1j * dm * b
    return AngularBlockMatrix(rho.n_particles, out)


# ---------------------------------------------------------------------------
# SLD and QFI
# ---------------------------------------------------------------------------


def _sld_kernel(lam: np.ndarray, kp: np.ndarray):
    """SLD of one Hermitian block in its eigenbasis, in the convention
    drho = i k, L = i lmat.

    `lam` holds the block's eigenvalues (ascending) and kp = V^H k V the
    derivative in that basis.  Returns (tr(rho L^2), lt) with lmat =
    V lt V^H; both are real antisymmetric for real input.  Matrix elements
    between eigenvectors whose eigenvalue sum falls below
    EIG_SUPPORT_RTOL * lambda_max are set to zero (null-space convention).
    """
    denom = lam[:, None] + lam[None, :]
    cut = EIG_SUPPORT_RTOL * max(float(lam[-1]), np.finfo(float).tiny)
    mask = denom > cut
    lt = np.where(mask, 2.0 * kp / np.where(mask, denom, 1.0), 0.0)
    return float(np.sum(denom * lt * lt.conj()).real) / 2.0, lt


def _sld_block(rho_b: np.ndarray, drho_b: np.ndarray):
    """SLD of one block of a given state; returns (L, qfi_contribution)."""
    lam, vec = np.linalg.eigh((rho_b + rho_b.conj().T) / 2.0)
    if float(lam[0]) < -PSD_ATOL * max(float(lam[-1]), 1.0):
        raise ValueError(
            f"block is not positive semidefinite: min eigenvalue {lam[0]:.3e}")
    f, lt = _sld_kernel(lam, vec.conj().T @ (-1j * drho_b) @ vec)
    return 1j * (vec @ lt @ vec.conj().T), f


def sld(rho: AngularBlockMatrix, drho: AngularBlockMatrix) -> AngularBlockMatrix:
    """Symmetric logarithmic derivative L solving drho = (rho L + L rho)/2
    blockwise on the numerically supported subspace."""
    if set(rho.blocks) != set(drho.blocks):
        raise ValueError("rho and drho have different block structures")
    out = {}
    for tj, b in rho.blocks.items():
        out[tj], _ = _sld_block(b, drho.blocks[tj])
    return AngularBlockMatrix(rho.n_particles, out)


def qfi(rho: AngularBlockMatrix, drho: AngularBlockMatrix) -> float:
    """Quantum Fisher information tr(rho L^2) for the given state/derivative."""
    if set(rho.blocks) != set(drho.blocks):
        raise ValueError("rho and drho have different block structures")
    total = 0.0
    for tj, b in rho.blocks.items():
        _, f = _sld_block(b, drho.blocks[tj])
        total += f
    return total


def _rank_one_qfi(damping: np.ndarray, c: np.ndarray,
                  a_out: Optional[np.ndarray]) -> float:
    """QFI of all rank-one branches at once, real or complex c.

    Branch s (damping row d = b*b) outputs the pure state psi = b c / sqrt(p),
    so its SLD is 2i(|a><psi| - |psi><a|) with a = (m - mbar) psi, and it
    adds 4 p |a|^2 to F.  Its Heisenberg-picture term is, with P = b psi,
    Q = b a and R = b (m - mbar) a, 4(3 Q Q^H + |a|^2 P P^H - R P^H - P R^H);
    centring m on each branch mean mbar costs nothing, because a constant
    shift of the generator cancels.  Stacking the rows turns the sums over
    branches into two GEMMs.  Rows go in chunks of RANK_ONE_CHUNK to bound
    the temporaries.
    """
    n = damping.shape[1] - 1
    m = np.arange(n + 1) - n / 2.0
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
        if a_out is None:
            continue
        pb = d * c / np.sqrt(p)[:, None]        # P
        q = mc * pb                             # Q
        z = (pb * (0.5 * na2)[:, None] - mc * q).T @ pb.conj()
        a_out += 4.0 * (3.0 * (q.T @ q.conj()) + z + z.conj().T)
    return f


def _channel_qfi(channel: Channel, c: np.ndarray,
                 a_out: Optional[np.ndarray] = None) -> float:
    """QFI of the channel output for input amplitudes c, real or complex.

    With `a_out`, also add into it the Heisenberg-picture operator
    A = channel_adjoint(L^2 - 2i [H, L]), for which <c|A|c> = -F; A is real
    symmetric for real c, else Hermitian.

    A dense block's derivative is k = dm o sigma = M sigma - sigma M with
    M = diag(m), so in sigma's eigenbasis it is kp = X Lam - Lam X with
    X = V^H M V: one GEMM instead of rotating k with two.  The rounding of
    each entry X_ij (lam_j - lam_i) scales with |lam_j - lam_i|, whereas a
    rotated k carries ~eps |k| in every entry, which swamps the pairs of
    small eigenvalues and held the see-saw's residual near 2e-7 under
    dephasing.  L^2 = lmat lmat^H (a SYRK for real c).

    X Lam - Lam X is the derivative of V Lam V^H, which differs from sigma
    by the eigensolver's backward error, ~eps lambda_max.  When sigma is so
    nearly diagonal that every |k_ij| < COHERENCE_RTOL (m_max - m_min)
    lambda_max, that difference would swamp k (at dephasing eta -> 0 it
    would give F ~ 1e-20 and <c|A|c> = +F), so such a block rotates k itself,
    whose rounding stays relative to |k|.
    """
    f = 0.0
    for blk in channel.blocks:
        win, m = blk.window, blk.m
        cb = c[win]
        sigma = blk.weight * np.outer(cb, cb.conj())
        lam, vec = np.linalg.eigh(sigma)
        k = (m[:, None] - m[None, :]) * sigma
        if np.max(np.abs(k)) >= COHERENCE_RTOL * (m[-1] - m[0]) * lam[-1]:
            x = vec.conj().T @ (m[:, None] * vec)
            kp = x * (lam - lam[:, None])
        else:
            kp = vec.conj().T @ k @ vec
        f_b, lt = _sld_kernel(lam, kp)
        f += f_b
        if a_out is not None:
            lmat = vec @ lt @ vec.conj().T
            y = lmat @ lmat.conj().T
            y -= 2.0 * (m[:, None] * lmat - lmat * m[None, :])
            a_out[win, win] += blk.weight * y
    return f + _rank_one_qfi(channel.damping, c, a_out)


def state_qfi(state: SymmetricPureState, noise: NoiseModel) -> float:
    """QFI of a fixed input state after the given channel, at the working
    point of the phase orbit."""
    c = state.amplitudes
    return _channel_qfi(channel_blocks(noise, state.n_particles),
                        c.real if state.is_real() else c)


def qfi_loss(mix: SectorMixture) -> float:
    """QFI of a loss-channel output under phase encoding.

    Loss patterns mark orthogonal environments, so each component contributes
    4 p Var(m) with the generator restricted to its sector.
    """
    total = 0.0
    for comp in mix.components:
        m = comp.m_values(mix.n_particles)
        prob = np.abs(comp.amplitudes) ** 2
        mbar = float(np.sum(m * prob))
        var = float(np.sum((m - mbar) ** 2 * prob))
        total += 4.0 * comp.weight * var
    return total


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
    c = state.amplitudes
    root_fid = 0.0
    for blk in channel_blocks(noise, state.n_particles).dense_blocks():
        cb = c[blk.window]
        b = blk.weight * np.outer(cb, cb.conj())
        root_fid += _root_fidelity(b, _phase_shift(b, blk.m, delta))
    return 8.0 * (1.0 - root_fid) / delta ** 2
