"""States, noise channels and quantum Fisher information for symmetric probes.

An N-qubit permutation-symmetric pure state is a vector of N+1 amplitudes in
the mode-occupation basis |n, N-n>, equivalently the total-spin basis
|N/2, m = n - N/2>.  Every noise model handled here commutes with the phase
encoding U_phi = exp(+i H phi), H = sum sigma_z/2, and acts on a symmetric
input as a family of blocks

    sigma_b = W_b * (c c^dagger restricted to the block's indices)

(elementwise product), where W_b is a real symmetric positive semidefinite
multiplier:

* no noise          -- one block, W = all-ones (pure output);
* local dephasing   -- one block per total spin j, W = the spin-j coupling
                       matrix built from transfer coefficients;
* photon loss       -- one block per loss pattern (l0, l1), W = b b^T with
                       binomial amplitude damping b (pure branch);
* collective dephasing -- one block, W_{m,m'} = exp(-Gamma (m-m')^2 / 2).

The phase generator acts diagonally within each block, so derivatives,
symmetric logarithmic derivatives and the QFI all stay blockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Union

import numpy as np

from .angmom import coupling_blocks

__all__ = [
    "SymmetricPureState",
    "AngularBlockMatrix",
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
    "apply_dephasing",
    "apply_loss",
    "apply_collective_dephasing",
    "lift_pure",
    "generator_commutator",
    "sld",
    "qfi",
    "qfi_loss",
    "fidelity_qfi_check",
    "channel_blocks",
    "ChannelBlock",
]

EIG_SUPPORT_RTOL = 1e-12     # SLD support cutoff relative to largest eigenvalue
PSD_ATOL = 1e-8              # tolerated negative eigenvalue before raising


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

    def copy(self) -> "AngularBlockMatrix":
        return AngularBlockMatrix(self.n_particles,
                                  {tj: b.copy() for tj, b in self.blocks.items()})

    def hermiticity_defect(self) -> float:
        return max((np.max(np.abs(b - b.conj().T)) if b.size else 0.0)
                   for b in self.blocks.values())

    def min_eigenvalue(self) -> float:
        return min(np.linalg.eigvalsh((b + b.conj().T) / 2.0).min()
                   for b in self.blocks.values())

    def validate_state(self, trace_atol: float = 1e-10,
                       herm_atol: float = 1e-12,
                       psd_atol: float = 1e-10) -> None:
        """Raise unless this is (numerically) a density operator."""
        defect = self.hermiticity_defect()
        if defect > herm_atol:
            raise ValueError(f"blocks not Hermitian: defect {defect:.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > trace_atol:
            raise ValueError(f"trace {tr} != 1")
        lam_min = self.min_eigenvalue()
        if lam_min < -psd_atol:
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
    """One output block of a phase-covariant channel on symmetric inputs.

    `indices` selects input amplitudes, `m` holds the generator eigenvalues.
    Dense blocks carry the PSD multiplier `weight`; rank-one blocks carry the
    damping vector `amplitude` instead (weight = outer(amplitude, amplitude)).
    """

    key: tuple
    indices: np.ndarray
    m: np.ndarray
    weight: Optional[np.ndarray] = None
    amplitude: Optional[np.ndarray] = None

    def dense_weight(self) -> np.ndarray:
        if self.weight is not None:
            return self.weight
        return np.outer(self.amplitude, self.amplitude)


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
    """Gaussian phase-kick multiplier exp(-Gamma (m-m')^2 / 2) on a j-block."""
    m = m_grid(twice_j)
    dm = m[:, None] - m[None, :]
    return np.exp(-gamma * dm * dm / 2.0)


def channel_blocks(noise: NoiseModel, n: int) -> List[ChannelBlock]:
    """Block decomposition of the channel for N particles."""
    full_idx = np.arange(n + 1)
    full_m = full_idx - n / 2.0
    if isinstance(noise, NoiseFree):
        return [ChannelBlock(("j", n), full_idx, full_m,
                             amplitude=np.ones(n + 1))]
    if isinstance(noise, LocalDephasing):
        blocks = []
        for tj, w in coupling_blocks(n, noise.eta).items():
            if not np.any(w):
                continue
            tms = np.arange(-tj, tj + 1, 2)
            blocks.append(ChannelBlock(("j", tj), (tms + n) // 2, tms / 2.0,
                                       weight=w))
        return blocks
    if isinstance(noise, Loss):
        # rows of the loss table; patterns that receive no weight are dropped
        l0s, l1s, table = _loss_table(n, noise.eta)
        blocks = []
        for s in np.flatnonzero(table.any(axis=1)).tolist():
            l0, l1 = int(l0s[s]), int(l1s[s])
            win = slice(l0, n - l1 + 1)
            blocks.append(ChannelBlock(("loss", l0, l1), full_idx[win],
                                       full_m[win] - (l0 - l1) / 2.0,
                                       amplitude=table[s, win]))
        return blocks
    if isinstance(noise, CollectiveDephasing):
        return [ChannelBlock(("j", n), full_idx, full_m,
                             weight=collective_weight(n, noise.gamma))]
    raise TypeError(f"unsupported noise model: {noise!r}")


def compose_collective(blocks: List[ChannelBlock], gamma: float) -> List[ChannelBlock]:
    """Follow a channel by collective dephasing of strength gamma (the two
    commute; the Gaussian factor multiplies every block elementwise)."""
    if gamma == 0.0:
        return blocks
    out = []
    for blk in blocks:
        dm = blk.m[:, None] - blk.m[None, :]
        damp = np.exp(-gamma * dm * dm / 2.0)
        out.append(ChannelBlock(blk.key, blk.indices, blk.m,
                                weight=blk.dense_weight() * damp))
    return out


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
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta={eta} outside [0, 1]")
    n = state.n_particles
    c = state.amplitudes
    out = {}
    for tj, w in coupling_blocks(n, eta).items():
        if not np.any(w):
            continue
        tms = np.arange(-tj, tj + 1, 2)
        idx = (tms + n) // 2
        cb = c[idx]
        out[tj] = w * np.outer(cb, cb.conj())
    return AngularBlockMatrix(n, out)


def apply_loss(state: SymmetricPureState, eta: float) -> SectorMixture:
    """Photon loss with transmissivity eta in both arms.

    Each loss pattern (l0, l1) yields one normalized pure component with
    weight p_{l0 l1}; patterns with zero weight are dropped.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta={eta} outside [0, 1]")
    n = state.n_particles
    l0s, l1s, table = _loss_table(n, eta)
    v = table * state.amplitudes
    p = np.einsum("si,si->s", v, v.conj()).real
    comps = []
    for s in np.flatnonzero(p > 0.0):
        l0, l1 = int(l0s[s]), int(l1s[s])
        comps.append(LossComponent(l0, l1, float(p[s]),
                                   v[s, l0:n - l1 + 1] / math.sqrt(p[s])))
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


def _sld_block(rho_b: np.ndarray, drho_b: np.ndarray):
    """SLD of one block via its eigenbasis; returns (L, qfi_contribution).

    Matrix elements between eigenvectors whose eigenvalue sum falls below
    EIG_SUPPORT_RTOL * lambda_max are set to zero (null-space convention).
    """
    herm = (rho_b + rho_b.conj().T) / 2.0
    lam, vec = np.linalg.eigh(herm)
    lam_max = float(lam[-1]) if lam.size else 0.0
    if lam.size and float(lam[0]) < -PSD_ATOL * max(lam_max, 1.0):
        raise ValueError(
            f"block is not positive semidefinite: min eigenvalue {lam[0]:.3e}")
    d = vec.conj().T @ drho_b @ vec
    denom = lam[:, None] + lam[None, :]
    cut = EIG_SUPPORT_RTOL * max(lam_max, np.finfo(float).tiny)
    mask = denom > cut
    l_eig = np.where(mask, 2.0 * d / np.where(mask, denom, 1.0), 0.0)
    f = float(np.sum(denom * np.abs(l_eig) ** 2).real) / 2.0
    return vec @ l_eig @ vec.conj().T, f


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


def state_qfi(state: SymmetricPureState, noise: NoiseModel) -> float:
    """QFI of a fixed input state after the given channel, at the working
    point of the phase orbit."""
    if isinstance(noise, NoiseFree):
        m = state.m_values
        prob = np.abs(state.amplitudes) ** 2
        mbar = float(np.sum(m * prob))
        return 4.0 * float(np.sum((m - mbar) ** 2 * prob))
    if isinstance(noise, LocalDephasing):
        rho = apply_dephasing(state, noise.eta)
        return qfi(rho, generator_commutator(rho))
    if isinstance(noise, Loss):
        return qfi_loss(apply_loss(state, noise.eta))
    if isinstance(noise, CollectiveDephasing):
        rho = apply_collective_dephasing(lift_pure(state), noise.gamma)
        return qfi(rho, generator_commutator(rho))
    raise TypeError(f"unsupported noise model: {noise!r}")


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


def _output_dense_blocks(state: SymmetricPureState, noise: NoiseModel):
    """Channel output as a list of dense Hermitian blocks with their m grids."""
    c = state.amplitudes
    out = []
    for blk in channel_blocks(noise, state.n_particles):
        cb = c[blk.indices]
        out.append((blk.m, blk.dense_weight() * np.outer(cb, cb.conj())))
    return out


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
    blocks = _output_dense_blocks(state, noise)
    root_fid = 0.0
    for m, b in blocks:
        root_fid += _root_fidelity(b, _phase_shift(b, m, delta))
    return 8.0 * (1.0 - root_fid) / delta ** 2
