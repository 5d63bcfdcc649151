"""Brute-force small-N oracles.

Everything here reconstructs channel outputs and coupling data from first
principles, with numpy alone, on exponentially large spaces (full 2^N tensor
products, truncated Fock spaces with explicit beam-splitter unitaries, dense
two-spin coupling), deliberately avoiding the compressed code paths it is
used to check.  `dephasing_block_error` and `loss_mixture_error` compare
them, block by block, with the one forward map `qcore.channel_output`.  The
`selftest` CLI subcommand and the test suite both run these.
"""

from __future__ import annotations

import itertools
import math
from math import comb
from typing import Dict

import numpy as np

from .qcore import LocalDephasing, Loss, SymmetricPureState, channel_output

__all__ = [
    "random_state",
    "spin_operators",
    "cg_column_oracle",
    "brute_dephasing_blocks",
    "dephasing_block_error",
    "brute_dephasing_qfi",
    "brute_loss_components",
    "loss_mixture_error",
    "covariant_cost_quadrature",
]


def random_state(n: int, seed: int = 0) -> SymmetricPureState:
    """Complex Gaussian amplitudes, normalized."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return SymmetricPureState(n, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# dense angular momentum
# ---------------------------------------------------------------------------


def spin_operators(twice_j: int):
    """Dense (Jz, J+, J-) for a single spin j, basis m ascending."""
    m = np.arange(-twice_j, twice_j + 1, 2) / 2.0
    j = twice_j / 2.0
    jz = np.diag(m)
    jp = np.zeros((twice_j + 1, twice_j + 1))
    for i in range(twice_j):
        jp[i + 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    return jz, jp, jp.T


def cg_column_oracle(tj1: int, tj2: int, tJ: int, tM: int) -> Dict[int, float]:
    """Coupling coefficients <j1 m1; j2 m2 | J M> for all m1 (doubled keys),
    obtained by diagonalizing the dense two-spin total-J^2 operator and
    fixing the sign of the highest-m1 component."""
    jz1, jp1, jm1 = spin_operators(tj1)
    jz2, jp2, jm2 = spin_operators(tj2)
    d1, d2 = tj1 + 1, tj2 + 1
    eye1, eye2 = np.eye(d1), np.eye(d2)
    jz = np.kron(jz1, eye2) + np.kron(eye1, jz2)
    jp = np.kron(jp1, eye2) + np.kron(eye1, jp2)
    j2 = jp @ jp.T + jz @ jz - jz
    # restrict to the M sector
    m1s = np.arange(-tj1, tj1 + 1, 2)
    m2s = np.arange(-tj2, tj2 + 1, 2)
    sector = [(i1, i2) for i1 in range(d1) for i2 in range(d2)
              if m1s[i1] + m2s[i2] == tM]
    if not sector:
        return {}
    idx = [i1 * d2 + i2 for i1, i2 in sector]
    lam, vec = np.linalg.eigh(j2[np.ix_(idx, idx)])
    target = (tJ / 2.0) * (tJ / 2.0 + 1.0)
    hits = np.where(np.abs(lam - target) < 1e-8)[0]
    if len(hits) != 1:
        return {}
    v = vec[:, hits[0]]
    # Condon-Shortley: the largest-m1 component is positive
    top = max(range(len(sector)), key=lambda k: m1s[sector[k][0]])
    if v[top] < 0:
        v = -v
    return {m1s[i1]: float(v[k]) for k, (i1, _) in enumerate(sector)}


# ---------------------------------------------------------------------------
# dephasing: full 2^N Kraus expansion projected on total-spin blocks
# ---------------------------------------------------------------------------


def _dense_symmetric_vector(state: SymmetricPureState) -> np.ndarray:
    """Embed the symmetric state in the full 2^N space (bit=1 is spin up)."""
    n = state.n_particles
    psi = np.zeros(2 ** n, dtype=complex)
    for bits in itertools.product((0, 1), repeat=n):
        ups = sum(bits)
        idx = int("".join(map(str, bits)), 2)
        psi[idx] += state.amplitudes[ups] / math.sqrt(comb(n, ups))
    return psi


def _collective_operators(n: int):
    sz = np.diag([-0.5, 0.5])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])

    def embed(op, i):
        out = np.array([[1.0]])
        for k in range(n):
            out = np.kron(out, op if k == i else np.eye(2))
        return out

    jz = sum(embed(sz, i) for i in range(n))
    jp = sum(embed(sp, i) for i in range(n))
    return jz, jp


def _dephased_full(state: SymmetricPureState, eta: float) -> np.ndarray:
    """rho'_{x,y} = eta^hamming(x,y) rho_{x,y}: all 2^N Kraus strings at once."""
    psi = _dense_symmetric_vector(state)
    rho = np.outer(psi, psi.conj())
    dim = rho.shape[0]
    ham = np.array([[bin(x ^ y).count("1") for y in range(dim)]
                    for x in range(dim)], dtype=float)
    return rho * (eta ** ham)


def _coupled_ladder_bases(n: int):
    """Orthonormal |j, m, alpha> ladders in the full 2^N space.

    Returns {twice_j: list over alpha of arrays [m index, 2^N]} with m
    ascending.  Highest-weight spaces are extracted from the total-J^2
    eigendecomposition and lowered with J-.
    """
    jz, jp = _collective_operators(n)
    jm = jp.T
    j2 = jp @ jm + jz @ jz - jz
    lam, vec = np.linalg.eigh(j2)
    mvals = np.rint(np.diag(jz) * 2).astype(int)
    out = {}
    for tj in range(n % 2, n + 1, 2):
        j = tj / 2.0
        sel = np.abs(lam - j * (j + 1)) < 1e-8
        vj = vec[:, sel]
        # highest-weight vectors: the part of this eigenspace with m = j
        mask = mvals == tj
        proj = vj @ vj.T
        w, u = np.linalg.eigh(proj[np.ix_(mask, mask)])
        keep = w > 0.5
        ladders = []
        for col in np.where(keep)[0]:
            hw = np.zeros(2 ** n)
            hw[mask] = u[:, col]
            basis = [hw]
            for _ in range(tj):
                nxt = jm @ basis[-1]
                basis.append(nxt / np.linalg.norm(nxt))
            ladders.append(np.array(basis[::-1]))  # m ascending
        out[tj] = ladders
    return out


def brute_dephasing_blocks(state: SymmetricPureState, eta: float) -> Dict[int, np.ndarray]:
    """Multiplicity-summed total-spin blocks of the dephased state, computed
    on the full 2^N space."""
    rho = _dephased_full(state, eta)
    blocks = {}
    for tj, ladders in _coupled_ladder_bases(state.n_particles).items():
        acc = np.zeros((tj + 1, tj + 1), dtype=complex)
        for basis in ladders:
            acc += basis.conj() @ rho @ basis.T
        blocks[tj] = acc
    return blocks


def _block_error(got: Dict, ref: Dict) -> float:
    """Largest entrywise deviation between two families of output blocks over
    the union of their keys; a block that one side lacks counts as zero."""
    err = 0.0
    for key in set(got) | set(ref):
        a, b = got.get(key), ref.get(key)
        diff = b if a is None else a if b is None else a - b
        err = max(err, float(np.max(np.abs(diff), initial=0.0)))
    return err


def _output_blocks(state: SymmetricPureState, noise) -> Dict:
    return {blk.key: sigma for blk, sigma in channel_output(state, noise)}


def dephasing_block_error(state: SymmetricPureState, eta: float) -> float:
    """Largest entrywise deviation between the compressed dephasing output
    and the full tensor-product computation, over every total spin."""
    brute = brute_dephasing_blocks(state, eta)
    return _block_error(_output_blocks(state, LocalDephasing(eta)),
                        {("j", tj): b for tj, b in brute.items()})


def brute_dephasing_qfi(state: SymmetricPureState, eta: float) -> float:
    """QFI of the dephased state evaluated on the full 2^N space; eigenvalue
    pairs whose sum is below 1e-12 of the largest eigenvalue are cut."""
    rho = _dephased_full(state, eta)
    jz, _ = _collective_operators(state.n_particles)
    drho = 1j * (jz @ rho - rho @ jz)
    lam, vec = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    d = vec.conj().T @ drho @ vec
    denom = lam[:, None] + lam[None, :]
    mask = denom > 1e-12 * max(lam[-1], 1e-300)
    return float(np.sum(np.where(mask, 2.0 * np.abs(d) ** 2
                                 / np.where(mask, denom, 1.0), 0.0)).real)


# ---------------------------------------------------------------------------
# loss: beam-splitter dilation on truncated Fock spaces
# ---------------------------------------------------------------------------


def _annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim))
    for k in range(1, dim):
        a[k - 1, k] = math.sqrt(k)
    return a


def brute_loss_components(state: SymmetricPureState, eta: float):
    """Loss-channel components from an explicit two-beam-splitter dilation.

    Couples each arm to a vacuum environment mode through the unitary
    exp(G), G = theta (a^dag e - a e^dag), with cos^2(theta) = eta, then
    projects the environments onto definite photon numbers (l0, l1).  G is
    real antisymmetric, so iG is Hermitian with eigenpairs (lam, V) and
    exp(G) = V diag(e^(-i lam)) V^H, whose real part is the unitary.
    Returns {(l0, l1): (weight, amplitudes over n = l0..N-l1)}.
    """
    n = state.n_particles
    dim = n + 1
    a = _annihilation(dim)
    theta = math.acos(math.sqrt(eta))
    # joint beam-splitter unitary on (mode, env)
    lam, vec = np.linalg.eigh(1j * theta * (np.kron(a.T, a) - np.kron(a, a.T)))
    u_bs = ((vec * np.exp(-1j * lam)) @ vec.conj().T).real
    # joint state on a0 (x) a1 (x) e0 (x) e1: start in env vacuum
    psi = np.zeros((dim, dim, dim, dim), dtype=complex)
    for k in range(dim):
        psi[k, n - k, 0, 0] = state.amplitudes[k]
    # apply BS on (a0, e0): reshape to (a0 e0) pairs
    full = psi.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    full = u_bs @ full          # acts on (a0, e0)
    full = full @ u_bs.T        # acts on (a1, e1); u_bs real
    psi = full.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3)
    out = {}
    for l0 in range(dim):
        for l1 in range(dim - l0):  # l0 + l1 <= N photons lost
            block = psi[:, :, l0, l1]
            weight = float(np.sum(np.abs(block) ** 2))
            if weight < 1e-300:
                continue
            # surviving Fock amplitudes sit on k0 = n-l0, k1 = N-n-l1
            ns = np.arange(l0, n - l1 + 1)
            amps = np.array([block[k - l0, n - k - l1] for k in ns])
            out[(l0, l1)] = (weight, amps / math.sqrt(weight))
    return out


def loss_mixture_error(state: SymmetricPureState, eta: float) -> float:
    """Largest deviation between the compressed loss output and the explicit
    beam-splitter dilation, comparing the weighted density block of every
    loss pattern."""
    ref = {key: w * np.outer(a, a.conj())
           for key, (w, a) in brute_loss_components(state, eta).items()}
    return _block_error(_output_blocks(state, Loss(eta)), ref)


# ---------------------------------------------------------------------------
# covariant-measurement average cost by direct quadrature
# ---------------------------------------------------------------------------


def covariant_cost_quadrature(state: SymmetricPureState, seed: np.ndarray) -> float:
    """Average sine cost of the covariant measurement generated by a seed
    operator, for a noise-free probe: the squared cost equals

        4/(2 pi) * Integral  tr(U_phi rho U_phi^dag  Xi) sin^2(phi/2) dphi.

    The integrand is a trigonometric polynomial of degree N+1, so a uniform
    trapezoid rule with 8(N+2) nodes is exact; `seed` must have unit
    diagonal (covariant completeness).
    """
    n = state.n_particles
    if seed.shape != (n + 1, n + 1):
        raise ValueError("seed operator has the wrong shape")
    if np.max(np.abs(np.diag(seed) - 1.0)) > 1e-10:
        raise ValueError("covariant seed operator must have unit diagonal")
    nodes = 8 * (n + 2)
    phis = 2.0 * np.pi * np.arange(nodes) / nodes - np.pi
    m = state.m_values
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    total = 0.0
    for phi in phis:
        u = np.exp(1j * m * phi)
        rho_phi = rho * np.outer(u, u.conj())
        total += float(np.trace(rho_phi @ seed).real) * math.sin(phi / 2.0) ** 2
    return 4.0 * total / nodes
