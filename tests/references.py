"""Test-side references: two that check the engine through the forward map
`qcore.channel_output`, the loss oracle's beam-splitter dilation built with
scipy's `expm`, two block-by-block builds that the stacked channel build
must reproduce bit for bit, the coupling blocks read from a transfer table
that stores both m halves, and the per-noise dispatch that each noise
model's `channel` and `limit` must reproduce exactly."""

import math

import numpy as np
from scipy.linalg import expm

from phaselim import asymptotics, qcore
from phaselim.angmom import (_flip_probabilities, allowed_twice_j, coupling_blocks,
                             dephasing_tables)
from phaselim.qcore import (EIG_SUPPORT_RTOL, Channel, ChannelBlock,
                            CollectiveDephasing, LocalDephasing, Loss, NoiseFree,
                            channel_output, collective_weight, m_grid)


def block_sld(sigma, m):
    """SLD of one output block, in complex arithmetic: returns (drho, L, F_b),
    where drho = i dm o sigma is the phase derivative i[H, sigma] and L
    solves drho = (sigma L + L sigma)/2 on sigma's numerical support.  The
    derivative is rotated into sigma's eigenbasis, and pairs of eigenvectors
    whose eigenvalue sum is below the library's support cut (EIG_SUPPORT_RTOL
    of the largest eigenvalue, at least the smallest normal double) get
    L = 0."""
    drho = 1j * (m[:, None] - m[None, :]) * sigma
    lam, vec = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    dp = vec.conj().T @ drho @ vec
    denom = lam[:, None] + lam[None, :]
    mask = denom > max(EIG_SUPPORT_RTOL * lam[-1], np.finfo(float).tiny)
    lp = np.where(mask, 2.0 * dp / np.where(mask, denom, 1.0), 0.0)
    f = float(np.sum(denom * np.abs(lp) ** 2)) / 2.0
    return drho, vec @ lp @ vec.conj().T, f


def loss_qfi(state, eta):
    """QFI of the loss output with the loss patterns as orthogonal flags: every
    block of `channel_output` is the pure branch p |psi><psi|, which adds
    4 p Var_psi(m)."""
    total = 0.0
    for blk, sigma in channel_output(state, Loss(eta)):
        prob = np.diag(sigma).real                # p |psi|^2
        p = prob.sum()
        if p > 0.0:
            mc = blk.m - (blk.m @ prob) / p
            total += 4.0 * float(mc * mc @ prob)
    return total


def expm_loss_components(state, eta):
    """`oracles.brute_loss_components` with the beam-splitter unitary
    U = expm(theta (a^dag e - a e^dag)), cos^2(theta) = eta, on each arm and
    its vacuum environment: the unnormalized branch sqrt(w) psi of every loss
    pattern (l0, l1), over n = l0..N-l1, where
    psi[k0, k1, l0, l1] = sum_n c_n U[k0 l0, n 0] U[k1 l1, N-n 0]."""
    n = state.n_particles
    a = np.diag(np.sqrt(np.arange(1.0, n + 1)), 1)
    theta = math.acos(math.sqrt(eta))
    u = expm(theta * (np.kron(a.T, a) - np.kron(a, a.T)))
    u = u.reshape((n + 1,) * 4)[:, :, :, 0]          # (k, l, n) from env vacuum
    psi = np.einsum("n,kln,jmn->kjlm", state.amplitudes, u, u[:, :, ::-1])
    ns = np.arange(n + 1)
    return {(l0, l1): psi[ns[l0:n - l1 + 1] - l0, n - ns[l0:n - l1 + 1] - l1, l0, l1]
            for l0 in range(n + 1) for l1 in range(n + 1 - l0)}


def coupling_block(n, tj, eta):
    """The spin-j coupling matrix R^T diag(w) R of local dephasing, with the
    flip probabilities w of its own flip counts |n/2 - k| <= j computed for
    this block alone (exactly diagonal at eta = 0)."""
    ks = np.arange((n - tj) // 2, (n + tj) // 2 + 1)[:, None]
    r = dephasing_tables(n)._rows(ks, tj, np.arange(-tj, tj + 1, 2))
    block = r.T @ (_flip_probabilities(n, ks, eta) * r)
    return np.diag(np.diagonal(block)) if eta == 0.0 else block


def full_m_coupling_blocks(n, eta):
    """`coupling_blocks` read from a transfer table that stores both m
    halves: the stored m >= 0 half, with m < 0 filled in by
    C(k; j, -m) = (-1)^(n/2-j) (-1)^k C(k; j, m), and the rows k > n/2 read
    through the k mirror alone."""
    h = dephasing_tables(n)._c
    top = (n + 1) // 2  # index of the smallest m >= 0 in m = -n/2..n/2
    table = np.empty((n // 2 + 1, n // 2 + 1, n + 1))
    table[:, :, top:] = h
    k_plus_j = np.arange(n // 2 + 1)[:, None] + np.arange(n // 2 + 1)
    sign = np.where((n // 2 + k_plus_j) % 2 == 0, 1.0, -1.0)
    table[:, :, :top] = sign[:, :, None] * np.flip(h, 2)[:, :, :top]
    flips = _flip_probabilities(n, np.arange(n + 1), eta)
    blocks = {}
    for tj in allowed_twice_j(n):
        ks = np.arange((n - tj) // 2, (n + tj) // 2 + 1)[:, None]
        tms = np.arange(-tj, tj + 1, 2)
        kk = np.minimum(ks, n - ks)
        r = table[kk, (tj - n % 2) // 2, (tms + n) // 2]
        r = np.where((ks > kk) & (((n - tj) // 2 + (n - tms) // 2) % 2 == 1), -r, r)
        block = r.T @ (flips[ks] * r)
        blocks[tj] = np.diag(np.diagonal(block)) if eta == 0.0 else block
    return blocks


def sector_stacks(channel):
    """`Channel.parity_split` block by block: None for rank-one rows or a
    block off the centre, ValueError for a block with W != W[::-1, ::-1]
    beyond 1e-12; else per size class (lo, m, span, plus, minus, k), each
    block folded alone onto the arm-swap sectors and zero-extended at the
    front to the class's widest window."""
    n = channel.n
    if len(channel.amplitudes) or any(2 * blk.start + len(blk.m) - 1 != n
                                      for blk in channel.blocks):
        return None
    if any(np.max(np.abs(blk.weight - blk.weight[::-1, ::-1])) > 1e-12
           for blk in channel.blocks):
        raise ValueError("a block differs from its mirror under n -> N - n")
    half = math.sqrt(0.5)
    out = []
    for group in qcore._size_classes(channel.blocks, lambda b: len(b.m) - len(b.m) // 2):
        lo = min(blk.start for blk in group)
        q = (n + 1) // 2 - lo
        p = n + 1 - 2 * lo - q
        m = np.zeros((len(group), q))
        plus = np.zeros((len(group), p, p))
        minus = np.zeros((len(group), q, q))
        k = np.zeros((len(group), p, q))
        for b, blk in enumerate(group):
            w = blk.weight
            d, o = len(w), blk.start - lo
            h = d // 2
            # D_ij = (w_ij + w_(Ji)(Jj))/2 and C_ij = (w_i(Jj) + w_(Ji)j)/2
            diag = 0.5 * (w[:h, :h] + w[::-1, ::-1][:h, :h])
            cross = 0.5 * (w[:h, ::-1][:, :h] + w[::-1][:h, :h])
            plus_b = np.empty((d - h, d - h))
            plus_b[:h, :h] = 0.5 * (diag + cross)
            if d > 2 * h:
                plus_b[:h, h] = half * (half * (w[:h, h] + w[::-1][:h, h]))
                plus_b[h, :h] = half * (half * (w[h, :h] + w[h, ::-1][:h]))
                plus_b[h, h] = w[h, h]
            m_b = blk.m[:h] - 0.5 * (blk.m[0] + blk.m[-1])
            m[b, o:] = m_b
            plus[b, o:, o:] = plus_b
            minus[b, o:, o:] = 0.5 * (diag - cross)
            k[b, o:q, o:] = 0.5 * ((m_b[:, None] - m_b) * diag
                                   - (m_b[:, None] + m_b) * cross)
            k[b, q:, o:] = -plus_b[h:, :h] * m_b
        out.append((lo, m, -2.0 * m.min(axis=1), plus, minus, k))
    return out


def channel_ladder(noise, n):
    """The channel for N particles built by one `isinstance` branch per noise
    model, as `qcore.channel_blocks` did before each model built its own."""
    if isinstance(noise, NoiseFree):
        zero = np.zeros(1, dtype=int)
        return Channel(n, [], zero, zero, np.ones((1, n + 1)))
    if isinstance(noise, Loss):
        l0, l1, table = qcore._loss_table(n, noise.eta)
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


def asymptote_ladder(noise, kind, prior_width):
    """The closed-form limit of a `kind` curve by one branch per noise model,
    as the CLI chose it before each model named its own; raises at eta = 0,
    where the dephasing and loss limits are undefined."""
    if prior_width is not None and not prior_width > 0.0:
        raise ValueError(f"prior width delta0={prior_width} must be positive")
    if noise in (NoiseFree(), LocalDephasing(1.0), Loss(1.0),
                 CollectiveDephasing(0.0)):
        return asymptotics.HeisenbergCR() if kind == "cr" \
            else asymptotics.BayesPi()
    if isinstance(noise, LocalDephasing):
        return asymptotics.DephasingLimit(noise.eta)
    if isinstance(noise, Loss):
        return asymptotics.LossLimit(noise.eta)
    if isinstance(noise, CollectiveDephasing):
        width = prior_width if (kind == "bayes" and prior_width is not None) else math.inf
        return asymptotics.CollectiveLimit(noise.gamma, width)
    raise ValueError(f"unsupported noise model {noise!r}")
