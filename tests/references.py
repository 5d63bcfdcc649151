"""The two test-side references that check the engine through the forward map
`qcore.channel_output`."""

import numpy as np

from phaselim.qcore import EIG_SUPPORT_RTOL, Loss, channel_output


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
