"""The two test-side references that check the engine through the forward map
`qcore.channel_output`."""

import numpy as np

from phaselim.qcore import Loss, _sld_kernel, channel_output


def block_sld(sigma, m):
    """SLD of one output block: returns (drho, L, F_b), where drho = i dm o sigma
    is the phase derivative i[H, sigma] and L solves drho = (sigma L + L sigma)/2
    on sigma's numerical support.  The derivative is rotated into sigma's
    eigenbasis and handed to the library's SLD kernel."""
    drho = 1j * (m[:, None] - m[None, :]) * sigma
    lam, vec = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    f, lt = _sld_kernel(lam, vec.conj().T @ (-1j * drho) @ vec)
    return drho, 1j * (vec @ lt @ vec.conj().T), f


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
