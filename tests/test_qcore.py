"""States, channels and the forward map `channel_output`, SLD/QFI: examples
pinned by hand or by brute-force oracles, plus the structural invariants
(trace, positivity, semigroup, residuals, bounds, monotonicity)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, xlogy

from phaselim import oracles, qcore
from phaselim.bayes import covariant_m_matrix
from phaselim.qcore import (Channel, CollectiveDephasing, LocalDephasing, Loss,
                            NoiseFree, SymmetricPureState, channel_blocks,
                            channel_output, collective_weight,
                            compose_collective, fidelity_qfi_check, m_grid,
                            noon_state, product_plus_state, resample_state,
                            sine_profile_state, state_qfi, _loss_table)
from phaselim.qcore import (ChannelBlock, _channel_qfi, _fold,
                            _phase_shift, _unfold, _sector_coordinates)
from phaselim.qfi_opt import maximize_qfi_over_states
from references import (block_sld, channel_ladder, expm_loss_components, loss_qfi,
                        sector_stacks)


def plus_state() -> SymmetricPureState:
    return SymmetricPureState(1, [1 / math.sqrt(2)] * 2)


def _loss_amplitude(n, l0, l1, eta):
    """Reference damping amplitudes of one loss pattern, B^i_{l0 l1} =
    sqrt(binom(i,l0) binom(N-i,l1) eta^(N-l0-l1) (1-eta)^(l0+l1)) for
    i = l0..N-l1, in log space: the per-pattern builder the table replaced."""
    ns = np.arange(l0, n - l1 + 1)
    expo = 0.0
    if n - l0 - l1 > 0:
        expo += (n - l0 - l1) * (math.log(eta) if eta > 0.0 else -math.inf)
    if l0 + l1 > 0:
        expo += (l0 + l1) * (math.log1p(-eta) if eta < 1.0 else -math.inf)
    if expo == -math.inf:
        return np.zeros(len(ns))
    lg = gammaln(np.arange(n + 2, dtype=float))
    lb = (lg[ns + 1] - lg[l0 + 1] - lg[ns - l0 + 1]
          + lg[n - ns + 1] - lg[l1 + 1] - lg[n - ns - l1 + 1])
    return np.exp(0.5 * (lb + expo))


class TestStates:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            SymmetricPureState(2, [1.0, 1.0, 0.0])
        s = SymmetricPureState(2, [1.0, 1.0, 0.0], normalize=True)
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            SymmetricPureState(2, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_non_finite_amplitudes_rejected(self, bad, normalize):
        # |nan - 1| > 1e-12 is False, so the norm test alone let a NaN
        # through, and normalizing turned an inf entry into a NaN amplitude
        for amps in ([bad, 0.0, 0.0], [0.6, 0.8, 1j * bad]):
            with pytest.raises(ValueError, match="finite"):
                SymmetricPureState(2, amps, normalize=normalize)

    def test_noon_state_amplitudes(self):
        s = noon_state(4)
        assert s.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
        assert s.amplitudes[4] == pytest.approx(1 / math.sqrt(2))
        assert np.all(s.amplitudes[1:4] == 0)

    def test_product_plus_state_is_binomial(self):
        s = product_plus_state(3)
        want = np.sqrt([1, 3, 3, 1]) / 8 ** 0.5
        assert np.allclose(s.amplitudes, want)

    def test_resample_preserves_profile(self):
        s = sine_profile_state(20)
        r = resample_state(s, 41)
        overlap = abs(np.vdot(r.amplitudes, sine_profile_state(41).amplitudes))
        assert overlap > 0.999

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            LocalDephasing(1.3)
        with pytest.raises(ValueError):
            Loss(-0.1)
        for gamma in (-1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma"):
                CollectiveDephasing(gamma)


def _blocks(state, noise):
    """`channel_output` keyed by block."""
    return {blk.key: sigma for blk, sigma in channel_output(state, noise)}


class TestApplyDephasing:
    def test_noiseless_is_pure_top_block(self):
        s = oracles.random_state(5, seed=1)
        rho = _blocks(s, LocalDephasing(1.0))
        assert set(rho) == {("j", 5)}
        want = np.outer(s.amplitudes, s.amplitudes.conj())
        assert np.allclose(rho["j", 5], want, atol=1e-14)

    def test_single_qubit_plus_state(self):
        rho = _blocks(plus_state(), LocalDephasing(0.7))
        want = np.array([[0.5, 0.35], [0.35, 0.5]])
        assert np.allclose(rho["j", 1], want, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_matches_tensor_product_oracle(self, n, eta):
        s = oracles.random_state(n, seed=n * 13 + int(eta * 10))
        assert oracles.dephasing_block_error(s, eta) < 1e-12

    def test_noon_four_particles_against_oracle(self):
        assert oracles.dephasing_block_error(noon_state(4), 0.7) < 1e-12

    def test_oracles_compare_every_block(self, monkeypatch):
        # a block that only one side has counts against the error, as a zero
        # block on the other: one dropped block, or one stray block
        s = oracles.random_state(3, seed=1)
        for noise_error in (oracles.dephasing_block_error, oracles.loss_mixture_error):
            for edit in (lambda out: out[1:],
                         lambda out: out + [(ChannelBlock(("stray",), 0, m_grid(0),
                                                          np.ones((1, 1))), np.eye(1))]):
                with monkeypatch.context() as mp:
                    mp.setattr(oracles, "channel_output",
                               lambda state, noise: edit(channel_output(state, noise)))
                    assert noise_error(s, 0.7) > 0.01

    @pytest.mark.parametrize("n", [2, 5, 30, 90, 150])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_is_a_density_operator(self, n, eta):
        # Hermitian to 1e-12, trace 1 to 1e-10, no eigenvalue below -1e-10
        s = oracles.random_state(n, seed=n + int(10 * eta))
        rho = _blocks(s, LocalDephasing(eta))
        assert max(np.max(np.abs(b - b.conj().T)) for b in rho.values()) <= 1e-12
        assert sum(np.trace(b).real for b in rho.values()) == pytest.approx(1.0, abs=1e-10)
        assert min(np.linalg.eigvalsh(b).min() for b in rho.values()) >= -1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            channel_output(plus_state(), LocalDephasing(1.5))


class TestApplyLoss:
    def test_lossless_single_component(self):
        s = oracles.random_state(3, seed=5)
        mix = _blocks(s, Loss(1.0))
        assert set(mix) == {(0, 0)}
        assert np.trace(mix[0, 0]).real == pytest.approx(1.0)
        assert np.allclose(mix[0, 0], np.outer(s.amplitudes, s.amplitudes.conj()))

    def test_single_photon_transmission(self):
        s = SymmetricPureState(1, [0.0, 1.0])  # photon in the first arm
        weights = {key: np.trace(b).real for key, b in _blocks(s, Loss(0.7)).items()}
        assert weights == pytest.approx({(0, 0): 0.7, (0, 1): 0.0, (1, 0): 0.3})

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_matches_beam_splitter_dilation(self, n, eta):
        s = oracles.random_state(n, seed=2 * n + int(eta * 10))
        assert oracles.loss_mixture_error(s, eta) < 1e-10

    def test_noon_two_particles_against_dilation(self):
        assert oracles.loss_mixture_error(noon_state(2), 0.7) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_dilation_matches_expm(self, n, eta):
        # the oracle exponentiates the beam-splitter generator from the
        # eigenpairs of iG; every branch sqrt(w) psi, over the union of the
        # patterns, matches the same dilation built with scipy's expm
        s = oracles.random_state(n, seed=3 * n + int(10 * eta))
        got = {key: math.sqrt(w) * amps
               for key, (w, amps) in oracles.brute_loss_components(s, eta).items()}
        want = expm_loss_components(s, eta)
        for key in set(got) | set(want):
            diff = got.get(key, 0.0) - want.get(key, 0.0)
            assert np.max(np.abs(diff), initial=0.0) <= 1e-13, key

    @pytest.mark.parametrize("n", [1, 4, 40])
    @pytest.mark.parametrize("eta", [0.0, 0.4, 0.9])
    def test_weights_normalized_components_unit(self, n, eta):
        # the weights p = tr sigma add to one, and every branch is pure:
        # |sigma|_F = p, the normalized amplitudes have unit norm
        s = oracles.random_state(n, seed=n)
        mix = _blocks(s, Loss(eta))
        weights = {key: np.trace(b).real for key, b in mix.items()}
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-10)
        for key, b in mix.items():
            if weights[key] > 0.0:
                assert np.linalg.norm(b) / weights[key] == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            channel_output(plus_state(), Loss(-0.2))


class TestCollectiveDephasing:
    def test_zero_strength_identity(self):
        channel = channel_blocks(LocalDephasing(0.6), 4)
        assert compose_collective(channel, 0.0) is channel
        s = oracles.random_state(4, seed=9)
        out = _blocks(s, CollectiveDephasing(0.0))
        assert np.array_equal(out["j", 4], np.outer(s.amplitudes, s.amplitudes.conj()))

    def test_single_qubit_damping_factor(self):
        out = _blocks(plus_state(), CollectiveDephasing(0.8))
        assert out["j", 1][0, 1] == pytest.approx(0.5 * math.exp(-0.4))

    def test_gaussian_average_quadrature(self):
        # the damping factor is the Gaussian average of the phase orbit
        gamma = 0.35
        s = oracles.random_state(3, seed=4)
        out = _blocks(s, CollectiveDephasing(gamma))
        thetas = np.linspace(-12, 12, 20001)
        q = np.exp(-thetas ** 2 / (2 * gamma)) / math.sqrt(2 * math.pi * gamma)
        m = np.arange(-3, 4, 2) / 2.0
        block = np.outer(s.amplitudes, s.amplitudes.conj())
        avg = np.zeros_like(block)
        for theta, w in zip(thetas, q):
            ph = np.exp(1j * m * theta)
            avg += w * block * np.outer(ph, ph.conj())
        avg *= thetas[1] - thetas[0]
        assert np.max(np.abs(avg - out["j", 3])) < 1e-7

    def test_noon_block_scaling(self):
        n, gamma = 5, 0.2
        out = _blocks(noon_state(n), CollectiveDephasing(gamma))
        assert out["j", n][0, n] == pytest.approx(
            0.5 * math.exp(-gamma * n * n / 2.0))

    @pytest.mark.parametrize("g1,g2", [(0.1, 0.25), (0.0, 0.4), (0.7, 0.7)])
    def test_semigroup_property(self, g1, g2):
        channel = channel_blocks(LocalDephasing(0.5), 6)
        two_step = compose_collective(compose_collective(channel, g1), g2)
        one_step = compose_collective(channel, g1 + g2)
        assert len(two_step.blocks) == len(one_step.blocks) == len(channel.blocks)
        for a, b in zip(two_step.blocks, one_step.blocks):
            assert a.key == b.key
            assert np.max(np.abs(a.weight - b.weight)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            channel_output(plus_state(), CollectiveDephasing(-0.1))

    @pytest.mark.parametrize("noise", [NoiseFree(), Loss(0.6)])
    def test_compose_rejects_negative_gamma(self, noise):
        # a negative strength makes the kick exp(+|gamma| k^2 / 2) > 1: the
        # composed noise-free channel is not PSD and the uniform state at
        # N = 6 would get F = 197 > N^2; NaN or inf puts NaN on the kick's
        # diagonal (inf * 0)
        for gamma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma"):
                compose_collective(channel_blocks(noise, 6), gamma)


class TestGeneratorCommutator:
    """The phase orbit U sigma U^dag that `fidelity_qfi_check` differentiates
    (`qcore._phase_shift`): its derivative at phi = 0 is i[H, sigma], so entry
    (m, m') of a block becomes i (m - m') sigma_(m, m')."""

    @staticmethod
    def derivative(sigma, m, delta=1e-6):
        return (_phase_shift(sigma, m, delta) - _phase_shift(sigma, m, -delta)) / (2 * delta)

    def test_diagonal_state_is_stationary(self):
        # the orbit of a diagonal block stays put up to the rounding of
        # e^(i m phi) e^(-i m phi)
        sigma = np.diag([0.2, 0.5, 0.3]).astype(complex)
        for phi in (1e-3, 0.7, math.pi):
            assert np.max(np.abs(_phase_shift(sigma, m_grid(2), phi) - sigma)) <= 1e-15

    def test_single_qubit_entry(self):
        (blk, sigma), = channel_output(plus_state(), NoiseFree())
        drho = self.derivative(sigma, blk.m)
        # entry (m=1/2, m'=-1/2): i * (m - m') * rho = i * 1 * 1/2
        assert drho[1, 0] == pytest.approx(0.5j)
        assert drho[0, 1] == pytest.approx(-0.5j)

    def test_noon_derivative_magnitude(self):
        n = 6
        (blk, sigma), = channel_output(noon_state(n), NoiseFree())
        assert abs(self.derivative(sigma, blk.m)[0, n]) == pytest.approx(n * 0.5)

    def test_result_is_hermitian(self):
        for blk, sigma in channel_output(oracles.random_state(5, seed=8),
                                         LocalDephasing(0.6)):
            drho = self.derivative(sigma, blk.m)
            assert np.max(np.abs(drho - drho.conj().T)) < 1e-14
            dm = blk.m[:, None] - blk.m[None, :]
            assert np.max(np.abs(drho - 1j * dm * sigma)) < 1e-9


class TestSld:
    def test_pure_state_sld_is_twice_derivative(self):
        (blk, rho), = channel_output(oracles.random_state(4, seed=3), NoiseFree())
        drho, ell, _ = block_sld(rho, blk.m)
        # dr = (rho L + L rho)/2 must hold, and on the support L = 2 drho
        recon = 0.5 * (rho @ ell + ell @ rho)
        assert np.max(np.abs(recon - drho)) < 1e-10

    def test_single_qubit_dephased_qfi(self):
        f = sum(block_sld(rho, blk.m)[2]
                for blk, rho in channel_output(plus_state(), LocalDephasing(0.7)))
        assert f == pytest.approx(0.49, abs=1e-12)
        assert state_qfi(plus_state(), LocalDephasing(0.7)) == pytest.approx(0.49, abs=1e-12)

    def test_stationary_state_gives_zero(self):
        dim = 5
        _, ell, _ = block_sld(np.eye(dim) / dim, m_grid(dim - 1))
        assert np.max(np.abs(ell)) == 0.0

    @pytest.mark.parametrize("n,eta", [(3, 0.4), (6, 0.7), (12, 0.9)])
    def test_defining_equation_residual(self, n, eta):
        worst = 0.0
        for blk, b in channel_output(oracles.random_state(n, seed=n),
                                     LocalDephasing(eta)):
            drho, ell, _ = block_sld(b, blk.m)
            recon = 0.5 * (b @ ell + ell @ b)
            worst = max(worst, float(np.max(np.abs(recon - drho))))
        assert worst < 1e-8


class TestQfi:
    def test_noon_saturates_heisenberg(self):
        for n in (1, 3, 8):
            assert state_qfi(noon_state(n), NoiseFree()) == pytest.approx(
                n * n, rel=1e-12)

    def test_product_state_is_linear(self):
        for n in (1, 4, 9):
            assert state_qfi(product_plus_state(n), NoiseFree()) == pytest.approx(
                n, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_bounds_and_monotonicity_in_dephasing(self, n):
        for seed in range(4):
            s = oracles.random_state(n, seed=seed)
            values = []
            for eta in (1.0, 0.8, 0.5, 0.2, 0.0):
                f = state_qfi(s, LocalDephasing(eta))
                assert -1e-10 <= f <= n * n + 1e-9
                values.append(f)
            assert all(values[i] >= values[i + 1] - 1e-10
                       for i in range(len(values) - 1))

    # Loss(eta1 eta2) is Loss(eta2) after Loss(eta1), local dephasing
    # likewise, and collective dephasing Gamma1 then Gamma2 is Gamma1 + Gamma2:
    # the QFI cannot rise under the second, phase-independent channel (data
    # processing), for every input.  The relative tolerance covers rounding,
    # the absolute one the rounding-level F of nearly dephased blocks (seen:
    # at most 4.6e-28 above, on 500 draws with eta1 in [1e-30, 1e-3]); the
    # largest relative change seen was -0.4%, so F never rose
    @settings(max_examples=150, deadline=None, database=None)
    @given(n=st.integers(1, 60), kind=st.sampled_from(["dephasing", "loss", "collective"]),
           first=st.floats(0.0, 1.0), second=st.floats(0.0, 1.0),
           complex_=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_monotone_under_composition(self, n, kind, first, second, complex_, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(n + 1) + (1j * rng.standard_normal(n + 1) if complex_ else 0)
        s = SymmetricPureState(n, c, normalize=True)
        if kind == "collective":
            before, after = CollectiveDephasing(first), CollectiveDephasing(first + second)
        else:
            family = LocalDephasing if kind == "dephasing" else Loss
            before, after = family(first), family(first * second)
        assert state_qfi(s, after) <= state_qfi(s, before) * (1.0 + 1e-12) + 1e-20

    @pytest.mark.parametrize("n,eta", [(2, 0.3), (3, 0.7), (4, 0.55)])
    def test_matches_full_space_computation(self, n, eta):
        s = oracles.random_state(n, seed=n + 17)
        block_value = state_qfi(s, LocalDephasing(eta))
        assert block_value == pytest.approx(
            oracles.brute_dephasing_qfi(s, eta), rel=1e-10)

    def test_channel_qfi_is_real(self):
        # the kernels run on real arrays: F is a Python float, A float64
        n = 6
        c = sine_profile_state(n).amplitudes.real
        for noise in (NoiseFree(), LocalDephasing(0.7), Loss(0.7),
                      CollectiveDephasing(0.27)):
            a_out = np.zeros((n + 1, n + 1))
            f = _channel_qfi(channel_blocks(noise, n), c, a_out)
            assert type(f) is float and f > 0.0
            assert a_out.dtype == np.float64 and np.any(a_out)


class TestStateQfiEdges:
    """Defined values at the parameter edges eta in {0, 1}, gamma = 0 and
    N = 1, on random real and complex states."""

    @staticmethod
    def states():
        for n in (1, 2, 7, 30, 60):
            for seed in range(3):
                rng = np.random.default_rng(seed)
                c = rng.standard_normal(n + 1)
                yield SymmetricPureState(n, c, normalize=True)
                yield SymmetricPureState(n, c + 1j * rng.standard_normal(n + 1),
                                         normalize=True)

    def test_total_loss_is_exactly_zero(self):
        for s in self.states():
            assert state_qfi(s, Loss(0.0)) == 0.0

    def test_full_dephasing_is_at_rounding_level(self):
        for s in self.states():
            assert abs(state_qfi(s, LocalDephasing(0.0))) <= 1e-20

    def test_full_dephasing_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        for n in range(1, 7):
            for _ in range(5):
                c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
                for amps in (c.real, c):
                    s = SymmetricPureState(n, amps, normalize=True)
                    assert state_qfi(s, LocalDephasing(0.0)) == 0.0

    def test_noiseless_limits_match_noise_free(self):
        for s in self.states():
            f0 = state_qfi(s, NoiseFree())
            assert state_qfi(s, Loss(1.0)) == pytest.approx(f0, rel=1e-14)
            assert state_qfi(s, CollectiveDephasing(0.0)) == pytest.approx(f0, rel=1e-14)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_single_qubit_plus_state_closed_forms(self, eta):
        assert state_qfi(plus_state(), LocalDephasing(eta)) == pytest.approx(
            eta * eta, abs=1e-14)
        assert state_qfi(plus_state(), Loss(eta)) == pytest.approx(eta, abs=1e-14)


class TestQfiLoss:
    def test_lossless_reduces_to_noise_free(self):
        for n in (2, 5):
            assert state_qfi(noon_state(n), Loss(1.0)) == pytest.approx(n * n)

    def test_single_photon_scaling(self):
        s = SymmetricPureState(1, [1 / math.sqrt(2)] * 2)
        assert state_qfi(s, Loss(0.7)) == pytest.approx(0.7, rel=1e-12)

    def test_noon_closed_form(self):
        # N00N under loss keeps only the no-loss branch coherent: F = N^2 eta^N
        for n, eta in ((2, 0.7), (3, 0.5)):
            got = state_qfi(noon_state(n), Loss(eta))
            assert got == pytest.approx(n * n * eta ** n, rel=1e-12)


class TestLossSectorConvention:
    """Loss patterns are treated as orthogonal flagged sectors.  Tracing the
    environment instead would merge patterns with equal total loss that land
    on the same Fock support, which can only lower the QFI; the two agree
    when supports stay disjoint (N00N inputs)."""

    @staticmethod
    def traced_qfi(state, eta):
        n = state.n_particles
        comps = oracles.brute_loss_components(state, eta)
        dim = (n + 1) ** 2
        rho = np.zeros((dim, dim), dtype=complex)
        hgen = np.zeros(dim)
        for (l0, l1), (w, amps) in comps.items():
            vec = np.zeros(dim, dtype=complex)
            for i, nn in enumerate(range(l0, n - l1 + 1)):
                k0, k1 = nn - l0, n - nn - l1
                vec[k0 * (n + 1) + k1] = amps[i]
            rho += w * np.outer(vec, vec.conj())
        for k0 in range(n + 1):
            for k1 in range(n + 1):
                hgen[k0 * (n + 1) + k1] = (k0 - k1) / 2.0
        drho = 1j * (np.diag(hgen) @ rho - rho @ np.diag(hgen))
        lam, vec = np.linalg.eigh(rho)
        d = vec.conj().T @ drho @ vec
        denom = lam[:, None] + lam[None, :]
        mask = denom > 1e-12 * max(lam[-1], 1e-300)
        return float(np.sum(np.where(
            mask, 2.0 * np.abs(d) ** 2 / np.where(mask, denom, 1.0), 0.0)).real)

    def test_flagged_equals_traced_for_noon(self):
        for n, eta in ((2, 0.7), (3, 0.4)):
            flagged = loss_qfi(noon_state(n), eta)
            traced = self.traced_qfi(noon_state(n), eta)
            assert flagged == pytest.approx(traced, rel=1e-10)

    def test_flagged_dominates_traced_generically(self):
        state = oracles.random_state(2, seed=42)
        flagged = loss_qfi(state, 0.7)
        traced = self.traced_qfi(state, 0.7)
        assert flagged >= traced - 1e-12
        # the single-survivor sectors (1,0) and (0,1) overlap on the same
        # Fock support for a generic N=2 state, so the gap is strict
        assert flagged > traced + 1e-6


class TestFidelityQfiCheck:
    def test_noise_free_noon(self):
        n = 5
        got = fidelity_qfi_check(noon_state(n), NoiseFree(), 1e-4)
        assert got == pytest.approx(n * n, rel=1e-4)

    def test_single_qubit_dephased(self):
        got = fidelity_qfi_check(plus_state(), LocalDephasing(0.7), 1e-4)
        assert got == pytest.approx(0.49, rel=1e-4)

    def test_phase_blind_state(self):
        s = SymmetricPureState(2, [0.0, 1.0, 0.0])
        got = fidelity_qfi_check(s, LocalDephasing(0.6), 1e-3)
        assert abs(got) < 1e-8

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            fidelity_qfi_check(plus_state(), NoiseFree(), 0.0)

    @pytest.mark.parametrize("noise", [NoiseFree(), LocalDephasing(0.7),
                                       Loss(0.6), CollectiveDephasing(0.3)])
    def test_agrees_with_sld_qfi(self, noise):
        delta = 1e-3
        for seed in range(3):
            n = 4 + seed * 3
            s = oracles.random_state(n, seed=seed)
            f_sld = state_qfi(s, noise)
            f_fd = fidelity_qfi_check(s, noise, delta)
            tol = max(10.0 * delta ** 2 * n * n * max(f_sld, 1.0), 1e-9)
            assert abs(f_fd - f_sld) <= tol


class TestChannelBlocks:
    def test_block_counts(self):
        assert len(channel_blocks(NoiseFree(), 6)) == 1
        deph = channel_blocks(LocalDephasing(0.5), 6)
        assert {b.key[1] for b in deph.blocks} == {0, 2, 4, 6}
        loss = channel_blocks(Loss(0.5), 3)
        assert len(loss) == 10  # all (l0, l1) with l0 + l1 <= 3

    def test_compose_collective_multiplies_gaussian(self):
        channel = channel_blocks(LocalDephasing(0.6), 4)
        composed = compose_collective(channel, 0.3)
        assert len(composed.blocks) == len(channel.blocks)
        for raw, out in zip(channel.blocks, composed.blocks):
            m = raw.m
            damp = np.exp(-0.3 * (m[:, None] - m[None, :]) ** 2 / 2)
            assert np.allclose(out.weight, raw.weight * damp)

    def test_compose_collective_turns_rows_into_window_blocks(self):
        n, gamma = 5, 0.3
        channel = channel_blocks(Loss(0.6), n)
        composed = compose_collective(channel, gamma)
        assert len(composed.amplitudes) == 0
        assert len(composed) == len(channel)
        for l0, l1, b, out in zip(channel.l0, channel.l1, channel.amplitudes,
                                  composed.blocks):
            idx = np.arange(l0, n - l1 + 1)
            m = idx - (n + l0 - l1) / 2.0
            damp = np.exp(-gamma * (m[:, None] - m[None, :]) ** 2 / 2)
            assert out.key == (l0, l1)
            assert np.array_equal(out.indices, idx)
            assert np.array_equal(out.m, m)
            assert np.array_equal(out.weight, np.outer(b[idx], b[idx]) * damp)

    def test_blocks_read_their_input_window(self):
        # a block is its first input index plus its m grid: every constructor
        # gives a contiguous window whose m grid has unit spacing
        n = 9
        c = np.arange(n + 1.0)
        for channel in (channel_blocks(LocalDephasing(0.44), n),
                        channel_blocks(CollectiveDephasing(0.3), n),
                        compose_collective(channel_blocks(Loss(0.63), n), 0.25)):
            for blk in channel.blocks:
                assert np.array_equal(blk.indices, np.arange(n + 1)[blk.window])
                assert np.array_equal(c[blk.window], c[blk.indices])
                assert np.all(np.diff(blk.m) == 1.0)
                assert blk.weight.shape == (len(blk.m), len(blk.m))
        for blk in channel_blocks(LocalDephasing(0.44), n).blocks:
            assert np.array_equal(blk.m, blk.indices - n / 2.0)

    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("gamma", [0.0, 0.02, 0.27])
    def test_collective_weight_is_the_exponential_bit_for_bit(self, n, gamma):
        # the Toeplitz gather of exp(-gamma k^2 / 2) against (N+1)^2 exponentials
        m = np.arange(-n, n + 1, 2) / 2.0
        dm = m[:, None] - m[None, :]
        assert np.array_equal(collective_weight(n, gamma),
                              np.exp(-gamma * dm * dm / 2.0))
        # compose_collective on dephasing blocks and on loss windows
        k = min(n, 7)
        for raw in (channel_blocks(LocalDephasing(0.7), min(n, 30)),
                    Channel.dense(k, channel_blocks(Loss(0.7), k).dense_blocks())):
            for before, after in zip(raw.blocks, compose_collective(raw, gamma).blocks):
                dm = before.m[:, None] - before.m[None, :]
                assert np.array_equal(after.weight,
                                      before.weight * np.exp(-gamma * dm * dm / 2.0))

    def test_trace_preserving_on_states(self):
        # for every input index, the diagonal weights of the dense blocks plus
        # the squared rank-one amplitudes sum to one; every weight is PSD
        for n in (1, 7, 60):
            for channel in (channel_blocks(NoiseFree(), n),
                            channel_blocks(LocalDephasing(0.44), n),
                            channel_blocks(Loss(0.63), n),
                            channel_blocks(CollectiveDephasing(0.3), n),
                            compose_collective(channel_blocks(Loss(0.63), n), 0.25)):
                diag = np.sum(channel.amplitudes ** 2, axis=0)
                for blk in channel.blocks:
                    diag[blk.indices] += np.diag(blk.weight)
                    lam = np.linalg.eigvalsh(blk.weight)
                    assert lam[0] >= -1e-12 * max(lam[-1], 1.0)
                assert np.max(np.abs(diag - 1.0)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    @pytest.mark.parametrize("noise", [
        NoiseFree(), LocalDephasing(0.0), LocalDephasing(0.7), LocalDephasing(1.0),
        Loss(0.0), Loss(0.7), Loss(1.0), CollectiveDephasing(0.0),
        CollectiveDephasing(0.02)], ids=repr)
    def test_each_model_builds_the_ladder_channel(self, noise, n):
        # every block, row and weight bit for bit as the per-noise ladder
        got, want = channel_blocks(noise, n), channel_ladder(noise, n)
        assert got.n == want.n and len(got.blocks) == len(want.blocks)
        for a, b in zip(got.blocks, want.blocks):
            assert a.key == b.key and a.start == b.start
            assert np.array_equal(a.m, b.m) and np.array_equal(a.weight, b.weight)
        for field in ("l0", "l1", "amplitudes"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize("noise", [object(), None, "dephasing", 0.7])
    def test_rejects_what_is_not_a_noise_model(self, noise):
        with pytest.raises(ValueError, match="unsupported noise model"):
            channel_blocks(noise, 3)


def _symmetric_channels(n):
    """Every noise model, alone and composed with a prior (collective
    dephasing 0.25), at its edges and inside."""
    noises = [NoiseFree(), LocalDephasing(0.0), LocalDephasing(0.3),
              LocalDephasing(0.7), LocalDephasing(1.0), Loss(0.0), Loss(0.7),
              Loss(1.0), CollectiveDephasing(0.0), CollectiveDephasing(0.27)]
    for noise in noises:
        yield noise, 0.0, channel_blocks(noise, n)
        yield noise, 0.25, compose_collective(channel_blocks(noise, n), 0.25)


class TestDiagonalUnitaryCovariance:
    """Every channel's Kraus operators are diagonal in n, so for a diagonal
    unitary D, F(Dc) = F(c) and A(Dc) = D A(c) D^H: the optimizer runs on
    |c| and returns it, and `state_qfi` evaluates |c|.  The kernels take
    real arrays, so they are checked under signs D = +-1; complex states go
    through `state_qfi`, against references that work in complex
    arithmetic."""

    # The absolute floor is the rounding-level F of nearly dephased blocks
    # (TestRankOneKernel::test_duality_and_qfi_identity in test_qfi_opt.py).
    # Under +-1 signs A is covariant to rounding (seen: <= 6e-17 of max|A|)
    @settings(max_examples=150, deadline=None, database=None)
    @given(n=st.integers(1, 40), kind=st.sampled_from(
               ["none", "dephasing", "loss", "collective"]),
           strength=st.floats(0.0, 1.0), prior=st.sampled_from([0.0, 0.25]),
           seed=st.integers(0, 2 ** 16))
    def test_qfi_and_operator_are_covariant(self, n, kind, strength, prior, seed):
        noise = {"none": NoiseFree(), "dephasing": LocalDephasing(strength),
                 "loss": Loss(strength),
                 "collective": CollectiveDephasing(strength)}[kind]
        channel = compose_collective(channel_blocks(noise, n), prior)
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(n + 1)
        d = rng.choice([-1.0, 1.0], n + 1)
        c /= np.linalg.norm(c)
        a, a_d = (np.zeros((n + 1, n + 1)) for _ in range(2))
        f = _channel_qfi(channel, c, a)
        f_d = _channel_qfi(channel, d * c, a_d)
        floor = 1e-20 if kind == "dephasing" else 1e-250
        assert f_d == pytest.approx(f, rel=1e-12, abs=floor)
        a_ref = d[:, None] * a * d
        assert np.max(np.abs(a_d - a_ref)) <= 1e-11 * np.max(np.abs(a)) + floor

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
    def test_complex_states_under_dephasing(self, n, eta):
        # against the full 2^N space; eta = 1 is no noise
        for seed in range(3):
            s = oracles.random_state(n, seed=seed)
            assert state_qfi(s, LocalDephasing(eta)) == pytest.approx(
                oracles.brute_dephasing_qfi(s, eta), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
    def test_complex_states_under_loss(self, n, eta):
        # 4 sum_b p_b Var_b(m) over the pure branches of the explicit
        # beam-splitter dilation
        for seed in range(3):
            s = oracles.random_state(n, seed=seed)
            want = 0.0
            for (l0, l1), (p, amps) in oracles.brute_loss_components(s, eta).items():
                prob, ns = np.abs(amps) ** 2, np.arange(l0, n - l1 + 1)
                mc = ns - prob @ ns
                want += 4.0 * p * (prob @ (mc * mc))
            assert state_qfi(s, Loss(eta)) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [7, 12])
    @pytest.mark.parametrize("noise", [NoiseFree(), LocalDephasing(0.7),
                                       Loss(0.6), CollectiveDephasing(0.3)])
    def test_complex_states_against_fidelity(self, n, noise):
        # beyond the oracles' reach, the finite-difference fidelity estimate
        # at the tolerance of TestFidelityQfiCheck
        delta = 1e-3
        for seed in range(2):
            s = oracles.random_state(n, seed=seed)
            f_sld = state_qfi(s, noise)
            tol = max(10.0 * delta ** 2 * n * n * max(f_sld, 1.0), 1e-9)
            assert abs(fidelity_qfi_check(s, noise, delta) - f_sld) <= tol


class TestArmSwapSymmetry:
    """Every channel commutes with the arm swap J: n -> N - n (m -> -m),
    which the half-size sector step relies on."""

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 61, 120])
    def test_centred_blocks_are_mirror_symmetric(self, n):
        for noise, prior, channel in _symmetric_channels(n):
            for blk in channel.blocks:
                if 2 * blk.start + len(blk.m) - 1 != n:
                    continue
                w = blk.weight
                # W(m, m') = W(-m, -m'); seen <= 1.6e-15 (dephasing, N = 120)
                assert np.max(np.abs(w - w[::-1, ::-1])) <= 1e-14, (noise, prior, blk.key)
                assert np.array_equal(blk.m, -blk.m[::-1])

    @pytest.mark.parametrize("n", [1, 2, 5, 7, 25, 30, 60, 200])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_loss_patterns_mirror(self, n, eta):
        # row (l0, l1) is row (l1, l0) read backwards, bit for bit, and so is
        # the dense block of a loss pattern composed with a prior (N <= 30),
        # so `Channel.mirror_half` may keep one of each pair for both
        channel = channel_blocks(Loss(eta), n)
        rows = {(a, b): r for r, (a, b) in enumerate(zip(channel.l0, channel.l1))}
        for (l0, l1), r in rows.items():
            assert np.array_equal(channel.amplitudes[r],
                                  channel.amplitudes[rows[l1, l0]][::-1])
        if n > 30:
            return
        blocks = {blk.key: blk for blk in compose_collective(channel, 0.25).blocks}
        for (l0, l1), blk in blocks.items():
            mate = blocks[l1, l0]
            assert mate.start == n - l0 - (len(blk.m) - 1)
            assert np.array_equal(mate.weight, blk.weight[::-1, ::-1])
            assert np.array_equal(mate.m, -blk.m[::-1])

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_mirror_half_keeps_one_of_each_pair(self, n):
        # rows with l0 < l1 and off-centre blocks nearer the start stand for
        # their mirrors at twice the weight; self-mirrored ones stay as they are
        for noise, prior, channel in _symmetric_channels(n):
            half = channel.mirror_half
            assert np.array_equal(half.l0, channel.l0[channel.l0 <= channel.l1])
            assert np.array_equal(half.l1, channel.l1[channel.l0 <= channel.l1])
            rows = {(a, b): r for r, (a, b) in enumerate(zip(channel.l0, channel.l1))}
            for r, key in enumerate(zip(half.l0, half.l1)):
                twice = 2.0 if key[0] < key[1] else 1.0
                assert np.allclose(half.damping[r], twice * channel.damping[rows[key]],
                                   rtol=1e-15, atol=0), (noise, prior, key)
            blocks = {(blk.start, len(blk.m)): blk for blk in channel.blocks}
            centred = [blk for blk in channel.blocks if 2 * blk.start + len(blk.m) - 1 == n]
            assert len(half.blocks) == len(centred) + (len(channel.blocks) - len(centred)) // 2
            for blk in half.blocks:
                mirror = n + 1 - blk.start - len(blk.m)
                assert blk.start <= mirror
                twice = 2.0 if blk.start < mirror else 1.0
                assert np.array_equal(blk.weight,
                                      twice * blocks[blk.start, len(blk.m)].weight)

    def test_mirror_half_rejects_a_channel_that_does_not_commute_with_j(self):
        n = 6
        loss = channel_blocks(Loss(0.7), n)
        keep = (loss.l0 != 1) | (loss.l1 != 0)
        unpaired = Channel(n, [], loss.l0[keep], loss.l1[keep], loss.amplitudes[keep])
        bent = Channel(n, [], loss.l0, loss.l1, loss.amplitudes.copy())
        bent.amplitudes[(loss.l0 == 1) & (loss.l1 == 0), 1] *= 1.5
        prior = compose_collective(loss, 0.25)
        lopsided = Channel.dense(n, [b for b in prior.blocks if b.key != (1, 0)])
        blk = max(prior.blocks, key=lambda b: len(b.m))
        skewed = ChannelBlock(blk.key, blk.start, blk.m, blk.weight.copy())
        skewed.weight[0, 1] = skewed.weight[1, 0] = 0.5 * blk.weight[0, 1]
        assert loss.mirror_half and prior.mirror_half
        for channel in (unpaired, bent, lopsided, Channel.dense(n, [skewed])):
            with pytest.raises(ValueError, match="mirror under"):
                channel.mirror_half
            with pytest.raises(ValueError, match="mirror under"):
                maximize_qfi_over_states(n, channel)

    def test_parity_split(self):
        n = 64
        # every centred block of two or more entries is folded, once; the
        # one-entry block j = 0 of even N adds nothing
        # (test_one_entry_block_adds_nothing).  A stack starts at the
        # widest window of its class
        channel = channel_blocks(LocalDephasing(0.7), n)
        folded = channel.parity_split
        assert any(len(b.m) == 1 for b in channel.blocks)
        classes = qcore._size_classes(channel.blocks, lambda b: len(b.m) - len(b.m) // 2)
        assert [stack.lo for stack in folded] == [min(b.start for b in g) for g in classes]
        assert sorted(b.start for g in classes for b in g) == \
            sorted(b.start for b in channel.blocks if len(b.m) > 1)
        # every channel is split, except those with rank-one rows and loss
        # with a prior, whose off-centre loss patterns keep it in the full
        # space (at eta = 1 only the centred pattern (0, 0) is left)
        for noise, prior, ch in _symmetric_channels(n):
            off = any(2 * b.start + len(b.m) - 1 != n for b in ch.blocks)
            assert off == (isinstance(noise, Loss) and noise.eta < 1.0 and prior > 0)
            assert (ch.parity_split is None) == (off or len(ch.amplitudes) > 0), \
                (noise, prior)
        # at every size, down to one centred block of two entries (N = 1)
        for small_n in (1, 2):
            assert channel_blocks(LocalDephasing(0.7), small_n).parity_split
        # one narrow centred block is folded; one that is not symmetric
        # fails `mirror_half`'s test, with its ValueError; mixed with
        # rank-one rows, a channel has no split
        small = min((b for b in channel.blocks if len(b.m) > 1), key=lambda b: len(b.m))
        assert len(Channel.dense(n, [small]).parity_split) == 1
        blk = max(channel.blocks, key=lambda b: len(b.m))
        assert Channel.dense(n, [blk]).parity_split is not None
        skewed = ChannelBlock(blk.key, blk.start, blk.m, blk.weight.copy())
        skewed.weight[0, 1] = skewed.weight[1, 0] = 0.5 * blk.weight[0, 1]
        with pytest.raises(ValueError, match="mirror under"):
            Channel.dense(n, [skewed]).parity_split
        rows = channel_blocks(NoiseFree(), n)
        mixed = Channel(n, [blk], rows.l0, rows.l1, rows.amplitudes)
        assert mixed.parity_split is None
        off = compose_collective(channel_blocks(Loss(0.7), n), 0.25)
        lopsided = Channel.dense(n, [b for b in off.blocks if b.key != (1, 0)])
        assert lopsided.parity_split is None

    @pytest.mark.parametrize("noise, n, prior", [
        *((LocalDephasing(0.7), n, 0.0) for n in (1, 2, 3, 7, 50, 64, 121)),
        (LocalDephasing(0.0), 9, 0.0), (LocalDephasing(1.0), 9, 0.0),
        (CollectiveDephasing(0.02), 200, 0.25), (NoiseFree(), 33, 0.04),
        (LocalDephasing(0.7), 40, 0.25)])
    def test_sector_stacks_are_the_block_folds(self, noise, n, prior):
        # the stacked fold of each size class equals every block folded alone
        # and zero-extended at the front, bit for bit
        channel = compose_collective(channel_blocks(noise, n), prior)
        want = sector_stacks(channel)
        assert want is not None
        got = channel.parity_split
        assert len(got) == len(want)
        for st, (lo, m, span, plus, minus, k) in zip(got, want):
            assert st.lo == lo
            for name, ref in (("m", m), ("span", span), ("plus", plus),
                              ("minus", minus), ("k", k)):
                assert np.array_equal(getattr(st, name), ref), name

    def test_one_skewed_block_in_a_class(self):
        # the mirror test runs once per class, on its stack: one skewed block
        # among several fails it, with `mirror_half`'s ValueError
        n = 64
        channel = channel_blocks(LocalDephasing(0.7), n)
        group = max(qcore._size_classes(channel.blocks,
                                        lambda b: len(b.m) - len(b.m) // 2), key=len)
        assert len(group) > 2
        blk = group[len(group) // 2]
        skewed = ChannelBlock(blk.key, blk.start, blk.m, blk.weight.copy())
        skewed.weight[0, 1] = skewed.weight[1, 0] = 0.5 * blk.weight[0, 1]
        assert np.max(np.abs(skewed.weight - skewed.weight[::-1, ::-1])) > 1e-12
        blocks = [skewed if b is blk else b for b in channel.blocks]
        assert Channel.dense(n, list(channel.blocks)).parity_split is not None
        for split in (lambda ch: ch.parity_split, sector_stacks):
            with pytest.raises(ValueError, match="mirror under"):
                split(Channel.dense(n, blocks))

    @pytest.mark.parametrize("m", [0.0, 2.5])
    def test_one_entry_block_adds_nothing(self, m):
        # a single m: the derivative (m_i - m_j) sigma is zero, so the full
        # step adds exactly 0.0 to F and to A, which lets the split skip it
        n = 6
        rng = np.random.default_rng(3)
        c = rng.standard_normal(n + 1)
        c /= np.linalg.norm(c)
        blk = ChannelBlock(("j", 0), n // 2, np.array([m]), np.array([[0.37]]))
        a_out = np.zeros((n + 1, n + 1))
        assert _channel_qfi(Channel.dense(n, [blk]), c, a_out) == 0.0
        assert not np.any(a_out)

    @pytest.mark.parametrize("d", [1, 2, 7, 8])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_fold_is_the_sector_basis(self, d, stacked):
        # Q a Q^T in the basis (e_i +- e_(d-1-i))/sqrt(2) (+ e_(d//2)), for one
        # matrix or a stack of three, and the coordinates of an even vector,
        # which unfold to it
        rng = np.random.default_rng(d)
        h = d // 2
        q = np.zeros((d, d))
        for i in range(h):
            q[i, i] = q[i, d - 1 - i] = math.sqrt(0.5)
            q[d - h + i, i], q[d - h + i, d - 1 - i] = math.sqrt(0.5), -math.sqrt(0.5)
        if d % 2:
            q[h, h] = 1.0
        x = rng.standard_normal((3, d, d) if stacked else (d, d))
        a = x + x[..., ::-1, ::-1]              # commutes with J
        a_p, a_m = _fold(a)
        ref = q @ a @ q.T
        assert np.allclose(a_p, ref[..., :d - h, :d - h], rtol=0, atol=1e-14)
        assert np.allclose(a_m, ref[..., d - h:, d - h:], rtol=0, atol=1e-14)
        assert np.allclose(ref[..., :d - h, d - h:], 0.0, atol=1e-14)
        if stacked:
            # a stack folds as its matrices one at a time, bit for bit
            for b in range(len(a)):
                one_p, one_m = _fold(a[b])
                assert np.array_equal(a_p[b], one_p) and np.array_equal(a_m[b], one_m)
            x = x[0]
        c = x[0] + x[0][::-1]
        ch = _sector_coordinates(c)
        assert np.allclose(ch, (q @ c)[:d - h], rtol=0, atol=1e-14)
        assert np.array_equal(_unfold(ch, d), _unfold(ch, d)[::-1])
        assert np.allclose(_unfold(ch, d), c, rtol=0, atol=1e-14)


class TestLossTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 25, 120])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_matches_per_pattern_reference(self, n, eta):
        l0s, l1s, table = _loss_table(n, eta)
        assert table.shape == ((n + 1) * (n + 2) // 2, n + 1)
        keys = [(l0, l1) for l0 in range(n + 1) for l1 in range(n + 1 - l0)]
        assert list(zip(l0s.tolist(), l1s.tolist())) == keys
        for row, (l0, l1) in zip(table, keys):
            np.testing.assert_allclose(row[l0:n - l1 + 1],
                                       _loss_amplitude(n, l0, l1, eta),
                                       rtol=1e-13, atol=0.0)
            assert not np.any(row[:l0]) and not np.any(row[n - l1 + 1:])

    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_squares_match_exact_rationals(self, eta):
        # B^2 against binom(i,l0) binom(N-i,l1) eta^a (1-eta)^b in exact
        # rational arithmetic, on every 53rd pattern at N = 120
        n = 120
        l0s, l1s, table = _loss_table(n, eta)
        q = Fraction(eta)
        for s in range(0, len(table), 53):
            l0, l1 = int(l0s[s]), int(l1s[s])
            for i in range(l0, n - l1 + 1):
                exact = (math.comb(i, l0) * math.comb(n - i, l1)
                         * q ** (n - l0 - l1) * (1 - q) ** (l0 + l1))
                assert table[s, i] ** 2 == pytest.approx(float(exact), rel=5e-13)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_bits_of_the_scipy_expression(self, eta):
        # the table as built with scipy.special's gammaln and xlogy; N = 200
        # alone meets every log term of N <= 200, the small N every edge
        for n in [*range(1, 41), 63, 64, 99, 100, 150, 199, 200]:
            l0, l1 = np.triu_indices(n + 1)
            l1 = l1 - l0
            lg = gammaln(np.arange(n + 2, dtype=float))
            lbin = np.full((n + 1, n + 1), -np.inf)
            i, k = np.tril_indices(n + 1)
            lbin[k, i] = lg[i + 1] - lg[k + 1] - lg[i - k + 1]
            expo = xlogy(n - l0 - l1, eta) + xlogy(l0 + l1, 1.0 - eta)
            want = np.exp(0.5 * (lbin[l0] + lbin[l1, ::-1] + expo[:, None]))
            assert np.array_equal(_loss_table(n, eta)[2], want)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_trace_preserving_at_n200(self, eta):
        # sum over loss patterns of B[s, i]^2 is one for every input index i
        _, _, table = _loss_table(200, eta)
        assert np.all(np.isfinite(table))
        assert np.max(np.abs(np.sum(table ** 2, axis=0) - 1.0)) < 1e-12

    def test_exact_at_the_edges(self):
        n = 9
        l0s, l1s, table = _loss_table(n, 1.0)
        assert np.array_equal(table[0], np.ones(n + 1))   # (0, 0): no loss
        assert not np.any(table[1:])
        l0s, l1s, table = _loss_table(n, 0.0)
        for row, l0, l1 in zip(table, l0s, l1s):
            expected = np.zeros(n + 1)
            if l0 + l1 == n:                                # everything lost
                expected[l0] = 1.0
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_channel_blocks_are_table_rows(self, n):
        eta = 0.6
        channel = channel_blocks(Loss(eta), n)
        keys = [(l0, l1) for l0 in range(n + 1) for l1 in range(n + 1 - l0)]
        assert list(zip(channel.l0.tolist(), channel.l1.tolist())) == keys
        assert channel.blocks == []
        _, _, table = _loss_table(n, eta)
        assert np.array_equal(channel.amplitudes, table)
        for blk, row in zip(channel.dense_blocks(), table):
            l0, l1 = blk.key
            assert np.array_equal(blk.indices, np.arange(l0, n - l1 + 1))
            assert np.array_equal(blk.m, blk.indices - (n + l0 - l1) / 2.0)
            win = row[l0:n - l1 + 1]
            assert np.array_equal(blk.weight, np.outer(win, win))

    def test_zero_weight_patterns_dropped(self):
        channel = channel_blocks(Loss(1.0), 4)
        assert list(zip(channel.l0, channel.l1)) == [(0, 0)]
        assert np.array_equal(channel.amplitudes, np.ones((1, 5)))
        assert len(channel_blocks(Loss(0.0), 4)) == 5

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 61])
    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    def test_m_matrix_offdiagonal_matches_pattern_sum(self, n, eta):
        off = np.zeros(n)
        for l0 in range(n + 1):
            for l1 in range(n + 1 - l0):
                b = _loss_amplitude(n, l0, l1, eta)
                off[l0:n - l1] += b[:-1] * b[1:]
        got = np.diagonal(covariant_m_matrix(n, Loss(eta)), offset=1)
        assert np.max(np.abs(got - off)) < 1e-13
