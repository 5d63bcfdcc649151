"""States, channels, SLD/QFI: examples pinned by hand or by brute-force
oracles, plus the structural invariants (trace, positivity, semigroup,
residuals, bounds)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from phaselim import oracles
from phaselim.bayes import covariant_m_matrix
from phaselim.qcore import (AngularBlockMatrix, Channel, CollectiveDephasing,
                            LocalDephasing, Loss, NoiseFree,
                            SymmetricPureState, apply_collective_dephasing,
                            apply_dephasing, apply_loss, channel_blocks,
                            collective_weight, compose_collective,
                            fidelity_qfi_check,
                            generator_commutator, lift_pure, noon_state,
                            product_plus_state, qfi, qfi_loss, resample_state,
                            sine_profile_state, sld, state_qfi, _loss_table)
from phaselim.qcore import (_SECTOR_MIN_DIM, ChannelBlock, _fold, _unfold,
                            _sector_coordinates)


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
        with pytest.raises(ValueError):
            CollectiveDephasing(-1e-3)


class TestApplyDephasing:
    def test_noiseless_is_pure_top_block(self):
        s = oracles.random_state(5, seed=1)
        rho = apply_dephasing(s, 1.0)
        assert set(rho.blocks) == {5}
        want = np.outer(s.amplitudes, s.amplitudes.conj())
        assert np.allclose(rho.blocks[5], want, atol=1e-14)

    def test_single_qubit_plus_state(self):
        rho = apply_dephasing(plus_state(), 0.7)
        want = np.array([[0.5, 0.35], [0.35, 0.5]])
        assert np.allclose(rho.blocks[1], want, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_matches_tensor_product_oracle(self, n, eta):
        s = oracles.random_state(n, seed=n * 13 + int(eta * 10))
        assert oracles.dephasing_block_error(s, eta) < 1e-12

    def test_noon_four_particles_against_oracle(self):
        assert oracles.dephasing_block_error(noon_state(4), 0.7) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 30, 90, 150])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_is_a_density_operator(self, n, eta):
        s = oracles.random_state(n, seed=n + int(10 * eta))
        rho = apply_dephasing(s, eta)
        rho.validate_state()

    def test_domain_error(self):
        with pytest.raises(ValueError):
            apply_dephasing(plus_state(), 1.5)


class TestApplyLoss:
    def test_lossless_single_component(self):
        s = oracles.random_state(3, seed=5)
        mix = apply_loss(s, 1.0)
        assert len(mix.components) == 1
        comp = mix.components[0]
        assert (comp.l0, comp.l1) == (0, 0)
        assert comp.weight == pytest.approx(1.0)
        assert np.allclose(comp.amplitudes, s.amplitudes)

    def test_single_photon_transmission(self):
        s = SymmetricPureState(1, [0.0, 1.0])  # photon in the first arm
        mix = apply_loss(s, 0.7)
        weights = {(c.l0, c.l1): c.weight for c in mix.components}
        assert weights == pytest.approx({(0, 0): 0.7, (1, 0): 0.3})

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_matches_beam_splitter_dilation(self, n, eta):
        s = oracles.random_state(n, seed=2 * n + int(eta * 10))
        assert oracles.loss_mixture_error(s, eta) < 1e-10

    def test_noon_two_particles_against_dilation(self):
        assert oracles.loss_mixture_error(noon_state(2), 0.7) < 1e-12

    @pytest.mark.parametrize("n", [1, 4, 40])
    @pytest.mark.parametrize("eta", [0.0, 0.4, 0.9])
    def test_weights_normalized_components_unit(self, n, eta):
        s = oracles.random_state(n, seed=n)
        mix = apply_loss(s, eta)
        assert mix.total_weight() == pytest.approx(1.0, abs=1e-10)
        for comp in mix.components:
            assert np.linalg.norm(comp.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            apply_loss(plus_state(), -0.2)


class TestCollectiveDephasing:
    def test_zero_strength_identity(self):
        rho = apply_dephasing(oracles.random_state(4, seed=9), 0.6)
        out = apply_collective_dephasing(rho, 0.0)
        for tj in rho.blocks:
            assert np.array_equal(out.blocks[tj], rho.blocks[tj])

    def test_single_qubit_damping_factor(self):
        rho = lift_pure(plus_state())
        out = apply_collective_dephasing(rho, 0.8)
        assert out.blocks[1][0, 1] == pytest.approx(0.5 * math.exp(-0.4))

    def test_gaussian_average_quadrature(self):
        # the damping factor is the Gaussian average of the phase orbit
        gamma = 0.35
        rho = lift_pure(oracles.random_state(3, seed=4))
        out = apply_collective_dephasing(rho, gamma)
        thetas = np.linspace(-12, 12, 20001)
        q = np.exp(-thetas ** 2 / (2 * gamma)) / math.sqrt(2 * math.pi * gamma)
        m = np.arange(-3, 4, 2) / 2.0
        block = rho.blocks[3]
        avg = np.zeros_like(block)
        for theta, w in zip(thetas, q):
            ph = np.exp(1j * m * theta)
            avg += w * block * np.outer(ph, ph.conj())
        avg *= thetas[1] - thetas[0]
        assert np.max(np.abs(avg - out.blocks[3])) < 1e-7

    def test_noon_block_scaling(self):
        n, gamma = 5, 0.2
        rho = lift_pure(noon_state(n))
        out = apply_collective_dephasing(rho, gamma)
        assert out.blocks[n][0, n] == pytest.approx(
            0.5 * math.exp(-gamma * n * n / 2.0))

    @pytest.mark.parametrize("g1,g2", [(0.1, 0.25), (0.0, 0.4), (0.7, 0.7)])
    def test_semigroup_property(self, g1, g2):
        rho = apply_dephasing(oracles.random_state(6, seed=2), 0.5)
        two_step = apply_collective_dephasing(
            apply_collective_dephasing(rho, g1), g2)
        one_step = apply_collective_dephasing(rho, g1 + g2)
        for tj in rho.blocks:
            assert np.max(np.abs(two_step.blocks[tj] - one_step.blocks[tj])) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            apply_collective_dephasing(lift_pure(plus_state()), -0.1)


class TestGeneratorCommutator:
    def test_diagonal_state_is_stationary(self):
        rho = AngularBlockMatrix(2, {2: np.diag([0.2, 0.5, 0.3])})
        drho = generator_commutator(rho)
        assert np.all(drho.blocks[2] == 0)

    def test_single_qubit_entry(self):
        drho = generator_commutator(lift_pure(plus_state()))
        # entry (m=1/2, m'=-1/2): i * (m - m') * rho = i * 1 * 1/2
        assert drho.blocks[1][1, 0] == pytest.approx(0.5j)
        assert drho.blocks[1][0, 1] == pytest.approx(-0.5j)

    def test_noon_derivative_magnitude(self):
        n = 6
        drho = generator_commutator(lift_pure(noon_state(n)))
        assert abs(drho.blocks[n][0, n]) == pytest.approx(n * 0.5)

    def test_result_is_hermitian(self):
        rho = apply_dephasing(oracles.random_state(5, seed=8), 0.6)
        drho = generator_commutator(rho)
        assert drho.hermiticity_defect() < 1e-14


class TestSld:
    def test_pure_state_sld_is_twice_derivative(self):
        rho = lift_pure(oracles.random_state(4, seed=3))
        drho = generator_commutator(rho)
        ell = sld(rho, drho)
        # dr = (rho L + L rho)/2 must hold, and on the support L = 2 drho
        recon = 0.5 * (rho.blocks[4] @ ell.blocks[4]
                       + ell.blocks[4] @ rho.blocks[4])
        assert np.max(np.abs(recon - drho.blocks[4])) < 1e-10

    def test_single_qubit_dephased_qfi(self):
        rho = apply_dephasing(plus_state(), 0.7)
        drho = generator_commutator(rho)
        assert qfi(rho, drho) == pytest.approx(0.49, abs=1e-12)

    def test_stationary_state_gives_zero(self):
        dim = 5
        rho = AngularBlockMatrix(4, {4: np.eye(dim) / dim})
        drho = generator_commutator(rho)
        ell = sld(rho, drho)
        assert np.max(np.abs(ell.blocks[4])) == 0.0

    @pytest.mark.parametrize("n,eta", [(3, 0.4), (6, 0.7), (12, 0.9)])
    def test_defining_equation_residual(self, n, eta):
        rho = apply_dephasing(oracles.random_state(n, seed=n), eta)
        drho = generator_commutator(rho)
        ell = sld(rho, drho)
        worst = 0.0
        for tj, b in rho.blocks.items():
            recon = 0.5 * (b @ ell.blocks[tj] + ell.blocks[tj] @ b)
            worst = max(worst, float(np.max(np.abs(recon - drho.blocks[tj]))))
        assert worst < 1e-8

    def test_structure_mismatch_rejected(self):
        rho = apply_dephasing(plus_state(), 0.5)
        bad = AngularBlockMatrix(1, {1: np.zeros((2, 2))})
        bad.blocks = {}  # strip blocks
        with pytest.raises(ValueError):
            sld(rho, bad)

    def test_non_psd_rejected(self):
        rho = AngularBlockMatrix(1, {1: np.diag([1.0, -0.5])})
        drho = generator_commutator(rho)
        with pytest.raises(ValueError):
            sld(rho, drho)


class TestQfi:
    def test_noon_saturates_heisenberg(self):
        for n in (1, 3, 8):
            rho = lift_pure(noon_state(n))
            assert qfi(rho, generator_commutator(rho)) == pytest.approx(
                n * n, rel=1e-12)

    def test_product_state_is_linear(self):
        for n in (1, 4, 9):
            rho = lift_pure(product_plus_state(n))
            assert qfi(rho, generator_commutator(rho)) == pytest.approx(
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

    @pytest.mark.parametrize("n,eta", [(2, 0.3), (3, 0.7), (4, 0.55)])
    def test_matches_full_space_computation(self, n, eta):
        s = oracles.random_state(n, seed=n + 17)
        block_value = state_qfi(s, LocalDephasing(eta))
        assert block_value == pytest.approx(
            oracles.brute_dephasing_qfi(s, eta), rel=1e-10)


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
            assert qfi_loss(apply_loss(noon_state(n), 1.0)) == pytest.approx(n * n)

    def test_single_photon_scaling(self):
        s = SymmetricPureState(1, [1 / math.sqrt(2)] * 2)
        assert qfi_loss(apply_loss(s, 0.7)) == pytest.approx(0.7, rel=1e-12)

    def test_noon_closed_form(self):
        # N00N under loss keeps only the no-loss branch coherent: F = N^2 eta^N
        for n, eta in ((2, 0.7), (3, 0.5)):
            got = qfi_loss(apply_loss(noon_state(n), eta))
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
            flagged = qfi_loss(apply_loss(noon_state(n), eta))
            traced = self.traced_qfi(noon_state(n), eta)
            assert flagged == pytest.approx(traced, rel=1e-10)

    def test_flagged_dominates_traced_generically(self):
        state = oracles.random_state(2, seed=42)
        flagged = qfi_loss(apply_loss(state, 0.7))
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


def _symmetric_channels(n):
    """Every noise model, alone and composed with a prior (collective
    dephasing 0.25), at its edges and inside."""
    noises = [NoiseFree(), LocalDephasing(0.0), LocalDephasing(0.3),
              LocalDephasing(0.7), LocalDephasing(1.0), Loss(0.0), Loss(0.7),
              Loss(1.0), CollectiveDephasing(0.0), CollectiveDephasing(0.27)]
    for noise in noises:
        yield noise, 0.0, channel_blocks(noise, n)
        yield noise, 0.25, compose_collective(channel_blocks(noise, n), 0.25)


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

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_loss_patterns_mirror(self, n):
        # row (l0, l1) is row (l1, l0) read backwards, bit for bit, and so is
        # the dense block of a loss pattern composed with a prior
        channel = channel_blocks(Loss(0.7), n)
        rows = {(a, b): r for r, (a, b) in enumerate(zip(channel.l0, channel.l1))}
        for (l0, l1), r in rows.items():
            assert np.array_equal(channel.amplitudes[r],
                                  channel.amplitudes[rows[l1, l0]][::-1])
        blocks = {blk.key: blk for blk in compose_collective(channel, 0.25).blocks}
        for (l0, l1), blk in blocks.items():
            mate = blocks[l1, l0]
            assert mate.start == n - l0 - (len(blk.m) - 1)
            assert np.array_equal(mate.weight, blk.weight[::-1, ::-1])
            assert np.array_equal(mate.m, -blk.m[::-1])

    def test_parity_split(self):
        n = 2 * _SECTOR_MIN_DIM
        # centred blocks at least _SECTOR_MIN_DIM wide are folded, the rest kept
        channel = channel_blocks(LocalDephasing(0.7), n)
        folded, rest = channel.parity_split
        assert len(folded) + len(rest.blocks) == len(channel.blocks)
        assert sorted(len(b.m) + len(b.plus) for b in folded) == \
            sorted(len(b.m) for b in channel.blocks if len(b.m) >= _SECTOR_MIN_DIM)
        # every channel with a wide centred block passes the symmetry check
        for noise, prior, ch in _symmetric_channels(n):
            wide = any(2 * b.start + len(b.m) - 1 == n and len(b.m) >= _SECTOR_MIN_DIM
                       for b in ch.blocks)
            assert (ch.parity_split is not None) == wide, (noise, prior)
        # too small to gain, or not symmetric: the full space
        assert channel_blocks(LocalDephasing(0.7), _SECTOR_MIN_DIM - 2).parity_split is None
        blk = max(channel.blocks, key=lambda b: len(b.m))
        assert Channel.dense(n, [blk]).parity_split is not None
        skewed = ChannelBlock(blk.key, blk.start, blk.m, blk.weight.copy())
        skewed.weight[0, 1] = skewed.weight[1, 0] = 0.5 * blk.weight[0, 1]
        assert Channel.dense(n, [skewed]).parity_split is None
        off = compose_collective(channel_blocks(Loss(0.7), n), 0.25)
        lopsided = Channel.dense(n, [b for b in off.blocks if b.key != (1, 0)])
        assert lopsided.parity_split is None

    @pytest.mark.parametrize("d", [1, 2, 7, 8])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_fold_is_the_sector_basis(self, d, complex_):
        # Q a Q^T in the basis (e_i +- e_(d-1-i))/sqrt(2) (+ e_(d//2)), and the
        # coordinates of a sector vector, which unfold to it
        rng = np.random.default_rng(d)
        h = d // 2
        q = np.zeros((d, d))
        for i in range(h):
            q[i, i] = q[i, d - 1 - i] = math.sqrt(0.5)
            q[d - h + i, i], q[d - h + i, d - 1 - i] = math.sqrt(0.5), -math.sqrt(0.5)
        if d % 2:
            q[h, h] = 1.0
        x = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if complex_ else 0)
        a = x + x[::-1, ::-1]                   # commutes with J
        a_p, a_m = _fold(a)
        ref = q @ a @ q.T
        assert np.allclose(a_p, ref[:d - h, :d - h], rtol=0, atol=1e-14)
        assert np.allclose(a_m, ref[d - h:, d - h:], rtol=0, atol=1e-14)
        assert np.allclose(ref[:d - h, d - h:], 0.0, atol=1e-14)
        for parity in (1, -1):
            c = x[0] + parity * x[0][::-1]
            ch = _sector_coordinates(c, parity)
            assert np.allclose(ch, (q @ c)[:d - h] if parity > 0 else (q @ c)[d - h:],
                               rtol=0, atol=1e-14)
            assert np.array_equal(_unfold(ch, parity, d), _unfold(ch, parity, d)[::-1] * parity)
            assert np.allclose(_unfold(ch, parity, d), c, rtol=0, atol=1e-14)


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
