"""Optimizer tests: Heisenberg-picture adjoint (trace duality against the
forward maps), fixed-point/optimality certificates, agreement of one run from
perturbed and complex starts (a multi-start is a loop over `initial_state`),
dominance over the standard reference states, and the half-size solve on the
arm-swap sectors against the full space."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaselim import cli, oracles, qcore
from phaselim.bayes import gaussian_prior_solve
from phaselim.qcore import (EIG_SUPPORT_RTOL, AngularBlockMatrix, Channel,
                            CollectiveDephasing, LocalDephasing, Loss,
                            NoiseFree, SymmetricPureState, apply_dephasing,
                            apply_loss, channel_blocks, compose_collective,
                            noon_state, product_plus_state, qfi_loss,
                            state_qfi)
from phaselim.qcore import _sector_coordinates, _sector_qfi, _unfold
from phaselim.qfi_opt import (STATIONARITY_RTOL, IterationConfig, _fix_phase,
                              _iteration_step, _lowest_eigenpair, _residual,
                              channel_adjoint_apply, cr_bound,
                              maximize_qfi_over_states, qfi_iterate)


class TestChannelAdjoint:
    def test_noise_free_is_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        a = a + a.T
        operand = AngularBlockMatrix(4, {4: a})
        out = channel_adjoint_apply(NoiseFree(), 4, operand)
        assert np.allclose(out, a, atol=1e-14)

    def test_dephasing_is_unital(self):
        n = 5
        operand = AngularBlockMatrix(n, {
            blk.key[1]: np.eye(len(blk.indices))
            for blk in channel_blocks(LocalDephasing(0.6), n).blocks})
        out = channel_adjoint_apply(LocalDephasing(0.6), n, operand)
        assert np.allclose(out, np.eye(n + 1), atol=1e-12)

    def test_single_qubit_damps_transverse_observable(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        operand = AngularBlockMatrix(1, {1: sx})
        out = channel_adjoint_apply(LocalDephasing(0.7), 1, operand)
        assert np.allclose(out, 0.7 * sx, atol=1e-14)

    @pytest.mark.parametrize("eta", [0.3, 0.8])
    def test_trace_duality_with_dephasing(self, eta):
        n = 4
        state = oracles.random_state(n, seed=7)
        rho = apply_dephasing(state, eta)
        rng = np.random.default_rng(1)
        operand_blocks = {}
        for tj in rho.blocks:
            a = rng.standard_normal((tj + 1, tj + 1)) \
                + 1j * rng.standard_normal((tj + 1, tj + 1))
            operand_blocks[tj] = a + a.conj().T
        operand = AngularBlockMatrix(n, operand_blocks)
        lhs = sum(np.trace(rho.blocks[tj] @ operand_blocks[tj])
                  for tj in rho.blocks)
        adj = channel_adjoint_apply(LocalDephasing(eta), n, operand)
        rhs = state.amplitudes.conj() @ adj @ state.amplitudes
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_trace_duality_with_loss(self):
        n, eta = 3, 0.6
        state = oracles.random_state(n, seed=2)
        mix = apply_loss(state, eta)
        rng = np.random.default_rng(5)
        operand = {}
        channel = channel_blocks(Loss(eta), n)
        for l0, l1 in zip(channel.l0.tolist(), channel.l1.tolist()):
            d = n - l0 - l1 + 1
            a = rng.standard_normal((d, d))
            operand[(l0, l1)] = a + a.T
        lhs = 0.0
        for comp in mix.components:
            block = comp.weight * np.outer(comp.amplitudes,
                                           comp.amplitudes.conj())
            lhs += np.trace(block @ operand[(comp.l0, comp.l1)]).real
        adj = channel_adjoint_apply(Loss(eta), n, operand)
        rhs = (state.amplitudes.conj() @ adj @ state.amplitudes).real
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_pattern_blind_observable_under_loss(self):
        # an AngularBlockMatrix operand acts on every loss pattern with the
        # block of its surviving photon number N - l0 - l1
        n, eta = 4, 0.6
        state = oracles.random_state(n, seed=3)
        rng = np.random.default_rng(6)
        blocks = {}
        for tj in range(n + 1):
            a = rng.standard_normal((tj + 1, tj + 1))
            blocks[tj] = a + a.T
        lhs = 0.0
        for comp in apply_loss(state, eta).components:
            block = comp.weight * np.outer(comp.amplitudes, comp.amplitudes.conj())
            lhs += np.trace(block @ blocks[n - comp.l0 - comp.l1]).real
        adj = channel_adjoint_apply(Loss(eta), n, AngularBlockMatrix(n, blocks))
        rhs = (state.amplitudes.conj() @ adj @ state.amplitudes).real
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_collective_is_self_adjoint_damping(self):
        n = 3
        rng = np.random.default_rng(3)
        a = rng.standard_normal((n + 1, n + 1))
        a = a + a.T
        out = channel_adjoint_apply(CollectiveDephasing(0.4), n,
                                    AngularBlockMatrix(n, {n: a}))
        m = np.arange(n + 1) - n / 2
        damp = np.exp(-0.4 * (m[:, None] - m[None, :]) ** 2 / 2)
        assert np.allclose(out, damp * a, atol=1e-14)

    def test_structure_mismatch_rejected(self):
        with pytest.raises(ValueError):
            channel_adjoint_apply(Loss(0.5), 2, AngularBlockMatrix(2, {2: np.eye(3)}))
        with pytest.raises(ValueError):
            channel_adjoint_apply(NoiseFree(), 2, {})
        with pytest.raises(ValueError):
            channel_adjoint_apply(NoiseFree(), 2,
                                  AngularBlockMatrix(2, {0: np.eye(1)}))


class TestIterationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterationConfig(max_iters=0)
        with pytest.raises(ValueError):
            IterationConfig(rel_tol=0.0)


class TestNoiseFreeOptimum:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 25])
    def test_reaches_heisenberg_value(self, n):
        trace = qfi_iterate(n, NoiseFree())
        assert trace.qfi == pytest.approx(n * n, rel=1e-9)

    def test_returned_state_is_noon_like(self):
        n = 7
        trace = qfi_iterate(n, NoiseFree())
        c = np.abs(trace.final_state.amplitudes)
        assert c[0] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert c[n] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert np.max(c[1:n]) < 1e-6


class TestDephasedOptimum:
    def test_single_qubit_equals_exhaustive_scan(self):
        # the full single-qubit landscape: F(theta) = eta^2 sin^2(theta)
        eta = 0.7
        thetas = np.linspace(0.0, math.pi, 2001)
        best = 0.0
        for theta in thetas:
            s = SymmetricPureState(1, [math.cos(theta / 2), math.sin(theta / 2)],
                                   normalize=True)
            best = max(best, state_qfi(s, LocalDephasing(eta)))
        trace = qfi_iterate(1, LocalDephasing(eta))
        assert trace.qfi == pytest.approx(eta * eta, abs=1e-10)
        assert trace.qfi >= best - 1e-9

    def test_linear_scaling_coefficient_approaches_limit(self):
        # N / F decreases toward (1 - eta^2)/eta^2 as N grows
        eta = 0.7
        limit = (1 - eta * eta) / (eta * eta)
        from phaselim.qcore import resample_state
        ratios = []
        warm = None
        for n in (20, 40, 60):
            init = resample_state(warm, n) if warm is not None else None
            cfg = IterationConfig(rel_tol=1e-9, initial_state=init)
            trace = qfi_iterate(n, LocalDephasing(eta), cfg)
            warm = trace.final_state
            ratios.append(n / trace.qfi)
        # the approach is slow (O(1/sqrt(N)) corrections): assert the trend
        # and that the N=60 value is already within 30 percent of the limit
        assert ratios[0] > ratios[1] > ratios[2] > limit
        assert ratios[2] == pytest.approx(limit, rel=0.30)


class TestFixedPoint:
    @pytest.mark.parametrize("noise", [LocalDephasing(0.7), Loss(0.6),
                                       CollectiveDephasing(0.25)])
    def test_rerun_from_converged_state_is_stationary(self, noise):
        n = 8
        cfg = IterationConfig(rel_tol=1e-11)
        first = qfi_iterate(n, noise, cfg)
        again = qfi_iterate(n, noise, IterationConfig(
            rel_tol=1e-11, initial_state=first.final_state))
        assert again.qfi == pytest.approx(first.qfi, rel=1e-9)

    def test_history_is_monotone_nondecreasing(self):
        trace = qfi_iterate(9, LocalDephasing(0.6),
                            IterationConfig(polish=False))
        diffs = np.diff(trace.qfi_values)
        assert np.all(diffs >= -1e-10 * np.abs(trace.qfi_values[1:]))

    def test_trace_length_bounded_by_max_iters(self):
        cfg = IterationConfig(max_iters=7, rel_tol=1e-15, polish=True)
        trace = qfi_iterate(6, LocalDephasing(0.6), cfg)
        assert len(trace.qfi_values) <= 7
        assert trace.qfi >= trace.qfi_values[-1] - 1e-12


class TestRestarts:
    def test_perturbed_restarts_agree(self):
        # the default start and four starts perturbed around the sine profile
        n, noise = 6, LocalDephasing(0.7)
        rng = np.random.default_rng(11)
        base = qcore.sine_profile_state(n).amplitudes.real
        starts = [None] + [
            SymmetricPureState(n, base + 0.3 * rng.standard_normal(n + 1),
                               normalize=True) for _ in range(4)]
        qfis = [qfi_iterate(n, noise, IterationConfig(initial_state=s)).qfi
                for s in starts]
        assert max(qfis) - min(qfis) <= 1e-6 * max(qfis)

    def test_complex_start_reaches_real_optimum(self):
        rng = np.random.default_rng(21)
        n = 5
        amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        start = SymmetricPureState(n, amps / np.linalg.norm(amps))
        ref = qfi_iterate(n, LocalDephasing(0.7))
        got = qfi_iterate(n, LocalDephasing(0.7),
                          IterationConfig(initial_state=start))
        assert got.qfi == pytest.approx(ref.qfi, rel=1e-8)


class TestDominance:
    @pytest.mark.parametrize("eta", [0.3, 0.7])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34, 55, 60])
    def test_optimum_dominates_reference_states_dephasing(self, n, eta):
        noise = LocalDephasing(eta)
        trace = qfi_iterate(n, noise, IterationConfig(rel_tol=1e-9))
        f_noon = state_qfi(noon_state(n), noise)
        f_prod = state_qfi(product_plus_state(n), noise)
        assert trace.qfi >= f_noon - 1e-8 * max(1.0, f_noon)
        assert trace.qfi >= f_prod - 1e-8 * max(1.0, f_prod)

    @pytest.mark.parametrize("eta", [0.3, 0.7])
    @pytest.mark.parametrize("n", [2, 5, 13, 34, 60])
    def test_optimum_dominates_reference_states_loss(self, n, eta):
        noise = Loss(eta)
        trace = qfi_iterate(n, noise, IterationConfig(rel_tol=1e-9))
        f_noon = state_qfi(noon_state(n), noise)
        f_prod = state_qfi(product_plus_state(n), noise)
        assert trace.qfi >= f_noon - 1e-8 * max(1.0, f_noon)
        assert trace.qfi >= f_prod - 1e-8 * max(1.0, f_prod)


class TestLossOptimum:
    def test_single_photon(self):
        trace = qfi_iterate(1, Loss(0.7))
        assert trace.qfi == pytest.approx(0.7, abs=1e-11)

    def test_lossless_matches_noise_free(self):
        trace = qfi_iterate(6, Loss(1.0))
        assert trace.qfi == pytest.approx(36.0, rel=1e-9)


def _channel_extension_bound(noise, n):
    """Finite-N channel-extension bound on the QFI: eta N^2/(eta + (1-eta) N)
    under loss, eta^2 N^2/(eta^2 + (1-eta^2) N) under dephasing
    (Demkowicz-Dobrzanski, Kolodynski & Guta, Nat. Commun. 3, 1063 (2012));
    both are tight at N = 1."""
    q = noise.eta if isinstance(noise, Loss) else noise.eta ** 2
    return q * n * n / (q + (1.0 - q) * n)


class TestChannelExtensionBound:
    @pytest.mark.parametrize("noise", [LocalDephasing(0.3), LocalDephasing(0.7),
                                       LocalDephasing(0.9), Loss(0.3),
                                       Loss(0.7), Loss(0.9)], ids=repr)
    def test_warm_swept_optimum_obeys_the_bound(self, noise):
        # the optimum as `phaselim scan --method qfi-opt` computes it
        cfg = cli.SweepConfig(n_min=1, n_max=20, noise=noise,
                              methods=("qfi-opt",), timings=False)
        for rec in cli.run_sweep(cfg):
            bound = _channel_extension_bound(noise, rec.n)
            assert rec.qfi <= bound * (1.0 + 1e-12), rec.n
            if rec.n == 1:
                assert rec.qfi == pytest.approx(bound, rel=1e-12)

    # the dense dephasing step leaves a spurious F of up to ~1e-16 at small
    # eta (its eigenpairs just above the support cut carry the eigensolver's
    # rounding), far above the ~eta^2 N bound there; hence the absolute floor
    @settings(max_examples=150, deadline=None, database=None)
    @given(n=st.integers(1, 60), loss=st.booleans(), eta=st.floats(0.0, 1.0),
           complex_=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_every_state_obeys_the_bound(self, n, loss, eta, complex_, seed):
        noise = Loss(eta) if loss else LocalDephasing(eta)
        state = SymmetricPureState(n, _random_amplitudes(n, seed, complex_))
        bound = _channel_extension_bound(noise, n)
        assert state_qfi(state, noise) <= bound * (1.0 + 1e-12) + 1e-14


class TestCrBound:
    def test_heisenberg_value(self):
        assert cr_bound(100.0, 1) == pytest.approx(0.1)

    def test_standard_scaling(self):
        assert cr_bound(25.0, 1) == pytest.approx(0.2)

    def test_repetition_scaling(self):
        assert cr_bound(7.3, 4) == pytest.approx(cr_bound(7.3, 1) / 2.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cr_bound(0.0, 1)
        with pytest.raises(ValueError):
            cr_bound(1.0, 0)


class TestEngineOnExplicitBlocks:
    def test_prior_averaged_channel_matches_collective(self):
        # composing no-noise with a Gaussian kick equals collective dephasing
        n, gamma = 10, 0.2
        direct = qfi_iterate(n, CollectiveDephasing(gamma))
        composed = maximize_qfi_over_states(
            n, compose_collective(channel_blocks(NoiseFree(), n), gamma))
        assert composed.qfi == pytest.approx(direct.qfi, rel=1e-10)

    def test_initial_state_dimension_checked(self):
        with pytest.raises(ValueError):
            qfi_iterate(4, NoiseFree(),
                        IterationConfig(initial_state=noon_state(5)))

    def test_channel_particle_number_checked(self):
        with pytest.raises(ValueError):
            maximize_qfi_over_states(4, channel_blocks(NoiseFree(), 5))


def _random_hermitian(dim, rng, complex_):
    x = rng.standard_normal((dim, dim))
    if complex_:
        x = x + 1j * rng.standard_normal((dim, dim))
    return x + x.conj().T


class TestLowestEigenpair:
    """The one-pair LAPACK solve against the full numpy.linalg.eigh."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 26, 51, 201])
    def test_matches_eigh(self, dim, complex_):
        a = _random_hermitian(dim, np.random.default_rng(dim), complex_)
        lam, vec = _lowest_eigenpair(a)
        ref_lam, ref_vec = np.linalg.eigh(a)
        scale = np.max(np.abs(ref_lam))
        assert vec.shape == (dim,) and np.iscomplexobj(vec) == complex_
        assert lam == pytest.approx(ref_lam[0], abs=1e-13 * scale)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-13)
        assert abs(np.vdot(ref_vec[:, 0], vec)) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(a @ vec - lam * vec) <= 1e-12 * scale

    def test_one_by_one(self):
        lam, vec = _lowest_eigenpair(np.array([[2.5]]))
        assert lam == 2.5 and abs(vec[0]) == 1.0
        lam, vec = _lowest_eigenpair(np.array([[-1.0 + 0j]]))
        assert lam == -1.0 and abs(vec[0]) == 1.0

    @pytest.mark.parametrize("complex_", [False, True])
    def test_degenerate_lowest_eigenvalue(self, complex_):
        dim, mult = 12, 3
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(_random_hermitian(dim, rng, complex_))
        spectrum = np.concatenate([np.full(mult, -2.0), np.linspace(0.5, 3.0, dim - mult)])
        a = (q * spectrum) @ q.conj().T
        a = (a + a.conj().T) / 2.0
        lam, vec = _lowest_eigenpair(a)
        assert lam == pytest.approx(np.linalg.eigh(a)[0][0], abs=1e-13)
        # the vector lies in the lowest eigenspace, spanned by q's first columns
        inside = q[:, :mult].conj().T @ vec
        assert np.linalg.norm(inside) == pytest.approx(1.0, abs=1e-12)


class TestStationarityStop:
    """The polish ends once |(A + F) c| / F <= STATIONARITY_RTOL."""

    @staticmethod
    def _plateau_channel(n, delta0=0.5):
        return compose_collective(channel_blocks(CollectiveDephasing(0.02), n),
                                  delta0 ** 2)

    def test_wide_prior_reaches_the_target(self):
        n = 60
        channel = self._plateau_channel(n)
        cfg = IterationConfig(rel_tol=1e-9, max_iters=3000)
        trace = maximize_qfi_over_states(n, channel, cfg)
        assert 0 < trace.polish_evals < cfg.polish_max_evals
        # seen: 11; run on past the target, L-BFGS spends ~48 evaluations
        # before its line search fails
        assert trace.polish_evals <= 25
        assert trace.residual <= STATIONARITY_RTOL
        assert trace.qfi >= trace.qfi_values.max()
        # the certificate describes the returned state
        c = trace.final_state.amplitudes.real
        f, a = _iteration_step(channel, c)
        assert f == pytest.approx(trace.qfi, rel=1e-13)
        assert np.linalg.norm(a @ c + f * c) / f == pytest.approx(
            trace.residual, rel=1e-3)

    def test_unpolished_run_reports_loop_residual(self):
        n = 30
        channel = self._plateau_channel(n)
        trace = maximize_qfi_over_states(
            n, channel, IterationConfig(rel_tol=1e-9, polish=False))
        assert trace.polish_evals == 0
        c = trace.final_state.amplitudes.real
        f, a = _iteration_step(channel, c)
        assert np.linalg.norm(a @ c + f * c) / f == pytest.approx(
            trace.residual, rel=1e-3)

    def test_polish_budget_still_caps(self):
        n = 60
        trace = maximize_qfi_over_states(
            n, self._plateau_channel(n, 0.1),
            IterationConfig(rel_tol=1e-9, max_iters=50, polish_max_evals=5))
        # line searches may add evaluations past the 5-iteration cap (seen: 7)
        assert 0 < trace.polish_evals <= 30
        assert trace.residual > STATIONARITY_RTOL

    def test_phase_blind_channel_has_no_residual(self):
        trace = qfi_iterate(3, LocalDephasing(0.0))
        assert trace.qfi == 0.0 and trace.polish_evals == 0
        assert math.isnan(trace.residual)

    # F of the README plateau scan (collective 0.02, delta0 0.5, N = 10..200
    # by 10, warm-started) before the stationarity stop was introduced; the
    # stop may only end the polish early where the state is already
    # stationary, which costs F no more than ~1e-13 relative
    PLATEAU_QFI_BEFORE = {10: 3.1508224995784535, 100: 3.6915718549732066,
                          200: 3.7005015877570018}

    def test_plateau_scan_keeps_its_qfi(self):
        cfg = cli.SweepConfig(n_min=10, n_max=200, n_step=10,
                              noise=CollectiveDephasing(0.02),
                              methods=("bayes-gauss",), prior_width=0.5,
                              timings=False)
        got = {r.n: r.qfi for r in cli.run_sweep(cfg)}
        for n, before in self.PLATEAU_QFI_BEFORE.items():
            assert got[n] >= before * (1.0 - 1e-12), n


def _random_amplitudes(n, seed, complex_):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n + 1)
    if complex_:
        c = c + 1j * rng.standard_normal(n + 1)
    return c / np.linalg.norm(c)


def _step_dense_real(blk, cb, a_out):
    """Reference: the optimizer's dense step for real c as it was before one
    SLD kernel served every caller."""
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


def _step_dense_complex(blk, cb, a_out):
    """Reference: the optimizer's dense step for complex c, in the
    convention drho = i dm sigma, L itself in the eigenbasis."""
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


DENSE_CHANNELS = {
    "dephasing-0.3": lambda n: channel_blocks(LocalDephasing(0.3), n),
    "dephasing-0.7": lambda n: channel_blocks(LocalDephasing(0.7), n),
    "collective-0.02": lambda n: channel_blocks(CollectiveDephasing(0.02), n),
    "loss-0.7-prior-0.5": lambda n: compose_collective(
        channel_blocks(Loss(0.7), n), 0.25),
}


def _mp_dense_qfi(channel, c):
    """F of the dense blocks at 50 digits, from the kernel's formula: sigma =
    W o c c^H is eigendecomposed and k = dm o sigma rotated in mpmath, and F
    sums 2 |kp_ij|^2 / (lam_i + lam_j) over the pairs above the support cut."""
    total = 0.0
    with mpmath.workdps(50):
        for blk in channel.blocks:
            d = len(blk.m)
            cb = [mpmath.mpmathify(x) for x in c[blk.window]]
            sigma = mpmath.matrix(d, d)
            for i in range(d):
                for j in range(d):
                    sigma[i, j] = (mpmath.mpf(blk.weight[i, j]) * cb[i]
                                   * mpmath.conj(cb[j]))
            sigma = (sigma + sigma.H) / 2
            k = mpmath.matrix(d, d)
            for i in range(d):
                for j in range(d):
                    k[i, j] = mpmath.mpf(blk.m[i] - blk.m[j]) * sigma[i, j]
            lam, vec = (mpmath.eighe if np.iscomplexobj(c) else mpmath.eigsy)(sigma)
            kp = vec.H * k * vec
            cut = EIG_SUPPORT_RTOL * max(lam)
            for i in range(d):
                for j in range(d):
                    den = lam[i] + lam[j]
                    if den > cut:
                        total += 2 * abs(kp[i, j]) ** 2 / den
        return float(total)


class TestDenseKernel:
    """The dense step, which builds the derivative in sigma's eigenbasis as
    kp = X Lam - Lam X with X = V^H M V, against the two dense steps that
    rotated dm o sigma instead, and against a 50-digit evaluation of F.

    The SLD is not unique on sigma's numerical null space, and there the
    rotated and the eigenbasis forms differ (by up to 5e-5 of max|A| under
    dephasing 0.7 at N = 60).  The quantities the optimizer reads agree: F
    and the gradient A c.  Elementwise, A agrees where sigma is well
    conditioned (N <= 2).  `test_real_step_bit_for_bit` keeps the name of the
    bit-for-bit comparison it made while both steps rotated dm o sigma.
    """

    @staticmethod
    def _check_against(channel, c, step):
        n = channel.n
        f, a = _iteration_step(channel, c)
        a_ref = np.zeros((n + 1, n + 1), dtype=c.dtype)
        f_ref = 0.0
        for blk in channel.blocks:
            f_ref += step(blk, c[blk.indices], a_ref)
        assert f == pytest.approx(f_ref, rel=1e-13)
        grad_ref = a_ref @ c
        assert np.linalg.norm(a @ c - grad_ref) <= 1e-12 * np.linalg.norm(grad_ref)
        if n <= 2:
            # seen <= 2e-14
            assert np.max(np.abs(a - a_ref)) <= 1e-12 * np.max(np.abs(a_ref))

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 60])
    @pytest.mark.parametrize("name", sorted(DENSE_CHANNELS))
    def test_real_step_bit_for_bit(self, n, name):
        self._check_against(DENSE_CHANNELS[name](n),
                            _random_amplitudes(n, n, False), _step_dense_real)

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 60])
    @pytest.mark.parametrize("name", sorted(DENSE_CHANNELS))
    def test_complex_step(self, n, name):
        self._check_against(DENSE_CHANNELS[name](n),
                            _random_amplitudes(n, n, True), _step_dense_complex)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    @pytest.mark.parametrize("name", sorted(DENSE_CHANNELS))
    def test_qfi_against_50_digits(self, n, name, complex_):
        channel = DENSE_CHANNELS[name](n)
        c = _random_amplitudes(n, n + 100, complex_)
        f, _ = _iteration_step(channel, c)
        # seen <= 1.8e-15
        assert f == pytest.approx(_mp_dense_qfi(channel, c), rel=1e-14)


class TestSeeSawFloor:
    """The plain see-saw keeps converging under dephasing.  With the
    derivative rotated as dm o sigma, every kp entry carried ~eps |k| of
    rounding, which swamps the pairs of small eigenvalues and stalled the
    residual near 2e-7; in the eigenbasis form the error scales with
    |lam_j - lam_i|."""

    def test_dephasing_see_saw_passes_below_1e_7(self):
        n, noise = 40, LocalDephasing(0.7)
        start = qfi_iterate(n, noise, IterationConfig(rel_tol=1e-9, polish=False))
        channel = channel_blocks(noise, n)
        c = start.final_state.amplitudes.real
        best = math.inf
        for _ in range(400):
            f, a = _iteration_step(channel, c)
            best = min(best, _residual(f, a, c))
            c = _fix_phase(_lowest_eigenpair(a)[1])
        # seen: 2.3e-8; rotating dm o sigma plateaus at 2.1e-7
        assert best <= 1e-7


class TestRankOneKernel:
    """The batched rank-one step against the dense SLD kernel, its row
    chunking, and the duality and QFI identities of the whole step."""

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    @pytest.mark.parametrize("noise", [Loss(0.0), Loss(0.3), Loss(0.7),
                                       Loss(1.0), NoiseFree()])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_dense_kernels(self, n, noise, complex_):
        c = _random_amplitudes(n, n, complex_)
        channel = channel_blocks(noise, n)
        f, a = _iteration_step(channel, c)
        # every rank-one row as a dense block, through the SLD kernel
        f_ref, a_ref = _iteration_step(Channel.dense(n, channel.dense_blocks()), c)
        assert a.dtype == a_ref.dtype
        assert f == pytest.approx(f_ref, rel=1e-12, abs=1e-300)
        assert np.max(np.abs(a - a_ref)) <= 1e-12 * max(np.max(np.abs(a_ref)), 1e-300)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_chunked_equals_unchunked(self, monkeypatch, complex_):
        n = 60
        c = _random_amplitudes(n, 4, complex_)
        channel = channel_blocks(Loss(0.7), n)
        monkeypatch.setattr(qcore, "RANK_ONE_CHUNK", len(channel.damping))
        f_ref, a_ref = _iteration_step(channel, c)
        monkeypatch.setattr(qcore, "RANK_ONE_CHUNK", 7)
        f, a = _iteration_step(channel, c)
        assert f == pytest.approx(f_ref, rel=1e-13)
        assert np.max(np.abs(a - a_ref)) <= 1e-13 * np.max(np.abs(a_ref))

    # WEIGHT_FLOOR drops branches of weight below 1e-280, so F may differ by
    # that much in absolute terms when eta sits next to 0 or 1.  The dephasing
    # coupling tables carry ~1e-17 absolute rounding in their coherences for
    # 0 < eta, so below eta ~ 1e-10 its F is rounding and the duality holds
    # only to that absolute level (at eta = 0 itself F is exactly 0)
    @settings(max_examples=150, deadline=None, database=None)
    @given(n=st.integers(1, 40), kind=st.sampled_from(
               ["none", "dephasing", "loss", "collective", "prior"]),
           strength=st.floats(0.0, 1.0), complex_=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_duality_and_qfi_identity(self, n, kind, strength, complex_, seed):
        c = _random_amplitudes(n, seed, complex_)
        state = SymmetricPureState(n, c)
        if kind == "prior":
            # a Gaussian prior on the noise-free channel is collective dephasing
            channel = compose_collective(channel_blocks(NoiseFree(), n), strength)
            noise = CollectiveDephasing(strength)
        else:
            noise = {"none": NoiseFree(), "dephasing": LocalDephasing(strength),
                     "loss": Loss(strength),
                     "collective": CollectiveDephasing(strength)}[kind]
            channel = channel_blocks(noise, n)
        floor = 1e-20 if kind == "dephasing" else 1e-250
        f, a = _iteration_step(channel, c)
        assert np.vdot(c, a @ c).real == pytest.approx(-f, rel=1e-11, abs=floor)
        assert f == pytest.approx(state_qfi(state, noise), rel=1e-11, abs=floor)
        if kind == "loss":
            f_forward = qfi_loss(apply_loss(state, strength))
            assert f == pytest.approx(f_forward, rel=1e-11, abs=floor)

    # nearly diagonal dephasing blocks, where the eigenbasis derivative
    # X Lam - Lam X alone gave F ~ 1e-20 with <c|A|c> = +F, or missed the
    # duality by 2e-11 relative at eta = 1e-5
    @pytest.mark.parametrize("n, eta, seed, complex_", [
        (37, 1.08e-26, 1, False), (33, 1e-20, 1, False),
        (33, 1e-10, 0, False), (30, 1e-5, 1, True), (31, 1e-5, 2, False)])
    def test_duality_at_vanishing_dephasing(self, n, eta, seed, complex_):
        c = _random_amplitudes(n, seed, complex_)
        f, a = _iteration_step(channel_blocks(LocalDephasing(eta), n), c)
        assert np.vdot(c, a @ c).real == pytest.approx(-f, rel=1e-11, abs=1e-20)
        # the QFI is at most its channel-extension bound (~eta^2 N here)
        assert f <= 2.0 * eta * eta * n + 1e-20


def _sector_vector(n, seed, complex_, parity):
    """A random unit vector with Jc = parity c."""
    c = _random_amplitudes(n, seed, complex_)
    c = c + parity * c[::-1]
    return c / np.linalg.norm(c)


def _full_space(monkeypatch, n, build, cfg):
    """The run of `maximize_qfi_over_states` that the full-space loop makes:
    with a size constant above N + 1 no channel has a parity split."""
    with monkeypatch.context() as mp:
        mp.setattr(qcore, "_SECTOR_MIN_DIM", n + 2)
        return maximize_qfi_over_states(n, build(n), cfg)


TRAJECTORY_CHANNELS = {
    "dephasing-0.7": lambda n: channel_blocks(LocalDephasing(0.7), n),
    "collective-0.27": lambda n: channel_blocks(CollectiveDephasing(0.27), n),
    "loss-0.7-prior-0.5": lambda n: compose_collective(
        channel_blocks(Loss(0.7), n), 0.25),
}


class TestParitySectors:
    """Starts with Jc = +-c (J: n -> N - n) solve on the arm-swap sectors'
    half-size blocks; the full-space loop from the same start is the same
    algorithm up to rounding.  Every other start runs in the full space."""

    # A nearly dephased block has coherences ~eta^2 of its diagonal, and both
    # steps round its eigenvalue gaps to ~1e-16 of the diagonal (the sector
    # step as the difference of sigma+ and sigma-), so there F and A c agree
    # only to ~1e-14 / eta^2.  On a grid of eta in [1e-12, 1], N <= 60, with
    # and without a prior, the differences stayed below a quarter of these
    # bounds.  Below eta ~ 1e-10, F is at the rounding level of the coupling
    # tables (see test_duality_and_qfi_identity).  A c is compared to 1e-11,
    # not 1e-12: where a prior makes sigma numerically low-rank, the full
    # step's own A c moves by up to 6e-12 when c moves by 2e-16 (N = 44,
    # noise-free with a prior), and the two steps differed by up to 4e-12
    @settings(max_examples=150, deadline=None, database=None)
    @given(n=st.integers(1, 60), kind=st.sampled_from(
               ["none", "dephasing", "loss", "collective"]),
           strength=st.floats(0.0, 1.0), prior=st.sampled_from([0.0, 0.25]),
           parity=st.sampled_from([1, -1]), complex_=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_sector_step_matches_full_step(self, n, kind, strength, prior,
                                           parity, complex_, seed):
        noise = {"none": NoiseFree(), "dephasing": LocalDephasing(strength),
                 "loss": Loss(strength),
                 "collective": CollectiveDephasing(strength)}[kind]
        with pytest.MonkeyPatch.context() as mp:
            # fold every centred block of two or more entries
            mp.setattr(qcore, "_SECTOR_MIN_DIM", 2)
            channel = compose_collective(channel_blocks(noise, n), prior)
            if channel.parity_split is None:
                # rank-one rows and blocks of one entry only: nothing to fold
                assert all(len(b.m) == 1 for b in channel.blocks)
                return
        c = _sector_vector(n, seed, complex_, parity)
        ch = _sector_coordinates(c, parity)
        floor, slack = 1e-250, 0.0
        if kind == "dephasing":
            floor, slack = 1e-20, min(1e-14 / max(strength, 1e-7) ** 2, 1.0)
        f, a = _iteration_step(channel, c)
        f_s, (a_p, a_m) = _sector_qfi(channel, parity, ch)
        a_s = a_p if parity > 0 else a_m
        assert a_s.dtype == a.dtype
        assert f_s == pytest.approx(f, rel=1e-13 + slack, abs=floor)
        grad = a @ c
        assert np.linalg.norm(_unfold(a_s @ ch, parity, n + 1) - grad) <= \
            (1e-11 + slack) * np.linalg.norm(grad) + floor
        assert np.vdot(ch, a_s @ ch).real == pytest.approx(-f_s, rel=1e-11, abs=floor)

    @pytest.mark.parametrize("name, n", [
        ("dephasing-0.7", 40), ("dephasing-0.7", 120), ("collective-0.27", 40),
        ("collective-0.27", 120), ("loss-0.7-prior-0.5", 40)])
    def test_same_trajectory_as_the_full_space(self, monkeypatch, name, n):
        # loss with a prior stops at N = 40: one step at N = 120 takes ~5 s
        build = TRAJECTORY_CHANNELS[name]
        cfg = IterationConfig(polish=False)
        split = maximize_qfi_over_states(n, build(n), cfg)
        full = _full_space(monkeypatch, n, build, cfg)
        assert split.parity == 1 and full.parity == 0
        assert len(split.qfi_values) == len(full.qfi_values)
        assert np.allclose(split.qfi_values, full.qfi_values, rtol=1e-12, atol=0)
        assert split.converged == full.converged
        overlap = abs(np.vdot(split.final_state.amplitudes, full.final_state.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_polish_on_the_half_vector(self, monkeypatch):
        # the README plateau scan's largest row, shortened: the loop stops
        # early and L-BFGS on the even sector's coordinates reaches the target
        n = 100
        build = lambda k: compose_collective(channel_blocks(CollectiveDephasing(0.02), k), 0.25)
        cfg = IterationConfig(max_iters=20, polish_max_evals=300)
        split = maximize_qfi_over_states(n, build(n), cfg)
        full = _full_space(monkeypatch, n, build, cfg)
        assert split.parity == 1 and split.polish_evals > 0
        assert split.polish_evals == full.polish_evals
        assert split.qfi == pytest.approx(full.qfi, rel=1e-13)
        assert split.residual <= STATIONARITY_RTOL
        # the returned state is unfolded to N + 1 amplitudes in the sector
        amps = split.final_state.amplitudes
        assert amps.shape == (n + 1,) and np.array_equal(amps, amps[::-1])

    @pytest.mark.parametrize("kind", ["perturbed", "complex"])
    def test_asymmetric_start_runs_in_the_full_space(self, monkeypatch, kind):
        n = 40
        build = TRAJECTORY_CHANNELS["collective-0.27"]
        rng = np.random.default_rng(5)
        c = qcore.sine_profile_state(n).amplitudes
        c = c + (1e-3 * rng.standard_normal(n + 1) if kind == "perturbed"
                 else 0.3j * rng.standard_normal(n + 1))
        cfg = IterationConfig(initial_state=SymmetricPureState(n, c, normalize=True))
        trace = maximize_qfi_over_states(n, build(n), cfg)
        ref = _full_space(monkeypatch, n, build, cfg)
        assert trace.parity == 0
        assert np.array_equal(trace.qfi_values, ref.qfi_values)
        assert np.array_equal(trace.final_state.amplitudes, ref.final_state.amplitudes)
        assert (trace.qfi, trace.residual, trace.polish_evals) == \
            (ref.qfi, ref.residual, ref.polish_evals)

    @pytest.mark.parametrize("parity", [1, -1])
    def test_complex_sector_start(self, monkeypatch, parity):
        # a chirped sine profile, times m for the odd sector.  (From random
        # sector vectors the first steps' eigenvectors are ill-conditioned,
        # and the two F sequences drift apart by up to 2e-10 there.)
        n = 41
        build = TRAJECTORY_CHANNELS["collective-0.27"]
        m = np.arange(n + 1) - n / 2.0
        c = qcore.sine_profile_state(n).amplitudes * np.exp(0.3j * m * m)
        c = c if parity > 0 else m * c
        cfg = IterationConfig(initial_state=SymmetricPureState(n, c, normalize=True),
                              polish=False)
        split = maximize_qfi_over_states(n, build(n), cfg)
        full = _full_space(monkeypatch, n, build, cfg)
        assert split.parity != 0 and split.final_state.amplitudes.dtype == complex
        assert len(split.qfi_values) == len(full.qfi_values)
        assert np.allclose(split.qfi_values, full.qfi_values, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 40])
    @pytest.mark.parametrize("noise", [LocalDephasing(0.0), LocalDephasing(1.0),
                                       Loss(0.0), Loss(1.0), CollectiveDephasing(0.0)])
    def test_parameter_edges(self, monkeypatch, n, noise):
        phase_blind = noise in (LocalDephasing(0.0), Loss(0.0))
        trace = qfi_iterate(n, noise)
        full = _full_space(monkeypatch, n, lambda k: channel_blocks(noise, k),
                           IterationConfig())
        # a dense block as wide as the input exists above the size constant;
        # loss has rank-one rows only
        assert (trace.parity != 0) == (n >= 40 and not isinstance(noise, Loss))
        if phase_blind:
            assert trace.qfi == 0.0 == full.qfi and trace.converged
        else:
            assert trace.qfi == pytest.approx(n * n, rel=1e-12)
            assert trace.qfi == pytest.approx(full.qfi, rel=1e-12)
        # composed with a prior, loss too becomes dense (centred when l0 = l1)
        cost, prior_trace = gaussian_prior_solve(n, 0.5, noise)
        with monkeypatch.context() as mp:
            mp.setattr(qcore, "_SECTOR_MIN_DIM", n + 2)
            cost_full, _ = gaussian_prior_solve(n, 0.5, noise)
        assert (prior_trace.parity != 0) == (n >= 40 and noise != Loss(0.0))
        assert cost == pytest.approx(cost_full, rel=1e-12)
