"""Optimizer tests: Heisenberg-picture adjoint (trace duality against the
forward maps), fixed-point/optimality certificates, agreement of one run from
perturbed and complex starts (a multi-start is a loop over `initial_state`),
dominance over the standard reference states, and the half-size solve on the
arm-swap sectors against the full space."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phaselim import cli, qcore, qfi_opt
from phaselim.bayes import gaussian_prior_solve
from phaselim.qcore import (EIG_SUPPORT_RTOL, Channel, CollectiveDephasing,
                            LocalDephasing, Loss, NoiseFree,
                            SymmetricPureState, channel_blocks, channel_output,
                            compose_collective, noon_state,
                            product_plus_state, state_qfi)
from phaselim.qcore import (_channel_qfi, _sector_coordinates, _sector_qfi,
                            _unfold)
from phaselim.qfi_opt import (STATIONARITY_RTOL, IterationConfig,
                              _iteration_step, _lbfgs_direction,
                              _lowest_eigenpair, _residual, cr_bound,
                              maximize_qfi_over_states, qfi_iterate)
from references import block_sld, loss_qfi


def _unit_vectors(n, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield SymmetricPureState(n, rng.standard_normal(n + 1)
                                 + 1j * rng.standard_normal(n + 1), normalize=True)


def _heisenberg_operators(state, noise):
    """Y_b = L_b^2 + 2i [M_b, L_b] per output block of the state, with L_b the
    block's SLD (phase derivative i [M_b, sigma_b]), so that
    sum_b tr(sigma_b Y_b) = F - 2F = -F."""
    ys = []
    for blk, sigma in channel_output(state, noise):
        _, ell, _ = block_sld(sigma, blk.m)
        ys.append(ell @ ell + 2j * (blk.m[:, None] * ell - ell * blk.m[None, :]))
    return ys


def _pulled_back(x, noise, ys):
    """sum_b tr(sigma_b(x) Y_b): the expectation of the output observables
    (Y_b) in the channel output of x, through the forward map."""
    return sum(np.trace(sigma @ y) for (_, sigma), y in zip(channel_output(x, noise), ys))


def _real_state(n, seed):
    """A random real state, with entries of both signs."""
    return SymmetricPureState(n, _random_amplitudes(n, seed, False))


class TestChannelAdjoint:
    """The Heisenberg picture, checked through the forward map only.  The
    optimizer's A(c) at a real state c is the adjoint channel applied to
    Y_b(c) (built inline in `_channel_qfi`), so <x|A(c)|x> =
    sum_b tr(sigma_b(x) Y_b(c)) for every input x, complex ones included, not
    only x = c; and the adjoint's defining properties (unital, damping,
    pattern-blind, self-adjoint) hold as trace dualities."""

    def test_noise_free_is_identity(self):
        # the adjoint of the identity channel returns Y itself
        state = _real_state(4, seed=0)
        (y,) = _heisenberg_operators(state, NoiseFree())
        _, a = _iteration_step(channel_blocks(NoiseFree(), 4), state.amplitudes.real)
        assert np.allclose(a, y, atol=1e-14)

    def test_dephasing_is_unital(self):
        # sum_b tr sigma_b(x) = <x|x> for every x, i.e. the adjoint maps 1 to 1
        n = 5
        for x in _unit_vectors(n, 2 * (n + 1) ** 2, seed=0):
            total = sum(np.trace(sigma) for _, sigma in channel_output(x, LocalDephasing(0.6)))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_damps_transverse_observable(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        for x in _unit_vectors(1, 8, seed=1):
            (_, sigma), = channel_output(x, LocalDephasing(0.7))
            c = x.amplitudes
            assert np.trace(sigma @ sx) == pytest.approx(0.7 * (c.conj() @ sx @ c), abs=1e-14)

    @pytest.mark.parametrize("eta", [0.3, 0.8])
    def test_trace_duality_with_dephasing(self, eta):
        n = 4
        state = _real_state(n, seed=7)
        ys = _heisenberg_operators(state, LocalDephasing(eta))
        _, a = _iteration_step(channel_blocks(LocalDephasing(eta), n),
                               state.amplitudes.real)
        for x in _unit_vectors(n, 5, seed=1):
            rhs = x.amplitudes.conj() @ a @ x.amplitudes
            assert _pulled_back(x, LocalDephasing(eta), ys) == pytest.approx(rhs, rel=1e-11)

    def test_trace_duality_with_loss(self):
        n, eta = 3, 0.6
        state = _real_state(n, seed=2)
        ys = _heisenberg_operators(state, Loss(eta))
        _, a = _iteration_step(channel_blocks(Loss(eta), n), state.amplitudes.real)
        for x in _unit_vectors(n, 5, seed=5):
            rhs = x.amplitudes.conj() @ a @ x.amplitudes
            assert _pulled_back(x, Loss(eta), ys) == pytest.approx(rhs, rel=1e-11)

    def test_pattern_blind_observable_under_loss(self):
        # the output photon-number difference J_z does not look at the loss
        # pattern; every photon survives with probability eta, so the adjoint
        # maps it to eta J_z on the input
        n, eta = 4, 0.6
        for x in _unit_vectors(n, 5, seed=3):
            lhs = sum(np.diag(sigma).real @ blk.m
                      for blk, sigma in channel_output(x, Loss(eta)))
            rhs = eta * (np.abs(x.amplitudes) ** 2 @ x.m_values)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_collective_is_self_adjoint_damping(self):
        # tr(Phi(|x><x|) |y><y|) = tr(|x><x| Phi(|y><y|))
        n, noise = 3, CollectiveDephasing(0.4)
        xs = list(_unit_vectors(n, 6, seed=3))
        for x, y in zip(xs[::2], xs[1::2]):
            (_, sx), = channel_output(x, noise)
            (_, sy), = channel_output(y, noise)
            lhs = y.amplitudes.conj() @ sx @ y.amplitudes
            rhs = x.amplitudes.conj() @ sy @ x.amplitudes
            assert lhs == pytest.approx(rhs, abs=1e-14)


class TestIterationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterationConfig(max_iters=0)
        with pytest.raises(ValueError):
            IterationConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IterationConfig(max_iters=50, polish_max_evals=-40)


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
            if noise == LocalDephasing(0.9) and rec.n == 4:
                # not the stationary point F = 6.88886 (c_2 = 0) that a warm
                # start can reach; the optimum is 6.89191
                assert rec.qfi >= 6.8919

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


# the README plateau scan: collective dephasing 0.02 under a Gaussian prior of
# width 0.5, N = 10..200 by 10, warm-started
PLATEAU_GAMMA, PLATEAU_WIDTH = 0.02, 0.5


@pytest.fixture(scope="module")
def plateau_rows():
    cfg = cli.SweepConfig(n_min=10, n_max=200, n_step=10,
                          noise=CollectiveDephasing(PLATEAU_GAMMA),
                          methods=("bayes-gauss",), prior_width=PLATEAU_WIDTH,
                          timings=False)
    return cli.run_sweep(cfg)


class TestCollectiveDataProcessingBound:
    """F <= 1/Gamma after collective dephasing Gamma, for any input state and
    any noise applied before it.

    Collective dephasing averages the phase orbit over a Gaussian kick,
    rho_phi = int dtheta q(theta) U_(phi + theta) rho' U_(phi + theta)^dag
            = int dtheta q(theta - phi) U_theta rho' U_theta^dag,
    with q the N(0, Gamma) density and rho' the output of the earlier noise,
    which does not depend on phi (every noise here commutes with U).  So rho_phi
    is the image of the classical location family q(theta - phi) under the
    phi-independent channel |theta><theta| -> U_theta rho' U_theta^dag, and
    the QFI cannot exceed the classical Fisher information of that family,
    which for a Gaussian of variance Gamma is 1/Gamma.  A Gaussian prior of
    width delta0 adds delta0^2 to Gamma, so the prior-averaged channel of the
    plateau scan has F (gamma + delta0^2) <= 1.
    """

    def test_noon_closed_form(self):
        # N00N keeps one coherence, damped by exp(-Gamma N^2 / 2):
        # F = N^2 exp(-Gamma N^2), so F Gamma = 1/e at Gamma = 1/N^2
        for n in (1, 5, 40, 200):
            gamma = 1.0 / (n * n)
            f = state_qfi(noon_state(n), CollectiveDephasing(gamma))
            assert f * gamma == pytest.approx(math.exp(-1.0), rel=1e-12)

    # composed loss at N = 200 has 20,301 dense blocks and the dephasing
    # tables take seconds to build there, so those two draw N <= 40 and 60.
    # Random states stay well inside: F Gamma was at most 0.888 in 300 draws
    @settings(max_examples=150, deadline=None, database=None)
    @given(n=st.integers(1, 200), kind=st.sampled_from(
               ["none", "dephasing", "loss", "collective"]),
           strength=st.floats(0.0, 1.0), log_gamma=st.floats(-6.0, 1.0),
           complex_=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_every_state_obeys_the_bound(self, n, kind, strength, log_gamma,
                                         complex_, seed):
        n = min(n, {"loss": 40, "dephasing": 60}.get(kind, n))
        noise = {"none": NoiseFree(), "dephasing": LocalDephasing(strength),
                 "loss": Loss(strength),
                 "collective": CollectiveDephasing(strength)}[kind]
        gamma = 10.0 ** log_gamma
        channel = compose_collective(channel_blocks(noise, n), gamma)
        f, _ = _step_at(channel, _random_amplitudes(n, seed, complex_))
        assert f * gamma <= 1.0 + 1e-12

    def test_plateau_scan_rows_obey_the_bound(self, plateau_rows):
        # seen: 0.98819, 0.99672, 0.99849 and 0.99914 at N = 50, 100, 150, 200
        for rec in plateau_rows:
            assert rec.qfi * (PLATEAU_GAMMA + PLATEAU_WIDTH ** 2) <= 1.0, rec.n


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
    """The see-saw's eigenpair: the lowest eigenvalue and a unit vector of
    its eigenspace, for real symmetric matrices (numpy's path also takes
    Hermitian ones; the one-pair ?syevr call only real ones)."""

    @pytest.mark.parametrize("complex_, one_pair",
                             [(False, False), (False, True), (True, False)])
    def test_every_size_to_101(self, complex_, one_pair):
        # d = 1..101, each also with its two lowest eigenvalues made equal
        rng = np.random.default_rng(101)
        for dim in range(1, 102):
            a = _random_hermitian(dim, rng, complex_)
            w, q = np.linalg.eigh(a)
            w[1:2] = w[0]
            for mat in (a, (q * w) @ q.conj().T):
                mat = (mat + mat.conj().T) / 2.0
                scale = np.linalg.norm(mat, 2)
                lam, vec = _lowest_eigenpair(mat, one_pair)
                assert abs(lam - np.linalg.eigvalsh(mat)[0]) <= 1e-13 * scale
                assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-13)
                assert np.linalg.norm(mat @ vec - lam * vec) <= 1e-12 * scale

    def test_only_loss_rows_take_the_one_pair_solve(self, monkeypatch):
        # a loss row's first move loads scipy for ?syevr; the dense and
        # noise-free channels keep the see-saw on numpy's eigh, scipy-free
        seen = set()
        def spy(a, one_pair=False):
            seen.add(one_pair)
            return _lowest_eigenpair(a, one_pair)
        monkeypatch.setattr(qfi_opt, "_lowest_eigenpair", spy)
        for noise, want in ((Loss(0.7), {True}), (NoiseFree(), {False}),
                            (CollectiveDephasing(0.05), {False}),
                            (LocalDephasing(0.7), {False})):
            seen.clear()
            qfi_iterate(6, noise, IterationConfig(max_iters=5, polish=False))
            assert seen == want, noise

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


class TestLbfgsDirection:
    """The compact L-BFGS product against the classical two-loop recursion
    (Nocedal & Wright, Algorithm 7.4)."""

    @staticmethod
    def _two_loop(g, pairs, gamma):
        q, alphas = g.copy(), []
        for s, y in pairs[::-1]:
            alphas.append((s @ q) / (y @ s))
            q -= alphas[-1] * y
        r = gamma * q
        for (s, y), alpha in zip(pairs, alphas[::-1]):
            r += s * (alpha - (y @ r) / (y @ s))
        return -r

    @pytest.mark.parametrize("memory", range(1, 31))
    def test_matches_two_loop_recursion(self, memory):
        # curvature pairs y = B s of an SPD model Hessian, so every s.y > 0
        rng = np.random.default_rng(memory)
        dim = 40
        x = rng.standard_normal((dim, dim))
        hess = x @ x.T / dim + np.eye(dim)
        s = rng.standard_normal((memory, dim))
        pairs = np.stack([s, s @ hess], axis=1)
        g = rng.standard_normal(dim)
        gamma = (s[-1] @ pairs[-1, 1]) / (pairs[-1, 1] @ pairs[-1, 1])
        got = _lbfgs_direction(g, pairs, gamma)
        want = self._two_loop(g, pairs, gamma)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_no_pairs_is_scaled_steepest_descent(self):
        g = np.arange(5.0)
        assert np.array_equal(_lbfgs_direction(g, np.empty((0, 2, 5)), 0.5), -0.5 * g)


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
        assert trace.polish_evals > 0
        # the whole run, loop and polish (seen: 6 + 21)
        assert len(trace.qfi_values) + trace.polish_evals <= 30
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
        # one budget of max_iters + polish_max_evals channel evaluations,
        # line-search trials included, shared by the loop and the polish
        n = 60
        cfg = IterationConfig(rel_tol=1e-9, max_iters=50, polish_max_evals=5)
        trace = maximize_qfi_over_states(n, self._plateau_channel(n, 0.1), cfg)
        assert trace.polish_evals > 0
        assert len(trace.qfi_values) + trace.polish_evals <= \
            cfg.max_iters + cfg.polish_max_evals
        assert trace.residual > STATIONARITY_RTOL and not trace.converged

    # F of the warm-started delta0 = 0.1 rows on collective 0.02 with the
    # CLI's settings while the see-saw ran to max_iters before a capped
    # polish: N = 20 and 30 then ended at r = 1.4e-3 and 4.8e-5
    NARROW_QFI_BEFORE = {10: 18.650647737386553, 20: 25.39980299257712,
                         30: 28.39573416947108}

    def test_narrow_prior_rows_certify(self):
        warm = None
        for n, before in self.NARROW_QFI_BEFORE.items():
            init = qcore.resample_state(warm, n) if warm is not None else None
            _, trace = gaussian_prior_solve(
                n, 0.1, CollectiveDephasing(0.02),
                IterationConfig(max_iters=3000, rel_tol=1e-9, initial_state=init))
            warm = trace.final_state
            assert trace.residual <= STATIONARITY_RTOL and trace.converged, n
            assert trace.qfi >= before * (1.0 - 1e-12), n

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

    def test_plateau_scan_keeps_its_qfi(self, plateau_rows):
        got = {r.n: r.qfi for r in plateau_rows}
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
    """Reference: one block's step at complex c in complex arithmetic,
    through the forward map sigma = W o c c^H and its SLD L (`block_sld`):
    F_b, and W o (L^2 + 2i [M, L]) added into A."""
    _, ell, f = block_sld(blk.weight * np.outer(cb, cb.conj()), blk.m)
    y = ell @ ell + 2j * (blk.m[:, None] * ell - ell * blk.m[None, :])
    a_out[np.ix_(blk.indices, blk.indices)] += blk.weight * y
    return f


def _step_at(channel, c):
    """(F, A) at c: the step itself at real c; at complex c as `state_qfi`
    reads it, the step at |c| with A turned by the phases D = c / |c|,
    A(c) = D A(|c|) D^H (every channel's Kraus operators are diagonal in n)."""
    if not np.iscomplexobj(c):
        return _iteration_step(channel, c)
    d = np.exp(1j * np.angle(c))
    f, a = _iteration_step(channel, np.abs(c))
    return f, d[:, None] * a * d.conj()


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
    kp = X Lam - Lam X with X = V^T M V, against the real dense step that
    rotated dm o sigma instead, against a 50-digit evaluation of F, and, at
    complex c, the step at |c| (`_step_at`) against the complex-arithmetic
    reference of the forward map.

    The SLD is not unique on sigma's numerical null space, and there the
    rotated and the eigenbasis forms differ (by up to 5e-5 of max|A| under
    dephasing 0.7 at N = 60).  The quantities the optimizer reads agree: F
    and the gradient A c.  Elementwise, A agrees where sigma is well
    conditioned (N <= 2).  `test_real_step_bit_for_bit` keeps the name of the
    bit-for-bit comparison it made while both steps rotated dm o sigma.
    """

    @staticmethod
    def _check_against(channel, c):
        n = channel.n
        step = _step_dense_complex if np.iscomplexobj(c) else _step_dense_real
        f, a = _step_at(channel, c)
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
                            _random_amplitudes(n, n, False))

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 60])
    @pytest.mark.parametrize("name", sorted(DENSE_CHANNELS))
    def test_complex_step(self, n, name):
        self._check_against(DENSE_CHANNELS[name](n),
                            _random_amplitudes(n, n, True))

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    @pytest.mark.parametrize("name", sorted(DENSE_CHANNELS))
    def test_qfi_against_50_digits(self, n, name, complex_):
        # a complex state's F as `state_qfi` evaluates it, at |c|, against
        # the reference computed from c in complex arithmetic
        channel = DENSE_CHANNELS[name](n)
        c = _random_amplitudes(n, n + 100, complex_)
        f = _channel_qfi(channel, np.abs(c) if complex_ else c)
        # seen <= 1.8e-15
        assert f == pytest.approx(_mp_dense_qfi(channel, c), rel=1e-14)


class TestStackedStep:
    """The dense step runs each size class of blocks (`Channel.size_classes`)
    as one zero-padded stack; against the per-block reference steps, F to
    1e-13 and A c to 1e-12 relative."""

    @staticmethod
    def _check(channel, c):
        TestDenseKernel._check_against(channel, c)

    @pytest.mark.parametrize("n", [7, 20, 50, 120])
    def test_classes_follow_the_padding_rule(self, n):
        channel = channel_blocks(LocalDephasing(0.7), n)
        sizes = [np.array([len(b.m) for b in group]) for group in
                 qcore._size_classes(channel.blocks, lambda b: len(b.m))]
        assert len(sizes) == len(channel.size_classes)
        # every block of two or more entries, once, largest first, each
        # padded to the first of its class
        assert np.concatenate(sizes).tolist() == list(range(n + 1, 1, -2))
        for d, st in zip(sizes, channel.size_classes):
            assert st.weight.shape == (len(d), d[0], d[0])
            assert np.all(d[0] ** 3 - d ** 3 <= qcore.STACK_PAD_CUBES)
        # the blocks of N + 1 >= 43 (D^3 - (D - 2)^3 > 10^4) stay alone, and
        # the next smaller block would have broken its class's rule
        assert all(len(d) == 1 for d in sizes if d[0] >= 43)
        for d, after in zip(sizes, sizes[1:]):
            assert d[0] ** 3 - after[0] ** 3 > qcore.STACK_PAD_CUBES

    @pytest.mark.parametrize("complex_", [False, True])
    def test_class_with_both_derivative_branches(self, complex_):
        # dephasing at eta = 1e-5 (every block nearly diagonal, |k| <
        # COHERENCE_RTOL span lambda_max: k rotated) plus one coherent block
        # (eigenbasis derivative), all in one class of size 21; the coherent
        # block is scaled to about the others' share of F.  A class-wide
        # choice of the eigenbasis form moved F by 2e-12 to 4e-12 and A c by
        # 4e-12 to 6e-12
        n = 20
        c = _random_amplitudes(n, 3, complex_)
        coherent = qcore.ChannelBlock(("c",), 3, qcore.m_grid(4),
                                      1e-9 * qcore.collective_weight(4, 0.3))
        channel = Channel.dense(
            n, channel_blocks(LocalDephasing(1e-5), n).blocks + [coherent])
        (st,) = channel.size_classes
        assert st.weight.shape == (11, 21, 21)
        rotated = []
        for blk in channel.blocks[-2:]:
            cb = c[blk.window]
            sigma = blk.weight * np.outer(cb, cb.conj())
            k = (blk.m[:, None] - blk.m[None, :]) * sigma
            top = np.linalg.eigvalsh(sigma)[-1]
            rotated.append(bool(np.max(np.abs(k)) <
                                qcore.COHERENCE_RTOL * (blk.m[-1] - blk.m[0]) * top))
        assert rotated == [True, False]
        self._check(channel, c)

    @pytest.mark.parametrize("n", [20, 41])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_zero_weight_blocks(self, n, complex_):
        # a N00N input under dephasing feeds only the block of j = N/2; the
        # class stacks hold the other blocks with sigma_b = 0 (pad shift 0)
        c = noon_state(n).amplitudes * (np.exp(0.3j) if complex_ else 1.0)
        c = c if complex_ else c.real
        channel = channel_blocks(LocalDephasing(0.7), n)
        assert max(st.weight.shape[0] for st in channel.size_classes) > 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self._check(channel, c)

    @pytest.mark.parametrize("n", [20, 41])
    def test_null_block_beside_its_pads(self, n):
        # the input vanishes on the window of the smallest dephasing block,
        # which is padded in a class with wider blocks: its sigma is all-null
        # next to its zero pads.  The stacked step is the sum of the
        # one-block steps, in F and in A c (seen <= 8e-15).  A itself is not
        # unique on sigma's numerical null space (TestDenseKernel): its
        # entries differed by up to 1.3e-5 of max|A| with and without the
        # pads, as they did when the pads had a shifted diagonal
        channel = channel_blocks(LocalDephasing(0.7), n)
        small = min((b for b in channel.blocks if len(b.m) > 1), key=lambda b: len(b.m))
        (group,) = [g for g in qcore._size_classes(channel.blocks, lambda b: len(b.m))
                    if any(b is small for b in g)]
        assert len(group[0].m) > len(small.m)
        c = _random_amplitudes(n, 5, False)
        c[small.window] = 0.0
        c /= np.linalg.norm(c)
        f, a = _iteration_step(channel, c)
        f_ref, a_ref = 0.0, np.zeros_like(a)
        for blk in channel.blocks:
            f_b, a_b = _iteration_step(Channel.dense(n, [blk]), c)
            f_ref += f_b
            a_ref += a_b
        assert f == pytest.approx(f_ref, rel=1e-13)
        grad = a_ref @ c
        assert np.linalg.norm(a @ c - grad) <= 1e-13 * np.linalg.norm(grad)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_loss_prior_equal_size_classes(self, complex_):
        # loss 0.7 under a delta0 = 0.5 prior at N = 40: the 820 blocks of
        # two or more entries (of S = 861) come in equal-size stacks of up to
        # 40; each size, stacked with no padding, against the per-block steps
        n = 40
        c = _random_amplitudes(n, 11, complex_)
        channel = compose_collective(channel_blocks(Loss(0.7), n), 0.25)
        sizes = sorted({len(b.m) for b in channel.blocks if len(b.m) > 1})
        assert sizes == list(range(2, n + 2))
        for d in sizes:
            same = Channel.dense(n, [b for b in channel.blocks if len(b.m) == d])
            (st,) = same.size_classes
            assert st.weight.shape == (n + 2 - d, d, d)
            self._check(same, c)
        self._check(channel, c)


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
            c = _lowest_eigenpair(a)[1]
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
        # every rank-one row as a dense block, through the SLD kernel, or at
        # complex c through the complex reference step
        c = _random_amplitudes(n, n, complex_)
        channel = channel_blocks(noise, n)
        f, a = _step_at(channel, c)
        if complex_:
            f_ref, a_ref = 0.0, np.zeros((n + 1, n + 1), dtype=complex)
            for blk in channel.dense_blocks():
                f_ref += _step_dense_complex(blk, c[blk.window], a_ref)
        else:
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
        f_ref, a_ref = _step_at(channel, c)
        monkeypatch.setattr(qcore, "RANK_ONE_CHUNK", 7)
        f, a = _step_at(channel, c)
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
        f, a = _step_at(channel, c)
        assert np.vdot(c, a @ c).real == pytest.approx(-f, rel=1e-11, abs=floor)
        assert f == pytest.approx(state_qfi(state, noise), rel=1e-11, abs=floor)
        if kind == "loss":
            f_forward = loss_qfi(state, strength)
            assert f == pytest.approx(f_forward, rel=1e-11, abs=floor)

    # nearly diagonal dephasing blocks, where the eigenbasis derivative
    # X Lam - Lam X alone gave F ~ 1e-20 with <c|A|c> = +F, or missed the
    # duality by 2e-11 relative at eta = 1e-5
    @pytest.mark.parametrize("n, eta, seed, complex_", [
        (37, 1.08e-26, 1, False), (33, 1e-20, 1, False),
        (33, 1e-10, 0, False), (30, 1e-5, 1, True), (31, 1e-5, 2, False)])
    def test_duality_at_vanishing_dephasing(self, n, eta, seed, complex_):
        c = _random_amplitudes(n, seed, complex_)
        f, a = _step_at(channel_blocks(LocalDephasing(eta), n), c)
        assert np.vdot(c, a @ c).real == pytest.approx(-f, rel=1e-11, abs=1e-20)
        # the QFI is at most its channel-extension bound (~eta^2 N here)
        assert f <= 2.0 * eta * eta * n + 1e-20


def _even_vector(n, seed):
    """A random real unit vector with Jc = c."""
    c = _random_amplitudes(n, seed, False)
    c = c + c[::-1]
    return c / np.linalg.norm(c)


def _no_split(mp):
    """Make every channel built under the monkeypatch context `mp` report no
    parity split, so that it runs in the full space."""
    mp.setattr(qcore.Channel, "parity_split", property(lambda self: None))


def _full_space(monkeypatch, n, build, cfg):
    """The run of `maximize_qfi_over_states` that the full-space loop makes
    on the same channel."""
    with monkeypatch.context() as mp:
        _no_split(mp)
        return maximize_qfi_over_states(n, build(n), cfg)


TRAJECTORY_CHANNELS = {
    "dephasing-0.7": lambda n: channel_blocks(LocalDephasing(0.7), n),
    "collective-0.27": lambda n: channel_blocks(CollectiveDephasing(0.27), n),
}


class TestParitySectors:
    """Runs start from |c|; on a channel with a `parity_split` they start
    from its symmetrization sqrt((p + Jp)/2) (J: n -> N - n) and solve on
    the even sector's half-size blocks, and the full-space loop from the
    same even start is the same algorithm up to rounding.  Every other
    channel runs in the full space.  Every run returns real amplitudes
    >= 0."""

    @pytest.fixture(autouse=True)
    def _states_are_nonnegative(self, monkeypatch):
        # every OptimizationTrace a test of this class makes, through any
        # entry point (qfi_iterate, gaussian_prior_solve, the full space)
        trace_type = qfi_opt.OptimizationTrace

        def checked(**fields):
            amps = fields["final_state"].amplitudes
            assert not amps.imag.any() and np.all(amps.real >= 0.0)
            return trace_type(**fields)

        monkeypatch.setattr(qfi_opt, "OptimizationTrace", checked)

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
           seed=st.integers(0, 2 ** 16))
    # nearly diagonal blocks with a middle coordinate (even N): the rotated
    # derivative, which reads the stacks' middle row of k
    @example(n=2, kind="dephasing", strength=1e-3, prior=0.0, seed=0)
    @example(n=30, kind="dephasing", strength=1e-5, prior=0.25, seed=1)
    def test_sector_step_matches_full_step(self, n, kind, strength, prior, seed):
        noise = {"none": NoiseFree(), "dephasing": LocalDephasing(strength),
                 "loss": Loss(strength),
                 "collective": CollectiveDephasing(strength)}[kind]
        channel = compose_collective(channel_blocks(noise, n), prior)
        if channel.parity_split is None:
            # rank-one rows, or the off-centre patterns of loss with a
            # prior: the full space
            assert len(channel.amplitudes) or \
                (kind == "loss" and prior and strength < 1.0)
            return
        c = _even_vector(n, seed)
        ch = _sector_coordinates(c)
        floor, slack = 1e-250, 0.0
        if kind == "dephasing":
            floor, slack = 1e-20, min(1e-14 / max(strength, 1e-7) ** 2, 1.0)
        f, a = _iteration_step(channel, c)
        f_s, a_p = _sector_qfi(channel, ch)
        assert a_p.dtype == a.dtype
        assert f_s == pytest.approx(f, rel=1e-13 + slack, abs=floor)
        grad = a @ c
        assert np.linalg.norm(_unfold(a_p @ ch, n + 1) - grad) <= \
            (1e-11 + slack) * np.linalg.norm(grad) + floor
        assert ch @ a_p @ ch == pytest.approx(-f_s, rel=1e-11, abs=floor)

    def test_sector_step_runs_no_full_step(self, monkeypatch):
        # dephasing at N = 40 has centred blocks of every size 1, 3, .., 41;
        # each of two or more entries is folded, and none goes back through
        # the full-space step
        n = 40
        channel = channel_blocks(LocalDephasing(0.7), n)
        assert sorted(len(b.m) for b in channel.blocks) == list(range(1, n + 2, 2))
        c = _even_vector(n, 7)
        f, a = _iteration_step(channel, c)

        def full_step(*args, **kwargs):
            raise AssertionError("the sector step ran the full-space step")

        monkeypatch.setattr(qcore, "_channel_qfi", full_step)
        ch = _sector_coordinates(c)
        f_s, a_p = _sector_qfi(channel, ch)
        assert f_s == pytest.approx(f, rel=1e-13)
        grad = a @ c
        assert np.linalg.norm(_unfold(a_p @ ch, n + 1) - grad) <= \
            1e-11 * np.linalg.norm(grad)

    @pytest.mark.parametrize("prior", [0.0, 0.25])
    def test_stacks_match_the_blocks_one_by_one(self, prior):
        # dephasing 0.7 at N = 60: the small folded blocks share size classes,
        # each zero-extended at the front to its class's widest window; the
        # stacked step is the sum of the one-block steps.  Also for an input
        # that vanishes on the window of the smallest block, whose sigma is
        # then all-null next to its pads
        n = 60
        channel = compose_collective(channel_blocks(LocalDephasing(0.7), n), prior)
        classes = qcore._size_classes(channel.blocks, lambda b: len(b.m) - len(b.m) // 2)
        small = min((b for b in channel.blocks if len(b.m) > 1), key=lambda b: len(b.m))
        (group,) = [g for g in classes if any(b is small for b in g)]
        assert len(group[0].m) > len(small.m)
        c = _even_vector(n, 4)
        holed = c.copy()
        holed[small.window] = 0.0
        for x in (c, holed / np.linalg.norm(holed)):
            ch = _sector_coordinates(x)
            f, a_p = _sector_qfi(channel, ch)
            f_ref, a_ref = 0.0, np.zeros_like(a_p)
            for blk in channel.blocks:
                f_b, a_b = _sector_qfi(Channel.dense(n, [blk]), ch)
                f_ref += f_b
                a_ref += a_b
            assert f == pytest.approx(f_ref, rel=1e-13)
            assert np.max(np.abs(a_p - a_ref)) <= 1e-13 * np.max(np.abs(a_ref))

    @pytest.mark.parametrize("name, n", [
        ("dephasing-0.7", 5), ("dephasing-0.7", 20), ("dephasing-0.7", 40),
        ("dephasing-0.7", 120), ("collective-0.27", 5), ("collective-0.27", 40),
        ("collective-0.27", 120)])
    def test_same_trajectory_as_the_full_space(self, monkeypatch, name, n):
        # loss with a prior has no split (TestArmSwapSymmetry::test_parity_split)
        build = TRAJECTORY_CHANNELS[name]
        cfg = IterationConfig(polish=False)
        split = maximize_qfi_over_states(n, build(n), cfg)
        full = _full_space(monkeypatch, n, build, cfg)
        assert split.parity == 1
        assert full.parity == 0
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

    # F depends on c through p = |c|^2 alone, concavely, and every channel
    # commutes with J, so F(sqrt((p + Jp)/2)) >= (F(c) + F(Jc))/2 = F(c).
    # The absolute floor is the spurious F (up to ~1e-16) that the dense
    # dephasing step leaves at small eta (TestChannelExtensionBound)
    @settings(max_examples=150, deadline=None, database=None)
    @given(n=st.integers(1, 40), kind=st.sampled_from(
               ["none", "dephasing", "loss", "collective"]),
           strength=st.floats(0.0, 1.0), prior=st.sampled_from([0.0, 0.25]),
           complex_=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_symmetrization_never_lowers_f(self, n, kind, strength, prior,
                                           complex_, seed):
        noise = {"none": NoiseFree(), "dephasing": LocalDephasing(strength),
                 "loss": Loss(strength),
                 "collective": CollectiveDephasing(strength)}[kind]
        channel = compose_collective(channel_blocks(noise, n), prior)
        c = _random_amplitudes(n, seed, complex_)
        p = np.abs(c) ** 2
        f, _ = _step_at(channel, c)
        f_sym, _ = _iteration_step(channel, np.sqrt(0.5 * (p + p[::-1])))
        floor = 1e-14 if kind == "dephasing" else 1e-250
        assert f_sym >= f * (1.0 - 1e-12) - floor

    @pytest.mark.parametrize("kind", ["perturbed", "complex"])
    def test_asymmetric_start_runs_from_its_symmetrization(self, kind):
        # on a split channel the run from c is the run from sqrt((p + Jp)/2),
        # p = |c|^2, up to the rounding of the normalization
        n = 40
        channel = TRAJECTORY_CHANNELS["collective-0.27"](n)
        rng = np.random.default_rng(5)
        c = qcore.sine_profile_state(n).amplitudes
        c = c + (1e-3 * rng.standard_normal(n + 1) if kind == "perturbed"
                 else 0.3j * rng.standard_normal(n + 1))
        start = SymmetricPureState(n, c, normalize=True)
        p = np.abs(start.amplitudes) ** 2
        symmetrized = SymmetricPureState(n, np.sqrt(0.5 * (p + p[::-1])),
                                         normalize=True)
        trace, ref = (maximize_qfi_over_states(
            n, channel, IterationConfig(initial_state=s, polish=False))
            for s in (start, symmetrized))
        assert trace.parity == ref.parity == 1
        assert len(trace.qfi_values) == len(ref.qfi_values)
        assert np.allclose(trace.qfi_values, ref.qfi_values, rtol=1e-12, atol=0)

    def test_warm_sweep_runs_on_the_sectors(self, monkeypatch):
        # criterion 3's sweep, shortened: every row runs on the sectors from
        # the symmetrization of its warm start and reaches the full-space
        # sweep's F
        def sweep():
            warm, rows = None, []
            for n in range(26, 41):
                init = qcore.resample_state(warm, n) if warm is not None else None
                trace = qfi_iterate(n, LocalDephasing(0.7), IterationConfig(
                    max_iters=3000, rel_tol=1e-9, initial_state=init, polish=False))
                warm = trace.final_state
                rows.append(trace)
            return rows

        split = sweep()
        with monkeypatch.context() as mp:
            _no_split(mp)
            full = sweep()
        for n, got, ref in zip(range(26, 41), split, full):
            assert got.parity == 1, n
            assert ref.parity == 0
            assert got.qfi == pytest.approx(ref.qfi, rel=1e-12), n

    @pytest.mark.parametrize("parity", [1, -1])
    def test_complex_sector_start(self, monkeypatch, parity):
        # a chirped sine profile, times m for an odd start (Jc = -c): either
        # way |c| is even, so its symmetrization is |c| itself and the run on
        # the even sector follows the full-space run from |c|.  (From random
        # sector vectors the first steps' eigenvectors are ill-conditioned,
        # and the two F sequences drift apart by up to 2e-10 there.)
        n = 41
        build = TRAJECTORY_CHANNELS["collective-0.27"]
        m = np.arange(n + 1) - n / 2.0
        c = qcore.sine_profile_state(n).amplitudes * np.exp(0.3j * m * m)
        c = c if parity > 0 else m * c
        assert np.allclose(c[::-1], parity * c, rtol=0, atol=1e-12)
        cfg = IterationConfig(initial_state=SymmetricPureState(n, c, normalize=True),
                              polish=False)
        split = maximize_qfi_over_states(n, build(n), cfg)
        full = _full_space(monkeypatch, n, build, cfg)
        assert split.parity == 1 and full.parity == 0
        assert len(split.qfi_values) == len(full.qfi_values)
        assert np.allclose(split.qfi_values, full.qfi_values, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("noise, n", [(CollectiveDephasing(0.27), 41), (Loss(0.7), 12)],
                             ids=["collective-0.27", "loss-0.7"])
    @pytest.mark.parametrize("kind", ["complex", "mixed-sign", "odd"])
    def test_start_runs_as_its_modulus(self, noise, n, kind):
        # F and A are covariant under diagonal unitaries, so a start runs as
        # |c|, bit for bit: on the even sector (collective) and in the full
        # space with the one-pair eigensolve (loss)
        channel = channel_blocks(noise, n)
        rng = np.random.default_rng(3)
        m = np.arange(n + 1) - n / 2.0
        c = qcore.sine_profile_state(n).amplitudes.real
        c = {"complex": c * np.exp(2j * np.pi * rng.random(n + 1)),
             "mixed-sign": c * rng.choice([-1.0, 1.0], n + 1),
             "odd": m * c}[kind]
        start = SymmetricPureState(n, c, normalize=True)
        modulus = SymmetricPureState(n, np.abs(start.amplitudes))
        got, ref = (maximize_qfi_over_states(
            n, channel, IterationConfig(max_iters=30, initial_state=s))
            for s in (start, modulus))
        assert got.parity == ref.parity == (noise != Loss(0.7))
        assert np.array_equal(got.qfi_values, ref.qfi_values)
        assert got.qfi == ref.qfi and got.polish_evals == ref.polish_evals
        assert np.array_equal(got.residual, ref.residual)
        assert np.array_equal(got.final_state.amplitudes, ref.final_state.amplitudes)

    @pytest.mark.parametrize("n", [1, 2, 40])
    @pytest.mark.parametrize("noise", [LocalDephasing(0.0), LocalDephasing(1.0),
                                       Loss(0.0), Loss(1.0), CollectiveDephasing(0.0)])
    def test_parameter_edges(self, monkeypatch, n, noise):
        phase_blind = noise in (LocalDephasing(0.0), Loss(0.0))
        trace = qfi_iterate(n, noise)
        full = _full_space(monkeypatch, n, lambda k: channel_blocks(noise, k),
                           IterationConfig())
        # every dense channel is split at every N; loss has rank-one rows only
        assert trace.parity == (not isinstance(noise, Loss))
        if phase_blind:
            assert trace.qfi == 0.0 == full.qfi and trace.converged
        else:
            assert trace.qfi == pytest.approx(n * n, rel=1e-12)
            assert trace.qfi == pytest.approx(full.qfi, rel=1e-12)
        # composed with a prior, loss too becomes dense (centred when l0 = l1)
        cost, prior_trace = gaussian_prior_solve(n, 0.5, noise)
        with monkeypatch.context() as mp:
            _no_split(mp)
            cost_full, _ = gaussian_prior_solve(n, 0.5, noise)
        assert prior_trace.parity == (noise != Loss(0.0))
        assert cost == pytest.approx(cost_full, rel=1e-12)
