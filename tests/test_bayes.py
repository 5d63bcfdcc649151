"""Bayesian-cost tests: the covariant tridiagonal reduction against the
analytic spectrum and a direct quadrature oracle, the Gaussian-prior duality,
the prior-aware Cramer-Rao bound, and the indefinite-particle-number bounds."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from phaselim import oracles, qfi_opt
from phaselim.angmom import coupling_blocks
from phaselim.bayes import (GaussianPrior, ParticleNumberMixture,
                            bayesian_cr_bound, covariant_cost,
                            covariant_m_matrix, gaussian_prior_cost,
                            gaussian_prior_solve, indefinite_bayes_bound,
                            mixture_qfi)
from phaselim.qcore import (CollectiveDephasing, LocalDephasing, Loss,
                            NoiseFree, resample_state, sine_profile_state,
                            _loss_table)
from phaselim.qfi_opt import IterationConfig, OptimizationTrace, qfi_iterate


def analytic_noise_free_cost_sq(n: int) -> float:
    return 2.0 - 2.0 * math.cos(math.pi / (n + 2))


def _m_offdiagonal_per_noise(n, noise):
    """Reference: the superdiagonal of M built per noise model, as it was
    before M read the channel's blocks."""
    off = np.zeros(n)
    if isinstance(noise, NoiseFree):
        off[:] = 1.0
    elif isinstance(noise, LocalDephasing):
        # sum over every spin sector that supports both m and m+1
        for tj, block in coupling_blocks(n, noise.eta).items():
            tms = np.arange(-tj, tj + 1, 2)
            rows = (tms[:-1] + n) // 2
            off[rows] += np.diagonal(block, offset=1)
    elif isinstance(noise, Loss):
        _, _, b = _loss_table(n, noise.eta)
        off[:] = np.einsum("si,si->i", b[:, :-1], b[:, 1:])
    else:
        off[:] = math.exp(-noise.gamma / 2.0)
    return off


class TestCovariantMatrix:
    @pytest.mark.parametrize("n", [1, 2, 7, 30, 61])
    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    def test_superdiagonal_matches_per_noise_reference(self, n, eta):
        for noise in (NoiseFree(), LocalDephasing(eta), Loss(eta)):
            got = np.diagonal(covariant_m_matrix(n, noise), offset=1)
            assert np.array_equal(got, _m_offdiagonal_per_noise(n, noise))
        noise = CollectiveDephasing(eta)
        got = np.diagonal(covariant_m_matrix(n, noise), offset=1)
        np.testing.assert_allclose(got, _m_offdiagonal_per_noise(n, noise),
                                   rtol=1e-15, atol=0.0)

    def test_noise_free_single_qubit(self):
        assert np.array_equal(covariant_m_matrix(1, NoiseFree()),
                              np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_dephasing_single_qubit(self):
        m = covariant_m_matrix(1, LocalDephasing(0.7))
        assert np.allclose(m, [[0.0, 0.7], [0.7, 0.0]], atol=1e-14)

    def test_loss_single_qubit(self):
        m = covariant_m_matrix(1, Loss(0.7))
        assert np.allclose(m, [[0.0, 0.7], [0.7, 0.0]], atol=1e-14)

    def test_collective_uniform_offdiagonal(self):
        m = covariant_m_matrix(3, CollectiveDephasing(0.4))
        off = np.diag(m, 1)
        assert np.allclose(off, math.exp(-0.2), atol=1e-15)

    def test_tridiagonal_symmetric(self):
        m = covariant_m_matrix(6, LocalDephasing(0.5))
        assert np.allclose(m, m.T)
        assert np.max(np.abs(np.triu(m, 2))) == 0.0
        assert np.max(np.abs(np.diag(m))) == 0.0


class TestCovariantCost:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 20, 50, 120, 200])
    def test_noise_free_matches_analytic_spectrum(self, n):
        res = covariant_cost(n, NoiseFree())
        assert res.cost_squared == pytest.approx(
            analytic_noise_free_cost_sq(n), abs=1e-12)
        assert res.cost == pytest.approx(math.sqrt(res.cost_squared))

    def test_noise_free_cost_to_the_last_bits(self):
        # cost = 2 sin(pi/(2N+4)) in closed form; the cost is a sum of
        # nonnegative terms, not 2 - lambda_max, so it keeps its relative
        # precision as it falls like pi/N (2 - lambda_max was off by up to
        # 4.4e-13 at N <= 200)
        for n in range(1, 401):
            want = 2.0 * math.sin(math.pi / (2 * n + 4))
            assert covariant_cost(n, NoiseFree()).cost == pytest.approx(
                want, rel=2e-15, abs=0.0), n

    @pytest.mark.parametrize("n", [5, 20, 60])
    @pytest.mark.parametrize("noise", [LocalDephasing(0.7), Loss(0.7),
                                       CollectiveDephasing(0.02)])
    def test_matches_a_50_digit_eigensolve(self, n, noise):
        # the same M, its top eigenvalue bisected on Sturm counts to 50 digits
        off = covariant_m_matrix(n, noise).diagonal(1)
        with mpmath.workdps(50):
            o2 = [mpmath.mpf(float(x)) ** 2 for x in off]

            def below(x):  # eigenvalues of M below x: negative pivots of M - x
                count, d = 0, -x
                for b2 in o2:
                    count += d < 0
                    d = -x - b2 / d
                return count + (d < 0)

            lo, hi = mpmath.mpf(0), mpmath.mpf(2)
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if below(mid) == n + 1 else (mid, hi)
            want = float(2 - lo)
        got = covariant_cost(n, noise)
        assert got.cost_squared == pytest.approx(want, rel=1e-14, abs=0.0)
        assert got.lambda_max == 2.0 - got.cost_squared

    def test_single_qubit_cost_is_one(self):
        assert covariant_cost(1, NoiseFree()).cost_squared == pytest.approx(1.0)

    def test_optimal_state_entrywise_nonnegative(self):
        for noise in (NoiseFree(), LocalDephasing(0.7), Loss(0.5)):
            res = covariant_cost(12, noise)
            assert np.all(res.optimal_state.amplitudes.real >= -1e-12)

    @pytest.mark.parametrize("noise", [NoiseFree(), LocalDephasing(0.6),
                                       Loss(0.8), CollectiveDephasing(0.2)])
    def test_lambda_max_below_two(self, noise):
        for n in (1, 5, 17, 60):
            res = covariant_cost(n, noise)
            assert res.lambda_max <= 2.0
            assert res.cost_squared >= 0.0

    def test_cost_monotone_in_n(self):
        for noise in (NoiseFree(), LocalDephasing(0.7), Loss(0.7)):
            costs = [covariant_cost(n, noise).cost for n in range(1, 40)]
            assert all(costs[i + 1] <= costs[i] + 1e-12
                       for i in range(len(costs) - 1))

    def test_cost_monotone_in_noise_strength(self):
        for n in (3, 10, 25):
            deph = [covariant_cost(n, LocalDephasing(eta)).cost
                    for eta in (1.0, 0.8, 0.5, 0.2)]
            assert all(deph[i] <= deph[i + 1] + 1e-12
                       for i in range(len(deph) - 1))
            lossy = [covariant_cost(n, Loss(eta)).cost
                     for eta in (1.0, 0.8, 0.5, 0.2)]
            assert all(lossy[i] <= lossy[i + 1] + 1e-12
                       for i in range(len(lossy) - 1))

    def test_pi_gap_against_cramer_rao(self):
        # N * cost exceeds the 1/N bound and approaches pi from below
        values = [n * covariant_cost(n, NoiseFree()).cost for n in (5, 40, 200)]
        assert all(v > 1.0 for v in values)
        assert values[0] < values[1] < values[2] < math.pi
        assert values[2] == pytest.approx(math.pi, rel=0.02)

    def test_dephasing_large_n_scaling(self):
        eta = 0.7
        limit = math.sqrt((1 - eta * eta) / (eta * eta))
        vals = [math.sqrt(n) * covariant_cost(n, LocalDephasing(eta)).cost
                for n in (30, 60, 120)]
        assert vals[0] > vals[1] > vals[2] > limit
        assert vals[2] == pytest.approx(limit, rel=0.15)

    def test_quadrature_oracle_at_optimum(self):
        # the covariant average cost of the all-ones seed and the optimal
        # state, integrated directly, equals 2 - lambda_max
        for n in (1, 2, 3, 4):
            res = covariant_cost(n, NoiseFree())
            seed = np.ones((n + 1, n + 1))
            got = oracles.covariant_cost_quadrature(res.optimal_state, seed)
            assert got == pytest.approx(res.cost_squared, abs=1e-10)

    def test_random_seeds_never_beat_optimum(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            res = covariant_cost(n, NoiseFree())
            for _ in range(60):
                g = rng.standard_normal((n + 1, n + 1))
                psd = g @ g.T
                d = np.sqrt(np.diag(psd))
                seed = psd / np.outer(d, d)  # unit diagonal, PSD
                state = oracles.random_state(n, seed=rng.integers(1 << 30))
                got = oracles.covariant_cost_quadrature(state, seed)
                assert got >= res.cost_squared - 1e-10

    def test_unsupported_noise_rejected(self):
        with pytest.raises(ValueError):
            covariant_m_matrix(3, "white-noise")


class TestDephasingRatioOracles:
    """Full 2^N-space evidence that the ratio bayes/cr under dephasing 0.7
    rises up to N = 7: both of its ingredients are checked against the
    brute-force oracles."""

    ETA = 0.7
    N_MAX = 7

    def test_warm_sweep_optimum_matches_full_space_and_restarts(self):
        noise = LocalDephasing(self.ETA)
        warm, ratios = None, {}
        for n in range(1, self.N_MAX + 1):
            init = resample_state(warm, n) if warm is not None else None
            trace = qfi_iterate(n, noise, IterationConfig(
                rel_tol=1e-9, max_iters=3000, initial_state=init, polish=False))
            warm = trace.final_state
            full = oracles.brute_dephasing_qfi(trace.final_state, self.ETA)
            assert full == pytest.approx(trace.qfi, rel=1e-10)
            cold = qfi_iterate(n, noise).qfi
            assert cold == pytest.approx(trace.qfi, rel=1e-8)
            ratios[n] = covariant_cost(n, noise).cost * math.sqrt(trace.qfi)
        assert all(ratios[n + 1] > ratios[n] for n in range(1, self.N_MAX))

    def test_m_matrix_form_equals_block_superdiagonal_sum(self):
        # dephasing keeps m, so each superdiagonal entry of a spin block is
        # a nonnegative weight times c_m conj(c_{m+1}); the best covariant
        # seed collects their moduli, which M sums as |c|^T M |c| / 2
        for n in range(2, self.N_MAX + 1):
            m = covariant_m_matrix(n, LocalDephasing(self.ETA))
            for seed in (0, 1):
                state = oracles.random_state(n, seed=50 * n + seed)
                mod = np.abs(state.amplitudes)
                blocks = oracles.brute_dephasing_blocks(state, self.ETA)
                brute = sum(np.abs(np.diagonal(b, 1)).sum()
                            for b in blocks.values())
                assert mod @ m @ mod / 2 == pytest.approx(brute, abs=1e-14)


class TestGaussianPriorCost:
    def test_cost_never_exceeds_prior_width(self):
        for n in (1, 5, 20):
            cost = gaussian_prior_cost(n, 0.3, NoiseFree())
            assert cost <= 0.3 + 1e-12

    def test_dominates_prior_aware_cramer_rao(self):
        for noise in (NoiseFree(), LocalDephasing(0.7)):
            for n in (2, 6, 12):
                delta0 = 0.4
                cost = gaussian_prior_cost(n, delta0, noise)
                f_phys = qfi_iterate(n, noise).qfi
                assert cost >= bayesian_cr_bound(GaussianPrior(delta0), f_phys) - 1e-10

    def test_noise_free_approaches_pi_over_n(self):
        n = 100
        costs = [gaussian_prior_cost(n, d0, NoiseFree(),
                                     IterationConfig(rel_tol=1e-10))
                 for d0 in (0.3, 0.5)]
        for cost in costs:
            assert n * cost == pytest.approx(math.pi, rel=0.12)
        # averaged-state QFI duality: f = 1/(delta0^2 + pi^2/n^2) at large n
        f_dual = qfi_iterate(n, CollectiveDephasing(0.09)).qfi
        assert f_dual == pytest.approx(1.0 / (0.09 + math.pi ** 2 / n ** 2),
                                       rel=0.01)

    @pytest.mark.parametrize("a,b", [((50, 0.3), (75, 0.2)),
                                     ((100, 0.3), (150, 0.2))],
                             ids=["x15", "x30"])
    def test_noise_free_cost_depends_on_n_times_width(self, a, b):
        # N cost / pi is a function of x = N delta0 alone up to O(1/N) at fixed
        # x: the prior-averaged kernel exp(-delta0^2 (i-j)^2 / 2) on the grid
        # i/N becomes exp(-x^2 (s-s')^2 / 2) on [0, 1].  Both pairs share x
        # (15, then 30).  The delta0 = 0.2 solves end at r ~ 1e-6 under this
        # budget, so only the agreement is asserted, not convergence
        cfg = IterationConfig(rel_tol=1e-10, max_iters=400, polish=True,
                              polish_max_evals=600)
        f_a, f_b = (n * gaussian_prior_cost(n, delta0, NoiseFree(), cfg) / math.pi
                    for n, delta0 in (a, b))
        assert f_a == pytest.approx(f_b, rel=3e-3)

    def test_collective_floor(self):
        n, gamma, delta0 = 80, 0.1, 0.5
        cost = gaussian_prior_cost(n, delta0, CollectiveDephasing(gamma))
        floor = math.sqrt(gamma / (1.0 + gamma / delta0 ** 2))
        assert cost == pytest.approx(floor, rel=0.02)
        assert cost >= floor - 1e-9

    def test_wide_prior_warns(self):
        with pytest.warns(UserWarning):
            gaussian_prior_cost(2, 1.5, NoiseFree())
        # the warning points at the line that built the prior, not at the
        # dataclass-generated __init__
        with pytest.warns(UserWarning) as record:
            GaussianPrior(1.5)
        assert [w.filename for w in record] == [__file__]

    def test_cost_is_the_solve_cost(self):
        noise = LocalDephasing(0.7)
        cost, trace = gaussian_prior_solve(12, 0.4, noise)
        assert gaussian_prior_cost(12, 0.4, noise) == cost
        assert cost == 0.4 * math.sqrt(1.0 - 0.4 ** 2 * trace.qfi)

    def test_duality_slack_clamped(self, caplog, monkeypatch):
        import logging
        # tiny prior-information regime: 1 - delta0^2 F can graze zero
        # (at N = 1, delta0 = 0.9 it still leaves a slack of 0.64)
        cost = gaussian_prior_cost(1, 0.9, NoiseFree())
        assert cost >= 0.0

        # an optimizer that overshoots the duality edge by 1e-12 relative
        def overshoot(n, blocks, cfg=None):
            f = (1.0 + 1e-12) / 0.9 ** 2
            return OptimizationTrace(qfi_values=np.array([f]), converged=True,
                                     final_state=sine_profile_state(n), qfi=f)

        monkeypatch.setattr(qfi_opt, "maximize_qfi_over_states", overshoot)
        with caplog.at_level(logging.WARNING, logger="phaselim.bayes"):
            assert gaussian_prior_cost(1, 0.9, NoiseFree()) == 0.0
        assert any(rec.levelno == logging.WARNING and "duality slack" in rec.message
                   and "clipped to zero" in rec.message for rec in caplog.records)


class TestParameterEdges:
    """Defined behaviour at eta in {0, 1} and gamma = 0, N = 1 included."""

    NS = [1, 2, 7, 60]

    @pytest.mark.parametrize("noise", [Loss(0.0), LocalDephasing(0.0)])
    @pytest.mark.parametrize("n", NS)
    def test_phase_blind_channel_costs_the_flat_prior(self, n, noise):
        # exactly, and without a division by the zero |M c|
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = covariant_cost(n, noise)
        assert res.cost_squared == 2.0 and res.lambda_max == 0.0
        assert np.all(res.optimal_state.amplitudes >= 0.0)

    @pytest.mark.parametrize("noise", [Loss(1.0), CollectiveDephasing(0.0)])
    @pytest.mark.parametrize("n", NS)
    def test_noiseless_limit_is_exactly_noise_free(self, n, noise):
        assert np.array_equal(covariant_m_matrix(n, noise),
                              covariant_m_matrix(n, NoiseFree()))

    @pytest.mark.parametrize("n", NS)
    def test_dephasing_one_matches_noise_free(self, n):
        # M's superdiagonal is summed over spin sectors, so it is 1 only to
        # rounding: lambda_max agrees to 8.9e-16 at N = 60, while the small
        # cost_squared moves by 4.2e-13 relative there with M itself
        got = covariant_cost(n, LocalDephasing(1.0)).lambda_max
        want = covariant_cost(n, NoiseFree()).lambda_max
        assert abs(got - want) <= 1e-13

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("noise", [NoiseFree(), LocalDephasing(0.7),
                                       Loss(0.7), CollectiveDephasing(0.2)])
    def test_particle_number_checked_up_front(self, n, noise):
        # covariant_cost failed inside scipy's tridiagonal solver, and under
        # dephasing with a message about particles
        for solve in (covariant_m_matrix, covariant_cost,
                      lambda k, nz: gaussian_prior_solve(k, 0.5, nz)):
            with pytest.raises(ValueError, match="n must be >= 1"):
                solve(n, noise)

    @pytest.mark.parametrize("noise", [Loss(0.0), LocalDephasing(0.0)])
    def test_phase_blind_prior_solve_returns_the_prior_width(self, noise):
        cost, trace = gaussian_prior_solve(5, 0.3, noise)
        assert cost == 0.3
        assert trace.qfi == 0.0
        assert trace.converged
        assert math.isnan(trace.residual)


class TestBayesianCrBound:
    def test_prior_only_limit(self):
        assert bayesian_cr_bound(GaussianPrior(0.25), 0.0) == pytest.approx(0.25)

    def test_combines_prior_and_qfi(self):
        got = bayesian_cr_bound(GaussianPrior(0.5), 12.0)
        assert got == pytest.approx(1.0 / math.sqrt(12.0 + 4.0))

    def test_large_qfi_limit(self):
        assert bayesian_cr_bound(GaussianPrior(0.5), 1e12) == pytest.approx(
            1e-6, rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="unsupported prior"):
            bayesian_cr_bound(0.3, 1.0)  # a bare width is not a prior
        with pytest.raises(ValueError):
            bayesian_cr_bound(GaussianPrior(0.3), -1.0)
        for width in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="delta0"):
                GaussianPrior(width)


class TestMixtures:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            ParticleNumberMixture([(2, 0.4)])
        with pytest.raises(ValueError):
            ParticleNumberMixture([(2, 1.2), (3, -0.2)])
        with pytest.raises(ValueError):
            ParticleNumberMixture([])
        # NaN fails every comparison, so the sign and sum tests alone pass it
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                ParticleNumberMixture([(0, bad), (1000, 0.01)])

    def test_mean_particle_number(self):
        mix = ParticleNumberMixture([(0, 0.99), (1000, 0.01)])
        assert mix.mean_n == pytest.approx(10.0)

    def test_vacuum_noon_qfi(self):
        # mean-n * n form of the mixture QFI
        for n, nbar in ((100, 5.0), (1000, 10.0)):
            p = nbar / n
            mix = ParticleNumberMixture([(0, 1.0 - p), (n, p)])
            got = mixture_qfi(mix, {0: 0.0, n: float(n * n)})
            assert got == pytest.approx(nbar * n, rel=1e-12)

    def test_single_entry_passthrough(self):
        mix = ParticleNumberMixture([(7, 1.0)])
        assert mixture_qfi(mix, {7: 3.2}) == pytest.approx(3.2)

    def test_two_equal_noon_entries(self):
        mix = ParticleNumberMixture([(4, 0.5), (8, 0.5)])
        got = mixture_qfi(mix, {4: 16.0, 8: 64.0})
        assert got == pytest.approx((16.0 + 64.0) / 2.0)

    def test_missing_entry_rejected(self):
        mix = ParticleNumberMixture([(4, 1.0)])
        with pytest.raises(ValueError):
            mixture_qfi(mix, {5: 1.0})


class TestIndefiniteBound:
    def test_single_entry_expressions_coincide(self):
        mix = ParticleNumberMixture([(50, 1.0)])
        bound = indefinite_bayes_bound(mix, 0.2)
        assert bound.exact == pytest.approx(bound.relaxed, rel=1e-12)

    def test_exact_dominates_relaxed_on_random_mixtures(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            size = rng.integers(2, 6)
            ns = sorted(int(n) for n in rng.integers(10, 2000, size=size))
            ps = rng.dirichlet(np.ones(size))
            mix = ParticleNumberMixture(list(zip(ns, ps)))
            bound = indefinite_bayes_bound(mix, float(rng.uniform(0.05, 0.8)))
            assert bound.exact >= bound.relaxed - 1e-12

    def test_definite_large_n_approaches_pi_over_n(self):
        nbar = 10_000
        bound = indefinite_bayes_bound(ParticleNumberMixture([(nbar, 1.0)]), 0.5)
        assert bound.relaxed == pytest.approx(math.pi / nbar, rel=1e-4)

    def test_diagnostic_on_small_sectors(self, caplog):
        import logging
        mix = ParticleNumberMixture([(0, 0.5), (100, 0.5)])
        with caplog.at_level(logging.INFO, logger="phaselim.bayes"):
            indefinite_bayes_bound(mix, 0.3)
        assert any("small sectors" in rec.message for rec in caplog.records)

    def test_domain_error(self):
        for delta0 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="delta0"):
                indefinite_bayes_bound(ParticleNumberMixture([(5, 1.0)]), delta0)
