"""Closed-form limit formulas and the grouping threshold."""

import math

import numpy as np
import pytest

from phaselim.asymptotics import (BayesPi, CollectiveLimit, DephasingLimit,
                                  GeneralUnitary, HeisenbergCR, LossLimit,
                                  evaluate, group_size_threshold)


class TestEvaluate:
    def test_bayes_pi(self):
        assert evaluate(BayesPi(), 100) == pytest.approx(math.pi / 100)

    def test_heisenberg(self):
        assert evaluate(HeisenbergCR(), 25) == pytest.approx(0.04)

    def test_loss_limit(self):
        assert evaluate(LossLimit(0.7), 100) == pytest.approx(
            math.sqrt(0.3 / 70.0))

    def test_dephasing_limit(self):
        assert evaluate(DephasingLimit(0.7), 50) == pytest.approx(
            math.sqrt((1 - 0.49) / (0.49 * 50)))

    def test_collective_is_constant_in_n(self):
        spec = CollectiveLimit(0.02, 0.5)
        want = math.sqrt(0.02 / (1 + 0.02 / 0.25))
        assert evaluate(spec, 1) == evaluate(spec, 10_000) == pytest.approx(want)

    def test_collective_infinite_prior_floor(self):
        assert evaluate(CollectiveLimit(0.09), 7) == pytest.approx(0.3)

    def test_general_unitary_reduces_to_phase_case(self):
        for n in (1, 13, 400):
            assert evaluate(GeneralUnitary(0.5, -0.5), n) == pytest.approx(
                evaluate(BayesPi(), n))

    @pytest.mark.parametrize("spec", [HeisenbergCR(), BayesPi(),
                                      LossLimit(0.6), DephasingLimit(0.8),
                                      GeneralUnitary(1.0, -2.0)])
    def test_positive_and_decreasing(self, spec):
        vals = [evaluate(spec, n) for n in (1, 2, 5, 20, 100)]
        assert all(v > 0 for v in vals)
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    def test_algebraic_identities_at_random_points(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            eta = float(rng.uniform(0.05, 1.0))
            n = int(rng.integers(1, 500))
            assert evaluate(LossLimit(eta), n) == pytest.approx(
                math.sqrt((1 - eta) / (eta * n)), rel=1e-14)
            assert evaluate(DephasingLimit(eta), n) == pytest.approx(
                math.sqrt((1 - eta * eta) / (eta * eta * n)), rel=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LossLimit(0.0)
        with pytest.raises(ValueError):
            DephasingLimit(1.2)
        for gamma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma"):
                CollectiveLimit(gamma)
        with pytest.raises(ValueError, match="delta0"):
            CollectiveLimit(0.1, math.nan)
        assert CollectiveLimit(0.1, math.inf) == CollectiveLimit(0.1)
        with pytest.raises(ValueError):
            GeneralUnitary(0.0, 0.0)
        with pytest.raises(ValueError):
            evaluate(BayesPi(), 0)


class TestGroupSizeThreshold:
    def test_direct_substitution(self):
        assert group_size_threshold(1.0, 1.0, 1.0, 0.1) == pytest.approx(10.0)

    def test_square_root_case(self):
        assert group_size_threshold(1.0, 4.0, 2.0, 0.01) == pytest.approx(20.0)

    @pytest.mark.parametrize("alpha,beta,gamma,eps", [
        (1.0, 1.0, 1.0, 0.1), (2.0, 3.0, 0.5, 0.25), (0.7, 0.2, 2.0, 0.02),
        (5.0, 1.0, 1.5, 0.5), (1.0, 10.0, 3.0, 0.001)])
    def test_finite_n_expression_and_limit(self, alpha, beta, gamma, eps):
        limit = (beta / (alpha * eps)) ** (1.0 / gamma)
        assert group_size_threshold(alpha, beta, gamma, eps) == pytest.approx(
            limit, rel=1e-14)
        exact = (alpha * eps / beta + (1 - eps) * 100.0 ** (-gamma)) ** (-1 / gamma)
        assert group_size_threshold(alpha, beta, gamma, eps, n=100) == \
            pytest.approx(exact, rel=1e-14)
        # the finite-N form approaches the limit from below as N grows
        gaps = [abs(group_size_threshold(alpha, beta, gamma, eps, n=n) - limit)
                for n in (10 ** 3, 10 ** 6, 10 ** 9)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2 * limit

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            group_size_threshold(0.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            group_size_threshold(1.0, 1.0, 1.0, 1.0)
