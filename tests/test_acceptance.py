"""Acceptance gate: one test per criterion, each printed as PASS/FAIL with
its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import json
import math
import time

import numpy as np

from phaselim import cli, oracles
from phaselim.asymptotics import group_size_threshold
from phaselim.bayes import (ParticleNumberMixture, covariant_cost,
                            gaussian_prior_cost, indefinite_bayes_bound,
                            mixture_qfi)
from phaselim.qcore import (CollectiveDephasing, LocalDephasing, Loss,
                            NoiseFree, fidelity_qfi_check, resample_state,
                            state_qfi)
from phaselim.qfi_opt import IterationConfig, cr_bound, qfi_iterate


class Gate:
    """Collects sub-clause outcomes for one criterion and prints the verdict."""

    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label
        self.failures = []
        self.notes = []
        self._t0 = time.perf_counter()

    def check(self, ok: bool, detail: str):
        if not ok:
            self.failures.append(detail)
        self.notes.append(("PASS" if ok else "FAIL") + ": " + detail)

    def finish(self, budget_s: float):
        elapsed = time.perf_counter() - self._t0
        self.check(elapsed < budget_s,
                   f"runtime {elapsed:.1f}s within budget {budget_s:.0f}s")
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"[criterion {self.number}] {verdict} - {self.label} "
              f"({elapsed:.1f}s)")
        for note in self.notes:
            print(f"    {note}")
        assert not self.failures, (
            f"criterion {self.number} failed sub-clauses:\n  " +
            "\n  ".join(self.failures))


def warm_sweep(noise, n_max, rel_tol=1e-9):
    """Optimized QFI for every N = 1..n_max with warm starts."""
    qfis = {}
    warm = None
    for n in range(1, n_max + 1):
        init = resample_state(warm, n) if warm is not None else None
        cfg = IterationConfig(rel_tol=rel_tol, max_iters=3000,
                              initial_state=init, polish=False)
        trace = qfi_iterate(n, noise, cfg)
        warm = trace.final_state
        qfis[n] = trace.qfi
    return qfis


def test_criterion_01_noise_free_flat_prior_cost():
    gate = Gate(1, "noise-free covariant cost matches the analytic spectrum")
    worst = 0.0
    for n in range(1, 201):
        got = covariant_cost(n, NoiseFree()).cost
        want = math.sqrt(2.0 - 2.0 * math.cos(math.pi / (n + 2)))
        worst = max(worst, abs(got - want))
    gate.check(worst < 1e-10, f"max |cost - analytic| = {worst:.2e} < 1e-10 "
                              "over N = 1..200")
    n_cost = 200 * covariant_cost(200, NoiseFree()).cost
    gate.check(abs(n_cost - math.pi) / math.pi < 0.02,
               f"N*cost = {n_cost:.4f} within 2% of pi at N = 200")
    gate.finish(10.0)


def test_criterion_02_heisenberg_baseline():
    gate = Gate(2, "noise-free optimizer reaches the Heisenberg value N^2")
    worst_rel, worst_n = 0.0, 0
    for n in range(1, 51):
        trace = qfi_iterate(n, NoiseFree())
        rel = abs(trace.qfi - n * n) / (n * n)
        if rel > worst_rel:
            worst_rel, worst_n = rel, n
    gate.check(worst_rel < 1e-8,
               f"max relative error {worst_rel:.2e} (at N={worst_n}) < 1e-8 "
               "over N = 1..50")
    gate.finish(30.0)


def _two_sided_rows(noise, asym, n_max=120):
    qfis = warm_sweep(noise, n_max)
    rows = []
    for n in range(1, n_max + 1):
        bayes = covariant_cost(n, noise).cost
        rows.append((n, bayes, qfis[n], cr_bound(qfis[n]), asym(n)))
    return rows


def _fig2_checks(gate: Gate, rows, eta, qfi_n1, peak_n):
    """Shared checks of criteria 3 and 4.

    At N = 1 the flat-prior cost sqrt(2 - eta) lies below 1/sqrt(F) for every
    eta < 1 (F = eta^2 under dephasing, eta under loss), so the row-wise
    ordering is required from N = 2 on and N = 1 is pinned to its closed
    forms instead. The ratio bayes/cr is unimodal: it rises strictly up to
    `peak_n` and decreases from there on.
    """
    _, bayes1, qfi1, cr1, asym1 = rows[0]
    closed_ok = (abs(bayes1 - math.sqrt(2.0 - eta)) <= 1e-12
                 and abs(qfi1 - qfi_n1) <= 1e-12)
    gate.check(closed_ok and cr1 >= asym1 - 1e-12,
               f"N = 1: cost {bayes1:.15f} = sqrt(2 - eta), F {qfi1:.15f} = "
               f"{qfi_n1:.15f} to 1e-12, and 1/sqrt(F) >= asymptote")
    order_bad = [n for n, bayes, _, cr, asym in rows[1:]
                 if not (bayes >= cr - 1e-12 and cr >= asym - 1e-12)]
    gate.check(not order_bad,
               "bayes >= 1/sqrt(F) >= asymptote row-wise for N = 2..120"
               + ("" if not order_bad else f" (violations at N={order_bad})"))
    ratios = {n: bayes / cr for n, bayes, _, cr, _ in rows}
    peak = max(ratios, key=ratios.get)
    gate.check(peak == peak_n,
               f"ratio bayes/cr peaks at N = {peak} ({ratios[peak]:.4f}), "
               f"expected N = {peak_n}")
    rise_bad = [n for n in range(1, peak) if not ratios[n + 1] > ratios[n]]
    fall_bad = [n for n in range(peak, 120)
                if ratios[n + 1] > ratios[n] + 1e-12]
    gate.check(not rise_bad and not fall_bad,
               f"ratio bayes/cr rises strictly up to N = {peak}, then "
               "decreases monotonically to N = 120"
               + ("" if not rise_bad else f" (no rise at N={rise_bad})")
               + ("" if not fall_bad else
                  f" (increases at N={fall_bad}: " +
                  ", ".join(f"{ratios[n]:.4f}->{ratios[n+1]:.4f}"
                            for n in fall_bad) + ")"))
    gate.check(ratios[120] <= 1.10,
               f"ratio at N = 120 is {ratios[120]:.4f} <= 1.10")


def test_criterion_03_dephasing_convergence():
    gate = Gate(3, "Bayes and QFI bounds converge under local dephasing 0.7")
    eta = 0.7
    rows = _two_sided_rows(LocalDephasing(eta),
                           lambda n: math.sqrt((1 - eta ** 2) / (eta ** 2 * n)))
    _fig2_checks(gate, rows, eta, qfi_n1=eta ** 2, peak_n=7)
    gate.finish(300.0)


def test_criterion_04_loss_convergence():
    gate = Gate(4, "Bayes and QFI bounds converge under photon loss 0.7")
    eta = 0.7
    rows = _two_sided_rows(Loss(eta),
                           lambda n: math.sqrt((1 - eta) / (eta * n)))
    _fig2_checks(gate, rows, eta, qfi_n1=eta, peak_n=4)
    gate.finish(300.0)


def test_criterion_05_gaussian_prior_pi_over_n():
    gate = Gate(5, "Gaussian-prior cost approaches pi/N for narrow priors")
    n = 150
    cfg = IterationConfig(rel_tol=1e-10, max_iters=400, polish=True,
                          polish_max_evals=600)
    n_costs = {}
    for delta0 in (0.2, 0.5):
        cost = gaussian_prior_cost(n, delta0, NoiseFree(), cfg)
        n_costs[delta0] = n * cost
        gate.check(abs(n_costs[delta0] - math.pi) / math.pi < 0.10,
                   f"N*cost = {n_costs[delta0]:.4f} within 10% of pi "
                   f"(delta0 = {delta0}, N = {n})")
    spread = abs(n_costs[0.2] - n_costs[0.5]) / max(n_costs.values())
    # N*cost/pi runs on x = N*delta0, not on N (tests/test_bayes.py pins
    # that), so the two widths sit at different x
    gate.check(spread < 0.03,
               f"the two prior widths agree to 3% at N = {n}, x = N*delta0 = "
               f"{n * 0.2:g} and {n * 0.5:g} (measured {100 * spread:.2f}%)")
    gate.finish(300.0)


def test_criterion_06_collective_dephasing_floor():
    gate = Gate(6, "collective dephasing saturates the prior-dependent floor")
    n, gamma = 200, 0.02
    cfg = IterationConfig(rel_tol=1e-10, max_iters=400, polish=True,
                          polish_max_evals=600)
    floors = {}
    for delta0 in (0.5, 0.1):
        cost = gaussian_prior_cost(n, delta0, CollectiveDephasing(gamma), cfg)
        floor = math.sqrt(gamma / (1.0 + gamma / delta0 ** 2))
        floors[delta0] = floor
        gate.check(abs(cost - floor) / floor < 0.02,
                   f"cost {cost:.6f} within 2% of floor {floor:.6f} "
                   f"(delta0 = {delta0}, N = {n})")
    gate.check(floors[0.1] < floors[0.5],
               f"floor shifts with prior knowledge: {floors[0.1]:.4f} "
               f"(delta0=0.1) < {floors[0.5]:.4f} (delta0=0.5)")
    gate.finish(120.0)


def test_criterion_07_brute_force_channel_oracles():
    gate = Gate(7, "compressed channels match brute-force expansions")
    worst_block, worst_qfi = 0.0, 0.0
    for n in (1, 2, 3, 4):
        for eta in (0.3, 0.7):
            state = oracles.random_state(n, seed=97 * n + int(eta * 10))
            worst_block = max(worst_block,
                              oracles.dephasing_block_error(state, eta))
            f_block = state_qfi(state, LocalDephasing(eta))
            f_full = oracles.brute_dephasing_qfi(state, eta)
            worst_qfi = max(worst_qfi,
                            abs(f_block - f_full) / max(f_full, 1e-12))
    gate.check(worst_block < 1e-12,
               f"dephasing blocks match 2^N Kraus expansion: "
               f"max entry error {worst_block:.2e} < 1e-12 (N <= 4)")
    gate.check(worst_qfi < 1e-9,
               f"dephasing QFI matches full-space value: "
               f"max relative error {worst_qfi:.2e} < 1e-9")
    worst_loss = 0.0
    for n in (1, 2):
        for eta in (0.3, 0.7):
            state = oracles.random_state(n, seed=31 * n + int(eta * 10))
            worst_loss = max(worst_loss, oracles.loss_mixture_error(state, eta))
    gate.check(worst_loss < 1e-12,
               f"loss sectors match the beam-splitter dilation: "
               f"max error {worst_loss:.2e} < 1e-12 (N <= 2)")
    gate.finish(10.0)


def test_criterion_08_fidelity_finite_difference():
    gate = Gate(8, "finite-difference fidelity QFI agrees with the SLD QFI")
    noises = (NoiseFree(), LocalDephasing(0.7), Loss(0.6),
              CollectiveDephasing(0.3))
    delta = 1e-3
    worst, worst_case = 0.0, ""
    count = 0
    for i in range(20):
        n = 2 + (i % 9)  # N runs over 2..10
        noise = noises[i % 4]
        state = oracles.random_state(n, seed=1000 + i)
        f_sld = state_qfi(state, noise)
        f_fd = fidelity_qfi_check(state, noise, delta)
        rel = abs(f_fd - f_sld) / max(f_sld, 1e-12)
        count += 1
        if rel > worst:
            worst, worst_case = rel, f"N={n}, {noise}"
    gate.check(worst < 1e-3,
               f"max relative deviation {worst:.2e} < 1e-3 over {count} "
               f"random states (worst: {worst_case})")
    gate.finish(10.0)


def test_criterion_09_indefinite_particle_number(tmp_path, capsys):
    gate = Gate(9, "indefinite-particle mixtures obey the Bayesian bound")
    worst = 0.0
    for nbar in (5.0, 10.0, 20.0):
        for n in (100, 400, 1000):
            p = nbar / n
            mix = ParticleNumberMixture([(0, 1.0 - p), (n, p)])
            got = mixture_qfi(mix, {0: 0.0, n: float(n) * n})
            worst = max(worst, abs(got - nbar * n) / (nbar * n))
    gate.check(worst < 1e-12,
               f"vacuum+N00N mixture QFI equals mean_n * N exactly "
               f"(max rel dev {worst:.1e})")
    rng = np.random.default_rng(77)
    concave_ok = True
    for _ in range(100):
        size = int(rng.integers(2, 7))
        ns = sorted(int(v) for v in rng.integers(10, 3000, size=size))
        ps = rng.dirichlet(np.ones(size))
        mix = ParticleNumberMixture(list(zip(ns, ps)))
        bound = indefinite_bayes_bound(mix, float(rng.uniform(0.05, 0.9)))
        concave_ok &= bound.exact >= bound.relaxed - 1e-12
    gate.check(concave_ok, "exact expression >= concavity-relaxed bound on "
                           "100 random mixtures")
    path = tmp_path / "mix.txt"
    path.write_text("0 0.99\n1000 0.01\n")
    code = cli.main(["indefinite", str(path), "--prior-width", "0.3"])
    report = json.loads(capsys.readouterr().out)
    gate.check(code == 0, "CLI indefinite subcommand succeeds")
    gate.check(report["cr_bound"] < 0.011,
               f"naive C-R bound {report['cr_bound']:.4f} is tiny")
    gate.check(report["bayes_exact"] >= report["definite_mean_n_cost"] - 1e-12,
               f"Bayesian bound {report['bayes_exact']:.4f} stays above the "
               f"definite mean-N cost {report['definite_mean_n_cost']:.4f}")
    gate.finish(5.0)


def test_criterion_10_group_size_threshold():
    gate = Gate(10, "grouping threshold matches hand-evaluated values")
    cases = [
        # (alpha, beta, gamma, eps) -> (beta/(alpha eps))^(1/gamma)
        ((1.0, 1.0, 1.0, 0.1), 10.0),
        ((1.0, 4.0, 2.0, 0.01), 20.0),
        ((2.0, 1.0, 1.0, 0.25), 2.0),
        ((1.0, 8.0, 3.0, 0.001), 20.0),
        ((0.5, 4.5, 1.0, 0.09), 100.0),
    ]
    worst = 0.0
    for args, want in cases:
        worst = max(worst, abs(group_size_threshold(*args) - want))
    gate.check(worst < 1e-12, f"five hand-evaluated points match "
                              f"(max abs dev {worst:.1e})")
    gate.finish(1.0)
