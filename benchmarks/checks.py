"""Correctness checks on the values phaselim returns.

Every check is a pure function of plain numbers and text that returns a list
of failure messages (empty when the values pass).  Checks compare against
closed forms, brute-force oracles or properties the method must have, never
against a stored copy of earlier output.

`self_test` feeds every check a known-bad value and reports each check that
fails to reject it, so that no check is vacuous.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

RTOL = 1e-9            # slack for upper bounds, which the QFI never exceeds
OPT_RTOL = 1e-6        # slack for lower bounds: the optimizer stops at a
                       # tail-estimated rel_tol of 1e-9..1e-10, and lands up to
                       # a few times that below the optimum
COST_ATOL = 1e-12      # slack for cost bounds
FD_RTOL = 1e-3         # finite-difference fidelity QFI against the SLD QFI
CSV_HEADER = "n,method,qfi,cr_bound,bayes_cost,asymptote,converged,wall_time_s"


def qfi_bounds(kind: str, eta: float, n: int) -> Tuple[float, float]:
    """(product-state QFI, upper limit) for N particles.

    The lower value is the closed-form QFI of the product state; the upper
    one is min(N^2, channel-extension limit), with the limits
    eta^2 N / (1 - eta^2) for local dephasing and eta N / (1 - eta) for loss
    (Demkowicz-Dobrzanski, Kolodynski & Guta, arXiv:1201.3940), which hold
    at every N.
    """
    if kind == "dephasing":
        lo, ce = eta * eta * n, eta * eta * n / (1.0 - eta * eta)
    elif kind == "loss":
        lo, ce = eta * n, eta * n / (1.0 - eta)
    else:
        raise ValueError(f"no closed-form bounds for {kind!r}")
    return lo, min(float(n * n), ce)


def check_sweep_qfi(kind: str, eta: float, qfis: Dict[int, float]) -> List[str]:
    bad = []
    for n, f in qfis.items():
        lo, hi = qfi_bounds(kind, eta, n)
        if not (lo * (1.0 - OPT_RTOL) <= f <= hi * (1.0 + RTOL)):
            bad.append(f"N={n}: F={f!r} outside [{lo!r}, {hi!r}]")
    return bad


def check_dominates(n: int, f: float, refs: Dict[str, float]) -> List[str]:
    """The optimum is at least the QFI of every reference state."""
    return [f"N={n}: optimized F={f!r} below the {name} state's {ref!r}"
            for name, ref in refs.items() if f < ref * (1.0 - OPT_RTOL)]


def check_close(label: str, got: float, want: float, rtol: float = FD_RTOL) -> List[str]:
    if abs(got - want) <= rtol * abs(want):
        return []
    return [f"{label}: {got!r} vs {want!r} differ by more than {rtol:g} relative"]


def check_below(label: str, value: float, limit: float) -> List[str]:
    return [] if value < limit else [f"{label}: {value!r} not below {limit!r}"]


def noise_free_flat_cost(n: int) -> float:
    """Analytic noise-free optimal flat-prior cost sqrt(2 - 2 cos(pi/(N+2)))."""
    return math.sqrt(2.0 - 2.0 * math.cos(math.pi / (n + 2)))


def check_flat_costs(costs: Dict[int, float]) -> List[str]:
    """Noise can only raise the flat-prior cost above the noise-free value,
    and the sine cost never exceeds sqrt(2)."""
    bad = []
    for n, c in costs.items():
        lo = noise_free_flat_cost(n)
        if not (lo - COST_ATOL <= c <= math.sqrt(2.0) + COST_ATOL):
            bad.append(f"N={n}: flat-prior cost {c!r} outside [{lo!r}, sqrt 2]")
    return bad


def check_prior_cost(label: str, delta0: float, f_phys_max: float,
                     cost: float) -> List[str]:
    """Van Trees: 1/sqrt(F_max,phys + 1/delta0^2) <= cost <= delta0, and a
    cost of exactly 0 means the duality slack 1 - delta0^2 F was clipped."""
    lo = 1.0 / math.sqrt(f_phys_max + 1.0 / delta0 ** 2)
    bad = []
    if not (lo * (1.0 - RTOL) <= cost <= delta0 * (1.0 + RTOL)):
        bad.append(f"{label}: cost {cost!r} outside [{lo!r}, {delta0!r}]")
    if cost <= 0.0:
        bad.append(f"{label}: duality slack clipped (cost {cost!r})")
    return bad


def check_csv(text: str, ns: Sequence[int], method: str, floor: float,
              delta0: float) -> List[str]:
    """Documented header, one row per N in order, floor <= bayes_cost <= delta0."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"CSV header {lines[0] if lines else ''!r} != {CSV_HEADER!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [str(n) for n in ns]:
        return [f"CSV rows for N={[r[0] for r in rows]}, expected {list(ns)}"]
    bad = []
    for r in rows:
        if len(r) != 8 or r[1] != method:
            bad.append(f"malformed CSV row {r}")
            continue
        cost = float(r[4])
        # cells carry 12 significant digits
        if not (floor * (1.0 - 1e-11) <= cost <= delta0 * (1.0 + 1e-11)):
            bad.append(f"N={r[0]}: bayes_cost {cost!r} outside [{floor!r}, {delta0!r}]")
    return bad


def check_identical(label: str, a, b) -> List[str]:
    return [] if a == b else [f"{label}: outputs differ"]


def self_test() -> List[str]:
    """Names of checks that accepted a known-bad value (empty when all reject)."""
    floor = math.sqrt(0.02 / (1.0 + 0.02 / 0.25))
    good_csv = CSV_HEADER + "\n10,bayes-gauss,3.1,0.2,0.23,0.13,true,0.02\n"
    cases = {
        "QFI above N^2": check_sweep_qfi("loss", 0.7, {3: 3.0 ** 2 + 1.0}),
        "QFI above the dephasing limit": check_sweep_qfi(
            "dephasing", 0.7, {40: 1.01 * 0.49 * 40 / 0.51}),
        "QFI below the product state": check_sweep_qfi(
            "dephasing", 0.7, {5: 0.49 * 5 * (1.0 - 1e-4)}),
        "QFI below a reference state": check_dominates(4, 15.0, {"NOON": 16.0}),
        "finite-difference disagreement": check_close("fd", 1.01, 1.0),
        "oracle error": check_below("oracle", 1e-6, 1e-12),
        "flat cost below noise-free": check_flat_costs(
            {7: noise_free_flat_cost(7) * (1.0 - 1e-6)}),
        "flat cost above sqrt 2": check_flat_costs({7: 1.5}),
        "Gaussian cost below collective floor": check_prior_cost(
            "gauss", 0.5, 1.0 / 0.02, floor * (1.0 - 1e-6)),
        "Gaussian cost above delta0": check_prior_cost("gauss", 0.5, 1.0 / 0.02, 0.51),
        "Gaussian cost below noise-free van Trees": check_prior_cost(
            "gauss", 0.2, 60.0 ** 2, 0.5 / math.sqrt(60.0 ** 2 + 25.0)),
        "clipped duality slack": check_prior_cost("gauss", 0.5, math.inf, 0.0),
        "CSV header changed": check_csv(good_csv.replace("qfi,", "QFI,", 1),
                                        [10], "bayes-gauss", floor, 0.5),
        "CSV row missing": check_csv(good_csv, [10, 20], "bayes-gauss", floor, 0.5),
        "CSV cost below floor": check_csv(good_csv.replace("0.23", "0.1"),
                                          [10], "bayes-gauss", floor, 0.5),
        "CSV bytes differ": check_identical("csv", good_csv, good_csv + "\n"),
    }
    accepted = [name for name, failures in cases.items() if not failures]
    # the same checks must accept good values, or the rejections above prove nothing
    goods = {
        "good QFI": check_sweep_qfi("dephasing", 0.7, {1: 0.49, 40: 0.49 * 40}),
        "good flat cost": check_flat_costs({7: noise_free_flat_cost(7)}),
        "good Gaussian cost": check_prior_cost("gauss", 0.5, 1.0 / 0.02, floor),
        "good CSV": check_csv(good_csv, [10], "bayes-gauss", floor, 0.5),
    }
    accepted += [f"{name} rejected: {failures}" for name, failures in goods.items()
                 if failures]
    return accepted
