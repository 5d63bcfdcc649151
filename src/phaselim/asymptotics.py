"""Closed-form asymptotic precision limits.

These are pure formula objects: nothing here is fitted to data.  Each noise
model in `qcore` names its own (`limit`), and the CLI prints them in the
`asymptote` column and by the `asymptote` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "HeisenbergCR",
    "BayesPi",
    "LossLimit",
    "DephasingLimit",
    "CollectiveLimit",
    "GeneralUnitary",
    "AsymptoteSpec",
    "evaluate",
    "group_size_threshold",
]


@dataclass(frozen=True)
class HeisenbergCR:
    """Cramer-Rao Heisenberg scaling 1/N (generator spread 1)."""


@dataclass(frozen=True)
class BayesPi:
    """Decoherence-free Bayesian limit pi/N."""


@dataclass(frozen=True)
class LossLimit:
    """Lossy interferometry limit sqrt((1-eta)/(eta N))."""

    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("transmissivity eta must be in (0, 1]")


@dataclass(frozen=True)
class DephasingLimit:
    """Local-dephasing limit sqrt((1-eta^2)/(eta^2 N))."""

    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("dephasing parameter eta must be in (0, 1]")


@dataclass(frozen=True)
class CollectiveLimit:
    """Collective-dephasing floor sqrt(Gamma/(1 + Gamma/delta0^2)); constant
    in N.  delta0 = inf recovers the prior-free floor sqrt(Gamma)."""

    gamma: float
    delta0: float = math.inf

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma={self.gamma} must be finite and >= 0")
        if not self.delta0 > 0.0:  # inf is the prior-free floor
            raise ValueError(f"delta0={self.delta0} must be positive")


@dataclass(frozen=True)
class GeneralUnitary:
    """Conjectured decoherence-free limit pi/((lambda_+ - lambda_-) N) for a
    generator with extreme eigenvalues lambda_+/-.  Reference formula only;
    no optimizer for general generators is provided."""

    lambda_plus: float
    lambda_minus: float

    def __post_init__(self):
        if self.lambda_plus <= self.lambda_minus:
            raise ValueError("lambda_plus must exceed lambda_minus")


AsymptoteSpec = Union[HeisenbergCR, BayesPi, LossLimit, DephasingLimit,
                      CollectiveLimit, GeneralUnitary]


def evaluate(spec: AsymptoteSpec, n: int) -> float:
    """Value of the asymptotic uncertainty formula at particle number n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(spec, HeisenbergCR):
        return 1.0 / n
    if isinstance(spec, BayesPi):
        return math.pi / n
    if isinstance(spec, LossLimit):
        return math.sqrt((1.0 - spec.eta) / (spec.eta * n))
    if isinstance(spec, DephasingLimit):
        return math.sqrt((1.0 - spec.eta ** 2) / (spec.eta ** 2 * n))
    if isinstance(spec, CollectiveLimit):
        ratio = 0.0 if math.isinf(spec.delta0) else spec.gamma / spec.delta0 ** 2
        return math.sqrt(spec.gamma / (1.0 + ratio))
    if isinstance(spec, GeneralUnitary):
        return math.pi / ((spec.lambda_plus - spec.lambda_minus) * n)
    raise ValueError(f"unknown asymptote spec: {spec!r}")


def group_size_threshold(alpha: float, beta: float, gamma: float, eps: float,
                         n: Optional[int] = None) -> float:
    """Smallest group size for which splitting N probes into independent
    groups keeps at least a (1-eps) fraction of the optimal QFI, given the
    expansion F(N) = N (alpha - beta N^(-gamma)).

    With n omitted, returns the large-N limit (beta/(alpha eps))^(1/gamma);
    otherwise the finite-N expression
    (alpha eps / beta + (1-eps) N^(-gamma))^(-1/gamma).
    """
    if alpha <= 0.0 or beta <= 0.0 or gamma <= 0.0:
        raise ValueError("alpha, beta, gamma must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n is None:
        return (beta / (alpha * eps)) ** (1.0 / gamma)
    if n < 1:
        raise ValueError("n must be >= 1")
    return (alpha * eps / beta + (1.0 - eps) * float(n) ** (-gamma)) ** (-1.0 / gamma)
