"""Angular-momentum kernel: Clebsch-Gordan coefficients and the spin-flip
transfer coefficients that define the block action of local dephasing on
permutation-symmetric qubit states.

Quantum numbers are carried as doubled integers (``2j``, ``2m``) so that
half-integer arithmetic is exact.  The public entry points take plain
integers and half-integers and double them once, on entry.

Two evaluation routes coexist:

* exact per-coefficient evaluation (`clebsch_gordan`, `transfer_coefficient`,
  `coupling_matrix_entry`) via the closed Racah sum with big-integer
  rationals, stable for any quantum numbers that fit in memory;
* bulk tables (`DephasingTables`, `coupling_blocks`) that build all transfer
  coefficients for one particle number at once, from the table for one
  particle fewer by a closed-form one-particle recoupling (O(N^3) work per
  step, no eigensolve), and one matrix product per coupling block, which is
  what sweeps over N use.

Both routes are cross-checked against each other and against brute-force
tensor-product oracles in the test suite.
"""

from __future__ import annotations

import logging
import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, log, sqrt
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "clebsch_gordan",
    "transfer_coefficient",
    "dephasing_weight",
    "coupling_matrix_entry",
    "multiplicity_dimension",
    "allowed_twice_j",
    "DephasingTables",
    "dephasing_tables",
    "coupling_blocks",
]

logger = logging.getLogger(__name__)


# cephes' lgam constants: log sqrt(2 pi) and its Stirling series in 1/x^2
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
             7.93650340457716943945E-4, -2.77777777730099687205E-3,
             8.33333333333331927722E-2)


def _lgam(k: int) -> float:
    """cephes' lgam (scipy.special.gammaln) at the integer k >= 0, operation
    for operation, so bit for bit; math.lgamma misses those bits at about
    half the integers."""
    if k < 13:
        return log(float(factorial(k - 1))) if k else np.inf
    x = float(k)
    q = (x - 0.5) * log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:  # three terms of the series, with their own constants
        s = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
             + 0.0833333333333333333333)
    else:
        s = _STIRLING[0]
        for a in _STIRLING[1:]:
            s = s * p + a
    return q + s / x


_lgamma_values = np.full(1, np.inf)
_lgamma_values.flags.writeable = False


def _lgamma_table(size: int) -> np.ndarray:
    """gammaln(0..size-1) as a read-only view of one module-level table,
    which grows (at least doubling) when a larger size is asked for; each
    value is computed once."""
    global _lgamma_values
    table = _lgamma_values
    if len(table) < size:
        more = [_lgam(k) for k in range(len(table), max(size, 2 * len(table)))]
        table = np.concatenate((table, more))
        table.flags.writeable = False
        # one rebinding, no lock: a racing caller keeps a valid view, and a
        # growth lost to the race is redone by the next caller that needs it
        _lgamma_values = table
    return table[:size]


def _xlogy(k, p: float):
    """k log p for counts k and a scalar p >= 0, 0 log 0 = 0: scipy's xlogy."""
    return k * log(p) if p > 0.0 else np.where(np.equal(k, 0), 0.0, -np.inf)


def _twice(value) -> int:
    """Exact doubled integer 2 * value of an integer or half-integer."""
    twice = 2 * value
    if twice != round(twice):
        raise ValueError(f"{value!r} is not an integer or half-integer")
    return int(round(twice))


def _selection_ok(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> bool:
    """Angular-momentum selection rules, on doubled integers."""
    if tj1 < 0 or tj2 < 0 or tJ < 0:
        return False
    # projections must match their j in parity and magnitude
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tJ, tM)):
        if abs(tm) > tj or (tj - tm) % 2 != 0:
            return False
    if tm1 + tm2 != tM:
        return False
    # triangle rule, with integer perimeter
    if not (abs(tj1 - tj2) <= tJ <= tj1 + tj2):
        return False
    if (tj1 + tj2 + tJ) % 2 != 0:
        return False
    return True


@lru_cache(maxsize=200_000)
def _cg_exact(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """Closed-sum coupling coefficient, exact big-integer arithmetic.

    Evaluates the alternating Racah sum with rational terms over a common
    structure, then takes a single square root at the end, so no precision is
    lost to cancellation even for large quantum numbers.
    """
    if not _selection_ok(tj1, tm1, tj2, tm2, tJ, tM):
        logger.debug(
            "selection rules reject <%s %s; %s %s | %s %s>",
            tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, tJ / 2, tM / 2,
        )
        return 0.0

    def f(twice: int) -> int:
        # factorial of an exact half-integer sum that is guaranteed integral
        assert twice % 2 == 0 and twice >= 0
        return factorial(twice // 2)

    t_min = max(0, (tj2 - tJ - tm1) // 2, (tj1 + tm2 - tJ) // 2)
    t_max = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    if t_max < t_min:
        return 0.0
    series = Fraction(0)
    for t in range(t_min, t_max + 1):
        den = (
            factorial(t)
            * f(tj1 + tj2 - tJ - 2 * t)
            * f(tj1 - tm1 - 2 * t)
            * f(tj2 + tm2 - 2 * t)
            * f(tJ - tj2 + tm1 + 2 * t)
            * f(tJ - tj1 - tm2 + 2 * t)
        )
        series += Fraction(-1 if t % 2 else 1, den)
    if series == 0:
        return 0.0
    prefactor = (
        Fraction(tJ + 1)
        * Fraction(f(tj1 + tj2 - tJ) * f(tj1 - tj2 + tJ) * f(-tj1 + tj2 + tJ),
                   f(tj1 + tj2 + tJ + 2))
        * f(tJ + tM) * f(tJ - tM)
        * f(tj1 - tm1) * f(tj1 + tm1)
        * f(tj2 - tm2) * f(tj2 + tm2)
    )
    magnitude = sqrt(float(prefactor * series * series))
    return magnitude if series > 0 else -magnitude


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Coupling coefficient <j1 m1; j2 m2 | J M> in the Condon-Shortley
    convention.  Returns 0 when selection rules fail."""
    return _cg_exact(*map(_twice, (j1, m1, j2, m2, J, M)))


def allowed_twice_j(n: int) -> range:
    """Doubled total-spin values 2j for n spin-1/2 particles: n, n-2, ..., n%2."""
    return range(n % 2, n + 1, 2)


def _check_j(n: int, tj: int) -> None:
    if tj < 0 or tj > n or (n - tj) % 2 != 0:
        raise ValueError(f"j={tj/2} not in the total-spin ladder for N={n}")


def _check_jm(n: int, tj: int, tm: int) -> None:
    _check_j(n, tj)
    if abs(tm) > tj or (tj - tm) % 2 != 0:
        raise ValueError(f"m={tm/2} invalid for j={tj/2}")


def transfer_coefficient(n: int, k: int, j, m) -> float:
    """Overlap coefficient through which flipping k of n spins couples the
    fully symmetric sector to the total-spin-j sector.

    Sums, over the z-projection mt of the flipped group, the product of the
    coefficients that decompose |n/2, m> into |k/2, mt> x |(n-k)/2, m-mt>
    and re-couple that pair to |j, m>, weighted by the flip parity
    (-1)^(k/2-mt).  The first factor's second coupled spin is (n-k)/2, the
    value required for the decomposition to exist.
    """
    tj, tm = _twice(j), _twice(m)
    if not 0 <= k <= n:
        raise ValueError(f"flip count k={k} outside 0..{n}")
    _check_jm(n, tj, tm)
    if tj < abs(n - 2 * k):
        raise ValueError(f"j={tj/2} below the k-flip triangle minimum |n/2-k|")
    return _transfer(n, k, tj, tm)


def _transfer(n: int, k: int, tj: int, tm: int) -> float:
    """`transfer_coefficient` on valid doubled arguments."""
    total = 0.0
    lo = max(-k, tm - (n - k))
    hi = min(k, tm + (n - k))
    for tmt in range(lo, hi + 1, 2):
        c_split = _cg_exact(k, tmt, n - k, tm - tmt, n, tm)
        c_couple = _cg_exact(k, tmt, n - k, tm - tmt, tj, tm)
        if c_split == 0.0 or c_couple == 0.0:
            continue
        sign = -1.0 if ((k - tmt) // 2) % 2 else 1.0
        total += sign * c_split * c_couple
    return total


def dephasing_weight(n: int, k: int, eta: float) -> float:
    """Probability that exactly k of n particles pick up a phase flip under
    local dephasing of strength eta: binom(n,k) ((1-eta)/2)^k ((1+eta)/2)^(n-k)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"dephasing parameter eta={eta} outside [0, 1]")
    if not 0 <= k <= n:
        raise ValueError(f"flip count k={k} outside 0..{n}")
    return float(_flip_probabilities(n, k, eta))


def _flip_probabilities(n: int, k, eta: float):
    """`dephasing_weight` for one or an array of flip counts k, in log space
    so that it stays finite at large n; 0 log 0 = 0, so eta = 1 gives
    exactly 1 at k = 0 and 0 elsewhere."""
    lg = _lgamma_table(n + 2)
    return np.exp(lg[n + 1] - lg[k + 1] - lg[n - k + 1]
                  + _xlogy(k, (1.0 - eta) / 2.0) + _xlogy(n - k, (1.0 + eta) / 2.0))


def coupling_matrix_entry(n: int, j, m, m2, eta: float) -> float:
    """Entry (m, m2) of the spin-j coupling matrix of the dephasing channel:
    the factor by which the channel multiplies the (m, m2) coherence of a
    symmetric input when projected on the total-spin-j block.  Symmetric in
    (m, m2)."""
    tj, tm, tm2 = _twice(j), _twice(m), _twice(m2)
    _check_jm(n, tj, tm)
    _check_jm(n, tj, tm2)
    total = 0.0
    # the flip counts with |n/2 - k| <= j; the weight also checks eta
    for k in range((n - tj) // 2, (n + tj) // 2 + 1):
        w = dephasing_weight(n, k, eta)
        total += w * _transfer(n, k, tj, tm) * _transfer(n, k, tj, tm2)
    return total


def multiplicity_dimension(n: int, j) -> int:
    """Number of inequivalent total-spin-j copies in (C^2)^(x n):
    binom(n, n/2-j) - binom(n, n/2-j-1)."""
    tj = _twice(j)
    _check_j(n, tj)
    a = (n - tj) // 2
    first = comb(n, a)
    second = comb(n, a - 1) if a >= 1 else 0
    return first - second


# ---------------------------------------------------------------------------
# bulk tables: all transfer coefficients for one particle number at once
# ---------------------------------------------------------------------------


def _next_half_table(h: np.ndarray, n: int) -> np.ndarray:
    """The half table for n + 1 particles from the one for n particles.

    h[k, j_index, i] is C(k; j, m) at 2m = 2i + n%2, for k <= n/2 and m >= 0.
    Appending one unflipped particle, |(n+1)/2, M> is a sum over s = +-1/2 of
    D_s |n/2, M-s> |s>, and the flips do not act on that particle.  Coupling
    |(k/2, (n-k)/2) j, M-s> with |s> to j' = j +- 1/2 and recoupling it to
    (k/2, (n+1-k)/2) j' (a 6j symbol with a 1/2 in it; Edmonds, Table 5)
    makes each new entry a sum of four old ones, at j = j' -+ 1/2 and
    m = M -+ 1/2, with closed-form weights.  Old entries outside the table
    are zero and every weight is finite, so entries outside the new
    triangle and |m| > j come out exactly zero.
    """
    n1 = n + 1
    p = n1 % 2
    size = n1 // 2 + 1  # rows k, spins j and projections m >= 0 for n + 1
    kk, jj, mm = h.shape
    # h with a zero at either end of j and of m; odd n adds the row and the
    # column that its half table keeps only by symmetry
    ext = np.zeros((size, jj + 2, mm + 2))
    ext[:kk, 1:-1, 1:-1] = h
    if p == 0:
        j_index = np.arange(jj)[:, None]
        # row k = (n+1)/2 by C(n-k; j, m) = (-1)^(n/2-j) (-1)^(n/2-m) C(k; j, m)
        # from k = (n-1)/2: the sign is (-1)^(j_index + i)
        mirror = np.where((j_index + np.arange(mm)) % 2 == 0, 1.0, -1.0)
        ext[kk, 1:-1, 1:-1] = mirror * h[kk - 1]
        # the m = -1/2 column by C(k; j, -m) = (-1)^(n/2-j) (-1)^k C(k; j, m)
        flip = (kk - 1 + j_index.T + np.arange(size)[:, None]) % 2
        ext[:, 1:-1, 0] = np.where(flip, -1.0, 1.0) * ext[:, 1:-1, 1]
    # doubled new quantum numbers: 2j' = tj and 2M' = tm >= 0
    k = np.arange(size)[:, None]
    tj = np.arange(p, n1 + 1, 2)
    tm = tj
    # recoupling weights over (k, j') of the terms j = j' - 1/2 and j' + 1/2
    den = 4.0 * (n1 - k) * (tj + 1)
    u_lo = np.sqrt((n1 + tj + 2) * (n1 + tj - 2 * k) / den)[:, :, None]
    u_hi = np.sqrt(np.maximum((tj - n1 + 2 * k + 2) * (n1 - tj), 0) / den)[:, :, None]
    # over (j', M'): the new particle's weight D_s times the coupling
    # coefficient <j, M'-s; 1/2, s | j', M'>, for s = +1/2 (up) and -1/2 (down)
    tj = tj[:, None]
    d_up = np.sqrt((n1 + tm) / (2.0 * n1))
    d_down = np.sqrt((n1 - tm) / (2.0 * n1))
    lo_up = np.sqrt((tj + tm) / (2.0 * np.maximum(tj, 1))) * d_up
    lo_down = np.sqrt(np.maximum(tj - tm, 0) / (2.0 * np.maximum(tj, 1))) * d_down
    hi_up = -np.sqrt(np.maximum(tj - tm + 2, 0) / (2.0 * tj + 4)) * d_up
    hi_down = np.sqrt((tj + tm + 2) / (2.0 * tj + 4)) * d_down
    # old j = j' - 1/2 has ext's j index p + (2j' - p)/2, and old m = M' - 1/2
    # its m index p + (2M' - p)/2
    lo = ext[:, p:p + size]
    hi = ext[:, p + 1:p + 1 + size]
    out = lo_up * lo[:, :, p:p + size]
    out += lo_down * lo[:, :, p + 1:p + 1 + size]
    out *= u_lo
    rest = hi_up * hi[:, :, p:p + size]
    rest += hi_down * hi[:, :, p + 1:p + 1 + size]
    rest *= u_hi
    out += rest
    return out


class DephasingTables:
    """All transfer coefficients C(k; j, m) for one particle number.

    The table for n comes from the one for n - 1 by adding one unflipped
    particle (`_next_half_table`), O(n^3) elementwise work with no
    eigensolve; a cold build runs that recurrence from n = 0.  Only k <= n/2
    and m >= 0 are computed; the rest follow from exact sign symmetries.  The
    table is read-only once built, so it is safe to share across threads and
    callers.
    """

    def __init__(self, n: int, start: DephasingTables | None = None):
        """Tables for n particles, continued from the tables `start` for
        fewer particles when given.  Every table comes out of the same chain
        of steps from n = 0, so its bits do not depend on `start`."""
        if n < 1:
            raise ValueError("need at least one particle")
        if start is not None and start.n > n:
            raise ValueError(f"cannot continue from N={start.n} down to N={n}")
        self.n = n
        # the half table (m >= 0) to continue from; n = 0 holds C = 1
        done, h = (0, np.ones((1, 1, 1))) if start is None else \
            (start.n, start._c[:, :, (start.n + 1) // 2:])
        for m in range(done, n):
            h = _next_half_table(h, m)
        # _c[k, j_index, m_index]; j_index = (2j - n%2)/2, m_index = (2m + n)/2
        self._c = np.empty((n // 2 + 1, n // 2 + 1, n + 1))
        top = (n + 1) // 2  # m_index of the smallest m >= 0
        self._c[:, :, top:] = h
        # C(j, -m) = (-1)^(n/2 - j) (-1)^k C(j, m)
        k_plus_j = np.arange(n // 2 + 1)[:, None] + np.arange(n // 2 + 1)
        sign = np.where((n // 2 + k_plus_j) % 2 == 0, 1.0, -1.0)
        self._c[:, :, :top] = sign[:, :, None] * np.flip(h, 2)[:, :, :top]
        self._c.setflags(write=False)

    def _rows(self, ks, tj: int, tms):
        """C(k; j, m) for (broadcast) flip counts ks and doubled projections
        tms, read from the k <= n/2 half table through the mirror
        C(n-k; j, m) = (-1)^(n/2-j) (-1)^(n/2-m) C(k; j, m)."""
        n = self.n
        kk = np.minimum(ks, n - ks)
        r = self._c[kk, (tj - n % 2) // 2, (tms + n) // 2]
        return np.where((ks > kk) & (((n - tj) // 2 + (n - tms) // 2) % 2 == 1), -r, r)

    def transfer(self, k: int, tj: int, tm: int) -> float:
        """C(k; j, m) with doubled arguments."""
        return float(self._rows(k, tj, tm))

    def coupling_block(self, tj: int, flips: np.ndarray) -> np.ndarray:
        """Spin-j coupling matrix A_j over m, m' = -j..j (ascending), for the
        flip probabilities flips[k], k = 0..n, of one eta.

        A_j = R^T diag(w) R, where row k of R holds C(k; j, m) for every flip
        count with |n/2 - k| <= j and w is that slice of `flips`.
        """
        n = self.n
        ks = np.arange((n - tj) // 2, (n + tj) // 2 + 1)[:, None]
        r = self._rows(ks, tj, np.arange(-tj, tj + 1, 2))
        return r.T @ (flips[ks] * r)


_TABLES_KEPT = 4
_tables: dict[int, DephasingTables] = {}  # in order of last use, oldest first
_tables_lock = threading.Lock()


def dephasing_tables(n: int) -> DephasingTables:
    """Memoized per-N transfer tables (small cache; sweeps run N in order).

    A miss continues from the largest cached table below n, so a sweep pays
    one recurrence step per N; the bits are those of a cold build.
    """
    with _tables_lock:
        if n in _tables:
            _tables[n] = _tables.pop(n)
            return _tables[n]
        below = [m for m in _tables if m < n]
        start = _tables[max(below)] if below else None
    tables = DephasingTables(n, start)
    with _tables_lock:
        # a concurrent caller may have stored the same table meanwhile
        tables = _tables[n] = _tables.pop(n, tables)
        while len(_tables) > _TABLES_KEPT:
            del _tables[next(iter(_tables))]
    return tables


def _clear_tables() -> None:
    """Drop every cached table, so the next build starts from n = 0."""
    with _tables_lock:
        _tables.clear()


dephasing_tables.cache_clear = _clear_tables


@lru_cache(maxsize=4)
def coupling_blocks(n: int, eta: float) -> Mapping[int, np.ndarray]:
    """All spin-j coupling matrices of the local-dephasing channel for n
    particles, keyed by doubled j.  The flip probabilities of k = 0..n are
    evaluated once, and each block's product R^T diag(w) R
    (`DephasingTables.coupling_block`) reads its slice |n/2 - k| <= j of
    them.  Memoized per (n, eta), so the mapping and its arrays are
    read-only."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"dephasing parameter eta={eta} outside [0, 1]")
    tables = dephasing_tables(n)
    flips = _flip_probabilities(n, np.arange(n + 1), eta)
    blocks = {tj: tables.coupling_block(tj, flips) for tj in allowed_twice_j(n)}
    if eta == 0.0:
        # full dephasing keeps no coherence between different m; the product
        # R^T diag(w) R leaves ~1e-17 rounding there instead of exact zeros
        blocks = {tj: np.diag(np.diagonal(b)) for tj, b in blocks.items()}
    for block in blocks.values():
        block.setflags(write=False)
    return MappingProxyType(blocks)
