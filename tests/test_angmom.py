"""Angular-momentum kernel tests: exact coupling coefficients against dense
two-spin diagonalization, transfer coefficients against the full
tensor-product channel, and the bulk-table fast path against the exact path
and against a per-(k, m) LAPACK tridiagonal reference.
"""

import math
import sys
import threading
from fractions import Fraction
from math import comb, lgamma

import numpy as np
import pytest
from scipy.linalg.lapack import dstev
from scipy.special import gammaln, xlogy

from phaselim import angmom, oracles
from phaselim.angmom import (DephasingTables, _flip_probabilities, _lgamma_table, _twice, _xlogy,
                             allowed_twice_j, clebsch_gordan,
                             coupling_blocks, coupling_matrix_entry,
                             dephasing_tables, dephasing_weight,
                             multiplicity_dimension, transfer_coefficient)
from references import coupling_block


def _stretched_column(n, k, tm, tmts):
    """Decomposition of |n/2, m> over |k/2, mt> x |(n-k)/2, m-mt>, in the
    closed binomial-product form, evaluated in log space."""
    ln_den = lgamma(n + 1) - lgamma((n - tm) / 2 + 1) - lgamma((n + tm) / 2 + 1)
    a = (k - tmts) / 2.0
    b = ((n - k) - (tm - tmts)) / 2.0
    ln1 = lgamma(k + 1) - np.vectorize(lgamma)(a + 1) - np.vectorize(lgamma)(k - a + 1)
    ln2 = (lgamma(n - k + 1) - np.vectorize(lgamma)(b + 1)
           - np.vectorize(lgamma)(n - k - b + 1))
    return np.exp(0.5 * (ln1 + ln2 - ln_den))


def _dstev_half_table(n):
    """Reference half table C(k; j, m) for k <= n/2, indexed like the bulk
    table: one `dstev` tridiagonal eigensolve per (k, m >= 0)."""
    table = np.zeros((n // 2 + 1, n // 2 + 1, n + 1))
    for k in range(n // 2 + 1):
        ja2, jb2 = k, n - k
        ja, jb = ja2 / 2.0, jb2 / 2.0
        mat = table[k]
        for tm in range(n % 2, n + 1, 2):
            lo = max(-ja2, tm - jb2)
            hi = min(ja2, tm + jb2)
            tmts = np.arange(lo, hi + 1, 2)
            mt = tmts / 2.0
            mb = (tm - tmts) / 2.0
            tj_min = max(abs(tm), abs(ja2 - jb2))
            tjs = np.arange(tj_min, n + 1, 2)
            if len(tmts) == 1:
                vecs = np.ones((1, 1))
                u = np.ones(1)
            else:
                diag = ja * (ja + 1) + jb * (jb + 1) + 2.0 * mt * mb
                off = np.sqrt((ja * (ja + 1) - mt[:-1] * (mt[:-1] + 1))
                              * (jb * (jb + 1) - mb[:-1] * (mb[:-1] - 1)))
                _, vecs, info = dstev(diag, off)
                assert info == 0, (n, k, tm)
                # Condon-Shortley: component at the top mt is positive
                sign = np.sign(vecs[-1, :])
                sign[sign == 0.0] = 1.0
                vecs = vecs * sign
                u = _stretched_column(n, k, tm, tmts)
            flip = np.where(((k - tmts) // 2) % 2 == 0, 1.0, -1.0)
            coeffs = vecs.T @ (flip * u)
            jidx = (tjs - n % 2) // 2
            mat[jidx, (tm + n) // 2] = coeffs
            if tm != 0:
                # C(j, -m) = (-1)^(n/2 - j) (-1)^k C(j, m)
                s = np.where(((n - tjs) // 2 + k) % 2 == 0, 1.0, -1.0)
                mat[jidx, (n - tm) // 2] = s * coeffs
    return table


class TestPlainNumbers:
    # plain numbers are doubled exactly on entry: 1.5, Fraction(3, 2) and
    # numpy floats name the same spin, and 0.3 names none

    def test_accepts_half_integers(self):
        assert _twice(1.5) == 3 and _twice(-2) == -4
        assert _twice(Fraction(5, 2)) == _twice(np.float64(2.5)) == 5
        want = clebsch_gordan(1, 1, 0.5, -0.5, 1.5, 0.5)
        assert want == pytest.approx(math.sqrt(1 / 3), abs=1e-14)
        assert clebsch_gordan(1, 1, Fraction(1, 2), Fraction(-1, 2),
                              np.float64(1.5), 0.5) == want
        assert transfer_coefficient(3, 1, 1.5, -0.5) \
            == dephasing_tables(3).transfer(1, 3, -1) != 0.0
        assert transfer_coefficient(2, 2, 1, -1) \
            == transfer_coefficient(2, 2, Fraction(1), -1.0)

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError, match="not an integer or half-integer"):
            _twice(0.3)
        for bad in range(6):
            args = [1, 1, 0.5, -0.5, 1.5, 0.5]
            args[bad] = 0.3
            with pytest.raises(ValueError, match="not an integer or half-integer"):
                clebsch_gordan(*args)
        with pytest.raises(ValueError, match="not an integer or half-integer"):
            transfer_coefficient(2, 1, 0.3, 0)
        with pytest.raises(ValueError, match="not an integer or half-integer"):
            transfer_coefficient(2, 1, 1, 0.3)


class TestClebschGordan:
    def test_trivial_coupling(self):
        assert clebsch_gordan(0, 0, 0, 0, 0, 0) == 1.0

    def test_two_qubit_value_from_dense_oracle(self):
        # brute-force diagonalization of the total-spin operators on 2 qubits
        column = oracles.cg_column_oracle(1, 1, 2, 0)
        assert column[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
        got = clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0)
        assert got == pytest.approx(column[1], abs=1e-14)

    def test_selection_rule_m_mismatch(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 0) == 0.0

    def test_selection_rule_triangle(self):
        assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0

    def test_selection_rule_projection_parity(self):
        # m = 0 is not a valid projection of j = 1/2
        assert clebsch_gordan(0.5, 0.0, 0.5, 0.0, 1, 0) == 0.0

    @pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 1), (2, 2), (3, 2),
                                         (4, 3), (6, 5), (8, 8), (12, 9),
                                         (12, 12)])
    def test_against_dense_oracle(self, tj1, tj2):
        rng = np.random.default_rng(tj1 * 37 + tj2)
        t_ms = [int(m) for m in rng.choice(np.arange(-tj1 - tj2, tj1 + tj2 + 1, 2),
                                           size=3, replace=False)] \
            if tj1 + tj2 >= 2 else [0]
        for t_m in t_ms:
            for t_J in range(max(abs(tj1 - tj2), abs(t_m)), tj1 + tj2 + 1, 2):
                column = oracles.cg_column_oracle(tj1, tj2, t_J, t_m)
                for t_m1, want in column.items():
                    got = clebsch_gordan(tj1 / 2, t_m1 / 2, tj2 / 2,
                                         (t_m - t_m1) / 2, t_J / 2, t_m / 2)
                    assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 2), (3, 3), (5, 4),
                                         (8, 7), (12, 12), (12, 11)])
    def test_orthogonality_over_total_spin(self, tj1, tj2):
        # for fixed (m1, m2), sum_J <j1 m1; j2 m2 | J M>^2 = 1
        for t_m1 in range(-tj1, tj1 + 1, 2):
            for t_m2 in range(-tj2, tj2 + 1, 2):
                t_m = t_m1 + t_m2
                total = 0.0
                for t_J in range(max(abs(tj1 - tj2), abs(t_m)), tj1 + tj2 + 1, 2):
                    total += clebsch_gordan(tj1 / 2, t_m1 / 2, tj2 / 2,
                                            t_m2 / 2, t_J / 2, t_m / 2) ** 2
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_spin_stability(self):
        # stretched coefficient has a closed binomial form at any size
        tj = 120
        got = clebsch_gordan(tj / 2, 0, tj / 2, 0, tj, 0)
        want = math.sqrt(comb(tj, tj // 2) ** 2 / comb(2 * tj, tj))
        assert got == pytest.approx(want, rel=1e-13)


class TestTransferCoefficient:
    def test_identity_branch(self):
        assert transfer_coefficient(1, 0, 0.5, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_two_qubit_single_flip_vanishes(self):
        # one flip cannot keep |j=1, m=0> of two qubits coherent
        assert transfer_coefficient(2, 1, 1, 0) == pytest.approx(0.0, abs=1e-14)

    def test_two_qubit_double_flip_sign(self):
        assert transfer_coefficient(2, 2, 1, 1) == pytest.approx(1.0, abs=1e-14)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            transfer_coefficient(2, 3, 1, 0)
        with pytest.raises(ValueError):
            transfer_coefficient(2, 0, 0, 0)  # j below |n/2 - k| minimum
        with pytest.raises(ValueError):
            transfer_coefficient(2, 1, 1, 2)  # |m| > j
        with pytest.raises(ValueError):
            transfer_coefficient(3, 1, 1, 0)  # j not in the odd-N ladder

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 14, 21])
    def test_tables_match_exact_path(self, n):
        tables = dephasing_tables(n)
        for k in range(n + 1):
            for tj in allowed_twice_j(n):
                if tj < abs(n - 2 * k):
                    continue
                for tm in range(-tj, tj + 1, 2):
                    fast = tables.transfer(k, tj, tm)
                    exact = transfer_coefficient(n, k, tj / 2, tm / 2)
                    assert fast == pytest.approx(exact, abs=2e-13), (n, k, tj, tm)

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 51, 120, 200])
    def test_tables_match_dstev_reference(self, n):
        # the one-particle recurrence against one tridiagonal solve
        # per (k, m)
        got = dephasing_tables(n)._c
        assert np.max(np.abs(got - _dstev_half_table(n))) < 2e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_completeness_over_spin(self, n):
        # the flip-transfer coefficients expand a unit vector over the coupled
        # basis, so their squares sum to one over j
        for k in range(n + 1):
            for tm in range(n % 2, n + 1, 2):
                total = sum(
                    transfer_coefficient(n, k, tj / 2, tm / 2) ** 2
                    for tj in allowed_twice_j(n)
                    if tj >= abs(n - 2 * k) and tj >= abs(tm))
                assert total == pytest.approx(1.0, abs=1e-12)


class TestRecurrence:
    """The tables come from the table for one particle fewer; a cold build
    runs that recurrence from N = 0."""

    @pytest.mark.parametrize("n", [60, 121, 200])
    def test_sampled_entries_match_exact_path(self, n):
        rng = np.random.default_rng(n)
        tables = dephasing_tables(n)
        for _ in range(40):
            k = int(rng.integers(0, n + 1))
            tj = int(rng.choice(np.arange(abs(n - 2 * k), n + 1, 2)))
            tm = int(rng.choice(np.arange(-tj, tj + 1, 2)))
            exact = transfer_coefficient(n, k, tj / 2, tm / 2)
            assert abs(tables.transfer(k, tj, tm) - exact) < 1e-14, (k, tj, tm)

    @pytest.mark.parametrize("n,start", [(60, 59), (60, 45), (61, 60), (61, 2)])
    def test_continued_table_has_the_cold_bits(self, n, start):
        dephasing_tables.cache_clear()
        dephasing_tables(start)
        continued = dephasing_tables(n)
        assert np.array_equal(continued._c, DephasingTables(n)._c)
        assert not continued._c.flags.writeable
        with pytest.raises(ValueError, match="cannot continue"):
            DephasingTables(start, continued)

    def test_cache_clear_leaves_nothing_to_continue_from(self, monkeypatch):
        steps = []
        step = angmom._next_half_table

        def counted(h, n):
            steps.append(n)
            return step(h, n)

        monkeypatch.setattr(angmom, "_next_half_table", counted)
        dephasing_tables.cache_clear()
        dephasing_tables(30)
        assert steps == list(range(30))
        del steps[:]
        dephasing_tables(30)
        dephasing_tables(32)
        assert steps == [30, 31]
        dephasing_tables.cache_clear()
        del steps[:]
        dephasing_tables(32)
        assert steps == list(range(32))

    def test_keeps_four_tables(self):
        dephasing_tables.cache_clear()
        for n in range(1, 8):
            dephasing_tables(n)
        assert list(angmom._tables) == [4, 5, 6, 7]
        dephasing_tables(5)
        assert list(angmom._tables) == [4, 6, 7, 5]

    def test_concurrent_callers(self):
        # more threads than cores, switching often: every caller gets the
        # cold bits of its own N, and the cache never holds more than four
        want = {n: DephasingTables(n)._c for n in range(1, 25)}
        dephasing_tables.cache_clear()
        errors, seen = [], []

        def work(seed):
            try:
                for n in np.random.default_rng(seed).integers(1, 25, size=40):
                    tables = dephasing_tables(int(n))
                    if tables.n != n or not np.array_equal(tables._c, want[n]):
                        errors.append((seed, int(n)))
                    with angmom._tables_lock:
                        seen.append(len(angmom._tables))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(seen) == 8 * 40 and max(seen) <= 4


class TestDephasingWeight:
    def test_noiseless_concentrates_on_zero_flips(self):
        assert dephasing_weight(3, 0, 1.0) == 1.0
        assert dephasing_weight(3, 1, 1.0) == 0.0

    def test_balanced_at_zero_eta(self):
        assert dephasing_weight(2, 1, 0.0) == pytest.approx(0.5)

    def test_direct_arithmetic(self):
        want = comb(4, 2) * 0.15 ** 2 * 0.85 ** 2
        assert dephasing_weight(4, 2, 0.7) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 63, 128, 200, 1100])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_normalization(self, n, eta):
        total = sum(dephasing_weight(n, k, eta) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 10, 550, 700])
    def test_large_n_matches_exact_rational(self, k):
        # binom(1100, 550) overflows a float; the log-space form stays finite.
        # Its log terms reach ~7e3, so its relative error can reach ~1e-12.
        n, eta = 1100, Fraction(0.7)
        want = comb(n, k) * ((1 - eta) / 2) ** k * ((1 + eta) / 2) ** (n - k)
        got = dephasing_weight(n, k, 0.7)
        assert math.isfinite(got) and got > 0.0
        assert got == pytest.approx(float(want), rel=1e-11)

    def test_exact_at_parameter_edges(self):
        # no 0 log 0 = nan at k = 0 or k = n
        n = 1100
        assert dephasing_weight(n, 0, 1.0) == 1.0
        assert dephasing_weight(n, n, 1.0) == 0.0
        assert dephasing_weight(n, 1, 1.0) == 0.0
        assert dephasing_weight(n, 0, 0.0) == pytest.approx(2.0 ** -n, rel=1e-12)
        # 0.15^1100 ~ 1e-906 is below the float range: zero, not nan
        assert dephasing_weight(n, n, 0.7) == 0.0
        assert dephasing_weight(n, n, 0.0) == pytest.approx(2.0 ** -n, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dephasing_weight(3, 1, 1.2)
        with pytest.raises(ValueError):
            dephasing_weight(3, 5, 0.5)


class TestScipyFreeLogTerms:
    """The in-house log terms keep the bits of the scipy.special expressions
    they replace, so the tables built from them do too."""

    @pytest.mark.parametrize("p", [0.0, 0.15, 0.3, 0.35, 0.65, 0.85, 1.0])
    def test_xlogy(self, p):
        k = np.arange(300)
        assert np.array_equal(_xlogy(k, p), xlogy(k, p))
        assert all(_xlogy(int(i), p) == xlogy(i, p) for i in (0, 1, 299))

    def test_lgamma_table(self):
        # every size is a prefix of the largest, so size 20,000 covers all
        # sizes up to it; the views are read-only, as the table is shared
        for size in (3, 202, 50, 1000, 20_000, 1):
            table = _lgamma_table(size)
            assert np.array_equal(table, gammaln(np.arange(size, dtype=float)))
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_flip_probabilities(self, eta):
        for n in range(1, 201):
            k = np.arange(n + 1)
            want = np.exp(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                          + xlogy(k, (1.0 - eta) / 2.0)
                          + xlogy(n - k, (1.0 + eta) / 2.0))
            assert np.array_equal(_flip_probabilities(n, k, eta), want)
            assert [dephasing_weight(n, i, eta) for i in (0, n // 2, n)] == \
                want[[0, n // 2, n]].tolist()


class TestBulkTableInvariants:
    """Identities that hold at every N, checked where no exact reference is
    cheap: N = 200."""

    N = 200

    def test_squares_sum_to_one_over_spin(self):
        # every (k, m) column of the half table is a unit vector over j; the
        # k -> n-k half differs only by signs
        total = np.sum(dephasing_tables(self.N)._c ** 2, axis=1)
        assert np.max(np.abs(total - 1.0)) < 2e-12

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7])
    def test_trace_preservation_and_positivity(self, eta):
        n = self.N
        diagonal = np.zeros(n + 1)
        for tj, block in coupling_blocks(n, eta).items():
            tms = np.arange(-tj, tj + 1, 2)
            diagonal[(tms + n) // 2] += np.diag(block)
            assert np.min(np.linalg.eigvalsh(block)) > -1e-12, tj
        # sum over j >= |m| of A_j[m, m] = 1 for every m
        assert np.max(np.abs(diagonal - 1.0)) < 2e-12

    def test_full_dephasing_blocks_are_exactly_diagonal(self):
        for n in (1, 2, 7, self.N):
            for tj, block in coupling_blocks(n, 0.0).items():
                assert not np.any(block - np.diag(np.diagonal(block))), (n, tj)

    def test_noiseless_keeps_only_the_top_block(self):
        n = self.N
        blocks = coupling_blocks(n, 1.0)
        assert np.max(np.abs(blocks[n] - 1.0)) < 2e-12
        for tj in allowed_twice_j(n - 2):
            assert not np.any(blocks[tj]), tj


class TestCouplingBlocksByBlock:
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 121])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_shared_flip_probabilities(self, n, eta):
        # one flip-probability vector per (n, eta) gives every block the bits
        # of the product whose probabilities are computed for it alone
        blocks = coupling_blocks(n, eta)
        assert sorted(blocks) == list(allowed_twice_j(n))
        for tj, block in blocks.items():
            assert np.array_equal(block, coupling_block(n, tj, eta)), tj


class TestCachedResultsAreReadOnly:
    def test_coupling_blocks_cannot_be_overwritten(self):
        before = coupling_blocks(3, 0.7)[3].copy()
        with pytest.raises(ValueError):
            coupling_blocks(3, 0.7)[3][0, 0] = 99.0
        with pytest.raises(TypeError):
            coupling_blocks(3, 0.7)[3] = np.zeros((4, 4))
        np.testing.assert_array_equal(coupling_blocks(3, 0.7)[3], before)

    def test_table_cannot_be_overwritten(self):
        tables = dephasing_tables(3)
        before = tables.transfer(1, 3, 1)
        with pytest.raises(ValueError):
            tables._c[0, 0, 0] = 99.0
        assert dephasing_tables(3).transfer(1, 3, 1) == before


class TestCouplingMatrixEntry:
    def test_single_qubit_noiseless(self):
        assert coupling_matrix_entry(1, 0.5, 0.5, -0.5, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.7, 1.0])
    def test_single_qubit_damps_coherence_by_eta(self, eta):
        got = coupling_matrix_entry(1, 0.5, 0.5, -0.5, eta)
        assert got == pytest.approx(eta, abs=1e-14)

    def test_symmetry_in_projections(self):
        a = coupling_matrix_entry(4, 2, 1, -2, 0.6)
        b = coupling_matrix_entry(4, 2, -2, 1, 0.6)
        assert a == b

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_blocks_match_tensor_product_kraus_oracle(self, n, eta):
        # assemble each spin-j block from per-entry coupling coefficients and
        # compare with the full 2^n channel, entrywise; the bulk blocks too
        state = oracles.random_state(n, seed=10 * n + int(10 * eta))
        brute = oracles.brute_dephasing_blocks(state, eta)
        c = state.amplitudes
        for tj, want in brute.items():
            tms = np.arange(-tj, tj + 1, 2)
            idx = (tms + n) // 2
            coupling = np.array([[coupling_matrix_entry(
                n, tj / 2, tm / 2, tm2 / 2, eta)
                for tm2 in tms] for tm in tms])
            for weight in (coupling, coupling_blocks(n, eta)[tj]):
                got = weight * np.outer(c[idx], c[idx].conj())
                assert np.max(np.abs(got - want)) < 1e-12

    def test_two_qubit_value_from_oracle(self):
        state = oracles.random_state(2, seed=3)
        brute = oracles.brute_dephasing_blocks(state, 0.7)
        c = state.amplitudes
        want = (brute[2][2, 2] / (c[2] * np.conj(c[2]))).real
        got = coupling_matrix_entry(2, 1, 1, 1, 0.7)
        assert got == pytest.approx(want, abs=1e-12)


class TestMultiplicityDimension:
    def test_two_qubit_sectors(self):
        assert multiplicity_dimension(2, 1) == 1
        assert multiplicity_dimension(2, 0) == 1

    def test_four_qubit_triplet_count(self):
        assert multiplicity_dimension(4, 1) == comb(4, 1) - comb(4, 0)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_dimension_sum_is_full_space(self, n):
        total = sum(multiplicity_dimension(n, tj / 2) * (tj + 1)
                    for tj in allowed_twice_j(n))
        assert total == 2 ** n

    def test_rejects_off_ladder_spin(self):
        with pytest.raises(ValueError):
            multiplicity_dimension(2, 0.5)
