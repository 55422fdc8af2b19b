import math

import numpy as np
import pytest

from gqd.core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    eig_hermitian,
    kron,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
)
from gqd.correlations import gqd_at_basis
from gqd.measurement import ProductBasis, QubitBasisAngles, all_z, dephase, qubit_basis
from gqd.states import (
    bell,
    ghz,
    ghz_dephased_spectrum,
    ghz_surface,
    random_density,
    werner,
    werner_ghz,
    werner_ghz_dephased_entropy_analytic,
    werner_ghz_entropy_analytic,
    werner_ghz_gqd_analytic,
)


class TestGhz:
    def test_single_qubit_reductions_maximally_mixed(self):
        state = ghz(3)
        for j in range(3):
            assert np.abs(partial_trace(state, [j]).matrix - np.eye(2) / 2).max() <= 1e-12

    def test_two_qubits_is_bell(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert np.abs(ghz(2).matrix - np.outer(v, v)).max() <= 1e-15
        assert np.abs(bell().matrix - ghz(2).matrix).max() == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pure(self, n):
        assert von_neumann_entropy(ghz(n)) <= 1e-12

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            ghz(1)


class TestWernerGhz:
    def test_endpoints(self):
        assert np.abs(werner_ghz(0.0).matrix - np.eye(8) / 8).max() <= 1e-15
        assert np.abs(werner_ghz(1.0).matrix - ghz(3).matrix).max() <= 1e-15

    def test_eigenvalues(self):
        for mu in (0.2, 0.5, 0.9):
            w = np.sort(np.linalg.eigvalsh(werner_ghz(mu).matrix))
            want = np.sort([(1 + 7 * mu) / 8] + [(1 - mu) / 8] * 7)
            assert np.abs(w - want).max() <= 1e-12

    def test_pauli_expansion(self):
        # (1 + mu (ZZ1 + Z1Z + 1ZZ + XXX - XYY - YXY - YYX)) / 8
        i2 = np.eye(2)
        terms = [
            (+1.0, (SIGMA_Z, SIGMA_Z, i2)),
            (+1.0, (SIGMA_Z, i2, SIGMA_Z)),
            (+1.0, (i2, SIGMA_Z, SIGMA_Z)),
            (+1.0, (SIGMA_X, SIGMA_X, SIGMA_X)),
            (-1.0, (SIGMA_X, SIGMA_Y, SIGMA_Y)),
            (-1.0, (SIGMA_Y, SIGMA_X, SIGMA_Y)),
            (-1.0, (SIGMA_Y, SIGMA_Y, SIGMA_X)),
        ]
        for mu in np.linspace(0.0, 1.0, 21):
            want = (np.eye(8) + mu * sum(sign * kron(*ops) for sign, ops in terms)) / 8.0
            assert np.abs(werner_ghz(float(mu)).matrix - want).max() <= 1e-12

    def test_range_validation(self):
        with pytest.raises(ValueError):
            werner_ghz(-0.01)
        with pytest.raises(ValueError):
            werner_ghz(1.01)

    def test_entropy_closed_forms(self):
        for mu in np.linspace(0.0, 1.0, 11):
            state = werner_ghz(float(mu))
            assert abs(von_neumann_entropy(state) - werner_ghz_entropy_analytic(float(mu))) <= 1e-10
            dephased = dephase(state, all_z(3))
            assert (
                abs(von_neumann_entropy(dephased) - werner_ghz_dephased_entropy_analytic(float(mu)))
                <= 1e-10
            )


class TestWernerGhzAnalyticGqd:
    def test_endpoints(self):
        assert werner_ghz_gqd_analytic(0.0) == 0.0
        assert abs(werner_ghz_gqd_analytic(1.0) - 1.0) <= 1e-12

    def test_mu_half_cross_check(self):
        value = werner_ghz_gqd_analytic(0.5)
        numeric = gqd_at_basis(werner_ghz(0.5), all_z(3))
        assert abs(value - numeric) <= 1e-10

    def test_monotone_on_unit_interval(self):
        mus = np.linspace(0.0, 1.0, 101)
        vals = [werner_ghz_gqd_analytic(float(m)) for m in mus]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestWerner:
    def test_endpoints(self):
        assert np.abs(werner(0.0).matrix - np.eye(4) / 4).max() <= 1e-15
        assert np.abs(werner(1.0).matrix - bell().matrix).max() <= 1e-15


class TestGhzDephasedSpectrum:
    def test_aligned_measurement(self):
        spectrum = ghz_dephased_spectrum(0.0, 0.0)
        assert np.allclose(np.sort(spectrum), [0, 0, 0, 0, 0, 0, 0.5, 0.5])

    def test_balanced_measurement(self):
        spectrum = ghz_dephased_spectrum(math.pi / 2, math.pi / 2)
        assert np.allclose(spectrum, np.full(8, 1 / 8))

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = ghz_dephased_spectrum(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            assert abs(s.sum() - 1.0) <= 1e-12

    def test_matches_full_pipeline(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            t2, t3 = rng.uniform(0, math.pi, size=2)
            basis = ProductBasis(
                (
                    qubit_basis(QubitBasisAngles(0.0, 0.0)),
                    qubit_basis(QubitBasisAngles(t2, 0.0)),
                    qubit_basis(QubitBasisAngles(t3, 0.0)),
                )
            )
            computed = eig_hermitian(dephase(ghz(3), basis)).eigenvalues
            assert np.abs(np.sort(ghz_dephased_spectrum(t2, t3)) - computed).max() <= 1e-10


class TestGhzSurface:
    def test_minimum_at_origin(self):
        t2, t3, values = ghz_surface(33)
        assert values.min() == values[0, 0]
        assert abs(values[0, 0] - 1.0) <= 1e-12
        assert t2[0] == 0.0 and t3[0] == 0.0

    def test_balanced_value_is_three(self):
        # -8 * (1/8) log2(1/8) = 3 at theta2 = theta3 = pi/2
        _, _, values = ghz_surface(2)
        assert abs(values[1, 1] - 3.0) <= 1e-12

    def test_symmetric_in_angles(self):
        _, _, values = ghz_surface(17)
        assert np.abs(values - values.T).max() <= 1e-12

    def test_matches_pointwise_spectrum_entropy(self):
        t2, t3, values = ghz_surface(17)
        pointwise = [[shannon_entropy(ghz_dephased_spectrum(a, b)) for b in t3] for a in t2]
        assert np.array_equal(values, np.array(pointwise))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            ghz_surface(1)


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        assert von_neumann_entropy(random_density((2, 2), rank=1, seed=3)) <= 1e-9

    def test_deterministic(self):
        a = random_density((2, 2, 2), seed=42)
        b = random_density((2, 2, 2), seed=42)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_density((2, 2, 2), seed=43)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_validity_across_ranks(self):
        # DensityOperator construction enforces the invariants
        for rank in range(1, 9):
            rho = random_density((2, 2, 2), rank=rank, seed=rank)
            assert rho.total_dim == 8

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            random_density((2,), rank=3, seed=0)
