import math

import numpy as np
import pytest

from gqd.core import (
    DensityOperator,
    kron,
    partial_trace,
    von_neumann_entropy,
)
from gqd.measurement import (
    LocalBasis,
    ProductBasis,
    QubitBasisAngles,
    all_z,
    computational_basis,
    dephase,
    qubit_basis,
    qubit_unitary,
    reduced_eigenbasis,
    sigma_x_basis,
)
from gqd.states import ghz, random_density, werner_ghz


def random_product_basis(rng, n):
    locals_ = tuple(
        qubit_basis(
            QubitBasisAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        )
        for _ in range(n)
    )
    return ProductBasis(locals_)


class TestQubitBasis:
    def test_zero_rotation_is_sigma_z(self):
        b = qubit_basis(QubitBasisAngles(0.0, 0.0))
        assert np.allclose(b.projectors[0], np.diag([1, 0]))
        assert np.allclose(b.projectors[1], np.diag([0, 1]))

    def test_half_pi_is_sigma_x(self):
        b = qubit_basis(QubitBasisAngles(math.pi / 2, 0.0))
        plus = np.array([1, 1]) / math.sqrt(2)
        minus = np.array([1, -1]) / math.sqrt(2)
        assert np.allclose(b.projectors[0], np.outer(plus, plus), atol=1e-15)
        assert np.allclose(b.projectors[1], np.outer(minus, minus), atol=1e-15)

    def test_printed_phase_convention(self):
        # |+> = cos(t/2)|0> + e^{i p} sin(t/2)|1>, |-> = -e^{-i p} sin(t/2)|0> + cos(t/2)|1>
        t, p = 1.0, 2.0
        u = qubit_unitary(t, p)
        assert u[0, 0] == math.cos(0.5)
        assert u[1, 0] == np.exp(2.0j) * math.sin(0.5)
        assert u[0, 1] == -np.exp(-2.0j) * math.sin(0.5)
        assert u[1, 1] == math.cos(0.5)

    def test_array_angles_match_scalar_calls(self):
        rng = np.random.default_rng(17)
        theta = rng.uniform(0, math.pi, (5, 3))
        phi = rng.uniform(0, 2 * math.pi, (5, 3))
        u = qubit_unitary(theta, phi)
        assert u.shape == (5, 3, 2, 2)
        for idx in np.ndindex(theta.shape):
            single = qubit_unitary(float(theta[idx]), float(phi[idx]))
            assert np.abs(u[idx] - single).max() <= 1e-15

    def test_completeness_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            b = qubit_basis(
                QubitBasisAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            )
            p0, p1 = b.projectors
            assert np.abs(p0 + p1 - np.eye(2)).max() <= 1e-10
            assert np.abs(p0 @ p1).max() <= 1e-10
            assert np.abs(p0 @ p0 - p0).max() <= 1e-10
            assert np.abs(p0 - p0.conj().T).max() <= 1e-10

    def test_angle_ranges(self):
        with pytest.raises(ValueError):
            QubitBasisAngles(-0.1, 0.0)
        with pytest.raises(ValueError):
            QubitBasisAngles(math.pi, 0.0)
        with pytest.raises(ValueError):
            QubitBasisAngles(0.0, 2 * math.pi)

    def test_local_basis_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            LocalBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestDephase:
    def test_diagonal_state_unchanged(self):
        rho = DensityOperator(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex),
                              (2, 2))
        out = dephase(rho, all_z(2))
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-12

    def test_ghz_in_z_basis(self):
        out = dephase(ghz(3), all_z(3))
        want = np.zeros((8, 8), dtype=complex)
        want[0, 0] = want[7, 7] = 0.5
        assert np.abs(out.matrix - want).max() <= 1e-12

    def test_werner_ghz_in_z_basis(self):
        # (1-mu)/8 * 1 + mu/8 (1 + zz1 + z1z + 1zz)
        z = np.diag([1.0, -1.0]).astype(complex)
        i2 = np.eye(2, dtype=complex)
        for mu in (0.0, 0.3, 0.8, 1.0):
            want = (1 - mu) / 8 * np.eye(8) + mu / 8 * (
                np.eye(8)
                + kron(z, z, i2)
                + kron(z, i2, z)
                + kron(i2, z, z)
            )
            out = dephase(werner_ghz(mu), all_z(3))
            assert np.abs(out.matrix - want).max() <= 1e-12

    def test_idempotent_trace_preserving_unital(self):
        rng = np.random.default_rng(8)
        for seed in range(20):
            n = 2 + seed % 2
            rho = random_density((2,) * n, seed=seed)
            basis = random_product_basis(rng, n)
            once = dephase(rho, basis)
            twice = dephase(once, basis)
            assert np.abs(twice.matrix - once.matrix).max() <= 1e-10
            assert abs(once.matrix.trace() - 1) <= 1e-12
            assert np.linalg.eigvalsh(once.matrix).min() >= -1e-12
        mixed = DensityOperator(np.eye(4, dtype=complex) / 4, (2, 2))
        basis = random_product_basis(rng, 2)
        assert np.abs(dephase(mixed, basis).matrix - np.eye(4) / 4).max() <= 1e-12

    def test_commutes_with_partial_trace(self):
        # Tr_{!=j} Phi(rho) = Phi_j(Tr_{!=j} rho)
        rng = np.random.default_rng(12)
        for seed in range(10):
            rho = random_density((2, 2, 2), seed=40 + seed)
            basis = random_product_basis(rng, 3)
            full = dephase(rho, basis)
            for j in range(3):
                left = partial_trace(full, [j])
                right = dephase(partial_trace(rho, [j]), ProductBasis((basis.locals[j],)))
                assert np.abs(left.matrix - right.matrix).max() <= 1e-10

    def test_never_decreases_entropy(self):
        rng = np.random.default_rng(15)
        for seed in range(15):
            rho = random_density((2, 2), seed=60 + seed, rank=1 + seed % 4)
            basis = random_product_basis(rng, 2)
            assert von_neumann_entropy(dephase(rho, basis)) >= von_neumann_entropy(rho) - 1e-10

    def test_matches_einsum_reference(self):
        # sum_k |k><k| rho |k><k| over the product vectors |k>, by einsum
        rng = np.random.default_rng(29)
        for seed in range(10):
            n = 2 + seed % 2
            rho = random_density((2,) * n, rank=1 + seed % 4, seed=700 + seed)
            basis = random_product_basis(rng, n)
            u = kron(*(b.vectors for b in basis.locals))
            p = np.real(np.einsum("ik,ij,jk->k", u.conj(), rho.matrix, u))
            want = np.einsum("ik,k,jk->ij", u, p, u.conj())
            assert np.abs(dephase(rho, basis).matrix - want).max() <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dephase(ghz(3), all_z(2))


class TestLocalDephase:
    def test_maximally_mixed_fixed_point(self):
        rho = DensityOperator(np.eye(2, dtype=complex) / 2, (2,))
        out = dephase(rho, ProductBasis((sigma_x_basis(),)))
        assert np.abs(out.matrix - np.eye(2) / 2).max() <= 1e-12

    def test_plus_x_in_z_basis(self):
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        rho = DensityOperator(np.outer(plus, plus), (2,))
        out = dephase(rho, ProductBasis((computational_basis(2),)))
        assert np.abs(out.matrix - np.eye(2) / 2).max() <= 1e-12

    def test_own_eigenbasis_is_fixed_point(self):
        rho = random_density((2,), seed=5)
        w, v = np.linalg.eigh(rho.matrix)
        out = dephase(rho, ProductBasis((LocalBasis(v),)))
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-12


class TestReducedEigenbasis:
    def test_diagonal_reduced_state_gives_z(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.6, 0.4]).astype(complex)
        rho = DensityOperator(kron(a, b), (2, 2))
        basis = reduced_eigenbasis(rho, 0)
        v = basis.vectors
        rotated = v.conj().T @ partial_trace(rho, [0]).matrix @ v
        assert np.abs(rotated - np.diag(np.diag(rotated))).max() <= 1e-12
        # same unordered basis as sigma-z: every projector is diagonal
        for p in basis.projectors:
            assert np.abs(p - np.diag(np.diag(p))).max() <= 1e-12

    def test_ghz_degenerate_falls_back_to_z(self):
        basis = reduced_eigenbasis(ghz(3), 1)
        assert np.array_equal(basis.vectors, np.eye(2))

    def test_deterministic(self):
        rho = random_density((2, 2), seed=31)
        b1 = reduced_eigenbasis(rho, 0)
        b2 = reduced_eigenbasis(rho, 0)
        assert np.array_equal(b1.vectors, b2.vectors)
