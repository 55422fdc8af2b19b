import itertools
import math

import numpy as np
import pytest

from gqd.core import (
    DensityOperator,
    SIGMA_X,
    SIGMA_Z,
    eig_hermitian,
    kron,
    partial_trace,
    reduced_from_vector,
    relative_entropy,
    shannon_entropy,
    trace_out,
    von_neumann_entropy,
)
from gqd.correlations import gqd
from gqd.states import ghz, random_density, werner_ghz


def naive_kron(a, b):
    """Direct index formula (i1 i2, j1 j2) -> a[i1, j1] * b[i2, j2]."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i1 in range(ra):
        for i2 in range(rb):
            for j1 in range(ca):
                for j2 in range(cb):
                    out[i1 * rb + i2, j1 * cb + j2] = a[i1, j1] * b[i2, j2]
    return out


def naive_partial_trace(m, dims, keep):
    """O(d^4)-ish index-summation oracle, independent of the library path."""
    n = len(dims)
    traced = [k for k in range(n) if k not in keep]
    keep_dims = [dims[k] for k in keep]
    traced_dims = [dims[k] for k in traced]

    def flat(tup):
        idx = 0
        for k in range(n):
            idx = idx * dims[k] + tup[k]
        return idx

    def flat_keep(tup):
        idx = 0
        for pos in range(len(keep)):
            idx = idx * keep_dims[pos] + tup[pos]
        return idx

    d_keep = int(np.prod(keep_dims))
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for ki in itertools.product(*[range(d) for d in keep_dims]):
        for kj in itertools.product(*[range(d) for d in keep_dims]):
            total = 0.0
            for t in itertools.product(*[range(d) for d in traced_dims]):
                row = [0] * n
                col = [0] * n
                for pos, k in enumerate(keep):
                    row[k], col[k] = ki[pos], kj[pos]
                for pos, k in enumerate(traced):
                    row[k] = col[k] = t[pos]
                total += m[flat(row), flat(col)]
            out[flat_keep(ki), flat_keep(kj)] = total
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        assert np.allclose(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_against_index_formula(self):
        got = kron(SIGMA_X, SIGMA_Z)
        assert np.allclose(got, naive_kron(SIGMA_X, SIGMA_Z))
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.allclose(kron(a, b), naive_kron(a, b), atol=1e-14)
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.array_equal(kron(a), a)
        assert np.allclose(kron(a, b, c), naive_kron(naive_kron(a, b), c), atol=1e-14)


class TestDims:
    def test_total(self):
        rho = DensityOperator(np.eye(12) / 12, (2, 3, 2))
        assert rho.total_dim == 12
        assert rho.n_subsystems == 3

    def test_rejects_small_dims(self):
        with pytest.raises(ValueError, match=r"every local dimension must be >= 2, got \(2, 1\)"):
            DensityOperator(np.eye(2) / 2, (2, 1))
        with pytest.raises(ValueError, match="every local dimension must be >= 2"):
            reduced_from_vector(np.ones(2), (2, 1), [0])
        with pytest.raises(ValueError, match="every local dimension must be >= 2"):
            random_density((1, 2))

    def test_rejects_no_subsystems(self):
        with pytest.raises(ValueError, match="need at least one subsystem"):
            DensityOperator(np.eye(1), ())

    def test_qubits(self):
        dims = DensityOperator(np.eye(8) / 8, [np.int64(2)] * 3).dims
        assert dims == (2, 2, 2)
        assert type(dims) is tuple and all(type(d) is int for d in dims)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(m, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2, dtype=complex), (2,))

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            DensityOperator(m, (2,))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="side"):
            DensityOperator(np.eye(4, dtype=complex) / 4, (2,))

    def test_dtype_follows_the_input(self):
        dims = (2,)
        for given, stored in ((np.float32, np.float64), (np.float64, np.float64),
                              (np.complex64, np.complex128), (np.complex128, np.complex128)):
            rho = DensityOperator((np.eye(2) / 2).astype(given), dims)
            assert rho.matrix.dtype == stored
            assert rho.eigenvalues.dtype == np.float64
        assert DensityOperator([[1, 0], [0, 0]], dims).matrix.dtype == np.float64

    def test_stores_the_exact_hermitian_part(self):
        # random_density's G G^dagger for one qubit: Hermitian to rounding, not exactly
        rng = np.random.default_rng(0)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        m /= m.trace().real
        assert 0.0 < np.abs(m - m.conj().T).max() <= 1e-10
        rho = DensityOperator(m, (2,))
        assert np.array_equal(rho.matrix, 0.5 * (m + m.conj().T))
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert np.array_equal(random_density((2,), seed=0).matrix, rho.matrix)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        a = random_density((2,), seed=1).matrix
        b = random_density((2,), seed=2).matrix
        rho = DensityOperator(kron(a, b), (2, 2))
        assert np.allclose(partial_trace(rho, [0]).matrix, a, atol=1e-12)
        assert np.allclose(partial_trace(rho, [1]).matrix, b, atol=1e-12)

    def test_ghz_single_qubit_is_maximally_mixed(self):
        for j in range(3):
            red = partial_trace(ghz(3), [j])
            assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_against_naive_oracle(self):
        rho = random_density((2, 2, 2), seed=11)
        for keep in ([0], [1, 2], [2, 0], [0, 1, 2]):
            got = partial_trace(rho, keep).matrix
            want = naive_partial_trace(rho.matrix, [2, 2, 2], keep)
            assert np.abs(got - want).max() <= 1e-12

    def test_keep_order_is_respected(self):
        rho = random_density((2, 2), seed=3)
        swapped = partial_trace(rho, [1, 0]).matrix
        want = naive_partial_trace(rho.matrix, [2, 2], [1, 0])
        assert np.abs(swapped - want).max() <= 1e-12

    def test_trace_preserved(self):
        rho = random_density((2, 2, 2), seed=5, rank=3)
        assert abs(partial_trace(rho, [1]).matrix.trace() - 1) < 1e-12

    @pytest.mark.parametrize("keep", [[], [3], [0, 0]])
    def test_invalid_keep(self, keep):
        rho = random_density((2, 2), seed=0)
        with pytest.raises(ValueError):
            partial_trace(rho, keep)


class TestTraceOut:
    # per-matrix einsum references over dims (2, 3, 2): ket axes abc, bra axes def
    REFERENCES = {
        (2, 0): "abcdbf->cafd",  # subsystem 1 traced, 2 kept before 0
        (1,): "abcaec->be",
        (2, 1, 0): "abcdef->cbafed",  # nothing traced, order reversed
    }

    @pytest.mark.parametrize("dtype", [complex, float])  # a real stack stays real
    @pytest.mark.parametrize("keep", list(REFERENCES))
    def test_mixed_dims_stack_matches_einsum_reference(self, keep, dtype):
        rng = np.random.default_rng(41)
        m = rng.standard_normal((2, 3, 12, 12)).astype(dtype)
        if dtype is complex:
            m += 1j * rng.standard_normal((2, 3, 12, 12))
        d = math.prod((2, 3, 2)[k] for k in keep)
        got = trace_out(m, (2, 3, 2), list(keep))
        assert got.shape == (2, 3, d, d) and got.dtype == m.dtype
        for idx in np.ndindex(2, 3):
            t = m[idx].reshape(2, 3, 2, 2, 3, 2)
            want = np.einsum(self.REFERENCES[keep], t).reshape(d, d)
            assert np.abs(got[idx] - want).max() <= 1e-12


class TestReducedFromVector:
    def test_matches_partial_trace_of_projector(self):
        rng = np.random.default_rng(21)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        rho = DensityOperator(np.outer(v, v.conj()), (2,) * 3)
        for keep in ([0], [2, 1], [0, 2]):
            got = reduced_from_vector(v, (2, 2, 2), keep).matrix
            want = partial_trace(rho, keep).matrix
            assert np.abs(got - want).max() <= 1e-12

    def test_real_vector_matches_its_complex_cast(self):
        v = np.random.default_rng(22).standard_normal(64)
        v /= np.linalg.norm(v)
        for keep in ([0], [3, 1], [0, 2, 5, 4]):
            got = reduced_from_vector(v, (2,) * 6, keep).matrix
            want = reduced_from_vector(v.astype(complex), (2,) * 6, keep).matrix
            assert np.abs(got - want).max() <= 1e-15


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(ghz(3)) <= 1e-12

    def test_maximally_mixed_qubit(self):
        rho = DensityOperator(np.eye(2, dtype=complex) / 2, (2,))
        assert abs(von_neumann_entropy(rho) - 1.0) < 1e-12

    def test_werner_ghz_closed_form(self):
        # S(rho) = 3 - (7/8)(1-mu)log2(1-mu) - (1/8)(1+7mu)log2(1+7mu) at mu = 0.5
        mu = 0.5
        expected = 3.0 - 0.875 * 0.5 * math.log2(0.5) - 0.125 * 4.5 * math.log2(4.5)
        assert abs(von_neumann_entropy(werner_ghz(mu)) - expected) < 1e-12

    def test_bounds_and_rank_one(self):
        for seed in range(10):
            n = 2 + seed % 2
            rho = random_density((2,) * n, rank=1 + seed % (2**n), seed=seed)
            s = von_neumann_entropy(rho)
            assert -1e-12 <= s <= n + 1e-9
        assert von_neumann_entropy(random_density((2, 2), rank=1, seed=4)) <= 1e-9

    def test_stack_matches_single_matrices(self):
        stack = np.stack([random_density((2, 2), rank=1 + k % 4, seed=40 + k).matrix
                          for k in range(6)])
        got = von_neumann_entropy(stack)
        assert got.shape == (6,)
        assert np.abs(got - [von_neumann_entropy(m) for m in stack]).max() <= 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.array([[0.0, 1.0], [0.0, 1.0]]))
        stack = np.stack([np.eye(2) / 2, np.array([[0.5, 0.1], [0.0, 0.5]])])
        with pytest.raises(ValueError, match="Hermitian"):
            von_neumann_entropy(stack)

    def test_rejects_eigenvalue_below_floor(self):
        stack = np.stack([np.eye(2) / 2, np.diag([-2e-10, 1.0 + 2e-10])])
        with pytest.raises(ValueError, match="not positive"):
            von_neumann_entropy(stack)
        # just inside the floor the eigenvalue counts as zero
        assert von_neumann_entropy(np.diag([-0.5e-10, 1.0 + 0.5e-10])) <= 1e-9

    def test_density_operator_entropy_reads_its_validated_spectrum(self):
        for seed, dims in enumerate([(2, 2), (2, 3), (2, 2, 2), (3, 3)]):
            rho = random_density(dims, rank=1 + seed, seed=seed)
            assert von_neumann_entropy(rho) == shannon_entropy(np.linalg.eigvalsh(rho.matrix))
            assert not rho.eigenvalues.flags.writeable
            assert "eigenvalues" not in repr(rho)

    def test_fixed_basis_gqd_takes_the_spectrum_of_rho_once(self, monkeypatch):
        matrix = random_density((2, 2, 2), rank=3, seed=5).matrix
        eigvalsh, shapes = np.linalg.eigvalsh, []

        def counting(m):
            shapes.append(np.shape(m))
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rho = DensityOperator(matrix, (2,) * 3)
        gqd(rho, "fixed-x")
        # validation, then the three single-qubit entropies as one stack: S(rho)
        # is read from the validated spectrum instead of a second (8, 8) call
        assert shapes == [(8, 8), (3, 2, 2)]


class TestRelativeEntropy:
    def test_identical_states(self):
        rho = random_density((2, 2), seed=9)
        assert abs(relative_entropy(rho, rho)) <= 1e-9

    def test_mutual_information_identity(self):
        # S(rho_AB || rho_A x rho_B) = S(A) + S(B) - S(AB)
        for seed in range(20):
            rho = random_density((2, 2), seed=100 + seed)
            a = partial_trace(rho, [0])
            b = partial_trace(rho, [1])
            lhs = relative_entropy(rho, kron(a.matrix, b.matrix))
            rhs = (
                von_neumann_entropy(a)
                + von_neumann_entropy(b)
                - von_neumann_entropy(rho)
            )
            assert abs(lhs - rhs) <= 1e-9

    def test_pure_vs_maximally_mixed(self):
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        assert abs(relative_entropy(ket0, np.eye(2) / 2) - 1.0) < 1e-12

    def test_support_violation_is_infinite(self):
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        ket1 = np.diag([0.0, 1.0]).astype(complex)
        assert relative_entropy(ket0, ket1) == math.inf

    def test_non_negative_and_zero_iff_close(self):
        for seed in range(30):
            rho = random_density((2, 2), seed=seed)
            sigma = random_density((2, 2), seed=1000 + seed)
            assert relative_entropy(rho, sigma) >= -1e-10
        rho = random_density((2, 2), seed=77)
        assert relative_entropy(rho, rho.matrix.copy()) <= 1e-9

    def test_monotone_under_partial_trace(self):
        # 200 seeded pairs on 2-3 qubits
        for i in range(200):
            n = 2 + i % 2
            rho = random_density((2,) * n, seed=2 * i)
            sigma = random_density((2,) * n, seed=2 * i + 1)
            full = relative_entropy(rho, sigma)
            red = relative_entropy(partial_trace(rho, [0]), partial_trace(sigma, [0]))
            assert full >= red - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            relative_entropy(np.eye(2) / 2, np.eye(4) / 4)

    def test_matches_einsum_reference(self):
        # Tr rho log2 rho - sum_k <s_k|rho|s_k> log2 w_k over sigma's eigenpairs (w_k, s_k)
        for seed in range(10):
            rho = random_density((2, 2), rank=1 + seed % 4, seed=500 + seed)
            sigma = random_density((2, 2), seed=600 + seed)
            w, v = np.linalg.eigh(sigma.matrix)
            q = np.real(np.einsum("ik,ij,jk->k", v.conj(), rho.matrix, v))
            p = np.linalg.eigvalsh(rho.matrix)
            p = p[p > 0]
            want = float(p @ np.log2(p) - q @ np.log2(w))
            assert abs(relative_entropy(rho, sigma) - want) <= 1e-14


class TestEigHermitian:
    def test_sigma_z(self):
        spec = eig_hermitian(SIGMA_Z)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_sigma_x_eigenvectors(self):
        spec = eig_hermitian(SIGMA_X)
        # eigenvectors (|0> -+ |1>)/sqrt(2), compare as projectors (phase-free)
        minus, plus = spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]
        want_plus = np.array([1, 1]) / np.sqrt(2)
        want_minus = np.array([1, -1]) / np.sqrt(2)
        assert np.allclose(np.outer(plus, plus.conj()), np.outer(want_plus, want_plus))
        assert np.allclose(np.outer(minus, minus.conj()), np.outer(want_minus, want_minus))

    def test_reconstruction(self):
        rho = random_density((2, 2, 2), seed=13)
        spec = eig_hermitian(rho)
        v = spec.eigenvectors
        assert np.all(np.diff(spec.eigenvalues) >= 0)  # ascending
        assert np.abs(v.conj().T @ v - np.eye(8)).max() <= 1e-8  # orthonormal columns
        recon = (v * spec.eigenvalues) @ v.conj().T
        assert np.abs(recon - rho.matrix).max() <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]))
