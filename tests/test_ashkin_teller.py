import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, eigsh

from gqd import ashkin_teller, correlations
from gqd.ashkin_teller import (
    SCAN_STRATEGIES,
    ChainSpec,
    ScanResult,
    SpinGroup,
    _ground_vector,
    _orbits,
    build_hamiltonian,
    central_difference,
    default_delta_grid,
    gqd_scan,
    ground_state,
    pair_qubits,
    pairwise_discord_scan,
    parity_operators,
    zero_crossings,
)
from gqd.core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityOperator,
    eig_hermitian,
    kron,
    reduced_from_vector,
    relative_entropy,
)
from gqd.correlations import discord_asymmetric, gqd
from gqd.measurement import all_x, dephase
from gqd.states import random_density

CRITICAL = ChainSpec(sites=3, beta=1.0, delta=1.0)
SOLVER_SIZES = (4, 7)  # sector of 13 states, solved densely; of 181 states, solved by Lanczos


def reduce_to_group(vector, spec, group):
    """Reduced density operator of a chain vector on the group's spins."""
    keep = group.qubit_indices(spec.sites)
    states = ashkin_teller._group_states(vector[None], spec.sites, keep)
    return DensityOperator(states[0], (2,) * len(keep))


def assert_z_basis_minimizes(spec, group):
    """The minimized GQD of the group converges onto fixed-z, which lies at or below fixed-x."""
    rho = reduce_to_group(_ground_vector(spec), spec, SpinGroup(group))
    minimized = gqd(rho, "minimize")
    assert minimized.converged
    assert abs(minimized.value - gqd(rho, "fixed-z").value) <= 1e-9
    assert minimized.value <= gqd(rho, "fixed-x").value


def swap_sigma_tau(h, sites):
    """Permute qubits (sigma_j <-> tau_j) in the site-major layout."""
    n = 2 * sites
    perm = []
    for j in range(sites):
        perm += [2 * j + 1, 2 * j]
    t = h.reshape([2] * (2 * n))
    t = np.transpose(t, perm + [n + p for p in perm])
    return t.reshape(2**n, 2**n)


def pauli_string(factors, n_spins):
    """Kronecker product over n_spins qubits with the given Paulis, identity elsewhere."""
    return kron(*[factors.get(k, np.eye(2)) for k in range(n_spins)])


def pauli_terms(spec):
    """(weight, {qubit: Pauli}) of every term of the Ashkin-Teller Hamiltonian, in units of J."""
    beta, delta = spec.beta, spec.delta
    for site in range(spec.sites):
        s, t = 2 * site, 2 * site + 1
        s_next = 2 * ((site + 1) % spec.sites)
        t_next = s_next + 1
        yield -1.0, {s: SIGMA_X}
        yield -1.0, {t: SIGMA_X}
        yield -delta, {s: SIGMA_X, t: SIGMA_X}
        yield -beta, {s: SIGMA_Z, s_next: SIGMA_Z}
        yield -beta, {t: SIGMA_Z, t_next: SIGMA_Z}
        yield -beta * delta, {s: SIGMA_Z, s_next: SIGMA_Z, t: SIGMA_Z, t_next: SIGMA_Z}


def pauli_hamiltonian(spec, j):
    """The Ashkin-Teller Hamiltonian at overall coupling J, summed term by term from Pauli strings."""
    return sum(j * weight * pauli_string(factors, spec.n_spins)
               for weight, factors in pauli_terms(spec))


def sparse_pauli_hamiltonian(spec):
    """pauli_hamiltonian at J = 1 by sparse Kronecker products, for chains past the dense view."""
    h = sparse.csr_matrix((spec.dim, spec.dim))
    for weight, factors in pauli_terms(spec):
        string = sparse.csr_matrix([[1.0]])
        for k in range(spec.n_spins):
            string = sparse.kron(string, factors.get(k, np.eye(2)).real, format="csr")
        h += weight * string
    return h


class TestHamiltonian:
    @pytest.mark.parametrize("sites", [2, 3])
    @pytest.mark.parametrize(
        "beta, delta, coupling",
        [(1.0, 1.0, 1.0), (0.8, 1.3, 1.0), (0.0, 0.0, 1.0), (1.5, -0.7, 1.0),
         (0.6, -1.4, 2.5), (1.0, 0.9, -0.8)],
    )
    def test_matches_pauli_string_oracle(self, sites, beta, delta, coupling):
        # H is built in units of J: the Pauli sum at any overall coupling J is J times it
        spec = ChainSpec(sites=sites, beta=beta, delta=delta)
        h = build_hamiltonian(spec)
        assert h.dtype == np.float64
        assert np.abs(coupling * h - pauli_hamiltonian(spec, coupling)).max() <= 1e-12

    def test_decoupled_transverse_fields(self):
        # beta = delta = 0: four independent spins, ground energy -4J
        h = build_hamiltonian(ChainSpec(sites=2, beta=0.0, delta=0.0))
        energies = np.linalg.eigvalsh(h)
        assert abs(energies[0] + 4.0) <= 1e-12
        assert np.abs(energies - np.round(energies)).max() <= 1e-12
        assert set(np.round(energies).astype(int)) == {-4, -2, 0, 2, 4}

    def test_hermitian(self):
        h = build_hamiltonian(CRITICAL)
        assert np.abs(h - h.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("sites", [2, 3])
    def test_commutes_with_parities(self, sites):
        h = build_hamiltonian(ChainSpec(sites=sites, beta=1.0, delta=0.7))
        p1, p2 = parity_operators(sites)
        assert np.abs(h @ p1 - p1 @ h).max() <= 1e-10
        assert np.abs(h @ p2 - p2 @ h).max() <= 1e-10

    @pytest.mark.parametrize("sites", [2, 3])
    def test_on_site_cnot_is_a_symmetry_at_delta_one(self, sites):
        # CNOT (sigma control, tau target) maps X_s -> X_s X_t and Z_t -> Z_s Z_t,
        # exchanging each delta-weighted term with a unit-weight one
        cnot = np.eye(4)[[0, 1, 3, 2]]
        c = kron(*[cnot] * sites)
        for delta, expected in ((1.0, 0.0), (0.7, 1.2)):
            h = build_hamiltonian(ChainSpec(sites=sites, beta=1.0, delta=delta))
            assert abs(np.abs(c @ h @ c - h).max() - expected) <= 1e-12

    def test_spectrum_symmetric_under_sigma_tau_swap(self):
        h = build_hamiltonian(ChainSpec(sites=2, beta=1.0, delta=1.0))
        swapped = swap_sigma_tau(h, 2)
        a = eig_hermitian(h).eigenvalues
        b = eig_hermitian(swapped).eigenvalues
        assert np.abs(a - b).max() <= 1e-10

    def test_sparse_matches_dense(self):
        # the dense view against the bit-flip product of the Pauli terms, in blocks of columns
        for sites in range(2, 7):
            spec = ChainSpec(sites=sites, beta=0.8, delta=1.3)
            h = build_hamiltonian(spec)
            for cols in np.array_split(np.arange(spec.dim), max(1, spec.dim // 128)):
                units = np.zeros((spec.dim, cols.size))
                units[cols, np.arange(cols.size)] = 1.0
                assert np.abs(apply_hamiltonian(spec, units) - h[:, cols]).max() <= 1e-12, sites

    def test_dense_budget(self):
        with pytest.raises(ValueError, match="dense"):
            build_hamiltonian(ChainSpec(sites=7, beta=1.0, delta=1.0))

    def test_chain_needs_two_sites(self):
        with pytest.raises(ValueError):
            ChainSpec(sites=1, beta=1.0, delta=1.0)

    @pytest.mark.parametrize("field", ["beta", "delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_couplings_rejected(self, field, value):
        couplings = {"beta": 1.0, "delta": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            ChainSpec(sites=2, **couplings)

    @pytest.mark.parametrize("field", ["beta", "delta"])
    def test_couplings_beyond_1e100_rejected(self, field):
        # larger couplings overflow the Lanczos squares before any certificate can judge them
        for value in (1e100, -1e100):
            ChainSpec(sites=2, **{"beta": 1.0, "delta": 1.0, field: value})
        for value in (1.0000001e100, -1e150):
            with pytest.raises(ValueError, match=rf"^\|{field}\| must be at most 1e100, got "):
                ChainSpec(sites=2, **{"beta": 1.0, "delta": 1.0, field: value})


class TestParityOperators:
    @pytest.mark.parametrize("sites", [2, 3])
    def test_match_pauli_string_oracle(self, sites):
        p1, p2 = parity_operators(sites)
        n = 2 * sites
        sigma = pauli_string({2 * s: SIGMA_X for s in range(sites)}, n)
        tau = pauli_string({2 * s + 1: SIGMA_X for s in range(sites)}, n)
        assert np.abs(p1 - sigma).max() <= 1e-12
        assert np.abs(p2 - tau).max() <= 1e-12

    def test_involution_traceless_hermitian(self):
        p1, p2 = parity_operators(2)
        for p in (p1, p2):
            assert np.abs(p @ p - np.eye(16)).max() <= 1e-12
            assert abs(p.trace()) <= 1e-12
            assert np.abs(p - p.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("sites", [2, 3])
    def test_ground_state_in_q0_sector(self, sites):
        h = build_hamiltonian(ChainSpec(sites=sites, beta=1.0, delta=1.0))
        gs = ground_state(h)
        p1, p2 = parity_operators(sites)
        v = gs.vector
        assert abs(np.real(v.conj() @ p1 @ v) - 1.0) <= 1e-9
        assert abs(np.real(v.conj() @ p2 @ v) - 1.0) <= 1e-9

    @pytest.mark.parametrize("sites", [2, 3])
    def test_q1_q3_sectors_degenerate(self, sites):
        h = build_hamiltonian(ChainSpec(sites=sites, beta=1.0, delta=1.0))
        p1, p2 = parity_operators(sites)
        dim = h.shape[0]

        def sector_minimum(s1, s2):
            proj = (np.eye(dim) + s1 * p1) @ (np.eye(dim) + s2 * p2) / 4.0
            w, u = np.linalg.eigh(proj)
            cols = u[:, w > 0.5]
            return np.linalg.eigvalsh(cols.conj().T @ h @ cols)[0]

        e_q1 = sector_minimum(+1, -1)
        e_q3 = sector_minimum(-1, +1)
        assert abs(e_q1 - e_q3) <= 1e-9


class TestGroundState:
    def test_residual_and_energy(self):
        h = build_hamiltonian(ChainSpec(sites=2, beta=1.0, delta=1.0))
        gs = ground_state(h)
        assert np.linalg.norm(h @ gs.vector - gs.energy * gs.vector) <= 1e-9
        e = eig_hermitian(h).eigenvalues
        assert abs(gs.energy - e[0]) <= 1e-12
        assert e[1] - e[0] >= 1e-9

    def test_energy_monotone_in_beta(self):
        previous = np.inf
        for beta in (0.0, 0.5, 1.0, 1.5, 2.0):
            h = build_hamiltonian(ChainSpec(sites=2, beta=beta, delta=1.0))
            energy = ground_state(h).energy
            assert energy <= previous + 1e-12
            previous = energy

    def test_ground_vector_matches_dense(self):
        for sites in (2, 3, 4):
            for beta in (0.0, 1.0, 2.5):
                for delta in (0.0, 0.3, 0.9, 1.0, 1.7):
                    spec = ChainSpec(sites=sites, beta=beta, delta=delta)
                    h = build_hamiltonian(spec)
                    dense = eig_hermitian(h)
                    e = dense.eigenvalues
                    vector = _ground_vector(spec)
                    assert e[1] - e[0] >= 1e-9  # Perron-Frobenius: a unique ground state
                    assert abs(vector @ h @ vector - e[0]) <= 1e-10
                    assert abs(abs(np.vdot(dense.eigenvectors[:, 0], vector)) - 1.0) <= 1e-8

    @pytest.mark.parametrize("sites", [5, 6, 7, 8])
    def test_sector_ground_matches_full_space_lanczos(self, sites):
        for delta in (0.3, 1.0):
            spec = ChainSpec(sites=sites, beta=1.0, delta=delta)
            h = LinearOperator((spec.dim,) * 2, matvec=lambda v: apply_hamiltonian(spec, v),
                               dtype=float)
            vals, vecs = eigsh(h, k=1, which="SA", v0=np.full(spec.dim, spec.dim**-0.5))
            vector = _ground_vector(spec)
            assert abs(vector @ (h @ vector) - vals[0]) <= 1e-10
            assert abs(abs(vecs[:, 0] @ vector) - 1.0) <= 1e-8

    @pytest.mark.parametrize("sites", [2, 3, 4, 5, 6])
    def test_ground_vector_residual(self, sites):
        for delta in (0.4, 1.0, 1.6):
            spec = ChainSpec(sites=sites, beta=1.0, delta=delta)
            vector = _ground_vector(spec)
            hv = apply_hamiltonian(spec, vector)
            energy = vector @ hv
            assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
            assert np.linalg.norm(hv - energy * vector) <= 1e-9 * max(1.0, abs(energy))

    def test_inaccurate_eigenvector_raises(self, monkeypatch):
        rng = np.random.default_rng(1)
        solve = ashkin_teller._sector_lowest

        def perturbed_solve(*args):
            c = solve(*args) + 1e-4 * rng.normal(size=args[0].shape[0])
            return c / np.linalg.norm(c)

        monkeypatch.setattr(ashkin_teller, "_sector_lowest", perturbed_solve)
        for sites in (3, 7):  # the dense and the sparse solve
            with pytest.raises(RuntimeError, match="residual"):
                _ground_vector(ChainSpec(sites=sites, beta=1.0, delta=0.9))

    def test_perron_frobenius_certificate(self, monkeypatch):
        solve = ashkin_teller._sector_lowest

        def signed_solve(sign):
            return lambda *args: solve(*args) * sign

        for sites, sector_dim in zip(SOLVER_SIZES, (13, 181)):
            spec = ChainSpec(sites=sites, beta=1.0, delta=0.9)
            monkeypatch.setattr(ashkin_teller, "_sector_lowest", solve)
            expected = _ground_vector(spec)
            # the overall sign is free: a negated solution is the same ground state
            monkeypatch.setattr(ashkin_teller, "_sector_lowest", signed_solve(-1.0))
            assert np.abs(_ground_vector(spec) - expected).max() <= 1e-12
            flip_one = np.ones(sector_dim)
            flip_one[5] = -1.0
            monkeypatch.setattr(ashkin_teller, "_sector_lowest", signed_solve(flip_one))
            with pytest.raises(RuntimeError, match="Perron-Frobenius"):
                _ground_vector(spec)

    def test_certificate_admits_amplitudes_below_rounding(self):
        # strongly ordered: the smallest exact sector amplitudes are far below
        # 1e-16 and come out of the solver with either sign
        spec = ChainSpec(sites=6, beta=1000.0, delta=0.0)
        vector = _ground_vector(spec)
        assert vector.min() >= ashkin_teller.POSITIVITY_FLOOR

    def test_outside_the_domain_is_rejected_before_any_build(self, monkeypatch):
        def no_build(*chain):
            raise AssertionError("the sector was built for a rejected coupling")

        monkeypatch.setattr(ashkin_teller, "_sector_parts", no_build)
        spec = ChainSpec(sites=3, beta=1.0, delta=-0.5)
        with pytest.raises(ValueError, match=r"^delta=-0.5 is outside the solved domain delta >= 0$"):
            _ground_vector(spec)

    def test_site_budget_is_checked_before_the_orbit_table(self, monkeypatch):
        def no_orbits(sites):
            raise AssertionError("the orbit table was built for a chain over budget")

        monkeypatch.setattr(ashkin_teller, "_orbits", no_orbits)
        with pytest.raises(ValueError, match="^chains beyond 10 sites are out of budget$"):
            _ground_vector(ChainSpec(sites=11, beta=1.0, delta=1.0))

    def test_solver_builds_no_full_space_parts(self, sector_rows):
        for sites in range(3, 9):
            vector = _ground_vector(ChainSpec(sites=sites, beta=1.0, delta=0.9))
            assert vector.shape == (4**sites,)
        assert len(sector_rows) == 2 * 6  # A and B of each chain

    def test_nan_fails_both_certificates(self, monkeypatch):
        # NaN compares false with every bound, so each check is written to fail it
        for sites in (3, 7):  # a dense and a Lanczos sector
            spec = ChainSpec(sites=sites, beta=1.0, delta=0.9)
            a, b, labels, root = ashkin_teller._sector_parts(sites, 1.0)
            monkeypatch.setattr(ashkin_teller, "_sector_lowest",
                                lambda h, start: np.full(h.shape[0], np.nan))
            with pytest.raises(RuntimeError, match="Perron-Frobenius"):
                _ground_vector(spec)
            # a positive vector whose residual is NaN: one NaN entry of A
            a = a.copy()
            (a.data if sparse.issparse(a) else a).flat[0] = np.nan
            monkeypatch.setattr(ashkin_teller, "_sector_parts", lambda *chain: (a, b, labels, root))
            monkeypatch.setattr(ashkin_teller, "_sector_lowest",
                                lambda h, start: root / np.linalg.norm(root))
            with pytest.raises(RuntimeError, match="^ground state residual nan"):
                _ground_vector(spec)
            monkeypatch.undo()

    @pytest.mark.parametrize("sites", [3, 5, 8])
    def test_ground_vector_is_invariant_under_translation_and_swap(self, sites):
        # every block of sites, and sigma or tau alike, sees the same amplitudes:
        # the reason a group needs no anchor
        n = 2 * sites
        index = np.arange(4**sites)
        vector = _ground_vector(ChainSpec(sites=sites, beta=1.0, delta=0.9))
        for perm in ([(q + 2) % n for q in range(n)], [q ^ 1 for q in range(n)]):
            assert np.array_equal(vector[qubit_permutation(index, sites, perm)], vector)

    @pytest.mark.parametrize("sites", [9, 10])
    def test_beyond_the_full_space_parts(self, sites):
        # beyond the eigsh reference (5 to 8 sites): the residual comes from bit flips alone
        spec = ChainSpec(sites=sites, beta=1.0, delta=0.9)
        n = spec.n_spins
        vector = _ground_vector(spec)
        index = np.arange(spec.dim)
        for perm in ([(q + 2) % n for q in range(n)], [q ^ 1 for q in range(n)]):
            assert np.array_equal(vector[qubit_permutation(index, sites, perm)], vector)
        hv = apply_hamiltonian(spec, vector)
        energy = vector @ hv
        assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
        residual = np.linalg.norm(hv - energy * vector)
        assert residual <= ashkin_teller.RESIDUAL_TOL * max(1.0, abs(energy))

    @pytest.mark.parametrize("sites", [3, 5, 8])
    def test_matrix_free_product_matches_the_sparse_build(self, sites):
        # the bit-flip product that checks the solver beyond the dense view, against Pauli strings
        spec = ChainSpec(sites=sites, beta=0.8, delta=1.3)
        vector = np.random.default_rng(sites).normal(size=spec.dim)
        expected = sparse_pauli_hamiltonian(spec) @ vector
        assert np.abs(apply_hamiltonian(spec, vector) - expected).max() <= 1e-12


def orbit_indicator(labels, root):
    """The orbit indicator matrix I (I[i, O] = 1 for i in O); E = I / sqrt|O| is the sector embedding."""
    return sparse.csr_matrix(
        (np.ones(labels.size), labels, np.arange(labels.size + 1)), shape=(labels.size, root.size)
    )


def build_defects(spec, parts):
    """Relative defects of the sector build (A_sec, B_sec, labels, root) at spec, on a seeded
    random sector probe p: (| |E p| / |p| - 1 |, |H E p - E H_sec p| / |H E p|).

    E p = (p / root)[labels] embeds p, and H acts on E p through apply_hamiltonian,
    which writes the Pauli terms as bit flips independently of the build.
    """
    a_sec, b_sec, labels, root = parts
    probe = np.random.default_rng(0).standard_normal(root.size)
    embedded = (probe / root)[labels]
    full = apply_hamiltonian(spec, embedded)
    folded = (((a_sec + spec.delta * b_sec) @ probe) / root)[labels]
    return (abs(np.linalg.norm(embedded) / np.linalg.norm(probe) - 1.0),
            np.linalg.norm(full - folded) / np.linalg.norm(full))


class TestSectorCertificate:
    @pytest.mark.parametrize("sites", [2, 3, 4, 5, 6])
    def test_fold_certificate_vanishes(self, sites):
        # the fold identity: the parts built from the representatives are E^T A E and
        # E^T B E of the dense parts, and A E = E A_sec, B E = E B_sec; larger chains
        # are covered by test_sector_build_embeds_exactly
        a_sec, b_sec, labels, root = ashkin_teller._sector_parts(sites, 1.0)
        indicator = orbit_indicator(labels, root).toarray()
        embed = indicator / root
        a = build_hamiltonian(ChainSpec(sites=sites, beta=1.0, delta=0.0))
        b = build_hamiltonian(ChainSpec(sites=sites, beta=1.0, delta=1.0)) - a  # exact: integers
        for full, part in zip((a, b), (a_sec, b_sec)):
            dense_part = part if isinstance(part, np.ndarray) else part.toarray()
            # I^T A I holds integers at beta = 1, so the fold rounds only in the scaling
            folded = indicator.T @ full @ indicator / np.outer(root, root)
            assert np.abs(folded - dense_part).max() <= 1e-14
            assert np.linalg.norm(full @ embed - embed @ dense_part) <= 1e-12

    @pytest.mark.parametrize("sites", range(2, 11))
    def test_sector_build_embeds_exactly(self, sites):
        # the build is bilinear in (beta, delta), so an identity that holds on this
        # 2 x 2 grid holds at every beta and delta
        for beta in (0.37, 2.5):
            parts = ashkin_teller._sector_parts(sites, beta)
            for delta in (0.0, 1.3):
                defects = build_defects(ChainSpec(sites=sites, beta=beta, delta=delta), parts)
                assert max(defects) <= 1e-12, (beta, delta, defects)

    def test_perturbed_sector_matrix_is_rejected(self):
        for sites in SOLVER_SIZES:
            a_sec, b_sec, labels, root = ashkin_teller._sector_parts(sites, 1.0)
            for k in range(2):
                parts = [sparse.lil_matrix(a_sec), sparse.lil_matrix(b_sec)]
                parts[k][3, 5] += 1e-3  # one entry, dense or sparse alike
                defects = [max(build_defects(ChainSpec(sites=sites, beta=1.0, delta=delta),
                                             (*parts, labels, root)))
                           for delta in (0.0, 1.3)]
                assert max(defects) > 1e-6, (sites, k, defects)

    def test_wrong_orbit_sizes_are_rejected(self, monkeypatch):
        # orbit sizes enter E only through sqrt|O|, which a similarity transform hides
        # from the product check: the norm of the embedded probe catches them
        reps, labels, sizes = _orbits(7)
        monkeypatch.setattr(ashkin_teller, "_orbits", lambda _: (reps, labels, sizes[::-1]))
        parts = ashkin_teller._sector_parts.__wrapped__(7, 1.0)
        norm, _ = build_defects(ChainSpec(sites=7, beta=1.0, delta=1.3), parts)
        assert norm > 1e-6

    @pytest.mark.parametrize("sites", [3, 4, 5, 6, 7])
    def test_sector_bound_covers_full_space_residual(self, sites, monkeypatch):
        # a converged solve leaves residuals of about 1e-15, where each side
        # carries its own rounding; noise of 1e-6 on the sector vector makes
        # the residual large enough to compare the two exactly
        rng = np.random.default_rng(sites)
        solve = ashkin_teller._sector_lowest

        def noisy_solve(*args):
            c = solve(*args) + 1e-6 * rng.normal(size=args[0].shape[0])
            return c / np.linalg.norm(c)

        for solver in (solve, noisy_solve):
            monkeypatch.setattr(ashkin_teller, "_sector_lowest", solver)
            if solver is noisy_solve:  # let the noisy vectors past the check, to measure them
                monkeypatch.setattr(ashkin_teller, "RESIDUAL_TOL", np.inf)
            for delta in (0.4, 1.0, 1.6):
                spec = ChainSpec(sites=sites, beta=1.0, delta=delta)
                c, (energy,), (bound,) = ashkin_teller._sector_ground(spec, [delta])
                (vector,) = ashkin_teller._embed(spec, c)
                hv = apply_hamiltonian(spec, vector)
                residual = np.linalg.norm(hv - (vector @ hv) * vector)
                rounding = 1e-14 * max(1.0, abs(energy))
                assert abs(vector @ hv - energy) <= rounding
                assert residual <= bound + rounding
                assert bound <= residual + rounding  # the fold is exact, so the bound is tight
                if solver is solve:
                    assert bound <= ashkin_teller.RESIDUAL_TOL * max(1.0, abs(energy))
                else:
                    assert residual > 1e-8

    @pytest.mark.parametrize("sites", [2, 3, 4, 5, 6])
    def test_dense_and_sparse_solves_agree(self, sites, monkeypatch):
        a, b, labels, root = ashkin_teller._sector_parts(sites, 1.0)
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
        specs = [ChainSpec(sites=sites, beta=1.0, delta=delta) for delta in (0.4, 1.0, 1.6)]
        dense = [_ground_vector(spec) for spec in specs]
        union = sparse.csr_matrix(a + 1j * b)  # the one pattern that sparse parts share
        parts = (union.real, union.imag, labels, root)
        monkeypatch.setattr(ashkin_teller, "_sector_parts", lambda *chain: parts)
        for spec, expected in zip(specs, dense):
            assert np.abs(_ground_vector(spec) - expected).max() <= 1e-12

    def test_sector_size_picks_the_solver(self):
        for sites, dense in ((4, True), (8, False)):  # 13 and 627 sector states
            a, b, *_ = ashkin_teller._sector_parts(sites, 1.0)
            assert isinstance(a, np.ndarray) == isinstance(b, np.ndarray) == dense
            assert sparse.issparse(a) == sparse.issparse(b) == (not dense)
        # sparse parts share one pattern, so that H(delta) sums their data alone
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        # the dense solve needs no start vector and takes none
        spec = ChainSpec(sites=4, beta=1.0, delta=0.9)
        start = np.random.default_rng(0).random(14)
        cold = ashkin_teller._sector_ground(spec, [0.9])
        warm = ashkin_teller._sector_ground(spec, [0.9], start)
        assert all(np.array_equal(x, y) for x, y in zip(cold, warm))
        # a sparse solve starts from the given sector vector
        spec = ChainSpec(sites=8, beta=1.0, delta=0.9)
        cold = ashkin_teller._sector_ground(spec, [0.9])
        warm = ashkin_teller._sector_ground(spec, [0.9], np.random.default_rng(0).random(627))
        assert np.abs(cold[0] - warm[0]).max() <= 1e-12

    @pytest.mark.parametrize(
        "sites, deltas", [(4, default_delta_grid()), (8, default_delta_grid(0.9, 1.1, 0.05, 0.05))]
    )
    def test_warm_started_scan_matches_cold_points(self, sites, deltas, monkeypatch):
        # Every group and strategy, scored in stacks (the sextet's 16 states a call cross the
        # default grid's end), against cold per-point solves reduced by the reference
        # transpose and scored one state at a time.
        # The vectors are recorded where the block path reduces them, ``_group_states``.
        template = ChainSpec(sites=sites, beta=1.0, delta=1.0)
        specs = [replace(template, delta=float(delta)) for delta in deltas]
        cold = [_ground_vector(spec) for spec in specs]
        reduce, warm = ashkin_teller._group_states, []
        monkeypatch.setattr(ashkin_teller, "_group_states",
                            lambda vectors, *rest: warm.extend(vectors) or reduce(vectors, *rest))
        for group, strategy in itertools.product(ashkin_teller.GROUP_SITES, SCAN_STRATEGIES):
            keep = SpinGroup(group).qubit_indices(sites)
            warm.clear()
            scan = gqd_scan(template, deltas, SpinGroup(group), strategy)
            assert len(warm) == len(cold)
            for vector, reference, value in zip(warm, cold, scan.values):
                assert np.abs(vector - reference).max() <= 1e-12
                rho = reduced_from_vector(reference, (2,) * (2 * sites), keep)
                assert abs(value - gqd(rho, strategy).value) <= 1e-12, (group, strategy)


def inject_fault(monkeypatch, k, fault):
    """Patch ``_sector_lowest`` so that its k-th solve returns the true vector with ``fault``
    applied (after the sign that makes its sum positive)."""
    solve, calls = ashkin_teller._sector_lowest, []

    def faulty(h, start):
        c = solve(h, start)
        calls.append(None)
        return fault(c * np.sign(c.sum())) if len(calls) == k + 1 else c

    monkeypatch.setattr(ashkin_teller, "_sector_lowest", faulty)


def with_entry(c, index, value):
    c = c.copy()
    c[index] = value
    return c


def with_noise(c):
    noisy = c + 1e-4 * np.random.default_rng(0).normal(size=c.size)
    return noisy / np.linalg.norm(noisy)


FAULTS = {  # each fault and the certificate that rejects it
    "nan": (lambda c: with_entry(c, 3, np.nan), "Perron-Frobenius"),
    "negative": (lambda c: with_entry(c, 3, -c[3]), "Perron-Frobenius"),
    "noise": (with_noise, "residual"),
}
BLOCK_SCANS = {  # a dense block of the whole default grid, and sparse blocks of 4 points
    4: default_delta_grid(),
    7: np.round(np.arange(0.8, 1.2001, 0.05), 10),
}


class TestScanBlocks:
    @pytest.mark.parametrize("sites", [2, 3, 4, 5, 6])
    def test_dense_solve_is_bitwise_eigh(self, sites):
        a, b, _, _ = ashkin_teller._sector_parts(sites, 1.0)
        for delta in default_delta_grid():
            h = a + delta * b
            expected = eigh(h, subset_by_index=(0, 0))[1][:, 0]
            assert np.array_equal(ashkin_teller._sector_lowest(h, None), expected), delta

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("sites, k", [(4, 30), (7, 5)])
    def test_certificates_name_the_failing_point_of_a_block(self, sites, k, fault, monkeypatch):
        # the certificates run once a block, after every point of it is solved: the error
        # still names the first failing point, and a NaN vector starts no further solve
        deltas = BLOCK_SCANS[sites]
        apply, certificate = FAULTS[fault]
        inject_fault(monkeypatch, k, apply)
        with pytest.raises(RuntimeError, match=certificate) as failure:
            gqd_scan(ChainSpec(sites=sites, beta=1.0, delta=1.0), deltas, SpinGroup("quartet"),
                     "fixed-x")
        assert f" at delta={float(deltas[k])} " in str(failure.value)

    @pytest.mark.parametrize("sites, blocks", [(4, [57]), (7, [4, 4, 1]), (8, [1] * 5)])
    def test_scan_solves_and_reduces_in_blocks(self, sites, blocks, monkeypatch):
        # a block holds a quarter of the element budget in full-space vectors: the whole
        # default grid at M = 4, 4 points at M = 7, one at M = 8; each block is reduced by
        # one ``_group_states`` call, so M = 8 gathers one full-space vector per product,
        # and pairs (4,096 a stack) are reduced in the same blocks as quartets (256)
        deltas = default_delta_grid() if sites == 4 else default_delta_grid(0.8, 1.2, 0.05, 0)
        deltas = deltas[: sum(blocks)]
        solve, reduce = ashkin_teller._sector_ground, ashkin_teller._group_states
        solved, reduced = [], []
        monkeypatch.setattr(ashkin_teller, "_sector_ground",
                            lambda t, d, start=None: solved.append(len(d)) or solve(t, d, start))
        monkeypatch.setattr(ashkin_teller, "_group_states",
                            lambda v, *rest: reduced.append(v.shape) or reduce(v, *rest))
        template = ChainSpec(sites=sites, beta=1.0, delta=1.0)
        scans = [functools.partial(gqd_scan, template, deltas, SpinGroup("quartet"), "fixed-x")]
        scans += [functools.partial(pairwise_discord_scan, template, deltas, kind)
                  for kind in ashkin_teller.PAIR_KINDS]
        for scan in scans:
            solved.clear()
            reduced.clear()
            scan()
            assert solved == blocks
            assert reduced == [(n, 4**sites) for n in blocks]

    @pytest.mark.parametrize("sites, group", [(4, "octet"), (8, "quartet")])
    def test_blocks_stay_inside_the_measured_stacks(self, sites, group, monkeypatch):
        # M = 4 octets: a block (256 points) is larger than a stack (one octet); M = 8
        # quartets: a stack (256 states) takes many one-point blocks.  Either way every
        # measure call but the last gets a whole stack, and no block reaches into the next
        deltas = default_delta_grid()
        spin_group = SpinGroup(group)
        per_call = correlations._states_per_call(spin_group.n_spins)
        block = max(1, correlations._ELEMENT_BUDGET // 4 ** (sites + 1))
        solve, score = ashkin_teller._sector_ground, correlations.fixed_gqd
        solved, measured = [], []
        monkeypatch.setattr(ashkin_teller, "_sector_ground", lambda t, d, start=None:
                            solved.append(np.array(d)) or solve(t, d, start))
        monkeypatch.setattr(correlations, "fixed_gqd",
                            lambda m, *rest: measured.append(len(m)) or score(m, *rest))
        gqd_scan(ChainSpec(sites=sites, beta=1.0, delta=1.0), deltas, spin_group, "fixed-x")
        assert measured[:-1] == [per_call] * (len(measured) - 1)
        assert 0 < measured[-1] <= per_call and sum(measured) == len(deltas)
        assert np.array_equal(np.concatenate(solved), deltas)
        for points in solved:
            assert len(points) <= min(block, per_call)
            stacks = np.searchsorted(deltas, points) // per_call
            assert (stacks == stacks[0]).all(), points


class CountingProducts:
    """Wraps a sparse matrix and counts its matrix-vector products."""

    def __init__(self, h):
        self.h, self.products = h, 0

    def __matmul__(self, vector):
        self.products += 1
        return self.h @ vector


def dense_lowest(h):
    """Lowest eigenvector of a sparse symmetric matrix by dense LAPACK, sign fixed to a positive sum."""
    c = eigh(h.toarray(), subset_by_index=(0, 0))[1][:, 0]
    return c if c.sum() > 0 else -c


def sector_matrix(sites, beta, delta):
    a, b, _, root = ashkin_teller._sector_parts(sites, beta)
    return a + delta * b, root


class TestLanczos:
    @pytest.mark.parametrize("sites", [7, 8])
    def test_matches_dense_eigh_of_the_sector(self, sites):
        for beta in (0.0, 1.0, 2.5, 1000.0):
            for delta in (0.0, 0.3, 1.0, 1.8, 5.0):
                h, root = sector_matrix(sites, beta, delta)
                c = ashkin_teller._lanczos(h, root)
                c *= np.sign(c.sum())
                assert abs(np.linalg.norm(c) - 1.0) <= 1e-13
                assert np.abs(c - dense_lowest(h)).max() <= 1e-12, (beta, delta)

    def test_restarts_from_the_ritz_vector_when_the_basis_fills(self, monkeypatch):
        monkeypatch.setattr(ashkin_teller, "LANCZOS_BASIS", 6)
        h, root = sector_matrix(8, 1.0, 1.0)
        counting = CountingProducts(h)
        c = ashkin_teller._lanczos(counting, root)
        assert counting.products > 2 * 6  # at least two restarts
        assert np.abs(c * np.sign(c.sum()) - dense_lowest(h)).max() <= 1e-12

    def test_restarts_are_bounded(self, monkeypatch):
        # a tolerance no Ritz pair meets: the last Ritz vector is returned, not a hang
        monkeypatch.setattr(ashkin_teller, "LANCZOS_TOL", -1.0)
        monkeypatch.setattr(ashkin_teller, "LANCZOS_BASIS", 8)
        h, root = sector_matrix(7, 1.0, 1.0)
        counting = CountingProducts(h)
        c = ashkin_teller._lanczos(counting, root)
        assert counting.products == 8 * (ashkin_teller.LANCZOS_RESTARTS + 1)
        assert np.abs(c * np.sign(c.sum()) - dense_lowest(h)).max() <= 1e-12

    def test_breakdown_returns_the_exact_ritz_vector(self):
        # from an exact eigenvector the first step leaves nothing to orthogonalize
        h, _ = sector_matrix(7, 1.0, 0.9)
        exact = dense_lowest(h)
        counting = CountingProducts(h)
        c = ashkin_teller._lanczos(counting, exact)
        assert counting.products == 1
        assert np.abs(c * np.sign(c.sum()) - exact).max() <= 1e-15

    def test_warm_start_takes_fewer_products(self):
        h, root = sector_matrix(8, 1.0, 1.0)
        near = dense_lowest(sector_matrix(8, 1.0, 0.95)[0])
        cold, warm = CountingProducts(h), CountingProducts(h)
        ashkin_teller._lanczos(cold, root)
        ashkin_teller._lanczos(warm, near)
        assert warm.products < cold.products

    def test_ritz_pair_is_bitwise_eigh_tridiagonal(self):
        # seeded tridiagonals of every size up to the basis, whole and split by a zero
        # off-diagonal entry (two blocks for dstebz and dstein)
        rng = np.random.default_rng(29)
        for size in range(1, ashkin_teller.LANCZOS_BASIS + 1):
            d, e = rng.normal(size=size), rng.normal(size=size - 1)
            split = e.copy()
            if size > 1:
                split[rng.integers(size - 1)] = 0.0
            for off in (e, split):
                expected = eigh_tridiagonal(d, off, select="i", select_range=(0, 0))
                got = ashkin_teller._tridiagonal_lowest(d, off)
                for x, y in zip(got, expected):
                    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), size

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_ritz_pair_raises_on_a_lapack_failure(self, routine, monkeypatch):
        call = getattr(ashkin_teller, routine)
        monkeypatch.setattr(ashkin_teller, routine, lambda *args: (*call(*args)[:-1], 1))
        with pytest.raises(np.linalg.LinAlgError, match="info 1$"):
            ashkin_teller._tridiagonal_lowest(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5]))


def free_fermion_pair(sites, beta):
    """Neighbour sigma pair of the decoupled chain (delta = 0), in closed form.

    At delta = 0 each species is a transverse-field Ising ring, solved by
    Jordan-Wigner in its even-parity sector (momenta k = pi (2m - 1) / M); the
    correlators follow from G(r) = (1/M) sum_k (cos kr - beta cos k(r+1)) / Lambda_k,
    Lambda_k = sqrt(1 + beta^2 - 2 beta cos k) (Pfeuty, Ann. Phys. 57, 79 (1970)).
    """
    k = np.pi * (2 * np.arange(1, sites + 1) - 1) / sites
    lam = np.sqrt(1.0 + beta**2 - 2.0 * beta * np.cos(k))
    g = {r: np.mean((np.cos(k * r) - beta * np.cos(k * (r + 1))) / lam) for r in (-1, 0, 1)}
    x, zz, yy, xx = g[0], -g[-1], -g[1], g[0] ** 2 - g[1] * g[-1]
    one = np.eye(2)
    m = (kron(one, one) + x * (kron(SIGMA_X, one) + kron(one, SIGMA_X))
         + xx * kron(SIGMA_X, SIGMA_X) + yy * kron(SIGMA_Y, SIGMA_Y) + zz * kron(SIGMA_Z, SIGMA_Z))
    return DensityOperator(m.real / 4.0, (2, 2))


class TestFreeFermions:
    CASES = [(sites, beta) for sites in range(2, 9) for beta in (0.5, 1.0, 1.7)]
    CASES += [(9, 1.0), (10, 1.0)]

    @pytest.mark.parametrize("sites, beta", CASES)
    def test_neighbor_pair_matches_the_closed_form(self, sites, beta):
        spec = ChainSpec(sites=sites, beta=beta, delta=0.0)
        keep = pair_qubits("neighbor-sigma")
        rho = reduced_from_vector(_ground_vector(spec), (2,) * spec.n_spins, keep)
        assert np.abs(rho.matrix - free_fermion_pair(sites, beta).matrix).max() <= 1e-12

    @pytest.mark.parametrize("sites", [3, 4, 8])
    def test_quartet_discord_is_twice_the_pair(self, sites):
        # the decoupled ground state is a product of the two species, so the quartet
        # state is the product of two neighbour pairs and product-basis GQD adds up
        spec = ChainSpec(sites=sites, beta=1.0, delta=0.0)
        quartet = reduce_to_group(_ground_vector(spec), spec, SpinGroup("quartet"))
        pair = free_fermion_pair(sites, 1.0)
        for strategy in ("fixed-z", "fixed-x"):
            assert abs(gqd(quartet, strategy).value - 2 * gqd(pair, strategy).value) <= 1e-12
        minimized = [gqd(quartet, "minimize"), gqd(pair, "minimize")]
        assert all(result.converged for result in minimized)
        assert abs(minimized[0].value - 2 * minimized[1].value) <= 1e-9

    def test_finite_size_error_at_the_ising_point(self):
        values = [2 * gqd(free_fermion_pair(sites, 1.0), "fixed-z").value for sites in (8, 1024)]
        assert np.round(values, 5).tolist() == [0.41102, 0.39035]


def apply_hamiltonian(spec, vector):
    """H v summed term by term from the Pauli strings, with sigma^x as a bit flip of the index;
    a 2-d ``vector`` is a block of columns."""
    n = spec.n_spins
    index = np.arange(spec.dim)
    z = [1 - 2 * ((index >> (n - 1 - q)) & 1).astype(np.int8) for q in range(n)]
    hv = np.zeros_like(vector)
    diagonal = np.zeros(spec.dim)
    for site in range(spec.sites):
        s, t = 2 * site, 2 * site + 1
        s_next = 2 * ((site + 1) % spec.sites)
        flip_s, flip_t = 1 << (n - 1 - s), 1 << (n - 1 - t)
        hv -= vector[index ^ flip_s] + vector[index ^ flip_t]
        hv -= spec.delta * vector[index ^ flip_s ^ flip_t]
        zz_s, zz_t = z[s] * z[s_next], z[t] * z[s_next + 1]
        diagonal += zz_s + zz_t + spec.delta * zz_s * zz_t
    return hv - (spec.beta * diagonal * vector.T).T


def qubit_permutation(index, sites, perm):
    """Basis index after moving qubit q to position perm[q] (qubit 0 the most significant bit)."""
    n = 2 * sites
    moved = np.zeros_like(index)
    for q in range(n):
        moved |= ((index >> (n - 1 - q)) & 1) << (n - 1 - perm[q])
    return moved


class TestOrbits:
    @pytest.mark.parametrize("sites, sector_dim", [(2, 3), (3, 4), (4, 13), (5, 22), (6, 73)])
    def test_orbit_table(self, sites, sector_dim):
        n = 2 * sites
        index = np.arange(4**sites)
        sigma = sum(1 << (n - 1 - q) for q in range(0, n, 2))
        generators = {
            "translation": qubit_permutation(index, sites, [(q + 2) % n for q in range(n)]),
            "swap": qubit_permutation(index, sites, [q ^ 1 for q in range(n)]),
            "reversal": qubit_permutation(index, sites, [n - 2 - q + 2 * (q % 2) for q in range(n)]),
            "sigma parity": index ^ sigma,
            "tau parity": index ^ (sigma >> 1),
        }
        reps, labels, sizes = _orbits(sites)
        for name, image in generators.items():
            assert (labels[image] == labels).all(), name
        assert sizes.sum() == 4**sites
        assert (16 * sites % sizes == 0).all()
        assert len(sizes) == sector_dim
        assert (labels[reps] == np.arange(sector_dim)).all()
        assert (np.bincount(labels) == sizes).all()

    @pytest.mark.parametrize("sites", range(2, 11))
    def test_blocked_orbit_table_matches_the_unblocked_reference(self, sites, monkeypatch):
        # the reference takes every index's smallest image in one pass over the 4^M indices
        n = 2 * sites
        sigma = sum(1 << (n - 1 - q) for q in range(0, n, 2))
        index = np.arange(4**sites)
        smallest = index.copy()
        mirror = np.zeros_like(index)
        for s in range(sites):  # site s to site sites - 1 - s, its two bits kept in order
            mirror |= ((index >> (n - 2 - 2 * s)) & 3) << (2 * s)
        swapped = [((i & sigma) >> 1) | ((i & (sigma >> 1)) << 1) for i in (index, mirror)]
        for image in (index, swapped[0], mirror, swapped[1]):
            for _ in range(sites):
                image = (image >> 2) | ((image & 3) << (n - 2))
                for mask in (0, sigma, sigma >> 1, sigma | (sigma >> 1)):
                    np.minimum(smallest, image ^ mask, out=smallest)
        is_rep = smallest == index
        labels = (np.cumsum(is_rep, dtype=np.int32) - 1)[smallest]
        reference = (np.flatnonzero(is_rep), labels, np.bincount(labels))
        # the default blocks, and blocks that do not divide the table (a short last block)
        blocks = (ashkin_teller.ORBIT_BLOCK, 100) if sites <= 6 else (ashkin_teller.ORBIT_BLOCK,)
        for block in blocks:
            monkeypatch.setattr(ashkin_teller, "ORBIT_BLOCK", block)
            for got, want in zip(_orbits(sites), reference):
                assert got.dtype == want.dtype and np.array_equal(got, want), block

    @pytest.mark.parametrize("sites", [2, 3, 4, 5, 6])
    def test_site_reversal_commutes_with_the_hamiltonian(self, sites):
        # P H P^T = H for the permutation P that maps site s to site M - 1 - s, sigma and
        # tau kept: (P H P^T)[i, j] = H[r(i), r(j)] with r the reversed index
        n = 2 * sites
        index = np.arange(4**sites)
        r = qubit_permutation(index, sites, [n - 2 - q + 2 * (q % 2) for q in range(n)])
        assert not np.array_equal(r, index) and np.array_equal(r[r], index)
        for beta, delta in itertools.product((0.37, 2.5), (0.0, 1.3)):
            h = build_hamiltonian(ChainSpec(sites=sites, beta=beta, delta=delta))
            assert np.array_equal(h[np.ix_(r, r)], h), (beta, delta)

    @pytest.mark.parametrize("sites", [2, 3, 4, 5, 6])
    def test_orbit_count_by_burnside(self, sites):
        # Burnside: the number of orbits is the mean number of basis states fixed by an
        # element of the group, here listed as its 16M products of a translation, an
        # optional reversal, an optional sigma <-> tau swap and a parity mask (at M = 2,
        # where reversal is a translation, each element is listed equally often)
        n = 2 * sites
        index = np.arange(4**sites)
        sigma = sum(1 << (n - 1 - q) for q in range(0, n, 2))
        fixed = []
        for shift, mirror, swap in itertools.product(range(sites), (False, True), (False, True)):
            perm = [(q + 2 * shift) % n for q in range(n)]
            if mirror:
                perm = [n - 2 - p + 2 * (p % 2) for p in perm]
            if swap:
                perm = [p ^ 1 for p in perm]
            image = qubit_permutation(index, sites, perm)
            for mask in (0, sigma, sigma >> 1, sigma | (sigma >> 1)):
                fixed.append(np.count_nonzero(image ^ mask == index))
        assert len(fixed) == 16 * sites and sum(fixed) % len(fixed) == 0
        assert sum(fixed) // len(fixed) == len(_orbits(sites)[2])

    @pytest.mark.parametrize("sites", [2, 3, 4, 5, 6, 7, 8])
    def test_sector_build_matches_sorted_orbit_table(self, sites, monkeypatch):
        # reference: the orbit table read off np.unique of every index's smallest image
        reps, labels, _ = _orbits(sites)
        assert labels.dtype == np.int32
        build = ashkin_teller._sector_parts.__wrapped__  # bypass the one-chain cache
        fast = build(sites, 1.0)
        reference = np.unique(reps[labels], return_inverse=True, return_counts=True)
        monkeypatch.setattr(ashkin_teller, "_orbits", lambda _: reference)
        for got, want in zip(fast, build(sites, 1.0)):  # A_sec, B_sec, labels, sqrt|O|
            if isinstance(got, np.ndarray):  # labels, sqrt|O|, or a sector part held dense
                assert isinstance(want, np.ndarray) and np.array_equal(got, want)
                continue
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestSpinGroup:
    def test_quartet_indices(self):
        group = SpinGroup("quartet")
        assert group.qubit_indices(3) == [0, 2, 1, 3]

    def test_group_too_large(self):
        with pytest.raises(ValueError):
            SpinGroup("octet").qubit_indices(3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SpinGroup("quintet")

    def test_pair_qubits(self):
        assert pair_qubits("same-site") == [0, 1]
        assert pair_qubits("neighbor-sigma") == [0, 2]
        with pytest.raises(ValueError):
            pair_qubits("diagonal")


class TestReduceToGroup:
    @pytest.mark.parametrize("sites", range(2, 9))
    def test_leading_site_gram_matches_the_transpose(self, sites):
        # a seeded random vector, which no chain symmetry relates across qubits, and the
        # ground vector, for every group and pair that fits
        vector = np.random.default_rng(sites).standard_normal(4**sites)
        vectors = [vector / np.linalg.norm(vector), _ground_vector(replace(CRITICAL, sites=sites))]
        keeps = [SpinGroup(g).qubit_indices(sites) for g, n in ashkin_teller.GROUP_SITES.items()
                 if n <= sites] + [pair_qubits(kind) for kind in ashkin_teller.PAIR_KINDS]
        for v in vectors:
            for keep in keeps:
                reference = reduced_from_vector(v, (2,) * (2 * sites), keep).matrix
                reduced = ashkin_teller._group_states(v[None], sites, keep)[0]
                assert reduced.shape == reference.shape and reduced.dtype == np.float64
                assert np.abs(reduced - reference).max() <= 1e-14, keep

    def test_valid_density_operator(self):
        vec = _ground_vector(CRITICAL)
        rho = reduce_to_group(vec, CRITICAL, SpinGroup("quartet"))
        assert rho.dims == (2, 2, 2, 2)
        assert abs(rho.matrix.trace() - 1.0) <= 1e-12

    @pytest.mark.parametrize("group", ["quartet", "octet"])
    def test_real_ground_state_reduces_to_a_real_state(self, group):
        spec = ChainSpec(sites=4, beta=1.0, delta=1.0)
        rho = reduce_to_group(_ground_vector(spec), spec, SpinGroup(group))
        assert rho.matrix.dtype == np.float64

    def test_translation_invariance(self):
        # the quartet on sites (0, 1) equals the one on any pair of neighbours
        vec = _ground_vector(CRITICAL)
        first = reduce_to_group(vec, CRITICAL, SpinGroup("quartet")).matrix
        for shift in range(3):
            block = [shift, (shift + 1) % 3]
            keep = [2 * s for s in block] + [2 * s + 1 for s in block]
            rho = reduced_from_vector(vec, (2,) * 6, keep)
            assert np.abs(rho.matrix - first).max() <= 1e-9

    def test_same_site_pair_diagonal_in_x_basis(self):
        # at beta = 1 the sigma_j/tau_j pair is classical in the sigma-x product basis
        for delta in (0.4, 1.0, 1.6):
            spec = ChainSpec(sites=3, beta=1.0, delta=delta)
            vec = _ground_vector(spec)
            rho = reduced_from_vector(vec, (2,) * 6, pair_qubits("same-site"))
            dephased = dephase(rho, all_x(2))
            assert np.abs(dephased.matrix - rho.matrix).max() <= 1e-9

    def test_single_spin_reduced_states_x_diagonal(self):
        spec = ChainSpec(sites=3, beta=1.0, delta=0.7)
        vec = _ground_vector(spec)
        x_vectors = all_x(1).locals[0].vectors
        for q in range(6):
            rho = reduced_from_vector(vec, (2,) * 6, [q])
            in_x = x_vectors.conj().T @ rho.matrix @ x_vectors
            assert np.abs(in_x - np.diag(np.diag(in_x))).max() <= 1e-9


class TestScans:
    def test_quartet_x_basis_detects_critical_point(self):
        deltas = np.round(np.arange(0.81, 1.20, 0.02), 10)
        result = gqd_scan(CRITICAL, deltas, SpinGroup("quartet"), "fixed-x")
        interior = result.deltas[1:-1]
        crossings = zero_crossings(interior, result.derivative, lo=0.85, hi=1.15)
        assert len(crossings) == 1
        assert 0.9 < crossings[0] < 1.1
        assert (result.values >= -1e-9).all()

    def test_quartet_z_basis_sees_nothing(self):
        deltas = np.round(np.arange(0.81, 1.20, 0.02), 10)
        result = gqd_scan(CRITICAL, deltas, SpinGroup("quartet"), "fixed-z")
        assert (result.values > 0).all()
        interior = result.deltas[1:-1]
        assert zero_crossings(interior, result.derivative, lo=0.85, hi=1.15) == []

    @pytest.mark.parametrize("sites", [3, 4, 5])
    def test_z_basis_is_the_minimizing_quartet_basis(self, sites):
        # criterion 8 scans fixed-z as the minimizing basis: certify that claim
        for delta in (0.5, 0.9, 1.0, 1.1, 1.5):
            assert_z_basis_minimizes(ChainSpec(sites=sites, beta=1.0, delta=delta), "quartet")

    @pytest.mark.parametrize("delta", [0.9, 0.95, 1.0, 1.05, 1.1])
    def test_z_basis_is_the_minimizing_sextet_basis(self, delta):
        # the paper's chain of N = 16 spins, across the critical window
        assert_z_basis_minimizes(ChainSpec(sites=8, beta=1.0, delta=delta), "sextet")

    def test_z_basis_is_the_minimizing_octet_basis(self):
        assert_z_basis_minimizes(ChainSpec(sites=8, beta=1.0, delta=1.0), "octet")

    def test_scan_result_shapes(self):
        deltas = [0.8, 1.0, 1.2]
        result = gqd_scan(CRITICAL, deltas, SpinGroup("quartet"), "fixed-x")
        assert len(result.values) == 3
        assert len(result.derivative) == 1
        assert result.sector_dim == 4
        residuals, amplitudes = [], []
        for delta in deltas:  # one-point blocks
            (c,), (energy,), (residual,) = ashkin_teller._sector_ground(CRITICAL, [delta])
            residuals.append(residual / max(1.0, abs(energy)))
            amplitudes.append(c.min())
        assert result.max_residual == max(residuals) <= ashkin_teller.RESIDUAL_TOL
        # the Perron-Frobenius margin: positive, and at most the uniform amplitude
        assert result.min_amplitude == min(amplitudes)
        assert 0.0 < result.min_amplitude <= result.sector_dim**-0.5

    def test_crossing_stable_under_grid_refinement(self):
        group = SpinGroup("quartet")

        def locate(step):
            deltas = np.round(np.arange(0.85, 1.15 + step / 2, step), 10)
            res = gqd_scan(CRITICAL, deltas, group, "fixed-x")
            roots = zero_crossings(res.deltas[1:-1], res.derivative)
            assert len(roots) == 1
            return roots[0]

        coarse, fine = locate(0.04), locate(0.02)
        assert abs(coarse - fine) < 0.02

    @pytest.mark.parametrize("group, per_call", [("quartet", 256), ("sextet", 16), ("octet", 1)])
    def test_default_grid_scan_is_stacked_without_the_transpose(self, group, per_call,
                                                                 stack_validations):
        # the transpose fails the scan (the fixture), and the 57 states are validated in
        # stacks of one call's states: all 57 quartets at once, ceil(57 / 16) sextet stacks
        deltas = default_delta_grid()
        spin_group = SpinGroup(group)
        gqd_scan(ChainSpec(sites=4, beta=1.0, delta=1.0), deltas, spin_group, "fixed-x")
        assert len(deltas) == 57
        assert correlations._states_per_call(spin_group.n_spins) == per_call
        assert stack_validations == [min(per_call, 57 - k) for k in range(0, 57, per_call)]

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            gqd_scan(CRITICAL, [0.9, 1.0], SpinGroup("quartet"), "minimize")

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            gqd_scan(CRITICAL, [], SpinGroup("quartet"), "fixed-x")

    @pytest.mark.parametrize("delta, message", [
        (np.nan, r"^delta must be finite, got nan$"),
        (1.1e100, r"^\|delta\| must be at most 1e100, got 1.1e\+100$"),
        (-0.1, r"^delta=-0.1 is outside the solved domain delta >= 0$"),
    ])
    def test_grid_couplings_are_checked_like_a_chain(self, delta, message):
        with pytest.raises(ValueError, match=message):
            gqd_scan(CRITICAL, [0.9, delta, 1.1], SpinGroup("quartet"), "fixed-x")

    @pytest.mark.parametrize("delta, message", [
        (-0.1, r"^delta=-0.1 is outside the solved domain delta >= 0$"),
        (np.nan, r"^delta must be finite, got nan$"),
    ])
    @pytest.mark.parametrize("scan", [
        lambda template, grid: gqd_scan(template, grid, SpinGroup("quartet"), "fixed-x"),
        lambda template, grid: pairwise_discord_scan(template, grid, "neighbor-sigma"),
    ], ids=["gqd", "pairwise"])
    def test_whole_grid_is_checked_before_any_build(self, monkeypatch, scan, delta, message):
        # at 8 sites a block is one point, so a per-block check would build and solve first
        ashkin_teller._sector_parts.cache_clear()
        calls = []
        for name in ("_orbits", "_sector_lowest"):
            original = getattr(ashkin_teller, name)
            monkeypatch.setattr(ashkin_teller, name,
                                lambda *args, f=original, n=name: calls.append(n) or f(*args))
        with pytest.raises(ValueError, match=message):  # the first bad coupling of the grid
            scan(ChainSpec(sites=8, beta=1.0, delta=1.0), [0.9, 1.0, delta, -0.2])
        assert calls == []

    @pytest.mark.parametrize("entry", [
        lambda: gqd_scan(ChainSpec(sites=8, beta=1.0, delta=1.0), default_delta_grid(),
                         SpinGroup("quartet"), "fixed-x"),
        lambda: pairwise_discord_scan(ChainSpec(sites=8, beta=1.0, delta=1.0),
                                      default_delta_grid(0.8, 1.2, 0.05, 0), "neighbor-sigma"),
        lambda: _ground_vector(ChainSpec(sites=8, beta=1.0, delta=0.9)),
    ], ids=["gqd_scan", "pairwise_discord_scan", "_ground_vector"])
    def test_couplings_are_checked_once_an_entry_point(self, monkeypatch, entry):
        # at 8 sites a block is one point: a per-block check would run once a point
        check, calls = ashkin_teller._check_deltas, []
        monkeypatch.setattr(ashkin_teller, "_check_deltas",
                            lambda *args: calls.append(args) or check(*args))
        entry()
        assert len(calls) == 1


class TestPairwiseScans:
    def test_same_site_discord_vanishes(self):
        deltas = [0.2, 0.8, 1.0, 1.4, 1.8]
        result = pairwise_discord_scan(CRITICAL, deltas, "same-site")
        assert np.abs(result.values).max() <= 1e-8

    @pytest.mark.parametrize("kind", ashkin_teller.PAIR_KINDS)
    def test_matches_per_point_discord_of_the_pair(self, kind):
        template = ChainSpec(sites=4, beta=1.0, delta=1.0)
        deltas = [0.3, 0.9, 1.0, 1.2, 1.7]
        scan = pairwise_discord_scan(template, deltas, kind)
        for delta, value in zip(deltas, scan.values):
            vector = _ground_vector(replace(template, delta=delta))
            rho = reduced_from_vector(vector, (2,) * 8, pair_qubits(kind))
            assert abs(value - discord_asymmetric(rho)) <= 1e-12

    def test_neighbor_pair_positive_no_extremum(self):
        deltas = np.round(np.arange(0.85, 1.16, 0.05), 10)
        result = pairwise_discord_scan(CRITICAL, deltas, "neighbor-sigma")
        assert (result.values > 1e-3).all()
        interior = result.deltas[1:-1]
        assert zero_crossings(interior, result.derivative, lo=0.9, hi=1.1) == []


class TestPottsPoint:
    """Fixed-x GQD of whole sites is stationary at delta = 1, where the on-site CNOT is a symmetry."""

    @pytest.mark.parametrize("group", ["quartet", "sextet"])
    def test_fixed_x_gqd_is_relative_entropy_to_x_dephasing(self, group):
        # the parities make every single-spin state x-diagonal, so the local terms vanish
        spec = ChainSpec(sites=4, beta=1.0, delta=0.8)
        spin_group = SpinGroup(group)
        rho = reduce_to_group(_ground_vector(spec), spec, spin_group)
        expected = relative_entropy(rho, dephase(rho, all_x(spin_group.n_spins)))
        assert abs(gqd(rho, "fixed-x").value - expected) <= 1e-12

    @pytest.mark.parametrize("sites", [4, 8])
    def test_fixed_x_derivative_at_delta_one_falls_as_step_squared(self, sites):
        # a central difference reads f'(1) + h^2 f'''(1) / 6: with f'(1) = 0 it
        # falls by 100 per decade of h
        steps = (0.1, 0.01, 0.001)
        deltas = sorted(1.0 + sign * h for h in steps for sign in (-1.0, 1.0))
        template = ChainSpec(sites=sites, beta=1.0, delta=1.0)
        for group in ashkin_teller.GROUP_SITES:
            scan = gqd_scan(template, deltas, SpinGroup(group), "fixed-x")
            value = dict(zip(deltas, scan.values))
            slopes = [(value[1.0 + h] - value[1.0 - h]) / (2.0 * h) for h in steps]
            for coarse, fine in zip(slopes, slopes[1:]):
                assert 95.0 <= coarse / fine <= 105.0, (group, slopes)

    def test_sigma_neighbour_pair_slope_at_delta_one_is_not_zero(self):
        # one species alone is not CNOT-invariant, so nothing pins its slope to zero
        spec = ChainSpec(sites=4, beta=1.0, delta=1.0)
        scan = pairwise_discord_scan(spec, [0.99, 1.0, 1.01], "neighbor-sigma")
        assert -0.06 <= scan.derivative[0] <= -0.05


class TestHelpers:
    def test_central_difference(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = x**2
        assert np.allclose(central_difference(x, y), [2.0, 4.0])

    def test_zero_crossings_interpolation(self):
        x = np.array([0.0, 1.0, 2.0])
        d = np.array([1.0, -1.0, -2.0])
        assert zero_crossings(x, d) == [0.5]
        assert zero_crossings(x, d, lo=0.6) == []

    def test_zero_crossings_at_exact_zeros(self):
        # a crossing is a sign change: an exact zero counts only between opposite signs
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert zero_crossings(x, np.array([1.0, 0.0, -1.0, -2.0, -3.0])) == [1.0]  # interior
        assert zero_crossings(x, np.array([1.0, 0.0, 1.0, 2.0, 3.0])) == []  # a touch
        last = np.array([1.0, -1.0, -2.0, -1.0, 0.0])
        assert zero_crossings(x, last) == [0.5]  # a zero at the end
        assert zero_crossings(x, last, lo=0.6) == []
        assert zero_crossings(x, last, hi=4.0) == [0.5]
        # a run of zeros between opposite signs crosses at its middle
        assert zero_crossings(x, np.array([1.0, 0.0, 0.0, -1.0, 0.0]), lo=0.5, hi=3.5) == [1.5]
        assert zero_crossings(x, np.zeros(5)) == []

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(0.01, 1.0), st.integers(-2, 2)), max_size=40),
           lo=st.floats(-1.0, 41.0), hi=st.floats(-1.0, 41.0))
    def test_sign_changes_of_a_derivative_with_exact_zeros(self, points, lo, hi):
        x = np.cumsum([step for step, _ in points])
        d = np.array([float(value) for _, value in points])
        changes = ashkin_teller._sign_changes(x, d)
        nonzero = np.flatnonzero(d)
        brackets = [(i, j) for i, j in zip(nonzero[:-1], nonzero[1:]) if d[i] * d[j] < 0]
        assert len(changes) == np.count_nonzero(np.diff(np.sign(d[nonzero]))) == len(brackets)
        for (root, falls), (i, j) in zip(changes, brackets):
            assert x[i] < root < x[j]
            assert falls == (d[i] > 0)
        assert all(a[1] != b[1] for a, b in zip(changes, changes[1:]))
        assert ashkin_teller._sign_changes(x, d, lo, hi) == [c for c in changes if lo < c[0] < hi]

    def test_default_delta_grid(self):
        grid = default_delta_grid()
        assert grid[0] == 0.2 and grid[-1] == 1.8
        assert np.all(np.diff(grid) > 0)
        fine = grid[(grid >= 0.85) & (grid <= 1.15)]
        assert np.allclose(np.diff(fine), 0.01)

    def test_default_delta_grid_rejects_bad_range(self):
        with pytest.raises(ValueError):
            default_delta_grid(start=1.0, stop=0.5)

    def test_default_delta_grid_is_never_empty(self):
        # at 1e15 the step is below the rounding of stop, so stop + step / 2 == stop
        with pytest.raises(ValueError, match="^empty coupling range$"):
            default_delta_grid(1e15, 1e15, 0.05, 0.0)
        assert np.array_equal(default_delta_grid(1.0, 1.0, 0.05, 0.0), [1.0])

    @pytest.mark.parametrize("name", ["start", "stop", "step", "fine_step"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_default_delta_grid_rejects_non_finite_arguments(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            default_delta_grid(**{name: value})

    def test_default_delta_grid_bounds_its_size(self):
        assert default_delta_grid(0.0, 99_999.0, 1.0, 0.0).size == ashkin_teller.MAX_GRID_POINTS
        for args, count in [((0.0, 100_000.0, 1.0, 0.0), "100001"),
                            ((-1e308, 1e308, 1.0, 0.0), "inf"),
                            ((0.2, 1.8, 0.05, 1e-320), "inf")]:
            with pytest.raises(ValueError, match=f"^coupling grid of {count} points exceeds"):
                default_delta_grid(*args)

    @pytest.mark.parametrize("fine_step", [0.0, -0.01, 0.05, 0.1])
    def test_non_positive_or_coarse_fine_step_means_no_refinement(self, fine_step):
        grid = default_delta_grid(0.9, 1.1, 0.05, fine_step)
        assert np.array_equal(grid, [0.9, 0.95, 1.0, 1.05, 1.1])


class TestScanResultValidation:
    def test_inconsistent_lengths(self):
        with pytest.raises(ValueError):
            ScanResult(
                deltas=np.array([1.0, 2.0]),
                values=np.array([0.1]),
                derivative=np.empty(0),
                max_residual=0.0,
                min_amplitude=0.5,
                sector_dim=3,
            )
