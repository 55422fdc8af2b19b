import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqd import correlations
from gqd.core import (
    DensityOperator,
    kron,
    partial_trace,
    relative_entropy,
    von_neumann_entropy,
)
from gqd.correlations import (
    GqdResult,
    discord_asymmetric,
    gqd,
    gqd_at_basis,
    mutual_information,
    symmetric_discord,
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
    sigma_x_basis,
)
from gqd.states import bell, ghz, random_density, werner, werner_ghz, werner_ghz_gqd_analytic


def random_basis(rng, n):
    return ProductBasis(
        tuple(
            qubit_basis(
                QubitBasisAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            )
            for _ in range(n)
        )
    )


def classical_state(probs, unitaries=None):
    """State diagonal in a (possibly rotated) product basis."""
    n = len(probs).bit_length() - 1
    m = np.diag(np.asarray(probs, dtype=complex))
    if unitaries is not None:
        u = unitaries[0]
        for w in unitaries[1:]:
            u = kron(u, w)
        m = u @ m @ u.conj().T
    return DensityOperator(m, (2,) * n)


def permute_qubits(rho, perm):
    """The state with qubit q moved to position perm[q]."""
    n = len(perm)
    t = np.transpose(rho.matrix.reshape((2,) * (2 * n)), perm + [n + q for q in perm])
    return DensityOperator(t.reshape(2**n, 2**n), rho.dims)


def brute_force_symmetric_discord(rho, n_theta=7, n_phi=5):
    """Independent oracle: coarse grid over both qubit bases using the dephasing route."""
    thetas = np.linspace(0, math.pi, n_theta, endpoint=False)
    phis = np.linspace(0, 2 * math.pi, n_phi, endpoint=False)
    info = mutual_information(rho, [0])
    best = math.inf
    for t1, p1, t2, p2 in itertools.product(thetas, phis, thetas, phis):
        basis = ProductBasis(
            (
                qubit_basis(QubitBasisAngles(t1, p1)),
                qubit_basis(QubitBasisAngles(t2, p2)),
            )
        )
        best = min(best, info - mutual_information(dephase(rho, basis), [0]))
    return best


class TestMutualInformation:
    def test_product_state_zero(self):
        a = random_density((2,), seed=1).matrix
        b = random_density((2,), seed=2).matrix
        rho = DensityOperator(kron(a, b), (2, 2))
        assert abs(mutual_information(rho, [0])) <= 1e-10

    def test_bell_state(self):
        assert abs(mutual_information(bell(), [0]) - 2.0) <= 1e-12

    def test_equals_relative_entropy_form(self):
        for seed in range(30):
            rho = random_density((2, 2), seed=300 + seed, rank=1 + seed % 4)
            a = partial_trace(rho, [0]).matrix
            b = partial_trace(rho, [1]).matrix
            assert abs(mutual_information(rho, [0]) - relative_entropy(rho, kron(a, b))) <= 1e-9

    def test_multiqubit_cut(self):
        rho = random_density((2, 2, 2), seed=9)
        i = mutual_information(rho, [0, 2])
        assert i >= -1e-9

    @pytest.mark.parametrize("cut", [[], [0, 1], [5]])
    def test_invalid_cut(self, cut):
        with pytest.raises(ValueError):
            mutual_information(random_density((2, 2), seed=0), cut)


def conditional_entropy(rho, basis):
    """sum_j p_j S(rho_{A|j}) for a projective measurement of qubit B of a two-qubit rho."""
    return float(correlations._conditional_entropy_tensor(rho.matrix.reshape(2, 2, 2, 2),
                                                          basis.vectors))


class TestMeasuredConditionalEntropy:
    def test_product_state_gives_marginal_entropy(self):
        a = random_density((2,), seed=5).matrix
        b = random_density((2,), seed=6).matrix
        rho = DensityOperator(kron(a, b), (2, 2))
        s_a = von_neumann_entropy(partial_trace(rho, [0]))
        for basis in (computational_basis(2), sigma_x_basis()):
            assert abs(conditional_entropy(rho, basis) - s_a) <= 1e-10

    def test_bell_state_z_basis(self):
        assert abs(conditional_entropy(bell(), computational_basis(2))) <= 1e-12

    def test_dephased_entropy_decomposition(self):
        # S(Phi_B(rho)) = H(p) + sum_j p_j S(rho_{A|j})
        rng = np.random.default_rng(17)
        for seed in range(10):
            rho = random_density((2, 2), seed=800 + seed)
            t, p = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            basis = qubit_basis(QubitBasisAngles(t, p))
            projectors = [kron(np.eye(2), pr) for pr in basis.projectors]
            phi_b = sum(pr @ rho.matrix @ pr for pr in projectors)
            probs = [float(np.real(np.trace(pr @ rho.matrix))) for pr in projectors]
            h = -sum(q * math.log2(q) for q in probs if q > 1e-14)
            lhs = von_neumann_entropy(phi_b)
            rhs = h + conditional_entropy(rho, basis)
            assert abs(lhs - rhs) <= 1e-9


class TestDiscordAsymmetric:
    def test_classical_classical_zero(self):
        rho = classical_state([0.4, 0.3, 0.2, 0.1])
        assert abs(discord_asymmetric(rho)) <= 1e-8

    def test_bell_is_one(self):
        assert abs(discord_asymmetric(bell()) - 1.0) <= 1e-8

    def test_non_negative(self):
        for seed in range(10):
            rho = random_density((2, 2), seed=50 + seed)
            assert discord_asymmetric(rho) >= -1e-9

    def test_requires_qubit_measured_side(self):
        with pytest.raises(ValueError):
            discord_asymmetric(random_density((2, 3), seed=0))

    def test_takes_one_spectrum_of_rho_b_and_none_of_rho_a_before_the_search(self, monkeypatch):
        rho = random_density((2, 2, 2), rank=3, seed=8)
        eigvalsh, shapes = np.linalg.eigvalsh, []

        class SearchStarted(Exception):
            pass

        def counting(m):
            shapes.append(np.shape(m))
            return eigvalsh(m)

        def search(*args, **kwargs):
            raise SearchStarted

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(correlations, "_minimize_over_angles", search)
        with pytest.raises(SearchStarted):
            discord_asymmetric(rho)
        # validating rho_B is the only spectrum; S(AB) is read from rho's validated one
        assert shapes == [(2, 2)]

    def test_objective_rows_are_scored_within_the_element_budget(self, monkeypatch):
        # d_A = 8: a budget of 2^10 elements allows 1024 // (2 * 8^2) = 8 rows a call, so
        # the 81-row coarse call splits; every row's value is computed as it was unsplit.
        rho, budget = ghz(4), 2**10
        want = discord_asymmetric(rho)
        tensor, rows = correlations._conditional_entropy_tensor, []

        def counting(t, vectors):
            rows.append(len(vectors))
            return tensor(t, vectors)

        monkeypatch.setattr(correlations, "_ELEMENT_BUDGET", budget)
        monkeypatch.setattr(correlations, "_conditional_entropy_tensor", counting)
        assert discord_asymmetric(rho) == want
        assert max(rows) == budget // (2 * 8**2)


class TestGqdAtBasis:
    def test_ghz_all_z_is_one(self):
        assert abs(gqd_at_basis(ghz(3), all_z(3)) - 1.0) <= 1e-12

    def test_classical_state_its_basis_zero(self):
        rng = np.random.default_rng(23)
        probs = rng.dirichlet(np.ones(4))
        rho = classical_state(probs)
        assert abs(gqd_at_basis(rho, all_z(2))) <= 1e-12

    def test_werner_ghz_closed_form(self):
        for mu in np.linspace(0.0, 1.0, 11):
            got = gqd_at_basis(werner_ghz(float(mu)), all_z(3))
            assert abs(got - werner_ghz_gqd_analytic(float(mu))) <= 1e-10

    def test_matches_explicit_dephasing_route(self):
        # independent evaluation: relative entropies via the channel + eigensolver
        rng = np.random.default_rng(29)
        for seed in range(10):
            n = 2 + seed % 2
            rho = random_density((2,) * n, seed=900 + seed, rank=1 + seed % 3)
            basis = random_basis(rng, n)
            expected = von_neumann_entropy(dephase(rho, basis)) - von_neumann_entropy(rho)
            for j in range(n):
                r_j = partial_trace(rho, [j])
                phi_j = dephase(r_j, ProductBasis((basis.locals[j],)))
                expected -= von_neumann_entropy(phi_j) - von_neumann_entropy(r_j)
            assert abs(gqd_at_basis(rho, basis) - expected) <= 1e-9

    def test_non_negative_at_every_basis(self):
        rng = np.random.default_rng(31)
        for seed in range(100):
            n = 2 + seed % 3
            rho = random_density((2,) * n, seed=seed, rank=1 + seed % (2**n))
            for _ in range(2):
                assert gqd_at_basis(rho, random_basis(rng, n)) >= -1e-9

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 10_000), rank=st.integers(1, 32))
    def test_invariant_under_qubit_permutation(self, n, seed, rank):
        # relabelling the qubits of the state and of the basis together leaves the value
        rng = np.random.default_rng(seed)
        rho = random_density((2,) * n, seed=seed, rank=min(rank, 2**n))
        basis = random_basis(rng, n)
        perm = [int(q) for q in rng.permutation(n)]
        permuted_basis = ProductBasis(tuple(basis.locals[q] for q in perm))
        value = gqd_at_basis(permute_qubits(rho, perm), permuted_basis)
        assert abs(gqd_at_basis(rho, basis) - value) <= 1e-12

    def test_additive_on_product_states(self):
        rng = np.random.default_rng(37)
        rho1 = random_density((2, 2), seed=71)
        rho2 = random_density((2, 2), seed=72)
        b1 = random_basis(rng, 2)
        b2 = random_basis(rng, 2)
        prod = DensityOperator(kron(rho1.matrix, rho2.matrix), (2,) * 4)
        together = gqd_at_basis(prod, ProductBasis(b1.locals + b2.locals))
        separate = gqd_at_basis(rho1, b1) + gqd_at_basis(rho2, b2)
        assert abs(together - separate) <= 1e-9


class TestGqdMinimize:
    def test_ghz_is_one(self):
        result = gqd(ghz(3), "minimize")
        assert abs(result.value - 1.0) <= 1e-6
        assert result.converged
        assert result.strategy == "minimize"

    @pytest.mark.parametrize("n, seeds", [(2, range(12)), (3, range(12)), (4, range(6))])
    def test_symmetric_under_qubit_exchange(self, n, seeds):
        # the paper's claim: GQD is symmetric under the exchange of subsystems
        for seed in seeds:
            rng = np.random.default_rng(seed)
            rho = random_density((2,) * n, seed=seed, rank=1 + seed % 2**n)
            perm = [int(q) for q in rng.permutation(n)]
            if perm == sorted(perm):
                perm.reverse()
            results = [gqd(rho, "minimize"), gqd(permute_qubits(rho, perm), "minimize")]
            assert all(result.converged for result in results)
            assert abs(results[0].value - results[1].value) <= 1e-9, (seed, perm)

    def test_maximally_mixed_is_zero(self):
        for strategy in ("fixed-z", "fixed-x", "reduced-eigenbasis", "minimize"):
            result = gqd(werner_ghz(0.0), strategy)
            assert abs(result.value) <= 1e-6

    def test_two_qubit_equals_symmetric_discord(self):
        for seed in range(10):
            rho = random_density((2, 2), seed=400 + seed, rank=1 + seed % 4)
            assert abs(gqd(rho, "minimize").value - symmetric_discord(rho)) <= 1e-6

    def test_minimize_not_above_fixed_strategies(self):
        for seed in (3, 11):
            rho = random_density((2, 2), seed=600 + seed)
            best = gqd(rho, "minimize").value
            for strategy in ("fixed-z", "fixed-x", "reduced-eigenbasis"):
                assert best <= gqd(rho, strategy).value + 1e-9

    def test_zero_on_classical_states(self):
        rng = np.random.default_rng(41)
        for seed in range(5):
            probs = np.random.default_rng(seed).dirichlet(np.ones(4))
            us = [
                qubit_basis(
                    QubitBasisAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                ).vectors
                for _ in range(2)
            ]
            rho = classical_state(probs, unitaries=us)
            assert gqd(rho, "minimize").value <= 1e-6

    def test_local_unitary_covariance_fixed_basis(self):
        rng = np.random.default_rng(43)
        for seed in range(5):
            rho = random_density((2, 2), seed=500 + seed)
            basis = random_basis(rng, 2)
            us = [
                qubit_basis(
                    QubitBasisAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                ).vectors
                for _ in range(2)
            ]
            u = kron(us[0], us[1])
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T, rho.dims)
            rotated_basis = ProductBasis(
                tuple(LocalBasis(w @ b.vectors) for w, b in zip(us, basis.locals))
            )
            assert abs(gqd_at_basis(rho, basis) - gqd_at_basis(rotated, rotated_basis)) <= 1e-10

    def test_local_unitary_covariance_minimize(self):
        rng = np.random.default_rng(47)
        for seed in range(3):
            rho = random_density((2, 2), seed=700 + seed, rank=2)
            us = [
                qubit_basis(
                    QubitBasisAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                ).vectors
                for _ in range(2)
            ]
            u = kron(us[0], us[1])
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T, rho.dims)
            assert abs(gqd(rho, "minimize").value - gqd(rotated, "minimize").value) <= 1e-6

    @pytest.mark.parametrize("split", [(2, 2), (2, 3)])
    def test_minimized_value_is_additive_on_product_states(self, split):
        # The sampled coarse stage at n = 4 and 5 against an exact identity.
        for seed in range(3):
            parts = [random_density((2,) * n, seed=500 + 10 * seed + n, rank=1 + seed)
                     for n in split]
            prod = DensityOperator(kron(parts[0].matrix, parts[1].matrix),
                                   (2,) * sum(split))
            together, *separate = (gqd(rho, "minimize") for rho in (prod, *parts))
            assert together.converged and all(r.converged for r in separate)
            assert abs(together.value - sum(r.value for r in separate)) <= 1e-9

    def test_budget_below_structured_seeds(self, monkeypatch):
        monkeypatch.setattr(correlations, "_MAX_EVALUATIONS", 3)  # fewer than the four starts
        result = gqd(random_density((2, 2, 2), seed=3), "minimize")
        assert result.evaluations == 3
        assert not result.converged
        assert result.value >= -1e-9

    def test_repeated_minimization_is_identical(self):
        rho = random_density((2,) * 3, seed=5)
        first, second = gqd(rho, "minimize"), gqd(rho, "minimize")
        assert first.value == second.value
        assert first.evaluations == second.evaluations
        for a, b in zip(first.basis.locals, second.basis.locals):
            assert np.array_equal(a.vectors, b.vectors)

    def test_one_measured_qubit_and_two_qubits_never_draw(self, monkeypatch):
        # One angle pair (81 rows) and two (81**2 = 6,561) fit the coarse budget, so
        # the full grid is enumerated and no seed reaches these outputs.
        pairs = [bell(), werner(0.3), random_density((2, 2), seed=8)]
        triple = random_density((2, 2, 2), seed=3)
        calls = []
        draw = np.random.default_rng

        def spy(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", spy)  # after the states are built
        for rho in pairs:
            discord_asymmetric(rho)
            symmetric_discord(rho)
            gqd(rho, "minimize", seed=5)
        discord_asymmetric(triple)
        assert calls == []
        gqd(triple, "minimize", seed=5)
        assert calls == [(5,)]

    def test_seed_draws_the_three_qubit_coarse_sample(self):
        rho = random_density((2, 2, 2), seed=3)
        first, second = gqd(rho, "minimize", seed=0), gqd(rho, "minimize", seed=1)
        assert (first.evaluations, second.evaluations) == (8840, 8684)
        assert first.converged and second.converged
        assert abs(first.value - second.value) <= 1e-12

    def test_budget_exhaustion_returns_best_so_far(self, monkeypatch):
        monkeypatch.setattr(correlations, "_MAX_EVALUATIONS", 50)
        result = gqd(ghz(3), "minimize")
        assert not result.converged
        assert result.evaluations <= 50
        assert result.value >= -1e-9

    def test_budget_exhausted_during_refinement(self, monkeypatch):
        # 6561 sampled grid rows + 4 structured starts, then room for three
        # lockstep rounds of 8 starts x 13 rows at three qubits but not a fourth
        budget = 6561 + 4 + 3 * 8 * 13 + 40
        monkeypatch.setattr(correlations, "_MAX_EVALUATIONS", budget)
        rho = random_density((2, 2, 2), seed=3)
        result = gqd(rho, "minimize")
        assert result.converged is False
        assert 6561 + 4 < result.evaluations <= budget
        assert abs(gqd_at_basis(rho, result.basis) - result.value) <= 1e-9

    def test_result_basis_matches_value(self):
        # the best angles may come from a gradient probe row; the returned
        # basis must still reproduce the returned value
        for n, seed in ((2, 83), (3, 84), (4, 85)):
            rho = random_density((2,) * n, seed=seed)
            result = gqd(rho, "minimize")
            assert result.converged
            assert abs(gqd_at_basis(rho, result.basis) - result.value) <= 1e-9

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            gqd(bell(), "best-basis")

    def test_single_subsystem_rejected(self):
        with pytest.raises(ValueError):
            gqd(random_density((2,), seed=0), "minimize")

    @pytest.mark.parametrize("strategy, what", [("fixed-x", "fixed-x strategy"),
                                                ("minimize", "minimize strategy")])
    def test_qutrit_rejected_with_its_dims(self, strategy, what):
        rho = random_density((3, 2), seed=0)
        assert rho.dims == (3, 2)
        with pytest.raises(ValueError, match=rf"^{what} requires qubit subsystems, got dims \(3, 2\)$"):
            gqd(rho, strategy)


class TestSymmetricDiscord:
    def test_product_state_zero(self):
        a = random_density((2,), seed=11).matrix
        b = random_density((2,), seed=12).matrix
        rho = DensityOperator(kron(a, b), (2, 2))
        assert abs(symmetric_discord(rho)) <= 1e-8

    def test_bell_is_one_with_brute_force(self):
        assert abs(symmetric_discord(bell()) - 1.0) <= 1e-8
        assert abs(brute_force_symmetric_discord(bell()) - 1.0) <= 1e-9

    def test_werner_positive_and_matches_brute_force(self):
        for mu in (0.3, 0.7):
            rho = werner(mu)
            lib = symmetric_discord(rho)
            assert lib > 1e-3
            assert abs(lib - brute_force_symmetric_discord(rho)) <= 1e-6

    def test_dual_forms_agree_at_sampled_bases(self):
        # loss-of-correlation form vs relative-entropy form, both computed independently
        rng = np.random.default_rng(53)
        for seed in range(20):
            rho = random_density((2, 2), seed=1000 + seed, rank=1 + seed % 4)
            basis = random_basis(rng, 2)
            relative_form = gqd_at_basis(rho, basis)
            loss_form = mutual_information(rho, [0]) - mutual_information(
                dephase(rho, basis), [0]
            )
            assert abs(relative_form - loss_form) <= 1e-9

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError):
            symmetric_discord(random_density((2, 2, 2), seed=0))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), rank=st.integers(1, 4), rows=st.integers(1, 64))
    def test_correlation_loss_matches_relative_form_rowwise(self, seed, rank, rows):
        # The objective's relative-entropy form against the correlation-loss form
        # I(rho) - I(Phi(rho)), built from the dephased state, at random rows,
        # theta = 0 rows, and the refinement's +-1e-5 probe rows.
        rho = random_density((2, 2), seed=seed, rank=rank)
        rng = np.random.default_rng(seed)
        x = np.empty((rows, 4))
        x[:, 0::2] = rng.uniform(0, math.pi, (rows, 2))
        x[:, 1::2] = rng.uniform(0, 2 * math.pi, (rows, 2))
        x[: (rows + 1) // 2, 2 * rng.integers(0, 2)] = 0.0
        x[0, 0::2] = 0.0
        steps = 1e-5 * np.eye(4)
        x = np.concatenate([x, x[0] + steps, x[0] - steps, x[-1] + steps, x[-1] - steps])
        unitaries = correlations._qubit_unitaries(x)
        info = mutual_information(rho, [0])
        loss = np.array([
            info - mutual_information(dephase(rho, ProductBasis(tuple(map(LocalBasis, us)))), [0])
            for us in unitaries.swapaxes(0, 1)
        ])
        relative = correlations._GqdContext.of(rho).values(unitaries)
        assert loss.shape == relative.shape == (len(x),)
        assert np.abs(loss - relative).max() <= 1e-9

    def test_floor_edge_state_raises_everywhere(self):
        # accepted as a state (min eigenvalue -0.9e-10), but its qubit-0
        # reduction has eigenvalue -1.8e-10, below the entropy floor
        eps = 0.9e-10
        rho = DensityOperator(np.diag([-eps, -eps, 0.5 + eps, 0.5 + eps]).astype(complex),
                              (2, 2))
        with pytest.raises(ValueError, match="not positive"):
            mutual_information(rho, [0])
        with pytest.raises(ValueError, match="not positive"):
            gqd(rho, "fixed-x")
        with pytest.raises(ValueError, match="not positive"):
            gqd(rho, "minimize")
        with pytest.raises(ValueError, match="not positive"):
            symmetric_discord(rho)


class TestBatchedObjective:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 10_000), rows=st.integers(1, 80))
    def test_rows_match_fixed_basis_and_chunking(self, n, seed, rows):
        rho = random_density((2,) * n, seed=seed, rank=1 + seed % (2**n))
        rng = np.random.default_rng(seed)
        x = np.empty((rows, 2 * n))
        x[:, 0::2] = rng.uniform(0, math.pi, (rows, n))
        x[:, 1::2] = rng.uniform(0, 2 * math.pi, (rows, n))
        ctx = correlations._GqdContext.of(rho)

        def objective(batch):
            return ctx.values(correlations._qubit_unitaries(batch))

        batched = objective(x)
        assert batched.shape == (rows,)
        for row, value in zip(x, batched):
            basis = ProductBasis(
                tuple(qubit_basis(QubitBasisAngles(t, p)) for t, p in row.reshape(-1, 2))
            )
            assert abs(value - gqd_at_basis(rho, basis)) <= 1e-12
        for chunk in (1, 7, 64):
            chunked = np.concatenate([objective(x[k:k + chunk]) for k in range(0, rows, chunk)])
            assert np.abs(chunked - batched).max() <= 1e-13


class TestQubitAngles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unitaries_are_qubit_unitary_per_row_and_qubit(self, n):
        x = np.random.default_rng(n).uniform(0, 2 * math.pi, (9, 2 * n))
        u = correlations._qubit_unitaries(x)
        assert u.shape == (n, 9, 2, 2)
        for q, b in itertools.product(range(n), range(9)):
            assert np.array_equal(u[q, b], qubit_unitary(x[b, 2 * q], x[b, 2 * q + 1]))

    def test_column_angles_keep_theta_below_pi(self):
        # |a| from 1e-12, where theta is pi - 2e-12, to 1, at random phases; the columns
        # with |a| or |b| below 1e-12 take the z basis
        rng = np.random.default_rng(3)
        moduli = [(m, math.sqrt(1 - m * m)) for m in np.logspace(-12, 0, 25)]
        for a, b in [*moduli, (1e-13, 1.0), (1.0, 1e-13)]:
            for alpha, beta in rng.uniform(-math.pi, math.pi, (4, 2)):
                v = np.array([a * np.exp(1j * alpha), b * np.exp(1j * beta)])
                theta, phi = correlations._angles_of_qubit_column(v)
                assert 0.0 <= theta < math.pi and 0.0 <= phi <= 2 * math.pi
                if min(abs(v[0]), abs(v[1])) < 1e-12:
                    assert (theta, phi) == (0.0, 0.0)
                else:
                    overlap = abs(qubit_unitary(theta, phi)[:, 0].conj() @ v)
                    assert abs(overlap - 1.0) <= 1e-12, (a, b)


class TestGridTable:
    """The coarse stage scored from the grid table, against scoring each row from its angles."""

    @staticmethod
    def row_values(ctx, idx):
        x = correlations._grid_table()[0][idx].reshape(len(idx), -1)
        return ctx.values(correlations._qubit_unitaries(x))

    def test_full_two_qubit_grid_is_bitwise_per_row_scoring(self):
        ctx = correlations._GqdContext.of(random_density((2, 2), seed=41))
        idx = np.indices((81, 81)).reshape(2, -1).T
        assert np.array_equal(ctx.grid_values(idx), self.row_values(ctx, idx))

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_sampled_calls_are_bitwise_per_row_scoring(self, n):
        # Rows sorted by first basis, whose runs cross the call boundaries, then the
        # same rows unsorted; no call is larger than the minimizer's.
        ctx = correlations._GqdContext.of(random_density((2,) * n, seed=40 + n, rank=3))
        size = min(100, correlations._ELEMENT_BUDGET // 4**n)
        idx = np.random.default_rng(n).integers(0, 81, size=(3 * size + 7, n))
        idx[:, 0] //= 20  # few first bases, so that runs are long
        for rows in (idx[np.argsort(idx[:, 0], kind="stable")], idx):
            for k in range(0, len(rows), size):
                call = rows[k:k + size]
                assert np.array_equal(ctx.grid_values(call), self.row_values(ctx, call))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_minimization_is_bitwise_that_of_per_row_scoring(self, n):
        rho = random_density((2,) * n, seed=60 + n)
        ctx = correlations._GqdContext.of(rho)

        def objective(x):
            return ctx.values(correlations._qubit_unitaries(x))

        starts = correlations._structured_starts(rho)
        table = correlations._minimize_over_angles(objective, n, starts, 7, ctx.grid_values)
        rows = correlations._minimize_over_angles(objective, n, starts, 7)
        assert (table[0], table[2], table[3]) == (rows[0], rows[2], rows[3])
        assert np.array_equal(table[1], rows[1])

    def test_sampled_scores_return_to_drawn_order(self, monkeypatch):
        # The objective reads the first theta alone, so rows tie wherever it is the
        # largest grid theta.  A budget one row short of the sample ends the run after
        # the coarse stage, which must return the first such row in drawn order: the
        # first basis that the scoring order sorts by breaks none of these ties.
        monkeypatch.setattr(correlations, "_MAX_EVALUATIONS", 6560)
        pairs = correlations._grid_table()[0]
        calls = []

        def on_grid(idx):
            calls.append(idx[:, 0].copy())
            return -pairs[idx[:, 0], 0]

        value, x, evaluations, converged = correlations._minimize_over_angles(
            lambda rows: -rows[:, 0], 3, seed=11, on_grid=on_grid)
        drawn = np.random.default_rng(11).integers(0, 81, size=(6561, 3))[:6560]
        first = int(np.flatnonzero(pairs[drawn[:, 0], 0] == pairs[:, 0].max())[0])
        assert (evaluations, converged) == (6560, False)
        assert value == -pairs[:, 0].max()
        assert np.array_equal(x, pairs[drawn[first]].ravel())
        assert np.all(np.diff(np.concatenate(calls)) >= 0)  # scored sorted by first basis


def relative_entropy_reference(rho, unitaries):
    """S(rho || Phi(rho)) - sum_j S(rho_j || Phi_j(rho_j)) through the dephasing channels."""
    basis = ProductBasis(tuple(LocalBasis(u) for u in unitaries))
    value = relative_entropy(rho, dephase(rho, basis))
    for j, local in enumerate(basis.locals):
        rho_j = partial_trace(rho, [j])
        value -= relative_entropy(rho_j, dephase(rho_j, ProductBasis((local,))))
    return value


class TestContractionKernel:
    """``_GqdContext.values`` row by row against the relative-entropy definition."""

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 10_000), rank=st.integers(1, 32))
    def test_qubit_rows_match_relative_entropy_reference(self, n, seed, rank):
        rho = random_density((2,) * n, seed=seed, rank=min(rank, 2**n))
        rng = np.random.default_rng(seed)
        x = np.empty((4, 2 * n))
        x[:, 0::2] = rng.uniform(0, math.pi, (4, n))
        x[:, 1::2] = rng.uniform(0, 2 * math.pi, (4, n))
        x[1, 0::2] = 0.0  # the all-z row
        x[2, 2 * rng.integers(0, n)] = 0.0  # one qubit measured in z
        steps = 1e-5 * np.eye(2 * n)[rng.permutation(2 * n)[:2]]
        x = np.concatenate([x, x[1] + steps, x[1] - steps, x[0] + steps, x[0] - steps])
        unitaries = correlations._qubit_unitaries(x)
        values = correlations._GqdContext.of(rho).values(unitaries)
        assert values.shape == (len(x),)
        for value, row in zip(values, unitaries.swapaxes(0, 1)):
            assert abs(value - relative_entropy_reference(rho, row)) <= 1e-10

    @settings(derandomize=True, max_examples=18, deadline=None)
    @given(dims=st.sampled_from([(3, 2), (2, 3, 2), (3, 3)]), seed=st.integers(0, 10_000),
           rank=st.integers(1, 12))
    def test_qudit_rows_match_relative_entropy_reference(self, dims, seed, rank):
        total = int(np.prod(dims))
        rho = random_density(dims, seed=seed, rank=min(rank, total))
        rng = np.random.default_rng(seed)
        rows = [[haar_unitary(rng, d) for d in dims] for _ in range(3)]
        rows.append([np.eye(d) for d in dims])
        stacks = [np.stack([row[j] for row in rows]) for j in range(len(dims))]
        values = correlations._GqdContext.of(rho).values(stacks)
        assert values.shape == (len(rows),)
        for value, row in zip(values, rows):
            assert abs(value - relative_entropy_reference(rho, row)) <= 1e-10
        for strategy in ("fixed-z", "reduced-eigenbasis"):
            result = gqd(rho, strategy)
            expected = relative_entropy_reference(rho, [b.vectors for b in result.basis.locals])
            assert abs(result.value - expected) <= 1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 2)])
    def test_states_pair_with_bases_row_by_row(self, dims):
        # P states at P bases: the p-th value is state p's integrand at basis p
        total = int(np.prod(dims))
        rhos = [random_density(dims, rank=1 + k % total, seed=60 + k) for k in range(7)]
        rng = np.random.default_rng(total)
        bases = [[haar_unitary(rng, d) for d in dims] for _ in rhos]
        ctx = correlations._GqdContext(np.stack([r.matrix for r in rhos]),
                                       np.stack([r.eigenvalues for r in rhos]), dims)
        values = ctx.values([np.stack([b[j] for b in bases]) for j in range(len(dims))])
        assert values.shape == (len(rhos),)
        for value, rho, basis in zip(values, rhos, bases):
            expected = gqd_at_basis(rho, ProductBasis(tuple(LocalBasis(u) for u in basis)))
            assert abs(value - expected) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 2), (2, 3, 2), (3, 3)])
    def test_coordinates_rebuild_the_state(self, dims):
        for rank in (1, 2, int(np.prod(dims))):
            rho = random_density(dims, seed=sum(dims) + rank, rank=rank)
            coords = correlations._GqdContext.of(rho).coords
            assert coords.dtype == float and coords.shape == (1, np.prod(dims) ** 2)
            coords = coords.reshape([d * d for d in dims])
            bases = [correlations._operator_basis(d)[0] for d in dims]
            rebuilt = sum(
                coords[mu] * kron(*(g[m] for g, m in zip(bases, mu)))
                for mu in itertools.product(*(range(d * d) for d in dims))
            )
            assert np.abs(rebuilt - rho.matrix).max() <= 1e-13


def haar_unitary(rng, d=2):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestMinimizerProperties:
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(n=st.integers(2, 3), seed=st.integers(0, 10_000))
    def test_not_above_fixed_strategies(self, n, seed):
        rho = random_density((2,) * n, seed=seed, rank=1 + seed % (2**n))
        best = gqd(rho, "minimize").value
        for strategy in ("fixed-z", "fixed-x", "reduced-eigenbasis"):
            assert best <= gqd(rho, strategy).value + 1e-9

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(n=st.integers(2, 3), seed=st.integers(0, 10_000))
    def test_invariant_under_local_unitaries(self, n, seed):
        rng = np.random.default_rng(seed)
        rho = random_density((2,) * n, seed=seed, rank=1 + seed % (2**n))
        u = functools.reduce(kron, [haar_unitary(rng) for _ in range(n)])
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T, rho.dims)
        assert abs(gqd(rho, "minimize").value - gqd(rotated, "minimize").value) <= 1e-6

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(n=st.integers(2, 3), seed=st.integers(0, 10_000))
    def test_zero_on_classical_classical_states(self, n, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(2**n))
        rho = classical_state(probs, unitaries=[haar_unitary(rng) for _ in range(n)])
        assert gqd(rho, "minimize").value <= 1e-6


CENTRE = np.array([0.3, 1.1, 2.0, 4.5])  # off the coarse grid


def binary_entropy(p):
    q = 1.0 - p
    return -(p * np.log2(np.where(p > 0, p, 1.0)) + q * np.log2(np.where(q > 0, q, 1.0)))


class TestLockstepRefinement:
    """``_minimize_over_angles`` on cheap objectives, and its objective calls."""

    def test_smooth_minimum_is_reached_to_the_gradient_tolerance(self):
        value, x, _, converged = correlations._minimize_over_angles(
            lambda x: (1.0 - np.cos(x - CENTRE)).sum(axis=1), 2)
        assert converged
        assert abs(value) <= 1e-15
        assert np.abs(np.sin(x - CENTRE)).max() <= 1e-8  # the exact gradient at the returned row

    def test_kinked_minimum_converges_by_the_stall_rule(self, monkeypatch):
        # The entropy of outcome probabilities sin^2(t / 2) has a kink where they vanish,
        # as at the minimum for a pure state; the last term is rounding-level noise.
        def objective(x):
            entropy = binary_entropy(np.sin(0.5 * (x - CENTRE)) ** 2).sum(axis=1)
            return 1.0 + entropy + 1e-14 * np.sin(1e7 * x.sum(axis=1))

        value, _, _, converged = correlations._minimize_over_angles(objective, 2)
        assert converged
        assert abs(value - 1.0) <= 1e-12
        monkeypatch.setattr(correlations, "_STALL_GTOL", 0.0)
        assert not correlations._minimize_over_angles(objective, 2)[3]

    def test_budget_running_out_in_a_line_search(self, monkeypatch):
        calls = []

        def objective(x):
            calls.append((x.copy(), (1.0 - np.cos(x - CENTRE[:2])).sum(axis=1)))
            return calls[-1][1]

        # 81 grid rows, a round at the 8 starts (8 x 5 rows), one trial round, and 39
        # rows: one short of the next round.
        monkeypatch.setattr(correlations, "_MAX_EVALUATIONS", 81 + 2 * 8 * 5 + 39)
        value, x, evaluations, converged = correlations._minimize_over_angles(objective, 1)
        assert not converged
        assert evaluations == sum(len(rows) for rows, _ in calls) == 81 + 2 * 8 * 5
        assert [len(rows) for rows, _ in calls] == [81, 40, 40]
        # Some trial point (every fifth row) lies above its start: that start is backtracking.
        assert (calls[2][1][::5] > calls[1][1][::5]).any()
        best = min(min(values) for _, values in calls)
        assert value == best
        assert objective(x[None])[0] == best

    def test_every_objective_call_stays_within_the_element_budget(self, monkeypatch):
        rows = []
        values, grid_values = correlations._GqdContext.values, correlations._GqdContext.grid_values

        def counting(self, unitaries):
            rows.append(len(unitaries[0]))
            return values(self, unitaries)

        def counting_grid(self, idx):
            rows.append(len(idx))
            return grid_values(self, idx)

        monkeypatch.setattr(correlations._GqdContext, "values", counting)
        monkeypatch.setattr(correlations._GqdContext, "grid_values", counting_grid)
        result = gqd(random_density((2,) * 6, seed=21), "minimize")
        assert result.converged
        assert max(rows) * 4**6 <= correlations._ELEMENT_BUDGET
        assert sum(rows) == result.evaluations
        assert result.evaluations > 6561 + 4  # refinement rounds were scored too

    def test_import_does_not_load_scipy_optimize(self):
        src = str(Path(correlations.__file__).resolve().parents[1])
        code = "import sys, gqd, gqd.cli; print('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_import_builds_no_grid_table(self):
        # the coarse grid's coefficient table is built by the first minimization, not at import
        src = str(Path(correlations.__file__).resolve().parents[1])
        code = "import gqd, gqd.cli; print(gqd.correlations._grid_table.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "0"

    def test_import_does_not_load_scipy_sparse_linalg(self):
        # the ground states are solved by the package's own Lanczos, not by ARPACK
        src = str(Path(correlations.__file__).resolve().parents[1])
        code = "import sys, gqd, gqd.cli; print('scipy.sparse.linalg' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestGqdResult:
    def test_gqd_result_validation(self):
        with pytest.raises(ValueError):
            GqdResult(value=-1.0, basis=all_z(2), strategy="fixed-z",
                      converged=True, evaluations=1)
        with pytest.raises(ValueError):
            GqdResult(value=0.5, basis=all_z(2), strategy="nope",
                      converged=True, evaluations=1)
