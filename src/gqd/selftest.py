"""Built-in verification suites behind the ``selftest`` CLI command.

Four suites: non-negativity of the global discord integrand at random
states and bases, monotonicity of relative entropy under partial trace,
idempotence of the dephasing channel, and agreement of independently
computed quantities (analytic oracles and dual formulas).

Calls go through module attributes on purpose, so a corrupted primitive
(e.g. a patched entropy) is caught rather than silently inlined.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import core, correlations, measurement, states


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    total: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, detail: Callable[[], str]) -> None:
        """Count one case; ``detail`` is formatted only for the first 5 failures."""
        self.total += 1
        if ok:
            self.passed += 1
        elif len(self.failures) < 5:
            self.failures.append(detail())

    @property
    def ok(self) -> bool:
        return self.passed == self.total


@dataclass
class SelftestReport:
    seed: int
    count: int
    suites: list[SuiteResult]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def render(self) -> str:
        lines = [f"selftest seed={self.seed} count={self.count}"]
        for s in self.suites:
            status = "ok" if s.ok else "FAIL"
            lines.append(f"  {s.name}: {s.passed}/{s.total} {status}")
            for f in s.failures:
                lines.append(f"    failing case: {f}")
        lines.append("selftest: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


def _random_basis_angles(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    return [
        (float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi)))
        for _ in range(n)
    ]


def _product_basis(angles: list[tuple[float, float]]) -> measurement.ProductBasis:
    return measurement.ProductBasis(
        tuple(
            measurement.qubit_basis(measurement.QubitBasisAngles(t, p)) for t, p in angles
        )
    )


def _suite_non_negativity(rng: np.random.Generator, count: int) -> SuiteResult:
    result = SuiteResult("non-negativity")
    for i in range(count):
        n = int(rng.integers(2, 4))
        total = 2**n
        rank = int(rng.integers(1, total + 1))
        state_seed = int(rng.integers(0, 2**32))
        rho = states.random_density((2,) * n, rank=rank, seed=state_seed)
        angles = _random_basis_angles(rng, n)
        value = correlations.gqd_at_basis(rho, _product_basis(angles))
        result.record(
            value >= -1e-9,
            lambda: f"state_seed={state_seed} n={n} rank={rank} angles={angles} value={value}",
        )
    return result


def _suite_monotonicity(rng: np.random.Generator, count: int) -> SuiteResult:
    result = SuiteResult("relative-entropy-monotonicity")
    for i in range(count):
        n = int(rng.integers(2, 4))
        seed_a = int(rng.integers(0, 2**32))
        seed_b = int(rng.integers(0, 2**32))
        rho = states.random_density((2,) * n, seed=seed_a)
        sigma = states.random_density((2,) * n, seed=seed_b)
        full = core.relative_entropy(rho, sigma)
        part = core.relative_entropy(
            core.partial_trace(rho, [0]), core.partial_trace(sigma, [0])
        )
        result.record(
            full >= part - 1e-9 and full >= -1e-10,
            lambda: f"seeds=({seed_a},{seed_b}) n={n} full={full} reduced={part}",
        )
    return result


def _suite_idempotence(rng: np.random.Generator, count: int) -> SuiteResult:
    result = SuiteResult("dephasing-idempotence")
    for i in range(count):
        n = int(rng.integers(2, 4))
        state_seed = int(rng.integers(0, 2**32))
        rho = states.random_density((2,) * n, seed=state_seed)
        angles = _random_basis_angles(rng, n)
        basis = _product_basis(angles)
        once = measurement.dephase(rho, basis)
        twice = measurement.dephase(once, basis)
        err = np.abs(twice.matrix - once.matrix).max()
        result.record(err <= 1e-10, lambda: f"state_seed={state_seed} angles={angles} error={err}")
    return result


def _suite_oracle_equality(rng: np.random.Generator, count: int) -> SuiteResult:
    result = SuiteResult("oracle-equality")
    # mutual information == relative entropy to the product of marginals
    for i in range(max(count // 4, 10)):
        state_seed = int(rng.integers(0, 2**32))
        rho = states.random_density((2, 2), seed=state_seed)
        rho_a = core.partial_trace(rho, [0])
        rho_b = core.partial_trace(rho, [1])
        info = (
            core.von_neumann_entropy(rho_a)
            + core.von_neumann_entropy(rho_b)
            - core.von_neumann_entropy(rho)
        )
        rel = core.relative_entropy(rho, core.kron(rho_a.matrix, rho_b.matrix))
        result.record(
            abs(info - rel) <= 1e-9,
            lambda: f"mutual-info state_seed={state_seed} I={info} rel={rel}",
        )

    # closed-form Werner-GHZ discord against the all-z evaluation
    for mu in np.linspace(0.0, 1.0, 21):
        analytic = states.werner_ghz_gqd_analytic(float(mu))
        numeric = correlations.gqd_at_basis(states.werner_ghz(float(mu)), measurement.all_z(3))
        result.record(
            abs(analytic - numeric) <= 1e-10, lambda: f"werner-ghz mu={mu} {analytic} vs {numeric}"
        )

    # dephased GHZ spectrum formula against the full channel + eigensolver
    for t2, t3 in ((0.0, 0.0), (0.7, 1.9), (math.pi / 2, math.pi / 2), (2.1, 0.3)):
        predicted = np.sort(states.ghz_dephased_spectrum(t2, t3))
        basis = _product_basis([(0.0, 0.0), (t2, 0.0), (t3, 0.0)])
        dephased = measurement.dephase(states.ghz(3), basis)
        computed = core.eig_hermitian(dephased).eigenvalues
        err = np.abs(predicted - computed).max()
        result.record(err <= 1e-10, lambda: f"ghz-spectrum angles=({t2},{t3}) error={err}")

    # correlation-loss form == relative-entropy form at random bases
    for i in range(max(count // 4, 10)):
        state_seed = int(rng.integers(0, 2**32))
        rho = states.random_density((2, 2), seed=state_seed)
        angles = _random_basis_angles(rng, 2)
        basis = _product_basis(angles)
        relative_form = correlations.gqd_at_basis(rho, basis)
        dephased = measurement.dephase(rho, basis)
        loss_form = correlations.mutual_information(rho, [0]) - correlations.mutual_information(
            dephased, [0]
        )
        result.record(
            abs(relative_form - loss_form) <= 1e-9,
            lambda: f"dual-form state_seed={state_seed} angles={angles} "
            f"{relative_form} vs {loss_form}",
        )

    return result


def run_selftest(seed: int = 0, count: int = 200) -> SelftestReport:
    """Run every suite with a deterministic seed; report is byte-stable per (seed, count)."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    suites = [
        _suite_non_negativity(rng, count),
        _suite_monotonicity(rng, count),
        _suite_idempotence(rng, max(count // 2, 10)),
        _suite_oracle_equality(rng, count),
    ]
    return SelftestReport(seed=seed, count=count, suites=suites)
