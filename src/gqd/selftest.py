"""Built-in verification suites behind the ``selftest`` CLI command.

Four suites: non-negativity of the global discord integrand at random
states and bases, monotonicity of relative entropy under partial trace,
idempotence of the dephasing channel, and agreement of independently
computed quantities (analytic oracles and dual formulas).

Each suite draws its cases one by one, then generates, validates and scores
them in stacks of at most 1,024 states, one call per quantity, and records
the results in draw order.  A failing case names the seed that
``states.random_density`` reproduces it from.  Calls go through module
attributes on purpose, so a corrupted primitive (e.g. a patched entropy) is
caught rather than silently inlined.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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


def _scored(draw: Callable[[], tuple], count: int,
            score: Callable[[int, list[tuple]], np.ndarray]) -> Iterator[tuple[tuple, object]]:
    """(case, its scores) for ``count`` cases from ``draw()``, in draw order.

    A case's first field is its qubit count n, 2 or 3.  Cases are drawn
    ``correlations._states_per_call(3)`` = 1,024 at a time, so a block's cases of each n
    make one stack within that n's cap and memory stays bounded at any count.
    ``score(n, cases)`` returns one score, or one row of scores, per case of the stack.
    """
    block = correlations._states_per_call(3)
    for start in range(0, count, block):
        cases = [draw() for _ in range(min(block, count - start))]
        ns = np.array([c[0] for c in cases])
        scores: list = [None] * len(cases)
        for n in np.unique(ns).tolist():
            stack = np.flatnonzero(ns == n).tolist()
            for i, row in zip(stack, score(n, [cases[i] for i in stack]).tolist()):
                scores[i] = row
        yield from zip(cases, scores)


def _random_states(n: int, ranks: Sequence[int],
                   seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Validated n-qubit ``random_density`` matrices of (rank, seed) pairs, and their spectra."""
    return core.validate_densities(states.random_density_stack(2**n, ranks, seeds))


def _unitaries(angles: Sequence[Sequence[tuple[float, float]]]) -> np.ndarray:
    """(n, P, 2, 2) qubit unitaries of P cases' n (theta, phi) pairs each."""
    a = np.array(angles)
    return measurement.qubit_unitary(a[..., 0], a[..., 1]).swapaxes(0, 1)


def _mutual_information(m: np.ndarray) -> np.ndarray:
    """S(A) + S(B) - S(AB) of each two-qubit state of a (P, 4, 4) stack."""
    a, b = (core.trace_out(m, (2, 2), [q]) for q in (0, 1))
    return core.von_neumann_entropy(a) + core.von_neumann_entropy(b) - core.von_neumann_entropy(m)


def _suite_non_negativity(rng: np.random.Generator, count: int) -> SuiteResult:
    def draw() -> tuple:
        n = int(rng.integers(2, 4))
        rank = int(rng.integers(1, 2**n + 1))
        return n, rank, int(rng.integers(0, 2**32)), _random_basis_angles(rng, n)

    def score(n: int, cases: list[tuple]) -> np.ndarray:
        matrices, spectra = _random_states(n, [c[1] for c in cases], [c[2] for c in cases])
        ctx = correlations._GqdContext(matrices, spectra, (2,) * n)
        return ctx.values(list(_unitaries([c[3] for c in cases])))

    result = SuiteResult("non-negativity")
    for (n, rank, state_seed, angles), value in _scored(draw, count, score):
        result.record(
            value >= -1e-9,
            lambda: f"state_seed={state_seed} n={n} rank={rank} angles={angles} value={value}",
        )
    return result


def _suite_monotonicity(rng: np.random.Generator, count: int) -> SuiteResult:
    def draw() -> tuple:
        return (int(rng.integers(2, 4)), int(rng.integers(0, 2**32)),
                int(rng.integers(0, 2**32)))

    def score(n: int, cases: list[tuple]) -> np.ndarray:
        ranks, dims = [2**n] * len(cases), (2,) * n
        rho = _random_states(n, ranks, [c[1] for c in cases])[0]
        sigma = _random_states(n, ranks, [c[2] for c in cases])[0]
        full = core.relative_entropy(rho, sigma)
        part = core.relative_entropy(core.trace_out(rho, dims, [0]),
                                     core.trace_out(sigma, dims, [0]))
        return np.stack([full, part], axis=-1)

    result = SuiteResult("relative-entropy-monotonicity")
    for (n, seed_a, seed_b), (full, part) in _scored(draw, count, score):
        result.record(
            full >= part - 1e-9 and full >= -1e-10,
            lambda: f"seeds=({seed_a},{seed_b}) n={n} full={full} reduced={part}",
        )
    return result


def _suite_idempotence(rng: np.random.Generator, count: int) -> SuiteResult:
    def draw() -> tuple:
        n = int(rng.integers(2, 4))
        return n, int(rng.integers(0, 2**32)), _random_basis_angles(rng, n)

    def score(n: int, cases: list[tuple]) -> np.ndarray:
        rho = _random_states(n, [2**n] * len(cases), [c[1] for c in cases])[0]
        u = core.kron(*_unitaries([c[2] for c in cases]))
        once = core.validate_densities(measurement.dephase_matrices(rho, u))[0]
        twice = core.validate_densities(measurement.dephase_matrices(once, u))[0]
        return np.abs(twice - once).max(axis=(-2, -1))

    result = SuiteResult("dephasing-idempotence")
    for (_, state_seed, angles), err in _scored(draw, count, score):
        result.record(err <= 1e-10, lambda: f"state_seed={state_seed} angles={angles} error={err}")
    return result


def _suite_oracle_equality(rng: np.random.Generator, count: int) -> SuiteResult:
    result = SuiteResult("oracle-equality")
    draws = max(count // 4, 10)

    # mutual information == relative entropy to the product of marginals
    def mutual_info(_: int, cases: list[tuple]) -> np.ndarray:
        rho = _random_states(2, [4] * len(cases), [c[1] for c in cases])[0]
        marginals = (core.trace_out(rho, (2, 2), [q]) for q in (0, 1))
        rel = core.relative_entropy(rho, core.kron(*marginals))
        return np.stack([_mutual_information(rho), rel], axis=-1)

    def seed() -> tuple:
        return 2, int(rng.integers(0, 2**32))

    for (_, state_seed), (info, rel) in _scored(seed, draws, mutual_info):
        result.record(abs(info - rel) <= 1e-9,
                      lambda: f"mutual-info state_seed={state_seed} I={info} rel={rel}")

    # closed-form Werner-GHZ discord against the all-z evaluation
    mus = np.linspace(0.0, 1.0, 21)
    werner = [states.werner_ghz(float(mu)) for mu in mus]
    ctx = correlations._GqdContext(np.stack([w.matrix for w in werner]),
                                   np.stack([w.eigenvalues for w in werner]), (2, 2, 2))
    numeric = ctx.values([b.vectors[None] for b in measurement.all_z(3).locals]).tolist()
    for mu, num in zip(mus, numeric):
        analytic = states.werner_ghz_gqd_analytic(float(mu))
        result.record(
            abs(analytic - num) <= 1e-10, lambda: f"werner-ghz mu={mu} {analytic} vs {num}"
        )

    # dephased GHZ spectrum formula against the full channel + eigensolver
    angles = ((0.0, 0.0), (0.7, 1.9), (math.pi / 2, math.pi / 2), (2.1, 0.3))
    t2, t3 = np.array(angles).T
    predicted = np.sort(states.ghz_dephased_spectrum(t2, t3).T)
    u = core.kron(*_unitaries([[(0.0, 0.0), (a, 0.0), (b, 0.0)] for a, b in angles]))
    dephased = core.validate_densities(measurement.dephase_matrices(states.ghz(3).matrix, u))[0]
    errors = np.abs(predicted - core.eig_hermitian(dephased).eigenvalues).max(-1)
    for (a, b), err in zip(angles, errors):
        result.record(err <= 1e-10, lambda: f"ghz-spectrum angles=({a},{b}) error={err}")

    # correlation-loss form == relative-entropy form at random bases
    def dual_forms(_: int, cases: list[tuple]) -> np.ndarray:
        rho, spectra = _random_states(2, [4] * len(cases), [c[1] for c in cases])
        u = _unitaries([c[2] for c in cases])
        relative_form = correlations._GqdContext(rho, spectra, (2, 2)).values(list(u))
        dephased = core.validate_densities(measurement.dephase_matrices(rho, core.kron(*u)))[0]
        loss_form = _mutual_information(rho) - _mutual_information(dephased)
        return np.stack([relative_form, loss_form], axis=-1)

    def seed_and_angles() -> tuple:
        return 2, int(rng.integers(0, 2**32)), _random_basis_angles(rng, 2)

    for (_, state_seed, angles), (rel, loss) in _scored(seed_and_angles, draws, dual_forms):
        result.record(
            abs(rel - loss) <= 1e-9,
            lambda: f"dual-form state_seed={state_seed} angles={angles} {rel} vs {loss}",
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
