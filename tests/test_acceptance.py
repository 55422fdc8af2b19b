"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""
import math
import time

import numpy as np
import pytest

from gqd import cli
from gqd.ashkin_teller import (
    ChainSpec,
    SpinGroup,
    build_hamiltonian,
    default_delta_grid,
    gqd_scan,
    ground_state,
    pairwise_discord_scan,
    parity_operators,
    zero_crossings,
)
from gqd.core import kron, partial_trace, relative_entropy, von_neumann_entropy
from gqd.correlations import gqd, gqd_at_basis, mutual_information, symmetric_discord
from gqd.measurement import ProductBasis, QubitBasisAngles, all_z, dephase, qubit_basis
from gqd.states import ghz, ghz_surface, random_density, werner_ghz, werner_ghz_gqd_analytic


def report(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_product_basis(rng, n):
    return ProductBasis(
        tuple(
            qubit_basis(
                QubitBasisAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            )
            for _ in range(n)
        )
    )


def test_criterion_1_ghz_exactness():
    start = time.monotonic()
    result = gqd(ghz(3), "minimize")
    minimize_ok = abs(result.value - 1.0) <= 1e-6

    _, _, surface = ghz_surface(129)
    surface_ok = (
        abs(surface[0, 0] - 1.0) <= 1e-12
        and np.unravel_index(np.argmin(surface), surface.shape) == (0, 0)
    )
    elapsed = time.monotonic() - start
    report(
        1,
        "GHZ global discord is exactly 1 and the surface minimum sits at the origin",
        minimize_ok and surface_ok and elapsed < 60.0,
        f"value={result.value:.9f}, surface_min={surface.min():.9f}, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_werner_ghz_closed_form():
    start = time.monotonic()
    mus = np.linspace(0.0, 1.0, 101)
    fixed_err = max(
        abs(gqd_at_basis(werner_ghz(float(m)), all_z(3)) - werner_ghz_gqd_analytic(float(m)))
        for m in mus
    )
    minimized = [gqd(werner_ghz(float(m)), "minimize").value for m in mus]
    min_err = max(abs(v - werner_ghz_gqd_analytic(float(m))) for v, m in zip(minimized, mus))
    endpoint_ok = abs(minimized[0]) <= 1e-6 and abs(minimized[-1] - 1.0) <= 1e-6
    elapsed = time.monotonic() - start
    report(
        2,
        "Werner-GHZ closed form reproduced at fixed basis and by full minimization",
        fixed_err <= 1e-10 and min_err <= 1e-3 and endpoint_ok and elapsed < 300.0,
        f"fixed_err={fixed_err:.2e}, min_err={min_err:.2e}, {elapsed:.1f}s < 300s",
    )


def test_criterion_3_non_negativity_theorem():
    start = time.monotonic()
    rng = np.random.default_rng(20260808)
    worst = math.inf
    for i in range(1000):
        n = 2 + i % 3
        rank = 1 + i % (2**n)
        rho = random_density((2,) * n, rank=rank, seed=i)
        for _ in range(5):
            worst = min(worst, gqd_at_basis(rho, random_product_basis(rng, n)))
    elapsed = time.monotonic() - start
    report(
        3,
        "global discord integrand non-negative over 1000 states x 5 bases",
        worst >= -1e-9 and elapsed < 300.0,
        f"worst={worst:.2e}, {elapsed:.1f}s < 300s",
    )


def test_criterion_4_relative_entropy_laws():
    non_negative = True
    monotone = True
    for i in range(200):
        n = 2 + i % 2
        rho = random_density((2,) * n, seed=3000 + 2 * i)
        sigma = random_density((2,) * n, seed=3000 + 2 * i + 1)
        full = relative_entropy(rho, sigma)
        reduced = relative_entropy(partial_trace(rho, [0]), partial_trace(sigma, [0]))
        non_negative &= full >= -1e-10 and reduced >= -1e-10
        monotone &= full >= reduced - 1e-9

    identity = True
    for i in range(200):
        rho = random_density((2, 2), seed=5000 + i, rank=1 + i % 4)
        a = partial_trace(rho, [0])
        b = partial_trace(rho, [1])
        lhs = mutual_information(rho, [0])
        rhs = relative_entropy(rho, kron(a.matrix, b.matrix))
        identity &= abs(lhs - rhs) <= 1e-9
    report(
        4,
        "relative entropy non-negative, monotone under partial trace, and "
        "equals mutual information against the product of marginals",
        non_negative and monotone and identity,
    )


def test_criterion_5_bipartite_reduction():
    agree = True
    worst = 0.0
    for i in range(100):
        rho = random_density((2, 2), seed=7000 + i, rank=1 + i % 4)
        diff = abs(gqd(rho, "minimize").value - symmetric_discord(rho))
        worst = max(worst, diff)
        agree &= diff <= 1e-6

    # dual-form agreement at explicitly sampled bases (row by row on the
    # optimizer's own objective in tests/test_correlations.py)
    rng = np.random.default_rng(99)
    forms = True
    for i in range(100):
        rho = random_density((2, 2), seed=8000 + i)
        basis = random_product_basis(rng, 2)
        loss_form = mutual_information(rho, [0]) - mutual_information(dephase(rho, basis), [0])
        forms &= abs(loss_form - gqd_at_basis(rho, basis)) <= 1e-9
    report(
        5,
        "two-qubit global discord equals symmetric discord; both discord forms agree",
        agree and forms,
        f"max |gqd - symmetric| = {worst:.2e}",
    )


def test_criterion_6_ashkin_teller_structure():
    ok = True
    details = []
    for sites in (2, 3):
        for delta in (0.6, 1.0):
            h = build_hamiltonian(ChainSpec(sites=sites, beta=1.0, delta=delta))
            p1, p2 = parity_operators(sites)
            commute = max(np.abs(h @ p1 - p1 @ h).max(), np.abs(h @ p2 - p2 @ h).max())
            gs = ground_state(h)
            par1 = np.real(gs.vector.conj() @ p1 @ gs.vector)
            par2 = np.real(gs.vector.conj() @ p2 @ gs.vector)

            dim = h.shape[0]

            def sector_minimum(s1, s2):
                proj = (np.eye(dim) + s1 * p1) @ (np.eye(dim) + s2 * p2) / 4.0
                w, u = np.linalg.eigh(proj)
                cols = u[:, w > 0.5]
                return np.linalg.eigvalsh(cols.conj().T @ h @ cols)[0]

            split = abs(sector_minimum(+1, -1) - sector_minimum(-1, +1))
            ok &= commute <= 1e-10 and abs(par1 - 1) <= 1e-9 and abs(par2 - 1) <= 1e-9
            ok &= split <= 1e-9
            details.append(f"M={sites} d={delta}: comm={commute:.1e} split={split:.1e}")
    report(6, "Hamiltonian symmetry structure (parities, Q=0 ground sector, Q1=Q3)",
           ok, "; ".join(details))


def test_criterion_7_pairwise_null_result():
    template = ChainSpec(sites=3, beta=1.0, delta=1.0)
    grid = default_delta_grid()

    same = pairwise_discord_scan(template, grid, "same-site")
    same_ok = np.abs(same.values).max() <= 1e-8

    neighbor = pairwise_discord_scan(template, grid, "neighbor-sigma")
    positive = (neighbor.values > 0).all()
    crossings = zero_crossings(neighbor.deltas[1:-1], neighbor.derivative, lo=0.9, hi=1.1)
    report(
        7,
        "same-site pair discord vanishes for every coupling; neighbor pair discord "
        "is positive and featureless at the critical point",
        same_ok and positive and not crossings,
        f"max same-site = {np.abs(same.values).max():.2e}, neighbor crossings = {crossings}",
    )


def test_criterion_8_qpt_detection():
    start = time.monotonic()
    grid = default_delta_grid()
    ok = True
    details = []
    for sites in (3, 4):
        template = ChainSpec(sites=sites, beta=1.0, delta=1.0)
        x_scan = gqd_scan(template, grid, SpinGroup("quartet"), "fixed-x")
        x_cross = zero_crossings(x_scan.deltas[1:-1], x_scan.derivative, lo=0.85, hi=1.15)
        z_scan = gqd_scan(template, grid, SpinGroup("quartet"), "fixed-z")
        z_cross = zero_crossings(z_scan.deltas[1:-1], z_scan.derivative, lo=0.85, hi=1.15)
        ok &= len(x_cross) == 1 and len(z_cross) == 0
        details.append(f"N={2*sites}: x-basis extremum at {x_cross}, z-basis {z_cross}")
    elapsed = time.monotonic() - start
    report(
        8,
        "x-basis quartet discord has exactly one derivative zero-crossing near the "
        "critical coupling for N=6 and N=8; the minimizing z basis shows none",
        ok and elapsed < 600.0,
        "; ".join(details) + f", {elapsed:.1f}s < 600s",
    )


def test_optional_iterative_substitute():
    # Optional stand-in for the N=16 sextet/octet figures, which are out of the
    # desk budget: the sparse lowest-eigenpair solver at N=12 must locate the
    # same extremum for quartets and sextets.
    grid = np.round(np.arange(0.85, 1.1501, 0.02), 10)
    template = ChainSpec(sites=6, beta=1.0, delta=1.0)
    ok = True
    details = []
    for kind in ("quartet", "sextet"):
        scan = gqd_scan(template, grid, SpinGroup(kind), "fixed-x")
        roots = zero_crossings(scan.deltas[1:-1], scan.derivative, lo=0.85, hi=1.15)
        ok &= len(roots) == 1
        details.append(f"{kind}: {roots}")
    report("optional", "iterative-solver N=12 quartet/sextet extremum", ok, "; ".join(details))


def test_paper_size_sextet_octet():
    # The paper's own system size: N=16 spins (8 sites), sextet and octet
    # discord in the sigma-x basis, one derivative extremum near delta = 1.
    grid = np.round(np.arange(0.85, 1.1501, 0.02), 10)
    template = ChainSpec(sites=8, beta=1.0, delta=1.0)
    ok = True
    details = []
    for kind in ("sextet", "octet"):
        scan = gqd_scan(template, grid, SpinGroup(kind), "fixed-x")
        roots = zero_crossings(scan.deltas[1:-1], scan.derivative, lo=0.85, hi=1.15)
        ok &= len(roots) == 1
        details.append(f"{kind}: {roots}")
    report("optional", "paper-size N=16 sextet/octet extremum", ok, "; ".join(details))


def test_criterion_9_determinism(tmp_path, capsys):
    commands = {
        "surface": ["ghz-surface", "--resolution", "16"],
        "werner": ["werner-ghz", "--points", "5", "--mode", "both", "--seed", "1"],
        "scan": [
            "at-scan", "--sites", "2", "--strategy", "fixed-x",
            "--delta-min", "0.9", "--delta-max", "1.1",
            "--grid-step", "0.05", "--fine-step", "0",
        ],
        "discord": ["discord", "bell", "--seed", "2"],
        "selftest": ["selftest", "--count", "40", "--seed", "7"],
    }
    ok = True
    for name, args in commands.items():
        outputs = []
        for attempt in range(2):
            path = tmp_path / f"{name}_{attempt}.out"
            code = cli.main(args + ["--out", str(path)])
            capsys.readouterr()
            assert code == 0, name
            outputs.append(path.read_bytes())
        ok &= outputs[0] == outputs[1]
    with capsys.disabled():
        report(9, "every command is byte-deterministic for a fixed seed", ok)
