"""Oracle states: GHZ, Werner-GHZ with closed-form global discord, Bell/Werner, random states."""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import DensityOperator, shannon_entropy, validate_dims

_MU_ONE_EPS = 1e-15  # (1-mu) log2 (1-mu) is a removable singularity at mu=1


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {mu}")
    return mu


def _xlog2(x: float) -> float:
    return float(x) * float(np.log2(x)) if x > _MU_ONE_EPS else 0.0


def ghz(n: int) -> DensityOperator:
    """Projector onto (|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError(f"GHZ state needs at least 2 qubits, got {n}")
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return DensityOperator(np.outer(v, v.conj()), (2,) * n)


def bell() -> DensityOperator:
    """The |Phi+> = (|00> + |11>)/sqrt(2) projector."""
    return ghz(2)


def werner(mu: float) -> DensityOperator:
    """Two-qubit Werner state (1-mu)/4 * I + mu |Phi+><Phi+|."""
    mu = _check_mu(mu)
    m = (1.0 - mu) / 4.0 * np.eye(4, dtype=complex) + mu * bell().matrix
    return DensityOperator(m, (2, 2))


def werner_ghz(mu: float) -> DensityOperator:
    """Three-qubit Werner-GHZ state (1-mu)/8 * I + mu |GHZ><GHZ|."""
    mu = _check_mu(mu)
    m = (1.0 - mu) / 8.0 * np.eye(8, dtype=complex) + mu * ghz(3).matrix
    return DensityOperator(m, (2, 2, 2))


def werner_ghz_gqd_analytic(mu: float) -> float:
    """Closed-form global discord of the Werner-GHZ state, in bits.

    -1/4 (1+3mu) log2(1+3mu) + 1/8 (1-mu) log2(1-mu) + 1/8 (1+7mu) log2(1+7mu)
    """
    mu = _check_mu(mu)
    return (
        -0.25 * _xlog2(1.0 + 3.0 * mu)
        + 0.125 * _xlog2(1.0 - mu)
        + 0.125 * _xlog2(1.0 + 7.0 * mu)
    )


def werner_ghz_entropy_analytic(mu: float) -> float:
    """Closed-form S(rho) of the Werner-GHZ state: 3 - 7/8 (1-mu)log2(1-mu) - 1/8 (1+7mu)log2(1+7mu)."""
    mu = _check_mu(mu)
    return 3.0 - 0.875 * _xlog2(1.0 - mu) - 0.125 * _xlog2(1.0 + 7.0 * mu)


def werner_ghz_dephased_entropy_analytic(mu: float) -> float:
    """Closed-form S(Phi(rho)) after the all-z measurement: 3 - 3/4 (1-mu)log2(1-mu) - 1/4 (1+3mu)log2(1+3mu)."""
    mu = _check_mu(mu)
    return 3.0 - 0.75 * _xlog2(1.0 - mu) - 0.25 * _xlog2(1.0 + 3.0 * mu)


def ghz_dephased_spectrum(theta2: float, theta3: float) -> np.ndarray:
    """Eigenvalues of the dephased 3-qubit GHZ state at angles (0, theta2, theta3), phases 0.

    Four doubly degenerate values, returned in pair order; they sum to 1.
    """
    c2, s2 = np.cos(0.5 * theta2) ** 2, np.sin(0.5 * theta2) ** 2
    c3, s3 = np.cos(0.5 * theta3) ** 2, np.sin(0.5 * theta3) ** 2
    l1 = 0.5 * c2 * c3
    l2 = 0.5 * c2 * s3
    l3 = 0.5 * s2 * c3
    l4 = 0.5 * s2 * s3
    return np.array([l1, l2, l3, l4, l4, l3, l2, l1])


def ghz_surface(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropy of the dephased GHZ spectrum over a resolution x resolution (theta2, theta3) grid.

    Angles are sampled on [0, pi) including the 0 endpoint, so the boundary
    minimum at (0, 0) is on the grid.  Returns (theta2s, theta3s, values)
    with values[i, j] at (theta2s[i], theta3s[j]).
    """
    if resolution < 2:
        raise ValueError("grid needs at least 2 points per axis")
    t = np.linspace(0.0, np.pi, resolution, endpoint=False)
    # the eight eigenvalues on a contiguous last axis, so each row sums as in one call
    spectra = np.stack(list(ghz_dephased_spectrum(t[:, None], t[None, :])), axis=-1)
    return t, t, shannon_entropy(spectra)


def random_density(
    dims: "tuple[int, ...] | list[int]", rank: int | None = None, seed: int = 0
) -> DensityOperator:
    """Seeded random state rho = G G^dagger / Tr(G G^dagger), G complex Gaussian total x rank."""
    dims = validate_dims(dims)
    total = math.prod(dims)
    return DensityOperator(random_density_stack(total, [total if rank is None else rank],
                                                [seed])[0], dims)


def random_density_stack(total: int, ranks: Sequence[int], seeds: Sequence[int]) -> np.ndarray:
    """Unvalidated (P, total, total) stack of ``random_density`` matrices, one per (rank, seed).

    Each seed's generator draws the (2, total, rank) normals, real then imaginary parts
    of G, in one call; G is zero-padded to total columns, so one matmul forms every
    G G^dagger, bitwise the unpadded product.
    """
    g = np.zeros((len(seeds), total, total), dtype=complex)
    for k, (rank, seed) in enumerate(zip(ranks, seeds)):
        if not 1 <= rank <= total:
            raise ValueError(f"rank must lie in [1, {total}], got {rank}")
        z = np.random.default_rng(seed).standard_normal((2, total, rank))
        g[k, :, :rank] = z[0] + 1j * z[1]
    m = g @ g.conj().swapaxes(-1, -2)
    m /= m.trace(axis1=-2, axis2=-1).real[:, None, None]
    return m
