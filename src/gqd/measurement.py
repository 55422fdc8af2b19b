"""Local projective measurement bases and non-selective dephasing channels."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEGENERACY_GAP,
    DensityOperator,
    HERMITIAN_TOL,
    basis_probabilities,
    eig_hermitian,
    kron,
    partial_trace,
)


@dataclass(frozen=True)
class QubitBasisAngles:
    """Bloch parameterization of a single-qubit basis: theta in [0, pi), phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta < math.pi:
            raise ValueError(f"theta must lie in [0, pi), got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class LocalBasis:
    """Complete orthonormal rank-1 basis of one subsystem.

    Stored as a unitary whose columns are the basis vectors; the projector
    list is derived.
    """

    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"basis vectors must form a square matrix, got {v.shape}")
        err = np.abs(v.conj().T @ v - np.eye(v.shape[0])).max()
        if err > HERMITIAN_TOL:
            raise ValueError(f"basis columns are not orthonormal (error {err:.3e})")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def projectors(self) -> list[np.ndarray]:
        return [np.outer(self.vectors[:, k], self.vectors[:, k].conj()) for k in range(self.dim)]


@dataclass(frozen=True)
class ProductBasis:
    """One LocalBasis per subsystem; drives the product dephasing channel."""

    locals: tuple[LocalBasis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "locals", tuple(self.locals))
        if not self.locals:
            raise ValueError("product basis needs at least one local basis")

    def __len__(self) -> int:
        return len(self.locals)

    def check_dims(self, dims: tuple[int, ...]) -> None:
        if len(self.locals) != len(dims):
            raise ValueError(
                f"basis has {len(self.locals)} factors but state has {len(dims)} subsystems"
            )
        for k, (b, d) in enumerate(zip(self.locals, dims)):
            if b.dim != d:
                raise ValueError(f"basis factor {k} has dim {b.dim}, subsystem has dim {d}")


def qubit_unitary(theta: "float | np.ndarray", phi: "float | np.ndarray") -> np.ndarray:
    """Unitary with columns |+>, |-> of the rotated qubit basis.

    |+> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>
    |-> = -e^{-i phi} sin(theta/2)|0> + cos(theta/2)|1>

    Array angles broadcast against each other, giving a (..., 2, 2) stack.
    """
    c = np.cos(0.5 * theta)
    e = np.exp(1j * phi) * np.sin(0.5 * theta)
    u = np.empty(e.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = c
    u[..., 0, 1] = -e.conj()
    u[..., 1, 0] = e
    return u


def qubit_basis(angles: QubitBasisAngles) -> LocalBasis:
    """Projective qubit basis at the given Bloch angles."""
    return LocalBasis(qubit_unitary(angles.theta, angles.phi))


def sigma_x_basis() -> LocalBasis:
    return qubit_basis(QubitBasisAngles(theta=0.5 * math.pi, phi=0.0))


def computational_basis(d: int) -> LocalBasis:
    return LocalBasis(np.eye(d, dtype=complex))


def all_z(n: int) -> ProductBasis:
    return ProductBasis((computational_basis(2),) * n)


def all_x(n: int) -> ProductBasis:
    return ProductBasis((sigma_x_basis(),) * n)


def dephase(rho: DensityOperator, basis: ProductBasis) -> DensityOperator:
    """Non-selective product measurement: sum_k Pi_k rho Pi_k, the off-diagonals of rho
    in the product basis killed."""
    basis.check_dims(rho.dims)
    u = kron(*(b.vectors for b in basis.locals))
    return DensityOperator(dephase_matrices(rho.matrix, u), rho.dims)


def dephase_matrices(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k Pi_k m Pi_k for the projectors Pi_k onto the columns of u, unvalidated.

    ``m`` and ``u`` are one matrix each or (..., D, D) stacks, paired matrix by matrix
    with their leading axes broadcast.
    """
    return (u * basis_probabilities(m, u)[..., None, :]) @ u.conj().swapaxes(-1, -2)


def reduced_eigenbasis(rho: DensityOperator, j: int) -> LocalBasis:
    """Eigenbasis of the reduced operator on subsystem j.

    When the reduced spectrum is degenerate (adjacent gap below 1e-9) the
    eigenvectors are arbitrary, so this falls back to the computational
    basis.
    """
    rho_j = partial_trace(rho, [j])
    spec = eig_hermitian(rho_j)
    gaps = np.diff(spec.eigenvalues)
    if gaps.size and gaps.min() < DEGENERACY_GAP:
        return computational_basis(rho_j.total_dim)
    return LocalBasis(spec.eigenvectors)
