"""Quantum Ashkin-Teller chain: two coupled transverse-field Ising chains.

Two spin-1/2 particles per site (sigma and tau), periodic boundaries.
Global qubit ordering is site-major with sigma before tau within a site:
(sigma_1, tau_1, sigma_2, tau_2, ...).  The global discord of small spin
groups in the ground state, scanned across the four-spin coupling, locates
the infinite-order critical point of the beta=1 line as a derivative
extremum.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigh, eigh_tridiagonal

from . import correlations
from .core import (
    DensityOperator,
    SubsystemDims,
    eig_hermitian,
    reduced_from_vector,
)

DENSE_MAX_SITES = 6      # 4^6 = 4096: limit of the dense reference views
FULL_SPACE_MAX_SITES = 8  # 4^8 rows: limit of the full-space reference parts, which no solve uses
SPARSE_MAX_SITES = 10    # ground-state solver budget (N = 20 spins)
RESIDUAL_TOL = 1e-8      # bound on ||Hv - Ev|| / max(1, |E|) of every returned ground state
POSITIVITY_FLOOR = -1e-12  # sector amplitudes in [floor, 0] are rounding of positive ones below 1e-16
DENSE_SECTOR_DIM = 128   # sectors up to this size (M <= 6 sites) are solved densely, larger by Lanczos
LANCZOS_TOL = 1e-14      # a Lanczos solve stops once its Ritz residual is at most this * max(1, |E|)
LANCZOS_BASIS = 64       # Lanczos vectors held before a restart from the Ritz vector
LANCZOS_CHECK = 4        # Lanczos steps between tests of the lowest Ritz pair
LANCZOS_RESTARTS = 20    # restarts before the last Ritz vector is returned to the residual check
CRITICAL_WINDOW = (0.85, 1.15)  # coupling window refined around the delta = 1 critical point
MAX_GRID_POINTS = 100_000  # largest coarse or fine coupling grid that is built

GROUP_SITES = {"quartet": 2, "sextet": 3, "octet": 4}
PAIR_KINDS = ("same-site", "neighbor-sigma")
SCAN_STRATEGIES = ("fixed-z", "fixed-x")


@dataclass(frozen=True)
class ChainSpec:
    """Chain of ``sites`` sites (2*sites spins) with couplings (beta, delta), in units of J."""

    sites: int
    beta: float
    delta: float

    def __post_init__(self) -> None:
        if self.sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.sites}")
        for name in ("beta", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def n_spins(self) -> int:
        return 2 * self.sites

    @property
    def dim(self) -> int:
        return 4**self.sites


@dataclass(frozen=True)
class SpinGroup:
    """The first 2/3/4 sites: a quartet/sextet/octet of spins, like any block of a
    translation-invariant ground state."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in GROUP_SITES:
            raise ValueError(f"kind must be one of {sorted(GROUP_SITES)}, got {self.kind!r}")

    @property
    def n_group_sites(self) -> int:
        return GROUP_SITES[self.kind]

    @property
    def n_spins(self) -> int:
        return 2 * self.n_group_sites

    def qubit_indices(self, sites: int) -> list[int]:
        """Global qubit indices, sigma block then tau block."""
        if self.n_group_sites > sites:
            raise ValueError(f"{self.kind} does not fit a chain of {sites} sites")
        members = range(self.n_group_sites)
        return [2 * s for s in members] + [2 * s + 1 for s in members]


@dataclass(frozen=True)
class GroundState:
    energy: float
    vector: np.ndarray


@dataclass(frozen=True)
class ScanResult:
    """Coupling sweep of a correlation measure plus its central-difference derivative,
    with the largest relative ground-state residual of the sweep, the smallest sector
    amplitude of its ground states (the Perron-Frobenius margin) and the sector size."""

    deltas: np.ndarray
    values: np.ndarray
    derivative: np.ndarray
    max_residual: float
    min_amplitude: float
    sector_dim: int

    def __post_init__(self) -> None:
        n = len(self.deltas)
        if len(self.values) != n:
            raise ValueError("scan columns have inconsistent lengths")
        if len(self.derivative) != max(n - 2, 0):
            raise ValueError("derivative is defined on interior points only")


def _with_flips(index: np.ndarray, diagonal: np.ndarray, masks: Sequence[int], weight: float,
                labels: np.ndarray | None = None) -> sparse.csr_matrix:
    """Rows ``index`` of diag(diagonal) + weight * sum over masks of the bit flip i -> i ^ mask,
    square of size len(index); with ``labels`` column j is summed into column labels[j]."""
    cols = np.column_stack([index] + [index ^ m for m in masks])
    cols = cols if labels is None else labels[cols]
    data = np.column_stack([diagonal] + [np.full(index.size, weight)] * len(masks))
    indptr = np.arange(0, cols.size + 1, cols.shape[1])
    m = sparse.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(index.size, index.size))
    m.sum_duplicates()  # flips that land in one orbit; sorts the indices too
    m.eliminate_zeros()  # zero diagonal entries (beta = 0, the parities) are not stored
    return m


def _terms(index: np.ndarray, sites: int) -> list[tuple[np.ndarray, list[int]]]:
    """(d, masks) of each part at basis indices: A = -beta d_A - sum of sigma^x over spins and
    B = -beta d_B - sum of sigma^x tau^x over sites, each string the bit flip i -> i ^ mask.

    Qubit q (kron order: site-major, sigma before tau) is bit 2*sites - 1 - q of the
    index.  A bond's z product is -1 where x = index ^ (index one site along) has its
    bit set, and a site's sigma and tau bond products multiply to -1 where its bits differ.
    """
    x = index ^ ((index >> 2) | ((index & 3) << (2 * sites - 2)))
    pairs = 2.0 * sites - 2.0 * np.bitwise_count(x)
    quads = 1.0 * sites - 2.0 * np.bitwise_count((x ^ (x >> 1)) & (_sigma_mask(sites) >> 1))
    a_masks, b_masks = [1 << q for q in range(2 * sites)], [3 << (2 * s) for s in range(sites)]
    return [(pairs, a_masks), (quads, b_masks)]


@functools.lru_cache(maxsize=1)
def _hamiltonian_parts(sites: int, beta: float) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Full-space parts (A, B) of H(delta) = A + delta * B: a reference for the dense views
    and the tests, as no solve forms these 4^sites rows.  The cache holds one chain."""
    if sites > FULL_SPACE_MAX_SITES:
        raise ValueError(
            f"full-space parts are built for at most {FULL_SPACE_MAX_SITES} sites, got {sites}")
    index = np.arange(4**sites)
    return tuple(_with_flips(index, -beta * d, masks, -1.0) for d, masks in _terms(index, sites))


def build_hamiltonian_sparse(spec: ChainSpec) -> sparse.csr_matrix:
    """Real sparse Ashkin-Teller Hamiltonian for up to 8 sites (16 spins), a reference view."""
    a, b = _hamiltonian_parts(spec.sites, spec.beta)
    return (a + spec.delta * b).tocsr()


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense view of the Hamiltonian (dimension 4^sites, sites <= 6), the reference for tests."""
    if spec.sites > DENSE_MAX_SITES:
        raise ValueError(
            f"dense build supports at most {DENSE_MAX_SITES} sites, got {spec.sites}; "
            "use build_hamiltonian_sparse"
        )
    return build_hamiltonian_sparse(spec).toarray()


def _sigma_mask(sites: int) -> int:
    """Bit mask of every sigma spin of the basis index; shifted right by one, of every tau spin."""
    return sum(1 << (2 * sites - 1 - 2 * s) for s in range(sites))


def parity_operators(sites: int) -> tuple[np.ndarray, np.ndarray]:
    """The two parity involutions: sigma^x on every sigma spin, and on every tau spin."""
    if sites > DENSE_MAX_SITES:
        raise ValueError(f"dense parity operators support at most {DENSE_MAX_SITES} sites")
    sigma = _sigma_mask(sites)
    index = np.arange(4**sites)
    p1, p2 = (_with_flips(index, 0.0 * index, [mask], 1.0) for mask in (sigma, sigma >> 1))
    return p1.toarray(), p2.toarray()


def ground_state(h: np.ndarray) -> GroundState:
    """Lowest eigenpair of a dense Hermitian matrix (test reference)."""
    spec = eig_hermitian(h)
    return GroundState(energy=float(spec.eigenvalues[0]), vector=spec.eigenvectors[:, 0])


def _orbits(sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the basis indices under the chain's symmetries that permute basis states.

    The group has 8*sites elements: the translations, the sigma <-> tau swap and
    the four parity masks, all commuting with H.  Each index is labelled by the
    smallest of its images.  Returns (representatives, label of every index,
    orbit sizes), with representatives[k] the smallest index of orbit k.
    """
    n = 2 * sites
    sigma = _sigma_mask(sites)
    tau = sigma >> 1
    index = np.arange(4**sites)
    smallest = index.copy()
    for image in (index, ((index & sigma) >> 1) | ((index & tau) << 1)):
        for _ in range(sites):
            image = (image >> 2) | ((image & 3) << (n - 2))  # one site along the ring
            for mask in (0, sigma, tau, sigma | tau):
                np.minimum(smallest, image ^ mask, out=smallest)
    is_rep = smallest == index
    labels = (np.cumsum(is_rep, dtype=np.int32) - 1)[smallest]  # rank of each smallest image
    return np.flatnonzero(is_rep), labels, np.bincount(labels)


@functools.lru_cache(maxsize=1)
def _sector_parts(sites: int, beta: float) -> tuple:
    """A and B in the fully symmetric sector, built from the orbit representatives alone.

    The sector is spanned by the normalized orbit sums |O> = sum_{i in O} |i> / sqrt|O|.
    Because H commutes with the group, <O|H|O'> = sqrt(|O|/|O'|) * sum_{j in O'} H[r_O, j]
    with r_O the representative of O: its z bits give the diagonal, and each flip
    r_O ^ mask lands in the orbit its label names.  Returns (A_sec, B_sec, labels,
    root), so that c -> (c / root)[labels] is the isometry E onto the sector,
    root = sqrt|O|.  A_sec and B_sec are dense up to DENSE_SECTOR_DIM states; larger,
    they are CSR matrices on one pattern (the union of their entries, read back as the
    real and imaginary parts of A + iB), so that H(delta) sums their data alone.
    """
    if sites > SPARSE_MAX_SITES:
        raise ValueError(f"chains beyond {SPARSE_MAX_SITES} sites are out of budget")
    reps, labels, sizes = _orbits(sites)
    root = np.sqrt(sizes)
    left, right = sparse.diags(root), sparse.diags(1.0 / root)
    parts = [(left @ _with_flips(reps, -beta * d, masks, -1.0, labels) @ right).tocsr()
             for d, masks in _terms(reps, sites)]
    if reps.size <= DENSE_SECTOR_DIM:
        parts = [p.toarray() for p in parts]
    else:
        union = (parts[0] + 1j * parts[1]).tocsr()
        parts = [union.real, union.imag]
    return (*parts, labels, root)


def _lanczos(h: sparse.csr_matrix, start: np.ndarray) -> np.ndarray:
    """Lowest eigenvector of the symmetric h: Lanczos from ``start`` with full
    reorthogonalization (two Gram-Schmidt passes), restarted from the Ritz vector when
    LANCZOS_BASIS vectors fill, at most LANCZOS_RESTARTS times (the caller's residual
    check judges what it returns).  Every LANCZOS_CHECK steps it stops once the lowest
    Ritz pair (theta, y) of T_j has ||h y - theta y|| = |beta_j s_j| <= LANCZOS_TOL *
    max(1, |theta|), s the eigenvector of T_j.  At a breakdown (beta_j negligible) the
    Krylov space is invariant and its Ritz vector exact.
    """
    q = np.empty((LANCZOS_BASIS, start.size))
    alpha, beta = np.empty(LANCZOS_BASIS), np.empty(LANCZOS_BASIS)
    ritz = start
    for _ in range(LANCZOS_RESTARTS + 1):
        q[0] = ritz / np.linalg.norm(ritz)
        for j in range(LANCZOS_BASIS):
            w = h @ q[j]
            alpha[j] = q[j] @ w
            for _ in range(2):
                w -= (q[: j + 1] @ w) @ q[: j + 1]
            beta[j] = np.linalg.norm(w)
            breakdown = beta[j] <= LANCZOS_TOL * max(1.0, abs(alpha[j]))
            full = j + 1 == LANCZOS_BASIS
            if breakdown or full or j % LANCZOS_CHECK == LANCZOS_CHECK - 1:
                theta, s = eigh_tridiagonal(alpha[: j + 1], beta[:j], select="i",
                                            select_range=(0, 0))
                converged = beta[j] * abs(s[-1, 0]) <= LANCZOS_TOL * max(1.0, abs(theta[0]))
                if breakdown or converged or full:  # the Ritz vector is returned or restarts
                    ritz = s[:, 0] @ q[: j + 1]
                if breakdown or converged:
                    return ritz
            if not full:
                q[j + 1] = w / beta[j]
    return ritz


def _sector_lowest(h, start: np.ndarray) -> np.ndarray:
    """Lowest eigenvector of the sector matrix: one dense eigh, which needs no start, or
    a Lanczos solve from ``start``."""
    if isinstance(h, np.ndarray):
        return eigh(h, subset_by_index=(0, 0))[1][:, 0]
    return _lanczos(h, start)


def _sector_ground(spec: ChainSpec, start: np.ndarray | None = None) -> tuple:
    """Ground state of the chain, solved and certified in the fully symmetric sector.

    For delta >= 0 every off-diagonal entry of H is <= 0 and single spin flips
    connect all basis states, so by Perron-Frobenius the ground state is unique,
    positive and fixed by every symmetry that permutes basis states.  A sparse solve
    starts from the sector vector ``start`` (the ground vector of the same chain at a
    nearby coupling) or from the uniform vector.  Returns (c, E, residual): the unit
    sector vector, its Rayleigh quotient and ||H_sec c - E c||.  The embedding E is
    an isometry with H E = E H_sec, so the residual is the full-space
    ||Hv - Ev|| of v = E c, and no full-space product is formed.

    Raises ValueError outside delta >= 0 or over SPARSE_MAX_SITES sites, before
    anything is built.  Raises RuntimeError when the residual exceeds RESIDUAL_TOL *
    max(1, |E|), or unless every sector amplitude is positive, up to
    POSITIVITY_FLOOR, once the overall sign is fixed: the Perron-Frobenius
    certificate of the solve.  An excited state of the sector is orthogonal to
    the positive ground state and fails it.  The floor admits the exact
    amplitudes of strongly ordered chains that fall below rounding (about
    1e-17 at 8 sites, |beta| = 32, delta = 0) and so come out as -1e-16.
    """
    if not spec.delta >= 0:
        raise ValueError(f"delta={spec.delta} is outside the solved domain delta >= 0")
    a, b, _, root = _sector_parts(spec.sites, spec.beta)
    if isinstance(a, np.ndarray):
        h = a + spec.delta * b
    else:  # one shared pattern: only the data is summed
        h = sparse.csr_matrix((a.data + spec.delta * b.data, a.indices, a.indptr), shape=a.shape)
    c = _sector_lowest(h, root if start is None else start)
    if c.sum() < 0.0:
        c = -c
    if c.min() < POSITIVITY_FLOOR:
        raise RuntimeError(
            f"sector ground state at delta={spec.delta} has a negative amplitude "
            f"{c.min():.3e}; the Perron-Frobenius certificate failed"
        )
    hc = h @ c
    energy = float(c @ hc)
    residual = float(np.linalg.norm(hc - energy * c))
    if residual > RESIDUAL_TOL * max(1.0, abs(energy)):
        raise RuntimeError(
            f"ground state residual {residual:.3e} at delta={spec.delta} exceeds the bound "
            f"{RESIDUAL_TOL:.0e} * max(1, |E|), E = {energy:.12g}"
        )
    return c, energy, residual


def _embed(spec: ChainSpec, c: np.ndarray) -> np.ndarray:
    """Full-space vector E c of the sector vector c, by one gather."""
    _, _, labels, root = _sector_parts(spec.sites, spec.beta)
    return (c / root)[labels]


def _ground_vector(spec: ChainSpec) -> np.ndarray:
    """Ground state vector of the chain in the full space (see _sector_ground)."""
    return _embed(spec, _sector_ground(spec)[0])


def reduce_to_group(gs_vector: np.ndarray, spec: ChainSpec, group: SpinGroup) -> DensityOperator:
    """Reduced density operator of the ground state on the group's spins."""
    keep = group.qubit_indices(spec.sites)
    return reduced_from_vector(gs_vector, SubsystemDims.qubits(spec.n_spins), keep)


def central_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return (y[2:] - y[:-2]) / (x[2:] - x[:-2])  # empty below 3 points


def zero_crossings(
    x: np.ndarray, d: np.ndarray, lo: float | None = None, hi: float | None = None
) -> list[float]:
    """Linearly interpolated sign changes of d over grid x, optionally windowed."""
    roots: list[float] = []
    for i in range(len(d) - 1):
        a, b = d[i], d[i + 1]
        if a == 0.0:
            roots.append(float(x[i]))
        elif a * b < 0.0:
            roots.append(float(x[i] - a * (x[i + 1] - x[i]) / (b - a)))
    if d.size and d[-1] == 0.0:
        roots.append(float(x[-1]))
    if lo is not None:
        roots = [r for r in roots if r > lo]
    if hi is not None:
        roots = [r for r in roots if r < hi]
    return roots


def _check_grid_size(span: float, step: float) -> None:
    """Reject a grid of more than MAX_GRID_POINTS points before it is built; an inf count too."""
    count = span / step + 1.0
    if not count <= MAX_GRID_POINTS:
        raise ValueError(f"coupling grid of {count:.6g} points exceeds {MAX_GRID_POINTS} points")


def default_delta_grid(
    start: float = 0.2,
    stop: float = 1.8,
    step: float = 0.05,
    fine_step: float = 0.01,
) -> np.ndarray:
    """Coupling grid: coarse over [start, stop], refined over CRITICAL_WINDOW unless
    fine_step <= 0 or fine_step >= step."""
    for name, value in (("start", start), ("stop", stop), ("step", step), ("fine_step", fine_step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if step <= 0 or stop < start:
        raise ValueError("empty coupling range")
    _check_grid_size(stop - start, step)
    coarse = np.arange(start, stop + 0.5 * step, step)
    if not 0 < fine_step < step:  # no refinement requested
        return np.unique(np.round(coarse, 10))
    _check_grid_size(CRITICAL_WINDOW[1] - CRITICAL_WINDOW[0], fine_step)
    fine = np.arange(CRITICAL_WINDOW[0], CRITICAL_WINDOW[1] + 0.5 * fine_step, fine_step)
    fine = fine[(fine >= start) & (fine <= stop)]
    return np.unique(np.round(np.concatenate([coarse, fine]), 10))


def _scan(
    template: ChainSpec,
    deltas: Sequence[float],
    measure: Callable[[np.ndarray, ChainSpec], float],
) -> ScanResult:
    """Ground state and ``measure(vector, spec)`` at every coupling of the grid."""
    deltas = np.asarray(list(deltas), dtype=float)
    if deltas.size == 0:
        raise ValueError("empty coupling grid")
    values, residuals, amplitudes, c = [], [], [], None
    for delta in deltas:
        spec = replace(template, delta=float(delta))
        c, energy, residual = _sector_ground(spec, start=c)  # warm start from the last point
        residuals.append(residual / max(1.0, abs(energy)))
        amplitudes.append(c.min())
        values.append(measure(_embed(spec, c), spec))
    values = np.array(values)
    return ScanResult(
        deltas=deltas,
        values=values,
        derivative=central_difference(deltas, values),
        max_residual=max(residuals),
        min_amplitude=float(min(amplitudes)),
        sector_dim=c.size,
    )


def gqd_scan(
    template: ChainSpec,
    deltas: Sequence[float],
    group: SpinGroup,
    strategy: str,
) -> ScanResult:
    """Global discord of a spin group across the coupling grid, at a fixed basis strategy."""
    if strategy not in SCAN_STRATEGIES:
        raise ValueError(f"scan strategy must be one of {SCAN_STRATEGIES}, got {strategy!r}")
    group.qubit_indices(template.sites)  # validate group against chain size now

    def measure(vector: np.ndarray, spec: ChainSpec) -> float:
        return correlations.gqd(reduce_to_group(vector, spec, group), strategy=strategy).value

    return _scan(template, deltas, measure)


def pair_qubits(kind: str) -> list[int]:
    if kind == "same-site":
        return [0, 1]          # sigma_1, tau_1
    if kind == "neighbor-sigma":
        return [0, 2]          # sigma_1, sigma_2
    raise ValueError(f"pair kind must be one of {PAIR_KINDS}, got {kind!r}")


def pairwise_discord_scan(
    template: ChainSpec,
    deltas: Sequence[float],
    pair_kind: str,
) -> ScanResult:
    """Asymmetric discord of a spin pair across the coupling grid."""
    keep = pair_qubits(pair_kind)

    def measure(vector: np.ndarray, spec: ChainSpec) -> float:
        rho = reduced_from_vector(vector, SubsystemDims.qubits(spec.n_spins), keep)
        return correlations.discord_asymmetric(rho)

    return _scan(template, deltas, measure)
