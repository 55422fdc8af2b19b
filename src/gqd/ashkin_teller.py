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
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh, norm as sparse_norm

from . import correlations
from .core import (
    DEGENERACY_GAP,
    DensityOperator,
    SubsystemDims,
    eig_hermitian,
    reduced_from_vector,
)

DENSE_MAX_SITES = 6      # 4^6 = 4096: limit of the dense reference views
SPARSE_MAX_SITES = 8     # ground-state solver budget (N = 16 spins)
RESIDUAL_TOL = 1e-8      # bound on ||Hv - Ev|| / max(1, |E|) of every returned ground state
POSITIVITY_FLOOR = -1e-12  # sector amplitudes in [floor, 0] are rounding of positive ones below 1e-16
FOLD_BLOCK = 4096        # rows per block of the fold certificate, which bounds its temporaries
DENSE_SECTOR_DIM = 128   # sectors up to this size (M <= 6 sites) are solved densely, larger by eigsh
CRITICAL_WINDOW = (0.85, 1.15)  # coupling window refined around the delta = 1 critical point
MAX_GRID_POINTS = 100_000  # largest coarse or fine coupling grid that is built

GROUP_SITES = {"quartet": 2, "sextet": 3, "octet": 4}
PAIR_KINDS = ("same-site", "neighbor-sigma")
SCAN_STRATEGIES = ("fixed-z", "fixed-x", "reduced-eigenbasis")


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
    degenerate: bool


@dataclass(frozen=True)
class ScanResult:
    """Coupling sweep of a correlation measure plus its central-difference derivative."""

    deltas: np.ndarray
    values: np.ndarray
    derivative: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.deltas)
        if len(self.values) != n:
            raise ValueError("scan columns have inconsistent lengths")
        if len(self.derivative) != max(n - 2, 0):
            raise ValueError("derivative is defined on interior points only")


def _with_flips(diagonal: np.ndarray, masks: Sequence[int], weight: float) -> sparse.csr_matrix:
    """diag(diagonal) + weight * sum over masks of the bit flip i -> i ^ mask."""
    dim = len(diagonal)
    index = np.arange(dim)
    cols = np.column_stack([index] + [index ^ m for m in masks])
    data = np.column_stack([diagonal] + [np.full(dim, weight)] * len(masks))
    m = sparse.csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, cols.size + 1, cols.shape[1])), shape=(dim, dim)
    )
    m.eliminate_zeros()  # zero diagonal entries (beta = 0, the parities) are not stored
    m.sort_indices()
    return m


@functools.lru_cache(maxsize=1)
def _hamiltonian_parts(sites: int, beta: float) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Real parts (A, B) of H(delta) = A + delta * B, built from bit masks.

    Qubit q (kron order: site-major, sigma before tau) is bit 2*sites - 1 - q of
    the basis index, so sigma^z_q is the diagonal 1 - 2*bit_q(i) and sigma^x_q
    maps i to i ^ (1 << (2*sites - 1 - q)).  The cache holds one chain, so a
    scan over delta builds it once; callers only see sums formed from it.
    """
    if sites > SPARSE_MAX_SITES:
        raise ValueError(f"chains beyond {SPARSE_MAX_SITES} sites are out of budget")
    n = 2 * sites
    index = np.arange(4**sites)
    bit = [1 << (n - 1 - q) for q in range(n)]
    z = [1 - 2 * ((index >> (n - 1 - q)) & 1) for q in range(n)]
    pairs = np.zeros(index.size)
    quads = np.zeros(index.size)
    for site in range(sites):
        s, t = 2 * site, 2 * site + 1
        s_next = 2 * ((site + 1) % sites)
        zz_s, zz_t = z[s] * z[s_next], z[t] * z[s_next + 1]
        pairs += zz_s + zz_t
        quads += zz_s * zz_t
    a = _with_flips(-beta * pairs, bit, -1.0)
    b = _with_flips(-beta * quads, [bit[2 * s] | bit[2 * s + 1] for s in range(sites)], -1.0)
    return a, b


def build_hamiltonian_sparse(spec: ChainSpec) -> sparse.csr_matrix:
    """Real sparse Ashkin-Teller Hamiltonian for up to 8 sites (16 spins)."""
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
    zero = np.zeros(4**sites)
    p1, p2 = _with_flips(zero, [sigma], 1.0), _with_flips(zero, [sigma >> 1], 1.0)
    return p1.toarray(), p2.toarray()


def ground_state(h: np.ndarray) -> GroundState:
    """Lowest eigenpair of a dense Hermitian matrix, with a degeneracy flag (test reference)."""
    spec = eig_hermitian(h)
    e = spec.eigenvalues
    return GroundState(
        energy=float(e[0]),
        vector=spec.eigenvectors[:, 0],
        degenerate=len(e) > 1 and bool(e[1] - e[0] < DEGENERACY_GAP),
    )


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


def _fold_defect(m: sparse.csr_matrix, m_sec: sparse.csr_matrix, embed) -> float:
    """||m E - E m_sec||_F for the sector embedding E, accumulated over row blocks."""
    blocks = (slice(r, r + FOLD_BLOCK) for r in range(0, embed.shape[0], FOLD_BLOCK))
    return math.sqrt(sum(sparse_norm(m[s] @ embed - embed[s] @ m_sec) ** 2 for s in blocks))


@functools.lru_cache(maxsize=1)
def _sector_parts(sites: int, beta: float) -> tuple:
    """A and B folded into the fully symmetric sector, with its embedding and fold certificate.

    The sector is spanned by the normalized orbit sums |O> = sum_{i in O} |i> / sqrt|O|.
    Because H commutes with the group, <O|H|O'> = sqrt(|O|/|O'|) * sum_{j in O'} H[r_O, j]
    with r_O the representative of O: the representatives' rows times the orbit
    indicator matrix, scaled on both sides.  Returns (A_sec, B_sec, E, f_A, f_B):
    E the isometry c -> sum_O c_O |O>, and f_A = ||A E - E A_sec||_F, f_B likewise.
    A_sec and B_sec are dense arrays up to DENSE_SECTOR_DIM states, sparse above.
    """
    a, b = _hamiltonian_parts(sites, beta)
    reps, labels, sizes = _orbits(sites)
    dim = labels.size
    indicator = sparse.csr_matrix(
        (np.ones(dim), labels, np.arange(dim + 1)), shape=(dim, reps.size)
    )
    root = np.sqrt(sizes)
    left, right = sparse.diags(root), sparse.diags(1.0 / root)
    a_sec, b_sec = ((left @ (m[reps] @ indicator) @ right).tocsr() for m in (a, b))
    embed = (indicator @ right).tocsr()
    folds = [_fold_defect(m, m_sec, embed) for m, m_sec in ((a, a_sec), (b, b_sec))]
    if reps.size <= DENSE_SECTOR_DIM:
        a_sec, b_sec = a_sec.toarray(), b_sec.toarray()
    return (a_sec, b_sec, embed, *folds)


def _sector_lowest(h, embed, start: np.ndarray | None) -> np.ndarray:
    """Lowest eigenvector of the sector matrix: one dense eigh, which needs no start, or
    eigsh from the sector part of ``start`` (of the uniform vector when there is none)."""
    if isinstance(h, np.ndarray):
        return eigh(h, subset_by_index=(0, 0))[1][:, 0]
    v0 = embed.T @ (np.ones(embed.shape[0]) if start is None else start)
    return eigsh(h, k=1, which="SA", v0=v0 / np.linalg.norm(v0))[1][:, 0]


def _sector_ground(spec: ChainSpec, start: np.ndarray | None = None) -> tuple:
    """Ground state solved in the fully symmetric sector and embedded in the full space.

    A sparse solve starts from the sector part of ``start`` (a ground vector of
    the same chain at a nearby coupling) or of the uniform vector.  Returns (v, E,
    bound), E the Rayleigh quotient of the unit sector vector c.  As the
    embedding is an isometry, bound = ||H_sec c - E c|| + f_A + |delta| f_B is at
    least ||Hv - Ev||, and no full-space product is formed.

    Raises RuntimeError unless every sector amplitude is positive, up to
    POSITIVITY_FLOOR, once the overall sign is fixed: the Perron-Frobenius
    certificate of the solve.  An excited state of the sector is orthogonal to
    the positive ground state and fails it.  The floor admits the exact
    amplitudes of strongly ordered chains that fall below rounding (about
    1e-17 at 8 sites, |beta| = 32, delta = 0) and so come out as -1e-16.
    """
    a, b, embed, fold_a, fold_b = _sector_parts(spec.sites, spec.beta)
    h = a + spec.delta * b
    c = _sector_lowest(h, embed, start)
    if c.sum() < 0.0:
        c = -c
    if c.min() < POSITIVITY_FLOOR:
        raise RuntimeError(
            f"sector ground state at delta={spec.delta} has a negative amplitude "
            f"{c.min():.3e}; the Perron-Frobenius certificate failed"
        )
    hc = h @ c
    energy = float(c @ hc)
    bound = float(np.linalg.norm(hc - energy * c)) + fold_a + abs(spec.delta) * fold_b
    return embed @ c, energy, bound


def _ground_vector(spec: ChainSpec, start: np.ndarray | None = None) -> np.ndarray:
    """Ground state vector of the chain, solved in the fully symmetric sector from ``start``.

    For delta >= 0 every off-diagonal entry of H is <= 0 and single spin flips
    connect all basis states, so by Perron-Frobenius the ground state is unique,
    positive and fixed by every symmetry that permutes basis states.  Raises
    ValueError outside that domain, before anything is built, and RuntimeError
    when the residual bound exceeds RESIDUAL_TOL * max(1, |E|).
    """
    if not spec.delta >= 0:
        raise ValueError(f"delta={spec.delta} is outside the solved domain delta >= 0")
    vector, energy, residual = _sector_ground(spec, start)
    if residual > RESIDUAL_TOL * max(1.0, abs(energy)):
        raise RuntimeError(
            f"ground state residual {residual:.3e} at delta={spec.delta} exceeds the bound "
            f"{RESIDUAL_TOL:.0e} * max(1, |E|), E = {energy:.12g}"
        )
    return vector


def reduce_to_group(gs_vector: np.ndarray, spec: ChainSpec, group: SpinGroup) -> DensityOperator:
    """Reduced density operator of the ground state on the group's spins."""
    keep = group.qubit_indices(spec.sites)
    return reduced_from_vector(gs_vector, SubsystemDims.qubits(spec.n_spins), keep)


def central_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        return np.empty(0)
    return (y[2:] - y[:-2]) / (x[2:] - x[:-2])


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
    values, vector = [], None
    for delta in deltas:
        spec = replace(template, delta=float(delta))
        vector = _ground_vector(spec, start=vector)  # warm start from the last point
        values.append(measure(vector, spec))
    values = np.array(values)
    return ScanResult(
        deltas=deltas,
        values=values,
        derivative=central_difference(deltas, values),
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
