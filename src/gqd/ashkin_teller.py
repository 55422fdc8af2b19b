"""Quantum Ashkin-Teller chain: two coupled transverse-field Ising chains.

Two spin-1/2 particles per site (sigma and tau), periodic boundaries.
Global qubit ordering is site-major with sigma before tau within a site:
(sigma_1, tau_1, sigma_2, tau_2, ...).  Qubit q is bit 2M - 1 - q of the
basis index of an M-site chain, so the first L sites are its leading 2L
bits: a full-space vector viewed as a (4^L, 4^(M-L)) matrix has those
sites as its row index, and its Gram matrix is their reduced state with no
transpose of the 4^M entries (``_group_states``).  The ground state is solved in
the sector fixed by the 16M basis permutations of ``_orbits`` (translations, site
reversal, the sigma <-> tau swap and the parities).  The global discord of small
spin groups in the ground state, scanned across the four-spin coupling, locates
the infinite-order critical point of the beta=1 line as a derivative extremum.
SciPy (CSR sector matrices, LAPACK) is imported by the solver functions that call it,
so importing the package loads numpy alone.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import correlations
from .core import DensityOperator, eig_hermitian, trace_out

if TYPE_CHECKING:
    from scipy import sparse

DENSE_MAX_SITES = 6      # 4^6 = 4096: limit of the dense reference views
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
MAX_COUPLING = 1e100     # bound on |beta| and |delta|: the Lanczos squares of larger ones overflow
ORBIT_BLOCK = 2**15      # basis indices whose orbit images are taken at once (cache-sized)

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
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if abs(value) > MAX_COUPLING:
                raise ValueError(f"|{name}| must be at most 1e100, got {value}")

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


def _with_flips(index: np.ndarray, diagonal: np.ndarray, masks: Sequence[int],
                labels: np.ndarray) -> sparse.csr_matrix:
    """Rows ``index`` of diag(diagonal) - sum over masks of the bit flip i -> i ^ mask,
    with column j summed into column labels[j]: square of size len(index)."""
    from scipy import sparse
    cols = labels[np.column_stack([index] + [index ^ m for m in masks])]
    data = np.column_stack([diagonal] + [np.full(index.size, -1.0)] * len(masks))
    indptr = np.arange(0, cols.size + 1, cols.shape[1])
    m = sparse.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(index.size, index.size))
    m.sum_duplicates()  # flips that land in one orbit; sorts the indices too
    m.eliminate_zeros()  # zero diagonal entries (beta = 0) are not stored
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


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense view of the Hamiltonian (dimension 4^sites, sites <= 6), the reference for tests:
    the diagonal of A + delta * B from _terms, then -1 at each A flip and -delta at each B flip."""
    if spec.sites > DENSE_MAX_SITES:
        raise ValueError(f"dense build supports at most {DENSE_MAX_SITES} sites, got {spec.sites}")
    index = np.arange(spec.dim)
    (d_a, a_masks), (d_b, b_masks) = _terms(index, spec.sites)
    h = np.diag(-spec.beta * d_a + spec.delta * (-spec.beta * d_b))
    for masks, weight in ((a_masks, -1.0), (b_masks, -spec.delta)):
        for mask in masks:
            h[index, index ^ mask] = weight
    return h


def _sigma_mask(sites: int) -> int:
    """Bit mask of every sigma spin of the basis index; shifted right by one, of every tau spin."""
    return sum(1 << (2 * sites - 1 - 2 * s) for s in range(sites))


def parity_operators(sites: int) -> tuple[np.ndarray, np.ndarray]:
    """The two parity involutions: sigma^x on every sigma spin, and on every tau spin."""
    if sites > DENSE_MAX_SITES:
        raise ValueError(f"dense parity operators support at most {DENSE_MAX_SITES} sites")
    sigma, eye = _sigma_mask(sites), np.eye(4**sites)
    index = np.arange(4**sites)
    return eye[index ^ sigma], eye[index ^ (sigma >> 1)]


def ground_state(h: np.ndarray) -> GroundState:
    """Lowest eigenpair of a dense Hermitian matrix (test reference)."""
    spec = eig_hermitian(h)
    return GroundState(energy=float(spec.eigenvalues[0]), vector=spec.eigenvectors[:, 0])


def _orbits(sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the basis indices under the chain's symmetries that permute basis states.

    The group has 16*sites elements: the translations, the site reversal (the 2-bit
    site fields of the index in reverse order), the sigma <-> tau swap and the four
    parity masks, all commuting with H on the ring.  Each index is labelled by the
    smallest of its images, found over ORBIT_BLOCK indices at a time, in order: that
    image is a representative no larger than the index, so its label is known by then.
    Returns (representatives, int32 label of every index, orbit sizes), with
    representatives[k] the smallest index of orbit k.
    """
    n = 2 * sites
    sigma = _sigma_mask(sites)
    tau = sigma >> 1

    def swap(i: np.ndarray) -> np.ndarray:
        return ((i & sigma) >> 1) | ((i & tau) << 1)

    labels = np.empty(4**sites, dtype=np.int32)
    reps, count = [], 0
    for lo in range(0, labels.size, ORBIT_BLOCK):
        index = np.arange(lo, min(lo + ORBIT_BLOCK, labels.size))
        smallest = index.copy()
        mirror = sum(((index >> (2 * s)) & 3) << (n - 2 - 2 * s) for s in range(sites))
        for image in (index, swap(index), mirror, swap(mirror)):
            for _ in range(sites):
                image = (image >> 2) | ((image & 3) << (n - 2))  # one site along the ring
                for mask in (0, sigma, tau, sigma | tau):
                    np.minimum(smallest, image ^ mask, out=smallest)
        reps.append(index[smallest == index])
        labels[reps[-1]] = np.arange(count, count + reps[-1].size)
        labels[index] = labels[smallest]
        count += reps[-1].size
    return np.concatenate(reps), labels, np.bincount(labels)


@functools.lru_cache(maxsize=1)
def _sector_parts(sites: int, beta: float) -> tuple:
    """A and B in the fully symmetric sector, built from the orbit representatives alone.

    The sector of the 16*sites-element group of ``_orbits`` (3, 4, 13, 22, 73, 181, 627,
    1,957 and 6,990 states for 2 to 10 sites) is spanned by the normalized orbit sums
    |O> = sum_{i in O} |i> / sqrt|O|.  Because H commutes with the group, <O|H|O'> =
    sqrt(|O|/|O'|) * sum_{j in O'} H[r_O, j] with r_O the representative of O: its z bits
    give the diagonal, and each flip r_O ^ mask lands in the orbit its label names.
    Returns (A_sec, B_sec, labels, root), so that c -> (c / root)[labels] is the isometry
    E onto the sector, root = sqrt|O|.  A_sec and B_sec are dense up to DENSE_SECTOR_DIM
    states (M <= 6); larger, they are CSR matrices on one pattern (the union of their
    entries, read back as the real and imaginary parts of A + iB), so that H(delta) sums
    their data alone.
    """
    if sites > SPARSE_MAX_SITES:
        raise ValueError(f"chains beyond {SPARSE_MAX_SITES} sites are out of budget")
    from scipy import sparse
    reps, labels, sizes = _orbits(sites)
    root = np.sqrt(sizes)
    left, right = sparse.diags(root), sparse.diags(1.0 / root)
    parts = [(left @ _with_flips(reps, -beta * d, masks, labels) @ right).tocsr()
             for d, masks in _terms(reps, sites)]
    if reps.size <= DENSE_SECTOR_DIM:
        parts = [p.toarray() for p in parts]
    else:
        union = (parts[0] + 1j * parts[1]).tocsr()
        parts = [union.real, union.imag]
    return (*parts, labels, root)


def _tridiagonal_lowest(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenpair ([theta], (n, 1) vector) of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e: the dstebz and dstein calls that
    ``scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))`` makes, and so
    its result bit for bit, without its argument checks."""
    import scipy.linalg.lapack as lapack
    if d.size == 1:
        return np.array([d[0]]), np.array([[1.0]])
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if not info:
        z, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"dstebz/dstein failed with info {info}")
    return w[:m], z


def _lanczos(h: sparse.csr_matrix, start: np.ndarray) -> np.ndarray:
    """Lowest eigenvector of the symmetric h: Lanczos from ``start`` with full
    reorthogonalization (two Gram-Schmidt passes), restarted from the Ritz vector when
    LANCZOS_BASIS vectors fill, at most LANCZOS_RESTARTS times (the caller's residual
    check judges what it returns).  Every LANCZOS_CHECK steps it stops once the lowest
    Ritz pair (theta, y) of T_j has ||h y - theta y|| = |beta_j s_j| <= LANCZOS_TOL *
    max(1, |theta|), s the eigenvector of T_j (``_tridiagonal_lowest``).  At a breakdown
    (beta_j negligible) the Krylov space is invariant and its Ritz vector exact.
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
                theta, s = _tridiagonal_lowest(alpha[: j + 1], beta[:j])
                converged = beta[j] * abs(s[-1, 0]) <= LANCZOS_TOL * max(1.0, abs(theta[0]))
                if breakdown or converged or full:  # the Ritz vector is returned or restarts
                    ritz = s[:, 0] @ q[: j + 1]
                if breakdown or converged:
                    return ritz
            if not full:
                q[j + 1] = w / beta[j]
    return ritz


def _sector_lowest(h, start: np.ndarray) -> np.ndarray:
    """Lowest eigenvector of the sector matrix: one LAPACK dsyevr call restricted to the
    lowest eigenpair, which needs no start, or a Lanczos solve from ``start``.  dsyevr gets
    the workspace that ``scipy.linalg.eigh`` queries, and so returns eigh's vector bit for bit."""
    if isinstance(h, np.ndarray):
        import scipy.linalg.lapack as lapack
        work, iwork, _ = lapack.dsyevr_lwork(h.shape[0], lower=1)
        _, z, _, _, info = lapack.dsyevr(h, range="I", il=1, iu=1, lower=1, lwork=int(work),
                                         liwork=iwork)
        if info:
            raise np.linalg.LinAlgError(f"dsyevr failed with info {info}")
        return z[:, 0]
    return _lanczos(h, start)


def _check_deltas(template: ChainSpec, deltas: Sequence[float]) -> np.ndarray:
    """``deltas`` as floats; ValueError at the first outside delta >= 0 or one ChainSpec rejects."""
    deltas = np.asarray(deltas, dtype=float)
    outside = deltas[~((deltas >= 0) & (deltas <= MAX_COUPLING))]  # NaN fails both
    if outside.size:
        spec = replace(template, delta=float(outside[0]))  # ChainSpec's error if non-finite or huge
        raise ValueError(f"delta={spec.delta} is outside the solved domain delta >= 0")
    return deltas


def _sector_ground(template: ChainSpec, deltas: Sequence[float],
                   start: np.ndarray | None = None) -> tuple:
    """Ground states of the chain ``template`` at the block of couplings ``deltas`` (its
    own delta unused), solved and certified in the fully symmetric sector.

    For delta >= 0 every off-diagonal entry of H is <= 0 and single spin flips
    connect all basis states, so by Perron-Frobenius the ground state is unique,
    positive and fixed by every symmetry that permutes basis states, site reversal
    among them.  A dense sector
    forms H = A + delta B for the whole block as one stack and solves each matrix by
    ``_sector_lowest``.  A sparse one solves the points in order by Lanczos, each from
    the previous point's vector, the first from the sector vector ``start`` (the ground
    vector of a nearby coupling) or from the uniform vector.  Returns (c, E, residual)
    stacked over the block: the unit sector vectors, their Rayleigh quotients and
    ||H_sec c - E c||.  The embedding E is an isometry with H E = E H_sec, so the
    residual is the full-space ||Hv - Ev|| of v = E c, and no full-space product is formed.

    Its callers check the couplings.  Raises RuntimeError naming the first point of the
    block whose residual exceeds RESIDUAL_TOL * max(1, |E|), or whose sector amplitudes are
    not all positive, up to POSITIVITY_FLOOR, once the overall sign is fixed: the
    Perron-Frobenius certificate of the solve.  An excited state of the sector is
    orthogonal to the positive ground state and fails it.  The floor admits the exact
    amplitudes of strongly ordered chains that fall below rounding (about 1e-17 at 8
    sites, |beta| = 32, delta = 0) and so come out as -1e-16.
    """
    deltas = np.asarray(deltas, dtype=float)
    a, b, _, root = _sector_parts(template.sites, template.beta)
    if isinstance(a, np.ndarray):
        h = a + deltas[:, None, None] * b
        c = np.array([_sector_lowest(m, start) for m in h])
        hc = np.matmul(h, c[:, :, None])[:, :, 0]
    else:
        from scipy import sparse
        c, hc = [], []
        for delta in deltas:  # one shared pattern: only the data is summed
            h = sparse.csr_matrix((a.data + delta * b.data, a.indices, a.indptr), shape=a.shape)
            c.append(_sector_lowest(h, root if start is None else start))
            hc.append(h @ c[-1])
            start = c[-1]
            if not np.isfinite(start).all():  # no next solve from it: the certificate names it
                break
        c, hc = np.array(c), np.array(hc)
    energies = np.vecdot(c, hc)  # neither E nor the residual sees the overall sign
    r = hc - energies[:, None] * c
    residuals = np.sqrt(np.vecdot(r, r))
    c *= np.where(c.sum(axis=1) < 0.0, -1.0, 1.0)[:, None]
    positive = c.min(axis=1) >= POSITIVITY_FLOOR  # a NaN amplitude fails too
    accurate = residuals <= RESIDUAL_TOL * np.maximum(1.0, np.abs(energies))
    failed = ~(positive & accurate)
    if failed.any():
        k = int(failed.argmax())  # the first failing point
        if not positive[k]:
            raise RuntimeError(
                f"sector ground state at delta={float(deltas[k])} has a negative or NaN "
                f"amplitude {c[k].min():.3e}; the Perron-Frobenius certificate failed"
            )
        raise RuntimeError(
            f"ground state residual {residuals[k]:.3e} at delta={float(deltas[k])} exceeds the "
            f"bound {RESIDUAL_TOL:.0e} * max(1, |E|), E = {energies[k]:.12g}"
        )
    return c, energies, residuals


def _embed(template: ChainSpec, c: np.ndarray) -> np.ndarray:
    """Full-space vectors E c of a (P, S) stack of sector vectors, by one gather in C order,
    which ``_group_states`` needs to reproduce the one-vector product bit for bit:
    x[:, labels] lays a stack of several out in Fortran order, and np.take would copy the
    labels to intp."""
    _, _, labels, root = _sector_parts(template.sites, template.beta)
    rows = slice(None) if len(c) == 1 else np.arange(len(c))[:, None]
    return (c / root)[rows, labels]


def _ground_vector(spec: ChainSpec) -> np.ndarray:
    """Ground state vector of the chain in the full space (see _sector_ground).  Raises
    ValueError at a delta < 0 (or one ChainSpec rejects) or over SPARSE_MAX_SITES sites,
    before anything is built."""
    return _embed(spec, _sector_ground(spec, _check_deltas(spec, [spec.delta]))[0])[0]


def _group_states(vectors: np.ndarray, sites: int, keep: Sequence[int]) -> np.ndarray:
    """(P, d, d) states on the qubits ``keep``, in that order, of a (P, 4^M) stack of chain
    vectors.  The first L sites that hold ``keep`` are the leading 2L bits of the index, so
    each vector viewed as (4^L, 4^(M-L)) has them as its row index: one batched Gram product
    gives their states with nothing of length 4^M transposed, and ``trace_out`` the rest.
    Real stays real."""
    lead = 2 * (max(keep) // 2 + 1)
    a = np.reshape(vectors, (len(vectors), 2**lead, 4**sites >> lead))
    return trace_out(a @ a.conj().transpose(0, 2, 1), (2,) * lead, keep)


def central_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return (y[2:] - y[:-2]) / (x[2:] - x[:-2])  # empty below 3 points


def _sign_changes(x: np.ndarray, d: np.ndarray, lo: float | None = None,
                  hi: float | None = None) -> list[tuple[float, bool]]:
    """(root, falls) of each sign change of d over grid x inside (lo, hi): two consecutive
    nonzero entries of opposite sign, falling where the first is positive.  Adjacent ones
    bracket a linearly interpolated root; exact zeros between them put it at the middle of
    their run.  A touch (zeros between one sign), an end zero or an all-zero d is none."""
    changes, nonzero = [], np.flatnonzero(d)
    for i, j in zip(nonzero[:-1], nonzero[1:]):
        a, b = d[i], d[j]
        if a * b < 0.0:
            root = x[i] - a * (x[j] - x[i]) / (b - a) if j == i + 1 else 0.5 * (x[i + 1] + x[j - 1])
            if (lo is None or root > lo) and (hi is None or root < hi):
                changes.append((float(root), bool(a > 0.0)))
    return changes


def zero_crossings(
    x: np.ndarray, d: np.ndarray, lo: float | None = None, hi: float | None = None
) -> list[float]:
    """Roots of the sign changes of d over grid x (``_sign_changes``), optionally windowed."""
    return [root for root, _ in _sign_changes(x, d, lo, hi)]


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
    if coarse.size == 0:  # start = stop and a step below its rounding: stop + step / 2 == stop
        raise ValueError("empty coupling range")
    if not 0 < fine_step < step:  # no refinement requested
        return np.unique(np.round(coarse, 10))
    _check_grid_size(CRITICAL_WINDOW[1] - CRITICAL_WINDOW[0], fine_step)
    fine = np.arange(CRITICAL_WINDOW[0], CRITICAL_WINDOW[1] + 0.5 * fine_step, fine_step)
    fine = fine[(fine >= start) & (fine <= stop)]
    return np.unique(np.round(np.concatenate([coarse, fine]), 10))


def _scan(
    template: ChainSpec,
    deltas: Sequence[float],
    keep: Sequence[int],
    measure: Callable[[np.ndarray], Sequence[float]],
) -> ScanResult:
    """Ground states of the coupling grid, one stack at a time: the
    ``correlations._states_per_call(len(keep))`` states (256 quartets, 16 sextets, one octet or
    4,096 pairs) that ``measure`` maps from (k, d, d) states on the qubits ``keep`` to k values
    in one call.  A stack is solved and certified (``_sector_ground``) in blocks that never
    reach into the next stack, of at most max(1, _ELEMENT_BUDGET // 4^(M+1)) points: 256 at
    M = 4, 16 at M = 6, 4 at M = 7, one from M = 8 on.  Each sparse solve starts from the previous
    point's vector, and each block is embedded and reduced by ``_group_states`` at once, so no
    full-space vector outlives its Gram product.  Raises ValueError at the first delta < 0 (or
    one ChainSpec rejects) or over SPARSE_MAX_SITES sites, before anything is built."""
    deltas = _check_deltas(template, list(deltas))  # the whole grid, before any build
    if deltas.size == 0:
        raise ValueError("empty coupling grid")
    block = max(1, correlations._ELEMENT_BUDGET // 4 ** (template.sites + 1))
    per_call = correlations._states_per_call(len(keep))
    values, residuals, amplitudes, start = [], [], [], None
    for lo in range(0, deltas.size, per_call):
        stack, states = deltas[lo : lo + per_call], []
        for k in range(0, stack.size, block):
            c, energies, residual = _sector_ground(template, stack[k : k + block], start)
            start = c[-1]  # warm start of the next block
            residuals.append(residual / np.maximum(1.0, np.abs(energies)))
            amplitudes.append(c.min(axis=1))
            states.append(_group_states(_embed(template, c), template.sites, keep))
        values.extend(measure(np.concatenate(states)))
    values = np.array(values)
    return ScanResult(
        deltas=deltas,
        values=values,
        derivative=central_difference(deltas, values),
        max_residual=float(np.concatenate(residuals).max()),
        min_amplitude=float(np.concatenate(amplitudes).min()),
        sector_dim=start.size,
    )


def gqd_scan(
    template: ChainSpec,
    deltas: Sequence[float],
    group: SpinGroup,
    strategy: str,
) -> ScanResult:
    """Global discord of a spin group across the coupling grid, at a fixed basis strategy:
    the group states are validated and scored in stacks of ``correlations._states_per_call``."""
    if strategy not in SCAN_STRATEGIES:
        raise ValueError(f"scan strategy must be one of {SCAN_STRATEGIES}, got {strategy!r}")
    keep = group.qubit_indices(template.sites)  # validate group against chain size now
    dims = (2,) * len(keep)

    def measure(matrices: np.ndarray) -> np.ndarray:
        return correlations.fixed_gqd(matrices, dims, strategy)

    return _scan(template, deltas, keep, measure)


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
    """Asymmetric discord of a spin pair across the coupling grid, one minimization a point."""
    keep = pair_qubits(pair_kind)

    def measure(matrices: np.ndarray) -> list[float]:
        return [correlations.discord_asymmetric(DensityOperator(m, (2, 2)))
                for m in matrices]

    return _scan(template, deltas, keep, measure)
