"""Discord-family correlation functionals.

Mutual information, measurement-conditional entropy, asymmetric and
symmetric bipartite discord, and the multipartite global discord

    S(rho || Phi(rho)) - sum_j S(rho_j || Phi_j(rho_j))

evaluated at a fixed product basis or minimized over all product bases.
Because Phi(rho) is diagonal in the measurement basis and dephasing
preserves that diagonal, each relative entropy reduces to an entropy
difference S(Phi(.)) - S(.), which is how values are computed here.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import measurement
from .core import (
    DensityOperator,
    partial_trace,
    shannon_entropy,
    trace_out,
    validate_densities,
    von_neumann_entropy,
)
from .measurement import LocalBasis, ProductBasis

STRATEGIES = ("fixed-z", "fixed-x", "reduced-eigenbasis", "minimize")

_GRID_POINTS = 9  # theta and phi values per qubit on the coarse grid
_COARSE_BUDGET = 6561  # coarse rows: the full grid while 81**n fits, else a seeded sample
_MAX_EVALUATIONS = 200_000  # a run that would score more objective rows stops unconverged
_MULTISTARTS = 8  # distinct coarse points refined in lockstep, one objective call per round
_GTOL = 1e-8  # a start converges once its gradient's max-norm is at most this ...
_FTOL = 1e-15  # ... or once an accepted step lowers its value by at most this relative amount
# A line search that finds no decrease converges only when |gradient|_inf <= this.
# Where a minimum sits at a vanishing outcome probability (pure states), p log p is
# not smooth and the central difference reads up to ~2e-7 at the minimum.
_STALL_GTOL = 1e-6
_FD_STEP = 1e-5  # central-difference step of the refinement gradient, in radians
_ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking line search
_MIN_STEP = 1e-10  # radians: a line search whose step moves no angle further has found no decrease
# Rows x 4**n_pairs per objective call.  The contraction's intermediates take about
# 9 bytes per element, so a call stays near 2.3 MB: 16,384 rows at n = 2, 1,024 at
# n = 4 (the fastest per row measured there) and 4 at n = 8.
_ELEMENT_BUDGET = 2**18
# (theta, phi) of the z, x and y bases: the first starts of every minimization, in
# this order, which breaks ties between equal values.
_AXIS_ANGLES = ((0.0, 0.0), (0.5 * math.pi, 0.0), (0.5 * math.pi, 0.5 * math.pi))


@dataclass(frozen=True)
class GqdResult:
    value: float
    basis: ProductBasis
    strategy: str
    converged: bool
    evaluations: int

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.value < -1e-9:
            raise ValueError(f"global discord must be non-negative, got {self.value}")


def _qubit_unitaries(x: np.ndarray) -> np.ndarray:
    """Angle rows x[B, 2n] -> per-qubit unitaries u[n, B, 2, 2] (``measurement.qubit_unitary``)."""
    return measurement.qubit_unitary(x[:, 0::2].T, x[:, 1::2].T)


@functools.lru_cache(maxsize=32)
def _marginal_map(dims: tuple[int, ...]) -> np.ndarray:
    """0/1 matrix from a distribution over product outcomes to its local marginals."""
    local = np.indices(dims).reshape(len(dims), -1)  # local outcome of each global one
    out = np.zeros((local.shape[1], sum(dims)))
    out[np.arange(local.shape[1]), local + np.cumsum((0,) + dims[:-1])[:, None]] = 1.0
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _operator_basis(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal Hermitian basis G[mu] of d x d operators, with its pairs i < j.

    mu runs over the d diagonal units E_ii, then (E_ij + E_ji)/sqrt2 and then
    (-i E_ij + i E_ji)/sqrt2, each in pair order.  Returns (G, i, j).
    """
    i, j = np.triu_indices(d, 1)
    g = np.zeros((d * d, d, d), dtype=complex)
    g[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    sym, asym = d + np.arange(len(i)), d + len(i) + np.arange(len(i))
    g[sym, i, j] = g[sym, j, i] = math.sqrt(0.5)
    g[asym, i, j], g[asym, j, i] = -1j * math.sqrt(0.5), 1j * math.sqrt(0.5)
    g.flags.writeable = i.flags.writeable = j.flags.writeable = False
    return g, i, j


def _outcome_coefficients(u: np.ndarray) -> np.ndarray:
    """Real c[..., mu, k] = <u_k|G_mu|u_k> for a (..., d, d) stack of bases with columns u_k:
    |u_ik|**2, then sqrt2 Re and sqrt2 Im of conj(u_ik) u_jk for each pair i < j."""
    _, i, j = _operator_basis(u.shape[-1])
    z = u[..., i, :].conj() * u[..., j, :] * math.sqrt(2.0)
    return np.concatenate([u.real**2 + u.imag**2, z.real, z.imag], axis=-2)


@functools.cache
def _grid_table() -> tuple[np.ndarray, np.ndarray]:
    """The coarse grid's 81 (theta, phi) pairs and their (81, 4, 2) outcome coefficients,
    built on first use by the calls that score an angle row (``_qubit_unitaries``)."""
    thetas = np.linspace(0.0, math.pi, _GRID_POINTS, endpoint=False)
    phis = np.linspace(0.0, 2.0 * math.pi, _GRID_POINTS, endpoint=False)
    pairs = np.array([(t, p) for t in thetas for p in phis])
    coeffs = _outcome_coefficients(measurement.qubit_unitary(pairs[:, 0], pairs[:, 1]))
    pairs.flags.writeable = coeffs.flags.writeable = False
    return pairs, coeffs


class _GqdContext:
    """Per-state precomputation so basis sweeps only pay for the basis change, for a stack
    of P states over the same subsystems: each state rho as its real coordinates
    T[mu_1..mu_n] = Tr(rho G_mu_1 x ... x G_mu_n), rho = sum_mu T_mu G_mu, one row of
    ``coords`` (P, prod d^2), and its basis-free part in ``offset`` (P,)."""

    def __init__(self, matrices: np.ndarray, eigenvalues: np.ndarray, dims: tuple[int, ...]):
        """``matrices`` (P, D, D) and their ``eigenvalues`` (P, D), validated by
        ``validate_densities``, over subsystems of dimensions ``dims``."""
        self.dims = dims
        n, count = len(dims), len(matrices)
        # Pair each subsystem's ket and bra index (a, b), then map one pair axis per step
        # to the coordinates conj(G_mu[a, b]) and move it last: n steps restore the order.
        t = matrices.reshape((count,) + dims + dims)
        t = t.transpose([0] + [1 + a for q in range(n) for a in (q, n + q)])
        for d in dims:
            basis = _operator_basis(d)[0].reshape(d * d, -1).T.conj()
            t = t.reshape(count, d * d, -1).swapaxes(1, 2) @ basis
        self.coords = np.ascontiguousarray(t.real).reshape(count, -1)
        self.groups = {d: [q for q in range(n) if dims[q] == d] for d in dict.fromkeys(dims)}
        # sum_j S(rho_j) - S(rho), the part no basis changes, with one entropy call per local
        # dimension of its (P * n_d, d, d) stack of marginals
        self.offset = -shannon_entropy(eigenvalues)
        for d, members in self.groups.items():
            stack = np.stack([trace_out(matrices, dims, [j]) for j in members], axis=1)
            self.offset += von_neumann_entropy(stack.reshape(-1, d, d)).reshape(count, -1).sum(-1)
        self.marginals = _marginal_map(dims)

    @classmethod
    def of(cls, rho: DensityOperator) -> "_GqdContext":
        """The context of one state, P = 1."""
        return cls(rho.matrix[None], rho.eigenvalues[None], rho.dims)

    def values(self, unitaries: Sequence[np.ndarray]) -> np.ndarray:
        """Integrand at B product bases; ``unitaries[j]`` is a (B, d_j, d_j) stack.

        p[b, k_1..k_n] = sum_mu T_mu prod_q c_q[b, mu_q, k_q], one batched matmul per
        subsystem that sums the leading coordinate axis and appends its outcome axis.
        The local distributions are the marginals of p: one entropy of them side by side.
        One state scores B bases, and P states score one basis (B = 1): P values.  P states
        at P bases (B = P) pair row by row, since each step's (P, X, d^2) @ (P, d^2, d)
        matmul does: P values, the p-th of state p at basis p.
        """
        coeffs = {}
        for members in self.groups.values():
            stack = np.stack([unitaries[q] for q in members])
            coeffs.update(zip(members, _outcome_coefficients(stack)))
        ordered = [coeffs[q] for q in range(len(self.dims))]
        return self._integrand(self._contract(self.coords, ordered))

    def grid_values(self, idx: np.ndarray) -> np.ndarray:
        """``values`` of one state (P = 1) at B coarse-grid qubit bases, idx[B, n] index rows
        into ``_grid_table()``.

        The coefficients are gathered from the table, bitwise those ``values`` computes.
        Qubit 0 is contracted once per run of rows with the same first basis, and the run's
        qubit-1 step broadcasts that result: rows sorted by first basis share it most.
        """
        table = _grid_table()[1]
        ends = np.flatnonzero(np.diff(idx[:, 0])) + 1
        lo, hi = [0, *ends.tolist()], [*ends.tolist(), len(idx)]
        shared = self._contract(self.coords, [table[idx[lo, 0]]])
        shared = shared.reshape(len(lo), 4, -1).swapaxes(1, 2)  # as qubit 1's step reshapes p
        second = table[idx[:, 1]]
        p = np.empty((len(idx), shared.shape[1], 2))
        for run, a, b in zip(shared, lo, hi):
            np.matmul(run, second[a:b], out=p[a:b])
        return self._integrand(self._contract(p, [table[q] for q in idx[:, 2:].T]))

    @staticmethod
    def _contract(p: np.ndarray, coeffs: Sequence[np.ndarray]) -> np.ndarray:
        """Contract the next subsystems' coordinate axes, leading first, into outcome axes."""
        for c in coeffs:
            d = c.shape[-1]
            p = p.reshape(len(p), d * d, -1).swapaxes(1, 2) @ c
        return p

    def _integrand(self, p: np.ndarray) -> np.ndarray:
        p = np.maximum(p.reshape(len(p), -1), 0.0)
        return shannon_entropy(p) - shannon_entropy(p @ self.marginals) + self.offset


def _states_per_call(n: int) -> int:
    """States of n qubits that one ``fixed_gqd`` call holds.  Its validation and coordinate
    build take about 48 bytes per coordinate, five times the contraction's 9, so a stack gets
    a quarter of _ELEMENT_BUDGET and peaks near 3 MB, as one octet state alone does: 256
    quartets, 16 sextets or one octet a call."""
    return max(1, _ELEMENT_BUDGET // 4 ** (n + 1))


def fixed_gqd(matrices: np.ndarray, dims: tuple[int, ...], strategy: str) -> np.ndarray:
    """``gqd(rho, strategy).value``, up to rounding, of every state of a (P, D, D) stack,
    for the strategies "fixed-z" and "fixed-x".

    The stack is validated in one ``validate_densities`` call, and the strategy's one
    basis is scored for all P states in one contraction, the states on its row axis.
    A call holds P * D^2 coordinates: scans pass at most ``_states_per_call(n)`` states
    of n qubits.  Raises ValueError, as ``GqdResult`` does, below -1e-9.
    """
    matrices, eigenvalues = validate_densities(matrices)
    basis = _fixed_basis(dims, strategy)
    ctx = _GqdContext(matrices, eigenvalues, dims)
    values = ctx.values([b.vectors[None] for b in basis.locals])
    if values.min() < -1e-9:
        raise ValueError(f"global discord must be non-negative, got {values.min()}")
    return values


def gqd_at_basis(rho: DensityOperator, basis: ProductBasis) -> float:
    """Global discord integrand at one fixed product basis, in bits."""
    basis.check_dims(rho.dims)
    return float(_GqdContext.of(rho).values([b.vectors[None] for b in basis.locals])[0])


def mutual_information(rho: DensityOperator, cut: Sequence[int]) -> float:
    """I = S(A) + S(B) - S(AB) for the bipartition (cut, complement)."""
    n = rho.n_subsystems
    a = sorted(set(int(k) for k in cut))
    if not a or len(a) == len(rho.dims) or any(k < 0 or k >= n for k in a):
        raise ValueError(f"cut {list(cut)} does not split {n} subsystems into two nonempty groups")
    b = [k for k in range(n) if k not in a]
    s_a = von_neumann_entropy(partial_trace(rho, a))
    s_b = von_neumann_entropy(partial_trace(rho, b))
    return float(s_a + s_b - von_neumann_entropy(rho))


def _conditional_entropy_tensor(t: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sum_j p_j S(rho_{A|j}) given rho reshaped to (dA, dB, dA, dB).

    ``vectors`` is one basis (columns) or a (..., dB, dB) stack of them.  The
    blocks p_j rho_{A|j} are left unnormalized: the sum is H(their joint
    spectrum) - H(p), so outcomes of zero probability need no special case.
    """
    blocks = np.einsum("abcd,...bk,...dk->...kac", t, vectors.conj(), vectors)
    spectrum = np.linalg.eigvalsh(blocks)
    joint = spectrum.reshape(spectrum.shape[:-2] + (-1,))
    return shannon_entropy(joint) - shannon_entropy(np.einsum("...aa->...", blocks).real)


def _minimize_over_angles(
    objective: Callable[[np.ndarray], np.ndarray],
    n_pairs: int,
    starts: Sequence[np.ndarray] = (),
    seed: int = 0,
    on_grid: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, np.ndarray, int, bool]:
    """Coarse grid + lockstep multistart BFGS over n_pairs (theta, phi) pairs.

    ``objective`` maps angle rows x[B, 2 * n_pairs] to B values.  ``on_grid``
    maps coarse-grid index rows idx[B, n_pairs] into ``_grid_table()``'s pairs
    to the values ``objective`` gives their angles; by default it gathers the
    angles and calls ``objective``.  Grid rows reach it sorted stably by their
    first index, so that each call holds few first bases, and their scores
    return to drawn order.  Every row
    stack, the starts and grid included, is scored in calls of at most
    ``_ELEMENT_BUDGET // 4**n_pairs`` rows.  The ``_MULTISTARTS`` best distinct
    candidates (``starts``, then the coarse grid) are refined together: each
    round scores every live start's trial point and its +-_FD_STEP probes
    along every angle (``1 + 4 * n_pairs`` rows per start, its value and
    central-difference gradient) in one stack.  Every start keeps its own
    inverse Hessian and backtracking Armijo line search.  A start converges
    when max|g| <= _GTOL or an accepted step decreases the value by a
    relative _FTOL or less; a line search that finds no decrease converges
    only when max|g| <= _STALL_GTOL.  Every row is counted in the
    evaluations, and a round that would take them past _MAX_EVALUATIONS
    stops the run unconverged.  The best row seen anywhere, probe rows
    included, is returned.  Returns (best value, best angles, evaluations,
    converged).  Deterministic for a fixed ``seed``: enumeration order is
    fixed and only the sampled grid draws, with that seed.
    """
    pairs = _grid_table()[0]
    n_combo = len(pairs)
    if n_combo**n_pairs <= _COARSE_BUDGET:
        idx = np.indices((n_combo,) * n_pairs).reshape(n_pairs, -1).T
    else:
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n_combo, size=(_COARSE_BUDGET, n_pairs))
    starts = np.reshape(starts, (-1, 2 * n_pairs))[:_MAX_EVALUATIONS]
    exhausted = len(starts) + len(idx) > _MAX_EVALUATIONS
    idx = idx[:_MAX_EVALUATIONS - len(starts)]
    candidates = np.concatenate([starts, pairs[idx].reshape(len(idx), 2 * n_pairs)])
    if on_grid is None:
        def on_grid(rows: np.ndarray) -> np.ndarray:
            return objective(pairs[rows].reshape(len(rows), -1))

    chunk = max(1, _ELEMENT_BUDGET // 4**n_pairs)
    evaluations, best_value, best_x = 0, math.inf, candidates[0]

    def in_calls(f: Callable[[np.ndarray], np.ndarray], rows: np.ndarray) -> np.ndarray:
        calls = [f(rows[k:k + chunk]) for k in range(0, len(rows), chunk)]
        return np.concatenate([np.empty(0), *calls])

    def score(rows: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
        """Count and track the best of rows, scored here unless their ``values`` are given."""
        nonlocal evaluations, best_value, best_x
        if values is None:
            values = in_calls(objective, rows)
        evaluations += len(rows)
        k = int(np.argmin(values))
        if values[k] < best_value:
            best_value, best_x = float(values[k]), rows[k].copy()
        return values

    order = np.argsort(idx[:, 0], kind="stable")  # an enumerated grid is sorted already
    grid_values = np.empty(len(idx))
    grid_values[order] = in_calls(on_grid, idx[order])
    scores = score(candidates, np.concatenate([in_calls(objective, starts), grid_values]))
    if exhausted:
        return best_value, best_x, evaluations, False
    distinct: dict[tuple[float, ...], np.ndarray] = {}  # best (value, order) first
    for k in np.argsort(scores, kind="stable"):
        distinct.setdefault(tuple(np.round(candidates[k], 12)), candidates[k])
        if len(distinct) == _MULTISTARTS:
            break

    m = 2 * n_pairs
    steps = _FD_STEP * np.eye(m)
    rows_per_point = 1 + 2 * m

    def probe(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and central-difference gradients at a (S, m) stack of points."""
        centre = points[:, None]
        rows = np.concatenate([centre, centre + steps, centre - steps], axis=1)
        values = score(rows.reshape(-1, m)).reshape(len(points), rows_per_point)
        return values[:, 0], (values[:, 1:1 + m] - values[:, 1 + m:]) / (2.0 * _FD_STEP)

    x = np.array(list(distinct.values()))
    if _MAX_EVALUATIONS - evaluations < len(x) * rows_per_point:
        return best_value, best_x, evaluations, False
    f, g = probe(x)
    h = np.tile(np.eye(m), (len(x), 1, 1))  # inverse Hessian of each start
    fresh = np.ones(len(x), dtype=bool)  # no curvature pair yet: H is still the identity
    d, slope, step = np.empty_like(x), np.empty(len(x)), np.empty(len(x))
    live = np.abs(g).max(axis=1) > _GTOL
    stalled = np.zeros(len(x), dtype=bool)  # line search ended without a decrease

    def aim(k: np.ndarray) -> None:
        """Quasi-Newton direction and first trial step of starts k; a fresh start moves 1 rad."""
        d[k] = -np.einsum("sij,sj->si", h[k], g[k])
        reset = k[np.einsum("si,si->s", g[k], d[k]) >= 0.0]  # H lost positive definiteness
        h[reset], fresh[reset], d[reset] = np.eye(m), True, -g[reset]
        slope[k] = np.einsum("si,si->s", g[k], d[k])
        step[k] = np.where(fresh[k], 1.0 / np.linalg.norm(d[k], axis=1), 1.0)

    aim(np.flatnonzero(live))
    while live.any():
        k = np.flatnonzero(live)
        if _MAX_EVALUATIONS - evaluations < len(k) * rows_per_point:
            exhausted = True
            break
        trial = x[k] + step[k, None] * d[k]
        f_t, g_t = probe(trial)
        ok = f_t <= f[k] + _ARMIJO * step[k] * slope[k]

        rej, a = k[~ok], step[k[~ok]]
        # Minimizer of the quadratic through f, slope and the rejected trial, kept in [0.1, 0.5] a.
        excess = np.maximum(f_t[~ok] - f[rej] - a * slope[rej], 1e-300)
        step[rej] = a * np.clip(-slope[rej] * a / (2.0 * excess), 0.1, 0.5)
        gone = rej[step[rej] * np.abs(d[rej]).max(axis=1) < _MIN_STEP]
        stalled[gone], live[gone] = True, False

        acc = k[ok]
        s_vec, y_vec = trial[ok] - x[acc], g_t[ok] - g[acc]
        scale = np.maximum(np.maximum(np.abs(f[acc]), np.abs(f_t[ok])), 1.0)
        flat = f[acc] - f_t[ok] <= _FTOL * scale
        x[acc], f[acc], g[acc] = trial[ok], f_t[ok], g_t[ok]
        sy, yy = np.einsum("si,si->s", s_vec, y_vec), np.einsum("si,si->s", y_vec, y_vec)
        curved = sy > 1e-12 * np.linalg.norm(s_vec, axis=1) * np.sqrt(yy)
        upd, s_u, y_u, rho = acc[curved], s_vec[curved], y_vec[curved], 1.0 / sy[curved]
        # BFGS update; a start's first pair also scales its identity by s.y / y.y.
        first = (sy[curved] / yy[curved])[:, None, None] * np.eye(m)
        h[upd] = np.where(fresh[upd, None, None], first, h[upd])
        fresh[upd] = False
        v = np.eye(m) - rho[:, None, None] * s_u[:, :, None] * y_u[:, None, :]
        ss = s_u[:, :, None] * s_u[:, None, :]
        h[upd] = v @ h[upd] @ v.swapaxes(1, 2) + rho[:, None, None] * ss
        done = flat | (np.abs(g[acc]).max(axis=1) <= _GTOL)
        live[acc[done]] = False
        aim(acc[~done])

    stalled_ok = np.abs(g).max(axis=1) <= _STALL_GTOL
    converged = not exhausted and bool(np.all(~stalled | stalled_ok))
    return best_value, best_x, evaluations, converged


def _angles_of_qubit_column(v: np.ndarray) -> tuple[float, float]:
    """Bloch angles of the basis containing the given qubit vector."""
    a, b = complex(v[0]), complex(v[1])
    if abs(a) < 1e-12 or abs(b) < 1e-12:
        return 0.0, 0.0
    # both moduli are positive here, so atan2 < pi/2 and theta < pi
    theta = 2.0 * math.atan2(abs(b), abs(a))
    return theta, (np.angle(b) - np.angle(a)) % (2.0 * math.pi)


def _require_qubits(dims: tuple[int, ...], what: str) -> None:
    if any(d != 2 for d in dims):
        raise ValueError(f"{what} requires qubit subsystems, got dims {dims}")


def _fixed_basis(dims: tuple[int, ...], strategy: str) -> ProductBasis:
    """The one basis of "fixed-z" or "fixed-x" on subsystems of dimensions ``dims``."""
    if strategy == "fixed-z":
        return ProductBasis(tuple(measurement.computational_basis(d) for d in dims))
    if strategy == "fixed-x":
        _require_qubits(dims, "fixed-x strategy")
        return measurement.all_x(len(dims))
    raise ValueError(f"unknown fixed strategy {strategy!r}")


def _structured_starts(rho: DensityOperator) -> list[np.ndarray]:
    """All-z, all-x, all-y, and the reduced-eigenbasis angles."""
    n = rho.n_subsystems
    starts = [np.array(pair * n) for pair in _AXIS_ANGLES]
    reduced = []
    for j in range(n):
        local = measurement.reduced_eigenbasis(rho, j)
        reduced.extend(_angles_of_qubit_column(local.vectors[:, 0]))
    starts.append(np.array(reduced))
    return starts


def gqd(rho: DensityOperator, strategy: str = "minimize", seed: int = 0) -> GqdResult:
    """Global quantum discord of a multipartite state.

    ``minimize`` searches over per-qubit projective bases (two angles per
    qubit); ``seed`` draws its coarse sample, which only 3 or more qubits
    take (fewer enumerate the full grid).  The fixed strategies evaluate a
    single prescribed basis, and ``reduced-eigenbasis`` measures each
    subsystem in the eigenbasis of its reduced operator.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if rho.n_subsystems < 2:
        raise ValueError("global discord needs at least two subsystems")

    if strategy != "minimize":
        if strategy == "reduced-eigenbasis":
            n = rho.n_subsystems
            basis = ProductBasis(tuple(measurement.reduced_eigenbasis(rho, j) for j in range(n)))
        else:
            basis = _fixed_basis(rho.dims, strategy)
        value = gqd_at_basis(rho, basis)
        return GqdResult(value=value, basis=basis, strategy=strategy,
                         converged=True, evaluations=1)

    _require_qubits(rho.dims, "minimize strategy")
    ctx = _GqdContext.of(rho)
    value, x, evaluations, converged = _minimize_over_angles(
        lambda rows: ctx.values(_qubit_unitaries(rows)),
        rho.n_subsystems, _structured_starts(rho), seed, ctx.grid_values,
    )
    basis = ProductBasis(tuple(LocalBasis(u) for u in _qubit_unitaries(x[None])[:, 0]))
    return GqdResult(value=value, basis=basis, strategy="minimize",
                     converged=converged, evaluations=evaluations)


def discord_asymmetric(rho_ab: DensityOperator) -> float:
    """Bipartite quantum discord with the measurement on the last subsystem.

    Minimizes I - [S(A) - S(AB|{Pi_B})] = S(B) - S(AB) + S(AB|{Pi_B}) over
    projective qubit bases on B.
    """
    return _discord_asymmetric(rho_ab)[0]


def _discord_asymmetric(rho_ab: DensityOperator) -> tuple[float, bool]:
    """``discord_asymmetric`` and whether its minimization converged."""
    dims = rho_ab.dims
    if len(dims) < 2 or dims[-1] != 2:
        raise ValueError("the measured subsystem must be a qubit")

    d_b = dims[-1]
    d_a = rho_ab.total_dim // d_b
    t = rho_ab.matrix.reshape(d_a, d_b, d_a, d_b)
    s_b = von_neumann_entropy(partial_trace(rho_ab, [len(dims) - 1]))
    offset = s_b - von_neumann_entropy(rho_ab)
    rows = max(1, _ELEMENT_BUDGET // (2 * d_a * d_a))  # a row's blocks hold 2 d_A^2 elements

    def objective(x: np.ndarray) -> np.ndarray:
        u = _qubit_unitaries(x)[0]
        calls = [_conditional_entropy_tensor(t, u[k:k + rows]) for k in range(0, len(u), rows)]
        return offset + np.concatenate(calls)

    value, _, _, converged = _minimize_over_angles(objective, 1, _AXIS_ANGLES)
    return value, converged


def symmetric_discord(rho_ab: DensityOperator) -> float:
    """Two-qubit symmetric discord: min over product bases of I(rho) - I(Phi(rho)).

    I(rho) - I(Phi(rho)) is the global discord integrand for two subsystems, so
    this is ``gqd``'s minimization; tests assert the dual form row by row.
    """
    dims = rho_ab.dims
    if len(dims) != 2 or any(d != 2 for d in dims):
        raise ValueError("symmetric discord is implemented for two qubits")
    return gqd(rho_ab, "minimize").value
