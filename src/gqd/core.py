"""Dense linear algebra and entropy primitives for multi-subsystem density operators.

Index convention (used consistently by every module in this package): the
first subsystem varies slowest, i.e. ``kron(a, b)`` places ``a`` on
subsystem 0.  All entropies are in bits (log base 2).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Tolerance policy, shared across the package.
HERMITIAN_TOL = 1e-10     # max entrywise |m - m^dagger|
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-10        # eigenvalues in (EIG_FLOOR, 0) are clamped to 0; below is an error
KERNEL_EIG_TOL = 1e-12    # sigma eigenvalues below this belong to the kernel
KERNEL_MASS_TOL = 1e-9    # rho mass on sigma's kernel above this => infinite relative entropy
DEGENERACY_GAP = 1e-9     # adjacent eigenvalues closer than this are treated as degenerate

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def validate_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Ordered local Hilbert-space dimensions of a composite system, as a tuple of ints:
    at least one subsystem, each of dimension >= 2."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("need at least one subsystem")
    if any(d < 2 for d in dims):
        raise ValueError(f"every local dimension must be >= 2, got {dims}")
    return dims


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive matrix over subsystems of the local dimensions
    ``dims``, a plain tuple of ints checked by ``validate_dims``.

    Validated on construction by ``validate_densities``: Hermiticity and trace
    to 1e-10, minimum eigenvalue >= -1e-10.  The stored matrix is the exact Hermitian part
    0.5 (m + m^dagger) of the input, float64 when the input is real and
    complex128 otherwise.  The validated spectrum is kept as ``eigenvalues``.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        dims = validate_dims(self.dims)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] != math.prod(dims):
            raise ValueError(f"matrix side {m.shape[0]} does not match subsystem dims {dims}")
        m, w = validate_densities(m)
        m.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "eigenvalues", w)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)


def validate_densities(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check one density matrix or a (..., d, d) stack of them; return (matrices, spectra).

    Every matrix must be Hermitian and of unit trace to 1e-10, and no eigenvalue of
    its Hermitian part 0.5 (m + m^dagger) may lie below EIG_FLOOR; a failing check
    raises ValueError naming an offending value of the stack.  Returns those Hermitian
    parts, float64 for a real input and complex128 otherwise, and their ascending
    eigenvalues.
    """
    m = np.asarray(m)
    m = _as_hermitian_matrix(m.astype(np.result_type(m, np.float64), copy=False))
    m = 0.5 * (m + m.conj().swapaxes(-1, -2))
    tr = m.trace(axis1=-2, axis2=-1)
    off = abs(tr - 1.0) > TRACE_TOL
    if np.count_nonzero(off):
        raise ValueError(f"trace must be 1, got {np.extract(off, tr)[0]}")
    w = np.linalg.eigvalsh(m)
    if w.min() < EIG_FLOOR:
        raise ValueError(f"matrix is not positive (min eigenvalue {w.min():.3e})")
    return m, w


def eig_hermitian(m: "np.ndarray | DensityOperator"):
    """Eigendecomposition of a Hermitian matrix: ``.eigenvalues`` ascending, ``.eigenvectors``
    the orthonormal columns (numpy's ``EighResult``)."""
    return np.linalg.eigh(_as_hermitian_matrix(m))


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices; the first acts on the slowest-varying factor.

    (..., m, n) stacks give one product per matrix, their leading axes broadcast; each
    entry is the one product np.kron forms.
    """
    def pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
        t = a[..., :, None, :, None] * b[..., None, :, None, :]
        return t.reshape(t.shape[:-4] + (m * p, n * q))

    return functools.reduce(pair, mats[1:], np.array(mats[0]))


def _validate_keep(keep: Sequence[int], n: int) -> list[int]:
    keep = [int(k) for k in keep]
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep indices must be distinct, got {keep}")
    return keep


def trace_out(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Operators on the subsystems ``keep``, in that order, of a (..., D, D) stack over
    subsystems of dimensions ``dims``, the others traced out: one einsum over the ket and
    bra axes, where a traced subsystem's bra axis takes its ket axis's label.  No axis is
    permuted before the sum.  Real stays real; ``keep`` is not validated."""
    n, lead = len(dims), m.shape[:-2]
    bra = [n + k if k in keep else k for k in range(n)]
    t = np.einsum(m.reshape(lead + tuple(dims) * 2), [..., *range(n), *bra],
                  [..., *keep, *(n + k for k in keep)])
    d = math.prod([dims[k] for k in keep])
    return t.reshape(lead + (d, d))


def partial_trace(rho: DensityOperator, keep: Sequence[int]) -> DensityOperator:
    """Reduced operator on the kept subsystems (in ``keep`` order); trace preserved."""
    keep = _validate_keep(keep, rho.n_subsystems)
    sub = tuple(rho.dims[k] for k in keep)
    return DensityOperator(trace_out(rho.matrix, rho.dims, keep), sub)


def reduced_from_vector(psi: np.ndarray, dims: Iterable[int],
                        keep: Sequence[int]) -> DensityOperator:
    """Reduced density operator of a pure state without the full projector; real stays real."""
    dims = validate_dims(dims)
    n = len(dims)
    keep = _validate_keep(keep, n)
    rest = [k for k in range(n) if k not in keep]
    v = np.asarray(psi, dtype=float if np.isrealobj(psi) else complex).reshape(dims)
    v = np.transpose(v, keep + rest)
    sub = tuple(dims[k] for k in keep)
    a = v.reshape(math.prod(sub), -1)
    return DensityOperator(a @ a.conj().T, sub)


def _as_hermitian_matrix(rho: "DensityOperator | np.ndarray") -> np.ndarray:
    """The matrix (or (..., d, d) stack) of rho; raw arrays must be Hermitian to 1e-10."""
    if isinstance(rho, DensityOperator):
        return rho.matrix
    m = np.asarray(rho)
    herm = np.abs(m - m.conj().swapaxes(-1, -2)).max()
    if herm > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {herm:.3e})")
    return m


def basis_probabilities(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """diag(U^dagger m U), clipped to nonnegative reals: the outcome distribution of
    measuring m in the columns of u.  ``u`` is one unitary or a (..., D, D) stack.
    """
    return np.maximum(np.real((u.conj() * (m @ u)).sum(-2)), 0.0)


def shannon_entropy(p: np.ndarray) -> "float | np.ndarray":
    """-sum p log2 p over the last axis, with weights <= 0 contributing 0 (0 log 0 := 0).

    One weight vector gives a float; a (..., k) stack gives one entropy per row.
    """
    p = np.asarray(p, dtype=float)
    h = 0.0 - (p * np.log2(np.where(p > 0.0, p, 1.0))).sum(-1)
    return float(h) if h.ndim == 0 else h


def von_neumann_entropy(rho: "DensityOperator | np.ndarray") -> "float | np.ndarray":
    """S(rho) = -Tr rho log2 rho, in bits.

    One operator gives a float; a (..., d, d) stack gives one entropy per
    matrix.  Eigenvalues in (EIG_FLOOR, 0) count as 0; lower ones raise.  A
    DensityOperator's spectrum is the one computed when it was validated.
    """
    if isinstance(rho, DensityOperator):
        w = rho.eigenvalues
    else:
        w = np.linalg.eigvalsh(_as_hermitian_matrix(rho))
    if w.min() < EIG_FLOOR:
        raise ValueError(f"matrix is not positive (min eigenvalue {w.min():.3e})")
    return shannon_entropy(w)


def relative_entropy(rho: "DensityOperator | np.ndarray",
                     sigma: "DensityOperator | np.ndarray") -> "float | np.ndarray":
    """S(rho || sigma) = Tr(rho log2 rho - rho log2 sigma), in bits.

    One pair gives a float; (..., d, d) stacks of equal shape give one value per
    pair.  A value is ``math.inf`` where its rho has support on its sigma's kernel
    (eigenvalues of sigma below 1e-12, rho mass above 1e-9).
    """
    a = _as_hermitian_matrix(rho)
    b = _as_hermitian_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w_b, v_b = np.linalg.eigh(b)
    q = basis_probabilities(a, v_b)  # weight of rho along each eigenvector of sigma
    kernel = w_b < KERNEL_EIG_TOL
    tr_rho_log_sigma = (q * np.log2(np.where(kernel, 1.0, w_b))).sum(-1)
    tr_rho_log_rho = -von_neumann_entropy(rho)
    value = np.where((q * kernel).sum(-1) > KERNEL_MASS_TOL, math.inf,
                     tr_rho_log_rho - tr_rho_log_sigma)
    return float(value) if value.ndim == 0 else value
