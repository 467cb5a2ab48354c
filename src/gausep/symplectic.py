"""Phase-space primitives for bipartite multimode Gaussian states.

Conventions used throughout the package:

* quadrature ordering is interleaved, ``(x_1, p_1, ..., x_n, p_n)``, with all
  modes of subsystem A before all modes of subsystem B;
* hbar = 1, so the vacuum covariance matrix is ``I/2``;
* the canonical commutator is ``[xi_j, xi_k] = i Omega_jk`` where ``Omega`` is
  the symplectic form returned by :func:`build_form`.

A covariance matrix ``V`` describes a physical state iff the Hermitian matrix
``V + (i/2) Omega`` is positive semidefinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative PSD tolerance: thresholds on minimum eigenvalues are taken
# relative to the largest covariance entry.
PSD_TOL = 1e-9

_MODE_FORM = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class ModeLayout:
    """Bipartition of modes: ``n_a`` modes on side A, ``n_b`` on side B."""

    n_a: int
    n_b: int = 0

    def __post_init__(self) -> None:
        if self.n_a < 1 or self.n_b < 0:
            raise ValueError(f"invalid mode counts ({self.n_a}, {self.n_b})")

    @property
    def n_modes(self) -> int:
        return self.n_a + self.n_b

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    @property
    def dim_a(self) -> int:
        return 2 * self.n_a

    @property
    def dim_b(self) -> int:
        return 2 * self.n_b


def mode_form(n_modes: int = 1) -> np.ndarray:
    """Symplectic form of ``n_modes`` modes in interleaved ordering."""
    if n_modes < 0:
        raise ValueError("n_modes must be nonnegative")
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _MODE_FORM
    return out


def build_form(layout: ModeLayout) -> np.ndarray:
    """Full symplectic form ``Omega`` for a bipartite layout (A block first)."""
    return mode_form(layout.n_modes)


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal ``a (+) b``, the A block first.

    Two-block form of ``scipy.linalg.block_diag``, which costs about 30 times
    as much per call on the small matrices of this package.
    """
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def _check_square(m: np.ndarray, dim: int, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must have shape ({dim}, {dim}), got {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric covariance matrix of quadratures together with its layout."""

    matrix: np.ndarray
    layout: ModeLayout

    def __post_init__(self) -> None:
        m = _check_square(self.matrix, self.layout.dim, "covariance matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance matrix entries must be finite")
        scale = max(1.0, np.abs(m).max())
        if np.abs(m - m.T).max() > 1e-8 * scale:
            raise ValueError("covariance matrix is not symmetric")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))

    @classmethod
    def vacuum(cls, layout: ModeLayout) -> "CovarianceMatrix":
        return cls(0.5 * np.eye(layout.dim), layout)

    def block_a(self) -> np.ndarray:
        d = self.layout.dim_a
        return self.matrix[:d, :d]

    def block_b(self) -> np.ndarray:
        d = self.layout.dim_a
        return self.matrix[d:, d:]

    def block_ab(self) -> np.ndarray:
        d = self.layout.dim_a
        return self.matrix[:d, d:]


@dataclass(frozen=True, eq=False)
class WilliamsonDecomposition:
    """Symplectic congruence ``S V S^T = diag(nu_1, nu_1, ..., nu_n, nu_n)``."""

    s: np.ndarray
    nu: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        return np.repeat(self.nu, 2)


def is_physical(v: CovarianceMatrix) -> bool:
    """Check the uncertainty relation ``V + (i/2) Omega >= 0``.

    The minimum eigenvalue of the Hermitian test matrix may be as low as
    ``-PSD_TOL * max|V|``.
    """
    return bool(physicality_margin(v) >= -PSD_TOL * np.abs(v.matrix).max())


def physicality_margin(v: CovarianceMatrix) -> float:
    """Minimum eigenvalue of ``V + (i/2) Omega``; negative means unphysical."""
    return float(np.linalg.eigvalsh(v.matrix + 0.5j * build_form(v.layout))[0])


def symplectic_spectrum(v: CovarianceMatrix) -> np.ndarray:
    """Symplectic eigenvalues: moduli of the eigenvalues of ``i Omega V``.

    The eigenvalues of ``i Omega V`` come in ``+-nu`` pairs for symmetric
    positive semidefinite ``V``; each pair is reported once, sorted in
    descending order.
    """
    omega = build_form(v.layout)
    ev = np.linalg.eigvals(omega @ v.matrix)
    moduli = np.sort(np.abs(ev))[::-1]
    return moduli[::2].copy()


def williamson(v: CovarianceMatrix) -> WilliamsonDecomposition:
    """Williamson normal form of a positive definite covariance matrix.

    Returns ``S`` (symplectic, ``S Omega S^T = Omega``) and the symplectic
    eigenvalues ``nu`` sorted descending, such that ``S V S^T`` is the diagonal
    matrix with each ``nu_k`` repeated twice.  The decomposition is obtained
    from the eigenvectors of ``i Omega V`` (computed through the equivalent
    Hermitian pencil ``V^(1/2) (i Omega) V^(1/2)``), with the symplectic basis
    re-orthonormalized explicitly.  Ties between degenerate symplectic
    eigenvalues are broken deterministically: eigenvector phases are fixed on
    the dominant component, and members of a degenerate group are ordered by
    ascending phase angle of their dominant component (component index first).
    """
    s, nu = _williamson_matrix(v.matrix, build_form(v.layout))
    return WilliamsonDecomposition(s=s, nu=nu)


def _williamson_matrix(m: np.ndarray, omega: np.ndarray):
    """Array-level Williamson routine, shared with the dynamics module."""
    dim = m.shape[0]
    n = dim // 2
    w_eig, e_vec = np.linalg.eigh(m)
    if w_eig[0] <= 0:
        raise ValueError("williamson requires a positive definite matrix")
    sqrt_m = (e_vec * np.sqrt(w_eig)) @ e_vec.T
    kernel = sqrt_m @ (1j * omega) @ sqrt_m
    lam, psi = np.linalg.eigh(kernel)
    # positive branch; the negative branch is its complex conjugate
    order = np.argsort(lam)[::-1]
    lam = lam[order][:n]
    psi = psi[:, order][:, :n]

    dom_index = np.empty(n, dtype=int)
    dom_angle = np.empty(n)
    for k in range(n):
        j = int(np.argmax(np.abs(psi[:, k])))
        theta = np.angle(psi[j, k])
        psi[:, k] = psi[:, k] * np.exp(-1j * theta)
        dom_index[k] = j
        dom_angle[k] = theta
    # deterministic tie-break inside degenerate groups
    scale = max(lam[0], 1.0)
    key = np.round(lam / (1e-10 * scale)).astype(np.int64)
    perm = np.lexsort((dom_angle, dom_index, -key))
    lam, psi = lam[perm], psi[:, perm]

    phi = sqrt_m @ psi
    t = np.empty((dim, dim))
    for k in range(n):
        c = np.sqrt(2.0 / lam[k])
        t[:, 2 * k] = c * phi[:, k].real
        t[:, 2 * k + 1] = -c * phi[:, k].imag
    t = _symplectic_gram_schmidt(t, omega)
    # exact symplectic inverse: S = T^-1 = Omega^T T^T Omega
    s = omega.T @ t.T @ omega
    return s, lam.copy()


def _symplectic_gram_schmidt(t: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Re-orthonormalize column pairs of ``t`` against the skew product."""
    t = t.copy()
    n = t.shape[1] // 2
    for k in range(n):
        x, p = t[:, 2 * k], t[:, 2 * k + 1]
        for j in range(k):
            xj, pj = t[:, 2 * j], t[:, 2 * j + 1]
            x = x - (x @ omega @ pj) * xj + (x @ omega @ xj) * pj
            p = p - (p @ omega @ pj) * xj + (p @ omega @ xj) * pj
        pairing = x @ omega @ p
        if abs(pairing) < 1e-12:
            raise ValueError("symplectic basis degenerated during cleanup")
        t[:, 2 * k] = x
        t[:, 2 * k + 1] = p / pairing
    return t


def partial_transpose(v: CovarianceMatrix) -> CovarianceMatrix:
    """Momentum-sign flip on every mode of subsystem B."""
    signs = np.ones(v.layout.dim)
    for j in range(v.layout.n_b):
        signs[v.layout.dim_a + 2 * j + 1] = -1.0
    m = v.matrix * np.outer(signs, signs)
    return CovarianceMatrix(m, v.layout)
