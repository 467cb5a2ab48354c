"""Truncated number-basis oracle for the covariance-level machinery.

Everything else in this package works with first and second moments; this
module rebuilds the same dynamics as dense operators on a truncated Fock
space so results can be cross-checked against an implementation that shares
no code path with the Gaussian one.

* :func:`build_fock_generator` turns the quadratic Hamiltonian and noise
  forms into a Hermitian matrix plus quadrature Lindblad operators;
* :func:`lindblad_integrate` propagates a density matrix with classical RK4,
  guarding the truncation by the population of the highest level;
* :func:`kraus_average_step` applies one measurement and feed-forward channel
  as an explicit record average, done in the eigenbasis of the measured and
  fed quadratures where every Kraus factor is diagonal, so the average is an
  elementwise multiplier on the density matrix with the record integral
  evaluated by Gauss-Hermite quadrature;
* :func:`log_negativity_dense` evaluates entanglement from the partial
  transpose of the dense state.

The truncation is the only systematic error source, so cutoffs should be
chosen with the leakage report rather than by eye.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import expm

from .generators import SystemModel, hamiltonian_form, noise_form
from .locc import LoccProtocol, Rank1Channel
from .symplectic import CovarianceMatrix, ModeLayout

LEAKAGE_LIMIT = 1e-6
QUADRATURE_ORDERS = (20, 40, 60)


@dataclass(frozen=True, eq=False)
class FockSpace:
    """Truncated oscillator space: one or two modes at a common cutoff."""

    cutoff: int
    modes: int = 2

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        if self.modes not in (1, 2):
            raise ValueError("only one- and two-mode spaces are supported")

    @property
    def dim(self) -> int:
        return self.cutoff**self.modes

    def destroy(self) -> np.ndarray:
        return np.diag(np.sqrt(np.arange(1, self.cutoff)), 1)

    def position(self) -> np.ndarray:
        a = self.destroy()
        return (a + a.T) / np.sqrt(2.0)

    def momentum(self) -> np.ndarray:
        a = self.destroy()
        return 1j * (a.T - a) / np.sqrt(2.0)

    def quadratures(self) -> list[np.ndarray]:
        """Operators for (x_a, p_a[, x_b, p_b]) in the interleaved ordering."""
        x, p = self.position(), self.momentum()
        if self.modes == 1:
            return [x.astype(complex), p]
        eye = np.eye(self.cutoff)
        return [
            np.kron(x, eye).astype(complex),
            np.kron(p, eye),
            np.kron(eye, x).astype(complex),
            np.kron(eye, p),
        ]

    def vacuum(self) -> np.ndarray:
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho


@dataclass(frozen=True, eq=False)
class FockGenerator:
    """Dense master-equation pieces.

    ``half_generator`` is the precomputed non-Hermitian combination
    ``-iH - (1/2) sum_k q_k L_k^2`` so the right-hand side costs two matrix
    products plus one sandwich per Lindblad operator.  ``form_scale`` is the
    largest coefficient of the defining quadratic forms and controls the
    integrator step cap.
    """

    space: FockSpace
    hamiltonian: np.ndarray
    lindblads: tuple[tuple[float, np.ndarray], ...]
    half_generator: np.ndarray
    form_scale: float


def build_fock_generator(
    space: FockSpace, g_form: np.ndarray, q_form: np.ndarray
) -> FockGenerator:
    """Dense generator from the quadratic forms ``G`` and ``Q``.

    The Hamiltonian is ``(1/2) xi^T G xi`` evaluated on the quadrature
    operators; the noise form is diagonalized and each eigenvector becomes a
    Hermitian quadrature Lindblad operator at the eigenvalue rate.
    """
    quads = space.quadratures()
    n = len(quads)
    if g_form.shape != (n, n) or q_form.shape != (n, n):
        raise ValueError("form dimensions do not match the space")
    dim = space.dim
    h = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        for k in range(n):
            if g_form[j, k] != 0.0:
                h += 0.5 * g_form[j, k] * (quads[j] @ quads[k])
    h = 0.5 * (h + h.conj().T)
    rates, vecs = np.linalg.eigh(q_form)
    lindblads = []
    half = -1j * h
    for idx in range(n):
        rate = float(rates[idx])
        if rate < -1e-10 * max(1.0, rates.max()):
            raise ValueError("noise form is not positive semidefinite")
        if rate <= 0.0:
            continue
        op = np.zeros((dim, dim), dtype=complex)
        for j in range(n):
            op += vecs[j, idx] * quads[j]
        lindblads.append((rate, op))
        half = half - 0.5 * rate * (op @ op)
    return FockGenerator(
        space=space,
        hamiltonian=h,
        lindblads=tuple(lindblads),
        half_generator=half,
        form_scale=float(max(1.0, np.abs(g_form).max(), np.abs(q_form).max())),
    )


def fock_generator_from_model(model: SystemModel, cutoff: int) -> FockGenerator:
    if model.layout != ModeLayout(1, 1):
        raise ValueError("the dense oracle supports one mode per side")
    space = FockSpace(cutoff, modes=2)
    return build_fock_generator(space, hamiltonian_form(model), noise_form(model))


def lindblad_rhs(gen: FockGenerator, rho: np.ndarray) -> np.ndarray:
    """Master-equation right-hand side with Hermitian quadrature Lindblads."""
    out = gen.half_generator @ rho + rho @ gen.half_generator.conj().T
    for rate, op in gen.lindblads:
        out += rate * (op @ rho @ op)
    return out


def leakage(space: FockSpace, rho: np.ndarray) -> float:
    """Worst per-mode population of the highest retained Fock level."""
    c = space.cutoff
    pop = np.real(np.diag(rho))
    if space.modes == 1:
        return float(pop[-1])
    grid = pop.reshape(c, c)
    return float(max(grid[-1, :].sum(), grid[:, -1].sum()))


def lindblad_integrate(
    gen: FockGenerator,
    rho0: np.ndarray,
    t: float,
    dt: float | None = None,
    leakage_limit: float = LEAKAGE_LIMIT,
) -> np.ndarray:
    """RK4 propagation of the dense master equation.

    The step is capped at ``1e-3`` divided by the largest coefficient in the
    defining forms so stiffness tracks the model scale; each step hermitizes
    the state, and the final truncation leakage must stay below the limit.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    cap = 1e-3 / gen.form_scale
    step = cap if dt is None else min(dt, cap)
    if t == 0:
        return rho0.copy()
    n_steps = max(1, int(np.ceil(t / step)))
    h_step = t / n_steps
    rho = rho0.astype(complex)
    for _ in range(n_steps):
        k1 = lindblad_rhs(gen, rho)
        k2 = lindblad_rhs(gen, rho + 0.5 * h_step * k1)
        k3 = lindblad_rhs(gen, rho + 0.5 * h_step * k2)
        k4 = lindblad_rhs(gen, rho + h_step * k3)
        rho = rho + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    leak = leakage(gen.space, rho)
    if leak > leakage_limit:
        raise RuntimeError(
            f"truncation leakage {leak:.3e} exceeds {leakage_limit:.1e}; "
            "raise the cutoff"
        )
    return rho


def extract_covariance(space: FockSpace, rho: np.ndarray) -> CovarianceMatrix:
    """Symmetrized second moments (mean-subtracted) of a dense state."""
    quads = space.quadratures()
    n = len(quads)
    means = np.array([np.real(np.trace(q @ rho)) for q in quads])
    v = np.zeros((n, n))
    for j in range(n):
        for k in range(j, n):
            sym = 0.5 * np.trace((quads[j] @ quads[k] + quads[k] @ quads[j]) @ rho)
            v[j, k] = v[k, j] = np.real(sym) - means[j] * means[k]
    layout = ModeLayout(1, 1) if space.modes == 2 else ModeLayout(1, 0)
    return CovarianceMatrix(v, layout)


def squeezed_vacuum(space: FockSpace, r: float) -> np.ndarray:
    """Single-mode squeezed vacuum: position variance ``e^{-2r}/2``, momentum ``e^{2r}/2``."""
    if space.modes != 1:
        raise ValueError("squeezed vacuum builder is single mode")
    a = space.destroy().astype(complex)
    gen = 0.5 * r * (a @ a - a.T @ a.T)
    u = expm(gen)
    psi = u[:, 0]
    return np.outer(psi, psi.conj())


def product_state(rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    return np.kron(rho_a, rho_b)


# -- record-averaged channel step ---------------------------------------------


def _quadrature_eigenbasis(space_1: FockSpace, vec: np.ndarray):
    """Eigen-decomposition of ``vec . (x, p)`` on a single mode."""
    op = vec[0] * space_1.position().astype(complex) + vec[1] * space_1.momentum()
    vals, basis = np.linalg.eigh(op)
    return vals, basis


def kraus_average_step(
    space: FockSpace,
    rho: np.ndarray,
    channel: Rank1Channel,
    dt: float,
    tol: float = 1e-12,
    orders: tuple[int, ...] = QUADRATURE_ORDERS,
):
    """One finite-time channel applied as an explicit record average.

    Every Kraus operator ``K(y)`` is a function of the measured and fed
    quadratures alone, so in their joint eigenbasis the averaged map is an
    elementwise multiplier ``W``.  The record integral behind ``W`` is
    evaluated by Gauss-Hermite quadrature, raising the order until the
    multiplier stabilizes; the POVM resolves the identity exactly, so any
    trace drift is quadrature error and is renormalized away and reported.

    Returns the new state together with ``(order_used, multiplier_change,
    trace_defect)``.
    """
    if space.modes != 2:
        raise ValueError("channel averaging needs the two-mode space")
    if dt <= 0:
        raise ValueError("dt must be positive")
    feed_vec = channel.feed_vec
    one = FockSpace(space.cutoff, modes=1)
    m_vals, m_basis = _quadrature_eigenbasis(one, channel.vec)
    if feed_vec is None:
        f_vals = np.zeros(space.cutoff)
        f_basis = np.eye(space.cutoff, dtype=complex)
    else:
        f_vals, f_basis = _quadrature_eigenbasis(one, feed_vec)

    if channel.side == "A":
        basis = np.kron(m_basis, f_basis)
        x_m = np.kron(m_vals, np.ones(space.cutoff))
        x_f = np.kron(np.ones(space.cutoff), f_vals)
    else:
        basis = np.kron(f_basis, m_basis)
        x_m = np.kron(np.ones(space.cutoff), m_vals)
        x_f = np.kron(f_vals, np.ones(space.cutoff))

    rho_t = basis.conj().T @ rho @ basis

    gamma = channel.gamma
    delta_m = x_m[:, None] - x_m[None, :]
    mean_m = 0.5 * (x_m[:, None] + x_m[None, :])
    phi = channel.lam * (x_f[:, None] - x_f[None, :]) + channel.kappa * delta_m
    prefactor = np.exp(
        -0.5 * gamma * dt * delta_m**2 - 1j * dt * mean_m * phi
    )
    c_arg = phi * np.sqrt(dt / (2.0 * gamma))

    w_prev = None
    order_used = orders[-1]
    change = np.inf
    for order in orders:
        nodes, weights = hermgauss(order)
        osc = np.exp(-1j * np.multiply.outer(c_arg, nodes))
        w = prefactor * (osc @ weights) / np.sqrt(np.pi)
        if w_prev is not None:
            change = float(np.abs(w - w_prev).max())
            if change <= tol:
                order_used = order
                w_prev = w
                break
        w_prev = w
        order_used = order

    out = rho_t * w_prev
    out = basis @ out @ basis.conj().T
    out = 0.5 * (out + out.conj().T)
    trace = float(np.real(np.trace(out)))
    trace_defect = abs(trace - 1.0)
    out = out / trace
    return out, (order_used, change, trace_defect)


def protocol_kraus_step(
    space: FockSpace, rho: np.ndarray, protocol: LoccProtocol, dt: float
):
    """One discrete protocol step on the dense state: channels, then unitary."""
    worst_defect = 0.0
    out = rho
    for ch in protocol.channels:
        out, (_, _, defect) = kraus_average_step(space, out, ch, dt)
        worst_defect = max(worst_defect, defect)
    gen = build_fock_generator(
        space, protocol.local_hamiltonian, np.zeros_like(protocol.local_hamiltonian)
    )
    u = expm(-1j * gen.hamiltonian * dt)
    out = u @ out @ u.conj().T
    return 0.5 * (out + out.conj().T), worst_defect


def log_negativity_dense(space: FockSpace, rho: np.ndarray) -> float:
    """Logarithmic negativity (base 2) from the dense partial transpose."""
    if space.modes != 2:
        raise ValueError("negativity needs the two-mode space")
    c = space.cutoff
    pt = rho.reshape(c, c, c, c).transpose(0, 3, 2, 1).reshape(c * c, c * c)
    vals = np.linalg.eigvalsh(pt)
    return float(np.log2(np.sum(np.abs(vals))))
