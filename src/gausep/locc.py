"""Measurement and feed-forward protocols replacing the coherent coupling.

A protocol here is a set of rank-1 channels plus a local Hamiltonian.  Each
channel continuously measures one quadrature ``vec . xi`` on one side at
strength ``gamma``, broadcasts the classical record, and applies outcome
proportional displacements: on the opposite side with gain ``lam`` along
``feed_vec`` (this builds the cross coupling) and optionally on its own side
with gain ``kappa`` (this builds correlated noise, since both displacements
share one record).

Averaged over records, a channel contributes

* measurement backaction ``gamma`` along the conjugate of the measured
  direction,
* fed-forward imprecision ``lam^2 / (4 gamma)`` on the receiving side and
  ``kappa^2 / (4 gamma)`` on the measuring side,
* record-sharing cross noise ``lam kappa / (4 gamma)``,
* drift terms equivalent to the Hamiltonian forms ``lam sym(m f^T)`` and
  ``kappa m m^T``.

Balancing these budgets against a target model is possible exactly when the
model noise dominates its coupling, which is how the solvers here double as
constructive converses of the separability thresholds: :func:`solve_correlated`
covers the scalar-noise variants and :func:`synthesize_general` reduces the matrix
variant to whitened singular channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .dynamics import GaussianMap
from .generators import (
    GkslGenerator,
    SystemModel,
    generator_from_forms,
    local_drift_blocks,
)
from .separability import MARGIN_TOL, BoundKind, ThresholdVerdict
from .separability import bound_verdict, resolved_product
from .symplectic import CovarianceMatrix, ModeLayout, build_form, direct_sum, mode_form

RANK_CUTOFF = 1e-12


class InfeasibleProtocolError(ValueError):
    """The coupling cannot be reproduced by local channels at this noise."""

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


@dataclass(frozen=True, eq=False)
class Rank1Channel:
    """One measurement and feed-forward channel.

    ``side`` names the measured side; ``vec`` lives on that side and
    ``feed_vec`` on the other.  A channel with no feed-forward (``lam`` zero,
    ``feed_vec`` None) is a pure local measurement and only injects noise.
    """

    side: str
    gamma: float
    vec: np.ndarray
    lam: float = 0.0
    feed_vec: np.ndarray | None = None
    kappa: float = 0.0

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ValueError("side must be 'A' or 'B'")
        if self.gamma <= 0:
            raise ValueError("measurement strength must be positive")
        if self.lam != 0.0 and self.feed_vec is None:
            raise ValueError("feed-forward gain requires a receiving direction")
        object.__setattr__(self, "vec", np.asarray(self.vec, dtype=float))
        if self.feed_vec is not None:
            object.__setattr__(self, "feed_vec", np.asarray(self.feed_vec, dtype=float))


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    """Channels plus the local Hamiltonian run alongside them.

    ``local_hamiltonian`` is a block-diagonal symmetric form; for rank-1
    protocols it includes the compensation that cancels the ``kappa m m^T``
    residues, so the protocol's effective generator matches the target model
    exactly.
    """

    layout: ModeLayout
    channels: tuple[Rank1Channel, ...]
    local_hamiltonian: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        h = np.asarray(self.local_hamiltonian, dtype=float)
        if h.shape != (self.layout.dim, self.layout.dim):
            raise ValueError("local Hamiltonian has the wrong dimension")
        if np.abs(h - h.T).max() > 1e-8 * np.abs(h).max():
            raise ValueError("local Hamiltonian form must be symmetric")
        lo = self.layout
        if np.abs(h[: lo.dim_a, lo.dim_a :]).max() > 0.0:
            raise ValueError("local Hamiltonian must not couple the sides")
        object.__setattr__(self, "local_hamiltonian", 0.5 * (h + h.T))
        for ch in self.channels:
            dim_meas = lo.dim_a if ch.side == "A" else lo.dim_b
            dim_feed = lo.dim_b if ch.side == "A" else lo.dim_a
            if ch.vec.shape != (dim_meas,):
                raise ValueError("channel vector does not match its side")
            if ch.feed_vec is not None and ch.feed_vec.shape != (dim_feed,):
                raise ValueError("feed vector does not match the receiving side")


@dataclass(frozen=True)
class GammaSolution:
    """Channel strengths reproducing a scalar-noise target."""

    gamma_a: float
    gamma_b: float
    lam: float
    kappa_a: float = 0.0
    kappa_b: float = 0.0
    branch: str = "plus"


def solve_symmetric(
    s_a: float, s_b: float, k: float, branch: str = "plus"
) -> GammaSolution:
    """Strengths for an uncorrelated scalar-noise target.

    Solves ``gamma_a + k^2/(4 gamma_b) = s_a`` and its mirror; both branches
    of the quadratic solve it, and they coincide at the threshold
    ``k^2 = s_a s_b``.  Raises when the noise does not dominate the coupling.
    """
    if branch not in ("plus", "minus"):
        raise ValueError("branch must be 'plus' or 'minus'")
    if s_a <= 0 or s_b <= 0:
        raise ValueError("noise strengths must be positive")
    margin = resolved_product(s_a, s_b) - resolved_product(k, k)
    if margin < 0:
        raise InfeasibleProtocolError(
            f"coupling dominates the noise (margin {margin:.3e})", margin=margin
        )
    root = np.sqrt(margin / (s_a * s_b))
    sign = 1.0 if branch == "plus" else -1.0
    gamma_a = 0.5 * s_a * (1.0 + sign * root)
    gamma_b = 0.5 * s_b * (1.0 + sign * root)
    if gamma_a <= 0 or gamma_b <= 0:
        raise InfeasibleProtocolError("selected branch degenerates at this margin")
    return GammaSolution(gamma_a=gamma_a, gamma_b=gamma_b, lam=float(k), branch=branch)


def solve_correlated(
    s_a: float, s_b: float, k: float, s_ab: float, branch: str = "plus"
) -> GammaSolution:
    """Strengths for a correlated scalar-noise target.

    The shared-record trick requires a feed-forward carrier, so ``k = 0`` with
    ``s_ab != 0`` is rejected.  Reduces to :func:`solve_symmetric` with the
    effective coupling ``sqrt(k^2 + s_ab^2)`` and then splits the strengths so
    that the record-sharing cross noise comes out to exactly ``s_ab``.
    """
    if s_ab == 0.0:
        return solve_symmetric(s_a, s_b, k, branch)
    if k == 0.0:
        raise InfeasibleProtocolError(
            "correlated noise needs a feed-forward carrier (coupling is zero)"
        )
    tau_sq = k**2 + s_ab**2
    base = solve_symmetric(s_a, s_b, np.sqrt(tau_sq), branch)
    shrink = 1.0 + s_ab**2 / k**2
    gamma_a = base.gamma_a / shrink
    gamma_b = base.gamma_b / shrink
    return GammaSolution(
        gamma_a=gamma_a,
        gamma_b=gamma_b,
        lam=float(k),
        kappa_a=2.0 * gamma_a * s_ab / k,
        kappa_b=2.0 * gamma_b * s_ab / k,
        branch=branch,
    )


def _embed(vec: np.ndarray, side: str, layout: ModeLayout) -> np.ndarray:
    out = np.zeros(layout.dim)
    if side == "A":
        out[: layout.dim_a] = vec
    else:
        out[layout.dim_a :] = vec
    return out


def channel_forms(ch: Rank1Channel, layout: ModeLayout):
    """Average drift and noise form of a single channel.

    The drift is one-sided (only the fed side is displaced), so it is not of
    Hamiltonian shape on its own; balanced channel pairs sum to one.
    """
    m = _embed(ch.vec, ch.side, layout)
    omega = build_form(layout)
    a = ch.kappa * np.outer(omega @ m, m)
    q = (ch.gamma + ch.kappa**2 / (4.0 * ch.gamma)) * np.outer(m, m)
    if ch.feed_vec is not None:
        f = _embed(ch.feed_vec, "B" if ch.side == "A" else "A", layout)
        a = a + ch.lam * np.outer(omega @ f, m)
        q = q + ch.lam**2 / (4.0 * ch.gamma) * np.outer(f, f)
        cross = ch.lam * ch.kappa / (4.0 * ch.gamma)
        q = q + cross * (np.outer(m, f) + np.outer(f, m))
    return a, q


def effective_generator(protocol: LoccProtocol) -> GkslGenerator:
    """Average-over-records generator of the whole protocol.

    Raises when the summed channel drift is not of Hamiltonian form, which
    happens for unbalanced feed-forward (a one-way channel needs its mirror).
    """
    lo = protocol.layout
    omega = build_form(lo)
    a = omega @ protocol.local_hamiltonian
    q = np.zeros((lo.dim, lo.dim))
    for ch in protocol.channels:
        a_ch, q_ch = channel_forms(ch, lo)
        a += a_ch
        q += q_ch
    g = -omega @ a
    if np.abs(g - g.T).max() > MARGIN_TOL * np.abs(g).max():
        raise ValueError(
            "averaged channel drift is not Hamiltonian; feed-forward is unbalanced"
        )
    return generator_from_forms(lo, 0.5 * (g + g.T), q)


def build_rank1_protocol(model: SystemModel, branch: str = "plus") -> LoccProtocol:
    """Two-channel protocol whose effective generator equals the model's.

    One channel per side, each with feed-forward gain equal to the coupling
    strength; the local Hamiltonian absorbs the ``kappa`` residues.  Raises
    :class:`InfeasibleProtocolError` below threshold.
    """
    if not model.is_rank1:
        raise ValueError("rank-1 protocol requires the rank-1 model variant")
    n = model.noise
    c = model.coupling
    sol = solve_correlated(n.s_a, n.s_b, c.strength, n.s_ab, branch)
    lo = model.layout
    ch_a = Rank1Channel(
        side="A",
        gamma=sol.gamma_a,
        vec=c.vec_a,
        lam=sol.lam,
        feed_vec=c.vec_b,
        kappa=sol.kappa_a,
    )
    ch_b = Rank1Channel(
        side="B",
        gamma=sol.gamma_b,
        vec=c.vec_b,
        lam=sol.lam,
        feed_vec=c.vec_a,
        kappa=sol.kappa_b,
    )
    h_loc = direct_sum(model.h_a, model.h_b)
    u_a = _embed(c.vec_a, "A", lo)
    u_b = _embed(c.vec_b, "B", lo)
    h_loc -= sol.kappa_a * np.outer(u_a, u_a)
    h_loc -= sol.kappa_b * np.outer(u_b, u_b)
    return LoccProtocol(layout=lo, channels=(ch_a, ch_b), local_hamiltonian=h_loc)


def _pinv_sqrt(q: np.ndarray, cutoff: float):
    """Range basis ``W`` with ``q = W W^T`` plus the range projector."""
    lam, vec = np.linalg.eigh(q)
    cut = cutoff * max(lam.max(), 0.0) if lam.size else 0.0
    keep = lam > cut
    w = vec[:, keep] * np.sqrt(lam[keep])
    proj = vec[:, keep] @ vec[:, keep].T
    return w, vec[:, keep], np.sqrt(lam[keep]), proj


def synthesize_general(
    model: SystemModel, tol: float = MARGIN_TOL
) -> LoccProtocol:
    """Whitened singular-channel synthesis for the matrix-noise variant.

    The coupling form is whitened by the noise forms; each singular direction
    with value ``sigma`` becomes a channel pair built from the scalar solver
    at unit budgets, and leftover noise directions become pure local
    measurements.  Feasible exactly when every singular value is at most one,
    after checking the coupling lies inside both noise ranges.
    """
    if model.is_rank1:
        raise ValueError("general synthesis requires the matrix-noise variant")
    c = model.coupling.matrix
    w_a, e_a, root_a, proj_a = _pinv_sqrt(model.noise.q_a, RANK_CUTOFF)
    w_b, e_b, root_b, proj_b = _pinv_sqrt(model.noise.q_b, RANK_CUTOFF)

    c_scale = max(np.abs(c).max(), 0.0)
    if c_scale > 0.0:
        out_of_range = max(
            np.abs(c - proj_a @ c).max(), np.abs(c - c @ proj_b).max()
        )
        if out_of_range > tol * c_scale:
            raise InfeasibleProtocolError(
                "coupling acts outside the range of the noise "
                f"(leakage {out_of_range:.3e})"
            )

    white = (e_a / root_a).T @ c @ (e_b / root_b)
    u, sigma, vt = np.linalg.svd(white)
    if sigma.size and sigma[0] > 1.0 + tol:
        raise InfeasibleProtocolError(
            f"largest whitened singular value {sigma[0]:.12g} exceeds one",
            margin=float(1.0 - sigma[0]),
        )

    drop = RANK_CUTOFF * max(1.0, sigma[0] if sigma.size else 0.0)
    channels = []
    paired = min(w_a.shape[1], w_b.shape[1])
    for i in range(paired):
        s_i = sigma[i] if i < sigma.size else 0.0
        z_a = w_a @ u[:, i]
        z_b = w_b @ vt[i, :]
        if s_i > drop:
            sol = solve_symmetric(1.0, 1.0, min(s_i, 1.0))
            channels.append(
                Rank1Channel(
                    side="A", gamma=sol.gamma_a, vec=z_a, lam=s_i, feed_vec=z_b
                )
            )
            channels.append(
                Rank1Channel(
                    side="B", gamma=sol.gamma_b, vec=z_b, lam=s_i, feed_vec=z_a
                )
            )
        else:
            channels.append(Rank1Channel(side="A", gamma=1.0, vec=z_a))
            channels.append(Rank1Channel(side="B", gamma=1.0, vec=z_b))
    for i in range(paired, w_a.shape[1]):
        channels.append(Rank1Channel(side="A", gamma=1.0, vec=w_a @ u[:, i]))
    for i in range(paired, w_b.shape[1]):
        channels.append(Rank1Channel(side="B", gamma=1.0, vec=w_b @ vt[i, :]))

    return LoccProtocol(
        layout=model.layout,
        channels=tuple(channels),
        local_hamiltonian=direct_sum(model.h_a, model.h_b),
    )


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")


def _channel_map(ch: Rank1Channel, layout: ModeLayout, dt: float) -> GaussianMap:
    """Exact map ``(I + dt A_ch, dt Omega Q_ch Omega^T)`` of one channel for any ``dt``.

    A minimal Gaussian measurement of ``m`` (imprecision ``1/(4 gamma dt)``,
    backaction ``gamma dt b b^T``, ``b = Omega m``) and the record kick
    ``d = dt (kappa Omega m + lam Omega f)`` give ``G = I + d m^T`` and
    ``N = gamma dt b b^T + d d^T / (4 gamma dt)``: the form above with the
    :func:`channel_forms` ``(A_ch, Q_ch)``.  ``G b = b`` and ``A_ch^2 = 0``,
    since ``m^T Omega m = m^T Omega f = 0``.
    """
    _check_dt(dt)
    a, q = channel_forms(ch, layout)
    omega = build_form(layout)
    return GaussianMap(np.eye(layout.dim) + dt * a, dt * (omega @ q @ omega.T))


def channel_step(v: CovarianceMatrix, ch: Rank1Channel, dt: float) -> CovarianceMatrix:
    """Exact covariance map of one finite-time channel application."""
    return CovarianceMatrix(_channel_map(ch, v.layout, dt).apply(v.matrix), v.layout)


def _affine_step(protocol: LoccProtocol, dt: float) -> GaussianMap:
    """One protocol step: every channel's map in order, then the local unitary
    ``(exp(Omega H dt), 0)``."""
    _check_dt(dt)
    lo = protocol.layout
    zero = np.zeros((lo.dim, lo.dim))
    step = GaussianMap(np.eye(lo.dim), zero)
    for ch in protocol.channels:
        step = step.then(_channel_map(ch, lo, dt))
    s_loc = expm(build_form(lo) @ protocol.local_hamiltonian * dt)
    return step.then(GaussianMap(s_loc, zero))


def protocol_step(v: CovarianceMatrix, protocol: LoccProtocol, dt: float) -> CovarianceMatrix:
    """One splitting step: every channel, then the local unitary.

    First-order splitting; the error against the effective semigroup is
    ``O(dt^2)`` per step.
    """
    return run_protocol(v, protocol, dt, 1)


def run_protocol(
    v0: CovarianceMatrix, protocol: LoccProtocol, t: float, steps: int
) -> CovarianceMatrix:
    """Apply :func:`protocol_step` ``steps`` times over equal slices of ``t``.

    The step is one fixed :class:`GaussianMap`, so its ``steps``-fold power
    is taken by binary powering, in ``O(log steps)`` compositions.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    step = _affine_step(protocol, t / steps)
    return CovarianceMatrix(step.apply_power(v0.matrix, steps), protocol.layout)


# -- damped (memory-corrected) bound ------------------------------------------


@dataclass(frozen=True)
class MemoryCoefficients:
    """First memory-correction coefficients of an Ohmic environment."""

    d_aa: float
    d_ab: float
    d_ba: float
    d_bb: float


def ohmic_d_coefficients(model: SystemModel, c2: float) -> MemoryCoefficients:
    """Memory coefficients from the short-time response of the drift.

    The correction couples the measured directions to their images under the
    drift; it is well defined only when each image stays parallel to the
    measured direction on its side (ray-preserving local dynamics), and the
    free-mass model gives identically zero because the conjugate kick is
    orthogonal to the measured quadrature.
    """
    if not model.is_rank1:
        raise ValueError("memory coefficients require the rank-1 model variant")
    if not np.isfinite(c2):
        raise ValueError("memory coefficient c2 must be finite")
    lo = model.layout
    c = model.coupling
    drift_a, drift_b = local_drift_blocks(model)
    eta_a = mode_form(lo.n_a)
    eta_b = mode_form(lo.n_b)
    k = c.strength
    blocks = {
        ("A", "A"): (c.vec_a, drift_a, c.vec_a),
        ("B", "B"): (c.vec_b, drift_b, c.vec_b),
        ("A", "B"): (c.vec_a, k * np.outer(eta_a @ c.vec_a, c.vec_b), c.vec_b),
        ("B", "A"): (c.vec_b, k * np.outer(eta_b @ c.vec_b, c.vec_a), c.vec_a),
    }
    out = {}
    for (alpha, beta), (u_alpha, block, u_beta) in blocks.items():
        response = u_alpha @ block
        norm_sq = float(u_beta @ u_beta)
        coeff = float(response @ u_beta) / norm_sq
        residual = response - coeff * u_beta
        if np.abs(residual).max() > 1e-10 * np.abs(response).max():
            raise ValueError(
                f"drift response on block {alpha}{beta} leaves the measured ray; "
                "the memory correction does not apply to this model"
            )
        out[(alpha, beta)] = c2 * coeff
    return MemoryCoefficients(
        d_aa=out[("A", "A")],
        d_ab=out[("A", "B")],
        d_ba=out[("B", "A")],
        d_bb=out[("B", "B")],
    )


def damped_bound(model: SystemModel, coeffs: MemoryCoefficients, tol: float = MARGIN_TOL):
    """Memory-corrected separability bound for the rank-1 variant.

    Each local noise budget is damped by its own-side coefficient and the
    coupling is inflated by the cross coefficients; with all coefficients zero
    this is exactly the scalar threshold.  Returns a verdict whose margin is
    the damped product minus the inflated coupling squared.
    """
    if not model.is_rank1:
        raise ValueError("damped bound requires the rank-1 model variant")
    n = model.noise
    k = abs(model.coupling.strength)
    eff_a = n.s_a - 2.0 * abs(coeffs.d_aa)
    eff_b = n.s_b - 2.0 * abs(coeffs.d_bb)
    if eff_a <= 0 or eff_b <= 0:
        return ThresholdVerdict(
            satisfied=False,
            margin=float(min(eff_a, eff_b)),
            bound_kind=BoundKind.DAMPED,
            reason="memory correction exhausts a local noise budget",
        )
    inflated = k + abs(coeffs.d_ab) + abs(coeffs.d_ba)
    noise = resolved_product(eff_a, eff_b)
    coupled = resolved_product(inflated, inflated)
    return bound_verdict(noise - coupled, max(noise, coupled), BoundKind.DAMPED, tol)
