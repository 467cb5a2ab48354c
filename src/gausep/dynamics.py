"""Exact and first-order covariance propagation.

Second moments of a quadratic master equation obey

    V(t) = Phi(t) V(0) Phi(t)^T + G(t),
    Phi(t) = exp(A t),   G(t) = int_0^t Phi(u) D Phi(u)^T du.

``Phi`` and the accumulated noise ``G`` are computed exactly from a single
block matrix exponential (Van Loan, IEEE TAC 23, 395 (1978)), so ``evolve``
has no step error.  The pair is a :class:`GaussianMap`, the one affine
covariance map of the package: the exact flow, the LOCC protocol steps and
their compositions and powers are all of this form.  Matrix exponentials use
scaling-and-squaring with a degree-13 Pade approximant (``scipy.linalg.expm``).

The module also provides the weak-coupling first-order picture used by the
separability certificate: starting from a pure product state with per-side
Williamson transforms ``S_i``, every quantity is mapped to the doubly rotated
frame (first by ``S``, then by the free local rotation ``exp(M' t)``) where
the covariance stays ``I/2`` plus first-order coupling and noise integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import expm

from .generators import GkslGenerator, SystemModel, local_drift_blocks
from .symplectic import (
    CovarianceMatrix,
    ModeLayout,
    _williamson_matrix,
    direct_sum,
    mode_form,
)

# coupled-strength x time products must stay below this for the first-order
# picture to be meaningful
PERTURBATIVE_GUARD = 0.1
_PURE_TOL = 1e-8


class RegimeError(ValueError):
    """A first-order quantity was requested outside the perturbative window."""


class ParallelConditionError(ValueError):
    """Restricted-dynamics assumption violated (rotated vector not parallel)."""

    def __init__(self, side: str, max_angle: float):
        self.side = side
        self.max_angle = max_angle
        super().__init__(
            f"rotated coupling vector on side {side} leaves its ray "
            f"(max deviation angle {max_angle:.3e} rad)"
        )


class GaussianMap(NamedTuple):
    """The affine covariance map ``V -> S V S^T + N``."""

    s: np.ndarray
    n: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``S V S^T + N``, symmetrized."""
        m = self.s @ v @ self.s.T + self.n
        return 0.5 * (m + m.T)

    def then(self, second: "GaussianMap") -> "GaussianMap":
        """This map followed by ``second``: ``(S2 S1, S2 N1 S2^T + N2)``."""
        return GaussianMap(second.s @ self.s, second.apply(self.n))

    def apply_power(self, v: np.ndarray, k: int) -> np.ndarray:
        """``k`` applications to ``v`` by binary powering: ``popcount(k)``
        applications and ``floor(log2 k)`` squarings, so the cost and the
        roundoff they add are logarithmic in ``k``."""
        power = self
        while True:
            if k & 1:
                v = power.apply(v)
            k >>= 1
            if not k:
                return v
            power = power.then(power)


def _van_loan(a: np.ndarray, q: np.ndarray, b: np.ndarray, t: float):
    """``(exp(a t), F12)``, blocks of ``exp([[a, q], [0, -b]] t)``, where
    ``F12 = int_0^t exp(a (t - s)) q exp(-b s) ds``."""
    n, m = q.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = q
    aug[n:, n:] = -b
    e = expm(aug * t)
    return e[:n, :n], e[:n, n:]


def transition_blocks(drift: np.ndarray, diffusion: np.ndarray, t: float) -> GaussianMap:
    """Exact ``(Phi, G)`` for constant drift and diffusion via one expm."""
    phi, f12 = _van_loan(drift, diffusion, drift.T, t)
    acc = f12 @ phi.T
    return GaussianMap(phi, 0.5 * (acc + acc.T))


def cross_integral(a: np.ndarray, q: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Exact ``int_0^t exp(a s) q exp(b s) ds`` via an augmented exponential."""
    return _van_loan(a, q, b, t)[1] @ expm(b * t)


def evolve(gen: GkslGenerator, v0: CovarianceMatrix, t: float) -> CovarianceMatrix:
    """Propagate a covariance matrix for time ``t`` by one exact map."""
    if v0.layout != gen.layout:
        raise ValueError("layout mismatch between generator and state")
    if t < 0:
        raise ValueError("t must be nonnegative")
    step = transition_blocks(gen.drift, gen.diffusion, t)
    return CovarianceMatrix(step.apply(v0.matrix), gen.layout)


# -- first-order picture ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FirstOrderTerms:
    """All rotated-frame ingredients of the first-order covariance.

    ``p_a``/``p_b`` are the side integrals ``int_0^t v_i(s) v_i(s)^T ds`` of
    the rotated coupling vectors ``v_i(s) = exp(M_i'^T s) w_i``; ``w_ab`` is
    the cross integral ``int_0^t v_a(s) v_b(s)^T ds``.  ``v_g`` and ``v_th``
    are the assembled first-order coupling and noise contributions in the
    doubly rotated frame.
    """

    layout: ModeLayout
    t: float
    s_a: np.ndarray
    s_b: np.ndarray
    w_a: np.ndarray
    w_b: np.ndarray
    mprime_a: np.ndarray
    mprime_b: np.ndarray
    rotation_a: np.ndarray
    rotation_b: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    w_ab: np.ndarray
    v_g: np.ndarray
    v_th: np.ndarray


@dataclass(frozen=True, eq=False)
class PerturbativeFrame:
    """First-order covariance in the doubly rotated frame, with frame data.

    ``v_rotated`` is the covariance after conjugation by the block-diagonal
    Williamson transform ``williamson_s`` of the initial state and by the
    inverse free rotation; ``rotation`` is the block-diagonal ``exp(M' t)``.
    ``to_lab()`` undoes both congruences.
    """

    v_rotated: CovarianceMatrix
    williamson_s: np.ndarray
    rotation: np.ndarray
    layout: ModeLayout

    @classmethod
    def from_terms(cls, terms: FirstOrderTerms) -> "PerturbativeFrame":
        """Assemble ``I/2 + V_g + V_th`` and the block-diagonal frame matrices."""
        m = 0.5 * np.eye(terms.layout.dim) + terms.v_g + terms.v_th
        return cls(
            v_rotated=CovarianceMatrix(m, terms.layout),
            williamson_s=direct_sum(terms.s_a, terms.s_b),
            rotation=direct_sum(terms.rotation_a, terms.rotation_b),
            layout=terms.layout,
        )

    def lab_map(self) -> np.ndarray:
        """Block-diagonal congruence ``S^-1 exp(M' t)`` from this frame to the lab."""
        return np.linalg.solve(self.williamson_s, self.rotation)

    def to_lab(self) -> CovarianceMatrix:
        lab = self.lab_map()
        return CovarianceMatrix(lab @ self.v_rotated.matrix @ lab.T, self.layout)


def _require_rank1(model: SystemModel, what: str) -> None:
    if not model.is_rank1:
        raise ValueError(f"{what} requires the rank-1 scalar-noise model variant")


def check_perturbative_window(model: SystemModel, t: float) -> None:
    """Raise :class:`RegimeError` when any strength-time product leaves the window."""
    _require_rank1(model, "the perturbative expansion")
    n = model.noise
    products = {
        "coupling": abs(model.coupling.strength) * t,
        "noise_a": n.s_a * t,
        "noise_b": n.s_b * t,
        "noise_ab": abs(n.s_ab) * t,
    }
    guard = PERTURBATIVE_GUARD * (1 + 1e-9)
    for name, value in products.items():
        if value > guard:
            raise RegimeError(
                f"{name} strength-time product {value:.3g} exceeds the "
                f"perturbative window {PERTURBATIVE_GUARD}"
            )


def _pure_block_williamson(block: np.ndarray, n_modes: int, side: str):
    omega = mode_form(n_modes)
    s, nu = _williamson_matrix(block, omega)
    if np.abs(2 * nu - 1).max() > _PURE_TOL:
        raise ValueError(
            f"initial covariance on side {side} is not pure "
            f"(symplectic eigenvalues {nu})"
        )
    return s


def _rotated_frame(model: SystemModel, v0: CovarianceMatrix | None):
    """Williamson transforms, rotated coupling vectors and free rotations."""
    _require_rank1(model, "the rotated-frame construction")
    lo = model.layout
    if v0 is None:
        v0 = CovarianceMatrix.vacuum(lo)
    if v0.layout != lo:
        raise ValueError("layout mismatch between model and initial state")
    scale = max(1.0, np.abs(v0.matrix).max())
    if np.abs(v0.block_ab()).max() > 1e-10 * scale:
        raise ValueError("initial covariance must be block diagonal (product state)")

    s_a = _pure_block_williamson(v0.block_a(), lo.n_a, "A")
    s_b = _pure_block_williamson(v0.block_b(), lo.n_b, "B")

    c = model.coupling
    w_a = np.linalg.solve(s_a.T, c.vec_a)
    w_b = np.linalg.solve(s_b.T, c.vec_b)

    drift_a, drift_b = local_drift_blocks(model)
    mprime_a = s_a @ drift_a @ np.linalg.inv(s_a)
    mprime_b = s_b @ drift_b @ np.linalg.inv(s_b)
    return s_a, s_b, w_a, w_b, mprime_a, mprime_b


def first_order_terms(
    model: SystemModel, t: float, v0: CovarianceMatrix | None = None
) -> FirstOrderTerms:
    """Compute every rotated-frame first-order integral exactly.

    The initial state must be a pure product state (block-diagonal covariance
    whose blocks have symplectic eigenvalues 1/2); the default is the vacuum.
    All integrals are evaluated through augmented matrix exponentials, so the
    only error in the returned terms is roundoff.
    """
    check_perturbative_window(model, t)
    if not 0.0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    lo = model.layout
    s_a, s_b, w_a, w_b, mprime_a, mprime_b = _rotated_frame(model, v0)

    # the side propagators are exp(M'^T t), the transposed free rotations
    flow_a, p_a = transition_blocks(mprime_a.T, np.outer(w_a, w_a), t)
    flow_b, p_b = transition_blocks(mprime_b.T, np.outer(w_b, w_b), t)
    w_ab = cross_integral(mprime_a.T, np.outer(w_a, w_b), mprime_b, t)

    eta_a = mode_form(lo.n_a)
    eta_b = mode_form(lo.n_b)
    k = model.coupling.strength
    n = model.noise

    v_g = np.zeros((lo.dim, lo.dim))
    block_g = 0.5 * k * (eta_a @ w_ab + w_ab @ eta_b.T)
    v_g[: lo.dim_a, lo.dim_a :] = block_g
    v_g[lo.dim_a :, : lo.dim_a] = block_g.T

    v_th = direct_sum(n.s_a * (eta_a @ p_a @ eta_a.T), n.s_b * (eta_b @ p_b @ eta_b.T))
    if n.s_ab != 0.0:
        cross = n.s_ab * (eta_a @ w_ab @ eta_b.T)
        v_th[: lo.dim_a, lo.dim_a :] += cross
        v_th[lo.dim_a :, : lo.dim_a] += cross.T

    return FirstOrderTerms(
        layout=lo,
        t=t,
        s_a=s_a,
        s_b=s_b,
        w_a=w_a,
        w_b=w_b,
        mprime_a=mprime_a,
        mprime_b=mprime_b,
        rotation_a=flow_a.T,
        rotation_b=flow_b.T,
        p_a=p_a,
        p_b=p_b,
        w_ab=w_ab,
        v_g=v_g,
        v_th=v_th,
    )


def perturbative_v(
    model: SystemModel, t: float, v0: CovarianceMatrix | None = None
) -> PerturbativeFrame:
    """First-order covariance ``I/2 + V_g + V_th`` in the doubly rotated frame.

    The reporting frame is fixed: the returned covariance is expressed after
    conjugating the lab-frame state by the initial Williamson transform and by
    the inverse free local rotation.  Both frame matrices are part of the
    result so callers can map back; errors relative to :func:`evolve` scale
    with the square of the strength-time products.
    """
    return PerturbativeFrame.from_terms(first_order_terms(model, t, v0))


# -- restricted-dynamics shape functions --------------------------------------


@dataclass(frozen=True, eq=False)
class ShapeFunctions:
    """Scalar shape functions of restricted (ray-preserving) local dynamics.

    When the rotated coupling vectors stay on their initial rays,
    ``v_i(s) = f_i(s) w_i``, the first-order state is characterized by the
    overlap integrals of ``f_a`` and ``f_b`` alone.  ``rho_sq`` is the squared
    normalized overlap ``I_ab^2 / (I_aa I_bb)`` and lies in ``[0, 1]``.
    """

    times: np.ndarray
    f_a: np.ndarray
    f_b: np.ndarray
    integral_aa: float
    integral_bb: float
    integral_ab: float
    rho_sq: float

    @classmethod
    def from_samples(
        cls, times: np.ndarray, f_a: np.ndarray, f_b: np.ndarray
    ) -> "ShapeFunctions":
        """Build from sampled shape functions via composite Simpson weights."""
        times = np.asarray(times, dtype=float)
        f_a = np.asarray(f_a, dtype=float)
        f_b = np.asarray(f_b, dtype=float)
        if times.ndim != 1 or times.size < 3:
            raise ValueError("need at least three sample times")
        if f_a.shape != times.shape or f_b.shape != times.shape:
            raise ValueError("shape function samples must match the time grid")
        i_aa = float(simpson(f_a * f_a, x=times))
        i_bb = float(simpson(f_b * f_b, x=times))
        i_ab = float(simpson(f_a * f_b, x=times))
        denom = i_aa * i_bb
        rho_sq = float(i_ab**2 / denom) if denom > 0 else 0.0
        return cls(
            times=times,
            f_a=f_a,
            f_b=f_b,
            integral_aa=i_aa,
            integral_bb=i_bb,
            integral_ab=i_ab,
            rho_sq=rho_sq,
        )


def shape_functions(
    model: SystemModel,
    t: float,
    samples: int = 201,
    v0: CovarianceMatrix | None = None,
    tol_parallel: float = 1e-8,
) -> ShapeFunctions:
    """Extract ``f_a``, ``f_b`` from the model's restricted local dynamics.

    Raises :class:`ParallelConditionError` when the rotated coupling vector of
    either side leaves its ray by more than ``tol_parallel`` (relative cross
    component), reporting the maximum deviation angle.  The shapes depend only
    on the free local rotations, so no perturbative window applies here.
    """
    if not 0.0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    _, _, w_a, w_b, mprime_a, mprime_b = _rotated_frame(model, v0)
    if samples < 3:
        raise ValueError("samples must be >= 3")
    if samples % 2 == 0:
        samples += 1  # composite Simpson wants an even interval count
    times = np.linspace(0.0, t, samples)

    fs = []
    for side, mprime, w in (("A", mprime_a, w_a), ("B", mprime_b, w_b)):
        # on the uniform grid sample j is E^j w with E = expm(M'^T dt); each
        # round appends E^(2^k) times the rows so far, doubling them
        power = expm(mprime.T * (times[1] - times[0]))
        vecs = w[None, :]
        while len(vecs) < samples:
            vecs = np.vstack([vecs, vecs @ power.T])
            power = power @ power
        vecs = vecs[:samples]
        norm_w = float(np.linalg.norm(w))
        f = vecs @ w / norm_w**2
        r = np.linalg.norm(vecs - np.outer(f, w), axis=1)
        if np.any(r > tol_parallel * np.linalg.norm(vecs, axis=1)):
            max_angle = float(np.arctan2(r, np.abs(f) * norm_w).max())
            raise ParallelConditionError(side, max_angle)
        fs.append(f)

    return ShapeFunctions.from_samples(times, fs[0], fs[1])
