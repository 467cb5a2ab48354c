"""Exact and first-order covariance propagation.

Second moments of a quadratic master equation obey

    V(t) = Phi(t) V(0) Phi(t)^T + G(t),
    Phi(t) = exp(A t),   G(t) = int_0^t Phi(u) D Phi(u)^T du.

``Phi`` and the accumulated noise ``G`` are computed exactly from a single
block matrix exponential (Van Loan, IEEE TAC 23, 395 (1978)), so ``evolve``
has no step error.  The pair is a :class:`GaussianMap`, the one affine
covariance map of the package: the exact flow, the LOCC protocol steps and
their compositions and powers are all of this form.  Matrix exponentials
(:func:`_expm`) use scaling and squaring with a Pade approximant of degree 3,
5, 7, 9 or 13 (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), in numpy
alone, so the Gaussian layer never imports scipy.

The module also provides the weak-coupling first-order picture used by the
separability certificate: starting from a pure product state with per-side
Williamson transforms ``S_i``, every quantity is mapped to the doubly rotated
frame (first by ``S``, then by the free local rotation ``exp(M' t)``) where
the covariance stays ``I/2`` plus first-order coupling and noise integrals.

Under restricted (ray-preserving) local dynamics each rotated coupling vector
is a real eigenvector of ``M'^T``, so the shape overlap behind the sharpened
bound is a closed form in the two eigenvalues (:class:`ShapeFunctions`); a
side is refused unless a Gronwall bound keeps its vector within ``RAY_TOL``
of its ray over the whole horizon.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .generators import GkslGenerator, SystemModel, local_drift_blocks
from .symplectic import (
    FORM_TOL,
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
# largest bound on a rotated coupling vector's relative departure from its
# ray over the horizon (see shape_functions)
RAY_TOL = 1e-8


class RegimeError(ValueError):
    """A first-order quantity was requested outside the perturbative window."""


class ParallelConditionError(ValueError):
    """Restricted-dynamics assumption violated (rotated vector not parallel)."""

    def __init__(self, side: str, bound: float):
        self.side = side
        self.bound = bound
        super().__init__(
            f"rotated coupling vector on side {side} may leave its ray "
            f"(relative departure bound {bound:.3e})"
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


def _pade_rows(m: int) -> np.ndarray:
    """Weights of the stacked powers ``(I, X^2, X^4, ...)`` in the degree-``m``
    approximant's odd part ``U / X`` and even part ``V``; degree 13 stacks up
    to ``X^6``, ``U = X (X^6 W1 + W2)`` and ``V = X^6 Z1 + Z2``."""
    f = math.factorial
    b = [f(2 * m - k) * f(m) / (f(2 * m) * f(k) * f(m - k)) for k in range(m + 1)]
    if m < 13:
        return np.array([b[1::2], b[::2]])
    return np.array([[0.0, b[9], b[11], b[13]], [b[1], b[3], b[5], b[7]],
                     [0.0, b[8], b[10], b[12]], [b[0], b[2], b[4], b[6]]])


# the largest 1-norm at which each degree's approximant is exp to unit
# roundoff (Higham 2005, table 2.3); degree 13 takes the rest after scaling
_DEGREES = (3, 5, 7, 9, 13)
_THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
           2.097847961257068e0, 5.371920351148152e0)
_PADE_ROWS = {m: _pade_rows(m) for m in _DEGREES}
_identity = functools.cache(np.identity)  # only ever copied from


def _expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """``exp(a t)`` of a real square matrix, without forming ``a t``.

    The degree is the lowest whose threshold bounds ``|a t|_1``; above the
    last, ``a t`` is scaled by ``2^-s`` into degree 13's and the result
    squared ``s`` times.  Diagonal input (1x1 and zero among it) gets the
    exact ``exp`` of its diagonal.  An exponential past double range comes
    back non-finite; a non-finite ``a`` or ``t`` raises ``ValueError``.
    """
    with np.errstate(over="ignore"):  # huge entries are handled below
        col = float(abs(a).sum(axis=0).max())
    norm = col * abs(float(t))
    if not norm < math.inf:
        if not (np.isfinite(a).all() and math.isfinite(t)):
            raise ValueError("matrix exponential of a non-finite matrix")
        if not col < math.inf:  # the column sums overflow: halve, then square
            half = _expm(0.5 * a, t)
            return half.dot(half)
    if np.count_nonzero(a) == np.count_nonzero(a.diagonal()):
        return np.diag(np.exp(a.diagonal() * t))
    m = _DEGREES[bisect.bisect_left(_THETAS, norm, hi=4)]
    s = 0
    if norm > _THETAS[4]:
        s = math.ceil(math.log2(col / _THETAS[4]) + math.log2(abs(t)))
    x = a * math.ldexp(t, -s)
    n, k = len(a), _PADE_ROWS[m].shape[1]
    powers = np.empty((k, n, n))
    powers[0] = _identity(n)
    x.dot(x, out=powers[1])
    for j in range(2, k):
        powers[j - 1].dot(powers[1], out=powers[j])
    parts = _PADE_ROWS[m].dot(powers.reshape(k, -1)).reshape(-1, n, n)
    if m == 13:
        w1, w2, z1, z2 = parts
        u = x.dot(powers[3].dot(w1) + w2)
        v = powers[3].dot(z1) + z2
    else:
        u, v = x.dot(parts[0]), parts[1]
    # np.linalg.solve's gufunc without its checks, which cost twice the solve
    # here; the denominator is nonsingular at every norm its degree serves
    r = _umath_linalg.solve(v - u, v + u, signature="dd->d")
    for _ in range(s):
        r = r.dot(r)
    return r


def _van_loan(a: np.ndarray, q: np.ndarray, b: np.ndarray, t: float):
    """``(exp(a t), F12)``, blocks of ``exp([[a, q], [0, -b]] t)``, where
    ``F12 = int_0^t exp(a (t - s)) q exp(-b s) ds``.

    ``F12`` is linear in ``q``, so ``q`` enters divided by the power of two
    ``2^k`` that brings ``n max|q| |t|``, a bound on ``|q t|_1``, down to
    ``theta_13``, and ``F12`` comes back multiplied by ``2^k``; both steps
    are exact.  A large diffusion then forces no squarings the drift does
    not need, each of which would double the roundoff.
    """
    n, m = q.shape
    size = n * float(abs(q).max()) * abs(t)
    k = math.ceil(math.log2(size / _THETAS[4])) if _THETAS[4] < size < math.inf else 0
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = np.ldexp(q, -k)
    aug[n:, n:] = -b
    e = _expm(aug, t)
    return e[:n, :n], np.ldexp(e[:n, n:], k)


def transition_blocks(drift: np.ndarray, diffusion: np.ndarray, t: float) -> GaussianMap:
    """Exact ``(Phi, G)`` for constant drift and diffusion via one expm."""
    phi, f12 = _van_loan(drift, diffusion, drift.T, t)
    acc = f12 @ phi.T
    return GaussianMap(phi, 0.5 * (acc + acc.T))


def cross_integral(a: np.ndarray, q: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Exact ``int_0^t exp(a s) q exp(b s) ds`` via an augmented exponential."""
    return _van_loan(a, q, b, t)[1] @ _expm(b, t)


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
    """The first-order covariance in the doubly rotated frame, with its lab map.

    ``w_a``/``w_b`` are the rotated coupling vectors at ``s = 0`` and
    ``p_a``/``p_b`` the side integrals ``int_0^t v_i(s) v_i(s)^T ds`` of
    ``v_i(s) = exp(M_i'^T s) w_i``.  ``v_g`` and ``v_th`` are the assembled
    first-order coupling and noise contributions, so the rotated-frame state
    is ``I/2 + v_g + v_th``.  ``lab`` is the block-diagonal congruence
    ``S^-1 exp(M' t)`` that undoes the initial Williamson transform ``S`` and
    the inverse free rotation; :meth:`to_lab` applies it.
    """

    layout: ModeLayout
    w_a: np.ndarray
    w_b: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    v_g: np.ndarray
    v_th: np.ndarray
    lab: np.ndarray

    def to_lab(self) -> CovarianceMatrix:
        """The first-order covariance ``I/2 + V_g + V_th`` in the lab frame."""
        m = 0.5 * np.eye(self.layout.dim) + self.v_g + self.v_th
        return CovarianceMatrix(self.lab @ m @ self.lab.T, self.layout)


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
    if np.abs(v0.block_ab()).max() > FORM_TOL * np.abs(v0.matrix).max():
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
    only error in the returned terms is roundoff; the error of ``to_lab()``
    relative to :func:`evolve` scales with the square of the strength-time
    products.
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

    block_g = 0.5 * k * (eta_a @ w_ab + w_ab @ eta_b.T)
    v_g = direct_sum(np.zeros_like(p_a), np.zeros_like(p_b), block_g)
    cross = None if n.s_ab == 0.0 else n.s_ab * (eta_a @ w_ab @ eta_b.T)
    v_th = direct_sum(n.s_a * (eta_a @ p_a @ eta_a.T), n.s_b * (eta_b @ p_b @ eta_b.T), cross)

    lab = np.linalg.solve(direct_sum(s_a, s_b), direct_sum(flow_a.T, flow_b.T))
    return FirstOrderTerms(
        layout=lo, w_a=w_a, w_b=w_b, p_a=p_a, p_b=p_b, v_g=v_g, v_th=v_th, lab=lab
    )


# -- restricted-dynamics shape functions --------------------------------------


def _exp_integral_scaled(r: float, t: float) -> float:
    """``J(r) = exp(-max(r, 0) t) int_0^t exp(r s) ds``, which lies in
    ``(0, t]`` for every finite ``r`` and never overflows."""
    if r == 0.0:
        return t
    return -math.expm1(-abs(r) * t) / abs(r)


@dataclass(frozen=True, eq=False)
class ShapeFunctions:
    """Scalar shape functions of restricted (ray-preserving) local dynamics.

    A rotated coupling vector ``v_i(s) = exp(M_i'^T s) w_i`` stays on its
    initial ray for every ``s`` exactly when ``w_i`` is a real eigenvector of
    ``M_i'^T``; its shape is then ``f_i(s) = exp(rate_i s)``.  With
    ``I(r) = int_0^t exp(r s) ds``, the squared normalized overlap

        rho_sq = I(rate_a + rate_b)^2 / (I(2 rate_a) I(2 rate_b))

    lies in ``[0, 1]`` by Cauchy-Schwarz.  Each ``I`` is evaluated with its
    exponential growth factored out, so ``rho_sq`` is exactly one when the
    rates agree and finite at every finite horizon.
    """

    rate_a: float
    rate_b: float
    rho_sq: float

    @classmethod
    def of_rates(cls, rate_a: float, rate_b: float, t: float) -> "ShapeFunctions":
        """Shapes ``exp(rate_a s)`` and ``exp(rate_b s)`` on ``[0, t]``."""
        a, b, c = 2 * rate_a, 2 * rate_b, rate_a + rate_b
        j_a, j_b, j_c = (_exp_integral_scaled(r, t) for r in (a, b, c))
        # 2 max(c, 0) <= max(a, 0) + max(b, 0): the exponent is never positive
        growth = math.exp(t * (2 * max(c, 0.0) - max(a, 0.0) - max(b, 0.0)))
        rho_sq = (j_c / j_a) * (j_c / j_b) * growth
        return cls(rate_a=float(rate_a), rate_b=float(rate_b), rho_sq=rho_sq)


def shape_functions(
    model: SystemModel, t: float, v0: CovarianceMatrix | None = None
) -> ShapeFunctions:
    """Growth rates of the model's restricted local dynamics on ``[0, t]``.

    Per side ``rate = u^T M'^T u`` on the unit coupling direction ``u``.
    With ``mu`` the largest eigenvalue of the symmetric part of ``M'``,
    Gronwall bounds the departure ``|exp(-rate s) v(s) - u|`` on ``[0, t]``
    by ``|M'^T u - rate u| int_0^t exp((mu - rate) s) ds`` (``t`` times the
    residual when ``mu = rate``); the side is refused with
    :class:`ParallelConditionError` when that exceeds ``RAY_TOL``.  The
    shapes depend only on the free local rotations, so no perturbative
    window applies here.
    """
    if not 0.0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    _, _, w_a, w_b, mprime_a, mprime_b = _rotated_frame(model, v0)
    rates = []
    for side, mprime, w in (("A", mprime_a, w_a), ("B", mprime_b, w_b)):
        u = w / np.linalg.norm(w)
        image = mprime.T @ u
        rate = float(u @ image)
        gap = max(float(np.linalg.eigvalsh(mprime + mprime.T)[-1]) / 2 - rate, 0.0)
        # the bound is departure * exp(gap t), compared without overflow
        departure = float(np.linalg.norm(image - rate * u)) * _exp_integral_scaled(gap, t)
        if departure > RAY_TOL * math.exp(-gap * t):
            raise ParallelConditionError(side, departure * math.exp(min(gap * t, 700.0)))
        rates.append(rate)
    return ShapeFunctions.of_rates(rates[0], rates[1], t)
