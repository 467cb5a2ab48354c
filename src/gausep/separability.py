"""Separability criteria, noise thresholds and first-order certificates.

Three layers of machinery live here:

* PPT tests on covariance matrices (:func:`ppt_two_mode`,
  :func:`ppt_multimode`, :func:`log_negativity`), via the momentum-flip
  partial transpose and symplectic spectra;
* closed-form noise thresholds of the coupled-and-driven models
  (:func:`threshold`, :func:`stringent_ns_check`): entanglement generation is
  impossible whenever the noise dominates the coupling, and under restricted
  (ray-preserving) local dynamics the stringent version is tight;
* an explicit first-order separability certificate
  (:func:`certificate_first_order`): inside the perturbative window and above
  threshold, the evolved state is decomposed as a manifestly separable state
  plus a positive remainder, which proves separability rather than merely
  failing to detect entanglement.

The certificate follows the constructive proof: in the doubly rotated frame
the first-order state is ``I/2 + V_g + V_th``; a balancing term ``dV`` built
from the same ray integrals is subtracted from the vacuum part and added to
the remainder.  Positivity of the remainder reduces, per ray direction, to a
2x2 matrix being positive semidefinite, which holds exactly when
``s_a s_b >= k^2 + s_ab^2``.  The 2x2 reduction is checked literally and then
cross-verified by a dense eigensolve of the assembled remainder.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .dynamics import PerturbativeFrame, ShapeFunctions, first_order_terms
from .generators import Rank1Coupling, SystemModel, coupling_form, noise_form
from .symplectic import (
    CovarianceMatrix,
    ModeLayout,
    direct_sum,
    mode_form,
    partial_transpose,
    physicality_margin,
    symplectic_spectrum,
)

MARGIN_TOL = 1e-10


class BoundKind(enum.Enum):
    RANK1 = "rank1"
    RANK1_CORRELATED = "rank1_correlated"
    GENERAL_MATRIX = "general_matrix"
    DAMPED = "damped"
    STRINGENT_NS = "stringent_ns"


@dataclass(frozen=True)
class ThresholdVerdict:
    """Outcome of a separability bound.

    ``margin`` is the left side minus the right side of the bound in its
    natural units; ``satisfied`` means the bound holds (no entanglement can be
    generated).  ``necessary_and_sufficient`` is set only by the stringent
    restricted-dynamics check when the shape overlap is exactly one.
    """

    satisfied: bool
    margin: float
    bound_kind: BoundKind
    necessary_and_sufficient: bool = False
    reason: str = ""


@dataclass(frozen=True)
class PptTwoModeResult:
    nu_tilde_minus: float
    nu_tilde_plus: float
    separable: bool


@dataclass(frozen=True)
class PptVerdict:
    min_sympl_eig: float
    npt: bool
    verdict: str  # "entangled" | "separable" | "ppt_inconclusive"


def ppt_two_mode(v: CovarianceMatrix, tol: float = 1e-10) -> PptTwoModeResult:
    """Closed-form PPT test for one mode per side.

    The partially transposed symplectic eigenvalues follow from the local
    symplectic invariants; the state is separable iff the smaller one is at
    least 1/2 (PPT is necessary and sufficient for 1+1 modes).
    """
    if (v.layout.n_a, v.layout.n_b) != (1, 1):
        raise ValueError("ppt_two_mode requires exactly one mode per side")
    m = v.matrix
    det_a = np.linalg.det(v.block_a())
    det_b = np.linalg.det(v.block_b())
    det_c = np.linalg.det(v.block_ab())
    det_v = np.linalg.det(m)
    delta = det_a + det_b - 2.0 * det_c
    disc = max(delta**2 - 4.0 * det_v, 0.0)
    lo_sq = max((delta - np.sqrt(disc)) / 2.0, 0.0)
    hi_sq = max((delta + np.sqrt(disc)) / 2.0, 0.0)
    nu_minus = float(np.sqrt(lo_sq))
    nu_plus = float(np.sqrt(hi_sq))
    return PptTwoModeResult(
        nu_tilde_minus=nu_minus,
        nu_tilde_plus=nu_plus,
        separable=bool(nu_minus >= 0.5 - tol),
    )


def ppt_multimode(v: CovarianceMatrix, tol: float = 1e-10) -> PptVerdict:
    """PPT test via the symplectic spectrum of the partial transpose.

    A violation certifies entanglement for any layout; a passing test is
    conclusive only for 1-vs-n bipartitions and is reported as inconclusive
    otherwise.
    """
    spec = symplectic_spectrum(partial_transpose(v))
    min_eig = float(spec[-1])
    npt = bool(min_eig < 0.5 - tol)
    if npt:
        verdict = "entangled"
    elif min(v.layout.n_a, v.layout.n_b) == 1:
        verdict = "separable"
    else:
        verdict = "ppt_inconclusive"
    return PptVerdict(min_sympl_eig=min_eig, npt=npt, verdict=verdict)


def log_negativity(v: CovarianceMatrix) -> float:
    """Logarithmic negativity (base 2) from the partial-transpose spectrum."""
    spec = symplectic_spectrum(partial_transpose(v))
    terms = -np.log2(2.0 * spec)
    return float(np.sum(terms[terms > 0.0])) if terms.size else 0.0


def bound_verdict(
    margin: float, scale: float, kind: BoundKind, tol: float = MARGIN_TOL, **extra
) -> ThresholdVerdict:
    """Verdict of a bound ``lhs >= rhs`` whose ``margin`` is ``lhs - rhs``.

    ``scale`` is the size of the two sides, so ``tol`` is relative to the
    bound itself and the verdict does not change when every rate is scaled
    by a common factor; with no absolute floor, laboratory-sized models
    (margins far below one) are judged by sign.
    """
    return ThresholdVerdict(
        satisfied=bool(margin >= -tol * scale),
        margin=float(margin),
        bound_kind=kind,
        **extra,
    )


def threshold(model: SystemModel, tol: float = MARGIN_TOL) -> ThresholdVerdict:
    """Closed-form no-entanglement bound for a model variant.

    Rank-1 scalar noise: ``s_a s_b >= k^2`` (plus ``s_ab^2`` when the baths
    are correlated).  General matrix noise: positivity of the block matrix
    ``Q + Q_g`` pairing the noise forms with the coupling form; the margin is
    its minimum eigenvalue.
    """
    if isinstance(model.coupling, Rank1Coupling):
        n = model.noise
        k = model.coupling.strength
        margin = n.s_a * n.s_b - k**2 - n.s_ab**2
        kind = BoundKind.RANK1 if n.s_ab == 0.0 else BoundKind.RANK1_CORRELATED
        return bound_verdict(margin, max(n.s_a * n.s_b, k**2 + n.s_ab**2), kind, tol)
    block = noise_form(model) + coupling_form(model)
    margin = np.linalg.eigvalsh(block)[0]
    return bound_verdict(margin, np.abs(block).max(), BoundKind.GENERAL_MATRIX, tol)


def stringent_ns_check(
    shapes: ShapeFunctions,
    s_a: float,
    s_b: float,
    k: float,
    s_ab: float = 0.0,
    tol: float = MARGIN_TOL,
    tol_ns: float = 1e-9,
) -> ThresholdVerdict:
    """Sharpened bound using the normalized shape overlap.

    The separability condition weakens to ``s_a s_b >= rho_sq (k^2 + s_ab^2)``
    under restricted local dynamics; when the overlap is exactly one the
    condition is also necessary, which the returned flag records.
    """
    coupled = shapes.rho_sq * (k**2 + s_ab**2)
    return bound_verdict(
        s_a * s_b - coupled,
        max(s_a * s_b, coupled),
        BoundKind.STRINGENT_NS,
        tol,
        necessary_and_sufficient=bool(abs(shapes.rho_sq - 1.0) <= tol_ns),
    )


# -- first-order certificate --------------------------------------------------


@dataclass(frozen=True, eq=False)
class SeparabilityCertificate:
    """Explicit separable decomposition ``V = sigma_a (+) sigma_b + N``.

    All matrices are reported in the lab frame; the decomposition refers to
    the first-order covariance ``v_first_order``, the ``to_lab()`` image of
    the perturbative state in ``frame``.  ``remainder`` is positive
    semidefinite and the sigmas are physical single-side covariances, so the
    decomposition is a separability proof for the first-order state.
    """

    sigma_a: np.ndarray
    sigma_b: np.ndarray
    remainder: np.ndarray
    v_first_order: CovarianceMatrix
    frame: PerturbativeFrame
    margin: float
    min_remainder_eig: float
    sigma_physicality_margins: tuple[float, float]
    decomposition_residual: float
    ok: bool = field(default=True, init=False)


@dataclass(frozen=True, eq=False)
class CertificateFailure:
    """Bound violated: the PSD test of the reduced block failed."""

    margin: float
    failed_block: np.ndarray
    min_block_eig: float
    note: str
    ok: bool = field(default=False, init=False)


def _balancing_kernel(k: float, s_a: float, s_b: float, s_ab: float):
    """Per-side 2x2 kernels of the balancing term in the (ray, conjugate-ray) basis."""
    x_mat = np.array([[0.0, k / 2.0], [k / 2.0, s_ab]])
    tau = float(np.sqrt(k**2 + s_ab**2))
    if tau == 0.0:
        l_a = 0.5 * s_a * np.eye(2)
        l_b = 0.5 * s_b * np.eye(2)
    else:
        lam, evec = np.linalg.eigh(x_mat)
        abs_x = (evec * np.abs(lam)) @ evec.T
        l_a = (s_a / tau) * abs_x
        l_b = (s_b / tau) * abs_x
    drop = np.diag([0.0, 1.0])
    return l_a - s_a * drop, l_b - s_b * drop, x_mat, tau


def _reduced_blocks(
    s_a: float, s_b: float, na2: float, nb2: float, tau: float, x_mat
):
    """The per-ray 2x2 matrices whose positivity decides the construction."""
    lam, _ = np.linalg.eigh(x_mat)
    blocks = []
    for lam_i in lam:
        if lam_i == 0.0 and tau > 0.0:
            continue
        if tau == 0.0:
            blocks.append(
                np.array(
                    [[0.5 * s_a * na2**2, 0.0], [0.0, 0.5 * s_b * nb2**2]]
                )
            )
            continue
        blocks.append(
            np.array(
                [
                    [s_a * abs(lam_i) / tau * na2**2, lam_i * na2 * nb2],
                    [lam_i * na2 * nb2, s_b * abs(lam_i) / tau * nb2**2],
                ]
            )
        )
    return blocks


def _delta_v(p: np.ndarray, d_kernel: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Assemble ``int R D R^T ds`` from the exact ray integral ``P``."""
    out = (
        d_kernel[0, 0] * p
        + d_kernel[1, 1] * (eta @ p @ eta.T)
        + d_kernel[0, 1] * (p @ eta.T + eta @ p)
    )
    return 0.5 * (out + out.T)


def certificate_first_order(
    model: SystemModel,
    t: float,
    v0: CovarianceMatrix | None = None,
    tol: float = MARGIN_TOL,
):
    """Construct the first-order separable decomposition, or report failure.

    Preconditions are enforced by the first-order machinery: rank-1 scalar
    noise variant, strength-time products inside the perturbative window, and
    a pure product initial state.  Above threshold the returned certificate
    satisfies, up to roundoff, ``v_first_order = sigma_a (+) sigma_b + N``
    with physical sigmas and PSD remainder ``N``; below threshold the reduced
    2x2 block that failed its PSD test is returned instead.
    """
    terms = first_order_terms(model, t, v0)
    lo = model.layout
    n = model.noise
    k = model.coupling.strength

    d_a, d_b, x_mat, tau = _balancing_kernel(k, n.s_a, n.s_b, n.s_ab)
    margin = n.s_a * n.s_b - tau**2

    na2 = float(terms.w_a @ terms.w_a)
    nb2 = float(terms.w_b @ terms.w_b)
    blocks = _reduced_blocks(n.s_a, n.s_b, na2, nb2, tau, x_mat)
    min_eigs = [float(np.linalg.eigvalsh(b)[0]) for b in blocks]
    worst = int(np.argmin(min_eigs))
    if min_eigs[worst] < -tol * max(np.abs(b).max() for b in blocks):
        return CertificateFailure(
            margin=float(margin),
            failed_block=blocks[worst],
            min_block_eig=min_eigs[worst],
            note="noise does not dominate the coupling; balancing term not PSD",
        )

    dv_a = _delta_v(terms.p_a, d_a, mode_form(lo.n_a))
    dv_b = _delta_v(terms.p_b, d_b, mode_form(lo.n_b))
    dv = direct_sum(dv_a, dv_b)
    n_rot = terms.v_g + terms.v_th + dv
    n_rot = 0.5 * (n_rot + n_rot.T)

    # dense eigensolve cross-check of the reduced-block positivity argument
    min_remainder = float(np.linalg.eigvalsh(n_rot)[0])
    if min_remainder < -1e-9 * np.abs(n_rot).max():
        raise RuntimeError(
            "remainder failed its dense PSD cross-check "
            f"(min eigenvalue {min_remainder:.3e}) despite the reduced blocks passing"
        )

    frame = PerturbativeFrame.from_terms(terms)
    lab = frame.lab_map()
    sigmas = lab @ (0.5 * np.eye(lo.dim) - dv) @ lab.T
    sigma_a, sigma_b = sigmas[: lo.dim_a, : lo.dim_a], sigmas[lo.dim_a :, lo.dim_a :]
    n_lab = lab @ n_rot @ lab.T
    v_lab = frame.to_lab()
    residual = float(np.abs(v_lab.matrix - direct_sum(sigma_a, sigma_b) - n_lab).max())

    # the balancing term anticommutes with the symplectic form, so the
    # Heisenberg defect of I/2 - dV is second order: -O(|dV|^2), not -O(|dV|)
    sigma_margins = []
    for side, sigma, dv_side, n_modes in (
        ("A", sigma_a, dv_a, lo.n_a),
        ("B", sigma_b, dv_b, lo.n_b),
    ):
        cov = CovarianceMatrix(sigma, ModeLayout(n_modes, 0))
        sigma_margins.append(physicality_margin(cov))
        allowance = 4.0 * np.linalg.norm(dv_side, 2) ** 2 + 1e-12
        if sigma_margins[-1] < -allowance:
            raise RuntimeError(
                f"certificate sigma on side {side} failed its physicality check "
                f"(margin {sigma_margins[-1]:.3e}, second-order allowance {allowance:.3e})"
            )

    return SeparabilityCertificate(
        sigma_a=sigma_a,
        sigma_b=sigma_b,
        remainder=0.5 * (n_lab + n_lab.T),
        v_first_order=v_lab,
        frame=frame,
        margin=float(margin),
        min_remainder_eig=min_remainder,
        sigma_physicality_margins=(sigma_margins[0], sigma_margins[1]),
        decomposition_residual=residual,
    )
