"""Tests for PPT checks, closed-form bounds, and the first-order certificate."""

import numpy as np
import pytest

from gausep.dynamics import evolve, perturbative_v, shape_functions
from gausep.generators import (
    GeneralCoupling,
    MatrixWhiteNoise,
    Rank1Coupling,
    ScalarWhiteNoise,
    SystemModel,
    build_generator,
)
from gausep.separability import (
    BoundKind,
    CertificateFailure,
    SeparabilityCertificate,
    certificate_first_order,
    log_negativity,
    ppt_multimode,
    ppt_two_mode,
    stringent_ns_check,
    threshold,
)
from gausep.symplectic import CovarianceMatrix, ModeLayout


def two_mode_squeezed(r):
    c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    z = np.diag([1.0, -1.0])
    m = np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])
    return CovarianceMatrix(m, ModeLayout(1, 1))


def rank1_model(k, s_a, s_b, s_ab=0.0, layout=None, h_a=None, h_b=None,
                vec_a=None, vec_b=None):
    lo = layout or ModeLayout(1, 1)
    if vec_a is None:
        vec_a = np.zeros(lo.dim_a)
        vec_a[0] = 1.0
    if vec_b is None:
        vec_b = np.zeros(lo.dim_b)
        vec_b[0] = 1.0
    return SystemModel(
        layout=lo,
        h_a=np.zeros((lo.dim_a, lo.dim_a)) if h_a is None else h_a,
        h_b=np.zeros((lo.dim_b, lo.dim_b)) if h_b is None else h_b,
        coupling=Rank1Coupling(strength=k, vec_a=vec_a, vec_b=vec_b),
        noise=ScalarWhiteNoise(s_a=s_a, s_b=s_b, s_ab=s_ab),
    )


def test_vacuum_is_ppt_separable():
    v = CovarianceMatrix.vacuum(ModeLayout(1, 1))
    res = ppt_two_mode(v)
    assert res.separable
    assert log_negativity(v) == 0.0


def test_two_mode_squeezed_anchor():
    """At r = 1/2 the PT symplectic minimum is e^-1/2 and E_N is 1/ln 2."""
    v = two_mode_squeezed(0.5)
    res = ppt_two_mode(v)
    np.testing.assert_allclose(res.nu_tilde_minus, np.exp(-1.0) / 2, rtol=1e-12)
    assert not res.separable
    np.testing.assert_allclose(log_negativity(v), 1.0 / np.log(2.0), rtol=1e-12)


def test_ppt_multimode_matches_two_mode_case():
    v = two_mode_squeezed(0.3)
    verdict = ppt_multimode(v)
    assert verdict.npt
    assert verdict.verdict == "entangled"
    np.testing.assert_allclose(
        verdict.min_sympl_eig, ppt_two_mode(v).nu_tilde_minus, rtol=1e-12
    )


def test_ppt_multimode_separable_one_vs_many_is_conclusive():
    layout = ModeLayout(1, 2)
    v = CovarianceMatrix(0.8 * np.eye(layout.dim), layout)
    verdict = ppt_multimode(v)
    assert not verdict.npt
    assert verdict.verdict == "separable"


def test_threshold_rank1_margin():
    verdict = threshold(rank1_model(1.0, 2.0, 2.0))
    assert verdict.bound_kind is BoundKind.RANK1
    assert verdict.satisfied
    np.testing.assert_allclose(verdict.margin, 3.0)
    assert not threshold(rank1_model(3.0, 2.0, 2.0)).satisfied


def test_threshold_correlated_margin():
    verdict = threshold(rank1_model(1.0, 2.0, 2.0, s_ab=1.5))
    assert verdict.bound_kind is BoundKind.RANK1_CORRELATED
    np.testing.assert_allclose(verdict.margin, 4.0 - 1.0 - 2.25)


def test_threshold_general_matrix_is_block_psd():
    layout = ModeLayout(1, 1)
    model = SystemModel(
        layout=layout,
        h_a=np.zeros((2, 2)),
        h_b=np.zeros((2, 2)),
        coupling=GeneralCoupling(matrix=0.5 * np.eye(2)),
        noise=MatrixWhiteNoise(q_a=np.eye(2), q_b=np.eye(2)),
    )
    verdict = threshold(model)
    assert verdict.bound_kind is BoundKind.GENERAL_MATRIX
    assert verdict.satisfied
    np.testing.assert_allclose(verdict.margin, 0.5)


def test_saturated_threshold_has_zero_margin():
    verdict = threshold(rank1_model(2.0, 2.0, 2.0))
    assert verdict.satisfied
    np.testing.assert_allclose(verdict.margin, 0.0, atol=1e-15)


def test_stringent_check_flags_unit_overlap():
    model = rank1_model(1.0, 2.0, 2.0)
    shapes = shape_functions(model, 0.05)
    verdict = stringent_ns_check(shapes, 2.0, 2.0, 1.0)
    assert verdict.bound_kind is BoundKind.STRINGENT_NS
    assert verdict.necessary_and_sufficient
    np.testing.assert_allclose(verdict.margin, 3.0, atol=1e-10)


def test_stringent_check_relaxes_below_unit_overlap():
    """With overlap below one the bound is weaker than the plain product."""
    h_a = np.array([[0.0, 0.6], [0.6, 0.0]])
    h_b = np.array([[0.0, -0.6], [-0.6, 0.0]])
    model = rank1_model(1.0, 2.0, 2.0, h_a=h_a, h_b=h_b)
    shapes = shape_functions(model, 1.0)
    verdict = stringent_ns_check(shapes, 2.0, 2.0, 1.9)
    assert verdict.margin > 4.0 - 1.9**2
    assert not verdict.necessary_and_sufficient


def certificate_case(k, s_a, s_b, s_ab=0.0, t=1.0, **kw):
    model = rank1_model(k, s_a, s_b, s_ab=s_ab, **kw)
    return model, certificate_first_order(model, t)


def test_certificate_succeeds_above_threshold():
    model, cert = certificate_case(6e-6, 1e-5, 1e-5, t=1.0)
    assert isinstance(cert, SeparabilityCertificate)
    assert cert.ok
    assert cert.margin > 0
    assert cert.decomposition_residual < 1e-12
    scale = max(1.0, np.abs(cert.remainder).max())
    assert np.linalg.eigvalsh(cert.remainder)[0] >= -1e-9 * scale
    assert min(cert.sigma_physicality_margins) >= -1e-9


def test_certificate_matches_exact_evolution_to_second_order():
    model, cert = certificate_case(6e-6, 1e-5, 1e-5, t=1.0)
    exact = evolve(build_generator(model), CovarianceMatrix.vacuum(model.layout), 1.0)
    defect = np.abs(cert.v_first_order.matrix - exact.matrix).max()
    assert defect < 1e-9


def test_certificate_state_is_ppt():
    model, cert = certificate_case(6e-6, 1e-5, 1e-5, t=1.0)
    exact = evolve(build_generator(model), CovarianceMatrix.vacuum(model.layout), 1.0)
    assert ppt_multimode(exact).verdict != "entangled"


def test_certificate_correlated_noise():
    model, cert = certificate_case(5e-6, 1e-5, 1e-5, s_ab=4e-6, t=1.0)
    assert cert.ok
    assert cert.decomposition_residual < 1e-12


def test_certificate_multimode():
    layout = ModeLayout(2, 2)
    vec = np.array([1.0, 0.0, 0.5, 0.0])
    model = rank1_model(
        6e-6, 1e-5, 1e-5, layout=layout, vec_a=vec, vec_b=vec[::-1].copy()
    )
    cert = certificate_first_order(model, 1.0)
    assert cert.ok
    assert cert.decomposition_residual < 1e-12


def test_certificate_squeezed_initial_state():
    model = rank1_model(6e-6, 1e-5, 1e-5)
    sq = np.diag([np.exp(-0.6), np.exp(0.6)]) / 2
    v0 = CovarianceMatrix(np.block([[sq, np.zeros((2, 2))], [np.zeros((2, 2)), sq]]),
                          model.layout)
    cert = certificate_first_order(model, 1.0, v0=v0)
    assert cert.ok
    assert cert.decomposition_residual < 1e-12


def test_certificate_fails_below_threshold_with_entangled_state():
    model = rank1_model(2e-5, 1e-5, 1e-5)
    cert = certificate_first_order(model, 1.0)
    assert isinstance(cert, CertificateFailure)
    assert not cert.ok
    assert cert.margin < 0
    assert cert.min_block_eig < 0
    exact = evolve(build_generator(model), CovarianceMatrix.vacuum(model.layout), 1.0)
    assert ppt_multimode(exact).verdict == "entangled"


def test_certificate_failure_block_eigenvalue_is_exact():
    """The failing 2x2 block has eigenvalues (s +- tau)/2 times the norms."""
    model = rank1_model(2e-5, 1e-5, 1e-5)
    cert = certificate_first_order(model, 1.0)
    eigs = np.linalg.eigvalsh(cert.failed_block)
    s, tau = 1e-5, 2e-5
    np.testing.assert_allclose(eigs, [(s - tau) / 2, (s + tau) / 2], rtol=1e-10)


def harmonic_model(k, s):
    eye = np.eye(2)
    return rank1_model(k, s, s, h_a=eye, h_b=eye)


def test_certificate_refuses_a_violated_lab_scale_model():
    """s = k/2 violates the bound; no tolerance may turn it into a proof."""
    cert = certificate_first_order(harmonic_model(1e-10, 0.5e-10), 1.0)
    assert isinstance(cert, CertificateFailure)
    assert cert.margin < 0 and cert.min_block_eig < 0
    assert not threshold(harmonic_model(1e-10, 0.5e-10)).satisfied


@pytest.mark.parametrize("k", [1e-2, 1e-6, 1e-10, 1e-12])
def test_certificate_holds_above_threshold_at_every_scale(k):
    model = harmonic_model(k, 2 * k)
    cert = certificate_first_order(model, 1.0)
    assert isinstance(cert, SeparabilityCertificate)
    assert cert.min_remainder_eig > 0
    assert cert.decomposition_residual < 1e-15
    # the certificate decomposes exactly the state perturbative_v reports
    lab = perturbative_v(model, 1.0).to_lab()
    np.testing.assert_array_equal(cert.v_first_order.matrix, lab.matrix)
