"""Tests for the phase-space primitives."""

import numpy as np
import pytest
from scipy.linalg import expm

from gausep.symplectic import (
    CovarianceMatrix,
    ModeLayout,
    build_form,
    is_physical,
    mode_form,
    partial_transpose,
    symplectic_spectrum,
    williamson,
)


def random_physical(rng, layout, temp=0.3, squeeze=0.4):
    """Random physical covariance via a symplectic conjugation of a thermal state."""
    g = rng.standard_normal((layout.dim, layout.dim)) * squeeze
    g = 0.5 * (g + g.T)
    omega = build_form(layout)
    s = expm(omega @ g)
    nu = 0.5 + temp * rng.random(layout.n_modes)
    d = np.repeat(nu, 2)
    return CovarianceMatrix(s @ np.diag(d) @ s.T, layout)


def test_mode_form_blocks():
    """The form is a direct sum of 2x2 rotation generators."""
    omega = mode_form(3)
    eta = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for k in range(3):
        np.testing.assert_array_equal(omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], eta)
    np.testing.assert_array_equal(omega, -omega.T)


def test_vacuum_is_physical_with_spectrum_half():
    layout = ModeLayout(2, 1)
    vac = CovarianceMatrix.vacuum(layout)
    assert is_physical(vac)
    np.testing.assert_allclose(symplectic_spectrum(vac), 0.5 * np.ones(3), atol=1e-12)


def test_below_vacuum_is_unphysical():
    layout = ModeLayout(1, 0)
    v = CovarianceMatrix(0.4 * np.eye(2), layout)
    assert not is_physical(v)


def test_symplectic_spectrum_invariant_under_symplectic_conjugation():
    rng = np.random.default_rng(3)
    layout = ModeLayout(2, 1)
    v = random_physical(rng, layout)
    nu = symplectic_spectrum(v)
    g = rng.standard_normal((layout.dim, layout.dim))
    g = 0.5 * (g + g.T)
    s = expm(build_form(layout) @ g)
    w = CovarianceMatrix(s @ v.matrix @ s.T, layout)
    np.testing.assert_allclose(symplectic_spectrum(w), nu, rtol=1e-9)


def test_williamson_reconstructs_and_is_symplectic():
    rng = np.random.default_rng(11)
    layout = ModeLayout(2, 2)
    v = random_physical(rng, layout)
    s, nu = williamson(v)
    omega = build_form(layout)
    np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-9)
    diag = s @ v.matrix @ s.T
    np.testing.assert_allclose(diag, np.diag(np.repeat(nu, 2)), atol=1e-8)
    np.testing.assert_allclose(np.sort(nu), np.sort(symplectic_spectrum(v)), rtol=1e-9)


def test_williamson_deterministic_on_degenerate_spectrum():
    """Repeated runs on a degenerate state give the same basis."""
    rng = np.random.default_rng(5)
    layout = ModeLayout(2, 0)
    g = rng.standard_normal((4, 4))
    g = 0.05 * (g + g.T)
    s = expm(build_form(layout) @ g)
    v = CovarianceMatrix(s @ (0.7 * np.eye(4)) @ s.T, layout)
    first, _ = williamson(v)
    second, _ = williamson(v)
    np.testing.assert_array_equal(first, second)


def test_williamson_rejects_indefinite_input():
    layout = ModeLayout(1, 0)
    with pytest.raises(ValueError):
        williamson(CovarianceMatrix(np.diag([1.0, -1.0]), layout))


def test_partial_transpose_flips_b_momenta_only():
    rng = np.random.default_rng(7)
    layout = ModeLayout(1, 2)
    v = random_physical(rng, layout)
    pt = partial_transpose(v)
    signs = np.array([1.0, 1.0, 1.0, -1.0, 1.0, -1.0])
    np.testing.assert_allclose(pt.matrix, v.matrix * np.outer(signs, signs), atol=1e-14)
    # involution
    np.testing.assert_array_equal(partial_transpose(pt).matrix, v.matrix)


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout(0, 1)
    with pytest.raises(ValueError):
        CovarianceMatrix(np.eye(3), ModeLayout(1, 1))
