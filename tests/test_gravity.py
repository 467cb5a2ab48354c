"""Tests for laboratory-scale scenarios and their dimensionless models."""

import numpy as np
import pytest

from gausep.gravity import (
    BOLTZMANN,
    GRAVITATIONAL_CONSTANT,
    REDUCED_PLANCK,
    MediatorScenario,
    SphereMediatorScenario,
    TwoMassScenario,
    coupling_constant,
    mediator_threshold,
    scenario_from_dict,
    scenario_to_dict,
    to_model,
    two_mass_threshold,
)
from gausep.separability import threshold


def dense_two_mass(gamma=1e-9, temperature=1e-3):
    # mass over separation cubed fixed at 1e4 kg/m^3
    return TwoMassScenario(
        mass_a_kg=1.0,
        mass_b_kg=1.0,
        separation_m=(1.0 / 1e4) ** (1.0 / 3.0),
        gamma_a_per_s=gamma,
        gamma_b_per_s=gamma,
        temperature_K=temperature,
    )


def test_coupling_constant():
    np.testing.assert_allclose(
        coupling_constant(2.0, 3.0, 0.5),
        2.0 * GRAVITATIONAL_CONSTANT * 6.0 / 0.125,
        rtol=1e-15,
    )


def test_two_mass_gamma_temperature_bound_value():
    """At m/d^3 = 1e4 kg/m^3 the gamma-T bound is hbar G (m/d^3) / k_B."""
    verdict = two_mass_threshold(dense_two_mass())
    expected = REDUCED_PLANCK * GRAVITATIONAL_CONSTANT * 1e4 / BOLTZMANN
    np.testing.assert_allclose(verdict.gamma_temp_bound_K_per_s, expected, rtol=1e-12)
    np.testing.assert_allclose(
        verdict.gamma_temp_bound_K_per_s, 5.097985569252646e-18, rtol=1e-12
    )


def test_two_mass_verdict_sign():
    """Hot and lossy keeps separability; cold and quiet allows entanglement."""
    hot = two_mass_threshold(dense_two_mass(gamma=1e-9, temperature=1e-3))
    assert hot.satisfied
    assert hot.margin_J_per_s > 0
    cold = two_mass_threshold(dense_two_mass(gamma=1e-22, temperature=1e-5))
    assert not cold.satisfied


def test_mediator_reduces_to_two_mass_for_equal_setup():
    two = two_mass_threshold(dense_two_mass())
    med = mediator_threshold(
        MediatorScenario(
            mass_probe_kg=1.0,
            mass_mediator_kg=1.0,
            separation_m=(1.0 / 1e4) ** (1.0 / 3.0),
            gamma_probe_per_s=1e-9,
            gamma_mediator_per_s=1e-9,
            temperature_K=1e-3,
        )
    )
    np.testing.assert_allclose(med.gravity_rate_J_per_s, two.gravity_rate_J_per_s)
    np.testing.assert_allclose(med.thermal_rate_J_per_s, two.thermal_rate_J_per_s)


def test_sphere_mediator_closed_form_rate():
    """Sphere at its own radius: rate is (4 pi hbar G rho / 3) sqrt(M_A/M_C)."""
    scenario = SphereMediatorScenario(
        mass_probe_kg=1e-3,
        mass_mediator_kg=10.0,
        density_mediator_kg_m3=11340.0,
        gamma_probe_per_s=1e-8,
        gamma_mediator_per_s=1e-8,
        temperature_K=1e-3,
    )
    verdict = mediator_threshold(scenario)
    closed = (
        4.0 * np.pi * REDUCED_PLANCK * GRAVITATIONAL_CONSTANT * 11340.0 / 3.0
    ) * np.sqrt(1e-3 / 10.0)
    np.testing.assert_allclose(verdict.gravity_rate_J_per_s, closed, rtol=1e-12)


def test_direct_coupling_inflates_the_gravity_rate():
    base = MediatorScenario(
        mass_probe_kg=1.0,
        mass_mediator_kg=2.0,
        separation_m=0.1,
        gamma_probe_per_s=1e-9,
        gamma_mediator_per_s=1e-9,
        temperature_K=1e-3,
        mass_b_kg=4.0,
        separation_ab_m=0.2,
    )
    plain = mediator_threshold(base)
    both = mediator_threshold(base, include_ab_coupling=True)
    alpha = (4.0 / 2.0) * (0.1 / 0.2) ** 3
    np.testing.assert_allclose(
        both.gravity_rate_J_per_s / plain.gravity_rate_J_per_s,
        np.sqrt(1.0 + alpha**2),
        rtol=1e-12,
    )


def test_to_model_nondimensionalization():
    scenario = dense_two_mass(gamma=1e-9, temperature=1e-3)
    omega = 0.3
    model, record = to_model(scenario, omega)
    k_g = coupling_constant(1.0, 1.0, scenario.separation_m)
    np.testing.assert_allclose(
        record.coupling_dimensionless, k_g / omega**2, rtol=1e-12
    )
    np.testing.assert_allclose(
        record.noise_a_dimensionless,
        2.0 * 1e-9 * BOLTZMANN * 1e-3 / (REDUCED_PLANCK * omega**2),
        rtol=1e-12,
    )
    np.testing.assert_array_equal(model.h_a, np.eye(2))


def test_model_threshold_sign_matches_rate_verdict():
    """The dimensionless margin sign is the laboratory verdict, any frequency."""
    for gamma, temperature in ((1e-9, 1e-3), (1e-22, 1e-5), (3e-15, 1e-3)):
        scenario = dense_two_mass(gamma=gamma, temperature=temperature)
        lab = two_mass_threshold(scenario)
        for omega in (1e-2, 1.0, 1e3):
            model, _ = to_model(scenario, omega)
            assert threshold(model).satisfied == lab.satisfied


def test_to_model_with_direct_coupling_widens_side_b():
    scenario = MediatorScenario(
        mass_probe_kg=1.0,
        mass_mediator_kg=2.0,
        separation_m=0.1,
        gamma_probe_per_s=1e-9,
        gamma_mediator_per_s=1e-9,
        temperature_K=1e-3,
        mass_b_kg=4.0,
        separation_ab_m=0.2,
    )
    model, _ = to_model(scenario, 1.0, include_ab_coupling=True)
    assert (model.layout.n_a, model.layout.n_b) == (1, 2)
    alpha = (4.0 / 2.0) * (0.1 / 0.2) ** 3
    np.testing.assert_allclose(model.coupling.vec_b, [1.0, 0.0, alpha, 0.0])


def test_scenario_roundtrip():
    for scenario in (
        dense_two_mass(),
        MediatorScenario(1.0, 2.0, 0.1, 1e-9, 1e-9, 1e-3, 4.0, 0.2),
        SphereMediatorScenario(1e-3, 10.0, 11340.0, 1e-8, 1e-8, 1e-3),
    ):
        back = scenario_from_dict(scenario_to_dict(scenario))
        assert back == scenario


def test_scenario_validation():
    with pytest.raises(ValueError):
        TwoMassScenario(1.0, 1.0, -0.1, 1e-9, 1e-9, 1e-3)
    with pytest.raises(ValueError):
        MediatorScenario(1.0, 2.0, 0.1, 1e-9, 1e-9, 1e-3, mass_b_kg=4.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
def test_scenario_validation_rejects_nan_infinite_and_zero(bad):
    with pytest.raises(ValueError, match="temperature_K"):
        TwoMassScenario(1.0, 1.0, 0.1, 1e-9, 1e-9, bad)
    with pytest.raises(ValueError, match="density_mediator_kg_m3"):
        SphereMediatorScenario(1e-3, 10.0, bad, 1e-8, 1e-8, 1e-3)
    # the optional direct-coupling fields are checked once they are set
    with pytest.raises(ValueError, match="separation_ab_m"):
        MediatorScenario(1.0, 2.0, 0.1, 1e-9, 1e-9, 1e-3, mass_b_kg=4.0, separation_ab_m=bad)
