"""Tests for laboratory-scale scenarios and their dimensionless models."""

import dataclasses
import warnings

import numpy as np
import pytest

from gausep.gravity import (
    BOLTZMANN,
    GRAVITATIONAL_CONSTANT,
    REDUCED_PLANCK,
    MediatorScenario,
    TwoMassScenario,
    coupling_constant,
    mediator_threshold,
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
    scenario = MediatorScenario.sphere(
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
    plain = mediator_threshold(
        dataclasses.replace(base, mass_b_kg=None, separation_ab_m=None)
    )
    both = mediator_threshold(base)
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
    model, _ = to_model(scenario, 1.0)
    assert (model.layout.n_a, model.layout.n_b) == (1, 2)
    alpha = (4.0 / 2.0) * (0.1 / 0.2) ** 3
    np.testing.assert_allclose(
        model.coupling.vec_b, np.array([1.0, 0.0, alpha, 0.0]) / np.sqrt(1.0 + alpha**2)
    )


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
        MediatorScenario.sphere(1e-3, 10.0, bad, 1e-8, 1e-8, 1e-3)
    # the optional direct-coupling fields are checked once they are set
    with pytest.raises(ValueError, match="separation_ab_m"):
        MediatorScenario(1.0, 2.0, 0.1, 1e-9, 1e-9, 1e-3, mass_b_kg=4.0, separation_ab_m=bad)


# A band of +-2e-10 in the thermal-to-gravity rate ratio around the two-mass
# threshold, where an exact rate comparison and the model's relative-tolerance
# threshold used to part; the model's verdict at any frequency is the lab's.
TWO_MASS_RATIOS = [
    *(1.0 + np.linspace(-2e-10, 2e-10, 81)), 1.0 + 1e-12, 1.0 - 1e-12, 1.0 - 3e-11
]


@pytest.mark.parametrize("omega", [1e-2, 1.0, 1e3])
@pytest.mark.parametrize("ratio", TWO_MASS_RATIOS)
def test_two_mass_verdict_is_the_model_threshold_near_the_bound(ratio, omega):
    mass, separation, temperature = 0.1, 0.01, 1e-3
    gravity = REDUCED_PLANCK * coupling_constant(mass, mass, separation) / (2.0 * mass)
    gamma = ratio * gravity / (BOLTZMANN * temperature)
    scenario = TwoMassScenario(mass, mass, separation, gamma, gamma, temperature)
    model, _ = to_model(scenario, omega)
    assert two_mass_threshold(scenario).satisfied == threshold(model).satisfied


@pytest.mark.parametrize("omega", [1e-2, 1.0, 1e3])
@pytest.mark.parametrize("temperature", np.linspace(7.0e-10, 7.6e-10, 61))
def test_mediator_verdict_with_a_mass_b_is_the_model_threshold(temperature, omega):
    """The band straddles the bound with the direct A-B coupling folded in."""
    scenario = MediatorScenario(
        1.0, 2.0, 0.1, 1e-9, 1e-9, temperature, mass_b_kg=4.0, separation_ab_m=0.2
    )
    model, _ = to_model(scenario, omega)
    assert model.layout.n_b == 2
    assert mediator_threshold(scenario).satisfied == threshold(model).satisfied


def test_two_mass_verdict_below_the_resolved_rate_ratio_is_refused():
    """A thermal rate ~1e-170 of the gravity rate underflows the model's margin."""
    scenario = TwoMassScenario(0.1, 0.1, 0.01, 1e-170, 1e-170, 1e-3)
    with pytest.raises(ValueError, match="unresolved"):
        two_mass_threshold(scenario)


@pytest.mark.parametrize(
    "scenario",
    [
        TwoMassScenario(1e200, 1e200, 1e-50, 1.0, 1.0, 1.0),  # the gravity rate
        TwoMassScenario(1e-200, 1e-200, 1e50, 1.0, 1.0, 1.0),  # m_a m_b underflows
        TwoMassScenario(1.0, 1.0, 1e-2, 1e300, 1e300, 1e10),  # the thermal rate
    ],
)
def test_rates_out_of_double_range_are_refused_by_name_without_a_warning(scenario):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="out of double range") as refused:
            two_mass_threshold(scenario)
    assert "omega_per_s" not in str(refused.value)


@pytest.mark.parametrize(
    "scenario, quantity",
    [
        (TwoMassScenario(1.0, 1.0, 1e150, 1.0, 1.0, 1.0), "separation_m**3"),
        (TwoMassScenario(1.0, 1.0, 1e-120, 1.0, 1.0, 1.0), "separation_m**3"),
        (MediatorScenario(1.0, 1.0, 1e150, 1.0, 1.0, 1.0), "separation_m**3"),
        (
            MediatorScenario(
                1.0, 1.0, 1e100, 1.0, 1.0, 1.0, mass_b_kg=1.0, separation_ab_m=1e-10
            ),
            "alpha",
        ),
        (
            MediatorScenario(
                1.0, 1e-300, 1.0, 1.0, 1.0, 1.0, mass_b_kg=1e300, separation_ab_m=1.0
            ),
            "alpha",
        ),
    ],
)
def test_cubes_out_of_double_range_are_refused_by_name_without_a_warning(
    scenario, quantity
):
    """``d^3`` and the fold ``alpha = (m_B / m_med) (d / d_AB)^3`` overflow (or
    round to 0) before any rate: both the verdict and the model refuse them."""
    verdict = (
        two_mass_threshold if isinstance(scenario, TwoMassScenario) else mediator_threshold
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (verdict, lambda s: to_model(s, 1.0)):
            with pytest.raises(ValueError, match="out of double range") as refused:
                call(scenario)
            assert str(refused.value).startswith(quantity)


def test_a_normal_scenario_keeps_its_verdict_and_rates_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hot = two_mass_threshold(TwoMassScenario(0.1, 0.1, 0.01, 1e-9, 1e-9, 1e-3))
        cold = two_mass_threshold(TwoMassScenario(0.1, 0.1, 0.01, 1e-9, 1e-9, 1e-12))
    assert hot.satisfied and not cold.satisfied
    assert hot.gravity_rate_J_per_s == cold.gravity_rate_J_per_s == 7.038528678203099e-40
    assert hot.thermal_rate_J_per_s == 1.3806490000000003e-35
