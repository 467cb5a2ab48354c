"""Gravitationally coupled oscillators in laboratory units.

The rest of the package is dimensionless with hbar = 1; this module owns
every SI quantity.  A scenario describes masses, separations, damping rates
and a temperature; :func:`to_model` nondimensionalizes it at a reference
frequency into the rank-1 harmonic model, and the threshold helpers report
the no-entanglement bound in laboratory rates:

    thermal rate   sqrt(gamma_a gamma_b) k_B T          [J/s]
    gravity rate   hbar G sqrt(m_a m_b) / d^3           [J/s]

i.e. ``hbar K_g / (2 sqrt(m_a m_b))`` with ``K_g = 2 G m_a m_b / d^3`` the
quadratic coupling constant of the expanded potential.  Entanglement
generation requires the gravity rate to beat the thermal rate; the margin
returned below is thermal minus gravity, so positive means separability is
guaranteed.  The verdict itself is :func:`separability.threshold` of the
scenario's own model, so a laboratory scenario and its model never get two
answers: the dimensionless margin differs from the laboratory one by the
positive factor ``4 / (hbar omega^2)^2``, so its sign does not depend on the
nondimensionalization point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import Rank1Coupling, ScalarWhiteNoise, SystemModel
from .separability import threshold
from .symplectic import ModeLayout

GRAVITATIONAL_CONSTANT = 6.67430e-11
REDUCED_PLANCK = 1.054571817e-34
BOLTZMANN = 1.380649e-23


def _require_positive(**values) -> None:
    """Every value that is set must be a positive finite number."""
    for name, value in values.items():
        if value is not None and not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class TwoMassScenario:
    """Two suspended masses, each damped against a thermal bath."""

    mass_a_kg: float
    mass_b_kg: float
    separation_m: float
    gamma_a_per_s: float
    gamma_b_per_s: float
    temperature_K: float

    def __post_init__(self):
        _require_positive(**vars(self))


@dataclass(frozen=True)
class MediatorScenario:
    """Probe mass coupled gravitationally to a nearby mediator mass.

    ``mass_b_kg`` and ``separation_ab_m`` exist only to describe a further
    mass B the probe also couples to directly: when they are set, the direct
    A-B coupling is folded into the mediator channel (:func:`to_model`).
    """

    mass_probe_kg: float
    mass_mediator_kg: float
    separation_m: float
    gamma_probe_per_s: float
    gamma_mediator_per_s: float
    temperature_K: float
    mass_b_kg: float | None = None
    separation_ab_m: float | None = None

    def __post_init__(self):
        _require_positive(**vars(self))
        if (self.mass_b_kg is None) != (self.separation_ab_m is None):
            raise ValueError("mass_b_kg and separation_ab_m must be provided together")

    @classmethod
    def sphere(
        cls, mass_probe_kg, mass_mediator_kg, density_mediator_kg_m3,
        gamma_probe_per_s, gamma_mediator_per_s, temperature_K,
    ) -> MediatorScenario:
        """Mediator given by density; the separation is the sphere radius."""
        _require_positive(density_mediator_kg_m3=density_mediator_kg_m3)
        volume = mass_mediator_kg / density_mediator_kg_m3
        radius = float((3.0 * volume / (4.0 * np.pi)) ** (1.0 / 3.0))
        return cls(
            mass_probe_kg, mass_mediator_kg, radius,
            gamma_probe_per_s, gamma_mediator_per_s, temperature_K,
        )


@dataclass(frozen=True)
class UnitRecord:
    """Conversion factors of a nondimensionalization."""

    omega_per_s: float
    time_unit_s: float
    energy_unit_J: float
    coupling_dimensionless: float
    noise_a_dimensionless: float
    noise_b_dimensionless: float


@dataclass(frozen=True)
class GravityVerdict:
    """Laboratory-rate form of the separability bound."""

    satisfied: bool
    margin_J_per_s: float
    gravity_rate_J_per_s: float
    thermal_rate_J_per_s: float
    gamma_temp_bound_K_per_s: float


def _cube_in_range(name: str, value: float, factor: float = 1.0) -> float:
    """``factor value^3``, refused by name where it leaves double range
    (Python's ``**`` raises ``OverflowError`` there, or rounds to 0)."""
    try:
        cube = factor * value**3
    except OverflowError:
        cube = math.inf
    if not 0.0 < cube < math.inf:
        raise ValueError(f"{name} is out of double range: {cube!r}")
    return cube


def coupling_constant(mass_a_kg: float, mass_b_kg: float, separation_m: float) -> float:
    """Quadratic expansion coefficient ``2 G m_a m_b / d^3`` of the potential."""
    cube = _cube_in_range("separation_m**3", separation_m)
    return 2.0 * GRAVITATIONAL_CONSTANT * mass_a_kg * mass_b_kg / cube


def _sides(scenario: TwoMassScenario | MediatorScenario):
    """``(m_a, m_b, gamma_a, gamma_b, K, vec_b)`` of a scenario.

    Side A is the first mass or the probe, side B the second mass or the
    mediator.  With a mass B the probe couples to ``x_med + alpha x_B``,
    ``alpha = (m_B / m_med) (d / d_AB)^3``: ``vec_b`` is the unit direction
    of that on the modes (mediator, B), and ``K`` carries its norm
    ``sqrt(1 + alpha^2)``.
    """
    vec_b = np.array([1.0, 0.0])
    if isinstance(scenario, TwoMassScenario):
        m_a, m_b = scenario.mass_a_kg, scenario.mass_b_kg
        gamma_a, gamma_b = scenario.gamma_a_per_s, scenario.gamma_b_per_s
    else:
        m_a, m_b = scenario.mass_probe_kg, scenario.mass_mediator_kg
        gamma_a, gamma_b = scenario.gamma_probe_per_s, scenario.gamma_mediator_per_s
        if scenario.mass_b_kg is not None:
            ratio = scenario.separation_m / scenario.separation_ab_m
            alpha = _cube_in_range(
                "alpha = (mass_b_kg / mass_mediator_kg) (separation_m / separation_ab_m)**3",
                ratio,
                scenario.mass_b_kg / m_b,
            )
            vec_b = np.array([1.0, 0.0, alpha, 0.0])
    norm = np.linalg.norm(vec_b)
    k_g = coupling_constant(m_a, m_b, scenario.separation_m) * norm
    return m_a, m_b, gamma_a, gamma_b, k_g, vec_b / norm


def _rates(scenario: TwoMassScenario | MediatorScenario) -> GravityVerdict:
    """Laboratory rates of a scenario, judged by the threshold of its model.

    The model is taken at ``omega = sqrt(K / sqrt(m_a m_b))``, where the
    dimensionless coupling is 1, so its margin ``s_a s_b - 1`` is resolved
    unless the thermal rate is below ~1e-154 of the gravity rate; there the
    threshold refuses it as unresolved.  Rates outside double range are refused.
    """
    m_a, m_b, gamma_a, gamma_b, k_g, _ = _sides(scenario)
    with np.errstate(all="ignore"):  # an overflow is refused below, by name
        gravity = REDUCED_PLANCK * k_g / (2.0 * np.sqrt(m_a * m_b))
        thermal = np.sqrt(gamma_a * gamma_b) * BOLTZMANN * scenario.temperature_K
        omega = np.sqrt(k_g / np.sqrt(m_a * m_b))
    if not (0.0 < omega < np.inf and np.isfinite(thermal)):  # then gravity is finite
        raise ValueError(f"rates out of double range: gravity {gravity}, thermal {thermal}")
    model, _ = to_model(scenario, omega)
    return GravityVerdict(
        satisfied=threshold(model).satisfied,
        margin_J_per_s=float(thermal - gravity),
        gravity_rate_J_per_s=float(gravity),
        thermal_rate_J_per_s=float(thermal),
        gamma_temp_bound_K_per_s=float(gravity / BOLTZMANN),
    )


def two_mass_threshold(scenario: TwoMassScenario) -> GravityVerdict:
    """No-entanglement bound for the two-mass experiment.

    ``gamma_temp_bound_K_per_s`` is the bound rewritten as the product
    ``gamma T`` (for equal dampings): staying above it guarantees
    separability at any interrogation time.
    """
    return _rates(scenario)


def mediator_threshold(scenario: MediatorScenario) -> GravityVerdict:
    """No-entanglement bound for the probe-mediator experiment.

    For a sphere mediator at density ``rho`` (:meth:`MediatorScenario.sphere`)
    the bound reduces to ``(4 pi hbar G rho / 3) sqrt(M_probe / M_mediator)``
    against ``sqrt(gamma_p gamma_m) k_B T``.  A mass B inflates the gravity
    rate by the folded channel norm ``sqrt(1 + alpha^2)``.
    """
    return _rates(scenario)


def to_model(
    scenario: TwoMassScenario | MediatorScenario, omega_per_s: float
) -> tuple[SystemModel, UnitRecord]:
    """Dimensionless harmonic model of a scenario at a reference frequency.

    Quadratures are scaled by the harmonic ground-state widths at ``omega``
    and time by ``1/omega``; the local Hamiltonian forms become identities,
    the coupling becomes ``K_g / (sqrt(m_a m_b) omega^2)``, and each thermal
    drive becomes ``2 gamma k_B T / (hbar omega^2)`` with the mass cancelling.
    With a mass B, side B has two modes, the mediator and B, and the
    coupling acts along the unit direction ``(1, 0, alpha, 0) / sqrt(1 +
    alpha^2)`` with the folded norm in its strength.  The sign of every
    separability margin is frequency independent.
    """
    if not 0.0 < omega_per_s < np.inf:
        raise ValueError("omega_per_s must be positive and finite")
    m_a, m_b, gamma_a, gamma_b, k_g, vec_b = _sides(scenario)
    k_model = k_g / (np.sqrt(m_a * m_b) * omega_per_s**2)
    unit, temperature = REDUCED_PLANCK * omega_per_s**2, scenario.temperature_K
    s_a, s_b = (2.0 * g * BOLTZMANN * temperature / unit for g in (gamma_a, gamma_b))
    model = SystemModel(
        ModeLayout(1, vec_b.size // 2),
        np.eye(2),
        np.eye(vec_b.size),
        Rank1Coupling(k_model, np.array([1.0, 0.0]), vec_b),
        ScalarWhiteNoise(s_a, s_b),
    )
    record = UnitRecord(
        omega_per_s=float(omega_per_s),
        time_unit_s=1.0 / omega_per_s,
        energy_unit_J=REDUCED_PLANCK * omega_per_s,
        coupling_dimensionless=float(k_model),
        noise_a_dimensionless=float(s_a),
        noise_b_dimensionless=float(s_b),
    )
    return model, record
