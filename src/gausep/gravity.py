"""Gravitationally coupled oscillators in laboratory units.

The rest of the package is dimensionless with hbar = 1; this module owns
every SI quantity.  A scenario describes masses, separations, damping rates
and a temperature; :func:`to_model` nondimensionalizes it at a reference
frequency into the rank-1 harmonic model, and the threshold helpers state the
no-entanglement bound directly in laboratory rates:

    thermal rate   sqrt(gamma_a gamma_b) k_B T          [J/s]
    gravity rate   hbar G sqrt(m_a m_b) / d^3           [J/s]

i.e. ``hbar K_g / (2 sqrt(m_a m_b))`` with ``K_g = 2 G m_a m_b / d^3`` the
quadratic coupling constant of the expanded potential.  Entanglement
generation requires the gravity rate to beat the thermal rate; the margin
returned below is thermal minus gravity, so positive means separability is
guaranteed.  Only the sign of the margin is physical: the dimensionless model
margin differs from it by a positive frequency-dependent factor, so verdicts
never depend on the nondimensionalization point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .generators import Rank1Coupling, ScalarWhiteNoise, SystemModel
from .symplectic import ModeLayout

GRAVITATIONAL_CONSTANT = 6.67430e-11
REDUCED_PLANCK = 1.054571817e-34
BOLTZMANN = 1.380649e-23


def _require_positive(scenario) -> None:
    """Every field that is set must be a positive finite number."""
    for f in fields(scenario):
        value = getattr(scenario, f.name)
        if value is not None and not 0.0 < value < np.inf:
            raise ValueError(f"{f.name} must be positive and finite, got {value!r}")


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
        _require_positive(self)


@dataclass(frozen=True)
class MediatorScenario:
    """Probe mass coupled gravitationally to a nearby mediator mass.

    The optional ``mass_b_kg`` and ``separation_ab_m`` describe a further
    mass B the probe also couples to directly; they are only consulted when a
    threshold or model is built with the A-B coupling included.
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
        _require_positive(self)
        if (self.mass_b_kg is None) != (self.separation_ab_m is None):
            raise ValueError(
                "mass_b_kg and separation_ab_m must be provided together"
            )


@dataclass(frozen=True)
class SphereMediatorScenario:
    """Mediator given by density; the separation is the sphere radius."""

    mass_probe_kg: float
    mass_mediator_kg: float
    density_mediator_kg_m3: float
    gamma_probe_per_s: float
    gamma_mediator_per_s: float
    temperature_K: float

    def __post_init__(self):
        _require_positive(self)

    @property
    def separation_m(self) -> float:
        return float(
            (3.0 * self.mass_mediator_kg / (4.0 * np.pi * self.density_mediator_kg_m3))
            ** (1.0 / 3.0)
        )

    def as_mediator(self) -> MediatorScenario:
        return MediatorScenario(
            mass_probe_kg=self.mass_probe_kg,
            mass_mediator_kg=self.mass_mediator_kg,
            separation_m=self.separation_m,
            gamma_probe_per_s=self.gamma_probe_per_s,
            gamma_mediator_per_s=self.gamma_mediator_per_s,
            temperature_K=self.temperature_K,
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


def coupling_constant(mass_a_kg: float, mass_b_kg: float, separation_m: float) -> float:
    """Quadratic expansion coefficient ``2 G m_a m_b / d^3`` of the potential."""
    return 2.0 * GRAVITATIONAL_CONSTANT * mass_a_kg * mass_b_kg / separation_m**3


def _rates(
    mass_a: float,
    mass_b: float,
    separation: float,
    gamma_a: float,
    gamma_b: float,
    temperature: float,
    coupling_inflation: float = 1.0,
) -> GravityVerdict:
    k_g = coupling_constant(mass_a, mass_b, separation) * coupling_inflation
    gravity = REDUCED_PLANCK * k_g / (2.0 * np.sqrt(mass_a * mass_b))
    thermal = np.sqrt(gamma_a * gamma_b) * BOLTZMANN * temperature
    return GravityVerdict(
        satisfied=bool(thermal >= gravity),
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
    return _rates(
        scenario.mass_a_kg,
        scenario.mass_b_kg,
        scenario.separation_m,
        scenario.gamma_a_per_s,
        scenario.gamma_b_per_s,
        scenario.temperature_K,
    )


def _ab_inflation(scenario: MediatorScenario) -> float:
    """Norm factor from folding the direct A-B coupling into the mediator channel."""
    if scenario.mass_b_kg is None:
        raise ValueError("scenario lacks the direct A-B fields")
    ratio = (scenario.mass_b_kg / scenario.mass_mediator_kg) * (
        scenario.separation_m / scenario.separation_ab_m
    ) ** 3
    return float(np.sqrt(1.0 + ratio**2))


def _unsphere(scenario, include_ab_coupling: bool):
    """The plain mediator form of a sphere scenario; other scenarios pass through."""
    if not isinstance(scenario, SphereMediatorScenario):
        return scenario
    if include_ab_coupling:
        raise ValueError("sphere scenarios carry no direct A-B fields")
    return scenario.as_mediator()


def mediator_threshold(
    scenario: MediatorScenario | SphereMediatorScenario,
    include_ab_coupling: bool = False,
) -> GravityVerdict:
    """No-entanglement bound for the probe-mediator experiment.

    For a sphere mediator at density ``rho`` the bound reduces to
    ``(4 pi hbar G rho / 3) sqrt(M_probe / M_mediator)`` against
    ``sqrt(gamma_p gamma_m) k_B T``.  Including the direct A-B coupling
    inflates the gravity rate by the folded channel norm.
    """
    scenario = _unsphere(scenario, include_ab_coupling)
    inflation = _ab_inflation(scenario) if include_ab_coupling else 1.0
    return _rates(
        scenario.mass_probe_kg,
        scenario.mass_mediator_kg,
        scenario.separation_m,
        scenario.gamma_probe_per_s,
        scenario.gamma_mediator_per_s,
        scenario.temperature_K,
        coupling_inflation=inflation,
    )


def to_model(
    scenario: TwoMassScenario | MediatorScenario | SphereMediatorScenario,
    omega_per_s: float,
    include_ab_coupling: bool = False,
) -> tuple[SystemModel, UnitRecord]:
    """Dimensionless harmonic model of a scenario at a reference frequency.

    Quadratures are scaled by the harmonic ground-state widths at ``omega``
    and time by ``1/omega``; the local Hamiltonian forms become identities,
    the coupling becomes ``K_g / (sqrt(m_a m_b) omega^2)``, and each thermal
    drive becomes ``2 gamma k_B T / (hbar omega^2)`` with the mass cancelling.
    The sign of every separability margin is frequency independent.
    """
    if not 0.0 < omega_per_s < np.inf:
        raise ValueError("omega_per_s must be positive and finite")
    scenario = _unsphere(scenario, include_ab_coupling)
    if isinstance(scenario, TwoMassScenario):
        mass_a, mass_b = scenario.mass_a_kg, scenario.mass_b_kg
        gamma_a, gamma_b = scenario.gamma_a_per_s, scenario.gamma_b_per_s
        if include_ab_coupling:
            raise ValueError("two-mass scenarios have no mediator channel")
    else:
        mass_a, mass_b = scenario.mass_probe_kg, scenario.mass_mediator_kg
        gamma_a, gamma_b = scenario.gamma_probe_per_s, scenario.gamma_mediator_per_s

    k_g = coupling_constant(mass_a, mass_b, scenario.separation_m)
    k_model = k_g / (np.sqrt(mass_a * mass_b) * omega_per_s**2)
    s_a = 2.0 * gamma_a * BOLTZMANN * scenario.temperature_K / (
        REDUCED_PLANCK * omega_per_s**2
    )
    s_b = 2.0 * gamma_b * BOLTZMANN * scenario.temperature_K / (
        REDUCED_PLANCK * omega_per_s**2
    )

    if include_ab_coupling:
        alpha = np.sqrt(_ab_inflation(scenario) ** 2 - 1.0)
        vec_b = np.array([1.0, 0.0, alpha, 0.0])
    else:
        vec_b = np.array([1.0, 0.0])
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


# -- serialization -------------------------------------------------------------

_SCENARIO_KINDS = {
    "two_mass": TwoMassScenario,
    "mediator": MediatorScenario,
    "sphere_mediator": SphereMediatorScenario,
}


def scenario_to_dict(scenario) -> dict:
    for kind, cls in _SCENARIO_KINDS.items():
        if isinstance(scenario, cls):
            out = {"kind": kind}
            out.update(
                {k: v for k, v in scenario.__dict__.items() if v is not None}
            )
            return out
    raise TypeError(f"unknown scenario type {type(scenario).__name__}")


def scenario_from_dict(d: dict) -> object:
    kind = d.get("kind")
    if kind not in _SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    args = {k: v for k, v in d.items() if k != "kind"}
    return _SCENARIO_KINDS[kind](**args)
