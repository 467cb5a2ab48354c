"""Bound verdicts must not depend on the overall scale of the rates.

Multiplying every rate of a model (coupling, noise spectra, noise and
coupling forms, memory coefficients) by one factor ``c`` multiplies each
bound's two sides by ``c^2`` (scalar bounds) or ``c`` (the matrix bound), so
a verdict that changes with ``c`` comes from the tolerance policy, not from
the physics.  The factors span the dimensionless couplings that laboratory
scenarios produce.  Nonzero magnitudes are drawn from ``[1e-6, 4]``: far
below that (around 1e-150) the squared rates underflow and double precision
no longer represents the bound at all; such models are refused as
unresolved instead of judged.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gausep.dynamics import ShapeFunctions
from gausep.generators import (
    GeneralCoupling,
    MatrixWhiteNoise,
    Rank1Coupling,
    ScalarWhiteNoise,
    SystemModel,
)
from gausep.locc import (
    LoccProtocol,
    MemoryCoefficients,
    damped_bound,
    ohmic_d_coefficients,
)
from gausep.separability import stringent_ns_check, threshold
from gausep.symplectic import ModeLayout

LAYOUT = ModeLayout(1, 1)
FACTORS = st.floats(min_value=1e-12, max_value=1e4)
RATE = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=4.0))
SIGN = st.sampled_from([1.0, -1.0])
UNIT = st.builds(lambda m, sign: m * sign, st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), SIGN)
# small enough that the damped noise budgets usually survive, so the damped
# bound itself is compared rather than its early "budget exhausted" exit
MEMORY = st.lists(st.builds(lambda r: r / 20, RATE), min_size=4, max_size=4)


def rank1(k, s_a, s_b, s_ab=0.0):
    return SystemModel(
        layout=LAYOUT,
        h_a=np.zeros((2, 2)),
        h_b=np.zeros((2, 2)),
        coupling=Rank1Coupling(k, np.array([1.0, 0.0]), np.array([1.0, 0.0])),
        noise=ScalarWhiteNoise(s_a, s_b, s_ab),
    )


@st.composite
def scalar_rates(draw):
    s_a, s_b = draw(RATE), draw(RATE)
    k = draw(RATE) * draw(SIGN)
    s_ab = draw(UNIT) * np.sqrt(s_a * s_b)
    return k, s_a, s_b, s_ab


@given(scalar_rates(), FACTORS)
def test_rank1_threshold_is_scale_invariant(rates, c):
    k, s_a, s_b, s_ab = rates
    base = threshold(rank1(k, s_a, s_b, s_ab))
    scaled = threshold(rank1(c * k, c * s_a, c * s_b, c * s_ab))
    assert scaled.satisfied == base.satisfied


@given(
    st.lists(UNIT, min_size=4, max_size=4),
    st.lists(UNIT, min_size=4, max_size=4),
    st.lists(st.builds(lambda u: 2.0 * u, UNIT), min_size=4, max_size=4),
    FACTORS,
)
def test_general_threshold_is_scale_invariant(r_a, r_b, coupling, c):
    r_a, r_b = np.reshape(r_a, (2, 2)), np.reshape(r_b, (2, 2))
    coupling = np.reshape(coupling, (2, 2))

    def model(scale):
        return SystemModel(
            layout=LAYOUT,
            h_a=np.zeros((2, 2)),
            h_b=np.zeros((2, 2)),
            coupling=GeneralCoupling(scale * coupling),
            noise=MatrixWhiteNoise(scale * (r_a @ r_a.T), scale * (r_b @ r_b.T)),
        )

    assert threshold(model(c)).satisfied == threshold(model(1.0)).satisfied


@given(scalar_rates(), st.floats(min_value=0.0, max_value=2.0), FACTORS)
def test_stringent_check_is_scale_invariant(rates, slope, c):
    k, s_a, s_b, s_ab = rates
    shapes = ShapeFunctions.of_rates(0.0, slope, 1.0)
    base = stringent_ns_check(shapes, s_a, s_b, k, s_ab)
    scaled = stringent_ns_check(shapes, c * s_a, c * s_b, c * k, c * s_ab)
    assert scaled.satisfied == base.satisfied


@given(scalar_rates(), MEMORY, FACTORS)
def test_damped_bound_is_scale_invariant(rates, memory, c):
    k, s_a, s_b, _ = rates
    base = damped_bound(rank1(k, s_a, s_b), MemoryCoefficients(*memory))
    scaled = damped_bound(
        rank1(c * k, c * s_a, c * s_b), MemoryCoefficients(*(c * m for m in memory))
    )
    assert scaled.satisfied == base.satisfied


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-12])
def test_protocol_symmetry_check_is_scale_invariant(c):
    """A local Hamiltonian with relative asymmetry 1e-6 is refused at every scale."""
    h = np.zeros((4, 4))
    h[:2, :2] = [[1.0, 0.5], [0.5 + 1e-6, 1.0]]
    with pytest.raises(ValueError, match="symmetric"):
        LoccProtocol(LAYOUT, (), c * h)
    h[1, 0] = 0.5
    LoccProtocol(LAYOUT, (), c * h)


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-12])
def test_memory_ray_check_is_scale_invariant(c):
    """The drift sends x to (1, h_pp): off the measured ray unless h_pp = 0."""

    def model(h_pp):
        h = c * np.array([[1.0, 1.0], [1.0, h_pp]])
        x = np.array([1.0, 0.0])
        return SystemModel(
            layout=LAYOUT,
            h_a=h,
            h_b=h,
            coupling=Rank1Coupling(c, x, x),
            noise=ScalarWhiteNoise(2.0 * c, 2.0 * c),
        )

    with pytest.raises(ValueError, match="leaves the measured ray"):
        ohmic_d_coefficients(model(1e-6), 0.1)
    ohmic_d_coefficients(model(0.0), 0.1)
