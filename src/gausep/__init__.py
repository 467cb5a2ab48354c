"""Gaussian separability thresholds, LOCC synthesis, and dense cross-checks."""

from .symplectic import (
    CovarianceMatrix,
    ModeLayout,
    WilliamsonDecomposition,
    build_form,
    is_physical,
    mode_form,
    partial_transpose,
    symplectic_spectrum,
    williamson,
)
from .generators import (
    GeneralCoupling,
    GkslGenerator,
    MatrixWhiteNoise,
    Rank1Coupling,
    ScalarWhiteNoise,
    SystemModel,
    build_generator,
    model_from_dict,
    model_to_dict,
)
from .dynamics import (
    PerturbativeFrame,
    RegimeError,
    ShapeFunctions,
    check_perturbative_window,
    evolve,
    first_order_terms,
    perturbative_v,
    shape_functions,
)
from .separability import (
    BoundKind,
    CertificateFailure,
    SeparabilityCertificate,
    ThresholdVerdict,
    certificate_first_order,
    log_negativity,
    ppt_multimode,
    stringent_ns_check,
    threshold,
)
from .locc import (
    InfeasibleProtocolError,
    LoccProtocol,
    Rank1Channel,
    build_rank1_protocol,
    damped_bound,
    effective_generator,
    ohmic_d_coefficients,
    run_protocol,
    solve_correlated,
    solve_symmetric,
    synthesize_general,
)
from .gravity import (
    MediatorScenario,
    SphereMediatorScenario,
    TwoMassScenario,
    mediator_threshold,
    to_model,
    two_mass_threshold,
)

__version__ = "0.1.0"
