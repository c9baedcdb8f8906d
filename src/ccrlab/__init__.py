"""Verification laboratory for the CCR algebra with free evolution.

Four layers: exact symbolic evaluation of the indefinite Gaussian ground
state and its modular structure (:mod:`ccrlab.heisenberg`), the non-regular
Weyl ground state with closed-form n-point functions (:mod:`ccrlab.weyl`),
Monte Carlo checks of the functional-integral representations
(:mod:`ccrlab.montecarlo`), and the discretized indefinite euclidean space
with Krein metrics and Markov projections (:mod:`ccrlab.nelson`).
"""

from .exactcomplex import ComplexRational
from .gram import GramMatrix, gram_signature, numerical_rank
from .heisenberg import (
    AlgebraElement,
    CovarianceTable,
    Generator,
    P,
    P_PRIME,
    Q,
    Q_PRIME,
    UNIT,
    adjoint,
    commutator,
    evolve,
    fock_a,
    fock_b,
    gns_inner,
    hamiltonian,
    metric_conjugate,
    moment_matrix,
    normal_order,
    omega,
    scale_transform,
    weyl_moment_partial_sum,
    wick_value,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    kernel_value,
    krein_kernel,
    krein_pair_moment,
    mc_characteristic,
    mc_krein_moment,
    mc_moment,
    mc_weyl_schwinger,
    wick_moment,
)
from .nelson import (
    ExtendedVector,
    Grid,
    indefinite_inner,
    krein_inner,
    krein_metric_apply,
    point_mass,
    project_onto,
    signature_of,
)
from .weyl import (
    WeylElement,
    evolve_weyl,
    omega_expectation,
    schwinger_npoint,
    spectral_support,
    weyl_product,
    weyl_symbol,
    wightman_npoint,
)

__version__ = "0.1.0"
