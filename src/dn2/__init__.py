"""Signature-four elliptic function dn2: three evaluation routes, fundamental
periods by three independent formulas, and residual checks for the associated
hypergeometric identities."""

from .core import (
    LatticeData,
    Modulus,
    PeriodMethod,
    PeriodPair,
    Route,
    dn2,
    dn2_deriv,
    f_forward,
    greenhill_check,
    i_gamma,
    invariants_of,
    periods,
    phi,
    s2,
)
from .hyper import (
    F_HALF_ONE,
    F_QUARTER_HALF,
    F_QUARTER_ONE,
    HyperParams,
    agm,
    complete_K,
    f14_34_12_closed,
    gauss_2f1,
)
from .identities import (
    PERIOD_RELATION_LABELS,
    ResidualReport,
    identity_bbg_91,
    identity_bbg_92,
    period_relations,
    symmetric_pair,
    transform_signature4,
)
from .jacobi import POLE_THRESHOLD, JacobiTriple, PoleError, jacobi_complex, jacobi_real
from .kernel import ConvergenceError, DomainError, QuadResult, integrate, newton_invert

__version__ = "0.26.0"

__all__ = [
    "LatticeData",
    "Modulus",
    "PeriodMethod",
    "PeriodPair",
    "Route",
    "dn2",
    "dn2_deriv",
    "f_forward",
    "greenhill_check",
    "i_gamma",
    "invariants_of",
    "periods",
    "phi",
    "s2",
    "F_HALF_ONE",
    "F_QUARTER_HALF",
    "F_QUARTER_ONE",
    "HyperParams",
    "agm",
    "complete_K",
    "f14_34_12_closed",
    "gauss_2f1",
    "PERIOD_RELATION_LABELS",
    "ResidualReport",
    "identity_bbg_91",
    "identity_bbg_92",
    "period_relations",
    "symmetric_pair",
    "transform_signature4",
    "POLE_THRESHOLD",
    "JacobiTriple",
    "PoleError",
    "jacobi_complex",
    "jacobi_real",
    "ConvergenceError",
    "DomainError",
    "QuadResult",
    "integrate",
    "newton_invert",
    "__version__",
]
