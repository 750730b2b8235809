"""Residual evaluators for the hypergeometric identities and period relations.

Each checker returns a signed residual lhs - rhs so that sign patterns expose
systematic bias in either evaluator.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import Modulus, PeriodMethod, periods
from .hyper import F_HALF_ONE, F_QUARTER_ONE, gauss_2f1
from .kernel import DomainError


class ResidualReport(NamedTuple):
    parameter: float
    lhs: float
    rhs: float
    residual: float
    tol: float
    passed: bool


def _report(parameter: float, lhs: float, rhs: float, tol: float) -> ResidualReport:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    residual = lhs - rhs
    return ResidualReport(parameter, lhs, rhs, residual, tol, abs(residual) <= tol)


def identity_bbg_92(lam: float, tol: float = 1e-12) -> ResidualReport:
    """F(1/4,3/4;1;1-lam^2) = sqrt(2/(1+lam)) F(1/2,1/2;1;(1-lam)/(1+lam))."""
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")
    lam = float(lam)  # a numpy.float32 would compute both sides in single precision
    lhs = gauss_2f1(F_QUARTER_ONE, (1.0 - lam) * (1.0 + lam), lam * lam)
    rhs = math.sqrt(2.0 / (1.0 + lam)) * gauss_2f1(
        F_HALF_ONE,
        (1.0 - lam) / (1.0 + lam),
        2.0 * lam / (1.0 + lam),
    )
    return _report(lam, lhs, rhs, tol)


def identity_bbg_91(lam: float, tol: float = 1e-12) -> ResidualReport:
    """F(1/4,3/4;1;lam^2) = sqrt(1/(1+lam)) F(1/2,1/2;1;2 lam/(1+lam))."""
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")
    lam = float(lam)  # a numpy.float32 would compute both sides in single precision
    lhs = gauss_2f1(F_QUARTER_ONE, lam * lam, (1.0 - lam) * (1.0 + lam))
    rhs = math.sqrt(1.0 / (1.0 + lam)) * gauss_2f1(
        F_HALF_ONE,
        2.0 * lam / (1.0 + lam),
        (1.0 - lam) / (1.0 + lam),
    )
    return _report(lam, lhs, rhs, tol)


def symmetric_pair(x: float) -> float:
    """The involution y = (1-x)/(1+3x), i.e. the solution of x + y + 3xy = 1."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x must lie in [0, 1), got {x}")
    x = float(x)  # a numpy.float32 would round y in single precision
    return (1.0 - x) / (1.0 + 3.0 * x)


def transform_signature4(x: float, tol: float = 1e-11) -> ResidualReport:
    """sqrt(1+3x) F(1/4,3/4;1;x^2) = F(1/4,3/4;1;1-y^2) with y = (1-x)/(1+3x)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    x = float(x)  # a numpy.float32 would compute both sides in single precision
    y = symmetric_pair(x)
    lhs = math.sqrt(1.0 + 3.0 * x) * gauss_2f1(
        F_QUARTER_ONE, x * x, (1.0 - x) * (1.0 + x)
    )
    rhs = gauss_2f1(F_QUARTER_ONE, (1.0 - y) * (1.0 + y), y * y)
    return _report(x, lhs, rhs, tol)


PERIOD_RELATION_LABELS = (
    "kappa_prime_vs_sqrt2_lambda",
    "lambda_prime_vs_sqrt2_kappa",
    "area_product",
    "ratio_product",
)


def period_relations(kappa: float, tol: float = 1e-12) -> list[ResidualReport]:
    """Residuals of the four symmetric period relations, in label order."""
    mod = Modulus(kappa)
    kappa = mod.kappa  # a float, where Modulus converts a numpy.float32 kappa
    com = mod.complement
    pk = periods(mod, PeriodMethod.ELLIPTIC)
    pl = periods(com, PeriodMethod.ELLIPTIC)
    rt2 = math.sqrt(2.0)
    return [
        _report(kappa, pk.Kprime, rt2 * pl.K, tol),
        _report(kappa, pl.Kprime, rt2 * pk.K, tol),
        _report(kappa, pk.K * pk.Kprime, pl.K * pl.Kprime, tol),
        _report(kappa, (pk.Kprime / pk.K) * (pl.Kprime / pl.K), 2.0, tol),
    ]
