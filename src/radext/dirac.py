"""Lower-bispinor analysis for the relativistic version of the monopole problem.

The first-order Dirac system fixes the lower radial component in terms of
the upper one,

    g(r) = -i (d_r + (1 + kappa)/r) f(r) / (mu + E),

so a candidate upper profile is admissible only if the lower component it
drags along is square integrable near the origin. Acting on a power r^a the
transport operator gives (a + 1 + kappa) r^(a-1): the coefficient can
cancel, promoting the lower component by two powers of r. That cancellation
is what lets the singular branch of a channel with kappa > -1/2 survive
relativistically. extensions.is_dirac_consistent reads the verdict of every
channel: at eg = 1/2 it collapses the U(4) freedom of the Pauli problem to a
single phase, and at eg >= 1, where every singular channel has kappa = 0, it
restricts nothing.

This module computes the exponents and delivers normalizability verdicts by
two independent routes: exponent arithmetic (LowerExponent.normalizable)
and direct quadrature of the lower component built from Bessel recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import nu_of
from .specfun import _gl_rule, bessel_j, bessel_k_complex, bessel_y

__all__ = [
    "DiracRadialSolution",
    "LowerExponent",
    "dirac_normalizable",
    "lower_exponent",
]

_CANCEL_TOL = 1e-12

_KINDS = ("N", "S", "B")


class LowerExponent(NamedTuple):
    cancellation_coefficient: float
    leading_exponent: float

    @property
    def normalizable(self) -> bool:
        """The exponent verdict: |g|^2 r^2 ~ r^(2p + 3) is integrable at 0 iff 2p + 3 > 0."""
        return 2.0 * self.leading_exponent + 3.0 > 0.0


def lower_exponent(kappa: float, kind: str) -> LowerExponent:
    """Small-r exponent of the lower component over an upper branch r^(-1/2 -+ nu).

    kind "N" is the regular upper branch r^(-1/2 + nu), "S" the singular
    branch r^(-1/2 - nu). The transport coefficient is 1/2 +- nu + kappa and
    the raw exponent -3/2 +- nu; when the coefficient cancels (within 1e-12)
    the reported exponent is promoted by two, the next term of the series.
    """
    if kind not in ("N", "S"):
        raise ValueError(f"kind must be 'N' or 'S', got {kind!r}")
    nu = nu_of(kappa=kappa)
    sign = 1.0 if kind == "N" else -1.0
    coeff = 0.5 + sign * nu + kappa
    exponent = -1.5 + sign * nu
    if abs(coeff) < _CANCEL_TOL:
        exponent += 2.0
    return LowerExponent(coeff, exponent)


@dataclass(frozen=True)
class DiracRadialSolution:
    """Upper/lower radial pair at total energy E, upper wavenumber lam and mass mu.

    kind selects the upper profile f = Z_nu(lam r)/sqrt(r): "N" regular
    (J), "S" singular (Y), "B" bound (K, decaying). The lower component is
    the closed form

        g(r) = -i r^(-3/2) [ (nu + 1/2 + kappa) Z_nu(lam r)
                              - lam r Z_(nu+1)(lam r) ] / (mu + E),

    obtained from the transport operator with the recurrence
    Z_nu' = (nu/x) Z_nu - Z_(nu+1), which all three families satisfy. The
    bracket is evaluated as one term, never as that difference: for
    kappa > -1/2 the coefficient is 2 nu and the three-term recurrence
    turns the bracket into x Z_(nu-1)(x) (J and Y) or -x K_(nu-1)(x), whose
    two terms would otherwise cancel at small x; for kappa < -1/2 the
    coefficient vanishes and the bracket is -x Z_(nu+1)(x). An order
    nu - 1 < 0 is reflected to 1 - nu. Finite differences are never
    involved. The solution takes its mass: mu has no default. Its order nu
    is formed once, by the constructor.
    """

    kappa: float
    kind: str
    energy: float
    lam: float
    mu: float
    nu: float = field(init=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")
        if self.mu + self.energy == 0.0:
            raise ValueError("mu + E must be nonzero for the lower component")
        object.__setattr__(self, "nu", nu_of(kappa=self.kappa))

    def _radial(self, order: float, x: float) -> complex:
        if order < 0.0:
            # reflection: K_(-a) = K_a, and J, Y of order -a from those of order a
            a = -order
            if self.kind == "B":
                return self._radial(a, x)
            c, s = math.cos(math.pi * a), math.sin(math.pi * a)
            j, y = bessel_j(a, x), bessel_y(a, x)
            return c * j - s * y if self.kind == "N" else s * j + c * y
        if self.kind == "N":
            return bessel_j(order, x)
        if self.kind == "S":
            return bessel_y(order, x)
        return bessel_k_complex(order, complex(x))

    def upper(self, r: float) -> complex:
        return r ** (-0.5) * self._radial(self.nu, self.lam * r)

    def lower(self, r: float) -> complex:
        nu = self.nu
        x = self.lam * r
        if self.kappa > -0.5:
            bracket = (-x if self.kind == "B" else x) * self._radial(nu - 1.0, x)
        else:
            bracket = -x * self._radial(nu + 1.0, x)
        return -1j * r ** (-1.5) * bracket / (self.mu + self.energy)


def _tail_integral(sol: DiracRadialSolution, eps: float, upper: float) -> float:
    # integral of |g|^2 r^2 from eps to upper, in log coordinates so the
    # power-law window near the origin is resolved uniformly: composite
    # Gauss-Legendre with one 20-node panel per unit of ln r
    lo, hi = math.log(eps), math.log(upper)
    panels = max(1, math.ceil(hi - lo))
    half = 0.5 * (hi - lo) / panels
    nodes, weights = _gl_rule(20)
    r = np.exp(lo + half * (2.0 * np.arange(panels)[:, None] + 1.0 + nodes)).ravel()
    g2 = np.array([abs(sol.lower(x)) ** 2 for x in r.tolist()])
    return half * float(np.tile(weights, panels) @ (g2 * r**3))


def dirac_normalizable(kappa: float, kind: str) -> bool:
    """Whether the lower component is square integrable at the origin.

    The verdict depends on kappa and the branch alone. Route one is exponent
    arithmetic, LowerExponent.normalizable: with surviving exponent p the
    integral of |g|^2 r^2 behaves as r^(2p + 3). Route two integrates the lower
    component at lam = mu = E = 1 over [eps, 1], r in units of 1/lam, at
    eps = 1e-4 and 1e-6, and classifies the growth slope per decade.
    The two verdicts must agree; a disagreement raises instead of picking a side.
    """
    exponent = lower_exponent(kappa, kind)
    analytic = exponent.normalizable

    sol = DiracRadialSolution(kappa=kappa, kind=kind, energy=1.0, lam=1.0, mu=1.0)
    wide, narrow = [_tail_integral(sol, eps, 1.0) for eps in (1e-4, 1e-6)]
    slope = math.log10(narrow / wide) / 2.0
    if slope < 0.05:
        numeric = True
    elif slope > 0.1:
        numeric = False
    else:
        raise ArithmeticError(f"quadrature trend inconclusive: growth slope {slope:.3f}/decade")
    if numeric != analytic:
        raise ArithmeticError(
            f"normalizability routes disagree for kappa = {kappa}, kind = {kind}: exponent "
            f"{exponent.leading_exponent} says {analytic}, quadrature slope {slope:.3f} says {numeric}")
    return analytic

