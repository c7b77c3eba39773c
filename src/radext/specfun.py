"""Fractional-order Bessel and Gamma kernels, implemented from scratch.

All radial profiles in this package reduce to J_nu, Y_nu on the real axis and
K_nu in the right complex half-plane, at non-integer fractional order. The
evaluators here use only elementary operations so that every downstream number
can be traced to an explicit series, recurrence, or quadrature:

  gamma_fn          Lanczos approximation (g = 607/128, 15 terms), reflection
                    formula for arguments below 1/2; memoized per argument,
                    since every caller passes an order-derived +-nu + k.
  bessel_j          ascending series for x < 5, backward (Miller) recurrence
                    for 5 <= x <= 15, Hankel asymptotic expansion for x > 15.
  bessel_y          connection formula (J_nu cos(nu pi) - J_{-nu}) / sin(nu pi)
                    up to x = 15, own asymptotic expansion beyond.
  bessel_k_complex  connection series pi (I_{-nu} - I_nu) / (2 sin(nu pi)) for
                    small |z| + Re z, a rotated-contour integral representation
                    in the middle band, asymptotic expansion for |z| >= 15.
  small_arg_coeffs  exact leading coefficients of r^(-1/2-nu) and r^(-1/2+nu)
                    for each radial solution family; the matching currency used
                    by the extension machinery.

Integer order is rejected everywhere it would hit a connection-formula pole
(tolerance 1e-9); no supported channel has integer nu. Complex powers use the
principal branch. Conjugation symmetry K_nu(conj z) = conj K_nu(z) is exact by
construction: arguments in the lower half-plane are folded onto the upper.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SmallRBehavior",
    "bessel_j",
    "bessel_j_deriv",
    "bessel_k_complex",
    "bessel_k_complex_deriv",
    "bessel_y",
    "bessel_y_deriv",
    "gamma_fn",
    "small_arg_coeffs",
]

_INTEGER_TOL = 1e-9

# ======================================================================
# Gamma
# ======================================================================

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def gamma_fn(x: float) -> float:
    """Gamma function for real non-pole arguments.

    Lanczos approximation for x >= 1/2; the reflection formula
    Gamma(x) Gamma(1-x) = pi / sin(pi x) extends it to negative x.
    Raises ValueError at the poles (non-positive integers).

    Values are memoized on float(x) in a bounded LRU cache (256 entries):
    the callers pass a few order-derived arguments +-nu + k over and over,
    and a repeat returns the same float without recomputing it.
    """
    return _gamma_memo(float(x))


@functools.lru_cache(maxsize=256)
def _gamma_memo(x: float) -> float:
    if x <= 0.0 and abs(x - round(x)) < _INTEGER_TOL:
        raise ValueError(f"gamma_fn pole at x = {x}")
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * _gamma_memo(1.0 - x))
    w = x - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * math.exp(-t) * s


def _recip_gamma(x: float) -> float:
    """1 / Gamma(x), finite everywhere (zero at the poles)."""
    if x <= 0.0 and abs(x - round(x)) < _INTEGER_TOL:
        return 0.0
    if x >= 0.5:
        return 1.0 / gamma_fn(x)
    return math.sin(math.pi * x) * gamma_fn(1.0 - x) / math.pi


def _reject_integer_order(nu: float, op: str) -> None:
    if abs(nu - round(nu)) < _INTEGER_TOL:
        raise ValueError(f"{op}: integer order nu = {nu} is unsupported")


# ======================================================================
# J_nu on the positive real axis
# ======================================================================

def _j_series(nu: float, x: float) -> float:
    # ascending series; cancellation stays below ~1e2 ulp for x < 5
    half = 0.5 * x
    term = half**nu * _recip_gamma(nu + 1.0) if nu < 0 else half**nu / gamma_fn(nu + 1.0)
    total = term
    for k in range(1, 120):
        term *= -(half * half) / (k * (nu + k))
        total += term
        if abs(term) < 1e-17 * abs(total):
            return total
    raise ArithmeticError(f"J series did not converge at nu={nu}, x={x}")


def _miller_sweep(base: float, x: float, top: int) -> list[float]:
    """Downward three-term recurrence from order base+top; unnormalized."""
    vals = [0.0] * (top + 2)
    vals[top] = 1e-280
    for k in range(top, 0, -1):
        vals[k - 1] = (2.0 * (base + k) / x) * vals[k] - vals[k + 1]
        if abs(vals[k - 1]) > 1e250:
            for i in range(k - 1, top + 2):
                vals[i] *= 1e-250
    return vals


def _j_miller_pos(nu: float, x: float) -> float:
    """J_nu(x) for nu >= 0 by backward recurrence.

    Normalized with sum_k (nu+2k) Gamma(nu+k)/k! J_{nu+2k}(x) = (x/2)^nu,
    whose terms are all positive for nu >= 0.
    """
    top = int(x) + 40
    if top % 2:
        top += 1
    vals = _miller_sweep(nu, x, top)
    coef = gamma_fn(nu + 1.0)
    total = coef * vals[0]
    for k in range(1, top // 2 + 1):
        coef *= (nu + 2.0 * k) * (nu + k - 1.0) / ((nu + 2.0 * k - 2.0) * k)
        total += coef * vals[2 * k]
    return vals[0] * (0.5 * x) ** nu / total


def _j_miller_neg(nu: float, x: float) -> float:
    """J_nu(x) for negative non-integer nu.

    The normalization sum alternates in sign below order zero, so instead the
    sweep is scaled by matching the positive fractional orders it passes
    through against an independently normalized positive-base sweep. Adjacent
    orders never vanish together, so one of the two match points is always
    well conditioned.
    """
    frac = nu - math.floor(nu)
    k0 = -int(math.floor(nu))  # index of order `frac` within the sweep
    vals = _miller_sweep(nu, x, int(x) + 40 + k0)
    ref0 = _j_miller_pos(frac, x)
    ref1 = _j_miller_pos(frac + 1.0, x)
    if abs(vals[k0] * ref0) >= abs(vals[k0 + 1] * ref1):
        return vals[0] * (ref0 / vals[k0])
    return vals[0] * (ref1 / vals[k0 + 1])


def _jy_asymptotic(nu: float, x: float) -> tuple[float, float]:
    """(J_nu, Y_nu) from the Hankel expansion; truncated at the smallest term."""
    mu4 = 4.0 * nu * nu
    term = 1.0
    p = 1.0
    q = 0.0
    prev = math.inf
    for k in range(1, 60):
        term *= (mu4 - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if abs(term) >= prev:
            break
        prev = abs(term)
        if k % 2 == 0:
            p += term * (-1.0) ** (k // 2)
        else:
            q += term * (-1.0) ** ((k - 1) // 2)
    chi = x - (0.5 * nu + 0.25) * math.pi
    amp = math.sqrt(2.0 / (math.pi * x))
    c, s = math.cos(chi), math.sin(chi)
    return amp * (p * c - q * s), amp * (p * s + q * c)


def _bessel_j_any_order(nu: float, x: float) -> float:
    if x < 5.0:
        return _j_series(nu, x)
    if x <= 15.0:
        return _j_miller_pos(nu, x) if nu >= 0.0 else _j_miller_neg(nu, x)
    return _jy_asymptotic(nu, x)[0]


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order nu >= 0, x > 0.

    Relative accuracy 1e-12 for x <= 50, nu <= 5 (away from the zeros of J,
    where relative error is meaningless for any fixed-precision method).
    """
    if x <= 0.0:
        raise ValueError(f"bessel_j requires x > 0, got {x}")
    if nu < 0.0:
        raise ValueError(f"bessel_j requires nu >= 0, got {nu}")
    return _bessel_j_any_order(float(nu), float(x))


def bessel_y(nu: float, x: float) -> float:
    """Bessel function of the second kind, non-integer order nu > 0, x > 0.

    Uses the connection formula for x <= 15, the asymptotic expansion beyond.
    Relative accuracy 1e-10 away from the zeros of Y; degrades by a factor
    1/|sin(pi nu)| as nu approaches an integer.
    """
    if x <= 0.0:
        raise ValueError(f"bessel_y requires x > 0, got {x}")
    if nu <= 0.0:
        raise ValueError(f"bessel_y requires nu > 0, got {nu}")
    _reject_integer_order(nu, "bessel_y")
    nu, x = float(nu), float(x)
    if x > 15.0:
        return _jy_asymptotic(nu, x)[1]
    jpos = _bessel_j_any_order(nu, x)
    jneg = _bessel_j_any_order(-nu, x)
    return (jpos * math.cos(math.pi * nu) - jneg) / math.sin(math.pi * nu)


def bessel_j_deriv(nu: float, x: float) -> float:
    """d/dx J_nu(x) via the recurrence J' = (nu/x) J_nu - J_{nu+1}."""
    return (nu / x) * bessel_j(nu, x) - bessel_j(nu + 1.0, x)


def bessel_y_deriv(nu: float, x: float) -> float:
    """d/dx Y_nu(x) via the recurrence Y' = (nu/x) Y_nu - Y_{nu+1}."""
    return (nu / x) * bessel_y(nu, x) - bessel_y(nu + 1.0, x)


# ======================================================================
# K_nu in the right half-plane
# ======================================================================

def _i_series(nu: float, z: complex) -> complex:
    """Modified Bessel I_nu by ascending series (complex argument)."""
    half = 0.5 * z
    term = cmath.exp(nu * cmath.log(half)) * _recip_gamma(nu + 1.0)
    total = term
    for k in range(1, 160):
        term *= (half * half) / (k * (nu + k))
        total += term
        if abs(term) < 1e-18 * abs(total):
            return total
    raise ArithmeticError(f"I series did not converge at nu={nu}, z={z}")


def _k_connection(nu: float, z: complex) -> complex:
    return math.pi * (_i_series(-nu, z) - _i_series(nu, z)) / (2.0 * math.sin(math.pi * nu))


@functools.lru_cache(maxsize=1)
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 80-node Gauss-Legendre rule, built on first use.

    Only the rotated-contour band of bessel_k_complex reads it; building it at
    import would cost every process the numpy.polynomial import and an
    80 x 80 eigensolve.
    """
    return np.polynomial.legendre.leggauss(80)


def _gauss_legendre(f, a: float, b: float) -> complex:
    nodes, weights = _gl_rule()
    x = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    return 0.5 * (b - a) * complex(np.sum(weights * f(x)))


def _k_rotated_contour(nu: float, z: complex) -> complex:
    """K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt on a tilted contour.

    The path 0 -> -i*theta -> -i*theta + U (theta = arg z, assumed >= 0 here)
    turns the oscillatory tail into monotone decay: on the shifted horizontal
    line the phase of z cosh(u - i theta) decreases like e^{-u} while its real
    part grows like |z| e^u / 2, so Gauss-Legendre converges rapidly.
    """
    theta = cmath.phase(z)
    az = abs(z)
    upper = max(0.7, math.log(2.0 * (46.0 + 6.0 * max(nu, 1.0)) / az))

    def horizontal(u):
        w = u - 1j * theta
        return np.exp(-z * np.cosh(w)) * np.cosh(nu * w)

    total = _gauss_legendre(horizontal, 0.0, upper)
    if theta != 0.0:
        def vertical(s):
            return np.exp(-z * np.cos(s)) * np.cos(nu * s)

        total += -1j * _gauss_legendre(vertical, 0.0, theta)
    return total


def _k_asymptotic(nu: float, z: complex) -> complex:
    mu4 = 4.0 * nu * nu
    term = 1.0 + 0.0j
    total = term
    prev = math.inf
    for k in range(1, 60):
        term *= (mu4 - (2.0 * k - 1.0) ** 2) / (8.0 * k * z)
        if abs(term) >= prev:
            break
        prev = abs(term)
        total += term
    return cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z) * total


def bessel_k_complex(nu: float, z: complex) -> complex:
    """Modified Bessel K_nu for non-integer nu > 0 and complex z, Re z > 0.

    Regimes: connection series where |z| + Re z <= 9 (cancellation there is
    bounded by e^{|z| + Re z} times machine epsilon), rotated-contour
    integral representation up to |z| = 15, asymptotic expansion beyond.
    Relative accuracy 1e-10 for |z| <= 30; regime seams agree to ~1e-11.
    """
    z = complex(z)
    if z.real <= 0.0:
        raise ValueError(f"bessel_k_complex requires Re z > 0, got {z}")
    if nu <= 0.0:
        raise ValueError(f"bessel_k_complex requires nu > 0, got {nu}")
    _reject_integer_order(nu, "bessel_k_complex")
    nu = float(nu)
    if z.imag < 0.0:  # fold onto the upper half-plane: K(conj z) = conj K(z)
        return bessel_k_complex(nu, z.conjugate()).conjugate()
    az = abs(z)
    if az >= 15.0:
        return _k_asymptotic(nu, z)
    if az + z.real <= 9.0:
        return _k_connection(nu, z)
    return _k_rotated_contour(nu, z)


def bessel_k_complex_deriv(nu: float, z: complex) -> complex:
    """d/dz K_nu(z) via the recurrence K' = (nu/z) K_nu - K_{nu+1}."""
    z = complex(z)
    return (nu / z) * bessel_k_complex(nu, z) - bessel_k_complex(nu + 1.0, z)


# ======================================================================
# Small-argument expansion coefficients
# ======================================================================

@dataclass(frozen=True)
class SmallRBehavior:
    """Leading small-r data of a radial profile.

    The profile behaves as

        c_minus * r^(-1/2 - nu) + c_plus * r^(-1/2 + nu) + o(r^(-1/2 + nu))

    as r -> 0. This pair is the currency of all boundary matching: two
    solutions agree at the origin exactly when their pairs agree.
    """

    nu: float
    c_minus: complex
    c_plus: complex

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ValueError("SmallRBehavior requires nu > 0")
        if abs(self.nu - round(self.nu)) < _INTEGER_TOL:
            raise ValueError("SmallRBehavior requires non-integer nu")


_KINDS = ("N", "S", "B", "DEF+", "DEF-")


def small_arg_coeffs(kind: str, nu: float, scale: complex) -> SmallRBehavior:
    """Expansion coefficients of the radial solution families.

    kind "N": regular oscillatory solution J_nu(scale r) / sqrt(r).
    kind "S": singular oscillatory solution Y_nu(scale r) / sqrt(r).
    kind "B": decaying solution K_nu(scale r) / sqrt(r), real scale.
    kind "DEF+"/"DEF-": the same K profile at complex scale (1 -+ i) s; the
        kind only documents intent, the arithmetic is scale-driven.

    The returned pair (c_minus, c_plus) multiplies r^(-1/2 -+ nu) as in
    SmallRBehavior. Normalization constants are NOT included here.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {_KINDS}")
    _reject_integer_order(nu, "small_arg_coeffs")
    if nu <= 0.0:
        raise ValueError("small_arg_coeffs requires nu > 0")
    half = scale / 2.0
    if kind == "N":
        return SmallRBehavior(nu, 0.0, half**nu / gamma_fn(1.0 + nu))
    if kind == "S":
        s = math.sin(math.pi * nu)
        return SmallRBehavior(
            nu,
            -(half ** (-nu)) / (gamma_fn(1.0 - nu) * s),
            math.cos(math.pi * nu) * half**nu / (gamma_fn(1.0 + nu) * s),
        )
    # B and DEF+-: two-sided expansion of K_nu(scale r)
    return SmallRBehavior(
        nu,
        0.5 * gamma_fn(nu) * half ** (-nu),
        0.5 * gamma_fn(-nu) * half**nu,
    )
