"""Angular channel algebra for the two singular radial models.

A "channel" is one angular sector of the separated radial problem. For the
monopole Pauli Hamiltonian the sectors are labeled by (j, m) plus the
eigenvalue kappa of the spin-orbit style operator, with

    kappa = +- sqrt((j + 1/2)^2 - (e g)^2),      nu = |kappa + 1/2|,

and the radial coupling kappa (kappa + 1). For the attractive 1/r^2 model
with strength c the sectors are (l, m) with

    nu^2 = 1/4 + l(l+1) - c.

A channel is singular, i.e. admits both small-r behaviors r^(-1/2 +- nu) as
normalizable solutions, exactly when nu^2 < 1 (equivalently when the radial
coupling is below 3/4). Channels with nu^2 <= 0 are overcritical: no real
order exists and nu itself is undefined for them, though they still count as
singular for enumeration purposes.

The channel algebra is exact quantum-number arithmetic; no special functions.
The module also holds the CLI config parse's input rules and the typed refusals
of exit 3, re-exported by extensions, annulus and cli: checking input loads no physics.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

_TOL = 1e-12
_INTEGER_TOL = 1e-9
_UNITARITY_TOL = 1e-10

_MODELS = ("monopole", "inverse_square")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters shared by every stage of the analysis.

    model            "monopole" or "inverse_square".
    eg               monopole coupling product (electric charge times magnetic
                     charge); Dirac quantization requires 2*eg to be a
                     positive integer. Ignored by the inverse-square model.
    c                strength of the attractive 1/r^2 term (inverse-square
                     model only).
    mu               particle mass; sets the energy and length units.
    deficiency_scale the wavenumber s > 0 of the deficiency vectors, which solve
                     H phi = +- i (s^2/mu) phi; None (the default) means mu. U is
                     defined relative to them: at fixed U, energies scale as s^2/mu.
    """

    model: str = "monopole"
    eg: float = 0.5
    c: float = 0.0
    mu: float = 1.0
    deficiency_scale: float | None = None

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.deficiency_scale is None:
            object.__setattr__(self, "deficiency_scale", self.mu)
        if not all(map(math.isfinite, (self.eg, self.c, self.mu, self.deficiency_scale))):
            raise ValueError(f"model parameters must be finite, got {self}")
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.deficiency_scale > 0.0:
            raise ValueError(f"deficiency_scale must be positive, got {self.deficiency_scale}")
        if self.model == "monopole":
            two_eg = 2.0 * self.eg
            if not (two_eg >= 1.0 - _INTEGER_TOL and abs(two_eg - round(two_eg)) < _INTEGER_TOL):
                raise ValueError(f"monopole model requires 2*eg a positive integer, got eg = {self.eg}")


@dataclass(frozen=True)
class ChannelSpec:
    """One angular sector.

    Monopole channels carry (j, m, kappa); inverse-square channels carry
    (l, m). nu_sq is always real; the order nu = sqrt(nu_sq) exists only for
    subcritical channels and is exposed as a property that raises otherwise.
    """

    m: float
    nu_sq: float
    j: float | None = None
    kappa: float | None = None
    l: int | None = None

    def __post_init__(self):
        if (self.j is None) == (self.l is None):
            raise ValueError("exactly one of j (monopole) or l (inverse_square) must be set")
        if self.kappa is not None:
            expected = (self.kappa + 0.5) ** 2
            if abs(self.nu_sq - expected) > _TOL:
                raise ValueError(f"nu_sq = {self.nu_sq} inconsistent with kappa = {self.kappa}")

    @property
    def nu(self) -> float:
        """Bessel order of the channel; defined only for nu_sq > 0."""
        if self.nu_sq <= 0.0:
            raise ValueError(f"overcritical channel (nu_sq = {self.nu_sq}) has no real order")
        return math.sqrt(self.nu_sq)

    @property
    def singular(self) -> bool:
        return self.nu_sq < 1.0

    @property
    def coupling(self) -> float:
        """Coefficient of the 1/(2 mu r^2) radial potential term.

        Equals kappa (kappa + 1) for monopole channels and l(l+1) - c for
        inverse-square channels; both are nu_sq - 1/4.
        """
        return self.nu_sq - 0.25


def kappa_of(j: float, eg: float) -> tuple[float, float]:
    """Both roots kappa = +- sqrt((j + 1/2)^2 - (e g)^2).

    At the bottom sector j = eg - 1/2 the roots coincide at zero (and the
    enumeration emits a single channel for it).
    """
    steps = j - (eg - 0.5)
    if steps < -_INTEGER_TOL or abs(steps - round(steps)) > _INTEGER_TOL:
        raise ValueError(f"j = {j} is not in the ladder eg - 1/2, eg + 1/2, ... for eg = {eg}")
    disc = (j + 0.5) ** 2 - eg * eg
    if disc < -_TOL:
        raise ValueError(f"(j + 1/2)^2 < (eg)^2 for j = {j}, eg = {eg}")
    root = math.sqrt(max(disc, 0.0))
    return (-root, root)


def l_crit(c: float) -> float:
    """Critical angular momentum below which inverse-square channels are singular.

    The nonnegative root of l(l+1) - c = 3/4, i.e. -1/2 + sqrt(1 + c),
    clamped at zero. For 1 + c < 0 (strongly repulsive) every channel is
    regular and the clamp applies as well.
    """
    if 1.0 + c < 0.0:
        return 0.0
    return max(0.0, -0.5 + math.sqrt(1.0 + c))


def nu_of(*, kappa: float | None = None, l: int | None = None, c: float = 0.0) -> float:
    """Bessel order of a channel from its quantum numbers.

    Monopole: nu = |kappa + 1/2|. Inverse-square: nu = sqrt(1/4 + l(l+1) - c),
    defined only below the critical strength. Integer orders are rejected,
    mirroring the special-function policy.
    """
    if (kappa is None) == (l is None):
        raise ValueError("pass exactly one of kappa= (monopole) or l= (inverse_square)")
    if kappa is not None:
        nu = abs(kappa + 0.5)
    else:
        nu_sq = 0.25 + l * (l + 1) - c
        if nu_sq <= 0.0:
            raise ValueError(f"overcritical channel: nu^2 = {nu_sq} <= 0 for l = {l}, c = {c}")
        nu = math.sqrt(nu_sq)
    if abs(nu - round(nu)) < _INTEGER_TOL:
        raise ValueError(f"integer order nu = {nu} is unsupported")
    return nu


def channel_ladder(params: ModelParams, cutoff: float) -> list[ChannelSpec]:
    """Every channel, singular or not, up to the angular cutoff (j or l).

    Monopole ordering: ascending j from the bottom sector j = eg - 1/2, then
    ascending kappa, then ascending m. Inverse-square ordering: (l, m)
    lexicographic. A non-finite cutoff raises ValueError: the ladder
    would never end.
    """
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff}")
    out: list[ChannelSpec] = []
    if params.model == "monopole":
        j = params.eg - 0.5
        while j <= cutoff + _TOL:
            roots = kappa_of(j, params.eg)
            for kappa in (0.0,) if abs(roots[1]) < _TOL else roots:
                out.extend(ChannelSpec(m=-j + k, nu_sq=(kappa + 0.5) ** 2, j=j, kappa=kappa)
                           for k in range(int(round(2 * j)) + 1))
            j += 1.0
    else:
        l = 0
        while l <= cutoff + _TOL:
            nu_sq = 0.25 + l * (l + 1) - params.c
            out.extend(ChannelSpec(m=float(m), nu_sq=nu_sq, l=l) for m in range(-l, l + 1))
            l += 1
    return out


def singular_channels(params: ModelParams, cutoff: float) -> list[ChannelSpec]:
    """Ordered list of singular channels up to the angular cutoff.

    The singular members of channel_ladder, in its order. For eg = 1/2
    this yields the canonical four channels
    (j=0, kappa=0, m=0), (j=1, kappa=-sqrt(2), m=-1, 0, +1).

    The cutoff must clear the largest singular sector; that is checked so a
    too-small cutoff cannot silently truncate the set.
    """
    if params.model == "monopole":
        # singular kappa lie in (-3/2, 1/2), so j stays below -1/2 + sqrt(9/4 + eg^2)
        j_bound = -0.5 + math.sqrt(2.25 + params.eg**2)
        label, top = "j", params.eg - 0.5
        while top + 1.0 < j_bound - _TOL:
            top += 1.0
    else:
        label, top = "l", math.ceil(l_crit(params.c) - _TOL) - 1  # singular l are 0 .. top
    if top >= 0 and cutoff < top - _TOL:
        raise ValueError(f"cutoff {cutoff} excludes the singular sector at {label} = {top}")
    return [ch for ch in channel_ladder(params, top) if ch.singular]


def singular_count(params: ModelParams) -> int:
    """len(singular_channels(params, cutoff)), without building the channels.

    The monopole's are the bottom sector's 2 eg (kappa = 0), plus the j = 1
    triplet at eg = 1/2; the 1/r^2 model's are every (l, m) with l < l_crit.
    """
    if params.model == "monopole":
        return 4 if params.eg < 1.0 else round(2.0 * params.eg)
    return math.ceil(l_crit(params.c) - _TOL) ** 2


@functools.lru_cache(maxsize=256)
def per_order(fn: Callable[..., object], orders: tuple[float, ...], *args) -> np.ndarray:
    """Read-only table of fn(nu, *args), one row per entry of orders.

    orders is the Bessel order of each channel, in channel order: an
    extension's ExtensionMatrix.orders, formed once when U is built, or
    tuple(ch.nu for ch in channels) where only a channel list is at hand.
    fn is a module-level function of (nu, *args). fn is called once per
    distinct order, and the table once per process for each (fn, orders,
    args): the deficiency subspaces are fixed by the order and the scale
    alone, so every caller keys a table on the U-independent data and forms
    its sums with U per call. A reader that wants its quantities as rows
    reads the transpose, a view. The cache is a bounded LRU (256 tables);
    an exception is not cached, so a call that raised raises again.
    """
    values = {nu: fn(nu, *args) for nu in dict.fromkeys(orders)}
    table = np.array([values[nu] for nu in orders])
    table.flags.writeable = False
    return table


def _is_integer(value) -> bool:
    """An int or a numpy integer, not a bool (numpy reads a bool index as a mask)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class UnitarityError(ValueError):
    """U is not unitary, so H_U is not self-adjoint; the CLI exits 3."""


class HermiticityError(ValueError):
    """Boundary data or an operator failed its Hermiticity gate.

    Boundary data g is held to a defect max|g - g^dag| <= 1e-9, by
    BoundaryConditionMatrix and again by assemble_radial_hamiltonian; an
    operator H to defect <= 1e-9 max(1, ||H||_inf), its own scale (see
    oracle_spectrum). Each gate refuses a NaN defect.

    The CLI reports it as a Hermiticity violation (exit 3).
    """


class LinkBreakdownError(ArithmeticError):
    """The link map or its inverse left working precision at this radius.

    That covers a singular transfer matrix a(r) (condition number past 1e12)
    and an exterior norm whose terms cancelled to a nonpositive value.
    The CLI reports it as a unitarity violation (exit 3).
    """


def unitarity_defect(entries: np.ndarray) -> float:
    """Max-norm of U^dag U - I for a square matrix of any size."""
    entries = np.asarray(entries, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    gram = entries.conj().T @ entries
    gram.flat[:: entries.shape[0] + 1] -= 1.0  # minus I, on the diagonal alone
    return float(np.abs(gram).max())


def check_unitary(entries: np.ndarray) -> None:
    """Raise UnitarityError unless unitarity_defect(entries) <= 1e-10; a NaN defect fails."""
    defect = unitarity_defect(entries)
    if not defect <= _UNITARITY_TOL:
        raise UnitarityError(f"extension matrix is not unitary: defect {defect:.3e} "
                             f"exceeds tolerance {_UNITARITY_TOL:.1e}")


@dataclass(frozen=True)
class AnnulusGrid:
    """Uniform grid on [r0, R] with n interior points, h = (R - r0)/(n + 1).

    A Robin boundary keeps the r0 node as an unknown (ghost-point
    elimination), a Dirichlet boundary drops it; the outer wall at R is
    always Dirichlet. The extension reading over singular channels puts
    its first node at (r0 + h)/16 instead (see assemble_radial_hamiltonian).
    No resolution rule is imposed: the standard bound-state runs (r0 = 1e-3,
    R = 40, n = 8000) have h far above r0 and meet their stated accuracy.
    """

    r0: float
    R: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.r0 < self.R:
            raise ValueError("need 0 < r0 < R")
        if not math.isfinite(self.R):
            raise ValueError(f"R must be finite, got {self.R}")
        if not _is_integer(self.n):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 100:
            raise ValueError(f"n must be at least 100, got {self.n}")

    @property
    def h(self) -> float:
        return (self.R - self.r0) / (self.n + 1)
