"""Self-adjoint extensions of the singular radial Hamiltonians.

The radial operator in each singular channel admits two normalizable
small-r behaviors, so over n singular channels the minimal operator has
deficiency indices (n, n) and the extensions form a U(n) family: U(4) for
the monopole at eg = 1/2; U(2), U(3), U(4) at eg = 1, 3/2, 2; U(1) for a
subcritical 1/r^2. This module builds that family concretely:

  * deficiency vectors phi_+- (Macdonald profiles at complex wavenumber
    (1 -+ i) s, normalized on R^3),
  * the domain vectors phi = phi_+ + U phi_- and their small-r
    coefficient pairs,
  * bound-state energies for channels where U acts diagonally,
  * positive-energy eigenstates obtained by matching small-r data, with
    the regular/singular amplitude mixing they exhibit,
  * the boundary-form (Hermiticity) integral evaluated at finite radius,
  * the distinguished diagonal value forced by the Dirac equation.

The channel set is singular_channels(params) for any model; only
is_dirac_consistent is tied to the four-channel eg = 1/2 set, whose
j = 0 / j = 1 structure it encodes. Overcritical channels (nu^2 <= 0) have
no deficiency vectors, and sets containing one are refused.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .channels import ChannelSpec, ModelParams, per_order, singular_channels
from .specfun import (
    SmallRBehavior,
    bessel_j,
    bessel_j_deriv,
    bessel_k_complex,
    bessel_k_complex_deriv,
    bessel_y,
    bessel_y_deriv,
    small_arg_coeffs,
)

__all__ = [
    "BoundState",
    "ChannelWave",
    "DeficiencyVector",
    "DomainVector",
    "ExtensionMatrix",
    "MixingSolution",
    "RadialChannelFunction",
    "bound_state_energy_theta",
    "bound_state_energy_u",
    "bound_states",
    "canonical_channels",
    "deficiency_normalization",
    "dirac_consistent_value",
    "domain_vector_smallr",
    "haar_unitary",
    "hermiticity_defect",
    "is_angular_momentum_conserving",
    "is_dirac_consistent",
    "mixing_matrix",
    "origin_pairs",
    "random_extension",
    "scattering_eigenstate",
    "unitarity_defect",
]

_UNITARITY_TOL = 1e-10
_DIAGONAL_TOL = 1e-10
_THRESHOLD_TOL = 1e-10
_POLE_TOL = 1e-12


@functools.lru_cache(maxsize=64)
def canonical_channels(params: ModelParams) -> tuple[ChannelSpec, ...]:
    """The singular channels the extension family acts on, in enumeration order.

    Memoized per ModelParams (frozen, hashable) in a bounded LRU cache; the
    tuple of frozen ChannelSpec it returns is immutable.
    """
    return tuple(singular_channels(params, cutoff=math.inf))


def unitarity_defect(entries: np.ndarray) -> float:
    """Max-norm of U^dag U - I for a square matrix of any size."""
    entries = np.asarray(entries, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    gram = entries.conj().T @ entries
    return float(np.abs(gram - np.eye(entries.shape[0])).max())


@dataclass(frozen=True)
class ExtensionMatrix:
    """A validated member U of the U(n) family over canonical_channels(params).

    Rows index the source domain vector, columns the deficiency channel it
    couples to: phi^(src) = phi_+^(src) + sum_ch U[src, ch] phi_-^(ch).
    Construction fails loudly if the channel set is empty or overcritical,
    if U is not n x n, or if U is not unitary within tolerance.
    """

    entries: np.ndarray
    params: ModelParams = field(default_factory=ModelParams)
    unitarity_tol: float = _UNITARITY_TOL
    channels: tuple[ChannelSpec, ...] = field(init=False)

    def __post_init__(self):
        chans = canonical_channels(self.params)
        if not chans:
            raise ValueError("the model has no singular channels: the operator is essentially "
                             "self-adjoint and has no extension family")
        for ch in chans:
            ch.nu  # rejects overcritical channels, which have no deficiency vectors
        object.__setattr__(self, "channels", chans)
        n = len(chans)
        ents = np.array(self.entries, dtype=complex)
        if ents.shape != (n, n):
            raise ValueError(f"extension matrix must be {n}x{n} over the {n} singular "
                             f"channel(s), got shape {ents.shape}")
        defect = unitarity_defect(ents)
        if defect > self.unitarity_tol:
            raise ValueError(f"extension matrix is not unitary: defect {defect:.3e} "
                             f"exceeds tolerance {self.unitarity_tol:.1e}")
        ents.flags.writeable = False
        object.__setattr__(self, "entries", ents)

    @functools.cached_property
    def small_r_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """origin_pairs of this extension, built once and read-only."""
        pairs = origin_pairs(self.entries, self.channels, self.params.deficiency_scale)
        for arr in pairs:
            arr.flags.writeable = False
        return pairs

    @classmethod
    def from_diagonal_thetas(cls, thetas, params: ModelParams | None = None) -> "ExtensionMatrix":
        """Angular-momentum-conserving member diag(e^{i theta_0}, ..., e^{i theta_(n-1)})."""
        return cls(np.diag(np.exp(1j * np.asarray(thetas, dtype=float))), params or ModelParams())


def haar_unitary(seed: int | np.random.Generator, n: int = 4) -> np.ndarray:
    """Haar-distributed random unitary from an explicit 64-bit seed.

    QR of a complex Gaussian matrix, with the R-diagonal phases absorbed so
    the distribution is exactly Haar rather than QR-convention dependent.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_extension(seed: int | np.random.Generator,
                     params: ModelParams | None = None) -> ExtensionMatrix:
    """A Haar-random member of the extension family."""
    params = params or ModelParams()
    return ExtensionMatrix(haar_unitary(seed, len(canonical_channels(params))), params)


def deficiency_normalization(nu: float, deficiency_scale: float) -> float:
    """R^3 normalization constant of the deficiency profile.

    With phi(r) = N r^(-1/2) K_nu((1 -+ i) s r) the squared norm is
    N^2 * integral r |K|^2 dr = N^2 * pi / (8 s^2 cos(pi nu / 2)),
    so N = sqrt(8 s^2 cos(pi nu / 2) / pi). Finite for all nu in (0, 1).
    """
    s = deficiency_scale
    return math.sqrt(8.0 * s * s * math.cos(math.pi * nu / 2.0) / math.pi)


def _deficiency_arg(sign: int, deficiency_scale: float) -> complex:
    # eigenvalue +i s^2/mu pairs with K_nu((1-i) s r), -i s^2/mu with K_nu((1+i) s r)
    return complex(1.0, -float(sign)) * deficiency_scale


@dataclass(frozen=True)
class DeficiencyVector:
    """One normalized deficiency vector phi_+ or phi_- in a single channel.

    value(r) is the radial profile N r^(-1/2) K_nu((1 -+ i) s r); the R^3
    norm integral |value|^2 r^2 dr equals one.
    """

    channel: ChannelSpec
    sign: int
    deficiency_scale: float = 1.0

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not self.deficiency_scale > 0.0:
            raise ValueError("deficiency_scale must be positive")
        self.channel.nu  # rejects overcritical channels early

    @property
    def normalization(self) -> float:
        return deficiency_normalization(self.channel.nu, self.deficiency_scale)

    @property
    def wavenumber(self) -> complex:
        return _deficiency_arg(self.sign, self.deficiency_scale)

    def value(self, r: float) -> complex:
        a = self.wavenumber
        return self.normalization * r ** (-0.5) * bessel_k_complex(self.channel.nu, a * r)

    def derivative(self, r: float) -> complex:
        a = self.wavenumber
        nu = self.channel.nu
        kv = bessel_k_complex(nu, a * r)
        kd = bessel_k_complex_deriv(nu, a * r)
        return self.normalization * (a * r ** (-0.5) * kd - 0.5 * r ** (-1.5) * kv)

    def small_arg(self) -> SmallRBehavior:
        kind = "DEF+" if self.sign > 0 else "DEF-"
        raw = small_arg_coeffs(kind, self.channel.nu, self.wavenumber)
        n = self.normalization
        return SmallRBehavior(raw.nu, n * raw.c_minus, n * raw.c_plus)


def origin_pairs(u: np.ndarray, channels: Sequence[ChannelSpec],
                 scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Small-r coefficients (A, B) of the domain of the extension U.

    Near the origin a domain function of the extension behaves per channel
    as u ~ A r^(1/2 - nu) + B r^(1/2 + nu), u = r psi. Column src of A and B
    holds these coefficients for the domain vector
    phi_+^src + sum_ch U[src, ch] phi_-^ch, built from the R^3-normalized
    deficiency profiles (deficiency_normalization), the normalization
    under which U is unitary; a combination x of domain vectors has A x
    and B x. In w = r^(nu - 1/2) u the pair reads w = A + B r^(2 nu), so
    the extension is the regular condition (r^(1 - 2 nu) w')(0) = Q w(0),
    Q = diag(2 nu) B A^-1, Hermitian for unitary U. Q is infinite where A
    is singular, as for the Dirac-consistent value, which is why the pair
    is returned rather than Q. This is the one small-r pair code path, read
    by the oracle and, through ExtensionMatrix.small_r_pairs, by
    domain_vector_smallr and the matching.
    """
    def pair(nu):
        plus = small_arg_coeffs("DEF+", nu, _deficiency_arg(+1, scale))
        norm = deficiency_normalization(nu, scale)
        return plus.c_minus * norm, plus.c_plus * norm

    lead, sub = np.array(per_order(channels, pair)).T
    # the phi_- pairs are the conjugates of the phi_+ ones, as K_nu(conj z) = conj K_nu(z)
    return (np.diag(lead) + u * lead.conj()).T, (np.diag(sub) + u * sub.conj()).T


def domain_vector_smallr(extension: ExtensionMatrix, source: int) -> list[SmallRBehavior]:
    """Small-r coefficient pairs, per channel, of the domain vector phi^(source).

    Normalization constants are folded in, so these pairs describe the actual
    function phi_+^(source) + sum_ch U[source, ch] phi_-^(ch): column source of origin_pairs.
    """
    if not 0 <= source < len(extension.channels):
        raise ValueError(f"source index {source} out of range")
    a, b = extension.small_r_pairs
    return [SmallRBehavior(ch.nu, a[idx, source], b[idx, source])
            for idx, ch in enumerate(extension.channels)]


def bound_state_energy_theta(theta: float, nu: float, mu: float) -> float | None:
    """Bound-state energy of a diagonal phase e^{i theta} in a channel of order nu.

        E = -mu * [(cos(pi nu / 2) + cos theta) / (1 + cos(theta - pi nu / 2))]^(1/nu)
          = -mu * [cos(theta / 2 + pi nu / 4) / cos(theta / 2 - pi nu / 4)]^(1/nu)

    The state exists only while cos theta > -cos(pi nu / 2); at or past the
    threshold (within a 1e-10 band) the spectrum has no negative eigenvalue
    and None is returned. E = 0 itself is not a bound state. Just inside the
    threshold |E| grows like delta^(-1/nu) in the distance delta to it, and
    an energy past the float range raises OverflowError.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    edge = math.cos(math.pi * nu / 2.0)
    c = math.cos(theta)
    if c <= -edge + _THRESHOLD_TOL:
        return None
    # the half-angle form: near the Dirac-consistent phase 1 + cos(theta - pi nu / 2)
    # rounds to 0, while this quotient does not cancel (and is exactly 1 at theta = 0)
    half = math.pi * nu / 4.0
    ratio = math.cos(theta / 2.0 + half) / math.cos(theta / 2.0 - half)
    try:
        return -mu * ratio ** (1.0 / nu)
    except OverflowError:
        raise OverflowError(f"bound-state energy leaves the float range for nu = {nu}, "
                            f"theta = {theta!r}: |E| ~ 1e{math.log10(ratio) / nu:.0f} mu "
                            f"(mu = {mu})") from None


def bound_state_energy_u(u_diag: complex, nu: float, mu: float) -> complex | None:
    """Bound-state energy from the diagonal entry itself, principal branch.

        E = -mu * [(1 + i^nu u) / (i^nu + u)]^(1/nu),    i^nu = e^{i pi nu / 2}

    Returns None at the pole i^nu + u = 0. The result is complex; callers
    accept it as a physical energy only when |Im E| <= 1e-9 |E|. The theta
    parameterization is the authoritative evaluator, this form exists for
    cross-checking it.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    if abs(abs(u_diag) - 1.0) > _UNITARITY_TOL:
        raise ValueError(f"diagonal entry must lie on the unit circle, got |u| = {abs(u_diag)}")
    i_nu = cmath.exp(1j * math.pi * nu / 2.0)
    den = i_nu + u_diag
    if abs(den) < _POLE_TOL:
        return None
    return -mu * ((1.0 + i_nu * u_diag) / den) ** (1.0 / nu)


@dataclass(frozen=True)
class BoundState:
    """A negative-energy eigenstate attached to one diagonally-acting channel.

    lam is the decay wavenumber sqrt(-2 mu E); the radial profile is
    r^(-1/2) K_nu(lam r).
    """

    channel: ChannelSpec
    theta: float
    energy: float
    lam: float

    def __post_init__(self):
        if not self.energy < 0.0:
            raise ValueError("bound states have strictly negative energy")


def bound_states(extension: ExtensionMatrix, mu: float) -> list[BoundState]:
    """All bound states of H_U.

    A channel contributes only if U leaves it unmixed: its row and column
    must vanish off the diagonal (within 1e-10), leaving a pure phase
    e^{i theta} whose energy formula then applies. Anywhere from zero to
    one state per channel results.
    """
    ents = extension.entries
    out: list[BoundState] = []
    for idx, ch in enumerate(extension.channels):
        if not _unmixed(ents, idx, _DIAGONAL_TOL):
            continue
        theta = cmath.phase(ents[idx, idx])
        energy = bound_state_energy_theta(theta, ch.nu, mu)
        if energy is not None:
            out.append(BoundState(channel=ch, theta=theta, energy=energy,
                                  lam=math.sqrt(-2.0 * mu * energy)))
    return out


@dataclass(frozen=True)
class MixingSolution:
    """Positive-energy eigenstate built on one source domain vector.

    amplitudes[ch] = (A_N, A_S): the coefficients of the regular wave
    J_nu(lam r)/sqrt(r) and the singular wave Y_nu(lam r)/sqrt(r) in each
    channel, under the convention that the eigenstate's singular part
    reproduces the source domain vector's small-r data with global scale 1.
    condition_number is the worst per-channel matching-system condition.
    """

    energy: float
    source_index: int
    source_channel: ChannelSpec
    amplitudes: tuple[tuple[complex, complex], ...]
    condition_number: float

    @property
    def regular_amplitudes(self) -> np.ndarray:
        return np.array([a for a, _ in self.amplitudes])

    @property
    def singular_amplitudes(self) -> np.ndarray:
        return np.array([b for _, b in self.amplitudes])


def _triangular_cond(a: complex, b: complex, c: complex) -> float:
    """2-norm condition number of [[a, 0], [b, c]] in closed form.

    With F = |a|^2 + |b|^2 + |c|^2 and |det| = |a c| = sigma_max sigma_min,
    sigma_max^2 = (F + sqrt(F^2 - 4 |det|^2)) / 2 and cond = sigma_max^2 / |det|.
    The discriminant is factored as ((|a| - |c|)^2 + |b|^2) ((|a| + |c|)^2 + |b|^2),
    so it does not cancel.
    """
    a, b, c = abs(a), abs(b), abs(c)
    det = a * c
    if det == 0.0:
        return math.inf
    root = math.hypot(a - c, b) * math.hypot(a + c, b)
    return 0.5 * (a * a + b * b + c * c + root) / det


def _matching(extension: ExtensionMatrix, energy: float, mu: float) -> tuple[np.ndarray, np.ndarray, float]:
    """scattering_eigenstate's (regular, singular) [channel, source] and condition, all sources at once."""
    if not energy > 0.0:
        raise ValueError(f"scattering states require energy > 0, got {energy}")
    lam = math.sqrt(2.0 * mu * energy)
    a, b = extension.small_r_pairs

    def waves(nu):
        reg = small_arg_coeffs("N", nu, lam)
        sing = small_arg_coeffs("S", nu, lam)
        return sing.c_minus, sing.c_plus, reg.c_plus, _triangular_cond(sing.c_minus, sing.c_plus, reg.c_plus)

    sing_minus, sing_plus, reg_plus, cond = np.array(per_order(extension.channels, waves)).T[..., None]
    singular = a / sing_minus
    regular = (b - singular * sing_plus) / reg_plus
    return regular, singular, float(cond.max())


def scattering_eigenstate(extension: ExtensionMatrix, energy: float, source: int,
                          mu: float) -> MixingSolution:
    """Match the energy-E eigenstate whose small-r behavior is phi^(source).

    Per channel the unknown pair (A_N, A_S) solves the lower-triangular
    system A_S c_-^S = c_-^phi, A_N c_+^N + A_S c_+^S = c_+^phi; row one is
    exact because only the singular wave carries r^(-1/2-nu). The remaining
    freedom is a domain element of the closed symmetric operator, which
    vanishes faster at the origin and does not alter the matching. The
    result is column source of mixing_matrix.
    """
    # explicit: numpy would read source = -1 as the last column
    if not 0 <= source < len(extension.channels):
        raise ValueError(f"source index {source} out of range")
    regular, singular, cond = _matching(extension, energy, mu)
    return MixingSolution(energy=energy, source_index=source,
                          source_channel=extension.channels[source],
                          amplitudes=tuple(zip(regular[:, source], singular[:, source])),
                          condition_number=cond)


def mixing_matrix(extension: ExtensionMatrix, energy: float,
                  mu: float) -> tuple[np.ndarray, np.ndarray]:
    """The energy-E eigenstates of every source, matched in one step.

    Returns (regular, singular) n x n arrays indexed [channel, source]; the
    column for a source is exactly scattering_eigenstate's amplitudes for
    it. Off-diagonal entries are the angular-momentum mixing: they vanish
    for diagonal U and not otherwise.
    """
    regular, singular, _ = _matching(extension, energy, mu)
    return regular, singular


def _unmixed(entries: np.ndarray, idx: int, tol: float) -> bool:
    """True iff row and column idx of U vanish off the diagonal within tol."""
    off = entries - np.diag(np.diag(entries))
    return bool(max(np.abs(off[idx]).max(), np.abs(off[:, idx]).max()) <= tol)


def is_angular_momentum_conserving(extension: ExtensionMatrix, tol: float = 1e-12) -> bool:
    """True iff U is diagonal within tol, so J^2 and J_z survive as symmetries."""
    off = extension.entries - np.diag(np.diag(extension.entries))
    return bool(np.abs(off).max() <= tol)


class RadialChannelFunction(Protocol):
    """Radial function with one component per channel and an analytic derivative."""

    def value(self, r: float) -> np.ndarray: ...

    def derivative(self, r: float) -> np.ndarray: ...


@dataclass(frozen=True)
class DomainVector:
    """The full radial profile of phi^(source) = phi_+^(source) + U phi_-."""

    extension: ExtensionMatrix
    source: int

    def _parts(self, r: float, deriv: bool) -> np.ndarray:
        out = np.zeros(len(self.extension.channels), dtype=complex)
        for idx, ch in enumerate(self.extension.channels):
            plus = DeficiencyVector(ch, +1, self.extension.params.deficiency_scale)
            minus = DeficiencyVector(ch, -1, self.extension.params.deficiency_scale)
            u = self.extension.entries[self.source, idx]
            if deriv:
                out[idx] = (plus.derivative(r) if idx == self.source else 0.0) + u * minus.derivative(r)
            else:
                out[idx] = (plus.value(r) if idx == self.source else 0.0) + u * minus.value(r)
        return out

    def value(self, r: float) -> np.ndarray:
        return self._parts(r, deriv=False)

    def derivative(self, r: float) -> np.ndarray:
        return self._parts(r, deriv=True)


@dataclass(frozen=True)
class ChannelWave:
    """A single oscillatory wave in one channel, zero elsewhere.

    kind "N" is the regular wave J_nu(lam r)/sqrt(r); kind "S" the singular
    wave Y_nu(lam r)/sqrt(r).
    """

    kind: str
    nu: float
    lam: float
    channel_index: int
    n_channels: int = 4

    def __post_init__(self):
        if self.kind not in ("N", "S"):
            raise ValueError("kind must be 'N' or 'S'")
        if not 0 <= self.channel_index < self.n_channels:
            raise ValueError("channel_index out of range")

    def _radial(self, r: float) -> tuple[float, float]:
        x = self.lam * r
        if self.kind == "N":
            return bessel_j(self.nu, x), bessel_j_deriv(self.nu, x)
        return bessel_y(self.nu, x), bessel_y_deriv(self.nu, x)

    def value(self, r: float) -> np.ndarray:
        out = np.zeros(self.n_channels, dtype=complex)
        out[self.channel_index] = r ** (-0.5) * self._radial(r)[0]
        return out

    def derivative(self, r: float) -> np.ndarray:
        f, fd = self._radial(r)
        out = np.zeros(self.n_channels, dtype=complex)
        out[self.channel_index] = self.lam * r ** (-0.5) * fd - 0.5 * r ** (-1.5) * f
        return out


def hermiticity_defect(psi_a: RadialChannelFunction, psi_b: RadialChannelFunction,
                       r_eval: float, mu: float) -> complex:
    """Boundary term of the integration-by-parts identity at radius r_eval.

        (1 / 2 mu) sum_ch r^2 [ (d_r psi_a)* psi_b - psi_a* (d_r psi_b) ]

    <H psi_a, psi_b> - <psi_a, H psi_b> equals the r -> 0 limit of this
    quantity (the outer boundary contributes nothing for decaying states),
    so a self-adjoint domain is one on which the limit vanishes pairwise.
    Probe it on a decreasing sequence such as r_eval in {1e-2, 1e-3, 1e-4}.
    """
    if not r_eval > 0.0:
        raise ValueError("r_eval must be positive")
    va = np.asarray(psi_a.value(r_eval), dtype=complex)
    vb = np.asarray(psi_b.value(r_eval), dtype=complex)
    da = np.asarray(psi_a.derivative(r_eval), dtype=complex)
    db = np.asarray(psi_b.derivative(r_eval), dtype=complex)
    return complex(r_eval**2 / (2.0 * mu) * np.sum(da.conj() * vb - va.conj() * db))


def dirac_consistent_value(nu: float) -> complex:
    """Diagonal entry that removes the singular wave from every eigenstate.

    Solves c_-(DEF+) + U_d c_-(DEF-) = 0 for U_d; the two coefficients have
    equal magnitude (conjugate scales), so |U_d| = 1. Analytically this is
    -e^{i pi nu / 2}, but the value returned comes from the solve.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    plus = small_arg_coeffs("DEF+", nu, _deficiency_arg(+1, 1.0))
    minus = small_arg_coeffs("DEF-", nu, _deficiency_arg(-1, 1.0))
    u_d = -plus.c_minus / minus.c_minus
    residual = abs(plus.c_minus + u_d * minus.c_minus)
    if residual > 1e-12 * abs(plus.c_minus):
        raise ArithmeticError(f"cancellation solve failed, residual {residual:.3e}")
    return u_d


def is_dirac_consistent(extension: ExtensionMatrix, tol: float = 1e-10) -> bool:
    """True iff U restricts to the one-parameter family the Dirac equation allows.

    Channels 1-3 (the j = 1 triplet) must be unmixed with diagonal entries
    equal to dirac_consistent_value at their order; the j = 0 entry is the
    surviving free parameter. That structure belongs to the monopole at
    eg = 1/2; any other channel set raises ValueError.
    """
    params = extension.params
    if params.model != "monopole" or params.eg != 0.5:
        raise ValueError("the Dirac-consistency test encodes the j = 0 / j = 1 channels of the "
                         f"monopole at eg = 1/2; got model {params.model!r}, eg = {params.eg}")
    ents = extension.entries
    u_required = dirac_consistent_value(extension.channels[1].nu)
    return all(_unmixed(ents, idx, tol) and abs(ents[idx, idx] - u_required) <= tol
               for idx in range(1, len(ents)))
