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
  * the boundary form Omega = A^H diag(2 nu) B of the domain, Hermitian
    exactly when H_U is self-adjoint,
  * the distinguished diagonal value forced by the Dirac equation.

The channel set is singular_channels(params) for any model, read whole by
every function here. Overcritical channels (nu^2 <= 0) have no deficiency
vectors, and sets containing one are refused.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import ChannelSpec, ModelParams, per_order, singular_channels, singular_count
from .specfun import SmallRBehavior, bessel_k_complex, small_arg_coeffs

__all__ = [
    "BoundState",
    "DeficiencyVector",
    "ExtensionMatrix",
    "MixingSolution",
    "UnitarityError",
    "bound_state_energy_theta",
    "bound_state_energy_u",
    "bound_states",
    "boundary_form",
    "canonical_channels",
    "check_unitary",
    "deficiency_normalization",
    "dirac_consistent_value",
    "domain_vector_smallr",
    "haar_unitary",
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


class UnitarityError(ValueError):
    """U is not unitary, so H_U is not self-adjoint; the CLI exits 3."""


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


@dataclass(frozen=True, eq=False)
class ExtensionMatrix:
    """A validated member U of the U(n) family over canonical_channels(params).

    Rows index the source domain vector, columns the deficiency channel it
    couples to: phi^(src) = phi_+^(src) + sum_ch U[src, ch] phi_-^(ch).
    Construction fails loudly if the channel set is empty or overcritical,
    if U is not n x n, or if U is not unitary (check_unitary). U may come in
    any array layout; entries is a read-only C-contiguous copy of it.

    Construction also forms what every reader of U shares, once: orders,
    the Bessel order of each channel (the key of its per_order tables), and
    unmixed, the read-only mask of the channels U leaves unmixed (_unmixed).
    It compares and hashes by identity, as its fields hold arrays.
    """

    entries: np.ndarray
    params: ModelParams = ModelParams()
    channels: tuple[ChannelSpec, ...] = field(init=False)
    orders: tuple[float, ...] = field(init=False)
    unmixed: np.ndarray = field(init=False)

    def __post_init__(self):
        n = singular_count(self.params)  # counted before listed: eg = 1e8 lists 2e8 channels
        ents = np.array(self.entries, dtype=complex, order="C")
        if n and ents.shape != (n, n):
            raise ValueError(f"extension matrix must be {n}x{n} over the {n} singular "
                             f"channel(s), got shape {ents.shape}")
        chans = canonical_channels(self.params)
        if not chans:
            raise ValueError("the model has no singular channels: the operator is essentially "
                             "self-adjoint and has no extension family")
        # ch.nu rejects overcritical channels, which have no deficiency vectors
        object.__setattr__(self, "orders", tuple(ch.nu for ch in chans))
        object.__setattr__(self, "channels", chans)
        check_unitary(ents)
        ents.flags.writeable = False
        object.__setattr__(self, "entries", ents)
        unmixed = _unmixed(ents)
        unmixed.flags.writeable = False
        object.__setattr__(self, "unmixed", unmixed)

    @functools.cached_property
    def small_r_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """origin_pairs of this extension, built once and read-only."""
        pairs = _origin_pairs(self.entries, self.orders, self.params.deficiency_scale)
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
    so N = s sqrt(8 cos(pi nu / 2) / pi), s outside the root, where s^2
    would underflow below s ~ 1e-154. Finite for all nu in (0, 1).
    """
    return deficiency_scale * math.sqrt(8.0 * math.cos(math.pi * nu / 2.0) / math.pi)


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
    deficiency_scale: float

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

    def small_arg(self) -> SmallRBehavior:
        kind = "DEF+" if self.sign > 0 else "DEF-"
        raw = small_arg_coeffs(kind, self.channel.nu, self.wavenumber)
        n = self.normalization
        return SmallRBehavior(raw.nu, n * raw.c_minus, n * raw.c_plus)


def _plus_pair(nu: float, scale: float) -> tuple[complex, complex]:
    """Small-r pair (c_-, c_+) of the R^3-normalized phi_+ at one order: normal floats, else ArithmeticError."""
    plus = small_arg_coeffs("DEF+", nu, _deficiency_arg(+1, scale))
    norm = deficiency_normalization(nu, scale)
    pair = plus.c_minus * norm, plus.c_plus * norm
    if not all(map(cmath.isfinite, pair)):
        raise OverflowError(f"small-r pair of phi_+ leaves the float range at nu = {nu}, s = {scale!r}")
    if not min(map(abs, pair)) >= sys.float_info.min:
        raise ArithmeticError(f"small-r pair of phi_+ underflows at nu = {nu}, s = {scale!r}")
    return pair


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
    is returned rather than Q; the boundary form Omega = A^H Q A
    (boundary_form) stays finite there. This is the one small-r pair code
    path, read by the oracle and, through ExtensionMatrix.small_r_pairs, by
    domain_vector_smallr, boundary_form and the matching.
    """
    return _origin_pairs(u, tuple(ch.nu for ch in channels), scale)


def _origin_pairs(u: np.ndarray, orders: tuple[float, ...],
                  scale: float) -> tuple[np.ndarray, np.ndarray]:
    """origin_pairs over the channels of the given orders."""
    lead, sub = per_order(_plus_pair, orders, scale).T
    # the phi_- pairs are the conjugates of the phi_+ ones, as K_nu(conj z) = conj K_nu(z)
    return (np.diag(lead) + u * lead.conj()).T, (np.diag(sub) + u * sub.conj()).T


def _is_integer(value) -> bool:
    """An int or a numpy integer, not a bool (numpy reads a bool index as a mask)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_source(extension: ExtensionMatrix, source) -> None:
    # explicit: numpy would read source = -1 as the last column, and True as a mask
    if not (_is_integer(source) and 0 <= source < len(extension.channels)):
        raise ValueError(f"source index {source} out of range: need an integer in "
                         f"[0, {len(extension.channels)})")


def domain_vector_smallr(extension: ExtensionMatrix, source: int) -> list[SmallRBehavior]:
    """Small-r coefficient pairs, per channel, of the domain vector phi^(source).

    Normalization constants are folded in, so these pairs describe the actual
    function phi_+^(source) + sum_ch U[source, ch] phi_-^(ch): column source of origin_pairs.
    """
    _check_source(extension, source)
    a, b = extension.small_r_pairs
    return [SmallRBehavior(ch.nu, a[idx, source], b[idx, source])
            for idx, ch in enumerate(extension.channels)]


def boundary_form(extension: ExtensionMatrix) -> np.ndarray:
    """The boundary form of H_U on its domain, Omega = A^H diag(2 nu) B.

    For domain functions with small-r pairs (A x, B x) and (A y, B y),
    (A, B) = small_r_pairs, integration by parts leaves only the term at
    the origin: <H f, g> - <f, H g> = -(1 / 2 mu) x^H (Omega - Omega^H) y,
    as each channel's Wronskian of r^(1/2 - nu) and r^(1/2 + nu) is 2 nu.
    H_U is self-adjoint exactly when Omega is Hermitian, which unitarity of
    U makes it. The negative eigenvalues of its Hermitian part count the
    bound states (Omega = A^H Q A has Q's inertia by Sylvester's law); a
    null vector of A, as in the Dirac-consistent channels, carries only the
    regular wave and adds a zero eigenvalue, not a state.
    """
    a, b = extension.small_r_pairs
    two_nu = 2.0 * np.array(extension.orders)
    return a.conj().T @ (two_nu[:, None] * b)


def bound_state_energy_theta(theta: float, nu: float, unit: float) -> float | None:
    """Bound-state energy of a diagonal phase e^{i theta} in a channel of order nu.

        E = -unit * [(cos(pi nu / 2) + cos theta) / (1 + cos(theta - pi nu / 2))]^(1/nu)
          = -unit * [cos(theta / 2 + pi nu / 4) / cos(theta / 2 - pi nu / 4)]^(1/nu)

    unit is s^2/mu, mu at the default s = mu: theta labels U relative to the
    deficiency vectors at scale s, so the decay wavenumber is s F(theta, nu).

    The state exists only while cos theta > -cos(pi nu / 2); at or past the
    threshold (within a 1e-10 band) the spectrum has no negative eigenvalue
    and None is returned. Just inside the threshold |E| grows like
    delta^(-1/nu) in the distance delta to it, and an energy past the float
    range raises OverflowError. E = 0 itself is not a bound state: an energy
    below the smallest normal float (a tiny ratio^(1/nu) or unit), which
    would print with lost digits or as zero, raises ArithmeticError.
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
        energy = -unit * ratio ** (1.0 / nu)
    except OverflowError:
        energy = -math.inf
    if not -energy < math.inf:  # the power, or an infinite unit
        raise OverflowError(f"bound-state energy leaves the float range for nu = {nu}, "
                            f"theta = {theta!r}: |E| ~ 1e{math.log10(ratio) / nu:.0f} unit "
                            f"(unit = {unit})")
    if not -energy >= sys.float_info.min:
        raise ArithmeticError(f"bound-state energy underflows for nu = {nu}, "
                              f"theta = {theta!r} (unit = {unit})")
    return energy


def bound_state_energy_u(u_diag: complex, nu: float, unit: float) -> complex | None:
    """Bound-state energy from the diagonal entry itself, principal branch.

        E = -unit * [(1 + i^nu u) / (i^nu + u)]^(1/nu),    i^nu = e^{i pi nu / 2}

    unit is s^2/mu, as for bound_state_energy_theta. Returns None at the pole
    i^nu + u = 0. The result is complex; callers accept it as a physical
    energy only when |Im E| <= 1e-9 |E|. The theta parameterization is the
    authoritative evaluator, this form exists for cross-checking it.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    if abs(abs(u_diag) - 1.0) > _UNITARITY_TOL:
        raise ValueError(f"diagonal entry must lie on the unit circle, got |u| = {abs(u_diag)}")
    i_nu = cmath.exp(1j * math.pi * nu / 2.0)
    den = i_nu + u_diag
    if abs(den) < _POLE_TOL:
        return None
    return -unit * ((1.0 + i_nu * u_diag) / den) ** (1.0 / nu)


@dataclass(frozen=True)
class BoundState:
    """A negative-energy eigenstate attached to one diagonally-acting channel.

    lam is the decay wavenumber sqrt(2 mu) sqrt(-E); the radial profile is
    r^(-1/2) K_nu(lam r).
    """

    channel: ChannelSpec
    theta: float
    energy: float
    lam: float

    def __post_init__(self):
        if not self.energy < 0.0:
            raise ValueError("bound states have strictly negative energy")


def _own_param(extension: ExtensionMatrix, name: str, value: float | None) -> float:
    """extension.params.<name> (mu or deficiency_scale), U's own; a value passed must equal it."""
    own = getattr(extension.params, name)
    if value is not None and value != own:
        raise ValueError(f"{name} = {value!r} differs from the extension's own {own!r}")
    return own


def bound_states(extension: ExtensionMatrix, mu: float | None = None) -> list[BoundState]:
    """All bound states of H_U.

    A channel contributes only if U leaves it unmixed: its row and column
    must vanish off the diagonal (within 1e-10), leaving a pure phase
    e^{i theta} whose energy formula then applies in the unit s^2/mu of the
    extension's own mu and s (a mu passed must be its own): zero or one
    state per channel.
    """
    mu = _own_param(extension, "mu", mu)
    ents = extension.entries
    unit = mu * (extension.params.deficiency_scale / mu) ** 2
    out: list[BoundState] = []
    for ch, nu, unmixed, u_diag in zip(extension.channels, extension.orders, extension.unmixed,
                                       ents.diagonal()):
        if not unmixed:
            continue
        theta = cmath.phase(u_diag)
        energy = bound_state_energy_theta(theta, nu, unit)
        if energy is not None:
            out.append(BoundState(channel=ch, theta=theta, energy=energy,
                                  lam=math.sqrt(2.0 * mu) * math.sqrt(-energy)))
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


def _waves(nu: float, lam: float) -> tuple[float, float, float, float]:
    """The S wave's (c_-, c_+), the N wave's c_+ and the matching condition at one order."""
    reg = small_arg_coeffs("N", nu, lam)
    sing = small_arg_coeffs("S", nu, lam)
    return sing.c_minus, sing.c_plus, reg.c_plus, _triangular_cond(sing.c_minus, sing.c_plus, reg.c_plus)


def _matching(extension: ExtensionMatrix, energy: float,
              mu: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """scattering_eigenstate's (regular, singular) [channel, source], all sources at once.

    The third array holds each channel's matching condition, whose maximum
    only scattering_eigenstate reads.
    """
    mu = _own_param(extension, "mu", mu)
    if not energy > 0.0:
        raise ValueError(f"scattering states require energy > 0, got {energy}")
    lam = math.sqrt(2.0 * mu) * math.sqrt(energy)
    a, b = extension.small_r_pairs
    sing_minus, sing_plus, reg_plus, cond = per_order(_waves, extension.orders, lam).T[..., None]
    with np.errstate(all="ignore"):
        singular = a / sing_minus
        regular = (b - singular * sing_plus) / reg_plus
    # a singular amplitude past the float range carries its regular one with it
    if not np.isfinite(regular).all():
        raise OverflowError(f"matched amplitudes leave the float range at E = {energy!r}, mu = {mu!r}")
    return regular, singular, cond


def scattering_eigenstate(extension: ExtensionMatrix, energy: float, source: int,
                          mu: float | None = None) -> MixingSolution:
    """Match the energy-E eigenstate whose small-r behavior is phi^(source).

    Per channel the unknown pair (A_N, A_S) solves the lower-triangular
    system A_S c_-^S = c_-^phi, A_N c_+^N + A_S c_+^S = c_+^phi; row one is
    exact because only the singular wave carries r^(-1/2-nu). The remaining
    freedom is a domain element of the closed symmetric operator, which
    vanishes faster at the origin and does not alter the matching. The
    result is column source of mixing_matrix, at the extension's own mu.
    """
    _check_source(extension, source)
    regular, singular, cond = _matching(extension, energy, mu)
    return MixingSolution(energy=energy, source_index=source,
                          source_channel=extension.channels[source],
                          amplitudes=tuple(zip(regular[:, source], singular[:, source])),
                          condition_number=float(cond.max()))


def mixing_matrix(extension: ExtensionMatrix, energy: float,
                  mu: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The energy-E eigenstates of every source, matched in one step.

    Returns (regular, singular) n x n arrays indexed [channel, source]; the
    column for a source is exactly scattering_eigenstate's amplitudes for
    it. Off-diagonal entries are the angular-momentum mixing: they vanish
    for diagonal U and not otherwise. The mass is the extension's own.
    """
    regular, singular, _ = _matching(extension, energy, mu)
    return regular, singular


def _unmixed(entries: np.ndarray) -> np.ndarray:
    """Per channel idx, True iff no |U| off the diagonal in row or column idx exceeds 1e-10.

    The one unmixed rule, formed once per U as ExtensionMatrix.unmixed: bound_states,
    is_angular_momentum_conserving and is_dirac_consistent read that mask.
    """
    off = np.abs(entries)
    off.flat[:: len(off) + 1] = 0.0
    # row idx of max(|U|, |U|^T) holds row idx and column idx of |U|
    return np.maximum(off, off.T).max(axis=1) <= _DIAGONAL_TOL


def is_angular_momentum_conserving(extension: ExtensionMatrix) -> bool:
    """True iff every channel is unmixed (bound_states' rule), so J^2 and J_z are conserved.

    Rotation invariance needs J_x and J_y too: U a scalar on each (j, kappa) multiplet,
    e^(i theta_0) (+) e^(i theta_1) I_3 at eg = 1/2 and e^(i theta) I at eg >= 1. The Dirac
    family is one; a diagonal U with distinct j = 1 phases passes here but is not invariant.
    """
    return bool(extension.unmixed.all())


def _dirac_value(nu: float) -> complex:
    # c_- of phi_- is the exact conjugate of c_- of phi_+, as K_nu(conj z) = conj K_nu(z)
    c = small_arg_coeffs("DEF+", nu, _deficiency_arg(+1, 1.0)).c_minus
    return -c / c.conjugate()


def dirac_consistent_value(nu: float) -> complex:
    """Diagonal entry that removes the singular wave from every eigenstate.

    Solves c_-(DEF+) + U_d c_-(DEF-) = 0 for U_d; the two coefficients are
    conjugates, so |U_d| = 1. Analytically this is -e^{i pi nu / 2}, but the
    value returned comes from the solve, tabled once per order by per_order.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    return complex(per_order(_dirac_value, (nu,))[0])


@functools.lru_cache(maxsize=64)
def _dirac_forbidden(params: ModelParams) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Indices and orders of the channels whose singular branch dirac's exponent verdict refuses."""
    if params.model != "monopole":
        raise ValueError(f"the Dirac verdict reads each channel's kappa; model {params.model!r} has none")
    from . import dirac  # imported here: only this verdict and dirac-check read it
    chans = canonical_channels(params)
    idx = tuple(i for i, ch in enumerate(chans) if not dirac.lower_exponent(ch.kappa, "S").normalizable)
    return idx, tuple(chans[i].nu for i in idx)


def is_dirac_consistent(extension: ExtensionMatrix) -> bool:
    """True iff no domain function of U carries a singular wave the Dirac equation forbids.

    The wave r^(-1/2 - nu) is forbidden in channel ch when dirac.lower_exponent(kappa, "S") is
    not normalizable: the j = 1 triplet at eg = 1/2, no channel at eg >= 1. Row ch of A (small_r_pairs) is
    lead_ch e_ch + conj(lead_ch) U[:, ch]^T; over conj(lead_ch) its entries are U[src, ch] off
    the diagonal and U[ch, ch] - dirac_consistent_value(nu_ch) on it. So it vanishes exactly
    when column ch of U is that value times e_ch, and unitarity clears row ch too: ch unmixed
    (bound_states' rule), its diagonal within the same 1e-10 of the value. Reading U, not A,
    keeps the verdict free of the deficiency scale. Inverse-square channels have no kappa.
    """
    forbidden, orders = _dirac_forbidden(extension.params)
    ents, unmixed = extension.entries, extension.unmixed
    return all(unmixed[idx] and abs(ents[idx, idx] - u_d) <= _DIAGONAL_TOL
               for idx, u_d in zip(forbidden, per_order(_dirac_value, orders)))
