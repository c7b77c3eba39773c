"""Boundary-condition matrices on a small sphere and the finite-difference oracle.

Removing the ball r < r0 leaves an annulus [r0, R] on which every
self-adjoint boundary condition at r0 takes the Robin form

    (d_r psi)(r0) = g psi(r0),        g Hermitian across channels.

The extension family of the full problem induces such a g through the
transfer matrix a(r) built from the deficiency profiles:

    a[src, ch](r) = conj( phi_+^ch(r) delta(src, ch) + U[src, ch] phi_-^ch(r) ),
    g(r0) = a(r0)^(-1) (da/dr)(r0).

Each channel profile is normalized to unit squared norm over the exterior
region r' >= r0, the inner product the annulus actually carries. That
choice makes the channel Wronskian weight r0^2 (phi_+' phi_- - phi_+ phi_-')
a channel-independent constant, which is exactly why the induced g comes
out Hermitian for every unitary U; with any channel-dependent weight the
off-diagonal blocks would not close. Hermiticity is still enforced as a
postcondition check rather than assumed. The map is invertible: u_from_g
recovers U from a Hermitian g with the same profiles.

The finite-difference spectrum is the oracle. Over singular channels
(0 < nu < 1) it reads g as the link value of an extension, with
params.deficiency_scale: it recovers U, turns U into the small-r
coefficients of the extension's domain (origin_pairs) and solves the
extension's own problem on [0, R] (see assemble_radial_hamiltonian). A
Robin condition held fixed at r0 would instead solve an annulus problem
whose eigenvalues differ from the extension's by a relative r0^(2 - 2 nu).
The oracle shares the link-map profiles and the small-r expansion with
the extension theory; it never uses the bound-state formulas, and it
never evaluates K_nu at a bound-state wavenumber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channels import ChannelSpec, ModelParams, per_order
from .extensions import ExtensionMatrix, origin_pairs, unitarity_defect
from .specfun import bessel_k_complex

__all__ = [
    "AnnulusGrid",
    "BoundaryConditionMatrix",
    "FluxReport",
    "HermiticityError",
    "LinkBreakdownError",
    "RadialHamiltonian",
    "ScanRow",
    "TransferMatrix",
    "a_matrix",
    "assemble_radial_hamiltonian",
    "boundary_flux",
    "diagonal_link_value",
    "exterior_tail_norm",
    "g_from_u",
    "oracle_spectrum",
    "origin_pairs",
    "r0_limit_scan",
    "u_from_g",
]

_HERMITICITY_TOL = 1e-9
_BREAKDOWN_TOL = 1e-6
_COND_LIMIT = 1e12


class HermiticityError(ValueError):
    """Boundary data or an operator failed the 1e-9 Hermiticity gate.

    The CLI reports it as a Hermiticity violation (exit 3).
    """


class LinkBreakdownError(ArithmeticError):
    """The link map or its inverse left working precision at this radius.

    The CLI reports it as a unitarity or Hermiticity violation (exit 3).
    """


@dataclass(frozen=True)
class BoundaryConditionMatrix:
    """Hermitian Robin data g at radius r0 over an ordered channel list.

    On the annulus g is the Robin condition (d_r psi)(r0) = g psi(r0). Over
    singular channels the oracle reads it as the link value of the
    extension that induces it, with params.deficiency_scale (see
    assemble_radial_hamiltonian).

    validate=False skips the Hermiticity gate; it exists only so tests can
    probe the downstream guards with deliberately broken input.
    """

    r0: float
    channels: tuple[ChannelSpec, ...]
    entries: np.ndarray
    validate: bool = True

    def __post_init__(self):
        if not self.r0 > 0.0:
            raise ValueError("r0 must be positive")
        ents = np.array(self.entries, dtype=complex)
        n = len(self.channels)
        if ents.shape != (n, n):
            raise ValueError(f"entries shape {ents.shape} does not match {n} channels")
        if self.validate and self.defect_of(ents) > _HERMITICITY_TOL:
            raise HermiticityError(f"boundary matrix is not Hermitian: defect "
                                   f"{self.defect_of(ents):.3e} exceeds {_HERMITICITY_TOL:.1e}")
        ents.flags.writeable = False
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "channels", tuple(self.channels))

    @staticmethod
    def defect_of(entries: np.ndarray) -> float:
        return float(np.abs(entries - entries.conj().T).max())

    @property
    def hermiticity_defect(self) -> float:
        return self.defect_of(self.entries)


@dataclass(frozen=True)
class AnnulusGrid:
    """Uniform grid on [r0, R] with n interior points, h = (R - r0)/(n + 1).

    A Robin boundary keeps the r0 node as an unknown (ghost-point
    elimination), a Dirichlet boundary drops it; the outer wall at R is
    always Dirichlet. The extension reading over singular channels puts
    its first node at (r0 + h)/16 instead (see assemble_radial_hamiltonian).
    """

    r0: float
    R: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.r0 < self.R:
            raise ValueError("need 0 < r0 < R")
        if self.n < 100:
            raise ValueError(f"n must be at least 100, got {self.n}")

    @property
    def h(self) -> float:
        return (self.R - self.r0) / (self.n + 1)

    def validate_for(self, lambda_max: float) -> None:
        """Check the resolution rule h <= min(0.01/lambda_max, r0/10).

        Satisfying it resolves both the oscillation scale and the boundary
        layer at r0. It is deliberately not enforced at assembly: standard
        bound-state runs (r0 = 1e-3, R = 40, n = 8000) violate the r0/10
        clause yet meet their stated accuracy; callers wanting guaranteed
        spectral resolution opt in here.
        """
        limit = min(0.01 / lambda_max, self.r0 / 10.0)
        if self.h > limit:
            raise ValueError(f"grid spacing h = {self.h:.3e} exceeds resolution "
                             f"limit {limit:.3e} for lambda_max = {lambda_max}")


@dataclass(frozen=True)
class TransferMatrix:
    """The matrix a(r) of conjugated, exterior-normalized domain profiles."""

    r: float
    entries: np.ndarray
    condition_number: float


class FluxReport(NamedTuple):
    per_channel: np.ndarray
    total: complex


def exterior_tail_norm(nu: float, r0: float, scale: float) -> float:
    """Squared norm of K_nu((1 -+ i) s r) over the exterior region r >= r0.

    Closed form from the Wronskian of the two conjugate profiles: with
    a = (1 - i) s and b = (1 + i) s,

        integral_{r0}^inf t |K_nu(a t)|^2 dt
            = r0 [ b K_nu(a r0) K_nu'(b r0) - a K_nu'(a r0) K_nu(b r0) ]
              / (a^2 - b^2),

    real and positive, identical for both signs. The same formula at r0 = 0
    reproduces the whole-line norm pi / (8 s^2 cos(pi nu / 2)).
    """
    a = complex(1.0, -1.0) * scale
    return _tail_norm(r0, a, *_k_pair(nu, a * r0))


def _k_pair(nu: float, z: complex) -> tuple[complex, complex]:
    """K_nu(z) and K_nu'(z), the derivative by the recurrence of bessel_k_complex_deriv.

    K_nu(conj z) = conj K_nu(z) exactly, so the pair at conj z is the conjugate pair.
    """
    k = bessel_k_complex(nu, z)
    return k, (nu / z) * k - bessel_k_complex(nu + 1.0, z)


def _tail_norm(r0: float, a: complex, kva: complex, kda: complex) -> float:
    """exterior_tail_norm from K_nu(a r0) and K_nu'(a r0).

    K_nu(conj z) = conj K_nu(z), so the b = conj(a) values are their conjugates.
    """
    b = a.conjugate()
    num = r0 * (b * kva * kda.conjugate() - a * kda * kva.conjugate())
    val = num / (a * a - b * b)
    out = val.real
    if not out > 0.0:
        raise ArithmeticError(f"exterior norm came out nonpositive ({val}) at r0 = {r0}")
    return out


def _channel_profiles(channels: Sequence[ChannelSpec], r: float,
                      scale: float) -> tuple[np.ndarray, ...]:
    """Exterior-normalized phi_+- values and radial derivatives per channel.

    The profiles are the full K_nu(. r)/sqrt(r), so the derivatives carry
    the -1/(2r) prefactor term alongside the Macdonald recurrence.
    """
    a = complex(1.0, -1.0) * scale
    rm_half = r ** (-0.5)

    def profile(nu):
        kva, kda = _k_pair(nu, a * r)
        c = 1.0 / math.sqrt(_tail_norm(r, a, kva, kda))
        return c * rm_half * kva, c * rm_half * (a * kda - kva / (2.0 * r))

    vp, dp = np.array(per_order(channels, profile)).T
    # the (1 + i) s profile is the conjugate of the (1 - i) s one
    return vp, vp.conj(), dp, dp.conj()


def _transfer(extension: ExtensionMatrix, r: float, scale: float | None) -> tuple[TransferMatrix, np.ndarray]:
    """a(r) and (da/dr)(r) from one evaluation of the channel profiles."""
    if not r > 0.0:
        raise ValueError("r must be positive")
    if scale is None:
        scale = extension.params.deficiency_scale
    vp, vm, dp, dm = _channel_profiles(extension.channels, r, scale)
    entries = np.conj(np.diag(vp) + extension.entries * vm[None, :])
    cond = float(np.linalg.cond(entries))
    if not cond < _COND_LIMIT:
        raise ArithmeticError(f"transfer matrix singular at r = {r}: condition number {cond:.3e}")
    deriv = np.conj(np.diag(dp) + extension.entries * dm[None, :])
    return TransferMatrix(r=r, entries=entries, condition_number=cond), deriv


def a_matrix(extension: ExtensionMatrix, r: float, scale: float | None = None) -> TransferMatrix:
    """Transfer matrix a(r); rows index the source, columns the channel.

    Entry [src, ch] is the conjugate of phi_+^ch(r) delta + U[src, ch]
    phi_-^ch(r), each channel profile normalized over the exterior of r.
    """
    return _transfer(extension, r, scale)[0]


def g_from_u(extension: ExtensionMatrix, r0: float, scale: float | None = None) -> BoundaryConditionMatrix:
    """Induced Robin matrix g(r0) = a(r0)^(-1) (da/dr)(r0).

    The derivative is assembled from the Macdonald recurrence
    K_nu'(z) = (nu / z) K_nu(z) - K_(nu+1)(z), never finite differences.
    Hermiticity of the result is the consistency theorem for the link;
    a defect above 1e-6 signals numerical breakdown (r0 too small for
    working precision) and raises LinkBreakdownError instead of returning
    garbage.
    """
    amat, a_deriv = _transfer(extension, r0, scale)
    g = np.linalg.solve(amat.entries, a_deriv)
    defect = BoundaryConditionMatrix.defect_of(g)
    if defect > _BREAKDOWN_TOL:
        raise LinkBreakdownError(f"link map lost Hermiticity at r0 = {r0}: defect {defect:.3e}; "
                                 "the radius is below the working-precision breakdown point")
    return BoundaryConditionMatrix(r0=r0, channels=extension.channels, entries=g)


def diagonal_link_value(nu: float, theta: float, r0: float, scale: float) -> complex:
    """Scalar link g for a single channel with diagonal phase e^{i theta}.

    The normalization constant cancels in the logarithmic derivative, so
    this is the ratio (phi_+' + e^{i theta} phi_-') / (phi_+ + e^{i theta} phi_-)
    conjugated, the 1x1 case of g_from_u. Works for any subcritical
    channel of any model, which is how the inverse-square runs are wired.
    """
    a = complex(1.0, -1.0) * scale
    b = complex(1.0, 1.0) * scale
    u = complex(math.cos(theta), math.sin(theta))
    kva, kda = _k_pair(nu, a * r0)
    val = kva + u * kva.conjugate()
    der = a * kda + u * b * kda.conjugate()
    if abs(val) == 0.0:
        raise ArithmeticError(f"transfer value vanished at r0 = {r0}")
    # the profile is K/sqrt(r); its prefactor contributes -1/(2 r0) to the log-derivative
    return complex(np.conj(der) / np.conj(val)) - 0.5 / r0


def u_from_g(g: BoundaryConditionMatrix, scale: float) -> np.ndarray:
    """The extension matrix U whose link value at g.r0 is g; inverse of g_from_u.

    Conjugating a(r0) g = (da/dr)(r0) gives

        (diag(phi_+) + U diag(phi_-)) conj(g) = diag(phi_+') + U diag(phi_-'),

    one linear solve for U with the same exterior-normalized profiles.
    The Hermitian part of g is read, and every Hermitian g maps to a
    unitary U. In working precision the diagonal of
    diag(phi_-') - diag(phi_-) conj(g) cancels down to a relative r0^(2 nu)
    as r0 -> 0, and the rounding of g grows by that factor. When that
    rounding bound or the unitarity defect of U exceeds 1e-6, the radius is
    past working precision and LinkBreakdownError is raised; a single
    channel's U is unimodular by construction, so only the bound sees it.
    """
    vp, vm, dp, dm = _channel_profiles(g.channels, g.r0, scale)
    gc = 0.5 * (g.entries.T + g.entries.conj())  # conj of the Hermitian part
    lhs = np.diag(dm) - vm[:, None] * gc
    rhs = vp[:, None] * gc - np.diag(dp)
    try:
        u = np.linalg.solve(lhs.T, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise LinkBreakdownError(f"link map is not invertible at r0 = {g.r0}: {exc}") from exc
    gap = np.maximum(np.abs(np.diag(lhs)), np.finfo(float).tiny)
    rounding = np.finfo(float).eps * float(np.max(np.abs(vm * np.diag(gc)) / gap))
    defect = unitarity_defect(u)
    if max(rounding, defect) > _BREAKDOWN_TOL:
        raise LinkBreakdownError(f"extension matrix recovered at r0 = {g.r0} is not reliable: "
                                 f"unitarity defect {defect:.3e}, rounding bound {rounding:.3e}; "
                                 "the radius is below the working-precision breakdown point")
    return u


@dataclass(frozen=True)
class RadialHamiltonian:
    """Discretized coupled-channel operator, banded Hermitian, node-major.

    Two discretizations share this form (see assemble_radial_hamiltonian):

      * the extension reading, over singular channels with Robin data: the
        unknowns are sqrt(m_i) w_i with w = r^(nu - 1/2) u, u = r psi, and
        m_i the lumped weight of node i, so that the squared norm of a
        vector is the discrete integral of |u|^2. The first node sits
        near the origin and carries the extension's condition;
      * otherwise, the operator on u = r psi: per channel
        -(1/2 mu) d^2/dr^2 + coupling/(2 mu r^2), with the Robin row
        coupling channels through B = I/r0 + g at the r0 node (ghost-point
        elimination, then the exact row/column rescaling by 1/sqrt(2) that
        restores symmetry without moving eigenvalues).

    bands holds the lower band form used by the eigensolver; boundary_block
    keeps the full first-node block so that a deliberately broken g remains
    observable.
    """

    bands: np.ndarray
    boundary_block: np.ndarray | None
    n_channels: int
    radii: np.ndarray
    grid: AnnulusGrid
    mu: float

    @property
    def size(self) -> int:
        return self.bands.shape[1]

    def hermiticity_defect(self) -> float:
        if self.boundary_block is None:
            return 0.0
        return float(np.abs(self.boundary_block - self.boundary_block.conj().T).max())

    def norm_upper_bound(self) -> float:
        # infinity norm from the band representation (counts each symmetric pair)
        total = np.abs(self.bands[0]).copy()
        for d in range(1, self.bands.shape[0]):
            mags = np.abs(self.bands[d, : self.size - d]) if d < self.size else np.zeros(0)
            total[d:] += mags
            total[: self.size - d] += mags
        return float(total.max())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.bands[0] * x
        for d in range(1, self.bands.shape[0]):
            if d >= self.size:
                break
            band = self.bands[d, : self.size - d]
            y[d:] += band * x[: self.size - d]
            y[: self.size - d] += np.conj(band) * x[d:]
        if self.boundary_block is not None:
            # the band form stores only the lower triangle of the r0-node block;
            # re-apply the block exactly so a non-Hermitian injection acts as built
            nb = self.n_channels
            y[:nb] += self.boundary_block @ x[:nb] - self._band_block() @ x[:nb]
        return y

    def _band_block(self) -> np.ndarray:
        nb = self.n_channels
        block = np.zeros((nb, nb), dtype=complex)
        for d in range(0, nb):
            for col in range(nb - d):
                block[col + d, col] = self.bands[d, col]
        return block + np.tril(block, -1).conj().T

    def dense(self) -> np.ndarray:
        out = np.zeros((self.size, self.size), dtype=complex)
        idx = np.arange(self.size)
        out[idx, idx] = self.bands[0]
        for d in range(1, self.bands.shape[0]):
            if d >= self.size:
                break
            band = self.bands[d, : self.size - d]
            out[idx[d:], idx[: self.size - d]] = band
            out[idx[: self.size - d], idx[d:]] = np.conj(band)
        if self.boundary_block is not None:
            nb = self.n_channels
            out[:nb, :nb] = self.boundary_block
        return out


def assemble_radial_hamiltonian(params: ModelParams, grid: AnnulusGrid,
                                g: BoundaryConditionMatrix | None,
                                channels: Sequence[ChannelSpec],
                                enforce_hermitian: bool = True) -> RadialHamiltonian:
    """Finite-difference operator of the coupled radial problem.

    g is the Robin data at r0 (None means a Dirichlet wall there, the
    plain box); the outer wall at R is always Dirichlet. The assembled
    matrix is Hermitian exactly when g is; non-Hermitian g is refused
    unless enforce_hermitian=False, the hook stress tests use to verify
    the defect actually propagates into the discrete operator.

    When every channel is singular (0 < nu < 1), g is read as the link
    value of the extension that induces it, with params.deficiency_scale,
    and the extension's own problem is solved on [0, R]:

      * U = u_from_g(g) and (A, B) = origin_pairs(U); a radius past
        working precision raises LinkBreakdownError;
      * in w = r^(nu - 1/2) u the radial equation has no potential,
        -(1/2 mu)(r^(1 - 2 nu) w')' = E r^(1 - 2 nu) w, and the extension is
        the regular condition (r^(1 - 2 nu) w')(0) = Q w(0) with
        Q = diag(2 nu) B A^-1;
      * the nodes are r1/16, r1 = r0 + h, and the grid's n interior
        points; each cell's coupling is the exact reciprocal integral of
        r^(2 nu - 1), so the zero-energy solutions a + b r^(2 nu) pass the
        boundary layer exactly, and each node's weight is the exact
        integral of r^(1 - 2 nu) over its half-cells (from the origin for
        the first node), folded in by symmetric scaling;
      * the condition reaches the first node through the massless
        sub-cell [0, r1/16], whose coupling D turns it into the boundary
        term (Q^-1 + D^-1)^-1 = diag(2 nu) B (D A + diag(2 nu) B)^-1 D.

    The sub-cell keeps that term bounded by D even where Q is infinite,
    as for the Dirac-consistent value, where a node at the origin itself
    would carry an entry of order 1e16 and no digit of the spectrum would
    survive. At r1/16 the missing mass moves criterion 8's errors by
    under 10% from those of a node at the origin, and D exceeds the first
    full cell's coupling about 16^(2 nu) times (159 for nu = sqrt(2) - 1/2).
    A node at r0 as well would add a cell of width r0 << h whose coupling
    inflates the operator's norm by about (h / r0)^2. The anti-Hermitian
    part of g enters the first-node block as (g - g^dag)/(2 mu h), its size
    in the ghost-point row, so broken data stays visible.

    Otherwise (Dirichlet wall, or a regular or overcritical channel in the
    set) the three-point rows on the grid's nodes apply: u = r psi with
    the coupling/(2 mu r^2) potential, and a Robin row at the r0 node.
    """
    channels = tuple(channels)
    n_ch = len(channels)
    if n_ch == 0:
        raise ValueError("need at least one channel")
    mu = params.mu
    h = grid.h
    robin = g is not None
    if robin:
        # the extension reading takes the orders of U from g and those of the cells from channels
        if g.channels != channels:
            raise ValueError(f"boundary matrix channels ({len(g.channels)}) do not match "
                             f"the {n_ch} channels given")
        if abs(g.r0 - grid.r0) > 1e-12 * grid.r0:
            raise ValueError(f"boundary matrix radius {g.r0} does not match grid r0 {grid.r0}")
        defect = g.hermiticity_defect
        if enforce_hermitian and defect > _HERMITICITY_TOL:
            raise HermiticityError(f"refusing non-Hermitian boundary data: defect {defect:.3e}")

    nodes = grid.r0 + h * np.arange(grid.n + 2)  # r0, the n interior points, R
    block = None
    if robin and all(0.0 < ch.nu_sq < 1.0 for ch in channels):
        nodes[0] = nodes[1] / 16.0
        radii = nodes[:-1]
        ends = np.concatenate(([0.0], nodes))
        # channel-major (n_ch, node) arrays: numpy runs fast along the long axis
        t = 2.0 * np.array([ch.nu for ch in channels])[:, None]
        # cell i spans [ends[i], ends[i + 1]]: the sub-cell at the origin first, the wall's last
        cell = t / np.diff(ends ** t)
        # node j weighs [mid of its left cell, mid of its right cell], node 0 from the origin;
        # mass is 2 mu times that weight
        mids = (0.5 * (ends[2:] + ends[1:-1])) ** (2.0 - t)
        mass = mids.copy()
        mass[:, 1:] -= mids[:, :-1]
        mass *= 2.0 * mu / (2.0 - t)
        onsite = cell[:, 1:].copy()
        onsite[:, 1:] += cell[:, 1:-1]
        onsite /= mass
        hops = -cell[:, 1:-1] / np.sqrt(mass[:, :-1] * mass[:, 1:])
        onsite, hops = onsite.T, hops.T
        a, b = origin_pairs(u_from_g(g, params.deficiency_scale), channels, params.deficiency_scale)
        # (Q^-1 + D^-1)^-1 for Q = diag(2 nu) B A^-1 and D the sub-cell's coupling, A never inverted
        inner = cell[:, 0]
        b = t * b
        edge = b @ np.linalg.solve(inner[:, None] * a + b, np.diag(inner))
        edge /= np.sqrt(mass[:, :1] * mass[:, 0])
        anti = 0.5 * (g.entries - g.entries.conj().T)
        block = np.diag(onsite[0]) + 0.5 * (edge + edge.conj().T) + anti / (mu * h)
    else:
        radii = nodes[:-1] if robin else nodes[1:-1]
        coupling = np.array([ch.coupling for ch in channels])
        kin = 1.0 / (mu * h * h)
        onsite = kin + coupling[None, :] / (2.0 * mu * radii[:, None] ** 2)
        hops = np.full((radii.size - 1, n_ch), -0.5 * kin)
        if robin:
            b_full = np.eye(n_ch, dtype=complex) / grid.r0 + g.entries
            block = np.diag(onsite[0]) + b_full / (mu * h)
            # symmetry-restoring rescale of the r0 node makes its outward hop sqrt(2) * hop
            hops[0] *= math.sqrt(2.0)

    size = radii.size * n_ch
    bands = np.zeros((n_ch + 1, size), dtype=complex)
    # node-major layout: component index = node * n_ch + channel
    bands[0] = onsite.reshape(-1)
    # node-to-node coupling, diagonal in channel
    bands[n_ch, : size - n_ch] = hops.reshape(-1)
    if block is not None:
        for d in range(0, n_ch):
            for col in range(n_ch - d):
                bands[d, col] = block[col + d, col]
        block.flags.writeable = False

    bands.flags.writeable = False
    radii.flags.writeable = False
    return RadialHamiltonian(bands=bands, boundary_block=block, n_channels=n_ch,
                             radii=radii, grid=grid, mu=mu)


def _band_eigenvectors(bands: np.ndarray, vals: np.ndarray, norm: float) -> np.ndarray:
    """One unit eigenvector per eigenvalue of the lower band form, by inverse iteration.

    H - lambda I is factored once in LAPACK's general band form (gbtrf,
    O(N kd^2)) and solved twice from a fixed start vector. An exact zero
    pivot moves lambda by eps ||H||. Degenerate eigenvalues get the same
    vector, which is all the residual check needs.
    """
    import scipy.linalg

    kd, size = bands.shape[0] - 1, bands.shape[1]
    # general band storage: H[i, j] sits in row 2 kd + i - j; the top kd rows take the LU's fill-in
    ab = np.zeros((3 * kd + 1, size), dtype=complex)
    ab[2 * kd] = bands[0].real  # the levels come from the real diagonal too (_schur_levels)
    for d in range(1, kd + 1):
        ab[2 * kd + d, : size - d] = bands[d, : size - d]
        ab[2 * kd - d, d:] = np.conj(bands[d, : size - d])
    gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    start = np.ones(size, dtype=complex)
    vecs = np.empty((size, len(vals)), dtype=complex)
    for i, lam in enumerate(vals):
        for shift in (lam, lam + np.finfo(float).eps * norm):
            shifted = ab.copy()
            shifted[2 * kd] -= shift
            lu, piv, info = gbtrf(shifted, kd, kd)
            if info == 0:
                break
        v = start
        for _ in range(2):
            v, _ = gbtrs(lu, kd, kd, v, piv)
            v /= np.linalg.norm(v)
        vecs[:, i] = v
    return vecs


def _schur_levels(operator: RadialHamiltonian, k: int, norm: float) -> np.ndarray:
    """k lowest eigenvalues of a coupled operator whose channels meet only at the first node.

    Past node 0 each channel c is its own real tridiagonal tail T_c, joined
    to the first-node block by the hop t_c. Haynsworth's inertia additivity
    then counts the eigenvalues below E in O(N):

        count(H - E) = sum_c count(T_c - E) + count(S(E)),
        S(E) = block - E - diag(|t_c|^2 G_c(E)),   G_c = [(T_c - E)^-1]_11.

    One gtsv solve (T_c - E) x = e_1 per distinct tail gives G_c = x_1 and
    G_c' = ||x||^2; channels of one order share their tail bit for bit.
    stebz gives each distinct tail's k lowest levels once: they supply the
    tail counts and, by Cauchy interlacing, the brackets
    lambda_(i - n_ch)(tails) <= lambda_i <= lambda_i(tails), which every
    count then narrows for all k levels at once. Level i is the root of
    f(E), the (i - P)-th eigenvalue of S(E) with P the tail levels below E:
    f falls with slope -(1 + sum_c |v_c|^2 |t_c|^2 G_c') <= -1, and it stays
    continuous across a tail level while i - P stays in range, because the
    pole there moves eigenvalues of S past it. Newton steps on f are
    safeguarded as in rtsafe: a step that leaves the bracket or fails to
    halve the step before last is replaced by bisection of the bracket. A
    level is taken only once the count brackets it within 2 eps ||H||, so
    a step shorter than eps ||H|| is stretched to that length. A bracket
    that closes on a tail level returns the level: that tail state is
    decoupled to working precision, as where LAPACK splits a tridiagonal
    at a zero off-diagonal. Every entry is read from the bands (the
    first-node block from its lower triangle, the diagonal's real part), as
    LAPACK's band solver reads them.
    """
    from scipy.linalg import get_lapack_funcs

    bands, n_ch = operator.bands, operator.n_channels
    size = operator.size
    if bands.shape[0] != n_ch + 1 or size % n_ch:
        raise ValueError(f"band form of shape {bands.shape} is not node-major over {n_ch} channels")
    if k > size:
        raise ValueError("k exceeds matrix dimension")
    for d in range(1, n_ch):
        if np.any(bands[d, n_ch - d: size - d]):
            raise ValueError("inter-channel band entries past the first node: "
                             "the channels must meet only in the first-node block")
    block = operator._band_block()
    diag = bands[0].real.reshape(-1, n_ch)
    # the tails' hops enter only through |t|^2: a diagonal unitary makes them real and positive
    hops = np.abs(bands[n_ch, : size - n_ch]).reshape(-1, n_ch)
    couple = hops[0] ** 2
    tails, which = [], []
    for c in range(n_ch):
        tail = (np.ascontiguousarray(diag[1:, c]), np.ascontiguousarray(hops[1:, c]))
        same = [t for t, (a, e) in enumerate(tails)
                if np.array_equal(a, tail[0]) and np.array_equal(e, tail[1])]
        which.append(same[0] if same else len(tails))
        if not same:
            tails.append(tail)
    which = np.array(which)
    length = diag.shape[0] - 1
    stebz, gtsv = get_lapack_funcs(("stebz", "gtsv"), (diag,))
    heevd = get_lapack_funcs("heevd", (block,))
    levels = []
    for a, e in tails:
        found, w, _, _, info = stebz(a, e, 2, 0.0, 0.0, 1, min(k, length), 0.0, "E")
        if info:
            raise ArithmeticError(f"tail bisection failed (stebz info {info})")
        levels.append(w[:found])
    # every channel's levels: while E < union[k - 1], each channel has fewer than k below E,
    # so the known levels count the tails exactly
    union = np.sort(np.concatenate([levels[t] for t in which]))
    rhs = np.zeros((length, 1))
    rhs[0] = 1.0
    known = set(union.tolist())

    tol = np.finfo(float).eps * norm
    lo, hi = np.full(k, -norm), np.full(k, norm)
    hi[: min(k, union.size)] = union[:k]
    below_bound = union[: max(0, k - n_ch)]
    lo[n_ch: n_ch + below_bound.size] = below_bound
    green, slope = np.empty(len(tails)), np.empty(len(tails))

    def probe(energy: float):
        # S(E)'s eigenpairs, the tail count P and the slope weights; narrows every bracket
        for t, (a, e) in enumerate(tails):
            x, info = gtsv(e, a - energy, e, rhs)[3:]
            if info:
                raise ArithmeticError(f"tail solve singular at E = {energy!r}")
            green[t] = x[0, 0]
            slope[t] = x[:, 0] @ x[:, 0]
        sig, vec, info = heevd(block - np.diag(energy + couple * green[which]), lower=1)
        if info:
            raise ArithmeticError(f"Schur complement eigensolve failed (heevd info {info})")
        tail_count = int(union.searchsorted(energy))
        below = tail_count + int(np.count_nonzero(sig < 0.0))
        lo[below:] = np.maximum(lo[below:], energy)
        hi[:below] = np.minimum(hi[:below], energy)
        return tail_count, sig, np.abs(vec) ** 2, couple * slope[which]

    vals = np.empty(k)
    energy = 0.5 * (lo[0] + hi[0])
    state = probe(energy)
    for i in range(k):
        # Newton from the last probe, near the level below: its first step may span the bracket
        step = older = 2.0 * (hi[i] - lo[i])
        for _ in range(200):
            tail_count, sig, weight, couple_slope = state
            j = i - tail_count
            newton = sig[j] / (1.0 + weight[:, j] @ couple_slope) if 0 <= j < n_ch else np.inf
            target = energy + newton
            if hi[i] - lo[i] <= 2.0 * tol:
                break
            bisect = not lo[i] <= target <= hi[i] or abs(2.0 * newton) > abs(older)
            older, step = step, 0.5 * (lo[i] + hi[i]) - energy if bisect else newton
            # a step below tol proves nothing next to a tail level, where the slope is huge:
            # step past the root by tol instead, so the count closes the bracket
            if abs(step) < tol:
                step = math.copysign(tol, step)
            energy += step
            if energy in known:
                energy = np.nextafter(energy, lo[i])
            state = probe(energy)
        else:
            raise ArithmeticError(f"Schur-Newton iteration for level {i} did not converge")
        # a bracket that closed on a tail level: that state is decoupled to working precision
        # otherwise the last Newton target, which rounding can leave just outside the bracket
        inside = union[(union >= lo[i]) & (union <= hi[i])]
        vals[i] = inside[0] if inside.size else min(max(target, lo[i]), hi[i])
    return np.sort(vals)


def oracle_spectrum(operator, k: int) -> np.ndarray:
    """k lowest eigenvalues of a Hermitian operator, with residual checks.

    Accepts either a dense Hermitian ndarray or a RadialHamiltonian. A
    single-channel operator is tridiagonal and goes to eigh_tridiagonal. In
    a coupled one the channels meet only in the first-node block, and the
    k lowest eigenvalues come from a first-node Schur complement
    (_schur_levels): an O(N) inertia count per trial energy, bisection
    and Newton, where LAPACK's band reduction costs O(N^2 kd). Banded
    inverse iteration then supplies one vector per eigenvalue, and those
    vectors exist only for the residual check. A dense operator goes to
    eigh. Every returned pair must satisfy ||H v - lambda v|| <= 1e-8 ||H||
    with H applied through the full boundary block, which guards against a
    silently wrong band assembly as much as against non-convergence.
    """
    # imported here: scipy.linalg costs about 0.26 s of start-up that only the eigensolve needs
    import scipy.linalg

    if k < 1:
        raise ValueError("k must be at least 1")
    if isinstance(operator, RadialHamiltonian):
        if operator.hermiticity_defect() > _HERMITICITY_TOL:
            raise HermiticityError("operator is not Hermitian; refusing to diagonalize")
        norm = operator.norm_upper_bound()
        try:
            if operator.bands.shape[0] == 2:
                vals, vecs = scipy.linalg.eigh_tridiagonal(
                    operator.bands[0].real, operator.bands[1, :-1].real,
                    select="i", select_range=(0, k - 1))
            else:
                vals = _schur_levels(operator, k, norm)
                vecs = _band_eigenvectors(operator.bands, vals, norm)
        except scipy.linalg.LinAlgError as exc:
            raise ArithmeticError(f"eigensolver failed to converge: {exc}") from exc
        for i in range(k):
            res = np.linalg.norm(operator.matvec(vecs[:, i].astype(complex)) - vals[i] * vecs[:, i])
            if not res <= 1e-8 * norm:  # a NaN residual fails too
                raise ArithmeticError(f"eigenpair residual {res:.3e} exceeds 1e-8 * ||H|| = {1e-8 * norm:.3e}")
        return vals[:k]
    H = np.asarray(operator)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("operator must be square")
    if float(np.abs(H - H.conj().T).max()) > _HERMITICITY_TOL * max(1.0, float(np.abs(H).max())):
        raise HermiticityError("operator is not Hermitian; refusing to diagonalize")
    if k > H.shape[0]:
        raise ValueError("k exceeds matrix dimension")
    try:
        vals, vecs = scipy.linalg.eigh(H, subset_by_index=(0, k - 1))
    except scipy.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigensolver failed to converge: {exc}") from exc
    norm = float(np.linalg.norm(H, np.inf))
    for i in range(k):
        res = np.linalg.norm(H @ vecs[:, i] - vals[i] * vecs[:, i])
        if res > 1e-8 * norm:
            raise ArithmeticError(f"eigenpair residual {res:.3e} exceeds 1e-8 * ||H|| = {1e-8 * norm:.3e}")
    return vals[:k]


def boundary_flux(g: BoundaryConditionMatrix, psi_at_r0: np.ndarray) -> FluxReport:
    """Radial probability flux through the r0 sphere for boundary data psi.

    With the Robin condition in force, the outward derivative is g psi, so
    the channel flux is psi_ch^* (g psi)_ch and the total is the quadratic
    form psi^dag g psi: real whenever g is Hermitian, which is the discrete
    statement that the boundary neither creates nor absorbs probability.
    """
    psi = np.asarray(psi_at_r0, dtype=complex)
    n = len(g.channels)
    if psi.shape != (n,):
        raise ValueError(f"state has shape {psi.shape}, expected ({n},)")
    per = np.conj(psi) * (g.entries @ psi)
    return FluxReport(per_channel=per, total=complex(per.sum()))


class ScanRow(NamedTuple):
    r0: float
    gmax: float
    offdiag_norm: float


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[ScanRow, ...]
    breakdown_r0: float | None = None


def r0_limit_scan(extension: ExtensionMatrix, r0_sequence: Sequence[float],
                  scale: float | None = None) -> ScanResult:
    """Track ||g(r0)||_max and the off-diagonal norm along shrinking r0.

    Finite entries in U force singular entries in g, so the max norm grows
    without bound; the scan records the empirical growth and stops at the
    first radius where the link map breaks down in working precision,
    reporting it in breakdown_r0.
    """
    rows: list[ScanRow] = []
    for r0 in r0_sequence:
        if not r0 > 0.0:
            raise ValueError("all scan radii must be positive")
        try:
            g = g_from_u(extension, r0, scale)
        except (ArithmeticError, ValueError):
            # either the explicit breakdown gate or the Hermiticity gate of the
            # boundary matrix itself; both mean the link left working precision
            return ScanResult(rows=tuple(rows), breakdown_r0=r0)
        ents = g.entries
        off = ents - np.diag(np.diag(ents))
        rows.append(ScanRow(r0=r0, gmax=float(np.abs(ents).max()),
                            offdiag_norm=float(np.abs(off).max())))
    return ScanResult(rows=tuple(rows))
