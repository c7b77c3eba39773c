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
postcondition check rather than assumed. The sums in a(r) cancel (for the
Dirac-consistent value down to a relative r^(2 nu)), so they are formed
from the plain K_nu values, and the normalization and the r^(-1/2)
prefactor multiply them afterwards. The map is invertible: u_from_g
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

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channels import ChannelSpec, ModelParams, per_order
from .extensions import ExtensionMatrix, _deficiency_arg, _own_param, origin_pairs, unitarity_defect
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
    "r0_limit_scan",
    "u_from_g",
]

_HERMITICITY_TOL = 1e-9
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
_BREAKDOWN_TOL = 1e-6
_COND_LIMIT = 1e12


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


@dataclass(frozen=True)
class BoundaryConditionMatrix:
    """Hermitian Robin data g at radius r0 over an ordered channel list.

    On the annulus g is the Robin condition (d_r psi)(r0) = g psi(r0). Over
    singular channels the oracle reads it as the link value of the
    extension that induces it, with params.deficiency_scale (see
    assemble_radial_hamiltonian).

    validate=False skips the Hermiticity gate; it exists only so tests can
    probe the gate of assemble_radial_hamiltonian with broken input.
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
        if self.validate and not self.defect_of(ents) <= _HERMITICITY_TOL:
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
    No resolution rule is imposed: the standard bound-state runs (r0 = 1e-3,
    R = 40, n = 8000) have h far above r0 and meet their stated accuracy.
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


@dataclass(frozen=True)
class TransferMatrix:
    """The matrix a(r) of conjugated, exterior-normalized domain profiles, and its K' part.

    a'(r) = derivative - entries / (2 r), never formed: g_from_u adds the
    -1/(2 r) to g's diagonal after the solve, as solve(a, a) is not exactly I.
    """

    r: float
    entries: np.ndarray
    derivative: np.ndarray
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
    reproduces the whole-line norm pi / (8 s^2 cos(pi nu / 2)). Read from the
    link map's table.
    """
    return float(per_order(_k_profile, (nu,), r0, scale)[0, 2].real)


def _k_pair(nu: float, z: complex) -> tuple[complex, complex]:
    """K_nu(z) and K_nu'(z), the derivative by the recurrence of bessel_k_complex_deriv.

    K_nu(conj z) = conj K_nu(z) exactly, so the pair at conj z is the conjugate pair.
    """
    k = bessel_k_complex(nu, z)
    return k, (nu / z) * k - bessel_k_complex(nu + 1.0, z)


def _k_profile(nu: float, r: float, scale: float) -> tuple[complex, complex, float, float]:
    """K_nu(a r), a K_nu'(a r), exterior_tail_norm and the weight c r^(-1/2) at one order.

    a = (1 - i) s, and c = norm^(-1/2) is the exterior normalization: the
    profile phi_+ is c r^(-1/2) K_nu(a r) and phi_- its conjugate, as
    K_nu(conj z) = conj K_nu(z). A NaN or infinite norm (a^2 - b^2
    overflows at huge s), or one below the normal float range (K_nu
    underflowed at large r), is past the float range: ArithmeticError. A
    nonpositive norm of normal size means its two terms cancelled past
    working precision (small r): LinkBreakdownError.
    """
    a = _deficiency_arg(+1, scale)
    b = a.conjugate()
    kva, kda = _k_pair(nu, a * r)
    val = r * (b * kva * kda.conjugate() - a * kda * kva.conjugate()) / (a * a - b * b)
    if not np.isfinite(val):
        raise ArithmeticError(f"exterior norm left the float range ({val}) at r0 = {r}, s = {scale!r}")
    if not val.real > 0.0:
        if abs(val) < np.finfo(float).tiny:
            raise ArithmeticError(f"exterior norm came out nonpositive ({val}) at r0 = {r}")
        raise LinkBreakdownError(f"exterior norm came out nonpositive ({val}) at r0 = {r}: "
                                 "the radius is below the working-precision breakdown point")
    return kva, a * kda, val.real, 1.0 / math.sqrt(val.real) * r ** (-0.5)


def _k_rows(channels: Sequence[ChannelSpec], r: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows K_nu(a r) and a K_nu'(a r), and the weight c r^(-1/2), per channel.

    The per_order table of _k_profile: built once per process for each
    channel set, radius and scale, whatever U reads it.
    """
    rows = per_order(_k_profile, tuple(ch.nu for ch in channels), r, scale).T
    return rows[:2], rows[3].real


def a_matrix(extension: ExtensionMatrix, r: float) -> TransferMatrix:
    """Transfer matrix a(r) and its K' part; rows index the source, columns the channel.

    Entry [src, ch] is the conjugate of phi_+^ch(r) delta + U[src, ch] phi_-^ch(r). The sums
    of K and of a K' values cancel, and are formed as one stack before the weight c r^(-1/2)
    (c the exterior normalization) scales their columns. cond(a) past 1e12 raises
    LinkBreakdownError.
    """
    if not r > 0.0:
        raise ValueError("r must be positive")
    rows, weight = _k_rows(extension.channels, r, extension.params.deficiency_scale)
    # conj(U conj(K)) = conj(U) K exactly, and the diagonal's conj(K) is added in place through
    # a strided view: the reshape is a view only because ExtensionMatrix stores U C-contiguous
    sums = extension.entries.conj() * rows[:, None, :]
    sums.reshape(2, -1)[:, :: weight.size + 1] += rows.conj()
    sums *= weight
    entries, deriv = sums
    # s[0] / s[-1] is what np.linalg.cond computes, without its wrapper's overhead
    s = np.linalg.svd(entries, compute_uv=False)
    cond = float(s[0] / s[-1]) if s[-1] else math.inf
    if not cond < _COND_LIMIT:
        raise LinkBreakdownError(f"transfer matrix singular at r = {r}: condition number {cond:.3e}")
    return TransferMatrix(r=r, entries=entries, derivative=deriv, condition_number=cond)


def g_from_u(extension: ExtensionMatrix, r0: float, scale: float | None = None) -> BoundaryConditionMatrix:
    """Induced Robin matrix g(r0) = a(r0)^(-1) (da/dr)(r0).

    One solve with a_matrix's two parts, a(r0) and its K' part, whose
    K_nu' values come from the Macdonald recurrence K_nu'(z) = (nu / z)
    K_nu(z) - K_(nu+1)(z), never finite differences; the r0^(-1/2)
    prefactor's -1/(2 r0) goes onto g's diagonal last, as in
    diagonal_link_value, its 1x1 case.
    Hermiticity of the result is the consistency theorem for the link;
    a defect above 1e-6 signals numerical breakdown (r0 too small for
    working precision) and raises LinkBreakdownError instead of returning
    garbage. The scale is the extension's own: a scale passed must equal it.
    """
    _own_param(extension, "deficiency_scale", scale)
    amat = a_matrix(extension, r0)
    g = np.linalg.solve(amat.entries, amat.derivative)
    g.flat[:: g.shape[0] + 1] -= 0.5 / r0
    defect = BoundaryConditionMatrix.defect_of(g)
    if not defect <= _BREAKDOWN_TOL:
        raise LinkBreakdownError(f"link map lost Hermiticity at r0 = {r0}: defect {defect:.3e}; "
                                 "the radius is below the working-precision breakdown point")
    return BoundaryConditionMatrix(r0=r0, channels=extension.channels, entries=g)


def diagonal_link_value(nu: float, theta: float, r0: float, scale: float) -> complex:
    """Scalar link g for a single channel with diagonal phase e^{i theta}.

    The 1x1 case of g_from_u: the ratio (phi_+' + e^{i theta} phi_-') /
    (phi_+ + e^{i theta} phi_-) conjugated, summed from the plain K_nu
    values, since the normalization and the r0^(-1/2) prefactor cancel,
    and the prefactor's -1/(2 r0) added last. Works for any subcritical
    channel of any model.
    """
    a, b = _deficiency_arg(+1, scale), _deficiency_arg(-1, scale)
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

    one linear solve for U with the exterior-normalized profiles of g_from_u.
    The Hermitian part of g is read, and every Hermitian g maps to a
    unitary U. In working precision the diagonal of
    diag(phi_-') - diag(phi_-) conj(g) cancels down to a relative r0^(2 nu)
    as r0 -> 0, and the rounding of g grows by that factor. When that
    rounding bound or the unitarity defect of U exceeds 1e-6 (or is NaN),
    the radius is past working precision and LinkBreakdownError is raised;
    a single channel's U is unimodular by construction, so only the bound
    sees it.
    """
    (k, kd), weight = _k_rows(g.channels, g.r0, scale)
    vp = weight * k
    # K / (2 r0) correctly rounded part by part: numpy's complex division multiplies by a
    # rounded reciprocal
    dp = weight * (kd - (k.real / (2.0 * g.r0) + 1j * (k.imag / (2.0 * g.r0))))
    vm, dm = vp.conj(), dp.conj()
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
    if not (rounding <= _BREAKDOWN_TOL and defect <= _BREAKDOWN_TOL):
        raise LinkBreakdownError(f"extension matrix recovered at r0 = {g.r0} is not reliable: "
                                 f"unitarity defect {defect:.3e}, rounding bound {rounding:.3e}; "
                                 "the radius is below the working-precision breakdown point")
    return u


@dataclass(frozen=True)
class RadialHamiltonian:
    """Discretized coupled-channel operator, node-major, whose channels meet only at node 0.

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

    block is the full n_ch x n_ch first-node block (diagonal for a
    Dirichlet wall). Past node 0 each channel is its own real tridiagonal
    tail: onsite[i] holds node i + 1, and hops[i] joins node i to node
    i + 1, so hops[0] links the block to the tails. Component index =
    node * n_ch + channel.
    """

    block: np.ndarray
    onsite: np.ndarray
    hops: np.ndarray
    radii: np.ndarray
    grid: AnnulusGrid

    @property
    def n_channels(self) -> int:
        return self.block.shape[0]

    @property
    def size(self) -> int:
        return self.n_channels + self.onsite.size

    def hermiticity_defect(self) -> float:
        # the tails are real symmetric, so only the block can carry a defect
        return float(np.abs(self.block - self.block.conj().T).max())

    def norm_upper_bound(self) -> float:
        """||H||_inf, the largest absolute row sum; NaN where any entry is."""
        hops, rows = np.abs(self.hops), np.abs(self.onsite)
        rows += hops
        rows[:-1] += hops[1:]
        first = np.abs(self.block).sum(axis=1) + hops[0]
        return float(np.maximum(first.max(), rows.max()))

    def matvec(self, x: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
        """H x for a vector of length size, or for each column of a (size, m) block.

        With shift, one value per column, H x - x shift: an eigenpair residual. The result is
        formed in place, with one scratch array for the products.
        """
        x = np.asarray(x)
        cols = x.reshape(-1, self.n_channels, 1 if x.ndim == 1 else x.shape[1])
        onsite, hops = self.onsite[..., None], self.hops[..., None]
        y = np.empty(cols.shape, dtype=np.result_type(x, self.block))
        scratch = np.empty_like(y)
        y[0] = self.block @ cols[0]
        np.multiply(onsite, cols[1:], out=y[1:])
        y[1:] += np.multiply(hops, cols[:-1], out=scratch[1:])
        y[:-1] += np.multiply(hops, cols[1:], out=scratch[:-1])
        if shift is not None:
            y -= np.multiply(cols, shift, out=scratch)
        return y.reshape(x.shape)

    def dense(self) -> np.ndarray:
        n_ch, size = self.n_channels, self.size
        out = np.zeros((size, size), dtype=complex)
        out[:n_ch, :n_ch] = self.block
        idx = np.arange(n_ch, size)
        out[idx, idx] = self.onsite.reshape(-1)
        out[idx, idx - n_ch] = out[idx - n_ch, idx] = self.hops.reshape(-1)
        return out


def assemble_radial_hamiltonian(params: ModelParams, grid: AnnulusGrid,
                                g: BoundaryConditionMatrix | None,
                                channels: Sequence[ChannelSpec]) -> RadialHamiltonian:
    """Finite-difference operator of the coupled radial problem.

    g is the Robin data at r0 (None means a Dirichlet wall there, the
    plain box); the outer wall at R is always Dirichlet. A g whose defect
    max|g - g^dag| exceeds 1e-9 (or is NaN) is refused with
    HermiticityError, whatever its validate flag said. That is the last of
    three gates on g: g_from_u's 1e-6 (LinkBreakdownError) and
    BoundaryConditionMatrix's 1e-9 (HermiticityError) come first, so only
    a g built with validate=False can fail it. Past it, the extension
    reading's block is Hermitian by construction, and the three-point
    rows carry g as it is.

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
    inflates the operator's norm by about (h / r0)^2. The extension is
    fixed by U alone, and the first-node block is diag(onsite) plus the
    Hermitian part of that boundary term: Hermitian by construction, so
    the anti-Hermitian rounding of g never reaches the operator.

    Cells or weights past the float range raise OverflowError. The arrays
    are formed in place: the operator keeps the n + 2 nodes and n_ch (2n +
    1) floats of onsite and hops, and assembly allocates besides only the
    cells and one scratch array, 2 n_ch (n + 2) floats, and the link map's
    n_ch x n_ch matrices. For one channel at n = 8000 that is 0.19 MB kept
    at a tracemalloc peak of 0.33 MB.

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
        if not defect <= _HERMITICITY_TOL:
            raise HermiticityError(f"refusing non-Hermitian boundary data: defect {defect:.3e}")

    nodes = np.arange(grid.n + 2, dtype=float)  # r0, the n interior points, R
    nodes *= h
    nodes += grid.r0
    if robin and all(0.0 < ch.nu_sq < 1.0 for ch in channels):
        nodes[0] = nodes[1] / 16.0
        radii = nodes[:-1]
        # channel-major (n_ch, node) arrays: numpy runs fast along the long axis. Each is formed
        # in place, and onsite and hops are kept: cell and one scratch array are all else
        t = 2.0 * np.array([ch.nu for ch in channels])[:, None]
        cell, scratch = np.empty((n_ch, grid.n + 2)), np.empty((n_ch, grid.n + 2))
        onsite, hops = np.empty((n_ch, grid.n + 1)), np.empty((n_ch, grid.n))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # cell i spans [node i - 1, node i], the sub-cell from the origin first and the wall's
            # last; its coupling is t / (r_i^t - r_(i-1)^t), and the origin's power is 0
            powers = np.power(nodes, t, out=scratch)
            cell[:, 0] = powers[:, 0]
            np.subtract(powers[:, 1:], powers[:, :-1], out=cell[:, 1:])
            np.divide(t, cell, out=cell)
            # node j weighs [mid of its left cell, mid of its right cell], node 0 from the origin;
            # mass is 2 mu times that weight
            mids = np.add(nodes[1:], nodes[:-1], out=scratch[0, :-1])
            mids = np.power(np.multiply(mids, 0.5, out=mids), 2.0 - t, out=onsite)
            mass = scratch[:, :-1]
            mass[:, 0] = mids[:, 0]
            np.subtract(mids[:, 1:], mids[:, :-1], out=mass[:, 1:])
            mass *= 2.0 * mu / (2.0 - t)
            pairs, firsts = np.multiply(mass[:, :-1], mass[:, 1:], out=hops), mass[:, :1] * mass[:, 0]
            # the products, not only the hops: an overflowed product flushes its hop to -0,
            # finite and wrong; a max is NaN where any entry is, and a zero cell lost its power
            # to overflow
            if not (0.0 < cell.min() and cell.max() < math.inf and pairs.max() < math.inf
                    and firsts.max() < math.inf):
                raise OverflowError(f"the cells or weights of the grid r0 = {grid.r0}, R = {grid.R}, "
                                    f"n = {grid.n} are past the float range")
            onsite[:, 0] = cell[:, 1]
            np.add(cell[:, 2:], cell[:, 1:-1], out=onsite[:, 1:])
            onsite /= mass
            np.divide(cell[:, 1:-1], np.sqrt(pairs, out=hops), out=hops)
            np.negative(hops, out=hops)
        onsite, hops = onsite.T, hops.T
        a, b = origin_pairs(u_from_g(g, params.deficiency_scale), channels, params.deficiency_scale)
        # (Q^-1 + D^-1)^-1 for Q = diag(2 nu) B A^-1 and D the sub-cell's coupling, A never inverted
        inner = cell[:, 0]
        b = t * b
        edge = b @ np.linalg.solve(inner[:, None] * a + b, np.diag(inner))
        edge /= np.sqrt(firsts)
        block = np.diag(onsite[0]) + 0.5 * (edge + edge.conj().T)
    else:
        radii = nodes[:-1] if robin else nodes[1:-1]
        coupling = np.array([ch.coupling for ch in channels])
        kin = 1.0 / (mu * h * h)
        onsite = kin + coupling[None, :] / (2.0 * mu * radii[:, None] ** 2)
        hops = np.full((radii.size - 1, n_ch), -0.5 * kin)
        block = np.diag(onsite[0]).astype(complex)
        if robin:
            block += (np.eye(n_ch, dtype=complex) / grid.r0 + g.entries) / (mu * h)
            # symmetry-restoring rescale of the r0 node makes its outward hop sqrt(2) * hop
            hops[0] *= math.sqrt(2.0)

    onsite = onsite[1:]
    for arr in (block, onsite, hops, radii):
        arr.flags.writeable = False
    return RadialHamiltonian(block=block, onsite=onsite, hops=hops, radii=radii, grid=grid)


class _Probe(NamedTuple):
    """One trial energy E of the Schur solve, where the tail count P stays below k.

    sig and slopes list S(E)'s eigenvalues, ascending, and the slopes 1 +
    sum_c |v_c|^2 t_c^2 G_c' of their fall; vec holds the eigenvectors and x
    the tail solutions (T_c - E)^-1 e_1, one distinct tail a row, in node order.
    """

    number: int
    energy: float
    tails: int
    sig: list
    slopes: list
    vec: np.ndarray
    x: np.ndarray


def _secular_step(e1: float, f1: float, s1: float, e0: float, f0: float, s0: float,
                  across: bool = False) -> float | None:
    """Step from e1 to the root of a model of f(E) = g(E) - E, or None where it has none.

    f falls with slope -s <= -1; the -E is exact (S(E) = block - E - ...), and
    g = f + E falls with slope -(s - 1). The model of g is a pole plus a line,
    g = a + b / (E - p) + c E, through f and s at both probes, the pole on
    either side of e1; below the tails' dense levels, where Newton in E
    crawls, the fitted pole stands in for their square-root threshold. Its
    root lies on the pole's side of e1, or with across on its far side (one
    channel, where f is one function across the poles and e1 lies below the
    pole that the level lies above).
    """
    t1, t0 = s1 - 1.0, s0 - 1.0
    span = e0 - e1
    chord = (f0 - f1) / span + 1.0  # g's chord slope
    if t1 + chord == 0.0 or t1 + t0 + 2.0 * chord == 0.0:
        return None
    # -g' = b / (E - p)^2 - c at both probes and g's chord give c, then d = e1 - p; the root
    # solves (c - 1) delta^2 + (f1 - d s1) delta + f1 d = 0, the line's slope being c - 1
    c = (chord * chord - t1 * t0) / (t1 + t0 + 2.0 * chord)
    d = span * (c - chord) / (t1 + chord)
    qa, qb, qc = c - 1.0, f1 - d * s1, f1 * d
    disc = qb * qb - 4.0 * qa * qc
    if d == 0.0 or not math.isfinite(d) or not disc >= 0.0:
        return None
    big = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    if qa == 0.0:
        roots = (-qc / qb,) if qb != 0.0 else ()
    else:
        roots = (big / qa, qc / big) if big != 0.0 else ()
    best = None
    for r in roots:
        if math.isfinite(r) and ((r + d) * d < 0.0) == across and (best is None or abs(r) < abs(best)):
            best = r
    return best


def _distinct_tails(operator: RadialHamiltonian) -> tuple[list[int], np.ndarray]:
    """The first channel of each distinct tail, and each channel's tail, numbered in that order.

    Channels of one order share their tail bit for bit in the extension reading, and channels of
    one coupling in the three-point rows. Compared value by value, each channel against the tails
    found before it, whole tails only where their first entries agree; a single channel compares
    nothing.
    """
    diag, hops = operator.onsite, operator.hops[1:]
    first = diag[0].tolist()
    distinct: list[int] = []
    which = np.empty(operator.n_channels, dtype=int)
    for c in range(which.size):
        for t, d in enumerate(distinct):
            if first[c] == first[d] and (diag[:, c] == diag[:, d]).all() and (hops[:, c] == hops[:, d]).all():
                which[c] = t
                break
        else:
            which[c] = len(distinct)
            distinct.append(c)
    return distinct, which


def _schur_eigenpairs(operator: RadialHamiltonian, k: int, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenpairs of an operator whose channels meet only at the first node.

    Past node 0 each channel c is its own real tridiagonal tail T_c, joined
    to the first-node block by the hop t_c; one channel is the 1 x 1 case.
    Haynsworth's inertia additivity counts the eigenvalues below E in O(N):

        count(H - E) = sum_c count(T_c - E) + count(S(E)),
        S(E) = block - E - diag(t_c^2 G_c(E)),   G_c = [(T_c - E)^-1]_11.

    A probe E factors the distinct tails (channels of one order share their
    tail bit for bit), each node-reversed and all side by side as one
    tridiagonal, as L D L^T from the far ends. Where more than 2 + size /
    400 tail levels are expected below E (the count at the level's lower
    bracket end), that is one gttrf call whatever their number: its pivoted
    LU gives the pivots without pivoting (the ratios of consecutive leading
    minors), U's diagonal where no rows were swapped and -e w' / w past an
    interchange, w / e being the multiplier it stores. Otherwise pttrf,
    restarted past each negative pivot (a few us each), costs less than
    gttrf's extra passes over the tails and the pivots' reconstruction. A
    trial energy is its LAPACK calls and a fixed handful of array
    operations: both write their pivots over one workspace, heevd works on
    its own copy of one array whose diagonal alone each trial energy
    rewrites, and the first nodes' factors are scalars. The distinct tails
    are found by comparing each channel's tail with those found before it,
    and one tail is read in place. The negative pivots are a Sturm count
    of the tail levels below E, and a vanishing one (under dstebz's pivmin,
    or exactly zero in U) moves the probe off that tail level by
    eps ||H|| / 2. The same pivots
    give x = (T_c - E)^-1 e_1 as the running product of the multipliers from
    the first node (what pttrs forms for e_1, free of cancellation), G_c =
    x_1 and G_c' = ||x||^2. No tail level is computed: each count narrows
    the brackets of all k levels, which start at [-||H||, ||H||].

    Level i is the root of f(E), the (i - P)-th eigenvalue of S(E) with P
    the tail levels below E. f falls with slope s = 1 + sum_c |v_c|^2 t_c^2
    G_c' >= 1 and stays continuous across a tail level while i - P stays in
    range, because the pole there moves eigenvalues of S past it; for one
    channel S is one function across its poles. Every probe keeps S's
    eigenvalues and slopes, so each level starts from the probes of the
    levels below it. The step is the root of a model of f (_secular_step)
    through f and s at two probes: the later of the bracket's ends where f
    is defined (else the latest probe where it is), and the nearest other
    probe past heevd's rounding, one with no tail level between the two if
    there is one. The model is g = f + E as a pole on either side plus a
    line, whose pole also stands in for the square-root threshold below the
    tails' dense levels, where Newton in E crawls; with one probe it is
    Newton. For one channel, a level with no probe yet past the pole below
    it steps across that pole from the probes below it. A step that leaves
    the bracket, or fitted steps that do not halve the distance to the root
    in two probes, give way to the bracket's middle: 0 for a bracket across
    0, else geometric where the bracket spans more than a factor 4, its end
    nearer 0 floored at the larger of eps ||H|| and 1e-3 of the other, so a
    level near 0 takes a few halvings of the exponent rather than some 50 of
    the interval.

    A level is certified once the count brackets it within 2 eps ||H||, the
    ends' counts differing. A step shorter than eps ||H|| is stretched to
    it, so that the count closes the bracket, and that probe asks for the
    count alone (S's eigenvalues at G_c = 1 / the first node's pivot): unless
    the vector from the probe before it would miss by more than 1e-13 ||H||,
    next to a tail level where the slope is huge, and then the step is taken
    as it is. The value returned is the model's root from the last probe,
    clamped into the bracket: it is good to eps ||S|| over the slope, far
    inside the bracket. A bracket whose ends differ in tail count holds a
    tail level, and stebz on that bracket alone returns it: that tail state
    is decoupled to working precision, as where LAPACK splits a tridiagonal
    at a zero off-diagonal. The unprobed top ||H||_inf counts as such an end,
    so a level there asks stebz too, which finds none unless a tail level
    sits on that bound. The block enters through its lower triangle
    (heevd reads no more, and the diagonal's imaginary part not at all).

    Each unit vector, node-major like matvec's argument, comes from the
    probe of its level with the least residual bound, with no pass of its
    own: v = [z; -t_c z_c x_c], z the eigenvector of S(E) for the level's
    eigenvalue sigma and the hops signed as stored, so that (H - E) v =
    [sigma z; 0] and ||v||^2 is the slope; its residual at lambda is at most
    (|sigma| + eps ||S||) / ||v|| + |E - lambda| (heevd resolves sigma only
    to eps ||S||, and next to a tail level S is huge). A bound above 1e-10
    ||H|| marks a tail state that the complement does not see: rounding can
    let the count close next to it rather than on it, and a channel that the
    block does not couple carries its tail levels unseen. There a pass at
    lambda, and if need be one inverse-iteration step, (H - lambda) v = 1 by
    the same block elimination, gives that state, with S's eigenvalues below
    eps ||S|| taken at that size. An exactly singular tail moves lambda by
    eps ||H||. Degenerate levels take distinct eigenvectors of S at one
    probe.
    """
    from scipy.linalg import get_lapack_funcs

    n_ch, block, diag, hops = operator.n_channels, operator.block, operator.onsite, operator.hops
    couple = hops[0] ** 2
    distinct, which = _distinct_tails(operator)
    shared = np.bincount(which)
    n_tails, length = len(distinct), diag.shape[0]
    size = n_tails * length
    # each node-reversed so that its factors run from the far end to its first node, side by side
    # as the blocks of one tridiagonal (a zero hop between blocks, -0 once negated), with the hops
    # negated: one tail is read in place
    if n_tails == 1:
        rev = diag[::-1, distinct[0]]
    else:
        rev = np.empty((n_tails, length))
        for row, c in zip(rev, distinct):
            row[:] = diag[::-1, c]
        rev = rev.reshape(-1)
    neg_hops = np.empty(size)
    for row, c in zip(neg_hops.reshape(-1, length), distinct):
        np.negative(hops[:0:-1, c], out=row[:-1])
        row[-1] = -0.0
    # each tail's first node
    firsts = range(length - 1, size, length)
    # up to this many tail levels, pttrf's restarts (a few us each) cost less than gttrf's
    # extra passes and its pivots' reconstruction
    few = 2 + size // 400

    @functools.cache
    def padded_form():
        # gttrf's form of the tails, built at its first use: a decoupled node above every probe
        # leads (gttrf takes no matrix below 3 x 3); the negated multipliers' numerators, with
        # 1 at each first node (x_1 = 1 / its pivot); each node's weight in the tail count (its
        # tail's channels); and gttrf's ipiv(m) = m + 1, the mark of a row interchange at step m
        off = np.concatenate(([0.0], -neg_hops[:-1]))
        numer = neg_hops.copy()
        numer[firsts] = 1.0
        weight = None if shared.max() == 1 else np.repeat(shared.astype(float), length)
        return (np.concatenate(([2.0 * norm + 1.0], rev)), off, -off, numer, weight,
                np.arange(2, size + 2, dtype=np.int32))

    gttrf, gttrs, pttrf = get_lapack_funcs(("gttrf", "gttrs", "pttrf"), (diag,))
    heevd = get_lapack_funcs("heevd", (block,)) if n_ch > 1 else None
    # LAPACK's pivot floor for Sturm counts (dstebz's pivmin)
    pivmin = _TINY * max(1.0, float(max(neg_hops.max(), -neg_hops.min())) ** 2)
    eps = _EPS
    tol = eps * norm
    # each level's bracket, the tail count at its ends (k for the unprobed top: a bracket whose
    # ends differ holds a tail level) and the probe that set them (None for none or one with
    # no state); plain lists, as each probe moves a run of them
    lo, hi = [-norm] * k, [norm] * k
    lo_tails, hi_tails = [0] * k, [k] * k
    lo_at: list = [None] * k
    hi_at: list = [None] * k
    # the probes where each level's function is defined, oldest first
    branches: list[list[_Probe]] = [[] for _ in range(k)]
    # every probed energy, in order
    probes: list[float] = []
    block00, couple0 = block[0, 0].real, couple[0]
    # heevd's input, whose diagonal each trial energy rewrites (heevd works on a copy)
    work = block.copy()
    work_diag = work.reshape(-1)[:: n_ch + 1]
    block_diag = work_diag.copy()
    weights_buf = np.empty((n_ch, n_ch))
    # both factorizations write their pivots over this, the tails at [1:] (gttrf's padded form
    # leads with one node), and a probe forms G_c' there once the pivots are read
    pivots = np.empty(size + 1)
    # each channel's tail's first node
    spread_ends = np.arange(length - 1, size, length)[which]

    def factor(energy: float, restart: bool, cap: float):
        # (tail count P, the factors whose running product from each first node is x =
        # (T_c - E)^-1 e_1: the negated multipliers of L D L^T, and 1 / the pivot at the first
        # node), (P, None) once P alone reaches cap, or None where a pivot vanishes, as at a tail
        # level. With restart, pttrf, restarted past each negative pivot; else gttrf's pivoted
        # LU gives the pivots: w, the active pivot at each step, is U's diagonal, or past an
        # interchange the multiplier w / e that dl holds times the sub-diagonal e that U's
        # diagonal holds; the pivot is w there, and -e w' / w past an interchange
        if restart or size < 2:
            # (gttrf takes no padded matrix below 3 x 3)
            d, l = np.subtract(rev, energy, out=pivots[1:]), neg_hops.copy()
            total = start = 0
            while True:
                if start < size - 1:
                    # pttrf writes the pivots over d and the multipliers over l, in place; with
                    # the hops negated they come out negated, the factors of x
                    info = pttrf(d[start:], l[start:-1], 1, 1)[2]
                    j = start + info - 1
                else:
                    # pttrf takes no 1 x 1 matrix: the last pivot, alone, is already in d
                    info, j = d[start] <= 0.0, start
                if not info:
                    break
                if d[j] > -pivmin:
                    return None
                total += shared[j // length]
                if total >= cap:
                    return total, None
                if j == size - 1:
                    break
                l[j] = neg_hops[j] / d[j]
                d[j + 1] -= l[j] * neg_hops[j]
                start = j + 1
            for end in firsts:
                pivot = d[end]
                if abs(pivot) <= pivmin:
                    return None
                l[end] = 1.0 / pivot
            return total, l
        padded, off, neg_off, numer, weight, swapped = padded_form()
        dl, d, _, _, ipiv, info = gttrf(off, np.subtract(padded, energy, out=pivots), off, 0, 1)
        # a pivot vanishes exactly where U's diagonal does
        if info:
            return None
        swap = ipiv[:-1] == swapped
        if swap.any():
            np.multiply(d[:-1], dl, out=d[:-1], where=swap)
            np.multiply(d[1:], neg_off / d[:-1], out=d[1:], where=swap)
        piv = d[1:]
        neg = piv < 0.0
        total = np.count_nonzero(neg) if weight is None else int(np.dot(neg, weight))
        return total, (numer / piv if total < cap else None)

    def solutions(mult: np.ndarray) -> np.ndarray:
        # x_c = (T_c - E)^-1 e_1 for every distinct tail, one per row in node order, formed over
        # the factors in place: from the first node on, the running product of the multipliers,
        # as pttrs would form it
        x = mult.reshape(n_tails, length)[:, ::-1]
        np.multiply.accumulate(x, axis=1, out=x)
        return x

    def schur(energy: float, mult: np.ndarray, vectors: int):
        # S(E)'s eigenvalues, ascending, and with vectors its eigenvectors, from G_c = x_1, the
        # factor at each first node (1 / its pivot, or x_1 once the products are formed)
        if heevd is None:
            return np.array([block00 - energy - couple0 * mult[-1]]), np.ones((1, 1))
        np.subtract(block_diag, energy + couple * mult[spread_ends], out=work_diag)
        sig, vec, info = heevd(work, vectors, 1)
        if info:
            raise ArithmeticError(f"Schur complement eigensolve failed (heevd info {info})")
        return sig, vec

    def probe(energy: float, step: float, keep: bool, expected: int) -> None:
        # one trial energy (moved off a tail level), narrowing every bracket; no state kept where
        # the count alone reaches k, or where only the count is asked for (not keep): that
        # needs S's eigenvalues, which need no more of the tails than G_c = 1 / the first
        # node's pivot. A restart costs less than gttrf's extra passes while no more than
        # 2 + size / 400 tail levels are expected below E
        restart = expected <= few
        out = factor(energy, restart, k)
        while out is None:
            # half the width at which a bracket closes: a bracket still open holds the move
            energy += math.copysign(max(0.5 * tol, np.spacing(abs(energy)), 2.0 * pivmin), step)
            out = factor(energy, restart, k)
        tail_count, mult = out
        below, at = tail_count, None
        if tail_count < k and not keep:
            below += int(schur(energy, mult, 0)[0].searchsorted(0.0))
        elif tail_count < k:
            x = solutions(mult)
            sig, vec = schur(energy, mult, 1)
            if heevd is None:
                sig = [float(sig[0])]
                # G' = ||x||^2
                slopes = [1.0 + couple0 * float(np.dot(mult, mult))]
                below += sig[0] < 0.0
            else:
                # G_c' = ||x_c||^2, over the contiguous reversed rows that x views
                gp = np.square(mult, out=pivots[1:]).reshape(n_tails, length).sum(axis=1)
                weights = np.abs(vec, out=weights_buf)
                np.multiply(weights, weights, out=weights)
                slopes = ((couple * gp[which]) @ weights + 1.0).tolist()
                sig = sig.tolist()
                below += bisect.bisect_left(sig, 0.0)
            # next to a tail level x reaches about 1 / the pivot there, which on a grid whose
            # entries are some 1e-150 (R near 1e80 at n = 100) squares past the float range
            if not math.isfinite(sum(slopes)):
                grid = operator.grid
                raise OverflowError(f"the tail solutions of the grid r0 = {grid.r0}, R = {grid.R}, "
                                    f"n = {grid.n} leave the float range at E = {float(energy)!r}")
            at = _Probe(len(probes), energy, tail_count, sig, slopes, vec, x)
            # level i's function is the (i - P)-th eigenvalue of S
            for i in range(tail_count, min(tail_count + n_ch, k)):
                branches[i].append(at)
        probes.append(energy)
        # lo and hi stay sorted, so the ends a probe moves are one run each
        up, down = bisect.bisect_left(lo, energy), bisect.bisect_right(hi, energy)
        if up > below:
            run = up - below
            lo[below:up], lo_tails[below:up] = [energy] * run, [tail_count] * run
            lo_at[below:up] = [at] * run
        if below > down:
            run = below - down
            hi[down:below], hi_tails[down:below] = [energy] * run, [tail_count] * run
            hi_at[down:below] = [at] * run

    def middle(i: int) -> float:
        a, b = lo[i], hi[i]
        if a < -tol and b > tol:
            return 0.0
        near, far = sorted((abs(a), abs(b)))
        near = max(near, tol, 1e-3 * far)
        return math.copysign(math.sqrt(near * far), a + b) if far > 4.0 * near else 0.5 * (a + b)

    def model(i: int) -> tuple[float, float, bool] | None:
        # (the probe nearest level i's bracket, the model's step from it, whether a second
        # probe shaped the step)
        # one channel: S is one function across its poles, so with no probe on level i's
        # branch yet, the branch below steps across the pole it rises to
        across = n_ch == 1 and i > 0 and not branches[i]
        level = i - 1 if across else i
        branch = branches[level]
        if not branch:
            return None
        # from the latest of the bracket's ends where the function is defined, or else the latest
        # probe; with the other end or one of the latest probes
        first, other = lo_at[i], hi_at[i]
        if first is not None and not first.tails <= level < first.tails + n_ch:
            first = None
        if other is not None and not other.tails <= level < other.tails + n_ch:
            other = None
        if first is None or other is not None and other.number > first.number:
            first, other = other, first
        if first is None:
            first = branch[-1]
        tails, sig = first.tails, first.sig
        j1 = level - tails
        e1, f1, s1 = first.energy, sig[j1], first.slopes[j1]
        # a chord shorter than this is mostly heevd's rounding of f
        sep = 1e4 * eps * max(-sig[0], sig[-1], abs(e1)) / s1
        # the nearest of them, first among those with no tail level between it and the first
        second = across_tail = None
        near = far = math.inf
        for r in (other, *branch[-8:]):
            if r is None or r is first:
                continue
            gap = abs(r.energy - e1)
            if gap <= sep:
                continue
            if r.tails == tails:
                if gap < near:
                    second, near = r, gap
            elif gap < far:
                across_tail, far = r, gap
        if second is None:
            second = across_tail
        if second is not None:
            j0 = level - second.tails
            step = _secular_step(e1, f1, s1, second.energy, second.sig[j0], second.slopes[j0], across)
            if step is not None:
                return e1, step, True, s1
        return None if across else (e1, f1 / s1, False, s1)

    def eigvec(lam: float, near: _Probe | None, i: int) -> None:
        # level i's unit vector into vecs: v = [z; -t_c z_c x_c] from S's eigenvector z at a
        # probe E, (H - E) v = [sigma z; 0], a residual |sigma| / ||v|| + |E - lam|, with sigma
        # good to eps ||S||; from the probe given, else from a pass at lam
        out = vecs[:, :, i]
        for probe_at in ((near, None) if near is not None else (None,)):
            if probe_at is None:
                for energy in (lam, lam + max(tol, 2.0 * pivmin)):
                    done = factor(energy, False, math.inf)
                    if done is not None:
                        break
                else:
                    raise ArithmeticError(f"tail solve singular at E = {float(lam)!r}")
                x = solutions(done[1])
                sig, vec = schur(energy, done[1], 1)
                j = int(np.argmin(np.abs(sig)))
                gp = np.einsum("ij,ij->i", x, x)[which]
                size_v = math.sqrt(1.0 + float(np.sum(couple * np.abs(vec[:, j]) ** 2 * gp)))
            else:
                # ||v||^2 is the slope
                energy, x, vec, sig = probe_at.energy, probe_at.x, probe_at.vec, probe_at.sig
                j = i - probe_at.tails
                size_v = math.sqrt(probe_at.slopes[j])
            z = vec[:, j]
            floor = eps * max(-sig[0], sig[-1])
            if (abs(sig[j]) + floor) / size_v + abs(energy - lam) <= 1e-10 * norm:
                out[0] = z / size_v
                # (no copy of x where no two channels share a tail)
                np.multiply(x.T if n_tails == n_ch else x[which].T, -hops[0] * z / size_v, out=out[1:])
                return
        # a tail state the complement does not see: one inverse-iteration step, (H - E) v = 1
        # by the same block elimination; an eigenvalue of S below its resolution divides as that
        # resolution
        if size < 2:
            # (gttrf takes no padded matrix below 3 x 3)
            w = 1.0 / (rev - energy)
        else:
            padded, off = padded_form()[:2]
            dl, d, du, du2, ipiv, _ = gttrf(off, padded - energy, off)
            w = gttrs(dl, d, du, du2, ipiv, np.ones((size + 1, 1)))[0][1:, 0]
        w = w.reshape(-1, length)[which, ::-1].T
        x = x[which].T
        sig = np.where(np.abs(sig) < floor, np.copysign(floor, sig), sig)
        top = vec @ ((vec.conj().T @ (1.0 - hops[0] * w[0])) / sig)
        v = np.vstack((top, w - hops[0] * top * x))
        out[...] = v / np.linalg.norm(v)

    vals = np.empty(k)
    vecs = np.empty((length + 1, n_ch, k), dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(k):
            # the fitted steps since the last middle
            gaps = []
            for _ in range(200):
                fit = model(i)
                a, b = lo[i], hi[i]
                if b - a <= 2.0 * tol:
                    break
                last = probes[-1] if probes else 0.0
                energy, cross = None, False
                if fit is not None:
                    start, step, fitted, slope = fit
                    if fitted:
                        gaps.append(step)
                    # a step below tol proves nothing next to a tail level, where the slope is
                    # huge: step past the root by tol instead, so the count closes the bracket;
                    # that probe asks for the count alone, unless a vector from start would
                    # miss by more than 1e-13 ||H|| (sqrt(slope) |step|), and the step is taken
                    cross = abs(step) < tol and (math.sqrt(slope) * abs(step) <= 1e-13 * norm
                                                 or start + step == start)
                    energy = start + (math.copysign(tol, step) if cross else step)
                # a step that leaves the bracket gives way to its middle, as do fitted steps that
                # do not halve the distance to the root in two probes
                stalled = len(gaps) >= 3 and abs(gaps[-1]) > 0.5 * abs(gaps[-3])
                if energy is None or not a < energy < b or stalled:
                    energy, cross = middle(i), False
                    gaps = []
                # the tail count at the bracket's lower end is the fewest below the trial energy
                probe(energy, energy - last, not cross, lo_tails[i])
            else:
                raise ArithmeticError(f"Schur-Newton iteration for level {i} did not converge")
            # the model's root, which rounding can leave just outside the bracket (or the
            # count's rounding can leave the ends crossed)
            vals[i] = 0.5 * (lo[i] + hi[i]) if fit is None else min(max(fit[0] + fit[1], lo[i]), hi[i])
            near, found = None, 0
            if hi_tails[i] > lo_tails[i] and lo[i] < hi[i]:
                # a bracket that closed across a tail level returns it: that state is decoupled
                # to working precision
                stebz = get_lapack_funcs("stebz", (diag,))
                # (stebz's wrapper takes no empty off-diagonal, so one node passes its zero hop)
                found, w, _, _, info = stebz(rev, -neg_hops[:max(size - 1, 1)], 1, lo[i], hi[i], 0, 0, 0.0, "E")
                if info:
                    raise ArithmeticError(f"tail bisection failed (stebz info {info})")
                if found:
                    vals[i] = w[0]
            if not found and fit is not None and branches[i]:
                # the probe whose vector has the least residual bound, ||v||^2 being the slope; the
                # latest lie nearest, and a probe farther than the best bound cannot beat it
                best = math.inf
                for r in reversed(branches[i]):
                    miss = abs(r.energy - vals[i])
                    if miss < best:
                        j = i - r.tails
                        bound = abs(r.sig[j]) / math.sqrt(r.slopes[j]) + miss
                        if bound < best:
                            near, best = r, bound
            eigvec(vals[i], near, i)
    vecs = vecs.reshape(-1, k)
    order = np.argsort(vals, kind="stable")
    if (order == np.arange(k)).all():
        return vals, vecs
    return vals[order], vecs[:, order]


def oracle_spectrum(operator, k: int) -> np.ndarray:
    """k lowest eigenvalues of a Hermitian operator, with residual checks.

    Takes a dense Hermitian ndarray or a RadialHamiltonian through one flow:
    1 <= k <= size, then the Hermiticity gate defect <= 1e-9 max(1,
    ||H||_inf). The gate is on the operator's own scale: a g that passes
    the 1e-9 boundary-data gate puts at most 1e-9 / (mu h) into the
    first-node block of the three-point rows, and ||H||_inf >= 1 / (mu h^2),
    so for h <= 1 the two gates agree. A dense operator goes to eigh. In a
    RadialHamiltonian, with one channel or several, the channels meet only
    in the first-node block, and one O(N) solve on its Schur complement
    gives each level and its vector (_schur_eigenpairs), where LAPACK's
    band reduction costs O(N^2 kd) and tridiagonal bisection some 45 Sturm
    passes per level. Each trial energy is one tail factorization and one
    n_ch x n_ch eigensolve; the step to the next is the root of a
    pole-plus-line model of the complement's
    eigenvalue through two trial energies, some six to eight a level (24-32
    at k = 4 and 77-84 at k = 12 for coupled Haar U at n = 100). Each
    level is certified by the inertia count: two trial energies no more than
    2 eps ||H||_inf apart whose counts put the level between them; the value
    returned is the model's root, well inside that bracket.
    The vector comes from the trial energies of its level, not from the
    operator as built, so the residual check stays an independent test of
    it: every pair must satisfy ||H v - lambda v|| <= 1e-8 ||H||_inf with H
    applied as built, one block product for all k, which catches wrong
    levels as much as non-convergence; a NaN residual fails.

    Besides the operator, one solve on a RadialHamiltonian allocates the
    tails' negated hops and one pivot workspace (N floats each, N the
    distinct tails' nodes), one tail solution of N floats for each trial
    energy that keeps a state (five or six for criterion 8's k = 1), the
    k vectors, and for the residual one buffer and one scratch array of
    the vectors' size, where H v - lambda v is formed in place (numpy
    casts the real tails for the complex products through its own buffer
    of up to 8192 entries). With assembly, criterion 8's single channel at
    n = 8000 peaks at 0.91 MB (tracemalloc) and a Haar U at k = 12, n =
    2000 at 4.9 MB. A trial energy whose tail solutions square past the
    float range (entries some 1e-150 and below, as on a grid to R = 1e80
    at n = 100) raises OverflowError that names the grid.
    """
    # imported here: scipy.linalg costs about 0.26 s of start-up that only the eigensolve needs
    import scipy.linalg

    structured = isinstance(operator, RadialHamiltonian)
    if structured:
        size = operator.size
    else:
        H = np.asarray(operator)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("operator must be square")
        size = H.shape[0]
    if not 1 <= k <= size:
        raise ValueError(f"k = {k} must lie between 1 and the matrix dimension {size}")
    if structured:
        residual, defect, norm = operator.matvec, operator.hermiticity_defect(), operator.norm_upper_bound()
    else:
        defect, norm = float(np.abs(H - H.conj().T).max()), float(np.linalg.norm(H, np.inf))

        def residual(vecs, vals):
            return H @ vecs - vecs * vals
    if not norm < math.inf:
        raise OverflowError(f"operator norm ||H||_inf = {norm} is past the float range")
    gate = _HERMITICITY_TOL * max(1.0, norm)
    if not defect <= gate:
        raise HermiticityError(f"operator is not Hermitian: defect {defect:.3e} exceeds "
                               f"{_HERMITICITY_TOL:.0e} * max(1, ||H||) = {gate:.3e}; refusing to diagonalize")
    try:
        if structured:
            vals, vecs = _schur_eigenpairs(operator, k, norm)
        else:
            vals, vecs = scipy.linalg.eigh(H, subset_by_index=(0, k - 1))
    except scipy.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigensolver failed to converge: {exc}") from exc
    # one block product for every pair, and the squares of the real and imaginary parts summed
    # per column in place; the worst is NaN if any residual is
    r = residual(vecs, vals)
    r = r.view(r.real.dtype).reshape(*r.shape, -1)
    res = math.sqrt(float(np.einsum("ijk,ijk->j", r, r).max()))
    if not res <= 1e-8 * norm:  # a NaN residual fails too
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


def r0_limit_scan(extension: ExtensionMatrix, r0_sequence: Sequence[float]) -> ScanResult:
    """Track ||g(r0)||_max and the off-diagonal norm along shrinking r0.

    Finite entries in U force singular entries in g, so the max norm grows
    without bound; the scan records the empirical growth and stops at the
    first radius where the link map breaks down in working precision,
    reporting it in breakdown_r0. Only the two breakdown gates end the scan:
    LinkBreakdownError and the boundary matrix's HermiticityError. Any other
    ArithmeticError, such as K_nu underflowing at a large radius, is not a
    breakdown and propagates.
    """
    rows: list[ScanRow] = []
    for r0 in r0_sequence:
        if not 0.0 < r0 < math.inf:
            raise ValueError("all scan radii must be positive and finite")
        try:
            g = g_from_u(extension, r0)
        except (LinkBreakdownError, HermiticityError):
            return ScanResult(rows=tuple(rows), breakdown_r0=r0)
        ents = g.entries
        off = ents - np.diag(np.diag(ents))
        rows.append(ScanRow(r0=r0, gmax=float(np.abs(ents).max()),
                            offdiag_norm=float(np.abs(off).max())))
    return ScanResult(rows=tuple(rows))
