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
    """Boundary data or an operator failed its Hermiticity gate.

    Boundary data g is held to a defect max|g - g^dag| <= 1e-9; an operator
    H to defect <= 1e-9 max(1, ||H||_inf), its own scale (see oracle_spectrum).

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
    # s[0] / s[-1] is what np.linalg.cond computes, without its wrapper's overhead
    s = np.linalg.svd(entries, compute_uv=False)
    cond = float(s[0] / s[-1]) if s[-1] else math.inf
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

    block is the full n_ch x n_ch first-node block, stored as built so that
    a deliberately broken g stays observable (diagonal for a Dirichlet
    wall). Past node 0 each channel is its own real tridiagonal tail:
    onsite[i] holds node i + 1, and hops[i] joins node i to node i + 1, so
    hops[0] links the block to the tails. Component index = node * n_ch +
    channel.
    """

    block: np.ndarray
    onsite: np.ndarray
    hops: np.ndarray
    radii: np.ndarray
    grid: AnnulusGrid
    mu: float

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
        """||H||_inf, the largest absolute row sum."""
        hops = np.abs(self.hops)
        rows = np.abs(self.onsite) + hops
        rows[:-1] += hops[1:]
        first = np.abs(self.block).sum(axis=1) + hops[0]
        return float(max(first.max(), rows.max()))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.reshape(x, (-1, self.n_channels))
        y = np.empty(x.shape, dtype=np.result_type(x, self.block))
        y[0] = self.block @ x[0]
        y[1:] = self.onsite * x[1:] + self.hops * x[:-1]
        y[:-1] += self.hops * x[1:]
        return y.reshape(-1)

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
        block = np.diag(onsite[0]).astype(complex)
        if robin:
            block += (np.eye(n_ch, dtype=complex) / grid.r0 + g.entries) / (mu * h)
            # symmetry-restoring rescale of the r0 node makes its outward hop sqrt(2) * hop
            hops[0] *= math.sqrt(2.0)

    onsite = onsite[1:]
    for arr in (block, onsite, hops, radii):
        arr.flags.writeable = False
    return RadialHamiltonian(block=block, onsite=onsite, hops=hops, radii=radii, grid=grid, mu=mu)


def _schur_eigenpairs(operator: RadialHamiltonian, k: int, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenpairs of an operator whose channels meet only at the first node.

    Past node 0 each channel c is its own real tridiagonal tail T_c, joined
    to the first-node block by the hop t_c; one channel is the 1 x 1 case.
    Haynsworth's inertia additivity counts the eigenvalues below E in O(N):

        count(H - E) = sum_c count(T_c - E) + count(S(E)),
        S(E) = block - E - diag(t_c^2 G_c(E)),   G_c = [(T_c - E)^-1]_11.

    A probe E factors the distinct tails (channels of one order share their
    tail bit for bit), each node-reversed and all side by side as one
    tridiagonal, as L D L^T from the far ends without pivoting: pttrf,
    restarted past each nonpositive pivot, so the negative pivots are a
    Sturm count of the tail levels below E. The count stops once it alone
    puts all k levels below E, and a vanishing pivot (under dstebz's
    pivmin) moves the probe off that tail level by eps ||H|| / 2. The same
    factors give x = (T_c - E)^-1 e_1 as the running product of the
    multipliers from the first node (what pttrs forms for e_1, free of
    cancellation), G_c = x_1 and G_c' = ||x||^2. Below every tail
    level this is one plain Cholesky call. No tail level is computed: each
    count narrows the brackets of all k levels, which start at [-||H||,
    ||H||], and records the tail count at the bracket ends.

    Level i is the root of f(E), the (i - P)-th eigenvalue of S(E) with P
    the tail levels below E. f falls with slope -(1 + sum_c |v_c|^2 t_c^2
    G_c') <= -1 and stays continuous across a tail level while i - P stays
    in range, because the pole there moves eigenvalues of S past it.
    Newton starts at the middle of level 0's bracket; below the first pole
    f is concave, so from the right of the level Newton converges
    monotonically, even where its first steps grow (from far left it would
    overshoot past the pole). Above a tail level S's top eigenvalue comes
    down from +infinity, and there the step is the root of the one-pole
    model a + b / (E - p) through f and f'. Its pole p is fitted through f
    at the last probe with the same tail count (for one channel, where S is
    one function across its poles, at the last probe), or else is the
    bracket's lower end, where the counts put a tail level between it and
    E. The step never passes p; it is shorter than Newton's from the right
    and longer from the left, as the pole's curvature asks. For one channel
    a probe below the tail level that level i lies above takes the fitted
    model's root past the pole. A step that leaves the bracket is replaced
    by its middle, as is one that turns back without halving the step
    before last: rtsafe's test, which applied to every step would throw
    that monotone approach to the far end of the bracket. The middle is 0
    for a bracket across 0, else geometric where the bracket spans more
    than a factor 4 (its end nearer 0 floored at eps ||H||): a level near
    0 in a bracket as wide as ||H|| takes a few halvings of the exponent
    rather than some 50 of the interval. A level is taken once the count
    brackets it within 2 eps ||H||, so shorter steps are stretched to eps
    ||H||. A bracket whose ends differ in tail count holds a tail level, and
    stebz on that bracket alone returns it: that tail state is decoupled to
    working precision, as where LAPACK splits a tridiagonal at a zero
    off-diagonal. The block enters through its lower triangle (heevd reads
    no more, and the diagonal's imaginary part not at all).

    Each unit vector, node-major like matvec's argument, comes from its
    level alone in O(N): v = [z; -t_c z_c (T_c - lambda)^-1 e_1], with z
    the eigenvector of S(lambda) for its eigenvalue sigma nearest 0 and the
    hops signed as stored, so that (H - lambda) v = [sigma z; 0]. A
    residual bound (|sigma| + eps ||S||) / ||v|| above 1e-10 ||H|| (heevd
    resolves sigma only to eps ||S||, and next to a tail level S is huge)
    marks a tail state that the complement does not see: rounding can let
    the count close next to it rather than on it, and a channel that the
    block does not couple carries its tail levels unseen. There one
    inverse-iteration step, (H - lambda) v = 1 by the same block
    elimination, gives that state, with S's eigenvalues below eps ||S||
    taken at that size. An exactly singular tail moves lambda by eps ||H||.
    Degenerate levels may share a vector.
    """
    from scipy.linalg import get_lapack_funcs

    n_ch, block, diag, hops = operator.n_channels, operator.block, operator.onsite, operator.hops
    couple = hops[0] ** 2
    # the distinct tails, each node-reversed so that its factors run from the far end to its
    # first node, side by side as the blocks of one tridiagonal (a zero hop between blocks)
    tails, which = [], []
    for c in range(n_ch):
        tail = (diag[::-1, c], np.append(hops[:0:-1, c], 0.0))
        same = [t for t, (a, e) in enumerate(tails)
                if np.array_equal(a, tail[0]) and np.array_equal(e, tail[1])]
        which.append(same[0] if same else len(tails))
        if not same:
            tails.append(tail)
    which = np.array(which)
    shared = np.bincount(which)
    length = diag.shape[0]
    rev = np.concatenate([a for a, _ in tails])
    rev_hops = np.concatenate([e for _, e in tails])
    size = rev.size
    # each tail's first node
    ends = np.arange(length - 1, size, length)
    pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), (diag,))
    heevd = get_lapack_funcs("heevd", (block,))
    # LAPACK's pivot floor for Sturm counts (dstebz's pivmin)
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(rev_hops ** 2)))

    tol = np.finfo(float).eps * norm
    lo, hi = np.full(k, -norm), np.full(k, norm)
    # the tail count at each bracket end (k for the unprobed top): a bracket whose ends
    # differ holds a tail level
    lo_tails, hi_tails = np.zeros(k, dtype=int), np.full(k, k)

    def factor(energy: float, cap: float):
        # (tail count P, factors (d, l)); (P, None) once P reaches cap, (None, None) where a
        # pivot vanishes, as at a tail level; l carries a trailing 0 for the blocks' shape
        d, l = rev - energy, rev_hops.copy()
        total = start = 0
        while True:
            if start < size - 1:
                # pttrf writes the pivots over d and the multipliers over l, in place
                info = pttrf(d[start:], l[start:-1], overwrite_d=1, overwrite_e=1)[2]
                j = start + info - 1
            else:
                # pttrf takes no 1 x 1 matrix: the last pivot, alone, is already in d
                info, j = d[start] <= 0.0, start
            if not info:
                break
            if d[j] > -pivmin:
                return None, None
            total += shared[j // length]
            if total >= cap:
                return total, None
            if j == size - 1:
                break
            l[j] = rev_hops[j] / d[j]
            d[j + 1] -= l[j] * rev_hops[j]
            start = j + 1
        if (np.abs(d[ends]) <= pivmin).any():
            return None, None
        return total, (d, l)

    def solve(factors) -> np.ndarray:
        # x_c = (T_c - E)^-1 e_1 for every distinct tail, one per row in node order: from the
        # first node on, the running product of the multipliers, as pttrs would form it
        d, l = factors
        x = -l.reshape(-1, length)[:, ::-1]
        x[:, 0] = 1.0 / d[ends]
        return np.multiply.accumulate(x, axis=1, out=x)

    def schur(energy: float, x: np.ndarray):
        sig, vec, info = heevd(block - np.diag(energy + couple * x[which, 0]), lower=1)
        if info:
            raise ArithmeticError(f"Schur complement eigensolve failed (heevd info {info})")
        return sig, vec

    def probe(energy: float, step: float):
        # the probe's energy (moved off a tail level), and S's eigenpairs, the tail count P and
        # the slopes, narrowing every bracket; no state where the count alone reaches k
        tail_count, factors = factor(energy, k)
        while tail_count is None:
            # half the width at which a bracket closes: a bracket still open holds the move
            energy += math.copysign(max(0.5 * tol, np.spacing(abs(energy)), 2.0 * pivmin), step)
            tail_count, factors = factor(energy, k)
        if factors is None:
            state, below = None, tail_count
        else:
            x = solve(factors)
            sig, vec = schur(energy, x)
            below = tail_count + int(np.count_nonzero(sig < 0.0))
            slopes = 1.0 + (couple * np.einsum("ij,ij->i", x, x)[which]) @ np.abs(vec) ** 2
            state = tail_count, sig, slopes
        # lo and hi stay sorted, so the ends a probe moves are one run each
        up, down = lo.searchsorted(energy), hi.searchsorted(energy, "right")
        lo[below:up], lo_tails[below:up] = energy, tail_count
        hi[down:below], hi_tails[down:below] = energy, tail_count
        return energy, state

    def middle(i: int) -> float:
        a, b = lo[i], hi[i]
        if a < -tol and b > tol:
            return 0.0
        near, far = sorted((abs(a), abs(b)))
        near = max(near, tol)
        return math.copysign(math.sqrt(near * far), a + b) if far > 4.0 * near else 0.5 * (a + b)

    vals = np.empty(k)
    energy, state = probe(middle(0), 1.0)
    last = None
    for i in range(k):
        # Newton from the last probe, near the level below: its first step may span the bracket
        step = older = 2.0 * (hi[i] - lo[i])
        for _ in range(200):
            newton = np.inf
            if state is not None:
                tail_count, sig, slopes = state
                j = i - tail_count
                if 0 <= j < n_ch:
                    newton = sig[j] / slopes[j]
                # above a tail level S's top eigenvalue comes down from +inf; E - p of the pole
                # of a + b / (E - p) through it and its slope here and its value at the last
                # probe with the same tail count, or for one channel, where S is one function
                # across its poles, at the last probe
                pole_gap = np.nan
                if (j >= n_ch - 1 and last is not None and last[1] is not None
                        and (n_ch == 1 or last[1][0] == tail_count)):
                    span = last[0] - energy
                    chord = (last[1][1][-1] - sig[-1]) / span
                    # a straight line has no pole
                    if chord != -slopes[-1]:
                        pole_gap = span * chord / (-slopes[-1] - chord)
                if j == n_ch - 1 and tail_count:
                    # a tail level lies below E, in (lo, E) if the count says so: the model's
                    # root, with that pole, else with lo for it
                    gap = energy - lo[i] if lo_tails[i] < tail_count else np.inf
                    if 0.0 < pole_gap < gap:
                        gap = pole_gap
                    if newton < gap < np.inf:
                        newton *= gap / (gap - newton)
                elif j == n_ch == 1 and pole_gap < 0.0:
                    # below the tail level that level i lies above: the model's root past it
                    b = slopes[-1] * pole_gap ** 2
                    a = sig[-1] - b / pole_gap
                    if a < 0.0:
                        newton = -pole_gap - b / a
            target = energy + newton
            if hi[i] - lo[i] <= 2.0 * tol:
                break
            # a step that keeps its direction is a monotone approach; one that turns back must
            # halve the step before last
            turned = newton * step < 0.0
            bisect = not lo[i] <= target <= hi[i] or turned and abs(2.0 * newton) > abs(older)
            older, step = step, middle(i) - energy if bisect else newton
            # a step below tol proves nothing next to a tail level, where the slope is huge:
            # step past the root by tol instead, so the count closes the bracket
            if abs(step) < tol:
                step = math.copysign(tol, step)
            last = energy, state
            energy, state = probe(energy + step, step)
        else:
            raise ArithmeticError(f"Schur-Newton iteration for level {i} did not converge")
        # a bracket that closed across a tail level returns it: that state is decoupled to
        # working precision; otherwise the last Newton target, which rounding can leave just
        # outside the bracket (or the count's rounding can leave the ends crossed)
        vals[i] = min(max(target, lo[i]), hi[i])
        if hi_tails[i] > lo_tails[i] and lo[i] < hi[i]:
            stebz = get_lapack_funcs("stebz", (diag,))
            found, w, _, _, info = stebz(rev, rev_hops[:-1], 1, lo[i], hi[i], 0, 0, 0.0, "E")
            if info:
                raise ArithmeticError(f"tail bisection failed (stebz info {info})")
            if found:
                vals[i] = w[0]

    vecs = np.empty((length + 1, n_ch, k), dtype=complex)
    for i, lam in enumerate(vals):
        for shift in (lam, lam + max(tol, 2.0 * pivmin)):
            _, factors = factor(shift, np.inf)
            if factors is not None:
                break
        else:
            raise ArithmeticError(f"tail solve singular at E = {lam!r}")
        x = solve(factors)
        sig, vec = schur(shift, x)
        x = x[which].T
        j = np.argmin(np.abs(sig))
        v = np.vstack((vec[:, j], -hops[0] * vec[:, j] * x))
        # (H - shift) v = [sigma z; 0], a residual |sigma| / ||v||, with sigma good to eps ||S||
        floor = np.finfo(float).eps * np.abs(sig).max()
        if abs(sig[j]) + floor > 1e-10 * norm * np.linalg.norm(v):
            d, l = factors
            w = pttrs(d, l[:-1], np.ones(size))[0].reshape(-1, length)[which, ::-1].T
            # an eigenvalue of S below its resolution divides as that resolution
            sig = np.where(np.abs(sig) < floor, np.copysign(floor, sig), sig)
            top = vec @ ((vec.conj().T @ (1.0 - hops[0] * w[0])) / sig)
            v = np.vstack((top, w - hops[0] * top * x))
        vecs[:, :, i] = v / np.linalg.norm(v)
    vecs = vecs.reshape(-1, k)
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def oracle_spectrum(operator, k: int) -> np.ndarray:
    """k lowest eigenvalues of a Hermitian operator, with residual checks.

    Takes a dense Hermitian ndarray or a RadialHamiltonian through one flow:
    1 <= k <= size, then the Hermiticity gate defect <= 1e-9 max(1,
    ||H||_inf). The gate is on the operator's own scale: a g that passes
    BoundaryConditionMatrix's 1e-9 gate puts at most 1e-9 / (mu h) into the
    first-node block, and ||H||_inf >= 1 / (mu h^2), so for h <= 1 the two
    gates agree. A dense operator goes to eigh. In a RadialHamiltonian,
    with one channel or several, the channels meet only in the first-node
    block, and one O(N) solve on its Schur complement gives each level and
    its vector (_schur_eigenpairs): Newton on the complement's eigenvalues,
    safeguarded by an inertia count, where LAPACK's band reduction costs
    O(N^2 kd) and tridiagonal bisection some 45 Sturm passes per level.
    The vector is built from the level alone, so the residual check stays
    an independent test of it: every pair must satisfy ||H v - lambda v||
    <= 1e-8 ||H||_inf with H applied as built, which catches wrong levels
    as much as non-convergence; a NaN residual fails.
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
        apply, defect, norm = operator.matvec, operator.hermiticity_defect(), operator.norm_upper_bound()
    else:
        apply, defect, norm = H.__matmul__, float(np.abs(H - H.conj().T).max()), float(np.linalg.norm(H, np.inf))
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
    for i in range(k):
        res = np.linalg.norm(apply(vecs[:, i]) - vals[i] * vecs[:, i])
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
