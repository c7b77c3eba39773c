"""Tests for the boundary-condition link map and the annulus eigensolver.

Closed-form anchors: the exterior tail norm is checked against direct
quadrature of t |K_nu|^2, the box spectrum against k^2 pi^2 / (2 mu W^2)
with W the annulus width, and the analytic bound state at -mu against the
finite-difference spectrum it must reproduce. Scan rows are frozen from a
converged run and serve as regression anchors.
"""

import dataclasses
import math
import re
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.optimize import brentq
import scipy.linalg

from conftest import SWAP_01
from radext import annulus
from radext.annulus import (
    AnnulusGrid,
    BoundaryConditionMatrix,
    FluxReport,
    LinkBreakdownError,
    RadialHamiltonian,
    a_matrix,
    assemble_radial_hamiltonian,
    boundary_flux,
    diagonal_link_value,
    exterior_tail_norm,
    g_from_u,
    oracle_spectrum,
    r0_limit_scan,
    u_from_g,
)
from radext.channels import ChannelSpec, ModelParams, per_order
from radext.extensions import ExtensionMatrix, mixing_matrix, origin_pairs, random_extension
from radext.extensions import bound_states
from radext.extensions import bound_state_energy_theta, dirac_consistent_value, haar_unitary
from radext.specfun import bessel_j, gamma_fn
from radext.specfun import bessel_k_complex

NU_EDGE = math.sqrt(2.0) - 0.5


def _hermitian(seed: int, n: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


class TestBoundaryConditionMatrix:
    def test_accepts_hermitian(self, monopole):
        from radext.extensions import canonical_channels

        chans = canonical_channels(monopole)
        ents = _hermitian(0)
        g = BoundaryConditionMatrix(r0=0.1, channels=chans, entries=ents)
        assert g.hermiticity_defect == 0.0
        assert_allclose(g.entries, ents)
        with pytest.raises(ValueError):
            g.entries[0, 0] = 5.0

    def test_rejects_non_hermitian(self, monopole):
        from radext.extensions import canonical_channels

        chans = canonical_channels(monopole)
        ents = _hermitian(0)
        ents[0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            BoundaryConditionMatrix(r0=0.1, channels=chans, entries=ents)
        # the test hook lets deliberately broken data through
        g = BoundaryConditionMatrix(r0=0.1, channels=chans, entries=ents, validate=False)
        assert g.hermiticity_defect > 1e-4
        # a NaN defect fails the gate too
        ents[0, 1] = np.nan
        with pytest.raises(annulus.HermiticityError, match="not Hermitian"):
            BoundaryConditionMatrix(r0=0.1, channels=chans, entries=ents)

    def test_shape_and_radius_validation(self, monopole):
        from radext.extensions import canonical_channels

        chans = canonical_channels(monopole)
        with pytest.raises(ValueError, match="shape"):
            BoundaryConditionMatrix(r0=0.1, channels=chans, entries=np.eye(3))
        with pytest.raises(ValueError, match="r0"):
            BoundaryConditionMatrix(r0=0.0, channels=chans, entries=np.eye(4))

    def test_defect_of(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1.0
        assert BoundaryConditionMatrix.defect_of(m) == 1.0
        assert BoundaryConditionMatrix.defect_of(np.eye(2)) == 0.0


class TestAnnulusGrid:
    def test_spacing(self):
        grid = AnnulusGrid(r0=0.5, R=1.5, n=999)
        assert_allclose(grid.h, 1.0 / 1000.0, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 100"):
            AnnulusGrid(r0=0.1, R=1.0, n=50)
        with pytest.raises(ValueError, match="0 < r0 < R"):
            AnnulusGrid(r0=1.0, R=0.5, n=500)
        with pytest.raises(ValueError, match="0 < r0 < R"):
            AnnulusGrid(r0=0.0, R=1.0, n=500)
        with pytest.raises(ValueError, match="finite"):
            AnnulusGrid(r0=1e-3, R=math.inf, n=100)
        for n in (100.5, 200.0, True):
            with pytest.raises(ValueError, match="integer"):
                AnnulusGrid(r0=0.1, R=1.0, n=n)
        assert AnnulusGrid(r0=0.1, R=1.0, n=np.int64(200)).n == 200


class TestExteriorTailNorm:
    def test_matches_quadrature(self):
        for nu, r0, s in ((0.5, 0.1, 1.0), (NU_EDGE, 1.0, 2.0), (0.3, 0.5, 1.0)):
            a = complex(1.0, -1.0) * s
            direct, _ = quad(
                lambda t: t * abs(bessel_k_complex(nu, a * t)) ** 2,
                r0, 60.0 / s, limit=300,
            )
            assert_allclose(exterior_tail_norm(nu, r0, s), direct, rtol=1e-12)

    def test_whole_line_limit(self):
        # r0 -> 0 recovers pi / (8 s^2 cos(pi nu / 2)); the missing mass
        # scales as r0^(2 - 2 nu), fast for nu = 1/2, slow near nu = 1
        whole = math.pi / (8.0 * math.cos(math.pi * 0.25))
        assert_allclose(exterior_tail_norm(0.5, 1e-6, 1.0), whole, rtol=1e-5)
        whole_edge = math.pi / (8.0 * math.cos(math.pi * NU_EDGE / 2.0))
        devs = [
            abs(exterior_tail_norm(NU_EDGE, r0, 1.0) - whole_edge) / whole_edge
            for r0 in (1e-4, 1e-6, 1e-8)
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_scale_dependence(self):
        # substituting t -> 2t maps (r0, s) to (r0/2, 2s) with a 1/4 factor
        assert_allclose(
            exterior_tail_norm(0.5, 0.05, 2.0),
            exterior_tail_norm(0.5, 0.1, 1.0) / 4.0,
            rtol=1e-12,
        )


class TestTransferMatrix:
    def test_identity_is_diagonal(self, identity_ext):
        amat = a_matrix(identity_ext, 0.3)
        off = amat.entries - np.diag(np.diag(amat.entries))
        assert np.abs(off).max() == 0.0
        assert amat.condition_number >= 1.0
        # diagonal entries are the conjugated, exterior-normalized profiles
        for idx, ch in enumerate(identity_ext.channels):
            nu = ch.nu
            c = 1.0 / math.sqrt(exterior_tail_norm(nu, 0.3, 1.0))
            prof = c * 0.3 ** (-0.5) * (
                bessel_k_complex(nu, complex(1.0, -1.0) * 0.3)
                + bessel_k_complex(nu, complex(1.0, 1.0) * 0.3)
            )
            assert_allclose(amat.entries[idx, idx], np.conj(prof), rtol=1e-14)

    def test_swap_elementwise(self, swap_ext):
        r = 1.0
        amat = a_matrix(swap_ext, r)
        vp = np.empty(4, dtype=complex)
        vm = np.empty(4, dtype=complex)
        for idx, ch in enumerate(swap_ext.channels):
            nu = ch.nu
            c = 1.0 / math.sqrt(exterior_tail_norm(nu, r, 1.0))
            vp[idx] = c * bessel_k_complex(nu, complex(1.0, -1.0) * r)
            vm[idx] = c * bessel_k_complex(nu, complex(1.0, 1.0) * r)
        expect = np.conj(np.diag(vp) + SWAP_01 * vm[None, :])
        assert_allclose(amat.entries, expect, rtol=1e-14)

    def test_radius_scale_covariance(self, identity_ext):
        # r -> 2r with s -> s/2 keeps the Bessel argument fixed; the
        # 1/sqrt(r) prefactor and the exterior norm together give 2^(-3/2)
        base = a_matrix(identity_ext, 0.3).entries
        halved = ExtensionMatrix(identity_ext.entries, ModelParams(deficiency_scale=0.5))
        shifted = a_matrix(halved, 0.6).entries
        assert_allclose(shifted, base * 2.0 ** (-1.5), rtol=1e-12)

    def test_radius_validation(self, identity_ext):
        with pytest.raises(ValueError, match="positive"):
            a_matrix(identity_ext, 0.0)

    def test_singular_transfer_matrix_is_a_link_breakdown(self, monopole):
        # the phase that cancels K_nu(a r) + U conj(K_nu(a r)) in the nu = 1/2 channel leaves
        # a(r) singular in working precision
        k = bessel_k_complex(0.5, complex(1.0, -1.0) * 0.3)
        ext = ExtensionMatrix.from_diagonal_thetas([float(np.angle(-k / k.conjugate())), 0, 0, 0], monopole)
        with pytest.raises(LinkBreakdownError, match="singular at r = 0.3"):
            a_matrix(ext, 0.3)

    def test_condition_number_is_numpy_cond(self):
        for seed in range(10):
            ext = ExtensionMatrix(haar_unitary(seed))
            for r in (0.5, 0.01):
                amat = a_matrix(ext, r)
                assert amat.condition_number == np.linalg.cond(amat.entries)

    def test_g_from_u_reads_a_matrix_once(self, monkeypatch):
        # g_from_u calls a_matrix by its module-level name, so a wrapper of that name sees
        # every link map's condition number
        calls = []
        real = annulus.a_matrix
        monkeypatch.setattr(annulus, "a_matrix", lambda *args: calls.append(args) or real(*args))
        for r0 in (0.5, 0.01):
            calls.clear()
            g_from_u(random_extension(5), r0)
            assert len(calls) == 1

    def test_g_is_one_solve_of_the_two_parts(self):
        # g = a^-1 derivative with the prefactor's -1/(2 r0) added to the diagonal last, bit for bit
        for seed in (0, 1, 2):
            ext = ExtensionMatrix(haar_unitary(seed))
            for r0 in (0.5, 0.05):
                amat = a_matrix(ext, r0)
                want = np.linalg.solve(amat.entries, amat.derivative)
                want.flat[:: want.shape[0] + 1] -= 0.5 / r0
                assert np.array_equal(g_from_u(ext, r0).entries, want)

    def test_lapack_failures_raise_numpy_errors(self, monkeypatch):
        # LAPACK's info > 0 is the np.linalg.LinAlgError that numpy's wrappers raised for it
        ext = ExtensionMatrix(haar_unitary(3))
        svd_fails, solve_fails = _reporting_info("zgesdd"), _reporting_info("zgesv")
        monkeypatch.setattr(annulus, "_lapack", svd_fails)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            a_matrix(ext, 0.1)
        monkeypatch.setattr(annulus, "_lapack", solve_fails)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            g_from_u(ext, 0.1)


class TestLinkMap:
    def test_diagonal_extension_gives_diagonal_g(self, monopole):
        thetas = [0.3, 1.1, -0.4, 2.0]
        ext = ExtensionMatrix.from_diagonal_thetas(thetas, monopole)
        g = g_from_u(ext, 0.1)
        off = g.entries - np.diag(np.diag(g.entries))
        assert np.abs(off).max() == 0.0
        for idx, (ch, theta) in enumerate(zip(ext.channels, thetas)):
            want = diagonal_link_value(ch.nu, theta, 0.1, monopole.deficiency_scale)
            # both routes form the same sums from the same K values (worst 3.1e-16 here)
            assert_allclose(g.entries[idx, idx], want, rtol=2e-15)

    def test_dirac_consistent_set_passes_at_the_oracle_radius(self):
        # phi_+ + U phi_- cancels for the Dirac-consistent value, so it is summed from the plain
        # K values before the normalization: g keeps a defect of 2.0e-10 at r0 = 1e-3, inside
        # the 1e-9 gate, and each entry is its phase's scalar link
        p = float(np.angle(dirac_consistent_value(NU_EDGE)))
        thetas = [0.3, p, p, p]
        ext = ExtensionMatrix.from_diagonal_thetas(thetas)
        g = g_from_u(ext, 1e-3)
        assert g.hermiticity_defect <= 1e-9
        for idx, (ch, theta) in enumerate(zip(ext.channels, thetas)):
            assert_allclose(g.entries[idx, idx], diagonal_link_value(ch.nu, theta, 1e-3, 1.0), rtol=1e-13)

    def test_each_order_is_evaluated_once(self, monkeypatch):
        # eg = 1/2 has four channels but two orders: K_nu and K_(nu+1) once per order and radius,
        # and once per process: another U at the same radius reads the same profiles
        calls = []

        def counted(nu, z):
            calls.append(nu)
            return bessel_k_complex(nu, z)

        monkeypatch.setattr(annulus, "bessel_k_complex", counted)
        per_order.cache_clear()
        for r0 in (0.5, 0.1, 0.01):
            calls.clear()
            g_from_u(random_extension(3), r0)
            assert sorted(calls) == [0.5, NU_EDGE, 1.5, NU_EDGE + 1.0]
            calls.clear()
            g_from_u(random_extension(4), r0)
            assert calls == []

    def test_defect_is_computed_once_per_link(self, monkeypatch):
        # BoundaryConditionMatrix stores the defect it gates on; g_from_u forms it again only
        # on a refusal, to choose between the breakdown and the Hermiticity error
        calls = []
        real = BoundaryConditionMatrix.defect_of
        monkeypatch.setattr(BoundaryConditionMatrix, "defect_of",
                            staticmethod(lambda ents: calls.append(1) or real(ents)))
        for seed in (1, 5):
            for r0 in (0.5, 0.05, 0.01):
                calls.clear()
                g = g_from_u(random_extension(seed), r0)
                assert len(calls) == 1
                assert g.hermiticity_defect == real(g.entries)
        for r0, error in ((1e-6, annulus.HermiticityError), (1e-8, LinkBreakdownError)):
            calls.clear()
            with pytest.raises(error):
                g_from_u(random_extension(7), r0)
            assert len(calls) == 2

    def test_hermitian_across_seeds_and_radii(self):
        for seed in range(10):
            ext = random_extension(seed)
            for r0 in (0.05, 0.1, 0.5):
                g = g_from_u(ext, r0)
                assert g.hermiticity_defect <= 1e-9

    def test_identity_diagonal_grows(self, identity_ext):
        vals = [abs(g_from_u(identity_ext, r0).entries[0, 0]) for r0 in (1e-1, 1e-2, 1e-3)]
        assert vals[0] < vals[1] < vals[2]

    def test_breakdown_radii_raise(self, monkeypatch):
        ext = random_extension(7)
        # just past working precision the Hermiticity gate trips first,
        # far past it the explicit breakdown threshold does
        with pytest.raises(ValueError, match="Hermitian"):
            g_from_u(ext, 1e-6)
        with pytest.raises(ArithmeticError, match="breakdown"):
            g_from_u(ext, 1e-8)
        # a NaN link value, here from NaN derivatives, fails the breakdown gate too
        real = annulus.a_matrix
        monkeypatch.setattr(annulus, "a_matrix",
                            lambda *args: dataclasses.replace(real(*args), derivative=np.full((4, 4), np.nan)))
        with pytest.raises(LinkBreakdownError, match="breakdown"):
            g_from_u(ext, 0.1)

    def test_underflow_raises_on_every_call(self, identity_ext):
        # an exception is never cached: K_nu underflows at r0 = 800 however often it is asked
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="exterior norm"):
                g_from_u(identity_ext, 800.0)

    def test_memo_is_bit_identical_cold_and_warm(self):
        def outputs(seed, cold):
            # two radii and two energies, so a warm step would see a table keyed on the wrong one
            ext = random_extension(seed)
            steps = [lambda: origin_pairs(ext.entries, ext.channels, 1.0)]
            for r0, energy in ((0.5, 0.7), (0.05, 2.0)):
                steps += [lambda r0=r0: g_from_u(ext, r0).entries,
                          lambda r0=r0: u_from_g(g_from_u(ext, r0), 1.0),
                          lambda energy=energy: mixing_matrix(ext, energy, 1.0)]
            out = []
            for step in steps:
                if cold:
                    per_order.cache_clear()
                out.append(step())
            return out

        def raw(arrays):
            return np.concatenate([np.ravel(x) for x in arrays]).tobytes()

        for seed in range(10):
            assert raw(outputs(seed, cold=True)) == raw(outputs(seed, cold=False))

    def test_profile_rows_are_their_plain_formulas_bit_for_bit(self):
        # the table's phi_+-(r) and phi_+-'(r), formed per order, against the whole-array
        # expressions of the K rows that u_from_g would form per call
        for r, scale in ((0.5, 1.0), (0.01, 1.0), (1e-4, 2.0), (0.3, 1e-3)):
            rows = annulus._k_rows((0.5, NU_EDGE, NU_EDGE, NU_EDGE), r, scale)
            k, kd, weight = rows[0], rows[1], rows[4].real
            vp = weight * k
            dp = weight * (kd - (k.real / (2.0 * r) + 1j * (k.imag / (2.0 * r))))
            assert rows[6:].tobytes() == np.array([vp, dp, vp.conj(), dp.conj()]).tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_link_map_reads_u_in_any_array_layout(self, seed):
        # ExtensionMatrix stores U C-contiguous, so a transposed view and u_from_g's own
        # output give the link of the matrix they hold, bit for bit that of a C-ordered copy
        u = haar_unitary(seed)
        transposed = ExtensionMatrix(u.T)
        assert transposed.entries.flags.c_contiguous
        assert np.array_equal(g_from_u(transposed, 1e-2).entries,
                              g_from_u(ExtensionMatrix(np.ascontiguousarray(u.T)), 1e-2).entries)
        g = g_from_u(ExtensionMatrix(u), 1e-2)
        again = g_from_u(ExtensionMatrix(u_from_g(g, 1.0)), 1e-2)
        assert np.abs(again.entries - g.entries).max() <= 1e-14 * np.abs(g.entries).max()

    def test_link_map_reads_its_lapack_from_the_extension(self, monkeypatch):
        # numpy.linalg is out of the link map: one g_from_u is one gesdd, a(r)'s singular values,
        # and one gesv; an extension reading solves twice, for U (u_from_g) and at the edge
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        calls = Counter()
        monkeypatch.setattr(annulus, "_lapack", _no_stebz(calls))
        ext = ExtensionMatrix(haar_unitary(3))
        g = g_from_u(ext, 0.01)
        assert calls == Counter(gesdd=1, gesv=1)
        calls.clear()
        assemble_radial_hamiltonian(ext.params, AnnulusGrid(r0=0.01, R=40.0, n=100), g, ext.channels)
        assert calls == Counter(gesv=2)

    def test_singular_inverse_is_a_link_breakdown(self, monkeypatch):
        g = g_from_u(ExtensionMatrix(haar_unitary(3)), 0.1)
        monkeypatch.setattr(annulus, "_lapack", _reporting_info("zgesv"))
        with pytest.raises(LinkBreakdownError, match="not invertible"):
            u_from_g(g, 1.0)

    def test_diagonal_link_is_real(self):
        for nu in (0.5, NU_EDGE):
            for theta in (0.0, 0.7, -1.9):
                g = diagonal_link_value(nu, theta, 1e-3, 1.0)
                assert abs(g.imag) <= 1e-10 * abs(g)

    def test_diagonal_link_small_radius_ratio(self):
        # the singular branch dominates: g ~ -(nu + 1/2)/r0 as r0 -> 0
        for nu in (0.5, NU_EDGE):
            g = diagonal_link_value(nu, 0.0, 1e-4, 1.0)
            assert_allclose(g.real * 1e-4, -(nu + 0.5), atol=2e-3)


class TestAssembly:
    def test_dirichlet_box_spectrum(self):
        params = ModelParams(model="inverse_square", c=0.0)
        ch = ChannelSpec(m=0, nu_sq=0.25, l=0)
        grid = AnnulusGrid(r0=1e-3, R=1.0, n=4000)
        ham = assemble_radial_hamiltonian(params, grid, None, (ch,))
        got = oracle_spectrum(ham, 4)
        width = grid.R - grid.r0
        exact = np.array([(k * math.pi / width) ** 2 / 2.0 for k in (1, 2, 3, 4)])
        assert_allclose(got, exact, rtol=1e-5)

    def test_hermitian_data_gives_exactly_hermitian_operator(self, monopole):
        # the extension reading reads g only through U, so the raw g_from_u output, with its
        # anti-Hermitian rounding, gives an exactly Hermitian operator, as the symmetrized g does
        for seed in range(10):
            ext = random_extension(seed)
            for r0 in (0.1, 0.01):
                g = g_from_u(ext, r0)
                sym = BoundaryConditionMatrix(r0=r0, channels=ext.channels,
                                              entries=0.5 * (g.entries + g.entries.conj().T))
                grid = AnnulusGrid(r0=r0, R=5.0, n=100)
                for data in (g, sym):
                    ham = assemble_radial_hamiltonian(monopole, grid, data, ext.channels)
                    dense = ham.dense()
                    assert np.array_equal(dense, dense.conj().T)
                    assert ham.hermiticity_defect() == 0.0

    def test_non_hermitian_refused_by_default(self, monopole):
        ext = random_extension(3)
        ents = np.array(g_from_u(ext, 0.1).entries, copy=True)
        ents[0, 1] += 1e-3
        gb = BoundaryConditionMatrix(r0=0.1, channels=ext.channels, entries=ents,
                                     validate=False)
        grid = AnnulusGrid(r0=0.1, R=5.0, n=200)
        with pytest.raises(ValueError, match="refusing"):
            assemble_radial_hamiltonian(monopole, grid, gb, ext.channels)
        gb = BoundaryConditionMatrix(r0=0.1, channels=ext.channels, entries=np.full((4, 4), np.nan),
                                     validate=False)
        with pytest.raises(annulus.HermiticityError, match="refusing"):
            assemble_radial_hamiltonian(monopole, grid, gb, ext.channels)

    def test_g_is_read_only_at_its_extensions_scale(self):
        # four phases 0.3 at r0 = 0.01, 400 points to R = 20: read at s = 2 or at mu = 2 (s = mu
        # by default) this g gave -0.7343, -0.4201 and -0.3671, -0.2101 silently, where its
        # extension's levels are -0.7782, -0.7479
        u = np.diag(np.exp(np.full(4, 0.3j)))
        grid = AnnulusGrid(r0=0.01, R=20.0, n=400)
        g = g_from_u(ExtensionMatrix(u), 0.01)
        for params in (ModelParams(deficiency_scale=2.0), ModelParams(mu=2.0)):
            with pytest.raises(ValueError, match="deficiency_scale = 1.0, not at the params' 2.0"):
                assemble_radial_hamiltonian(params, grid, g, g.channels)
        # the g of each params' own extension gives that extension's closed forms (worst
        # 3.8e-3 at s = 2, where the states sit closer to the origin on the same grid)
        for params in (ModelParams(), ModelParams(deficiency_scale=2.0), ModelParams(mu=2.0),
                       ModelParams(mu=2.0, deficiency_scale=1.0)):
            ext = ExtensionMatrix(u, params)
            own = g_from_u(ext, 0.01)
            assert own.deficiency_scale == params.deficiency_scale
            ham = assemble_radial_hamiltonian(params, grid, own, ext.channels)
            want = sorted(state.energy for state in bound_states(ext))[:2]
            assert_allclose(oracle_spectrum(ham, 2), want, rtol=5e-3)
        # a g built by hand records no scale and is read at the params' own, as before
        hand = BoundaryConditionMatrix(r0=0.01, channels=g.channels, entries=g.entries)
        assert hand.deficiency_scale is None
        assemble_radial_hamiltonian(ModelParams(deficiency_scale=2.0), grid, hand, g.channels)
        blocks = [assemble_radial_hamiltonian(ModelParams(), grid, data, g.channels).block
                  for data in (hand, g)]
        assert np.array_equal(*blocks)

    def test_matvec_matches_dense(self):
        ham = _operator("extension-reading")
        rng = np.random.default_rng(5)
        x = rng.normal(size=ham.size) + 1j * rng.normal(size=ham.size)
        assert_allclose(ham.matvec(x), ham.dense() @ x, atol=1e-10)

    def test_matvec_shift_is_the_residual(self):
        # H x - x shift, one shift a column, in the buffer matvec returns: the same roundings as
        # forming H x and subtracting
        ham = _operator("extension-reading")
        rng = np.random.default_rng(6)
        x = rng.normal(size=(ham.size, 3)) + 1j * rng.normal(size=(ham.size, 3))
        shift = rng.normal(size=3)
        assert np.array_equal(ham.matvec(x, shift), ham.matvec(x) - x * shift)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_extension_reading_is_its_plain_formulas_bit_for_bit(self, seed):
        # the arrays formed in place against the same formulas written as whole-array
        # expressions: every entry identical
        params, grid = ModelParams(), AnnulusGrid(r0=0.01, R=20.0, n=300)
        ext = random_extension(seed)
        g = g_from_u(ext, 0.01)
        ham = assemble_radial_hamiltonian(params, grid, g, ext.channels)
        nodes = grid.r0 + grid.h * np.arange(grid.n + 2)
        nodes[0] = nodes[1] / 16.0
        ends = np.concatenate(([0.0], nodes))
        t = 2.0 * np.array([ch.nu for ch in ext.channels])[:, None]
        cell = t / np.diff(ends ** t)
        mids = (0.5 * (ends[2:] + ends[1:-1])) ** (2.0 - t)
        mass = mids.copy()
        mass[:, 1:] -= mids[:, :-1]
        mass *= 2.0 * params.mu / (2.0 - t)
        onsite = cell[:, 1:].copy()
        onsite[:, 1:] += cell[:, 1:-1]
        onsite /= mass
        hops = -cell[:, 1:-1] / np.sqrt(mass[:, :-1] * mass[:, 1:])
        a, b = origin_pairs(u_from_g(g, params.deficiency_scale), ext.channels, params.deficiency_scale)
        inner = cell[:, 0]
        edge = t * b @ np.linalg.solve(inner[:, None] * a + t * b, np.diag(inner))
        edge /= np.sqrt(mass[:, :1] * mass[:, 0])
        block = np.diag(onsite[:, 0]) + 0.5 * (edge + edge.conj().T)
        for got, want in ((ham.onsite, onsite.T[1:]), (ham.hops, hops.T), (ham.block, block)):
            assert got.shape == want.shape
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("outer", [1e80, 1e120, 1e155])
    def test_tail_solutions_past_the_float_range_are_refused(self, outer):
        # at R = 1e80 to 1e155 (n = 100) every entry is finite, some 1e-150 and below, but next to
        # a tail level x = (T_c - E)^-1 e_1 reaches about 1 / the pivot there, and G_c' = ||x_c||^2
        # overflows: a typed refusal that names the grid, and no RuntimeWarning (the test run
        # makes those errors)
        ext = ExtensionMatrix.from_diagonal_thetas([0.3] * 4)
        ham = assemble_radial_hamiltonian(ext.params, AnnulusGrid(r0=1e-3, R=outer, n=100), g_from_u(ext, 1e-3),
                                          ext.channels)
        assert 0.0 < ham.norm_upper_bound() < 1e-150
        with pytest.raises(OverflowError, match=re.escape(f"tail solutions of the grid r0 = 0.001, R = {outer!r}, "
                                                          "n = 100 leave the float range at E = ")):
            oracle_spectrum(ham, 4)

    def test_far_grid_inside_the_float_range_is_solved(self):
        # R = 1e70 and 1e76 at n = 100: the entries are some 1e-140 and 1e-152, and the levels
        # scale as 1 / R^2 from those of R = 1e10
        ext = ExtensionMatrix.from_diagonal_thetas([0.3] * 4)
        g = g_from_u(ext, 1e-3)
        levels = [oracle_spectrum(assemble_radial_hamiltonian(ext.params, AnnulusGrid(r0=1e-3, R=outer, n=100),
                                                              g, ext.channels), 4) * outer ** 2
                  for outer in (1e10, 1e70, 1e76)]
        assert_allclose(levels[1:], [levels[0]] * 2, rtol=1e-6)

    def test_mismatch_validation(self, monopole):
        ext = random_extension(3)
        g = g_from_u(ext, 0.1)
        grid = AnnulusGrid(r0=0.1, R=5.0, n=200)
        with pytest.raises(ValueError, match="channels"):
            assemble_radial_hamiltonian(monopole, grid, g, ext.channels[:2])
        grid_off = AnnulusGrid(r0=0.2, R=5.0, n=200)
        with pytest.raises(ValueError, match="radius"):
            assemble_radial_hamiltonian(monopole, grid_off, g, ext.channels)
        with pytest.raises(ValueError, match="at least one"):
            assemble_radial_hamiltonian(monopole, grid, None, ())


class TestGridTable:
    """The extension reading's grid part, built once per grid and shared by every U on it."""

    @staticmethod
    def _assemble(seed: int, n: int = 100) -> RadialHamiltonian:
        ext = random_extension(seed)
        return assemble_radial_hamiltonian(ext.params, AnnulusGrid(r0=0.01, R=40.0, n=n),
                                           g_from_u(ext, 0.01), ext.channels)

    def test_operators_on_one_grid_share_the_grid_part(self):
        annulus._reading_grid.cache_clear()
        first, second = self._assemble(1), self._assemble(2)
        for name in ("onsite", "hops"):
            assert getattr(first, name) is getattr(second, name)
        assert not np.array_equal(first.block, second.block)
        for arr in (second.block, second.onsite, second.hops):
            assert not arr.flags.writeable
        # the block formed on the warm table is the one formed on a cold one, bit for bit
        annulus._reading_grid.cache_clear()
        assert self._assemble(2).block.tobytes() == second.block.tobytes()

    def test_second_assembly_builds_no_tails(self):
        annulus._reading_grid.cache_clear()
        self._assemble(1)
        self._assemble(2)
        assert annulus._reading_grid.cache_info().misses == 1

    def test_table_keeps_only_the_operators_arrays(self):
        # criterion 8's one channel at n = 8000: the table keeps onsite (node 0's too) and hops,
        # 2n + 1 floats, and the first node's four 1 x 1 arrays; the n + 2 nodes (64 kB) stay
        # with the build
        def kept(arrays) -> int:
            owners = {}
            for arr in arrays:
                while arr.base is not None:
                    arr = arr.base
                owners[id(arr)] = arr
            return sum(arr.nbytes for arr in owners.values())

        annulus._reading_grid.cache_clear()
        ham = _criterion_8_operator(0.5, 0.4, 8000)[0]
        assert annulus._reading_grid.cache_info().currsize == 1
        table = annulus._reading_grid((0.5,), ham.grid, 1.0)
        assert kept((ham.onsite, ham.hops)) == 8 * (2 * ham.grid.n + 1)
        assert kept(table) == kept((ham.onsite, ham.hops)) + 4 * 8

    def test_table_evicts_past_its_bound(self):
        annulus._reading_grid.cache_clear()
        bound = annulus._GRID_TABLES
        hams = [self._assemble(1, n) for n in range(100, 101 + bound)]
        info = annulus._reading_grid.cache_info()
        assert info.misses == bound + 1 and info.currsize == info.maxsize == bound
        # the oldest grid was evicted: built again, to the same values
        again = self._assemble(1, 100)
        assert annulus._reading_grid.cache_info().misses == bound + 2
        assert again.onsite is not hams[0].onsite
        assert np.array_equal(again.onsite, hams[0].onsite)
        assert self._assemble(1, 100 + bound).onsite is hams[-1].onsite

    @pytest.mark.parametrize("outer", [1e165, 1e200])
    def test_grid_past_the_float_range_raises_on_every_call(self, outer):
        # weight products overflow at R = 1e165, cell couplings at 1e200 (n = 100): the refusal
        # is never cached
        ext = ExtensionMatrix.from_diagonal_thetas([0.3] * 4)
        grid, g = AnnulusGrid(r0=1e-3, R=outer, n=100), g_from_u(ext, 1e-3)
        annulus._reading_grid.cache_clear()
        for calls in (1, 2):
            with pytest.raises(OverflowError, match="past the float range"):
                assemble_radial_hamiltonian(ext.params, grid, g, ext.channels)
            info = annulus._reading_grid.cache_info()
            assert info.misses == calls and info.currsize == 0


def _broken(ham: RadialHamiltonian) -> RadialHamiltonian:
    """ham with 1e-3 added to one off-diagonal entry of its first-node block: not Hermitian."""
    block = ham.block.copy()
    block[0, 1] += 1e-3
    return dataclasses.replace(ham, block=block)


def _operator(kind: str) -> RadialHamiltonian:
    """One operator from each assembly branch."""
    monopole = ModelParams()
    if kind == "extension-reading":
        # with a broken block, so that it carries a defect
        ext = random_extension(11)
        return _broken(assemble_radial_hamiltonian(monopole, AnnulusGrid(r0=0.1, R=5.0, n=150),
                                                   g_from_u(ext, 0.1), ext.channels))
    if kind == "single-channel":
        ch = ChannelSpec(m=0, nu_sq=0.25, j=0, kappa=0.0)
        g = BoundaryConditionMatrix(r0=0.01, channels=(ch,),
                                    entries=np.array([[diagonal_link_value(0.5, 0.3, 0.01, 1.0)]]))
        return assemble_radial_hamiltonian(monopole, AnnulusGrid(r0=0.01, R=10.0, n=100), g, (ch,))
    # three-point rows: an overcritical channel and three regular ones
    params = ModelParams(model="inverse_square", c=0.6)
    chans = (ChannelSpec(m=0, nu_sq=-0.35, l=0),) + tuple(
        ChannelSpec(m=m, nu_sq=1.65, l=1) for m in (-1, 0, 1))
    grid = AnnulusGrid(r0=0.05, R=10.0, n=120)
    g = BoundaryConditionMatrix(r0=0.05, channels=chans, entries=_hermitian(3)) if kind == "robin-rows" else None
    return assemble_radial_hamiltonian(params, grid, g, chans)


def _criterion_8_operator(nu: float, frac: float, n: int) -> tuple[RadialHamiltonian, float]:
    """Criterion 8's single-channel operator at theta = frac * window edge, and its analytic level."""
    r0 = 1e-3
    theta = frac * math.acos(-math.cos(math.pi * nu / 2.0))
    analytic = bound_state_energy_theta(theta, nu, 1.0)
    ch = (ChannelSpec(m=0, nu_sq=0.25, j=0, kappa=0.0) if nu == 0.5
          else ChannelSpec(m=0, nu_sq=nu * nu, j=1, kappa=-math.sqrt(2.0)))
    g = BoundaryConditionMatrix(r0=r0, channels=(ch,), entries=np.array([[diagonal_link_value(nu, theta, r0, 1.0)]]))
    grid = AnnulusGrid(r0=r0, R=40.0 / math.sqrt(-2.0 * analytic), n=n)
    return assemble_radial_hamiltonian(ModelParams(), grid, g, (ch,)), analytic


def _no_stebz(calls: Counter, stebz: bool = False):
    """A stand-in for annulus._lapack whose routines fail the test when stebz, LAPACK's bisection, runs.

    stebz=True lets it through. Each call of a routine counts in calls, by name without its type
    prefix. A trial energy of the Schur solve factors the tails once, by gttrf or by pttrf on all
    of them ("trial" counts both; pttrf's restarts past negative pivots are shorter), and with
    several channels makes one heevd. Every other routine of the extension, such as the link
    map's gesdd and gesv, is forwarded and counted the same way.
    """
    lapack = annulus._lapack()
    # the lengths pttrf was called on: the longest is all the tails
    whole: list[int] = []

    def counted(name, func):
        def call(*a, **kw):
            assert stebz or name != "stebz"
            calls[name] += 1
            if name == "pttrf":
                whole.append(len(a[0]))
            if name == "gttrf" or name == "pttrf" and whole[-1] == max(whole):
                calls["trial"] += 1
            return func(*a, **kw)
        return call
    class Routines:
        def __getattr__(self, name):
            return counted(name[1:], getattr(lapack, name))

    routines = Routines()
    return lambda: routines


def _reporting_info(name: str):
    """A stand-in for annulus._lapack whose routine of this name does its work and reports info = 1.

    That is LAPACK's report of an SVD that did not converge (gesdd) or of an exactly singular
    factor (gesv). Every other routine is the extension's own.
    """
    lapack = annulus._lapack()

    class Routines:
        def __getattr__(self, attr):
            func = getattr(lapack, attr)
            return (lambda *a, **kw: (*func(*a, **kw)[:-1], 1)) if attr == name else func

    routines = Routines()
    return lambda: routines


def _coupled_operator(seed: int, n: int) -> RadialHamiltonian:
    """The oracle_coupled shape: a Haar U over the eg = 1/2 channels, r0 = 0.01, R = 40."""
    params = ModelParams()
    ext = ExtensionMatrix(haar_unitary(seed), params)
    grid = AnnulusGrid(r0=0.01, R=40.0, n=n)
    return assemble_radial_hamiltonian(params, grid, g_from_u(ext, 0.01), ext.channels)


def _laplacian_like_operator(seed: int) -> tuple[RadialHamiltonian, int]:
    """A random operator of the assembled shape (1-4 channels, tails like a scaled Laplacian
    row), with near-degenerate, uncoupled or weakly coupled channels; and a level count k."""
    rng = np.random.default_rng(seed)
    n_ch, length, kind = int(rng.integers(1, 5)), int(rng.integers(2, 120)), int(rng.integers(4))
    scale = 10 ** rng.uniform(-2, 4)
    base = 2.0 * scale + rng.normal(size=length) * scale * 10 ** rng.uniform(-3, 0)
    onsite = np.repeat(base[:, None], n_ch, axis=1)
    hops = np.full((length, n_ch), -scale)
    if kind == 0:
        onsite += rng.normal(size=onsite.shape) * scale * 10 ** rng.uniform(-14, -6)
    elif kind == 1:
        hops[0, rng.random(n_ch) < 0.5] = 0.0
    elif kind == 2:
        hops[0] *= 10 ** rng.uniform(-10, -3)
    m = rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch))
    block = (m + m.conj().T) * scale * 10 ** rng.uniform(-2, 3)
    if rng.random() < 0.3:
        block = np.diag(np.diag(block).real).astype(complex)
    ham = RadialHamiltonian(block=block, onsite=onsite, hops=hops, grid=AnnulusGrid(r0=0.1, R=1.0, n=100))
    return ham, int(rng.integers(1, min(6, ham.size) + 1))


def _longdouble_lowest_level(ham: RadialHamiltonian) -> np.longdouble:
    """Lowest level of a single-channel operator by multisection of a Sturm count in np.longdouble.

    An energy lies above the lowest level exactly when some pivot of the LDL^T
    factorization of H - E is negative (a zero pivot counts as negative).
    """
    diag = np.concatenate((ham.block[0].real, ham.onsite[:, 0])).astype(np.longdouble)
    off2 = ham.hops[:, 0].astype(np.longdouble) ** 2
    norm = ham.norm_upper_bound()
    lo, hi = np.longdouble(-norm), np.longdouble(norm)
    while hi - lo > 4 * np.finfo(np.longdouble).eps * norm:
        energies = np.linspace(lo, hi, 33)[1:-1]
        pivot = diag[0] - energies
        above = pivot <= 0
        with np.errstate(divide="ignore"):
            for d, e2 in zip(diag[1:], off2):
                pivot = d - energies - e2 / pivot
                above |= pivot <= 0
        first = int(np.argmax(above)) if above.any() else energies.size
        lo = energies[first - 1] if first else lo
        hi = energies[first] if first < energies.size else hi
    return 0.5 * (lo + hi)


class TestOperatorContract:
    """matvec, dense, the norm and the defect describe one operator, in every assembly branch."""

    @pytest.fixture(params=["extension-reading", "robin-rows", "dirichlet-wall", "single-channel"])
    def ham(self, request) -> RadialHamiltonian:
        return _operator(request.param)

    def test_matvec_norm_and_defect_match_dense(self, ham):
        dense = ham.dense()
        assert dense.shape == (ham.size, ham.size) == ((ham.hops.shape[0] + 1) * ham.n_channels,) * 2
        norm = float(np.linalg.norm(dense, np.inf))
        rng = np.random.default_rng(5)
        x = rng.normal(size=ham.size) + 1j * rng.normal(size=ham.size)
        eps = np.finfo(float).eps
        assert_allclose(ham.matvec(x), dense @ x, rtol=0.0, atol=8 * eps * norm * np.abs(x).max())
        # a (size, m) block is m vectors at once
        block = rng.normal(size=(ham.size, 3)) + 1j * rng.normal(size=(ham.size, 3))
        assert ham.matvec(block).shape == block.shape
        assert_allclose(ham.matvec(block), dense @ block, rtol=0.0, atol=8 * eps * norm * np.abs(block).max())
        assert_allclose(ham.norm_upper_bound(), norm, rtol=4 * eps)
        assert ham.hermiticity_defect() == np.abs(dense - dense.conj().T).max()

    def test_solver_vectors_are_unit_eigenvectors(self, ham):
        # the solver reads the block's lower triangle and the real part of its diagonal
        dense = ham.dense()
        seen = np.tril(dense, -1)
        seen += seen.conj().T + np.diag(dense.diagonal().real)
        norm = ham.norm_upper_bound()
        vals, vecs = annulus._schur_eigenpairs(ham, 5, norm)
        assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0.0, atol=1e-14)
        assert np.linalg.norm(seen @ vecs - vecs * vals, axis=0).max() <= 1e-12 * norm

    def test_k_range_has_one_message(self, ham):
        # True would otherwise give one level from a dense matrix
        for k in (0, ham.size + 1, 1.5, True):
            with pytest.raises(ValueError, match="dimension") as structured:
                oracle_spectrum(ham, k)
            with pytest.raises(ValueError, match="dimension") as dense:
                oracle_spectrum(ham.dense(), k)
            assert str(structured.value) == str(dense.value)


class TestOracleSpectrum:
    def test_dense_diagonal(self):
        got = oracle_spectrum(np.diag([3.0, 1.0]), 2)
        assert_allclose(got, [1.0, 3.0], rtol=1e-14)

    def test_dense_validation(self):
        with pytest.raises(ValueError, match="k"):
            oracle_spectrum(np.eye(3), 0)
        assert_allclose(oracle_spectrum(np.diag([3.0, 1.0, 2.0]), np.int64(2)), [1.0, 2.0], rtol=1e-14)
        with pytest.raises(ValueError, match="dimension"):
            oracle_spectrum(np.eye(3), 4)
        with pytest.raises(ValueError, match="square"):
            oracle_spectrum(np.ones((2, 3)), 1)
        bad = np.eye(3, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            oracle_spectrum(bad, 1)

    def test_nan_operator_is_past_the_float_range(self):
        # one NaN tail entry: the norm bound is NaN, not the largest finite row sum, and the
        # solve refuses it before the Hermiticity gate
        ham = RadialHamiltonian(block=np.array([[3.0 + 0.0j]]), onsite=np.array([[1.0], [np.nan]]),
                                hops=np.zeros((2, 1)), grid=AnnulusGrid(r0=0.1, R=1.0, n=100))
        assert math.isnan(ham.norm_upper_bound())
        with pytest.raises(OverflowError, match="float range"):
            oracle_spectrum(ham, 1)

    def test_recovers_analytic_bound_state(self, monopole):
        # the finite-difference spectrum knows only the Robin data, yet
        # must land on the analytic ground level at -mu
        ch = ChannelSpec(m=0, nu_sq=0.25, j=0, kappa=0.0)
        gval = diagonal_link_value(0.5, 0.0, 1e-3, monopole.deficiency_scale)
        g = BoundaryConditionMatrix(r0=1e-3, channels=(ch,),
                                    entries=np.array([[gval]]))
        grid = AnnulusGrid(r0=1e-3, R=40.0, n=8000)
        ham = assemble_radial_hamiltonian(monopole, grid, g, (ch,))
        lowest = oracle_spectrum(ham, 1)[0]
        assert_allclose(lowest, -monopole.mu, rtol=1e-2)

    def test_banded_matches_dense_solver(self, monopole):
        # a Haar U at two sizes, the identity (the three j = 1 channels give a triple
        # ground level) and the Dirac-consistent value in those channels (degenerate
        # pairs above threshold); the dense solve at n = 400 takes about 1 s, so once
        haar = random_extension(11).entries
        u_edge = dirac_consistent_value(NU_EDGE)
        cases = ((haar, 150), (haar, 400), (np.eye(4), 150), (np.diag([1.0, u_edge, u_edge, u_edge]), 150))
        for u, n in cases:
            ext = ExtensionMatrix(u, monopole)
            grid = AnnulusGrid(r0=0.1, R=8.0, n=n)
            ham = assemble_radial_hamiltonian(monopole, grid, g_from_u(ext, 0.1), ext.channels)
            banded = oracle_spectrum(ham, 4)
            full = scipy.linalg.eigh(ham.dense(), eigvals_only=True, subset_by_index=(0, 3))
            assert_allclose(banded, full, atol=1e-10)

    def test_residual_check_catches_wrong_levels(self, monopole, monkeypatch):
        # levels 0.1 ||H|| below the spectrum: no unit vector has a residual under 0.1 ||H||
        ext = random_extension(3)
        grid = AnnulusGrid(r0=0.1, R=5.0, n=200)
        ham = assemble_radial_hamiltonian(monopole, grid, g_from_u(ext, 0.1), ext.channels)
        right, vecs = annulus._schur_eigenpairs(ham, 2, ham.norm_upper_bound())
        assert_allclose(oracle_spectrum(ham, 2), right, rtol=0.0, atol=0.0)  # the true pairs pass
        wrong = right - 0.1 * ham.norm_upper_bound()
        assert wrong.max() < right[0]
        monkeypatch.setattr(annulus, "_schur_eigenpairs", lambda operator, k, norm: (wrong, vecs))
        with pytest.raises(ArithmeticError, match="residual"):
            oracle_spectrum(ham, 2)

    def test_exact_eigenvalue_gets_its_vector(self):
        # zero hops and a diagonal block: 2 and 5 are roots of the Schur complement and 3 is
        # a tail level, which the bracket closes on; the complement does not see that level, so
        # its vector comes from inverse iteration, moved off the exact zero pivot of T - 3
        grid = AnnulusGrid(r0=0.1, R=1.0, n=100)
        ham = RadialHamiltonian(block=np.diag([5.0, 2.0]).astype(complex),
                                onsite=np.array([[7.0, 3.0], [11.0, 13.0]]), hops=np.zeros((2, 2)), grid=grid)
        assert_allclose(oracle_spectrum(ham, 3), [2.0, 3.0, 5.0], rtol=0.0, atol=0.0)

    def test_single_channel_levels_match_dense(self):
        # levels past the lowest tail level, where the count restarts past negative pivots
        params = ModelParams(model="inverse_square", c=0.6)
        ch = ChannelSpec(m=0, nu_sq=1.65, l=1)
        g = BoundaryConditionMatrix(r0=0.05, channels=(ch,), entries=np.array([[0.7]]))
        three_point = assemble_radial_hamiltonian(params, AnnulusGrid(r0=0.05, R=10.0, n=120), g, (ch,))
        for ham in (_operator("single-channel"), three_point):
            full = scipy.linalg.eigh(ham.dense(), eigvals_only=True, subset_by_index=(0, 4))
            assert_allclose(oracle_spectrum(ham, 5), full, rtol=0.0, atol=1e-10)

    def test_single_channel_tail_level_is_returned_exactly(self):
        # zero hops: the lowest level is the tail's 3, below the block's 5
        ham = RadialHamiltonian(block=np.array([[5.0 + 0.0j]]), onsite=np.array([[3.0], [7.0]]),
                                hops=np.zeros((2, 1)), grid=AnnulusGrid(r0=0.1, R=1.0, n=100))
        assert oracle_spectrum(ham, 1)[0] == 3.0
        assert_allclose(oracle_spectrum(ham, 3), [3.0, 5.0, 7.0], rtol=0.0, atol=0.0)

    def test_one_node_tail_under_the_norm_bound(self):
        # the top level 3.7 is ||H||_inf, which no trial energy probes: its bracket closes under
        # that bound, and the one-node tail (level 3) holds no level there
        ham = RadialHamiltonian(block=np.array([[3.0 + 0.0j]]), onsite=np.array([[3.0]]), hops=np.array([[0.7]]),
                                grid=AnnulusGrid(r0=0.1, R=1.0, n=100))
        assert ham.norm_upper_bound() == 3.7
        assert_allclose(oracle_spectrum(ham, 2), [2.3, 3.7], rtol=0.0, atol=2 * np.finfo(float).eps * 3.7)

    def test_decoupled_one_node_tail(self):
        # zero hop: the tail's one level, 3, is a level of H that the complement does not see, so
        # its vector comes from inverse iteration on the one-node tail
        for block, levels in ((5.0, [3.0, 5.0]), (1.0, [1.0, 3.0])):
            ham = RadialHamiltonian(block=np.array([[block + 0.0j]]), onsite=np.array([[3.0]]), hops=np.zeros((1, 1)),
                                    grid=AnnulusGrid(r0=0.1, R=1.0, n=100))
            assert_allclose(oracle_spectrum(ham, 2), levels, rtol=0.0, atol=0.0)

    def test_probe_on_a_tail_level_moves_off_it(self):
        # zero hops and a tail level at 0, where the first probe lands: its pivot vanishes
        ham = RadialHamiltonian(block=np.array([[5.0 + 0.0j]]), onsite=np.array([[0.0], [7.0]]),
                                hops=np.zeros((2, 1)), grid=AnnulusGrid(r0=0.1, R=1.0, n=100))
        assert_allclose(oracle_spectrum(ham, 3), [0.0, 5.0, 7.0], rtol=0.0, atol=0.0)

    def test_lowest_level_needs_no_tail_bisection(self, monkeypatch):
        # the count is a Sturm count of the factorization's pivots, so no tail level is needed
        ham, analytic = _criterion_8_operator(0.5, 0.4, 2000)
        calls = Counter()
        monkeypatch.setattr(annulus, "_lapack", _no_stebz(calls))
        assert_allclose(oracle_spectrum(ham, 1), analytic, rtol=1e-3)
        assert calls["trial"] > 0

    @pytest.mark.parametrize("nu", [0.5, NU_EDGE])
    def test_excited_levels_need_no_tail_bisection(self, nu, monkeypatch):
        # each level past the first lies just above a tail level, and the pole model steps to it
        ham, _ = _criterion_8_operator(nu, 0.8, 2000)
        norm = ham.norm_upper_bound()
        full = scipy.linalg.eigh_tridiagonal(
            np.concatenate((ham.block[0].real, ham.onsite[:, 0])), ham.hops[:, 0],
            eigvals_only=True, select="i", select_range=(0, 3))
        calls = Counter()
        monkeypatch.setattr(annulus, "_lapack", _no_stebz(calls))
        assert_allclose(oracle_spectrum(ham, 4), full, rtol=0.0, atol=2 * np.finfo(float).eps * norm)
        # at most 32 trial energies for the 4 levels, with no pass for their vectors; bisecting
        # to each level takes about 50
        assert 0 < calls["trial"] <= 32

    @pytest.mark.parametrize("nu", [0.5, NU_EDGE])
    def test_lowest_level_against_extended_precision_bisection(self, nu):
        # criterion 8's operator at theta = 0.4 edge; the reference bisects a Sturm count in
        # np.longdouble, a wider type than the solve's doubles where the platform has one
        ham, _ = _criterion_8_operator(nu, 0.4, 8000)
        norm = ham.norm_upper_bound()
        lowest = oracle_spectrum(ham, 1)[0]
        assert abs(lowest - _longdouble_lowest_level(ham)) <= 2 * np.finfo(float).eps * norm

    def test_schur_solve_matches_dense_across_channel_sets(self):
        # one order in every channel (eg = 1, 3/2, 2), and the three-point rows: an
        # overcritical channel under a random Hermitian g, and the Dirichlet wall
        cases = []
        for eg in (1.0, 1.5, 2.0):
            params = ModelParams(eg=eg)
            ext = ExtensionMatrix(haar_unitary(2, int(2 * eg)), params)
            grid = AnnulusGrid(r0=0.01, R=20.0, n=150)
            cases.append(assemble_radial_hamiltonian(params, grid, g_from_u(ext, 0.01), ext.channels))
        params = ModelParams(model="inverse_square", c=0.6)
        chans = (ChannelSpec(m=0, nu_sq=-0.35, l=0),) + tuple(
            ChannelSpec(m=m, nu_sq=1.65, l=1) for m in (-1, 0, 1))
        grid = AnnulusGrid(r0=0.05, R=10.0, n=150)
        g = BoundaryConditionMatrix(r0=0.05, channels=chans, entries=_hermitian(3))
        cases += [assemble_radial_hamiltonian(params, grid, g, chans),
                  assemble_radial_hamiltonian(params, grid, None, chans)]
        for ham in cases:
            full = scipy.linalg.eigh(ham.dense(), eigvals_only=True, subset_by_index=(0, 5))
            assert_allclose(oracle_spectrum(ham, 6), full, rtol=0.0, atol=1e-10)

    # 871: a bracket that the count's rounding closed to zero width on a tail level; 1622: a
    # level on the tail level of a channel the block does not couple, where S is huge; 2624:
    # a probe on a tail level of near-degenerate channels; 339: the largest vector residual
    # of seeds 0-599, 9.8e-11 ||H||
    @pytest.mark.parametrize("seed", [871, 1622, 2624, 339, *range(20)])
    def test_random_operators_match_dense(self, seed):
        ham, k = _laplacian_like_operator(seed)
        dense = ham.dense()
        norm = ham.norm_upper_bound()
        full = scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=(0, k - 1))
        tol = 32 * np.finfo(float).eps * norm
        assert np.abs(oracle_spectrum(ham, k) - full).max() <= tol
        # each vector, whichever of its sources the solve took, within the bound that it checks
        vals, vecs = annulus._schur_eigenpairs(ham, k, norm)
        assert np.linalg.norm(dense @ vecs - vecs * vals, axis=0).max() <= 1e-10 * norm

    def test_levels_past_a_nearly_decoupled_tail_level(self, monkeypatch):
        # three nu^2 = 3.5 channels hide a triple tail level behind their barrier, so H has
        # a level within about eps ||H|| of it; the next levels lie far above, where a Newton
        # step taken right next to the pole is tiny only because the slope is huge
        params = ModelParams(model="inverse_square", c=0.6)
        chans = tuple(ChannelSpec(m=m, nu_sq=nu, l=0) for m, nu in enumerate((3.5, 3.5, 0.09, 3.5)))
        grid = AnnulusGrid(r0=3e-3, R=10.0, n=177)
        g = BoundaryConditionMatrix(r0=3e-3, channels=chans, entries=100.0 * _hermitian(2))
        ham = assemble_radial_hamiltonian(params, grid, g, chans)
        full = scipy.linalg.eigh(ham.dense(), eigvals_only=True, subset_by_index=(0, 10))
        calls = Counter()
        monkeypatch.setattr(annulus, "_lapack", _no_stebz(calls, stebz=True))
        assert np.abs(oracle_spectrum(ham, 11) - full).max() <= 1e-13 * ham.norm_upper_bound()
        # at most 84 trial energies, one heevd each, about 8 a level; the levels next to the
        # nearly decoupled tail level take some 30 of them, most the bracket's middle
        assert calls["trial"] > 0
        assert calls["heevd"] <= 84

    @pytest.mark.parametrize("k", [4, 12])
    def test_coupled_solve_takes_a_few_trial_energies_a_level(self, k, monkeypatch):
        # the oracle_coupled shape: at most 8 trial energies a level whatever k, and at most 7
        # of them with S's eigenpairs (one heevd each; the rest have the count alone)
        for seed in (1, 2, 3):
            ham = _coupled_operator(seed, 100)
            full = scipy.linalg.eigh(ham.dense(), eigvals_only=True, subset_by_index=(0, k - 1))
            calls = Counter()
            monkeypatch.setattr(annulus, "_lapack", _no_stebz(calls))
            assert_allclose(oracle_spectrum(ham, k), full, rtol=0.0, atol=1e-10)
            monkeypatch.undo()
            assert 0 < calls["trial"] <= 8 * k
            assert calls["heevd"] <= 7 * k

    def test_lapack_calls_grow_linearly_in_k(self, monkeypatch):
        # one tail factorization a trial energy, however many tail levels lie below it (pttrf's
        # restarts, past a few of them, count as calls of their own)
        ham, _ = _criterion_8_operator(0.5, 0.0, 100)
        factorizations, trials = {}, {}
        for k in (4, 12):
            calls = Counter()
            monkeypatch.setattr(annulus, "_lapack", _no_stebz(calls))
            oracle_spectrum(ham, k)
            monkeypatch.undo()
            factorizations[k], trials[k] = calls["pttrf"] + calls["gttrf"], calls["trial"]
        assert 0 < factorizations[4]
        assert factorizations[12] <= 3.5 * factorizations[4]
        # the single-channel solve at n = 100: at most 30 trial energies for 4 levels
        assert trials[4] <= 30

    def test_channels_of_one_order_share_one_tail(self):
        # eg = 1/2: one nu = 1/2 channel and three of nu = sqrt(2) - 1/2, whose tails are one
        for seed in (1, 2):
            ham = _coupled_operator(seed, 100)
            distinct, which = annulus._distinct_tails(ham)
            assert distinct == [0, 1]
            assert which.tolist() == [0, 1, 1, 1]
        ham, _ = _criterion_8_operator(0.5, 0.4, 100)
        assert annulus._distinct_tails(ham)[0] == [0]

    def test_three_point_rows_share_a_tail_only_at_one_coupling(self):
        # the three-point rows carry coupling / (2 mu r^2): channels of one coupling share their
        # tail, distinct couplings do not, though every hop is the same
        params = ModelParams(model="inverse_square", c=0.0)
        grid = AnnulusGrid(r0=0.05, R=10.0, n=120)
        chans = tuple(ChannelSpec(m=0, nu_sq=nu_sq, l=0) for nu_sq in (1.65, 2.5, 1.65, 4.0))
        ham = assemble_radial_hamiltonian(params, grid, None, chans)
        distinct, which = annulus._distinct_tails(ham)
        assert distinct == [0, 1, 3]
        assert which.tolist() == [0, 1, 0, 2]
        ham = _operator("robin-rows")
        assert annulus._distinct_tails(ham)[1].tolist() == [0, 1, 1, 1]

    @pytest.mark.parametrize("n_ch", [1, 2])
    def test_tail_states_decoupled_to_working_precision(self, n_ch):
        # hops down to 1e-8 split each tail into nearly isolated pieces, whose states reach
        # node 0 below working precision: the Schur complement does not see them
        rng = np.random.default_rng(n_ch)
        block = rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch))
        hops = rng.normal(size=(120, n_ch)) * 10.0 ** rng.uniform(-8.0, 0.0, size=(120, n_ch))
        ham = RadialHamiltonian(block=block + block.conj().T, onsite=3.0 * rng.normal(size=(120, n_ch)),
                                hops=hops, grid=AnnulusGrid(r0=0.1, R=1.0, n=100))
        norm = ham.norm_upper_bound()
        vals, vecs = annulus._schur_eigenpairs(ham, 6, norm)
        dense = ham.dense()
        full = scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=(0, 5))
        assert np.abs(vals - full).max() <= 16 * np.finfo(float).eps * norm
        assert np.linalg.norm(dense @ vecs - vecs * vals, axis=0).max() <= 1e-10 * norm

    def test_refuses_broken_operator(self, monopole):
        ext = random_extension(3)
        grid = AnnulusGrid(r0=0.1, R=5.0, n=200)
        ham = _broken(assemble_radial_hamiltonian(monopole, grid, g_from_u(ext, 0.1), ext.channels))
        with pytest.raises(ValueError, match="Hermitian"):
            oracle_spectrum(ham, 1)

    def test_regular_channel_forgets_boundary(self):
        # a channel with nu > 1 never sees the r0 condition in the limit:
        # its lowest level is insensitive to the Robin value g
        params = ModelParams(model="inverse_square", c=0.5)
        ch = ChannelSpec(m=0, nu_sq=1.75, l=1)
        grid = AnnulusGrid(r0=1e-4, R=1.0, n=2000)
        levels = []
        for gval in (-10.0, 0.0, 10.0):
            g = BoundaryConditionMatrix(
                r0=1e-4, channels=(ch,),
                entries=np.array([[gval]], dtype=complex))
            ham = assemble_radial_hamiltonian(params, grid, g, (ch,))
            levels.append(oracle_spectrum(ham, 1)[0])
        spread = max(levels) - min(levels)
        assert spread <= 1e-6 * abs(levels[1])


def _traced_peak(build, k: int, label: str) -> int:
    """tracemalloc's peak over assembling an operator and oracle_spectrum on it, printed.

    The K-profile tables are warm and the grid table cold, so the peak covers building the tails.
    """
    oracle_spectrum(build(), k)
    annulus._reading_grid.cache_clear()
    tracemalloc.start()
    try:
        oracle_spectrum(build(), k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"{label}: tracemalloc peak {peak / 1e6:.3f} MB")
    return peak


def _haar_operator(n: int) -> RadialHamiltonian:
    """The CI's k = 12 oracle: Haar seed 1 over the eg = 1/2 channels, r0 = 1e-3, R = 40."""
    ext = ExtensionMatrix(haar_unitary(1), ModelParams())
    return assemble_radial_hamiltonian(ext.params, AnnulusGrid(r0=1e-3, R=40.0, n=n), g_from_u(ext, 1e-3),
                                       ext.channels)


class TestAllocation:
    """What one oracle op allocates: assembly, the solve and the residual check; and the solve alone.

    The bounds sit some 10% above the peaks measured with numpy 2.4 (0.71, 1.29, 4.90 and
    1.10 MB, and 2.07 MB for the solve alone), which had been 0.91, 1.80, 4.90 and 1.10 MB
    while every trial energy's tail solutions were kept to the end of the solve, and 1.17,
    6.43 and 1.40 MB with the temporaries of whole-array expressions. Each test prints its
    peaks.
    """

    def test_criterion_8_single_channel(self):
        # n = 8000: about 0.19 MB kept by the operator, 0.13 MB by the vector, the tail solutions
        # of the level's latest trial energy and of the one being formed (64 kB each), and the
        # residual's buffer and scratch
        for nu in (0.5, NU_EDGE):
            peak = _traced_peak(lambda: _criterion_8_operator(nu, 0.4, 8000)[0], 1, f"nu = {nu:.4f}, n = 8000")
            assert peak < 0.8e6

    def test_criterion_8_single_channel_at_n_16000(self):
        # the ladder's doubled grid, every part twice as large; five or six trial energies keep
        # a state, and only the latest one's tail solutions are held while the next is formed
        for nu in (0.5, NU_EDGE):
            peak = _traced_peak(lambda: _criterion_8_operator(nu, 0.4, 16000)[0], 1, f"nu = {nu:.4f}, n = 16000")
            assert peak < 1.42e6

    def test_coupled_haar_at_k_12(self):
        # n = 2000: the twelve vectors (1.5 MB) with the residual's buffer and scratch of their
        # size are most of it; the solve alone peaks at about 2.1 MB (the next test)
        assert _traced_peak(lambda: _haar_operator(2000), 12, "Haar U, k = 12, n = 2000") < 5.4e6

    def test_coupled_haar_at_k_12_solve_alone(self):
        # the op peak above is set after the solve, by the residual's arrays, so it cannot see
        # the solve's own memory: here the twelve vectors, the tail solutions that the unsolved
        # levels keep and the workspaces, 2.07 MB
        ham = _haar_operator(2000)
        norm = ham.norm_upper_bound()
        tracemalloc.start()
        try:
            annulus._schur_eigenpairs(ham, 12, norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"Haar U, k = 12, n = 2000, the solve alone: tracemalloc peak {peak / 1e6:.3f} MB")
        assert peak < 2.3e6

    def test_coupled_haar_through_gttrf(self, monkeypatch):
        # n = 400: past 2 + size / 400 expected tail levels a trial energy goes through gttrf,
        # which writes its pivots over the same workspace as pttrf
        calls = Counter()
        monkeypatch.setattr(annulus, "_lapack", _no_stebz(calls, stebz=True))
        oracle_spectrum(_haar_operator(400), 12)
        monkeypatch.undo()
        assert calls["gttrf"] > 0
        assert _traced_peak(lambda: _haar_operator(400), 12, "Haar U, k = 12, n = 400") < 1.2e6


class TestBoundaryFlux:
    def test_single_channel_real_value(self, monopole):
        from radext.extensions import canonical_channels

        chans = canonical_channels(monopole)
        ents = np.diag([2.5, -1.0, 0.3, 4.0]).astype(complex)
        g = BoundaryConditionMatrix(r0=0.1, channels=chans, entries=ents)
        psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        report = boundary_flux(g, psi)
        assert isinstance(report, FluxReport)
        assert_allclose(report.per_channel[0], 2.5, rtol=1e-15)
        assert_allclose(report.total, 2.5, rtol=1e-15)

    def test_total_real_for_hermitian_g(self):
        ext = random_extension(2)
        g = g_from_u(ext, 0.1)
        gnorm = float(np.abs(g.entries).max())
        rng = np.random.default_rng(42)
        for _ in range(100):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            report = boundary_flux(g, psi)
            norm_sq = float(np.vdot(psi, psi).real)
            assert abs(report.total.imag) <= 1e-12 * norm_sq * gnorm

    def test_channel_exchange_shows_in_per_channel(self, swap_ext):
        g = g_from_u(swap_ext, 0.1)
        psi = np.array([1.0, 1.0j, 0.0, 0.0])
        report = boundary_flux(g, psi)
        # off-diagonal g moves probability between channels: per-channel
        # values pick up imaginary parts that cancel in the total
        assert np.abs(report.per_channel.imag).max() > 1e-3
        assert abs(report.total.imag) <= 1e-12 * float(np.abs(g.entries).max())

    def test_shape_validation(self, identity_ext):
        g = g_from_u(identity_ext, 0.1)
        with pytest.raises(ValueError, match="shape"):
            boundary_flux(g, np.ones(3))


class TestR0LimitScan:
    # converged reference rows for the swap extension, scale = mu = 1
    _SWAP_GMAX = [14.810374314084, 141.5664266257, 1414.2400144118]
    _SWAP_OFF = [0.743506996187, 0.397242590421, 0.175120764939]

    def test_identity_grows_and_stays_diagonal(self, identity_ext):
        res = r0_limit_scan(identity_ext, [1e-1, 1e-2, 1e-3])
        assert res.breakdown_r0 is None
        gmax = [row.gmax for row in res.rows]
        assert gmax[0] < gmax[1] < gmax[2]
        assert all(row.offdiag_norm == 0.0 for row in res.rows)

    def test_diagonal_extension_no_mixing(self, monopole):
        ext = ExtensionMatrix.from_diagonal_thetas([0.4, -0.9, 1.3, 2.2], monopole)
        res = r0_limit_scan(ext, [1e-1, 1e-2, 1e-3])
        assert all(row.offdiag_norm == 0.0 for row in res.rows)

    def test_swap_rows(self, swap_ext):
        res = r0_limit_scan(swap_ext, [1e-1, 1e-2, 1e-3])
        gmax = [row.gmax for row in res.rows]
        off = [row.offdiag_norm for row in res.rows]
        assert gmax[0] < gmax[1] < gmax[2]
        # the mixing amplitude fades as r0^(nu + nu' - 1) while the
        # diagonal blocks blow up; both trends belong to the same limit
        assert off[0] > off[1] > off[2]
        assert_allclose(gmax, self._SWAP_GMAX, rtol=1e-9)
        assert_allclose(off, self._SWAP_OFF, rtol=1e-9)

    def test_breakdown_is_recorded(self):
        ext = random_extension(7)
        res = r0_limit_scan(ext, [1e-1, 1e-3, 1e-6])
        assert len(res.rows) == 2
        assert res.breakdown_r0 == 1e-6

    def test_cancelled_exterior_norm_is_a_breakdown(self, identity_ext):
        # the identity keeps g Hermitian down to radii where the exterior norm's two terms
        # cancel past working precision: that radius is a breakdown, like a tripped gate
        with pytest.raises(LinkBreakdownError, match="exterior norm"):
            g_from_u(identity_ext, 1e-100)
        res = r0_limit_scan(identity_ext, [1e-1, 1e-100])
        assert len(res.rows) == 1
        assert res.breakdown_r0 == 1e-100

    def test_underflow_is_not_a_breakdown(self, identity_ext):
        # K_nu underflowing at r0 = 800 is a value past the float range, not the link map
        # leaving working precision: it propagates instead of ending the scan
        with pytest.raises(ArithmeticError, match="exterior norm") as info:
            r0_limit_scan(identity_ext, [0.1, 800.0])
        assert not isinstance(info.value, LinkBreakdownError)

    def test_scale_past_the_float_range_is_not_a_breakdown(self):
        # at s = 1e300 the exterior norm's a^2 - b^2 overflows to NaN: a value past the
        # float range, which propagates instead of reading as a breakdown radius
        ext = ExtensionMatrix(np.eye(4), ModelParams(deficiency_scale=1e300))
        for call in (lambda: g_from_u(ext, 0.1), lambda: r0_limit_scan(ext, [0.1])):
            with pytest.raises(ArithmeticError, match="exterior norm left the float range") as info:
                call()
            assert not isinstance(info.value, LinkBreakdownError)

    def test_radius_validation(self, identity_ext):
        with pytest.raises(ValueError, match="positive"):
            r0_limit_scan(identity_ext, [0.1, -0.2])
        # an infinite radius is refused, not recorded as the breakdown radius
        with pytest.raises(ValueError, match="finite"):
            r0_limit_scan(identity_ext, [0.1, math.inf])


class TestExtensionReading:
    """The oracle reads g over singular channels as the link value of an extension."""

    def test_u_from_g_inverts_the_link_map(self):
        for seed in range(10):
            ext = random_extension(seed)
            for r0 in (0.1, 1e-3):
                u = u_from_g(g_from_u(ext, r0), ext.params.deficiency_scale)
                assert np.abs(u - ext.entries).max() <= 1e-9
                a, b = origin_pairs(u, ext.channels, ext.params.deficiency_scale)
                two_nu = np.array([2.0 * ch.nu for ch in ext.channels])
                q = two_nu[:, None] * b @ np.linalg.inv(a)
                assert np.abs(q - q.conj().T).max() <= 1e-9 * np.abs(q).max()

    def test_first_node_sits_near_the_origin(self, monopole):
        ext = random_extension(4)
        grid = AnnulusGrid(r0=0.1, R=5.0, n=200)
        ham = assemble_radial_hamiltonian(monopole, grid, g_from_u(ext, 0.1), ext.channels)
        # node 0 at r1/16, then the grid's n interior points: one unknown per node and channel.
        # test_extension_reading_is_its_plain_formulas_bit_for_bit checks every entry those nodes
        # give; node 0's place shows here in the coupling 2 nu / r^(2 nu) of the sub-cell [0, r1/16]
        assert ham.size == 4 * (grid.n + 1)
        orders = tuple(ch.nu for ch in ext.channels)
        t = 2.0 * np.array(orders)
        inner = annulus._reading_grid(orders, grid, monopole.mu).inner
        assert_allclose(inner, t / ((grid.r0 + grid.h) / 16.0) ** t, rtol=1e-14)

    def test_dirac_consistent_channel_has_the_regular_spectrum(self, monopole):
        # the Dirac-consistent value keeps only r^(1/2 + nu) at the origin (A = 0, Q
        # infinite): the levels are those of sqrt(r) J_nu(k r) with J_nu(k R) = 0
        ch = ChannelSpec(m=0, nu_sq=NU_EDGE * NU_EDGE, j=1, kappa=-math.sqrt(2.0))
        theta = float(np.angle(dirac_consistent_value(NU_EDGE)))
        gval = diagonal_link_value(NU_EDGE, theta, 1e-3, monopole.deficiency_scale)
        g = BoundaryConditionMatrix(r0=1e-3, channels=(ch,), entries=np.array([[gval.real]]))
        grid = AnnulusGrid(r0=1e-3, R=40.0, n=8000)
        lowest = oracle_spectrum(assemble_radial_hamiltonian(monopole, grid, g, (ch,)), 1)[0]
        lo, hi = 2.0, 5.0  # bisect the first zero of J_nu
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if bessel_j(NU_EDGE, mid) > 0.0 else (lo, mid)
        assert_allclose(lowest, (lo / grid.R) ** 2 / (2.0 * monopole.mu), rtol=1e-5)

    def test_bound_states_across_orders(self):
        # inverse-square channels cover orders the monopole lacks, down to nu = 0.1
        params = ModelParams(model="inverse_square", c=0.0)
        for nu in (0.1, 0.387, 0.7, 0.99):
            ch = ChannelSpec(m=0, nu_sq=nu * nu, l=0)
            theta = 0.5 * math.acos(-math.cos(math.pi * nu / 2.0))
            analytic = bound_state_energy_theta(theta, nu, params.mu)
            gval = diagonal_link_value(nu, theta, 1e-3, params.deficiency_scale)
            g = BoundaryConditionMatrix(r0=1e-3, channels=(ch,), entries=np.array([[gval.real]]))
            grid = AnnulusGrid(r0=1e-3, R=40.0 / math.sqrt(-2.0 * params.mu * analytic), n=8000)
            lowest = oracle_spectrum(assemble_radial_hamiltonian(params, grid, g, (ch,)), 1)[0]
            assert_allclose(lowest, analytic, rtol=5e-4)

    def test_channels_must_be_those_of_g(self, monopole):
        ext = ExtensionMatrix.from_diagonal_thetas([0.3, 1.1, -0.4, 0.9], monopole)
        g = g_from_u(ext, 0.01)
        g0 = BoundaryConditionMatrix(r0=0.01, channels=ext.channels[:1], entries=g.entries[:1, :1])
        grid = AnnulusGrid(r0=0.01, R=10.0, n=150)
        with pytest.raises(ValueError, match="channels"):
            assemble_radial_hamiltonian(monopole, grid, g0, ext.channels[1:2])

    def test_diagonal_u_is_the_union_of_single_channels(self, monopole):
        ext = ExtensionMatrix.from_diagonal_thetas([0.3, 1.1, -0.4, 0.9], monopole)
        g = g_from_u(ext, 0.01)
        grid = AnnulusGrid(r0=0.01, R=10.0, n=150)
        coupled = oracle_spectrum(assemble_radial_hamiltonian(monopole, grid, g, ext.channels), 4)
        single = []
        for idx, ch in enumerate(ext.channels):
            g1 = BoundaryConditionMatrix(r0=0.01, channels=(ch,),
                                         entries=g.entries[idx:idx + 1, idx:idx + 1])
            single.extend(oracle_spectrum(assemble_radial_hamiltonian(monopole, grid, g1, (ch,)), 4))
        union = np.sort(single)[:4]
        assert_allclose(coupled, union, rtol=1e-8)

    def test_rotation_among_equal_orders_keeps_the_spectrum(self, monopole):
        # channels 1-3 share nu, so U -> V U V^dag on that block is a symmetry of
        # the radial problem; a conjugated or misread U would move the levels
        thetas = [0.3, 1.1, -0.4, 0.9]
        diag = np.diag(np.exp(1j * np.array(thetas)))
        rot = np.eye(4, dtype=complex)
        rot[1:, 1:] = haar_unitary(5, 3)
        mixed = ExtensionMatrix(rot @ diag @ rot.conj().T, monopole)
        grid = AnnulusGrid(r0=0.01, R=10.0, n=150)
        levels = []
        for ext in (ExtensionMatrix(diag, monopole), mixed):
            g = g_from_u(ext, 0.01)
            levels.append(oracle_spectrum(assemble_radial_hamiltonian(monopole, grid, g, ext.channels), 4))
        assert np.abs(mixed.entries[1:, 1:] - np.diag(np.diag(mixed.entries[1:, 1:]))).max() > 0.1
        assert_allclose(levels[1], levels[0], rtol=1e-8)
        # and the levels are the extension's four bound states, to the coarse grid's accuracy
        analytic = sorted(bound_state_energy_theta(t, ch.nu, monopole.mu)
                          for t, ch in zip(thetas, mixed.channels))
        assert_allclose(levels[0], analytic, rtol=1e-2)

    @staticmethod
    def _levels(u, params, n=400):
        ext = ExtensionMatrix(u, params)
        grid = AnnulusGrid(r0=1e-2, R=40.0, n=n)
        return oracle_spectrum(assemble_radial_hamiltonian(params, grid, g_from_u(ext, 1e-2), ext.channels), 6)

    @staticmethod
    def _order_block_unitary(seed, eg):
        """Haar W inside each equal-order block: U(1) x U(3) at eg = 1/2, U(2 eg) above."""
        if eg >= 1.0:
            return haar_unitary(seed + 10, int(2 * eg))
        w = np.zeros((4, 4), dtype=complex)
        w[0, 0] = haar_unitary(seed + 10, 1)[0, 0]
        w[1:, 1:] = haar_unitary(seed + 20, 3)
        return w

    @pytest.mark.parametrize("eg", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_transpose_and_order_block_rotation_keep_the_spectrum(self, eg, seed):
        # the radial problem is real, and a unitary W that mixes only channels of one order
        # commutes with it: H_(U^T) and H_(W^H U W) have the levels of H_U (worst 2.9e-12)
        params = ModelParams(eg=eg)
        u = random_extension(seed, params).entries
        w = self._order_block_unitary(seed, eg)
        base = self._levels(u, params)
        for other in (u.T, w.conj().T @ u @ w):
            assert_allclose(self._levels(other, params), base, rtol=1e-10)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_conjugate_and_order_mixing_move_the_spectrum(self, monopole, seed):
        # the controls that the equivalences above could have missed: conj(U), and a W that
        # mixes the two orders at eg = 1/2, move the levels far past the grid's own error
        u = haar_unitary(seed)
        w = haar_unitary(seed + 30)
        base = self._levels(u, monopole)

        def shift(levels):
            return float(np.max(np.abs(levels - base) / np.abs(base)))

        grid_error = shift(self._levels(u, monopole, n=800))
        assert grid_error <= 5e-3
        assert shift(self._levels(u.conj(), monopole)) >= 0.5
        assert shift(self._levels(w.conj().T @ u @ w, monopole)) >= 3e-2

    def test_mixed_orders_match_the_continuum_condition(self, monopole):
        # a bound state at E = -lam^2 / (2 mu) is sum_ch c_ch K_nu(lam r) sqrt(r); its pairs
        # A = alpha c, B = beta c meet diag(2 nu) B = Q A, so det(diag(2 nu beta / alpha) - Q) = 0
        ext = random_extension(1)
        nus = np.array([ch.nu for ch in ext.channels])
        a, b = origin_pairs(ext.entries, ext.channels, monopole.deficiency_scale)
        q = 2.0 * nus[:, None] * b @ np.linalg.inv(a)

        def det(energy):
            lam = math.sqrt(-2.0 * monopole.mu * energy)
            ratio = [gamma_fn(-nu) / gamma_fn(nu) * (lam / 2.0) ** (2.0 * nu) for nu in nus]
            return np.linalg.det(np.diag(2.0 * nus * ratio) - q).real

        grid = AnnulusGrid(r0=0.01, R=10.0, n=200)
        levels = oracle_spectrum(assemble_radial_hamiltonian(monopole, grid, g_from_u(ext, 0.01),
                                                             ext.channels), 2)
        assert np.all(levels < 0.0)
        for level in levels:
            assert_allclose(level, brentq(det, 1.05 * level, 0.95 * level), rtol=5e-3)

    def test_lost_precision_raises(self, monopole):
        # past working precision the recovered U stops being unitary
        chans = ExtensionMatrix(np.eye(4), monopole).channels
        r0 = 1e-10
        ents = np.diag([diagonal_link_value(ch.nu, 0.3, r0, 1.0).real for ch in chans]).astype(complex)
        ents[0, 1] = ents[1, 0] = 1.0
        ents[1, 2], ents[2, 1] = 1j, -1j
        g = BoundaryConditionMatrix(r0=r0, channels=chans, entries=ents)
        with pytest.raises(LinkBreakdownError, match="unitarity defect"):
            u_from_g(g, 1.0)
        # NaN data gives a NaN rounding bound and defect, and each fails its own gate
        nan_g = BoundaryConditionMatrix(r0=0.1, channels=chans, entries=np.full((4, 4), np.nan),
                                        validate=False)
        with pytest.raises(LinkBreakdownError, match="not reliable"):
            u_from_g(nan_g, 1.0)
        with pytest.raises(ArithmeticError, match="breakdown"):
            assemble_radial_hamiltonian(monopole, AnnulusGrid(r0=r0, R=1.0, n=100), g, chans)

    @pytest.mark.parametrize("eg", [1.0, 1.5, 2.0])
    def test_half_order_sets_give_hermitian_links(self, eg):
        params = ModelParams(eg=eg)
        for seed in range(5):
            ext = ExtensionMatrix(haar_unitary(seed, int(2 * eg)), params)
            for r0 in (0.5, 0.1, 0.01):
                assert g_from_u(ext, r0).hermiticity_defect <= 1e-12

    @pytest.mark.parametrize("eg, seed", [(1.0, 0), (1.0, 1), (1.5, 0), (2.0, 0)])
    def test_half_order_sets_match_the_eigenphase_levels(self, eg, seed):
        # with one order in every channel the problem splits along U's eigenvectors,
        # each eigenphase contributing the single-channel level of nu = 1/2
        params = ModelParams(eg=eg)
        u = haar_unitary(seed, int(2 * eg))
        ext = ExtensionMatrix(u, params)
        energies = (bound_state_energy_theta(t, 0.5, 1.0) for t in np.angle(np.linalg.eigvals(u)))
        analytic = sorted(e for e in energies if e is not None)
        assert analytic
        grid = AnnulusGrid(r0=0.01, R=20.0, n=400)
        ham = assemble_radial_hamiltonian(params, grid, g_from_u(ext, 0.01), ext.channels)
        assert_allclose(oracle_spectrum(ham, len(analytic)), analytic, rtol=2e-2)

    def test_lost_precision_raises_for_one_channel(self):
        # a single channel's U is unimodular by construction; the rounding bound
        # of the cancelling solve is what flags the radius
        ch = ChannelSpec(m=0, nu_sq=NU_EDGE * NU_EDGE, j=1, kappa=-math.sqrt(2.0))
        for r0, ok in ((1e-3, True), (1e-8, False)):
            g = BoundaryConditionMatrix(r0=r0, channels=(ch,), entries=np.array(
                [[diagonal_link_value(NU_EDGE, 0.7, r0, 1.0).real]]))
            if ok:
                assert_allclose(np.angle(u_from_g(g, 1.0)[0, 0]), 0.7, rtol=1e-10)
            else:
                with pytest.raises(LinkBreakdownError, match="rounding bound"):
                    u_from_g(g, 1.0)
