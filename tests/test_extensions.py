"""The U(n) extension family: deficiency vectors, bound states, mixing, the boundary form."""

from __future__ import annotations

import cmath
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from radext import annulus, extensions
from radext.channels import ChannelSpec, ModelParams, per_order
from radext.extensions import (
    DeficiencyVector,
    ExtensionMatrix,
    bound_state_energy_theta,
    bound_state_energy_u,
    bound_states,
    boundary_form,
    canonical_channels,
    deficiency_normalization,
    dirac_consistent_value,
    domain_vector_smallr,
    haar_unitary,
    is_angular_momentum_conserving,
    is_dirac_consistent,
    mixing_matrix,
    random_extension,
    scattering_eigenstate,
    unitarity_defect,
)
from radext.specfun import small_arg_coeffs

from conftest import SWAP_01

SQRT2 = math.sqrt(2.0)
NU_EDGE = SQRT2 - 0.5
E_QUARTER_TURN = -(3.0 - 2.0 * SQRT2)  # bound-state energy at theta = pi/2, nu = 1/2, mu = 1


class TestUnitarityChecks:
    def test_identity_is_clean(self):
        ExtensionMatrix(np.eye(4))
        assert unitarity_defect(np.eye(4)) == 0.0

    def test_doubled_identity_fails_with_reported_defect(self):
        with pytest.raises(ValueError, match="defect 3.000e"):
            ExtensionMatrix(2.0 * np.eye(4))
        assert_allclose(unitarity_defect(2.0 * np.eye(4)), 3.0, rtol=1e-15)

    def test_householder_reflection_passes(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = np.eye(4) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
        ExtensionMatrix(h)
        assert unitarity_defect(h) <= 1e-14

    def test_defect_is_the_plain_formula_bit_for_bit(self):
        # U^dag U - I is formed with I subtracted on the diagonal in place, without an identity
        rng = np.random.default_rng(9)
        mats = [haar_unitary(rng, n) for n in (1, 2, 4, 9)] + [2.0 * np.eye(3), np.full((2, 2), np.nan)]
        for u in mats:
            want = np.abs(u.conj().T @ u - np.eye(len(u))).max()
            assert np.array_equal(unitarity_defect(u), want, equal_nan=True)

    def test_shape_requirements(self):
        with pytest.raises(ValueError, match="4x4 over the 4 singular"):
            ExtensionMatrix(np.eye(3))  # the eg = 1/2 set has four channels
        with pytest.raises(ValueError):
            unitarity_defect(np.ones((2, 3)))
        assert unitarity_defect(np.eye(2)) == 0.0  # defect itself is size-agnostic


class TestExtensionMatrix:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            ExtensionMatrix(np.ones((4, 4)))
        # a NaN defect fails the gate too
        with pytest.raises(ValueError, match="not unitary"):
            ExtensionMatrix(np.full((4, 4), np.nan))

    def test_entries_are_frozen(self, identity_ext):
        with pytest.raises(ValueError):
            identity_ext.entries[0, 0] = 2.0

    def test_channels_are_canonical(self, identity_ext, monopole):
        assert identity_ext.channels == canonical_channels(monopole)
        assert len(identity_ext.channels) == 4
        # one channel set per (frozen, hashable) ModelParams
        assert canonical_channels(ModelParams()) is canonical_channels(ModelParams())

    def test_small_r_pairs_are_built_once_and_frozen(self, swap_ext):
        pairs = swap_ext.small_r_pairs
        assert pairs is swap_ext.small_r_pairs
        for got, ref in zip(pairs, extensions.origin_pairs(swap_ext.entries, swap_ext.channels, 1.0)):
            assert np.array_equal(got, ref)
            with pytest.raises(ValueError):
                got[0, 0] = 0.0

    def test_orders_and_unmixed_mask_are_formed_once_and_frozen(self):
        # the orders key every per_order table of U; the mask is the one unmixed rule's
        rotated = np.eye(4, dtype=complex)
        rotated[1:3, 1:3] = [[0.6, -0.8], [0.8, 0.6]]
        ext = ExtensionMatrix(rotated)
        assert ext.orders == tuple(ch.nu for ch in ext.channels) == (0.5, NU_EDGE, NU_EDGE, NU_EDGE)
        assert ext.unmixed.tolist() == [True, False, False, True]
        with pytest.raises(ValueError):
            ext.unmixed[0] = False
        with pytest.raises(AttributeError):
            ext.orders = (0.5,)

    def test_unmixed_mask_is_its_plain_formula(self):
        # row and column maxima off the diagonal, against the tolerance, for mixed and unmixed U
        rng = np.random.default_rng(8)
        mats = [haar_unitary(rng) for _ in range(5)] + [np.eye(4), SWAP_01, np.diag([1j, 1, -1, 1])]
        for u in mats:
            off = np.abs(u)
            np.fill_diagonal(off, 0.0)
            want = np.maximum(off.max(axis=1), off.max(axis=0)) <= 1e-10
            assert np.array_equal(ExtensionMatrix(u).unmixed, want)

    def test_unmixed_is_formed_once_across_its_readers(self, monkeypatch):
        calls = []
        real = extensions._unmixed
        monkeypatch.setattr(extensions, "_unmixed", lambda ents: calls.append(1) or real(ents))
        u_d = dirac_consistent_value(NU_EDGE)
        for u in (haar_unitary(2), np.eye(4), np.diag([1.0, u_d, u_d, u_d])):
            calls.clear()
            ext = ExtensionMatrix(u)
            bound_states(ext, 1.0)
            is_dirac_consistent(ext)
            is_angular_momentum_conserving(ext)
            assert len(calls) == 1

    def test_unsupported_coupling_rejected(self):
        ext = ExtensionMatrix(np.eye(2), ModelParams(eg=1.0))
        assert [(ch.j, ch.m, ch.nu) for ch in ext.channels] == [(0.5, -0.5, 0.5), (0.5, 0.5, 0.5)]
        with pytest.raises(ValueError, match="2x2"):
            ExtensionMatrix(np.eye(4), ModelParams(eg=1.0))
        isq = ExtensionMatrix(np.eye(1), ModelParams(model="inverse_square", c=0.1))
        assert len(isq.channels) == 1 and isq.channels == canonical_channels(isq.params)
        with pytest.raises(ValueError, match="overcritical"):
            ExtensionMatrix(np.eye(1), ModelParams(model="inverse_square", c=1.0))
        with pytest.raises(ValueError, match="no singular channels"):
            ExtensionMatrix(np.eye(1), ModelParams(model="inverse_square", c=-1.0))
        with pytest.raises(TypeError):
            ExtensionMatrix(np.eye(4), channels=canonical_channels(ModelParams()))

    def test_shape_is_refused_before_the_channels_are_listed(self):
        # eg = 2e4 has 4e4 singular channels: the count refuses a 4x4 without listing them
        canonical_channels.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="40000x40000 over the 40000 singular"):
                ExtensionMatrix(np.eye(4), ModelParams(eg=2e4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_from_diagonal_thetas(self):
        thetas = (0.1, -0.4, 0.9, 2.2)
        ext = ExtensionMatrix.from_diagonal_thetas(thetas)
        assert_allclose(np.diag(ext.entries), np.exp(1j * np.array(thetas)), rtol=1e-15)
        assert is_angular_momentum_conserving(ext)
        with pytest.raises(ValueError):
            ExtensionMatrix.from_diagonal_thetas((0.1, 0.2))

    def test_haar_unitary_seeded_and_unitary(self):
        a = haar_unitary(42)
        b = haar_unitary(42)
        assert np.array_equal(a, b)
        for seed in range(20):
            assert unitarity_defect(haar_unitary(seed)) <= 1e-13
        gen = np.random.default_rng(5)
        assert unitarity_defect(haar_unitary(gen, n=6)) <= 1e-13

    def test_random_extension_is_validated_member(self):
        ext = random_extension(3)
        assert unitarity_defect(ext.entries) <= 1e-13


class TestDeficiencyVectors:
    def test_normalization_quadrature(self, monopole):
        # closed-form constant against direct quadrature of the profile
        s = monopole.deficiency_scale
        for ch in canonical_channels(monopole)[:2]:
            for sign in (+1, -1):
                vec = DeficiencyVector(ch, sign, s)
                norm, est = quad(lambda r: abs(vec.value(r)) ** 2 * r * r,
                                 0.0, 40.0 / s, limit=200)
                assert est < 1e-9
                assert abs(norm - 1.0) <= 1e-8

    def test_sign_pair_is_conjugate(self, monopole):
        ch = canonical_channels(monopole)[0]
        plus = DeficiencyVector(ch, +1, 1.0)
        minus = DeficiencyVector(ch, -1, 1.0)
        for r in (0.1, 0.7, 2.5):
            assert_allclose(minus.value(r), np.conj(plus.value(r)), rtol=1e-14)

    def test_small_arg_matches_profile(self, monopole):
        r = 1e-4
        for ch in canonical_channels(monopole)[:2]:
            for sign in (+1, -1):
                vec = DeficiencyVector(ch, sign, monopole.deficiency_scale)
                fit = vec.small_arg()
                pred = fit.c_minus * r ** (-0.5 - fit.nu) + fit.c_plus * r ** (-0.5 + fit.nu)
                assert_allclose(pred, vec.value(r), rtol=1e-6)

    def test_validation(self, monopole):
        ch = canonical_channels(monopole)[0]
        with pytest.raises(ValueError):
            DeficiencyVector(ch, 0, 1.0)
        with pytest.raises(ValueError):
            DeficiencyVector(ch, +1, -1.0)
        overcritical = ChannelSpec(m=0.0, nu_sq=-0.75, l=0)
        with pytest.raises(ValueError):
            DeficiencyVector(overcritical, +1, 1.0)


    def test_scale_is_required(self, monopole):
        # no default: a model's scale is its mu unless set, so a fixed 1.0 would be a second owner
        with pytest.raises(TypeError, match="deficiency_scale"):
            DeficiencyVector(canonical_channels(monopole)[0], +1)


class TestDomainVectorSmallR:
    def test_identity_source_zero_occupies_one_channel(self, identity_ext):
        pairs = domain_vector_smallr(identity_ext, 0)
        assert pairs[0].c_minus != 0.0 and pairs[0].c_plus != 0.0
        for p in pairs[1:]:
            assert p.c_minus == 0.0 and p.c_plus == 0.0

    def test_identity_source_one_matches_full_profile(self, identity_ext):
        # expansion coefficients must reproduce the actual domain vector phi_+ + phi_- at small r
        r = 1e-4
        pairs = domain_vector_smallr(identity_ext, 1)
        ch = identity_ext.channels[1]
        s = identity_ext.params.deficiency_scale
        profile = DeficiencyVector(ch, +1, s).value(r) + DeficiencyVector(ch, -1, s).value(r)
        for idx, p in enumerate(pairs):
            pred = p.c_minus * r ** (-0.5 - p.nu) + p.c_plus * r ** (-0.5 + p.nu)
            if idx == 1:
                assert_allclose(pred, profile, rtol=1e-6)
            else:
                assert pred == 0.0

    def test_swap_source_straddles_two_channels(self, swap_ext, monopole):
        pairs = domain_vector_smallr(swap_ext, 0)
        assert abs(pairs[0].c_minus) > 0.0  # its own outgoing part
        assert abs(pairs[1].c_minus) > 0.0  # the swapped-in incoming part
        assert pairs[2].c_minus == 0.0 and pairs[3].c_minus == 0.0
        # channel 0 carries only the plus vector, channel 1 only the minus vector
        s = monopole.deficiency_scale
        ch0 = canonical_channels(monopole)[0]
        plus = DeficiencyVector(ch0, +1, s).small_arg()
        assert_allclose(pairs[0].c_minus, plus.c_minus, rtol=1e-14)

    def test_source_range(self, identity_ext):
        # True would otherwise be read as a mask, 1.0 as an index error
        for src in (4, -1, True, 1.0):
            with pytest.raises(ValueError, match="out of range"):
                domain_vector_smallr(identity_ext, src)
        assert domain_vector_smallr(identity_ext, np.int64(1)) == domain_vector_smallr(identity_ext, 1)

    @pytest.mark.parametrize("eg", [0.5, 1.0, 1.5])
    def test_matches_the_deficiency_vectors(self, eg):
        # the pairs of phi_+^src + sum_ch U[src, ch] phi_-^ch, channel by channel
        params = ModelParams(eg=eg)
        for seed in range(3):
            ext = random_extension(seed, params)
            for src in range(len(ext.channels)):
                for idx, (ch, got) in enumerate(zip(ext.channels, domain_vector_smallr(ext, src))):
                    plus = DeficiencyVector(ch, +1, params.deficiency_scale).small_arg()
                    minus = DeficiencyVector(ch, -1, params.deficiency_scale).small_arg()
                    u = ext.entries[src, idx]
                    delta = 1.0 if idx == src else 0.0
                    assert got.nu == ch.nu
                    assert_allclose(got.c_minus, delta * plus.c_minus + u * minus.c_minus, rtol=1e-14)
                    assert_allclose(got.c_plus, delta * plus.c_plus + u * minus.c_plus, rtol=1e-14)


class TestBoundStateFormulas:
    def test_zero_phase_pins_energy_to_minus_mu(self):
        for nu in (0.5, NU_EDGE):
            for mu in (1.0, 2.7):
                e = bound_state_energy_theta(0.0, nu, mu)
                assert abs(e + mu) <= 1e-12 * mu

    def test_quarter_turn_value(self):
        e = bound_state_energy_theta(math.pi / 2.0, 0.5, 1.0)
        assert abs(e - E_QUARTER_TURN) <= 1e-12

    def test_existence_window(self):
        assert bound_state_energy_theta(3.0 * math.pi / 4.0, 0.5, 1.0) is None
        assert bound_state_energy_theta(3.0, 0.5, 1.0) is None
        assert bound_state_energy_theta(math.pi, NU_EDGE, 1.0) is None

    def test_nu_domain(self):
        with pytest.raises(ValueError):
            bound_state_energy_theta(0.0, 1.2, 1.0)
        with pytest.raises(ValueError):
            bound_state_energy_u(1.0 + 0.0j, 1.2, 1.0)

    def test_u_form_agrees_with_theta_form(self):
        # 100-point grid avoiding none of the special points by construction
        thetas = np.linspace(-math.pi, math.pi, 100, endpoint=False)
        for nu in (0.5, NU_EDGE):
            for theta in thetas:
                e_theta = bound_state_energy_theta(float(theta), nu, 1.0)
                e_u = bound_state_energy_u(cmath.exp(1j * theta), nu, 1.0)
                if e_theta is not None:
                    assert abs(e_u.imag) <= 1e-9 * abs(e_u)
                    assert abs(e_u.real - e_theta) <= 1e-10 * abs(e_theta)
                else:
                    # outside the window the branch value is unphysical: complex
                    # beyond the acceptance band, vanishing at the threshold, or
                    # (for 1/nu an even integer only) a real branch artifact the
                    # window check exists to reject; the theta form is the
                    # authoritative evaluator for exactly this reason
                    even_power = (abs(1.0 / nu - round(1.0 / nu)) < 1e-12
                                  and round(1.0 / nu) % 2 == 0)
                    assert (e_u is None or abs(e_u.imag) > 1e-9 * abs(e_u)
                            or abs(e_u) <= 1e-8 or even_power)

    def test_finite_just_inside_the_dirac_consistent_edge(self):
        # here 1 + cos(theta - pi nu / 2) rounds to 0; the energy is finite and very
        # deep, -mu (2 sin(pi nu / 2) / delta)^(1/nu) to first order in delta
        delta = 1e-9
        theta = cmath.phase(dirac_consistent_value(NU_EDGE)) + delta
        e = bound_state_energy_theta(theta, NU_EDGE, 1.0)
        assert math.isfinite(e) and e < 0.0
        deep = -(2.0 * math.sin(math.pi * NU_EDGE / 2.0) / delta) ** (1.0 / NU_EDGE)
        assert abs(e - deep) <= 1e-5 * abs(deep)

    def test_infinite_unit_is_past_the_float_range(self):
        # a unit s^2/mu that overflowed gives no energy of -inf
        with pytest.raises(OverflowError, match="float range"):
            bound_state_energy_theta(0.0, 0.5, math.inf)
        ext = ExtensionMatrix(np.eye(4), ModelParams(mu=1e-10, deficiency_scale=1e300))
        with pytest.raises(OverflowError, match="float range"):
            bound_states(ext)

    def test_u_form_pole_returns_none(self):
        for nu in (0.5, NU_EDGE):
            pole = -cmath.exp(1j * math.pi * nu / 2.0)
            assert bound_state_energy_u(pole, nu, 1.0) is None

    def test_u_form_rejects_off_circle(self):
        with pytest.raises(ValueError):
            bound_state_energy_u(0.5 + 0.0j, 0.5, 1.0)

    def test_opposite_phase_is_complex_for_edge_order(self):
        # at theta = pi the wide channel's branch value has a large imaginary
        # part; the theta form must therefore report no bound state
        e_u = bound_state_energy_u(-1.0 + 0.0j, NU_EDGE, 1.0)
        assert abs(e_u.imag) > 0.1 * abs(e_u)
        assert bound_state_energy_theta(math.pi, NU_EDGE, 1.0) is None


class TestBoundStateEnumeration:
    def test_identity_gives_four_at_minus_mu(self, identity_ext):
        states = bound_states(identity_ext, 1.0)
        assert len(states) == 4
        for st in states:
            assert abs(st.energy + 1.0) <= 1e-12
            assert st.theta == 0.0
            assert_allclose(st.lam, SQRT2, rtol=1e-12)

    def test_mixed_and_thresholded_channels_contribute_nothing(self):
        ents = SWAP_01.copy().astype(complex)
        ents[2, 2] = -1.0
        ents[3, 3] = -1.0
        assert bound_states(ExtensionMatrix(ents), 1.0) == []

    def test_plain_swap_keeps_the_untouched_pair(self, swap_ext):
        states = bound_states(swap_ext, 1.0)
        assert len(states) == 2
        assert all(abs(st.energy + 1.0) <= 1e-12 for st in states)

    def test_quarter_turn_in_channel_zero(self, identity_ext):
        ext = ExtensionMatrix(np.diag([1j, 1.0, 1.0, 1.0]))
        states = bound_states(ext, 1.0)
        assert len(states) == 4
        by_channel = {ext.channels.index(st.channel): st for st in states}
        assert abs(by_channel[0].energy - E_QUARTER_TURN) <= 1e-12
        for idx in (1, 2, 3):
            assert abs(by_channel[idx].energy + 1.0) <= 1e-12

    def test_random_battery_counts(self):
        for seed in range(50):
            states = bound_states(random_extension(seed), 1.0)
            assert 0 <= len(states) <= 4

    def test_diagonal_inside_window_gives_four(self):
        rng = np.random.default_rng(77)
        window = min(math.acos(-math.cos(math.pi * nu / 2.0)) for nu in (0.5, NU_EDGE))
        for _ in range(20):
            thetas = rng.uniform(-0.9 * window, 0.9 * window, size=4)
            ext = ExtensionMatrix.from_diagonal_thetas(thetas)
            assert len(bound_states(ext, 1.0)) == 4

    def test_unmixed_decision_at_the_tolerance(self):
        # channels 0 and 1 rotated into each other by an angle just inside and just past 1e-10
        for angle, count in ((0.9e-10, 4), (1.1e-10, 2)):
            ents = np.eye(4, dtype=complex)
            ents[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
            assert len(bound_states(ExtensionMatrix(ents), 1.0)) == count

    def test_energies_scale_as_s_squared_over_mu(self):
        # U is labelled relative to the deficiency vectors at s, so lam = s F(theta, nu)
        thetas = (0.3, -0.5, 0.8, 0.1)
        e_ref = [st.energy for st in bound_states(ExtensionMatrix.from_diagonal_thetas(thetas), 1.0)]
        for s in (2.0, 0.5):
            rescaled = ExtensionMatrix.from_diagonal_thetas(thetas, ModelParams(deficiency_scale=s))
            assert [st.energy for st in bound_states(rescaled, 1.0)] == [s * s * e for e in e_ref]

    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_energies_match_the_oracle_at_other_scales(self, scale):
        params = ModelParams(model="inverse_square", c=0.0, deficiency_scale=scale)
        ext = ExtensionMatrix.from_diagonal_thetas([0.3], params)
        (state,) = bound_states(ext, 1.0)
        grid = annulus.AnnulusGrid(r0=1e-3, R=40.0, n=8000)
        ham = annulus.assemble_radial_hamiltonian(params, grid, annulus.g_from_u(ext, 1e-3), ext.channels)
        assert_allclose(annulus.oracle_spectrum(ham, 1)[0], state.energy, rtol=1e-4)
        assert_allclose(state.lam, math.sqrt(-2.0 * state.energy), rtol=1e-15)


class TestHalfOrderChannelSets:
    """eg = 1, 3/2, 2: U(2), U(3), U(4) families with every channel at nu = 1/2."""

    @pytest.mark.parametrize("eg", [1.0, 1.5, 2.0])
    def test_diagonal_u_gives_the_closed_form_levels(self, eg):
        params = ModelParams(eg=eg)
        n = int(2 * eg)
        thetas = np.linspace(-2.0, 2.6, n)  # the last phase sits past the window edge 3 pi / 4
        ext = ExtensionMatrix.from_diagonal_thetas(thetas, params)
        assert [ch.nu for ch in ext.channels] == [0.5] * n
        states = bound_states(ext, 1.0)
        assert [ext.channels.index(st.channel) for st in states] == list(range(n - 1))
        for st, theta in zip(states, thetas):
            assert st.energy == bound_state_energy_theta(cmath.phase(cmath.exp(1j * theta)), 0.5, 1.0)
        regular, singular = mixing_matrix(ext, 1.0, 1.0)
        assert regular.shape == singular.shape == (n, n)
        assert np.abs(regular - np.diag(np.diag(regular))).max() == 0.0


class TestOwnMassAndScale:
    """The functions of an extension read mu and s from it and refuse any other value."""

    def test_another_mass_is_refused(self):
        ext = ExtensionMatrix(np.eye(4), ModelParams(mu=2.0))
        for call in (lambda: bound_states(ext, 1.0), lambda: mixing_matrix(ext, 1.0, 1.0),
                     lambda: scattering_eigenstate(ext, 1.0, 0, 1.0)):
            with pytest.raises(ValueError, match="mu = 1.0 differs from the extension's own 2.0"):
                call()

    def test_another_scale_is_refused(self):
        with pytest.raises(ValueError, match="deficiency_scale = 2.0 differs"):
            annulus.g_from_u(ExtensionMatrix(np.eye(4)), 0.1, 2.0)

    def test_the_own_values_give_the_same_bits(self):
        params = ModelParams(mu=2.0, deficiency_scale=0.7)
        for ext in (random_extension(1, params),
                    ExtensionMatrix.from_diagonal_thetas((0.3, -0.5, 0.8, 0.1), params)):
            assert bound_states(ext) == bound_states(ext, 2.0)
            for left, right in zip(mixing_matrix(ext, 0.9), mixing_matrix(ext, 0.9, 2.0)):
                assert np.array_equal(left, right)
            assert scattering_eigenstate(ext, 0.9, 1) == scattering_eigenstate(ext, 0.9, 1, 2.0)
            assert np.array_equal(annulus.g_from_u(ext, 0.1).entries,
                                  annulus.g_from_u(ext, 0.1, 0.7).entries)
        assert bound_states(ext)


class TestScatteringAndMixing:
    def test_diagonal_u_does_not_mix(self):
        ext = ExtensionMatrix.from_diagonal_thetas((0.3, -0.5, 0.8, 0.1))
        regular, singular = mixing_matrix(ext, 1.0, 1.0)
        for mat in (regular, singular):
            off = mat - np.diag(np.diag(mat))
            assert np.abs(off).max() < 1e-12

    def test_swap_mixes_singular_amplitudes(self, swap_ext):
        sol = scattering_eigenstate(swap_ext, 1.0, 0, 1.0)
        assert abs(sol.singular_amplitudes[1]) > 1e-3
        assert sol.condition_number >= 1.0

    def test_mixing_columns_are_per_source_solutions(self, swap_ext):
        cond = scattering_eigenstate(swap_ext, 1.0, 0, 1.0).condition_number
        for ext in (swap_ext, ExtensionMatrix(haar_unitary(5))):
            regular, singular = mixing_matrix(ext, 1.0, 1.0)
            for src in range(4):
                sol = scattering_eigenstate(ext, 1.0, src, 1.0)
                assert np.array_equal(regular[:, src], sol.regular_amplitudes)
                assert np.array_equal(singular[:, src], sol.singular_amplitudes)
                # the matching system depends on the orders and the energy only
                assert sol.condition_number == cond

    @pytest.mark.parametrize("params", [
        ModelParams(),  # nu = 1/2 and sqrt(2) - 1/2
        ModelParams(model="inverse_square", c=0.25 - 0.1**2),
        ModelParams(model="inverse_square", c=0.25 - 0.99**2),
    ], ids=["monopole", "nu0.1", "nu0.99"])
    def test_condition_number_against_numpy(self, params):
        # closed form against the SVD of each channel's 2x2 system; where they differ the
        # SVD's sigma_min is the less accurate side, off by up to eps cond relative
        ext = ExtensionMatrix(np.eye(len(canonical_channels(params))), params)
        eps = np.finfo(float).eps
        for lam in np.logspace(-3.0, 3.0, 25):
            ref = 0.0
            for ch in ext.channels:
                reg = small_arg_coeffs("N", ch.nu, lam)
                sing = small_arg_coeffs("S", ch.nu, lam)
                ref = max(ref, np.linalg.cond(np.array([[sing.c_minus, 0.0],
                                                        [sing.c_plus, reg.c_plus]])))
            cond = scattering_eigenstate(ext, 0.5 * lam * lam, 0, 1.0).condition_number
            assert abs(cond - ref) <= 32.0 * eps * ref * ref

    def test_source_range(self, identity_ext):
        # -1 would otherwise read the last column, True be returned as the source index
        for src in (-1, 4, True, 1.0):
            with pytest.raises(ValueError, match="out of range"):
                scattering_eigenstate(identity_ext, 1.0, src, 1.0)
        assert scattering_eigenstate(identity_ext, 1.0, np.int64(1), 1.0).source_index == 1

    @pytest.mark.parametrize("eg", [0.5, 1.0, 1.5])
    def test_matches_the_per_channel_matching(self, eg):
        params = ModelParams(eg=eg)
        for seed in range(10):
            ext = random_extension(seed, params)
            for energy in (0.5, 1.0, 2.0):
                regular, singular = mixing_matrix(ext, energy, 1.0)
                lam = math.sqrt(2.0 * energy)
                for src in range(len(ext.channels)):
                    want = []
                    for ch, phi in zip(ext.channels, domain_vector_smallr(ext, src)):
                        reg = small_arg_coeffs("N", ch.nu, lam)
                        sing = small_arg_coeffs("S", ch.nu, lam)
                        a_s = phi.c_minus / sing.c_minus
                        want.append(((phi.c_plus - a_s * sing.c_plus) / reg.c_plus, a_s))
                    want_reg, want_sing = np.array(want).T
                    for got, ref in ((regular[:, src], want_reg), (singular[:, src], want_sing)):
                        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_each_order_is_matched_once(self, monkeypatch):
        # four channels, two orders: the phi_+ pair once per order and extension, the N and
        # S waves once per order and energy; the phi_- pair is the conjugate of the phi_+ one
        calls = []

        def counted(kind, nu, scale):
            calls.append(kind)
            return small_arg_coeffs(kind, nu, scale)

        monkeypatch.setattr(extensions, "small_arg_coeffs", counted)
        per_order.cache_clear()
        ext = ExtensionMatrix(haar_unitary(2))
        expected = ["DEF+", "DEF+", "N", "N", "S", "S"]
        for energy in (0.5, 1.0, 2.0):
            calls.clear()
            mixing_matrix(ext, energy, 1.0)
            assert sorted(calls) == expected
            expected = ["N", "N", "S", "S"]
        calls.clear()
        domain_vector_smallr(ext, 0)
        assert calls == []
        # the tables are U-independent: another U at the same energies evaluates nothing
        other = ExtensionMatrix(haar_unitary(5))
        for energy in (0.5, 1.0, 2.0):
            mixing_matrix(other, energy, 1.0)
        assert calls == []

    def test_positive_energy_required(self, identity_ext):
        with pytest.raises(ValueError):
            scattering_eigenstate(identity_ext, -1.0, 0, 1.0)

    def test_amplitudes_past_the_float_range(self, swap_ext):
        # lam = sqrt(2 mu) sqrt(E) stays finite where 2 mu E overflows
        for mat in mixing_matrix(swap_ext, 1e308, 1.0):
            assert np.isfinite(mat).all()
        # finite small-r pairs, amplitudes ~ lam^(2 nu) past the float range
        ext = ExtensionMatrix(swap_ext.entries, ModelParams(mu=1e300, deficiency_scale=1.0))
        with pytest.raises(OverflowError, match="amplitudes"):
            mixing_matrix(ext, 1e300, 1e300)
        # the small-r pairs themselves past the float range, at s = mu = 1e300
        ext = ExtensionMatrix(swap_ext.entries, ModelParams(mu=1e300))
        with pytest.raises(OverflowError, match="small-r pair"):
            mixing_matrix(ext, 1e300, 1e300)

    def test_dirac_consistent_family_has_regular_triplet(self):
        u1 = dirac_consistent_value(NU_EDGE)
        ext = ExtensionMatrix(np.diag([cmath.exp(0.7j), u1, u1, u1]))
        for src in range(4):
            sol = scattering_eigenstate(ext, 1.0, src, 1.0)
            for idx in (1, 2, 3):
                a_n = sol.regular_amplitudes[idx]
                a_s = sol.singular_amplitudes[idx]
                assert abs(a_s) <= 1e-10 * max(abs(a_n), 1.0)

    def test_angular_momentum_flag(self, identity_ext, swap_ext):
        assert is_angular_momentum_conserving(identity_ext)
        assert not is_angular_momentum_conserving(swap_ext)
        # bound_states' rule: channels 0 and 1 rotated into each other are unmixed within 1e-10
        # at 0.9e-10, not at 1.1e-10
        for angle, conserving in ((0.9e-10, True), (1.1e-10, False)):
            ents = np.eye(4, dtype=complex)
            ents[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
            ext = ExtensionMatrix(ents)
            assert is_angular_momentum_conserving(ext) is conserving
            assert len(bound_states(ext, 1.0)) == (4 if conserving else 2)


# the four monopole sets and 1/r^2 at nu = sqrt(0.15), 0.99 and 0.01, each at two deficiency scales
_FORM_SETS = [ModelParams(eg=eg, deficiency_scale=s) for eg in (0.5, 1.0, 1.5, 2.0)
              for s in (1e-3, 3.0)] + [
    ModelParams(model="inverse_square", c=c, deficiency_scale=s)
    for c in (0.1, 0.25 - 0.99**2, 0.25 - 0.01**2) for s in (1e-3, 3.0)]
_FORM_IDS = [f"{p.model}-eg{p.eg}-c{p.c:.4f}-s{p.deficiency_scale}" for p in _FORM_SETS]
EPS = np.finfo(float).eps


def _form_band(ext) -> float:
    """32 eps S, S = max over channels of 2 nu |c_- c_+| of the R^3-normalized phi_+ pair.

    S is the size of one channel's terms in Omega, the scale their rounding has. ||Omega||
    is not: in the one-channel sets Omega is real and its terms can cancel, and over 2,000
    Haar U per set the defect reaches 4,900 eps max|Omega| there, but at most 11.2 eps S
    in any set.
    """
    orders = tuple(ch.nu for ch in ext.channels)
    c_minus, c_plus = per_order(extensions._plus_pair, orders, ext.params.deficiency_scale).T
    return 32.0 * EPS * float(np.max(2.0 * np.array(orders) * np.abs(c_minus * c_plus)))


def _defect(omega: np.ndarray) -> float:
    return float(np.abs(omega - omega.conj().T).max())


def _negative_count(ext) -> int:
    """Eigenvalues of Omega's Hermitian part below the rounding band."""
    omega = boundary_form(ext)
    return int((np.linalg.eigvalsh(0.5 * (omega + omega.conj().T)) < -_form_band(ext)).sum())


class TestBoundaryForm:
    def test_entries_pair_two_domain_vectors(self):
        # Omega[x, y] = sum_ch 2 nu conj(c_-^x) c_+^y over the columns x, y of the small-r pairs
        ext = random_extension(4)
        omega = boundary_form(ext)
        assert omega.shape == (4, 4)
        for x in range(4):
            for y in range(4):
                want = sum(2.0 * px.nu * px.c_minus.conjugate() * py.c_plus for px, py in
                           zip(domain_vector_smallr(ext, x), domain_vector_smallr(ext, y)))
                assert abs(omega[x, y] - want) <= 1e-14 * abs(omega).max()

    @pytest.mark.parametrize("params", _FORM_SETS, ids=_FORM_IDS)
    def test_hermitian_to_rounding(self, params):
        rng = np.random.default_rng(16)
        n = len(canonical_channels(params))
        for _ in range(100):
            ext = ExtensionMatrix(haar_unitary(rng, n), params)
            assert _defect(boundary_form(ext)) <= _form_band(ext)

    @pytest.mark.parametrize("params", _FORM_SETS, ids=_FORM_IDS)
    def test_mutations_fail_the_check(self, params):
        # a non-unitary U passed straight to origin_pairs, and a conjugated B: the defects
        # read 6.3e-4 to 4.0e-2 S and 0.39 to 1.95 S over the sets, against a band of 7.1e-15 S
        ext = ExtensionMatrix(haar_unitary(np.random.default_rng(16), len(canonical_channels(params))),
                              params)
        band = _form_band(ext)
        a, b = extensions.origin_pairs(1.01 * ext.entries, ext.channels, params.deficiency_scale)
        stretched = SimpleNamespace(small_r_pairs=(a, b), orders=ext.orders)
        a, b = ext.small_r_pairs
        conjugated = SimpleNamespace(small_r_pairs=(a, b.conj()), orders=ext.orders)
        for mutant in (stretched, conjugated):
            assert _defect(boundary_form(mutant)) > 1e6 * band

    @pytest.mark.parametrize("params", _FORM_SETS, ids=_FORM_IDS)
    def test_inertia_is_the_bound_state_count(self, params):
        rng = np.random.default_rng(16)
        n = len(canonical_channels(params))
        for _ in range(100):
            ext = ExtensionMatrix.from_diagonal_thetas(rng.uniform(-math.pi, math.pi, n), params)
            assert _negative_count(ext) == len(bound_states(ext, 1.0))

    def test_dirac_family_counts_only_the_j0_state(self):
        # the triplet's A column vanishes: three eigenvalues of order eps sit inside the
        # band, and only the j = 0 channel can hold a state
        u1 = dirac_consistent_value(NU_EDGE)
        for theta, count in ((0.3, 1), (2.9, 0)):
            ext = ExtensionMatrix(np.diag([cmath.exp(1j * theta), u1, u1, u1]))
            omega = boundary_form(ext)
            eigs = np.linalg.eigvalsh(0.5 * (omega + omega.conj().T))
            assert (np.abs(eigs) <= _form_band(ext)).sum() == 3
            assert _negative_count(ext) == count == len(bound_states(ext, 1.0))


class TestDiracConsistency:
    def test_distinguished_value(self):
        for nu in (0.5, NU_EDGE):
            u_d = dirac_consistent_value(nu)
            assert abs(abs(u_d) - 1.0) <= 1e-12
            assert_allclose(u_d, -cmath.exp(1j * math.pi * nu / 2.0), rtol=1e-12)
        for nu in np.linspace(0.01, 0.99, 99):
            assert abs(dirac_consistent_value(nu) + cmath.exp(1j * math.pi * nu / 2.0)) <= 4.0 * EPS

    def test_minus_coefficient_is_the_exact_conjugate(self):
        # why one DEF+ evaluation suffices: c_-(phi_-) = conj c_-(phi_+) bit for bit
        for nu in np.linspace(0.01, 0.99, 99):
            plus = small_arg_coeffs("DEF+", nu, 1.0 - 1.0j).c_minus
            minus = small_arg_coeffs("DEF-", nu, 1.0 + 1.0j).c_minus
            assert minus == plus.conjugate()

    def test_nu_domain(self):
        with pytest.raises(ValueError):
            dirac_consistent_value(1.5)

    def test_value_is_solved_once_per_order(self, monkeypatch):
        calls = []

        def counted(kind, nu, scale):
            calls.append(kind)
            return small_arg_coeffs(kind, nu, scale)

        monkeypatch.setattr(extensions, "small_arg_coeffs", counted)
        per_order.cache_clear()
        ext = ExtensionMatrix(np.eye(4))
        assert not is_dirac_consistent(ext)
        assert calls == ["DEF+"]
        calls.clear()
        assert not is_dirac_consistent(ext)
        assert calls == []

    def test_one_parameter_family_accepted(self):
        u1 = dirac_consistent_value(NU_EDGE)
        for alpha in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False):
            ext = ExtensionMatrix(np.diag([cmath.exp(1j * alpha), u1, u1, u1]))
            assert is_dirac_consistent(ext)

    def test_other_members_rejected(self, identity_ext, swap_ext):
        assert not is_dirac_consistent(identity_ext)
        assert not is_dirac_consistent(swap_ext)

    def test_tolerance_band(self):
        u1 = dirac_consistent_value(NU_EDGE)
        ext = ExtensionMatrix(np.diag([1.0, u1 * cmath.exp(1e-6j), u1, u1]))
        assert not is_dirac_consistent(ext)

    def test_triplet_mixing_at_the_tolerance(self):
        # channels 1 and 2 rotated into each other: unmixed within 1e-10 at 0.9e-10, not at 1.1e-10
        u1 = dirac_consistent_value(NU_EDGE)
        for angle, consistent in ((0.9e-10, True), (1.1e-10, False)):
            rot = np.eye(4)
            rot[1:3, 1:3] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
            ext = ExtensionMatrix(np.diag([1.0, u1, u1, u1]) @ rot)
            assert is_dirac_consistent(ext) is consistent

    def test_haar_members_refused(self):
        assert not any(is_dirac_consistent(ExtensionMatrix(haar_unitary(seed))) for seed in range(200))

    def test_family_with_random_j0_phases_accepted(self):
        u1 = dirac_consistent_value(NU_EDGE)
        alphas = np.random.default_rng(31).uniform(-math.pi, math.pi, 200)
        assert all(is_dirac_consistent(ExtensionMatrix(np.diag([cmath.exp(1j * a), u1, u1, u1])))
                   for a in alphas)

    def test_j0_rotated_into_a_triplet_channel_refused(self):
        # a family member whose j = 0 and j = 1, m = -1 channels turn into each other by 1e-8
        u1 = dirac_consistent_value(NU_EDGE)
        angle = 1e-8
        rot = np.eye(4)
        rot[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        assert is_dirac_consistent(ExtensionMatrix(np.diag([cmath.exp(0.3j), u1, u1, u1])))
        assert not is_dirac_consistent(ExtensionMatrix(np.diag([cmath.exp(0.3j), u1, u1, u1]) @ rot))

    def test_other_channel_sets(self):
        # every channel at eg >= 1 has kappa = 0, whose singular branch the lower component
        # keeps, so every U passes; the 1/r^2 channels carry no kappa and have no verdict
        rng = np.random.default_rng(5)
        for eg in (1.0, 1.5, 2.0):
            params = ModelParams(eg=eg)
            n = len(canonical_channels(params))
            assert is_dirac_consistent(ExtensionMatrix(np.eye(n), params))
            assert all(is_dirac_consistent(ExtensionMatrix(haar_unitary(rng, n), params))
                       for _ in range(50))
        with pytest.raises(ValueError, match="kappa"):
            is_dirac_consistent(ExtensionMatrix(np.eye(1), ModelParams(model="inverse_square", c=0.1)))


def test_normalization_scales_without_underflow():
    # s stays outside the root: s^2 is subnormal at 1e-160 and zero at 1e-300
    for nu in (0.5, NU_EDGE):
        for s in (1e-160, 1e-300):
            assert deficiency_normalization(nu, s) == s * deficiency_normalization(nu, 1.0)


def test_small_r_pairs_refuse_underflow():
    # at s = 1e-300 each c_+ ~ s^(1 + nu) is below the smallest normal float
    ext = ExtensionMatrix.from_diagonal_thetas([0.3] * 4, ModelParams(deficiency_scale=1e-300))
    with pytest.raises(ArithmeticError, match="underflows"):
        ext.small_r_pairs


def test_normalization_constant_closed_form():
    for nu in (0.5, NU_EDGE):
        for s in (1.0, 2.0):
            n = deficiency_normalization(nu, s)
            assert_allclose(n * n, 8.0 * s * s * math.cos(math.pi * nu / 2.0) / math.pi,
                            rtol=1e-15)
