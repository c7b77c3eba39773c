"""The U(4) extension family: deficiency vectors, bound states, mixing, Hermiticity."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from radext import extensions
from radext.channels import ChannelSpec, ModelParams
from radext.extensions import (
    ChannelWave,
    DeficiencyVector,
    DomainVector,
    ExtensionMatrix,
    bound_state_energy_theta,
    bound_state_energy_u,
    bound_states,
    canonical_channels,
    deficiency_normalization,
    dirac_consistent_value,
    domain_vector_smallr,
    haar_unitary,
    hermiticity_defect,
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
            assert_allclose(minus.derivative(r), np.conj(plus.derivative(r)), rtol=1e-14)

    def test_derivative_against_finite_differences(self, monopole):
        ch = canonical_channels(monopole)[1]
        vec = DeficiencyVector(ch, +1, 1.0)
        h = 1e-6
        for r in (0.2, 1.0, 3.0):
            fd = (vec.value(r + h) - vec.value(r - h)) / (2.0 * h)
            assert_allclose(vec.derivative(r), fd, rtol=1e-7)

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
            DeficiencyVector(ch, 0)
        with pytest.raises(ValueError):
            DeficiencyVector(ch, +1, -1.0)
        overcritical = ChannelSpec(m=0.0, nu_sq=-0.75, l=0)
        with pytest.raises(ValueError):
            DeficiencyVector(overcritical, +1)


class TestDomainVectorSmallR:
    def test_identity_source_zero_occupies_one_channel(self, identity_ext):
        pairs = domain_vector_smallr(identity_ext, 0)
        assert pairs[0].c_minus != 0.0 and pairs[0].c_plus != 0.0
        for p in pairs[1:]:
            assert p.c_minus == 0.0 and p.c_plus == 0.0

    def test_identity_source_one_matches_full_profile(self, identity_ext):
        # expansion coefficients must reproduce the actual domain vector at small r
        r = 1e-4
        pairs = domain_vector_smallr(identity_ext, 1)
        values = DomainVector(identity_ext, 1).value(r)
        for idx, p in enumerate(pairs):
            pred = p.c_minus * r ** (-0.5 - p.nu) + p.c_plus * r ** (-0.5 + p.nu)
            if idx == 1:
                assert_allclose(pred, values[idx], rtol=1e-6)
            else:
                assert pred == 0.0 and abs(values[idx]) == 0.0

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
        with pytest.raises(ValueError):
            domain_vector_smallr(identity_ext, 4)

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

    def test_scale_choice_does_not_move_energies(self):
        thetas = (0.3, -0.5, 0.8, 0.1)
        e_ref = [st.energy for st in bound_states(ExtensionMatrix.from_diagonal_thetas(thetas), 1.0)]
        rescaled = ExtensionMatrix.from_diagonal_thetas(thetas, ModelParams(deficiency_scale=2.0))
        e_new = [st.energy for st in bound_states(rescaled, 1.0)]
        assert_allclose(e_new, e_ref, rtol=1e-9)


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
        # -1 would otherwise read the last column
        for src in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                scattering_eigenstate(identity_ext, 1.0, src, 1.0)

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

    def test_positive_energy_required(self, identity_ext):
        with pytest.raises(ValueError):
            scattering_eigenstate(identity_ext, -1.0, 0, 1.0)

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


class TestBoundaryForm:
    def test_same_wave_vanishes(self):
        wave = ChannelWave("N", 0.5, 1.0, 0)
        for r in (1e-2, 1e-3, 1e-4):
            assert hermiticity_defect(wave, wave, r, 1.0) == 0.0

    def test_regular_singular_pair_has_constant_wronskian_limit(self):
        # r^2 (psi_N' psi_S - psi_N psi_S') collapses to the J/Y Wronskian:
        # the defect is the constant -1/(pi mu) at every radius
        for mu in (1.0, 2.0):
            wn = ChannelWave("N", 0.5, 1.0, 0)
            ws = ChannelWave("S", 0.5, 1.0, 0)
            for r in (1e-2, 1e-3, 1e-4):
                val = hermiticity_defect(wn, ws, r, mu)
                assert_allclose(val, -1.0 / (math.pi * mu), rtol=1e-10)

    def test_domain_vectors_of_one_extension_decay(self, identity_ext):
        # diagonal extensions cancel exactly; generic ones decay like a power
        va, vb = DomainVector(identity_ext, 0), DomainVector(identity_ext, 1)
        for r in (1e-2, 1e-3, 1e-4):
            assert hermiticity_defect(va, vb, r, 1.0) == 0.0
        ext = ExtensionMatrix(haar_unitary(7))
        wa, wb = DomainVector(ext, 0), DomainVector(ext, 1)
        seq = [abs(hermiticity_defect(wa, wb, r, 1.0)) for r in (1e-2, 1e-3, 1e-4)]
        assert seq[0] > seq[1] > seq[2]
        assert seq[1] / seq[0] < 0.8 and seq[2] / seq[1] < 0.8

    def test_radius_validation(self):
        wave = ChannelWave("N", 0.5, 1.0, 0)
        with pytest.raises(ValueError):
            hermiticity_defect(wave, wave, 0.0, 1.0)

    def test_channel_wave_validation(self):
        with pytest.raises(ValueError):
            ChannelWave("Q", 0.5, 1.0, 0)
        with pytest.raises(ValueError):
            ChannelWave("N", 0.5, 1.0, 5)


class TestDiracConsistency:
    def test_distinguished_value(self):
        for nu in (0.5, NU_EDGE):
            u_d = dirac_consistent_value(nu)
            assert abs(abs(u_d) - 1.0) <= 1e-12
            assert_allclose(u_d, -cmath.exp(1j * math.pi * nu / 2.0), rtol=1e-12)

    def test_nu_domain(self):
        with pytest.raises(ValueError):
            dirac_consistent_value(1.5)

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
        assert is_dirac_consistent(ext, tol=1e-4)

    def test_other_channel_sets_refused(self):
        # the test encodes the j = 0 / j = 1 structure of the eg = 1/2 set only
        for params, n in ((ModelParams(eg=1.0), 2), (ModelParams(model="inverse_square", c=0.1), 1)):
            with pytest.raises(ValueError, match="eg = 1/2"):
                is_dirac_consistent(ExtensionMatrix(np.eye(n), params))


def test_normalization_constant_closed_form():
    for nu in (0.5, NU_EDGE):
        for s in (1.0, 2.0):
            n = deficiency_normalization(nu, s)
            assert_allclose(n * n, 8.0 * s * s * math.cos(math.pi * nu / 2.0) / math.pi,
                            rtol=1e-15)
