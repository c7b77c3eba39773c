"""Special-function layer: frozen reference values and the classical identities.

Reference values were computed with mpmath 1.3 at mp.dps = 40 and are frozen
here so the tests stay independent of any scipy/mpmath installation details.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from radext.specfun import (
    SmallRBehavior,
    bessel_j,
    bessel_j_deriv,
    bessel_k_complex,
    bessel_k_complex_deriv,
    bessel_y,
    bessel_y_deriv,
    gamma_fn,
    small_arg_coeffs,
)

NU_EDGE = math.sqrt(2.0) - 0.5  # the larger of the two canonical orders

# (nu, x, J_nu(x)); points near zeros of J were dropped so relative checks are meaningful
_J_REF = [
    (0.3, 0.05, 0.36825860883735434),
    (0.3, 0.5, 0.7002604885070547),
    (0.3, 2.0, 0.42569406198141374),
    (0.3, 4.9, -0.3182504129509516),
    (0.3, 7.3, 0.2858711908216282),
    (0.3, 12.0, -0.058942057108976806),
    (0.3, 14.9, 0.09892877957476852),
    (0.3, 18.5, -0.007364430640050291),
    (0.3, 40.0, 0.06361630477913564),
    (0.3, 120.0, 0.05851622397701062),
    (0.5, 0.05, 0.17833808240219742),
    (0.5, 0.5, 0.540973789934528),
    (0.5, 2.0, 0.5130161365618278),
    (0.5, 4.9, -0.3541225911794467),
    (0.5, 7.3, 0.2511427147490215),
    (0.5, 12.0, -0.12358853595594195),
    (0.5, 14.9, 0.14942179431555047),
    (0.5, 18.5, -0.06353165902666778),
    (0.5, 40.0, 0.09400096238953358),
    (0.5, 120.0, 0.0422897225396915),
    (NU_EDGE, 0.05, 0.03547603802992034),
    (NU_EDGE, 0.5, 0.2818579089743082),
    (NU_EDGE, 2.0, 0.5792464554257154),
    (NU_EDGE, 4.9, -0.3333275120645631),
    (NU_EDGE, 7.3, 0.11693412859965288),
    (NU_EDGE, 12.0, -0.2142756543652515),
    (NU_EDGE, 14.9, 0.205044659196945),
    (NU_EDGE, 18.5, -0.15457891378284458),
    (NU_EDGE, 40.0, 0.12569353401512712),
    (2.7, 0.05, 1.1328195367605295e-05),
    (2.7, 0.5, 0.005583220776517447),
    (2.7, 2.0, 0.18147322125443904),
    (2.7, 4.9, 0.32363459320062893),
    (2.7, 7.3, -0.28315660146706034),
    (2.7, 12.0, 0.12917190159008388),
    (2.7, 14.9, -0.16136069963215705),
    (2.7, 18.5, 0.08501287721339534),
    (2.7, 40.0, -0.11059560311290816),
    (2.7, 120.0, -0.023925497813309486),
    (7.5, 0.05, 6.875812978962496e-17),
    (7.5, 0.5, 2.158546507176618e-09),
    (7.5, 4.9, 0.028333696142097745),
    (7.5, 7.3, 0.20787032862414237),
    (7.5, 12.0, -0.06865311679776996),
    (7.5, 14.9, -0.09915808422937247),
    (7.5, 18.5, 0.073351136593113),
    (7.5, 40.0, -0.1260587778710217),
    (7.5, 120.0, 0.047959796284626655),
]

_Y_REF = [
    (0.3, 0.05, -2.6097056134058683),
    (0.3, 0.5, -0.8080475074774909),
    (0.3, 2.0, 0.3634828078260922),
    (0.3, 4.9, -0.1680203693803994),
    (0.3, 7.3, -0.0732023688316385),
    (0.3, 12.0, -0.2225945394578564),
    (0.3, 14.9, 0.18144963359923436),
    (0.3, 18.5, -0.18533655490980552),
    (0.3, 40.0, 0.10893881357843067),
    (0.3, 120.0, -0.04337034506871152),
    (0.5, 0.05, -3.563788851169038),
    (0.5, 0.5, -0.9902458802434049),
    (0.5, 2.0, 0.23478571040624846),
    (0.5, 4.9, -0.06722791786416277),
    (0.5, 7.3, -0.15535612258308562),
    (0.5, 12.0, -0.19436440383353454),
    (0.5, 14.9, 0.14282607115937232),
    (0.5, 18.5, -0.1742859945284074),
    (0.5, 40.0, 0.08413865567639542),
    (0.5, 120.0, -0.05930214277111539),
    (NU_EDGE, 0.05, -9.868248444772847),
    (NU_EDGE, 0.5, -1.3696901194355353),
    (NU_EDGE, 2.0, -0.050341326003479035),
    (NU_EDGE, 4.9, 0.14261768006787795),
    (NU_EDGE, 7.3, -0.2720387158828816),
    (NU_EDGE, 12.0, -0.08511595750166812),
    (NU_EDGE, 14.9, 0.027183646571558417),
    (NU_EDGE, 18.5, -0.10269663166984144),
    (NU_EDGE, 40.0, 0.010933496821344759),
    (NU_EDGE, 120.0, -0.07280725424342147),
    (2.7, 0.05, -10409.071225238278),
    (2.7, 0.5, -21.560263807780075),
    (2.7, 2.0, -0.9303033996512147),
    (2.7, 4.9, 0.2175392689761663),
    (2.7, 7.3, 0.11491623698603626),
    (2.7, 12.0, 0.19415799290743396),
    (2.7, 14.9, -0.13182523057537038),
    (2.7, 18.5, 0.16595942582069712),
    (2.7, 40.0, -0.06098527473275781),
    (2.7, 120.0, 0.06880430569815534),
    (7.5, 0.05, -617269238313690.2),
    (7.5, 0.5, -19706633.699610583),
    (7.5, 2.0, -696.2712505347139),
    (7.5, 4.9, -2.0295338397866147),
    (7.5, 7.3, -0.43607061552008225),
    (7.5, 12.0, 0.2503573482916792),
    (7.5, 14.9, -0.1987138153244342),
    (7.5, 18.5, 0.1795146486682487),
    (7.5, 40.0, 0.01761925514710957),
    (7.5, 120.0, 0.054912361131385146),
]

# (nu, z, K_nu(z)) including the conjugate wavenumber pairs the deficiency
# vectors actually use, a rotated point per quadrant, and real arguments
_K_REF = [
    (0.3, complex(0.01, -0.01), complex(5.948614507741487, 1.6563344746265714)),
    (0.3, complex(0.1, -0.1), complex(2.276154562695762, 0.9818226740009781)),
    (0.3, complex(1.0, -1.0), complex(0.07622288651015995, 0.36592454260706586)),
    (0.3, complex(3.0, -3.0), complex(-0.029045593535488256, -0.007097076314276213)),
    (0.3, complex(12.0, -12.0), complex(1.8340188084705562e-06, -3.2781186360082726e-07)),
    (0.3, complex(0.01, 0.01), complex(5.948614507741487, -1.6563344746265714)),
    (0.3, complex(1.0, 1.0), complex(0.07622288651015995, -0.36592454260706586)),
    (0.3, complex(12.0, 12.0), complex(1.8340188084705562e-06, 3.2781186360082726e-07)),
    (0.3, complex(2.0, 3.0), complex(-0.08331502494407202, 0.028900048927074422)),
    (0.3, complex(8.0, -5.0), complex(7.252445435881218e-05, -0.00011496758004107322)),
    (0.3, complex(20.0, 7.0), complex(3.5460562181817096e-10, -4.324268194338473e-10)),
    (0.3, complex(0.5, 0.0), complex(0.9764741243817879, 0.0)),
    (0.3, complex(6.0, 0.0), complex(0.0012526877833417556, 0.0)),
    (0.5, complex(0.01, -0.01), complex(9.599540003979262, 4.089196834710093)),
    (0.5, complex(0.1, -0.1), complex(2.6569181450805255, 1.4263934256828126)),
    (0.5, complex(1.0, -1.0), complex(0.06868578341999641, 0.38157825981268306)),
    (0.5, complex(3.0, -3.0), complex(-0.02934404035476715, -0.007527357335786566)),
    (0.5, complex(12.0, -12.0), complex(1.84117593640793e-06, -3.230139566622524e-07)),
    (0.5, complex(0.01, 0.01), complex(9.599540003979262, -4.089196834710093)),
    (0.5, complex(1.0, 1.0), complex(0.06868578341999641, -0.38157825981268306)),
    (0.5, complex(12.0, 12.0), complex(1.84117593640793e-06, 3.230139566622524e-07)),
    (0.5, complex(2.0, 3.0), complex(-0.08391780324334518, 0.030613771020067054)),
    (0.5, complex(8.0, -5.0), complex(7.351127844327788e-05, -0.0001154714571202348)),
    (0.5, complex(20.0, 7.0), complex(3.5532868238326876e-10, -4.3436619457443933e-10)),
    (0.5, complex(0.5, 0.0), complex(1.0750476034999203, 0.0)),
    (0.5, complex(6.0, 0.0), complex(0.0012682866523815886, 0.0)),
    (NU_EDGE, complex(0.01, -0.01), complex(36.79111301040653, 32.18874444361572)),
    (NU_EDGE, complex(0.1, -0.1), complex(4.307209414927967, 4.014564908680945)),
    (NU_EDGE, complex(1.0, -1.0), complex(0.03554886313214299, 0.4419442072391919)),
    (NU_EDGE, complex(3.0, -3.0), complex(-0.03042969807684101, -0.009177636738239453)),
    (NU_EDGE, complex(12.0, -12.0), complex(1.86745348220318e-06, -3.0511991435539075e-07)),
    (NU_EDGE, complex(0.01, 0.01), complex(36.79111301040653, -32.18874444361572)),
    (NU_EDGE, complex(1.0, 1.0), complex(0.03554886313214299, -0.4419442072391919)),
    (NU_EDGE, complex(12.0, 12.0), complex(1.86745348220318e-06, 3.0511991435539075e-07)),
    (NU_EDGE, complex(2.0, 3.0), complex(-0.08597081435443524, 0.03715293488322765)),
    (NU_EDGE, complex(8.0, -5.0), complex(7.719955322148992e-05, -0.0001173122371049368)),
    (NU_EDGE, complex(20.0, 7.0), complex(3.579778908547633e-10, -4.4153119510217146e-10)),
    (NU_EDGE, complex(0.5, 0.0), complex(1.5104538331933088, 0.0)),
    (NU_EDGE, complex(6.0, 0.0), complex(0.001326999201367593, 0.0)),
    (1.7, complex(0.01, -0.01), complex(480.05702548167244, 2000.2102732391363)),
    (1.7, complex(0.1, -0.1), complex(9.29998002295362, 39.96603945353207)),
    (1.7, complex(1.0, -1.0), complex(-0.1684499089383915, 0.6892766684611871)),
    (1.7, complex(3.0, -3.0), complex(-0.034085871028173814, -0.015958938888223428)),
    (1.7, complex(12.0, -12.0), complex(1.9604664139906903e-06, -2.3820119844480872e-07)),
    (1.7, complex(0.01, 0.01), complex(480.05702548167244, -2000.2102732391363)),
    (1.7, complex(1.0, 1.0), complex(-0.1684499089383915, -0.6892766684611871)),
    (1.7, complex(12.0, 12.0), complex(1.9604664139906903e-06, 2.3820119844480872e-07)),
    (1.7, complex(2.0, 3.0), complex(-0.0908374373427319, 0.06345332305508135)),
    (1.7, complex(8.0, -5.0), complex(9.11050682508228e-05, -0.00012369432394509765)),
    (1.7, complex(20.0, 7.0), complex(3.672874652045165e-10, -4.674757242692156e-10)),
    (1.7, complex(0.5, 0.0), complex(4.444156320186134, 0.0)),
    (1.7, complex(6.0, 0.0), complex(0.001554162431429607, 0.0)),
]

_GAMMA_REF = [
    (-1.3, 3.328347006788609),
    (NU_EDGE, 1.0574271317206385),
    (-NU_EDGE, -12.205439811770672),
]


# (x, Gamma(x)) at the arguments the link map and the matching use, 1 +- nu, 2 +- nu and
# +-nu for nu = 1/2 and sqrt(2) - 1/2: mpmath at mp.dps = 40 on the double x, 25 digits kept
_GAMMA_ORDER_REF = [
    (1.5, 0.8862269254527580136490837),
    (0.5, 1.772453850905516027298167),
    (2.5, 1.329340388179137020473626),
    (-0.5, -3.544907701811032054596335),
    (1.0 + NU_EDGE, 0.9667142250402891325457388),
    (1.0 - NU_EDGE, 11.15837861064926607121935),
    (2.0 + NU_EDGE, 1.850497480511117473337787),
    (2.0 - NU_EDGE, 0.9572375506998525125630653),
    (NU_EDGE, 1.05742713172063859954816),
    (-NU_EDGE, -12.20543981177067216715062),
]


class TestGamma:
    def test_order_arguments_against_mpmath(self):
        for x, ref in _GAMMA_ORDER_REF:
            assert abs(gamma_fn(x) - ref) <= 1e-14 * abs(ref)

    def test_memo_contract(self):
        # a repeat, a numpy scalar and a 0-d array all return the same float as the first call
        for x, _ in _GAMMA_ORDER_REF:
            first = gamma_fn(x)
            assert type(first) is float
            for again in (gamma_fn(x), gamma_fn(np.float64(x)), gamma_fn(np.array(x))):
                assert type(again) is float and again == first
        for x in (0.0, -3.0, np.float64(-2.0), np.array(-1.0)):
            for _ in range(2):  # a pole is never cached as a value
                with pytest.raises(ValueError, match="pole"):
                    gamma_fn(x)

    def test_against_stdlib(self):
        xs = np.concatenate([np.linspace(0.1, 30.0, 67),
                             [-0.3, -0.7, -1.5, -2.5, -3.3, -6.7, -11.1]])
        ours = np.array([gamma_fn(x) for x in xs])
        ref = np.array([math.gamma(x) for x in xs])
        assert_allclose(ours, ref, rtol=1e-13)

    def test_frozen_values(self):
        assert_allclose(gamma_fn(0.5), math.sqrt(math.pi), rtol=1e-14)
        for x, ref in _GAMMA_REF:
            assert_allclose(gamma_fn(x), ref, rtol=1e-13)

    def test_poles_raise(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(ValueError):
                gamma_fn(x)

    def test_functional_equation(self):
        rng = np.random.default_rng(20240817)
        for x in rng.uniform(0.2, 20.0, size=50):
            assert_allclose(gamma_fn(x + 1.0), x * gamma_fn(x), rtol=1e-13)


class TestBesselJY:
    def test_j_reference(self):
        for nu, x, ref in _J_REF:
            assert_allclose(bessel_j(nu, x), ref, rtol=5e-12, err_msg=f"J({nu}, {x})")

    def test_y_reference(self):
        for nu, x, ref in _Y_REF:
            assert_allclose(bessel_y(nu, x), ref, rtol=5e-12, err_msg=f"Y({nu}, {x})")

    def test_j_integer_order_allowed(self):
        # J needs no reflection machinery at integer order; Y and K reject it
        assert_allclose(bessel_j(1.0, 2.0), 0.5767248077568734, rtol=5e-12)

    def test_wronskian_battery(self):
        # random sweep constrained to the documented accuracy domain (nu <= 5, x <= 50)
        rng = np.random.default_rng(381)
        count = 0
        while count < 300:
            nu = float(rng.uniform(0.05, 4.95))
            if abs(nu - round(nu)) < 0.05:
                continue
            x = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
            wr = bessel_j(nu, x) * bessel_y_deriv(nu, x) - bessel_j_deriv(nu, x) * bessel_y(nu, x)
            assert_allclose(wr, 2.0 / (math.pi * x), rtol=1e-10,
                            err_msg=f"Wronskian at nu={nu}, x={x}")
            count += 1

    def test_half_order_closed_forms(self):
        for x in (0.3, 0.7, 1.1, 2.3, 4.2, 7.7, 13.4, 19.9, 33.3, 77.7):
            pref = math.sqrt(2.0 / (math.pi * x))
            assert_allclose(bessel_j(0.5, x), pref * math.sin(x), rtol=1e-12)
            assert_allclose(bessel_y(0.5, x), -pref * math.cos(x), rtol=1e-12)

    def test_derivatives_against_finite_differences(self):
        h = 1e-5
        for nu, x, ref in _J_REF:
            if x < 0.2:
                continue
            fd = (bessel_j(nu, x + h) - bessel_j(nu, x - h)) / (2.0 * h)
            assert_allclose(bessel_j_deriv(nu, x), fd, rtol=1e-6, atol=1e-9)
        for nu, x, ref in _Y_REF:
            if x < 0.2:
                continue
            fd = (bessel_y(nu, x + h) - bessel_y(nu, x - h)) / (2.0 * h)
            assert_allclose(bessel_y_deriv(nu, x), fd, rtol=1e-6, atol=1e-9)

    def test_y_integer_order_rejected(self):
        with pytest.raises(ValueError):
            bessel_y(1.0, 2.0)
        with pytest.raises(ValueError):
            bessel_y_deriv(3.0, 2.0)


class TestBesselK:
    def test_k_reference(self):
        for nu, z, ref in _K_REF:
            assert_allclose(bessel_k_complex(nu, z), ref, rtol=5e-10, err_msg=f"K({nu}, {z})")

    def test_half_order_closed_form(self):
        for z in (complex(1.0, -1.0), complex(1.0, 1.0), complex(3.0, -2.0),
                  complex(2.5, 0.0), complex(20.0, 5.0)):
            ref = np.sqrt(math.pi / (2.0 * np.complex128(z))) * np.exp(-np.complex128(z))
            assert_allclose(bessel_k_complex(0.5, z), complex(ref), rtol=1e-12)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(513)
        for _ in range(100):
            nu = float(rng.uniform(0.05, 1.95))
            if abs(nu - 1.0) < 0.05:
                continue
            z = complex(rng.uniform(0.05, 25.0), rng.uniform(-25.0, 25.0))
            val = bessel_k_complex(nu, z)
            ref = np.conj(bessel_k_complex(nu, np.conj(z)))
            assert abs(val - ref) <= 1e-13 * abs(val)

    def test_derivative_against_finite_differences(self):
        h = 1e-5
        for nu, z, ref in _K_REF:
            if abs(z) < 0.2:
                continue
            fd = (bessel_k_complex(nu, z + h) - bessel_k_complex(nu, z - h)) / (2.0 * h)
            assert_allclose(bessel_k_complex_deriv(nu, z), fd, rtol=1e-6)

    def test_integer_order_rejected(self):
        with pytest.raises(ValueError):
            bessel_k_complex(2.0, complex(1.0, 1.0))

    def test_subnormal_argument_is_a_range_error(self):
        # z / 2 underflows to 0 in the I_nu series: an OverflowError, not log(0)'s ValueError
        with pytest.raises(OverflowError, match="underflows to 0"):
            bessel_k_complex(0.5, 5e-324 * (1 - 1j))


class TestSmallArgCoeffs:
    # profile values at r = 1e-4 for scale-1 arguments, frozen from mpmath:
    # the expansion c_minus r^(-1/2-nu) + c_plus r^(-1/2+nu) must hit them to O(r^2)
    _FITS = [
        ("N", 0.5, 1.0 + 0.0j, 0.79788455947305776),
        ("N", NU_EDGE, 1.0 + 0.0j, 0.012096004396578812),
        ("S", 0.5, 1.0 + 0.0j, -7978.8455681344256),
        ("S", NU_EDGE, 1.0 + 0.0j, -287846.25559514065),
        ("DEF+", 0.5, 1.0 - 1.0j, complex(9735.4574832250002, 4033.6991525001080)),
        ("DEF+", NU_EDGE, 1.0 - 1.0j, complex(248047.66399423898, 216688.03667823875)),
    ]

    def test_expansion_matches_profiles(self):
        r = 1e-4
        for kind, nu, scale, ref in self._FITS:
            coeffs = small_arg_coeffs(kind, nu, scale)
            pred = coeffs.c_minus * r ** (-0.5 - nu) + coeffs.c_plus * r ** (-0.5 + nu)
            assert_allclose(pred, ref, rtol=1e-7, err_msg=f"{kind} fit at nu={nu}")

    def test_regular_kind_has_no_singular_part(self):
        for nu in (0.5, NU_EDGE, 0.3):
            coeffs = small_arg_coeffs("N", nu, 2.0)
            assert coeffs.c_minus == 0.0
            assert_allclose(coeffs.c_plus, 1.0 ** nu / gamma_fn(1.0 + nu) * (2.0 / 2.0) ** nu)

    def test_decaying_kind_closed_form(self):
        for nu in (0.5, NU_EDGE):
            for scale in (1.5 + 0.0j, 1.0 - 1.0j):
                coeffs = small_arg_coeffs("B", nu, scale)
                half = scale / 2.0
                assert_allclose(coeffs.c_minus, 0.5 * gamma_fn(nu) * half ** (-nu), rtol=1e-13)
                assert_allclose(coeffs.c_plus, 0.5 * gamma_fn(-nu) * half ** nu, rtol=1e-13)

    def test_conjugate_scales_give_conjugate_pairs(self):
        for nu in (0.5, NU_EDGE):
            plus = small_arg_coeffs("DEF+", nu, 1.0 - 1.0j)
            minus = small_arg_coeffs("DEF-", nu, 1.0 + 1.0j)
            assert_allclose(minus.c_minus, np.conj(plus.c_minus), rtol=1e-14)
            assert_allclose(minus.c_plus, np.conj(plus.c_plus), rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_arg_coeffs("Q", 0.5, 1.0)
        with pytest.raises(ValueError):
            small_arg_coeffs("N", 1.0, 1.0)
        with pytest.raises(ValueError):
            small_arg_coeffs("N", -0.5, 1.0)
        with pytest.raises(ValueError):
            SmallRBehavior(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            SmallRBehavior(2.0, 1.0, 1.0)
        # a valid construction round-trips its fields
        b = SmallRBehavior(0.5, 1.0 + 2.0j, 3.0)
        assert b.nu == 0.5 and b.c_minus == 1.0 + 2.0j and b.c_plus == 3.0
