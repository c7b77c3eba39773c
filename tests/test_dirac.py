"""Tests for the relativistic small-radius diagnostics.

The closed-form exponents below are simple arithmetic in (nu, kappa) and are
written out literally; the normalizability verdicts are cross-checked against
a quadrature-based slope estimate computed independently in the test body.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from radext import dirac
from radext.channels import ModelParams
from radext.dirac import (
    DiracRadialSolution,
    dirac_normalizable,
    lower_exponent,
)

SQRT2 = math.sqrt(2.0)


class TestLowerExponent:
    # (kappa, kind) -> (coefficient, exponent); nu = |kappa + 1/2|
    _TABLE = [
        (0.0, "N", 1.0, -1.0),
        # coefficient 1/2 - nu + kappa cancels exactly; the subleading term
        # two powers up takes over and the profile is r^0 at the origin
        (0.0, "S", 0.0, 0.0),
        (-SQRT2, "N", 0.0, SQRT2),
        (-SQRT2, "S", 1.0 - 2.0 * SQRT2, -1.0 - SQRT2),
    ]

    def test_closed_forms(self):
        for kappa, kind, coeff, exp in self._TABLE:
            got = lower_exponent(kappa, kind)
            assert_allclose(got.cancellation_coefficient, coeff, atol=1e-12)
            assert_allclose(got.leading_exponent, exp, rtol=1e-12, atol=1e-12)

    def test_all_channels_regular_branch_normalizable(self):
        # the N branch of the lower component is never worse than r^{-1}
        for kappa in (0.0, -SQRT2, SQRT2 - 1.0):
            exp = lower_exponent(kappa, "N").leading_exponent
            assert 2.0 * exp + 3.0 > 0.0

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            lower_exponent(0.0, "B")


class TestDiracNormalizable:
    def test_verdicts(self):
        assert dirac_normalizable(0.0, "N") is True
        assert dirac_normalizable(0.0, "S") is True
        assert dirac_normalizable(-SQRT2, "N") is True
        assert dirac_normalizable(-SQRT2, "S") is False

    def test_exponent_criterion_is_the_verdict_on_every_channel(self):
        # extensions.is_dirac_consistent reads LowerExponent.normalizable alone: on every
        # monopole channel it must be what dirac_normalizable returns after its quadrature
        from radext.extensions import canonical_channels

        for eg in (0.5, 1.0, 1.5, 2.0):
            for kappa in {ch.kappa for ch in canonical_channels(ModelParams(eg=eg))}:
                for kind in ("N", "S"):
                    assert lower_exponent(kappa, kind).normalizable is dirac_normalizable(kappa, kind)

    def test_two_tail_integrals_per_verdict(self, monkeypatch):
        # the slope reads the integrals at eps = 1e-4 and 1e-6 only, so no third is formed
        calls = []
        real = dirac._tail_integral
        monkeypatch.setattr(dirac, "_tail_integral", lambda sol, eps, upper: calls.append(
            (sol.kappa, sol.kind, eps)) or real(sol, eps, upper))
        for kappa in (0.0, -SQRT2):
            for kind in ("N", "S"):
                calls.clear()
                dirac_normalizable(kappa, kind)
                assert calls == [(kappa, kind, 1e-4), (kappa, kind, 1e-6)]

    def test_order_is_formed_once_per_solution(self, monkeypatch):
        # a verdict forms nu once for its exponent and once for the one solution it builds,
        # however many of its some 480 quadrature nodes read it
        orders, built = [], []
        real = dirac.nu_of
        monkeypatch.setattr(dirac, "nu_of", lambda **kw: orders.append(kw) or real(**kw))

        class Counted(DiracRadialSolution):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(dirac, "DiracRadialSolution", Counted)
        for kappa in (0.0, -SQRT2):
            for kind in ("N", "S"):
                orders.clear()
                built.clear()
                dirac_normalizable(kappa, kind)
                assert len(built) == 1 and len(orders) == 2
                assert built[0].nu == real(kappa=kappa)

    def test_divergent_slope_matches_analytic_rate(self):
        # independent route: quadrature of the lower-component tail over a
        # shrinking cutoff; the log-log slope must match -(2 exp + 3)
        sol = DiracRadialSolution(kappa=-SQRT2, kind="S", energy=1.0, lam=1.0, mu=1.0)

        def tail(eps):
            val, _ = quad(
                lambda t: abs(sol.lower(math.exp(t))) ** 2 * math.exp(3.0 * t),
                math.log(eps),
                0.0,
                limit=200,
            )
            return val

        slope = math.log10(tail(1e-6) / tail(1e-4)) / 2.0
        rate = -(2.0 * lower_exponent(-SQRT2, "S").leading_exponent + 3.0)
        assert_allclose(slope, rate, rtol=0.1)


class TestDiracRadialSolution:
    def test_transport_identity(self):
        # the lower component is defined through the first-order transport
        # relation; check it against a finite difference of the upper one
        for kind, energy in (("N", 1.0), ("S", 1.0), ("B", -0.5)):
            sol = DiracRadialSolution(
                kappa=-SQRT2, kind=kind, energy=energy, lam=1.0, mu=1.0
            )
            h = 1e-6
            for r in (0.7, 1.3):
                fd = (
                    -1j
                    * (
                        (sol.upper(r + h) - sol.upper(r - h)) / (2.0 * h)
                        + (1.0 - SQRT2) / r * sol.upper(r)
                    )
                    / (1.0 + energy)
                )
                assert_allclose(sol.lower(r), fd, rtol=1e-6)

    def test_upper_is_scaled_bessel(self):
        from radext.specfun import bessel_j

        sol = DiracRadialSolution(kappa=0.0, kind="N", energy=0.3, lam=2.0, mu=1.0)
        r = 0.9
        assert_allclose(
            sol.upper(r), bessel_j(0.5, 2.0 * r) / math.sqrt(r), rtol=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            DiracRadialSolution(kappa=0.0, kind="X", energy=1.0, lam=1.0, mu=1.0)
        with pytest.raises(ValueError, match="lam"):
            DiracRadialSolution(kappa=0.0, kind="N", energy=1.0, lam=0.0, mu=1.0)
        with pytest.raises(ValueError, match="lam"):
            DiracRadialSolution(kappa=0.0, kind="N", energy=1.0, lam=-2.0, mu=1.0)
        # energy at the lower continuum edge makes the transport blow up
        with pytest.raises(ValueError, match="nonzero"):
            DiracRadialSolution(kappa=0.0, kind="N", energy=-1.0, lam=1.0, mu=1.0)
        # half-odd kappa gives integer order, outside the profile family
        with pytest.raises(ValueError):
            DiracRadialSolution(kappa=0.5, kind="N", energy=1.0, lam=1.0, mu=1.0)

    def test_mass_is_required(self):
        # the mass belongs to the model: the solution sets none of its own
        with pytest.raises(TypeError, match="mu"):
            DiracRadialSolution(kappa=0.0, kind="N", energy=1.0, lam=1.0)

