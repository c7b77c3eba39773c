"""The lower component where its transport coefficient cancels.

At kappa = +sqrt(2), kind S, the two terms of (nu + 1/2 + kappa) Y_nu(x)
- x Y_(nu+1)(x) share their leading part, so their difference loses every
digit the small-x growth of Y_nu gains. The frozen values are the
imaginary part of the lower component at lam = mu = E = 1, from that very
difference in mpmath at 40 digits (mpmath 1.3.0, sqrt(2) at 40 digits,
nu = kappa + 1/2 exactly).
"""

import math

import pytest
from numpy.testing import assert_allclose

from radext.dirac import DiracRadialSolution

FROZEN = {
    1e-3: 5545.237582462378259672570108468811989717,
    1e-5: 3735460.071040911152582277741457887895177,
    1e-6: 96952198.14594561338823529336466191281726,
}


@pytest.mark.parametrize("r", sorted(FROZEN))
def test_cancelling_channel_matches_mpmath(r):
    sol = DiracRadialSolution(kappa=math.sqrt(2.0), kind="S", energy=1.0, lam=1.0, mu=1.0)
    got = sol.lower(r)
    assert got.real == 0.0
    assert_allclose(got.imag, FROZEN[r], rtol=1e-12)
