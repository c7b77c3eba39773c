"""Channel enumeration and quantum-number arithmetic."""

from __future__ import annotations

import math

import pytest
from numpy.testing import assert_allclose

from radext.channels import (
    ChannelSpec,
    ModelParams,
    channel_ladder,
    kappa_of,
    l_crit,
    nu_of,
    per_order,
    singular_channels,
    singular_count,
)

SQRT2 = math.sqrt(2.0)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert p.model == "monopole"
        assert p.eg == 0.5
        assert p.mu == 1.0
        assert p.deficiency_scale == 1.0

    def test_scale_tracks_mu_by_default(self):
        assert ModelParams(mu=2.0).deficiency_scale == 2.0
        assert ModelParams(mu=2.0, deficiency_scale=3.0).deficiency_scale == 3.0

    def test_zero_scale_is_refused(self):
        # None, not a zero, stands for the default s = mu
        assert ModelParams(mu=2.0, deficiency_scale=None).deficiency_scale == 2.0
        for zero in (0.0, -0.0, 0):
            with pytest.raises(ValueError, match="must be positive"):
                ModelParams(deficiency_scale=zero)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(model="coulomb")
        with pytest.raises(ValueError):
            ModelParams(mu=-1.0)
        with pytest.raises(ValueError):
            ModelParams(deficiency_scale=-2.0)
        for bad in ({"mu": math.inf}, {"deficiency_scale": math.inf}, {"eg": math.inf},
                    {"model": "inverse_square", "c": math.nan}):
            with pytest.raises(ValueError, match="finite"):
                ModelParams(**bad)
        # Dirac quantization: 2 eg must be a positive integer
        with pytest.raises(ValueError):
            ModelParams(eg=0.3)
        with pytest.raises(ValueError):
            ModelParams(eg=0.0)
        ModelParams(eg=1.5)  # allowed
        ModelParams(model="inverse_square", eg=0.3)  # eg ignored there


class TestChannelSpec:
    def test_exactly_one_angular_label(self):
        with pytest.raises(ValueError):
            ChannelSpec(m=0.0, nu_sq=0.25)
        with pytest.raises(ValueError):
            ChannelSpec(m=0.0, nu_sq=0.25, j=0.0, l=0)

    def test_kappa_consistency_enforced(self):
        ChannelSpec(m=0.0, nu_sq=0.25, j=0.0, kappa=0.0)
        with pytest.raises(ValueError):
            ChannelSpec(m=0.0, nu_sq=0.5, j=0.0, kappa=0.0)

    def test_nu_and_singular(self):
        ch = ChannelSpec(m=0.0, nu_sq=(SQRT2 - 0.5) ** 2, j=1.0, kappa=-SQRT2)
        assert_allclose(ch.nu, SQRT2 - 0.5, rtol=1e-15)
        assert ch.singular
        regular = ChannelSpec(m=0.0, nu_sq=2.25, l=1)
        assert not regular.singular

    def test_overcritical_nu_raises(self):
        ch = ChannelSpec(m=0.0, nu_sq=-0.75, l=0)
        assert ch.singular
        with pytest.raises(ValueError):
            ch.nu

    def test_coupling_dual_route(self):
        # kappa (kappa + 1) and nu^2 - 1/4 must agree on every ladder sector
        for eg in (0.5, 1.0, 1.5):
            j = eg - 0.5
            while j < 6.0:
                for kappa in kappa_of(j, eg):
                    ch = ChannelSpec(m=0.0, nu_sq=(kappa + 0.5) ** 2, j=j, kappa=kappa)
                    assert abs(ch.coupling - kappa * (kappa + 1.0)) < 1e-12
                j += 1.0


class TestKappaOf:
    def test_examples(self):
        lo, hi = kappa_of(1.0, 0.5)
        assert_allclose((lo, hi), (-SQRT2, SQRT2), rtol=1e-15)
        assert kappa_of(0.0, 0.5) == (0.0, 0.0)
        lo, hi = kappa_of(1.5, 1.0)
        assert_allclose((lo, hi), (-math.sqrt(3.0), math.sqrt(3.0)), rtol=1e-15)

    def test_pair_symmetry(self):
        for eg in (0.5, 1.0, 2.5):
            j = eg - 0.5
            while j < 8.0:
                lo, hi = kappa_of(j, eg)
                assert lo == -hi
                j += 1.0

    def test_off_ladder_rejected(self):
        with pytest.raises(ValueError):
            kappa_of(0.7, 0.5)
        with pytest.raises(ValueError):
            kappa_of(0.0, 1.0)  # below the bottom sector j = eg - 1/2


class TestLCrit:
    def test_values(self):
        assert l_crit(-0.75) == 0.0
        assert_allclose(l_crit(0.75), (-1.0 + math.sqrt(7.0)) / 2.0, rtol=1e-15)
        assert_allclose(l_crit(3.25), (-1.0 + math.sqrt(17.0)) / 2.0, rtol=1e-15)
        assert_allclose(l_crit(0.0), 0.5, rtol=1e-15)

    def test_strong_repulsion_clamps_to_zero(self):
        assert l_crit(-2.0) == 0.0


class TestNuOf:
    def test_examples(self):
        assert_allclose(nu_of(kappa=-SQRT2), SQRT2 - 0.5, rtol=1e-15)
        assert_allclose(nu_of(kappa=0.0), 0.5, rtol=1e-15)
        assert_allclose(nu_of(l=0, c=0.0), 0.5, rtol=1e-15)

    def test_argument_exclusivity(self):
        with pytest.raises(ValueError):
            nu_of()
        with pytest.raises(ValueError):
            nu_of(kappa=0.0, l=0)

    def test_overcritical_rejected(self):
        with pytest.raises(ValueError):
            nu_of(l=0, c=1.0)

    def test_integer_order_rejected(self):
        with pytest.raises(ValueError):
            nu_of(kappa=0.5)


class TestSingularChannelsMonopole:
    def test_canonical_four(self):
        chans = singular_channels(ModelParams(), cutoff=1.0)
        assert len(chans) == 4
        assert (chans[0].j, chans[0].kappa, chans[0].m) == (0.0, 0.0, 0.0)
        for ch, m in zip(chans[1:], (-1.0, 0.0, 1.0)):
            assert ch.j == 1.0
            assert_allclose(ch.kappa, -SQRT2, rtol=1e-15)
            assert ch.m == m
        orders = sorted({round(ch.nu, 12) for ch in chans})
        assert_allclose(orders, [0.5, SQRT2 - 0.5], rtol=1e-12)
        assert all(ch.singular for ch in chans)

    def test_singular_kappa_set(self):
        chans = singular_channels(ModelParams(), cutoff=4.0)
        assert len(chans) == 4  # larger cutoff adds nothing: only kappa in {0, -sqrt(2)} qualify
        assert sorted({round(ch.kappa, 12) for ch in chans}) == [round(-SQRT2, 12), 0.0]

    def test_cutoff_must_cover_last_sector(self):
        with pytest.raises(ValueError):
            singular_channels(ModelParams(), cutoff=0.0)
        with pytest.raises(ValueError):
            singular_channels(ModelParams(), cutoff=0.9)
        singular_channels(ModelParams(), cutoff=1.0)

    def test_higher_coupling(self):
        # eg = 1: only the bottom sector j = 1/2 (kappa = 0) is singular
        chans = singular_channels(ModelParams(eg=1.0), cutoff=3.0)
        assert len(chans) == 2
        assert all(ch.j == 0.5 and ch.kappa == 0.0 for ch in chans)
        assert [ch.m for ch in chans] == [-0.5, 0.5]


class TestSingularChannelsInverseSquare:
    def test_repulsive_is_empty(self):
        params = ModelParams(model="inverse_square", c=-0.75)
        assert singular_channels(params, cutoff=5.0) == []

    def test_single_overcritical_channel(self):
        params = ModelParams(model="inverse_square", c=1.0)
        chans = singular_channels(params, cutoff=5.0)
        assert len(chans) == 1
        ch = chans[0]
        assert (ch.l, ch.m) == (0, 0.0)
        assert_allclose(ch.nu_sq, -0.75, rtol=1e-15)
        assert ch.singular
        with pytest.raises(ValueError):
            ch.nu  # no real order below the critical strength

    def test_subcritical_channel(self):
        params = ModelParams(model="inverse_square", c=0.1)
        chans = singular_channels(params, cutoff=5.0)
        assert len(chans) == 1
        assert_allclose(chans[0].nu, math.sqrt(0.15), rtol=1e-15)

    def test_lexicographic_order(self):
        params = ModelParams(model="inverse_square", c=3.25)
        chans = singular_channels(params, cutoff=5.0)
        labels = [(ch.l, ch.m) for ch in chans]
        assert labels == [(0, 0.0), (1, -1.0), (1, 0.0), (1, 1.0)]
        assert labels == sorted(labels)

    def test_cutoff_check(self):
        params = ModelParams(model="inverse_square", c=3.25)
        with pytest.raises(ValueError):
            singular_channels(params, cutoff=0.0)
        assert len(singular_channels(params, cutoff=1.0)) == 4


def test_channel_ladder_needs_a_finite_cutoff():
    # an infinite cutoff would never end the ladder, and a NaN one would end it empty
    for params in (ModelParams(), ModelParams(model="inverse_square", c=0.5)):
        for cutoff in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                channel_ladder(params, cutoff)


def test_singular_count_is_the_length_of_the_list():
    # eg up to 15, and c across the sector edges, where nu^2 = 1 exactly and just either side
    cases = [ModelParams(eg=0.5 * n) for n in range(1, 31)]
    strengths = [0.1 * i - 3.0 for i in range(400)]
    strengths += [l * (l + 1) - 0.75 + d for l in range(6) for d in (-1e-9, 0.0, 1e-9)]
    cases += [ModelParams(model="inverse_square", c=c) for c in strengths]
    for params in cases:
        assert singular_count(params) == len(singular_channels(params, math.inf)), params


_CALLS: list[float] = []


def _doubled(nu, factor):
    _CALLS.append(nu)
    return factor * nu


def test_per_order_evaluates_each_order_once():
    per_order.cache_clear()
    _CALLS.clear()
    # orders 1/2, then sqrt(2) - 1/2 three times
    orders = tuple(ch.nu for ch in singular_channels(ModelParams(), math.inf))
    out = per_order(_doubled, orders, 2.0)
    assert _CALLS == [0.5, SQRT2 - 0.5]
    assert out.tolist() == [2.0 * nu for nu in orders]
    # once per process: the repeat is the same table, with no call of fn
    assert per_order(_doubled, orders, 2.0) is out
    assert _CALLS == [0.5, SQRT2 - 0.5]


def test_per_order_tables_are_read_only():
    table = per_order(_doubled, (0.5, 0.25), 1.0)
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 3.0
