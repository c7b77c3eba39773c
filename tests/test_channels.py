"""Channel enumeration, quantum-number arithmetic, and the input rules and typed refusals held here."""

from __future__ import annotations

import json
import math
import pickle

import pytest
from numpy.testing import assert_allclose

from radext import annulus, channels, cli, extensions
from radext.channels import (
    AnnulusGrid,
    ChannelSpec,
    HermiticityError,
    LinkBreakdownError,
    ModelParams,
    UnitarityError,
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


# the input rules and typed refusals defined in channels, by the paths they were first read at
REEXPORTS = [
    (annulus, "AnnulusGrid"),
    (annulus, "HermiticityError"),
    (annulus, "LinkBreakdownError"),
    (extensions, "UnitarityError"),
    (extensions, "check_unitary"),
    (extensions, "unitarity_defect"),
    (cli, "UnitarityError"),
]


@pytest.mark.parametrize(("module", "name"), REEXPORTS,
                         ids=[f"{module.__name__}.{name}" for module, name in REEXPORTS])
def test_old_paths_give_the_one_object(module, name):
    assert getattr(module, name) is getattr(channels, name)


@pytest.mark.parametrize(("exc_type", "prefix"), [(UnitarityError, "unitarity error"),
                                                  (LinkBreakdownError, "unitarity error"),
                                                  (HermiticityError, "hermiticity error")],
                         ids=lambda value: getattr(value, "__name__", None))
def test_typed_refusal_from_the_link_map_keeps_its_exit_code(tmp_path, monkeypatch, capsys, exc_type, prefix):
    # raised where the handler's lazily imported physics raises it
    def fail(*args):
        raise exc_type("forced")

    monkeypatch.setattr(annulus, "g_from_u", fail)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"extension": {"diagonal_thetas": [0, 0, 0, 0]}}), encoding="utf-8")
    assert cli.main(["gmap", "--config", str(path), "--r0", "0.1"]) == 3
    assert capsys.readouterr().err == f"{prefix}: forced\n"


def test_link_breakdown_of_a_haar_u_exits_3(tmp_path, capsys):
    u = extensions.haar_unitary(1)
    with pytest.raises(LinkBreakdownError):
        annulus.g_from_u(extensions.ExtensionMatrix(u, ModelParams()), 1e-8)
    path = tmp_path / "haar.json"
    path.write_text(json.dumps({"extension": {"matrix": [[[z.real, z.imag] for z in row] for row in u]}}),
                    encoding="utf-8")
    assert cli.main(["gmap", "--config", str(path), "--r0", "1e-8"]) == 3
    assert capsys.readouterr().err.startswith("unitarity error:")


@pytest.mark.parametrize("obj", [UnitarityError("u"), HermiticityError("h"), LinkBreakdownError("l"),
                                 AnnulusGrid(r0=1e-3, R=40.0, n=8000)], ids=lambda obj: type(obj).__name__)
def test_refusals_and_grids_survive_pickle(obj):
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is type(obj)
    if isinstance(obj, Exception):
        assert back.args == obj.args
    else:
        assert back == obj and back.h == obj.h
