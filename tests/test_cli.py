"""End-to-end tests for the batch front end.

Everything goes through cli.main(argv) so the exit-code contract is tested
exactly as a shell user would see it: 0 success, 2 config error, 3
unitarity or Hermiticity violation, 4 numerical failure.
"""

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from radext import annulus, cli, dirac, extensions, specfun
from radext.cli import (
    ConfigError,
    UnitarityError,
    emit_config,
    parse_config,
)
from radext.channels import ModelParams
from radext.extensions import ExtensionMatrix, bound_state_energy_theta, dirac_consistent_value, haar_unitary
from radext.specfun import bessel_j

NU_EDGE = math.sqrt(2.0) - 0.5

SWAP_JSON = [
    [[0, 0], [1, 0], [0, 0], [0, 0]],
    [[1, 0], [0, 0], [0, 0], [0, 0]],
    [[0, 0], [0, 0], [1, 0], [0, 0]],
    [[0, 0], [0, 0], [0, 0], [1, 0]],
]


@pytest.fixture
def make_config(tmp_path):
    def _write(doc, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


def _csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("{}")
        assert cfg.params.model == "monopole"
        assert cfg.params.eg == 0.5
        assert cfg.params.mu == 1.0
        assert cfg.params.deficiency_scale == 1.0
        assert cfg.matrix is None and cfg.diagonal_thetas is None
        assert (cfg.oracle.r0, cfg.oracle.R, cfg.oracle.n, cfg.oracle.k) == (1e-3, 40.0, 8000, 1)
        assert cfg.output_format == "csv" and cfg.output_path is None

    def test_scale_tracks_mu(self):
        cfg = parse_config('{"model": {"mu": 2.0}}')
        assert cfg.params.deficiency_scale == 2.0

    def test_schema_rejections(self):
        # json reads NaN and Infinity, which no field accepts
        nan_entry = [row[:] for row in SWAP_JSON]
        nan_entry[0] = [[math.nan, 0.0]] + nan_entry[0][1:]
        for text, frag in [
            ("not json", "valid JSON"),
            ('{"bogus": {}}', "unknown key"),
            ('{"model": {"typ": "monopole"}}', "unknown key"),
            ('{"tolerances": {}}', "unknown key"),
            ('{"model": {"type": "coulomb"}}', "model.type"),
            ('{"model": {"mu": true}}', "must be a number"),
            ('{"oracle": {"n": 99}}', "at least 100"),
            ('{"oracle": {"r0": 50.0}}', "0 < r0 < R"),
            ('{"output": {"format": "xml"}}', "output.format"),
            ('{"extension": {}}', "exactly one"),
            ('{"extension": {"matrix": [], "diagonal_thetas": []}}', "exactly one"),
            ('{"extension": {"diagonal_thetas": [0, 0, 0]}}', "channel-count"),
            ('{"oracle": {"R": NaN}}', "must be finite"),
            ('{"oracle": {"r0": -Infinity}}', "must be finite"),
            ('{"model": {"mu": Infinity}}', "must be finite"),
            ('{"extension": {"diagonal_thetas": [NaN, 0, 0, 0]}}', "finite numbers"),
            (json.dumps({"extension": {"matrix": nan_entry}}), "finite numbers"),
            ('{"model": {"eg": 0.7}}', "2\\*eg"),
            ('{"oracle": {"n": 1.5}}', "must be an integer"),
            ('{"model": []}', "must be an object"),
            ('{"extension": {"matrix": []}}', "non-empty"),
            ('{"output": {"path": 3}}', "string or null"),
        ]:
            with pytest.raises(ConfigError, match=frag):
                parse_config(text)

    @pytest.mark.parametrize("scale", ["0", "0.0", "-0.0"])
    def test_zero_scale_is_refused(self, make_config, capsys, scale):
        # ModelParams decides the default scale (mu); a zero is a non-positive scale like any other
        text = '{"model": {"deficiency_scale": %s}}' % scale
        with pytest.raises(ConfigError, match="must be positive"):
            parse_config(text)
        path = make_config(json.loads(text))
        assert cli.main(["emit-config", "--config", path]) == 2
        assert "deficiency_scale must be positive" in capsys.readouterr().err

    def test_matrix_shape_rejections(self):
        with pytest.raises(ConfigError, match="row"):
            parse_config('{"extension": {"matrix": [[[1, 0], [0, 1]]] }}')
        with pytest.raises(ConfigError, match="pair"):
            parse_config('{"extension": {"matrix": [[1, 0], [0, 1]]}}')
        with pytest.raises(ConfigError, match="channel-count"):
            parse_config('{"extension": {"matrix": [[[1, 0]]] }}')

    def test_non_unitary_matrix(self, make_config, capsys):
        doc = {"extension": {"matrix": [[[2.0 if i == j else 0.0, 0.0]
                                         for j in range(4)] for i in range(4)]}}
        with pytest.raises(UnitarityError, match="defect"):
            parse_config(json.dumps(doc))
        # the library's one unitarity decision and message, at parse time, before any subcommand
        assert cli.main(["emit-config", "--config", make_config(doc)]) == 3
        assert capsys.readouterr().err == ("unitarity error: extension matrix is not unitary: "
                                           "defect 3.000e+00 exceeds tolerance 1.0e-10\n")
        assert UnitarityError is extensions.UnitarityError

    def test_huge_channel_count_is_refused_before_the_list(self, make_config, capsys):
        # eg = 1e8 has 2e8 singular channels and c = 1e8 about 1e8: a list of them would take
        # tens of GB, the count alone none
        for model in ({"eg": 1e8}, {"type": "inverse_square", "c": 1e8}):
            path = make_config({"model": model, "extension": {"diagonal_thetas": [0.0] * 4}})
            tracemalloc.start()
            try:
                assert cli.main(["emit-config", "--config", path]) == 2
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10e6
            assert "channel-count" in capsys.readouterr().err

    def test_channel_count_uses_model(self):
        # c = 1.0 leaves a single (overcritical) singular channel, so a
        # 4x4 matrix is a schema-level mismatch
        doc = {"model": {"type": "inverse_square", "c": 1.0},
               "extension": {"matrix": SWAP_JSON}}
        with pytest.raises(ConfigError, match="channel-count"):
            parse_config(json.dumps(doc))


class TestEmitConfig:
    def test_round_trip_is_byte_identical(self):
        text = emit_config(parse_config('{"model": {"mu": 1.5}}'))
        assert emit_config(parse_config(text)) == text
        # canonical output is itself valid JSON with sorted keys
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert doc["model"]["mu"] == 1.5

    def test_matrix_round_trip(self):
        doc = {"extension": {"matrix": SWAP_JSON}}
        text = emit_config(parse_config(json.dumps(doc)))
        again = emit_config(parse_config(text))
        assert again == text

    def test_thetas_round_trip(self):
        doc = {"model": {"eg": 1.0, "mu": 2.0}, "extension": {"diagonal_thetas": [0.3, -1.2]}}
        text = emit_config(parse_config(json.dumps(doc)))
        assert emit_config(parse_config(text)) == text
        assert json.loads(text)["extension"] == {"diagonal_thetas": [0.3, -1.2]}
        assert json.loads(text)["model"]["deficiency_scale"] == 2.0

    def test_command(self, make_config, capsys):
        path = make_config({"model": {"eg": 1.0}})
        assert cli.main(["emit-config", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out == emit_config(parse_config('{"model": {"eg": 1.0}}'))


class TestChannelsCommand:
    def test_monopole_table(self, capsys):
        assert cli.main(["channels", "--jmax", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# units:")
        header, rows = _csv_rows(out)
        assert header == ["j", "m", "kappa", "nu", "singular"]
        assert rows[0] == ["0", "0", "0", "0.5", "true"]
        # both kappa roots appear at j = 1 and only one is singular
        j1 = [r for r in rows if r[0] == "1"]
        assert {r[4] for r in j1} == {"true", "false"}

    def test_inverse_square_table(self, capsys):
        assert cli.main(["channels", "--model", "inverse_square",
                         "--c", "0.5", "--lmax", "1"]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["l", "m", "nu", "singular"]
        # overcritical l = 0 channel reports nan for nu but stays singular
        assert rows[0][2] == "nan" and rows[0][3] == "true"
        assert len(rows) == 4

    def test_non_finite_arguments_exit_2(self, capsys):
        for argv in (["--jmax", "inf"], ["--jmax", "nan"], ["--eg", "inf"],
                     ["--model", "inverse_square", "--c", "nan"]):
            assert cli.main(["channels", *argv]) == 2
            assert "must be finite" in capsys.readouterr().err

    def test_model_defaults_come_from_model_params(self, monkeypatch, capsys):
        # only the flags given are passed, and the cutoff option follows the model built
        given = []

        def spy(**kwargs):
            given.append(kwargs)
            return ModelParams(**kwargs)

        monkeypatch.setattr(cli, "ModelParams", spy)
        assert cli.main(["channels"]) == 0
        assert cli.main(["channels", "--eg", "1.0", "--c", "0.2"]) == 0
        capsys.readouterr()
        assert cli.main(["channels", "--model", "inverse_square", "--lmax", "0"]) == 0
        assert given == [{}, {"eg": 1.0, "c": 0.2}, {"model": "inverse_square"}]
        assert _csv_rows(capsys.readouterr().out) == (["l", "m", "nu", "singular"], [["0", "0", "0.5", "true"]])

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "chan.csv"
        assert cli.main(["channels", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").startswith("# units:")


class TestBoundStatesCommand:
    def test_identity_thetas(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["bound-states", "--config", path]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["channel", "theta", "E_over_mu", "lambda_over_mu"]
        assert len(rows) == 4
        for row in rows:
            assert row[2] == "-1"
            assert_allclose(float(row[3]), math.sqrt(2.0), rtol=1e-15)

    def test_out_of_window_channels_drop_out(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, math.pi, math.pi, math.pi]}})
        assert cli.main(["bound-states", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0][0] == "0"

    def test_inverse_square_route(self, make_config, capsys):
        path = make_config({"model": {"type": "inverse_square", "c": 0.1},
                            "extension": {"diagonal_thetas": [0.0]}})
        assert cli.main(["bound-states", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0][2] == "-1"

    def test_energy_past_float_range_exit_4(self, make_config, capsys):
        # nu = 0.01 just inside the window edge: |E| ~ 1e450 mu
        nu = math.sqrt(0.25 - 0.2499)
        theta = cmath.phase(dirac_consistent_value(nu)) + 1e-6
        path = make_config({"model": {"type": "inverse_square", "c": 0.2499},
                            "extension": {"diagonal_thetas": [theta]}})
        assert cli.main(["bound-states", "--config", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "nu = 0.0099" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        # nu = 0.01 near the window edge: ratio^(1/nu) underflows
        {"model": {"type": "inverse_square", "c": 0.2499}, "extension": {"diagonal_thetas": [3.12587]}},
        # the unit s^2/mu underflows to zero, or to a subnormal with lost digits
        {"model": {"deficiency_scale": 1e-300}, "extension": {"diagonal_thetas": [0.3] * 4}},
        {"model": {"deficiency_scale": 1e-161}, "extension": {"diagonal_thetas": [0.3] * 4}},
    ], ids=["ratio", "unit", "subnormal"])
    def test_energy_underflow_exit_4(self, make_config, capsys, doc):
        # an energy below the smallest normal float is past the float range, not a config
        # error; oracle computes the closed forms first
        path = make_config(doc)
        for command in ("bound-states", "oracle"):
            assert cli.main([command, "--config", path]) == 4
            err = capsys.readouterr().err
            assert err.startswith("numerical error:") and "underflows" in err

    def test_huge_mass_stays_in_range(self, make_config, capsys):
        # lambda = sqrt(2 mu) sqrt(-E): the product 2 mu E alone would overflow at mu = 1e300
        path = make_config({"model": {"mu": 1e300}, "extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["bound-states", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 4
        for row in rows:
            assert row[2] == "-1"
            assert_allclose(float(row[3]), math.sqrt(2.0), rtol=1e-15)

    def test_missing_extension(self, make_config, capsys):
        path = make_config({})
        assert cli.main(["bound-states", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["bound-states", "--config", "/nonexistent.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unreadable_config_and_unwritable_output(self, make_config, tmp_path, capsys):
        # a directory where a file is expected: any OSError on either side is a config error
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]},
                            "output": {"path": str(tmp_path)}})
        for argv in (["bound-states", "--config", str(tmp_path)],
                     ["bound-states", "--config", path],
                     ["channels", "--output", str(tmp_path)]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("config error:") and "Traceback" not in captured.err
            assert captured.out == ""

    def test_json_format(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]},
                            "output": {"format": "json"}})
        assert cli.main(["bound-states", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["channel", "theta", "E_over_mu", "lambda_over_mu"]
        assert len(doc["rows"]) == 4

    def test_output_path(self, make_config, tmp_path, capsys):
        target = tmp_path / "bound.csv"
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]},
                            "output": {"path": str(target)}})
        assert cli.main(["bound-states", "--config", path]) == 0
        assert capsys.readouterr().out == ""
        assert "# units:" in target.read_text(encoding="utf-8")


class TestSmatrixCommand:
    def test_identity_no_mixing(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["smatrix", "--config", path, "--E", "1.0"]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["source", "channel", "AN_re", "AN_im", "AS_re", "AS_im"]
        assert len(rows) == 16
        for row in rows:
            src, ch = int(row[0]), int(row[1])
            amp = [float(v) for v in row[2:]]
            if src == ch:
                assert max(abs(v) for v in amp) > 1e-3
            else:
                assert max(abs(v) for v in amp) < 1e-12

    def test_rejections(self, make_config, capsys):
        # the single 1/r^2 channel has its own (source, channel) row; only E outside (0, inf)
        # is refused
        path = make_config({"model": {"type": "inverse_square", "c": 0.1},
                            "extension": {"diagonal_thetas": [0.0]}})
        assert cli.main(["smatrix", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert [r[:2] for r in rows] == [["0", "0"]]
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["smatrix", "--config", path, "--E", "-1.0"]) == 2
        assert cli.main(["smatrix", "--config", path, "--E", "inf"]) == 2
        capsys.readouterr()

    def test_float_range(self, make_config, capsys):
        # 2 mu E overflows at E = 1e308, but lambda = sqrt(2 mu) sqrt(E) does not
        p = cmath.phase(dirac_consistent_value(NU_EDGE))
        path = make_config({"extension": {"diagonal_thetas": [0.3, p, p, p]}})
        assert cli.main(["smatrix", "--config", path, "--E", "1e308"]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 16 and all(math.isfinite(float(v)) for row in rows for v in row)
        # at s = mu = 1e300 the problem is the one at mu = 1 in the units the CLI prints
        tables = []
        for model in ({"mu": 1e300}, {}):
            path = make_config({"model": model, "extension": {"diagonal_thetas": [0, 0, 0, 0]}})
            assert cli.main(["smatrix", "--config", path]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]
        # at s = 1e300 mu the small-r pairs leave the float range, and at s = 1e-300 mu they
        # underflow: range failures, not tables of inf or 0
        for model in ({"deficiency_scale": 1e300}, {"deficiency_scale": 1e-300}):
            path = make_config({"model": model, "extension": {"diagonal_thetas": [0, 0, 0, 0]}})
            assert cli.main(["smatrix", "--config", path]) == 4
            captured = capsys.readouterr()
            assert captured.err.startswith("numerical error:") and captured.out == ""
        # at s = 1e-160, where s^2 is subnormal, the amplitudes stay finite and nonzero
        path = make_config({"model": {"deficiency_scale": 1e-160},
                            "extension": {"diagonal_thetas": [0.3, 0.3, 0.3, 0.3]}})
        assert cli.main(["smatrix", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        assert all(float(row[2]) != 0.0 for row in rows if row[0] == row[1])


class TestGmapCommand:
    def test_identity(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["gmap", "--config", path, "--r0", "0.1"]) == 0
        out = capsys.readouterr().out
        header, rows = _csv_rows(out)
        assert header == ["row", "col", "g_re", "g_im"]
        assert len(rows) == 16
        for row in rows:
            if row[0] != row[1]:
                assert float(row[2]) == 0.0 and float(row[3]) == 0.0
        assert "# hermiticity_defect:" in out

    def test_breakdown_radius_exit_3(self, make_config, capsys):
        path = make_config({"extension": {"matrix": SWAP_JSON}})
        assert cli.main(["gmap", "--config", path, "--r0", "1e-8"]) == 3
        assert capsys.readouterr().err.startswith("unitarity error:")

    def test_non_positive_radius_is_config_error(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        for r0 in ("0", "-0.1", "nan", "inf"):
            assert cli.main(["gmap", "--config", path, "--r0", r0]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "--r0" in err

    def test_overcritical_is_config_error(self, make_config, capsys):
        path = make_config({"model": {"type": "inverse_square", "c": 1.0},
                            "extension": {"diagonal_thetas": [0.0]}})
        assert cli.main(["gmap", "--config", path, "--r0", "0.1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_inverse_square_subcritical(self, make_config, capsys):
        path = make_config({"model": {"type": "inverse_square", "c": 0.1},
                            "extension": {"diagonal_thetas": [0.5]}})
        assert cli.main(["gmap", "--config", path, "--r0", "0.1"]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 1

    def test_json_format(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]},
                            "output": {"format": "json"}})
        assert cli.main(["gmap", "--config", path, "--r0", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["row", "col", "g_re", "g_im"]
        assert any("hermiticity_defect" in note for note in doc["notes"])


class TestOracleCommand:
    def test_diagonal_channels(self, make_config, capsys):
        # the identity binds every channel at E = -1: the k = 4 lowest levels of one solve
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]},
                            "oracle": {"n": 4000, "k": 4}})
        assert cli.main(["oracle", "--config", path]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["index", "E_numeric", "E_analytic", "rel_err"]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        for row in rows:
            assert float(row[2]) == -1.0
            assert float(row[3]) < 0.01

    def test_unmixed_runs_take_g_from_the_shared_link_map(self, make_config, capsys, monkeypatch):
        # one coupled solve gives the sorted union of the channels' own levels, here from
        # scipy's tridiagonal bisection on each channel's operator at its scalar link value
        thetas = [0.3, 1.1, -0.4, 2.0]
        ext = ExtensionMatrix.from_diagonal_thetas(thetas)
        grid = annulus.AnnulusGrid(r0=0.01, R=20.0, n=400)
        single = []
        for ch, theta in zip(ext.channels, thetas):
            gval = annulus.diagonal_link_value(ch.nu, theta, 0.01, 1.0)
            g = annulus.BoundaryConditionMatrix(0.01, (ch,), [[gval]])
            h1 = annulus.assemble_radial_hamiltonian(ModelParams(), grid, g, (ch,))
            single.extend(scipy.linalg.eigh_tridiagonal(
                np.concatenate((h1.block[0].real, h1.onsite[:, 0])), h1.hops[:, 0],
                eigvals_only=True, select="i", select_range=(0, 3)))

        def gone(*args):
            raise AssertionError("the oracle reads every g from g_from_u")

        monkeypatch.setattr(annulus, "diagonal_link_value", gone)
        path = make_config({"extension": {"diagonal_thetas": thetas},
                            "oracle": {"n": 400, "R": 20.0, "r0": 0.01, "k": 4}})
        assert cli.main(["oracle", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert_allclose([float(r[1]) for r in rows], np.sort(single)[:4], rtol=1e-8)
        analytic = [bound_state_energy_theta(t, ch.nu, 1.0) for ch, t in zip(ext.channels, thetas)]
        assert analytic[3] is None
        assert_allclose([float(r[2]) for r in rows[:3]], sorted(analytic[:3]), rtol=1e-13)
        assert rows[3][2] == "nan"

    @pytest.mark.parametrize("model", [{"deficiency_scale": 2.0}, {"mu": 2.0, "deficiency_scale": 1.0}])
    def test_analytic_levels_honour_the_deficiency_scale(self, make_config, capsys, model):
        path = make_config({"model": model, "extension": {"diagonal_thetas": [0.3] * 4},
                            "oracle": {"k": 4, "R": 20.0}})
        assert cli.main(["oracle", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 4 and max(float(r[3]) for r in rows) <= 1e-4

    def test_coupled_extension(self, make_config, capsys):
        path = make_config({"extension": {"matrix": SWAP_JSON},
                            "oracle": {"n": 150, "R": 10.0, "r0": 0.05}})
        assert cli.main(["oracle", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0][2] == "nan"

    def test_breakdown_exit_3(self, make_config, capsys):
        path = make_config({"extension": {"matrix": SWAP_JSON},
                            "oracle": {"n": 150, "R": 10.0, "r0": 1e-8}})
        assert cli.main(["oracle", "--config", path]) == 3
        assert capsys.readouterr().err.startswith("unitarity error:")

    def test_link_inversion_breakdown_exit_3(self, make_config, capsys):
        # diagonal Robin data passes the link map at any r0, but reading it back as
        # an extension is past working precision here for nu = sqrt(2) - 1/2
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]},
                            "oracle": {"n": 150, "R": 10.0, "r0": 1e-8}})
        assert cli.main(["oracle", "--config", path]) == 3
        assert "unitarity error" in capsys.readouterr().err

    def test_non_convergence_exit_4(self, make_config, capsys, monkeypatch):
        def boom(operator, k):
            raise ArithmeticError("forced non-convergence")

        monkeypatch.setattr("radext.annulus.oracle_spectrum", boom)
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]},
                            "oracle": {"n": 150, "R": 10.0, "r0": 0.05}})
        assert cli.main(["oracle", "--config", path]) == 4
        assert capsys.readouterr().err.startswith("numerical error:")

    def test_dirac_consistent_phase_gives_the_regular_level(self, make_config, capsys):
        # at the Dirac-consistent phase the link value keeps a ~1e-10 imaginary part, within
        # the 1e-9 boundary-data gate; the extension reading takes only its real part, through
        # U, and the j = 1 channels then give the regular-spectrum level (j_nu,1 / R)^2 / (2 mu),
        # J_nu(j_nu,1) = 0
        p = cmath.phase(dirac_consistent_value(NU_EDGE))
        path = make_config({"extension": {"diagonal_thetas": [0.3, p, p, p]}, "oracle": {"k": 5}})
        assert cli.main(["oracle", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        lo, hi = 2.0, 5.0  # bisect the first zero of J_nu
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if bessel_j(NU_EDGE, mid) > 0.0 else (lo, mid)
        # row 0 is the j = 0 channel's bound state, and the regular level is the j = 1 triplet's
        assert float(rows[0][2]) == bound_state_energy_theta(0.3, 0.5, 1.0)
        assert float(rows[0][3]) < 1e-4
        regular = (lo / 40.0) ** 2 / 2.0
        assert sum(math.isclose(float(r[1]), regular, rel_tol=1e-5) for r in rows) == 3

    def test_overcritical_exit_2(self, make_config, capsys):
        path = make_config({"model": {"type": "inverse_square", "c": 1.0},
                            "extension": {"diagonal_thetas": [0.0]}})
        assert cli.main(["oracle", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_half_order_pair_matches_eigenphase_levels(self, make_config, capsys):
        # eg = 1: a Haar U(2) over two nu = 1/2 channels, one level per eigenphase
        u = haar_unitary(0, 2)
        analytic = sorted(bound_state_energy_theta(t, 0.5, 1.0) for t in np.angle(np.linalg.eigvals(u)))
        path = make_config({"model": {"eg": 1.0},
                            "extension": {"matrix": [[[z.real, z.imag] for z in row] for row in u]},
                            "oracle": {"n": 400, "R": 20.0, "r0": 0.01, "k": 2}})
        assert cli.main(["oracle", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert_allclose([float(r[1]) for r in rows], analytic, rtol=2e-2)
        assert [r[2] for r in rows] == ["nan", "nan"]


# main's table: a failure's type -> exit code and stderr prefix, first match first
EXIT_TABLE = [
    (ConfigError, 2, "config error"),
    (UnitarityError, 3, "unitarity error"),
    (annulus.LinkBreakdownError, 3, "unitarity error"),
    (annulus.HermiticityError, 3, "hermiticity error"),
    (ValueError, 2, "config error"),
    (ArithmeticError, 4, "numerical error"),
    (OverflowError, 4, "numerical error"),
]


class TestExitCodes:
    @pytest.mark.parametrize("exc_type, code, prefix", EXIT_TABLE, ids=[row[0].__name__ for row in EXIT_TABLE])
    def test_main_maps_each_failure_type(self, monkeypatch, capsys, exc_type, code, prefix):
        def fail(args, cfg):
            raise exc_type("forced")

        monkeypatch.setattr(cli, "_cmd_channels", fail)
        assert cli.main(["channels"]) == code
        assert capsys.readouterr().err == f"{prefix}: forced\n"

    def test_underflow_is_a_numerical_error(self, make_config, capsys):
        # K_nu(a r0) underflows at r0 = 800 and the exterior norm comes out zero: a value past
        # the float range, not a Hermiticity violation
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]},
                            "oracle": {"r0": 800, "R": 900, "n": 100}})
        assert cli.main(["gmap", "--config", path, "--r0", "800"]) == 4
        assert capsys.readouterr().err.startswith("numerical error: exterior norm")
        assert cli.main(["oracle", "--config", path]) == 4
        assert capsys.readouterr().err.startswith("numerical error: exterior norm")
        # at a subnormal r0 the I_nu series' z / 2 underflows to 0: past the float range too
        assert cli.main(["gmap", "--config", path, "--r0", "5e-324"]) == 4
        assert capsys.readouterr().err.startswith("numerical error: I series")

    @pytest.mark.parametrize(("outer", "what"), [(1e80, "tail solutions"), (1e120, "tail solutions"),
                                                 (1e155, "tail solutions"), (1e165, "cells or weights"),
                                                 (1e200, "cells or weights")])
    def test_grid_past_the_float_range_is_a_numerical_error(self, make_config, capsys, outer, what):
        # at R = 1e80 to 1e155 every entry is finite, but next to a tail level the solve's tail
        # solutions square past the float range; at R = 1e165 the node-weight products overflow
        # and would flush the nu = 1/2 hops to -0 (a finite, wrong operator); at 1e200 the cell
        # couplings themselves are NaN. One line, and no RuntimeWarning (the test run makes
        # those errors)
        path = make_config({"extension": {"diagonal_thetas": [0.3, 0.3, 0.3, 0.3]},
                            "oracle": {"R": outer, "n": 100}})
        assert cli.main(["oracle", "--config", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"numerical error: the {what} of the grid r0 = 0.001, R = {outer!r}, n = 100 ")
        assert captured.err.count("\n") == 1

    def test_no_numpy_scalar_repr_in_oracle_errors(self, make_config, capsys):
        # numpy 2 writes a float64's repr as "np.float64(...)": no refusal of the oracle carries
        # one, past the float range (the grid or the underflowing K_nu) or past working precision
        docs = [{"extension": {"diagonal_thetas": [0.3] * 4}, "oracle": {"R": outer, "n": 100}}
                for outer in (1e60, 1e80, 1e100, 1e120, 1e140, 1e155, 1e165, 1e200)]
        docs += [{"extension": {"diagonal_thetas": [0, 0, 0, 0]}, "oracle": {"r0": 800, "R": 900, "n": 100}},
                 {"extension": {"matrix": [[[z.real, z.imag] for z in row] for row in haar_unitary(1)]},
                  "oracle": {"r0": 1e-8}}]
        for doc in docs:
            code = cli.main(["oracle", "--config", make_config(doc)])
            err = capsys.readouterr().err
            assert code in (0, 3, 4)
            assert "np.float64" not in err and "float64(" not in err, err


class TestDiracCheckCommand:
    def test_identity_rejected(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["dirac-check", "--config", path]) == 0
        out = capsys.readouterr().out
        header, rows = _csv_rows(out)
        assert header == ["channel", "kind", "cancel_coeff", "exponent", "normalizable"]
        assert len(rows) == 8
        assert "# dirac_consistent: false" in out
        # the j = 0 singular branch survives, the j = 1 one does not
        verdicts = {(r[0], r[1]): r[4] for r in rows}
        assert verdicts[("0", "S")] == "true"
        assert verdicts[("1", "S")] == "false"

    def test_consistent_family_accepted(self, make_config, capsys):
        u1 = -cmath.exp(1j * math.pi * NU_EDGE / 2.0)
        ents = [[0.0, 0.0] for _ in range(4)]
        mat = [list(row) for row in np.zeros((4, 4, 2)).tolist()]
        alpha = cmath.exp(0.7j)
        mat[0][0] = [alpha.real, alpha.imag]
        for i in (1, 2, 3):
            mat[i][i] = [u1.real, u1.imag]
        path = make_config({"extension": {"matrix": mat}})
        assert cli.main(["dirac-check", "--config", path]) == 0
        assert "# dirac_consistent: true" in capsys.readouterr().out

    def test_verdict_is_scale_free(self, make_config, capsys):
        # the verdicts depend on kappa and the branch alone: mu = 1e8 prints mu = 1's table
        tables = []
        for mu in (1.0, 1e8):
            path = make_config({"model": {"mu": mu}, "extension": {"diagonal_thetas": [0, 0, 0, 0]}})
            assert cli.main(["dirac-check", "--config", path]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]

    def test_each_verdict_is_computed_once(self, make_config, capsys, monkeypatch):
        # the four eg = 1/2 channels carry two kappa: four quadratures, not eight
        calls = []
        real = dirac.dirac_normalizable
        monkeypatch.setattr(dirac, "dirac_normalizable", lambda *key: calls.append(key) or real(*key))
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["dirac-check", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 8 and len(calls) == len(set(calls)) == 4

    def test_quadrature_rule_is_built_once(self, make_config, capsys, monkeypatch):
        # the 20-node rule of the lower-component quadrature is cached with the K band's 80-node
        # one: one build for the twelve tail integrals of a dirac-check
        built = []
        real = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: built.append(n) or real(n))
        specfun._gl_rule.cache_clear()
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["dirac-check", "--config", path]) == 0
        capsys.readouterr()
        assert built.count(20) == 1

    def test_inverse_square_rejected(self, make_config, capsys):
        path = make_config({"model": {"type": "inverse_square", "c": 0.1},
                            "extension": {"diagonal_thetas": [0.0]}})
        assert cli.main(["dirac-check", "--config", path]) == 2
        capsys.readouterr()

    def test_other_monopole_couplings_rejected(self, make_config, capsys):
        path = make_config({"model": {"eg": 1.0}, "extension": {"diagonal_thetas": [0.0, 0.0]}})
        assert cli.main(["dirac-check", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err


class TestR0ScanCommand:
    def test_identity_scan(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["r0scan", "--config", path,
                         "--r0-list", "0.1,0.01,0.001"]) == 0
        out = capsys.readouterr().out
        header, rows = _csv_rows(out)
        assert header == ["r0", "gmax", "offdiag_norm"]
        gmax = [float(r[1]) for r in rows]
        assert gmax[0] < gmax[1] < gmax[2]
        assert all(float(r[2]) == 0.0 for r in rows)
        assert "breakdown" not in out

    def test_breakdown_is_reported(self, make_config, capsys):
        path = make_config({"extension": {"matrix": SWAP_JSON}})
        assert cli.main(["r0scan", "--config", path,
                         "--r0-list", "0.1,1e-8"]) == 0
        out = capsys.readouterr().out
        _, rows = _csv_rows(out)
        assert len(rows) == 1
        assert "# breakdown_r0:" in out

    def test_underflow_is_a_numerical_error(self, make_config, capsys):
        # K_nu underflows at r0 = 800, and the I_nu series' z / 2 at r0 = 5e-324: exit 4, not
        # a breakdown radius
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        for r0, cause in (("800", "exterior norm"), ("5e-324", "I series")):
            assert cli.main(["r0scan", "--config", path, "--r0-list", f"0.1,{r0}"]) == 4
            captured = capsys.readouterr()
            assert captured.err.startswith(f"numerical error: {cause}")
            assert "breakdown" not in captured.out

    def test_inverse_square_scan(self, make_config, capsys):
        path = make_config({"model": {"type": "inverse_square", "c": 0.1},
                            "extension": {"diagonal_thetas": [0.3]}})
        assert cli.main(["r0scan", "--config", path, "--r0-list", "0.1,0.01"]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 2

    def test_bad_radius_lists(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["r0scan", "--config", path, "--r0-list", "0.1,abc"]) == 2
        assert cli.main(["r0scan", "--config", path, "--r0-list", "-0.1"]) == 2
        assert cli.main(["r0scan", "--config", path, "--r0-list", "0.1,inf"]) == 2
        capsys.readouterr()


# each config-reading subcommand but emit-config, and the extension it runs on
HAAR3_JSON = [[[z.real, z.imag] for z in row] for row in haar_unitary(3)]
UNITS_RUNS = [
    ("bound-states", "diagonal"), ("oracle", "diagonal"), ("dirac-check", "diagonal"),
    ("smatrix --E 0.7", "haar"), ("gmap --r0 0.1", "haar"), ("oracle", "haar"),
    ("r0scan --r0-list 0.1,0.01", "haar"),
]
UNITS_IDS = [f"{command.split()[0]}-{extension}" for command, extension in UNITS_RUNS]


class TestUnits:
    """The subcommands solve at mass 1 and scale s/mu, so mu and s enter through s/mu alone."""

    @staticmethod
    def _run(make_config, capsys, command, extension, model):
        if extension == "haar":
            doc = {"extension": {"matrix": HAAR3_JSON}, "oracle": {"r0": 0.01, "n": 400, "k": 4}}
        else:
            doc = {"extension": {"diagonal_thetas": [0.3, -0.2, 0.5, 0.1]}, "oracle": {"n": 400, "k": 3}}
        argv = command.split()
        argv[1:1] = ["--config", make_config({"model": model, **doc})]
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("command, extension", UNITS_RUNS, ids=UNITS_IDS)
    def test_output_depends_on_the_ratio_alone(self, make_config, capsys, command, extension):
        code, reference, _ = self._run(make_config, capsys, command, extension, {})
        assert code == 0 and reference.count("\n") > 2
        for mu in (2.0, 1e3, 1e-3):
            assert self._run(make_config, capsys, command, extension, {"mu": mu}) == (0, reference, "")
        half = self._run(make_config, capsys, command, extension, {"deficiency_scale": 0.5})
        assert half[0] == 0
        assert self._run(make_config, capsys, command, extension, {"mu": 2.0, "deficiency_scale": 1.0}) == half

    def test_smatrix_amplitudes_are_in_mu(self, make_config, capsys):
        # they grow as mu in physical units, so the table's are in units of mu
        code, out, _ = self._run(make_config, capsys, "smatrix --E 0.7", "haar", {"mu": 2.0})
        assert code == 0 and out.startswith("# units: E in mu; amplitudes in mu (source-matched scale)\n")

    @pytest.mark.parametrize("model", [{"mu": 1e-10, "deficiency_scale": 1e300},
                                       {"mu": 1e100, "deficiency_scale": 1e-300}],
                             ids=["overflow", "underflow"])
    @pytest.mark.parametrize("command, extension", UNITS_RUNS, ids=UNITS_IDS)
    def test_ratio_past_the_float_range_exits_4(self, make_config, capsys, command, extension, model):
        code, out, err = self._run(make_config, capsys, command, extension, model)
        assert (code, out) == (4, "") and err.startswith("numerical error: deficiency_scale / mu")

    def test_emit_config_keeps_the_given_mass_and_scale(self, make_config, capsys):
        code, out, _ = self._run(make_config, capsys, "emit-config", "diagonal",
                                 {"mu": 1e-10, "deficiency_scale": 1e300})
        model = json.loads(out)["model"]
        assert code == 0 and (model["mu"], model["deficiency_scale"]) == (1e-10, 1e300)

    @pytest.mark.parametrize("command", ["gmap --r0 0.1", "oracle", "r0scan --r0-list 0.1,0.01"],
                             ids=["gmap", "oracle", "r0scan"])
    def test_scale_past_the_float_range_in_the_link_map_exits_4(self, make_config, capsys, command):
        # at s = 1e300 mu the exterior norm's a^2 - b^2 overflows: a value past the float
        # range, not a breakdown of the link map (exit 3) nor a breakdown radius
        code, out, err = self._run(make_config, capsys, command, "haar", {"deficiency_scale": 1e300})
        assert (code, out) == (4, "") and err.startswith("numerical error: exterior norm")
