"""End-to-end tests for the batch front end.

Everything goes through cli.main(argv) so the exit-code contract is tested
exactly as a shell user would see it: 0 success, 2 config error, 3
unitarity or Hermiticity violation, 4 non-convergence.
"""

import cmath
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from radext import cli
from radext.cli import (
    ConfigError,
    UnitarityError,
    emit_config,
    parse_config,
)
from radext.extensions import bound_state_energy_theta, dirac_consistent_value, haar_unitary
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
        assert (cfg.tolerances.unitarity, cfg.tolerances.match) == (1e-10, 1e-10)
        assert cfg.output_format == "csv" and cfg.output_path is None

    def test_scale_tracks_mu(self):
        cfg = parse_config('{"model": {"mu": 2.0}}')
        assert cfg.params.deficiency_scale == 2.0

    def test_schema_rejections(self):
        for text, frag in [
            ("not json", "valid JSON"),
            ('{"bogus": {}}', "unknown key"),
            ('{"model": {"typ": "monopole"}}', "unknown key"),
            ('{"tolerances": {"hermiticity": 1e-9}}', "unknown key"),
            ('{"model": {"type": "coulomb"}}', "model.type"),
            ('{"model": {"mu": true}}', "must be a number"),
            ('{"oracle": {"n": 99}}', "n >= 100"),
            ('{"oracle": {"r0": 50.0}}', "0 < r0 < R"),
            ('{"output": {"format": "xml"}}', "output.format"),
            ('{"extension": {}}', "exactly one"),
            ('{"extension": {"matrix": [], "diagonal_thetas": []}}', "exactly one"),
            ('{"extension": {"diagonal_thetas": [0, 0, 0]}}', "channel-count"),
        ]:
            with pytest.raises(ConfigError, match=frag):
                parse_config(text)

    def test_matrix_shape_rejections(self):
        with pytest.raises(ConfigError, match="row"):
            parse_config('{"extension": {"matrix": [[[1, 0], [0, 1]]] }}')
        with pytest.raises(ConfigError, match="pair"):
            parse_config('{"extension": {"matrix": [[1, 0], [0, 1]]}}')
        with pytest.raises(ConfigError, match="channel-count"):
            parse_config('{"extension": {"matrix": [[[1, 0]]] }}')

    def test_non_unitary_matrix(self):
        doc = {"extension": {"matrix": [[[2.0 if i == j else 0.0, 0.0]
                                         for j in range(4)] for i in range(4)]}}
        with pytest.raises(UnitarityError, match="defect"):
            parse_config(json.dumps(doc))

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
        # the single 1/r^2 channel has its own (source, channel) row; only E <= 0 is refused
        path = make_config({"model": {"type": "inverse_square", "c": 0.1},
                            "extension": {"diagonal_thetas": [0.0]}})
        assert cli.main(["smatrix", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert [r[:2] for r in rows] == [["0", "0"]]
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        assert cli.main(["smatrix", "--config", path, "--E", "-1.0"]) == 2
        capsys.readouterr()


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
        assert "hermiticity error" in capsys.readouterr().err

    def test_non_positive_radius_is_config_error(self, make_config, capsys):
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]}})
        for r0 in ("0", "-0.1", "nan"):
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
        path = make_config({"extension": {"diagonal_thetas": [0, 0, 0, 0]},
                            "oracle": {"n": 4000}})
        assert cli.main(["oracle", "--config", path]) == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["index", "E_numeric", "E_analytic", "rel_err"]
        assert len(rows) == 4
        # the half-order channel resolves its bound state on this grid
        assert float(rows[0][3]) < 0.01
        assert float(rows[0][2]) == -1.0

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
        assert "hermiticity error" in capsys.readouterr().err

    def test_link_inversion_breakdown_exit_3(self, make_config, capsys):
        # diagonal Robin data passes stage one at any r0, but reading it back as
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
        assert "convergence error" in capsys.readouterr().err

    def test_dirac_consistent_phase_gives_the_regular_level(self, make_config, capsys):
        # at the Dirac-consistent phase the link value keeps a ~1e-10 imaginary part, which
        # reaches the first-node block as 2e-10 / (mu h): rounding on the operator's scale
        # ||H|| ~ 1 / (mu h^2), so the gate passes it; the j = 1 channels then give the
        # regular-spectrum level (j_nu,1 / R)^2 / (2 mu), J_nu(j_nu,1) = 0
        p = cmath.phase(dirac_consistent_value(NU_EDGE))
        path = make_config({"extension": {"diagonal_thetas": [0.3, p, p, p]}})
        assert cli.main(["oracle", "--config", path]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        lo, hi = 2.0, 5.0  # bisect the first zero of J_nu
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if bessel_j(NU_EDGE, mid) > 0.0 else (lo, mid)
        assert_allclose([float(r[1]) for r in rows[1:]], [(lo / 40.0) ** 2 / 2.0] * 3, rtol=1e-5)

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
        capsys.readouterr()
