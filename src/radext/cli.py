"""Batch front end: JSON configs in, CSV/JSON tables out, deterministic exit codes.

Exit codes: 0 success, 2 config or schema error (an unreadable config or an
unwritable output path included), 3 unitarity or Hermiticity violation, 4
numerical failure (non-convergence, a value past the float range). All
energies are reported in units of mu and lengths in 1/mu; every CSV starts
with a "# units:" comment line.

Config layout (all sections optional except where a subcommand needs them;
defaults are materialized on parse, so emit_config always writes the full
canonical form):

    {
      "model": {"type": "monopole", "eg": 0.5, "c": 0.0, "mu": 1.0,
                 "deficiency_scale": 1.0},
      "extension": {"matrix": [[[re, im], ...], ...]}
                   or {"diagonal_thetas": [t0, ..., t(n-1)]},
      "oracle": {"r0": 0.001, "R": 40.0, "n": 8000, "k": 1},
      "tolerances": {"unitarity": 1e-10, "match": 1e-10},
      "output": {"format": "csv", "path": null}
    }

The extension acts on the model's n singular channels (singular_channels
order): an n x n matrix of [re, im] pairs, or n diagonal phases. n is 4 for
the monopole at eg = 1/2, 2 eg at eg = 1, 3/2, 2, and 1 for a subcritical
1/r^2 (-3/4 < c < 1/4).

The emitter is canonical: sorted keys, compact separators, floats at 17
significant digits, so emit -> parse -> emit is byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import annulus, dirac, extensions
from .channels import ModelParams, channel_ladder

__all__ = [
    "ConfigError",
    "OracleParams",
    "RunConfig",
    "Tolerances",
    "UnitarityError",
    "emit_config",
    "load_config",
    "main",
    "parse_config",
]


class ConfigError(Exception):
    """Schema violation or inconsistent configuration; exit code 2."""


class UnitarityError(Exception):
    """Extension matrix failed the unitarity gate; exit code 3."""


@dataclass(frozen=True)
class OracleParams:
    r0: float = 1e-3
    R: float = 40.0
    n: int = 8000
    k: int = 1


@dataclass(frozen=True)
class Tolerances:
    unitarity: float = 1e-10
    match: float = 1e-10


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    matrix: np.ndarray | None
    diagonal_thetas: tuple[float, ...] | None
    oracle: OracleParams
    tolerances: Tolerances
    output_format: str
    output_path: str | None

    def require_extension(self) -> None:
        if self.matrix is None and self.diagonal_thetas is None:
            raise ConfigError("this subcommand needs an 'extension' section in the config")

    def extension_entries(self) -> np.ndarray:
        self.require_extension()
        if self.matrix is not None:
            return self.matrix
        return np.diag(np.exp(1j * np.asarray(self.diagonal_thetas)))

    def to_extension(self) -> extensions.ExtensionMatrix:
        """The validated member of the U(n) family over the model's singular channels."""
        return extensions.ExtensionMatrix(self.extension_entries(), self.params,
                                          unitarity_tol=self.tolerances.unitarity)


_MODEL_KEYS = {"type", "eg", "c", "mu", "deficiency_scale"}
_EXT_KEYS = {"matrix", "diagonal_thetas"}
_ORACLE_KEYS = {"r0", "R", "n", "k"}
_TOL_KEYS = {"unitarity", "match"}
_OUTPUT_KEYS = {"format", "path"}
_TOP_KEYS = {"model", "extension", "oracle", "tolerances", "output"}


def _as_float(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    return float(value)


def _as_int(section: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return value


def _check_keys(section: str, data: dict, allowed: set) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"'{section}' must be an object, got {type(data).__name__}")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")


def _parse_matrix(raw) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("extension.matrix must be a non-empty nested list")
    n = len(raw)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"extension.matrix row {i} must have {n} entries")
        for j, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)):
                raise ConfigError(f"extension.matrix[{i}][{j}] must be a [re, im] pair")
            out[i, j] = complex(float(pair[0]), float(pair[1]))
    return out


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config and apply defaults.

    Raises ConfigError on schema violations and channel-count mismatches,
    UnitarityError (with the defect in the message) when the extension
    matrix fails the configured unitarity tolerance.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys("config", data, _TOP_KEYS)

    model_raw = data.get("model", {})
    _check_keys("model", model_raw, _MODEL_KEYS)
    model_type = model_raw.get("type", "monopole")
    if model_type not in ("monopole", "inverse_square"):
        raise ConfigError(f"model.type must be 'monopole' or 'inverse_square', got {model_type!r}")
    mu = _as_float("model", "mu", model_raw.get("mu", 1.0))
    scale = _as_float("model", "deficiency_scale", model_raw.get("deficiency_scale", mu))
    try:
        params = ModelParams(model=model_type,
                             eg=_as_float("model", "eg", model_raw.get("eg", 0.5)),
                             c=_as_float("model", "c", model_raw.get("c", 0.0)),
                             mu=mu, deficiency_scale=scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    tol_raw = data.get("tolerances", {})
    _check_keys("tolerances", tol_raw, _TOL_KEYS)
    tols = Tolerances(unitarity=_as_float("tolerances", "unitarity", tol_raw.get("unitarity", 1e-10)),
                      match=_as_float("tolerances", "match", tol_raw.get("match", 1e-10)))

    matrix = None
    thetas = None
    ext_raw = data.get("extension")
    if ext_raw is not None:
        _check_keys("extension", ext_raw, _EXT_KEYS)
        if ("matrix" in ext_raw) == ("diagonal_thetas" in ext_raw):
            raise ConfigError("extension needs exactly one of 'matrix' or 'diagonal_thetas'")
        n_channels = len(extensions.canonical_channels(params))
        if "matrix" in ext_raw:
            matrix = _parse_matrix(ext_raw["matrix"])
            if matrix.shape != (n_channels, n_channels):
                raise ConfigError(f"channel-count mismatch: extension matrix is "
                                  f"{matrix.shape[0]}x{matrix.shape[1]} but the model has "
                                  f"{n_channels} singular channel(s)")
            defect = extensions.unitarity_defect(matrix)
            if defect > tols.unitarity:
                raise UnitarityError(f"extension matrix is not unitary: defect {defect:.6e} "
                                     f"exceeds tolerance {tols.unitarity:.1e}")
            matrix.flags.writeable = False
        else:
            raw = ext_raw["diagonal_thetas"]
            if (not isinstance(raw, list)
                    or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in raw)):
                raise ConfigError("extension.diagonal_thetas must be a list of numbers")
            if len(raw) != n_channels:
                raise ConfigError(f"channel-count mismatch: {len(raw)} phases but the model "
                                  f"has {n_channels} singular channel(s)")
            thetas = tuple(float(x) for x in raw)

    oracle_raw = data.get("oracle", {})
    _check_keys("oracle", oracle_raw, _ORACLE_KEYS)
    oracle = OracleParams(r0=_as_float("oracle", "r0", oracle_raw.get("r0", 1e-3)),
                          R=_as_float("oracle", "R", oracle_raw.get("R", 40.0)),
                          n=_as_int("oracle", "n", oracle_raw.get("n", 8000)),
                          k=_as_int("oracle", "k", oracle_raw.get("k", 1)))
    if not 0.0 < oracle.r0 < oracle.R:
        raise ConfigError("oracle needs 0 < r0 < R")
    if oracle.n < 100 or oracle.k < 1:
        raise ConfigError("oracle needs n >= 100 and k >= 1")

    out_raw = data.get("output", {})
    _check_keys("output", out_raw, _OUTPUT_KEYS)
    out_format = out_raw.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {out_format!r}")
    out_path = out_raw.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path must be a string or null")

    return RunConfig(params=params, matrix=matrix, diagonal_thetas=thetas,
                     oracle=oracle, tolerances=tols,
                     output_format=out_format, output_path=out_path)


def load_config(path: str) -> RunConfig:
    """Read and parse a config file; a file that cannot be read is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return "nan"
        return "%.17g" % value
    return str(value)


def _canon(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % obj
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_canon(obj[k])}" for k in sorted(obj)) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_config(cfg: RunConfig) -> str:
    """Canonical JSON form of a config: full defaults, sorted keys, 17-digit floats."""
    if cfg.matrix is not None:
        ext = {"matrix": [[[v.real, v.imag] for v in row] for row in cfg.matrix]}
    elif cfg.diagonal_thetas is not None:
        ext = {"diagonal_thetas": list(cfg.diagonal_thetas)}
    else:
        ext = None
    doc = {
        "model": {"type": cfg.params.model, "eg": cfg.params.eg, "c": cfg.params.c,
                  "mu": cfg.params.mu, "deficiency_scale": cfg.params.deficiency_scale},
        "extension": ext,
        "oracle": {"r0": cfg.oracle.r0, "R": cfg.oracle.R, "n": cfg.oracle.n, "k": cfg.oracle.k},
        "tolerances": {"unitarity": cfg.tolerances.unitarity, "match": cfg.tolerances.match},
        "output": {"format": cfg.output_format, "path": cfg.output_path},
    }
    return _canon(doc) + "\n"


def _write_table(cfg: RunConfig | None, units: str, columns: list[str],
                 rows: list[list], comments: list[str] | None = None,
                 path_override: str | None = None) -> None:
    out_format = cfg.output_format if cfg else "csv"
    path = path_override if path_override is not None else (cfg.output_path if cfg else None)
    if out_format == "json":
        doc = {"units": units, "columns": columns, "rows": rows}
        if comments:
            doc["notes"] = comments
        text = _canon(_jsonable(doc)) + "\n"
    else:
        lines = [f"# units: {units}", ",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        lines.extend(f"# {c}" for c in (comments or []))
        text = "\n".join(lines) + "\n"
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return None if math.isnan(obj) else float(obj)
    if isinstance(obj, (bool, int, str, np.integer)) or obj is None:
        return obj
    return str(obj)


# per model: the option holding the angular cutoff, and the ChannelSpec labels shown
_CHANNEL_TABLE = {"monopole": ("jmax", ["j", "m", "kappa"]), "inverse_square": ("lmax", ["l", "m"])}


def _cmd_channels(args) -> int:
    params = ModelParams(model=args.model, eg=args.eg, c=args.c)
    cutoff, labels = _CHANNEL_TABLE[args.model]
    rows = [[getattr(ch, k) for k in labels]
            + [math.sqrt(ch.nu_sq) if ch.nu_sq > 0 else float("nan"), ch.singular]
            for ch in channel_ladder(params, getattr(args, cutoff))]
    columns = labels + ["nu", "singular"]
    _write_table(None, "quantum numbers and Bessel orders, dimensionless", columns, rows,
                 path_override=args.output)
    return 0


def _cmd_bound_states(args) -> int:
    cfg = load_config(args.config)
    mu = cfg.params.mu
    ext = cfg.to_extension()
    rows = [[ext.channels.index(state.channel), state.theta, state.energy / mu, state.lam / mu]
            for state in extensions.bound_states(ext, mu)]
    _write_table(cfg, "E in mu, lambda in mu, theta in radians",
                 ["channel", "theta", "E_over_mu", "lambda_over_mu"], rows)
    return 0


def _cmd_smatrix(args) -> int:
    cfg = load_config(args.config)
    if not args.E > 0:
        raise ConfigError("--E must be positive (units of mu)")
    mu = cfg.params.mu
    ext = cfg.to_extension()
    regular, singular = extensions.mixing_matrix(ext, args.E * mu, mu)
    rows = [[src, ch, a_n.real, a_n.imag, a_s.real, a_s.imag]
            for src in range(len(ext.channels))
            for ch, (a_n, a_s) in enumerate(zip(regular[:, src], singular[:, src]))]
    _write_table(cfg, "E in mu; amplitudes dimensionless (source-matched scale)",
                 ["source", "channel", "AN_re", "AN_im", "AS_re", "AS_im"], rows)
    return 0


def _cmd_gmap(args) -> int:
    cfg = load_config(args.config)
    if not args.r0 > 0:
        raise ConfigError("--r0 must be positive (units of 1/mu)")
    mu = cfg.params.mu
    ext = cfg.to_extension()
    try:
        bcm = annulus.g_from_u(ext, args.r0 / mu)
    except (ArithmeticError, ValueError) as exc:
        print(f"hermiticity error: {exc}", file=sys.stderr)
        return 3
    rows = [[i, j, bcm.entries[i, j].real / mu, bcm.entries[i, j].imag / mu]
            for i in range(len(bcm.channels)) for j in range(len(bcm.channels))]
    _write_table(cfg, "r0 in 1/mu, g in mu", ["row", "col", "g_re", "g_im"], rows,
                 comments=[f"hermiticity_defect: {_fmt(bcm.hermiticity_defect / mu)}"])
    return 0


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    mu = cfg.params.mu
    opts = cfg.oracle
    r0 = opts.r0 / mu
    R = opts.R / mu
    ext = cfg.to_extension()
    coupled = np.abs(ext.entries - np.diag(np.diag(ext.entries))).max() > 1e-10
    # an unmixed U runs channel by channel on the scalar link of its diagonal phase (the
    # configured phase itself when given, so no rounding enters through cmath.phase)
    thetas = () if coupled else cfg.diagonal_thetas or [cmath.phase(u) for u in np.diag(ext.entries)]
    analytic = [extensions.bound_state_energy_theta(t, ch.nu, mu) for ch, t in zip(ext.channels, thetas)]

    # stage one: Robin data (failures here are Hermiticity-class, exit 3)
    runs: list[tuple] = []  # (boundary matrix, channel list, analytic E or None)
    try:
        if coupled:
            runs.append((annulus.g_from_u(ext, r0), ext.channels, None))
        for ch, theta, energy in zip(ext.channels, thetas, analytic):
            gval = annulus.diagonal_link_value(ch.nu, theta, r0, cfg.params.deficiency_scale)
            bcm = annulus.BoundaryConditionMatrix(r0=r0, channels=(ch,), entries=np.array([[gval]]))
            runs.append((bcm, (ch,), energy))
    except (ArithmeticError, ValueError) as exc:
        print(f"hermiticity error: {exc}", file=sys.stderr)
        return 3

    # stage two: assembly and eigensolve (failures here are convergence-class, exit 4,
    # except a Hermiticity refusal or a link map that cannot be inverted in working
    # precision, exit 3)
    rows: list[list] = []
    counter = 0
    try:
        for bcm, chans, analytic in runs:
            grid = annulus.AnnulusGrid(r0, R, opts.n)
            ham = annulus.assemble_radial_hamiltonian(cfg.params, grid, bcm, chans)
            vals = annulus.oracle_spectrum(ham, opts.k)
            for i, v in enumerate(vals):
                if i == 0 and analytic is not None:
                    rows.append([counter, v / mu, analytic / mu, abs(v - analytic) / abs(analytic)])
                else:
                    rows.append([counter, v / mu, float("nan"), float("nan")])
                counter += 1
    except annulus.HermiticityError as exc:
        print(f"hermiticity error: {exc}", file=sys.stderr)
        return 3
    except annulus.LinkBreakdownError as exc:
        print(f"unitarity error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 4
    _write_table(cfg, "E in mu", ["index", "E_numeric", "E_analytic", "rel_err"], rows)
    return 0


def _cmd_dirac_check(args) -> int:
    cfg = load_config(args.config)
    if cfg.params.model != "monopole":
        raise ConfigError("dirac-check requires the monopole model")
    ext = cfg.to_extension()
    consistent = extensions.is_dirac_consistent(ext, tol=cfg.tolerances.match)
    rows: list[list] = []
    for idx, ch in enumerate(ext.channels):
        for kind in ("N", "S"):
            coeff, exponent = dirac.lower_exponent(ch.kappa, kind)
            ok = dirac.dirac_normalizable(ch.kappa, kind, mu=cfg.params.mu)
            rows.append([idx, kind, coeff, exponent, ok])
    _write_table(cfg, "exponents dimensionless",
                 ["channel", "kind", "cancel_coeff", "exponent", "normalizable"], rows,
                 comments=[f"dirac_consistent: {_fmt(consistent)}"])
    return 0


def _cmd_r0scan(args) -> int:
    cfg = load_config(args.config)
    mu = cfg.params.mu
    try:
        seq = [float(tok) for tok in args.r0_list.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"--r0-list must be comma-separated numbers: {exc}") from exc
    if not seq or any(not v > 0 for v in seq):
        raise ConfigError("--r0-list needs positive radii")
    result = annulus.r0_limit_scan(cfg.to_extension(), [v / mu for v in seq])
    rows = [[row.r0 * mu, row.gmax / mu, row.offdiag_norm / mu] for row in result.rows]
    comments = [] if result.breakdown_r0 is None else [f"breakdown_r0: {_fmt(result.breakdown_r0 * mu)}"]
    _write_table(cfg, "r0 in 1/mu, g in mu", ["r0", "gmax", "offdiag_norm"], rows,
                 comments=comments)
    return 0


def _cmd_emit_config(args) -> int:
    cfg = load_config(args.config)
    sys.stdout.write(emit_config(cfg))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radext",
                                     description="Self-adjoint extension toolkit for singular "
                                                 "radial Hamiltonians (monopole Pauli and "
                                                 "attractive 1/r^2).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channels", help="enumerate angular channels and flag the singular ones")
    p.add_argument("--model", choices=("monopole", "inverse_square"), default="monopole")
    p.add_argument("--eg", type=float, default=0.5)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--jmax", type=float, default=3.0)
    p.add_argument("--lmax", type=int, default=3)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_channels)

    p = sub.add_parser("bound-states", help="bound-state table for a diagonal-acting extension")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_bound_states)

    p = sub.add_parser("smatrix", help="scattering amplitude pairs (A_N, A_S) per source channel")
    p.add_argument("--config", required=True)
    p.add_argument("--E", type=float, default=1.0, help="energy in units of mu")
    p.set_defaults(handler=_cmd_smatrix)

    p = sub.add_parser("gmap", help="boundary-condition matrix induced at r0")
    p.add_argument("--config", required=True)
    p.add_argument("--r0", type=float, required=True, help="boundary radius in 1/mu")
    p.set_defaults(handler=_cmd_gmap)

    p = sub.add_parser("oracle", help="finite-difference annulus spectrum vs analytic bound states")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("dirac-check", help="lower-component exponents and Dirac consistency verdict")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_dirac_check)

    p = sub.add_parser("r0scan", help="growth of the boundary matrix as r0 shrinks")
    p.add_argument("--config", required=True)
    p.add_argument("--r0-list", required=True, help="comma-separated radii in 1/mu")
    p.set_defaults(handler=_cmd_r0scan)

    p = sub.add_parser("emit-config", help="print the canonical form of a config")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_emit_config)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnitarityError as exc:
        print(f"unitarity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
