"""Batch front end: JSON configs in, CSV/JSON tables out, deterministic exit codes.

Exit codes: 0 success, 2 config or schema error (an unreadable config or an
unwritable output path included), 3 unitarity or Hermiticity violation, 4
numerical failure (non-convergence, a value past the float range). main
alone maps a failure's type to its code and stderr prefix, first match
first (ConfigError is defined here, the three typed refusals in radext.channels):

    ConfigError                             2  config error
    UnitarityError, LinkBreakdownError      3  unitarity error
    HermiticityError (a ValueError)         3  hermiticity error
    ValueError                              2  config error
    ArithmeticError                         4  numerical error

All energies are reported in units of mu and lengths in 1/mu; every CSV
starts with a "# units:" comment line. The subcommands solve in those units,
at mass 1 and deficiency scale s/mu: the same operator and the same U, so
no output converts a unit, and mu and s enter through s/mu alone.

Config layout (all sections optional except where a subcommand needs them;
defaults are materialized on parse, so emit_config always writes the full
canonical form):

    {
      "model": {"type": "monopole", "eg": 0.5, "c": 0.0, "mu": 1.0,
                 "deficiency_scale": 1.0},
      "extension": {"matrix": [[[re, im], ...], ...]}
                   or {"diagonal_thetas": [t0, ..., t(n-1)]},
      "oracle": {"r0": 0.001, "R": 40.0, "n": 8000, "k": 1},
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
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channels import (AnnulusGrid, HermiticityError, LinkBreakdownError, ModelParams, UnitarityError,
                       channel_ladder, check_unitary, singular_count)

if TYPE_CHECKING:
    from .extensions import ExtensionMatrix

__all__ = [
    "ConfigError",
    "OracleParams",
    "RunConfig",
    "UnitarityError",
    "emit_config",
    "load_config",
    "main",
    "parse_config",
]


class ConfigError(Exception):
    """Schema violation or inconsistent configuration; exit code 2."""


@dataclass(frozen=True)
class OracleParams:
    r0: float = 1e-3
    R: float = 40.0
    n: int = 8000
    k: int = 1


@dataclass(frozen=True, eq=False)
class RunConfig:
    params: ModelParams
    matrix: np.ndarray | None
    diagonal_thetas: tuple[float, ...] | None
    oracle: OracleParams
    output_format: str
    output_path: str | None

    def to_extension(self) -> ExtensionMatrix:
        """The validated member of the U(n) family, at mass 1 and deficiency scale s/mu.

        An s/mu that is not a positive normal float is past the float range: ArithmeticError.
        """
        # each handler imports the physics it runs, so a cold process compiles only those modules
        from .extensions import ExtensionMatrix
        if self.matrix is None and self.diagonal_thetas is None:
            raise ConfigError("this subcommand needs an 'extension' section in the config")
        s, mu = self.params.deficiency_scale, self.params.mu
        if not sys.float_info.min <= s / mu < math.inf:
            raise ArithmeticError(f"deficiency_scale / mu is past the float range: {s!r} / {mu!r}")
        params = replace(self.params, mu=1.0, deficiency_scale=s / mu)
        if self.matrix is None:
            return ExtensionMatrix.from_diagonal_thetas(self.diagonal_thetas, params)
        return ExtensionMatrix(self.matrix, params)


_MODEL_KEYS = {"type", "eg", "c", "mu", "deficiency_scale"}
_EXT_KEYS = {"matrix", "diagonal_thetas"}
_ORACLE_KEYS = {"r0", "R", "n", "k"}
_OUTPUT_KEYS = {"format", "path"}
_TOP_KEYS = {"model", "extension", "oracle", "output"}


def _is_number(value) -> bool:
    """A finite JSON number: json reads NaN and Infinity, which no field accepts."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def _as_float(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
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
            if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
                raise ConfigError(f"extension.matrix[{i}][{j}] must be a [re, im] pair of finite numbers")
            out[i, j] = complex(float(pair[0]), float(pair[1]))
    return out


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config and apply defaults.

    Raises ConfigError on schema violations and channel-count mismatches,
    UnitarityError (check_unitary, the defect in the message) when the
    extension matrix is not unitary. Every rule read here is radext.channels',
    so a config is refused before any physics module is imported.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys("config", data, _TOP_KEYS)

    # ModelParams and OracleParams own the defaults: only the keys the config gives are passed
    model_raw = data.get("model", {})
    _check_keys("model", model_raw, _MODEL_KEYS)
    given = {key: _as_float("model", key, value) for key, value in model_raw.items() if key != "type"}
    if "type" in model_raw:
        model_type = given["model"] = model_raw["type"]
        if model_type not in ("monopole", "inverse_square"):
            raise ConfigError(f"model.type must be 'monopole' or 'inverse_square', got {model_type!r}")
    try:
        params = ModelParams(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    matrix = None
    thetas = None
    ext_raw = data.get("extension")
    if ext_raw is not None:
        _check_keys("extension", ext_raw, _EXT_KEYS)
        if ("matrix" in ext_raw) == ("diagonal_thetas" in ext_raw):
            raise ConfigError("extension needs exactly one of 'matrix' or 'diagonal_thetas'")
        # counted, not listed: a list grows with eg or c before the size is compared
        n_channels = singular_count(params)
        if "matrix" in ext_raw:
            matrix = _parse_matrix(ext_raw["matrix"])
            if matrix.shape != (n_channels, n_channels):
                raise ConfigError(f"channel-count mismatch: extension matrix is "
                                  f"{matrix.shape[0]}x{matrix.shape[1]} but the model has "
                                  f"{n_channels} singular channel(s)")
            check_unitary(matrix)
            matrix.flags.writeable = False
        else:
            raw = ext_raw["diagonal_thetas"]
            if not isinstance(raw, list) or not all(map(_is_number, raw)):
                raise ConfigError("extension.diagonal_thetas must be a list of finite numbers")
            if len(raw) != n_channels:
                raise ConfigError(f"channel-count mismatch: {len(raw)} phases but the model "
                                  f"has {n_channels} singular channel(s)")
            thetas = tuple(float(x) for x in raw)

    oracle_raw = data.get("oracle", {})
    _check_keys("oracle", oracle_raw, _ORACLE_KEYS)
    oracle = OracleParams(**{key: (_as_int if key in ("n", "k") else _as_float)("oracle", key, value)
                             for key, value in oracle_raw.items()})
    try:
        AnnulusGrid(oracle.r0, oracle.R, oracle.n)
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from exc
    if oracle.k < 1:
        raise ConfigError("oracle needs k >= 1")

    out_raw = data.get("output", {})
    _check_keys("output", out_raw, _OUTPUT_KEYS)
    out_format = out_raw.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {out_format!r}")
    out_path = out_raw.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path must be a string or null")

    return RunConfig(params=params, matrix=matrix, diagonal_thetas=thetas, oracle=oracle,
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
    """A CSV cell: the JSON form of a number or a truth value, NaN as nan; a string as it is."""
    if isinstance(value, str):
        return value
    text = _canon(value)
    return "nan" if text == "null" else text


def _canon(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN: an undefined table entry is null
        return "null" if math.isnan(obj) else "%.17g" % obj
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
    model = asdict(cfg.params)
    model["type"] = model.pop("model")
    doc = {"model": model, "extension": ext, "oracle": asdict(cfg.oracle),
           "output": {"format": cfg.output_format, "path": cfg.output_path}}
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
        text = _canon(doc) + "\n"
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


# per model: the option holding the angular cutoff, and the ChannelSpec labels shown
_CHANNEL_TABLE = {"monopole": ("jmax", ["j", "m", "kappa"]), "inverse_square": ("lmax", ["l", "m"])}


def _cmd_channels(args, _) -> int:
    params = ModelParams(**{key: value for key in ("model", "eg", "c")
                            if (value := getattr(args, key)) is not None})
    cutoff, labels = _CHANNEL_TABLE[params.model]
    rows = [[getattr(ch, k) for k in labels]
            + [math.sqrt(ch.nu_sq) if ch.nu_sq > 0 else float("nan"), ch.singular]
            for ch in channel_ladder(params, getattr(args, cutoff))]
    columns = labels + ["nu", "singular"]
    _write_table(None, "quantum numbers and Bessel orders, dimensionless", columns, rows,
                 path_override=args.output)
    return 0


def _cmd_bound_states(args, cfg: RunConfig) -> int:
    from .extensions import bound_states
    ext = cfg.to_extension()
    rows = [[ext.channels.index(state.channel), state.theta, state.energy, state.lam]
            for state in bound_states(ext)]
    _write_table(cfg, "E in mu, lambda in mu, theta in radians",
                 ["channel", "theta", "E_over_mu", "lambda_over_mu"], rows)
    return 0


def _cmd_smatrix(args, cfg: RunConfig) -> int:
    if not 0.0 < args.E < math.inf:
        raise ConfigError("--E must be positive and finite (units of mu)")
    from .extensions import mixing_matrix
    ext = cfg.to_extension()
    regular, singular = mixing_matrix(ext, args.E)
    rows = [[src, ch, a_n.real, a_n.imag, a_s.real, a_s.imag]
            for src in range(len(ext.channels))
            for ch, (a_n, a_s) in enumerate(zip(regular[:, src], singular[:, src]))]
    _write_table(cfg, "E in mu; amplitudes in mu (source-matched scale)",
                 ["source", "channel", "AN_re", "AN_im", "AS_re", "AS_im"], rows)
    return 0


def _cmd_gmap(args, cfg: RunConfig) -> int:
    if not 0.0 < args.r0 < math.inf:
        raise ConfigError("--r0 must be positive and finite (units of 1/mu)")
    from .annulus import g_from_u
    bcm = g_from_u(cfg.to_extension(), args.r0)
    rows = [[i, j, z.real, z.imag] for (i, j), z in np.ndenumerate(bcm.entries)]
    _write_table(cfg, "r0 in 1/mu, g in mu", ["row", "col", "g_re", "g_im"], rows,
                 comments=[f"hermiticity_defect: {_fmt(bcm.hermiticity_defect)}"])
    return 0


def _cmd_oracle(args, cfg: RunConfig) -> int:
    from .annulus import assemble_radial_hamiltonian, g_from_u, oracle_spectrum
    from .extensions import bound_states, is_angular_momentum_conserving
    opts = cfg.oracle
    ext = cfg.to_extension()
    # the closed forms come before the link map, so an energy past the float range exits 4
    # first; an unmixed channel has at most one bound state, and those are the lowest levels
    analytic: list[float] = []
    if is_angular_momentum_conserving(ext):
        analytic = sorted(state.energy for state in bound_states(ext))
    g = g_from_u(ext, opts.r0)
    grid = AnnulusGrid(opts.r0, opts.R, opts.n)
    ham = assemble_radial_hamiltonian(ext.params, grid, g, ext.channels)
    levels = oracle_spectrum(ham, opts.k)
    analytic += [math.nan] * (len(levels) - len(analytic))
    rows = [[i, v, exact, abs(v - exact) / abs(exact)]
            for i, (v, exact) in enumerate(zip(levels, analytic))]
    _write_table(cfg, "E in mu", ["index", "E_numeric", "E_analytic", "rel_err"], rows)
    return 0


def _cmd_dirac_check(args, cfg: RunConfig) -> int:
    from .dirac import dirac_normalizable, lower_exponent
    from .extensions import is_dirac_consistent
    ext = cfg.to_extension()
    consistent = is_dirac_consistent(ext)
    # a verdict depends on kappa and the branch alone: one quadrature per pair, not per channel
    normalizable = functools.cache(dirac_normalizable)
    rows = [[idx, kind, *lower_exponent(ch.kappa, kind), normalizable(ch.kappa, kind)]
            for idx, ch in enumerate(ext.channels) for kind in ("N", "S")]
    _write_table(cfg, "exponents dimensionless",
                 ["channel", "kind", "cancel_coeff", "exponent", "normalizable"], rows,
                 comments=[f"dirac_consistent: {_fmt(consistent)}"])
    return 0


def _cmd_r0scan(args, cfg: RunConfig) -> int:
    try:
        seq = [float(tok) for tok in args.r0_list.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"--r0-list must be comma-separated numbers: {exc}") from exc
    if not seq or any(not 0.0 < v < math.inf for v in seq):
        raise ConfigError("--r0-list needs positive finite radii")
    from .annulus import r0_limit_scan
    result = r0_limit_scan(cfg.to_extension(), seq)
    comments = [] if result.breakdown_r0 is None else [f"breakdown_r0: {_fmt(result.breakdown_r0)}"]
    _write_table(cfg, "r0 in 1/mu, g in mu", ["r0", "gmax", "offdiag_norm"], list(result.rows),
                 comments=comments)
    return 0


def _cmd_emit_config(args, cfg: RunConfig) -> int:
    sys.stdout.write(emit_config(cfg))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radext",
                                     description="Self-adjoint extension toolkit for singular "
                                                 "radial Hamiltonians (monopole Pauli and "
                                                 "attractive 1/r^2).")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str, config: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if config:  # main loads it before the handler runs
            p.add_argument("--config", required=True)
        p.set_defaults(handler=handler)
        return p

    p = command("channels", _cmd_channels, "enumerate angular channels and flag the singular ones",
                config=False)
    # no defaults here: ModelParams owns them, and only the flags given are passed
    p.add_argument("--model", choices=("monopole", "inverse_square"))
    p.add_argument("--eg", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--jmax", type=float, default=3.0)
    p.add_argument("--lmax", type=int, default=3)
    p.add_argument("--output", default=None)
    command("bound-states", _cmd_bound_states, "bound-state table for a diagonal-acting extension")
    p = command("smatrix", _cmd_smatrix, "scattering amplitude pairs (A_N, A_S) per source channel")
    p.add_argument("--E", type=float, default=1.0, help="energy in units of mu")
    p = command("gmap", _cmd_gmap, "boundary-condition matrix induced at r0")
    p.add_argument("--r0", type=float, required=True, help="boundary radius in 1/mu")
    command("oracle", _cmd_oracle, "finite-difference annulus spectrum vs analytic bound states")
    command("dirac-check", _cmd_dirac_check, "lower-component exponents and Dirac consistency verdict")
    p = command("r0scan", _cmd_r0scan, "growth of the boundary matrix as r0 shrinks")
    p.add_argument("--r0-list", required=True, help="comma-separated radii in 1/mu")
    command("emit-config", _cmd_emit_config, "print the canonical form of a config")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if "config" in args else None
        return args.handler(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (UnitarityError, LinkBreakdownError) as exc:  # before ValueError, UnitarityError's base
        print(f"unitarity error: {exc}", file=sys.stderr)
        return 3
    except HermiticityError as exc:  # before ValueError, its base
        print(f"hermiticity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
