"""Layer probes that every traced run makes, outside the traced ops.

ref_digits       specfun against frozen 40-digit mpmath values (specfun_refs.json)
breakdown        the link map's breakdown radius over Haar seeds 0-49
coupled_scaling  how the coupled eigensolve grows when n doubles
cli_split        interpreter start and `import radext.cli` as fresh processes
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from radext import annulus, extensions, specfun
from radext.channels import ModelParams

from tracing import digits

REFS = Path(__file__).with_name("specfun_refs.json")
BREAKDOWN_SEEDS = range(50)
COUPLED_N = 100  # base grid size of the coupled scaling probe; it also times 2 * COUPLED_N
CLI_REPEATS = 3
# half-decade ladder 1e-1, 10^-1.5, ..., 1e-10
BREAKDOWN_LADDER = tuple(10.0 ** (-k / 2.0) for k in range(2, 21))


def ref_digits() -> float:
    """Worst -log10 relative error of J, Y and K against the frozen references."""
    doc = json.loads(REFS.read_text(encoding="utf-8"))
    worst = 0.0
    for nu, x, ref in doc["bessel_j"]:
        worst = max(worst, abs(specfun.bessel_j(nu, x) - ref) / abs(ref))
    for nu, x, ref in doc["bessel_y"]:
        worst = max(worst, abs(specfun.bessel_y(nu, x) - ref) / abs(ref))
    for nu, re, im, ref_re, ref_im in doc["bessel_k_complex"]:
        ref = complex(ref_re, ref_im)
        worst = max(worst, abs(specfun.bessel_k_complex(nu, complex(re, im)) - ref) / abs(ref))
    return digits(worst)


def breakdown() -> dict[str, float]:
    """r0_limit_scan down the ladder per seed; the typed error at each breakdown.

    The link map has two gates: g_from_u's own 1e-6 Hermiticity gate raises
    ArithmeticError, BoundaryConditionMatrix's 1e-9 gate raises ValueError.
    The scan hides which one fired, so the breakdown radius is re-run to
    classify it. A seed that survives the whole ladder counts as a survivor.
    """
    radii, value_errors, arith_errors, survivors = [], 0, 0, 0
    for seed in BREAKDOWN_SEEDS:
        ext = extensions.random_extension(seed)
        r0 = annulus.r0_limit_scan(ext, BREAKDOWN_LADDER).breakdown_r0
        if r0 is None:
            survivors += 1
            continue
        radii.append(r0)
        try:
            annulus.g_from_u(ext, r0)
        except ArithmeticError:
            arith_errors += 1
        except ValueError:
            value_errors += 1
    return {
        "annulus.breakdown_r0_p50": statistics.median(radii) if radii else 0.0,
        "annulus.breakdown_r0_max": max(radii, default=0.0),
        "annulus.breakdown_value_errors": float(value_errors),
        "annulus.breakdown_arith_errors": float(arith_errors),
        "annulus.breakdown_survivors": float(survivors),
    }


def coupled_scaling(seed: int) -> float:
    """log2 of t(2n) / t(n) for oracle_spectrum on one Haar g, k = 4."""
    ext = extensions.ExtensionMatrix(extensions.haar_unitary(np.random.default_rng([seed, 3])))
    g = annulus.g_from_u(ext, 0.01)
    times = []
    for size in (COUPLED_N, 2 * COUPLED_N):
        ham = annulus.assemble_radial_hamiltonian(
            ModelParams(), annulus.AnnulusGrid(r0=0.01, R=40.0, n=size), g, ext.channels)
        start = time.perf_counter()
        annulus.oracle_spectrum(ham, 4)
        times.append(time.perf_counter() - start)
    return math.log2(times[1] / times[0])


def _spawn_ms(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return (time.perf_counter() - start) * 1e3


def cli_split() -> dict[str, float]:
    """Median wall of a bare interpreter, and of `import radext.cli` minus that."""
    interp = statistics.median(_spawn_ms("pass") for _ in range(CLI_REPEATS))
    imported = statistics.median(_spawn_ms("import radext.cli") for _ in range(CLI_REPEATS))
    return {"cli.interp_ms": interp, "cli.import_ms": imported - interp}
