"""Regenerate specfun_refs.json: J, Y and K at 40 digits with mpmath.

    python3 bench/make_refs.py

The points cover the orders and arguments the workloads reach: the two
canonical orders and their +1 partners (the derivative recurrences), real
arguments for J and Y, and (1 -+ i) s r for K in both half-planes, so the
conjugation fold is checked too. Points near zeros of J and Y are left out,
where a relative error says nothing. The file is frozen so that the probe
needs no mpmath at run time and a later change of kernel cannot grade itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath

mpmath.mp.dps = 40

NU_EDGE = math.sqrt(2.0) - 0.5
ORDERS = (0.5, NU_EDGE, 1.5, NU_EDGE + 1.0)
REAL_ARGS = (0.01, 0.3, 1.0, 2.5, 6.0, 11.0, 20.0)
K_RADII = (1e-3, 0.01, 0.05, 0.1, 0.5, 3.0, 8.0)


def _far_from_zero(value, x: float) -> bool:
    """Below x = 1 these orders have no zeros; beyond, stay 5% of the envelope away."""
    return x < 1.0 or abs(value) > 0.05 * math.sqrt(2.0 / (math.pi * x))


def main() -> None:
    j_rows, y_rows, k_rows = [], [], []
    for nu in ORDERS:
        for x in REAL_ARGS:
            j = mpmath.besselj(nu, x)
            y = mpmath.bessely(nu, x)
            if _far_from_zero(j, x):
                j_rows.append([nu, x, float(j)])
            if _far_from_zero(y, x):
                y_rows.append([nu, x, float(y)])
        for r in K_RADII:
            for sign in (-1.0, 1.0):
                z = complex(r, sign * r)
                k = complex(mpmath.besselk(nu, mpmath.mpc(z.real, z.imag)))
                k_rows.append([nu, z.real, z.imag, k.real, k.imag])
    doc = {"source": "mpmath %s, mp.dps = 40" % mpmath.__version__,
           "bessel_j": j_rows, "bessel_y": y_rows, "bessel_k_complex": k_rows}
    path = Path(__file__).with_name("specfun_refs.json")
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
