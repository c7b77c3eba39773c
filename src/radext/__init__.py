"""Spectral toolkit for self-adjoint extensions of singular radial Hamiltonians.

Two models share the machinery: the Pauli Hamiltonian of a spin-1/2 charge
in a magnetic monopole field, and a particle in an attractive 1/r^2
potential. In both, some angular channels admit two normalizable small-r
behaviors, the minimal operator fails to be self-adjoint, and a unitary
matrix over those singular channels selects the physics: bound states,
scattering mixing, and Robin boundary data on a small excised sphere.

Modules:
    specfun     fractional-order Bessel/Macdonald functions and small-r data
    channels    angular channel enumeration, quantum-number arithmetic, the
                input rules a config is checked by, and the typed refusals
    extensions  the U(n) family over the singular channels: deficiency
                vectors, bound states, matching
    dirac       relativistic admissibility of the singular branches
    annulus     boundary matrices, link map, finite-difference oracle
    cli         batch front end (JSON configs, CSV/JSON tables)
"""

import importlib

__all__ = ["annulus", "channels", "cli", "dirac", "extensions", "specfun"]

__version__ = "0.1.0"


def __getattr__(name: str):
    # submodules load on first access, so `import radext` costs nothing and
    # `python -m radext.cli` does not find radext.cli already imported
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
