"""Acceptance gate: one test per release criterion, one printed line each.

Each test prints a PASS/FAIL summary to the terminal (past pytest's capture)
before asserting, so the per-criterion status is visible even when a
criterion is red. Stated tolerances are asserted as written; nothing here
is loosened to accommodate the implementation.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from conftest import SWAP_01
from radext import annulus, specfun
from radext.channels import ChannelSpec, ModelParams, singular_channels
from radext.extensions import (
    DeficiencyVector,
    ExtensionMatrix,
    bound_state_energy_theta,
    bound_state_energy_u,
    bound_states,
    dirac_consistent_value,
    is_dirac_consistent,
    mixing_matrix,
    random_extension,
)

NU_HALF = 0.5
NU_EDGE = math.sqrt(2.0) - 0.5
MU = 1.0


def _window_edge(nu: float) -> float:
    # existence boundary: cos theta = -cos(pi nu / 2)
    return math.acos(-math.cos(math.pi * nu / 2.0))


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_singular_channel_census(capsys):
    t0 = time.perf_counter()
    chans = singular_channels(ModelParams(), cutoff=3.0)
    elapsed = time.perf_counter() - t0

    nus = sorted(ch.nu for ch in chans)
    count_ok = len(chans) == 4
    value_ok = (abs(nus[0] - NU_HALF) <= 1e-12
                and all(abs(nu - NU_EDGE) <= 1e-12 for nu in nus[1:]))
    ok = count_ok and value_ok and elapsed < 1.0
    _report(capsys, 1, ok,
            f"{len(chans)} singular channels, nu values {{1/2, sqrt2 - 1/2}}, "
            f"{elapsed:.3f} s")
    assert count_ok and value_ok
    assert elapsed < 1.0


def test_criterion_02_bound_state_formulas(capsys):
    t0 = time.perf_counter()
    worst_anchor = 0.0
    for nu in (NU_HALF, NU_EDGE):
        e0 = bound_state_energy_theta(0.0, nu, MU)
        worst_anchor = max(worst_anchor, abs(e0 + MU))
    quarter = bound_state_energy_theta(math.pi / 2.0, NU_HALF, MU)
    worst_anchor = max(worst_anchor, abs(quarter + (3.0 - 2.0 * math.sqrt(2.0)) * MU))

    worst_cross = 0.0
    for nu in (NU_HALF, NU_EDGE):
        edge = _window_edge(nu)
        for theta in np.linspace(-0.999 * edge, 0.999 * edge, 100):
            e_theta = bound_state_energy_theta(theta, nu, MU)
            e_u = bound_state_energy_u(complex(math.cos(theta), math.sin(theta)), nu, MU)
            assert e_theta is not None and e_u is not None
            worst_cross = max(worst_cross, abs(e_u - e_theta) / abs(e_theta))

    outside_ok = True
    for nu in (NU_HALF, NU_EDGE):
        edge = _window_edge(nu)
        for theta in np.linspace(edge + 1e-6, math.pi, 40):
            if bound_state_energy_theta(theta, nu, MU) is not None:
                outside_ok = False
            if bound_state_energy_theta(-theta, nu, MU) is not None:
                outside_ok = False
    elapsed = time.perf_counter() - t0

    ok = (worst_anchor <= 1e-12 and worst_cross <= 1e-10
          and outside_ok and elapsed < 1.0)
    _report(capsys, 2, ok,
            f"anchors dev {worst_anchor:.1e} (tol 1e-12), cross-form dev "
            f"{worst_cross:.1e} (tol 1e-10), no state outside window: "
            f"{outside_ok}, {elapsed:.3f} s")
    assert worst_anchor <= 1e-12
    assert worst_cross <= 1e-10
    assert outside_ok
    assert elapsed < 1.0


def test_criterion_03_bound_state_counts(capsys):
    t0 = time.perf_counter()
    counts_ok = True
    for seed in range(200):
        n = len(bound_states(random_extension(seed), MU))
        if not 0 <= n <= 4:
            counts_ok = False
    states = bound_states(ExtensionMatrix(np.eye(4)), MU)
    identity_ok = (len(states) == 4
                   and all(abs(s.energy + MU) <= 1e-12 for s in states))
    elapsed = time.perf_counter() - t0

    ok = counts_ok and identity_ok and elapsed < 10.0
    _report(capsys, 3, ok,
            f"200 seeded counts in [0, 4]: {counts_ok}, identity gives 4 at "
            f"-mu: {identity_ok}, {elapsed:.2f} s")
    assert counts_ok and identity_ok
    assert elapsed < 10.0


def test_criterion_04_deficiency_normalization(capsys):
    t0 = time.perf_counter()
    params = ModelParams()
    chans = singular_channels(params, cutoff=3.0)
    worst = 0.0
    for ch in chans:
        for sign in (+1, -1):
            vec = DeficiencyVector(ch, sign, params.deficiency_scale)
            norm, _ = quad(lambda r: abs(vec.value(r)) ** 2 * r * r,
                           0.0, 40.0 / params.deficiency_scale, limit=200)
            worst = max(worst, abs(norm - 1.0))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-8 and elapsed < 5.0
    _report(capsys, 4, ok,
            f"quadrature norm dev {worst:.1e} over 4 channels x 2 signs "
            f"(tol 1e-8), {elapsed:.2f} s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_05_angular_momentum_mixing(capsys):
    t0 = time.perf_counter()
    diag = ExtensionMatrix.from_diagonal_thetas([0.3, -0.7, 1.2, 2.1])
    regular, singular = mixing_matrix(diag, MU, MU)
    off = ~np.eye(4, dtype=bool)
    diag_max = max(float(np.abs(regular[off]).max()),
                   float(np.abs(singular[off]).max()))

    swap = ExtensionMatrix(SWAP_01)
    _, swap_singular = mixing_matrix(swap, MU, MU)
    swap_peak = float(np.abs(swap_singular[off]).max())
    elapsed = time.perf_counter() - t0

    ok = diag_max < 1e-12 and swap_peak > 1e-3 and elapsed < 5.0
    _report(capsys, 5, ok,
            f"diagonal-U off-diagonal {diag_max:.1e} (< 1e-12), swap "
            f"|A_S| peak {swap_peak:.3f} (> 1e-3), {elapsed:.2f} s")
    assert diag_max < 1e-12
    assert swap_peak > 1e-3
    assert elapsed < 5.0


def test_criterion_06_dirac_constraint(capsys):
    from radext.dirac import dirac_normalizable

    t0 = time.perf_counter()
    verdict_ok = (dirac_normalizable(-math.sqrt(2.0), "S") is False
                  and dirac_normalizable(0.0, "S") is True)

    u1 = dirac_consistent_value(NU_EDGE)
    accept_ok = True
    for alpha in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False):
        ents = np.diag([complex(math.cos(alpha), math.sin(alpha)), u1, u1, u1])
        if not is_dirac_consistent(ExtensionMatrix(ents)):
            accept_ok = False
    reject_ok = (not is_dirac_consistent(ExtensionMatrix(np.eye(4)))
                 and not is_dirac_consistent(ExtensionMatrix(SWAP_01)))
    elapsed = time.perf_counter() - t0

    ok = verdict_ok and accept_ok and reject_ok and elapsed < 5.0
    _report(capsys, 6, ok,
            f"normalizability verdicts: {verdict_ok}, one-parameter family "
            f"accepted (10 phases): {accept_ok}, identity/swap rejected: "
            f"{reject_ok}, {elapsed:.2f} s")
    assert verdict_ok and accept_ok and reject_ok
    assert elapsed < 5.0


def test_criterion_07_link_map_hermiticity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        ext = random_extension(seed)
        for r0 in (0.05 / MU, 0.1 / MU, 0.5 / MU):
            g = annulus.g_from_u(ext, r0)
            worst = max(worst, g.hermiticity_defect)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-9 and elapsed < 30.0
    _report(capsys, 7, ok,
            f"max Hermiticity defect {worst:.1e} over 50 unitaries x 3 radii "
            f"(tol 1e-9), {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_08_oracle_agreement(capsys):
    t0 = time.perf_counter()
    r0 = 1e-3 / MU
    details = []
    accuracy_ok = True
    shrink_ok = True
    for nu in (NU_HALF, NU_EDGE):
        edge = _window_edge(nu)
        worst = 0.0
        for frac in (0.0, 0.2, 0.4, 0.6, 0.8):
            theta = frac * edge
            analytic = bound_state_energy_theta(theta, nu, MU)
            assert analytic is not None
            lam = math.sqrt(-2.0 * MU * analytic)
            gval = annulus.diagonal_link_value(nu, theta, r0, MU)
            ch = (ChannelSpec(m=0, nu_sq=0.25, j=0, kappa=0.0) if nu == NU_HALF
                  else ChannelSpec(m=0, nu_sq=nu * nu, j=1, kappa=-math.sqrt(2.0)))
            bcm = annulus.BoundaryConditionMatrix(
                r0=r0, channels=(ch,), entries=np.array([[gval]]))
            errs = []
            for n in (8000, 16000):
                grid = annulus.AnnulusGrid(r0=r0, R=40.0 / lam, n=n)
                ham = annulus.assemble_radial_hamiltonian(
                    ModelParams(), grid, bcm, (ch,))
                lowest = annulus.oracle_spectrum(ham, 1)[0]
                errs.append(abs(lowest - analytic) / abs(analytic))
            worst = max(worst, errs[0])
            if errs[0] > 0.01:
                accuracy_ok = False
            if not errs[1] < errs[0]:
                shrink_ok = False
        details.append(f"nu={nu:.3f} worst rel err {worst:.2e}")
    elapsed = time.perf_counter() - t0

    ok = accuracy_ok and shrink_ok and elapsed < 300.0
    _report(capsys, 8, ok,
            f"{'; '.join(details)} (tol 1e-2), error shrinks when n doubles: "
            f"{shrink_ok}, {elapsed:.1f} s")
    assert accuracy_ok, "lowest eigenvalue off by more than 1% at stated grid"
    assert shrink_ok, "doubling n did not shrink the error"
    assert elapsed < 300.0


def test_coupled_oracle_at_criterion_8_size():
    # criterion 8's grid (r0 = 1e-3, n = 8000) for all four channels at once: a diagonal
    # U must reproduce the union of the single-channel levels, which come from scipy's
    # tridiagonal bisection on each channel's own operator, independent of the Schur
    # solve; LAPACK's band reduction needs 40-60 s at this size (32004 unknowns, one core
    # of a 2-core Xeon)
    ext = ExtensionMatrix.from_diagonal_thetas([0.3, 1.1, -0.4, 0.9], ModelParams())
    r0 = 1e-3 / MU
    g = annulus.g_from_u(ext, r0)
    grid = annulus.AnnulusGrid(r0=r0, R=40.0 / MU, n=8000)
    ham = annulus.assemble_radial_hamiltonian(ModelParams(), grid, g, ext.channels)
    t0 = time.perf_counter()
    coupled = annulus.oracle_spectrum(ham, 4)
    elapsed = time.perf_counter() - t0
    single = []
    for idx, ch in enumerate(ext.channels):
        g1 = annulus.BoundaryConditionMatrix(r0=r0, channels=(ch,),
                                             entries=g.entries[idx:idx + 1, idx:idx + 1])
        h1 = annulus.assemble_radial_hamiltonian(ModelParams(), grid, g1, (ch,))
        single.extend(scipy.linalg.eigh_tridiagonal(
            np.concatenate((h1.block[0].real, h1.onsite[:, 0])), h1.hops[:, 0],
            eigvals_only=True, select="i", select_range=(0, 3)))
    np.testing.assert_allclose(coupled, np.sort(single)[:4], rtol=1e-8)
    assert elapsed < 1.0


def test_criterion_09_flux_conservation(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for seed in range(10):
        g = annulus.g_from_u(random_extension(seed), 0.1 / MU)
        for _ in range(10):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            report = annulus.boundary_flux(g, psi)
            norm_sq = float(np.vdot(psi, psi).real)
            worst = max(worst, abs(report.total.imag) / norm_sq)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and elapsed < 1.0
    _report(capsys, 9, ok,
            f"max |Im flux| / ||psi||^2 = {worst:.1e} over 100 states "
            f"(tol 1e-10), {elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_10_special_functions(capsys):
    t0 = time.perf_counter()
    worst_wronskian = 0.0
    for nu in (0.5, NU_EDGE, 1.3):
        for x in np.geomspace(0.1, 20.0, 60):
            w = (specfun.bessel_j(nu + 1.0, x) * specfun.bessel_y(nu, x)
                 - specfun.bessel_j(nu, x) * specfun.bessel_y(nu + 1.0, x))
            exact = 2.0 / (math.pi * x)
            worst_wronskian = max(worst_wronskian, abs(w - exact) / abs(exact))

    worst_half = 0.0
    for x in (0.3, 1.0, 4.0, 12.0):
        pref = math.sqrt(2.0 / (math.pi * x))
        worst_half = max(worst_half,
                         abs(specfun.bessel_j(0.5, x) - pref * math.sin(x)),
                         abs(specfun.bessel_y(0.5, x) + pref * math.cos(x)))
    for z in (complex(0.8, 0.4), complex(2.0, -1.5), complex(5.0, 3.0)):
        closed = np.sqrt(math.pi / (2.0 * z)) * np.exp(-z)
        got = specfun.bessel_k_complex(0.5, z)
        worst_half = max(worst_half, abs(got - closed) / abs(closed))

    worst_reflect = 0.0
    for nu in (0.5, NU_EDGE, 1.7):
        for z in (complex(1.0, 1.0), complex(0.3, -2.0), complex(8.0, 5.0),
                  complex(4.0, -0.7)):
            a = specfun.bessel_k_complex(nu, z)
            b = specfun.bessel_k_complex(nu, z.conjugate())
            worst_reflect = max(worst_reflect, abs(b - a.conjugate()) / abs(a))
    elapsed = time.perf_counter() - t0

    ok = (worst_wronskian <= 1e-10 and worst_half <= 1e-12
          and worst_reflect <= 1e-13 and elapsed < 5.0)
    _report(capsys, 10, ok,
            f"Wronskian dev {worst_wronskian:.1e} (tol 1e-10), half-order "
            f"dev {worst_half:.1e} (tol 1e-12), K reflection dev "
            f"{worst_reflect:.1e} (tol 1e-13), {elapsed:.2f} s")
    assert worst_wronskian <= 1e-10
    assert worst_half <= 1e-12
    assert worst_reflect <= 1e-13
    assert elapsed < 5.0


def test_criterion_11_boundary_matrix_blowup(capsys):
    t0 = time.perf_counter()
    result = annulus.r0_limit_scan(ExtensionMatrix(np.eye(4)),
                                   [1e-1, 1e-2, 1e-3])
    gmax = [row.gmax for row in result.rows]
    grows = (result.breakdown_r0 is None and len(gmax) == 3
             and gmax[0] < gmax[1] < gmax[2])
    elapsed = time.perf_counter() - t0

    ok = grows and elapsed < 5.0
    _report(capsys, 11, ok,
            f"||g||_max strictly increases along 1e-1, 1e-2, 1e-3: {grows} "
            f"({gmax[0]:.1f} -> {gmax[1]:.1f} -> {gmax[2]:.1f}), "
            f"{elapsed:.2f} s")
    assert grows
    assert elapsed < 5.0
