"""Span tracing from outside the program, and the per-layer metrics built on it.

A Tracer replaces the public functions of each radext module, and every
name another radext module imported them under, with wrappers that record a
span: name, start, end, parent span, op id, the exception type if the call
raised, and one optional number read off the result (a condition number, a
matrix size). Spans are kept in memory and written once, at the end of the
run. channels calls are counted only: each one is below the timer's
resolution.

Op ids: a non-negative id is an op of the workload under test; a negative
id is a census op (one op of every workload, traced in every run) whose
spans stand in for layers the workload's own ops never reach.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import statistics
import time
from collections import Counter

from radext import annulus, channels, cli, dirac, extensions, specfun

_MODULES = (specfun, channels, extensions, dirac, annulus, cli)
DIGITS_CAP = 17.0  # digits() of a zero error: what double precision can resolve at most

# (module, public function, span name, value read off the result)
_SPANNED = (
    (specfun, "bessel_j", "specfun.bessel_j", None),
    (specfun, "bessel_y", "specfun.bessel_y", None),
    (specfun, "bessel_j_deriv", "specfun.bessel_j_deriv", None),
    (specfun, "bessel_y_deriv", "specfun.bessel_y_deriv", None),
    (specfun, "bessel_k_complex", "specfun.bessel_k", None),
    (specfun, "bessel_k_complex_deriv", "specfun.bessel_k_deriv", None),
    (specfun, "small_arg_coeffs", "specfun.small_arg_coeffs", None),
    (extensions, "haar_unitary", "extensions.haar_unitary", None),
    (extensions, "domain_vector_smallr", "extensions.domain_vector_smallr", None),
    (extensions, "scattering_eigenstate", "extensions.scattering_eigenstate", None),
    (extensions, "mixing_matrix", "extensions.mixing_matrix", None),
    (extensions, "bound_states", "extensions.bound_states", None),
    (extensions, "bound_state_energy_theta", "extensions.bound_state_energy_theta", None),
    (extensions, "bound_state_energy_u", "extensions.bound_state_energy_u", None),
    (extensions, "dirac_consistent_value", "extensions.dirac_consistent_value", None),
    (extensions, "is_dirac_consistent", "extensions.is_dirac_consistent", None),
    (dirac, "lower_exponent", "dirac.lower_exponent", None),
    (dirac, "dirac_normalizable", "dirac.dirac_normalizable", None),
    (annulus, "exterior_tail_norm", "annulus.exterior_tail_norm", None),
    (annulus, "a_matrix", "annulus.a_matrix", lambda out: out.condition_number),
    (annulus, "g_from_u", "annulus.g_from_u", None),
    (annulus, "diagonal_link_value", "annulus.diagonal_link_value", None),
    (annulus, "assemble_radial_hamiltonian", "annulus.assemble", lambda out: out.size),
    (annulus, "oracle_spectrum", "annulus.eigensolve", None),
    (annulus, "boundary_flux", "annulus.boundary_flux", None),
    (annulus, "r0_limit_scan", "annulus.r0_limit_scan", None),
    (cli, "main", "cli.main", None),
)
# constructors: validation work lives in __post_init__
_CONSTRUCTORS = (
    (extensions.ExtensionMatrix, "extensions.construct"),
    (annulus.BoundaryConditionMatrix, "annulus.boundary_matrix"),
)
_COUNTED = (
    (channels, "singular_channels"),
    (channels, "kappa_of"),
    (channels, "nu_of"),
    (channels, "l_crit"),
)

_FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "error", "value")


class Tracer:
    """Installs span wrappers while active; restores every original on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op: int | None = None  # None between ops: calls pass through unrecorded
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn, value=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = val = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if value is not None:
                    val = float(value(out))
                return out
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, err, val)

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op is not None:
                counts[name if self.op >= 0 else "census:" + name] += 1
            return fn(*args, **kwargs)

        return counted

    def op_span(self, op_id: int, fn, *args):
        """Run fn(*args) as op op_id, under a root span named 'op'."""
        self.op = op_id
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self.op = None

    # -- installation ------------------------------------------------------
    def _patch_everywhere(self, original, replacement) -> None:
        for mod in _MODULES:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        for mod, attr, name, value in _SPANNED:
            self._patch_everywhere(getattr(mod, attr), self._wrap(name, getattr(mod, attr), value))
        for mod, attr in _COUNTED:
            fn = getattr(mod, attr)
            self._patch_everywhere(fn, self._count(f"{mod.__name__.split('.')[-1]}.{attr}", fn))
        for cls, name in _CONSTRUCTORS:
            original = cls.__dict__["__post_init__"]
            self._undo.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(name, original)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"fields": list(_FIELDS), "names": names, "counts": dict(self.counts),
               "spans": [[index[s[0]], *s[1:]] for s in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _self_times(spans) -> list[int]:
    """Duration minus the time covered by direct children, per span (ns)."""
    child = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _median_ms(values) -> float:
    return statistics.median(values) / 1e6 if values else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, n_census: int) -> tuple[dict, dict]:
    """Per-layer figures from one traced run.

    Counts per op always come from the workload's own ops, so a layer the
    workload never reaches reads 0. Times and ratios of such a layer come from
    the census ops instead; the second dict names the source of each figure.
    """
    spans = tracer.spans
    selft = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def pick(*names):
        """Span indices of the ops if they reach the layer, else of the census."""
        idx = [i for n in names for i in by_name.get(n, ())]
        own = [i for i in idx if spans[i][4] >= 0]
        if own:
            return own, n_ops, "ops"
        return [i for i in idx if spans[i][4] < 0], n_census, "census"

    def count(*names):
        return sum(1 for n in names for i in by_name.get(n, ()) if spans[i][4] >= 0) / n_ops

    out: dict[str, float] = {}
    source: dict[str, str] = {}

    def per_call_ms(metric, name):
        idx, _, src = pick(name)
        out[metric], source[metric] = _median_ms([spans[i][2] - spans[i][1] for i in idx]), src

    def self_ms_per_op(metric, *names):
        idx, denom, src = pick(*names)
        out[metric] = sum(selft[i] for i in idx) / 1e6 / max(denom, 1)
        source[metric] = src

    out["specfun.k_calls_per_op"] = count("specfun.bessel_k")
    out["specfun.small_arg_calls_per_op"] = count("specfun.small_arg_coeffs")
    out["specfun.jy_calls_per_op"] = count("specfun.bessel_j", "specfun.bessel_y")
    self_ms_per_op("specfun.k_self_ms_per_op", "specfun.bessel_k", "specfun.bessel_k_deriv")

    per_call_ms("annulus.g_from_u_ms", "annulus.g_from_u")
    out["annulus.g_from_u_calls_per_op"] = count("annulus.g_from_u")
    idx, _, source["annulus.a_cond_max"] = pick("annulus.a_matrix")
    out["annulus.a_cond_max"] = max((spans[i][6] for i in idx if spans[i][6] is not None), default=0.0)
    idx, _, source["annulus.link_fail_ratio"] = pick("annulus.g_from_u")
    out["annulus.link_fail_ratio"] = (sum(1 for i in idx if spans[i][5]) / len(idx)) if idx else 0.0

    per_call_ms("extensions.mixing_matrix_ms", "extensions.mixing_matrix")
    self_ms_per_op("extensions.construct_ms_per_op", "extensions.construct")
    # the rest of extensions, leaving out what mixing_matrix calls (parents precede children)
    in_mixing = [False] * len(spans)
    for i, s in enumerate(spans):
        parent = s[3]
        in_mixing[i] = s[0] == "extensions.mixing_matrix" or (parent >= 0 and in_mixing[parent])
    by_name["extensions.other"] = [
        i for i, s in enumerate(spans)
        if s[0].startswith("extensions.") and s[0] != "extensions.construct" and not in_mixing[i]]
    self_ms_per_op("extensions.other_ms_per_op", "extensions.other")

    per_call_ms("annulus.diagonal_link_ms", "annulus.diagonal_link_value")
    per_call_ms("annulus.assemble_ms", "annulus.assemble")
    per_call_ms("annulus.eigensolve_ms", "annulus.eigensolve")
    idx, _, src = pick("annulus.eigensolve")
    ops = {spans[i][4] for i in idx}
    op_ns = sum(s[2] - s[1] for s in spans if s[0] == "op" and s[4] in ops)
    out["annulus.eigensolve_share"] = sum(selft[i] for i in idx) / op_ns if op_ns else 0.0
    source["annulus.eigensolve_share"] = src
    out["annulus.fd_unknowns_per_op"] = sum(
        spans[i][6] for i in by_name.get("annulus.assemble", ()) if spans[i][4] >= 0) / n_ops

    per_call_ms("cli.compute_ms", "cli.main")
    per_call_ms("dirac.normalizable_ms", "dirac.dirac_normalizable")
    out["channels.calls_per_op"] = sum(
        v for k, v in tracer.counts.items() if not k.startswith("census:")) / n_ops
    return out, source


def digits(err: float) -> float:
    """-log10 of an error, capped where double precision has nothing left."""
    return DIGITS_CAP if err <= 0.0 else min(DIGITS_CAP, -math.log10(err))
