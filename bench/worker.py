"""One workload process: set up, report READY, then measure on request.

Started by run.py with BLAS pinned to one thread and only the checkout's
src/ on PYTHONPATH. Protocol on stdin/stdout: after setup (imports, inputs,
one untimed warm-up op) the worker prints "READY"; it then reads one line,
"run" or "exit". On "run" it prints one JSON line with its result. Anything
the program prints goes to stderr, so stdout carries the protocol only.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import radext

import probes
import reference
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, fill_accuracy

ROOT = Path.cwd()


def _blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                found[Path(lib).name] = int(getattr(handle, sym)())
                break
    return found


def measure(wl, op, *, seconds=None, n_ops=None, tracer=None) -> dict:
    """Closed loop, one client: ops back to back until the time or count is spent.

    A time-limited run ends at the first cycle boundary past the deadline.
    Inputs are generated and outputs checked outside the timed region. An
    op the program refuses with ValueError or ArithmeticError, its typed
    gates, counts as refused; a wrong answer or any other exception counts
    as failed. Both count against pass_ratio.
    """
    lat, wall_lat, busy, wall_busy, refused, failed, i = [], [], 0.0, 0.0, 0, 0, 0
    errors: Counter = Counter()
    problems: list[str] = []
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        inp = wl.inputs(i)
        scale = reference.speed(wl.reference)
        exc = None
        start = time.perf_counter()
        try:
            out = tracer.op_span(i, op, inp) if tracer else op(inp)
        except Exception as caught:
            exc = caught
        dt = time.perf_counter() - start
        busy += dt * scale
        wall_busy += dt
        if exc is not None:
            if isinstance(exc, (ValueError, ArithmeticError)):
                refused += 1
            else:
                failed += 1  # anything untyped is a broken program
            errors[type(exc).__name__] += 1
            problems.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            bad = wl.check(inp, out)
            if bad:
                failed += 1
                problems.append(f"op {i}: " + "; ".join(bad))
            else:
                lat.append(dt * scale)
                wall_lat.append(dt)
        i += 1
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i % wl.cycle == 0 and time.perf_counter() >= deadline:
            break
    return {"attempted": i, "refused": refused, "failed": failed, "latencies": lat, "busy_s": busy,
            "wall_latencies": wall_lat, "wall_busy_s": wall_busy,
            "errors": dict(errors), "problems": problems[:20]}


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(wl, tally: dict, seed: int, workdir: Path) -> tuple[dict, dict]:
    lat = tally["latencies"]
    who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
    completed = tally["attempted"] - tally["refused"] - tally["failed"]
    metrics = {
        "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "ops_per_s": completed / tally["busy_s"] if tally["busy_s"] > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "pass_ratio": completed / tally["attempted"],
    }
    metrics.update(wl.accuracy())
    fill_accuracy(metrics, seed, workdir)
    # the highest percentile with at least ten samples beyond it
    tail_q = max(0.5, 1.0 - 10.0 / len(lat)) if lat else 0.5
    detail = {"op_samples": len(lat), "tail_quantile": tail_q,
              "op_tail_ms": _percentile(lat, tail_q) * 1e3 if lat else 0.0,
              "reference_kernel": wl.reference.name,
              "wall_op_p50_ms": statistics.median(tally["wall_latencies"]) * 1e3 if lat else 0.0,
              "wall_ops_per_s": completed / tally["wall_busy_s"] if tally["wall_busy_s"] > 0 else 0.0,
              "fail_ratio": 1.0 - completed / tally["attempted"]}
    return metrics, detail


def per_layer(wl, seconds: float, seed: int, workdir: Path, out_dir: Path) -> tuple[dict, dict, dict]:
    """Untraced pass, the same ops traced, the census, then the probes.

    The untraced pass gets a quarter of the time: an ensemble op records
    about 1100 spans, all kept in memory.
    """
    plain = measure(wl, wl.traced_op, seconds=seconds / 4.0)
    census = [(cls(seed, workdir) if cls is not type(wl) else wl) for cls in WORKLOADS.values()]
    census_inputs = [(c, inp) for c in census for inp in c.census_inputs()]
    with Tracer() as tracer:
        traced = measure(wl, wl.traced_op, n_ops=plain["attempted"], tracer=tracer)
        for k, (c, inp) in enumerate(census_inputs):
            try:
                tracer.op_span(-1 - k, c.traced_op, inp)
            except (ValueError, ArithmeticError):
                pass  # the census only stands in for layer timings
    metrics, source = layer_metrics(tracer, traced["attempted"], len(census_inputs))
    metrics["trace_overhead_ratio"] = traced["busy_s"] / plain["busy_s"]
    tracer.write(out_dir / f"spans-{wl.name}-s{seed}.json.gz")
    metrics["specfun.ref_digits"] = probes.ref_digits()
    metrics.update(probes.breakdown())
    metrics["annulus.coupled_scaling_exp"] = probes.coupled_scaling(seed)
    metrics.update(probes.cli_split())
    tally = {k: plain[k] + traced[k] for k in ("attempted", "refused", "failed")}
    tally["problems"] = plain["problems"] + traced["problems"]
    tally["errors"] = dict(Counter(plain["errors"]) + Counter(traced["errors"]))
    return metrics, {"layer_source": source, "spans": len(tracer.spans)}, tally


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    if not Path(radext.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"radext imported from {radext.__file__}, not from {ROOT / 'src'}")
    proto = sys.stdout
    sys.stdout = sys.stderr

    out_dir = Path(args.out)
    workdir = out_dir / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        warm = wl.inputs(0)
        reference.speed(wl.reference)
        try:
            wl.check(warm, wl.op(warm))  # untimed warm-up; the timed loop counts failures
        except (ValueError, ArithmeticError):
            pass
        print("READY", file=proto, flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        if args.trace:
            metrics, detail, tally = per_layer(wl, args.seconds, args.seed, workdir, out_dir)
        else:
            tally = measure(wl, wl.op, seconds=args.seconds)
            metrics, detail = end_to_end(wl, tally, args.seed, workdir)
        detail.update(errors=tally["errors"], problems=tally["problems"], blas_threads=_blas_threads())
        result = {"attempted": tally["attempted"], "refused": tally["refused"], "failed": tally["failed"],
                  "metrics": metrics, "detail": detail}
        proto.write(json.dumps(result) + "\n")
        proto.flush()
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
