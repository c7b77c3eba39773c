"""radext benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. setup_s is the median
over SETUP_SAMPLES fresh worker processes, each timed from spawn to READY
and scaled to reference speed by the imports kernel timed before and after
it (reference.py); the last of them runs the measurement. A full result,
with provenance, goes to bench/out/result-<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # the whole run, set-up included


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Worker:
    """A worker process, killed if the run overruns its deadline."""

    def __init__(self, args, root: Path, out_dir: Path, deadline: float):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_dir)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self.proc.kill)
        self.timer.start()

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker ended without a result (exit code {self.proc.wait()})")
        return line.strip()

    def ready(self) -> float:
        """Seconds from spawn to READY."""
        if self._line() != "READY":
            raise BenchError("worker broke the protocol before READY")
        return time.perf_counter() - self.start

    def finish(self, command: str) -> dict | None:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
            result = json.loads(self._line()) if command == "run" else None
            if self.proc.wait() != 0:
                raise BenchError(f"worker exited with code {self.proc.returncode}")
            return result
        finally:
            self.close()

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def provenance(root: Path, seed: int, blas_threads: dict) -> dict:
    import numpy
    import scipy

    blas = {mod.__name__: mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
            for mod in (numpy, scipy)}
    cpu_model, caches = None, {}
    try:  # machine facts are informational; a restricted system may hide them
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level} {kind}"] = size
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas": blas, "blas_threads": blas_threads,
        "blas_env": BLAS_ENV, "git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
    }


def run(args, root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (root / "src" / "radext" / "__init__.py").is_file():
        raise BenchError(f"no radext sources under {root / 'src'}; run from a checkout's root")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    # every process started from here on, workers and reference kernels, runs BLAS on one thread
    os.environ.update(BLAS_ENV)
    deadline = time.monotonic() + DEADLINE_S
    setups, wall_setups = [], []
    n_workers = 1 if args.trace else SETUP_SAMPLES
    before = reference.speed(reference.IMPORTS)
    for k in range(n_workers):
        worker = Worker(args, root, out_dir, deadline)
        try:
            wall = worker.ready()
            if k < n_workers - 1:
                worker.finish("exit")
            after = reference.speed(reference.IMPORTS)
        except BaseException:
            worker.close()
            raise
        wall_setups.append(wall)
        setups.append(wall * (before + after) / 2.0)
        before = after
    result = worker.finish("run")

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"workload did not measure {missing}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    record = dict(line, refused=result["refused"], workload=args.workload, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, wall_setup_samples_s=wall_setups,
                  detail=result["detail"],
                  provenance=provenance(root, args.seed, result["detail"]["blas_threads"]))
    path = out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        line = run(args, Path.cwd())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
