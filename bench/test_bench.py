"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest bench -q

Every workload runs one cycle, injected faults must show as failed or
refused ops, the
emitted metric names must be those of BENCHMARK.json, and a directory
without the program must make run.py fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(ROOT / "src"))

from radext import annulus  # noqa: E402

import reference  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_one_cycle(name, tmp_path):
    wl = WORKLOADS[name](seed=5, workdir=tmp_path)
    tally = worker.measure(wl, wl.op, n_ops=wl.cycle)
    assert tally["attempted"] == wl.cycle
    assert tally["failed"] == 0, tally["problems"]
    metrics, detail = worker.end_to_end(wl, tally, 5, tmp_path)
    assert set(metrics) == END_TO_END - {"setup_s"}
    assert all(np.isfinite(v) for v in metrics.values())
    assert detail["op_samples"] == wl.cycle - tally["refused"]
    assert detail["reference_kernel"] == wl.reference.name and detail["wall_op_p50_ms"] > 0


def test_reference_kernels_call_no_radext():
    kernels = (reference.INTERPRETER, reference.TRIDIAGONAL, reference.BANDED, reference.IMPORTS)
    with Tracer() as tracer:
        for k, kernel in enumerate(kernels):
            assert tracer.op_span(k, reference.speed, kernel) > 0
    # each kernel run is a bare root span, with no radext call under it
    assert [span[0] for span in tracer.spans] == ["op"] * len(kernels)
    assert not tracer.counts


def test_traced_run_reports_every_layer(tmp_path):
    wl = WORKLOADS["oracle_diag"](seed=5, workdir=tmp_path)
    metrics, detail, tally = worker.per_layer(wl, 0.2, 5, tmp_path, tmp_path)
    assert PER_LAYER <= set(metrics)
    assert tally["failed"] == 0
    assert metrics["specfun.k_calls_per_op"] > 0
    assert metrics["annulus.fd_unknowns_per_op"] >= 8001
    # the link map is off this workload's path, so its timing comes from the census
    assert detail["layer_source"]["annulus.g_from_u_ms"] == "census"
    assert metrics["annulus.g_from_u_ms"] > 0
    assert (tmp_path / "spans-oracle_diag-s5.json.gz").is_file()


def test_non_hermitian_link_counts_as_failed(tmp_path, monkeypatch):
    real = annulus.g_from_u

    def broken(extension, r0, scale=None):
        g = real(extension, r0, scale)
        ents = np.array(g.entries)
        ents[0, 1] += 1e-6j
        return annulus.BoundaryConditionMatrix(r0=g.r0, channels=g.channels, entries=ents,
                                               validate=False)

    monkeypatch.setattr(annulus, "g_from_u", broken)
    wl = WORKLOADS["ensemble"](seed=5, workdir=tmp_path)
    tally = worker.measure(wl, wl.op, n_ops=wl.cycle)
    metrics, detail = worker.end_to_end(wl, tally, 5, tmp_path)
    assert (tally["refused"], tally["failed"]) == (0, wl.cycle)
    assert detail["fail_ratio"] == 1.0
    assert metrics["pass_ratio"] == 0.0
    # a wrong answer's latency is not a completed op's
    assert detail["op_samples"] == 0


def test_exit_code_mismatch_counts_as_refused_or_failed(tmp_path):
    wl = WORKLOADS["cli_cold"](seed=5, workdir=tmp_path)
    bad = wl.commands[-1]
    assert bad.code in (2, 3)
    # a documented error code where success was expected is a typed refusal
    wl.commands[-1] = dataclasses.replace(bad, code=0)
    tally = worker.measure(wl, wl.traced_op, n_ops=wl.cycle)
    assert (tally["refused"], tally["failed"]) == (1, 0)
    assert "expected 0" in tally["problems"][0]
    # success where an error was expected is a wrong answer
    wl.commands[-1] = bad
    wl.commands[0] = dataclasses.replace(wl.commands[0], code=2)
    tally = worker.measure(wl, wl.traced_op, n_ops=wl.cycle)
    assert (tally["refused"], tally["failed"]) == (0, 1)


@pytest.mark.parametrize("trace,names", [(0, END_TO_END), (1, PER_LAYER)])
def test_run_emits_the_metrics_of_benchmark_json(trace, names):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "oracle_diag",
                           "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = _last_json_line(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in line["metrics"].items())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ensemble", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
