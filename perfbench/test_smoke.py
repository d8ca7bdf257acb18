"""Smoke self-test of the benchmark harness at toy sizes (a few seconds).

    python3 -m pytest perfbench/test_smoke.py

Runs the ``smoke`` workload (1-D, 21 grid points: a solve per risk kind, a
threaded sweep and three verifies) untraced and traced, and checks that the
gate passes and that every metric is printed with its unit, so the harness
cannot rot unnoticed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

KINDS = ("neutral", "entropic", "density_band", "mean_semideviation", "shortfall")
VERIFY = ("entropic", "mean_semideviation", "density_band")
TAGS = KINDS + ("sweep",) + tuple(f"verify.{k}" for k in VERIFY)

NAMED_END_TO_END = (["setup_s", "peak_rss_mb", "sweep_s"]
                    + [f"solve_s.{k}" for k in KINDS] + [f"verify_s.{k}" for k in VERIFY])
NAMED_PER_LAYER = (
    ["models.discretize_s", "models.attach_cost_s", "models.model_mb", "models.n_states",
     "models.n_rows", "mdp.weighted_seminorm_ms", "mdp.weighted_seminorm_calls",
     "cli.sweep_speedup", "trace.overhead_pct", "process.minor_faults"]
    + [f"{layer}.self_s" for layer in ("models", "mdp", "risk", "solver", "certificates", "cli")]
    + [f"{name}.{t}" for t in TAGS for name in (
        "mdp.weighted_seminorm_share", "risk.risk_values_ms", "risk.risk_values_calls",
        "risk.share", "risk.effective_gbps", "cli.io_s", "trace.coverage")]
    + [f"solver.{name}.{k}" for k in KINDS + ("sweep",)
       for name in ("iterations", "sweep_ms", "reduce_ms", "rvi_self_ms")]
    + [f"solver.{name}.{k}" for k in KINDS for name in ("final_span", "residual_ms")]
    + [f"{name}.{k}" for k in VERIFY for name in (
        "solver.measure_contraction_s", "certificates.fit_lyapunov_s", "certificates.check_l2_s",
        "certificates.check_l2_samples", "certificates.risk_calls", "certificates.minorization_s")]
)


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def _has_units(metrics: dict, names) -> None:
    for name in names:
        assert name in metrics, name
        assert isinstance(metrics[name]["value"], (int, float)), name
        assert metrics[name]["unit"], name


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_and_passes_the_gate(trace):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9, report["ops"]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {d["name"] for d in declared}
    for d in declared:
        assert result["metrics"][d["name"]]["unit"] == d["unit"]
    assert report["seed"] == 7
    _has_units(report["end_to_end"], NAMED_END_TO_END)
    env = report["env"]
    for key in ("python", "numpy", "nproc", "cpu_model", "caches_per_core0", "blas_threads",
                "commit", "src_lines"):
        assert key in env
    if trace:
        _has_units(report["per_layer"], NAMED_PER_LAYER)
        for label, layers in report["op_layer_self"].items():
            # Shares are medians over samples, and the root span also times
            # its own entry and exit; the threaded sweep's layers overlap.
            if not label.startswith("sweep"):
                assert sum(v["share"] for v in layers.values()) == pytest.approx(1.0, abs=0.05), label


def test_fails_without_the_program(tmp_path):
    """Holding only the benchmark's own files, the harness must refuse to run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
