#!/usr/bin/env python3
"""riskmdp benchmark: time to a certified rho for ``riskmdp solve``, ``sweep``
and ``verify``, plus a traced per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload grid21-allkinds --seed 1 --seconds 35 --trace 0

Every workload is a closed loop with one client: this process calls
``riskmdp.cli.main([...])`` in-process, one command after another.  Only the
threaded ``sweep --jobs 2`` runs more than one thread.  Each command is one
op.  An op fails if it raises, returns a non-zero exit code or its output
fails the correctness gate (convergence, Poisson residual, rho against the
recorded reference and, for entropic solves, against the spectral oracle;
certificates satisfied with their recorded constants).

The run first builds the workload's model several times (``setup_s``), then
cycles through the workload's ops until ``--seconds`` is used up: every op
runs at least once, and an op is started again only if its median so far
still fits in the remaining time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run: its ops alternate traced and untraced samples (the first one traced),
the per-layer metrics come from the traced samples and the tracing overhead
from comparing the two.  Spans are written to
``.bench_build/perfbench/trace-<workload>.jsonl``.

The last stdout line is the result ``{"correct", "attempted", "failed",
"metrics"}``.  Its metrics are the same for every workload:

- untraced: ``setup_s`` (median model build), ``total_s`` (sum over the
  workload's commands of each one's median time: one pass),
  ``cmd_geomean_s`` (geometric mean of those medians, so a cheap command
  weighs as much as an expensive one) and ``peak_rss_mb`` (process
  high-water mark).  The three times are in reference-kernel seconds (see
  ``ReferenceKernel``), which cancels most of the host's speed drift; the
  report also gives the raw wall-clock medians as ``wall.*``;
- traced: self seconds per layer over one pass, risk-kernel and seminorm
  call counts, computed kernel bandwidth, tracing overhead and minor page
  faults.

The line before it is a JSON report: the environment, each op's samples and
failures, and the metrics named per command and per risk kind
(``solve_s.<kind>``, ``sweep_s``, ``verify_s.<kind>``, ``risk.share.<kind>``,
...).  Byte and bandwidth figures are computed from array sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer, profile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

TOL = 1e-9
ORACLE_TOL = 1e-8
# Certificate constants that do not depend on the seed are compared with the
# recorded ones to this relative tolerance (room for summation-order changes).
CONST_RTOL = 1e-9
SEED_DEPENDENT = {"min_slack", "measured_max_ratio"}
SWEEP_JOBS = 2
SWEEP_LAMBDAS = (0.25, 0.5, 0.75, 1.0)
SETUP_BUDGET_S = 1.5
LAYERS = ("models", "mdp", "risk", "solver", "certificates", "cli")

RISK = {
    "neutral": {"kind": "neutral"},
    "entropic": {"kind": "entropic", "lambda": 1.0},
    "density_band": {"kind": "density_band", "band": [0.5, 1.5]},
    "mean_semideviation": {"kind": "mean_semideviation", "lambda": 0.5, "r": 2},
    "shortfall": {"kind": "shortfall", "utility": {"breakpoints": [0.0], "slopes": [0.5, 2.0]}},
}
KINDS = tuple(RISK)
VERIFY_KINDS = ("entropic", "mean_semideviation", "density_band")


def diffusion_model(dim: int, points: int) -> dict:
    """Model table of a config: x' = 0.5 x +- 0.5 e1 + W on [-5, 5]^dim."""
    eye = np.eye(dim)
    pad = [0.0] * (dim - 1)
    return {
        "diffusion": {
            "dim": dim, "A": (0.5 * eye).tolist(), "actions": ["left", "right"],
            "drift": {"left": [-0.5] + pad, "right": [0.5] + pad},
            "diffusion": {"left": eye.tolist(), "right": eye.tolist()},
            "gamma_tilde": 0.25, "drift_bound": 0.2500001, "ellipticity": 1.0,
        },
        "grid": {"points": points, "extent": 5.0},
        "cost": {"form": "power", "c0": 0.1, "q": 0.5, "w1": {"entropic_w1": {"gamma": 0.5}}},
    }


def certificates(kind: str) -> list[dict]:
    level = {"level": {"w0": "coords_sq", "radius": 2.0}}
    w1 = {"entropic_w1": {"gamma": 0.5}}
    return [
        {"type": "lyapunov", "w0": w1, "include_cost": True, "states": "interior"},
        {"type": "doeblin", "subset": level},
        {"type": "local_doeblin", "subset": level},
        {"type": "envelope_minorization", "subset": level, "K": 1.0, "w": "coords_sq"},
        {"type": "l2", "w0": w1, "K": "entropic" if kind == "entropic" else "coherent",
         "n_samples": 2000},
        {"type": "contraction", "gamma": 0.5, "K_bar": 1.0, "alpha": 0.5, "R": 5.0, "w0": w1,
         "measure": {"n_trials": 200}},
    ]


@dataclass(frozen=True)
class Op:
    command: str  # solve | sweep | verify
    kind: str
    config: dict

    @property
    def label(self) -> str:
        return f"{self.command}.{self.kind}"

    @property
    def tag(self) -> str:
        """Suffix of this op's per-kind metric names."""
        return {"solve": self.kind, "sweep": "sweep"}.get(self.command, self.label)

    @property
    def e2e_name(self) -> str:
        return "sweep_s" if self.command == "sweep" else f"{self.command}_s.{self.kind}"


def _op(command: str, model: dict, kind: str, **extra) -> Op:
    return Op(command, kind, {"model": model, "risk": RISK[kind], "solve": {"tol": TOL}, **extra})


def workload(name: str) -> tuple[dict, list[Op]]:
    """The model table and the op list of a workload."""
    if name == "grid41-solve":
        m = diffusion_model(2, 41)
        return m, [_op("solve", m, k) for k in ("neutral", "entropic", "mean_semideviation")] + [
            _op("sweep", m, "entropic", sweep={"param": "lambda", "values": list(SWEEP_LAMBDAS)})]
    if name == "grid21-allkinds":
        m = diffusion_model(2, 21)
        return m, [_op("solve", m, k) for k in KINDS]
    if name == "grid1d-verify":
        m = diffusion_model(1, 201)
        return m, [_op("verify", m, k, certificates=certificates(k)) for k in VERIFY_KINDS]
    if name == "smoke":
        # Toy sizes that still reach every metric: five solves, a sweep and
        # the three verifies.
        m = diffusion_model(1, 21)
        return m, ([_op("solve", m, k) for k in KINDS]
                   + [_op("sweep", m, "entropic", sweep={"param": "lambda", "values": [0.5, 1.0]})]
                   + [_op("verify", m, k, certificates=certificates(k)) for k in VERIFY_KINDS])
    raise SystemExit(f"perfbench: unknown workload {name!r}")


WORKLOADS = ("grid41-solve", "grid21-allkinds", "grid1d-verify", "smoke")


# ---------------------------------------------------------------------------
# Program under test
# ---------------------------------------------------------------------------


def load_program():
    """Import riskmdp from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import riskmdp.certificates
        import riskmdp.cli
        import riskmdp.mdp
        import riskmdp.oracles
        import riskmdp.solver
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import riskmdp from {SRC}: {e}")
    if not Path(riskmdp.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: riskmdp was imported from {riskmdp.cli.__file__}, not {SRC}")
    return riskmdp


def plan_tracing(riskmdp) -> Tracer:
    """The public names each layer is entered through, as looked up by callers."""
    cli, solver, certs, mdp = riskmdp.cli, riskmdp.solver, riskmdp.certificates, riskmdp.mdp
    tr = Tracer()

    def kernel_bytes(args, kwargs):
        """Computed bytes a risk_values(spec, v, rows) call reads and writes."""
        bound = {**dict(zip(("spec", "v", "rows"), args)), **kwargs}
        if "v" not in bound or "rows" not in bound:
            return {}
        rows, v = np.asarray(bound["rows"]), np.asarray(bound["v"])
        return {"bytes": rows.nbytes + v.nbytes + 8 * (rows.shape[0] if rows.ndim == 2 else 1)}

    tr.add(cli, "build_model", "cli")
    for name in ("discretize_diffusion", "attach_cost", "diffusion_entropic_weight"):
        tr.add(cli, name, "models")
    tr.add(cli, "level_set", "mdp")
    for name in ("relative_value_iteration", "poisson_residual", "measure_contraction"):
        tr.add(cli, name, "solver")
    for name in ("fit_lyapunov", "doeblin_minorization", "local_doeblin",
                 "entropic_envelope_minorization", "contraction_certificate", "invariant_bound_K"):
        tr.add(cli, name, "certificates")
    tr.add(cli, "check_l2", "certificates", on_return=lambda out: {"samples": out.n_samples})
    tr.add(solver, "bellman_F", "solver")
    tr.add(solver, "apply_risk_policy", "solver")
    tr.add(solver, "weighted_seminorm", "mdp")
    tr.add(solver, "risk_values", "risk", on_call=kernel_bytes)
    tr.add(certs, "risk_values", "risk", on_call=kernel_bytes)
    for name in ("stacked_transition", "stacked_cost", "row_offsets", "with_cost"):
        tr.add(mdp.FiniteMCP, name, "mdp")
    return tr


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


class Gate:
    """Checks one op's exit code and output files; returns (ok, why, facts)."""

    def __init__(self, riskmdp, reference: dict):
        self.riskmdp = riskmdp
        self.reference = reference
        self._oracle: dict[tuple, float] = {}

    def check(self, op: Op, rc: int, out: Path) -> tuple[bool, str, dict]:
        if rc != 0:
            return False, f"exit code {rc}", {}
        ref = self.reference.get(op.label)
        if ref is None:
            return False, "no recorded reference", {}
        return getattr(self, f"_check_{op.command}")(op, out, ref)

    def _check_solve(self, op: Op, out: Path, ref: dict):
        res = json.loads((out / "result.json").read_text())
        with open(out / "trace.csv") as fh:
            last = fh.read().strip().splitlines()[-1].split(",")
        facts = {"iterations": res["iterations"], "final_span": float(last[1]), "rho": res["rho"]}
        if not res["converged"]:
            return False, "not converged", facts
        if not res["residual"] <= 10 * TOL:
            return False, f"residual {res['residual']:.3e} > 10 tol", facts
        if abs(res["rho"] - ref["rho"]) > TOL:
            return False, f"rho {res['rho']!r} differs from reference {ref['rho']!r}", facts
        if op.kind == "entropic":
            oracle = self._entropic_oracle(op, tuple(res["policy"]))
            if abs(res["rho"] - oracle) > ORACLE_TOL:
                return False, f"rho {res['rho']!r} differs from spectral oracle {oracle!r}", facts
        return True, "", facts

    def _entropic_oracle(self, op: Op, policy: tuple) -> float:
        key = (op.label, policy)
        if key not in self._oracle:
            rm = self.riskmdp
            mcp, _ = rm.cli.build_model(op.config, ROOT)
            P, c = rm.mdp.policy_transition_and_cost(mcp, rm.mdp.PolicyVector.det(policy))
            del mcp
            self._oracle[key] = rm.oracles.entropic_spectral_rho(P, c, op.config["risk"]["lambda"]).rho
        return self._oracle[key]

    def _check_sweep(self, op: Op, out: Path, ref: dict):
        with open(out / "sweep.csv") as fh:
            rows = [line.split(",") for line in fh.read().strip().splitlines()[1:]]
        values = [float(r[0]) for r in rows]
        rhos = [float(r[1]) for r in rows]
        facts = {"iterations": sum(int(r[2]) for r in rows)}
        if values != [float(v) for v in op.config["sweep"]["values"]]:
            return False, f"sweep rows {values} do not match the requested values", facts
        if not all(r[3].strip() == "True" for r in rows):
            return False, "a sweep row did not converge", facts
        bad = [v for v, r, r0 in zip(values, rhos, ref["rho"]) if abs(r - r0) > TOL]
        if bad:
            return False, f"sweep rho differs from reference at lambda {bad}", facts
        return True, "", facts

    def _check_verify(self, op: Op, out: Path, ref: dict):
        report = json.loads((out / "certificates.json").read_text())
        facts = {}
        if [c["kind"] for c in report] != [c["kind"] for c in ref["certificates"]]:
            return False, "certificate list differs from the request", facts
        for got, want in zip(report, ref["certificates"]):
            if not got["satisfied"]:
                return False, f"{got['kind']} unsatisfied: {got['constants']}", facts
            for k, v in want["constants"].items():
                g = got["constants"].get(k)
                if g is None or not math.isclose(g, v, rel_tol=CONST_RTOL):
                    return False, f"{got['kind']} constant {k} = {g!r}, recorded {v!r}", facts
            if got["kind"] == "contraction":
                ratio = got["constants"]["measured_max_ratio"]
                facts["measured_max_ratio"] = ratio
                if not ratio <= got["constants"]["alpha_bar"]:
                    return False, f"measured ratio {ratio} > alpha_bar", facts
            if got["kind"] == "l2":
                facts["l2_min_slack"] = got["constants"]["min_slack"]
        return True, "", facts


def seed_independent(report: list[dict]) -> list[dict]:
    """Certificate kinds and constants the gate compares across seeds."""
    return [{"kind": c["kind"],
             "constants": {k: v for k, v in c["constants"].items() if k not in SEED_DEPENDENT}}
            for c in report]


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


class ReferenceKernel:
    """A fixed numpy kernel timed just before every timed call.

    Host speed on a shared machine drifts by tens of percent within minutes,
    and all ops of a run drift together.  The end-to-end times are each
    call's wall time divided by this kernel's time next to it, times
    ``SCALE_S``: seconds on a host where the kernel takes ``SCALE_S``.  The
    mix (elementwise exp/log, a row-wise argsort, a piecewise-linear
    evaluation on fresh arrays) follows the risk kernels' own operations.
    Its arrays add a constant 15 MB or so to ``peak_rss_mb``.
    """

    SCALE_S = 0.03

    def __init__(self) -> None:
        rng = np.random.default_rng(20140313)
        self.rows = rng.random((882, 441))
        self.x = rng.random(400_000)
        self.out = np.empty_like(self.x)
        self.knot = np.array([0.0])

    def __call__(self) -> float:
        t0 = time.perf_counter_ns()
        np.exp(self.x, out=self.out)
        np.log(self.out, out=self.out)
        np.argsort(self.rows, axis=1)
        d = self.rows - 0.5
        seg = np.searchsorted(self.knot, d)
        np.where(seg > 0, 2.0 * d, 0.5 * d).sum(axis=1)
        return (time.perf_counter_ns() - t0) / 1e9


@dataclass
class Sample:
    wall_s: float
    ok: bool
    why: str
    traced: bool
    profile: dict | None
    facts: dict
    minor_faults: int = 0
    ref_s: float = 0.0


def write_configs(ops: list[Op], work: Path) -> dict[str, Path]:
    paths = {}
    for op in ops:
        d = work / op.label
        d.mkdir(parents=True, exist_ok=True)
        paths[op.label] = d / "config.json"
        paths[op.label].write_text(json.dumps(op.config))
    return paths


def run_op(riskmdp, op: Op, cfg_path: Path, seed: int, around=contextlib.nullcontext()) -> tuple[int, float]:
    """One command; ``around`` encloses exactly the timed ``cli.main`` call."""
    out = cfg_path.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [op.command, "--config", str(cfg_path), "--output", str(out), "--seed", str(seed)]
    if op.command == "sweep":
        argv += ["--jobs", str(SWEEP_JOBS)]
    with around:
        t0 = time.perf_counter_ns()
        rc = riskmdp.cli.main(argv)
        t1 = time.perf_counter_ns()
    return rc, (t1 - t0) / 1e9


def measure_setup(riskmdp, model: dict, kernel: ReferenceKernel) -> tuple[list[tuple[float, float]], dict]:
    """``cli.build_model`` plus the first access of the stacked views,
    repeated 3..100 times within about ``SETUP_BUDGET_S``: (wall, kernel) pairs."""
    times: list[tuple[float, float]] = []
    stats: dict = {}
    while len(times) < 3 or (sum(t for t, _ in times) < SETUP_BUDGET_S and len(times) < 100):
        gc.collect()
        ref_s = kernel()
        t0 = time.perf_counter_ns()
        mcp, _ = riskmdp.cli.build_model({"model": model}, ROOT)
        stacked = mcp.stacked_transition
        mcp.stacked_cost, mcp.row_offsets
        times.append(((time.perf_counter_ns() - t0) / 1e9, ref_s))
        stats = {"n_states": mcp.n_states, "n_rows": stacked.shape[0],
                 "model_bytes": sum(t.nbytes for t in mcp.transition) + stacked.nbytes}
        del mcp, stacked
    return times, stats


def run_workload(riskmdp, ops: list[Op], seconds: float, seed: int, trace: bool, tracer: Tracer | None,
                 gate: Gate, paths: dict[str, Path], kernel: ReferenceKernel) -> dict[str, list[Sample]]:
    samples: dict[str, list[Sample]] = {op.label: [] for op in ops}
    deadline = time.perf_counter() + seconds
    op_ids = itertools.count()

    def one(op: Op, traced: bool) -> None:
        gc.collect()
        ref_s = kernel()
        op_id = next(op_ids)
        prof = None
        t0 = time.perf_counter()
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            if traced:
                with tracer.installed():
                    rc, wall = run_op(riskmdp, op, paths[op.label], seed,
                                      tracer.op(op_id, f"cli.{op.command}"))
                prof = {**profile(tracer.op_spans(op_id)), "harness_wall_ns": wall * 1e9}
            else:
                rc, wall = run_op(riskmdp, op, paths[op.label], seed)
        except Exception as e:  # an op that raises is a failed op, not a crashed run
            samples[op.label].append(Sample(time.perf_counter() - t0, False,
                                            f"raised {type(e).__name__}: {e}", traced, None, {},
                                            ref_s=ref_s))
            return
        try:
            ok, why, facts = gate.check(op, rc, paths[op.label].parent / "out")
        except (OSError, ValueError, KeyError, IndexError) as e:
            ok, why, facts = False, f"unreadable output: {type(e).__name__}: {e}", {}
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
        samples[op.label].append(Sample(wall, ok, why, traced, prof, facts, faults, ref_s))

    for op in ops:  # every op at least once; a traced run starts traced
        one(op, trace)
    while True:
        started = False
        for op in ops:
            done = samples[op.label]
            est = statistics.median(s.wall_s for s in done)
            if time.perf_counter() + est <= deadline:
                one(op, trace and len(done) % 2 == 0)
                started = True
        if not started:
            break
    if trace and not any(not s.traced for v in samples.values() for s in v):
        # The overhead needs one untraced sample: take the cheapest op.
        cheapest = min(ops, key=lambda op: statistics.median(s.wall_s for s in samples[op.label]))
        one(cheapest, False)
    return samples


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def median(xs) -> float:
    return float(statistics.median(xs))


def m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_table(ops: list[Op], samples: dict[str, list[Sample]]) -> list[dict]:
    rows = []
    for op in ops:
        walls = sorted(s.wall_s for s in samples[op.label] if not s.traced)
        tw = sorted(s.wall_s for s in samples[op.label] if s.traced)
        rows.append({
            "op": op.label, "untraced_samples": len(walls), "traced_samples": len(tw),
            "median_s": median(walls) if walls else None,
            "min_s": walls[0] if walls else None, "max_s": walls[-1] if walls else None,
            "traced_median_s": median(tw) if tw else None,
            "minor_faults_median": median(s.minor_faults for s in samples[op.label]),
            "failed": sum(not s.ok for s in samples[op.label]),
            "failures": sorted({s.why for s in samples[op.label] if not s.ok}),
            "gate_facts_last": samples[op.label][-1].facts,
        })
    return rows


def op_medians(ops, samples) -> dict[str, float]:
    """Median wall time per op over its untraced samples (all of them when
    it has none)."""
    out = {}
    for op in ops:
        walls = [s.wall_s for s in samples[op.label] if not s.traced]
        out[op.label] = median(walls or [s.wall_s for s in samples[op.label]])
    return out


def _geomean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def end_to_end(ops, samples, setup_times) -> tuple[dict, dict]:
    """(contract metrics, named metrics per command).

    Times are scaled by the reference kernel (see ``ReferenceKernel``); the
    named metrics also give the raw wall-clock medians as ``wall.*``.
    """
    scale = ReferenceKernel.SCALE_S
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = scale * median(t / r for t, r in setup_times)
    ref = {}
    for op in ops:
        done = [s for s in samples[op.label] if not s.traced] or samples[op.label]
        ref[op.label] = scale * median(s.wall_s / s.ref_s for s in done)
    wall = op_medians(ops, samples)
    contract = {
        "setup_s": m(setup, "s"),
        "total_s": m(sum(ref.values()), "s"),
        "cmd_geomean_s": m(_geomean(ref.values()), "s"),
        "peak_rss_mb": m(peak_mb, "MB"),
    }
    named = {**contract,
             "wall.setup_s": m(median(t for t, _ in setup_times), "s"),
             "wall.total_s": m(sum(wall.values()), "s"),
             "wall.cmd_geomean_s": m(_geomean(wall.values()), "s"),
             "reference_kernel_s": m(median(s.ref_s for v in samples.values() for s in v), "s")}
    for op in ops:
        named[op.e2e_name] = m(ref[op.label], "s")
        named[f"wall.{op.e2e_name}"] = m(wall[op.label], "s")
    return contract, named


def layer_profile(samples: list[Sample]) -> dict[str, float]:
    """Median over an op's traced samples of each profiled quantity."""
    profs = [s.profile for s in samples if s.traced and s.profile]
    keys = set().union(*profs) if profs else set()
    return {k: median(p.get(k, 0.0) for p in profs) for k in keys}


def per_layer(ops, samples, model_stats) -> tuple[dict, dict, dict]:
    """(contract metrics, named metrics per layer and kind, each op's layer self times)."""
    profs = {op.label: layer_profile(samples[op.label]) for op in ops}
    ms, s_ = 1e-6, 1e-9
    named: dict = {
        "models.model_mb": m(model_stats["model_bytes"] / 1e6, "MB_computed"),
        "models.n_states": m(model_stats["n_states"], "count"),
        "models.n_rows": m(model_stats["n_rows"], "count"),
    }
    per_op = [p for p in profs.values() if p]
    named["models.discretize_s"] = m(median(p.get("total_ns:models.discretize_diffusion", 0) for p in per_op) * s_, "s")
    named["models.attach_cost_s"] = m(median(p.get("total_ns:models.attach_cost", 0) for p in per_op) * s_, "s")
    sn_calls = sum(p.get("calls:mdp.weighted_seminorm", 0) for p in per_op)
    sn_ns = sum(p.get("total_ns:mdp.weighted_seminorm", 0) for p in per_op)
    named["mdp.weighted_seminorm_ms"] = m(sn_ns * ms / max(sn_calls, 1), "ms")
    named["mdp.weighted_seminorm_calls"] = m(sn_calls, "count")
    for op in ops:
        p, t = profs[op.label], op.tag
        wall = p.get("wall_ns", 0) or 1
        calls = p.get("calls:risk.risk_values", 0)
        r_ns = p.get("total_ns:risk.risk_values", 0)
        named[f"mdp.weighted_seminorm_share.{t}"] = m(p.get("total_ns:mdp.weighted_seminorm", 0) / wall, "ratio")
        named[f"risk.risk_values_ms.{t}"] = m(r_ns * ms / max(calls, 1), "ms")
        named[f"risk.risk_values_calls.{t}"] = m(calls, "count")
        named[f"risk.share.{t}"] = m(r_ns / wall, "ratio")
        named[f"risk.effective_gbps.{t}"] = m(p.get("bytes:risk.risk_values", 0) / max(r_ns, 1), "GB/s_computed")
        named[f"cli.io_s.{t}"] = m(p.get(f"self_ns:cli.{op.command}", 0) * s_, "s")
        named[f"trace.coverage.{t}"] = m(sum(v for k, v in p.items() if k.startswith("layer_self_ns:"))
                                         / (p.get("harness_wall_ns", 0) or 1), "ratio")
        facts = next((s.facts for s in samples[op.label] if s.facts), {})
        if op.command in ("solve", "sweep"):
            f_calls = p.get("calls:solver.bellman_F", 0)
            named[f"solver.iterations.{t}"] = m(facts.get("iterations"), "count")
            named[f"solver.sweep_ms.{t}"] = m(p.get("total_ns:solver.bellman_F", 0) * ms / max(f_calls, 1), "ms")
            named[f"solver.reduce_ms.{t}"] = m(p.get("self_ns:solver.bellman_F", 0) * ms / max(f_calls, 1), "ms")
            named[f"solver.rvi_self_ms.{t}"] = m(p.get("self_ns:solver.relative_value_iteration", 0) * ms, "ms")
        if op.command == "solve":
            named[f"solver.final_span.{t}"] = m(facts.get("final_span"), "span")
            named[f"solver.residual_ms.{t}"] = m(p.get("total_ns:solver.poisson_residual", 0) * ms, "ms")
        if op.command == "sweep":
            named["cli.sweep_speedup"] = m(p.get("total_ns:solver.relative_value_iteration", 0) / wall,
                                           f"ratio_base_{len(op.config['sweep']['values'])}solves_{SWEEP_JOBS}jobs")
        if op.command == "verify":
            named[f"solver.measure_contraction_s.{op.kind}"] = m(p.get("total_ns:solver.measure_contraction", 0) * s_, "s")
            named[f"certificates.fit_lyapunov_s.{op.kind}"] = m(p.get("total_ns:certificates.fit_lyapunov", 0) * s_, "s")
            named[f"certificates.check_l2_s.{op.kind}"] = m(p.get("total_ns:certificates.check_l2", 0) * s_, "s")
            named[f"certificates.check_l2_samples.{op.kind}"] = m(p.get("samples:certificates.check_l2", 0), "count")
            named[f"certificates.risk_calls.{op.kind}"] = m(p.get("cert_calls:risk.risk_values", 0), "count")
            named[f"certificates.minorization_s.{op.kind}"] = m(sum(
                p.get(f"total_ns:certificates.{n}", 0)
                for n in ("doeblin_minorization", "local_doeblin", "entropic_envelope_minorization")) * s_, "s")

    op_layers = {op.label: {lay: {"self_s": profs[op.label].get(f"layer_self_ns:{lay}", 0) * s_,
                                  "share": profs[op.label].get(f"layer_self_ns:{lay}", 0)
                                  / (profs[op.label].get("harness_wall_ns", 0) or 1)}
                            for lay in LAYERS}
                 for op in ops if profs[op.label]}
    layer = {lay: sum(p.get(f"layer_self_ns:{lay}", 0) for p in per_op) * s_
             for lay in LAYERS}
    for lay, v in layer.items():
        named[f"{lay}.self_s"] = m(v, "s")
    r_calls = sum(p.get("calls:risk.risk_values", 0) for p in per_op)
    r_ns = sum(p.get("total_ns:risk.risk_values", 0) for p in per_op)
    r_bytes = sum(p.get("bytes:risk.risk_values", 0) for p in per_op)
    # Overhead: traced against untraced samples of the same ops, in
    # reference-kernel units.  Each op's first sample runs traced on a cold
    # allocator, so it is left out wherever later samples still pair up.
    def pairs(skip: int) -> dict[str, list[Sample]]:
        pools = {op.label: samples[op.label][skip:] for op in ops}
        return {k: v for k, v in pools.items()
                if any(s.traced for s in v) and any(not s.traced for s in v)}

    pools = pairs(1) or pairs(0)

    def rel(v: list[Sample], traced: bool) -> float:
        return median(s.wall_s / s.ref_s for s in v if s.traced == traced)

    overhead = 100.0 * (sum(rel(v, True) for v in pools.values())
                        / sum(rel(v, False) for v in pools.values()) - 1.0)
    # Page faults of the allocator returning memory to the OS and taking it
    # back; they cost a large share of some ops under the default allocator.
    named["process.minor_faults"] = m(sum(median(s.minor_faults for s in samples[op.label]) for op in ops),
                                      "count")
    named["trace.overhead_pct"] = m(overhead, "%")
    named["trace.overhead_base_ops"] = m(len(pools), "count")
    named["trace.overhead_first_samples_used"] = m(int(not pairs(1)), "count")
    contract = {
        **{f"{lay}.self_s": named[f"{lay}.self_s"] for lay in ("models", "mdp", "risk", "solver", "cli")},
        "risk.calls": m(r_calls, "count"),
        "mdp.seminorm_calls": m(sn_calls, "count"),
        "risk.computed_gbps": m(r_bytes / max(r_ns, 1), "GB/s"),
        "trace.overhead_pct": named["trace.overhead_pct"],
        "process.minor_faults": named["process.minor_faults"],
    }
    return contract, named, op_layers


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def env_block() -> dict:
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), None)
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        level, size, kind = (_read(idx / f) for f in ("level", "size", "type"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    head = _read(ROOT / ".git" / "HEAD")
    commit = None
    if head is not None:
        head = head.strip()
        commit = (_read(ROOT / ".git" / head[5:]) or head).strip() if head.startswith("ref: ") else head
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_model": model, "caches_per_core0": caches,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_note": "left at the user default (unset means the BLAS library decides)",
        "commit": commit, "src_lines": src_lines,
        "bytes_note": "MB_computed and GB/s_computed come from array sizes, not from measured "
                      "memory traffic; the grid41 kernel (45 MB) fits in L3, so they are no "
                      "DRAM-bandwidth figure",
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    riskmdp = load_program()
    reference = json.loads(REFERENCE.read_text())
    model, ops = workload(args.workload)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        paths = write_configs(ops, work)
        gate = Gate(riskmdp, reference.get(args.workload, {}))
        tracer = plan_tracing(riskmdp) if args.trace else None
        kernel = ReferenceKernel()
        setup_times, model_stats = measure_setup(riskmdp, model, kernel)
        samples = run_workload(riskmdp, ops, args.seconds, args.seed, bool(args.trace), tracer, gate,
                               paths, kernel)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(v) for v in samples.values())
    failed = sum(not s.ok for v in samples.values() for s in v)
    contract, named = end_to_end(ops, samples, setup_times)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "closed_loop_clients": 1, "env": env_block(),
              "setup_samples": len(setup_times), "ops": op_table(ops, samples),
              "end_to_end": named}
    if args.trace:
        contract, report["per_layer"], report["op_layer_self"] = per_layer(ops, samples, model_stats)
        report["absent_wrapped_names"] = tracer.absent
        tracer.write(WORK / f"trace-{args.workload}.jsonl")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": contract}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
