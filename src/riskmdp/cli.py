"""Command-line front end: riskmdp solve|verify|sweep --config cfg.json.

Exit codes: 0 success, 2 configuration error (including an invalid model),
3 solver did not converge (results are still written), 4 a requested
certificate is unsatisfied (the report is still written).  A configuration
error names the missing key, the table that holds a bad value, or the
certificate as certificates[i] (type); any other failure is a traceback with
exit 1.  Exit codes 3 and 4 print what failed to stderr.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .certificates import (
    check_l2,
    contraction_certificate,
    doeblin_minorization,
    entropic_envelope_minorization,
    fit_lyapunov,
    invariant_bound_K,
    local_doeblin,
    lyapunov_weight,
    map_minorization_factor,
)
from .mdp import NUMBERS, FiniteMCP, json_value, level_set, validate_mcp
from .models import (
    DiffusionSpec,
    GridSpec,
    PowerCost,
    QuadraticCost,
    TabulatedCost,
    attach_cost,
    builtin_chain,
    diffusion_entropic_weight,
    discretize_diffusion,
)
from .risk import RiskMapSpec
from .solver import (
    SolveConfig,
    check_measure,
    measure_contraction,
    poisson_residual,
    relative_value_iteration,
    trace_to_csv,
)


class ConfigError(Exception):
    pass


class Config(dict):
    """A JSON object of a config file; reading a missing key is a ``ConfigError``."""

    def __missing__(self, key):
        raise ConfigError(f"missing key {key!r}")


@contextlib.contextmanager
def _reading(section: str | None = None):
    """Report the ValueError/TypeError that a value of ``section``, or of a
    top-level key when None, raises as a ``ConfigError``; used as a decorator
    on the functions that read one."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{section}: {e}" if section else str(e)) from e


def load_config(path: str) -> Config:
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_hook=Config)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    with _reading(f"config {path}"):
        return json_value(cfg, dict, "config")


@_reading("model")
def build_model(cfg: dict, base_dir: Path) -> tuple[FiniteMCP, dict]:
    """Construct the model named by the config; returns (model, meta).

    ``meta`` carries the diffusion/grid objects when the model came from a
    discretization, so weight specs like entropic_w1 can be resolved later.
    The model is validated (stochastic rows, finite costs) before it is
    returned; a violation is a ``ConfigError``.
    """
    mcfg = json_value(cfg["model"], dict, "model")
    meta: dict = {}
    if "builtin" in mcfg:
        params = json_value(mcfg.get("params", {}), dict, "params")
        mcp = builtin_chain(json_value(mcfg["builtin"], str, "builtin"),
                            **{k: json_value(v, int, k) for k, v in params.items()})
    elif "path" in mcfg:
        p = Path(json_value(mcfg["path"], str, "path"))
        if not p.is_absolute():
            p = base_dir / p
        try:
            mcp = FiniteMCP.load_json(p)
        except OSError as e:
            raise ConfigError(f"cannot read model {p}: {e}") from e
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad model {p}: {e}") from e
    elif "diffusion" in mcfg:
        dcfg = json_value(mcfg["diffusion"], dict, "diffusion")
        gcfg = json_value(mcfg.get("grid", {}), dict, "grid")
        grid = GridSpec(points=_per_axis(gcfg, "points", 201, int), extent=_per_axis(gcfg, "extent", 5.0, float))
        spec = DiffusionSpec(
            dim=json_value(dcfg["dim"], int, "dim"), A=json_value(dcfg["A"], NUMBERS, "A"),
            actions=json_value(dcfg["actions"], [str], "actions"),
            drift_linear=_entries(dcfg.get("drift_linear", {}), "drift_linear", NUMBERS),
            **{k: _entries(dcfg[k], k, NUMBERS) for k in ("drift", "diffusion")},
            **{k: json_value(dcfg[k], float, k) for k in ("gamma_tilde", "drift_bound", "ellipticity")},
        )
        mcp = discretize_diffusion(spec, grid)
        meta = {"diffusion": spec, "grid": grid}
    else:
        raise ConfigError("model must specify one of: builtin, path, diffusion")
    if "cost" in mcfg:
        mcp = attach_cost(mcp, _cost_form(json_value(mcfg["cost"], dict, "cost"), mcp, meta))
    bad = validate_mcp(mcp).violations
    if bad:
        more = f" (and {len(bad) - 5} more)" if len(bad) > 5 else ""
        raise ConfigError(f"invalid model: {'; '.join(bad[:5])}{more}")
    return mcp, meta


def _per_axis(gcfg: dict, key: str, default, kind):
    """Grid setting ``key``: one ``kind`` value for every axis or a list of one per axis."""
    val, name = gcfg.get(key, default), f"grid.{key}"
    return tuple(json_value(val, [kind], name)) if isinstance(val, list) else json_value(val, kind, name)


def _entries(val, key: str, kind) -> dict:
    """A JSON object of ``kind`` values, entry k read as key.k."""
    return {k: json_value(v, kind, f"{key}.{k}") for k, v in json_value(val, dict, key).items()}


def _cost_form(ccfg: dict, mcp: FiniteMCP, meta: dict):
    form = json_value(ccfg["form"], str, "form")
    if form == "tabulated":
        return TabulatedCost(json_value(ccfg["table"], [NUMBERS], "table"))
    if form == "quadratic":
        return QuadraticCost(c0=json_value(ccfg["c0"], float, "c0"),
                             action_terms=_entries(ccfg.get("action_terms", {}), "action_terms", float))
    if form == "power":
        w1 = _resolve_weight(ccfg["w1"], mcp, meta, "w1")
        return PowerCost(c0=json_value(ccfg["c0"], float, "c0"), q=json_value(ccfg["q"], float, "q"), w1=w1)
    raise ConfigError(f"unknown cost form {form!r}")


def _resolve_weight(wcfg, mcp: FiniteMCP, meta: dict, key: str) -> np.ndarray:
    """Weight vectors in configs, under ``key``: explicit list, named builders, or powers."""
    if isinstance(wcfg, list):
        w = np.asarray(json_value(wcfg, [float], key))
        if w.shape != (mcp.n_states,):
            raise ConfigError("weight vector length != n_states")
        return w
    if wcfg == "zeros":
        return np.zeros(mcp.n_states)
    if wcfg == "coords_sq":
        if mcp.state_coords is None:
            raise ConfigError("coords_sq weight needs state coordinates")
        return np.sum(mcp.state_coords**2, axis=1)
    if isinstance(wcfg, dict) and "entropic_w1" in wcfg:
        sub = json_value(wcfg["entropic_w1"], dict, "entropic_w1")
        if "diffusion" not in meta:
            raise ConfigError("entropic_w1 weight needs a diffusion model")
        gamma, power = json_value(sub["gamma"], float, "gamma"), json_value(sub.get("power", 1.0), float, "power")
        w1_hat, _ = diffusion_entropic_weight(meta["grid"], gamma, meta["diffusion"])
        return (1.0 + w1_hat) ** power
    raise ConfigError(f"cannot resolve weight spec {wcfg!r}")


def _state_set(scfg, mcp: FiniteMCP, meta: dict, key: str) -> np.ndarray:
    """States named under ``key`` by "all", "interior", a list of indices or
    {"level": {"w0": weight, "radius": r}}; the routine that takes them checks them."""
    if isinstance(scfg, list):
        states = np.asarray(json_value(scfg, [int], key), dtype=int)
    elif scfg == "all":
        states = np.arange(mcp.n_states)
    elif scfg == "interior":
        if mcp.state_coords is None:
            raise ConfigError("interior states need state coordinates")
        lim = 0.8 * np.max(np.abs(mcp.state_coords), axis=0)
        states = np.flatnonzero(np.all(np.abs(mcp.state_coords) <= lim + 1e-12, axis=1))
    elif isinstance(scfg, dict) and "level" in scfg:
        sub = json_value(scfg["level"], dict, "level")
        states = level_set(_resolve_weight(sub["w0"], mcp, meta, "w0"), json_value(sub["radius"], float, "radius"))
    else:
        raise ConfigError(f"cannot read state set {scfg!r}: want \"all\", \"interior\", "
                          "a list of state indices or {\"level\": ...}")
    return states


@_reading("solve")
def _solve_config(cfg: dict, n_states: int) -> SolveConfig:
    scfg = json_value(cfg.get("solve", {}), dict, "solve")
    out = SolveConfig(
        tol=json_value(scfg.get("tol", 1e-10), float, "tol"),
        max_iter=json_value(scfg.get("max_iter", 100_000), int, "max_iter"),
        reference_state=json_value(scfg.get("reference_state", 0), int, "reference_state"),
    )
    if out.reference_state >= n_states:
        raise ValueError(f"reference_state {out.reference_state} is not a state of the {n_states}-state model")
    return out


def _prepare(config_path: str, output_dir: str | None):
    """Config, model, model meta, risk map and output directory of a command."""
    cfg = load_config(config_path)
    mcp, meta = build_model(cfg, Path(config_path).resolve().parent)
    with _reading("risk"):
        spec = RiskMapSpec.from_dict(cfg["risk"])
    with _reading():
        out = Path(json_value(cfg.get("output_dir", "."), str, "output_dir") if output_dir is None else output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, mcp, meta, spec, out


def cmd_solve(config_path: str, output_dir: str | None) -> int:
    t0 = time.perf_counter_ns()
    cfg, mcp, _, spec, out = _prepare(config_path, output_dir)
    scfg = _solve_config(cfg, mcp.n_states)
    t1 = time.perf_counter_ns()
    res = relative_value_iteration(mcp, spec, scfg)
    t2 = time.perf_counter_ns()
    residual = poisson_residual(mcp, spec, res.rho, res.h)
    t3 = time.perf_counter_ns()
    result = {"rho": res.rho, "rho_lower": res.rho_lower, "rho_upper": res.rho_upper,
              "policy": res.policy.deterministic.tolist(), "iterations": res.iterations,
              "start_iterations": res.start_iterations, "converged": res.converged, "residual": residual,
              "row_layout": mcp.rows.layout,  # how the model stores its rows
              "timing_s": {"build": (t1 - t0) / 1e9, "rvi": (t2 - t1) / 1e9, "residual": (t3 - t2) / 1e9}}
    with open(out / "result.json", "w") as fh:
        json.dump(result, fh, indent=2)
    trace_to_csv(res.trace, out / "trace.csv")
    if not res.converged:
        print(f"no convergence after {res.iterations} iterations (span {res.trace[-1].span:.3g})", file=sys.stderr)
        return 3
    return 0


# Certificate handlers: (entry, model, risk map, model meta, seed) ->
# (satisfied, constants, worst_witness).  They call the certificate routines
# through this module's names at call time.


def _lyapunov(entry, mcp, spec, meta, seed):
    w0 = _resolve_weight(entry["w0"], mcp, meta, "w0")
    include_cost = json_value(entry.get("include_cost", True), bool, "include_cost")
    grid = None if entry.get("gamma_grid") is None else json_value(entry["gamma_grid"], [float], "gamma_grid")
    states = _state_set(entry.get("states", "all"), mcp, meta, "states")
    target = mcp if include_cost else mcp.with_cost(np.zeros_like(mcp.stacked_cost))
    cert = fit_lyapunov(target, spec, w0, gamma_grid=grid, states=states)
    witness = None if cert.worst_pair is None else {"x": cert.worst_pair[0], "a": cert.worst_pair[1]}
    return cert.satisfied, {"gamma0": cert.gamma0, "K0": cert.K0}, witness


def _doeblin(entry, mcp, spec, meta, seed):
    cert = doeblin_minorization(mcp, _state_set(entry["subset"], mcp, meta, "subset"))
    return cert.satisfied, {"alpha": cert.alpha, "subset_size": len(cert.subset)}, None


def _local_doeblin(entry, mcp, spec, meta, seed):
    cert = local_doeblin(mcp, _state_set(entry["subset"], mcp, meta, "subset"))
    return cert.satisfied, {"lambda_minus": cert.lambda_minus, "lambda_plus": cert.lambda_plus}, None


def _l2(entry, mcp, spec, meta, seed):
    w0 = _resolve_weight(entry["w0"], mcp, meta, "w0")
    K, n_samples = entry.get("K", "coherent"), json_value(entry.get("n_samples", 2000), int, "n_samples")
    # K is a number or names the rule that gives it
    if not isinstance(K, str):
        K = json_value(K, float, "K")
    elif K not in ("coherent", "shortfall", "entropic"):
        raise ConfigError(f"unknown K rule {K!r}")
    if "K0" in entry:
        K0, gamma0 = json_value(entry["K0"], float, "K0"), json_value(entry["gamma0"], float, "gamma0")
        if not 0 < gamma0 < 1:
            raise ValueError(f"gamma0 must be in (0, 1), got {gamma0}")
    else:
        fit = fit_lyapunov(mcp, spec, w0)
        if not fit.satisfied:
            return False, {"error": "drift fit failed"}, None
        K0, gamma0 = fit.K0, fit.gamma0
    B0 = level_set(w0, 2.0 * K0 / (1.0 - gamma0))
    if isinstance(K, str):
        K = float(_invariant_K(K, mcp, spec, K0, B0))
    cert = check_l2(mcp, spec, w0, K0, K, B0, n_samples=n_samples, seed=seed)
    constants = {"K0": K0, "K": K, "min_slack": cert.min_slack, "n_samples": cert.n_samples}
    return cert.passed, constants, cert.worst_witness


def _invariant_K(rule: str, mcp, spec, K0: float, B0) -> float:
    """The invariant radius K of a named rule, from the minorization on B0."""
    if rule == "entropic":
        loc = local_doeblin(mcp, B0)
        return invariant_bound_K("entropic", K0=K0, lambda_minus=loc.lambda_minus, lambda_plus=loc.lambda_plus)
    alpha = doeblin_minorization(mcp, B0).alpha
    if rule == "shortfall":
        if spec.utility is None:
            raise ConfigError("K rule 'shortfall' needs a shortfall risk map")
        return invariant_bound_K("shortfall", K0=K0, alpha=alpha, l=spec.utility.l, L=spec.utility.L)
    # The kernel's common mass, discounted to what the map's own monotone
    # differences retain of it.
    return invariant_bound_K("coherent", K0=K0, alpha=alpha * map_minorization_factor(spec))


def _contraction(entry, mcp, spec, meta, seed):
    # w0 and the measure table are checked here: the certificate's ValueError
    # reads as unsatisfied, and measure_contraction runs only if it holds
    w0 = lyapunov_weight(_resolve_weight(entry["w0"], mcp, meta, "w0"))
    params = {k: json_value(entry[k], float, k) for k in ("gamma", "K_bar", "alpha", "R")}
    if entry.get("alpha0") is not None:
        params["alpha0"] = json_value(entry["alpha0"], float, "alpha0")
    for k, val in params.items():
        if not np.isfinite(val):
            raise ConfigError(f"{k} must be finite, got {val}")
    mcfg = json_value(entry.get("measure", {}), dict, "measure")
    radius = mcfg.get("ball_radius")
    measure = {"n_trials": json_value(mcfg.get("n_trials", 200), int, "n_trials"),
               "ball_radius": None if radius is None else json_value(radius, float, "ball_radius")}
    check_measure(**measure)
    try:
        cert = contraction_certificate(**params, w0=w0)
    except ValueError as e:
        return False, {"error": str(e)}, None
    constants = {"alpha_bar": cert.alpha_bar, "gamma0": cert.gamma0,
                 "gamma1": cert.gamma1, "gamma2": cert.gamma2, "beta": cert.beta}
    if "measure" not in entry:
        return True, constants, None
    stats = measure_contraction(mcp, spec, cert.w_hat, **measure, seed=seed)
    constants["measured_max_ratio"] = stats.max_ratio
    constants["n_pairs"] = stats.n_pairs
    # a NaN ratio fails, and so does a measurement that found no pair to measure
    if not (stats.n_pairs > 0 and stats.max_ratio <= cert.alpha_bar + 1e-9):
        return False, constants, {"measured_max_ratio": stats.max_ratio}
    return True, constants, None


def _envelope_minorization(entry, mcp, spec, meta, seed):
    sub = _state_set(entry["subset"], mcp, meta, "subset")
    K, w = json_value(entry["K"], float, "K"), _resolve_weight(entry["w"], mcp, meta, "w")
    cert = entropic_envelope_minorization(mcp, sub, K, w)
    return cert.satisfied, {"alpha": cert.alpha}, None


_CERTIFICATES = {"lyapunov": _lyapunov, "doeblin": _doeblin, "local_doeblin": _local_doeblin, "l2": _l2,
                 "contraction": _contraction, "envelope_minorization": _envelope_minorization}


def _run_certificate(i: int, entry: dict, mcp: FiniteMCP, spec: RiskMapSpec, meta: dict, seed: int) -> dict:
    kind = entry.get("type")
    t0 = time.perf_counter_ns()
    try:
        if json_value(kind, str, "type") not in _CERTIFICATES:
            raise ConfigError(f"unknown certificate type; want one of {', '.join(_CERTIFICATES)}")
        satisfied, constants, witness = _CERTIFICATES[kind](entry, mcp, spec, meta, seed)
    except (ConfigError, TypeError, ValueError) as e:
        raise ConfigError(f"certificates[{i}] ({kind}): {e}") from e
    return {"kind": kind, "satisfied": satisfied, "constants": constants, "worst_witness": witness,
            "timing_s": (time.perf_counter_ns() - t0) / 1e9}


def cmd_verify(config_path: str, output_dir: str | None, seed: int) -> int:
    cfg, mcp, meta, spec, out = _prepare(config_path, output_dir)
    with _reading():
        entries = json_value(cfg.get("certificates", []), [dict], "certificates")
    report = [_run_certificate(i, e, mcp, spec, meta, seed) for i, e in enumerate(entries)]
    with open(out / "certificates.json", "w") as fh:
        json.dump(report, fh, indent=2)
    bad = [r for r in report if not r["satisfied"]]
    for r in bad:
        print(f"certificate {r['kind']} unsatisfied: {r['constants']}", file=sys.stderr)
    return 4 if bad else 0


@_reading("sweep")
def _sweep_specs(cfg: dict, spec: RiskMapSpec) -> list[RiskMapSpec]:
    """The risk map at each swept lambda; a value the map rejects is a config error."""
    swcfg = json_value(cfg["sweep"], dict, "sweep")
    if json_value(swcfg["param"], str, "param") != "lambda":
        raise ConfigError("sweep needs {'param': 'lambda', 'values': [...]}")
    if spec.kind not in ("entropic", "mean_semideviation"):
        raise ConfigError("lambda sweep needs an entropic or mean_semideviation risk kind")
    return [dataclasses.replace(spec, lam=lam) for lam in json_value(swcfg["values"], [float], "values")]


def cmd_sweep(config_path: str, output_dir: str | None, jobs: int) -> int:
    cfg, mcp, _, spec, out = _prepare(config_path, output_dir)
    scfg = _solve_config(cfg, mcp.n_states)
    specs = _sweep_specs(cfg, spec)
    # every λ of an order-based map starts from the same neutral solve
    v0 = relative_value_iteration(mcp, RiskMapSpec("neutral"), scfg).h if spec.order_based else None
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
        results = list(ex.map(lambda s: relative_value_iteration(mcp, s, scfg, v0), specs))
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "rho", "iterations", "converged"])
        for s, res in zip(specs, results):
            writer.writerow([repr(s.lam), repr(res.rho), res.iterations, res.converged])
    return 3 if any(not r.converged for r in results) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="riskmdp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve", "run relative value iteration and write result.json + trace.csv"),
        ("verify", "evaluate certificate requests and write certificates.json"),
        ("sweep", "solve across a parameter axis and write sweep.csv"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--output", default=None, help="output directory (default: config output_dir or cwd)")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled certificate checks")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel workers for the sweep")
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    handler = {
        "solve": lambda: cmd_solve(args.config, args.output),
        "verify": lambda: cmd_verify(args.config, args.output, args.seed),
        "sweep": lambda: cmd_sweep(args.config, args.output, args.jobs),
    }[args.command]
    try:
        return handler()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
