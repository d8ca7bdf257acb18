"""Command-line front end: riskmdp solve|verify|sweep --config cfg.json.

Exit codes: 0 success, 2 configuration error (including an invalid model),
3 solver did not converge (results are still written), 4 a requested
certificate is unsatisfied (the report is still written).  A configuration
error names the missing key, the table that holds a bad value, or the
certificate as certificates[i] (type); any other failure is a traceback with
exit 1.  Set RISKMDP_LOG=error|info|debug for verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import json
import logging
import os
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
    map_minorization_factor,
)
from .mdp import FiniteMCP, level_set, validate_mcp
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
    measure_contraction,
    poisson_residual,
    relative_value_iteration,
    trace_to_csv,
)

log = logging.getLogger("riskmdp")


class ConfigError(Exception):
    pass


class Config(dict):
    """A JSON object of a config file; reading a missing key is a ``ConfigError``."""

    def __missing__(self, key):
        raise ConfigError(f"missing key {key!r}")


@contextlib.contextmanager
def _reading(section: str):
    """Report the ValueError/TypeError that a value of ``section`` raises as a
    ``ConfigError``; used as a decorator on the functions that read one."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{section}: {e}") from e


def _table(cfg: dict, key: str, default=None) -> dict:
    """The JSON object under ``key``; ``default`` when given and the key is absent."""
    val = cfg[key] if default is None else cfg.get(key, default)
    if not isinstance(val, dict):
        raise ConfigError(f"{key!r} must be a JSON object")
    return val


def _whole(cfg: dict, key: str, default: int | None = None) -> int:
    """The integer under ``key``: a JSON number with no fractional part, so
    2000 and 2000.0 pass and 2.5, "10" and true are a ``ConfigError``."""
    val = cfg[key] if default is None else cfg.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not float(val).is_integer():
        raise ConfigError(f"{key!r} must be a whole number, got {val!r}")
    return int(val)


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("RISKMDP_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def load_config(path: str) -> Config:
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_hook=Config)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


@_reading("model")
def build_model(cfg: dict, base_dir: Path) -> tuple[FiniteMCP, dict]:
    """Construct the model named by the config; returns (model, meta).

    ``meta`` carries the diffusion/grid objects when the model came from a
    discretization, so weight specs like entropic_w1 can be resolved later.
    The model is validated (stochastic rows, finite costs) before it is
    returned; a violation is a ``ConfigError``.
    """
    mcfg = _table(cfg, "model")
    meta: dict = {}
    if "builtin" in mcfg:
        params = _table(mcfg, "params", {})
        mcp = builtin_chain(mcfg["builtin"], **{k: _whole(params, k) for k in params})
    elif "path" in mcfg:
        p = Path(mcfg["path"])
        if not p.is_absolute():
            p = base_dir / p
        try:
            mcp = FiniteMCP.load_json(p)
        except OSError as e:
            raise ConfigError(f"cannot read model {p}: {e}") from e
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad model {p}: {e}") from e
    elif "diffusion" in mcfg:
        dcfg = _table(mcfg, "diffusion")
        gcfg = _table(mcfg, "grid", {})
        grid = GridSpec(points=_as_tuple_or_scalar(gcfg.get("points", 201)),
                        extent=_as_tuple_or_scalar(gcfg.get("extent", 5.0)))
        spec = DiffusionSpec(
            dim=_whole(dcfg, "dim"),
            A=np.asarray(dcfg["A"], dtype=float),
            actions=list(dcfg["actions"]),
            drift=_arrays(dcfg, "drift"),
            diffusion=_arrays(dcfg, "diffusion"),
            gamma_tilde=float(dcfg["gamma_tilde"]),
            drift_bound=float(dcfg["drift_bound"]),
            ellipticity=float(dcfg["ellipticity"]),
            drift_linear=_arrays(dcfg, "drift_linear", {}),
        )
        mcp = discretize_diffusion(spec, grid)
        meta = {"diffusion": spec, "grid": grid}
    else:
        raise ConfigError("model must specify one of: builtin, path, diffusion")
    if "cost" in mcfg:
        mcp = attach_cost(mcp, _cost_form(_table(mcfg, "cost"), mcp, meta))
    bad = validate_mcp(mcp).violations
    if bad:
        more = f" (and {len(bad) - 5} more)" if len(bad) > 5 else ""
        raise ConfigError(f"invalid model: {'; '.join(bad[:5])}{more}")
    return mcp, meta


def _as_tuple_or_scalar(v):
    return tuple(v) if isinstance(v, list) else v


def _arrays(cfg: dict, key: str, default=None) -> dict[str, np.ndarray]:
    return {k: np.asarray(v, dtype=float) for k, v in _table(cfg, key, default).items()}


def _cost_form(ccfg: dict, mcp: FiniteMCP, meta: dict):
    form = ccfg.get("form")
    if form == "tabulated":
        return TabulatedCost(ccfg["table"])
    if form == "quadratic":
        return QuadraticCost(c0=float(ccfg["c0"]), action_terms=ccfg.get("action_terms"))
    if form == "power":
        w1 = _resolve_weight(ccfg["w1"], mcp, meta)
        return PowerCost(c0=float(ccfg["c0"]), q=float(ccfg["q"]), w1=w1)
    raise ConfigError(f"unknown cost form {form!r}")


def _resolve_weight(wcfg, mcp: FiniteMCP, meta: dict) -> np.ndarray:
    """Weight vectors in configs: explicit list, named builders, or powers."""
    if isinstance(wcfg, list):
        w = np.asarray(wcfg, dtype=float)
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
        sub = _table(wcfg, "entropic_w1")
        if "diffusion" not in meta:
            raise ConfigError("entropic_w1 weight needs a diffusion model")
        w1_hat, _ = diffusion_entropic_weight(meta["grid"], float(sub["gamma"]), meta["diffusion"])
        w1 = 1.0 + w1_hat
        return w1 ** float(sub.get("power", 1.0))
    raise ConfigError(f"cannot resolve weight spec {wcfg!r}")


def _state_set(scfg, mcp: FiniteMCP, meta: dict) -> np.ndarray:
    """States named by "all", "interior", a list of distinct indices or
    {"level": {"w0": weight, "radius": r}}; an empty set is an error."""
    n = mcp.n_states
    if scfg == "all":
        states = np.arange(n)
    elif scfg == "interior":
        if mcp.state_coords is None:
            raise ConfigError("interior states need state coordinates")
        lim = 0.8 * np.max(np.abs(mcp.state_coords), axis=0)
        states = np.flatnonzero(np.all(np.abs(mcp.state_coords) <= lim + 1e-12, axis=1))
    elif isinstance(scfg, dict) and "level" in scfg:
        sub = _table(scfg, "level")
        states = level_set(_resolve_weight(sub["w0"], mcp, meta), float(sub["radius"]))
    elif isinstance(scfg, list) and all(type(x) is int for x in scfg):
        if not all(0 <= x < n for x in scfg) or len(set(scfg)) < len(scfg):
            raise ConfigError(f"state list {scfg} needs distinct indices in [0, {n})")
        states = np.asarray(scfg, dtype=int)
    else:
        raise ConfigError(f"cannot read state set {scfg!r}: want \"all\", \"interior\", "
                          "a list of state indices or {\"level\": ...}")
    if states.size == 0:
        raise ConfigError(f"state set {scfg!r} is empty")
    return states


@_reading("risk")
def _risk_spec(cfg: dict) -> RiskMapSpec:
    return RiskMapSpec.from_dict(_table(cfg, "risk"))


@_reading("solve")
def _solve_config(cfg: dict, n_states: int) -> SolveConfig:
    scfg = _table(cfg, "solve", {})
    out = SolveConfig(
        tol=float(scfg.get("tol", 1e-10)),
        max_iter=_whole(scfg, "max_iter", 100_000),
        reference_state=_whole(scfg, "reference_state", 0),
    )
    if out.reference_state >= n_states:
        raise ValueError(f"reference_state {out.reference_state} is not a state of the {n_states}-state model")
    return out


def _prepare(config_path: str, output_dir: str | None):
    """Config, model, model meta, risk map and output directory of a command."""
    cfg = load_config(config_path)
    mcp, meta = build_model(cfg, Path(config_path).resolve().parent)
    spec = _risk_spec(cfg)
    out = output_dir if output_dir is not None else cfg.get("output_dir", ".")
    if not isinstance(out, str):
        raise ConfigError("'output_dir' must be a string")
    Path(out).mkdir(parents=True, exist_ok=True)
    return cfg, mcp, meta, spec, Path(out)


def cmd_solve(config_path: str, output_dir: str | None) -> int:
    t0 = time.perf_counter_ns()
    cfg, mcp, _, spec, out = _prepare(config_path, output_dir)
    scfg = _solve_config(cfg, mcp.n_states)
    log.info("solving %s-state model, risk kind %s", mcp.n_states, spec.kind)
    t1 = time.perf_counter_ns()
    res = relative_value_iteration(mcp, spec, scfg)
    t2 = time.perf_counter_ns()
    residual = poisson_residual(mcp, spec, res.rho, res.h)
    t3 = time.perf_counter_ns()
    result = {"rho": res.rho, "rho_lower": res.rho_lower, "rho_upper": res.rho_upper,
              "policy": res.policy.deterministic.tolist(), "iterations": res.iterations,
              "converged": res.converged, "residual": residual,
              "timing_s": {"build": (t1 - t0) / 1e9, "rvi": (t2 - t1) / 1e9, "residual": (t3 - t2) / 1e9}}
    with open(out / "result.json", "w") as fh:
        json.dump(result, fh, indent=2)
    trace_to_csv(res.trace, out / "trace.csv")
    if not res.converged:
        log.error("no convergence after %d iterations (span %.3g)", res.iterations, res.trace[-1].span)
        return 3
    return 0


# Certificate handlers: (entry, model, risk map, model meta, seed) ->
# (satisfied, constants, worst_witness).  They call the certificate routines
# through this module's names at call time.


def _lyapunov(entry, mcp, spec, meta, seed):
    w0 = _resolve_weight(entry["w0"], mcp, meta)
    target = mcp if entry.get("include_cost", True) else mcp.with_cost(np.zeros_like(mcp.stacked_cost))
    cert = fit_lyapunov(target, spec, w0, gamma_grid=entry.get("gamma_grid"),
                        states=_state_set(entry.get("states", "all"), mcp, meta))
    witness = None if cert.worst_pair is None else {"x": cert.worst_pair[0], "a": cert.worst_pair[1]}
    return cert.satisfied, {"gamma0": cert.gamma0, "K0": cert.K0}, witness


def _doeblin(entry, mcp, spec, meta, seed):
    sub = _state_set(entry["subset"], mcp, meta)
    cert = doeblin_minorization(mcp, sub)
    return cert.satisfied, {"alpha": cert.alpha, "subset_size": int(len(sub))}, None


def _local_doeblin(entry, mcp, spec, meta, seed):
    cert = local_doeblin(mcp, _state_set(entry["subset"], mcp, meta))
    return cert.satisfied, {"lambda_minus": cert.lambda_minus, "lambda_plus": cert.lambda_plus}, None


def _l2(entry, mcp, spec, meta, seed):
    w0 = _resolve_weight(entry["w0"], mcp, meta)
    if "K0" in entry and not isinstance(entry["K0"], str):
        K0, gamma0 = float(entry["K0"]), float(entry["gamma0"])
        if not 0 < gamma0 < 1:
            raise ValueError(f"gamma0 must be in (0, 1), got {gamma0}")
    else:
        fit = fit_lyapunov(mcp, spec, w0)
        if not fit.satisfied:
            return False, {"error": "drift fit failed"}, None
        K0, gamma0 = fit.K0, fit.gamma0
    B0 = level_set(w0, 2.0 * K0 / (1.0 - gamma0))
    K = entry.get("K")
    K = float(_invariant_K(K or "coherent", mcp, spec, K0, B0) if K is None or isinstance(K, str) else K)
    cert = check_l2(mcp, spec, w0, K0, K, B0, n_samples=_whole(entry, "n_samples", 2000), seed=seed)
    constants = {"K0": K0, "K": K, "min_slack": cert.min_slack, "n_samples": cert.n_samples}
    return cert.passed, constants, cert.worst_witness


def _invariant_K(rule: str, mcp, spec, K0: float, B0) -> float:
    """The invariant radius K of a named rule, from the minorization on B0."""
    if rule == "entropic":
        loc = local_doeblin(mcp, B0)
        return invariant_bound_K("entropic", K0=K0, lambda_minus=loc.lambda_minus, lambda_plus=loc.lambda_plus)
    if rule not in ("coherent", "shortfall"):
        raise ConfigError(f"unknown K rule {rule!r}")
    alpha = doeblin_minorization(mcp, B0).alpha
    if rule == "shortfall":
        if spec.utility is None:
            raise ConfigError("K rule 'shortfall' needs a shortfall risk map")
        return invariant_bound_K("shortfall", K0=K0, alpha=alpha, l=spec.utility.l, L=spec.utility.L)
    # The kernel's common mass, discounted to what the map's own monotone
    # differences retain of it.
    return invariant_bound_K("coherent", K0=K0, alpha=alpha * map_minorization_factor(spec))


def _contraction(entry, mcp, spec, meta, seed):
    w0 = _resolve_weight(entry["w0"], mcp, meta)
    params = {k: float(entry[k]) for k in ("gamma", "K_bar", "alpha", "R")}
    if entry.get("alpha0") is not None:
        params["alpha0"] = float(entry["alpha0"])
    for k, val in params.items():
        if not np.isfinite(val):
            raise ConfigError(f"{k} must be finite, got {val}")
    try:
        cert = contraction_certificate(**params, w0=w0)
    except ValueError as e:
        return False, {"error": str(e)}, None
    constants = {"alpha_bar": cert.alpha_bar, "gamma0": cert.gamma0,
                 "gamma1": cert.gamma1, "gamma2": cert.gamma2, "beta": cert.beta}
    if "measure" not in entry:
        return True, constants, None
    mcfg = _table(entry, "measure")
    stats = measure_contraction(mcp, spec, cert.w_hat, n_trials=_whole(mcfg, "n_trials", 200),
                                ball_radius=mcfg.get("ball_radius"), seed=seed)
    constants["measured_max_ratio"] = stats.max_ratio
    constants["n_pairs"] = stats.n_pairs
    # a NaN ratio fails, and so does a measurement that found no pair to measure
    if not (stats.n_pairs > 0 and stats.max_ratio <= cert.alpha_bar + 1e-9):
        return False, constants, {"measured_max_ratio": stats.max_ratio}
    return True, constants, None


def _envelope_minorization(entry, mcp, spec, meta, seed):
    sub = _state_set(entry["subset"], mcp, meta)
    cert = entropic_envelope_minorization(mcp, sub, float(entry["K"]), _resolve_weight(entry["w"], mcp, meta))
    return cert.satisfied, {"alpha": cert.alpha}, None


_CERTIFICATES = {"lyapunov": _lyapunov, "doeblin": _doeblin, "local_doeblin": _local_doeblin, "l2": _l2,
                 "contraction": _contraction, "envelope_minorization": _envelope_minorization}


def _run_certificate(i: int, entry, mcp: FiniteMCP, spec: RiskMapSpec, meta: dict, seed: int) -> dict:
    kind = entry.get("type") if isinstance(entry, dict) else None
    t0 = time.perf_counter_ns()
    try:
        if not isinstance(kind, str) or kind not in _CERTIFICATES:
            raise ConfigError(f"unknown certificate type; want one of {', '.join(_CERTIFICATES)}")
        satisfied, constants, witness = _CERTIFICATES[kind](entry, mcp, spec, meta, seed)
    except (ConfigError, TypeError, ValueError) as e:
        raise ConfigError(f"certificates[{i}] ({kind}): {e}") from e
    return {"kind": kind, "satisfied": satisfied, "constants": constants, "worst_witness": witness,
            "timing_s": (time.perf_counter_ns() - t0) / 1e9}


def cmd_verify(config_path: str, output_dir: str | None, seed: int) -> int:
    cfg, mcp, meta, spec, out = _prepare(config_path, output_dir)
    entries = cfg.get("certificates", [])
    if not isinstance(entries, list):
        raise ConfigError("'certificates' must be a list")
    report = [_run_certificate(i, e, mcp, spec, meta, seed) for i, e in enumerate(entries)]
    with open(out / "certificates.json", "w") as fh:
        json.dump(report, fh, indent=2)
    bad = [r for r in report if not r["satisfied"]]
    for r in bad:
        log.error("certificate %s unsatisfied: %s", r["kind"], r["constants"])
    return 4 if bad else 0


@_reading("sweep")
def _sweep_specs(cfg: dict, spec: RiskMapSpec) -> list[RiskMapSpec]:
    """The risk map at each swept lambda; a value the map rejects is a config error."""
    swcfg = cfg.get("sweep")
    if not isinstance(swcfg, dict) or swcfg.get("param") != "lambda" or not isinstance(swcfg.get("values"), list):
        raise ConfigError("sweep needs {'param': 'lambda', 'values': [...]}")
    if spec.kind not in ("entropic", "mean_semideviation"):
        raise ConfigError("lambda sweep needs an entropic or mean_semideviation risk kind")
    return [dataclasses.replace(spec, lam=float(v)) for v in swcfg["values"]]


def cmd_sweep(config_path: str, output_dir: str | None, jobs: int) -> int:
    cfg, mcp, _, spec, out = _prepare(config_path, output_dir)
    scfg = _solve_config(cfg, mcp.n_states)
    specs = _sweep_specs(cfg, spec)

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
        results = list(ex.map(lambda s: relative_value_iteration(mcp, s, scfg), specs))
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "rho", "iterations", "converged"])
        for s, res in zip(specs, results):
            writer.writerow([repr(s.lam), repr(res.rho), res.iterations, res.converged])
    return 3 if any(not r.converged for r in results) else 0


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
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
