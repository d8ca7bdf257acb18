"""Command-line front end: riskmdp solve|verify|sweep --config cfg.json.

Exit codes: 0 success, 2 configuration error (including an invalid model),
3 solver did not converge (results are still written), 4 a requested
certificate is unsatisfied (the report is still written).  Set
RISKMDP_LOG=error|info|debug for verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import json
import logging
import os
import sys
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


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("RISKMDP_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e


def build_model(cfg: dict, base_dir: Path) -> tuple[FiniteMCP, dict]:
    """Construct the model named by the config; returns (model, meta).

    ``meta`` carries the diffusion/grid objects when the model came from a
    discretization, so weight specs like entropic_w1 can be resolved later.
    The model is validated (stochastic rows, finite costs) before it is
    returned; a violation is a ``ConfigError``.
    """
    mcfg = cfg.get("model")
    if not isinstance(mcfg, dict):
        raise ConfigError("config needs a 'model' table")
    meta: dict = {}
    if "builtin" in mcfg:
        mcp = builtin_chain(mcfg["builtin"], **mcfg.get("params", {}))
    elif "path" in mcfg:
        p = Path(mcfg["path"])
        if not p.is_absolute():
            p = base_dir / p
        try:
            mcp = FiniteMCP.load_json(p)
        except OSError as e:
            raise ConfigError(f"cannot read model {p}: {e}") from e
        except ValueError as e:
            raise ConfigError(f"bad model {p}: {e}") from e
    elif "diffusion" in mcfg:
        dcfg = dict(mcfg["diffusion"])
        gcfg = mcfg.get("grid", {})
        grid = GridSpec(points=_as_tuple_or_scalar(gcfg.get("points", 201)),
                        extent=_as_tuple_or_scalar(gcfg.get("extent", 5.0)))
        spec = DiffusionSpec(
            dim=int(dcfg["dim"]),
            A=np.asarray(dcfg["A"], dtype=float),
            actions=list(dcfg["actions"]),
            drift={k: np.asarray(v, dtype=float) for k, v in dcfg["drift"].items()},
            diffusion={k: np.asarray(v, dtype=float) for k, v in dcfg["diffusion"].items()},
            gamma_tilde=float(dcfg["gamma_tilde"]),
            drift_bound=float(dcfg["drift_bound"]),
            ellipticity=float(dcfg["ellipticity"]),
            drift_linear={k: np.asarray(v, dtype=float) for k, v in dcfg.get("drift_linear", {}).items()},
        )
        mcp = discretize_diffusion(spec, grid)
        meta = {"diffusion": spec, "grid": grid}
        if "cost" in mcfg:
            mcp = attach_cost(mcp, _cost_form(mcfg["cost"], mcp, meta))
    else:
        raise ConfigError("model must specify one of: builtin, path, diffusion")
    if "cost" in mcfg and "diffusion" not in mcfg:
        mcp = attach_cost(mcp, _cost_form(mcfg["cost"], mcp, meta))
    bad = validate_mcp(mcp).violations
    if bad:
        more = f" (and {len(bad) - 5} more)" if len(bad) > 5 else ""
        raise ConfigError(f"invalid model: {'; '.join(bad[:5])}{more}")
    return mcp, meta


def _as_tuple_or_scalar(v):
    return tuple(v) if isinstance(v, list) else v


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
        sub = wcfg["entropic_w1"]
        if "diffusion" not in meta:
            raise ConfigError("entropic_w1 weight needs a diffusion model")
        w1_hat, _ = diffusion_entropic_weight(meta["grid"], float(sub["gamma"]), meta["diffusion"])
        w1 = 1.0 + w1_hat
        return w1 ** float(sub.get("power", 1.0))
    raise ConfigError(f"cannot resolve weight spec {wcfg!r}")


def _resolve_subset(scfg, mcp: FiniteMCP, meta: dict) -> np.ndarray:
    if scfg == "all":
        return np.arange(mcp.n_states)
    if isinstance(scfg, list):
        return np.asarray(scfg, dtype=int)
    if isinstance(scfg, dict) and "level" in scfg:
        sub = scfg["level"]
        w0 = _resolve_weight(sub["w0"], mcp, meta)
        return level_set(w0, float(sub["radius"]))
    raise ConfigError(f"cannot resolve subset spec {scfg!r}")


def _resolve_states(scfg, mcp: FiniteMCP) -> np.ndarray | None:
    if scfg is None or scfg == "all":
        return None
    if scfg == "interior":
        if mcp.state_coords is None:
            raise ConfigError("interior restriction needs state coordinates")
        margin = 0.8
        lim = margin * np.max(np.abs(mcp.state_coords), axis=0)
        return np.flatnonzero(np.all(np.abs(mcp.state_coords) <= lim + 1e-12, axis=1))
    if isinstance(scfg, list):
        return np.asarray(scfg, dtype=int)
    raise ConfigError(f"cannot resolve state restriction {scfg!r}")


def _risk_spec(cfg: dict) -> RiskMapSpec:
    rcfg = cfg.get("risk")
    if not isinstance(rcfg, dict) or "kind" not in rcfg:
        raise ConfigError("config needs a 'risk' table with a 'kind'")
    try:
        return RiskMapSpec.from_dict(rcfg)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _solve_config(cfg: dict) -> SolveConfig:
    scfg = cfg.get("solve", {})
    return SolveConfig(
        tol=float(scfg.get("tol", 1e-10)),
        max_iter=int(scfg.get("max_iter", 100_000)),
        reference_state=int(scfg.get("reference_state", 0)),
    )


def cmd_solve(config_path: str, output_dir: str | None) -> int:
    cfg = load_config(config_path)
    mcp, meta = build_model(cfg, Path(config_path).resolve().parent)
    spec = _risk_spec(cfg)
    scfg = _solve_config(cfg)
    out = _output_dir(cfg, output_dir)
    log.info("solving %s-state model, risk kind %s", mcp.n_states, spec.kind)
    res = relative_value_iteration(mcp, spec, scfg)
    residual = poisson_residual(mcp, spec, res.rho, res.h)
    with open(out / "result.json", "w") as fh:
        json.dump(
            {
                "rho": res.rho,
                "rho_lower": res.rho_lower,
                "rho_upper": res.rho_upper,
                "policy": res.policy.deterministic.tolist(),
                "iterations": res.iterations,
                "converged": res.converged,
                "residual": residual,
            },
            fh,
            indent=2,
        )
    trace_to_csv(res.trace, out / "trace.csv")
    if not res.converged:
        log.error("no convergence after %d iterations (span %.3g)", res.iterations, res.trace[-1].span)
        return 3
    return 0


def _run_certificate(entry: dict, mcp: FiniteMCP, spec: RiskMapSpec, meta: dict, seed: int) -> dict:
    kind = entry.get("type")
    if kind == "lyapunov":
        w0 = _resolve_weight(entry["w0"], mcp, meta)
        target = mcp if entry.get("include_cost", True) else mcp.with_cost(np.zeros_like(mcp.stacked_cost))
        cert = fit_lyapunov(
            target, spec, w0,
            gamma_grid=entry.get("gamma_grid"),
            states=_resolve_states(entry.get("states"), mcp),
        )
        return {
            "kind": "lyapunov",
            "satisfied": cert.satisfied,
            "constants": {"gamma0": cert.gamma0, "K0": cert.K0},
            "worst_witness": None if cert.worst_pair is None else {"x": cert.worst_pair[0], "a": cert.worst_pair[1]},
        }
    if kind == "doeblin":
        sub = _resolve_subset(entry["subset"], mcp, meta)
        cert = doeblin_minorization(mcp, sub)
        return {
            "kind": "doeblin",
            "satisfied": cert.satisfied,
            "constants": {"alpha": cert.alpha, "subset_size": int(len(sub))},
            "worst_witness": None,
        }
    if kind == "local_doeblin":
        sub = _resolve_subset(entry["subset"], mcp, meta)
        cert = local_doeblin(mcp, sub)
        return {
            "kind": "local_doeblin",
            "satisfied": cert.satisfied,
            "constants": {"lambda_minus": cert.lambda_minus, "lambda_plus": cert.lambda_plus},
            "worst_witness": None,
        }
    if kind == "l2":
        w0 = _resolve_weight(entry["w0"], mcp, meta)
        if "K0" in entry and not isinstance(entry["K0"], str):
            K0 = float(entry["K0"])
            gamma0 = float(entry["gamma0"])
        else:
            fit = fit_lyapunov(mcp, spec, w0)
            if not fit.satisfied:
                return {"kind": "l2", "satisfied": False,
                        "constants": {"error": "drift fit failed"}, "worst_witness": None}
            K0, gamma0 = fit.K0, fit.gamma0
        B0 = level_set(w0, 2.0 * K0 / (1.0 - gamma0))
        K = entry.get("K")
        if K is None or isinstance(K, str):
            rule = K or "coherent"
            if rule == "coherent":
                # The kernel's common mass, discounted to what the map's own
                # monotone differences retain of it.
                alpha = doeblin_minorization(mcp, B0).alpha * map_minorization_factor(spec)
                K = invariant_bound_K("coherent", K0=K0, alpha=alpha)
            elif rule == "entropic":
                loc = local_doeblin(mcp, B0)
                K = invariant_bound_K("entropic", K0=K0,
                                      lambda_minus=loc.lambda_minus, lambda_plus=loc.lambda_plus)
            elif rule == "shortfall":
                alpha = doeblin_minorization(mcp, B0).alpha
                K = invariant_bound_K("shortfall", K0=K0, alpha=alpha,
                                      l=spec.utility.l, L=spec.utility.L)
            else:
                raise ConfigError(f"unknown K rule {rule!r}")
        cert = check_l2(mcp, spec, w0, K0, float(K), B0,
                        n_samples=int(entry.get("n_samples", 2000)), seed=seed)
        return {
            "kind": "l2",
            "satisfied": cert.passed,
            "constants": {"K0": K0, "K": float(K), "min_slack": cert.min_slack, "n_samples": cert.n_samples},
            "worst_witness": cert.worst_witness,
        }
    if kind == "contraction":
        w0 = _resolve_weight(entry["w0"], mcp, meta)
        try:
            cert = contraction_certificate(
                gamma=float(entry["gamma"]),
                K_bar=float(entry["K_bar"]),
                alpha=float(entry["alpha"]),
                R=float(entry["R"]),
                w0=w0,
                alpha0=entry.get("alpha0"),
            )
        except ValueError as e:
            return {"kind": "contraction", "satisfied": False,
                    "constants": {"error": str(e)}, "worst_witness": None}
        result = {
            "kind": "contraction",
            "satisfied": True,
            "constants": {
                "alpha_bar": cert.alpha_bar, "gamma0": cert.gamma0,
                "gamma1": cert.gamma1, "gamma2": cert.gamma2, "beta": cert.beta,
            },
            "worst_witness": None,
        }
        mcfg = entry.get("measure")
        if mcfg:
            stats = measure_contraction(
                mcp, spec, cert.w_hat,
                n_trials=int(mcfg.get("n_trials", 200)),
                ball_radius=mcfg.get("ball_radius"),
                seed=seed,
            )
            result["constants"]["measured_max_ratio"] = stats.max_ratio
            if stats.max_ratio > cert.alpha_bar + 1e-9:
                result["satisfied"] = False
                result["worst_witness"] = {"measured_max_ratio": stats.max_ratio}
        return result
    if kind == "envelope_minorization":
        sub = _resolve_subset(entry["subset"], mcp, meta)
        w = _resolve_weight(entry["w"], mcp, meta)
        cert = entropic_envelope_minorization(mcp, sub, float(entry["K"]), w)
        return {
            "kind": "envelope_minorization",
            "satisfied": cert.satisfied,
            "constants": {"alpha": cert.alpha},
            "worst_witness": None,
        }
    raise ConfigError(f"unknown certificate type {kind!r}")


def cmd_verify(config_path: str, output_dir: str | None, seed: int) -> int:
    cfg = load_config(config_path)
    mcp, meta = build_model(cfg, Path(config_path).resolve().parent)
    spec = _risk_spec(cfg)
    out = _output_dir(cfg, output_dir)
    entries = cfg.get("certificates", [])
    report = [_run_certificate(e, mcp, spec, meta, seed) for e in entries]
    with open(out / "certificates.json", "w") as fh:
        json.dump(report, fh, indent=2)
    bad = [r for r in report if not r["satisfied"]]
    for r in bad:
        log.error("certificate %s unsatisfied: %s", r["kind"], r["constants"])
    return 4 if bad else 0


def cmd_sweep(config_path: str, output_dir: str | None, jobs: int) -> int:
    cfg = load_config(config_path)
    mcp, meta = build_model(cfg, Path(config_path).resolve().parent)
    spec = _risk_spec(cfg)
    scfg = _solve_config(cfg)
    out = _output_dir(cfg, output_dir)
    swcfg = cfg.get("sweep")
    if not isinstance(swcfg, dict) or swcfg.get("param") != "lambda" or "values" not in swcfg:
        raise ConfigError("sweep needs {'param': 'lambda', 'values': [...]}")
    if spec.kind not in ("entropic", "mean_semideviation"):
        raise ConfigError("lambda sweep needs an entropic or mean_semideviation risk kind")
    values = [float(v) for v in swcfg["values"]]

    def solve_one(lam: float):
        return relative_value_iteration(mcp, dataclasses.replace(spec, lam=lam), scfg)

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(solve_one, values))
    else:
        results = [solve_one(v) for v in values]
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "rho", "iterations", "converged"])
        for lam, res in zip(values, results):
            writer.writerow([repr(lam), repr(res.rho), res.iterations, res.converged])
    if any(not r.converged for r in results):
        return 3
    return 0


def _output_dir(cfg: dict, output_dir: str | None) -> Path:
    out = Path(output_dir if output_dir is not None else cfg.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    except (KeyError, TypeError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
