import csv
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskmdp
from riskmdp import mdp
from riskmdp.cli import main
from riskmdp.models import builtin_chain
from riskmdp.risk import RiskMapSpec, risk_values
from riskmdp.solver import ContractionStats, relative_value_iteration


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(tmp_path, command, cfg, **kw):
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, cfg), "--output", str(out)]
    for k, v in kw.items():
        argv += [f"--{k}", str(v)]
    return main(argv), out


# --- solve -------------------------------------------------------------------


def test_solve_writes_result_and_trace(tmp_path):
    cfg = {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"}}
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["converged"] is True
    assert result["rho"] == pytest.approx(4.0 / 7.0, abs=1e-9)
    assert result["policy"] == [0, 0]
    assert result["residual"] <= 1e-9
    assert sorted(result["timing_s"]) == ["build", "residual", "rvi"]
    assert all(isinstance(t, float) and t >= 0.0 for t in result["timing_s"].values())
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,span,m,M,rho_est,wall_ns,policy_changes,span_ratio,rows_evaluated"
    assert len(lines) == 1 + result["iterations"]
    rows = list(csv.reader(lines[1:]))
    assert rows[0][6:8] == ["", ""]  # no previous sweep to compare with
    for prev, row in zip(rows, rows[1:]):
        assert row[6] == "0"  # one action per state: the greedy policy never changes
        assert float(row[7]) == float(row[1]) / float(prev[1])
    assert all(row[8] == "2" for row in rows)  # a neutral sweep evaluates both rows


def test_solve_reports_the_sweeps_of_the_neutral_start(tmp_path):
    # an order-based solve starts from the neutral solve's bias: result.json
    # counts that solve's sweeps apart, and trace.csv holds the risk sweeps only
    model = {"builtin": "random_seeded", "params": {"n": 6, "m": 2, "seed": 3}}
    got = {}
    for risk in ({"kind": "neutral"}, {"kind": "entropic", "lambda": 0.5}, {"kind": "density_band", "band": [0.5, 1.5]},
                 {"kind": "mean_semideviation", "lambda": 0.5}):
        code, out = run(tmp_path, "solve", {"model": model, "risk": risk})
        assert code == 0
        got[risk["kind"]] = result = json.loads((out / "result.json").read_text())
        assert len((out / "trace.csv").read_text().splitlines()) == 1 + result["iterations"]
    assert got["neutral"]["start_iterations"] == got["entropic"]["start_iterations"] == 0
    assert got["density_band"]["start_iterations"] == got["mean_semideviation"]["start_iterations"]
    assert got["density_band"]["start_iterations"] == got["neutral"]["iterations"] > 0


def test_solve_entropic_builtin_params(tmp_path):
    cfg = {
        "model": {"builtin": "random_seeded", "params": {"n": 4, "m": 2, "seed": 3}},
        "risk": {"kind": "entropic", "lambda": 0.5},
        "solve": {"tol": 1e-11},
    }
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    assert json.loads((out / "result.json").read_text())["residual"] <= 1e-9


def test_solve_nonconvergence_still_writes_result(tmp_path):
    cfg = {
        "model": {"builtin": "biased2"},
        "risk": {"kind": "neutral"},
        "solve": {"max_iter": 2, "tol": 1e-15},
    }
    code, out = run(tmp_path, "solve", cfg)
    assert code == 3
    result = json.loads((out / "result.json").read_text())
    assert result["converged"] is False
    assert (out / "trace.csv").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("setting, words", [
    ({"max_iter": 0}, "max_iter must be at least 1"),
    ({"tol": 0.0}, "tol must be finite and > 0"),
    ({"tol": -1.0}, "tol must be finite and > 0"),
    ({"tol": float("nan")}, "tol must be finite and > 0"),
    ({"reference_state": 5}, "reference_state 5 is not a state of the 2-state model"),
    ({"reference_state": -1}, "reference_state must be >= 0"),
])
def test_bad_solve_settings_are_exit_2_naming_solve(tmp_path, capsys, command, setting, words):
    cfg = {"model": {"builtin": "biased2"}, "risk": {"kind": "entropic", "lambda": 1.0}, "solve": setting,
           "sweep": {"param": "lambda", "values": [0.5]}}
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: solve: ") and words in err


def test_envelope_minorization_with_underflowing_tilts_is_exit_4(tmp_path):
    cfg = {"model": {"builtin": "random_seeded", "params": {"n": 5, "m": 2, "seed": 1}},
           "risk": {"kind": "entropic", "lambda": 1.0},
           "certificates": [{"type": "envelope_minorization", "subset": "all", "K": 1.0,
                             "w": [800, 801, 802, 803, 804]}]}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 4
    report = json.loads((out / "certificates.json").read_text())
    assert report[0]["satisfied"] is False and report[0]["constants"]["alpha"] == 0.0


def test_solve_ignores_the_retired_shortfall_tol_key(tmp_path):
    # older configs carry a shortfall_tol key; the level no longer has a tolerance
    risk = {"kind": "shortfall", "utility": {"breakpoints": [0.0], "slopes": [0.5, 2.0]}}
    cfg = {"model": {"builtin": "random_seeded", "params": {"n": 4, "m": 2, "seed": 3}}, "risk": risk}
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    want = json.loads((out / "result.json").read_text())["rho"]
    cfg["risk"] = {**risk, "shortfall_tol": 1e-11}
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    assert json.loads((out / "result.json").read_text())["rho"] == want


def test_solve_from_model_file(tmp_path):
    builtin_chain("biased2").save_json(tmp_path / "model.json")
    cfg = {"model": {"path": "model.json"}, "risk": {"kind": "neutral"}}
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    assert json.loads((out / "result.json").read_text())["rho"] == pytest.approx(4.0 / 7.0, abs=1e-9)


def test_solve_diffusion_model_with_quadratic_cost(tmp_path):
    cfg = {
        "model": {
            "diffusion": {
                "dim": 1,
                "A": [[0.5]],
                "actions": ["left", "right"],
                "drift": {"left": [-0.5], "right": [0.5]},
                "diffusion": {"left": [[1.0]], "right": [[1.0]]},
                "gamma_tilde": 0.25,
                "drift_bound": 0.2500001,
                "ellipticity": 1.0,
            },
            "grid": {"points": 21, "extent": 3.0},
            "cost": {"form": "quadratic", "c0": 0.1},
        },
        "risk": {"kind": "neutral"},
    }
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["converged"]
    assert result["rho"] > 0.0


# --- config errors --------------------------------------------------------------


def test_missing_config_file_is_exit_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2


def test_invalid_json_is_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve", "--config", str(p)]) == 2


@pytest.mark.parametrize(
    "cfg",
    [
        {"risk": {"kind": "neutral"}},
        {"model": {"builtin": "uniform2"}},
        {"model": {"builtin": "uniform2"}, "risk": {"kind": "nope"}},
        {"model": {"builtin": "no_such_chain"}, "risk": {"kind": "neutral"}},
        {"model": {"builtin": "uniform2", "cost": {"form": "mystery"}}, "risk": {"kind": "neutral"}},
        {"model": {"path": "ghost.json"}, "risk": {"kind": "neutral"}},
    ],
)
def test_bad_configs_are_exit_2(tmp_path, cfg):
    code, _ = run(tmp_path, "solve", cfg)
    assert code == 2


DIFFUSION_1D = {
    "dim": 1, "A": [[0.5]], "actions": ["left", "right"],
    "drift": {"left": [-0.5], "right": [0.5]}, "diffusion": {"left": [[1.0]], "right": [[1.0]]},
    "gamma_tilde": 0.25, "drift_bound": 0.2500001, "ellipticity": 1.0,
}


L2 = {"type": "l2", "w0": "zeros", "K": "coherent"}
CONTRACTION = {"type": "contraction", "w0": "zeros", "gamma": 0.5, "K_bar": 1.0, "alpha": 0.5, "R": 5.0}


@pytest.mark.parametrize(
    "command, cfg, words",
    [
        ("solve", {"risk": {"kind": "neutral"}}, "missing key 'model'"),
        ("solve", {"model": {"builtin": "uniform2"}}, "missing key 'risk'"),
        ("solve", {"model": {"diffusion": {"dim": 1}}, "risk": {"kind": "neutral"}}, "missing key 'A'"),
        ("solve", {"model": {"builtin": "uniform2", "cost": 5}, "risk": {"kind": "neutral"}}, "'cost'"),
        ("solve", {"model": {"builtin": "uniform2"}, "risk": {"kind": "neutral"}, "solve": {"tol": "abc"}},
         "solve: 'tol' must be a real number, got 'abc'"),
        ("sweep", {"model": {"builtin": "uniform2"}, "risk": {"kind": "entropic", "lambda": 1.0},
                   "sweep": {"param": "lambda", "values": ["x"]}}, "sweep: 'values[0]' must be a real number, got 'x'"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "lyapunov"}]}, "certificates[0] (lyapunov): missing key 'w0'"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "doeblin", "subset": "all"}, {"type": "mystery"}]},
         "certificates[1] (mystery): unknown certificate type"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "contraction", "w0": "zeros", "gamma": "abc",
                                      "K_bar": 1.0, "alpha": 0.5, "R": 5.0}]},
         "certificates[0] (contraction): 'gamma' must be a real number, got 'abc'"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "l2", "w0": "zeros", "K": "shortfall"}]},
         "certificates[0] (l2): K rule 'shortfall' needs a shortfall risk map"),
        # non-finite risk parameters, which JSON reads as NaN and Infinity
        ("solve", {"model": {"builtin": "uniform2"}, "risk": {"kind": "entropic", "lambda": float("nan")}},
         "risk: lam must be finite"),
        ("solve", {"model": {"builtin": "uniform2"}, "risk": {"kind": "mean_semideviation", "lambda": 0.5,
                                                              "r": float("inf")}}, "risk: r must be finite"),
        ("solve", {"model": {"builtin": "uniform2"}, "risk": {"kind": "density_band", "band": [0.5, float("inf")]}},
         "risk: band must be finite"),
        # a swept value the risk map rejects fails before any solve starts
        ("sweep", {"model": {"builtin": "uniform2"}, "risk": {"kind": "entropic", "lambda": 1.0},
                   "sweep": {"param": "lambda", "values": [0.5, 0.0]}}, "sweep: entropic risk needs lam != 0"),
        ("sweep", {"model": {"builtin": "uniform2"}, "risk": {"kind": "mean_semideviation", "lambda": 0.5},
                   "sweep": {"param": "lambda", "values": [1.5]}}, "sweep: mean_semideviation needs lam in [-1, 1]"),
        # a grid extent that is not finite and positive, not an empty-row error
        ("solve", {"model": {"diffusion": DIFFUSION_1D, "grid": {"points": 11, "extent": float("nan")}},
                   "risk": {"kind": "neutral"}}, "model: extent must be finite and > 0, got nan"),
        # weight vectors reach the risk kernels, which take finite values only
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "entropic", "lambda": 0.5},
                    "certificates": [{"type": "l2", "w0": [0.0, float("inf")], "K0": 0.5, "gamma0": 0.5, "K": 1.0,
                                      "n_samples": 50}]},
         "certificates[0] (l2): values must be finite, got inf at vector 0, state 1"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "envelope_minorization", "subset": "all", "K": 1.0,
                                      "w": [0.0, float("inf")]}]},
         "certificates[0] (envelope_minorization): values must be finite, got inf at vector 0, state 1"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "lyapunov", "w0": "zeros", "gamma_grid": []}]},
         "certificates[0] (lyapunov): gamma_grid must be nonempty and lie in (0, 1), got []"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "lyapunov", "w0": [0.0, float("nan")]}]},
         "certificates[0] (lyapunov): w0 must be nonnegative, got nan at state 1"),
        # K = 0 tilts nothing, and an infinite w is still named
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "envelope_minorization", "subset": "all", "K": 0.0,
                                      "w": [0.0, float("inf")]}]},
         "certificates[0] (envelope_minorization): values must be finite, got inf at vector 0, state 1"),
        # a mean-semideviation that is not monotone has no coherent radius
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "mean_semideviation", "lambda": -0.6, "r": 1.5},
                    "certificates": [{"type": "l2", "w0": "zeros", "K0": 0.5, "gamma0": 0.5, "K": "coherent",
                                      "n_samples": 50}]},
         "certificates[0] (l2): no coherent minorization factor for mean_semideviation with lam -0.6 < 0 and r 1.5 > 1"),
        # numbers are JSON numbers: a bool or a string, which float() would take, is not one
        ("solve", {"model": {"builtin": "biased2"}, "risk": {"kind": "entropic", "lambda": True}},
         "risk: 'lambda' must be a real number, got True"),
        ("solve", {"model": {"builtin": "biased2"}, "risk": {"kind": "mean_semideviation", "lambda": 0.5, "r": "2"}},
         "risk: 'r' must be a real number, got '2'"),
        ("solve", {"model": {"builtin": "biased2"},
                   "risk": {"kind": "shortfall", "utility": {"breakpoints": [0.0], "slopes": ["0.5", True]}}},
         "risk: 'slopes[0]' must be a real number, got '0.5'"),
        ("solve", {"model": {"builtin": "biased2"},
                   "risk": {"kind": "shortfall", "utility": {"breakpoints": [0.0], "slopes": [0.5, True]}}},
         "risk: 'slopes[1]' must be a real number, got True"),
        ("solve", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"}, "solve": {"tol": "1e-9"}},
         "solve: 'tol' must be a real number, got '1e-9'"),
        ("solve", {"model": {"builtin": "biased2"}, "risk": {"kind": "density_band", "band": [0.5, 1.5, 3.0]}},
         "risk: 'band' must be a list of 2 real numbers, got [0.5, 1.5, 3.0]"),
        ("solve", {"model": {"builtin": "biased2"}, "risk": {"kind": "density_band", "band": [0.5, "2"]}},
         "risk: 'band[1]' must be a real number, got '2'"),
        ("solve", {"model": {"builtin": "biased2"}, "risk": {"kind": "density_band", "band": 2.0}},
         "risk: 'band' must be a list of 2 real numbers, got 2.0"),
        # a truthy string is not true, and a bool is not a radius
        ("verify", {"model": {"diffusion": DIFFUSION_1D, "grid": {"points": 21}}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "lyapunov", "w0": "coords_sq", "include_cost": "false"}]},
         "certificates[0] (lyapunov): 'include_cost' must be true or false, got 'false'"),
        ("verify", {"model": {"diffusion": DIFFUSION_1D, "grid": {"points": 21}}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "lyapunov", "w0": "coords_sq", "gamma_grid": ["0.5"]}]},
         "certificates[0] (lyapunov): 'gamma_grid[0]' must be a real number, got '0.5'"),
        ("verify", {"model": {"diffusion": DIFFUSION_1D, "grid": {"points": 21}}, "risk": {"kind": "neutral"},
                    "certificates": [{**CONTRACTION, "measure": {"n_trials": 20, "ball_radius": True}}]},
         "certificates[0] (contraction): 'ball_radius' must be a real number, got True"),
        # a quadratic cost's action terms are numbers keyed by actions of the model
        ("solve", {"model": {"diffusion": DIFFUSION_1D, "grid": {"points": 11},
                             "cost": {"form": "quadratic", "c0": 0.1, "action_terms": {"left": True}}},
                   "risk": {"kind": "neutral"}}, "model: 'action_terms.left' must be a real number, got True"),
        ("solve", {"model": {"diffusion": DIFFUSION_1D, "grid": {"points": 11},
                             "cost": {"form": "quadratic", "c0": 0.1, "action_terms": ["left"]}},
                   "risk": {"kind": "neutral"}}, "model: 'action_terms' must be a JSON object, got ['left']"),
        ("solve", {"model": {"diffusion": DIFFUSION_1D, "grid": {"points": 11},
                             "cost": {"form": "quadratic", "c0": 0.1, "action_terms": {"lefty": 1.0}}},
                   "risk": {"kind": "neutral"}}, "model: action_terms label 'lefty' is not an action of the model"),
        ("solve", {"model": {"builtin": "biased2", "cost": {"form": "tabulated", "table": [[True], [1.0]]}},
                   "risk": {"kind": "neutral"}}, "model: 'table[0][0]' must be a real number, got True"),
        ("solve", {"model": {"builtin": "biased2", "cost": {"form": "tabulated", "table": ["0.1", [1.0]]}},
                   "risk": {"kind": "neutral"}}, "model: 'table[0]' must be a real number, got '0.1'"),
        # an empty string is no K rule, and a bad key is read before any certificate routine runs
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "l2", "w0": "zeros", "K0": 0.5, "gamma0": 0.5, "K": ""}]},
         "certificates[0] (l2): unknown K rule ''"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{**CONTRACTION, "alpha0": 0.5, "measure": {"n_trials": "five"}}]},
         "certificates[0] (contraction): 'n_trials' must be a whole number, got 'five'"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "l2", "w0": [0.0, float("inf")], "K": "x"}]},
         "certificates[0] (l2): unknown K rule 'x'"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                    "certificates": [{"type": "l2", "w0": "zeros", "n_samples": -3}]},
         "certificates[0] (l2): check_l2 needs n_samples >= 0, got -3"),
        ("verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"}, "certificates": [5]},
         "config error: 'certificates[0]' must be a JSON object, got 5"),
    ],
)
def test_config_error_names_its_key_or_certificate(tmp_path, capsys, command, cfg, words):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and words in err


@pytest.mark.parametrize("key, value", [("drift_bound", -1.0), ("drift_bound", float("nan")),
                                        ("ellipticity", 0.0), ("ellipticity", float("nan"))])
def test_bad_diffusion_bounds_are_exit_2_naming_the_field(tmp_path, capsys, key, value):
    cfg = {"model": {"diffusion": {**DIFFUSION_1D, key: value}, "grid": {"points": 11}}, "risk": {"kind": "neutral"}}
    code, _ = run(tmp_path, "solve", cfg)
    assert code == 2
    assert f"config error: model: {key} must be finite" in capsys.readouterr().err


def real_setting(key, x):
    """(command, config) with the real-valued setting ``key`` set to x."""
    grid_1d = {"diffusion": DIFFUSION_1D, "grid": {"points": 11}}
    certificate = {
        "K0": {"type": "l2", "w0": "zeros", "K0": x, "gamma0": 0.5, "K": 2.0, "n_samples": 20},
        "gamma0": {"type": "l2", "w0": "zeros", "K0": 1.0, "gamma0": x, "K": 2.0, "n_samples": 20},
        "K": {"type": "l2", "w0": "zeros", "K0": 1.0, "gamma0": 0.5, "K": x, "n_samples": 20},
        "K_bar": {**CONTRACTION, "K_bar": x}, "alpha0": {**CONTRACTION, "alpha0": x},
        "gamma": {**CONTRACTION, "gamma": x}, "alpha": {**CONTRACTION, "alpha": x}, "R": {**CONTRACTION, "R": x},
        "radius": {"type": "doeblin", "subset": {"level": {"w0": "coords_sq", "radius": x}}},
    }
    model = {
        "c0": {"builtin": "biased2", "cost": {"form": "quadratic", "c0": x}},
        "q": {"builtin": "biased2", "cost": {"form": "power", "c0": 0.1, "q": x, "w1": "coords_sq"}},
        "entropic_gamma": {**grid_1d, "cost": {"form": "power", "c0": 0.1, "q": 0.5,
                                               "w1": {"entropic_w1": {"gamma": x}}}},
        "power": {**grid_1d, "cost": {"form": "power", "c0": 0.1, "q": 0.5,
                                      "w1": {"entropic_w1": {"gamma": 0.5, "power": x}}}},
        **{k: {"diffusion": {**DIFFUSION_1D, k: x}, "grid": {"points": 11}}
           for k in ("gamma_tilde", "drift_bound", "ellipticity")},
    }
    if key in certificate:
        return "verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                          "certificates": [certificate[key]]}
    if key in model:
        return "solve", {"model": model[key], "risk": {"kind": "neutral"}}
    return "sweep", {"model": {"builtin": "biased2"}, "risk": {"kind": "entropic", "lambda": 1.0},
                     "sweep": {"param": "lambda", "values": [0.5, x]}}


REAL_KEYS = ["values[1]", "gamma_tilde", "drift_bound", "ellipticity", "c0", "q", "entropic_gamma", "power",
             "radius", "K0", "gamma0", "K", "gamma", "K_bar", "alpha", "R", "alpha0"]


# a string K names a rule, so only a bool is a bad number there; an absent
# K0 asks for the drift fit, and any given one is read as a number
@pytest.mark.parametrize("key, x", [(k, x) for x in (True, "0.5") for k in REAL_KEYS
                                    if not (isinstance(x, str) and k == "K")])
def test_real_settings_must_be_json_numbers(tmp_path, capsys, key, x):
    # float() takes true and "0.5"; a config's reals are JSON numbers only
    command, cfg = real_setting(key, x)
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    name = "gamma" if key == "entropic_gamma" else key
    assert f"{name!r} must be a real number, got {x!r}" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists() and not (out / "certificates.json").exists()


@pytest.mark.parametrize("command, cfg, name, x", [
    # the diffusion's A and its drift, diffusion and drift_linear tables
    ("solve", {"diffusion": {**DIFFUSION_1D, "A": [["0.5"]], "drift": {"left": [True], "right": ["0.5"]}}},
     "A[0][0]", "0.5"),
    ("solve", {"diffusion": {**DIFFUSION_1D, "drift": {"left": [True], "right": ["0.5"]}}}, "drift.left[0]", True),
    ("solve", {"diffusion": {**DIFFUSION_1D, "diffusion": {"left": [[1.0]], "right": [[False]]}}},
     "diffusion.right[0][0]", False),
    ("solve", {"diffusion": {**DIFFUSION_1D, "drift_linear": {"left": [["0.1"]]}}}, "drift_linear.left[0][0]", "0.1"),
    # list weights: a cost's w1 and a certificate's w0
    ("solve", {"builtin": "biased2", "cost": {"form": "power", "c0": 0.1, "q": 0.5, "w1": [1.0, "2"]}}, "w1[1]", "2"),
    ("verify", {"builtin": "biased2"}, "w0[1]", True),
])
def test_diffusion_tables_and_weight_lists_must_be_json_numbers(tmp_path, capsys, command, cfg, name, x):
    # np.asarray(.., dtype=float) takes "0.5" and true; each entry is read
    # as a JSON number and a bad one is named by its key and position
    cfg = {"model": {"grid": {"points": 11}, **cfg}, "risk": {"kind": "neutral"}}
    if command == "verify":
        cfg["certificates"] = [{**L2, "w0": [0.0, True], "K0": 0.5, "gamma0": 0.5}]
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert f"{name!r} must be a real number, got {x!r}" in capsys.readouterr().err


@pytest.mark.parametrize("grid, actions, words", [
    ({"points": 11, "extent": True}, None, "'grid.extent' must be a real number, got True"),
    ({"points": 11.5}, None, "'grid.points' must be a whole number, got 11.5"),
    ({"points": "11"}, None, "'grid.points' must be a whole number, got '11'"),
    ({"points": [11.5]}, None, "'grid.points[0]' must be a whole number, got 11.5"),
    ({"points": 11, "extent": ["5"]}, None, "'grid.extent[0]' must be a real number, got '5'"),
    ({"points": 11}, "lr", "'actions' must be a list of strings, got 'lr'"),
])
def test_grid_values_and_actions_must_be_json_values_of_their_type(tmp_path, capsys, grid, actions, words):
    # GridSpec took a bool extent as 1, a string of actions as its letters
    diffusion = DIFFUSION_1D if actions is None else {**DIFFUSION_1D, "actions": actions}
    code, _ = run(tmp_path, "solve", {"model": {"diffusion": diffusion, "grid": grid}, "risk": {"kind": "neutral"}})
    assert code == 2
    assert words in capsys.readouterr().err


def test_whole_grid_values_may_be_written_as_floats(tmp_path):
    got = []
    for grid in ({"points": 11, "extent": 5}, {"points": [11.0], "extent": [5.0]}):
        code, out = run(tmp_path, "solve", {"model": {"diffusion": DIFFUSION_1D, "grid": grid},
                                            "risk": {"kind": "neutral"}})
        got.append((code, json.loads((out / "result.json").read_text())["rho"]))
    assert got[0] == got[1] and got[0][0] == 0


def test_a_utility_that_is_not_an_object_is_exit_2_naming_it(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", {"model": {"builtin": "biased2"}, "risk": {"kind": "shortfall", "utility": 3}})
    assert code == 2
    assert "config error: risk: 'utility' must be a JSON object, got 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("solve", {"solve": {"max_iter": 2.5}}, "max_iter"),
        ("solve", {"solve": {"reference_state": True}}, "reference_state"),
        ("solve", {"solve": {"max_iter": "10"}}, "max_iter"),
        ("solve", {"model": {"builtin": "ring", "params": {"n": 4.5}}}, "n"),
        ("solve", {"model": {"diffusion": {**DIFFUSION_1D, "dim": 1.5}, "grid": {"points": 11}}}, "dim"),
        ("verify", {"certificates": [{**L2, "n_samples": 10.7}]}, "n_samples"),
        ("verify", {"certificates": [{**L2, "n_samples": "10.7"}]}, "n_samples"),
        ("verify", {"certificates": [{**CONTRACTION, "measure": {"n_trials": True}}]}, "n_trials"),
    ],
)
def test_integer_settings_must_be_whole_numbers(tmp_path, capsys, command, cfg, key):
    code, _ = run(tmp_path, command, {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"}, **cfg})
    assert code == 2
    assert f"{key!r} must be a whole number" in capsys.readouterr().err


@pytest.mark.parametrize("as_ints, as_floats", [
    ({"risk": {"kind": "entropic", "lambda": 1}}, {"risk": {"kind": "entropic", "lambda": 1.0}}),
    ({"risk": {"kind": "mean_semideviation", "lambda": 1, "r": 3}},
     {"risk": {"kind": "mean_semideviation", "lambda": 1.0, "r": 3.0}}),
    ({"risk": {"kind": "density_band", "band": [0, 2]}}, {"risk": {"kind": "density_band", "band": [0.0, 2.0]}}),
    ({"risk": {"kind": "shortfall", "utility": {"breakpoints": [0], "slopes": [1, 2]}}},
     {"risk": {"kind": "shortfall", "utility": {"breakpoints": [0.0], "slopes": [1.0, 2.0]}}}),
    ({"risk": {"kind": "neutral"}, "solve": {"tol": 1}}, {"risk": {"kind": "neutral"}, "solve": {"tol": 1.0}}),
])
def test_real_settings_accept_integers(tmp_path, as_ints, as_floats):
    # an integer reads as the float of the same value
    rhos = []
    for cfg in (as_ints, as_floats):
        code, out = run(tmp_path, "solve", {"model": {"builtin": "biased2"}, **cfg})
        assert code == 0
        rhos.append(json.loads((out / "result.json").read_text())["rho"])
    assert rhos[0] == rhos[1]


def test_integer_settings_accept_integral_floats(tmp_path):
    cfg = {"model": {"builtin": "ring", "params": {"n": 5.0}}, "risk": {"kind": "neutral"},
           "solve": {"max_iter": 2000.0, "reference_state": 1.0}}
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    assert json.loads((out / "result.json").read_text())["rho"] == pytest.approx(0.2)
    cfg = {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
           "certificates": [{**L2, "n_samples": 20.0}, {**CONTRACTION, "measure": {"n_trials": 5.0}}]}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    assert json.loads((out / "certificates.json").read_text())[0]["constants"]["n_samples"] == 20


WALK_MODEL_FILE = {"n_states": 2, "actions": [["a", "b"], ["a"]],
                   "transition": [[[0.5, 0.5], [0.2, 0.8]], [[0.3, 0.7]]],
                   "cost": [[0.0, 0.5], [1.0]], "coords": [[0.0], [1.0]]}
# Full configs that together read every config key and every model-file key
WALK_CONFIGS = {
    "solve": ("solve", {
        "model": {"diffusion": {**DIFFUSION_1D, "drift_linear": {"left": [[0.1]]}},
                  "grid": {"points": 11, "extent": [4.0]},
                  "cost": {"form": "quadratic", "c0": 0.1, "action_terms": {"left": 0.5}}},
        "risk": {"kind": "shortfall", "utility": {"breakpoints": [0.0], "slopes": [0.5, 2.0]}},
        "solve": {"tol": 1e-9, "max_iter": 1000, "reference_state": 1}}),
    "sweep": ("sweep", {
        "model": {"builtin": "random_seeded", "params": {"n": 4, "m": 2, "seed": 1},
                  "cost": {"form": "power", "c0": 0.1, "q": 0.5, "w1": [1.0, 2.0, 3.0, 4.0]}},
        "risk": {"kind": "mean_semideviation", "lambda": 0.5, "r": 2.0},
        "solve": {"tol": 1e-9}, "sweep": {"param": "lambda", "values": [0.25, 0.5]}}),
    "verify": ("verify", {
        "model": {"diffusion": DIFFUSION_1D, "grid": {"points": [11], "extent": 4.0},
                  "cost": {"form": "power", "c0": 0.1, "q": 0.5,
                           "w1": {"entropic_w1": {"gamma": 0.5, "power": 1.0}}}},
        "risk": {"kind": "density_band", "band": [0.5, 1.5]},
        "certificates": [
            {"type": "lyapunov", "w0": "coords_sq", "include_cost": True, "gamma_grid": [0.5, 0.9],
             "states": "interior"},
            {"type": "doeblin", "subset": {"level": {"w0": "coords_sq", "radius": 4.0}}},
            {"type": "local_doeblin", "subset": [4, 5, 6]},
            {"type": "l2", "w0": "coords_sq", "K0": 1.0, "gamma0": 0.5, "K": 12.0, "n_samples": 20},
            {"type": "l2", "w0": "zeros", "K": "coherent", "n_samples": 20},
            {**CONTRACTION, "alpha0": 0.25, "measure": {"n_trials": 5, "ball_radius": 1.0}},
            {"type": "envelope_minorization", "subset": "all", "K": 1.0, "w": [0.0] * 11},
        ]}),
    "model_file": ("solve", {
        "model": {"path": "model.json", "cost": {"form": "tabulated", "table": [[0.0, 0.1], [1.0]]}},
        "risk": {"kind": "entropic", "lambda": 0.5}}),
}
WRONG_TYPES = [True, "x", [True], {}]


def json_positions(value, path=()):
    """(path, value) of every position in a JSON value, the value itself first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, entry in items:
        yield from json_positions(entry, (*path, key))


def json_replaced(value, path, new):
    """A copy of ``value`` with the entry at ``path`` replaced by ``new``."""
    if not path:
        return new
    out = {**value} if isinstance(value, dict) else list(value)
    out[path[0]] = json_replaced(value[path[0]], path[1:], new)
    return out


def wrong_values(path, value):
    """The values of another JSON type than ``value``'s; a number in a list is
    not wrapped in a list, a shape change that reshape and stacking accept."""
    number_entry = type(value) in (int, float) and path and isinstance(path[-1], int)
    return [w for w in WRONG_TYPES if type(w) is not type(value) and not (number_entry and isinstance(w, list))]


@pytest.mark.parametrize("name", list(WALK_CONFIGS))
def test_every_key_of_the_wrong_json_type_is_exit_2(tmp_path, capsys, name):
    # each leaf, list and table of a full config (and of the model file it
    # reads) in turn gets a value of another JSON type: every one is a
    # config error, none a traceback or a run that reads it as something else
    command, cfg = WALK_CONFIGS[name]
    cfg = {**cfg, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"

    def exit_code(cfg, model_file):
        path.write_text(json.dumps(cfg))
        (tmp_path / "model.json").write_text(json.dumps(model_file))
        return main([command, "--config", str(path)])

    assert exit_code(cfg, WALK_MODEL_FILE) == 0
    capsys.readouterr()
    docs = [(cfg, lambda c: (c, WALK_MODEL_FILE))]
    if name == "model_file":
        docs.append((WALK_MODEL_FILE, lambda m: (cfg, m)))
    failures, runs = [], 0
    for doc, place in docs:
        for where, value in json_positions(doc):
            for wrong in wrong_values(where, value):
                runs += 1
                try:
                    code = exit_code(*place(json_replaced(doc, where, wrong)))
                except Exception as e:  # a traceback: reported below with the key that raised it
                    code = repr(e)
                err = capsys.readouterr().err
                if code != 2 or not err.startswith("config error: "):
                    failures.append((where, wrong, code, err))
    assert not failures
    assert runs > 60


def test_output_dir_that_is_not_a_string_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"}, "output_dir": 5})
    assert main(["solve", "--config", cfg]) == 2
    assert "'output_dir'" in capsys.readouterr().err


@pytest.mark.parametrize("error", [KeyError("internal_bug"), ValueError("internal_bug")])
def test_faults_outside_config_reading_propagate(tmp_path, monkeypatch, error):
    # only a ConfigError is exit 2; a fault in the solver is a traceback
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(riskmdp.cli, "relative_value_iteration", broken)
    with pytest.raises(type(error), match="internal_bug"):
        run(tmp_path, "solve", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"}})


def write_model(tmp_path, transition, cost):
    model = {"n_states": 2, "actions": [["a"], ["a"]], "transition": transition, "cost": cost,
             "coords": None}
    (tmp_path / "model.json").write_text(json.dumps(model))
    return {"model": {"path": "model.json"}, "risk": {"kind": "neutral"}}


def test_model_with_bad_row_sum_is_exit_2(tmp_path, capsys):
    cfg = write_model(tmp_path, [[[0.6, 0.5]], [[0.5, 0.5]]], [[0.0], [1.0]])
    code, out = run(tmp_path, "solve", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "row sum" in err and "x=0" in err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("key, value, words", [
    ("n_states", 2.7, "'n_states' must be a whole number, got 2.7"),
    ("n_states", "2", "'n_states' must be a whole number, got '2'"),
    ("actions", ["a", "a"], "'actions[0]' must be a list of strings, got 'a'"),
    ("cost", ["0", 1.0], "'cost[0]' must be a real number, got '0'"),
    ("cost", [[False], [1.0]], "'cost[0][0]' must be a real number, got False"),
])
def test_a_model_file_is_read_by_the_config_rules(tmp_path, capsys, key, value, words):
    # int() took 2.7 and "2", list() split "a" into letters, float() took "0" and false
    cfg = write_model(tmp_path, [[[0.5, 0.5]], [[0.5, 0.5]]], [[0.0], [1.0]])
    model = json.loads((tmp_path / "model.json").read_text())
    (tmp_path / "model.json").write_text(json.dumps({**model, key: value}))
    code, _ = run(tmp_path, "solve", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad model ") and words in err


@pytest.mark.parametrize("second", [[[0.5]], [[0.5, 0.5], [1.0]]])
def test_model_with_ragged_row_names_the_state(tmp_path, capsys, second):
    cfg = write_model(tmp_path, [[[0.5, 0.5]], second], [[0.0], [1.0]])
    code, _ = run(tmp_path, "solve", cfg)
    assert code == 2
    assert "x=1" in capsys.readouterr().err


def test_nan_in_tabulated_cost_is_exit_2(tmp_path, capsys):
    cfg = {
        "model": {"builtin": "uniform2", "cost": {"form": "tabulated", "table": [[float("nan")], [1.0]]}},
        "risk": {"kind": "neutral"},
    }
    code, _ = run(tmp_path, "solve", cfg)
    assert code == 2
    assert "non-finite cost at x=0" in capsys.readouterr().err


# --- verify ----------------------------------------------------------------------


def test_verify_certificates_report(tmp_path):
    cfg = {
        "model": {"builtin": "biased2"},
        "risk": {"kind": "neutral"},
        "certificates": [
            {"type": "lyapunov", "w0": "zeros"},
            {"type": "doeblin", "subset": "all"},
            {"type": "local_doeblin", "subset": [0, 1]},
        ],
    }
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    report = json.loads((out / "certificates.json").read_text())
    assert [r["kind"] for r in report] == ["lyapunov", "doeblin", "local_doeblin"]
    assert all(r["satisfied"] for r in report)
    assert all(set(r) == {"kind", "satisfied", "constants", "worst_witness", "timing_s"} for r in report)
    # each certificate's own wall time, outside its constants
    assert all(isinstance(r["timing_s"], float) and r["timing_s"] >= 0.0 for r in report)
    assert report[1]["constants"]["alpha"] == pytest.approx(0.7)
    assert report[2]["constants"]["lambda_minus"] == pytest.approx(2.0 / 3.0)


def test_verify_unsatisfied_is_exit_4_with_report(tmp_path):
    cfg = {
        "model": {"builtin": "biased2"},
        "risk": {"kind": "neutral"},
        "certificates": [
            {"type": "contraction", "w0": "zeros", "gamma": 0.5, "K_bar": 1.0, "alpha": 0.5, "R": 4.0},
        ],
    }
    code, out = run(tmp_path, "verify", cfg)
    assert code == 4
    report = json.loads((out / "certificates.json").read_text())
    assert report[0]["satisfied"] is False
    assert "too small" in report[0]["constants"]["error"]


def test_main_leaves_the_root_logger_alone_and_prints_failures_to_stderr(tmp_path, capsys, monkeypatch):
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    level = root.level
    code, _ = run(tmp_path, "verify", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                                       "certificates": [{**CONTRACTION, "R": 4.0}]})
    assert code == 4 and "certificate contraction unsatisfied: {'error': 'level radius" in capsys.readouterr().err
    code, _ = run(tmp_path, "solve", {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
                                      "solve": {"max_iter": 1}})
    assert code == 3 and "no convergence after 1 iterations (span " in capsys.readouterr().err
    assert root.handlers == [] and root.level == level


def test_verify_l2_fit_route_is_tight_on_biased2(tmp_path):
    # w0 = 0 makes the fitted drift K0 = 1; the coherent radius K = K0/alpha
    # is exactly tight, so the sampled slack should sit at ~0 and pass
    cfg = {
        "model": {"builtin": "biased2"},
        "risk": {"kind": "neutral"},
        "certificates": [{"type": "l2", "w0": "zeros", "K": "coherent", "n_samples": 200}],
    }
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    rep = json.loads((out / "certificates.json").read_text())[0]
    assert rep["constants"]["K0"] == pytest.approx(1.0)
    assert rep["constants"]["K"] == pytest.approx(1.0 / 0.7)
    assert abs(rep["constants"]["min_slack"]) <= 1e-9
    assert rep["constants"]["n_samples"] == 200


def test_verify_l2_coherent_rule_scales_alpha_for_band(tmp_path):
    # The band map only keeps g1 of the kernel's common mass, so the coherent
    # radius must divide by 0.5 * 0.7 rather than 0.7 for the check to hold.
    cfg = {
        "model": {"builtin": "biased2"},
        "risk": {"kind": "density_band", "band": [0.5, 1.5]},
        "certificates": [{"type": "l2", "w0": "zeros", "K": "coherent", "n_samples": 200}],
    }
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    rep = json.loads((out / "certificates.json").read_text())[0]
    assert rep["satisfied"]
    assert rep["constants"]["K"] == pytest.approx(1.0 / 0.35)


def test_verify_l2_explicit_small_K_fails(tmp_path):
    cfg = {
        "model": {"builtin": "biased2"},
        "risk": {"kind": "neutral"},
        "certificates": [
            {"type": "l2", "w0": "zeros", "K0": 1.0, "gamma0": 0.5, "K": 1.0, "n_samples": 100},
        ],
    }
    code, out = run(tmp_path, "verify", cfg)
    assert code == 4
    rep = json.loads((out / "certificates.json").read_text())[0]
    assert rep["worst_witness"] is not None
    assert rep["constants"]["min_slack"] < 0


def test_verify_contraction_with_measurement(tmp_path):
    cfg = {
        "model": {"builtin": "biased2"},
        "risk": {"kind": "neutral"},
        "certificates": [
            {
                "type": "contraction", "w0": "zeros",
                "gamma": 0.5, "K_bar": 1.0, "alpha": 0.5, "R": 5.0, "alpha0": 0.25,
                "measure": {"n_trials": 200},
            },
        ],
    }
    code, out = run(tmp_path, "verify", cfg, seed=1)
    assert code == 0
    rep = json.loads((out / "certificates.json").read_text())[0]
    assert rep["constants"]["alpha_bar"] == pytest.approx(3.125 / 3.25)
    assert rep["constants"]["measured_max_ratio"] <= rep["constants"]["alpha_bar"] + 1e-9


@pytest.mark.parametrize("entry, words", [
    ({"type": "l2", "w0": "zeros", "K": float("nan")}, "needs finite K0 > 0 and K >= 0"),
    ({"type": "l2", "w0": "zeros", "K0": float("nan"), "gamma0": 0.5, "K": 1.0}, "needs finite K0 > 0 and K >= 0"),
    ({"type": "l2", "w0": "zeros", "K0": 0.1, "gamma0": 1.5, "K": 1.0}, "gamma0 must be in (0, 1)"),
    ({"type": "envelope_minorization", "subset": "all", "K": float("nan"), "w": "zeros"},
     "K must be finite and nonnegative"),
    ({**CONTRACTION, "measure": {"n_trials": 0}}, "n_trials must be at least 1"),
    ({**CONTRACTION, "measure": {"ball_radius": float("nan")}}, "ball_radius must be finite and > 0"),
    ({**CONTRACTION, "K_bar": float("nan")}, "K_bar must be finite, got nan"),
    ({**CONTRACTION, "R": float("inf")}, "R must be finite, got inf"),
    ({**CONTRACTION, "gamma": float("nan")}, "gamma must be finite, got nan"),
    ({**CONTRACTION, "alpha": float("-inf")}, "alpha must be finite, got -inf"),
    ({**CONTRACTION, "alpha0": float("nan")}, "alpha0 must be finite, got nan"),
    # alpha0 = alpha leaves the certificate unsatisfied, and its measure table is still read
    ({**CONTRACTION, "alpha0": 0.5, "measure": {"n_trials": 0}}, "n_trials must be at least 1, got 0"),
    ({**CONTRACTION, "alpha0": 0.5, "measure": {"ball_radius": -1.0}}, "ball_radius must be finite and > 0, got -1.0"),
    # a negative w0 used to pass unmeasured, and fail measured only by the seminorm's own check
    ({**CONTRACTION, "w0": [-5.0, 0.0, 0.0, 0.0]}, "w0 must be nonnegative, got -5.0 at state 0"),
    ({**CONTRACTION, "w0": [-5.0, 0.0, 0.0, 0.0], "measure": {"n_trials": 20}},
     "w0 must be nonnegative, got -5.0 at state 0"),
])
def test_certificate_constants_that_cannot_be_checked_are_exit_2(tmp_path, capsys, entry, words):
    cfg = {"model": {"builtin": "random_seeded", "params": {"n": 4, "m": 2, "seed": 1}},
           "risk": {"kind": "neutral"}, "certificates": [entry]}
    code, _ = run(tmp_path, "verify", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: certificates[0] ({entry['type']}): ") and words in err


def test_verify_l2_with_an_empty_level_set_passes_with_no_samples(tmp_path):
    cfg = {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
           "certificates": [{"type": "l2", "w0": [10.0, 10.0], "K0": 1.0, "gamma0": 0.5, "K": 1.0}]}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    rep = json.loads((out / "certificates.json").read_text())[0]
    assert rep["constants"]["n_samples"] == 0 and rep["worst_witness"] is None


def test_verify_contraction_measures_whenever_measure_is_given(tmp_path):
    cfg = {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
           "certificates": [{**CONTRACTION, "measure": {}}]}
    code, out = run(tmp_path, "verify", cfg, seed=1)
    assert code == 0
    rep = json.loads((out / "certificates.json").read_text())[0]
    assert 0.0 < rep["constants"]["measured_max_ratio"] <= rep["constants"]["alpha_bar"]
    assert rep["constants"]["n_pairs"] == 200


def test_verify_contraction_that_measured_no_pair_is_unsatisfied(tmp_path):
    # every pair on one state is degenerate: the ratio used to read 0.0 and pass
    model = {"n_states": 1, "actions": [["a"]], "transition": [[[1.0]]], "cost": [[0.5]]}
    (tmp_path / "model.json").write_text(json.dumps(model))
    cfg = {"model": {"path": "model.json"}, "risk": {"kind": "neutral"},
           "certificates": [{**CONTRACTION, "measure": {"n_trials": 50}}]}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 4
    rep = json.loads((out / "certificates.json").read_text())[0]
    assert not rep["satisfied"]
    assert rep["constants"]["n_pairs"] == 0 and np.isnan(rep["constants"]["measured_max_ratio"])


def test_verify_contraction_with_a_nan_measured_ratio_is_unsatisfied(tmp_path, monkeypatch):
    monkeypatch.setattr(riskmdp.cli, "measure_contraction",
                        lambda *a, **kw: ContractionStats(float("nan"), float("nan"), float("nan"), 1))
    cfg = {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"},
           "certificates": [{**CONTRACTION, "measure": {"n_trials": 5}}]}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 4
    assert not json.loads((out / "certificates.json").read_text())[0]["satisfied"]


def test_verify_diffusion_entropic_weight_and_level_sets(tmp_path):
    cfg = {
        "model": {
            "diffusion": {
                "dim": 1,
                "A": [[0.5]],
                "actions": ["left", "right"],
                "drift": {"left": [-0.5], "right": [0.5]},
                "diffusion": {"left": [[1.0]], "right": [[1.0]]},
                "gamma_tilde": 0.25,
                "drift_bound": 0.2500001,
                "ellipticity": 1.0,
            },
            "grid": {"points": 41, "extent": 4.0},
        },
        "risk": {"kind": "entropic", "lambda": 1.0},
        "certificates": [
            {
                "type": "lyapunov",
                "w0": {"entropic_w1": {"gamma": 0.5}},
                "include_cost": False,
                "states": "interior",
            },
            {"type": "doeblin", "subset": {"level": {"w0": "coords_sq", "radius": 2.0}}},
            {
                "type": "envelope_minorization",
                "subset": {"level": {"w0": "coords_sq", "radius": 2.0}},
                "K": 1.0,
                "w": "coords_sq",
            },
        ],
    }
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    report = json.loads((out / "certificates.json").read_text())
    assert all(r["satisfied"] for r in report)
    assert 0.0 < report[2]["constants"]["alpha"] <= report[1]["constants"]["alpha"]


def test_verify_unknown_certificate_type_is_exit_2(tmp_path):
    cfg = {
        "model": {"builtin": "uniform2"},
        "risk": {"kind": "neutral"},
        "certificates": [{"type": "mystery"}],
    }
    code, _ = run(tmp_path, "verify", cfg)
    assert code == 2


@pytest.mark.parametrize(
    "entry",
    [
        {"type": "doeblin", "subset": [0, 7]},
        {"type": "doeblin", "subset": [-1]},
        {"type": "local_doeblin", "subset": [0, 0, 1]},
        {"type": "lyapunov", "w0": "zeros", "states": [9]},
        {"type": "doeblin", "subset": [0.5]},
        {"type": "doeblin", "subset": [True]},
        {"type": "doeblin", "subset": []},
        {"type": "doeblin", "subset": {"level": {"w0": "coords_sq", "radius": -1.0}}},
        {"type": "envelope_minorization", "subset": "most", "K": 1.0, "w": "zeros"},
    ],
)
def test_bad_state_sets_are_exit_2(tmp_path, capsys, entry):
    cfg = {"model": {"builtin": "biased2"}, "risk": {"kind": "neutral"}, "certificates": [entry]}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 2
    assert f"certificates[0] ({entry['type']}): " in capsys.readouterr().err
    assert not (out / "certificates.json").exists()


def test_state_set_forms_name_the_same_states(tmp_path):
    # biased2 sits at coordinates 0 and 1, so only state 0 is interior
    forms = ["all", [1, 0], {"level": {"w0": "coords_sq", "radius": 1.0}}]
    cfg = {
        "model": {"builtin": "biased2"},
        "risk": {"kind": "neutral"},
        "certificates": [{"type": "doeblin", "subset": f} for f in forms]
        + [{"type": "doeblin", "subset": "interior"}, {"type": "doeblin", "subset": [0]}]
        + [{"type": "lyapunov", "w0": "zeros", "states": f} for f in forms],
    }
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    report = json.loads((out / "certificates.json").read_text())
    for r in report:
        del r["timing_s"]  # the only part of an entry that differs from run to run
    assert [r["constants"]["alpha"] for r in report[:3]] == [pytest.approx(0.7)] * 3
    assert report[3] == report[4]
    assert report[5] == report[6] == report[7]


# --- sweep --------------------------------------------------------------------------


def test_sweep_lambda_axis(tmp_path):
    cfg = {
        "model": {"builtin": "uniform2"},
        "risk": {"kind": "entropic", "lambda": 1.0},
        "sweep": {"param": "lambda", "values": [0.25, 1.0, 2.0]},
    }
    code, out = run(tmp_path, "sweep", cfg)
    assert code == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["param", "rho", "iterations", "converged"]
    assert len(rows) == 4
    rhos = [float(r[1]) for r in rows[1:]]
    # entropic value grows with the risk parameter
    assert rhos[0] < rhos[1] < rhos[2]
    assert rhos[1] == pytest.approx(np.log(0.5 * (1 + np.e)), abs=1e-8)


SWEEP_2D = {
    "diffusion": {**DIFFUSION_1D, "dim": 2, "A": [[0.5, 0.0], [0.0, 0.5]],
                  "drift": {"left": [-0.5, 0.0], "right": [0.5, 0.0]},
                  "diffusion": {"left": [[1.0, 0.0], [0.0, 1.0]], "right": [[1.0, 0.0], [0.0, 1.0]]}},
    "grid": {"points": 21, "extent": 5.0},
    "cost": {"form": "quadratic", "c0": 0.1},
}


def test_sweep_parallel_jobs_match_serial(tmp_path):
    # the 21x21 grid is large enough that the entropic matrix products run
    # in BLAS threads inside the job threads
    for model, jobs in [({"builtin": "random_seeded", "params": {"n": 5, "m": 2, "seed": 6}}, 4), (SWEEP_2D, 2)]:
        cfg = {
            "model": model,
            "risk": {"kind": "entropic", "lambda": 1.0},
            "sweep": {"param": "lambda", "values": [0.5, 1.0, 1.5, 2.0]},
        }
        code1, out1 = run(tmp_path, "sweep", cfg)
        serial = (out1 / "sweep.csv").read_text()
        (out1 / "sweep.csv").unlink()
        code2, out2 = run(tmp_path, "sweep", cfg, jobs=jobs)
        assert code1 == code2 == 0
        assert (out2 / "sweep.csv").read_text() == serial


def test_an_order_based_sweep_solves_its_neutral_start_once(tmp_path, monkeypatch):
    # every lambda starts from one neutral solve and reads the rho, the
    # sweeps and the bits of a solve that took its own
    values = [-0.5, 0.25, 0.5, 1.0]
    cfg = {"model": SWEEP_2D, "risk": {"kind": "mean_semideviation", "lambda": 0.5},
           "sweep": {"param": "lambda", "values": values}}
    mcp = riskmdp.cli.build_model(cfg, tmp_path)[0]
    scfg = riskmdp.cli._solve_config(cfg, mcp.n_states)
    start = relative_value_iteration(mcp, RiskMapSpec("neutral"), scfg)
    want = [relative_value_iteration(mcp, RiskMapSpec("mean_semideviation", lam=lam), scfg) for lam in values]
    kinds, bellman_F = [], riskmdp.solver.bellman_F

    def spying(mcp, spec, *args):
        kinds.append(spec.kind)
        return bellman_F(mcp, spec, *args)

    monkeypatch.setattr(riskmdp.solver, "bellman_F", spying)
    code, out = run(tmp_path, "sweep", cfg, jobs=2)
    assert code == 0
    assert kinds.count("neutral") == start.iterations > 0
    assert kinds.count("mean_semideviation") == sum(res.iterations for res in want)
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [[repr(lam), repr(res.rho), str(res.iterations), str(res.converged)]
                    for lam, res in zip(values, want)]


@pytest.mark.parametrize("model, risk, layout", [
    (SWEEP_2D, {"kind": "neutral"}, "factored"),
    (SWEEP_2D, {"kind": "entropic", "lambda": -0.5}, "factored"),
    (SWEEP_2D, {"kind": "density_band", "band": [0.5, 1.5]}, "factored"),
    ({"diffusion": DIFFUSION_1D, "grid": {"points": 21, "extent": 4.0}}, {"kind": "neutral"}, "dense"),
    ({"builtin": "biased2"}, {"kind": "entropic", "lambda": 1.0}, "dense"),
], ids=["2d-neutral", "2d-entropic", "2d-band", "1d", "builtin"])
def test_solve_records_the_row_layout(tmp_path, model, risk, layout):
    # a 2-D grid with diagonal noise stores per-axis factors, for every kind
    code, out = run(tmp_path, "solve", {"model": model, "risk": risk})
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["row_layout"] == layout and "dense_rows_built" not in result


LEVEL = {"level": {"w0": "coords_sq", "radius": 4.0}}  # 49 of the 441 states
ONE_READER_RISKS = [
    {"kind": "neutral"}, {"kind": "entropic", "lambda": -0.5}, {"kind": "density_band", "band": [0.5, 1.5]},
    {"kind": "density_band", "band": [1.0, 1.0]}, {"kind": "mean_semideviation", "lambda": 0.5},
    {"kind": "shortfall", "utility": {"breakpoints": [0.0], "slopes": [0.5, 2.0]}},
]
ONE_READER_CERTIFICATES = [
    {"type": "lyapunov", "w0": "coords_sq", "states": LEVEL},
    {"type": "doeblin", "subset": LEVEL},
    {"type": "local_doeblin", "subset": LEVEL},
    {"type": "l2", "w0": "coords_sq", "K0": 1.0, "gamma0": 0.5, "K": 2.0, "n_samples": 300},
    {"type": "contraction", "w0": "coords_sq", "gamma": 0.5, "K_bar": 1.0, "alpha": 0.5, "R": 5.0,
     "measure": {"n_trials": 20}},
    {"type": "envelope_minorization", "subset": LEVEL, "K": 1.0, "w": "coords_sq"},
]


def one_reader_outputs(tmp_path):
    """A solve of every kind, a two-job semideviation sweep and a verify
    with every certificate type on SWEEP_2D: the numbers each wrote."""
    got = []
    for risk in ONE_READER_RISKS:
        code, out = run(tmp_path, "solve", {"model": SWEEP_2D, "risk": risk})
        result = json.loads((out / "result.json").read_text())
        got.append((code, result["rho"], result["residual"], result["policy"], result["iterations"]))
    code, out = run(tmp_path, "sweep", {"model": SWEEP_2D, "risk": {"kind": "mean_semideviation", "lambda": 0.5},
                                        "sweep": {"param": "lambda", "values": [0.25, 0.5]}}, jobs=2)
    got.append((code, (out / "sweep.csv").read_text().splitlines()))
    code, out = run(tmp_path, "verify", {"model": SWEEP_2D, "risk": {"kind": "density_band", "band": [0.5, 1.5]},
                                         "certificates": ONE_READER_CERTIFICATES})
    report = json.loads((out / "certificates.json").read_text())
    got.append((code, [(r["kind"], r["satisfied"], r["constants"]) for r in report]))
    return got


def test_a_factored_grid_reads_its_rows_through_the_store_only(tmp_path, monkeypatch):
    # every kernel and certificate reads rows through the row store: with
    # the dense export disabled every command still runs, no call forms
    # every row at once, a mean-semideviation solve forms no row at all
    # (one evaluation takes one product, for its means), and the numbers
    # are those of the dense twin
    whole, products = [], []
    take, product = mdp.FactoredRows.take, mdp.FactoredRows.product

    def recording(self, idx):
        rows = take(self, idx)
        whole.append(len(rows) == len(self))
        return rows

    def counting(self, W):
        products.append(len(W))
        return product(self, W)

    def refuse(self):
        raise AssertionError("the dense stack was formed")

    with monkeypatch.context() as mp:
        mp.setattr(mdp.FactoredRows, "take", recording)
        mp.setattr(mdp.FiniteMCP, "stacked_transition", property(refuse))
        got = one_reader_outputs(tmp_path)
        assert whole and not any(whole)
        whole.clear()
        code, _ = run(tmp_path, "solve", {"model": SWEEP_2D, "risk": {"kind": "mean_semideviation", "lambda": 0.5}})
        assert code == 0 and whole == []
        rows = riskmdp.cli.build_model({"model": SWEEP_2D}, tmp_path)[0].rows
        mp.setattr(mdp.FactoredRows, "product", counting)
        v = np.linspace(-1.0, 1.0, rows.shape[1])
        risk_values(RiskMapSpec("mean_semideviation", lam=0.5), v, rows)
        risk_values(RiskMapSpec("mean_semideviation", lam=0.5), v, rows, keep=np.arange(0, len(rows), 3))
        assert products == [1, 1] and whole == []
    build = riskmdp.cli.build_model

    def dense_twin(cfg, base):
        m, meta = build(cfg, base)
        assert m.rows.layout == "factored"
        return mdp.FiniteMCP(m.actions, m.rows.take(slice(None)), m.stacked_cost, m.state_coords), meta

    monkeypatch.setattr(riskmdp.cli, "build_model", dense_twin)
    want = one_reader_outputs(tmp_path)
    for (code, rho, residual, policy, iterations), want_solve in zip(got[:-2], want[:-2]):
        assert (code, policy, iterations) == (0, want_solve[3], want_solve[4])
        assert rho == pytest.approx(want_solve[1], abs=1e-14)
        assert residual == pytest.approx(want_solve[2], abs=1e-14)
    # the sweep's rho from factored row dots rounds apart from the dense
    # einsum's, by about 3e-15 here, so it is held to the solves' 1e-14
    (code, lines), (want_code, want_lines) = got[-2], want[-2]
    assert (code, lines[0]) == (want_code, want_lines[0]) == (0, "param,rho,iterations,converged")
    assert len(lines) == len(want_lines) == 3
    for line, want_line in zip(csv.reader(lines[1:]), csv.reader(want_lines[1:])):
        assert (line[0], line[2], line[3]) == (want_line[0], want_line[2], want_line[3])
        assert float(line[1]) == pytest.approx(float(want_line[1]), abs=1e-14)
    (code, report), (want_code, want_report) = got[-1], want[-1]
    assert code == want_code and len(report) == 6
    for (kind, ok, constants), (want_kind, want_ok, want_constants) in zip(report, want_report):
        assert (kind, ok) == (want_kind, want_ok)
        assert constants == pytest.approx(want_constants, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize(
    "argv",
    [["solve", "--jobs", "2"], ["verify", "--jobs", "2"], ["sweep", "--jobs", "0"], ["sweep", "--jobs", "-1"]],
)
def test_jobs_only_on_sweep_and_at_least_one(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, {"model": {"builtin": "uniform2"}, "risk": {"kind": "neutral"}})
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", cfg, *argv[1:]])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_sweep_requires_lambda_kind(tmp_path):
    cfg = {
        "model": {"builtin": "uniform2"},
        "risk": {"kind": "neutral"},
        "sweep": {"param": "lambda", "values": [0.5]},
    }
    code, _ = run(tmp_path, "sweep", cfg)
    assert code == 2
    cfg = {"model": {"builtin": "uniform2"}, "risk": {"kind": "entropic", "lambda": 1.0}}
    code, _ = run(tmp_path, "sweep", cfg)
    assert code == 2


# --- console entry point ---------------------------------------------------------------


def run_console(*args):
    """Run ``python -m riskmdp *args`` in a child process on the package under test.

    The directory holding the imported ``riskmdp`` goes first on PYTHONPATH, so a
    source checkout and an installed tree both exercise the code pytest loaded.
    When an installed ``riskmdp`` console script is on PATH it is run too, and
    must agree with ``python -m riskmdp`` on exit code and stdout.
    """
    env = dict(os.environ)
    package_root = str(Path(riskmdp.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    kw = dict(capture_output=True, text=True, env=env, timeout=60)
    proc = subprocess.run([sys.executable, "-m", "riskmdp", *args], **kw)
    script = shutil.which("riskmdp")
    if script is not None:
        installed = subprocess.run([script, *args], **kw)
        assert installed.returncode == proc.returncode
        assert installed.stdout == proc.stdout
    return proc


def test_console_script_help():
    proc = run_console("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: riskmdp")
    for word in ("solve", "verify", "sweep"):
        assert word in proc.stdout
    assert "``" not in proc.stdout


def test_console_script_requires_subcommand():
    proc = run_console()
    assert proc.returncode == 2
    assert "the following arguments are required: command" in proc.stderr


def test_console_script_is_wired_to_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).parents[1] / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["riskmdp"] == "riskmdp.cli:main"
