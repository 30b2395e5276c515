"""Batch front-end: feasibility checks, solves, and 1D-oracle comparisons.

Usage:
    vortexlab check|solve|oracle-compare --config run.json [--out DIR]
                                         [--emit-fields] [--emit-profiles]

The config states the problem and is strict JSON (unknown keys rejected);
the command line states where the outputs go and which optional ones to
write.  report.json embeds the fully resolved configuration; pointing
--config at a report reruns it and reproduces the outputs byte for byte,
into any --out (pass the emit flags again to re-emit fields or profiles).

Exit codes: 0 success, 1 invalid config or unwritable outputs, 2 infeasible
domain, 3 solver failure (non-convergence, or an error raised inside the solver).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import diagnostics
from .background import default_mu, plane_log_u0
from .discretization import Grid2D, bilinear_sample
from .errors import (
    ConfigError,
    ExponentOverflow,
    InfeasibleDomain,
    LineSearchStalled,
    MaxIterationsExceeded,
    ConvergenceFailure,
    NotRadiallyReducible,
    SolverError,
    VortexLabError,
)
from .model import (
    PhysicalParams,
    VortexSet,
    check_admissibility,
    coupling_from_pq,
    eigen_inverse_values,
    merge_coincident,
    validate_vortex_positions,
)
from .reporting import write_fld, write_json, write_radial_profile
from .solver import (
    LOG2,
    ORACLE_MESH,
    SolveConfig,
    default_plane_half_width,
    newton_solve,
    radial_oracle,
)

MODES = ("check", "solve", "oracle-compare")

# tol_residual and max_newton: the config keys that pass straight through
# to SolveConfig, with its defaults
_SOLVER_DEFAULTS = {
    f.name: f.default for f in fields(SolveConfig) if f.default is not MISSING and f.name != "mu"
}

_TOP_KEYS = {
    "mode", "p", "q", "rho_bar", "domain", "grid", "vortices", "mu",
    *_SOLVER_DEFAULTS, "oracle_mesh",
}


def _reject_unknown(d: dict, allowed: set[str], where: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing key '{key}' in {where}")
    return d[key]


def _as_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' must be a number")
    # JSON admits NaN and Infinity, 1e999 parses as inf, and a long integer
    # overflows float; the comparison is exact for ints and false for NaN
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"key '{key}' must be a finite number")
    return float(value)


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{key}' must be an integer")
    return value


def _parse_vortex_list(raw, key: str):
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigError(f"key '{key}' must be a list of [x, y, multiplicity]")
    out = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ConfigError(f"entries of '{key}' must be [x, y, multiplicity]")
        x = _as_number(entry[0], key)
        y = _as_number(entry[1], key)
        m = _as_int(entry[2], key)
        out.append((x, y, m))
    return tuple(out)


def resolve_config(raw: dict, mode: str) -> dict:
    """Validate a raw config dict and fill every default explicitly."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    # a report.json is accepted transparently: rerun its embedded config
    if "config" in raw and "diagnostics" in raw:
        raw = raw["config"]
        if not isinstance(raw, dict):
            raise ConfigError("embedded 'config' must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    if "mode" in raw and raw["mode"] != mode:
        raise ConfigError(f"config key 'mode' is '{raw['mode']}' but the subcommand is '{mode}'")

    p = _as_number(_need(raw, "p", "config"), "p")
    q = _as_number(_need(raw, "q", "config"), "q")
    rho = _as_number(raw.get("rho_bar", 1.0), "rho_bar")
    k = coupling_from_pq(p, q)

    vort_raw = raw.get("vortices", {})
    if not isinstance(vort_raw, dict):
        raise ConfigError("key 'vortices' must be an object with 'up' and 'down'")
    _reject_unknown(vort_raw, {"up", "down"}, "vortices")
    up = merge_coincident(_parse_vortex_list(vort_raw.get("up"), "vortices.up"))
    down = merge_coincident(_parse_vortex_list(vort_raw.get("down"), "vortices.down"))
    vortices = VortexSet(up=up, down=down)

    dom_raw = _need(raw, "domain", "config")
    if not isinstance(dom_raw, dict):
        raise ConfigError("key 'domain' must be an object")
    kind = _need(dom_raw, "kind", "domain")
    if kind == "torus":
        _reject_unknown(dom_raw, {"kind", "L1", "L2"}, "domain")
        l1 = _as_number(_need(dom_raw, "L1", "domain"), "L1")
        l2 = _as_number(_need(dom_raw, "L2", "domain"), "L2")
        domain = {"kind": "torus", "L1": l1, "L2": l2}
        mu = None
        if "mu" in raw and raw["mu"] is not None:
            raise ConfigError("key 'mu' applies only to plane domains")
    elif kind == "plane":
        _reject_unknown(dom_raw, {"kind", "R"}, "domain")
        if "R" in dom_raw and dom_raw["R"] is not None:
            r_half = _as_number(dom_raw["R"], "R")
        else:
            r_half = default_plane_half_width(k, vortices)
        domain = {"kind": "plane", "R": r_half}
        mu = raw.get("mu")
        mu = default_mu(vortices) if mu is None else _as_number(mu, "mu")
    else:
        raise ConfigError(f"domain kind must be 'torus' or 'plane', got '{kind}'")

    grid_raw = _need(raw, "grid", "config")
    if not isinstance(grid_raw, dict):
        raise ConfigError("key 'grid' must be an object")
    _reject_unknown(grid_raw, {"nx", "ny"}, "grid")
    nx = _as_int(_need(grid_raw, "nx", "grid"), "nx")
    ny = _as_int(_need(grid_raw, "ny", "grid"), "ny")

    resolved = {
        "mode": mode,
        "p": p,
        "q": q,
        "rho_bar": rho,
        "domain": domain,
        "grid": {"nx": nx, "ny": ny},
        "vortices": {
            "up": [[x, y, m] for x, y, m in up],
            "down": [[x, y, m] for x, y, m in down],
        },
        "mu": mu,
        **{
            key: (_as_int if isinstance(default, int) else _as_number)(raw.get(key, default), key)
            for key, default in _SOLVER_DEFAULTS.items()
        },
    }
    if mode == "oracle-compare":
        resolved["oracle_mesh"] = _as_int(raw.get("oracle_mesh", ORACLE_MESH), "oracle_mesh")
    return resolved


def _build_problem(resolved: dict):
    params = PhysicalParams(resolved["p"], resolved["q"], resolved["rho_bar"])
    k = coupling_from_pq(resolved["p"], resolved["q"])
    vortices = VortexSet(
        up=tuple(tuple(v) for v in resolved["vortices"]["up"]),
        down=tuple(tuple(v) for v in resolved["vortices"]["down"]),
    )
    dom = resolved["domain"]
    nx, ny = resolved["grid"]["nx"], resolved["grid"]["ny"]
    if dom["kind"] == "torus":
        grid = Grid2D.periodic(dom["L1"], dom["L2"], nx, ny)
    else:
        grid = Grid2D.dirichlet(dom["R"], nx, ny)
    validate_vortex_positions(vortices, grid)
    cfg = SolveConfig(
        coupling=k,
        vortices=vortices,
        grid=grid,
        mu=resolved["mu"],
        **{key: resolved[key] for key in _SOLVER_DEFAULTS},
    )
    return params, cfg


def _admissibility_dict(cfg: SolveConfig) -> dict:
    return asdict(check_admissibility(cfg.coupling, cfg.vortices.n1, cfg.vortices.n2, cfg.grid.area))


def run_check(resolved: dict, out_dir: Path) -> int:
    _, cfg = _build_problem(resolved)
    cfg.grid.require_torus()
    adm = _admissibility_dict(cfg)
    write_json(out_dir / "admissibility.json", adm)
    return 0 if adm["feasible"] else 2


def _solution_report(resolved: dict, params, cfg, sol) -> dict:
    diag = diagnostics.build_report(sol, params)
    n1, n2 = cfg.vortices.n1, cfg.vortices.n2
    diag_dict = {
        **asdict(diag),
        "flux_expected": [-math.pi * n1, -math.pi * n2],
        "physical_flux_expected": [-2.0 * math.pi * params.p * n1, -2.0 * math.pi * params.p * n2],
        "energy_expected": -math.pi * (n1 + n2) / 2.0,
    }
    return {
        "config": resolved,
        "admissibility": _admissibility_dict(cfg) if cfg.grid.is_torus else None,
        "solve": {
            "converged": True,
            "newton_iterations": sol.newton_iterations,
            "final_residual": sol.final_residual,
            "functional_value": sol.functional_value,
            "history": [asdict(s) for s in sol.history],
        },
        "diagnostics": diag_dict,
    }


def _emit_profiles(out_dir: Path, cfg, sol) -> None:
    grid = cfg.grid
    r_half = grid.half_width
    radii = np.linspace(0.1 * r_half, 0.95 * r_half, 64)
    u = np.stack((sol.u1.values, sol.u2.values))
    u1, u2, dev1, dev2 = diagnostics.ring_means(grid, np.concatenate((u, (u + LOG2) ** 2)), radii)
    write_radial_profile(out_dir / "radial_profile.csv", radii, u1, u2, dev1 + dev2)


def _solve(cfg: SolveConfig):
    """newton_solve on a validated config: a ValueError from it is the solver's."""
    try:
        return newton_solve(cfg)
    except ValueError as exc:
        raise SolverError(f"{type(exc).__name__} raised in the solver: {exc}") from exc


def run_solve(resolved: dict, out_dir: Path, emit_fields: bool, emit_profiles: bool) -> int:
    params, cfg = _build_problem(resolved)
    sol = _solve(cfg)
    report = _solution_report(resolved, params, cfg, sol)
    write_json(out_dir / "report.json", report)
    if emit_fields:
        write_fld(out_dir / "u1.fld", sol.u1)
        write_fld(out_dir / "u2.fld", sol.u2)
        write_fld(out_dir / "B12.fld", diagnostics.b12_map(sol, params))
    if emit_profiles and not cfg.grid.is_torus:
        _emit_profiles(out_dir, cfg, sol)
    return 0


def run_oracle_compare(resolved: dict, out_dir: Path) -> int:
    params, cfg = _build_problem(resolved)
    cfg.grid.require_plane()
    for x, y, _ in cfg.vortices.up + cfg.vortices.down:
        if math.hypot(x, y) > 1e-9:
            raise NotRadiallyReducible(
                f"vortex at ({x}, {y}) is off the origin; no radial reduction"
            )
    n1, n2 = cfg.vortices.n1, cfg.vortices.n2
    k = cfg.coupling
    r_half = cfg.grid.half_width
    rmax = max(r_half, 20.0 / k.decay_rate)
    # the oracle needs no 2D solution: a bad oracle mesh fails before the solve
    r_oracle, u1_oracle, u2_oracle = radial_oracle(k, n1, n2, rmax, mesh=resolved["oracle_mesh"])
    sol = _solve(cfg)

    grid = cfg.grid
    mu = cfg.resolved_mu()
    r_lo = max(0.5, 3.0 * max(grid.hx, grid.hy))
    r_hi = 0.8 * r_half
    radii = np.linspace(r_lo, r_hi, 48)
    x, y = diagnostics.ring_points(radii)
    # sample u through the analytic background plus the interpolated smooth
    # correction; interpolating u directly would lose accuracy at the core
    v = np.stack(eigen_inverse_values(sol.state.w1.values, sol.state.w2.values, k))
    v1_rings, v2_rings = bilinear_sample(grid, v, x, y)
    u1_rings = (plane_log_u0(cfg.vortices.up, mu, x, y) + v1_rings - LOG2).mean(axis=1)
    u2_rings = (plane_log_u0(cfg.vortices.down, mu, x, y) + v2_rings - LOG2).mean(axis=1)
    u1_ref = np.interp(radii, r_oracle, u1_oracle)
    u2_ref = np.interp(radii, r_oracle, u2_oracle)

    d1 = np.abs(u1_rings - u1_ref)
    d2 = np.abs(u2_rings - u2_ref)
    comparison = {
        "config": resolved,
        "window": [float(r_lo), float(r_hi)],
        "radii": [float(r) for r in radii],
        "u1_rings_2d": [float(v) for v in u1_rings],
        "u1_rings_1d": [float(v) for v in u1_ref],
        "u2_rings_2d": [float(v) for v in u2_rings],
        "u2_rings_1d": [float(v) for v in u2_ref],
        "u1_max_abs_diff": float(np.max(d1)),
        "u1_mean_abs_diff": float(np.mean(d1)),
        "u2_max_abs_diff": float(np.max(d2)),
        "u2_mean_abs_diff": float(np.mean(d2)),
    }
    write_json(out_dir / "oracle_compare.json", comparison)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vortexlab", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", required=True, type=Path)
        sp.add_argument("--out", type=Path, default=Path("."))
        sp.add_argument("--emit-fields", action="store_true")
        sp.add_argument("--emit-profiles", action="store_true")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        resolved = resolve_config(raw, args.mode)
        args.out.mkdir(parents=True, exist_ok=True)
        if args.mode == "check":
            return run_check(resolved, args.out)
        if args.mode == "solve":
            return run_solve(resolved, args.out, args.emit_fields, args.emit_profiles)
        return run_oracle_compare(resolved, args.out)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    except InfeasibleDomain as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (MaxIterationsExceeded, LineSearchStalled, ConvergenceFailure, ExponentOverflow) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, NotRadiallyReducible, VortexLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
