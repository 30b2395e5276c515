"""Acceptance suite: one test per contract criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
The two expensive solves (torus 128^2, plane 256^2) are shared module-level
fixtures; their wall time is checked against the stated budgets.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import vortexlab as vl
from vortexlab import cli
from vortexlab.errors import InfeasibleDomain
from vortexlab.solver import LOG2
from conftest import random_direction, random_state, small_torus_setup


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def torus_run():
    """p=1, q=2, N1=2, N2=1 on the (2 pi)^2 cell, 128^2 grid."""
    l = 2 * math.pi
    k = vl.coupling_from_pq(1.0, 2.0)
    vortices = vl.VortexSet(
        up=((0.3 * l, 0.3 * l, 1), (0.7 * l, 0.55 * l, 1)),
        down=((0.5 * l, 0.75 * l, 1),),
    )
    cfg = vl.SolveConfig(
        coupling=k,
        vortices=vortices,
        grid=vl.Grid2D.periodic(l, l, 128, 128),
    )
    t0 = time.perf_counter()
    sol = vl.newton_solve(cfg)
    return cfg, sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def plane_run():
    """p=1, q=2, single species-1 vortex at the origin, default R, 256^2 grid."""
    k = vl.coupling_from_pq(1.0, 2.0)
    vortices = vl.VortexSet(up=((0.0, 0.0, 1),))
    r_half = vl.default_plane_half_width(k, vortices)
    cfg = vl.SolveConfig(
        coupling=k,
        vortices=vortices,
        grid=vl.Grid2D.dirichlet(r_half, 256, 256),
    )
    t0 = time.perf_counter()
    sol = vl.newton_solve(cfg)
    return cfg, sol, time.perf_counter() - t0


def test_criterion_01_vacuum_exactness():
    k = vl.coupling_from_pq(1.0, 2.0)
    cfg = vl.SolveConfig(
        coupling=k,
        vortices=vl.VortexSet(),
        grid=vl.Grid2D.dirichlet(9.0, 128, 128),
    )
    t0 = time.perf_counter()
    sol = vl.newton_solve(cfg)
    elapsed = time.perf_counter() - t0
    dev = max(np.max(np.abs(sol.u1.values + LOG2)), np.max(np.abs(sol.u2.values + LOG2)))
    f1, f2 = vl.flux_report(sol)
    ok = dev <= 1e-12 and abs(f1) <= 1e-12 and abs(f2) <= 1e-12 and elapsed < 1.0
    _report(1, "vacuum exactness", ok,
            f"max|u+ln2|={dev:.2e} flux=({f1:.2e},{f2:.2e}) time={elapsed:.2f}s")


def test_criterion_02_torus_flux_quantization(torus_run):
    cfg, sol, elapsed = torus_run
    f1, f2 = vl.flux_report(sol)
    err1 = abs(f1 + 2 * math.pi) / (2 * math.pi)
    err2 = abs(f2 + math.pi) / math.pi
    ok = err1 <= 0.005 and err2 <= 0.005 and elapsed < 30.0
    _report(2, "torus flux quantization", ok,
            f"flux=({f1:.6f},{f2:.6f}) rel_err=({err1:.2e},{err2:.2e}) time={elapsed:.1f}s")


def test_criterion_03_plane_flux_quantization(plane_run):
    cfg, sol, elapsed = plane_run
    f1, f2 = vl.flux_report(sol)
    err1 = abs(f1 + math.pi) / math.pi
    err2 = abs(f2) / math.pi
    ok = err1 <= 0.005 and err2 <= 0.005 and elapsed < 60.0
    _report(3, "plane flux quantization", ok,
            f"flux=({f1:.6f},{f2:.2e}) rel_err=({err1:.2e},{err2:.2e}) time={elapsed:.1f}s")


def test_criterion_04_eta_identities(torus_run):
    cfg, sol, _ = torus_run
    eta1, eta2 = vl.eta_report(sol)
    predicted = vl.check_admissibility(
        cfg.coupling, cfg.vortices.n1, cfg.vortices.n2, cfg.grid.area
    )
    err1 = abs(eta1 - predicted.eta1) / predicted.eta1
    err2 = abs(eta2 - predicted.eta2) / predicted.eta2
    ok = err1 <= 0.005 and err2 <= 0.005
    _report(4, "eta identities", ok, f"rel_err=({err1:.2e},{err2:.2e})")


def test_criterion_05_energy_identity(torus_run, plane_run):
    results = []
    for cfg, sol, _ in (torus_run, plane_run):
        expected = -math.pi * (cfg.vortices.n1 + cfg.vortices.n2) / 2
        measured = vl.energy_report(sol)
        results.append(abs(measured - expected) / abs(expected))
    ok = all(err <= 0.005 for err in results)
    _report(5, "energy identity", ok,
            "rel_err=" + ",".join(f"{e:.2e}" for e in results))


def test_criterion_06_feasibility_gate():
    k = vl.coupling_from_pq(1.0, 2.0)
    threshold = vl.check_admissibility(k, 2, 1, 1.0).threshold

    def make_cfg(area):
        l = math.sqrt(area)
        vortices = vl.VortexSet(
            up=((0.35 * l, 0.4 * l, 1), (0.65 * l, 0.6 * l, 1)),
            down=((0.5 * l, 0.52 * l, 1),),
        )
        return vl.SolveConfig(
            coupling=k, vortices=vortices, grid=vl.Grid2D.periodic(l, l, 64, 64),
        )

    refused = False
    try:
        vl.newton_solve(make_cfg(0.9 * threshold))
    except InfeasibleDomain:
        refused = True
    sol = vl.newton_solve(make_cfg(1.1 * threshold))
    converged = sol.final_residual <= 1e-10
    ok = refused and converged
    _report(6, "feasibility gate", ok,
            f"0.9x refused={refused} 1.1x residual={sol.final_residual:.2e}")


def test_criterion_07_decay_bound(plane_run):
    cfg, sol, _ = plane_run
    fit = vl.decay_fit(sol)
    bound = 0.8 * math.sqrt(cfg.coupling.lambda0)
    ok = fit.rate >= bound and fit.gradient_rate >= bound
    _report(7, "decay bound", ok,
            f"rate={fit.rate:.3f} grad_rate={fit.gradient_rate:.3f} bound={bound:.3f} "
            f"r2=({fit.r2:.4f},{fit.gradient_r2:.4f})")


def test_criterion_08_oracle_equivalence(tmp_path):
    raw = {
        "p": 1.0,
        "q": 2.0,
        "domain": {"kind": "plane"},
        "grid": {"nx": 256, "ny": 256},
        "vortices": {"up": [[0.0, 0.0, 1]]},
    }
    resolved = cli.resolve_config(raw, "oracle-compare")
    code = cli.run_oracle_compare(resolved, tmp_path)
    rep = json.loads((tmp_path / "oracle_compare.json").read_text())
    worst = max(rep["u1_max_abs_diff"], rep["u2_max_abs_diff"])
    ok = code == 0 and worst <= 1e-3
    _report(8, "oracle equivalence", ok,
            f"max_ring_diff=({rep['u1_max_abs_diff']:.2e},{rep['u2_max_abs_diff']:.2e}) "
            f"window={rep['window']}")


def test_criterion_09_calculus_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    cfg, bg = small_torus_setup(n=8)
    state = random_state(cfg, rng)
    da = cfg.grid.cell_area

    def inner(a, b):
        return da * float(np.sum(a[0].values * b[0].values) + np.sum(a[1].values * b[1].values))

    # gradient vs central differences
    d = random_direction(cfg, rng)
    g = vl.functional_gradient(state, cfg, bg)
    eps = 1e-6
    sp = vl.State(vl.ScalarField(cfg.grid, state.w1.values + eps * d[0].values),
                  vl.ScalarField(cfg.grid, state.w2.values + eps * d[1].values))
    sm = vl.State(vl.ScalarField(cfg.grid, state.w1.values - eps * d[0].values),
                  vl.ScalarField(cfg.grid, state.w2.values - eps * d[1].values))
    fd = (vl.functional_value(sp, cfg, bg) - vl.functional_value(sm, cfg, bg)) / (2 * eps)
    grad_err = abs(fd - inner(g, d)) / max(1.0, abs(inner(g, d)))

    # Hessian symmetry and positivity
    e = random_direction(cfg, rng)
    hd = vl.hessian_matvec(state, d, cfg, bg)
    he = vl.hessian_matvec(state, e, cfg, bg)
    sym_err = abs(inner(hd, e) - inner(d, he))
    positive = all(
        inner(vl.hessian_matvec(state, dd, cfg, bg), dd) > 0.0
        for dd in (random_direction(cfg, rng) for _ in range(100))
    )
    elapsed = time.perf_counter() - t0
    ok = grad_err < 1e-6 and sym_err < 1e-11 and positive and elapsed < 1.0
    _report(9, "calculus consistency", ok,
            f"grad_fd_rel={grad_err:.2e} hess_sym={sym_err:.2e} "
            f"positive_100={positive} time={elapsed:.2f}s")


def test_criterion_10_uniqueness(torus_run):
    cfg, sol, _ = torus_run
    rng = np.random.default_rng(23)
    start = random_state(cfg, rng, amplitude=1.0)
    sol2 = vl.newton_solve(cfg, initial_state=start)
    dev = max(
        np.max(np.abs(sol.u1.values - sol2.u1.values)),
        np.max(np.abs(sol.u2.values - sol2.u2.values)),
    )
    ok = dev <= 1e-8
    _report(10, "uniqueness via convexity", ok, f"max|du|={dev:.2e}")


def test_criterion_11_mu_independence():
    k = vl.coupling_from_pq(1.0, 2.0)
    vortices = vl.VortexSet(up=((0.0, 0.0, 1),))
    r_half = vl.default_plane_half_width(k, vortices)
    grid = vl.Grid2D.dirichlet(r_half, 128, 128)
    mus = (4.0, 16.0, 64.0)
    solutions = [
        vl.newton_solve(vl.SolveConfig(coupling=k, vortices=vortices, grid=grid, mu=mu))
        for mu in mus
    ]
    dev = 0.0
    for other in solutions[1:]:
        dev = max(dev, float(np.max(np.abs(solutions[0].u1.values - other.u1.values))))
        dev = max(dev, float(np.max(np.abs(solutions[0].u2.values - other.u2.values))))
    # source mass independent of mu: integral of 4 mu/(mu+r^2)^2 over the plane
    mass_errs = []
    for mu in mus:
        integral, _ = quad(lambda r: 4 * mu / (mu + r * r) ** 2 * 2 * math.pi * r, 0, math.inf)
        mass_errs.append(abs(integral * vortices.n1 - 4 * math.pi * vortices.n1) / (4 * math.pi))
    ok = dev <= 1e-6 and all(e <= 1e-4 for e in mass_errs)
    _report(11, "mu independence", ok,
            f"max|du|={dev:.2e} source_mass_rel_err={max(mass_errs):.2e}")


def test_criterion_12_exchange_symmetry(torus_run):
    cfg, sol, _ = torus_run
    swapped_cfg = vl.SolveConfig(
        coupling=cfg.coupling, vortices=cfg.vortices.swapped(), grid=cfg.grid,
    )
    swapped = vl.newton_solve(swapped_cfg)
    ok = (
        np.array_equal(sol.u1.values, swapped.u2.values)
        and np.array_equal(sol.u2.values, swapped.u1.values)
        and np.array_equal(sol.exp_u1.values, swapped.exp_u2.values)
        and np.array_equal(sol.exp_u2.values, swapped.exp_u1.values)
    )
    _report(12, "exchange symmetry", ok, "bit-for-bit swap of u1/u2")


def test_criterion_13_determinism(tmp_path):
    cfg = {
        "p": 1.0,
        "q": 2.0,
        "domain": {"kind": "torus", "L1": 2 * math.pi, "L2": 2 * math.pi},
        "grid": {"nx": 32, "ny": 32},
        "vortices": {"up": [[1.9, 1.9, 1]], "down": [[3.1, 4.7, 1]]},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
    first = (out / "report.json").read_bytes()
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
    ok = (out / "report.json").read_bytes() == first
    _report(13, "determinism", ok, f"report.json bytes={len(first)}")
